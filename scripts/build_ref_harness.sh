#!/bin/bash
# Build the reference differential harness WITHOUT network/cargo:
# stage the reference's std-only modules into /tmp (read-only source is
# never modified; nothing is committed) and compile harness_main.rs
# beside them with plain rustc. header/image/lib/main/error.rs need
# external crates (regex, image, flate2) and are excluded.
set -euo pipefail
STAGE=/tmp/refsrc
rm -rf "$STAGE"
mkdir -p "$STAGE"
cp -r /root/reference/src/raw_byte.rs /root/reference/src/raw_byte \
      /root/reference/src/lexer.rs /root/reference/src/lexer \
      /root/reference/src/parser.rs /root/reference/src/parser \
      /root/reference/src/object.rs \
      /root/reference/src/cross_reference.rs \
      /root/reference/src/trailer.rs /root/reference/src/trailer \
      /root/reference/src/util.rs \
      "$STAGE/"
cp "$(dirname "$0")/ref_harness_main.rs" "$STAGE/harness_main.rs"
rustc --edition 2021 -O -A warnings -o /tmp/ref_harness "$STAGE/harness_main.rs"
echo "built /tmp/ref_harness"
