"""ASCIIHex / ASCII85 / RunLength filters (PDF spec §7.4.2/3/5) and
the chunked LZWDecode against its code-at-a-time oracle.

The first three are engine extensions past the reference's closed
filter enum (src/image.rs:126-130 supports only Flate and DCT) — spec
examples, property roundtrips, malformed-input probes, and the
end-to-end path (content stream filtered through each variant must
extract the same text as the unfiltered build).
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_parser_ray.pdfcore.filters import (
    MAX_DECODED_BYTES,
    FilterError,
    ascii85_decode,
    ascii85_encode,
    ascii_hex_decode,
    ascii_hex_encode,
    lzw_decode,
    lzw_encode,
    run_length_decode,
    run_length_encode,
)


# -- ASCIIHexDecode -----------------------------------------------------------


def test_hex_basic():
    assert ascii_hex_decode(b"48656C6C6F>") == b"Hello"
    # whitespace ignored, lowercase accepted
    assert ascii_hex_decode(b"48 65\n6c\t6C 6f>") == b"Hello"
    # odd trailing digit padded with 0
    assert ascii_hex_decode(b"7>") == b"\x70"
    # data after EOD ignored
    assert ascii_hex_decode(b"41>zz-not-hex") == b"A"
    # empty
    assert ascii_hex_decode(b">") == b""


def test_hex_invalid():
    with pytest.raises(FilterError):
        ascii_hex_decode(b"4G>")


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
def test_hex_roundtrip(data):
    assert ascii_hex_decode(ascii_hex_encode(data)) == data


# -- ASCII85Decode ------------------------------------------------------------


def test_a85_basic():
    # 'Hello' -> 87cURDZ (partial final group of 2 chars -> 1 byte)
    assert ascii85_decode(ascii85_encode(b"Hello")) == b"Hello"
    # z shorthand
    assert ascii85_decode(b"z~>") == b"\x00\x00\x00\x00"
    assert ascii85_encode(b"\x00\x00\x00\x00") == b"z~>"
    # whitespace ignored mid-stream
    enc = ascii85_encode(b"sure.")
    spaced = b" ".join(enc[i : i + 1] for i in range(len(enc)))
    assert ascii85_decode(spaced) == b"sure."
    # empty
    assert ascii85_decode(b"~>") == b""


def test_a85_known_vector():
    # the canonical external vector (independent of our encoder)
    assert ascii85_decode(b"87cURD]i,\"Ebo80~>") == b"Hello World!"
    assert ascii85_encode(b"Hello World!") == b"87cURD]i,\"Ebo80~>"


def test_a85_invalid():
    with pytest.raises(FilterError):
        ascii85_decode(b"ab z~>")  # z inside a group
    with pytest.raises(FilterError):
        ascii85_decode(b"a~>")  # lone trailing char
    with pytest.raises(FilterError):
        ascii85_decode(b"abc{~>")  # char out of range ('{' = 0x7B)
    with pytest.raises(FilterError):
        ascii85_decode(b"s8W-\"~>")  # group value > 2^32-1


def test_a85_partial_group_no_eod():
    # a 5-char final group without ~> is accepted (lenient EOD)
    data = b"\x01\x02\x03\x04"
    enc = ascii85_encode(data)
    assert enc.endswith(b"~>")
    assert ascii85_decode(enc[:-2]) == data


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
def test_a85_roundtrip(data):
    assert ascii85_decode(ascii85_encode(data)) == data


# -- ASCIIHex / ASCII85 against their per-byte loops ---------------------------


def ascii_hex_decode_naive(data: bytes, max_bytes: int = MAX_DECODED_BYTES) -> bytes:
    """The per-byte ASCIIHexDecode loop, oracle for the unhexlify path."""
    out = bytearray()
    hi = -1
    for b in data:
        if b in b"\x00\t\n\x0c\r ":
            continue
        if b == 0x3E:  # '>' EOD
            break
        if 0x30 <= b <= 0x39:
            v = b - 0x30
        elif 0x41 <= b <= 0x46:
            v = b - 0x41 + 10
        elif 0x61 <= b <= 0x66:
            v = b - 0x61 + 10
        else:
            raise FilterError(f"ASCIIHexDecode: invalid character {b:#04x}")
        if hi < 0:
            hi = v
        else:
            out.append((hi << 4) | v)
            hi = -1
        if len(out) > max_bytes:
            raise FilterError("ASCIIHexDecode output exceeds safety cap")
    if hi >= 0:  # odd digit count: pad with 0
        out.append(hi << 4)
    return bytes(out)


def ascii85_decode_naive(data: bytes, max_bytes: int = MAX_DECODED_BYTES) -> bytes:
    """The per-byte ASCII85Decode loop, oracle for the a85decode path."""
    out = bytearray()
    group: list[int] = []

    def flush(g: list[int], n_out: int) -> None:
        acc = 0
        for c in g:
            acc = acc * 85 + c
        if acc > 0xFFFFFFFF:
            raise FilterError("ASCII85Decode: group value overflow")
        out.extend(acc.to_bytes(4, "big")[:n_out])

    i, n = 0, len(data)
    while i < n:
        b = data[i]
        i += 1
        if b in b"\x00\t\n\x0c\r ":
            continue
        if b == 0x7E:
            while i < n and data[i] in b"\x00\t\n\x0c\r ":
                i += 1
            if i >= n or data[i] != 0x3E:
                raise FilterError("ASCII85Decode: '~' without '>'")
            break
        if b == 0x7A:  # 'z'
            if group:
                raise FilterError("ASCII85Decode: 'z' inside group")
            out.extend(b"\x00\x00\x00\x00")
        elif 0x21 <= b <= 0x75:  # '!'..'u'
            group.append(b - 0x21)
            if len(group) == 5:
                flush(group, 4)
                group = []
        else:
            raise FilterError(f"ASCII85Decode: invalid character {b:#04x}")
        if len(out) > max_bytes:
            raise FilterError("ASCII85Decode output exceeds safety cap")
    if group:
        if len(group) == 1:
            raise FilterError("ASCII85Decode: lone trailing character")
        k = len(group)
        flush(group + [84] * (5 - k), k - 1)  # pad with 'u' (84)
    return bytes(out)


def _filter_outcome(fn, data, max_bytes):
    try:
        return fn(data, max_bytes)
    except FilterError as e:
        return ("error", str(e))


_WS_BYTES = [bytes([b]) for b in b"\x00\t\n\x0c\r "]
_HEX_PIECES = st.one_of(
    st.binary(max_size=40).map(lambda b: b.hex().encode()),
    st.binary(max_size=8).map(lambda b: b.hex().upper().encode()),
    st.sampled_from(_WS_BYTES + [b">", b"7", b"g", b"G", b"~", b"\x80", b"\x0b"]),
    st.binary(max_size=2),
)
_A85_PIECES = st.one_of(
    st.binary(max_size=40).map(lambda b: ascii85_encode(b)[:-2]),
    st.sampled_from(
        _WS_BYTES
        + [b"z", b"~>", b"~ \n>", b"~", b"~x", b"u", b"uuuuu", b"s8W-!", b"s8W-\"",
           b"!", b"v", b"y", b"{", b"\x80", b"\x0b"]
    ),
    st.binary(max_size=2),
)
_CAPS = st.sampled_from([0, 1, 3, 4, 5, 8, 64, MAX_DECODED_BYTES])


@settings(max_examples=400, deadline=None)
@given(st.lists(_HEX_PIECES, max_size=12).map(b"".join), _CAPS)
def test_hex_matches_naive(data, max_bytes):
    assert _filter_outcome(ascii_hex_decode, data, max_bytes) == _filter_outcome(
        ascii_hex_decode_naive, data, max_bytes
    )


@settings(max_examples=400, deadline=None)
@given(st.lists(_A85_PIECES, max_size=12).map(b"".join), _CAPS)
def test_a85_matches_naive(data, max_bytes):
    assert _filter_outcome(ascii85_decode, data, max_bytes) == _filter_outcome(
        ascii85_decode_naive, data, max_bytes
    )


@pytest.mark.parametrize("chunk", [5, 6, 7, 9, 12])
def test_a85_group_aligned_chunks_match_naive(monkeypatch, chunk):
    """Chunks cut at every offset: z runs, partial groups, a z inside
    the group a chunk cut, errors past the first chunk."""
    from pdf_parser_ray.pdfcore import filters

    monkeypatch.setattr(filters, "_A85_CHUNK", chunk)
    rng = random.Random(chunk)
    pieces = [b"z", b"zz", b"!!!!!", b"87cUR", b"87", b"Ebo80", b" ", b"\n", b"u", b"uuuuu"]
    for _ in range(600):
        data = b"".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
        data += rng.choice([b"", b"~>", b"~ x"])
        for max_bytes in (3, 64, MAX_DECODED_BYTES):
            assert _filter_outcome(ascii85_decode, data, max_bytes) == _filter_outcome(
                ascii85_decode_naive, data, max_bytes
            ), (data, max_bytes)


# -- RunLengthDecode ----------------------------------------------------------


def test_rl_basic():
    # literal run: L=2 -> copy 3 bytes; EOD=128
    assert run_length_decode(bytes([2]) + b"abc" + bytes([128])) == b"abc"
    # repeat run: L=254 -> 257-254=3 copies
    assert run_length_decode(bytes([254]) + b"x" + bytes([128])) == b"xxx"
    # max repeat: L=129 -> 128 copies
    assert run_length_decode(bytes([129]) + b"y" + bytes([128])) == b"y" * 128
    assert run_length_decode(bytes([128])) == b""


def test_rl_errors():
    with pytest.raises(FilterError):
        run_length_decode(bytes([5]) + b"ab")  # truncated literal
    with pytest.raises(FilterError):
        run_length_decode(bytes([200]))  # truncated repeat
    with pytest.raises(FilterError):
        run_length_decode(bytes([0]) + b"a")  # missing EOD


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
def test_rl_roundtrip(data):
    assert run_length_decode(run_length_encode(data)) == data


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 255), st.integers(1, 300)), max_size=8
    )
)
def test_rl_roundtrip_runs(runs):
    # run-heavy payloads exercise the repeat-run arm + the 128 cap
    data = b"".join(bytes([v]) * n for v, n in runs)
    assert run_length_decode(run_length_encode(data)) == data


# -- LZWDecode ----------------------------------------------------------------


def lzw_decode_naive(
    data: bytes, early_change: int = 1, max_bytes: int = MAX_DECODED_BYTES
) -> bytes:
    """Oracle: the code-at-a-time LZWDecode loop (one bit-reader step and
    one table step per code) that the chunked decoder replaced."""
    CLEAR, EOD = 256, 257
    out = bytearray()
    table = [bytes([i]) for i in range(256)] + [b"", b""]
    append = table.append
    prev = None
    width = 9
    limit = 1 << 9
    acc = 0
    nbits = 0
    total_bits = len(data) * 8
    pos = 0
    byte_pos = 0
    while pos + width <= total_bits:
        while nbits < width:
            acc = (acc << 8) | data[byte_pos]
            byte_pos += 1
            nbits += 8
        code = (acc >> (nbits - width)) & (limit - 1)
        nbits -= width
        acc &= (1 << nbits) - 1
        pos += width
        if code == CLEAR:
            del table[258:]
            prev = None
            width = 9
            limit = 512
            continue
        if code == EOD:
            return bytes(out)
        n = len(table)
        if code < n:
            entry = table[code]
        elif code == n and prev is not None:
            entry = prev + prev[:1]
        else:
            raise FilterError(f"LZWDecode: invalid code {code}")
        out += entry
        if len(out) > max_bytes:
            raise FilterError("LZWDecode output exceeds safety cap")
        if prev is not None:
            append(prev + entry[:1])
        prev = entry
        if len(table) + early_change >= limit and width < 12:
            width += 1
            limit = 1 << width
    return bytes(out)


def _lzw_outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except FilterError as e:
        return ("err", str(e))


def _assert_lzw_matches_naive(data, early_change, max_bytes):
    assert _lzw_outcome(lzw_decode, data, early_change, max_bytes) == _lzw_outcome(
        lzw_decode_naive, data, early_change, max_bytes
    )


def _pack_codes(codes: list[tuple[int, int]]) -> bytes:
    """(code, width) pairs -> MSB-first bit stream, zero-padded."""
    acc = nbits = 0
    out = bytearray()
    for code, width in codes:
        acc = (acc << width) | code
        nbits += width
        while nbits >= 8:
            out.append((acc >> (nbits - 8)) & 0xFF)
            nbits -= 8
        acc &= (1 << nbits) - 1
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def _code_stream(
    seed: int, n_codes: int, early_change: int, clear_every: int = 0
) -> bytes:
    """Random valid codes at the widths the decoder expects: each one a
    table hit or the code being defined (KwKwK). A CLEAR every
    ``clear_every`` codes (0: never), no EOD."""
    rng = random.Random(seed)
    codes = []
    n, width, has_prev = 258, 9, False
    for i in range(1, n_codes + 1):
        if clear_every and i % clear_every == 0:
            codes.append((256, width))
            n, width, has_prev = 258, 9, False
            continue
        if not has_prev:
            code = rng.randrange(256)
        else:
            code = rng.choice((rng.randrange(256), rng.randrange(258, n + 1)))
            code = min(code, (1 << width) - 1)
            n += 1
        codes.append((code, width))
        has_prev = True
        if n + early_change >= (1 << width) and width < 12:
            width += 1
    return _pack_codes(codes)


lzw_caps = st.one_of(st.just(MAX_DECODED_BYTES), st.integers(0, 4000))
lzw_plain = st.one_of(
    st.binary(max_size=3000),
    st.lists(st.sampled_from([b"a", b"ab", b"b ", b"abc", b"\x00"]), max_size=1500).map(
        b"".join
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    plain=lzw_plain,
    early_change=st.sampled_from([0, 1]),
    cut=st.one_of(st.none(), st.floats(0, 1)),
    flips=st.lists(st.integers(0, 1 << 20), max_size=3),
    max_bytes=lzw_caps,
)
def test_lzw_matches_naive_on_encoder_output(
    plain, early_change, cut, flips, max_bytes
):
    data = bytearray(lzw_encode(plain, early_change))
    if cut is not None:
        del data[int(len(data) * cut) :]
    for bit in flips:
        if data:
            bit %= len(data) * 8
            data[bit >> 3] ^= 0x80 >> (bit & 7)
    _assert_lzw_matches_naive(bytes(data), early_change, max_bytes)
    if cut is None and not flips and max_bytes >= len(plain):
        assert lzw_decode(bytes(data), early_change, max_bytes) == plain


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_codes=st.integers(4097, 9000),
    early_change=st.sampled_from([0, 1, 2, 300, -700]),
    clear_every=st.sampled_from([0, 0, 1, 2, 255, 1000, 3000]),
    max_bytes=lzw_caps,
)
def test_lzw_matches_naive_on_long_code_streams(
    seed, n_codes, early_change, clear_every, max_bytes
):
    """More than 4,096 codes: with no CLEAR the table outgrows 4,096
    entries and every code after the 12-bit switch is a table hit."""
    data = _code_stream(seed, n_codes, early_change, clear_every)
    _assert_lzw_matches_naive(data, early_change, max_bytes)


@settings(max_examples=150, deadline=None)
@given(
    data=st.binary(max_size=8000),
    early_change=st.sampled_from([0, 1, 5000]),
    max_bytes=lzw_caps,
)
def test_lzw_matches_naive_on_random_bytes(data, early_change, max_bytes):
    _assert_lzw_matches_naive(data, early_change, max_bytes)


def test_lzw_clear_runs_and_truncation():
    """Back-to-back CLEARs, a CLEAR inside every width run, and streams
    cut one bit short of a code all decode as the oracle does."""
    streams = [
        _pack_codes([(256, 9)] * 500 + [(65, 9), (257, 9)]),
        _code_stream(1, 3000, 1, clear_every=2),
        _code_stream(2, 5000, 1, clear_every=700),
        _code_stream(3, 5000, 1, clear_every=1500),
    ]
    for data in streams:
        for cut in (len(data), len(data) - 1, len(data) // 2):
            _assert_lzw_matches_naive(data[:cut], 1, MAX_DECODED_BYTES)
    assert lzw_decode(_pack_codes([(256, 9)] * 500 + [(65, 9), (257, 9)])) == b"A"


def test_lzw_error_messages_and_cap():
    with pytest.raises(FilterError, match=r"^LZWDecode: invalid code 300$"):
        lzw_decode(_pack_codes([(300, 9)]))
    with pytest.raises(FilterError, match=r"^LZWDecode: invalid code 258$"):
        lzw_decode(_pack_codes([(256, 9), (258, 9)]))
    # the cap is crossed before the invalid code: the cap error wins
    data = _pack_codes([(65, 9), (66, 9), (67, 9), (400, 9)])
    with pytest.raises(FilterError, match="exceeds safety cap"):
        lzw_decode(data, max_bytes=2)
    with pytest.raises(FilterError, match="invalid code 400"):
        lzw_decode(data, max_bytes=3)


def test_lzw_working_set_is_bounded():
    """Long hostile streams cost the decoder a bounded working set: it
    never holds the stream as bits or as one list of codes, and drops
    table entries past 4,096 (which no 12-bit code can reach)."""
    clears = _pack_codes([(256, 9)] * 200_000)  # 225 KB, empty output
    codes = _code_stream(4, 150_000, 1)  # 225 KB, no CLEAR, 365 KB output
    tracemalloc.start()
    try:
        assert lzw_decode(clears) == b""
        _, peak_clears = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert len(lzw_decode(codes)) == 364_778
        _, peak_codes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_clears < 256 * 1024
    # the code-at-a-time loop keeps all 150,000 table entries: ~7 MiB
    assert peak_codes < 3 * 1024 * 1024


# -- end-to-end through the PDF text path -------------------------------------


@pytest.mark.parametrize("variant", ["ahx", "a85+flate", "rl"])
def test_extract_text_through_new_filters(variant):
    from pdf_parser_ray.pdfcore import PdfDocument, extract_text
    from pdf_parser_ray.pdfcore.pdfbuild import build_text_pdf

    text = "filter parity\nsecond line"
    plain = extract_text(PdfDocument(build_text_pdf(text)))
    filtered = extract_text(
        PdfDocument(build_text_pdf(text, stream_filter=variant))
    )
    assert filtered == plain
