"""Stream filters (SURVEY.md §2.2 V16).

The reference supports FlateDecode (whole-buffer zlib inflate,
src/image.rs:134-139) and DCTDecode (JPEG, src/image.rs:140-143).
LZWDecode is absent from the reference but named by BASELINE.json's
north_star, so it is implemented fresh from the public PDF 1.7 spec
(§3.3.3): variable-width codes 9->12 bits, clear code 256, EOD 257,
EarlyChange=1 by default. Its codes are read in bulk: the width of
every code between two CLEARs is known from its position alone, so a
run of one width is gathered with numpy (a 3-byte window, shift and
mask per code) at most 4,096 codes at a time, and only the table loop
runs per code. The decoder's working set beyond its output is that one
chunk and a 4,096-entry table, however long the stream.

Safety addition over the reference (which inflates unboundedly): a
decompression output cap guards against zip bombs so one hostile
document cannot OOM a worker (SURVEY.md §4).
"""

from __future__ import annotations

import binascii
import re
import zlib

from .errors import FilterError

# 256 MiB decompressed cap per stream: far above any sane content
# stream, far below a worker heap. One hostile row must not OOM a task.
MAX_DECODED_BYTES = 256 * 1024 * 1024


def flate_decode(data: bytes, max_bytes: int = MAX_DECODED_BYTES) -> bytes:
    d = zlib.decompressobj()
    try:
        out = d.decompress(data, max_bytes)
    except zlib.error as e:
        raise FilterError(f"FlateDecode failed: {e}") from e
    if len(out) >= max_bytes:
        raise FilterError("FlateDecode output exceeds safety cap")
    if not d.eof:
        # truncated deflate stream: the reference's whole-buffer inflate
        # errors here too — silent partial text must not pass as ok
        raise FilterError("FlateDecode stream truncated (no final block)")
    return out


# codes per bulk read (bounds the decoder's working set), and the run
# length below which codes are read one by one: numpy's per-call cost
# dominates there, and a hostile stream of 1-code runs must not pay it
# per code
_LZW_CHUNK = 4096
_LZW_SCALAR_RUN = 32
_LZW_CLEAR, _LZW_EOD = 256, 257
_LZW_TABLE_MAX = 4096
_SINGLE_BYTES = tuple(bytes((i,)) for i in range(256))


def _lzw_codes(
    data: bytes, pos: int, width: int, count: int
) -> tuple[list[int], list[int]]:
    """``count`` big-endian codes of ``width`` bits starting at bit
    ``pos`` (the caller guarantees they all lie inside ``data``), and the
    indices of the CLEAR and EOD codes among them."""
    mask = (1 << width) - 1
    if count < _LZW_SCALAR_RUN:
        codes = []
        for bit in range(pos, pos + count * width, width):
            b = bit >> 3
            window = int.from_bytes(data[b : b + 3].ljust(3, b"\0"), "big")
            codes.append((window >> (24 - width - (bit & 7))) & mask)
        return codes, [i for i, c in enumerate(codes) if c in (_LZW_CLEAR, _LZW_EOD)]
    import numpy as np

    # a 12-bit code at any bit offset fits a 3-byte window: gather the
    # window of every code, then shift and mask (two pad bytes keep the
    # last window inside the buffer)
    lo = pos >> 3
    hi = (pos + count * width + 7) >> 3
    buf = np.frombuffer(data[lo:hi] + b"\0\0", dtype=np.uint8).astype(np.int32)
    bits = np.arange(pos & 7, (pos & 7) + count * width, width, dtype=np.int32)
    at = bits >> 3
    window = (buf[at] << 16) | (buf[at + 1] << 8) | buf[at + 2]
    codes = (window >> (24 - width - (bits & 7))) & mask
    stops = np.flatnonzero((codes == _LZW_CLEAR) | (codes == _LZW_EOD))
    return codes.tolist(), stops.tolist()


def lzw_decode(
    data: bytes, early_change: int = 1, max_bytes: int = MAX_DECODED_BYTES
) -> bytes:
    """PDF LZWDecode (spec §3.3.3). Codes start at 9 bits; the table
    grows to 4096 entries; width bumps happen one code early when
    ``early_change`` is 1 (the spec default).

    The code width depends only on how many codes were read since the
    last CLEAR, so the widths are known before the codes are: each run
    of one width is read in bulk, at most ``_LZW_CHUNK`` codes per read,
    and the table loop then expands a plain list of ints. The working
    set beyond the output is one chunk of codes, their expansions and a
    4096-entry table, whatever the stream size. A CLEAR inside a 9-bit
    run keeps the codes after it (the next segment starts at 9 bits on
    the same grid); a CLEAR inside a wider run ends the read there. A
    stream that ends mid-code returns what was decoded. The output cap
    is checked at the end of each chunk and before any other error.
    """
    # the last code index (since a CLEAR) read at 9, 10 and 11 bits: after
    # code j the table holds 258 + j entries, and the width bumps once
    # that plus early_change reaches 512, 1024, 2048 (one bump per code)
    last9 = max(0, 254 - early_change)
    last10 = max(last9 + 1, 766 - early_change)
    last11 = max(last10 + 1, 1790 - early_change)
    run_ends = (last9 + 1, last10 + 1, last11 + 1)
    cap = max(max_bytes, 0)  # an empty output never trips the cap
    total_bits = len(data) * 8
    out = bytearray()
    parts: list[bytes] = []  # this chunk's expansions
    add = parts.append
    single = _SINGLE_BYTES
    # entries past 4096 are dropped after each chunk: codes are at most
    # 12 bits, so a lookup past the end is always the code being defined
    table = [*single, b"", b""]
    push = table.append
    prev: bytes | None = None
    k = 0  # codes read since the last CLEAR
    pos = 0

    def flush() -> None:
        """Move this chunk's expansions to ``out``; raise past the cap
        (before any other error, as a code-at-a-time check would)."""
        out.extend(b"".join(parts))
        parts.clear()
        if len(out) > cap:
            raise FilterError("LZWDecode output exceeds safety cap")

    while True:
        width = 9 + (k >= run_ends[0]) + (k >= run_ends[1]) + (k >= run_ends[2])
        run = run_ends[width - 9] - k if width < 12 else _LZW_CHUNK
        count = min(run, _LZW_CHUNK, (total_bits - pos) // width)
        if count <= 0:
            break  # no whole code left: a truncated stream ends here
        codes, stops = _lzw_codes(data, pos, width, count)
        stops.append(count)
        i = 0
        for stop in stops:
            if i < stop:
                k += stop - i
                if prev is None:
                    code = codes[i]
                    if code > 255:
                        flush()
                        raise FilterError(f"LZWDecode: invalid code {code}")
                    prev = table[code]
                    add(prev)
                    i += 1
                for code in codes[i:stop]:
                    try:
                        entry = table[code]
                    except IndexError:
                        if code != len(table):
                            flush()
                            msg = f"LZWDecode: invalid code {code}"
                            raise FilterError(msg) from None
                        entry = prev + single[prev[0]]
                    add(entry)
                    push(prev + single[entry[0]])
                    prev = entry
            if stop == count:
                pos += count * width
                break
            if codes[stop] == _LZW_EOD:
                flush()
                return bytes(out)
            del table[258:]
            prev = None
            k = 0
            i = stop + 1
            if width != 9:
                pos += i * width
                break
        del table[_LZW_TABLE_MAX:]
        flush()
    return bytes(out)


def lzw_encode(data: bytes, early_change: int = 1) -> bytes:
    """Encoder counterpart (used only to build test fixtures)."""
    CLEAR, EOD = 256, 257
    out_bits: list[tuple[int, int]] = []
    table: dict[bytes, int] = {bytes([i]): i for i in range(256)}
    next_code = 258
    width = 9
    out_bits.append((CLEAR, width))
    w = b""
    for byte in data:
        wc = w + bytes([byte])
        if wc in table:
            w = wc
            continue
        out_bits.append((table[w], width))
        table[wc] = next_code
        next_code += 1
        if next_code + early_change - 1 >= (1 << width) and width < 12:
            width += 1
        if next_code >= 4096:
            out_bits.append((CLEAR, width))
            table = {bytes([i]): i for i in range(256)}
            next_code = 258
            width = 9
        w = bytes([byte])
    if w:
        out_bits.append((table[w], width))
    out_bits.append((EOD, width))
    acc = nbits = 0
    out = bytearray()
    for code, wdt in out_bits:
        acc = (acc << wdt) | code
        nbits += wdt
        while nbits >= 8:
            out.append((acc >> (nbits - 8)) & 0xFF)
            nbits -= 8
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def apply_png_predictor(data: bytes, colors: int, bpc: int, columns: int) -> bytes:
    """Undo PNG row predictors (RFC 2083 §6; PDF 1.7 Table 3.8,
    Predictor >= 10). Used chiefly by cross-reference streams, which are
    almost always Flate + Predictor 12 (Up) in real files.

    Row layout: 1 tag byte + columns*colors*bpc/8 data bytes.
    """
    bpp = max(1, (colors * bpc) // 8)
    row_len = (columns * colors * bpc + 7) // 8
    out = bytearray()
    prev = bytearray(row_len)
    pos = 0
    n = len(data)
    while pos < n:
        tag = data[pos]
        row = bytearray(data[pos + 1 : pos + 1 + row_len])
        pos += 1 + row_len
        if tag == 0:
            pass
        elif tag == 1:  # Sub
            for i in range(bpp, len(row)):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif tag == 2:  # Up
            for i in range(len(row)):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif tag == 3:  # Average
            for i in range(len(row)):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif tag == 4:  # Paeth
            for i in range(len(row)):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                row[i] = (row[i] + pred) & 0xFF
        else:
            raise FilterError(f"unsupported PNG predictor row tag {tag}")
        out += row
        prev = row
    return bytes(out)


def apply_predictor(data: bytes, parm: dict) -> bytes:
    """Dispatch /DecodeParms Predictor after a Flate/LZW decode."""
    predictor = int(parm.get("Predictor", 1))
    if predictor <= 1:
        return data
    colors = int(parm.get("Colors", 1))
    bpc = int(parm.get("BitsPerComponent", 8))
    columns = int(parm.get("Columns", 1))
    if predictor >= 10:
        return apply_png_predictor(data, colors, bpc, columns)
    if predictor == 2:  # TIFF horizontal differencing (8-bit only here)
        if bpc != 8:
            raise FilterError("TIFF predictor requires 8-bit components")
        row_len = columns * colors
        out = bytearray(data)
        for r in range(0, len(out), row_len):
            for i in range(r + colors, min(r + row_len, len(out))):
                out[i] = (out[i] + out[i - colors]) & 0xFF
        return bytes(out)
    raise FilterError(f"unsupported predictor {predictor}")


def png_predict_up(data: bytes, columns: int) -> bytes:
    """Encoder counterpart (Predictor 12/Up; used to build fixtures)."""
    out = bytearray()
    prev = bytes(columns)
    for r in range(0, len(data), columns):
        row = data[r : r + columns]
        out.append(2)
        out += bytes((row[i] - prev[i]) & 0xFF for i in range(len(row)))
        prev = row
    return bytes(out)


def dct_decode(data: bytes) -> bytes:
    """DCTDecode (JPEG): returns dense row-major samples (RGB triplets
    or gray bytes). The reference decodes JPEG via the
    ``jpeg_decoder`` crate (src/image.rs:140-143); this container has
    no codec, so the engine carries its own pure-Python baseline
    implementation (pdfcore/jpeg.py)."""
    from .jpeg import JpegError, decode_jpeg

    try:
        return decode_jpeg(data)[3]
    except JpegError as e:
        raise FilterError(f"DCTDecode failed: {e}") from e


_PDF_WS = b"\x00\t\n\x0c\r "


def ascii_hex_decode(data: bytes, max_bytes: int = MAX_DECODED_BYTES) -> bytes:
    """ASCIIHexDecode (PDF spec §7.4.2): pairs of hex digits, all PDF
    whitespace ignored, ``>`` is EOD; an odd trailing digit is padded
    with ``0``. Absent from the reference's closed filter enum
    (src/image.rs:126-130) — engine extension for full-spec parity.

    The body up to ``>`` goes through ``binascii.unhexlify``; a bad
    character or an output past the cap reruns the per-byte loop, which
    raises the error."""
    end = data.find(b">")
    body = (data if end < 0 else data[:end]).translate(None, _PDF_WS)
    try:
        out = binascii.unhexlify(body + b"0" if len(body) & 1 else body)
    except binascii.Error:
        out = None
    if out is not None and len(out) <= max_bytes:
        return out
    return _ascii_hex_decode_loop(data, max_bytes)


def _ascii_hex_decode_loop(data: bytes, max_bytes: int) -> bytes:
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


def ascii_hex_encode(data: bytes) -> bytes:
    return data.hex().upper().encode("ascii") + b">"


# base64.a85decode holds a 4-byte bytes object per group until it
# joins them, so the fast path feeds it group-aligned chunks
_A85_CHUNK = 1 << 16
_A85_EOD = re.compile(rb"~[\x00\t\n\x0c\r ]*>")


def ascii85_decode(data: bytes, max_bytes: int = MAX_DECODED_BYTES) -> bytes:
    """ASCII85Decode (PDF spec §7.4.3): base-85 groups of 5 chars for
    4 bytes, ``z`` shorthand for an all-zero group, ``~>`` is EOD, PDF
    whitespace ignored. A final partial group of n chars (2 <= n <= 4)
    is padded with ``u`` and yields n-1 bytes.

    The whitespace-free body up to ``~>`` goes through
    ``base64.a85decode``; any shape it does not take (a bad character,
    ``z`` inside a group, a lone trailing character, overflow, a ``~``
    without ``>``, an output past the cap) reruns the per-byte loop,
    which raises the error."""
    end = data.find(b"~")
    if end < 0 or _A85_EOD.match(data, end):
        body = (data if end < 0 else data[:end]).translate(None, _PDF_WS)
        out = _a85_chunks(body, max_bytes)
        if out is not None:
            return out
    return _ascii85_decode_loop(data, max_bytes)


def _a85_chunks(body: bytes, max_bytes: int) -> bytes | None:
    from base64 import a85decode

    out = bytearray()
    pos, n = 0, len(body)
    while pos < n:
        chunk = body[pos : pos + _A85_CHUNK]
        pos += len(chunk)
        tail = (len(chunk) - chunk.count(b"z")) % 5  # digits past a group
        if pos < n:  # end the chunk on a group boundary
            chunk = chunk[: len(chunk) - tail]
            pos -= tail
            if (len(chunk) - chunk.count(b"z")) % 5:
                return None  # a z inside the group it cut
        elif tail == 1:
            return None  # a lone trailing character
        try:
            out += a85decode(chunk, ignorechars=b"")
        except ValueError:
            return None
        if len(out) > max_bytes:
            return None
    return bytes(out)


def _ascii85_decode_loop(data: bytes, max_bytes: int) -> bytes:
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
        if b == 0x7E:  # '~' — must start the '~>' EOD (whitespace may
            # intervene: the spec lets whitespace occur anywhere)
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


def ascii85_encode(data: bytes) -> bytes:
    out = bytearray()
    for i in range(0, len(data) - len(data) % 4, 4):
        acc = int.from_bytes(data[i : i + 4], "big")
        if acc == 0:
            out.append(0x7A)  # 'z'
            continue
        g = bytearray(5)
        for j in range(4, -1, -1):
            g[j] = 0x21 + acc % 85
            acc //= 85
        out.extend(g)
    rem = len(data) % 4
    if rem:
        acc = int.from_bytes(data[-rem:] + b"\x00" * (4 - rem), "big")
        g = bytearray(5)
        for j in range(4, -1, -1):
            g[j] = 0x21 + acc % 85
            acc //= 85
        out.extend(g[: rem + 1])
    out.extend(b"~>")
    return bytes(out)


def run_length_decode(data: bytes, max_bytes: int = MAX_DECODED_BYTES) -> bytes:
    """RunLengthDecode (PDF spec §7.4.5): length byte L; L <= 127 means
    copy the next L+1 bytes literally, L >= 129 means repeat the next
    byte 257-L times, L == 128 is EOD."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        L = data[i]
        i += 1
        if L == 128:
            return bytes(out)
        if L <= 127:
            if i + L + 1 > n:
                raise FilterError("RunLengthDecode: truncated literal run")
            out.extend(data[i : i + L + 1])
            i += L + 1
        else:
            if i >= n:
                raise FilterError("RunLengthDecode: truncated repeat run")
            out.extend(data[i : i + 1] * (257 - L))
            i += 1
        if len(out) > max_bytes:
            raise FilterError("RunLengthDecode output exceeds safety cap")
    raise FilterError("RunLengthDecode: missing EOD (128)")


def run_length_encode(data: bytes) -> bytes:
    """Greedy run-length encoder: repeats of >= 3 become repeat runs,
    everything else literal runs (<= 128 bytes each)."""
    out = bytearray()
    i, n = 0, len(data)
    lit_start = 0

    def flush_literal(end: int) -> None:
        nonlocal lit_start
        while lit_start < end:
            chunk = min(128, end - lit_start)
            out.append(chunk - 1)
            out.extend(data[lit_start : lit_start + chunk])
            lit_start += chunk

    while i < n:
        j = i
        while j < n and data[j] == data[i] and j - i < 128:
            j += 1
        if j - i >= 3:
            flush_literal(i)
            out.append(257 - (j - i))
            out.append(data[i])
            lit_start = j
        i = j if j > i + 1 else i + 1
    flush_literal(n)
    out.append(128)
    return bytes(out)


_FILTERS = {
    "FlateDecode": flate_decode,
    "LZWDecode": lzw_decode,
}


def decode_stream(data: bytes, filter_names: list[str], parms: list[dict] | None = None) -> bytes:
    """Apply a filter chain to raw stream bytes.

    ``filter_names`` comes from /Filter (name or array of names);
    ``parms`` from /DecodeParms. Unknown filters raise FilterError
    (mirrors Error::UnsupporttedFilter, src/image.rs:112-130).
    """
    out = data
    for i, name in enumerate(filter_names):
        parm = (parms[i] if parms and i < len(parms) else None) or {}
        if name == "LZWDecode":
            out = lzw_decode(out, early_change=int(parm.get("EarlyChange", 1)))
            out = apply_predictor(out, parm)
        elif name == "FlateDecode":
            out = flate_decode(out)
            out = apply_predictor(out, parm)
        elif name == "DCTDecode":
            out = dct_decode(out)
        elif name == "ASCIIHexDecode":
            out = ascii_hex_decode(out)
        elif name == "ASCII85Decode":
            out = ascii85_decode(out)
        elif name == "RunLengthDecode":
            out = run_length_decode(out)
        elif name == "CCITTFaxDecode":
            from .ccitt import ccitt_decode

            out = ccitt_decode(
                out,
                k=int(parm.get("K", 0)),
                columns=int(parm.get("Columns", 1728)),
                rows=int(parm.get("Rows", 0)) or None,
                black_is_1=bool(parm.get("BlackIs1", False)),
            )
        else:
            raise FilterError("filter is not supportted")
    return out
