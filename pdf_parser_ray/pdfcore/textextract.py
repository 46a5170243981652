"""PDF text extraction: content streams, text operators, ToUnicode CMaps.

This path is ABSENT from the reference (it extracts images only,
src/lib.rs:60-72) but mandated by BASELINE.json's north_star as part of
the byte-to-text core: content-stream tokenization of BT..ET / Tj / TJ /
Td / TD / T* / ' / " operators plus CMap/ToUnicode glyph-to-Unicode
mapping. It is designed fresh from the public PDF 1.7 spec in the same
structural style as the reference's lexer (string/hex/name scanning
reuses the byte-exact kernels from lexer.py, so quirks Q1/Q2/Q5 apply
to content-stream strings too).

Deterministic assembly rule (normative for this engine's goldens):
- each show op (Tj / TJ / ' / ") appends decoded bytes; TJ kerning
  below -180/1000 em reads as a space, smaller adjustments are ignored
- Td / TD / T* / ' / " and a new BT emit b"\\n" iff text was shown since
  the last break
- pages are joined with b"\\n"
- with a /ToUnicode CMap the string's code units map to Unicode encoded
  as UTF-8; without one, string bytes pass through unchanged
"""

from __future__ import annotations

import re
from binascii import unhexlify
from collections import OrderedDict

from .errors import TextExtractError
from .lexer import (
    _NUMBER_CHARS,
    parse_hex_string,
    parse_name,
    parse_string,
)
from .objects import TAG, VAL, ensure_dict, ensure_iobj, ensure_ref, ensure_stream

_WS_BYTES = b"\x00\t\n\x0c\r "
_WS = frozenset(_WS_BYTES)

# content token kinds
C_NUM = "num"
C_STR = "str"
C_HEX = "hex"
C_NAME = "name"
C_ARR_START = "["
C_ARR_END = "]"
C_DICT_START = "<<"
C_DICT_END = ">>"
C_OP = "op"


# One content token per match, after the whitespace before it. The group
# that matched names the token, so a reader dispatches on ``m.lastindex``:
# a number exactly as int() or float() reads it, an operator (never
# starting with a number character), a hex body, a literal-string body
# without nested parens, a name, [, ], << or >>. A comment and the end
# of the buffer match no group. Anything else (a nested or unterminated
# string, a bad number or hex string, a lone > ) { } or \x12) lands in
# the last group, as does a non-ASCII name from the name branch, and
# ``ContentLexer.read_token`` reads that one token with the per-byte
# rules, errors included.
(_T_NUM, _T_OP, _T_HEX, _T_STR, _T_NAME,
 _T_ARR_START, _T_ARR_END, _T_DICT, _T_RARE) = range(1, 10)
_CONTENT_TOKEN = re.compile(
    rb"[\x00\t\n\x0c\r ]*+(?:"
    rb"([+-]?+(?:[0-9]++\.?+[0-9]*+|\.[0-9]++)(?![0-9+\-.]))"
    rb"|([^\x00\t\n\x0c\r \x12()<>\[\]{}/%0-9+\-.][^\x00\t\n\x12\r ()<>\[\]{}/%]*+)"
    rb"|<([0-9a-fA-F\x00\t\n\x0c\r ]*+)>"
    rb"|\(([^\\()]*+(?:\\[\x00-\xff][^\\()]*+)*+)\)"
    rb"|(/[^\x00\t\n\x12\r ()<>\[\]{}/%]*+)"
    rb"|(\[)|(\])|(<<|>>)"
    rb"|%[^\r\n]*+|\Z"
    rb"|([\x00-\xff]))"
)


class ContentLexer:
    """Tokenizer for content streams: operands + operator keywords.

    Unlike the object lexer (object-bounded, halts at endobj/stream —
    quirk Q11), content streams are an open-ended operator sequence, so
    any run of regular characters that is not a number is an operator
    token. Inline images (BI..ID..EI) are skipped as opaque bytes.
    ``tokens`` scans with ``_CONTENT_TOKEN``; ``tokens_naive`` is the
    per-byte loop, kept as its oracle.
    """

    __slots__ = ("buf", "i", "n")

    _WS_RUN = re.compile(rb"[\x00\t\n\x0c\r ]+")
    _NUM_RUN = re.compile(rb"[0-9+\-.]+")
    _REG_RUN = re.compile(rb"[^\x00\t\n\x12\r ()<>\[\]{}/%]+")
    _HEX_WS_RUN = re.compile(rb"[0-9a-fA-F\x00\t\n\x0c\r ]*")
    _STR_DELIM = re.compile(rb"[\\()]")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.i = 0
        self.n = len(buf)

    def tokens(self):
        """``(kind, value)`` per token. Inline images are not skipped:
        the text interpreter does that with ``skip_inline_image``."""
        buf = self.buf
        while True:
            for m in _CONTENT_TOKEN.finditer(buf, self.i):
                k = m.lastindex
                if k is None:
                    continue
                g = m.group(k)
                if k == _T_RARE or (k == _T_NAME and not g.isascii()):
                    yield self.read_token(m.start(k))
                    break
                if k == _T_NUM:
                    try:
                        yield (C_NUM, int(g))
                    except ValueError:
                        yield (C_NUM, float(g))
                elif k == _T_OP:
                    yield (C_OP, g.decode("latin-1"))
                elif k == _T_HEX:
                    yield (C_HEX, parse_hex_string(g.translate(None, _WS_BYTES)))
                elif k == _T_STR:
                    yield (C_STR, parse_string(g))
                elif k == _T_NAME:
                    yield (C_NAME, g[1:].decode("ascii"))
                elif k == _T_DICT:
                    yield (C_DICT_START if g == b"<<" else C_DICT_END, None)
                else:
                    yield (C_ARR_START if k == _T_ARR_START else C_ARR_END, None)
            else:
                return

    def tokens_naive(self):
        buf, n = self.buf, self.n
        while self.i < n:
            b = buf[self.i]
            if b in _WS:
                self.i = self._WS_RUN.match(buf, self.i).end()
                continue
            if b == 0x25:  # % comment to EOL
                j1 = buf.find(b"\n", self.i)
                j2 = buf.find(b"\r", self.i)
                js = [x for x in (j1, j2) if x != -1]
                self.i = min(js) if js else n
                continue
            yield self.read_token(self.i)

    def read_token(self, start: int) -> tuple:
        """The token at ``start`` (not whitespace or a comment) by the
        per-byte rules; ``self.i`` moves past it."""
        buf, n = self.buf, self.n
        b = buf[start]
        if b in _NUMBER_CHARS:
            self.i = self._NUM_RUN.match(buf, start).end()
            s = buf[start : self.i].decode("ascii")
            try:
                return (C_NUM, int(s))
            except ValueError:
                try:
                    return (C_NUM, float(s))
                except ValueError:
                    raise TextExtractError("cannot parse as number", start) from None
        if b == 0x2F:  # /name
            m = self._REG_RUN.match(buf, start + 1)
            self.i = m.end() if m else start + 1
            try:
                return (C_NAME, parse_name(buf[start + 1 : self.i]))
            except ValueError:
                raise TextExtractError("cannot parse as name", start) from None
        if b == 0x28:  # (string) with balanced parens + escapes
            depth = 0
            pos = start + 1
            while True:
                m = self._STR_DELIM.search(buf, pos)
                if m is None:
                    raise TextExtractError("unterminated string", start)
                at = m.start()
                c = buf[at]
                if c == 0x5C:
                    pos = at + 2
                elif c == 0x28:
                    depth += 1
                    pos = at + 1
                else:
                    if depth == 0:
                        break
                    depth -= 1
                    pos = at + 1
            self.i = at + 1
            return (C_STR, parse_string(buf[start + 1 : at]))
        if b == 0x3C:  # << or <hex>
            if start + 1 < n and buf[start + 1] == 0x3C:
                self.i = start + 2
                return (C_DICT_START, None)
            end = self._HEX_WS_RUN.match(buf, start + 1).end()
            if end >= n or buf[end] != 0x3E:
                raise TextExtractError("unterminated hex string", start)
            # content streams tolerate whitespace inside hex strings
            # (spec §3.2.3; the OBJECT lexer stays strict per Q5)
            self.i = end + 1
            return (C_HEX, parse_hex_string(buf[start + 1 : end].translate(None, _WS_BYTES)))
        if b == 0x3E:  # >>
            if start + 1 < n and buf[start + 1] == 0x3E:
                self.i = start + 2
                return (C_DICT_END, None)
            raise TextExtractError("unexpected `>`", start)
        if b == 0x5B:
            self.i = start + 1
            return (C_ARR_START, None)
        if b == 0x5D:
            self.i = start + 1
            return (C_ARR_END, None)
        m = self._REG_RUN.match(buf, start)
        if m is not None:
            self.i = m.end()
            return (C_OP, m.group(0).decode("latin-1"))
        # unknown delimiter (e.g. { } in type-4 functions): 1-byte op
        self.i = start + 1
        return (C_OP, chr(b))

    def skip_inline_image(self) -> None:
        """After a BI..ID, advance past the binary data to EI."""
        buf, n = self.buf, self.n
        i = self.i
        while i + 1 < n:
            if buf[i] == 0x45 and buf[i + 1] == 0x49:  # EI
                before_ws = i == 0 or buf[i - 1] in _WS
                after_ws = i + 2 >= n or buf[i + 2] in _WS
                if before_ws and after_ws:
                    self.i = i + 2
                    return
            i += 1
        self.i = n


class ToUnicodeCMap:
    """Parsed /ToUnicode CMap: code (int, length) -> unicode str.

    Supports begincodespacerange, beginbfchar, beginbfrange (both the
    <lo> <hi> <dst> and <lo> <hi> [<d1>...] forms), per PDF 1.7 §5.9.
    """

    __slots__ = ("single", "ranges", "code_lengths", "_table1")

    def __init__(self, data: bytes):
        self.single: dict[tuple[int, int], str] = {}
        self.ranges: list[tuple[int, int, int, str]] = []  # (lo, hi, length, base_dst)
        lengths: set[int] = set()

        toks = list(ContentLexer(data).tokens())
        i = 0
        n = len(toks)
        while i < n:
            kind, val = toks[i]
            if kind == C_OP and val == "begincodespacerange":
                i += 1
                while i < n and toks[i][0] == C_HEX:
                    lengths.add(len(toks[i][1]))
                    i += 2
                continue
            if kind == C_OP and val == "beginbfchar":
                i += 1
                while i + 1 < n and toks[i][0] == C_HEX and toks[i + 1][0] == C_HEX:
                    src, dst = toks[i][1], toks[i + 1][1]
                    lengths.add(len(src))
                    self.single[(int.from_bytes(src, "big"), len(src))] = dst.decode(
                        "utf-16-be", "replace"
                    )
                    i += 2
                continue
            if kind == C_OP and val == "beginbfrange":
                i += 1
                while (
                    i + 2 < n
                    and toks[i][0] == C_HEX
                    and toks[i + 1][0] == C_HEX
                ):
                    lo_b, hi_b = toks[i][1], toks[i + 1][1]
                    lo = int.from_bytes(lo_b, "big")
                    hi = int.from_bytes(hi_b, "big")
                    lengths.add(len(lo_b))
                    third = toks[i + 2]
                    if third[0] == C_HEX:
                        self.ranges.append(
                            (lo, hi, len(lo_b), third[1].decode("utf-16-be", "replace"))
                        )
                        i += 3
                    elif third[0] == C_ARR_START:
                        i += 3
                        code = lo
                        while i < n and toks[i][0] == C_HEX:
                            self.single[(code, len(lo_b))] = toks[i][1].decode(
                                "utf-16-be", "replace"
                            )
                            code += 1
                            i += 1
                        if i < n and toks[i][0] == C_ARR_END:
                            i += 1
                    else:
                        break
                continue
            i += 1

        self.code_lengths = sorted(lengths) or [1]

        # fast path: pure single-byte CMap -> one 256-entry table usable
        # with C-speed str.translate (None entries fall back to U+FFFD)
        self._table1: dict[int, str] | None = None
        if self.code_lengths == [1]:
            table = {}
            for code in range(256):
                hit = self.single.get((code, 1))
                if hit is None:
                    for lo, hi, rlen, base in self.ranges:
                        if rlen == 1 and lo <= code <= hi:
                            hit = (
                                base[:-1] + chr(ord(base[-1]) + (code - lo))
                                if base
                                else ""
                            )
                            break
                table[code] = "�" if hit is None else hit
            self._table1 = table

    def map_bytes(self, data: bytes) -> str:
        if self._table1 is not None:
            return data.decode("latin-1").translate(self._table1)
        return self._map_bytes_general(data)

    def _map_bytes_general(self, data: bytes) -> str:
        """Decode a show-string through the CMap; unmapped -> U+FFFD."""
        out: list[str] = []
        i = 0
        n = len(data)
        while i < n:
            matched = False
            for length in self.code_lengths:
                if i + length > n:
                    continue
                code = int.from_bytes(data[i : i + length], "big")
                hit = self.single.get((code, length))
                if hit is not None:
                    out.append(hit)
                    i += length
                    matched = True
                    break
                for lo, hi, rlen, base in self.ranges:
                    if rlen == length and lo <= code <= hi:
                        if base:
                            mapped = base[:-1] + chr(ord(base[-1]) + (code - lo))
                        else:
                            mapped = ""
                        out.append(mapped)
                        i += length
                        matched = True
                        break
                if matched:
                    break
            if not matched:
                out.append("�")
                i += self.code_lengths[0]
        return "".join(out)


# total raw-stream bytes of the keys a CMapCache holds before it
# evicts its least recently used CMaps
CMAP_CACHE_KEY_BYTES = 4 << 20


class CMapCache:
    """Parsed ToUnicode CMaps keyed by their raw stream bytes: a
    least-recently-used memo bounded by the total bytes of its keys
    (``CMAP_CACHE_KEY_BYTES``). A pure memo, so an eviction only costs a
    rebuild, never a different output. Holds one warm actor's CMaps."""

    __slots__ = ("entries", "key_bytes")

    def __init__(self):
        self.entries: OrderedDict[bytes, ToUnicodeCMap] = OrderedDict()
        self.key_bytes = 0

    def get(self, key: bytes) -> ToUnicodeCMap | None:
        cmap = self.entries.get(key)
        if cmap is not None:
            self.entries.move_to_end(key)
        return cmap

    def __setitem__(self, key: bytes, cmap: ToUnicodeCMap) -> None:
        entries = self.entries
        if key in entries:
            self.key_bytes -= len(key)
        entries[key] = cmap
        entries.move_to_end(key)
        self.key_bytes += len(key)
        while self.key_bytes > CMAP_CACHE_KEY_BYTES:
            old, _ = entries.popitem(last=False)
            self.key_bytes -= len(old)


class _Font:
    __slots__ = ("cmap", "table")

    def __init__(self, cmap: ToUnicodeCMap | None, enc_map: dict | None = None):
        self.cmap = cmap
        # simple fonts: the code -> char map as a 256-entry str.translate
        # table (unmapped codes -> U+FFFD); None = raw byte passthrough
        self.table = None
        if enc_map is not None:
            self.table = {b: enc_map.get(b, "�") for b in range(256)}


def _page_fonts(doc, page, cmap_cache: CMapCache | None = None) -> dict[str, _Font]:
    """Resolve the page's /Resources /Font map to _Font objects.

    ``cmap_cache`` maps raw ToUnicode stream bytes -> ToUnicodeCMap;
    pass a per-actor CMapCache to amortize CMap parsing across documents.
    """
    resources = page.node_dict[VAL].get("Resources")
    if resources is None:
        # PDF 1.7 §3.6.2 inheritance: fall back to the nearest ancestor
        # Pages node's /Resources (text path only; reference parity for
        # XObjects is preserved in document.py)
        resources = getattr(page, "inherited_resources", None)
    return _fonts_from_resources(doc, resources, cmap_cache)


def _fonts_from_resources(doc, resources, cmap_cache: CMapCache | None = None) -> dict[str, _Font]:
    fonts: dict[str, _Font] = {}
    if resources is None:
        return fonts
    if resources[TAG] == "ref":
        resources = ensure_iobj(doc.resolve(resources))[VAL]
    font_map = ensure_dict(resources)[VAL].get("Font")
    if font_map is None:
        return fonts
    if font_map[TAG] == "ref":
        font_map = ensure_iobj(doc.resolve(font_map))[VAL]
    for name, font_obj in ensure_dict(font_map)[VAL].items():
        if font_obj[TAG] == "ref":
            resolved = doc.resolve(font_obj)
            font_dict = (
                ensure_iobj(resolved)[VAL]
                if resolved[TAG] == "iobj"
                else resolved[VAL]
            )
        else:
            font_dict = font_obj
        cmap = None
        tou = font_dict[VAL].get("ToUnicode") if font_dict[TAG] == "dict" else None
        if tou is not None:
            stream = ensure_stream(doc.resolve(ensure_ref(tou)))
            if cmap_cache is not None:
                # cache keyed by the RAW stream bytes themselves (dict
                # equality — collision-proof, unlike builtin hash()): a
                # hit skips the filter decode AND the CMap parse
                # (identical ToUnicode streams recur constantly across
                # a real corpus)
                key = doc.get_stream_raw(stream)
                cmap = cmap_cache.get(key)
                if cmap is None:
                    cmap = ToUnicodeCMap(doc.get_stream_decoded(stream))
                    cmap_cache[key] = cmap
            else:
                cmap = ToUnicodeCMap(doc.get_stream_decoded(stream))
        enc_map = None
        if cmap is None and font_dict[TAG] == "dict":
            enc_map = _encoding_map(doc, font_dict[VAL].get("Encoding"))
        fonts[name] = _Font(cmap, enc_map)
    return fonts


def _encoding_map(doc, enc_obj) -> dict | None:
    """Simple-font /Encoding (name or dict with BaseEncoding +
    /Differences) -> code->char map; None = raw byte passthrough."""
    from .encodings import build_code_map

    if enc_obj is None:
        return None
    if enc_obj[TAG] == "ref":
        enc_obj = ensure_iobj(doc.resolve(enc_obj))[VAL]
    if enc_obj[TAG] == "name":
        return build_code_map(enc_obj[VAL], [])
    if enc_obj[TAG] != "dict":
        return None
    base = enc_obj[VAL].get("BaseEncoding")
    base_name = base[VAL] if base is not None and base[TAG] == "name" else None
    diffs_obj = enc_obj[VAL].get("Differences")
    diffs: list = []
    if diffs_obj is not None and diffs_obj[TAG] == "array":
        for el in diffs_obj[VAL]:
            if el[TAG] == "int":
                diffs.append(el[VAL])
            elif el[TAG] == "name":
                diffs.append(el[VAL])
    return build_code_map(base_name, diffs)


def _page_content(doc, page) -> bytes:
    """Concatenated, filter-decoded /Contents bytes for one page."""
    contents = page.node_dict[VAL].get("Contents")
    if contents is None:
        return b""
    if contents[TAG] == "array":
        parts = []
        for el in contents[VAL]:
            stream = doc.resolve(ensure_ref(el))
            parts.append(doc.get_stream_decoded(ensure_stream(stream)))
        return b"\n".join(parts)
    stream = doc.resolve(ensure_ref(contents))
    return doc.get_stream_decoded(ensure_stream(stream))


_MAX_FORM_DEPTH = 8
# TJ kerning below this (thousandths of em) reads as an inter-word
# space; typical word gaps are -250..-600, glyph nudges within ±100
_TJ_SPACE_KERN = -180


def _page_xobjects(doc, page) -> dict:
    """name -> raw /XObject dict entry (page or inherited resources)."""
    resources = page.node_dict[VAL].get("Resources")
    if resources is None:
        resources = getattr(page, "inherited_resources", None)
    return _xobjects_from_resources(doc, resources)


def _xobjects_from_resources(doc, resources) -> dict:
    if resources is None:
        return {}
    if resources[TAG] == "ref":
        resources = ensure_iobj(doc.resolve(resources))[VAL]
    if resources[TAG] != "dict":
        return {}
    xobj = resources[VAL].get("XObject")
    if xobj is None:
        return {}
    if xobj[TAG] == "ref":
        xobj = ensure_iobj(doc.resolve(xobj))[VAL]
    return dict(xobj[VAL]) if xobj[TAG] == "dict" else {}


def extract_page_text(doc, page, cmap_cache: CMapCache | None = None) -> bytes:
    """Run the text operators of one page; returns UTF-8-ish bytes.

    ``Do`` on a /Subtype /Form XObject recurses into the form's content
    stream with the form's own /Resources (falling back to the caller's
    — PDF 1.7 §4.9), depth-capped at 8. Image XObjects under Do carry
    no text and are skipped.
    """
    content = _page_content(doc, page)
    if not content:
        return b""

    out = bytearray()
    shown_since_break = False

    def run(content: bytes, fonts: dict, xobjects: dict, depth: int) -> None:
        nonlocal shown_since_break
        font: _Font | None = None

        def show(payload: bytes) -> None:
            nonlocal shown_since_break
            if font is not None and font.cmap is not None:
                out.extend(font.cmap.map_bytes(payload).encode("utf-8"))
            elif font is not None and font.table is not None:
                out.extend(
                    payload.decode("latin-1").translate(font.table).encode("utf-8")
                )
            else:
                out.extend(payload)
            shown_since_break = True

        def line_break() -> None:
            nonlocal shown_since_break
            if shown_since_break:
                out.extend(b"\n")
            shown_since_break = False

        def do_xobject(name: str) -> None:
            if depth >= _MAX_FORM_DEPTH:
                return
            entry = xobjects.get(name)
            if entry is None:
                return
            resolved = doc.resolve(entry) if entry[TAG] == "ref" else entry
            if resolved[TAG] != "stream":
                return
            d = resolved[VAL]
            subtype = d[VAL].get("Subtype")
            if subtype is None or subtype[TAG] != "name" or subtype[VAL] != "Form":
                return  # image or unknown: no text
            inner = doc.get_stream_decoded(resolved)
            own_res = d[VAL].get("Resources")
            inner_fonts = (
                _fonts_from_resources(doc, own_res, cmap_cache)
                if own_res is not None
                else fonts
            )
            inner_xobjs = (
                _xobjects_from_resources(doc, own_res)
                if own_res is not None
                else xobjects
            )
            run(inner, inner_fonts, inner_xobjs, depth + 1)

        # One pass of the scanner, each token handled where it matches.
        # The operators read at most two operands, so the operand stack
        # is its top two: bytes (a string), str (a name), list (an
        # array: the byte pieces TJ shows) or None (anything else, and
        # no operand). Operators clear it; an open array keeps its
        # strings and its word-gap kerns as b" ".
        lexer = ContentLexer(content)
        top = below = arr = None
        while True:
            for m in _CONTENT_TOKEN.finditer(content, lexer.i):
                k = m.lastindex
                if k == _T_NUM:
                    if arr is None:
                        below, top = top, None
                    elif float(m.group(k)) < _TJ_SPACE_KERN:
                        # real producers encode inter-word spaces as
                        # large negative kerning (thousandths of an
                        # em); small adjustments stay glued
                        arr.append(b" ")
                    continue
                if k == _T_OP:
                    op = m.group(k)
                    if op == b"Tj":
                        if type(top) is bytes:
                            show(top)
                    elif op == b"TJ":
                        if type(top) is list:
                            for piece in top:
                                show(piece)
                    elif op == b"Td" or op == b"TD" or op == b"T*" or op == b"BT":
                        line_break()
                    elif op == b"'" or op == b'"':
                        line_break()
                        if type(top) is bytes:
                            show(top)
                    elif op == b"Tf":
                        if type(below) is str:
                            font = fonts.get(below)
                    elif op == b"Do":
                        if type(top) is str:
                            do_xobject(top)
                    elif op == b"BI":
                        top = below = None
                        lexer.i = m.end()
                        lexer.skip_inline_image()
                        break
                    top = below = None
                    continue
                if k == _T_STR or k == _T_HEX:
                    if k == _T_STR:
                        val = parse_string(m.group(k))
                    else:  # the scanner admits only hex digits and whitespace
                        val = m.group(k).translate(None, _WS_BYTES)
                        val = unhexlify(val + b"0" if len(val) & 1 else val)
                    if arr is None:
                        below, top = top, val
                    else:
                        arr.append(val)
                elif k == _T_NAME and m.group(k).isascii():
                    if arr is None:
                        below, top = top, m.group(k)[1:].decode("ascii")
                elif k == _T_ARR_START:
                    arr = []
                elif k == _T_ARR_END:
                    below, top = top, arr if arr is not None else []
                    arr = None
                elif k == _T_DICT:
                    below, top = top, None
                elif k is not None:
                    # the last group or a non-ASCII name: one token by the
                    # per-byte rules, which raise on a malformed one, so
                    # what comes back is a nested string or a lone
                    # ) { } \x12, which operates on nothing
                    kind, val = lexer.read_token(m.start(k))
                    if kind == C_OP:
                        top = below = None
                    elif arr is None:
                        below, top = top, val
                    else:
                        arr.append(val)
                    break
            else:
                break

    run(content, _page_fonts(doc, page, cmap_cache), _page_xobjects(doc, page), 0)
    return bytes(out)


def extract_text(doc, cmap_cache: CMapCache | None = None) -> tuple[bytes, list[dict]]:
    """Document text + per-page spans.

    Returns ``(text_bytes, spans)`` where spans are
    ``{start, end, kind: "page", page}`` byte ranges into the output.
    Pages are joined with a single b"\\n".
    """
    parts: list[bytes] = []
    spans: list[dict] = []
    pos = 0
    for page in doc.pages:
        text = extract_page_text(doc, page, cmap_cache)
        if parts:
            pos += 1  # joining newline
        spans.append(
            {
                "start": pos,
                "end": pos + len(text),
                "kind": "page",
                "page": page.page_number,
            }
        )
        pos += len(text)
        parts.append(text)
    return b"\n".join(parts), spans
