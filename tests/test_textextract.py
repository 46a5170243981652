"""Text-path tests: content-stream tokenization, text operators,
ToUnicode CMaps, filters, spans — roundtrip through pdfbuild variants."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf_parser_ray.pdfcore import pdfbuild
from pdf_parser_ray.pdfcore.document import PdfDocument
from pdf_parser_ray.pdfcore.filters import lzw_decode, lzw_encode
from pdf_parser_ray.pdfcore.textextract import (
    ContentLexer,
    ToUnicodeCMap,
    extract_text,
)


def roundtrip(text, **kwargs):
    pdf = pdfbuild.build_text_pdf(text, **kwargs)
    doc = PdfDocument(pdf)
    got, spans = extract_text(doc)
    return got, spans


@pytest.mark.parametrize("variant", ["tj", "tj_split", "hex", "cmap"])
@pytest.mark.parametrize("filt", ["none", "flate", "lzw"])
def test_roundtrip_variants(variant, filt):
    text = b"the quick brown fox jumps over the lazy dog 0123456789"
    got, spans = roundtrip(text, show_variant=variant, stream_filter=filt)
    assert got == text
    assert spans == [{"start": 0, "end": len(text), "kind": "page", "page": 1}]


def test_roundtrip_multiline_multipage():
    text = b"\n".join(b"line %d content" % i for i in range(25))
    got, spans = roundtrip(text, page_size=10, show_variant="tj_split")
    assert got == text
    assert len(spans) == 3
    assert spans[0]["page"] == 1 and spans[2]["page"] == 3
    # spans tile the output with single-newline joins
    assert spans[0]["start"] == 0
    assert spans[-1]["end"] == len(text)


def test_roundtrip_empty_lines_preserved():
    text = b"first\n\nthird\n"
    got, _ = roundtrip(text)
    assert got == text


def test_roundtrip_special_chars():
    text = b"parens () and backslash \\ and <angles> & stuff"
    for variant in ("tj", "hex"):
        got, _ = roundtrip(text, show_variant=variant)
        assert got == text


def test_roundtrip_unicode_cmap():
    text = "héllo wörld ünïcode".encode("utf-8")
    got, _ = roundtrip(text, show_variant="cmap")
    assert got == text


def test_content_lexer_ops():
    toks = list(ContentLexer(b"BT /F1 12 Tf 72 720 Td (hi) Tj T* ET").tokens())
    kinds = [k for k, _ in toks]
    assert kinds == [
        "op", "name", "num", "op", "num", "num", "op", "str", "op", "op", "op",
    ]
    assert toks[7] == ("str", b"hi")
    assert toks[9] == ("op", "T*")


def test_content_lexer_quote_ops():
    toks = list(ContentLexer(b"(a) ' 1 2 (b) \"").tokens())
    assert ("op", "'") in toks
    assert ("op", '"') in toks


def test_quote_ops_linebreak():
    # ' shows with a preceding line break
    content = b"BT (a) Tj (b) ' (c) ' ET"
    pdf = pdfbuild.build_text_pdf(b"x")  # host doc; swap content below
    doc = PdfDocument(pdf)
    from pdf_parser_ray.pdfcore import textextract

    class FakeDoc:
        pages = doc.pages

        def resolve(self, r):
            return doc.resolve(r)

        def get_stream_decoded(self, s):
            return content

    got = textextract.extract_page_text(FakeDoc(), doc.pages[0])
    assert got == b"a\nb\nc"


def test_tj_array_ignores_kerning():
    # small adjustments glue; the -250 word gap becomes a space
    # (see test_tj_large_kerning_becomes_space)
    content = b"BT [ (a) -50 (b) 12.5 (c) ] TJ ET"
    pdf = pdfbuild.build_text_pdf(b"x")
    doc = PdfDocument(pdf)
    from pdf_parser_ray.pdfcore import textextract

    class FakeDoc:
        def resolve(self, r):
            return doc.resolve(r)

        def get_stream_decoded(self, s):
            return content

    got = textextract.extract_page_text(FakeDoc(), doc.pages[0])
    assert got == b"abc"


def test_inline_image_skipped():
    content = b"BT (a) Tj ET BI /W 2 /H 2 ID \x00\x01\xff\xfe EI BT (b) Tj ET"
    pdf = pdfbuild.build_text_pdf(b"x")
    doc = PdfDocument(pdf)
    from pdf_parser_ray.pdfcore import textextract

    class FakeDoc:
        def resolve(self, r):
            return doc.resolve(r)

        def get_stream_decoded(self, s):
            return content

    got = textextract.extract_page_text(FakeDoc(), doc.pages[0])
    assert got == b"a\nb"


def test_cmap_bfrange():
    cmap = ToUnicodeCMap(
        b"1 begincodespacerange\n<00> <FF>\nendcodespacerange\n"
        b"1 beginbfrange\n<41> <43> <0061>\nendbfrange\n"
        b"1 beginbfchar\n<01> <0058>\nendbfchar\n"
    )
    assert cmap.map_bytes(b"\x41\x42\x43\x01") == "abcX"


def test_cmap_bfrange_array_form():
    cmap = ToUnicodeCMap(
        b"1 beginbfrange\n<01> <03> [<0041> <0042> <0043>]\nendbfrange\n"
    )
    assert cmap.map_bytes(b"\x01\x02\x03") == "ABC"


def test_cmap_two_byte_codes():
    cmap = ToUnicodeCMap(
        b"1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange\n"
        b"2 beginbfchar\n<0041> <3042>\n<0042> <3044>\nendbfchar\n"
    )
    assert cmap.map_bytes(b"\x00\x41\x00\x42") == "あい"


def test_lzw_roundtrip():
    data = b"the quick brown fox " * 100 + bytes(range(256))
    assert lzw_decode(lzw_encode(data)) == data


def test_lzw_empty_and_short():
    assert lzw_decode(lzw_encode(b"")) == b""
    assert lzw_decode(lzw_encode(b"a")) == b"a"


def test_encdiff_roundtrip_variants():
    for filt in ("none", "flate", "lzw"):
        text = b"encoding differences path with digits 0123456789"
        got, _ = roundtrip(text, show_variant="encdiff", stream_filter=filt)
        assert got == text


def test_encoding_tables():
    from pdf_parser_ray.pdfcore.encodings import build_code_map

    # WinAnsi base covers Latin-1 upper half where the AGL subset does
    m = build_code_map("WinAnsiEncoding", [])
    assert m[ord("A")] == "A" and m[0xE9] == "é"
    # Differences override the base
    m2 = build_code_map("StandardEncoding", [65, "eacute", "space"])
    assert m2[65] == "é" and m2[66] == " " and m2[67] == "C"


def test_unknown_glyph_maps_to_replacement():
    from pdf_parser_ray.pdfcore.encodings import build_code_map

    m = build_code_map(None, [40, "nosuchglyphname"])
    assert m[40] == "�"


def test_filter_chain_roundtrip():
    """/Filter arrays apply in order (Flate outermost, LZW innermost)."""
    text = b"chained filters content\nsecond line"
    got, _ = roundtrip(text, stream_filter="flate+lzw", page_size=1)
    assert got == text


def test_inherited_resources_font():
    """PDF 1.7 inheritance: /Resources on the Pages node only; the text
    path picks up the inherited font (cmap variant forces font use)."""
    text = b"inherited resources text"
    pdf = pdfbuild.build_text_pdf(text, show_variant="cmap", inherit_resources=True)
    assert b"/Resources" not in pdf.split(b"/Type /Page /")[1].split(b">>")[0]
    got, _ = roundtrip_bytes(pdf)
    assert got == text


def roundtrip_bytes(pdf):
    doc = PdfDocument(pdf)
    return extract_text(doc)


def test_form_xobject_roundtrip():
    """Text behind a Do/Form XObject extracts identically (PDF 1.7 §4.9)."""
    text = b"form xobject text\nsecond line"
    for filt in ("none", "flate", "lzw"):
        got, _ = roundtrip(text, form_xobject=True, stream_filter=filt, page_size=1)
        assert got == text


def test_form_own_resources_replace_callers():
    """A form WITH its own /Resources does not inherit the caller's
    XObjects — a fake self-call therefore resolves nothing at depth 1."""
    from pdf_parser_ray.pdfcore import textextract

    pdf = pdfbuild.build_text_pdf(b"x", form_xobject=True)
    doc = PdfDocument(pdf)

    class LoopDoc:
        def resolve(self, r):
            return doc.resolve(r)

        def get_stream_decoded(self, s):
            return b"q /Fx0 Do Q (a) Tj"

    got = textextract.extract_page_text(LoopDoc(), doc.pages[0])
    assert got == b"aa"


def test_form_xobject_cycle_depth_cap(monkeypatch):
    """A truly cyclic form chain (no own /Resources -> inherits the
    caller's XObjects incl. itself) terminates at the depth cap."""
    from pdf_parser_ray.pdfcore import textextract

    pdf = pdfbuild.build_text_pdf(b"x")
    doc = PdfDocument(pdf)
    form = ("stream", ("dict", {"Subtype": ("name", "Form", 0)}, 0), 0)

    class CycleDoc:
        def resolve(self, r):
            return doc.resolve(r)

        def get_stream_decoded(self, s):
            if s is form:
                return b"(a) Tj /Fx0 Do"
            return doc.get_stream_decoded(s)

    monkeypatch.setattr(
        textextract, "_page_xobjects", lambda d, p: {"Fx0": form}
    )
    monkeypatch.setattr(
        textextract, "_page_content", lambda d, p: b"/Fx0 Do"
    )
    got = textextract.extract_page_text(CycleDoc(), doc.pages[0])
    assert got == b"a" * textextract._MAX_FORM_DEPTH


def test_tj_large_kerning_becomes_space():
    """Real-world TJ: word gaps encoded as large negative kerning."""
    content = b"BT [ (Hello) -250 (world) -12 (!) ] TJ ET"
    pdf = pdfbuild.build_text_pdf(b"x")
    doc = PdfDocument(pdf)
    from pdf_parser_ray.pdfcore import textextract

    class FakeDoc:
        def resolve(self, r):
            return doc.resolve(r)

        def get_stream_decoded(self, s):
            return content

    got = textextract.extract_page_text(FakeDoc(), doc.pages[0])
    assert got == b"Hello world!"


def test_content_hex_string_with_whitespace():
    """Content-stream hex strings tolerate whitespace (spec §3.2.3);
    the object lexer stays strict (Q5)."""
    toks = list(ContentLexer(b"<48 65 6C\n6C 6F> Tj").tokens())
    assert toks[0] == ("hex", b"Hello")


_PDF_WS = b"\x00\t\n\x0c\r "


def _old_hex_body(body: bytes) -> bytes:
    """The per-byte whitespace strip that bytes.translate replaced."""
    from pdf_parser_ray.pdfcore.lexer import parse_hex_string

    return parse_hex_string(bytes(b for b in body if b not in _PDF_WS))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(b"0123456789abcdefABCDEF").map(lambda b: bytes([b])),
            st.sampled_from(_PDF_WS).map(lambda b: bytes([b])),
        ),
        max_size=80,
    ).map(b"".join)
)
def test_content_hex_whitespace_strip_matches_per_byte(body):
    toks = list(ContentLexer(b"<" + body + b"> Tj").tokens())
    assert toks == [("hex", _old_hex_body(body)), ("op", "Tj")]


def test_content_hex_every_whitespace_byte_and_odd_digits():
    body = b"4\x008\t6\n5\x0c6\rC 7"  # seven digits, one of each separator
    toks = list(ContentLexer(b"<" + body + b">Tj").tokens())
    assert toks[0] == ("hex", _old_hex_body(body)) == ("hex", b"Hel\x70")


_ALL_BYTES = bytes(range(256))


@pytest.mark.parametrize(
    "base, diffs",
    [
        ("StandardEncoding", []),
        ("WinAnsiEncoding", []),
        (
            "WinAnsiEncoding",
            [0, "A", "eacute", 39, "quoteright", 128, "euro", "nosuchglyph", 300, "B"],
        ),
    ],
)
def test_simple_font_show_matches_per_byte(monkeypatch, base, diffs):
    """All 256 codes through a simple font's translate table equal the
    per-byte ``table.get(b, U+FFFD)`` join it replaced."""
    from pdf_parser_ray.pdfcore import textextract
    from pdf_parser_ray.pdfcore.encodings import build_code_map

    enc_map = build_code_map(base, diffs)
    content = b"BT /F1 12 Tf <" + _ALL_BYTES.hex().encode() + b"> Tj (\\() Tj ET"
    font = textextract._Font(None, enc_map)
    monkeypatch.setattr(textextract, "_page_fonts", lambda d, p, c=None: {"F1": font})
    monkeypatch.setattr(textextract, "_page_content", lambda d, p: content)
    monkeypatch.setattr(textextract, "_page_xobjects", lambda d, p: {})
    got = textextract.extract_page_text(None, None)
    want = "".join(enc_map.get(b, "�") for b in _ALL_BYTES + b"(").encode("utf-8")
    assert got == want


def test_differences_font_in_pdf_shows_all_codes():
    """A real PDF's /Differences font (codes 33.. renamed to the text's
    glyphs): all 256 codes show as the per-byte join over its code map."""
    from pdf_parser_ray.pdfcore import textextract
    from pdf_parser_ray.pdfcore.encodings import CHAR_TO_GLYPH, build_code_map

    pdf = pdfbuild.build_text_pdf(b"differences", show_variant="encdiff")
    assert roundtrip_bytes(pdf)[0] == b"differences"
    doc = PdfDocument(pdf)
    glyphs = [CHAR_TO_GLYPH[c] for c in sorted(set("differences"))]
    enc_map = build_code_map(None, [33, *glyphs])

    class FakeDoc:
        def resolve(self, r):
            return doc.resolve(r)

        def get_stream_decoded(self, s):
            return b"BT /F1 12 Tf <" + _ALL_BYTES.hex().encode() + b"> Tj ET"

    got = textextract.extract_page_text(FakeDoc(), doc.pages[0])
    assert got == "".join(enc_map.get(b, "�") for b in _ALL_BYTES).encode("utf-8")


# --- the fused scanner against the per-byte tokenizer -----------------------

from pdf_parser_ray.pdfcore import textextract as tx  # noqa: E402
from pdf_parser_ray.pdfcore.errors import PdfError  # noqa: E402


def extract_page_text_naive(doc, page, cmap_cache=None) -> bytes:
    """The text interpreter as it read ``(kind, value)`` pairs from the
    per-byte tokenizer (``ContentLexer.tokens_naive``): the oracle for
    the fused scanner loop of ``extract_page_text``."""
    content = tx._page_content(doc, page)
    if not content:
        return b""
    out = bytearray()
    shown_since_break = False

    def run(content, fonts, xobjects, depth):
        nonlocal shown_since_break
        stack: list = []
        font = None

        def show(payload):
            nonlocal shown_since_break
            if font is not None and font.cmap is not None:
                out.extend(font.cmap.map_bytes(payload).encode("utf-8"))
            elif font is not None and font.table is not None:
                out.extend(payload.decode("latin-1").translate(font.table).encode("utf-8"))
            else:
                out.extend(payload)
            shown_since_break = True

        def line_break():
            nonlocal shown_since_break
            if shown_since_break:
                out.extend(b"\n")
            shown_since_break = False

        def do_xobject(name):
            if depth >= tx._MAX_FORM_DEPTH:
                return
            entry = xobjects.get(name)
            if entry is None:
                return
            resolved = doc.resolve(entry) if entry[0] == "ref" else entry
            if resolved[0] != "stream":
                return
            d = resolved[1]
            subtype = d[1].get("Subtype")
            if subtype is None or subtype[0] != "name" or subtype[1] != "Form":
                return
            inner = doc.get_stream_decoded(resolved)
            own_res = d[1].get("Resources")
            inner_fonts = (
                tx._fonts_from_resources(doc, own_res, cmap_cache)
                if own_res is not None
                else fonts
            )
            inner_xobjs = (
                tx._xobjects_from_resources(doc, own_res) if own_res is not None else xobjects
            )
            run(inner, inner_fonts, inner_xobjs, depth + 1)

        def kind_at(i):
            """The kind of operand ``stack[i]``; None for an array or none."""
            if len(stack) < -i or isinstance(stack[i], list):
                return None
            return stack[i][0]

        operands = (tx.C_NUM, tx.C_STR, tx.C_HEX, tx.C_NAME)
        lexer = ContentLexer(content)
        arr = None
        for kind, val in lexer.tokens_naive():
            if kind == tx.C_ARR_START:
                arr = []
                continue
            if kind == tx.C_ARR_END:
                stack.append(arr if arr is not None else [])
                arr = None
                continue
            if arr is not None and kind in operands:
                arr.append((kind, val))
                continue
            if kind in operands or kind in (tx.C_DICT_START, tx.C_DICT_END):
                stack.append((kind, val))
                continue
            if val == "Tj":
                if kind_at(-1) in (tx.C_STR, tx.C_HEX):
                    show(stack[-1][1])
            elif val == "TJ":
                if stack and isinstance(stack[-1], list):
                    for k, v in stack[-1]:
                        if k in (tx.C_STR, tx.C_HEX):
                            show(v)
                        elif k == tx.C_NUM and v < tx._TJ_SPACE_KERN:
                            show(b" ")
            elif val in ("Td", "TD", "T*"):
                line_break()
            elif val in ("'", '"'):
                line_break()
                if kind_at(-1) in (tx.C_STR, tx.C_HEX):
                    show(stack[-1][1])
            elif val == "Tf":
                if kind_at(-2) == tx.C_NAME:
                    font = fonts.get(stack[-2][1])
            elif val == "BT":
                line_break()
            elif val == "Do":
                if kind_at(-1) == tx.C_NAME:
                    do_xobject(stack[-1][1])
            elif val == "BI":
                lexer.skip_inline_image()
            stack.clear()

    run(content, tx._page_fonts(doc, page, cmap_cache), tx._page_xobjects(doc, page), 0)
    return bytes(out)


@pytest.mark.parametrize(
    "content, text",
    [
        (b"[] Tj", b""),
        (b"] Tj", b""),
        (b"[] '", b""),
        (b'1 [] "', b""),
        (b"[] 12 Tf (a) Tj", b"a"),
        (b"[] Do", b""),
    ],
)
def test_array_where_a_string_or_name_operand_is_read(content, text):
    """An array, empty ones included, is neither a string nor a name:
    the operator does nothing, as with a number there."""
    doc = PdfDocument(content_pdf(content, _CMAP_FONT))
    assert tx.extract_page_text(doc, doc.pages[0]) == text
    assert extract_page_text_naive(doc, doc.pages[0]) == text


_CMAP_FONT = "cmap"
_SIMPLE_FONT = "simple"
_NO_FONT = "none"


def content_pdf(content: bytes, font: str = _NO_FONT, forms: dict | None = None) -> bytes:
    """A one-page PDF whose page shows ``content``. ``font`` is the
    page's /F1: a 1-byte ToUnicode CMap font, a simple font with an
    /Encoding /Differences, or absent. ``forms`` maps a name to the
    content of a Form XObject; page and forms share one /Resources, so
    a form can call any form, itself included."""
    w = pdfbuild._Writer()
    catalog, pages, page = w.alloc(), w.alloc(), w.alloc()
    fonts = b""
    if font == _CMAP_FONT:
        font_num, cmap_num = w.alloc(), w.alloc()
        # codes 0x20..0x7e map to their ASCII letters shifted by one;
        # every other code is unmapped (U+FFFD)
        chars = [chr(c + 1) if 0x20 <= c < 0x7F else "\x00" for c in range(0x7F)]
        cmap_bytes, _ = pdfbuild._cmap_stream(chars)
        w.add(font_num, b"<< /Type /Font /Subtype /Type1 /ToUnicode %d 0 R >>" % cmap_num)
        w.add_stream(cmap_num, b"", cmap_bytes)
        fonts = b"/Font << /F1 %d 0 R >>" % font_num
    elif font == _SIMPLE_FONT:
        fonts = (
            b"/Font << /F1 << /Type /Font /Subtype /Type1 /Encoding << /Type /Encoding"
            b" /BaseEncoding /WinAnsiEncoding /Differences [ 97 /eacute /B 40 /Euro ] >> >> >>"
        )
    form_nums = {name: w.alloc() for name in forms or {}}
    xobjects = b"".join(b"/%s %d 0 R " % (name.encode(), num) for name, num in form_nums.items())
    resources = b"<< %s /XObject << %s>> >>" % (fonts, xobjects)
    for name, num in form_nums.items():
        w.add_stream(
            num,
            b"/Type /XObject /Subtype /Form /BBox [ 0 0 612 792 ] /Resources %s" % resources,
            forms[name],
        )
    contents = w.alloc()
    w.add(catalog, b"<< /Type /Catalog /Pages %d 0 R >>" % pages)
    w.add(pages, b"<< /Type /Pages /Kids [ %d 0 R ] /Count 1 >>" % page)
    w.add(
        page,
        b"<< /Type /Page /Parent %d 0 R /MediaBox [0 0 612 792] /Resources %s /Contents %d 0 R >>"
        % (pages, resources, contents),
    )
    w.add_stream(contents, b"", content)
    return w.finish(catalog)


def _text_outcome(extract, pdf: bytes):
    doc = PdfDocument(pdf)
    try:
        return extract(doc, doc.pages[0])
    except PdfError as e:
        return (type(e).__name__, e.message, e.byte_offset)


_TEXT_FRAGMENTS = [
    # valid numbers, strings, hex, names, comments, arrays, dictionaries
    b"0", b"12", b"-250", b"+3", b"12.5", b".5", b"-.5", b"4.", b"007", b"-181", b"-180",
    b"(abc)", b"()", b"(a(b)c)", b"(a(b(c))d)", b"(a\\)b)", b"(x\\(y)", b"(\\101\\n\\t)",
    b"(a\\\\)", b"(\xe9\x00\xff)",
    b"<48 65\x00\t\n\x0c\r6c>", b"<486>", b"<>", b"<7E20>",
    b"/F1", b"/X0", b"/F9", b"/", b"/a#20b",
    b"%c\r", b"%c\n", b"%c\r\n",
    b"[", b"]", b"[ (a) -250 (b) 12 (c) ]", b"[[(x)]", b"<<", b">>", b"<< /A 1 >>",
    # text operators, alone and with their operands
    b"Tj", b"TJ", b"'", b'"', b"Td", b"TD", b"T*", b"Tf", b"BT", b"ET", b"Do",
    b"/F1 12 Tf", b"/F9 1 Tf", b"/X0 Do", b"(hi) Tj", b"1 2 (q) \"", b"(ab) '",
    b"[(a(b)c) -300 <6162>] TJ",
    # inline images, junk operators holding \x0c, lone ) { } \x12
    b"BI /W 1 /H 1 ID \x00\xffEI x EI ", b"BI ID EI", b"ab\x0ccd", b"Tj\x0c", b"\x0cTj",
    b")", b"{", b"}", b"\x12",
]
# shapes that raise: bad numbers, unterminated strings and hex, bad hex
# digits, non-ASCII names, a lone >, an image without EI, a comment to
# the end
_HOSTILE_FRAGMENTS = [
    b"1.2.3", b"+-1", b".", b"-", b"1-2", b"..", b"+", b"(abc", b"(ab\\", b"<4g>", b"<48",
    b"/na\xe9me", b">", b"BI ID \x01\x02", b"% to the end",
]
_FRAGMENTS = _TEXT_FRAGMENTS + _HOSTILE_FRAGMENTS
_SEPARATORS = [b" ", b"", b"\n", b"\r\n", b"\x00", b"\x0c", b"\t"]


# most fragments are valid text, so a stream usually runs past its
# first few tokens before any error
_CONTENT_STREAMS = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from(_TEXT_FRAGMENTS),
            st.sampled_from(_TEXT_FRAGMENTS),
            st.sampled_from(_TEXT_FRAGMENTS),
            st.sampled_from(_HOSTILE_FRAGMENTS),
            st.binary(max_size=3),
        ),
        st.sampled_from(_SEPARATORS),
    ),
    max_size=14,
).map(lambda parts: b"".join(f + sep for f, sep in parts))


@settings(max_examples=300, deadline=None)
@given(_CONTENT_STREAMS)
@example(b"/F1 12 Tf (hi) Tj /X0 Do [(a) -180 (b(c)) -181 <64>] TJ")
@example(b"(a) ) Tj (b) { ' (c) \x12 \"")
@example(b"/F1 1 Tf BI /W 1 ID (x) Tj EI (y) Tj (z) ' 1 2 (w) \"")
def test_fused_text_loop_matches_naive_oracle(content):
    forms = {"X0": b"BT /F1 9 Tf (f) Tj [(g) -300 (h)] TJ ET"}
    for font in (_CMAP_FONT, _SIMPLE_FONT, _NO_FONT):
        pdf = content_pdf(content, font, forms)
        assert _text_outcome(tx.extract_page_text, pdf) == _text_outcome(
            extract_page_text_naive, pdf
        ), (font, content)


@settings(max_examples=250, deadline=None)
@given(_CONTENT_STREAMS)
def test_scanner_tokens_match_naive_tokens(content):
    def outcome(tokens):
        got = []
        try:
            for tok in tokens:
                got.append(tok)
        except PdfError as e:
            got.append((type(e).__name__, e.message, e.byte_offset))
        return got

    assert outcome(ContentLexer(content).tokens()) == outcome(
        ContentLexer(content).tokens_naive()
    )


def _python_reads_number(s: str) -> bool:
    for conv in (int, float):
        try:
            conv(s)
            return True
        except ValueError:
            pass
    return False


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789+-.", min_size=1, max_size=8))
def test_number_group_is_exactly_what_int_or_float_reads(s):
    m = tx._CONTENT_TOKEN.match(s.encode("ascii"))
    scanned = m.lastindex == tx._T_NUM and m.end() == len(s)
    assert scanned == _python_reads_number(s)


def test_self_calling_form_is_scanned_once_per_call(monkeypatch):
    """A Form XObject that shows (b), calls itself three times and ends
    in a nested-paren string: every call decodes and scans its stream
    once, so the counts are the call tree's (3**8 - 1) // 2 form calls
    under the depth cap plus the page, and never more."""
    pdf = content_pdf(b"/X0 Do", forms={"X0": b"(b) Tj /X0 Do /X0 Do /X0 Do (a(b)c) Tj"})
    counts = {"lexers": 0, "decodes": 0}
    lexer_init = ContentLexer.__init__
    decoded = PdfDocument.get_stream_decoded

    def counting_init(self, buf):
        counts["lexers"] += 1
        lexer_init(self, buf)

    def counting_decoded(self, stream):
        counts["decodes"] += 1
        return decoded(self, stream)

    monkeypatch.setattr(ContentLexer, "__init__", counting_init)
    monkeypatch.setattr(PdfDocument, "get_stream_decoded", counting_decoded)
    got, _ = extract_text(PdfDocument(pdf))

    def form_text(depth):
        calls = form_text(depth + 1) * 3 if depth < tx._MAX_FORM_DEPTH else b""
        return b"b" + calls + b"a(b)c"

    calls = (3**tx._MAX_FORM_DEPTH - 1) // 2
    assert calls == 3280
    assert counts == {"lexers": calls + 1, "decodes": calls + 1}
    assert got == form_text(1)
    assert len(got) == calls * 6
