"""Text-path tests: content-stream tokenization, text operators,
ToUnicode CMaps, filters, spans — roundtrip through pdfbuild variants."""

import pytest
from hypothesis import given, settings
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
