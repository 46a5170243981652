"""Parser tests — object trees ported 1:1 from
/root/reference/src/parser/test.rs:6-127 plus quirk Q7 and stream-object
attachment."""

import pytest

from pdf_parser_ray.pdfcore.errors import ParserError
from pdf_parser_ray.pdfcore.parser import Parser, parse_object


def test_parse_integer():
    assert parse_object(b"123") == ("int", 123, 0)


def test_parse_real():
    assert parse_object(b"-123.") == ("real", -123.0, 0)


def test_parse_boolean():
    assert parse_object(b"true") == ("bool", True, 0)


def test_parse_null():
    assert parse_object(b"null") == ("null", None, 0)


def test_parse_indirect_ref():
    assert parse_object(b"1 0 R") == ("ref", (1, 0), 0)


def test_parse_string_1():
    assert parse_object(b"(hoge)") == ("string", b"hoge", 0)


def test_parse_array_1():
    obj = parse_object(b"[  123  true \n  -12.[2 1 R\nnull] ]")
    assert obj == (
        "array",
        [
            ("int", 123, 3),
            ("bool", True, 8),
            ("real", -12.0, 16),
            ("array", [("ref", (2, 1), 21), ("null", None, 27)], 20),
        ],
        0,
    )


def test_parse_dict_1():
    obj = parse_object(b"<</hoge 1 0 R\n/fuga <</arr [123\n/name]>>>>")
    assert obj == (
        "dict",
        {
            "hoge": ("ref", (1, 0), 8),
            "fuga": (
                "dict",
                {"arr": ("array", [("int", 123, 28), ("name", "name", 32)], 27)},
                20,
            ),
        },
        0,
    )


def test_q7_duplicate_keys_last_wins():
    obj = parse_object(b"<</k 1 /k 2>>")
    assert obj[1]["k"][1] == 2


def test_indirect_obj():
    obj = parse_object(b"1 0 obj\n123 endobj")
    assert obj == ("iobj", ("int", 123, 8), 0)


def test_stream_obj():
    buf = b"1 0 obj\n<</Length 3>>\nstream\nabc"
    obj = parse_object(buf)
    assert obj[0] == "stream"
    assert obj[2] == 29  # stream data start offset
    assert obj[1][0] == "dict"
    assert obj[1][1]["Length"] == ("int", 3, 18)


def test_stream_without_length_invalid():
    with pytest.raises(ParserError) as ei:
        parse_object(b"1 0 obj\n<</Len 3>>\nstream\nabc")
    assert ei.value.kind == "InvalidStreamObj"


def test_unbalanced_obj_missmatch():
    with pytest.raises(ParserError) as ei:
        Parser(b"1 0 obj 123", 0)
    assert ei.value.kind == "IndirectObjMissMatch"


def test_no_token():
    with pytest.raises(ParserError) as ei:
        parse_object(b"   ")
    assert ei.value.kind == "NoToken"


def test_lexer_error_wrapped():
    with pytest.raises(ParserError) as ei:
        parse_object(b"qwerty")
    assert ei.value.kind == "Lexer"
    assert "cannot tokenize" in ei.value.describe()


def test_dict_unexpected_token():
    with pytest.raises(ParserError) as ei:
        parse_object(b"<<123 456>>")
    assert ei.value.kind == "UnexpectedToken"


# -- nesting bound ------------------------------------------------------------


def test_nesting_up_to_the_bound_parses():
    from pdf_parser_ray.pdfcore.parser import MAX_NESTING

    obj = parse_object(b"[" * MAX_NESTING + b"]" * MAX_NESTING)
    depth = 0
    while obj[0] == "array" and obj[1]:
        obj = obj[1][0]
        depth += 1
    assert depth == MAX_NESTING - 1
    obj = parse_object(b"<< /A " * MAX_NESTING + b"0" + b" >>" * MAX_NESTING)
    for _ in range(MAX_NESTING - 1):
        obj = obj[1]["A"]
    assert obj[1]["A"][:2] == ("int", 0)


@pytest.mark.parametrize(
    "buf",
    [
        b"[" * 257 + b"]" * 257,
        b"<< /A " * 257 + b"0" + b" >>" * 257,
        b"[ << /A " * 129 + b"0" + b" >> ]" * 129,
        b"[" * 5000 + b"]" * 5000,
    ],
)
def test_nesting_past_the_bound_is_a_parser_error(buf):
    with pytest.raises(ParserError) as ei:
        parse_object(buf)
    assert ei.value.kind == "TooDeep"
    assert ei.value.describe().startswith("parser: objects nested too deep")


def _nested_pdf(nest: bytes, text: bytes) -> bytes:
    """One-page classic-xref PDF whose page dict holds ``/Nest <nest>``."""
    content = b"BT /F1 12 Tf 72 720 Td (" + text + b") Tj ET"
    bodies = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R"
        b" /Resources << /Font << /F1 5 0 R >> >> /Nest " + nest + b" >>",
        b"<< /Length %d >>\nstream\n" % len(content) + content + b"\nendstream",
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    ]
    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for num, body in enumerate(bodies, 1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % num + body + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(bodies) + 1)
    out += b"".join(b"%010d 00000 n \n" % o for o in offsets)
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (
        len(bodies) + 1,
        xref_at,
    )
    return bytes(out)


def test_deeply_nested_page_dict_is_a_parser_error_row():
    """A page dict holding a 1,000- to 5,000-deep array (or dict) ends
    as a classified ``parser:`` row, not an interpreter RecursionError;
    a 200-deep array still yields the page text."""
    import pyarrow as pa

    from pdf_parser_ray.stages.extract import Extractor
    from pdf_parser_ray.stages.route import make_router

    nests = {
        "array200": b"[" * 200 + b"]" * 200,
        "array1000": b"[" * 1000 + b"]" * 1000,
        "array2000": b"[" * 2000 + b"]" * 2000,
        "array5000": b"[" * 5000 + b"]" * 5000,
        "dict1000": b"<< /A " * 1000 + b"0" + b" >>" * 1000,
    }
    urls = [f"https://nest.example/{name}" for name in nests]
    pdfs = [_nested_pdf(nest, name.encode()) for name, nest in nests.items()]
    t = pa.table(
        {
            "url": urls,
            "warc_ts": pa.array([0] * len(urls), pa.int64()).cast(pa.timestamp("us")),
            "html": pa.array(pdfs, pa.binary()),
            "text": [""] * len(urls),
            "lang": ["en"] * len(urls),
        }
    )
    out = Extractor()(make_router(8)(t))
    rows = {r["url"].rsplit("/", 1)[1]: r for r in out.to_pylist()}
    assert rows["array200"]["ok"] is True
    assert rows["array200"]["text"] == b"array200"
    for name in ("array1000", "array2000", "array5000", "dict1000"):
        assert rows[name]["ok"] is False
        assert rows[name]["error"].startswith("parser: objects nested too deep")
