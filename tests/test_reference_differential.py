"""Differential tests against the ACTUAL reference implementation.

scripts/build_ref_harness.sh compiles the reference's std-only modules
(raw_byte/lexer/parser/object/cross_reference/trailer) with plain rustc
into /tmp/ref_harness; these tests feed identical byte buffers to the
reference lexer/trailer and to the Python port and require identical
output (tokens, offsets, error kinds + positions — Rust Display form).

Skipped automatically when the harness cannot be built; the skip
reason names the cause (rustc not on PATH, reference sources missing,
or the build's own error).
"""

import random
import shutil
import subprocess

import pytest

from pdf_parser_ray.pdfcore import pdfbuild
from pdf_parser_ray.pdfcore.errors import LexerError
from pdf_parser_ray.pdfcore.lexer import Lexer


def _build_harness() -> tuple[str | None, str]:
    """(harness path, "") or (None, why it was not built)."""
    if shutil.which("rustc") is None:
        return None, "rustc not on PATH; reference harness not built"
    try:
        subprocess.run(
            ["bash", "scripts/build_ref_harness.sh"],
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
    except subprocess.CalledProcessError as e:
        lines = [ln for ln in e.stderr.splitlines() if ln.strip()]
        missing = [ln for ln in lines if ln.startswith("cp: cannot stat")]
        if missing:
            return None, f"reference sources missing ({missing[0]})"
        return None, f"reference harness build failed: {lines[-1] if lines else e}"
    except Exception as e:
        return None, f"reference harness build failed: {e}"
    return "/tmp/ref_harness", ""


HARNESS, SKIP_REASON = _build_harness()
pytestmark = pytest.mark.skipif(HARNESS is None, reason=SKIP_REASON)


def rust_f64_repr(x: float) -> str:
    """Match Rust's {:?} for f64 (shortest roundtrip, bare exponent)."""
    r = repr(x)
    if "e" in r:
        mantissa, exp = r.split("e")
        return f"{mantissa}e{int(exp)}"
    return r


def py_lex_lines(buf: bytes) -> list[str]:
    if not buf:
        return ["EMPTY"]
    lx = Lexer(buf, 0)
    try:
        lx.tokenize()
    except LexerError as e:
        return [f"ERR {e.message} at byte offset `{e.byte_offset}`"]
    out = []
    for kind, value, off in lx.tokens:
        if kind == "bool":
            desc = f"bool {'true' if value else 'false'}"
        elif kind == "int":
            desc = f"int {value}"
        elif kind == "real":
            desc = f"real {rust_f64_repr(value)}"
        elif kind == "hexstr":
            desc = f"hexstr {value.hex()}"
        elif kind == "str":
            desc = f"str {value.hex()}"
        elif kind == "name":
            desc = f"name {value}"
        elif kind == "iref":
            desc = f"iref {value[0]} {value[1]}"
        elif kind == "iobj_start":
            desc = f"iobj_start {value[0]} {value[1]}"
        elif kind == "iobj_end":
            desc = "iobj_end"
        elif kind == "stream_start":
            desc = f"stream_start {value}"
        else:
            desc = kind
        out.append(f"{desc} @{off}")
    out.append(f"UNBALANCED {'true' if lx.has_unbalanced_indirectobj() else 'false'}")
    return out


def ref_lex_many(bufs: list[bytes]) -> list[list[str]]:
    payload = "\n".join(b.hex() for b in bufs) + "\n"
    inp = "/tmp/ref_lexmany_input.txt"
    with open(inp, "w") as f:
        f.write(payload)
    out = subprocess.run(
        [HARNESS, "lexmany", inp], capture_output=True, text=True, check=True
    ).stdout
    blocks = out.split("====\n")
    # split on \n only: token payloads can contain \x0c etc., which
    # str.splitlines would also split on
    return [
        [line for line in b.split("\n") if line != ""]
        for b in blocks[: len(bufs)]
    ]


FRAGMENTS = [
    b" ", b"\n", b"\r", b"\r\n", b"\t", b"\x0c", b"\x12", b"\x00",
    b"1", b"12", b"+3", b"-4.5", b".", b"--", b"4.", b"0", b"-1",
    b"99999999999999999999",
    b"/Name", b"/", b"/A#20B",
    b"(str)", b"(a\\tb)", b"(\\053", b"(()", b"()", b"(", b")", b"(\\)",
    b"(nested (deep) end)", b"(\\777)", b"(\\0053)",
    b"<a0e0>", b"<a0e>", b"<", b"<<", b">>", b">", b"<a0 e0>", b"<>",
    b"[", b"]", b"null", b"true", b"false", b"nullx", b"truex",
    b"R", b"1 0 R", b"0 0 R", b"2 -1 R", b"obj", b"1 0 obj", b"12 3 obj",
    b"endobj", b"endobjx", b"endobj ",
    b"stream", b"stream\n", b"stream\r\nXYZABC", b"stream\rX", b"stream\nAB",
    b"% comment", b"%", b"%%EOF", b"qq", b"xyz",
]


def test_differential_fragments_random():
    rng = random.Random(20240817)
    bufs = []
    for _ in range(4000):
        k = rng.randrange(1, 10)
        bufs.append(b"".join(rng.choice(FRAGMENTS) for _ in range(k)))
    ref = ref_lex_many(bufs)
    for buf, ref_lines in zip(bufs, ref):
        assert py_lex_lines(buf) == ref_lines, f"buf={buf!r}"


def test_differential_random_bytes():
    rng = random.Random(99)
    bufs = []
    for _ in range(1500):
        n = rng.randrange(1, 60)
        bufs.append(bytes(rng.randrange(256) for _ in range(n)))
    ref = ref_lex_many(bufs)
    for buf, ref_lines in zip(bufs, ref):
        assert py_lex_lines(buf) == ref_lines, f"buf={buf!r}"


def test_differential_fixture_pdf_objects():
    """Every indirect object window of a built fixture PDF, lexed by both."""
    pdf = pdfbuild.build_text_pdf(
        b"hello world\nsecond line", show_variant="tj_split", indirect_length=True
    )
    bufs = []
    pos = 0
    while True:
        at = pdf.find(b" 0 obj", pos)
        if at == -1:
            break
        line_start = pdf.rfind(b"\n", 0, at) + 1
        bufs.append(pdf[line_start : line_start + 300])
        pos = at + 1
    assert bufs
    ref = ref_lex_many(bufs)
    for buf, ref_lines in zip(bufs, ref):
        assert py_lex_lines(buf) == ref_lines, f"buf={buf!r}"


def test_differential_trailer_on_fixtures():
    """Trailer resolution on valid fixtures: identical fields."""
    from pdf_parser_ray.pdfcore.trailer import parse_trailer

    fixtures = [
        pdfbuild.build_text_pdf(b"abc"),
        pdfbuild.build_text_pdf(b"x" * 2000, page_size=3),
        pdfbuild.build_image_pdf(
            [{"width": 2, "height": 2, "colorspace": "DeviceRGB", "pixels": bytes(12)}]
        ),
    ]
    for i, pdf in enumerate(fixtures):
        path = f"/tmp/ref_trailer_{i}.pdf"
        with open(path, "wb") as f:
            f.write(pdf)
        out = subprocess.run(
            [HARNESS, "trailer", path], capture_output=True, text=True, check=True
        ).stdout.splitlines()
        t = parse_trailer(pdf, len(pdf))
        assert out[0] == f"xref_start {t.xref_start_offset}"
        num, gen = t.root_catalog_ref[1]
        assert out[1] == f"root {num} {gen}"

    # malformed: both sides must error
    bad = pdfbuild.build_no_eof()
    with open("/tmp/ref_trailer_bad.pdf", "wb") as f:
        f.write(bad)
    out = subprocess.run(
        [HARNESS, "trailer", "/tmp/ref_trailer_bad.pdf"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.startswith("ERR EOF marker is not found")
    from pdf_parser_ray.pdfcore.errors import TrailerError

    with pytest.raises(TrailerError):
        parse_trailer(bad, len(bad))


# -- parser-level differential (object trees with offsets) --


def py_obj_fmt(obj) -> str:
    tag, val, off = obj
    if tag == "bool":
        return f"bool {'true' if val else 'false'} @{off}"
    if tag == "int":
        return f"int {val} @{off}"
    if tag == "real":
        return f"real {rust_f64_repr(val)} @{off}"
    if tag == "name":
        return f"name {val} @{off}"
    if tag == "string":
        return f"string @{off}"
    if tag == "null":
        return f"null @{off}"
    if tag == "ref":
        return f"ref {val[0]} {val[1]} @{off}"
    if tag == "array":
        return f"array [{', '.join(py_obj_fmt(x) for x in val)}] @{off}"
    if tag == "dict":
        pairs = sorted(f"{k}: {py_obj_fmt(v)}" for k, v in val.items())
        return f"dict {{{', '.join(pairs)}}} @{off}"
    if tag == "iobj":
        return f"iobj {py_obj_fmt(val)} @{off}"
    if tag == "stream":
        d = val
        pairs = sorted(f"{k}: {py_obj_fmt(v)}" for k, v in d[1].items())
        return f"stream dict {{{', '.join(pairs)}}} @{d[2]} @{off}"
    raise AssertionError(tag)


def py_parse_line(buf: bytes) -> str:
    from pdf_parser_ray.pdfcore.errors import ParserError
    from pdf_parser_ray.pdfcore.parser import Parser

    if not buf:
        return "EMPTY"
    try:
        return py_obj_fmt(Parser(buf, 0).parse())
    except ParserError as e:
        if e.kind == "Lexer":
            return f"ERR cannot tokenize: {e.inner.message} at byte offset `{e.inner.byte_offset}`"
        return f"ERR {e.message} at byte offset `{e.byte_offset}`"


def ref_parse_many(bufs: list[bytes]) -> list[str]:
    payload = "\n".join(b.hex() for b in bufs) + "\n"
    inp = "/tmp/ref_parsemany_input.txt"
    with open(inp, "w") as f:
        f.write(payload)
    out = subprocess.run(
        [HARNESS, "parsemany", inp], capture_output=True, text=True, check=True
    ).stdout
    blocks = out.split("====\n")
    return [b.rstrip("\n") for b in blocks[: len(bufs)]]


PARSE_FRAGMENTS = [
    b" 1 ", b"-2.5 ", b"(s)", b"<a0>", b"/N ", b"null ", b"true ",
    b"[", b"]", b"<<", b">>", b"/K ", b"3 0 R ", b"1 0 obj ", b"endobj ",
    b"<</Length 3>>", b"stream\nab", b"[1 2 [3]]", b"<</A 1 /B (x)>>",
]


def test_parser_differential_random():
    rng = random.Random(4242)
    bufs = []
    for _ in range(3000):
        k = rng.randrange(1, 8)
        bufs.append(b"".join(rng.choice(PARSE_FRAGMENTS) for _ in range(k)))
    ref = ref_parse_many(bufs)
    for buf, ref_line in zip(bufs, ref):
        assert py_parse_line(buf) == ref_line, f"buf={buf!r}"


def test_parser_differential_fixture_objects():
    pdf = pdfbuild.build_text_pdf(
        b"tree\ncheck", show_variant="cmap", indirect_length=True
    )
    bufs = []
    pos = 0
    while True:
        at = pdf.find(b" 0 obj", pos)
        if at == -1:
            break
        line_start = pdf.rfind(b"\n", 0, at) + 1
        bufs.append(pdf[line_start : line_start + 400])
        pos = at + 1
    ref = ref_parse_many(bufs)
    for buf, ref_line in zip(bufs, ref):
        assert py_parse_line(buf) == ref_line, f"buf={buf!r}"


def test_differential_synth_corpus_windows():
    """Lex every object window of 30 synthetic corpus PDFs (all variant
    combinations incl. xref streams/ObjStm) through both engines."""
    import pyarrow.parquet as pq

    from pdf_parser_ray.sources.synth import make_pdf_payload

    docs = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).to_pylist()
    bufs = []
    for r in docs[:90]:
        if r["doc_id"] % 3 != 0:
            continue
        pdf = make_pdf_payload(r["doc_id"], r["text"])
        pos = 0
        while True:
            at = pdf.find(b" 0 obj", pos)
            if at == -1:
                break
            line_start = pdf.rfind(b"\n", 0, at) + 1
            bufs.append(pdf[line_start : line_start + 600])
            pos = at + 1
    assert len(bufs) > 100
    ref = ref_lex_many(bufs)
    for buf, ref_lines in zip(bufs, ref):
        assert py_lex_lines(buf) == ref_lines, f"buf={buf[:80]!r}"
