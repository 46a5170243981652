"""The extraction stage's row contract, Ray-free.

One mixed batch goes through ``Extractor()`` and a capped
``Extractor(giant_cap=...)``: each row's ``ok``/``error``/``text`` and
page/object counts, and the Arrow types of every output column against
``OUTPUT_SCHEMA`` (also for an empty batch).
"""

from __future__ import annotations

import pyarrow as pa
import pytest

from pdf_parser_ray.pdfcore.pdfbuild import build_text_pdf
from pdf_parser_ray.stages import extract
from pdf_parser_ray.stages.extract import OUTPUT_SCHEMA, Extractor
from pdf_parser_ray.stages.route import make_router

GIANT = b"<p>" + b"x" * 2000 + b"</p>"
CAP = 1000

# url -> payload; the router gives each its kind
PAYLOADS = {
    "pdf": build_text_pdf(b"hello pdf"),
    "html": b"<html><body><p>hi web</p></body></html>",
    "other": b"GIF89a junk",
    "none": None,
    "giant": GIANT,
    "pdferror": b"%PDF-1.4\nnot a pdf at all",
    "internal": b"<p>boom</p>",
}

# url -> (ok, error, text, n_pages, n_objects) under Extractor()
EXPECTED = {
    "pdf": (True, None, b"hello pdf", 1, 5),
    "html": (True, None, b"hi web", 0, 0),
    "other": (False, "route: unsupported payload", b"", 0, 0),
    "none": (False, "route: unsupported payload", b"", 0, 0),
    "giant": (True, None, b"x" * 2000, 0, 0),
    "pdferror": (False, "trailer: EOF marker is not found", b"", 0, 0),
    "internal": (False, "internal: ValueError: injected fault", b"", 0, 0),
}


def _batch() -> pa.Table:
    urls = list(PAYLOADS)
    t = pa.table(
        {
            "url": urls,
            "warc_ts": pa.array([0] * len(urls), pa.int64()).cast(pa.timestamp("us")),
            "html": pa.array(list(PAYLOADS.values()), pa.binary()),
            "text": [""] * len(urls),
            "lang": ["en"] * len(urls),
        }
    )
    return make_router(8)(t)


@pytest.fixture
def faulty_html(monkeypatch):
    """The HTML strip raises ``ValueError`` on the ``internal`` row."""
    real = extract.extract_html_text

    def strip(payload):
        if payload == PAYLOADS["internal"]:
            raise ValueError("injected fault")
        return real(payload)

    monkeypatch.setattr(extract, "extract_html_text", strip)


def _rows(out: pa.Table) -> dict:
    return {
        r["url"]: (r["ok"], r["error"], r["text"], r["n_pages"], r["n_objects"])
        for r in out.to_pylist()
    }


def test_uncapped_rows(faulty_html):
    out = Extractor(giant_cap=None)(_batch())
    assert _rows(out) == EXPECTED
    assert out.schema.equals(OUTPUT_SCHEMA)


def test_default_cap_rows(faulty_html):
    out = Extractor()(_batch())
    assert _rows(out) == EXPECTED
    assert out.schema.equals(OUTPUT_SCHEMA)


def test_capped_rows(faulty_html):
    out = Extractor(giant_cap=CAP)(_batch())
    expected = dict(EXPECTED)
    expected["giant"] = (
        False,
        f"giant: payload of {len(GIANT)} bytes exceeds the {CAP}-byte main-pool cap",
        b"",
        0,
        0,
    )
    assert _rows(out) == expected
    assert out.schema.equals(OUTPUT_SCHEMA)
    assert out["url"].to_pylist() == list(PAYLOADS)  # row order kept


def test_failed_rows_have_no_spans(faulty_html):
    out = Extractor(giant_cap=CAP)(_batch()).to_pylist()
    for r in out:
        if not r["ok"]:
            assert r["spans"] == []
        else:
            assert r["spans"] and r["spans"][-1]["end"] == len(r["text"])


@pytest.mark.parametrize("cap", [None, CAP])
def test_empty_batch_types(cap):
    out = Extractor(giant_cap=cap)(_batch().slice(0, 0))
    assert out.num_rows == 0
    assert out.schema.equals(OUTPUT_SCHEMA)


def test_pass_through_columns_keep_input_types():
    """Columns the stage does not compute keep their input types."""
    t = _batch()
    t = t.set_column(
        t.schema.get_field_index("lang"), "lang", t["lang"].cast(pa.large_string())
    )
    out = Extractor()(t)
    assert out.schema.field("lang").type == pa.large_string()
    for name in ("ok", "error", "text", "spans", "n_pages", "n_objects"):
        assert out.schema.field(name).type == OUTPUT_SCHEMA.field(name).type
