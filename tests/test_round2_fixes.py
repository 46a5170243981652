"""Round-2 hardening tests: vectorized router equivalence, truncated
Flate detection (ADVICE.md + VERDICT.md #6). The job and staging tests
live in test_pipeline.py."""

import zlib

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_parser_ray.functions.hashing import crc32_of_strings
from pdf_parser_ray.stages.route import make_router, sniff_kind, sniff_kinds_vec


@given(st.lists(st.text(max_size=80), max_size=50))
@settings(max_examples=200, deadline=None)
def test_crc32_vectorized_matches_zlib(strings):
    arr = pa.array(strings, type=pa.string())
    got = crc32_of_strings(arr)
    exp = np.array([zlib.crc32(s.encode("utf-8")) for s in strings], dtype=np.uint32)
    assert (got == exp).all()


@given(st.lists(st.one_of(st.none(), st.binary(max_size=40)), max_size=60))
@settings(max_examples=200, deadline=None)
def test_sniff_vectorized_matches_scalar(payloads):
    arr = pa.array(payloads, type=pa.binary())
    got = sniff_kinds_vec(arr).to_pylist()
    exp = [sniff_kind((p or b"")[:15]) for p in payloads]
    assert got == exp


def test_router_null_payload_routes_other():
    t = pa.table(
        {
            "url": pa.array(["https://x/p/1", "https://x/p/2"]),
            "html": pa.array([None, b"%PDF-1.4"], type=pa.binary()),
        }
    )
    out = make_router(8)(t)
    assert out["kind"].to_pylist() == ["other", "pdf"]
    assert out["nbytes"].to_pylist() == [0, 8]


def test_flate_truncated_raises():
    from pdf_parser_ray.pdfcore.errors import FilterError
    from pdf_parser_ray.pdfcore.filters import flate_decode

    full = zlib.compress(b"A" * 10_000)
    assert flate_decode(full) == b"A" * 10_000
    with pytest.raises(FilterError, match="truncated"):
        flate_decode(full[: len(full) // 2])


def test_cmap_cache_keys_are_bytes():
    """Cache must key by raw stream BYTES (collision-proof), not hash()."""
    from pdf_parser_ray.pdfcore.document import PdfDocument
    from pdf_parser_ray.pdfcore.pdfbuild import build_text_pdf
    from pdf_parser_ray.pdfcore.textextract import extract_text

    cache: dict = {}
    payload = build_text_pdf(b"cached text", show_variant="cmap")
    doc = PdfDocument(payload)
    text, _spans = extract_text(doc, cmap_cache=cache)
    assert text == b"cached text"
    assert cache and all(isinstance(k, bytes) for k in cache)


def test_minhash_batch_signatures_match_scalar():
    """signatures_batch must equal the per-doc signature path bit for
    bit (incl. the empty-set sentinel row)."""
    import re

    from pdf_parser_ray.functions.hashing import MinHasher, TokenHasher
    from pdf_parser_ray.pipelines.textstats import TOKEN_RE

    word = re.compile(TOKEN_RE)
    th = TokenHasher()
    mh = MinHasher(k=64, bands=16)
    texts = ["alpha beta gamma delta epsilon zeta", "one two three", "", "x"]
    sets = [th.shingle_hashes(word.findall(t)) for t in texts]
    sigs = mh.signatures_batch(sets)
    for i, s in enumerate(sets):
        assert (sigs[:, i] == mh.signature(s)).all()
    # identical signatures -> identical band keys (the LSH contract)
    keys = mh.band_keys_batch(np.stack([sigs[:, 0], sigs[:, 0]], axis=1))
    assert (keys[:, 0] == keys[:, 1]).all()
