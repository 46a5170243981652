"""The flagship COMPOSITE pipeline: what a training-data user actually
runs end to end — extraction feeding quality filtering feeding
deduplication, all streaming, one Ray Data plan per phase.

    pages -> route -> extract (actor pool)          # extraction
          -> vectorized token stats -> filter       # quality gate
          -> 128-bit content key -> groupby Min     # exact dedup
          -> clean corpus rows

Every stage is an Arrow-vectorized ``map_batches`` or a native
aggregate; the only shuffle is the final dedup groupby over
(key, doc_id, n_tokens) rows — never the text. Fully oracle-checked
(the ``curation_pipeline`` query): the SQL restates extraction arms,
the token-count filter and the keep-min-doc_id-per-distinct-text rule.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import blake2b128_of_strings
from .textstats import TOKEN_RE, documents_path

DEFAULT_MIN_TOKENS = 30


def curation_pipeline(sf_dir: str, min_tokens: int = DEFAULT_MIN_TOKENS):
    """Returns (doc_id, n_tokens) for the deduplicated, quality-passing
    extracted corpus: ok rows with >= min_tokens tokens, one winner
    (min doc_id) per distinct extracted text."""
    from ray.data.aggregate import Min

    from ..pipelines.extract_pipeline import build_extract_ds
    from ..sources.synth import read_pages

    extracted = build_extract_ds(read_pages(sf_dir))

    def quality_gate(t: pa.Table) -> pa.Table:
        t = t.filter(t["ok"])
        texts = t["text"].cast(pa.large_string()).cast(pa.string())
        n_tokens = pc.count_substring_regex(texts, TOKEN_RE).cast(pa.int64())
        keep = pc.greater_equal(n_tokens, pa.scalar(min_tokens, pa.int64()))
        doc_ids = pa.array(
            [int(u.rsplit("/", 1)[1]) for u in t["url"].to_pylist()],
            type=pa.int64(),
        )
        # 128-bit content key as two int64 columns (64 bits would
        # birthday-collide around 4e9 rows; see dedup.exact_dedup_text),
        # hashed from zero-copy buffer views — no pylist round-trip
        h1, h2 = blake2b128_of_strings(t["text"])
        out = pa.table(
            {
                "doc_id": doc_ids,
                "n_tokens": n_tokens,
                "h1": pa.array(h1, pa.int64()),
                "h2": pa.array(h2, pa.int64()),
            }
        )
        return out.filter(keep)

    return (
        extracted.map_batches(quality_gate, batch_format="pyarrow")
        .groupby(["h1", "h2"])
        .aggregate(
            Min("doc_id", alias_name="doc_id"),
            Min("n_tokens", alias_name="n_tokens"),
        )
        .select_columns(["doc_id", "n_tokens"])
    )


def boilerplate_dedup_pipeline(sf_dir: str, min_docs: int = 3):
    """COMPOSITE #3 — boilerplate removal ENABLING exact dedup (the
    RefinedWeb ordering: line-level cleaning must run BEFORE document
    dedup, because near-identical pages differ only in their chrome):

        docs (+ per-doc footer/banner chrome lines)
          -> line-occurrence hash shuffle               # boilerplate df
             (in-group nunique(doc_id) >= min_docs)
          -> co-shuffled strip by doc bucket            # cleaning
             (boilerplate SITES ride as int pairs; text
              rides ONE doc-bucket exchange, once per doc)
          -> cleaned-text 128-bit key, coarse-bucket    # exact dedup
             co-group: min(doc_id) + group size per key
          -> (doc_id, is_canonical, dup_group_size)     # never empty

    The strip is training.strip_boilerplate, shared with line_dedup.
    Fully distributed: the former driver-side boilerplate frozenset
    broadcast grew with the corpus (at CC scale the set of lines in
    >= min_docs docs is every footer/nav variant); the semi-join shape
    here is dedup._cogroup_pair_payloads', with (doc_id, line_idx)
    sites instead of candidate pairs. Two docs whose raw pages differ
    (different footer/banner ids) can become exact duplicates after
    cleaning — the composite asserts the whole chain, restated end to
    end in SQL (lines rebuilt with ||, boilerplate df via
    COUNT(DISTINCT doc_id), cleaned text via ordered string_agg, dedup
    via GROUP BY cleaned text)."""
    import pandas as pd
    import ray.data

    from .agg import coarse_buckets, cogroup
    from .training import strip_boilerplate

    n_buckets = coarse_buckets(floor=256)  # content-key dedup buckets
    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])

    def lines_for(doc_id: int, text: str) -> list[str]:
        return [text, f"footer {doc_id % 7}", f"banner {doc_id % 3}"]

    def content_key(t: pa.Table) -> pa.Table:
        c1, c2 = blake2b128_of_strings(t["text_clean"])
        return pa.table(
            {
                "c1": pa.array(c1, pa.int64()),
                "c2": pa.array(c2, pa.int64()),
                "doc_id": t["doc_id"],
            }
        )

    def dedup_group(g: pd.DataFrame) -> pd.DataFrame:
        stats = g.groupby(["c1", "c2"])["doc_id"].agg(["min", "size"])
        m = g.merge(stats, left_on=["c1", "c2"], right_index=True)
        return pd.DataFrame(
            {
                "doc_id": m["doc_id"].astype("int64"),
                "is_canonical": (m["doc_id"] == m["min"]).astype("int64"),
                "dup_group_size": m["size"].astype("int64"),
            }
        )

    keyed = strip_boilerplate(ds, lines_for, min_docs).map_batches(
        content_key, batch_format="pyarrow"
    )
    return cogroup(keyed, "c1", n_buckets, dedup_group)
