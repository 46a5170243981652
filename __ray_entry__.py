"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline on sf0.001;
``queries()`` exposes every implemented operator/pipeline from
SURVEY.md §2 (plus the large-scale dedup/similarity/text-analysis
mandates); ``oracle_sql()`` gives the DuckDB-equivalent SQL for each
SQL-expressible query (keys absent here get the driver's weaker
rows-only check; those are noted ``# rows-only`` below).

Ray is initialised by the driver BEFORE this module is imported: no
ray.init()/ray.shutdown() anywhere in the import path or callables.

Conventions shared with the oracles:
- money/value sums are integer cents via ``floor(x*100 + 0.5)``
  (order-independent, bit-exact across engines)
- aggregate outputs are BIGINT-cast in SQL so schemas match Arrow int64
- dup corpora are synthesized with SQL-expressible transforms so the
  oracle can rebuild them (see pipelines/dedup.py, similarity.py)
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

SF_SMOKE = "/root/testdata/sf0.001"


# -- helpers ----------------------------------------------------------------


def _extracted(sf_dir: str):
    from pdf_parser_ray.pipelines.extract_pipeline import build_extract_ds
    from pdf_parser_ray.sources.synth import read_pages

    return build_extract_ds(read_pages(sf_dir))


def _doc_id_col(urls: list[str]) -> pa.Array:
    return pa.array([int(u.rsplit("/", 1)[1]) for u in urls], type=pa.int64())


def _extract_text_of_kind(sf_dir: str, kind: str):
    ds = _extracted(sf_dir)

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["kind"], kind))
        return pa.table(
            {
                "doc_id": _doc_id_col(t["url"].to_pylist()),
                "text": t["text"].cast(pa.large_string()).cast(pa.string()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


# -- driver contract --------------------------------------------------------


def entry() -> Any:
    """Flagship pipeline on sf0.001: synth pages -> route -> extract."""
    return _extracted(SF_SMOKE)


def queries() -> dict[str, Callable[[str], Any]]:
    from pdf_parser_ray.pipelines import (
        dedup,
        multimodal,
        relational,
        similarity,
        sketch,
        textstats,
        training,
    )
    from ray.data.aggregate import Count, Sum

    def route_counts(sf_dir: str):
        return (
            _extracted(sf_dir)
            .groupby("kind")
            .aggregate(Count(alias_name="n"))
        )

    def extract_pdf_text(sf_dir: str):
        return _extract_text_of_kind(sf_dir, "pdf")

    def extract_html_text(sf_dir: str):
        return _extract_text_of_kind(sf_dir, "html")

    def extract_ok_by_kind(sf_dir: str):
        ds = _extracted(sf_dir)

        def partial(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "kind": t["kind"],
                    "n_rows": pa.array([1] * len(t), pa.int64()),
                    "n_ok": t["ok"].cast(pa.int64()),
                }
            )

        return (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby("kind")
            .aggregate(Sum("n_rows", alias_name="n_rows"), Sum("n_ok", alias_name="n_ok"))
        )

    def extract_structure(sf_dir: str):
        # restricted to classic-xref rows ((doc_id//3)//4 % 4 == 0):
        # the object-count formula for stream/objstm/prev variants
        # differs and is asserted in pytest instead
        ds = _extracted(sf_dir)

        def project(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["kind"], "pdf"))
            ids = _doc_id_col(t["url"].to_pylist())
            t2 = pa.table(
                {
                    "doc_id": ids,
                    "n_pages": t["n_pages"],
                    "n_objects": t["n_objects"],
                }
            )
            k = pc.divide(ids, pa.scalar(3, pa.int64()))
            mask = pc.equal(
                pc.bit_wise_and(
                    pc.divide(k, pa.scalar(4, pa.int64())),
                    pa.scalar(3, pa.int64()),
                ),
                pa.scalar(0, pa.int64()),
            )
            return t2.filter(mask)

        return ds.map_batches(project, batch_format="pyarrow")

    def span_summary(sf_dir: str):
        """Span-offset invariants as data: one span per ok row in this
        corpus (single page / single block), end == len(text)."""
        ds = _extracted(sf_dir)

        def project(t: pa.Table) -> pa.Table:
            t = t.filter(t["ok"])
            ids = _doc_id_col(t["url"].to_pylist())
            n_spans = []
            tiled = []
            for spans, text in zip(
                t["spans"].to_pylist(), t["text"].to_pylist()
            ):
                n_spans.append(len(spans))
                tiled.append(
                    bool(spans)
                    and spans[0]["start"] == 0
                    and spans[-1]["end"] == len(text)
                )
            return pa.table(
                {
                    "doc_id": ids,
                    "n_spans": pa.array(n_spans, pa.int64()),
                    "tiled": pa.array(tiled, pa.bool_()),
                }
            )

        return ds.map_batches(project, batch_format="pyarrow")

    def errors_by_stage(sf_dir: str):
        ds = _extracted(sf_dir)

        def partial(t: pa.Table) -> pa.Table:
            t = t.filter(pc.invert(t["ok"]))
            stages = [
                e.split(":", 1)[0] for e in t["error"].to_pylist()
            ]
            return pa.table({"stage": pa.array(stages, pa.string())})

        return (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby("stage")
            .aggregate(Count(alias_name="n"))
        )

    def distinct_langs(sf_dir: str):
        import os

        import pandas as pd
        import ray.data

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["lang"]
        )
        return pd.DataFrame({"lang": sorted(ds.unique("lang"))})

    def partition_metrics_q(sf_dir: str):
        """Per-partition lineage counters, projected to the
        SQL-stateable columns (bytes_in depends on synthesized payload
        bytes, which no independent oracle can restate; it stays
        asserted via the job-manifest pytest path). The oracle
        recomputes crc32(url) % 256 from scratch in SQL."""
        from pdf_parser_ray.pipelines.extract_pipeline import partition_metrics

        return partition_metrics(_extracted(sf_dir)).select_columns(
            ["partition_id", "rows", "ok_rows", "text_bytes"]
        )

    def media_meta_all(sf_dir: str):
        """Binary-column metadata over EVERY arm (pdf/html/junk/real
        GIF/PNG), keyed by doc_id for the oracle join. mime, decoded
        and width/height are restated as pure SQL formulas; size and
        sha256 come from the synth-time expected side table (the PDF/
        PNG/GIF bytes themselves are not restatable in SQL)."""
        from pdf_parser_ray.pipelines.multimodal import media_meta

        ds = media_meta(sf_dir)

        def project(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": _doc_id_col(t["url"].to_pylist()),
                    "mime": t["mime"],
                    "payload_bytes": t["payload_bytes"],
                    "sha256": t["sha256"],
                    "decoded": t["decoded"],
                    "width": t["width"],
                    "height": t["height"],
                }
            )

        return ds.map_batches(project, batch_format="pyarrow")

    def media_meta_html(sf_dir: str):
        """Binary-column metadata for the html arm — mime sniff, size
        and sha256 are all independently restatable in SQL (the oracle
        rebuilds the exact page bytes), making this the end-to-end
        check for the multimodal metadata stage."""
        from pdf_parser_ray.pipelines.multimodal import media_meta

        ds = media_meta(sf_dir)

        def project(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["mime"], "text/html"))
            return pa.table(
                {
                    "doc_id": _doc_id_col(t["url"].to_pylist()),
                    "mime": t["mime"],
                    "payload_bytes": t["payload_bytes"],
                    "sha256": t["sha256"],
                }
            )

        return ds.map_batches(project, batch_format="pyarrow")

    def html_main_content(sf_dir: str):
        """Density-scored (readability-style) main-content selection on
        html rows — an independent heuristic that must agree with the
        rule-based strip on this corpus (same oracle)."""
        from pdf_parser_ray.pdfcore.htmlextract import extract_main_content
        from pdf_parser_ray.sources.synth import read_pages

        pages = read_pages(sf_dir)

        def project(t: pa.Table) -> pa.Table:
            ids, texts = [], []
            for url, payload in zip(
                t["url"].to_pylist(), t["html"].to_pylist()
            ):
                doc_id = int(url.rsplit("/", 1)[1])
                if doc_id % 3 != 1:
                    continue
                ids.append(doc_id)
                texts.append(extract_main_content(payload or b"").decode("utf-8"))
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )

        return pages.map_batches(project, batch_format="pyarrow")

    from pdf_parser_ray.pipelines.curation import (
        boilerplate_dedup_pipeline,
        curation_pipeline,
    )

    # Dict ORDER is part of the driver contract: its per-round
    # CORRECTNESS snapshot covers only the FIRST 50 entries in
    # insertion order. Rounds 3-4 snapshotted the same 50 (the tail
    # block below) and round 5 the 50 after them. The window now holds
    # the ten queries no snapshot has covered yet plus 40 that round 5
    # covered; the ten round-5 relational demos they displaced follow
    # the window, then the r3+r4 block in its old relative order.
    return {
        # -- snapshotted in r5 --
        "pack_sequences": training.pack_sequences,
        "dup_ngram_mass": training.dup_ngram_mass,
        "vocab_stats": training.vocab_stats,
        "blocklist_filter": training.blocklist_filter,
        "bpe_token_counts": training.bpe_token_counts,
        "shuffle_assignment": training.shuffle_assignment,
        "decontaminate": training.decontaminate,
        "rare_token_mass": training.rare_token_mass,
        "line_dedup": training.line_dedup,
        "normalize_text": training.normalize_text,
        "kmv_distinct_tokens": sketch.kmv_distinct_tokens,
        "tfidf_top_terms": training.tfidf_top_terms,
        "gif_frame_sample": multimodal.gif_frame_sample,
        "training_mix_pipeline": training.training_mix_pipeline,
        "bigram_lm_score": training.bigram_lm_score,
        "bloom_semi_join": relational.bloom_semi_join,
        "audio_meta": multimodal.audio_meta,
        "dup_span_removal": training.dup_span_removal,
        "events_lag_delta": relational.events_lag_delta,
        "lang_source_pivot": relational.lang_source_pivot,
        "link_pagerank": relational.link_pagerank,
        "embedding_clusters": similarity.embedding_clusters,
        "boilerplate_dedup_pipeline": boilerplate_dedup_pipeline,
        "doc_rollup": relational.doc_rollup,
        "url_canonicalize": training.url_canonicalize,
        "quantile_sketch": sketch.quantile_sketch,
        "bottomk_sample_per_lang": training.bottomk_sample_per_lang,
        "term_postings": textstats.term_postings,
        "near_dedup_survivors": dedup.near_dedup_survivors,
        "quality_classifier_score": textstats.quality_classifier_score,
        "url_dedup_windowed": dedup.url_dedup_windowed,
        "semantic_dedup": similarity.semantic_dedup,
        "heavy_hitters": sketch.heavy_hitters,
        "events_interval_join": relational.events_interval_join,
        "shingle_set_ops": textstats.shingle_set_ops,
        "doc_chunks": training.doc_chunks,
        "doc_global_rank": relational.doc_global_rank,
        "snapshot_diff": relational.snapshot_diff,
        "image_resize_thumbs": multimodal.image_resize_thumbs,
        "html_outlinks": multimodal.html_outlinks,
        # -- never snapshotted (inside the 50-entry window) --
        "charset_detect": multimodal.charset_detect,
        "temperature_sample": training.temperature_sample,
        "embedding_quantize": similarity.embedding_quantize,
        "audio_meta_ext": multimodal.audio_meta_ext,
        "gif_interlaced_meta": multimodal.gif_interlaced_meta,
        "extract_encrypted_text": multimodal.extract_encrypted_text,
        "pdf_ccitt_image_stats": multimodal.pdf_ccitt_image_stats,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        "hll_distinct_shingles": sketch.hll_distinct_shingles,
        "cms_token_counts": sketch.cms_token_counts,
        # -- snapshotted in r5, displaced from the window --
        "events_jsonl_agg": relational.events_jsonl_agg,
        "customers_no_orders": relational.customers_no_orders,
        "events_csv_agg": relational.events_csv_agg,
        "events_rolling_sum": relational.events_rolling_sum,
        "events_federated_agg": relational.events_federated_agg,
        "high_value_orders": relational.high_value_orders,
        "revenue_by_priority": relational.revenue_by_priority,
        "funnel_counts": relational.funnel_counts,
        "distinct_users_salted": relational.distinct_users_salted,
        "orders_cdc_upsert": relational.orders_cdc_upsert,
        # -- driver-snapshotted green in r3+r4 --
        # flagship composite: extract -> quality filter -> dedup
        "curation_pipeline": curation_pipeline,
        # extraction family (synthetic Common-Crawl-style pages table)
        "route_counts": route_counts,
        "html_main_content": html_main_content,
        "extract_pdf_text": extract_pdf_text,
        "extract_html_text": extract_html_text,
        "extract_ok_by_kind": extract_ok_by_kind,
        "errors_by_stage": errors_by_stage,
        "span_summary": span_summary,
        "extract_structure": extract_structure,
        # relational / aggregation / windows
        "doc_stats_by_lang": relational.doc_stats_by_lang,
        "lineitem_agg": relational.lineitem_agg,
        "orders_by_nation": relational.orders_by_nation,
        "orders_join_native": relational.orders_join_native,
        "top_docs_by_chars": relational.top_docs_by_chars,
        "events_hourly": relational.events_hourly,
        "events_props_agg": relational.events_props_agg,
        "sessions_per_user": relational.sessions_per_user,
        "events_running": relational.events_running,
        "events_minmax": relational.events_minmax,
        "events_sliding": relational.events_sliding,
        "events_asof_join": relational.events_asof_join,
        "doc_size_ranges": relational.doc_size_ranges,
        "top_docs_per_lang": relational.top_docs_per_lang,
        "chars_quantiles": relational.chars_quantiles,
        # text analysis
        "token_counts": textstats.token_counts,
        "quality_scores": textstats.quality_scores,
        "lang_id": textstats.lang_id,
        "fingerprints": textstats.fingerprints,
        # dedup
        "exact_dedup_text": dedup.exact_dedup_text,
        "streaming_exact_dedup": dedup.streaming_exact_dedup,
        "exact_dedup_key": dedup.exact_dedup_key,
        "url_dedup": dedup.url_dedup,
        "minhash_exact_pairs": lambda sf: dedup.minhash_dup_pairs(sf, threshold=0.999),
        "dedup_clusters": dedup.dedup_clusters,
        "sample_10pct": relational.sample_10pct,
        "minhash_near_pairs": lambda sf: dedup.minhash_dup_pairs(sf, threshold=0.5),
        "simhash_pairs": dedup.simhash_fingerprints,
        # similarity / embeddings
        "embedding_dup_pairs": similarity.embedding_dup_pairs,
        "embedding_dup_pairs_lsh": similarity.lsh_bucketed_dup_pairs,
        "ann_topk": similarity.ann_topk,
        "ann_topk_ivf": similarity.ann_topk_ivf,
        # multimodal / images
        "media_meta": media_meta_all,
        "media_meta_html": media_meta_html,
        "pdf_image_stats": multimodal.pdf_image_stats,
        # set ops / diagnostics
        "distinct_langs": distinct_langs,
        "partition_metrics": partition_metrics_q,
        # training-data prep (C4/Gopher/RefinedWeb-style curation)
        "pii_redact": training.pii_redact,
        "gopher_repetition": training.gopher_repetition,
        "domain_stats": training.domain_stats,
        "stratified_sample": training.stratified_sample,
    }


# SQL fragments shared by several oracles


def _crc32_table_sql() -> str:
    """The 256-entry IEEE CRC-32 byte table as a SQL list literal (a
    public constant, like any hash-function constant) so the oracle can
    recompute zlib.crc32 from scratch via list_reduce."""
    out = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        out.append(str(c))
    return "[" + ",".join(out) + "]::BIGINT[]"


# FNV-1a64 of an ASCII string s, as a SQL lambda body (HUGEINT math,
# wrap-around via % 2^64); SUBSTITUTE <S> for the column expression.
_FNV64_SQL = """
    list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
        list_transform(regexp_extract_all(<S>, '(?s).'), c -> ord(c)::HUGEINT)),
      (h, b) -> (xor(h, b) * 1099511628211::HUGEINT)
                 % 18446744073709551616::HUGEINT)
"""


def _simhash_ctes(corpus_rel: str) -> str:
    """CTE chain computing ``sim(doc_id, sh)`` — the engine's
    SimHash64 over FNV-hashed 3-token shingles — for every row of
    ``corpus_rel(doc_id, text)``. Mirrors functions/hashing.py
    (shingle_hashes + simhash64) byte for byte."""
    fnv = _FNV64_SQL.replace("<S>", "s")
    return f"""
    tok AS (
      SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
      FROM {corpus_rel}
    ),
    shl AS (
      SELECT doc_id,
             CASE WHEN len(ts) = 0 THEN []
                  WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                  ELSE list_transform(generate_series(1, len(ts) - 2),
                                      i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
             END AS l
      FROM tok
    ),
    sets AS (SELECT DISTINCT doc_id, s FROM (SELECT doc_id, unnest(l) AS s FROM shl)),
    hashes AS (SELECT doc_id, {fnv} AS h FROM sets),
    bits AS (
      SELECT doc_id, b,
             SUM(CASE WHEN ((h >> b) % 2) = 1 THEN 1 ELSE 0 END) AS ones,
             COUNT(*) AS n
      FROM hashes CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) g
      GROUP BY 1, 2
    ),
    sim AS (
      SELECT t.doc_id,
             COALESCE(s.sh, 0::HUGEINT) AS sh
      FROM tok t LEFT JOIN (
        SELECT doc_id,
               SUM(CASE WHEN 2 * ones >= n THEN (1::HUGEINT << b)
                        ELSE 0::HUGEINT END) AS sh
        FROM bits GROUP BY doc_id
      ) s USING (doc_id)
    )
"""


_DUP_CORPUS = """
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 10000000 AS doc_id,
         array_to_string(
           list_transform(string_split(text, ' '),
             (x, i) -> CASE WHEN (i - 1) % 40 = 0
                            THEN 'mutant' || CAST(i - 1 AS VARCHAR)
                            ELSE x END),
           ' ') AS text
  FROM documents WHERE doc_id % 10 = 0
  UNION ALL
  SELECT doc_id + 10000000 AS doc_id, text FROM documents WHERE doc_id % 10 = 5
)
"""

# full exact-Jaccard pair CTEs over ``corpus`` (appended to
# _DUP_CORPUS): 3-token-shingle sets rebuilt in SQL, pair intersection
# via a shingle equi-join, threshold 0.5 as integer arithmetic
# (2c >= |A|+|B|-c). Valid because the corpus pair-jaccard
# distribution is bimodal (nothing in [0.25, 0.75) at any sf), so LSH
# recall at these jaccard levels is deterministic-in-practice with the
# fixed seed. Shared by minhash_near_pairs and near_dedup_survivors.
_NEAR_PAIRS_CTES = """
            , tok AS (
              SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
              FROM corpus
            ),
            sh AS (
              SELECT doc_id,
                     CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_transform(
                                 generate_series(1, len(ts) - 2),
                                 i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
                     END AS shl
              FROM tok
            ),
            sets AS (
              SELECT DISTINCT doc_id, s
              FROM (SELECT doc_id, unnest(shl) AS s FROM sh)
            ),
            sizes AS (SELECT doc_id, COUNT(*) AS n FROM sets GROUP BY doc_id),
            inter AS (
              SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS c
              FROM sets x JOIN sets y ON x.s = y.s AND x.doc_id < y.doc_id
              GROUP BY 1, 2
            ),
            pairs AS (
              SELECT a, b FROM inter
              JOIN sizes sa ON sa.doc_id = inter.a
              JOIN sizes sb ON sb.doc_id = inter.b
              WHERE 2 * c >= (sa.n + sb.n - c)
            )
"""

_EMB_CORPUS = """
WITH corpus AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
  UNION ALL
  SELECT vec_id + 10000000 AS vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
           (x, i) -> CASE WHEN i = 1 THEN x * 1.01 + 0.001 ELSE x END) AS e
  FROM embeddings WHERE vec_id % 10 = 0
)
"""


def _expected_meta_glob() -> str:
    """Path glob of the synth-time expected-media side table for the
    sf the oracles will run against (the driver compares at sf0.01;
    scripts/check_oracle.py overrides via GRAFT_ORACLE_SF_DIR). Builds
    the pages cache (idempotent, /tmp-cached) so the side table exists
    even if the oracle runs before any query callable."""
    import os

    from pdf_parser_ray.sources.synth import (
        build_pages_table,
        meta_table_dir,
        pages_cache_dir,
    )

    sf_dir = os.environ.get("GRAFT_ORACLE_SF_DIR", "/root/testdata/sf0.01")
    try:
        pages = build_pages_table(sf_dir)
    except Exception:
        pages = pages_cache_dir(sf_dir)  # already built, or will fail loudly in SQL
    return os.path.join(meta_table_dir(pages), "*.parquet")


def oracle_sql() -> dict[str, str]:
    return {
        # extraction arms + token-count gate + keep-min-per-distinct-
        # text, restated end to end
        "curation_pipeline": """
            WITH ext AS (
              SELECT doc_id, text FROM documents WHERE doc_id % 3 < 2
            ),
            tok AS (
              SELECT doc_id, text,
                     CAST(length(regexp_extract_all(text, '[A-Za-z0-9]+'))
                          AS BIGINT) AS n_tokens
              FROM ext
            )
            SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id,
                   CAST(MIN(n_tokens) AS BIGINT) AS n_tokens
            FROM tok WHERE n_tokens >= 30
            GROUP BY text
        """,
        "route_counts": """
            SELECT CASE doc_id % 3 WHEN 0 THEN 'pdf' WHEN 1 THEN 'html'
                   ELSE 'other' END AS kind,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM documents GROUP BY 1
        """,
        "extract_pdf_text": """
            SELECT doc_id, text FROM documents WHERE doc_id % 3 = 0
        """,
        "extract_html_text": """
            SELECT doc_id, text FROM documents WHERE doc_id % 3 = 1
        """,
        "html_main_content": """
            SELECT doc_id, text FROM documents WHERE doc_id % 3 = 1
        """,
        "extract_ok_by_kind": """
            SELECT CASE doc_id % 3 WHEN 0 THEN 'pdf' WHEN 1 THEN 'html'
                   ELSE 'other' END AS kind,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(CASE WHEN doc_id % 3 = 2 THEN 0 ELSE 1 END) AS BIGINT) AS n_ok
            FROM documents GROUP BY 1
        """,
        "errors_by_stage": """
            SELECT 'route' AS stage, CAST(COUNT(*) AS BIGINT) AS n
            FROM documents WHERE doc_id % 3 = 2
        """,
        "span_summary": """
            SELECT doc_id, CAST(1 AS BIGINT) AS n_spans, TRUE AS tiled
            FROM documents WHERE doc_id % 3 < 2
        """,
        "extract_structure": """
            SELECT doc_id,
                   CAST(1 AS INTEGER) AS n_pages,
                   CAST(5 + CASE WHEN (doc_id // 3) % 2 = 0 THEN 1 ELSE 0 END
                          + CASE WHEN (doc_id // 3) % 4 = 3 THEN 2 ELSE 0 END
                          + CASE WHEN (doc_id // 3) % 5 = 0 THEN
                                (CASE WHEN (doc_id // 3) % 10 = 0 THEN 2 ELSE 1 END)
                            ELSE 0 END
                          + CASE WHEN ((doc_id // 3) // 16) % 2 = 1
                                 AND (doc_id // 3) % 5 <> 0 THEN 1 ELSE 0 END
                        AS INTEGER) AS n_objects
            FROM documents
            WHERE doc_id % 3 = 0 AND ((doc_id // 3) // 4) % 4 = 0
        """,
        "pdf_image_stats": """
            SELECT doc_id,
                   CAST(1 AS BIGINT) AS n_images,
                   CAST(2 + doc_id % 7 AS BIGINT) AS img_w,
                   CAST(3 + doc_id % 5 AS BIGINT) AS img_h,
                   TRUE AS rgb_ok
            FROM documents
            WHERE doc_id % 3 = 0 AND (doc_id // 3) % 5 = 0
        """,
        "distinct_langs": """
            SELECT DISTINCT lang FROM documents
        """,
        "doc_stats_by_lang": """
            SELECT lang,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang
        """,
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS sum_price_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM lineitem GROUP BY 1, 2
        """,
        "orders_by_nation": """
            SELECT n.n_name AS n_name,
                   CAST(SUM(CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY 1
        """,
        "orders_join_native": """
            SELECT c.c_mktsegment AS c_mktsegment,
                   CAST(SUM(CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY 1
        """,
        "top_docs_by_chars": """
            SELECT doc_id, n_chars FROM documents
            ORDER BY n_chars DESC, doc_id LIMIT 10
        """,
        "events_hourly": """
            SELECT event_type,
                   epoch_us(ts) // 3600000000 AS hour,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS value_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events GROUP BY 1, 2
        """,
        "events_props_agg": """
            SELECT event_type,
                   CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
                       AS sum_k,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events GROUP BY event_type
        """,
        "sessions_per_user": """
            SELECT user_id,
                   CAST(1 + SUM(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_sessions
            FROM (
              SELECT user_id,
                     epoch_us(ts) - lag(epoch_us(ts))
                         OVER (PARTITION BY user_id ORDER BY ts) AS gap_us
              FROM events
            ) t GROUP BY user_id
        """,
        "events_minmax": """
            SELECT event_type,
                   CAST(MIN(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS min_cents,
                   CAST(MAX(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS max_cents,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM events GROUP BY event_type
        """,
        # sliding window = tumbling hours cross-joined with the hop
        # offsets (every event covers window_hours/hop_hours windows)
        "events_sliding": """
            SELECT event_type,
                   (epoch_us(ts) // 3600000000) - off AS win_start,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS value_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events CROSS JOIN (SELECT unnest([0, 1]) AS off) o
            GROUP BY 1, 2
        """,
        "top_docs_per_lang": """
            SELECT lang, doc_id, n_chars, rank FROM (
              SELECT lang, doc_id, n_chars,
                     CAST(row_number() OVER (
                        PARTITION BY lang ORDER BY n_chars DESC, doc_id
                     ) AS BIGINT) AS rank
              FROM documents
            ) WHERE rank <= 3
        """,
        # discrete quantile = value at 1-based rank ceil(q*n) of the
        # sorted group (deterministic under ties: same multiset)
        "chars_quantiles": """
            WITH s AS (
              SELECT lang, n_chars,
                     row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
                     COUNT(*) OVER (PARTITION BY lang) AS n
              FROM documents
            )
            SELECT lang, CAST(50 AS BIGINT) AS q_pct,
                   CAST(n_chars AS BIGINT) AS value
            FROM s WHERE rn = GREATEST(1, CAST(ceil(0.5 * n) AS BIGINT))
            UNION ALL
            SELECT lang, CAST(90 AS BIGINT) AS q_pct,
                   CAST(n_chars AS BIGINT) AS value
            FROM s WHERE rn = GREATEST(1, CAST(ceil(0.9 * n) AS BIGINT))
        """,
        # the as-of join restated as an IGNORE NULLS last_value window
        # over the strict (ts, event_id) order — matches the engine's
        # per-user forward fill exactly
        "events_asof_join": """
            WITH ordered AS (
              SELECT event_id, user_id, event_type, epoch_us(ts) AS tu
              FROM events WHERE event_type IN ('click', 'view')
            ), w AS (
              SELECT event_id, event_type,
                     last_value(CASE WHEN event_type = 'view'
                                     THEN event_id END IGNORE NULLS)
                       OVER (PARTITION BY user_id ORDER BY tu, event_id
                             ROWS UNBOUNDED PRECEDING) AS lv
              FROM ordered
            )
            SELECT event_id, CAST(lv AS BIGINT) AS view_event_id
            FROM w WHERE event_type = 'click' AND lv IS NOT NULL
        """,
        # a genuine SQL range join against the same interval table
        "doc_size_ranges": """
            SELECT c.name AS size_class, CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM documents d
            JOIN (VALUES ('xs', 0, 150), ('s', 150, 300),
                         ('m', 300, 450), ('l', 450, 4611686018427387904))
                 AS c(name, lo, hi)
              ON d.n_chars >= c.lo AND d.n_chars < c.hi
            GROUP BY 1
        """,
        "events_running": """
            SELECT event_id,
                   CAST(row_number() OVER (
                        PARTITION BY user_id ORDER BY ts, event_id
                   ) AS BIGINT) AS running_n
            FROM events
        """,
        "token_counts": """
            SELECT doc_id,
                   CAST(length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT)
                       AS n_tokens
            FROM documents
        """,
        "quality_scores": r"""
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars_calc,
                   CAST(length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT)
                       AS n_tokens,
                   CAST(length(list_filter(regexp_extract_all(text, '[A-Za-z0-9]+'),
                        x -> x IN ('the','and','of','a','to','in'))) AS BIGINT)
                       AS n_stopwords,
                   CAST(length(regexp_extract_all(text, '[^\w\s]')) AS BIGINT)
                       AS n_punct
            FROM documents
        """,
        "exact_dedup_text": _DUP_CORPUS
        + """
            SELECT MIN(doc_id) AS doc_id FROM corpus GROUP BY text
        """,
        # the sharded-actor streaming index converges to the same
        # min-per-key answer (the fold is associative+commutative, so
        # arrival order is irrelevant) — identical oracle
        "streaming_exact_dedup": _DUP_CORPUS
        + """
            SELECT MIN(doc_id) AS doc_id FROM corpus GROUP BY text
        """,
        "exact_dedup_key": """
            SELECT lang, n_chars, MIN(doc_id) AS doc_id
            FROM documents GROUP BY lang, n_chars
        """,
        "url_dedup": """
            SELECT doc_id,
                   CAST(1704067200000000 + doc_id * 1000000
                        + CASE WHEN doc_id % 7 = 0 THEN 3600000000 ELSE 0 END
                        AS BIGINT) AS ts_us
            FROM documents
        """,
        "minhash_exact_pairs": _DUP_CORPUS
        + """
            SELECT a.doc_id AS a, b.doc_id AS b
            FROM corpus a JOIN corpus b
              ON a.text = b.text AND a.doc_id < b.doc_id
        """,
        # exact-Jaccard pair oracle — see _NEAR_PAIRS_CTES for why the
        # SQL restatement is exact at these jaccard levels
        "minhash_near_pairs": _DUP_CORPUS
        + _NEAR_PAIRS_CTES
        + """
            SELECT a, b FROM pairs
        """,
        # the EXACT inverted-index sibling computes the same pair set
        # deterministically (no LSH), so it shares the oracle verbatim
        "ngram_jaccard_pairs": _DUP_CORPUS
        + _NEAR_PAIRS_CTES
        + """
            SELECT a, b FROM pairs
        """,
        # SemDeDup: deterministic seed-centroid assignment (same rule
        # as embedding_clusters) over the noisy-copy corpus, then the
        # keep-lowest-id within-cluster cosine rule stated as EXISTS
        "semantic_dedup": _EMB_CORPUS
        + """
            , assign AS (
              SELECT vec_id, e, cluster_id FROM (
                SELECT c.vec_id, c.e, s.vec_id AS cluster_id,
                       row_number() OVER (
                         PARTITION BY c.vec_id
                         ORDER BY list_cosine_similarity(
                             c.e, CAST(s.embedding AS DOUBLE[])) DESC,
                         s.vec_id) AS rk
                FROM corpus c, embeddings s
                WHERE s.vec_id >= 8 AND s.vec_id < 24
              ) WHERE rk = 1
            )
            SELECT a.vec_id, a.cluster_id,
                   EXISTS (
                     SELECT 1 FROM assign b
                     WHERE b.cluster_id = a.cluster_id
                       AND b.vec_id < a.vec_id
                       AND list_cosine_similarity(a.e, b.e) >= 0.999
                   ) AS removed
            FROM assign a
        """,
        # Count-Min sketch point estimates: the oracle rebuilds the
        # identical d=2 x w=1024 counter array — FNV-1a64 cells via
        # Kirsch-Mitzenmacher double hashing, cell-wise HUGEINT sums —
        # and takes the per-token minimum, collision for collision
        "cms_token_counts": """
            WITH toks AS (
              SELECT unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS token
              FROM documents
            ),
            tc AS (
              SELECT token, CAST(COUNT(*) AS HUGEINT) AS cnt
              FROM toks GROUP BY token
            ),
            cells AS (
              SELECT token, cnt,
                     hv % 1024 AS c0,
                     (hv % 1024 + (hv // 1024) % 1024) % 1024 AS c1
              FROM (SELECT token, cnt, """
        + _FNV64_SQL.replace("<S>", "token")
        + """ AS hv FROM tc)
            ),
            ctr0 AS (SELECT c0 AS cell, SUM(cnt) AS s FROM cells GROUP BY 1),
            ctr1 AS (SELECT c1 AS cell, SUM(cnt) AS s FROM cells GROUP BY 1)
            SELECT cells.token AS token,
                   CAST(LEAST(ctr0.s, ctr1.s) AS BIGINT) AS est_cnt
            FROM cells
            JOIN ctr0 ON cells.c0 = ctr0.cell
            JOIN ctr1 ON cells.c1 = ctr1.cell
        """,
        # exact heavy hitters (freq * k > N, k = 100): the Ray side's
        # two-pass Misra-Gries sweep is exact by construction, so the
        # oracle is the direct full-vocabulary restatement
        "heavy_hitters": """
            WITH toks AS (
              SELECT unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS token
              FROM documents
            )
            SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt
            FROM toks GROUP BY token
            HAVING COUNT(*) * 100 > (SELECT COUNT(*) FROM toks)
        """,
        # INTERVAL join: all click events within (p.ts, p.ts + 6h]
        # after each purchase by the same user — direct band-join SQL
        "events_interval_join": """
            SELECT p.event_id AS purchase_event_id,
                   c.event_id AS click_event_id
            FROM events p JOIN events c
              ON p.user_id = c.user_id
             AND p.event_type = 'purchase' AND c.event_type = 'click'
             AND c.ts > p.ts AND c.ts <= p.ts + INTERVAL 6 HOUR
        """,
        # HyperLogLog registers + raw estimate rebuilt exactly: FNV
        # shingle hashes -> bucket = h % 1024, rank = 1 + tz(h // 1024)
        # via a powers-of-two join (pure BIGINT), fixed-point 2^55
        # harmonic sum in HUGEINT, integer alpha rational
        "hll_distinct_shingles": """
            WITH tok AS (
              SELECT lang, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
              FROM documents
            ),
            shl AS (
              SELECT lang,
                     CASE WHEN len(ts) = 0 THEN []
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_transform(generate_series(1, len(ts) - 2),
                               i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
                     END AS shingles
              FROM tok
            ),
            sh AS (SELECT DISTINCT lang, unnest(shingles) AS s FROM shl),
            hv AS (SELECT lang, """
        + _FNV64_SQL.replace("<S>", "s")
        + """ AS h FROM sh),
            parts AS (
              SELECT lang, CAST(h % 1024 AS BIGINT) AS bucket,
                     CAST(h // 1024 AS BIGINT) AS w
              FROM hv
            ),
            tz AS (
              SELECT p.lang, p.bucket,
                     CASE WHEN p.w = 0 THEN 55
                          ELSE 1 + (SELECT MAX(g.k)
                                    FROM generate_series(0, 54) g(k)
                                    WHERE p.w % (1::BIGINT << g.k) = 0)
                     END AS rho
              FROM parts p
            ),
            regs AS (SELECT lang, bucket, MAX(rho) AS rho FROM tz GROUP BY 1, 2),
            fin AS (
              SELECT lang, COUNT(*) AS used_regs, MAX(rho) AS max_rho,
                     SUM((1::BIGINT << 55) >> CAST(rho AS INT))::HUGEINT
                       + (1024 - COUNT(*))::HUGEINT
                         * (1::BIGINT << 55)::HUGEINT AS s
              FROM regs GROUP BY 1
            )
            SELECT lang, CAST(used_regs AS BIGINT) AS used_regs,
                   CAST(max_rho AS BIGINT) AS max_rho,
                   CAST((7386112000::HUGEINT * 1048576::HUGEINT
                         * (1::BIGINT << 55)::HUGEINT)
                        // (10250790000::HUGEINT * s) AS BIGINT) AS est_raw
            FROM fin
        """,
        # set ops as a FULL OUTER over the two distinct shingle sets:
        # intersect / only_a (EXCEPT) / only_b classified per shingle
        "shingle_set_ops": """
            WITH tok AS (
              SELECT lang, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
              FROM documents WHERE lang IN ('en', 'de')
            ),
            shl AS (
              SELECT lang,
                     CASE WHEN len(ts) = 0 THEN []
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_transform(generate_series(1, len(ts) - 2),
                               i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
                     END AS shingles
              FROM tok
            ),
            a AS (SELECT DISTINCT unnest(shingles) AS shingle
                  FROM shl WHERE lang = 'en'),
            b AS (SELECT DISTINCT unnest(shingles) AS shingle
                  FROM shl WHERE lang = 'de')
            SELECT COALESCE(a.shingle, b.shingle) AS shingle,
                   CASE WHEN a.shingle IS NOT NULL AND b.shingle IS NOT NULL
                        THEN 'intersect'
                        WHEN a.shingle IS NOT NULL THEN 'only_a'
                        ELSE 'only_b' END AS set_op
            FROM a FULL OUTER JOIN b ON a.shingle = b.shingle
        """,
        # fact-fact join with the pre-join combiner made explicit:
        # lineitem folds to per-orderkey revenue partials before the
        # join; rounding is per-ROW half-up cents on both sides
        "revenue_by_priority": """
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(rev) AS BIGINT) AS revenue_cents
            FROM (
              SELECT l_orderkey,
                     SUM(CAST(floor(l_extendedprice * (1 - l_discount)
                                    * 100 + 0.5) AS BIGINT)) AS rev
              FROM lineitem GROUP BY 1
            ) l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY 1
        """,
        # greedy earliest-match funnel: each stage anchors at the
        # earliest qualifying event strictly after the previous anchor
        "funnel_counts": """
            WITH s0 AS (
              SELECT user_id, MIN(epoch_us(ts)) AS t FROM events
              WHERE event_type = 'view' GROUP BY 1
            ),
            s1 AS (
              SELECT e.user_id, MIN(epoch_us(e.ts)) AS t FROM events e
              JOIN s0 ON e.user_id = s0.user_id AND epoch_us(e.ts) > s0.t
              WHERE e.event_type = 'click' GROUP BY 1
            ),
            s2 AS (
              SELECT e.user_id, MIN(epoch_us(e.ts)) AS t FROM events e
              JOIN s1 ON e.user_id = s1.user_id AND epoch_us(e.ts) > s1.t
              WHERE e.event_type = 'purchase' GROUP BY 1
            )
            SELECT CAST(0 AS BIGINT) AS stage_idx, 'view' AS stage,
                   CAST((SELECT COUNT(*) FROM s0) AS BIGINT) AS n_users
            UNION ALL SELECT 1, 'click',
                   CAST((SELECT COUNT(*) FROM s1) AS BIGINT)
            UNION ALL SELECT 2, 'purchase',
                   CAST((SELECT COUNT(*) FROM s2) AS BIGINT)
        """,
        # salted exact distinct: per-salt counts are disjoint because
        # the salt is a function of the distinct key
        "distinct_users_salted": """
            SELECT event_type,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY 1
        """,
        # CDC merge: version-1 updates (%7) then version-2 deletes
        # (%11), max-version-wins, tombstones filtered
        "orders_cdc_upsert": """
            SELECT o_orderkey,
                   CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                     + CASE WHEN o_orderkey % 7 = 0 THEN 12345
                            ELSE 0 END AS total_cents,
                   CAST(CASE WHEN o_orderkey % 7 = 0 THEN 1
                             ELSE 0 END AS BIGINT) AS version
            FROM orders WHERE o_orderkey % 11 <> 0
        """,
        # sliding token windows; single-space split matches the Ray
        # side's text.split(' ') exactly, so chunk TEXT is hash-checked
        "doc_chunks": """
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS t FROM documents
            ),
            starts AS (
              SELECT doc_id, t, unnest(range(0, len(t), 48)) AS s
              FROM toks
            )
            SELECT doc_id,
                   CAST(s / 48 AS BIGINT) AS chunk_id,
                   CAST(least(s + 64, len(t)) - s AS BIGINT)
                     AS n_chunk_tokens,
                   array_to_string(t[s + 1 : least(s + 64, len(t))], ' ')
                     AS chunk_text
            FROM starts
        """,
        # int8 quantization summaries; float32 -> double is exact, so
        # both sides apply the identical half-up clamp formula
        "embedding_quantize": """
            WITH q AS (
              SELECT vec_id,
                     list_transform(embedding,
                        x -> greatest(-127, least(127,
                             CAST(floor(x * 128 + 0.5) AS BIGINT)))) AS qs,
                     list_filter(embedding,
                        x -> floor(x * 128 + 0.5) < -127
                          OR floor(x * 128 + 0.5) > 127) AS satl
              FROM embeddings
            )
            SELECT vec_id,
                   CAST(list_aggregate(qs, 'sum') AS BIGINT) AS q_sum,
                   CAST(list_aggregate(list_transform(qs, v -> v * v),
                        'sum') AS BIGINT) AS q_energy,
                   CAST(len(satl) AS BIGINT) AS n_saturated
            FROM q
        """,
        # temperature (T=2) mixture resampling: keep-rate 1/isqrt(n_l)
        # via deterministic FNV hash-thresholding
        "temperature_sample": """
            WITH c AS (
              SELECT lang, COUNT(*) AS n FROM documents GROUP BY 1
            ),
            k AS (
              SELECT d.doc_id, d.lang, c.n, """
        + _FNV64_SQL.replace("<S>", "CAST(d.doc_id AS VARCHAR)")
        + """ AS h
              FROM documents d JOIN c USING (lang)
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id, lang
            FROM k
            WHERE h % (1000 * CAST(floor(sqrt(n)) AS HUGEINT)) < 1000
        """,
        # charset sniff over five deterministic encodings; corpus text
        # is pure ASCII so char length == byte length in the size math
        "charset_detect": """
            SELECT doc_id,
                   CASE doc_id % 5
                     WHEN 0 THEN 'ascii' WHEN 1 THEN 'utf-8'
                     WHEN 2 THEN 'utf-8-bom' WHEN 3 THEN 'utf-16'
                     ELSE 'latin-1' END AS charset,
                   CAST(CASE doc_id % 5
                     WHEN 0 THEN length(text)
                     WHEN 1 THEN length(text) + 2
                     WHEN 2 THEN length(text) + 3
                     WHEN 3 THEN 2 * length(text) + 2
                     ELSE length(text) + 1 END AS BIGINT) AS payload_bytes
            FROM documents
        """,
        # real <a href> scan (comment/script decoys skipped); targets
        # restated from the deterministic synthesis rule
        "html_outlinks": """
            WITH l AS (
              SELECT doc_id,
                     unnest(range(0, 1 + doc_id % 5)) AS k
              FROM documents
            )
            SELECT doc_id, CAST(k AS BIGINT) AS link_idx,
                   'https://site' || ((doc_id + k) % 97)
                     || '.example/doc/'
                     || ((doc_id * 31 + k * 17) % 100000) AS href
            FROM l
        """,
        # real PNG decode + integer nearest-neighbor 8x8 resize; the
        # thumbnail checksum is pure integer math over the gradient
        "image_resize_thumbs": """
            SELECT d.doc_id,
                   CAST(16 + d.doc_id % 16 AS BIGINT) AS width,
                   CAST(16 + d.doc_id % 8 AS BIGINT) AS height,
                   CAST(SUM((8 * i.i + j.j + 1) *
                        ((11 * d.doc_id
                          + 3 * ((j.j * (16 + d.doc_id % 16)) // 8)
                          + 7 * ((i.i * (16 + d.doc_id % 8)) // 8))
                         % 256)) AS BIGINT) AS thumb_wsum
            FROM documents d,
                 generate_series(0, 7) AS i(i),
                 generate_series(0, 7) AS j(j)
            GROUP BY 1
        """,
        # global ROW_NUMBER via histogram + prefix offsets
        "doc_global_rank": """
            SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
                   CAST(ROW_NUMBER() OVER (ORDER BY n_chars, doc_id)
                        AS BIGINT) AS rank
            FROM documents
        """,
        # snapshot delta: B drops %13, edits %17 survivors, adds %19
        # offspring at doc_id + max(1000000, max(doc_id) + 1)
        "snapshot_diff": """
            SELECT doc_id, 'removed' AS change FROM documents
            WHERE doc_id % 13 = 0
            UNION ALL
            SELECT doc_id, 'changed' FROM documents
            WHERE doc_id % 13 <> 0 AND doc_id % 17 = 0
            UNION ALL
            SELECT doc_id + GREATEST(1000000, (SELECT max(doc_id) + 1 FROM documents)),
                   'added'
            FROM documents WHERE doc_id % 19 = 0
        """,
        # the removal composite: drop the larger member of every
        # verified near-dup pair (keep-smallest-id), emit survivors
        "near_dedup_survivors": _DUP_CORPUS
        + _NEAR_PAIRS_CTES
        + """
            SELECT doc_id FROM corpus
            WHERE doc_id NOT IN (SELECT b FROM pairs)
        """,
        "dedup_clusters": _DUP_CORPUS
        + """
            SELECT doc_id, cluster_id FROM (
              SELECT doc_id,
                     MIN(doc_id) OVER (PARTITION BY text) AS cluster_id,
                     COUNT(*) OVER (PARTITION BY text) AS n
              FROM corpus
            ) WHERE n > 1
        """,
        "sample_10pct": """
            SELECT doc_id, lang FROM documents WHERE doc_id % 10 = 0
        """,
        # the stopword-score heuristic restated in SQL: first-in-order
        # argmax over (en, de, fr, es) with strict improvement, 'und'
        # when all scores are zero, CJK override on the first 400 chars
        "lang_id": """
            SELECT doc_id, lang,
              CASE
                WHEN regexp_matches(substr(text, 1, 400), '[\\x{4e00}-\\x{9fff}]')
                  THEN 'zh'
                WHEN s_en = 0 AND s_de = 0 AND s_fr = 0 AND s_es = 0 THEN 'und'
                WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es THEN 'en'
                WHEN s_de >= s_fr AND s_de >= s_es THEN 'de'
                WHEN s_fr >= s_es THEN 'fr'
                ELSE 'es'
              END AS pred_lang
            FROM (
              SELECT doc_id, lang, text,
                len(list_filter(toks, x -> x IN
                  ('the','and','of','to','in','is','that','for','with','on'))) AS s_en,
                len(list_filter(toks, x -> x IN
                  ('der','die','das','und','von','zu','mit','ist','auf','ein'))) AS s_de,
                len(list_filter(toks, x -> x IN
                  ('le','la','les','de','et','un','une','est','dans','pour'))) AS s_fr,
                len(list_filter(toks, x -> x IN
                  ('el','la','los','de','y','un','una','es','en','por'))) AS s_es
              FROM (
                SELECT doc_id, lang, text,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
                FROM documents
              )
            )
        """,
        # both fingerprints recomputed from scratch in SQL: FNV-1a64
        # over the text bytes, SimHash64 over FNV-hashed 3-token
        # shingles (mirrors functions/hashing.py)
        "fingerprints": "WITH "
        + _simhash_ctes("documents")
        + """
            SELECT d.doc_id,
                   CAST("""
        + _FNV64_SQL.replace("<S>", "d.text")
        + """ - 9223372036854775808::HUGEINT AS BIGINT) AS fnv64,
                   CAST(sim.sh - 9223372036854775808::HUGEINT AS BIGINT) AS simhash64
            FROM documents d JOIN sim ON sim.doc_id = d.doc_id
        """,
        # candidate pairs share one of four 16-bit simhash bands;
        # verified by bit_count(xor) <= 6 — the engine's exact rule
        "simhash_pairs": _DUP_CORPUS
        + ", "
        + _simhash_ctes("corpus")
        + """
            , bands AS (
              SELECT doc_id, b AS band, (sh >> (16 * b)) % 65536 AS chunk
              FROM sim CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS b) g
            ),
            cand AS (
              SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
              FROM bands x JOIN bands y
                ON x.band = y.band AND x.chunk = y.chunk
               AND x.doc_id < y.doc_id
            )
            SELECT a, b FROM cand
            JOIN sim sa ON sa.doc_id = cand.a
            JOIN sim sb ON sb.doc_id = cand.b
            WHERE bit_count(xor(sa.sh, sb.sh)) <= 6
        """,
        "embedding_dup_pairs": _EMB_CORPUS
        + """
            SELECT a.vec_id AS a, b.vec_id AS b
            FROM corpus a JOIN corpus b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.e, b.e) >= 0.999
        """,
        # the LSH-bucketed variant must recover the exact pair set on
        # this corpus: planted copies sit at cos ~0.9999, where the
        # per-table all-bits-equal probability is ~0.95, so missing all
        # 8 tables is ~6e-11 — and the fixed seed makes the outcome a
        # deterministic function of the input, verified at 3 sfs
        "embedding_dup_pairs_lsh": _EMB_CORPUS
        + """
            SELECT a.vec_id AS a, b.vec_id AS b
            FROM corpus a JOIN corpus b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.e, b.e) >= 0.999
        """,
        # crc32(url) recomputed from scratch via list_reduce over the
        # byte table (partition assignment is part of the contract)
        "partition_metrics": """
            WITH tbl AS (SELECT """
        + _crc32_table_sql()
        + """ AS T),
            u AS (
              SELECT doc_id,
                     'https://site' || CAST(doc_id % 97 AS VARCHAR)
                       || '.example/p/' || CAST(doc_id AS VARCHAR) AS url
              FROM documents
            ),
            c AS (
              SELECT doc_id,
                xor(list_reduce(
                  list_prepend(4294967295::BIGINT,
                    list_transform(regexp_extract_all(url, '(?s).'),
                                   ch -> ord(ch)::BIGINT)),
                  (c, b) -> xor(c >> 8, T[(xor(c, b) % 256) + 1])),
                  4294967295::BIGINT) AS crc
              FROM u CROSS JOIN tbl
            )
            SELECT CAST(crc % 256 AS INTEGER) AS partition_id,
                   CAST(COUNT(*) AS BIGINT) AS "rows",
                   CAST(SUM(CASE WHEN d.doc_id % 3 < 2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS ok_rows,
                   CAST(SUM(CASE WHEN d.doc_id % 3 < 2 THEN length(d.text)
                                 ELSE 0 END) AS BIGINT) AS text_bytes
            FROM c JOIN documents d ON d.doc_id = c.doc_id
            GROUP BY 1
        """,
        # full-corpus binary metadata: mime, decoded and width/height
        # are pure SQL formulas over doc_id; payload_bytes and sha256
        # join against the synth-time expected side table (PDF and
        # compressed PNG/GIF bytes are not restatable in SQL). The
        # formulas mirror sources/synth.py make_*_payload + gif_dims/
        # png_dims and pipelines/multimodal.py decode semantics.
        "media_meta": f"""
            WITH meta AS (
              SELECT doc_id, payload_bytes, sha256
              FROM read_parquet('{_expected_meta_glob()}')
            )
            SELECT d.doc_id,
                   CASE WHEN d.doc_id % 3 = 0 THEN 'application/pdf'
                        WHEN d.doc_id % 3 = 1 THEN 'text/html'
                        WHEN (d.doc_id // 3) % 4 = 0 THEN 'application/octet-stream'
                        WHEN (d.doc_id // 3) % 4 = 1 THEN 'image/gif'
                        WHEN (d.doc_id // 3) % 4 = 2 THEN 'image/png'
                        ELSE 'application/zip' END AS mime,
                   m.payload_bytes,
                   m.sha256,
                   (d.doc_id % 3 = 2 AND (d.doc_id // 3) % 4 IN (1, 2)) AS decoded,
                   CAST(CASE WHEN d.doc_id % 3 <> 2 THEN 0
                             WHEN (d.doc_id // 3) % 4 = 1 THEN 2 + d.doc_id % 5
                             WHEN (d.doc_id // 3) % 4 = 2 THEN 2 + d.doc_id % 4
                             ELSE 0 END AS INTEGER) AS width,
                   CAST(CASE WHEN d.doc_id % 3 <> 2 THEN 0
                             WHEN (d.doc_id // 3) % 4 = 1 THEN 2 + d.doc_id % 3
                             WHEN (d.doc_id // 3) % 4 = 2 THEN 2 + d.doc_id % 6
                             ELSE 0 END AS INTEGER) AS height
            FROM documents d JOIN meta m USING (doc_id)
        """,
        # the exact page bytes rebuilt in SQL (escape -> entity-encode
        # on odd ids -> boilerplate template), then hashed with
        # DuckDB's own sha256 — end-to-end binary-metadata check
        "media_meta_html": """
            WITH page AS (
              SELECT doc_id,
                '<!doctype html><html><head><title>Doc ' || doc_id
                || '</title><style>body{color:#222}</style>'
                || '<script>var x = 1 < 2 && 3 > 2;</script></head>'
                || '<body><nav><ul><li>Home</li><li>Archive</li><li>About</li></ul></nav>'
                || '<article><p>' || body || '</p></article>'
                || '<aside>Related links nobody reads</aside>'
                || '<footer>&copy; 2024 site' || (doc_id % 97)
                || '.example</footer></body></html>' AS html
              FROM (
                SELECT doc_id,
                  CASE WHEN doc_id % 2 = 1 THEN replace(esc, 'e', '&#101;')
                       ELSE esc END AS body
                FROM (
                  SELECT doc_id,
                    replace(replace(replace(text, '&', '&amp;'),
                            '<', '&lt;'), '>', '&gt;') AS esc
                  FROM documents WHERE doc_id % 3 = 1
                )
              )
            )
            SELECT doc_id,
                   'text/html' AS mime,
                   -- octet_length of the UTF-8 encoding: the engine
                   -- reports BINARY byte length, and length(html)
                   -- counts characters (diverges on non-ASCII text);
                   -- sha256(VARCHAR) already hashes the UTF-8 bytes
                   CAST(octet_length(encode(html)) AS BIGINT) AS payload_bytes,
                   sha256(html) AS sha256
            FROM page
        """,
        # IVF variant at nprobe=all is EXHAUSTIVE over the inverted
        # lists, so the brute-force SQL is its exact oracle too (the
        # nprobe < n_centroids pruning knob is exercised in pytest)
        "ann_topk_ivf": """
            SELECT query_id, neighbor_id, rank FROM (
              SELECT q.vec_id AS query_id, c.vec_id AS neighbor_id,
                     CAST(row_number() OVER (
                        PARTITION BY q.vec_id
                        ORDER BY list_cosine_similarity(
                            CAST(q.embedding AS DOUBLE[]),
                            CAST(c.embedding AS DOUBLE[])) DESC,
                        c.vec_id) AS BIGINT) AS rank
              FROM embeddings q, embeddings c
              WHERE q.vec_id < 8 AND c.vec_id >= 8
            ) WHERE rank <= 5
        """,
        "ann_topk": """
            SELECT query_id, neighbor_id, rank FROM (
              SELECT q.vec_id AS query_id, c.vec_id AS neighbor_id,
                     CAST(row_number() OVER (
                        PARTITION BY q.vec_id
                        ORDER BY list_cosine_similarity(
                            CAST(q.embedding AS DOUBLE[]),
                            CAST(c.embedding AS DOUBLE[])) DESC,
                        c.vec_id) AS BIGINT) AS rank
              FROM embeddings q, embeddings c
              WHERE q.vec_id < 8 AND c.vec_id >= 8
            ) WHERE rank <= 5
        """,
        # PII injection rebuilt with || / lpad, then the SAME RE2-safe
        # patterns redacted + counted (pipelines/training.py constants)
        "pii_redact": r"""
            WITH pii AS (
              SELECT doc_id,
                     text || ' contact user' || doc_id || '@mail'
                          || (doc_id % 7) || '.example.com or dial 555-'
                          || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') AS t
              FROM documents
            )
            SELECT doc_id,
                   CAST(len(regexp_extract_all(t,
                        '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                        AS BIGINT) AS n_emails,
                   CAST(len(regexp_extract_all(
                        regexp_replace(t,
                          '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                          '<EMAIL>', 'g'),
                        '\b555-[0-9]{4}\b')) AS BIGINT) AS n_phones,
                   regexp_replace(
                     regexp_replace(t,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                       '<EMAIL>', 'g'),
                     '\b555-[0-9]{4}\b', '<PHONE>', 'g') AS clean_text
            FROM pii
        """,
        # Gopher repetition signals recomputed from scratch: unigram
        # top count and duplicate-bigram mass via unnest + GROUP BY
        "gopher_repetition": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
              FROM documents
            ),
            uni AS (
              SELECT doc_id, MAX(c) AS top_word_n FROM (
                SELECT doc_id, w, COUNT(*) AS c
                FROM (SELECT doc_id, unnest(ts) AS w FROM tok)
                GROUP BY 1, 2
              ) GROUP BY 1
            ),
            big AS (
              SELECT doc_id,
                     SUM(CASE WHEN c >= 2 THEN c ELSE 0 END) AS dup_bigram_n
              FROM (
                SELECT doc_id, b, COUNT(*) AS c
                FROM (
                  SELECT doc_id,
                         unnest(list_transform(
                           generate_series(1, len(ts) - 1),
                           i -> ts[i] || ' ' || ts[i+1])) AS b
                  FROM tok
                ) GROUP BY 1, 2
              ) GROUP BY 1
            )
            SELECT t.doc_id,
                   CAST(len(ts) AS BIGINT) AS n_tokens,
                   CAST(COALESCE(uni.top_word_n, 0) AS BIGINT) AS top_word_n,
                   CAST(CASE WHEN len(ts) >= 2 THEN len(ts) - 1 ELSE 0 END
                        AS BIGINT) AS n_bigrams,
                   CAST(COALESCE(big.dup_bigram_n, 0) AS BIGINT) AS dup_bigram_n
            FROM tok t
            LEFT JOIN uni ON uni.doc_id = t.doc_id
            LEFT JOIN big ON big.doc_id = t.doc_id
        """,
        # the oracle rebuilds the page url then genuinely PARSES it
        "domain_stats": """
            WITH pages AS (
              SELECT 'https://site' || (doc_id % 97) || '.example/p/' || doc_id
                       AS url
              FROM documents
            )
            SELECT split_part(url, '/', 3) AS domain,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(MIN(CAST(split_part(url, '/', 5) AS BIGINT)) AS BIGINT)
                       AS min_doc,
                   CAST(MAX(CAST(split_part(url, '/', 5) AS BIGINT)) AS BIGINT)
                       AS max_doc
            FROM pages GROUP BY 1
        """,
        "stratified_sample": """
            SELECT doc_id, lang FROM documents
            WHERE doc_id % 100 < CASE lang
              WHEN 'en' THEN 50 WHEN 'de' THEN 20 WHEN 'fr' THEN 10
              WHEN 'es' THEN 5 WHEN 'zh' THEN 2 ELSE 0 END
        """,
        # concat-and-chunk packing = exclusive window prefix sum
        "pack_sequences": """
            WITH tok AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+'))
                          AS BIGINT) AS n_tokens
              FROM documents
            ),
            scanned AS (
              SELECT doc_id, n_tokens,
                     CAST(COALESCE(SUM(n_tokens) OVER (
                          ORDER BY doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                        ), 0) AS BIGINT) AS start_tok
              FROM tok
            )
            SELECT doc_id, n_tokens, start_tok,
                   CAST(start_tok // 512 AS BIGINT) AS seq_id
            FROM scanned
        """,
        # composite #2 restated end to end: repetition gate + mixture
        # sample + exclusive-window packing at budget 256
        "training_mix_pipeline": """
            WITH tok AS (
              SELECT doc_id, lang,
                     regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
              FROM documents
            ),
            uni AS (
              SELECT doc_id, MAX(c) AS topw FROM (
                SELECT doc_id, w, COUNT(*) AS c
                FROM (SELECT doc_id, unnest(ts) AS w FROM tok)
                GROUP BY 1, 2
              ) GROUP BY 1
            ),
            big AS (
              SELECT doc_id,
                     SUM(CASE WHEN c >= 2 THEN c ELSE 0 END) AS dupb
              FROM (
                SELECT doc_id, b, COUNT(*) AS c
                FROM (
                  SELECT doc_id,
                         unnest(list_transform(
                           generate_series(1, len(ts) - 1),
                           i -> ts[i] || ' ' || ts[i+1])) AS b
                  FROM tok
                ) GROUP BY 1, 2
              ) GROUP BY 1
            ),
            gated AS (
              SELECT t.doc_id, CAST(len(ts) AS BIGINT) AS n_tokens
              FROM tok t
              LEFT JOIN uni ON uni.doc_id = t.doc_id
              LEFT JOIN big ON big.doc_id = t.doc_id
              WHERE t.doc_id % 100 < CASE t.lang
                      WHEN 'en' THEN 50 WHEN 'de' THEN 20
                      WHEN 'fr' THEN 10 WHEN 'es' THEN 5
                      WHEN 'zh' THEN 2 ELSE 0 END
                AND COALESCE(uni.topw, 0) * 8 <= len(ts)
                AND COALESCE(big.dupb, 0) * 4 <=
                    CASE WHEN len(ts) >= 2 THEN len(ts) - 1 ELSE 0 END
            ),
            scanned AS (
              SELECT doc_id, n_tokens,
                     CAST(COALESCE(SUM(n_tokens) OVER (
                          ORDER BY doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                        ), 0) AS BIGINT) AS start_tok
              FROM gated
            )
            SELECT doc_id, n_tokens, start_tok,
                   CAST(start_tok // 256 AS BIGINT) AS seq_id
            FROM scanned
        """,
        # cross-doc duplicated 8-gram mass rebuilt on the gram STRINGS
        # (the engine shuffles 128-bit gram hashes; identical result
        # absent a blake2b collision)
        "dup_ngram_mass": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
              FROM documents
            ),
            g AS (
              SELECT doc_id,
                     unnest(list_transform(
                       generate_series(1, len(ts) - 7),
                       i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] || ' '
                         || ts[i+3] || ' ' || ts[i+4] || ' ' || ts[i+5] || ' '
                         || ts[i+6] || ' ' || ts[i+7])) AS gram
              FROM tok
            ),
            dup AS (
              SELECT gram FROM g GROUP BY gram
              HAVING COUNT(DISTINCT doc_id) >= 2
            )
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_dup_grams
            FROM g JOIN dup USING (gram) GROUP BY doc_id
        """,
        # contamination = corpus-doc 8-gram positions whose gram also
        # occurs in the eval slice (doc_id % 41 = 0)
        "decontaminate": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
              FROM documents
            ),
            g AS (
              SELECT doc_id,
                     unnest(list_transform(
                       generate_series(1, len(ts) - 7),
                       i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] || ' '
                         || ts[i+3] || ' ' || ts[i+4] || ' ' || ts[i+5] || ' '
                         || ts[i+6] || ' ' || ts[i+7])) AS gram
              FROM tok
            ),
            ev AS (
              SELECT DISTINCT gram FROM g WHERE doc_id % 41 = 0
            ),
            hits AS (
              SELECT doc_id, COUNT(*) AS n
              FROM g JOIN ev USING (gram)
              WHERE doc_id % 41 <> 0
              GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(h.n, 0) AS BIGINT) AS n_contaminated_grams
            FROM documents d LEFT JOIN hits h USING (doc_id)
            WHERE d.doc_id % 41 <> 0
        """,
        "vocab_stats": """
            SELECT w AS word,
                   CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df,
                   CAST(COUNT(*) AS BIGINT) AS tf
            FROM (
              SELECT doc_id, unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS w
              FROM documents
            ) GROUP BY 1
        """,
        "bpe_token_counts": """
            SELECT doc_id,
                   CAST(length(regexp_extract_all(text,
                        ' ?[A-Za-z]+| ?[0-9]+| ?[^ A-Za-z0-9]+')) AS BIGINT)
                       AS n_bpe_tokens
            FROM documents
        """,
        # the reproducible-shuffle key (FNV-1a64 of the doc id string)
        # recomputed in SQL; in-shard position via row_number over the
        # same unsigned-key order (the engine's signed shift is a
        # monotonic remap, so the orders agree)
        "shuffle_assignment": """
            WITH k AS (
              SELECT doc_id, """
        + _FNV64_SQL.replace("<S>", "CAST(doc_id AS VARCHAR)")
        + """ AS key
              FROM documents
            )
            SELECT doc_id,
                   CAST(key % 64 AS BIGINT) AS shard,
                   CAST(row_number() OVER (
                        PARTITION BY key % 64 ORDER BY key, doc_id
                   ) AS BIGINT) AS pos
            FROM k
        """,
        # blocklist = domains site{k}.example with k % 7 = 0
        "blocklist_filter": """
            SELECT doc_id,
                   'site' || (doc_id % 97) || '.example' AS domain
            FROM documents
            WHERE (doc_id % 97) % 7 <> 0
        """,
        # rarity gate: token positions whose corpus-wide tf < 5, over
        # the injected text (same concat the engine applies)
        "rare_token_mass": """
            WITH injected AS (
              SELECT doc_id,
                     text || ' tok' || CAST(doc_id AS VARCHAR)
                          || ' mid' || CAST(doc_id % 50 AS VARCHAR) AS text
              FROM documents
            ),
            toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS w
              FROM injected
            ),
            vocab AS (SELECT w, COUNT(*) AS tf FROM toks GROUP BY 1)
            SELECT t.doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(CASE WHEN v.tf < 5 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_rare
            FROM toks t JOIN vocab v USING (w)
            GROUP BY 1
        """,
        # cross-doc line dedup over the injected 4-line docs: a line in
        # >= 3 distinct docs is boilerplate and dropped everywhere
        "line_dedup": """
            WITH injected AS (
              SELECT doc_id,
                     text
                       || chr(10) || 'footer ' || CAST(doc_id % 7 AS VARCHAR)
                       || chr(10) || 'banner ' || CAST(doc_id % 3 AS VARCHAR)
                       || chr(10) || 'sig ' || CAST(doc_id AS VARCHAR) AS text
              FROM documents
            ),
            lines AS (
              SELECT doc_id,
                     unnest(string_split(text, chr(10))) AS line,
                     unnest(range(1, length(string_split(text, chr(10))) + 1))
                         AS ord
              FROM injected
            ),
            boiler AS (
              SELECT line FROM lines GROUP BY 1
              HAVING COUNT(DISTINCT doc_id) >= 3
            )
            SELECT l.doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_lines,
                   CAST(SUM(CASE WHEN b.line IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_kept,
                   COALESCE(string_agg(
                       CASE WHEN b.line IS NULL THEN l.line END,
                       chr(10) ORDER BY l.ord), '') AS text_clean
            FROM lines l LEFT JOIN boiler b ON l.line = b.line
            GROUP BY 1
        """,
        # frame sampling over engine-encoded animated GIFs: the stage
        # does a real encode->decode roundtrip; the oracle restates the
        # per-frame pixel sum of the known 8x8 grid (7d+13f+p) % 251 in
        # closed form (the 64-pixel run wraps mod 251 at most once)
        "gif_frame_sample": """
            WITH f AS (
              SELECT doc_id, 2 + doc_id % 4 AS n_frames,
                     unnest([0, 2, 4]) AS frame_idx
              FROM documents
            ),
            s AS (
              SELECT doc_id, n_frames, frame_idx,
                     (doc_id * 7 + frame_idx * 13) % 251 AS a
              FROM f WHERE frame_idx < n_frames
            )
            SELECT doc_id,
                   CAST(frame_idx AS BIGINT) AS frame_idx,
                   CAST(n_frames AS BIGINT) AS n_frames,
                   CAST(64 * a + 2016 - 251 * GREATEST(0, a + 63 - 250)
                        AS BIGINT) AS sum_pixels
            FROM s
        """,
        # integer-exact tf-idf surrogate: score = tf * 10^12 // df
        # (truncating division on both sides), ties by word; top-3
        # terms per document via a window
        "tfidf_top_terms": """
            WITH tf AS (
              SELECT doc_id, w AS word, COUNT(*) AS tf
              FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS w
                FROM documents
              ) GROUP BY 1, 2
            ),
            df AS (SELECT word, COUNT(*) AS df FROM tf GROUP BY 1),
            s AS (
              SELECT doc_id, word, tf, df,
                     tf::HUGEINT * 1000000000000::HUGEINT // df AS score
              FROM tf JOIN df USING (word)
            ),
            r AS (
              SELECT *, row_number() OVER (
                       PARTITION BY doc_id
                       ORDER BY score DESC, word ASC) AS rn
              FROM s
            )
            SELECT doc_id, word,
                   CAST(tf AS BIGINT) AS tf,
                   CAST(df AS BIGINT) AS df,
                   CAST(score AS BIGINT) AS score_scaled,
                   CAST(rn AS BIGINT) AS rank
            FROM r WHERE rn <= 3
        """,
        # KMV distinct-count sketch restated exactly: FNV-1a64 per
        # distinct (lang, token), k smallest per lang via row_number,
        # integer estimator (k-1)*2^64 / kth in HUGEINT (truncating
        # division on both sides; exact count when fewer than k)
        "kmv_distinct_tokens": """
            WITH tok AS (
              SELECT lang,
                     unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS w
              FROM documents
            ),
            dw AS (SELECT DISTINCT lang, w FROM tok),
            h AS (
              SELECT DISTINCT lang, """
        + _FNV64_SQL.replace("<S>", "w")
        + """ AS hv
              FROM dw
            ),
            r AS (
              SELECT lang, hv,
                     row_number() OVER (PARTITION BY lang ORDER BY hv) AS rn
              FROM h
            ),
            top AS (SELECT lang, hv FROM r WHERE rn <= 128)
            SELECT lang,
                   CAST(128 AS BIGINT) AS k,
                   CAST(COUNT(*) AS BIGINT) AS n_kept,
                   CAST(MAX(hv) - 9223372036854775808::HUGEINT AS BIGINT)
                       AS kth_hash_signed,
                   CAST(CASE WHEN COUNT(*) < 128 THEN COUNT(*)
                             ELSE LEAST(
                               127::HUGEINT * 18446744073709551616::HUGEINT
                                 // MAX(hv),
                               9223372036854775807::HUGEINT)
                        END AS BIGINT) AS est_distinct
            FROM top GROUP BY lang
        """,
        # NFC + whitespace collapse over the injected non-ASCII suffix;
        # DuckDB nfc_normalize and Arrow utf8_normalize are both
        # Unicode-standard NFC, so the comparison is byte-exact
        "normalize_text": """
            WITH injected AS (
              SELECT doc_id,
                     text || '  cafe' || chr(769) || chr(9) || ' x'
                          || CAST(doc_id % 10 AS VARCHAR) AS inj
              FROM documents
            ),
            cleaned AS (
              SELECT doc_id, inj,
                     trim(regexp_replace(nfc_normalize(inj),
                          '[ \t]+', ' ', 'g'), ' ') AS clean
              FROM injected
            )
            SELECT doc_id,
                   CAST(length(inj) AS BIGINT) AS n_chars_raw,
                   CAST(length(clean) AS BIGINT) AS n_chars_norm,
                   clean AS text_norm
            FROM cleaned
        """,
        # MLE bigram LM trained on the corpus, integer-exact per-doc
        # score: sum over bigram positions of (c(w1 w2)*1e6) // c(w1 .)
        "bigram_lm_score": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
              FROM documents
            ),
            b AS (
              SELECT doc_id,
                     unnest(list_transform(
                       generate_series(1, len(ts) - 1),
                       i -> ts[i] || ' ' || ts[i+1])) AS gram
              FROM tok
            ),
            bs AS (
              SELECT doc_id, split_part(gram, ' ', 1) AS w1,
                     split_part(gram, ' ', 2) AS w2
              FROM b
            ),
            counts AS (
              SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS c
              FROM bs GROUP BY 1, 2
            ),
            prefix AS (
              SELECT w1, CAST(SUM(c) AS BIGINT) AS p
              FROM counts GROUP BY 1
            ),
            scored AS (
              SELECT bs.doc_id,
                     CAST((counts.c * 1000000) // prefix.p AS BIGINT) AS s
              FROM bs
              JOIN counts USING (w1, w2)
              JOIN prefix USING (w1)
            ),
            per_doc AS (
              SELECT doc_id, CAST(SUM(s) AS BIGINT) AS total
              FROM scored GROUP BY 1
            )
            SELECT t.doc_id,
                   CAST(CASE WHEN len(ts) >= 2 THEN len(ts) - 1 ELSE 0 END
                        AS BIGINT) AS n_bigrams,
                   CAST(COALESCE(pd.total, 0) AS BIGINT) AS lm_score_scaled
            FROM tok t LEFT JOIN per_doc pd USING (doc_id)
        """,
        # the bloom prefilter is exact-verified by the hash join, so
        # the oracle is a plain semi-join
        "bloom_semi_join": """
            SELECT l_returnflag,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS revenue_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM lineitem
            WHERE l_orderkey IN (
              SELECT o_orderkey FROM orders
              WHERE o_orderpriority = '1-URGENT'
            )
            GROUP BY 1
        """,
        # the engine reads its own JSONL export of events; doubles
        # round-trip exactly, so the parquet-side aggregate matches
        "events_jsonl_agg": """
            SELECT event_type,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents,
                   CAST(MIN(event_id) AS BIGINT) AS min_event_id,
                   CAST(MAX(event_id) AS BIGINT) AS max_event_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events
            GROUP BY 1
        """,
        # both audio payload families are deterministic, so the oracle
        # restates the whole encode->decode roundtrip in closed form:
        # WAV rows (doc_id % 4 <> 3): interleaved sample t of doc d is
        # ((d*31 + t*17) % 65536) - 32768; MP3 rows (doc_id % 4 = 3):
        # nf frames of 1152 samples, frame length 144*br*1000//rate
        # (+1 padding byte on odd frames -> nf//2 extra bytes total)
        "audio_meta": """
            WITH wav AS (
              SELECT doc_id,
                     8000 + (doc_id % 3) * 4000 AS rate,
                     1 + doc_id % 2 AS ch,
                     64 + doc_id % 64 AS nf
              FROM documents WHERE doc_id % 4 <> 3
            ),
            s AS (
              SELECT doc_id, rate, ch, nf,
                     unnest(generate_series(0, nf * ch - 1)) AS t
              FROM wav
            ),
            v AS (
              SELECT doc_id, rate, ch, nf,
                     ((doc_id * 31 + t * 17) % 65536) - 32768 AS val
              FROM s
            ),
            wav_rows AS (
              SELECT doc_id,
                     CAST(rate AS BIGINT) AS sample_rate,
                     CAST(ch AS BIGINT) AS n_channels,
                     CAST(nf AS BIGINT) AS n_frames,
                     CAST(nf * 1000 // rate AS BIGINT) AS duration_ms,
                     CAST(SUM(ABS(val)) AS BIGINT) AS sum_abs
              FROM v
              GROUP BY 1, 2, 3, 4, 5
            ),
            mp3 AS (
              SELECT doc_id,
                     CASE doc_id % 3 WHEN 0 THEN 44100
                                     WHEN 1 THEN 48000
                                     ELSE 32000 END AS rate,
                     1 + doc_id % 2 AS ch,
                     16 + doc_id % 32 AS nf,
                     CASE (doc_id // 3) % 4 WHEN 0 THEN 96
                                            WHEN 1 THEN 128
                                            WHEN 2 THEN 160
                                            ELSE 192 END AS br
              FROM documents WHERE doc_id % 4 = 3
            ),
            mp3_rows AS (
              SELECT doc_id,
                     CAST(rate AS BIGINT) AS sample_rate,
                     CAST(ch AS BIGINT) AS n_channels,
                     CAST(nf AS BIGINT) AS n_frames,
                     CAST(nf * 1152 * 1000 // rate AS BIGINT) AS duration_ms,
                     CAST(nf * (144 * br * 1000 // rate) + nf // 2
                          AS BIGINT) AS sum_abs
              FROM mp3
            )
            SELECT * FROM wav_rows UNION ALL SELECT * FROM mp3_rows
        """,
        # MPEG version/layer matrix: every parameter is doc_id
        # arithmetic and the bitrates {32,64,96,128,160} exist in all
        # five ISO tables, so the oracle needs no table lookups. The
        # frame-length/padding/samples-per-frame formulas restate ISO
        # 11172-3 / 13818-3 exactly as pdfcore/mp3.py implements them.
        "audio_meta_ext": """
            WITH p AS (
              SELECT doc_id,
                     doc_id % 3 AS vi,
                     1 + (doc_id // 3) % 3 AS layer,
                     (doc_id // 9) % 3 AS ri,
                     1 + doc_id % 2 AS ch,
                     8 + doc_id % 16 AS nf,
                     CASE (doc_id // 2) % 5 WHEN 0 THEN 32 WHEN 1 THEN 64
                          WHEN 2 THEN 96 WHEN 3 THEN 128 ELSE 160 END AS br
              FROM documents
            ),
            q AS (
              SELECT *,
                     CASE vi WHEN 0 THEN '1' WHEN 1 THEN '2' ELSE '2.5' END
                       AS mpeg_version,
                     CASE vi
                       WHEN 0 THEN CASE ri WHEN 0 THEN 44100 WHEN 1 THEN 48000 ELSE 32000 END
                       WHEN 1 THEN CASE ri WHEN 0 THEN 22050 WHEN 1 THEN 24000 ELSE 16000 END
                       ELSE CASE ri WHEN 0 THEN 11025 WHEN 1 THEN 12000 ELSE 8000 END
                     END AS rate,
                     CASE layer WHEN 1 THEN 384 WHEN 2 THEN 1152
                          ELSE CASE vi WHEN 0 THEN 1152 ELSE 576 END END AS spf
              FROM p
            ),
            r AS (
              SELECT *,
                     CASE layer
                       WHEN 1 THEN (12 * br * 1000 // rate) * 4
                       WHEN 2 THEN 144 * br * 1000 // rate
                       ELSE (CASE vi WHEN 0 THEN 144 ELSE 72 END) * br * 1000 // rate
                     END AS base,
                     CASE layer WHEN 1 THEN 4 ELSE 1 END AS pad_unit
              FROM q
            )
            SELECT doc_id,
                   mpeg_version,
                   CAST(layer AS BIGINT) AS layer,
                   CAST(rate AS BIGINT) AS sample_rate,
                   CAST(ch AS BIGINT) AS n_channels,
                   CAST(nf AS BIGINT) AS n_frames,
                   CAST(nf * spf * 1000 // rate AS BIGINT) AS duration_ms,
                   CAST(nf * base + (nf // 2) * pad_unit AS BIGINT) AS stream_bytes
            FROM r
        """,
        # encrypted-PDF roundtrip: the pipeline output must be byte-
        # identical to the source text regardless of handler profile
        "extract_encrypted_text": """
            SELECT doc_id,
                   text,
                   CASE doc_id % 3 WHEN 0 THEN 'rc4-40'
                                   WHEN 1 THEN 'rc4-128'
                                   ELSE 'aesv2' END AS enc_mode
            FROM documents
        """,
        # CCITT G3/G4 bilevel images decoded through the PDF image
        # path; black count + position-weighted bit checksum restated
        # as doc_id arithmetic
        "pdf_ccitt_image_stats": """
            WITH dims AS (
              SELECT doc_id,
                     4 + doc_id % 12 AS w,
                     3 + doc_id % 9 AS h,
                     CASE doc_id % 2 WHEN 0 THEN -1 ELSE 0 END AS k
              FROM documents
            ),
            px AS (
              SELECT doc_id, w, h, k,
                     unnest(generate_series(0, w * h - 1)) AS i
              FROM dims
            ),
            b AS (
              SELECT doc_id, w, h, k, i,
                     CASE WHEN (doc_id * 3 + i * 7) % 5 = 0 THEN 0 ELSE 1 END AS bit
              FROM px
            )
            SELECT doc_id,
                   CAST(w AS BIGINT) AS width,
                   CAST(h AS BIGINT) AS height,
                   CAST(k AS BIGINT) AS ccitt_k,
                   CAST(SUM(1 - bit) AS BIGINT) AS n_black,
                   CAST(SUM((i + 1) * bit) AS BIGINT) AS px_wsum
            FROM b
            GROUP BY doc_id, w, h, k
        """,
        # interlaced GIF: position-weighted pixel checksum (order-
        # sensitive — a wrong de-interlace row order changes it)
        "gif_interlaced_meta": """
            WITH dims AS (
              SELECT doc_id,
                     8 + doc_id % 8 AS w,
                     8 + doc_id % 16 AS h
              FROM documents
            ),
            px AS (
              SELECT doc_id, w, h,
                     unnest(generate_series(0, w * h - 1)) AS p
              FROM dims
            )
            SELECT doc_id,
                   CAST(w AS BIGINT) AS width,
                   CAST(h AS BIGINT) AS height,
                   CAST(SUM((p + 1) * ((7 * doc_id + 13 * p) % 256)) AS BIGINT)
                     AS px_wsum
            FROM px
            GROUP BY doc_id, w, h
        """,
        # exact-substring span removal: dup 8-gram sites merged into
        # maximal spans via gaps-and-islands windows
        "dup_span_removal": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
              FROM documents
            ),
            gpos AS (
              SELECT doc_id,
                     unnest(generate_series(1, len(ts) - 7)) AS pos,
                     unnest(list_transform(
                       generate_series(1, len(ts) - 7),
                       i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] || ' '
                         || ts[i+3] || ' ' || ts[i+4] || ' ' || ts[i+5] || ' '
                         || ts[i+6] || ' ' || ts[i+7])) AS gram
              FROM tok
            ),
            dup AS (
              SELECT gram FROM gpos GROUP BY gram
              HAVING COUNT(DISTINCT doc_id) >= 2
            ),
            p AS (SELECT doc_id, pos FROM gpos JOIN dup USING (gram)),
            m AS (
              SELECT doc_id, pos,
                     CASE WHEN pos - lag(pos) OVER (
                            PARTITION BY doc_id ORDER BY pos) <= 8
                          THEN 0 ELSE 1 END AS new_span
              FROM p
            ),
            isl AS (
              SELECT doc_id, pos,
                     SUM(new_span) OVER (
                       PARTITION BY doc_id ORDER BY pos
                       ROWS UNBOUNDED PRECEDING) AS span_id
              FROM m
            ),
            spans AS (
              SELECT doc_id, span_id, COUNT(*) AS k,
                     MIN(pos) AS s, MAX(pos) + 7 AS e
              FROM isl GROUP BY 1, 2
            )
            SELECT doc_id,
                   CAST(SUM(k) AS BIGINT) AS n_dup_positions,
                   CAST(COUNT(*) AS BIGINT) AS n_spans,
                   CAST(SUM(e - s + 1) AS BIGINT) AS n_removed_tokens
            FROM spans GROUP BY 1
        """,
        "events_lag_delta": """
            SELECT event_id, user_id,
                   CAST(COALESCE(
                     epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id),
                     -1) AS BIGINT) AS prev_gap_us
            FROM events
        """,
        "customers_no_orders": """
            SELECT c_mktsegment,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   CAST(SUM(CASE WHEN NOT EXISTS (
                          SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey)
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_without_orders
            FROM customer c
            GROUP BY 1
        """,
        "lang_source_pivot": """
            SELECT source,
                   CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_en,
                   CAST(SUM(CASE WHEN lang = 'de' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_de,
                   CAST(SUM(CASE WHEN lang = 'fr' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_fr,
                   CAST(SUM(CASE WHEN lang = 'es' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_es,
                   CAST(SUM(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_zh
            FROM documents
            GROUP BY 1
        """,
        # integer-exact PageRank, 3 synchronous iterations unrolled
        # (damping 85/100, rank scaled 1e6, truncating // on both sides)
        "link_pagerank": """
            WITH nn AS (SELECT COUNT(*) AS N FROM documents),
            nodes AS (SELECT doc_id AS v FROM documents),
            edges AS (
              SELECT doc_id AS src, (doc_id * 7 + 1) % (SELECT N FROM nn) AS dst
              FROM documents
              UNION ALL
              SELECT doc_id, (doc_id * 13 + 2) % (SELECT N FROM nn)
              FROM documents
            ),
            r0 AS (SELECT v, CAST(1000000 AS BIGINT) AS r FROM nodes),
            r1 AS (
              SELECT nodes.v,
                     CAST(150000 + 85 * COALESCE(t.s, 0) // 100 AS BIGINT) AS r
              FROM nodes LEFT JOIN (
                SELECT dst, SUM(r // 2) AS s
                FROM edges JOIN r0 ON r0.v = edges.src GROUP BY 1
              ) t ON t.dst = nodes.v
            ),
            r2 AS (
              SELECT nodes.v,
                     CAST(150000 + 85 * COALESCE(t.s, 0) // 100 AS BIGINT) AS r
              FROM nodes LEFT JOIN (
                SELECT dst, SUM(r // 2) AS s
                FROM edges JOIN r1 ON r1.v = edges.src GROUP BY 1
              ) t ON t.dst = nodes.v
            ),
            r3 AS (
              SELECT nodes.v,
                     CAST(150000 + 85 * COALESCE(t.s, 0) // 100 AS BIGINT) AS r
              FROM nodes LEFT JOIN (
                SELECT dst, SUM(r // 2) AS s
                FROM edges JOIN r2 ON r2.v = edges.src GROUP BY 1
              ) t ON t.dst = nodes.v
            )
            SELECT v AS doc_id, r AS rank_scaled FROM r3
        """,
        # nearest seed centroid by cosine, ties toward lower cid —
        # integer-only output like ann_topk
        "embedding_clusters": """
            SELECT vec_id, cluster_id FROM (
              SELECT e.vec_id, c.vec_id AS cluster_id,
                     row_number() OVER (
                       PARTITION BY e.vec_id
                       ORDER BY list_cosine_similarity(
                           CAST(e.embedding AS DOUBLE[]),
                           CAST(c.embedding AS DOUBLE[])) DESC,
                       c.vec_id) AS rk
              FROM embeddings e, embeddings c
              WHERE c.vec_id >= 8 AND c.vec_id < 24
            ) WHERE rk = 1
        """,
        # integer cents are cast before the CSV export, so the re-read
        # aggregate matches the parquet side exactly
        "events_csv_agg": """
            SELECT event_type,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents,
                   CAST(MIN(event_id) AS BIGINT) AS min_event_id,
                   CAST(MAX(event_id) AS BIGINT) AS max_event_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events
            GROUP BY 1
        """,
        "events_rolling_sum": """
            SELECT event_id,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                   AS BIGINT) AS rolling_cents
            FROM events
        """,
        # the three-format federated union must equal the whole-table
        # aggregate
        "events_federated_agg": """
            SELECT event_type,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events
            GROUP BY 1
        """,
        "high_value_orders": """
            SELECT o_orderpriority,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS revenue_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders
            WHERE o_totalprice > 300000 AND o_orderstatus = 'O'
            GROUP BY 1
        """,
        # COMPOSITE #3 restated end to end: chrome lines rebuilt with
        # ||, boilerplate df via COUNT(DISTINCT doc_id), cleaning via
        # ordered string_agg, dedup via GROUP BY cleaned text
        "boilerplate_dedup_pipeline": """
            WITH l AS (
              SELECT doc_id, 1 AS ord, text AS line FROM documents
              UNION ALL
              SELECT doc_id, 2, 'footer ' || (doc_id % 7) FROM documents
              UNION ALL
              SELECT doc_id, 3, 'banner ' || (doc_id % 3) FROM documents
            ),
            df AS (
              SELECT line, COUNT(DISTINCT doc_id) AS n FROM l GROUP BY 1
            ),
            kept AS (
              SELECT l.doc_id, l.ord, l.line
              FROM l JOIN df USING (line) WHERE df.n < 3
            ),
            cleaned AS (
              SELECT d.doc_id,
                     COALESCE(string_agg(k.line, chr(10) ORDER BY k.ord),
                              '') AS ctext
              FROM documents d LEFT JOIN kept k USING (doc_id)
              GROUP BY d.doc_id
            ),
            groups AS (
              SELECT ctext, MIN(doc_id) AS keeper, COUNT(*) AS sz
              FROM cleaned GROUP BY 1
            )
            SELECT c.doc_id,
                   CAST(CASE WHEN c.doc_id = g.keeper THEN 1 ELSE 0 END
                        AS BIGINT) AS is_canonical,
                   CAST(g.sz AS BIGINT) AS dup_group_size
            FROM cleaned c JOIN groups g USING (ctext)
        """,
        # GROUP BY ROLLUP with the engine's '' marker for rolled levels
        "doc_rollup": """
            SELECT COALESCE(lang, '') AS lang,
                   COALESCE(source, '') AS source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars
            FROM documents
            GROUP BY ROLLUP (lang, source)
        """,
        # the messy variant is rebuilt with ||, then the SAME
        # canonicalization steps are restated in SQL string functions
        "url_canonicalize": """
            WITH raw AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 2 = 0
                       THEN 'https://site' || (doc_id % 97)
                            || '.example/p/' || doc_id
                       ELSE 'HTTPS://Site' || (doc_id % 97)
                            || '.EXAMPLE:443/p/' || doc_id
                            || '/?utm_source=feed&ref=' || (doc_id % 5)
                     END AS url
              FROM documents
            ),
            s1 AS (
              SELECT doc_id, regexp_replace(url, '\\?.*$', '') AS u FROM raw
            ),
            s2 AS (
              SELECT doc_id,
                     lower(regexp_extract(u, '^[A-Za-z]+://[^/]*'))
                       || substr(u,
                            len(regexp_extract(u, '^[A-Za-z]+://[^/]*')) + 1)
                       AS u
              FROM s1
            ),
            s3 AS (SELECT doc_id, replace(u, ':443/', '/') AS u FROM s2),
            s4 AS (SELECT doc_id, rtrim(u, '/') AS u FROM s3)
            SELECT s4.doc_id, s4.u AS url_canon,
                   CAST(s4.doc_id % 2 AS BIGINT) AS was_messy,
                   CAST(CASE WHEN s4.u = 'https://site' || (s4.doc_id % 97)
                               || '.example/p/' || s4.doc_id
                        THEN 1 ELSE 0 END AS BIGINT) AS roundtrip_ok
            FROM s4
        """,
        # same fixed-width histogram the engine merges: bin = n_chars
        # // 64, rank = integer ceil (q*n+99)//100, answer = first
        # bin with cum >= rank, reported as its inclusive upper edge
        "quantile_sketch": """
            WITH h AS (
              SELECT lang, n_chars // 64 AS bin, COUNT(*) AS cnt
              FROM documents GROUP BY 1, 2
            ),
            c AS (
              SELECT lang, bin,
                     SUM(cnt) OVER (PARTITION BY lang ORDER BY bin) AS cum,
                     SUM(cnt) OVER (PARTITION BY lang) AS n
              FROM h
            )
            SELECT lang, CAST(50 AS BIGINT) AS q_pct,
                   CAST(MIN(n) AS BIGINT) AS n,
                   CAST(MIN(bin) * 64 + 63 AS BIGINT) AS est_hi
            FROM c WHERE cum >= (50 * n + 99) // 100 GROUP BY lang
            UNION ALL
            SELECT lang, CAST(90 AS BIGINT) AS q_pct,
                   CAST(MIN(n) AS BIGINT) AS n,
                   CAST(MIN(bin) * 64 + 63 AS BIGINT) AS est_hi
            FROM c WHERE cum >= (90 * n + 99) // 100 GROUP BY lang
        """,
        # hash-rank bottom-k: the k smallest FNV-1a64(doc_id) per lang
        "bottomk_sample_per_lang": """
            WITH k AS (
              SELECT lang, doc_id, """
        + _FNV64_SQL.replace("<S>", "CAST(doc_id AS VARCHAR)")
        + """ AS key
              FROM documents
            ),
            r AS (
              SELECT lang, doc_id,
                     row_number() OVER (
                        PARTITION BY lang ORDER BY key, doc_id
                     ) AS rank
              FROM k
            )
            SELECT lang, CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(rank AS BIGINT) AS rank
            FROM r WHERE rank <= 16
        """,
        # exact containing-doc count + first-20 ascending posting
        # prefix per query term (token membership, not substring)
        "term_postings": """
            WITH m AS (
              SELECT t.term, d.doc_id
              FROM documents d
              CROSS JOIN (
                SELECT unnest(['vector', 'spark', 'hash', 'window']) AS term
              ) t
              WHERE list_contains(
                      regexp_extract_all(d.text, '[A-Za-z0-9]+'), t.term)
            )
            SELECT term, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   array_to_string(
                     list_transform(
                       list_sort(list(doc_id))[1:20],
                       x -> CAST(x AS VARCHAR)),
                     ',') AS postings
            FROM m GROUP BY term
        """,
        # the same integer dot product over the quality features
        # (weights 1, 20, 50, -30; threshold 2000)
        "quality_classifier_score": r"""
            WITH f AS (
              SELECT doc_id,
                     length(text) AS n_chars_calc,
                     length(regexp_extract_all(text, '[A-Za-z0-9]+'))
                       AS n_tokens,
                     length(list_filter(
                       regexp_extract_all(text, '[A-Za-z0-9]+'),
                       x -> x IN ('the','and','of','a','to','in')))
                       AS n_stopwords,
                     length(regexp_extract_all(text, '[^\w\s]')) AS n_punct
              FROM documents
            )
            SELECT doc_id,
                   CAST(n_chars_calc + 20 * n_tokens + 50 * n_stopwords
                        - 30 * n_punct AS BIGINT) AS score,
                   CAST(CASE WHEN n_chars_calc + 20 * n_tokens
                                  + 50 * n_stopwords - 30 * n_punct >= 2000
                             THEN 1 ELSE 0 END AS BIGINT) AS kept
            FROM f
        """,
        # same synth re-crawls as url_dedup plus a 72h next-window
        # re-crawl for every 11th doc; keep latest per (doc, 48h window)
        "url_dedup_windowed": """
            WITH base AS (
              SELECT doc_id,
                     1704067200000000 + doc_id * 1000000 AS ts
              FROM documents
            ),
            crawls AS (
              SELECT doc_id, ts FROM base
              UNION ALL
              SELECT doc_id,
                     LEAST(ts + 3600000000,
                           (ts // 172800000000 + 1) * 172800000000 - 1)
              FROM base WHERE doc_id % 7 = 0
              UNION ALL
              SELECT doc_id, ts + 259200000000 FROM base WHERE doc_id % 11 = 0
            )
            SELECT doc_id,
                   CAST(ts // 172800000000 AS BIGINT) AS window_id,
                   CAST(MAX(ts) AS BIGINT) AS ts_us
            FROM crawls GROUP BY doc_id, ts // 172800000000
        """,
    }
