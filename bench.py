"""Benchmark harness (driver contract).

Headline: end-to-end extraction pipeline (synthetic pages table ->
route -> actor-pool extract -> write_parquet) over $GRAFT_SF_DIR
(default /root/testdata/sf0.1), tiled GRAFT_REPEAT x so the timed
region is compute-bound rather than startup-bound. Plus per-query
timings for representative operators.

Prints one ``<query>\t<sec>`` line per query timing, then ends in ONE
short JSON line, the headline:
  {"metric": "...", "value": <best sec>, "unit": "sec", "all_sec": [...],
   "spread": ..., "host_cpus": N, "ray_version": "...", "genver": "...", ...}

``--scaling``: runs the headline in fresh processes at N=2 and 4N=8
extract workers (``GRAFT_SCALE_LO`` / ``GRAFT_SCALE_HI``) on the SAME
input and reports both throughputs + scaling efficiency (sandbox
stand-in for the N vs 4N node criterion, BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
REPEAT = int(os.environ.get("GRAFT_REPEAT", "20"))

BENCH_QUERIES = (
    "curation_pipeline",
    "lineitem_agg",
    "events_hourly",
    "sessions_per_user",
    "orders_by_nation",
    "token_counts",
    "quality_scores",
    "exact_dedup_text",
    "minhash_near_pairs",
    "ngram_jaccard_pairs",
    "simhash_pairs",
    "html_main_content",
    "pdf_image_stats",
    "media_meta",
    "embedding_dup_pairs",
    "embedding_dup_pairs_lsh",
    "ann_topk",
    "ann_topk_ivf",
    "events_asof_join",
    "doc_size_ranges",
    "top_docs_per_lang",
    "chars_quantiles",
    "pii_redact",
    "gopher_repetition",
    "domain_stats",
    "pack_sequences",
    "dup_ngram_mass",
    "vocab_stats",
    "training_mix_pipeline",
    "decontaminate",
    "rare_token_mass",
    "line_dedup",
    "tfidf_top_terms",
    "bigram_lm_score",
    "dup_span_removal",
    "bloom_semi_join",
    "audio_meta",
    "gif_frame_sample",
    "events_jsonl_agg",
    "events_lag_delta",
    "customers_no_orders",
    "lang_source_pivot",
    "link_pagerank",
    "embedding_clusters",
    "events_csv_agg",
    "events_rolling_sum",
    "events_federated_agg",
    "high_value_orders",
    "boilerplate_dedup_pipeline",
    "doc_rollup",
    "url_canonicalize",
    "quantile_sketch",
    "bottomk_sample_per_lang",
    "term_postings",
    "near_dedup_survivors",
    "quality_classifier_score",
    "url_dedup_windowed",
    "semantic_dedup",
    "heavy_hitters",
    "cms_token_counts",
    "events_interval_join",
    "hll_distinct_shingles",
    "shingle_set_ops",
    "revenue_by_priority",
    "funnel_counts",
    "distinct_users_salted",
    "orders_cdc_upsert",
    "doc_chunks",
    "doc_global_rank",
    "snapshot_diff",
    "image_resize_thumbs",
    "html_outlinks",
    "charset_detect",
    "temperature_sample",
    "embedding_quantize",
)


def _init_ray():
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = False


def run_headline(pool: int | None = None) -> dict:
    """The timed extraction job; Ray must already be initialised.

    ``pool`` pins the extract actor-pool size (fixed); default is the
    engine's own pool (``extract_pipeline.actor_pool``), sized from the
    Ray CPU claim with headroom for the read/route/write stages.
    """
    import ray
    import ray.data

    from pdf_parser_ray.pipelines.extract_pipeline import actor_pool, build_extract_ds
    from pdf_parser_ray.sources.synth import build_pages_table

    # untimed: build/warm the tiled pages cache + one warm read
    pages_path = build_pages_table(SF_DIR, repeat=REPEAT)
    n_docs = ray.data.read_parquet(pages_path).count()

    out_dir = f"/tmp/bench_out/extract_{NUM_CPUS}"
    shutil.rmtree(out_dir, ignore_errors=True)

    pinned = None if pool is None else (pool, pool)

    from pdf_parser_ray.sources.synth import PIPELINE_COLUMNS

    # noisy-neighbor host (BASELINE.md): time the job GRAFT_BENCH_REPS
    # times and report the best, with all raw times alongside
    reps = int(os.environ.get("GRAFT_BENCH_REPS", "2"))
    times = []
    for _ in range(max(1, reps)):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.monotonic()
        ds = build_extract_ds(
            ray.data.read_parquet(pages_path, columns=PIPELINE_COLUMNS),
            concurrency=pinned,
            batch_size=128,
        )
        ds.write_parquet(out_dir)
        times.append(time.monotonic() - t0)
    from pdf_parser_ray.sources.synth import GENVER

    sec = min(times)
    return {
        "value": round(sec, 3),
        "unit": "sec",
        "docs": n_docs,
        "docs_per_sec": round(n_docs / sec, 1),
        "best_of": len(times),
        "all_sec": [round(t, 3) for t in times],
        "spread": round((max(times) - sec) / sec, 3),
        "host_cpus": len(os.sched_getaffinity(0)),
        "num_cpus": NUM_CPUS,
        "ray_version": ray.__version__,
        "genver": GENVER,
        "pool": pinned or actor_pool()["concurrency"],
    }


def run_bench() -> dict:
    """Time the headline, print one line per query timing, and return
    the headline (the caller prints it last)."""
    import ray

    _init_ray()
    headline = run_headline()

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    for name in BENCH_QUERIES:
        t0 = time.monotonic()
        result = qs[name](SF_DIR)
        if hasattr(result, "to_pandas"):
            result.to_pandas()
        print(f"{name}\t{time.monotonic() - t0:.3f}", flush=True)

    ray.shutdown()
    return {
        "metric": "extraction pipeline wall time (synthetic CC pages, tiled)",
        **headline,
        "sf": SF_DIR,
        "repeat": REPEAT,
    }


def run_scaling() -> dict:
    """Same headline job in fresh processes at N and 4N extraction
    workers (default 2 -> 8) on the SAME tiled input.

    N=2/4N=8 rather than 8/32: a 32-way claim on a shared host measures
    host oversubscription, not the engine. Both levels should fit real
    capacity with margin, which is what the N vs 4N *node* criterion
    stands in for. ray.init gets 2x workers CPUs: the read/route/write
    stages must scale WITH the extract pool (a fixed sink allocation
    becomes the bottleneck at the high level and measures nothing).
    """

    def one(workers: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(2 * workers),
            GRAFT_BENCH_HEADLINE_ONLY="1",
            GRAFT_POOL=str(workers),
            GRAFT_REPEAT=os.environ.get("GRAFT_SCALING_REPEAT", "100"),
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = int(os.environ.get("GRAFT_SCALE_LO", "2")), int(
        os.environ.get("GRAFT_SCALE_HI", "8")
    )
    reps = int(os.environ.get("GRAFT_SCALE_REPS", "3"))
    # the sandbox host has noisy neighbors: interleave the two levels
    # and take the best of `reps` runs each, so a load spike during one
    # level doesn't masquerade as (anti-)scaling
    runs_lo, runs_hi = [], []
    for _ in range(reps):
        runs_lo.append(one(lo))
        runs_hi.append(one(hi))
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    # evidence-hygiene gate (round-4 verdict): a reading only counts as
    # RECORDABLE when the high level's spread across its reps is < 25%
    # — a wider spread means the host was throttling mid-measurement
    # and the ratio measures noise, not the engine. Re-run instead of
    # recording an unstable reading.
    all_lo = [r["value"] for r in runs_lo]
    all_hi = [r["value"] for r in runs_hi]
    spread_hi = (max(all_hi) - min(all_hi)) / min(all_hi)
    return {
        "metric": f"scaling efficiency ({lo} -> {hi} extract workers, same input)",
        "value": round(eff, 3),
        "unit": "efficiency",
        f"sec_{lo}": r_lo["value"],
        f"sec_{hi}": r_hi["value"],
        f"docs_per_sec_{lo}": r_lo["docs_per_sec"],
        f"docs_per_sec_{hi}": r_hi["docs_per_sec"],
        f"all_sec_{lo}": all_lo,
        f"all_sec_{hi}": all_hi,
        "spread_hi": round(spread_hi, 3),
        "stable": spread_hi < 0.25,
        "docs": r_hi["docs"],
        "gate": 0.8,
        "pass": eff >= 0.8,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif os.environ.get("GRAFT_BENCH_HEADLINE_ONLY"):
        import ray

        _init_ray()
        pool_env = os.environ.get("GRAFT_POOL")
        result = run_headline(pool=int(pool_env) if pool_env else None)
        ray.shutdown()
        print(json.dumps(result))
    else:
        print(json.dumps(run_bench()))
