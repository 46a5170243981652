"""The flagship pipeline: pages table -> extracted text (SURVEY.md §3.4).

    read_parquet(pages)
      -> map_batches(route)                 # stateless tasks: kind sniff,
                                            #   partition_id, nbytes
      -> map_batches(Extractor, actors)     # warm CMap caches per actor
      [-> write_parquet(out/unit=K/...)]    # atomic per-unit output
      [-> groupby metrics -> manifest]

The hot path is shuffle-free: the only groupby is over the tiny
per-partition metrics table. Resumable runs process the input in
units (slices of the partition-id space); see state/manifest.py.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.extract import Extractor
from ..stages.route import make_router
from ..state import manifest as mf
from .agg import two_phase_agg

DEFAULT_NUM_PARTITIONS = 256

# manifest metrics of a unit that committed no rows
ZERO_METRICS = {
    "rows": 0,
    "ok_rows": 0,
    "err_rows": 0,
    "bytes_in": 0,
    "text_bytes": 0,
    "partitions": 0,
    "duration_sec": 0.0,
    "docs_per_sec": 0.0,
}


def actor_pool(size: int | None = None) -> dict:
    """``map_batches`` arguments for an actor pool sized from the Ray CPU
    claim, leaving at least one CPU to the read/route/write tasks.

    The pool autoscales up to ``max(2, cpus - 2)`` actors at 3 CPUs and
    more, and is a single actor below 3 CPUs; ``size`` asks for a fixed
    pool of at most that many actors instead. At a 1-CPU claim the actor
    holds no CPU: any CPU it held would leave ReadParquet unschedulable."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8))
    hi = max(2, cpus - 2) if cpus > 2 else 1
    pool = {"concurrency": (max(1, hi // 2), hi) if size is None else min(size, hi)}
    if cpus < 2:
        pool["num_cpus"] = 0
    return pool


def build_extract_ds(
    pages_ds,
    *,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    concurrency=None,
    batch_size: int = 64,
    repartition_blocks: int | None = None,
):
    """Lazy extraction Dataset over a pages Dataset (no consumption).

    ``repartition_blocks``: explicit pre-route repartition (north_rule:
    "read_parquet with explicit repartitioning to bound skew"). Splits
    or coalesces blocks WITHOUT a shuffle so a handful of giant input
    files can't serialize the pipeline; Ray's dynamic block splitting
    plus the giant-row lane handle per-row skew beyond that.
    """
    if repartition_blocks is not None:
        pages_ds = pages_ds.repartition(repartition_blocks)
    ds = pages_ds.map_batches(
        make_router(num_partitions), batch_format="pyarrow"
    )
    pool = actor_pool() if concurrency is None else {"concurrency": concurrency}
    return ds.map_batches(
        Extractor, batch_format="pyarrow", batch_size=batch_size, **pool
    )


def read_routed(pages_path: str, num_partitions: int):
    """Lazy routed Dataset over a pages table, projected to the pipeline
    columns (the full table when its schema lacks them)."""
    import ray.data

    from ..sources.synth import PIPELINE_COLUMNS

    try:
        pages = ray.data.read_parquet(pages_path, columns=PIPELINE_COLUMNS)
    except Exception:
        pages = ray.data.read_parquet(pages_path)  # non-standard schema
    return pages.map_batches(make_router(num_partitions), batch_format="pyarrow")


def unit_range(unit_id: int, num_units: int, num_partitions: int) -> tuple[int, int]:
    """Partition ids ``[lo, hi)`` of resume unit ``unit_id``."""
    return (
        unit_id * num_partitions // num_units,
        (unit_id + 1) * num_partitions // num_units,
    )


def lane_rows(t: pa.Table, lo: int | None, hi: int | None, cap: int) -> pa.Table:
    """The rows one sub-job extracts: partition ids ``[lo, hi)`` with
    payloads of at most ``cap`` bytes, or, for the giant lane
    (``lo is None``), every payload over ``cap``."""
    if lo is None:
        return t.filter(pc.greater(t["nbytes"], cap))
    pid = t["partition_id"]
    return t.filter(
        pc.and_(
            pc.and_(pc.greater_equal(pid, lo), pc.less(pid, hi)),
            pc.less_equal(t["nbytes"], cap),
        )
    )


def partition_metrics(extracted_ds):
    """Per-partition lineage metrics — the only shuffle in the pipeline,
    over one small row per (partition, batch) partial (SURVEY.md §2.6)."""

    def prepare(t: pa.Table) -> pa.Table:
        t = t.append_column("ok_int", t["ok"].cast(pa.int64()))
        text_bytes = pc.binary_length(t["text"]).cast(pa.int64())
        return t.append_column("text_bytes", text_bytes)

    return two_phase_agg(
        extracted_ds,
        "partition_id",
        {
            "rows": (None, "rows"),
            "ok_rows": ("ok_int", "sum"),
            "bytes_in": ("nbytes", "sum"),
            "text_bytes": ("text_bytes", "sum"),
        },
        prepare,
    )


def _input_fingerprint(path: str) -> str:
    """Cheap content identity for an input path (total size + max
    mtime over parquet files): regenerated input at the SAME path must
    not silently reuse a stale staged layout."""
    total = 0
    mtime = 0.0
    if os.path.isdir(path):
        for root, _dirs, files in os.walk(path):
            for f in files:
                if f.endswith(".parquet"):
                    st = os.stat(os.path.join(root, f))
                    total += st.st_size
                    mtime = max(mtime, st.st_mtime)
    elif os.path.exists(path):
        st = os.stat(path)
        total, mtime = st.st_size, st.st_mtime
    return f"{total}:{int(mtime)}"


def stage_pages(
    pages_path: str,
    staging_dir: str,
    *,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    num_units: int = 8,
    giant_cap: int | None = None,
) -> str:
    """Route the input ONCE and write it hive-partitioned by resume
    unit (``unit_id=K/``), so each unit sub-job reads only its own
    files — the fleet-scale layout from DESIGN.md "Unit reads", which
    removes the per-unit full-input re-read. Rows whose payload exceeds
    ``giant_cap`` (default stages.extract.GIANT_ROW_BYTES) go to the
    giant-lane unit ``unit_id=<num_units>``. Idempotent (atomic commit
    + _SUCCESS marker)."""
    import json

    from ..stages.extract import GIANT_ROW_BYTES

    if giant_cap is None:
        giant_cap = GIANT_ROW_BYTES
    grid = {
        "pages_path": os.path.abspath(pages_path),
        "input_fingerprint": _input_fingerprint(pages_path),
        "num_partitions": num_partitions,
        "num_units": num_units,
        "giant_cap": giant_cap,
    }
    marker = os.path.join(staging_dir, "_SUCCESS")
    if os.path.exists(marker):
        # a staged layout is only valid for the grid that built it:
        # reusing it under a different unit count would silently drop
        # the partitions that fall outside every unit's filter range
        try:
            with open(marker) as f:
                prev = json.load(f)
        except (json.JSONDecodeError, OSError):
            prev = None  # pre-grid marker: refuse (cannot validate)
        if prev != grid:
            raise ValueError(
                f"staging dir {staging_dir} was built for {prev}, "
                f"requested {grid}; use a fresh staging_dir"
            )
        return staging_dir

    import numpy as np

    unit_of = np.empty(num_partitions, dtype=np.int32)
    for u in range(num_units):
        lo, hi = unit_range(u, num_units, num_partitions)
        unit_of[lo:hi] = u

    def add_unit(t: pa.Table) -> pa.Table:
        pid = t["partition_id"].to_numpy(zero_copy_only=False)
        giant = t["nbytes"].to_numpy(zero_copy_only=False) > giant_cap
        unit = np.where(giant, num_units, unit_of[pid])
        return t.append_column("unit_id", pa.array(unit, type=pa.int32()))

    tmp = staging_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(staging_dir, ignore_errors=True)
    read_routed(pages_path, num_partitions).map_batches(
        add_unit, batch_format="pyarrow"
    ).write_parquet(tmp, partition_cols=["unit_id"])
    os.rename(tmp, staging_dir)
    with open(marker, "w") as f:
        json.dump(grid, f)
    return staging_dir


def run_extract_job(
    pages_path: str,
    out_dir: str,
    *,
    num_units: int = 8,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    concurrency=None,
    batch_size: int = 64,
    resume: bool = True,
    giant_cap: int | None = None,
    staging_dir: str | None = None,
) -> list[dict]:
    """Resumable extraction job: per-unit streaming sub-jobs.

    Each unit covers partition ids ``[u*P/U, (u+1)*P/U)``; its output
    directory commits atomically and its manifest entry is written
    after commit, so a killed run re-does only unfinished units. At
    100 TB scale, units are the coarse recovery grain (hundreds to
    thousands); within a unit Ray's lineage handles task retries.

    Giant lane: rows whose payload exceeds ``giant_cap`` (default
    stages.extract.GIANT_ROW_BYTES) skip the main pool and are
    processed by a final dedicated unit — an uncapped pool of at most
    2 actors (fewer on a small CPU claim) with single-row batches, so
    one multi-GiB document never stalls the fleet and still produces
    real output.

    ``staging_dir``: route + hive-partition the input by unit ONCE
    (stage_pages) so each unit, the giant lane included, reads only its
    own files instead of filtering a full scan — the fleet-scale layout
    (DESIGN.md), which scans the input twice in all. At
    ``num_units >= 32`` staging switches ON automatically (scan
    amplification of the filter-scan path is O(units)); pass
    ``staging_dir=""`` to force filter-scan anyway.
    """
    import ray.data

    from ..stages.extract import GIANT_ROW_BYTES

    if giant_cap is None:
        giant_cap = GIANT_ROW_BYTES
    pool = actor_pool() if concurrency is None else {"concurrency": concurrency}
    if staging_dir is None and num_units >= 32:
        # keyed by the input path so a different input never reuses a
        # stale staging layout (stage_pages is idempotent per dir)
        import hashlib

        # the input FINGERPRINT is part of the key: regenerated input at
        # the same path must map to a fresh staging dir, not hard-fail
        # against the stale one's grid marker
        key = hashlib.sha256(
            f"{os.path.abspath(pages_path)}|{_input_fingerprint(pages_path)}"
            f"|{num_partitions}|{num_units}|{giant_cap}".encode()
        ).hexdigest()[:10]
        staging_dir = out_dir.rstrip("/") + f"_staging_{key}"
    elif staging_dir == "":
        staging_dir = None
    job_params = {
        "num_units": num_units,
        "num_partitions": num_partitions,
        "giant_cap": giant_cap,
        "pages_path": os.path.abspath(pages_path),
    }
    # grid guard FIRST: a mismatched resume must be refused before the
    # (full-corpus) staging pass spends minutes building a layout the
    # job is not allowed to use
    if resume:
        mf.check_job(out_dir, job_params)
    else:
        shutil.rmtree(out_dir, ignore_errors=True)
    if staging_dir is not None:
        stage_pages(
            pages_path,
            staging_dir,
            num_partitions=num_partitions,
            num_units=num_units,
            giant_cap=giant_cap,
        )
    done = mf.done_units(out_dir) if resume else set()
    os.makedirs(out_dir, exist_ok=True)
    mf.write_job(out_dir, job_params)

    results = []
    for unit_id in range(num_units + 1):  # the final unit is the giant lane
        if unit_id in done:
            continue
        t0 = time.monotonic()
        if unit_id == num_units:
            lo = hi = None
            lane = {
                "batch_size": 1,
                "fn_constructor_kwargs": {"giant_cap": None},
                **actor_pool(size=2),
            }
        else:
            lo, hi = unit_range(unit_id, num_units, num_partitions)
            lane = {
                "batch_size": batch_size,
                "fn_constructor_kwargs": {"giant_cap": giant_cap},
                **pool,
            }
        if staging_dir is None:
            routed = read_routed(pages_path, num_partitions)
        else:
            unit_dir = os.path.join(staging_dir, f"unit_id={unit_id}")
            # a unit with no staged rows has no directory
            has_rows = os.path.isdir(unit_dir)
            routed = ray.data.read_parquet(unit_dir) if has_rows else None

        unit_out = mf.unit_out_dir(out_dir, unit_id)
        tmp_out = unit_out + ".tmp"
        shutil.rmtree(tmp_out, ignore_errors=True)
        shutil.rmtree(unit_out, ignore_errors=True)
        os.makedirs(tmp_out, exist_ok=True)  # empty units still commit
        if routed is not None:
            extracted = routed.map_batches(
                lane_rows, batch_format="pyarrow", fn_args=(lo, hi, giant_cap)
            ).map_batches(Extractor, batch_format="pyarrow", **lane)
            # bound file counts: at fleet scale thousands of tiny part
            # files per unit wreck the downstream read path
            extracted.write_parquet(tmp_out, min_rows_per_file=50_000)
        os.rename(tmp_out, unit_out)

        # lineage metrics for the unit (small read over committed files)
        part_files = [
            f for f in os.listdir(unit_out) if f.endswith(".parquet")
        ]
        dt = time.monotonic() - t0
        metrics = {**ZERO_METRICS, "duration_sec": round(dt, 3)}
        if part_files:  # else an empty unit (e.g. no giant rows)
            out_ds = ray.data.read_parquet(
                unit_out, columns=["ok", "nbytes", "text", "partition_id"]
            )
            m = partition_metrics(out_ds).to_pandas()
            rows, ok_rows = int(m["rows"].sum()), int(m["ok_rows"].sum())
            metrics.update(
                rows=rows,
                ok_rows=ok_rows,
                err_rows=rows - ok_rows,
                bytes_in=int(m["bytes_in"].sum()),
                text_bytes=int(m["text_bytes"].sum()),
                partitions=int(len(m)),
                docs_per_sec=round(float(rows) / dt, 1),
            )
        mf.write_unit(out_dir, unit_id, metrics)
        results.append({"unit_id": unit_id, **metrics})
    return results
