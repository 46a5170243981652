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
):
    """Lazy extraction Dataset over a pages Dataset (no consumption)."""
    ds = pages_ds.map_batches(
        make_router(num_partitions), batch_format="pyarrow"
    )
    pool = actor_pool() if concurrency is None else {"concurrency": concurrency}
    return ds.map_batches(
        Extractor, batch_format="pyarrow", batch_size=batch_size, **pool
    )


def unit_range(unit_id: int, num_units: int, num_partitions: int) -> tuple[int, int]:
    """Partition ids ``[lo, hi)`` of resume unit ``unit_id``."""
    return (
        unit_id * num_partitions // num_units,
        (unit_id + 1) * num_partitions // num_units,
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
    files (DESIGN.md "Unit reads"). Rows whose payload exceeds
    ``giant_cap`` (default stages.extract.GIANT_ROW_BYTES) go to the
    giant-lane unit ``unit_id=<num_units>``. Idempotent (atomic commit
    + _SUCCESS marker)."""
    import json

    import ray.data

    from ..sources.synth import PIPELINE_COLUMNS
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
        # reusing it under another unit count or cap would hand units
        # the wrong rows
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

    try:
        pages = ray.data.read_parquet(pages_path, columns=PIPELINE_COLUMNS)
    except Exception:
        pages = ray.data.read_parquet(pages_path)  # non-standard schema
    tmp = staging_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(staging_dir, ignore_errors=True)
    routed = pages.map_batches(make_router(num_partitions), batch_format="pyarrow")
    routed.map_batches(add_unit, batch_format="pyarrow").write_parquet(
        tmp, partition_cols=["unit_id"]
    )
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

    The input is routed and hive-partitioned by unit ONCE
    (stage_pages) into ``staging_dir``; each unit, the giant lane
    included, then reads only its own ``unit_id=K`` directory, so the
    job scans the input twice in all (DESIGN.md "Unit reads").
    ``staging_dir`` defaults to the ``<out_dir>_staging_<key>``
    sibling, keyed by the input path, its fingerprint and the grid.

    Giant lane: rows whose payload exceeds ``giant_cap`` (default
    stages.extract.GIANT_ROW_BYTES) are staged to a final dedicated
    unit — an uncapped pool of at most 2 actors (fewer on a small CPU
    claim) with single-row batches, so one multi-GiB document never
    stalls the fleet and still produces real output.
    """
    import ray.data

    from ..stages.extract import GIANT_ROW_BYTES

    if giant_cap is None:
        giant_cap = GIANT_ROW_BYTES
    if staging_dir is None:
        import hashlib

        # the input FINGERPRINT is part of the key: regenerated input at
        # the same path must map to a fresh staging dir, not hard-fail
        # against the stale one's grid marker
        key = hashlib.sha256(
            f"{os.path.abspath(pages_path)}|{_input_fingerprint(pages_path)}"
            f"|{num_partitions}|{num_units}|{giant_cap}".encode()
        ).hexdigest()[:10]
        staging_dir = out_dir.rstrip("/") + f"_staging_{key}"
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

    # staged main-lane rows are at most giant_cap bytes, so both lanes
    # run uncapped actors and differ only in batch size and pool
    pool = actor_pool() if concurrency is None else {"concurrency": concurrency}
    results = []
    for unit_id in range(num_units + 1):  # the final unit is the giant lane
        if unit_id in done:
            continue
        t0 = time.monotonic()
        if unit_id == num_units:
            lane = {"batch_size": 1, **actor_pool(size=2)}
        else:
            lane = {"batch_size": batch_size, **pool}
        unit_dir = os.path.join(staging_dir, f"unit_id={unit_id}")
        unit_out = mf.unit_out_dir(out_dir, unit_id)
        tmp_out = unit_out + ".tmp"
        shutil.rmtree(tmp_out, ignore_errors=True)
        shutil.rmtree(unit_out, ignore_errors=True)
        os.makedirs(tmp_out, exist_ok=True)  # empty units still commit
        if os.path.isdir(unit_dir):  # a unit with no staged rows has none
            extracted = ray.data.read_parquet(unit_dir).map_batches(
                Extractor,
                batch_format="pyarrow",
                fn_constructor_kwargs={"giant_cap": None},
                **lane,
            )
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
