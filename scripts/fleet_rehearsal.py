"""Fleet-shape resume rehearsal (round-1 VERDICT #8).

Phase A — staged unit reads (100k docs, U=16): the job routes the
input once into the hive-staged layout (stage_pages) and each unit,
the giant lane included, reads only its own directory. Reports the
wall time and the structural scan volume (2x the input).

Phase B — fleet shape (2M docs, P=65,536, U=64): launch the resumable
job in a subprocess, SIGKILL it mid-run, resume in-process, and verify
that committed units are skipped, the unit grid guard holds, and the
final output is complete.

Both phases claim the host's CPUs (``os.sched_getaffinity``).

Usage: python scripts/fleet_rehearsal.py [--skip-2m]
Prints ONE JSON line; record the result in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.1"
OUT_ROOT = "/tmp/fleet_rehearsal"
HOST_CPUS = len(os.sched_getaffinity(0))


def phase_a() -> dict:
    from pdf_parser_ray.pipelines.extract_pipeline import run_extract_job
    from pdf_parser_ray.sources.synth import build_pages_table

    pages = build_pages_table(SF, repeat=20)  # 100k docs
    n_docs = 100_000
    units = 16

    out = os.path.join(OUT_ROOT, "amp_staged")
    staging = os.path.join(OUT_ROOT, "amp_staging")
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(staging, ignore_errors=True)
    t0 = time.monotonic()
    results = run_extract_job(
        pages,
        out,
        num_units=units,
        num_partitions=4096,
        resume=False,
        staging_dir=staging,
    )
    t_staged = time.monotonic() - t0

    assert sum(r["rows"] for r in results) == n_docs, results
    return {
        "docs": n_docs,
        "units": units,
        "staged_sec": round(t_staged, 1),
        # once to stage + once by the unit (giant lane included) it lands in
        "staged_rows_scanned": n_docs * 2,
    }


def phase_b(repeat: int = 400) -> dict:
    from pdf_parser_ray.sources.synth import build_pages_table

    n_docs = 5_000 * repeat
    pages = build_pages_table(SF, repeat=repeat)
    out = os.path.join(OUT_ROOT, "fleet2m")
    staging = os.path.join(OUT_ROOT, "fleet2m_staging")
    shutil.rmtree(out, ignore_errors=True)
    units, partitions = 64, 65_536

    # launch in a subprocess and SIGKILL mid-run
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "pdf_parser_ray.cli",
            "--num-cpus",
            str(HOST_CPUS),
            "run-extract",
            "--input",
            pages,
            "--out",
            out,
            "--units",
            str(units),
            "--partitions",
            str(partitions),
            "--staging-dir",
            staging,
        ],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    from pdf_parser_ray.state import manifest as mf

    t0 = time.monotonic()
    killed_at_units = None
    while time.monotonic() - t0 < 3000:
        time.sleep(5)
        done = len(mf.done_units(out))
        if done >= units // 3:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            killed_at_units = done
            break
        if proc.poll() is not None:  # finished before we killed it
            killed_at_units = len(mf.done_units(out))
            break
    else:
        proc.kill()
        raise RuntimeError("job made no progress before timeout")
    done_before = set(mf.done_units(out))

    # resume in-process: must skip every committed unit
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=HOST_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from pdf_parser_ray.pipelines.extract_pipeline import run_extract_job

    t1 = time.monotonic()
    resumed = run_extract_job(
        pages,
        out,
        num_units=units,
        num_partitions=partitions,
        staging_dir=staging,
    )
    t_resume = time.monotonic() - t1
    resumed_ids = {r["unit_id"] for r in resumed}
    assert not (resumed_ids & done_before), "resume reprocessed a committed unit"

    entries = mf.read_manifest(out)
    total_rows = sum(e["rows"] for e in entries)
    assert total_rows == n_docs, (total_rows, n_docs)

    # the unit-grid guard must refuse a mismatched resume
    guard_ok = False
    try:
        run_extract_job(pages, out, num_units=32, num_partitions=partitions)
    except ValueError:
        guard_ok = True

    import ray.data

    out_rows = ray.data.read_parquet(out).count()
    busy = [e for e in entries if e["rows"] > 0]
    return {
        "docs": n_docs,
        "units": units,
        "partitions": partitions,
        "killed_after_units": killed_at_units,
        "resumed_units": len(resumed_ids),
        "resume_sec": round(t_resume, 1),
        "total_rows": total_rows,
        "output_rows": out_rows,
        "grid_guard_refused_mismatch": guard_ok,
        "docs_per_sec_resumed_portion": round(
            sum(e["rows"] for e in entries if e["unit_id"] in resumed_ids)
            / t_resume,
            1,
        ),
        "mean_unit_docs_per_sec": round(
            sum(e["docs_per_sec"] for e in busy) / max(1, len(busy)), 1
        ),
    }


def main():
    import ray

    skip_2m = "--skip-2m" in sys.argv
    ray.init(
        address="local",
        num_cpus=HOST_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    result = {"phase_a": phase_a()}
    if not skip_2m:
        result["phase_b"] = phase_b()
    print(json.dumps(result))
    ray.shutdown()


if __name__ == "__main__":
    main()
