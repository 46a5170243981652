"""Layer-attributed extraction benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

WORKLOADS = ("pipeline-mixed", "core-pdf", "core-html", "pdf-large")
BATCH_ROWS = 64  # build_extract_ds's batch size
SETUP_SAMPLES = 3
HARD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60


def declared_units(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def setup_probe() -> None:
    """Set-up of a fresh Ray-free process: program imports, Extractor
    construction and one warm-up batch of every payload kind (the input
    generation between them is not counted). Prints seconds."""
    t0 = time.perf_counter()
    from pdf_parser_ray.stages.extract import Extractor

    ext = Extractor()
    t1 = time.perf_counter()
    from perfbench import inputs

    batch = inputs.warmup_batch()
    t2 = time.perf_counter()
    ext(batch)
    print(json.dumps({"setup_s": t1 - t0 + time.perf_counter() - t2}))


def measure_setup() -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def run_core(workload: str, seed: int, seconds: float, traced: bool):
    """A Ray-free workload: ``Extractor.__call__`` over the input in
    batches of ``BATCH_ROWS``, in whole rounds (one fresh Extractor per
    round) until ``seconds`` have been timed."""
    import pyarrow as pa

    from perfbench import checks, inputs, trace
    from perfbench.hostspeed import HostSpeed
    from pdf_parser_ray.stages.extract import Extractor

    make = {"core-pdf": inputs.core_pdf, "core-html": inputs.core_html,
            "pdf-large": inputs.pdf_large}[workload]
    table, expect = make(seed)
    batches = [table.slice(i, BATCH_ROWS) for i in range(0, len(table), BATCH_ROWS)]
    payload_mib = sum(len(p) for p in table["html"].to_pylist()) / 2**20
    setup_s = measure_setup()

    outcome = checks.Outcome()
    speed = HostSpeed()

    def one_round() -> float:
        speed.sample()
        ext = Extractor()
        t0 = time.perf_counter()
        outs = [ext(b) for b in batches]
        dt = time.perf_counter() - t0
        outcome.add(checks.check_rows(pa.concat_tables(outs), expect))
        return dt

    one_round()  # warm-up: checked, not timed
    tracer = trace.Tracer() if traced else None
    times, traced_times = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(one_round())
        if traced:
            tracer.round = len(traced_times)
            tracer.install()
            try:
                traced_times.append(one_round())
            finally:
                tracer.uninstall()

    rate = statistics.median(len(table) / t for t in times)
    f = speed.factor()
    print(f"{workload:15s} host speed factor {f:.4f}; unscaled docs/s {rate:.6g}")
    if not traced:
        return {
            "docs_per_s": rate / f,
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "payload_mib_per_s": statistics.median(payload_mib / t for t in times) / f,
        }, outcome

    spans_path = os.path.join(ROOT, ".pbw", f"spans-{workload}.npz")
    tracer.save(spans_path)
    m = trace.layer_metrics(spans_path, len(traced_times), sum(traced_times))
    # the Ray-only layer runs no work here
    m.update({name: 0.0 for name in declared_units(True) if name.startswith("pipeline.")})
    m["trace.overhead"] = statistics.median(len(table) / t for t in traced_times) / rate
    return m, outcome


def _timeout(signum, frame):
    raise TimeoutError(f"workload did not finish within {HARD_TIMEOUT_S} s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        setup_probe()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(HARD_TIMEOUT_S)
    work = os.path.join(ROOT, ".pbw")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traced = bool(args.trace)
    if args.workload == "pipeline-mixed":
        from perfbench import pipeline

        metrics, outcome = pipeline.run(ROOT, args.seed, args.seconds, traced)
    else:
        metrics, outcome = run_core(args.workload, args.seed, args.seconds, traced)
    signal.alarm(0)

    for line in outcome.failed[:5] + outcome.problems[:20]:
        print(line, file=sys.stderr)
    units = declared_units(traced)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} not as declared")
    for name in units:
        print(f"{args.workload:15s} {name:28s} {metrics[name]:14.6g} {units[name]}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
