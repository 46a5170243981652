"""The ``pipeline-mixed`` workload: read_parquet -> build_extract_ds (route +
Extractor actor pool) -> write_parquet under Ray, on one driver process.

The Ray CPU claim and the actor pool are fixed here and never taken from
``extract_pipeline.default_concurrency()``: at a 1-CPU claim that default
sizes the pool to every CPU and ReadParquet never schedules. Before each
pass the driver waits until every Ray CPU is free again, since an actor
of the previous pass can still hold its CPU. Ray workers get the
checkout on ``PYTHONPATH`` so they import ``pdf_parser_ray`` from any
working directory.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import signal
import statistics
import time

import pyarrow.parquet as pq

from perfbench import checks, inputs, trace

RAY_CPUS = 2
POOL = 1
SETUP_SAMPLES = 3
WARMUP_ROWS = 64
CPU_FREE_TIMEOUT_S = 60
STOP_TIMEOUT_S = 20
# AF_UNIX socket paths are limited to 107 bytes; Ray adds about 62 to its
# temp dir (session name + sockets/plasma_store)
MAX_RAY_TEMP_DIR = 44


def _start_ray(work: str) -> None:
    import ray

    kwargs = {}
    if len(work) <= MAX_RAY_TEMP_DIR:
        kwargs["_temp_dir"] = work
    ray.init(
        num_cpus=RAY_CPUS,
        object_store_memory=512 * 2**20,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        **kwargs,
    )
    ray.data.DataContext.get_current().enable_progress_bars = False


def _descendants(pid: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
    out: set[int] = set()
    todo = [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.add(child)
            todo.append(child)
    return out


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    if state == "Z":
        try:
            os.waitpid(pid, os.WNOHANG)  # reap our own zombie children
        except ChildProcessError:
            pass
        return False
    return True


def _stop_ray() -> None:
    """``ray.shutdown()``, then wait until every process Ray started has
    ended (shutdown returns while some are still exiting)."""
    import ray

    procs = _descendants(os.getpid())
    ray.shutdown()
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            for p in procs:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(p, sig)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while time.monotonic() < deadline:
            if not any(_running(p) for p in procs):
                return
            time.sleep(0.05)
    raise RuntimeError(f"Ray processes {sorted(p for p in procs if _running(p))} did not end")


def _wait_cpus_free() -> None:
    import ray

    gc.collect()  # drops the finished dataset, which lets its actors go
    deadline = time.monotonic() + CPU_FREE_TIMEOUT_S
    while ray.available_resources().get("CPU", 0) < RAY_CPUS:
        if time.monotonic() > deadline:
            raise TimeoutError(f"Ray CPUs still busy after {CPU_FREE_TIMEOUT_S} s")
        time.sleep(0.02)


def _op_stats(ds) -> dict[str, float]:
    """Per-operator wall time, extract peak memory and backpressure from
    the dataset stats of a finished write."""
    summary = (getattr(ds, "_write_ds", None) or ds)._get_stats_summary()
    out = {"read_s": 0.0, "extract_op_s": 0.0, "write_s": 0.0,
           "extract_peak_mib": 0.0, "backpressure_s": 0.0}
    todo = [summary]
    while todo:
        s = todo.pop()
        todo.extend(s.parents)
        extra = s.extra_metrics or {}
        out["backpressure_s"] += extra.get("task_submission_backpressure_time", 0) + extra.get(
            "task_output_backpressure_time", 0
        )
        for op in s.operators_stats:
            if op.operator_name.startswith("ReadParquet"):
                out["read_s"] += op.time_total_s
            elif "Extractor" in op.operator_name:
                out["extract_op_s"] += op.time_total_s
                out["extract_peak_mib"] = max(out["extract_peak_mib"], op.memory["max"])
            elif op.operator_name.startswith("Write"):
                out["write_s"] += op.time_total_s
    return out


class Pipeline:
    def __init__(self, work: str):
        self.work = work
        self.outcome = checks.Outcome()
        self.tracer = None
        self.sink = None

    def run_pass(self, src: str, expect: dict, traced: bool = False) -> tuple[float, dict]:
        """One whole read -> extract -> write pass over ``src``; the output
        is read back and checked against ``expect``. Returns (wall
        seconds, stats)."""
        import ray

        from pdf_parser_ray.pipelines import extract_pipeline as ep

        _wait_cpus_free()
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        saved = ep.make_router, ep.Extractor
        if traced:
            ep.make_router = trace.traced_make_router(ep.make_router)
            ep.Extractor = trace.TracedExtractor
        try:
            t0 = time.perf_counter()
            ds = ep.build_extract_ds(ray.data.read_parquet(src), concurrency=POOL)
            ds.write_parquet(out)
            wall = time.perf_counter() - t0
        finally:
            ep.make_router, ep.Extractor = saved
        stats = _op_stats(ds)
        del ds
        stats["out_bytes"] = sum(
            os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
        )
        rows = pq.read_table(out, columns=["url", "ok", "error", "text", "spans", "n_pages"])
        self.outcome.add(checks.check_rows(rows, expect))
        if traced:
            self.tracer.add_chunks(ray.get(self.sink.take.remote()), self.tracer.round)
            self.tracer.round += 1
        return wall, stats


def run(root: str, seed: int, seconds: float, traced: bool) -> tuple[dict, checks.Outcome]:
    cores = len(os.sched_getaffinity(0))
    if cores < RAY_CPUS:
        raise SystemExit(f"pipeline-mixed claims {RAY_CPUS} Ray CPUs; this process has {cores} cores")
    work = os.path.join(root, ".pbw")
    table, expect = inputs.pipeline_mixed(seed)
    os.makedirs(os.path.join(work, "in"))
    os.makedirs(os.path.join(work, "warm"))
    pq.write_table(table, os.path.join(work, "in", "pages.parquet"), row_group_size=2048)
    pq.write_table(table.slice(0, WARMUP_ROWS), os.path.join(work, "warm", "pages.parquet"))
    n_docs = len(table)
    payload_mib = sum(len(p) for p in table["html"].to_pylist()) / 2**20
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p
    )

    t0 = time.perf_counter()
    import ray

    from pdf_parser_ray.pipelines import extract_pipeline  # noqa: F401  (import cost)

    import_s = time.perf_counter() - t0
    warm_expect = {url: expect[url] for url in table["url"][:WARMUP_ROWS].to_pylist()}
    pipe = Pipeline(work)
    setup = []
    try:
        # set-up = imports + Ray start + a first pass (worker start,
        # actor-pool start, worker imports); sampled with Ray restarts
        for k in range(SETUP_SAMPLES):
            if k:
                _stop_ray()
            t0 = time.perf_counter()
            _start_ray(work)
            pipe.run_pass(os.path.join(work, "warm"), warm_expect)
            setup.append(import_s + time.perf_counter() - t0)

        if traced:
            pipe.tracer = trace.Tracer()
            pipe.sink = ray.remote(trace.SpanSink).options(
                name=trace.SINK_NAME, num_cpus=0
            ).remote()
        src = os.path.join(work, "in")
        walls, traced_walls, stats = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, st = pipe.run_pass(src, expect)
            walls.append(wall)
            stats.append(st)
            if traced:
                traced_walls.append(pipe.run_pass(src, expect, traced=True)[0])
    finally:
        _stop_ray()

    rate = statistics.median(n_docs / w for w in walls)
    if not traced:
        return {
            "docs_per_s": rate,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(s["extract_peak_mib"] for s in stats),
            "payload_mib_per_s": statistics.median(payload_mib / w for w in walls),
        }, pipe.outcome

    spans_path = os.path.join(work, "spans-pipeline-mixed.npz")
    pipe.tracer.save(spans_path)
    wall = statistics.fmean(traced_walls)
    m = trace.layer_metrics(spans_path, len(traced_walls), wall * len(traced_walls) * POOL)
    udf_s = m["extract.call_s"]
    non_udf_s = wall - udf_s / POOL
    m.update(
        {
            "pipeline.read_s": statistics.median(s["read_s"] for s in stats),
            "pipeline.extract_op_s": statistics.median(s["extract_op_s"] for s in stats),
            "pipeline.write_s": statistics.median(s["write_s"] for s in stats),
            "pipeline.udf_s": udf_s,
            "pipeline.non_udf_s": non_udf_s,
            "pipeline.non_udf_share": non_udf_s / wall,
            "pipeline.backpressure_s": statistics.median(s["backpressure_s"] for s in stats),
            "pipeline.out_bytes": statistics.median(s["out_bytes"] for s in stats),
            "trace.overhead": statistics.median(n_docs / w for w in traced_walls) / rate,
        }
    )
    return m, pipe.outcome
