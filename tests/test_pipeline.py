"""Pipeline/e2e tests (FIXTURES.md §5): routing, error channel, metrics,
resume, dedup corpus — small scale, one Ray session (conftest)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def pages_path(ray_session):
    from pdf_parser_ray.sources.synth import build_pages_table

    return build_pages_table(SF)


@pytest.fixture(scope="module")
def docs():
    t = pq.read_table(os.path.join(SF, "documents.parquet"))
    return {r["doc_id"]: r for r in t.to_pylist()}


JOB_COLUMNS = ["url", "ok", "error", "text"]


@pytest.fixture(scope="module")
def in_process_rows(pages_path):
    """(url, ok, error, text) per page from one uncapped in-process
    ``Extractor``: what every job over the pages must write."""
    from pdf_parser_ray.sources.synth import PIPELINE_COLUMNS
    from pdf_parser_ray.stages.extract import Extractor
    from pdf_parser_ray.stages.route import make_router

    pages = pq.read_table(pages_path, columns=PIPELINE_COLUMNS)
    out = Extractor(giant_cap=None)(make_router(8)(pages)).select(JOB_COLUMNS)
    return set(out.to_pandas().itertuples(index=False, name=None))


def job_rows(out_dir: str) -> set:
    import ray.data

    rows = ray.data.read_parquet(out_dir, columns=JOB_COLUMNS).to_pandas()
    return set(rows.itertuples(index=False, name=None))


def test_pages_schema(pages_path):
    schema = pq.ParquetDataset(pages_path).schema
    names = [f.name for f in schema]
    assert names[:5] == ["url", "warc_ts", "html", "text", "lang"]


def test_route_and_extract(ray_session, pages_path, docs):
    import ray.data

    from pdf_parser_ray.pipelines.extract_pipeline import build_extract_ds

    out = build_extract_ds(
        ray.data.read_parquet(pages_path), num_partitions=16
    ).take_all()
    assert len(out) == len(docs)
    for r in out:
        doc_id = int(r["url"].rsplit("/", 1)[1])
        arm = doc_id % 3
        if arm == 0:
            assert r["kind"] == "pdf" and r["ok"]
            assert bytes(r["text"]) == docs[doc_id]["text"].encode()
            assert r["n_pages"] == 1
            assert r["spans"][0]["kind"] == "page"
        elif arm == 1:
            assert r["kind"] == "html" and r["ok"]
            assert bytes(r["text"]) == docs[doc_id]["text"].encode()
        else:
            assert r["kind"] == "other" and not r["ok"]
            assert r["error"] == "route: unsupported payload"


def test_corrupt_rows_are_contained(ray_session):
    """A table with corrupt PDFs must produce error rows, not failures."""
    import ray.data

    from pdf_parser_ray.pdfcore import pdfbuild
    from pdf_parser_ray.pipelines.extract_pipeline import build_extract_ds

    rows = {
        "url": [f"https://x.example/p/{i}" for i in range(4)],
        "warc_ts": pa.array([0] * 4, pa.int64()).cast(pa.timestamp("us")),
        "html": [
            pdfbuild.build_truncated(),
            pdfbuild.build_no_eof(),
            pdfbuild.build_free_entry_deref(),
            pdfbuild.build_text_pdf(b"fine"),
        ],
        "text": ["", "", "", ""],
        "lang": ["en"] * 4,
    }
    ds = ray.data.from_arrow(pa.table(rows))
    out = sorted(
        build_extract_ds(ds, num_partitions=4, concurrency=1).take_all(),
        key=lambda r: r["url"],
    )
    assert [r["ok"] for r in out] == [False, False, False, True]
    assert "trailer" in out[0]["error"] or "lexer" in out[0]["error"]
    assert "EOF marker is not found" in out[1]["error"]
    assert "not supportted" in out[2]["error"]
    assert bytes(out[3]["text"]) == b"fine"


def test_resume_job(ray_session, pages_path, tmp_path):
    from pdf_parser_ray.pipelines.extract_pipeline import run_extract_job
    from pdf_parser_ray.state import manifest as mf

    out_dir = str(tmp_path / "job")
    results = run_extract_job(
        pages_path, out_dir, num_units=4, num_partitions=16, concurrency=2
    )
    assert len(results) == 5  # 4 main units + the (empty) giant lane
    assert sum(r["rows"] for r in results) == 500
    assert mf.done_units(out_dir) == {0, 1, 2, 3, 4}

    # kill one unit -> rerun processes exactly that unit
    mf.clear_unit(out_dir, 2)
    results2 = run_extract_job(
        pages_path, out_dir, num_units=4, num_partitions=16, concurrency=2
    )
    assert [r["unit_id"] for r in results2] == [2]
    entries = mf.read_manifest(out_dir)
    assert sum(e["rows"] for e in entries) == 500
    assert all(e["err_rows"] == e["rows"] - e["ok_rows"] for e in entries)

    # committed output is readable and complete
    import ray.data

    total = ray.data.read_parquet(out_dir).count()
    assert total == 500


def test_dup_corpus_counts(ray_session):
    from pdf_parser_ray.pipelines.dedup import dup_corpus

    n_docs = 500
    n = dup_corpus(SF).count()
    # +10% mutated copies (%10==0) +10% exact copies (%10==5)
    assert n == n_docs + n_docs // 10 + n_docs // 10


def test_minhash_finds_planted_pairs(ray_session):
    from pdf_parser_ray.pipelines.dedup import DUP_OFFSET, minhash_dup_pairs

    pairs = {
        (r["a"], r["b"]) for r in minhash_dup_pairs(SF, threshold=0.5).take_all()
    }
    planted = {
        (i, i + DUP_OFFSET) for i in range(0, 500) if i % 10 in (0, 5)
    }
    missing = planted - pairs
    assert not missing, f"missed planted pairs: {sorted(missing)[:5]}"


def test_media_meta_stub(ray_session):
    from pdf_parser_ray.pipelines.multimodal import media_meta

    out = media_meta(SF).take_all()
    assert len(out) == 500
    mimes = {r["mime"] for r in out}
    assert "application/pdf" in mimes and "text/html" in mimes
    gif = [r for r in out if r["mime"] == "image/gif"]
    assert gif and all(r["decoded"] and r["width"] > 0 for r in gif)
    pdf = [r for r in out if r["mime"] == "application/pdf"]
    assert all(not r["decoded"] for r in pdf)  # stub has no pdf decoder


def test_giant_row_guard(ray_session):
    """Payloads over the cap produce a tagged error row, never stall."""
    import ray.data

    from pdf_parser_ray.stages.extract import GIANT_ROW_BYTES, Extractor
    from pdf_parser_ray.stages.route import make_router

    big = b"%PDF-" + b"\0" * (GIANT_ROW_BYTES + 1)
    t = pa.table(
        {
            "url": ["https://x.example/p/1"],
            "warc_ts": pa.array([0], pa.int64()).cast(pa.timestamp("us")),
            "html": pa.array([big], pa.binary()),
            "text": [""],
            "lang": ["en"],
        }
    )
    out = Extractor()(make_router(8)(t))
    assert out["ok"][0].as_py() is False
    assert "giant" in out["error"][0].as_py()


def test_spans_survive_parquet_roundtrip(ray_session, pages_path, tmp_path):
    import ray.data

    from pdf_parser_ray.pipelines.extract_pipeline import build_extract_ds

    out_dir = str(tmp_path / "spans")
    build_extract_ds(
        ray.data.read_parquet(pages_path), num_partitions=8, concurrency=2
    ).write_parquet(out_dir)
    back = ray.data.read_parquet(out_dir).take_all()
    pdf_rows = [r for r in back if r["kind"] == "pdf" and r["ok"]]
    assert pdf_rows
    for r in pdf_rows[:20]:
        spans = r["spans"]
        assert spans and spans[0]["kind"] == "page"
        assert spans[-1]["end"] == len(r["text"])


def test_binary_dir_source(ray_session, tmp_path):
    """Loose .pdf/.html files -> pages table -> extraction unchanged."""
    from pdf_parser_ray.pdfcore import pdfbuild
    from pdf_parser_ray.pipelines.extract_pipeline import build_extract_ds
    from pdf_parser_ray.sources.binary import read_binary_dir

    (tmp_path / "a.pdf").write_bytes(pdfbuild.build_text_pdf(b"from file"))
    (tmp_path / "b.html").write_bytes(b"<html><body><p>web file</p></body></html>")
    (tmp_path / "c.bin").write_bytes(b"GIF89a junk")

    pages = read_binary_dir(str(tmp_path))
    out = {
        r["url"].rsplit("/", 1)[1]: r
        for r in build_extract_ds(pages, num_partitions=4, concurrency=1).take_all()
    }
    assert bytes(out["a.pdf"]["text"]) == b"from file"
    assert bytes(out["b.html"]["text"]) == b"web file"
    assert not out["c.bin"]["ok"]


def test_giant_lane_extracts(ray_session, pages_path, tmp_path):
    """With a tiny cap, big PDFs route to the giant lane and still
    produce real extracted text (not error rows)."""
    import ray.data

    from pdf_parser_ray.pipelines.extract_pipeline import run_extract_job

    out_dir = str(tmp_path / "giant")
    results = run_extract_job(
        pages_path,
        out_dir,
        num_units=2,
        num_partitions=8,
        concurrency=2,
        giant_cap=1500,
    )
    giant = [r for r in results if r["unit_id"] == 2][0]
    assert giant["rows"] > 0 and giant["ok_rows"] == giant["rows"]
    total = sum(r["rows"] for r in results)
    assert total == 500
    ok_total = sum(r["ok_rows"] for r in results)
    assert ok_total == 334  # every pdf/html row extracted despite the cap


def test_staged_job_matches_unstaged(
    ray_session, pages_path, in_process_rows, tmp_path
):
    """A job with an explicit staging dir writes, per url, what an
    in-process ``Extractor`` gives on the unstaged pages."""
    from pdf_parser_ray.pipelines.extract_pipeline import run_extract_job
    from pdf_parser_ray.state import manifest as mf

    out_dir = str(tmp_path / "staged_job")
    results = run_extract_job(
        pages_path,
        out_dir,
        num_units=4,
        num_partitions=16,
        concurrency=2,
        staging_dir=str(tmp_path / "staging"),
    )
    assert sum(r["rows"] for r in results) == 500
    assert sum(r["ok_rows"] for r in results) == 334
    assert mf.done_units(out_dir) == {0, 1, 2, 3, 4}

    import ray.data

    assert ray.data.read_parquet(out_dir).count() == 500
    assert job_rows(out_dir) == in_process_rows


def test_giant_cap_above_default_reaches_the_main_lane(ray_session, tmp_path):
    """A payload between the default 64 MiB cap and a larger ``giant_cap``
    is extracted by the main lane, not turned into a ``giant:`` row."""
    import ray.data

    from pdf_parser_ray.pipelines.extract_pipeline import run_extract_job
    from pdf_parser_ray.stages.extract import GIANT_ROW_BYTES

    pages = str(tmp_path / "pages.parquet")
    payload = b"%PDF-" + b"\0" * (GIANT_ROW_BYTES + 12)
    pq.write_table(
        pa.table(
            {
                "url": ["https://x.example/p/1"],
                "warc_ts": pa.array([0], pa.int64()).cast(pa.timestamp("us")),
                "html": pa.array([payload], pa.binary()),
                "lang": ["en"],
            }
        ),
        pages,
    )
    out_dir = str(tmp_path / "job")
    results = run_extract_job(
        pages,
        out_dir,
        num_units=1,
        num_partitions=4,
        concurrency=1,
        giant_cap=GIANT_ROW_BYTES + 2**20,
    )
    assert [(r["unit_id"], r["rows"]) for r in results] == [(0, 1), (1, 0)]
    (row,) = ray.data.read_parquet(out_dir, columns=["nbytes", "error"]).take_all()
    assert row["nbytes"] == GIANT_ROW_BYTES + 17
    assert not row["error"].startswith("giant:")


def test_staged_giant_lane_reads_the_staged_layout(
    ray_session, pages_path, in_process_rows, tmp_path
):
    """Staging puts rows over ``giant_cap`` in the giant-lane unit, which
    then reads only that directory; output equals an in-process
    ``Extractor``'s, per-unit counts (empty units included) equal the
    routed pages', and a layout staged for another cap is refused."""
    import ray.data

    from pdf_parser_ray.pipelines.extract_pipeline import (
        run_extract_job,
        stage_pages,
        unit_range,
    )
    from pdf_parser_ray.stages.route import make_router

    out_dir = str(tmp_path / "staged")
    # 4 units over 2 partitions: units 0 and 2 get no partition
    results = run_extract_job(
        pages_path,
        out_dir,
        num_units=4,
        num_partitions=2,
        concurrency=2,
        giant_cap=1500,
        staging_dir=str(tmp_path / "staging"),
    )
    counts = [(r["unit_id"], r["rows"]) for r in results]
    routed = make_router(2)(pq.read_table(pages_path, columns=["url", "html"]))
    pids = routed["partition_id"].to_pylist()
    sizes = routed["nbytes"].to_pylist()

    def unit_rows(u):
        lo, hi = unit_range(u, 4, 2)
        return sum(lo <= p < hi and n <= 1500 for p, n in zip(pids, sizes))

    expected = [(u, unit_rows(u)) for u in range(4)]
    assert counts == expected + [(4, sum(n > 1500 for n in sizes))]
    assert [u for u, n in counts if n == 0] == [0, 2]
    assert job_rows(out_dir) == in_process_rows and len(in_process_rows) == 500

    giant = ray.data.read_parquet(
        str(tmp_path / "staging" / "unit_id=4"), columns=["url", "nbytes"]
    ).to_pandas()
    pages = pq.read_table(pages_path, columns=["url", "html"]).to_pandas()
    big = {u for u, h in zip(pages["url"], pages["html"]) if len(h or b"") > 1500}
    assert big and set(giant["url"]) == big and (giant["nbytes"] > 1500).all()
    with pytest.raises(ValueError, match="staging dir"):
        stage_pages(
            pages_path,
            str(tmp_path / "staging"),
            num_partitions=2,
            num_units=4,
            giant_cap=3000,
        )


def test_resume_param_mismatch_refused(ray_session, tmp_path):
    from pdf_parser_ray.pipelines.extract_pipeline import run_extract_job
    from pdf_parser_ray.sources.synth import build_pages_table

    pages_path = build_pages_table("/root/testdata/sf0.001")
    out_dir = str(tmp_path / "job")
    run_extract_job(pages_path, out_dir, num_units=2, num_partitions=8, concurrency=1)
    with pytest.raises(ValueError, match="resume parameter mismatch"):
        run_extract_job(
            pages_path, out_dir, num_units=4, num_partitions=8, concurrency=1
        )
    # resume=False restarts cleanly with the new grid
    results = run_extract_job(
        pages_path,
        out_dir,
        num_units=4,
        num_partitions=8,
        concurrency=1,
        resume=False,
    )
    assert sum(r["rows"] for r in results) == 500


def test_auto_staging_at_high_unit_count(ray_session, in_process_rows, tmp_path):
    """Without a staging dir the job stages into the fingerprint-keyed
    ``<out>_staging_<key>`` sibling; at 32 units its output still equals
    an in-process ``Extractor``'s."""
    from pdf_parser_ray.pipelines.extract_pipeline import run_extract_job
    from pdf_parser_ray.sources.synth import build_pages_table

    pages = build_pages_table("/root/testdata/sf0.001")
    out = str(tmp_path / "auto")
    results = run_extract_job(
        pages, out, num_units=32, num_partitions=64, concurrency=1
    )
    assert sum(r["rows"] for r in results) == 500
    import glob

    staged = glob.glob(str(tmp_path / "auto_staging_*"))
    assert staged and any("unit_id=" in p for p in glob.glob(staged[0] + "/*"))
    assert job_rows(out) == in_process_rows


def test_stage_dir_grid_mismatch_refused(ray_session, tmp_path):
    """A staged layout is only valid for the grid that built it —
    reusing it under a different unit count would silently drop rows."""
    from pdf_parser_ray.pipelines.extract_pipeline import stage_pages
    from pdf_parser_ray.sources.synth import build_pages_table

    pages = build_pages_table("/root/testdata/sf0.001")
    staging = str(tmp_path / "st")
    stage_pages(pages, staging, num_partitions=64, num_units=8)
    # same grid: idempotent reuse
    stage_pages(pages, staging, num_partitions=64, num_units=8)
    with pytest.raises(ValueError, match="staging dir"):
        stage_pages(pages, staging, num_partitions=64, num_units=4)


def test_staging_key_tracks_input_fingerprint(ray_session, tmp_path):
    """Regenerating the input at the same path must map to a FRESH
    auto-derived staging dir (fingerprint is part of the key), not
    hard-fail against the stale layout's grid marker."""
    import time

    from pdf_parser_ray.pipelines.extract_pipeline import run_extract_job
    from pdf_parser_ray.sources import synth

    src = tmp_path / "pages"
    src.mkdir()

    def write_input(n):
        t = pa.table(
            {
                "doc_id": pa.array(list(range(n)), pa.int64()),
                "text": pa.array([f"doc {i} words here" for i in range(n)]),
                "lang": pa.array(["en"] * n),
            }
        )
        pages = synth.synth_batch(t)
        pq.write_table(pages, src / "part.parquet")

    out = tmp_path / "out"
    write_input(30)
    run_extract_job(str(src), str(out), num_units=32, num_partitions=64)
    stagings = [d for d in os.listdir(tmp_path) if "_staging_" in d]
    assert len(stagings) == 1

    # regenerate the input at the SAME path (different content + mtime)
    time.sleep(1.1)  # ensure the mtime component of the fingerprint moves
    write_input(40)
    import shutil

    shutil.rmtree(out)
    res = run_extract_job(str(src), str(out), num_units=32, num_partitions=64)
    assert sum(r["rows"] for r in res) == 40  # fresh staging, fresh rows
    stagings = [d for d in os.listdir(tmp_path) if "_staging_" in d]
    assert len(stagings) == 2  # new fingerprint -> new staging dir


def test_cli_run_extract_and_manifest(ray_session, tmp_path, capsys):
    """The `ray job submit` entrypoint end to end: synth -> run-extract
    -> manifest, all through cli.main (Ray already initialised, as on a
    cluster)."""
    import json

    from pdf_parser_ray import cli
    from pdf_parser_ray.sources.synth import build_pages_table

    pages = build_pages_table("/root/testdata/sf0.001", repeat=1)
    out = str(tmp_path / "out")
    rc = cli.main(
        [
            "run-extract",
            "--input", pages,
            "--out", out,
            "--units", "2",
            "--partitions", "8",
        ]
    )
    assert rc in (0, None)
    capsys.readouterr()
    rc = cli.main(["manifest", "--out", out])
    assert rc in (0, None)
    man = json.loads(capsys.readouterr().out)
    units = man["units"] if isinstance(man, dict) and "units" in man else man
    entries = list(units.values()) if isinstance(units, dict) else list(units)
    assert len(entries) >= 2  # 2 data units (+ possible summary entry)
    assert sum(u["rows"] for u in entries) == 500


_SMALL_CLAIM_JOB = """
import collections, glob, os, sys
import pyarrow.parquet as pq
import ray
import ray.data

ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
from pdf_parser_ray.pipelines.extract_pipeline import build_extract_ds, run_extract_job
from pdf_parser_ray.sources.synth import synth_batch

tmp = sys.argv[2]
docs = pq.read_table(sys.argv[3]).slice(0, 200)
pages = os.path.join(tmp, "pages.parquet")
pq.write_table(synth_batch(docs), pages)
build_extract_ds(ray.data.read_parquet(pages)).write_parquet(os.path.join(tmp, "ds"))
run_extract_job(pages, os.path.join(tmp, "job"), num_units=2)
for out in ("ds", os.path.join("job", "unit=*")):
    urls = [u for f in glob.glob(os.path.join(tmp, out, "*.parquet"))
            for u in pq.read_table(f, columns=["url"])["url"].to_pylist()]
    counts = collections.Counter(urls)
    assert len(counts) == 200 and set(counts.values()) == {1}, (out, len(urls))
ray.shutdown()
print("ok")
"""


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_default_pools_finish_on_small_claim(num_cpus, tmp_path):
    """At a 1- or 2-CPU claim the default actor pools must leave a CPU to
    the read/route/write tasks: an actor pool holding every CPU leaves
    ReadParquet unschedulable and the job hangs. Runs in its own Ray
    (the shared ``ray_session`` fixture claims 4 CPUs), in a subprocess
    under a timeout."""
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.Popen(
        [sys.executable, "-c", _SMALL_CLAIM_JOB, str(num_cpus), str(tmp_path),
         os.path.join(SF, "documents.parquet")],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        pytest.fail(f"extract job at num_cpus={num_cpus} did not finish:\n{out[-2000:]}")
    assert proc.returncode == 0 and out.rstrip().endswith("ok"), out[-2000:]
