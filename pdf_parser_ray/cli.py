"""CLI entrypoints — the ``ray job submit`` surface (north_rule).

On a real cluster:

    ray job submit --working-dir . -- \
        python -m pdf_parser_ray.cli run-extract \
        --input s3://bucket/pages/ --out s3://bucket/extracted/ \
        --units 1024 --partitions 65536

In this sandbox the same command runs against local parquet with
``ray.init(address="local")``. The job is resumable: rerunning with the
same --out skips committed units (see state/manifest.py).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus is not None:
            kwargs["num_cpus"] = num_cpus
            kwargs["address"] = "local"
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pdf_parser_ray")
    parser.add_argument("--num-cpus", type=int, default=None,
                        help="local-mode CPU count (omit on a cluster)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run-extract", help="resumable extraction job")
    p_run.add_argument("--input", required=True, help="pages parquet path/dir")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--units", type=int, default=8)
    p_run.add_argument("--partitions", type=int, default=256)
    p_run.add_argument("--batch-size", type=int, default=128)
    p_run.add_argument("--no-resume", action="store_true")
    p_run.add_argument("--staging-dir", default=None,
                       help="where the routed input is hive-staged by unit "
                            "(default: an <out>_staging_<key> sibling; "
                            "see DESIGN.md \"Unit reads\")")

    p_synth = sub.add_parser("synth", help="build the synthetic pages table")
    p_synth.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p_synth.add_argument("--repeat", type=int, default=1)

    p_man = sub.add_parser("manifest", help="print a job's lineage manifest")
    p_man.add_argument("--out", required=True)

    # the reference CLI's shape (src/main.rs:10-48): one file in, page
    # images out as {page}-{image}.jpg (src/main.rs:36-42 parity, via
    # the engine's own baseline JPEG encoder)
    p_img = sub.add_parser(
        "extract-images", help="reference-CLI equivalent: page images from one PDF"
    )
    p_img.add_argument("pdf", help="path to a PDF file")
    p_img.add_argument("--pages", default="1-5",
                       help="page range, e.g. 1-5 (reference default)")
    p_img.add_argument("--out", default=".", help="output directory")

    args = parser.parse_args(argv)

    if args.cmd == "extract-images":
        import os

        from .pdfcore.document import PdfDocument

        buf = open(args.pdf, "rb").read()
        doc = PdfDocument(buf)
        lo, _, hi = args.pages.partition("-")
        pages = list(range(int(lo), int(hi or lo) + 1))
        pages = [p for p in pages if 1 <= p <= len(doc.pages)]
        os.makedirs(args.out, exist_ok=True)
        written = []
        from .pdfcore.jpeg import encode_jpeg

        # filenames enumerate the RESULT list (0-based), exactly like the
        # reference CLI (src/main.rs:30-37): first requested page -> 0-*.jpg
        for out_idx, images in enumerate(doc.extract_images(pages)):
            for idx, img in enumerate(images):
                path = os.path.join(args.out, f"{out_idx}-{idx}.jpg")
                with open(path, "wb") as f:
                    f.write(
                        encode_jpeg(img["rgb"], img["width"], img["height"], 3)
                    )
                written.append(path)
        print(json.dumps({"pages": pages, "images_written": written}))
        return 0

    if args.cmd == "manifest":
        from .state import manifest as mf

        print(json.dumps(mf.read_manifest(args.out), indent=2))
        return 0

    _ensure_ray(args.num_cpus)
    try:
        if args.cmd == "synth":
            from .sources.synth import build_pages_table

            path = build_pages_table(args.sf_dir, repeat=args.repeat)
            print(json.dumps({"pages_path": path}))
        elif args.cmd == "run-extract":
            from .pipelines.extract_pipeline import run_extract_job

            results = run_extract_job(
                args.input,
                args.out,
                num_units=args.units,
                num_partitions=args.partitions,
                batch_size=args.batch_size,
                resume=not args.no_resume,
                staging_dir=args.staging_dir,
            )
            print(json.dumps({"units_processed": results}))
    finally:
        import ray

        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
