"""Driver-style correctness harness: run every queries() entry and its
oracle_sql() side-by-side on one sf dir; compare row count, schema and
an order-insensitive value hash (columns sorted by name, rows sorted).

Usage: python scripts/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(result):
    import pandas as pd
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canon(df):
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def main():
    args = [a for a in sys.argv[1:]]
    sf_dir = args[0] if args and os.path.isdir(args[0]) else "/root/testdata/sf0.01"
    only = set(args[1:]) if args and os.path.isdir(args[0]) else set(args)

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=len(os.sched_getaffinity(0)),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # oracles that reference the synth-time expected side table key its
    # path off this env var (the driver's default is sf0.01)
    os.environ["GRAFT_ORACLE_SF_DIR"] = sf_dir

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM '{os.path.join(sf_dir, t)}.parquet'"
        )

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.monotonic()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.monotonic() - t0
        sql = oracles.get(name)
        if sql is None:
            print(f"rows  {name}: {len(got)} rows ({dt:.1f}s) [rows-only]")
            continue
        try:
            exp = canon(con.sql(sql).df())
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = []
        if list(got.columns) != list(exp.columns):
            problems.append(f"columns {list(got.columns)} vs {list(exp.columns)}")
        elif len(got) != len(exp):
            problems.append(f"rows {len(got)} vs {len(exp)}")
        else:
            try:
                import pandas.testing as pdt

                pdt.assert_frame_equal(got, exp, check_dtype=False)
            except AssertionError as e:
                problems.append(str(e).split("\n")[0])
        if problems:
            print(f"FAIL  {name}: {'; '.join(problems)} ({dt:.1f}s)")
            mism = got.compare(exp) if got.shape == exp.shape else None
            if mism is not None and len(mism):
                print(mism.head(5))
            failures += 1
        else:
            print(f"ok    {name}: {len(got)} rows ({dt:.1f}s)")

    print(f"\n{failures} failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
