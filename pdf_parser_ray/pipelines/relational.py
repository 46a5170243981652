"""Relational operators (SURVEY.md §2.5-§2.7 engine mandates):
pre-aggregated groupbys, broadcast joins, sort/limit, windowed event
aggregation, sessionization.

Scale notes:
- Aggregations pre-combine inside ``map_batches`` (one partial row per
  key per batch) before the small ``groupby`` — the only shuffled data
  is the partial table, not the input (``agg.two_phase_agg``).
- Money sums use integer cents (``floor(x*100 + 0.5)``) so results are
  order-independent and bit-exact against the SQL oracle (double sums
  are not associative).
- Joins broadcast the small side (dimension dicts via closure capture —
  Ray ships the UDF once per task; for bigger dims use ray.put + get in
  actor ``__init__``). Both-large joins and per-user windows co-group
  their sides on the key (``agg.cogroup``) and work per bucket.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .agg import cogroup, mod_bucket, two_phase_agg


# version key for the /tmp JSONL/CSV export caches: bump when the
# exported projection changes, or stale caches serve the old layout
_EXPORT_VER = "v1|"


def _p(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _cents(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """double -> integer cents, half away from zero (matches SQL
    CAST(FLOOR(x*100 + 0.5) AS BIGINT) for non-negative x)."""
    return pc.cast(
        pc.floor(pc.add(pc.multiply(col, pa.scalar(100.0)), pa.scalar(0.5))),
        pa.int64(),
    )


def _hour(ts: pa.ChunkedArray) -> pa.ChunkedArray:
    """timestamp[us] -> int64 hours since the epoch."""
    return pc.divide(pc.cast(ts, pa.int64()), pa.scalar(3_600_000_000, pa.int64()))


# integer-cents revenue and row count per key (the per-order demos)
REVENUE_AGGS = {"revenue_cents": ("revenue_cents", "sum"), "n_orders": (None, "rows")}
# integer-cents value and event count per key (the per-event demos)
EVENT_AGGS = {"value_cents": ("value_cents", "sum"), "n_events": (None, "rows")}


def doc_stats_by_lang(sf_dir: str):
    """lang -> n_docs, sum_chars (partial-agg -> tiny groupby)."""
    import ray.data

    ds = ray.data.read_parquet(_p(sf_dir, "documents"), columns=["lang", "n_chars"])
    return two_phase_agg(
        ds, "lang", {"n_docs": (None, "rows"), "sum_chars": ("n_chars", "sum")}
    )


def lineitem_agg(sf_dir: str):
    """TPC-H Q1-shaped: returnflag/linestatus -> qty, cents, count."""
    import ray.data

    ds = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def prepare(t: pa.Table) -> pa.Table:
        t = t.append_column("qty", pc.cast(t["l_quantity"], pa.int64()))
        return t.append_column("price_cents", _cents(t["l_extendedprice"]))

    return two_phase_agg(
        ds,
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("qty", "sum"),
            "sum_price_cents": ("price_cents", "sum"),
            "n_rows": (None, "rows"),
        },
        prepare,
    )


def orders_by_nation(sf_dir: str):
    """Broadcast join: orders |X| customer |X| nation -> per-nation
    order count + revenue cents. Both dimension tables are tiny; they
    ride into every task as a numpy lookup (no shuffle)."""
    import pyarrow.parquet as pq
    import ray.data

    cust = pq.read_table(_p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    cust_to_nation = dict(
        zip(cust["c_custkey"].to_pylist(), cust["c_nationkey"].to_pylist())
    )
    nation_name = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )

    ds = ray.data.read_parquet(
        _p(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"]
    )

    def prepare(t: pa.Table) -> pa.Table:
        names = [
            nation_name[cust_to_nation[ck]] for ck in t["o_custkey"].to_pylist()
        ]
        return pa.table(
            {
                "n_name": pa.array(names, type=pa.string()),
                "revenue_cents": _cents(t["o_totalprice"]),
            }
        )

    return two_phase_agg(ds, "n_name", REVENUE_AGGS, prepare)


def orders_join_native(sf_dir: str):
    """Large-large hash join via Ray Data's native ``Dataset.join``
    (hash-partitioned on the key): orders |X| customer -> per-segment
    order counts + revenue cents. Complements the broadcast join above
    for the case where neither side fits a broadcast."""
    import ray.data

    orders = ray.data.read_parquet(
        _p(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"]
    )
    cust = ray.data.read_parquet(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    joined = orders.join(
        cust,
        join_type="inner",
        num_partitions=8,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def prepare(t: pa.Table) -> pa.Table:
        return t.append_column("revenue_cents", _cents(t["o_totalprice"]))

    return two_phase_agg(joined, "c_mktsegment", REVENUE_AGGS, prepare)


def top_docs_by_chars(sf_dir: str, k: int = 10):
    """sort + limit with deterministic tie-break (n_chars desc, doc_id asc)."""
    import ray.data

    ds = ray.data.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(k)


def events_hourly(sf_dir: str):
    """Tumbling 1-hour windows per event_type: n events + value cents."""
    import ray.data

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["event_type", "ts", "value"]
    )

    def prepare(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "hour": _hour(t["ts"]),
                "value_cents": _cents(t["value"]),
            }
        )

    return two_phase_agg(ds, ["event_type", "hour"], EVENT_AGGS, prepare)


def events_sliding(sf_dir: str, window_hours: int = 2, hop_hours: int = 1):
    """SLIDING (hopping) windows per event_type: a 2-hour window every
    1 hour — each event belongs to window_hours/hop_hours windows.

    Shape: the window fan-out happens INSIDE the batch (each row
    duplicated once per covering window, vectorized concat) and the
    partial aggregate collapses it before the shuffle — the exchange
    carries one partial row per (type, window, batch), never the
    fanned-out events. The streaming-engine hop/window knobs are
    parameters; watermarking at fleet scale = partition the read by
    arrival date so late data reopens only its own partition's
    windows."""
    import ray.data

    n_covers = window_hours // hop_hours
    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["event_type", "ts", "value"]
    )

    def prepare(t: pa.Table) -> pa.Table:
        hour = _hour(t["ts"])
        cents = _cents(t["value"])
        return pa.concat_tables(
            pa.table(
                {
                    "event_type": t["event_type"],
                    "win_start": pc.subtract(hour, pa.scalar(off, pa.int64())),
                    "value_cents": cents,
                }
            )
            for off in range(n_covers)
        )

    return two_phase_agg(ds, ["event_type", "win_start"], EVENT_AGGS, prepare)


def events_minmax(sf_dir: str):
    """Min/Max/Count aggregate family per event_type (integer cents)."""
    import ray.data

    ds = ray.data.read_parquet(_p(sf_dir, "events"), columns=["event_type", "value"])
    return two_phase_agg(
        ds,
        "event_type",
        {
            "min_cents": ("value_cents", "min"),
            "max_cents": ("value_cents", "max"),
            "n": (None, "rows"),
        },
        lambda t: t.append_column("value_cents", _cents(t["value"])),
    )


# Coarsened user shuffle: the per-user windows co-group on user_id %
# USER_BUCKETS, so ~n_users/64 users share one distributed group and
# the window runs as ONE vectorized pandas groupby inside it — millions
# of distinct users never become millions of per-user Python calls.
# At fleet scale raise it with cluster size; a skewed single user stays
# bounded because its events fit one group or the window is meaningless.
USER_BUCKETS = 64


def events_running(sf_dir: str):
    """Ordered window function: per-user running event number by
    (ts, event_id). Bucket-coarsened co-group (see USER_BUCKETS);
    the window itself is a vectorized sort + groupby-cumcount over the
    whole bucket — the engine's general recipe for ROW_NUMBER/LAG/
    cumulative windows."""
    import ray.data

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )

    def window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        return pd.DataFrame(
            {
                "event_id": g["event_id"].astype("int64"),
                "running_n": (g.groupby("user_id").cumcount() + 1).astype("int64"),
            }
        )

    return cogroup(ds, "user_id", USER_BUCKETS, window)


def sessions_per_user(sf_dir: str, gap_sec: int = 1800):
    """Sessionization: bucket-coarsened shuffle co-locates users; the
    per-user session count is one vectorized pandas pipeline per
    bucket (sort -> diff -> boundary sum), never per-user Python."""
    import ray.data

    ds = ray.data.read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        ts = g["ts"].astype("int64") // 1_000_000
        new_user = g["user_id"].ne(g["user_id"].shift())
        boundary = new_user | (ts.diff() > gap_sec)
        out = (
            pd.DataFrame({"user_id": g["user_id"], "b": boundary})
            .groupby("user_id", as_index=False)["b"]
            .sum()
        )
        return pd.DataFrame(
            {
                "user_id": out["user_id"].astype("int64"),
                "n_sessions": out["b"].astype("int64"),
            }
        )

    return cogroup(ds, "user_id", USER_BUCKETS, sessions)


def events_props_agg(sf_dir: str):
    """Semi-structured extraction: parse the JSON ``props`` column and
    aggregate the extracted field per event_type. The hot path is a
    vectorized Arrow regex extract (the corpus is schema-stable
    ``{"k": int}``); swap for a real JSON kernel (pyarrow/simdjson)
    when props are heterogeneous."""
    import ray.data

    ds = ray.data.read_parquet(_p(sf_dir, "events"), columns=["event_type", "props"])

    def prepare(t: pa.Table) -> pa.Table:
        k = pc.extract_regex(t["props"], r'"k":\s*(?P<k>-?\d+)')
        return t.append_column("k", pc.cast(pc.struct_field(k, "k"), pa.int64()))

    return two_phase_agg(
        ds, "event_type", {"sum_k": ("k", "sum"), "n_events": (None, "rows")}, prepare
    )


def events_asof_join(sf_dir: str, left_type: str = "click", right_type: str = "view"):
    """AS-OF (temporal) join: each ``left_type`` event matched to the
    LATEST ``right_type`` event of the same user strictly ordered
    before it by (ts, event_id) — the classic point-in-time lookup
    Ray Data has no native operator for.

    Shape: prune both sides at the scan (only 4 columns, only the two
    event types), bucket-coarsen the user shuffle (one groupby), then
    inside each group ONE vectorized pandas pass: sort by (user, ts,
    id), forward-fill the right-side event ids within each user, and
    keep left rows with a fill — O(n log n) per group, no per-user
    Python dispatch, no per-row probe. Emits matched pairs only (so
    the oracle hash stays int64-clean)."""
    import ray.data

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "ts"]
    )

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.or_(
            pc.equal(t["event_type"], left_type),
            pc.equal(t["event_type"], right_type),
        )
        t = t.filter(keep)
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "is_left": pc.equal(t["event_type"], left_type),
                "ts_us": t["ts"].cast(pa.int64()),
            }
        )

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        right_ids = g["event_id"].where(~g["is_left"])
        # ffill within user: the latest right-side id at-or-before each
        # row in the strict (ts, event_id) order; left rows never
        # pollute the fill, and a row never matches itself (it is left)
        matched = right_ids.groupby(g["user_id"]).ffill()
        out = g[g["is_left"] & matched.notna()]
        return pd.DataFrame(
            {
                "event_id": out["event_id"].astype("int64"),
                "view_event_id": matched[out.index].astype("int64"),
            }
        )

    return cogroup(
        ds.map_batches(prep, batch_format="pyarrow"), "user_id", USER_BUCKETS, asof
    )


# size classes for the broadcast RANGE join (half-open [lo, hi))
SIZE_CLASSES = (
    ("xs", 0, 150),
    ("s", 150, 300),
    ("m", 300, 450),
    ("l", 450, 1 << 62),
)


def doc_size_ranges(sf_dir: str):
    """Broadcast RANGE join: documents joined to a small interval
    table on ``lo <= n_chars < hi``, then counted per class.

    Shape: the interval table is tiny and sorted, so the join is a
    vectorized ``np.searchsorted`` against its lower bounds inside
    ``map_batches`` — a broadcast range join with zero shuffle; the
    only exchange is the 4-row count aggregate. The same recipe covers
    any banded/interval join (IP→geo, ts→calendar) at fleet scale."""
    import ray.data

    ds = ray.data.read_parquet(_p(sf_dir, "documents"), columns=["n_chars"])
    lows = np.array([lo for _, lo, _ in SIZE_CLASSES], dtype=np.int64)
    names = pa.array([name for name, _, _ in SIZE_CLASSES], pa.string())

    def classify(t: pa.Table) -> pa.Table:
        n = t["n_chars"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(lows, n, side="right") - 1
        return pa.table({"size_class": names.take(idx)})

    return two_phase_agg(ds, "size_class", {"n_docs": (None, "rows")}, classify)


def top_docs_per_lang(sf_dir: str, k: int = 3):
    """Top-k PER GROUP (largest docs per language) — the grouped
    variant of sort+limit.

    Shape: each batch pre-reduces to its local top-k per lang (pandas
    head over a sorted batch), so the shuffle carries at most
    k x langs x batches rows; the final per-lang groupby re-ranks the
    partials. The global ``sort().limit()`` pattern never touches the
    data — this is the push-down that keeps grouped top-k off the
    all-to-all path at fleet scale."""
    import ray.data

    ds = ray.data.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "lang", "n_chars"]
    )

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(
                ["lang", "n_chars", "doc_id"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("lang", sort=False)
            .head(k)
        )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["n_chars", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pd.DataFrame(
            {
                "lang": g["lang"],
                "doc_id": g["doc_id"].astype("int64"),
                "n_chars": g["n_chars"].astype("int64"),
                "rank": np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    return (
        ds.map_batches(local_topk, batch_format="pandas")
        .groupby("lang")
        .map_groups(final_topk, batch_format="pandas")
    )


def chars_quantiles(sf_dir: str, quantiles=(50, 90)):
    """Exact per-group discrete quantiles (p50/p90 of n_chars per
    lang): value at 1-based rank ceil(q*n) of the sorted group —
    deterministic regardless of tie order (same multiset).

    Shape: one groupby co-locates each lang's values (8 B/row); the
    quantile is a vectorized np.sort + index per group. Exact-by-sort
    is right while a group's values fit one worker (int columns at
    millions of rows); past that, swap the same stage for a mergeable
    sketch (t-digest/KLL) with identical output schema."""
    import math

    import ray.data

    ds = ray.data.read_parquet(_p(sf_dir, "documents"), columns=["lang", "n_chars"])

    def q_of_group(g: pd.DataFrame) -> pd.DataFrame:
        vals = np.sort(g["n_chars"].to_numpy())
        n = len(vals)
        rows = [
            (g["lang"].iloc[0], q, int(vals[max(0, math.ceil(q / 100 * n) - 1)]))
            for q in quantiles
        ]
        return pd.DataFrame(rows, columns=["lang", "q_pct", "value"]).astype(
            {"q_pct": "int64", "value": "int64"}
        )

    return ds.groupby("lang").map_groups(q_of_group, batch_format="pandas")


def sample_10pct(sf_dir: str):
    """Deterministic 10% sample (doc_id % 10 == 0) — the reproducible
    stand-in for ``ds.random_sample(0.1, seed=...)`` whose row set a
    SQL oracle can state exactly. Vectorized filter inside map_batches
    (faster than ds.filter's per-row path)."""
    import ray.data

    ds = ray.data.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "lang"])

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(mod_bucket(t["doc_id"], 10), 0))

    return ds.map_batches(pick, batch_format="pyarrow")


def route_counts_ds(extracted_ds):
    """kind -> row count over an extraction output Dataset."""
    return extracted_ds.groupby("kind").count()


# -- Bloom-prefiltered semi-join ---------------------------------------------


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constant mix):
    uint64 -> well-distributed uint64."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bloom_positions(keys: np.ndarray, m_bits: int, n_hashes: int):
    """Double-hashed bit positions h1 + i*h2 (mod m) for each key:
    yields n_hashes arrays of uint64 positions."""
    k = keys.astype(np.uint64)
    h1 = _splitmix64(k)
    h2 = _splitmix64(k ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
    m = np.uint64(m_bits)
    for i in range(n_hashes):
        yield (h1 + np.uint64(i) * h2) % m


def _bloom_set(keys: np.ndarray, m_bits: int, n_hashes: int) -> np.ndarray:
    bits = np.zeros(m_bits // 64, dtype=np.uint64)
    for pos in _bloom_positions(keys, m_bits, n_hashes):
        np.bitwise_or.at(
            bits, (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )
    return bits


def _bloom_test(keys: np.ndarray, bits: np.ndarray, m_bits: int, n_hashes: int):
    ok = np.ones(len(keys), dtype=bool)
    for pos in _bloom_positions(keys, m_bits, n_hashes):
        word = bits[(pos >> np.uint64(6)).astype(np.int64)]
        ok &= (word >> (pos & np.uint64(63))) & np.uint64(1) != 0
    return ok


def bloom_semi_join(sf_dir: str, m_bits: int = 1 << 20, n_hashes: int = 4):
    """Bloom-prefiltered exact semi-join: lineitem rows belonging to a
    '1-URGENT' order -> per-returnflag row count + revenue cents.

    The classic shuffle-join optimization at fleet scale: before the
    hash-partitioned exact join, every probe-side task drops rows that
    CANNOT match using a broadcast Bloom filter built from the build
    side. False positives (< 1% at m=2^20 / k=4 for these key counts)
    still enter the shuffle; the exact join removes them, so the result
    is EXACT and the oracle is a plain SQL semi-join. What the bloom
    buys is the exchange: only ~|matching| + fp probe rows are hash
    partitioned instead of ALL of lineitem.

    Distributed shape:
    1. build side: orders scan projected to (o_orderkey) for the urgent
       arm (at fleet scale o_orderpriority is a partition column and the
       read prunes to one arm); per-batch partial bitmaps (fixed 128 KiB
       each at m=2^20, independent of corpus size) OR-folded in a
       repartition tree, broadcast once via ray.put;
    2. probe side: vectorized double-hash membership test inside
       map_batches BEFORE any exchange;
    3. survivors hash-join (Dataset.join) against the key set, then
       partial-agg -> small groupby. (Measured head-to-head against a
       co-shuffled reduce-side semi-join: the native hash join wins
       here, ~4.4 s vs ~5.5-6.5 s at sf0.1 — the build side is DENSE,
       so Dataset.join's empty-partition aggregator trap cannot fire;
       sparse key sides must use the co-group pattern instead, see
       customers_no_orders / dup_span_removal.)
    """
    import ray
    import ray.data

    # materialized once: both the bitmap build and the exact join
    # consume the key set, and a lazy plan would re-scan orders per
    # consumer (the object store holds/spills the filtered keys)
    urgent = ray.data.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")).select(
            ["o_orderkey"]
        ),
        batch_format="pyarrow",
    ).materialize()

    def partial_bloom(t: pa.Table) -> pa.Table:
        keys = t["o_orderkey"].to_numpy().astype(np.int64)
        bits = _bloom_set(keys, m_bits, n_hashes)
        return pa.table({"bitmap": pa.array([bits.tobytes()], pa.binary())})

    def or_fold(t: pa.Table) -> pa.Table:
        acc = np.zeros(m_bits // 64, dtype=np.uint64)
        for b in t["bitmap"].to_pylist():
            acc |= np.frombuffer(b, dtype=np.uint64)
        return pa.table({"bitmap": pa.array([acc.tobytes()], pa.binary())})

    # OR-fold the per-batch bitmaps in a small repartition tree; the
    # result is ONE fixed-size row — materializing it on the driver is
    # a scalar-sized reduction, not a dataset materialization.
    folded = (
        urgent.map_batches(partial_bloom, batch_format="pyarrow")
        .repartition(8)
        .map_batches(or_fold, batch_format="pyarrow")
        .repartition(1)
        .map_batches(or_fold, batch_format="pyarrow")
        .take(1)
    )
    bits = np.frombuffer(folded[0]["bitmap"], dtype=np.uint64)
    bits_ref = ray.put(bits)

    probe = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_returnflag", "l_extendedprice"],
    )

    def prefilter(t: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)  # zero-copy plasma read, once per task
        keys = t["l_orderkey"].to_numpy().astype(np.int64)
        return t.filter(pa.array(_bloom_test(keys, b, m_bits, n_hashes)))

    survivors = probe.map_batches(prefilter, batch_format="pyarrow")
    joined = survivors.join(
        urgent,
        join_type="inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    return two_phase_agg(
        joined,
        "l_returnflag",
        {"revenue_cents": ("revenue_cents", "sum"), "n_rows": (None, "rows")},
        lambda t: t.append_column("revenue_cents", _cents(t["l_extendedprice"])),
    )


# -- JSONL source roundtrip --------------------------------------------------


def _export_cache_dir(prefix: str, sf_dir: str) -> str:
    """Cache key = version + path + INPUT FINGERPRINT (size+mtime of
    events.parquet), so a regenerated events table at the same path
    gets a fresh export instead of the stale one — the same staleness
    class extract_pipeline._input_fingerprint guards against."""
    import hashlib

    from .extract_pipeline import _input_fingerprint

    src = _p(sf_dir, "events")
    return os.path.join(
        prefix,
        hashlib.sha1(
            (
                _EXPORT_VER
                + os.path.abspath(sf_dir)
                + "|"
                + _input_fingerprint(src)
            ).encode()
        ).hexdigest()[:12],
    )


def _publish_export(prefix: str, sf_dir: str, write_fn) -> str:
    """Write-once export publication, safe under concurrent processes
    (bench + oracle check interleave): write into a private
    ``<cache>.tmp.<pid>`` dir, then ``os.rename`` to the final path —
    readers only ever see a COMPLETE export (the build_pages_table
    tmp+rename pattern). A loser of the rename race discards its tmp
    dir and uses the winner's."""
    import shutil

    cache = _export_cache_dir(prefix, sf_dir)
    if os.path.isdir(cache):
        return cache
    tmp = f"{cache}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    write_fn(tmp)
    try:
        os.rename(tmp, cache)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # lost the race
    return cache


def _ensure_jsonl_export(sf_dir: str) -> str:
    """Write the projected events JSONL export once per (sf, version,
    input fingerprint); the export itself is the only work — no
    aggregate runs here."""
    import ray.data

    def write(tmp: str) -> None:
        ray.data.read_parquet(
            _p(sf_dir, "events"), columns=["event_id", "event_type", "value"]
        ).write_json(tmp)

    return _publish_export("/tmp/graft_jsonl_cache", sf_dir, write)


def _ensure_csv_export(sf_dir: str) -> str:
    """Same for CSV, with doubles cast to integer cents BEFORE export
    (CSV float printing is writer-dependent, integers are not)."""
    import ray.data

    def write(tmp: str) -> None:
        ray.data.read_parquet(
            _p(sf_dir, "events"), columns=["event_id", "event_type", "value"]
        ).map_batches(
            lambda t: pa.table(
                {
                    "event_id": pc.cast(t["event_id"], pa.int64()),
                    "event_type": t["event_type"],
                    "value_cents": _cents(t["value"]),
                }
            ),
            batch_format="pyarrow",
        ).write_csv(tmp)

    return _publish_export("/tmp/graft_csv_cache", sf_dir, write)


def _event_id_agg(ds, cents_of):
    """Per event_type: value cents (``cents_of(batch)``), event-id range
    and event count — the aggregate of the source-roundtrip demos."""

    def prepare(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "value_cents": cents_of(t),
                "event_id": pc.cast(t["event_id"], pa.int64()),
            }
        )

    return two_phase_agg(
        ds,
        "event_type",
        {
            "value_cents": ("value_cents", "sum"),
            "min_event_id": ("event_id", "min"),
            "max_event_id": ("event_id", "max"),
            "n_events": (None, "rows"),
        },
        prepare,
    )


def events_jsonl_agg(sf_dir: str):
    """Source-format coverage: the events table is exported as JSONL
    (``Dataset.write_json``, one shard per block — the WET/WAT-style
    text-record ingestion format) and read back with
    ``ray.data.read_json``, then aggregated per event type.

    JSON is schemaless, so unlike the parquet scans there is no column
    pushdown at read time — the export PROJECTS to the needed columns
    before writing, the only place pruning can happen for this format
    (and why the parquet path is the default everywhere else). The
    export is cached under /tmp keyed by the source dir; doubles
    round-trip exactly (shortest-repr print, exact parse), so the
    integer-cents aggregate is bit-identical to the parquet oracle.
    """
    import ray.data

    ds = ray.data.read_json(_ensure_jsonl_export(sf_dir))
    return _event_id_agg(ds, lambda t: _cents(t["value"]))


def events_lag_delta(sf_dir: str):
    """LAG window: per-user microsecond gap to the previous event
    (ordered by ts, event_id); first event reports -1. Same
    bucket-coarsened shuffle + vectorized whole-bucket window as
    :func:`events_running` — the diff is a groupby-shift, never a
    per-user Python loop."""
    import ray.data

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )

    def window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = g["ts"].astype("int64")
        prev = ts_us.groupby(g["user_id"]).shift(1)
        delta = (ts_us - prev).fillna(-1).astype("int64")
        return pd.DataFrame(
            {
                "event_id": g["event_id"].astype("int64"),
                "user_id": g["user_id"].astype("int64"),
                "prev_gap_us": delta,
            }
        )

    return cogroup(ds, "user_id", USER_BUCKETS, window)


def customers_no_orders(sf_dir: str):
    """ANTI-join: per market segment, total customers and how many
    placed NO orders (never-empty result even when the anti side is
    empty, as it is on this data). Reduce-side anti-join: customer
    rows and distinct order custkeys co-group on custkey
    (``agg.cogroup``); inside a bucket group a vectorized isin flags
    the customers that ordered. No broadcast (the
    order-key side is corpus-sized at fleet scale) and no
    ``Dataset.join`` (anti isn't a supported join type, and sparse key
    sides hit its empty-partition aggregator trap)."""
    import ray.data
    from ray.data.aggregate import Sum

    cust = ray.data.read_parquet(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    # in-batch dedup: only distinct custkeys ride the shuffle
    order_keys = ray.data.read_parquet(
        _p(sf_dir, "orders"), columns=["o_custkey"]
    ).map_batches(
        lambda t: pa.table({"c_custkey": pc.unique(t["o_custkey"])}),
        batch_format="pyarrow",
    )

    def anti(custs: pd.DataFrame, ordered: pd.DataFrame) -> pd.DataFrame:
        if custs.empty:  # a bucket of order keys alone
            return pd.DataFrame()
        lone = ~custs["c_custkey"].isin(ordered.get("c_custkey", ()))
        custs = custs.assign(lone=lone.astype("int64"))
        out = custs.groupby("c_mktsegment", as_index=False).agg(
            n_customers=("c_custkey", "size"), n_without_orders=("lone", "sum")
        )
        out["n_customers"] = out["n_customers"].astype("int64")
        return out

    return (
        cogroup([cust, order_keys], "c_custkey", 64, anti)
        .groupby("c_mktsegment")
        .aggregate(
            Sum("n_customers", alias_name="n_customers"),
            Sum("n_without_orders", alias_name="n_without_orders"),
        )
    )


def lang_source_pivot(sf_dir: str):
    """PIVOT (wide aggregate): per source, one doc-count column per
    language. Each batch gets one 0/1 column per language, summed per
    source in two phases; the column set is the small KNOWN language
    domain, so the pivot has a fixed schema (data-dependent pivots need
    a domain-discovery pass first)."""
    import ray.data

    langs = ("en", "de", "fr", "es", "zh")
    ds = ray.data.read_parquet(_p(sf_dir, "documents"), columns=["lang", "source"])

    def one_hot(t: pa.Table) -> pa.Table:
        cols = {"source": t["source"]}
        for l in langs:
            hit = pc.fill_null(pc.equal(t["lang"], l), False)
            cols[f"n_{l}"] = pc.cast(hit, pa.int64())
        return pa.table(cols)

    return two_phase_agg(
        ds, "source", {f"n_{l}": (f"n_{l}", "sum") for l in langs}, one_hot
    )


def link_pagerank(sf_dir: str, n_iter: int = 3):
    """ITERATIVE graph algorithm: integer-exact PageRank over a
    deterministic link graph (every doc links to ``(id*7+1) % N`` and
    ``(id*13+2) % N``; out-degree exactly 2). ``n_iter`` synchronous
    iterations, damping 0.85 in integer arithmetic
    (``r' = 150000 + (85 * in_sum) // 100``, truncating on both sides,
    rank scaled by 1e6) — so the unrolled-CTE DuckDB oracle matches
    bit-for-bit; float PageRank would be order-dependent.

    Distributed shape per iteration (no joins — the edge list is
    formula-derived, so each task computes its nodes' OUT-contributions
    directly): map_batches emits 2 keyed contribution rows + 1 zero
    self-row per node, then one coarse-bucket exchange folds in-sums
    and applies the damping update, vectorized per bucket. For a
    materialized edge table the same shape works with contributions
    emitted from an (edges |X| ranks) co-partitioned zip — the classic
    Pregel step restated as Dataset exchanges.
    """
    import ray.data

    n_buckets = 64
    ds = ray.data.read_parquet(_p(sf_dir, "documents"), columns=["doc_id"])
    n_docs = ds.count()  # scalar only; the dataset itself still streams

    ranks = ds.map_batches(
        lambda t: pa.table(
            {
                "v": pc.cast(t["doc_id"], pa.int64()),
                "r": pa.array(
                    np.full(len(t), 1_000_000, dtype=np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def contribute(t: pa.Table) -> pa.Table:
        v = t["v"].to_numpy().astype(np.int64)
        r = t["r"].to_numpy().astype(np.int64)
        share = r // 2
        dst = np.concatenate([(v * 7 + 1) % n_docs, (v * 13 + 2) % n_docs, v])
        val = np.concatenate([share, share, np.zeros(len(v), np.int64)])
        return pa.table({"v": pa.array(dst), "c": pa.array(val)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("v", as_index=False)["c"].sum()
        return pd.DataFrame(
            {
                "v": s["v"].astype("int64"),
                "r": (150_000 + (85 * s["c"].astype("int64")) // 100).astype(
                    "int64"
                ),
            }
        )

    for _ in range(n_iter):
        ranks = cogroup(
            ranks.map_batches(contribute, batch_format="pyarrow"), "v", n_buckets, fold
        )

    return ranks.map_batches(
        lambda t: pa.table(
            {"doc_id": t["v"], "rank_scaled": t["r"]}
        ),
        batch_format="pyarrow",
    )


def events_csv_agg(sf_dir: str):
    """CSV sink + source roundtrip (``Dataset.write_csv`` ->
    ``ray.data.read_csv``), completing the source-format triad with
    :func:`events_jsonl_agg` (parquet / JSONL / CSV). Doubles are cast
    to integer cents BEFORE export — CSV float printing is
    writer-dependent, integers are not — so the re-read aggregate is
    bit-identical to the parquet oracle. Cached under /tmp keyed by the
    source dir."""
    import ray.data

    ds = ray.data.read_csv(_ensure_csv_export(sf_dir))
    return _event_id_agg(ds, lambda t: pc.cast(t["value_cents"], pa.int64()))


def events_rolling_sum(sf_dir: str, window: int = 3):
    """ROLLING window aggregate: per user, the sum of the last
    ``window`` event values (integer cents, current row inclusive),
    ordered by (ts, event_id). Same coarse-bucket shuffle as
    :func:`events_running`; the rolling sum is one vectorized
    pandas ``groupby(...).rolling`` per bucket."""
    import ray.data

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def add_cents(t: pa.Table) -> pa.Table:
        return t.append_column("value_cents", _cents(t["value"])).drop(["value"])

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        r = (
            g.groupby("user_id", sort=False)["value_cents"]
            .rolling(window, min_periods=1)
            .sum()
            .droplevel(0)  # back to g's index -> explicit realignment
            .reindex(g.index)
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"].astype("int64").to_numpy(),
                "rolling_cents": r.astype("int64").to_numpy(),
            }
        )

    return cogroup(
        ds.map_batches(add_cents, batch_format="pyarrow"), "user_id", USER_BUCKETS, roll
    )


def events_federated_agg(sf_dir: str):
    """FEDERATED read: one Dataset unioned from three source formats —
    parquet (event_id % 3 == 0), JSONL (== 1) and CSV (== 2), the
    latter two re-using the roundtrip exports of
    :func:`events_jsonl_agg` / :func:`events_csv_agg` — aggregated per
    event type. The result must equal the single-format whole-table
    aggregate, which is what the oracle states. Integer cents are
    normalized per arm BEFORE the union so the shuffled schema is
    identical regardless of source."""
    import ray.data

    jsonl_dir = _ensure_jsonl_export(sf_dir)
    csv_dir = _ensure_csv_export(sf_dir)

    def arm(t: pa.Table, residue: int, cents_col) -> pa.Table:
        eid = pc.cast(t["event_id"], pa.int64())
        keep = pc.equal(mod_bucket(eid, 3), pa.scalar(residue))
        t = pa.table(
            {"event_id": eid, "event_type": t["event_type"], "value_cents": cents_col(t)}
        ).filter(keep)
        return t

    pq_arm = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    ).map_batches(
        lambda t: arm(t, 0, lambda x: _cents(x["value"])), batch_format="pyarrow"
    )
    js_arm = ray.data.read_json(jsonl_dir).map_batches(
        lambda t: arm(t, 1, lambda x: _cents(x["value"])), batch_format="pyarrow"
    )
    csv_arm = ray.data.read_csv(csv_dir).map_batches(
        lambda t: arm(t, 2, lambda x: pc.cast(x["value_cents"], pa.int64())),
        batch_format="pyarrow",
    )

    return two_phase_agg(pq_arm.union(js_arm).union(csv_arm), "event_type", EVENT_AGGS)


def high_value_orders(sf_dir: str):
    """Expression-pushdown filter: ``Dataset.filter(expr=...)`` compiles
    the predicate to native Arrow compute (no Python UDF in the row
    path), demonstrated as a filter -> partial-agg -> tiny groupby
    plan: open high-value orders per priority."""
    import ray.data

    ds = ray.data.read_parquet(
        _p(sf_dir, "orders"),
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    ).filter(expr="o_totalprice > 300000 and o_orderstatus == 'O'")
    return two_phase_agg(
        ds,
        "o_orderpriority",
        REVENUE_AGGS,
        lambda t: t.append_column("revenue_cents", _cents(t["o_totalprice"])),
    )


def doc_rollup(sf_dir: str):
    """ROLLUP aggregate (hierarchical subtotals): doc counts + char
    sums at (lang, source), (lang) and grand-total levels, with ''
    as the rolled-up marker (what the SQL oracle COALESCEs NULL to).

    One corpus scan: each batch fans out to its three levels (the
    rolled-up key columns blanked) and the in-batch fold collapses
    them, so at most one partial row per (batch, level key) rides the
    one exchange — never the corpus, and never three scans."""
    import ray.data

    ds = ray.data.read_parquet(
        _p(sf_dir, "documents"), columns=["lang", "source", "n_chars"]
    )

    def levels(t: pa.Table) -> pa.Table:
        lang, src, blank = t["lang"], t["source"], pa.array([""] * len(t), pa.string())
        return pa.concat_tables(
            pa.table({"lang": k1, "source": k2, "n_chars": t["n_chars"]})
            for k1, k2 in ((lang, src), (lang, blank), (blank, blank))
        )

    return two_phase_agg(
        ds,
        ["lang", "source"],
        {"n_docs": (None, "rows"), "sum_chars": ("n_chars", "sum")},
        levels,
    )


def events_interval_join(
    sf_dir: str, left_type: str = "purchase", right_type: str = "click",
    window_hours: int = 6,
):
    """INTERVAL (range) join: every ``right_type`` event within the
    half-open window ``(p.ts, p.ts + window]`` after a ``left_type``
    event of the same user — ALL pairs in the window, not just the
    nearest one (that is ``events_asof_join``). Ray Data has no native
    band-join; this is the partitioned sort + searchsorted build.

    Shape: prune to 4 columns at the scan, drop every other event type
    in-batch, coarsen the user shuffle to USER_BUCKETS groups (ONE
    exchange), then inside each group a single vectorized pass: sort
    both sides by a composite (dense-user-rank, ts) int64 key and
    binary-search each left row's window bounds against the right
    side (O(n log n), no per-user Python dispatch). Matching pairs
    are materialized by one repeat + cumsum expansion — output size
    is exactly the join cardinality, never the cross product.

    Partitioning assumption (documented per the band-join mandate):
    the composite key needs distinct_users_per_bucket x in-bucket ts
    span (us) + window < 2^63 — about 3500 users/bucket per century
    of span; raise USER_BUCKETS with fleet size to hold it."""
    import ray.data

    win_us = int(window_hours) * 3_600_000_000

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "ts"]
    )

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.or_(
            pc.equal(t["event_type"], left_type),
            pc.equal(t["event_type"], right_type),
        )
        t = t.filter(keep)
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "is_left": pc.equal(t["event_type"], left_type),
                "ts_us": t["ts"].cast(pa.int64()),
            }
        )

    def band(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "purchase_event_id": pd.Series([], dtype="int64"),
                "click_event_id": pd.Series([], dtype="int64"),
            }
        )
        left = g[g["is_left"]]
        right = g[~g["is_left"]]
        if left.empty or right.empty:
            return empty
        # composite key: dense user rank * span + ts offset keeps both
        # sides in one sorted int64 axis for searchsorted
        t0 = int(g["ts_us"].min())
        span = int(g["ts_us"].max()) - t0 + win_us + 2
        users, l_rank = np.unique(left["user_id"].to_numpy(), return_inverse=True)
        r_user = right["user_id"].to_numpy()
        r_rank = np.searchsorted(users, r_user)
        # right rows whose user never appears on the left can't match
        ok = (r_rank < len(users)) & (users[np.minimum(r_rank, len(users) - 1)] == r_user)
        right = right[ok]
        if right.empty:
            return empty
        r_rank = r_rank[ok]
        l_key = l_rank.astype(np.int64) * span + (left["ts_us"].to_numpy() - t0)
        r_key = r_rank.astype(np.int64) * span + (right["ts_us"].to_numpy() - t0)
        order = np.argsort(r_key, kind="stable")
        r_key = r_key[order]
        r_ids = right["event_id"].to_numpy()[order]
        lo = np.searchsorted(r_key, l_key, side="right")  # ts > p.ts (strict)
        hi = np.searchsorted(r_key, l_key + win_us, side="right")  # ts <= p.ts+W
        cnt = hi - lo
        total = int(cnt.sum())
        if total == 0:
            return empty
        p_ids = np.repeat(left["event_id"].to_numpy(), cnt)
        offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        c_ids = r_ids[np.repeat(lo, cnt) + offs]
        return pd.DataFrame(
            {
                "purchase_event_id": p_ids.astype("int64"),
                "click_event_id": c_ids.astype("int64"),
            }
        )

    return cogroup(
        ds.map_batches(prep, batch_format="pyarrow"), "user_id", USER_BUCKETS, band
    )


def revenue_by_priority(sf_dir: str):
    """Pre-join COMBINER + reduce-side inner join: revenue per order
    priority over lineitem |X| orders — the fact-fact join done the
    scalable way. Lineitem folds to one (orderkey, revenue_cents)
    partial per key per batch BEFORE any exchange (the join then
    moves per-key partials, ~4x smaller than raw lineitem and
    independent of lines-per-order skew); both sides co-group on
    orderkey (``agg.cogroup``); inside each bucket a vectorized merge +
    per-priority partial keeps the final exchange at 5 rows.

    Revenue is integer cents of l_extendedprice * (1 - l_discount),
    rounded half-up per ROW before summing — order-independent and
    bit-exact against the SQL oracle."""
    import ray.data
    from ray.data.aggregate import Sum

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    orders = ray.data.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_orderpriority"]
    )

    def li_partial(t: pa.Table) -> pa.Table:
        k = t["l_orderkey"].to_numpy(zero_copy_only=False)
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(ep * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
        uk, inv = np.unique(k, return_inverse=True)
        acc = np.zeros(len(uk), np.int64)
        np.add.at(acc, inv, rev)
        return pa.table(
            {
                "o_orderkey": pa.array(uk, pa.int64()),
                "rev_cents": pa.array(acc, pa.int64()),
            }
        )

    def join(lines: pd.DataFrame, od: pd.DataFrame) -> pd.DataFrame:
        if lines.empty or od.empty:  # inner join: one side is missing
            return pd.DataFrame()
        # partials for the same orderkey come from several batches
        lines = lines.groupby("o_orderkey", as_index=False)["rev_cents"].sum()
        m = od.merge(lines, on="o_orderkey")
        out = m.groupby("o_orderpriority", as_index=False).agg(
            n_orders=("o_orderkey", "size"), revenue_cents=("rev_cents", "sum")
        )
        out["n_orders"] = out["n_orders"].astype("int64")
        return out

    return (
        cogroup(
            [li.map_batches(li_partial, batch_format="pyarrow"), orders],
            "o_orderkey",
            64,
            join,
        )
        .groupby("o_orderpriority")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("revenue_cents", alias_name="revenue_cents"),
        )
    )


FUNNEL_STAGES = ("view", "click", "purchase")


def funnel_counts(sf_dir: str, stages=FUNNEL_STAGES):
    """Ordered sequence-pattern (FUNNEL) operator: per stage, how many
    users completed stage_0 < stage_1 < ... < stage_k in strict
    timestamp order (the greedy earliest-match chain: each stage's
    anchor is the EARLIEST qualifying event after the previous
    stage's anchor — the standard product-analytics funnel
    semantics, deterministic on ts alone).

    Shape: prune to the funnel's event types at the scan, ONE
    coarse-bucket user shuffle, then per bucket a fully vectorized
    chain of |stages| groupby-min + merge passes (no per-user Python);
    each bucket emits |stages| partial rows, and the final exchange
    carries buckets x stages rows."""
    import ray.data
    from ray.data.aggregate import Sum

    stages = tuple(stages)

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"], value_set=pa.array(stages))
        t = t.filter(keep)
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_type": t["event_type"],
                "ts_us": t["ts"].cast(pa.int64()),
            }
        )

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        anchor = (
            g[g["event_type"] == stages[0]].groupby("user_id")["ts_us"].min()
        )
        counts = [len(anchor)]
        for s in stages[1:]:
            prev = anchor.rename("t_prev").reset_index()  # (user_id, t_prev)
            e = g.loc[g["event_type"] == s, ["user_id", "ts_us"]].merge(
                prev, on="user_id"
            )
            anchor = e[e["ts_us"] > e["t_prev"]].groupby("user_id")["ts_us"].min()
            counts.append(len(anchor))
        return pd.DataFrame(
            {
                "stage_idx": pd.Series(range(len(stages)), dtype="int64"),
                "stage": list(stages),
                "n_users": pd.Series(counts, dtype="int64"),
            }
        )

    return (
        cogroup(
            ds.map_batches(prep, batch_format="pyarrow"), "user_id", USER_BUCKETS, funnel
        )
        .groupby(["stage_idx", "stage"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def distinct_users_salted(sf_dir: str, n_salts: int = 64):
    """Exact COUNT(DISTINCT user_id) per event_type under HOT-KEY
    skew, the salted two-phase way. event_type has ~5 values over
    millions of events — a naive groupby(event_type) + per-group
    distinct would funnel every event of the hottest type through one
    reducer. Salting by a function OF THE DISTINCT KEY
    (user_id % n_salts) keeps the count exact: every copy of a
    (event_type, user_id) pair lands in exactly one salt, so per-salt
    distinct counts are disjoint and their Sum is the true distinct
    count. The exchange carries in-batch-deduped (salt, event_type,
    user_id) triples — the hot type's distinct work spreads over
    n_salts reducers, each holding ~n_users/n_salts ids. At fleet
    scale raise n_salts with cluster size; the final exchange is
    n_salts x |event_type| partial rows."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["event_type", "user_id"]
    )

    def partial(t: pa.Table) -> pa.Table:
        # in-batch dedup before the shuffle: ships each pair once per
        # batch no matter how many events repeat it
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_pandas(),
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        salt = (df["user_id"].to_numpy() % n_salts).astype(np.int32)
        return pa.table(
            {
                "salt": pa.array(salt),
                "event_type": pa.array(df["event_type"], pa.string()),
                "user_id": pa.array(df["user_id"].to_numpy(), pa.int64()),
            }
        )

    def per_salt(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["event_type", "user_id"])
        out = d.groupby("event_type", as_index=False).agg(
            n_users=("user_id", "size")
        )
        out["n_users"] = out["n_users"].astype("int64")
        return out[["event_type", "n_users"]]

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("salt")
        .map_groups(per_salt, batch_format="pandas")
        .groupby("event_type")
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def orders_cdc_upsert(sf_dir: str, n_buckets: int = 64):
    """CDC / MERGE (upsert + delete) — apply a change log to a base
    snapshot and emit the final table state, the reduce-side way.
    The change log is synthesized deterministically from the base so
    the oracle can restate it: version 1 UPDATEs orders with
    o_orderkey % 7 == 0 (total_cents += 12345), version 2 DELETEs
    orders with o_orderkey % 11 == 0. Resolution is max-version-wins
    then tombstone filtering — the standard log-structured merge
    rule.

    Shape: base and change rows ride ONE coarse-bucket exchange keyed
    by o_orderkey % n_buckets; inside each bucket a vectorized
    sort + keep-last resolves every key with no per-key Python. The
    driver never sees the table; at fleet scale n_buckets rises with
    the cluster and per-bucket state is |keys|/n_buckets rows.

    total_cents uses the repo-wide half-up integer-cents rule so the
    hash check is bit-exact."""
    import ray.data

    ds = ray.data.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"]
    )

    def emit_log(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        upd = k % 7 == 0
        dele = k % 11 == 0
        keys = np.concatenate([k, k[upd], k[dele]])
        vals = np.concatenate(
            [cents, cents[upd] + 12345, np.zeros(int(dele.sum()), np.int64)]
        )
        vers = np.concatenate(
            [
                np.zeros(len(k), np.int64),
                np.full(int(upd.sum()), 1, np.int64),
                np.full(int(dele.sum()), 2, np.int64),
            ]
        )
        tomb = np.concatenate(
            [
                np.zeros(len(k), np.int64),
                np.zeros(int(upd.sum()), np.int64),
                np.ones(int(dele.sum()), np.int64),
            ]
        )
        return pa.table(
            {
                "o_orderkey": pa.array(keys, pa.int64()),
                "total_cents": pa.array(vals, pa.int64()),
                "version": pa.array(vers, pa.int64()),
                "tombstone": pa.array(tomb, pa.int64()),
            }
        )

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_orderkey", "version"])
        last = g.drop_duplicates("o_orderkey", keep="last")
        live = last[last["tombstone"] == 0]
        return live[["o_orderkey", "total_cents", "version"]].reset_index(
            drop=True
        )

    return cogroup(
        ds.map_batches(emit_log, batch_format="pyarrow"), "o_orderkey", n_buckets, resolve
    )


def doc_global_rank(sf_dir: str, width: int = 16):
    """GLOBAL ROW_NUMBER (no partition key) — rank every document by
    (n_chars, doc_id) across the whole corpus without a global sort:
    the two-pass histogram + prefix-offset pattern. Pass 1 counts
    rows per coarse value range (n_chars // width); the driver turns
    the ~max_chars/width histogram rows into exclusive prefix
    offsets (O(ranges), never O(rows)); pass 2 co-locates each range
    in one exchange, sorts locally, and adds the range's offset.

    This is the scalable ORDER BY + ROW_NUMBER: only range COUNTS
    cross the driver, each reducer sorts rows/n_ranges rows, and the
    exchange is one bucket shuffle instead of a global sort's
    range-exchange + merge. At fleet scale pick the boundaries from a
    sample instead of a fixed width (same shape, balanced ranges)."""
    import ray.data
    from ray.data.aggregate import Count

    ds = ray.data.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "n_chars"]
    )

    def with_range(t: pa.Table) -> pa.Table:
        rng = pc.divide(
            t["n_chars"].cast(pa.int64()), pa.scalar(width, pa.int64())
        )
        return pa.table(
            {
                "rng": rng.cast(pa.int32()),
                "doc_id": t["doc_id"],
                "n_chars": t["n_chars"].cast(pa.int64()),
            }
        )

    ranged = ds.map_batches(with_range, batch_format="pyarrow")
    # pass 1: histogram — O(n_ranges) rows ever reach the driver
    hist = ranged.groupby("rng").aggregate(Count(alias_name="n")).take_all()
    hist.sort(key=lambda r: r["rng"])
    offsets: dict[int, int] = {}
    acc = 0
    for r in hist:
        offsets[int(r["rng"])] = acc
        acc += int(r["n"])

    def rank_range(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"], kind="mergesort")
        base = offsets[int(g["rng"].iloc[0])]
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].astype("int64"),
                "n_chars": g["n_chars"].astype("int64"),
                "rank": pd.RangeIndex(base + 1, base + 1 + len(g)).astype(
                    "int64"
                ),
            }
        )

    # pass 2: one bucket exchange, local sort + offset per range
    return ranged.groupby("rng").map_groups(rank_range, batch_format="pandas")


# the least offset of the added docs' ids; above 1M base docs it grows
# past the largest base id so an added id never reuses a real one
SNAPSHOT_ADD_OFFSET = 1_000_000


def snapshot_diff(sf_dir: str, n_buckets: int = 64):
    """Snapshot DELTA — classify every key across two corpus versions
    as added / removed / changed by comparing content hashes, the way
    a crawl-over-crawl diff or a dataset-regression check runs.
    Snapshot B is synthesized deterministically from the base so the
    oracle can restate the classification: doc_id % 13 == 0 rows are
    dropped (removed), % 17 == 0 survivors get edited text (changed),
    and % 19 == 0 rows spawn a brand-new doc at doc_id + offset (added),
    offset = max(SNAPSHOT_ADD_OFFSET, max(doc_id) + 1).

    Shape: both sides fold to (doc_id, side, text_hash) rows — the
    text itself never crosses the exchange — then ONE co-group on
    doc_id (``agg.cogroup``) and a vectorized per-bucket outer-compare.
    Unchanged keys are dropped in-bucket, so the output is delta-sized
    regardless of corpus size."""
    import ray.data

    from ..functions.hashing import fnv1a64

    ds = ray.data.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    max_id = ray.data.read_parquet(_p(sf_dir, "documents"), columns=["doc_id"]).max(
        "doc_id"
    )
    offset = max(SNAPSHOT_ADD_OFFSET, (max_id or 0) + 1)

    def hash_col(ids, texts):
        return np.fromiter(
            (fnv1a64(t.encode()) - (1 << 63) for t in texts),
            np.int64,
            len(ids),
        )

    def emit_sides(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        h = hash_col(ids, texts)
        # side A: the base snapshot, verbatim
        keys = [ids]
        sides = [np.zeros(len(ids), np.int64)]
        hashes = [h]
        # side B: drop %13, edit %17 survivors, add %19 offspring
        keep = ids % 13 != 0
        edit = keep & (ids % 17 == 0)
        h_b = h.copy()
        if edit.any():
            h_b[edit] = hash_col(
                ids[edit], [texts[i] + " v2" for i in np.flatnonzero(edit)]
            )
        keys.append(ids[keep])
        sides.append(np.ones(int(keep.sum()), np.int64))
        hashes.append(h_b[keep])
        new = ids % 19 == 0
        if new.any():
            new_ids = ids[new] + offset
            keys.append(new_ids)
            sides.append(np.ones(len(new_ids), np.int64))
            hashes.append(
                hash_col(
                    new_ids, [texts[i] + " new" for i in np.flatnonzero(new)]
                )
            )
        k = np.concatenate(keys)
        return pa.table(
            {
                "doc_id": pa.array(k, pa.int64()),
                "side": pa.array(np.concatenate(sides), pa.int64()),
                "h": pa.array(np.concatenate(hashes), pa.int64()),
            }
        )

    def classify(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["side"] == 0].set_index("doc_id")["h"]
        b = g[g["side"] == 1].set_index("doc_id")["h"]
        removed = a.index.difference(b.index)
        added = b.index.difference(a.index)
        both = a.index.intersection(b.index)
        changed = both[(a.loc[both] != b.loc[both]).to_numpy()]
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(
                    [
                        removed.to_numpy(np.int64),
                        added.to_numpy(np.int64),
                        changed.to_numpy(np.int64),
                    ]
                ),
                "change": ["removed"] * len(removed)
                + ["added"] * len(added)
                + ["changed"] * len(changed),
            }
        )

    return cogroup(
        ds.map_batches(emit_sides, batch_format="pyarrow"), "doc_id", n_buckets, classify
    )
