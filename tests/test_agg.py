"""The two shuffle helpers of ``pipelines/agg.py``. two_phase_agg: the
per-batch fold + Ray merge equals one pyarrow group_by over the whole
input. cogroup: each reduce call sees exactly one bucket's rows of every
side, each side with its own columns and types. The queries built on
either helper keep their output schemas (on the smoke-scale testdata,
``SF_SMOKE``)."""

import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


def _arrow(ds) -> pa.Table:
    """A Dataset's non-empty blocks as one table (empty blocks may carry
    an empty schema)."""
    import ray

    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])


AGGS = {
    "n": (None, "rows"),
    "total": ("v", "sum"),
    "lo": ("v", "min"),
    "hi": ("v", "max"),
}

rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 2),
        st.integers(-(10**12), 10**12),
    ),
    min_size=1,
    max_size=40,
)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=rows, cuts=st.lists(st.integers(0, 40), max_size=6), two_keys=st.booleans())
def test_two_phase_equals_one_group_by(ray_session, rows, cuts, two_keys):
    import ray.data

    from pdf_parser_ray.pipelines.agg import two_phase_agg

    t = pa.table(
        {
            "k": pa.array([r[0] for r in rows], pa.string()),
            "k2": pa.array([r[1] for r in rows], pa.int64()),
            "v": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    # random batch boundaries, repeated cuts give empty batches
    bounds = [0, *sorted(min(c, len(t)) for c in cuts), len(t)]
    blocks = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    keys = ["k", "k2"] if two_keys else "k"

    got = _arrow(two_phase_agg(ray.data.from_arrow(blocks), keys, AGGS))

    key_list = keys if two_keys else [keys]
    want = t.group_by(key_list).aggregate(
        [([], "count_all"), ("v", "sum"), ("v", "min"), ("v", "max")]
    ).rename_columns([*key_list, *AGGS])
    assert got.column_names == [*key_list, *AGGS]
    assert got.schema.equals(want.schema)
    order = [(c, "ascending") for c in key_list]
    assert got.sort_by(order).equals(want.sort_by(order))


def test_prepare_runs_before_the_fold(ray_session):
    import ray.data

    from pdf_parser_ray.pipelines.agg import two_phase_agg

    ds = ray.data.from_arrow(pa.table({"x": pa.array([1, 2, 3, 4], pa.int64())}))
    got = _arrow(
        two_phase_agg(
            ds,
            "odd",
            {"n": (None, "rows"), "s": ("x", "sum")},
            lambda t: t.append_column("odd", pc.bit_wise_and(t["x"], 1)),
        )
    )
    assert got.sort_by("odd").to_pylist() == [
        {"odd": 0, "n": 2, "s": 6},
        {"odd": 1, "n": 2, "s": 4},
    ]


COLUMN_TYPES = [pa.int64(), pa.int32(), pa.float64(), pa.string(), pa.bool_()]


def _column(typ: pa.DataType, rids: list[int]) -> pa.Array:
    if pa.types.is_string(typ):
        return pa.array([f"s{r}" for r in rids], typ)
    if pa.types.is_boolean(typ):
        return pa.array([r % 2 == 0 for r in rids], typ)
    if pa.types.is_floating(typ):
        return pa.array([r / 2 for r in rids], typ)
    return pa.array(rids, typ)


side_specs = st.lists(
    st.tuples(
        st.sampled_from([pa.int64(), pa.int32()]),  # key type
        st.dictionaries(  # own columns: names shared across sides, types not
            st.sampled_from(["x", "y", "z"]), st.sampled_from(COLUMN_TYPES), max_size=3
        ),
        st.lists(st.integers(-50, 50), max_size=30),  # keys
        st.lists(st.integers(0, 30), max_size=4),  # batch cuts
    ),
    min_size=1,
    max_size=3,
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(specs=side_specs, n_buckets=st.integers(1, 8), pyarrow_parts=st.booleans())
def test_cogroup_hands_each_bucket_its_rows_per_side(ray_session, specs, n_buckets, pyarrow_parts):
    import ray
    import ray.data

    from pdf_parser_ray.pipelines.agg import cogroup

    def report(*parts) -> pa.Table:
        """One row per side naming the part's columns and types (rid -1),
        then one row per data row: (call, side, rid, k). Nested, so Ray
        ships it by value."""
        call = uuid.uuid4().hex
        out = []
        for i, p in enumerate(parts):
            if isinstance(p, pa.Table):
                schema = [(f.name, str(f.type)) for f in p.schema]
                rows = list(zip(p["rid"].to_pylist(), p["k"].to_pylist())) if p.num_rows else []
            else:
                schema = [(c, str(t)) for c, t in p.dtypes.items()]
                rows = list(zip(p["rid"].tolist(), p["k"].tolist())) if len(p) else []
            out += [(call, i, -1, 0, repr(schema))] + [(call, i, r, k, "") for r, k in rows]
        cols = list(zip(*out))
        return pa.table(
            {
                "call": pa.array(cols[0], pa.string()),
                "side": pa.array(cols[1], pa.int64()),
                "rid": pa.array(cols[2], pa.int64()),
                "k": pa.array(cols[3], pa.int64()),
                "schema": pa.array(cols[4], pa.string()),
            }
        )

    tables, datasets = [], []
    for key_type, extra, keys, cuts in specs:
        rids = list(range(len(keys)))
        t = pa.table(
            {
                "k": pa.array(keys, key_type),
                "rid": pa.array(rids, pa.int64()),
                **{name: _column(typ, rids) for name, typ in extra.items()},
            }
        )
        # random batch boundaries, repeated cuts give empty batches
        bounds = [0, *sorted(min(c, len(t)) for c in cuts), len(t)]
        tables.append(t)
        datasets.append(ray.data.from_arrow([t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]))

    fmt = "pyarrow" if pyarrow_parts else "pandas"
    out = cogroup(datasets, "k", n_buckets, report, batch_format=fmt)
    blocks = [ray.get(ref) for b in out.iter_internal_ref_bundles() for ref, _ in b.blocks]
    assert all(isinstance(b, pa.Table) for b in blocks)
    got_rows = [r for b in blocks for r in b.to_pylist()]

    # expected, in memory over the concatenated sides
    want: dict[int, dict[int, list]] = {}
    for i, t in enumerate(tables):
        for r, k in zip(t["rid"].to_pylist(), t["k"].to_pylist()):
            want.setdefault(k % n_buckets, {j: [] for j in range(len(tables))})[i].append((r, k))
    own_schema = [
        repr(
            (
                [(f.name, str(f.type)) for f in t.schema]
                if pyarrow_parts
                else [(c, str(d)) for c, d in t.to_pandas().dtypes.items()]
            )
        )
        for t in tables
    ]

    calls: dict[str, dict[int, list]] = {}
    schemas: dict[tuple[str, int], str] = {}
    for r in got_rows:
        sides = calls.setdefault(r["call"], {j: [] for j in range(len(tables))})
        if r["rid"] < 0:
            schemas[r["call"], r["side"]] = r["schema"]
        else:
            sides[r["side"]].append((r["rid"], r["k"]))
    for (call, side), schema in schemas.items():
        # a side with no rows in the bucket: an empty part, no columns
        assert schema == (own_schema[side] if calls[call][side] else repr([]))
    got: dict[int, dict[int, list]] = {}
    for sides in calls.values():
        buckets = {k % n_buckets for rows in sides.values() for _, k in rows}
        assert len(buckets) == 1  # one call per bucket that holds a row
        (b,) = buckets
        assert b not in got
        got[b] = {j: sorted(rows) for j, rows in sides.items()}
    assert got == {b: {j: sorted(rows) for j, rows in sides.items()} for b, sides in want.items()}


S, I = pa.string(), pa.int64()

QUERY_SCHEMAS = {
    "doc_stats_by_lang": [("lang", S), ("n_docs", I), ("sum_chars", I)],
    "lineitem_agg": [
        ("l_returnflag", S),
        ("l_linestatus", S),
        ("sum_qty", I),
        ("sum_price_cents", I),
        ("n_rows", I),
    ],
    "orders_by_nation": [("n_name", S), ("revenue_cents", I), ("n_orders", I)],
    "orders_join_native": [("c_mktsegment", S), ("revenue_cents", I), ("n_orders", I)],
    "events_hourly": [
        ("event_type", S),
        ("hour", I),
        ("value_cents", I),
        ("n_events", I),
    ],
    "events_sliding": [
        ("event_type", S),
        ("win_start", I),
        ("value_cents", I),
        ("n_events", I),
    ],
    "events_minmax": [("event_type", S), ("min_cents", I), ("max_cents", I), ("n", I)],
    "events_props_agg": [("event_type", S), ("sum_k", I), ("n_events", I)],
    "doc_size_ranges": [("size_class", S), ("n_docs", I)],
    "bloom_semi_join": [("l_returnflag", S), ("revenue_cents", I), ("n_rows", I)],
    "events_jsonl_agg": [
        ("event_type", S),
        ("value_cents", I),
        ("min_event_id", I),
        ("max_event_id", I),
        ("n_events", I),
    ],
    "events_csv_agg": [
        ("event_type", S),
        ("value_cents", I),
        ("min_event_id", I),
        ("max_event_id", I),
        ("n_events", I),
    ],
    "events_federated_agg": [("event_type", S), ("value_cents", I), ("n_events", I)],
    "high_value_orders": [
        ("o_orderpriority", S),
        ("revenue_cents", I),
        ("n_orders", I),
    ],
    "doc_rollup": [("lang", S), ("source", S), ("n_docs", I), ("sum_chars", I)],
    "lang_source_pivot": [("source", S)] + [(f"n_{l}", I) for l in "en de fr es zh".split()],
    "domain_stats": [("domain", S), ("n_docs", I), ("min_doc", I), ("max_doc", I)],
    "partition_metrics": [
        ("partition_id", I),
        ("rows", I),
        ("ok_rows", I),
        ("text_bytes", I),
    ],
    # built on cogroup
    "customers_no_orders": [("c_mktsegment", S), ("n_customers", I), ("n_without_orders", I)],
    "revenue_by_priority": [("o_orderpriority", S), ("n_orders", I), ("revenue_cents", I)],
    "events_running": [("event_id", I), ("running_n", I)],
    "sessions_per_user": [("user_id", I), ("n_sessions", I)],
    "events_asof_join": [("event_id", I), ("view_event_id", I)],
    "events_lag_delta": [("event_id", I), ("user_id", I), ("prev_gap_us", I)],
    "events_rolling_sum": [("event_id", I), ("rolling_cents", I)],
    "events_interval_join": [("purchase_event_id", I), ("click_event_id", I)],
    "funnel_counts": [("stage_idx", I), ("stage", S), ("n_users", I)],
    "orders_cdc_upsert": [("o_orderkey", I), ("total_cents", I), ("version", I)],
    "snapshot_diff": [("doc_id", I), ("change", S)],
    "link_pagerank": [("doc_id", I), ("rank_scaled", I)],
    "near_dedup_survivors": [("doc_id", I)],
    "minhash_exact_pairs": [("a", I), ("b", I)],
    "minhash_near_pairs": [("a", I), ("b", I)],
    "embedding_dup_pairs_lsh": [("a", I), ("b", I)],
    "dedup_clusters": [("doc_id", I), ("cluster_id", I)],
    "rare_token_mass": [("doc_id", I), ("n_tokens", I), ("n_rare", I)],
    "line_dedup": [("doc_id", I), ("n_lines", I), ("n_kept", I), ("text_clean", S)],
    "boilerplate_dedup_pipeline": [("doc_id", I), ("is_canonical", I), ("dup_group_size", I)],
    "dup_ngram_mass": [("doc_id", I), ("n_dup_grams", I)],
    "dup_span_removal": [
        ("doc_id", I),
        ("n_dup_positions", I),
        ("n_spans", I),
        ("n_removed_tokens", I),
    ],
    "tfidf_top_terms": [
        ("doc_id", I),
        ("word", S),
        ("tf", I),
        ("df", I),
        ("score_scaled", I),
        ("rank", I),
    ],
    "bigram_lm_score": [("doc_id", I), ("n_bigrams", I), ("lm_score_scaled", I)],
}


@pytest.mark.parametrize("name", sorted(QUERY_SCHEMAS))
def test_query_output_schema(ray_session, name):
    import __ray_entry__

    got = _arrow(__ray_entry__.queries()[name](__ray_entry__.SF_SMOKE))
    assert got.num_rows > 0
    assert [(f.name, f.type) for f in got.schema] == QUERY_SCHEMAS[name]
