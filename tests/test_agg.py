"""two_phase_agg: the per-batch fold + Ray merge equals one pyarrow
group_by over the whole input, and the queries built on it keep their
output schemas (on the smoke-scale testdata, ``SF_SMOKE``)."""

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
}


@pytest.mark.parametrize("name", sorted(QUERY_SCHEMAS))
def test_query_output_schema(ray_session, name):
    import __ray_entry__

    got = _arrow(__ray_entry__.queries()[name](__ray_entry__.SF_SMOKE))
    assert got.num_rows > 0
    assert [(f.name, f.type) for f in got.schema] == QUERY_SCHEMAS[name]
