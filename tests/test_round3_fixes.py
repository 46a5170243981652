"""Round-3 hardening tests (ADVICE.md + VERDICT.md round-2 items):
zero-shingle band skip, LSH band caps, de-amplified pair payload
shipping. The staging-dir fingerprint key test lives in
test_pipeline.py."""

import numpy as np
import pandas as pd
import pyarrow as pa


def test_minhash_stage_skips_zero_shingle_docs():
    """Token-less docs emit NO band rows: the 0xFF sentinel signature
    would otherwise bucket every empty doc together (quadratic pairs)
    and report jaccard(empty, empty)=1 'near-dups'."""
    from pdf_parser_ray.pipelines.dedup import MinHashStage

    stage = MinHashStage()
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["real text with words here", "", "...!!!", "more real text"]),
        }
    )
    out = stage(batch)
    banded_ids = set(out["doc_id"].to_pylist())
    assert banded_ids == {1, 4}
    # and the two empty docs share no band keys at all
    assert len(out) == 2 * stage.hasher.bands


def test_ann_topk_no_driver_materialization(ray_session):
    """ann_topk's query-side read must be predicate-pushed (no
    whole-table pq.read_table) and its reduce distributed (returns a
    Dataset, not a driver-side DataFrame)."""
    import inspect

    import ray.data

    from pdf_parser_ray.pipelines import similarity

    src = inspect.getsource(similarity.ann_topk) + inspect.getsource(
        similarity._read_query_vectors
    )
    assert "filters=" in src  # pushed-down query read
    assert "to_pandas" not in src
    out = similarity.ann_topk("/root/testdata/sf0.001")
    assert isinstance(out, ray.data.Dataset)
    df = out.to_pandas()
    assert set(df.columns) == {"query_id", "neighbor_id", "rank"}
    assert sorted(df["query_id"].unique()) == list(range(8))
    assert (df.groupby("query_id")["rank"].max() == 5).all()


def test_ann_topk_ivf_probe_recall(ray_session):
    """nprobe pruning: nprobe=all equals brute force exactly; a probed
    run (nprobe=4/16) returns valid subsets with high top-k recall."""
    from pdf_parser_ray.pipelines import similarity

    sf = "/root/testdata/sf0.001"
    exact = (
        similarity.ann_topk(sf)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    full = (
        similarity.ann_topk_ivf(sf)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(exact, full)

    probed = similarity.ann_topk_ivf(sf, nprobe=4).to_pandas()
    # every probed hit is a real corpus vector and ranks are dense
    assert (probed["neighbor_id"] >= 8).all()
    recall = (
        probed.merge(exact, on=["query_id", "neighbor_id"]).shape[0]
        / exact.shape[0]
    )
    assert recall >= 0.5  # 4/16 lists probed: sanity floor, not a tuning bar


def test_band_cap_bounds_degenerate_corpus():
    """10k identical short docs collapse into ONE band per LSH table —
    uncapped that is ~50M pairs per band; an over-cap band must degrade
    to O(n) star sampling (each member paired with the min id) and
    return quickly, while small bands still pair normally."""
    import time

    from pdf_parser_ray.pipelines.dedup import (
        MAX_BAND_MEMBERS,
        MinHashStage,
        _bucket_candidate_pairs,
    )

    n = 10_000
    stage = MinHashStage()
    batch = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "text": pa.array(["identical short boilerplate text row"] * n),
        }
    )
    banded = stage(batch).to_pandas()
    t0 = time.monotonic()
    pairs = _bucket_candidate_pairs(banded)
    assert time.monotonic() - t0 < 5.0  # uncapped would take minutes
    # every band exceeded the cap -> star pairs only: (0, x) for every
    # other member, deduped across bands = n-1 rows, never ~n^2/2
    assert len(pairs) == n - 1
    assert (pairs["a"] == 0).all()
    assert set(pairs["b"]) == set(range(1, n))

    # a band under the cap still yields its pairs
    small = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["identical short boilerplate text row"] * 2),
        }
    )
    small_pairs = _bucket_candidate_pairs(stage(small).to_pandas())
    assert list(small_pairs.itertuples(index=False)) == [(1, 2)]
    assert MAX_BAND_MEMBERS >= 64  # sanity: cap far above real dup-cluster sizes


def test_cogroup_ships_hub_payload_once_per_bucket(ray_session):
    """A hub document in P candidate pairs must ship at most
    min(P, n_buckets) payload copies into the verify shuffle (formerly
    P — mirror-site corpora amplified exactly where dedup matters)."""
    import ray.data

    from pdf_parser_ray.pipelines.dedup import (
        _cogroup_pair_payloads,
        _verify_pairs,
    )

    hub_pairs = 100
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array([0] * hub_pairs, pa.int64()),
                "b": pa.array(list(range(1, hub_pairs + 1)), pa.int64()),
            }
        )
    )
    corpus = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(hub_pairs + 1)), pa.int64()),
                "payload": pa.array(
                    [f"payload {i}".encode() for i in range(hub_pairs + 1)],
                    pa.binary(),
                ),
            }
        )
    )
    sided = _cogroup_pair_payloads(pairs, corpus, n_buckets=16).to_pandas()
    pair_rows = sided[sided["doc_id"] < 0]
    hub_payload_rows = sided[(sided["doc_id"] == 0) & (sided["a"] < 0)]
    assert len(pair_rows) == hub_pairs  # each pair exactly once
    assert len(hub_payload_rows) <= 16  # once per pair_bucket, not per pair

    # end-to-end: verify still sees both payloads for every pair
    sided_ds = _cogroup_pair_payloads(pairs, corpus, n_buckets=16)
    out = _verify_pairs(sided_ds, lambda a, pa_, b, pb_: True).to_pandas()
    assert len(out) == hub_pairs
    assert sorted(out["b"]) == list(range(1, hub_pairs + 1))


def test_blake2b128_buffer_hash_matches_per_row():
    """Zero-copy buffer-view hashing == per-row encode()+blake2b, for
    plain/large string and binary columns incl. empty and sliced."""
    import hashlib

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pdf_parser_ray.functions.hashing import blake2b128_of_strings

    def expected(vals):
        h1, h2 = [], []
        for v in vals:
            b = v.encode() if isinstance(v, str) else bytes(v or b"")
            d = hashlib.blake2b(b, digest_size=16).digest()
            h1.append(int.from_bytes(d[:8], "big") - (1 << 63))
            h2.append(int.from_bytes(d[8:], "big") - (1 << 63))
        return h1, h2

    for typ in (pa.string(), pa.large_string()):
        vals = ["", "hello", "héllo wörld", "x" * 1000]
        arr = pa.array(vals, type=typ)
        g1, g2 = blake2b128_of_strings(arr.slice(1, 2))
        e1, e2 = expected(vals[1:3])
        assert list(g1) == e1 and list(g2) == e2
    bvals = [b"", b"\x00\xff", None]
    g1, g2 = blake2b128_of_strings(pa.array(bvals, type=pa.large_binary()))
    e1, e2 = expected(bvals)
    assert list(g1) == e1 and list(g2) == e2


def test_streaming_dedup_equals_batch_dedup(ray_session):
    """The sharded-actor streaming index must converge to exactly the
    batch shuffle answer (associative min fold — arrival order free),
    and must clean its actors up afterwards."""
    from pdf_parser_ray.pipelines.dedup import (
        exact_dedup_text,
        streaming_exact_dedup,
    )

    sf = "/root/testdata/sf0.001"
    batch = sorted(exact_dedup_text(sf).to_pandas()["doc_id"])
    streaming = sorted(streaming_exact_dedup(sf, n_shards=4)["doc_id"].to_pylist())
    assert streaming == batch


def test_cogroup_pair_payloads_with_no_or_few_pairs(ray_session):
    """Buckets that hold corpus rows but no pair side (every bucket for
    a dup-free corpus) yield nothing instead of failing on the missing
    pair columns."""
    import ray.data

    from pdf_parser_ray.pipelines.dedup import (
        _cogroup_pair_payloads,
        _verify_pairs,
    )

    corpus = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(40), pa.int64()),
                "payload": pa.array([f"p{i}".encode() for i in range(40)], pa.binary()),
            }
        )
    )

    def pairs(a: list[int], b: list[int]):
        return ray.data.from_arrow(
            pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
        )

    assert _cogroup_pair_payloads(pairs([], []), corpus, n_buckets=16).count() == 0

    sided = _cogroup_pair_payloads(pairs([3], [21]), corpus, n_buckets=16)
    got = sided.to_pandas()
    assert sorted(got.loc[got["a"] < 0, "doc_id"]) == [3, 21]
    out = _verify_pairs(sided, lambda a, pa_, b, pb_: (pa_, pb_) == (b"p3", b"p21"))
    assert out.to_pandas()[["a", "b"]].values.tolist() == [[3, 21]]
