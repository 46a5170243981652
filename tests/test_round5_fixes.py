"""Round-5 items (VERDICT.md round-4): star-contraction connected
components, parquet-staged near-dup corpora, shared dup-copy rule."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _pairs_ds(pairs):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array([a for a, _ in pairs], pa.int64()),
                "b": pa.array([b for _, b in pairs], pa.int64()),
            }
        )
    )


def test_star_contraction_matches_union_find(ray_session):
    """The star-contraction output must equal in-memory union-find on
    the same edge list."""
    from pdf_parser_ray.pipelines.dedup import (
        star_contraction_clusters,
        union_find_clusters,
    )

    for pairs in (
        # chain + clique + isolated pair
        [(i, i + 1) for i in range(100, 140)]
        + [(a, b) for a in range(5) for b in range(a + 1, 5)]
        + [(1000, 2000)],
        # short chain (diameter 7), isolated pair, 3-node star
        [(i, i + 1) for i in range(10, 17)] + [(30, 31), (40, 41), (40, 42)],
    ):
        got = sorted(
            (r["doc_id"], r["cluster_id"])
            for r in star_contraction_clusters(_pairs_ds(pairs)).take_all()
        )
        uf = union_find_clusters([{"a": a, "b": b} for a, b in pairs])
        assert got == sorted(zip(uf["doc_id"], uf["cluster_id"]))


def test_star_contraction_long_chain_logn_rounds(ray_session):
    """A diameter-200 chain converges within a small round budget —
    label propagation without pointer doubling would need ~200 rounds;
    star contraction is O(log n)."""
    from pdf_parser_ray.pipelines.dedup import star_contraction_clusters

    n = 200
    out = star_contraction_clusters(
        _pairs_ds([(i, i + 1) for i in range(n - 1)]), max_rounds=12
    ).to_pandas()
    assert len(out) == n
    assert (out["cluster_id"] == 0).all()
    assert sorted(out["doc_id"]) == list(range(n))


def test_star_contraction_empty_and_unconverged(ray_session):
    from pdf_parser_ray.pipelines.dedup import star_contraction_clusters

    assert star_contraction_clusters(_pairs_ds([])).count() == 0
    with pytest.raises(RuntimeError, match="did not converge"):
        star_contraction_clusters(
            _pairs_ds([(i, i + 1) for i in range(50)]), max_rounds=1
        )


def test_edge_signature_ignores_the_block_split(ray_session):
    """The fixpoint signature of one edge set is the same whether the
    edges arrive as one block or one block per edge (Ray's ``Sum`` wraps
    inside a block but not across blocks), and it moves when the edge
    set does."""
    import ray.data

    from pdf_parser_ray.pipelines.dedup import edge_signature

    t = pa.table(
        {
            "u": pa.array(range(200), pa.int64()),
            "v": pa.array(range(1000, 1200), pa.int64()),
        }
    )
    one = edge_signature(ray.data.from_arrow(t))
    many = edge_signature(
        ray.data.from_arrow([t.slice(i, 1) for i in range(len(t))])
    )
    assert one == many and one[0] == 200
    assert edge_signature(ray.data.from_arrow(t.slice(1))) != one


def test_edge_signature_sums_stay_in_int64(ray_session, monkeypatch):
    """Edges whose signed 64-bit hash sums cross 2**63: the signature
    equals the mod-2**64 sums computed in memory, and no Ray aggregate
    runs (a Ray ``Sum`` whose cross-block total leaves int64 logs an
    Arrow conversion traceback before it falls back)."""
    import ray.data

    from pdf_parser_ray.pipelines import dedup

    def hashes(u: int, v: int) -> tuple[int, int]:
        h1 = ((u * dedup._M1) ^ (v * dedup._M2)) % 2**64
        h2 = ((u * (dedup._M2 | 1)) ^ ((v + 7) * dedup._M1)) % 2**64
        return h1, h2

    edges = [(u, u + 1) for u in range(10_000) if 2**62 < hashes(u, u + 1)[0] < 2**63][:4]
    assert len(edges) == 4 and sum(hashes(u, v)[0] for u, v in edges) >= 2**63
    want = (
        4,
        sum(hashes(u, v)[0] for u, v in edges) % 2**64,
        sum(hashes(u, v)[1] for u, v in edges) % 2**64,
    )

    def no_ray_aggregate(*args, **kwargs):
        raise AssertionError("edge_signature asked Ray for an aggregate")

    monkeypatch.setattr(ray.data.Dataset, "aggregate", no_ray_aggregate)
    monkeypatch.setattr(ray.data.Dataset, "sum", no_ray_aggregate)
    blocks = [
        pa.table({"u": pa.array([u], pa.int64()), "v": pa.array([v], pa.int64())})
        for u, v in edges
    ]
    assert dedup.edge_signature(ray.data.from_arrow(blocks)) == want


def test_dup_copy_mask_is_the_single_source():
    """with_mutated_copies must emit copies exactly where dup_copy_mask
    says (the survivor universe derives from the same mask)."""
    from pdf_parser_ray.pipelines.dedup import (
        DUP_OFFSET,
        dup_copy_mask,
        with_mutated_copies,
    )

    ids = list(range(37))
    batch = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array([f"w{i} " * 5 for i in ids]),
        }
    )
    out = with_mutated_copies(batch)
    copied = sorted(
        i - DUP_OFFSET for i in out["doc_id"].to_pylist() if i >= DUP_OFFSET
    )
    assert copied == [i for i in ids if dup_copy_mask(np.array([i]))[0]]


def test_stage_keyed_publishes_once_and_rereads(ray_session, tmp_path, monkeypatch):
    """stage_keyed: second call with the same input must re-read the
    published cache (no rebuild), and the run-scoped dir registers for
    removal."""
    import pyarrow.parquet as pq
    import ray.data

    from pdf_parser_ray.pipelines import staging

    monkeypatch.setenv("GRAFT_STAGE_ROOT", str(tmp_path))
    src = tmp_path / "src.parquet"
    pq.write_table(
        pa.table({"x": pa.array([1, 2, 3], pa.int64())}), str(src)
    )
    calls = []

    def build():
        calls.append(1)
        return ray.data.read_parquet(str(src))

    a = staging.stage_keyed("t5", str(src), build)
    assert sorted(r["x"] for r in a.take_all()) == [1, 2, 3]
    b = staging.stage_keyed("t5", str(src), build)
    assert sorted(r["x"] for r in b.take_all()) == [1, 2, 3]
    assert len(calls) == 1


def test_stage_run_scoped_empty_falls_back(ray_session, tmp_path, monkeypatch):
    import ray.data

    from pdf_parser_ray.pipelines import staging

    monkeypatch.setenv("GRAFT_STAGE_ROOT", str(tmp_path))
    empty = ray.data.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    assert staging.stage_run_scoped(empty, "e5").count() == 0


def test_ngram_jaccard_pairs_match_minhash_verified(ray_session):
    """The exact inverted-index Jaccard pairs must (a) contain every
    planted near/exact dup and (b) equal the MinHash+verify pair set
    on the same corpus (both compute jaccard >= 0.5 pairs; MinHash's
    LSH recall is deterministic-in-practice on the bimodal corpus)."""
    from pdf_parser_ray.pipelines.dedup import (
        DUP_OFFSET,
        minhash_dup_pairs,
        ngram_jaccard_pairs,
    )

    sf = "/root/testdata/sf0.001"
    exact = {
        (r["a"], r["b"]) for r in ngram_jaccard_pairs(sf).take_all()
    }
    planted = {(i, i + DUP_OFFSET) for i in range(0, 500) if i % 10 in (0, 5)}
    assert planted - exact == set()
    lsh = {(r["a"], r["b"]) for r in minhash_dup_pairs(sf, threshold=0.5).take_all()}
    assert exact == lsh


def test_ngram_jaccard_hot_shingle_cap_is_conservative(ray_session):
    """max_df drops hot shingles from the intersection only — the pair
    set under a cap is a SUBSET of the exact pair set."""
    from pdf_parser_ray.pipelines.dedup import ngram_jaccard_pairs

    sf = "/root/testdata/sf0.001"
    exact = {(r["a"], r["b"]) for r in ngram_jaccard_pairs(sf).take_all()}
    capped = {
        (r["a"], r["b"])
        for r in ngram_jaccard_pairs(sf, max_df=8).take_all()
    }
    assert capped <= exact
