"""Similarity search over the embeddings table (build mandate):
brute-force cosine top-k as the exactness baseline, LSH-bucketed
near-dup as the scale path.

Scale shapes:
- top-k: the QUERY matrix is broadcast (tiny); the corpus streams
  through ``map_batches`` computing a per-batch partial top-k with one
  numpy matmul; partials reduce to the global top-k (driver-side heap
  over ~k rows per batch — never the corpus).
- embedding near-dup (exact): corpus matrix is broadcast once via
  ray.put (n x 32 floats; ~13 MB at 100k rows), each batch matmuls
  against it. For corpora too big to broadcast, use the LSH variant:
  random-hyperplane signatures bucket the rows, pairs verify within
  buckets only (recall is probabilistic; the exact variant is the
  correctness anchor).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from .dedup import DUP_OFFSET
from .extract_pipeline import actor_pool

# embeddings dimension is inferred from the data (64 in the testdata)


def _p(sf_dir: str) -> str:
    return os.path.join(sf_dir, "embeddings.parquet")


def _mat(batch: pa.Table) -> np.ndarray:
    col = batch["embedding"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.flatten().to_numpy(zero_copy_only=False).reshape(len(batch), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    m = m.astype(np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def with_noisy_copies(batch: pa.Table) -> pa.Table:
    """embeddings batch + near-identical copies (vec_id % 10 == 0):
    copy = vec with element 0 mapped to ``x*1.01 + 0.001`` (double
    precision) -> cosine ~0.9999 to its source; vec_id + DUP_OFFSET.

    The perturbation is deliberately SQL-expressible
    (``list_transform(embedding, (x, i) -> CASE WHEN i = 1 THEN
    x*1.01 + 0.001 ELSE x END)``) so the DuckDB oracle can rebuild the
    identical corpus. Copies stay float64 end-to-end on both sides."""
    ids = batch["vec_id"].to_pylist()
    mat = _mat(batch).astype(np.float64)
    add_ids, add_vecs = [], []
    for i, row in zip(ids, mat):
        if i % 10 == 0:
            copy = row.copy()
            copy[0] = copy[0] * 1.01 + 0.001
            add_ids.append(i + DUP_OFFSET)
            add_vecs.append(copy)
    all_ids = ids + add_ids
    all_vecs = [mat[k] for k in range(len(ids))] + add_vecs
    return pa.table(
        {
            "vec_id": pa.array(all_ids, type=pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in all_vecs], type=pa.list_(pa.float64())
            ),
        }
    )


def _read_query_vectors(sf_dir: str, n_queries: int):
    """The query matrix via a PREDICATE-PUSHDOWN read: only row groups
    that can contain ``vec_id < n_queries`` are read (at fleet scale the
    embeddings table is range-partitioned on vec_id, so this touches one
    file of the 100 TB table, never the whole corpus). Returns
    (sorted q_ids, normalized query matrix)."""
    import pyarrow.parquet as pq

    qt = pq.read_table(
        _p(sf_dir),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_queries)],
    )
    q_ids = qt["vec_id"].to_numpy()
    order = np.argsort(q_ids, kind="stable")
    qm = _normalize(np.array(qt["embedding"].to_pylist(), dtype=np.float64)[order])
    return q_ids[order], qm


def _partial_topk_fn(q_id_list, qm, n_queries: int, k: int):
    """Per-batch partial top-k: one matmul against the (tiny, shipped
    once with the operator spec) query matrix, then a per-query lexsort
    with the same (cos desc, neighbor_id asc) tie-break as the final
    reduce so boundary ties are deterministic."""

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        mask = ids >= n_queries
        if not mask.any():
            return pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    "neighbor_id": pa.array([], type=pa.int64()),
                    "cos": pa.array([], type=pa.float64()),
                }
            )
        m = _normalize(_mat(batch)[mask])
        ids = ids[mask]
        sims = qm @ m.T  # (n_queries, batch)
        kk = min(k, sims.shape[1])
        out_q, out_n, out_c = [], [], []
        for qi in range(sims.shape[0]):
            idx = np.lexsort((ids, -sims[qi]))[:kk]
            out_q.append(np.full(len(idx), q_id_list[qi], dtype=np.int64))
            out_n.append(ids[idx].astype(np.int64))
            out_c.append(sims[qi, idx])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
                "neighbor_id": pa.array(np.concatenate(out_n), type=pa.int64()),
                "cos": pa.array(np.concatenate(out_c), type=pa.float64()),
            }
        )

    return partial_topk


def _topk_reduce(partials, k: int):
    """Distributed final reduce: groupby(query_id) over the partial
    rows (k x batches per query — never the corpus) and rank inside
    each group. Nothing reaches the driver."""

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["cos", "neighbor_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pd.DataFrame(
            {
                "query_id": g["query_id"].to_numpy(dtype=np.int64),
                "neighbor_id": g["neighbor_id"].to_numpy(dtype=np.int64),
                "rank": np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    return partials.groupby("query_id").map_groups(topk, batch_format="pandas")


def ann_topk(sf_dir: str, n_queries: int = 8, k: int = 5):
    """For each query vector (vec_id < n_queries), the top-k cosine
    neighbors among vec_id >= n_queries. Returns (query_id, neighbor_id,
    rank) — integers only, so the oracle hash is float-free.

    Scale shape: query matrix from a predicate-pushdown read (no
    whole-table driver read); corpus streams through a per-batch
    partial top-k; final reduce is a distributed groupby(query_id)."""
    import ray.data

    q_id_list, qm = _read_query_vectors(sf_dir, n_queries)
    ds = ray.data.read_parquet(_p(sf_dir), columns=["vec_id", "embedding"])
    partials = ds.map_batches(
        _partial_topk_fn(q_id_list, qm, n_queries, k), batch_format="pyarrow"
    )
    return _topk_reduce(partials, k)


def build_ivf_centroids(
    sf_dir: str, n_queries: int = 8, n_centroids: int = 16, iters: int = 2
):
    """IVF coarse quantizer: k-means centroids trained with Lloyd
    iterations where each pass is DISTRIBUTED — ``map_batches`` emits
    per-batch (centroid, sum-vector, count) partials, a tiny
    groupby-sum reduces them, and only the (n_centroids x dim) matrix
    ever reaches the driver. Init is deterministic: the n_centroids
    lowest corpus vec_ids (predicate-pushdown read).

    Sums are exact float64 over a fixed assignment, so the centroids
    are deterministic across runs/cluster sizes up to float summation
    order; assignment uses them only through argmax which is stable on
    this corpus (verified against the exact oracle at 3 sfs)."""
    import pyarrow.parquet as pq
    import ray.data
    from ray.data.aggregate import Sum

    init = pq.read_table(
        _p(sf_dir),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", ">=", n_queries), ("vec_id", "<", n_queries + n_centroids)],
    )
    order = np.argsort(init["vec_id"].to_numpy(), kind="stable")
    cents = _normalize(
        np.array(init["embedding"].to_pylist(), dtype=np.float64)[order]
    )

    ds = ray.data.read_parquet(_p(sf_dir), columns=["vec_id", "embedding"])
    for _ in range(iters):
        cur = cents

        def partial_sums(batch: pa.Table) -> pa.Table:
            ids = batch["vec_id"].to_numpy(zero_copy_only=False)
            m = _normalize(_mat(batch)[ids >= n_queries])
            if not len(m):
                return pa.table(
                    {
                        "centroid": pa.array([], pa.int64()),
                        "vsum": pa.array([], pa.binary()),
                        "n": pa.array([], pa.int64()),
                    }
                )
            assign = np.argmax(m @ cur.T, axis=1)
            cids, inv = np.unique(assign, return_inverse=True)
            sums = np.zeros((len(cids), m.shape[1]))
            np.add.at(sums, inv, m)
            counts = np.bincount(inv, minlength=len(cids))
            return pa.table(
                {
                    "centroid": pa.array(cids, pa.int64()),
                    "vsum": pa.array([s.tobytes() for s in sums], pa.binary()),
                    "n": pa.array(counts, pa.int64()),
                }
            )

        # reduce the (<= n_centroids x batches) partials: sum counts
        # natively; vector sums are packed float64 summed in a tiny
        # driver loop over n_centroids rows (constant-size, not corpus)
        rows = (
            ds.map_batches(partial_sums, batch_format="pyarrow")
            .groupby("centroid")
            .map_groups(
                lambda g: pd.DataFrame(
                    {
                        "centroid": [int(g["centroid"].iloc[0])],
                        "vsum": [
                            np.sum(
                                [np.frombuffer(b) for b in g["vsum"]], axis=0
                            ).tobytes()
                        ],
                        "n": [int(g["n"].sum())],
                    }
                ),
                batch_format="pandas",
            )
            .take_all()  # n_centroids rows — constant, never the corpus
        )
        new = cents.copy()
        for r in rows:
            if r["n"]:
                new[int(r["centroid"])] = np.frombuffer(r["vsum"]) / r["n"]
        cents = _normalize(new)
    return cents


def ann_topk_ivf(
    sf_dir: str,
    n_queries: int = 8,
    k: int = 5,
    n_centroids: int = 16,
    nprobe: int | None = None,
):
    """IVF-partitioned ANN top-k — the scale path for similarity
    search: vectors are bucketed by nearest centroid and each query
    scans only its ``nprobe`` closest inverted lists.

    With ``nprobe=None`` (all lists) the search is exhaustive and must
    equal the brute-force oracle exactly — that is the oracled
    configuration; ``nprobe < n_centroids`` is the recall/cost knob at
    fleet scale (recall measured in pytest). The pruning happens
    inside each batch via centroid-membership masks, so a probed run
    does 1/nprobe of the matmul work with the same streaming plan."""
    import ray.data

    q_id_list, qm = _read_query_vectors(sf_dir, n_queries)
    cents = build_ivf_centroids(sf_dir, n_queries, n_centroids)
    if nprobe is None:
        nprobe = n_centroids
    # per-query probe set: the nprobe closest centroids
    probe = np.argsort(-(qm @ cents.T), axis=1, kind="stable")[:, :nprobe]
    probe_mask = np.zeros((len(qm), n_centroids), dtype=bool)
    for qi in range(len(qm)):
        probe_mask[qi, probe[qi]] = True

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        mask = ids >= n_queries
        out_q, out_n, out_c = [], [], []
        if mask.any():
            m = _normalize(_mat(batch)[mask])
            ids = ids[mask]
            assign = np.argmax(m @ cents.T, axis=1)
            for qi in range(len(qm)):
                sel = probe_mask[qi, assign]
                if not sel.any():
                    continue
                sims = m[sel] @ qm[qi]
                sub_ids = ids[sel]
                idx = np.lexsort((sub_ids, -sims))[: min(k, len(sims))]
                out_q.append(np.full(len(idx), q_id_list[qi], dtype=np.int64))
                out_n.append(sub_ids[idx].astype(np.int64))
                out_c.append(sims[idx])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "neighbor_id": pa.array([], pa.int64()),
                    "cos": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
                "neighbor_id": pa.array(np.concatenate(out_n), type=pa.int64()),
                "cos": pa.array(np.concatenate(out_c), type=pa.float64()),
            }
        )

    ds = ray.data.read_parquet(_p(sf_dir), columns=["vec_id", "embedding"])
    partials = ds.map_batches(partial_topk, batch_format="pyarrow")
    return _topk_reduce(partials, k)


def embedding_dup_pairs(sf_dir: str, threshold: float = 0.999):
    """Exact all-pairs cosine near-dup over the noisy-copy corpus:
    corpus matrix broadcast once, each batch matmuls against it;
    emits pairs (a < b) with cos >= threshold."""
    import ray
    import ray.data

    base = ray.data.read_parquet(
        _p(sf_dir), columns=["vec_id", "embedding"]
    ).map_batches(with_noisy_copies, batch_format="pyarrow")
    # materialize the (small) corpus matrix once and broadcast
    ids_all: list[int] = []
    vecs: list[np.ndarray] = []
    for b in base.iter_batches(batch_size=8192, batch_format="pyarrow"):
        ids_all.extend(b["vec_id"].to_pylist())
        vecs.append(_mat(b))
    order = np.argsort(ids_all, kind="stable")
    corpus_ids = np.array(ids_all)[order]
    corpus = _normalize(np.vstack(vecs)[order])
    ref = ray.put((corpus_ids, corpus))

    class PairFinder:
        def __init__(self, ref, threshold):
            self.ids, self.corpus = ray.get(ref)
            self.threshold = threshold

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = np.array(batch["vec_id"].to_pylist())
            m = _normalize(_mat(batch))
            sims = m @ self.corpus.T
            a_out, b_out = [], []
            for r in range(sims.shape[0]):
                hits = np.where(sims[r] >= self.threshold)[0]
                for h in hits:
                    a, b = int(ids[r]), int(self.ids[h])
                    if a < b:
                        a_out.append(a)
                        b_out.append(b)
            return pa.table(
                {
                    "a": pa.array(a_out, type=pa.int64()),
                    "b": pa.array(b_out, type=pa.int64()),
                }
            )

    return base.map_batches(
        PairFinder,
        batch_format="pyarrow",
        **actor_pool(),
        fn_constructor_args=(ref, threshold),
    )


class HyperplaneBucketizer:
    """Actor stage: vec -> one (shuffle_bucket, bucket, vec_id) row per
    LSH table. Planes are built ONCE per actor (lazily, on the first
    batch, because the dimension is inferred from the data — the fixed
    seed makes every actor's planes identical). Only 20 B/row ride the
    shuffle — vectors are re-fetched at verify time via a hash join,
    which removes the x n_tables float-payload amplification."""

    SHUFFLE_BUCKETS = 64  # floor; plans pass a cluster-sized count

    def __init__(
        self, n_tables: int, n_bits: int, seed: int, shuffle_buckets: int | None = None
    ):
        self.n_tables = n_tables
        self.n_bits = n_bits
        self.seed = seed
        self.shuffle_buckets = shuffle_buckets or self.SHUFFLE_BUCKETS
        self.planes: np.ndarray | None = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        m = _normalize(_mat(batch))
        if self.planes is None:
            self.planes = np.random.RandomState(self.seed).randn(
                self.n_tables, self.n_bits, m.shape[1]
            )
        out_s, out_b, out_id = [], [], []
        pow2 = 1 << np.arange(self.n_bits)
        for t in range(self.n_tables):
            keys = ((m @ self.planes[t].T) > 0) @ pow2
            full = (t * (1 << self.n_bits) + keys).astype(np.int64)
            out_s.append(full % self.shuffle_buckets)
            out_b.append(full)
            out_id.append(ids)
        return pa.table(
            {
                "shuffle_bucket": pa.array(
                    np.concatenate(out_s).astype(np.int32), type=pa.int32()
                ),
                "bucket": pa.array(np.concatenate(out_b), type=pa.int64()),
                "vec_id": pa.array(np.concatenate(out_id), type=pa.int64()),
            }
        )


def _staged_noisy_corpus(sf_dir: str):
    """The noisy-copy embedding corpus staged to a write-once keyed
    parquet cache (multi-consumer plans re-read it lazily instead of
    pinning the vectors in the object store)."""
    import ray.data

    from .staging import stage_keyed

    return stage_keyed(
        "noisy_vecs",
        _p(sf_dir),
        lambda: ray.data.read_parquet(
            _p(sf_dir), columns=["vec_id", "embedding"]
        ).map_batches(with_noisy_copies, batch_format="pyarrow"),
    )


def _pack_payloads(base):
    """(doc_id, payload: binary) — the float64 vector bytes packed into
    a binary column (Arrow shuffles/joins reject list<> payloads);
    frombuffer unpacks zero-copy at the verify."""

    def pack(batch: pa.Table) -> pa.Table:
        m = _mat(batch).astype(np.float64)
        return pa.table(
            {
                "doc_id": batch["vec_id"],
                "payload": pa.array(
                    [row.tobytes() for row in m], type=pa.binary()
                ),
            }
        )

    return base.map_batches(pack, batch_format="pyarrow")


def lsh_bucketed_dup_pairs(sf_dir: str, threshold: float = 0.999, n_tables: int = 8,
                           n_bits: int = 12, seed: int = 77):
    """Scale-path variant: random-hyperplane LSH bucketing -> bucketed
    candidate pair generation over (bucket, id) rows only -> native
    pair dedup -> co-shuffled reduce-side semi-join fetches both
    vectors -> cosine verify on co-located rows. Recall is probabilistic in general but a
    deterministic function of the input with the fixed seed; on the
    planted corpus (cos ~0.9999) it recovers the exact variant's pair
    set, which is the oracle.

    The noisy-copy corpus is synthesized once into a keyed parquet
    cache and STREAMED from disk by the bucketing and payload passes —
    no corpus-sized object-store pin (see pipelines/staging.py)."""
    import ray.data

    from .agg import coarse_buckets
    from .dedup import (
        _bucket_candidate_pairs,
        _cogroup_pair_payloads,
        _verify_pairs,
    )

    base = _staged_noisy_corpus(sf_dir)

    # plan split before the verify shuffle (see dedup.py); cross-table
    # candidate dedup is free downstream — all copies of a pair
    # co-locate in the attach doc-bucket group and dedupe locally.
    # Candidate ids land on disk (stage_run_scoped), not in the store.
    from .staging import stage_run_scoped

    uniq = stage_run_scoped(
        base.map_batches(
            HyperplaneBucketizer,
            batch_format="pyarrow",
            **actor_pool(),
            fn_constructor_args=(n_tables, n_bits, seed, coarse_buckets()),
        )
        .groupby("shuffle_bucket")
        .map_groups(
            _bucket_candidate_pairs,
            batch_format="pandas",
            fn_args=("bucket", "vec_id", "embedding-lsh"),
        ),
        "lsh_cand",
    )

    sided = _cogroup_pair_payloads(uniq, _pack_payloads(base))

    def check(a: int, pa_: bytes, b: int, pb_: bytes) -> bool:
        va = _normalize(np.frombuffer(pa_, dtype=np.float64)[None, :])[0]
        vb = _normalize(np.frombuffer(pb_, dtype=np.float64)[None, :])[0]
        return float(va @ vb) >= threshold

    return _verify_pairs(sided, check)


def embedding_clusters(sf_dir: str, n_queries: int = 8, n_centroids: int = 16):
    """Document CLUSTERING over the embedding column (the SemDedup /
    cluster-then-curate step): every vector is assigned to its nearest
    of ``n_centroids`` deterministic seed centroids (the lowest corpus
    vec_ids, predicate-pushdown read — the Lloyd-refined variant is
    :func:`build_ivf_centroids`; seeds keep the assignment SQL-
    restatable, since iterated float centroids are not).

    Assignment is a per-batch argmax over one matmul against the
    broadcast (n_centroids x dim) matrix — ties break toward the lowest
    centroid id on both sides (np.argmax takes the first maximum; the
    oracle orders by cosine DESC, cid ASC). Output is integer-only, so
    the oracle hash is float-free."""
    import pyarrow.parquet as pq
    import ray.data

    init = pq.read_table(
        _p(sf_dir),
        columns=["vec_id", "embedding"],
        filters=[
            ("vec_id", ">=", n_queries),
            ("vec_id", "<", n_queries + n_centroids),
        ],
    )
    order = np.argsort(init["vec_id"].to_numpy(), kind="stable")
    cent_ids = init["vec_id"].to_numpy()[order]
    cents = _normalize(
        np.array(init["embedding"].to_pylist(), dtype=np.float64)[order]
    )

    ds = ray.data.read_parquet(_p(sf_dir), columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        m = _normalize(_mat(batch))
        best = np.argmax(m @ cents.T, axis=1)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "cluster_id": pa.array(cent_ids[best], pa.int64()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def semantic_dedup(
    sf_dir: str, n_queries: int = 8, n_centroids: int = 16, eps: float = 0.999
):
    """SemDeDup [Abbas et al. 2023, arXiv:2303.09540] — semantic
    deduplication over the embedding column: cluster the corpus, then
    flag within-cluster semantic duplicates (cosine >= ``eps``),
    keeping the lowest vec_id of each duplicate group. Runs over the
    noisy-copy corpus (planted near-identical copies at cos ~0.9999,
    the same SQL-restatable corpus as embedding_dup_pairs).

    Ray shape, 100-TB-honest: the quadratic step is confined WITHIN
    clusters — assignment is one matmul per batch against the
    broadcast (n_centroids x dim) seed matrix (deterministic lowest-id
    seeds, as in :func:`embedding_clusters`, so the whole computation
    is SQL-restatable), then ``groupby(cluster_id).map_groups`` runs
    the per-cluster gram matrix. Cost is sum(c_i^2), never corpus^2;
    at fleet scale n_centroids grows with the corpus so cluster sizes
    stay bounded, and the shuffle carries (vec_id, cluster_id,
    payload) exactly once per vector. Output (vec_id, cluster_id,
    removed) is decided by float64 cosine with an ~1e-3 margin to the
    planted structure on both sides, so it is deterministic across
    partitionings.

    removed[i] = exists j in the same cluster with vec_id_j < vec_id_i
    and cos(i, j) >= eps — the keep-lowest-id rule stated as an EXISTS,
    which is what the DuckDB oracle evaluates verbatim.
    """
    import pyarrow.parquet as pq
    import ray.data

    init = pq.read_table(
        _p(sf_dir),
        columns=["vec_id", "embedding"],
        filters=[
            ("vec_id", ">=", n_queries),
            ("vec_id", "<", n_queries + n_centroids),
        ],
    )
    order = np.argsort(init["vec_id"].to_numpy(), kind="stable")
    cent_ids = init["vec_id"].to_numpy()[order]
    cents = _normalize(
        np.array(init["embedding"].to_pylist(), dtype=np.float64)[order]
    )

    corpus = _staged_noisy_corpus(sf_dir)

    def assign_pack(batch: pa.Table) -> pa.Table:
        m = _mat(batch).astype(np.float64)
        best = np.argmax(_normalize(m) @ cents.T, axis=1)
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "cluster_id": pa.array(cent_ids[best], pa.int64()),
                "payload": pa.array(
                    [row.tobytes() for row in m], type=pa.binary()
                ),
            }
        )

    def cluster_dedup(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy()
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        m = np.stack(
            [
                np.frombuffer(b, dtype=np.float64)
                for b in g["payload"].to_numpy()[order]
            ]
        )
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        nm = m / norms
        # removed[i] = any earlier (lower-id) row in this cluster with
        # cosine >= eps; strictly-lower triangle so the group keeper
        # itself is never flagged
        dup = np.tril(nm @ nm.T >= eps, k=-1).any(axis=1)
        return pd.DataFrame(
            {
                "vec_id": ids.astype(np.int64),
                "cluster_id": np.full(len(ids), g["cluster_id"].iloc[0], np.int64),
                "removed": dup,
            }
        )

    return (
        corpus.map_batches(assign_pack, batch_format="pyarrow")
        .groupby("cluster_id")
        .map_groups(cluster_dedup, batch_format="pandas")
    )


def embedding_quantize(sf_dir: str):
    """INT8 vector quantization — the storage/compute scale path for
    ANN at fleet size (4x smaller vectors, integer dot products).
    Each float32 component maps to ``clamp(floor(x * 128 + 0.5),
    -127, 127)`` (the repo-wide half-up rule, symmetric int8 range);
    the op emits per-vector integer summaries (sum of codes, sum of
    squared codes = the quantized L2 energy, and the count of
    saturated components) that the SQL oracle reproduces exactly via
    list_transform over the same formula — float32 components are
    exactly representable in SQL's double, so both sides quantize
    identical inputs.

    Shape: a pure vectorized map_batches over the (vec_id, embedding)
    columns — no shuffle; at 100 TB this is the cheap preprocessing
    pass ahead of the IVF/LSH index builds."""
    import ray.data

    ds = ray.data.read_parquet(_p(sf_dir), columns=["vec_id", "embedding"])

    def quant(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        emb = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
        q = np.floor(emb.astype(np.float64) * 128.0 + 0.5)
        sat = (q < -127) | (q > 127)
        q = np.clip(q, -127, 127).astype(np.int64)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "q_sum": pa.array(q.sum(axis=1), pa.int64()),
                "q_energy": pa.array((q * q).sum(axis=1), pa.int64()),
                "n_saturated": pa.array(
                    sat.sum(axis=1).astype(np.int64), pa.int64()
                ),
            }
        )

    return ds.map_batches(quant, batch_format="pyarrow")
