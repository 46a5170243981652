"""Deduplication operators (build mandate): exact, MinHash+LSH,
SimHash, n-gram Jaccard, embedding-cosine near-dup.

Scale shapes:
- exact dedup: add the hash/key columns vectorized in ``map_batches``,
  then ONE hash-partitioned ``groupby(key).map_groups(first)`` — the
  only shuffle, over (key, id) pairs.
- MinHash-LSH: per-batch shingle->signature->band keys (actor pool,
  hasher built once), explode to (band_key, doc_id) rows, groupby
  band_key -> candidate pairs, a co-group on doc_id (``agg.cogroup``)
  that co-locates each pair with its two texts, exact-Jaccard verify
  per co-located pair row, then star contraction for clusters.
  Nothing — corpus, candidates, or pair texts — ever materializes on
  the driver.
- near-dup corpora for verification are synthesized deterministically
  (``with_mutated_copies``): every 10th doc gets a copy with id
  ``+ DUP_OFFSET`` and ~1/40 words rewritten, giving shingle Jaccard
  ~0.9. With 64 hashes in 16 bands x 4 rows, the per-pair miss
  probability is (1 - j^4)^16 ~ 2e-9 — deterministic in practice, so
  the SQL oracle can state the expected pairs exactly.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import (
    MinHasher,
    TokenHasher,
    hamming64,
    jaccard,
    simhash64,
)
from .agg import coarse_buckets, cogroup
from .textstats import TOKEN_RE
from .extract_pipeline import actor_pool

DUP_OFFSET = 10_000_000


def _p(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def mutate_text(t: str) -> str:
    """Every 40th word -> ``mutantN``. A pure function of the text, and
    deliberately SQL-expressible (string_split + indexed list_transform)
    so oracles can rebuild the mutated corpus."""
    words = t.split(" ")
    for k in range(0, len(words), 40):
        words[k] = f"mutant{k}"
    return " ".join(words)


def dup_copy_mask(ids: "np.ndarray") -> "np.ndarray":
    """True where this doc_id gets a ``+ DUP_OFFSET`` copy in the
    synthetic dup corpus. SINGLE source of truth for the copy rule:
    ``with_mutated_copies`` emits the copies and
    ``near_dedup_survivors`` derives the id universe from it — editing
    the rule in one place keeps the pair finder, the survivor set and
    the SQL oracles in sync."""
    ids = np.asarray(ids, dtype=np.int64)
    return (ids % 10 == 0) | (ids % 10 == 5)


def with_mutated_copies(batch: pa.Table) -> pa.Table:
    """documents batch -> batch + duplicate copies (membership rule =
    ``dup_copy_mask``):

    - ``doc_id % 10 == 0``: NEAR-dup copy (mutate_text, shingle
      Jaccard ~0.9) with doc_id + DUP_OFFSET
    - ``doc_id % 10 == 5``: EXACT copy with doc_id + DUP_OFFSET
    """
    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    add_ids, add_texts = [], []
    for i, t, m in zip(ids, texts, dup_copy_mask(ids)):
        if not m:
            continue
        add_ids.append(i + DUP_OFFSET)
        add_texts.append(mutate_text(t) if i % 10 == 0 else t)
    return pa.table(
        {
            "doc_id": pa.array(ids + add_ids, type=pa.int64()),
            "text": pa.array(texts + add_texts, type=pa.string()),
        }
    )


def dup_corpus(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return ds.map_batches(with_mutated_copies, batch_format="pyarrow")


def staged_dup_corpus(sf_dir: str):
    """The dup corpus staged to a write-once parquet cache (keyed on
    the documents-table fingerprint) and re-read lazily: the
    multi-consumer passes of the near-dup family (banding + payload
    fetch) each STREAM it from disk instead of pinning a second copy
    of the corpus in the object store. See pipelines/staging.py for
    the fleet-scale placement contract."""
    from .staging import stage_keyed

    return stage_keyed(
        "dup_corpus", _p(sf_dir, "documents"), lambda: dup_corpus(sf_dir)
    )


# -- exact dedup --


def exact_dedup_text(sf_dir: str):
    """Exact dedup by full text content over the dup corpus: keep the
    min doc_id per distinct text.

    Shape: hash the text to a 128-bit content key (two int64 columns —
    64 bits would birthday-collide around 4e9 rows, 128 never does at
    corpus scale), then ONE native ``groupby.aggregate(Min)`` — no
    per-distinct-key Python (a ``map_groups`` here would spawn ~one
    pandas frame per distinct text: 10^12 tiny frames at fleet scale).
    Only (h1, h2, doc_id) rows ride the shuffle, never the text."""
    from ray.data.aggregate import Min

    from ..functions.hashing import blake2b128_of_strings

    ds = dup_corpus(sf_dir)

    def add_hash(t: pa.Table) -> pa.Table:
        # zero-copy buffer-view hashing (no pylist/encode round-trip)
        h1, h2 = blake2b128_of_strings(t["text"])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "h1": pa.array(h1, type=pa.int64()),
                "h2": pa.array(h2, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby(["h1", "h2"])
        .aggregate(Min("doc_id", alias_name="doc_id"))
        .select_columns(["doc_id"])
    )


def exact_dedup_key(sf_dir: str):
    """Exact dedup by a coarse key (lang, n_chars) over documents —
    real collisions exist in the corpus; keeps min doc_id per group.
    Native Min aggregate: no per-group Python."""
    import ray.data
    from ray.data.aggregate import Min

    ds = ray.data.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "lang", "n_chars"]
    )
    return ds.groupby(["lang", "n_chars"]).aggregate(
        Min("doc_id", alias_name="doc_id")
    )


def streaming_exact_dedup(sf_dir: str, n_shards: int = 8):
    """INCREMENTAL exact dedup through a SHARED MUTABLE INDEX: a pool
    of key-sharded raw ``@ray.remote`` actors each owns one slice of
    the content-hash space and folds batches into its ``seen`` map as
    they stream past.

    This is the one shape the Dataset API genuinely cannot express —
    cross-batch mutable state that must answer membership DURING the
    stream (incremental crawl ingest: "is this doc new as of now?").
    For one-shot batch dedup the shuffle variant (``exact_dedup_text``)
    is strictly better — this operator exists for the arrival-over-time
    case, and its final state equals the batch answer because the fold
    (min doc_id per key) is associative and commutative, so arrival
    order cannot change the result (same DuckDB oracle).

    Scale shape: shard count scales with cluster size (hash-partition
    the key space exactly like a shuffle would); per-shard memory is
    (distinct keys / shards) x 24 B. Each mapper task sends each batch
    slice to its owner shard once — the same volume a shuffle would
    move, but with streamed availability. Actors are killed on exit."""
    import ray

    from ..functions.hashing import blake2b128_of_strings

    @ray.remote(num_cpus=0.25)
    class DedupShard:
        """Owns h1 % n_shards == shard_id; seen: (h1, h2) -> min doc_id."""

        def __init__(self):
            self.seen: dict[tuple[int, int], int] = {}

        def offer(self, h1, h2, ids) -> int:
            """Fold a batch slice in; returns how many keys were new
            (the streaming 'is this new?' answer, batched)."""
            seen = self.seen
            fresh = 0
            for a, b, d in zip(h1.tolist(), h2.tolist(), ids.tolist()):
                k = (a, b)
                cur = seen.get(k)
                if cur is None:
                    seen[k] = d
                    fresh += 1
                elif d < cur:
                    seen[k] = d
            return fresh

        def dump(self) -> pa.Table:
            items = sorted(self.seen.items())
            return pa.table(
                {
                    "doc_id": pa.array([d for _, d in items], pa.int64()),
                }
            )

    shards = [DedupShard.remote() for _ in range(n_shards)]

    def ingest(t: pa.Table) -> pa.Table:
        h1, h2 = blake2b128_of_strings(t["text"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        shard_of = (h1 % n_shards + n_shards) % n_shards
        refs = []
        for s in range(n_shards):
            m = shard_of == s
            if m.any():
                refs.append(shards[s].offer.remote(h1[m], h2[m], ids[m]))
        import ray as _ray

        _ray.get(refs)  # barrier per batch: state is current when we return
        return pa.table({"n": pa.array([len(t)], pa.int64())})

    try:
        # drive the stream through the index (the count() is the sink)
        dup_corpus(sf_dir).map_batches(ingest, batch_format="pyarrow").count()
        import ray as _ray

        tables = _ray.get([s.dump.remote() for s in shards])
    finally:
        import ray as _ray

        for s in shards:
            _ray.kill(s)
    return pa.concat_tables(tables)


# -- MinHash + LSH --


# floor for the coarse shuffle key; plans size the actual count from
# cluster CPUs via coarse_buckets() at build time
N_SHUFFLE_BUCKETS = 64


class MinHashStage:
    """doc -> (bucket, band_key, doc_id) rows; hasher warm per actor.

    ``bucket`` coarsens the shuffle key: the downstream groupby
    co-locates ~(bands x docs / n_shuffle) rows per group and pair
    generation does a LOCAL pandas groupby per band inside each group —
    thousands of tiny distributed groups collapse into ~2/CPU, which
    removes Ray's per-group dispatch overhead while producing identical
    pairs. ``n_shuffle`` is resolved from cluster size at plan-build
    time (coarse_buckets) so reducer parallelism scales with the fleet.
    """

    def __init__(self, n_shuffle: int = N_SHUFFLE_BUCKETS):
        self.n_shuffle = n_shuffle
        self.word = re.compile(TOKEN_RE)
        self.hasher = MinHasher(k=64, bands=16)
        self.th = TokenHasher()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        shingles = [
            self.th.shingle_hashes(self.word.findall(t))
            for t in batch["text"].to_pylist()
        ]
        # zero-shingle docs emit NO band rows: the all-0xFF sentinel
        # signature would otherwise collide every token-less doc into
        # one bucket (O(n^2) pairs) and report jaccard(empty,empty)=1
        # "near-dups" for documents that share no content at all
        nonempty = np.array([len(s) > 0 for s in shingles], dtype=bool)
        if not nonempty.all():
            ids = ids[nonempty]
            shingles = [s for s in shingles if len(s)]
        sigs = self.hasher.signatures_batch(shingles)  # (k, n) one pass
        keys = self.hasher.band_keys_batch(sigs)       # (bands, n)
        flat = keys.reshape(-1)
        out_ids = np.tile(ids, self.hasher.bands)
        return pa.table(
            {
                "bucket": pa.array(
                    (flat.view(np.uint64) % np.uint64(self.n_shuffle)).astype(
                        np.int32
                    ),
                    type=pa.int32(),
                ),
                "band_key": pa.array(flat, type=pa.int64()),
                "doc_id": pa.array(out_ids, type=pa.int64()),
            }
        )


# Pair generation inside one band is O(members^2): a degenerate band
# (boilerplate/near-empty docs all hashing to one key) would otherwise
# explode quadratically — the classic LSH skew failure at corpus scale.
# Bands over the cap degrade to STAR SAMPLING (each member paired with
# the band's min id, O(n) pairs) so candidate recall never silently
# drops to zero for docs whose every band is degenerate; the exact
# verify stage discards the star's false positives. The degradation is
# logged with band/doc counts.
MAX_BAND_MEMBERS = 256


def _log_band_drops(label: str, dropped_bands: int, dropped_docs: int):
    if dropped_bands:
        import logging

        logging.getLogger(__name__).warning(
            "%s: %d degenerate band(s) with > %d members degraded to "
            "star sampling (%d member rows affected)",
            label,
            dropped_bands,
            MAX_BAND_MEMBERS,
            dropped_docs,
        )


def _bucket_candidate_pairs(
    g: pd.DataFrame,
    band_col: str = "band_key",
    id_col: str = "doc_id",
    label: str = "minhash-lsh",
) -> pd.DataFrame:
    """All within-band ``(a, b)`` id pairs (``a < b``) for every band
    (distinct ``band_col`` value) in one shuffle bucket, with the
    degenerate-band cap: an over-cap band degrades to STAR SAMPLING
    (every member paired with the band's min id — O(n) pairs) instead
    of being dropped wholesale, so a true near-dup pair whose every band
    is degenerate still surfaces through the hub doc (and the
    downstream exact verify discards the false positives). The
    degradation is logged under ``label`` with counts. The one candidate
    generator of the MinHash, SimHash and embedding LSH operators."""
    a_out: list[int] = []
    b_out: list[int] = []
    capped_bands = capped_docs = 0
    for _, band in g.groupby(band_col):
        ids = sorted(set(band[id_col].tolist()))
        if len(ids) > MAX_BAND_MEMBERS:
            capped_bands += 1
            capped_docs += len(ids)
            a_out.extend([ids[0]] * (len(ids) - 1))
            b_out.extend(ids[1:])
            continue
        for i, a in enumerate(ids):
            a_out.extend([a] * (len(ids) - i - 1))
            b_out.extend(ids[i + 1:])
    _log_band_drops(label, capped_bands, capped_docs)
    return pd.DataFrame({"a": a_out, "b": b_out}).drop_duplicates()


def _cogroup_pair_payloads(uniq_pairs, corpus_payloads, n_buckets: int | None = None):
    """Distributed reduce-side semi-join co-locating each candidate
    pair with BOTH payloads, without per-pair payload amplification.

    ``corpus_payloads`` is a Dataset of (doc_id, payload: binary).
    Stage 1 co-groups pair sides with payloads on ``doc_id``
    (``agg.cogroup``); the bucket reduce emits, per pair_bucket = f(a, b):
    - one PAIR row (a, b) per candidate pair (from its a-side only)
    - one PAYLOAD row (doc_id, payload) per DISTINCT (doc, pair_bucket)
      — a hub document in P pairs ships at most min(P, n_buckets)
      payload copies into the verify shuffle instead of P (dup-heavy
      corpora amplify exactly where dedup matters most).
    Stage 2 (the caller) groups by pair_bucket: each group sees every
    pair next to the payloads it needs. Nothing materializes on the
    driver."""
    n_buckets = coarse_buckets(n_buckets)

    def explode(t: pa.Table) -> pa.Table:
        # one side row per pair endpoint: (doc_id, a, b)
        a = t["a"].combine_chunks()
        b = t["b"].combine_chunks()
        return pa.table(
            {
                "doc_id": pa.concat_arrays([a, b]),
                "a": pa.concat_arrays([a, a]),
                "b": pa.concat_arrays([b, b]),
            }
        )

    def attach(tc: pa.Table, pr: pa.Table) -> pa.Table:
        # pyarrow parts: the payload column passes through as a
        # zero-copy Arrow take — no bytes -> object -> bytes round-trip
        # for the largest column in the plan (was pandas in r2/r3).
        # candidate dedup happens HERE, locally: a pair surfacing from
        # several bands sends all its (a,b,doc_id) side copies to the
        # same doc bucket, so the local unique replaces a whole extra
        # all-to-all aggregate over the candidate set (measured ~35s of
        # remote wall at sf0.1 — the most expensive op in the r2 plan)
        # either side may be missing here (no columns)
        trip = np.empty((0, 3), dtype=np.int64)
        if pr.num_rows:
            cols = [pr[c].to_numpy().astype(np.int64) for c in ("a", "b", "doc_id")]
            trip = np.unique(np.stack(cols, axis=1), axis=0)
        side_a, side_b, side_doc = trip[:, 0], trip[:, 1], trip[:, 2]
        pair_bucket = (side_a * 1_000_003 + side_b) % n_buckets
        # pair rows: from the a-side only -> exactly once per pair
        amask = side_doc == side_a
        # payload rows: once per DISTINCT (doc, pair_bucket)
        dp = (
            np.unique(np.stack([side_doc, pair_bucket], axis=1), axis=0)
            if len(trip)
            else np.empty((0, 2), dtype=np.int64)
        )
        cdoc = (
            tc["doc_id"].to_numpy().astype(np.int64)
            if tc.num_rows
            else np.empty(0, dtype=np.int64)
        )
        if len(cdoc):
            order = np.argsort(cdoc, kind="stable")
            ins = np.clip(
                np.searchsorted(cdoc, dp[:, 0], sorter=order), 0, len(cdoc) - 1
            )
            # defensive: drop sites whose doc has no payload row here
            # (the verify stage also guards) vs mis-taking a neighbor
            ok = cdoc[order[ins]] == dp[:, 0]
            dp = dp[ok]
            pos = order[ins[ok]]
        else:
            dp = dp[:0]
            pos = np.empty(0, dtype=np.int64)
        pay = (
            tc["payload"].combine_chunks().take(pa.array(pos, pa.int64()))
            if tc.num_rows
            else pa.array([], pa.binary())
        )
        n_pairs, n_pay = int(amask.sum()), len(dp)
        return pa.table(
            {
                "pair_bucket": pa.array(
                    np.concatenate([pair_bucket[amask], dp[:, 1]]), pa.int64()
                ),
                "a": pa.array(
                    np.concatenate(
                        [side_a[amask], np.full(n_pay, -1, dtype=np.int64)]
                    ),
                    pa.int64(),
                ),
                "b": pa.array(
                    np.concatenate(
                        [side_b[amask], np.full(n_pay, -1, dtype=np.int64)]
                    ),
                    pa.int64(),
                ),
                "doc_id": pa.array(
                    np.concatenate(
                        [np.full(n_pairs, -1, dtype=np.int64), dp[:, 0]]
                    ),
                    pa.int64(),
                ),
                "payload": pa.concat_arrays(
                    [pa.nulls(n_pairs, pay.type), pay]
                ),
            }
        )

    return cogroup(
        [corpus_payloads, uniq_pairs.map_batches(explode, batch_format="pyarrow")],
        "doc_id",
        n_buckets,
        attach,
        batch_format="pyarrow",
    )


def _verify_pairs(sided, check_fn):
    """Stage 2 of the co-grouped verify: per pair_bucket group, build
    the local doc_id -> payload dict once and run ``check_fn(a_payload,
    b_payload) -> bool`` over the group's pair rows."""

    def verify(t: pa.Table) -> pa.Table:
        # pyarrow group batch: only the payloads actually checked are
        # materialized as bytes (check_fn needs them); the int columns
        # never round-trip through pandas object machinery
        pmask = pc.greater_equal(t["doc_id"], pa.scalar(0, pa.int64()))
        tp = t.filter(pmask)
        payloads = dict(
            zip(tp["doc_id"].to_pylist(), tp["payload"].to_pylist())
        )
        pr = t.filter(pc.invert(pmask))
        out_a, out_b = [], []
        for a, b in zip(pr["a"].to_pylist(), pr["b"].to_pylist()):
            pa_, pb_ = payloads.get(a), payloads.get(b)
            if pa_ is None or pb_ is None:
                continue  # defensive: a pair without both payloads
            if check_fn(a, pa_, b, pb_):
                out_a.append(a)
                out_b.append(b)
        return pa.table(
            {
                "a": pa.array(out_a, pa.int64()),
                "b": pa.array(out_b, pa.int64()),
            }
        )

    return sided.groupby("pair_bucket").map_groups(verify, batch_format="pyarrow")


def minhash_dup_pairs(sf_dir: str, threshold: float = 0.5, n_buckets: int | None = None):
    """Verified near-dup pairs (a < b) over the dup corpus.

    Fully distributed shape (no driver-side corpus materialization
    anywhere): banded LSH -> bucketed candidate pair generation ->
    native dedup of the candidate set -> co-shuffle each pair with its
    two texts by doc_id bucket (reduce-side semi-join, payloads shipped
    once per (doc, pair_bucket), not once per pair) -> bucketed
    exact-Jaccard verify where each pair's two shingle sets meet.
    ``n_buckets`` scales with cluster size at fleet scale.

    The mutated corpus is SYNTHESIZED once: ``staged_dup_corpus``
    writes it to a keyed parquet cache, and the banding pass and the
    payload pass each stream it from disk — nothing corpus-sized is
    ever pinned in the object store or resident on the driver."""
    corpus = staged_dup_corpus(sf_dir)
    banded = corpus.map_batches(
        MinHashStage,
        batch_format="pyarrow",
        concurrency=(1, 8),
        fn_constructor_args=(coarse_buckets(),),
    )
    # a pair can surface from bands in different shuffle buckets; its
    # global dedup is FREE downstream (all copies co-locate in the
    # attach doc-bucket group and drop_duplicates there — no extra
    # all-to-all over the candidate set). stage_run_scoped lands the
    # candidate (a, b) id rows (16 B/row) on disk and splits the plan
    # so the minhash pool and the verify shuffle don't hold resources
    # concurrently (which starves small clusters outright) — same
    # plan-split as materialize(), zero object-store pin.
    from .staging import stage_run_scoped

    uniq = stage_run_scoped(
        banded.groupby("bucket").map_groups(
            _bucket_candidate_pairs, batch_format="pandas"
        ),
        "minhash_cand",
    )

    def text_payloads(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "payload": t["text"].cast(pa.binary())}
        )

    sided = _cogroup_pair_payloads(
        uniq,
        corpus.map_batches(text_payloads, batch_format="pyarrow"),
        n_buckets,
    )

    word = re.compile(TOKEN_RE)
    th = TokenHasher()
    cache: dict[int, np.ndarray] = {}

    def sh(doc_id: int, payload: bytes) -> np.ndarray:
        # shingles computed once per doc per pair_bucket group
        h = cache.get(doc_id)
        if h is None:
            h = np.sort(th.shingle_hashes(word.findall(payload.decode("utf-8"))))
            cache[doc_id] = h
        return h

    def check(a: int, pa_: bytes, b: int, pb_: bytes) -> bool:
        return jaccard(sh(a, pa_), sh(b, pb_)) >= threshold

    return _verify_pairs(sided, check)


class ShingleIndexStage:
    """Inverted-index explode for exact n-gram Jaccard: each doc ->
    one row per DISTINCT 3-token shingle hash, carrying the doc's
    distinct-shingle count ``n`` so the pair reducer can finish the
    Jaccard arithmetic (2c >= na + nb - c) without a second corpus
    pass. Tokenizer + hasher compiled once per actor.

    ``bucket = sh % n_buckets`` means EVERY occurrence of one shingle
    lands in the same shuffle bucket, so in-bucket document frequency
    IS global document frequency — the hot-shingle guard below sees
    the true DF without an extra aggregation."""

    def __init__(self, n_buckets: int):
        self.word = re.compile(TOKEN_RE)
        self.th = TokenHasher()
        self.n_buckets = n_buckets

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        sh_out: list[np.ndarray] = []
        id_out: list[np.ndarray] = []
        n_out: list[np.ndarray] = []
        for d, txt in zip(ids, t["text"].to_pylist()):
            h = self.th.shingle_hashes(self.word.findall(txt))
            if h.size == 0:
                # zero-token docs emit nothing (same rule as
                # MinHashStage: token-less docs share no content)
                continue
            sh_out.append(h.view(np.int64))
            id_out.append(np.full(h.size, d, dtype=np.int64))
            n_out.append(np.full(h.size, h.size, dtype=np.int64))
        sh = (
            np.concatenate(sh_out) if sh_out else np.empty(0, dtype=np.int64)
        )
        return pa.table(
            {
                "bucket": pa.array(
                    (sh % self.n_buckets).astype(np.int32), type=pa.int32()
                ),
                "sh": pa.array(sh, type=pa.int64()),
                "doc_id": pa.array(
                    np.concatenate(id_out)
                    if id_out
                    else np.empty(0, dtype=np.int64),
                    type=pa.int64(),
                ),
                "n": pa.array(
                    np.concatenate(n_out)
                    if n_out
                    else np.empty(0, dtype=np.int64),
                    type=pa.int64(),
                ),
            }
        )


def _bucket_jaccard_partials(max_df: int | None, n_pair_buckets: int):
    """Per-shuffle-bucket partial intersection counts: a self-merge on
    the shingle column yields one row per (shingle, doc pair), and a
    LOCAL pandas groupby collapses them to (a, b, na, nb, partial c)
    before anything rides the second shuffle — the reduce-side data
    volume is pairs, not shingle occurrences."""

    def partials(g: pd.DataFrame) -> pd.DataFrame:
        # singleton shingles (DF = 1 — the vast majority of a web
        # corpus) cannot form a pair: dropping them BEFORE the
        # self-merge shrinks the join input by ~the unique-content
        # fraction with zero effect on the result (they contribute no
        # intersection rows, and n was computed upstream)
        df_counts = g.groupby("sh")["doc_id"].transform("size")
        lo = df_counts >= 2
        if max_df is not None:
            # hot-shingle guard: a boilerplate shingle shared by d docs
            # costs O(d^2) pairs. DF here is GLOBAL (see
            # ShingleIndexStage), so the cut is well-defined; it biases
            # Jaccard DOWN for affected pairs (c shrinks, n keeps the
            # hot shingles) — conservative, and OFF (None) in oracle
            # mode.
            lo &= df_counts <= max_df
        g = g[lo]
        m = g[["sh", "doc_id", "n"]].merge(g[["sh", "doc_id", "n"]], on="sh")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if m.empty:
            return pd.DataFrame(
                {
                    "a": pd.Series(dtype="int64"),
                    "b": pd.Series(dtype="int64"),
                    "na": pd.Series(dtype="int64"),
                    "nb": pd.Series(dtype="int64"),
                    "c": pd.Series(dtype="int64"),
                    "pair_bucket": pd.Series(dtype="int32"),
                }
            )
        out = (
            m.groupby(
                ["doc_id_x", "doc_id_y", "n_x", "n_y"], as_index=False
            )
            .size()
            .rename(
                columns={
                    "doc_id_x": "a",
                    "doc_id_y": "b",
                    "n_x": "na",
                    "n_y": "nb",
                    "size": "c",
                }
            )
        )
        out["c"] = out["c"].astype("int64")
        # single-int32 shuffle key for the global pair reduce: a
        # 4-column groupby key makes Ray's sort-based shuffle the
        # bottleneck (measured 15.8 s vs ~2 s at sf0.1); hashing the
        # pair to a coarse bucket and finishing the sum locally in
        # pandas is the same trick the shingle pass above uses
        out["pair_bucket"] = (
            (
                out["a"].to_numpy(dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                ^ out["b"].to_numpy(dtype=np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
            )
            % np.uint64(n_pair_buckets)
        ).astype(np.int32)
        return out

    return partials


def ngram_jaccard_pairs(
    sf_dir: str,
    threshold: float = 0.5,
    n_buckets: int | None = None,
    max_df: int | None = None,
):
    """EXACT n-gram (3-token shingle) Jaccard near-dup pairs over the
    dup corpus — the deterministic sibling of ``minhash_dup_pairs``
    (same corpus, same threshold, NO LSH approximation; use it when
    recall must be provably 1.0 and the corpus affords two shuffles).

    Distributed shape: staged corpus -> inverted-index explode (one
    row per distinct (shingle, doc)) -> shingle-bucket shuffle with
    LOCAL pair partials (self-merge per bucket, collapsed to partial
    intersection counts before leaving the reducer) -> native
    ``groupby(pair).aggregate(Sum)`` -> vectorized threshold filter
    ``2c >= ceil(t*(na+nb-c))`` expressed integer-exactly for t=0.5 as
    ``2c >= na + nb - c``. Only (shingle, id, n) int rows ride shuffle
    one and (a, b, na, nb, c) rows ride shuffle two — never text.

    Cost model vs MinHash: exact index pays O(sum_sh DF^2) pair rows;
    at web scale boilerplate shingles make that quadratic, so
    production sets ``max_df`` (conservative: biases Jaccard down only
    for pairs sharing hot shingles). Default None = oracle-exact."""
    if abs(threshold - 0.5) > 1e-9:
        raise ValueError(
            "oracle-exact integer arithmetic is derived for t=0.5; "
            "other thresholds need the ceil form (kept simple here)"
        )
    from .staging import stage_run_scoped

    nb_ = n_buckets or coarse_buckets()
    exploded = staged_dup_corpus(sf_dir).map_batches(
        ShingleIndexStage,
        batch_format="pyarrow",
        concurrency=(1, 8),
        fn_constructor_args=(nb_,),
    )
    partials = stage_run_scoped(
        exploded.groupby("bucket").map_groups(
            _bucket_jaccard_partials(max_df, nb_), batch_format="pandas"
        ),
        "jaccard_partials",
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["a", "b", "na", "nb"], as_index=False)["c"].sum()
        keep = 2 * s["c"] >= s["na"] + s["nb"] - s["c"]
        return s.loc[keep, ["a", "b"]]

    return partials.groupby("pair_bucket").map_groups(
        finish, batch_format="pandas"
    )


def url_dedup(sf_dir: str):
    """Exact dedup by url over the pages table (SURVEY.md §2.6:
    defensive — WARC dumps repeat urls): keep the LATEST warc_ts per
    url, tie-broken deterministically. Duplicate rows are synthesized
    inline (every 7th doc re-crawled one hour later) so the winner set
    is oracle-stateable."""
    from ..sources.synth import read_pages

    pages = read_pages(sf_dir, columns=["url", "warc_ts"])

    from ray.data.aggregate import Max

    def with_recrawls(t: pa.Table) -> pa.Table:
        urls = t["url"].to_pylist()
        ts = t["warc_ts"].cast(pa.int64()).to_pylist()
        ids = [int(u.rsplit("/", 1)[1]) for u in urls]
        add_i, add_t = [], []
        for i, s in zip(ids, ts):
            if i % 7 == 0:
                add_i.append(i)
                add_t.append(s + 3_600_000_000)  # re-crawl 1h later
        return pa.table(
            {
                "doc_id": pa.array(ids + add_i, pa.int64()),
                "ts_us": pa.array(ts + add_t, pa.int64()),
            }
        )

    # keep-latest is a native Max aggregate (url<->doc_id is 1:1 here;
    # with a payload column, pair it via an ArgMax-style partial-agg
    # inside map_batches first) — no per-distinct-url Python
    return (
        pages.map_batches(with_recrawls, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Max("ts_us", alias_name="ts_us"))
    )


def url_dedup_windowed(sf_dir: str, window_hours: int = 48):
    """WINDOWED url dedup: keep the latest crawl per (url, tumbling
    time window) — the crawl-snapshot semantics CC processing uses
    (a url re-crawled within the same snapshot window is a duplicate;
    a re-crawl in a LATER window is a new version that must survive).

    Duplicate rows are synthesized inline so the winner set is
    oracle-stateable: every 7th doc re-crawled ~1 h later — CLAMPED to
    its window's last microsecond so the re-crawl provably lands in
    the SAME window (collapsed) even for docs whose base ts falls
    within 1 h of a window boundary — and every 11th doc re-crawled
    72 h later (a LATER window -> second output row; 72 h > the 48 h
    window guarantees a different window regardless of phase).
    Keep-latest per (doc, window) is a native Max aggregate; only
    (doc_id, window_id, ts_us) rides the shuffle."""
    from ray.data.aggregate import Max

    from ..sources.synth import read_pages

    pages = read_pages(sf_dir, columns=["url", "warc_ts"])
    window_us = window_hours * 3_600_000_000

    def with_recrawls(t: pa.Table) -> pa.Table:
        urls = t["url"].to_pylist()
        ts = t["warc_ts"].cast(pa.int64()).to_pylist()
        ids = [int(u.rsplit("/", 1)[1]) for u in urls]
        out_i, out_t = list(ids), list(ts)
        for i, s in zip(ids, ts):
            if i % 7 == 0:
                out_i.append(i)
                # ~1h later, clamped inside the base ts's window
                wend = (s // window_us + 1) * window_us - 1
                out_t.append(min(s + 3_600_000_000, wend))
            if i % 11 == 0:
                out_i.append(i)
                out_t.append(s + 72 * 3_600_000_000)  # 72h: later window
        tt = np.asarray(out_t, np.int64)
        return pa.table(
            {
                "doc_id": pa.array(out_i, pa.int64()),
                "window_id": pa.array(tt // window_us),
                "ts_us": pa.array(tt),
            }
        )

    return (
        pages.map_batches(with_recrawls, batch_format="pyarrow")
        .groupby(["doc_id", "window_id"])
        .aggregate(Max("ts_us", alias_name="ts_us"))
    )


def _typed_empty_clusters():
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "cluster_id": pa.array([], pa.int64()),
            }
        )
    )


_M1 = 0x9E3779B97F4A7C15
_M2 = 0xC2B2AE3D27D4EB4F


def _edge_hash_sums(t: pa.Table) -> pa.Table:
    """One row per batch: the edge count and the two 64-bit edge-hash
    sums, each mod 2**64 (uint64 arithmetic wraps)."""
    u = t["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
    v = t["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
    with np.errstate(over="ignore"):
        h1 = (u * np.uint64(_M1)) ^ (v * np.uint64(_M2))
        h2 = (u * np.uint64(_M2 | 1)) ^ ((v + np.uint64(7)) * np.uint64(_M1))
    return pa.table(
        {
            "n": pa.array([len(u)], pa.uint64()),
            "h1": pa.array([h1.sum(dtype=np.uint64)], pa.uint64()),
            "h2": pa.array([h2.sum(dtype=np.uint64)], pa.uint64()),
        }
    )


def edge_signature(eds) -> tuple:
    """(count, two 64-bit hash sums) of an (u, v) edge multiset, each
    mod 2**64. The per-batch partials are folded on the driver (one
    row per batch), not by a Ray ``Sum``: Ray adds per-block sums as
    Python ints, and a total outside int64 makes it log an Arrow
    conversion traceback before it falls back."""
    rows = eds.map_batches(_edge_hash_sums, batch_format="pyarrow").take_all()
    return tuple(sum(r[k] for r in rows) % 2**64 for k in ("n", "h1", "h2"))


def star_contraction_clusters(pairs_ds, max_rounds: int = 30):
    """Distributed connected components by alternating large-star /
    small-star contraction (the public MapReduce CC algorithm of
    Kiveris et al. 2014, "Connected Components in MapReduce and
    Beyond"): returns (doc_id, cluster_id = component-min doc_id) for
    components of size > 1 only, and converges in O(log n) rounds on
    ANY graph topology (min-label propagation with pointer doubling
    needs O(log diameter) rounds AND keeps both the O(nodes) label
    table and the O(2·edges) symmetrized edge list pinned; here the
    only materialized state is the edge set itself, which the
    contraction shrinks monotonically toward one star per component).

    Each half-round is one coarse-bucket shuffle over (node, nbr)
    rows + a vectorized in-group pandas reduce:

    - large-star (grouped on u): m = min(N(u) + {u}); emit (v, m) for
      every neighbor v > u,
    - small-star (grouped on u = the edge's max endpoint): m = min of
      the smaller endpoints; emit (v, m) for each smaller endpoint
      v != m, plus (u, m).

    Neither emits self-loops; in-group np-dedup bounds the multiset.
    Fixpoint = two consecutive rounds with identical edge-multiset
    signature (edge_signature: count + two 64-bit hash sums — the edge
    set provably reaches the star fixpoint and a round's output is a
    deterministic function of its input, so the signature stabilizes
    exactly when the rounds do)."""
    import logging

    nb = coarse_buckets()

    edges = (
        pairs_ds.select_columns(["a", "b"])
        .map_batches(
            lambda t: pa.table(
                {"u": t["a"].cast(pa.int64()), "v": t["b"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    if edges.count() == 0:
        return _typed_empty_clusters()

    def large_pre(t: pa.Table) -> pa.Table:
        u = t["u"].combine_chunks()
        v = t["v"].combine_chunks()
        return pa.table(
            {"node": pa.concat_arrays([u, v]), "nbr": pa.concat_arrays([v, u])}
        )

    def small_pre(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pc.max_element_wise(t["u"], t["v"]),
                "nbr": pc.min_element_wise(t["u"], t["v"]),
            }
        )

    def large_reduce(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["node", "nbr"]].drop_duplicates()
        m = np.minimum(g.groupby("node")["nbr"].transform("min"), g["node"])
        sel = g["nbr"] > g["node"]
        return pd.DataFrame(
            {
                "u": g.loc[sel, "nbr"].astype("int64").to_numpy(),
                "v": m[sel].astype("int64").to_numpy(),
            }
        )

    def small_reduce(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["node", "nbr"]].drop_duplicates()
        m = g.groupby("node")["nbr"].transform("min")
        sel = g["nbr"] != m
        nbr_edges = pd.DataFrame(
            {
                "u": g.loc[sel, "nbr"].astype("int64").to_numpy(),
                "v": m[sel].astype("int64").to_numpy(),
            }
        )
        self_edges = pd.DataFrame(
            {"u": g["node"].astype("int64"), "v": m.astype("int64")}
        ).drop_duplicates()
        return pd.concat([nbr_edges, self_edges], ignore_index=True)

    def half_round(eds, pre, reduce_fn):
        return cogroup(
            eds.map_batches(pre, batch_format="pyarrow"), "node", nb, reduce_fn
        ).materialize()

    prev_sig = None
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        edges = half_round(edges, large_pre, large_reduce)
        edges = half_round(edges, small_pre, small_reduce)
        cur_sig = edge_signature(edges)
        if cur_sig == prev_sig:
            break
        prev_sig = cur_sig
    else:
        # an unconverged edge set would return WRONG cluster ids;
        # O(log n) guaranteed rounds means hitting this is a bug
        raise RuntimeError(
            f"star contraction did not converge in {max_rounds} rounds"
        )
    logging.getLogger(__name__).info(
        "star contraction converged in %d round(s)", rounds
    )

    # fixpoint edges are stars (member u -> component-min v); co-group
    # them on the root, distinct them (multiset multiplicities are an
    # artifact of group fan-in) and add the root rows (every root came
    # from an edge => size > 1)
    def stars(e: pd.DataFrame) -> pd.DataFrame:
        e = e.drop_duplicates()
        roots = e["v"].drop_duplicates().to_numpy()
        return pd.DataFrame(
            {
                "doc_id": np.concatenate([e["u"].to_numpy(), roots]).astype(np.int64),
                "cluster_id": np.concatenate([e["v"].to_numpy(), roots]).astype(np.int64),
            }
        )

    return cogroup(edges, "v", nb, stars)


def dedup_clusters(sf_dir: str, threshold: float = 0.999):
    """Connected components over verified duplicate pairs: (doc_id,
    cluster_id) for every document in a component of size > 1, with
    cluster_id = min doc_id of the component.

    Runs alternating star contraction (``star_contraction_clusters``)
    — O(log n) rounds, edge-set-only state, no ``take_all()`` of the
    pair set, so the pairs of a dup-heavy corpus (mirror sites) never
    have to fit in one process. ``union_find_clusters`` is the
    in-memory reference the tests compare it against."""
    pairs = minhash_dup_pairs(sf_dir, threshold=threshold)
    return star_contraction_clusters(pairs)


def union_find_clusters(pairs_rows) -> "pd.DataFrame":
    """Union-find over an in-memory pair list — the test
    oracle for ``star_contraction_clusters`` (same output contract)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in pairs_rows:
        a, b = find(r["a"]), find(r["b"])
        if a != b:
            parent[max(a, b)] = min(a, b)

    rows = sorted((doc, find(doc)) for doc in parent)
    return pd.DataFrame(rows, columns=["doc_id", "cluster_id"])


def simhash_fingerprints(sf_dir: str, max_hamming: int = 6):
    """SimHash near-dup pairs over the dup corpus: bucket by the four
    16-bit simhash bands (any pair within hamming<=6 shares at least
    one exact band with good probability; verified by hamming)."""
    import ray.data

    ds = dup_corpus(sf_dir)
    n_shuffle = coarse_buckets()  # resolved driver-side, closed over

    class SimHashStage:
        def __init__(self):
            self.word = re.compile(TOKEN_RE)

        def __call__(self, batch: pa.Table) -> pa.Table:
            from ..functions.hashing import shingle_hashes

            ids, bands, buckets, sims = [], [], [], []
            for doc_id, text in zip(
                batch["doc_id"].to_pylist(), batch["text"].to_pylist()
            ):
                # FNV shingle family: byte-defined, so the DuckDB
                # oracle recomputes the identical simhash from SQL
                sh = simhash64(shingle_hashes(self.word.findall(text)))
                for band in range(4):
                    chunk = (sh >> (band * 16)) & 0xFFFF
                    key = band * 65536 + chunk
                    ids.append(doc_id)
                    bands.append(key)
                    buckets.append(key % n_shuffle)
                    sims.append(sh - (1 << 63))
            return pa.table(
                {
                    "bucket": pa.array(buckets, type=pa.int32()),
                    "band": pa.array(bands, type=pa.int64()),
                    "doc_id": pa.array(ids, type=pa.int64()),
                    "simhash": pa.array(sims, type=pa.int64()),
                }
            )

    banded = ds.map_batches(SimHashStage, batch_format="pyarrow", **actor_pool())

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # band candidates (star-sampled past the cap), then the hamming
        # verify against each doc's simhash from the same group
        sims = dict(zip(g["doc_id"].tolist(), g["simhash"].tolist()))
        pairs = _bucket_candidate_pairs(g, "band", "doc_id", "simhash")
        near = [
            hamming64(sims[a] + (1 << 63), sims[b] + (1 << 63)) <= max_hamming
            for a, b in zip(pairs["a"].tolist(), pairs["b"].tolist())
        ]
        return pairs.loc[near]

    from ray.data.aggregate import Count

    return (
        banded.groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pandas")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["a", "b"])
    )


def near_dedup_survivors(sf_dir: str, threshold: float = 0.5, n_buckets: int | None = None):
    """End-to-end near-dedup REMOVAL (the canonical LLM-corpus dedup
    step): run the verified MinHash-LSH pair finder, then drop the
    LARGER member of every near-dup pair (keep-smallest-id rule) and
    return the surviving doc_ids — the filtered corpus a training run
    would actually read.

    Shape: pairs come from ``minhash_dup_pairs`` (fully distributed,
    see its docstring); removal is a reduce-side ANTI-join (the
    customers_no_orders pattern): corpus ids and the distinct removed
    ids co-group on doc_id (``agg.cogroup``), a vectorized isin inside
    each bucket group keeps the non-removed ids. The removal set is
    pair-derived and corpus-growing, so it is NEVER broadcast or
    driver-resident."""
    pairs = minhash_dup_pairs(sf_dir, threshold, n_buckets)
    # in-batch dedup: only distinct removed ids ride the shuffle
    removed = pairs.map_batches(
        lambda t: pa.table({"doc_id": pc.unique(pc.cast(t["b"], pa.int64()))}),
        batch_format="pyarrow",
    )

    def anti(ids: pd.DataFrame, gone: pd.DataFrame) -> pd.DataFrame:
        if ids.empty:  # a bucket of removed ids alone
            return pd.DataFrame()
        keep = ids["doc_id"][~ids["doc_id"].isin(gone.get("doc_id", ()))]
        return pd.DataFrame({"doc_id": keep.astype("int64").to_numpy()})

    def corpus_ids(t: pa.Table) -> pa.Table:
        # the dup-corpus id set is derivable from doc_id alone (base
        # ids + offset copies per dup_copy_mask — the SAME rule
        # with_mutated_copies applies) — never re-synthesize the
        # mutated text just to drop it
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        extra = ids[dup_copy_mask(ids)] + DUP_OFFSET
        return pa.table({"doc_id": pa.array(np.concatenate([ids, extra]))})

    import ray.data

    ids = ray.data.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id"]
    ).map_batches(corpus_ids, batch_format="pyarrow")
    return cogroup([ids, removed], "doc_id", coarse_buckets(n_buckets), anti)
