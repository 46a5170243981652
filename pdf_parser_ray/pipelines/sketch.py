"""Mergeable sketch operators — bounded-memory approximations whose
partials combine associatively, the shape that makes corpus-wide
statistics cheap at 100 TB (every worker emits a fixed-size summary;
the exchange moves kilobytes, not the corpus).

First sketch: KMV (k-minimum-values) distinct counting [Bar-Yossef et
al. 2002, "Counting distinct elements in a data stream"]. The sketch
of a set is its k smallest element hashes; union-merge = merge + keep
k smallest; the estimator is (k-1) * 2^64 / kth_min. Unlike
HyperLogLog the whole computation is INTEGER arithmetic on a fixed
public hash (FNV-1a64), so the result — including the estimate — is
exactly restatable in SQL and deterministic across any partitioning.

Ray shape: per-batch partial (distinct token hashes, k smallest) ->
``groupby(lang).map_groups`` merge over tiny partials (<= k rows per
batch per group). The corpus text never shuffles; only 8-byte hashes
do, at most k per (batch, lang).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from ..functions.hashing import fnv1a64_of_strings
from .textstats import TOKEN_RE, documents_path

_HALF = 1 << 63
_2_64 = 1 << 64
_I64_MAX = (1 << 63) - 1


def _kmv_row(lang: str, hashes: np.ndarray, k: int) -> dict:
    """Final KMV row from a group's distinct uint64 hashes (already
    deduplicated). Integer-exact: est = (k-1)*2^64 // kth for a full
    sketch, the exact count when fewer than k distinct hashes exist."""
    hashes = np.unique(hashes)  # sorted + distinct
    kept = hashes[:k]
    n_kept = int(len(kept))
    kth = int(kept[-1]) if n_kept else 0
    if n_kept < k:
        est = n_kept
    elif kth == 0:
        # k=1 (or a pathological hash set whose kth minimum is 0):
        # the estimator divides by kth — saturate instead of raising
        est = _I64_MAX
    else:
        est = min((k - 1) * _2_64 // kth, _I64_MAX)
    return {
        "lang": lang,
        "k": k,
        "n_kept": n_kept,
        "kth_hash_signed": kth - _HALF,
        "est_distinct": est,
    }


def kmv_distinct_tokens(sf_dir: str, k: int = 128):
    """Per-language approximate distinct-token count via a KMV sketch.

    Stage 1 (map_batches): tokenize, hash each distinct token with
    FNV-1a64 (vectorized byte-column passes), keep the k smallest per
    (batch, lang) — a bounded partial regardless of batch size.
    Stage 2 (groupby lang -> map_groups): union the partials, dedupe,
    keep k smallest, evaluate the estimator. Group size is bounded by
    k * n_batches rows of 8 bytes, so the merge is trivially small.

    Hashes ride the shuffle as ORDER-PRESERVING signed int64
    (u - 2**63), the same remap shuffle_assignment uses, so numeric
    k-smallest semantics survive the Arrow int64 column."""
    import ray.data

    word_re = re.compile(TOKEN_RE)

    def partial(t: pa.Table) -> pa.Table:
        per: dict[str, set] = {}
        for lang, text in zip(t["lang"].to_pylist(), t["text"].to_pylist()):
            per.setdefault(lang, set()).update(word_re.findall(text))
        langs, hs = [], []
        for lang, words in per.items():
            hv = np.unique(fnv1a64_of_strings(pa.array(list(words), pa.string())))
            hv = hv[:k]
            langs.extend([lang] * len(hv))
            hs.append(hv)
        h_all = np.concatenate(hs) if hs else np.empty(0, np.uint64)
        return pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "h_signed": pa.array(
                    (h_all - np.uint64(_HALF)).view(np.int64), pa.int64()
                ),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        lang = g["lang"][0].as_py()
        u = (
            g["h_signed"].combine_chunks().to_numpy(zero_copy_only=False)
        ).astype(np.int64).view(np.uint64) + np.uint64(_HALF)
        row = _kmv_row(lang, u, k)
        return pa.table(
            {
                "lang": pa.array([row["lang"]], pa.string()),
                "k": pa.array([row["k"]], pa.int64()),
                "n_kept": pa.array([row["n_kept"]], pa.int64()),
                "kth_hash_signed": pa.array([row["kth_hash_signed"]], pa.int64()),
                "est_distinct": pa.array([row["est_distinct"]], pa.int64()),
            }
        )

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["lang", "text"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(merge, batch_format="pyarrow")
    )


def quantile_sketch(sf_dir: str, quantiles=(50, 90), bin_width: int = 64):
    """Per-language quantiles of n_chars from a MERGEABLE fixed-width
    histogram sketch — the documented fleet-scale swap-in for
    ``relational.chars_quantiles`` (whose exact-by-sort stage needs a
    group's raw values on one worker). Here every batch emits at most
    one (lang, bin) row per occupied bin (bin = n_chars // bin_width),
    partials merge by integer addition, and the quantile answer is the
    first bin whose cumulative count reaches rank ceil(q*n/100) —
    reported as that bin's inclusive upper edge, so the estimate is
    within bin_width of the exact quantile and EXACTLY restatable in
    SQL (pure integer arithmetic end to end; ceil via (q*n+99)//100,
    never floats).

    Ray shape: vectorized per-batch np.unique partial -> ONE exchange
    of (lang, bin, cnt) rows (16 B each, at most n_bins per batch) ->
    tiny per-lang merge. The corpus never shuffles."""
    import pandas as pd
    import ray.data

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["lang", "n_chars"])
    bw = int(bin_width)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "lang": t["lang"].to_pandas(),
                "bin": t["n_chars"].to_numpy(zero_copy_only=False) // bw,
            }
        )
        g = df.groupby(["lang", "bin"], sort=False).size().reset_index(name="cnt")
        return pa.table(
            {
                "lang": pa.array(g["lang"], pa.string()),
                "bin": pa.array(g["bin"].astype("int64"), pa.int64()),
                "cnt": pa.array(g["cnt"].astype("int64"), pa.int64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        lang = g["lang"][0].as_py()
        bins = g["bin"].to_numpy(zero_copy_only=False)
        cnts = g["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(bins, kind="stable")
        ub, inv = np.unique(bins[order], return_inverse=True)
        tot = np.zeros(len(ub), np.int64)
        np.add.at(tot, inv, cnts[order])
        cum = np.cumsum(tot)
        n = int(cum[-1]) if len(cum) else 0
        rows = []
        for q in quantiles:
            rank = (q * n + 99) // 100  # integer ceil(q*n/100)
            i = int(np.searchsorted(cum, rank, side="left"))
            est_hi = int(ub[i]) * bw + bw - 1 if n else 0
            rows.append((lang, int(q), n, est_hi))
        out = pd.DataFrame(rows, columns=["lang", "q_pct", "n", "est_hi"])
        return pa.Table.from_pandas(
            out.astype({"q_pct": "int64", "n": "int64", "est_hi": "int64"}),
            preserve_index=False,
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(merge, batch_format="pyarrow")
    )


def heavy_hitters(sf_dir: str, k: int = 100):
    """EXACT corpus heavy hitters — tokens with global frequency
    strictly above N/k — via the two-pass Misra-Gries candidate sweep
    [Misra & Gries 1982, "Finding repeated elements"].

    Pass 1 (map_batches): each block emits the tokens that are locally
    heavy (block_cnt * k > block_total) — precisely the retention
    guarantee of a k-counter Misra-Gries summary, computed directly
    because the block's counts are batch-resident. Pigeonhole makes the
    union of these per-block sets a guaranteed SUPERSET of the global
    heavy hitters: a token with global freq > N/k must exceed
    N_b/k in at least one block. Each block also emits one sentinel
    row ("", block_total) so N rides the same tiny exchange.
    Fewer than k rows per block leave the worker — the vocabulary
    itself never shuffles (contrast vocab_stats, which is the exact
    full-vocab aggregate).

    Pass 2 (map_batches + native groupby Sum): the candidate set —
    driver-resident but bounded by k * n_blocks rows and Zipf-small in
    practice — is broadcast once via ray.put; blocks emit exact partial
    counts for candidate tokens only, a native hash aggregate sums
    them, and the exact filter cnt * k > N keeps the true heavy
    hitters. Output is integer-exact and partitioning-independent.
    """
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    word_re = re.compile(TOKEN_RE)
    kk = int(k)

    def candidates(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for text in t["text"].to_pylist():
            toks.extend(word_re.findall(text))
        total = len(toks)
        if total:
            uniq, cnts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            heavy = cnts * kk > total
            out_tok = list(uniq[heavy]) + [""]
            out_cnt = list(cnts[heavy].astype(np.int64)) + [total]
        else:
            out_tok, out_cnt = [""], [0]
        return pa.table(
            {
                "token": pa.array(out_tok, pa.string()),
                "cnt": pa.array(np.asarray(out_cnt, np.int64), pa.int64()),
            }
        )

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["text"])
    cand = (
        ds.map_batches(candidates, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )  # bounded: <= k rows per block + 1 sentinel, Zipf-small union
    n_total = 0
    cand_set: list[str] = []
    for row in cand:
        if row["token"] == "":
            n_total = int(row["cnt"])
        else:
            cand_set.append(row["token"])
    cand_arr = np.sort(np.asarray(cand_set, dtype=object))
    ref = ray.put(cand_arr)

    class Recount:
        """Exact per-block counts restricted to the broadcast candidate
        set (fetched once per actor, not per batch)."""

        def __init__(self, ref):
            self.cands = ray.get(ref)
            self.word = re.compile(TOKEN_RE)

        def __call__(self, t: pa.Table) -> pa.Table:
            toks: list[str] = []
            for text in t["text"].to_pylist():
                toks.extend(self.word.findall(text))
            if toks:
                uniq, cnts = np.unique(
                    np.asarray(toks, dtype=object), return_counts=True
                )
                keep = np.isin(uniq, self.cands)
                uniq, cnts = uniq[keep], cnts[keep]
            else:
                uniq = np.empty(0, object)
                cnts = np.empty(0, np.int64)
            return pa.table(
                {
                    "token": pa.array(list(uniq), pa.string()),
                    "cnt": pa.array(cnts.astype(np.int64), pa.int64()),
                }
            )

    exact = (
        ds.map_batches(Recount, batch_format="pyarrow",
                       concurrency=(1, 4), fn_constructor_args=(ref,))
        .groupby("token")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def final_filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.greater(pc.multiply(t["cnt"], pa.scalar(kk, pa.int64())),
                          pa.scalar(n_total, pa.int64()))
        return t.filter(keep)

    return exact.map_batches(final_filter, batch_format="pyarrow")


def cms_token_counts(sf_dir: str, width: int = 1024, depth: int = 2):
    """Count-Min sketch point estimates [Cormode & Muthukrishnan 2005]
    for every distinct corpus token — the third mergeable sketch
    (KMV = distinct counts, histogram = quantiles, CMS = frequencies).

    Cells come from Kirsch-Mitzenmacher double hashing on
    FNV-1a64(token): ``cell_r = (h % w + r * ((h // w) % w)) % w`` —
    pure integer arithmetic on a public hash, so the whole sketch
    (including every collision) is deterministic and restatable in SQL;
    ``est >= true count`` always, with equality exactly when the
    token's d cells suffer no collision.

    Ray shape: each block folds its token counts into a local d x w
    counter array and emits only the NONZERO cells (<= d*w rows of
    16 B, fixed regardless of block size); a native Sum merges them
    (CMS partials are mergeable by cell-wise addition); the merged
    d*w counter vector — 16 KB, by construction — broadcasts once via
    ray.put, and a second pass probes every distinct token. Only
    (token, est) rows shuffle for the final distinct; the corpus text
    never does.
    """
    import ray
    import ray.data
    from ray.data.aggregate import Min, Sum

    w, d = int(width), int(depth)
    word_re = re.compile(TOKEN_RE)

    def _cells(h: np.ndarray) -> list[np.ndarray]:
        c0 = (h % np.uint64(w)).astype(np.int64)
        h2 = ((h // np.uint64(w)) % np.uint64(w)).astype(np.int64)
        return [(c0 + r * h2) % w for r in range(d)]

    def partial(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for text in t["text"].to_pylist():
            toks.extend(word_re.findall(text))
        if not toks:
            return pa.table(
                {"rc": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
            )
        uniq, cnts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        h = fnv1a64_of_strings(pa.array(list(uniq), pa.string()))
        rcs, vals = [], []
        for r, cells in enumerate(_cells(h)):
            cell_u, inv = np.unique(cells, return_inverse=True)
            acc = np.zeros(len(cell_u), np.int64)
            np.add.at(acc, inv, cnts)
            rcs.append(cell_u + r * w)
            vals.append(acc)
        return pa.table(
            {
                "rc": pa.array(np.concatenate(rcs), pa.int64()),
                "cnt": pa.array(np.concatenate(vals), pa.int64()),
            }
        )

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["text"])
    ctr_rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("rc")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )  # <= d*w rows — fixed-size by construction, never corpus-shaped
    counters = np.zeros(d * w, np.int64)
    for row in ctr_rows:
        counters[int(row["rc"])] = int(row["cnt"])
    ref = ray.put(counters)

    class Probe:
        """Per-block distinct tokens -> CMS point query against the
        broadcast counter vector (fetched once per actor)."""

        def __init__(self, ref):
            self.counters = ray.get(ref)
            self.word = re.compile(TOKEN_RE)

        def __call__(self, t: pa.Table) -> pa.Table:
            toks: list[str] = []
            for text in t["text"].to_pylist():
                toks.extend(self.word.findall(text))
            if toks:
                uniq = np.unique(np.asarray(toks, dtype=object))
                h = fnv1a64_of_strings(pa.array(list(uniq), pa.string()))
                cells = _cells(h)
                est = np.stack(
                    [self.counters[r * w + cells[r]] for r in range(d)]
                ).min(axis=0)
            else:
                uniq = np.empty(0, dtype=object)
                est = np.empty(0, np.int64)
            return pa.table(
                {
                    "token": pa.array(list(uniq), pa.string()),
                    "est_cnt": pa.array(est.astype(np.int64), pa.int64()),
                }
            )

    # a token seen in several blocks emits identical estimates; the
    # native Min collapses them to one row per distinct token
    return (
        ds.map_batches(Probe, batch_format="pyarrow",
                       concurrency=(1, 4), fn_constructor_args=(ref,))
        .groupby("token")
        .aggregate(Min("est_cnt", alias_name="est_cnt"))
    )


# HLL fixed-point constants: alpha_1024 = 0.7213 / (1 + 1.079/1024)
# kept as an exact rational so Python, Ray workers and the SQL oracle
# compute the identical integer estimate
_HLL_P = 10
_HLL_M = 1 << _HLL_P
_HLL_RHO_MAX = 64 - _HLL_P + 1  # 55: w = h >> p has 54 bits; w == 0 caps here
_HLL_SCALE = 1 << _HLL_RHO_MAX  # 2^-rho stored exactly as SCALE >> rho
_HLL_ALPHA_NUM = 7213 * 1_024_000
_HLL_ALPHA_DEN = 10_000 * 1_025_079  # 1 + 1079/1024000 folded in


def hll_distinct_shingles(sf_dir: str):
    """HyperLogLog distinct-count per lang of the corpus's 3-token
    shingle sets [Flajolet et al. 2007] — the register sketch sibling
    of KMV, over an input whose cardinality (thousands per lang) sits
    in the raw estimator's accurate regime (n >> m). The rank is
    1 + trailing_zeros(h // m) (the Flajolet-Martin observable — same
    geometric law as leading zeros, but pure integer arithmetic),
    capped at 55 for w == 0. Hash family: FNV-1a64 of the joined
    shingle string (functions/hashing.py shingle_hashes — the same
    family the SimHash oracle restates in SQL).

    Everything is INTEGER: 2^-rho terms are SCALE >> rho at SCALE =
    2^55, the harmonic sum S fits a Python int / SQL HUGEINT, and the
    raw estimate is ALPHA_NUM * m^2 * SCALE // (ALPHA_DEN * S) — so
    the whole sketch, estimate included, is deterministic across any
    partitioning and exactly restatable in SQL. The small-range
    linear-counting correction (m * ln(m/zero_regs)) needs a float ln
    and is deliberately left to the caller; used_regs is emitted so
    they can apply it.

    Ray shape: each block folds its shingles into per-(lang, bucket)
    max-rho partials (<= langs * 1024 rows of 20 B per block, fixed
    regardless of block size); registers merge by native Max (HLL
    partials are mergeable by register-wise max); the merged register
    table — <= langs * 1024 rows by construction — finalizes on the
    driver in exact big-int arithmetic. Corpus text never shuffles."""
    import ray.data
    from ray.data.aggregate import Max

    from ..functions.hashing import shingle_hashes

    word_re = re.compile(TOKEN_RE)
    m = _HLL_M

    def partial(t: pa.Table) -> pa.Table:
        rows: dict[tuple[str, int], int] = {}
        for lang, text in zip(t["lang"].to_pylist(), t["text"].to_pylist()):
            h = shingle_hashes(word_re.findall(text))
            if not len(h):
                continue
            bucket = (h % np.uint64(m)).astype(np.int64)
            w = h // np.uint64(m)
            lowbit = w & (~w + np.uint64(1))
            # log2 of an exact power of two <= 2^54 is exact in float64
            rho = np.where(
                w == 0, _HLL_RHO_MAX,
                np.log2(np.maximum(lowbit, 1).astype(np.float64)).astype(np.int64) + 1,
            ).astype(np.int64)
            for b, r in zip(bucket, rho):
                key = (lang, int(b))
                if rows.get(key, 0) < r:
                    rows[key] = int(r)
        return pa.table(
            {
                "lang": pa.array([k[0] for k in rows], pa.string()),
                "bucket": pa.array([k[1] for k in rows], pa.int64()),
                "rho": pa.array(list(rows.values()), pa.int64()),
            }
        )

    regs = (
        ray.data.read_parquet(documents_path(sf_dir), columns=["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "bucket"])
        .aggregate(Max("rho", alias_name="rho"))
        .take_all()
    )  # <= langs * 1024 rows — fixed-size by construction

    by_lang: dict[str, dict[int, int]] = {}
    for row in regs:
        by_lang.setdefault(row["lang"], {})[int(row["bucket"])] = int(row["rho"])
    langs = sorted(by_lang)
    out = {"lang": [], "used_regs": [], "max_rho": [], "est_raw": []}
    for lang in langs:
        r = by_lang[lang]
        s = sum(_HLL_SCALE >> rho for rho in r.values())
        s += (m - len(r)) * _HLL_SCALE  # empty registers: rho = 0
        est = _HLL_ALPHA_NUM * m * m * _HLL_SCALE // (_HLL_ALPHA_DEN * s)
        out["lang"].append(lang)
        out["used_regs"].append(len(r))
        out["max_rho"].append(max(r.values()) if r else 0)
        out["est_raw"].append(est)
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "used_regs": pa.array(out["used_regs"], pa.int64()),
            "max_rho": pa.array(out["max_rho"], pa.int64()),
            "est_raw": pa.array(out["est_raw"], pa.int64()),
        }
    )
