"""Training-data preparation operators over the documents/pages tables.

The curation steps a large-scale LLM data pipeline runs after
extraction (C4 / Gopher / RefinedWeb-style):

- :func:`pii_redact` — regex PII redaction (emails, phone numbers) with
  per-doc match counts. The corpus has no natural PII, so the pipeline
  first injects deterministic, SQL-restatable PII spans (same pattern as
  the dup corpora in ``pipelines/dedup.py``) and then redacts them.
- :func:`gopher_repetition` — Gopher-rule repetition signals per doc:
  most-frequent-token count and duplicate-bigram mass (Rae et al. 2021,
  "Scaling Language Models: ... Gopher", §A1.1 repetition filters).
- :func:`domain_stats` — URL-domain parse + per-domain aggregate over
  the synthesized pages corpus (the C4/RefinedWeb URL-filtering step).
- :func:`stratified_sample` — per-language deterministic sampling rates
  (the data-mixture reweighting step).
- :func:`pack_sequences` — concat-and-chunk assignment of documents to
  fixed-token-budget training sequences via a DISTRIBUTED prefix sum
  (hierarchical: per-bucket sums -> superbucket scan on the driver ->
  distributed per-bucket offsets -> join back). The driver only ever
  holds the superbucket sums (O(n_docs / (bucket_size * fanout))).

Everything is vectorized ``map_batches`` over Arrow/pandas batches;
compiled regexes live in actor ``__init__``.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .agg import coarse_buckets, cogroup, mod_bucket, two_phase_agg
from .extract_pipeline import actor_pool
from .textstats import TOKEN_RE, documents_path

# Kept RE2-compatible on purpose: no backrefs/lookaround, so the DuckDB
# oracle's regexp_replace/extract_all sees identical match sets.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\b555-[0-9]{4}\b"

# per-language keep rates out of 100 (deterministic doc_id % 100 gate)
SAMPLE_RATES = {"en": 50, "de": 20, "fr": 10, "es": 5, "zh": 2}


# -- PII redaction ----------------------------------------------------------


def inject_pii(df: pd.DataFrame) -> pd.Series:
    """Deterministic PII spans appended to each doc (SQL-restatable:
    the oracle rebuilds the same string with || and lpad)."""
    ids = df["doc_id"]
    return (
        df["text"]
        + " contact user"
        + ids.astype(str)
        + "@mail"
        + (ids % 7).astype(str)
        + ".example.com or dial 555-"
        + (ids % 10000).astype(str).str.zfill(4)
    )


class PiiRedactor:
    """Stateful stage: patterns compiled once per actor. Emits the
    redacted text plus per-doc counts of each PII class (the counts are
    what a production pipeline monitors for drift)."""

    def __init__(self):
        self.email = re.compile(EMAIL_RE)
        self.phone = re.compile(PHONE_RE)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        txt = inject_pii(df)
        n_emails = txt.str.count(EMAIL_RE).astype("int64")
        clean = txt.str.replace(EMAIL_RE, "<EMAIL>", regex=True)
        n_phones = clean.str.count(PHONE_RE).astype("int64")
        clean = clean.str.replace(PHONE_RE, "<PHONE>", regex=True)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_emails": n_emails,
                "n_phones": n_phones,
                "clean_text": clean,
            }
        )


def pii_redact(sf_dir: str):
    """Pool sizing follows the extract stage's cluster-sized default
    (``extract_pipeline.actor_pool``) — a fixed (1, 4) cap would
    starve a fleet."""
    import ray.data

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    return ds.map_batches(PiiRedactor, batch_format="pandas", **actor_pool())


# -- Gopher repetition signals ----------------------------------------------


class RepetitionStats:
    """Per-doc repetition signals (doc = the vectorization unit, like
    Fingerprinter): n_tokens, count of the most frequent token, total
    bigrams, and duplicate-bigram mass (sum of counts of bigrams seen
    >= 2 times). Downstream filters threshold on the ratios."""

    def __init__(self):
        self.word = re.compile(TOKEN_RE)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_tok, top_w, n_big, dup_big = [], [], [], []
        for t in batch["text"].to_pylist():
            toks = self.word.findall(t)
            n = len(toks)
            uni = Counter(toks)
            big = Counter(zip(toks, toks[1:]))
            n_tok.append(n)
            top_w.append(max(uni.values()) if uni else 0)
            n_big.append(n - 1 if n >= 2 else 0)
            dup_big.append(sum(c for c in big.values() if c >= 2))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "top_word_n": pa.array(top_w, pa.int64()),
                "n_bigrams": pa.array(n_big, pa.int64()),
                "dup_bigram_n": pa.array(dup_big, pa.int64()),
            }
        )


def gopher_repetition(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    return ds.map_batches(RepetitionStats, batch_format="pyarrow", **actor_pool())


# -- URL domain stats -------------------------------------------------------


def domain_stats(sf_dir: str):
    """Parse the domain out of each page URL (vectorized Arrow string
    split) and aggregate per domain — partial agg inside the batch, so
    only one row per (batch, domain) rides the shuffle."""
    from ..sources.synth import read_pages

    ds = read_pages(sf_dir, columns=["url"])

    def prepare(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["url"], "/")
        return pa.table(
            {
                "domain": pc.list_element(parts, 2),
                "doc": pc.cast(pc.list_element(parts, 4), pa.int64()),
            }
        )

    return two_phase_agg(
        ds,
        "domain",
        {
            "n_docs": (None, "rows"),
            "min_doc": ("doc", "min"),
            "max_doc": ("doc", "max"),
        },
        prepare,
    )


# -- stratified sampling ----------------------------------------------------


def stratified_sample(sf_dir: str):
    """Deterministic per-language sampling (mixture reweighting):
    keep doc iff doc_id % 100 < rate[lang]. Pure filter — no shuffle."""
    import ray.data

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "lang"])

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        rate = df["lang"].map(SAMPLE_RATES).fillna(0).astype("int64")
        return df[df["doc_id"] % 100 < rate][["doc_id", "lang"]]

    return ds.map_batches(keep, batch_format="pandas")


def bottomk_sample_per_lang(sf_dir: str, k: int = 16):
    """Fixed-BUDGET per-group sampling: exactly min(k, group size) docs
    per language, chosen as the k smallest FNV-1a64(doc_id) — the
    deterministic, partition-order-free equivalent of a per-group
    reservoir sample (hash rank replaces the random draw, so a re-run
    and the SQL oracle see the identical sample).

    Ray shape: per-batch LOCAL bottom-k per lang (so at most
    k * n_langs rows of 24 B leave any batch regardless of batch
    size), then one tiny per-lang merge — the distributed bottom-k
    selection pattern; the corpus never shuffles."""
    import ray.data

    from ..functions.hashing import fnv1a64_of_int_strings

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "lang"])
    half = np.uint64(1 << 63)

    def local_bottomk(df: pd.DataFrame) -> pd.DataFrame:
        ks = fnv1a64_of_int_strings(df["doc_id"].to_numpy())
        out = pd.DataFrame(
            {
                "lang": df["lang"].to_numpy(),
                "doc_id": df["doc_id"].astype("int64").to_numpy(),
                # order-preserving signed remap (same as shuffle_assignment)
                "key": (ks - half).view(np.int64),
            }
        )
        return (
            out.sort_values(["key", "doc_id"], kind="mergesort")
            .groupby("lang", sort=False)
            .head(k)
        )

    def final_bottomk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["key", "doc_id"], kind="mergesort").head(k)
        return pd.DataFrame(
            {
                "lang": g["lang"],
                "doc_id": g["doc_id"].astype("int64"),
                "rank": np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    return (
        ds.map_batches(local_bottomk, batch_format="pandas")
        .groupby("lang")
        .map_groups(final_bottomk, batch_format="pandas")
    )


# -- BPE-ish pre-tokenizer counting -----------------------------------------

# GPT-2-style pre-tokenizer classes, simplified to stay RE2-compatible
# (no lookahead) so the DuckDB oracle sees the identical match set:
# a leading-space word, a leading-space number, or a leading-space
# punctuation run.
BPE_RE = r" ?[A-Za-z]+| ?[0-9]+| ?[^ A-Za-z0-9]+"


def bpe_token_counts(sf_dir: str):
    """Token counting under a BPE-ish pre-tokenizer regex (the build
    mandate's second token-counting mode next to the plain word regex
    in textstats.token_counts). Vectorized pandas str.count."""
    import ray.data

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])

    def count(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_bpe_tokens": df["text"].str.count(BPE_RE).astype("int64"),
            }
        )

    return ds.map_batches(count, batch_format="pandas")


# -- reproducible global shuffle --------------------------------------------


def shuffle_assignment(sf_dir: str, n_shards: int = 64):
    """Deterministic training-data shuffle: every doc gets a shard and
    an in-shard position from a keyed hash (FNV-1a64 of the doc id) —
    the reproducible equivalent of random_shuffle that production
    pipelines use so a re-run emits byte-identical training shards.
    Shard assignment is a vectorized per-batch map; positions need one
    sort per shard group (64 groups, each ~n/64 docs)."""
    import ray.data

    from ..functions.hashing import fnv1a64_of_int_strings

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id"])

    def key(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        ks = fnv1a64_of_int_strings(ids)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "key": pa.array(
                    (ks - np.uint64(1 << 63)).view(np.int64), pa.int64()
                ),
                "shard": pa.array((ks % np.uint64(n_shards)).astype(np.int64)),
            }
        )

    def position(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["key", "doc_id"], kind="mergesort")
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].astype("int64"),
                "shard": g["shard"].astype("int64"),
                "pos": np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    return (
        ds.map_batches(key, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(position, batch_format="pandas")
    )


# -- cross-document duplicated n-gram mass ----------------------------------


class NGramEmitter:
    """Emit one row per distinct (gram, doc) with its in-doc count —
    the in-batch partial for the duplicated-substring scan. Grams ride
    the shuffle as a 128-bit blake2b key (16 B/row instead of the gram
    string); each doc lives in exactly one batch, so (gram, doc) rows
    are already globally unique after this stage."""

    def __init__(self, n: int = 8):
        self.n = n
        self.word = re.compile(TOKEN_RE)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import blake2b128_of_strings

        ids, grams, counts = [], [], []
        for doc_id, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            toks = self.word.findall(t)
            c = Counter(
                " ".join(toks[i : i + self.n])
                for i in range(len(toks) - self.n + 1)
            )
            ids.extend([doc_id] * len(c))
            grams.extend(c.keys())
            counts.extend(c.values())
        h1, h2 = blake2b128_of_strings(pa.array(grams, pa.string()))
        return pa.table(
            {
                "g1": pa.array(h1, pa.int64()),
                "g2": pa.array(h2, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "c": pa.array(counts, pa.int64()),
            }
        )


def dup_ngram_mass(sf_dir: str, n: int = 8):
    """Cross-document duplicated n-gram mass per doc — the signal
    behind exact substring dedup (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better"): for each doc, the
    number of n-gram positions whose n-gram also occurs in at least
    one OTHER document.

    ONE full-size exchange, a 1024-bucket ``agg.cogroup`` on the gram
    hash: the bucket key depends only on g1, so every (gram, doc) row of a gram
    co-locates and the dup test (group size >= 2 — rows are already
    distinct per (gram, doc)) runs INSIDE the bucket group as a
    vectorized pandas transform, collapsing straight to per-doc
    partial sums before re-keying. A per-gram map_groups would be
    interpreter-bound over millions of tiny groups; Ray's native
    sort-agg over millions of gram keys measured ~2.5x slower than
    the 1024-bucket co-group (the previous signed-union formulation
    ``total - unique_mass`` needed that per-gram aggregate plus a
    second union exchange — same results, see git history). The
    second exchange folds per-doc partials over 256 doc buckets."""
    import ray.data

    n_buckets = 1024
    n_doc_buckets = coarse_buckets(floor=256)
    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])

    emitted = ds.map_batches(
        lambda b, _n=n: NGramEmitter(_n)(b),
        batch_format="pyarrow",
    )

    def filter_dup(g: pd.DataFrame) -> pd.DataFrame:
        n_docs = g.groupby(["g1", "g2"], sort=False)["doc_id"].transform("size")
        hit = g.loc[n_docs.to_numpy() >= 2, ["doc_id", "c"]]
        return hit.groupby("doc_id", as_index=False)["c"].sum()

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("doc_id", as_index=False)["c"].sum()
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"].astype("int64"),
                "n_dup_grams": out["c"].astype("int64"),
            }
        )

    partials = cogroup(emitted, "g1", n_buckets, filter_dup)
    return cogroup(partials, "doc_id", n_doc_buckets, fold)


# -- benchmark decontamination ----------------------------------------------


def decontaminate(sf_dir: str, n: int = 8):
    """Benchmark decontamination: annotate EVERY training doc with the
    count of n-gram positions whose n-gram also appears in the held-out
    eval set (docs with ``doc_id % 41 == 0`` stand in for a benchmark);
    clean docs get 0. Emitting a row per corpus doc (not only per hit)
    is both the useful shape — downstream gates filter on the column —
    and deliberately never-empty: a fully-empty Ray Dataset loses its
    schema through ``to_pandas()`` (the aggregate emits zero blocks),
    which breaks any schema check on a clean corpus.

    The eval side of a decontamination pass is small by nature
    (benchmarks are thousands of docs, the corpus is trillions), so the
    production shape is: build the eval gram-hash set ONCE (distributed
    scan of the eval slice, hashes pulled to the driver — bounded by
    eval size, not corpus size), broadcast it via one ``ray.put``, and
    stream the corpus against it with a vectorized membership test.
    Each doc's grams live in exactly one batch, so the per-batch
    group-count is already final — the corpus is never shuffled at
    all (the old per-hit groupby Sum is gone)."""
    import ray
    import ray.data

    # modulo isn't a pyarrow dataset-expression kernel, so the eval/
    # corpus split is a vectorized in-batch filter over the pruned
    # (doc_id, text) read
    def _slice(is_eval: bool):
        def f(t: pa.Table) -> pa.Table:
            m = pc.equal(mod_bucket(t["doc_id"], 41), pa.scalar(0, pa.int64()))
            return t.filter(m if is_eval else pc.invert(m))

        return f

    base = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    eval_ds = base.map_batches(_slice(True), batch_format="pyarrow")
    emitter = NGramEmitter(n)
    eval_grams = set()
    for b in eval_ds.map_batches(emitter, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        eval_grams.update(zip(b["g1"].to_pylist(), b["g2"].to_pylist()))
    grams_ref = ray.put(frozenset(eval_grams))

    corpus = base.map_batches(_slice(False), batch_format="pyarrow")

    def flag(batch: pa.Table) -> pa.Table:
        ev = ray.get(grams_ref)
        rows = emitter(batch)
        keep = pa.array(
            [
                (g1, g2) in ev
                for g1, g2 in zip(rows["g1"].to_pylist(), rows["g2"].to_pylist())
            ],
            pa.bool_(),
        )
        hit = rows.filter(keep)
        g = (
            pa.table({"doc_id": hit["doc_id"], "n": hit["c"]})
            .group_by("doc_id")
            .aggregate([("n", "sum")])
        )
        # left-join back onto the batch's docs: clean docs count 0
        out = pa.table({"doc_id": pc.cast(batch["doc_id"], pa.int64())}).join(
            g, "doc_id", join_type="left outer"
        )
        return pa.table(
            {
                "doc_id": out["doc_id"],
                "n_contaminated_grams": pc.cast(
                    pc.fill_null(out["n_sum"], 0), pa.int64()
                ),
            }
        )

    return corpus.map_batches(flag, batch_format="pyarrow")


# -- corpus vocabulary / document-frequency stats ----------------------------


def vocab_stats(sf_dir: str):
    """Corpus-level term statistics (the tf-idf precursor): per word,
    document frequency and total term frequency. In-batch partial
    collapses to distinct (word, doc) rows, so the global groupby can
    use native Count (= df, rows are distinct docs) + Sum (= tf)."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    word_re = re.compile(TOKEN_RE)

    def partial(batch: pa.Table) -> pa.Table:
        words, tfs = [], []
        for t in batch["text"].to_pylist():
            c = Counter(word_re.findall(t))
            words.extend(c.keys())
            tfs.extend(c.values())
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Count(alias_name="df"), Sum("tf", alias_name="tf"))
    )


# -- per-document tf-idf characteristic terms --------------------------------


def tfidf_top_terms(sf_dir: str, k: int = 3):
    """Per-document characteristic terms: the top-k words by an
    INTEGER-EXACT tf-idf surrogate ``score = tf * 10^12 // df``
    (monotone in tf, inverse in df — the idf direction without
    floating-point logs, so the DuckDB oracle matches bit-for-bit;
    truncating integer division on both sides). Ties break by word.

    Canonical distributed tf-idf in its minimal two-exchange shape:

    1. in-batch partial -> distinct ``(doc_id, word, tf)`` rows (a doc
       lives wholly in one batch, so per-batch tf is final);
    2. ONE exchange on a coarse bucket of hash(word) — every row of a
       word co-locates, so a vectorized in-group transform attaches df
       (= per-word row count) and computes scores (1024 pandas groups,
       never |vocab| groups; no second corpus scan, no df-table join,
       no broadcast of an unbounded vocabulary);
    3. per-batch local top-k per doc (top-k partials merge), pruning
       the second exchange to <= k rows per (doc, batch);
    4. ``groupby(doc_id).map_groups`` re-ranks the partials.
    """
    import ray.data

    from ..functions.hashing import fnv1a64_of_strings

    n_buckets = 1024
    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    word_re = re.compile(TOKEN_RE)
    scale = 10**12

    def partial(batch: pa.Table) -> pa.Table:
        ids, words, tfs = [], [], []
        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            c = Counter(word_re.findall(t))
            ids.extend([i] * len(c))
            words.extend(c.keys())
            tfs.extend(c.values())
        wa = pa.array(words, pa.string())
        return pa.table(
            {
                "wh": pa.array(fnv1a64_of_strings(wa).view(np.int64)),
                "doc_id": pa.array(ids, pa.int64()),
                "word": wa,
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    def score_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["df"] = (
            g.groupby("word", sort=False)["word"].transform("size").astype("int64")
        )
        g["score_scaled"] = (g["tf"].to_numpy(np.int64) * scale) // g[
            "df"
        ].to_numpy(np.int64)
        return g

    def local_topk(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.sort_values(
                ["doc_id", "score_scaled", "word"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("doc_id", sort=False)
            .head(k)
        )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["score_scaled", "word"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].astype("int64"),
                "word": g["word"],
                "tf": g["tf"].astype("int64"),
                "df": g["df"].astype("int64"),
                "score_scaled": g["score_scaled"].astype("int64"),
                "rank": np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    return (
        cogroup(
            ds.map_batches(partial, batch_format="pyarrow"),
            "wh",
            n_buckets,
            lambda g: local_topk(score_group(g)),
        )
        .groupby("doc_id")
        .map_groups(final_topk, batch_format="pandas")
    )


# -- URL blocklist filter ----------------------------------------------------


def blocklist_filter(sf_dir: str):
    """URL filtering (the C4/RefinedWeb blocklist step): drop pages
    whose domain is on a blocklist. The blocklist is broadcast ONCE via
    ray.put and read inside every task — never re-shipped per batch."""
    import ray
    import ray.data

    from ..sources.synth import read_pages

    blocked = frozenset(f"site{k}.example" for k in range(0, 97, 7))
    blocked_ref = ray.put(blocked)

    ds = read_pages(sf_dir, columns=["url"])

    def keep(t: pa.Table) -> pa.Table:
        bl = ray.get(blocked_ref)
        parts = pc.split_pattern(t["url"], "/")
        dom = pc.list_element(parts, 2)
        ids = pc.cast(pc.list_element(parts, 4), pa.int64())
        mask = pa.array([d not in bl for d in dom.to_pylist()], pa.bool_())
        return pa.table({"doc_id": ids, "domain": dom}).filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


# -- sequence packing (distributed prefix sum) ------------------------------


def pack_sequences(
    sf_dir: str, budget: int = 512, bucket_size: int = 256, fanout: int = 16
):
    """Concat-and-chunk training-sequence assignment: documents are
    concatenated in doc_id order and split into fixed ``budget``-token
    sequences; each doc gets the sequence id of its starting token.

    The global exclusive prefix sum over n_tokens is computed
    hierarchically so nothing large ever lands on the driver:

    1. per-batch token counts + range bucket (``doc_id // bucket_size``
       — dense orderable keys; any range-partitioning key works),
    2. per-bucket sums via ``groupby.aggregate`` (distributed),
    3. the driver scans only the SUPERBUCKET sums
       (``bucket // fanout`` — O(n_docs / (bucket_size*fanout)) rows),
    4. per-bucket offsets are scanned distributed inside each
       superbucket group, then hash-joined back onto the docs,
    5. a final per-bucket ``map_groups`` does the local cumsum.

    At 10^12 docs with bucket_size 64k and fanout 4k the driver table
    is ~4M rows; one more level makes it O(n^(1/3)). Cited shape:
    classic two-level scan (Blelloch 1990 prefix-sum decomposition).
    """
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])

    def tok(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_tokens": df["text"].str.count(TOKEN_RE).astype("int64"),
                "bucket": (df["doc_id"] // bucket_size).astype("int64"),
            }
        )

    # token counts are 3 ints/doc; stage them to parquet so the two
    # consumers (bucket sums, final assignment) don't re-read +
    # re-tokenize text AND nothing corpus-sized pins the object store
    # (a materialize() here held ~24 B/doc for the whole corpus —
    # spillable, but disk staging bounds memory by construction)
    tokds = _stage_counts(
        ds.map_batches(tok, batch_format="pandas"), "pack_tok"
    )
    return _pack_tokds(tokds, budget, fanout)


def _stage_counts(ds, tag: str):
    """Stage a fixed-width intermediate to parquet and re-read it: the
    multi-consumer alternative to ``materialize()`` whose footprint is
    disk, not object store. Delegates to staging.stage_run_scoped
    (shared-storage placement contract + removal at process exit live
    there). Blocks come back as Arrow; the pandas-identity hop matters
    because _pack_tokds unions tokds with pandas-block offset rows,
    and mixing arrow/pandas block types breaks the sort-boundary
    sampler."""
    from .staging import stage_run_scoped

    return stage_run_scoped(ds, tag).map_batches(
        lambda df: df, batch_format="pandas"
    )


def _pack_tokds(tokds, budget: int, fanout: int):
    """The packing core over any (doc_id, n_tokens, bucket) dataset
    (pandas blocks, buckets ascending in doc_id, gaps allowed)."""
    import ray.data
    from ray.data.aggregate import Sum

    bucket_sums = tokds.groupby("bucket").aggregate(Sum("n_tokens", alias_name="s"))

    def with_super(t: pa.Table) -> pa.Table:
        sb = pc.divide(t["bucket"], pa.scalar(fanout, pa.int64()))
        return t.append_column("superbucket", sb)

    bucket_sums = bucket_sums.map_batches(with_super, batch_format="pyarrow")
    # driver-side scan over SUPERBUCKET sums only (small by construction)
    super_rows = sorted(
        (
            r["superbucket"],
            r["s"],
        )
        for r in bucket_sums.groupby("superbucket")
        .aggregate(Sum("s", alias_name="s"))
        .take_all()
    )
    super_off: dict[int, int] = {}
    acc = 0
    for sb, s in super_rows:
        super_off[sb] = acc
        acc += s

    import ray

    off_ref = ray.put(super_off)

    def bucket_offsets(g: pd.DataFrame) -> pd.DataFrame:
        base = ray.get(off_ref)[int(g["superbucket"].iloc[0])]
        g = g.sort_values("bucket", kind="mergesort")
        start = base + g["s"].cumsum().shift(fill_value=0)
        return pd.DataFrame(
            {"bucket": g["bucket"].astype("int64"), "bucket_off": start.astype("int64")}
        )

    offsets = bucket_sums.groupby("superbucket").map_groups(
        bucket_offsets, batch_format="pandas"
    )

    # reduce-side join: offset rows ride the SAME bucket shuffle as the
    # doc rows (marker doc_id=-1 carries bucket_off in n_tokens) — the
    # co-shuffled-union pattern from pipelines/dedup.py, robust to the
    # schema-less empty blocks map_groups can emit
    def as_doc_row(df: pd.DataFrame) -> pd.DataFrame:
        # pandas out to match tokds' block type: unioning mixed
        # arrow/pandas block types breaks the sort-boundary sampler
        return pd.DataFrame(
            {
                "doc_id": np.full(len(df), -1, dtype=np.int64),
                "n_tokens": df["bucket_off"].astype("int64"),
                "bucket": df["bucket"].astype("int64"),
            }
        )

    unioned = tokds.union(offsets.map_batches(as_doc_row, batch_format="pandas"))

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        base = int(g.loc[g["doc_id"] < 0, "n_tokens"].iloc[0])
        g = g[g["doc_id"] >= 0].sort_values("doc_id", kind="mergesort")
        start = base + g["n_tokens"].cumsum().shift(fill_value=0)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].astype("int64"),
                "n_tokens": g["n_tokens"].astype("int64"),
                "start_tok": start.astype("int64"),
                "seq_id": (start // budget).astype("int64"),
            }
        )

    return unioned.groupby("bucket").map_groups(assign, batch_format="pandas")


# -- composite: quality gate -> mixture sample -> packing -------------------


def training_mix_pipeline(
    sf_dir: str, budget: int = 256, bucket_size: int = 256, fanout: int = 16
):
    """Composite training-data prep flagship: Gopher-style repetition
    gate (top word <= 1/8 of tokens AND duplicate-bigram mass <= 1/4
    of bigrams) -> per-language mixture sampling -> concat-and-chunk
    sequence packing, as ONE streaming plan. The gate and sample are
    per-doc vectorized filters (no shuffle); only the packing prefix
    sum shuffles, and it only ever carries 3 ints/doc."""
    import ray.data

    ds = ray.data.read_parquet(
        documents_path(sf_dir), columns=["doc_id", "text", "lang"]
    )
    word_re = re.compile(TOKEN_RE)

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        keep_ids, keep_ntok = [], []
        rates = df["lang"].map(SAMPLE_RATES).fillna(0).astype("int64")
        for doc_id, t, rate in zip(df["doc_id"], df["text"], rates):
            if doc_id % 100 >= rate:
                continue
            toks = word_re.findall(t)
            n = len(toks)
            top = max(Counter(toks).values()) if toks else 0
            big = Counter(zip(toks, toks[1:]))
            nb = n - 1 if n >= 2 else 0
            dupb = sum(c for c in big.values() if c >= 2)
            if top * 8 <= n and dupb * 4 <= nb:
                keep_ids.append(doc_id)
                keep_ntok.append(n)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(keep_ids, dtype="int64"),
                "n_tokens": pd.Series(keep_ntok, dtype="int64"),
                "bucket": pd.Series(
                    [i // bucket_size for i in keep_ids], dtype="int64"
                ),
            }
        )

    tokds = _stage_counts(
        ds.map_batches(gate, batch_format="pandas"), "mix_tok"
    )
    return _pack_tokds(tokds, budget, fanout)


# -- corpus-frequency rarity filter (CCNet-style LM rarity proxy) ------------


def rare_token_mass(sf_dir: str, threshold: int = 5):
    """Per-doc count of token positions whose corpus-wide term
    frequency is below ``threshold`` — the integer-exact core of a
    CCNet-style rarity/quality gate (Wenzek et al. 2020 score docs by
    LM perplexity; corpus-frequency rarity is the model-free analog,
    and integer counts keep the oracle bit-exact where a float log
    score would not be).

    Scale shape — fully co-shuffled, nothing corpus-derived on the
    driver (the former common-vocab broadcast was bounded by
    total_tokens/threshold, which grows LINEARLY with corpus size at a
    fixed threshold — 10^13 tokens / 5 is not driver-sized):

    1. per doc emit (word, doc_id, count) partials keyed by a coarse
       stable word-hash bucket — every occurrence row of a word lands
       in one group, so corpus tf is computable IN-GROUP;
    2. in-group (pandas): tf = transform-sum per word; rows of words
       with tf < threshold reduce to per-doc rare-count partials
       (doc_id, n_rare_part) — int pairs only from here on;
    3. per-doc totals co-group with the rare partials on doc_id
       (``agg.cogroup``, the shape of line_dedup/dedup), summing to
       (doc_id, n_tokens, n_rare).

    This is tfidf_top_terms' word-bucket shape with a doc-bucket
    reduce bolted on; no membership set is ever materialized.

    The base corpus vocabulary is a small closed word pool, so the
    pipeline first injects two deterministic SQL-restatable tokens per
    doc (``tok<doc_id>`` — a hapax, ``mid<doc_id%50>`` — common) the
    same way pii_redact injects its spans."""
    import ray.data

    from ..functions.hashing import fnv1a64_of_strings

    n_word_buckets = 1024  # uniform under word hashing; ~|vocab|/1024 per group
    n_doc_buckets = coarse_buckets()
    word_re = re.compile(TOKEN_RE)

    def inject(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        txt = [
            f"{s} tok{i} mid{i % 50}"
            for s, i in zip(t["text"].to_pylist(), ids)
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(txt, pa.string()),
            }
        )

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    injected = ds.map_batches(inject, batch_format="pyarrow")

    def word_doc_counts(batch: pa.Table) -> pa.Table:
        words, ids, cnts = [], [], []
        for doc_id, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            c = Counter(word_re.findall(t))
            words.extend(c.keys())
            ids.extend([doc_id] * len(c))
            cnts.extend(c.values())
        wa = pa.array(words, pa.string())
        return pa.table(
            {
                "wh": pa.array(fnv1a64_of_strings(wa).view(np.int64)),
                "word": wa,
                "doc_id": pa.array(ids, pa.int64()),
                "cnt": pa.array(cnts, pa.int64()),
            }
        )

    def rare_partials(g: pd.DataFrame) -> pd.DataFrame:
        tf = g.groupby("word")["cnt"].transform("sum")
        rare = g[tf < threshold].groupby("doc_id", as_index=False)["cnt"].sum()
        return pd.DataFrame(
            {
                "doc_id": rare["doc_id"].astype("int64"),
                "n_rare": rare["cnt"].astype("int64"),
            }
        )

    rare_parts = cogroup(
        injected.map_batches(word_doc_counts, batch_format="pyarrow"),
        "wh",
        n_word_buckets,
        rare_partials,
    )

    def doc_totals(batch: pa.Table) -> pa.Table:
        n_toks = [len(word_re.findall(t)) for t in batch["text"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "n_tokens": pa.array(n_toks, pa.int64())}
        )

    def fold(totals: pd.DataFrame, rare: pd.DataFrame) -> pd.DataFrame:
        out = (
            pd.concat([totals, rare])
            .fillna(0)
            .reindex(columns=["doc_id", "n_tokens", "n_rare"], fill_value=0)
            .groupby("doc_id", as_index=False)
            .sum()
        )
        return out.astype("int64")

    return cogroup(
        [injected.map_batches(doc_totals, batch_format="pyarrow"), rare_parts],
        "doc_id",
        n_doc_buckets,
        fold,
    )


# -- cross-document line dedup (RefinedWeb/CCNet boilerplate removal) --------


def line_dedup(sf_dir: str, min_docs: int = 3):
    """Cross-document line-level dedup (the RefinedWeb §3.2 /
    CCNet-paragraph boilerplate step): a line whose exact content
    appears in >= ``min_docs`` DISTINCT documents is boilerplate and is
    removed from every document. Returns per doc: total line count,
    kept line count, and the cleaned text (strip_boilerplate).

    The corpus text is single-line, so the pipeline injects three
    deterministic SQL-restatable lines per doc: ``footer <id%7>`` and
    ``banner <id%3>`` (shared across many docs -> removed) and
    ``sig <id>`` (unique -> kept).
    """
    import ray.data

    def lines_for(doc_id: int, text: str) -> list[str]:
        return [text, f"footer {doc_id % 7}", f"banner {doc_id % 3}", f"sig {doc_id}"]

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    return strip_boilerplate(ds, lines_for, min_docs)


def strip_boilerplate(ds, lines_for, min_docs: int):
    """The boilerplate strip of ``line_dedup`` and
    ``curation.boilerplate_dedup_pipeline``: over (doc_id, text) rows
    whose lines are ``lines_for(doc_id, text)``, drop every line that
    appears in >= ``min_docs`` distinct docs and return (doc_id,
    n_lines, n_kept, text_clean) per doc.

    Plan — a fully distributed CO-SHUFFLED SEMI-JOIN (nothing
    corpus-derived ever lands on the driver; the former frozenset
    broadcast grew with the corpus, since at CC scale the set of lines
    appearing in >= min_docs docs is every footer/nav/banner variant):

    1. per doc emit one row per LINE OCCURRENCE — (h1, h2) 128-bit
       blake2b line hash, doc_id, line_idx; 28 B/row, content never
       rides this exchange. Key the exchange by a coarse hash bucket
       so every occurrence of a given line co-locates.
    2. in-group (pandas): doc frequency per line = nunique(doc_id)
       via a local transform; occurrences of lines with
       df >= min_docs are BOILERPLATE SITES — emit (doc_id, line_idx)
       int pairs only.
    3. co-group the docs with the boilerplate sites on doc_id
       (``agg.cogroup``, the dedup._cogroup_pair_payloads shape: text
       rides this one exchange, once per doc) and strip in-group:
       rebuild the doc's lines, drop the flagged indices, emit
       (doc_id, n_lines, n_kept, text_clean).
    """
    from ..functions.hashing import blake2b128_of_strings

    n_buckets = coarse_buckets()

    def line_occurrences(batch: pa.Table) -> pa.Table:
        ids, idxs, lines = [], [], []
        for doc_id, s in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ls = lines_for(doc_id, s)
            ids.extend([doc_id] * len(ls))
            idxs.extend(range(len(ls)))
            lines.extend(ls)
        h1, h2 = blake2b128_of_strings(pa.array(lines, pa.string()))
        return pa.table(
            {
                "h1": pa.array(h1, pa.int64()),
                "h2": pa.array(h2, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "line_idx": pa.array(idxs, pa.int64()),
            }
        )

    def boiler_sites(g: pd.DataFrame) -> pd.DataFrame:
        df_per_line = g.groupby(["h1", "h2"])["doc_id"].transform("nunique")
        hit = g[df_per_line >= min_docs]
        return pd.DataFrame(
            {
                "doc_id": hit["doc_id"].astype("int64"),
                "line_idx": hit["line_idx"].astype("int64"),
            }
        )

    occurrences = ds.map_batches(line_occurrences, batch_format="pyarrow")
    sites = cogroup(occurrences, "h1", n_buckets, boiler_sites)

    def strip(docs: pd.DataFrame, sites: pd.DataFrame) -> pd.DataFrame:
        if docs.empty:  # a bucket of sites alone
            return pd.DataFrame()
        removed: dict[int, set[int]] = {}
        for d, i in zip(sites.get("doc_id", ()), sites.get("line_idx", ())):
            removed.setdefault(int(d), set()).add(int(i))
        ids, n_lines, n_kept, cleaned = [], [], [], []
        for doc_id, s in zip(docs["doc_id"].astype(int), docs["text"]):
            ls = lines_for(doc_id, s)
            gone = removed.get(doc_id, ())
            kept = [l for i, l in enumerate(ls) if i not in gone]
            ids.append(doc_id)
            n_lines.append(len(ls))
            n_kept.append(len(kept))
            cleaned.append("\n".join(kept))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_lines": pd.Series(n_lines, dtype="int64"),
                "n_kept": pd.Series(n_kept, dtype="int64"),
                "text_clean": pd.Series(cleaned, dtype="object"),
            }
        )

    return cogroup([ds, sites], "doc_id", n_buckets, strip)


# -- unicode normalization (NFC + whitespace collapse) ------------------------


def normalize_text(sf_dir: str):
    """Unicode text normalization — the first cleanup pass every
    webtext pipeline runs before tokenization: NFC-normalize (combining
    marks -> precomposed codepoints), collapse space/tab runs to one
    space, trim. Injection, whitespace collapse, trim and the length
    columns are Arrow kernels (``replace_substring_regex`` is RE2); the
    NFC step itself is ``unicodedata.normalize`` per string because
    pyarrow's ``utf8_normalize`` (utf8proc) does NOT recompose
    e+U+0301 -> U+00E9 while DuckDB's ``nfc_normalize`` does — the
    stdlib implements standard NFC composition, matching DuckDB
    byte-exactly. No shuffle anywhere in the stage.

    The base corpus is ASCII-only, so a deterministic SQL-restatable
    non-ASCII suffix is injected first (``cafe`` + COMBINING ACUTE
    U+0301, a tab run, and a per-doc digit), exactly the inject_pii
    pattern. The oracle recomputes with DuckDB's ``nfc_normalize`` —
    both sides are Unicode-standard NFC, so the match is byte-exact."""
    import ray.data

    def norm(t: pa.Table) -> pa.Table:
        ids = t["doc_id"]
        digit = pc.cast(mod_bucket(ids, 10), pa.string())
        injected = pc.binary_join_element_wise(
            pc.binary_join_element_wise(
                t["text"], pa.scalar("caf" + "e" + "́" + "\t"), "  "
            ),
            digit,
            " x",
        )
        n_raw = pc.utf8_length(injected)
        import unicodedata

        nfc = pa.array(
            [unicodedata.normalize("NFC", s) for s in injected.to_pylist()],
            pa.string(),
        )
        collapsed = pc.replace_substring_regex(
            nfc, pattern=r"[ \t]+", replacement=" "
        )
        clean = pc.utf8_trim(collapsed, " ")
        return pa.table(
            {
                "doc_id": ids,
                "n_chars_raw": pc.cast(n_raw, pa.int64()),
                "n_chars_norm": pc.cast(pc.utf8_length(clean), pa.int64()),
                "text_norm": clean,
            }
        )

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    return ds.map_batches(norm, batch_format="pyarrow")


# -- bigram LM quality score -------------------------------------------------


def bigram_lm_score(sf_dir: str, scale: int = 10**6):
    """CCNet-style LM quality filter (Wenzek et al. 2020 score docs with
    a KenLM model; no model ships in this container, so the model is an
    MLE bigram LM trained on the corpus itself) with an INTEGER-EXACT
    score: for each bigram position (w1, w2) the model assigns
    ``p_scaled = (count(w1 w2) * scale) // count(w1 .)`` and the doc
    score is the sum of ``p_scaled`` over its bigram positions —
    truncating integer division on both sides, so the DuckDB oracle
    matches bit-for-bit (a float log-perplexity sum would be
    order-dependent). Higher = more in-distribution, the CCNet gate
    direction.

    Distributed shape (two exchanges, the same minimal plan as
    :func:`tfidf_top_terms`):

    1. in-batch partial: per-doc bigram ``Counter`` -> distinct
       ``(doc_id, w1, w2, tf)`` rows (a doc lives wholly in one batch,
       so tf is final), plus one ``(doc_id, "", "", 0)`` sentinel per
       doc so token-poor docs survive to the output;
    2. ONE exchange on a COARSE bucket of hash(w1) (1024 groups, not
       |vocab| groups — per-word ``map_groups`` would be interpreter-
       bound over tens of thousands of tiny pandas groups): every
       bigram starting with w1 lands in w1's bucket, so a vectorized
       in-group transform computes BOTH the prefix total
       ``count(w1 .)`` and each bigram count, then collapses to
       per-doc partials ``(doc_id, s, tf)`` before re-keying;
    3. a second coarse-bucket exchange (doc_id % n_doc_buckets,
       cluster-sized with floor 256) folds the
       per-doc partials with a vectorized in-group sum (Ray's native
       sort-agg over |docs| groups measured ~2x slower).

    Skew: buckets are uniform under the hash; the hot stopword-w1
    content spreads across docs, not buckets. At extreme corpus scale
    ``c * scale`` can outgrow int64 (c > ~9.2e12); drop ``scale`` or
    widen to object ints there — the plan shape is unchanged.
    """
    import ray.data

    from ..functions.hashing import fnv1a64_of_strings

    n_buckets = 1024
    n_doc_buckets = coarse_buckets(floor=256)
    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    word_re = re.compile(TOKEN_RE)

    def partial(batch: pa.Table) -> pa.Table:
        ids, w1s, w2s, tfs = [], [], [], []
        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            ws = word_re.findall(t)
            c = Counter(zip(ws, ws[1:]))
            for (a, b), n in c.items():
                ids.append(i)
                w1s.append(a)
                w2s.append(b)
                tfs.append(n)
            ids.append(i)  # sentinel: doc presence without bigrams
            w1s.append("")
            w2s.append("")
            tfs.append(0)
        w1a = pa.array(w1s, pa.string())
        return pa.table(
            {
                "wh": pa.array(fnv1a64_of_strings(w1a).view(np.int64)),
                "doc_id": pa.array(ids, pa.int64()),
                "w1": w1a,
                "w2": pa.array(w2s, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        tf = g["tf"].to_numpy(np.int64)
        prefix = (
            g.groupby("w1", sort=False)["tf"].transform("sum").to_numpy(np.int64)
        )
        c_big = (
            g.groupby(["w1", "w2"], sort=False)["tf"]
            .transform("sum")
            .to_numpy(np.int64)
        )
        # sentinel rows ("" prefix, tf=0) have prefix 0 -> score 0
        s = tf * np.where(prefix > 0, (c_big * scale) // np.maximum(prefix, 1), 0)
        out = pd.DataFrame(
            {"doc_id": g["doc_id"].to_numpy(np.int64), "s": s, "tf": tf}
        )
        return out.groupby("doc_id", as_index=False).sum()

    def final_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("doc_id", as_index=False)[["s", "tf"]].sum()
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"].astype("int64"),
                "n_bigrams": out["tf"].astype("int64"),
                "lm_score_scaled": out["s"].astype("int64"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    scored = cogroup(partials, "wh", n_buckets, score_bucket)
    # coarse re-key for the per-doc fold: Ray's native sort-agg over
    # |docs| groups costs ~2x this whole plan; 256 bucket groups with a
    # vectorized in-group sum is the cheap shape
    return cogroup(scored, "doc_id", n_doc_buckets, final_bucket)


# -- exact-substring span removal --------------------------------------------


class NGramPositionEmitter:
    """One row per n-gram POSITION (1-based token index) — the input to
    span-level exact-substring dedup. Grams ride the shuffle as 128-bit
    blake2b keys; unlike :class:`NGramEmitter` positions are NOT
    collapsed per (gram, doc), because the consumer needs every site."""

    def __init__(self, n: int = 8):
        self.n = n
        self.word = re.compile(TOKEN_RE)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import blake2b128_of_strings

        ids, grams, poss = [], [], []
        for doc_id, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            toks = self.word.findall(t)
            for i in range(len(toks) - self.n + 1):
                ids.append(doc_id)
                grams.append(" ".join(toks[i : i + self.n]))
                poss.append(i + 1)
        h1, h2 = blake2b128_of_strings(pa.array(grams, pa.string()))
        return pa.table(
            {
                "g1": pa.array(h1, pa.int64()),
                "g2": pa.array(h2, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
            }
        )


def dup_span_removal(sf_dir: str, n: int = 8):
    """EXACT-SUBSTRING span dedup (Lee et al. 2022 "Deduplicating
    Training Data Makes Language Models Better", the ExactSubstr arm):
    token positions whose n-gram occurs in at least one OTHER document
    are removal sites; overlapping/adjacent sites merge into maximal
    removed SPANS. Per affected doc: site count, span count, and total
    removed tokens.

    Where :func:`dup_ngram_mass` computes only the per-doc mass (one
    aggregate-only exchange), span removal genuinely needs the
    positions back — and ONE exchange still suffices, because the
    coarse bucket key depends only on the gram hash: every position of
    a given gram lands in the same bucket group, so the dup test
    (distinct doc count >= 2 per gram) runs INSIDE the group as a
    vectorized transform. No separate dup-key side, no join:

    1. position rows (bucket(g1), g1, g2, doc_id, pos) — the only
       full-size exchange (coarse 1024-way bucket, uniform under
       blake2b);
    2. per-bucket vectorized filter: keep positions whose gram spans
       >= 2 distinct docs (pandas groupby-transform nunique — 1024
       groups, never per-gram Python);
    3. per-doc interval union (vectorized numpy in map_groups): sites
       within n of each other merge ([p, p+n-1] token windows).

    The reference algorithm builds a suffix array to find duplicated
    spans of ANY length >= threshold; the n-gram-seeded variant here is
    the standard map-reduce restatement (equal exchange shape, lower
    constant than shipping suffixes). Collisionless under blake2b-128.
    Per-gram groups (millions, interpreter-bound) and ``Dataset.join``
    (whose per-partition aggregator actors reject the empty partitions
    a sparse key side produces) are both avoided.
    """
    import ray.data

    n_buckets = 1024
    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])

    positions = ds.map_batches(
        lambda b, _n=n: NGramPositionEmitter(_n)(b), batch_format="pyarrow"
    )

    def filter_dup(g: pd.DataFrame) -> pd.DataFrame:
        n_docs = g.groupby(["g1", "g2"], sort=False)["doc_id"].transform(
            "nunique"
        )
        return g.loc[n_docs >= 2, ["doc_id", "pos"]]

    joined = cogroup(positions, "g1", n_buckets, filter_dup)

    def merge_spans(g: pd.DataFrame) -> pd.DataFrame:
        p = np.sort(g["pos"].to_numpy(np.int64))
        gap = np.diff(p) > n  # strictly more than n apart -> new span
        cut = np.nonzero(gap)[0]
        starts = p[np.concatenate(([0], cut + 1))]
        ends = p[np.concatenate((cut, [len(p) - 1]))] + n - 1
        return pd.DataFrame(
            {
                "doc_id": [np.int64(g["doc_id"].iloc[0])],
                "n_dup_positions": [np.int64(len(p))],
                "n_spans": [np.int64(len(starts))],
                "n_removed_tokens": [np.int64(np.sum(ends - starts + 1))],
            }
        )

    return (
        joined.groupby("doc_id").map_groups(merge_spans, batch_format="pandas")
    )


# -- URL canonicalization ----------------------------------------------------


def url_canonicalize(sf_dir: str):
    """URL canonicalization (the step BEFORE url-level dedup in
    C4/CommonCrawl pipelines): lowercase scheme+host, strip the default
    https port, strip tracking query params, strip the trailing slash.

    The corpus URLs are already clean, so odd doc_ids first get a
    deterministic MESSY variant (upper-cased host, ``:443``, ``utm_``/
    ``ref`` params, trailing slash — SQL-restatable, the pii_redact
    pattern); the canonical form of every row must then equal the
    clean original. Fully vectorized pandas string ops; no shuffle."""
    import ray.data

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id"])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"]
        clean = (
            "https://site" + (ids % 97).astype(str) + ".example/p/" + ids.astype(str)
        )
        messy = (
            "HTTPS://Site" + (ids % 97).astype(str) + ".EXAMPLE:443/p/"
            + ids.astype(str) + "/?utm_source=feed&ref=" + (ids % 5).astype(str)
        )
        raw = clean.where(ids % 2 == 0, messy)
        c = raw.str.replace(r"\?.*$", "", regex=True)  # strip query
        # lowercase scheme+host (authority part), keep the path casing
        c = c.str.replace(
            r"^([A-Za-z]+://[^/]*)", lambda m: m.group(1).lower(), regex=True
        )
        c = c.str.replace(":443/", "/", regex=False)
        c = c.str.rstrip("/")
        return pd.DataFrame(
            {
                "doc_id": ids.astype("int64"),
                "url_canon": c,
                "was_messy": (ids % 2 == 1).astype("int64"),
                "roundtrip_ok": (c == clean).astype("int64"),
            }
        )

    return ds.map_batches(canon, batch_format="pandas")


def doc_chunks(sf_dir: str, chunk_size: int = 64, stride: int = 48):
    """RAG-style overlapping token-window chunking: split every
    document into fixed-size token windows (chunk_size tokens, stride
    tokens apart, so consecutive chunks overlap by
    chunk_size - stride) and emit the chunk TEXT plus its token
    count — the retrieval-corpus preparation step that precedes
    embedding.

    Tokenization is single-space split (the corpus is single-space
    separated), chosen because DuckDB's ``string_split(text, ' ')``
    has identical semantics, making the chunk text itself — not just
    counts — bit-exact against the SQL oracle. Chunk starts are
    0, stride, 2*stride, ... while start < n_tokens; the final chunk
    may be short (standard sliding-window rule).

    Shape: a pure per-document ``map_batches`` explosion — no shuffle
    at all; chunks stream straight to the consumer, so the operator's
    cost is one corpus scan regardless of scale. The per-document
    loop is the accepted vectorization granularity (unit of work =
    one document; column I/O stays Arrow)."""
    import ray.data

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])

    def chunk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_id, out_cid, out_n, out_text = [], [], [], []
        for i, txt in zip(ids, t["text"].to_pylist()):
            toks = txt.split(" ")
            n = len(toks)
            for s in range(0, n, stride):
                piece = toks[s : s + chunk_size]
                out_id.append(i)
                out_cid.append(s // stride)
                out_n.append(len(piece))
                out_text.append(" ".join(piece))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "chunk_id": pa.array(out_cid, pa.int64()),
                "n_chunk_tokens": pa.array(out_n, pa.int64()),
                "chunk_text": pa.array(out_text, pa.string()),
            }
        )

    return ds.map_batches(chunk, batch_format="pyarrow")


def temperature_sample(sf_dir: str):
    """Temperature-based mixture resampling (T = 2) — the multilingual
    data-balancing step (XLM-R / mT5 style): after sampling, language
    l's share is proportional to n_l^(1/T) instead of n_l, up-weighting
    tail languages. Deterministic hash-thresholding keeps it exact and
    SQL-restatable: doc survives iff
    ``fnv1a64(str(doc_id)) % (1000 * isqrt(n_l)) < 1000``
    — an expected keep-rate of ~1/sqrt(n_l), so kept mass per lang is
    ~n_l / sqrt(n_l) = n_l^(1/2). ``math.isqrt`` on the Ray side and
    ``floor(sqrt(n))`` in SQL agree exactly (IEEE sqrt is correctly
    rounded; counts are far below the 2^52 hazard line).

    Shape: pass 1 is a lang-count aggregate whose output is
    |langs| rows (driver-sized by construction); pass 2 is a pure
    vectorized filter — no corpus shuffle at any point."""
    import math

    import ray.data
    from ray.data.aggregate import Count

    from ..functions.hashing import fnv1a64_of_int_strings

    counts = (
        ray.data.read_parquet(documents_path(sf_dir), columns=["lang"])
        .groupby("lang")
        .aggregate(Count(alias_name="n"))
        .take_all()
    )
    denom = {
        r["lang"]: np.uint64(1000 * math.isqrt(int(r["n"]))) for r in counts
    }

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "lang"])

    def keep(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        langs = t["lang"].to_pylist()
        h = fnv1a64_of_int_strings(ids)
        d = np.fromiter((denom[l] for l in langs), np.uint64, len(ids))
        mask = (h % d) < np.uint64(1000)
        return pa.table(
            {
                "doc_id": pa.array(ids[mask], pa.int64()),
                "lang": pa.array(
                    [l for l, m in zip(langs, mask) if m], pa.string()
                ),
            }
        )

    return ds.map_batches(keep, batch_format="pyarrow")
