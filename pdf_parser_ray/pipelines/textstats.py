"""Text-analysis operators over the documents table (build mandate:
language-ID, quality scoring, token counting, fingerprinting).

Every stage is a vectorized/batched ``map_batches`` over pyarrow or
pandas batches; stopword profiles and compiled regexes live in actor
``__init__``s where stateful.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import fnv1a64, shingle_hashes, simhash64
from .extract_pipeline import actor_pool

TOKEN_RE = r"[A-Za-z0-9]+"
STOPWORDS = ("the", "and", "of", "a", "to", "in")

# tiny per-language stopword profiles for the n-gram/stopword heuristic
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "for", "with", "on"},
    "de": {"der", "die", "das", "und", "von", "zu", "mit", "ist", "auf", "ein"},
    "fr": {"le", "la", "les", "de", "et", "un", "une", "est", "dans", "pour"},
    "es": {"el", "la", "los", "de", "y", "un", "una", "es", "en", "por"},
}


def documents_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def token_counts_batch(df: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, n_tokens) — vectorized regex count; semantics match
    DuckDB ``len(regexp_extract_all(text, '[A-Za-z0-9]+'))``."""
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"],
            "n_tokens": df["text"].str.count(TOKEN_RE).astype("int64"),
        }
    )


def quality_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Integer quality components (ints keep the oracle hash exact):
    n_chars_calc, n_tokens, n_stopwords, n_punct."""
    texts = df["text"]
    tokens = texts.str.findall(TOKEN_RE)
    stop = frozenset(STOPWORDS)
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"],
            "n_chars_calc": texts.str.len().astype("int64"),
            "n_tokens": tokens.map(len).astype("int64"),
            "n_stopwords": tokens.map(
                lambda ts: sum(1 for t in ts if t in stop)
            ).astype("int64"),
            "n_punct": texts.str.count(r"[^\w\s]").astype("int64"),
        }
    )


class LangId:
    """Stopword/CJK-heuristic language ID (stateful stage: profiles and
    the token regex are compiled once per actor)."""

    def __init__(self):
        self.word = re.compile(TOKEN_RE)
        self.profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items()}

    def predict(self, text: str) -> str:
        if any("一" <= c <= "鿿" for c in text[:400]):
            return "zh"
        toks = self.word.findall(text.lower())
        if not toks:
            return "und"
        best_lang, best = "und", 0
        for lang in ("en", "de", "fr", "es"):  # fixed order = determinism
            score = sum(1 for t in toks if t in self.profiles[lang])
            if score > best:
                best_lang, best = lang, score
        return best_lang

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.predict(t) for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "pred_lang": pa.array(preds, type=pa.string()),
            }
        )


class Fingerprinter:
    """Document fingerprints: FNV-1a64 content hash + SimHash64 over
    3-gram shingles (emitted as int64 for Arrow/SQL friendliness).

    The shingle family here is FNV-1a64 over the shingle STRING
    (functions/hashing.shingle_hashes) — a public, byte-defined
    algorithm an independent oracle can recompute (the DuckDB oracle
    rebuilds both hashes from scratch in SQL). The blake2b TokenHasher
    family stays the fast path for MinHash, where only shingle-set
    identity matters."""

    def __init__(self):
        self.word = re.compile(TOKEN_RE)

    def __call__(self, batch: pa.Table) -> pa.Table:
        fps = []
        shs = []
        for t in batch["text"].to_pylist():
            fps.append(fnv1a64(t.encode("utf-8")) - (1 << 63))
            sh = simhash64(shingle_hashes(self.word.findall(t)))
            shs.append(sh - (1 << 63))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fnv64": pa.array(fps, type=pa.int64()),
                "simhash64": pa.array(shs, type=pa.int64()),
            }
        )


def token_counts(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    return ds.map_batches(token_counts_batch, batch_format="pandas")


def quality_scores(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    return ds.map_batches(quality_batch, batch_format="pandas")


def lang_id(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(
        documents_path(sf_dir), columns=["doc_id", "text", "lang"]
    )
    return ds.map_batches(LangId, batch_format="pyarrow", **actor_pool())


def fingerprints(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    return ds.map_batches(Fingerprinter, batch_format="pyarrow", **actor_pool())


# -- bounded inverted-index postings ------------------------------------------

POSTING_TERMS = ("vector", "spark", "hash", "window")


def term_postings(sf_dir: str, terms=POSTING_TERMS, cap: int = 20):
    """Inverted-index construction for a broadcast query-term set,
    with BOUNDED posting emission: per term, the exact containing-doc
    count plus the first ``cap`` doc_ids (ascending) as the posting
    prefix — the retrieval-index building block that stays
    driver-safe at corpus scale (a full posting list for a frequent
    term is corpus-sized; the count + capped prefix is 24 B * cap).

    Ray shape: the term set rides the task closure (broadcast once);
    each batch emits at most (cap + 1) rows per term — a capped
    posting partial and one count partial — then one tiny per-term
    merge. Tokenization is whole-doc set membership, matching the SQL
    oracle's list_contains(regexp_extract_all(...)) exactly."""
    import numpy as np
    import ray.data

    word_re = re.compile(TOKEN_RE)
    term_tuple = tuple(terms)

    def partial(t: pa.Table) -> pa.Table:
        hits: dict[str, list[int]] = {term: [] for term in term_tuple}
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = set(word_re.findall(text))
            for term in term_tuple:
                if term in toks:
                    hits[term].append(doc_id)
        terms_out, ids_out, cnt_out = [], [], []
        for term, ids in hits.items():
            if not ids:
                continue
            ids.sort()
            for i in ids[:cap]:  # capped posting partial
                terms_out.append(term)
                ids_out.append(i)
                cnt_out.append(0)
            terms_out.append(term)  # count partial (doc_id = -1 sentinel)
            ids_out.append(-1)
            cnt_out.append(len(ids))
        return pa.table(
            {
                "term": pa.array(terms_out, pa.string()),
                "doc_id": pa.array(ids_out, pa.int64()),
                "cnt": pa.array(cnt_out, pa.int64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        term = g["term"][0].as_py()
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        cnts = g["cnt"].to_numpy(zero_copy_only=False)
        n_docs = int(cnts.sum())
        posting = np.sort(ids[ids >= 0])[:cap]
        return pa.table(
            {
                "term": pa.array([term], pa.string()),
                "n_docs": pa.array([n_docs], pa.int64()),
                "postings": pa.array(
                    [",".join(str(int(i)) for i in posting)], pa.string()
                ),
            }
        )

    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .map_groups(merge, batch_format="pyarrow")
    )


# -- broadcast-model quality classifier ---------------------------------------

# the "model": integer weights over the quality_batch features. A real
# deployment swaps these for trained (e.g. fasttext/logreg) weights —
# the Ray plumbing (ray.put once, ray.get per actor __init__) is what
# this operator demonstrates, and integer weights keep the score
# exactly restatable in SQL.
QC_WEIGHTS = (("n_chars_calc", 1), ("n_tokens", 20), ("n_stopwords", 50), ("n_punct", -30))
QC_THRESHOLD = 2000


class QualityClassifier:
    """Stateful scoring stage: the weight vector is fetched from the
    object store ONCE per actor (never re-shipped per batch); scoring
    is a vectorized integer dot product over quality_batch features."""

    def __init__(self, weights_ref=None):
        if weights_ref is None:
            self.w = dict(QC_WEIGHTS)
        else:
            import ray

            self.w = dict(ray.get(weights_ref))

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        f = quality_batch(df)
        score = sum(int(w) * f[c] for c, w in self.w.items())
        return pd.DataFrame(
            {
                "doc_id": f["doc_id"].astype("int64"),
                "score": score.astype("int64"),
                "kept": (score >= QC_THRESHOLD).astype("int64"),
            }
        )


def quality_classifier_score(sf_dir: str):
    """Model-scoring quality gate (the stand-in for fasttext/logreg
    quality classifiers in CC pipelines): broadcast the model weights
    once via ray.put, score every document in an actor pool, emit
    (doc_id, score, kept)."""
    import ray
    import ray.data

    weights_ref = ray.put(tuple(QC_WEIGHTS))
    ds = ray.data.read_parquet(documents_path(sf_dir), columns=["doc_id", "text"])
    return ds.map_batches(
        QualityClassifier,
        batch_format="pandas",
        **actor_pool(),
        fn_constructor_args=(weights_ref,),
    )


def shingle_set_ops(sf_dir: str, lang_a: str = "en", lang_b: str = "de"):
    """Distributed set operations (INTERSECT / EXCEPT) over two large
    distinct sets: every distinct 3-token shingle of the two langs'
    corpora classified as ``intersect`` (in both), ``only_a`` or
    ``only_b`` — the full symmetric-difference decomposition, so
    INTERSECT = intersect rows, A EXCEPT B = only_a rows, union = all
    rows. Shingles (not tokens) because the corpus vocabulary is
    shared across langs; their 3-gram combinations are not.

    Shape: each block folds its text into distinct (shingle, in_a,
    in_b) partials — set membership pre-ORed per shingle in-batch, so
    at most one row per distinct shingle per block shuffles; a native
    Max merges the flag columns (idempotent OR over {0,1}); a final
    vectorized pass maps flag pairs to the class label. ONE exchange,
    carrying each distinct shingle once per block it appears in."""
    import ray.data
    from ray.data.aggregate import Max

    word_re = re.compile(r"[A-Za-z0-9]+")

    def doc_shingles(text: str) -> set[str]:
        toks = word_re.findall(text)
        if not toks:
            return set()
        if len(toks) < 3:
            return {" ".join(toks)}
        return {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}

    def partial(t: pa.Table) -> pa.Table:
        seen: dict[str, list[int]] = {}
        for lang, text in zip(t["lang"].to_pylist(), t["text"].to_pylist()):
            if lang == lang_a:
                col = 0
            elif lang == lang_b:
                col = 1
            else:
                continue
            for sh in doc_shingles(text):
                flags = seen.setdefault(sh, [0, 0])
                flags[col] = 1
        shs = sorted(seen)
        return pa.table(
            {
                "shingle": pa.array(shs, pa.string()),
                "in_a": pa.array([seen[s][0] for s in shs], pa.int64()),
                "in_b": pa.array([seen[s][1] for s in shs], pa.int64()),
            }
        )

    merged = (
        ray.data.read_parquet(documents_path(sf_dir), columns=["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("shingle")
        .aggregate(Max("in_a", alias_name="in_a"), Max("in_b", alias_name="in_b"))
    )

    def classify(t: pa.Table) -> pa.Table:
        a = t["in_a"].to_numpy(zero_copy_only=False)
        b = t["in_b"].to_numpy(zero_copy_only=False)
        op = np.where(a & b, "intersect", np.where(a == 1, "only_a", "only_b"))
        return pa.table(
            {"shingle": t["shingle"], "set_op": pa.array(op.tolist(), pa.string())}
        )

    return merged.map_batches(classify, batch_format="pyarrow")
