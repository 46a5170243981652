"""Round-5 additions #3: salted exact distinct count, CDC upsert/merge,
and RAG-style overlapping token-window chunking — tiny-corpus exactness
plus invariants against pure-Python recomputation on the real testdata."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from pdf_parser_ray.pipelines import relational, training

SF = "/root/testdata/sf0.001"
_US = 1_000_000


def _write_events(tmp_path, rows):
    """rows: (event_id, user_id, event_type)."""
    t = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "user_id": pa.array([r[1] for r in rows], pa.int64()),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))


def _write_orders(tmp_path, rows):
    """rows: (o_orderkey, o_totalprice)."""
    t = pa.table(
        {
            "o_orderkey": pa.array([r[0] for r in rows], pa.int64()),
            "o_totalprice": pa.array([r[1] for r in rows], pa.float64()),
        }
    )
    pq.write_table(t, str(tmp_path / "orders.parquet"))


def _write_docs(tmp_path, rows):
    """rows: (doc_id, text)."""
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))


# -- distinct_users_salted ------------------------------------------------


def test_salted_distinct_tiny_exact(ray_session, tmp_path):
    # user 5 repeats within and across types; the salted two-phase
    # count must still be exactly COUNT(DISTINCT user_id) per type
    _write_events(
        tmp_path,
        [
            (1, 5, "view"),
            (2, 5, "view"),
            (3, 6, "view"),
            (4, 5, "click"),
            (5, 70, "click"),  # same salt as 6 at n_salts=64
            (6, 6, "click"),
            (7, 5, "purchase"),
        ],
    )
    got = (
        relational.distinct_users_salted(str(tmp_path))
        .to_pandas()
        .set_index("event_type")["n_users"]
        .to_dict()
    )
    assert got == {"view": 2, "click": 3, "purchase": 1}


def test_salted_distinct_matches_pandas_on_testdata(ray_session):
    got = (
        relational.distinct_users_salted(SF)
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    ev = pq.read_table(
        SF + "/events.parquet", columns=["event_type", "user_id"]
    ).to_pandas()
    want = (
        ev.groupby("event_type")["user_id"]
        .nunique()
        .rename("n_users")
        .reset_index()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    assert list(got["event_type"]) == list(want["event_type"])
    assert list(got["n_users"]) == list(want["n_users"])


# -- orders_cdc_upsert -----------------------------------------------------


def test_cdc_upsert_tiny_semantics(ray_session, tmp_path):
    # key 7: updated; key 11: deleted; key 77: updated THEN deleted
    # (delete wins, max-version rule); key 3: untouched base row
    _write_orders(
        tmp_path, [(3, 10.0), (7, 20.0), (11, 30.0), (77, 40.0)]
    )
    got = (
        relational.orders_cdc_upsert(str(tmp_path))
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    assert list(got["o_orderkey"]) == [3, 7]
    assert list(got["total_cents"]) == [1000, 2000 + 12345]
    assert list(got["version"]) == [0, 1]


def test_cdc_upsert_counts_on_testdata(ray_session):
    got = relational.orders_cdc_upsert(SF).to_pandas()
    orders = pq.read_table(
        SF + "/orders.parquet", columns=["o_orderkey"]
    ).to_pandas()
    k = orders["o_orderkey"].to_numpy()
    live = k[k % 11 != 0]
    assert len(got) == len(live)
    assert set(got["o_orderkey"]) == set(live)
    # every surviving %7 key carries version 1, others version 0
    v = got.set_index("o_orderkey")["version"]
    assert (v[v.index % 7 == 0] == 1).all()
    assert (v[v.index % 7 != 0] == 0).all()


# -- doc_chunks ------------------------------------------------------------


def test_doc_chunks_tiny_windows(ray_session, tmp_path):
    toks = [f"t{i}" for i in range(10)]
    _write_docs(tmp_path, [(1, " ".join(toks)), (2, "solo")])
    got = (
        training.doc_chunks(str(tmp_path), chunk_size=4, stride=3)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    d1 = got[got["doc_id"] == 1]
    # starts 0,3,6,9 -> windows [0:4],[3:7],[6:10],[9:10]
    assert list(d1["chunk_id"]) == [0, 1, 2, 3]
    assert list(d1["n_chunk_tokens"]) == [4, 4, 4, 1]
    assert list(d1["chunk_text"]) == [
        "t0 t1 t2 t3",
        "t3 t4 t5 t6",
        "t6 t7 t8 t9",
        "t9",
    ]
    d2 = got[got["doc_id"] == 2]
    assert list(d2["chunk_text"]) == ["solo"]


def test_doc_chunks_cover_and_overlap_on_testdata(ray_session):
    got = training.doc_chunks(SF).to_pandas()
    docs = pq.read_table(
        SF + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    n_tok = docs.set_index("doc_id")["text"].str.split(" ").map(len)
    # chunk count per doc = ceil(n / stride)
    want_chunks = (-(-n_tok // 48)).astype(int)
    per_doc = got.groupby("doc_id")["chunk_id"].count()
    assert per_doc.sort_index().tolist() == want_chunks.sort_index().tolist()
    # reconstructing from stride-aligned prefixes reproduces each doc:
    # every chunk's first stride tokens are disjoint and in order
    one = docs.iloc[0]
    chunks = got[got["doc_id"] == one["doc_id"]].sort_values("chunk_id")
    rebuilt = " ".join(
        " ".join(c.split(" ")[:48]) for c in chunks["chunk_text"]
    )
    assert rebuilt == one["text"]


# -- doc_global_rank ---------------------------------------------------------


def test_global_rank_tiny_dense(ray_session, tmp_path):
    # ties on n_chars break by doc_id; ranks are a dense 1..n
    t = pa.table(
        {
            "doc_id": pa.array([5, 1, 9, 2], pa.int64()),
            "n_chars": pa.array([30, 30, 7, 100], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = (
        relational.doc_global_rank(str(tmp_path), width=8)
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    assert list(got["doc_id"]) == [9, 1, 5, 2]
    assert list(got["rank"]) == [1, 2, 3, 4]


def test_global_rank_matches_pandas_on_testdata(ray_session):
    got = relational.doc_global_rank(SF).to_pandas()
    docs = pq.read_table(
        SF + "/documents.parquet", columns=["doc_id", "n_chars"]
    ).to_pandas()
    want = docs.sort_values(["n_chars", "doc_id"], kind="mergesort")
    want["rank"] = np.arange(1, len(want) + 1)
    m = got.merge(want[["doc_id", "rank"]], on="doc_id", suffixes=("", "_w"))
    assert (m["rank"] == m["rank_w"]).all()
    assert sorted(got["rank"]) == list(range(1, len(got) + 1))


# -- snapshot_diff -----------------------------------------------------------


def test_snapshot_diff_classes_on_testdata(ray_session):
    got = relational.snapshot_diff(SF).to_pandas()
    ids = pq.read_table(
        SF + "/documents.parquet", columns=["doc_id"]
    ).to_pandas()["doc_id"].to_numpy()
    want_removed = set(ids[ids % 13 == 0])
    want_changed = set(ids[(ids % 13 != 0) & (ids % 17 == 0)])
    want_added = set(
        ids[ids % 19 == 0] + relational.SNAPSHOT_ADD_OFFSET
    )
    by = got.groupby("change")["doc_id"].apply(set).to_dict()
    assert by.get("removed", set()) == want_removed
    assert by.get("changed", set()) == want_changed
    assert by.get("added", set()) == want_added
    # delta-sized: unchanged keys never appear
    assert len(got) == len(want_removed) + len(want_changed) + len(want_added)


def test_snapshot_diff_added_ids_skip_real_ids(ray_session, tmp_path):
    # ids past 1M: doc 19's offspring at 19 + 1_000_000 would reuse the
    # id of a real doc, so the offset must grow past the largest id
    ids = list(range(0, 60)) + list(range(1_000_000, 1_000_501))
    _write_docs(tmp_path, [(i, f"d{i}") for i in ids])
    got = relational.snapshot_diff(str(tmp_path)).to_pandas()
    by = got.groupby("change")["doc_id"].apply(set).to_dict()
    arr = np.array(ids)
    assert by["added"] == set(arr[arr % 19 == 0] + 1_000_501)
    assert not by["added"] & set(ids)
    assert by["removed"] == set(arr[arr % 13 == 0])
    assert by["changed"] == set(arr[(arr % 13 != 0) & (arr % 17 == 0)])


# -- image_resize_thumbs -----------------------------------------------------


def test_image_resize_tiny_exact(ray_session, tmp_path):
    # doc 0: w=16, h=16 -> thumb samples rows/cols 0,2,4,...,14
    _write_docs(tmp_path, [(0, "x")])
    from pdf_parser_ray.pipelines import multimodal

    got = multimodal.image_resize_thumbs(str(tmp_path)).to_pandas()
    assert list(got["width"]) == [16] and list(got["height"]) == [16]
    want = 0
    for i in range(8):
        for j in range(8):
            want += (8 * i + j + 1) * ((3 * (2 * j) + 7 * (2 * i)) % 256)
    assert list(got["thumb_wsum"]) == [want]


def test_image_resize_real_decode_path(ray_session, tmp_path):
    # the stage must go through the real PNG codec: corrupting the
    # encoder's output is caught by the roundtrip dim check, so here
    # just verify a non-square doc id hits the integer src mapping
    _write_docs(tmp_path, [(3, "x")])
    from pdf_parser_ray.pipelines import multimodal
    import numpy as np

    got = multimodal.image_resize_thumbs(str(tmp_path)).to_pandas()
    d, w, h = 3, 16 + 3 % 16, 16 + 3 % 8
    xs, ys = np.meshgrid(np.arange(w), np.arange(h))
    img = (11 * d + 3 * xs + 7 * ys) % 256
    sy = (np.arange(8) * h) // 8
    sx = (np.arange(8) * w) // 8
    thumb = img[np.ix_(sy, sx)]
    want = int((thumb * np.arange(1, 65).reshape(8, 8)).sum())
    assert list(got["thumb_wsum"]) == [want]


# -- extract_outlinks / html_outlinks ----------------------------------------


def test_extract_outlinks_scanner_rules():
    from pdf_parser_ray.pdfcore.htmlextract import extract_outlinks

    h = (
        b"<html><body>"
        b'<!-- <a href="https://decoy/comment"> -->'
        b"<script>var a = '<a href=\"https://decoy/script\">';</script>"
        b'<nav><a href="https://x/1">one</a></nav>'
        b"<p><a href='https://x/2&amp;q'>two</a>"
        b"<a href=unq/3>three</a>"
        b"<a name=anchor>no href</a></p></body></html>"
    )
    assert extract_outlinks(h) == ["https://x/1", "https://x/2&q", "unq/3"]


def test_extract_outlinks_truncated_and_cdata():
    from pdf_parser_ray.pdfcore.htmlextract import extract_outlinks

    assert extract_outlinks(b'<![CDATA[<a href="no">]]><a href="y">') == ["y"]
    assert extract_outlinks(b'<a href="z"') == []  # truncated tag drops


def test_html_outlinks_pipeline(ray_session, tmp_path):
    from pdf_parser_ray.pipelines import multimodal

    _write_docs(tmp_path, [(0, "x"), (7, "y")])
    got = (
        multimodal.html_outlinks(str(tmp_path))
        .to_pandas()
        .sort_values(["doc_id", "link_idx"])
        .reset_index(drop=True)
    )
    assert list(got[got["doc_id"] == 0]["href"]) == [
        "https://site0.example/doc/0"
    ]
    d7 = got[got["doc_id"] == 7]
    assert len(d7) == 1 + 7 % 5
    assert list(d7["href"]) == [
        f"https://site{(7 + k) % 97}.example/doc/{(7 * 31 + k * 17) % 100000}"
        for k in range(3)
    ]


# -- charset detection -------------------------------------------------------


def test_detect_charset_ladder():
    from pdf_parser_ray.pdfcore.htmlextract import detect_charset

    assert detect_charset(b"plain ascii") == "ascii"
    assert detect_charset("café".encode("utf-8")) == "utf-8"
    assert detect_charset(b"\xef\xbb\xbfhi") == "utf-8-bom"
    assert detect_charset(b"\xff\xfeh\x00") == "utf-16"
    assert detect_charset(b"\xfe\xffh\x00") == "utf-16"
    assert detect_charset(b"caf\xe9") == "latin-1"
    assert detect_charset(b"") == "ascii"


def test_charset_detect_pipeline(ray_session, tmp_path):
    from pdf_parser_ray.pipelines import multimodal

    _write_docs(tmp_path, [(i, "abc") for i in range(5)])
    got = (
        multimodal.charset_detect(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["charset"]) == [
        "ascii", "utf-8", "utf-8-bom", "utf-16", "latin-1",
    ]
    assert list(got["payload_bytes"]) == [3, 5, 6, 8, 4]


# -- temperature_sample ------------------------------------------------------


def test_temperature_sample_rule_exact(ray_session):
    import math

    from pdf_parser_ray.functions.hashing import fnv1a64_of_int_strings

    got = training.temperature_sample(SF).to_pandas()
    docs = pq.read_table(
        SF + "/documents.parquet", columns=["doc_id", "lang"]
    ).to_pandas()
    n_by_lang = docs.groupby("lang")["doc_id"].count().to_dict()
    h = fnv1a64_of_int_strings(docs["doc_id"].to_numpy())
    denom = docs["lang"].map(
        {l: 1000 * math.isqrt(int(n)) for l, n in n_by_lang.items()}
    ).to_numpy(dtype=np.uint64)
    want = set(docs["doc_id"].to_numpy()[(h % denom) < 1000])
    assert set(got["doc_id"]) == want
    # the rebalancing direction: smallest lang keeps the largest share
    keep_rate = (
        got.groupby("lang")["doc_id"].count()
        / pd.Series(n_by_lang)
    ).dropna()
    if len(keep_rate) > 1:
        small = min(n_by_lang, key=n_by_lang.get)
        big = max(n_by_lang, key=n_by_lang.get)
        if small in keep_rate and big in keep_rate:
            assert keep_rate[small] >= keep_rate[big]


# -- embedding_quantize ------------------------------------------------------


def test_embedding_quantize_formula(ray_session, tmp_path):
    from pdf_parser_ray.pipelines import similarity

    emb = pa.table(
        {
            "vec_id": pa.array([1, 2], pa.int64()),
            "embedding": pa.array(
                [[0.5, -0.5, 1.5], [0.0039, -0.0039, 0.99]],
                pa.list_(pa.float32()),
            ),
        }
    )
    pq.write_table(emb, str(tmp_path / "embeddings.parquet"))
    got = (
        similarity.embedding_quantize(str(tmp_path))
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    # vec 1: floor(.5*128+.5)=64; floor(-63.5)=-64 (floor is toward
    # -inf, so half-up rounds toward +inf); 1.5*128=192 saturates
    assert list(got.loc[0, ["q_sum", "q_energy", "n_saturated"]]) == [
        64 - 64 + 127,
        64 * 64 + 64 * 64 + 127 * 127,
        1,
    ]
    # vec 2: exact float32 values survive the double roundtrip
    import numpy as np

    v = np.array([0.0039, -0.0039, 0.99], np.float32).astype(np.float64)
    q = np.clip(np.floor(v * 128 + 0.5), -127, 127).astype(int)
    assert list(got.loc[1, ["q_sum", "q_energy", "n_saturated"]]) == [
        q.sum(),
        (q * q).sum(),
        0,
    ]
