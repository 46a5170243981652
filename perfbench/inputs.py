"""Seeded benchmark inputs, and the text each document must extract to.

Every input is a pure function of ``--seed``: the seed draws the document
texts, the doc-id offset and the row order, and nothing is read from
outside the checkout. Texts are word salad of the same make-up as the
testdata ``documents.text`` column (ASCII words, 44-577 bytes, no
newline). Payloads come from the program's own generators
(``sources.synth.synth_batch`` and ``pdfcore.pdfbuild.build_text_pdf``);
the expected text is the source text itself, never a program output.

The doc-id offset is a multiple of ``PERIOD``, the period of synth's
variant cycle (3 payload arms x 480 PDF slots: show variant, filter,
xref kind, /Length form, images, Form XObjects). Every seed therefore
gets exactly the same mix of payload variants, only other texts and
another order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import pyarrow as pa

from pdf_parser_ray.pdfcore.pdfbuild import build_text_pdf
from pdf_parser_ray.sources.synth import synth_batch, url_for

PERIOD = 1440
WORDS = (
    "a the b batch part spark line column order small sort fast value scan "
    "hash slow group agg filter query big key window row table stream merge "
    "data vector customer join"
).split()
LANGS = ("en", "fr", "zh", "de", "es")

# pdf-large: one round is these 15 documents; the seed only changes the
# texts and the order, so every seed does the same amount of work
LARGE_SHOWS = ("tj", "tj_split", "hex", "cmap", "encdiff")
LARGE_FILTERS = ("none", "flate", "lzw")
LARGE_XREFS = ("classic", "stream", "objstm", "prev")
LARGE_LINES = tuple(200 + 800 * i // 14 for i in range(15))  # 200..1000
LARGE_PAGE_SIZE = 25

# core-pdf keeps one known fault: a page dictionary holding an array
# nested this deep ends as an ``internal: RecursionError`` row today
FAULT_DEPTHS = (1000, 2000, 5000)
FAULT_ID_BASE = 10**15


@dataclass(frozen=True)
class Expect:
    """What one input row must come out as."""

    text: bytes | None  # None: a non-text payload (route error row)
    n_pages: int | None = None  # PDFs only
    fault: bool = False  # a known-fault doc: failing here is counted


def _text(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(8, 96)))


def documents(rng: random.Random, n: int, arms=(0, 1, 2)) -> pa.Table:
    """``documents``-shaped rows for ``n`` consecutive doc ids, kept where
    ``doc_id % 3`` (synth's payload arm: 0 pdf, 1 html, 2 other) is in
    ``arms``."""
    offset = PERIOD * rng.randrange(1, 10**6)
    ids = [offset + i for i in range(n) if i % 3 in arms]
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": [_text(rng) for _ in ids],
            "lang": [rng.choice(LANGS) for _ in ids],
        }
    )


def synth_pages(docs: pa.Table, tiles: int = 1) -> tuple[pa.Table, dict[str, Expect]]:
    """synth pages rows for ``docs`` tiled ``tiles`` times (doc ids shifted
    by a whole number of variant periods per tile), and what each row's
    url must extract to: the source text for the PDF (one page) and HTML
    arms, a route error for the non-text arm."""
    shift = PERIOD * math.ceil(len(docs) / PERIOD)
    parts, expect = [], {}
    for k in range(tiles):
        tile = docs.set_column(0, "doc_id", pa.compute.add(docs["doc_id"], k * shift))
        parts.append(synth_batch(tile).select(["url", "warc_ts", "html", "lang"]))
        for doc_id, text in zip(tile["doc_id"].to_pylist(), tile["text"].to_pylist()):
            arm = doc_id % 3
            expect[url_for(doc_id)] = Expect(
                text.encode() if arm != 2 else None, 1 if arm == 0 else None
            )
    return pa.concat_tables(parts), expect


def shuffled(table: pa.Table, rng: random.Random) -> pa.Table:
    order = list(range(len(table)))
    rng.shuffle(order)
    return table.take(pa.array(order, pa.int64()))


def with_kind(table: pa.Table, kind: str) -> pa.Table:
    """The columns ``Extractor`` reads, for rows of one known kind (the
    Ray-free workloads bypass the router)."""
    return pa.table(
        {
            "url": table["url"],
            "warc_ts": table["warc_ts"],
            "lang": table["lang"],
            "kind": pa.array([kind] * len(table), pa.string()),
            "html": table["html"],
            "nbytes": pa.compute.binary_length(table["html"]).cast(pa.int64()),
            "partition_id": pa.array([0] * len(table), pa.int32()),
        }
    )


def warmup_batch() -> pa.Table:
    """48 fixed docs of all three payload arms, kinded, for set-up probes."""
    docs = documents(random.Random(0), 48)
    table = with_kind(synth_pages(docs)[0], "pdf")
    kinds = [("pdf", "html", "other")[i % 3] for i in docs["doc_id"].to_pylist()]
    return table.set_column(3, "kind", pa.array(kinds, pa.string()))


def nested_pdf(depth: int, text: bytes) -> bytes:
    """A one-page classic-xref PDF whose page dict holds ``/Nest`` with an
    array nested ``depth`` deep."""
    content = b"BT /F1 12 Tf 72 720 Td (" + text + b") Tj ET"
    bodies = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R"
        b" /Resources << /Font << /F1 5 0 R >> >> /Nest "
        + b"[" * depth
        + b"]" * depth
        + b" >>",
        b"<< /Length %d >>\nstream\n" % len(content) + content + b"\nendstream",
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    ]
    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for num, body in enumerate(bodies, 1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % num + body + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(bodies) + 1)
    out += b"".join(b"%010d 00000 n \n" % o for o in offsets)
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (
        len(bodies) + 1,
        xref_at,
    )
    return bytes(out)


def raw_rows(urls: list[str], payloads: list[bytes]) -> pa.Table:
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * len(urls), pa.int64()).cast(pa.timestamp("us")),
            "html": pa.array(payloads, pa.binary()),
            "lang": pa.array(["en"] * len(urls), pa.string()),
        }
    )


def core_pdf(seed: int):
    """The PDF rows of 2,880 corpus docs (two variant periods) plus the
    deep-nesting fault docs, in seeded order."""
    rng = random.Random(seed)
    table, expect = synth_pages(documents(rng, 2 * PERIOD, arms=(0,)))
    fault_urls, fault_payloads = [], []
    for depth in FAULT_DEPTHS:
        text = b"deep nesting fault %d" % depth
        url = f"https://fault.example/nest/{FAULT_ID_BASE + depth}"
        fault_urls.append(url)
        fault_payloads.append(nested_pdf(depth, text))
        expect[url] = Expect(text, 1, fault=True)
    table = pa.concat_tables([table, raw_rows(fault_urls, fault_payloads)])
    return with_kind(shuffled(table, rng), "pdf"), expect


def core_html(seed: int):
    """The HTML rows of 8,640 corpus docs (six variant periods)."""
    rng = random.Random(seed)
    table, expect = synth_pages(documents(rng, 6 * PERIOD, arms=(1,)))
    return with_kind(shuffled(table, rng), "html"), expect


def pdf_large(seed: int):
    """15 multi-page PDFs of 200 to 1,000 corpus texts each, one per
    (show variant, filter) pair, cycling the xref kinds."""
    rng = random.Random(seed)
    urls, payloads, expect = [], [], {}
    for i, n_lines in enumerate(LARGE_LINES):
        text = "\n".join(_text(rng) for _ in range(n_lines)).encode()
        url = f"https://large.example/doc/{i}"
        urls.append(url)
        payloads.append(
            build_text_pdf(
                text,
                page_size=LARGE_PAGE_SIZE,
                show_variant=LARGE_SHOWS[i % 5],
                stream_filter=LARGE_FILTERS[i % 3],
                xref_kind=LARGE_XREFS[i % 4],
            )
        )
        expect[url] = Expect(text, math.ceil(n_lines / LARGE_PAGE_SIZE))
    return with_kind(shuffled(raw_rows(urls, payloads), rng), "pdf"), expect


def pipeline_mixed(seed: int):
    """1,440 corpus docs (1/3 PDF, 1/3 HTML, 1/3 non-text) tiled 7 times
    with shifted doc ids, in seeded order: the pages table the pipeline
    reads."""
    rng = random.Random(seed)
    table, expect = synth_pages(documents(rng, PERIOD), 7)
    return shuffled(table, rng), expect
