"""Actor-pool extraction stage (SURVEY.md §2.4, §3.4).

``Extractor`` is a callable class for ``map_batches(Extractor,
concurrency=N, batch_size=B, batch_format="pyarrow")``: warm
cross-document caches live in ``__init__`` (once per actor) — here the
ToUnicode CMap cache, which the reference has no analogue for because
it never amortizes anything across documents (src/lib.rs:17-23 holds
per-document state only).

Per row: ``extract_row`` dispatches on ``kind`` (PDF byte core or
HTML strip) and returns one ``(ok, error, text, spans, n_pages,
n_objects)`` tuple; every reference panic/error becomes an ``ok=false``
row with its ``error`` string — one corrupt document can never kill
the job (SURVEY.md §1.2). The per-row Python loop is the right
granularity: each iteration is a whole document parse (vectorization
unit = document), while all column I/O stays Arrow: ``Extractor``
builds the six row columns once per batch with their ``OUTPUT_SCHEMA``
types and passes the input columns through unchanged.

Output schema (SURVEY.md §1.2): url, warc_ts, lang, kind, ok, error,
text:large_binary, spans:list<struct<start,end,kind,page>>, n_pages,
n_objects, nbytes, partition_id.
"""

from __future__ import annotations

import pyarrow as pa

from ..pdfcore.document import PdfDocument
from ..pdfcore.errors import PdfError
from ..pdfcore.htmlextract import extract_html_text
from ..pdfcore.textextract import extract_text

SPAN_TYPE = pa.struct(
    [
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("kind", pa.string()),
        ("page", pa.int32()),
    ]
)

OUTPUT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("kind", pa.string()),
        ("ok", pa.bool_()),
        ("error", pa.string()),
        ("text", pa.large_binary()),
        ("spans", pa.list_(SPAN_TYPE)),
        ("n_pages", pa.int32()),
        ("n_objects", pa.int32()),
        ("nbytes", pa.int64()),
        ("partition_id", pa.int32()),
    ]
)

# the columns extract_row fills, in its tuple order
ROW_COLUMNS = ("ok", "error", "text", "spans", "n_pages", "n_objects")

# payloads above this size are routed to the low-concurrency giant-row
# pool instead of the main pool (skew guard, SURVEY.md §4)
GIANT_ROW_BYTES = 64 * 1024 * 1024


def _failed(error: str) -> tuple:
    return False, error, b"", [], 0, 0


def extract_row(kind: str, payload: bytes, cmap_cache: dict) -> tuple:
    """One document -> ``(ok, error, text, spans, n_pages, n_objects)``.

    Never raises: a ``PdfError`` becomes its ``describe()`` string and
    any other exception an ``internal: <Type>: <message>`` string."""
    try:
        if kind == "pdf":
            doc = PdfDocument(payload)
            text, spans = extract_text(doc, cmap_cache)
            return True, None, text, spans, len(doc.pages), doc.n_objects
        if kind == "html":
            text, spans = extract_html_text(payload)
            return True, None, text, spans, 0, 0
        return _failed("route: unsupported payload")
    except PdfError as e:
        return _failed(e.describe())
    except Exception as e:  # engine bug: contained, flagged loudly
        return _failed(f"internal: {type(e).__name__}: {e}")


class Extractor:
    """Stateful extraction actor; see module docstring.

    ``giant_cap``: payloads above it become tagged error rows (the
    main pool's skew guard). The dedicated giant lane constructs the
    actor with ``giant_cap=None`` (no cap, tiny batches, low
    concurrency) — see extract_pipeline.run_extract_job.
    """

    def __init__(self, giant_cap: int | None = GIANT_ROW_BYTES):
        self.cmap_cache: dict = {}
        self.giant_cap = giant_cap

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for kind, payload in zip(batch["kind"].to_pylist(), batch["html"].to_pylist()):
            if payload is None:
                payload = b""
            if self.giant_cap is not None and len(payload) > self.giant_cap:
                # skew guard (SURVEY.md §4): a multi-GiB document must
                # not stall a worker in the main pool; the giant lane
                # (run_extract_job) reprocesses these rows with an
                # uncapped low-concurrency actor pair
                rows.append(_failed(
                    f"giant: payload of {len(payload)} bytes exceeds the "
                    f"{self.giant_cap}-byte main-pool cap"
                ))
            else:
                rows.append(extract_row(kind, payload, self.cmap_cache))
        # row columns are built here with their OUTPUT_SCHEMA types; the
        # pass-through columns keep their input arrays (zero-copy)
        built = dict(zip(ROW_COLUMNS, zip(*rows)))
        return pa.table({
            f.name: pa.array(built.get(f.name, ()), type=f.type)
            if f.name in ROW_COLUMNS else batch[f.name]
            for f in OUTPUT_SCHEMA
        })
