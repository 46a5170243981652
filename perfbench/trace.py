"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each layer's public entry point with a
wrapper that records a span: layer, span id, parent span id, doc id,
round, start, end, and up to two amounts (bytes, pages, rows). Each name
is patched where its caller looks it up: module functions in the calling
module (``pdfcore.document.decode_stream``, ``stages.extract.extract_text``,
``stages.extract.extract_html_text``, ``pipelines.extract_pipeline.make_router``)
and methods on their class (``PdfDocument.__init__``, ``Lexer.tokenize``,
``Parser.__init__``/``parse``, ``ObjStm.__init__``, ``Extractor.__call__``).
A few counts have no span of their own: ToUnicode CMap builds, CMap
cache lookups and hits, and bytes handed to the content-stream tokenizer.

Spans stay in memory (compact arrays) until the run ends; ``save``
writes them out and ``layer_metrics`` derives self times and per-layer
figures from the written file. A span's self time is its duration minus
the durations of its child spans.

In the Ray pipeline the layers run in actor processes: ``TracedExtractor``
installs a per-process tracer there, which ships its closed spans to a
``SpanSink`` actor after every batch; the driver collects them per pass.
"""

from __future__ import annotations

import time
from array import array
from collections import deque

import numpy as np

from pdf_parser_ray.stages.extract import Extractor

LAYERS = (
    "route",
    "extract",
    "document",
    "xrefx",
    "parser",
    "lexer",
    "filters",
    "textextract",
    "htmlextract",
)
_COLS = {
    "layer": "b",
    "sid": "q",
    "parent": "q",
    "doc": "q",
    "round": "l",
    "start": "d",
    "end": "d",
    "a": "q",
    "b": "q",
}
COUNTERS = ("cmap_builds", "cmap_lookups", "cmap_hits", "content_bytes")
SINK_NAME = "perfbench_span_sink"


def doc_id_of(url: str) -> int:
    return int(url.rsplit("/", 1)[1])


class _CountingCache(dict):
    """The Extractor's CMap cache, counting lookups and hits."""

    def __init__(self, counters: dict):
        super().__init__()
        self.counters = counters

    def get(self, key, default=None):
        value = super().get(key, default)
        self.counters["cmap_lookups"] += 1
        self.counters["cmap_hits"] += value is not None
        return value


class Tracer:
    def __init__(self):
        self.cols = {name: array(code) for name, code in _COLS.items()}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.next_sid = 0
        self.stack: list[int] = []
        self.doc = -1
        self.round = 0
        self.pending: deque[int] = deque()  # doc ids of the batch's text rows
        self.sink = None  # SpanSink handle inside Ray workers
        self._flushed = 0
        self._undo: list[tuple] = []

    # -- recording --

    def span(self, layer: str, fn, measure=None, before=None):
        """``fn`` wrapped to record one span per call. ``measure(args,
        result)`` gives the span's two amounts after a successful call;
        ``before(args)`` runs ahead of the span (outside its time)."""
        code = LAYERS.index(layer)
        stack = self.stack
        c = self.cols
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self.next_sid
            self.next_sid = sid + 1
            parent = stack[-1] if stack else -1
            doc = self.doc
            stack.append(sid)
            done = False
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf()
                stack.pop()
                a, b = measure(args, result) if done and measure is not None else (0, 0)
                c["layer"].append(code)
                c["sid"].append(sid)
                c["parent"].append(parent)
                c["doc"].append(doc)
                c["round"].append(self.round)
                c["start"].append(t0)
                c["end"].append(t1)
                c["a"].append(a)
                c["b"].append(b)
                if not stack and self.sink is not None:
                    self.flush()

        return traced

    def _next_doc(self, args) -> None:
        self.doc = self.pending.popleft() if self.pending else -1

    def _expect_docs(self, args) -> None:
        """Before ``Extractor.__call__``: the doc ids of the batch's PDF
        and HTML rows, in the order the extractor opens them."""
        batch = args[1]
        self.pending = deque(
            doc_id_of(url)
            for url, kind in zip(batch["url"].to_pylist(), batch["kind"].to_pylist())
            if kind in ("pdf", "html")
        )

    # -- patching --

    def _patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> "Tracer":
        from pdf_parser_ray.pdfcore import document, lexer, parser, textextract, xrefx
        from pdf_parser_ray.stages import extract

        p = self._patch
        counters = self.counters
        p(document.PdfDocument, "__init__",
          self.span("document", document.PdfDocument.__init__, before=self._next_doc))
        p(lexer.Lexer, "tokenize",
          self.span("lexer", lexer.Lexer.tokenize, lambda args, r: (args[0].i, 0)))
        p(parser.Parser, "__init__",
          self.span("parser", parser.Parser.__init__, lambda args, r: (1, 0)))
        p(parser.Parser, "parse", self.span("parser", parser.Parser.parse))
        p(xrefx.ObjStm, "__init__",
          self.span("xrefx", xrefx.ObjStm.__init__, lambda args, r: (hash(args[1]), 0)))
        p(document, "decode_stream",
          self.span("filters", document.decode_stream, lambda args, r: (len(args[0]), len(r))))
        p(extract, "extract_text",
          self.span("textextract", extract.extract_text, lambda args, r: (len(args[0].pages), 0)))
        p(extract, "extract_html_text",
          self.span("htmlextract", extract.extract_html_text,
                    lambda args, r: (len(args[0]), 0), before=self._next_doc))
        p(extract.Extractor, "__call__",
          self.span("extract", extract.Extractor.__call__,
                    lambda args, r: (len(args[1]), 0), before=self._expect_docs))

        cmap_init = textextract.ToUnicodeCMap.__init__
        content_init = textextract.ContentLexer.__init__
        extractor_init = extract.Extractor.__init__

        def counted_cmap_init(cmap, data):
            counters["cmap_builds"] += 1
            cmap_init(cmap, data)

        def counted_content_init(content_lexer, buf):
            counters["content_bytes"] += len(buf)
            content_init(content_lexer, buf)

        def counting_extractor_init(ext, *args, **kwargs):
            extractor_init(ext, *args, **kwargs)
            ext.cmap_cache = _CountingCache(counters)

        p(textextract.ToUnicodeCMap, "__init__", counted_cmap_init)
        p(textextract.ContentLexer, "__init__", counted_content_init)
        p(extract.Extractor, "__init__", counting_extractor_init)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    # -- output --

    def take_chunk(self) -> dict:
        """Spans closed since the last take (numpy columns) and counters."""
        start = self._flushed
        chunk = {name: np.frombuffer(col, dtype=col.typecode)[start:].copy()
                 for name, col in self.cols.items()}
        chunk["counters"] = dict(self.counters)
        self._flushed = len(self.cols["sid"])
        for name in COUNTERS:
            self.counters[name] = 0
        return chunk

    def flush(self) -> None:
        import ray

        ray.get(self.sink.add.remote(self.take_chunk()))

    def add_chunks(self, chunks: list[dict], round_: int) -> None:
        """Merge spans recorded in other processes, renumbering span ids
        (each chunk's ids are contiguous and its parents lie inside it)."""
        for chunk in chunks:
            n = len(chunk["sid"])
            if n:
                base = self.next_sid - int(chunk["sid"].min())
                chunk["sid"] = chunk["sid"] + base
                chunk["parent"] = np.where(chunk["parent"] >= 0, chunk["parent"] + base, -1)
                chunk["round"] = np.full(n, round_)
                self.next_sid += n
                for name, col in self.cols.items():
                    col.frombytes(chunk[name].astype(col.typecode).tobytes())
            for name in COUNTERS:
                self.counters[name] += chunk["counters"][name]

    def save(self, path: str) -> None:
        np.savez(
            path,
            counter_names=np.array(COUNTERS),
            counter_values=np.array([self.counters[k] for k in COUNTERS], dtype=np.int64),
            **{name: np.frombuffer(col, dtype=col.typecode) for name, col in self.cols.items()},
        )


def layer_metrics(path: str, rounds: int, wall_s: float) -> dict[str, float]:
    """Per-layer figures per round from a saved span file. ``wall_s`` is
    the traced wall time the spans' self times should add up to."""
    z = np.load(path)
    order = np.argsort(z["sid"])
    sid, parent, layer = z["sid"][order], z["parent"][order], z["layer"][order]
    doc, rnd, a, b = z["doc"][order], z["round"][order], z["a"][order], z["b"][order]
    if len(sid) and not np.array_equal(sid, np.arange(len(sid))):
        raise ValueError("span ids are not contiguous")
    dur = z["end"][order] - z["start"][order]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(sid))
    self_s = dur - child
    counters = dict(zip(z["counter_names"].tolist(), z["counter_values"].tolist()))

    def of(name):
        return layer == LAYERS.index(name)

    def self_time(name):
        return float(self_s[of(name)].sum()) / rounds

    def total(values, name):
        return float(values[of(name)].sum()) / rounds

    def count(name):
        return float(of(name).sum()) / rounds

    objstm = of("xrefx")
    distinct = len({(int(r), int(d), int(k)) for r, d, k in zip(rnd[objstm], doc[objstm], a[objstm])})
    lookups = counters["cmap_lookups"]
    return {
        "route.s": self_time("route"),
        "route.rows": total(a, "route"),
        "document.open_s": self_time("document"),
        "document.opens": count("document"),
        "xrefx.objstm_builds": count("xrefx"),
        "xrefx.objstm_build_ratio": int(objstm.sum()) / distinct if distinct else 1.0,
        "lexer.s": self_time("lexer"),
        "lexer.calls": count("lexer"),
        "lexer.bytes": total(a, "lexer"),
        "parser.s": self_time("parser"),
        "parser.calls": total(a, "parser"),
        "filters.s": self_time("filters"),
        "filters.in_bytes": total(a, "filters"),
        "filters.out_bytes": total(b, "filters"),
        "textextract.s": self_time("textextract"),
        "textextract.pages": total(a, "textextract"),
        "textextract.content_bytes": counters["content_bytes"] / rounds,
        "textextract.cmap_builds": counters["cmap_builds"] / rounds,
        "textextract.cmap_hit_ratio": counters["cmap_hits"] / lookups if lookups else 0.0,
        "htmlextract.s": self_time("htmlextract"),
        "htmlextract.bytes": total(a, "htmlextract"),
        "extract.call_s": total(dur, "extract"),
        "extract.assembly_s": self_time("extract"),
        "extract.batches": count("extract"),
        "trace.self_share": float(self_s.sum()) / wall_s,
    }


# -- Ray pipeline side --

_PROCESS_TRACER: Tracer | None = None


def process_tracer() -> Tracer:
    """This worker process's tracer, installed on first use."""
    global _PROCESS_TRACER
    if _PROCESS_TRACER is None:
        import ray

        _PROCESS_TRACER = Tracer().install()
        _PROCESS_TRACER.sink = ray.get_actor(SINK_NAME)
    return _PROCESS_TRACER


def traced_make_router(make_router):
    """``make_router`` whose route function records a ``route`` span."""

    def traced(num_partitions):
        route_batch = make_router(num_partitions)

        def route_batch_traced(batch):
            span = process_tracer().span("route", route_batch, lambda args, r: (len(args[0]), 0))
            return span(batch)

        return route_batch_traced

    return traced


class TracedExtractor(Extractor):
    """``Extractor`` that installs the worker's tracer before it is
    constructed, so its ``__init__`` and ``__call__`` are traced."""

    def __init__(self, *args, **kwargs):
        process_tracer()
        Extractor.__init__(self, *args, **kwargs)  # looked up after patching


class SpanSink:
    """Ray actor holding span chunks shipped from the workers."""

    def __init__(self):
        self.chunks: list[dict] = []

    def add(self, chunk: dict) -> None:
        self.chunks.append(chunk)

    def take(self) -> list[dict]:
        chunks, self.chunks = self.chunks, []
        return chunks
