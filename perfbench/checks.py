"""Output checks, computed from the inputs and not from the program.

Each input document is one operation. A text document (PDF or HTML)
passes when its row has ``ok`` true, its text equals the UTF-8 source
text, its spans lie inside the text and in order, and (PDFs) its
``n_pages`` is the page count the source lines give. A non-text row
passes when ``ok`` is false, its text is empty and its error starts with
``route:``. Every expected url must appear exactly once.

A text document whose row is an error row *failed*: it is counted, not
judged. A known-fault document also passes on a classified error row
(any error but ``internal:``). Anything else that is wrong (wrong text,
bad spans, a lost or duplicated url, an unrouted non-text row) is a
*problem*, and a run with a problem is not correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa

from perfbench.inputs import Expect


@dataclass
class Outcome:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)  # "url: error"
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def spans_problem(text: bytes, spans: list[dict]) -> str | None:
    prev_end = 0
    for s in spans:
        if not 0 <= s["start"] <= s["end"] <= len(text):
            return f"span {s['start']}..{s['end']} outside text of {len(text)} bytes"
        if s["start"] < prev_end:
            return f"span {s['start']}..{s['end']} starts before the previous end {prev_end}"
        prev_end = s["end"]
    return None


def check_rows(rows: pa.Table, expect: dict[str, Expect]) -> Outcome:
    """Judge extractor output ``rows`` against ``expect`` (url -> Expect)."""
    out = Outcome(attempted=len(expect))
    cols = {
        c: rows[c].to_pylist() for c in ("url", "ok", "error", "text", "spans", "n_pages")
    }
    seen: set[str] = set()
    for url, ok, error, text, spans, n_pages in zip(*cols.values()):
        exp = expect.get(url)
        if exp is None:
            out.problems.append(f"{url}: not an input url")
            continue
        if url in seen:
            out.problems.append(f"{url}: appears more than once")
            continue
        seen.add(url)
        if exp.text is None:
            if ok or text or not (error or "").startswith("route:"):
                out.problems.append(f"{url}: non-text row not a route error: ok={ok} error={error!r}")
            continue
        if not ok:
            if exp.fault and not error.startswith("internal:"):
                continue  # a classified error is a correct outcome here
            out.failed.append(f"{url}: {error}")
            continue
        if text != exp.text:
            out.problems.append(f"{url}: text differs from the source text")
            continue
        bad = spans_problem(text, spans)
        if bad:
            out.problems.append(f"{url}: {bad}")
        if exp.n_pages is not None and n_pages != exp.n_pages:
            out.problems.append(f"{url}: n_pages {n_pages} != {exp.n_pages}")
    for url in expect.keys() - seen:
        out.problems.append(f"{url}: missing from the output")
    return out
