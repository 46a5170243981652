"""Self-test of the output checks: each check must catch a deliberately
corrupted output.

    python3 perfbench/selftest.py

Extracts a small mixed input (PDF, HTML, non-text and one deep-nesting
fault doc), shows that the clean output passes, then corrupts one row
at a time and shows that the corruption is reported. Exits non-zero if
any corruption goes unnoticed.
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa  # noqa: E402

from perfbench import checks, inputs  # noqa: E402
from pdf_parser_ray.stages.extract import Extractor  # noqa: E402

COLS = ("url", "ok", "error", "text", "spans", "n_pages")


def clean_output():
    docs = inputs.documents(random.Random(1), 30)
    table, expect = inputs.synth_pages(docs)
    kinds = [("pdf", "html", "other")[i % 3] for i in docs["doc_id"].to_pylist()]
    fault_url = f"https://fault.example/nest/{inputs.FAULT_ID_BASE + 1000}"
    fault = inputs.raw_rows([fault_url], [inputs.nested_pdf(1000, b"fault")])
    batch = pa.concat_tables([inputs.with_kind(table, "pdf"), inputs.with_kind(fault, "pdf")])
    batch = batch.set_column(3, "kind", pa.array(kinds + ["pdf"], pa.string()))
    expect[fault_url] = inputs.Expect(b"fault", 1, fault=True)
    out = Extractor()(batch)
    return {c: out[c].to_pylist() for c in COLS}, expect, fault_url


def judge(rows: dict, expect) -> checks.Outcome:
    return checks.check_rows(pa.table({c: rows[c] for c in COLS}), expect)


def main() -> int:
    rows, expect, fault_url = clean_output()
    kinds = {url: ("other" if e.text is None else "pdf" if e.n_pages else "html")
             for url, e in expect.items()}
    first = {k: next(i for i, u in enumerate(rows["url"]) if kinds[u] == k and u != fault_url)
             for k in ("pdf", "html", "other")}
    fault = rows["url"].index(fault_url)

    base = judge(rows, expect)
    ok = not base.problems and base.failed == [f"{fault_url}: {rows['error'][fault]}"]
    print(f"{'clean output passes, fault doc counted failed':55s} {'ok' if ok else 'NOT CAUGHT'}")

    def corrupt(name, edit, want="problem"):
        nonlocal ok
        bad = {c: list(v) for c, v in rows.items()}
        edit(bad)
        res = judge(bad, expect)
        caught = bool(res.problems) if want == "problem" else len(res.failed) > len(base.failed)
        ok &= caught
        print(f"{name:55s} {'caught' if caught else 'NOT CAUGHT'}")

    p, h, o = first["pdf"], first["html"], first["other"]

    def set_(col, i, value):
        return lambda r: r[col].__setitem__(i, value)

    corrupt("pdf text differs from the source", set_("text", p, rows["text"][p] + b"x"))
    corrupt("html text differs from the source", set_("text", h, rows["text"][h][1:]))
    corrupt("span ends past the text", set_("spans", h, [{**rows["spans"][h][0], "end": 10**6}]))
    corrupt("spans out of order", set_("spans", p, rows["spans"][p] * 2))
    corrupt("n_pages wrong", set_("n_pages", p, 2))
    corrupt("non-text row marked ok", set_("ok", o, True))
    corrupt("non-text row with a non-route error", set_("error", o, "internal: boom"))
    corrupt("non-text row with text", set_("text", o, b"junk"))
    corrupt("url missing", lambda r: [r[c].pop(p) for c in COLS])
    corrupt("url duplicated", lambda r: [r[c].append(r[c][h]) for c in COLS])
    corrupt("url not in the input", set_("url", h, "https://nowhere.example/p/1"))
    corrupt(
        "text doc as an internal error row",
        lambda r: (set_("ok", p, False)(r), set_("error", p, "internal: KeyError")(r)),
        want="failed",
    )
    corrupt(
        "text doc as a classified error row",
        lambda r: (set_("ok", h, False)(r), set_("error", h, "parser: bad")(r)),
        want="failed",
    )
    print("all checks catch their corruption" if ok else "SOME CORRUPTION WAS NOT CAUGHT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
