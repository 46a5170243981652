"""HTML boilerplate-strip tests (FIXTURES.md §3)."""

from pdf_parser_ray.pdfcore.htmlextract import extract_html_text


def text_of(html: bytes) -> bytes:
    return extract_html_text(html)[0]


def test_article_strips_boilerplate():
    html = (
        b"<!doctype html><html><head><title>T</title>"
        b"<style>body{color:red}</style><script>var x=1;</script></head>"
        b"<body><nav><ul><li>Home</li><li>About</li></ul></nav>"
        b"<article><p>First paragraph.</p><p>Second one.</p></article>"
        b"<footer>(c) 2024 Corp</footer></body></html>"
    )
    assert text_of(html) == b"First paragraph.\nSecond one."


def test_minimal():
    assert text_of(b"<html><body><p>hi</p></body></html>") == b"hi"


def test_entities():
    html = b"<p>a &amp; b &lt;c&gt; &#101;&#x66;</p>"
    assert text_of(html) == b"a & b <c> ef"


def test_empty_paragraph_preserves_blank_line():
    html = b"<p>a</p><p></p><p>b</p>"
    assert text_of(html) == b"a\n\nb"


def test_malformed_unclosed():
    html = b"<p>open<p>next</p>"
    assert text_of(html) == b"open\nnext"


def test_empty_doc():
    assert text_of(b"") == b""
    assert text_of(b"<html><head></head><body></body></html>") == b""


def test_inline_tags_preserved():
    html = b"<p>a <b>bold</b> and <a href='#'>link</a> end</p>"
    assert text_of(html) == b"a bold and link end"


def test_br_splits():
    assert text_of(b"<p>a<br>b</p>") == b"a\nb"


def test_script_content_never_leaks():
    html = b"<script>document.write('<p>evil</p>')</script><p>good</p>"
    assert text_of(html) == b"good"


def test_comment_and_cdata_skipped():
    html = b"<p>a</p><!-- <p>nope</p> --><![CDATA[zzz]]><p>b</p>"
    assert text_of(html) == b"a\nb"


def test_stray_lt_is_text():
    assert text_of(b"<p>a < b</p>") == b"a < b"


def test_spans_tile_output():
    html = b"<p>aa</p><p>bbb</p>"
    text, spans = extract_html_text(html)
    assert text == b"aa\nbbb"
    assert spans == [
        {"start": 0, "end": 2, "kind": "block", "page": 0},
        {"start": 3, "end": 6, "kind": "block", "page": 0},
    ]


def test_nested_containers_no_spurious_lines():
    html = b"<div><article><p>x</p></article></div>"
    assert text_of(html) == b"x"


def test_utf8():
    html = "<p>héllo wörld</p>".encode("utf-8")
    assert text_of(html) == "héllo wörld".encode("utf-8")


# -- density-based main-content selection --

from pdf_parser_ray.pdfcore.htmlextract import extract_main_content


def test_density_agrees_with_rules_on_articles():
    html = (
        b"<html><head><title>T</title></head><body><nav><ul><li>Home</li></ul></nav>"
        b"<article><p>Real paragraph one with plenty of words.</p>"
        b"<p>Second real paragraph.</p></article>"
        b"<footer>(c)</footer></body></html>"
    )
    assert extract_main_content(html) == (
        b"Real paragraph one with plenty of words.\nSecond real paragraph."
    )


def test_density_strips_link_stuffed_div():
    """Rule-based stripping can't drop a plain-div link sidebar; the
    density scorer can."""
    page = (
        b"<html><body>"
        b"<div><a href='/a'>Link one</a> <a href='/b'>Link two</a>"
        b" <a href='/c'>Link three</a></div>"
        b"<div><p>The real article text body with substance and many "
        b"words of content.</p><p>Second paragraph of the piece.</p></div>"
        b"</body></html>"
    )
    got = extract_main_content(page)
    assert b"Link one" not in got
    assert got.startswith(b"The real article")


def test_density_fallback_no_containers():
    assert extract_main_content(b"<p>solo</p>") == b"solo"
    assert extract_main_content(b"") == b""


def test_density_never_crashes_on_fuzz():
    import random

    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(0, 200)
        extract_main_content(bytes(rng.randrange(256) for _ in range(n)))


def test_real_world_sphinx_docs():
    """Real document smoke: Python's bundled IDLE help page (sphinx
    HTML with a nav sidebar in plain divs). The density selector must
    find the article body; the rule-based strip keeps nav (it isn't in
    suppressible tags here) — exactly the division of labor."""
    import os

    path = "/root/.pyenv/versions/3.13.0/lib/python3.13/idlelib/help.html"
    if not os.path.exists(path):
        import pytest

        pytest.skip("bundled sphinx page not present")
    buf = open(path, "rb").read()
    text, spans = extract_html_text(buf)
    assert len(text) > 10_000 and len(spans) > 100
    main = extract_main_content(buf)
    assert main.startswith("IDLE".encode())
    assert b"Integrated Development" in main
    # the sidebar's "Navigation" header is gone from the main content
    assert not main.startswith(b"Navigation")


# -- naive oracles: the three hand-written tag loops the scanner replaced --

import html as _htmlmod
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_parser_ray.pdfcore import htmlextract as hx
from pdf_parser_ray.pdfcore.htmlextract import _decode_bytes, extract_outlinks

_SUPPRESS = {n.decode() for n in hx._SUPPRESS}
_LINE_BLOCKS = {n.decode() for n in hx._LINE_BLOCKS}
_CONTAINER_BLOCKS = {n.decode() for n in hx._CONTAINER_BLOCKS}
_CANDIDATE_CONTAINERS = {n.decode() for n in hx._CANDIDATE_CONTAINERS}
_RAWTEXT = {"script", "style", "textarea", "title"}
_TAG_NAME_RE = re.compile(rb"[a-zA-Z][a-zA-Z0-9-]*")


def extract_html_text_naive(buf: bytes) -> tuple[bytes, list[dict]]:
    """Oracle: ``extract_html_text`` as its own hand-written tag loop,
    before the shared scanner."""
    lines: list[str] = []
    cur: list[str] = []
    suppress_depth = 0

    def flush(force: bool) -> None:
        text = "".join(cur)
        cur.clear()
        if text or force:
            lines.append(text)

    i = 0
    n = len(buf)
    while i < n:
        lt = buf.find(b"<", i)
        if lt == -1:
            if suppress_depth == 0:
                chunk = buf[i:n]
                if chunk.strip():
                    cur.append(_htmlmod.unescape(_decode_bytes(chunk)))
            break
        if lt > i and suppress_depth == 0:
            chunk = buf[i:lt]
            if chunk.strip():
                cur.append(_htmlmod.unescape(_decode_bytes(chunk)))
        i = lt
        nxt = buf[lt + 1 : lt + 2]
        if not (nxt.isalpha() or nxt in (b"/", b"!", b"?")):
            # "a < b": a "<" not opening a tag is literal text
            if suppress_depth == 0:
                cur.append("<")
            i = lt + 1
            continue
        # comment / doctype / cdata
        if buf.startswith(b"<!--", i):
            end = buf.find(b"-->", i + 4)
            i = n if end == -1 else end + 3
            continue
        if buf.startswith(b"<![CDATA[", i):
            end = buf.find(b"]]>", i + 9)
            i = n if end == -1 else end + 3
            continue
        if buf.startswith(b"<!", i) or buf.startswith(b"<?", i):
            end = buf.find(b">", i + 2)
            i = n if end == -1 else end + 1
            continue
        gt = buf.find(b">", i + 1)
        if gt == -1:
            break  # truncated tag: drop the tail
        tag_body = buf[i + 1 : gt]
        i = gt + 1
        closing = tag_body.startswith(b"/")
        if closing:
            tag_body = tag_body[1:]
        m = _TAG_NAME_RE.match(tag_body)
        if m is None:
            # stray "<" followed by non-tag (e.g. "a < b"): treat as text
            if suppress_depth == 0:
                cur.append(_htmlmod.unescape(_decode_bytes(buf[lt : gt + 1])))
            continue
        name = m.group(0).decode("ascii").lower()
        self_closing = tag_body.rstrip().endswith(b"/")

        if not closing and name in _RAWTEXT:
            close = re.compile(
                rb"</" + name.encode() + rb"\s*>", re.IGNORECASE
            ).search(buf, i)
            # rawtext content is dropped unless the element is contentful
            # (textarea/title are suppressed anyway)
            i = n if close is None else close.end()
            continue

        if name in _SUPPRESS:
            if closing:
                suppress_depth = max(0, suppress_depth - 1)
            elif not self_closing:
                suppress_depth += 1
            continue
        if suppress_depth > 0:
            continue
        if name == "br":
            flush(force=True) if cur else lines.append("")
            continue
        if name in _LINE_BLOCKS:
            if closing:
                flush(force=True)  # empty line block -> empty line
            else:
                flush(force=False)
            continue
        if name in _CONTAINER_BLOCKS:
            flush(force=False)
            continue
        # inline tag (a, span, b, i, em, strong, ...): no line effect

    flush(force=False)

    text = "\n".join(lines)
    data = text.encode("utf-8")
    spans: list[dict] = []
    pos = 0
    for line in lines:
        blen = len(line.encode("utf-8"))
        spans.append({"start": pos, "end": pos + blen, "kind": "block", "page": 0})
        pos += blen + 1
    return data, spans


def extract_main_content_naive(buf: bytes) -> bytes:
    """Oracle: ``extract_main_content`` as its own hand-written tag loop,
    before the shared scanner."""
    lines: list[tuple[str, tuple[int, ...], int]] = []  # (text, path, link_chars)
    cur: list[str] = []
    cur_link = 0
    suppress_depth = 0
    link_depth = 0
    stack: list[tuple[str, int]] = []  # (tag, node id)
    node_tags: dict[int, str] = {}
    next_id = 1

    def path() -> tuple[int, ...]:
        return tuple(nid for _, nid in stack)

    def flush(force: bool) -> None:
        nonlocal cur_link
        text = "".join(cur)
        cur.clear()
        link = cur_link
        cur_link = 0
        if text or force:
            lines.append((text, path(), link))

    def add_text(chunk: bytes) -> None:
        nonlocal cur_link
        s = _htmlmod.unescape(_decode_bytes(chunk))
        cur.append(s)
        if link_depth > 0:
            cur_link += len(s)

    i = 0
    n = len(buf)
    while i < n:
        lt = buf.find(b"<", i)
        if lt == -1:
            if suppress_depth == 0 and buf[i:n].strip():
                add_text(buf[i:n])
            break
        if lt > i and suppress_depth == 0 and buf[i:lt].strip():
            add_text(buf[i:lt])
        i = lt
        nxt = buf[lt + 1 : lt + 2]
        if not (nxt.isalpha() or nxt in (b"/", b"!", b"?")):
            if suppress_depth == 0:
                cur.append("<")
            i = lt + 1
            continue
        if buf.startswith(b"<!--", i):
            end = buf.find(b"-->", i + 4)
            i = n if end == -1 else end + 3
            continue
        if buf.startswith(b"<![CDATA[", i):
            end = buf.find(b"]]>", i + 9)
            i = n if end == -1 else end + 3
            continue
        if buf.startswith(b"<!", i) or buf.startswith(b"<?", i):
            end = buf.find(b">", i + 2)
            i = n if end == -1 else end + 1
            continue
        gt = buf.find(b">", i + 1)
        if gt == -1:
            break
        tag_body = buf[i + 1 : gt]
        i = gt + 1
        closing = tag_body.startswith(b"/")
        if closing:
            tag_body = tag_body[1:]
        m = _TAG_NAME_RE.match(tag_body)
        if m is None:
            if suppress_depth == 0:
                cur.append(_htmlmod.unescape(_decode_bytes(buf[lt : gt + 1])))
            continue
        name = m.group(0).decode("ascii").lower()
        self_closing = tag_body.rstrip().endswith(b"/")

        if not closing and name in _RAWTEXT:
            close = re.compile(
                rb"</" + name.encode() + rb"\s*>", re.IGNORECASE
            ).search(buf, i)
            i = n if close is None else close.end()
            continue
        if name in _SUPPRESS:
            if closing:
                suppress_depth = max(0, suppress_depth - 1)
            elif not self_closing:
                suppress_depth += 1
            continue
        if suppress_depth > 0:
            continue
        if name == "a":
            link_depth = max(0, link_depth - 1) if closing else link_depth + 1
            continue
        if name == "br":
            flush(force=bool(cur))
            continue
        if name in _LINE_BLOCKS:
            flush(force=closing)
            continue
        if name in _CANDIDATE_CONTAINERS or name in _CONTAINER_BLOCKS:
            flush(force=False)
            if closing:
                while stack and stack[-1][0] != name:
                    stack.pop()
                if stack:
                    stack.pop()
            elif not self_closing:
                stack.append((name, next_id))
                node_tags[next_id] = name
                next_id += 1
            continue
        # inline tags: no structural effect

    flush(force=False)

    # score every candidate container over the lines it contains
    best_id, best_score = 0, -1.0
    totals: dict[int, tuple[int, int]] = {}
    for text, pth, link in lines:
        for nid in pth:
            t, l = totals.get(nid, (0, 0))
            totals[nid] = (t + len(text), l + link)
    for nid, (t, l) in totals.items():
        if node_tags.get(nid) not in _CANDIDATE_CONTAINERS or t == 0:
            continue
        # squared link-density penalty: a link-stuffed sidebar drags an
        # enclosing container's score below the clean article container
        score = t * (1.0 - (l / t)) ** 2
        if score > best_score:
            best_id, best_score = nid, score
    if best_score < 0:  # no candidate container: fall back to everything
        selected = [text for text, _, _ in lines]
    else:
        selected = [text for text, pth, _ in lines if best_id in pth]
    return "\n".join(selected).encode("utf-8")


_HREF_RE = re.compile(
    rb"(?:^|\s)href\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]+))",
    re.IGNORECASE,
)


def extract_outlinks_naive(buf: bytes) -> list[str]:
    """Oracle: ``extract_outlinks`` as its own hand-written tag loop,
    before the shared scanner; it regex-searches the whole tag body for
    ``href``."""
    out: list[str] = []
    i = 0
    n = len(buf)
    while i < n:
        lt = buf.find(b"<", i)
        if lt == -1:
            break
        nxt = buf[lt + 1 : lt + 2]
        if not (nxt.isalpha() or nxt in (b"/", b"!", b"?")):
            i = lt + 1
            continue
        if buf.startswith(b"<!--", lt):
            end = buf.find(b"-->", lt + 4)
            i = n if end == -1 else end + 3
            continue
        if buf.startswith(b"<![CDATA[", lt):
            end = buf.find(b"]]>", lt + 9)
            i = n if end == -1 else end + 3
            continue
        if buf.startswith(b"<!", lt) or buf.startswith(b"<?", lt):
            end = buf.find(b">", lt + 2)
            i = n if end == -1 else end + 1
            continue
        gt = buf.find(b">", lt + 1)
        if gt == -1:
            break
        tag_body = buf[lt + 1 : gt]
        i = gt + 1
        closing = tag_body.startswith(b"/")
        if closing:
            tag_body = tag_body[1:]
        m = _TAG_NAME_RE.match(tag_body)
        if m is None:
            continue
        name = m.group(0).decode("ascii").lower()
        if not closing and name in _RAWTEXT:
            close = re.compile(
                rb"</" + name.encode() + rb"\s*>", re.IGNORECASE
            ).search(buf, i)
            i = n if close is None else close.end()
            continue
        if closing or name != "a":
            continue
        hm = _HREF_RE.search(tag_body[m.end() :])
        if hm is None:
            continue
        raw = next(g for g in hm.groups() if g is not None)
        out.append(_htmlmod.unescape(_decode_bytes(raw)))
    return out




# -- the scanner against the naive oracles --

# markup pieces: tags of every consumer class, self-closing svg, raw-text
# closers in odd case, unterminated comment / CDATA / "<!" / "<?", stray
# "<", "</ 3>" and truncated tags
MARKUP = [
    b"<p>", b"</p>", b"<P class=x>", b"<div>", b"</div>", b"<br>", b"<br/>",
    b"</br>", b"<article>", b"</article>", b"<section id=s>", b"</section>",
    b"<td>", b"</td>", b"<li>", b"<h2>", b"</h2>", b"<span>", b"</span>",
    b"<x-y>", b"<main>", b"</main>", b"<body>", b"<ul>", b"<hr/>",
    b"<nav>", b"</nav>", b"<footer>", b"</footer>", b"<svg/>", b"<svg />",
    b"<svg>", b"</svg>", b"</svg/>", b"<a>", b"</a>", b"<A>",
    b"<script>", b"</script>", b"</SCRIPT >", b"<style>", b"</style\n>",
    b"<title>", b"</title>", b"<textarea>", b"</textarea>", b"<script/>",
    b"<!--", b"-->", b"<!-- c -->", b"<![CDATA[", b"]]>", b"<!doctype html>",
    b"<!", b"<?", b"<?xml v?>", b">", b"<", b"</ 3>", b"</>", b"</", b"<p",
    b"<div class=", b"a < b",
]
TEXT = [
    b"a", b"word ", b" ", b"\n", b"\t", b"&amp;", b"&lt;p&gt;", b"&#101;",
    b"&am", b"&", b"caf\xc3\xa9", b"\xe9", b"\xff\xfe", b"\xc3", b"x/y",
    b"\r", b"\x0b\x0c", b"\x1c",
]
docs = st.lists(st.sampled_from(MARKUP + TEXT), max_size=40).map(b"".join)

# anchors in every href form; no "href=" inside a quoted attribute value,
# where the scanner reads attributes and the oracle searches the body
ANCHORS = [
    b'<a href="https://x/1">', b"<a href='q&amp;r'>", b"<a href=u/3>",
    b"<A HREF=U>", b'<a title="t" href=y>', b"<a hreflang=en href=z>",
    b"<a data-href=d href=e>", b"<a href>", b"<a href = 'sp'>",
    b"<a name=n>", b'<a href="open', b"<a href=x/>", b'<a class="c d" href=e>',
    b'<a href=""', b"<a href=>", b"<a\nhref=nl>", b"<a href=\"q\"z>",
    b"<a href==x>", b"<a/href=s>", b"<a href=a href=b>", b"</a href=c>",
]
link_docs = st.lists(st.sampled_from(ANCHORS + MARKUP + TEXT), max_size=40).map(
    b"".join
)


@settings(max_examples=3000, deadline=None)
@given(docs)
def test_text_matches_naive(doc):
    assert extract_html_text(doc) == extract_html_text_naive(doc)


@settings(max_examples=3000, deadline=None)
@given(docs)
def test_main_content_matches_naive(doc):
    assert extract_main_content(doc) == extract_main_content_naive(doc)


@settings(max_examples=3000, deadline=None)
@given(link_docs)
def test_outlinks_match_naive(doc):
    assert extract_outlinks(doc) == extract_outlinks_naive(doc)


@pytest.mark.parametrize(
    "doc",
    [
        b"<!--<p></p>",  # unterminated comment drops the rest
        b"<p>a</p><![CDATA[<p>b</p>",
        b"<p>a</p><!<p>b</p>",
        b"<p>a</p><?<p>b</p>",
        b"<p>a<script>x</SCRIPT >b</p>",
        b"<svg/><p>kept</p><svg /><p>kept</p>",
        b"<p>a</ 3>b<c</p>",
        b"<p>a</p><p",
        b"<div><a>x < y</a></div><div>longer plain text</div>",
        # suppression, which the scanner owns for the two text consumers
        b"<nav><aside>a</aside>b</nav>c<p>d</p>",  # nested
        b"<nav><nav>a</nav>b</nav>c",
        b"<nav/>a<p>b</p><nav />c",  # self-closing: no depth change
        b"</nav>a<p>b</p></aside></footer>c",  # closes at depth 0
        b"<footer><script>x</footer>y</script>z</footer>w",  # raw text inside
        b"<nav><!-- </nav> -->a</nav>b",  # comment inside
        b"<nav>a<li class=x b</nav>c",  # ">"-less tag inside
        b"<navx>a</navx><nav-x>b</nav-x><NAV>c</Nav >d",
        b"<nav><textarea></nav></textarea>a</nav>b",
        b"<nav><li>a</textarea>b</li></script>c<p>d",
        b"<nav>a < b</ 3>c<p>d</p></nav>e",
    ],
)
def test_edge_cases_match_naive(doc):
    assert extract_html_text(doc) == extract_html_text_naive(doc)
    assert extract_main_content(doc) == extract_main_content_naive(doc)
    assert extract_outlinks(doc) == extract_outlinks_naive(doc)


def test_unterminated_comment_drops_everything():
    assert extract_html_text(b"<!--<p></p>") == (b"", [])
    assert extract_main_content(b"<!--<p></p>") == b""


def test_href_inside_a_quoted_value_is_not_an_href():
    doc = b"<a title=\"a href=decoy\" href=real>x</a><a alt='see href=no'>y</a>"
    assert extract_outlinks(doc) == ["real"]
    # the old search of the whole tag body took the decoys
    assert extract_outlinks_naive(doc) == ['decoy"', "no'"]


# -- hostile markup costs linear work: events are counted, not timed --

HOSTILE = {
    "open": b"<a" * 50_000,
    "comment": b"<!--" * 50_000,
    "script": b"<script>" * 50_000,
    "stray-close": b"</ " * 50_000,
    "stray-lt": b"a < b" * 50_000,
    "long-name": b"<" + b"a" * 50_000,
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_markup_is_one_linear_pass(name):
    buf = HOSTILE[name]
    events = list(hx._markup(buf))
    assert len(events) <= buf.count(b"<") + 1
    # one call of each consumer ends on the same single scan
    text, _ = extract_html_text(buf)
    assert extract_main_content(buf) == text
    assert extract_outlinks(buf) == []
    if name == "stray-lt":
        assert text == buf
    # inside an open <nav> the scanner yields nothing, on the same one scan
    nav = b"<nav>" + buf
    assert list(hx._markup(nav, suppress=True)) == []
    assert extract_html_text(nav) == (b"", [])
    assert extract_main_content(nav) == b""
    assert extract_outlinks(nav) == []


# -- scanner-owned suppression --


def test_suppressed_container_costs_no_events():
    doc = b"<p>a</p><nav><ul>" + b"<li>x</li>" * 10_000 + b"</ul></nav><p>b</p>"
    assert list(hx._markup(doc, suppress=True)) == [
        (None, b"", b"p", b""),
        (b"a", b"/", b"p", b""),
        (None, b"", b"p", b""),
        (b"b", b"/", b"p", b""),
    ]
    assert len(list(hx._markup(doc))) == doc.count(b"<")


# -- the entity decoder against html.unescape --

import html.entities

_LONG = "CounterClockwiseContourIntegral"  # the longest HTML5 name, 31 chars
CHARREFS = (
    ["&" + name for name in html.entities.html5]
    + ["&" + name[:-1] for name in html.entities.html5 if name.endswith(";")]
    + ["&ampx", "&ampamp;", "&notin;", "&notit;", "&notin", "&not;x", "&lt3"]
    + ["&" + _LONG + "x" * k + end for k in range(4) for end in ("", ";")]
    + ["&" + "a" * k + ";" for k in range(31, 35)]
    + ["&#0;", "&#xD800;", "&#1114112;", "&#x110000", "&#99999999999999999999;"]
    + [f"&#{c};" for c in range(0x80, 0xA0)]
    + [f"&#x{c:X}" for c in range(0x80, 0xA0)]
)
entity_text = st.lists(
    st.one_of(
        st.sampled_from(CHARREFS),
        st.text(alphabet="&#;xX0123456789abcdefABCDEF\t\n\f <", max_size=8),
        st.text(max_size=3),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=3000, deadline=None)
@given(entity_text)
def test_unescape_matches_stdlib(s):
    assert hx._unescape(s) == _htmlmod.unescape(s)


def test_charref_pattern_is_the_stdlib_one():
    assert hx._CHARREF.pattern == _htmlmod._charref.pattern
    assert hx._CHARREF.flags == _htmlmod._charref.flags


def test_charref_memo_is_bounded():
    s = "".join(f"&zz{i};&#{i};" for i in range(5_000))
    assert hx._unescape(s) == _htmlmod.unescape(s)
    info = hx._charref_text.cache_info()
    assert info.currsize <= info.maxsize == hx._CHARREF_MEMO


def test_long_charref_is_not_memoized():
    hx._charref_text.cache_clear()
    s = "&#x" + "0" * 100_000 + "41;&amp;"
    assert hx._unescape(s) == _htmlmod.unescape(s) == "A&"
    assert hx._charref_text.cache_info().currsize == 0
    s = "&amp;&#x" + "0" * (hx._CHARREF_MEMO_KEY - 5) + "41;"
    assert hx._unescape(s) == _htmlmod.unescape(s) == "&A"
    assert hx._charref_text.cache_info().currsize == 2


def test_plain_run_stops_only_where_the_scanner_must_look():
    run = b"a<navx>b</nav-x><li class=x>c</LI><Textareax>d"
    assert hx._PLAIN_RUN.match(run).end() == len(run) - 1
    for stop in (b"<nav>", b"</NAV >", b"<nav/>", b"<textarea>", b"</script>",
                 b"<!-- -->", b"<li", b"a < b", b"</ 3>"):
        assert hx._PLAIN_RUN.match(run + stop).end() == len(run) - 1
