"""DOM-heuristic HTML boilerplate stripping (BASELINE.json north_star).

Absent from the reference (a PDF-only parser); designed fresh here as
the HTML arm of the extraction engine. No external parser libraries —
one small, deterministic tag scanner, ``_markup``, with explicit rules
so extracted text is byte-reproducible. It turns a payload into events,
one per ``<``: the text run before it, then the tag it opens. Its rules:

- a tag is ``<name ...>`` or ``</name ...>`` up to the first ``>``;
  names are ASCII ``[a-zA-Z][a-zA-Z0-9-]*`` and are lowercased
- comments (<!-- -->), CDATA, doctype (<! >) and processing
  instructions (<? >) are skipped; an unterminated one drops the rest
  of the document, as does a tag with no closing ``>``
- raw-text elements (script, style, textarea, title) skip their
  content up to the matching close tag, with no nesting
- a ``<`` that opens no tag ("a < b", "</ 3>") is literal text
- whitespace-only text runs are dropped; other runs are kept verbatim

Three consumers read the events, each with its own rules:

``extract_html_text`` (rule-based strip):

- suppressed containers (content dropped entirely): script, style,
  noscript, template, head, title, nav, footer, aside, iframe, svg,
  form, button, select, option
- "line" blocks — each emits exactly one output line, even when empty:
  p, h1..h6, li, pre, blockquote, th, td, caption, dt, dd, figcaption,
  summary
- container blocks (div, article, section, main, ul, ol, table, tr,
  header, body, ...) flush any pending inline text as a line
- <br> flushes the current line
- text runs are entity-decoded by ``_unescape``, which gives the bytes
  of ``html.unescape``
- output = lines joined with "\\n", encoded UTF-8

``extract_main_content`` keeps the same suppression and line rules,
tracks the open containers and the text inside <a>, and returns the
container with the best link-density score. Both text consumers ask
the scanner to apply suppression (``_markup(buf, suppress=True)``), so
neither sees an event inside a suppressed container. Unclosed tags
degrade gracefully (suppression depth never goes negative).
``extract_outlinks`` reads the attributes of every <a> tag, suppressed
or not.
"""

from __future__ import annotations

import functools
import html as _htmlmod
import re

_SUPPRESS = frozenset(
    b"script style noscript template head title nav footer aside iframe svg"
    b" form button select option".split()
)
_LINE_BLOCKS = frozenset(
    b"p h1 h2 h3 h4 h5 h6 li pre blockquote th td caption dt dd figcaption"
    b" summary".split()
)
_CONTAINER_BLOCKS = frozenset(
    b"div article section main header body html ul ol dl table thead tbody"
    b" tfoot tr figure details hr address fieldset".split()
)

# the tag grammar, written once for _EVENT_RE and _PLAIN_RUN: a name,
# then its body up to the first ">"; possessive, so a ">"-less tail
# costs one linear pass
_NAME_CHAR = rb"[a-zA-Z0-9-]"
_TAG_NAME = rb"[a-zA-Z]" + _NAME_CHAR + rb"*+"
_TAG_BODY = rb"[^>]*+"

# the common event: the text run before a "<" (None when empty or
# whitespace-only) and the tag it opens
_EVENT_RE = re.compile(
    rb"(?:\s*+(?=<)|([^<]*+))<(/?)(" + _TAG_NAME + rb")(" + _TAG_BODY + rb")>"
)
# comment, CDATA, doctype or processing instruction; unterminated runs to the end
_SKIP_RE = re.compile(
    rb"<!--(?:.*?-->|.*)|<!\[CDATA\[(?:.*?]]>|.*)|<[!?](?:[^>]*+>|.*)", re.DOTALL
)
# raw-text elements: content runs to the matching close tag, no nesting
_RAWTEXT_CLOSE = {
    name: re.compile(rb"</" + name + rb"\s*>", re.IGNORECASE)
    for name in (b"script", b"style", b"textarea", b"title")
}

# while suppressed: a run of text-plus-tag events whose tag neither
# changes the depth nor opens a raw-text element, skipped in one match
_PLAIN_RUN = re.compile(
    rb"(?:[^<]*+</?+(?!(?:"
    + b"|".join(sorted(_SUPPRESS.union(_RAWTEXT_CLOSE)))
    + rb")(?!" + _NAME_CHAR + rb"))" + _TAG_NAME + _TAG_BODY + rb">)*+",
    re.IGNORECASE,
)

# html._charref, copied: a test pins it against the standard library's
_CHARREF = re.compile(r"&(#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;]{1,32};?)")
_CHARREF_MEMO = 1024
# the longest charref the memo keeps, above any named ref (32 characters
# and ";"); numeric refs have no length limit and are not memoized past it
_CHARREF_MEMO_KEY = 34


@functools.lru_cache(maxsize=_CHARREF_MEMO)
def _charref_text(ref: str) -> str:
    return _htmlmod.unescape("&" + ref)


def _unescape(s: str) -> str:
    """``html.unescape(s)``, with one C-level split instead of a Python
    callback per entity. ``html.unescape`` replaces each ``_CHARREF``
    match by a value that depends only on the match's group, and the
    group alone (``"&" + ref``) matches the same way, so decoding the
    odd pieces of the split one at a time gives the same string. A
    string with a ref longer than ``_CHARREF_MEMO_KEY`` goes to
    ``html.unescape`` whole, so the memo holds only short keys."""
    if "&" not in s:
        return s
    parts = _CHARREF.split(s)
    refs = parts[1::2]
    if max(map(len, refs), default=0) > _CHARREF_MEMO_KEY:
        return _htmlmod.unescape(s)
    parts[1::2] = map(_charref_text, refs)
    return "".join(parts)


def _decode_bytes(buf: bytes) -> str:
    try:
        return buf.decode("utf-8")
    except UnicodeDecodeError:
        return buf.decode("latin-1")


def _markup(buf: bytes, suppress: bool = False):
    """Scan ``buf`` into ``(text, closing, name, rest)`` events, at most
    one per ``<`` plus one for the trailing text (rules: module
    docstring).

    ``text`` is the run before this ``<`` (None when empty or
    whitespace-only). For a tag, ``closing`` is ``b"/"`` or ``b""``,
    ``name`` the lowercased name and ``rest`` the tag body after it.
    Otherwise ``name`` is None and ``rest`` the markup taken as literal
    text (``b""`` for none: skipped markup, a raw-text element, the end).

    With ``suppress``, the scanner applies the text consumers'
    suppression: a ``_SUPPRESS`` tag is never yielded, only the text
    before it while the depth is 0; an opening one that does not end in
    ``/`` raises the depth, a closing one lowers it (never below 0), and
    while the depth is above 0 nothing is yielded."""
    find = buf.find
    match_event = _EVENT_RE.match
    skip_plain = _PLAIN_RUN.match
    n = len(buf)
    i = 0
    depth = 0
    while True:
        if depth:
            i = skip_plain(buf, i).end()
        m = match_event(buf, i)
        if m is not None:
            text, closing, name, rest = m.groups()
            name = name.lower()
            i = m.end()
            if not closing and name in _RAWTEXT_CLOSE:
                close = _RAWTEXT_CLOSE[name].search(buf, i)
                i = n if close is None else close.end()
                if text and not depth:
                    yield text, b"", None, b""
            elif suppress and name in _SUPPRESS:
                if text and not depth:
                    yield text, b"", None, b""
                if closing:
                    depth = max(0, depth - 1)
                elif not rest.rstrip().endswith(b"/"):
                    depth += 1
            elif not depth:
                yield text, closing, name, rest
            continue
        # the "<" ending this text run opens no common tag, or is missing
        lt = find(b"<", i)
        text = buf[i:] if lt == -1 else buf[i:lt]
        if not text.strip():
            text = None
        literal = b""
        if lt == -1:
            i = n
        else:
            c = buf[lt + 1 : lt + 2]
            if c == b"!" or c == b"?":
                i = _SKIP_RE.match(buf, lt).end()
            elif c == b"/" or c.isalpha():
                gt = find(b">", lt + 1)
                if gt == -1:  # truncated tag: drop the tail
                    i = n
                else:  # "</ 3>": no tag name, literal text
                    i = gt + 1
                    literal = buf[lt:i]
            else:  # "a < b"
                i = lt + 1
                literal = b"<"
        if (text or literal) and not depth:
            yield text, b"", None, literal
        if i == n:
            return


def extract_html_text(buf: bytes) -> tuple[bytes, list[dict]]:
    """Main-content text from an HTML payload.

    Returns ``(text_bytes, spans)``; spans are per-line
    ``{start, end, kind: "block", page: 0}`` byte ranges into the output.
    """
    lines: list[str] = []
    cur: list[str] = []

    def flush(force) -> None:
        text = "".join(cur)
        cur.clear()
        if text or force:
            lines.append(text)

    for text, closing, name, rest in _markup(buf, suppress=True):
        if text:
            cur.append(_unescape(_decode_bytes(text)))
        if name is None:
            if rest:
                cur.append(_unescape(_decode_bytes(rest)))
        elif name in _LINE_BLOCKS:
            flush(force=closing)  # empty line block -> empty line
        elif name == b"br":
            flush(force=True)
        elif name in _CONTAINER_BLOCKS:
            flush(force=False)
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


_CANDIDATE_CONTAINERS = frozenset(b"article main section div body td".split())


def extract_main_content(buf: bytes) -> bytes:
    """Density-scored main-content selection (readability-style DOM
    heuristic): score candidate containers by text mass x (1 - link
    density) and return the best container's line-structured text.

    Complements ``extract_html_text`` (rule-based strip): on pages whose
    boilerplate is NOT in suppressible tags (e.g. sidebars made of
    plain link-stuffed <div>s), density scoring still finds the
    article. Same line semantics as the rule-based path; text inside
    <a> counts as link text, literal "<" markup does not.
    """
    lines: list[tuple[str, tuple[int, ...], int]] = []  # (text, path, link_chars)
    cur: list[str] = []
    cur_link = 0
    link_depth = 0
    stack: list[tuple[bytes, int]] = []  # (tag, node id)
    node_tags: dict[int, bytes] = {}
    next_id = 1

    def flush(force) -> None:
        nonlocal cur_link
        text = "".join(cur)
        cur.clear()
        link = cur_link
        cur_link = 0
        if text or force:
            lines.append((text, tuple(nid for _, nid in stack), link))

    for text, closing, name, rest in _markup(buf, suppress=True):
        if text:
            s = _unescape(_decode_bytes(text))
            cur.append(s)
            if link_depth > 0:
                cur_link += len(s)
        if name is None:
            if rest:
                cur.append(_unescape(_decode_bytes(rest)))
        elif name == b"a":
            link_depth = max(0, link_depth - 1) if closing else link_depth + 1
        elif name == b"br":
            flush(force=bool(cur))
        elif name in _LINE_BLOCKS:
            flush(force=closing)
        elif name in _CANDIDATE_CONTAINERS or name in _CONTAINER_BLOCKS:
            flush(force=False)
            if closing:
                while stack and stack[-1][0] != name:
                    stack.pop()
                if stack:
                    stack.pop()
            elif not rest.rstrip().endswith(b"/"):
                stack.append((name, next_id))
                node_tags[next_id] = name
                next_id += 1
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


# one attribute of a tag body: a name, an optional "= value" (double-quoted,
# single-quoted or bare; a quote left open is part of a bare value) and
# whatever sticks to it up to the next whitespace
_ATTR_RE = re.compile(rb"""\s*([^\s=]*)(?:\s*=\s*(?:"([^"]*)"|'([^']*)'|(\S+)))?\S*""")


def extract_outlinks(buf: bytes) -> list[str]:
    """All <a href=...> targets in document order — the link-graph
    extraction step of a crawl pipeline. Shares the text extractor's
    scanner: comments / CDATA / doctype are skipped and rawtext
    elements (script, style, textarea, title) hide their contents.
    Attributes are read left to right, so ``href=`` inside another
    attribute's value is not an href; the first ``href`` (any case)
    with a double-quoted, single-quoted or unquoted value wins. Values
    are entity-decoded (href="a&amp;b" -> "a&b"). Unlike text
    extraction, suppressed containers do NOT hide links — nav/footer
    links are real outlinks to a crawler."""
    out: list[str] = []
    for _, closing, name, rest in _markup(buf):
        if name != b"a" or closing:
            continue
        for m in _ATTR_RE.finditer(rest):
            # lastindex > 1: a value group matched
            if m.lastindex > 1 and m[1].lower() == b"href":
                out.append(_unescape(_decode_bytes(m[m.lastindex])))
                break
    return out


def detect_charset(buf: bytes) -> str:
    """Charset sniff for crawl payloads — the decode-decision step a
    Common-Crawl pipeline runs before text extraction. Deterministic
    rule ladder (first match wins):

    - UTF-8 BOM (EF BB BF)            -> "utf-8-bom"
    - UTF-16 LE/BE BOM (FF FE/FE FF)  -> "utf-16"
    - decodes as UTF-8, all < 0x80    -> "ascii"
    - decodes as UTF-8 w/ multibyte   -> "utf-8"
    - anything else                   -> "latin-1" (the fallback
      ``_decode_bytes`` also uses — every byte string decodes)
    """
    if buf.startswith(b"\xef\xbb\xbf"):
        return "utf-8-bom"
    if buf.startswith(b"\xff\xfe") or buf.startswith(b"\xfe\xff"):
        return "utf-16"
    try:
        buf.decode("utf-8")
    except UnicodeDecodeError:
        return "latin-1"
    return "ascii" if buf.isascii() else "utf-8"
