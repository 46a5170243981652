"""PDF object parser (SURVEY.md §2.2 V8): one scan, one parse.

Reimplements /root/reference/src/parser.rs:49-278 over the tuple object
model in ``objects.py``. Duplicate dict keys: last one wins silently
(quirk Q7, src/parser.rs:247-251).

``Parser(buffer, start)`` builds the object tree where one compiled
scanner, ``_OBJECT_TOKEN``, matches each token: there is no token list
between scan and parse. A window whose shape the scanner does not build
(any lexer error, a parse-shape error, a rare token form, nesting past
``MAX_NESTING``) is declined, and the reference-exact path decides it:
``Lexer.tokenize`` into a token list, then the recursive token-list
parser below. Error kinds, texts and offsets therefore have one
authority.

Nesting is bounded: an array or dictionary more than ``MAX_NESTING``
containers deep raises ParserError("TooDeep") instead of recursing on
(the reference recurses without a bound; here the interpreter's stack
would end it as a RecursionError).
"""

from __future__ import annotations

import re

from .errors import LexerError, ParserError
from .lexer import (
    Lexer,
    K_ARR_END,
    K_ARR_START,
    K_BOOL,
    K_DICT_END,
    K_DICT_START,
    K_EOL,
    K_HEXSTR,
    K_INT,
    K_IOBJ_END,
    K_IOBJ_START,
    K_IREF,
    K_NAME,
    K_NULL,
    K_REAL,
    K_STR,
    K_STREAM_START,
    _ISIZE_MAX,
    _ISIZE_MIN,
    parse_hex_string,
    parse_string,
)
from .objects import ensure_dict_with_key

# containers (arrays, dictionaries) one object may nest; each level
# costs two interpreter frames in the token-list parser, so this stays
# far below the stack limit
MAX_NESTING = 256

# One object token per match, after the whitespace and comments before
# it; the group that matched names the token (``m.lastindex``). The
# alternatives are in the order of their frequency in real objects: a
# name body; ``n g R`` or ``n g obj`` (two digit runs, each followed by
# whitespace); a number run; << >> [ ]; ``endobj`` not followed by a
# regular byte; ``stream`` and its EOL (LF with a byte after it, or
# CRLF; Q9); a hex body; a literal-string body without nested parens;
# null, true or false not followed by a regular byte; the end of the
# window. Any other byte matches nothing, and the window is declined.
(_O_NAME, _O_REF, _O_NUM, _O_DICT_START, _O_DICT_END, _O_ARR_START,
 _O_ARR_END, _O_ENDOBJ, _O_STREAM, _O_HEX, _O_STR, _O_KEYWORD,
 _O_END) = (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_WS = rb"[\x00\t\n\x0c\r ]"
_KEYWORD_END = rb"(?![^\x00\t\n\x12\r ()<>\[\]{}/%])"
_OBJECT_TOKEN = re.compile(
    rb"(?:" + _WS + rb"++|%[^\r\n]*+)*+(?:"
    rb"/([^\x00\t\n\x12\r ()<>\[\]{}/%]*+)"
    rb"|([0-9]++)" + _WS + rb"++([0-9]++)" + _WS + rb"++(R|obj)"
    rb"|([0-9+\-.]++)"
    rb"|(<<)|(>>)|(\[)|(\])"
    rb"|(endobj)" + _KEYWORD_END +
    rb"|stream(\n(?=[\x00-\xff])|\r\n)"
    rb"|<([0-9a-fA-F]*+)>"
    rb"|\(([^\\()]*+(?:\\[\x00-\xff][^\\()]*+)*+)\)"
    rb"|(null|true|false)" + _KEYWORD_END +
    rb"|(\Z))"
)
_KEYWORDS = {b"null": ("null", None), b"true": ("bool", True), b"false": ("bool", False)}


def _scan(buf: bytes, start: int):
    """The object tree of one window, built as its tokens are matched,
    or None to decline the window.

    Reference semantics (Parser::new plus parse): the first object of
    the window, once every byte up to the halt point (Q11: ``endobj`` or
    ``stream``) has lexed cleanly. ``n g obj`` opens only at the top, and
    its value must be followed by the halting keyword. A window scanned
    cleanly to its end with ``obj`` still open raises
    IndirectObjMissMatch, the one error raised here; every other error
    is declined.
    """
    match = _OBJECT_TOKEN.match
    stack = []      # enclosing frames: (container, pending key, offset)
    cur = None      # innermost open container: list (array) or dict
    key = None      # the innermost dict's pending key
    coff = 0        # offset of cur
    result = None   # the first complete top-level object
    iobj_off = -1   # offset of an open ``n g obj``
    pos = 0
    while True:
        m = match(buf, pos)
        if m is None:
            return None
        pos = m.end()
        k = m.lastindex
        if k == _O_NAME:
            g = m[1]
            try:
                name = g.decode("ascii")
            except UnicodeDecodeError:
                return None
            if key is None and cur.__class__ is dict:
                key = name
                continue
            v = ("name", name, start + pos - len(g) - 1)
        elif k == _O_REF:
            num = int(m[2])
            gen = int(m[3])
            if num == 0 or num > _ISIZE_MAX or gen > _ISIZE_MAX:
                return None
            if m[4] == b"R":
                v = ("ref", (num, gen), start + m.start(2))
            elif cur is None and result is None and iobj_off < 0:
                iobj_off = start + m.start(2)
                continue
            else:
                return None
        elif k == _O_NUM:
            g = m[5]
            try:
                v = int(g)
                if _ISIZE_MIN <= v <= _ISIZE_MAX:
                    v = ("int", v, start + pos - len(g))
                else:
                    v = ("real", float(g), start + pos - len(g))
            except ValueError:
                try:
                    v = ("real", float(g), start + pos - len(g))
                except ValueError:
                    return None
        elif k == _O_DICT_START or k == _O_ARR_START:
            if len(stack) >= MAX_NESTING:
                return None
            stack.append((cur, key, coff))
            cur = {} if k == _O_DICT_START else []
            key = None
            coff = start + m.start(k)
            continue
        elif k == _O_DICT_END:
            if key is not None or cur.__class__ is not dict:
                return None
            v = ("dict", cur, coff)
            cur, key, coff = stack.pop()
        elif k == _O_ARR_END:
            if cur.__class__ is not list:
                return None
            v = ("array", cur, coff)
            cur, key, coff = stack.pop()
        elif k == _O_ENDOBJ or k == _O_STREAM:
            if iobj_off < 0 or result is None or cur is not None:
                return None
            if k == _O_ENDOBJ:
                return ("iobj", result, iobj_off)
            if result[0] != "dict" or "Length" not in result[1]:
                return None
            return ("stream", result, start + pos)
        elif k == _O_HEX:
            g = m[12]
            v = ("string", parse_hex_string(g), start + pos - len(g) - 2)
        elif k == _O_STR:
            g = m[13]
            v = ("string", parse_string(g), start + pos - len(g) - 2)
        elif k == _O_KEYWORD:
            g = m[14]
            v = _KEYWORDS[g] + (start + pos - len(g),)
        else:  # end of window
            if iobj_off >= 0:
                raise ParserError("IndirectObjMissMatch", start)
            return result
        # place the value
        if key is not None:
            cur[key] = v  # Q7: last key wins
            key = None
        elif cur.__class__ is list:
            cur.append(v)
        elif cur is not None or (result is not None and iobj_off >= 0):
            return None
        elif result is None:
            result = v


class Parser:
    """One object tree from one buffer window.

    ``Parser(buffer, start)`` mirrors Parser::new (src/parser.rs:57-81):
    lexer errors become ParserError("Lexer"); an unbalanced obj/endobj
    pair becomes ParserError("IndirectObjMissMatch") — both at the
    buffer start offset (the adaptive-growth resolver in document.py
    retries exactly these two kinds, src/object.rs:341-373).
    """

    __slots__ = ("token_i", "byte_offset", "tokens", "obj")

    def __init__(self, buffer: bytes, buffer_start_offset: int = 0):
        self.byte_offset = buffer_start_offset
        self.obj = _scan(buffer, buffer_start_offset)
        if self.obj is not None:
            return
        try:
            lexer = Lexer(buffer, buffer_start_offset)
            lexer.tokenize()
        except LexerError as e:
            raise ParserError("Lexer", buffer_start_offset, inner=e) from e
        if lexer.has_unbalanced_indirectobj():
            raise ParserError("IndirectObjMissMatch", buffer_start_offset)
        self.tokens = lexer.tokens
        self.token_i = 0

    def parse(self) -> tuple:
        if self.obj is not None:
            return self.obj
        return self._parse_object(0)

    # -- the token-list parser: declined windows and the test oracle --

    def _next(self):
        i = self.token_i
        self.token_i += 1
        if len(self.tokens) <= i:
            return None
        return self.tokens[i]

    def _current(self):
        if len(self.tokens) <= self.token_i:
            return None
        return self.tokens[self.token_i]

    def _parse_object(self, depth: int) -> tuple:
        """One object; ``depth`` counts the containers around it."""
        token = self._next()
        if token is None:
            raise ParserError("NoToken", self.byte_offset)
        kind, value, off = token

        if kind == K_BOOL:
            return ("bool", value, off)
        if kind == K_INT:
            return ("int", value, off)
        if kind == K_REAL:
            return ("real", value, off)
        if kind == K_NAME:
            return ("name", value, off)
        if kind == K_NULL:
            return ("null", None, off)
        if kind == K_HEXSTR or kind == K_STR:
            return ("string", value, off)
        if kind == K_IREF:
            return ("ref", value, off)
        if kind == K_ARR_START or kind == K_DICT_START:
            if depth >= MAX_NESTING:
                raise ParserError("TooDeep", off)
            if kind == K_ARR_START:
                return ("array", self._parse_array_content(depth + 1), off)
            return ("dict", self._parse_dict_content(depth + 1), off)
        if kind == K_IOBJ_START:
            obj = self._parse_indirect_content(depth)
            nxt = self._next()
            if nxt is not None and nxt[0] == K_STREAM_START:
                # PdfStreamObj::new requires /Length (src/object.rs:510-518);
                # failure maps to InvalidStreamObj at the buffer start
                # offset (src/parser.rs:186-189)
                try:
                    ensure_dict_with_key(obj, ["Length"])
                except Exception:
                    raise ParserError(
                        "InvalidStreamObj", self.byte_offset
                    ) from None
                return ("stream", obj, nxt[1])
            return ("iobj", obj, off)

        raise ParserError("UnexpectedToken", off)

    def _parse_array_content(self, depth: int) -> list:
        content = []
        while True:
            token = self._current()
            if token is None:
                raise ParserError("NoToken", self.byte_offset)
            if token[0] == K_EOL:
                self._next()
                continue
            if token[0] == K_ARR_END:
                self._next()
                return content
            content.append(self._parse_object(depth))

    def _parse_dict_content(self, depth: int) -> dict:
        content: dict = {}
        is_prev_name = False
        key = ""
        while True:
            token = self._current()
            if token is None:
                raise ParserError("NoToken", self.byte_offset)
            if token[0] == K_EOL:
                self._next()
                continue
            if is_prev_name:
                content[key] = self._parse_object(depth)  # Q7: last key wins
                is_prev_name = False
            elif token[0] == K_NAME:
                key = token[1]
                is_prev_name = True
                self._next()
            elif token[0] == K_DICT_END:
                self._next()
                return content
            else:
                raise ParserError("UnexpectedToken", token[2])

    def _parse_indirect_content(self, depth: int) -> tuple:
        obj = self._parse_object(depth)
        token = self._next()
        if token is None:
            raise ParserError("NoToken", self.byte_offset)
        if token[0] != K_IOBJ_END:
            raise ParserError("UnexpectedToken", token[2])
        return obj


def parse_object(buffer: bytes, buffer_start_offset: int = 0) -> tuple:
    """Convenience: one object from one window."""
    return Parser(buffer, buffer_start_offset).parse()
