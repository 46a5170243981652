"""Recursive-descent PDF object parser (SURVEY.md §2.2 V8).

Reimplements /root/reference/src/parser.rs:49-278 over the tuple object
model in ``objects.py``. Duplicate dict keys: last one wins silently
(quirk Q7, src/parser.rs:247-251).

Nesting is bounded: an array or dictionary more than ``MAX_NESTING``
containers deep raises ParserError("TooDeep") instead of recursing on
(the reference recurses without a bound; here the interpreter's stack
would end it as a RecursionError).
"""

from __future__ import annotations

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
)
from .objects import ensure_dict_with_key

# containers (arrays, dictionaries) one object may nest; each level
# costs two interpreter frames, so this stays far below the stack limit
MAX_NESTING = 256


class Parser:
    """Tokenize one buffer window, then parse a single object tree.

    ``Parser(buffer, start)`` mirrors Parser::new (src/parser.rs:57-81):
    lexer errors become ParserError("Lexer"); an unbalanced obj/endobj
    pair becomes ParserError("IndirectObjMissMatch") — both at the
    buffer start offset (the adaptive-growth resolver in document.py
    retries exactly these two kinds, src/object.rs:341-373).
    """

    __slots__ = ("token_i", "byte_offset", "tokens")

    def __init__(self, buffer: bytes, buffer_start_offset: int = 0):
        try:
            lexer = Lexer(buffer, buffer_start_offset)
            lexer.tokenize()
        except LexerError as e:
            raise ParserError("Lexer", buffer_start_offset, inner=e) from e
        if lexer.has_unbalanced_indirectobj():
            raise ParserError("IndirectObjMissMatch", buffer_start_offset)
        self.tokens = lexer.tokens
        self.byte_offset = buffer_start_offset
        self.token_i = 0

    def parse(self) -> tuple:
        return self._parse_object(0)

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
