"""Lexer tests — token vectors ported 1:1 from
/root/reference/src/lexer/test.rs:17-208, plus quirk tests Q1-Q14
(SURVEY.md §2.9) derived from the reference code."""

import pytest

from pdf_parser_ray.pdfcore.errors import LexerError
from pdf_parser_ray.pdfcore.lexer import (
    Lexer,
    parse_hex_string,
    parse_string,
)


def tokens_of(buf: bytes):
    lx = Lexer(buf, 0)
    lx.tokenize()
    return lx.tokens


def test_tokenize_space_eol():
    assert tokens_of(b"\0\t\n\x0c\r \r\n \n\r") == []


def test_tokenize_integer():
    assert tokens_of(b" +123 -123\r") == [
        ("int", 123, 1),
        ("int", -123, 6),
    ]


def test_tokenize_float():
    assert tokens_of(b"1.5 -23.4 +110.0 .5 4. -.002 0.0") == [
        ("real", 1.5, 0),
        ("real", -23.4, 4),
        ("real", 110.0, 10),
        ("real", 0.5, 17),
        ("real", 4.0, 20),
        ("real", -0.002, 23),
        ("real", 0.0, 29),
    ]


def test_tokenize_hex_str():
    assert tokens_of(b"<a0e0f>") == [("hexstr", bytes([160, 224, 240]), 0)]


def test_tokenize_string():
    # "(hoge \t \\ \053 (\0053))" where \t is a raw TAB byte
    buf = b"(hoge \t \\\\ \\053 (\\0053))"
    assert tokens_of(buf) == [
        (
            "str",
            bytes([104, 111, 103, 101, 32, 9, 32, 92, 32, 43, 32, 40, 5, 51, 41]),
            0,
        )
    ]


def test_tokenize_array():
    assert tokens_of(b"[123 (aa\\() -55.]") == [
        ("arr_start", None, 0),
        ("int", 123, 1),
        ("str", bytes([97, 97, 40]), 5),
        ("real", -55.0, 12),
        ("arr_end", None, 16),
    ]


def test_tokenize_indirect_ref_1():
    assert tokens_of(b"  1 0 R") == [("iref", (1, 0), 2)]


def test_tokenize_indirect_ref_2():
    assert tokens_of(b"123 1 0 R") == [
        ("int", 123, 0),
        ("iref", (1, 0), 4),
    ]


def test_tokenize_name():
    assert tokens_of(b"/Name..;$@?! ") == [("name", "Name..;$@?!", 0)]


def test_tokenize_comment():
    assert tokens_of(b"/Name%hogehoge /..<>(){}[]\r\n123") == [
        ("name", "Name", 0),
        ("int", 123, 28),
    ]


def test_tokenize_boolean_null():
    assert tokens_of(b"null true false") == [
        ("null", None, 0),
        ("bool", True, 5),
        ("bool", False, 10),
    ]


def test_tokenize_indirect_obj():
    # lexing halts at endobj even though the buffer continues (Q11)
    assert tokens_of(b"1 0 obj\n123 endobj   hogehoge lkjdflkj)") == [
        ("iobj_start", (1, 0), 0),
        ("int", 123, 8),
        ("iobj_end", None, 12),
    ]


# -- quirk tests (SURVEY.md §2.9) --


def test_q1_backslash_t_is_vt():
    """src/lexer.rs:134-135: the \\t escape pushes 0x0B, not 0x09."""
    assert parse_string(b"a\\tb") == b"a\x0bb"


def test_q2_octal_overflow_truncates():
    """src/lexer.rs:114-115: \\777 -> u16 511 -> low byte 0xFF."""
    assert parse_string(b"\\777 ") == b"\xff "
    assert parse_string(b"\\400 ") == b"\x00 "


def test_q14_trailing_octal_dropped():
    """Pending octal at end of buffer is never flushed (src/lexer.rs:108-170)."""
    assert parse_string(b"ab\\53") == b"ab"
    assert parse_string(b"ab\\053") == b"ab"
    assert parse_string(b"ab\\053 ") == b"ab+ "
    # exactly 3 digits followed by a 4th octal char: flushed + literal
    assert parse_string(b"\\0533") == b"+3"


def test_escape_passthrough_and_lone_backslash():
    assert parse_string(b"\\n\\r\\b\\f\\(\\)\\\\") == b"\n\r\x08\x0c()\\"
    assert parse_string(b"\\z") == b"z"  # unknown escape: backslash dropped


def test_q4_regular_char_set():
    """0x12 (DC2) terminates a name; 0x0C (FF) does NOT (src/lexer.rs:292-311)
    even though FF is whitespace between tokens (src/lexer.rs:398)."""
    lx = Lexer(b"/AB\x12CD ", 0)
    with pytest.raises(LexerError):  # the stray DC2 byte itself then errors
        lx.tokenize()
    assert lx.tokens[0] == ("name", "AB", 0)
    # FF is a regular char inside a token, so the name runs through it
    assert tokens_of(b"/AB\x0cCD ")[0] == ("name", "AB\x0cCD", 0)


def test_q5_hex_odd_pads_and_ws_rejected():
    assert parse_hex_string(b"a0e0f") == bytes([160, 224, 240])
    with pytest.raises(LexerError) as ei:
        tokens_of(b"<a0 e0>")
    assert ei.value.kind == "UnexpectedByte"


def test_q10_object_num_zero_invalid():
    with pytest.raises(LexerError) as ei:
        tokens_of(b"0 0 R")
    assert ei.value.kind == "InvalidIndirectRef"
    with pytest.raises(LexerError):
        tokens_of(b"1 -1 R")


def test_q9_stream_requires_lf():
    lx = Lexer(b"1 0 obj\n<</Length 1>>\nstream\nXYZ", 0)
    lx.tokenize()
    assert lx.tokens[-1][0] == "stream_start"
    assert lx.tokens[-1][1] == 29  # byte after the LF

    with pytest.raises(LexerError) as ei:
        tokens_of(b"1 0 obj\n<</Length 1>>\nstream\rXYZ")
    assert ei.value.kind == "UnexpectedByte"


def test_stream_crlf():
    lx = Lexer(b"1 0 obj\n<</Length 1>>\nstream\r\nXYZ", 0)
    lx.tokenize()
    assert lx.tokens[-1] == ("stream_start", 30, 29)


def test_stream_too_short_confirm():
    with pytest.raises(LexerError) as ei:
        tokens_of(b"1 0 obj <<>> stream")
    assert ei.value.kind == "ConfirmStream"


def test_q13_bad_numbers():
    for bad in (b". ", b"-- ", b"+ ", b"..- "):
        with pytest.raises(LexerError) as ei:
            tokens_of(bad)
        assert ei.value.kind == "ParseNumber"


def test_isize_overflow_becomes_real():
    """Rust isize parse overflows -> f64 path (src/lexer.rs:424-431)."""
    toks = tokens_of(b"99999999999999999999 ")
    assert toks[0][0] == "real"
    assert toks[0][1] == 1e20


def test_name_non_ascii_errors():
    with pytest.raises(LexerError) as ei:
        tokens_of(b"/Na\xffme ")
    assert ei.value.kind == "ParseName"


def test_buffer_offset_propagates():
    lx = Lexer(b" 42 ", 1000)
    lx.tokenize()
    assert lx.tokens == [("int", 42, 1001)]


def test_undefined_keyword():
    with pytest.raises(LexerError) as ei:
        tokens_of(b"qwerty")
    assert ei.value.kind == "UndefinedKeyword"


def test_unbalanced_detection():
    lx = Lexer(b"1 0 obj 123", 0)
    lx.tokenize()
    assert lx.has_unbalanced_indirectobj()


# -- differential test: optimized tokenize vs literal naive port --

from hypothesis import given, settings, strategies as st

_FRAGMENTS = [
    b" ", b"\n", b"\r", b"\r\n", b"\t", b"\x0c", b"\x12", b"\x00",
    b"1", b"12", b"+3", b"-4.5", b".", b"--", b"4.",
    b"/Name", b"/", b"/A\xffB",
    b"(str)", b"(a\\tb)", b"(\\053", b"(()", b"()", b"(", b")",
    b"<a0e0>", b"<a0e>", b"<", b"<<", b">>", b">", b"<a0 e0>",
    b"[", b"]", b"null", b"true", b"false", b"nullx",
    b"R", b"1 0 R", b"0 0 R", b"obj", b"1 0 obj", b"endobj", b"endobjx",
    b"stream", b"stream\n", b"stream\r\nXY", b"stream\rX",
    b"% comment", b"%", b"qq",
]

pdfish = st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=12).map(
    b"".join
)


from pdf_parser_ray.pdfcore.lexer import (
    K_ARR_END,
    K_ARR_START,
    K_BOOL,
    K_DICT_END,
    K_DICT_START,
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
    _NON_REGULAR,
    _NUMBER_CHARS,
    parse_name,
)

from test_rawbyte import is_next_satisfy

_HEX_DIGITS = frozenset(b"0123456789abcdefABCDEF")


class NaiveLexer(Lexer):
    """The literal byte-at-a-time port of the reference tokenizer
    (src/lexer.rs:246-688), kept as the oracle of
    ``Lexer.tokenize``: same tokens, offsets, errors and halt points.
    Its whole cursor (``i``, ``byte``, ``token_head_i``) lives on the
    object, as in the reference."""

    def __init__(self, buffer: bytes, buffer_start_offset: int = 0):
        super().__init__(buffer, buffer_start_offset)
        self.token_head_i = 0
        self.byte = buffer[0]

    # -- cursor helpers (src/lexer.rs:246-345) --

    def _move(self) -> bool:
        self.i += 1
        if len(self.buffer) <= self.i:
            return False        # self.byte stays stale, as in the reference
        self.byte = self.buffer[self.i]
        return True

    def _confirm(self, kind: str, value=None) -> None:
        self.tokens.append((kind, value, self.start + self.token_head_i))
        self.token_head_i = self.i

    def _cancel(self):
        if self.tokens:
            tok = self.tokens.pop()
            self.token_head_i = tok[2] - self.start
            return tok
        self.token_head_i = 0
        return None

    def _skip(self) -> None:
        self.token_head_i = self.i

    def _is_number_char(self) -> bool:
        return self.byte in _NUMBER_CHARS

    def _is_regular_char(self) -> bool:
        return self.byte not in _NON_REGULAR

    def _assume_and_move(self, target: bytes) -> bool:
        if not target:
            return False
        buf, i = self.buffer, self.i
        if buf[i : i + len(target)] != target:
            return False
        self.i += len(target) - 1
        if self.i < len(buf):
            self.byte = buf[self.i]
        return True

    def _expect_keyword_end(self) -> None:
        if self._move() and self._is_regular_char():
            raise self._error("UndefinedKeyword")

    def _error(self, kind: str) -> LexerError:
        return LexerError(kind, self.start + self.token_head_i)

    def tokenize_naive(self) -> None:
        is_comment = False
        buf = self.buffer
        n = len(buf)

        while self.token_head_i < n:
            byte = self.byte

            if byte == 10:  # LF
                self._move()
                is_comment = False
                self._skip()
                continue

            if byte == 13:  # CR (CRLF is one EOL)
                if is_next_satisfy(buf, self.i, lambda b: b == 10):
                    self._move()
                self._move()
                is_comment = False
                self._skip()
                continue

            if is_comment:
                self._move()
                self._skip()
                continue

            if byte in (0, 9, 12, 32):  # whitespace set (includes FF; cf. Q4)
                self._move()
                self._skip()
                continue

            if byte == 0x25:  # %
                is_comment = True
                self._move()
                self._skip()
                continue

            # Integer / Real (Q13)
            if byte in _NUMBER_CHARS:
                while self._is_number_char():
                    if not self._move():
                        break
                s = buf[self.token_head_i : self.i].decode("ascii")
                try:
                    v = int(s)
                    if _ISIZE_MIN <= v <= _ISIZE_MAX:
                        self._confirm(K_INT, v)
                        continue
                except ValueError:
                    pass
                try:
                    self._confirm(K_REAL, float(s))
                    continue
                except ValueError:
                    raise self._error("ParseNumber") from None

            # Name
            if byte == 0x2F:  # /
                self._move()
                while self._is_regular_char():
                    if not self._move():
                        break
                body = buf[self.token_head_i + 1 : self.i]
                try:
                    self._confirm(K_NAME, parse_name(body))
                except ValueError:
                    raise self._error("ParseName") from None
                continue

            # Hex string / dict start
            if byte == 0x3C:  # <
                if not self._move():
                    raise self._error("FinishInObject")
                if self.byte == 0x3C:
                    self._move()
                    self._confirm(K_DICT_START)
                    continue
                while self.byte in _HEX_DIGITS:
                    if not self._move():
                        raise self._error("FinishInObject")
                if self.byte != 0x3E:  # > (Q5: whitespace inside rejected)
                    raise self._error("UnexpectedByte")
                body = buf[self.token_head_i + 1 : self.i]
                try:
                    hex_bytes = parse_hex_string(body)
                except ValueError:
                    raise self._error("ParseHexString") from None
                self._move()
                self._confirm(K_HEXSTR, hex_bytes)
                continue

            # Dict end
            if byte == 0x3E:  # >
                if not self._move():
                    raise self._error("FinishInObject")
                if self.byte != 0x3E:
                    raise self._error("FinishInObject")
                self._move()
                self._confirm(K_DICT_END)
                continue

            # Literal string
            if byte == 0x28:  # (
                if not self._move():
                    raise self._error("FinishInObject")
                prev_backslash = False
                depth = 0
                while not (not prev_backslash and depth == 0 and self.byte == 0x29):
                    if not prev_backslash and self.byte == 0x28:
                        depth += 1
                    if not prev_backslash and self.byte == 0x29 and depth != 0:
                        depth -= 1
                    prev_backslash = not prev_backslash and self.byte == 0x5C
                    if not self._move():
                        raise self._error("FinishInObject")
                body = parse_string(buf[self.token_head_i + 1 : self.i])
                self._move()
                self._confirm(K_STR, body)
                continue

            if byte == 0x5B:  # [
                self._move()
                self._confirm(K_ARR_START)
                continue

            if byte == 0x5D:  # ]
                self._move()
                self._confirm(K_ARR_END)
                continue

            # Indirect ref: `R` retro-consumes two Integer tokens (Q10)
            if byte == 0x52:  # R
                gen_tok = self._cancel()
                obj_tok = self._cancel()
                if (
                    obj_tok is not None
                    and gen_tok is not None
                    and obj_tok[0] == K_INT
                    and gen_tok[0] == K_INT
                    and obj_tok[1] > 0
                    and gen_tok[1] >= 0
                ):
                    self._move()
                    self._confirm(K_IREF, (obj_tok[1], gen_tok[1]))
                    continue
                raise self._error("InvalidIndirectRef")

            # Indirect object start: on failed integer-pop the reference
            # falls through to the remaining keyword checks (tokens lost)
            if self._assume_and_move(b"obj"):
                gen_tok = self._cancel()
                obj_tok = self._cancel()
                if (
                    obj_tok is not None
                    and gen_tok is not None
                    and obj_tok[0] == K_INT
                    and gen_tok[0] == K_INT
                    and obj_tok[1] > 0
                    and gen_tok[1] >= 0
                ):
                    self._move()
                    self._confirm(K_IOBJ_START, (obj_tok[1], gen_tok[1]))
                    self.has_iobj_start = True
                    continue

            if self._assume_and_move(b"endobj"):  # Q11: halt
                self._expect_keyword_end()
                self._confirm(K_IOBJ_END)
                self.has_iobj_end = True
                return

            if self._assume_and_move(b"stream"):  # Q9/Q11
                if (n - self.i) < 3:
                    raise self._error("ConfirmStream")
                self._move()
                if self._assume_and_move(b"\n") or self._assume_and_move(b"\r\n"):
                    self._confirm(K_IOBJ_END)
                    self.has_iobj_end = True
                    self._confirm(K_STREAM_START, self.start + self.i + 1)
                    return
                raise self._error("UnexpectedByte")

            if self._assume_and_move(b"null"):
                self._expect_keyword_end()
                self._confirm(K_NULL)
                continue

            if self._assume_and_move(b"true"):
                self._expect_keyword_end()
                self._confirm(K_BOOL, True)
                continue

            if self._assume_and_move(b"false"):
                self._expect_keyword_end()
                self._confirm(K_BOOL, False)
                continue

            raise self._error("UndefinedKeyword")


def run_lexer(buf, naive):
    lx = NaiveLexer(buf, 7)
    try:
        (lx.tokenize_naive if naive else lx.tokenize)()
        outcome = ("ok", lx.tokens, lx.has_unbalanced_indirectobj(), lx.i)
    except LexerError as e:
        outcome = ("err", e.kind, e.byte_offset, lx.tokens)
    return outcome


@given(pdfish)
@settings(max_examples=1500)
def test_tokenize_differential(buf):
    if not buf:
        return
    assert run_lexer(buf, naive=False) == run_lexer(buf, naive=True)


@given(st.binary(max_size=60))
@settings(max_examples=400)
def test_escape_roundtrip(data):
    """SURVEY §5.5: unescape∘escape is the identity on arbitrary bytes."""
    from pdf_parser_ray.pdfcore.pdfbuild import escape_literal_string

    assert parse_string(escape_literal_string(data)) == data


@given(st.binary(max_size=60))
@settings(max_examples=400)
def test_escaped_string_lexes_balanced(data):
    """An escaped literal string always lexes to exactly its bytes."""
    from pdf_parser_ray.pdfcore.pdfbuild import escape_literal_string

    toks = tokens_of(b"(" + escape_literal_string(data) + b") ")
    assert toks == [("str", data, 0)]
