"""PDF object lexer (SURVEY.md §2.2 V4-V7).

Byte-exact reimplementation of the reference tokenizer
(/root/reference/src/lexer.rs:215-689). Tokens are plain tuples
``(kind, value, byte_offset)`` with ``kind`` one of the K_* constants;
``byte_offset`` is absolute in the document (buffer_start_offset + local).

Preserved reference quirks (SURVEY.md §2.9):
  Q1  ``\\t`` escape decodes to 0x0B (VT), not 0x09 (src/lexer.rs:134-135)
  Q2  octal escapes parse as u16 then truncate to the low byte
      (``\\777`` -> 0xFF, src/lexer.rs:114-115)
  Q4  ``is_regular_char`` excludes 0x12 (DC2) instead of 0x0C (FF)
      (src/lexer.rs:292-311) while whitespace-skip includes byte 12
  Q5  hex strings: odd digit count pads a trailing 0; whitespace inside
      is rejected (src/lexer.rs:206-209, 469-477)
  Q9  ``stream`` must be followed by LF or CRLF, never bare CR
  Q10 indirect refs/objects require object_num > 0
  Q11 lexing halts at ``endobj`` / ``stream`` (object-bounded)
  Q13 ``+123``/``-.002``/``4.``/``.5`` are numbers; ``.``/``--`` are
      ParseNumber errors
  Q14 (found during port, src/lexer.rs:108-170): a literal string that
      *ends* inside an octal escape drops the pending digits — the
      accumulator is never flushed at end of buffer, so ``(\\053)``
      decodes to b"" while ``(\\053 )`` decodes to b"+ ".

Integer parse mirrors Rust ``isize`` (64-bit): values outside
[-2^63, 2^63) fall through to the f64/Real path (src/lexer.rs:424-431).
"""

from __future__ import annotations

import re

from .errors import LexerError

# token kinds
K_EOL = "eol"                      # never emitted by tokenize(); parser skips it
K_BOOL = "bool"
K_INT = "int"
K_REAL = "real"
K_HEXSTR = "hexstr"
K_STR = "str"
K_NAME = "name"
K_DICT_START = "dict_start"
K_DICT_END = "dict_end"
K_ARR_START = "arr_start"
K_ARR_END = "arr_end"
K_NULL = "null"
K_IREF = "iref"                    # value = (obj_num, gen_num)
K_IOBJ_START = "iobj_start"        # value = (obj_num, gen_num)
K_IOBJ_END = "iobj_end"
K_STREAM_START = "stream_start"    # value = absolute offset of stream data

_ISIZE_MIN = -(2**63)
_ISIZE_MAX = 2**63 - 1

_NUMBER_CHARS = frozenset(b"0123456789+-.")
# Q4: 0x12 (DC2) is a delimiter here instead of 0x0C (FF) — mirror exactly
_NON_REGULAR = frozenset(b"\x00\t\n\x12\r ()<>[]{}/%")
_OCTAL_DIGITS = frozenset(b"01234567")
_WS_SET = frozenset((0, 9, 10, 12, 13, 32))


def parse_name(buf: bytes) -> str:
    """ASCII-only name body; no #xx escapes (src/lexer.rs:89-96)."""
    if not buf.isascii():
        raise ValueError("non-ascii name")
    return buf.decode("ascii")


def parse_string(buf: bytes) -> bytes:
    """Literal-string unescape (src/lexer.rs:99-173; quirks Q1/Q2/Q14)."""
    if b"\\" not in buf:  # no escapes: identity (C-speed check)
        return bytes(buf)
    out = bytearray()
    i = 0
    n = len(buf)
    octal = ""
    in_octal = False
    prev_backslash = False
    while i < n:
        byte = buf[i]
        if in_octal:
            if len(octal) == 3 or byte not in _OCTAL_DIGITS:
                # u16 parse then take the low byte (Q2)
                out.append(int(octal, 8) & 0xFF)
                in_octal = False
                octal = ""
            else:
                octal += chr(byte)
                i += 1
                continue
        if prev_backslash:
            if byte == 0x6E:       # n -> LF
                out.append(0x0A)
            elif byte == 0x72:     # r -> CR
                out.append(0x0D)
            elif byte == 0x74:     # t -> 0x0B, not TAB (Q1)
                out.append(0x0B)
            elif byte == 0x62:     # b -> BS
                out.append(0x08)
            elif byte == 0x66:     # f -> FF
                out.append(0x0C)
            elif byte == 0x28:     # (
                out.append(0x28)
            elif byte == 0x29:     # )
                out.append(0x29)
            elif byte == 0x5C:     # backslash
                out.append(0x5C)
            elif byte in _OCTAL_DIGITS:
                in_octal = True
                octal += chr(byte)
            else:                  # lone backslash dropped, byte kept
                out.append(byte)
            prev_backslash = False
            i += 1
            continue
        if byte == 0x5C:
            prev_backslash = True
            i += 1
            continue
        out.append(byte)
        i += 1
    # Q14: pending octal at end of buffer is dropped (reference never
    # flushes it after the loop)
    return bytes(out)


_HEX_FULL = re.compile(rb"[0-9a-fA-F]*\Z")


def parse_hex_string(buf: bytes) -> bytes:
    """Hex pairs -> bytes; odd length pads trailing 0 (src/lexer.rs:177-212).

    bytes.fromhex is the C fast path; the fullmatch guard preserves the
    reference's strictness (fromhex alone would tolerate spaces)."""
    if _HEX_FULL.match(buf) is None:
        raise ValueError("non-hexdigit")
    if len(buf) % 2 == 1:
        buf = buf + b"0"
    return bytes.fromhex(buf.decode("ascii"))


class Lexer:
    """Object-bounded tokenizer over one buffer window.

    Mirrors /root/reference/src/lexer.rs:227-689. ``buffer`` must be
    ``bytes`` (not memoryview: indexing must yield ints and slices bytes).
    """

    __slots__ = (
        "buffer",
        "start",
        "i",
        "token_head_i",
        "byte",
        "has_iobj_start",
        "has_iobj_end",
        "tokens",
    )

    def __init__(self, buffer: bytes, buffer_start_offset: int = 0):
        if len(buffer) == 0:
            # reference panics (src/lexer.rs:229-231); contained here
            raise LexerError("UnexpectedByte", buffer_start_offset)
        self.buffer = buffer
        self.start = buffer_start_offset
        self.i = 0
        self.token_head_i = 0
        self.byte = buffer[0]
        self.has_iobj_start = False
        self.has_iobj_end = False
        self.tokens: list[tuple] = []

    def has_unbalanced_indirectobj(self) -> bool:
        return self.has_iobj_start != self.has_iobj_end

    # -- main loop (src/lexer.rs:353-688) --
    #
    # ``tokenize`` scans with C-speed regex/find calls. The literal
    # byte-at-a-time port of the reference, ``NaiveLexer.tokenize_naive``
    # in tests/test_lexer.py, is its oracle: equivalence (tokens,
    # offsets, errors, halt points) is pinned there by the ported
    # reference vectors, the quirk tests and a differential hypothesis
    # test.

    _WS_RUN = re.compile(rb"[\x00\t\n\x0c\r ]+")
    _NUM_RUN = re.compile(rb"[0-9+\-.]+")
    # regular chars per Q4: 0x12 excluded from regular, 0x0c INCLUDED
    _REG_RUN = re.compile(rb"[^\x00\t\n\x12\r ()<>\[\]{}/%]*")
    _HEX_RUN = re.compile(rb"[0-9a-fA-F]*")
    _STR_DELIM = re.compile(rb"[\\()]")

    def tokenize(self) -> None:
        buf = self.buffer
        n = len(buf)
        i = self.i
        head = self.token_head_i
        start = self.start
        tokens = self.tokens

        def sync():
            self.i = i
            self.token_head_i = head
            if i < n:
                self.byte = buf[i]

        def err(kind: str) -> LexerError:
            sync()
            return LexerError(kind, start + head)

        def cancel():
            nonlocal head
            if tokens:
                tok = tokens.pop()
                head = tok[2] - start
                return tok
            head = 0
            return None

        while head < n:
            b = buf[i]

            # whitespace/EOL runs and comments (all skip, no tokens)
            if b in _WS_SET:
                i = self._WS_RUN.match(buf, i).end()
                head = i
                continue
            if b == 0x25:  # % comment to EOL (or EOF)
                j1 = buf.find(b"\n", i)
                j2 = buf.find(b"\r", i)
                if j1 == -1 and j2 == -1:
                    i = head = n
                    continue
                j = min(x for x in (j1, j2) if x != -1)
                if buf[j] == 13 and j + 1 < n and buf[j + 1] == 10:
                    i = j + 2
                else:
                    i = j + 1
                head = i
                continue

            if b in _NUMBER_CHARS:
                end = self._NUM_RUN.match(buf, i).end()
                s = buf[i:end].decode("ascii")
                ok = False
                try:
                    v = int(s)
                    if _ISIZE_MIN <= v <= _ISIZE_MAX:
                        tokens.append((K_INT, v, start + i))
                        ok = True
                except ValueError:
                    pass
                if not ok:
                    try:
                        tokens.append((K_REAL, float(s), start + i))
                    except ValueError:
                        raise err("ParseNumber") from None
                i = head = end
                continue

            if b == 0x2F:  # /name
                end = self._REG_RUN.match(buf, i + 1).end()
                body = buf[i + 1 : end]
                if not body.isascii():
                    raise err("ParseName")
                tokens.append((K_NAME, body.decode("ascii"), start + i))
                i = head = end
                continue

            if b == 0x3C:  # << or <hex>
                if i + 1 >= n:
                    raise err("FinishInObject")
                if buf[i + 1] == 0x3C:
                    tokens.append((K_DICT_START, None, start + i))
                    i = head = i + 2
                    continue
                end = self._HEX_RUN.match(buf, i + 1).end()
                if end >= n:
                    raise err("FinishInObject")
                if buf[end] != 0x3E:
                    raise err("UnexpectedByte")
                tokens.append(
                    (K_HEXSTR, parse_hex_string(buf[i + 1 : end]), start + i)
                )
                i = head = end + 1
                continue

            if b == 0x3E:  # >>
                if i + 1 >= n or buf[i + 1] != 0x3E:
                    raise err("FinishInObject")
                tokens.append((K_DICT_END, None, start + i))
                i = head = i + 2
                continue

            if b == 0x28:  # (string)
                depth = 0
                pos = i + 1
                close = -1
                while True:
                    m = self._STR_DELIM.search(buf, pos)
                    if m is None:
                        raise err("FinishInObject")
                    at = m.start()
                    c = buf[at]
                    if c == 0x5C:
                        pos = at + 2
                        if pos > n:
                            raise err("FinishInObject")
                    elif c == 0x28:
                        depth += 1
                        pos = at + 1
                    else:  # )
                        if depth == 0:
                            close = at
                            break
                        depth -= 1
                        pos = at + 1
                # the reference hits EOF (FinishInObject) when the
                # closing paren is the very last byte unreached; close
                # found -> token confirmed even at buffer end
                tokens.append(
                    (K_STR, parse_string(buf[i + 1 : close]), start + i)
                )
                i = head = close + 1
                continue

            if b == 0x5B:
                tokens.append((K_ARR_START, None, start + i))
                i = head = i + 1
                continue

            if b == 0x5D:
                tokens.append((K_ARR_END, None, start + i))
                i = head = i + 1
                continue

            if b == 0x52:  # R
                gen_tok = cancel()
                obj_tok = cancel()
                if (
                    obj_tok is not None
                    and gen_tok is not None
                    and obj_tok[0] == K_INT
                    and gen_tok[0] == K_INT
                    and obj_tok[1] > 0
                    and gen_tok[1] >= 0
                ):
                    tokens.append(
                        (K_IREF, (obj_tok[1], gen_tok[1]), start + head)
                    )
                    i = head = i + 1
                    continue
                raise err("InvalidIndirectRef")

            if buf.startswith(b"obj", i):
                gen_tok = cancel()
                obj_tok = cancel()
                if (
                    obj_tok is not None
                    and gen_tok is not None
                    and obj_tok[0] == K_INT
                    and gen_tok[0] == K_INT
                    and obj_tok[1] > 0
                    and gen_tok[1] >= 0
                ):
                    tokens.append(
                        (K_IOBJ_START, (obj_tok[1], gen_tok[1]), start + head)
                    )
                    self.has_iobj_start = True
                    i = head = i + 3
                    continue
                # failed pop: the reference falls through to the other
                # keyword checks with the cursor on the last matched byte
                i = i + 2

            if buf.startswith(b"endobj", i):
                j = i + 6
                if j < n and buf[j] not in _NON_REGULAR:
                    raise err("UndefinedKeyword")
                tokens.append((K_IOBJ_END, None, start + head))
                self.has_iobj_end = True
                i = head = j
                sync()
                return

            if buf.startswith(b"stream", i):
                last = i + 5  # index of 'm'
                if (n - last) < 3:
                    raise err("ConfirmStream")
                j = last + 1
                if buf[j] == 10:
                    eol_end = j
                elif buf[j] == 13 and j + 1 < n and buf[j + 1] == 10:
                    eol_end = j + 1
                else:
                    raise err("UnexpectedByte")
                tokens.append((K_IOBJ_END, None, start + head))
                self.has_iobj_end = True
                head = eol_end
                tokens.append(
                    (K_STREAM_START, start + eol_end + 1, start + head)
                )
                i = head = eol_end
                sync()
                return

            matched_kw = None
            if buf.startswith(b"null", i):
                matched_kw = (K_NULL, None, 4)
            elif buf.startswith(b"true", i):
                matched_kw = (K_BOOL, True, 4)
            elif buf.startswith(b"false", i):
                matched_kw = (K_BOOL, False, 5)
            if matched_kw is not None:
                kind, value, klen = matched_kw
                j = i + klen
                if j < n and buf[j] not in _NON_REGULAR:
                    raise err("UndefinedKeyword")
                tokens.append((kind, value, start + head))
                i = head = j
                continue

            raise err("UndefinedKeyword")

        sync()
