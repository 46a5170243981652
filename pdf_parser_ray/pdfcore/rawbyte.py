"""Raw-byte scalar kernel library (SURVEY.md §2.3, B1-B5).

Byte-exact reimplementation of the reference's substring/slicing
combinators (/root/reference/src/raw_byte.rs). ``first_match_index`` and
``last_match_index`` deliberately keep the reference's *non-restarting*
state machine: on mismatch the needle index resets WITHOUT re-examining
the current byte, so overlapping prefixes can be missed (quirk Q6 —
needle ``aab`` in haystack ``aaab`` is NOT found; ``bytes.find`` would
find it). These functions back the ``%%EOF`` / ``trailer`` /
``startxref`` / ``xref`` keyword searches, so the quirk is observable in
trailer parsing and must be preserved (SURVEY.md §2.9 Q6).

All functions take ``bytes``/``memoryview``-like buffers and return
slices or ``None`` (the reference returns ``Option<&[u8]>``).
"""

from __future__ import annotations


def first_match_index(buffer, target) -> int | None:
    """Index of the first needle occurrence — reference state machine.

    Mirrors src/raw_byte.rs:7-26 including Q6 (no re-test on mismatch).

    Fast path: the naive machine only ever begins a match attempt at a
    byte it examines with ti == 0, and after a mismatch at absolute
    position p the next such byte is p + 1 (the mismatching byte is
    consumed). So it is exactly equivalent to: anchor at successive
    candidate starts found with C-speed ``bytes.find(target[0])``,
    compare the slice, and on a mismatch at relative offset m resume
    the scan at anchor + m + 1. Equivalence is property-tested against
    the literal port in tests/test_rawbyte.py.
    """
    n = len(target)
    if n == 0:
        return 0
    buffer = bytes(buffer) if not isinstance(buffer, (bytes, bytearray)) else buffer
    target = bytes(target) if not isinstance(target, (bytes, bytearray)) else target
    first = target[0:1]
    pos = 0
    blen = len(buffer)
    while pos < blen:
        k = buffer.find(first, pos)
        if k == -1:
            return None
        window = buffer[k : k + n]
        if window == target:
            return k
        # find the first mismatching offset; resume one past it
        m = 1
        wlen = len(window)
        while m < wlen and window[m] == target[m]:
            m += 1
        if wlen < n and m == wlen:
            return None  # buffer ended mid-match: no restart possible
        pos = k + m + 1
    return None


def _first_match_index_reference(buffer, target) -> int | None:
    """Literal port of src/raw_byte.rs:7-26 (kept for property tests)."""
    if len(target) == 0:
        return 0
    ti = 0
    last = len(target) - 1
    for i, b in enumerate(buffer):
        if target[ti] == b:
            if ti == last:
                return i - ti
            ti += 1
        else:
            ti = 0
    return None


def last_match_index(buffer, target) -> int | None:
    """Start index of the last needle occurrence (reverse state machine).

    Mirrors src/raw_byte.rs:29-48 (same non-restarting quirk, reversed).
    Empty needle returns ``len(buffer)`` as the reference does.
    Fast path symmetric to ``first_match_index`` (anchor candidate ENDs
    with rfind, compare backwards, resume one before the mismatch);
    property-tested against the literal port.
    """
    n = len(target)
    if n == 0:
        return len(buffer)
    buffer = bytes(buffer) if not isinstance(buffer, (bytes, bytearray)) else buffer
    target = bytes(target) if not isinstance(target, (bytes, bytearray)) else target
    last = target[-1:]
    end = len(buffer)  # exclusive bound for the candidate end byte
    while end > 0:
        k = buffer.rfind(last, 0, end)  # candidate: target ends at k
        if k == -1:
            return None
        start = k - n + 1
        window = buffer[max(0, start) : k + 1]
        if start >= 0 and window == target:
            return start
        # first mismatch scanning backwards from the end
        m = 1
        wlen = len(window)
        while m < wlen and window[wlen - 1 - m] == target[n - 1 - m]:
            m += 1
        if m == wlen and wlen < n:
            return None  # buffer begin reached mid-match
        end = k - m
    return None


def _last_match_index_reference(buffer, target) -> int | None:
    """Literal port of src/raw_byte.rs:29-48 (kept for property tests)."""
    if len(target) == 0:
        return len(buffer)
    ti = len(target) - 1
    n = len(buffer)
    for i in range(n):
        b = buffer[n - 1 - i]
        if target[ti] == b:
            if ti == 0:
                return (n - 1) - i
            ti -= 1
        else:
            ti = len(target) - 1
    return None


def first_match_eol(buffer) -> tuple[int, int] | None:
    """(start index, byte length) of the first EOL; CRLF counts as one.

    Mirrors src/raw_byte.rs:51-69.
    """
    lf_i = first_match_index(buffer, b"\n")
    cr_i = first_match_index(buffer, b"\r")
    if cr_i is not None and lf_i is not None:
        if lf_i == cr_i + 1:
            return (cr_i, 2)
        return (min(cr_i, lf_i), 1)
    if cr_i is not None:
        return (cr_i, 1)
    if lf_i is not None:
        return (lf_i, 1)
    return None


def extract_after_eol(buffer):
    m = first_match_eol(buffer)
    if m is None:
        return None
    eol_i, eol_size = m
    return buffer[eol_i + eol_size:]


def cut_after_eol(buffer):
    m = first_match_eol(buffer)
    if m is None:
        return None
    return buffer[: m[0]]


def extract_from_eol(buffer):
    m = first_match_eol(buffer)
    if m is None:
        return None
    return buffer[m[0]:]


def extract_from(buffer, target):
    i = first_match_index(buffer, target)
    return None if i is None else buffer[i:]


def cut_from(buffer, target):
    i = first_match_index(buffer, target)
    return None if i is None else buffer[:i]


def extract_after(buffer, target):
    i = first_match_index(buffer, target)
    return None if i is None else buffer[i + len(target):]


def cut_after(buffer, target):
    i = first_match_index(buffer, target)
    return None if i is None else buffer[: i + len(target)]


def extract_tail_from(buffer, target):
    i = last_match_index(buffer, target)
    return None if i is None else buffer[i:]


def cut_tail_from(buffer, target):
    i = last_match_index(buffer, target)
    return None if i is None else buffer[:i]


def extract_tail_after(buffer, target):
    i = last_match_index(buffer, target)
    return None if i is None else buffer[i + len(target):]


def cut_tail_after(buffer, target):
    i = last_match_index(buffer, target)
    return None if i is None else buffer[: i + len(target)]
