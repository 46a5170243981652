"""raw_byte kernel tests — ported 1:1 from /root/reference/src/raw_byte/test.rs:3-225,
plus the overlap case pinning quirk Q6 (SURVEY.md §2.9)."""

from pdf_parser_ray.pdfcore import rawbyte as rb

BUF = b"hogehoge target jjjj\n\rhoge"


def is_next_satisfy(buffer, i: int, f) -> bool:
    """Lookahead predicate at ``i + 1`` (src/raw_byte.rs:71-80); only
    the byte-at-a-time lexer oracle, ``NaiveLexer``, calls it."""
    if (len(buffer) - 1) <= i:
        return False
    return f(buffer[i + 1])


def test_skip_eol_1():
    assert rb.extract_after_eol(b"  kjkj\n") == b""


def test_extract_after_eol_2():
    assert rb.extract_after_eol(b"  hogehoeg \r\nhoge") == b"hoge"


def test_extract_after_eol_3():
    assert rb.extract_after_eol(b"hoge\r   \nfuga") == b"   \nfuga"


def test_first_match_index_1():
    assert rb.first_match_index(b"0123abcd\n { target\r hoge", b"target") == 12


def test_first_match_index_2():
    assert rb.first_match_index(b"0123abcd\n { target\r hoge", b"") == 0


def test_first_match_index_3():
    assert rb.first_match_index(b"hogehoge", b"too long target ") is None


def test_last_match_index_1():
    assert rb.last_match_index(b"0123abcd\n { target\r target2 hoge", b"target") == 20


def test_last_match_index_2():
    assert rb.last_match_index(b"0123abcd\n { target\r hoge", b"") == 24


def test_last_match_index_3():
    assert rb.last_match_index(b"hogehoge", b"too long target ") is None


def test_extract_from():
    assert rb.extract_from(BUF, b"target") == b"target jjjj\n\rhoge"
    assert rb.extract_from(BUF, b"") == BUF


def test_cut_from():
    assert rb.cut_from(BUF, b"target") == b"hogehoge "
    assert rb.cut_from(BUF, b"") == b""


def test_extract_after():
    assert rb.extract_after(BUF, b"target") == b" jjjj\n\rhoge"
    assert rb.extract_after(BUF, b"") == BUF


def test_cut_after():
    assert rb.cut_after(BUF, b"target") == b"hogehoge target"
    assert rb.cut_after(BUF, b"") == b""


def test_extract_tail_from():
    assert rb.extract_tail_from(BUF, b"target") == b"target jjjj\n\rhoge"
    assert rb.extract_tail_from(BUF, b"") == b""


def test_cut_tail_from():
    assert rb.cut_tail_from(BUF, b"target") == b"hogehoge "
    assert rb.cut_tail_from(BUF, b"") == BUF


def test_extract_tail_after():
    assert rb.extract_tail_after(BUF, b"target") == b" jjjj\n\rhoge"
    assert rb.extract_tail_after(BUF, b"") == b""


def test_cut_tail_after():
    assert rb.cut_tail_after(BUF, b"target") == b"hogehoge target"
    assert rb.cut_tail_after(BUF, b"") == BUF


def test_q6_overlap_miss():
    """Quirk Q6: non-restarting state machine misses overlapping prefixes
    (src/raw_byte.rs:12-23); bytes.find would return 1."""
    assert rb.first_match_index(b"aaab", b"aab") is None
    assert b"aaab".find(b"aab") == 1  # what a spec-correct search would say


def test_q6_non_overlap_hit():
    assert rb.first_match_index(b"xxaab", b"aab") == 2


def test_first_match_eol_variants():
    assert rb.first_match_eol(b"ab\r\ncd") == (2, 2)
    assert rb.first_match_eol(b"ab\ncd") == (2, 1)
    assert rb.first_match_eol(b"ab\rcd") == (2, 1)
    assert rb.first_match_eol(b"ab\n\rcd") == (2, 1)
    assert rb.first_match_eol(b"abcd") is None


def test_is_next_satisfy_bounds():
    assert is_next_satisfy(b"ab", 0, lambda b: b == ord("b"))
    assert not is_next_satisfy(b"ab", 1, lambda b: True)
    assert not is_next_satisfy(b"", 0, lambda b: True)


# -- fast-path equivalence (hypothesis property tests) --

from hypothesis import given, settings, strategies as st

small_bytes = st.binary(min_size=0, max_size=40)
needles = st.binary(min_size=0, max_size=6)
# low-entropy alphabet maximizes partial-match interruptions (the quirk zone)
low = st.text(alphabet="ab", max_size=40).map(str.encode)
low_needles = st.text(alphabet="ab", min_size=1, max_size=5).map(str.encode)


@given(small_bytes, needles)
@settings(max_examples=300)
def test_first_match_fast_equals_reference(buf, target):
    assert rb.first_match_index(buf, target) == rb._first_match_index_reference(
        buf, target
    )


@given(low, low_needles)
@settings(max_examples=300)
def test_first_match_fast_equals_reference_lowentropy(buf, target):
    assert rb.first_match_index(buf, target) == rb._first_match_index_reference(
        buf, target
    )


@given(small_bytes, needles)
@settings(max_examples=300)
def test_last_match_fast_equals_reference(buf, target):
    assert rb.last_match_index(buf, target) == rb._last_match_index_reference(
        buf, target
    )


@given(low, low_needles)
@settings(max_examples=300)
def test_last_match_fast_equals_reference_lowentropy(buf, target):
    assert rb.last_match_index(buf, target) == rb._last_match_index_reference(
        buf, target
    )
