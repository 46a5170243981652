"""The shared banded candidate-pair generator against brute force.

``dedup._bucket_candidate_pairs`` is the one within-band pair
generator of the MinHash, SimHash and embedding LSH operators: every
pair of distinct ids sharing a band, except that a band with more than
``MAX_BAND_MEMBERS`` distinct ids contributes only its star (min id,
other member) pairs.
"""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_parser_ray.pipelines import dedup

groups = st.lists(
    st.tuples(st.integers(0, 5), st.integers(-20, 40)), max_size=80
)


def brute_force(rows, cap: int) -> set:
    bands: dict = {}
    for band, doc in rows:
        bands.setdefault(band, set()).add(doc)
    out = set()
    for members in bands.values():
        ids = sorted(members)
        if len(ids) > cap:
            out |= {(ids[0], x) for x in ids[1:]}
        else:
            out |= set(combinations(ids, 2))
    return out


def pair_set(frame: pd.DataFrame) -> set:
    pairs = list(zip(frame["a"].tolist(), frame["b"].tolist()))
    assert len(pairs) == len(set(pairs))  # no duplicate rows
    return set(pairs)


@settings(max_examples=300, deadline=None)
@given(rows=groups, cap=st.integers(1, 6))
def test_band_pairs_match_brute_force(rows, cap):
    g = pd.DataFrame(rows, columns=["band", "id"], dtype="int64")
    with mock.patch.object(dedup, "MAX_BAND_MEMBERS", cap):
        got = dedup._bucket_candidate_pairs(g, "band", "id", "test")
    assert pair_set(got) == brute_force(rows, cap)


def test_over_cap_band_at_the_real_cap():
    """One band over ``MAX_BAND_MEMBERS`` is star-sampled; a small band
    in the same group still yields all its pairs."""
    n = dedup.MAX_BAND_MEMBERS + 5
    rows = [(7, doc) for doc in range(100, 100 + n)] + [(7, 100)]
    rows += [(9, 3), (9, 1), (9, 2)]
    g = pd.DataFrame(rows, columns=["band_key", "doc_id"], dtype="int64")
    got = pair_set(dedup._bucket_candidate_pairs(g))
    assert got == brute_force(rows, dedup.MAX_BAND_MEMBERS)
    assert len(got) == n - 1 + 3
