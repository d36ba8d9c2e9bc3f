"""Echelon row spaces: rank and membership over the rationals."""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve.linalg import RowSpace, pivots

COLUMNS = 7


def oracle_rank(vectors):
    """Rank by Gaussian elimination on Fraction rows: the reference for RowSpace."""
    rows = [[Fraction(v.get(c, 0)) for c in range(COLUMNS)] for v in vectors]
    rank = 0
    for col in range(COLUMNS):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def combine(coeffs, vectors):
    out = {}
    for c, v in zip(coeffs, vectors):
        for col, x in v.items():
            out[col] = out.get(col, 0) + c * x
    return {col: x for col, x in out.items() if x}


rationals = st.builds(
    Fraction,
    st.integers(-12, 12).filter(bool),
    st.sampled_from([1, 1, 2, 3, 4, 6, 35]),
)
sparse = st.dictionaries(st.integers(0, COLUMNS - 1), rationals, max_size=5)
# a content above 1 after clearing denominators, e.g. 6*(2, 4/3) = (12, 8)
scales = st.sampled_from([1, 1, 6, -10, Fraction(21, 4)])


def integral(vec):
    """vec times the lcm of its denominators: a row space takes integer vectors."""
    d = math.lcm(*[Fraction(x).denominator for x in vec.values()])
    return {col: int(x * d) for col, x in vec.items()}


@st.composite
def spans(draw):
    """Integer vectors to add, some of them rational combinations of earlier
    ones, and queries."""
    vectors = []
    for _ in range(draw(st.integers(1, 9))):
        if vectors and draw(st.booleans()):
            coeffs = draw(st.lists(rationals, min_size=len(vectors), max_size=len(vectors)))
            v = combine(coeffs, vectors)
        else:
            v = draw(sparse)
        s = draw(scales)
        vectors.append(integral({col: s * x for col, x in v.items()}))
    queries = [integral(draw(sparse)) for _ in range(3)]
    coeffs = draw(st.lists(rationals, min_size=len(vectors), max_size=len(vectors)))
    queries.append(integral(combine(coeffs, vectors)))
    return vectors, queries


@given(spans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rank_and_membership_match_fraction_elimination(case):
    vectors, queries = case
    span = RowSpace()
    for k, v in enumerate(vectors):
        independent = oracle_rank(vectors[: k + 1]) > oracle_rank(vectors[:k])
        assert span.add(v) is independent
        assert span.rank == oracle_rank(vectors[: k + 1])
    for q in queries:
        assert span.contains(q) is (oracle_rank(vectors + [q]) == span.rank)
    for row in span.rows.values():
        assert all(type(x) is int for x in row.values())
        assert row[min(row)] > 0 and math.gcd(*row.values()) == 1


integers = st.integers(-12, 12).filter(bool)


@given(st.lists(st.dictionaries(st.integers(0, COLUMNS - 1), integers, max_size=5), max_size=9))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_pivots_are_those_of_a_row_space(vectors):
    # the same elimination with unnormalized rows: the same pivot columns, in
    # the order their vectors come
    span = RowSpace()
    for v in vectors:
        span.add(v)
    assert pivots(vectors) == list(span.rows)


@given(st.lists(st.dictionaries(st.integers(0, COLUMNS - 1), integers, max_size=5), max_size=9))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_vectors_are_left_as_given(vectors):
    # the closure queues each vector it adds, and ``pivots``' callers read
    # their vectors again, so a span works on a copy; ``add`` answers a bool,
    # which the benchmark's tracer counts independent adds by
    given_vectors = [dict(v) for v in vectors]
    span = RowSpace()
    for v in vectors:
        assert type(span.add(v)) is bool
        assert type(span.contains(v)) is bool
    pivots(vectors)
    assert vectors == given_vectors
