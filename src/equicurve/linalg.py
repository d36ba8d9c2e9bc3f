"""Exact linear algebra over the rationals: incremental echelon spans.

Vectors are sparse dicts mapping column index to a nonzero integer: a vector
over Q is a rational multiple of an integer one, and scaling it changes no
span, so callers scale their vectors to integers. A span stores each row as a
primitive integer vector: integer entries with gcd 1 and a positive pivot.
Elimination is fraction-free (Bareiss, Math. Comp. 1968): a vector is scaled
by an integer before a row is subtracted and divided by its content
afterwards, so it only changes by nonzero rational factors. Ranks and
memberships over Q are therefore decided exactly; no numerical tolerance
enters anywhere. ``_reduce`` is the one elimination, for ``RowSpace`` and for
``pivots``.
"""

from __future__ import annotations

from math import gcd


def _reduce(rows, vec):
    """The remainder of the integer vector vec, which it consumes, against the
    echelon rows {pivot column: integer row}.

    For a row with pivot a and an entry c of vec at that column, vec becomes
    vec*(a/g) - row*(c/g) with g = gcd(a, c); the remainder is a nonzero
    multiple of the rational one, so it is empty exactly when vec lies in the
    span of the rows.
    """
    while vec:
        p = min(vec)
        row = rows.get(p)
        if row is None:
            return vec
        a = row[p]
        c = vec[p]
        g = gcd(a, c)
        scale = a // g
        if scale != 1:
            for col in vec:
                vec[col] *= scale
        c //= g
        for col, val in row.items():
            s = vec.get(col, 0) - c * val
            if s:
                vec[col] = s
            else:
                vec.pop(col, None)
        if scale != 1 and vec:
            h = gcd(*vec.values())
            if h != 1:
                vec = {col: val // h for col, val in vec.items()}
    return vec


def pivots(vectors) -> list:
    """The pivot columns of an echelon form of the integer vectors: the least
    column of each vector independent of those before it, once reduced. A row
    kept here need not be primitive, as ``_reduce`` only needs its pivot to be
    nonzero."""
    rows = {}
    for vec in vectors:
        red = _reduce(rows, dict(vec))
        if red:
            rows[min(red)] = red
    return list(rows)


class RowSpace:
    """Incrementally built row space of integer vectors in echelon form, for rank
    and membership queries. Neither ``add`` nor ``contains`` changes the
    vector it is given: ``_reduce`` works on a copy."""

    def __init__(self):
        self.rows = {}  # pivot column -> primitive integer row, positive pivot

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec) -> bool:
        """Add a vector to the span; True if it was independent of the current span."""
        red = _reduce(self.rows, dict(vec))
        if not red:
            return False
        p = min(red)
        h = gcd(*red.values())
        if red[p] < 0:
            h = -h
        self.rows[p] = {col: val // h for col, val in red.items()} if h != 1 else red
        return True

    def contains(self, vec) -> bool:
        return not _reduce(self.rows, dict(vec))
