"""Exact rational linear algebra: incremental echelon spans.

Vectors are sparse dicts mapping column index to a nonzero Fraction. Ranks and
memberships are decided exactly; no numerical tolerance enters anywhere.
"""

from __future__ import annotations


class RowSpace:
    """Incrementally built row space in echelon form, for rank and membership queries."""

    def __init__(self):
        self.rows = {}  # pivot column -> row (dict col -> Fraction, pivot coeff 1)

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        vec = dict(vec)
        while vec:
            p = min(vec)
            row = self.rows.get(p)
            if row is None:
                return vec
            c = vec[p]
            for col, val in row.items():
                s = vec.get(col, 0) - c * val
                if s:
                    vec[col] = s
                else:
                    vec.pop(col, None)
        return vec

    def add(self, vec) -> bool:
        """Add a vector to the span; True if it was independent of the current span."""
        red = self._reduce(vec)
        if not red:
            return False
        p = min(red)
        inv = 1 / red[p]
        self.rows[p] = {col: val * inv for col, val in red.items()}
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(vec)
