"""The reference slice: a fixed piece of pure-Python work that tells how fast
the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by up to
1.7x over minutes, for every process on it alike. worker.py runs a slice
between entries, outside their timing, and run.py scales each time by
REFERENCE_S over the mean time of the slices run around it, so that the time
reads as it would at the reference speed. The slice uses none of equicurve's code, so a
change to the program cannot move it; it does the same kinds of work as the
program's inner loops (dicts keyed by exponent tuples, Fraction arithmetic
whose integers grow, sparse exact elimination), so the host's drift moves it as
it moves them. A large product tracks the drift better than many small ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# A slice takes this long at the reference speed: a round figure near its mean
# time on a 2-vCPU Intel Xeon virtual machine with Python 3.11.7.
REFERENCE_S = 0.125


def _poly_product(n):
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(n) for j in range(n)}
    q = {(i, j): Fraction(j + 3, i + 1) for i in range(n - 1) for j in range(n - 1)}
    out = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            key = (a + d, b + e)
            s = out.get(key, 0) + c * f
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _rank(n):
    """Rank of a sparse n x n rational matrix, by incremental echelon rows."""
    rows = {}
    rank = 0
    for i in range(n):
        vec = {j: Fraction((i * j) % 7 + 1, j + 1) for j in range(i % 3, n, 2)}
        while vec:
            p = min(vec)
            row = rows.get(p)
            if row is None:
                inv = 1 / vec[p]
                rows[p] = {col: val * inv for col, val in vec.items()}
                rank += 1
                break
            c = vec[p]
            for col, val in row.items():
                s = vec.get(col, 0) - c * val
                if s:
                    vec[col] = s
                else:
                    vec.pop(col, None)
    return rank


def reference_slice() -> float:
    """Run one slice; returns its wall time in seconds."""
    start = time.perf_counter()
    _poly_product(13)
    _rank(40)
    return time.perf_counter() - start
