"""Independent routes that only tests use: polynomial substitution, and the
delta invariant of a monomial branch counted as the gaps of its semigroup."""

from __future__ import annotations

import math

from equicurve.errors import ComputationError
from equicurve.poly import Polynomial


def substitute(f: Polynomial, mapping, target=None) -> Polynomial:
    """Evaluate f with each variable replaced by a polynomial over ``target``.

    Variables absent from ``mapping`` must exist in the target ring and map
    to themselves.
    """
    target = target or f.ring
    images = []
    for name in f.ring.names:
        if name in mapping:
            img = mapping[name]
            if not isinstance(img, Polynomial):
                img = Polynomial.const(target, img)
            images.append(img)
        else:
            images.append(Polynomial.var(target, name))
    result = Polynomial.zero(target)
    pow_cache = [dict() for _ in images]
    for m, c in f.terms.items():
        part = Polynomial.const(target, c)
        for i, e in enumerate(m):
            if e == 0:
                continue
            if e not in pow_cache[i]:
                pow_cache[i][e] = images[i] ** e
            part = part * pow_cache[i][e]
        result = result + part
    return result


def semigroup_delta_oracle(b) -> int:
    """Gap count of the numerical semigroup generated by the exponents of a
    branch whose components are single monomials (or zero)."""
    comps = [c for c in b.components if not c.is_zero()]
    if any(len(c.terms) != 1 for c in comps):
        raise ComputationError("oracle needs a branch with single-monomial components")
    exps = sorted({c.min_degree() for c in comps})
    g = 0
    for e in exps:
        g = math.gcd(g, e)
    if g != 1:
        raise ComputationError(f"exponent gcd {g} > 1: branch is not a normalization")
    smallest = exps[0]
    if smallest == 1:
        return 0
    limit = max(exps) * smallest + 1
    while True:
        reachable = [False] * limit
        reachable[0] = True
        for n in range(1, limit):
            reachable[n] = any(n >= e and reachable[n - e] for e in exps)
        run = 0
        for n in range(limit - 1, 0, -1):
            if reachable[n]:
                run += 1
                if run >= smallest:
                    return sum(1 for n in range(1, limit) if not reachable[n])
            else:
                break
        limit *= 2
