"""Exact polynomial gcds in one and two variables, on integers.

A polynomial in Z[t] is a list of ints, lowest degree first, with no trailing
zero; [] is zero. One in Z[t][u] is a list of those, lowest u-degree first.

A gcd over Q is unique up to a rational factor, so it is taken of integer
multiples of the inputs. Z and Z[t] are UFDs, so by Gauss's lemma the gcd of A
and B in R[x], for R = Z or Z[t], is gcd(cont A, cont B) * gcd(pp A, pp B):
the content cont is the gcd in R of the coefficients, pp the quotient by it.
The gcd of two primitive parts comes from a primitive remainder sequence
(Brown, JACM 1971; Knuth, TAOCP vol. 2, section 4.6.1): pseudo-remainders
computed fraction-free, each replaced by its primitive part. Only ``uni_gcd``
and ``bivariate_gcd`` leave the integers, and they make the gcd monic; a monic
gcd is unique, so it is the same term for term as Euclid over Q gives.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd

from .poly import Polynomial, integral


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a):
    """a over the gcd of its entries, with a positive leading entry."""
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return a if g == 1 else [x // g for x in a]


def _quo(a, b):
    """The quotient of a by b in Z[t], where b divides a."""
    q, r = [0] * (len(a) - len(b) + 1), list(a)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + len(b) - 1] // b[-1]
        for i, y in enumerate(b):
            r[i + k] -= c * y
    return q


def _uni_gcd(a, b):
    """The gcd of a and b in Z[t], primitive with a positive leading
    coefficient; [] when both are zero."""
    a, b = a and _primitive(a), b and _primitive(b)
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):  # r <- (lc b / d) * r - (lc r / d) * t^k * b
            k, d = len(r) - len(b), gcd(b[-1], r[-1])
            x, y = b[-1] // d, r[-1] // d
            r = [x * c for c in r] if x != 1 else r
            for i, c in enumerate(b):
                r[i + k] -= y * c
            _trim(r)
        a, b = b, r and _primitive(r)
    return [1] if b else a


def _content(A):
    """The content of A in Z[t][u], up to an integer factor, and A over it and
    over its integer content."""
    c = []
    for a in A:
        c = _uni_gcd(c, a)
        if len(c) == 1:
            break
    if len(c) > 1:
        A = [_quo(a, c) for a in A]
    k = gcd(*[x for a in A for x in a])
    return c, A if k in (0, 1) else [[x // k for x in a] for a in A]


def recursive_form(terms):
    """(d, A): d is the lcm of the denominators of the rational coefficients
    {(a, b): coefficient of u^a t^b}, and A is d times that polynomial, in
    Z[t][u]."""
    d, terms = integral(terms)
    A = []
    for (a, b), c in terms.items():
        A.extend([] for _ in range(a + 1 - len(A)))
        A[a].extend([0] * (b + 1 - len(A[a])))
        A[a][b] = c
    return d, A


def recursive_gcd(A, B):
    """A gcd of A and B in Q[t][u], with integer coefficients; [] when both
    are zero."""
    ca, A = _content(A)
    cb, B = _content(B)
    while len(B) > 1:
        R = list(A)
        while len(R) >= len(B):  # R <- (lc B / d) * R - (lc R / d) * u^k * B
            k, d = len(R) - len(B), gcd(*B[-1], *R[-1])
            x, y = [c // d for c in B[-1]], [c // d for c in R[-1]]
            if x != [1]:
                R = [_mul(x, c) for c in R]
            for i, c in enumerate(B):
                R[i + k] = _trim([p - q for p, q in zip_longest(R[i + k], _mul(y, c), fillvalue=0)])
            _trim(R)
        A, B = B, _content(R)[1]
    c = _uni_gcd(ca, cb)
    return [_mul(c, a) for a in ([[1]] if B else A)]  # a nonzero B of u-degree 0 is a unit


def uni_gcd(a, b):
    """Monic gcd in Q[t] of a and b, lists of rationals lowest degree first with
    no trailing zero; [] when both are zero."""
    # each list read as the term dict {degree: coefficient}
    h = _uni_gcd(*[list(integral(dict(enumerate(p)))[1].values()) for p in (a, b)])
    return [Fraction(c, h[-1]) for c in h]


def bivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The gcd of f and g in Q[x, y], for a ring of two variables (x, y), made
    monic in its highest power of x and then of y; zero when both are zero."""
    ring = f.ring
    if g.ring != ring or len(ring) != 2:
        raise ValueError(f"bivariate_gcd needs one ring of two variables, got {ring!r}, {g.ring!r}")
    H = recursive_gcd(recursive_form(f.terms)[1], recursive_form(g.terms)[1])
    out = Polynomial(ring)
    out.terms = {(a, b): Fraction(x, H[-1][-1]) for a, c in enumerate(H) for b, x in enumerate(c) if x}
    return out
