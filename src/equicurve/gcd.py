"""Exact polynomial gcds: Euclid in Q[t], and a primitive remainder sequence in
Q[t][u] for polynomials in a ring of two variables.

A polynomial in Q[t] is a list of Fractions, lowest degree first, with no
trailing zero; [] is zero. A polynomial in Q[t][u] is a list of those, lowest
u-degree first.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial


def uni_divmod(a, b):
    """Quotient and remainder of a by a nonzero b in Q[t]."""
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        c = r[-1] / lead
        k = len(r) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
        while r and not r[-1]:
            r.pop()
    return q, r


def uni_gcd(a, b):
    """Monic gcd of a and b in Q[t] by Euclid's algorithm; [] when both are zero."""
    while b:
        a, b = b, uni_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def _uni_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _primitive(A):
    """The content of A in Q[t][u], the monic gcd of its coefficients, and A
    divided by it."""
    content = []
    for c in A:
        content = uni_gcd(content, c)
    return content, [uni_divmod(c, content)[0] for c in A]


def _uni_sub(a, b):
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
           for i in range(max(len(a), len(b)))]
    while out and not out[-1]:
        out.pop()
    return out


def _pseudo_remainder(A, B):
    """A remainder of A by B in Q[t][u], up to a factor in Q[t]: while
    deg_u A >= deg_u B, A becomes lc(B)*A - lc(A)*u^k*B."""
    R = list(A)
    while len(R) >= len(B):
        k = len(R) - len(B)
        top = R[-1]
        R = [_uni_mul(B[-1], c) for c in R]
        for i, c in enumerate(B):
            R[i + k] = _uni_sub(R[i + k], _uni_mul(top, c))
        while R and not R[-1]:
            R.pop()
    return R


def bivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The gcd of f and g in Q[x, y], for a ring of two variables (x, y), made
    monic in its highest power of x and then of y; zero when both are zero.

    A primitive polynomial remainder sequence in Q[y][x] (Brown, JACM 1971;
    Knuth, TAOCP vol. 2, section 4.6.1): Q[y] is a principal ideal domain, so by
    Gauss's lemma gcd(f, g) is gcd(cont f, cont g) times the gcd of the
    primitive parts, and the primitive part of each pseudo-remainder keeps the
    gcd of the primitive parts while bounding the coefficients. The contents
    are gcds in Q[y], taken by Euclid (``uni_gcd``).
    """
    ring = f.ring
    if g.ring != ring or len(ring) != 2:
        raise ValueError(f"bivariate_gcd needs one ring of two variables, got {ring!r}, {g.ring!r}")

    def recursive(p):
        A = [[] for _ in range(max((a for a, _ in p.terms), default=-1) + 1)]
        for (a, b), c in p.terms.items():
            A[a].extend([Fraction(0)] * (b + 1 - len(A[a])))
            A[a][b] = c
        return A

    cf, A = _primitive(recursive(f))
    cg, B = _primitive(recursive(g))
    while B:  # if deg_u A < deg_u B, the first step swaps them
        A, B = B, _primitive(_pseudo_remainder(A, B))[1]
    content = uni_gcd(cf, cg)
    terms = {(a, b): x for a, c in enumerate(A) for b, x in enumerate(_uni_mul(content, c)) if x}
    out = Polynomial(ring)
    if terms:
        scale = terms[max(terms)]
        out.terms = {m: c / scale for m, c in terms.items()}
    return out
