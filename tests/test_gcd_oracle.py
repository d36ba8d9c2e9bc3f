"""Cross-check of ``gcd.bivariate_gcd`` against ``sympy.gcd`` on seeded random
polynomials in two variables that share a random factor. The two gcds must
agree up to a nonzero rational factor. The module is skipped when sympy is
missing.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve.gcd import bivariate_gcd, uni_gcd
from equicurve.poly import Polynomial, VarSet

sympy = pytest.importorskip("sympy")

UT = VarSet(("u", "t"))
U, T = sympy.symbols("u t")


def _polys(max_exp, max_terms, min_terms=0):
    term = st.tuples(st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
                     st.integers(-3, 3).filter(bool))
    return st.lists(term, min_size=min_terms, max_size=max_terms).map(lambda ts: Polynomial(UT, dict(ts)))


@st.composite
def gcd_cases(draw):
    """f*h and g*h: a common factor h, so that the gcd is often not a constant."""
    h = draw(_polys(2, 3, min_terms=1))
    return draw(_polys(3, 4)) * h, draw(_polys(3, 4)) * h


def _to_sympy(p):
    return sum(sympy.Rational(c.numerator, c.denominator) * U**a * T**b
               for (a, b), c in p.terms.items())


def _same_up_to_a_scalar(ours, theirs):
    if theirs == 0:
        return ours.is_zero()
    ratio = sympy.cancel(_to_sympy(ours) / theirs)
    return ratio.is_number and ratio != 0


@given(gcd_cases())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_bivariate_gcd_matches_sympy(case):
    f, g = case
    ours = bivariate_gcd(f, g)
    assert _same_up_to_a_scalar(ours, sympy.gcd(_to_sympy(f), _to_sympy(g)))
    if not ours.is_zero():
        assert ours.terms[max(ours.terms)] == 1


@given(st.lists(st.integers(-4, 4), max_size=5), st.lists(st.integers(-4, 4), max_size=5),
       st.lists(st.integers(-4, 4), max_size=3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_uni_gcd_matches_sympy(a, b, h):
    def poly(cs):
        return sympy.Poly(list(reversed(cs)) or [0], T, domain=sympy.QQ)

    def coeffs(p):
        out = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
        while out and not out[-1]:
            out.pop()
        return out

    A, B = poly(a) * poly(h), poly(b) * poly(h)
    expected = sympy.gcd(A, B)
    expected = expected.monic() if not expected.is_zero else expected
    assert uni_gcd(coeffs(A), coeffs(B)) == coeffs(expected)
