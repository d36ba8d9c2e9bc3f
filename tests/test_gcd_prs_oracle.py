"""The integer gcds of ``equicurve.gcd`` against Euclid over Q (``oracles``).

Both routes make the gcd monic, so they must give the same polynomial term for
term, with Fraction coefficients, in the same order. The inputs cover zero,
constants, pure powers, negative and ``a/b`` coefficients, and folds over the
cofactors of a pullback ideal as ``localdim._verify_radical_is_axis`` takes
them, where the integer fold must reach the same verdict on h(0) != 0.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve.errors import HypothesisError
from equicurve.gb import Ideal
from equicurve.gcd import bivariate_gcd, recursive_form, recursive_gcd, uni_gcd
from equicurve.localdim import is_cohen_macaulay
from equicurve.poly import Polynomial, VarSet, parse_poly
from oracles import rational_bivariate_gcd, rational_uni_gcd

UT = VarSet(("u", "t"))
US = VarSet(("u", "s"))

coefficients = st.one_of(
    st.integers(-3, 3).filter(bool).map(Fraction),
    st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(2, 6)),
)


def _polys(max_exp, max_terms, min_u=0):
    """Zero, constants, pure powers and sums of a few terms."""
    term = st.tuples(st.tuples(st.integers(min_u, max_exp), st.integers(0, max_exp)), coefficients)
    sums = st.lists(term, max_size=max_terms).map(dict)
    power = st.builds(lambda a, b, c: {(a, b): c}, st.integers(min_u, max_exp),
                      st.integers(0, max_exp), coefficients)
    constant = coefficients.map(lambda c: {(min_u, 0): c})
    return st.one_of(sums, power, constant, st.just({})).map(lambda d: Polynomial(UT, d))


@st.composite
def gcd_pairs(draw):
    """(f*h, g*h): a common factor h, often a pure power or a constant."""
    h = draw(_polys(2, 3))
    return draw(_polys(3, 4)) * h, draw(_polys(3, 4)) * h


def assert_same_terms(ours, oracle):
    assert list(ours.terms.items()) == list(oracle.terms.items())
    assert all(type(c) is Fraction for c in ours.terms.values())


@given(gcd_pairs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_bivariate_gcd_matches_the_rational_prs(pair):
    f, g = pair
    assert_same_terms(bivariate_gcd(f, g), rational_bivariate_gcd(f, g))
    assert_same_terms(bivariate_gcd(g, f), rational_bivariate_gcd(f, g))


uni_polys = st.lists(st.one_of(st.just(Fraction(0)), coefficients), max_size=5).map(
    lambda cs: cs[:max((i + 1 for i, c in enumerate(cs) if c), default=0)]
)


@given(uni_polys, uni_polys, uni_polys)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_uni_gcd_matches_the_rational_euclid(a, b, h):
    def mul(x, y):
        if not x or not y:
            return []
        out = [Fraction(0)] * (len(x) + len(y) - 1)
        for i, p in enumerate(x):
            for j, q in enumerate(y):
                out[i + j] += p * q
        return out

    a, b = mul(a, h), mul(b, h)
    ours = uni_gcd(a, b)
    assert ours == rational_uni_gcd(a, b)
    assert all(type(c) is Fraction for c in ours)


@pytest.mark.parametrize(
    "a, b",
    [([], []), ([], [Fraction(-3, 2)]), ([0, 0, Fraction(-2)], [0, Fraction(4)]),
     ([Fraction(1, 3), 0, Fraction(-1, 3)], [Fraction(-2), Fraction(2)])],
)
def test_uni_gcd_rows(a, b):
    assert uni_gcd(a, b) == rational_uni_gcd(a, b)


@st.composite
def cofactor_sequences(draw):
    """Generators u^a * t^b * ... with every a >= 1, as in a pullback ideal,
    and their cofactors by the least power of u, which may share a factor."""
    gens = draw(st.lists(_polys(5, 4, min_u=1).filter(lambda p: not p.is_zero()),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        common = draw(_polys(2, 3).filter(lambda p: not p.is_zero()))
        gens = [g * common for g in gens]
    e = min(a for g in gens for a, _ in g.terms)
    return gens, e, [Polynomial(UT, {(a - e, b): c for (a, b), c in g.terms.items()}) for g in gens]


def _monic(H):
    lead = H[-1][-1]
    return Polynomial(UT, {(a, b): Fraction(x, lead)
                           for a, c in enumerate(H) for b, x in enumerate(c) if x})


@given(cofactor_sequences())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_cofactor_fold_matches_the_rational_prs(case):
    gens, e, cofactors = case
    h_int, h_rat = [], Polynomial(UT)
    for c in cofactors:
        h_int = recursive_gcd(h_int, recursive_form(c.terms)[1])
        h_rat = rational_bivariate_gcd(h_rat, c)
        assert_same_terms(_monic(h_int), h_rat)
        assert bool(h_int[0] and h_int[0][0]) == (h_rat.constant_term() != 0)
    # the radical check holds iff the gcd of all the cofactors is a unit at
    # the origin
    if h_rat.constant_term():
        assert is_cohen_macaulay(Ideal(gens, UT)).multiplicity == e
    else:
        with pytest.raises(HypothesisError, match="no power of u lies in the ideal"):
            is_cohen_macaulay(Ideal(gens, UT)).multiplicity


def test_local_degree_gcd_of_u15():
    # Euclid over Q takes seconds on this pair; the integer sequence a few ms
    f = parse_poly("u^15 - s^15", US)
    g = parse_poly(" + ".join(f"u^{k} - s^{k}" for k in range(17, 29)), US)
    assert bivariate_gcd(f, g) == parse_poly("u - s", US)
