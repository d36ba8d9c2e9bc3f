"""Cross-checks of the Groebner layer against sympy on seeded random ideals.

Under degrevlex the reduced Groebner basis of an ideal is unique, so
``std_basis`` must return exactly the polynomials ``sympy.groebner`` returns
(both are reduced and monic). Intersections are checked against an elimination
done by sympy with lex order. The module is skipped when sympy is missing.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve.gb import Ideal, ideal_intersect, std_basis
from equicurve.poly import DEGREVLEX, Polynomial, VarSet

sympy = pytest.importorskip("sympy")

RINGS = (VarSet(("x", "y")), VarSet(("x", "y", "z")))


def _polys(nvars, max_exp):
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * nvars),
        st.integers(-3, 3).filter(bool),
    )
    return st.lists(term, min_size=1, max_size=3).map(dict)


def _ideal(draw, ring, max_gens, max_exp):
    gens = draw(st.lists(_polys(len(ring), max_exp), min_size=2, max_size=max_gens))
    polys = [p for p in (Polynomial(ring, terms) for terms in gens) if not p.is_zero()]
    return Ideal(polys or [Polynomial.const(ring, 1)], ring)


@st.composite
def ideals(draw):
    return _ideal(draw, draw(st.sampled_from(RINGS)), max_gens=3, max_exp=3)


@st.composite
def ideal_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    return _ideal(draw, ring, 2, 2), _ideal(draw, ring, 2, 2)


def _symbols(ring):
    return sympy.symbols(ring.names)


def _to_sympy(p, gens):
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()},
        *gens,
        domain=sympy.QQ,
    ).as_expr()


def _from_sympy(expr, gens, ring):
    d = sympy.Poly(expr, *gens, domain=sympy.QQ).as_dict(native=False)
    return Polynomial(ring, {m: Fraction(int(c.p), int(c.q)) for m, c in d.items()})


def _sympy_basis(exprs, gens, ring):
    G = sympy.groebner(exprs, *gens, order="grevlex", domain=sympy.QQ)
    return {_from_sympy(g, gens, ring) for g in G.exprs}


@given(ideals())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_degrevlex_basis_matches_sympy(I):
    gens = _symbols(I.ring)
    expected = _sympy_basis([_to_sympy(g, gens) for g in I.gens], gens, I.ring)
    assert set(std_basis(I, DEGREVLEX).basis) == expected


@given(ideal_pairs())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_intersection_matches_sympy_elimination(pair):
    I, J = pair
    gens = _symbols(I.ring)
    w = sympy.Symbol("w")
    lifted = [w * _to_sympy(g, gens) for g in I.gens]
    lifted += [(1 - w) * _to_sympy(g, gens) for g in J.gens]
    E = sympy.groebner(lifted, w, *gens, order="lex", domain=sympy.QQ)
    eliminated = [g for g in E.exprs if not g.has(w)]
    expected = _sympy_basis(eliminated, gens, I.ring)
    assert set(std_basis(ideal_intersect(I, J), DEGREVLEX).basis) == expected
