"""``FamilyComponent.specialize``, which evaluates the integer table of a
component, against the term-by-term evaluation in Fractions
(``oracles.specialize_by_terms``): the same branch terms, or the same error
with the same text."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve.errors import ComputationError
from equicurve.family import RING_UT, FamilyComponent
from equicurve.poly import Polynomial, parse_poly
from oracles import specialize_by_terms

coefficients = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(2, 9)),
)
# u-exponent 0 gives terms in t alone; (0, 0) is left out, so that every
# coordinate vanishes at the origin
monomials = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any)
coordinates = st.one_of(
    st.just({}),
    st.dictionaries(st.tuples(st.just(0), st.integers(1, 4)), coefficients, min_size=1, max_size=3),
    st.dictionaries(monomials, coefficients, max_size=6),
).map(lambda d: Polynomial(RING_UT, d))
components = st.lists(coordinates, min_size=1, max_size=3).filter(
    lambda ps: any(not p.is_zero() for p in ps))
points = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1), Fraction(-5, 9))),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)


def outcome(specialize, component, t0):
    try:
        branch = specialize(component, t0)
    except ComputationError as exc:
        return type(exc), str(exc)
    return [sorted(f.terms.items()) for f in branch.components], branch.label


@given(components, points)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_specialize_matches_the_term_by_term_oracle(param, t0):
    c = FamilyComponent(param, label="X")
    want = outcome(specialize_by_terms, c, t0)
    assert outcome(FamilyComponent.specialize, c, t0) == want
    # again, from the branch kept at t0 = 0
    assert outcome(FamilyComponent.specialize, c, t0) == want
    if isinstance(want[0], list):
        branch = c.specialize(t0)
        assert all(type(x) is Fraction for f in branch.components for x in f.terms.values())


def test_zero_branch_error_text():
    c = FamilyComponent([parse_poly(s, RING_UT) for s in ("t*u", "t*u^2", "0")], label="X")
    message = "component 'X' specializes to the zero branch at t = 0"
    with pytest.raises(ComputationError) as oracle:
        specialize_by_terms(c, 0)
    assert str(oracle.value) == message
    with pytest.raises(ComputationError) as ours:
        c.specialize(0)
    assert str(ours.value) == message


def test_special_branch_is_built_once():
    c = FamilyComponent([parse_poly(s, RING_UT) for s in ("u^2 + t*u", "u^3")])
    assert c.specialize(0) is c.specialize(Fraction(0))
    assert c.specialize(1) is not c.specialize(1)
