"""``FamilyComponent.specialize``, which evaluates the integer table of a
component straight into jets, against the term-by-term evaluation in Fractions
(``oracles.specialize_by_terms``): the same jets and the same branch terms,
rendered from the jets, or the same error with the same text."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve import curveinv, family
from equicurve.curveinv import RING_U, BranchParam
from equicurve.errors import ComputationError
from equicurve.family import RING_UT, FamilyComponent, Parametrized, classify
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
    return [sorted(f.terms.items()) for f in branch.components], branch.jets, branch.label


@given(components, points)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_specialize_matches_the_term_by_term_oracle(param, t0):
    c = FamilyComponent(param, label="X")
    want = outcome(specialize_by_terms, c, t0)
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


def test_classify_specializes_each_component_at_zero_once(monkeypatch):
    # the special branch's exponent gcd is read off the table, so the branch
    # at t = 0 is built for the special fiber alone: once per component, the
    # reparametrized one and the class-B one included
    calls = Counter()
    specialize = FamilyComponent.specialize

    def counted(c, t0):
        calls[c.label, Fraction(t0)] += 1
        return specialize(c, t0)

    monkeypatch.setattr(FamilyComponent, "specialize", counted)
    parts = (("u^2", "u^3", "t*u"), ("u^2", "u^6", "t*u^2"), ("t + u^4", "u^2", "t*u^2"))
    classify(Parametrized(components=tuple(
        FamilyComponent([parse_poly(s, RING_UT) for s in p], label=str(i)) for i, p in enumerate(parts))))
    assert {key: n for key, n in calls.items() if not key[1]} == {("0", 0): 1, ("1", 0): 1, ("2", 0): 1}


def test_specialize_reads_only_t0_into_a_fraction(monkeypatch):
    # the jets come from the integer table alone: one Fraction, for t0, and
    # no Polynomial, per call
    calls = Counter()

    def counted(name, make):
        def call(*args):
            calls[name] += 1
            return make(*args)
        return call

    for module in (family, curveinv):
        monkeypatch.setattr(module, "Fraction", counted("Fraction", Fraction))
        monkeypatch.setattr(module, "Polynomial", counted("Polynomial", Polynomial))
    c = FamilyComponent([parse_poly(s, RING_UT) for s in ("u^2 - 2/3*t*u^3", "1/5*u^3 + t^2*u", "t*u^4")])
    points = (0, 1, Fraction(-5, 9), Fraction(7, 4))
    for t0 in points:
        assert c.specialize(t0).jets
    assert calls == {"Fraction": len(points)}


u_polys = st.dictionaries(st.tuples(st.integers(1, 6)), coefficients, max_size=4).map(
    lambda d: Polynomial(RING_U, d))


@given(st.lists(u_polys, min_size=1, max_size=3).filter(lambda ps: any(p.terms for p in ps)))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_components_round_trip_through_the_jets(polys):
    # a parsed branch renders from its jets the Polynomials it was read from,
    # and so does a branch built from those jets
    parsed = BranchParam(polys)
    assert parsed.components == BranchParam.from_jets(parsed.jets).components == tuple(polys)
    assert all(type(x) is Fraction for p in parsed.components for x in p.terms.values())
