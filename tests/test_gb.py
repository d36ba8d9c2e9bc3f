"""Groebner/standard bases and the ideal operations built on them."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve import gb
from equicurve.errors import ComputationError, RingMismatchError
from equicurve.gb import Ideal, ideal_intersect, ideal_sum, std_basis
from equicurve.poly import (
    DEGREVLEX,
    LAST_FIRST,
    NEGDEGREVLEX,
    Elimination,
    Polynomial,
    VarSet,
    parse_poly,
)
from gb_reference import exact_divide, ideal_equal, ideal_quotient

XYZ = VarSet(("x", "y", "z"))
UT = VarSet(("u", "t"))


def P(s, ring=XYZ):
    return parse_poly(s, ring)


def I(*gens, ring=XYZ):
    return Ideal([parse_poly(g, ring) for g in gens], ring)


class TestBasics:
    def test_ideal_drops_zero_generators(self):
        assert len(I("x", "0").gens) == 1

    def test_mixed_rings_rejected(self):
        with pytest.raises(RingMismatchError):
            Ideal([P("x"), parse_poly("u", UT)])


class TestGlobalBasis:
    def test_principal(self):
        B = std_basis(I("x"), DEGREVLEX)
        assert [g.render() for g in B.basis] == ["x"]

    def test_membership_classic(self):
        # <x^2 - y, x*y - z> contains x*z - y^2, and the edge cases of the one
        # membership path under every kind of order; rows are (generators, f,
        # member under a global order, member under a local order)
        curve = ("x^2 - y", "x*y - z")
        rows = [
            (curve, "x*z - y^2", True, True),
            (curve, "x", False, False),
            (curve, "0", True, True),
            # a unit is a member only of an ideal that holds a unit, and 1 + x
            # is one only in the local ring
            (curve, "1", False, False),
            (("3", "x*y"), "1", True, True),
            (("1 + x", "y"), "1", False, True),
        ]
        for order in (DEGREVLEX, Elimination(1), NEGDEGREVLEX, LAST_FIRST):
            for gens, f, in_global, in_local in rows:
                member = std_basis(I(*gens), order).contains(P(f))
                assert member is (in_global if order.is_global else in_local), (order.kind, gens, f)
            with pytest.raises(RingMismatchError):
                std_basis(I(*curve), order).contains(parse_poly("u", UT))

    def test_basis_deterministic(self):
        a = std_basis(I("y^3 - x^4", "x*z", "y*z"), DEGREVLEX)
        b = std_basis(I("y*z", "x*z", "y^3 - x^4"), DEGREVLEX)
        assert [g.render() for g in a.basis] == [g.render() for g in b.basis]


class TestLocalBasis:
    def test_unit_multiple_collapses(self):
        # locally u^3 + u^4 = u^3(1 + u) generates <u^3>
        B = std_basis(I("u^3 + u^4", ring=UT), NEGDEGREVLEX)
        assert B.contains(parse_poly("u^3", UT))

    def test_pullback_basis(self):
        B = std_basis(I("u^3", "u^4", "t*u", ring=UT), NEGDEGREVLEX)
        assert sorted(g.render() for g in B.basis) == ["u*t", "u^3"]
        f = parse_poly("u^2 + u^5 + t^2*u^3", UT)
        assert not B.contains(f) and B.contains(f - parse_poly("u^2", UT))

    def test_local_membership_cusp_relation(self):
        # y^3 is x^4 modulo y^3 - x^4 in the local ring, also after a unit
        R = VarSet(("x", "y"))
        B = std_basis(Ideal([parse_poly("y^3 - x^4", R)], R), NEGDEGREVLEX)
        assert B.contains(parse_poly("(1 + x*y)*(y^3 - x^4)", R))
        assert not B.contains(parse_poly("y^3", R))
        assert not B.contains(parse_poly("x^4", R))

    def test_local_basis_keeps_tails_as_computed(self):
        # a local basis comes back with the tails of the dehomogenized basis;
        # its leads and memberships are those of a standard basis of J
        J = I("u^2 - u*t + u^3", "u^3", ring=UT)
        B = std_basis(J, NEGDEGREVLEX)
        assert B.lead_monomials == ((1, 2), (2, 0))
        assert all(B.contains(g) for g in J.gens)
        assert not B.contains(parse_poly("u^2", UT))
        assert B.contains(parse_poly("u*t^2", UT))


MEMO_GENS = ("x^2 + y*z", "y^3 - x*z", "z^2 + x*y^2 + x^3")
MEMO_ORDERS = (DEGREVLEX, NEGDEGREVLEX, Elimination(1), Elimination(2))


def same_basis(A, B):
    return A.order.kind == B.order.kind and A.basis == B.basis and (
        A.lead_monomials == B.lead_monomials
    )


class TestMemo:
    """A ``StandardBasis`` builds its output on first read; no basis is kept
    between ``std_basis`` calls."""

    def test_each_order_gets_its_own_basis(self):
        first = {o.kind: std_basis(I(*MEMO_GENS), o) for o in MEMO_ORDERS}
        again = [std_basis(I(*MEMO_GENS), o) for o in MEMO_ORDERS]
        assert len({B.order.kind for B in again}) == 4
        assert len({B.basis for B in again}) == 4
        for B in again:
            assert same_basis(B, first[B.order.kind])
            assert B is not first[B.order.kind]

    @pytest.mark.parametrize("order", MEMO_ORDERS, ids=lambda o: o.kind)
    def test_repeat_equals_fresh_after_normal_forms(self, order):
        # reading a basis changes it in nothing a later read sees: a
        # membership test builds another basis, of I + <f>
        B = std_basis(I(*MEMO_GENS), order)
        for f in ("x^3*y + z^4", "x*y*z - y^5 + x", "(x + y + z)^4"):
            B.contains(P(f))
            B.contains(P(f))
        assert same_basis(B, std_basis(I(*MEMO_GENS), order))

    @pytest.mark.parametrize(
        "order, rendered",
        [
            (DEGREVLEX, ["x^2 + y*z", "y^3 - x*z", "x*y^2 - x*y*z + z^2", "z^4", "y*z^3",
                         "x*z^3", "y^2*z^2", "x*y*z^2 - z^3"]),
            (NEGDEGREVLEX, ["y^5", "x*y^4", "x*y^2 - x*y*z + z^2", "-y^3 + x*z", "x^2 + y*z"]),
            (Elimination(1), ["z^4", "y*z^3", "y^2*z^2", "y^4*z - z^3", "y^5", "-y^3 + x*z",
                              "-y^4 + x*y^2 + z^2", "x^2 + y*z"]),
            (Elimination(2), ["z^4", "y*z^3", "x*z^3", "y^2*z^2", "x*y*z^2 - z^3",
                              "x^2 + y*z", "y^3 - x*z", "x*y^2 - x*y*z + z^2"]),
        ],
        ids=[o.kind for o in MEMO_ORDERS],
    )
    def test_basis_built_on_first_read(self, order, rendered):
        # the basis is built when first read, before or after reductions, and
        # is the one built with the result
        first = std_basis(I(*MEMO_GENS), order)
        assert [g.render() for g in first.basis] == rendered
        assert first.basis is first.basis
        later = std_basis(I(*MEMO_GENS), order)
        for f in ("x^3*y + z^4", "x*y*z - y^5 + x"):
            later.contains(P(f))
        assert same_basis(later, first)


class TestReductionBudget:
    @pytest.mark.parametrize("order", [DEGREVLEX, NEGDEGREVLEX], ids=lambda o: o.kind)
    def test_budget_is_a_computation_error(self, monkeypatch, order):
        monkeypatch.setattr(gb, "_REDUCTION_CAP", 2)
        with pytest.raises(ComputationError, match="_REDUCTION_CAP = 2 steps"):
            std_basis(I(*MEMO_GENS), order)


class TestIdealOps:
    def test_sum(self):
        s = ideal_sum(I("x"), I("y"))
        assert std_basis(s, DEGREVLEX).contains(P("x + y"))

    def test_intersect_principal(self):
        J = ideal_intersect(I("x"), I("y"))
        assert ideal_equal(J, I("x*y"))

    def test_intersect_vs_sum_containment(self):
        A, B = I("x", "y^2"), I("y", "z")
        inter = ideal_intersect(A, B)
        BA, BB = std_basis(A, DEGREVLEX), std_basis(B, DEGREVLEX)
        for g in inter.gens:
            assert BA.contains(g) and BB.contains(g)

    def test_decomposition_identity(self):
        # <z, y^3-x^4> meet <x^4, x*z, y^2, y*z^2, z^3> recovers the curve ideal
        lhs = ideal_intersect(
            I("z", "y^3 - x^4"), I("x^4", "x*z", "y^2", "y*z^2", "z^3")
        )
        rhs = I("x*z", "y^3 - x^4", "y^2*z", "y*z^2", "z^3")
        assert ideal_equal(lhs, rhs)

    def test_exact_divide(self):
        q = exact_divide(P("x^2*y + x*y^2"), P("x*y"))
        assert q == P("x + y")
        with pytest.raises(ComputationError):
            exact_divide(P("x^2 + y"), P("x"))

    def test_quotient_colon(self):
        # (<x*y, x*z> : x) = <y, z>
        q = ideal_quotient(I("x*y", "x*z"), P("x"))
        assert ideal_equal(q, I("y", "z"))

    def test_quotient_detects_zero_divisor(self):
        # t is a zero divisor mod <u^3, t*u>: (J : t) strictly contains J
        J = I("u^3", "t*u", ring=UT)
        q = ideal_quotient(J, parse_poly("t", UT))
        assert ideal_equal(q, I("u", ring=UT), NEGDEGREVLEX)

    def test_quotient_nzd_fixed_point(self):
        J = I("u^3", ring=UT)
        q = ideal_quotient(J, parse_poly("t", UT))
        assert ideal_equal(q, J, NEGDEGREVLEX)

    def test_equal_is_order_insensitive(self):
        A = I("x + y", "y")
        B = I("x", "y")
        assert ideal_equal(A, B)
        assert ideal_equal(A, B, NEGDEGREVLEX)


# -- randomized properties ----------------------------------------------------

small_polys = st.lists(
    st.sampled_from(
        ["x", "y", "z", "x^2", "x*y", "y^2 - x", "z^2 - x*y", "x + y", "y^3 - x^4"]
    ),
    min_size=1,
    max_size=3,
    unique=True,
)


@given(small_polys, small_polys)
@settings(max_examples=25, deadline=None)
def test_intersection_contained_in_both(gs, hs):
    A, B = I(*gs), I(*hs)
    inter = ideal_intersect(A, B)
    BA = std_basis(A, DEGREVLEX)
    BB = std_basis(B, DEGREVLEX)
    for g in inter.gens:
        assert BA.contains(g) and BB.contains(g)


@given(small_polys, st.sampled_from(["x", "y", "x*y", "x + y"]))
@settings(max_examples=25, deadline=None)
def test_quotient_reverses_multiplication(gs, fs):
    A = I(*gs)
    f = P(fs)
    q = ideal_quotient(A, f)
    BA = std_basis(A, DEGREVLEX)
    for g in q.gens:
        assert BA.contains(g * f)
