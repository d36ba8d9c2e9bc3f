"""Family classification: pullbacks, fiber specialization, connectivity and the
equisingularity verdicts with their cross-checked routes."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve.cli import run_paper_corpus
from equicurve.curveinv import RING_U, BranchParam, CurvePresentation, invariants
from equicurve.errors import ComputationError, HypothesisError
from equicurve.family import (
    RING_UT,
    Declared,
    FamilyComponent,
    GenericAssertions,
    Parametrized,
    _generic_samples,
    classify,
    connectivity,
    pullback_ideal,
    specialize_fiber,
)
from equicurve.gb import Ideal
from equicurve.gcd import recursive_form
from equicurve.localdim import is_cohen_macaulay
from equicurve.poly import NEGDEGREVLEX, Polynomial, VarSet, parse_poly
from gb_reference import ideal_equal
from oracles import substitute

XYZ = VarSet(("x", "y", "z"))


def comp(*polys, label=""):
    return FamilyComponent([parse_poly(s, RING_UT) for s in polys], label=label)


def special_fiber(F):
    """The special fiber of F as ``classify`` builds it: every component at
    t = 0, with the family's ideal."""
    return CurvePresentation([c.specialize(0) for c in F.components], ideal=F.special_ideal)


def ut_ideal(*gens):
    return Ideal([parse_poly(g, RING_UT) for g in gens], RING_UT)


def xyz_ideal(*gens):
    return Ideal([parse_poly(g, XYZ) for g in gens], XYZ)


def cusp_family_a():
    """Deformation (u^3, u^4, t*u) with the embedded point of its special fiber."""
    return Parametrized(
        components=(comp("u^3", "u^4", "t*u", label="X"),),
        special_ideal=xyz_ideal("x*z", "y^3 - x^4", "y^2*z", "y*z^2", "z^3"),
    )


def cusp_family_b():
    """Deformation (u^3, u^4, t*u^5) with the embedded point of its special fiber."""
    return Parametrized(
        components=(comp("u^3", "u^4", "t*u^5", label="X"),),
        special_ideal=xyz_ideal("x*z", "y*z", "z^2", "y^3 - x^4"),
    )


class TestFamilyComponent:
    def test_class_a_when_section_contained(self):
        assert comp("u^3", "u^4", "t*u").component_class() == "A"

    def test_class_b_when_section_missed(self):
        assert comp("u + t", "u").component_class() == "B"

    def test_rejects_component_off_origin(self):
        with pytest.raises(ComputationError):
            comp("1 + u", "t*u")

    def test_reparametrization(self):
        # built normalized by u -> u^(1/2), its table the rows A[::2]
        c = comp("u^2", "u^6", "t*u^2")
        assert repr(c) == "FamilyComponent(u, u^3, u*t)"
        assert c.table == [recursive_form(p.terms) for p in c.param]

    @pytest.mark.parametrize("t0", [0, 1, Fraction(-5, 9), 2])
    def test_specialize_matches_substitution(self, t0):
        # terms cancel at t0 = 1 (u^2) and t0 = 2 (u); u^4*t drops out at t0 = 0
        c = comp("u^2*t - u^2 + u^2*t^2 + 3*u^3", "t^2*u - 4*u + u^3", "(t - 2)^3*u + u^4*t")
        got = c.specialize(t0)
        for p, q in zip(c.param, got.components):
            expected = substitute(p, {"t": Polynomial.const(RING_U, t0)}, RING_U)
            assert q == expected and list(q.terms) == list(expected.terms)


class TestPullback:
    def test_moving_tangent(self):
        J = pullback_ideal(comp("u^3", "u^4", "t*u"))
        assert ideal_equal(J, ut_ideal("u^3", "t*u"), NEGDEGREVLEX)

    def test_high_order_deformation_is_principal_locally(self):
        J = pullback_ideal(comp("u^3", "u^4", "t*u^5"))
        assert ideal_equal(J, ut_ideal("u^3"), NEGDEGREVLEX)

    def test_smooth_line(self):
        J = pullback_ideal(comp("u", "0", "0"))
        assert ideal_equal(J, ut_ideal("u"), NEGDEGREVLEX)


def special_multiplicity(J):
    return is_cohen_macaulay(J).length


def generic_multiplicity(F):
    return sum(
        is_cohen_macaulay(pullback_ideal(c)).multiplicity for c in F.components if c.component_class() == "A"
    )


class TestMultiplicities:
    def test_special(self):
        assert special_multiplicity(ut_ideal("u^3", "t*u")) == 3
        assert special_multiplicity(ut_ideal("u^3")) == 3
        assert special_multiplicity(ut_ideal("u")) == 1

    def test_generic_on_ideal(self):
        assert is_cohen_macaulay(ut_ideal("u^3", "t*u")).multiplicity == 1
        assert is_cohen_macaulay(ut_ideal("u^3")).multiplicity == 3

    def test_generic_on_family(self):
        assert generic_multiplicity(cusp_family_a()) == 1
        assert generic_multiplicity(cusp_family_b()) == 3

    def test_special_matches_specialized_branch_orders(self):
        for F in (cusp_family_a(), cusp_family_b()):
            total = sum(
                special_multiplicity(pullback_ideal(c)) for c in F.components
            )
            assert total == invariants(special_fiber(F)).m


class TestSpecialization:
    def test_special_fiber_merges_override(self):
        F = cusp_family_a()
        C0 = special_fiber(F)
        # the special fiber carries the family's ideal, and with it its epsilon;
        # a family takes no decomposition
        assert C0.ideal is F.special_ideal
        assert invariants(C0).epsilon == 3
        with pytest.raises(TypeError):
            Parametrized(components=F.components, special_decomposition=F.special_ideal)
        assert [p.render() for p in C0.branches[0].components] == ["u^3", "u^4", "0"]

    def test_generic_fiber_substitutes(self):
        C = specialize_fiber(cusp_family_b(), 1)
        assert [p.render() for p in C.branches[0].components] == ["u^3", "u^4", "u^5"]

    def test_generic_fiber_drops_class_b(self):
        F = Parametrized(
            components=(comp("u^2", "u^3", "0"), comp("u + t", "u", "0")),
        )
        assert len(special_fiber(F).branches) == 2
        assert len(specialize_fiber(F, Fraction(1, 2)).branches) == 1

    def test_product_family_constant(self):
        F = Parametrized(components=(comp("u^2", "u^3"),))
        for C in (special_fiber(F), specialize_fiber(F, 1), specialize_fiber(F, Fraction(-5, 9))):
            assert [p.render() for p in C.branches[0].components] == ["u^2", "u^3"]

    def test_zero_specialization_rejected(self):
        F = Parametrized(components=(comp("t*u", "t*u^2"),))
        with pytest.raises(ComputationError):
            special_fiber(F)
        with pytest.raises(ValueError):  # classify builds the special fiber itself
            specialize_fiber(F, 0)


def classes(F):
    """(#class A, #class B) over the components of F."""
    n_b = sum(c.component_class() == "B" for c in F.components)
    return len(F.components) - n_b, n_b


class TestConnectivity:
    def test_irreducible(self):
        assert connectivity(*classes(cusp_family_a())) == 1

    def test_two_class_a_components_stay_connected(self):
        F = Parametrized(
            components=(comp("u^2", "u^3", "t*u^4"), comp("0", "0", "u")),
        )
        assert connectivity(*classes(F)) == 1

    def test_class_b_components_disconnect(self):
        F = Parametrized(
            components=(comp("u^2", "u^3", "0"), comp("u + t", "u", "0")),
        )
        assert connectivity(*classes(F)) == 2


class TestClassify:
    def test_moving_tangent_family(self):
        rep = classify(cusp_family_a())
        v, inv0, inv_t = rep["verdict"], rep["special"]["invariants"], rep["generic"]["invariants"]
        assert inv0["m"] == 3 and inv_t["m"] == 1
        assert inv0["mu"] == 0 and inv_t["mu"] == 0
        assert v["topologically_trivial"] and not v["whitney"]
        assert not v["strong_simultaneous_resolution"]
        assert v["cm_by_component"] == [{"label": "X", "is_cm": False, "length": 3, "multiplicity": 1}]

    def test_high_order_deformation_family(self):
        rep = classify(cusp_family_b())
        v, inv0, inv_t = rep["verdict"], rep["special"]["invariants"], rep["generic"]["invariants"]
        assert inv0["mu"] == inv_t["mu"] == 4
        assert inv0["m"] == inv_t["m"] == 3
        assert v["topologically_trivial"] and v["whitney"] and v["strong_simultaneous_resolution"]
        assert v["cm_by_component"] == [{"label": "X", "is_cm": True, "length": 3, "multiplicity": 3}]

    def test_constant_product_family_all_true(self):
        v = classify(Parametrized(components=(comp("u^2", "u^3"),)))["verdict"]
        assert v["topologically_trivial"] and v["whitney"] and v["strong_simultaneous_resolution"]

    def test_declared_mode_five_lines(self):
        R5 = VarSet(("x", "y", "z", "w", "v"))
        U = VarSet(("u",))

        def b(*cs):
            return BranchParam([parse_poly(c, U) for c in cs])

        def i5(*gs):
            return Ideal([parse_poly(g, R5) for g in gs], R5)

        ideal = i5(
            "x*z", "y*z", "x*w", "y*w", "z*w", "w^2",
            "x*v", "y*v", "z*v", "w*v", "x^2*y + x*y^2",
        )
        C = CurvePresentation(
            [
                b("u", "0", "0", "0", "0"),
                b("0", "u", "0", "0", "0"),
                b("u", "-u", "0", "0", "0"),
                b("0", "0", "u", "0", "0"),
                b("0", "0", "0", "0", "u"),
            ],
            ideal=ideal,
        )
        rep = classify(Declared(C, (2, 1), GenericAssertions(mu=4, m=3, r=3)))
        inv0, v = rep["special"]["invariants"], rep["verdict"]
        assert [inv0[k] for k in ("epsilon", "delta_red", "mu_red", "mu", "m")] == [1, 5, 6, 4, 5]
        assert v["b0_generic_fiber"] == 2 and v["cm_by_component"] == []
        assert not v["topologically_trivial"] and not v["whitney"]
        assert rep["generic"]["t_samples"] == []

    def test_declared_mode_inconsistent_assertions(self):
        F = Declared(
            CurvePresentation(
                [BranchParam([parse_poly("u^2", VarSet(("u",))),
                              parse_poly("u^3", VarSet(("u",)))])]
            ),
            (1, 0),
            GenericAssertions(mu=2, m=2, r=2),  # mu + r - 1 odd
        )
        with pytest.raises(HypothesisError):
            classify(F)

    def test_reparametrized_family(self):
        rep = classify(Parametrized(components=(comp("u^2", "u^6", "t*u^2"),)))
        assert rep["special"]["invariants"]["m"] == rep["generic"]["invariants"]["m"] == 1
        assert rep["verdict"]["whitney"]

    def test_class_b_component_is_normalized_as_class_a_is(self):
        # the second component meets the section only at the origin (class B)
        # and factors through u^2; it reports as its reparametrized twin
        def report(*second):
            return classify(Parametrized(components=(comp("u^2", "u^3", "t*u"), comp(*second))))

        assert report("t + u^2", "u^4", "t*u^2") == report("t + u", "u^2", "t*u")
        c = comp("t + u^2", "u^4", "t*u^2")
        assert repr(c) == "FamilyComponent(u + t, u^2, u*t)"
        assert c.table == [recursive_form(p.terms) for p in c.param]
        assert c.component_class() == "B"

    def test_rejects_generically_nonreduced_special_fiber(self):
        with pytest.raises(HypothesisError):
            classify(Parametrized(components=(comp("u^2", "u^4", "t*u"),)))

    def test_radical_check_rejects_section_not_contracted(self):
        # J = <u*(u - t)>: the component's pullback also vanishes on u = t
        F = Parametrized(components=(comp("u^2 - t*u", "u^3 - t*u^2", label="0"),))
        with pytest.raises(HypothesisError, match="component '0' violates the pullback radical"):
            classify(F)

    def test_rejects_family_missing_section(self):
        with pytest.raises(HypothesisError):
            classify(Parametrized(components=(comp("u + t", "u"),)))

    def test_sample_sensitive_family_fails_loudly(self):
        # the branch collapses at t = 1, one of the deterministic sample points
        F = Parametrized(components=(comp("u^2", "u^3 - t*u^3"),))
        with pytest.raises(ComputationError):
            classify(F)

    def test_family_whose_pullback_hangs_a_local_standard_basis(self):
        # the cofactors of J by u generate the maximal ideal, whose local
        # standard basis Mora's weak normal form did not finish in minutes;
        # the witness is read off the generators, with no standard basis
        F = Parametrized(components=(comp(
            "-u^2*t^3 - u^5 + 2*u^6*t^2", "2*u^2*t^2 - 3*u^4*t^3 + u*t",
            "2*u^3*t^3 - u^2 - 3*u^7", label="0"),))
        start = time.perf_counter()
        rep = classify(F)
        assert time.perf_counter() - start < 5
        assert rep["verdict"]["cm_by_component"] == [
            {"label": "0", "is_cm": False, "length": 2, "multiplicity": 1}
        ]
        assert not rep["verdict"]["whitney"]

    def test_seed_independence_of_invariants(self):
        a = classify(cusp_family_b(), seed=0)
        b = classify(cusp_family_b(), seed=7)
        assert a["generic"]["invariants"] == b["generic"]["invariants"]
        assert a["generic"]["t_samples"] != b["generic"]["t_samples"]

    def test_generic_samples_are_drawn_once_per_seed(self):
        def fresh_draw(seed):
            rng = random.Random(seed)
            drawn = []
            while len(drawn) < 2:
                s = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
                if s != 0 and s not in drawn:
                    drawn.append(s)
            return tuple(drawn)

        for seed in [*range(51), -(2**80) - 3]:
            samples = _generic_samples(seed)
            assert samples == fresh_draw(seed)
            assert _generic_samples(seed) is samples

    def test_componentwise_whitney_reduction(self):
        a_true = comp("u^2", "u^3", "t*u^4", label="a")
        a_false = comp("u^3", "u^4", "t*u", label="a")
        line = comp("0", "0", "u", label="b")
        for first, expected in ((a_true, True), (a_false, False)):
            parts = [
                classify(Parametrized(components=(c,)))["verdict"]["whitney"]
                for c in (first, line)
            ]
            combined = classify(Parametrized(components=(first, line)))["verdict"]["whitney"]
            assert combined == all(parts) == expected

    def test_whitney_implies_topologically_trivial(self):
        for F in (
            cusp_family_a(),
            cusp_family_b(),
            Parametrized(components=(comp("u^2", "u^3"),)),
            Parametrized(components=(comp("u^2", "u^3", "t*u^4"),)),
        ):
            v = classify(F)["verdict"]
            if v["whitney"]:
                assert v["topologically_trivial"]
            assert v["strong_simultaneous_resolution"] == v["whitney"]

    def test_hypothesis_checklist_present(self):
        rep = classify(cusp_family_a())
        assert rep["hypotheses"]["sqrt(pullback) = <u> on every class-A component"] == "verified"
        assert rep["hypotheses"]["flat family over a disc"] == "asserted"
        assert rep["constancy"] == {"mu": True, "m": False, "delta": True, "r": True}


def assert_fits_a_reduced_germ(inv):
    m, r, delta_red = inv["m"], inv["r"], inv["delta_red"]
    assert r <= m and delta_red >= m - 1 and (m > 1 or delta_red == 0), inv


@st.composite
def germs(draw):
    """One to three branches (u^a, f(u), g(u)) of distinct orders a, f and g of
    order a or more: branches of distinct images."""
    return [BranchParam([Polynomial(RING_U, {(a,): Fraction(1)})] + [
        Polynomial(RING_U, {(a + e,): Fraction(c) for e, c in draw(SHIFTED_TERMS).items()})
        for _ in range(2)]) for a in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))]


SHIFTED_TERMS = st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool), max_size=2)
UT_TERMS = st.dictionaries(st.tuples(st.integers(1, 6), st.integers(0, 1)),
                           st.integers(-2, 2).filter(bool), max_size=3)


@st.composite
def families(draw):
    """One or two components (u^a, f(u, t), g(u, t)) of distinct a, through the section."""
    return Parametrized(components=tuple(FamilyComponent(
        [Polynomial(RING_UT, {(a, 0): Fraction(1)})]
        + [Polynomial(RING_UT, {m: Fraction(c) for m, c in draw(UT_TERMS).items()}) for _ in range(2)])
        for a in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True))))


class TestDeclaredInequalities:
    """r <= m, delta_red >= m - 1, and delta_red = 0 if m = 1, which declared
    generic invariants must satisfy, hold for the computed invariants of
    every corpus entry and of drawn germs and families. A draw the program
    rejects as outside its hypotheses or its budgets is skipped."""

    def test_corpus(self):
        report, mismatches = run_paper_corpus()
        assert not mismatches
        for entry in report["entries"]:
            if entry["kind"] == "curve":
                assert_fits_a_reduced_germ(entry["invariants"])
            else:
                assert_fits_a_reduced_germ(entry["special"]["invariants"])
                assert_fits_a_reduced_germ(entry["generic"]["invariants"])

    @given(germs())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_germs(self, branches):
        try:
            inv = invariants(CurvePresentation(branches))
        except ComputationError:  # a branch whose exponents have a gcd above 1
            return
        assert_fits_a_reduced_germ(inv._asdict())

    @given(families())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_families(self, family):
        try:
            report = classify(family)
        except (ComputationError, HypothesisError):
            return
        assert_fits_a_reduced_germ(report["special"]["invariants"])
        assert_fits_a_reduced_germ(report["generic"]["invariants"])
