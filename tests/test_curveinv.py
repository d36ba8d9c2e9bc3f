"""Curve-germ invariants: multiplicity, branch count, delta, Milnor numbers."""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from equicurve import curveinv
from equicurve.curveinv import (
    BranchParam,
    CurveInvariants,
    CurvePresentation,
    delta_reduced,
    invariants,
    orders_on,
    semigroup_conductor,
)
from equicurve.errors import ComputationError, HypothesisError, InternalCheckError
from equicurve.gb import Ideal
from equicurve.linalg import RowSpace
from equicurve.poly import Polynomial, VarSet, parse_poly
from gb_reference import OracleBudgetError
from oracles import order_on_branch, semigroup_delta_oracle, uniform_delta_oracle

U = VarSet(("u",))
XYZ = VarSet(("x", "y", "z"))


def branch(*comps):
    return BranchParam([parse_poly(c, U) for c in comps])


def I(*gens, ring=XYZ):
    return Ideal([parse_poly(g, ring) for g in gens], ring)


# Pairwise independent directions in C^3 with no zero entry.
LINE_DIRECTIONS = [
    (1, 1, 1), (1, 2, -1), (2, -1, 1), (-1, 1, 2), (1, -2, -2),
    (2, 1, -2), (1, -1, 2), (2, 2, -1), (-2, 1, 1), (1, 2, 2),
]


def hilbert_delta(dirs):
    """delta of the lines through 0 with these directions: the sum over k of
    n - H(k), H the Hilbert function of the directions as points of P^2,
    each H(k) the rank of the degree-k monomials evaluated at them."""
    total = 0
    for k in itertools.count():
        values = RowSpace()
        for mono in itertools.product(range(k + 1), repeat=3):
            if sum(mono) == k:
                values.add({i: math.prod(c**e for c, e in zip(v, mono)) for i, v in enumerate(dirs)})
        if values.rank == len(dirs):
            return total
        total += len(dirs) - values.rank


class TestBranchParam:
    def test_rejects_zero_branch(self):
        with pytest.raises(ComputationError):
            branch("0", "0")

    def test_rejects_off_origin(self):
        with pytest.raises(ComputationError):
            branch("1 + u", "u")

    def test_u_order_and_multiplicity(self):
        b = branch("u^3", "u^4", "0")
        assert b.u_order() == 3
        assert invariants(CurvePresentation([b])).m == 3

    def test_exponent_gcd(self):
        assert branch("u^2", "u^4").exponent_gcd() == 2
        assert branch("u^2", "u^3").exponent_gcd() == 1

    def test_curve_multiplicity_adds_branches(self):
        C = CurvePresentation([branch("u", "0"), branch("0", "u"), branch("u", "u")])
        assert invariants(C).m == 3

    def test_mismatched_ambient_dims_rejected(self):
        with pytest.raises(ComputationError):
            CurvePresentation([branch("u"), branch("u", "0")])
        with pytest.raises(ComputationError):
            CurvePresentation([branch("u", "0")], ideal=I("z"))

    @pytest.mark.parametrize(
        "gen, vanishes",
        [
            ("4*y^2 - x^3", True),
            ("y^2 - 1/4*x^3", True),
            ("x*z + 2/3*x*y*z^5 + (4*y^2 - x^3)*(1 + x)", True),
            ("y^2 - x^3", False),
            ("x^2", False),
            ("x^3 - 4*y^2 + y*z + 1/3*x", False),
        ],
    )
    def test_ideal_must_vanish_on_every_branch(self, gen, vanishes):
        # x = u^2, y = u^3/2 on the first branch, the line y = z = 0 on the
        # second, on which every generator also vanishes
        gens = (gen, "y*z") if vanishes else ("y*z", gen)
        ideal = I(*gens, "z*(y - x)")
        branches = [BranchParam([parse_poly(c, U) for c in comps], label=f"{i}")
                    for i, comps in enumerate((("u^2", "1/2*u^3", "0"), ("0", "0", "u")))]
        if vanishes:
            CurvePresentation(branches, ideal=ideal)
            return
        expected = parse_poly(gen, XYZ).render()
        with pytest.raises(HypothesisError, match=f"^ideal generator '{re.escape(expected)}'"
                                                  " does not vanish on branch '0'$"):
            CurvePresentation(branches, ideal=ideal)


class TestSemigroupOracle:
    def test_cusp(self):
        assert semigroup_delta_oracle(branch("u^2", "u^3")) == 1

    def test_3_4(self):
        assert semigroup_delta_oracle(branch("u^3", "u^4")) == 3

    def test_smooth(self):
        assert semigroup_delta_oracle(branch("u", "u^5")) == 0

    def test_two_generator_formula(self):
        # gaps of <p, q> for coprime p, q is (p-1)(q-1)/2
        for p, q in ((2, 5), (3, 5), (3, 7), (4, 9), (5, 6)):
            assert semigroup_delta_oracle(
                branch(f"u^{p}", f"u^{q}")
            ) == (p - 1) * (q - 1) // 2

    def test_rejects_non_normalization(self):
        with pytest.raises(ComputationError):
            semigroup_delta_oracle(branch("u^2", "u^4"))

    def test_rejects_non_monomial(self):
        with pytest.raises(ComputationError):
            semigroup_delta_oracle(branch("u^2 + u^3", "u^5"))


class TestDeltaReduced:
    def test_plane_cusp(self):
        assert delta_reduced([branch("u^2", "u^3")]) == 1

    def test_space_cusp(self):
        assert delta_reduced([branch("u^3", "u^4", "0")]) == 3

    def test_smooth_branch(self):
        assert delta_reduced([branch("u", "0", "0")]) == 0

    def test_unit_tangent_coordinate_smooths(self):
        # a degree-one coordinate makes the branch smooth regardless of the rest
        assert delta_reduced([branch("u^3", "u^4", "2*u")]) == 0

    def test_monomial_curve_3_4_5(self):
        assert delta_reduced([branch("u^3", "u^4", "u^5")]) == 2

    def test_high_conductor(self):
        assert delta_reduced([branch("u^3", "u^11")]) == 10

    def test_coordinate_change_invariance(self):
        assert delta_reduced([branch("u^2 + u^3", "u^3 - u^2")]) == delta_reduced(
            [branch("u^2", "u^3")]
        )

    def test_two_transverse_lines(self):
        assert delta_reduced([branch("u", "0"), branch("0", "u")]) == 1

    def test_five_concurrent_lines(self):
        lines = [
            branch("u", "0", "0", "0", "0"),
            branch("0", "u", "0", "0", "0"),
            branch("u", "-u", "0", "0", "0"),
            branch("0", "0", "u", "0", "0"),
            branch("0", "0", "0", "0", "u"),
        ]
        assert delta_reduced(lines) == 5

    @pytest.mark.parametrize("n", [3, 4, 6, 8, 10])
    def test_concurrent_lines_match_hilbert_function(self, n):
        dirs = LINE_DIRECTIONS[:n]
        lines = [branch(*(f"{c}*u" for c in v)) for v in dirs]
        assert delta_reduced(lines) == hilbert_delta(dirs)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_coplanar_lines_match_hilbert_function(self, n):
        # tangents in the plane x + y + z = 0: the first jet order adds the plane term
        dirs = [(1, d, -1 - d) for d in (1, 2, 3, -2, -3, 4, 5)[:n]]
        lines = [branch(*(f"{c}*u" for c in v)) for v in dirs]
        assert delta_reduced(lines) == hilbert_delta(dirs) == n * (n - 1) // 2

    def test_tangent_smooth_branches(self):
        # y = x^30 and y = x^31 meet with multiplicity 30
        assert delta_reduced([branch("u", "u^30"), branch("u", "u^31")]) == 30

    @pytest.mark.parametrize(
        "comps",
        [
            (("u^2", "u^3"), ("u^2", "-u^3")),
            (("u", "u"), ("2*u", "2*u")),
            (("u", "u", "u"), ("2*u", "2*u", "2*u")),
            (("u^129", "u^130"),),
        ],
    )
    def test_fails_at_budget(self, comps):
        # one curve in two parametrizations (delta infinite), or a branch whose
        # order leaves no certificate range below the cap
        with pytest.raises(ComputationError, match="JET_ORDER_CAP"):
            delta_reduced([branch(*c) for c in comps])

    @pytest.mark.parametrize(
        "comps, reason",
        [
            # a plane branch of delta 144, certified only past the cap
            (("u^17", "u^19"), "J = 256"),
            # factors through v = u^2 + u^3, yet its exponent gcd is 1
            (("u^2 + u^3", "u^4 + 2*u^5 + u^6"), "J = 256"),
            (("u^129", "u^130"), "needs jet order 258"),
        ],
    )
    def test_cap_failure_names_no_unproven_cause(self, comps, reason):
        with pytest.raises(ComputationError, match="JET_ORDER_CAP") as exc:
            delta_reduced([branch(*comps)])
        assert reason in str(exc.value)
        assert "repeated branch" not in str(exc.value)

    def test_rational_coefficients(self):
        # (u^7, u^9 + ...) has the semigroup <7, 9> whatever the higher terms
        br = branch("u^7", "u^9 + 1/3*u^10 - 5/7*u^11")
        assert delta_reduced([br]) == 24 == semigroup_delta_oracle(branch("u^7", "u^9"))

    def test_dense_plane_branch(self):
        # semigroup <10, 11>: delta (a - 1)(b - 1)/2 = 45
        dense = " + ".join(f"u^{k}" for k in range(11, 40))
        assert delta_reduced([branch("u^10", dense)]) == 45

    def test_rejects_repeated_branch(self):
        with pytest.raises(ComputationError):
            delta_reduced([branch("u^2", "u^3"), branch("u^2", "u^3")])

    def test_rejects_non_normalization(self):
        with pytest.raises(ComputationError):
            delta_reduced([branch("u^2", "u^4")])

    @pytest.mark.parametrize(
        "first, second",
        [
            (("2*u", "u^3", "0"), ("u + u", "u^3", "0")),
            (("u^2", "u^3 + 1/2*u^4"), ("u*u", "u^3 + u^4 - 1/2*u^4")),
            (("1/2*u^3", "u^4"), ("2/4*u^3", "u^2*u^2")),
        ],
    )
    def test_same_polynomials_written_differently_are_repeated(self, first, second):
        with pytest.raises(ComputationError, match="branches 0 and 1 have the same"):
            delta_reduced([branch(*first), branch(*second)])

    def test_branches_differing_in_a_rational_coefficient_are_distinct(self):
        # x = u^3/2, y = u^4 lies on y^3 = 16 x^4, which meets the cusp
        # y^3 = x^4 with multiplicity ord_u(u^12 - u^12/16) = 12: delta = 3 + 3 + 12
        assert delta_reduced([branch("1/2*u^3", "u^4"), branch("u^3", "u^4")]) == 18
        assert delta_reduced([branch("u^3", "u^4"), branch("u^3", "u^4 + 1/2*u^5")]) > 6

    def test_matches_oracle_on_random_monomial_branches(self):
        rng = random.Random(11)
        done = 0
        while done < 15:
            a = rng.randint(2, 7)
            b = rng.randint(a + 1, 12)
            if math.gcd(a, b) != 1:
                continue
            br = branch(f"u^{a}", f"u^{b}")
            assert delta_reduced([br]) == semigroup_delta_oracle(br)
            done += 1
        # delta 35 to 78, certified at jet orders 128 to 208
        for a, b in ((8, 11), (9, 10), (10, 11), (11, 13), (12, 13), (13, 14)):
            br = branch(f"u^{a}", f"u^{b}")
            assert delta_reduced([br]) == semigroup_delta_oracle(br)


def semigroup_gaps(gens, bound):
    """The positive integers below bound that are no sum of elements of gens."""
    reachable = {0}
    for n in range(1, bound):
        if any(n - g in reachable for g in gens):
            reachable.add(n)
    return [n for n in range(1, bound) if n not in reachable]


class TestSemigroupConductor:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    def test_matches_gap_enumeration(self, gens):
        if math.gcd(*gens) != 1:
            assert semigroup_conductor(gens) is None
            return
        # every gap of a semigroup with gcd 1 and generators up to 30 is below 30^2
        gaps = semigroup_gaps(gens, 30 * 30)
        assert semigroup_conductor(gens) == (gaps[-1] + 1 if gaps else 0)

    def test_examples(self):
        assert semigroup_conductor([1]) == 0
        assert semigroup_conductor([2, 3]) == 2
        assert semigroup_conductor([17, 19]) == 16 * 18
        assert semigroup_conductor([4, 6]) is None


def _coprime_pairs(max_b, keep):
    return [(a, b) for a in range(2, max_b) for b in range(a + 1, max_b + 1)
            if math.gcd(a, b) == 1 and keep(a, b)]


def _plane_delta(a, b):
    return (a - 1) * (b - 1) // 2


# The exponent pairs, perturbations and line slopes of the benchmark's germs
PLANE_PAIRS = _coprime_pairs(13, lambda a, b: _plane_delta(a, b) <= 28)
BRANCH_LINE_PAIRS = _coprime_pairs(17, lambda a, b: _plane_delta(a, b) + a <= 10)
PERTURBATIONS = [(c, k) for c in (-3, -2, -1, 1, 2, 3) for k in (1, 2, 3)]


@pytest.fixture
def spans_built(monkeypatch):
    """The spans delta_reduced has built, in order, as pairs of the jet orders
    (J_1, ..., J_r) of the branches and the rank."""
    built = []
    real = curveinv._jet_span

    def recording(coordinates, orders, Js):
        span = real(coordinates, orders, Js)
        built.append((tuple(Js), span.rank))
        return span

    monkeypatch.setattr(curveinv, "_jet_span", recording)
    return built


class TestFirstJetOrder:
    """The first jet order tried is the one the value semigroups predict, so the
    germs below certify with a single span."""

    def test_plane_branches_take_one_span(self, spans_built):
        for a, b in PLANE_PAIRS:
            for c, k in PERTURBATIONS:
                spans_built.clear()
                br = branch(f"u^{a}", f"u^{b} + {c}*u^{b + k}", "0")
                assert delta_reduced([br]) == _plane_delta(a, b)
                assert len(spans_built) == 1, (a, b, c, k)

    def test_branch_plus_transversal_line_takes_one_span(self, spans_built):
        for a, b in BRANCH_LINE_PAIRS:
            for n, (c, k) in enumerate(PERTURBATIONS):
                d = n % 7 - 3
                spans_built.clear()
                br = branch(f"u^{a}", f"u^{b} + {c}*u^{b + k}", "0")
                line = branch(f"{d}*u", "u", "0")
                assert delta_reduced([br, line]) == _plane_delta(a, b) + a
                assert len(spans_built) == 1, (a, b, c, k, d)

    def test_conductor_past_the_cap_fails_with_one_span(self, spans_built):
        # with the line (u, 2u), which starts at 0 + 1 + 1 * 17 = 18, the
        # capped branch's window is missing, and no larger J_i for the line
        # could bring it in
        for germ in ([("u^17", "u^19")], [("u^17", "u^19"), ("u", "2*u")]):
            spans_built.clear()
            with pytest.raises(ComputationError, match="J = 256"):
                delta_reduced([branch(*b) for b in germ])
            assert [J for J, _ in spans_built] == [(256, 18)[:len(germ)]]

    def test_coordinate_zero_on_every_branch_changes_nothing(self, spans_built):
        # the same germs, embedded with a zero coordinate in each position
        germs = [
            [("u^3", "u^5 - 2*u^7")],
            [("u^4", "u^9 + 3*u^10"), ("2*u", "u")],
            [("u^2", "u^3"), ("u", "-u")],
            [("1/2*u^5", "u^7 + 1/3*u^8")],
        ]
        for germ in germs:
            counts = set()
            for where in range(3):
                spans_built.clear()
                branches = [branch(*(b[:where] + ("0",) + b[where:])) for b in germ]
                counts.add((delta_reduced(branches), tuple(spans_built)))
            spans_built.clear()
            counts.add((delta_reduced([branch(*b) for b in germ]), tuple(spans_built)))
            assert len(counts) == 1, (germ, counts)

    def test_tangents_of_mixed_support(self, spans_built):
        # the tangent of (u, 0, u^2) is (1, 0, 0) and that of (0, u, u^3) is
        # (0, 1, 0): read only where a coordinate has order 1, with no zero
        # entry, they span a plane, and J_i = 2 certifies two transverse branches
        assert delta_reduced([branch("u", "0", "u^2"), branch("0", "u", "u^3")]) == 1
        assert [J for J, _ in spans_built] == [(2, 2)]

    def test_pivot_gcd_above_one_doubles_the_conductor_estimate(self, spans_built):
        # the coordinate jets have orders 2 and 4, yet y - x^2 has order 5: the
        # semigroup is <2, 5>, but no estimate is made, so J starts at 2 * 2 = 4;
        # it fails there, and J - 2 doubles to 4, at J = 6 = c + m, which certifies
        assert delta_reduced([branch("u^2 + u^3", "u^4 + u^7")]) == 2
        assert [J for J, _ in spans_built] == [(4,), (6,)]


class TestEscalation:
    """After a failed certificate every branch's jet order J_i becomes
    2 J_i - m_i: each conductor estimate J_i - m_i doubles, not J_i."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_general_lines_certify_at_three(self, spans_built, n):
        # r lines through 0 in general position: J_i = 2 fails, 2 * 2 - 1 = 3
        # certifies, with rank 3r - delta
        dirs = LINE_DIRECTIONS[:n]
        delta = delta_reduced([branch(*(f"{c}*u" for c in v)) for v in dirs])
        assert delta == hilbert_delta(dirs)
        assert [J for J, _ in spans_built] == [(2,) * n, (3,) * n]
        assert spans_built[-1][1] == 3 * n - delta

    def test_corpus_five_lines_certify_at_three(self, spans_built):
        from equicurve import corpus

        entry, = [e for m in corpus.MANIFESTS for e in m["entries"]
                  if e["name"] == "five-lines-splitting-family"]
        branches = [branch(*comps) for comps in entry["special_fiber"]["branches"]]
        delta = delta_reduced(branches)
        assert delta == 5
        assert [J for J, _ in spans_built] == [(2,) * 5, (3,) * 5]
        assert spans_built[-1][1] == 3 * len(branches) - delta

    def test_each_branch_starts_at_its_own_estimate(self, spans_built):
        # the cusp's estimate is c + m + m * 1 = 8 + 3 + 3 = 14, the
        # transversal line's 0 + 1 + 1 * 3 = 4: one span of rank 18 - 7
        assert delta_reduced([branch("u^3", "u^5"), branch("2*u", "u")]) == 7
        assert spans_built == [((14, 4), 11)]

    def test_tangent_line_escalates_every_branch(self, spans_built):
        # y = 0 meets the cusp y^3 = x^5 with multiplicity 5, not 3: the
        # conductor exponents are 8 + 5 and 0 + 5, both past the estimates
        # 14 - 3 and 4 - 1, so both jet orders go to 2 J_i - m_i
        assert delta_reduced([branch("u^3", "u^5"), branch("u", "0")]) == 4 + 5
        assert [J for J, _ in spans_built] == [(14, 4), (25, 7)]

    def test_capped_branch_with_its_window_lets_the_others_escalate(self, spans_built):
        # (u^16, u^17, 0) starts at its conductor estimate 240 + 16 = 256, the
        # cap, and its window is in the span; the lines off its plane start at
        # 2 and miss theirs, so only their jet orders move
        germ = [branch("u^16", "u^17", "0"), branch("0", "0", "u"), branch("0", "u", "u")]
        assert delta_reduced(germ) == uniform_delta_oracle(germ, cap=256) == 123
        assert [J for J, _ in spans_built] == [(256, 2, 2), (256, 3, 3)]

    @pytest.mark.parametrize(
        "comps",
        [
            # one cusp in two parametrizations: delta is infinite
            (("u^2", "u^3"), ("u^2", "-u^3")),
            # factors through v = u^2 + u^3, yet its exponent gcd is 1
            (("u^2 + u^3", "u^4 + 2*u^5 + u^6"),),
        ],
    )
    def test_failures_double_the_estimate_up_to_the_cap(self, spans_built, comps):
        branches = [branch(*c) for c in comps]
        orders = [b.u_order() for b in branches]
        with pytest.raises(ComputationError) as exc:
            delta_reduced(branches)
        assert str(exc.value) == (
            "delta not certified within JET_ORDER_CAP = 256: at the last jet order tried, "
            "J = 256, the unit jets u^j e_i with J - m_i <= j < J are not all in the span"
        )
        ladder = [J for J, _ in spans_built]
        assert ladder[-1] == (curveinv.JET_ORDER_CAP,) * len(branches)
        for a, b in zip(ladder, ladder[1:]):
            assert all(x < y for x, y in zip(a, b))
        for a, b in zip(ladder, ladder[1:-1]):
            assert all(y - m == 2 * (x - m) for x, y, m in zip(a, b, orders))
        assert len(ladder) <= math.ceil(math.log2(curveinv.JET_ORDER_CAP)) + 1


@st.composite
def germs_with_lines(draw):
    """Two to four branches in C^3, at least one of them a line: plane or space
    branches (u^a, c u^a + u^b + e u^(b + 1), f u^g), whose tangent is
    (1, c, 0), and lines along small integer directions, which are often
    tangent to such a branch or to each other."""
    small = st.sampled_from([-1, 0, 1, 2])
    n = draw(st.integers(2, 4))
    lines = draw(st.integers(1, n))
    comps = []
    for _ in range(n - lines):
        a = draw(st.integers(2, 3))
        b = draw(st.integers(a + 1, 7).filter(lambda b: math.gcd(a, b) == 1))
        c, e, f = draw(small), draw(small), draw(small)
        g = draw(st.integers(a + 1, 8))
        comps.append((f"u^{a}", f"{c}*u^{a} + u^{b} + {e}*u^{b + 1}", f"{f}*u^{g}"))
    for _ in range(lines):
        direction = draw(st.tuples(small, small, small).filter(any))
        comps.append(tuple(f"{x}*u" for x in direction))
    return [branch(*c) for c in comps]


class TestPerBranchJetOrders:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(germs_with_lines())
    def test_matches_one_jet_order_for_every_branch(self, branches):
        try:
            expected = uniform_delta_oracle(branches)
        except OracleBudgetError:
            reject()  # two branches with one image, or a conductor past the oracle's budget
        assert delta_reduced(branches) == expected


COEFFICIENTS = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 6))


@st.composite
def branch_and_polys(draw):
    """A branch with rational coefficients in one to three coordinates, and
    polynomials on them; a polynomial is often made to vanish on the branch,
    by a factor x_k where x_k(u) = 0 or c_j^a * x_i^b - c_i^b * x_j^a where
    x_i(u) = c_i * u^a and x_j(u) = c_j * u^b, so that its terms cancel only
    with their denominators counted."""
    n = draw(st.integers(1, 3))
    comps = []
    for k in range(n):
        size = draw(st.sampled_from([1, 1, 1, 2, 3] + [0] * bool(k)))
        comps.append(Polynomial(U, {(draw(st.integers(1, 5)),): draw(COEFFICIENTS)
                                    for _ in range(size)}))
    ring = VarSet(("x", "y", "z")[:n])
    x = [Polynomial.var(ring, name) for name in ring.names]
    vanishing = [x[k] for k, c in enumerate(comps) if not c]
    single = [(k, *next(iter(c.terms.items()))) for k, c in enumerate(comps) if len(c.terms) == 1]
    for (i, (a,), ci), (j, (b,), cj) in itertools.combinations(single, 2):
        vanishing.append(cj**a * x[i] ** b - ci**b * x[j] ** a)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {tuple(draw(st.integers(0, 3)) for _ in range(n)): draw(COEFFICIENTS)
                 for _ in range(draw(st.integers(1, 4)))}
        g = Polynomial(ring, terms)
        if vanishing and draw(st.booleans()):
            g = g * draw(st.sampled_from(vanishing))
            if draw(st.booleans()):  # a vanishing part plus higher terms
                g = g + Polynomial(ring, {tuple(4 * e for e in m): c for m, c in terms.items()})
        if g:
            gens.append(g)
    return BranchParam(comps), gens


class TestOrdersOn:
    @given(branch_and_polys())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_rational_substitution(self, case):
        b, gens = case
        assert list(orders_on(gens, [b])) == [[order_on_branch(g, b) for g in gens]]

    def test_orders_and_vanishing(self):
        # x = u^2, y = u^3/2: 4y^2 - x^3 vanishes only with the 1/2 counted
        b = branch("u^2", "1/2*u^3")
        gens = [parse_poly(g, VarSet(("x", "y"))) for g in ("4*y^2 - x^3", "y^2 - x^3", "x + y")]
        assert list(orders_on(gens, [b])) == [[None, 6, 2]]

    def test_one_list_per_branch(self):
        # x, y, x - y on the lines x = 0, y = 0 and x = y, read in one call
        lines = [branch("0", "u"), branch("u", "0"), branch("2*u", "2*u")]
        gens = [parse_poly(g, VarSet(("x", "y"))) for g in ("x", "y", "x - y")]
        assert list(orders_on(gens, lines)) == [[None, 1, 1], [1, None, 1], [1, 1, None]]


class TestInvariants:
    def test_identity_enforcement(self):
        with pytest.raises(InternalCheckError):
            CurveInvariants(m=2, r=1, delta_red=1, epsilon=0, delta=1, mu_red=5, mu=5)

    def test_space_cusp_with_embedded_point(self):
        # epsilon = 3 from the ideal and the branch alone
        ideal = I("x*z", "y^3 - x^4", "y^2*z", "y*z^2", "z^3")
        C = CurvePresentation([branch("u^3", "u^4", "0")], ideal=ideal)
        inv = invariants(C)
        assert inv == CurveInvariants(
            m=3, r=1, delta_red=3, epsilon=3, delta=0, mu_red=6, mu=0
        )

    def test_reduced_curve_defaults_epsilon_zero(self):
        inv = invariants(CurvePresentation([branch("u^2", "u^3")]))
        assert inv.epsilon == 0 and inv.mu == inv.mu_red == 2

    def test_milnor_formula_multibranch(self):
        # two transverse lines: delta 1, r 2, mu = 2*1 - 2 + 1 = 1
        inv = invariants(CurvePresentation([branch("u", "0"), branch("0", "u")]))
        assert (inv.delta_red, inv.r, inv.mu_red) == (1, 2, 1)

    def test_decomposition_without_ideal_rejected(self, tmp_path, capsys):
        # a decomposition is no input: with or without an ideal it is an
        # unknown field, and a presentation has no place for one
        from equicurve.cli import EXIT_PARSE, main

        entry = {"name": "c", "kind": "curve", "branches": [["u^3", "u^4", "0"]],
                 "decomposition": {"primes": [["z", "y^3 - x^4"]]}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"ring": ["x", "y", "z"], "entries": [entry]}))
        assert main(["analyze", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "parse error: entry 'c': unknown field(s) ['decomposition']\n"
        )
        with pytest.raises(TypeError):
            CurvePresentation([branch("u^3", "u^4", "0")], decomposition=I("z"))
