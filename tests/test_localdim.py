"""Local quotient lengths, epsilon against the doubling ladder and verified
decompositions, Hilbert-Samuel multiplicity and the Cohen-Macaulay test."""

from __future__ import annotations

import itertools
import random
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve import gb, localdim
from equicurve.cli import run_paper_corpus
from equicurve.errors import ComputationError, HypothesisError, InternalCheckError
from equicurve.curveinv import BranchParam, CurvePresentation, invariants
from equicurve.gb import Ideal, ideal_intersect, ideal_sum, std_basis
from equicurve.localdim import (
    _staircase_count,
    CMWitness,
    PrimaryDecomposition,
    epsilon,
    epsilon_from_decomposition,
    hs_multiplicity_of_param,
    is_cohen_macaulay,
    vdim,
)
from equicurve.poly import LAST_FIRST, NEGDEGREVLEX, Polynomial, VarSet, parse_poly
from gb_reference import ideal_equal, ideal_quotient, mon_divides
from oracles import (
    LADDER_BUDGET, corpus_fibers, ladder_coordinates, ladder_epsilon, ladder_values, seeded_fiber,
    truncated_vdim,
)

XYZ = VarSet(("x", "y", "z"))
UT = VarSet(("u", "t"))


def I(*gens, ring=XYZ):
    return Ideal([parse_poly(g, ring) for g in gens], ring)


class TestVdim:
    def test_embedded_component_length(self):
        assert vdim(I("x^4", "x*z", "y^2", "y*z^2", "z^3")) == 11

    def test_component_sum_length(self):
        assert (
            vdim(I("x^4", "x*z", "y^2", "y*z^2", "z^3", "z", "y^3 - x^4")) == 8
        )

    def test_maximal_ideal(self):
        assert vdim(I("x", "y", "z")) == 1

    def test_infinite_when_not_m_primary(self):
        assert vdim(I("z", "y^3 - x^4")) is None
        # a length read as None where it must be finite: an unverified
        # decomposition whose embedded component is not m-primary
        D = PrimaryDecomposition([I("z", "y^3 - x^4")], embedded=I("z"))
        with pytest.raises(ComputationError, match="embedded-component length is infinite"):
            epsilon_from_decomposition(I("z", "y^3 - x^4"), D)

    def test_truncation_oracle_on_a_corpus_pass(self, monkeypatch):
        # a corpus pass reads no length through vdim: epsilon counts the
        # monomials outside one set of leads per fiber. The lengths the
        # doubling ladder reads on the corpus fibers instead, its rungs
        # I + <l^N>, 31 in all, two of them asked twice
        seen = {}
        real = localdim.vdim

        def spy(Q):
            seen[tuple(g.render() for g in Q.gens)] = Q
            return real(Q)

        monkeypatch.setattr(localdim, "vdim", spy)
        run_paper_corpus(seed=0)
        assert not seen
        for _, branches, ideal, _, _ in corpus_fibers():
            ladder_epsilon(ideal, branches)
        assert len(seen) == 29
        for Q in seen.values():
            assert vdim(Q) == truncated_vdim(Q)

    def test_truncation_oracle_on_the_memo_ideal(self):
        # the generators of test_gb's TestMemo
        J = I("x^2 + y*z", "y^3 - x*z", "z^2 + x*y^2 + x^3")
        assert vdim(J) == truncated_vdim(J) == 14

    def test_unit_multiples_do_not_matter(self):
        # local order: 1 + x is a unit, so (1+x)*y generates <y>
        assert vdim(I("(1 + x)*y", "x^2", "z")) == vdim(I("y", "x^2", "z"))

    def test_monomial_staircase_bruteforce_agreement(self):
        rng = random.Random(5)
        ring = XYZ
        for _ in range(30):
            monos = set()
            for _ in range(rng.randint(1, 4)):
                monos.add(
                    tuple(rng.randint(0, 4) for _ in range(3))
                )
            monos = {m for m in monos if any(m)}
            if not monos:
                continue
            gens = [Polynomial.monomial(ring, m, 1) for m in monos]
            v = vdim(Ideal(gens, ring))
            # brute force over a box
            box = 13
            finite = all(
                any(m[i] and all(m[j] == 0 for j in range(3) if j != i) for m in monos)
                for i in range(3)
            )
            if not finite:
                assert v is None
                continue
            count = sum(
                1
                for c in itertools.product(range(box), repeat=3)
                if not any(all(c[i] >= m[i] for i in range(3)) for m in monos)
            )
            assert v == count


def enumerated_staircase_count(leads, nvars):
    """Monomials outside the staircase, enumerated over the box below the pure
    powers; the reference for ``localdim._staircase_count``."""
    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in leads if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    count = sum(
        1
        for c in itertools.product(*(range(b) for b in bounds))
        if not any(mon_divides(m, c) for m in leads)
    )
    return count


@st.composite
def lead_sets(draw):
    """Lead monomials in 1-3 variables, usually with every pure power present."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 7)] * nvars)
    leads = draw(st.lists(exps, max_size=5))
    for i in range(nvars):
        if draw(st.integers(0, 9)):
            leads.append(tuple(draw(st.integers(0, 9)) if j == i else 0 for j in range(nvars)))
    return leads, nvars


class TestStaircaseCount:
    @given(lead_sets())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_enumeration(self, case):
        leads, nvars = case
        assert localdim._staircase_count(leads, nvars) == enumerated_staircase_count(
            leads, nvars
        )

    def test_large_box(self):
        leads = [(40, 0, 0), (0, 40, 0), (0, 0, 40)]
        assert localdim._staircase_count(leads, 3) == 64000


CURVE_IDEAL = ("x*z", "y^3 - x^4", "y^2*z", "y*z^2", "z^3")
PRIME = ("z", "y^3 - x^4")
EMBEDDED = ("x^4", "x*z", "y^2", "y*z^2", "z^3")


class TestPrimaryDecomposition:
    def test_verified_accepts_paper_decomposition(self):
        D = PrimaryDecomposition.verified(
            I(*CURVE_IDEAL), [I(*PRIME)], embedded=I(*EMBEDDED)
        )
        assert len(D.primes) == 1

    def test_rejects_wrong_intersection(self):
        with pytest.raises(ComputationError):
            PrimaryDecomposition.verified(
                I(*CURVE_IDEAL), [I(*PRIME)], embedded=I("x", "y", "z")
            )

    def test_rejects_non_mprimary_embedded(self):
        with pytest.raises(ComputationError):
            PrimaryDecomposition.verified(
                I("x*z", "x*y"), [I("x")], embedded=I("y", "z")
            )

    def test_rejects_prime_not_containing_ideal(self):
        with pytest.raises(ComputationError):
            PrimaryDecomposition.verified(I(*CURVE_IDEAL), [I("x")])

    def test_intersection_computed_once(self, monkeypatch):
        # two coordinate axes with an embedded point: verification and epsilon
        # share one intersection of the primes
        calls = []
        real = gb.ideal_intersect
        monkeypatch.setattr(gb, "ideal_intersect", lambda a, b: calls.append(1) or real(a, b))
        J = I("x*y", "x*z", "y*z", "z^2")
        m2 = I("x^2", "y^2", "z^2", "x*y", "x*z", "y*z")
        D = PrimaryDecomposition.verified(J, [I("y", "z"), I("x", "z")], embedded=m2)
        assert len(calls) == 2  # the primes, then with the embedded component
        assert epsilon_from_decomposition(J, D) == 1
        assert len(calls) == 2
        assert D.intersection() is D.intersection()


class TestEpsilon:
    def test_space_cusp_epsilon(self):
        D = PrimaryDecomposition.verified(
            I(*CURVE_IDEAL), [I(*PRIME)], embedded=I(*EMBEDDED)
        )
        assert epsilon_from_decomposition(I(*CURVE_IDEAL), D) == 3

    def test_no_embedded_component_gives_zero(self):
        J = I("z", "y^3 - x^4")
        D = PrimaryDecomposition.verified(J, [J])
        assert epsilon_from_decomposition(J, D) == 0

    def test_independent_of_embedded_choice(self):
        # a second valid m-primary component: the ideal plus a power of the
        # maximal ideal large enough to sit inside the first choice
        J = I(*CURVE_IDEAL)
        m5 = [
            "*".join(t)
            for t in itertools.combinations_with_replacement(("x", "y", "z"), 5)
        ]
        Q2 = Ideal(
            [parse_poly(g, XYZ) for g in CURVE_IDEAL + tuple(m5)], XYZ
        )
        D1 = PrimaryDecomposition.verified(J, [I(*PRIME)], embedded=I(*EMBEDDED))
        D2 = PrimaryDecomposition.verified(J, [I(*PRIME)], embedded=Q2)
        assert epsilon_from_decomposition(J, D1) == epsilon_from_decomposition(J, D2) == 3


U = VarSet(("u",))


def branch(*comps):
    return BranchParam([parse_poly(c, U) for c in comps])


class TestEpsilonLadder:
    """``localdim.epsilon``, read off one standard basis, against the doubling
    ladder of lengths it replaced and against the decomposition route."""

    @pytest.mark.parametrize(
        "fiber, expected",
        zip(corpus_fibers(), [3, 3, 1, 3, 4, 6, 7, 9, 10, 1]),
        ids=lambda f: f[0] if isinstance(f, tuple) else str(f),
    )
    def test_ladder_equals_decomposition_on_corpus_fibers(self, fiber, expected):
        _, branches, ideal, primes, embedded = fiber
        D = PrimaryDecomposition.verified(ideal, primes, embedded)
        assert epsilon(ideal, branches) == epsilon_from_decomposition(ideal, D) == expected
        assert ladder_epsilon(ideal, branches) == expected

    @pytest.mark.parametrize("seed", range(16))
    def test_ladder_equals_decomposition_on_seeded_ideals(self, seed):
        branches, ideal, primes, Q = seeded_fiber(seed)
        D = PrimaryDecomposition.verified(ideal, primes, Q)
        # through the production path: delta_red first, then epsilon
        inv = invariants(CurvePresentation(branches, ideal=ideal))
        assert inv.epsilon == epsilon_from_decomposition(ideal, D)

    @pytest.mark.parametrize("seed", range(60))
    def test_one_basis_equals_the_doubling_ladder(self, seed):
        branches, ideal, _, _ = seeded_fiber(seed)
        assert epsilon(ideal, branches) == ladder_epsilon(ideal, branches)

    @pytest.mark.parametrize(
        "fiber", [f[:3] for f in corpus_fibers()] + [seeded_fiber(s)[:2] for s in range(20)],
        ids=[f[0] for f in corpus_fibers()] + [f"seed-{s}" for s in range(20)],
    )
    def test_staircase_counts_are_the_rungs(self, fiber):
        # with l the last variable, the leads L of one standard basis under
        # LAST_FIRST give in(I + <l^N>) = L + <l^N> for every N, and
        # ``_rungs`` reads the two at K and K + 1
        *_, branches, ideal = fiber
        _, _, J = ladder_coordinates(ideal, branches)
        n = len(J.ring)
        leads = std_basis(J, LAST_FIRST).lead_monomials
        K = 1 + max(m[-1] for m in leads)
        expected = {}
        for N in range(1, K + 3):
            power = Polynomial.var(J.ring, J.ring.names[-1], N)
            expected[N] = vdim(Ideal(J.gens + (power,), J.ring))
            assert _staircase_count([*leads, (0,) * (n - 1) + (N,)], n) == expected[N]
        assert localdim._rungs(J) == (K, [expected[K], expected[K + 1]])

    def test_reduced_ideal_gives_zero(self):
        assert epsilon(I("z", "y^3 - x^4"), [branch("u^3", "u^4", "0")]) == 0

    def test_extra_component_is_a_hypothesis_failure(self):
        # the z-axis beside the cusp: vdim(I + <x>) is infinite
        with pytest.raises(HypothesisError, match=r"vdim\(I \+ <x>\) is infinite"):
            epsilon(I("x*z", "y*z", "y^3 - x^4"), [branch("u^3", "u^4", "0")])

    NON_REDUCED = [
        # a double structure along the cusp: vdim(I + <x^N>) - 3N = 3N
        (("z^2", "y^3 - x^4"), [("u^3", "u^4", "0")], 6),
        # the cusp and the x-axis, given the cusp alone: x vanishes on
        # neither, so vdim(I + <x^N>) is finite and only the growth of the
        # lengths sees the extra component, as vdim(I + <x^N>) - 3N = N
        (("z", "y^4 - x^4*y"), [("u^3", "u^4", "0")], 4),
    ]

    @pytest.mark.parametrize("gens, branches, multiplicity", NON_REDUCED,
                             ids=["double-structure", "extra-line-off-l"])
    def test_never_repeating_ladder_stops_at_the_budget(self, gens, branches, multiplicity):
        # the doubling ladder, now the oracle, runs to its budget; its rungs
        # grow by N * (e(x; O/I) - e), the multiplicity that epsilon names
        ideal, branches = I(*gens), [branch(*b) for b in branches]
        start = time.perf_counter()
        with pytest.raises(ComputationError, match=f"LADDER_BUDGET = {LADDER_BUDGET}"):
            ladder_epsilon(ideal, branches)
        assert time.perf_counter() - start < 1
        rungs = ladder_values(ideal, branches)
        assert rungs[-1][0] == LADDER_BUDGET
        assert all(b - a == N * (multiplicity - 3) for (N, a), (_, b) in zip(rungs, rungs[1:]))

    @pytest.mark.parametrize("gens, branches, multiplicity", NON_REDUCED,
                             ids=["double-structure", "extra-line-off-l"])
    def test_non_reduced_structure_names_its_multiplicity(self, gens, branches, multiplicity):
        start = time.perf_counter()
        with pytest.raises(HypothesisError) as info:
            epsilon(I(*gens), [branch(*b) for b in branches])
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            "V(I) has a component other than the branches, or I is not reduced along a "
            f"branch: e(x; O/I) = {multiplicity}, above e = 3, the sum of the orders of x on them"
        )

    def test_budget_bounds_the_ladder(self):
        # the cusp (u^3, u^11) with epsilon = 10: the oracle's D(4) != D(8) =
        # D(16); one standard basis needs no budget
        ideal = I("y*z", "z^3", "y^3 - x^11", "x^7*z", "x^3*z^2")
        cusp = [branch("u^3", "u^11", "0")]
        with pytest.raises(ComputationError, match=r"N = 1, 2, 4, ..., 8 \(LADDER_BUDGET = 8\)"):
            ladder_epsilon(ideal, cusp, budget=8)
        assert ladder_epsilon(ideal, cusp, budget=16) == epsilon(ideal, cusp) == 10

    def test_falling_lengths_are_an_internal_error(self, monkeypatch):
        # e(l; O/I) >= e by the associativity formula: a count that falls
        # means two routes disagree (here: a branch order reported too large)
        real = localdim.orders_on
        monkeypatch.setattr(localdim, "orders_on", lambda gens, branches: (
            [o + 1 for o in orders] for orders in real(gens, branches)))
        with pytest.raises(InternalCheckError, match=r"e\(x; O/I\) = 3 is below e = 4"):
            epsilon(I("z", "y^3 - x^4"), [branch("u^3", "u^4", "0")])

    def test_form_vanishing_on_no_branch(self):
        # five lines on the axes and x = -y: each coordinate vanishes on one of
        # them, so l = x + 2y + 3z + 4w + 5v; a sixth line in the direction
        # (2, -1, 0, 0, 0), on which l vanishes, is seen by vdim(I + <l>)
        _, branches, _, primes, _ = corpus_fibers()[-1]
        R5 = primes[0].ring
        sixth = Ideal([parse_poly(g, R5) for g in ("x + 2*y", "z", "w", "v")], R5)
        ideal = reduce(ideal_intersect, primes + [sixth])
        with pytest.raises(HypothesisError, match=(
                r"vdim\(I \+ <x \+ 2\*y \+ 3\*z \+ 4\*w \+ 5\*v>\) is infinite")):
            epsilon(ideal, branches)

    @pytest.mark.parametrize("case", ["five-lines", "three-axes"])
    def test_lengths_in_the_coordinates_of_the_form(self, monkeypatch, case):
        # l involves every variable and is made the last one by an integer
        # change of coordinates: the count for each N up to K + 2 read off the
        # one standard basis is vdim(I + <l^N>) with l^N expanded
        if case == "five-lines":
            _, branches, ideal, primes, embedded = corpus_fibers()[-1]
            l = parse_poly("x + 2*y + 3*z + 4*w + 5*v", ideal.ring)
        else:
            branches = [branch("u", "0", "0"), branch("0", "u", "0"), branch("0", "0", "u")]
            primes = [I("y", "z"), I("x", "z"), I("x", "y")]
            embedded = I("x^2", "y^2", "z^2")
            ideal = ideal_intersect(I("x*y", "x*z", "y*z"), embedded)
            l = parse_poly("x + 2*y + 3*z", XYZ)
        bases = []
        real = gb.std_basis
        monkeypatch.setattr(gb, "std_basis", lambda J, order: bases.append(real(J, order)) or bases[-1])
        eps = epsilon(ideal, branches)
        monkeypatch.undo()
        D = PrimaryDecomposition.verified(ideal, primes, embedded)
        assert eps == epsilon_from_decomposition(ideal, D)
        (B,) = bases
        assert B.order is LAST_FIRST
        assert all(isinstance(c, int) or c.denominator == 1 for g in B.ideal.gens for c in g.terms.values())
        n, leads = len(ideal.ring), B.lead_monomials
        K = 1 + max(m[-1] for m in leads)
        for N in range(1, K + 3):
            value = _staircase_count([*leads, (0,) * (n - 1) + (N,)], n)
            assert vdim(Ideal(list(ideal.gens) + [l ** N], ideal.ring)) == value


# The lowering pullback: lengths of J + <t^n> are 3, 6, 9, 12, 15, 18, 20, 22, ...
LOWERING = ("u^3 + t^2*u^2", "u^7", "t^2*u^4")
HS_IDEALS = [("u^3", "t*u"), ("u^3", "u^4", "t*u^5"), LOWERING] + [
    (f"u^{m}",) for m in range(1, 9)
]


def late_difference(J):
    """vdim(J + <t^N>) - vdim(J + <t^(N-1)>) for an N past the settling point.

    With H = (J : t^oo)/J the t-torsion of O/J, length(O/(J + t^n)) is
    n*e + length(H / t^n H), so the difference at n is e plus
    length(t^(n-1) H / t^n H): it equals e once t^(n-1) kills H. If
    J : t^k = J : t^(k+1), then J : t^oo = J : t^k and t^k kills H, so every
    difference from n = k + 1 on is e; N = 2k + 3 is well past that.
    """
    t = Polynomial.var(UT, "t")
    k, Q, Q_next = 0, J, ideal_quotient(J, t)
    while not ideal_equal(Q_next, Q, NEGDEGREVLEX):
        k, Q, Q_next = k + 1, Q_next, ideal_quotient(Q_next, t)
    N = 2 * k + 3
    l = [vdim(ideal_sum(J, Ideal([Polynomial.var(UT, "t", n)], UT))) for n in (N - 1, N)]
    return l[1] - l[0]


@st.composite
def pullback_ideals(draw):
    """u^p with one or two polynomials whose terms are all divisible by u, so
    that sqrt(J) = <u>."""
    term = st.tuples(st.tuples(st.integers(1, 6), st.integers(0, 3)),
                     st.sampled_from((-2, -1, 1, 2)))
    polys = draw(st.lists(st.lists(term, min_size=1, max_size=2).map(dict),
                          min_size=1, max_size=2))
    p = draw(st.integers(2, 7))
    return Ideal([Polynomial.var(UT, "u", p)] + [Polynomial(UT, d) for d in polys], UT)


class TestHilbertSamuel:
    @pytest.mark.parametrize("gens", HS_IDEALS)
    def test_exact_multiplicity_is_late_difference(self, gens):
        J = I(*gens, ring=UT)
        assert is_cohen_macaulay(J).multiplicity == late_difference(J)

    @given(pullback_ideals())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_exact_multiplicity_on_random_pullbacks(self, J):
        assert is_cohen_macaulay(J).multiplicity == late_difference(J) == hs_multiplicity_of_param(J)

    def test_ladder_stops_early_on_lowering_pullback(self):
        # the differences read 3 five times before they settle at 2; the
        # standard basis shows where they settle
        J = I(*LOWERING, ring=UT)
        assert hs_multiplicity_of_param(J) == is_cohen_macaulay(J).multiplicity == 2

    def test_exact_multiplicity_needs_the_u_t_ring(self):
        for ring in (VarSet(("t", "u")), VarSet(("u", "t", "x"))):
            with pytest.raises(ComputationError, match="needs the ring"):
                is_cohen_macaulay(I("u^3", ring=ring)).multiplicity
            with pytest.raises(ComputationError, match="needs the ring"):
                hs_multiplicity_of_param(I("u^3", ring=ring))

    def test_moving_tangent_pullback(self):
        assert hs_multiplicity_of_param(I("u^3", "t*u", ring=UT)) == 1

    def test_monomial_powers(self):
        for m in range(1, 9):
            assert hs_multiplicity_of_param(I(f"u^{m}", ring=UT)) == m

    def test_stabilizes_quickly(self):
        assert hs_multiplicity_of_param(I("u^3", "u^4", "t*u^5", ring=UT)) == 3

    def test_radical_precheck_rejects_bad_generator(self):
        with pytest.raises(HypothesisError):
            hs_multiplicity_of_param(I("t", ring=UT))

    def test_radical_precheck_requires_u_power(self):
        with pytest.raises(HypothesisError):
            hs_multiplicity_of_param(I("t*u", ring=UT))
        with pytest.raises(HypothesisError):
            is_cohen_macaulay(I("t*u", ring=UT)).multiplicity


class TestCohenMacaulay:
    def test_not_cm_witness(self):
        w = is_cohen_macaulay(I("u^3", "t*u", ring=UT))
        assert w == CMWitness(is_cm=False, length=3, multiplicity=1)

    def test_cm_principal(self):
        w = is_cohen_macaulay(I("u^3", ring=UT))
        assert w == CMWitness(is_cm=True, length=3, multiplicity=3)

    def test_not_cm_lowering_pullback(self):
        assert is_cohen_macaulay(I(*LOWERING, ring=UT)) == CMWitness(False, 3, 2)

    def test_cm_high_order_deformation(self):
        w = is_cohen_macaulay(I("u^3", "u^4", "t*u^5", ring=UT))
        assert w.is_cm and w.length == w.multiplicity == 3

    def test_length_dominates_multiplicity(self):
        for gens in (("u^3", "t*u"), ("u^3",), ("u^2", "t*u"), ("u^4", "t*u^2")):
            w = is_cohen_macaulay(I(*gens, ring=UT))
            assert w.length >= w.multiplicity
            assert w.is_cm == (w.length == w.multiplicity)

    @given(pullback_ideals())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_unmixedness_matches_the_quotient_oracle(self, J):
        assert_matches_the_oracles(J)


def mora_radical_scan(J: Ideal, axis_var: str = "u") -> int:
    """Verify sqrt(J) = <axis_var> locally and return the least k with
    axis_var^k in J, from local standard bases; raises HypothesisError when the
    radical is another ideal. The oracle for the closed form in ``localdim``.

    Write u = axis_var and e for its least exponent over the generators, so
    that J = u^e * I with some generator of I not divisible by u. O is a
    domain, so u^k lies in J iff k >= e and u^(k-e) lies in I; the scan starts
    at k = e. The radical needs e >= 1, and then it is <u> iff I has a finite
    colength d:

    - if it has, the d + 1 classes of 1, u, ..., u^d modulo I are dependent, and
      a dependence is u^j times a unit, so u^j lies in I for some j <= d;
    - if it has not, a minimal prime of I has height one and is not (u), as I
      is not in (u); it is principal, so it contains no power of u, and
      neither do I and J.

    So the scan over j = 0, ..., d is exact and ends with a hit.
    """
    idx = J.ring.index[axis_var]
    e = min(m[idx] for g in J.gens for m in g.terms)
    if e == 0:
        raise HypothesisError(f"radical check failed: a generator is not divisible by {axis_var}")
    I = []
    for g in J.gens:
        terms = {m[:idx] + (m[idx] - e,) + m[idx + 1:]: c for m, c in g.terms.items()}
        I.append(Polynomial(J.ring, terms))
    B = std_basis(Ideal(I, J.ring), NEGDEGREVLEX)
    d = _staircase_count(B.lead_monomials, len(J.ring))
    if d is None:
        raise HypothesisError(f"radical check failed: no power of {axis_var} lies in the ideal")
    for j in range(d + 1):
        if B.contains(Polynomial.var(J.ring, axis_var, j)):
            return e + j
    raise InternalCheckError(f"no power of {axis_var} up to the colength {d} lies in the ideal")


def assert_matches_the_oracles(J):
    """``is_cohen_macaulay`` against the Mora scan (CM iff the least power of u
    in J is u^e) and against the quotient test (CM iff J : t = J)."""
    try:
        k = mora_radical_scan(J)
    except HypothesisError:
        with pytest.raises(HypothesisError, match="radical check failed"):
            is_cohen_macaulay(J)
        return
    w = is_cohen_macaulay(J)
    assert w.is_cm == (k == w.multiplicity)
    assert w.length >= w.multiplicity
    t = Polynomial.var(UT, "t")
    assert w.is_cm == ideal_equal(ideal_quotient(J, t), J, NEGDEGREVLEX)


@st.composite
def axis_ideals(draw):
    """One to three polynomials whose terms are all divisible by u, with no
    power of u among the generators: sqrt(J) = <u> holds or fails."""
    term = st.tuples(st.tuples(st.integers(1, 4), st.integers(0, 3)),
                     st.sampled_from((-2, -1, 1, 2)))
    polys = draw(st.lists(st.lists(term, min_size=1, max_size=3).map(dict),
                          min_size=1, max_size=3))
    return Ideal([Polynomial(UT, d) for d in polys], UT)


def random_pullback(seed):
    """Three generators of three terms u^a * t^b, 1 <= a <= 7, 0 <= b <= 3."""
    rng = random.Random(seed)
    gens = []
    for _ in range(3):
        terms = {}
        for _ in range(3):
            coeff = rng.choice((-3, -2, -1, 1, 2, 3))
            terms[rng.randint(1, 7), rng.randint(0, 3)] = coeff
        gens.append(Polynomial(UT, terms))
    return Ideal(gens, UT)


class TestRadicalScan:
    @pytest.mark.parametrize(
        "gens, k",
        [(("u^3", "t*u"), 3), (("u^3",), 3), (("u^2 - u*t + u^3", "u^3"), 3), (LOWERING, 5)],
    )
    def test_least_power_in_the_ideal(self, gens, k):
        J = I(*gens, ring=UT)
        assert mora_radical_scan(J, "u") == k
        B = std_basis(J, NEGDEGREVLEX)
        assert B.contains(Polynomial.var(UT, "u", k))
        assert not B.contains(Polynomial.var(UT, "u", k - 1))
        assert_matches_the_oracles(J)

    def test_no_power_cap(self):
        # J = u*<u + t^2, t^140>: u = -t^2 modulo the second factor, so the
        # least power of u in J is u^71
        J = I("u^2 + u*t^2", "u*t^140", ring=UT)
        assert mora_radical_scan(J, "u") == 71
        assert is_cohen_macaulay(J) == CMWitness(False, 2, 1)

    @pytest.mark.parametrize("gens", [("u^2 - u*t", "u^3 - u^2*t"), ("u*t",), ("u^2", "t")])
    def test_other_radical_is_a_hypothesis_failure(self, gens):
        J = I(*gens, ring=UT)
        with pytest.raises(HypothesisError, match="radical check failed"):
            is_cohen_macaulay(J)
        with pytest.raises(HypothesisError):
            mora_radical_scan(J)

    @given(axis_ideals())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_closed_form_radical_check_matches_the_oracles(self, J):
        assert_matches_the_oracles(J)

    def test_radical_failure_needs_the_gcd(self):
        # no generator is u^e times a unit, and the cofactors u + t and
        # u^2 - t^2 share the factor u + t, which vanishes at the origin
        J = I("u^2 + u*t", "u^3 - u*t^2", ring=UT)
        with pytest.raises(HypothesisError, match="no power of u lies in the ideal"):
            is_cohen_macaulay(J)
        # with coprime cofactors the colength is finite
        assert is_cohen_macaulay(I("u^2 + u*t", "u^3 - u*t^3", ring=UT)) == CMWitness(False, 2, 1)

    @pytest.mark.parametrize("seed, witness", [(0, CMWitness(True, 1, 1)), (1, CMWitness(False, 5, 1))])
    def test_pullbacks_that_hang_the_mora_scan(self, seed, witness):
        # the local standard basis of the cofactors runs for minutes on these
        start = time.perf_counter()
        assert is_cohen_macaulay(random_pullback(seed)) == witness
        assert time.perf_counter() - start < 5
