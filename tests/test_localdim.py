"""Local quotient lengths, verified decompositions, the epsilon invariant,
Hilbert-Samuel multiplicity and the Cohen-Macaulay test."""

from __future__ import annotations

import itertools
import random

import pytest

from equicurve import localdim
from equicurve.errors import ComputationError, InternalCheckError
from equicurve.gb import Ideal, ideal_sum
from equicurve.localdim import (
    INFINITE,
    CMWitness,
    PrimaryDecomposition,
    epsilon_from_decomposition,
    hs_multiplicity_of_param,
    is_cohen_macaulay,
    vdim,
)
from equicurve.poly import Polynomial, VarSet, parse_poly

XYZ = VarSet(("x", "y", "z"))
UT = VarSet(("u", "t"))


def I(*gens, ring=XYZ):
    return Ideal([parse_poly(g, ring) for g in gens], ring)


class TestVdim:
    def test_embedded_component_length(self):
        assert vdim(I("x^4", "x*z", "y^2", "y*z^2", "z^3")).value == 11

    def test_component_sum_length(self):
        assert (
            vdim(I("x^4", "x*z", "y^2", "y*z^2", "z^3", "z", "y^3 - x^4")).value == 8
        )

    def test_maximal_ideal(self):
        assert vdim(I("x", "y", "z")).value == 1

    def test_infinite_when_not_m_primary(self):
        v = vdim(I("z", "y^3 - x^4"))
        assert not v.finite
        with pytest.raises(ComputationError):
            v.expect_finite("length")

    def test_unit_multiples_do_not_matter(self):
        # local order: 1 + x is a unit, so (1+x)*y generates <y>
        assert vdim(I("(1 + x)*y", "x^2", "z")).value == vdim(I("y", "x^2", "z")).value

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
                assert not v.finite
                continue
            count = sum(
                1
                for c in itertools.product(range(box), repeat=3)
                if not any(all(c[i] >= m[i] for i in range(3)) for m in monos)
            )
            assert v.value == count


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
        real = localdim.ideal_intersect
        monkeypatch.setattr(
            localdim, "ideal_intersect", lambda a, b: calls.append(1) or real(a, b)
        )
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


class TestHilbertSamuel:
    def test_moving_tangent_pullback(self):
        assert hs_multiplicity_of_param(I("u^3", "t*u", ring=UT)) == 1

    def test_monomial_powers(self):
        for m in range(1, 9):
            assert hs_multiplicity_of_param(I(f"u^{m}", ring=UT)) == m

    def test_stabilizes_quickly(self):
        assert hs_multiplicity_of_param(I("u^3", "u^4", "t*u^5", ring=UT), n_max=6) == 3

    def test_radical_precheck_rejects_bad_generator(self):
        with pytest.raises(ComputationError):
            hs_multiplicity_of_param(I("t", ring=UT))

    def test_radical_precheck_requires_u_power(self):
        with pytest.raises(ComputationError):
            hs_multiplicity_of_param(I("t*u", ring=UT))


class TestCohenMacaulay:
    def test_not_cm_witness(self):
        w = is_cohen_macaulay(I("u^3", "t*u", ring=UT))
        assert w == CMWitness(is_cm=False, length=3, multiplicity=1)

    def test_cm_principal(self):
        w = is_cohen_macaulay(I("u^3", ring=UT))
        assert w == CMWitness(is_cm=True, length=3, multiplicity=3)

    def test_cm_high_order_deformation(self):
        w = is_cohen_macaulay(I("u^3", "u^4", "t*u^5", ring=UT))
        assert w.is_cm and w.length == w.multiplicity == 3

    def test_length_dominates_multiplicity(self):
        for gens in (("u^3", "t*u"), ("u^3",), ("u^2", "t*u"), ("u^4", "t*u^2")):
            w = is_cohen_macaulay(I(*gens, ring=UT))
            assert w.length >= w.multiplicity
            assert w.is_cm == (w.length == w.multiplicity)
