"""Acceptance gate: one test per acceptance criterion, each emitting a single
pass/fail line, aggregating the worked-example corpus and the property suite."""

from __future__ import annotations

import itertools
import json
import math
import random
from contextlib import contextmanager

from equicurve.cli import analyze_manifest, run_paper_corpus
from equicurve.curveinv import BranchParam, CurvePresentation, delta_reduced, invariants
from equicurve.errors import ComputationError, HypothesisError
from equicurve.family import (
    RING_UT,
    FamilyComponent,
    Parametrized,
    classify,
)
from equicurve.gb import Ideal
from equicurve.localdim import (
    PrimaryDecomposition,
    epsilon,
    epsilon_from_decomposition,
    hs_multiplicity_of_param,
    is_cohen_macaulay,
    vdim,
)
from equicurve.poly import NEGDEGREVLEX, Polynomial, VarSet, parse_poly
from gb_reference import ideal_equal, ideal_quotient
from oracles import semigroup_delta_oracle

XYZ = VarSet(("x", "y", "z"))
UT = RING_UT
U = VarSet(("u",))


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def I(*gens, ring=XYZ):
    return Ideal([parse_poly(g, ring) for g in gens], ring)


def branch(*comps):
    return BranchParam([parse_poly(c, U) for c in comps])


def comp(*polys, label=""):
    return FamilyComponent([parse_poly(s, UT) for s in polys], label=label)


def _corpus_entry(name):
    report, mismatches = run_paper_corpus()
    assert not [m for m in mismatches if m[0] == name]
    return next(e for e in report["entries"] if e["name"] == name)


def test_criterion_1_space_cusp_exact_values(capsys):
    with capsys.disabled(), criterion("1 space cusp with embedded point"):
        assert vdim(I("x^4", "x*z", "y^2", "y*z^2", "z^3")) == 11
        assert vdim(I("x^4", "x*z", "y^2", "y*z^2", "z^3", "z", "y^3-x^4")) == 8
        ideal = I("x*z", "y^3-x^4", "y^2*z", "y*z^2", "z^3")
        D = PrimaryDecomposition.verified(
            ideal, [I("z", "y^3-x^4")], embedded=I("x^4", "x*z", "y^2", "y*z^2", "z^3")
        )
        # the decomposition is the oracle of the ladder, which needs only the ideal
        cusp = [branch("u^3", "u^4", "0")]
        assert epsilon_from_decomposition(ideal, D) == epsilon(ideal, cusp) == 3
        inv = invariants(CurvePresentation(cusp, ideal=ideal))
        assert (inv.delta_red, inv.epsilon, inv.mu_red, inv.delta, inv.mu) == (3, 3, 6, 0, 0)


def test_criterion_2_moving_tangent_family(capsys):
    with capsys.disabled(), criterion("2 moving-tangent deformation"):
        entry = _corpus_entry("space-cusp-moving-tangent")
        assert entry["special"]["invariants"]["m"] == 3
        assert entry["generic"]["invariants"]["m"] == 1
        assert entry["special"]["invariants"]["mu"] == 0
        assert entry["generic"]["invariants"]["mu"] == 0
        v = entry["verdict"]
        assert v["topologically_trivial"] is True
        assert v["whitney"] is False
        assert v["strong_simultaneous_resolution"] is False
        w = is_cohen_macaulay(I("u^3", "t*u", ring=UT))
        assert (w.is_cm, w.length, w.multiplicity) == (False, 3, 1)


def test_criterion_3_high_order_deformation(capsys):
    with capsys.disabled(), criterion("3 high-order deformation"):
        entry = _corpus_entry("space-cusp-high-order-deformation")
        assert entry["special"]["invariants"]["mu"] == 4
        assert entry["generic"]["invariants"]["mu"] == 4
        assert entry["special"]["invariants"]["m"] == 3
        assert entry["generic"]["invariants"]["m"] == 3
        assert len(entry["generic"]["t_samples"]) == 2
        v = entry["verdict"]
        assert v["topologically_trivial"] and v["whitney"]
        assert v["strong_simultaneous_resolution"]
        w = is_cohen_macaulay(I("u^3", ring=UT))
        assert w.is_cm and w.length == w.multiplicity == 3


def test_criterion_4_cusp_series(capsys):
    with capsys.disabled(), criterion("4 cusp series s = 3k+1 and 3k+2"):
        for k in (1, 2, 3):
            for s, eps in ((3 * k + 1, 3 * k), (3 * k + 2, 3 * k + 1)):
                entry = _corpus_entry(f"space-cusp-3-{s}-moving-tangent")
                inv0 = entry["special"]["invariants"]
                assert inv0["epsilon"] == eps
                assert inv0["mu_red"] == 2 * eps
                assert inv0["mu"] == 0
                assert inv0["m"] == 3
                assert entry["generic"]["invariants"]["m"] == 1
                assert entry["verdict"]["whitney"] is False


def test_criterion_5_five_lines_declared(capsys):
    with capsys.disabled(), criterion("5 five-lines splitting family"):
        entry = _corpus_entry("five-lines-splitting-family")
        inv0 = entry["special"]["invariants"]
        assert inv0 == {
            "m": 5, "r": 5, "delta_red": 5, "epsilon": 1,
            "delta": 4, "mu_red": 6, "mu": 4,
        }
        v = entry["verdict"]
        assert v["b0_generic_fiber"] == 2
        assert v["topologically_trivial"] is False
        assert v["whitney"] is False


def test_criterion_6a_two_route_whitney_agreement(capsys):
    with capsys.disabled(), criterion("6a two-route Whitney agreement, 50 families"):
        rng = random.Random(20260823)
        accepted = 0
        rejected = 0
        for _ in range(50):
            a = rng.randint(2, 5)
            b = rng.randint(a + 1, 9)
            c = rng.randint(0, 6)
            polys = ["u^%d" % a, "u^%d" % b, "t*u^%d" % c if c else "t"]
            try:
                v = classify(Parametrized(components=(comp(*polys),)))["verdict"]
            except (HypothesisError, ComputationError):
                rejected += 1
                continue
            # classify() itself hard-fails on route disagreement; re-derive the
            # CM route here from the reported witnesses as an external check
            cm_all = all(w["is_cm"] for w in v["cm_by_component"])
            assert v["whitney"] == (v["topologically_trivial"] and cm_all)
            if v["whitney"]:
                assert v["topologically_trivial"]
            accepted += 1
        assert accepted >= 10 and accepted + rejected == 50


def test_criterion_6b_delta_matches_semigroup_oracle(capsys):
    with capsys.disabled(), criterion("6b delta vs semigroup oracle, 100 branches"):
        rng = random.Random(7)
        done = 0
        while done < 100:
            a = rng.randint(2, 8)
            b = rng.randint(a + 1, 21)
            if math.gcd(a, b) != 1 or (a - 1) * (b - 1) > 40:
                continue
            br = branch(f"u^{a}", f"u^{b}")
            expected = semigroup_delta_oracle(br)
            assert delta_reduced([br]) == expected
            done += 1


def test_criterion_6c_length_dominates_multiplicity(capsys):
    with capsys.disabled(), criterion("6c l >= e with equality iff Cohen-Macaulay"):
        rng = random.Random(13)
        t = parse_poly("t", UT)
        for _ in range(20):
            a = rng.randint(1, 6)
            c = rng.randint(1, 4)
            J = I(f"u^{a}", f"t*u^{c}", ring=UT)
            w = is_cohen_macaulay(J)
            assert w.length >= w.multiplicity
            assert w.is_cm == (w.length == w.multiplicity)
            assert w.is_cm == ideal_equal(ideal_quotient(J, t), J, NEGDEGREVLEX)


def test_criterion_6d_vdim_brute_force(capsys):
    with capsys.disabled(), criterion("6d vdim vs staircase enumeration, 100 ideals"):
        rng = random.Random(3)
        box = 13
        for _ in range(100):
            monos = {
                tuple(rng.randint(0, 6) for _ in range(3))
                for _ in range(rng.randint(1, 5))
            }
            monos = {m for m in monos if any(m) and sum(m) <= 12}
            if not monos:
                continue
            gens = [Polynomial.monomial(XYZ, m, 1) for m in monos]
            v = vdim(Ideal(gens, XYZ))
            finite = all(
                any(
                    m[i] and all(m[j] == 0 for j in range(3) if j != i)
                    for m in monos
                )
                for i in range(3)
            )
            if not finite:
                assert v is None
                continue
            count = sum(
                1
                for cands in itertools.product(range(box), repeat=3)
                if not any(all(cands[i] >= m[i] for i in range(3)) for m in monos)
            )
            assert v == count


def test_criterion_6e_multiplicity_of_monomial_powers(capsys):
    with capsys.disabled(), criterion("6e Hilbert-Samuel multiplicity of u^m"):
        for m in range(1, 9):
            assert hs_multiplicity_of_param(I(f"u^{m}", ring=UT)) == m


def test_criterion_7_determinism(capsys):
    with capsys.disabled(), criterion("7 determinism and seed independence"):
        ra, ma = run_paper_corpus(seed=1)
        rb, mb = run_paper_corpus(seed=1)
        assert ma == mb == []
        assert json.dumps(ra, indent=2) == json.dumps(rb, indent=2)
        rc, _ = run_paper_corpus(seed=2)
        for ea, ec in zip(ra["entries"], rc["entries"]):
            if ea["kind"] == "family":
                assert ea["special"] == ec["special"]
                assert ea["generic"]["invariants"] == ec["generic"]["invariants"]
                assert ea["verdict"] == ec["verdict"]
            else:
                assert ea == ec
