"""Behaviour of the result records and presentations: construction checks,
equality, immutability, the layout of a family's report fields and the reprs
that error lines print."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from equicurve.cli import EXIT_COMPUTE, analyze_manifest, main
from equicurve.curveinv import BranchParam, CurveInvariants, CurvePresentation
from equicurve.errors import ComputationError, InternalCheckError, ParseError
from equicurve.family import (
    RING_UT,
    Declared,
    FamilyComponent,
    GenericAssertions,
    Parametrized,
    classify,
)
from equicurve.localdim import CMWitness
from equicurve.poly import VarSet, parse_poly

RING_U = VarSet(("u",))
EXPECTED_FAMILIES = Path(__file__).resolve().parents[1] / "perfbench" / "expected_families.json"

CUSP = dict(m=2, r=1, delta_red=1, epsilon=0, delta=1, mu_red=2, mu=2)


def branch(*comps):
    return BranchParam([parse_poly(c, RING_U) for c in comps])


def cusp_family():
    """The product family of the cusp, parametrized."""
    return Parametrized((FamilyComponent([parse_poly(c, RING_UT) for c in ("u^2", "u^3")]),))


def declared_cusp_family():
    """The product family of the cusp, declared."""
    return Declared(CurvePresentation([branch("u^2", "u^3")]), (1, 0),
                    GenericAssertions(mu=2, m=2, r=1))


def frozen_records():
    """Each frozen record, with the name of one of its fields."""
    return [
        (CMWitness(True, 2, 2), "is_cm"),
        (CurveInvariants(**CUSP), "mu"),
        (GenericAssertions(mu=2, m=2, r=1), "epsilon"),
        (cusp_family(), "components"),
        (declared_cusp_family(), "classes"),
    ]


class TestCurveInvariants:
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"delta": 0}, "delta identity"),
            ({"mu": 0}, "mu identity"),
            ({"m": -1}, "negative invariant"),
        ],
    )
    def test_broken_identity_raises(self, change, message):
        with pytest.raises(InternalCheckError, match=message):
            CurveInvariants(**dict(CUSP, **change))

    def test_positional_and_keyword_construction_agree(self):
        assert CurveInvariants(2, 1, 1, 0, 1, 2, 2) == CurveInvariants(**CUSP)

    def test_equality_and_hash_follow_the_fields(self):
        a, b = CurveInvariants(**CUSP), CurveInvariants(**CUSP)
        assert a == b and hash(a) == hash(b)
        assert a != CurveInvariants(**dict(CUSP, m=3))

    def test_repr_names_every_field(self):
        inv = CurveInvariants(m=3, r=2, delta_red=3, epsilon=0, delta=3, mu_red=5, mu=5)
        assert repr(inv) == str(inv) == (
            "CurveInvariants(m=3, r=2, delta_red=3, epsilon=0, delta=3, mu_red=5, mu=5)"
        )


class TestDefaults:
    def test_classify_seed_defaults_to_zero(self):
        component = FamilyComponent([parse_poly(c, RING_UT) for c in ("u^2", "u^3 + t*u")])
        F = Parametrized((component,))
        samples = classify(F)["generic"]["t_samples"]
        assert samples == classify(F, seed=0)["generic"]["t_samples"]
        assert samples != classify(F, seed=1)["generic"]["t_samples"]

    def test_generic_assertions(self):
        a = GenericAssertions(mu=2, m=2, r=1)
        assert (a.delta, a.epsilon) == (None, 0)
        assert a._fields == ("mu", "m", "r", "delta", "epsilon")

    def test_fiber_invariants_samples(self):
        # a parametrized family lists its two samples as fractions in lowest
        # terms, a declared one none; the special fiber lists no samples
        parametrized, declared = classify(cusp_family()), classify(declared_cusp_family())
        assert parametrized["generic"]["t_samples"] == ["1", "-5/9"]
        assert declared["generic"]["t_samples"] == []
        assert list(parametrized["special"]) == list(declared["special"]) == ["invariants"]

    def test_cm_witness(self):
        w = CMWitness(is_cm=False, length=3, multiplicity=2)
        assert (w.is_cm, w.length, w.multiplicity) == (False, 3, 2)
        assert w == CMWitness(False, 3, 2)


@pytest.mark.parametrize(
    "record, field", frozen_records(), ids=[type(r).__name__ for r, _ in frozen_records()]
)
def test_frozen_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


class TestPresentations:
    def test_curve_needs_a_branch(self):
        with pytest.raises(ValueError):
            CurvePresentation([])

    def test_curve_fields(self):
        C = CurvePresentation([branch("u^2", "u^3")])
        assert len(C.branches) == 1 and C.ideal is None
        assert not hasattr(C, "decomposition")

    # a family is checked once, where the manifest is read: the records take
    # what they are given
    @staticmethod
    def family_error(**fields):
        entry = {"name": "f", "kind": "family", **fields}
        with pytest.raises(ParseError) as info:
            analyze_manifest({"ring": ["x", "y"], "entries": [entry]})
        return str(info.value)

    def test_parametrized_family_needs_a_component(self):
        assert self.family_error() == "entry 'f': parametrized family needs components"
        assert self.family_error(components=[]) == "entry 'f'.components: expected a nonempty list"

    @pytest.mark.parametrize("missing", ["declared_special", "declared_classes",
                                         "generic_assertions"])
    def test_incomplete_declared_family(self, missing):
        fiber = {"branches": [["u^2", "u^3"]], "classes": [1, 0]}
        fields = dict(mode="declared", special_fiber=fiber,
                      generic_fiber_assertions={"mu": 2, "m": 2, "r": 1})
        if missing == "generic_assertions":
            del fields["generic_fiber_assertions"]
        else:
            del fiber[{"declared_special": "branches", "declared_classes": "classes"}[missing]]
        assert "declared mode needs special_fiber branches, classes and" in self.family_error(**fields)

    def test_unknown_mode(self):
        assert self.family_error(mode="sampled") == (
            "entry 'f'.mode: expected 'parametrized' or 'declared'"
        )


@pytest.mark.parametrize("family", [cusp_family, declared_cusp_family])
def test_classify_returns_the_report_fields_in_order(family):
    rep = classify(family())
    assert list(rep) == ["special", "generic", "verdict", "constancy", "hypotheses", "justification"]
    assert list(rep["verdict"]) == ["topologically_trivial", "whitney",
                                    "strong_simultaneous_resolution", "cm_by_component",
                                    "b0_generic_fiber"]
    assert list(rep["special"]["invariants"]) == list(CUSP)
    assert all(list(j) == ["claim", "rule", "inputs"] for j in rep["justification"])


def test_error_line_prints_invariant_reprs(tmp_path, capsys):
    # both seed-0 samples give a generic fiber, with different invariants; the
    # line recorded for this family by the benchmark must come out unchanged
    components = [["u^2", "u^3", "t*u^2"], ["u", "-2*u", "u"]]
    recorded = json.loads(EXPECTED_FAMILIES.read_text())[
        json.dumps(components, separators=(",", ":"))
    ]["error"]
    assert recorded[0] == "ComputationError" and recorded[2] == EXIT_COMPUTE
    assert recorded[1].count("CurveInvariants(m=3, r=2, ") == 2
    entry = {"name": "f", "kind": "family", "components": components}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": ["x", "y", "z"], "entries": [entry]}))
    assert main(["analyze", str(path)]) == EXIT_COMPUTE
    assert capsys.readouterr().err == f"computation error: {recorded[1]}\n"
