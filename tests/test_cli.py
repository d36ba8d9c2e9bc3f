"""Command line behavior: manifest schema enforcement, report formats,
determinism, exit codes and the corpus runner."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve import cli, corpus, gb, poly
from equicurve.cli import (
    EXIT_COMPUTE,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_PARSE,
    analyze_manifest,
    main,
    render_report,
    run_paper_corpus,
)
from equicurve.curveinv import RING_U, BranchParam
from equicurve.errors import EquicurveError, HypothesisError, ParseError
from equicurve.poly import NEGDEGREVLEX, VarSet, parse_poly

CUSP_FAMILY_ENTRY = {
    "name": "cusp-family",
    "kind": "family",
    "components": [["u^3", "u^4", "t*u"]],
    "special_fiber": {"ideal": ["x*z", "y^3-x^4", "y^2*z", "y*z^2", "z^3"]},
}

CUSP_CURVE_ENTRY = {
    "name": "cusp-curve",
    "kind": "curve",
    "branches": [["u^3", "u^4", "0"]],
    "ideal": ["x*z", "y^3-x^4", "y^2*z", "y*z^2", "z^3"],
}

# A primary decomposition of the cusp's ideal, once an input field
CUSP_DECOMPOSITION = {
    "primes": [["z", "y^3-x^4"]],
    "embedded": ["x^4", "x*z", "y^2", "y*z^2", "z^3"],
}

DECLARED_FAMILY_ENTRY = {
    "name": "declared-cusp",
    "kind": "family",
    "mode": "declared",
    "special_fiber": {"branches": [["u^2", "u^3", "0"]], "classes": [1, 0]},
}


def manifest(*entries):
    return {"ring": ["x", "y", "z"], "entries": list(entries)}


def write_manifest(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def readme_manifest():
    """The manifest of README.md's "Manifest format" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


class TestAnalyze:
    def test_curve_report_values(self):
        report = analyze_manifest(manifest(CUSP_CURVE_ENTRY))
        inv = report["entries"][0]["invariants"]
        assert inv == {
            "m": 3, "r": 1, "delta_red": 3, "epsilon": 3,
            "delta": 0, "mu_red": 6, "mu": 0,
        }

    def test_family_report_values(self):
        report = analyze_manifest(manifest(CUSP_FAMILY_ENTRY))
        entry = report["entries"][0]
        assert entry["special"]["invariants"]["m"] == 3
        assert entry["generic"]["invariants"]["m"] == 1
        assert entry["verdict"]["whitney"] is False
        assert entry["verdict"]["topologically_trivial"] is True
        assert len(entry["generic"]["t_samples"]) == 2
        assert entry["justification"]

    def test_lowering_family_gets_exact_multiplicity(self, tmp_path, capsys):
        # lengths of J + <t^n> repeat the difference 3 five times before settling
        # at e = 2, which stopped the Hilbert-Samuel ladder at e = 3
        entry = {"name": "lowering", "kind": "family",
                 "components": [["u^3+t^2*u^2", "u^7", "t^2*u^4"]]}
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["entries"][0]["verdict"]
        assert verdict["cm_by_component"] == [
            {"label": "0", "is_cm": False, "length": 3, "multiplicity": 2}
        ]
        assert verdict["whitney"] is False

    @pytest.mark.parametrize(
        "component",
        [["u^2 - u*t + u^3", "u^3", "0"], ["u^7", "-u^6*t - 3*u^2 + 2*u*t", "0"]],
    )
    def test_family_with_long_local_tails(self, tmp_path, capsys, component):
        # small families whose pullback bases have long local tails; nothing
        # reads the tails, so nothing reduces them
        entry = {"name": "tails", "kind": "family", "components": [component]}
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["entries"][0]["verdict"]
        assert verdict["cm_by_component"] == [
            {"label": "0", "is_cm": False, "length": 2, "multiplicity": 1}
        ]
        assert verdict["whitney"] is False

    def test_pullback_radical_failure_names_the_component(self, tmp_path, capsys):
        # J = <u*(u - t)>: the component also meets u = t
        entry = {"name": "radical", "kind": "family",
                 "components": [["u^2 - t*u", "u^3 - t*u^2"]]}
        path = write_manifest(tmp_path, {"ring": ["x", "y"], "entries": [entry]})
        assert main(["analyze", path]) == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("hypothesis failure:") and err.count("\n") == 1
        assert "component '0' violates the pullback radical condition" in err

    def test_empty_manifest(self):
        report = analyze_manifest(manifest())
        assert report["entries"] == []

    def test_exit_ok_and_json(self, tmp_path, capsys):
        path = write_manifest(tmp_path, manifest(CUSP_CURVE_ENTRY))
        assert main(["analyze", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["entries"][0]["name"] == "cusp-curve"

    def test_text_format(self, tmp_path, capsys):
        path = write_manifest(tmp_path, manifest(CUSP_FAMILY_ENTRY))
        assert main(["analyze", path, "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "whitney=False" in out and "Cohen-Macaulay=False" in out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/m.json"]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "data",
        [
            readme_manifest(),
            manifest({"name": "cusp-and-line", "kind": "family",
                      "components": [["u^2", "u^3", "t*u"], ["u + t", "u", "0"]]}),
        ],
        ids=["readme", "family"],
    )
    def test_json_report_has_the_bytes_of_json_dumps(self, tmp_path, capsys, data):
        path = write_manifest(tmp_path, data)
        assert main(["analyze", path]) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(analyze_manifest(data), indent=2) + "\n"


class TestSchemaRejection:
    @pytest.mark.parametrize(
        "data",
        [
            {"ring": ["x", "y", "z"]},
            {"ring": ["x", "y", "z"], "entries": [], "extra": 1},
            {"ring": ["x", "x", "z"], "entries": []},
            {"ring": ["x", "u"], "entries": []},
            {"ring": [], "entries": []},
            {"ring": ["x", "y", "z"], "entries": [{"name": "a", "kind": "widget"}]},
        ],
    )
    def test_bad_toplevel(self, tmp_path, data):
        path = write_manifest(tmp_path, data)
        assert main(["analyze", path]) == EXIT_PARSE

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_name_with_a_lone_surrogate(self, tmp_path, capsys, fmt):
        # valid JSON, but not text that UTF-8 can encode: the text report could not print it
        entry = {"name": "a\ud800b", "kind": "curve", "branches": [["u^2", "u^3", "0"]]}
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path, "--format", fmt]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: entry.name: 'a\\ud800b' is not valid")
        assert captured.err.count("\n") == 1

    def test_unknown_entry_field(self, tmp_path):
        entry = dict(CUSP_CURVE_ENTRY, surprise=1)
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_PARSE

    def test_unparseable_polynomial(self, tmp_path):
        entry = dict(CUSP_CURVE_ENTRY)
        entry = json.loads(json.dumps(entry))
        entry["ideal"][0] = "x *!* z"
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_PARSE

    def test_wrong_branch_width(self, tmp_path):
        entry = {"name": "c", "kind": "curve", "branches": [["u^2", "u^3"]]}
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_PARSE

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json {")
        assert main(["analyze", str(path)]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "options",
        [
            {"n_max": -5},
            {"n_max": 0, "seed": 3},
            {"seed": -4, "n_max": -1},
            {"n_max": 0},
            {"n_max": -1},
        ],
    )
    def test_n_max_and_curve_options_are_unknown_fields(self, tmp_path, capsys, options):
        # no entry takes options: the one seed is the command line's --seed
        for entry in (CUSP_CURVE_ENTRY, CUSP_FAMILY_ENTRY):
            path = write_manifest(tmp_path, manifest(dict(entry, options=options)))
            assert main(["analyze", path]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("parse error:") and err.count("\n") == 1
            assert "unknown field(s) ['options']" in err

    @pytest.mark.parametrize("reduced", [True, False])
    @pytest.mark.parametrize("mode", ["declared", "parametrized"])
    def test_reduced_is_an_unknown_field(self, tmp_path, capsys, mode, reduced):
        # the generic epsilon is set by `epsilon` alone
        entry = DECLARED_FAMILY_ENTRY if mode == "declared" else CUSP_FAMILY_ENTRY
        assertions = {"mu": 0, "m": 1, "r": 1, "reduced": reduced}
        path = write_manifest(
            tmp_path, manifest(dict(entry, generic_fiber_assertions=assertions))
        )
        assert main(["analyze", path]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"parse error: entry {entry['name']!r}.generic_fiber_assertions: "
            "unknown field(s) ['reduced']\n"
        )

    @pytest.mark.parametrize(
        "options", [{"jet_order": 24}, {"degree_bound": 12}, {"n_max": 32}]
    )
    def test_removed_delta_options_are_unknown_fields(self, tmp_path, capsys, options):
        for entry in (CUSP_CURVE_ENTRY, CUSP_FAMILY_ENTRY):
            path = write_manifest(tmp_path, manifest(dict(entry, options=options)))
            assert main(["analyze", path]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("parse error:") and err.count("\n") == 1
            assert "unknown field" in err

    def test_deeply_nested_polynomial(self, tmp_path, capsys):
        component = "(" * 3000 + "u" + ")" * 3000
        entry = {"name": "deep", "kind": "curve", "branches": [[component, "u^2", "0"]]}
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "std"])
    def test_deeply_nested_json(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = [command, str(path)] + (["--order", "local"] if command == "std" else [])
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "std"])
    def test_file_that_is_not_utf8(self, tmp_path, capsys, command):
        # a name in Latin-1: the byte 0xff starts no UTF-8 sequence
        path = tmp_path / "latin1.json"
        if command == "analyze":
            path.write_bytes(
                b'{"ring": ["x"], "entries": [{"name": "\xff", "kind": "curve", "branches": [["u"]]}]}'
            )
            argv = ["analyze", str(path)]
        else:
            path.write_bytes(b'{"ring": ["x\xff"], "generators": ["x"]}')
            argv = ["std", str(path), "--order", "local"]
        what = "manifest" if command == "analyze" else "input"
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {what} is not valid UTF-8:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("name", ["", "x y", "x*y", "1x"])
    @pytest.mark.parametrize("command", ["analyze", "std"])
    def test_ring_name_the_parser_cannot_read(self, tmp_path, capsys, command, name):
        if command == "analyze":
            entry = {"name": "a", "kind": "curve", "branches": [["u^2", "u^3"]]}
            path = write_manifest(tmp_path, {"ring": [name, "y"], "entries": [entry]})
            argv = ["analyze", path]
        else:
            path = write_manifest(tmp_path, {"ring": [name, "y"], "generators": ["y"]})
            argv = ["std", path, "--order", "degrevlex"]
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        where = "manifest.ring" if command == "analyze" else "input.ring"
        assert captured.err == f"parse error: {where}: {name!r} is not a variable name " \
            "(a letter or '_', then letters, digits or '_')\n"

    def test_infinite_delta_is_compute_error(self, tmp_path, capsys):
        # the cusp in two parametrizations: a repeated branch, delta infinite
        entry = {"name": "twice", "kind": "curve",
                 "branches": [["u^2", "u^3", "0"], ["u^2", "-u^3", "0"]]}
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err.startswith("computation error:") and err.count("\n") == 1
        assert "JET_ORDER_CAP" in err

    def test_degenerate_samples_are_a_compute_error(self, tmp_path, capsys):
        # both seed-0 samples, t = 1 and t = -5/9, are roots of the t*u coefficient,
        # so both sampled fibers have multiplicity 3 over the generic 1
        entry = {"name": "degenerate", "kind": "family",
                 "components": [["u^3", "u^4", "(t-1)*(t+5/9)*u"]]}
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err.startswith("computation error:") and err.count("\n") == 1
        assert "t = 1, -5/9" in err and "multiplicity 3" in err and "multiplicity 1" in err
        assert "Hilbert" not in err

    @pytest.mark.parametrize(
        "ring, field, text, budget",
        [
            (["x", "y", "z"], "branches", "(u+u^2)^100000", "MAX_EXPONENT"),
            (["x", "y", "z"], "branches", "2^100000000", "MAX_EXPONENT"),
            (["x", "y", "z", "w", "v"], "ideal", "(x+y+z+w+v)^40", "MAX_TERM_PRODUCTS"),
        ],
    )
    def test_parser_budgets(self, tmp_path, capsys, ring, field, text, budget):
        branch = ["u"] + ["0"] * (len(ring) - 1)
        entry = {"name": "budget", "kind": "curve", "branches": [branch]}
        if field == "branches":
            entry["branches"] = [[text] + branch[1:]]
        else:
            entry["ideal"] = [text]
        path = write_manifest(tmp_path, {"ring": ring, "entries": [entry]})
        assert main(["analyze", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1
        assert budget in err

    @pytest.mark.parametrize("gens", [["0"], ["0*x"], []], ids=["zero", "zero-term", "empty"])
    @pytest.mark.parametrize("kind", ["curve", "family"])
    @pytest.mark.parametrize(
        "field, message",
        [
            ("ideal", "ideal: the ideal is zero"),
            # a decomposition is an unknown field, whatever ideals it lists
            ("primes", "unknown field(s) ['decomposition']"),
            ("embedded", "unknown field(s) ['decomposition']"),
        ],
        ids=["ideal", "prime", "embedded"],
    )
    def test_zero_ideal_is_parse_error(self, tmp_path, capsys, gens, kind, field, message):
        entry = json.loads(json.dumps(CUSP_CURVE_ENTRY if kind == "curve" else CUSP_FAMILY_ENTRY))
        node = entry if kind == "curve" else entry["special_fiber"]
        if field == "ideal":
            node["ideal"] = gens
        else:
            node["decomposition"] = dict(
                CUSP_DECOMPOSITION, **{field: [gens] if field == "primes" else gens}
            )
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "assertions, field",
        [
            ({"mu": 0, "m": 1, "r": 1, "epsilon": -2}, "epsilon"),
            ({"mu": 0, "m": 0, "r": 1}, "m"),
            ({"mu": 0, "m": 1, "r": 0}, "r"),
            ({"mu": 2, "m": None, "r": 1}, "m"),
            ({"mu": 2, "m": 2, "r": 1, "epsilon": None}, "epsilon"),
        ],
    )
    @pytest.mark.parametrize("mode", ["declared", "parametrized"])
    def test_assertions_that_describe_no_curve(self, tmp_path, capsys, assertions, field, mode):
        entry = DECLARED_FAMILY_ENTRY if mode == "declared" else CUSP_FAMILY_ENTRY
        path = write_manifest(
            tmp_path, manifest(dict(entry, generic_fiber_assertions=assertions))
        )
        assert main(["analyze", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1
        assert f".generic_fiber_assertions.{field}: expected an integer" in err

    @pytest.mark.parametrize(
        "assertions, delta_red, mu_red",
        [
            ({"mu": -2, "m": 1, "r": 1}, -1, -2),
            ({"mu": -2, "m": 1, "r": 1, "delta": -1}, -1, -2),
            ({"mu": -2, "m": 3, "r": 3}, 0, -2),
        ],
    )
    def test_declared_invariants_of_no_curve(self, tmp_path, capsys, assertions, delta_red,
                                             mu_red):
        entry = dict(DECLARED_FAMILY_ENTRY, generic_fiber_assertions=assertions)
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == (
            "hypothesis failure: declared generic invariants are inconsistent: they give "
            f"delta_red = {delta_red} and mu_red = {mu_red}, and neither can be negative\n"
        )

    @pytest.mark.parametrize("classes", [[0, 0], [0, 1], [0, 2]])
    def test_declared_family_with_no_class_a_component(self, tmp_path, capsys, classes):
        # no component contains the section, so the generic germ there is empty
        fiber = dict(DECLARED_FAMILY_ENTRY["special_fiber"], classes=classes)
        entry = dict(DECLARED_FAMILY_ENTRY, special_fiber=fiber,
                     generic_fiber_assertions={"mu": 0, "m": 1, "r": 1})
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == (
            "hypothesis failure: no component contains the section: family outside scope\n"
        )

    @pytest.mark.parametrize(
        "data, assertions, message",
        [
            # m = 5 at t = 0 and generically, with two generic connected components
            (corpus.MANIFEST_5VARS, {"mu": 6, "m": 5, "r": 3},
             "constant multiplicity with a disconnected generic fiber"),
            # mu = 2 at t = 0 and generically on a connected fiber, while delta
            # goes from 1 to 2 and r from 1 to 3
            (manifest(dict(DECLARED_FAMILY_ENTRY, special_fiber=dict(
                DECLARED_FAMILY_ENTRY["special_fiber"], classes=[1, 0]))),
             {"mu": 2, "m": 3, "r": 3},
             "topological-triviality criteria disagree: (delta, r) constancy gives False, "
             "(mu, connectivity) gives True"),
        ],
        ids=["five-lines", "cusp"],
    )
    def test_declared_contradiction_is_a_hypothesis_failure(self, tmp_path, capsys, data,
                                                             assertions, message):
        # both sides of each check are declared values: bad input, not an internal error
        data = json.loads(json.dumps(data))
        entry = next(e for e in data["entries"] if e.get("mode") == "declared")
        entry["generic_fiber_assertions"] = assertions
        data["entries"] = [entry]
        path = write_manifest(tmp_path, data)
        assert main(["analyze", path]) == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == f"hypothesis failure: {message}\n"

    @pytest.mark.parametrize("kind", ["curve", "parametrized", "declared"])
    def test_decomposition_is_an_unknown_field(self, tmp_path, capsys, kind):
        # epsilon comes from the ideal and the branches: a decomposition, right
        # or wrong, is refused before anything is computed
        entry = json.loads(json.dumps(
            {"curve": CUSP_CURVE_ENTRY, "parametrized": CUSP_FAMILY_ENTRY,
             "declared": DECLARED_FAMILY_ENTRY}[kind]
        ))
        node = entry if kind == "curve" else entry["special_fiber"]
        node["decomposition"] = dict(CUSP_DECOMPOSITION, embedded=["x", "y", "z"])
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        where = f"entry {entry['name']!r}" + ("" if kind == "curve" else ".special_fiber")
        assert captured.err == (
            f"parse error: {where}: unknown field(s) ['decomposition']\n"
        )

    @pytest.mark.parametrize(
        "ideal, decomposition",
        [
            (["1"], {"primes": [["1"]]}),
            (["y^2 - x^3", "z"], {"primes": [["y^2 - x^3", "z"]], "embedded": ["1"]}),
        ],
        ids=["prime", "embedded"],
    )
    def test_unit_ideal_component_is_rejected(self, tmp_path, capsys, ideal, decomposition):
        # a decomposition with a unit component, once rejected when verified,
        # is now an unknown field
        entry = {"name": "unit", "kind": "curve", "branches": [["u^2", "u^3", "0"]],
                 "ideal": ideal, "decomposition": decomposition}
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: entry 'unit': unknown field(s) ['decomposition']\n"

    @pytest.mark.parametrize("kind", ["curve", "declared"])
    def test_ideal_of_another_curve_is_a_hypothesis_failure(self, tmp_path, capsys, kind):
        # the y-axis with an embedded point beside the cusp branch: its epsilon
        # is not the cusp's
        fiber = {
            "branches": [["u^2", "u^3", "0"]],
            "ideal": ["x^2", "x*y", "z"],
        }
        if kind == "curve":
            entry = {"name": "other-curve", "kind": "curve", **fiber}
            label = "0"
        else:
            # the y-axis itself passes; the cusp, branch 1, is named
            fiber["branches"].insert(0, ["0", "u", "0"])
            entry = {"name": "other-curve", "kind": "family", "mode": "declared",
                     "special_fiber": {**fiber, "classes": [1, 1]},
                     "generic_fiber_assertions": {"mu": 1, "m": 2, "r": 2}}
            label = "1"
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_HYPOTHESIS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"hypothesis failure: ideal generator 'x^2' does not vanish on branch '{label}'\n"
        )

    def test_hypothesis_failure_exit_code(self, tmp_path):
        entry = {
            "name": "bad",
            "kind": "family",
            "components": [["u^2", "u^4", "t*u"]],
        }
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_HYPOTHESIS


CUSP_IDEALS = {
    # the corpus cusp (u^3, u^4, 0) with an embedded point of length 3
    "embedded-point": ["x*z", "y^3-x^4", "y^2*z", "y*z^2", "z^3"],
    # the cusp beside the z-axis: V(I) has a component that is no branch
    "extra-component": ["x*z", "y*z", "y^3-x^4"],
    # a double structure along the cusp: I is not reduced along the branch
    "double-structure": ["z^2", "y^3-x^4"],
}


def cusp_with_ideal(kind, ideal):
    """The cusp (u^3, u^4, 0) with the given ideal and no decomposition, as a
    curve or as the special fiber of the moving-tangent family."""
    if kind == "curve":
        return {"name": "cusp", "kind": "curve", "branches": [["u^3", "u^4", "0"]],
                "ideal": ideal}
    return {"name": "cusp", "kind": "family", "components": [["u^3", "u^4", "t*u"]],
            "special_fiber": {"ideal": ideal}}


class TestEpsilonLadder:
    """epsilon from the ideal and the branches alone (``localdim.epsilon``)."""

    @pytest.mark.parametrize("kind", ["curve", "family"])
    def test_cusp_with_its_ideal_and_no_decomposition(self, tmp_path, capsys, kind):
        path = write_manifest(tmp_path, manifest(cusp_with_ideal(kind, CUSP_IDEALS["embedded-point"])))
        assert main(["analyze", path]) == EXIT_OK
        entry = json.loads(capsys.readouterr().out)["entries"][0]
        inv = entry["invariants"] if kind == "curve" else entry["special"]["invariants"]
        assert (inv["epsilon"], inv["delta"], inv["mu_red"], inv["mu"]) == (3, 0, 6, 0)

    @pytest.mark.parametrize("kind", ["curve", "family"])
    def test_extra_component_is_a_hypothesis_failure(self, tmp_path, capsys, kind):
        path = write_manifest(tmp_path, manifest(cusp_with_ideal(kind, CUSP_IDEALS["extra-component"])))
        assert main(["analyze", path]) == EXIT_HYPOTHESIS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "hypothesis failure: V(I) has a component other than the branches: "
            "vdim(I + <x>) is infinite, and x vanishes on no branch\n"
        )

    @pytest.mark.parametrize("kind", ["curve", "family"])
    def test_double_structure_exits_4(self, tmp_path, capsys, kind):
        # vdim(I + <x^N>) - 3N = 3N for every N: the lengths read off one
        # standard basis grow, so e(x; O/I) = 6 exceeds e = 3
        path = write_manifest(tmp_path, manifest(cusp_with_ideal(kind, CUSP_IDEALS["double-structure"])))
        start = time.perf_counter()
        assert main(["analyze", path]) == EXIT_HYPOTHESIS
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "hypothesis failure: V(I) has a component other than the branches, or I is not "
            "reduced along a branch: e(x; O/I) = 6, above e = 3, the sum of the orders of x "
            "on them\n"
        )

    def test_reduced_ideal_gives_zero(self, tmp_path, capsys):
        # the cusp's own prime: the ladder reads 0 twice and certifies epsilon = 0
        path = write_manifest(tmp_path, manifest(cusp_with_ideal("curve", ["z", "y^3-x^4"])))
        assert main(["analyze", path]) == EXIT_OK
        inv = json.loads(capsys.readouterr().out)["entries"][0]["invariants"]
        assert (inv["epsilon"], inv["mu"]) == (0, 6)


class TestParametrizedAssertions:
    """In parametrized mode the declared generic invariants are checked against
    the generic fiber computed from the components (m = r = 1 and
    delta = mu = epsilon = 0 for the cusp family)."""

    @pytest.mark.parametrize(
        "assertions, field, declared, computed",
        [
            ({"mu": 99, "m": 7, "r": 5}, "m", 7, 1),
            ({"mu": 0, "m": 1, "r": 2}, "r", 2, 1),
            ({"mu": 2, "m": 1, "r": 1}, "mu", 2, 0),
            ({"mu": 0, "m": 1, "r": 1, "delta": 1}, "delta", 1, 0),
            ({"mu": 0, "m": 1, "r": 1, "epsilon": 1}, "epsilon", 1, 0),
        ],
    )
    def test_mismatch_is_hypothesis_failure(self, tmp_path, capsys, assertions, field,
                                            declared, computed):
        entry = dict(CUSP_FAMILY_ENTRY, generic_fiber_assertions=assertions)
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == (
            f"hypothesis failure: generic_fiber_assertions.{field} = {declared}, but the "
            f"generic fiber of the components has {field} = {computed}\n"
        )

    @pytest.mark.parametrize(
        "assertions",
        [{"mu": 0, "m": 1, "r": 1}, {"mu": 0, "m": 1, "r": 1, "delta": 0, "epsilon": 0}],
    )
    def test_matching_assertions_leave_the_report_unchanged(self, tmp_path, capsys, assertions):
        plain = write_manifest(tmp_path, manifest(CUSP_FAMILY_ENTRY), "plain.json")
        asserted = write_manifest(
            tmp_path,
            manifest(dict(CUSP_FAMILY_ENTRY, generic_fiber_assertions=assertions)),
            "asserted.json",
        )
        assert main(["analyze", plain]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["analyze", asserted]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_generic_fiber_is_reduced(self, tmp_path, capsys):
        # the total space is the reduced image of the components: the generic
        # fiber has epsilon 0, and a declared epsilon changes no computed value
        generic = analyze_manifest(manifest(CUSP_FAMILY_ENTRY))["entries"][0]["generic"]
        inv = generic["invariants"]
        assert (inv["epsilon"], inv["delta"], inv["mu"]) == (0, inv["delta_red"], inv["mu_red"])
        assertions = {"mu": -2, "m": 1, "r": 1, "delta": -1, "epsilon": 1}
        path = write_manifest(
            tmp_path, manifest(dict(CUSP_FAMILY_ENTRY, generic_fiber_assertions=assertions))
        )
        assert main(["analyze", path]) == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == (
            "hypothesis failure: generic_fiber_assertions.mu = -2, but the generic fiber "
            "of the components has mu = 0\n"
        )


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write_manifest(tmp_path, manifest(CUSP_FAMILY_ENTRY, CUSP_CURVE_ENTRY))
        main(["analyze", path, "--seed", "3"])
        first = capsys.readouterr().out
        main(["analyze", path, "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_each_text_is_parsed_once_per_manifest(self, monkeypatch):
        # the two curve entries repeat every text; the family repeats the ideal,
        # and its coordinates u^3 and u^4 are read again over the ring (u, t)
        from equicurve.family import RING_UT

        data = manifest(CUSP_CURVE_ENTRY, dict(CUSP_CURVE_ENTRY, name="again"),
                        CUSP_FAMILY_ENTRY)
        alone = [analyze_manifest(manifest(e))["entries"][0] for e in data["entries"]]
        calls = []
        real = poly._Parser.parse

        def counting(parser):  # the parser core, under branches, ideals and components alike
            calls.append((parser.text, parser.ring))
            return real(parser)

        monkeypatch.setattr(poly._Parser, "parse", counting)
        report = analyze_manifest(data)
        xyz = VarSet(("x", "y", "z"))
        assert len(calls) == len(set(calls)) == 11
        assert set(calls) == (
            {(c, RING_U) for c in CUSP_CURVE_ENTRY["branches"][0]}
            | {(g, xyz) for g in CUSP_CURVE_ENTRY["ideal"]}
            | {(c, RING_UT) for c in CUSP_FAMILY_ENTRY["components"][0]}
        )
        expected = {"ring": data["ring"], "entries": alone}
        for fmt in ("json", "text"):
            assert render_report(report, fmt) == render_report(expected, fmt)

    def test_seed_changes_samples_not_values(self):
        a = analyze_manifest(manifest(CUSP_FAMILY_ENTRY), seed=0)
        b = analyze_manifest(manifest(CUSP_FAMILY_ENTRY), seed=9)
        ea, eb = a["entries"][0], b["entries"][0]
        assert ea["generic"]["t_samples"] != eb["generic"]["t_samples"]
        assert ea["generic"]["invariants"] == eb["generic"]["invariants"]
        assert ea["verdict"] == eb["verdict"]


class TestCorpus:
    def test_full_corpus_passes(self):
        report, mismatches = run_paper_corpus()
        assert mismatches == []
        assert len(report["entries"]) == 10
        assert all(e["expectations_checked"] > 0 for e in report["entries"])

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "0a2547cbf4a9217efdb778c9277b8a2d5200a86a99382fcd6d27261195a5d8cd"),
            (7, "b2a5f87e5f6c78cd827729aaf5427177c1d8be8b199ebb0f3b21ac66769fde5b"),
        ],
    )
    def test_report_bytes_are_pinned(self, seed, digest):
        report, _ = run_paper_corpus(seed=seed)
        text = json.dumps(report, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert render_report(report, "json") == text + "\n"
        if seed == 0:  # the default seed
            assert run_paper_corpus()[0] == report
        # the text report of each corpus manifest; it prints no samples, so its
        # bytes are the same at every seed
        text_digests = [
            "1b296df4edb0da823042b6b14f64094152054b95ce7960d6e7585a169644ffa4",
            "92ebe4355ea365e22c3b424adb898a41c52646e22cacdbaf59a576a0a36633a1",
        ]
        for manifest, text_digest in zip(corpus.MANIFESTS, text_digests, strict=True):
            text = render_report(analyze_manifest(manifest, seed), "text")
            assert hashlib.sha256(text.encode()).hexdigest() == text_digest

    def test_injected_wrong_expectation_is_flagged(self, monkeypatch):
        monkeypatch.setitem(
            corpus.EXPECTATIONS, "space-cusp-with-embedded-point", {"invariants.epsilon": 99}
        )
        _, mismatches = run_paper_corpus()
        assert mismatches == [
            ("space-cusp-with-embedded-point", "invariants.epsilon", 99, 3)
        ]

    def test_corpus_seed_independent(self):
        ra, _ = run_paper_corpus(seed=0)
        rb, _ = run_paper_corpus(seed=5)
        for ea, eb in zip(ra["entries"], rb["entries"]):
            if ea["kind"] == "family":
                assert ea["special"] == eb["special"]
                assert ea["generic"]["invariants"] == eb["generic"]["invariants"]
                assert ea["verdict"] == eb["verdict"]
            else:
                assert ea == eb

    def test_corpus_command_exit_codes(self, capsys):
        assert main(["corpus"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0 mismatch(es)" in out and "FAIL" not in out


TEXT = st.text(
    st.characters()
    | st.characters(categories=["Cs"])  # lone surrogates
    | st.sampled_from('"\\/\x00\x1f\x7f\u2028'),
    max_size=10,
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**300)
    | st.integers(min_value=-(2**300), max_value=-1)
    | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter has no int-to-str digit limit")


def assert_one_error_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    return captured.err


class TestOneLineFailures:
    """Numbers past the int-to-str limit, declared generic invariants that no
    reduced germ has, and a family with a zero special branch: each exits with
    one stderr line and prints nothing."""

    @needs_digit_limit
    @pytest.mark.parametrize("command", ["analyze", "std"])
    def test_integer_past_the_digit_limit_is_a_parse_error(self, tmp_path, capsys, command):
        path = tmp_path / "big.json"
        path.write_text('{"ring": ["x"], "n": ' + "1" * (DIGIT_LIMIT + 700) + "}")
        args = [command, str(path)] + (["--order", "degrevlex"] if command == "std" else [])
        assert main(args) == EXIT_PARSE
        err = assert_one_error_line(capsys, "parse error:")
        assert f"int-to-str limit of {DIGIT_LIMIT}" in err

    @needs_digit_limit
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_report_number_past_the_digit_limit_exits_3(self, tmp_path, capsys, fmt):
        # mu = epsilon = 10^4300 - 1 pass every check, and mu_red = mu + 2*epsilon
        # has one digit more than the limit
        nines = "9" * DIGIT_LIMIT
        entry = dict(DECLARED_FAMILY_ENTRY, special_fiber=dict(
            DECLARED_FAMILY_ENTRY["special_fiber"], branches=[["u", "0", "0"], ["0", "u", "0"]]))
        entry["generic_fiber_assertions"] = {"mu": "MU", "m": 2, "r": 2, "epsilon": "MU"}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest(entry)).replace('"MU"', nines))
        assert main(["analyze", str(path), "--format", fmt]) == EXIT_COMPUTE
        err = assert_one_error_line(capsys, "computation error:")
        assert f"int-to-str limit of {DIGIT_LIMIT}" in err

    @needs_digit_limit
    @pytest.mark.parametrize("assertions", [
        {"mu": "NINES", "m": 3, "r": 3},  # mu + r - 1 = 10^4300 + 1 is odd
        {"mu": 1, "m": 1, "r": 1, "delta": "NINES"},  # 2*delta - r + 1 != mu
    ], ids=["odd", "delta"])
    def test_declared_message_number_past_the_digit_limit_exits_3(self, tmp_path, capsys, assertions):
        entry = dict(DECLARED_FAMILY_ENTRY, generic_fiber_assertions=assertions)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest(entry)).replace('"NINES"', "9" * DIGIT_LIMIT))
        assert main(["analyze", str(path)]) == EXIT_COMPUTE
        err = assert_one_error_line(capsys, "computation error:")
        assert f"int-to-str limit of {DIGIT_LIMIT}" in err

    @pytest.mark.parametrize(
        "assertions, delta_red",
        [
            ({"mu": 4, "m": 1, "r": 1}, 2),  # a smooth germ has delta_red = 0
            ({"mu": 2, "m": 2, "r": 3}, 2),  # three branches need m >= 3
            ({"mu": 0, "m": 3, "r": 1}, 0),  # m = 3 needs delta_red >= 2
            ({"mu": 1, "m": 3, "r": 2, "delta": 1, "epsilon": 0}, 1),
        ],
        ids=["smooth-with-delta", "r-above-m", "delta-below-m-1", "declared-delta"],
    )
    def test_declared_invariants_no_reduced_germ_has(self, tmp_path, capsys, assertions, delta_red):
        entry = dict(DECLARED_FAMILY_ENTRY, generic_fiber_assertions=assertions)
        assert main(["analyze", write_manifest(tmp_path, manifest(entry))]) == EXIT_HYPOTHESIS
        err = assert_one_error_line(capsys, "hypothesis failure:")
        assert err == (
            "hypothesis failure: declared generic invariants fit no reduced germ: "
            f"m = {assertions['m']}, r = {assertions['r']} and delta_red = {delta_red}, "
            "but r <= m, delta_red >= m - 1, and delta_red = 0 if m = 1\n"
        )

    FACTORS = ("hypothesis failure: component '0': special fiber parametrization factors "
               "through a power of u; the special fiber is not generically reduced\n")

    @pytest.mark.parametrize("components, ideal, code, line", [
        # the pullback <t*u, t*u^2> fails the radical check (exit 4), but the
        # component's branch at t = 0 is zero, and that is named first
        ([["t*u", "t*u^2", "0"]], None, EXIT_COMPUTE,
         "computation error: component '0' specializes to the zero branch at t = 0\n"),
        # the special branch (u, u, 0) misses x, but no component holds the section
        ([["u+t", "u", "0"]], ["x"], EXIT_HYPOTHESIS,
         "hypothesis failure: no component contains the section: family outside scope\n"),
        # the special branch (u^2, u^4, 0) factors through u^2 and misses x
        ([["u^2+t*u", "u^4", "t*u^2"]], ["x"], EXIT_HYPOTHESIS, FACTORS),
        # component '0' factors through u^2 before component '1' is the zero branch
        ([["u^2+t*u", "u^4", "t*u^2"], ["t*u", "t*u^2", "0"]], None, EXIT_HYPOTHESIS, FACTORS),
    ], ids=["zero-branch", "no-section", "factors", "factors-first"])
    def test_zero_special_branch_precedes_the_cohen_macaulay_witness(
            self, tmp_path, capsys, components, ideal, code, line):
        entry = {"name": "faults", "kind": "family", "components": components}
        if ideal is not None:
            entry["special_fiber"] = {"ideal": ideal}
        assert main(["analyze", write_manifest(tmp_path, manifest(entry))]) == code
        assert assert_one_error_line(capsys, line.split(":")[0]) == line


class TestJsonWriter:
    """render_report(value, "json") writes json.dumps(value, indent=2) and a newline."""

    @settings(max_examples=150, deadline=500, derandomize=True)
    @given(JSON_VALUES)
    def test_bytes_of_json_dumps(self, value):
        assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"

    def test_empty_containers_nested_eight_deep(self):
        value = {"": [], "b": {}}
        for depth in range(8):
            value = {f"k{depth}": [value, {}, [], "", None, -(2**70)]} if depth % 2 else [value, {}]
        assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value, type_name",
        [
            (0.5, "float"),
            (Fraction(1, 2), "Fraction"),
            ((1, 2), "tuple"),
            ({1}, "set"),
            ({1: "a"}, "int"),
            ({"a": [{"b": 0.5}]}, "float"),
        ],
    )
    def test_what_no_report_holds_is_a_type_error(self, value, type_name):
        with pytest.raises(TypeError, match=type_name):
            render_report(value, "json")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter has no int-to-str digit limit",
    )
    def test_int_past_the_digit_limit_is_a_value_error(self):
        value = {"n": [10 ** sys.get_int_max_str_digits()]}
        with pytest.raises(ValueError):
            json.dumps(value, indent=2)
        with pytest.raises(ValueError):
            render_report(value, "json")


class TestStd:
    def test_local_basis_printout(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"ring": ["u", "t"], "generators": ["u^3", "u^4", "t*u"]}))
        assert main(["std", str(path), "--order", "local"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        assert sorted(out) == ["u*t", "u^3"]

    def test_local_basis_of_the_maximal_ideal_finishes(self, tmp_path, capsys):
        # the maximal ideal of Q[u, t]: Mora's weak normal form did not finish
        # its first S-polynomial in 100 s; the homogenized basis takes a
        # fraction of a second
        def too_slow(signum, frame):
            pytest.fail("std --order local ran past its 3 s deadline")

        gens = ["u*t^3 + u^4 - 2*u^5*t^2", "t + 2*u*t^2 - 3*u^3*t^3", "u - 2*u^2*t^3 + 3*u^6"]
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"ring": ["u", "t"], "generators": gens}))
        old = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 3)
        try:
            code = main(["std", str(path), "--order", "local"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out == ["-3*u^3*t^3 + 2*u*t^2 + t", "3*u^6 - 2*u^2*t^3 + u"]
        leads = [parse_poly(g, VarSet(("u", "t"))).leading_monomial(NEGDEGREVLEX) for g in out]
        assert leads == [(0, 1), (1, 0)]

    @pytest.mark.parametrize(
        "ring, gens, global_digest, local_digest",
        [
            (["u", "t"], ["u*t^3 + u^4 - 2*u^5*t^2", "t + 2*u*t^2 - 3*u^3*t^3", "u - 2*u^2*t^3 + 3*u^6"],
             "69d031b3092ac2ec7bbd83d4a0ba632b907702dff416b48fddc0fa5f84ee9b08",
             "6a523036cd86cb577564f0daa42ff06761a907c10adf104c003ac8de43a14ebe"),
            (["x", "y", "z"], ["x*z", "y^3-x^4", "y^2*z", "y*z^2", "z^3"],
             "98d77ecb7537c49136518592d7ad497fcfe856eca100ee8824f7b0943cdaa314",
             "7e93f4d2481ae181e61bb18006582956b9997d5cb1b37b6bea9ab20c7c899449"),
            (["x", "y", "z"], ["x^3 + y^3 + z^3 - 3*x*y*z", "x^2*y - z^2 + 1/2*x*y*z", "y^4 - x*z^3"],
             "0bfe56d53eb5d279c76505804974ee9348756c74e35bec06349e3d1741a51e3f",
             "24627a42eb02f94fd22cbc89254a207668054d07c3572d9db1ac12f170965c23"),
            (["x", "y", "z", "w", "v"],
             ["x*z", "y*z", "x*w", "y*w", "z*w", "w^2", "x*v", "y*v", "z*v", "w*v", "x^2*y+x*y^2"],
             "dbcd4cecc5f965a2095eb9dc7fff6e99ade91e9437037d562c0f615eea9c1656",
             "78ef8b24e5ccd3b58b11e73bb70678228be340c6a5d6fd4bc7d8784652eaadbd"),
        ],
        ids=["maximal", "space-cusp", "rational", "five-lines"],
    )
    def test_printout_bytes_are_pinned(self, tmp_path, capsys, ring, gens, global_digest, local_digest):
        # the printed bases, global and local, of the maximal ideal of the CI
        # step, the space cusp with its embedded point, an ideal with rational
        # coefficients and the five lines
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"ring": ring, "generators": gens}))
        for order, digest in (("global", global_digest), ("local", local_digest)):
            assert main(["std", str(path), "--order", order]) == EXIT_OK
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_principal(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"ring": ["x"], "generators": ["x"]}))
        assert main(["std", str(path), "--order", "degrevlex"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "x"

    def test_names_with_digits_and_underscores(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"ring": ["x_1", "_Y2"], "generators": ["x_1*_Y2"]}))
        assert main(["std", str(path), "--order", "degrevlex"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "x_1*_Y2"

    def test_reduction_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gb, "_REDUCTION_CAP", 2)
        path = tmp_path / "i.json"
        gens = ["x^2 + y*z", "y^3 - x*z", "z^2 + x*y^2 + x^3"]
        path.write_text(json.dumps({"ring": ["x", "y", "z"], "generators": gens}))
        assert main(["std", str(path), "--order", "degrevlex"]) == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err.startswith("computation error:") and err.count("\n") == 1
        assert "_REDUCTION_CAP" in err

    @pytest.mark.parametrize(
        "data",
        [
            # the monic basis has the coefficient 1/9^5000, past 4,300 digits
            {"ring": ["x", "y"], "generators": ["9^1000*9^1000*9^1000*9^1000*9^1000*x + y"]},
            {"ring": ["x", "y", "z"], "generators": ["z", "9^1000*9^1000*9^1000*9^1000*9^1000*x + y"]},
        ],
    )
    def test_coefficient_past_the_digit_limit_exits_3(self, tmp_path, capsys, data):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(data))
        assert main(["std", str(path), "--order", "degrevlex"]) == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("computation error:") and captured.err.count("\n") == 1
        assert "int-to-str limit" in captured.err

    def test_unknown_order(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"ring": ["x"], "generators": ["x"]}))
        assert main(["std", str(path), "--order", "lex"]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "data",
        [
            {"ring": ["x", "y"], "generators": []},
            {"ring": ["x", "y"], "generators": ["0"]},
            {"ring": ["x", "y"], "generators": ["x - x", "0*y"]},
            {"ring": [], "generators": ["1"]},
            {"ring": [], "generators": []},
            {"ring": ["x", "x"], "generators": ["x"]},
        ],
    )
    def test_bad_input_is_parse_error(self, tmp_path, capsys, data):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(data))
        assert main(["std", str(path), "--order", "degrevlex"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error:") and captured.err.count("\n") == 1


def _modules_added_by(statement):
    """The modules a fresh interpreter adds to those of a bare start by running
    statement, so a site hook that preloads modules does not count."""
    code = (
        f"import sys; bare = set(sys.modules); {statement}; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return set(subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split())


class TestStartup:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        added = _modules_added_by("import equicurve.cli")
        assert "equicurve.cli" in added
        assert not added & {"dataclasses", "inspect"}

    def test_import_leaves_the_corpus_unloaded(self):
        # only the corpus command reads the built-in manifests
        added = _modules_added_by("import equicurve.cli")
        assert "equicurve.cli" in added
        assert "equicurve.corpus" not in added

    def test_branches_only_analyze_loads_no_ideal_layer(self):
        # the invariants of a germ given by branches need only curveinv and
        # linalg; the import of cli itself loads no more
        added = _modules_added_by(
            "from equicurve.cli import analyze_manifest; analyze_manifest("
            f"{manifest({'name': 'cusp', 'kind': 'curve', 'branches': [['u^2', 'u^3', '0']]})!r})"
        )
        assert {"equicurve.curveinv", "equicurve.linalg"} <= added
        assert not added & {
            "equicurve.gb", "equicurve.localdim", "equicurve.gcd", "equicurve.family"
        }

    @pytest.mark.parametrize("kind", ["curve", "family"])
    def test_an_ideal_loads_localdim_and_gb(self, kind):
        # epsilon is certified from the ideal by one local standard basis
        entry = cusp_with_ideal(kind, CUSP_IDEALS["embedded-point"])
        added = _modules_added_by(
            f"from equicurve.cli import analyze_manifest; analyze_manifest({manifest(entry)!r})"
        )
        assert {"equicurve.localdim", "equicurve.gb"} <= added

    def test_parametrized_family_leaves_gb_unloaded(self):
        # the Cohen-Macaulay witness is read off the generators: no standard basis
        entry = {"name": "tangent", "kind": "family", "components": [["u^2", "u^3", "t*u"]]}
        added = _modules_added_by(
            f"from equicurve.cli import analyze_manifest; analyze_manifest({manifest(entry)!r})"
        )
        assert {"equicurve.family", "equicurve.localdim", "equicurve.gcd"} <= added
        assert "equicurve.gb" not in added

    def test_corpus_loads_every_layer(self):
        # its manifests run every layer; their compile belongs to its import
        added = _modules_added_by("import equicurve.corpus")
        assert {
            "equicurve.gb", "equicurve.localdim", "equicurve.gcd", "equicurve.family"
        } <= added


def _perfbench_workloads():
    """The benchmark's input generators, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGbTraffic:
    """The traffic ``gb`` is sized to: a corpus pass asks for one LAST_FIRST
    standard basis per entry and no membership test, and the germ and family
    paths ask for no basis at all. A change that puts global or elimination
    bases back on a production path fails here and should measure ``gb``'s
    bookkeeping again."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        std_basis, contains = gb.std_basis, gb.StandardBasis.contains

        def counted_std_basis(I, order):
            calls.append(("std_basis", order.kind))
            return std_basis(I, order)

        def counted_contains(B, f):
            calls.append(("contains", B.order.kind))
            return contains(B, f)

        monkeypatch.setattr(gb, "std_basis", counted_std_basis)
        monkeypatch.setattr(gb.StandardBasis, "contains", counted_contains)
        return calls

    def test_corpus_pass_asks_one_local_basis_per_entry(self, calls):
        report, mismatches = run_paper_corpus()
        assert not mismatches and len(report["entries"]) == 10
        assert calls == [("std_basis", "local-last-first")] * 10

    def test_germs_and_families_ask_for_no_basis(self, calls):
        workloads = _perfbench_workloads()
        drawn = workloads.draw_pass("germs", 1, 0) + workloads.draw_pass("families", 1, 0)
        assert {stratum for stratum, _, _ in drawn} >= {"plane", "lines", "one", "two"}
        for _, entry, _ in drawn:
            try:
                analyze_manifest(manifest(entry))
            except EquicurveError:  # a frontier entry may sit past a cap
                pass
        assert calls == []


class TestBranchJets:
    def test_jets_read_from_text_match_the_polynomial_route(self):
        # a branch's texts go to its jets with no Polynomial between them
        workloads = _perfbench_workloads()
        drawn = [d for seed in (1, 2, 3) for index in (0, 1, 2)
                 for d in workloads.draw_pass("germs", seed, index)]
        assert {stratum for stratum, _, _ in drawn} == {"plane", "branch_line", "lines", "frontier"}
        branches = [b for _, entry, _ in drawn for b in entry["branches"]]
        for data in corpus.MANIFESTS:
            for entry in data["entries"]:
                branches += entry.get("branches", []) + entry.get("special_fiber", {}).get("branches", [])
        assert len(branches) > 1000
        for b in branches:
            jets = [cli._read_jet(c, RING_U) for c in b]
            assert jets == list(BranchParam([parse_poly(c, RING_U) for c in b]).jets), b


class TestFamilyRecords:
    """Every family the families workload can draw, checked against its line in
    ``perfbench/expected_families.json`` as the benchmark's worker checks it: a
    recorded report comes out byte for byte, and a recorded error comes out as
    the same error, or as a verdict whose routes agree (a family that now gets
    a verdict is a gain)."""

    def test_every_drawable_family_matches_its_record(self):
        workloads = _perfbench_workloads()
        path = Path(__file__).resolve().parents[1] / "perfbench" / "expected_families.json"
        records = json.loads(path.read_text())
        wrong = []
        for stratum, components in workloads.all_families():
            recorded = records[workloads.family_key(components)]
            try:
                report = analyze_manifest(manifest(workloads.family_entry(stratum, components)))
            except EquicurveError as exc:
                code = (EXIT_HYPOTHESIS if isinstance(exc, HypothesisError)
                        else EXIT_PARSE if isinstance(exc, ParseError) else EXIT_COMPUTE)
                got = [type(exc).__name__, (str(exc).splitlines() or [""])[0], code]
                if recorded.get("error") != got:
                    wrong.append((components, recorded, got))
                continue
            if "digest" in recorded:
                text = render_report(report, "json")
                if hashlib.sha256(text.encode()).hexdigest() != recorded["digest"]:
                    wrong.append((components, recorded, "another report"))
                continue
            v = report["entries"][0]["verdict"]
            cm_all = all(w["is_cm"] for w in v["cm_by_component"])
            if v["strong_simultaneous_resolution"] != v["whitney"] or (
                v["whitney"] != (v["topologically_trivial"] and cm_all)
            ):
                wrong.append((components, recorded, v))
        assert wrong == []
