"""Command line behavior: manifest schema enforcement, report formats,
determinism, exit codes and the corpus runner."""

from __future__ import annotations

import json

import pytest

from equicurve.cli import (
    EXIT_COMPUTE,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_PARSE,
    analyze_manifest,
    main,
    run_paper_corpus,
)

CUSP_FAMILY_ENTRY = {
    "name": "cusp-family",
    "kind": "family",
    "components": [["u^3", "u^4", "t*u"]],
    "special_fiber": {
        "ideal": ["x*z", "y^3-x^4", "y^2*z", "y*z^2", "z^3"],
        "decomposition": {
            "primes": [["z", "y^3-x^4"]],
            "embedded": ["x^4", "x*z", "y^2", "y*z^2", "z^3"],
        },
    },
}

CUSP_CURVE_ENTRY = {
    "name": "cusp-curve",
    "kind": "curve",
    "branches": [["u^3", "u^4", "0"]],
    "ideal": ["x*z", "y^3-x^4", "y^2*z", "y*z^2", "z^3"],
    "decomposition": {
        "primes": [["z", "y^3-x^4"]],
        "embedded": ["x^4", "x*z", "y^2", "y*z^2", "z^3"],
    },
}


def manifest(*entries):
    return {"ring": ["x", "y", "z"], "entries": list(entries)}


def write_manifest(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


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
            {"jet_order": -5},
            {"jet_order": 0},
            {"degree_bound": 0},
            {"n_max": 0},
            {"n_max": -1},
        ],
    )
    def test_option_below_one_is_parse_error(self, tmp_path, capsys, options):
        for entry in (CUSP_CURVE_ENTRY, CUSP_FAMILY_ENTRY):
            path = write_manifest(tmp_path, manifest(dict(entry, options=options)))
            assert main(["analyze", path]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("parse error:") and err.count("\n") == 1
            assert "least 1" in err

    def test_rejected_decomposition_is_compute_error(self, tmp_path):
        entry = json.loads(json.dumps(CUSP_CURVE_ENTRY))
        entry["decomposition"]["embedded"] = ["x", "y", "z"]
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_COMPUTE

    def test_hypothesis_failure_exit_code(self, tmp_path):
        entry = {
            "name": "bad",
            "kind": "family",
            "components": [["u^2", "u^4", "t*u"]],
        }
        path = write_manifest(tmp_path, manifest(entry))
        assert main(["analyze", path]) == EXIT_HYPOTHESIS


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write_manifest(tmp_path, manifest(CUSP_FAMILY_ENTRY, CUSP_CURVE_ENTRY))
        main(["analyze", path, "--seed", "3"])
        first = capsys.readouterr().out
        main(["analyze", path, "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_samples_not_values(self):
        a = analyze_manifest(manifest(CUSP_FAMILY_ENTRY), seed_override=0)
        b = analyze_manifest(manifest(CUSP_FAMILY_ENTRY), seed_override=9)
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

    def test_injected_wrong_expectation_is_flagged(self):
        overrides = {
            "space-cusp-with-embedded-point": {"invariants.epsilon": 99}
        }
        _, mismatches = run_paper_corpus(expectation_overrides=overrides)
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


class TestStd:
    def test_local_basis_printout(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"ring": ["u", "t"], "generators": ["u^3", "u^4", "t*u"]}))
        assert main(["std", str(path), "--order", "local"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        assert sorted(out) == ["u*t", "u^3"]

    def test_principal(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"ring": ["x"], "generators": ["x"]}))
        assert main(["std", str(path), "--order", "degrevlex"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "x"

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
