"""Command line front end: strict manifest parsing, report emission (JSON and
text), the built-in worked-example corpus runner, and a standard-basis debugger.

Exit codes: 0 success, 2 parse/schema errors, 3 computation errors,
4 hypothesis failures and corpus expectation mismatches.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import corpus as corpus_data
from .curveinv import BranchParam, CurvePresentation, invariants
from .errors import (
    ComputationError,
    EquicurveError,
    HypothesisError,
    InternalCheckError,
    ParseError,
)
from .family import (
    RING_UT,
    FamilyComponent,
    FamilyOptions,
    FamilyPresentation,
    GenericAssertions,
    classify,
)
from .gb import Ideal, std_basis
from .localdim import PrimaryDecomposition
from .poly import VarSet, order_by_name, parse_poly

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_COMPUTE = 3
EXIT_HYPOTHESIS = 4

DEFAULT_OPTIONS = {"jet_order": 24, "degree_bound": 12, "n_max": 32, "seed": 0}

RING_U = VarSet(("u",))


def _require_mapping(node, allowed, required, where):
    if not isinstance(node, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(node) - set(allowed)
    if unknown:
        raise ParseError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = set(required) - set(node)
    if missing:
        raise ParseError(f"{where}: missing field(s) {sorted(missing)}")


def _string_list(node, where):
    if not isinstance(node, list) or not all(isinstance(s, str) for s in node):
        raise ParseError(f"{where}: expected a list of strings")
    return node


def _parse_ideal(gens, ring, where):
    return Ideal([parse_poly(g, ring) for g in _string_list(gens, where)], ring)


def _parse_decomposition(node, ring, where):
    _require_mapping(node, ("primes", "embedded"), ("primes",), where)
    if not isinstance(node["primes"], list) or not node["primes"]:
        raise ParseError(f"{where}.primes: expected a nonempty list of generator lists")
    primes = [
        _parse_ideal(gens, ring, f"{where}.primes[{i}]")
        for i, gens in enumerate(node["primes"])
    ]
    embedded = None
    if "embedded" in node:
        embedded = _parse_ideal(node["embedded"], ring, f"{where}.embedded")
    return primes, embedded


def _parse_branches(node, nvars, ring, where):
    if not isinstance(node, list) or not node:
        raise ParseError(f"{where}: expected a nonempty list of branches")
    branches = []
    for i, comps in enumerate(node):
        comps = _string_list(comps, f"{where}[{i}]")
        if len(comps) != nvars:
            raise ParseError(
                f"{where}[{i}]: branch has {len(comps)} components, ring has {nvars}"
            )
        branches.append(
            BranchParam([parse_poly(c, ring) for c in comps], label=f"{i}")
        )
    return branches


def _parse_options(node, where, seed_override=None):
    merged = dict(DEFAULT_OPTIONS)
    if node is not None:
        _require_mapping(node, tuple(DEFAULT_OPTIONS), (), where)
        for k, v in node.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"{where}.{k}: expected an integer")
            if k != "seed" and v < 1:
                raise ParseError(f"{where}.{k}: expected an integer of at least 1")
            merged[k] = v
    if seed_override is not None:
        merged["seed"] = seed_override
    return FamilyOptions(**merged)


def _parse_assertions(node, where):
    _require_mapping(
        node, ("mu", "m", "r", "delta", "epsilon", "reduced"), ("mu", "m", "r"), where
    )
    for k in ("mu", "m", "r", "delta", "epsilon"):
        if k in node and node[k] is not None and (
            not isinstance(node[k], int) or isinstance(node[k], bool)
        ):
            raise ParseError(f"{where}.{k}: expected an integer")
    if "reduced" in node and not isinstance(node["reduced"], bool):
        raise ParseError(f"{where}.reduced: expected a boolean")
    return GenericAssertions(
        mu=node["mu"],
        m=node["m"],
        r=node["r"],
        reduced=node.get("reduced", True),
        delta=node.get("delta"),
        epsilon=node.get("epsilon", 0),
    )


def _frac_str(x) -> str:
    return str(Fraction(x))


def _invariants_record(inv) -> dict:
    return {
        "m": inv.m,
        "r": inv.r,
        "delta_red": inv.delta_red,
        "epsilon": inv.epsilon,
        "delta": inv.delta,
        "mu_red": inv.mu_red,
        "mu": inv.mu,
    }


def _analyze_curve(entry, ring, seed_override):
    where = f"entry {entry.get('name', '?')!r}"
    _require_mapping(
        entry,
        ("name", "kind", "branches", "ideal", "decomposition", "options"),
        ("name", "kind", "branches"),
        where,
    )
    opts = _parse_options(entry.get("options"), f"{where}.options", seed_override)
    branches = _parse_branches(entry["branches"], len(ring), RING_U, f"{where}.branches")
    ideal = None
    decomposition = None
    if "ideal" in entry:
        ideal = _parse_ideal(entry["ideal"], ring, f"{where}.ideal")
    if "decomposition" in entry:
        if ideal is None:
            raise ParseError(f"{where}: decomposition given without an ideal")
        primes, embedded = _parse_decomposition(
            entry["decomposition"], ring, f"{where}.decomposition"
        )
        decomposition = PrimaryDecomposition.verified(ideal, primes, embedded)
    C = CurvePresentation(branches, ideal=ideal, decomposition=decomposition)
    inv = invariants(C, opts.jet_order, opts.degree_bound)
    return {
        "name": entry["name"],
        "kind": "curve",
        "invariants": _invariants_record(inv),
    }


def _parse_special_fiber(node, ring, where):
    _require_mapping(node, ("branches", "ideal", "decomposition", "classes"), (), where)
    out = {"branches": None, "ideal": None, "decomposition": None, "classes": None}
    if "ideal" in node:
        out["ideal"] = _parse_ideal(node["ideal"], ring, f"{where}.ideal")
    if "decomposition" in node:
        if out["ideal"] is None:
            raise ParseError(f"{where}: decomposition given without an ideal")
        primes, embedded = _parse_decomposition(
            node["decomposition"], ring, f"{where}.decomposition"
        )
        out["decomposition"] = PrimaryDecomposition.verified(out["ideal"], primes, embedded)
    if "branches" in node:
        out["branches"] = _parse_branches(node["branches"], len(ring), RING_U, f"{where}.branches")
    if "classes" in node:
        c = node["classes"]
        if (
            not isinstance(c, list)
            or len(c) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in c)
        ):
            raise ParseError(f"{where}.classes: expected [count_through_section, count_off_section]")
        out["classes"] = (c[0], c[1])
    return out


def _analyze_family(entry, ring, seed_override):
    where = f"entry {entry.get('name', '?')!r}"
    _require_mapping(
        entry,
        ("name", "kind", "mode", "components", "special_fiber",
         "generic_fiber_assertions", "options"),
        ("name", "kind"),
        where,
    )
    opts = _parse_options(entry.get("options"), f"{where}.options", seed_override)
    mode = entry.get("mode", "parametrized")
    if mode not in ("parametrized", "declared"):
        raise ParseError(f"{where}.mode: expected 'parametrized' or 'declared'")
    assertions = None
    if "generic_fiber_assertions" in entry:
        assertions = _parse_assertions(
            entry["generic_fiber_assertions"], f"{where}.generic_fiber_assertions"
        )
    fiber = {"branches": None, "ideal": None, "decomposition": None, "classes": None}
    if "special_fiber" in entry:
        fiber = _parse_special_fiber(entry["special_fiber"], ring, f"{where}.special_fiber")

    if mode == "parametrized":
        if "components" not in entry:
            raise ParseError(f"{where}: parametrized family needs components")
        if fiber["branches"] is not None or fiber["classes"] is not None:
            raise ParseError(
                f"{where}.special_fiber: branches/classes are only for declared mode"
            )
        comps_node = entry["components"]
        if not isinstance(comps_node, list) or not comps_node:
            raise ParseError(f"{where}.components: expected a nonempty list")
        components = []
        for i, comps in enumerate(comps_node):
            comps = _string_list(comps, f"{where}.components[{i}]")
            if len(comps) != len(ring):
                raise ParseError(
                    f"{where}.components[{i}]: component has {len(comps)} coordinates, "
                    f"ring has {len(ring)}"
                )
            components.append(
                FamilyComponent([parse_poly(c, RING_UT) for c in comps], label=f"{i}")
            )
        F = FamilyPresentation(
            components=tuple(components),
            special_ideal=fiber["ideal"],
            special_decomposition=fiber["decomposition"],
            generic_assertions=assertions,
        )
    else:
        if "components" in entry:
            raise ParseError(f"{where}: declared family takes no components")
        if fiber["branches"] is None or fiber["classes"] is None or assertions is None:
            raise ParseError(
                f"{where}: declared mode needs special_fiber branches, classes and "
                "generic_fiber_assertions"
            )
        F = FamilyPresentation(
            mode="declared",
            declared_special=CurvePresentation(
                fiber["branches"], ideal=fiber["ideal"], decomposition=fiber["decomposition"]
            ),
            declared_classes=fiber["classes"],
            generic_assertions=assertions,
        )

    rep = classify(F, opts)
    v = rep.verdict
    return {
        "name": entry["name"],
        "kind": "family",
        "mode": mode,
        "special": {"invariants": _invariants_record(rep.special.inv)},
        "generic": {
            "invariants": _invariants_record(rep.generic.inv),
            "t_samples": [_frac_str(s) for s in rep.generic.t_samples_used],
        },
        "verdict": {
            "topologically_trivial": v.topologically_trivial,
            "whitney": v.whitney,
            "strong_simultaneous_resolution": v.strong_simultaneous_resolution,
            "cm_by_component": [
                {"label": lbl, "is_cm": cm, "length": l, "multiplicity": e}
                for lbl, cm, l, e in v.cm_by_component
            ],
            "b0_generic_fiber": v.b0_generic_fiber,
        },
        "constancy": dict(rep.constancy),
        "hypotheses": dict(rep.hypotheses),
        "justification": [
            {"claim": claim, "rule": rule, "inputs": inputs}
            for claim, rule, inputs in v.justification
        ],
    }


def analyze_manifest(data, seed_override=None) -> dict:
    """Full report for parsed manifest data; entries in manifest order."""
    _require_mapping(data, ("ring", "entries"), ("ring", "entries"), "manifest")
    names = _string_list(data["ring"], "manifest.ring")
    if not names or "u" in names or "t" in names or len(set(names)) != len(names):
        raise ParseError("manifest.ring: names must be nonempty, distinct and avoid 'u' and 't'")
    ring = VarSet(tuple(names))
    if not isinstance(data["entries"], list):
        raise ParseError("manifest.entries: expected a list")
    entries = []
    for entry in data["entries"]:
        if not isinstance(entry, dict) or "kind" not in entry or "name" not in entry:
            raise ParseError("entry: expected an object with 'name' and 'kind'")
        if not isinstance(entry["name"], str):
            raise ParseError("entry.name: expected a string")
        kind = entry["kind"]
        if kind == "curve":
            entries.append(_analyze_curve(entry, ring, seed_override))
        elif kind == "family":
            entries.append(_analyze_family(entry, ring, seed_override))
        else:
            raise ParseError(f"entry {entry['name']!r}: unknown kind {kind!r}")
    return {"ring": list(names), "entries": entries}


def _render_text(report) -> str:
    lines = []
    for entry in report["entries"]:
        lines.append(f"== {entry['name']} ({entry['kind']}) ==")
        if entry["kind"] == "curve":
            inv = entry["invariants"]
            lines.append(
                "  m={m} r={r} delta_red={delta_red} epsilon={epsilon} "
                "delta={delta} mu_red={mu_red} mu={mu}".format(**inv)
            )
        else:
            for at in ("special", "generic"):
                inv = entry[at]["invariants"]
                lines.append(
                    f"  {at}: " + "m={m} r={r} delta_red={delta_red} epsilon={epsilon} "
                    "delta={delta} mu_red={mu_red} mu={mu}".format(**inv)
                )
            v = entry["verdict"]
            lines.append(
                f"  verdict: topologically_trivial={v['topologically_trivial']} "
                f"whitney={v['whitney']} "
                f"strong_simultaneous_resolution={v['strong_simultaneous_resolution']} "
                f"b0={v['b0_generic_fiber']}"
            )
            for w in v["cm_by_component"]:
                lines.append(
                    f"  component {w['label']}: Cohen-Macaulay={w['is_cm']} "
                    f"(l={w['length']}, e={w['multiplicity']})"
                )
            for j in entry["justification"]:
                lines.append(f"  [{j['rule']}] {j['claim']}")
        lines.append("")
    return "\n".join(lines)


def render_report(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return _render_text(report)


def run_paper_corpus(seed=None, expectation_overrides=None):
    """Run every built-in corpus entry and compare against the expectation table.

    Returns (report dict, mismatch list); ``expectation_overrides`` replaces
    expectation tables per entry name (used by the harness self-test).
    """
    expectations = dict(corpus_data.EXPECTATIONS)
    if expectation_overrides:
        expectations.update(expectation_overrides)
    entries = []
    mismatches = []
    for manifest in corpus_data.MANIFESTS:
        report = analyze_manifest(manifest, seed_override=seed)
        for entry in report["entries"]:
            expected = expectations.get(entry["name"], {})
            bad = corpus_data.check_entry(entry, expected)
            entry = dict(entry)
            entry["expectations_checked"] = len(expected)
            entry["mismatches"] = [
                {"path": p, "expected": w, "computed": g} for p, w, g in bad
            ]
            entries.append(entry)
            mismatches.extend((entry["name"], p, w, g) for p, w, g in bad)
    return {"entries": entries}, mismatches


def _cmd_analyze(args) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"manifest is not valid JSON: {exc}") from exc
    report = analyze_manifest(data, seed_override=args.seed)
    sys.stdout.write(render_report(report, args.format))
    return EXIT_OK


def _cmd_corpus(args) -> int:
    report, mismatches = run_paper_corpus(seed=args.seed)
    for entry in report["entries"]:
        status = "FAIL" if entry["mismatches"] else "PASS"
        print(f"{status} {entry['name']} ({entry['expectations_checked']} checks)")
        for bad in entry["mismatches"]:
            print(
                f"     {bad['path']}: expected {bad['expected']}, "
                f"computed {bad['computed']}"
            )
    print(f"{len(report['entries'])} entries, {len(mismatches)} mismatch(es)")
    return EXIT_OK if not mismatches else EXIT_HYPOTHESIS


def _cmd_std(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"input is not valid JSON: {exc}") from exc
    _require_mapping(data, ("ring", "generators"), ("ring", "generators"), "input")
    names = _string_list(data["ring"], "input.ring")
    if not names or len(set(names)) != len(names):
        raise ParseError("input.ring: expected a nonempty list of distinct names")
    ring = VarSet(tuple(names))
    gens = [parse_poly(g, ring) for g in _string_list(data["generators"], "input.generators")]
    order = order_by_name(args.order)
    I = Ideal(gens, ring)
    if not I.gens:
        raise ParseError("input.generators: the ideal is zero; give a nonzero generator")
    B = std_basis(I, order)
    for g in B.basis:
        print(g.render())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicurve",
        description="Invariants of generically reduced curve germs and "
        "equisingularity verdicts for one-parameter families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a manifest file")
    p_analyze.add_argument("manifest")
    p_analyze.add_argument("--format", choices=("json", "text"), default="json")
    p_analyze.add_argument("--seed", type=int, default=None)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_corpus = sub.add_parser("corpus", help="run the built-in worked-example corpus")
    p_corpus.add_argument("--seed", type=int, default=None)
    p_corpus.set_defaults(func=_cmd_corpus)

    p_std = sub.add_parser("std", help="print a reduced standard basis")
    p_std.add_argument("file")
    p_std.add_argument("--order", required=True)
    p_std.set_defaults(func=_cmd_std)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ComputationError, InternalCheckError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EquicurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
