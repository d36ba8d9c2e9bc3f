"""Command line front end: strict manifest parsing, report emission (JSON and
text), the built-in worked-example corpus runner, and a standard-basis debugger.

Exit codes: 0 success, 2 parse/schema errors, 3 computation errors,
4 hypothesis failures and corpus expectation mismatches.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii

from .curveinv import RING_U, BranchParam, CurvePresentation, invariants, jet
from .errors import (
    ComputationError,
    EquicurveError,
    HypothesisError,
    InternalCheckError,
    ParseError,
)
from .poly import IDENTIFIER_RE, Ideal, VarSet, order_by_name, parse_integral, parse_poly

# localdim, family and gb are imported where an input first needs them (an
# ideal, a family entry, the std command), so a manifest of branches only
# compiles none of them.

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_COMPUTE = 3
EXIT_HYPOTHESIS = 4

# What the entries of one manifest share: its ring, and the map (text, ring) ->
# reading of the texts read so far (``_read_poly``).
_Manifest = namedtuple("_Manifest", "ring parsed")


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


def _parse_ring(node, where, reserved=()):
    """The ring named by node: a nonempty list of distinct names, none of them
    in reserved, each read by the polynomial parser as one token."""
    names = _string_list(node, where)
    if not names or len(set(names)) != len(names):
        raise ParseError(f"{where}: expected a nonempty list of distinct names")
    for name in names:
        if name in reserved:
            raise ParseError(f"{where}: {name!r} is the parameter of a branch or a family")
        if not IDENTIFIER_RE.fullmatch(name):
            raise ParseError(
                f"{where}: {name!r} is not a variable name "
                "(a letter or '_', then letters, digits or '_')"
            )
    return VarSet(tuple(names))


def _read_poly(text, ring, parsed, read):
    """read(text, ring), once per map parsed: nothing changes a reading, so
    every use of a text can share one. Each ring has one reader: RING_U the
    branch coordinates' ``_read_jet``, every other ring ``parse_poly``."""
    value = parsed.get((text, ring))
    if value is None:
        value = parsed[text, ring] = read(text, ring)
    return value


def _read_jet(text, ring):
    """The jet of a branch coordinate's text (``curveinv.jet``), with no
    Polynomial between them."""
    return jet(*parse_integral(text, ring))


def _parse_ideal(gens, ring, where, parsed):
    I = Ideal([_read_poly(g, ring, parsed, parse_poly) for g in _string_list(gens, where)], ring)
    if not I.gens:
        raise ParseError(f"{where}: the ideal is zero; give a nonzero generator")
    return I


def _parse_parametrizations(node, ring, where, make, read, param_ring, parsed):
    """The parametrizations listed in node, a nonempty list of lists of one
    polynomial over param_ring per variable of ring; the i-th is
    make(readings, label=str(i)), a ``BranchParam`` from its jets or a
    ``FamilyComponent``, each text read by read through the map parsed
    (``_read_poly``)."""
    if not isinstance(node, list) or not node:
        raise ParseError(f"{where}: expected a nonempty list")
    out = []
    for i, comps in enumerate(node):
        comps = _string_list(comps, f"{where}[{i}]")
        if len(comps) != len(ring):
            raise ParseError(f"{where}[{i}]: {len(comps)} coordinates, ring has {len(ring)}")
        out.append(make([_read_poly(c, param_ring, parsed, read) for c in comps], label=f"{i}"))
    return out


def _parse_curve_data(node, manifest, where):
    """The branches and ideal of a curve entry or a special fiber, each None
    when node does not give it."""
    branches = ideal = None
    if "branches" in node:
        branches = _parse_parametrizations(node["branches"], manifest.ring, f"{where}.branches",
                                           BranchParam.from_jets, _read_jet, RING_U,
                                           manifest.parsed)
    if "ideal" in node:
        ideal = _parse_ideal(node["ideal"], manifest.ring, f"{where}.ideal", manifest.parsed)
    return branches, ideal


def _parse_assertions(node, where):
    from .family import GenericAssertions

    _require_mapping(node, ("mu", "m", "r", "delta", "epsilon"), ("mu", "m", "r"), where)
    # a null delta is not declared; a curve germ has m, r >= 1 and epsilon >= 0
    least = {"m": 1, "r": 1, "epsilon": 0}
    for k in ("mu", "m", "r", "delta", "epsilon"):
        if k not in node or (k == "delta" and node[k] is None):
            continue
        if not isinstance(node[k], int) or isinstance(node[k], bool):
            raise ParseError(f"{where}.{k}: expected an integer")
        if k in least and node[k] < least[k]:
            raise ParseError(f"{where}.{k}: expected an integer of at least {least[k]}")
    return GenericAssertions(
        mu=node["mu"],
        m=node["m"],
        r=node["r"],
        delta=node.get("delta"),
        epsilon=node.get("epsilon", 0),
    )


def _analyze_curve(entry, manifest, seed):
    # seed is unused: a curve entry draws no samples; both entry kinds take the
    # same arguments.
    where = f"entry {entry.get('name', '?')!r}"
    _require_mapping(
        entry,
        ("name", "kind", "branches", "ideal"),
        ("name", "kind", "branches"),
        where,
    )
    branches, ideal = _parse_curve_data(entry, manifest, where)
    inv = invariants(CurvePresentation(branches, ideal=ideal))
    return {
        "name": entry["name"],
        "kind": "curve",
        "invariants": inv._asdict(),
    }


def _analyze_family(entry, manifest, seed):
    from .family import RING_UT, Declared, FamilyComponent, Parametrized, classify

    where = f"entry {entry.get('name', '?')!r}"
    _require_mapping(
        entry,
        ("name", "kind", "mode", "components", "special_fiber", "generic_fiber_assertions"),
        ("name", "kind"),
        where,
    )
    mode = entry.get("mode", "parametrized")
    if mode not in ("parametrized", "declared"):
        raise ParseError(f"{where}.mode: expected 'parametrized' or 'declared'")
    assertions = None
    if "generic_fiber_assertions" in entry:
        assertions = _parse_assertions(
            entry["generic_fiber_assertions"], f"{where}.generic_fiber_assertions"
        )
    fiber = entry.get("special_fiber", {})
    fiber_where = f"{where}.special_fiber"
    _require_mapping(fiber, ("branches", "ideal", "classes"), (), fiber_where)
    classes = fiber.get("classes")
    if "classes" in fiber and not (
        isinstance(classes, list)
        and len(classes) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in classes)
    ):
        raise ParseError(
            f"{fiber_where}.classes: expected [count_through_section, count_off_section]"
        )
    branches, ideal = _parse_curve_data(fiber, manifest, fiber_where)

    if mode == "parametrized":
        if "components" not in entry:
            raise ParseError(f"{where}: parametrized family needs components")
        if branches is not None or classes is not None:
            raise ParseError(f"{fiber_where}: branches/classes are only for declared mode")
        components = _parse_parametrizations(entry["components"], manifest.ring,
                                             f"{where}.components", FamilyComponent, parse_poly,
                                             RING_UT, manifest.parsed)
        F = Parametrized(tuple(components), ideal, assertions)
    else:
        if "components" in entry:
            raise ParseError(f"{where}: declared family takes no components")
        if branches is None or classes is None or assertions is None:
            raise ParseError(
                f"{where}: declared mode needs special_fiber branches, classes and "
                "generic_fiber_assertions"
            )
        F = Declared(CurvePresentation(branches, ideal=ideal), tuple(classes), assertions)

    return {"name": entry["name"], "kind": "family", "mode": mode, **classify(F, seed)}


def analyze_manifest(data, seed=0) -> dict:
    """Full report for parsed manifest data; entries in manifest order. Family
    entries draw their generic samples from seed. Each polynomial text is parsed
    once per call, however often the manifest repeats it."""
    _require_mapping(data, ("ring", "entries"), ("ring", "entries"), "manifest")
    ring = _parse_ring(data["ring"], "manifest.ring", reserved=("u", "t"))
    if not isinstance(data["entries"], list):
        raise ParseError("manifest.entries: expected a list")
    manifest = _Manifest(ring, {})
    entries = []
    for entry in data["entries"]:
        if not isinstance(entry, dict) or "kind" not in entry or "name" not in entry:
            raise ParseError("entry: expected an object with 'name' and 'kind'")
        if not isinstance(entry["name"], str):
            raise ParseError("entry.name: expected a string")
        # JSON can spell a lone surrogate, which the text report cannot print
        try:
            entry["name"].encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(
                f"entry.name: {entry['name']!r} is not valid Unicode text "
                "(it holds a lone surrogate)"
            ) from None
        kind = entry["kind"]
        if kind == "curve":
            entries.append(_analyze_curve(entry, manifest, seed))
        elif kind == "family":
            entries.append(_analyze_family(entry, manifest, seed))
        else:
            raise ParseError(f"entry {entry['name']!r}: unknown kind {kind!r}")
    return {"ring": list(ring.names), "entries": entries}


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


def _write_json(value, out, pad):
    """Append to out the pieces of value in the layout of json.dumps(indent=2).

    An indent sends json.dumps to its pure-Python encoder; this writer keeps
    its bytes and its C string escaper. It takes what reports hold: dicts with
    str keys, lists, strs, ints, bools and None.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        # int.__repr__ as json does, so an int subclass writes as its number and
        # an int past the int-to-str digit limit raises ValueError
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_report(report, fmt: str) -> str:
    """The report as text, or as JSON with the bytes of json.dumps(report, indent=2)
    plus a newline."""
    if fmt == "json":
        out = []
        _write_json(report, out, "")
        out.append("\n")
        return "".join(out)
    return _render_text(report)


def run_paper_corpus(seed=0):
    """Run every built-in corpus entry and compare against the expectation table.

    Returns (report dict, mismatch list).
    """
    from . import corpus as corpus_data  # the built-in manifests; only this reads them

    entries = []
    mismatches = []
    for manifest in corpus_data.MANIFESTS:
        report = analyze_manifest(manifest, seed)
        for entry in report["entries"]:
            expected = corpus_data.EXPECTATIONS.get(entry["name"], {})
            bad = corpus_data.check_entry(entry, expected)
            entry = dict(entry)
            entry["expectations_checked"] = len(expected)
            entry["mismatches"] = [
                {"path": p, "expected": w, "computed": g} for p, w, g in bad
            ]
            entries.append(entry)
            mismatches.extend((entry["name"], p, w, g) for p, w, g in bad)
    return {"entries": entries}, mismatches


def _load_json(path, what):
    """Parsed JSON of a file; text that is not UTF-8, bad JSON, too deeply
    nested JSON and an integer past the int-to-str limit are parse errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not valid UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{what} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ParseError(f"{what} is nested too deeply to parse") from exc
        except ValueError:  # what json raises for an integer literal past the limit
            raise ParseError(f"{what} holds an integer with more digits than the interpreter's "
                             f"int-to-str limit of {sys.get_int_max_str_digits()}") from None


def _cmd_analyze(args) -> int:
    data = _load_json(args.manifest, "manifest")
    report = analyze_manifest(data, args.seed)
    try:
        text = render_report(report, args.format)
    except ValueError:  # a report holds ints, strs, bools and None: an int past the limit
        raise ComputationError("the report holds a number with more digits than the interpreter's "
                               f"int-to-str limit of {sys.get_int_max_str_digits()}") from None
    sys.stdout.write(text)
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
    from .gb import std_basis

    data = _load_json(args.file, "input")
    _require_mapping(data, ("ring", "generators"), ("ring", "generators"), "input")
    ring = _parse_ring(data["ring"], "input.ring")
    I = _parse_ideal(data["generators"], ring, "input.generators", {})
    order = order_by_name(args.order)
    # render every generator before printing any, so a failure prints nothing
    sys.stdout.write("".join(f"{g.render()}\n" for g in std_basis(I, order).basis))
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
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_corpus = sub.add_parser("corpus", help="run the built-in worked-example corpus")
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.set_defaults(func=_cmd_corpus)

    p_std = sub.add_parser("std", help="print a standard basis")
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
