"""One pass of a benchmark workload, in a fresh interpreter.

Run by run.py, never by hand: it imports equicurve from ./src of the current
directory, draws the pass's inputs, runs every entry through the public API
(``cli.run_paper_corpus`` for the corpus, ``cli.analyze_manifest`` plus
``cli.render_report`` for generated entries), checks each answer, and prints
one JSON line with per-entry times and outcomes and the reference slices run
between entries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from reference import reference_slice

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_FAMILIES = os.path.join(HERE, "expected_families.json")
# A reference slice runs at the start of a pass and before any entry that
# starts this long after the last slice ended: about a tenth of the time.
SLICE_EVERY_S = 1.2


class Reference:
    """Reference slices spread over a pass, run between entries and outside
    their timing (reference.py). ``slices`` holds [time.monotonic() at the
    start, seconds] per slice; the monotonic clock is shared by every process,
    so run.py can line slices up with the entries of all passes."""

    def __init__(self):
        self.slices = []
        self.last = None

    def between_entries(self):
        if self.last is None or time.monotonic() - self.last >= SLICE_EVERY_S:
            started = time.monotonic()
            self.slices.append([started, reference_slice()])
            self.last = time.monotonic()


def load_program():
    """Import equicurve from ./src, refusing any other copy."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "equicurve", "__init__.py")):
        sys.exit(f"no equicurve sources under {src}")
    sys.path.insert(0, src)
    import equicurve
    from equicurve import cli, errors

    if not os.path.abspath(equicurve.__file__).startswith(src + os.sep):
        sys.exit(f"equicurve was imported from {equicurve.__file__}, not from {src}")
    return cli, errors


def exit_class(exc, errors) -> int:
    """The exit code ``equicurve analyze`` gives for this exception."""
    if isinstance(exc, errors.ParseError):
        return 2
    if isinstance(exc, errors.HypothesisError):
        return 4
    return 3


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_entry(cli, errors, entry):
    """Analyze one generated entry; returns (seconds, report or None, outcome).

    ``outcome`` is {"digest": ...} for a report, or {"error": [class, first line
    of the message, exit class]} for an EquicurveError. Other exceptions
    propagate: they break the exit-code contract and are not data.
    """
    manifest = {"ring": ["x", "y", "z"], "entries": [entry]}
    start = time.perf_counter()
    try:
        report = cli.analyze_manifest(manifest)
        text = cli.render_report(report, "json")
    except errors.EquicurveError as exc:
        seconds = time.perf_counter() - start
        first = (str(exc).splitlines() or [""])[0]
        return seconds, None, {"error": [type(exc).__name__, first, exit_class(exc, errors)]}
    return time.perf_counter() - start, report, {"digest": digest(text)}


def _check_germ(report, expected):
    got = report["entries"][0]["invariants"]
    if got != expected:
        return f"invariants {got}, expected {expected}"
    return None


def _check_family(report, outcome, recorded):
    if "digest" in recorded:
        if outcome["digest"] != recorded["digest"]:
            return "report differs from the one recorded for this entry"
        return None
    # Failed when recorded: a verdict now is a gain, checked for consistency only.
    v = report["entries"][0]["verdict"]
    cm_all = all(w["is_cm"] for w in v["cm_by_component"])
    if v["strong_simultaneous_resolution"] != v["whitney"] or (
        v["whitney"] != (v["topologically_trivial"] and cm_all)
    ):
        return f"inconsistent verdict {v}"
    return None


def generated_pass(cli, errors, tracer, reference, workload, seed, index):
    import workloads

    recorded = None
    if workload == "families":
        with open(EXPECTED_FAMILIES, encoding="utf-8") as fh:
            recorded = json.load(fh)
    drawn = workloads.draw_pass(workload, seed, index)

    def run():
        rows, wrong = [], []
        for position, (stratum, entry, expected) in enumerate(drawn):
            reference.between_entries()
            if tracer is not None:
                tracer.start_entry(f"{position}:{entry['name']}")
            row = {"name": entry["name"], "stratum": stratum, "t0": time.monotonic()}
            try:
                row["s"], report, outcome = run_entry(cli, errors, entry)
            except Exception:  # a traceback: the exit-code contract is broken
                traceback.print_exc()
                row.update(s=None, crash=True)
                rows.append(row)
                continue
            row.update(outcome)
            if report is not None:
                if workload == "germs":
                    bad = _check_germ(report, expected)
                else:
                    bad = _check_family(report, outcome, recorded[expected])
                if bad:
                    wrong.append(f"{entry['name']} {json.dumps(entry)}: {bad}")
            rows.append(row)
        return rows, wrong

    return run


def corpus_pass(cli, errors, tracer, reference, seed):
    from equicurve import corpus

    times, starts = {}, {}

    def timed(fn):
        def dispatch(entry, ring, seed_override):
            reference.between_entries()
            if tracer is not None:
                tracer.start_entry(entry["name"])
            starts[entry["name"]] = time.monotonic()
            start = time.perf_counter()
            out = fn(entry, ring, seed_override)
            times[entry["name"]] = time.perf_counter() - start
            return out

        return dispatch

    # The per-entry boundary inside run_paper_corpus: analyze_manifest hands
    # each entry to one of these two.
    cli._analyze_curve = timed(cli._analyze_curve)
    cli._analyze_family = timed(cli._analyze_family)
    count = sum(len(m["entries"]) for m in corpus.MANIFESTS)

    def run():
        report, mismatches = cli.run_paper_corpus(seed=seed)
        wrong = [f"corpus mismatch {m}" for m in mismatches]
        if len(report["entries"]) != count:
            wrong.append(f"corpus reported {len(report['entries'])} of {count} entries")
        rows = [
            {"name": e["name"], "stratum": "corpus", "t0": starts[e["name"]], "s": times[e["name"]],
             "digest": digest(json.dumps(e, indent=2))}
            for e in report["entries"]
        ]
        return rows, wrong

    return run


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in run.py just before this process started")
    args = parser.parse_args()

    cli, errors = load_program()
    reference = Reference()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if args.workload == "corpus":
        run = corpus_pass(cli, errors, tracer, reference, args.seed)
    else:
        run = generated_pass(cli, errors, tracer, reference, args.workload, args.seed, args.index)
    setup_s = time.monotonic() - args.spawned

    rows, wrong = run()
    out = {
        "setup_s": setup_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "entries": rows,
        "wrong": wrong,
        "spawned": args.spawned,
        "reference": reference.slices,
    }
    if tracer is not None:
        out["totals"] = tracer.totals()
        out["spans"] = tracer.spans
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
