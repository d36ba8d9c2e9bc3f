"""The equicurve benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {corpus,germs,families} --seed N \\
        --seconds S --trace {0,1}

Closed loop with one worker: passes run one after another, each in a fresh
interpreter (worker.py), until S seconds have gone and the tail percentile has
at least ten samples beyond it (untraced runs). No memo cache carries over between passes, as
for a user who runs ``equicurve corpus`` or ``analyze`` once.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, their times scaled to the reference speed (reference.py);
with --trace 1 passes come in pairs over the same inputs,
untraced then traced, and it holds the per-layer metrics, the tracing overhead,
and fails the correctness check unless both passes gave the same report bytes.
Per-entry rows, the failure ledger and (traced) the spans are written to
.perfbench/ in the checkout. See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

from reference import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench"
WORKLOADS = ("corpus", "germs", "families")

# A failed entry counts as taking this long, past every latency limit, so it
# sorts above every success: turning a failure into a verdict never reads as a
# regression. It is also the time limit of one pass.
FAILED_SECONDS = 60.0
# Passes stop starting after this long whatever --seconds says, so that a run
# ends within its 180 s limit.
LAST_START_S = 100.0
# The tail percentile. On the corpus, five-lines is exactly a tenth of the
# entries, so a p90 would sit on the edge between it and the rest; the p95 sits
# in the middle of its samples.
TAIL_Q = 0.95
# Each time is scaled by the host's speed around it, from the reference slices
# that started this close to it (reference.py): about eight slices, close
# enough to follow the host's drift and enough to average a slice's own noise.
SPEED_WINDOW_S = 5.0

def quantile(values, q):
    """The smallest sample such that more than a share q of the samples are at
    or below it: sorted(values)[floor(q * n)]."""
    return sorted(values)[int(q * len(values))]


def speed_at(slices, t):
    """The speed factor at monotonic time t: REFERENCE_S over the mean time of
    the reference slices that started within SPEED_WINDOW_S of t. There is
    always one: a pass runs a slice right after its set-up, and no entry
    starts more than 1.2 s (worker.SLICE_EVERY_S) after the last slice ended."""
    return REFERENCE_S / statistics.fmean(
        d for start, d in slices if abs(start - t) <= SPEED_WINDOW_S)


def tail_has_ten(n) -> bool:
    """Whether n samples leave at least ten beyond the tail percentile."""
    return n - int(TAIL_Q * n) - 1 >= 10


def run_pass(workload, seed, index, trace):
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--index", str(index), "--trace", str(trace), "--spawned", repr(spawned)],
        stdout=subprocess.PIPE, text=True, timeout=FAILED_SECONDS, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"pass {index} of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def ok(row) -> bool:
    return "digest" in row


# -- per-layer metrics -------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(totals, entries):
    """(name, unit, value) per-layer metrics from summed traced-pass totals.
    Counts and seconds are per attempted entry; ratios say what they divide."""
    t = totals.get

    def each(key):
        return t(key, 0) / entries

    std_calls = sum(t(f"gb.std_basis.{o}.calls", 0) for o in ("elim", "local", "global"))
    rows = []
    for order in ("elim", "local", "global"):
        rows.append((f"gb.std_basis.{order}.calls", "calls/entry", each(f"gb.std_basis.{order}.calls")))
        rows.append((f"gb.std_basis.{order}.s", "s/entry", each(f"gb.std_basis.{order}.s")))
        if order != "global":
            rows.append((f"gb.std_basis.{order}.self_s", "s/entry",
                         each(f"gb.std_basis.{order}.self_s")))
    rows += [
        ("gb.std_basis.elim.out_size", "gens/call",
         _ratio(t("gb.std_basis.elim.out_size", 0), t("gb.std_basis.elim.calls", 0))),
        ("gb.std_basis.repeat_share", "share", _ratio(t("gb.std_basis.repeats", 0), std_calls)),
        ("gb.ideal_intersect.calls", "calls/entry", each("gb.ideal_intersect.calls")),
        ("gb.ideal_intersect.s", "s/entry", each("gb.ideal_intersect.s")),
        ("poly.leading_monomial.calls", "calls/entry", each("poly.leading_monomial.calls")),
        ("poly.term_mul.calls", "calls/entry", each("poly.term_mul.calls")),
        ("poly.parse_poly.calls", "calls/entry", each("poly.parse_poly.calls")),
        ("poly.parse_poly.s", "s/entry", each("poly.parse_poly.s")),
        ("localdim.verify_decomposition.s", "s/entry", each("localdim.verify_decomposition.s")),
        ("localdim.epsilon.s", "s/entry", each("localdim.epsilon.s")),
        ("localdim.intersection.calls", "calls/entry", each("localdim.intersection.calls")),
        ("localdim.vdim.calls", "calls/entry", each("localdim.vdim.calls")),
        ("localdim.vdim.s", "s/entry", each("localdim.vdim.s")),
        ("localdim.hs_ladder_len", "vdim/call",
         _ratio(t("localdim.hs_ladder_steps", 0), t("localdim.hs_multiplicity_of_param.calls", 0))),
        ("localdim.is_cohen_macaulay.s", "s/entry", each("localdim.is_cohen_macaulay.s")),
        ("curveinv.delta_reduced.calls", "calls/entry", each("curveinv.delta_reduced.calls")),
        ("curveinv.delta_reduced.s", "s/entry", each("curveinv.delta_reduced.s")),
        ("curveinv.delta_reduced.self_s", "s/entry", each("curveinv.delta_reduced.self_s")),
        ("curveinv.delta_reduced.failed", "calls/entry", each("curveinv.delta_reduced.failed")),
        ("curveinv.jet_escalations", "rowspaces/call",
         _ratio(t("curveinv.rowspaces", 0), t("curveinv.delta_reduced.calls", 0))),
        ("linalg.rowspace.add.calls", "calls/entry", each("linalg.rowspace.add.calls")),
        ("linalg.rowspace.add.s", "s/entry", each("linalg.rowspace.add.s")),
        ("linalg.rowspace.independent_share", "share",
         _ratio(t("linalg.rowspace.add.independent", 0), t("linalg.rowspace.add.calls", 0))),
        ("linalg.rowspace.contains.calls", "calls/entry", each("linalg.rowspace.contains.calls")),
        ("family.classify.s", "s/entry", each("family.classify.s")),
        ("family.classify.self_s", "s/entry", each("family.classify.self_s")),
        ("family.specialize_fiber.calls", "calls/entry", each("family.specialize_fiber.calls")),
        ("family.pullback_ideal.calls", "calls/entry", each("family.pullback_ideal.calls")),
        ("cli.analyze_manifest.s", "s/entry", each("cli.analyze_manifest.s")),
    ]
    return rows


# -- the run -------------------------------------------------------------------

def failure_ledger(rows):
    """(stratum, class, exit, first message line) -> count, for failed entries."""
    ledger = Counter()
    for row in rows:
        if row.get("crash"):
            ledger[(row["stratum"], "crash (not an EquicurveError)", 1, "")] += 1
        elif "error" in row:
            cls, msg, code = row["error"]
            ledger[(row["stratum"], cls, code, msg)] += 1
    return ledger


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "equicurve", "__init__.py")):
        print("run from the root of an equicurve checkout: src/equicurve is missing",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    passes, pairs = [], []
    index = 0
    while True:
        if args.trace:
            plain = run_pass(args.workload, args.seed, index, 0)
            traced = run_pass(args.workload, args.seed, index, 1)
            pairs.append((plain, traced))
            passes.append(traced)
        else:
            passes.append(run_pass(args.workload, args.seed, index, 0))
        index += 1
        elapsed = time.monotonic() - start
        enough = args.trace or tail_has_ten(sum(len(p["entries"]) for p in passes))
        if (elapsed >= args.seconds and enough) or elapsed >= LAST_START_S:
            break
    rows = [row for p in passes for row in p["entries"]]
    if not (args.trace or tail_has_ten(len(rows))):
        raise SystemExit(f"only {len(rows)} entries: too few for the p95")
    wrong = [w for p in passes for w in p["wrong"]]
    crashes = sum(1 for row in rows if row.get("crash"))
    ledger = failure_ledger(rows)

    if args.trace:
        totals = Counter()
        plain_s = traced_s = 0.0
        for plain, traced in pairs:
            totals.update(traced["totals"])
            for a, b in zip(plain["entries"], traced["entries"]):
                if (a["name"], a.get("digest"), a.get("error")) != (
                        b["name"], b.get("digest"), b.get("error")):
                    wrong.append(f"traced and untraced passes differ on {a['name']}")
                if ok(a) and ok(b):
                    plain_s += a["s"]
                    traced_s += b["s"]
        metrics = per_layer(totals, len(rows))
        metrics.append(("trace.overhead_ratio", "ratio", _ratio(traced_s, plain_s)))
        counts = {name: len(rows) for name, _, _ in metrics}
        measured = {}
    else:
        slices = [s for p in passes for s in p["reference"]]
        raw = [row["s"] if ok(row) else FAILED_SECONDS for row in rows]
        times = [row["s"] * speed_at(slices, row["t0"]) if ok(row) else FAILED_SECONDS
                 for row in rows]
        setups = [p["setup_s"] for p in passes]
        rss = [p["rss_mb"] for p in passes]
        metrics = [
            ("verdict_s_p50", "s", quantile(times, 0.5)),
            ("verdict_s_p95", "s", quantile(times, TAIL_Q)),
            ("verdict_share", "share", sum(map(ok, rows)) / len(rows)),
            ("setup_s", "s", statistics.median(
                p["setup_s"] * speed_at(slices, p["spawned"]) for p in passes)),
            ("peak_rss_mb", "MB", statistics.median(rss)),
        ]
        mean_slice = statistics.fmean(d for _, d in slices)
        measured = {"verdict_s_p50": quantile(raw, 0.5), "verdict_s_p95": quantile(raw, TAIL_Q),
                    "setup_s": statistics.median(setups), "reference_slice_s": mean_slice,
                    "speed_factor": REFERENCE_S / mean_slice}
        counts = {"verdict_s_p50": len(rows), "verdict_s_p95": len(rows),
                  "verdict_share": len(rows), "setup_s": len(passes), "peak_rss_mb": len(passes)}

    os.makedirs(OUT_DIR, exist_ok=True)
    detail = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "passes": len(passes),
            "metrics": {name: [value, unit] for name, unit, value in metrics},
            "measured": measured,
            "failures": [list(k) + [v] for k, v in sorted(ledger.items())],
            "wrong": wrong, "entries": rows,
            "reference": [p["reference"] for p in passes],
            "spans": [p.get("spans", []) for p in passes] if args.trace else [],
        }, fh)

    for name, unit, value in metrics:
        line = f"{args.workload} {name} = {value:.6g} {unit} (n={counts[name]}"
        if name in measured:
            line += f", as measured {measured[name]:.6g} {unit}"
        print(line + ")")
    if measured:
        print(f"{args.workload} mean speed factor = {measured['speed_factor']:.4g} "
              f"(reference slice {measured['reference_slice_s']:.4g} s, n={len(slices)})")
    for (stratum, cls, code, msg), count in sorted(ledger.items()):
        print(f"{args.workload} failure x{count}: {stratum} {cls} exit {code}: {msg}")
    for w in wrong[:20]:
        print(f"{args.workload} WRONG: {w}")
    if len(wrong) > 20:
        print(f"{args.workload} WRONG: {len(wrong) - 20} more in {detail}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(rows),
        "failed": crashes,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
