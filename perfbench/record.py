"""Record the outcome of every entry the families workload can draw.

Usage, from the repository root: python3 perfbench/record.py

Writes perfbench/expected_families.json: for each family (keyed by its
components) either the SHA-256 of its JSON report or the failure it ends in
(exception class, first line of the message, exit class). The benchmark checks
every successful family against this record, so run it only at a commit whose
reports are known to be right, and say so when the record changes.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from worker import EXPECTED_FAMILIES, load_program, run_entry  # noqa: E402


def main():
    cli, errors = load_program()
    record = {}
    classes = Counter()
    for stratum, components in workloads.all_families():
        _, _, outcome = run_entry(cli, errors, workloads.family_entry(stratum, components))
        record[workloads.family_key(components)] = outcome
        err = outcome.get("error")
        classes[(stratum, err[0] if err else "verdict", err[2] if err else 0)] += 1
    with open(EXPECTED_FAMILIES, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=0, sort_keys=True)
        fh.write("\n")
    for (stratum, cls, code), n in sorted(classes.items()):
        print(f"{stratum:12s} {cls:22s} exit {code}: {n}")


if __name__ == "__main__":
    main()
