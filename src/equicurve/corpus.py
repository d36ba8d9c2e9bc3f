"""Built-in worked-example corpus: curve germs and families with known invariant
values, stored as manifest data plus an expectation table.

Each corpus item is a manifest (same schema the command line accepts) together
with expectations addressed by dotted paths into the computed report, so the
runner can list every mismatch as expected-versus-computed.
"""

from __future__ import annotations

# The manifests below run every layer, so this module loads them all: their
# compile falls in its import, not inside the first entry that needs each.
from . import family, gb, localdim  # noqa: F401


def _series_family(k, s):
    """The deformation (u^3, u^s, t*u), s = 3k + 1 or 3k + 2, with the ideal of
    its special fiber."""
    if s == 3 * k + 1:
        ideal = [f"x^{k}*z", f"y^3-x^{s}", "y*z^2", "z^3", "y^2*z"]
    else:
        ideal = ["y*z", "z^3", f"y^3-x^{s}", f"x^{2 * k + 1}*z", f"x^{k}*z^2"]
    return {"name": f"space-cusp-3-{s}-moving-tangent", "kind": "family",
            "components": [["u^3", f"u^{s}", "t*u"]], "special_fiber": {"ideal": ideal}}


def _series_expectations(eps, mu_red):
    return {
        "special.invariants.epsilon": eps,
        "special.invariants.mu_red": mu_red,
        "special.invariants.mu": 0,
        "special.invariants.m": 3,
        "generic.invariants.m": 1,
        "generic.invariants.mu": 0,
        "verdict.topologically_trivial": True,
        "verdict.whitney": False,
        "verdict.strong_simultaneous_resolution": False,
        "verdict.cm_by_component.0.is_cm": False,
        "verdict.cm_by_component.0.length": 3,
        "verdict.cm_by_component.0.multiplicity": 1,
    }


MANIFEST_3VARS = {
    "ring": ["x", "y", "z"],
    "entries": [
        {
            "name": "space-cusp-with-embedded-point",
            "kind": "curve",
            "branches": [["u^3", "u^4", "0"]],
            "ideal": ["x*z", "y^3-x^4", "y^2*z", "y*z^2", "z^3"],
        },
        {
            "name": "space-cusp-moving-tangent",
            "kind": "family",
            "components": [["u^3", "u^4", "t*u"]],
            "special_fiber": {
                "ideal": ["x*z", "y^3-x^4", "y^2*z", "y*z^2", "z^3"],
            },
        },
        {
            "name": "space-cusp-high-order-deformation",
            "kind": "family",
            "components": [["u^3", "u^4", "t*u^5"]],
            "special_fiber": {
                "ideal": ["x*z", "y*z", "z^2", "y^3-x^4"],
            },
        },
        *[_series_family(k, s) for k in (1, 2, 3) for s in (3 * k + 1, 3 * k + 2)],
    ],
}

MANIFEST_5VARS = {
    "ring": ["x", "y", "z", "w", "v"],
    "entries": [
        {
            "name": "five-lines-splitting-family",
            "kind": "family",
            "mode": "declared",
            "special_fiber": {
                "branches": [
                    ["u", "0", "0", "0", "0"],
                    ["0", "u", "0", "0", "0"],
                    ["u", "-u", "0", "0", "0"],
                    ["0", "0", "u", "0", "0"],
                    ["0", "0", "0", "0", "u"],
                ],
                "ideal": [
                    "x*z", "y*z", "x*w", "y*w", "z*w", "w^2",
                    "x*v", "y*v", "z*v", "w*v", "x^2*y+x*y^2",
                ],
                "classes": [2, 1],
            },
            "generic_fiber_assertions": {"mu": 4, "m": 3, "r": 3},
        },
    ],
}

EXPECTATIONS = {
    "space-cusp-with-embedded-point": {
        "invariants.m": 3,
        "invariants.r": 1,
        "invariants.delta_red": 3,
        "invariants.epsilon": 3,
        "invariants.delta": 0,
        "invariants.mu_red": 6,
        "invariants.mu": 0,
    },
    "space-cusp-moving-tangent": {
        "special.invariants.m": 3,
        "special.invariants.epsilon": 3,
        "special.invariants.mu": 0,
        "generic.invariants.m": 1,
        "generic.invariants.mu": 0,
        "verdict.topologically_trivial": True,
        "verdict.whitney": False,
        "verdict.strong_simultaneous_resolution": False,
        "verdict.b0_generic_fiber": 1,
        "verdict.cm_by_component.0.is_cm": False,
        "verdict.cm_by_component.0.length": 3,
        "verdict.cm_by_component.0.multiplicity": 1,
    },
    "space-cusp-high-order-deformation": {
        "special.invariants.m": 3,
        "special.invariants.epsilon": 1,
        "special.invariants.mu": 4,
        "generic.invariants.m": 3,
        "generic.invariants.mu": 4,
        "verdict.topologically_trivial": True,
        "verdict.whitney": True,
        "verdict.strong_simultaneous_resolution": True,
        "verdict.cm_by_component.0.is_cm": True,
        "verdict.cm_by_component.0.length": 3,
        "verdict.cm_by_component.0.multiplicity": 3,
    },
    "space-cusp-3-4-moving-tangent": _series_expectations(3, 6),
    "space-cusp-3-5-moving-tangent": _series_expectations(4, 8),
    "space-cusp-3-7-moving-tangent": _series_expectations(6, 12),
    "space-cusp-3-8-moving-tangent": _series_expectations(7, 14),
    "space-cusp-3-10-moving-tangent": _series_expectations(9, 18),
    "space-cusp-3-11-moving-tangent": _series_expectations(10, 20),
    "five-lines-splitting-family": {
        "special.invariants.epsilon": 1,
        "special.invariants.delta_red": 5,
        "special.invariants.mu_red": 6,
        "special.invariants.mu": 4,
        "special.invariants.m": 5,
        "generic.invariants.mu": 4,
        "generic.invariants.m": 3,
        "generic.invariants.r": 3,
        "verdict.b0_generic_fiber": 2,
        "verdict.topologically_trivial": False,
        "verdict.whitney": False,
        "verdict.strong_simultaneous_resolution": False,
    },
}

MANIFESTS = (MANIFEST_3VARS, MANIFEST_5VARS)


def _lookup(report: dict, path: str):
    node = report
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return node


def check_entry(report: dict, expected: dict) -> list:
    """Mismatches between a computed entry report and its expectation table,
    as (path, expected, computed) triples."""
    mismatches = []
    for path, want in sorted(expected.items()):
        try:
            got = _lookup(report, path)
        except (KeyError, IndexError, TypeError, ValueError):
            mismatches.append((path, want, "<missing>"))
            continue
        if got != want:
            mismatches.append((path, want, got))
    return mismatches
