"""Seeded input generators for the germs and families workloads, with the
expected answers the benchmark checks them against.

Every entry is drawn from a stated, finite parameter range. Degenerate inputs
never reach the program: exponent pairs are coprime by construction and line
directions are redrawn until pairwise non-proportional, so a generator slip is
never counted as a program failure. Each pass of a workload is a fixed number
of entries per stratum; only the parameters are drawn, so every pass has the
same mix.

The ``frontier`` strata are drawn from just past the program's caps at the
commit that defined the benchmark and show that known failure at a fixed share;
README.md lists every failure class ("Failure ledger").
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

RING = ["x", "y", "z"]


# -- polynomial text -------------------------------------------------------

def _term(coeff: int, u: int, t: int = 0) -> str:
    """One term coeff * t^t * u^u as manifest text, with its sign."""
    factors = [f"t^{t}" if t > 1 else "t"] if t else []
    if u:
        factors.append(f"u^{u}" if u > 1 else "u")
    body = "*".join(factors)
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    if mag != 1:
        body = f"{mag}*{body}"
    return sign + body


def poly(*terms) -> str:
    """Sum of (coeff, u_exp[, t_exp]) terms; "0" when every coefficient is zero."""
    text = "".join(_term(*tm) for tm in terms if tm[0])
    if not text:
        return "0"
    return text[1:] if text[0] == "+" else text


# -- germs -----------------------------------------------------------------
#
# Curve entries given by branches only (no ideal), so the whole entry is the
# jet-span delta computation in curveinv on top of linalg.RowSpace; gb is never
# called. Each stratum has a closed-form delta the benchmark checks.

def plane_delta(a: int, b: int) -> int:
    """delta of a plane branch with semigroup <a, b>, gcd(a, b) = 1."""
    return (a - 1) * (b - 1) // 2


def _coprime_pairs(max_b: int, keep):
    return [
        (a, b)
        for a in range(2, max_b)
        for b in range(a + 1, max_b + 1)
        if math.gcd(a, b) == 1 and keep(a, b)
    ]


# (u^a, u^b + c*u^(b+k), 0), gcd(a, b) = 1: one characteristic exponent, so the
# semigroup is <a, b> whatever c and k are. Main range: b <= 13, delta <= 28.
PLANE_PAIRS = _coprime_pairs(13, lambda a, b: plane_delta(a, b) <= 28)
# Just past the caps (delta 35..45): each fails in about 15 ms at the defining
# commit ("delta did not stabilize within caps"). delta 29..34 is left out of
# both ranges because there success depends on b, not on delta alone.
FRONTIER_PAIRS = _coprime_pairs(16, lambda a, b: 35 <= plane_delta(a, b) <= 45)
# A plane branch plus a transversal line (d*u, u, 0): delta = delta_branch + a,
# since the line x = d*y meets the branch with multiplicity a. Main range: total
# delta <= 10, where the two-branch jet span stays inside the caps.
BRANCH_LINE_PAIRS = _coprime_pairs(17, lambda a, b: plane_delta(a, b) + a <= 10)
PERTURB_COEFFS = (-3, -2, -1, 1, 2, 3)
PERTURB_SHIFTS = (1, 2, 3)
LINE_SLOPES = tuple(range(-3, 4))
# n lines through the origin with directions whose entries are all in
# {-2, -1, 1, 2}. Nonzero entries keep the per-entry cost homogeneous (a zero
# entry makes the jets sparse and the entry an order of magnitude cheaper),
# which is what keeps the tail percentile steady from seed to seed. One card
# per pass for each n, and four more of n = 6 (see GERM_MIX).
LINE_COUNTS = (3, 4, 5, 6, 6, 6, 6, 6)
LINE_ENTRIES = (-2, -1, 1, 2)

# Entries per pass and stratum. Each count is a whole number of decks (the 31
# plane pairs, four times the 13 branch-plus-line pairs, the 8 line cards), so
# every pass has the same mix and only the per-entry draws differ. A
# percentile that falls on the step between two kinds of entry follows every
# small shift in the mix, so each one is placed inside a block of entries of
# one kind. Sorted by time, a pass is 26 plane germs (26 of the 31 exponent
# pairs cost under 13 ms on a 2-vCPU Xeon, the other 5 about 15 to 20 ms),
# then the 52 branch-plus-line germs (15 to 25 ms) mixed with the 5 dearer
# plane germs up to rank 82, then the line germs (n = 3, 4, 5, then
# five of n = 6, each n about 1.3 times dearer than the last) and the failing
# frontier entry at rank 91. So verdict_s_p50 (rank 46 of 92) sits in the
# branch-plus-line block, twenty entries from its lower edge, and verdict_s_p95
# (rank 87.4) inside the five n = 6 line germs (ranks 86 to 90).
GERM_MIX = (("plane", 31), ("branch_line", 52), ("lines", 8), ("frontier", 1))


def _perturbed_branch(rng, a, b):
    c = rng.choice(PERTURB_COEFFS)
    k = rng.choice(PERTURB_SHIFTS)
    return [poly((1, a)), poly((1, b), (c, b + k)), "0"]


def _proportional(v, w) -> bool:
    return all(v[i] * w[j] == v[j] * w[i] for i in range(3) for j in range(i + 1, 3))


def _line_directions(rng, n):
    dirs = []
    while len(dirs) < n:
        v = tuple(rng.choice(LINE_ENTRIES) for _ in range(3))
        if any(_proportional(v, w) for w in dirs):
            continue  # guard: a repeated line is one line, not two branches
        dirs.append(v)
    return dirs


def _rank(rows) -> int:
    """Exact rank of a list of equal-length rational rows."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / p[col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def lines_delta(dirs) -> int:
    """delta of the union of lines through the origin with the given directions:
    sum over k of (n - H(k)), H the Hilbert function of the directions as points
    of the projective plane, each H(k) an exact rank of degree-k monomials."""
    n = len(dirs)
    total = 0
    for k in itertools.count():
        monos = [m for m in itertools.product(range(k + 1), repeat=3) if sum(m) == k]
        h = _rank([[v[0] ** m[0] * v[1] ** m[1] * v[2] ** m[2] for m in monos] for v in dirs])
        if h == n:
            return total
        total += n - h


GERM_GROUPS = {
    "plane": PLANE_PAIRS,
    "branch_line": BRANCH_LINE_PAIRS,
    "lines": LINE_COUNTS,
    "frontier": FRONTIER_PAIRS,
}


def _germ_entry(rng, stratum, card, name):
    """(manifest entry, expected invariants) for one germ of the stratum; the
    card is the exponent pair or the line count, the rest is drawn here."""
    if stratum in ("plane", "frontier"):
        a, b = card
        branches = [_perturbed_branch(rng, a, b)]
        m, delta = a, plane_delta(a, b)
    elif stratum == "branch_line":
        a, b = card
        d = rng.choice(LINE_SLOPES)
        branches = [_perturbed_branch(rng, a, b), [poly((d, 1)), poly((1, 1)), "0"]]
        m, delta = a + 1, plane_delta(a, b) + a
    elif stratum == "lines":
        dirs = _line_directions(rng, card)
        branches = [[poly((c, 1)) for c in v] for v in dirs]
        m, delta = len(dirs), lines_delta(dirs)
    else:
        raise ValueError(f"unknown germ stratum {stratum!r}")
    r = len(branches)
    mu = 2 * delta - r + 1
    expected = {"m": m, "r": r, "delta_red": delta, "epsilon": 0, "delta": delta,
                "mu_red": mu, "mu": mu}
    return {"name": name, "kind": "curve", "branches": branches}, expected


# -- families --------------------------------------------------------------
#
# Parametrized families in C^3 with no special-fiber ideal: the only workload
# that runs the family layer, the Cohen-Macaulay ladder (local Mora standard
# bases plus the elimination quotient) and the two-route cross-checks. There is
# no closed form for the whole report, so each entry is checked against the
# report digest recorded for it at the defining commit (expected_families.json,
# written by record.py over every entry these ranges can produce).

ONE_PAIRS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7))
TWO_PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5))
FRONTIER_FAMILY_PAIRS = ((3, 10), (4, 7), (5, 6), (5, 7))
# Line slopes for the second class-A component. Nonzero, for the same reason as
# LINE_ENTRIES: a zero slope makes the entry about three times cheaper, and the
# tail percentile sits in this stratum.
TWO_SLOPES = (-2, -1, 1, 2)


def _one(a, b, x_pert, j, q):
    return [[poly((1, a), *x_pert), poly((1, b)), poly((1, q, j))]]


def _branch_plus(a, b, q, line):
    return [[poly((1, a)), poly((1, b)), poly((1, q, 1))], line]


# Each stratum maps a group (the parameters that move the cost most) to the
# families in it; passes deal from the groups in turn (see draw_pass).
FAMILY_STRATA = {
    # One class-A component (the section lies in it), moving in z, with an
    # optional t-perturbation of x that keeps the u-order of x.
    "one": {
        (a, b, x): [_one(a, b, x_pert, j, q) for j in (1, 2) for q in range(1, 6)]
        for a, b in ONE_PAIRS
        for x, x_pert in enumerate(((), ((1, a + 1, 1),), ((-2, a + 2, 1),)))
    },
    # As "one", but x = u^a + t^2*u^(a-1) has a lower u-order off t = 0, which
    # changes the generic multiplicity. About half of these end in the
    # Hilbert-Samuel ladder's early stop (README.md, "Failure ledger").
    "lowering": {
        (a, b): [_one(a, b, ((1, a - 1, 2),), j, q) for j in (1, 2) for q in range(1, 6)]
        for a, b in ONE_PAIRS
    },
    # Two class-A components: a branch and a line (lam*u, mu*u, u). Some end in
    # generic samples that disagree (the samples hit a degenerate t).
    "two": {
        (a, b): [
            _branch_plus(a, b, q, [poly((lam, 1)), poly((mu, 1)), poly((1, 1))])
            for q in range(1, 5)
            for lam in TWO_SLOPES
            for mu in TWO_SLOPES
        ]
        for a, b in TWO_PAIRS
    },
    # A class-A branch plus a class-B line (d*u + g*t, u, 0) that meets the
    # section only at the origin, so the generic fiber is disconnected. d = 0
    # is about half as costly as the other slopes, so d is part of the group.
    "ab": {
        (a, b, d): [
            _branch_plus(a, b, q, [poly((d, 1), (g, 0, 1)), poly((1, 1)), "0"])
            for q in range(1, 5)
            for g in (-1, 1)
        ]
        for a, b in ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5))
        for d in range(-2, 3)
    },
    # Two-branch special fibers just past the jet-span caps.
    "frontier": {
        (a, b): [
            _branch_plus(a, b, q, [poly((d, 1)), poly((1, 1)), "0"])
            for q in (1, 2)
            for d in (0, 1)
        ]
        for a, b in FRONTIER_FAMILY_PAIRS
    },
}


def all_families():
    """Every (stratum, components) the families workload can draw."""
    for stratum, groups in FAMILY_STRATA.items():
        for families in groups.values():
            for components in families:
                yield stratum, components


# Entries per pass and stratum. Expected failures are about 2.3 in 80 (2.8 %):
# the frontier entry, half a "lowering" entry and a tenth of the "two" entries.
# The eight "two" entries (10 %, about 0.7 s each) hold verdict_s_p95; the
# cheap "one" and "ab" entries hold verdict_s_p50.
FAMILY_MIX = (("one", 40), ("ab", 30), ("two", 8), ("lowering", 1), ("frontier", 1))


def family_key(components) -> str:
    """Key of a family in expected_families.json."""
    return json.dumps(components, separators=(",", ":"))


def family_entry(stratum, components):
    """The manifest entry for a family. Its name, which the report repeats, is
    derived from the family alone so that the report bytes are too."""
    tag = hashlib.sha256(family_key(components).encode()).hexdigest()[:10]
    return {"name": f"{stratum}-{tag}", "kind": "family", "components": components}


def _family_entry(rng, stratum, components, _name):
    return family_entry(stratum, components), family_key(components)


# -- passes ----------------------------------------------------------------

def _deck(groups, rng):
    """Every card of every group, in an order that takes one card from each
    group in turn (groups and cards within a group shuffled)."""
    groups = [rng.sample(g, len(g)) for g in groups]
    rng.shuffle(groups)
    return [card for round_ in itertools.zip_longest(*groups) for card in round_ if card is not None]


def draw_pass(workload: str, seed: int, index: int):
    """The entries of one pass: a list of (stratum, manifest entry, expected).

    ``expected`` is the invariant record for germs and the record key for
    families. The draw depends only on (workload, seed, index).

    Each stratum is dealt from a deck built once per seed: pass ``index`` takes
    the next ``count`` cards, cycling. The deck visits the stratum's groups in
    turn and each group's cards without repeats, so every run covers the
    groups evenly and the mix of costly and cheap entries, and with it the
    percentiles, does not hang on the seed's luck. A germ card is an exponent
    pair or a line count, with the other parameters drawn per entry; a family
    card is a whole family.
    """
    if workload == "germs":
        mix, make = GERM_MIX, _germ_entry
        groups_of = {k: [[card] for card in v] for k, v in GERM_GROUPS.items()}
    elif workload == "families":
        mix, make = FAMILY_MIX, _family_entry
        groups_of = {k: list(v.values()) for k, v in FAMILY_STRATA.items()}
    else:
        raise ValueError(f"no generated inputs for workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    out = []
    for stratum, count in mix:
        deck = _deck(groups_of[stratum], random.Random(f"{workload}:{seed}:{stratum}"))
        for j in range(count):
            card = deck[(index * count + j) % len(deck)]
            entry, expected = make(rng, stratum, card, f"{stratum}-{len(out)}")
            out.append((stratum, entry, expected))
    rng.shuffle(out)
    return out
