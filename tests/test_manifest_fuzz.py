"""Whole manifests, drawn at random, through ``main``: every input ends in exit
code 0, 2, 3 or 4, a nonzero exit prints exactly one line on stderr, and no
input escapes as a traceback.

The polynomials are small (degree at most 4, at most three terms), and a
manifest holds at most two entries. Most fields are well formed and a few are
not, so that draws get past the parser. In the ring (x, y, z) the curves and
families of the corpus are drawn too, with and without their ideals, so that
some draws reach a verdict; their ideals, with extra generators that vanish
on the branches, and two ideals that are not the curve's reduced structure
plus an embedded point (an extra component, a double structure, each of
which exits 4 as a curve) run the epsilon certificate. The draw includes
fields that no entry accepts (`options`, `reduced`, and `decomposition`,
whose draws must exit 2) and declared families whose classes put no
component through the section."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equicurve import corpus
from equicurve.cli import EXIT_COMPUTE, EXIT_HYPOTHESIS, EXIT_OK, EXIT_PARSE, main
from oracles import CORPUS_DECOMPOSITIONS

XYZ = ["x", "y", "z"]


def mostly(good, bad, odds=9):
    """good, and one draw in odds + 1 bad. (``one_of([good] * odds + [bad])``
    drew bad far more often than that.)"""
    return st.sampled_from([False] * odds + [True]).flatmap(lambda b: bad if b else good)


def polynomials(variables):
    """Text of a polynomial in variables with up to three terms of degree 1 to 4,
    so that it vanishes at the origin."""
    n = len(variables)
    exponents = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    term = st.tuples(st.integers(-3, 3), exponents).filter(lambda t: 1 <= sum(t[1]) <= 4)

    def render(terms):
        parts = [
            f"{c}*" + "*".join(f"{v}^{e}" for v, e in zip(variables, exps) if e)
            for c, exps in terms
        ]
        return " + ".join(parts) or "0"

    return st.lists(term, min_size=1, max_size=3).map(render)


# text that is not a polynomial of the ring, a constant, or zero
BAD_TEXT = st.sampled_from(["", "x*", "(x", "w", "u*t", "0", "1", "1/0", "x^-1", "u + 1"])


def text_in(variables):
    return mostly(polynomials(variables), BAD_TEXT, odds=19)


def gens(ring):
    return st.lists(text_in(ring), min_size=1, max_size=3)


def branch_lists(ring):
    """One or two branches in u; now and then one of the wrong width."""
    n = len(ring)
    branch = mostly(
        st.lists(text_in(["u"]), min_size=n, max_size=n),
        st.lists(text_in(["u"]), min_size=n - 1, max_size=n - 1),
    )
    return st.lists(branch, min_size=1, max_size=2)


def decompositions(ring):
    """A primary decomposition, which no entry accepts any more."""
    return st.fixed_dictionaries(
        {"primes": st.lists(gens(ring), min_size=1, max_size=2)},
        optional={"embedded": gens(ring)},
    )


def ideal_fields(ring):
    """Now and then an ideal; one draw in ten carries a decomposition too."""
    return st.tuples(
        st.fixed_dictionaries({}, optional={"ideal": gens(ring)}),
        mostly(st.just({}), decompositions(ring).map(lambda d: {"decomposition": d})),
    ).map(lambda p: {**p[0], **p[1]})


# The corpus in the ring (x, y, z): each curve, and each family's special fiber
# with the branches of its components at t = 0 (the third coordinate is t*u^k),
# with the generators of their minimal primes.
CORPUS_FAMILIES = [e for e in corpus.MANIFEST_3VARS["entries"] if e["kind"] == "family"]
CORPUS_FIBERS = [
    ({k: e[k] for k in ("branches", "ideal")} if e["kind"] == "curve"
     else {"branches": [[*e["components"][0][:2], "0"]], **e["special_fiber"]},
     [g for P in CORPUS_DECOMPOSITIONS[e["name"]]["primes"] for g in P])
    for e in corpus.MANIFEST_3VARS["entries"]
]
# The cusp (u^3, u^4, 0) beside the z-axis (exit 4: vdim(I + <x>) is
# infinite), and with a double structure along it (exit 4: e(x; O/I) = 6 is
# above e = 3).
NON_REDUCED_FIBERS = [
    {"branches": [["u^3", "u^4", "0"]], "ideal": ["x*z", "y*z", "y^3-x^4"]},
    {"branches": [["u^3", "u^4", "0"]], "ideal": ["z^2", "y^3-x^4"]},
]


def corpus_fibers():
    """A corpus fiber: with branches only, with its ideal, with its ideal and
    up to two multiples of a generator of its prime (which vanish on its
    branch, so the ladder runs), or with its decomposition (exit 2)."""
    def variants(pair):
        fiber, prime = pair
        bare = {"branches": fiber["branches"]}
        extra = st.lists(
            st.tuples(st.sampled_from(prime), polynomials(XYZ)).map(lambda p: f"({p[0]})*({p[1]})"),
            min_size=1, max_size=2,
        )
        return st.one_of(
            st.just(bare),
            st.just(fiber),
            extra.map(lambda gs: {**fiber, "ideal": fiber["ideal"] + gs}),
            decompositions(XYZ).map(lambda d: {**fiber, "decomposition": d}),
        )

    return st.sampled_from(CORPUS_FIBERS).flatmap(variants)


def fibers(ring):
    """Branches with, now and then, an ideal and a decomposition."""
    drawn = st.tuples(branch_lists(ring), ideal_fields(ring)).map(
        lambda p: {"branches": p[0], **p[1]}
    )
    if ring == XYZ:
        return st.one_of(drawn, corpus_fibers(), st.sampled_from(NON_REDUCED_FIBERS))
    return drawn


ASSERTIONS = st.fixed_dictionaries(
    {
        "mu": st.integers(-2, 6),
        "m": mostly(st.integers(1, 4), st.integers(-1, 0)),
        "r": mostly(st.integers(1, 3), st.integers(-1, 0)),
    },
    optional={
        "delta": st.one_of(st.none(), st.integers(-1, 4)),
        "epsilon": mostly(st.integers(0, 3), st.just(-1)),
        "reduced": st.booleans(),
    },
)
CLASSES = mostly(
    st.lists(st.integers(0, 2), min_size=2, max_size=2),
    st.sampled_from([[1], [-1, 0], [True, 0], "1,0", None]),
)
# no entry takes options; a few draws carry them
OPTIONS = mostly(st.just({}), st.sampled_from([{"options": {"seed": 3}}, {"options": {}}]))


def curve_entries(ring):
    return st.tuples(OPTIONS, fibers(ring)).map(
        lambda p: {"name": "c", "kind": "curve", **p[0], **p[1]}
    )


def parametrized_entries(ring):
    n = len(ring)
    component = st.lists(text_in(["u", "t"]), min_size=n, max_size=n)
    drawn = st.tuples(
        st.lists(component, min_size=1, max_size=2),
        st.fixed_dictionaries({}, optional={"special_fiber": ideal_fields(ring)}),
    ).map(lambda p: {"components": p[0], **p[1]})
    if ring == XYZ:
        corpus_entry = st.sampled_from(CORPUS_FAMILIES).flatmap(
            lambda e: st.sampled_from([
                {"components": e["components"], "special_fiber": e["special_fiber"]},
                {"components": e["components"]},
                *[{"components": [["u^3", "u^4", "t*u"]],
                   "special_fiber": {"ideal": f["ideal"]}} for f in NON_REDUCED_FIBERS],
            ])
        )
        drawn = st.one_of(drawn, corpus_entry)
    return st.tuples(
        OPTIONS, drawn,
        st.fixed_dictionaries({}, optional={"generic_fiber_assertions": ASSERTIONS}),
    ).map(lambda p: {"name": "p", "kind": "family", **p[0], **p[1], **p[2]})


def declared_entries(ring):
    fiber = st.tuples(fibers(ring), CLASSES).map(lambda p: {**p[0], "classes": p[1]})
    return st.tuples(OPTIONS, fiber, ASSERTIONS).map(
        lambda p: {"name": "d", "kind": "family", "mode": "declared", **p[0],
                   "special_fiber": p[1], "generic_fiber_assertions": p[2]}
    )


def manifests():
    def for_ring(ring):
        entry = st.one_of(curve_entries(ring), parametrized_entries(ring), declared_entries(ring))
        return st.lists(entry, max_size=2).map(lambda es: {"ring": ring, "entries": es})

    return st.sampled_from([["x", "y"], XYZ]).flatmap(for_ring)


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "m.json"


# The deadline guards against a hang. It is wide because some draws are slow:
# a plane curve with a branch that is not birational, such as (0, 2*u^2 - 3*u^3)
# or (3*u^3 + u^4, 3*u^3 + u^4), has infinite delta, so the jet span runs to
# JET_ORDER_CAP. Most such draws take under 2 s; one seen took 25-32 s, almost
# all of it in the integer growth of linalg.RowSpace.
@settings(max_examples=200, deadline=120_000,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=manifests(), fmt=st.sampled_from(["json", "text"]))
def test_every_manifest_ends_in_an_exit_code(manifest_path, data, fmt):
    manifest_path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(manifest_path), "--format", fmt])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_COMPUTE, EXIT_HYPOTHESIS)
    # entries run in order, and a decomposition is refused when its entry is read
    first = data["entries"][0] if data["entries"] else {}
    if "decomposition" in first or "decomposition" in first.get("special_fiber", {}):
        assert code == EXIT_PARSE
    # a curve with no other field than a non-reduced ideal of the cusp
    if first.get("kind") == "curve" and {k: v for k, v in first.items()
                                         if k not in ("name", "kind")} in NON_REDUCED_FIBERS:
        assert code == EXIT_HYPOTHESIS
    if code == EXIT_OK:
        assert err.getvalue() == ""
        if fmt == "json":
            assert len(json.loads(out.getvalue())["entries"]) == len(data["entries"])
    else:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
