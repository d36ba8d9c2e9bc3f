"""Classification of one-parameter flat families of generically reduced curves:
topological triviality, Whitney equisingularity and strong simultaneous resolution.

The Whitney verdict is computed twice, through independent routes (constancy of
the Milnor number and multiplicity of the fibers, versus topological triviality
plus the Cohen-Macaulay property of each component's pullback ring), and the two
routes must agree; a disagreement is an internal error, never a silent choice.
Each class-A component's pullback ring is tested once by ``is_cohen_macaulay``,
which reads its witness off the generators and verifies sqrt(J) = <u>. The sum
of the pullback multiplicities is the exact generic multiplicity, and it is
checked against the multiplicity of the sampled generic fibers.

Each component is normalized when it is built (u -> u^(1/g), g the gcd of its
u-exponents), and a special branch that still factors through a power of u is
refused: the special fiber is then not generically reduced.

A family is a ``Parametrized`` or a ``Declared`` record, and ``classify``
picks the route by its type. It returns the report's fields of the family
entry as plain dicts, in report order, so the layout is known here alone.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from .curveinv import (
    BranchParam,
    CurveInvariants,
    CurvePresentation,
    invariants,
)
from .errors import ComputationError, HypothesisError, InternalCheckError
from .gcd import recursive_form
from .localdim import is_cohen_macaulay
from .poly import Ideal, Polynomial, VarSet, _number_text

RING_UT = VarSet(("u", "t"))


class FamilyComponent:
    """One irreducible component of the family, given as N polynomials in (u, t);
    the surface is the image of (u, t) -> (n_1, ..., n_N, t).

    ``table`` holds the coordinates, read once, as ``gcd.recursive_form`` gives
    them: for each, (d, A) with A in Z[t][u] equal to d times the coordinate.
    The component is built normalized: with g the gcd of its u-exponents, u is
    replaced by u^(1/g) in ``param`` and the table keeps the rows A[::g], the
    only nonzero ones. u^0 keeps its exponent, so the class is kept.
    """

    __slots__ = ("param", "label", "table")

    def __init__(self, param, label=""):
        param = tuple(param)
        if not param or all(p.is_zero() for p in param):
            raise ComputationError("all-zero family component")
        for p in param:
            if p.ring != RING_UT:
                raise ComputationError("family components must live in the (u, t) ring")
            if p.constant_term() != 0:
                raise ComputationError("family component does not pass through the origin")
        table = [recursive_form(p.terms) for p in param]
        g = math.gcd(*[a for _, A in table for a, row in enumerate(A) if row])
        if g > 1:
            param = tuple(Polynomial(RING_UT, {(a // g, b): c for (a, b), c in p.terms.items()})
                          for p in param)
            table = [(d, A[::g]) for d, A in table]
        self.param = param
        self.label = label
        self.table = table

    def component_class(self) -> str:
        """'A' when the section {u = 0} lies in the component, 'B' when the
        component meets the section only at the origin."""
        return "B" if any(A and A[0] for _, A in self.table) else "A"

    def specialize(self, t0) -> BranchParam:
        """The branch of the fiber at t = t0 contributed by this component,
        built straight into its jets (``BranchParam.jets``).

        For t0 = p/q in lowest terms and a coordinate (d, A), let D be the
        largest t-degree in A and D_a that of its row n_a, the coefficient of
        u^a. At t0 that coefficient is N_a / L, with L = d * q^D and
        N_a = n_a^h(p, q) * q^(D - D_a), where the homogenization
        n_a^h(p, q) = sum_b n_a,b p^b q^(D_a - b) is evaluated in integers by
        Horner's rule, its power of q starting at q^(D - D_a).

        Let g = gcd(L, N_a, ...). For each prime, its exponent in the lcm of
        the reduced denominators of the N_a / L is its exponent in L less the
        least of those in L and in the N_a. So that lcm is L / g, and each
        coefficient times it is N_a / g: the jets (L / g, (a, N_a / g)) are
        the ones read from the rational coefficients. Only t0 is read into a
        Fraction.
        """
        t0 = Fraction(t0)
        p, q = t0.numerator, t0.denominator
        jets = []
        for d, A in self.table:
            top = max(map(len, A), default=1)  # D + 1
            pairs = []
            for a, row in enumerate(A):
                if row:
                    h, qk = 0, q ** (top - len(row))
                    for n in reversed(row):  # Horner's rule; qk ends at q^(D + 1)
                        h, qk = h * p + n * qk, qk * q
                    if h:
                        pairs.append((a, h))
            L = d * q ** (top - 1)
            g = math.gcd(L, *[n for _, n in pairs])
            jets.append((L // g, tuple((a, n // g) for a, n in pairs)))
        if not any(pairs for _, pairs in jets):
            raise ComputationError(
                f"component {self.label!r} specializes to the zero branch at t = {t0}"
            )
        return BranchParam.from_jets(jets, label=self.label)

    def __repr__(self):
        return f"FamilyComponent({', '.join(p.render() for p in self.param)})"


class GenericAssertions(
    namedtuple("GenericAssertions", "mu m r delta epsilon", defaults=(None, 0))
):
    """Declared invariants of the generic fiber: the generic fiber of a declared
    family, labeled 'asserted' in the report, or values that a parametrized
    family's computed generic fiber must match."""

    __slots__ = ()


class Parametrized(
    namedtuple("Parametrized", "components special_ideal assertions", defaults=(None, None))
):
    """A family given by its ``FamilyComponent``s, with the ideal of its special
    fiber when known and ``GenericAssertions`` its generic fiber must match."""

    __slots__ = ()


class Declared(namedtuple("Declared", "special classes assertions")):
    """A family given by its special fiber (a ``CurvePresentation``), its
    component classes (#class A, #class B) and the ``GenericAssertions`` of its
    generic fiber."""

    __slots__ = ()


def pullback_ideal(c: FamilyComponent) -> Ideal:
    """The ideal J generated by the coordinate polynomials of the parametrization;
    ``is_cohen_macaulay`` verifies sqrt(J) = <u>."""
    return Ideal(c.param, RING_UT)


def connectivity(n_a: int, n_b: int) -> int:
    """Number of connected components of the generic fiber of a family with n_a
    class-A and n_b class-B components: one for the class-A block (all
    containing the section) plus one per class-B component. A family with no
    class-A component has an empty generic germ at the section and is outside
    scope."""
    if not n_a:
        raise HypothesisError("no component contains the section: family outside scope")
    return 1 + n_b


def specialize_fiber(F: Parametrized, t0) -> CurvePresentation:
    """The fiber germ at the section for a nonzero parameter value t0, where
    only class-A components pass through the section. (``classify`` builds the
    special fiber, t0 = 0, from the branches it specializes.)"""
    t0 = Fraction(t0)
    if t0 == 0:
        raise ValueError("specialize_fiber takes a nonzero t0")
    comps = [c for c in F.components if c.component_class() == "A"]
    if not comps:
        raise HypothesisError("no component contains the section: empty generic germ")
    return CurvePresentation([c.specialize(t0) for c in comps])


# The generic samples of each seed seen, drawn once: seeding a random.Random
# costs more than the draw, and the samples depend on nothing but the seed.
_SAMPLES_BY_SEED = {}


def _generic_samples(seed: int):
    """Two distinct nonzero t-samples drawn from random.Random(seed)."""
    samples = _SAMPLES_BY_SEED.get(seed)
    if samples is None:
        rng = random.Random(seed)
        drawn = []
        while len(drawn) < 2:
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
            if s != 0 and s not in drawn:
                drawn.append(s)
        samples = _SAMPLES_BY_SEED[seed] = tuple(drawn)
    return samples


def classify(F: Parametrized | Declared, seed: int = 0) -> dict:
    """The three equisingularity verdicts with full justification, as the
    report's fields of a family entry; a parametrized family's generic samples
    are drawn from ``seed``."""
    if isinstance(F, Declared):
        return _classify_declared(F)
    return _classify_parametrized(F, seed)


def _classify_parametrized(F, seed):
    # The special branches, each read once; their errors come before the pullbacks'.
    special = []
    for c in F.components:
        b = c.specialize(0)
        if b.exponent_gcd() > 1:
            raise HypothesisError(
                f"component {c.label!r}: special fiber parametrization factors "
                "through a power of u; the special fiber is not generically reduced"
            )
        special.append(b)
    comps_a = [c for c in F.components if c.component_class() == "A"]
    b0 = connectivity(len(comps_a), len(F.components) - len(comps_a))

    # Lemma 5.3 pipeline on each component through the section.
    cm_list = []
    sum_e = 0
    for c in comps_a:
        try:
            witness = is_cohen_macaulay(pullback_ideal(c))
        except HypothesisError as exc:
            raise HypothesisError(
                f"component {c.label!r} violates the pullback radical condition: {exc}"
            ) from exc
        cm_list.append({"label": c.label, **witness._asdict()})
        sum_e += witness.multiplicity

    # Fiber invariants.
    inv0 = invariants(CurvePresentation(special, ideal=F.special_ideal))

    # The total space is the reduced image of the components, so the generic
    # fiber is reduced: its epsilon is 0 and its delta and mu are delta_red, mu_red.
    samples = _generic_samples(seed)
    gen_invs = [invariants(specialize_fiber(F, s)) for s in samples]
    if gen_invs[0] != gen_invs[1]:
        raise ComputationError(
            f"generic-fiber invariants disagree between samples {samples}: "
            f"{gen_invs[0]} vs {gen_invs[1]}"
        )
    inv_t = gen_invs[0]
    # sum_e is the exact multiplicity of the generic fiber, and the multiplicity
    # is upper semicontinuous in t: a sample can only read it or more.
    if inv_t.m > sum_e:
        raise ComputationError(
            f"every generic sample t = {', '.join(map(str, samples))} is a special "
            f"value: the fibers there have multiplicity {inv_t.m}, above the generic "
            f"multiplicity {sum_e} of the pullbacks"
        )
    if inv_t.m < sum_e:
        raise InternalCheckError(
            f"generic multiplicity from branch orders ({inv_t.m}) is below the sum "
            f"of the pullback multiplicities ({sum_e})"
        )
    assertions = F.assertions
    if assertions is not None:
        for field in ("m", "r", "mu", "delta", "epsilon"):
            declared, computed = getattr(assertions, field), getattr(inv_t, field)
            if declared is not None and declared != computed:
                raise HypothesisError(
                    f"generic_fiber_assertions.{field} = {declared}, but the generic "
                    f"fiber of the components has {field} = {computed}"
                )

    hypotheses = {
        "flat family over a disc": "asserted",
        "section sigma(t) = (0,...,0,t) smooth": "verified (normal form)",
        "fibers smooth away from the section": "asserted",
        "total space reduced and equidimensional": "asserted",
        "sqrt(pullback) = <u> on every class-A component": "verified",
        "special fiber generically reduced": "verified (exponent gcd)",
        # no input gives a decomposition; the row stays so the report keeps its keys
        "minimal primes of supplied decompositions are prime": "not applicable",
    }
    return _assemble(inv0, inv_t, samples, b0, cm_list, hypotheses)


def _classify_declared(F):
    b0 = connectivity(*F.classes)
    inv0 = invariants(F.special)
    a = F.assertions
    if a.delta is not None:
        delta_t = a.delta
        if a.mu != 2 * delta_t - a.r + 1:
            raise HypothesisError(
                "declared generic invariants are inconsistent: "
                f"mu={a.mu} but 2*delta - r + 1 = {_number_text(2 * delta_t - a.r + 1)}"
            )
    else:
        if (a.mu + a.r - 1) % 2:
            raise HypothesisError(
                f"declared generic invariants are inconsistent: mu + r - 1 = "
                f"{_number_text(a.mu + a.r - 1)} is odd"
            )
        delta_t = (a.mu + a.r - 1) // 2
    # mu_red = 2*delta_red - r + 1 with r >= 1, so a negative delta_red makes
    # mu_red negative too
    delta_red, mu_red = delta_t + a.epsilon, a.mu + 2 * a.epsilon
    if mu_red < 0:
        raise HypothesisError(
            "declared generic invariants are inconsistent: they give "
            f"delta_red = {delta_red} and mu_red = {mu_red}, and neither can be negative"
        )
    # A reduced germ with branches of multiplicities m_i has m = sum m_i >= r.
    # With O' its normalization, dim O'/mO' = m, and (O + mO')/mO' is a
    # quotient of O/m, so it has dimension at most 1 and
    # delta_red >= dim O'/(O + mO') >= m - 1. m = 1 means one smooth branch.
    if a.r > a.m or delta_red < a.m - 1 or (a.m == 1 and delta_red > 0):
        raise HypothesisError(
            f"declared generic invariants fit no reduced germ: m = {a.m}, r = {a.r} and "
            f"delta_red = {_number_text(delta_red)}, but r <= m, delta_red >= m - 1, "
            "and delta_red = 0 if m = 1"
        )
    inv_t = CurveInvariants.derived(a.m, a.r, delta_red, a.epsilon)
    hypotheses = {
        "flat family over a disc": "asserted",
        "section sigma(t) = (0,...,0,t) smooth": "asserted",
        "fibers smooth away from the section": "asserted",
        "total space reduced and equidimensional": "asserted",
        "generic-fiber invariants": "asserted (declared mode)",
        "component classes": "asserted (declared mode)",
        # as in _classify_parametrized
        "minimal primes of supplied decompositions are prime": "not applicable",
    }
    return _assemble(inv0, inv_t, (), b0, None, hypotheses)


def _assemble(inv0, inv_t, samples, b0, cm_list, hypotheses):
    """The report's fields of a family entry. cm_list holds the Cohen-Macaulay
    witness of each class-A component, or is None in declared mode, where the
    pullbacks are unknown."""
    mu_const = inv0.mu == inv_t.mu
    m_const = inv0.m == inv_t.m
    delta_const = inv0.delta == inv_t.delta
    r_const = inv0.r == inv_t.r

    # With a cm_list both sides of each check are computed, and a contradiction
    # is an internal error; in declared mode both are declared, and it is bad input.
    contradiction = HypothesisError if cm_list is None else InternalCheckError

    top_trivial = mu_const and b0 == 1
    route_dr = delta_const and r_const  # Theorem 4.3(2), equidimensionality asserted
    if route_dr != top_trivial:
        raise contradiction(
            f"topological-triviality criteria disagree: (delta, r) constancy gives "
            f"{route_dr}, (mu, connectivity) gives {top_trivial}"
        )

    whitney = mu_const and m_const
    if cm_list is not None:
        whitney_cm = top_trivial and all(w["is_cm"] for w in cm_list)
        if whitney != whitney_cm:
            raise InternalCheckError(
                f"Whitney routes disagree: (mu, m) constancy gives {whitney}, "
                f"Cohen-Macaulay route gives {whitney_cm}"
            )
    if m_const and b0 != 1:
        raise contradiction("constant multiplicity with a disconnected generic fiber")

    ssr = whitney
    justification = [
        (
            f"mu(X_t, sigma(t)) {'constant' if mu_const else 'not constant'} "
            f"({inv0.mu} at t=0, {inv_t.mu} generically)",
            "mu constancy",
            f"special mu={inv0.mu}, generic mu={inv_t.mu}",
        ),
        (
            f"m(X_t, sigma(t)) {'constant' if m_const else 'not constant'} "
            f"({inv0.m} at t=0, {inv_t.m} generically)",
            "multiplicity constancy",
            f"special m={inv0.m}, generic m={inv_t.m}",
        ),
        (
            f"generic fiber has {b0} connected component(s)",
            "connectivity via component classes",
            f"b0={b0}",
        ),
        (
            f"topologically trivial: {top_trivial} (mu constant and connected fiber); "
            f"cross-checked against delta/r constancy: {route_dr}",
            "topological triviality criterion",
            f"delta {inv0.delta}->{inv_t.delta}, r {inv0.r}->{inv_t.r}",
        ),
        (
            f"Whitney equisingular: {whitney} (mu and m constancy)",
            "Whitney criterion",
            f"mu_const={mu_const}, m_const={m_const}",
        ),
    ]
    if cm_list is not None:
        justification.append(
            (
                "Cohen-Macaulay route agrees: "
                + "; ".join(
                    f"component {w['label'] or '#'}: CM={w['is_cm']} "
                    f"(l={w['length']}, e={w['multiplicity']})"
                    for w in cm_list
                ),
                "CM characterization of Whitney equisingularity",
                f"{len(cm_list)} component(s)",
            )
        )
    else:
        justification.append(
            (
                "Cohen-Macaulay route not computable in declared mode; Whitney verdict "
                "rests on the (mu, m) constancy criterion alone",
                "CM characterization of Whitney equisingularity",
                "declared mode",
            )
        )
    justification.append(
        (
            f"strong simultaneous resolution: {ssr} (equivalent to Whitney equisingularity; "
            "the normalization restricted over the section is a product exactly when every "
            "pullback ring is Cohen-Macaulay)",
            "SSR equivalence",
            f"whitney={whitney}",
        )
    )
    if m_const:
        justification.append(
            (
                "constant multiplicity forces a connected generic fiber",
                "connectivity from multiplicity",
                f"b0={b0}",
            )
        )

    return {
        "special": {"invariants": inv0._asdict()},
        "generic": {"invariants": inv_t._asdict(), "t_samples": [str(t) for t in samples]},
        "verdict": {
            "topologically_trivial": top_trivial,
            "whitney": whitney,
            "strong_simultaneous_resolution": ssr,
            "cm_by_component": cm_list or [],
            "b0_generic_fiber": b0,
        },
        "constancy": {"mu": mu_const, "m": m_const, "delta": delta_const, "r": r_const},
        "hypotheses": hypotheses,
        "justification": [
            {"claim": claim, "rule": rule, "inputs": inputs} for claim, rule, inputs in justification
        ],
    }
