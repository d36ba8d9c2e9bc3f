"""Classification of one-parameter flat families of generically reduced curves:
topological triviality, Whitney equisingularity and strong simultaneous resolution.

The Whitney verdict is computed twice, through independent routes (constancy of
the Milnor number and multiplicity of the fibers, versus topological triviality
plus the Cohen-Macaulay property of each component's pullback ring), and the two
routes must agree; a disagreement is an internal error, never a silent choice.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .curveinv import (
    BranchParam,
    CurveInvariants,
    CurvePresentation,
    branch_multiplicity,
    invariants,
)
from .errors import ComputationError, HypothesisError, InternalCheckError
from .gb import Ideal
from .localdim import (
    PrimaryDecomposition,
    hs_multiplicity_of_param,
    is_cohen_macaulay,
    vdim,
)
from .localdim import _check_radical_is_axis
from .poly import Polynomial, VarSet

RING_UT = VarSet(("u", "t"))
RING_U = VarSet(("u",))


@dataclass(frozen=True)
class FamilyOptions:
    jet_order: int = 24
    degree_bound: int = 12
    n_max: int = 32
    seed: int = 0


class FamilyComponent:
    """One irreducible component of the family, given as N polynomials in (u, t);
    the surface is the image of (u, t) -> (n_1, ..., n_N, t)."""

    __slots__ = ("param", "label")

    def __init__(self, param, label=""):
        param = tuple(param)
        if not param or all(p.is_zero() for p in param):
            raise ComputationError("all-zero family component")
        for p in param:
            if p.ring != RING_UT:
                raise ComputationError("family components must live in the (u, t) ring")
            if p.constant_term() != 0:
                raise ComputationError("family component does not pass through the origin")
        self.param = param
        self.label = label

    def component_class(self) -> str:
        """'A' when the section {u = 0} lies in the component, 'B' when the
        component meets the section only at the origin."""
        u_idx = RING_UT.index["u"]
        for p in self.param:
            if any(m[u_idx] == 0 for m in p.terms):
                return "B"
        return "A"

    def u_exponent_gcd(self) -> int:
        u_idx = RING_UT.index["u"]
        g = 0
        for p in self.param:
            for m in p.terms:
                g = math.gcd(g, m[u_idx])
        return g

    def reparametrized(self, g: int) -> "FamilyComponent":
        """Substitute u -> u^(1/g); valid when every u-exponent is divisible by g."""
        if g <= 1:
            return self
        u_idx = RING_UT.index["u"]
        new_param = []
        for p in self.param:
            q = Polynomial(RING_UT)
            q.terms = {
                tuple(e // g if i == u_idx else e for i, e in enumerate(m)): c
                for m, c in p.terms.items()
            }
            new_param.append(q)
        return FamilyComponent(new_param, self.label)

    def specialize(self, t0) -> BranchParam:
        """The branch of the fiber at t = t0 contributed by this component."""
        t0 = Fraction(t0)
        comps = []
        for p in self.param:
            q = p.substitute({"t": Polynomial.const(RING_U, t0)}, RING_U)
            comps.append(q)
        if all(q.is_zero() for q in comps):
            raise ComputationError(
                f"component {self.label!r} specializes to the zero branch at t = {t0}"
            )
        return BranchParam(comps, label=self.label)

    def __repr__(self):
        return f"FamilyComponent({', '.join(p.render() for p in self.param)})"


@dataclass(frozen=True)
class GenericAssertions:
    """Declared invariants of the generic fiber, for families not given by a
    parametrization; every use is labeled 'asserted' in the report."""

    mu: int
    m: int
    r: int
    reduced: bool = True
    delta: int | None = None
    epsilon: int = 0


@dataclass
class FamilyPresentation:
    mode: str = "parametrized"  # or "declared"
    components: tuple = ()
    special_ideal: Ideal | None = None
    special_decomposition: PrimaryDecomposition | None = None
    declared_special: CurvePresentation | None = None
    declared_classes: tuple | None = None  # (#class A, #class B)
    generic_assertions: GenericAssertions | None = None

    def __post_init__(self):
        if self.mode == "parametrized":
            if not self.components:
                raise ComputationError("parametrized family needs at least one component")
        elif self.mode == "declared":
            if (
                self.declared_special is None
                or self.declared_classes is None
                or self.generic_assertions is None
            ):
                raise ComputationError(
                    "declared family needs special fiber, component classes and "
                    "generic-fiber assertions"
                )
        else:
            raise ComputationError(f"unknown family mode {self.mode!r}")


def pullback_ideal(c: FamilyComponent) -> Ideal:
    """The ideal generated by the coordinate polynomials of the parametrization,
    with the contracted-locus check sqrt(J) = <u>."""
    J = Ideal([p for p in c.param if not p.is_zero()], RING_UT)
    try:
        _check_radical_is_axis(J, "u")
    except ComputationError as exc:
        raise HypothesisError(
            f"component {c.label!r} violates the pullback radical condition: {exc}"
        ) from exc
    return J


def special_multiplicity(J: Ideal) -> int:
    """Length of the pullback ring cut by the parameter: the special-fiber
    multiplicity contribution of the component."""
    t = Polynomial.var(RING_UT, "t")
    l = vdim(Ideal(list(J.gens) + [t], RING_UT))
    return l.expect_finite("special multiplicity")


def generic_multiplicity(obj, n_max: int = 32) -> int:
    """Generic-fiber multiplicity at the section: the Hilbert-Samuel multiplicity
    of the parameter in a pullback ring, or, for a whole family, the sum of those
    over the components containing the section (the others miss it off t = 0)."""
    if isinstance(obj, Ideal):
        return hs_multiplicity_of_param(obj, n_max=n_max)
    total = 0
    for c in obj.components:
        if c.component_class() == "A":
            total += hs_multiplicity_of_param(pullback_ideal(c), n_max=n_max)
    return total


def connectivity(F: FamilyPresentation) -> int:
    """Number of connected components of the generic fiber: one for the class-A
    block (all containing the section) plus one per class-B component."""
    if F.mode == "declared":
        n_a, n_b = F.declared_classes
    else:
        classes = [c.component_class() for c in F.components]
        n_a = sum(1 for k in classes if k == "A")
        n_b = sum(1 for k in classes if k == "B")
    return (1 if n_a else 0) + n_b


def specialize_fiber(F: FamilyPresentation, t0) -> CurvePresentation:
    """The fiber germ at the section for parameter value t0; only class-A
    components pass through the section when t0 is nonzero."""
    if F.mode != "parametrized":
        raise ComputationError("specialization needs a parametrized family")
    t0 = Fraction(t0)
    if t0 == 0:
        comps = list(F.components)
        branches = [c.specialize(0) for c in comps]
        return CurvePresentation(
            branches, ideal=F.special_ideal, decomposition=F.special_decomposition
        )
    comps = [c for c in F.components if c.component_class() == "A"]
    if not comps:
        raise HypothesisError("no component contains the section: empty generic germ")
    return CurvePresentation([c.specialize(t0) for c in comps])


@dataclass(frozen=True)
class FiberInvariants:
    at: str  # "special" or "generic"
    inv: CurveInvariants
    t_samples_used: tuple = ()


@dataclass(frozen=True)
class Verdict:
    topologically_trivial: bool
    whitney: bool
    strong_simultaneous_resolution: bool
    cm_by_component: tuple  # (label, is_cm, length, multiplicity)
    b0_generic_fiber: int
    justification: tuple  # (claim, theorem tag, inputs)


@dataclass(frozen=True)
class FamilyReport:
    special: FiberInvariants
    generic: FiberInvariants | None
    verdict: Verdict
    hypotheses: dict
    constancy: dict


def _generic_samples(seed: int):
    rng = random.Random(seed)
    samples = []
    while len(samples) < 2:
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        if s != 0 and s not in samples:
            samples.append(s)
    return tuple(samples)


def _normalized_components(F: FamilyPresentation):
    """Reparametrize class-A components by the gcd of their u-exponents and reject
    families whose special fiber would be generically non-reduced."""
    out = []
    for c in F.components:
        cls = c.component_class()
        if cls == "A":
            g = c.u_exponent_gcd()
            c = c.reparametrized(g) if g > 1 else c
            b0 = c.specialize(0)
            if b0.exponent_gcd() > 1:
                raise HypothesisError(
                    f"component {c.label!r}: special fiber parametrization factors "
                    "through a power of u; the special fiber is not generically reduced"
                )
        out.append((c, cls))
    return out


def classify(F: FamilyPresentation, options: FamilyOptions = FamilyOptions()) -> FamilyReport:
    """Evaluate the three equisingularity verdicts with full justification."""
    if F.mode == "declared":
        return _classify_declared(F, options)
    return _classify_parametrized(F, options)


def _classify_parametrized(F, options):
    comps = _normalized_components(F)
    if not any(cls == "A" for _, cls in comps):
        raise HypothesisError("no component contains the section: family outside scope")
    norm = FamilyPresentation(
        mode="parametrized",
        components=tuple(c for c, _ in comps),
        special_ideal=F.special_ideal,
        special_decomposition=F.special_decomposition,
        generic_assertions=F.generic_assertions,
    )

    # Lemma 5.3 pipeline on each component through the section.
    cm_list = []
    sum_l = 0
    sum_e = 0
    for c, cls in comps:
        if cls != "A":
            continue
        J = pullback_ideal(c)
        witness = is_cohen_macaulay(J, n_max=options.n_max)
        l_direct = special_multiplicity(J)
        if l_direct != witness.length:
            raise InternalCheckError("special multiplicity disagrees with the CM witness length")
        b_special = c.specialize(0)
        if branch_multiplicity(b_special) != witness.length:
            raise InternalCheckError(
                "branch order of the specialized parametrization disagrees with the "
                f"pullback length ({branch_multiplicity(b_special)} vs {witness.length})"
            )
        cm_list.append((c.label, witness.is_cm, witness.length, witness.multiplicity))
        sum_l += witness.length
        sum_e += witness.multiplicity

    # Fiber invariants.
    C0 = specialize_fiber(norm, 0)
    inv0 = invariants(C0, options.jet_order, options.degree_bound)

    samples = _generic_samples(options.seed)
    assertions = F.generic_assertions
    if assertions is not None and not assertions.reduced:
        eps_gen = assertions.epsilon
    else:
        eps_gen = 0
    gen_invs = []
    for s in samples:
        Ct = specialize_fiber(norm, s)
        raw = invariants(Ct, options.jet_order, options.degree_bound)
        adjusted = CurveInvariants(
            m=raw.m,
            r=raw.r,
            delta_red=raw.delta_red,
            epsilon=eps_gen,
            delta=raw.delta_red - eps_gen,
            mu_red=raw.mu_red,
            mu=raw.mu_red - 2 * eps_gen,
        )
        gen_invs.append(adjusted)
    if gen_invs[0] != gen_invs[1]:
        raise ComputationError(
            f"generic-fiber invariants disagree between samples {samples}: "
            f"{gen_invs[0]} vs {gen_invs[1]}"
        )
    inv_t = gen_invs[0]
    if inv_t.m != sum_e:
        raise InternalCheckError(
            f"generic multiplicity from branch orders ({inv_t.m}) disagrees with the "
            f"sum of Hilbert-Samuel multiplicities ({sum_e})"
        )
    if inv0.m != sum_l + sum(
        branch_multiplicity(c.specialize(0)) for c, cls in comps if cls == "B"
    ):
        raise InternalCheckError("special multiplicity additivity check failed")

    b0 = connectivity(norm)
    hypotheses = {
        "flat family over a disc": "asserted",
        "section sigma(t) = (0,...,0,t) smooth": "verified (normal form)",
        "fibers smooth away from the section": "asserted",
        "total space reduced and equidimensional": "asserted",
        "sqrt(pullback) = <u> on every class-A component": "verified",
        "special fiber generically reduced": "verified (exponent gcd)",
        "minimal primes of supplied decompositions are prime": (
            "asserted" if F.special_decomposition is not None else "not applicable"
        ),
    }
    return _assemble(inv0, inv_t, samples, b0, cm_list, hypotheses, cm_computed=True)


def _classify_declared(F, options):
    inv0 = invariants(F.declared_special, options.jet_order, options.degree_bound)
    a = F.generic_assertions
    if a.delta is not None:
        delta_t = a.delta
        if a.mu != 2 * delta_t - a.r + 1:
            raise HypothesisError(
                "declared generic invariants are inconsistent: "
                f"mu={a.mu} but 2*delta - r + 1 = {2 * delta_t - a.r + 1}"
            )
    else:
        if (a.mu + a.r - 1) % 2:
            raise HypothesisError(
                f"declared generic invariants are inconsistent: mu + r - 1 = "
                f"{a.mu + a.r - 1} is odd"
            )
        delta_t = (a.mu + a.r - 1) // 2
    inv_t = CurveInvariants(
        m=a.m,
        r=a.r,
        delta_red=delta_t + a.epsilon,
        epsilon=a.epsilon,
        delta=delta_t,
        mu_red=a.mu + 2 * a.epsilon,
        mu=a.mu,
    )
    b0 = connectivity(F)
    hypotheses = {
        "flat family over a disc": "asserted",
        "section sigma(t) = (0,...,0,t) smooth": "asserted",
        "fibers smooth away from the section": "asserted",
        "total space reduced and equidimensional": "asserted",
        "generic-fiber invariants": "asserted (declared mode)",
        "component classes": "asserted (declared mode)",
        "minimal primes of supplied decompositions are prime": (
            "asserted" if F.declared_special.decomposition is not None else "not applicable"
        ),
    }
    return _assemble(inv0, inv_t, (), b0, [], hypotheses, cm_computed=False)


def _assemble(inv0, inv_t, samples, b0, cm_list, hypotheses, cm_computed):
    mu_const = inv0.mu == inv_t.mu
    m_const = inv0.m == inv_t.m
    delta_const = inv0.delta == inv_t.delta
    r_const = inv0.r == inv_t.r

    top_trivial = mu_const and b0 == 1
    route_dr = delta_const and r_const  # Theorem 4.3(2), equidimensionality asserted
    if route_dr != top_trivial:
        raise InternalCheckError(
            f"topological-triviality criteria disagree: (delta, r) constancy gives "
            f"{route_dr}, (mu, connectivity) gives {top_trivial}"
        )

    whitney = mu_const and m_const
    if cm_computed:
        whitney_cm = top_trivial and all(is_cm for _, is_cm, _, _ in cm_list)
        if whitney != whitney_cm:
            raise InternalCheckError(
                f"Whitney routes disagree: (mu, m) constancy gives {whitney}, "
                f"Cohen-Macaulay route gives {whitney_cm}"
            )
    if m_const and b0 != 1:
        raise InternalCheckError("constant multiplicity with a disconnected generic fiber")

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
    if cm_computed:
        justification.append(
            (
                "Cohen-Macaulay route agrees: "
                + "; ".join(
                    f"component {lbl or '#'}: CM={cm} (l={l}, e={e})"
                    for lbl, cm, l, e in cm_list
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

    verdict = Verdict(
        topologically_trivial=top_trivial,
        whitney=whitney,
        strong_simultaneous_resolution=ssr,
        cm_by_component=tuple(cm_list),
        b0_generic_fiber=b0,
        justification=tuple(justification),
    )
    constancy = {
        "mu": mu_const,
        "m": m_const,
        "delta": delta_const,
        "r": r_const,
    }
    return FamilyReport(
        special=FiberInvariants("special", inv0),
        generic=FiberInvariants("generic", inv_t, samples),
        verdict=verdict,
        hypotheses=hypotheses,
        constancy=constancy,
    )
