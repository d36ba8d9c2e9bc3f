"""Invariants of a curve germ from branch parametrizations: multiplicity, branch
count, the delta invariant via jet-space linear algebra, and Milnor numbers.

The delta computation embeds the coordinate ring into the product of truncated
power series rings of the branches and measures the codimension of the span of
monomial jets; a conductor certificate plus stabilization across escalations
turns the limit into a finite exact computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ComputationError, InternalCheckError
from .gb import Ideal
from .linalg import RowSpace
from .localdim import PrimaryDecomposition, epsilon_from_decomposition
from .poly import Polynomial

JET_ORDER_CAP = 64
DEGREE_BOUND_CAP = 32


def _u_coeffs(p: Polynomial, length: int):
    """Coefficient list [c_0, ..., c_{length-1}] of a univariate polynomial in u."""
    out = [Fraction(0)] * length
    for m, c in p.terms.items():
        e = sum(m)
        if e < length:
            out[e] = c
    return out


class BranchParam:
    """One branch of a curve germ: a tuple of polynomials in u vanishing at u = 0."""

    __slots__ = ("components", "label")

    def __init__(self, components, label=""):
        components = tuple(components)
        if not components:
            raise ValueError("branch needs at least one component")
        if all(c.is_zero() for c in components):
            raise ComputationError("all-zero branch")
        for c in components:
            if c.constant_term() != 0:
                raise ComputationError("branch does not pass through the origin")
        self.components = components
        self.label = label

    @property
    def ambient_dim(self):
        return len(self.components)

    def u_order(self) -> int:
        """Minimum over components of the lowest u-exponent with nonzero coefficient."""
        return min(c.min_degree() for c in self.components if not c.is_zero())

    def exponent_gcd(self) -> int:
        """gcd of every u-exponent appearing in any component; >1 means the
        parametrization factors through a power of u and is not a normalization."""
        g = 0
        for c in self.components:
            for m in c.terms:
                g = math.gcd(g, sum(m))
        return g

    def monomial_exponents(self):
        """Exponent set when every component is a single monomial; None otherwise."""
        exps = set()
        for c in self.components:
            if c.is_zero():
                continue
            if not c.is_monomial():
                return None
            exps.add(c.min_degree())
        return exps

    def __repr__(self):
        body = ", ".join(c.render() for c in self.components)
        return f"BranchParam({body})"


def branch_multiplicity(b: BranchParam) -> int:
    """Multiplicity of the branch germ: its u-order."""
    return b.u_order()


@dataclass
class CurvePresentation:
    """A curve germ: branches of the reduced structure plus optional embedded data."""

    branches: list
    ideal: Ideal | None = None
    decomposition: PrimaryDecomposition | None = None

    def __post_init__(self):
        if not self.branches:
            raise ValueError("curve needs at least one branch")
        dims = {b.ambient_dim for b in self.branches}
        if len(dims) != 1:
            raise ComputationError("branches with mismatched ambient dimensions")


def curve_multiplicity(C: CurvePresentation) -> int:
    """Multiplicity of the germ; computed on the reduced structure as the sum of
    branch multiplicities (multiplicity is insensitive to the embedded component)."""
    return sum(branch_multiplicity(b) for b in C.branches)


def semigroup_delta_oracle(b: BranchParam) -> int:
    """Gap count of the numerical semigroup generated by the exponents of a
    monomial branch; an independent oracle for the delta invariant."""
    exps = b.monomial_exponents()
    if exps is None:
        raise ComputationError("oracle needs a branch with single-monomial components")
    exps = sorted(exps)
    g = 0
    for e in exps:
        g = math.gcd(g, e)
    if g != 1:
        raise ComputationError(f"exponent gcd {g} > 1: branch is not a normalization")
    smallest = exps[0]
    if smallest == 1:
        return 0
    limit = max(exps) * smallest + 1
    while True:
        reachable = [False] * limit
        reachable[0] = True
        for n in range(1, limit):
            reachable[n] = any(n >= e and reachable[n - e] for e in exps)
        run = 0
        for n in range(limit - 1, 0, -1):
            if reachable[n]:
                run += 1
                if run >= smallest:
                    return sum(1 for n in range(1, limit) if not reachable[n])
            else:
                break
        limit *= 2


def _branch_jets(branches, jet_order):
    """Truncated coefficient lists of every coordinate on every branch."""
    return [
        [_u_coeffs(c, jet_order) for c in b.components]
        for b in branches
    ]


def _series_mul(a, b, length):
    out = [Fraction(0)] * length
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if i + j >= length:
                break
            if y:
                out[i + j] += x * y
    return out


def _compositions(total, nparts):
    """All tuples of nparts non-negative integers summing to total."""
    if nparts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, nparts - 1):
            yield (first,) + rest


def _monomials_on_supports(nvars, supports, lo, hi):
    """Exponent tuples with lo <= total degree <= hi supported inside one of the
    given coordinate subsets; monomials supported elsewhere vanish on every branch.
    Graded, deterministic."""
    for d in range(lo, hi + 1):
        level = set()
        for supp in supports:
            if not supp:
                continue
            positions = sorted(supp)
            for comp in _compositions(d, len(positions)):
                mono = [0] * nvars
                for pos, e in zip(positions, comp):
                    mono[pos] = e
                level.add(tuple(mono))
        yield from sorted(level)


class _JetSpan:
    """Span of monomial jets inside the direct sum of truncated series rings;
    extendable by monomial degree at a fixed jet order."""

    def __init__(self, branches, jet_order):
        self.r = len(branches)
        self.jet_order = jet_order
        self.nvars = branches[0].ambient_dim
        self.jets = _branch_jets(branches, jet_order)
        self.space = RowSpace()
        self.max_degree = 0
        self._power_cache = [dict() for _ in range(self.r)]
        self._supports = {
            frozenset(k for k in range(self.nvars) if any(self.jets[bi][k]))
            for bi in range(self.r)
        }
        # Degree zero: the constants embed diagonally.
        self.space.add({i * jet_order: Fraction(1) for i in range(self.r)})

    def _coord_power(self, bi, k, e):
        cache = self._power_cache[bi]
        key = (k, e)
        if key not in cache:
            if e == 1:
                cache[key] = self.jets[bi][k]
            else:
                cache[key] = _series_mul(
                    self._coord_power(bi, k, e - 1), self.jets[bi][k], self.jet_order
                )
        return cache[key]

    def extend_to_degree(self, degree_bound):
        """Add the jets of all coordinate monomials up to the given total degree."""
        if degree_bound <= self.max_degree:
            return
        full_rank = self.r * self.jet_order
        for mono in _monomials_on_supports(
            self.nvars, self._supports, self.max_degree + 1, degree_bound
        ):
            if self.space.rank == full_rank:
                break
            vec = {}
            for bi in range(self.r):
                series = None
                for k, e in enumerate(mono):
                    if e == 0:
                        continue
                    part = self._coord_power(bi, k, e)
                    if not any(part):
                        series = None
                        break
                    series = part if series is None else _series_mul(series, part, self.jet_order)
                    if not any(series):
                        series = None
                        break
                if series is not None:
                    for j, c in enumerate(series):
                        if c:
                            vec[bi * self.jet_order + j] = c
            if vec:
                self.space.add(vec)
        self.max_degree = degree_bound

    @property
    def codim(self):
        return self.r * self.jet_order - self.space.rank

    def has_unit_jet(self, branch_index, exponent):
        return self.space.contains({branch_index * self.jet_order + exponent: Fraction(1)})


def _check_branches_distinct(branches, jet_order):
    seen = {}
    for i, b in enumerate(branches):
        key = tuple(tuple(_u_coeffs(c, jet_order)) for c in b.components)
        if key in seen:
            raise ComputationError(
                f"indistinguishable branches up to jet order {jet_order} "
                f"(branches {seen[key]} and {i})"
            )
        seen[key] = i


def delta_reduced(branches, jet_order: int = 24, degree_bound: int = 12) -> int:
    """Delta invariant of the reduced curve with the given branches.

    Escalates jet order and monomial degree bound until the candidate value is
    stable across two escalations and every high-order jet beyond the conductor
    bound (2*delta + 1) lies in the span; errors past the caps.
    """
    branches = list(branches)
    if jet_order < 1 or degree_bound < 1:
        raise ValueError("jet_order and degree_bound must be >= 1")
    for b in branches:
        g = b.exponent_gcd()
        if g > 1:
            raise ComputationError(
                f"branch exponent gcd {g} > 1: parametrization is not a normalization"
            )
    J = jet_order
    last_candidates = []
    while True:
        _check_branches_distinct(branches, J)
        span = _JetSpan(branches, J)
        span.extend_to_degree(degree_bound)
        cand = span.codim
        # Escalate the degree bound at fixed jet order until the candidate is
        # stable across two escalations.
        stable = 0
        D = degree_bound
        while stable < 2 and D < DEGREE_BOUND_CAP:
            D = min(D + 4, DEGREE_BOUND_CAP)
            span.extend_to_degree(D)
            if span.codim == cand:
                stable += 1
            else:
                cand = span.codim
                stable = 0
        last_candidates.append(cand)
        c = 2 * cand + 1
        if (
            stable >= 2
            and c < J
            and all(
                span.has_unit_jet(i, j)
                for i in range(len(branches))
                for j in range(c, J)
            )
        ):
            return cand
        if J >= JET_ORDER_CAP:
            raise ComputationError(
                f"delta did not stabilize within caps (candidates {last_candidates})"
            )
        J = min(J + 8, JET_ORDER_CAP)


@dataclass(frozen=True)
class CurveInvariants:
    """The full invariant record of a generically reduced curve germ."""

    m: int
    r: int
    delta_red: int
    epsilon: int
    delta: int
    mu_red: int
    mu: int

    def __post_init__(self):
        if self.mu_red != 2 * self.delta_red - self.r + 1:
            raise InternalCheckError("mu_red identity violated")
        if self.delta != self.delta_red - self.epsilon:
            raise InternalCheckError("delta identity violated")
        if self.mu != self.mu_red - 2 * self.epsilon:
            raise InternalCheckError("mu identity violated")
        if min(self.m, self.r, self.delta_red, self.epsilon, self.mu_red) < 0:
            raise InternalCheckError("negative invariant")


def invariants(
    C: CurvePresentation, jet_order: int = 24, degree_bound: int = 12
) -> CurveInvariants:
    """All invariants of the germ; epsilon comes from the supplied decomposition
    (zero when the curve is reduced, i.e. no embedded component declared)."""
    m = curve_multiplicity(C)
    r = len(C.branches)
    d_red = delta_reduced(C.branches, jet_order, degree_bound)
    if C.decomposition is not None:
        if C.ideal is None:
            raise ComputationError("decomposition supplied without the decomposed ideal")
        eps = epsilon_from_decomposition(C.ideal, C.decomposition)
    else:
        eps = 0
    mu_red = 2 * d_red - r + 1
    return CurveInvariants(
        m=m,
        r=r,
        delta_red=d_red,
        epsilon=eps,
        delta=d_red - eps,
        mu_red=mu_red,
        mu=mu_red - 2 * eps,
    )
