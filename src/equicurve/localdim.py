"""Length counting for local quotient rings, the epsilon invariant from a primary
decomposition, Hilbert-Samuel multiplicity of a parameter, and the Cohen-Macaulay
test for the one-dimensional rings produced by family pullbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import ComputationError, InternalCheckError
from .gb import Ideal, ideal_equal, ideal_intersect, ideal_quotient, ideal_sum, std_basis
from .poly import DEGREVLEX, NEGDEGREVLEX, Polynomial, mon_divides


@dataclass(frozen=True)
class LengthValue:
    """A vector-space dimension over the rationals; None encodes infinity."""

    value: int | None

    @property
    def finite(self) -> bool:
        return self.value is not None

    def expect_finite(self, what: str) -> int:
        if self.value is None:
            raise ComputationError(f"{what} is infinite")
        return self.value

    def __repr__(self):
        return "LengthValue(inf)" if self.value is None else f"LengthValue({self.value})"


INFINITE = LengthValue(None)


def _staircase_count(leads, nvars) -> LengthValue:
    """Number of monomials outside the staircase of the given lead monomials.

    Finite iff every variable has a pure power among the leads; counted by direct
    enumeration of the bounding box.
    """
    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in leads if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            return INFINITE
        bounds.append(min(pure))

    count = 0
    stack = [(0, ())]
    while stack:
        i, prefix = stack.pop()
        if i == nvars:
            if not any(mon_divides(l, prefix) for l in leads):
                count += 1
            continue
        for e in range(bounds[i]):
            stack.append((i + 1, prefix + (e,)))
    return LengthValue(count)


def vdim(I: Ideal) -> LengthValue:
    """Dimension over the rationals of the local quotient ring at the origin.

    Computed as the count of standard monomials of the lead ideal under the local
    order; infinite when the ideal is not primary to the maximal ideal.
    """
    B = std_basis(I, NEGDEGREVLEX)
    return _staircase_count(B.lead_monomials, len(I.ring))


class PrimaryDecomposition:
    """Minimal primes plus an optional m-primary embedded component, verified against
    the decomposed ideal on construction.

    Primality of the primes is not verified; it is a recorded trust assumption.
    """

    __slots__ = ("primes", "embedded", "_intersection")

    def __init__(self, primes, embedded=None):
        if not primes:
            raise ValueError("a decomposition needs at least one minimal prime")
        self.primes = tuple(primes)
        self.embedded = embedded
        self._intersection = None

    @classmethod
    def verified(cls, I: Ideal, primes, embedded=None) -> "PrimaryDecomposition":
        d = cls(primes, embedded)
        d.verify_against(I)
        return d

    def intersection(self) -> Ideal:
        """The intersection of the primes, computed on the first call and kept."""
        if self._intersection is None:
            self._intersection = reduce(ideal_intersect, self.primes)
        return self._intersection

    def verify_against(self, I: Ideal) -> None:
        for P in self.primes:
            B = std_basis(P, DEGREVLEX)
            if not all(B.contains(g) for g in I.gens):
                raise ComputationError("decomposition rejected: ideal not contained in a listed prime")
        parts = self.intersection()
        if self.embedded is not None:
            BQ = std_basis(self.embedded, DEGREVLEX)
            if not all(BQ.contains(g) for g in I.gens):
                raise ComputationError("decomposition rejected: ideal not contained in the embedded component")
            if not vdim(self.embedded).finite:
                raise ComputationError("decomposition rejected: embedded component is not m-primary")
            parts = ideal_intersect(parts, self.embedded)
        if not ideal_equal(parts, I, DEGREVLEX):
            raise ComputationError("decomposition rejected: components do not intersect to the ideal")


def epsilon_from_decomposition(I: Ideal, D: PrimaryDecomposition) -> int:
    """Dimension of the nilradical of the quotient ring, from a verified decomposition:
    vdim of the embedded component minus vdim of (intersection of primes) + it."""
    if D.embedded is None:
        return 0
    q = vdim(D.embedded).expect_finite("embedded-component length")
    s = vdim(ideal_sum(D.intersection(), D.embedded)).expect_finite(
        "reduced-plus-embedded length"
    )
    eps = q - s
    if eps < 0:
        raise InternalCheckError("negative epsilon from a verified decomposition")
    return eps


def _check_radical_is_axis(J: Ideal, axis_var: str, power_cap: int = 64) -> int:
    """Verify sqrt(J) = <axis_var> locally: every generator divisible by the axis
    variable and some pure power of it in J. Returns the witnessing power."""
    ring = J.ring
    idx = ring.index[axis_var]
    for g in J.gens:
        if any(m[idx] == 0 for m in g.terms):
            raise ComputationError(
                f"radical check failed: generator {g.render()!r} not divisible by {axis_var}"
            )
    B = std_basis(J, NEGDEGREVLEX)
    for k in range(1, power_cap + 1):
        if B.contains(Polynomial.var(ring, axis_var, k)):
            return k
    raise ComputationError(
        f"radical check failed: no power of {axis_var} up to {power_cap} lies in the ideal"
    )


def hs_multiplicity_of_param(
    J: Ideal, param: str = "t", axis_var: str = "u", n_max: int = 32
) -> int:
    """Hilbert-Samuel multiplicity of the parameter in the quotient by J, via the
    stabilized first difference of n -> vdim(J + <param^n>)."""
    _check_radical_is_axis(J, axis_var)
    ring = J.ring
    lengths = []
    diffs = []
    for n in range(1, n_max + 1):
        tn = Polynomial.var(ring, param, n)
        l = vdim(ideal_sum(J, Ideal([tn], ring)))
        if not l.finite:
            raise ComputationError("length not finite: parameter power does not cut to dimension zero")
        lengths.append(l.value)
        if len(lengths) >= 2:
            diffs.append(lengths[-1] - lengths[-2])
        if len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]:
            return diffs[-1]
    raise ComputationError(f"multiplicity differences did not stabilize within n = {n_max}")


@dataclass(frozen=True)
class CMWitness:
    """Outcome of the Cohen-Macaulay test with both compared numbers recorded."""

    is_cm: bool
    length: int
    multiplicity: int


def is_cohen_macaulay(
    J: Ideal, param: str = "t", axis_var: str = "u", n_max: int = 32
) -> CMWitness:
    """Whether the quotient by J is Cohen-Macaulay, decided by length == multiplicity
    and cross-checked against the nonzerodivisor test (J : param) = J."""
    ring = J.ring
    t = Polynomial.var(ring, param)
    l = vdim(ideal_sum(J, Ideal([t], ring))).expect_finite("special-fiber length")
    e = hs_multiplicity_of_param(J, param=param, axis_var=axis_var, n_max=n_max)
    by_length = l == e
    by_quotient = ideal_equal(ideal_quotient(J, t), J, NEGDEGREVLEX)
    if by_length != by_quotient:
        raise InternalCheckError(
            f"Cohen-Macaulay tests disagree: length test {by_length} "
            f"(l={l}, e={e}), nonzerodivisor test {by_quotient}"
        )
    return CMWitness(by_length, l, e)
