"""Length counting for local quotient rings, the epsilon invariant from a primary
decomposition, and the Cohen-Macaulay test for the one-dimensional rings produced
by family pullbacks.

The multiplicity of the parameter t in such a ring Q[u, t]_(u,t)/J, with
sqrt(J) = <u>, is exact: by the associativity formula it is the least u-exponent
e over the generators of J (``param_multiplicity``). The Cohen-Macaulay test
compares it with the length of J + <t> and cross-checks that against
unmixedness, u^e in J, read from the scan that verifies sqrt(J) = <u>
(arguments in ``is_cohen_macaulay`` and ``_check_radical_is_axis``). The
Hilbert-Samuel ladder ``hs_multiplicity_of_param`` computes the multiplicity
from the lengths of J + <t^n>; it is kept as the tests' oracle and is on no
production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import ComputationError, HypothesisError, InternalCheckError
from .gb import Ideal, ideal_equal, ideal_intersect, ideal_sum, std_basis
from .poly import DEGREVLEX, NEGDEGREVLEX, Polynomial


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

    Finite iff every variable has a pure power among the leads; counted by
    ``_count_below``.
    """
    for i in range(nvars):
        if not any(all(e == 0 for j, e in enumerate(m) if j != i) for m in leads):
            return INFINITE
    return LengthValue(_count_below(leads, nvars))


def _count_below(leads, nvars) -> int:
    """Count of the monomials in nvars variables divisible by none of the leads,
    every variable having a pure power among them.

    A monomial x_1^e * m lies outside the staircase iff m lies outside that of
    the leads with first exponent at most e, with that exponent dropped. This
    set of leads only changes at the first exponents of the leads, and the
    slices stop at the least pure power of x_1, so each run of equal sets is
    counted once, times its length.
    """
    if nvars == 0:
        return 0 if leads else 1
    bound = min(m[0] for m in leads if not any(m[1:]))
    cuts = sorted({0} | {m[0] for m in leads if m[0] < bound})
    total = 0
    for lo, hi in zip(cuts, cuts[1:] + [bound]):
        total += (hi - lo) * _count_below([m[1:] for m in leads if m[0] <= lo], nvars - 1)
    return total


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


def _axis_order(J: Ideal, axis_var: str) -> int:
    """The least axis_var-exponent over the terms of the generators of J."""
    idx = J.ring.index[axis_var]
    return min(m[idx] for g in J.gens for m in g.terms)


def _check_radical_is_axis(J: Ideal, axis_var: str) -> int:
    """Verify sqrt(J) = <axis_var> locally and return the least k with
    axis_var^k in J; raises HypothesisError when the radical is another ideal.

    The ring of J has two variables (every caller's is (u, t)), so the local
    ring O is a two-dimensional regular local ring, a UFD. Write u = axis_var
    and e for its least exponent over the generators, so that J = u^e * I, with
    I generated by the generators divided by u^e, and some generator of I not
    divisible by u. O is a domain, so u^k lies in J iff k >= e and u^(k-e) lies
    in I; the scan starts at k = e. The radical needs e >= 1, and then it is
    <u> iff I has a finite colength d:

    - if it has, the d + 1 classes of 1, u, ..., u^d modulo I are dependent, and
      a dependence is u^j times a unit, so u^j lies in I for some j <= d;
    - if it has not, a minimal prime of I has height one and is not (u), as I
      is not in (u); it is principal, so it contains no power of u, and
      neither do I and J.

    So the scan over j = 0, ..., d is exact and ends with a hit.
    """
    idx = J.ring.index[axis_var]
    e = _axis_order(J, axis_var)
    if e == 0:
        g = next(g for g in J.gens if any(m[idx] == 0 for m in g.terms))
        raise HypothesisError(
            f"radical check failed: generator {g.render()!r} not divisible by {axis_var}"
        )
    I = []
    for g in J.gens:
        terms = {m[:idx] + (m[idx] - e,) + m[idx + 1:]: c for m, c in g.terms.items()}
        I.append(Polynomial(J.ring, terms))
    B = std_basis(Ideal(I, J.ring), NEGDEGREVLEX)
    d = _staircase_count(B.lead_monomials, len(J.ring))
    if not d.finite:
        raise HypothesisError(f"radical check failed: no power of {axis_var} lies in the ideal")
    for j in range(d.value + 1):
        if B.contains(Polynomial.var(J.ring, axis_var, j)):
            return e + j
    raise InternalCheckError(f"no power of {axis_var} up to the colength {d.value} lies in the ideal")


def hs_multiplicity_of_param(
    J: Ideal, param: str = "t", axis_var: str = "u", n_max: int = 32
) -> int:
    """Hilbert-Samuel multiplicity of the parameter in the quotient by J, via the
    stabilized first difference of n -> vdim(J + <param^n>).

    The tests' oracle for ``param_multiplicity``; no production path calls it.
    It stops at the first three equal differences, which is not a proof of
    stability: the differences fall to e and stay there once param^(n-1) kills
    the finite-length part of the ring, and before that they can repeat. Known
    failure: for J = <u^3 + t^2*u^2, u^7, t^2*u^4> the lengths are 3, 6, ..., 18,
    20, 22, ..., so the differences read 3 five times before settling at 2, and
    the ladder returns 3. Compare against a late difference instead.
    """
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


def _require_axis_param_ring(J: Ideal, param: str, axis_var: str) -> None:
    if J.ring.names != (axis_var, param):
        raise ComputationError(
            f"multiplicity of {param} needs the ring ({axis_var}, {param}), got {J.ring!r}"
        )


def param_multiplicity(J: Ideal, param: str = "t", axis_var: str = "u") -> int:
    """Multiplicity of the parameter in the quotient by J, exactly: the least
    axis_var-exponent over the generators of J (argument in ``is_cohen_macaulay``).

    The ring must be exactly (axis_var, param); sqrt(J) = <axis_var> is verified
    first.
    """
    _require_axis_param_ring(J, param, axis_var)
    _check_radical_is_axis(J, axis_var)
    return _axis_order(J, axis_var)


@dataclass(frozen=True)
class CMWitness:
    """Outcome of the Cohen-Macaulay test with both compared numbers recorded."""

    is_cm: bool
    length: int
    multiplicity: int


def is_cohen_macaulay(J: Ideal, param: str = "t", axis_var: str = "u") -> CMWitness:
    """Whether the quotient by J is Cohen-Macaulay, decided by length == multiplicity
    and cross-checked against unmixedness, u^e in J.

    Write u = axis_var, t = param and O = Q[u, t] localized at the origin; the
    ring of J must be exactly (u, t). The length is l = vdim(J + <t>). The
    multiplicity e = e(t; O/J) is exact (``param_multiplicity``), by the
    associativity formula (Matsumura, Commutative Ring Theory, section 14):

    - sqrt(J) = <u> is verified first (``_check_radical_is_axis``, which also
      gives the least k with u^k in J), so (u) is the only minimal prime of O/J
      and e(t; O/J) = length(O_(u)/J O_(u)) * e(t; O/(u));
    - O/(u) = Q[t]_(t), so the second factor is 1;
    - O_(u) is a discrete valuation ring with uniformizer u and residue field
      Q(t). A generator u^a * (h(t) + u * ...) with h nonzero is u^a times a
      unit, so J O_(u) = (u^e) with e the least u-exponent over the generators
      of J, and the multiplicity is e.

    O/J is one-dimensional, so it is Cohen-Macaulay iff t is a nonzerodivisor,
    iff l = e. It is also Cohen-Macaulay iff J is unmixed (no embedded
    component), and that is read from k:

    - O is a UFD and O_(u) is a DVR, so the (u)-primary component of J is
      J O_(u) meet O = (u^e);
    - so J is unmixed iff J = (u^e), iff u^e lies in J (J lies in (u^e)
      anyway), iff k = e.

    The two routes use different standard bases and must agree.
    """
    _require_axis_param_ring(J, param, axis_var)
    k = _check_radical_is_axis(J, axis_var)
    e = _axis_order(J, axis_var)
    ring = J.ring
    t = Polynomial.var(ring, param)
    l = vdim(ideal_sum(J, Ideal([t], ring))).expect_finite("special-fiber length")
    by_length = l == e
    by_unmixed = k == e
    if by_length != by_unmixed:
        raise InternalCheckError(
            f"Cohen-Macaulay tests disagree: length test {by_length} "
            f"(l={l}, e={e}), unmixedness test {by_unmixed} (k={k})"
        )
    return CMWitness(by_length, l, e)
