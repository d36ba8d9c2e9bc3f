"""Length counting for local quotient rings, the epsilon invariant of a curve
from its ideal and its branches (``epsilon``, lengths read off one standard
basis and certified by Nakayama's lemma), and the Cohen-Macaulay test for the
one-dimensional rings produced by family pullbacks.

For such a ring Q[u, t]_(u,t)/J the whole Cohen-Macaulay witness is read off
the generators of J, with no standard basis. sqrt(J) = <u> is verified by
divisibility by u and one polynomial gcd (``_verify_radical_is_axis``). The
multiplicity of t is the least u-exponent e over the generators, by the
associativity formula. The length of J + <t> is the least order in u of the
generators at t = 0, and the ring is Cohen-Macaulay iff the two are equal
(``is_cohen_macaulay`` returns both, with the arguments). The ring is always
(u, t), and it is checked, not passed. The Hilbert-Samuel multiplicity
``hs_multiplicity_of_param``, read exactly off one standard basis, and the
verified ``PrimaryDecomposition`` with ``epsilon_from_decomposition`` are the
tests' oracles, on no production path.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import reduce

from .curveinv import orders_on
from .errors import ComputationError, HypothesisError, InternalCheckError
from .gcd import recursive_form, recursive_gcd
from .poly import DEGREVLEX, LAST_FIRST, NEGDEGREVLEX, Ideal, Polynomial, _add_terms, _mul_terms, _power_terms, integral

# gb is imported by the functions that build a standard basis, an ideal sum or an
# intersection, so the Cohen-Macaulay witness of a parametrized family never loads it.


def _staircase_count(leads, nvars) -> int | None:
    """Number of monomials outside the staircase of the given lead monomials.

    Finite iff every variable has a pure power among the leads; counted by
    ``_count_below``. None stands for infinity.
    """
    for i in range(nvars):
        if not any(all(e == 0 for j, e in enumerate(m) if j != i) for m in leads):
            return None
    return _count_below(leads, nvars)


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


def vdim(I: Ideal) -> int | None:
    """Dimension over the rationals of the local quotient ring at the origin: the
    count of monomials outside the leads of a standard basis under the local
    order; None, for infinite, when the ideal is not primary to the maximal ideal."""
    from .gb import std_basis

    B = std_basis(I, NEGDEGREVLEX)
    return _staircase_count(B.lead_monomials, len(I.ring))


def _rungs(I: Ideal):
    """(K, [D(K), D(K + 1)]) for the ideal I of Q[x_1, ..., x_n]: D(N) is the
    length of the local ring of I + <x_n^N> at the origin (None for infinite),
    and K = 1 + the largest x_n-exponent of a lead of I under ``LAST_FIRST``.

    Under ``LAST_FIRST`` the lead of g has the least x_n-exponent a of its
    terms, so the S-pair of g and x_n^N is x_n^N times a polynomial (g itself
    if N <= a), and with x_n^N added a standard basis of I is one of
    I + <x_n^N> (Greuel-Pfister, A Singular Introduction to Commutative
    Algebra, 1.7): its leads give every D(N) by a count (``_staircase_count``).
    A monomial of x_n-exponent K - 1 or more lies outside the leads iff its
    part free of x_n does, so the rungs rise by one constant from K - 1 on.
    """
    from .gb import std_basis

    n = len(I.ring)
    leads = std_basis(I, LAST_FIRST).lead_monomials
    K = 1 + max(m[-1] for m in leads)
    return K, [_staircase_count([*leads, (0,) * (n - 1) + (N,)], n) for N in (K, K + 1)]


def epsilon(I: Ideal, branches) -> int:
    """The length epsilon of the nilradical of A = O/I, O the local ring at
    the origin, for the ideal I of a curve with the given branches, every
    generator vanishing on every branch (``CurvePresentation`` checks it).

    Let H = H^0_m(A), the nilradical of a generically reduced A. The form l
    is the first of x_1, ..., x_n, then sum_k k^s * x_k for s = 1, 2, ...,
    that vanishes identically on no branch. Any n of these forms are
    independent (a generalized Vandermonde with distinct positive nodes), and
    those that vanish on one branch make a proper subspace, so one of the
    first r(n - 1) + 1 vanishes on none of the r branches.

    If vdim(I + <l>) is infinite, V(I) meets V(l) in a curve that is no
    branch, and HypothesisError is raised. Otherwise A has dimension 1 and l
    lies in no minimal prime, so l is a nonzerodivisor on A/H, which has no
    embedded prime, and 0 -> H/l^N H -> A/l^N A -> (A/H)/l^N -> 0 is exact.
    With e = sum_i ord_u l(x_i(u)) and D(N) = vdim(I + <l^N>) - N * e,

        D(N) = length(H/l^N H) + N * (e(l; A) - e).

    By the associativity formula (Matsumura, Commutative Ring Theory, section
    14), e(l; A) = sum_p length(A_p) * e(l; A/p) over the minimal primes p,
    and e(l; A/p_i) = ord_u l(x_i(u)) for the prime of a birational branch.
    The certificate u^J O' c O of ``curveinv.delta_reduced``, which runs
    first, proves the branches birational with distinct images. So
    e(l; A) >= e, with equality iff V(I) has no component but the branches
    and I is reduced along each.

    A linear change of coordinates, an automorphism of O, makes l the last
    variable x_n: with c_j * x_j the last term of l, each generator g becomes
    c_j^(deg_j g) * g((l - sum_(k != j) c_k x_k) / c_j), in integers. Then
    ``_rungs`` gives K and the lengths at K and K + 1, and as they rise by one
    constant from K - 1 on, D(N + 1) - D(N) is e(l; A) - e for all N >= K,
    as l^N H = 0 for a large N. If D(K + 1) = D(K), then l^K H = l^(K + 1) H,
    so l^K H = 0 by Nakayama's lemma (Matsumura, Thm 2.2), and epsilon = D(K);
    a rise proves e(l; A) > e (HypothesisError), and a fall would contradict
    the associativity formula.
    """
    ring, r, n = I.ring, len(branches), len(I.ring)
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    powers = (tuple(k**s for k in range(1, n + 1)) for s in itertools.count(1))
    for form in itertools.islice(itertools.chain(units, powers), r * (n - 1) + 1):
        l = Polynomial(ring, {units[k]: c for k, c in enumerate(form) if c})
        orders = list(itertools.takewhile(  # up to the first branch l vanishes on
            lambda o: o is not None, (o for o, in orders_on([l], branches))))
        if len(orders) == r:
            break
    else:
        raise InternalCheckError("every candidate form vanishes on some branch")
    e, shown = sum(orders), l.render()
    j = max(k for k, c in enumerate(form) if c)
    line = {units[k]: 1 if k == j else -c for k, c in enumerate(form) if c}  # c_j * x_j, l in its place
    gens = []
    for g in I.gens:
        top = max(m[j] for m in g.terms)
        terms = reduce(_add_terms, (_mul_terms(
            {m[:j] + (0,) + m[j + 1:]: c * form[j] ** (top - m[j])},
            _power_terms(line, m[j], n)) for m, c in integral(g.terms)[1].items()), {})
        gens.append(Polynomial(ring, {m[:j] + m[j + 1:] + (m[j],): c for m, c in terms.items()}))
    K, length = _rungs(Ideal(gens, ring))
    if length[0] is None:  # at every N alike: the pure powers of the other variables decide
        raise HypothesisError(f"V(I) has a component other than the branches: vdim(I + <{shown}>) "
                              f"is infinite, and {shown} vanishes on no branch")
    step = length[1] - length[0] - e  # D(K + 1) - D(K) = e(l; A) - e
    if step < 0:
        raise InternalCheckError(f"e({shown}; O/I) = {e + step} is below e = {e}, against associativity")
    if step > 0:
        raise HypothesisError(f"V(I) has a component other than the branches, or I is not reduced along "
                              f"a branch: e({shown}; O/I) = {e + step}, above e = {e}, the sum of the "
                              f"orders of {shown} on them")
    return length[0] - K * e


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
            from .gb import ideal_intersect

            self._intersection = reduce(ideal_intersect, self.primes)
        return self._intersection

    def verify_against(self, I: Ideal) -> None:
        """Check that the components intersect to I, or raise ComputationError.

        No component may be the unit ideal: a prime whose reduced basis is
        {1}, or an embedded component of length 0 at the origin. I is first
        checked to lie in every listed component, so it lies in their
        intersection. The intersection then equals I iff it also lies in I,
        which one Groebner basis of I decides: no basis of the intersection is
        needed.
        """
        from .gb import ideal_intersect, std_basis

        for P in self.primes:
            B = std_basis(P, DEGREVLEX)
            if not any(B.lead_monomials[0]):  # 1 is the least monomial
                raise ComputationError("decomposition rejected: a listed prime is the unit ideal")
            if not all(B.contains(g) for g in I.gens):
                raise ComputationError("decomposition rejected: ideal not contained in a listed prime")
        parts = self.intersection()
        if self.embedded is not None:
            BQ = std_basis(self.embedded, DEGREVLEX)
            if not all(BQ.contains(g) for g in I.gens):
                raise ComputationError("decomposition rejected: ideal not contained in the embedded component")
            length = vdim(self.embedded)
            if length is None:
                raise ComputationError("decomposition rejected: embedded component is not m-primary")
            if length == 0:
                raise ComputationError("decomposition rejected: embedded component is the unit ideal at the origin")
            parts = ideal_intersect(parts, self.embedded)
        BI = std_basis(I, DEGREVLEX)
        if not all(BI.contains(g) for g in parts.gens):
            raise ComputationError("decomposition rejected: components do not intersect to the ideal")


def epsilon_from_decomposition(I: Ideal, D: PrimaryDecomposition) -> int:
    """Dimension of the nilradical of the quotient ring, from a verified decomposition:
    vdim of the embedded component minus vdim of (intersection of primes) + it."""
    if D.embedded is None:
        return 0
    from .gb import ideal_sum

    q = vdim(D.embedded)
    if q is None:
        raise ComputationError("embedded-component length is infinite")
    eps = q - vdim(ideal_sum(D.intersection(), D.embedded))  # finite: the sum holds D.embedded
    if eps < 0:
        raise InternalCheckError("negative epsilon from a verified decomposition")
    return eps


def _verify_radical_is_axis(J: Ideal) -> int:
    """Verify that J lives in the ring (u, t) and that sqrt(J) = <u> locally at
    the origin, and return the least u-exponent e over the generators; raises
    HypothesisError when the radical is another ideal.

    The local ring O of (u, t) at the origin is a two-dimensional regular local
    ring, a UFD. Write J = u^e * I, with I generated by the generators divided
    by u^e and some generator of I not divisible by u. The radical needs
    e >= 1, and then it is <u> iff I has finite colength in O. That is read
    off the generators of I:

    - if one of them has a nonzero constant term, it is a unit and I O = O;
    - otherwise let h be the gcd in Q[u, t] of the generators of I. If
      h(0) = 0, then h is prime to u (u does not divide every generator of
      I), so V(h) is a curve germ other than u = 0 and contains V(I): the
      colength is infinite and no power of u lies in J. If h(0) != 0, h is a
      unit in O and I O is generated by the coprime quotients of the
      generators by h, which have finitely many common zeros: the colength is
      finite.

    The gcd over Q is also the gcd over the algebraic closure. It is folded in
    integers, up to a rational factor, which leaves h(0) != 0 unchanged.
    """
    if J.ring.names != ("u", "t"):
        raise ComputationError(f"multiplicity of t needs the ring (u, t), got {J.ring!r}")
    e = min(a for g in J.gens for a, _ in g.terms)
    if e == 0:
        g = next(g for g in J.gens if any(a == 0 for a, _ in g.terms))
        raise HypothesisError(f"radical check failed: generator {g.render()!r} not divisible by u")
    if any((e, 0) in g.terms for g in J.gens):
        return e
    h = []  # the gcd so far, in the integer form of ``recursive_gcd``
    for g in J.gens:
        h = recursive_gcd(h, recursive_form({(a - e, b): c for (a, b), c in g.terms.items()})[1])
        if h[0] and h[0][0]:  # h(0) != 0, and so for every divisor of h
            return e
    raise HypothesisError("radical check failed: no power of u lies in the ideal")


def hs_multiplicity_of_param(J: Ideal) -> int:
    """Hilbert-Samuel multiplicity e(t; O/J) of t, O the local ring of (u, t) at
    the origin and sqrt(J) = <u> (``_verify_radical_is_axis``): the tests'
    oracle for ``is_cohen_macaulay(J).multiplicity``, on no production path.

    With t last, ``_rungs`` gives vdim(J + <t^N>) at N = K and K + 1, finite as
    a power of u lies in J; the rise from K - 1 on is one constant, and for
    large N it is e(t; O/J).
    """
    _verify_radical_is_axis(J)
    _, count = _rungs(J)
    return count[1] - count[0]


class CMWitness(namedtuple("CMWitness", "is_cm length multiplicity")):
    """Outcome of the Cohen-Macaulay test with both compared numbers recorded."""

    __slots__ = ()


def is_cohen_macaulay(J: Ideal) -> CMWitness:
    """Whether the quotient by J is Cohen-Macaulay, read off the generators of J:
    it is iff l = e, iff some generator has a nonzero u^e * t^0 term.

    Write O = Q[u, t] localized at the origin; the ring of J must be exactly
    (u, t). sqrt(J) = <u> is verified first (``_verify_radical_is_axis``), so
    (u) is the only minimal prime of O/J.

    - The multiplicity e = e(t; O/J) is the least u-exponent over the
      generators of J, by the associativity formula (Matsumura, Commutative
      Ring Theory, section 14): e(t; O/J) = length(O_(u)/J O_(u)) * e(t; O/(u)),
      and O/(u) = Q[t]_(t), so the second factor is 1. O_(u) is a discrete
      valuation ring with uniformizer u and residue field Q(t); a generator
      u^a * (h(t) + u * ...) with h nonzero is u^a times a unit, so
      J O_(u) = (u^e).
    - The length l = length(O/(J + <t>)) is that of Q[u]_(u) modulo the
      generators at t = 0, i.e. the least order in u of n(u, 0) over the
      generators n. It is finite: if t divided every generator, it would divide
      their gcd in the radical check, and that check would have failed.
    - O/J is one-dimensional, so it is Cohen-Macaulay iff t is a
      nonzerodivisor, iff l = e. Equivalently J is unmixed: O is a UFD, so the
      (u)-primary component of J is J O_(u) meet O = (u^e), and J = u^e * I
      lies in it, with equality iff 1 lies in I O, iff some generator has a
      nonzero u^e * t^0 term, iff l = e. Both readings are the same support
      read, so nothing is cross-checked here.
    """
    e = _verify_radical_is_axis(J)
    l = min(a for g in J.gens for a, b in g.terms if b == 0)
    return CMWitness(l == e, l, e)
