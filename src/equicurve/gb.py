"""Groebner bases (global orders), standard bases (local orders, by Lazard's
homogenization), and ideal sum, intersection and membership.

``std_basis`` is Buchberger's algorithm with the normal selection strategy: the
pending pair of least lcm degree is reduced next, ties broken by the monomial
order on the lcm and then by the pair's indices. The pairs are updated as
Gebauer and Moeller ("On an installation of Buchberger's algorithm", JSC 1988)
do: a new pair is dropped when another new pair's lcm properly divides its lcm,
or when its leading monomials are coprime, and of the new pairs that share an
lcm at most one is kept; an old pair is dropped when the new leading monomial
divides its lcm without giving either of its halves that same lcm. These
criteria only skip pairs whose S-polynomial has a standard representation by
the final basis. The output, minimalized, tail-reduced, monic and sorted, is
the reduced Groebner basis: unique, whatever pairs were reduced on the way.

*Local orders* (Lazard, EUROCAL 1983; Greuel-Pfister, A Singular Introduction
to Commutative Algebra, 1.7). Each generator f of degree d becomes h^d * f(x/h)
in a fresh first variable h, and the core computes the reduced Groebner basis
of these under the order that ranks h^a * x^m by degree, then by the local
order on x^m: a global order, as the degree comes first. Every polynomial it
meets is homogeneous, so for any local order h = 1 maps each lead to the local
lead of the image, and the images, minimalized by their leads, are a standard
basis of the ideal in the local ring: for f in I, some h^k * f^h lies in the
homogenized ideal, with the local lead of f times a power of h as its lead.

*Membership* is read off leads under every order: f lies in I, localized
under a local order, iff I + <f> has the leading ideal of I.

*Packed monomials.* In the core a monomial x^e in n variables is one int,
p = sum_i e_i << (w*i), with w = ``_FIELD_BITS`` bits per variable whose top
bit, the guard bit, stays clear (Monagan and Pearce, "Sparse polynomial
division using a heap", JSC 2011). With G the guard bits, x^a * x^b is a + b,
and x^a divides x^b iff ((b | G) - a) & G == G: a field of b | G minus that of
a keeps its guard bit iff b_i >= a_i, and never borrows from the next field.
The lcm takes each field from a where that subtraction of b keeps the guard
bit, and from b elsewhere; x^a and x^b are coprime iff their lcm is a + b.
Terms are keyed by a linear form in the exponents, so the key of a product is
the sum of the keys. An order (``poly.MonomialOrder``) ranks by the signed
degrees s_j * d_j of x^e on slices of the variables, one row j after another,
and then by the reverse lexicographic tie-break. With the rows counted from the
last, C = n*w the width of p and R = w plus the bit length of n, the key is

    key = sum_j (s_j * d_j << (C + R*j)) - p,

so row j adds s_j << (C + R*j) to the coefficient of each variable in its
slice. Every exponent is below 2^(w-1), so each d_j is below n * 2^(w-1) <=
2^(R-1), and two keys differ below row j by at most 2^R - 2 in each lower row
and by less than 2^C in p: less than 2^(C + R*j), one unit of row j. So the
first row that differs decides, and then p, which compares its fields from the
last variable down, as the tie-break does. Keys compare as the order does, a
term dict h leads at max(h), and p is -key mod 2^C. Lazard's route puts h in
the first field and packs the order ``_homogenized``: the degree, then the
local order's rows on x.

*Pair bookkeeping.* A pair waits under the degree and the key of its packed lcm
l, both read off the fields of l. A proper divisor x^a of x^b is a smaller int,
as b - a packs a nonzero monomial, so the new lcms, and the leads when the
basis is minimalized, are visited in increasing order and tested only against
those before them.

No exponent overflows silently: input exponents are checked when packed, the
lcm of guard-free monomials is guard-free, and q plus the fieldwise maximum of
g is checked before x^q * g is formed. An exponent that would reach a guard
bit, the power of h included, is a ComputationError that names the width.

*Fraction-free coefficients.* Polynomials in the core have integer
coefficients, and basis elements are primitive with a positive leading
coefficient. With a and b the leading coefficients of f and g divided by their
gcd, the S-polynomial is b*x^(l-lf)*f - a*x^(l-lg)*g. A reduction step cancels
the term c*x^m of h by g with leading coefficient a as
h <- (a/d)*h - (c/d)*x^(m-lg)*g, d = gcd(a, c), and then divides out the
content (Bareiss, Math. Comp. 1968). Each step is the one taken in rational
arithmetic with monic basis elements, times a nonzero rational, and every
choice reads terms only: the leading term, the first reducer whose lead
divides it and the pair order. So the same steps are taken, and each output
element, made monic in ``Fraction``s, is the rational one (the tests' oracle)
term for term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop
from itertools import repeat
from math import gcd
from operator import le, mul

from .errors import ComputationError, InternalCheckError, RingMismatchError
from .poly import Elimination, Ideal, MonomialOrder, Polynomial, VarSet, integral

_REDUCTION_CAP = 200_000

# Bits of one exponent field of a packed monomial, guard bit included: every
# exponent in the core stays below 2^(_FIELD_BITS - 1).
_FIELD_BITS = 32


def _from_terms(ring: VarSet, terms: dict) -> Polynomial:
    out = Polynomial(ring)
    out.terms = terms
    return out


def _overflow() -> ComputationError:
    w = _FIELD_BITS
    return ComputationError(f"an exponent reached 2^{w - 1}, the guard bit of the {w}-bit exponent "
                            f"field of a packed monomial (_FIELD_BITS = {w})")


class _Packing:
    """Packed monomials and order keys for one ring size and global order (module
    docstring). A reducer is the tuple (packed lead, lead key, leading coefficient,
    terms as (key, coefficient) pairs, fieldwise maximum of the packed monomials)."""

    __slots__ = ("width", "guard", "coeffs", "shifts", "low")

    def __init__(self, nvars: int, order: MonomialOrder):
        w = self.width = _FIELD_BITS
        C, R = nvars * w, w + nvars.bit_length()
        self.shifts = tuple(range(0, C, w))
        self.guard = sum(1 << (i + w - 1) for i in self.shifts)
        self.low = (1 << C) - 1
        # (coefficient, variables of its slice) of each row, the last first
        rows = [(s << (C + R * j), range(nvars)[sl]) for j, (s, sl) in enumerate(reversed(order.rows))]
        self.coeffs = tuple(sum(c for c, vs in rows if k in vs) - (1 << i) for k, i in enumerate(self.shifts))

    def key(self, exps) -> int:
        if max(exps) >> (self.width - 1):
            raise _overflow()
        return sum(map(mul, exps, self.coeffs))

    def degree_key(self, p: int) -> tuple:
        """The degree and the order key of the packed monomial p."""
        e = self.fields(p)
        return sum(e), self.key(e)

    def packed(self, key: int) -> int:
        return -key & self.low

    def fields(self, p: int) -> tuple:
        mask = (1 << self.width) - 1
        return tuple((p >> s) & mask for s in self.shifts)

    def exps(self, key: int) -> tuple:
        return self.fields(self.packed(key))

    def lcm(self, a: int, b: int) -> int:
        d = ((a | self.guard) - b) & self.guard
        return b ^ ((a ^ b) & (d - (d >> (self.width - 1))))

    def integral(self, terms: dict):
        """``poly.integral`` of the terms, (d, terms times d), keyed by order key."""
        d, h = integral(terms)
        key = self.key
        return d, {key(m): c for m, c in h.items()}

    def reducer(self, h: dict) -> tuple:
        lk = max(h)
        top = reduce(self.lcm, map(self.packed, h))
        return (self.packed(lk), lk, h[lk], tuple(h.items()), top)

    def monic(self, h: dict, ring: VarSet, skip: int = 0) -> Polynomial:
        """h made monic over ``ring``, the first ``skip`` exponents dropped."""
        lc = h[max(h)]
        return _from_terms(ring, {self.exps(k)[skip:]: Fraction(h[k], lc) for k in sorted(h, reverse=True)})


def _homogenized(order: MonomialOrder, nvars: int) -> MonomialOrder:
    """The order of Lazard's route on h^a * x^m, h before the ``nvars``
    variables of x: by degree, then by the rows of ``order`` on x^m."""
    rows = ((s, slice(*(1 + i for i in sl.indices(nvars)[:2]))) for s, sl in order.rows)
    return MonomialOrder(f"homogenized({order.kind})", ((1, slice(None)), *rows), True)


def _primitive(h: dict) -> dict:
    """h divided by its content, with a positive leading coefficient."""
    c = gcd(*h.values())
    if h[max(h)] < 0:
        c = -c
    return h if c == 1 else {m: v // c for m, v in h.items()}


def _cancel(h: dict, lm: int, lp: int, r: tuple, guard: int, rem: dict):
    """Cancel the term of h at key lm (packed lp) by the reducer r, fraction-free
    and in place; ``rem``, the remainder split off h so far, is scaled with it."""
    rp, rk, a, items, top = r
    c = h[lm]
    d = gcd(a, c)
    if a < 0:
        d = -d
    a //= d
    c //= d
    if (lp - rp + top) & guard:
        raise _overflow()
    if a != 1:
        for m in h:
            h[m] *= a
        for m in rem:
            rem[m] *= a
    q = lm - rk
    for t, v in items:
        m = t + q
        s = h.get(m, 0) - c * v
        if s:
            h[m] = s
        else:
            del h[m]
    if a != 1:
        k = gcd(*h.values(), *rem.values())
        if k > 1:
            for m in h:
                h[m] //= k
            for m in rem:
                rem[m] //= k


def _reduce_global(h: dict, reducers, pk: _Packing) -> dict:
    """Full division remainder of the term dict h, which it consumes, by the
    reducers: a nonzero multiple of the rational remainder."""
    guard, packed = pk.guard, pk.packed
    rem, steps = {}, 0
    while h:
        steps += 1
        if steps > _REDUCTION_CAP:
            raise ComputationError(
                f"global reduction not finished within _REDUCTION_CAP = {_REDUCTION_CAP} steps"
            )
        lm = max(h)
        lp = packed(lm)
        for r in reducers:
            if ((lp | guard) - r[0]) & guard == guard:
                _cancel(h, lm, lp, r, guard, rem)
                break
        else:
            rem[lm] = h.pop(lm)
    return rem


def _spoly(f: tuple, g: tuple, l: int, lk: int, guard: int) -> dict:
    """S-polynomial of the reducers f and g, fraction-free: x^(l - lead f) * f
    with its leading term cancelled by g; l is the packed lcm of the leads and
    lk its key."""
    fp, fk, _, items, top = f
    if (l - fp + top) & guard:
        raise _overflow()
    q = lk - fk
    h = {t + q: v for t, v in items}
    _cancel(h, lk, l, g, guard, {})
    return h


class StandardBasis:
    """A computed basis (Groebner for global orders, standard for local) of an
    ideal, kept as the core's primitive term dicts under ``_packing``, the
    first ``_skip`` exponents (h, under a local order) to be dropped.

    ``basis``, the monic ``Fraction`` polynomials, is built on its first read.
    Membership compares leads only, so a computed basis is never reduced by.
    """

    __slots__ = ("ideal", "order", "lead_monomials", "_packing", "_terms", "_skip", "_basis")

    def __init__(self, ideal, order, lead_monomials, packing, terms, skip=0):
        self.ideal, self.order, self.lead_monomials = ideal, order, tuple(lead_monomials)
        self._packing, self._terms, self._skip = packing, terms, skip
        self._basis = None

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            ring, monic = self.ideal.ring, self._packing.monic
            self._basis = tuple(monic(h, ring, self._skip) for h in self._terms)
        return self._basis

    def contains(self, f: Polynomial) -> bool:
        """Whether f lies in the ideal I, localized under a local order.

        f lies in I (I*O under a local order) iff every lead of a basis of
        I + <f> under the same order is divisible by a lead of this one: I lies
        in I + <f>, and two nested ideals with one leading ideal are equal, in
        the polynomial ring (Macaulay's basis theorem) and in the local ring
        (Greuel-Pfister 1.6).
        """
        if f.ring != self.ideal.ring:
            raise RingMismatchError("polynomial over a different ring than the basis")
        bigger = std_basis(Ideal(self.ideal.gens + (f,), f.ring), self.order)
        return all(any(all(map(le, l, m)) for l in self.lead_monomials) for m in bigger.lead_monomials)


def _update_pairs(pairs: list, L: list, pk: _Packing) -> list:
    """The pair heap after the basis element with packed lead L[-1] joins.

    A pair is (deg lcm, key of lcm, i, j, packed lcm). Old pairs go by the chain
    criterion. The new pairs (i, k) are grouped by lcm; a group is dropped when
    another new lcm properly divides its lcm or when one of its pairs has coprime
    leading monomials, and otherwise its pair of least i is kept. The groups are
    visited in increasing packed lcm, and only those before a group are tested
    as divisors of its lcm.
    """
    guard, lcm_ = pk.guard, pk.lcm
    k = len(L) - 1
    lk = L[k]
    lcms = list(map(lcm_, L[:k], repeat(lk, k)))
    kept = [
        p for p in pairs
        if ((p[4] | guard) - lk) & guard != guard or lcms[p[2]] == p[4] or lcms[p[3]] == p[4]
    ]
    by_lcm = {}
    for i, l in enumerate(lcms):
        by_lcm.setdefault(l, []).append(i)
    smaller = []  # the new lcms below l, the only candidates for a proper divisor
    for l in sorted(by_lcm):
        lg = l | guard
        for s in smaller:
            if (lg - s) & guard == guard:
                break
        else:
            idx = by_lcm[l]
            for i in idx:
                if L[i] + lk == l:
                    break
            else:
                kept.append((*pk.degree_key(l), idx[0], k, l))
        smaller.append(l)
    heapify(kept)
    return kept


def std_basis(I: Ideal, order: MonomialOrder) -> StandardBasis:
    """Buchberger's algorithm (module docstring): the reduced Groebner basis
    under a global order; under a local one, Lazard's standard basis,
    minimalized, monic and sorted. Each call computes its basis afresh."""
    if not order.is_global:
        return _local_std_basis(I, order)
    pk = _Packing(len(I.ring), order)
    out = _reduced_basis([pk.integral(g.terms)[1] for g in I.gens], pk)
    return StandardBasis(I, order, [pk.exps(k) for k, _ in out], pk, [h for _, h in out])


def _reduced_basis(gens: list, pk: _Packing) -> list:
    """The reduced Groebner basis of the ideal of the term dicts ``gens``, as
    (lead key, primitive term dict) pairs in increasing order of the lead."""
    guard = pk.guard
    G = []  # reducers of the basis elements
    L = []  # their packed leading monomials
    pairs = []  # heap, see _update_pairs
    seen = []
    for h in gens:
        h = _primitive(h)
        if h not in seen:
            seen.append(h)
            G.append(pk.reducer(h))
            L.append(G[-1][0])
            pairs = _update_pairs(pairs, L, pk)
    if not G:
        raise ValueError("standard basis of the zero ideal")

    while pairs:
        _, lk, i, j, l = heappop(pairs)
        h = _reduce_global(_spoly(G[i], G[j], l, lk, guard), G, pk)
        if h:
            G.append(pk.reducer(_primitive(h)))
            L.append(G[-1][0])
            pairs = _update_pairs(pairs, L, pk)

    # Minimalize, then tail-reduce each element against the others: the reduced
    # Groebner basis is unique. The lead, divisible by no other lead, passes to
    # the remainder first.
    minimal = sorted(_minimal(L, guard))
    out = []
    for i in minimal:
        h = dict(G[i][3])
        others = [G[j] for j in minimal if j != i]
        if others:
            h = _primitive(_reduce_global(h, others, pk))
        out.append((G[i][1], h))
    out.sort(key=lambda kh: kh[0])
    return out


def _minimal(L: list, guard: int) -> list:
    """The indices of the packed monomials L that no other divides, of equal
    ones the first, in increasing order of L: a divisor is a smaller int."""
    out = []
    for i in sorted(range(len(L)), key=L.__getitem__):
        lg = L[i] | guard
        if all((lg - L[j]) & guard != guard for j in out):
            out.append(i)
    return out


def _local_std_basis(I: Ideal, order: MonomialOrder) -> StandardBasis:
    """Lazard's standard basis (module docstring): the reduced Groebner basis of
    the homogenized generators under the packing of the order, with h = 1,
    minimalized by the dehomogenized leads and sorted by the local order."""
    pk = _Packing(len(I.ring) + 1, _homogenized(order, len(I.ring)))
    gens = []
    for g in I.gens:
        d = max(map(sum, g.terms))
        gens.append(pk.integral({(d - sum(m),) + m: c for m, c in g.terms.items()})[1])
    out = _reduced_basis(gens, pk)
    leads = [pk.exps(k)[1:] for k, _ in out]
    keep = _minimal([pk.packed(k) >> pk.width for k, _ in out], pk.guard >> pk.width)  # h = 1
    keep.sort(key=lambda i: order.key(leads[i]))
    return StandardBasis(I, order, [leads[i] for i in keep], pk, [out[i][1] for i in keep], skip=1)


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise RingMismatchError("ideal sum over mixed rings")
    return Ideal(list(I.gens) + list(J.gens), I.ring)


def _fresh_var(ring: VarSet) -> str:
    name = "_w"
    while name in ring:
        name += "_"
    return name


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I and J intersected in the polynomial ring, via one auxiliary elimination
    variable w on w*I + (1-w)*J, whose generators w*g and g - w*g are built as
    term dicts. Localization is flat, so the local ring sees the same ideal."""
    if I.ring != J.ring:
        raise RingMismatchError("ideal intersection over mixed rings")
    ring = I.ring
    big = VarSet((_fresh_var(ring),) + ring.names)
    gens = [_from_terms(big, {(1,) + m: c for m, c in g.terms.items()}) for g in I.gens]
    for g in J.gens:
        h = {(0,) + m: c for m, c in g.terms.items()}
        h.update({(1,) + m: -c for m, c in g.terms.items()})
        gens.append(_from_terms(big, h))
    B = std_basis(Ideal(gens, big), Elimination(1))
    # Under Elimination(1) an element is free of w iff its lead is.
    monic = B._packing.monic
    result = [monic(h, ring, skip=1) for l, h in zip(B.lead_monomials, B._terms) if not l[0]]
    if not result:
        # nonzero ideals of a domain meet in a nonzero ideal: the elimination lost it
        raise InternalCheckError("empty intersection of nonzero ideals")
    return Ideal(result, ring)
