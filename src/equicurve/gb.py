"""Groebner bases (global orders), standard bases (local orders, Mora normal form),
and the ideal operations the invariant layer needs: sum, quotient, intersection,
equality and membership.

``std_basis`` is Buchberger's algorithm with the normal selection strategy: the
pending pair of least lcm degree is reduced next, ties broken by the monomial
order on the lcm and then by the pair's indices. Pairs wait in a heap keyed that
way, and the leading monomial of every basis element is computed once and kept
next to it. When an element joins the basis the pair set is updated as Gebauer
and Moeller ("On an installation of Buchberger's algorithm", JSC 1988) do: a new
pair is dropped when another new pair's lcm properly divides its lcm, or when
its leading monomials are coprime (product criterion), and of the new pairs
that share an lcm at most one is kept; an old pair is dropped when the new
leading monomial divides its lcm without giving either of its halves that same
lcm (chain criterion). Under a local order the weak normal form is Mora's, with the ecart
kept for every reducer (Greuel-Pfister, A Singular Introduction to Commutative
Algebra, 1.6-1.7).

The criteria only skip pairs whose S-polynomial has a standard representation
by the final basis, so the result is a standard basis of the same ideal with the
same leading ideal. Under a global order the output, which is minimalized,
tail-reduced, monic and sorted, is the reduced Groebner basis: unique, hence the
same whatever pairs were reduced on the way. Under the local order a tail-reduced
standard basis is not unique in general (tail reduction is truncated); there the
output is pinned by tests, the corpus report and the family outcomes recorded in
perfbench/expected_families.json.

Intersections and quotients are always computed in the polynomial ring with a
global elimination order; local-order computations consume the results, which is
valid here because localization is flat and all inputs are polynomial.
"""

from __future__ import annotations

from heapq import heapify, heappop

from .errors import ComputationError, InternalCheckError, RingMismatchError
from .poly import (
    DEGREVLEX,
    Elimination,
    MonomialOrder,
    Polynomial,
    VarSet,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
)

_REDUCTION_CAP = 200_000


class Ideal:
    """A generator list over a fixed ring; generators are stored as given."""

    __slots__ = ("gens", "ring")

    def __init__(self, gens, ring: VarSet | None = None):
        gens = [g for g in gens if not g.is_zero()]
        if ring is None:
            if not gens:
                raise ValueError("cannot infer ring of an empty ideal")
            ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("ideal generators over mixed rings")
        self.gens = tuple(gens)
        self.ring = ring

    def __repr__(self):
        return f"Ideal({', '.join(g.render() for g in self.gens)})"


def ecart(f: Polynomial, order: MonomialOrder) -> int:
    """Degree spread between f and its leading monomial; drives Mora's reduction."""
    return f.total_degree() - sum(f.leading_monomial(order))


def _subtract_multiple(h: dict, g: Polynomial, q, c) -> None:
    """h -= c * x^q * g, in place on a term dict."""
    for m, gc in g.terms.items():
        m = mon_mul(m, q)
        s = h.get(m, 0) - c * gc
        if s:
            h[m] = s
        else:
            del h[m]


def _from_terms(ring: VarSet, terms: dict) -> Polynomial:
    out = Polynomial(ring)
    out.terms = terms
    return out


def _spoly(f: Polynomial, lf, g: Polynomial, lg) -> Polynomial:
    """S-polynomial of f and g, whose leading monomials are lf and lg."""
    l = mon_lcm(lf, lg)
    qf, cf = mon_div(l, lf), 1 / f.terms[lf]
    h = {mon_mul(m, qf): c * cf for m, c in f.terms.items()}
    _subtract_multiple(h, g, mon_div(l, lg), 1 / g.terms[lg])
    return _from_terms(f.ring, h)


def spoly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    return _spoly(f, f.leading_monomial(order), g, g.leading_monomial(order))


def _reduce_global(f: Polynomial, G, leads, order: MonomialOrder) -> Polynomial:
    """Full multivariate division remainder under a global order; ``leads`` holds
    the leading monomials of ``G``."""
    key = order.key
    remainder = {}
    h = dict(f.terms)
    steps = 0
    while h:
        steps += 1
        if steps > _REDUCTION_CAP:
            raise InternalCheckError("global reduction exceeded iteration cap")
        lm = max(h, key=key)
        for g, lg in zip(G, leads):
            if mon_divides(lg, lm):
                _subtract_multiple(h, g, mon_div(lm, lg), h[lm] / g.terms[lg])
                break
        else:
            remainder[lm] = h.pop(lm)
    return _from_terms(f.ring, remainder)


def _mora_weak_nf(f: Polynomial, G, leads, order: MonomialOrder) -> Polynomial:
    """Mora's ecart-controlled weak normal form; zero iff f lies in the localized ideal.

    Each reducer is kept as (polynomial, lead, ecart, order key of the lead); among
    the reducers whose lead divides, the first of least (ecart, key) is used.
    """
    key = order.key
    T = [(g, lg, g.total_degree() - sum(lg), key(lg)) for g, lg in zip(G, leads)]
    h = dict(f.terms)
    steps = 0
    while h:
        steps += 1
        if steps > _REDUCTION_CAP:
            raise InternalCheckError("Mora normal form exceeded iteration cap")
        lm = max(h, key=key)
        best = None
        for t in T:
            if mon_divides(t[1], lm) and (best is None or t[2:] < best[2:]):
                best = t
        if best is None:
            break
        g, lg, eg, _ = best
        eh = max(map(sum, h)) - sum(lm)
        if eg > eh:
            T.append((_from_terms(f.ring, dict(h)), lm, eh, key(lm)))
        _subtract_multiple(h, g, mon_div(lm, lg), h[lm] / g.terms[lg])
    return _from_terms(f.ring, h)


def _weak_nf(f: Polynomial, G, leads, order: MonomialOrder) -> Polynomial:
    if order.is_global:
        return _reduce_global(f, G, leads, order)
    return _mora_weak_nf(f, G, leads, order)


def _reduced_nf_local(f: Polynomial, G, leads, order: MonomialOrder, cap=2000) -> Polynomial:
    """Tail-reduced normal form under a local order; bounded iteration because tail
    reduction need not terminate over power series."""
    key = order.key
    result = {}
    h = f
    for _ in range(cap):
        h = _mora_weak_nf(h, G, leads, order)
        if h.is_zero():
            return _from_terms(f.ring, result)
        lm = max(h.terms, key=key)
        c = h.terms.pop(lm)
        s = result.get(lm, 0) + c
        if s:
            result[lm] = s
        else:
            del result[lm]
    return _from_terms(f.ring, result) + h


class StandardBasis:
    """A computed basis (Groebner for global orders, standard for local) of an ideal."""

    __slots__ = ("ideal", "order", "basis", "lead_monomials")

    def __init__(self, ideal, order, basis):
        self.ideal = ideal
        self.order = order
        self.basis = tuple(basis)
        self.lead_monomials = tuple(g.leading_monomial(order) for g in self.basis)

    def normal_form(self, f: Polynomial, reduced: bool = True) -> Polynomial:
        if f.ring != self.ideal.ring:
            raise RingMismatchError("polynomial over a different ring than the basis")
        if f.is_zero():
            return f
        if self.order.is_global:
            return _reduce_global(f, self.basis, self.lead_monomials, self.order)
        if reduced:
            return _reduced_nf_local(f, self.basis, self.lead_monomials, self.order)
        return _mora_weak_nf(f, self.basis, self.lead_monomials, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f, reduced=False).is_zero()


def _update_pairs(pairs: list, L: list, order: MonomialOrder) -> list:
    """The pair heap after the basis element with leading monomial L[-1] joins.

    A pair is (deg lcm, order key of lcm, i, j, lcm). Old pairs go by the chain
    criterion. The new pairs (i, k) are grouped by lcm; a group is dropped when
    another new lcm properly divides its lcm or when one of its pairs has coprime
    leading monomials, and otherwise its pair of least i is kept.
    """
    k = len(L) - 1
    lk = L[k]
    kept = [
        p for p in pairs
        if not (
            mon_divides(lk, p[4])
            and mon_lcm(L[p[2]], lk) != p[4]
            and mon_lcm(L[p[3]], lk) != p[4]
        )
    ]
    by_lcm = {}
    for i in range(k):
        by_lcm.setdefault(mon_lcm(L[i], lk), []).append(i)
    for l, idx in by_lcm.items():
        if any(l2 != l and mon_divides(l2, l) for l2 in by_lcm):
            continue
        if any(mon_mul(L[i], lk) == l for i in idx):
            continue
        kept.append((sum(l), order.key(l), idx[0], k, l))
    heapify(kept)
    return kept


def std_basis(I: Ideal, order: MonomialOrder) -> StandardBasis:
    """Buchberger's algorithm; Mora weak normal form replaces division for local orders.

    Pairs are taken by the normal selection strategy (least lcm degree, then the
    order on the lcm, then the indices) from a heap, and pruned by the product,
    chain and Gebauer-Moeller criteria as each element joins (see the module
    docstring). The leading monomials of the basis are kept in a list parallel to
    it. Output is minimalized, tail-reduced, monic and deterministically sorted;
    under a global order it is the unique reduced Groebner basis, so the pruning
    leaves the output unchanged.
    """
    G = []  # basis elements, monic
    L = []  # their leading monomials
    pairs = []  # heap, see _update_pairs
    for g in I.gens:
        g = g.monic(order)
        if g not in G:
            G.append(g)
            L.append(g.leading_monomial(order))
            pairs = _update_pairs(pairs, L, order)
    if not G:
        raise ValueError("standard basis of the zero ideal")

    while pairs:
        _, _, i, j, _ = heappop(pairs)
        h = _weak_nf(_spoly(G[i], L[i], G[j], L[j]), G, L, order)
        if not h.is_zero():
            lh = max(h.terms, key=order.key)
            G.append(h * (1 / h.terms[lh]))
            L.append(lh)
            pairs = _update_pairs(pairs, L, order)

    # Minimalize: drop generators whose lead is divisible by another's.
    minimal = [
        i for i in range(len(G))
        if not any(
            mon_divides(L[j], L[i]) and (L[j] != L[i] or j < i)
            for j in range(len(G))
            if j != i
        )
    ]

    # Tail-reduce each element against the others for reproducible output.
    reduced = []
    for i in minimal:
        others = [G[j] for j in minimal if j != i]
        g = G[i]
        if others:
            other_leads = [L[j] for j in minimal if j != i]
            lt = Polynomial.monomial(g.ring, L[i], g.terms[L[i]])
            tail = g - lt
            if not tail.is_zero():
                if order.is_global:
                    tail = _reduce_global(tail, others, other_leads, order)
                else:
                    tail = _reduced_nf_local(tail, others, other_leads, order, cap=500)
            g = lt + tail
        reduced.append((order.key(L[i]), g))
    reduced.sort(key=lambda kg: kg[0])
    return StandardBasis(I, order, [g for _, g in reduced])


def normal_form(f: Polynomial, B: StandardBasis) -> Polynomial:
    """Remainder of f modulo B; zero iff f lies in the (localized) ideal."""
    return B.normal_form(f)


def ideal_contains(I: Ideal, f: Polynomial, order: MonomialOrder) -> bool:
    """Membership of f in I (in the localization at the origin for local orders)."""
    if f.is_zero():
        return True
    return std_basis(I, order).contains(f)


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise RingMismatchError("ideal sum over mixed rings")
    return Ideal(list(I.gens) + list(J.gens), I.ring)


def _fresh_var(ring: VarSet) -> str:
    name = "_w"
    while name in ring:
        name += "_"
    return name


def _lift(f: Polynomial, big: VarSet) -> Polynomial:
    shift = len(big) - len(f.ring)
    return _from_terms(big, {(0,) * shift + m: c for m, c in f.terms.items()})


def _project(f: Polynomial, small: VarSet) -> Polynomial:
    shift = len(f.ring) - len(small)
    return _from_terms(small, {m[shift:]: c for m, c in f.terms.items()})


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I and J intersected via one auxiliary elimination variable w on w*I + (1-w)*J."""
    if I.ring != J.ring:
        raise RingMismatchError("ideal intersection over mixed rings")
    ring = I.ring
    w_name = _fresh_var(ring)
    big = VarSet((w_name,) + ring.names)
    w = Polynomial.var(big, w_name)
    one_minus_w = Polynomial.const(big, 1) - w
    gens = [w * _lift(g, big) for g in I.gens]
    gens += [one_minus_w * _lift(g, big) for g in J.gens]
    B = std_basis(Ideal(gens, big), Elimination(1))
    result = [_project(g, ring) for g in B.basis if all(m[0] == 0 for m in g.terms)]
    if not result:
        # The intersection of nonzero ideals over a domain is nonzero; reaching this
        # would mean the elimination lost everything.
        raise InternalCheckError("empty intersection of nonzero ideals")
    return Ideal(result, ring)


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """g / f when f divides g exactly; raises otherwise."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    q = Polynomial.zero(g.ring)
    h = g
    lf = f.leading_monomial(DEGREVLEX)
    cf = f.terms[lf]
    while not h.is_zero():
        lm = h.leading_monomial(DEGREVLEX)
        if not mon_divides(lf, lm):
            raise ComputationError("polynomial division is not exact")
        c = h.terms[lm] / cf
        m = mon_div(lm, lf)
        q = q + Polynomial.monomial(g.ring, m, c)
        h = h - f.term_mul(m, c)
    return q


def ideal_quotient(I: Ideal, f: Polynomial) -> Ideal:
    """I : f = {g : g*f in I}, computed as (I intersect <f>) / f."""
    if f.is_zero():
        raise ZeroDivisionError("ideal quotient by the zero polynomial")
    inter = ideal_intersect(I, Ideal([f], I.ring))
    return Ideal([exact_divide(g, f) for g in inter.gens], I.ring)


def ideal_equal(I: Ideal, J: Ideal, order: MonomialOrder = DEGREVLEX) -> bool:
    """Mutual containment under the given order."""
    if I.ring != J.ring:
        raise RingMismatchError("ideal comparison over mixed rings")
    BI = std_basis(I, order)
    BJ = std_basis(J, order)
    return all(BI.contains(g) for g in J.gens) and all(BJ.contains(g) for g in I.gens)
