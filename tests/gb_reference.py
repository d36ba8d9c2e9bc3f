"""Reference implementations the tests check the Groebner layer against.

``reference_std_basis`` and ``reference_normal_form`` are Buchberger-Mora in
exponent tuples and ``Fraction`` coefficients, with monic basis elements.
Under a global order they take the same pair order, Gebauer-Moeller criteria,
reducer choice and output form as ``gb.std_basis``, which packs monomials into
ints and keeps integer coefficients. Every polynomial the packed core meets is
a nonzero multiple of the one met here, so the two must agree term for term.
Under a local order the reference is Mora's tangent-cone algorithm with the
ecart, and ``gb.std_basis`` takes Lazard's route by homogenization: the two
must have the same leading monomials and generate the same local ideal, but
their tails may differ. Mora's weak normal form runs under a step budget, as
it can stall; ``reference_local_member`` decides membership in the localized
ideal from global reference bases instead, under a budget of its own, as the
elimination it needs can take seconds.

``ideal_equal``, ``ideal_quotient`` and ``exact_divide`` are ideal operations
that only tests use, built on ``gb.std_basis`` and ``gb.ideal_intersect``.
"""

from __future__ import annotations

from heapq import heapify, heappop

from equicurve.errors import ComputationError, RingMismatchError
from equicurve.gb import Ideal, ideal_intersect, std_basis
from equicurve.poly import DEGREVLEX, Elimination, MonomialOrder, Polynomial, VarSet, mon_mul

REDUCTION_CAP = 200_000

# Steps of one Mora weak normal form. The tests need a few dozen at most; a
# member probe of a two-generator ideal in four variables has been seen to
# stall, its remainder growing past a thousand terms, and reaches this budget
# in well under a second.
MORA_STEP_BUDGET = 500

# Reduction steps of the whole reference elimination in one
# ``reference_local_member``. The tests need at most 81. The elimination for
# a non-member of that two-generator ideal, g0 + x0*g1 + x0^5, took 14.2 s
# to finish, its coefficients growing at every step; it reaches this budget
# in about 0.25 s.
LOCAL_MEMBER_STEP_BUDGET = 1_000


class OracleBudgetError(ComputationError):
    """The reference gave up at ``MORA_STEP_BUDGET`` or
    ``LOCAL_MEMBER_STEP_BUDGET``: it has no answer, which is no mismatch."""


def mon_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mon_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def mon_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# -- the tuple / Fraction Buchberger-Mora core ---------------------------------


def _from_terms(ring, terms: dict) -> Polynomial:
    out = Polynomial(ring)
    out.terms = terms
    return out


def _subtract_multiple(h: dict, g: Polynomial, q, c) -> None:
    """h -= c * x^q * g, in place on a term dict."""
    for m, gc in g.terms.items():
        m = mon_mul(m, q)
        s = h.get(m, 0) - c * gc
        if s:
            h[m] = s
        else:
            del h[m]


def _spoly(f: Polynomial, lf, g: Polynomial, lg) -> Polynomial:
    l = mon_lcm(lf, lg)
    qf, cf = mon_div(l, lf), 1 / f.terms[lf]
    h = {mon_mul(m, qf): c * cf for m, c in f.terms.items()}
    _subtract_multiple(h, g, mon_div(l, lg), 1 / g.terms[lg])
    return _from_terms(f.ring, h)


def _reduce_global(f: Polynomial, G, leads, order: MonomialOrder, budget=None) -> Polynomial:
    """The division remainder; ``budget``, a one-item list, holds the steps
    left to the whole computation that shares it."""
    key = order.key
    remainder = {}
    h = dict(f.terms)
    steps = 0
    while h:
        steps += 1
        if steps > REDUCTION_CAP:
            raise ComputationError("reference reduction not finished")
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise OracleBudgetError(
                    "local membership oracle (gb_reference.reference_local_member) not "
                    f"finished within LOCAL_MEMBER_STEP_BUDGET = {LOCAL_MEMBER_STEP_BUDGET} "
                    "reduction steps"
                )
        lm = max(h, key=key)
        for g, lg in zip(G, leads):
            if mon_divides(lg, lm):
                _subtract_multiple(h, g, mon_div(lm, lg), h[lm] / g.terms[lg])
                break
        else:
            remainder[lm] = h.pop(lm)
    return _from_terms(f.ring, remainder)


def _mora_weak_nf(f: Polynomial, G, leads, order: MonomialOrder) -> Polynomial:
    key = order.key
    T = [(g, lg, g.total_degree() - sum(lg), key(lg)) for g, lg in zip(G, leads)]
    h = dict(f.terms)
    steps = 0
    while h:
        steps += 1
        if steps > MORA_STEP_BUDGET:
            raise OracleBudgetError(
                f"Mora oracle (gb_reference._mora_weak_nf) not finished within "
                f"MORA_STEP_BUDGET = {MORA_STEP_BUDGET} steps"
            )
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


def _weak_nf(f, G, leads, order, budget=None):
    if order.is_global:
        return _reduce_global(f, G, leads, order, budget)
    return _mora_weak_nf(f, G, leads, order)


def _update_pairs(pairs: list, L: list, order: MonomialOrder) -> list:
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


def reference_std_basis(I: Ideal, order: MonomialOrder, budget=None):
    """(basis, leading monomials) as ``gb.std_basis`` returns them; under a
    global order the reductions may share a ``budget`` of steps (see
    ``_reduce_global``)."""
    G, L, pairs = [], [], []
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
        h = _weak_nf(_spoly(G[i], L[i], G[j], L[j]), G, L, order, budget)
        if not h.is_zero():
            lh = max(h.terms, key=order.key)
            G.append(h * (1 / h.terms[lh]))
            L.append(lh)
            pairs = _update_pairs(pairs, L, order)
    minimal = [
        i for i in range(len(G))
        if not any(
            mon_divides(L[j], L[i]) and (L[j] != L[i] or j < i)
            for j in range(len(G))
            if j != i
        )
    ]
    out = []
    for i in minimal:
        g = G[i]
        others = [G[j] for j in minimal if j != i]
        if order.is_global and others:
            other_leads = [L[j] for j in minimal if j != i]
            lt = Polynomial.monomial(g.ring, L[i], g.terms[L[i]])
            g = lt + _reduce_global(g - lt, others, other_leads, order, budget)
        out.append((order.key(L[i]), L[i], g))
    out.sort(key=lambda kg: kg[0])
    return tuple(g for _, _, g in out), tuple(l for _, l, _ in out)


def reference_normal_form(basis, leads, order: MonomialOrder, f: Polynomial) -> Polynomial:
    """The division remainder (global order) or Mora's weak normal form (local)
    of f by a basis with the given leading monomials."""
    if f.is_zero():
        return f
    return _weak_nf(f, basis, leads, order)


def reference_local_member(I: Ideal, f: Polynomial) -> bool:
    """Whether f lies in I*O, O the local ring at the origin, by global bases
    only, so that no weak normal form can stall it.

    f lies in I*O iff s*f lies in I for some s with s(0) != 0, iff I : f is
    not inside the maximal ideal m, iff 1 lies in (I : f) + m, iff some
    generator of I : f has a nonzero constant term. I : f is (I meet <f>) / f,
    and I meet <f> is generated by the elements free of w of the reference
    basis of w*I + (1 - w)*<f> under Elimination(1).
    """
    if f.is_zero():
        return True
    ring = I.ring
    w = "_w"
    while w in ring:
        w += "_"
    big = VarSet((w,) + ring.names)
    gens = [Polynomial(big, {(1,) + m: c for m, c in g.terms.items()}) for g in I.gens]
    h = {(0,) + m: c for m, c in f.terms.items()}
    h.update({(1,) + m: -c for m, c in f.terms.items()})
    gens.append(Polynomial(big, h))
    basis, leads = reference_std_basis(Ideal(gens, big), Elimination(1),
                                       [LOCAL_MEMBER_STEP_BUDGET])
    origin = (0,) * len(ring)
    return any(
        origin in exact_divide(Polynomial(ring, {m[1:]: c for m, c in g.terms.items()}), f).terms
        for g, l in zip(basis, leads)
        if not l[0]
    )


# -- ideal operations used only by tests ---------------------------------------


def ideal_equal(I: Ideal, J: Ideal, order: MonomialOrder = DEGREVLEX) -> bool:
    """Mutual containment under the given order."""
    if I.ring != J.ring:
        raise RingMismatchError("ideal comparison over mixed rings")
    BI = std_basis(I, order)
    BJ = std_basis(J, order)
    return all(BI.contains(g) for g in J.gens) and all(BJ.contains(g) for g in I.gens)


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
