"""Invariants of a curve germ from branch parametrizations: multiplicity, branch
count, the delta invariant via jet-space linear algebra, and Milnor numbers.

The delta computation embeds the local ring into the product of truncated
power series rings of the branches, as the closure of 1 under multiplication
by the coordinates, and measures the codimension of that span; a certificate
by Nakayama's lemma makes the truncation exact (see ``delta_reduced``).
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from fractions import Fraction

from .errors import ComputationError, HypothesisError, InternalCheckError
from .linalg import RowSpace, pivots
from .poly import Ideal, Polynomial, VarSet, _add_terms, _mul_terms, _power_terms, integral

JET_ORDER_CAP = 256

# The ring of a branch parametrization.
RING_U = VarSet(("u",))


def jet(d, terms):
    """The jet (d, pairs) of a coordinate in u whose integral form is (d,
    terms), as ``poly.integral`` and ``poly.parse_integral`` give it."""
    return d, tuple(sorted([(e, c) for (e,), c in terms.items()]))


class BranchParam:
    """One branch of a curve germ, a record of its jets: one polynomial in u per
    coordinate, vanishing at u = 0.

    ``jets`` holds each coordinate as a pair (d, pairs): d is the lcm of the
    denominators of its coefficients, and pairs are (exponent, coefficient
    times d) in increasing exponent order (``jet``). The invariants read
    nothing else. A branch of a manifest enters with the jets of its texts, and
    a fiber of a family with the jets of its table (``from_jets``); either way
    ``components`` is rendered from the jets.
    """

    __slots__ = ("jets", "label")

    def __init__(self, components, label=""):
        components = tuple(components)
        if not components:
            raise ValueError("branch needs at least one component")
        self._record(tuple([jet(*integral(comp.terms)) for comp in components]), label)

    @classmethod
    def from_jets(cls, jets, label="") -> "BranchParam":
        """The branch whose coordinates have the given jets, each a pair
        (d, pairs) in the form of ``jets``."""
        branch = cls.__new__(cls)
        branch._record(tuple(jets), label)
        return branch

    def _record(self, jets, label):
        if not any(pairs for _, pairs in jets):
            raise ComputationError("all-zero branch")
        if any(pairs and pairs[0][0] == 0 for _, pairs in jets):
            raise ComputationError("branch does not pass through the origin")
        self.jets = jets
        self.label = label

    @property
    def components(self):
        """The coordinates as ``Polynomial``s in u, rendered from the jets."""
        return tuple(Polynomial(RING_U, {(e,): Fraction(c, d) for e, c in pairs}) for d, pairs in self.jets)

    @property
    def ambient_dim(self):
        return len(self.jets)

    def u_order(self) -> int:
        """The least u-exponent of a term, the multiplicity of the branch germ."""
        return min(pairs[0][0] for _, pairs in self.jets if pairs)

    def exponent_gcd(self) -> int:
        """gcd of every u-exponent appearing in any component; >1 means the
        parametrization factors through a power of u and is not a normalization."""
        return math.gcd(*[e for _, pairs in self.jets for e, _ in pairs])

    def __repr__(self):
        body = ", ".join(c.render() for c in self.components)
        return f"BranchParam({body})"


def orders_on(gens, branches):
    """Yield, for each of the branches (``BranchParam``), the list of
    ord_u g(x(u)) on it for the polynomials g in gens, None where g vanishes.

    With x_k = P_k / d_k on a branch, D_k the largest x_k-exponent of g and
    a_m the coefficients of g times their least common denominator, g(x(u)) is
    a nonzero multiple of the sum of a_m * prod_k d_k^(D_k - m_k) * P_k^(m_k),
    which has the same order in u and is summed in integers. A term with a
    factor P_k = 0 is skipped. The a_m and D_k of each g are read once, for
    every branch.
    """
    forms = [(integral(g.terms)[1], [max(col) for col in zip(*g.terms)]) for g in gens]
    for b in branches:
        dens = [d for d, _ in b.jets]
        scaled = max(dens) > 1
        powers = {}  # (k, e): P_k^e, built when first needed
        orders = []
        for terms, top in forms:
            total = {}
            for m, c in terms.items():
                term = {(0,): c}
                for k, e in enumerate(m):
                    if e:
                        P = powers.get((k, e))
                        if P is None:
                            P = {(x,): y for x, y in b.jets[k][1]}
                            P = powers[k, e] = P if e == 1 else _power_terms(P, e, 1)
                        if not P:
                            break
                        term = _mul_terms(term, P)
                else:
                    if scaled:
                        a = math.prod([d ** (t - e) for d, t, e in zip(dens, top, m)])
                        term = {x: a * v for x, v in term.items()}
                    _add_terms(total, term)
            orders.append(min(total)[0] if total else None)
        yield orders


class CurvePresentation:
    """A curve germ: the branches of its reduced structure and, optionally, its
    ideal, whose embedded structure gives epsilon (``localdim.epsilon``).

    Every generator of the ideal must vanish on every branch, or the ideal
    defines another curve; that is checked on construction.
    """

    __slots__ = ("branches", "ideal")

    def __init__(self, branches, ideal: Ideal | None = None):
        if not branches:
            raise ValueError("curve needs at least one branch")
        dims = {b.ambient_dim for b in branches}
        if ideal is not None:
            dims.add(len(ideal.ring))
        if len(dims) != 1:
            raise ComputationError("branches or ideal with mismatched ambient dimensions")
        if ideal is not None:
            for b, orders in zip(branches, orders_on(ideal.gens, branches)):
                for g, order in zip(ideal.gens, orders):
                    if order is not None:
                        raise HypothesisError(
                            f"ideal generator {g.render()!r} does not vanish on branch "
                            f"{b.label!r}"
                        )
        self.branches = branches
        self.ideal = ideal


def _times_coordinate(vec, jet_at, bounds_at):
    """vec, laid out by ``_jet_span``, times one coordinate, whose jet on the
    branch of column col is jet_at[col]. With bounds_at[col] = (run, end,
    jump), the cell u^e further on from col is column col + e if that is
    below run, col + e + jump if it is below end, and truncated otherwise."""
    out = {}
    for col, c in vec.items():
        run, end, jump = bounds_at[col]
        for e, a in jet_at[col]:
            k = col + e
            if k >= run:
                if k >= end:
                    break
                k += jump
            s = out.get(k, 0) + c * a
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def semigroup_conductor(gens):
    """Conductor of the numerical semigroup generated by the positive integers
    gens (the least c with c + N inside it), or None when their gcd is above 1.

    With a = min(gens), the least element of the semigroup in each residue
    class mod a (the Apéry set) is a shortest path from 0; the largest of them
    is the largest gap plus a, i.e. c + a - 1.
    """
    if math.gcd(*gens) != 1:
        return None
    a = min(gens)
    apery = [0] + [None] * (a - 1)
    heap = [(0, 0)]
    while heap:
        w, r = heapq.heappop(heap)
        if w == apery[r]:
            for g in gens:
                s = (r + g) % a
                if apery[s] is None or w + g < apery[s]:
                    apery[s] = w + g
                    heapq.heappush(heap, (w + g, s))
    return max(apery) - a + 1


def _first_jet_orders(coordinates, orders):
    """The jet order the value semigroups predict for each branch's
    certificate, None for a branch whose coordinate jets have orders with gcd
    above 1 (see ``delta_reduced``)."""
    conductors, tangents = [], []
    for i, m in enumerate(orders):
        jets = [dict(coordinate[i]) for coordinate in coordinates]
        c = 0 if m == 1 else semigroup_conductor(pivots(jets))  # smooth: G = N
        conductors.append(c)
        # the coefficient vector of u^m, zero entries left out
        tangents.append({k: jet[m] for k, jet in enumerate(jets) if m in jet})
    total = sum(orders)
    plane = len(orders) > 1 and len(pivots(tangents)) <= 2
    return [None if c is None else c + m + plane * m * (total - m)
            for c, m in zip(conductors, orders)]


def _jet_span(coordinates, orders, Js):
    """The image S of O in the direct sum of the Q[u]/u^(J_i), as a
    ``RowSpace``: the closure of the diagonal 1 under multiplication by the
    coordinates, each given by its jets on the branches (see ``delta_reduced``).

    The cells u^j of branch i with j < J_i - m_i are a run of columns from
    s_i on, branch after branch; its window cells, J_i - m_i <= j < J_i, are
    the columns from w_i on, where the windows follow all runs, from
    W = sum(J_i - m_i) on. So u^e moves a cell e columns on, plus
    w_i - s_i - (J_i - m_i) from the run into the window. Each branch's run
    is one block, so a row with its pivot on a later branch is zero on the
    earlier ones: with the cells ordered by j across the branches, the rows
    are longer and their entries larger.
    """
    W = sum(Js) - sum(orders)
    columns = sum(Js)
    # per column: each coordinate's jet on its branch, and where u^e takes it
    jet_at = [[()] * columns for _ in coordinates]
    bounds_at = [()] * columns
    ones = []
    start, w = 0, W
    for i, (m, J) in enumerate(zip(orders, Js)):
        run = start + J - m
        for on_columns, coordinate in zip(jet_at, coordinates):
            on_columns[start:run] = [coordinate[i]] * (J - m)
            on_columns[w:w + m] = [coordinate[i]] * m
        bounds_at[start:run] = [(run, run + m, w - run)] * (J - m)
        bounds_at[w:w + m] = [(w + m, w + m, 0)] * m
        ones.append(start)
        start, w = run, w + m
    span = RowSpace()
    queue = [dict.fromkeys(ones, 1)]
    span.add(queue[0])
    while queue:
        vec = queue.pop()
        for on_columns in jet_at:
            prod = _times_coordinate(vec, on_columns, bounds_at)
            if prod and span.add(prod):
                queue.append(prod)
    return span


def delta_reduced(branches) -> int:
    """Delta invariant of the reduced curve with the given branches, exactly.

    Let O be the local ring of the curve and O' = Q[[u]]^r the ring of its
    normalization, branch i having order m_i (the least u-order of its
    coordinates) and its own jet order J_i. With T the ideal of the
    u^(J_i) O' on the branches, the image S of O in O'/T, the direct sum of
    the Q[u]/u^(J_i), is the closure of the diagonal 1 under multiplication by
    each coordinate's jet: every coordinate has positive order on every
    branch, so a monomial of degree J_i or more vanishes on branch i. Only
    products independent of the span so far are multiplied further, so the
    work is at most rank(S) times the number of coordinates products. The
    codimension J_1 + ... + J_r - rank(S) = dim O'/(O + T) is at most delta.

    Certificate: every unit jet u^j e_i of the window, J_i - m_i <= j < J_i
    on each branch i, lies in S. Then the O'-ideal M of the u^(J_i - m_i) O'
    on the branches, which the window spans modulo T, satisfies M c O + T.
    The coordinates generate the maximal ideal m_O of O and have least order
    m_i on branch i, so m_O O' is the ideal of the u^(m_i) O' and T = m_O M.
    Hence the finitely generated O-module N = (O + M)/O satisfies N = m_O N,
    and Nakayama's lemma (Matsumura, Commutative Ring Theory, Thm 2.2) gives
    N = 0, i.e. M c O. So T c O and delta is the codimension, exactly. The
    certificate is a count: ``_jet_span`` lays the window out last, and a
    row's pivot is its least column, so the rows with a pivot in the window
    are a basis of the intersection of S with the span of the window, which
    lies in S exactly when they number m_1 + ... + m_r.

    The closure runs on integers. Each coordinate's jets, on all branches at
    once, are scaled by the lcm of their denominators. A coordinate times a
    nonzero constant generates the same algebra, so S, its rank and the
    certificate are unchanged; every vector the closure meets is a nonzero
    multiple of the one it meets with the unscaled coordinates, so the same
    vectors are independent, in the same order.

    The certificate holds exactly when J_i - m_i >= c_i for every i, where
    (u^(c_1), ..., u^(c_r)) O' is the conductor of O in O': a certificate
    puts the O'-ideal M in O, hence in the conductor, and the conductor
    holds every unit jet of the window. So each branch has its own least
    jet order c_i + m_i, and its first J_i estimates it from the value
    semigroups; that decides only how much work is done. On branch i, the
    orders of the coordinate jets in echelon form (pivots by least exponent)
    generate a semigroup G'_i inside the value semigroup G_i. If
    gcd(G'_i) = 1 then gcd(G_i) = 1, so the branch map is birational, and
    G'_i c G_i gives c(G_i) <= c(G'_i): one branch certifies at
    J_1 = c(G'_1) + m_1. For r > 1 branches of a plane curve,
    c_i = c(G_i) + the sum over j != i of (B_i . B_j) (Casas-Alvero,
    Singularities of Plane Curves), each intersection number being at least
    m_i m_j, with equality for distinct tangents. So the estimate is
    c(G'_i) + m_i, plus m_i (m_1 + ... + m_r - m_i) when the tangents (the
    coefficient vectors of u^(m_i)) span at most a plane. As c(G'_i) bounds
    c(G_i) from above and m_i m_j bounds (B_i . B_j) from below, this is only
    an estimate: the certificate alone decides. J_i starts there, at most
    JET_ORDER_CAP, or at 2 m_i if that is larger or gcd(G'_i) is above 1. A
    failed count says only that some estimate J_i - m_i was too small, so
    every J_i becomes 2 J_i - m_i, at most JET_ORDER_CAP: J_i - m_i doubles
    from m_i or more, so every branch reaches the cap within
    ceil(log2 JET_ORDER_CAP) + 1 spans.

    A larger J_k, k != i, only refines the truncation, so a unit jet of
    branch i's window that is not in S stays out at every larger J_k. So
    when a count fails with every J_i at the cap, or with a capped branch
    whose window ``RowSpace.contains`` finds incomplete, no jet orders within
    the cap certify; otherwise a branch below the cap lacks its window, and
    the ladder goes on. This fails for two branches on the same image (delta
    infinite), for a map that is not a normalization, or for a finite delta
    whose conductor lies past the cap, such as that of (u^17, u^19). A
    branch of order above JET_ORDER_CAP / 2 leaves no jet order to try. The
    error then states the jet order that was not certified and names no
    cause.
    """
    for b in branches:
        g = b.exponent_gcd()
        if g > 1:
            raise ComputationError(
                f"branch exponent gcd {g} > 1: parametrization is not a normalization"
            )
    # coordinates[k][i]: the u-jet of coordinate k on branch i, times the lcm D
    # of its denominators on all branches. A coordinate that vanishes on every
    # branch is left out: it takes every vector to 0.
    coordinates = []
    for on_branches in zip(*[b.jets for b in branches]):
        if any(pairs for _, pairs in on_branches):
            D = math.lcm(*[d for d, _ in on_branches])
            coordinates.append([
                pairs if d == D else tuple((e, c * (D // d)) for e, c in pairs)
                for d, pairs in on_branches
            ])
    # two branches have the same parametrization exactly when their scaled
    # jets are the same
    seen = {}
    for i, branch_jets in enumerate(zip(*coordinates)):
        if branch_jets in seen:
            raise ComputationError(
                f"branches {seen[branch_jets]} and {i} have the same parametrization"
            )
        seen[branch_jets] = i
    orders = [b.u_order() for b in branches]
    M = max(orders)
    if 2 * M > JET_ORDER_CAP:
        raise ComputationError(
            f"delta not certified within JET_ORDER_CAP = {JET_ORDER_CAP}: branch order "
            f"{M} needs jet order {2 * M} for the certificate"
        )
    Js = [2 * m if J is None else max(2 * m, min(JET_ORDER_CAP, J))
          for m, J in zip(orders, _first_jet_orders(coordinates, orders))]
    size = sum(orders)  # of the window
    while True:
        span = _jet_span(coordinates, orders, Js)
        window = sum(Js) - size  # its first column
        if len([p for p in span.rows if p >= window]) == size:
            return sum(Js) - span.rank
        if min(Js) == JET_ORDER_CAP or not all(
            span.contains({window + sum(orders[:i]) + t: 1})
            for i, (m, J) in enumerate(zip(orders, Js)) if J == JET_ORDER_CAP
            for t in range(m)
        ):
            raise ComputationError(
                f"delta not certified within JET_ORDER_CAP = {JET_ORDER_CAP}: at the "
                f"last jet order tried, J = {JET_ORDER_CAP}, the unit jets u^j e_i with "
                "J - m_i <= j < J are not all in the span"
            )
        Js = [min(2 * J - m, JET_ORDER_CAP) for J, m in zip(Js, orders)]


class CurveInvariants(
    namedtuple("CurveInvariants", "m r delta_red epsilon delta mu_red mu")
):
    """The full invariant record of a generically reduced curve germ."""

    __slots__ = ()

    def __new__(cls, m, r, delta_red, epsilon, delta, mu_red, mu):
        if mu_red != 2 * delta_red - r + 1:
            raise InternalCheckError("mu_red identity violated")
        if delta != delta_red - epsilon:
            raise InternalCheckError("delta identity violated")
        if mu != mu_red - 2 * epsilon:
            raise InternalCheckError("mu identity violated")
        if min(m, r, delta_red, epsilon, mu_red) < 0:
            raise InternalCheckError("negative invariant")
        return super().__new__(cls, m, r, delta_red, epsilon, delta, mu_red, mu)

    @classmethod
    def derived(cls, m, r, delta_red, epsilon) -> "CurveInvariants":
        """The record with these four fields and the three that follow from them
        by the paper's identities: delta = delta_red - epsilon,
        mu_red = 2 * delta_red - r + 1 and mu = mu_red - 2 * epsilon."""
        mu_red = 2 * delta_red - r + 1
        return cls(m, r, delta_red, epsilon, delta_red - epsilon, mu_red, mu_red - 2 * epsilon)


def invariants(C: CurvePresentation) -> CurveInvariants:
    """All invariants of the germ. epsilon is certified from the ideal and the
    branches by ``localdim.epsilon``, after ``delta_reduced``, whose certificate
    that argument needs; a curve given by its branches alone is reduced, with
    epsilon = 0."""
    m = sum(b.u_order() for b in C.branches)  # blind to the embedded component
    d_red = delta_reduced(C.branches)
    eps = 0
    if C.ideal is not None:
        from .localdim import epsilon

        eps = epsilon(C.ideal, C.branches)
    return CurveInvariants.derived(m, len(C.branches), d_red, eps)
