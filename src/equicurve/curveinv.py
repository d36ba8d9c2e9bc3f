"""Invariants of a curve germ from branch parametrizations: multiplicity, branch
count, the delta invariant via jet-space linear algebra, and Milnor numbers.

The delta computation embeds the local ring into the product of truncated
power series rings of the branches, as the closure of 1 under multiplication
by the coordinates, and measures the codimension of that span; a certificate
by Nakayama's lemma makes the truncation exact (see ``delta_reduced``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import namedtuple

from .errors import ComputationError, InternalCheckError
from .gb import Ideal
from .linalg import RowSpace
from .localdim import PrimaryDecomposition, epsilon_from_decomposition

JET_ORDER_CAP = 256


class BranchParam:
    """One branch of a curve germ: a tuple of polynomials in u vanishing at u = 0.

    ``jets`` holds the terms of each component, read once, as a pair
    (d, pairs): d is the lcm of the denominators of its coefficients, and pairs
    are (exponent, coefficient times d) in increasing exponent order.
    """

    __slots__ = ("components", "label", "jets")

    def __init__(self, components, label=""):
        components = tuple(components)
        if not components:
            raise ValueError("branch needs at least one component")
        # *args from lists, here and in gcd: CPython resizes the tuple made from a
        # generator, and the small free lists that keep such tuples raise peak RSS
        jets = []
        for comp in components:
            d = math.lcm(*[c.denominator for c in comp.terms.values()])
            jets.append((d, tuple(sorted(
                (sum(m), c.numerator * (d // c.denominator)) for m, c in comp.terms.items()))))
        if not any(pairs for _, pairs in jets):
            raise ComputationError("all-zero branch")
        if any(pairs and pairs[0][0] == 0 for _, pairs in jets):
            raise ComputationError("branch does not pass through the origin")
        self.components = components
        self.label = label
        self.jets = tuple(jets)

    @property
    def ambient_dim(self):
        return len(self.components)

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


class CurvePresentation:
    """A curve germ: branches of the reduced structure plus optional embedded data."""

    __slots__ = ("branches", "ideal", "decomposition")

    def __init__(self, branches, ideal: Ideal | None = None,
                 decomposition: PrimaryDecomposition | None = None):
        if not branches:
            raise ValueError("curve needs at least one branch")
        if len({b.ambient_dim for b in branches}) != 1:
            raise ComputationError("branches with mismatched ambient dimensions")
        self.branches = branches
        self.ideal = ideal
        self.decomposition = decomposition


def _times_coordinate(vec, jet_at, end_at):
    """vec in the direct sum of Q[u]/u^J (column i*J + j is u^j on branch i)
    times one coordinate: jet_at[col] is its jet on the branch of column col,
    and end_at[col] the first column past that branch."""
    out = {}
    for col, c in vec.items():
        end = end_at[col]
        for e, a in jet_at[col]:
            k = col + e
            if k >= end:
                break
            s = out.get(k, 0) + c * a
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _pivots(vectors):
    """Yield, for each integer vector {column: value} independent of those before
    it, the pivot (least column) it takes in an echelon form."""
    rows = {}
    for vec in vectors:
        vec = {col: v for col, v in vec.items() if v}
        while vec and min(vec) in rows:
            p = min(vec)
            row, c = rows[p], vec[p]
            vec = {col: s for col in vec.keys() | row.keys()
                   if (s := row[p] * vec.get(col, 0) - c * row.get(col, 0))}
        if vec:
            p = min(vec)
            rows[p] = vec
            yield p


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


def _first_jet_order(coordinates, orders):
    """The jet order the value semigroups predict for the certificate, or None
    when the coordinate jets of some branch have orders with gcd above 1 (see
    ``delta_reduced``)."""
    conductors, tangents = [], []
    for i, m in enumerate(orders):
        jets = [dict(coordinate[i]) for coordinate in coordinates]
        c = 0 if m == 1 else semigroup_conductor(list(_pivots(jets)))  # smooth: G = N
        if c is None:
            return None
        conductors.append(c)
        tangents.append({k: jet.get(m, 0) for k, jet in enumerate(jets)})
    plane = len(list(itertools.islice(_pivots(tangents), 3))) <= 2
    total = sum(orders)
    return max(c + m + plane * m * (total - m) for c, m in zip(conductors, orders))


def delta_reduced(branches) -> int:
    """Delta invariant of the reduced curve with the given branches, exactly.

    Let O be the local ring of the curve and O' = Q[[u]]^r the ring of its
    normalization, branch i having order m_i (the least u-order of its
    coordinates). For a jet order J the image S of O in O'/u^J O', the direct
    sum of r copies of Q[u]/u^J, is the closure of the diagonal 1 under
    multiplication by each coordinate's jet: every coordinate has positive
    order on every branch, so a monomial of degree J or more vanishes there.
    Only products independent of the span so far are multiplied further, so
    the work is at most rank(S) times the number of coordinates products. The
    codimension r*J - rank(S) = dim O'/(O + u^J O') is at most delta.

    Certificate: every unit jet u^j e_i with J - m_i <= j < J lies in S.
    Then the ideal M = (u^(J - m_1), ..., u^(J - m_r)) O' of O', which these
    jets span modulo u^J O', satisfies M c O + u^J O'. The coordinates
    generate the maximal ideal m_O of O and have least order m_i on branch i,
    so m_O O' = (u^(m_1), ..., u^(m_r)) O' and u^J O' = m_O M. Hence the
    finitely generated O-module N = (O + M)/O satisfies N = m_O N, and
    Nakayama's lemma (Matsumura, Commutative Ring Theory, Thm 2.2) gives
    N = 0, i.e. M c O. So u^J O' c O and delta is the codimension, exactly.

    The closure runs on integers. Each coordinate's jets, on all branches at
    once, are scaled by the lcm of their denominators. A coordinate times a
    nonzero constant generates the same algebra, so S, its rank and the
    certificate are unchanged; every vector the closure meets is a nonzero
    multiple of the one it meets with the unscaled coordinates, so the same
    vectors are independent, in the same order.

    The certificate holds at J exactly when J - m_i >= c_i for every i, where
    (u^(c_1), ..., u^(c_r)) O' is the conductor of O in O': a certificate puts
    the O'-ideal M in O, hence in the conductor, and the conductor holds every
    unit jet of the range. So the least certifying J is max(c_i + m_i), and
    the first J tried estimates it from the value semigroups; it decides only
    how much work is done. On branch i, the orders of the coordinate jets in
    echelon form (pivots by least exponent) generate a semigroup G'_i inside
    the value semigroup G_i. If gcd(G'_i) = 1 then gcd(G_i) = 1, so the branch
    map is birational, and G'_i c G_i gives c(G_i) <= c(G'_i): one branch
    certifies at J = c(G'_1) + m_1. For r > 1 branches of a plane curve,
    c_i = c(G_i) + the sum over j != i of (B_i . B_j) (Casas-Alvero,
    Singularities of Plane Curves), each intersection number being at least
    m_i m_j, with equality for distinct tangents. So J_i = c(G'_i) + m_i, plus
    m_i (m_1 + ... + m_r - m_i) when the tangents (the coefficient vectors of
    u^(m_i)) span at most a plane. As c(G'_i) bounds c(G_i) from above and
    m_i m_j bounds (B_i . B_j) from below, J_i is only an estimate: the
    certificate alone decides. J starts at the largest J_i, at most
    JET_ORDER_CAP, or at twice the largest branch order if that is larger or
    some gcd(G'_i) is above 1, and doubles up to JET_ORDER_CAP while the
    certificate fails.

    The certificate can still fail at the cap: for two branches on
    the same image (delta infinite), for a map that is not a normalization,
    or for a finite delta whose conductor lies past the cap, such as that of
    (u^17, u^19). A branch of order above JET_ORDER_CAP / 2 leaves no jet
    order to try. The error then states the jet order that was not certified
    and names no cause.
    """
    for b in branches:
        g = b.exponent_gcd()
        if g > 1:
            raise ComputationError(
                f"branch exponent gcd {g} > 1: parametrization is not a normalization"
            )
    r = len(branches)
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
    J = 2 * max(orders)
    first = _first_jet_order(coordinates, orders)
    if first is not None:
        J = max(J, min(JET_ORDER_CAP, first))
    while J <= JET_ORDER_CAP:
        # per column: each coordinate's jet on its branch, and the branch's end
        jet_at = [[] for _ in coordinates]
        end_at = []
        for i in range(r):
            for on_columns, coordinate in zip(jet_at, coordinates):
                on_columns += [coordinate[i]] * J
            end_at += [(i + 1) * J] * J
        span = RowSpace()
        queue = [{i * J: 1 for i in range(r)}]
        span.add(queue[0])
        while queue:
            vec = queue.pop()
            for on_columns in jet_at:
                prod = _times_coordinate(vec, on_columns, end_at)
                if prod and span.add(prod):
                    queue.append(prod)
        if all(
            span.contains({i * J + j: 1})
            for i, m in enumerate(orders)
            for j in range(J - m, J)
        ):
            return r * J - span.rank
        if J == JET_ORDER_CAP:
            raise ComputationError(
                f"delta not certified within JET_ORDER_CAP = {JET_ORDER_CAP}: at the "
                f"last jet order tried, J = {J}, the unit jets u^j e_i with "
                "J - m_i <= j < J are not all in the span"
            )
        J = min(2 * J, JET_ORDER_CAP)
    raise ComputationError(
        f"delta not certified within JET_ORDER_CAP = {JET_ORDER_CAP}: branch order "
        f"{max(orders)} needs jet order {J} for the certificate"
    )


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


def invariants(C: CurvePresentation) -> CurveInvariants:
    """All invariants of the germ; epsilon comes from the supplied decomposition
    (zero when the curve is reduced, i.e. no embedded component declared)."""
    m = sum(b.u_order() for b in C.branches)  # blind to the embedded component
    r = len(C.branches)
    d_red = delta_reduced(C.branches)
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
