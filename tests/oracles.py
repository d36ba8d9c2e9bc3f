"""Independent routes that only tests use: polynomial substitution, the sort
keys of the monomial orders as the hand-written tuples they were before the
orders became rows of signed degrees, the delta invariant of a monomial branch
counted as the gaps of its semigroup, the delta invariant with one jet order
for every branch, the expression parser as it was before
it carried plain term dicts, the gcds by Euclid over Q, the specialization of
a family component term by term in Fractions, the local length of an
m-primary ideal from global bases of its truncations, the doubling ladder of
local lengths that ``localdim.epsilon`` read epsilon off before it took every
rung from one standard basis, seeded curve fibers with their primary
decompositions, and the primary decompositions of the corpus fibers; the
decompositions check both routes of epsilon."""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

from equicurve.curveinv import BranchParam
from equicurve.errors import ComputationError, HypothesisError, InternalCheckError, ParseError
from equicurve.gb import Ideal, std_basis
from equicurve.linalg import RowSpace
from equicurve.poly import (
    DEGREVLEX, MAX_EXPONENT, MAX_NESTING, MAX_TERM_PRODUCTS, Polynomial, VarSet, _add_terms, _mul_terms,
    _power_terms, parse_poly,
)

from gb_reference import OracleBudgetError


def substitute(f: Polynomial, mapping, target=None) -> Polynomial:
    """Evaluate f with each variable replaced by a polynomial over ``target``.

    Variables absent from ``mapping`` must exist in the target ring and map
    to themselves.
    """
    target = target or f.ring
    images = []
    for name in f.ring.names:
        if name in mapping:
            img = mapping[name]
            if not isinstance(img, Polynomial):
                img = Polynomial.const(target, img)
            images.append(img)
        else:
            images.append(Polynomial.var(target, name))
    result = Polynomial.zero(target)
    pow_cache = [dict() for _ in images]
    for m, c in f.terms.items():
        part = Polynomial.const(target, c)
        for i, e in enumerate(m):
            if e == 0:
                continue
            if e not in pow_cache[i]:
                pow_cache[i][e] = images[i] ** e
            part = part * pow_cache[i][e]
        result = result + part
    return result


def order_on_branch(g: Polynomial, b) -> int | None:
    """ord_u g(x(u)) on the branch b, by ``substitute`` in ``Fraction``
    arithmetic, or None when g vanishes on b; the reference for
    ``curveinv.orders_on``."""
    h = substitute(g, dict(zip(g.ring.names, b.components)), b.components[0].ring)
    return h.min_degree() if h else None


# -- monomial orders as hand-written tuple keys --------------------------------------


def _drl_key(m):
    # Degree first; revlex tie-break: the last variable with a difference decides,
    # with the smaller exponent winning.
    return (sum(m), tuple(-e for e in reversed(m)))


def degrevlex_key(m):
    return _drl_key(m)


def negdegrevlex_key(m):
    return (-sum(m), tuple(-e for e in reversed(m)))


def last_first_key(m):
    return (-m[-1], negdegrevlex_key(m[:-1]))


def elimination_key(block):
    return lambda m: (_drl_key(m[:block]), _drl_key(m[block:]))


def semigroup_delta_oracle(b) -> int:
    """Gap count of the numerical semigroup generated by the exponents of a
    branch whose components are single monomials (or zero)."""
    comps = [c for c in b.components if not c.is_zero()]
    if any(len(c.terms) != 1 for c in comps):
        raise ComputationError("oracle needs a branch with single-monomial components")
    exps = sorted({c.min_degree() for c in comps})
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


def uniform_delta_oracle(branches, cap=48) -> int:
    """delta_red of distinct branches with one jet order J for every branch:
    r * J minus the rank of the closure of 1 under the coordinates in r copies
    of Q[u]/u^J, column i * J + j standing for u^j on branch i, once every
    unit jet u^j e_i with J - m_i <= j < J lies in the span. J starts at twice
    the largest branch order and doubles; past cap, as for two branches with
    one image, it raises ``OracleBudgetError``."""
    r = len(branches)
    coordinates = [
        [{e: c for (e,), c in comp.terms.items()} for comp in on_branches]
        for on_branches in zip(*[b.components for b in branches])
    ]
    orders = [b.u_order() for b in branches]
    J = 2 * max(orders)
    while J <= cap:
        span = RowSpace()
        queue = [{i * J: 1 for i in range(r)}]
        span.add(queue[0])
        while queue:
            vec = queue.pop()
            for coordinate in coordinates:
                prod = {}
                for col, v in vec.items():
                    i, j = divmod(col, J)
                    for e, c in coordinate[i].items():
                        if j + e < J:
                            prod[col + e] = prod.get(col + e, 0) + v * c
                prod = {col: v for col, v in prod.items() if v}
                if prod:
                    d = math.lcm(*[Fraction(v).denominator for v in prod.values()])
                    prod = {col: int(v * d) for col, v in prod.items()}
                    if span.add(prod):
                        queue.append(prod)
        if all(span.contains({i * J + j: 1}) for i, m in enumerate(orders) for j in range(J - m, J)):
            return r * J - span.rank
        J *= 2
    raise OracleBudgetError(f"delta not certified at J <= {cap}")


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))"
)


def truncated_vdim(Q: Ideal, max_k: int = 64) -> int:
    """Length of the local ring of Q at the origin, for Q primary to the
    maximal ideal m, from ``DEGREVLEX`` bases only.

    d_k = dim Q[x]/(Q + m^k) grows with k. At the first k with d_k = d_(k+1),
    Q + m^k = Q + m^(k+1), so m^k lies in Q + m*m^k and, by Nakayama's lemma,
    in Q locally. Then the local ring of Q is that of Q + m^k, which is
    supported only at the origin, so its length is d_k: the monomials of
    degree below k that no leading monomial divides.
    """
    ring, n = Q.ring, len(Q.ring)

    def of_degree(d):
        for c in itertools.combinations_with_replacement(range(n), d):
            yield tuple(c.count(i) for i in range(n))

    previous = None
    for k in range(1, max_k + 1):
        powers = [Polynomial.monomial(ring, m) for m in of_degree(k)]
        leads = std_basis(Ideal(list(Q.gens) + powers, ring), DEGREVLEX).lead_monomials
        d_k = sum(
            not any(all(map(int.__le__, l, m)) for l in leads)
            for d in range(k)
            for m in of_degree(d)
        )
        if d_k == previous:
            return d_k
        previous = d_k
    raise ComputationError(f"dim Q[x]/(Q + m^k) still grows at k = {max_k}: is Q m-primary?")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
            break
        if m.lastgroup == "num":
            try:
                tokens.append(("num", int(m.group("num"))))
            except ValueError:  # past the interpreter's limit on digits
                raise ParseError(f"number literal of {m.end() - m.start()} characters is too long") from None
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


def _words(c: Fraction) -> int:
    return 1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64


def _power(p: Polynomial, n: int, multiply) -> Polynomial:
    """p**n by repeated squaring, each product done by ``multiply``."""
    if len(p.terms) == 1:
        ((m, c),) = p.terms.items()
        out = Polynomial(p.ring)
        out.terms = {tuple(e * n for e in m): c**n}
        return out
    result = Polynomial.const(p.ring, 1)
    base = p
    while n:
        if n & 1:
            result = multiply(result, base)
        base = multiply(base, base) if n > 1 else base
        n >>= 1
    return result


class OracleParser:
    """The reference parser: every atom is a Polynomial and every step is
    Fraction arithmetic. Same grammar, budgets and error texts as
    ``equicurve.poly.parse_poly``.

    Recursive descent over: expr := term (+|- term)*; term := unary (* unary)*;
    unary := (+|-)* power; power := atom [^ num]; atom := rational | ident | ( expr ).

    Each rule returns the polynomial and the largest exponent applied to an
    atom inside it, counted through nested powers (see MAX_EXPONENT)."""

    def __init__(self, text, ring):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} in {self.text!r}")

    def multiply(self, p, q):
        coeffs = itertools.chain(p.terms.values(), q.terms.values())
        size = len(p.terms) * len(q.terms) * max(map(_words, coeffs), default=1)
        if size > MAX_TERM_PRODUCTS:
            raise ParseError(
                f"a multiplication of {size} term products exceeds "
                f"MAX_TERM_PRODUCTS = {MAX_TERM_PRODUCTS} in {self.text!r}"
            )
        return p * q

    def parse(self):
        p, _ = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input in {self.text!r}")
        return p

    def expr(self):
        p, w = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            q, wq = self.term()
            p = p + q if op == "+" else p - q
            w = max(w, wq)
        return p, w

    def term(self):
        p, w = self.unary()
        while self.peek() == ("op", "*"):
            self.next()
            q, wq = self.unary()
            p = self.multiply(p, q)
            w = max(w, wq)
        return p, w

    def unary(self):
        negate = False
        while self.peek() in (("op", "-"), ("op", "+")):
            negate ^= self.next()[1] == "-"
        p, w = self.power()
        return (-p if negate else p), w

    def power(self):
        base, w = self.atom()
        if self.peek() != ("op", "^"):
            return base, w
        self.next()
        kind, val = self.peek()
        if kind == "op" and val == "-":
            raise ParseError(f"negative exponent in {self.text!r}")
        kind, n = self.next()
        if kind != "num":
            raise ParseError(f"exponent must be an integer literal in {self.text!r}")
        if w * n > MAX_EXPONENT:
            raise ParseError(
                f"exponent {w * n} exceeds MAX_EXPONENT = {MAX_EXPONENT} in {self.text!r}"
            )
        return _power(base, n, self.multiply), w * n

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            if self.peek() == ("op", "/"):
                self.next()
                kind2, den = self.next()
                if kind2 != "num":
                    raise ParseError(f"malformed rational literal in {self.text!r}")
                if den == 0:
                    raise ParseError("zero denominator")
                val = Fraction(val, den)
            return Polynomial.const(self.ring, val), _words(Fraction(val))
        if kind == "ident":
            if val not in self.ring:
                raise ParseError(f"unknown variable {val!r} (ring has {self.ring.names})")
            return Polynomial.var(self.ring, val), 1
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise ParseError(f"malformed expression {self.text!r}")


def oracle_parse(text: str, ring) -> Polynomial:
    return OracleParser(text, ring).parse()


# -- gcds by Euclid over Q ---------------------------------------------------
# A polynomial in Q[t] is a list of Fractions, lowest degree first, with no
# trailing zero; [] is zero. A polynomial in Q[t][u] is a list of those, lowest
# u-degree first.


def uni_divmod(a, b):
    """Quotient and remainder of a by a nonzero b in Q[t]."""
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        c = r[-1] / lead
        k = len(r) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
        while r and not r[-1]:
            r.pop()
    return q, r


def rational_uni_gcd(a, b):
    """Monic gcd of a and b in Q[t] by Euclid's algorithm; [] when both are zero."""
    while b:
        a, b = b, uni_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def _rational_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _rational_primitive(A):
    """The content of A in Q[t][u], the monic gcd of its coefficients, and A
    divided by it."""
    content = []
    for c in A:
        content = rational_uni_gcd(content, c)
    return content, [uni_divmod(c, content)[0] for c in A]


def _rational_sub(a, b):
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
           for i in range(max(len(a), len(b)))]
    while out and not out[-1]:
        out.pop()
    return out


def _rational_pseudo_remainder(A, B):
    """A remainder of A by B in Q[t][u], up to a factor in Q[t]: while
    deg_u A >= deg_u B, A becomes lc(B)*A - lc(A)*u^k*B."""
    R = list(A)
    while len(R) >= len(B):
        k = len(R) - len(B)
        top = R[-1]
        R = [_rational_mul(B[-1], c) for c in R]
        for i, c in enumerate(B):
            R[i + k] = _rational_sub(R[i + k], _rational_mul(top, c))
        while R and not R[-1]:
            R.pop()
    return R


def rational_bivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The gcd of f and g in Q[x, y], monic in its highest power of x and then
    of y: a primitive remainder sequence in Q[y][x] whose contents are taken by
    Euclid in Q[y]."""
    ring = f.ring

    def recursive(p):
        A = [[] for _ in range(max((a for a, _ in p.terms), default=-1) + 1)]
        for (a, b), c in p.terms.items():
            A[a].extend([Fraction(0)] * (b + 1 - len(A[a])))
            A[a][b] = c
        return A

    cf, A = _rational_primitive(recursive(f))
    cg, B = _rational_primitive(recursive(g))
    while B:  # if deg_u A < deg_u B, the first step swaps them
        A, B = B, _rational_primitive(_rational_pseudo_remainder(A, B))[1]
    content = rational_uni_gcd(cf, cg)
    terms = {(a, b): x for a, c in enumerate(A) for b, x in enumerate(_rational_mul(content, c)) if x}
    out = Polynomial(ring)
    if terms:
        scale = terms[max(terms)]
        out.terms = {m: c / scale for m, c in terms.items()}
    return out


# -- specialization of a family component ------------------------------------


def specialize_by_terms(component, t0) -> BranchParam:
    """The branch of the fiber at t = t0 of a family component, evaluated term
    by term in Fractions: c * u^a * t^b gives c * t0^b * u^a."""
    t0 = Fraction(t0)
    comps = []
    for p in component.param:
        terms = {}
        for (a, b), c in p.terms.items():
            s = terms.get((a,), 0) + c * t0**b
            if s:
                terms[(a,)] = s
            else:
                terms.pop((a,), None)
        q = Polynomial(VarSet(("u",)))
        q.terms = terms
        comps.append(q)
    if all(q.is_zero() for q in comps):
        raise ComputationError(
            f"component {component.label!r} specializes to the zero branch at t = {t0}"
        )
    return BranchParam(comps, label=component.label)


# -- the doubling ladder of epsilon ---------------------------------------------

# The largest N of the ladder, which doubles N from 1.
LADDER_BUDGET = 128


def ladder_coordinates(I: Ideal, branches):
    """(l, e, J): the linear form l that ``localdim.epsilon`` takes, rendered,
    the sum e of its orders on the branches, and I in coordinates where l is
    the last variable: x_j, the last variable l involves, is replaced by
    (l - sum_(k != j) c_k x_k) / c_j in ``Fraction`` arithmetic."""
    ring, r, n = I.ring, len(branches), len(I.ring)
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    powers = (tuple(k**s for k in range(1, n + 1)) for s in itertools.count(1))
    for form in itertools.islice(itertools.chain(units, powers), r * (n - 1) + 1):
        l = Polynomial(ring, {units[k]: c for k, c in enumerate(form) if c})
        orders = [order_on_branch(l, b) for b in branches]
        if None not in orders:
            break
    else:
        raise InternalCheckError("every candidate form vanishes on some branch")
    shown = l.render()
    j = max(k for k, c in enumerate(form) if c)
    x_j = {units[k]: Fraction(1 if k == j else -c, form[j]) for k, c in enumerate(form) if c}
    gens = []
    for g in I.gens:
        terms = {}
        for m, c in g.terms.items():
            _add_terms(terms, _mul_terms({m[:j] + (0,) + m[j + 1:]: c}, _power_terms(x_j, m[j], n)))
        gens.append(Polynomial(ring, {m[:j] + m[j + 1:] + (m[j],): c for m, c in terms.items()}))
    return shown, sum(orders), Ideal(gens, ring)


def ladder_values(I: Ideal, branches, budget=LADDER_BUDGET):
    """The rungs (N, D(N)) of the ladder, D(N) = vdim(I + <l^N>) - N*e with
    ``ladder_coordinates``, for N = 1, 2, 4, ... until two consecutive values
    are equal (the last two then are) or N passes ``budget``; each rung is a
    standard basis of its own. HypothesisError if vdim(I + <l>) is infinite."""
    from equicurve.localdim import vdim

    shown, e, J = ladder_coordinates(I, branches)
    ring, rungs, N = J.ring, [], 1
    while N <= budget:
        length = vdim(Ideal(J.gens + (Polynomial.var(ring, ring.names[-1], N),), ring))
        if length is None:
            raise HypothesisError(
                f"V(I) has a component other than the branches: vdim(I + <{shown}>) is "
                f"infinite, and {shown} vanishes on no branch"
            )
        rungs.append((N, length - N * e))
        if len(rungs) > 1 and rungs[-1][1] == rungs[-2][1]:
            break
        N *= 2
    return rungs


def ladder_epsilon(I: Ideal, branches, budget=LADDER_BUDGET) -> int:
    """epsilon by the doubling ladder: the first D(N) = D(2N) (``localdim.epsilon``
    gives the argument), or ComputationError past ``budget``."""
    rungs = ladder_values(I, branches, budget)
    if len(rungs) < 2 or rungs[-1][1] != rungs[-2][1]:
        raise ComputationError(
            f"the epsilon ladder did not repeat for N = 1, 2, 4, ..., {rungs[-1][0]} "
            f"(LADDER_BUDGET = {budget})"
        )
    return rungs[-1][1]


# -- seeded curve fibers ------------------------------------------------------------

_XYZ = VarSet(("x", "y", "z"))
_U = VarSet(("u",))


def _branch(*comps):
    return BranchParam([parse_poly(c, _U) for c in comps])


def _ideal(*gens):
    return Ideal([parse_poly(g, _XYZ) for g in gens], _XYZ)


def _monomial_branch(rng):
    """A branch u^a, u^b on two coordinates, 0 on the third, gcd(a, b) = 1,
    and its prime."""
    a = rng.randint(2, 4)
    b = rng.choice([b for b in range(a + 1, 8) if math.gcd(a, b) == 1])
    i, j, k = rng.sample(range(3), 3)
    comps = ["0"] * 3
    comps[i], comps[j] = f"u^{a}", f"u^{b}"
    x = _XYZ.names
    return _branch(*comps), _ideal(x[k], f"{x[j]}^{a} - {x[i]}^{b}")


def _line_branch(rng):
    """A line through the origin with a small integer direction, and its prime."""
    d = [0, 0, 0]
    while not any(d):
        d = [rng.randint(-2, 2) for _ in range(3)]
    x = _XYZ.names
    minors = [f"{d[j]}*{x[i]} - {d[i]}*{x[j]}" for i in range(3) for j in range(i + 1, 3)]
    return _branch(*[f"{c}*u" for c in d]), Ideal(
        [g for g in (parse_poly(m, _XYZ) for m in minors) if not g.is_zero()], _XYZ)


def _on(b, P):
    """Whether every generator of P vanishes on the branch b."""
    return all(order_on_branch(g, b) is None for g in P.gens)


def seeded_fiber(seed):
    """I = P meet Q in (x, y, z): P the ideal of one or two monomial or line
    branches with distinct images, Q an m-primary ideal; the branches, I, the
    primes and Q."""
    from functools import reduce

    from equicurve.gb import ideal_intersect

    rng = random.Random(seed)
    branches, primes = [], []
    for _ in range(rng.randint(1, 2)):
        b, P = rng.choice((_monomial_branch, _line_branch))(rng)
        while any(_on(b, earlier) for earlier in primes):  # the same image
            b, P = rng.choice((_monomial_branch, _line_branch))(rng)
        branches.append(b)
        primes.append(P)
    mixed = [0, 0, 0]
    while not any(mixed):
        mixed = [rng.randint(0, 2) for _ in range(3)]
    Q = Ideal([Polynomial.var(_XYZ, v, rng.randint(1, 4)) for v in _XYZ.names]
              + [Polynomial.monomial(_XYZ, mixed)], _XYZ)
    return branches, ideal_intersect(reduce(ideal_intersect, primes), Q), primes, Q


# -- primary decompositions of the corpus fibers --------------------------------


def _cusp_series_decomposition(k, s):
    """The decomposition of the special fiber of (u^3, u^s, t*u), s = 3k + 1
    or 3k + 2, as the corpus gives its ideal."""
    if s == 3 * k + 1:
        embedded = [f"x^{s}", f"x^{k}*z", "y^2", "y*z^2", "z^3"]
    else:
        embedded = [f"x^{s}", f"x^{2 * k + 1}*z", f"x^{k}*z^2", "y", "z^3"]
    return {"primes": [["z", f"y^3-x^{s}"]], "embedded": embedded}


# Minimal primes and the m-primary embedded component of the ideal of each
# corpus curve and special fiber, by entry name: the input field they were
# before epsilon came from the ideal and the branches alone.
CORPUS_DECOMPOSITIONS = {
    "space-cusp-with-embedded-point": {
        "primes": [["z", "y^3-x^4"]],
        "embedded": ["x^4", "x*z", "y^2", "y*z^2", "z^3"],
    },
    "space-cusp-moving-tangent": {
        "primes": [["z", "y^3-x^4"]],
        "embedded": ["x^4", "x*z", "y^2", "y*z^2", "z^3"],
    },
    "space-cusp-high-order-deformation": {
        "primes": [["z", "y^3-x^4"]],
        "embedded": ["x^4", "x*z", "y", "z^2"],
    },
    **{
        f"space-cusp-3-{s}-moving-tangent": _cusp_series_decomposition(k, s)
        for k in (1, 2, 3)
        for s in (3 * k + 1, 3 * k + 2)
    },
    "five-lines-splitting-family": {
        "primes": [
            ["y", "z", "w", "v"],
            ["x", "z", "w", "v"],
            ["x+y", "z", "w", "v"],
            ["x", "y", "w", "v"],
            ["x", "y", "z", "w"],
        ],
        "embedded": ["x", "y", "z", "v", "w^2"],
    },
}


def corpus_fibers():
    """(name, branches, ideal, minimal primes, embedded component) of every
    corpus curve and special fiber, the branches of a parametrized family
    being its components at t = 0."""
    from equicurve import corpus
    from equicurve.family import RING_UT, FamilyComponent

    u = VarSet(("u",))
    out = []
    for manifest in corpus.MANIFESTS:
        ring = VarSet(tuple(manifest["ring"]))

        def ideal(gens):
            return Ideal([parse_poly(g, ring) for g in gens], ring)

        for entry in manifest["entries"]:
            node = entry if entry["kind"] == "curve" else entry["special_fiber"]
            if "branches" in node:
                branches = [BranchParam([parse_poly(c, u) for c in b], label=f"{i}")
                            for i, b in enumerate(node["branches"])]
            else:
                branches = [
                    FamilyComponent([parse_poly(c, RING_UT) for c in comps]).specialize(0)
                    for comps in entry["components"]
                ]
            dec = CORPUS_DECOMPOSITIONS[entry["name"]]
            out.append((entry["name"], branches, ideal(node["ideal"]),
                        [ideal(P) for P in dec["primes"]], ideal(dec["embedded"])))
    return out
