"""Exact multivariate polynomials over the rationals, monomial orders, and a text
parser with explicit budgets.

Monomials are exponent tuples aligned with a fixed ``VarSet``; polynomials are
sparse dicts mapping exponent tuples to nonzero ``Fraction`` coefficients.
All arithmetic is exact; there is no floating point anywhere in the package.
The parser works on such dicts with int coefficients, a Fraction only from an
``a/b`` literal; ``parse_poly`` makes every coefficient a Fraction in its one
Polynomial, and ``parse_integral`` gives the integral form (``integral``).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import add

from .errors import ComputationError, ParseError, RingMismatchError

Exponents = tuple  # tuple[int, ...], one entry per variable of the ring


class VarSet:
    """An ordered set of distinct variable names; fixes the ambient ring."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        if not names:
            raise ValueError("empty variable set")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.index

    def __eq__(self, other):
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarSet({', '.join(self.names)})"


def mon_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


# Arithmetic on term dicts {exponents: nonzero coefficient}, shared by
# Polynomial and the parser, whose coefficients may be ints.
def _negated(p):
    return {m: -c for m, c in p.items()}


def _add_terms(p, q):
    """p + q, computed in p."""
    for m, c in q.items():
        s = p.get(m, 0) + c
        if s:
            p[m] = s
        else:
            del p[m]
    return p


def _mul_terms(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mon_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def integral(terms):
    """(d, {m: int}): d is the lcm of the denominators of the rational (or int)
    coefficients of terms, and the dict is terms times d, in the same order."""
    # *args from a list: CPython resizes the tuple made from a generator, and the
    # small free lists that keep such tuples raise peak RSS
    d = math.lcm(*[c.denominator for c in terms.values()])
    return d, {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def _power_terms(p, n, nvars, multiply=_mul_terms):
    """p**n for n >= 0: a single term scales its exponents, a sum is raised by
    repeated squaring, each product done by ``multiply``."""
    if len(p) == 1:
        ((m, c),) = p.items()
        return {tuple(e * n for e in m): c**n}
    result = {(0,) * nvars: 1}
    while n:
        if n & 1:
            result = multiply(result, p)
        p = multiply(p, p) if n > 1 else p
        n >>= 1
    return result


class MonomialOrder:
    """A total order on monomials, as a weight matrix (Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, 1.2): monomials compare by the signed
    degree ``s * sum(m[sl])`` of each row ``(s, sl)`` of ``rows`` in turn, and
    then by the reverse lexicographic tie-break, in which the last variable with
    a difference decides and the smaller exponent wins. A larger key is a
    greater monomial; the order is global when 1 is the least monomial."""

    __slots__ = ("kind", "rows", "is_global")

    def __init__(self, kind: str, rows: tuple, is_global: bool):
        self.kind, self.rows, self.is_global = kind, rows, is_global

    def key(self, m: Exponents):
        return (*[s * sum(m[sl]) for s, sl in self.rows], tuple(-e for e in reversed(m)))

    def __repr__(self):
        return f"<order {self.kind}>"


DEGREVLEX = MonomialOrder("global-degrevlex", ((1, slice(None)),), True)
# Local: 1 is the greatest monomial, which realizes the localization at the origin.
NEGDEGREVLEX = MonomialOrder("local-negdegrevlex", ((-1, slice(None)),), False)
# Local: the smaller exponent of the last variable wins, then negdegrevlex.
LAST_FIRST = MonomialOrder("local-last-first", ((-1, slice(-1, None)), (-1, slice(None, -1))), False)


def Elimination(block: int) -> MonomialOrder:
    """The block order that eliminates the first ``block`` variables: degrevlex
    on them, ranked strictly first, then degrevlex on the rest."""
    if block < 1:
        raise ValueError("elimination block must contain at least one variable")
    # the block's own tie-break: the smaller exponent of x_(block-1), ..., x_1 wins
    revlex = tuple((-1, slice(i, i + 1)) for i in range(block - 1, 0, -1))
    return MonomialOrder(f"elimination({block})", ((1, slice(block)), *revlex, (1, slice(block, None))), True)


def order_by_name(name: str) -> MonomialOrder:
    if name in ("degrevlex", "dp", "global"):
        return DEGREVLEX
    if name in ("negdegrevlex", "ds", "local"):
        return NEGDEGREVLEX
    raise ParseError(f"unknown monomial order: {name!r}")


class Polynomial:
    """Sparse exact-rational polynomial over a fixed VarSet."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: VarSet, terms=None):
        self.ring = ring
        terms = terms or {}
        self.terms = {m: c for m, c in zip(terms, map(Fraction, terms.values())) if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def const(cls, ring, c):
        return cls(ring, {(0,) * len(ring): Fraction(c)})

    @classmethod
    def var(cls, ring, name, power=1):
        if name not in ring:
            raise ParseError(f"unknown variable {name!r} in {ring!r}")
        if power < 0:
            raise ParseError("negative exponent")
        e = [0] * len(ring)
        e[ring.index[name]] = power
        return cls(ring, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, ring, exps, coeff=1):
        return cls(ring, {tuple(exps): Fraction(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def min_degree(self):
        """Order (lowest total degree of a term); -1 for zero."""
        return min((sum(m) for m in self.terms), default=-1)

    def constant_term(self):
        return self.terms.get((0,) * len(self.ring), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.ring, other)
        self._check(other)
        out = Polynomial(self.ring)
        out.terms = _add_terms(dict(self.terms), other.terms)
        return out

    def __neg__(self):
        out = Polynomial(self.ring)
        out.terms = _negated(self.terms)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            out = Polynomial(self.ring)
            if c:
                out.terms = {m: co * c for m, co in self.terms.items()}
            return out
        self._check(other)
        out = Polynomial(self.ring)
        out.terms = _mul_terms(self.terms, other.terms)
        return out

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int):
        if n < 0:
            raise ParseError("negative exponent")
        return Polynomial(self.ring, _power_terms(self.terms, n, len(self.ring)))

    def term_mul(self, exps, coeff):
        """Multiply by a single term coeff * x^exps."""
        out = Polynomial(self.ring)
        coeff = Fraction(coeff)
        if coeff:
            out.terms = {mon_mul(m, exps): c * coeff for m, c in self.terms.items()}
        return out

    # -- leading data ------------------------------------------------------

    def leading_monomial(self, order: MonomialOrder) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def monic(self, order: MonomialOrder):
        if not self.terms:
            return self
        return self * (1 / self.terms[self.leading_monomial(order)])

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: DEGREVLEX.key(kv[0]), reverse=True)
        pieces = []
        for i, (m, c) in enumerate(items):
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.ring.names, m)
                if e
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{_number_text(mag)}*{mono}"
            else:
                body = _number_text(mag)
            if i == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.render()!r})"


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


def _number_text(x) -> str:
    """str(x); a number with more digits than the interpreter converts to text
    is a ComputationError that names that limit."""
    try:
        return str(x)
    except ValueError:
        raise ComputationError(
            "a coefficient has more digits than the interpreter's int-to-str limit "
            f"of {sys.get_int_max_str_digits()}"
        ) from None


# --- parser ----------------------------------------------------------------

# A variable name the parser reads as one token; a ring name must match it.
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# One token per match, after any space: an operator or a name, a number with
# the space before it (int() skips the space, and a too-long literal is
# measured with it), or any other character.
_TOKEN_RE = re.compile(rf"\s*([-+*^()/]|{IDENTIFIER_RE.pattern})|(\s*\d+)|\s*(\S)")
_OPERATORS = frozenset("-+*^()/")


def _tokenize(text: str):
    """The tokens of text: an int for a number, a str for a name or an
    operator, and None at the end."""
    tokens = []
    for word, num, bad in _TOKEN_RE.findall(text):
        if word:
            tokens.append(word)
        elif num:
            try:
                tokens.append(int(num))
            except ValueError:  # past the interpreter's limit on digits
                raise ParseError(f"number literal of {len(num)} characters is too long") from None
        else:
            raise ParseError(f"unexpected character {bad!r} in {text!r}")
    tokens.append(None)
    return tokens


# Budgets of parse_poly; input past one is a ParseError that names it. A number
# counts once per started 64-bit word of its numerator and denominator
# (``_words``), since arithmetic on it costs about that many small products.
# Deepest parenthesis nesting; each level costs three interpreter frames, so
# this stays well inside Python's recursion limit.
MAX_NESTING = 100
# Largest exponent, counted through nested powers and times the words of a
# number: in (a^m)^n the exponent applied to a is m*n. It bounds the degree and
# the coefficients one power can build, which no count of terms sees:
# ((2^9)^9)^9 is one term.
MAX_EXPONENT = 1000
# Most term products in one multiplication, the parser's own or one step of a
# power's repeated squaring: the operands' term counts multiplied, times the
# words of their largest coefficient. The slowest accepted input found,
# (u + t + 1/2)^43, parses in 0.3 s on a 2-vCPU VM; (u + t + 1)^43 in 0.04 s.
MAX_TERM_PRODUCTS = 50_000


def _words(c) -> int:
    return 1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64


class _Parser:
    """Recursive descent over: expr := term (+|- term)*; term := factor (* factor)*;
    factor := (+|-)* atom [^ num]; atom := rational | ident | ( expr ).

    Each rule returns a term dict {exponents: nonzero coefficient}, which its
    caller owns and may change in place, and the largest exponent applied to
    an atom inside it, counted through nested powers (see MAX_EXPONENT). The
    coefficients are ints; a Fraction enters only with an ``a/b`` literal."""

    __slots__ = ("text", "ring", "tokens", "pos", "depth")

    def __init__(self, text, ring):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def multiply(self, p, q):
        size = len(p) * len(q) * max(map(_words, (*p.values(), *q.values())), default=1)
        if size > MAX_TERM_PRODUCTS:
            raise ParseError(
                f"a multiplication of {size} term products exceeds "
                f"MAX_TERM_PRODUCTS = {MAX_TERM_PRODUCTS} in {self.text!r}"
            )
        return _mul_terms(p, q)

    def parse(self):
        p, _ = self.expr()
        if self.tokens[self.pos] is not None:
            raise ParseError(f"trailing input in {self.text!r}")
        return p

    def expr(self):
        p, w = self.term()
        op = self.tokens[self.pos]
        while op == "+" or op == "-":
            self.pos += 1
            q, wq = self.term()
            p = _add_terms(p, q if op == "+" else _negated(q))
            w = max(w, wq)
            op = self.tokens[self.pos]
        return p, w

    def term(self):
        p, w = self.factor()
        while self.tokens[self.pos] == "*":
            self.pos += 1
            q, wq = self.factor()
            p = self.multiply(p, q)
            w = max(w, wq)
        return p, w

    def factor(self):
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        negate = False
        while tok == "-" or tok == "+":
            negate ^= tok == "-"
            pos += 1
            tok = tokens[pos]
        pos += 1
        if type(tok) is int:
            if tokens[pos] == "/":
                den = tokens[pos + 1]
                pos += 2
                if type(den) is not int:
                    raise ParseError(f"malformed rational literal in {self.text!r}")
                if den == 0:
                    raise ParseError("zero denominator")
                tok = Fraction(tok, den)
            p = {(0,) * len(self.ring): tok} if tok else {}
            w = _words(tok)
        elif tok == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            self.pos = pos
            p, w = self.expr()
            pos = self.pos
            if tokens[pos] != ")":
                raise ParseError(f"expected ')' in {self.text!r}")
            pos += 1
            self.depth -= 1
        elif type(tok) is str and tok not in _OPERATORS:
            i = self.ring.index.get(tok)
            if i is None:
                raise ParseError(f"unknown variable {tok!r} (ring has {self.ring.names})")
            e = [0] * len(self.ring)
            e[i] = 1
            p, w = {tuple(e): 1}, 1
        else:
            raise ParseError(f"malformed expression {self.text!r}")
        if tokens[pos] == "^":
            n = tokens[pos + 1]
            pos += 2
            if n == "-":
                raise ParseError(f"negative exponent in {self.text!r}")
            if type(n) is not int:
                raise ParseError(f"exponent must be an integer literal in {self.text!r}")
            if w * n > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {w * n} exceeds MAX_EXPONENT = {MAX_EXPONENT} in {self.text!r}"
                )
            p = _power_terms(p, n, len(self.ring), self.multiply)
            w *= n
        self.pos = pos
        return (_negated(p) if negate else p), w


def parse_integral(text: str, ring: VarSet):
    """The polynomial of text (``parse_poly``) in the integral form of
    ``integral``, with no Polynomial or Fraction between them unless the text
    has an ``a/b`` literal."""
    return integral(_Parser(text, ring).parse())


def parse_poly(text: str, ring: VarSet) -> Polynomial:
    """Parse an arithmetic expression with +, -, *, ^, parentheses and rational literals."""
    return Polynomial(ring, _Parser(text, ring).parse())
