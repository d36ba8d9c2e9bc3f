"""Polynomial arithmetic, monomial orders, rendering and the expression parser."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve import gb
from equicurve.errors import ParseError, RingMismatchError
from equicurve.poly import (
    DEGREVLEX,
    LAST_FIRST,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERM_PRODUCTS,
    NEGDEGREVLEX,
    Elimination,
    Polynomial,
    VarSet,
    integral,
    mon_mul,
    order_by_name,
    parse_poly,
)
from oracles import (
    degrevlex_key,
    elimination_key,
    last_first_key,
    negdegrevlex_key,
    substitute,
)

XYZ = VarSet(("x", "y", "z"))
UT = VarSet(("u", "t"))


def P(s, ring=XYZ):
    return parse_poly(s, ring)


class TestVarSet:
    def test_distinct_names_required(self):
        with pytest.raises(ValueError):
            VarSet(("x", "x"))

    def test_index_map(self):
        assert XYZ.index == {"x": 0, "y": 1, "z": 2}
        assert "y" in XYZ and "w" not in XYZ

    def test_hashable_and_comparable(self):
        assert VarSet(("x", "y", "z")) == XYZ
        assert hash(VarSet(("u", "t"))) == hash(UT)
        assert XYZ != UT


PACKED_ORDERS = (DEGREVLEX, NEGDEGREVLEX, Elimination(1), Elimination(2))


class TestMonomialHelpers:
    # the tuple product, and the packed monomials of the Groebner core: a
    # product is the sum of order keys, a quotient their difference
    def test_mul_div_roundtrip(self):
        a, b = (2, 0, 1), (1, 3, 0)
        assert mon_mul(a, b) == (3, 3, 1)
        for order in PACKED_ORDERS:
            pk = gb._Packing(3, order)
            assert pk.key(a) + pk.key(b) == pk.key((3, 3, 1))
            assert pk.exps(pk.key(mon_mul(a, b)) - pk.key(b)) == a

    def test_divides_and_lcm(self):
        for order in PACKED_ORDERS:
            pk = gb._Packing(3, order)
            G = pk.guard

            def packed(m):
                return pk.packed(pk.key(m))

            def divides(a, b):
                return ((packed(b) | G) - packed(a)) & G == G

            assert divides((1, 0, 0), (2, 1, 0))
            assert not divides((0, 2, 0), (1, 1, 3))
            assert pk.fields(pk.lcm(packed((2, 0, 1)), packed((1, 3, 0)))) == (2, 3, 1)


class TestOrders:
    def test_degrevlex_basics(self):
        # degree dominates; within a degree, degrevlex on x > y > z
        key = DEGREVLEX.key
        assert key((2, 0, 0)) > key((1, 1, 0))
        assert key((0, 0, 3)) > key((2, 0, 0))
        assert key((1, 1, 0)) > key((1, 0, 1))

    def test_negdegrevlex_prefers_low_degree(self):
        key = NEGDEGREVLEX.key
        assert key((1, 0, 0)) > key((0, 2, 0))
        assert key((0, 1, 0)) < key((1, 0, 0))

    def test_elimination_block_dominates(self):
        key = Elimination(1).key
        # any positive power of the first variable beats everything without it
        assert key((1, 0, 0)) > key((0, 9, 9))
        assert (key((0, 2, 0)) > key((0, 1, 1))) == (
            DEGREVLEX.key((2, 0)) > DEGREVLEX.key((1, 1))
        )

    def test_order_by_name(self):
        assert order_by_name("degrevlex") is DEGREVLEX
        assert order_by_name("local") is NEGDEGREVLEX
        with pytest.raises(ParseError):
            order_by_name("lex")

    def test_global_flags(self):
        assert DEGREVLEX.is_global and not NEGDEGREVLEX.is_global


# each order beside its sort key as a hand-written tuple (tests/oracles.py)
ORDERS_AND_TUPLE_KEYS = (
    (DEGREVLEX, degrevlex_key),
    (NEGDEGREVLEX, negdegrevlex_key),
    (LAST_FIRST, last_first_key),
    *((Elimination(k), elimination_key(k)) for k in range(1, 8)),
)


@st.composite
def monomials_under_an_order(draw):
    """Distinct exponent tuples in 1-6 variables, small or up to the widest
    exponent a 32-bit packed field holds, and an order with its tuple key;
    Elimination(k) runs up to past the ring."""
    order, tuple_key = draw(st.sampled_from(ORDERS_AND_TUPLE_KEYS))
    nvars = draw(st.integers(1, 6))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 2**31 - 1))
    monos = draw(st.lists(st.tuples(*[exponent] * nvars), min_size=2, max_size=8, unique=True))
    return monos, order, tuple_key


@given(monomials_under_an_order())
@settings(max_examples=400, derandomize=True)
def test_orders_sort_as_their_tuple_keys(case):
    # the rows of signed degrees and the revlex tie-break sort as the tuple
    # key does; so does the order of Lazard's route, h first, as the degree
    # and then the tuple key on the other variables
    monos, order, tuple_key = case
    assert sorted(monos, key=order.key) == sorted(monos, key=tuple_key)
    if len(monos[0]) > 1:
        homogenized = gb._homogenized(order, len(monos[0]) - 1)
        assert sorted(monos, key=homogenized.key) == sorted(monos, key=lambda m: (sum(m), tuple_key(m[1:])))


class TestIntegral:
    def test_fractions_are_scaled_by_the_lcm_of_their_denominators(self):
        terms = {(1, 0): Fraction(1, 2), (0, 2): Fraction(-2, 3), (0, 0): Fraction(5)}
        d, scaled = integral(terms)
        assert (d, scaled) == (6, {(1, 0): 3, (0, 2): -4, (0, 0): 30})
        assert list(scaled) == list(terms) and all(type(c) is int for c in scaled.values())

    def test_ints_are_kept(self):
        assert integral({(2,): 3, (0,): -1}) == (1, {(2,): 3, (0,): -1})

    def test_empty(self):
        assert integral({}) == (1, {})


class TestArithmetic:
    def test_add_cancels(self):
        assert (P("x+y") - P("y")).terms == P("x").terms

    def test_mul_binomial(self):
        assert P("(x+y)^2") == P("x^2+2*x*y+y^2")
        assert P("(x+y)^2-x^2-2*x*y") == P("y^2")

    def test_pow_zero(self):
        assert P("x") ** 0 == Polynomial.const(XYZ, 1)

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    @pytest.mark.parametrize(
        "base, ring", [("u", UT), ("-2*u^3", UT), ("(2/3*u^2*t)", UT), ("(x*y)", XYZ)]
    )
    def test_monomial_power_equals_repeated_product(self, base, ring, n):
        f = P(base, ring)
        product = Polynomial.const(ring, 1)
        for _ in range(n):
            product = product * f
        assert f**n == product
        assert P(f"({base})^{n}", ring) == product

    def test_zero_power(self):
        zero = Polynomial.zero(XYZ)
        assert zero**0 == Polynomial.const(XYZ, 1)
        assert zero**3 == zero

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            P("x") + parse_poly("u", UT)

    def test_leading_data(self):
        f = P("x*z + y^3")
        assert f.leading_monomial(DEGREVLEX) == (0, 3, 0)
        assert f.leading_monomial(NEGDEGREVLEX) == (1, 0, 1)
        assert f.monic(DEGREVLEX) == f

    def test_degrees(self):
        f = P("x^2*y + z")
        assert f.total_degree() == 3
        assert f.min_degree() == 1
        assert P("5").constant_term() == 5
        assert Polynomial.zero(XYZ).is_zero()

    def test_substitute(self):
        U = VarSet(("u",))
        f = parse_poly("x*z - t*y", VarSet(("x", "y", "z", "t")))
        g = substitute(
            f,
            {
                "x": parse_poly("u^3", U),
                "y": parse_poly("u^4", U),
                "z": parse_poly("u^5", U),
                "t": parse_poly("1", U),
            },
            U,
        )
        assert g == parse_poly("u^8 - u^4", U)

    def test_term_mul(self):
        f = P("x + y")
        assert f.term_mul((0, 0, 1), Fraction(2)) == P("2*x*z + 2*y*z")


class TestParser:
    def test_rational_literals(self):
        assert P("3/4*x") == Polynomial.var(XYZ, "x").term_mul((0, 0, 0), Fraction(3, 4))

    def test_unary_minus(self):
        assert P("-x + x").is_zero()

    def test_nested_parens(self):
        assert P("((x))") == P("x")

    def test_nesting_limit(self):
        assert P("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == P("x")
        with pytest.raises(ParseError, match="nested deeper"):
            P("(" * 3000 + "x" + ")" * 3000)

    def test_exponent_budget_counts_nested_powers(self):
        assert P(f"x^{MAX_EXPONENT}") == Polynomial.var(XYZ, "x", MAX_EXPONENT)
        assert P(f"(x^2)^{MAX_EXPONENT // 2}") == P(f"x^{MAX_EXPONENT}")
        for text in (f"x^{MAX_EXPONENT + 1}", f"(x^2)^{MAX_EXPONENT // 2 + 1}",
                     "((2^10)^10)^11", f"(x + y)^{MAX_EXPONENT + 1}"):
            with pytest.raises(ParseError, match="MAX_EXPONENT"):
                P(text)

    def test_exponent_budget_counts_the_words_of_a_number(self):
        big = 2**64  # two words
        assert P(f"{big}^{MAX_EXPONENT // 2}").constant_term() == big ** (MAX_EXPONENT // 2)
        with pytest.raises(ParseError, match="MAX_EXPONENT"):
            P(f"{big}^{MAX_EXPONENT // 2 + 1}")

    def test_term_product_budget(self):
        # a k-term sum in x times a k-term sum in y: k^2 products of unit
        # coefficients, one word each
        def sums(k):
            return [" + ".join(f"{v}^{i}" for i in range(k)) for v in "xy"]

        k = int(MAX_TERM_PRODUCTS**0.5)
        a, b = sums(k)
        assert len(P(f"({a}) * ({b})").terms) == k * k
        a, b = sums(k + 1)
        with pytest.raises(ParseError, match="MAX_TERM_PRODUCTS"):
            P(f"({a}) * ({b})")
        # powers are budgeted step by step, and a coefficient counts by its words
        with pytest.raises(ParseError, match="MAX_TERM_PRODUCTS"):
            P("(x + y + z + 1)^40")
        _, b = sums(k)
        half = " + ".join(f"x^{i}" for i in range(k // 2 + 1))
        assert P(f"({half}) * ({b})")
        with pytest.raises(ParseError, match="MAX_TERM_PRODUCTS"):
            P(f"({2**128} + {half}) * ({b})")

    def test_term_product_budget_bounds_the_time_of_many_denominators(self):
        # two 223-term sums over distinct 62-bit (probable) prime denominators,
        # multiplied: inside the budget, 13 KB of text; kept apart as Fractions
        # their product is about 0.3 s, where one common denominator per sum
        # would carry all 223 primes in every coefficient
        primes, n = [], 2**61
        while len(primes) < 446:
            n += 1
            if pow(2, n - 1, n) == 1:
                primes.append(n)
        a = " + ".join(f"1/{primes[i]}*u^{i}" for i in range(223))
        b = " + ".join(f"1/{primes[223 + i]}*t^{i}" for i in range(223))
        start = time.perf_counter()
        p = P(f"({a}) * ({b})", UT)
        assert time.perf_counter() - start < 3
        assert len(p.terms) == 223 * 223
        assert p.terms[(5, 7)] == Fraction(1, primes[5] * primes[230])

    def test_overlong_number_literal_is_a_parse_error(self):
        with pytest.raises(ParseError, match="too long"):
            P("9" * 5000 + "*x")

    def test_long_sign_chain(self):
        assert P("-" * 3000 + "x") == P("x")
        assert P("-+" * 1500 + "-x") == P("-x")

    @pytest.mark.parametrize(
        "bad",
        ["x + ", "w", "x^-1", "x^y", "1/0", "x & y", "(x", "3/", ""],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            P(bad)


# -- randomized round trips ---------------------------------------------------

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
).filter(lambda c: c != 0)
monos = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(monos, coeffs, min_size=0, max_size=6))
    return Polynomial(XYZ, terms)


@given(polys())
@settings(max_examples=60)
def test_render_parse_roundtrip(f):
    assert parse_poly(f.render(), XYZ) == f


@given(polys(), polys())
@settings(max_examples=40)
def test_ring_axioms_sample(f, g):
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == Polynomial.zero(XYZ)


@given(polys(), polys())
@settings(max_examples=40)
def test_leading_monomial_multiplicative(f, g):
    if f.is_zero() or g.is_zero():
        return
    for order in (DEGREVLEX, NEGDEGREVLEX):
        assert (f * g).leading_monomial(order) == mon_mul(
            f.leading_monomial(order), g.leading_monomial(order)
        )
