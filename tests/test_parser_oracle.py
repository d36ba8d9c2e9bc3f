"""parse_poly against the reference parser in ``oracles``, which builds a
Polynomial for every atom and does every step in Fraction arithmetic: the same
polynomial for accepted text, the same error class and message for rejected
text."""

from __future__ import annotations

from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicurve.poly import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERM_PRODUCTS,
    VarSet,
    parse_poly,
)
from oracles import oracle_parse

UT = VarSet(("u", "t"))


def outcome(parse, text):
    """('ok', polynomial) or ('error', exception class, message)."""
    try:
        return ("ok", parse(text, UT))
    except Exception as exc:  # the class is part of what is compared
        return ("error", type(exc), str(exc))


def assert_same_as_oracle(text):
    got = outcome(parse_poly, text)
    assert got == outcome(oracle_parse, text), text
    if got[0] == "ok":
        assert all(type(c) is Fraction for c in got[1].terms.values()), text
    return got


spaces = st.sampled_from(["", " ", "  ", "\t", " \n "])
numbers = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 20), st.integers(0, 9)).map(lambda ab: f"{ab[0]}/{ab[1]}"),
    st.integers(2**62, 2**130).map(str),
)
atoms = st.one_of(numbers, st.sampled_from(["u", "t", "u", "t"]))


def _extend(inner):
    return st.one_of(
        st.tuples(inner, spaces, st.sampled_from(["+", "-", "*"]), spaces, inner).map("".join),
        st.tuples(st.sampled_from(["-", "+", "--", "- +", "+-"]), spaces, inner).map("".join),
        st.tuples(st.just("("), spaces, inner, spaces, st.just(")")).map("".join),
        st.tuples(inner, st.integers(0, 7)).map(lambda p: f"({p[0]})^{p[1]}"),
        st.tuples(inner, st.integers(0, 3)).map(lambda p: f"{p[0]}^{p[1]}"),
    )


expressions = st.recursive(atoms, _extend, max_leaves=10)
# pieces that make well-formed text malformed, inserted at a drawn position
JUNK = ["+", " + ", "^ -2", "$", "/0", "/", "(", ")", "^t", "w", "^", "*", "3/", "^u"]


@st.composite
def texts(draw):
    text = draw(expressions)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(JUNK)) + text[at:]
    return text


@given(texts())
@settings(max_examples=400, deadline=timedelta(seconds=5), derandomize=True)
def test_random_text_matches_the_oracle(text):
    assert_same_as_oracle(text)


@pytest.mark.parametrize(
    "text",
    [
        # malformed forms
        "u +", "u ^ -2", "u $", "3/0", "(u", "u)", "u^t", "w", "2*w^3", "", "   ",
        "3/", "3/u", "u^", "u^^2", "()", "u t", "* u", "u/2", "1/2/3",
        "9" * 5000 + "*u",
        # exact values near the edge of each budget
        "(" * MAX_NESTING + "u" + ")" * MAX_NESTING,
        "(" * (MAX_NESTING + 1) + "u" + ")" * (MAX_NESTING + 1),
        f"u^{MAX_EXPONENT}", f"u^{MAX_EXPONENT + 1}",
        f"(u^2)^{MAX_EXPONENT // 2}", f"(u^2)^{MAX_EXPONENT // 2 + 1}",
        f"{2**64}^{MAX_EXPONENT // 2}", f"{2**64}^{MAX_EXPONENT // 2 + 1}",
        "((2^10)^10)^11", f"(u + t)^{MAX_EXPONENT + 1}",
        "(u + t + 1)^43", "(u + t + 1)^60", "(u + u^2)^303", "(u + u^2)^400",
        f"({2**128} + u + t)^20", f"(1/{2**70} + u)^100",
        # signs, zeros and cancellation
        "-" * 301 + "u", "-(u - t)^3 + (t - u)^3", "0^0", "(u - u)^0", "(u - u)^5",
        "0*u + 0/7", "1/2*u^3 - 2/4*u^3", "4/2", "-0", "(2*u + 1/3)^4 - (1/3 + u*2)^4",
    ],
)
def test_rows_match_the_oracle(text):
    assert_same_as_oracle(text)


@pytest.mark.parametrize("extra, accepted", [(0, True), (1, False)])
def test_term_product_budget_rows(extra, accepted):
    # a k-term sum in u times a k-term sum in t: k^2 products of unit
    # coefficients, inside the budget for the largest k that fits and past it
    # for one more
    k = int(MAX_TERM_PRODUCTS**0.5) + extra
    a = " + ".join(f"u^{i}" for i in range(k))
    b = " + ".join(f"t^{i}" for i in range(k))
    got = assert_same_as_oracle(f"({a}) * ({b})")
    assert (got[0] == "ok") == accepted
    assert accepted or "MAX_TERM_PRODUCTS" in got[2]
