"""The packed, fraction-free Groebner core against the tuple/Fraction reference.

Under a global order ``gb.std_basis`` must reduce the reference's S-pairs in
the reference's order and return its basis term for term, and its
memberships must agree. Under the local order ``gb.std_basis``
takes Lazard's route and the reference Mora's, whose tails need not be the
same: the leading monomials must be equal, each basis must reduce to zero
against the other by Mora's weak normal form, and membership must agree with
``reference_local_member``, which decides it by global bases alone.
"""

from __future__ import annotations

import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from equicurve import gb
from equicurve.cli import EXIT_COMPUTE, main
from equicurve.errors import ComputationError
from equicurve.gb import Ideal, std_basis
from equicurve.poly import (
    DEGREVLEX,
    LAST_FIRST,
    MAX_EXPONENT,
    NEGDEGREVLEX,
    Elimination,
    Polynomial,
    VarSet,
    parse_poly,
)
import gb_reference
from gb_reference import OracleBudgetError, reference_local_member, reference_normal_form, reference_std_basis

ORDERS = (DEGREVLEX, NEGDEGREVLEX, Elimination(1), Elimination(2))
GLOBAL_ORDERS = tuple(o for o in ORDERS if o.is_global)
# with the order that epsilon reads its lengths under
PACKED_ORDERS = ORDERS + (LAST_FIRST,)
LOCAL_ORDERS = tuple(o for o in PACKED_ORDERS if not o.is_global)


def packing(nvars, order):
    """The packing of the core under the order; a local one packs h first."""
    return gb._Packing(nvars, order if order.is_global else gb._homogenized(order, nvars - 1))


def packed_order(order):
    """The order that packed keys follow: a local order's packing ranks h^a * x^m
    by degree, then by the local order on x^m."""
    return order.key if order.is_global else (lambda m: (sum(m), order.key(m[1:])))


def popped_pairs(module, mp):
    """The (i, j) of every pair ``module`` pops off its heap from now on."""
    pairs = []
    pop = module.heappop

    def heappop(heap):
        pair = pop(heap)
        pairs.append(pair[2:4])
        return pair

    mp.setattr(module, "heappop", heappop)
    return pairs


def oracle(reference, *args):
    """The reference's answer. A drawn example on which it gives up at its step
    budget is rejected: the oracle has no answer there, which is no mismatch."""
    try:
        return reference(*args)
    except OracleBudgetError:
        reject()


def assert_same_basis(J, order):
    with pytest.MonkeyPatch.context() as mp:
        packed, reference = popped_pairs(gb, mp), popped_pairs(gb_reference, mp)
        B = std_basis(J, order)
        basis, leads = oracle(reference_std_basis, J, order)
    assert B.lead_monomials == leads
    if order.is_global:
        assert packed == reference
        assert [g.terms for g in B.basis] == [g.terms for g in basis]
    else:
        assert all(oracle(reference_normal_form, basis, leads, order, g).is_zero() for g in B.basis)
        assert all(oracle(reference_normal_form, B.basis, leads, order, g).is_zero() for g in basis)
    return B, basis, leads


def assert_same_normal_form(B, basis, leads, order, f):
    """f is a member iff the reference's normal form of f is zero, or, under a
    local order, iff the reference's local membership says so."""
    if order.is_global:
        assert B.contains(f) == oracle(reference_normal_form, basis, leads, order, f).is_zero()
    else:
        assert B.contains(f) == oracle(reference_local_member, B.ideal, f)


def _polys(nvars, max_terms):
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * nvars),
        st.sampled_from([Fraction(-3), Fraction(-1), Fraction(1), Fraction(2), Fraction(5, 3)]),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(dict)


@st.composite
def cases(draw, orders=ORDERS):
    """An ideal in 2-5 variables, one of the orders, and probes: sums of
    multiples of the generators (members) plus an optional stray term."""
    nvars = draw(st.integers(2, 5))
    ring = VarSet(tuple(f"x{i}" for i in range(nvars)))
    gens = [Polynomial(ring, t) for t in draw(st.lists(_polys(nvars, 3), min_size=1, max_size=3))]
    gens = [g for g in gens if not g.is_zero()] or [Polynomial.var(ring, "x0")]
    probes = []
    for _ in range(2):
        f = Polynomial.zero(ring)
        for g in gens:
            f = f + g * Polynomial(ring, draw(_polys(nvars, 2)))
        if draw(st.booleans()):
            f = f + Polynomial(ring, draw(_polys(nvars, 1)))
        probes.append(f)
    return Ideal(gens, ring), draw(st.sampled_from(orders)), probes


@given(cases())
@settings(max_examples=80, deadline=timedelta(seconds=5), derandomize=True)
def test_packed_core_matches_reference(case):
    # same pairs and basis as the reference, then each probe and generator
    # gets the reference's normal form and membership
    J, order, probes = case
    B, basis, leads = assert_same_basis(J, order)
    for f in probes + list(J.gens):
        assert_same_normal_form(B, basis, leads, order, f)


@given(cases(orders=(LAST_FIRST,)))
@settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True)
def test_last_first_core_matches_reference(case):
    # Mora's leads under the order epsilon reads its lengths under (Mora's
    # weak normal forms of one basis by the other can take minutes here), and
    # the membership that NEGDEGREVLEX decides: both see the localized ideal
    J, order, probes = case
    B = std_basis(J, order)
    assert B.lead_monomials == oracle(reference_std_basis, J, order)[1]
    other = std_basis(J, NEGDEGREVLEX)
    for f in probes + list(J.gens):
        assert B.contains(f) == other.contains(f)


def test_mora_oracle_gives_up_and_membership_does_not_need_it():
    # Mora's weak normal form of this member of a two-generator ideal grows
    # past a thousand terms without finishing; the oracle stops at its budget
    # and says so, and the quotient route decides membership from global bases
    ring = VarSet(("x0", "x1", "x2", "x3"))
    g0 = parse_poly("x0^2*x1^2*x2*x3^2 + x0^2*x2^2 - 3*x0*x1*x2", ring)
    g1 = parse_poly("-3*x0^2*x1^2*x2*x3^2 + 5/3*x0*x1^2*x2^2 + x0*x1^2*x2", ring)
    J = Ideal([g0, g1], ring)
    f = parse_poly("x0^2*x2", ring) * g0 + parse_poly("x0*x2*x3", ring) * g1
    basis, leads = reference_std_basis(J, NEGDEGREVLEX)
    start = time.perf_counter()
    with pytest.raises(OracleBudgetError, match=r"Mora oracle .*MORA_STEP_BUDGET = \d+ steps"):
        reference_normal_form(basis, leads, NEGDEGREVLEX, f)
    assert time.perf_counter() - start < 10
    B = std_basis(J, NEGDEGREVLEX)
    assert B.contains(f) and reference_local_member(J, f)
    for probe in ("x0", "x0*x2", "x0^2*x1^2*x2*x3^2 + x0^2*x2^2"):
        probe = parse_poly(probe, ring)
        assert not B.contains(probe) and not reference_local_member(J, probe)


def test_local_member_oracle_gives_up_fast():
    # the elimination behind reference_local_member for this non-member took
    # 14.2 s to finish; the oracle stops at its budget and names itself, while
    # StandardBasis.contains decides it in milliseconds
    ring = VarSet(("x0", "x1", "x2", "x3"))
    g0 = parse_poly("x0^2*x1^2*x2*x3^2 + x0^2*x2^2 - 3*x0*x1*x2", ring)
    g1 = parse_poly("-3*x0^2*x1^2*x2*x3^2 + 5/3*x0*x1^2*x2^2 + x0*x1^2*x2", ring)
    J = Ideal([g0, g1], ring)
    f = g0 + parse_poly("x0", ring) * g1 + parse_poly("x0^5", ring)
    start = time.perf_counter()
    with pytest.raises(OracleBudgetError, match=(
            r"local membership oracle \(gb_reference.reference_local_member\) not finished "
            r"within LOCAL_MEMBER_STEP_BUDGET = \d+ reduction steps")):
        reference_local_member(J, f)
    assert time.perf_counter() - start < 3
    assert not std_basis(J, NEGDEGREVLEX).contains(f)


@st.composite
def monomial_sets(draw):
    """Exponent tuples in 1-5 variables, small or up to the widest exponent
    a 32-bit field holds, with an order; under a local one the first of 2-5
    variables is h of Lazard's route."""
    order = draw(st.sampled_from(PACKED_ORDERS + (Elimination(5),)))
    nvars = draw(st.integers(1 if order.is_global else 2, 5))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 2**31 - 1))
    monos = draw(st.lists(st.tuples(*[exponent] * nvars), min_size=2, max_size=8, unique=True))
    return nvars, monos, order


@given(monomial_sets())
@settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True)
def test_packed_keys_follow_the_order(case):
    # keys sort as MonomialOrder.key does (for Lazard's route, by degree and
    # then the local order) and read back to the exponents; divisibility and
    # lcm on packed monomials are the tuple ones
    nvars, monos, order = case
    pk = packing(nvars, order)
    assert sorted(monos, key=pk.key) == sorted(monos, key=packed_order(order))
    G = pk.guard
    for a in monos:
        assert pk.exps(pk.key(a)) == a
        for b in monos:
            pa, pb = pk.packed(pk.key(a)), pk.packed(pk.key(b))
            assert (((pb | G) - pa) & G == G) == all(x <= y for x, y in zip(a, b))
            assert pk.fields(pk.lcm(pa, pb)) == tuple(map(max, a, b))


@st.composite
def monomials_to_read(draw):
    """Exponent tuples in 1-6 variables up to the widest exponent a 32-bit
    field holds, under DEGREVLEX, Elimination(k), k up to past the ring, or
    a local order (2-6 variables, h first)."""
    order = draw(st.sampled_from((DEGREVLEX,) + tuple(Elimination(k) for k in range(1, 8)) + LOCAL_ORDERS))
    nvars = draw(st.integers(1 if order.is_global else 2, 6))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 2**31 - 1))
    monos = draw(st.lists(st.tuples(*[exponent] * nvars), min_size=1, max_size=4))
    return nvars, monos, order


@given(monomials_to_read())
@settings(max_examples=400, deadline=timedelta(seconds=5), derandomize=True)
def test_degree_and_key_read_off_the_packed_monomial(case):
    # what the pair update reads off a packed lcm is what the exponents give
    nvars, monos, order = case
    pk = packing(nvars, order)
    lcm = pk.packed(pk.key(monos[0]))
    for e in monos:
        p = pk.packed(pk.key(e))
        assert pk.degree_key(p) == (sum(e), pk.key(e))
        lcm = pk.lcm(lcm, p)
    e = pk.fields(lcm)
    assert pk.degree_key(lcm) == (sum(e), pk.key(e))


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
@pytest.mark.parametrize(
    "gens",
    [
        (f"x^{MAX_EXPONENT}*y^{MAX_EXPONENT - 1} - z^{MAX_EXPONENT}",),
        (f"x^{MAX_EXPONENT}*y^{MAX_EXPONENT - 1} - z^{MAX_EXPONENT}", "x - 3*y^999*z"),
        (f"x^{MAX_EXPONENT} + y^{MAX_EXPONENT}", f"x*y^{MAX_EXPONENT} - z", "x^2*z"),
    ],
    ids=["binomial", "binomial-and-line", "three"],
)
def test_max_exponent_rows(order, gens):
    ring = VarSet(("x", "y", "z"))
    J = Ideal([parse_poly(g, ring) for g in gens], ring)
    assert_same_basis(J, order)


class TestGuardBits:
    @pytest.mark.parametrize("order", PACKED_ORDERS, ids=lambda o: o.kind)
    def test_narrow_field_is_a_computation_error(self, monkeypatch, order):
        # 4-bit fields hold exponents up to 7: both generators pack, but under
        # every order the S-polynomial multiplies x^7 + y^7 by y
        monkeypatch.setattr(gb, "_FIELD_BITS", 4)
        ring = VarSet(("x", "y", "z"))
        J = Ideal([parse_poly(g, ring) for g in ("x^7 + y^7", "x*y + x^2*y")], ring)
        with pytest.raises(ComputationError, match="_FIELD_BITS = 4"):
            std_basis(J, order)

    @pytest.mark.parametrize("order", PACKED_ORDERS, ids=lambda o: o.kind)
    def test_narrow_field_reduction_step(self, monkeypatch, order):
        # one generator, so no S-polynomial: reducing x^7*y^7 by y^7 + x would
        # form x^8 or y^14; under the local order membership cancels the lead
        # x*h^6 of the homogenized y^7 + x*h^6 against x^7*y^7, forming y^14
        monkeypatch.setattr(gb, "_FIELD_BITS", 4)
        ring = VarSet(("x", "y"))
        B = std_basis(Ideal([parse_poly("y^7 + x", ring)], ring), order)
        with pytest.raises(ComputationError, match="_FIELD_BITS = 4"):
            B.contains(parse_poly("x^7*y^7", ring))

    def test_narrow_field_input_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gb, "_FIELD_BITS", 4)
        path = tmp_path / "i.json"
        path.write_text('{"ring": ["x", "y"], "generators": ["x^8 + y"]}')
        assert main(["std", str(path), "--order", "degrevlex"]) == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("computation error:") and captured.err.count("\n") == 1
        assert "4-bit" in captured.err and "_FIELD_BITS" in captured.err

    def test_widest_exponent_packs(self, monkeypatch):
        monkeypatch.setattr(gb, "_FIELD_BITS", 4)
        ring = VarSet(("x", "y"))
        J = Ideal([parse_poly("x^7 + y^7", ring)], ring)
        assert [g.render() for g in std_basis(J, DEGREVLEX).basis] == ["x^7 + y^7"]


def test_corpus_bases_match_reference():
    # every global basis the decomposition oracle asks for on the corpus
    # fibers, eliminations included: the same S-pairs in the same order, and
    # the same basis
    from equicurve.localdim import PrimaryDecomposition, epsilon_from_decomposition
    from oracles import corpus_fibers

    asked = {}
    compute = gb.std_basis

    def recording(J, order):
        asked[(J.ring, tuple(frozenset(g.terms.items()) for g in J.gens), order.kind)] = (J, order)
        return compute(J, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gb, "std_basis", recording)
        for _, _, ideal, primes, embedded in corpus_fibers():
            D = PrimaryDecomposition.verified(ideal, primes, embedded)
            epsilon_from_decomposition(ideal, D)
    cases = [(J, order) for J, order in asked.values() if order.is_global]
    assert len(cases) > 20
    with pytest.MonkeyPatch.context() as mp:
        popped = popped_pairs(gb, mp)
        for J, order in cases:
            assert_same_basis(J, order)
    assert len(popped) > 300


def test_last_first_leads_match_the_mora_oracle():
    # the order epsilon reads its lengths under, on the corpus fibers and on
    # seeded fibers, each with its form made the last variable: the leads of
    # Lazard's route are Mora's
    from oracles import corpus_fibers, ladder_coordinates, seeded_fiber

    fibers = [f[1:3] for f in corpus_fibers()] + [seeded_fiber(s)[:2] for s in range(20)]
    for branches, ideal in fibers:
        _, _, J = ladder_coordinates(ideal, branches)
        assert std_basis(J, LAST_FIRST).lead_monomials == reference_std_basis(J, LAST_FIRST)[1]
