"""Term orders, polynomial arithmetic, division, and basis computation."""

import random
import re
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import letterplace.groebner as groebner
from letterplace.errors import BudgetExceeded
from letterplace.groebner import (
    Polynomial,
    _Codec,
    _s_polynomial,
    buchberger,
    diagonal_order,
    grevlex_order,
    initial_ideal,
    lex_order,
    reduce,
)
from letterplace.monomial import Monomial, elem_var, hilbert_numerator, pair_var

from util import (
    ref_buchberger,
    ref_interreduce_packed,
    ref_leading_monomial,
    ref_order_key,
    ref_reduce,
    ref_s_polynomial,
)

X, Y, Z, W = elem_var(0), elem_var(1), elem_var(2), elem_var(3)
LEX = lex_order([X, Y, Z])


def poly(*terms):
    return Polynomial([(Monomial(m), Fraction(c)) for m, c in terms])


def m(*pairs):
    return Monomial(pairs)


def scaled(f, k):
    return Polynomial({mono: k * c for mono, c in f.terms.items()})


small_monomials = st.builds(
    lambda es: m(*[(v, e) for v, e in zip((X, Y, Z), es) if e]),
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
)


@pytest.mark.parametrize("order", [LEX, grevlex_order([X, Y, Z])])
@settings(max_examples=200, deadline=None)
@given(a=small_monomials, b=small_monomials, c=small_monomials)
def test_order_laws(order, a, b, c):
    ka, kb = ref_order_key(order, a), ref_order_key(order, b)
    # totality with consistency
    assert (ka == kb) == (a == b)
    # multiplicativity
    if ka < kb:
        assert ref_order_key(order, a * c) < ref_order_key(order, b * c)
    # 1 minimal
    assert ref_order_key(order, Monomial.one()) <= ka


DIAGONAL = diagonal_order([pair_var(p, i) for p in (1, 2) for i in (0, 1)])


@pytest.mark.parametrize("order", [LEX, grevlex_order([X, Y, Z]), DIAGONAL], ids=["lex", "grevlex", "diagonal"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_codec_order_matches_ref_order_key(order, data):
    # the packed ints are the library's one term order: they must rank
    # monomials as the reference engine's exponent tuples do
    monomials = st.builds(
        lambda es: m(*[(v, e) for v, e in zip(order.vars, es) if e]),
        st.tuples(*[st.integers(0, 4)] * len(order.vars)),
    )
    a, b = data.draw(monomials), data.draw(monomials)
    codec = _Codec(order, 6)  # 6-bit fields hold degrees up to 31
    ea, eb = codec.terms([a, b])
    assert (ea < eb) == (ref_order_key(order, a) < ref_order_key(order, b))
    assert (ea == eb) == (a == b)
    f = Polynomial([(a, 1), (b, 2)])
    assert f.leading_monomial(order) == ref_leading_monomial(order, f)


def test_diagonal_order_two_by_two():
    vs = [pair_var(p, i) for p in (1, 2) for i in (0, 1)]
    order = diagonal_order(vs)
    f = poly(([(pair_var(1, 0), 1), (pair_var(2, 1), 1)], 1), ([(pair_var(2, 0), 1), (pair_var(1, 1), 1)], -1))
    assert f.leading_monomial(order) == m((pair_var(1, 0), 1), (pair_var(2, 1), 1))


def test_diagonal_order_single_variable():
    order = diagonal_order([pair_var(3, 1)])
    f = poly(([(pair_var(3, 1), 1)], 2), ([], 5))
    assert f.leading_monomial(order) == m((pair_var(3, 1), 1))


def test_reduce_membership_zero():
    g1 = poly(([(X, 1)], 1), ([(Y, 2)], -1))
    basis = buchberger([g1], LEX)
    h = poly(([(Y, 3)], 2), ([], 7))
    f = Polynomial([(a * b, c * d) for a, c in g1.terms.items() for b, d in h.terms.items()])
    assert not reduce(f, basis, LEX)


def test_reduce_disjoint_variable():
    f = poly(([(X, 1)], 1))
    assert reduce(f, [poly(([(Y, 1)], 1))], LEX) == f


def test_reduce_substitution_example():
    f = poly(([(X, 2)], 1), ([(Y, 1)], -1))
    g = poly(([(X, 1)], 1), ([(Y, 2)], -1))
    r = reduce(f, [g], LEX)
    assert r == poly(([(Y, 4)], 1), ([(Y, 1)], -1))


def test_buchberger_classic_pair():
    # oracle: hand-computed S-pairs give the reduced basis {x - y^2, y^3 - 1}
    f = poly(([(X, 2)], 1), ([(Y, 1)], -1))
    g = poly(([(X, 1), (Y, 1)], 1), ([], -1))
    basis = buchberger([f, g], lex_order([X, Y]))
    assert basis == [
        poly(([(Y, 3)], 1), ([], -1)),
        poly(([(X, 1)], 1), ([(Y, 2)], -1)),
    ] or basis == [
        poly(([(X, 1)], 1), ([(Y, 2)], -1)),
        poly(([(Y, 3)], 1), ([], -1)),
    ]


def test_buchberger_single_monomial():
    f = poly(([(X, 2), (Y, 1)], 3))
    basis = buchberger([f], LEX)
    assert basis == [poly(([(X, 2), (Y, 1)], 1))]


def test_buchberger_generic_maximal_minors_2x3():
    # classic: the maximal minors of a generic 2 x 3 matrix are their own basis
    vs = [pair_var(p, i) for p in (1, 2, 3) for i in (0, 1)]
    order = diagonal_order(vs)
    minors = []
    for a, b in [(1, 2), (1, 3), (2, 3)]:
        minors.append(
            poly(
                ([(pair_var(a, 0), 1), (pair_var(b, 1), 1)], 1),
                ([(pair_var(b, 0), 1), (pair_var(a, 1), 1)], -1),
            )
        )
    basis = buchberger(minors, order)
    assert len(basis) == 3
    init = initial_ideal(basis, order)
    assert set(init.gens) == {
        m((pair_var(1, 0), 1), (pair_var(2, 1), 1)),
        m((pair_var(1, 0), 1), (pair_var(3, 1), 1)),
        m((pair_var(2, 0), 1), (pair_var(3, 1), 1)),
    }


def test_buchberger_keeps_generators_equal_modulo_the_rest():
    # elements equal up to a scalar, or modulo the other elements, must not
    # reduce each other away during interreduction
    f = poly(([(Y, 1)], 1))
    assert buchberger([f, f], LEX) == [f]
    assert buchberger([scaled(f, 2), f], LEX) == [f]
    g, z = poly(([(X, 1)], 1), ([(Y, 1)], 1)), poly(([(Z, 1)], 1))
    g_plus_z = Polynomial([*g.terms.items(), *z.terms.items()])
    assert buchberger([g, g_plus_z, z], LEX) == [z, g]


def test_buchberger_input_order_independent():
    rng = random.Random(3)
    f = poly(([(X, 2)], 1), ([(Y, 1)], -1))
    g = poly(([(X, 1), (Y, 1)], 1), ([], -1))
    h = poly(([(Y, 3)], 2), ([(X, 1)], 1))
    reference = buchberger([f, g, h], LEX)
    for _ in range(5):
        shuffled = [f, g, h]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, LEX) == reference


def test_initial_ideal_examples():
    basis = [
        poly(([(X, 1)], 1), ([(Y, 2)], -1)),
        poly(([(Y, 3)], 1), ([], -1)),
    ]
    init = initial_ideal(basis, lex_order([X, Y]))
    assert set(init.gens) == {m((X, 1)), m((Y, 3))}
    assert initial_ideal([], LEX).is_zero


def test_hilbert_invariance_across_orders():
    # initial ideals of the same ideal share a Hilbert numerator
    f = poly(([(X, 2)], 1), ([(Y, 1), (Z, 1)], -1))
    g = poly(([(X, 1), (Y, 1)], 1), ([(Z, 2)], -1))
    h_lex = hilbert_numerator(initial_ideal(buchberger([f, g], LEX), LEX))
    grv = grevlex_order([X, Y, Z])
    h_grv = hilbert_numerator(initial_ideal(buchberger([f, g], grv), grv))
    assert h_lex == h_grv


def test_s_polynomial_cancels_leads():
    f = poly(([(X, 2)], 3), ([(Y, 1)], -1))
    g = poly(([(X, 1), (Y, 1)], 2), ([], -1))
    s = ref_s_polynomial(f, g, LEX)
    assert m((X, 2), (Y, 1)) not in s.terms
    # y f / 3 - x g / 2 = -y^2 / 3 + x / 2
    assert s == poly(([(Y, 2)], Fraction(-1, 3)), ([(X, 1)], Fraction(1, 2)))


def test_dense_s_polynomial_by_hand():
    # packed over lex x > y > z with 3-bit fields, so x = 1 << 6, y = 1 << 3, z = 1
    codec = _Codec(LEX, 3)
    G = codec.guard

    def e(a, b, c):
        return a * codec.unit[X] + b * codec.unit[Y] + c * codec.unit[Z]

    # monic heads x^2 - y and xy - 1, lcm x^2 y;
    # y (x^2 - y) - x (xy - 1) = -y^2 + x
    hi = (e(2, 0, 0), [(e(0, 1, 0), -1)])
    hj = (e(1, 1, 0), [(e(0, 0, 0), -1)])
    assert codec.lcm(hi[0], hj[0]) == e(2, 1, 0)
    assert _s_polynomial(hi, hj, e(2, 1, 0), G) == {e(0, 2, 0): -1, e(1, 0, 0): 1}
    # x + 2y + z and x + 3z: the z terms merge and the y term stays
    hi = (e(1, 0, 0), [(e(0, 1, 0), 2), (e(0, 0, 1), 1)])
    hj = (e(1, 0, 0), [(e(0, 0, 1), 3)])
    assert _s_polynomial(hi, hj, e(1, 0, 0), G) == {e(0, 1, 0): 2, e(0, 0, 1): -2}
    # x + 2y + z and x + 2y: the y terms cancel
    hj = (e(1, 0, 0), [(e(0, 1, 0), 2)])
    assert _s_polynomial(hi, hj, e(1, 0, 0), G) == {e(0, 0, 1): 1}


def test_codec_terms_give_none_where_the_fields_cannot_hold():
    # 3-bit fields hold exponents (lex) or degrees (grevlex) up to 3
    lex = _Codec(LEX, 3)
    assert lex.terms([m((X, 3), (Z, 1)), m((Y, 4)), m((W, 1)), m()]) == [
        3 * lex.unit[X] + lex.unit[Z], None, None, 0]
    grevlex = _Codec(grevlex_order([X, Y, Z]), 3)
    assert grevlex.terms([m((X, 1), (Y, 2)), m((X, 1), (Y, 3)), m((Z, 4))]) == [
        grevlex.unit[X] + 2 * grevlex.unit[Y], None, None]
    # each packed term is the one pack gives
    f = poly(([(X, 3), (Z, 1)], 2), ([], 1))
    assert lex.pack(f) == dict(zip(lex.terms(f.terms), (2, 1)))
    with pytest.raises(ValueError, match=re.escape(f"variable {W} not ranked by this order")):
        lex.pack(poly(([(X, 1)], 1), ([(W, 1)], 1)))


@pytest.mark.parametrize("order", [LEX, grevlex_order([X, Y, Z])], ids=["lex", "grevlex"])
@settings(max_examples=100, deadline=None)
@given(a=small_monomials)
def test_codec_unpacks_what_it_packs(order, a):
    codec = _Codec(order, 5)
    back = codec.monomial(codec.terms([a])[0])
    assert back == a and back.exps == a.exps and back.degree() == a.degree()


@pytest.mark.parametrize("order", [LEX, grevlex_order([X, Y, Z])], ids=["lex", "grevlex"])
@settings(max_examples=100, deadline=None)
@given(a=small_monomials, b=small_monomials)
def test_codec_lcm_is_the_lcm_of_the_monomials(order, a, b):
    # 5-bit fields hold the degree 12 of any lcm here, so lcm cannot overflow
    codec = _Codec(order, 5)
    ea, eb = codec.terms([a, b])
    assert codec.monomial(codec.lcm(ea, eb)) == a.lcm(b)


def test_budget_pair_cap():
    f = poly(([(X, 2)], 1), ([(Y, 1)], -1))
    g = poly(([(X, 1), (Y, 1)], 1), ([], -1))
    with pytest.raises(BudgetExceeded):
        buchberger([f, g], lex_order([X, Y]), pair_cap=0)


@pytest.mark.parametrize(
    "caps, message",
    [({"pair_cap": -1}, "pair_cap must be >= 0, got -1")],
)
def test_negative_caps_are_rejected(caps, message):
    f = poly(([(X, 2)], 1), ([(Y, 1)], -1))
    with pytest.raises(ValueError, match=message):
        buchberger([f], lex_order([X, Y]), **caps)
    # a cap of 0 is a budget: one input forms no pair
    assert len(buchberger([f], lex_order([X, Y]), pair_cap=0)) == 1


def test_budget_reports_work_done():
    f = poly(([(X, 2)], 1), ([(Y, 1)], -1))
    g = poly(([(X, 1), (Y, 1)], 1), ([], -1))
    nothing_reduced = {"coprime": 0, "chain": 0, "reduced": 0, "max_degree": 0}
    with pytest.raises(BudgetExceeded) as exc:
        buchberger([f, g], lex_order([X, Y]), pair_cap=0)
    assert exc.value.work == {"popped": 1, **nothing_reduced}
    assert "more than 0 S-pairs to reduce after 1 S-pairs popped" in str(exc.value)


def test_chain_criterion_counts():
    # Heads xy, yz, xz, zw^3 under lex x > y > z > w join in ascending order:
    # zw^3, yz, xz, xy.  yz queues (zw^3, yz) at yzw^3; xz queues (zw^3, xz) at
    # xzw^3 and (yz, xz) at xyz.  xy deletes no pending pair: xy divides only
    # the lcm xyz, which it shares with yz.  Of its new pairs, (zw^3, xy) is
    # coprime, (yz, xy) at xyz is queued and (xz, xy), with the same lcm, is
    # dropped by criterion F.  The four pairs left pop at yzw^3, xzw^3, xyz,
    # xyz and all reduce to zero; the fourth exceeds pair_cap 3.
    gens = [
        poly(([(X, 1), (Y, 1)], 1)),
        poly(([(Y, 1), (Z, 1)], 1)),
        poly(([(X, 1), (Z, 1)], 1)),
        poly(([(Z, 1), (W, 3)], 2)),
    ]
    order = lex_order([X, Y, Z, W])
    with pytest.raises(BudgetExceeded) as exc:
        buchberger(gens, order, pair_cap=3)
    assert exc.value.work == {"popped": 4, "coprime": 1, "chain": 1, "reduced": 3, "max_degree": 5}
    assert "1 pairs dropped as coprime, 1 by criteria B, M and F" in str(exc.value)
    assert buchberger(gens, order, pair_cap=4) == [g.monic(order) for g in (gens[3], gens[1], gens[2], gens[0])]


def test_gebauer_moeller_criteria_counts():
    # Heads y^2z, xz^2, xyz, xy^2 under lex x > y > z join in that order.
    # xz^2 queues (y^2z, xz^2) at xy^2z^2.  xyz divides that lcm and its lcms
    # with y^2z (xy^2z) and xz^2 (xyz^2) are both smaller, so criterion B
    # deletes the pair; xyz queues (xz^2, xyz) at xyz^2 and (y^2z, xyz) at
    # xy^2z.  xy^2 deletes nothing: the one lcm it divides, xy^2z, is its lcm
    # with y^2z.  Its new pairs: (y^2z, xy^2) at xy^2z is queued, (xyz, xy^2)
    # at the same lcm is dropped by criterion F, and (xz^2, xy^2) at xy^2z^2 by
    # criterion M.  Three pairs are left, all of lcm degree 4.
    gens = [
        poly(([(X, 1), (Y, 2)], 1)),
        poly(([(X, 1), (Y, 1), (Z, 1)], 1)),
        poly(([(X, 1), (Z, 2)], 1)),
        poly(([(Y, 2), (Z, 1)], 1)),
    ]
    with pytest.raises(BudgetExceeded) as exc:
        buchberger(gens, LEX, pair_cap=2)
    assert exc.value.work == {"popped": 3, "coprime": 0, "chain": 3, "reduced": 2, "max_degree": 4}
    assert buchberger(gens, LEX, pair_cap=3) == gens[::-1]


def test_criterion_b_spares_a_pair_sharing_its_lcm_with_the_new_head():
    # Criterion B may delete a pending pair only when the new head's lcm with
    # each of the pair's two heads differs from the pair's lcm.  An engine
    # that skips the test on the pair's second head deletes a needed pair here
    # and returns two elements; the basis of this unit ideal is {1}.
    order = lex_order([X, Y])
    system = [
        poly(([(X, 3), (Y, 3)], 1), ([(X, 3), (Y, 2)], 2), ([(Y, 3)], -1)),
        poly(([(X, 3), (Y, 3)], 2), ([(X, 3), (Y, 2)], 2), ([(X, 2), (Y, 2)], 1)),
        poly(([(X, 3), (Y, 2)], -1), ([], -1)),
    ]
    expected = ref_buchberger(system, order)
    assert len(expected) == 1
    assert buchberger(system, order) == expected


def test_inputs_reducing_to_zero_form_no_pairs():
    # x^2 - y^2 = (x + y)(x - y) reduces to zero modulo x - y, which joins
    # first (smaller leading term), so no S-pair is left to reduce
    f = poly(([(X, 1)], 1), ([(Y, 1)], -1))
    g = poly(([(X, 2)], 1), ([(Y, 2)], -1))
    assert buchberger([g, f], LEX, pair_cap=0) == [f]


def test_unit_ideal_at_default_caps():
    # The reference engine's pair order finds 1 below lcm degree 6; this
    # engine's reaches a pair of lcm degree 9 first.  A cap on the lcm degree
    # would reject this valid input, so the pair cap is the one budget.
    system = [
        poly(([(Y, 2), (Z, 1)], -3), ([(X, 2), (Y, 1)], -3), ([], -3)),
        poly(([(X, 2)], -3)),
        poly(([(X, 1), (Z, 2)], -3), ([], -3)),
    ]
    assert buchberger(system, LEX) == [poly(([], 1))]
    assert ref_buchberger(system, LEX) == [poly(([], 1))]


coefficients = st.sampled_from([-3, -2, -1, 1, 2, 3])
low_degree_monomials = st.sampled_from(
    [
        m(*[(v, e) for v, e in zip((X, Y, Z), es) if e])
        for es in product(range(4), repeat=3)
        if sum(es) <= 3
    ]
)
polynomials = st.lists(st.tuples(low_degree_monomials, coefficients), min_size=1, max_size=4).map(Polynomial)
ORDERS = [LEX, grevlex_order([X, Y, Z])]


@pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex"])
@pytest.mark.parametrize(
    "system",
    [
        [poly(([(X, 2)], 1), ([(Y, 1)], -1)), poly(([(X, 1), (Y, 1)], 1), ([], -1))],
        [poly(([(X, 2)], 1), ([(Y, 1), (Z, 1)], -1)), poly(([(X, 1), (Y, 1)], 1), ([(Z, 2)], -1))],
        [poly(([(X, 1), (Y, 1)], 2), ([(Z, 1)], 3)), poly(([(Y, 2)], 1), ([(X, 1)], -1), ([], 1))],
    ],
    ids=["classic-pair", "binomials", "mixed"],
)
def test_buchberger_matches_reference_engine_on_small_systems(order, system):
    # fixed systems whose bases, in all but one case, need S-pairs with
    # nonzero remainders, so a fault in the engine's S-polynomial shows
    # without a random draw
    expected = ref_buchberger(system, order, pair_cap=200)
    assert buchberger(system, order, pair_cap=200) == expected


@pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex"])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(system=st.lists(polynomials, min_size=1, max_size=3))
def test_buchberger_matches_reference_engine(order, system):
    try:
        expected = ref_buchberger(system, order, pair_cap=2_000)
    except BudgetExceeded:
        return
    assert buchberger(system, order, pair_cap=2_000) == expected


FOUR_VARS = (X, Y, Z, W)
four_variable_polynomials = st.lists(
    st.tuples(
        st.sampled_from(
            [
                m(*[(v, e) for v, e in zip(FOUR_VARS, es) if e])
                for es in product(range(4), repeat=4)
                if sum(es) <= 6
            ]
        ),
        coefficients,
    ),
    min_size=1,
    max_size=3,
).map(Polynomial)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(system=st.lists(four_variable_polynomials, min_size=1, max_size=7))
def test_buchberger_matches_reference_engine_on_larger_lex_systems(system):
    # Up to seven generators in four variables leave many pairs pending when
    # a head joins, so criterion B meets pairs whose lcm the new head shares;
    # the pinned system above is one of them.  A system the reference engine
    # does not finish below lcm degree 10 and 200 pairs is skipped, which
    # keeps this under a few seconds.
    order = lex_order(FOUR_VARS)
    try:
        expected = ref_buchberger(system, order, degree_cap=10, pair_cap=200)
    except BudgetExceeded:
        return
    assert buchberger(system, order, pair_cap=2_000) == expected


@pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex"])
@settings(max_examples=80, deadline=None)
@given(system=st.lists(polynomials, min_size=1, max_size=3), data=st.data())
def test_buchberger_ignores_input_order(order, system, data):
    # a multiple of the first input gives two inputs with equal leading terms
    system = system + [scaled(system[0], 2)]
    shuffled = data.draw(st.permutations(system))
    assert buchberger(shuffled, order) == buchberger(system, order)


@pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex"])
@settings(max_examples=150, deadline=None)
@given(f=polynomials, basis=st.lists(polynomials, max_size=3))
def test_reduce_matches_reference_engine(order, f, basis):
    assert reduce(f, basis, order) == ref_reduce(f, basis, order)


@pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex"])
@settings(max_examples=150, deadline=None)
@given(f=polynomials, basis=st.lists(polynomials, max_size=6))
def test_reduce_by_descending_leading_terms_matches_reference_engine(order, f, basis):
    # listed largest leading term first, the heads above a term are dropped
    # from the front of the list, often several at once
    basis = sorted(
        (g for g in basis if g),
        key=lambda g: ref_order_key(order, ref_leading_monomial(order, g)),
        reverse=True,
    )
    assert reduce(f, basis, order) == ref_reduce(f, basis, order)


def interreductions(system, order):
    """(heads, guard, result) of each _interreduce call while buchberger runs
    on system; none if it runs out of budget."""
    calls = []
    interreduce = groebner._interreduce

    def spy(heads, guard):
        out = interreduce(heads, guard)
        calls.append((heads, guard, out))
        return out

    with mock.patch.object(groebner, "_interreduce", spy):
        try:
            buchberger(system, order, pair_cap=2_000)
        except BudgetExceeded:
            return []
    return calls


@pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex"])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(system=st.lists(polynomials, min_size=1, max_size=4))
def test_interreduce_matches_reducing_every_tail(order, system):
    for heads, guard, out in interreductions(system, order):
        assert out == ref_interreduce_packed(heads, guard)
        assert [next(iter(d)) for d in out] == [max(d) for d in out]


def test_interreduce_reduces_a_tail_that_a_later_head_reaches():
    # Under lex, x + y joins first and x reduces to -y, which joins later with
    # the smaller leading term y: the tail y of x + y is reduced again, and it
    # is the only normal form the interreduction computes.
    x_plus_y, x, y = poly(([(X, 1)], 1), ([(Y, 1)], 1)), poly(([(X, 1)], 1)), poly(([(Y, 1)], 1))
    tails = []
    normal_form, interreduce = groebner._normal_form, groebner._interreduce

    def counted(work, heads, guard):
        tails.append(sorted(work))
        return normal_form(work, heads, guard)

    def spy(heads, guard):
        with mock.patch.object(groebner, "_normal_form", counted):
            return interreduce(heads, guard)

    with mock.patch.object(groebner, "_interreduce", spy):
        basis = buchberger([x_plus_y, x], LEX)
    assert basis == [y, x] == ref_buchberger([x_plus_y, x], LEX)
    assert tails == [[_Codec.holding(LEX, [x_plus_y]).unit[Y]]]


CHAIN_VARS = (X, Y, Z, W)
CHAIN_ORDERS = [lex_order(CHAIN_VARS), grevlex_order(CHAIN_VARS)]


def chain_system(ks):
    """x_i - x_(i+1)^k_i over x, y, z, w: under lex the basis and the normal
    forms carry exponents up to the product of the k_i, under grevlex lcms of
    degree up to twice the largest k_i."""
    return [
        poly(([(CHAIN_VARS[i], 1)], 1), ([(CHAIN_VARS[i + 1], k)], -1)) for i, k in enumerate(ks)
    ]


@pytest.mark.parametrize("order", CHAIN_ORDERS, ids=["lex", "grevlex"])
def test_chain_restarts_at_twice_the_width(order, monkeypatch):
    # x - y^3, y - z^3, z - w^3: the inputs fit 3-bit fields, which hold
    # exponents up to 3.  The lex basis holds x - w^27 and the grevlex join
    # takes the lcm y^3 z^3 of degree 6, so both start over once, at 6 bits.
    widths = []
    init = _Codec.__init__

    def counted(self, order, width):
        widths.append(width)
        init(self, order, width)

    monkeypatch.setattr(_Codec, "__init__", counted)
    system = chain_system([3, 3, 3])
    basis = buchberger(system, order)
    assert widths == [3, 6]
    monkeypatch.undo()
    assert basis == ref_buchberger(system, order)
    f = poly(([(X, 2)], 1), ([(Y, 1), (Z, 1)], -2))
    assert reduce(f, system, order) == ref_reduce(f, system, order)


@pytest.mark.parametrize("order", CHAIN_ORDERS, ids=["lex", "grevlex"])
@settings(max_examples=40, deadline=None)
@given(ks=st.lists(st.integers(1, 4), min_size=1, max_size=3), f=polynomials)
def test_chains_outgrow_the_starting_width(order, ks, f):
    system = chain_system(ks)
    assert buchberger(system, order) == ref_buchberger(system, order)
    assert reduce(f, system, order) == ref_reduce(f, system, order)


def test_polynomial_text_round_trip():
    vs = [pair_var(1, 0), pair_var(2, 0), pair_var(2, 1)]
    order = diagonal_order(vs)
    f = Polynomial(
        [
            (m((pair_var(1, 0), 1), (pair_var(2, 1), 2)), Fraction(3, 2)),
            (m((pair_var(2, 0), 1)), Fraction(-1)),
            (Monomial.one(), Fraction(5)),
        ]
    )
    text = f.text(order)
    assert text == "+3/2*y[1,0]*y[2,1]^2-1*y[2,0]+5"
    assert text == f.text(order)


def test_monic_and_leading_coeff():
    f = poly(([(X, 1)], 4), ([(Y, 1)], 2))
    monic = f.monic(LEX)
    assert monic.leading_coeff(LEX) == 1
    assert monic == poly(([(X, 1)], 1), ([(Y, 1)], Fraction(1, 2)))
