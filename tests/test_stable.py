"""Strongly stable recognition and the two-sided duality over chains."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import letterplace.stable as stable
from letterplace.errors import NotAChain, NotStronglyStable
from letterplace.homset import HomIdeal, enumerate_isotone
from letterplace.monomial import Monomial, MonomialIdeal, elem_var, hilbert_numerator, nat_var
from letterplace.poset import antichain, chain
from letterplace.pstable import is_p_stable
from letterplace.stable import (
    borel_closure,
    dualize_ss,
    dualize_ss_bounded,
    homideal_from_ss,
    is_strongly_stable,
    ss_from_homideal,
)

from util import (
    eliahou_kervaire,
    linear_quotient_numerator,
    monomials_up_to,
    ref_borel_closure,
    ref_homideal_from_ss,
    ref_is_strongly_stable,
)


def emono(*pairs):
    return Monomial((elem_var(p), e) for p, e in pairs)


def nmono(*pairs):
    return Monomial((nat_var(i), e) for i, e in pairs)


def elem_universe(m):
    return [elem_var(p) for p in range(m)]


def test_is_strongly_stable_examples():
    assert is_strongly_stable(MonomialIdeal([emono((0, 2))], elem_universe(1)))
    assert not is_strongly_stable(MonomialIdeal([emono((1, 1))], elem_universe(2)))
    six = MonomialIdeal(
        [
            emono((0, 2)),
            emono((0, 1), (1, 1)),
            emono((1, 2)),
            emono((0, 1), (2, 2)),
            emono((1, 1), (2, 2)),
            emono((2, 3)),
        ],
        elem_universe(3),
    )
    assert is_strongly_stable(six)


def test_borel_closure():
    I = borel_closure([emono((1, 1), (2, 1))], elem_universe(3))
    # moves push indices down: x2x3 generates x1x3, x2^2, x1x2, x1^2
    assert set(I.gens) == {
        emono((1, 1), (2, 1)),
        emono((0, 1), (2, 1)),
        emono((1, 2)),
        emono((0, 1), (1, 1)),
        emono((0, 2)),
    }
    assert is_strongly_stable(I)


def test_ss_from_homideal_running_example():
    J = HomIdeal.principal(chain(3), (1, 1, 2))
    I = ss_from_homideal(J)
    assert set(I.gens) == {
        emono((0, 2)),
        emono((0, 1), (1, 1)),
        emono((1, 2)),
        emono((0, 1), (2, 2)),
        emono((1, 1), (2, 2)),
        emono((2, 3)),
    }


def test_ss_from_homideal_zero_hull():
    for m in (1, 2, 3):
        J = HomIdeal.principal(chain(m), (0,) * m)
        I = ss_from_homideal(J)
        assert set(I.gens) == {emono((p, 1)) for p in range(m)}


def test_ss_from_homideal_singleton_by_oracle():
    # oracle: the projected ideal's monomials are the images of the complement
    J = HomIdeal.finite(chain(2), [(0, 0)])
    I = ss_from_homideal(J)
    assert set(I.gens) == {emono((0, 1)), emono((1, 1))}


def test_ss_from_homideal_requires_chain():
    with pytest.raises(NotAChain):
        ss_from_homideal(HomIdeal.principal(antichain(2), (0, 0)))


def test_ss_from_homideal_always_strongly_stable():
    for m in (2, 3, 4):
        P = chain(m)
        for alpha in enumerate_isotone(P, 3)[::5]:
            assert is_strongly_stable(ss_from_homideal(HomIdeal.principal(P, alpha)))


def test_homideal_from_ss_rejects_unstable():
    with pytest.raises(NotStronglyStable):
        homideal_from_ss(MonomialIdeal([emono((1, 1))], elem_universe(2)))


def test_homideal_round_trip_simple():
    I = MonomialIdeal([emono((0, 1)), emono((1, 1))], elem_universe(2))
    J = homideal_from_ss(I)
    assert ss_from_homideal(J).gens == I.gens
    # (x1^2) in one variable: the ideal of maps with value >= 2
    K = homideal_from_ss(MonomialIdeal([emono((0, 2))], elem_universe(1)))
    assert K.member((1,)) and K.member((0,))
    assert not K.member((2,))


def test_round_trip_random_strongly_stable():
    rng = random.Random(101)
    count = 0
    while count < 30:
        m = rng.randint(1, 3)
        universe = elem_universe(m)
        pool = [x for x in monomials_up_to(universe, 4) if x]
        seeds = rng.sample(pool, rng.randint(1, 3))
        I = borel_closure(seeds, universe)
        J = homideal_from_ss(I)
        assert ss_from_homideal(J).gens == I.gens
        count += 1


def test_homideal_from_ss_matches_monomial_route():
    # the generator route against the preimages of every monomial of I
    rng = random.Random(23)
    for _ in range(80):
        m = rng.randint(1, 4)
        universe = elem_universe(m)
        pool = [x for x in monomials_up_to(universe, 4) if x]
        I = borel_closure(rng.sample(pool, rng.randint(1, 3)), universe)
        assert homideal_from_ss(I).gens == ref_homideal_from_ss(I).gens


def test_dualize_single_variable_in_two():
    # (x1) in two variables has an unbounded map ideal; the dual is still the
    # single variable x0, and the bounded involution returns (x1)
    I = MonomialIdeal([emono((0, 1))], elem_universe(2))
    assert dualize_ss(I).gens == (nmono((0, 1)),)
    D = dualize_ss_bounded(I, 1)
    assert D.gens == (emono((0, 1)),) and len(D.universe) == 1
    assert dualize_ss_bounded(D, 2).gens == I.gens


def test_dualize_powers_of_first_variable():
    for n in range(1, 6):
        I = MonomialIdeal([emono((0, n))], elem_universe(1))
        D = dualize_ss(I)
        assert set(D.gens) == {nmono((i, 1)) for i in range(n)}


def test_dualize_regularity_bound():
    rng = random.Random(103)
    for _ in range(10):
        m = rng.randint(1, 3)
        universe = elem_universe(m)
        pool = [x for x in monomials_up_to(universe, 3) if x]
        I = borel_closure(rng.sample(pool, rng.randint(1, 2)), universe)
        D = dualize_ss(I)
        assert D.max_degree() <= m
        assert is_strongly_stable(D)


def test_bounded_duality_involution_small():
    # all strongly stable ideals generated in degrees <= n over m variables,
    # for m, n <= 2, via their borel closures
    for m in (1, 2):
        universe = elem_universe(m)
        for n in (1, 2):
            pool = [x for x in monomials_up_to(universe, n) if x]
            seen = set()
            for mask in range(1, 1 << len(pool)):
                seeds = [pool[i] for i in range(len(pool)) if mask >> i & 1]
                I = borel_closure(seeds, universe)
                if I.gens in seen:
                    continue
                seen.add(I.gens)
                D = dualize_ss_bounded(I, n)
                assert D.max_degree() <= m
                back = dualize_ss_bounded(D, m)
                assert back.gens == I.gens


def test_two_variable_family_example():
    # x1^a, x1^{a-1} x2^{b1+1}, ..., x2^{ba+a} pairs with the smallest
    # 2-regular stable ideal containing x_{r} x_{b_{a-r} + a - 1}
    for a, bs in [(1, (0,)), (1, (2,)), (2, (0, 1)), (2, (1, 1)), (3, (0, 1, 3))]:
        gens = [emono((0, a))]
        for r in range(1, a + 1):
            gens.append(Monomial([(elem_var(0), a - r), (elem_var(1), bs[r - 1] + r)]))
        I = MonomialIdeal(gens, elem_universe(2))
        assert is_strongly_stable(I)
        D = dualize_ss(I)
        expected_seeds = [
            nmono((r, 1), (bs[a - r - 1] + a - 1, 1)) if r != bs[a - r - 1] + a - 1
            else nmono((r, 2))
            for r in range(a)
        ]
        top = max(v.a for g in expected_seeds for v in g.support())
        closure = borel_closure(expected_seeds, [nat_var(i) for i in range(top + 1)])
        assert set(D.gens) == set(closure.gens)


def test_chain_stability_matches_strong_stability():
    # over a chain the two stability notions agree on artinian ideals
    rng = random.Random(107)
    for m in (2, 3):
        P = chain(m)
        universe = elem_universe(m)
        pool = [x for x in monomials_up_to(universe, 3) if x]
        for _ in range(12):
            gens = [Monomial([(v, rng.randint(1, 3))]) for v in universe]
            gens += rng.sample(pool, rng.randint(0, 2))
            I = MonomialIdeal(gens, universe)
            assert is_p_stable(P, I, "exact") == is_strongly_stable(I)


def test_degenerate_duals():
    zero = MonomialIdeal([], elem_universe(2))
    unit = MonomialIdeal([Monomial.one()], elem_universe(2))
    assert dualize_ss(zero).is_unit
    assert dualize_ss(unit).is_zero
    assert dualize_ss_bounded(dualize_ss_bounded(zero, 2), 2).is_zero


# The guards below are explicit raises, so they hold under python -O as well.


def test_ss_from_homideal_guard_raises(monkeypatch):
    monkeypatch.setattr(stable, "is_strongly_stable", lambda I: False)
    with pytest.raises(AssertionError, match="strongly stable"):
        ss_from_homideal(HomIdeal.principal(chain(3), (1, 1, 2)))


def test_dualize_ss_degree_guard_raises(monkeypatch):
    monkeypatch.setattr(stable, "project_ideal", lambda C, f: MonomialIdeal([nmono((0, 3))]))
    with pytest.raises(AssertionError, match="degrees <= 2"):
        dualize_ss(MonomialIdeal([emono((0, 1))], elem_universe(2)))


def test_dualize_ss_stability_guard_raises(monkeypatch):
    # the input in elem variables passes, the dual in nat variables fails
    monkeypatch.setattr(
        stable, "is_strongly_stable", lambda I: all(v.kind == "elem" for v in I.universe)
    )
    with pytest.raises(AssertionError, match="dual must be strongly stable"):
        dualize_ss(MonomialIdeal([emono((0, 1))], elem_universe(2)))


def test_dualize_ss_bounded_guard_raises(monkeypatch):
    monkeypatch.setattr(stable, "dualize_ss", lambda I: MonomialIdeal([nmono((2, 1))]))
    with pytest.raises(AssertionError, match="regularity window"):
        dualize_ss_bounded(MonomialIdeal([emono((0, 1))], elem_universe(2)), 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_strongly_stable_results_match_eliahou_kervaire(data):
    # every result of the three routes, against the closed form; where the
    # generators also have linear quotients in sort_key order, that formula
    # must agree too
    m = data.draw(st.integers(1, 3))
    universe = elem_universe(m)
    pool = [x for x in monomials_up_to(universe, 3) if x]
    I = borel_closure(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)), universe)
    raw = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    alpha = tuple(max(raw[: p + 1]) for p in range(m))  # isotone on the chain
    bound = data.draw(st.integers(I.max_degree(), I.max_degree() + 1))
    results = [
        ss_from_homideal(HomIdeal.principal(chain(m), alpha)),
        ss_from_homideal(homideal_from_ss(I)),
        dualize_ss(I),
        dualize_ss_bounded(I, bound),
    ]
    for R in results:
        K = hilbert_numerator(R)
        assert K == eliahou_kervaire(R.gens)
        assert linear_quotient_numerator(R.gens) in (None, K)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_next_smaller_moves_match_all_exchanges(data):
    # a universe of mixed kinds with gaps, so the next smaller variable is
    # not the next index; drawn ideals are mostly not strongly stable
    universe = sorted(data.draw(st.sets(st.sampled_from(
        [elem_var(0), elem_var(2), elem_var(3), nat_var(1), nat_var(4)]), min_size=1)))
    pool = [x for x in monomials_up_to(universe, 3) if x]
    seeds = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    I = MonomialIdeal(seeds, universe)
    assert is_strongly_stable(I) == ref_is_strongly_stable(I)
    closure = borel_closure(seeds, universe)
    assert closure == ref_borel_closure(seeds, universe)
    assert is_strongly_stable(closure)
