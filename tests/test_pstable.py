"""The map-monomial bijection, longest chains, and stability over a poset."""

import random
import re
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from letterplace.errors import ExplosionGuard, IdentifierOutOfRange, NotArtinian
from letterplace.homset import HomIdeal, enumerate_isotone
from letterplace.ideals import letterplace_ideal, support
from letterplace.monomial import Monomial, MonomialIdeal, elem_var, nat_var, pair_var
from letterplace.poset import Poset, antichain, chain, poset_from_covers
from letterplace.pstable import (
    _code,
    _exchanges,
    _lower_covers,
    _power_codes,
    _radix,
    is_p_stable,
    lambda_bar,
    lambda_bar_inv,
    longest_b_chain,
    max_ideal_power_stable,
)
from letterplace.quotient import FiberMap, project_ideal
from letterplace.monomial import associated_primes

from util import (
    all_labeled_posets,
    artinian_generators,
    artinian_ideals,
    maximal_ideal_power,
    monomials_up_to,
    poset_classes,
    ref_lambda_bar_inv,
    ref_longest_b_chain,
    ref_stable_bounded,
    ref_stable_by_projection,
    ref_stable_exact,
)


def fence():
    return poset_from_covers(4, [(0, 2), (1, 2), (1, 3)], labels=["a", "b", "c", "d"])


def emono(*pairs):
    return Monomial((elem_var(p), e) for p, e in pairs)


def test_lambda_bar_fence_example():
    assert lambda_bar(fence(), (2, 1, 5, 3)) == emono((0, 2), (1, 1), (2, 3), (3, 2))


def test_lambda_bar_zero():
    assert lambda_bar(chain(3), (0, 0, 0)) == Monomial.one()


def test_lambda_bar_chain_closed_form():
    # on a chain the exponents are consecutive differences
    assert lambda_bar(chain(2), (1, 3)) == emono((0, 1), (1, 2))


def test_lambda_bar_inverse_examples():
    assert lambda_bar_inv(chain(3), Monomial.one()) == (0, 0, 0)
    assert lambda_bar_inv(fence(), emono((0, 2), (1, 1), (2, 3), (3, 2))) == (2, 1, 5, 3)


def test_lambda_bar_bijection_small():
    for P in all_labeled_posets(3):
        vs = [elem_var(p) for p in range(P.n)]
        for m in monomials_up_to(vs, 4):
            assert lambda_bar(P, lambda_bar_inv(P, m)) == m
        for phi in enumerate_isotone(P, 4):
            assert lambda_bar_inv(P, lambda_bar(P, phi)) == phi


def test_longest_chain_matches_map_values():
    for P in all_labeled_posets(3):
        for phi in enumerate_isotone(P, 3):
            m = lambda_bar(P, phi)
            for b in range(P.n):
                assert longest_b_chain(P, m, b)[0] == phi[b]


def test_longest_chain_worked_example():
    # x < b, a < b, a < c, y < c with m = x^4 a^2 y^3 b c^2
    P = poset_from_covers(5, [(0, 3), (1, 3), (1, 4), (2, 4)], labels=["x", "a", "y", "b", "c"])
    m = emono((0, 4), (1, 2), (2, 3), (3, 1), (4, 2))
    length, through = longest_b_chain(P, m, 3)
    assert length == 5
    assert through == {0, 3}
    assert ref_longest_b_chain(P, m, 3) == (5, ((0, 0, 0, 0, 3),), through)


def test_longest_chain_trivial():
    assert longest_b_chain(chain(2), Monomial.one(), 1)[0] == 0


def test_longest_b_chain_rejects_an_element_outside_the_poset():
    # b = -1 answered for element n - 1, and b = n raised IndexError
    for b in (-1, 3):
        with pytest.raises(IdentifierOutOfRange, match=f"element {b} not in 0..2"):
            longest_b_chain(chain(3), emono((0, 1), (2, 2)), b)


def test_bijection_rejects_elements_outside_the_poset():
    for p in (3, -1):
        with pytest.raises(IdentifierOutOfRange, match=f"element {p} not in 0..2"):
            lambda_bar_inv(chain(3), emono((0, 1), (p, 2)))
        with pytest.raises(IdentifierOutOfRange, match=f"element {p} not in 0..2"):
            longest_b_chain(chain(3), emono((p, 1)), 2)
    # only the variables x[p] stand for elements
    for call, shown in [
        (lambda: lambda_bar_inv(chain(3), Monomial([(pair_var(0, 5), 1)])), "pair variable x[0,5]"),
        (lambda: lambda_bar_inv(chain(3), Monomial([(nat_var(1), 2)])), "nat variable x[1]"),
        (lambda: longest_b_chain(chain(3), Monomial([(pair_var(1, 7), 1)]), 2), "pair variable x[1,7]"),
    ]:
        message = f"{shown} is not x[p] for an element p of the 3-element poset"
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_square_of_max_ideal_triple():
    square = maximal_ideal_power(chain(3), 2)
    assert is_p_stable(chain(3), square, "exact")
    square = maximal_ideal_power(antichain(3), 2)
    assert is_p_stable(antichain(3), square, "exact")
    vee = poset_from_covers(3, [(0, 1), (0, 2)])
    assert not is_p_stable(vee, maximal_ideal_power(vee, 2), "exact")
    assert not is_p_stable(vee, maximal_ideal_power(vee, 2), "bounded")


def test_antichain_everything_stable():
    P = antichain(3)
    rng = random.Random(55)
    vs = [elem_var(p) for p in range(3)]
    pool = [m for m in monomials_up_to(vs, 3) if m]
    for _ in range(10):
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        gens += [Monomial([(v, 3)]) for v in vs]  # make it artinian
        I = MonomialIdeal(gens, vs)
        assert is_p_stable(P, I, "exact")
        assert is_p_stable(P, I, "bounded")


def test_exact_requires_artinian():
    P = chain(2)
    I = MonomialIdeal([emono((0, 1))], [elem_var(0), elem_var(1)])
    with pytest.raises(NotArtinian):
        is_p_stable(P, I, "exact")
    assert is_p_stable(P, I, "bounded")


def test_unit_ideal_is_stable_in_both_modes():
    # the unit ideal holds every pure power and has no standard monomials
    P = chain(2)
    I = MonomialIdeal([Monomial.one()], [elem_var(0), elem_var(1)])
    assert I.is_unit
    assert is_p_stable(P, I, "exact")
    assert is_p_stable(P, I, "bounded")


@pytest.mark.parametrize("mode", ["exact", "bounded"])
@pytest.mark.parametrize(
    "var, shown",
    [(nat_var(0), "nat variable x[0]"), (elem_var(3), "elem variable x[3]"),
     (pair_var(0, 1), "pair variable x[0,1]")],
)
def test_foreign_variables_are_rejected(mode, var, shown):
    # x[0]^2 and x[1]^2 make the ideal artinian on the 2-chain; the third
    # generator is in a variable that is not x[p] for an element p
    gens = [emono((0, 2)), emono((1, 2)), Monomial([(var, 1)])]
    with pytest.raises(ValueError, match=rf"generators use {re.escape(shown)}, not x\[p\]"):
        is_p_stable(chain(2), MonomialIdeal(gens), mode)


def test_bounded_rejects_negative_depth():
    # on the vee 0 < 1, 0 < 2 the square of the maximal ideal is not stable;
    # a negative depth would test no monomial and so report it stable
    vee = poset_from_covers(3, [(0, 1), (0, 2)])
    I = maximal_ideal_power(vee, 2)
    assert not is_p_stable(vee, I, "bounded")
    assert is_p_stable(vee, I, "bounded", depth=1)  # no member of degree <= 1
    with pytest.raises(ValueError, match="depth must be a non-negative integer, got -1"):
        is_p_stable(vee, I, "bounded", depth=-1)


def test_budget_and_depth_are_validated():
    P = chain(2)
    I = MonomialIdeal([emono((0, 2)), emono((1, 2))])
    for mode in ("exact", "bounded"):
        with pytest.raises(ValueError, match=re.escape("cap must be >= 0, got -1")):
            is_p_stable(P, I, mode, cap=-1)
    # cap=0 is a budget: 1 is already one standard monomial too many
    with pytest.raises(ExplosionGuard, match="1 standard monomials produced, more than the cap 0"):
        is_p_stable(P, I, "exact", cap=0)
    assert is_p_stable(P, MonomialIdeal([Monomial.one()], I.universe), "exact", cap=0)
    for depth in (2.5, "3"):
        with pytest.raises(ValueError, match=re.escape(f"depth must be a non-negative integer, got {depth}")):
            is_p_stable(P, I, "bounded", depth=depth)


def test_exact_returns_at_the_first_decidable_violation():
    # On the vee 0 < 1, 0 < 2 the move of x0 at 0 gives x1*x2, a generator,
    # so the ideal is unstable; that is decided once degree 2 is walked,
    # after 8 standard monomials, long before the x1^k and x2^k run out.
    vee = poset_from_covers(3, [(0, 1), (0, 2)])
    I = MonomialIdeal([emono((0, 2)), emono((1, 300)), emono((2, 300)), emono((1, 1), (2, 1))])
    assert not is_p_stable(vee, I, "exact", cap=20)


def test_exact_walks_standard_monomials_only():
    # (x0^2000, x1^2000, x0*x1) has the 3999 standard monomials 1, x0^a and
    # x1^a with 1 <= a <= 1999, inside a box of 4M points.  On an antichain
    # lambda_bar is the identity on exponents, so the exchange move lowers
    # one exponent: the result divides a standard monomial and is standard.
    # Hence the ideal is stable.
    P = antichain(2)
    I = MonomialIdeal([emono((0, 2000)), emono((1, 2000)), emono((0, 1), (1, 1))])
    assert is_p_stable(P, I, "exact")


def test_exact_cap_counts_standard_monomials():
    # (x0^3, x1^3) has 9 standard monomials; the walk stops at the sixth
    P = antichain(2)
    I = MonomialIdeal([emono((0, 3)), emono((1, 3))])
    assert is_p_stable(P, I, "exact", cap=9)
    with pytest.raises(ExplosionGuard, match="6 standard monomials produced, more than the cap 5"):
        is_p_stable(P, I, "exact", cap=5)


def test_max_ideal_power_criterion_examples():
    assert max_ideal_power_stable(chain(3), 2) == (True, True)
    vee = poset_from_covers(3, [(0, 1), (0, 2)])
    assert max_ideal_power_stable(vee, 2) == (False, False)
    assert max_ideal_power_stable(antichain(4), 2) == (True, True)
    assert max_ideal_power_stable(antichain(4), 3) == (True, True)


def test_max_ideal_power_criterion_reads_the_hasse_diagram():
    # the chain 0 < 1 < 2 given with the redundant edge (0, 2): 0 has one cover, not two
    P = poset_from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert P.upper[0] == 0b10
    assert max_ideal_power_stable(P, 2) == (True, True)


def test_max_ideal_power_criterion_all_posets_up_to_4():
    for n in range(5):
        for P in all_labeled_posets(n):
            for d in (2, 3, 4):
                verdict, structural = max_ideal_power_stable(P, d)
                assert verdict == structural
                I = maximal_ideal_power(P, d)
                assert verdict == ref_stable_exact(P, I)
                combos = combinations_with_replacement(range(n), d)
                built = [Monomial((elem_var(p), 1) for p in c) for c in combos]
                assert {(g, g.degree()) for g in I.gens} == {(g, g.degree()) for g in built}


def test_codes_on_the_radix_boundary():
    # The exact walk codes a monomial in the radix with base power[p] + 1 at
    # p, and bounded mode in base depth + 1; these ideals put digits on the
    # edges of those radices.
    vee = poset_from_covers(3, [(0, 1), (0, 2)])
    cases = [
        # a pure power of 1: the digit of x0 is 0 in every standard monomial
        (chain(2), [[(0, 1)], [(1, 3)]]),
        (vee, [[(0, 1)], [(1, 2)], [(2, 2)]]),
        (vee, [[(0, 2)], [(1, 1)], [(2, 3)]]),
        # mixed generators with exponent power[p] - 1
        (chain(2), [[(0, 3)], [(1, 3)], [(0, 2), (1, 1)]]),
        (chain(2), [[(0, 2)], [(1, 3)], [(0, 1), (1, 2)]]),
        (antichain(3), [[(0, 2)], [(1, 3)], [(2, 1)], [(0, 1), (1, 2)]]),
        (vee, [[(0, 2)], [(1, 3)], [(2, 3)], [(0, 1), (1, 2)], [(1, 2), (2, 2)]]),
        (fence(), [[(0, 2)], [(1, 2)], [(2, 3)], [(3, 2)], [(1, 1), (2, 2), (3, 1)]]),
        # an exchange result with the top digit power[p]: on 0 < 1 the move
        # of x0*x1 at 0 gives x1^2, a generator
        (chain(2), [[(0, 2)], [(1, 2)]]),
        # the powers of 2000 of test_exact_walks_standard_monomials_only, on
        # a chain, where the box scan stops at x0^2
        (chain(2), [[(0, 2000)], [(1, 2000)], [(0, 1), (1, 1)]]),
    ]
    for P, gens in cases:
        vs = [elem_var(p) for p in range(P.n)]
        I = MonomialIdeal([emono(*g) for g in gens], vs)
        assert is_p_stable(P, I, "exact") == ref_stable_exact(P, I)
        # a generator of degree depth sits on the top digit of bounded
        # mode, and one of larger degree is left out
        top = min(I.max_degree(), 4) + 2
        for depth in range(top + 1):
            assert is_p_stable(P, I, "bounded", depth) == ref_stable_bounded(P, I, depth)


@st.composite
def posets_with_exponents(draw):
    """A poset on at most 6 elements, from random relations i < j between
    labels, and an exponent tuple over it with entries 0..4."""
    n = draw(st.integers(0, 6))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    P = Poset(n, [pair for pair, kept in zip(pairs, keep) if kept])
    return P, draw(st.tuples(*[st.integers(0, 4)] * n))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(instance=posets_with_exponents())
def test_exchange_moves_match_their_definition(instance):
    # the exchange move of w at a support element a is lambda_bar of
    # lambda_bar_inv(w) - e_a, read here off the sole highest lower covers
    P, w = instance
    base = max(w, default=0) + 2  # an exchange raises an exponent by at most 1
    radix = _radix([base] * P.n)
    c = sum(e * r for e, r in zip(w, radix))
    moves = _exchanges(_lower_covers(P), radix, c, w)
    support = [a for a in range(P.n) if w[a]]
    assert len(moves) == len(support)
    phi = lambda_bar_inv(P, emono(*enumerate(w)))
    for a, (j, k) in zip(support, moves):
        lowered = tuple(v - 1 if p == a else v for p, v in enumerate(phi))
        expected = lambda_bar(P, lowered)
        digits = [j // r % base for r in radix]
        assert emono(*enumerate(digits)) == expected
        assert j < base ** P.n
        assert expected.degree() == sum(w) - 1 + k


def test_image_of_complement_is_projected_letterplace():
    # the first-coordinate projection of the letterplace ideal has exactly the
    # bounded complement images as members
    for P in poset_classes(3):
        for alpha in enumerate_isotone(P, 2)[:8]:
            J = HomIdeal.principal(P, alpha)
            L = letterplace_ideal(J)
            S = sorted(support(J))
            proj = project_ideal(L, FiberMap.projection_first(S))
            direct = MonomialIdeal(
                [lambda_bar(P, psi) for psi in enumerate_isotone(P, J.nmax()) if not J.member(psi)],
                proj.universe,
            )
            assert proj.gens == direct.gens
            for psi in enumerate_isotone(P, J.nmax() + 1):
                if not J.member(psi):
                    assert proj.contains(lambda_bar(P, psi))


def test_stable_primes_are_poset_ideals():
    for P in list(all_labeled_posets(4)) + poset_classes(5):
        vs = [elem_var(p) for p in range(P.n)]
        for mask in range(1, 1 << P.n):
            S = {p for p in range(P.n) if mask >> p & 1}
            prime = MonomialIdeal([Monomial([(elem_var(p), 1)]) for p in S], vs)
            assert is_p_stable(P, prime, "bounded") == P.is_ideal(S)


def test_associated_primes_of_stable_ideals_have_ideal_support():
    for P in poset_classes(3):
        for alpha in enumerate_isotone(P, 2)[:6]:
            J = HomIdeal.principal(P, alpha)
            L = letterplace_ideal(J)
            S = sorted(support(J))
            I = project_ideal(L, FiberMap.projection_first(S))
            assert is_p_stable(P, I, "exact")
            for prime in associated_primes(I):
                assert P.is_ideal({v.a for v in prime})


def test_exact_and_bounded_agree_spot():
    rng = random.Random(77)
    for P in poset_classes(3):
        vs = [elem_var(p) for p in range(P.n)]
        pool = [m for m in monomials_up_to(vs, 3) if m and len(m.support()) >= 2]
        for _ in range(6):
            gens = [Monomial([(v, rng.randint(1, 3))]) for v in vs]
            gens += rng.sample(pool, min(len(pool), rng.randint(0, 2)))
            I = MonomialIdeal(gens, vs)
            assert is_p_stable(P, I, "exact") == is_p_stable(P, I, "bounded")


def test_order_weakening_diagnostic_search():
    # The transported bijection between map posets under an order weakening
    # need not carry poset ideals to poset ideals; scan small cases and report.
    found = None
    for P in poset_classes(3):
        weakenings = [
            Q
            for Q in all_labeled_posets(3)
            if all(P.leq(p, q) for p in range(3) for q in range(3) if Q.lt(p, q))
            and Q != P
        ]
        for Q in weakenings:
            for alpha in enumerate_isotone(P, 2):
                members = HomIdeal.principal(P, alpha).members()
                image = {lambda_bar_inv(Q, lambda_bar(P, phi)) for phi in members}
                for psi in image:
                    for p in range(3):
                        if psi[p] == 0:
                            continue
                        lower = tuple(v - 1 if r == p else v for r, v in enumerate(psi))
                        from letterplace.homset import is_isotone

                        if is_isotone(Q, lower) and lower not in image:
                            found = (P.covers(), Q.covers(), alpha, psi, p)
    # diagnostic only: record whether a counterexample was seen
    print("order-weakening counterexample:", found)



POSETS_UP_TO_4 = [P for n in range(5) for P in all_labeled_posets(n)]


@st.composite
def posets_with_artinian_ideals(draw):
    """A labelled poset on at most 4 elements and an artinian ideal of
    k[x_P]: a pure power of each variable plus a few mixed monomials."""
    P = draw(st.sampled_from(POSETS_UP_TO_4))
    vs = [elem_var(p) for p in range(P.n)]
    gens = [Monomial([(v, draw(st.integers(1, 3)))]) for v in vs]
    if P.n >= 2:
        mixed = st.builds(
            lambda es: Monomial((v, e) for v, e in zip(vs, es) if e),
            st.tuples(*[st.integers(0, 2)] * P.n),
        )
        gens += [m for m in draw(st.lists(mixed, max_size=3)) if len(m.exps) >= 2]
    return P, MonomialIdeal(gens, vs)


@settings(max_examples=300, deadline=None)
@given(instance=posets_with_artinian_ideals())
def test_exact_matches_box_scan(instance):
    P, I = instance
    assert is_p_stable(P, I, "exact") == ref_stable_exact(P, I)


@st.composite
def posets_with_monomials(draw):
    """A labelled poset on at most 4 elements and a monomial of k[x_P] with
    exponents 0..4."""
    P = draw(st.sampled_from(POSETS_UP_TO_4))
    exps = draw(st.tuples(*[st.integers(0, 4)] * P.n))
    return P, emono(*enumerate(exps))


@settings(max_examples=500, deadline=None)
@given(instance=posets_with_monomials())
def test_lambda_bar_inv_matches_peel(instance):
    P, m = instance
    assert lambda_bar_inv(P, m) == ref_lambda_bar_inv(P, m)


@settings(max_examples=500, deadline=None)
@given(instance=posets_with_monomials())
def test_longest_b_chain_matches_subset_enumeration(instance):
    P, m = instance
    for b in range(P.n):
        length, _, through = ref_longest_b_chain(P, m, b)
        assert longest_b_chain(P, m, b) == (length, through)


@st.composite
def posets_with_ideals_and_depths(draw):
    """A labelled poset on at most 4 elements, an ideal of k[x_P] with up to
    three generators of exponents 0..2 (artinian or not; an all-zero
    generator gives the unit ideal), and a depth from 0 to 3 above the
    largest generator degree."""
    P = draw(st.sampled_from(POSETS_UP_TO_4))
    vs = [elem_var(p) for p in range(P.n)]
    exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * P.n), max_size=3))
    I = MonomialIdeal([emono(*enumerate(e)) for e in exps], vs)
    return P, I, draw(st.integers(0, I.max_degree() + 3))


VEE = poset_from_covers(3, [(0, 1), (0, 2)])


@settings(max_examples=200, deadline=None)
@given(instance=posets_with_ideals_and_depths())
@example(instance=(VEE, MonomialIdeal([Monomial.one()], [elem_var(p) for p in range(3)]), 3))
@example(instance=(VEE, MonomialIdeal([], [elem_var(p) for p in range(3)]), 2))
@example(instance=(VEE, MonomialIdeal([emono((0, 1), (1, 1))], [elem_var(p) for p in range(3)]), 4))
def test_bounded_matches_scan(instance):
    P, I, depth = instance
    assert is_p_stable(P, I, "bounded", depth) == ref_stable_bounded(P, I, depth)


@st.composite
def posets_with_stability_instances(draw):
    """A labelled poset on 1 to 4 elements and an ideal of k[x_P] with
    exponents at most 3: a pure power of every variable (artinian) or of
    some, and at most four mixed generators.  In half the draws the mixed
    generators have one degree d in {2, 3} and each pure power is x_p^d or
    x_p: ideals near m^d, and ideals whose upper elements never enter a
    standard monomial, are where a violation can lie above every standard
    monomial."""
    P = draw(st.sampled_from(POSETS_UP_TO_4[1:]))
    n = P.n
    keep = [True] * n if draw(st.booleans()) else draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if draw(st.booleans()):
        d = draw(st.integers(2, 3))
        powers = [d if draw(st.booleans()) else 1 for _ in range(n)]
        degree_d = [tuple(c.count(p) for p in range(n)) for c in combinations_with_replacement(range(n), d)]
        exps = draw(st.lists(st.sampled_from(degree_d), max_size=4))
    else:
        powers = draw(st.tuples(*[st.integers(1, 3)] * n))
        exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4))
    mixed = [emono(*enumerate(e)) for e in exps if sum(map(bool, e)) >= 2]
    gens = [emono((p, e)) for p, e in enumerate(powers) if keep[p]] + mixed
    return P, MonomialIdeal(gens, [elem_var(p) for p in range(n)])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(instance=posets_with_stability_instances())
# m^2 on the vee: its only violations lie above the last standard monomial
@example(instance=(VEE, maximal_ideal_power(VEE, 2)))
def test_stability_matches_projection_oracle(instance):
    # an artinian ideal takes exact mode; otherwise bounded mode, which is
    # sound, must pass every ideal the oracle calls stable
    P, I = instance
    stable = ref_stable_by_projection(P, I)
    if {g.exps[0][0].a for g in I.gens if len(g.exps) == 1} == set(range(P.n)):
        assert is_p_stable(P, I) == stable
    elif stable:
        assert is_p_stable(P, I, "bounded", I.max_degree() + 4)


def test_artinian_ideals_are_minimal_by_construction():
    # artinian_ideals sorts its generators into MonomialIdeal._of_canonical,
    # which skips minimalization; the general constructor must give the same
    # sequence of ideals
    for n, maxdeg in [(0, 3), (1, 3), (2, 3), (3, 3), (4, 2)]:
        vs = [elem_var(p) for p in range(n)]
        general = [MonomialIdeal(gens, vs) for gens in artinian_generators(n, maxdeg)]
        assert list(artinian_ideals(n, maxdeg)) == general


def test_maximal_ideal_power_is_minimal_by_construction():
    # _power_codes hands max_ideal_power_stable the codes of m^d without
    # building any ideal: they must be the codes of the generators that the
    # general constructor keeps
    for n in range(6):
        for d in range(5):
            radix = _radix([d + 1] * n)
            gens = maximal_ideal_power(antichain(n), d).gens
            assert _power_codes(n, d) == (tuple(radix), {_code(g, radix) for g in gens})
