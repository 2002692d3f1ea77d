"""Ascents, letterplace and co-letterplace generators, supports, duality."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letterplace.errors import ExplosionGuard, InfiniteIdeal, NotIsotone
from letterplace.homset import HomIdeal, dominates, enumerate_isotone
from letterplace.ideals import (
    _checked_support,
    _multichains,
    ascent,
    coletterplace_ideal,
    hull_map,
    letterplace_ideal,
    principal_letterplace_gens,
    support,
)
from letterplace.monomial import Monomial, MonomialIdeal, alexander_dual, hilbert_numerator, pair_var
from letterplace.poset import Poset, antichain, chain, poset_from_covers

from util import (
    all_labeled_posets,
    ascent_via_filters,
    brute_isotone,
    brute_letterplace,
    draw_poset,
    linear_quotient_numerator,
    poset_classes,
    random_cofinite_ideal,
    ref_multichains,
    ref_pairs_monomial,
)


def fence():
    return poset_from_covers(4, [(0, 2), (1, 2), (1, 3)], labels=["a", "b", "c", "d"])


def pairs_mono(*pairs):
    return Monomial((pair_var(p, i), 1) for p, i in pairs)


def test_ascent_zero_map():
    assert ascent(chain(3), (0, 0, 0)) == frozenset()


def test_ascent_fence_example():
    got = ascent(fence(), (2, 1, 5, 3))
    assert got == {(0, 0), (0, 1), (1, 0), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)}


def test_ascent_chain_flat():
    assert ascent(chain(2), (1, 1)) == {(0, 0)}


def test_ascent_matches_filter_route():
    for P in all_labeled_posets(3):
        for phi in enumerate_isotone(P, 3):
            assert ascent(P, phi) == ascent_via_filters(P, phi)


def test_letterplace_antichain_pair():
    J = HomIdeal.cofinite(antichain(2), [(1, 1)])
    L = letterplace_ideal(J)
    assert L.gens == (pairs_mono((0, 0), (1, 0)),)


def test_letterplace_running_example():
    J = HomIdeal.principal(chain(3), (1, 1, 2))
    L = letterplace_ideal(J)
    expected = {
        pairs_mono((0, 0), (0, 1)),
        pairs_mono((0, 0), (1, 1)),
        pairs_mono((1, 0), (1, 1)),
        pairs_mono((0, 0), (2, 1), (2, 2)),
        pairs_mono((1, 0), (2, 1), (2, 2)),
        pairs_mono((2, 0), (2, 1), (2, 2)),
    }
    assert set(L.gens) == expected
    assert L.text_lines(["1", "2", "3"]) == [
        "x[1,0]*x[1,1]",
        "x[1,0]*x[2,1]",
        "x[2,0]*x[2,1]",
        "x[1,0]*x[3,1]*x[3,2]",
        "x[2,0]*x[3,1]*x[3,2]",
        "x[3,0]*x[3,1]*x[3,2]",
    ]


def test_letterplace_zero_hull():
    J = HomIdeal.principal(chain(2), (0, 0))
    assert set(letterplace_ideal(J).gens) == {pairs_mono((0, 0)), pairs_mono((1, 0))}


def test_coletterplace_antichain_pair():
    J = HomIdeal.cofinite(antichain(2), [(1, 1)])
    C = coletterplace_ideal(J)
    assert set(C.gens) == {pairs_mono((0, 0)), pairs_mono((1, 0))}


def test_coletterplace_finite_singleton():
    J = HomIdeal.finite(chain(2), [(0, 0)])
    C = coletterplace_ideal(J)
    assert C.gens == (pairs_mono((0, 0), (1, 0)),)


def test_coletterplace_finite_full_degree():
    # for a finite ideal every generator is a graph monomial of degree |P|
    P = fence()
    J = HomIdeal.principal(P, (1, 0, 1, 1))
    C = coletterplace_ideal(J)
    members = set(J.members())
    assert {g.support() for g in C.gens} == {
        frozenset(pair_var(p, v) for p, v in enumerate(m)) for m in members
    }
    assert all(g.degree() == P.n for g in C.gens)


def test_degenerate_ideals():
    A = antichain(2)
    everything = HomIdeal.cofinite(A, [])
    assert letterplace_ideal(everything).is_zero
    assert coletterplace_ideal(everything).is_unit
    nothing = HomIdeal.cofinite(A, [(0, 0)])
    assert letterplace_ideal(nothing).is_unit
    assert coletterplace_ideal(nothing).is_zero


def test_support_running_example():
    J = HomIdeal.principal(chain(3), (1, 1, 2))
    assert support(J) == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}


def test_support_finite_singleton():
    J = HomIdeal.finite(chain(2), [(0, 0)])
    assert support(J) == {(0, 0), (1, 0)}


def test_supports_of_both_ideals_agree_random():
    rng = random.Random(21)
    for _ in range(20):
        P = rng.choice(list(all_labeled_posets(3)))
        J = random_cofinite_ideal(P, rng, max_val=2)
        L = letterplace_ideal(J)
        C = coletterplace_ideal(J)
        lsup = {v for g in L.gens for v in g.support()}
        csup = {v for g in C.gens for v in g.support()}
        if L.is_zero or L.is_unit:
            continue
        assert lsup == csup


def test_hull_map_examples():
    P = chain(2)
    assert hull_map(HomIdeal.principal(P, (0, 1))) == (0, 1)
    assert hull_map(HomIdeal.finite(P, [(0, 0), (0, 1)])) == (0, 1)
    assert hull_map(HomIdeal.finite(P, [(0, 0), (0, 1), (1, 1)])) == (1, 1)
    with pytest.raises(InfiniteIdeal):
        hull_map(HomIdeal.cofinite(P, [(1, 1)]))


def test_principal_gens_running_example():
    got = principal_letterplace_gens(chain(3), (1, 1, 2))
    assert got.gens == brute_letterplace(HomIdeal.principal(chain(3), (1, 1, 2))).gens


def test_principal_gens_reject_a_map_that_is_not_isotone():
    # principal_letterplace_gens is the one entry that takes a raw alpha
    with pytest.raises(NotIsotone):
        principal_letterplace_gens(chain(2), (1, 0))
    with pytest.raises(NotIsotone):
        principal_letterplace_gens(antichain(2), (0, -1))


def test_principal_gens_antichain_zero():
    got = principal_letterplace_gens(antichain(3), (0, 0, 0))
    assert set(got.gens) == {pairs_mono((p, 0)) for p in range(3)}


def test_principal_gens_antichain_constant():
    # constant value n on an antichain: one pure chain per element, a complete
    # intersection pattern
    n, m = 2, 3
    got = principal_letterplace_gens(antichain(m), (n,) * m)
    expected = {pairs_mono(*((p, j) for j in range(n + 1))) for p in range(m)}
    assert set(got.gens) == expected


def test_principal_gens_match_letterplace_small():
    for P in poset_classes(3) + poset_classes(4):
        for alpha in enumerate_isotone(P, 3):
            direct = principal_letterplace_gens(P, alpha)
            general = brute_letterplace(HomIdeal.principal(P, alpha))
            assert direct.gens == general.gens


def test_all_generators_squarefree_small():
    rng = random.Random(33)
    for P in all_labeled_posets(3):
        J = random_cofinite_ideal(P, rng, max_val=2)
        assert letterplace_ideal(J).is_squarefree()
        assert coletterplace_ideal(J).is_squarefree()


def test_duality_small_exhaustive_principal():
    for P in all_labeled_posets(3):
        for alpha in enumerate_isotone(P, 2):
            J = HomIdeal.principal(P, alpha)
            L = letterplace_ideal(J)
            C = coletterplace_ideal(J)
            assert alexander_dual(C, L.universe).gens == L.gens
            assert alexander_dual(L, L.universe).gens == C.gens


def test_graph_meets_ascent_lemma_small():
    # graphs of members meet ascents of non-members
    for P in all_labeled_posets(3):
        for alpha in enumerate_isotone(P, 1):
            J = HomIdeal.principal(P, alpha)
            members = J.members()
            for psi in enumerate_isotone(P, 2):
                if J.member(psi):
                    continue
                amoves = ascent(P, psi)
                for phi in members:
                    assert not amoves.isdisjoint(enumerate(phi))


def test_letterplace_principal_beyond_enumeration_reach():
    # nmax is 8: enumeration would walk the 12870 maps valued <= 8, in a value
    # box of 9**8; the multichains give the 2055 generators directly
    J = HomIdeal.principal(chain(8), (1, 2, 3, 4, 5, 6, 7, 7))
    L = letterplace_ideal(J)
    assert len(L.gens) == 2055
    assert L.gens == principal_letterplace_gens(J.poset, J.alpha).gens


def test_negative_cap_is_rejected_for_every_kind():
    for J in (
        HomIdeal.principal(chain(2), (0, 1)),
        HomIdeal.finite(chain(2), [(0, 0)]),
        HomIdeal.cofinite(chain(2), [(1, 1)]),
    ):
        with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
            letterplace_ideal(J, cap=-1)
        with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
            support(J, cap=-1)


def test_principal_coletterplace_walk_honours_the_cap():
    # antichain(3) under alpha = (2, 2, 2) has 3**3 = 27 isotone maps, one graph each
    J = HomIdeal.principal(antichain(3), (2, 2, 2))
    with pytest.raises(ExplosionGuard, match="produced 27 isotone maps, more than cap 26"):
        coletterplace_ideal(J, cap=26)
    assert len(coletterplace_ideal(J, cap=27).gens) == 27


def test_principal_letterplace_walk_honours_the_cap():
    # alpha = (1, ..., 7, 7) on chain(8) has 2055 multichains, one generator each
    J = HomIdeal.principal(chain(8), (1, 2, 3, 4, 5, 6, 7, 7))
    with pytest.raises(ExplosionGuard, match="produced 2055 multichains, more than cap 2054"):
        letterplace_ideal(J, cap=2054)
    with pytest.raises(ExplosionGuard, match="produced 2055 multichains, more than cap 2054"):
        support(J, cap=2054)
    assert len(letterplace_ideal(J, cap=2055).gens) == 2055
    # the walk stops after the frame that passes the cap, not at its end
    with pytest.raises(ExplosionGuard, match="produced 1 multichains, more than cap 0"):
        _multichains(J.poset, J.alpha, 0)
    # principal_letterplace_gens takes no cap
    assert len(principal_letterplace_gens(J.poset, J.alpha).gens) == 2055
    # every element with alpha 0 is a multichain of its own, found before any frame
    J0 = HomIdeal.principal(antichain(3), (0, 0, 0))
    with pytest.raises(ExplosionGuard, match="produced 3 multichains, more than cap 2"):
        letterplace_ideal(J0, cap=2)
    assert len(letterplace_ideal(J0, cap=3).gens) == 3


def test_finite_letterplace_does_not_walk_the_value_box():
    # {k*e_1 : k < 7} on antichain(6): a walk over the 8**6 maps valued <= nmax = 7
    # would pass the cap; the ideal has one generator per element
    J = HomIdeal.finite(antichain(6), [(k, 0, 0, 0, 0, 0) for k in range(7)])
    L = letterplace_ideal(J, cap=1000)
    assert L.gens == MonomialIdeal([pairs_mono((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6))]
                                   + [pairs_mono((p, 0)) for p in range(1, 6)]).gens


def test_support_hull_check_raises():
    J = HomIdeal.principal(chain(2), (0, 1))
    assert _checked_support(J, letterplace_ideal(J)) == {(0, 0), (1, 0), (1, 1)}
    wrong = letterplace_ideal(HomIdeal.principal(chain(2), (0, 0)))
    with pytest.raises(AssertionError, match="hull formula"):
        _checked_support(J, wrong)


POSETS_UP_TO_4 = [P for n in range(5) for P in all_labeled_posets(n)]


def draw_ideal(data, posets) -> HomIdeal:
    """A principal, finite (possibly empty) or cofinite ideal with values <= 2
    on one of the posets."""
    P = data.draw(st.sampled_from(posets))
    pool = enumerate_isotone(P, 2)
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=3))
    kind = data.draw(st.sampled_from(["principal", "finite", "cofinite"]))
    if kind == "principal":
        return HomIdeal.principal(P, data.draw(st.sampled_from(pool)))
    if kind == "finite":
        return HomIdeal.finite(P, [m for m in pool if any(dominates(g, m) for g in picks)])
    return HomIdeal.cofinite(P, picks)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_letterplace_and_coletterplace_supports_agree(data):
    # Alexander-dual clutters have the same support, zero and unit ideals
    # included, so the CLI reads it off whichever ideal it prints
    J = draw_ideal(data, [P for P in POSETS_UP_TO_4 if P.n <= 3])
    assert _checked_support(J, letterplace_ideal(J)) == _checked_support(J, coletterplace_ideal(J))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pair_table_builders_match_sorted_var_oracle(data):
    # the builders read each monomial from sorted (p, i) ints and order the
    # generators by int keys; the oracle sorts Vars and the general
    # constructor minimalizes and orders, on the same pairs
    J = draw_ideal(data, POSETS_UP_TO_4)
    P = J.poset
    if J.kind == "principal":
        ascents = [[(p, j) for j, p in enumerate(c)] for c in _multichains(P, J.alpha)]
    else:
        ascents = [ascent(P, psi) for psi in enumerate_isotone(P, J.nmax()) if not J.member(psi)]
    assert letterplace_ideal(J) == MonomialIdeal(map(ref_pairs_monomial, ascents))
    graphs = [m.graph() for m in J.minimal_markers()]
    assert coletterplace_ideal(J) == MonomialIdeal(map(ref_pairs_monomial, graphs))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_finite_and_cofinite_letterplace_match_the_box_walk(data):
    # the dual of the co-letterplace ideal against the ascents of every
    # non-member in the value box, generators, universe and flags alike
    P = data.draw(st.sampled_from(POSETS_UP_TO_4))
    pool = enumerate_isotone(P, 3)
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=3))
    if data.draw(st.booleans()):
        J = HomIdeal.finite(P, [m for m in pool if any(dominates(g, m) for g in picks)])
    else:
        J = HomIdeal.cofinite(P, picks)
    L, want = letterplace_ideal(J), brute_letterplace(J)
    assert L == want
    assert (L.is_unit, L.is_zero) == (want.is_unit, want.is_zero)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_principal_routes_match_enumeration(data):
    P = data.draw(st.sampled_from(POSETS_UP_TO_4))
    raw = data.draw(st.lists(st.integers(0, 3), min_size=P.n, max_size=P.n))
    # raising each value to the maximum below it makes the draw isotone
    alpha = tuple(max(raw[q] for q in P.down_set(p)) for p in range(P.n))
    J = HomIdeal.principal(P, alpha)
    assert letterplace_ideal(J) == brute_letterplace(J)
    top = max(alpha, default=0)
    assert J.members() == [m for m in enumerate_isotone(P, top) if dominates(alpha, m)]
    # the co-letterplace ideal of a principal J has linear quotients in
    # sort_key order (Floystad-Greve-Herzog); a cofinite J need not
    C = coletterplace_ideal(J)
    K = linear_quotient_numerator(C.gens)
    assert K is not None
    assert hilbert_numerator(C) == K


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_principal_coletterplace_is_the_graphs_of_brute_members(data):
    # the walk builds each graph monomial from interned parts and lists them
    # in walk order; the oracle builds them through the general constructor
    # and sorts them
    P = draw_poset(data, 5)
    maps = brute_isotone(P, 3)
    alpha = data.draw(st.sampled_from(maps))
    graphs = [ref_pairs_monomial(enumerate(m)) for m in maps if dominates(alpha, m)]
    want = sorted(graphs, key=Monomial.sort_key)
    got = coletterplace_ideal(HomIdeal.principal(P, alpha)).gens
    assert [(g.exps, g.degree()) for g in got] == [(g.exps, g.degree()) for g in want]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multichains_match_recursive_oracle(data):
    # the stack walk reads successors from up-set lists; the oracle recurses
    # over prefixes and asks P.leq
    P = draw_poset(data, 5)
    alpha = data.draw(st.sampled_from(brute_isotone(P, 4)))
    got = _multichains(P, alpha)
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(ref_multichains(P, alpha))


def test_principal_and_coletterplace_gens_are_minimal_by_construction():
    # MonomialIdeal._of_canonical skips minimalization and sorting; the
    # general constructor must find nothing to drop or reorder
    rng = random.Random(41)
    for P in [P for n in range(5) for P in poset_classes(n)]:
        built = [principal_letterplace_gens(P, alpha) for alpha in enumerate_isotone(P, 3)]
        built += [coletterplace_ideal(HomIdeal.principal(P, alpha)) for alpha in enumerate_isotone(P, 2)]
        built += [coletterplace_ideal(random_cofinite_ideal(P, rng)) for _ in range(8)]
        for I in built:
            assert MonomialIdeal(I.gens, I.universe) == I


def test_coletterplace_with_many_new_variables_fits_600_mb():
    # alpha = (0, 0, 60000, 0) on the golden fence brings 60,001 variables
    # x[c, v] at once; memory must stay linear in them (a table that gave
    # the k-th variable seen the int 1 << k needed about 815 MB here)
    poset = os.path.join(os.path.dirname(__file__), "data", "golden_cli", "poset.json")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (600_000 * 1024, 600_000 * 1024))\n"
        "from letterplace.homset import HomIdeal\n"
        "from letterplace.ideals import coletterplace_ideal\n"
        "from letterplace.poset import Poset\n"
        "with open(sys.argv[1], encoding='utf-8') as fh:\n"
        "    P = Poset.from_json(fh.read())\n"
        "print(len(coletterplace_ideal(HomIdeal.principal(P, (0, 0, 60000, 0))).gens))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, poset], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr[-1000:]
    assert out.stdout.split() == ["60001"]


def test_long_multichain_ideal_has_four_generators():
    # alpha = (0, 0, 30000, 0) on the golden fence: 0, 1 and 3 end at once,
    # and 2 repeats 30,001 times; copying each prefix as it grew took 2.2 s
    poset = os.path.join(os.path.dirname(__file__), "data", "golden_cli", "poset.json")
    with open(poset, encoding="utf-8") as fh:
        P = Poset.from_json(fh.read())
    n = 30000
    L = letterplace_ideal(HomIdeal.principal(P, (0, 0, n, 0)))
    assert [g.degree() for g in L.gens] == [1, 1, 1, n + 1]
    assert L.gens[3] == ref_pairs_monomial((2, j) for j in range(n + 1))
