"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints a single PASS line with the checked scope; time budgets from
the criteria are asserted where stated.
"""

import random
import time

from letterplace.determinantal import (
    LSequence,
    build_matrix,
    i_sequence,
    ideal_gens,
    terrace,
    verify_main,
)
from letterplace.groebner import diagonal_order
from letterplace.homset import HomIdeal, enumerate_isotone
from letterplace.ideals import coletterplace_ideal, letterplace_ideal, support
from letterplace.monomial import (
    Monomial,
    MonomialIdeal,
    alexander_dual,
    elem_var,
    nat_var,
    pair_var,
)
from letterplace.poset import antichain, chain, poset_from_covers
from letterplace.pstable import (
    is_p_stable,
    lambda_bar,
    lambda_bar_inv,
    max_ideal_power_stable,
)
from letterplace.quotient import FiberMap, fiber_kind, regular_quotient_check
from letterplace.stable import borel_closure, dualize_ss, dualize_ss_bounded

from util import (
    all_labeled_posets,
    artinian_ideals,
    brute_letterplace,
    maximal_ideal_power,
    monomials_up_to,
    nonstrict_merge_map,
    poset_classes,
    random_cofinite_ideal,
    same_ideal_by_membership,
    single_merge_maps,
)


def pairs_mono(*pairs):
    return Monomial((pair_var(p, i), 1) for p, i in pairs)


def all_posets_up_to(n):
    for k in range(1, n + 1):
        yield from all_labeled_posets(k)


def test_criterion_1_running_example_reproduction():
    t0 = time.perf_counter()
    L = letterplace_ideal(HomIdeal.principal(chain(3), (1, 1, 2)))
    elapsed = time.perf_counter() - t0
    assert set(L.gens) == {
        pairs_mono((0, 0), (0, 1)),
        pairs_mono((0, 0), (1, 1)),
        pairs_mono((1, 0), (1, 1)),
        pairs_mono((0, 0), (2, 1), (2, 2)),
        pairs_mono((1, 0), (2, 1), (2, 2)),
        pairs_mono((2, 0), (2, 1), (2, 2)),
    }
    assert elapsed < 1.0
    print(f"PASS criterion 1: six generators reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_alexander_duality():
    t0 = time.perf_counter()
    instances = 0
    for P in all_posets_up_to(4):
        for alpha in enumerate_isotone(P, 2):
            J = HomIdeal.principal(P, alpha)
            L = letterplace_ideal(J)
            C = coletterplace_ideal(J)
            assert alexander_dual(C, L.universe or C.universe).gens == L.gens
            instances += 1
    rng = random.Random(2024)
    extra = 0
    while extra < 50:
        P = poset_from_covers(
            4, [(a, b) for a in range(4) for b in range(4) if a < b and rng.random() < 0.3]
        )
        J = random_cofinite_ideal(P, rng, max_val=2)
        L = letterplace_ideal(J)
        C = coletterplace_ideal(J)
        assert alexander_dual(C, L.universe or C.universe).gens == L.gens
        # L is built as the dual of C: the box walk keeps the check independent
        assert L == brute_letterplace(J)
        extra += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"PASS criterion 2: duality exact on {instances} principal ideals over all"
        f" posets with <= 4 elements plus {extra} cofinite ideals in {elapsed:.1f}s"
    )


def test_criterion_3_map_monomial_bijection():
    t0 = time.perf_counter()
    maps_checked = monos_checked = 0
    for P in all_posets_up_to(4):
        vs = [elem_var(p) for p in range(P.n)]
        for m in monomials_up_to(vs, 5):
            assert lambda_bar(P, lambda_bar_inv(P, m)) == m
            monos_checked += 1
        for phi in enumerate_isotone(P, 5):
            assert lambda_bar_inv(P, lambda_bar(P, phi)) == phi
            maps_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: bijection round-trips on {monos_checked} monomials and"
        f" {maps_checked} maps in {elapsed:.1f}s"
    )


def test_criterion_4_regular_quotients():
    t0 = time.perf_counter()
    rng = random.Random(4)
    proj_checks = merge_checks = 0
    for P in all_posets_up_to(3):
        for alpha in enumerate_isotone(P, 2):
            J = HomIdeal.principal(P, alpha)
            L = letterplace_ideal(J)
            C = coletterplace_ideal(J)
            S = sorted(support(J))
            if S:
                p1 = FiberMap.projection_first(S)
                assert fiber_kind(P, p1) in ("right", "both")
                assert regular_quotient_check(L, p1)
                proj_checks += 1
                p2 = FiberMap.projection_second(S)
                if fiber_kind(P, p2) in ("left", "both"):
                    assert regular_quotient_check(C, p2)
                    proj_checks += 1
            rights = single_merge_maps(P, S, "right")
            for fmap in (rng.sample(rights, 20) if len(rights) > 20 else rights):
                assert regular_quotient_check(L, fmap)
                merge_checks += 1
            cpairs = sorted({(v.a, v.b) for g in C.gens for v in g.support()})
            lefts = single_merge_maps(P, cpairs, "left")
            for fmap in (rng.sample(lefts, 20) if len(lefts) > 20 else lefts):
                assert regular_quotient_check(C, fmap)
                merge_checks += 1
    # engineered non-strict merge must fail
    A = antichain(2)
    JA = HomIdeal.principal(A, (0, 0))
    bad = nonstrict_merge_map(A, sorted(support(JA)))
    assert bad is not None and not regular_quotient_check(letterplace_ideal(JA), bad)
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 4: Hilbert factorization exact on {proj_checks} projections"
        f" and {merge_checks} strict merges; non-strict merge fails; {elapsed:.1f}s"
    )


def test_criterion_5a_stability_equivalence():
    # Exhaustive over every poset class with <= 3 elements against every
    # artinian ideal generated in degrees <= 3 (relabeling equivariance makes
    # class representatives exhaustive).  Four-element posets get the full
    # degree <= 2 family plus a seeded sample of the degree <= 3 family, which
    # is too large to sweep outright (180753 ideals).
    t0 = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        for P in poset_classes(n):
            for I in artinian_ideals(n, 3):
                assert is_p_stable(P, I, "exact") == is_p_stable(P, I, "bounded")
                checked += 1
    rng = random.Random(5)
    deg3 = list(artinian_ideals(4, 3))
    for P in poset_classes(4):
        for I in artinian_ideals(4, 2):
            assert is_p_stable(P, I, "exact") == is_p_stable(P, I, "bounded")
            checked += 1
        for I in rng.sample(deg3, 300):
            assert is_p_stable(P, I, "exact") == is_p_stable(P, I, "bounded")
            checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 5a: filter test matches bounded definitional test on"
        f" {checked} (poset, artinian ideal) pairs in {elapsed:.1f}s"
    )


def test_criterion_5b_max_ideal_power_criterion():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for P in all_labeled_posets(n):
            for d in (2, 3):
                verdict, structural = max_ideal_power_stable(P, d)
                assert verdict == structural
                checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 5b: power-of-maximal-ideal criterion matches the"
        f" one-cover forest test on {checked} instances in {elapsed:.1f}s"
    )


def test_criterion_5c_squared_ideal_triple():
    assert is_p_stable(chain(3), maximal_ideal_power(chain(3), 2), "exact")
    assert is_p_stable(antichain(3), maximal_ideal_power(antichain(3), 2), "exact")
    vee = poset_from_covers(3, [(0, 1), (0, 2)])
    assert not is_p_stable(vee, maximal_ideal_power(vee, 2), "exact")
    print("PASS criterion 5c: squared maximal ideal stable on chain and antichain, not on the vee")


def test_criterion_6_strongly_stable_duality():
    t0 = time.perf_counter()
    for n in range(1, 6):
        I = MonomialIdeal([Monomial([(elem_var(0), n)])], [elem_var(0)])
        D = dualize_ss(I)
        assert set(D.gens) == {Monomial([(nat_var(i), 1)]) for i in range(n)}
    involutions = 0
    for m in (1, 2):
        universe = [elem_var(p) for p in range(m)]
        for n in (1, 2):
            pool = [x for x in monomials_up_to(universe, n) if x]
            seen = set()
            for mask in range(1 << len(pool)):
                seeds = [pool[i] for i in range(len(pool)) if mask >> i & 1]
                I = borel_closure(seeds, universe) if seeds else MonomialIdeal([], universe)
                if I.gens in seen:
                    continue
                seen.add(I.gens)
                back = dualize_ss_bounded(dualize_ss_bounded(I, n), m)
                assert back.gens == I.gens
                involutions += 1
    rng = random.Random(6)
    m = n = 3
    universe = [elem_var(p) for p in range(m)]
    pool = [x for x in monomials_up_to(universe, n) if x]
    for _ in range(25):
        I = borel_closure(rng.sample(pool, rng.randint(1, 3)), universe)
        back = dualize_ss_bounded(dualize_ss_bounded(I, n), m)
        assert back.gens == I.gens
        involutions += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"PASS criterion 6: power duals exact for n <= 5 and {involutions}"
        f" involution round-trips in {elapsed:.1f}s"
    )


def test_criterion_7_determinantal_main_theorem():
    small = [(0, (0, 2)), (0, (0, 1, 2)), (0, (0, 0, 4)), (0, (0, 1, 3))]
    for a, vals in small:
        t0 = time.perf_counter()
        report = verify_main(LSequence(a, vals))
        elapsed = time.perf_counter() - t0
        assert report["ok"], report
        assert elapsed < 5.0
    t0 = time.perf_counter()
    big = verify_main(LSequence(0, (0, 0, 3, 4, 6)))
    elapsed = time.perf_counter() - t0
    assert big["ok"], big
    assert elapsed < 600.0
    assert terrace(LSequence(2, (3, 3, 5, 7, 8, 11))).vals == (3, 3, 5, 7, 7, 11)
    assert i_sequence(LSequence(2, (3, 3, 5, 7, 7, 11))).vals == (1, 1, 2, 3, 3, 5)
    print(
        f"PASS criterion 7: initial ideal and codimension verified for all five"
        f" sequences (largest in {elapsed:.1f}s); terrace and i values reproduced"
    )


def test_criterion_8_reduction_lemma():
    seq_long = LSequence(0, (0, 1, 2))
    seq_short = LSequence(0, (0, 1))
    order = diagonal_order(build_matrix(seq_long).variables())
    assert same_ideal_by_membership(ideal_gens(seq_long), ideal_gens(seq_short), order)
    print("PASS criterion 8: flat-tail reduction verified by bidirectional membership")


def test_criterion_9_out_of_scope_documented():
    # the excluded verification targets are replaced by the exact chains above;
    # the README must say so
    from pathlib import Path

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    for phrase in ("Cohen-Macaulay", "out of scope"):
        assert phrase.lower().replace("-", " ") in readme.lower().replace("-", " ")
    print(
        "PASS criterion 9: excluded targets (Cohen-Macaulayness as such, simplicial"
        " balls, resolutions) documented as out of scope"
    )
