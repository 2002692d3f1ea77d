"""Isotone-map enumeration, HomIdeal representations, markers."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letterplace.errors import ExplosionGuard, MixedPosets, NotIsotone
from letterplace.homset import (
    HomIdeal,
    Marker,
    _prefix_covers,
    check_isotone,
    dominates,
    enumerate_isotone,
    is_isotone,
    minimal_of,
)
from letterplace.poset import Poset, antichain, chain, poset_from_covers
from letterplace.pstable import lambda_bar

from util import (
    all_labeled_posets,
    brute_complement_gens,
    brute_is_marker,
    brute_isotone,
    brute_minimal,
    brute_minimal_elements,
    brute_minimal_markers,
    draw_poset,
    random_cofinite_ideal,
    ref_prefix_positions,
)


def test_enumerate_chain():
    P = chain(2)
    assert enumerate_isotone(P, 1) == [(0, 0), (0, 1), (1, 1)]


def test_enumerate_antichain_counts():
    assert len(enumerate_isotone(antichain(2), 1)) == 4
    for m, N in [(1, 3), (2, 2), (3, 1)]:
        assert len(enumerate_isotone(antichain(m), N)) == (N + 1) ** m


def test_enumerate_lexicographic():
    maps = enumerate_isotone(poset_from_covers(3, [(0, 2)]), 2)
    assert maps == sorted(maps)


def test_enumerate_explosion_guard():
    with pytest.raises(ExplosionGuard):
        enumerate_isotone(antichain(10), 9, cap=10**6)


def test_enumerate_guard_counts_produced_maps():
    # 6435 = C(15, 8) maps, far below the 8**8 the value box would allow
    maps = enumerate_isotone(chain(8), 7)
    assert len(maps) == 6435
    assert maps == sorted(maps)
    assert len(enumerate_isotone(chain(8), 7, cap=6435)) == 6435
    with pytest.raises(ExplosionGuard, match="cap 6434"):
        enumerate_isotone(chain(8), 7, cap=6434)


def test_minimal_markers_cofinite_guard():
    J = HomIdeal.cofinite(antichain(3), [(3, 3, 3)])
    assert len(J.minimal_markers(cap=64)) == 9
    with pytest.raises(ExplosionGuard):
        J.minimal_markers(cap=10)


def test_principal_minimal_markers_honour_the_cap():
    # the markers of a principal J are its 6435 members; the member walk,
    # like the co-letterplace walk over the same maps, stops past the cap
    J = HomIdeal.principal(chain(8), (7,) * 8)
    with pytest.raises(ExplosionGuard, match="more than cap 5"):
        J.minimal_markers(cap=5)
    assert len(J.minimal_markers(cap=6435)) == 6435


def test_empty_domain_walk_honours_the_cap():
    # the empty poset carries one map, which a cap of 0 does not allow
    P = poset_from_covers(0, [])
    with pytest.raises(ExplosionGuard, match="produced 1 isotone maps, more than cap 0"):
        enumerate_isotone(P, 0, cap=0)
    assert enumerate_isotone(P, 0, cap=1) == [()]


def test_cofinite_marker_walk_charges_one_budget():
    # the 63 nonempty poset ideals of antichain(6) carry 728 maps in their
    # boxes together, and no one of them more than 64
    J = HomIdeal.cofinite(antichain(6), [(2,) * 6])
    first = r"walked 64 isotone maps before poset ideal \[0, 1, 2, 3\], whose box holds more than the 0 left of cap 64"
    with pytest.raises(ExplosionGuard, match=first):
        J.minimal_markers(cap=64)
    with pytest.raises(ExplosionGuard, match="walked 664 isotone maps .* more than the 63 left of cap 727"):
        J.minimal_markers(cap=727)
    assert len(J.minimal_markers(cap=728)) == 12


def test_negative_caps_are_rejected():
    with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
        enumerate_isotone(chain(2), 2, cap=-1)
    with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
        HomIdeal.cofinite(antichain(3), [(3, 3, 3)]).minimal_markers(cap=-1)
    with pytest.raises(ExplosionGuard, match="cap 0"):
        enumerate_isotone(chain(2), 2, cap=0)


@pytest.mark.parametrize(
    "bound, cap, message",
    [(1.5, 10, "bound must be an int, got 1.5"), (True, 10, "bound must be an int, got True"),
     (2, 10.0, "cap must be an int, got 10.0"), (2, False, "cap must be an int, got False")],
)
def test_non_int_bounds_and_caps_are_rejected(bound, cap, message):
    # a float reached range() as a TypeError, and True ran as the bound 1
    with pytest.raises(ValueError, match=message):
        enumerate_isotone(chain(2), bound, cap)


def test_enumerate_empty_poset():
    P = poset_from_covers(0, [])
    assert enumerate_isotone(P, 3) == [()]


def test_minimal_of_examples():
    assert minimal_of([(0, 0)]) == [(0, 0)]
    assert minimal_of([(0, 1), (1, 1), (0, 0)]) == [(0, 0)]
    assert minimal_of([(0, 1), (1, 2)]) == [(0, 1)]
    with pytest.raises(MixedPosets):
        minimal_of([(0, 1), (0, 1, 2)])


def test_member_examples():
    P = chain(3)
    J = HomIdeal.principal(P, (1, 1, 2))
    assert J.member((0, 1, 1))
    assert not J.member((2, 2, 2))
    A = antichain(2)
    K = HomIdeal.cofinite(A, [(1, 1)])
    assert K.member((0, 5))
    assert not K.member((1, 1))
    # a map of the wrong length, or one that drops along a cover, is no map
    # on the poset: a prefix or a pointwise test would call each a member
    L = HomIdeal.principal(chain(2), (1, 1))
    for bad in [(0,), (0, 0, 5), (1, 0), (0, -1), (0, True)]:
        with pytest.raises(NotIsotone):
            L.member(bad)
    with pytest.raises(NotIsotone):
        K.member((0,))
    with pytest.raises(NotIsotone):
        HomIdeal.finite(chain(2), [(0, 0)]).member((0, 0, 0))


def test_member_monotone_small():
    import random

    from util import poset_classes

    rng = random.Random(2)
    for P in list(all_labeled_posets(3)) + poset_classes(4):
        maps = enumerate_isotone(P, 3)
        ideals = [
            HomIdeal.principal(P, maps[len(maps) // 2]),
            HomIdeal.cofinite(P, [rng.choice(maps), rng.choice(maps)]),
        ]
        for J in ideals:
            for phi in maps:
                for psi in maps:
                    if dominates(psi, phi) and J.member(psi):
                        assert J.member(phi)


def test_principal_not_isotone_rejected():
    with pytest.raises(NotIsotone):
        HomIdeal.principal(chain(2), (1, 0))


@pytest.mark.parametrize("values", [(0, 1.5, 2), (0, 1, 2.5), (0, True, 1), (0, 1, "2")])
def test_map_values_must_be_ints(values):
    # lambda_bar(chain(3), (0, 1.5, 2)) returned x[1]^1.5*x[2]^0.5, and a
    # principal ideal on (0, 1, 2.5) failed later inside range
    for build in (check_isotone, HomIdeal.principal, lambda_bar):
        with pytest.raises(NotIsotone):
            build(chain(3), values)


def test_finite_requires_downward_closure():
    P = chain(2)
    HomIdeal.finite(P, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        HomIdeal.finite(P, [(0, 1)])


def test_complement_gens_principal_zero_is_minimal():
    # brute-force oracle over Hom(P, [0,1]): the reduced antichain keeps only
    # the pointwise-minimal complement elements
    P = chain(2)
    J = HomIdeal.principal(P, (0, 0))
    assert list(J.complement_gens()) == brute_complement_gens(J, 1) == [(0, 1)]


def test_complement_gens_principal_matches_bruteforce():
    # every labelled poset on 3 elements with alpha valued <= 2, and on 4
    # elements with alpha valued <= 1: alpha stays level along some covers
    # and rises along others
    for n, top in ((3, 2), (4, 1)):
        for P in all_labeled_posets(n):
            for alpha in enumerate_isotone(P, top):
                J = HomIdeal.principal(P, alpha)
                assert list(J.complement_gens()) == brute_complement_gens(J, max(alpha) + 1)


def test_complement_gens_finite_antichain_pair():
    J = HomIdeal.finite(antichain(2), [(0, 0)])
    assert list(J.complement_gens()) == [(0, 1), (1, 0)]


def test_complement_gens_cofinite_identity():
    gens = [(0, 1), (1, 0)]
    J = HomIdeal.cofinite(antichain(2), gens)
    assert sorted(J.complement_gens()) == sorted(gens)


def test_complement_gens_antichain_property_small():
    import random

    rng = random.Random(3)
    for P in all_labeled_posets(3):
        J = random_cofinite_ideal(P, rng, max_val=2)
        gens = J.complement_gens()
        assert list(gens) == brute_minimal(gens)
        for phi in enumerate_isotone(P, 3):
            assert (not J.member(phi)) == any(dominates(phi, g) for g in gens)


def test_is_marker_examples():
    A = antichain(2)
    J = HomIdeal.cofinite(A, [(1, 1)])
    assert J.is_marker(Marker.on({0}, {0: 0}, 2))
    P = chain(2)
    K = HomIdeal.principal(P, (0, 0))
    assert not K.is_marker(Marker.on({0}, {0: 0}, 2))
    # a full-domain marker whose map is a member always qualifies
    assert K.is_marker(Marker.on({0, 1}, {0: 0, 1: 0}, 2))


def test_is_marker_validates_shape():
    P = chain(2)
    J = HomIdeal.principal(P, (1, 1))
    with pytest.raises(ValueError):
        J.is_marker(Marker.on({1}, {1: 0}, 2))  # {1} is not an ideal
    with pytest.raises(NotIsotone):
        J.is_marker(Marker.on({0, 1}, {0: 1, 1: 0}, 2))


def test_is_marker_matches_bruteforce_small():
    import random

    from util import poset_classes

    rng = random.Random(5)
    for P in list(all_labeled_posets(3)) + poset_classes(4):
        for J in (
            HomIdeal.principal(P, rng.choice(enumerate_isotone(P, 2))),
            random_cofinite_ideal(P, rng, max_val=2),
        ):
            nmax = J.nmax()
            bound = nmax + 2
            for dom in P.ideals():
                order = sorted(dom)
                for vals in enumerate_isotone(P, nmax):
                    # restrictions of total isotone maps are isotone on the ideal
                    marker = Marker.on(dom, {p: vals[p] for p in order}, P.n)
                    assert J.is_marker(marker) == brute_is_marker(J, marker, bound)


def test_minimal_markers_finite_ideal_is_member_set():
    P = chain(2)
    J = HomIdeal.finite(P, [(0, 0)])
    marks = J.minimal_markers()
    assert len(marks) == 1
    assert marks[0].domain == frozenset({0, 1})
    assert marks[0].values == (0, 0)


def test_minimal_markers_antichain_cofinite():
    J = HomIdeal.cofinite(antichain(2), [(1, 1)])
    marks = J.minimal_markers()
    assert sorted(m.graph() for m in marks) == [
        frozenset({(0, 0)}),
        frozenset({(1, 0)}),
    ]


def test_minimal_markers_principal_are_members():
    P = chain(3)
    J = HomIdeal.principal(P, (1, 1, 2))
    marks = J.minimal_markers()
    members = set(J.members())
    assert {m.values for m in marks} == members
    assert all(m.domain == frozenset(range(3)) for m in marks)


def test_minimal_markers_general_path_agrees_on_finite_ideals():
    # represent a principal ideal through its complement filter and compare
    for P in all_labeled_posets(3):
        for alpha in enumerate_isotone(P, 1):
            J = HomIdeal.principal(P, alpha)
            K = HomIdeal.cofinite(P, J.complement_gens())
            fast = {m.graph() for m in J.minimal_markers()}
            general = {m.graph() for m in K.minimal_markers()}
            assert fast == general


def test_restriction_minimality_coincides_with_graph_minimality():
    # on every tested instance a marker has graph-minimal graph iff no proper
    # restriction to a subideal is a marker
    import random

    rng = random.Random(9)
    for P in all_labeled_posets(3):
        J = random_cofinite_ideal(P, rng, max_val=2)
        marks = J.minimal_markers()
        graphs = {m.graph() for m in marks}
        nmax = J.nmax()
        for dom in P.ideals():
            order = sorted(dom)
            for vals in enumerate_isotone(P, nmax):
                if any(P.lt(p, q) and vals[p] > vals[q] for p in dom for q in dom):
                    continue
                marker = Marker.on(dom, {p: vals[p] for p in order}, P.n)
                if not J.is_marker(marker):
                    continue
                restriction_minimal = not any(
                    sub != dom
                    and J.is_marker(Marker.on(sub, {p: vals[p] for p in sorted(sub)}, P.n))
                    for sub in P.ideals()
                    if sub < dom
                )
                assert restriction_minimal == (marker.graph() in graphs)


def test_empty_and_full_ideals():
    A = antichain(2)
    everything = HomIdeal.cofinite(A, [])
    assert everything.member((5, 9))
    marks = everything.minimal_markers()
    assert len(marks) == 1 and marks[0].domain == frozenset()
    nothing = HomIdeal.cofinite(A, [(0, 0)])
    assert not nothing.member((0, 0))
    assert nothing.minimal_markers() == []


def test_empty_ground_poset():
    from letterplace.ideals import coletterplace_ideal, letterplace_ideal
    from letterplace.poset import Poset

    P = Poset(0, [])
    whole = HomIdeal.principal(P, ())
    assert whole.member(())
    assert letterplace_ideal(whole).is_zero
    assert coletterplace_ideal(whole).is_unit
    empty = HomIdeal.cofinite(P, [()])
    assert not empty.member(())
    assert letterplace_ideal(empty).is_unit
    assert coletterplace_ideal(empty).is_zero


def test_json_round_trip():
    P = chain(3)
    for J in (
        HomIdeal.principal(P, (1, 1, 2)),
        HomIdeal.finite(chain(2), [(0, 0), (0, 1)]),
        HomIdeal.cofinite(antichain(2), [(1, 1)]),
    ):
        K = HomIdeal.from_json(J.to_json())
        assert K.kind == J.kind and K.to_json() == J.to_json()


@settings(max_examples=200, deadline=None)
@given(
    maps=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=12
    )
)
def test_minimal_of_matches_bruteforce(maps):
    # repeated maps and maps of every value sum
    assert minimal_of(maps + maps[:3]) == brute_minimal(maps)


SMALL_POSETS = [P for n in range(4) for P in all_labeled_posets(n)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_minimal_markers_match_bruteforce(data):
    # generators valued <= 3 on up to five elements; every generator is 0 on
    # the drawn set `flat`, so max_g g(p) = 0 there whenever there are any
    P = draw_poset(data, 5)
    flat = data.draw(st.sets(st.sampled_from(range(P.n)))) if P.n else set()
    pool = [g for g in enumerate_isotone(P, 3) if all(g[p] == 0 for p in flat)]
    gens = data.draw(st.lists(st.sampled_from(pool), max_size=3))
    J = HomIdeal.cofinite(P, gens)
    assert J.minimal_markers() == brute_minimal_markers(J)


def test_minimal_markers_where_every_generator_is_zero():
    # every generator is 0 at element 1, so no minimal marker's domain has 1
    # as a maximal element: its box there is empty
    P = poset_from_covers(3, [(1, 2)])
    J = HomIdeal.cofinite(P, [(1, 0, 2), (2, 0, 1), (0, 0, 3)])
    marks = J.minimal_markers()
    assert marks == brute_minimal_markers(J)
    assert marks and all(1 not in m.domain or 2 in m.domain for m in marks)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_enumerate_isotone_matches_brute_filter(data):
    # element numbers in any order against the poset, so the walk meets
    # elements above the one it fills as well as below
    P = draw_poset(data, 5)
    bound = data.draw(st.integers(0, 3))
    maps = brute_isotone(P, bound)
    assert enumerate_isotone(P, bound) == maps
    isotone = set(maps)
    assert all(is_isotone(P, m) == (m in isotone) for m in product(range(bound + 1), repeat=P.n))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_prefix_covers_are_the_extremes_of_the_earlier_comparable_positions(data):
    # for all of P and for every ideal of P, as the walk of minimal_markers
    # takes them; element numbers in any order against the poset
    P = draw_poset(data, 5)
    for elements in [range(P.n), *P.ideals()]:
        order = sorted(elements)
        ref_below, ref_above = ref_prefix_positions(P, order)
        below, above = _prefix_covers(P, order)
        for k in range(len(order)):
            highest = brute_minimal_elements(ref_below[k], lambda i, j: P.leq(order[j], order[i]))
            lowest = brute_minimal_elements(ref_above[k], lambda i, j: P.leq(order[i], order[j]))
            assert sorted(below[k]) == sorted(highest)
            assert sorted(above[k]) == sorted(lowest)


@pytest.mark.parametrize("upward", [True, False], ids=["bottom-up", "top-down"])
def test_deep_chain_walk_reads_one_prefix_cover_per_element(upward):
    # 0 < 1 < ... < 2999, or the reverse: each position after the first has
    # one prefix cover, its predecessor, below it or above it
    n = 3000
    P = chain(n) if upward else Poset(n, [(i + 1, i) for i in range(n - 1)])
    assert enumerate_isotone(P, 0) == [(0,) * n]
    below, above = _prefix_covers(P, range(n))
    assert sum(map(len, below)) + sum(map(len, above)) == n - 1
    assert (below if upward else above)[1:] == [[k] for k in range(n - 1)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_complement_gens_finite_match_bruteforce(data):
    # the down-closure of at most three maps valued <= 3; none gives the empty ideal
    P = data.draw(st.sampled_from(SMALL_POSETS))
    pool = enumerate_isotone(P, 3)
    tops = data.draw(st.lists(st.sampled_from(pool), max_size=3))
    J = HomIdeal.finite(P, [m for m in pool if any(dominates(t, m) for t in tops)])
    N = max((v for m in J.maps for v in m), default=0)
    assert list(J.complement_gens()) == brute_complement_gens(J, N + 1)


def test_complement_gens_finite_on_a_wide_antichain():
    # seven maps, while the maps valued <= 7 on eight elements number 8**8
    J = HomIdeal.finite(antichain(8), [(k,) + (0,) * 7 for k in range(7)])
    units = [tuple(int(q == p) for q in range(8)) for p in range(1, 8)]
    assert list(J.complement_gens()) == sorted(units + [(7,) + (0,) * 7])
