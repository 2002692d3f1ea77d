"""Poset construction, closures, and subset classification."""

import json
import re
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letterplace.errors import CycleDetected, IdentifierOutOfRange, NotIsotone
from letterplace.homset import Marker, check_marker_shape, is_isotone
from letterplace.poset import Poset, antichain, chain, poset_from_covers

from util import (
    all_labeled_posets,
    brute_ideals,
    is_antichain_poset,
    is_filter,
    opposite,
    ref_covers,
    ref_down,
)


def fence():
    # a < c, b < c, b < d
    return poset_from_covers(4, [(0, 2), (1, 2), (1, 3)], labels=["a", "b", "c", "d"])


def test_two_element_chain():
    P = poset_from_covers(2, [(0, 1)])
    assert P.leq(0, 1) and not P.leq(1, 0)
    assert P.leq(0, 0) and P.leq(1, 1)


def test_two_element_antichain():
    P = poset_from_covers(2, [])
    assert not P.leq(0, 1) and not P.leq(1, 0)


def test_fence_relations():
    P = fence()
    assert P.lt(0, 2) and P.lt(1, 2) and P.lt(1, 3)
    assert not P.comparable(0, 1) and not P.comparable(2, 3) and not P.comparable(0, 3)


def test_transitivity_of_closure():
    P = poset_from_covers(3, [(0, 1), (1, 2)])
    assert P.leq(0, 2)
    assert P.covers() == [(0, 1), (1, 2)]


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        poset_from_covers(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleDetected):
        poset_from_covers(3, [(0, 1), (1, 2), (2, 0)])
    # the error names an element on the cycle, not the tail that leads to it
    with pytest.raises(CycleDetected, match="cycle through element 1$"):
        poset_from_covers(4, [(0, 1), (1, 2), (2, 3), (3, 1)])


def test_closure_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 200
    P = chain(n)
    assert P.up[0] == P.down[n - 1] == (1 << n) - 1
    assert P.leq(0, n - 1) and not P.leq(n - 1, 0)
    with pytest.raises(CycleDetected):
        poset_from_covers(n, [(i, (i + 1) % n) for i in range(n)])


def check_order_tables(P: Poset) -> None:
    """down, covers(), lower and upper against the all-pairs oracles, and
    order a linear extension."""
    assert P.down == ref_down(P)
    covers = ref_covers(P)
    assert P.covers() == covers
    assert P.upper == tuple(sum(1 << q for p, q in covers if p == e) for e in range(P.n))
    assert P.lower == tuple(sum(1 << p for p, q in covers if q == e) for e in range(P.n))
    assert sorted(P.order) == list(range(P.n))
    position = {p: k for k, p in enumerate(P.order)}
    assert all(position[p] < position[q] for p in range(P.n) for q in range(P.n) if P.lt(p, q))


def all_pairs_isotone(P: Poset, values) -> bool:
    """Oracle for is_isotone: values[p] <= values[q] for every p <= q."""
    return all(values[p] <= values[q] for p in range(P.n) for q in range(P.n) if P.leq(p, q))


def test_down_masks_match_transposed_up_masks_small():
    # and the other order tables; all_labeled_posets lists every strict
    # relation, so most of its cover lists hold transitive edges
    for n in range(6):
        for P in all_labeled_posets(n):
            check_order_tables(P)
            for mask in range(1 << n):
                values = [mask >> p & 1 for p in range(n)]
                assert is_isotone(P, values) == all_pairs_isotone(P, values)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_down_masks_match_transposed_up_masks_random_dags(data):
    # and the other order tables.  Edges a -> b with a before b in a drawn
    # order, so the graph is acyclic; the element numbers are shuffled, and
    # the edge list repeats some edges and adds the transitive edge of some
    # paths of two
    n = data.draw(st.integers(1, 14))
    order = data.draw(st.permutations(range(n)))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges = [(a, b) for a, b in edges if a < b]
    edges += data.draw(st.lists(st.sampled_from(edges), max_size=n)) if edges else []
    edges += [(a, c) for a, b in edges for b2, c in edges if b == b2][:n]
    covers = [(order[a], order[b]) for a, b in data.draw(st.permutations(edges))]
    P = poset_from_covers(n, covers)
    check_order_tables(P)
    assert poset_from_covers(n, P.covers()) == P
    for values in data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=5)):
        assert is_isotone(P, values) == all_pairs_isotone(P, values)
    # a marker's values are checked on the covers inside its domain
    ideal = P.closure(data.draw(st.sets(st.integers(0, n - 1), max_size=3)), "down")
    values = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    marker = Marker.on(ideal, dict(enumerate(values)), n)
    if all(values[p] <= values[q] for p in ideal for q in ideal if P.leq(p, q)):
        check_marker_shape(P, marker)
    else:
        with pytest.raises(NotIsotone):
            check_marker_shape(P, marker)


def test_identifier_range_rejected():
    with pytest.raises(IdentifierOutOfRange):
        poset_from_covers(2, [(0, 2)])
    P = poset_from_covers(2, [(0, 1)])
    with pytest.raises(IdentifierOutOfRange):
        P.closure({5}, "down")


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: Poset(-1), "-1"),
        (lambda: chain(-2, one_based=False), "-2"),
        (lambda: chain(-2), "-2"),
        (lambda: antichain(-1), "-1"),
        (lambda: Poset(2.0), "2.0"),
        (lambda: Poset(True), "true"),
    ],
    ids=["Poset(-1)", "chain(-2,False)", "chain(-2)", "antichain(-1)", "Poset(2.0)", "Poset(True)"],
)
def test_poset_size_must_be_a_non_negative_int(build, shown):
    # the constructor runs the check that Poset.from_json ran alone: Poset(-1)
    # built a "poset" with n < 0 and chain(-2) raised a labels error
    with pytest.raises(ValueError, match=re.escape(f"poset n must be a non-negative integer, got {shown}")):
        build()


@pytest.mark.parametrize(
    "query, args",
    [
        ("up_set", (-1,)),
        ("down_set", (9,)),
        ("is_ideal", ([-1],)),
        ("is_ideal", ([7],)),
        ("is_antichain", ([7, 8],)),
        ("leq", (0, 9)),
        ("leq", (0, -1)),
        ("lt", (5, 5)),
        ("comparable", (5, 0)),
        ("closure", ([3], "down")),
        ("min_elements", ([-1, 0],)),
        ("max_elements", ([3],)),
    ],
)
def test_queries_reject_out_of_range_identifiers(query, args):
    with pytest.raises(IdentifierOutOfRange, match=r"not in 0\.\.2"):
        getattr(chain(3), query)(*args)


def test_queries_match_their_definitions_on_all_small_posets():
    # each query read from the pairs p <= q, over every subset (and for
    # is_antichain every list of at most three entries, repeats included)
    for n in range(5):
        for P in all_labeled_posets(n):
            le = {(p, q) for p in range(n) for q in range(n) if P.up[p] >> q & 1}
            assert P.is_chain() == all((p, q) in le or (q, p) in le for p in range(n) for q in range(n))
            for p in range(n):
                assert P.up_set(p) == {q for q in range(n) if (p, q) in le}
                assert P.down_set(p) == {q for q in range(n) if (q, p) in le}
                for q in range(n):
                    assert P.leq(p, q) == ((p, q) in le)
                    assert P.lt(p, q) == ((p, q) in le and p != q)
                    assert P.comparable(p, q) == ((p, q) in le or (q, p) in le)
            for bits in range(1 << n):
                S = {p for p in range(n) if bits >> p & 1}
                below = {p for p in S if any((q, p) in le and q != p for q in S)}
                above = {p for p in S if any((p, q) in le and q != p for q in S)}
                assert set(P.min_elements(S)) == S - below
                assert set(P.max_elements(S)) == S - above
                assert P.is_ideal(S) == all(q in S for p in S for q in range(n) if (q, p) in le)
            for k in range(4):
                for S in product(range(n), repeat=k):
                    want = all((p, q) not in le and (q, p) not in le for i, p in enumerate(S) for q in S[:i])
                    assert P.is_antichain(S) == want


def test_closure_examples():
    P = poset_from_covers(2, [(0, 1)])
    assert set(P.closure({1}, "down")) == {0, 1}
    assert set(P.closure({1}, "up")) == {1}
    assert P.closure({1}, "down").kind == "ideal"
    assert P.closure({1}, "up").kind == "filter"


def test_closure_fence_oracle():
    # oracle: direct scan of the order table
    P = fence()
    got = set(P.closure({2}, "down"))
    assert got == {q for q in P.elements if P.leq(q, 2)} == {0, 1, 2}


def test_min_elements_examples():
    P = poset_from_covers(2, [(0, 1)])
    assert set(P.min_elements(set())) == set()
    assert set(P.min_elements({0, 1})) == {0}
    F = fence()
    assert set(F.min_elements({2, 3, 1})) == {1}
    assert F.min_elements({2, 3, 1}).kind == "antichain"


@pytest.mark.parametrize("kind", [list, set, frozenset, iter, lambda xs: (p for p in xs)],
                         ids=["list", "set", "frozenset", "iterator", "generator"])
def test_subset_queries_read_any_iterable_once(kind):
    P = chain(3)
    assert set(P.closure(kind([1]), "down")) == {0, 1}
    assert set(P.closure(kind([1]), "up")) == {1, 2}
    assert set(P.min_elements(kind([1, 2]))) == {1}
    assert set(P.max_elements(kind([1, 2]))) == {2}
    with pytest.raises(IdentifierOutOfRange):
        P.min_elements(kind([1, 3]))


def test_closure_idempotent_small():
    from util import poset_classes

    for P in list(all_labeled_posets(3)) + poset_classes(4):
        for mask in range(1 << P.n):
            A = {p for p in range(P.n) if mask >> p & 1}
            once = set(P.closure(A, "down"))
            assert set(P.closure(once, "down")) == once
            up_once = set(P.closure(A, "up"))
            assert set(P.closure(up_once, "up")) == up_once


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ideal_iff_complement_filter(n):
    P = chain(n) if n % 2 else antichain(n)
    everything = set(P.elements)
    for mask in range(1 << n):
        S = {p for p in range(n) if mask >> p & 1}
        assert P.is_ideal(S) == is_filter(P, everything - S)


def test_ideal_complement_filter_all_posets_n3():
    for P in all_labeled_posets(3):
        everything = set(P.elements)
        for mask in range(1 << 3):
            S = {p for p in range(3) if mask >> p & 1}
            assert P.is_ideal(S) == is_filter(P, everything - S)


def test_min_elements_generate_filter():
    for P in all_labeled_posets(3):
        for mask in range(1 << 3):
            S = {p for p in range(3) if mask >> p & 1}
            if is_filter(P, S):
                assert set(P.closure(P.min_elements(S), "up")) == S


def test_opposite_poset_view():
    P = fence()
    Q = opposite(P)
    assert Q.leq(2, 0) and not Q.leq(0, 2)
    assert opposite(Q) == P and opposite(Q).labels == P.labels


def test_ideals_enumeration():
    P = chain(3)
    got = sorted(tuple(sorted(s)) for s in P.ideals())
    assert got == [(), (0,), (0, 1), (0, 1, 2)]
    # 41 ideals of the 2^40 subsets: the enumeration must not filter them all
    assert [sorted(s) for s in chain(40).ideals()] == [list(range(k)) for k in range(41)]


def test_ideals_match_brute_force_on_small_posets():
    for n in range(5):
        for P in all_labeled_posets(n):
            assert P.ideals() == brute_ideals(P)


def test_json_round_trip_and_determinism():
    P = fence()
    text = P.to_json()
    assert text == P.to_json()
    Q = Poset.from_json(text)
    assert Q == P and Q.labels == P.labels
    doc = json.loads(text)
    assert doc["covers"] == sorted(doc["covers"])


def test_chain_antichain_builders():
    assert chain(3).is_chain()
    assert is_antichain_poset(antichain(3))
    assert chain(3).labels == ("1", "2", "3")


def test_redundant_and_repeated_covers_are_not_kept():
    P = poset_from_covers(4, [(0, 3), (0, 1), (1, 2), (2, 3), (0, 2), (0, 1), (1, 3)])
    assert P.covers() == [(0, 1), (1, 2), (2, 3)] and P == chain(4, one_based=False)
    assert P.upper == (0b10, 0b100, 0b1000, 0) and P.lower == (0, 0b1, 0b10, 0b100)
    assert P.order == (0, 1, 2, 3)
    assert Poset.from_json(P.to_json()).covers() == P.covers()


@pytest.mark.parametrize(
    "labels, shown",
    [(None, None), (["0", "1", "2"], None), (("0", "1", "2"), None), (["a", "b", "c"], ["a", "b", "c"]),
     (["1", "2", "3"], ["1", "2", "3"])],
    ids=["none", "default-list", "default-tuple", "letters", "one-based"],
)
def test_labels_and_json_keep_their_values(labels, shown):
    # labels equal to the default are not written, whether given or not
    P = Poset(3, [(0, 1), (0, 2), (1, 2)], labels)
    assert P.labels == (tuple(shown) if shown else ("0", "1", "2"))
    text = '{"covers": [[0, 1], [1, 2]], ' + (f'"labels": {json.dumps(shown)}, ' if shown else "") + '"n": 3}'
    assert P.to_json() == text
    Q = Poset.from_json(text)
    assert Q == P and Q.labels == P.labels and Q.to_json() == text
    assert Poset(0).labels == () and Poset(0).to_json() == '{"covers": [], "n": 0}'


def test_deep_chain_covers_without_pair_tests():
    P = chain(3000)
    assert P.covers() == [(i, i + 1) for i in range(2999)]
    assert P.order == tuple(range(3000))
    assert Poset.from_json(P.to_json()) == P
