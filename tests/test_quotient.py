"""Fiber maps, projections, and Hilbert-series regularity checks."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letterplace.errors import VariableOutsideSource
from letterplace.homset import HomIdeal, enumerate_isotone
from letterplace.ideals import coletterplace_ideal, letterplace_ideal, support
from letterplace.monomial import Monomial, MonomialIdeal, _numerator, elem_var, nat_var, pair_var
from letterplace.quotient import (
    FiberMap,
    _projection,
    fiber_kind,
    project_ideal,
    regular_quotient_check,
)
from letterplace.poset import antichain, chain

from util import (
    nonstrict_merge_map,
    poset_classes,
    quotient_order_ok,
    ref_hilbert_numerator,
    ref_project_ideal,
    single_merge_maps,
)


def pairs_mono(*pairs):
    return Monomial((pair_var(p, i), 1) for p, i in pairs)


def test_fiber_kind_projections():
    P = chain(3)
    S = [(p, i) for p in range(3) for i in range(2)]
    assert fiber_kind(P, FiberMap.projection_first(S)) == "right"
    assert fiber_kind(P, FiberMap.projection_second(S)) == "left"
    assert fiber_kind(P, FiberMap.identity(S)) == "both"


def test_fiber_kind_reads_the_opposite_order():
    # a chain fiber pairs the smaller second coordinate with the larger or
    # equal first one, as (opposite of P) x N orders them
    P = chain(3)
    assert fiber_kind(P, FiberMap.make([(2, 0), (0, 1)], [elem_var(0)] * 2)) == "both"
    assert fiber_kind(P, FiberMap.make([(0, 0), (2, 1)], [elem_var(0)] * 2)) == "neither"


def test_fiber_map_json_round_trip():
    S = [(0, 0), (0, 1), (1, 0)]
    for fmap in (FiberMap.projection_first(S), FiberMap.projection_second(S), FiberMap.identity(S)):
        assert FiberMap.from_json(fmap.to_json()) == fmap
    short = {"source": S, "assignment": [["elem", 0], ["nat", 1], ["pair", 1, 0]]}
    assert FiberMap.from_json(json.dumps(short)).targets == (elem_var(0), nat_var(1), pair_var(1, 0))


@pytest.mark.parametrize(
    "entry",
    [["foo", 0], ["elem", 1, 7], ["nat", 0, 1], ["pair", 0], ["pair", 0, 1, 2], ["elem"], [],
     ["elem", "1"], ["elem", 1.0], ["elem", True], "elem", ["nat", None], [["elem"], 0]],
    ids=["unknown-kind", "elem-second-index", "nat-second-index", "pair-one-index", "pair-three-indices",
         "no-index", "empty", "string-index", "float-index", "bool-index", "bare-string", "null-index",
         "list-kind"],
)
def test_fiber_map_json_rejects_unknown_variables(entry):
    doc = {"source": [[0, 0]], "assignment": [entry]}
    with pytest.raises(ValueError, match="is not"):
        FiberMap.from_json(json.dumps(doc))


def test_fiber_map_rejects_unparallel_source_and_assignment():
    # an assignment longer than the source used to be cut short by zip
    with pytest.raises(ValueError, match="the source has 1 pairs but the assignment has 2 entries"):
        FiberMap.from_json(json.dumps({"source": [[0, 0]], "assignment": [["elem", 0], ["elem", 1]]}))
    with pytest.raises(ValueError, match="the source has 2 pairs but the assignment has 1 entries"):
        FiberMap.make([(0, 0), (0, 1)], [elem_var(0)])


def test_fiber_map_rejects_repeated_source_pairs():
    # a repeated pair used to take its last target for both copies
    doc = {"source": [[0, 0], [0, 0]], "assignment": [["elem", 0], ["elem", 1]]}
    with pytest.raises(ValueError, match=r"source pair \[0, 0\] is listed twice"):
        FiberMap.from_json(json.dumps(doc))
    with pytest.raises(ValueError, match=r"source pair \[1, 2\] is listed twice"):
        FiberMap.make([[1, 2], (0, 0), (1, 2)], [elem_var(0)] * 3)


def test_fiber_kind_second_projection_needs_chain():
    P = antichain(2)
    S = [(0, 0), (1, 0)]
    assert fiber_kind(P, FiberMap.projection_second(S)) == "neither"


def test_project_identity():
    J = HomIdeal.principal(chain(2), (0, 1))
    L = letterplace_ideal(J)
    S = sorted(support(J))
    assert project_ideal(L, FiberMap.identity(S)).gens == L.gens


def test_project_accumulates_exponents():
    I = Monomial([(pair_var(0, 0), 1), (pair_var(0, 1), 1)])
    out = project_ideal(MonomialIdeal([I]), FiberMap.projection_first([(0, 0), (0, 1)]))
    assert out.gens == (Monomial([(elem_var(0), 2)]),)


def test_project_running_example_strongly_stable_shape():
    J = HomIdeal.principal(chain(3), (1, 1, 2))
    L = letterplace_ideal(J)
    out = project_ideal(L, FiberMap.projection_first(sorted(support(J))))
    e = [elem_var(p) for p in range(3)]
    assert set(out.gens) == {
        Monomial([(e[0], 2)]),
        Monomial([(e[0], 1), (e[1], 1)]),
        Monomial([(e[1], 2)]),
        Monomial([(e[0], 1), (e[2], 2)]),
        Monomial([(e[1], 1), (e[2], 2)]),
        Monomial([(e[2], 3)]),
    }


def same_gens(I, J) -> bool:
    # _make takes its parts as given, so compare them, not only exps
    return I.universe == J.universe and [(g.exps, g.degree()) for g in I.gens] == [
        (g.exps, g.degree()) for g in J.gens
    ]


def test_project_drops_duplicates_and_proper_divisors():
    # p1 sends x[0,0]x[1,1] and x[0,1]x[1,0] to one row, and x[0,0]x[0,1]x[1,2]
    # to a multiple of it; x[2,0]x[2,1] survives as x_2^2
    gens = [pairs_mono((0, 0), (1, 1)), pairs_mono((0, 1), (1, 0)), pairs_mono((0, 0), (0, 1), (1, 2)),
            pairs_mono((2, 0), (2, 1))]
    I = MonomialIdeal(gens)
    assert len(I.gens) == 4
    fmap = FiberMap.projection_first([(v.a, v.b) for v in I.universe])
    out = project_ideal(I, fmap)
    e = [elem_var(p) for p in range(3)]
    assert out.gens == (Monomial([(e[0], 1), (e[1], 1)]), Monomial([(e[2], 2)]))
    assert same_gens(out, ref_project_ideal(I, fmap))


TARGET_POOL = [elem_var(0), elem_var(1), nat_var(0), nat_var(2), pair_var(1, 0)]


@st.composite
def merged_pair_ideals(draw):
    """(I, f): a random pair ideal with exponents 1 to 3 and a map of its
    pairs onto at most three targets, so that images coincide and divide
    one another."""
    source = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=9, unique=True))
    palette = draw(st.lists(st.sampled_from(TARGET_POOL), min_size=1, max_size=3, unique=True))
    targets = draw(st.lists(st.sampled_from(palette), min_size=len(source), max_size=len(source)))
    tables = draw(st.lists(st.dictionaries(st.sampled_from(source), st.integers(1, 3), max_size=4), max_size=8))
    I = MonomialIdeal(Monomial((pair_var(p, i), e) for (p, i), e in t.items()) for t in tables)
    return I, FiberMap.make(source, targets)


@settings(max_examples=300, deadline=None)
@given(merged_pair_ideals())
def test_project_ideal_matches_monomial_oracle(case):
    I, fmap = case
    assert same_gens(project_ideal(I, fmap), ref_project_ideal(I, fmap))


def test_projection_keeps_a_level_of_dropped_rows_only():
    # p1 sends x[0,1]^2 x[1,0] to the row (2, 1), a multiple of the row
    # (1, 1) of x[0,0] x[1,0]: it is dropped, and its level x0^2 is held by
    # no kept row, yet stays a bit, always set together with the bit of x0^3
    I = MonomialIdeal([Monomial([(pair_var(0, 0), 1), (pair_var(1, 0), 1)]),
                       Monomial([(pair_var(0, 1), 2), (pair_var(1, 0), 1)]),
                       Monomial([(pair_var(0, 0), 3)])])
    fmap = FiberMap.projection_first([(0, 0), (0, 1), (1, 0)])
    targets, masks, levels = _projection(I, fmap)
    assert levels == [(0, 1), (0, 2), (0, 3), (1, 1)]
    assert masks == (0b0111, 0b1001)  # x0^3 and x0 x1
    projected = ref_project_ideal(I, fmap)
    assert _numerator(masks, levels) == ref_hilbert_numerator(projected)
    assert regular_quotient_check(I, fmap) == (ref_hilbert_numerator(I) == ref_hilbert_numerator(projected))


@settings(max_examples=300, deadline=None)
@given(merged_pair_ideals())
def test_regular_quotient_check_matches_monomial_oracle(case):
    # the projected side runs on masks only; the oracle projects through
    # the general constructors and recurses on monomials
    I, fmap = case
    projected = ref_project_ideal(I, fmap)
    _, masks, levels = _projection(I, fmap)
    assert _numerator(masks, levels) == ref_hilbert_numerator(projected)
    assert regular_quotient_check(I, fmap) == (ref_hilbert_numerator(I) == ref_hilbert_numerator(projected))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(merged_pair_ideals())
def test_equal_numerators_keep_every_minimal_generator(case):
    # a regular quotient keeps the graded Betti numbers, so the count test
    # that regular_quotient_check runs first never rejects a regular one
    I, fmap = case
    if ref_hilbert_numerator(I) == ref_hilbert_numerator(ref_project_ideal(I, fmap)):
        assert len(_projection(I, fmap)[1]) == len(I.gens)


def test_regular_check_rejects_a_lost_generator_without_numerators(monkeypatch):
    # merging the two incomparable pairs of the antichain sends both
    # generators of L to one, so no numerator is needed to reject it
    import letterplace.quotient

    calls = []
    refuse = [True]

    def spy(original):
        def numerator(*args):
            calls.append(original.__name__)
            if refuse[0]:
                raise RuntimeError("a numerator was computed")
            return original(*args)
        return numerator

    for name in ("hilbert_numerator", "_numerator"):
        monkeypatch.setattr(letterplace.quotient, name, spy(getattr(letterplace.quotient, name)))
    P = antichain(2)
    J = HomIdeal.principal(P, (0, 0))
    L = letterplace_ideal(J)
    S = sorted(support(J))
    assert regular_quotient_check(L, nonstrict_merge_map(P, S)) is False
    assert calls == []
    # the control: a regular map on the same ideal computes both numerators
    refuse[0] = False
    assert regular_quotient_check(L, FiberMap.identity(S)) is True
    assert calls == ["hilbert_numerator", "_numerator"]


def test_project_rejects_outside_variables():
    J = HomIdeal.principal(chain(2), (1, 1))
    L = letterplace_ideal(J)
    with pytest.raises(VariableOutsideSource):
        project_ideal(L, FiberMap.projection_first([(0, 0)]))


def test_regular_identity_always():
    J = HomIdeal.principal(chain(2), (1, 1))
    L = letterplace_ideal(J)
    assert regular_quotient_check(L, FiberMap.identity(sorted(support(J))))


def test_regular_running_example_first_projection():
    J = HomIdeal.principal(chain(3), (1, 1, 2))
    L = letterplace_ideal(J)
    assert regular_quotient_check(L, FiberMap.projection_first(sorted(support(J))))


def test_regular_coletterplace_second_projection_random_finite():
    rng = random.Random(41)
    for m in (2, 3):
        P = chain(m)
        pool = enumerate_isotone(P, 2)
        for _ in range(5):
            J = HomIdeal.principal(P, rng.choice(pool))
            C = coletterplace_ideal(J)
            if C.is_zero or C.is_unit:
                continue
            pairs = sorted({(v.a, v.b) for g in C.gens for v in g.support()})
            assert regular_quotient_check(C, FiberMap.projection_second(pairs))


def test_regular_fails_on_nonstrict_merge():
    P = antichain(2)
    J = HomIdeal.principal(P, (0, 0))
    L = letterplace_ideal(J)
    bad = nonstrict_merge_map(P, sorted(support(J)))
    assert bad is not None
    assert not regular_quotient_check(L, bad)


def test_single_strict_merges_regular_small():
    rng = random.Random(43)
    for P in poset_classes(3):
        for alpha in enumerate_isotone(P, 2)[:6]:
            J = HomIdeal.principal(P, alpha)
            L = letterplace_ideal(J)
            C = coletterplace_ideal(J)
            S = sorted(support(J))
            if not S:
                continue
            for fmap in single_merge_maps(P, S, "right")[:8]:
                assert regular_quotient_check(L, fmap)
            cpairs = sorted({(v.a, v.b) for g in C.gens for v in g.support()})
            for fmap in single_merge_maps(P, cpairs, "left")[:8]:
                assert regular_quotient_check(C, fmap)


def test_quotient_order_ok_detects_cycles():
    # merging the endpoints of a three-chain traps the middle element
    P = chain(3)
    S = [(0, 0), (1, 0), (2, 0)]
    targets = (pair_var(0, 0), pair_var(1, 0), pair_var(0, 0))
    fmap = FiberMap(tuple(S), targets)
    assert not quotient_order_ok(P, fmap)
    assert quotient_order_ok(P, FiberMap.identity(S))
