"""Staircase matrices, terrace/i sequences, and the initial-ideal theorem."""

import gc
import json
import random
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import letterplace as lp
import letterplace.determinantal as determinantal
from letterplace.cli import main
from letterplace.determinantal import (
    LSequence,
    build_matrix,
    codim_formulas,
    diagonal_leads_ok,
    i_sequence,
    ideal_gens,
    is_terrace,
    l_from_i,
    ly_ideal,
    minors_with_positions,
    terrace,
    verify_main,
)
from letterplace.errors import NotTerrace
from letterplace.groebner import diagonal_order
from letterplace.monomial import Monomial, MonomialIdeal, pair_var

from util import (
    ref_diagonal_leads_ok,
    ref_ly_ideal,
    ref_minors,
    ref_terrace,
    ref_verify_main,
    same_ideal_by_membership,
)


def ymono(*pairs):
    return Monomial((pair_var(p, i), 1) for p, i in pairs)


def test_lsequence_validation():
    with pytest.raises(ValueError):
        LSequence(0, (2, 1))
    with pytest.raises(ValueError):
        LSequence(0, (1,))
    s = LSequence(2, (3, 3, 5))
    assert s.b == 4 and s[2] == 3 and s[4] == 5


@pytest.mark.parametrize(
    "a, vals", [(0, (0, 1.5, 3)), (0, (0, True, 3)), (0.0, (0, 1)), (False, (0, 1)), (0, (0, "1"))],
)
def test_lsequence_entries_must_be_ints(a, vals):
    # a float entry reached range() in the matrix as a TypeError
    with pytest.raises(ValueError, match="must be ints"):
        LSequence(a, vals)


def test_matrix_seventeen_variables():
    M = build_matrix(LSequence(0, (0, 0, 3, 4, 6)))
    assert len(M.variables()) == 17
    assert M.columns == (1, 2, 3, 4, 5, 6)
    assert M.rows == (0, 1, 2, 3)
    assert M.entry(1, 0) == pair_var(1, 0)
    assert M.entry(1, 2) is None
    assert M.entry(5, 3) == pair_var(5, 3)


def test_matrix_one_by_two():
    M = build_matrix(LSequence(0, (0, 2)))
    assert M.variables() == [pair_var(1, 0), pair_var(2, 0)]


def test_matrix_five_by_eight_staircase():
    M = build_matrix(LSequence(2, (3, 3, 5, 7, 8, 11)))
    assert M.columns == tuple(range(4, 12))
    assert M.rows == (2, 3, 4, 5, 6)
    # column fill heights: 4,5 reach row 3; 6,7 reach row 4; 8 reaches 5; 9..11 reach 6
    heights = {p: M.column_top(p) for p in M.columns}
    assert heights == {4: 3, 5: 3, 6: 4, 7: 4, 8: 5, 9: 6, 10: 6, 11: 6}
    # rows are capped at b-1 = 6
    assert len(M.variables()) == sum(min(c, 6) - 2 + 1 for c in heights.values())


def test_ideal_gens_running_example_counts():
    gens = ideal_gens(LSequence(0, (0, 0, 3, 4, 6)))
    degrees = sorted(max(m.degree() for m in g.terms) for g in gens)
    # 3 two-minors, 3 nonzero three-minors, 12 nonzero four-minors
    assert degrees == [2] * 3 + [3] * 3 + [4] * 12


def test_ideal_gens_linear_case():
    gens = ideal_gens(LSequence(0, (0, 2)))
    assert sorted(g.text() for g in gens) == ["+1*y[1,0]", "+1*y[2,0]"]


def test_ideal_gens_cofactor_with_zero():
    gens = ideal_gens(LSequence(0, (0, 1, 2)))
    texts = sorted(g.text() for g in gens)
    assert texts == ["+1*y[1,0]", "+1*y[1,0]*y[2,1]"]


def test_terrace_flattens_worked_sequence():
    assert terrace(LSequence(2, (3, 3, 5, 7, 8, 11))).vals == (3, 3, 5, 7, 7, 11)


def test_terrace_fixed_point():
    t = LSequence(2, (3, 3, 5, 7, 7, 11))
    assert terrace(t) == t
    assert is_terrace(t)


def test_terrace_running_example():
    assert terrace(LSequence(0, (0, 0, 3, 4, 6))).vals == (0, 0, 3, 3, 6)


def test_terrace_below_input():
    rng = random.Random(5)
    for _ in range(50):
        a = rng.randint(0, 3)
        vals = [rng.randint(0, 3)]
        for _ in range(rng.randint(1, 5)):
            vals.append(vals[-1] + rng.randint(0, 3))
        s = LSequence(a, tuple(vals))
        t = terrace(s)
        assert all(x <= y for x, y in zip(t.vals, s.vals))
        assert is_terrace(t)


def test_terrace_matches_the_marked_maxima_oracle():
    # every weakly increasing sequence of length 2 to 6 with values 0 to 7,
    # for a in {0, 1, 2}: ties of the running maximum repeat the previous entry
    for a in (0, 1, 2):
        for n in range(2, 7):
            for vals in combinations_with_replacement(range(8), n):
                seq = LSequence(a, vals)
                assert terrace(seq) == ref_terrace(seq), seq


def test_i_sequence_worked_values():
    assert i_sequence(LSequence(2, (3, 3, 5, 7, 7, 11))).vals == (1, 1, 2, 3, 3, 5)
    assert i_sequence(LSequence(0, (0, 0, 3, 3, 6))).vals == (0, 0, 2, 2, 3)


def test_i_sequence_requires_terrace():
    with pytest.raises(NotTerrace):
        i_sequence(LSequence(0, (0, 0, 3, 4, 6)))


def test_terrace_i_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        a = rng.randint(0, 2)
        vals = [rng.randint(0, 2)]
        for _ in range(rng.randint(1, 5)):
            vals.append(vals[-1] + rng.randint(0, 3))
        t = terrace(LSequence(a, tuple(vals)))
        assert l_from_i(i_sequence(t)) == t
        i = i_sequence(t)
        assert i_sequence(l_from_i(i)) == i


def test_ly_ideal_examples():
    assert set(ly_ideal(LSequence(0, (0, 2))).gens) == {ymono((1, 0)), ymono((2, 0))}
    assert ly_ideal(LSequence(0, (0, 1, 1))).gens == (ymono((1, 0)),)


# every weakly increasing sequence with a in {0, 1}, length 2..5, values 0..5
SMALL_SEQUENCES = [
    LSequence(a, vals)
    for a in (0, 1)
    for length in range(2, 6)
    for vals in combinations_with_replacement(range(6), length)
]


def test_minors_and_ly_ideal_match_reference_routes():
    for seq in SMALL_SEQUENCES:
        assert minors_with_positions(seq) == ref_minors(seq), seq
        assert ly_ideal(seq) == ref_ly_ideal(seq), seq


def test_ly_ideal_is_minimal_by_construction():
    # MonomialIdeal._of_canonical skips minimalization and sorting; the
    # general constructor must find nothing to drop or reorder
    for seq in SMALL_SEQUENCES:
        I = ly_ideal(seq)
        assert MonomialIdeal(I.gens, I.universe) == I, seq


def test_ly_ideal_inside_staircase():
    for seq in (LSequence(0, (0, 0, 3, 4, 6)), LSequence(2, (3, 3, 5, 7, 8, 11))):
        M = build_matrix(seq)
        allowed = set(M.variables())
        target = ly_ideal(i_sequence(terrace(seq)))
        for g in target.gens:
            assert g.support() <= allowed


def test_diagonal_property_running_example():
    assert diagonal_leads_ok(LSequence(0, (0, 0, 3, 4, 6)))


def test_segment_inclusions_random_splits():
    # monomial side of the segment lemma: the left segment's generators stay
    # generators, and every generator splits across a cut
    rng = random.Random(11)
    for _ in range(20):
        a = rng.randint(0, 2)
        vals = [rng.randint(0, 2)]
        for _ in range(rng.randint(2, 4)):
            vals.append(vals[-1] + rng.randint(0, 2))
        iseq = LSequence(a, tuple(vals))
        whole = ly_ideal(iseq)
        for cut in range(a + 1, iseq.b):
            left = ly_ideal(LSequence(a, iseq.vals[: cut - a + 1]))
            right = ly_ideal(LSequence(cut, iseq.vals[cut - a :]))
            for g in left.gens:
                assert whole.contains(g)
            both = MonomialIdeal(left.gens + right.gens)
            for g in whole.gens:
                assert both.contains(g)


def test_unused_column_variable_lemma():
    # for c strictly after the start, l_c < l_{c+1} means y[l_c + 1, c] appears
    # in no generator; at c = a this can fail (e.g. (0,1,3) uses y[1,0])
    for a, vals in [(0, (0, 0, 3, 4, 6)), (2, (3, 3, 5, 7, 8, 11)), (0, (0, 1, 3))]:
        seq = LSequence(a, vals)
        target = ly_ideal(i_sequence(terrace(seq)))
        used = {v for g in target.gens for v in g.support()}
        for c in range(seq.a + 1, seq.b):
            if seq[c] < seq[c + 1]:
                assert pair_var(seq[c] + 1, c) not in used
    witness = ly_ideal(i_sequence(terrace(LSequence(0, (0, 1, 3)))))
    assert pair_var(1, 0) in {v for g in witness.gens for v in g.support()}


@pytest.mark.parametrize(
    "a,vals",
    [(0, (0, 2)), (0, (0, 1, 2)), (0, (0, 0, 4)), (0, (0, 1, 3)), (1, (2, 2, 4))],
)
def test_verify_main_small(a, vals):
    report = verify_main(LSequence(a, vals))
    assert report["ok"], report


def test_verify_main_reports_terrace_instance():
    report = verify_main(LSequence(0, (0, 1, 2)))
    assert report["terrace"] == [0, 1, 1]
    assert "terrace_instance" in report
    assert report["terrace_instance"]["ok"]


def test_verify_main_six_rows_at_default_caps():
    # the pair cap is the one budget, and the report echoes its default
    report = verify_main(LSequence(0, (0, 2, 4, 6, 8, 10)))
    assert report["budget"] == {"pair_cap": 200_000}
    assert report["ok"] and report["initial_equals_target"]
    assert report["gb_size"] == 24


def test_verify_main_seven_rows_at_default_caps():
    # 624 minors, none of which extends the basis
    report = verify_main(LSequence(0, (0, 2, 4, 6, 8, 10, 12)))
    assert report["ok"] and report["initial_equals_target"]
    assert report["num_generators"] == 624
    assert report["gb_size"] == 66


def test_verify_main_computes_minors_once(monkeypatch):
    calls = []
    build = determinantal._laplace_minors

    def counted(M, codec):
        calls.append(M.seq)
        return build(M, codec)

    monkeypatch.setattr(determinantal, "_laplace_minors", counted)
    assert verify_main(LSequence(0, (0, 0, 3, 3, 6)))["ok"]
    assert len(calls) == 1


def test_verify_main_builds_one_target_and_height(monkeypatch):
    # (0, 2, 3, 5, 8) is not a terrace; terrace is idempotent, so its
    # terrace instance has the same target and height as the outer call
    calls = {"ly_ideal": 0, "height": 0}
    for name in calls:
        build = getattr(determinantal, name)

        def counted(arg, name=name, build=build):
            calls[name] += 1
            return build(arg)

        monkeypatch.setattr(determinantal, name, counted)
    report = verify_main(LSequence(0, (0, 2, 3, 5, 8)))
    assert report["ok"] and "terrace_instance" in report
    assert calls == {"ly_ideal": 1, "height": 1}


def test_target_outside_the_matrix_is_a_mismatch(monkeypatch, capsys):
    # a target variable that the codec of the basis does not rank fails the
    # comparison of leading terms instead of raising
    build = determinantal.ly_ideal

    def outside(iseq):
        gens = list(build(iseq).gens)
        gens[0] = gens[0] * Monomial.variable(pair_var(99, 0))
        return MonomialIdeal(gens)

    monkeypatch.setattr(determinantal, "ly_ideal", outside)
    report = verify_main(LSequence(0, (0, 2, 3, 5, 8)))
    assert report["initial_equals_target"] is False and report["ok"] is False
    assert report["terrace_instance"]["initial_equals_target"] is False
    capsys.readouterr()
    assert main(["det", "verify", "--l", "0,2,3,5,8"]) == 1
    assert json.loads(capsys.readouterr().out)["initial_equals_target"] is False


def test_packed_target_rejects_exponents_its_fields_cannot_hold():
    # one exponent bit and a guard bit per field: y[2,0]^4 would carry into
    # the field of y[1,0] and pack as y[1,0]
    _, codec, _ = determinantal._packed_minors(LSequence(0, (0, 2)))
    assert codec.width == 2
    y10, y20 = pair_var(1, 0), pair_var(2, 0)
    assert codec.unit[y10] == 4 * codec.unit[y20]
    powers = [Monomial.variable(y20, k) for k in (4, 2, 1)]
    assert codec.terms([ymono((1, 0)), *powers]) == [codec.unit[y10], None, None, codec.unit[y20]]


def test_verify_main_eight_rows_at_default_caps():
    # 1429 minors, built packed; the basis has 197 elements
    report = verify_main(LSequence(0, (0, 1, 3, 5, 7, 9, 11, 13)))
    assert report["ok"] and report["initial_equals_target"]
    assert report["num_generators"] == 1429
    assert report["gb_size"] == 197


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(0, 2),
    shift=st.integers(0, 3),
    vals=st.lists(st.integers(0, 5), min_size=2, max_size=5),
)
@example(a=0, shift=0, vals=[0, 1, 2])  # not a terrace: its report nests (0, 1, 1)
@example(a=1, shift=2, vals=[0, 2, 3, 5])
def test_verify_main_matches_reference_route(a, shift, vals):
    # at most five entries, span at most five, terrace or not
    seq = LSequence(a, [v + shift for v in sorted(vals)])
    assert verify_main(seq) == ref_verify_main(seq)


def test_diagonal_leads_with_given_minors():
    for vals in [(0, 0, 3, 4, 6), (0, 1, 2), (0, 2, 3, 5, 8)]:
        seq = LSequence(0, vals)
        order = diagonal_order(build_matrix(seq).variables())
        assert diagonal_leads_ok(seq) == ref_diagonal_leads_ok(seq, order, ref_minors(seq))
    # the check reads the given list: the position of the minor y[1,0] paired
    # with the packed polynomial y[2,0] does not lead with its diagonal
    row, _, minors = determinantal._packed_minors(LSequence(0, (0, 2)))
    (c, rows, cols, _), (_, _, _, other) = minors
    assert determinantal._diagonal_leads(row, minors)
    assert not determinantal._diagonal_leads(row, [(c, rows, cols, other)])


GOLDEN = Path(__file__).parent / "data" / "golden_cli"


@pytest.mark.parametrize("vals", ["0,0,3,4,6", "0,2,4,6,8", "0,2,3,5,8", "0,2,4,6,8,10"])
def test_det_verify_golden_report(vals, capsys):
    """`letterplace det verify --l <vals>` prints the recorded report, byte for
    byte; the files were recorded at format version 3."""
    assert main(["det", "verify", "--l", vals]) == 0
    expected = (GOLDEN / f"det_verify_{vals.replace(',', '_')}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_det_verify_golden_budget_counts(capsys):
    """A capped run on the benchmark's largest instance prints the recorded
    BudgetExceeded counts, byte for byte, and exits 3."""
    assert main(["det", "verify", "--l", "0,2,4,6,8,10", "--pair-cap", "20"]) == 3
    expected = (GOLDEN / "det_verify_0_2_4_6_8_10_pair_cap_20.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "caps, message",
    [({"pair_cap": -1}, "pair_cap must be >= 0, got -1")],
)
def test_verify_main_rejects_negative_caps(caps, message):
    with pytest.raises(ValueError, match=message):
        verify_main(LSequence(0, (0, 1)), **caps)


def test_reduction_lemma_membership():
    # flat tail: the longer sequence generates the same ideal as its prefix
    for long_seq, short_seq in [
        (LSequence(0, (0, 1, 2)), LSequence(0, (0, 1))),
        (LSequence(0, (0, 2, 3)), LSequence(0, (0, 2))),
        (LSequence(1, (1, 3, 4, 5)), LSequence(1, (1, 3))),
    ]:
        c = short_seq.b
        assert all(
            long_seq[d] - long_seq[c] <= d - c for d in range(c, long_seq.b + 1)
        )
        order = diagonal_order(build_matrix(long_seq).variables())
        assert same_ideal_by_membership(
            ideal_gens(long_seq), ideal_gens(short_seq), order
        )


def test_ly_ideal_builds_one_ideal(monkeypatch):
    # the shifted generators of the multichains go straight into one
    # canonical ideal: no unshifted ideal is built first, and nothing takes
    # the general constructor's minimalization
    builds = []
    canonical = MonomialIdeal._of_canonical.__func__
    init = MonomialIdeal.__init__

    def counted_canonical(cls, gens, universe=None):
        builds.append("canonical")
        return canonical(cls, gens, universe)

    def counted_init(self, *args, **kwargs):
        builds.append("general")
        init(self, *args, **kwargs)

    monkeypatch.setattr(MonomialIdeal, "_of_canonical", classmethod(counted_canonical))
    monkeypatch.setattr(MonomialIdeal, "__init__", counted_init)
    iseq = LSequence(0, (0, 1, 2, 3, 4))
    target = ly_ideal(iseq)
    # positive control: the spy sees the one canonical build
    assert builds == ["canonical"]
    monkeypatch.undo()
    assert target == ref_ly_ideal(iseq)


def test_minor_leads_lie_in_target():
    # necessary half of the main statement, checkable without a basis
    for a, vals in [(0, (0, 0, 3, 4, 6)), (0, (0, 1, 3)), (2, (3, 3, 5, 7, 8, 11))]:
        seq = LSequence(a, vals)
        order = diagonal_order(build_matrix(seq).variables())
        target = ly_ideal(i_sequence(terrace(seq)))
        for g in ideal_gens(seq):
            assert target.contains(g.leading_monomial(order))


def test_codim_formulas_agree_random():
    rng = random.Random(13)
    for _ in range(60):
        a = rng.randint(0, 2)
        vals = [rng.randint(0, 2)]
        for _ in range(rng.randint(1, 5)):
            vals.append(vals[-1] + rng.randint(0, 3))
        forms = codim_formulas(LSequence(a, tuple(vals)))
        assert forms["from_i"] == forms["max_formula"]


def test_entry_points_leave_no_cyclic_garbage():
    # each benchmark entry point frees what it built when it returns: with
    # the collector off, a collection after each call finds nothing.  The
    # first cli.main call builds the cached parser, so the second is counted.
    fence = lp.poset_from_covers(4, [(0, 2), (1, 2), (1, 3)])
    principal = lp.HomIdeal.principal(fence, (1, 1, 2, 1))
    cofinite = lp.HomIdeal.cofinite(fence, [(0, 1, 1, 1), (1, 0, 2, 0)])
    x = [lp.elem_var(p) for p in range(4)]
    square = lp.MonomialIdeal([Monomial([(u, 1), (v, 1)]) for u, v in combinations_with_replacement(x, 2)], x)
    L = lp.letterplace_ideal(principal)
    p1 = lp.FiberMap.projection_first((v.a, v.b) for v in L.universe)
    ss = lp.borel_closure([Monomial([(x[0], 1), (x[1], 2)])], x[:3])
    order = diagonal_order([pair_var(p, i) for p in (1, 2) for i in (0, 1)])
    minors = ideal_gens(LSequence(0, (0, 2, 2)))
    argv = ["regular-check", "--ideal", str(GOLDEN / "principal.json"), "--side", "letterplace", "--map", "p1"]
    calls = [
        ("verify_main", lambda: verify_main(LSequence(0, (0, 2, 3, 5, 8)))),
        ("letterplace principal", lambda: lp.letterplace_ideal(principal)),
        ("letterplace cofinite", lambda: lp.letterplace_ideal(cofinite)),
        ("coletterplace principal", lambda: lp.coletterplace_ideal(principal)),
        ("coletterplace cofinite", lambda: lp.coletterplace_ideal(cofinite)),
        ("hilbert_numerator", lambda: lp.hilbert_numerator(L)),
        ("regular_quotient_check", lambda: lp.regular_quotient_check(L, p1)),
        ("is_p_stable exact", lambda: lp.is_p_stable(fence, square, "exact")),
        ("is_p_stable bounded", lambda: lp.is_p_stable(fence, square, "bounded")),
        ("max_ideal_power_stable", lambda: lp.max_ideal_power_stable(fence, 3)),
        ("dualize_ss_bounded", lambda: lp.dualize_ss_bounded(ss, 3)),
        ("buchberger", lambda: lp.buchberger(minors, order)),
        ("cli.main", lambda: main(argv)),
    ]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for name, call in calls:
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()
