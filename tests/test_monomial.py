"""Monomial arithmetic, duality, Hilbert numerators, height, associated primes."""

import os
import pickle
import random
import subprocess
import sys
from itertools import combinations, count

import pytest

from letterplace.errors import NotSquarefree
from letterplace.monomial import (
    IntPoly,
    Monomial,
    MonomialIdeal,
    _bit_planes,
    _mask_split,
    _plane_difference,
    _polarize,
    _transversals,
    alexander_dual,
    associated_primes,
    elem_var,
    height,
    hilbert_numerator,
    minimalize,
    nat_var,
    pair_var,
    parse_monomial,
)

from util import (
    brute_alexander_dual_gens,
    brute_height,
    brute_minimal_elements,
    hilbert_incl_excl,
    monomials_up_to,
    one_minus_tpow,
    ref_associated_primes,
    ref_bit_counts,
    ref_contains,
    ref_divides,
    ref_height,
    ref_hilbert_colon,
    ref_hilbert_numerator,
    ref_transversals,
)

x, y, z = elem_var(0), elem_var(1), elem_var(2)


def mono(*pairs):
    return Monomial(pairs)


def test_monomial_basics():
    m = mono((x, 2), (y, 1))
    assert m.degree() == 3
    assert dict(m.exps).get(x, 0) == 2 and dict(m.exps).get(z, 0) == 0
    assert (m / mono((x, 1))) == mono((x, 1), (y, 1))
    assert mono((x, 1)).divides(m)
    assert not mono((z, 1)).divides(m)
    assert m.lcm(mono((y, 2))) == mono((x, 2), (y, 2))
    assert m.gcd(mono((y, 2), (z, 1))) == mono((y, 1))
    assert not Monomial.one()
    with pytest.raises(ValueError):
        m / mono((z, 1))


def test_minimalize_examples():
    I = minimalize([mono((x, 1)), mono((x, 2))])
    assert I.gens == (mono((x, 1)),)
    J = minimalize([mono((x, 1), (y, 1)), mono((y, 1), (z, 1)), mono((x, 1), (y, 1), (z, 1))])
    assert set(J.gens) == {mono((x, 1), (y, 1)), mono((y, 1), (z, 1))}
    assert minimalize([]).is_zero
    assert minimalize([Monomial.one(), mono((x, 1))]).gens == (Monomial.one(),)


def test_equal_degree_generators_need_no_divisibility_test(monkeypatch):
    # generators of one degree divide each other only if they are equal
    calls = []
    divides = Monomial.divides

    def counted(a, b):
        calls.append(1)
        return divides(a, b)

    monkeypatch.setattr(Monomial, "divides", counted)
    variables = [elem_var(p) for p in range(8)]
    gens = [Monomial((v, 1) for v in combo) for combo in combinations(variables, 4)]
    I = MonomialIdeal(gens)
    assert len(I.gens) == 70
    assert calls == []


def test_contains_examples():
    assert minimalize([mono((x, 2))]).contains(mono((x, 3)))
    assert not minimalize([mono((x, 1), (y, 1))]).contains(mono((x, 1)))
    big = mono((pair_var(0, 0), 1), (pair_var(1, 0), 1), (pair_var(2, 1), 1))
    assert minimalize([mono((pair_var(0, 0), 1), (pair_var(1, 0), 1))]).contains(big)


def test_alexander_dual_examples():
    I = minimalize([mono((x, 1), (y, 1))])
    assert set(alexander_dual(I).gens) == {mono((x, 1)), mono((y, 1))}
    J = minimalize([mono((x, 1), (y, 1)), mono((y, 1), (z, 1))])
    assert set(alexander_dual(J).gens) == {mono((y, 1)), mono((x, 1), (z, 1))}


def test_alexander_dual_not_squarefree():
    with pytest.raises(NotSquarefree):
        alexander_dual(minimalize([mono((x, 2))]))


def test_alexander_dual_degenerate():
    zero = minimalize([], universe=[x, y])
    unit = minimalize([Monomial.one()], universe=[x, y])
    assert alexander_dual(zero).is_unit
    assert alexander_dual(unit).is_zero
    assert alexander_dual(alexander_dual(zero)).is_zero


def test_alexander_dual_matches_bruteforce_seeded():
    rng = random.Random(7)
    vs = [elem_var(i) for i in range(6)]
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 5)):
            support = rng.sample(vs, rng.randint(1, 3))
            gens.append(Monomial((v, 1) for v in support))
        I = minimalize(gens)
        assert list(alexander_dual(I).gens) == brute_alexander_dual_gens(I)


def test_alexander_dual_involution_random():
    rng = random.Random(11)
    vs = [elem_var(i) for i in range(8)]
    for _ in range(30):
        gens = []
        for _ in range(rng.randint(1, 6)):
            support = rng.sample(vs, rng.randint(1, 4))
            gens.append(Monomial((v, 1) for v in support))
        I = minimalize(gens)
        assert alexander_dual(alexander_dual(I)) == I


def test_alexander_dual_of_complete_graph():
    # any n - 1 vertices meet every edge x_i x_j; a set missing two misses theirs
    n = 12
    vs = [elem_var(i) for i in range(n)]
    K = MonomialIdeal(mono((a, 1), (b, 1)) for a, b in combinations(vs, 2))
    D = alexander_dual(K)
    assert set(D.gens) == {Monomial((v, 1) for v in vs if v != w) for w in vs}
    assert len(D.gens) == n and height(K) == n - 1


def test_alexander_dual_of_perfect_matching():
    # one variable from each of the 12 edges x_{2k} x_{2k+1}
    n = 12
    vs = [elem_var(i) for i in range(2 * n)]
    M = MonomialIdeal(mono((vs[2 * k], 1), (vs[2 * k + 1], 1)) for k in range(n))
    D = alexander_dual(M)
    assert len(D.gens) == 2 ** n
    for g in D.gens:
        e = dict(g.exps)
        assert g.degree() == n and all(e.get(vs[2 * k], 0) + e.get(vs[2 * k + 1], 0) == 1 for k in range(n))
    assert height(M) == n


def test_transversals_of_many_variables_within_the_recursion_limit():
    # (x_0, ..., x_2999): the search is 3000 levels deep, past Python's
    # default recursion limit, so it must keep its own stack
    n = 3000
    assert n > sys.getrecursionlimit()
    vs = [nat_var(i) for i in range(n)]
    I = MonomialIdeal(Monomial.variable(v) for v in vs)
    assert height(I) == n
    assert alexander_dual(I).gens == (Monomial((v, 1) for v in vs),)


def test_intpoly_arithmetic():
    one_minus_t = one_minus_tpow(1)
    assert one_minus_t * one_minus_t == IntPoly({0: 1, 1: -2, 2: 1})
    assert one_minus_t ** 0 == IntPoly.one()
    assert IntPoly({1: 1}) * IntPoly({2: 3}) == IntPoly({3: 3})
    assert IntPoly({0: 1}) - IntPoly({0: 1}) == IntPoly.zero()


def test_hilbert_examples():
    assert hilbert_numerator(minimalize([mono((x, 2))])) == IntPoly({0: 1, 2: -1})
    assert hilbert_numerator(minimalize([], universe=[x, y])) == IntPoly.one()
    # oracle for (xy) over two variables: count standard monomials degreewise;
    # 1, x, y, x^2, y^2, ... gives (1-t^2)/(1-t)^2
    assert hilbert_numerator(minimalize([mono((x, 1), (y, 1))])) == IntPoly({0: 1, 2: -1})
    assert hilbert_numerator(minimalize([Monomial.one()])) == IntPoly.zero()


def test_hilbert_pivot_equals_inclusion_exclusion_random():
    rng = random.Random(13)
    vs = [elem_var(i) for i in range(5)]
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 6)):
            support = rng.sample(vs, rng.randint(1, 3))
            # exponent 3 leaves x in g/x when x is the pivot
            gens.append(Monomial((v, rng.randint(1, 3)) for v in support))
        I = minimalize(gens)
        assert hilbert_numerator(I) == hilbert_incl_excl(I.gens)


def test_height_examples():
    assert height(minimalize([mono((x, 1))])) == 1
    tri = minimalize([mono((x, 1), (y, 1)), mono((x, 1), (z, 1)), mono((y, 1), (z, 1))])
    assert height(tri) == 2
    assert height(minimalize([])) == 0
    with pytest.raises(ValueError):
        height(minimalize([Monomial.one()]))


def test_height_vs_minimal_associated_primes():
    rng = random.Random(17)
    vs = [elem_var(i) for i in range(6)]
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 4)):
            support = rng.sample(vs, rng.randint(1, 3))
            gens.append(Monomial((v, 1) for v in support))
        I = minimalize(gens)
        primes = associated_primes(I)
        minimal = [S for S in primes if not any(T < S for T in primes)]
        assert height(I) == min(len(S) for S in minimal)


def test_associated_primes_examples():
    assert associated_primes(minimalize([mono((x, 2))])) == {frozenset({x})}
    assert associated_primes(minimalize([mono((x, 1), (y, 1))])) == {
        frozenset({x}),
        frozenset({y}),
    }
    I = minimalize([mono((x, 2)), mono((x, 1), (y, 1))])
    assert associated_primes(I) == {frozenset({x}), frozenset({x, y})}


def test_dual_membership_characterization_exhaustive():
    # m lies in the dual iff it shares a variable with every generator;
    # exhaustive over all squarefree monomials in six variables
    rng = random.Random(19)
    vs = [elem_var(i) for i in range(6)]
    squarefree = [m for m in monomials_up_to(vs, 6) if m.is_squarefree()]
    for _ in range(6):
        gens = []
        for _ in range(rng.randint(1, 4)):
            support = rng.sample(vs, rng.randint(1, 3))
            gens.append(Monomial((v, 1) for v in support))
        I = minimalize(gens)
        D = alexander_dual(I)
        for m in squarefree:
            hits = all(m.support() & g.support() for g in I.gens)
            assert D.contains(m) == hits


def test_monomial_text_and_parse():
    m = mono((pair_var(0, 0), 2), (pair_var(2, 1), 1))
    assert m.text(labels=["a", "b", "c"]) == "x[a,0]^2*x[c,1]"
    assert parse_monomial("x[a,0]^2*x[c,1]", labels=["a", "b", "c"]) == m
    assert parse_monomial("1") == Monomial.one()
    e = mono((elem_var(1), 3))
    assert parse_monomial(e.text(), family="elem") == e
    nv = mono((nat_var(4), 1))
    assert parse_monomial(nv.text(), family="nat") == nv


def test_pickled_monomials_carry_no_support_bits():
    # Monomials pickled in another process, which met its variables in
    # another order, must still divide correctly here.
    code = (
        "import pickle, sys\n"
        "from letterplace.monomial import Monomial, elem_var\n"
        "x, y, z = elem_var(0), elem_var(1), elem_var(2)\n"
        "ms = [Monomial([(z, 1)]), Monomial([(y, 2)]), Monomial([(x, 1), (y, 3)])]\n"
        "sys.stdout.buffer.write(pickle.dumps(ms))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, env=env)
    z1, y2, x1y3 = pickle.loads(out.stdout)
    assert y2.divides(x1y3) and not z1.divides(x1y3)
    assert minimalize([mono((z, 1))]).contains(z1)
    assert not minimalize([mono((x, 1))]).contains(y2)


def test_ideal_universe_handling():
    I = minimalize([mono((x, 1))], universe=[x, y])
    assert I.universe == (x, y)
    with pytest.raises(ValueError):
        minimalize([mono((x, 1))], universe=[y])


from hypothesis import example, given, settings
from hypothesis import strategies as st

exponent_triples = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
h_monomials = st.builds(
    lambda es: Monomial((v, e) for v, e in zip((x, y, z), es) if e), exponent_triples
)


@settings(max_examples=150, deadline=None)
@given(a=h_monomials, b=h_monomials)
def test_gcd_lcm_product_law(a, b):
    assert a.gcd(b) * a.lcm(b) == a * b
    assert a.gcd(b).divides(a) and a.divides(a.lcm(b))


@settings(max_examples=150, deadline=None)
@given(a=h_monomials, b=h_monomials, c=h_monomials)
def test_divisibility_respects_products(a, b, c):
    if a.divides(b):
        assert (a * c).divides(b * c)
        assert b / a * a == b


@settings(max_examples=100, deadline=None)
@given(
    cs=st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), max_size=5),
    ds=st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), max_size=5),
)
def test_intpoly_ring_laws(cs, ds):
    f, g = IntPoly(cs), IntPoly(ds)
    assert f + g == g + f
    assert f * g == g * f
    assert (f - g) + g == f
    assert f * IntPoly.one() == f


small_monomials = st.builds(
    lambda es: Monomial((v, e) for v, e in zip((x, y, z), es) if e),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
)


# Variables of all three kinds; exponents up to 4 make the table walk of
# divides compare exponents, not only variables.
MIXED_VARS = [elem_var(0), elem_var(1), nat_var(0), nat_var(2), pair_var(0, 1), pair_var(1, 0)]
mixed_monomials = st.builds(
    lambda es: Monomial((v, e) for v, e in zip(MIXED_VARS, es) if e),
    st.tuples(*[st.sampled_from([0, 0, 1, 1, 2, 3, 4])] * len(MIXED_VARS)),
)


@settings(max_examples=200, deadline=None)
@given(gens=st.lists(st.one_of(small_monomials, h_monomials, mixed_monomials), max_size=12))
def test_minimal_generators_match_bruteforce(gens):
    # small exponents make duplicates and divisibility across degrees common
    I = MonomialIdeal(gens)
    assert set(I.gens) == brute_minimal_elements(gens, ref_divides)
    assert list(I.gens) == sorted(I.gens, key=Monomial.sort_key)


@settings(max_examples=300, deadline=None)
@given(a=mixed_monomials, b=mixed_monomials, c=mixed_monomials)
def test_divides_matches_reference(a, b, c):
    assert a.divides(b) == ref_divides(a, b)
    assert a.divides(a * c) and ref_divides(a, a * c)
    assert (a * c).divides(a) == ref_divides(a * c, a)


def same_monomial(m, exps):
    """m equals the general constructor's monomial on exps in every cached part."""
    ref = Monomial(exps)
    return m == ref and m.exps == ref.exps and m.degree() == ref.degree()


@settings(max_examples=300, deadline=None)
@given(a=mixed_monomials, b=mixed_monomials)
def test_kernel_arithmetic_matches_general_constructor(a, b):
    ea, eb = dict(a.exps), dict(b.exps)
    both = set(ea) | set(eb)
    # products on disjoint supports, one wholly below the other or
    # interleaved, merge the two tables without adding exponents
    cut = sorted(MIXED_VARS)[len(MIXED_VARS) // 2]
    low = Monomial((v, e) for v, e in a.exps if v < cut)
    high = Monomial((v, e) for v, e in b.exps if v >= cut)
    apart = Monomial((v, e) for v, e in b.exps if v not in ea)
    for c, d in ((a, b), (b, a), (low, high), (high, low), (a, apart), (apart, a)):
        assert same_monomial(c * d, c.exps + d.exps)
    assert same_monomial(a.gcd(b), [(v, min(ea.get(v, 0), eb.get(v, 0))) for v in both])
    assert same_monomial(a.lcm(b), [(v, max(ea.get(v, 0), eb.get(v, 0))) for v in both])
    assert same_monomial(a.colon(b), [(v, max(e - eb.get(v, 0), 0)) for v, e in a.exps])
    g = Monomial((v, min(e, eb.get(v, 0))) for v, e in a.exps)  # a divisor of a
    assert same_monomial(a / g, [(v, e - dict(g.exps).get(v, 0)) for v, e in a.exps])
    assert same_monomial(a / a, [])
    if not all(ea.get(v, 0) >= e for v, e in b.exps):
        with pytest.raises(ValueError, match="does not divide"):
            a / b
    m = a * b
    again = pickle.loads(pickle.dumps(m))
    assert again == m


@settings(max_examples=300, deadline=None)
@given(gens=st.lists(mixed_monomials, max_size=6), m=mixed_monomials, c=mixed_monomials)
def test_contains_matches_reference(gens, m, c):
    I = MonomialIdeal(gens)
    assert I.contains(m) == ref_contains(I, m)
    for g in I.gens:
        assert I.contains(g * c)


@settings(max_examples=300, deadline=None)
@given(gens=st.lists(mixed_monomials, max_size=7))
def test_height_matches_bruteforce(gens):
    I = MonomialIdeal(gens)
    if I.is_unit:
        with pytest.raises(ValueError):
            height(I)
    else:
        assert height(I) == brute_height(I)


# Up to 30 generators on 14 variables, beyond brute_height's reach.  A
# generator may take an earlier one's support or a part of it, and exponents
# run up to 3, so generators such as x0^2 x1 and x0 x1^2 repeat a support
# and x0^2 and x0 x1 nest one: the search meets edges equal to and inside
# other edges.
HEIGHT_VARS = [nat_var(i) for i in range(14)]


@st.composite
def hypergraph_ideals(draw):
    # hypothesis keeps its own draws small; a Random seeded by it gives every size
    rng = random.Random(draw(st.integers(0, 2**64)))
    supports = []
    for _ in range(rng.randint(0, 30)):
        kind = rng.random()
        if supports and kind < 0.2:
            support = rng.choice(supports)
        elif supports and kind < 0.4:
            support = rng.choice(supports)
            support = rng.sample(support, rng.randint(1, len(support)))
        else:
            support = rng.sample(range(14), rng.randint(2, 5))
        supports.append(support)
    return MonomialIdeal(Monomial((HEIGHT_VARS[k], rng.randint(1, 3)) for k in s) for s in supports)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(I=hypergraph_ideals())
def test_height_search_matches_least_minimal_transversal(I):
    assert height(I) == ref_height(I)


def test_height_of_disjoint_edges_is_their_number():
    # 18 disjoint edges have 2^18 minimal transversals, which the route
    # through _transversals listed (0.43 s); the packing bound meets the
    # number of edges at once
    vs = [nat_var(i) for i in range(36)]
    I = MonomialIdeal(mono((vs[2 * k], 1), (vs[2 * k + 1], 1)) for k in range(18))
    assert height(I) == 18


# pair_var(0, 1) and pair_var(1, 0) are also names of polarization copies
PRIME_VARS = [elem_var(0), nat_var(2), pair_var(0, 1), pair_var(1, 0)]
prime_monomials = st.builds(
    lambda es: Monomial((v, e) for v, e in zip(PRIME_VARS, es) if e),
    st.tuples(*[st.sampled_from([0, 0, 1, 2, 3, 4])] * len(PRIME_VARS)),
)


@settings(max_examples=200, deadline=None)
@given(gens=st.lists(prime_monomials, min_size=1, max_size=6))
@example(gens=[mono((x, 500)), mono((y, 500))])  # a box of 501**2 monomials
def test_associated_primes_match_box_scan(gens):
    I = MonomialIdeal(gens)
    assert associated_primes(I) == ref_associated_primes(I)
    # the radical is squarefree: its associated primes are its minimal
    # primes, the supports of its Alexander dual's generators
    R = MonomialIdeal(Monomial((v, 1) for v in g.support()) for g in I.gens)
    assert associated_primes(R) == {g.support() for g in alexander_dual(R).gens}


# Exponents up to 3, so that a pivot x may still divide g/x.
colon_monomials = st.builds(
    lambda es: Monomial((v, e) for v, e in zip(MIXED_VARS, es) if e),
    st.tuples(*[st.sampled_from([0, 0, 0, 1, 1, 2, 3])] * len(MIXED_VARS)),
)


def minimal_masks(masks) -> tuple:
    return tuple(sorted(brute_minimal_elements(masks, lambda a, b: not a & ~b)))


def plane_counts(planes) -> dict:
    """{bit: count} read off bit planes, where bit b of planes[j] is bit j of
    the count of bit b; the highest plane must be nonzero."""
    assert not planes or planes[-1]
    counts = {}
    for j, plane in enumerate(planes):
        while plane:
            low = plane & -plane
            plane ^= low
            counts[low] = counts.get(low, 0) + (1 << j)
    return counts


@settings(max_examples=300, deadline=None)
@given(gens=st.lists(colon_monomials, max_size=9))
def test_pivot_colon_matches_minimalized_colons(gens):
    # the mask split on every bit of the polarization, and one bit past it
    I = MonomialIdeal(gens)
    masks = tuple(sorted(_polarize([g.exps for g in I.gens])[0]))
    assert masks == minimal_masks(masks)  # sorted, distinct, none inside another
    planes = _bit_planes(masks)
    assert plane_counts(planes) == ref_bit_counts(masks)
    union = 0
    for g in masks:
        union |= g
    for b in range(union.bit_length() + 1):
        bit = 1 << b
        plus, plus_planes, colon, colon_planes = _mask_split(masks, bit, planes)
        assert plus == tuple(g for g in masks if not g & bit)
        assert colon == minimal_masks({g & ~bit for g in masks})
        assert plane_counts(plus_planes) == ref_bit_counts(plus)
        assert plane_counts(colon_planes) == ref_bit_counts(colon)
    if I.is_squarefree():  # bit b is the b-th variable: the colon of the monomials
        first = {v: b for b, v in enumerate(sorted({v for g in I.gens for v, _ in g.exps}))}
        for v, b in first.items():
            _, _, colon, _ = _mask_split(masks, 1 << b, planes)
            ref = ref_hilbert_colon(I.gens, Monomial.variable(v))
            assert colon == tuple(sorted(sum(1 << first[w] for w, _ in q.exps) for q in ref))


def test_colon_scan_drops_a_mask_the_lookup_misses():
    # I = (x0 x2, x0 x4, x1 x2 x3 x4) pivots on x0 with quotients x2 and x4;
    # x1 x2 x3 x4 has the two bits x1, x3 outside them, so the one-bit
    # lookup skips it and only the scan finds x2 inside it: I : x0 = (x2, x4)
    xs = [elem_var(i) for i in range(5)]
    I = MonomialIdeal(
        [mono((xs[0], 1), (xs[2], 1)), mono((xs[0], 1), (xs[4], 1)), mono(*((xs[i], 1) for i in range(1, 5)))]
    )
    masks = tuple(sorted(_polarize([g.exps for g in I.gens])[0]))
    assert masks == (0b00101, 0b10001, 0b11110)
    counts = ref_bit_counts(masks)
    assert min(b for b, k in counts.items() if k == max(counts.values())) == 0b1  # the pivot is x0
    plus, _, colon, _ = _mask_split(masks, 0b1, _bit_planes(masks))
    assert plus == (0b11110,)
    assert colon == (0b00100, 0b10000)
    assert hilbert_numerator(I) == ref_hilbert_numerator(I)


@settings(max_examples=300, deadline=None)
@given(drawn=st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=24))
@example(drawn=[(1, True)] * 5)  # part planes [1, 0, 1]: a zero plane below a nonzero one
def test_plane_difference_matches_fresh_count(drawn):
    # masks may repeat here, so that counts reach every plane; part holds
    # the masks drawn with True
    masks = [m for m, _ in drawn]
    part = [m for m, k in drawn if k]
    rest = [m for m, k in drawn if not k]
    planes = _bit_planes(masks)
    assert plane_counts(planes) == ref_bit_counts(masks)
    assert plane_counts(_bit_planes(rest, _bit_planes(part))) == ref_bit_counts(masks)
    assert plane_counts(_plane_difference(planes, _bit_planes(part))) == ref_bit_counts(rest)


@settings(max_examples=200, deadline=None)
@given(gens=st.lists(colon_monomials, max_size=12))
@example(gens=[mono((x, k), (y, 12 - k)) for k in range(13)])
def test_split_planes_match_fresh_counts(gens):
    # the planes a split hands down equal a fresh count of each part, at
    # every split of the pivot recursion (pivot: the bit in most masks, ties
    # to the lowest), down to the nodes where no bit is in two masks
    masks = tuple(sorted(_polarize([g.exps for g in MonomialIdeal(gens).gens])[0]))
    stack = [(masks, _bit_planes(masks))]
    while stack:
        node, planes = stack.pop()
        counts = ref_bit_counts(node)
        assert plane_counts(planes) == counts
        most = max(counts.values(), default=0)
        if most < 2:
            continue
        bit = min(b for b, k in counts.items() if k == most)
        plus, plus_planes, colon, colon_planes = _mask_split(node, bit, planes)
        stack += [(plus, plus_planes), (colon, colon_planes)]


@settings(max_examples=300, deadline=None)
@given(gens=st.lists(colon_monomials, max_size=9))
@example(gens=[])
@example(gens=[Monomial.one()])
@example(gens=[mono((x, 3)), mono((x, 1), (y, 1))])
def test_hilbert_numerator_matches_pivot_recursion(gens):
    I = MonomialIdeal(gens)
    K = hilbert_numerator(I)
    assert K == ref_hilbert_numerator(I)
    if len(I.gens) <= 8:
        assert K == hilbert_incl_excl(I.gens)


def test_hilbert_numerator_high_exponents():
    # polarization gives x^30 one bit per distinct exponent level, not 30 bits
    rng = random.Random(15)
    vs = [elem_var(0), nat_var(1), pair_var(0, 2), pair_var(3, 0)]
    for _ in range(30):
        gens = [
            Monomial((v, rng.randint(1, 30)) for v in rng.sample(vs, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 7))
        ]
        I = MonomialIdeal(gens)
        assert hilbert_numerator(I) == ref_hilbert_numerator(I)


# Up to 4 variables with exponents from a sparse set: levels with gaps
SPARSE_VARS = [elem_var(0), nat_var(1), pair_var(0, 2), pair_var(3, 0)]
sparse_monomials = st.builds(
    lambda es: Monomial((v, e) for v, e in zip(SPARSE_VARS, es) if e),
    st.tuples(*[st.sampled_from([0, 0, 1, 2, 5, 9, 30])] * len(SPARSE_VARS)),
)


def level_weights(levels) -> list:
    """The weight of each bit: its exponent level minus the level below."""
    below, out = {}, []
    for v, e in levels:
        out.append(e - below.get(v, 0))
        below[v] = e
    return out


@settings(max_examples=300, deadline=None)
@given(gens=st.lists(sparse_monomials, max_size=7))
@example(gens=[mono((x, 30)), mono((x, 5), (y, 9)), mono((y, 30))])
def test_level_polarization_keeps_lcm_degrees(gens):
    # the weighted popcount of the OR of any generators' masks is the degree
    # of their lcm, so K(t), fixed by the lcm lattice and its degrees, is kept
    I = MonomialIdeal(gens)
    masks, levels = _polarize([g.exps for g in I.gens])
    assert levels == sorted({(v, e) for g in I.gens for v, e in g.exps})
    mask_of = {g: sum(1 << b for b, (v, e) in enumerate(levels) if e <= dict(g.exps).get(v, 0)) for g in I.gens}
    assert masks == [mask_of[g] for g in I.gens]  # in table order
    assert tuple(sorted(masks)) == minimal_masks(masks)  # distinct, none inside another
    weights = level_weights(levels)
    for k in range(len(I.gens) + 1):
        for subset in combinations(I.gens, k):
            union, lcm = 0, Monomial.one()
            for g in subset:
                union |= mask_of[g]
                lcm = lcm.lcm(g)
            assert sum(w for b, w in enumerate(weights) if union >> b & 1) == lcm.degree()
    K = hilbert_numerator(I)
    assert K == hilbert_incl_excl(I.gens)
    if all(e <= 6 for g in I.gens for _, e in g.exps):
        assert K == ref_hilbert_numerator(I)


def test_level_polarization_of_high_exponents():
    # one bit per distinct exponent: 3 + 3 + 1 bits, not 2500 per variable
    a, b, c = elem_var(0), elem_var(1), elem_var(2)
    I = MonomialIdeal([mono((a, 2500)), mono((a, 1250), (b, 1250)), mono((b, 2500)),
                       mono((a, 1), (b, 1), (c, 2500))])
    masks, levels = _polarize([g.exps for g in I.gens])
    assert len(levels) == 7 and level_weights(levels) == [1, 1249, 1250, 1, 1249, 1250, 2500]
    assert hilbert_numerator(I) == hilbert_incl_excl(I.gens)


def test_hilbert_numerator_deeper_than_the_recursion_limit():
    # (x, y)^1000: 1001 generators on 2000 bits of weight 1, and a pivot
    # recursion far deeper than Python's default limit
    a, b = elem_var(0), elem_var(1)
    n = 1000
    I = MonomialIdeal(mono((a, k), (b, n - k)) for k in range(n + 1))
    assert hilbert_numerator(I) == IntPoly({0: 1, n: -(n + 1), n + 1: n})


squarefree_monomials = st.builds(
    lambda bits: Monomial((v, 1) for v, b in zip(MIXED_VARS, bits) if b),
    st.tuples(*[st.booleans()] * len(MIXED_VARS)),
)


@settings(max_examples=300, deadline=None)
@given(gens=st.lists(squarefree_monomials, max_size=9))
@example(gens=[])
@example(gens=[Monomial.one()])
def test_alexander_dual_matches_bruteforce_random(gens):
    I = MonomialIdeal(gens)
    assert list(alexander_dual(I).gens) == brute_alexander_dual_gens(I)


# Edge lists over 10 vertex bits; the examples pin the empty list, a 0 edge,
# repeated edges and edges inside others.
@settings(max_examples=500, deadline=None)
@given(supports=st.lists(st.integers(0, 1023), max_size=12))
@example(supports=[])
@example(supports=[0])
@example(supports=[5, 0, 3])
@example(supports=[6, 6, 3, 3])
@example(supports=[1, 3, 7, 15, 6])
@example(supports=[1 << b for b in range(10)] + [1023])
def test_transversals_match_berge(supports):
    got = _transversals(supports)
    assert sorted(got) == sorted(ref_transversals(supports))
    assert all(all(t & e for e in supports) for t in got)


@settings(max_examples=300, deadline=None)
@given(gens=st.lists(squarefree_monomials, max_size=9))
def test_alexander_dual_and_with_universe_are_minimal_by_construction(gens):
    # both build through MonomialIdeal._of_canonical, which skips
    # minimalization and sorting; the general constructor must find nothing
    # to drop or reorder
    I = MonomialIdeal(gens)
    for built in (alexander_dual(I, MIXED_VARS), I.with_universe(MIXED_VARS)):
        assert MonomialIdeal(built.gens, built.universe) == built


# Each example gets variables no other test has used, so that they are
# first met in the order the example draws.
_FRESH = count(10_000, 10)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_alexander_dual_with_bits_out_of_var_order(data):
    # the dual numbers its universe with local bits in reverse Var order; the
    # result may not depend on the order in which the variables were met
    k = next(_FRESH)
    vs = [elem_var(k), elem_var(k + 1), nat_var(k), nat_var(k + 2), pair_var(k, 0), pair_var(k, 3), pair_var(k + 1, 0)]
    interned = data.draw(st.permutations(vs))
    for v in interned:
        Monomial.variable(v)
    supports = data.draw(st.lists(st.sets(st.sampled_from(vs), max_size=4), max_size=6))
    I = MonomialIdeal(Monomial((v, 1) for v in s) for s in supports)
    universe = sorted(set(I.universe) | data.draw(st.sets(st.sampled_from(vs))))
    expected = brute_alexander_dual_gens(I)
    for ideal in (I, I.with_universe(universe)):
        D = alexander_dual(ideal, universe)
        assert list(D.gens) == expected and D.universe == tuple(universe)
    if not I.is_zero and not I.is_unit:
        dropped = data.draw(st.sampled_from(I.universe))
        with pytest.raises(ValueError, match="does not cover"):
            alexander_dual(I, [v for v in universe if v != dropped])


@settings(max_examples=200, deadline=None)
@given(gens=st.lists(prime_monomials, min_size=1, max_size=6))
def test_polarization_is_minimal_by_construction(gens):
    # polarizing keeps and reflects divisibility, so the minimal generators
    # give distinct masks, none a subset of another
    I = MonomialIdeal(gens)
    masks, _ = _polarize([g.exps for g in I.gens])
    assert len(set(masks)) == len(masks) == len(I.gens)
    assert not any(a != b and a & b == a for a in masks for b in masks)
