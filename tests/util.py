"""Shared test infrastructure: poset catalogues, oracles, random instances."""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd

from hypothesis import strategies as st

from letterplace.determinantal import (
    DetMatrix,
    LSequence,
    codim_formulas,
    i_sequence,
    terrace,
)
from letterplace.errors import BudgetExceeded
from letterplace.groebner import (
    Polynomial,
    TermOrder,
    buchberger,
    diagonal_order,
    initial_ideal,
    reduce,
)
from letterplace.homset import (
    HomIdeal,
    Marker,
    check_isotone,
    dominates,
    enumerate_isotone,
    minimal_of,
)
from letterplace.monomial import (
    IntPoly,
    Monomial,
    MonomialIdeal,
    _supports,
    _transversals,
    elem_var,
    pair_var,
)
from letterplace.poset import Poset, chain
from letterplace.pstable import lambda_bar, longest_b_chain


def all_labeled_posets(n: int):
    """Every partial order on elements 0..n-1, built incrementally.

    Element k is attached by choosing its strict down-set D (down-closed) and
    strict up-set U (up-closed, disjoint, with every d in D below every u in U).
    Counts 1, 1, 3, 19, 219, 4231 for n = 0..5.
    """
    if n == 0:
        yield Poset(0, [])
        return
    relations = [frozenset()]  # strict pairs (p, q) meaning p < q
    for k in range(1, n):
        grown = []
        for rel in relations:
            below = {p: {q for q in range(k) if (q, p) in rel} for p in range(k)}
            above = {p: {q for q in range(k) if (p, q) in rel} for p in range(k)}
            for d_mask in range(1 << k):
                D = {p for p in range(k) if d_mask >> p & 1}
                if any(not below[p] <= D for p in D):
                    continue
                rest = [p for p in range(k) if p not in D]
                for u_mask in range(1 << len(rest)):
                    U = {rest[i] for i in range(len(rest)) if u_mask >> i & 1}
                    if any(not above[p] <= U for p in U):
                        continue
                    if any((d, u) not in rel for d in D for u in U):
                        continue
                    new = set(rel)
                    new.update((d, k) for d in D)
                    new.update((k, u) for u in U)
                    grown.append(frozenset(new))
        relations = grown
    for rel in relations:
        yield Poset(n, sorted(rel))


def poset_classes(n: int):
    """One representative per isomorphism class of posets on n elements."""
    relabelings = list(permutations(range(n)))
    seen = {}
    for P in all_labeled_posets(n):
        rel = [(p, q) for p in range(n) for q in range(n) if p != q and P.leq(p, q)]
        canon = min(tuple(sorted((sig[p], sig[q]) for p, q in rel)) for sig in relabelings)
        if canon not in seen:
            seen[canon] = P
    return list(seen.values())


def monomials_up_to(variables, degree: int) -> list:
    """All monomials of degree <= degree over the given variables, sorted."""
    vs = sorted(variables)
    out = [
        Monomial((v, 1) for v in combo)
        for d in range(degree + 1)
        for combo in combinations_with_replacement(vs, d)
    ]
    return sorted(out, key=Monomial.sort_key)


def opposite(P: Poset) -> Poset:
    """The opposite poset: same elements and labels, reversed relation."""
    return Poset(P.n, [(q, p) for p, q in P.covers()], P.labels)


def is_filter(P: Poset, S) -> bool:
    """True iff S is an up-set of P."""
    S = set(S)
    return all(P.up_set(p) <= S for p in S)


def is_antichain_poset(P: Poset) -> bool:
    """True iff no two elements of P are comparable."""
    return all(not P.comparable(p, q) for p in range(P.n) for q in range(p))


def one_minus_tpow(d: int) -> IntPoly:
    """1 - t^d; zero for d = 0."""
    return IntPoly({0: 1, d: -1}) if d else IntPoly()


def quotient_order_ok(P: Poset, f) -> bool:
    """True iff the product order on the source of the fiber map f descends
    to a partial order on its fibers.

    The induced relation (class A <= class B when some a in A is <= some b in B
    in the product order) must have an antisymmetric transitive closure for the
    fiber map to be isotone onto a genuine poset.
    """
    classes = list(f.fibers().values())
    k = len(classes)
    rel = [
        [any(P.leq(p, q) and a <= b for (p, a) in A for (q, b) in B) for B in classes]
        for A in classes
    ]
    for m in range(k):
        for i in range(k):
            if rel[i][m]:
                for j in range(k):
                    rel[i][j] = rel[i][j] or rel[m][j]
    return all(not (rel[i][j] and rel[j][i]) for i in range(k) for j in range(k) if i != j)


def ref_divides(a: Monomial, b: Monomial) -> bool:
    """Oracle for Monomial.divides: compare exponents variable by variable."""
    it = dict(b.exps)
    return all(it.get(v, 0) >= e for v, e in a.exps)


def ref_contains(I: MonomialIdeal, m: Monomial) -> bool:
    """Oracle for MonomialIdeal.contains."""
    return any(ref_divides(g, m) for g in I.gens)


def brute_height(I: MonomialIdeal) -> int:
    """Oracle for height: the smallest variable set meeting every generator's
    support, by trying all sets in increasing size."""
    if I.is_zero:
        return 0
    supports = [g.support() for g in I.gens]
    vs = sorted(set().union(*supports))
    for k in range(len(vs) + 1):
        for cand in combinations(vs, k):
            cand = set(cand)
            if all(cand & s for s in supports):
                return k
    raise ValueError("height of the unit ideal is undefined")


def ref_height(I: MonomialIdeal) -> int:
    """Oracle for height: the least popcount among the minimal transversals
    of the generator supports (MMCS, monomial._transversals)."""
    transversals = _transversals(_supports(I, I.universe))
    if not transversals:
        raise ValueError("height of the unit ideal is undefined")
    return min(map(int.bit_count, transversals))


def ref_associated_primes(I: MonomialIdeal) -> set:
    """Oracle for associated_primes: scan the exponent box bounded by the
    per-variable maxima among the generators for monomials m outside I with
    (I : m) generated by variables, and collect those variable sets."""
    if I.is_zero or I.is_unit:
        return set()
    box = {}
    for g in I.gens:
        for v, e in g.exps:
            box[v] = max(box.get(v, 0), e)
    vs = sorted(box)
    out = set()
    for exps in product(*(range(box[v] + 1) for v in vs)):
        m = Monomial(zip(vs, exps))
        if ref_contains(I, m):
            continue
        colon = MonomialIdeal(g.colon(m) for g in I.gens)
        if all(g.degree() == 1 for g in colon.gens):
            out.add(frozenset(v for g in colon.gens for v in g.support()))
    return out


def ref_lambda_bar_inv(P: Poset, m: Monomial) -> tuple:
    """Oracle for lambda_bar_inv: peel minimal antichains of the remaining
    support; the elements above the antichain rise by the smallest exponent
    on it, and that exponent comes off the antichain."""
    counts = {v.a: e for v, e in m.exps}
    phi = [0] * P.n
    level = 0
    while counts:
        antichain = P.min_elements(set(counts))
        run = min(counts[p] for p in antichain)
        level += run
        for p in P.closure(antichain, "up"):
            phi[p] = level
        for p in antichain:
            counts[p] -= run
            if not counts[p]:
                del counts[p]
    return tuple(phi)


def ref_longest_b_chain(P: Poset, m: Monomial, b: int) -> tuple:
    """Oracle for longest_b_chain, plus the longest multichains themselves:
    (length, witnesses, through) from every pairwise comparable subset of the
    support below b.  A witness lists each element of a heaviest subset its
    exponent many times, bottom first; `through` holds the elements a <= b
    comparable with everything in at least one heaviest subset."""
    exps = {v.a: e for v, e in m.exps}
    pool = [p for p in exps if P.leq(p, b)]
    best = 0
    chains = [()]
    for r in range(1, len(pool) + 1):
        for sub in combinations(sorted(pool), r):
            if all(P.comparable(x, y) for i, x in enumerate(sub) for y in sub[:i]):
                w = sum(exps[p] for p in sub)
                if w > best:
                    best, chains = w, [sub]
                elif w == best:
                    chains.append(sub)
    witnesses = tuple(
        tuple(
            p
            for p in sorted(sub, key=lambda q: (sum(P.leq(r, q) for r in sub), q))
            for _ in range(exps[p])
        )
        for sub in chains
    )
    through = frozenset(
        a
        for a in P.down_set(b)
        if any(all(P.comparable(a, s) for s in sub) for sub in chains)
    )
    return best, witnesses, through


def ref_stable_exact(P: Poset, I: MonomialIdeal) -> bool:
    """Oracle for is_p_stable(P, I, "exact"): scan the box below the pure
    powers for standard monomials and apply the exchange move to each."""
    bounds = [None] * P.n
    for g in I.gens:
        if len(g.exps) == 1:
            v, e = g.exps[0]
            bounds[v.a] = e
    variables = [elem_var(p) for p in range(P.n)]
    for exps in product(*(range(d) for d in bounds)):
        m = Monomial(zip(variables, exps))
        if ref_contains(I, m):
            continue
        phi = ref_lambda_bar_inv(P, m)
        for v, _ in m.exps:
            p = v.a
            stepped = tuple(x - 1 if q == p else x for q, x in enumerate(phi))
            if ref_contains(I, lambda_bar(P, stepped)):
                return False
    return True


def ref_stable_bounded(P: Poset, I: MonomialIdeal, depth: int) -> bool:
    """Oracle for is_p_stable(P, I, "bounded", depth): scan every monomial of
    degree <= depth, and for each one in I, each antichain B of its support
    and each element a on a longest multichain through every b in B, ask
    whether m / prod(x_b : b in B) * x_a is in I."""
    variables = [elem_var(p) for p in range(P.n)]
    for m in monomials_up_to(variables, depth):
        if not I.contains(m):
            continue
        supp = sorted(v.a for v in m.support())
        through = {b: longest_b_chain(P, m, b)[1] for b in supp}
        for r in range(1, len(supp) + 1):
            for B in combinations(supp, r):
                if not P.is_antichain(B):
                    continue
                candidates = frozenset.intersection(*(through[b] for b in B))
                if not candidates:
                    continue
                stripped = m / Monomial((variables[b], 1) for b in B)
                for a in candidates:
                    if not I.contains(stripped * Monomial.variable(variables[a])):
                        return False
    return True


def ref_down(P: Poset) -> tuple:
    """Oracle for the down masks of Poset: the transpose of its up masks,
    by a double loop over all pairs of elements."""
    down = [0] * P.n
    for p in range(P.n):
        for q in range(P.n):
            if P.up[q] >> p & 1:
                down[p] |= 1 << q
    return tuple(down)


def ref_covers(P: Poset) -> list:
    """Oracle for Poset.covers: the pairs p < q with no element strictly
    between them, by a test of all n^2 pairs on the order masks, sorted."""
    out = []
    for p in range(P.n):
        for q in range(P.n):
            if p != q and P.leq(p, q):
                between = P.up[p] & P.down[q] & ~(1 << p) & ~(1 << q)
                if not between:
                    out.append((p, q))
    return out


def brute_ideals(P: Poset) -> list:
    """Oracle for Poset.ideals: of all 2^n subsets, in increasing order of
    their masks, those that hold every element below each of their own."""
    subsets = (frozenset(p for p in range(P.n) if mask >> p & 1) for mask in range(1 << P.n))
    return [S for S in subsets if all(q in S for p in S for q in range(P.n) if P.leq(q, p))]


def brute_minimal_elements(items, below) -> set:
    """Oracle for minimalization: the items with no other item below them."""
    items = set(items)
    return {x for x in items if not any(y != x and below(y, x) for y in items)}


def brute_minimal(maps):
    return sorted(brute_minimal_elements(maps, lambda u, v: dominates(v, u)))


def brute_minimal_markers(J: HomIdeal) -> list:
    """Oracle for HomIdeal.minimal_markers on a cofinite ideal: every marker
    restricted from a total isotone map valued <= nmax (by brute_isotone),
    kept when no other marker's graph lies inside its graph, in (domain
    size, sorted graph) order."""
    P = J.poset
    markers = {
        Marker.on(dom, {p: phi[p] for p in dom}, P.n)
        for dom in brute_ideals(P)
        for phi in brute_isotone(P, J.nmax())
    }
    markers = [m for m in markers if J.is_marker(m)]
    keep = brute_minimal_elements([m.graph() for m in markers], frozenset.__le__)
    out = [m for m in markers if m.graph() in keep]
    return sorted(out, key=lambda m: (len(m.domain), sorted(m.graph())))


def brute_isotone(P: Poset, bound: int) -> list:
    """Oracle for enumerate_isotone: the tuples of product(range(bound + 1),
    repeat=n), in that (lexicographic) order, that keep every relation of P."""
    order = [(p, q) for p in range(P.n) for q in range(P.n) if P.leq(p, q)]
    return [m for m in product(range(bound + 1), repeat=P.n) if all(m[p] <= m[q] for p, q in order)]


def ref_prefix_positions(P: Poset, order) -> tuple:
    """Oracle for homset._prefix_covers: for each position k of `order`, all
    earlier positions whose elements lie below order[k], and all those whose
    elements lie above it, by a test of every earlier position."""
    below = [[j for j in range(k) if P.down[p] >> order[j] & 1] for k, p in enumerate(order)]
    above = [[j for j in range(k) if P.up[p] >> order[j] & 1] for k, p in enumerate(order)]
    return below, above


def draw_poset(data, max_n: int) -> Poset:
    """A poset on at most max_n elements drawn by hypothesis: relations i < j
    between the positions of a drawn order of the elements, so that the
    element numbers need not follow a linear extension."""
    n = data.draw(st.integers(0, max_n))
    place = data.draw(st.permutations(range(n)))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Poset(n, [(place[i], place[j]) for (i, j), k in zip(pairs, keep) if k])


def brute_complement_gens(J: HomIdeal, bound: int):
    """Oracle: minimal elements of the complement among maps valued <= bound."""
    pool = enumerate_isotone(J.poset, bound)
    return brute_minimal([m for m in pool if not J.member(m)])


def brute_is_marker(J: HomIdeal, marker, bound: int) -> bool:
    """Oracle: check every isotone extension with values <= bound."""
    P = J.poset
    for phi in enumerate_isotone(P, bound):
        if all(phi[p] == marker.values[p] for p in marker.domain):
            if not J.member(phi):
                return False
    return True


def ascent_via_filters(P: Poset, phi) -> frozenset:
    """Oracle for ascent: (p, i) is an ascent pair iff p is minimal in the
    filter of elements with value >= i+1."""
    phi = check_isotone(P, phi)
    out = set()
    top = max(phi, default=0)
    for i in range(top):
        level = {p for p in range(P.n) if phi[p] >= i + 1}
        for p in P.min_elements(level):
            out.add((p, i))
    return frozenset(out)


def brute_letterplace(J: HomIdeal) -> MonomialIdeal:
    """Oracle for letterplace_ideal: minimal ascent monomials of every
    non-member map valued <= the largest complement-generator value, each
    ascent read off P.leq, through the general constructors.  The elements
    below each p and the variables x[p,i] are listed once per ideal."""
    if not J.complement_gens():
        return MonomialIdeal([])
    P, top = J.poset, J.nmax()
    below = [[q for q in range(P.n) if q != p and P.leq(q, p)] for p in range(P.n)]
    x = [[pair_var(p, i) for i in range(top)] for p in range(P.n)]
    gens = []
    for psi in enumerate_isotone(P, top):
        if not J.member(psi):
            floors = [max([psi[q] for q in below[p]], default=0) for p in range(P.n)]
            gens.append(Monomial((x[p][i], 1) for p in range(P.n) for i in range(floors[p], psi[p])))
    return MonomialIdeal(gens)


def ref_project_ideal(I: MonomialIdeal, f) -> MonomialIdeal:
    """Oracle for quotient.project_ideal: each generator with x[p,i] replaced
    by its target, through the general Monomial constructor, and the images
    minimalized by the general MonomialIdeal constructor."""
    table = {pair_var(p, i): t for (p, i), t in zip(f.source, f.targets)}
    return MonomialIdeal((Monomial((table[v], e) for v, e in g.exps) for g in I.gens), sorted(set(f.targets)))


def ref_multichains(P: Poset, alpha) -> list:
    """Oracle for ideals._multichains: the multichains p_0 <= ... <= p_r with
    alpha(p_r) = r and alpha(p_j) > j for j < r, as element tuples, by
    recursion over prefixes with P.leq."""
    out = []

    def rec(last, prefix):
        pos = len(prefix)
        for q in range(P.n):
            if last is not None and not P.leq(last, q):
                continue
            if alpha[q] < pos:
                continue
            if alpha[q] == pos:
                out.append(prefix + (q,))
            else:
                rec(q, prefix + (q,))

    rec(None, ())
    return out


def ref_pairs_monomial(pairs) -> Monomial:
    """Oracle for the pair-table builder monomial._of_sorted_pairs: the
    squarefree monomial on (p, i) pairs in any order, through the general
    constructor."""
    return Monomial((pair_var(p, i), 1) for p, i in pairs)


def ref_transversals(supports) -> list:
    """Oracle for monomial._transversals: Berge's edge-by-edge extension.
    The minimal masks meeting every mask in `supports`: [0] for no supports,
    [] if one support is 0."""
    transversals = [0]
    for hyper in sorted(supports, key=int.bit_count):
        # A new t | bit (t misses hyper) is minimal unless an old transversal
        # lies in it; that one meets hyper in bit alone and has the rest in t.
        hit, missed, spoil = [], [], {}
        for t in transversals:
            s = t & hyper
            if not s:
                missed.append(t)
                continue
            hit.append(t)
            if not s & (s - 1):
                spoil.setdefault(s, []).append(t ^ s)
        fresh = []
        for t in missed:
            m = hyper
            while m:
                bit = m & -m
                m ^= bit
                if not any(r & t == r for r in spoil.get(bit, ())):
                    fresh.append(t | bit)
        transversals = hit + fresh
    return transversals


def brute_alexander_dual_gens(I: MonomialIdeal):
    """Oracle: enumerate all squarefree monomials over the generator support and
    keep the minimal ones meeting every generator."""
    vs = sorted(set().union(*(g.support() for g in I.gens)))
    hitting = []
    for r in range(len(vs) + 1):
        for sub in combinations(vs, r):
            s = set(sub)
            if all(s & g.support() for g in I.gens):
                hitting.append(frozenset(s))
    minimal = [
        h for h in hitting if not any(o != h and o <= h for o in hitting)
    ]
    return sorted(
        Monomial((v, 1) for v in h) for h in minimal
    )


def ref_is_strongly_stable(I: MonomialIdeal) -> bool:
    """Oracle for stable.is_strongly_stable: every exchange of a generator's
    variable for any smaller universe variable stays in the ideal."""
    for g in I.gens:
        for v in g.support():
            base = g / Monomial.variable(v)
            if not all(I.contains(base * Monomial.variable(u)) for u in I.universe if u < v):
                return False
    return True


def ref_borel_closure(gens, universe) -> MonomialIdeal:
    """Oracle for stable.borel_closure: the closure under every exchange of
    a variable for a smaller universe variable."""
    universe = sorted(universe)
    seen = set()
    stack = list(gens)
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        for v in m.support():
            base = m / Monomial.variable(v)
            stack += [base * Monomial.variable(u) for u in universe if u < v]
    return MonomialIdeal(seen, universe)


def ref_homideal_from_ss(I: MonomialIdeal) -> HomIdeal:
    """Oracle for stable.homideal_from_ss: minimal preimages of every monomial
    of I up to its largest generator degree."""
    P = chain(len(I.universe))
    if I.is_zero:
        return HomIdeal.cofinite(P, [])
    monos = [m for m in monomials_up_to(I.universe, I.max_degree()) if I.contains(m)]
    return HomIdeal.cofinite(P, minimal_of([ref_lambda_bar_inv(P, m) for m in monos]))


def hilbert_incl_excl(gens) -> IntPoly:
    """Oracle for hilbert_numerator: K(I) = sum over generator subsets of
    (-1)^|S| t^deg(lcm S)."""
    out = IntPoly.zero()
    n = len(gens)
    for r in range(n + 1):
        sign = -1 if r % 2 else 1
        for subset in combinations(gens, r):
            m = Monomial.one()
            for g in subset:
                m = m.lcm(g)
            out = out + IntPoly({m.degree(): sign})
    return out


def ref_bit_counts(masks) -> dict:
    """Oracle for the bit planes of monomial._bit_planes: {bit: the number of
    masks holding it} over the bits some mask holds, by testing one bit at a
    time."""
    counts = {}
    for m in masks:
        for b in range(m.bit_length()):
            if m >> b & 1:
                counts[1 << b] = counts.get(1 << b, 0) + 1
    return counts


def ref_hilbert_colon(gens, x: Monomial) -> tuple:
    """I : x as the minimal elements of all the g : x, for I on gens, sorted
    by sort_key."""
    return tuple(sorted(brute_minimal_elements([g.colon(x) for g in gens], ref_divides), key=Monomial.sort_key))


def ref_hilbert_numerator(I: MonomialIdeal) -> IntPoly:
    """Oracle for hilbert_numerator: the pivot recursion on monomials,
    K(I) = (1-t) * K(x-free gens) + t * K(I : x) on the variable x in most
    generators (ties to the least), I : x from ref_hilbert_colon, and the
    product of the 1 - t^deg g when no two generators share a variable."""
    memo = {}

    def rec(gens):
        if gens in memo:
            return memo[gens]
        counts = {}
        for g in gens:
            for v, _ in g.exps:
                counts[v] = counts.get(v, 0) + 1
        if all(k == 1 for k in counts.values()):
            out = IntPoly.one()
            for g in gens:
                out = out * one_minus_tpow(g.degree())
        else:
            best = max(counts.values())
            x = Monomial.variable(min(v for v, k in counts.items() if k == best))
            plus = tuple(g for g in gens if not x.divides(g))
            out = one_minus_tpow(1) * rec(plus) + IntPoly({1: 1}) * rec(ref_hilbert_colon(gens, x))
        memo[gens] = out
        return out

    return rec(I.gens)


def eliahou_kervaire(gens) -> IntPoly:
    """Oracle for hilbert_numerator on a strongly stable ideal with minimal
    generators gens (Eliahou-Kervaire, J. Algebra 1990):
    K(t) = 1 - sum over u of t^deg(u) (1-t)^(m(u)-1), with m(u) the position
    of the largest variable of u (m(1) = 1).  The variables of the generators
    of a strongly stable ideal are an initial segment of its universe, so
    positions are counted among them."""
    rank = {v: i for i, v in enumerate(sorted({v for g in gens for v, _ in g.exps}), 1)}
    out = IntPoly.one()
    for u in gens:
        top = max((rank[v] for v, _ in u.exps), default=1)
        out = out - IntPoly({u.degree(): 1}) * one_minus_tpow(1) ** (top - 1)
    return out


def linear_quotient_numerator(gens):
    """Oracle for hilbert_numerator from linear quotients, or None.  With
    gens g_1, ..., g_s in Monomial.sort_key order, each colon
    (g_1, ..., g_{k-1}) : g_k is checked to be generated by variables, r_k of
    them; then K(t) = 1 - sum over k of t^deg(g_k) (1-t)^r_k.  Returns None as
    soon as a colon is not generated by variables."""
    gens = sorted(gens, key=Monomial.sort_key)
    out = IntPoly.one()
    for k, g in enumerate(gens):
        quotients = [h.colon(g) for h in gens[:k]]
        variables = {v for q in quotients if q.degree() == 1 for v, _ in q.exps}
        if any(not q.support() & variables for q in quotients):
            return None
        out = out - IntPoly({g.degree(): 1}) * one_minus_tpow(1) ** len(variables)
    return out


def random_cofinite_ideal(P: Poset, rng, max_val=3, max_gens=3) -> HomIdeal:
    pool = enumerate_isotone(P, max_val)
    k = rng.randint(1, max_gens)
    return HomIdeal.cofinite(P, [rng.choice(pool) for _ in range(k)])


def random_principal_ideal(P: Poset, rng, max_val=2) -> HomIdeal:
    pool = enumerate_isotone(P, max_val)
    return HomIdeal.principal(P, rng.choice(pool))


def artinian_generators(n: int, maxdeg: int):
    """The generator lists of artinian_ideals(n, maxdeg), in the same order."""
    variables = [elem_var(p) for p in range(n)]
    mixed = [
        m
        for m in monomials_up_to(variables, maxdeg)
        if len(m.support()) >= 2
    ]
    for power_degs in _product_range(n, maxdeg):
        powers = [Monomial([(variables[p], power_degs[p])]) for p in range(n)]
        free = [
            m
            for m in mixed
            if not any(pw.divides(m) for pw in powers)
        ]
        for subset in _antichain_subsets(free):
            yield powers + list(subset)


def artinian_ideals(n: int, maxdeg: int):
    """All artinian monomial ideals in n variables with generators of degree
    <= maxdeg: a pure power per variable plus compatible mixed generators."""
    for gens in artinian_generators(n, maxdeg):
        # Pure powers of distinct variables do not divide each other, the
        # mixed generators are a divisibility antichain none of which a
        # power divides, and a mixed monomial (support >= 2) divides no
        # pure power: the generators are distinct and minimal.  Every
        # variable has its pure power, so the generators' variables are
        # the universe x[0..n-1].
        yield MonomialIdeal._of_canonical(sorted(gens, key=Monomial.sort_key))


def _product_range(n, top):
    if n == 0:
        yield ()
        return
    for rest in _product_range(n - 1, top):
        for d in range(1, top + 1):
            yield rest + (d,)


def _antichain_subsets(monos):
    """All subsets of monos that are divisibility antichains, each later
    monomial added to every earlier subset it is incomparable with."""
    # clash[i]: the indices j with monos[i] and monos[j] comparable
    clash = [sum(1 << j for j, y in enumerate(monos) if x.divides(y) or y.divides(x)) for x in monos]
    out = [((), 0)]
    for i, m in enumerate(monos):
        out += [(sub + (m,), used | 1 << i) for sub, used in out if not used & clash[i]]
    return [sub for sub, _ in out]


def single_merge_maps(P, pairs, side: str):
    """All fiber maps collapsing exactly one pair of support positions, filtered
    to the requested strictness class and to merges whose quotient stays a poset."""
    from letterplace.monomial import pair_var
    from letterplace.quotient import FiberMap, fiber_kind

    pairs = sorted(tuple(s) for s in pairs)
    out = []
    for a in range(len(pairs)):
        for b in range(a):
            targets = tuple(
                pair_var(*pairs[min(a, b)]) if k in (a, b) else pair_var(*pairs[k])
                for k in range(len(pairs))
            )
            fmap = FiberMap(tuple(pairs), targets)
            if fiber_kind(P, fmap) in (side, "both") and quotient_order_ok(P, fmap):
                out.append(fmap)
    return out


def nonstrict_merge_map(P, pairs):
    """A merge of two incomparable same-level positions; violates both
    strictness conditions.  Returns None when no such pair exists."""
    from letterplace.monomial import pair_var
    from letterplace.quotient import FiberMap, fiber_kind

    pairs = sorted(tuple(s) for s in pairs)
    for a in range(len(pairs)):
        for b in range(a):
            (p, i), (q, j) = pairs[a], pairs[b]
            if i == j and not P.comparable(p, q):
                targets = tuple(
                    pair_var(*pairs[min(a, b)]) if k in (a, b) else pair_var(*pairs[k])
                    for k in range(len(pairs))
                )
                fmap = FiberMap(tuple(pairs), targets)
                if fiber_kind(P, fmap) != "neither":
                    raise AssertionError("a merge of two incomparable pairs in one column must be neither")
                return fmap
    return None


# -- reference Groebner engine ---------------------------------------------------
#
# The sparse engine the library used before its dense one: Monomial-keyed
# polynomials, leading terms recomputed on every reduction, and only the coprime
# pair criterion.  It is the oracle for letterplace.groebner and shares none of
# its arithmetic: from that module it uses only Polynomial's terms and leading
# terms, and TermOrder.key.


def ref_reduce(f: Polynomial, basis, order: TermOrder) -> Polynomial:
    """Full normal form of f modulo basis, deterministic in the listed order."""
    heads = [(g.leading_monomial(order), g.leading_coeff(order), g) for g in basis if g]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for lt, lc, g in heads:
            if lt.divides(m):
                q = m / lt
                mult = c / lc
                for gm, gc in g.terms.items():
                    if gm == lt:
                        continue
                    key = gm * q
                    acc = work.get(key, Fraction(0)) - mult * gc
                    if acc:
                        work[key] = acc
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[m] = c
    return Polynomial(remainder)


def ref_s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """(L / lt f) f / lc f - (L / lt g) g / lc g, with L the lcm of the leading
    monomials, term by term on Monomial keys."""
    L = f.leading_monomial(order).lcm(g.leading_monomial(order))
    acc = {}
    for h, sign in ((f, 1), (g, -1)):
        lt = h.leading_monomial(order)
        q, lc = L / lt, h.terms[lt]
        for m, c in h.terms.items():
            key = m * q
            acc[key] = acc.get(key, Fraction(0)) + sign * c / lc
    return Polynomial(acc)


def _primitive(f: Polynomial) -> Polynomial:
    """Clear denominators and strip integer content; sign left as is."""
    if not f:
        return f
    den = 1
    for c in f.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in f.terms.values():
        num = gcd(num, abs(c.numerator * (den // c.denominator)))
    return Polynomial({m: Fraction(c.numerator * (den // c.denominator), num) for m, c in f.terms.items()})


def ref_buchberger(gens, order: TermOrder, degree_cap: int = None, pair_cap: int = 200_000) -> list:
    """Reduced Groebner basis: auto-reduced, monic, sorted by leading term.

    Normal selection strategy (smallest lcm first), with the coprime
    leading-term criterion.  An S-pair whose lcm degree exceeds degree_cap
    (None: no cap), or more than pair_cap S-pairs, raise BudgetExceeded.
    """
    basis = []
    for f in gens:
        if f:
            basis.append(_primitive(f))
    if not basis:
        return []

    heads = [(f.leading_monomial(order), f) for f in basis]
    heap = []
    counter = 0

    def push_pairs(j):
        nonlocal counter
        ltj = heads[j][0]
        for i in range(j):
            L = heads[i][0].lcm(ltj)
            heapq.heappush(heap, (order.key(L), counter, i, j, L))
            counter += 1

    for j in range(len(basis)):
        push_pairs(j)

    processed = 0
    while heap:
        _, _, i, j, L = heapq.heappop(heap)
        processed += 1
        if processed > pair_cap:
            raise BudgetExceeded(f"more than {pair_cap} S-pairs processed")
        lti, ltj = heads[i][0], heads[j][0]
        if (lti * ltj) == L:
            continue  # coprime leading terms: S-pair reduces to zero
        if degree_cap is not None and L.degree() > degree_cap:
            raise BudgetExceeded(
                f"S-pair lcm degree {L.degree()} exceeds cap {degree_cap}"
            )
        s = ref_s_polynomial(heads[i][1], heads[j][1], order)
        r = ref_reduce(s, [g for _, g in heads], order)
        if r:
            r = _primitive(r)
            heads.append((r.leading_monomial(order), r))
            push_pairs(len(heads) - 1)

    return _ref_interreduce([g for _, g in heads], order)


def _ref_interreduce(basis, order) -> list:
    basis = [g for g in basis if g]
    changed, passes = True, 0
    while changed:
        passes += 1
        if passes > 1000:
            raise RuntimeError("interreduction did not stabilize")
        changed = False
        trimmed = []
        for idx, g in enumerate(basis):
            # Reduce against the elements already trimmed and those still to
            # come, so that equal elements do not cancel each other out.
            r = ref_reduce(g, trimmed + basis[idx + 1 :], order)
            if r.terms != g.terms:
                changed = True
            if r:
                trimmed.append(_primitive(r))
        basis = trimmed
    out = [g.monic(order) for g in basis]
    out.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return out


# -- reference interreduction on packed heads ----------------------------------
#
# The interreduction letterplace.groebner ran before it kept track of which
# tails a later head can reach: every tail is reduced again, modulo the heads
# with smaller leading terms, by a normal form that tests every head on every
# term.


def ref_normal_form_packed(work: dict, heads: list, guard: int) -> dict:
    """Full normal form of the packed dict work modulo the monic (lt, tail)
    heads: each term, largest first, is reduced by the first listed head whose
    leading term divides it, or kept."""
    work = dict(work)
    remainder = {}
    while work:
        e = max(work)
        c = work.pop(e)
        for lt, tail in heads:
            if ((e | guard) - lt) & guard == guard:
                for te, tc in tail:
                    t = te + e - lt
                    if t & guard:
                        raise AssertionError("a product outgrew its fields")
                    acc = work.get(t, 0) - c * tc
                    if acc:
                        work[t] = acc
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[e] = c
    return remainder


def ref_interreduce_packed(heads: list, guard: int) -> list:
    """Reduced basis, as monic packed dicts sorted by leading term, from the
    monic heads of a Groebner basis none of whose leading terms divides
    another, each tail reduced modulo the heads before it."""
    heads = sorted(heads, key=lambda h: h[0])
    return [
        {lt: 1, **ref_normal_form_packed(dict(tail), heads[:k], guard)}
        for k, (lt, tail) in enumerate(heads)
    ]


# -- reference determinantal routes ----------------------------------------------
#
# The routes letterplace.determinantal used before it expanded each minor once,
# built its target through principal_letterplace_gens, and verified the main
# theorem on packed minors.


def _ref_determinant(M: DetMatrix, rows: tuple, cols: tuple) -> Polynomial:
    """Cofactor expansion along the first row, short-circuiting staircase zeros."""
    if not rows:
        return Polynomial({Monomial.one(): 1})
    i, rest = rows[0], rows[1:]
    acc = {}
    for j, p in enumerate(cols):
        e = M.entry(p, i)
        if e is None:
            continue
        sub = _ref_determinant(M, rest, cols[:j] + cols[j + 1 :])
        sign = -1 if j % 2 else 1
        for m, c in sub.terms.items():
            key = m * Monomial.variable(e)
            acc[key] = acc.get(key, Fraction(0)) + sign * c
    return Polynomial(acc)


def ref_minors(seq: LSequence) -> list:
    """Oracle for minors_with_positions: every minor by its own cofactor expansion."""
    M = DetMatrix(seq)
    out = []
    for c in range(seq.a + 1, seq.b + 1):
        rows = tuple(range(seq.a, c))
        for cols in combinations(range(seq[seq.a] + 1, seq[c] + 1), c - seq.a):
            det = _ref_determinant(M, rows, cols)
            if det:
                out.append((c, rows, cols, det))
    return out


def ref_ly_ideal(iseq: LSequence) -> MonomialIdeal:
    """Oracle for ly_ideal: the multichain recursion written out on the shifted
    chain i_a+1..i_b, with value c on (i_c, i_{c+1}] and positions from a."""
    a, b = iseq.a, iseq.b
    lo, hi = iseq[a] + 1, iseq[b]
    value = {}
    for c in range(a, b):
        for p in range(iseq[c] + 1, iseq[c + 1] + 1):
            value[p] = c
    gens = []
    chain_buf = []

    def rec(last, pos):
        for q in range(lo if last is None else last, hi + 1):
            if value.get(q, -1) < pos:
                continue
            chain_buf.append(q)
            if value[q] == pos:
                gens.append(
                    Monomial((pair_var(p + j, j), 1) for j, p in enumerate(chain_buf, start=a))
                )
            else:
                rec(q, pos + 1)
            chain_buf.pop()

    rec(None, a)
    return MonomialIdeal(gens)


def ref_diagonal_leads_ok(seq: LSequence, order: TermOrder, minors: list) -> bool:
    """Oracle for the diagonal check of verify_main and diagonal_leads_ok:
    every (c, rows, cols, polynomial) in minors whose main diagonal is
    nonzero has the diagonal product as its leading monomial under order."""
    M = DetMatrix(seq)
    for _, rows, cols, det in minors:
        diag = [M.entry(p, i) for p, i in zip(cols, rows)]
        if None not in diag and det.leading_monomial(order) != Monomial((v, 1) for v in diag):
            return False
    return True


def ref_verify_main(seq: LSequence, degree_cap: int = None, pair_cap: int = 200_000) -> dict:
    """Oracle for verify_main: its report by the public Polynomial route on
    the reference minors and target, ref_minors -> buchberger ->
    initial_ideal against ref_ly_ideal, with the leads checked by
    ref_diagonal_leads_ok."""
    M = DetMatrix(seq)
    order = diagonal_order(M.variables())
    minors = ref_minors(seq)
    gens = [det for _, _, _, det in minors]
    ter = terrace(seq)
    iseq = i_sequence(ter)
    target = ref_ly_ideal(iseq)
    diag_ok = ref_diagonal_leads_ok(seq, order, minors)
    basis = buchberger(gens, order, degree_cap, pair_cap)
    initial_ok = initial_ideal(basis, order).gens == target.gens
    codims = codim_formulas(seq)
    h = ref_height(target)
    codim_ok = h == codims["from_i"] == codims["max_formula"]
    report = {
        "a": seq.a,
        "l": list(seq.vals),
        "terrace": list(ter.vals),
        "i_sequence": list(iseq.vals),
        "num_variables": len(M.variables()),
        "num_generators": len(gens),
        "gb_size": len(basis),
        "diagonal_leads_ok": diag_ok,
        "initial_equals_target": initial_ok,
        "codim": {"height": h, **codims},
        "codim_ok": codim_ok,
        "ok": diag_ok and initial_ok and codim_ok,
        "budget": {"degree_cap": degree_cap, "pair_cap": pair_cap},
    }
    if ter != seq:
        report["terrace_instance"] = ref_verify_main(ter, degree_cap, pair_cap)
        report["ok"] = report["ok"] and report["terrace_instance"]["ok"]
    return report


def same_ideal_by_membership(
    gens_a,
    gens_b,
    order: TermOrder,
    degree_cap: int = None,
    pair_cap: int = 200_000,
) -> bool:
    """Bidirectional membership: each side's generators reduce to zero against
    the other side's reduced basis."""
    ga, gb = list(gens_a), list(gens_b)
    basis_a = buchberger(ga, order, degree_cap, pair_cap)
    basis_b = buchberger(gb, order, degree_cap, pair_cap)
    return all(not reduce(f, basis_b, order) for f in ga) and all(
        not reduce(f, basis_a, order) for f in gb
    )
