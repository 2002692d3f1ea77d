"""The bijection between isotone maps and monomials of k[x_P], and P-stability.

lambda_bar sends a map to the monomial recording, at each element, how far the
value jumps above the maximum over strictly smaller elements.  It is a
bijection from Hom(P, N) onto all monomials; the inverse peels off minimal
antichains of the remaining support.  An ideal of k[x_P] arises from a filter
of Hom(P, N) exactly when it is closed under the longest-chain exchange move,
which is what is_p_stable tests.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .errors import ExplosionGuard, NotArtinian
from .homset import check_isotone
from .monomial import Monomial, MonomialIdeal, elem_var, monomials_up_to
from .poset import Poset


def lambda_bar(P: Poset, phi) -> Monomial:
    """Monomial with exponent phi(p) - max over strictly smaller elements."""
    phi = check_isotone(P, phi)
    exps = []
    for p in range(P.n):
        below = max((phi[q] for q in range(P.n) if P.lt(q, p)), default=0)
        if phi[p] > below:
            exps.append((elem_var(p), phi[p] - below))
    return Monomial(exps)


def lambda_bar_inv(P: Poset, m: Monomial) -> tuple:
    """The unique map with lambda_bar image m, by minimal-antichain subtraction.

    The levels at which the antichain stays the same are peeled in one step.
    """
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


def longest_b_chain(P: Poset, m: Monomial, b: int) -> tuple:
    """(length, witnesses, through) for multichains inside m ending at or below b.

    A multichain in m repeats each element at most its exponent many times; a
    longest one uses every available copy along some pairwise comparable
    support subset.  `through` collects the elements a <= b insertable into at
    least one longest witness, i.e. comparable with everything in it.
    """
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


def is_p_stable(P: Poset, I: MonomialIdeal, mode: str = "exact", depth=None,
                cap: int = 10**6) -> bool:
    """Exchange-move closure test for ideals of k[x_P].

    exact mode (artinian ideals only): the finitely many monomials outside I
    pull back to a finite set of maps; the ideal is stable iff that set is
    closed under single-value decrements, i.e. its complement is a filter.
    The standard monomials are walked up from 1, and `cap` bounds how many
    of them are produced; past it ExplosionGuard is raised.

    bounded mode: the definitional test applied to every monomial of I with
    degree <= depth (default: max generator degree + 2).  Sound but
    incomplete; violations beyond the depth are not seen.
    """
    if mode == "exact":
        return _stable_exact(P, I, cap)
    if mode == "bounded":
        if depth is None:
            depth = I.max_degree() + 2
        return _stable_bounded(P, I, depth)
    raise ValueError(f"mode must be 'exact' or 'bounded', got {mode!r}")


def _stable_exact(P: Poset, I: MonomialIdeal, cap: int) -> bool:
    powered = {g.exps[0][0].a for g in I.gens if len(g.exps) == 1}
    missing = [p for p in range(P.n) if p not in powered]
    if missing:
        raise NotArtinian(f"no pure power of elements {missing} in the ideal")
    # Depth-first over the order ideal of standard monomials: each one is
    # reached once, from 1 by raising variables in ascending order.
    xs = [Monomial.variable(elem_var(p)) for p in range(P.n)]
    stack = [(Monomial.one(), 0)]
    produced = 0
    while stack:
        m, low = stack.pop()
        produced += 1
        if produced > cap:
            raise ExplosionGuard(f"{produced} standard monomials produced, more than the cap {cap}")
        phi = lambda_bar_inv(P, m)
        for v, _ in m.exps:
            p = v.a
            stepped = tuple(x - 1 if q == p else x for q, x in enumerate(phi))
            if I.contains(lambda_bar(P, stepped)):
                return False
        for p in range(low, P.n):
            child = m * xs[p]
            if not I.contains(child):
                stack.append((child, p))
    return True


def _stable_bounded(P: Poset, I: MonomialIdeal, depth: int) -> bool:
    variables = [elem_var(p) for p in range(P.n)]
    for m in monomials_up_to(variables, depth):
        if not I.contains(m):
            continue
        supp = sorted(v.a for v in m.support())
        through = {b: longest_b_chain(P, m, b)[2] for b in supp}
        for r in range(1, len(supp) + 1):
            for B in combinations(supp, r):
                if not P.is_antichain(B):
                    continue
                candidates = frozenset.intersection(*(through[b] for b in B))
                if not candidates:
                    continue
                stripped = m / Monomial((elem_var(b), 1) for b in B)
                for a in candidates:
                    if not I.contains(stripped * Monomial.variable(elem_var(a))):
                        return False
    return True


def maximal_ideal_power(P: Poset, d: int) -> MonomialIdeal:
    """The d-th power of (x_p : p in P), generated by all degree-d monomials."""
    variables = [elem_var(p) for p in range(P.n)]
    gens = [Monomial((v, 1) for v in combo) for combo in combinations_with_replacement(variables, d)]
    return MonomialIdeal(gens, variables)


def max_ideal_power_stable(P: Poset, d: int) -> tuple:
    """(exact stability verdict for m^d, one-cover forest verdict); they must agree.

    The structural test asks that every element have at most one cover, i.e.
    the Hasse diagram is a disjoint union of trees with roots at the top.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    verdict = is_p_stable(P, maximal_ideal_power(P, d), "exact")
    cover_counts = [0] * P.n
    for lower, _ in P.covers():
        cover_counts[lower] += 1
    structural = all(c <= 1 for c in cover_counts)
    return verdict, structural
