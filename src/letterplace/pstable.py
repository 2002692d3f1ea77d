"""The bijection between isotone maps and monomials of k[x_P], and P-stability.

lambda_bar sends a map to the monomial recording, at each element, how far the
value jumps above the largest value strictly below it.  It is a bijection
from Hom(P, N) onto all monomials; the inverse is the heaviest-multichain
recursion phi(p) = m_p + max over q < p of phi(q).  An ideal of k[x_P] arises
from a filter of Hom(P, N) exactly when it is closed under the longest-chain
exchange move, which is what is_p_stable tests.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .errors import ExplosionGuard, NotArtinian
from .homset import _floor, check_isotone
from .monomial import Monomial, MonomialIdeal, elem_var, monomials_up_to, var_text
from .poset import Poset


def lambda_bar(P: Poset, phi) -> Monomial:
    """Monomial with exponent phi(p) - max over strictly smaller elements."""
    return _jumps(P, check_isotone(P, phi))


def _jumps(P: Poset, phi) -> Monomial:
    """lambda_bar of a map known to be isotone."""
    return Monomial((elem_var(p), phi[p] - _floor(P, phi, p)) for p in range(P.n))


def lambda_bar_inv(P: Poset, m: Monomial) -> tuple:
    """The unique map with lambda_bar image m.

    Its value at p is the weight of a heaviest multichain in m ending at p,
    where a multichain repeats each element at most its exponent many times:
    phi(p) = m_p + the largest phi strictly below p.
    """
    return tuple(_heaviest(P, {v.a: e for v, e in m.exps}, range(P.n)))


def _heaviest(P: Poset, weight: dict, elements) -> list:
    """phi(p) = weight[p] + the largest phi strictly below p, filled over
    `elements` in a linear extension and 0 elsewhere: the weight of a
    heaviest multichain inside `elements` ending at p."""
    P._check_range(weight)
    phi = [0] * P.n
    for p in sorted(elements, key=lambda p: P.down[p].bit_count()):
        phi[p] = weight.get(p, 0) + _floor(P, phi, p)
    return phi


def longest_b_chain(P: Poset, m: Monomial, b: int) -> tuple:
    """(length, through) for multichains inside m ending at or below b.

    A multichain in m repeats each element at most its exponent many times.
    `length` is the weight of a longest one, lambda_bar_inv(P, m)[b].
    `through` holds the elements a <= b on some longest one: a heaviest
    multichain ending at a and one from a up to b (the same recursion run
    downward from b inside its down-set) weigh `length`, counting m_a once.
    """
    weight = {v.a: e for v, e in m.exps}
    below = P.down_set(b)
    ending = _heaviest(P, weight, below)
    starting = _heaviest(P.op, weight, below)
    length = ending[b]
    return length, frozenset(a for a in below if ending[a] + starting[a] - weight.get(a, 0) == length)


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

    ValueError is raised when a generator uses a variable other than x[p]
    for an element p of P, and in bounded mode for a negative depth.
    """
    foreign = sorted({v for g in I.gens for v, _ in g.exps} - {elem_var(p) for p in range(P.n)})
    if foreign:
        names = ", ".join(f"{v.kind} variable {var_text(v)}" for v in foreign)
        raise ValueError(f"generators use {names}, not x[p] for an element p of the {P.n}-element poset")
    if mode == "exact":
        return _stable_exact(P, I, cap)
    if mode == "bounded":
        if depth is None:
            depth = I.max_degree() + 2
        if depth < 0:
            raise ValueError(f"depth must be a non-negative integer, got {depth}")
        return _stable_bounded(P, I, depth)
    raise ValueError(f"mode must be 'exact' or 'bounded', got {mode!r}")


def _stable_exact(P: Poset, I: MonomialIdeal, cap: int) -> bool:
    if I.is_unit:
        return True  # it holds every pure power and has no standard monomials
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
        # lowering phi at a support element keeps it isotone
        phi = list(lambda_bar_inv(P, m))
        for v, _ in m.exps:
            phi[v.a] -= 1
            if I.contains(_jumps(P, phi)):
                return False
            phi[v.a] += 1
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
        through = {b: longest_b_chain(P, m, b)[1] for b in supp}
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
