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

from .errors import ExplosionGuard, IdentifierOutOfRange, NotArtinian
from .homset import _floor, _strictly, check_isotone
from .monomial import (
    Monomial,
    MonomialIdeal,
    _of_exponent_list,
    _of_sorted_vars,
    elem_var,
    monomials_up_to,
    var_text,
)
from .poset import Poset


def lambda_bar(P: Poset, phi) -> Monomial:
    """Monomial with exponent phi(p) - max over strictly smaller elements."""
    phi = check_isotone(P, phi)
    below = _strictly(P.down)
    return Monomial((elem_var(p), phi[p] - _floor(phi, below[p])) for p in range(P.n))


def lambda_bar_inv(P: Poset, m: Monomial) -> tuple:
    """The unique map with lambda_bar image m.

    Its value at p is the weight of a heaviest multichain in m ending at p,
    where a multichain repeats each element at most its exponent many times:
    phi(p) = m_p + the largest phi strictly below p.
    """
    order, below, _ = _tables(P)
    return tuple(_heaviest(order, below, _weights(P, m)))


def _tables(P: Poset) -> tuple:
    """(a linear extension of P, the elements strictly below each element,
    those strictly above it).  Built per call and not kept on P."""
    order = sorted(range(P.n), key=lambda p: P.down[p].bit_count())
    return order, _strictly(P.down), _strictly(P.up)


def _weights(P: Poset, m: Monomial) -> list:
    """The exponent of m at each element of P."""
    weight = [0] * P.n
    for v, e in m.exps:
        if v.kind != "elem":
            raise ValueError(
                f"{v.kind} variable {var_text(v)} is not x[p] for an element p of the {P.n}-element poset"
            )
        if not 0 <= v.a < P.n:
            raise IdentifierOutOfRange(f"element {v.a} not in 0..{P.n - 1}")
        weight[v.a] = e
    return weight


def _heaviest(order, below, weight) -> list:
    """phi(p) = weight[p] + the largest phi strictly below p, filled along
    `order` (a linear extension of some elements) and 0 elsewhere: the
    weight of a heaviest multichain inside those elements ending at p."""
    phi = [0] * len(weight)
    for p in order:
        phi[p] = weight[p] + _floor(phi, below[p])
    return phi


def longest_b_chain(P: Poset, m: Monomial, b: int) -> tuple:
    """(length, through) for multichains inside m ending at or below b.

    A multichain in m repeats each element at most its exponent many times.
    `length` is the weight of a longest one, lambda_bar_inv(P, m)[b].
    `through` holds the elements a <= b on some longest one: a heaviest
    multichain ending at a and one from a up to b (the same recursion run
    downward from b inside its down-set) weigh `length`, counting m_a once.
    """
    weight = _weights(P, m)
    order, below, above = _tables(P)
    inside = [p for p in order if P.down[b] >> p & 1]
    ending = _heaviest(inside, below, weight)
    starting = _heaviest(inside[::-1], above, weight)
    length = ending[b]
    return length, frozenset(a for a in inside if ending[a] + starting[a] - weight[a] == length)


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
    n = P.n
    order, below, above = _tables(P)
    variables = [elem_var(p) for p in range(n)]
    xs = [Monomial.variable(v) for v in variables]
    # Depth-first over the order ideal of standard monomials: each one is
    # reached once, from 1 by raising variables in ascending order, so every
    # variable of m has index <= low.
    stack = [(Monomial.one(), 0)]
    produced = 0
    while stack:
        m, low = stack.pop()
        produced += 1
        if produced > cap:
            raise ExplosionGuard(f"{produced} standard monomials produced, more than the cap {cap}")
        w = _weights(P, m)
        phi = _heaviest(order, below, w)  # lambda_bar_inv(P, m)
        # Lowering phi at a support element a keeps it isotone; the jumps
        # (lambda_bar of the lowered map) change only at a and above it.
        for v, e in m.exps:
            a = v.a
            phi[a] -= 1
            jumps = w[:]
            jumps[a] = e - 1
            for p in above[a]:
                jumps[p] = phi[p] - _floor(phi, below[p])
            phi[a] += 1
            if I.contains(_of_exponent_list(variables, jumps)):
                return False
        for p in range(low, n):
            child = m * xs[p]
            if not I.contains(child):
                stack.append((child, p))
    return True


def _stable_bounded(P: Poset, I: MonomialIdeal, depth: int) -> bool:
    variables = [elem_var(p) for p in range(P.n)]
    xs = [Monomial.variable(v) for v in variables]
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
                stripped = m / _of_sorted_vars([variables[b] for b in B])
                for a in candidates:
                    if not I.contains(stripped * xs[a]):
                        return False
    return True


def maximal_ideal_power(P: Poset, d: int) -> MonomialIdeal:
    """The d-th power of (x_p : p in P), generated by all degree-d monomials."""
    variables = [elem_var(p) for p in range(P.n)]
    gens = [_of_sorted_vars(combo) for combo in combinations_with_replacement(variables, d)]
    return MonomialIdeal._of_minimal(gens, variables)  # distinct, all of degree d


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
