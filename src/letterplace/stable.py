"""Strongly stable ideals and the chain-case duality.

Over a chain the projected letterplace ideal of any HomIdeal is strongly
stable, and conversely every strongly stable ideal in x_1..x_m arises that
way; the co-letterplace side projects to a strongly stable ideal in naturally
indexed variables generated in degrees <= m.  Composing the two gives the
duality implemented by dualize_ss.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotAChain, NotStronglyStable
from .homset import HomIdeal
from .ideals import coletterplace_ideal, letterplace_ideal
from .monomial import Monomial, MonomialIdeal, Var, _make, elem_var
from .poset import chain
from .pstable import lambda_bar_inv
from .quotient import FiberMap, project_ideal


def is_strongly_stable(I: MonomialIdeal) -> bool:
    """Generator-level exchange test: moving a variable of a generator to
    the next smaller universe variable stays in the ideal.  That suffices:
    any exchange is a chain of such moves, and a move on g*w is a move on g
    or on w."""
    step = dict(zip(I.universe[1:], I.universe))
    return all(I.contains(m) for g in I.gens for m in _moves(g, step))


def borel_closure(gens: Iterable[Monomial], universe: Iterable[Var]) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the given monomials: their
    closure under moves to the next smaller universe variable."""
    universe = sorted(universe)
    step = dict(zip(universe[1:], universe))
    seen = set()
    stack = list(gens)
    while stack:
        m = stack.pop()
        if m not in seen:
            seen.add(m)
            stack += _moves(m, step)
    return MonomialIdeal(seen, universe)


def _moves(m: Monomial, step: dict):
    """m with one variable v replaced by step[v], for each v of m in step."""
    for v, _ in m.exps:
        if v in step:
            yield m / Monomial.variable(v) * Monomial.variable(step[v])


def ss_from_homideal(J: HomIdeal) -> MonomialIdeal:
    """Project the letterplace ideal onto first coordinates; strongly stable."""
    if not J.poset.is_chain():
        raise NotAChain("operation requires a chain poset")
    L = letterplace_ideal(J)
    pairs = {(v.a, v.b) for g in L.gens for v, _ in g.exps}
    out = project_ideal(L, FiberMap.projection_first(pairs))
    out = out.with_universe([elem_var(p) for p in range(J.poset.n)])
    if not is_strongly_stable(out):
        raise AssertionError("projected letterplace ideal must be strongly stable")
    return out


def homideal_from_ss(I: MonomialIdeal) -> HomIdeal:
    """Inverse of ss_from_homideal: the complement filter is generated by the
    preimages of the ideal's generators.  On a chain lambda_bar_inv is partial
    sums, so g | m gives lambda_bar_inv(g) <= lambda_bar_inv(m), and the
    cofinite constructor keeps the minimal preimages."""
    if not is_strongly_stable(I):
        raise NotStronglyStable("input fails the exchange test")
    m = len(I.universe)
    P = chain(m)
    if I.is_zero:
        return HomIdeal.cofinite(P, [])
    return HomIdeal.cofinite(P, [lambda_bar_inv(P, g) for g in I.gens])


def dualize_ss(I: MonomialIdeal) -> MonomialIdeal:
    """Dual of a strongly stable ideal in x_1..x_m: project the co-letterplace
    ideal of its HomIdeal onto second coordinates.  Generators have degree <= m."""
    J = homideal_from_ss(I)
    C = coletterplace_ideal(J)
    pairs = {(v.a, v.b) for g in C.gens for v, _ in g.exps}
    out = project_ideal(C, FiberMap.projection_second(pairs))
    m = len(I.universe)
    if out.max_degree() > m:
        raise AssertionError(f"dual must be generated in degrees <= {m}")
    if not is_strongly_stable(out):
        raise AssertionError("dual must be strongly stable")
    return out


def dualize_ss_bounded(I: MonomialIdeal, bound: int) -> MonomialIdeal:
    """Duality between stable ideals generated in degrees <= bound in x_1..x_m
    and ones generated in degrees <= m in x_1..x_bound; an involution.

    Computed as dualize_ss followed by reindexing natural variable index j to
    the chain element with identifier j (displayed 1-based as x_{j+1}).  The
    rename keeps the order of variables inside each generator and between
    generators, so the dual stays minimal and canonically sorted.
    """
    if I.max_degree() > bound:
        raise ValueError(f"ideal is not generated in degrees <= {bound}")
    nat = dualize_ss(I)
    if any(v.a >= bound for g in nat.gens for v, _ in g.exps):
        raise AssertionError("dual exceeded the regularity window")
    gens = [_make(tuple([(elem_var(v.a), e) for v, e in g.exps]), g.degree()) for g in nat.gens]
    return MonomialIdeal._of_canonical(gens, [elem_var(p) for p in range(bound)])
