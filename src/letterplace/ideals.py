"""Ascents, graphs, letterplace and co-letterplace ideals, supports, hulls.

The letterplace ideal of a HomIdeal J is generated by the ascent monomials of
the maps in the complement filter; the co-letterplace ideal by the graph
monomials of the minimal markers.  Both live in doubly indexed variables
x[p,i] and are Alexander dual to each other, which is how every
non-principal letterplace ideal is built.
"""

from __future__ import annotations

from .errors import ExplosionGuard, InfiniteIdeal
from .homset import HomIdeal, _floor, _isotone_maps, check_isotone
from .monomial import MonomialIdeal, _pair_ideal, alexander_dual
from .poset import Poset


def ascent(P: Poset, phi) -> frozenset:
    """Pairs (p, i) with max of phi below p <= i < phi(p).

    For minimal p the lower constraint is vacuous, so i runs from 0.
    """
    return frozenset(_ascent_pairs(P, check_isotone(P, phi)))


def _ascent_pairs(P: Poset, phi) -> list:
    """The ascent pairs of an isotone phi in ascending order."""
    return [(p, i) for p, top in enumerate(phi) for i in range(_floor(phi, P.lower[p]), top)]


def letterplace_ideal(J: HomIdeal, cap: int = 10**7) -> MonomialIdeal:
    """Minimal ascent monomials of the complement filter.

    A principal ideal takes the multichain description of
    principal_letterplace_gens, and `cap` bounds the multichains its walk
    produces.  Any other J takes the duality theorem: L(J, P) is the
    Alexander dual of the co-letterplace ideal L(P, J), and `cap` bounds the
    marker walk of a cofinite J.  Past the cap ExplosionGuard is raised.  An
    empty ideal (complement = everything) yields the unit ideal, flagged by
    MonomialIdeal.is_unit; J = Hom yields the zero ideal.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if J.kind == "principal":
        return _pair_ideal(_multichain_pairs(J.poset, J.alpha, cap))
    return alexander_dual(coletterplace_ideal(J, cap))


def coletterplace_ideal(J: HomIdeal, cap: int = 10**7) -> MonomialIdeal:
    """Minimal graph monomials over the minimal markers of J.

    For a principal J the isotone-map walk builds the graphs of the maps
    below alpha; any other J takes the rows of J._marker_graphs, so no
    Marker is built.  Both come in sort_key order.  `cap` bounds the maps
    either walk produces (for a cofinite J, in all its boxes together);
    past it ExplosionGuard is raised.
    """
    if J.kind != "principal":
        # minimal markers have distinct graphs, none inside another
        return _pair_ideal(J._marker_graphs(cap))
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    return MonomialIdeal._of_canonical(_isotone_maps(J.poset, J.alpha, cap=cap, graphs=True))


def support(J: HomIdeal, cap: int = 10**7) -> frozenset:
    """Pairs (p, i) whose variable appears in the minimal generators.

    For finite ideals this must equal {(p, i) | i <= hull(p)}, which is
    checked here.
    """
    return _checked_support(J, letterplace_ideal(J, cap))


def _checked_support(J: HomIdeal, L: MonomialIdeal) -> frozenset:
    """support(J) read off L, checked against the hull.  L is letterplace_ideal(J)
    or its Alexander dual coletterplace_ideal(J): the two use the same variables."""
    out = frozenset((v.a, v.b) for g in L.gens for v, _ in g.exps)
    # the empty ideal, the one without the zero map, has no hull; its
    # letterplace ideal is the unit ideal, with no variables
    if J.is_finite_repr and J.member((0,) * J.poset.n):
        alpha = hull_map(J)
        formula = frozenset((p, i) for p in range(J.poset.n) for i in range(alpha[p] + 1))
        if out != formula:
            raise AssertionError(f"support {sorted(out)} disagrees with the hull formula")
    return out


def _ascents_outside(J: HomIdeal, L: MonomialIdeal) -> bool:
    """True iff every generator of L is the ascent monomial of a map outside J.

    A generator's map is read back along a linear extension of P: psi(p) is
    the largest psi below p, raised to 1 + the largest i with x[p,i] in the
    generator.  This psi is isotone, and no other map can have that ascent.
    """
    P = J.poset
    for g in L.gens:
        pairs = [(v.a, v.b) for v, _ in g.exps]  # ascending, as _ascent_pairs lists them
        psi = [0] * P.n
        for p, i in pairs:
            psi[p] = i + 1
        for p in P.order:
            psi[p] = max(psi[p], _floor(psi, P.lower[p]))
        if J.member(psi) or _ascent_pairs(P, psi) != pairs:
            return False
    return True


def hull_map(J: HomIdeal) -> tuple:
    """Pointwise maximum over a finite ideal's members; isotone by downward closure."""
    if J.kind == "principal":
        return J.alpha
    if J.kind == "finite":
        members = J.members()
        if not members:
            raise InfiniteIdeal("empty ideal has no hull map")
        hull = tuple(max(m[p] for m in members) for p in range(J.poset.n))
        return check_isotone(J.poset, hull)
    raise InfiniteIdeal("hull map requires a principal or explicit-finite ideal")


def principal_letterplace_gens(P: Poset, alpha) -> MonomialIdeal:
    """Direct multichain description of the principal letterplace generators.

    Generators are monomials prod x[p_j, j] over multichains p_0 <= ... <= p_r
    with alpha(p_r) = r and alpha(p_j) > j for j < r: the letterplace ideal of
    the principal ideal on alpha (Fløystad–Greve–Herzog, JPAA 2017).
    """
    return _pair_ideal(_multichain_pairs(P, check_isotone(P, alpha), None))


def _multichain_pairs(P: Poset, alpha, cap) -> list:
    """The sorted pairs (p_j, j) of each multichain of
    principal_letterplace_gens(P, alpha), listed by (degree, pairs): the
    sort_key order of their monomials.  alpha must be isotone, and `cap`
    bounds the walk, as in _multichains.  No row holds another, as each
    multichain ends at its first alpha(p_j) = j."""
    chains = _multichains(P, alpha, cap)
    return [pairs for _, pairs in sorted((len(c), sorted(zip(c, range(len(c))))) for c in chains)]


def _multichains(P: Poset, alpha, cap=None) -> list:
    """The multichains (p_0, ..., p_r) of principal_letterplace_gens, as
    element tuples, each once; alpha must be isotone.  `cap` (None: no
    limit) bounds the multichains produced: ExplosionGuard is raised once
    there are more than cap of them, checked once per frame.

    Depth first on an explicit stack of frames (j, p): p comes at position
    j after path[:j], so a frame cuts the one shared path back to j entries
    and appends p.  Only a finished multichain is copied, and each frame
    walks the up-set mask of its own element, so the walk is linear in
    what it produces.
    """
    up = P.up
    out = []
    stack = []
    for q in range(P.n):
        if alpha[q]:
            stack.append((0, q))
        else:
            out.append((q,))
    path = []
    pop, push = stack.pop, stack.append
    while True:
        if cap is not None and len(out) > cap:
            raise ExplosionGuard(f"produced {len(out)} multichains, more than cap {cap}")
        if not stack:
            return out
        pos, p = pop()
        del path[pos:]
        path.append(p)
        pos += 1
        rest = up[p]
        while rest:
            low = rest & -rest
            rest ^= low
            q = low.bit_length() - 1
            top = alpha[q]
            if top == pos:
                out.append((*path, q))
            elif top > pos:
                push((pos, q))
