"""The bijection between isotone maps and monomials of k[x_P], and P-stability.

lambda_bar sends a map to the monomial recording, at each element, how far the
value jumps above the largest value strictly below it.  It is a bijection
from Hom(P, N) onto all monomials; the inverse is the heaviest-multichain
recursion phi(p) = m_p + max over q < p of phi(q).  An ideal of k[x_P] arises
from a filter of Hom(P, N) exactly when it is closed under the longest-chain
exchange move, which is what is_p_stable tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import ExplosionGuard, IdentifierOutOfRange, NotArtinian
from .homset import _floor, check_isotone
from .monomial import Monomial, MonomialIdeal, elem_var, var_text
from .poset import Poset, _bits


def lambda_bar(P: Poset, phi) -> Monomial:
    """Monomial with exponent phi(p) - max over strictly smaller elements."""
    phi = check_isotone(P, phi)
    return Monomial((elem_var(p), phi[p] - _floor(phi, P.lower[p])) for p in range(P.n))


def lambda_bar_inv(P: Poset, m: Monomial) -> tuple:
    """The unique map with lambda_bar image m.

    Its value at p is the weight of a heaviest multichain in m ending at p,
    where a multichain repeats each element at most its exponent many times:
    phi(p) = m_p + the largest phi strictly below p.
    """
    return tuple(_heaviest(P.order, P.lower, _weights(P, m)))


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


def _heaviest(order, lower, weight) -> list:
    """phi(p) = weight[p] + the largest phi on the mask lower[p], filled
    along `order` and 0 elsewhere.  With P.order and P.lower, the weight of
    a heaviest multichain ending at p (phi is isotone, so largest below p on
    a lower cover); with P.upper, the same recursion run downward."""
    phi = [0] * len(weight)
    for p in order:
        phi[p] = weight[p] + _floor(phi, lower[p])
    return phi


def _through(P: Poset, weight, ending, b: int) -> int:
    """Bitmask of the elements a <= b on some heaviest multichain ending at
    b, where ending = _heaviest(P.order, P.lower, weight): a heaviest
    multichain ending at a and one from a up to b (the same recursion run
    downward from b inside its down-set) weigh ending[b], counting
    weight[a] once."""
    downward = [p for p in reversed(P.order) if P.down[b] >> p & 1]
    starting = _heaviest(downward, P.upper, weight)
    length = ending[b]
    through = 0
    for a in downward:
        if ending[a] + starting[a] - weight[a] == length:
            through |= 1 << a
    return through


def longest_b_chain(P: Poset, m: Monomial, b: int) -> tuple:
    """(length, through) for multichains inside m ending at or below b.

    A multichain in m repeats each element at most its exponent many times.
    `length` is the weight of a longest one, lambda_bar_inv(P, m)[b].
    `through` holds the elements a <= b on some longest one.
    """
    P._mask((b,))
    weight = _weights(P, m)
    ending = _heaviest(P.order, P.lower, weight)
    return ending[b], frozenset(_bits(_through(P, weight, ending, b)))


_CAP = 10**6


def is_p_stable(P: Poset, I: MonomialIdeal, mode: str = "exact", depth=None,
                cap: int = _CAP) -> bool:
    """Exchange-move closure test for ideals of k[x_P].

    exact mode (artinian ideals only): the finitely many monomials outside I
    pull back to a finite set of maps; the ideal is stable iff that set is
    closed under single-value decrements, i.e. its complement is a filter.
    The standard monomials are walked up from 1, and `cap` bounds how many
    of them are produced; past it ExplosionGuard is raised.

    bounded mode: the definitional test applied to every monomial of I with
    degree <= depth (default: max generator degree + 2).  Sound but
    incomplete; violations beyond the depth are not seen.

    ValueError is raised for a negative cap, when a generator uses a
    variable other than x[p] for an element p of P, and in bounded mode for
    a depth that is not a non-negative integer.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    n = P.n
    foreign = sorted({v for g in I.gens for v, _ in g.exps} - {elem_var(p) for p in range(n)})
    if foreign:
        names = ", ".join(f"{v.kind} variable {var_text(v)}" for v in foreign)
        raise ValueError(f"generators use {names}, not x[p] for an element p of the {n}-element poset")
    if mode == "exact":
        if I.is_unit:
            return True  # it holds every pure power and has no standard monomials
        power = [0] * n
        for g in I.gens:
            if len(g.exps) == 1:
                v, e = g.exps[0]
                power[v.a] = e
        missing = [p for p in range(n) if not power[p]]
        if missing:
            raise NotArtinian(f"no pure power of elements {missing} in the ideal")
        radix = _radix([e + 1 for e in power])
        return _stable_exact(P, {_code(g, radix) for g in I.gens}, power, radix, cap)
    if mode == "bounded":
        if depth is None:
            depth = I.max_degree() + 2
        if not isinstance(depth, int) or depth < 0:
            raise ValueError(f"depth must be a non-negative integer, got {depth}")
        radix = _radix([depth + 1] * n)
        gens = [(g.degree(), _code(g, radix)) for g in I.gens if g.degree() <= depth]
        return _stable_bounded(P, gens, radix, depth)
    raise ValueError(f"mode must be 'exact' or 'bounded', got {mode!r}")


def _radix(bases) -> list:
    """The place values of the mixed radix with these bases.  A monomial
    with exponent w[p] < bases[p] at each p has the code sum of
    w[p] * radix[p], and no two such monomials share a code."""
    radix = []
    place = 1
    for base in bases:
        radix.append(place)
        place *= base
    return radix


def _code(g: Monomial, radix) -> int:
    """The code of a monomial in the variables x[p]."""
    return sum(e * radix[v.a] for v, e in g.exps)


def _stable_exact(P: Poset, gens: set, power: list, radix: list, cap: int) -> bool:
    """Exact mode on codes in the radix with bases power[p] + 1: `gens`
    holds the generator codes of an artinian ideal, power[p] the exponent
    of its pure power of x[p].

    The standard monomials are walked level by level (by degree) from 1,
    each reached once: from w by raising a variable p at or after the one
    last raised in w.  The child c = w + e_p is standard iff it stays below
    the pure power, is not a generator, and every c - e_q (q in the support
    of w; q = p gives w) is standard already.  The exchange move of a
    standard w at a support element a gives j = lambda_bar(phi_w - e_a),
    and the ideal is stable iff every such j is standard.  Once the levels up to deg j are
    complete, that is a set lookup, so j waits in `pending` until then; a j
    still waiting when the walk ends lies above every standard monomial.
    A standard monomial has every exponent below power[p], and an exchange
    result or a minimal generator (not a multiple of a pure power) none
    above it, so no code stands for two of them.
    """
    n = P.n
    below = _lower_covers(P)
    standard = {0}
    if cap < 1:
        raise _past_cap(1, cap)
    # (code, exponent tuple, last variable raised, radix[q] for q in the support)
    level = [(0, (0,) * n, 0, ())]
    pending = {}  # degree -> the exchange results of that degree, undecided
    deg = 0
    while level:
        for j in pending.pop(deg, ()):
            if j not in standard:
                return False
        for c, w, _, _ in level:
            for j, k in _exchanges(below, radix, c, w):
                # with k = 0, j divides w and is standard
                if k == 1:
                    if j not in standard:
                        return False
                elif k:
                    pending.setdefault(deg - 1 + k, set()).add(j)
        grown = []
        for c, w, low, downs in level:
            for p in range(low, n):
                e = w[p] + 1
                if e >= power[p]:
                    continue
                r = radix[p]
                child = c + r
                if child in gens:
                    continue
                for q in downs:
                    if child - q not in standard:
                        break
                else:
                    standard.add(child)
                    if len(standard) > cap:
                        raise _past_cap(len(standard), cap)
                    grown.append((child, w[:p] + (e,) + w[p + 1:], p, downs if e > 1 else downs + (r,)))
        level = grown
        deg += 1
    return not pending


def _lower_covers(P: Poset) -> list:
    """(p, the elements p covers) for each element p that is not minimal,
    along the linear extension."""
    return [(p, tuple(_bits(P.lower[p]))) for p in P.order if P.lower[p]]


def _exchanges(below, radix, c: int, w) -> list:
    """The exchange moves of the monomial with exponents w and code c: for
    each support element a, ascending, the pair (j, k) where j is the code
    of lambda_bar(phi_w - e_a) and k counts the elements whose jump that
    move raises, so deg j = deg w - 1 + k.  `below` is _lower_covers(P).

    Lowering phi at a keeps it isotone and lowers the jump at a by one.  The
    jump at p reads the largest phi on p's lower covers, so it rises by one
    exactly where a is the sole lower cover of p with the highest phi, and
    stays put everywhere else.
    """
    n = len(w)
    phi = list(w)
    gain = [0] * n  # a -> sum of radix[p] over the p whose sole highest lower cover is a
    count = [0] * n
    for p, lows in below:
        top = 0
        sole = -1
        for q in lows:
            v = phi[q]
            if v > top:
                top = v
                sole = q
            elif v == top:
                sole = -1
        phi[p] += top
        if sole >= 0:
            gain[sole] += radix[p]
            count[sole] += 1
    return [(c - radix[a] + gain[a], count[a]) for a in range(n) if w[a]]


def _past_cap(produced: int, cap: int) -> ExplosionGuard:
    return ExplosionGuard(f"{produced} standard monomials produced, more than the cap {cap}")


def _stable_bounded(P: Poset, gens: list, radix: list, depth: int) -> bool:
    """Bounded mode on codes in the radix with base depth + 1: the
    definitional test on every member of degree <= depth, walked up from
    the generators, given as (degree, code) pairs, into one set.

    For a member m and an antichain B of its support, let `candidates` be
    the elements on some longest multichain through every b in B; then each
    m / prod(x_b : b in B) * x_a for a candidate a must be a member.  Its
    degree is at most deg m, so the member set decides it.  Where the
    stripped monomial m / prod(x_b : b in B) is a member, so is each of
    these, and the longest multichains of m are computed only for the rest.
    """
    n = P.n
    base = depth + 1
    # the members of degree k: the generators of degree k and the members
    # of degree k - 1 times each variable
    members = set()
    level = set()
    for k in range(depth + 1):
        level = {m + r for m in level for r in radix}
        level.update(c for d, c in gens if d == k)
        members |= level
    comparable = [P.down[p] | P.up[p] for p in range(n)]
    everything = (1 << n) - 1
    antichains_of = {}  # support mask -> its nonempty antichains, for this call only
    for m in members:
        supp = 0
        for p, r in enumerate(radix):
            if m // r % base:
                supp |= 1 << p
        antichains = antichains_of.get(supp)
        if antichains is None:
            grown = [((), 0)]  # (antichain, the elements comparable with it)
            for b in _bits(supp):
                grown += [(B + (b,), seen | comparable[b]) for B, seen in grown if not seen >> b & 1]
            antichains = antichains_of[supp] = [B for B, _ in grown[1:]]
        weight = None
        through = {}
        for B in antichains:
            stripped = m
            for b in B:
                stripped -= radix[b]
            if stripped in members:
                continue  # so is every stripped * x_a
            if weight is None:
                weight = [m // r % base for r in radix]
                ending = _heaviest(P.order, P.lower, weight)
            candidates = everything
            for b in B:
                if b not in through:
                    through[b] = _through(P, weight, ending, b)
                candidates &= through[b]
            while candidates:
                low = candidates & -candidates
                if stripped + radix[low.bit_length() - 1] not in members:
                    return False
                candidates ^= low
    return True


@lru_cache(maxsize=16)
def _power_codes(n: int, d: int) -> tuple:
    """(radix, codes): the radix with bases d + 1 on n elements, as a tuple,
    and the frozenset of the codes of the degree-d monomials, the generators
    of m^d.  They depend on n and d only, and _stable_exact only reads them."""
    radix = tuple(_radix([d + 1] * n))
    return radix, frozenset(map(sum, combinations_with_replacement(radix, d)))


def max_ideal_power_stable(P: Poset, d: int) -> tuple:
    """(exact stability verdict for m^d, one-cover forest verdict); they must agree.

    The structural test asks that every element have at most one cover, i.e.
    the Hasse diagram is a disjoint union of trees with roots at the top.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    radix, gens = _power_codes(P.n, d)
    verdict = _stable_exact(P, gens, [d] * P.n, radix, _CAP)
    return verdict, all(upper.bit_count() <= 1 for upper in P.upper)
