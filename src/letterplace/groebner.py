"""Exact polynomials, term orders, and Buchberger's algorithm.

Polynomial is the value type that goes in and out: sparse terms over the
shared Monomial type.  All arithmetic happens in the desk-scale engine below,
on dense exponent tuples over the order's variable ranking, with exact
coefficients (integers while they are integers, Fraction otherwise).  Budgets
fail loudly via BudgetExceeded; results are never truncated silently.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from operator import add, le, mul, neg, sub
from typing import Iterable

from .errors import BudgetExceeded
from .monomial import Monomial, MonomialIdeal, Var, parse_monomial


class TermOrder:
    """Total multiplicative monomial order over a fixed variable ranking.

    kind "lex": compare exponent vectors in ranking order.
    kind "grevlex": total degree first, ties by smallest exponent on the
    lowest-ranked variable winning.
    """

    __slots__ = ("kind", "vars", "_pos")

    def __init__(self, kind: str, variables: Iterable[Var]):
        if kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variables in ranking")
        self._pos = {v: i for i, v in enumerate(self.vars)}

    def exponents(self, m: Monomial) -> tuple:
        e = [0] * len(self.vars)
        for v, k in m.exps:
            if v not in self._pos:
                raise ValueError(f"variable {v} not ranked by this order")
            e[self._pos[v]] = k
        return tuple(e)

    def key(self, m: Monomial):
        return self.tuple_key(self.exponents(m))

    def tuple_key(self, e: tuple):
        if self.kind == "lex":
            return e
        return (sum(e), tuple(-x for x in reversed(e)))

    def heap_key(self, e: tuple):
        """Key whose smallest value belongs to the largest exponent tuple."""
        if self.kind == "lex":
            return tuple(map(neg, e))
        return (-sum(e), e[::-1])

    def monomial(self, e: tuple) -> Monomial:
        return Monomial((self.vars[i], k) for i, k in enumerate(e) if k)


def lex_order(variables: Iterable[Var]) -> TermOrder:
    return TermOrder("lex", variables)


def grevlex_order(variables: Iterable[Var]) -> TermOrder:
    return TermOrder("grevlex", variables)


def diagonal_order(variables: Iterable[Var]) -> TermOrder:
    """Lex order ranking y[p,i] above y[q,j] iff i < j, or i = j and p < q.

    For the staircase matrices this makes every minor with nonzero main
    diagonal lead with its diagonal product; verified per instance rather than
    assumed.
    """
    ranked = sorted(variables, key=lambda v: (v.b, v.a))
    return TermOrder("lex", ranked)


class Polynomial:
    """Terms mapping Monomial -> nonzero Fraction; the engine does the arithmetic."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        for m, c in terms.items() if isinstance(terms, dict) else terms:
            acc[m] = acc.get(m, 0) + Fraction(c)
        self.terms = {m: c for m, c in acc.items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0].sort_key())))

    def leading_monomial(self, order: TermOrder) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: TermOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: TermOrder) -> "Polynomial":
        lc = self.leading_coeff(order)
        return Polynomial({m: c / lc for m, c in self.terms.items()})

    def text(self, order: TermOrder = None, labels=None, letter: str = "y") -> str:
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=Monomial.sort_key if order is None else order.key, reverse=True)
        parts = []
        for m in monos:
            c = self.terms[m]
            coeff = str(abs(c))  # "3" or "3/2"
            parts.append(("+" if c > 0 else "-") + (f"{coeff}*{m.text(labels, letter)}" if m else coeff))
        return "".join(parts)

    def __repr__(self):
        return self.text()


_TERM_SPLIT = re.compile(r"(?=[+-])")


def parse_polynomial(text: str, family: str = "pair") -> Polynomial:
    """Parse the sign-prefixed text form emitted by Polynomial.text.

    In each term, factors that start with a letter are variables, read by
    parse_monomial with the given family; the others are rational coefficients.
    """
    text = text.replace(" ", "")
    if text in ("", "0"):
        return Polynomial()
    if text[0] not in "+-":
        text = "+" + text
    terms = []
    for chunk in _TERM_SPLIT.split(text):
        if not chunk:
            continue
        coeff = Fraction(-1 if chunk[0] == "-" else 1)
        factors = []
        for piece in chunk[1:].split("*"):
            if piece[:1].isalpha():
                factors.append(piece)
            else:
                coeff *= Fraction(piece)
        terms.append((parse_monomial("*".join(factors) or "1", family=family), coeff))
    return Polynomial(terms)


# -- division and Buchberger ---------------------------------------------------
#
# Inside reduce and buchberger a polynomial is dense: a dict from exponent
# tuples over order.vars to coefficients, kept as int while they are integers
# and as Fraction otherwise.  A divisor is held monic as (lt, tail), computed
# once: its leading exponent tuple and its other (exponents, coefficient) pairs
# divided by the leading coefficient.


def _dense(f: Polynomial, order: TermOrder) -> dict:
    return {
        order.exponents(m): c.numerator if c.denominator == 1 else c
        for m, c in f.terms.items()
    }


def _sparse(d: dict, order: TermOrder) -> Polynomial:
    return Polynomial({order.monomial(e): c for e, c in d.items()})


def _monic_head(d: dict, order: TermOrder) -> tuple:
    lt = max(d, key=order.tuple_key)
    lc = d[lt]
    # a unit is its own inverse, so integer coefficients stay integers
    inv = lc if lc == 1 or lc == -1 else 1 / Fraction(lc)
    return lt, [(e, c * inv) for e, c in d.items() if e != lt]


def _normal_form(work: dict, heads: list, order: TermOrder) -> dict:
    """Full normal form of the dense polynomial work (consumed) modulo the
    monic heads.

    Terms are taken largest first from a heap of order keys; each is reduced
    by the first head whose leading exponents it dominates, or kept.
    """
    key = order.heap_key
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue  # cancelled, or a second heap entry for the same term
        for lt, tail in heads:
            if all(map(le, lt, e)):
                q = tuple(map(sub, e, lt))
                for te, tc in tail:
                    t = tuple(map(add, te, q))
                    old = work.get(t)
                    if old is None:
                        work[t] = -c * tc
                        heapq.heappush(heap, (key(t), t))
                    else:
                        old -= c * tc
                        if old:
                            work[t] = old
                        else:
                            del work[t]
                break
        else:
            remainder[e] = c
    return remainder


def reduce(f: Polynomial, basis: Iterable[Polynomial], order: TermOrder) -> Polynomial:
    """Full normal form of f modulo basis, deterministic in the listed order."""
    heads = [_monic_head(_dense(g, order), order) for g in basis if g]
    return _sparse(_normal_form(_dense(f, order), heads, order), order)


def _dense_s_polynomial(hi: tuple, hj: tuple, L: tuple) -> dict:
    """S-polynomial of two monic heads whose leading exponents have lcm L."""
    qi, qj = tuple(map(sub, L, hi[0])), tuple(map(sub, L, hj[0]))
    s = {tuple(map(add, e, qi)): c for e, c in hi[1]}
    for e, c in hj[1]:
        t = tuple(map(add, e, qj))
        c = s.get(t, 0) - c
        if c:
            s[t] = c
        else:
            del s[t]
    return s


def buchberger(
    gens: Iterable[Polynomial],
    order: TermOrder,
    degree_cap: int = None,
    pair_cap: int = 200_000,
) -> list:
    """Reduced Groebner basis: auto-reduced, monic, sorted by leading term.

    The inputs join in ascending order of leading term, each first reduced to
    its normal form modulo the elements already joined, so an input that
    reduces to zero forms no pairs.  Every join runs the Gebauer-Moeller
    update (J. Symb. Comp. 6, 1988).  Criterion B deletes each pending pair
    whose lcm the new leading term divides, unless the lcm of the new leading
    term with one element of the pair equals that lcm.  Of the new pairs,
    criteria M and F keep one per lcm and none whose lcm another new lcm
    properly divides; a pair with coprime leading terms is dropped, and so is
    every new pair whose lcm is a multiple of its lcm.  Elements whose leading
    term the new one divides form no more pairs and no longer reduce.  The
    pairs left are reduced smallest lcm first, ties in the order they arose.

    pair_cap bounds the pairs reduced; degree_cap, off unless given, bounds
    their lcm degree.  Hitting either raises BudgetExceeded with the counts of
    the work done so far: pairs popped (each is reduced unless a cap stops
    it), dropped as coprime, dropped by criteria B, M and F ("chain"),
    reduced, and the highest lcm degree reduced.
    """
    key = order.tuple_key
    heads = []  # monic (lt, tail) of every element that joined
    live = []  # indices of the heads that still form pairs and reduce
    reducers = []  # those heads
    queue = []  # (lcm key, j, i, lcm) per pending pair of heads i < j
    counts = dict.fromkeys(("popped", "coprime", "chain", "reduced", "max_degree"), 0)

    def join(d):
        h = _monic_head(d, order)
        lt, j = h[0], len(heads)
        # criterion B on the pending pairs
        kept = [
            p
            for p in queue
            if not all(map(le, lt, p[3]))
            or tuple(map(max, heads[p[1]][0], lt)) == p[3]
            or tuple(map(max, heads[p[2]][0], lt)) == p[3]
        ]
        if len(kept) < len(queue):
            counts["chain"] += len(queue) - len(kept)
            queue[:] = kept
            heapq.heapify(queue)
        # Criteria M and F on the new pairs, taken by ascending lcm, coprime
        # ones first among equal lcms: the lcm of a pair kept, or dropped as
        # coprime, rules out its multiples.
        lcms = []
        for k, shared, i, L in sorted(
            (key(L), any(map(mul, heads[i][0], lt)), i, L)
            for i, L in ((i, tuple(map(max, heads[i][0], lt))) for i in live)
        ):
            if not shared:
                counts["coprime"] += 1
            elif any(all(map(le, M, L)) for M in lcms):
                counts["chain"] += 1
                continue
            else:
                heapq.heappush(queue, (k, j, i, L))
            lcms.append(L)
        heads.append(h)
        live[:] = [i for i in live if not all(map(le, lt, heads[i][0]))] + [j]
        reducers[:] = [heads[i] for i in live]

    def over(cap):
        raise BudgetExceeded(
            f"{cap} after {counts['popped']} S-pairs popped and {counts['reduced']} "
            f"reduced, highest lcm degree reduced {counts['max_degree']}; "
            f"{counts['coprime']} pairs dropped as coprime, {counts['chain']} by "
            f"criteria B, M and F",
            counts,
        )

    inputs = [_dense(f, order) for f in gens if f]
    for d in sorted(inputs, key=lambda d: key(max(d, key=key))):
        r = _normal_form(d, reducers, order)
        if r:
            join(r)

    while queue:
        _, j, i, L = heapq.heappop(queue)
        counts["popped"] += 1
        degree = sum(L)
        if degree_cap is not None and degree > degree_cap:
            over(f"S-pair lcm degree {degree} exceeds cap {degree_cap}")
        if counts["reduced"] >= pair_cap:
            over(f"more than {pair_cap} S-pairs to reduce")
        r = _normal_form(_dense_s_polynomial(heads[i], heads[j], L), reducers, order)
        counts["reduced"] += 1
        counts["max_degree"] = max(counts["max_degree"], degree)
        if r:
            join(r)

    return [_sparse(d, order) for d in _interreduce(reducers, order)]


def _interreduce(heads: list, order: TermOrder) -> list:
    """Reduced basis, as dense monic polynomials sorted by leading term, from
    the monic heads of a Groebner basis none of whose leading terms divides
    another."""
    heads = sorted(heads, key=lambda h: order.tuple_key(h[0]))
    # A tail term lies below its own leading term, and a leading term that
    # divides it lies below it too, so only the heads before it can reduce it.
    return [
        {lt: 1, **_normal_form(dict(tail), heads[:k], order)}
        for k, (lt, tail) in enumerate(heads)
    ]


def initial_ideal(basis: Iterable[Polynomial], order: TermOrder) -> MonomialIdeal:
    """Ideal of leading terms of a (reduced) Groebner basis."""
    return MonomialIdeal(
        [g.leading_monomial(order) for g in basis if g], order.vars
    )
