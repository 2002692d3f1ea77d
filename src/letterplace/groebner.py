"""Exact multivariate polynomials, term orders, and Buchberger's algorithm.

Desk-scale engine: coefficients are arbitrary-precision rationals, monomials
are the shared sparse Monomial type, and the basis computation works on dense
exponent tuples over the order's variable ranking.  Budgets fail loudly via
BudgetExceeded; results are never truncated silently.
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
    """Terms mapping Monomial -> nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for m, c in items:
            c = Fraction(c)
            if c:
                acc[m] = acc.get(m, Fraction(0)) + c
        self.terms = {m: c for m, c in acc.items() if c}

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def from_monomial(cls, m: Monomial, c=1) -> "Polynomial":
        return cls([(m, Fraction(c))])

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0].sort_key())))

    def __add__(self, other):
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return Polynomial(acc)

    def __sub__(self, other):
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, Fraction(0)) - c
        return Polynomial(acc)

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            acc = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = m1 * m2
                    acc[m] = acc.get(m, Fraction(0)) + c1 * c2
            return Polynomial(acc)
        return Polynomial({m: c * Fraction(other) for m, c in self.terms.items()})

    __rmul__ = __mul__

    def leading_monomial(self, order: TermOrder) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: TermOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: TermOrder) -> "Polynomial":
        lc = self.leading_coeff(order)
        return Polynomial({m: c / lc for m, c in self.terms.items()})

    def total_degree(self) -> int:
        return max((m.degree() for m in self.terms), default=0)

    def text(self, order: TermOrder = None, labels=None, letter: str = "y") -> str:
        if not self.terms:
            return "0"
        if order is not None:
            monos = sorted(self.terms, key=order.key, reverse=True)
        else:
            monos = sorted(self.terms, key=Monomial.sort_key, reverse=True)
        parts = []
        for m in monos:
            c = self.terms[m]
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            coeff = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            body = coeff if not m else f"{coeff}*{m.text(labels, letter)}"
            parts.append(sign + body)
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
        return Polynomial.zero()
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
# tuples over order.vars to Fraction coefficients.  A divisor is held as
# (lt, lc, tail), computed once: its leading exponent tuple, leading
# coefficient and remaining (exponents, coefficient) pairs.


def _dense(f: Polynomial, order: TermOrder) -> dict:
    return {order.exponents(m): c for m, c in f.terms.items()}


def _sparse(d: dict, order: TermOrder) -> Polynomial:
    return Polynomial({order.monomial(e): c for e, c in d.items()})


def _head(d: dict, order: TermOrder) -> tuple:
    lt = max(d, key=order.tuple_key)
    return lt, d[lt], [(e, c) for e, c in d.items() if e != lt]


def _monic_head(d: dict, order: TermOrder) -> tuple:
    lt, lc, tail = _head(d, order)
    return lt, 1, [(e, c / lc) for e, c in tail]


def _normal_form(work: dict, heads: list, order: TermOrder) -> dict:
    """Full normal form of the dense polynomial work (consumed) modulo heads.

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
        for lt, lc, tail in heads:
            if all(map(le, lt, e)):
                q = tuple(map(sub, e, lt))
                mult = c / lc
                for te, tc in tail:
                    t = tuple(map(add, te, q))
                    old = work.get(t)
                    if old is None:
                        work[t] = -mult * tc
                        heapq.heappush(heap, (key(t), t))
                    else:
                        old -= mult * tc
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
    heads = [_head(_dense(g, order), order) for g in basis if g]
    return _sparse(_normal_form(_dense(f, order), heads, order), order)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    hf, hg = _monic_head(_dense(f, order), order), _monic_head(_dense(g, order), order)
    L = tuple(map(max, hf[0], hg[0]))
    return _sparse(_dense_s_polynomial(hf, hg, L), order)


def _dense_s_polynomial(hi: tuple, hj: tuple, L: tuple) -> dict:
    """S-polynomial of two monic heads whose leading exponents have lcm L."""
    qi, qj = tuple(map(sub, L, hi[0])), tuple(map(sub, L, hj[0]))
    s = {tuple(map(add, e, qi)): c for e, c in hi[2]}
    for e, c in hj[2]:
        t = tuple(map(add, e, qj))
        c = s.get(t, 0) - c
        if c:
            s[t] = c
        else:
            del s[t]
    return s


def default_degree_cap(gens: Iterable[Polynomial]) -> int:
    """The degree cap of buchberger when none is given: 3 plus the largest
    generator degree."""
    return 3 + max((f.total_degree() for f in gens), default=0)


def buchberger(
    gens: Iterable[Polynomial],
    order: TermOrder,
    degree_cap: int = None,
    pair_cap: int = 200_000,
) -> list:
    """Reduced Groebner basis: auto-reduced, monic, sorted by leading term.

    Normal selection strategy (smallest lcm first, ties in the order the pairs
    arose).  A popped pair is skipped when its leading terms are coprime, or by
    Buchberger's chain criterion: some other leading term divides the lcm and
    the pairs it forms with both are no longer pending.  pair_cap bounds the
    pairs popped; degree_cap (default 3 plus the largest generator degree)
    bounds the lcm degree of the pairs left to reduce.  Hitting either raises
    BudgetExceeded with the counts of the work done so far.
    """
    gens = [f for f in gens if f]
    if not gens:
        return []
    if degree_cap is None:
        degree_cap = default_degree_cap(gens)
    polys = [_dense(f, order) for f in gens]

    heads = []  # monic (lt, 1, tail) per basis element
    queue = []  # (lcm key, j, i, lcm): pairs i < j, in the order they arose
    pending = set()

    def join(d):
        head = _monic_head(d, order)
        j = len(heads)
        for i, (lti, _, _) in enumerate(heads):
            L = tuple(map(max, lti, head[0]))
            heapq.heappush(queue, (order.tuple_key(L), j, i, L))
            pending.add((i, j))
        heads.append(head)

    for d in polys:
        join(d)

    counts = dict.fromkeys(("popped", "coprime", "chain", "reduced", "max_degree"), 0)

    def over(cap):
        raise BudgetExceeded(
            f"{cap} after {counts['popped']} S-pairs popped: {counts['coprime']} skipped "
            f"as coprime, {counts['chain']} by the chain criterion, {counts['reduced']} "
            f"reduced, highest lcm degree reduced {counts['max_degree']}",
            counts,
        )

    while queue:
        _, j, i, L = heapq.heappop(queue)
        pending.discard((i, j))
        counts["popped"] += 1
        if counts["popped"] > pair_cap:
            over(f"more than {pair_cap} S-pairs processed")
        if not any(map(mul, heads[i][0], heads[j][0])):
            counts["coprime"] += 1
            continue
        if any(
            k != i
            and k != j
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            and all(map(le, heads[k][0], L))
            for k in range(len(heads))
        ):
            counts["chain"] += 1
            continue
        degree = sum(L)
        if degree > degree_cap:
            over(f"S-pair lcm degree {degree} exceeds cap {degree_cap}")
        r = _normal_form(_dense_s_polynomial(heads[i], heads[j], L), heads, order)
        counts["reduced"] += 1
        counts["max_degree"] = max(counts["max_degree"], degree)
        if r:
            join(r)

    return [_sparse(d, order) for d in _interreduce(heads, order)]


def _interreduce(heads: list, order: TermOrder) -> list:
    """Reduced basis, as dense monic polynomials sorted by leading term, from
    the monic heads of a Groebner basis."""
    minimal = []
    for h in sorted(heads, key=lambda h: order.tuple_key(h[0])):
        if not any(all(map(le, g[0], h[0])) for g in minimal):
            minimal.append(h)
    # A tail term lies below its own leading term, so of all the heads only
    # the others can reduce it.
    return [
        {lt: 1, **_normal_form(dict(tail), minimal, order)} for lt, _, tail in minimal
    ]


def initial_ideal(basis: Iterable[Polynomial], order: TermOrder) -> MonomialIdeal:
    """Ideal of leading terms of a (reduced) Groebner basis."""
    return MonomialIdeal(
        [g.leading_monomial(order) for g in basis if g], order.vars
    )
