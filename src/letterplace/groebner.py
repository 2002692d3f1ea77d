"""Exact polynomials, term orders, and Buchberger's algorithm.

Polynomial is the value type that goes in and out: sparse terms over the
shared Monomial type.  All arithmetic happens in the desk-scale engine below,
on exponent vectors packed into one int each, with exact coefficients
(integers while they are integers, Fraction otherwise).  The fields of a
packed int are sized from the inputs, each with a guard bit on top; a product
that sets a guard bit starts the computation over at twice the width, so no
exponent is ever cut off.  Budgets fail loudly via BudgetExceeded; results are
never truncated silently.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable

from .errors import BudgetExceeded
from .monomial import Monomial, MonomialIdeal, Var, _make


class TermOrder:
    """Total multiplicative monomial order over a fixed variable ranking.

    kind "lex": compare exponent vectors in ranking order.
    kind "grevlex": total degree first, ties by smallest exponent on the
    lowest-ranked variable winning.
    Every comparison is made on the packed ints of a _Codec, whose integer
    order is the term order.
    """

    __slots__ = ("kind", "vars")

    def __init__(self, kind: str, variables: Iterable[Var]):
        if kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variables in ranking")


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
        codec = _Codec.holding(order, [self])
        return codec.monomial(max(codec.pack(self)))

    def leading_coeff(self, order: TermOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: TermOrder) -> "Polynomial":
        lc = self.leading_coeff(order)
        return Polynomial({m: c / lc for m, c in self.terms.items()})

    def text(self, order: TermOrder = None, labels=None, letter: str = "y") -> str:
        if not self.terms:
            return "0"
        if order is None:
            terms = sorted(self.terms.items(), key=lambda t: t[0].sort_key(), reverse=True)
        else:
            codec = _Codec.holding(order, [self])
            terms = [(codec.monomial(e), c) for e, c in sorted(codec.pack(self).items(), reverse=True)]
        parts = []
        for m, c in terms:
            coeff = str(abs(c))  # "3" or "3/2"
            parts.append(("+" if c > 0 else "-") + (f"{coeff}*{m.text(labels, letter)}" if m else coeff))
        return "".join(parts)

    def __repr__(self):
        return self.text()


# -- packed exponents ----------------------------------------------------------
#
# Inside the engine a monomial is one int, and a polynomial is a dict from those
# ints to coefficients, kept as int while they are integers and as Fraction
# otherwise.  The int has one field of `width` bits per exponent, and the top
# bit of each field is a guard that stays clear.  Under lex the exponent of
# order.vars[i] sits in field n-1-i, the first variable in the top field, so
# integer order is the term order.  Under grevlex n key fields sit above those:
# deg, deg - x_n, deg - x_n - x_(n-1), ..., compared first; they are linear in
# the exponents and determine them, so integer order is grevlex.  Either way
# multiplying monomials adds their ints, and a sum that sets a guard bit has
# outgrown the width: it raises _Overflow, and the computation starts over at
# twice the width.  Dividing, e - lt, never borrows across fields.  The packed
# ints are the library's one term order: leading terms, initial ideals and the
# printed order of terms are all read off them.


class _Overflow(Exception):
    """A product set a guard bit: its fields are too narrow."""


class _Codec:
    """Monomials over order.vars packed into ints with fields of `width` bits."""

    __slots__ = ("order", "width", "guard", "unit", "_vars", "_shifts")

    def __init__(self, order: TermOrder, width: int):
        n, w = len(order.vars), width
        lex = order.kind == "lex"
        self.order, self.width = order, w
        self.guard = sum(1 << w * k + w - 1 for k in range(n if lex else 2 * n))
        # unit[v] is the packed variable v; under grevlex the i-th variable
        # also counts in the key fields j < n - i, deg - x_n - ... - x_(n-j+1)
        self.unit = {}
        for i, v in enumerate(order.vars):
            u = 1 << w * (n - 1 - i)
            if not lex:
                u += sum(1 << w * (2 * n - 1 - j) for j in range(n - i))
            self.unit[v] = u
        ranked = sorted((v, w * (n - 1 - i)) for i, v in enumerate(order.vars))
        self._vars = [v for v, _ in ranked]
        self._shifts = [s for _, s in ranked]

    @classmethod
    def holding(cls, order: TermOrder, polys) -> "_Codec":
        """The narrowest codec that holds the monomials of the Polynomials
        polys: its fields fit their largest exponent (lex) or degree
        (grevlex), plus the guard bit."""
        if order.kind == "lex":
            top = max((k for f in polys for m in f.terms for _, k in m.exps), default=0)
        else:
            top = max((m.degree() for f in polys for m in f.terms), default=0)
        return cls(order, top.bit_length() + 1)

    def exponents(self, e: int) -> list:
        """The exponent fields of e, in Var order."""
        mask = (1 << self.width - 1) - 1
        return [e >> s & mask for s in self._shifts]

    def degree(self, e: int) -> int:
        return sum(self.exponents(e))

    def repack(self, e: int, old: "_Codec") -> int:
        """e, packed by old, packed by this codec."""
        unit = self.unit
        return sum(k * unit[v] for v, k in zip(old._vars, old.exponents(e)))

    def lcm(self, a: int, b: int) -> int:
        G = self.guard
        ge = ((a | G) - b) & G  # the guard bit of each field where a >= b
        m = b ^ ((a ^ b) & (ge - (ge >> self.width - 1)))
        if self.order.kind == "lex":
            return m
        m = self.repack(m, self)  # the key fields of the lcm, from its exponents
        if m & G:
            raise _Overflow
        return m

    def terms(self, monomials) -> list:
        """Each monomial packed, or None where it has a variable the codec does
        not rank or an exponent (lex) or degree (grevlex) its fields cannot hold."""
        unit, top, lex = self.unit, 1 << self.width - 1, self.order.kind == "lex"
        out = []
        for m in monomials:
            e = 0
            for v, k in m.exps:
                u = unit.get(v)
                if u is None or k >= top:
                    e = None
                    break
                e += k * u
            out.append(e if lex or m.degree() < top else None)
        return out

    def pack(self, f: Polynomial) -> dict:
        """f's terms, which fit the fields of a codec from holding."""
        packed = self.terms(f.terms)
        if None in packed:
            # holding fits every exponent, so a variable is left unranked
            v = next(v for m in f.terms for v, _ in m.exps if v not in self.unit)
            raise ValueError(f"variable {v} not ranked by this order")
        return {e: c.numerator if c.denominator == 1 else c for e, c in zip(packed, f.terms.values())}

    def monomial(self, e: int) -> Monomial:
        exps = self.exponents(e)
        return _make(tuple([(v, k) for v, k in zip(self._vars, exps) if k]), sum(exps))

    def polynomial(self, d: dict) -> Polynomial:
        return Polynomial({self.monomial(e): c for e, c in d.items()})


def _exactly(run, inputs: list, codec: _Codec, *args):
    """run(inputs, codec, *args) on packed dicts it must not consume, started
    over at twice the width while a product overflows; returns its result and
    the codec of that result."""
    while True:
        try:
            return run(inputs, codec, *args), codec
        except _Overflow:
            wider = _Codec(codec.order, 2 * codec.width)
            inputs = [{wider.repack(e, codec): c for e, c in d.items()} for d in inputs]
            codec = wider


# -- division and Buchberger ---------------------------------------------------
#
# A divisor is held monic as (lt, tail), computed once: its packed leading term
# and its other (term, coefficient) pairs divided by the leading coefficient.
# With G the guard mask, lt divides e exactly when ((e | G) - lt) & G == G: the
# subtraction borrows a field's guard bit only where lt exceeds e.


def _monic_head(d: dict) -> tuple:
    lt = max(d)
    lc = d[lt]
    # a unit is its own inverse, so integer coefficients stay integers
    inv = lc if lc == 1 or lc == -1 else 1 / Fraction(lc)
    return lt, [(e, c * inv) for e, c in d.items() if e != lt]


def _normal_form(work: dict, heads: list, guard: int) -> dict:
    """Full normal form of the packed polynomial work (consumed) modulo the
    monic heads.

    Terms are taken largest first from a heap of negated packed terms; each is
    reduced by the first head in the listed order whose leading term divides
    it, or kept.  A reduction only pushes terms below the one it removes, so
    the terms come off the heap in descending order, and a leading term above
    the current term can divide no later one: before each term, the heads at
    the front of the list whose leading terms exceed it are dropped for the
    rest of the call.  On heads listed by descending leading term, each term
    meets first the divisor with the largest leading term.
    """
    heap = [-e for e in work]
    heapify(heap)
    rest = heads[::-1]  # the heads not dropped yet, reversed: the first to test is last
    remainder = {}
    while heap:
        e = -heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue  # cancelled, or a second heap entry for the same term
        while rest and rest[-1][0] > e:
            rest.pop()
        eg = e | guard
        for lt, tail in reversed(rest):
            if (eg - lt) & guard == guard:
                q = e - lt
                for te, tc in tail:
                    t = te + q
                    if t & guard:
                        raise _Overflow
                    old = work.get(t)
                    if old is None:
                        work[t] = -c * tc
                        heappush(heap, -t)
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


def _reduce(inputs: list, codec: _Codec) -> dict:
    """Normal form of inputs[0] modulo the rest, in the listed order."""
    heads = [_monic_head(d) for d in inputs[1:]]
    return _normal_form(dict(inputs[0]), heads, codec.guard)


def reduce(f: Polynomial, basis: Iterable[Polynomial], order: TermOrder) -> Polynomial:
    """Full normal form of f modulo basis, deterministic in the listed order."""
    polys = [f, *(g for g in basis if g)]
    codec = _Codec.holding(order, polys)
    r, codec = _exactly(_reduce, [codec.pack(g) for g in polys], codec)
    return codec.polynomial(r)


def _s_polynomial(hi: tuple, hj: tuple, L: int, guard: int) -> dict:
    """S-polynomial of two monic heads whose leading terms have lcm L."""
    qi, qj = L - hi[0], L - hj[0]
    s = {}
    for e, c in hi[1]:
        t = e + qi
        if t & guard:
            raise _Overflow
        s[t] = c
    for e, c in hj[1]:
        t = e + qj
        if t & guard:
            raise _Overflow
        c = s.get(t, 0) - c
        if c:
            s[t] = c
        else:
            del s[t]
    return s


def buchberger(gens: Iterable[Polynomial], order: TermOrder, pair_cap: int = 200_000) -> list:
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

    The elements that reduce are kept by descending leading term, so each
    term is reduced by the divisor with the largest leading term.  At the end
    only the tails of elements after which one with a smaller leading term
    joined are reduced again: the others are in normal form already.

    pair_cap, the one budget, bounds the pairs reduced.  A negative cap
    raises ValueError; 0 is a valid cap.  Hitting it raises BudgetExceeded
    with the counts of the work done so far: pairs popped (each is reduced
    unless the cap stops it), dropped as coprime, dropped by criteria B, M
    and F ("chain"), reduced, and the highest lcm degree reduced.  The counts are those of the run that
    raised; a run started over at a wider field width counts afresh.  They
    may depend on which divisor reduces a term, since a normal form modulo
    elements that are not yet a Groebner basis does; the basis does not.
    """
    _check_cap(pair_cap)
    gens = [f for f in gens if f]
    codec = _Codec.holding(order, gens)
    basis, codec = _exactly(_basis, [codec.pack(f) for f in gens], codec, pair_cap)
    return [codec.polynomial(d) for d in basis]


def _check_cap(pair_cap) -> None:
    """Reject a negative cap; a cap of 0 is a budget that allows no work."""
    if pair_cap < 0:
        raise ValueError(f"pair_cap must be >= 0, got {pair_cap}")


def _basis(inputs: list, codec: _Codec, pair_cap: int) -> list:
    """buchberger on nonzero packed inputs, as monic dicts sorted by leading
    term, each with its leading term as first key."""
    G = codec.guard
    lcm = codec.lcm
    heads = []  # monic (lt, tail) of every element that joined
    live = []  # indices of the heads that still form pairs and reduce
    reducers = []  # those heads, by descending leading term
    queue = []  # (lcm, j, i) per pending pair of heads i < j
    counts = dict.fromkeys(("popped", "coprime", "chain", "reduced", "max_degree"), 0)

    def join(d):
        h = _monic_head(d)
        lt, j = h[0], len(heads)
        # criterion B on the pending pairs
        kept = [
            p
            for p in queue
            if ((p[0] | G) - lt) & G != G
            or lcm(heads[p[1]][0], lt) == p[0]
            or lcm(heads[p[2]][0], lt) == p[0]
        ]
        if len(kept) < len(queue):
            counts["chain"] += len(queue) - len(kept)
            queue[:] = kept
            heapify(queue)
        # Criteria M and F on the new pairs, taken by ascending lcm, coprime
        # ones (lcm equal to the product) first among equal lcms: the lcm of a
        # pair kept, or dropped as coprime, rules out its multiples.
        lcms = []
        for L, shared, i in sorted(
            (L, L != heads[i][0] + lt, i) for i, L in ((i, lcm(heads[i][0], lt)) for i in live)
        ):
            if not shared:
                counts["coprime"] += 1
            elif any(((L | G) - M) & G == G for M in lcms):
                counts["chain"] += 1
                continue
            else:
                heappush(queue, (L, j, i))
            lcms.append(L)
        heads.append(h)
        kept = [i for i in live if ((heads[i][0] | G) - lt) & G != G]
        if len(kept) < len(live):
            reducers[:] = [r for r in reducers if ((r[0] | G) - lt) & G != G]
        live[:] = kept + [j]
        insort(reducers, h, key=_descending)

    for d in sorted(inputs, key=max):
        r = _normal_form(dict(d), reducers, G)
        if r:
            join(r)

    while queue:
        L, j, i = heappop(queue)
        counts["popped"] += 1
        if counts["reduced"] >= pair_cap:
            raise BudgetExceeded(
                f"more than {pair_cap} S-pairs to reduce after {counts['popped']} S-pairs popped "
                f"and {counts['reduced']} reduced, highest lcm degree reduced "
                f"{counts['max_degree']}; {counts['coprime']} pairs dropped as coprime, "
                f"{counts['chain']} by criteria B, M and F",
                counts,
            )
        r = _normal_form(_s_polynomial(heads[i], heads[j], L, G), reducers, G)
        counts["reduced"] += 1
        counts["max_degree"] = max(counts["max_degree"], codec.degree(L))
        if r:
            join(r)

    return _interreduce([heads[i] for i in live], G)


def _descending(head: tuple) -> int:
    return -head[0]


def _interreduce(heads: list, guard: int) -> list:
    """Reduced basis, as monic packed dicts sorted by leading term, each with
    its leading term as first key, from the monic heads of a Groebner basis
    none of whose leading terms divides another, listed in the order they
    joined.

    A head joins with its tail in normal form modulo the heads live then, and
    a later head can reduce a tail term only if its leading term divides that
    term, so lies below the head's own leading term.  So only the tails of
    heads after which a head with a smaller leading term joined are reduced
    again; the reduced basis is unique, so the others are final already.
    """
    stale = set()
    low = None  # the smallest leading term of the heads that joined later
    for lt, _ in reversed(heads):
        if low is not None and lt > low:
            stale.add(lt)
        else:
            low = lt
    reducers = sorted(heads, key=_descending)
    return [
        {lt: 1, **(_normal_form(dict(tail), reducers, guard) if lt in stale else dict(tail))}
        for lt, tail in reversed(reducers)
    ]


def initial_ideal(basis: Iterable[Polynomial], order: TermOrder) -> MonomialIdeal:
    """Ideal of leading terms of a (reduced) Groebner basis."""
    basis = [g for g in basis if g]
    codec = _Codec.holding(order, basis)
    return MonomialIdeal([codec.monomial(max(codec.pack(g))) for g in basis], order.vars)
