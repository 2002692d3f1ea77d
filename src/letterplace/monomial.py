"""Exact monomial-ideal algebra over tagged variable indices.

Variables are tagged indices: ("pair", p, i) for doubly indexed families,
("elem", p) for poset-element variables, ("nat", i) for naturally indexed
ones.  Tuple comparison of Var gives the canonical deterministic ordering
("elem" < "nat" < "pair", then indices).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Iterable, NamedTuple

from .errors import NotSquarefree


class Var(NamedTuple):
    kind: str
    a: int
    b: int = 0


def pair_var(p: int, i: int) -> Var:
    return Var("pair", p, i)


def elem_var(p: int) -> Var:
    return Var("elem", p)


def nat_var(i: int) -> Var:
    return Var("nat", i)


def var_text(v: Var, labels=None, letter: str = "x") -> str:
    def name(p):
        return labels[p] if labels is not None else str(p)

    if v.kind == "pair":
        return f"{letter}[{name(v.a)},{v.b}]"
    if v.kind == "elem":
        return f"{letter}[{name(v.a)}]"
    return f"{letter}[{v.a}]"


def _mask_vars(mask: int, table: list):
    """The entries of table at the bits set in mask, lowest bit first."""
    while mask:
        low = mask & -mask
        yield table[low.bit_length() - 1]
        mask ^= low


class Monomial:
    """Sparse exponent vector; immutable and hashable.  Empty product is 1.

    Besides the sorted exponent table it carries its degree.
    """

    __slots__ = ("exps", "_deg")

    def __init__(self, exps: Iterable = ()):
        acc = {}
        for v, e in exps:
            if e < 0:
                raise ValueError(f"negative exponent {e} for {v}")
            if e:
                acc[v] = acc.get(v, 0) + e
        self.exps = tuple(sorted(acc.items()))
        self._deg = sum(acc.values())

    @staticmethod
    def _make(exps: tuple, deg: int) -> "Monomial":
        """The monomial with these parts, taken as they are: `exps` sorted
        with positive exponents, `deg` their sum.  Only for tables taken
        from existing monomials or built over sorted variables;
        Monomial(...) checks its input."""
        m = _new_monomial(Monomial)
        m.exps = exps
        m._deg = deg
        return m

    @classmethod
    def one(cls) -> "Monomial":
        return cls()

    @classmethod
    def variable(cls, v: Var, e: int = 1) -> "Monomial":
        return cls([(v, e)])

    def __hash__(self):
        return hash(self.exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        """Canonical listing order: degree first, then exponent table."""
        return (self.degree(), self.exps)

    def __bool__(self):
        return bool(self.exps)

    def degree(self) -> int:
        return self._deg

    def support(self) -> frozenset:
        return frozenset(v for v, _ in self.exps)

    def is_squarefree(self) -> bool:
        return self._deg == len(self.exps)

    def divides(self, other: "Monomial") -> bool:
        if self._deg > other._deg:
            return False
        # walk both sorted tables; a variable of self passed over is missing
        theirs = iter(other.exps)
        for v, e in self.exps:
            for w, f in theirs:
                if w == v:
                    if f < e:
                        return False
                    break
                if w > v:
                    return False
            else:
                return False
        return True

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if not a:
            return other
        if not b:
            return self
        acc = dict(a)
        for v, e in b:
            acc[v] = acc.get(v, 0) + e
        return _make(tuple(sorted(acc.items())), self._deg + other._deg)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact division; raises if other does not divide self."""
        if other._deg > self._deg:
            raise ValueError(f"{other} does not divide {self}")
        acc = dict(self.exps)
        for v, e in other.exps:
            left = acc.get(v, 0) - e
            if left < 0:
                raise ValueError(f"{other} does not divide {self}")
            if left:
                acc[v] = left
            else:
                del acc[v]
        return _make(tuple(acc.items()), self._deg - other._deg)

    def gcd(self, other: "Monomial") -> "Monomial":
        theirs = dict(other.exps)
        exps = []
        deg = 0
        for v, e in self.exps:
            f = theirs.get(v)
            if f:
                if f < e:
                    e = f
                exps.append((v, e))
                deg += e
        return _make(tuple(exps), deg)

    def lcm(self, other: "Monomial") -> "Monomial":
        acc = dict(self.exps)
        for v, e in other.exps:
            if acc.get(v, 0) < e:
                acc[v] = e
        return _make(tuple(sorted(acc.items())), sum(acc.values()))

    def colon(self, other: "Monomial") -> "Monomial":
        """self : other, i.e. self / gcd(self, other)."""
        theirs = dict(other.exps)
        exps = []
        deg = 0
        for v, e in self.exps:
            e -= theirs.get(v, 0)
            if e > 0:
                exps.append((v, e))
                deg += e
        return _make(tuple(exps), deg)

    def text(self, labels=None, letter: str = "x") -> str:
        return _text(self.exps, {}, labels, letter)

    def __repr__(self):
        return self.text()


def _text(exps: tuple, names: dict, labels, letter: str) -> str:
    """The text of the monomial with exponent table `exps`; `names` caches
    var_text by variable and may be shared between calls with the same
    labels and letter."""
    if not exps:
        return "1"
    parts = []
    for v, e in exps:
        t = names.get(v)
        if t is None:
            t = names[v] = var_text(v, labels, letter)
        parts.append(t if e == 1 else f"{t}^{e}")
    return "*".join(parts)


_new_monomial = object.__new__
_make = Monomial._make


def _pair_ideal(rows) -> "MonomialIdeal":
    """The ideal of the monomials prod x[p, i] over rows of ascending (p, i)
    pairs, listed in sort_key order with none inside another (not checked).
    The item (x[p, i], 1) is made the first time a row holds (p, i): rows
    share it, and no item outlives the ideal."""
    items = {}
    gens = []
    for row in rows:
        exps = []
        for pair in row:
            item = items.get(pair)
            if item is None:
                item = items[pair] = (pair_var(*pair), 1)
            exps.append(item)
        gens.append(_make(tuple(exps), len(exps)))
    return MonomialIdeal._of_canonical(gens)


_VAR_RE = re.compile(r"([A-Za-z]+)\[(\d+)(?:,(\d+))?\](?:\^(\d+))?")


def parse_monomial(text: str, family: str = "pair") -> Monomial:
    """Parse the text form produced by Monomial.text for variables of one
    family: x[p,i] for "pair", x[p] for "elem" and "nat", with integer
    indices.  A factor of another letter or index count raises ValueError.
    """
    text = text.strip()
    if text == "1":
        return Monomial.one()
    make = {"pair": pair_var, "elem": elem_var, "nat": nat_var}[family]
    exps = []
    for piece in text.split("*"):
        m = _VAR_RE.fullmatch(piece.strip())
        if not m:
            raise ValueError(f"bad monomial factor {piece!r}")
        letter, p_tok, i_tok, e_tok = m.groups()
        if letter != "x" or (i_tok is None) == (family == "pair"):
            shape = "x[p,i]" if family == "pair" else "x[p]"
            raise ValueError(f"factor {piece.strip()!r} is not a variable {shape} of family {family}")
        indices = (int(p_tok),) if i_tok is None else (int(p_tok), int(i_tok))
        exps.append((make(*indices), int(e_tok) if e_tok else 1))
    return Monomial(exps)


class MonomialIdeal:
    """Finitely generated monomial ideal with a fixed variable universe.

    Generators are stored divisibility-minimal (minimalized on their level
    polarization, see _minimal_masks) and canonically sorted.  The unit
    ideal normalizes to the single generator 1; the zero ideal has no
    generators.
    """

    __slots__ = ("gens", "universe")

    def __init__(self, gens: Iterable[Monomial] = (), universe: Iterable[Var] = None):
        gens = list(gens)
        masks, _ = _polarize([g.exps for g in gens])
        of = dict(zip(masks, gens))  # equal masks are equal monomials
        self._set(sorted([of[m] for m in _minimal_masks(masks)], key=Monomial.sort_key), universe)

    @classmethod
    def _of_canonical(cls, gens: list, universe: Iterable[Var] = None) -> "MonomialIdeal":
        """MonomialIdeal(gens, universe) for distinct gens in sort_key order,
        none of which divides another (not checked): only sets the universe."""
        return object.__new__(cls)._set(gens, universe)

    def _set(self, gens: list, universe) -> "MonomialIdeal":
        used = {v for g in gens for v, _ in g.exps}
        if universe is None:
            universe = used
        else:
            universe = set(universe)
            if not used <= universe:
                raise ValueError("universe does not cover generator variables")
        self.gens = tuple(gens)
        self.universe = tuple(sorted(universe))
        return self

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and not self.gens[0]

    def contains(self, m: Monomial) -> bool:
        for g in self.gens:
            if g.divides(m):
                return True
        return False

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def max_degree(self) -> int:
        return max((g.degree() for g in self.gens), default=0)

    def with_universe(self, universe: Iterable[Var]) -> "MonomialIdeal":
        return MonomialIdeal._of_canonical(self.gens, universe)  # gens are canonical already

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.gens == other.gens
            and self.universe == other.universe
        )

    def __hash__(self):
        return hash((self.gens, self.universe))

    def __repr__(self):
        if self.is_zero:
            return "MonomialIdeal(0)"
        return f"MonomialIdeal({', '.join(map(str, self.gens))})"

    def text_lines(self, labels=None, letter: str = "x") -> list:
        names = {}  # each variable is rendered once
        return [_text(g.exps, names, labels, letter) for g in self.gens]


def minimalize(gens: Iterable[Monomial], universe=None) -> MonomialIdeal:
    """Divisibility-minimal generating set, canonically sorted."""
    return MonomialIdeal(gens, universe)


# -- Alexander duality -------------------------------------------------------


def alexander_dual(ideal: MonomialIdeal, universe=None) -> MonomialIdeal:
    """Squarefree dual: minimal monomials meeting the support of every generator.

    Computed as the minimal transversals of the generator-support hypergraph
    (MMCS, see _transversals).  Involution over a fixed universe: the dual of
    the zero ideal is the unit ideal and vice versa.

    The transversals run on local bits: bit j stands for the j-th largest
    variable of the ideal's universe.  Of two squarefree monomials of one
    degree, the first in sort_key order holds the smaller variable where they
    differ, that is the higher bit, so it has the larger mask: sort_key order
    is popcount, then descending mask.  A monomial reads its variables in Var
    order from its highest bit down.
    """
    if not ideal.is_squarefree():
        raise NotSquarefree("alexander_dual requires squarefree generators")
    universe = tuple(sorted(universe)) if universe is not None else ideal.universe
    own = ideal.universe[::-1]
    table = [(v, 1) for v in own]
    transversals = _transversals(_supports(ideal, own))
    transversals.sort(reverse=True)
    transversals.sort(key=int.bit_count)
    gens = []
    for t in transversals:
        exps = []
        while t:
            j = t.bit_length() - 1
            exps.append(table[j])
            t ^= 1 << j
        gens.append(_make(tuple(exps), len(exps)))
    return MonomialIdeal._of_canonical(gens, universe)  # minimal transversals, see _transversals


def _supports(ideal: MonomialIdeal, order) -> list:
    """The support mask of each generator, with bit j for order[j]."""
    local = {v: 1 << j for j, v in enumerate(order)}
    return [sum([local[v] for v, _ in g.exps]) for g in ideal.gens]


def _transversals(supports) -> list:
    """The minimal masks meeting every mask in `supports`: [0] for no
    supports, [] if one support is 0 (the unit ideal).  Each minimal
    transversal comes once, in no particular order.

    MMCS (Murakami and Uno, Discrete Appl. Math. 170, 2014) on an explicit
    stack.  The edges are the distinct supports, numbered by size and then
    descending mask (this order branches far less on the letterplace duals
    than hash order), and holders[v] holds the numbers of the edges with
    vertex bit v.  A frame (chosen, once, uncov, cand) carries the edges that
    `chosen` meets exactly once and those it misses.  A vertex joins
    `chosen` only if every vertex of `chosen` keeps an edge that it alone
    meets, so `chosen` is a minimal transversal of the edges it meets, and
    of all edges once it misses none.  A frame branches on the first edge it
    misses, over that edge's vertices in `cand`, and each branch puts the
    vertices before it back into `cand`: a transversal is reached in the
    branch of its last vertex on that edge, and only there.
    """
    edges = sorted(sorted(set(supports), reverse=True), key=int.bit_count)
    if not edges:
        return [0]
    if not edges[0]:
        return []
    holders = {}
    every = 0
    for j, edge in enumerate(edges):
        every |= edge
        number = 1 << j
        while edge:
            v = edge & -edge
            edge ^= v
            holders[v] = holders.get(v, 0) | number
    out = []
    stack = [(0, 0, (1 << len(edges)) - 1, every)]
    pop, push = stack.pop, stack.append
    while stack:
        chosen, once, uncov, cand = pop()
        if not uncov:
            out.append(chosen)
            continue
        branch = edges[(uncov & -uncov).bit_length() - 1] & cand
        cand ^= branch
        while branch:
            v = branch & -branch
            branch ^= v
            mine = holders[v]
            lost = mine & once  # edges that v takes from their one vertex in chosen
            keep = once ^ lost
            rest = chosen if lost else 0
            while rest:  # does every vertex of chosen keep an edge to itself?
                u = rest & -rest
                rest ^= u
                if not holders[u] & keep:
                    break
            else:
                push((chosen | v, keep | mine & uncov, uncov & ~mine, cand))
            cand |= v
    return out


# -- univariate integer polynomials (Hilbert numerators) ----------------------


class IntPoly:
    """Polynomial in one variable t with exact integer coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for d, a in items:
            if a:
                c[d] = c.get(d, 0) + a
        self.c = {d: a for d, a in c.items() if a}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __add__(self, other):
        c = dict(self.c)
        for d, a in other.c.items():
            c[d] = c.get(d, 0) + a
        return IntPoly(c)

    def __sub__(self, other):
        c = dict(self.c)
        for d, a in other.c.items():
            c[d] = c.get(d, 0) - a
        return IntPoly(c)

    def __mul__(self, other):
        c = {}
        for d1, a1 in self.c.items():
            for d2, a2 in other.c.items():
                c[d1 + d2] = c.get(d1 + d2, 0) + a1 * a2
        return IntPoly(c)

    def __pow__(self, k: int):
        out = IntPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.c == other.c

    def __hash__(self):
        return hash(tuple(sorted(self.c.items())))

    def __bool__(self):
        return bool(self.c)

    def coeffs(self) -> dict:
        return dict(self.c)

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for d in sorted(self.c):
            a = self.c[d]
            term = str(a) if d == 0 else (f"{a}*t" if d == 1 else f"{a}*t^{d}")
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


def hilbert_numerator(ideal: MonomialIdeal) -> IntPoly:
    """Numerator K(t) with Hilb(ring/ideal) = K(t)/(1-t)^v over v variables.

    K depends only on the generators, not on the ambient variable count.  It
    is fixed by the lcm lattice of the generators and the degrees of its
    elements, so the recursion runs on the squarefree masks of the level
    polarization, where a bit weighs the gap between its exponent level and
    the level below it.  Pivot-splitting on the most frequent bit x of
    weight w, ties to the lowest bit:
    K(I) = K(I + (x)) + t^w * K(I : x), with K(I + (x)) = (1-t^w) * K(drop x-gens).
    """
    masks, levels = _polarize([g.exps for g in ideal.gens])
    return _numerator(tuple(sorted(masks)), levels)


def _polarize(tables) -> tuple:
    """(masks, levels): the level polarization of `tables`, a collection of
    exponent tables, each of (key, exponent) pairs with distinct keys and
    positive exponents, as Monomial.exps.  Each key gets one bit per distinct
    exponent among the tables, in key order and then ascending exponent, and
    levels[b] is the (key, exponent) of bit b; a table's mask holds the bits
    of each of its keys up to its own exponent.  masks lists those masks in
    table order.  The mask of an lcm is the OR of the masks, so polarizing
    keeps and reflects divisibility, equal masks are equal tables and minimal
    tables give an antichain."""
    levels = sorted(set().union(*tables))
    upto, mask, last = {}, 0, None  # (key, e) -> the bits of key up to e
    for b, level in enumerate(levels):
        mask = (mask if level[0] == last else 0) | 1 << b
        upto[level] = mask
        last = level[0]
    bits = upto.__getitem__
    return [sum(map(bits, t)) for t in tables], levels


def _minimal_masks(masks) -> list:
    """The distinct masks of `masks` that hold no other of them, by
    ascending popcount.  On a level polarization (see _polarize) these are
    the masks of the minimal tables: a proper divisor is a proper submask,
    of smaller popcount, so each mask is tested only against the kept masks
    of smaller popcount."""
    kept, below, grade = [], [], -1  # below: the kept masks of smaller popcount
    for m in sorted(set(masks), key=int.bit_count):
        if m.bit_count() != grade:
            grade, below = m.bit_count(), kept[:]
        outside = ~m
        if all(k & outside for k in below):
            kept.append(m)
    return kept


def _numerator(masks: tuple, levels: list) -> IntPoly:
    """K of a level polarization (see _polarize) whose masks are sorted,
    distinct and none inside another: bit b weighs the gap between the
    exponent of levels[b] and the level below it in its key."""
    weights = {}  # the bits of weight > 1
    for b, (v, e) in enumerate(levels):
        if b and levels[b - 1][0] == v:
            e -= levels[b - 1][1]
        if e > 1:
            weights[1 << b] = e
    return IntPoly(_hilbert_masks(masks, weights))


def _hilbert_masks(masks: tuple, weights: dict) -> dict:
    """K of the squarefree ideal on `masks`, sorted distinct masks none a
    subset of another, with the bits in `weights` of that weight and all
    other bits of weight 1, as {degree: coefficient}; may hold zero
    coefficients.

    The pivot recursion runs on an explicit stack, so its depth is not
    bounded by Python's.  A frame (masks, planes, None, 0) asks for K of
    masks, whose bit counts are `planes` (see _bit_planes); unless it is in
    the memo, masks is split once and leaves the frame (masks, plus, colon, w)
    below the frames of its two parts, so that both are in the memo when it
    combines them.  A split hands each part its planes, so no node is
    counted afresh.
    """
    memo = {}
    heavy = sum(weights)  # the bits of weight > 1
    stack = [(masks, _bit_planes(masks), None, 0)]
    while stack:
        node, planes, colon, w = stack.pop()
        if colon is not None:  # a combine frame: planes holds the plus part
            below = memo[planes]
            out = dict(below)
            for k, c in memo[colon].items():
                out[k + w] = out.get(k + w, 0) + c
            for k, c in below.items():
                out[k + w] = out.get(k + w, 0) - c
            memo[node] = {k: c for k, c in out.items() if c}
            continue
        if node in memo:
            continue
        if len(planes) < 2:  # no bit is in two masks: the product of the 1 - t^deg g
            out = {0: 1}
            for m in node:
                d = m.bit_count()
                if m & heavy:
                    d += sum(u - 1 for b, u in weights.items() if m & b)
                step = dict(out)
                for k, c in out.items():
                    step[k + d] = step.get(k + d, 0) - c
                out = step
            memo[node] = out
            continue
        top = -1  # narrowed plane by plane from the highest to the bits of largest count
        for p in reversed(planes):
            if top & p:
                top &= p
        bit = top & -top
        plus, plus_planes, colon, colon_planes = _mask_split(node, bit, planes)
        stack.append((node, plus, colon, weights.get(bit, 1)))
        stack.append((colon, colon_planes, None, 0))
        stack.append((plus, plus_planes, None, 0))
    return memo[masks]


def _bit_planes(masks, planes=()) -> list:
    """The bit counts of `masks` added to those of `planes`, in binary: bit b
    of planes[j] is bit j of the number of masks holding bit b.  Each mask
    ripples its carries up the planes.  The highest plane is nonzero if
    that of `planes` is."""
    planes = list(planes)
    top = len(planes)
    for m in masks:
        j = 0
        while m:
            if j == top:
                planes.append(m)
                top += 1
                break
            p = planes[j]
            planes[j] = p ^ m
            m &= p
            j += 1
    return planes


def _plane_difference(planes: list, part: list) -> list:
    """The bit counts of planes minus those of part, where part counts a
    subset of the masks that planes counts: a ripple-borrow subtraction,
    with the zero planes on top dropped."""
    out = []
    borrow = 0
    for j, p in enumerate(planes):
        if j < len(part):
            q = part[j]
        elif borrow:
            q = 0
        else:
            out += planes[j:]
            break
        out.append(p ^ q ^ borrow)
        borrow = ~p & (q | borrow) | q & borrow
    while out and not out[-1]:
        out.pop()
    return out


def _mask_split(masks: tuple, bit: int, planes: list) -> tuple:
    """(plus, its planes, colon, its planes) for the squarefree I on `masks`
    (sorted, none a subset of another), its bit counts `planes` (see
    _bit_planes) and the variable x on `bit`: plus holds the x-free masks
    and colon those of I : x, both as sorted tuples.

    Only the smaller of the x-free masks and the masks holding x is
    counted; the other side's planes are the difference.  I : x has the
    quotients g ^ bit for g holding bit, whose planes are those of the
    holders with bit cleared, and the x-free g that no quotient is a subset
    of, which are counted into them.  No other pair can be comparable, since
    `masks` is an antichain.  An x-free g is first looked up minus one bit
    among the sorted quotients, and only if that fails tested against every
    quotient.
    """
    plus = [g for g in masks if not g & bit]
    held = [g for g in masks if g & bit]
    if len(plus) < len(held):
        plus_planes = _bit_planes(plus)
        held_planes = _plane_difference(planes, plus_planes)
    else:
        held_planes = _bit_planes(held)
        plus_planes = _plane_difference(planes, held_planes)
    plus = tuple(plus)
    if held and held[0] == bit:  # the mask bit is in I, so I : x is the unit ideal
        return plus, plus_planes, (0,), []
    quotients = [g ^ bit for g in held]  # still sorted: each lost the same bit
    colon_planes = [p & ~bit for p in held_planes]
    union = 0  # of the quotients: the bits they count
    for p in colon_planes:
        union |= p
    while colon_planes and not colon_planes[-1]:
        colon_planes.pop()
    kept = []
    for g in plus:
        # most x-free g hold a quotient with one bit less, which then misses
        # the bit of g outside the union of the quotients, if there is one
        rest = g & ~union
        if not rest:
            rest = g
        elif rest & rest - 1:  # two bits outside every quotient
            rest = 0
        while rest:
            low = rest & -rest
            q = g ^ low
            k = bisect_left(quotients, q)
            if k < len(quotients) and quotients[k] == q:
                break
            rest ^= low
        else:
            outside = ~g
            if all(q & outside for q in quotients):
                kept.append(g)
    if kept:
        colon_planes = _bit_planes(kept, colon_planes)
        quotients += kept
        quotients.sort()
    return plus, plus_planes, tuple(quotients), colon_planes


# -- height and associated primes ---------------------------------------------


def height(ideal: MonomialIdeal) -> int:
    """Minimum size of a variable set meeting every generator's support.

    A depth-first search for a least transversal of the generator supports,
    on an explicit stack.  A frame (size, rest) has chosen `size` vertices
    and keeps the edges they miss, smallest first; it branches on the
    vertices of its smallest edge.  A greedy packing of pairwise disjoint
    edges of rest needs that many more vertices, so a frame whose size plus
    packing reaches the best transversal found is dropped.  The zero ideal
    reports 0 (height undefined there); the unit ideal is rejected.
    """
    edges = sorted(set(_supports(ideal, ideal.universe)), key=int.bit_count)
    if edges and not edges[0]:
        raise ValueError("height of the unit ideal is undefined")
    best = len(edges)  # a vertex of each edge meets them all
    stack = [(0, edges)]
    pop, push = stack.pop, stack.append
    while stack:
        size, rest = pop()
        bound, packed = size, 0
        for e in rest:
            if not e & packed:
                packed |= e
                bound += 1
                if bound >= best:
                    break
        if bound >= best:
            continue
        if not rest:
            best = size
            continue
        branch = rest[0]
        while branch:
            v = branch & -branch
            branch ^= v
            push((size + 1, [e for e in rest if not e & v]))
    return best


def associated_primes(ideal: MonomialIdeal) -> set:
    """All variable sets S with (ideal : m) prime on S for some monomial m.

    These are the supports of the irreducible components, read off the
    minimal transversals of the level polarization (see _polarize): bit b
    stands for the exponent level levels[b] of its variable and lies in a
    generator's mask when that level is at most the generator's exponent.  A minimal
    transversal meets each variable's bits at most once, and a component
    containing another has the same support.  Returns a set of frozensets of
    Var; empty for the zero and the unit ideal.
    """
    if ideal.is_zero:
        return set()
    masks, levels = _polarize([g.exps for g in ideal.gens])
    return {frozenset(v for v, _ in _mask_vars(t, levels)) for t in _transversals(masks)}
