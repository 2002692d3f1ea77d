"""The poset of isotone maps P -> N and its poset ideals.

Total isotone maps are plain value tuples indexed by poset element; the
pointwise order makes them a poset.  A HomIdeal is a downward-closed set of
such maps in one of three representations:

* principal(alpha): all maps <= alpha pointwise,
* finite(maps): an explicit finite downward-closed set,
* cofinite(gens): the complement of the filter generated upward by gens.

Every representation can produce the minimal generators of its complement
filter; marker computations and letterplace generation key off those.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import ExplosionGuard, MixedPosets, NotIsotone
from .monomial import _make, _minimal_masks, _pair_items, _polarize
from .poset import Poset, _bits, _int_list


def is_isotone(P: Poset, values) -> bool:
    """values has one entry per element and never drops along a cover, so
    never along the order the covers generate."""
    if len(values) != P.n:
        return False
    for p in range(P.n):
        v = values[p]
        above = P.upper[p]
        while above:
            low = above & -above
            if values[low.bit_length() - 1] < v:
                return False
            above ^= low
    return True


def check_isotone(P: Poset, values) -> tuple:
    values = tuple(values)
    if any(v < 0 for v in values) or not is_isotone(P, values):
        raise NotIsotone(f"{values} is not an isotone map on {P!r}")
    return values


def _floor(values, lower: int) -> int:
    """The largest value on `lower`, the mask P.lower[p] of the elements p
    covers; for values isotone below p (and non-negative), the largest value
    strictly below p, and 0 at a minimal p."""
    top = 0
    while lower:
        low = lower & -lower
        v = values[low.bit_length() - 1]
        if v > top:
            top = v
        lower ^= low
    return top


def dominates(u, v) -> bool:
    """u >= v pointwise."""
    return all(a >= b for a, b in zip(u, v))


def enumerate_isotone(P: Poset, bound: int, cap: int = 10**7) -> list:
    """All isotone maps P -> {0..bound}, in lexicographic value order.

    Raises ExplosionGuard once more than cap maps have been produced, and
    ValueError for a negative bound or cap.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    return _isotone_maps(P, [bound] * P.n, cap=cap)


def _isotone_maps(P: Poset, upper, elements=None, cap=None, graphs=False) -> list:
    """Isotone maps on `elements` (default: all of P) with value at p in
    0..upper[p], as value tuples over sorted(elements), lexicographically;
    with `graphs`, as their graph monomials prod x[p, phi(p)] instead, which
    in this order are in sort_key order.  `upper` must be isotone on
    `elements`, so that every partial map extends to a full one.

    `cap` (None: no limit) bounds the maps actually produced: ExplosionGuard
    is raised as soon as there are more than cap of them.

    Depth first on an explicit stack, over sorted(elements): a frame is the
    value tuple of a prefix and, with `graphs`, its graph's exponent table.
    The last position is filled in one go.
    """
    order = sorted(range(P.n) if elements is None else elements)
    m = len(order)
    if not m:
        return [_make((), 0)] if graphs else [()]
    below, above = _prefix_covers(P, order)
    tops = [upper[p] for p in order]
    if graphs:
        parts = _pair_items(zip(order, tops))
    last = m - 1
    out = []
    stack = [((), ())]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, exps = pop()
        k = len(prefix)
        lo = 0
        for j in below[k]:
            if prefix[j] > lo:
                lo = prefix[j]
        hi = tops[k]
        for j in above[k]:
            if prefix[j] < hi:
                hi = prefix[j]
        if k < last:
            # pushed from the top down, so popped in ascending order
            if graphs:
                items = parts[k]
                for v in range(hi, lo - 1, -1):
                    push((prefix + (v,), exps + (items[v],)))
            else:
                for v in range(hi, lo - 1, -1):
                    push((prefix + (v,), ()))
            continue
        if graphs:
            items = parts[k]
            out += [_make(exps + (items[v],), m) for v in range(lo, hi + 1)]
        else:
            out += [prefix + (v,) for v in range(lo, hi + 1)]
        if cap is not None and len(out) > cap:
            raise ExplosionGuard(f"produced {len(out)} isotone maps, more than cap {cap}")
    return out


def _prefix_covers(P: Poset, order) -> tuple:
    """The prefix covers of each position k of `order`: the positions of the
    maximal elements of order[:k] below order[k], and of the minimal ones
    above it.  An isotone prefix takes its largest value below order[k] on
    the first and its smallest value above it on the second.

    Each is found by climbing, from the highest element left, through the
    up (down) masks inside what is left to a maximal (minimal) element,
    whose down-set (up-set) is then dropped, so the work follows the covers.
    """
    up, down = P.up, P.down
    at = dict(zip(order, range(len(order))))
    below, above = [], []
    placed = 0
    for p in order:
        for out, rest, climb, fall in ((below, down[p] & placed, up, down), (above, up[p] & placed, down, up)):
            found = []
            while rest:
                q = rest.bit_length() - 1
                while beyond := climb[q] & rest ^ 1 << q:
                    q = beyond.bit_length() - 1
                found.append(at[q])
                rest &= ~fall[q]
            out.append(found)
        placed |= 1 << p
    return below, above


def minimal_of(maps: Iterable[tuple]) -> list:
    """Pointwise-minimal elements of a finite set of maps over one poset."""
    maps = {tuple(m) for m in maps}
    if len({len(m) for m in maps}) > 1:
        raise MixedPosets("maps have different lengths")
    # a map is the exponent table of its graph, and u <= v pointwise is divisibility
    masks, _ = _polarize([[(p, a) for p, a in enumerate(m) if a] for m in maps])
    of = dict(zip(masks, maps))
    return sorted([of[m] for m in _minimal_masks(masks)])


@dataclass(frozen=True)
class Marker:
    """A poset ideal I of P together with an isotone map on I.

    A marker for a HomIdeal J certifies that every total isotone extension of
    its map lies in J.  values holds None outside the domain.
    """

    domain: frozenset
    values: tuple

    def graph(self) -> frozenset:
        return frozenset((p, self.values[p]) for p in self.domain)

    @classmethod
    def on(cls, domain: Iterable[int], values: dict, n: int) -> "Marker":
        dom = frozenset(domain)
        return cls(dom, tuple(values[p] if p in dom else None for p in range(n)))


def check_marker_shape(P: Poset, m: Marker) -> None:
    """The domain is an ideal, so the covers inside it generate its order,
    and the values rise along each of them."""
    if not P.is_ideal(m.domain):
        raise ValueError(f"marker domain {sorted(m.domain)} is not a poset ideal")
    inside = sum(1 << p for p in m.domain)
    for p in m.domain:
        for q in _bits(P.upper[p] & inside):
            if m.values[p] > m.values[q]:
                raise NotIsotone(f"marker values not isotone at {p} <= {q}")


class HomIdeal:
    """A poset ideal of Hom(P, N) in one of three representations."""

    __slots__ = ("poset", "kind", "alpha", "maps", "gens", "_cgens")

    def __init__(self, poset, kind, alpha=None, maps=None, gens=None):
        self.poset = poset
        self.kind = kind
        self.alpha = alpha
        self.maps = maps
        self.gens = gens
        self._cgens = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def principal(cls, P: Poset, alpha) -> "HomIdeal":
        return cls(P, "principal", alpha=check_isotone(P, alpha))

    @classmethod
    def finite(cls, P: Poset, maps: Iterable) -> "HomIdeal":
        maps = frozenset(check_isotone(P, m) for m in maps)
        for m in maps:
            for p in range(P.n):
                if m[p] > _floor(m, P.lower[p]):
                    step = tuple(v - 1 if i == p else v for i, v in enumerate(m))
                    if step not in maps:
                        raise ValueError(
                            f"finite set not downward closed: {step} missing below {m}"
                        )
        return cls(P, "finite", maps=maps)

    @classmethod
    def cofinite(cls, P: Poset, gens: Iterable) -> "HomIdeal":
        gens = tuple(minimal_of([check_isotone(P, g) for g in gens]))
        return cls(P, "cofinite", gens=gens)

    # -- basic queries ---------------------------------------------------------

    @property
    def is_finite_repr(self) -> bool:
        return self.kind in ("principal", "finite")

    def member(self, phi) -> bool:
        phi = tuple(phi)
        if self.kind == "principal":
            return dominates(self.alpha, phi)
        if self.kind == "finite":
            return phi in self.maps
        return not any(dominates(phi, g) for g in self.gens)

    def members(self) -> list:
        """All maps of a finite-representation ideal, lexicographically."""
        if self.kind == "finite":
            return sorted(self.maps)
        if self.kind == "principal":
            return _isotone_maps(self.poset, self.alpha)
        raise ValueError("cofinite ideals are not enumerable")

    # -- complement filter -------------------------------------------------------

    def complement_gens(self) -> tuple:
        """Pointwise-minimal elements of the complement filter."""
        if self._cgens is None:
            self._cgens = self._compute_cgens()
        return self._cgens

    def _compute_cgens(self):
        P = self.poset
        if self.kind == "cofinite":
            return self.gens
        if self.kind == "principal":
            # phi_p, alpha(p) + 1 on the up-set of p and 0 elsewhere, lies
            # above phi_q exactly when q > p and alpha(q) = alpha(p); alpha is
            # isotone, so phi_p is minimal iff alpha rises along each upper cover
            a = self.alpha
            kept = [p for p in range(P.n) if all(a[q] > a[p] for q in _bits(P.upper[p]))]
            return tuple(sorted(tuple(a[p] + 1 if P.up[p] >> q & 1 else 0 for q in range(P.n)) for p in kept))
        # finite: a minimal map outside is 0, or a member raised by one at a
        # single element (lowering it at a minimal element of its support
        # stays isotone and lands inside).
        if not self.maps:
            return ((0,) * P.n,)
        raises = [
            m[:p] + (m[p] + 1,) + m[p + 1 :]
            for m in self.maps
            for p in range(P.n)
            if all(m[q] > m[p] for q in _bits(P.upper[p]))
        ]
        return tuple(minimal_of(r for r in raises if r not in self.maps))

    def nmax(self) -> int:
        """Largest value among complement-filter generators; the enumeration bound."""
        return max((v for g in self.complement_gens() for v in g), default=0)

    # -- markers ------------------------------------------------------------------

    def is_marker(self, marker: Marker) -> bool:
        """True iff every total isotone extension of the marker lies in the ideal.

        Characterization: an extension escaping into the complement exists iff
        the marker dominates some complement generator on its domain (values
        off a poset ideal can be raised freely), so the marker is valid iff for
        every generator psi some domain point has value < psi there.
        """
        check_marker_shape(self.poset, marker)
        return all(
            any(marker.values[p] < g[p] for p in marker.domain)
            for g in self.complement_gens()
        )

    def minimal_markers(self, cap: int = 10**7) -> list:
        """Markers whose graphs are inclusion-minimal among all marker graphs,
        sorted by (domain size, sorted graph).

        For a finite ideal every marker's domain is all of P (a proper ideal
        leaves room for unbounded extensions), so the minimal markers are
        exactly the member maps.  A cofinite ideal walks the isotone maps on
        each poset ideal of P.  Let kill[p][v] be the bits of the complement
        generators g with v < g(p): a map is a marker iff its kills cover
        every generator.  A bigger graph stays a marker, and a marker with a
        smaller graph is a restriction to a subideal, which lies inside
        I - {p} for some maximal p of the domain I; so a marker is minimal
        iff each maximal p kills a generator that no other element of I
        kills.  Such a p has a value below max_g g(p), and every q below p
        a value at most p's: each domain's box is cut there.
        ExplosionGuard is raised when one poset ideal carries more than cap
        maps in its box.
        """
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        P = self.poset
        if self.is_finite_repr:
            full = frozenset(range(P.n))
            return [Marker(full, m) for m in self.members()]
        gens = self.complement_gens()
        if not gens:
            return [Marker(frozenset(), (None,) * P.n)]
        every = (1 << len(gens)) - 1
        reach = [max(g[p] for g in gens) for p in range(P.n)]  # max_g g(p)
        nmax = self.nmax()
        kill = [
            [sum(1 << j for j, g in enumerate(gens) if v < g[p]) for v in range(nmax)]
            for p in range(P.n)
        ]
        found = []
        for dom in P.ideals():
            order = sorted(dom)
            inside = sum(1 << p for p in order)
            maxima = [k for k, p in enumerate(order) if P.up[p] & inside == 1 << p]
            # the empty domain kills nothing, nor a maximal p with reach 0
            if not maxima or any(not reach[order[k]] for k in maxima):
                continue
            tops = [nmax] * P.n
            for k in maxima:
                p = order[k]
                for q in order:
                    if P.down[p] >> q & 1:
                        tops[q] = min(tops[q], reach[p] - 1)
            kills = [kill[p] for p in order]
            for vals in _isotone_maps(P, tops, order, cap):
                seen = twice = 0
                for k, v in enumerate(vals):
                    hit = kills[k][v]
                    twice |= seen & hit
                    seen |= hit
                if seen == every and all(kills[k][vals[k]] & ~twice for k in maxima):
                    found.append((len(order), list(zip(order, vals)), order))
        found.sort(key=lambda f: f[:2])
        return [Marker.on(order, dict(pairs), P.n) for _, pairs, order in found]

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        doc = {"poset": json.loads(self.poset.to_json())}
        if self.kind == "principal":
            doc["repr"] = {"principal": list(self.alpha)}
        elif self.kind == "finite":
            doc["repr"] = {"finite": sorted(list(m) for m in self.maps)}
        else:
            doc["repr"] = {"cofinite": [list(g) for g in self.gens]}
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HomIdeal":
        """The ideal of a JSON object with a poset and a repr holding exactly
        one of principal (a map), finite or cofinite (lists of maps); a map
        is a list of integers."""
        doc = json.loads(text)
        body = doc.get("repr") if isinstance(doc, dict) else None
        if not isinstance(body, dict) or len(body) != 1 or not body.keys() <= {"principal", "finite", "cofinite"}:
            raise ValueError(
                "a HomIdeal must be a JSON object whose repr has one key: principal, finite or cofinite"
            )
        P = Poset.from_json(json.dumps(doc.get("poset")))
        ((kind, value),) = body.items()
        if kind == "principal":
            return cls.principal(P, _int_list(value, "a principal map"))
        if not isinstance(value, list):
            raise ValueError(f"the {kind} repr must be a list of maps, got {json.dumps(value)}")
        maps = [tuple(_int_list(m, f"a {kind} map")) for m in value]
        return cls.finite(P, maps) if kind == "finite" else cls.cofinite(P, maps)

    def __repr__(self):
        body = {"principal": self.alpha, "finite": self.maps, "cofinite": self.gens}[self.kind]
        return f"HomIdeal({self.kind}, {body})"
