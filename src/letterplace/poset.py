"""Finite posets with a materialized order table, plus ideal/filter/antichain queries.

Elements are dense integer identifiers 0..n-1; labels are cosmetic.  The full
reflexive-transitive relation and the Hasse diagram are derived once from a
cover list and stored as per-element bitmasks, with a linear extension, so
every leq query is O(1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CycleDetected, IdentifierOutOfRange


@dataclass(frozen=True)
class PSubset:
    """A subset of poset elements tagged with what it is (ideal/filter/antichain)."""

    members: frozenset
    kind: str = "plain"

    def __contains__(self, p) -> bool:
        return p in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


class Poset:
    """Immutable finite poset built from a cover list.

    `up[p]` is the bitmask of elements >= p and `down[p]` of elements <= p;
    both include p itself.  `lower[p]` and `upper[p]` are the masks of the
    elements p covers and of those covering p, whose transitive closure is
    the order, and `order` is a linear extension.  Construction rejects
    cycles and out-of-range identifiers; antisymmetry and transitivity then
    hold by construction.
    """

    __slots__ = ("n", "_labels", "up", "down", "lower", "upper", "order")

    def __init__(self, n: int, covers: Iterable[tuple] = (), labels=None):
        if type(n) is not int or n < 0:
            raise ValueError(f"poset n must be a non-negative integer, got {json.dumps(n, default=repr)}")
        covers = [tuple(c) for c in covers]
        if labels is not None and len(labels) != n:
            raise IdentifierOutOfRange(f"expected {n} labels, got {len(labels)}")
        self.n = n
        self._labels = tuple(labels) if labels is not None else None
        self.up, self.down, self.lower, self.upper, self.order = _close(n, covers)

    @property
    def labels(self) -> tuple:
        """The element names, by default "0".."n-1"."""
        return self._labels if self._labels is not None else tuple(str(i) for i in range(self.n))

    # -- queries ------------------------------------------------------------

    def leq(self, p: int, q: int) -> bool:
        self._mask((p, q))
        return bool(self.up[p] >> q & 1)

    def lt(self, p: int, q: int) -> bool:
        return self.leq(p, q) and p != q

    def comparable(self, p: int, q: int) -> bool:
        self._mask((p, q))
        return bool((self.up[p] | self.down[p]) >> q & 1)

    @property
    def elements(self) -> range:
        return range(self.n)

    def up_set(self, p: int) -> frozenset:
        self._mask((p,))
        return frozenset(_bits(self.up[p]))

    def down_set(self, p: int) -> frozenset:
        self._mask((p,))
        return frozenset(_bits(self.down[p]))

    def covers(self) -> list:
        """Canonical cover list (the Hasse diagram), sorted."""
        return [(p, q) for p in range(self.n) for q in _bits(self.upper[p])]

    def is_chain(self) -> bool:
        return all(up | down == (1 << self.n) - 1 for up, down in zip(self.up, self.down))

    # -- subsets ------------------------------------------------------------

    def _mask(self, A) -> int:
        """The bitmask of the elements of A, read once; each must lie in 0..n-1."""
        m = 0
        for p in A:
            if not 0 <= p < self.n:
                raise IdentifierOutOfRange(f"element {p} not in 0..{self.n - 1}")
            m |= 1 << p
        return m

    def closure(self, A: Iterable[int], direction: str) -> PSubset:
        """Smallest ideal ("down") or filter ("up") containing A."""
        A = self._mask(A)
        masks = self.down if direction == "down" else self.up
        if direction not in ("down", "up"):
            raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
        m = 0
        for p in _bits(A):
            m |= masks[p]
        return PSubset(frozenset(_bits(m)), "ideal" if direction == "down" else "filter")

    def min_elements(self, S: Iterable[int]) -> PSubset:
        """Elements of S with no strictly smaller element of S; an antichain."""
        S = self._mask(S)
        return PSubset(frozenset(p for p in _bits(S) if self.down[p] & S == 1 << p), "antichain")

    def max_elements(self, S: Iterable[int]) -> PSubset:
        S = self._mask(S)
        return PSubset(frozenset(p for p in _bits(S) if self.up[p] & S == 1 << p), "antichain")

    def is_ideal(self, S: Iterable[int]) -> bool:
        S = self._mask(S)
        return all(not self.down[p] & ~S for p in _bits(S))

    def is_antichain(self, S: Iterable[int]) -> bool:
        S = list(S)
        self._mask(S)
        return all(not (self.up[p] | self.down[p]) >> q & 1 for i, p in enumerate(S) for q in S[:i])

    def ideals(self) -> list:
        """All order ideals, as frozensets, in increasing order of their masks.

        An ideal grows only by the elements after its last one in `order`
        whose lower covers it holds, so each ideal is reached once, in O(n)
        work.
        """
        order, lower = self.order, self.lower
        found = [0]
        stack = [(0, 0)]  # (ideal, first position in order it may grow by)
        while stack:
            mask, start = stack.pop()
            for k in range(start, self.n):
                p = order[k]
                if not lower[p] & ~mask:
                    grown = mask | 1 << p
                    found.append(grown)
                    stack.append((grown, k + 1))
        found.sort()
        return [frozenset(_bits(m)) for m in found]

    # -- identity / serialization -------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poset) and self.n == other.n and self.up == other.up

    def __hash__(self) -> int:
        return hash((self.n, self.up))

    def __repr__(self) -> str:
        return f"Poset({self.n}, {self.covers()})"

    def to_json(self) -> str:
        doc = {"n": self.n, "covers": [list(c) for c in self.covers()]}
        if self.labels != tuple(str(i) for i in range(self.n)):
            doc["labels"] = list(self.labels)
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Poset":
        """The poset of a JSON object with a non-negative integer n, covers
        that are pairs of integers and optionally n string labels."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a poset must be a JSON object with keys n and covers")
        n, covers, labels = doc.get("n"), doc.get("covers"), doc.get("labels")
        if not isinstance(covers, list) or any(len(_int_list(c, "a cover")) != 2 for c in covers):
            raise ValueError(f"poset covers must be a list of pairs, got {json.dumps(covers)}")
        if labels is not None and not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
            raise ValueError(f"poset labels must be a list of strings, got {json.dumps(labels)}")
        return cls(n, [tuple(c) for c in covers], labels)


def _int_list(value, what: str) -> list:
    """value if it is a list of integers (bools excluded); else ValueError."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ValueError(f"{what} must be a list of integers, got {json.dumps(value)}")
    return value


def _bits(mask: int) -> list:
    """The elements of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _close(n: int, covers) -> tuple:
    """(up, down, lower, upper, order) of the order generated by the cover
    digraph, which may repeat edges and hold transitive ones, by a
    depth-first walk on an explicit stack; rejects cycles, naming an element
    on one.  The walk finishes an element after every element above it.  So when p
    finishes, the up-sets of its successors are complete: up[p] is p with
    them, and p's upper covers are the successors above no other successor.
    In reverse finish order, the order returned, each element comes after
    its lower covers: its down-set is complete when it is reached there,
    and goes to the down-sets of its upper covers."""
    succ = [0] * n
    for lower, upper in covers:
        if not (0 <= lower < n and 0 <= upper < n):
            raise IdentifierOutOfRange(f"cover ({lower},{upper}) not in 0..{n - 1}")
        succ[lower] |= 1 << upper
    up = [0] * n
    upper = [0] * n
    state = [0] * n  # 0 new, 1 active, 2 done
    finished = []
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [[root, succ[root]]]  # depth-first: [element, successors not yet visited]
        while stack:
            frame = stack[-1]
            p, rest = frame
            if rest:
                low = rest & -rest
                frame[1] = rest ^ low
                q = low.bit_length() - 1
                if state[q] == 1:
                    raise CycleDetected(f"cycle through element {q}")
                if not state[q]:
                    state[q] = 1
                    stack.append([q, succ[q]])
            else:
                state[p] = 2
                finished.append(p)
                stack.pop()
                beyond = 0  # the elements strictly above some successor
                for q in _bits(succ[p]):
                    beyond |= up[q] ^ 1 << q
                up[p] = 1 << p | succ[p] | beyond
                upper[p] = succ[p] & ~beyond
    order = finished[::-1]
    down = [1 << p for p in range(n)]
    lower = [0] * n
    for p in order:
        below = down[p]
        for q in _bits(upper[p]):
            down[q] |= below
            lower[q] |= 1 << p
    return tuple(up), tuple(down), tuple(lower), tuple(upper), tuple(order)


def poset_from_covers(n: int, covers: Iterable[tuple], labels=None) -> Poset:
    """Build a poset whose order is the transitive closure of the cover list."""
    return Poset(n, covers, labels)


def chain(m: int, one_based: bool = True) -> Poset:
    """The chain on m elements 0 < 1 < ... < m-1, labeled 1..m by default."""
    labels = [str(i + 1) for i in range(m)] if one_based else None
    return Poset(m, [(i, i + 1) for i in range(m - 1)], labels)


def antichain(m: int, one_based: bool = True) -> Poset:
    """The antichain on m elements."""
    labels = [str(i + 1) for i in range(m)] if one_based else None
    return Poset(m, [], labels)
