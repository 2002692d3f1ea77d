"""Isotone projections of doubly indexed variables and regularity checks.

A FiberMap sends each source pair (p, i) to a target variable; merging a
fiber corresponds to dividing the polynomial ring by the differences of its
variables.  Whether that basis of differences is a regular sequence for a
quotient by a monomial ideal is detected exactly through Hilbert-series
numerators: for graded linear forms the quotient is regular iff the numerator
is unchanged by the substitution.  The projected side is polarized and
minimalized as bitmasks and goes to the Hilbert recursion as such; only
project_ideal turns the kept masks into monomials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import VariableOutsideSource
from .monomial import (
    MonomialIdeal,
    Var,
    _make,
    _minimal_masks,
    _numerator,
    _polarize,
    elem_var,
    hilbert_numerator,
    nat_var,
    pair_var,
)
from .poset import Poset, _int_list


@dataclass(frozen=True)
class FiberMap:
    """Assignment of source pairs (p, i) to target variables, kept parallel."""

    source: tuple
    targets: tuple

    def __post_init__(self):
        if len(self.source) != len(self.targets):
            raise ValueError("source and targets must be parallel")

    @classmethod
    def make(cls, source: Iterable, targets: Iterable) -> "FiberMap":
        """The map sending source[k] to targets[k]; both are read once and
        must be parallel, and no source pair may be listed twice."""
        source = [tuple(s) for s in source]
        targets = list(targets)
        if len(source) != len(targets):
            raise ValueError(f"the source has {len(source)} pairs but the assignment has {len(targets)} entries")
        lookup = {}
        for s, t in zip(source, targets):
            if s in lookup:
                raise ValueError(f"source pair {list(s)} is listed twice")
            lookup[s] = t
        src = tuple(sorted(lookup))
        return cls(src, tuple(lookup[s] for s in src))

    @classmethod
    def projection_first(cls, source: Iterable) -> "FiberMap":
        """(p, i) -> x_p.  Right strict chain fibers for any poset."""
        src = sorted(tuple(s) for s in source)
        return cls(tuple(src), tuple(elem_var(p) for p, _ in src))

    @classmethod
    def projection_second(cls, source: Iterable) -> "FiberMap":
        """(p, i) -> x_i.  Left strict chain fibers when the poset is a chain."""
        src = sorted(tuple(s) for s in source)
        return cls(tuple(src), tuple(nat_var(i) for _, i in src))

    @classmethod
    def identity(cls, source: Iterable) -> "FiberMap":
        src = sorted(tuple(s) for s in source)
        return cls(tuple(src), tuple(pair_var(p, i) for p, i in src))

    def fibers(self) -> dict:
        out = {}
        for s, t in zip(self.source, self.targets):
            out.setdefault(t, []).append(s)
        return out

    def to_json(self) -> str:
        doc = {
            "source": [list(s) for s in self.source],
            "assignment": [list(t) for t in self.targets],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FiberMap":
        """The map of a JSON object with a list `source` of integer pairs and
        a parallel list `assignment` of target variables (see _target)."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a fiber map must be a JSON object with keys source and assignment")
        source, assignment = doc.get("source"), doc.get("assignment")
        if not isinstance(source, list) or any(len(_int_list(s, "a source pair")) != 2 for s in source):
            raise ValueError(f"fiber map source must be a list of integer pairs, got {json.dumps(source)}")
        if not isinstance(assignment, list):
            raise ValueError(f"fiber map assignment must be a list of variables, got {json.dumps(assignment)}")
        return cls.make(source, [_target(t) for t in assignment])


def _target(t) -> Var:
    """The variable of an assignment entry ["elem", p], ["nat", i] or ["pair", p, i];
    ["elem", p, 0] and ["nat", i, 0], as to_json writes them, are read too."""
    if isinstance(t, list) and 2 <= len(t) <= 3 and all(type(k) is int for k in t[1:]):
        v = Var(*t)
        if v in (elem_var(v.a), nat_var(v.a)) or (v.kind == "pair" and len(t) == 3):
            return v
    raise ValueError(f'assignment entry {json.dumps(t)} is not ["elem", p], ["nat", i] or ["pair", p, i] '
                     "with integer indices")


def fiber_kind(P: Poset, f: FiberMap) -> str:
    """Classify fibers: "right", "left", "both" or "neither".

    A fiber qualifies as a chain fiber when its pairs are pairwise comparable
    in (opposite of P) x N, i.e. smaller second coordinate goes with larger or
    equal first coordinate.  Right-strict additionally needs distinct second
    coordinates, left-strict distinct first coordinates.
    """
    right = left = True
    for fiber in f.fibers().values():
        for a in range(len(fiber)):
            for b in range(a):
                (p, i), (q, j) = fiber[a], fiber[b]
                if i > j:
                    (p, i), (q, j) = (q, j), (p, i)
                chain_ok = P.leq(q, p) if i < j else (P.comparable(p, q) and i == j)
                if i == j:
                    right = False
                if not chain_ok:
                    right = left = False
                if p == q:
                    left = False
    if right and left:
        return "both"
    if right:
        return "right"
    if left:
        return "left"
    return "neither"


def project_ideal(I: MonomialIdeal, f: FiberMap) -> MonomialIdeal:
    """Substitute x[p,i] -> target variable; exponents accumulate; minimalize."""
    targets, rows = _rows(I, f)
    gens = []
    for row in rows:
        exps = tuple([(targets[k], e) for k, e in sorted(row.items())])
        gens.append(_make(exps, sum(row.values())))
    return MonomialIdeal(gens, targets)


def _rows(I: MonomialIdeal, f: FiberMap) -> tuple:
    """(targets, rows): the sorted targets of f and the exponent row of the
    image of each generator of I, a dict {column: exponent} over targets;
    exponents accumulate."""
    targets = sorted(set(f.targets))
    column = {t: k for k, t in enumerate(targets)}
    where = {pair_var(p, i): column[t] for (p, i), t in zip(f.source, f.targets)}
    rows = []
    for g in I.gens:
        row = {}
        for v, e in g.exps:
            k = where.get(v)
            if k is None:
                raise VariableOutsideSource(f"variable {v} not in the fiber map source")
            row[k] = row[k] + e if k in row else e
        rows.append(row)
    return targets, rows


def _projection(I: MonomialIdeal, f: FiberMap) -> tuple:
    """(targets, masks, levels): the sorted targets of f and the level
    polarization (see monomial._polarize) of the image of I, minimal.

    The masks of the exponent rows of _rows are minimalized by
    monomial._minimal_masks, so equal rows are kept once and proper multiples
    are dropped.  A level held only by dropped rows stays in levels:
    its bit is in no kept mask, or always with the next level of its
    column, so the weighted popcount of every OR of kept masks is still the
    degree of the lcm.
    """
    targets, rows = _rows(I, f)
    masks, levels = _polarize([row.items() for row in rows])
    return targets, tuple(sorted(_minimal_masks(masks))), levels


def regular_quotient_check(I: MonomialIdeal, f: FiberMap) -> bool:
    """Exact Hilbert-series test for the variable-difference basis being regular.

    With K the numerator over v variables (series K/(1-t)^v), killing d
    independent linear forms multiplies the series by (1-t)^d exactly when the
    forms are regular; both sides then share the same numerator.  So the basis
    of fiber differences is regular iff the numerator of the projected ideal
    equals the numerator of the source ideal.  The projected side never
    becomes monomials: K runs on the kept masks of _projection.

    Dividing by a regular sequence of linear forms keeps the graded Betti
    numbers, the number of minimal generators among them.  So a projection
    with fewer minimal generators than I is not regular, and is rejected
    before either numerator is computed.
    """
    _, masks, levels = _projection(I, f)
    if len(masks) < len(I.gens):
        return False
    return hilbert_numerator(I) == _numerator(masks, levels)
