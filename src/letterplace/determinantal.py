"""Staircase determinantal ideals whose initial ideals are letterplace ideals.

A weakly increasing sequence l_a <= ... <= l_b defines a matrix with columns
l_a+1..l_b and rows a..b-1, filled with variables y[p,i] below a staircase and
zeros above it.  The ideal collects, for every c in (a, b], the maximal minors
of the lower-left submatrix with columns up to l_c.  Its initial ideal under
the diagonal order is the column-shifted letterplace ideal of the associated
terrace/i-sequence pair, of codimension i_b - i_a.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotTerrace
from .groebner import _basis, _check_caps, _Codec, _exactly, diagonal_order
from .ideals import _multichain_pairs
from .monomial import MonomialIdeal, _of_sorted_pairs, height, pair_var
from .poset import chain


@dataclass(frozen=True)
class LSequence:
    """Weakly increasing integer sequence indexed a..b with a < b."""

    a: int
    vals: tuple

    def __post_init__(self):
        object.__setattr__(self, "vals", tuple(self.vals))
        if len(self.vals) < 2:
            raise ValueError("need at least two entries (a < b)")
        if any(x > y for x, y in zip(self.vals, self.vals[1:])):
            raise ValueError(f"sequence {self.vals} is not weakly increasing")

    @property
    def b(self) -> int:
        return self.a + len(self.vals) - 1

    def __getitem__(self, c: int) -> int:
        return self.vals[c - self.a]

    def __len__(self):
        return len(self.vals)


class DetMatrix:
    """The staircase matrix of an LSequence: entry(p, i) is a variable or None."""

    __slots__ = ("seq", "columns", "rows", "_top")

    def __init__(self, seq: LSequence):
        self.seq = seq
        self.columns = tuple(range(seq[seq.a] + 1, seq[seq.b] + 1))
        self.rows = tuple(range(seq.a, seq.b))
        top = {}
        for c in range(seq.a, seq.b):
            for p in range(seq[c] + 1, seq[c + 1] + 1):
                top[p] = c
        self._top = top

    def column_top(self, p: int) -> int:
        return self._top[p]

    def entry(self, p: int, i: int):
        if p not in self._top or i not in self.rows:
            raise IndexError(f"position ({p},{i}) outside the matrix")
        return pair_var(p, i) if i <= self._top[p] else None

    def variables(self) -> list:
        return [pair_var(p, i) for p in self.columns for i in self.rows if i <= self._top[p]]


def build_matrix(seq: LSequence) -> DetMatrix:
    return DetMatrix(seq)


def _laplace_minors(M: DetMatrix, row: dict) -> list:
    """(c, rows, cols, terms) for every structurally nonzero generating minor
    of the staircase matrix M, whose packed entries are row[i][p].

    terms maps each packed term of the minor to its integer coefficient; no
    two terms meet, since the entries are distinct variables.  Each minor is a
    Laplace expansion along its last row into the minors of the rows above on
    one column fewer.  Those row-prefix minors do not depend on c, so every
    column tuple is expanded once.
    """
    seq = M.seq
    # one memo per call, handed down to _minor: a recursive closure over it
    # would keep it in a reference cycle after the call returns
    memo = {(): {0: 1}}
    out = []
    for c in range(seq.a + 1, seq.b + 1):
        rows = tuple(range(seq.a, c))
        col_pool = range(seq[seq.a] + 1, seq[c] + 1)
        for cols in combinations(col_pool, c - seq.a):
            terms = _minor(row, seq.a, memo, cols)
            if terms:
                out.append((c, rows, cols, terms))
    return out


def _minor(row: dict, a: int, memo: dict, cols: tuple) -> dict:
    """The terms of the minor on rows a..a+len(cols)-1 and columns cols,
    expanded along its last row; memo maps each column tuple already
    expanded to its terms."""
    terms = memo.get(cols)
    if terms is None:
        entries = row[a + len(cols) - 1]
        terms = {}
        for j, p in enumerate(cols):
            u = entries.get(p)
            if u is None:
                continue
            sign = -1 if (len(cols) - 1 + j) % 2 else 1
            for term, k in _minor(row, a, memo, cols[:j] + cols[j + 1 :]).items():
                terms[term + u] = sign * k
        memo[cols] = terms
    return terms


def _packed_minors(seq: LSequence) -> tuple:
    """(row, codec, minors): a codec for the diagonal order on the variables
    of the staircase matrix of seq, the packed nonzero entries of each of its
    rows by column, row[i][p], and _laplace_minors on them."""
    M = DetMatrix(seq)
    codec = _Codec(diagonal_order(M.variables()), 2)  # squarefree minors: one exponent bit, one guard bit
    row = {i: {p: codec.unit[pair_var(p, i)] for p in M.columns if i <= M.column_top(p)} for i in M.rows}
    return row, codec, _laplace_minors(M, row)


def _diagonal_leads(row: dict, minors: list) -> bool:
    """Every minor with nonzero main diagonal leads with its diagonal
    product, for the row table and minors of _packed_minors: packed by
    their codec, a packed int's order is the term order, so the lead is the
    largest term."""
    for _, rows, cols, terms in minors:
        diag = [row[i].get(p) for p, i in zip(cols, rows)]
        if None not in diag and max(terms) != sum(diag):
            return False
    return True


def minors_with_positions(seq: LSequence) -> list:
    """(c, rows, cols, polynomial) for every structurally nonzero generating minor."""
    _, codec, minors = _packed_minors(seq)
    return [(c, rows, cols, codec.polynomial(terms)) for c, rows, cols, terms in minors]


def ideal_gens(seq: LSequence) -> list:
    """Generators of the staircase determinantal ideal, zero minors dropped."""
    return [det for _, _, _, det in minors_with_positions(seq)]


def terrace(seq: LSequence) -> LSequence:
    """Successive-maxima flattening; a terrace sequence is its own image.

    Scan l_a - a, l_{a+1} - a, l_{a+2} - (a+1), ..., l_b - (b-1) for strict
    running maxima after the first entry; between consecutive maxima the output
    repeats the value at the previous maximum.  The result is pointwise <= the
    input and satisfies the terrace step condition.
    """
    a, vals = seq.a, seq.vals
    n = len(vals)
    diffs = [vals[0] - a] + [vals[k] - (a + k - 1) for k in range(1, n)]
    maxima = []
    running = diffs[0]
    for k in range(1, n):
        if diffs[k] > running:
            running = diffs[k]
            maxima.append(k)
    marks = [0] + maxima + [n]
    out = []
    for m, nxt in zip(marks, marks[1:]):
        out.extend([vals[m]] * (nxt - m))
    return LSequence(a, out)


def is_terrace(seq: LSequence) -> bool:
    return terrace(seq) == seq


def i_sequence(seq: LSequence) -> LSequence:
    """The weakly increasing sequence associated to a terrace sequence."""
    if not is_terrace(seq):
        raise NotTerrace(f"{seq.vals} fails the terrace condition")
    return _shift_rises(seq, -1)


def l_from_i(iseq: LSequence) -> LSequence:
    """Inverse of i_sequence: the terrace sequence of a weakly increasing one."""
    return _shift_rises(iseq, 1)


def _shift_rises(seq: LSequence, sign: int) -> LSequence:
    """l_a + sign*a, then l_c + sign*(c-1) where l_c > l_(c-1) and the
    previous entry where l_c = l_(c-1)."""
    a, vals = seq.a, seq.vals
    out = [vals[0] + sign * a]
    for k in range(1, len(vals)):
        out.append(vals[k] + sign * (a + k - 1) if vals[k] > vals[k - 1] else out[-1])
    return LSequence(a, out)


def ly_ideal(iseq: LSequence) -> MonomialIdeal:
    """Column-shifted principal letterplace ideal of the i-sequence.

    The principal ideal lives on the chain of the elements i_a+1..i_b, with
    alpha equal to c - a on (i_c, i_{c+1}]; with lo = i_a + 1 the shift sends
    x[p,j] to y[p+lo+j+a, j+a].
    """
    a, lo = iseq.a, iseq[iseq.a] + 1
    alpha = [c - a for c in range(a, iseq.b) for _ in range(iseq[c] + 1, iseq[c + 1] + 1)]
    # on a chain the j-th pair of every generator is (p_j, j), and the shift
    # adds lo + j + a to p_j and a to j: it keeps each generator's pairs
    # ascending and the generators in sort_key order
    gens = _multichain_pairs(chain(len(alpha)), alpha, None)
    return MonomialIdeal._of_canonical([_of_sorted_pairs([(p + lo + j + a, j + a) for p, j in g]) for g in gens])


def codim_formulas(seq: LSequence) -> dict:
    """Endpoint difference of the i-sequence and the direct max formula.

    The two agree for every weakly increasing sequence: the i endpoints are
    running maxima of the shifted differences, whose first entry never exceeds
    the second.
    """
    return _codims(seq, _shift_rises(terrace(seq), -1))


def _codims(seq: LSequence, iseq: LSequence) -> dict:
    """codim_formulas(seq), given the i-sequence of seq's terrace."""
    return {
        "from_i": iseq[iseq.b] - iseq[iseq.a],
        "max_formula": max(
            seq[d] - seq[seq.a] - (d - seq.a) + 1 for d in range(seq.a + 1, seq.b + 1)
        ),
    }


def diagonal_leads_ok(seq: LSequence) -> bool:
    """Every generating minor with nonzero main diagonal leads with it under
    the diagonal order."""
    row, _, minors = _packed_minors(seq)
    return _diagonal_leads(row, minors)


def verify_main(seq: LSequence, degree_cap: int = None, pair_cap: int = 200_000) -> dict:
    """End-to-end check: initial ideal equals the shifted letterplace ideal and
    the codimension formulas agree with the height of that monomial ideal.

    degree_cap (off unless given) and pair_cap bound the basis computation as
    in buchberger (a negative cap raises ValueError), and the report echoes
    them under "budget"; BudgetExceeded is raised if the basis computation
    overruns them.  For a non-terrace input the report also carries the
    terrace-reduced instance under "terrace_instance", and "ok" holds both.
    terrace is idempotent, so the two instances share the terrace, the
    i-sequence, the target ly_ideal and its height, each built once.
    """
    _check_caps(degree_cap, pair_cap)
    ter = terrace(seq)
    iseq = _shift_rises(ter, -1)  # i_sequence(ter): a terrace needs no check
    target = ly_ideal(iseq)
    h = height(target)
    report = _report(seq, ter, iseq, target, h, degree_cap, pair_cap)
    if ter != seq:
        report["terrace_instance"] = _report(ter, ter, iseq, target, h, degree_cap, pair_cap)
        report["ok"] = report["ok"] and report["terrace_instance"]["ok"]
    return report


def _report(seq: LSequence, ter: LSequence, iseq: LSequence, target: MonomialIdeal, h: int,
            degree_cap, pair_cap) -> dict:
    """verify_main's report on seq alone, given its terrace ter, the
    i-sequence of ter, the target and its height.

    The minors are built packed and stay packed through the basis
    computation; the codec of the basis packs the target's generators to
    meet its leading terms.
    """
    row, codec, minors = _packed_minors(seq)
    gens = [terms for _, _, _, terms in minors]
    diag_ok = _diagonal_leads(row, minors)
    basis, codec = _exactly(_basis, gens, codec, degree_cap, pair_cap)
    # each reduced element lists its leading term first; the leading terms
    # must be the target's generators, each once
    leads = {next(iter(d)) for d in basis}
    packed = codec.terms(target.gens)
    initial_ok = len(basis) == len(packed) and None not in packed and leads == set(packed)
    codims = _codims(seq, iseq)
    codim_ok = h == codims["from_i"] == codims["max_formula"]
    return {
        "a": seq.a,
        "l": list(seq.vals),
        "terrace": list(ter.vals),
        "i_sequence": list(iseq.vals),
        "num_variables": len(codec.order.vars),
        "num_generators": len(gens),
        "gb_size": len(basis),
        "diagonal_leads_ok": diag_ok,
        "initial_equals_target": initial_ok,
        "codim": {"height": h, **codims},
        "codim_ok": codim_ok,
        "ok": diag_ok and initial_ok and codim_ok,
        "budget": {"degree_cap": degree_cap, "pair_cap": pair_cap},
    }

