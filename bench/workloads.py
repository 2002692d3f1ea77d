"""The four benchmark workloads: seeded inputs, items and their expectations.

Every input is generated here from the seed: posets come from the
benchmark's own catalogue of up-set bitmasks, and each expectation is
computed by the benchmark's own code (or, where the toolkit carries two
independent routes, by comparing them).  The library receives only these
inputs.  An item is a zero-argument callable that returns
``(ok, payload)``: ``ok`` says whether the result met its expectation and
``payload`` is the deterministic text that goes into the outputs digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from itertools import combinations, permutations, product

import letterplace as lp
from letterplace import cli


@dataclass
class Workload:
    """Items in run order plus what the runner needs to schedule them.

    ``round_size`` is how many items run between deadline checks; a timed run
    always ends on a round boundary and reports the median rate of its rounds.
    ``trace_items`` is how many items, from the front of the order, the traced
    run executes.  ``shape`` counts the items per kind and does not depend on
    the seed.
    """

    items: list
    round_size: int
    trace_items: int
    shape: dict


# -- posets, generated without the library -------------------------------------


def labeled_posets(n: int) -> list:
    """Every partial order on 0..n-1 as a tuple of up-set masks (p's mask holds
    every q >= p).  Element k joins with a down-closed set D below it and an
    up-closed set U above it, disjoint, with all of D below all of U.
    Counts 1, 1, 3, 19, 219, 4231 for n = 0..5."""
    posets = [()]
    for k in range(n):
        grown = []
        full = (1 << k) - 1
        for up in posets:
            down = [sum(1 << q for q in range(k) if up[q] >> p & 1) for p in range(k)]
            for d_mask in range(1 << k):
                if any(d_mask >> p & 1 and down[p] & ~d_mask for p in range(k)):
                    continue
                rest = full & ~d_mask
                u_mask = rest
                while True:
                    if not any(u_mask >> p & 1 and up[p] & ~u_mask for p in range(k)) and all(
                        up[p] & u_mask == u_mask for p in range(k) if d_mask >> p & 1
                    ):
                        grown.append(
                            tuple(up[p] | (1 << k if d_mask >> p & 1 else 0) for p in range(k))
                            + ((1 << k) | u_mask,)
                        )
                    if not u_mask:
                        break
                    u_mask = (u_mask - 1) & rest
        posets = grown
    return posets


def closure_masks(n: int, relations) -> tuple:
    """Up-set masks of the order generated by pairs (a, b), a < b as integers,
    each meaning a is below b."""
    up = [1 << p for p in range(n)]
    for a, b in sorted(relations, reverse=True):
        up[a] |= up[b]
    for p in reversed(range(n)):
        m = up[p]
        for q in range(p + 1, n):
            if m >> q & 1:
                m |= up[q]
        up[p] = m
    return tuple(up)


def covers_of(up: tuple) -> list:
    n = len(up)
    strict = [up[p] & ~(1 << p) for p in range(n)]
    return [
        (p, q)
        for p in range(n)
        for q in range(n)
        if strict[p] >> q & 1 and not any(strict[p] >> r & 1 and strict[r] >> q & 1 for r in range(n))
    ]


def is_chain(up: tuple) -> bool:
    n = len(up)
    return all(up[p] >> q & 1 or up[q] >> p & 1 for p in range(n) for q in range(p))


def isotone_maps(up: tuple, bound: int) -> list:
    """Maps P -> {0..bound} that respect the order, by brute force over the box."""
    n = len(up)
    above = [[q for q in range(n) if q != p and up[p] >> q & 1] for p in range(n)]
    return [
        vals
        for vals in product(range(bound + 1), repeat=n)
        if all(vals[p] <= vals[q] for p in range(n) for q in above[p])
    ]


def to_poset(up: tuple) -> lp.Poset:
    return lp.poset_from_covers(len(up), covers_of(up))


def poset_doc(up: tuple) -> dict:
    return {"n": len(up), "covers": [list(c) for c in covers_of(up)]}


def canonical(up: tuple) -> tuple:
    n = len(up)
    rel = [(p, q) for p in range(n) for q in range(n) if p != q and up[p] >> q & 1]
    return min(tuple(sorted((perm[p], perm[q]) for p, q in rel)) for perm in permutations(range(n)))


def profile(up: tuple) -> tuple:
    """An isomorphism invariant: the sorted (up-set, down-set) sizes.  Items on
    posets with one profile cost about the same, so it serves as a stratum."""
    n = len(up)
    return tuple(sorted((bin(up[p]).count("1"), sum(up[q] >> p & 1 for q in range(n))) for p in range(n)))


def interleave(groups, rng: random.Random) -> list:
    """Shuffle each group (stratum), then spread every group evenly over the
    whole order, so that any prefix holds each group in proportion to its size."""
    keyed = []
    for gi, group in enumerate(groups):
        group = list(group)
        rng.shuffle(group)
        offset = rng.random()
        keyed.extend(((j + offset) / len(group), gi, item) for j, item in enumerate(group))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


# -- monomials as exponent tuples over x[0..m-1] ---------------------------------


def mono(exps) -> lp.Monomial:
    return lp.Monomial((lp.elem_var(p), e) for p, e in enumerate(exps) if e)


def exps_of(m: lp.Monomial, width: int) -> tuple:
    out = [0] * width
    for v, e in m.exps:
        out[v.a] = e
    return tuple(out)


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal(exps) -> list:
    exps = sorted(set(exps), key=lambda e: (sum(e), e))
    out = []
    for e in exps:
        if not any(divides(k, e) for k in out):
            out.append(e)
    return out


def borel_closure_exps(seeds, m: int) -> set:
    """Minimal generators of the smallest strongly stable ideal (x[0] the
    smallest variable) containing the seeds."""
    seen, stack = set(), list(seeds)
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        for v in range(m):
            if e[v]:
                for u in range(v):
                    moved = list(e)
                    moved[v] -= 1
                    moved[u] += 1
                    stack.append(tuple(moved))
    return set(minimal(seen))


def ideal_text(gens, m: int) -> str:
    """Monomial-ideal file text in the CLI's canonical format (family=elem)."""
    lines = [f"# family=elem n={m}"]
    for e in sorted(gens, key=lambda e: (sum(e), tuple((p, x) for p, x in enumerate(e) if x))):
        parts = [f"x[{p}]" if x == 1 else f"x[{p}]^{x}" for p, x in enumerate(e) if x]
        lines.append("*".join(parts) if parts else "1")
    return "\n".join(lines) + "\n"


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return {d: c for d, c in out.items() if c}


def one_minus_t_pow(k: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = poly_mul(out, {0: 1, 1: -1})
    return out


def eliahou_kervaire(gens) -> dict:
    """Hilbert numerator of a strongly stable ideal from its minimal generators:
    K(t) = 1 - sum over u of t^deg(u) (1-t)^(m(u)-1), m(u) the largest index."""
    out = {0: 1}
    for e in gens:
        top = max(p for p, x in enumerate(e) if x) + 1
        for d, c in one_minus_t_pow(top - 1).items():
            out[d + sum(e)] = out.get(d + sum(e), 0) - c
    return {d: c for d, c in out.items() if c}


def face_numerator(masks, k: int) -> dict:
    """Hilbert numerator of a squarefree ideal in k variables: the sum over
    faces F (subsets containing no generator) of t^|F| (1-t)^(k-|F|)."""
    sizes = [0] * (k + 1)
    for f in range(1 << k):
        if not any(g & f == g for g in masks):
            sizes[bin(f).count("1")] += 1
    out = {}
    for size, count in enumerate(sizes):
        for d, c in one_minus_t_pow(k - size).items():
            out[d + size] = out.get(d + size, 0) + count * c
    return {d: c for d, c in out.items() if c}


# -- det-verify -------------------------------------------------------------------

# Sequences the paper's theorem covers, the three non-terrace inputs, and
# (0,2,4,6,8,10), which the default degree cap rejects: its failure is a known
# defect the benchmark reports rather than hides.
DET_FIXED = [
    (0, 0, 3, 4, 6),
    (0, 2, 4, 6, 8),
    (0, 3, 5, 7, 9),
    (0, 2, 3, 5, 8),
    (1, 3, 4, 6, 9),
    (0, 2, 5, 6, 9),
    (0, 2, 4, 6, 8, 10),
]
# Seeded draws: a=0, length 5, l_b <= 9 and span l_b - l_a <= 5.  Each of these
# verifies in well under a second (wider spans such as (0,0,0,0,9) take many
# seconds), so the draws change the inputs but barely the cost of a round.
DET_DRAWS = 2
DET_SPAN = 5


def _strip_runtime(report: dict) -> dict:
    """verify_main reports its own wall time (runtime_s), which differs from run
    to run; the digest leaves it out."""
    out = {k: v for k, v in report.items() if k != "runtime_s"}
    if "terrace_instance" in out:
        out["terrace_instance"] = _strip_runtime(out["terrace_instance"])
    return out


def _det_item(vals):
    def run():
        report = lp.verify_main(lp.LSequence(0, vals))
        return report["ok"] is True, json.dumps(_strip_runtime(report), sort_keys=True)

    run.label = "det " + ",".join(map(str, vals))
    return run


def det_verify(seed: int, workdir: str, counters: dict) -> Workload:
    rng = random.Random(seed)
    draws = set()
    while len(draws) < DET_DRAWS:
        steps = (0,) + tuple(sorted(rng.randint(0, DET_SPAN) for _ in range(4)))
        shift = rng.randint(0, 9 - steps[-1])
        seq = tuple(v + shift for v in steps)
        if seq not in DET_FIXED:
            draws.add(seq)
    seqs = DET_FIXED + sorted(draws)
    rng.shuffle(seqs)
    items = [_det_item(s) for s in seqs]
    return Workload(items, len(items), len(items), {"fixed": len(DET_FIXED), "drawn": DET_DRAWS})


# -- duality-sweep ----------------------------------------------------------------

DUAL_COFINITE = 200
DUAL_SS = 40
DUAL_SS_VARS = 3  # strongly stable ideals in x[0..2], generated in degree <= 3


def _duality_item(P, build, label):
    def run():
        J = build(P)
        L = lp.letterplace_ideal(J)
        C = lp.coletterplace_ideal(J)
        D = lp.alexander_dual(C, L.universe or C.universe)
        return D.gens == L.gens, "|".join(L.text_lines())

    run.label = label
    return run


def _ss_round_trip_item(seeds, m, expected):
    def run():
        universe = [lp.elem_var(p) for p in range(m)]
        I = lp.borel_closure([mono(e) for e in seeds], universe)
        back = lp.dualize_ss_bounded(lp.dualize_ss_bounded(I, m), m)
        closed = {exps_of(g, m) for g in I.gens} == expected
        return closed and back.gens == I.gens, "|".join(I.text_lines())

    run.label = f"ss round trip {seeds}"
    return run


def duality_sweep(seed: int, workdir: str, counters: dict) -> Workload:
    rng = random.Random(seed)
    groups, shape = [], {}
    for n in range(1, 5):
        strata = {}
        for up in labeled_posets(n):
            P = to_poset(up)
            for alpha in isotone_maps(up, 2):
                strata.setdefault((profile(up), max(alpha)), []).append(
                    _duality_item(P, lambda P, a=alpha: lp.HomIdeal.principal(P, a), f"principal {up} {alpha}")
                )
        groups.extend(strata.values())
        shape[f"principal_n{n}"] = sum(map(len, strata.values()))
    group = []
    for _ in range(DUAL_COFINITE):
        rel = [(a, b) for a, b in combinations(range(4), 2) if rng.random() < 0.3]
        up = closure_masks(4, rel)
        pool = isotone_maps(up, 2)
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        group.append(
            _duality_item(to_poset(up), lambda P, g=gens: lp.HomIdeal.cofinite(P, g), f"cofinite {up} {gens}")
        )
    groups.append(group)
    shape["cofinite"] = len(group)
    m = DUAL_SS_VARS
    pool = [e for e in product(range(m + 1), repeat=m) if 0 < sum(e) <= m]
    group = []
    for _ in range(DUAL_SS):
        seeds = rng.sample(pool, rng.randint(1, 3))
        group.append(_ss_round_trip_item(seeds, m, borel_closure_exps(seeds, m)))
    groups.append(group)
    shape["ss_round_trip"] = len(group)
    return Workload(interleave(groups, rng), 300, 2500, shape)


# -- stability-sweep --------------------------------------------------------------

STAB_ARTINIAN = 300
STAB_CLASS_SIZE = 4  # poset classes on 4 elements; ideals in 4 variables of degree <= 3


def _power_item(P, d, forest, label):
    def run():
        verdict, structural = lp.max_ideal_power_stable(P, d)
        return verdict == structural == forest, f"{verdict}"

    run.label = label
    return run


def _artinian_item(P, I, label):
    def run():
        exact = lp.is_p_stable(P, I, "exact")
        bounded = lp.is_p_stable(P, I, "bounded")
        return exact == bounded, f"{exact}"

    run.label = label
    return run


def random_artinian(rng: random.Random, n: int, maxdeg: int) -> list:
    """A pure power of every variable plus a random divisibility antichain of
    mixed monomials (support >= 2, degree <= maxdeg) that no power divides."""
    powers = [tuple(rng.randint(1, maxdeg) if q == p else 0 for q in range(n)) for p in range(n)]
    mixed = [
        e
        for e in product(range(maxdeg + 1), repeat=n)
        if sum(e) <= maxdeg and sum(1 for x in e if x) >= 2 and not any(divides(pw, e) for pw in powers)
    ]
    rng.shuffle(mixed)
    chosen = []
    for e in mixed[: rng.randint(0, 8)]:
        if not any(divides(c, e) or divides(e, c) for c in chosen):
            chosen.append(e)
    return powers + chosen


def stability_sweep(seed: int, workdir: str, counters: dict) -> Workload:
    rng = random.Random(seed)
    groups, shape = [], {}
    classes = {}
    for n in range(1, 6):
        strata = {}
        for up in labeled_posets(n):
            P = to_poset(up)
            lowers = [p for p, _ in covers_of(up)]
            forest = all(lowers.count(p) <= 1 for p in range(n))  # at most one upper cover each
            for d in (2, 3):
                strata.setdefault((d, profile(up)), []).append(_power_item(P, d, forest, f"m^{d} {up}"))
            if n == STAB_CLASS_SIZE:
                classes.setdefault(canonical(up), (up, P))
        groups.extend(strata.values())
        for d in (2, 3):
            shape[f"power_n{n}_d{d}"] = sum(len(v) for k, v in strata.items() if k[0] == d)
    reps = [classes[k] for k in sorted(classes)]
    group = []
    variables = [lp.elem_var(p) for p in range(STAB_CLASS_SIZE)]
    for _ in range(STAB_ARTINIAN):
        up, P = rng.choice(reps)
        gens = random_artinian(rng, STAB_CLASS_SIZE, 3)
        I = lp.MonomialIdeal([mono(e) for e in gens], variables)
        group.append(_artinian_item(P, I, f"artinian {up} {gens}"))
    groups.append(group)
    shape["artinian"] = len(group)
    return Workload(interleave(groups, rng), 250, 2000, shape)


# -- cli-ideals -------------------------------------------------------------------

# Fixed HomIdeal files: for each poset, the alpha <= 5 whose generator count
# is closest to each target.  Chains give strongly stable p1 projections, the
# others do not, and p2 is regular on chains only.  The seed draws only the
# small monomial-ideal files.  Even relabeling a poset changes the cost of its
# commands by up to 10% (the Hilbert recursion breaks ties by variable order),
# so seeded HomIdeal files would make the cost of a round depend on the seed.
CLI_POSETS = {
    "chain5": [(0, 1), (1, 2), (2, 3), (3, 4)],
    "chain6": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    "diamond5": [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
    "fork6": [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)],
}
CLI_TARGET_GENS = (40, 120, 280)
CLI_SS = 6
CLI_SS_VARS = 4
CLI_SQUAREFREE = 6
CLI_SQUAREFREE_VARS = 12
_PAIR_RE = re.compile(r"x\[(\d+),(\d+)\]")


def multichain_gens(up: tuple, alpha) -> set:
    """Letterplace generators of the principal ideal on alpha as sets of (p, j):
    multichains p_0 <= ... <= p_r with alpha(p_r) = r and alpha(p_j) > j."""
    n = len(up)
    out = set()

    def rec(last, chain):
        pos = len(chain)
        for q in range(n):
            if last is not None and not up[last] >> q & 1:
                continue
            if alpha[q] < pos:
                continue
            if alpha[q] == pos:
                out.add(frozenset((p, j) for j, p in enumerate(chain + [q])))
            else:
                rec(q, chain + [q])

    rec(None, [])
    return out


def _cli_item(argv, expect_code, check, counters, label):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out = buf.getvalue()
        counters["cli.bytes_out"] = counters.get("cli.bytes_out", 0) + len(out.encode())
        return code == expect_code and check(out), f"{code} {out}"

    run.label = label
    return run


def _cli_round_trip_item(src, dual, bound, m, counters, label):
    first = ["ss", "dualize", "--gens", src, "--bound", str(bound), "-o", dual]
    second = ["ss", "dualize", "--gens", dual, "--bound", str(m)]
    with open(src, encoding="utf-8") as fh:
        original = fh.read()
    step = _cli_item(first, 0, lambda out: out == "", counters, label)
    back = _cli_item(second, 0, lambda out: out == original, counters, label)

    def run():
        ok, text = step()
        ok2, text2 = back()
        return ok and ok2, text + text2

    run.label = label
    return run


def cli_ideals(seed: int, workdir: str, counters: dict) -> Workload:
    rng = random.Random(seed)
    items, shape = [], {}

    def path(name):
        return os.path.join(workdir, name)

    def write(name, text):
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return path(name)

    for pname, covers in CLI_POSETS.items():
        n = max(b for _, b in covers) + 1
        up = closure_masks(n, covers)
        chain = is_chain(up)
        counts = {a: len(multichain_gens(up, a)) for a in isotone_maps(up, 5)}
        for k, target in enumerate(CLI_TARGET_GENS):
            alpha = min(counts, key=lambda a: (abs(counts[a] - target), a))
            expected = multichain_gens(up, alpha)
            f = write(f"{pname}_{k}.json", json.dumps({"poset": poset_doc(up), "repr": {"principal": list(alpha)}}))
            tag = f"{pname} {alpha}"

            def lp_ok(out, expected=expected):
                gens = {frozenset((int(p), int(j)) for p, j in _PAIR_RE.findall(g)) for g in json.loads(out)["generators"]}
                return gens == expected

            items.append(_cli_item(["letterplace", "--ideal", f], 0, lp_ok, counters, f"letterplace {tag}"))
            items.append(
                _cli_item(["dual-check", "--ideal", f], 0, lambda o: json.loads(o)["dual_ok"] is True, counters, f"dual-check {tag}")
            )
            items.append(
                _cli_item(
                    ["regular-check", "--ideal", f, "--side", "letterplace", "--map", "p1"],
                    0,
                    lambda o: json.loads(o)["regular"] is True,
                    counters,
                    f"regular-check p1 {tag}",
                )
            )
            items.append(
                _cli_item(
                    ["regular-check", "--ideal", f, "--side", "coletterplace", "--map", "p2"],
                    0 if chain else 1,
                    lambda o, c=chain: json.loads(o)["regular"] is c,
                    counters,
                    f"regular-check p2 {tag}",
                )
            )
    shape["homideal_files"] = len(CLI_POSETS) * len(CLI_TARGET_GENS)
    m = CLI_SS_VARS
    pool = [e for e in product(range(m + 1), repeat=m) if 0 < sum(e) <= m]
    for k in range(CLI_SS):
        seeds = rng.sample(pool, rng.randint(2, 4))
        gens = borel_closure_exps(seeds, m)
        f = write(f"ss_{k}.txt", ideal_text(gens, m))
        expected = {str(d): c for d, c in sorted(eliahou_kervaire(gens).items())}
        items.append(
            _cli_item(["hilbert", "--gens", f], 0, lambda o, e=expected: json.loads(o)["numerator"] == e, counters, f"hilbert ss {k}")
        )
        items.append(_cli_round_trip_item(f, path(f"ss_{k}_dual.txt"), m, m, counters, f"ss dualize {k}"))
    shape["ss_files"] = CLI_SS
    k_vars = CLI_SQUAREFREE_VARS
    for k in range(CLI_SQUAREFREE):
        masks = set()
        while len(masks) < 40:
            masks.add(sum(1 << v for v in rng.sample(range(k_vars), rng.randint(2, 4))))
        gens = minimal([tuple(mask >> v & 1 for v in range(k_vars)) for mask in masks])
        f = write(f"sqf_{k}.txt", ideal_text(gens, k_vars))
        gen_masks = [sum(1 << v for v in range(k_vars) if e[v]) for e in gens]
        expected = {str(d): c for d, c in sorted(face_numerator(gen_masks, k_vars).items())}
        items.append(
            _cli_item(["hilbert", "--gens", f], 0, lambda o, e=expected: json.loads(o)["numerator"] == e, counters, f"hilbert squarefree {k}")
        )
    shape["squarefree_files"] = CLI_SQUAREFREE
    rng.shuffle(items)
    return Workload(items, len(items), len(items), shape)


WORKLOADS = {
    "det-verify": det_verify,
    "duality-sweep": duality_sweep,
    "stability-sweep": stability_sweep,
    "cli-ideals": cli_ideals,
}
