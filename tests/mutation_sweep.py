"""One-line mutation sweep over the letterplace sources.

    python tests/mutation_sweep.py

MUTANTS is a table of one-line mutants.  Each entry names a module of
src/letterplace, the exact text it replaces (which must occur there once),
the replacement and the tests expected to kill it: test files, or pytest
node ids such as test_monomial.py::test_name where a whole file would not
finish under the timeout on a mutant that makes some routine loop.  The
test files named are first run on an unmutated copy of src/, which must
pass.  Then,
for each mutant, src/ is copied to a temporary directory, the mutant is
applied, and pytest runs its test files with -x under the per-mutant
TIMEOUT and with its address space capped at MEMORY bytes.  A mutant is
killed when some test fails (a MemoryError in a test is a failure); it
survives when every test passes, and it is undecided when pytest cannot run
or the timeout is hit.  The script exits non-zero, listing them, if any
mutant survives or is undecided.

Pytest collects only test_*.py, so it does not collect this file.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src")
TIMEOUT = 120  # seconds per pytest run
MEMORY = 1 << 31  # bytes of address space per pytest run: a mutant that grows without end fails


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple


MUTANTS = [
    # poset
    Mutant("close-keeps-transitive-covers", "poset",
           "upper[p] = succ[p] & ~beyond", "upper[p] = succ[p]",
           ("test_poset.py",)),
    Mutant("range-check-admits-n", "poset",
           "if not 0 <= p < self.n:", "if not 0 <= p <= self.n:",
           ("test_poset.py",)),
    Mutant("poset-admits-a-negative-size", "poset",
           "if type(n) is not int or n < 0:", "if type(n) is not int:",
           ("test_poset.py",)),
    # homset
    Mutant("floor-skips-a-step", "homset",
           "if v > top:", "if v > top + 1:",
           ("test_homset.py", "test_ideals.py")),
    Mutant("isotone-admits-equal-drop", "homset",
           "if values[low.bit_length() - 1] < v:", "if values[low.bit_length() - 1] <= v:",
           ("test_homset.py", "test_poset.py")),
    Mutant("markers-domain-cut-one-too-low", "homset",
           "tops[q] = min(tops[q], reach[p] - 1)", "tops[q] = min(tops[q], reach[p] - 2)",
           ("test_homset.py",)),
    Mutant("markers-budget-per-poset-ideal", "homset",
           "_isotone_maps(P, tops, order, cap - walked)", "_isotone_maps(P, tops, order, cap)",
           ("test_homset.py",)),
    Mutant("principal-markers-ignore-the-cap", "homset",
           "_isotone_maps(P, self.alpha, cap=cap)", "_isotone_maps(P, self.alpha)",
           ("test_homset.py",)),
    Mutant("marker-graphs-sorted-by-graph-alone", "homset",
           "found.sort(key=lambda row: (len(row), row))", "found.sort()",
           ("test_homset.py",)),
    Mutant("isotone-check-admits-non-ints", "homset",
           "any(type(v) is not int or v < 0 for v in values)", "any(v < 0 for v in values)",
           ("test_homset.py",)),
    Mutant("member-skips-the-isotone-check", "homset",
           "phi = check_isotone(self.poset, phi)", "phi = tuple(phi)",
           ("test_homset.py",)),
    # monomial
    Mutant("minimal-masks-keep-test", "monomial",
           "if all(k & outside for k in below):", "if any(k & outside for k in below):",
           ("test_monomial.py",)),
    Mutant("transversals-keep-test", "monomial",
           "if not holders[u] & keep:", "if not holders[u] & once:",
           ("test_monomial.py",)),
    Mutant("mask-split-colon", "monomial",
           "if all(q & outside for q in quotients):", "if any(q & outside for q in quotients):",
           ("test_monomial.py",)),
    Mutant("height-packing-counts-overlapping-edges", "monomial",
           "if not e & packed:", "if True:",
           ("test_monomial.py",)),
    Mutant("pair-ideal-makes-an-item-per-occurrence", "monomial",
           "item = items.get(pair)", "item = None",
           ("test_ideals.py",)),
    # a wrong plane count can make hilbert_numerator pick a pivot that no
    # mask holds and loop, so these two run only the tests of the planes
    Mutant("plane-difference-drops-the-borrow", "monomial",
           "borrow = ~p & (q | borrow) | q & borrow", "borrow = ~p & q | q & borrow",
           ("test_monomial.py::test_plane_difference_matches_fresh_count",
            "test_monomial.py::test_split_planes_match_fresh_counts")),
    Mutant("bit-planes-carry-the-cleared-bits", "monomial",
           "m &= p", "m &= ~p",
           ("test_monomial.py::test_plane_difference_matches_fresh_count",
            "test_monomial.py::test_split_planes_match_fresh_counts")),
    # ideals
    Mutant("multichains-end-condition", "ideals",
           "if top == pos:", "if top == pos + 1:",
           ("test_ideals.py",)),
    Mutant("principal-gens-skip-isotone-check", "ideals",
           "return _pair_ideal(_multichain_pairs(P, check_isotone(P, alpha), None))",
           "return _pair_ideal(_multichain_pairs(P, alpha, None))",
           ("test_ideals.py",)),
    Mutant("ascent-starts-above-floor", "ideals",
           "range(_floor(phi, P.lower[p]), top)", "range(_floor(phi, P.lower[p]) + 1, top)",
           ("test_ideals.py",)),
    # pstable
    Mutant("longest-chain-skips-the-range-check", "pstable",
           "P._mask((b,))", "None",
           ("test_pstable.py",)),
    Mutant("exchanges-tie-case", "pstable",
           "elif v == top:", "elif False:",
           ("test_pstable.py",)),
    Mutant("exact-walk-skips-generator-test", "pstable",
           "if child in gens:", "if False:",
           ("test_pstable.py",)),
    Mutant("power-codes-without-repeats", "pstable",
           "combinations_with_replacement(radix, d)", '__import__("itertools").combinations(radix, d)',
           ("test_pstable.py",)),
    Mutant("bounded-walk-admits-comparable-sets", "pstable",
           "for B, seen in grown if not seen >> b & 1]", "for B, seen in grown]",
           ("test_pstable.py",)),
    # stable
    Mutant("exchange-moves-upward", "stable",
           "step = dict(zip(I.universe[1:], I.universe))", "step = dict(zip(I.universe, I.universe[1:]))",
           ("test_stable.py",)),
    Mutant("bounded-dual-degree-window", "stable",
           "if I.max_degree() > bound:", "if I.max_degree() >= bound:",
           ("test_stable.py",)),
    Mutant("bounded-dual-shifts-its-rename", "stable",
           "elem_var(v.a)", "elem_var(v.a + 1)",
           ("test_stable.py",)),
    # quotient
    Mutant("regular-check-generator-count", "quotient",
           "if len(masks) < len(I.gens):", "if len(masks) <= len(I.gens):",
           ("test_quotient.py",)),
    Mutant("fiber-kind-chain-direction", "quotient",
           "chain_ok = P.leq(q, p) if i < j", "chain_ok = P.leq(p, q) if i < j",
           ("test_quotient.py",)),
    Mutant("project-reads-the-first-level", "quotient",
           "row = dict(_mask_vars(mask, levels))",
           "row = {}; [row.setdefault(k, e) for k, e in _mask_vars(mask, levels)]",
           ("test_quotient.py",)),
    # groebner
    Mutant("criterion-b-keep-condition", "groebner",
           "or lcm(heads[p[2]][0], lt) == p[0]", "or False",
           ("test_groebner.py",)),
    Mutant("codec-grevlex-key-fields-miss-the-last-variable", "groebner",
           "range(n - i)", "range(n - i - 1)",
           ("test_groebner.py::test_codec_order_matches_ref_order_key",)),
    Mutant("codec-terms-field-bound", "groebner",
           "if u is None or k >= top:", "if u is None or k > top:",
           ("test_groebner.py", "test_determinantal.py")),
    Mutant("interreduce-skips-every-tail", "groebner",
           "if low is not None and lt > low:", "if False:",
           ("test_groebner.py",)),
    Mutant("codec-lcm-takes-the-smaller-field", "groebner",
           "m = b ^ ((a ^ b)", "m = a ^ ((a ^ b)",
           ("test_groebner.py",)),
    # the overflow test of _normal_form sits deeper than those of _s_polynomial
    Mutant("normal-form-misses-overflow", "groebner",
           " " * 20 + "if t & guard:", " " * 20 + "if False:",
           ("test_groebner.py",)),
    Mutant("s-polynomial-misses-overflow", "groebner",
           "t = e + qi\n        if t & guard:", "t = e + qi\n        if False:",
           ("test_groebner.py",)),
    Mutant("normal-form-drops-equal-head", "groebner",
           "while rest and rest[-1][0] > e:", "while rest and rest[-1][0] >= e:",
           ("test_groebner.py",)),
    # determinantal
    Mutant("diagonal-lead-is-smallest-term", "determinantal",
           "max(terms) != sum(diag)", "min(terms) != sum(diag)",
           ("test_determinantal.py",)),
    Mutant("shift-rises-on-ties", "determinantal",
           "if vals[k] > vals[k - 1] else out[-1]", "if vals[k] >= vals[k - 1] else out[-1]",
           ("test_determinantal.py",)),
    Mutant("terrace-rises-on-ties", "determinantal",
           "if d > running:", "if d >= running:",
           ("test_determinantal.py",)),
    Mutant("verify-skips-terrace-instance", "determinantal",
           "if ter != seq:", "if False:",
           ("test_determinantal.py",)),
    Mutant("ly-ideal-drops-the-row-shift", "determinantal",
           "(p + j + lo + a, j + a)", "(p + j + lo + a, j)",
           ("test_determinantal.py",)),
    # cli
    Mutant("usage-error-exits-1", "cli",
           "return 2 if exc.code not in (0, None) else 0", "return 1 if exc.code not in (0, None) else 0",
           ("test_cli.py",)),
    Mutant("value-error-escapes", "cli",
           "except (ToolkitError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:",
           "except (ToolkitError, KeyError, OSError, json.JSONDecodeError) as exc:",
           ("test_cli.py",)),
]


def _copy_src(dest: str) -> str:
    src = os.path.join(dest, "src")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _apply(src: str, mutant: Mutant) -> None:
    path = os.path.join(src, "letterplace", mutant.module + ".py")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: {mutant.old!r} occurs {count} times in {mutant.module}.py")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, TESTS]), PYTHONDONTWRITEBYTECODE="1")


def _capped() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _pytest(src: str, tests, timeout: float) -> str:
    """'passed', 'failed' or 'undecided' for the test files run on src."""
    env = _env(src)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *(os.path.join(TESTS, t) for t in tests)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout,
                              preexec_fn=_capped)
    except subprocess.TimeoutExpired:
        return "undecided"
    # pytest exits 0 when every test passed and 1 when some test failed;
    # anything else (interrupted, usage error, no tests) decides nothing
    return {0: "passed", 1: "failed"}.get(proc.returncode, "undecided")


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        base = _copy_src(os.path.join(tmp, "base"))
        where = subprocess.run([sys.executable, "-c", "import letterplace; print(letterplace.__file__)"],
                               env=_env(base), capture_output=True, text=True).stdout.strip()
        if not where.startswith(base):
            print(f"letterplace imports from {where or 'nowhere'}, not from the copy {base}")
            return 1
        files = sorted({t.split("::")[0] for m in MUTANTS for t in m.tests})
        verdict = _pytest(base, files, TIMEOUT * len(files))
        if verdict != "passed":
            print(f"the unmutated sources do not pass {', '.join(files)}: {verdict}")
            return 1
        bad = []
        for k, mutant in enumerate(MUTANTS):
            src = _copy_src(os.path.join(tmp, f"m{k}"))
            _apply(src, mutant)
            t = time.monotonic()
            verdict = _pytest(src, mutant.tests, TIMEOUT)
            outcome = "killed" if verdict == "failed" else "SURVIVED" if verdict == "passed" else "UNDECIDED"
            print(f"{outcome:9} {mutant.name} ({mutant.module}) in {time.monotonic() - t:.1f} s", flush=True)
            if outcome != "killed":
                bad.append(f"{mutant.name}: {outcome.lower()}")
            shutil.rmtree(os.path.dirname(src))
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed in {time.monotonic() - start:.0f} s")
    for line in bad:
        print(f"  {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
