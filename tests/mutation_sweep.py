"""One-line mutation sweep over the letterplace sources.

    python tests/mutation_sweep.py

MUTANTS is a table of one-line mutants.  Each entry names a module of
src/letterplace, the exact text it replaces (which must occur there once),
the replacement and the test files expected to kill it.  The listed test
files are first run on an unmutated copy of src/, which must pass.  Then,
for each mutant, src/ is copied to a temporary directory, the mutant is
applied, and pytest runs its test files with -x under the per-mutant
TIMEOUT.  A mutant is killed when some test fails; it survives when every
test passes, and it is undecided when pytest cannot run or the timeout is
hit.  The script exits non-zero, listing them, if any mutant survives or
is undecided.

Pytest collects only test_*.py, so it does not collect this file.
"""

from __future__ import annotations

import os
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
    # homset
    Mutant("floor-skips-a-step", "homset",
           "if v > top:", "if v > top + 1:",
           ("test_homset.py", "test_ideals.py")),
    Mutant("isotone-admits-equal-drop", "homset",
           "if values[low.bit_length() - 1] < v:", "if values[low.bit_length() - 1] <= v:",
           ("test_homset.py", "test_poset.py")),
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
    # ideals
    Mutant("multichains-end-condition", "ideals",
           "if top == pos:", "if top == pos + 1:",
           ("test_ideals.py",)),
    Mutant("principal-gens-skip-isotone-check", "ideals",
           "return _principal_letterplace(P, check_isotone(P, alpha), None)",
           "return _principal_letterplace(P, alpha, None)",
           ("test_ideals.py",)),
    Mutant("ascent-starts-above-floor", "ideals",
           "range(_floor(phi, P.lower[p]), top)", "range(_floor(phi, P.lower[p]) + 1, top)",
           ("test_ideals.py",)),
    # pstable
    Mutant("exchanges-tie-case", "pstable",
           "elif v == top:", "elif False:",
           ("test_pstable.py",)),
    Mutant("exact-walk-skips-generator-test", "pstable",
           "if child in gens:", "if False:",
           ("test_pstable.py",)),
    Mutant("power-codes-without-repeats", "pstable",
           "combinations_with_replacement(radix, d)", '__import__("itertools").combinations(radix, d)',
           ("test_pstable.py",)),
    # stable
    Mutant("exchange-moves-upward", "stable",
           "step = dict(zip(I.universe[1:], I.universe))", "step = dict(zip(I.universe, I.universe[1:]))",
           ("test_stable.py",)),
    Mutant("bounded-dual-degree-window", "stable",
           "if I.max_degree() > bound:", "if I.max_degree() >= bound:",
           ("test_stable.py",)),
    # quotient
    Mutant("regular-check-generator-count", "quotient",
           "if len(masks) < len(I.gens):", "if len(masks) <= len(I.gens):",
           ("test_quotient.py",)),
    Mutant("fiber-kind-chain-direction", "quotient",
           "chain_ok = P.leq(q, p) if i < j", "chain_ok = P.leq(p, q) if i < j",
           ("test_quotient.py",)),
    # groebner
    Mutant("criterion-b-keep-condition", "groebner",
           "or lcm(heads[p[2]][0], lt) == p[0]", "or False",
           ("test_groebner.py",)),
    Mutant("codec-terms-field-bound", "groebner",
           "if u is None or k >= top:", "if u is None or k > top:",
           ("test_groebner.py", "test_determinantal.py")),
    Mutant("interreduce-skips-every-tail", "groebner",
           "if low is not None and lt > low:", "if False:",
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
    Mutant("verify-skips-terrace-instance", "determinantal",
           "if ter != seq:", "if False:",
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


def _pytest(src: str, tests, timeout: float) -> str:
    """'passed', 'failed' or 'undecided' for the test files run on src."""
    env = _env(src)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *(os.path.join(TESTS, t) for t in tests)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
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
        files = sorted({t for m in MUTANTS for t in m.tests})
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
