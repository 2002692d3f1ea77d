"""Benchmark for the letterplace toolkit: one command for all four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: det-verify, duality-sweep, stability-sweep, cli-ideals (see
bench/NOTES.md for why each was chosen).  The toolkit is imported from
``src/`` next to this directory; without it the run exits with code 1 and
prints no result.

--trace 0 (timed run): import the toolkit and build the workload's inputs
several times (SETUP_MIN to SETUP_MAX) and report the median as setup_s,
then run items back to back in one process (closed loop, one client) in
rounds until S seconds have passed, finishing the round in progress.
Reports the end-to-end metrics.  Times are in nominal seconds on the
reference clock (see RefClock): an interval timer samples a fixed piece of
pure-Python work while the items run, and each group of items is scaled by
how fast that work ran meanwhile, so that the figures do not follow the
speed of a shared machine.

--trace 1 (traced run): set up as above, run the workload's fixed trace
prefix untraced, then again with every layer wrapped (see
tracing.py), and report the per-layer metrics and the tracing overhead.  The
prefix depends only on the seed, so counts repeat exactly; S is not used.
Spans are written to .bench_work/trace-<workload>-<seed>.json.

Both modes check every item's result and print, as the last line of stdout,
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# Set-up runs at least SETUP_MIN times, and more (up to SETUP_MAX) until
# SETUP_RAW_S raw seconds have gone into it; setup_s is the median.
SETUP_MIN = 5
SETUP_MAX = 25
SETUP_RAW_S = 2.0
TAIL_BEYOND = 10
# The reference clock: one reference unit takes REF_UNIT_S seconds at the
# nominal speed (a 2-vCPU cloud VM running CPython 3.11, when not slowed by
# its neighbours).  A unit runs every SAMPLE_S seconds of wall time.  An
# item during which ITEM_SAMPLES units ran is scaled by those units alone;
# shorter items are scaled in groups that span GROUP_SAMPLES units.
REF_UNIT_S = 0.00125
SAMPLE_S = 0.025
ITEM_SAMPLES = 2
GROUP_SAMPLES = 8


def reference_unit() -> int:
    """Fixed pure-Python work that calls no toolkit code: tuples, bit tests,
    generator expressions and dict updates, as in the toolkit's inner loops."""
    count, table = 0, {}
    for mask in range(1 << 9):
        rel = tuple(p for p in range(9) if mask >> p & 1)
        key = (len(rel), sum(rel) % 7)
        table[key] = table.get(key, 0) + 1
        if all(b - a > 1 for a, b in zip(rel, rel[1:])):
            count += 1
    return count + len(table)


class RefClock:
    """Measures work in nominal seconds, while an interval timer samples the
    machine's speed.

    On a shared machine the speed of one process changes by up to 2x over
    minutes and by tens of percent from one second to the next.  Inside the
    ``with`` block, SIGALRM runs one reference unit every SAMPLE_S seconds,
    in the middle of whatever is running.  ``raw()`` is a clock that leaves
    the time spent in those units out.  ``factor(mark)`` is REF_UNIT_S over
    the mean time of the units run since ``mark``: it turns raw seconds of
    that stretch into nominal ones.  Work that gets slower relative to the
    reference shows; the machine getting slower as a whole does not.  The
    handler is a signal handler, not a thread: it runs in the main thread
    between two bytecodes of the work it interrupts.
    """

    def __init__(self):
        self.units = 0
        self.unit_wall = 0.0  # raw seconds spent in reference units
        self.factors = []  # one per group, for the run's notes
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_unit()
        self.unit_wall += time.perf_counter() - t0
        self.units += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def raw(self) -> float:
        return time.perf_counter() - self.unit_wall

    def mark(self) -> tuple:
        return self.units, self.unit_wall

    def factor(self, mark: tuple, until: tuple = None) -> float:
        """nominal / raw for the work from mark to until (default: now); with no
        unit run in between, for the work from mark to now, or failing that
        over everything sampled so far."""
        until = until or self.mark()
        units, wall = until[0] - mark[0], until[1] - mark[1]
        if not units:
            units, wall = self.units - mark[0], self.unit_wall - mark[1]
        if not units:
            units, wall = self.units, self.unit_wall
        self.factors.append(REF_UNIT_S * units / wall)
        return self.factors[-1]


def fresh_setup(seed: int, name: str, target: str, counters: dict):
    """Import the toolkit and the workloads module afresh and build the inputs.

    Modules imported by an earlier repeat are dropped from sys.modules first,
    so every repeat pays for the import, as a new process would.
    """
    for module in [m for m in sys.modules if m in ("letterplace", "workloads") or m.startswith("letterplace.")]:
        del sys.modules[module]
    letterplace = importlib.import_module("letterplace")
    importlib.import_module("letterplace.cli")  # not imported by the package itself
    if not os.path.abspath(letterplace.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported letterplace from {letterplace.__file__}, not {SRC}")
    workloads = importlib.import_module("workloads")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    errors = importlib.import_module("letterplace.errors")
    return workloads.WORKLOADS[name](seed, target, counters), (errors.BudgetExceeded, errors.ExplosionGuard)


def run_item(fn, budget_errors):
    """(status, payload): ok, wrong (result missed its expectation), budget
    (BudgetExceeded or ExplosionGuard) or error (any other exception)."""
    try:
        ok, payload = fn()
    except budget_errors as exc:
        return "budget", f"{type(exc).__name__}: {exc}"
    except Exception:  # the run goes on; the item is reported as failed and wrong
        return "error", traceback.format_exc()
    return ("ok" if ok else "wrong"), payload


class Pass:
    """Outcome of running a sequence of items."""

    def __init__(self):
        self.times = []  # seconds per item, nominal in a timed run and raw in a traced one
        self.failed = []  # True where the item failed
        self.ok = 0
        self.problems = []  # (label, status, detail)
        self.digest = hashlib.sha256()
        self.wall = 0.0  # raw seconds from start to end, reference units included
        self.round_rates = []  # items that finished correctly per second of item time, one per round

    def record(self, fn, status, payload, seconds):
        self.digest.update(f"{fn.label}\n{status}\n{payload}\n".encode())
        self.times.append(seconds)
        self.failed.append(status != "ok")
        if status == "ok":
            self.ok += 1
        else:
            self.problems.append((fn.label, status, payload.strip().splitlines()[-1] if payload.strip() else ""))

    def durations(self) -> list:
        """Item times, failed items as infinity."""
        return [math.inf if bad else t for t, bad in zip(self.times, self.failed)]

    @property
    def correct(self) -> bool:
        return all(status == "budget" for _, status, _ in self.problems)


def run_pass(items, budget_errors, deadline=None, round_size=None, clock=None) -> Pass:
    """Run items in order; with a deadline, cycle through them in rounds until
    the deadline has passed at a round boundary.  With a RefClock, item times
    are nominal seconds: an item that spans ITEM_SAMPLES reference units is
    scaled by its own, and the items between two such are scaled in groups
    that span GROUP_SAMPLES units (a round's last group may span fewer)."""
    out = Pass()
    now = clock.raw if clock else time.perf_counter
    start = time.perf_counter()
    k = 0
    size = round_size or len(items)
    while True:
        first = len(out.times)
        group_start, mark = first, clock and clock.mark()
        for i in range(size):
            fn = items[k % len(items)]
            k += 1
            before = clock and clock.mark()
            t0 = now()
            status, payload = run_item(fn, budget_errors)
            out.record(fn, status, payload, now() - t0)
            if not clock:
                continue
            last = len(out.times) - 1
            if clock.units - before[0] >= ITEM_SAMPLES:
                if group_start < last:
                    factor = clock.factor(mark, before)
                    out.times[group_start:last] = [t * factor for t in out.times[group_start:last]]
                out.times[last] *= clock.factor(before)
            elif clock.units - mark[0] >= GROUP_SAMPLES or i == size - 1:
                factor = clock.factor(mark)
                out.times[group_start:] = [t * factor for t in out.times[group_start:]]
            else:
                continue
            group_start, mark = len(out.times), clock.mark()
        ok = sum(1 for bad in out.failed[first:] if not bad)
        out.round_rates.append(ok / sum(out.times[first:]))
        if deadline is None or time.perf_counter() >= deadline:
            break
    out.wall = time.perf_counter() - start
    return out


def end_to_end(p: Pass, setup_s: float, clock: RefClock) -> tuple:
    """Metrics plus the lines that explain them (tail percentile and its base)."""
    n = len(p.times)
    per_round = n // len(p.round_rates)
    ordered = sorted(p.durations())
    p50 = statistics.median(ordered)
    # The tail percentile is the highest with TAIL_BEYOND items of one round
    # beyond it, so it stays the same however many rounds a run makes.
    share = (per_round - TAIL_BEYOND) / per_round
    has_tail = share > 0.5
    tail = ordered[math.ceil(share * n) - 1] if has_tail else p50
    failed = n - p.ok
    metrics = {
        "items_per_s": (statistics.median(p.round_rates), "1/s"),
        "item_ms_p50": (1000 * p50, "ms"),
        "item_ms_tail": (1000 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    factors = sorted(clock.factors)
    notes = [
        f"tail: p{100 * share:.2f} (a round of {per_round} items has {TAIL_BEYOND} beyond it) of {n} items,"
        f" {n - math.ceil(share * n)} beyond it" if has_tail
        else f"tail: none, a round of {per_round} items leaves fewer than {TAIL_BEYOND} beyond any percentile"
        " above the median; item_ms_tail repeats item_ms_p50",
        f"fail_ratio: {failed / n:.4f} ({failed} failed / {n} attempted)",
        f"items_per_s: median over {len(p.round_rates)} rounds; over the whole run, {p.ok / sum(p.times):.4f} items/s",
        f"reference clock: {len(factors)} groups, nominal/raw speed factor median {statistics.median(factors):.4f}"
        f" (min {factors[0]:.4f}, max {factors[-1]:.4f}); {clock.units} reference units took"
        f" {clock.unit_wall:.2f} s of the {p.wall:.2f} s run",
    ]
    return metrics, notes


def layer_metrics(tracer, untraced: Pass, traced: Pass) -> dict:
    from tracing import LAYER_METRICS

    metrics = {name: (read(tracer), unit) for name, unit, _, read in LAYER_METRICS}
    covered = sum(st[2] for st in tracer.stats)
    metrics.update(
        {
            "trace.items": (len(traced.times), "count"),
            "trace.spans": (len(tracer.spans), "count"),
            "trace.wall_s": (traced.wall, "s"),
            "trace.untraced_wall_s": (untraced.wall, "s"),
            "trace.overhead_s": (traced.wall - untraced.wall, "s"),
            "trace.self_coverage": (covered / traced.wall, "ratio"),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "letterplace", "__init__.py")):
        raise SystemExit(f"bench: toolkit sources not found under {SRC}")
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        counters = {}
        clock = RefClock()
        with clock:
            setups, spent = [], time.perf_counter()
            while len(setups) < SETUP_MIN or (time.perf_counter() - spent < SETUP_RAW_S and len(setups) < SETUP_MAX):
                target = os.path.join(workdir, f"setup{len(setups)}")
                os.mkdir(target)
                gc.collect()  # drop the previous repeat's modules and inputs, as a new process would
                before, t0 = clock.mark(), clock.raw()
                workload, budget_errors = fresh_setup(args.seed, args.workload, target, counters)
                setups.append((clock.raw() - t0, before, clock.mark()))
            # A repeat that spans ITEM_SAMPLES reference units is scaled by its
            # own, a shorter one by all the units that ran during set-up.
            setups = [raw * clock.factor(before if after[0] - before[0] >= ITEM_SAMPLES else setups[0][1], after)
                      for raw, before, after in setups]
            setup_s = statistics.median(setups)
            if not args.trace:
                result = run_pass(workload.items, budget_errors, time.perf_counter() + args.seconds,
                                  workload.round_size, clock)
        labels = "\n".join(fn.label for fn in workload.items)
        print(f"workload {args.workload} seed {args.seed}: {len(workload.items)} distinct items, shape "
              f"{json.dumps(workload.shape, sort_keys=True)}")
        print(f"inputs digest {hashlib.sha256(labels.encode()).hexdigest()}")
        print(f"setup (import and input build), median of {', '.join(f'{s:.4f}' for s in setups)} nominal s")

        if args.trace:
            from tracing import Tracer

            items = workload.items[: workload.trace_items]
            untraced = run_pass(items, budget_errors)
            counters.clear()
            tracer = Tracer(counters)
            tracer.install()
            try:
                traced = run_pass([_rooted(tracer, fn) for fn in items], budget_errors)
            finally:
                tracer.uninstall()
            tracer.write_spans(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))
            result, metrics = traced, layer_metrics(tracer, untraced, traced)
            notes = [f"traced {len(items)} items: {traced.wall:.3f} s traced, {untraced.wall:.3f} s untraced"]
        else:
            metrics, notes = end_to_end(result, setup_s, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"outputs digest {result.digest.hexdigest()} over {len(result.times)} items "
          f"(verify_main's runtime_s is left out)")
    for label, status, detail in result.problems:
        print(f"failed: {label}: {status}: {detail}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    failed = len(result.times) - result.ok
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": len(result.times),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def _rooted(tracer, fn):
    wrapped = tracer.wrap("bench", "item", fn)
    wrapped.label = fn.label
    return wrapped


if __name__ == "__main__":
    sys.exit(main())
