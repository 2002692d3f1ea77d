"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions of each layer module, and a
few public methods of its classes, with timing wrappers, on the module
attribute and on every other toolkit module that imported the same object.
Calls through a module's own global name (``buchberger`` -> ``reduce``) and
through imported names (``ideals.enumerate_isotone``) are both caught.
``uninstall`` puts the originals back.

Every wrapped call adds its inclusive time to its caller's child time, so a
function's self time is its duration minus the time of the wrapped calls it
made.  Most wrapped functions also record a span (function, start, end,
parent span); the ones called per order query, per map or per variable record
only aggregated counts and times.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = (
    "poset",
    "homset",
    "monomial",
    "ideals",
    "quotient",
    "pstable",
    "stable",
    "groebner",
    "determinantal",
    "cli",
)

# Public methods wrapped per class; module-level public functions are found
# automatically.  Command handlers of the CLI are wrapped as well so that
# argument parsing can be told apart from the work of a command.
METHODS = {
    "poset": {"Poset": ("__init__", "leq", "lt", "comparable", "closure", "min_elements",
                        "max_elements", "is_ideal", "is_antichain", "ideals", "covers", "is_chain",
                        "up_set", "down_set")},
    "homset": {"HomIdeal": ("principal", "finite", "cofinite", "member", "members",
                            "complement_gens", "nmax", "is_marker", "minimal_markers")},
    "monomial": {"Monomial": ("divides",),
                 "MonomialIdeal": ("__init__", "contains", "with_universe", "text_lines")},
    "quotient": {"FiberMap": ("projection_first", "projection_second", "fibers")},
    "groebner": {"Polynomial": ("leading_monomial", "leading_coeff", "monic")},
}
CLI_HANDLER_PREFIX = "_cmd_"

# Called per order query, per map, per variable or per generator: these record
# aggregated counts and time but no span.
AGGREGATED = {
    "poset.Poset.__init__", "poset.Poset.leq", "poset.Poset.lt", "poset.Poset.comparable",
    "poset.Poset.closure", "poset.Poset.min_elements", "poset.Poset.max_elements",
    "poset.Poset.is_ideal", "poset.Poset.is_antichain", "poset.Poset.ideals", "poset.Poset.covers",
    "poset.Poset.is_chain", "poset.Poset.up_set", "poset.Poset.down_set",
    "poset.poset_from_covers", "poset.chain", "poset.antichain",
    "homset.is_isotone", "homset.check_isotone", "homset.dominates", "homset.check_marker_shape",
    "homset.HomIdeal.principal", "homset.HomIdeal.finite", "homset.HomIdeal.cofinite",
    "homset.HomIdeal.member", "homset.HomIdeal.complement_gens", "homset.HomIdeal.nmax",
    "homset.HomIdeal.is_marker",
    "ideals.ascent", "ideals.ascent_via_filters", "ideals.graph_pairs", "ideals.ascent_monomial",
    "ideals.hull_map",
    "monomial.pair_var", "monomial.elem_var", "monomial.nat_var", "monomial.var_text",
    "monomial.parse_monomial", "monomial.contains", "monomial.Monomial.divides",
    "monomial.MonomialIdeal.__init__", "monomial.MonomialIdeal.contains",
    "monomial.MonomialIdeal.with_universe", "monomial.MonomialIdeal.text_lines",
    "quotient.FiberMap.projection_first", "quotient.FiberMap.projection_second",
    "quotient.FiberMap.fibers",
    "pstable.lambda_bar", "pstable.lambda_bar_inv", "pstable.longest_b_chain",
    "groebner.lex_order", "groebner.grevlex_order", "groebner.diagonal_order",
    "groebner.parse_polynomial", "groebner.s_polynomial",
    "groebner.Polynomial.leading_monomial", "groebner.Polynomial.leading_coeff",
    "groebner.Polynomial.monic",
}


class Tracer:
    """Wrappers, their per-function statistics, spans and named counters.

    ``counters`` is shared with the workload, which adds counts that only it
    can see (bytes a CLI command wrote).
    """

    def __init__(self, counters=None):
        self.names = []  # function id -> "layer.qualname"
        self.layer_of = []  # function id -> layer
        self.stats = []  # function id -> [calls, outermost inclusive s, self s]
        self.active = []  # function id -> recursion depth
        self.spans = []  # (function id, start, end, parent span index or -1)
        self.counters = counters if counters is not None else {}
        self.stack = [[0.0, -1, -1]]  # frames: [child s, span index, function id]
        self._undo = []
        self._ids = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"letterplace.{name}") for name in LAYERS}
        everywhere = [importlib.import_module("letterplace")] + list(modules.values())
        hooks = self._hooks()
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                public = not name.startswith("_") or (layer == "cli" and name.startswith(CLI_HANDLER_PREFIX))
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self.wrap(layer, name, obj, hooks)
                    for other in everywhere:
                        if vars(other).get(name) is obj:
                            self._undo.append((other, name, obj))
                            setattr(other, name, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for name in methods:
                    raw = cls.__dict__[name]
                    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                    fn = raw.__func__ if kind else raw
                    wrapped = self.wrap(layer, f"{cls_name}.{name}", fn, hooks)
                    self._undo.append((cls, name, raw))
                    setattr(cls, name, kind(wrapped) if kind else wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def fid(self, qualified: str) -> int:
        if qualified not in self._ids:
            self._ids[qualified] = len(self.names)
            self.names.append(qualified)
            self.layer_of.append(qualified.split(".", 1)[0])
            self.stats.append([0, 0.0, 0.0])
            self.active.append(0)
        return self._ids[qualified]

    def wrap(self, layer: str, name: str, fn, hooks=None):
        qualified = f"{layer}.{name}"
        fid = self.fid(qualified)
        span = qualified not in AGGREGATED
        hook = (hooks or {}).get(f"{layer}.{CLI_HANDLER_PREFIX}" if name.startswith(CLI_HANDLER_PREFIX) else qualified)
        stack, spans, active, st = self.stack, self.spans, self.active, self.stats[fid]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], fid]
            if span:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            active[fid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[fid] -= 1
                d = t1 - t0
                parent[0] += d
                st[0] += 1
                if not active[fid]:
                    st[1] += d
                st[2] += d - frame[0]
                if span:
                    spans[frame[1]] = (fid, t0, t1, parent[1])
            if hook is not None:
                hook(args, kwargs, result, d, parent[2])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self) -> dict:
        c = self.counters
        letterplace = self.fid("ideals.letterplace_ideal")

        def add(key, amount):
            c[key] = c.get(key, 0) + amount

        def enumerate_hook(args, kwargs, result, d, caller):
            P = args[0]
            bound = args[1] if len(args) > 1 else kwargs["bound"]
            add("homset.maps_enumerated", len(result))
            add("homset.guard_limit", (bound + 1) ** P.n)

        def member_hook(args, kwargs, result, d, caller):
            if caller == letterplace and not result:
                add("ideals.letterplace_nonmembers", 1)

        def p_stable_hook(args, kwargs, result, d, caller):
            mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
            add(f"pstable.{mode}_s", d)

        return {
            "groebner.reduce": lambda a, k, r, d, caller: add("groebner.reduce_zero", int(not r)),
            "groebner.buchberger": lambda a, k, r, d, caller: add("groebner.gb_size", len(r)),
            "homset.enumerate_isotone": enumerate_hook,
            "homset.HomIdeal.member": member_hook,
            "homset.HomIdeal.minimal_markers": lambda a, k, r, d, caller: add("homset.markers_found", len(r)),
            "ideals.letterplace_ideal": lambda a, k, r, d, caller: add("ideals.letterplace_gens", len(r.gens)),
            "pstable.is_p_stable": p_stable_hook,
            f"cli.{CLI_HANDLER_PREFIX}": lambda a, k, r, d, caller: add("cli.handler_s", d),
        }

    # -- results ---------------------------------------------------------------

    def calls(self, qualified: str) -> int:
        return self.stats[self._ids[qualified]][0] if qualified in self._ids else 0

    def time(self, qualified: str) -> float:
        return self.stats[self._ids[qualified]][1] if qualified in self._ids else 0.0

    def self_time(self, layer: str) -> float:
        return sum(st[2] for st, lay in zip(self.stats, self.layer_of) if lay == layer)

    def count(self, key: str):
        return self.counters.get(key, 0)

    def ratio(self, num: str, den: str) -> float:
        d = self.count(den)
        return self.count(num) / d if d else 0.0

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.names, "spans": self.spans}, fh)


def _s(name):
    return lambda t: t.time(name)


def _calls(*names):
    return lambda t: sum(t.calls(n) for n in names)


def _self(layer):
    return lambda t: t.self_time(layer)


def _count(key):
    return lambda t: t.count(key)


# (metric, unit, better, how to read it off a finished Tracer)
LAYER_METRICS = [
    ("groebner.buchberger_s", "s", "lower", _s("groebner.buchberger")),
    ("groebner.reduce_calls", "count", "lower", _calls("groebner.reduce")),
    ("groebner.reduce_s", "s", "lower", _s("groebner.reduce")),
    ("groebner.reduce_zero", "count", "lower", _count("groebner.reduce_zero")),
    ("groebner.reduce_zero_ratio", "ratio", "lower",
     lambda t: t.count("groebner.reduce_zero") / max(t.calls("groebner.reduce"), 1)),
    ("groebner.s_pairs_reduced", "count", "lower", _calls("groebner.s_polynomial")),
    ("groebner.leading_monomial_calls", "count", "lower", _calls("groebner.Polynomial.leading_monomial")),
    ("groebner.gb_size", "count", "lower", _count("groebner.gb_size")),
    ("groebner.self_s", "s", "lower", _self("groebner")),
    ("determinantal.minors_s", "s", "lower", _s("determinantal.minors_with_positions")),
    ("determinantal.diagonal_leads_s", "s", "lower", _s("determinantal.diagonal_leads_ok")),
    ("determinantal.self_s", "s", "lower", _self("determinantal")),
    ("monomial.divides_calls", "count", "lower", _calls("monomial.Monomial.divides")),
    ("monomial.contains_calls", "count", "lower", _calls("monomial.MonomialIdeal.contains")),
    ("monomial.contains_s", "s", "lower", _s("monomial.MonomialIdeal.contains")),
    ("monomial.ideal_builds", "count", "lower", _calls("monomial.MonomialIdeal.__init__")),
    ("monomial.ideal_build_s", "s", "lower", _s("monomial.MonomialIdeal.__init__")),
    ("monomial.alexander_dual_s", "s", "lower", _s("monomial.alexander_dual")),
    ("monomial.height_s", "s", "lower", _s("monomial.height")),
    ("monomial.hilbert_calls", "count", "lower", _calls("monomial.hilbert_numerator")),
    ("monomial.hilbert_s", "s", "lower", _s("monomial.hilbert_numerator")),
    ("monomial.self_s", "s", "lower", _self("monomial")),
    ("poset.builds", "count", "lower", _calls("poset.Poset.__init__")),
    ("poset.build_s", "s", "lower", _s("poset.Poset.__init__")),
    ("poset.order_queries", "count", "lower", _calls("poset.Poset.leq", "poset.Poset.lt", "poset.Poset.comparable")),
    ("poset.self_s", "s", "lower", _self("poset")),
    ("homset.enumerate_calls", "count", "lower", _calls("homset.enumerate_isotone")),
    ("homset.maps_enumerated", "count", "lower", _count("homset.maps_enumerated")),
    ("homset.guard_limit", "count", "lower", _count("homset.guard_limit")),
    ("homset.guard_use_ratio", "ratio", "higher", lambda t: t.ratio("homset.maps_enumerated", "homset.guard_limit")),
    ("homset.enumerate_s", "s", "lower", _s("homset.enumerate_isotone")),
    ("homset.complement_gens_s", "s", "lower", _s("homset.HomIdeal.complement_gens")),
    ("homset.markers_s", "s", "lower", _s("homset.HomIdeal.minimal_markers")),
    ("homset.markers_found", "count", "lower", _count("homset.markers_found")),
    ("homset.self_s", "s", "lower", _self("homset")),
    ("ideals.letterplace_s", "s", "lower", _s("ideals.letterplace_ideal")),
    ("ideals.coletterplace_s", "s", "lower", _s("ideals.coletterplace_ideal")),
    ("ideals.support_s", "s", "lower", _s("ideals.support")),
    ("ideals.ascent_calls", "count", "lower", _calls("ideals.ascent")),
    ("ideals.letterplace_gens", "count", "lower", _count("ideals.letterplace_gens")),
    ("ideals.letterplace_nonmembers", "count", "lower", _count("ideals.letterplace_nonmembers")),
    ("ideals.letterplace_yield_ratio", "ratio", "higher",
     lambda t: t.ratio("ideals.letterplace_gens", "ideals.letterplace_nonmembers")),
    ("ideals.self_s", "s", "lower", _self("ideals")),
    ("quotient.project_s", "s", "lower", _s("quotient.project_ideal")),
    ("quotient.regular_checks", "count", "lower", _calls("quotient.regular_quotient_check")),
    ("quotient.regular_check_s", "s", "lower", _s("quotient.regular_quotient_check")),
    ("quotient.self_s", "s", "lower", _self("quotient")),
    ("pstable.exact_s", "s", "lower", _count("pstable.exact_s")),
    ("pstable.bounded_s", "s", "lower", _count("pstable.bounded_s")),
    ("pstable.lambda_bar_calls", "count", "lower", _calls("pstable.lambda_bar")),
    ("pstable.lambda_bar_inv_calls", "count", "lower", _calls("pstable.lambda_bar_inv")),
    ("pstable.longest_b_chain_s", "s", "lower", _s("pstable.longest_b_chain")),
    ("pstable.self_s", "s", "lower", _self("pstable")),
    ("stable.dualize_s", "s", "lower", _s("stable.dualize_ss")),
    ("stable.homideal_from_ss_s", "s", "lower", _s("stable.homideal_from_ss")),
    ("stable.borel_closure_s", "s", "lower", _s("stable.borel_closure")),
    ("stable.self_s", "s", "lower", _self("stable")),
    ("cli.commands", "count", "higher", _calls("cli.main")),
    ("cli.parse_s", "s", "lower", lambda t: t.time("cli.main") - t.count("cli.handler_s")),
    ("cli.self_s", "s", "lower", _self("cli")),
    ("cli.bytes_out", "bytes", "lower", _count("cli.bytes_out")),
    ("bench.self_s", "s", "lower", _self("bench")),
]
