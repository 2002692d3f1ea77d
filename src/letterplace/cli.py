"""Batch command-line surface with stable file formats and exit codes.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 budget exceeded.  Output is deterministic JSON (sorted keys, version field)
so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .determinantal import LSequence, verify_main
from .errors import BudgetExceeded, ExplosionGuard, ToolkitError
from .homset import HomIdeal, enumerate_isotone
from .ideals import _ascents_outside, _checked_support, coletterplace_ideal, letterplace_ideal
from .monomial import (
    MonomialIdeal,
    alexander_dual,
    elem_var,
    hilbert_numerator,
    nat_var,
    parse_monomial,
)
from .poset import Poset
from .pstable import is_p_stable
from .quotient import FiberMap, project_ideal, regular_quotient_check
from .stable import dualize_ss, dualize_ss_bounded

VERSION = 3


def _emit(doc: dict, out_path=None, fmt: str = "json") -> None:
    doc = dict(doc)
    doc["version"] = VERSION
    if fmt == "text":
        lines = []
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, list) and all(not isinstance(v, dict) for v in value):
                lines.append(f"{key}:")
                lines.extend(f"  {v}" for v in value)
            else:
                lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_ideal_file(path: str) -> MonomialIdeal:
    """Monomial-ideal file: '# family=<elem|nat|pair> n=<k>' then one monomial per line."""
    lines = [ln.strip() for ln in _read(path).splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("ideal file must start with a '# family=... n=...' header")
    fields = {}
    for tok in lines[0][1:].split():
        if "=" not in tok:
            raise ValueError(f"ideal file header token {tok!r} is not of the form key=value")
        key, value = tok.split("=", 1)
        if key not in ("family", "n"):
            raise ValueError(f"ideal file header token {tok!r} has an unknown key; expected family and n")
        if key in fields:
            raise ValueError(f"ideal file header gives the key {key!r} twice")
        fields[key] = value
    family = fields.get("family", "pair")
    families = {"elem": elem_var, "nat": nat_var, "pair": None}
    if family not in families:
        raise ValueError(f"unknown family {family!r} in the ideal file header; expected elem, nat or pair")
    n = fields.get("n", "0")
    if not n.isdecimal():
        raise ValueError(f"n={n!r} in the ideal file header is not a non-negative integer")
    n = int(n)
    universe = [families[family](i) for i in range(n)] if families[family] and n else None
    gens = [parse_monomial(ln, family=family) for ln in lines[1:]]
    return MonomialIdeal(gens, universe)


def write_ideal_file(I: MonomialIdeal, family: str, path=None) -> str:
    n = len(I.universe)
    lines = [f"# family={family} n={n}"] + I.text_lines()
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _fiber_map(selector: str, ideal: MonomialIdeal) -> FiberMap:
    pairs = {(v.a, v.b) for g in ideal.gens for v, _ in g.exps}
    if selector == "p1":
        return FiberMap.projection_first(pairs)
    if selector == "p2":
        return FiberMap.projection_second(pairs)
    return FiberMap.from_json(_read(selector))


def _side_ideal(J: HomIdeal, side: str) -> MonomialIdeal:
    if side == "letterplace":
        return letterplace_ideal(J)
    return coletterplace_ideal(J)


# -- subcommand handlers ----------------------------------------------------


def _cmd_hom_enumerate(args) -> int:
    P = Poset.from_json(_read(args.poset))
    maps = enumerate_isotone(P, args.bound, args.cap)
    _emit({"count": len(maps), "maps": [list(m) for m in maps]}, args.output, args.format)
    return 0


def _cmd_markers(args) -> int:
    J = HomIdeal.from_json(_read(args.ideal))
    marks = [{"domain": [p for p, _ in row], "graph": row} for row in J._marker_graphs()]
    _emit({"markers": marks}, args.output, args.format)
    return 0


def _cmd_letterplace(args) -> int:
    J = HomIdeal.from_json(_read(args.ideal))
    ideal = _side_ideal(J, args.side)
    doc = {
        "generators": ideal.text_lines(J.poset.labels),
        "support": sorted(list(s) for s in _checked_support(J, ideal)),
        "bound_used": J.nmax(),
        "unit": ideal.is_unit,
        "zero": ideal.is_zero,
    }
    _emit(doc, args.output, args.format)
    return 0


def _cmd_dual_check(args) -> int:
    J = HomIdeal.from_json(_read(args.ideal))
    if J.kind == "principal":
        # the multichain route builds L independently of C
        L = letterplace_ideal(J)
        C = coletterplace_ideal(J)
        ok = alexander_dual(C, L.universe or C.universe).gens == L.gens
    else:
        # L is the dual of C by construction, as letterplace_ideal builds it,
        # so the markers are walked once.  Each generator of L is the ascent
        # of a non-member; every such ascent meets every marker graph, so lies
        # in the dual of C: L is the ideal of those ascents
        C = coletterplace_ideal(J)
        L = alexander_dual(C)
        ok = _ascents_outside(J, L)
    labels = J.poset.labels
    doc = {"dual_ok": ok, "letterplace": L.text_lines(labels), "coletterplace": C.text_lines(labels)}
    _emit(doc, args.output, args.format)
    return 0 if ok else 1


def _cmd_project(args) -> int:
    J = HomIdeal.from_json(_read(args.ideal))
    ideal = _side_ideal(J, args.side)
    fmap = _fiber_map(args.map, ideal)
    out = project_ideal(ideal, fmap)
    _emit({"generators": out.text_lines(), "side": args.side}, args.output, args.format)
    return 0


def _cmd_regular_check(args) -> int:
    J = HomIdeal.from_json(_read(args.ideal))
    ideal = _side_ideal(J, args.side)
    fmap = _fiber_map(args.map, ideal)
    ok = regular_quotient_check(ideal, fmap)
    _emit({"regular": ok, "side": args.side}, args.output, args.format)
    return 0 if ok else 1


def _cmd_pstable(args) -> int:
    P = Poset.from_json(_read(args.poset))
    I = read_ideal_file(args.gens)
    verdict = is_p_stable(P, I, args.mode, args.depth)
    _emit({"p_stable": verdict, "mode": args.mode}, args.output, args.format)
    return 0


def _cmd_ss_dualize(args) -> int:
    I = read_ideal_file(args.gens)
    if args.bound is not None:
        out = dualize_ss_bounded(I, args.bound)
        text = write_ideal_file(out, "elem", args.output)
    else:
        out = dualize_ss(I)
        text = write_ideal_file(out, "nat", args.output)
    if not args.output:
        sys.stdout.write(text)
    return 0


def _cmd_det_verify(args) -> int:
    seq = LSequence(args.a, tuple(int(t) for t in args.l.split(",")))
    report = verify_main(seq, args.pair_cap)
    _emit(report, args.output, args.format)
    return 0 if report["ok"] else 1


def _cmd_hilbert(args) -> int:
    I = read_ideal_file(args.gens)
    numerator = {str(d): c for d, c in sorted(hilbert_numerator(I).coeffs().items())}
    _emit({"numerator": numerator, "variables": len(I.universe)}, args.output, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="letterplace", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", "-o", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")

    hom = sub.add_parser("hom", help="Hom(P,N) queries").add_subparsers(
        dest="homcmd", required=True
    )
    p = hom.add_parser("enumerate", help="all isotone maps up to a value bound")
    p.add_argument("--poset", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--cap", type=int, default=10**7)
    add_output(p)
    p.set_defaults(func=_cmd_hom_enumerate)

    p = sub.add_parser("markers", help="minimal markers of a HomIdeal")
    p.add_argument("--ideal", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_markers)

    for side in ("letterplace", "coletterplace"):
        p = sub.add_parser(side, help=f"{side} generators of a HomIdeal")
        p.add_argument("--ideal", required=True)
        add_output(p)
        p.set_defaults(func=_cmd_letterplace, side=side)

    p = sub.add_parser("dual-check", help="verify the two ideals are Alexander dual")
    p.add_argument("--ideal", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_dual_check)

    for name, handler in (("project", _cmd_project), ("regular-check", _cmd_regular_check)):
        p = sub.add_parser(name)
        p.add_argument("--ideal", required=True)
        p.add_argument("--side", choices=("letterplace", "coletterplace"), required=True)
        p.add_argument("--map", required=True, help="p1, p2, or a fiber-map JSON file")
        add_output(p)
        p.set_defaults(func=handler)

    p = sub.add_parser("pstable", help="stability of a monomial ideal over a poset")
    p.add_argument("--poset", required=True)
    p.add_argument("--gens", required=True, help="monomial ideal file (family=elem)")
    p.add_argument("--mode", choices=("exact", "bounded"), default="exact")
    p.add_argument("--depth", type=int, default=None)
    add_output(p)
    p.set_defaults(func=_cmd_pstable)

    ss = sub.add_parser("ss", help="strongly stable ideals").add_subparsers(
        dest="sscmd", required=True
    )
    p = ss.add_parser("dualize", help="dual strongly stable ideal")
    p.add_argument("--gens", required=True)
    p.add_argument("--bound", type=int, default=None, help="deg window for the finite duality")
    add_output(p)
    p.set_defaults(func=_cmd_ss_dualize)

    det = sub.add_parser("det", help="staircase determinantal ideals").add_subparsers(
        dest="detcmd", required=True
    )
    p = det.add_parser("verify", help="initial ideal and codimension report")
    p.add_argument("--l", required=True, help="comma-separated weakly increasing values")
    p.add_argument("--a", type=int, default=0, help="starting index of the sequence")
    p.add_argument("--pair-cap", type=int, default=200_000,
                   help="most S-pairs to reduce")
    add_output(p)
    p.set_defaults(func=_cmd_det_verify)

    p = sub.add_parser("hilbert", help="Hilbert-series numerator of a monomial ideal")
    p.add_argument("--gens", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_hilbert)

    return top


_parser = None  # built on the first call of main; parse_args keeps no state between calls


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # by name at call time: the parser outlives the call that built it,
        # and a handler replaced on this module since (a test double, a
        # tracer) must be the one that runs
        return globals()[args.func.__name__](args)
    except (BudgetExceeded, ExplosionGuard) as exc:
        _emit({"error": str(exc), "reason": type(exc).__name__})
        return 3
    except (ToolkitError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc), "reason": type(exc).__name__})
        return 2


if __name__ == "__main__":
    sys.exit(main())
