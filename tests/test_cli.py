"""Command-line surface: formats, determinism, exit codes."""

import contextlib
import functools
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letterplace.cli import main, read_ideal_file, write_ideal_file
from letterplace.homset import HomIdeal
from letterplace.monomial import Monomial, MonomialIdeal, elem_var
from letterplace.poset import antichain, chain, poset_from_covers

from util import hilbert_incl_excl


@pytest.fixture
def running_example(tmp_path):
    J = HomIdeal.principal(chain(3), (1, 1, 2))
    path = tmp_path / "ideal.json"
    path.write_text(J.to_json())
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_letterplace_running_example(running_example, capsys):
    code, out = run(capsys, "letterplace", "--ideal", str(running_example))
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == [
        "x[1,0]*x[1,1]",
        "x[1,0]*x[2,1]",
        "x[2,0]*x[2,1]",
        "x[1,0]*x[3,1]*x[3,2]",
        "x[2,0]*x[3,1]*x[3,2]",
        "x[3,0]*x[3,1]*x[3,2]",
    ]
    assert doc["bound_used"] == 3
    assert doc["version"] == 3


def test_byte_identical_reruns(running_example, capsys):
    _, first = run(capsys, "coletterplace", "--ideal", str(running_example))
    _, second = run(capsys, "coletterplace", "--ideal", str(running_example))
    assert first == second


def test_dual_check_exit_zero(running_example, capsys):
    code, out = run(capsys, "dual-check", "--ideal", str(running_example))
    assert code == 0
    assert json.loads(out)["dual_ok"] is True


def test_markers_output(running_example, capsys):
    code, out = run(capsys, "markers", "--ideal", str(running_example))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["markers"]) == 7
    assert all(m["domain"] == [0, 1, 2] for m in doc["markers"])


def test_hom_enumerate(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(chain(2).to_json())
    code, out = run(capsys, "hom", "enumerate", "--poset", str(path), "--bound", "1")
    assert code == 0
    assert json.loads(out)["maps"] == [[0, 0], [0, 1], [1, 1]]


def test_hom_enumerate_on_a_chain_deeper_than_the_recursion_limit(tmp_path, capsys):
    n = sys.getrecursionlimit() + 200
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"n": n, "covers": [[i, i + 1] for i in range(n - 1)]}))
    code, out = run(capsys, "hom", "enumerate", "--poset", str(path), "--bound", "0")
    assert code == 0
    assert json.loads(out)["maps"] == [[0] * n]


def test_project_and_regular_check(running_example, capsys):
    code, out = run(
        capsys, "project", "--ideal", str(running_example), "--side", "letterplace",
        "--map", "p1",
    )
    assert code == 0
    assert json.loads(out)["generators"] == [
        "x[0]*x[1]", "x[0]^2", "x[1]^2", "x[0]*x[2]^2", "x[1]*x[2]^2", "x[2]^3",
    ]
    code, _ = run(
        capsys, "regular-check", "--ideal", str(running_example), "--side",
        "letterplace", "--map", "p1",
    )
    assert code == 0


def test_regular_check_failure_exit_one(tmp_path, capsys):
    J = HomIdeal.principal(antichain(2), (0, 0))
    ideal_path = tmp_path / "ideal.json"
    ideal_path.write_text(J.to_json())
    # merging the two incomparable support positions is not a strict fiber map
    fmap_path = tmp_path / "fmap.json"
    fmap_path.write_text(
        json.dumps({"source": [[0, 0], [1, 0]], "assignment": [["pair", 0, 0], ["pair", 0, 0]]})
    )
    code, out = run(
        capsys, "regular-check", "--ideal", str(ideal_path), "--side", "letterplace",
        "--map", str(fmap_path),
    )
    assert code == 1
    assert json.loads(out)["regular"] is False


@pytest.mark.parametrize("command", ["project", "regular-check"])
def test_fiber_map_with_unknown_variables_exit_two(tmp_path, capsys, command):
    # "foo" is no variable family, and an elem variable has one index
    J = HomIdeal.principal(chain(2), (1, 1))
    ideal_path = tmp_path / "ideal.json"
    ideal_path.write_text(J.to_json())
    fmap_path = tmp_path / "fmap.json"
    fmap_path.write_text(json.dumps({
        "source": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "assignment": [["foo", 0], ["foo", 0], ["elem", 1, 7], ["elem", 1, 7]],
    }))
    code, out = run(
        capsys, command, "--ideal", str(ideal_path), "--side", "letterplace", "--map", str(fmap_path),
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["reason"] == "ValueError"
    assert doc["error"].startswith('assignment entry ["foo", 0] is not')


@pytest.mark.parametrize("command", ["project", "regular-check"])
@pytest.mark.parametrize(
    "source, assignment, message",
    [([[0, 0]], [["elem", 0], ["elem", 1]], "the source has 1 pairs but the assignment has 2 entries"),
     ([[0, 0], [0, 0]], [["elem", 0], ["elem", 1]], "source pair [0, 0] is listed twice")],
    ids=["longer-assignment", "repeated-pair"],
)
def test_fiber_map_source_and_assignment_must_match_exit_two(tmp_path, capsys, command, source,
                                                             assignment, message):
    J = HomIdeal.principal(chain(2), (1, 1))
    ideal_path = tmp_path / "ideal.json"
    ideal_path.write_text(J.to_json())
    fmap_path = tmp_path / "fmap.json"
    fmap_path.write_text(json.dumps({"source": source, "assignment": assignment}))
    code, out = run(
        capsys, command, "--ideal", str(ideal_path), "--side", "letterplace", "--map", str(fmap_path),
    )
    assert code == 2
    doc = json.loads(out)
    assert (doc["reason"], doc["error"]) == ("ValueError", message)


def test_pstable_rejects_negative_depth(tmp_path, capsys):
    poset_path = tmp_path / "poset.json"
    poset_path.write_text(poset_from_covers(3, [(0, 1), (0, 2)]).to_json())
    gens_path = tmp_path / "gens.txt"
    gens_path.write_text("# family=elem n=3\n" + "\n".join(
        ["x[0]^2", "x[1]^2", "x[2]^2", "x[0]*x[1]", "x[0]*x[2]", "x[1]*x[2]"]) + "\n")
    argv = ["pstable", "--poset", str(poset_path), "--gens", str(gens_path), "--mode", "bounded"]
    code, out = run(capsys, *argv)
    assert (code, json.loads(out)["p_stable"]) == (0, False)
    code, out = run(capsys, *argv, "--depth", "-1")
    assert code == 2
    assert json.loads(out)["error"] == "depth must be a non-negative integer, got -1"


def test_pstable_command(tmp_path, capsys):
    poset_path = tmp_path / "poset.json"
    poset_path.write_text(chain(3).to_json())
    I = MonomialIdeal(
        [Monomial([(elem_var(p), 2)]) for p in range(3)]
        + [Monomial([(elem_var(p), 1), (elem_var(q), 1)]) for p in range(3) for q in range(p)],
        [elem_var(p) for p in range(3)],
    )
    gens_path = tmp_path / "gens.txt"
    write_ideal_file(I, "elem", gens_path)
    code, out = run(
        capsys, "pstable", "--poset", str(poset_path), "--gens", str(gens_path),
        "--mode", "exact",
    )
    assert code == 0
    assert json.loads(out)["p_stable"] is True


@pytest.mark.parametrize("mode", ["exact", "bounded"])
@pytest.mark.parametrize(
    "text, shown",
    [("# family=nat n=2\nx[0]^2\nx[1]^2\n", "nat variable x[0], nat variable x[1]"),
     ("# family=elem n=4\nx[0]^2\nx[1]^2\nx[3]\n", "elem variable x[3]")],
)
def test_pstable_rejects_foreign_variables(tmp_path, capsys, mode, text, shown):
    poset_path = tmp_path / "poset.json"
    poset_path.write_text(chain(2).to_json())
    gens_path = tmp_path / "gens.txt"
    gens_path.write_text(text)
    code, out = run(
        capsys, "pstable", "--poset", str(poset_path), "--gens", str(gens_path), "--mode", mode,
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["reason"] == "ValueError"
    assert doc["error"].startswith(f"generators use {shown}, not x[p]")


@pytest.mark.parametrize(
    "header, message",
    [("# family=elm n=2", "unknown family 'elm'"),
     ("# family elem n=2", "header token 'family' is not of the form key=value"),
     ("# family=elem N=3", "header token 'N=3' has an unknown key; expected family and n"),
     ("# family=elem n=x", "n='x' in the ideal file header is not a non-negative integer"),
     ("# family=elem n=-1", "n='-1' in the ideal file header is not a non-negative integer"),
     ("# family=elem family=nat n=2", "ideal file header gives the key 'family' twice"),
     # the monomial lines must use the header's family: the file goes on with x[0]^2
     ("# family=pair n=0", "factor 'x[0]^2' is not a variable x[p,i] of family pair"),
     ("# family=pair n=0\nx[3]*x[0,1]", "factor 'x[3]' is not a variable x[p,i] of family pair"),
     ("# family=nat n=3\nx[0,1]*y[2]", "factor 'x[0,1]' is not a variable x[p] of family nat"),
     ("# family=elem n=3\ny[2]", "factor 'y[2]' is not a variable x[p] of family elem")],
)
def test_ideal_file_header_is_checked(tmp_path, capsys, header, message):
    path = tmp_path / "gens.txt"
    path.write_text(f"{header}\nx[0]^2\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_ideal_file(path)
    code, out = run(capsys, "hilbert", "--gens", str(path))
    assert code == 2
    assert message in json.loads(out)["error"]


CHAIN2 = {"n": 2, "covers": [[0, 1]]}


@pytest.mark.parametrize(
    "command, doc, message",
    [("hom", {"n": -1, "covers": []}, "poset n must be a non-negative integer, got -1"),
     ("hom", {"n": "3", "covers": []}, 'poset n must be a non-negative integer, got "3"'),
     ("hom", {"n": 2.0, "covers": []}, "poset n must be a non-negative integer, got 2.0"),
     ("hom", {"n": 2, "covers": [[0, 1.5]]}, "a cover must be a list of integers, got [0, 1.5]"),
     ("hom", [2, [[0, 1]]], "a poset must be a JSON object with keys n and covers"),
     ("ideal", {"poset": {"n": 2.0, "covers": []}, "repr": {"principal": [0, 1]}},
      "poset n must be a non-negative integer, got 2.0"),
     ("ideal", {"poset": CHAIN2, "repr": {"principal": [0, "a"]}},
      'a principal map must be a list of integers, got [0, "a"]'),
     ("ideal", {"poset": CHAIN2, "repr": {"finite": [[0, 0], [0, 1.5]]}},
      "a finite map must be a list of integers, got [0, 1.5]"),
     ("ideal", {"poset": CHAIN2, "repr": {"cofinite": [[0, True]]}},
      "a cofinite map must be a list of integers, got [0, true]"),
     ("ideal", {"poset": CHAIN2, "repr": {"principal": [0, 1], "finite": [[0, 0]]}},
      "repr has one key: principal, finite or cofinite")],
    ids=["negative-n", "string-n", "float-n", "float-cover", "list-poset", "float-n-in-ideal",
         "string-value", "float-value", "bool-value", "two-reprs"],
)
def test_bad_poset_and_homideal_json_exit_two(tmp_path, capsys, command, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if command == "hom":
        argv = ["hom", "enumerate", "--poset", str(path), "--bound", "1"]
    else:
        argv = ["letterplace", "--ideal", str(path)]
    code, out = run(capsys, *argv)
    assert code == 2
    report = json.loads(out)
    assert report["reason"] == "ValueError"
    assert message in report["error"]


def test_ideal_file_round_trip(tmp_path):
    I = MonomialIdeal(
        [Monomial([(elem_var(0), 2)]), Monomial([(elem_var(0), 1), (elem_var(1), 1)])],
        [elem_var(0), elem_var(1)],
    )
    path = tmp_path / "ideal.txt"
    write_ideal_file(I, "elem", path)
    again = read_ideal_file(path)
    assert again.gens == I.gens and again.universe == I.universe


def test_ss_dualize_command(tmp_path, capsys):
    I = MonomialIdeal([Monomial([(elem_var(0), 3)])], [elem_var(0)])
    gens_path = tmp_path / "gens.txt"
    write_ideal_file(I, "elem", gens_path)
    code, out = run(capsys, "ss", "dualize", "--gens", str(gens_path))
    assert code == 0
    assert out.splitlines() == ["# family=nat n=3", "x[0]", "x[1]", "x[2]"]


def test_det_verify_command(capsys):
    code, out = run(capsys, "det", "verify", "--l", "0,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["codim"]["height"] == 2


def test_det_verify_budget_exit_three(capsys):
    code, out = run(capsys, "det", "verify", "--l", "0,0,4", "--pair-cap", "0")
    assert code == 3
    assert json.loads(out)["reason"] == "BudgetExceeded"


def test_malformed_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "letterplace", "--ideal", str(bad))
    assert code == 2
    assert "error" in json.loads(out)


def test_missing_file_exit_two(capsys):
    code, out = run(capsys, "letterplace", "--ideal", "/nonexistent/path.json")
    assert code == 2


def test_usage_error_exit_two(capsys):
    assert main(["det", "verify"]) == 2  # --l missing


def test_hilbert_command(tmp_path, capsys):
    I = MonomialIdeal([Monomial([(elem_var(0), 2)])], [elem_var(0), elem_var(1)])
    gens_path = tmp_path / "gens.txt"
    write_ideal_file(I, "elem", gens_path)
    code, out = run(capsys, "hilbert", "--gens", str(gens_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["numerator"] == {"0": 1, "2": -1}
    assert doc["variables"] == 2


def test_hilbert_command_high_exponents(tmp_path, capsys):
    # thousands of polarization copies per variable overflowed the recursion
    # of the numerator before; the level polarization has 7 bits here
    gens_path = tmp_path / "gens.txt"
    gens_path.write_text(
        "# family=elem n=3\nx[0]^2500\nx[0]^1250*x[1]^1250\nx[1]^2500\nx[0]*x[1]*x[2]^2500\n"
    )
    code, out = run(capsys, "hilbert", "--gens", str(gens_path))
    assert code == 0
    K = hilbert_incl_excl(read_ideal_file(gens_path).gens)
    assert json.loads(out) == {
        "numerator": {str(d): c for d, c in sorted(K.coeffs().items())},
        "variables": 3,
        "version": 3,
    }


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "letterplace.cli", "det", "verify", "--l", "0,1,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_text_format(running_example, capsys):
    code, out = run(
        capsys, "letterplace", "--ideal", str(running_example), "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert "generators:" in lines
    assert "  x[1,0]*x[1,1]" in lines
    assert "bound_used: 3" in lines


def test_det_verify_echoes_budget(capsys):
    code, out = run(capsys, "det", "verify", "--l", "0,1,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["budget"] == {"pair_cap": 200000}
    code, out = run(capsys, "det", "verify", "--l", "0,1,3", "--pair-cap", "9")
    assert code == 0
    assert json.loads(out)["budget"] == {"pair_cap": 9}
    # the pair cap is the one budget: a degree cap is an unknown option
    assert main(["det", "verify", "--l", "0,1,3", "--degree-cap", "5"]) == 2


def test_output_file_writing(running_example, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, printed = run(
        capsys, "letterplace", "--ideal", str(running_example), "-o", str(out_path)
    )
    assert code == 0 and printed == ""
    assert json.loads(out_path.read_text())["bound_used"] == 3


GOLDEN = Path(__file__).parent / "data" / "golden_cli"
GOLDEN_IDEALS = ("principal", "finite", "cofinite")


@pytest.mark.parametrize(
    "name, argv",
    [("hom_enumerate", ["hom", "enumerate", "--poset", "poset.json", "--bound", "2"])]
    + [
        (f"{cmd}_{kind}", [cmd, "--ideal", f"{kind}.json"])
        for cmd in ("markers", "letterplace", "coletterplace", "dual-check")
        for kind in GOLDEN_IDEALS
    ]
    + [("hilbert", ["hilbert", "--gens", "hilbert_gens.txt"])]
    + [
        (f"{cmd}_{side}_{kind}", [cmd, "--ideal", f"{kind}.json", "--side", side, "--map", fmap])
        for cmd in ("project", "regular-check")
        for side, fmap in (("letterplace", "p1"), ("coletterplace", "p2"))
        for kind in GOLDEN_IDEALS
    ]
    + [
        ("ss_dualize", ["ss", "dualize", "--gens", "ss_gens.txt"]),
        ("ss_dualize_bound_3", ["ss", "dualize", "--gens", "ss_gens.txt", "--bound", "3"]),
        ("regular-check_letterplace_chain_merge",
         ["regular-check", "--ideal", "chain_principal.json", "--side", "letterplace",
          "--map", "chain_merge_map.json"]),
    ],
)
def test_golden_stdout(name, argv, capsys):
    """Stdout is byte-identical to the recorded outputs in tests/data/golden_cli.

    The inputs are a labelled fence a < c > b < d, one principal, one finite
    and one cofinite HomIdeal on it, and a monomial ideal in five variables
    with exponents up to 3 for `hilbert`, and the strongly stable Borel
    closure of x[1]^2*x[3] and x[0]*x[2]^2 in four variables for
    `ss dualize`; `<name>.out` holds what
    `letterplace <argv>` printed when the outputs were recorded.  The fence
    is not a chain, so its p2 quotients are not regular and `regular-check`
    exits 1 on them.  `chain_merge_map.json` merges x[0,0] into x[1,1] on
    the letterplace ideal of the 2-chain at (1, 1) (`chain_principal.json`):
    the three generators keep distinct, incomparable images, so the
    generator count passes and only the numerators tell that the quotient
    is not regular.
    """
    argv = [str(GOLDEN / a) if a.endswith((".json", ".txt")) else a for a in argv]
    code, out = run(capsys, *argv)
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert code == (1 if '"regular":false' in expected else 0)
    assert out == expected


def test_bounded_ss_dual_round_trip_is_golden(tmp_path, capsys):
    # the golden ideal lives in degrees <= 3 over four variables: its dual at
    # bound 3, dualized back at bound 4, is the input file byte for byte
    dual = tmp_path / "dual.txt"
    code, out = run(capsys, "ss", "dualize", "--gens", str(GOLDEN / "ss_gens.txt"), "--bound", "3", "-o", str(dual))
    assert code == 0 and out == ""
    code, out = run(capsys, "ss", "dualize", "--gens", str(dual), "--bound", "4")
    assert code == 0
    assert out == (GOLDEN / "ss_gens.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["letterplace"],
        ["coletterplace"],
        ["project", "--side", "letterplace", "--map", "p1"],
        ["regular-check", "--side", "coletterplace", "--map", "p2"],
    ],
)
def test_empty_finite_ideal_exit_zero(tmp_path, capsys, argv):
    # the letterplace ideal of the empty ideal is the unit ideal and its
    # co-letterplace ideal the zero ideal: no variables, no hull to check
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"poset": {"n": 2, "covers": [[0, 1]]}, "repr": {"finite": []}}))
    code, out = run(capsys, argv[0], "--ideal", str(path), *argv[1:])
    assert code == 0, out
    if argv[0] in ("letterplace", "coletterplace"):
        assert json.loads(out)["support"] == []


@pytest.mark.parametrize("kind", ["finite", "cofinite"])
def test_dual_check_catches_a_dropped_coletterplace_generator(kind, capsys, monkeypatch):
    # the letterplace ideal of a finite or cofinite J is the dual of the
    # co-letterplace ideal, so dual-check certifies its generators as
    # ascents of non-members: with one marker graph missing, some are not
    import letterplace.cli
    import letterplace.ideals

    original = letterplace.ideals.coletterplace_ideal

    def dropping(*args, **kwargs):
        C = original(*args, **kwargs)
        return MonomialIdeal._of_canonical(list(C.gens[1:]))

    monkeypatch.setattr(letterplace.ideals, "coletterplace_ideal", dropping)
    monkeypatch.setattr(letterplace.cli, "coletterplace_ideal", dropping)
    code, out = run(capsys, "dual-check", "--ideal", str(GOLDEN / f"{kind}.json"))
    assert code == 1
    assert json.loads(out)["dual_ok"] is False


def test_dual_check_walks_the_cofinite_markers_once(capsys, monkeypatch):
    # L of a cofinite J is the dual of C, so the markers behind C serve both
    calls = []
    original = HomIdeal._marker_graphs

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(HomIdeal, "_marker_graphs", counting)
    code, out = run(capsys, "dual-check", "--ideal", str(GOLDEN / "cofinite.json"))
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["dual_ok"] is True


@pytest.mark.parametrize("cmd", ["markers", "coletterplace"])
@pytest.mark.parametrize("kind", ["finite", "cofinite"])
def test_marker_routes_build_no_marker(cmd, kind, capsys, monkeypatch):
    # both commands read the graphs of HomIdeal._marker_graphs as they come
    import letterplace.homset

    class NoMarker:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a Marker was built")

        on = classmethod(__init__)

    monkeypatch.setattr(letterplace.homset, "Marker", NoMarker)
    code, out = run(capsys, cmd, "--ideal", str(GOLDEN / f"{kind}.json"))
    assert code == 0
    assert out == (GOLDEN / f"{cmd}_{kind}.out").read_text(encoding="utf-8")


def test_letterplace_command_builds_the_ideal_once(running_example, capsys, monkeypatch):
    import letterplace.cli
    import letterplace.ideals

    calls = []
    original = letterplace.ideals.letterplace_ideal

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(letterplace.ideals, "letterplace_ideal", counting)
    monkeypatch.setattr(letterplace.cli, "letterplace_ideal", counting)
    code, out = run(capsys, "letterplace", "--ideal", str(running_example))
    assert code == 0 and len(calls) == 1
    expected = [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1], [2, 2]]
    assert json.loads(out)["support"] == expected
    # coletterplace reads the same support off the ideal it prints
    code, out = run(capsys, "coletterplace", "--ideal", str(running_example))
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["support"] == expected


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["det", "verify", "--l", "0,2,4,6,8", "--pair-cap", "-1"], "pair_cap must be >= 0, got -1"),
        (["hom", "enumerate", "--poset", "poset.json", "--bound", "2", "--cap", "-1"], "cap must be >= 0, got -1"),
    ],
)
def test_negative_caps_exit_two(argv, reason, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": reason, "reason": "ValueError", "version": 3}


def test_shared_parser_carries_no_state_between_calls(capsys, monkeypatch):
    import letterplace.cli

    monkeypatch.setattr(letterplace.cli, "_parser", None)
    spy = mock.Mock(wraps=letterplace.cli.build_parser)
    monkeypatch.setattr(letterplace.cli, "build_parser", spy)
    assert main(["det", "verify", "--pair-cap", "3"]) == 2  # --l missing
    assert main(["--help"]) == 0
    assert "det" in capsys.readouterr().out
    code, out = run(capsys, "det", "verify", "--l", "0,2,3,5,8")
    assert code == 0
    assert out == (GOLDEN / "det_verify_0_2_3_5_8.json").read_text(encoding="utf-8")
    code, out = run(capsys, "hilbert", "--gens", str(GOLDEN / "hilbert_gens.txt"))
    assert code == 0
    assert out == (GOLDEN / "hilbert.out").read_text(encoding="utf-8")
    assert spy.call_count == 1


def test_handlers_are_looked_up_at_call_time(capsys, monkeypatch):
    # the parser outlives the call that built it; a handler replaced on the
    # module afterwards must still be the one that runs
    import letterplace.cli

    assert main(["hilbert", "--gens", str(GOLDEN / "hilbert_gens.txt")]) == 0
    calls = []
    original = letterplace.cli._cmd_hilbert
    monkeypatch.setattr(letterplace.cli, "_cmd_hilbert", lambda args: calls.append(args) or original(args))
    capsys.readouterr()
    code, out = run(capsys, "hilbert", "--gens", str(GOLDEN / "hilbert_gens.txt"))
    assert code == 0 and len(calls) == 1
    assert out == (GOLDEN / "hilbert.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("side", ["letterplace", "coletterplace"])
def test_replaced_side_handler_runs_for_both_sides(side, running_example, capsys, monkeypatch):
    # both side subcommands share one handler, told apart by args.side; a
    # replacement on the module after the parser was built is the one that runs
    import letterplace.cli

    expected = run(capsys, side, "--ideal", str(running_example))
    sides = []
    original = letterplace.cli._cmd_letterplace
    monkeypatch.setattr(letterplace.cli, "_cmd_letterplace", lambda args: sides.append(args.side) or original(args))
    assert run(capsys, side, "--ideal", str(running_example)) == expected
    assert sides == [side]


@pytest.mark.parametrize(
    "doc, message",
    [({"source": 5, "assignment": 3}, "fiber map source must be a list of integer pairs, got 5"),
     ([1, 2], "a fiber map must be a JSON object with keys source and assignment"),
     ({"source": [[0, 0]], "assignment": 7}, "fiber map assignment must be a list of variables, got 7")],
    ids=["int-source", "list-document", "int-assignment"],
)
@pytest.mark.parametrize("command", ["project", "regular-check"])
def test_malformed_fiber_map_exit_two(tmp_path, capsys, command, doc, message):
    fmap_path = tmp_path / "fmap.json"
    fmap_path.write_text(json.dumps(doc))
    code, out = run(
        capsys, command, "--ideal", str(GOLDEN / "principal.json"), "--side", "letterplace",
        "--map", str(fmap_path),
    )
    assert code == 2
    assert json.loads(out) == {"error": message, "reason": "ValueError", "version": 3}


def _dump(value, repeat=(None,), path=()) -> str:
    """JSON text of value; with repeat = (path, key, extra), the object at
    that path lists key once more, with the value extra, at its end."""
    if isinstance(value, dict):
        items = list(value.items()) + ([repeat[1:]] if repeat[0] == path else [])
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v, repeat, path + (k,))}" for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dump(v, repeat, path + (i,)) for i, v in enumerate(value)) + "]"
    return json.dumps(value)


def _wrong_values():
    return st.one_of(st.sampled_from([None, "x", 1.5, True, [], {}, [[0, 1]], ["elem", 0]]), st.integers(-3, 3))


def _nodes(doc, path=()):
    """The paths of every node of a JSON document, itself first."""
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _replace(doc, path, new):
    """doc with the node at path replaced by new, copied along the path."""
    if not path:
        return new
    k, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {**doc, k: _replace(doc[k], rest, new)}
    return doc[:k] + [_replace(doc[k], rest, new)] + doc[k + 1:]


def _mutate_json(data, doc):
    """doc with one structural change at a node drawn by hypothesis: a key
    deleted, a list entry deleted, duplicated or appended, a value of a
    wrong type, an integer negated; on a poset, a duplicate, transitive or
    self-loop cover, or a label count that does not match n.  Every integer
    written lies in -3..4, so that each valid document stays small."""
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    node = _at(doc, path)
    kinds = ["wrong"]
    if isinstance(node, dict) and node:
        kinds.append("delete-key")
    if isinstance(node, list):
        kinds += ["duplicate", "append"] + (["delete"] if node else [])
    if type(node) is int:
        kinds.append("negate")
    if isinstance(node, dict) and isinstance(node.get("covers"), list):
        kinds += ["self-loop", "transitive", "labels"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "wrong":
        new = data.draw(_wrong_values())
    elif kind == "delete-key":
        new = dict(node)
        del new[data.draw(st.sampled_from(sorted(node)))]
    elif kind == "duplicate":
        new = node + [data.draw(st.sampled_from(node))] if node else [node]
    elif kind == "append":
        new = node + [data.draw(st.one_of(st.lists(st.integers(0, 4), max_size=3), _wrong_values()))]
    elif kind == "delete":
        i = data.draw(st.integers(0, len(node) - 1))
        new = node[:i] + node[i + 1:]
    elif kind == "negate":
        new = -node if node else -1
    elif kind == "self-loop":
        p = data.draw(st.integers(0, 4))
        new = dict(node, covers=node["covers"] + [[p, p]])
    elif kind == "transitive":
        edges = [c for c in node["covers"] if isinstance(c, list) and len(c) == 2]
        chained = [[a[0], b[1]] for a in edges for b in edges if a[1] == b[0]]
        new = dict(node, covers=node["covers"] + chained + node["covers"][:1])
    else:
        labels = node["labels"] if isinstance(node.get("labels"), list) else []
        new = dict(node, labels=data.draw(st.sampled_from([labels[1:], labels + ["e"], ["a"]])))
    return _replace(doc, path, new)


def _draw_json(data, doc) -> str:
    """The text of doc after up to three mutations, and perhaps a repeated key."""
    for _ in range(data.draw(st.integers(0, 3))):
        doc = _mutate_json(data, doc)
    objects = [path for path in _nodes(doc) if isinstance(_at(doc, path), dict) and _at(doc, path)]
    if objects and data.draw(st.booleans()):
        path = data.draw(st.sampled_from(objects))
        key = data.draw(st.sampled_from(sorted(_at(doc, path))))
        return _dump(doc, (path, key, data.draw(st.one_of(st.just(_at(doc, path)[key]), _wrong_values()))))
    return _dump(doc)


def _draw_ideal_file(data, text: str) -> str:
    """An ideal file with up to three of: a line deleted or duplicated, a
    header field changed, a monomial of small wrong or negative exponents
    and indices appended."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["delete", "duplicate", "header", "append"]))
        if kind in ("delete", "duplicate") and lines:
            i = data.draw(st.integers(0, len(lines) - 1))
            lines = lines[:i] + lines[i + (kind == "delete"):]
        elif kind == "header":
            family = data.draw(st.sampled_from(["elem", "nat", "pair", "foo"]))
            n = data.draw(st.sampled_from(["-1", "x", "1.5", "0", "2", "5"]))
            lines = [data.draw(st.sampled_from([f"# family={family} n={n}", f"# n={n}", "#", "x[0]"]))] + lines[1:]
        else:
            token = st.sampled_from(["0", "1", "2", "3", "4", "-1", "x", "1.5", ""])
            factors = data.draw(st.lists(st.tuples(token, token, token), min_size=1, max_size=3))
            lines.append("*".join(data.draw(st.sampled_from([f"x[{a}]^{e}", f"x[{a},{b}]^{e}", f"x[{a}]"]))
                                  for a, b, e in factors))
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _fiber_map_json() -> str:
    """The first-coordinate projection of the golden principal ideal's
    letterplace generators, as a fiber-map file."""
    from letterplace.ideals import letterplace_ideal
    from letterplace.quotient import FiberMap

    J = HomIdeal.from_json((GOLDEN / "principal.json").read_text(encoding="utf-8"))
    pairs = {(v.a, v.b) for g in letterplace_ideal(J).gens for v, _ in g.exps}
    return FiberMap.projection_first(pairs).to_json()


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cli_fuzz_exits_with_a_documented_code(data):
    """Every subcommand, run in-process on a mutated golden input, exits 0,
    1, 2 or 3: no exception escapes main.  Its stdout is a JSON report, an
    ideal file from `ss dualize`, or empty after a usage error."""
    with tempfile.TemporaryDirectory() as tmp:
        code, argv, out = _fuzz_once(data, Path(tmp))
    assert code in (0, 1, 2, 3), (argv, code)
    if out and not (argv[0] == "ss" and code == 0):
        json.loads(out)


def _fuzz_once(data, work: Path) -> tuple:
    """(exit code, argv, stdout) of one drawn command on inputs written under work."""
    golden = lambda name: json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    command = data.draw(st.sampled_from([
        "hom", "markers", "letterplace", "coletterplace", "dual-check", "project", "regular-check",
        "pstable", "ss", "det", "hilbert",
    ]))
    small = lambda: str(data.draw(st.integers(-1, 3)))
    if command == "hom":
        (work / "poset.json").write_text(_draw_json(data, golden("poset.json")))
        argv = ["hom", "enumerate", "--poset", str(work / "poset.json"), "--bound", small()]
        argv += data.draw(st.sampled_from([[], ["--cap", small()]]))
    elif command == "pstable":
        (work / "poset.json").write_text(_draw_json(data, golden("poset.json")))
        gens = _draw_ideal_file(data, (GOLDEN / "ss_gens.txt").read_text(encoding="utf-8"))
        (work / "gens.txt").write_text(gens)
        argv = ["pstable", "--poset", str(work / "poset.json"), "--gens", str(work / "gens.txt"),
                "--mode", data.draw(st.sampled_from(["exact", "bounded"]))]
        argv += data.draw(st.sampled_from([[], ["--depth", small()]]))
    elif command in ("ss", "hilbert"):
        source = "ss_gens.txt" if command == "ss" else "hilbert_gens.txt"
        gens = _draw_ideal_file(data, (GOLDEN / source).read_text(encoding="utf-8"))
        (work / "gens.txt").write_text(gens)
        argv = ["ss", "dualize"] if command == "ss" else ["hilbert"]
        argv += ["--gens", str(work / "gens.txt")]
        if command == "ss":
            argv += data.draw(st.sampled_from([[], ["--bound", small()]]))
    elif command == "det":
        values = data.draw(st.lists(st.sampled_from(["0", "1", "2", "3", "-1", "x"]), max_size=4))
        argv = ["det", "verify", "--l=" + ",".join(values), "--a", small()]
        argv += data.draw(st.sampled_from([[], ["--pair-cap", small()]]))
    else:
        kind = data.draw(st.sampled_from(GOLDEN_IDEALS))
        ideal, fmap = golden(f"{kind}.json"), json.loads(_fiber_map_json())
        argv = [command, "--ideal", str(work / "ideal.json")]
        # project and regular-check mutate one of their two inputs, so that the other one is read
        if command in ("project", "regular-check") and data.draw(st.booleans()):
            fmap = _draw_json(data, fmap)
            ideal = json.dumps(ideal)
            path = str(work / "fmap.json")
        else:
            ideal = _draw_json(data, ideal)
            fmap = json.dumps(fmap)
            path = data.draw(st.sampled_from(["p1", "p2", str(work / "fmap.json")]))
        (work / "ideal.json").write_text(ideal)
        (work / "fmap.json").write_text(fmap)
        if command in ("project", "regular-check"):
            argv += ["--side", data.draw(st.sampled_from(["letterplace", "coletterplace"])), "--map", path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return main(argv), argv, out.getvalue()
