"""Command-line surface: formats, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

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
    assert doc["version"] == 2


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
     ("# family=elem family=nat n=2", "ideal file header gives the key 'family' twice")],
)
def test_ideal_file_header_is_checked(tmp_path, capsys, header, message):
    path = tmp_path / "gens.txt"
    path.write_text(f"{header}\nx[0]^2\n")
    with pytest.raises(ValueError, match=message):
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
        "version": 2,
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
    assert doc["budget"] == {"degree_cap": None, "pair_cap": 200000}
    code, out = run(capsys, "det", "verify", "--l", "0,1,3", "--degree-cap", "5", "--pair-cap", "9")
    assert code == 0
    assert json.loads(out)["budget"] == {"degree_cap": 5, "pair_cap": 9}


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
    exits 1 on them.
    """
    argv = [str(GOLDEN / a) if a.endswith((".json", ".txt")) else a for a in argv]
    code, out = run(capsys, *argv)
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert code == (1 if '"regular":false' in expected else 0)
    assert out == expected


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
    original = HomIdeal.minimal_markers

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(HomIdeal, "minimal_markers", counting)
    code, out = run(capsys, "dual-check", "--ideal", str(GOLDEN / "cofinite.json"))
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["dual_ok"] is True


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
        (["det", "verify", "--l", "0,1", "--degree-cap", "-7"], "degree_cap must be >= 0, got -7"),
        (["hom", "enumerate", "--poset", "poset.json", "--bound", "2", "--cap", "-1"], "cap must be >= 0, got -1"),
    ],
)
def test_negative_caps_exit_two(argv, reason, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": reason, "reason": "ValueError", "version": 2}


def test_shared_parser_carries_no_state_between_calls(capsys, monkeypatch):
    import letterplace.cli

    monkeypatch.setattr(letterplace.cli, "_parser", None)
    spy = mock.Mock(wraps=letterplace.cli.build_parser)
    monkeypatch.setattr(letterplace.cli, "build_parser", spy)
    assert main(["det", "verify", "--degree-cap", "3"]) == 2  # --l missing
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
