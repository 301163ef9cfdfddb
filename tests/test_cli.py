"""CLI surface: subcommands, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cordalg
from cordalg import cli
from cordalg.cli import main
from cordalg.errors import StepCollapse

SPECS = Path(__file__).resolve().parent.parent / "specs"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture()
def ellipse_spec(tmp_path):
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"type": "ellipse", "a": 2, "b": 1}))
    return str(path)


def test_compute_writes_presentation(ellipse_spec, tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["compute", ellipse_spec, "--framing", "seifert", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ring"].startswith("Z[")
    assert doc["generators"] == []
    assert doc["relations"] == ["1 - u - l + l u"]
    assert doc["metadata"]["lk"] == 0


def test_compute_text_format(ellipse_spec, capsys):
    code = main(["compute", ellipse_spec, "--format", "text"])
    assert code == 0
    text = capsys.readouterr().out
    assert "generators: (none)" in text
    assert "1 - u - l + l u" in text


def test_compute_cures_the_circle(capsys):
    """The round circle's degenerate census is cured by one knot bump."""
    assert main(["compute", str(SPECS / "circle.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["generators"] == []
    assert doc["relations"] == ["1 - u - l + l u"]


def test_compute_refuses_the_torus_knot_in_the_seifert_framing(capsys):
    """lk = -3 off a braid layout has no Seifert rules: a spec error."""
    assert main(["compute", str(SPECS / "torus_2_3.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and "lk = -3" in err


# each golden's name starts with the subcommand that writes it
@pytest.mark.parametrize("spec, options, golden", [
    ("trefoil.json", [], "compute_trefoil.json"),
    ("trefoil.json", ["--framing", "blackboard"], "compute_trefoil_blackboard.json"),
    ("ellipse.json", [], "compute_ellipse.json"),
    ("circle.json", [], "compute_circle.json"),
    ("ellipse.json", ["--resolution", "6"], "sets_ellipse.json"),
    ("trefoil.json", ["--resolution", "6"], "sets_trefoil.json"),
    ("trefoil.json", ["--format", "tsv"], "analyze_trefoil.tsv"),
    # a cord with F-start and F-end events and one split
    ("trefoil.json", ["--cord", "1.0,22.5", "--format", "text"], "trace_trefoil.txt"),
])
def test_compute_matches_the_byte_golden(spec, options, golden, tmp_path):
    """The shipped specs compute, analyze, export and trace byte for byte
    the pinned outputs."""
    command = golden.split("_")[0]
    out = tmp_path / "out.json"
    assert main([command, str(SPECS / spec), *options, "-o", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_compute_deterministic_bytes(ellipse_spec, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["compute", ellipse_spec, "--seed", "5", "-o", str(a)])
    main(["compute", ellipse_spec, "--seed", "5", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_analyze_table(ellipse_spec, capsys):
    code = main(["analyze", ellipse_spec, "--format", "tsv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("label\tindex")
    assert len(lines) == 5  # header + 4 off-diagonal critical points


def test_analyze_json_has_diagonal(ellipse_spec, capsys):
    code = main(["analyze", ellipse_spec])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagonal"]["m"]["value"] == "1 - u"
    assert doc["diagonal"]["M"]["D"] == "0"
    assert len(doc["critical_points"]) == 4


def test_trace_event_log(ellipse_spec, capsys):
    code = main(["trace", ellipse_spec, "--cord", "1.0,4.5", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "value:" in out


def test_trace_json(ellipse_spec, capsys):
    code = main(["trace", ellipse_spec, "--cord", "1.0,4.5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trace"]["terminal"]
    assert "value" in doc


def test_trace_text_honours_output(ellipse_spec, tmp_path, capsys):
    out = tmp_path / "trace.txt"
    code = main(["trace", ellipse_spec, "--cord", "1.0,4.5", "--format", "text",
                 "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.startswith("cord (1.0, 4.5) -> ")
    assert text.endswith("\n") and "value:" in text


@pytest.mark.parametrize("argv", [
    ["sets", "--seed", "1"], ["check", "--format", "json"], ["check", "-o", "x"],
    ["compute", "--format", "tsv"], ["analyze", "--format", "text"],
    ["analyze", "--tol-scale", "2"], ["compute", "--max-perturb", "3"]],
    ids=" ".join)
def test_options_a_command_ignores_are_refused(argv, ellipse_spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], ellipse_spec] + argv[1:])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["trace", "--cord", "1.0"], ["trace", "--cord", "a,b"],
    ["trace", "--cord", "1,2,3"], ["trace", "--cord", "nan,1"],
    ["sets", "--resolution", "0"]], ids=" ".join)
def test_bad_option_values_are_usage_errors(argv, ellipse_spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], ellipse_spec] + argv[1:])
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


def test_check_passes_on_ellipse(ellipse_spec, capsys):
    code = main(["check", ellipse_spec])
    out = capsys.readouterr().out
    assert code == 0
    assert "5/5 invariants hold" in out


def test_check_runs_the_census_once(monkeypatch, capsys):
    calls = []
    census = cli.find_critical_points

    def counted(*args, **kwargs):
        calls.append(args)
        return census(*args, **kwargs)

    monkeypatch.setattr(cli, "find_critical_points", counted)
    assert main(["check", str(SPECS / "ellipse.json")]) == 0
    assert "5/5 invariants hold" in capsys.readouterr().out
    assert len(calls) == 1


def test_sets_export(ellipse_spec, capsys):
    code = main(["sets", ellipse_spec, "--resolution", "48"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "F_s" in doc and "S" in doc
    assert doc["S"] == []  # convex planar curve: no interior intersections


@pytest.mark.parametrize("name", ["trefoil", "torus_2_3"])
def test_sets_export_on_a_knotted_curve(name, capsys):
    """S is sampled at grid cords, which miss its curve; F_e is F_s with
    the coordinates swapped."""
    assert main(["sets", str(SPECS / f"{name}.json"), "--resolution", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["S"] == []
    assert sorted(map(tuple, doc["F_e"])) == sorted((t, s) for s, t in doc["F_s"])


@pytest.mark.parametrize("command", [
    ["compute"], ["analyze"], ["sets", "--resolution", "6"],
    ["trace", "--cord", "1.0,4.5"], ["check"]], ids=lambda c: c[0])
def test_framing_key_is_rejected(command, tmp_path, capsys):
    spec = tmp_path / "framed.json"
    spec.write_text(json.dumps({"type": "ellipse", "a": 2, "b": 1,
                                "framing": {"kind": "blackboard"}}))
    assert main([command[0], str(spec)] + command[1:]) == 2
    assert "spec error" in capsys.readouterr().err


def test_spec_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "dodecahedron"}))
    assert main(["compute", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["compute", str(missing)]) == 2


_VERTICAL_CIRCLE = [[math.cos(2 * math.pi * k / 64), 0.0,
                     math.sin(2 * math.pi * k / 64)] for k in range(64)]


@pytest.mark.parametrize("spec, message", [
    ({"type": "ellipse", "a": 2, "b": 1, "seifert_rules": [["g1_s", "u g1_s"]]},
     "'seifert_rules'"),
    ({"type": "samples", "points": _VERTICAL_CIRCLE}, "no blackboard framing"),
    ({"type": "ellipse"}, "needs the field 'a'"),
    ({"type": "ellipse", "a": "x", "b": 1}, "bad spec field 'a'"),
    ({"type": "ellipse", "a": 2, "b": 1, "framing_rotation": "abc"},
     "bad spec field 'framing_rotation'"),
    ({"type": "ellipse", "a": 2, "b": 1, "basepoint_shift": "x"},
     "bad spec field 'basepoint_shift'"),
    ({"type": "braid"}, "needs the field 'word'"),
    ({"type": "torus_knot", "p": 2}, "needs the field 'q'"),
    ([{"type": "ellipse", "a": 2, "b": 1}], "a knot spec is a JSON object"),
    ({"type": "ellipse", "a": 2, "b": 1, "tilt": [0.1, 0.2, 0.3]}, "'tilt'"),
    ({"type": "braid", "word": [1, 1, 1], "inplane_ratio": 1.0},
     "'inplane_ratio'"),
    ({"type": "braid", "word": [1, 1, 1], "modualtion": 0.28}, "'modualtion'"),
    ({"type": "braid", "word": [1, -2, 1, -2], "strands": 3}, "two strands"),
    ({"type": "ellipse", "a": 2, "b": 1, "framing_rotation": math.nan},
     "bad spec field 'framing_rotation'"),
    ({"type": "ellipse", "a": 2, "b": 1, "basepoint_shift": math.inf},
     "bad spec field 'basepoint_shift'"),
    ({"type": "ellipse", "a": "2", "b": 1}, "bad spec field 'a'"),
    ({"type": "ellipse", "a": True, "b": 1}, "bad spec field 'a'"),
    ({"type": "samples", "points": _VERTICAL_CIRCLE[:-1] + [[math.nan, 0.0, 1.0]]},
     "bad spec field 'points'"),
    ({"type": "samples", "points": _VERTICAL_CIRCLE[:-1] + [["1", 0.0, 0.0]]},
     "bad spec field 'points'"),
], ids=["seifert rules key", "vertical tangent",
        "missing ellipse axis", "non-numeric axis", "non-numeric rotation",
        "non-numeric basepoint shift", "braid without word",
        "torus knot without q", "top-level list", "tilt key",
        "inplane_ratio key", "misspelt key", "three strands", "NaN rotation",
        "infinite basepoint shift", "string axis", "boolean axis", "NaN point",
        "string coordinate"])
def test_bad_input_is_a_spec_error(spec, message, tmp_path, capsys):
    """Input the setup refuses exits 2, the spec-error code, not 3."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["compute", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and message in err


def test_numerical_failure_exit_code(ellipse_spec, monkeypatch, capsys):
    """A numerical failure exits 3, apart from the spec-error code 2."""
    def collapse(args):
        raise StepCollapse("step size below the floor")

    monkeypatch.setattr(cli, "cmd_compute", collapse)
    assert main(["compute", ellipse_spec]) == 3
    assert capsys.readouterr().err.startswith("error: step size below the floor")


def test_a_closed_pipe_exits_cleanly(ellipse_spec, monkeypatch, capsys):
    """A reader that closes stdout early, as ``head`` does, ends the command
    with exit status 141 and no traceback."""
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["analyze", ellipse_spec, "--format", "tsv"]) == 141
    assert capsys.readouterr().err == ""


def test_the_package_imports_no_scipy():
    """numpy is the only runtime dependency: importing the CLI in a fresh
    interpreter loads no scipy module."""
    src = str(Path(cordalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import cordalg.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
