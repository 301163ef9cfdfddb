"""CLI surface: subcommands, formats, exit codes."""

import json
from pathlib import Path

import pytest

from cordalg import cli
from cordalg.cli import main

SPECS = Path(__file__).resolve().parent.parent / "specs"


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
    ["compute", "--format", "tsv"], ["analyze", "--format", "text"]],
    ids=" ".join)
def test_options_a_command_ignores_are_refused(argv, ellipse_spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], ellipse_spec] + argv[1:])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_check_passes_on_ellipse(ellipse_spec, capsys):
    code = main(["check", ellipse_spec])
    out = capsys.readouterr().out
    assert code == 0
    assert "6/6 invariants hold" in out


def test_check_runs_the_census_once(monkeypatch, capsys):
    calls = []
    census = cli.find_critical_points

    def counted(*args, **kwargs):
        calls.append(args)
        return census(*args, **kwargs)

    monkeypatch.setattr(cli, "find_critical_points", counted)
    assert main(["check", str(SPECS / "ellipse.json")]) == 0
    assert "6/6 invariants hold" in capsys.readouterr().out
    assert len(calls) == 1


def test_sets_export(ellipse_spec, capsys):
    code = main(["sets", ellipse_spec, "--resolution", "48"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "F_s" in doc and "S" in doc
    assert doc["S"] == []  # convex planar curve: no interior intersections


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
