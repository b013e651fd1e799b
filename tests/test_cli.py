"""Command line surface: exit codes and JSON output."""

import json
import math

import pytest

from qc_equate.cli import main

HH = {"n_in": 1, "n_out": 1,
      "gates": [{"kind": "H", "wires": [0], "params": []},
                {"kind": "H", "wires": [0], "params": []}]}
EMPTY = {"n_in": 1, "n_out": 1, "gates": []}
HPH = {"n_in": 1, "n_out": 1,
       "gates": [{"kind": "H", "wires": [0], "params": []},
                 {"kind": "P", "wires": [0], "params": [0.7]},
                 {"kind": "H", "wires": [0], "params": []}]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in (("hh", HH), ("empty", EMPTY), ("hph", HPH)):
        fp = tmp_path / f"{name}.json"
        fp.write_text(json.dumps(obj))
        paths[name] = str(fp)
    return paths


def test_eval(files, capsys):
    assert main(["eval", files["hh"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"] == 2
    assert abs(out["matrix"][0][0][0] - 1.0) < 1e-12


def test_equiv_up_to_phase(files, capsys):
    assert main(["equiv", files["hh"], files["empty"], "--up-to-phase"]) == 0
    assert main(["equiv", files["hh"], files["hph"]]) == 1


def test_verify_rules(capsys):
    rc = main(["verify-rules", "--theory", "QC", "--samples", "20",
               "--max-qubits", "4", "--tol", "1e-9", "--seed", "42"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and set(out["rules"]) == {
        "S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"}


def test_verify_rules_deterministic(capsys):
    main(["verify-rules", "--theory", "QCprime", "--samples", "10", "--seed", "7"])
    first = capsys.readouterr().out
    main(["verify-rules", "--theory", "QCprime", "--samples", "10", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_normalize_and_replay(files, tmp_path, capsys):
    trace = str(tmp_path / "trace.json")
    assert main(["normalize", files["hph"], "--trace", trace]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["beta2"]) <= math.pi
    assert main(["replay", trace, "--allow-lemmas"]) == 0
    capsys.readouterr()
    # strict replay fails because the trace cites derived lemmas
    assert main(["replay", trace]) == 2


def test_minimality(capsys):
    rc = main(["minimality", "--theory", "QC", "--axiom", "H2",
               "--samples", "30"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_list_rules(capsys):
    assert main(["list-rules", "--theory", "QCancilla", "--list"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["rules"]) == 12
    assert any(r["name"] == "FIVE_CX" for r in out["rules"])
    assert any(l["name"] == "ESTAR_N" for l in out["lemmas"])


def test_synth1q(tmp_path, capsys):
    u = [[[1 / math.sqrt(2), 0], [1 / math.sqrt(2), 0]],
         [[1 / math.sqrt(2), 0], [-1 / math.sqrt(2), 0]]]
    fp = tmp_path / "u.json"
    fp.write_text(json.dumps(u))
    assert main(["synth1q", str(fp)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["beta1"] - math.pi / 2) < 1e-9


def test_expand(files, capsys):
    assert main(["expand", files["hph"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(g["kind"] in ("GPHASE", "H", "P", "CNOT", "SWAP", "INIT", "DEST")
               for g in out["gates"])


def test_bad_input_exit_code(tmp_path):
    assert main(["eval", str(tmp_path / "missing.json")]) == 2
    no_gates = tmp_path / "no_gates.json"
    no_gates.write_text(json.dumps({"n_in": 1, "n_out": 1}))
    assert main(["eval", str(no_gates)]) == 2
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(HH)[:-7])
    assert main(["eval", str(truncated)]) == 2
    no_theory = tmp_path / "no_theory.json"
    no_theory.write_text(json.dumps({"initial": HH, "steps": [], "final": HH}))
    assert main(["replay", str(no_theory)]) == 2
