"""Command line surface: exit codes and JSON output."""

import json
import math
from pathlib import Path

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
    # minimality takes no tolerance
    with pytest.raises(SystemExit) as exc:
        main(["minimality", "--theory", "QC", "--axiom", "H2", "--tol", "1e-9"])
    assert exc.value.code == 2


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


def test_bad_input_exit_code(files, tmp_path):
    assert main(["eval", str(tmp_path / "missing.json")]) == 2
    assert main(["eval", str(tmp_path)]) == 2
    assert main(["normalize", files["hph"], "--trace", str(tmp_path)]) == 2
    no_gates = tmp_path / "no_gates.json"
    no_gates.write_text(json.dumps({"n_in": 1, "n_out": 1}))
    assert main(["eval", str(no_gates)]) == 2
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(HH)[:-7])
    assert main(["eval", str(truncated)]) == 2
    no_theory = tmp_path / "no_theory.json"
    no_theory.write_text(json.dumps({"initial": HH, "steps": [], "final": HH}))
    assert main(["replay", str(no_theory)]) == 2
    # wire entries that are not integers: 0.9 is not wire 0, true is not wire 1
    for gate in ({"kind": "H", "wires": [0.9]}, {"kind": "CNOT", "wires": [True, 0]}):
        bad_wire = tmp_path / "bad_wire.json"
        bad_wire.write_text(json.dumps({"n_in": 2, "n_out": 2, "gates": [gate]}))
        assert main(["eval", str(bad_wire)]) == 2, gate
    # params that are not real numbers: "7" is not P(7), true is not P(1.0)
    for params in ("7", [True], ["7"]):
        bad_param = tmp_path / "bad_param.json"
        bad_param.write_text(json.dumps(
            {"n_in": 1, "n_out": 1, "gates": [{"kind": "P", "wires": [0], "params": params}]}))
        assert main(["eval", str(bad_param)]) == 2, params
    # a wire count that is not an integer: true is not 1 wire
    bad_count = tmp_path / "bad_count.json"
    bad_count.write_text(json.dumps({"n_in": True, "n_out": 1, "gates": []}))
    assert main(["eval", str(bad_count)]) == 2
    # non-finite matrix entries (JSON Infinity/NaN parse) are not unitary
    for entry in (math.inf, math.nan):
        bad_unitary = tmp_path / "bad_unitary.json"
        bad_unitary.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [entry, 0]]]))
        assert main(["synth1q", str(bad_unitary)]) == 2, entry
    # mistyped step fields: no raw TypeError/ValueError, and 0.5 is not index 0
    mistyped = tmp_path / "mistyped.json"

    def replay_h2(**fields):
        step = {"rule": "H2", "direction": "LR", "params": [], "n": None,
                "site": {"gates": [0, 1], "wire_map": [0], "at": 0}}
        deriv = {"theory": "QC", "initial": HH, "steps": [step], "final": EMPTY}
        for key, value in fields.items():
            (deriv if key in ("theory", "steps") else
             step if key in ("rule", "direction", "params", "n", "site") else
             step["site"])[key] = value
        mistyped.write_text(json.dumps(deriv))
        return main(["replay", str(mistyped)])

    assert replay_h2() == 0
    for field, bad in (("gates", "ab"), ("gates", [0.5, 1, 2]),
                       ("wire_map", ["a", 1]), ("params", ["x"]),
                       ("at", True), ("n", 1.0), ("theory", ["QC"]),
                       ("rule", ["S2PI"]), ("direction", ["LR"]), ("site", [1]),
                       ("steps", [1]), ("steps", "ab"), ("steps", {})):
        assert replay_h2(**{field: bad}) == 2, field
    # step params "12" are not PPLUS(1, 2); a trace name must be a string
    pp = {"n_in": 1, "n_out": 1, "gates": [{"kind": "P", "wires": [0], "params": [1]},
                                           {"kind": "P", "wires": [0], "params": [2]}]}
    p3 = {"n_in": 1, "n_out": 1, "gates": [{"kind": "P", "wires": [0], "params": [3]}]}
    pplus = {"rule": "PPLUS", "direction": "LR", "params": [1, 2], "n": None,
             "site": {"gates": [0, 1], "wire_map": [0], "at": 0}}

    def replay_pplus(step=pplus, name="pplus"):
        mistyped.write_text(json.dumps({"theory": "QC", "initial": pp, "steps": [step],
                                        "final": p3, "name": name}))
        return main(["replay", str(mistyped), "--allow-lemmas"])

    assert replay_pplus() == 0
    assert replay_pplus(dict(pplus, params="12")) == 2
    assert replay_pplus(name=5) == 2
    # a report with nothing checked: no draws, or no width for (I)
    assert main(["verify-rules", "--samples", "0"]) == 2
    assert main(["verify-rules", "--max-qubits", "2"]) == 2
    # QCancilla has no (I), so two wires cover every rule
    assert main(["verify-rules", "--theory", "QCancilla", "--max-qubits", "2",
                 "--samples", "5"]) == 0


def test_bad_wire_cap_exits_2(files, monkeypatch):
    monkeypatch.setenv("QCEQ_WIRE_CAP", "abc")
    assert main(["eval", files["hh"]]) == 2


def test_replay_frozen_traces(capsys):
    paths = sorted((Path(__file__).resolve().parent.parent / "traces").glob("*.json"))
    assert len(paths) == 19
    for path in paths:
        assert main(["replay", str(path), "--allow-lemmas"]) == 0, path.name
        out = json.loads(capsys.readouterr().out)
        assert out["steps"] == len(json.loads(path.read_text())["steps"])
