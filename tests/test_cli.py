"""Command line surface: exit codes and JSON output."""

import json
import math
from pathlib import Path

import pytest

from qc_equate import circuit, euler_e, h, p, rx
from qc_equate.cli import main

HH = {"n_in": 1, "n_out": 1,
      "gates": [{"kind": "H", "wires": [0], "params": []},
                {"kind": "H", "wires": [0], "params": []}]}
EMPTY = {"n_in": 1, "n_out": 1, "gates": []}
HPH = {"n_in": 1, "n_out": 1,
       "gates": [{"kind": "H", "wires": [0], "params": []},
                 {"kind": "P", "wires": [0], "params": [0.7]},
                 {"kind": "H", "wires": [0], "params": []}]}
PP = {"n_in": 1, "n_out": 1,
      "gates": [{"kind": "P", "wires": [0], "params": [1.1]},
                {"kind": "P", "wires": [0], "params": [2.2]}]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in (("hh", HH), ("empty", EMPTY), ("hph", HPH), ("pp", PP)):
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


def test_equiv_of_different_widths_prints_its_verdict(files, tmp_path, capsys):
    # unequal shapes exit 1 with the verdict on stdout, as unequal matrices do
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(circuit(2, [h(0)]).to_dict()))
    for extra, phase in (([], False), (["--up-to-phase"], True)):
        assert main(["equiv", files["hh"], str(wide), *extra]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out) == {"equal": False, "up_to_phase": phase, "tol": 1e-9}
        assert out.err == "shape mismatch\n"


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
    # H P H normalizes with QC's axioms and the macro definitions only
    assert main(["replay", trace]) == 0
    capsys.readouterr()
    # P P merges by (P+), a lemma of QC: strict replay fails
    assert main(["normalize", files["pp"], "--trace", trace]) == 0
    assert main(["replay", trace, "--allow-lemmas"]) == 0
    capsys.readouterr()
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


def test_minimality_cz_at_twelve_wires(capsys):
    # the CZ witness folds each macro shape once, so it expands no 12-wire
    # MCP into its 2 * 3^11 - 1 gates
    rc = main(["minimality", "--theory", "QC", "--axiom", "CZ", "--max-qubits", "12",
               "--samples", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_list_rules(capsys):
    assert main(["list-rules", "--theory", "QCancilla", "--list"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["rules"]) == 12
    assert any(r["name"] == "FIVE_CX" for r in out["rules"])
    assert any(l["name"] == "ESTAR_N" for l in out["lemmas"])
    assert {l["name"]: l["wires"] for l in out["lemmas"]}["S0"] == 0
    kinds = {}
    for theory in ("QC", "QCprime"):
        assert main(["list-rules", "--theory", theory, "--list"]) == 0
        kinds[theory] = {l["name"]: l["kind"] for l in json.loads(capsys.readouterr().out)["lemmas"]}
    assert kinds["QCprime"]["PPLUS"] == "axiom" and kinds["QC"]["PPLUS"] == "lemma"
    assert kinds["QCprime"]["E"] == "lemma" and kinds["QC"]["E"] == "axiom"
    assert kinds["QC"]["RXDEF"] == kinds["QCprime"]["RXDEF"] == "definition"


def test_minimality_without_witness_exits_1(capsys):
    rc = main(["minimality", "--theory", "QCancilla", "--axiom", "ALL",
               "--samples", "10"])
    assert rc == 1
    assert not json.loads(capsys.readouterr().out)["pass"]


def test_synth1q(tmp_path, capsys):
    u = [[[1 / math.sqrt(2), 0], [1 / math.sqrt(2), 0]],
         [[1 / math.sqrt(2), 0], [-1 / math.sqrt(2), 0]]]
    fp = tmp_path / "u.json"
    fp.write_text(json.dumps(u))
    assert main(["synth1q", str(fp)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["beta1"] - math.pi / 2) < 1e-9


def test_synth1q_rejects_entries_that_are_not_re_im_pairs(tmp_path, capsys):
    # [1] is no pair, and true is not the number 1
    for u, message in (([[[1], [0]], [[0], [1]]], "not enough values to unpack"),
                       ([[[True, False], [0, 0]], [[0, 0], [True, 0]]],
                        "entry True is not a real number")):
        fp = tmp_path / "u.json"
        fp.write_text(json.dumps(u))
        assert main(["synth1q", str(fp)]) == 2, u
        out, err = capsys.readouterr()
        assert out == "" and message in err


def test_negative_seed_exits_2(capsys):
    for argv in (["verify-rules", "--seed", "-5", "--samples", "2"],
                 ["minimality", "--theory", "QC", "--axiom", "H2", "--seed", "-1"],
                 ["minimality", "--theory", "QC", "--axiom", "ALL", "--seed", "-1"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "seed -" in err, argv


def test_minimality_target_n_out_of_reach_exits_2(capsys):
    # (I)'s rows are exact at any width, so 331 and 1026 wires pass; (I)
    # is defined from 3 wires on, so --target-n 2 is refused
    for n in (331, 1026):
        assert main(["minimality", "--axiom", "I", "--target-n", str(n), "--samples", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bound"] == n - 1 and out["pass"] is True
    assert main(["minimality", "--axiom", "I", "--target-n", "2", "--samples", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "I needs a wire count of at least 3" in err


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
    # gates the constructor rejects: an unknown kind, a repeated wire
    for gate in ({"kind": "FOO", "wires": [0]}, {"kind": "CNOT", "wires": [1, 1]}):
        bad_gate = tmp_path / "bad_gate.json"
        bad_gate.write_text(json.dumps({"n_in": 2, "n_out": 2, "gates": [gate]}))
        assert main(["eval", str(bad_gate)]) == 2, gate
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
    # wire counts no list can index: a circuit's, and an (I) step's width
    bad_count.write_text(json.dumps({"n_in": 2**70, "n_out": 1, "gates": []}))
    assert main(["eval", str(bad_count)]) == 2
    wide_i = json.loads((Path(__file__).resolve().parent.parent / "traces" / "qc_5cx.json")
                        .read_text())
    (step,) = [s for s in wide_i["steps"] if s["rule"] == "I"]
    step["n"] = 2**70
    bad_count.write_text(json.dumps(wide_i))
    assert main(["replay", str(bad_count), "--allow-lemmas"]) == 2
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


def test_replay_qcugp_step_and_off_final(tmp_path):
    # a QCugp (E) step lands on P RX P: QCugp cites (E) without its global
    # phase, and its safety net compares up to one
    rxprx = circuit(1, [rx(0.3, 0), p(0.5, 0), rx(0.7, 0)])
    _, b1, b2, b3 = euler_e(0.3, 0.5, 0.7)[0]
    step = {"rule": "E", "direction": "LR", "params": [0.3, 0.5, 0.7], "n": None,
            "site": {"gates": [0, 1, 2], "wire_map": [0], "at": 0}}
    trace = tmp_path / "ugp.json"

    def replay_e(final):
        trace.write_text(json.dumps({"theory": "QCugp", "initial": rxprx.to_dict(),
                                     "steps": [step], "final": final.to_dict()}))
        return main(["replay", str(trace)])

    assert replay_e(circuit(1, [p(b1, 0), rx(b2, 0), p(b3, 0)])) == 0
    # a replay that ends off the declared final
    assert replay_e(rxprx) == 2


def test_bad_wire_cap_exits_2(files, monkeypatch, capsys):
    monkeypatch.setenv("QCEQ_WIRE_CAP", "abc")
    assert main(["eval", files["hh"]]) == 2
    trace = Path(__file__).resolve().parent.parent / "traces" / "qc_cnot2.json"
    assert main(["replay", str(trace)]) == 2
    assert "QCEQ_WIRE_CAP" in capsys.readouterr().err


def test_wire_cap_skips_steps_whose_inits_open_too_many_wires(monkeypatch, capsys):
    # qcancilla_p0 has one wire at both ends, but its INITs open a second
    monkeypatch.setenv("QCEQ_WIRE_CAP", "1")
    trace = Path(__file__).resolve().parent.parent / "traces" / "qcancilla_p0.json"
    assert main(["replay", str(trace), "--allow-lemmas"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_replay_frozen_traces(capsys):
    paths = sorted((Path(__file__).resolve().parent.parent / "traces").glob("*.json"))
    assert len(paths) == 19
    for path in paths:
        assert main(["replay", str(path), "--allow-lemmas"]) == 0, path.name
        out = json.loads(capsys.readouterr().out)
        assert out["steps"] == len(json.loads(path.read_text())["steps"])


def test_successive_calls_share_no_parsed_state(capsys):
    # the parser is built once per process: a flag given to one call must
    # not carry over to the next, so the lemma CNOT2 is refused without it
    trace = str(Path(__file__).resolve().parent.parent / "traces" / "qc_pcommutcnot.json")
    assert main(["replay", trace, "--allow-lemmas"]) == 0
    assert main(["replay", trace]) == 2
    assert "CNOT2" in capsys.readouterr().err


def test_huge_angles_get_an_answer_or_exit_2(tmp_path, capsys):
    # RX(1e308) H RX(-1e308) is beyond normalize_1q's angle bound in both
    # theories: QC's (S+)/(P+) sums absorbed the small angle and answered
    # a wrong normal form, so both now exit 2 and say why
    c = circuit(1, [rx(1e308, 0), h(0), rx(-1e308, 0)])
    path = tmp_path / "huge.json"
    path.write_text(c.to_json())
    for theory in ("QC", "QCprime"):
        assert main(["normalize", str(path), "--theory", theory]) == 2
        assert "within" in capsys.readouterr().err
    # a one-step QC trace citing (E) at 1e308: an instance, then a step error
    rxprx = circuit(1, [rx(1e308, 0), p(1e308, 0), rx(1e308, 0)])
    trace = tmp_path / "e.json"
    trace.write_text(json.dumps({
        "theory": "QC", "initial": rxprx.to_dict(), "final": rxprx.to_dict(),
        "steps": [{"rule": "E", "direction": "LR", "params": [1e308] * 3, "n": None,
                   "site": {"gates": [0, 1, 2], "wire_map": [0], "at": 0}}]}))
    assert main(["replay", str(trace)]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
def test_tol_must_be_a_finite_number_at_least_zero(files, bad, capsys):
    trace = str(Path(__file__).resolve().parent.parent / "traces" / "qc_cnot2.json")
    for argv in (["verify-rules", "--samples", "2"], ["replay", trace],
                 ["equiv", files["hh"], files["hh"]]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", bad])
        assert exc.value.code == 2, argv
        assert "--tol" in capsys.readouterr().err
        # 0 still runs: the command reports in JSON, whether it holds or not
        assert main(argv + ["--tol", "0"]) != 2, argv
        json.loads(capsys.readouterr().out)
