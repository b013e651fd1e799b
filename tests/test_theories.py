"""Rule catalogs, instantiation, and the master soundness suite."""

import math

import numpy as np
import pytest

from qc_equate import (RuleId, RuleInstance, check_soundness, circuit, cnot,
                       eval_matrix, instantiate, lemma_instantiate,
                       lemma_names, list_rules, swap, verify_theory)
from qc_equate.errors import (BadArity, BadParams, QcError, UnknownLemma,
                              UnknownTheory)
from qc_equate.theories import rule_signature

PI = math.pi


def test_catalogs():
    qc = [r.name for r in list_rules("QC")]
    assert qc == ["S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"]
    assert len(qc) == 10
    qcp = [r.name for r in list_rules("QCprime")]
    assert "EH" not in qcp and "E" not in qcp
    assert "PPLUS" in qcp and "EPRIME" in qcp
    anc = [r.name for r in list_rules("QCancilla")]
    assert "FIVE_CX" in anc and "SPLUS" not in anc
    ugp = [r.name for r in list_rules("QCugp")]
    assert "S2PI" not in ugp and "SPLUS" not in ugp
    with pytest.raises(UnknownTheory):
        list_rules("QCold")


def test_instantiate_validation():
    with pytest.raises(BadParams):
        instantiate(("QC", "E"), (0.1,), 1)
    with pytest.raises(BadArity):
        instantiate(("QC", "I"), (), 2)
    with pytest.raises(UnknownTheory):
        instantiate(("QCprime", "EH"), (), 1)
    # parameters must be real numbers: "7" is not C(7), true is not C(1.0)
    for run in (lambda: instantiate(("QC", "C"), ("7",)),
                lambda: instantiate(("QC", "C"), (True,)),
                lambda: lemma_instantiate("PPLUS", ("1", "2"))):
        with pytest.raises(QcError):
            run()


def test_i_rule_shape():
    inst = instantiate(("QC", "I"), (), 3)
    assert inst.lhs.gates[0].kind == "MCP" and len(inst.rhs.gates) == 0
    assert check_soundness(inst, 1e-9)


def test_e_rule_uses_euler_angles():
    phi = 1.9
    inst = instantiate(("QC", "E"), (0.0, phi, 0.0), 1)
    betas = [g.params[0] for g in inst.rhs.gates]
    assert np.allclose(betas, [0.0, phi, 0.0, 0.0])


def test_c_rule_semantics_oracle():
    phi = 0.8
    inst = instantiate(("QC", "C"), (phi,), 2)
    want = np.diag([1, 1, np.exp(1j * phi), np.exp(1j * phi)])
    assert np.max(np.abs(eval_matrix(inst.lhs) - want)) < 1e-12
    assert np.max(np.abs(eval_matrix(inst.rhs) - want)) < 1e-12


def test_corrupted_b_instance_fails():
    good = instantiate(("QC", "B"), (), 2)
    assert check_soundness(good, 1e-9)
    bad = RuleInstance(RuleId("QC", "B"), (), 2, good.lhs,
                       circuit(2, [cnot(0, 1), swap(0, 1)]))
    assert not check_soundness(bad, 1e-9)


def test_master_soundness_all_theories():
    for theory in ("QC", "QCprime", "QCugp", "QCancilla"):
        report = verify_theory(theory, samples=40, max_qubits=5, seed=3)
        assert report["ok"], report


def test_verify_theory_checks_per_rule_kind():
    # a fixed instance once per width, (I) at widths 3..max_qubits, and
    # one check per parameter draw for a parametrised rule
    report = verify_theory("QC", samples=7, max_qubits=5, seed=1)
    assert {name: r["checks"] for name, r in report["rules"].items()} == {
        "S2PI": 1, "SPLUS": 7, "H2": 1, "P0": 1, "C": 7, "B": 1, "CZ": 1,
        "EH": 1, "E": 7, "I": 3}


def test_i_rule_sound_but_not_axiomatic_below_three():
    # sound on 1 and 2 wires even though the catalog starts at n = 3
    for n in (1, 2):
        from qc_equate import mcp
        lhs = circuit(n, [mcp(2 * PI, tuple(range(n)))])
        assert np.max(np.abs(eval_matrix(lhs) - np.eye(2 ** n))) < 1e-9
        with pytest.raises(BadArity):
            instantiate(("QC", "I"), (), n)


def test_qcugp_circuits_are_phase_free():
    rng = np.random.default_rng(5)
    for rid in list_rules("QCugp"):
        n_params, arity = rule_signature(rid.name)
        n = 3 if rid.name == "I" else arity
        inst = instantiate(rid, tuple(rng.uniform(0, 6, n_params)), n)
        assert all(g.kind != "GPHASE" for g in inst.lhs.gates + inst.rhs.gates)
        assert check_soundness(inst, 1e-9)


def test_lemma_catalog_all_sound():
    rng = np.random.default_rng(6)
    for name in lemma_names():
        from qc_equate.theories import lemma_signature
        n_params, arity = lemma_signature(name)
        for _ in range(4):
            params = tuple(rng.uniform(-6, 6, n_params))
            ns = (arity,) if arity is not None else (1, 2, 3)
            for n in ns:
                inst = lemma_instantiate(name, params, n)
                assert check_soundness(inst, 1e-9), (name, params, n)


def test_lemma_examples():
    inst = lemma_instantiate("P2PI", (), 1)
    assert check_soundness(inst, 1e-12)

    # multi-controlled Euler equation on 3 wires against the 8x8 oracle
    inst = lemma_instantiate("ESTAR_N", (0.4, 1.2, -0.9), 3)
    a, b = eval_matrix(inst.lhs), eval_matrix(inst.rhs)
    assert a.shape == (8, 8)
    assert np.max(np.abs(a - b)) < 1e-9

    phi = 1.3
    inst = lemma_instantiate("PMINUS", (phi,), 1)
    # oracle: X P(phi) X = e^{i phi} P(-phi)
    xm = np.array([[0, 1], [1, 0]], dtype=complex)
    want = np.exp(1j * phi) * np.diag([1, np.exp(-1j * phi)])
    assert np.max(np.abs(xm @ np.diag([1, np.exp(1j * phi)]) @ xm - want)) < 1e-12
    assert check_soundness(inst, 1e-12)

    with pytest.raises(UnknownLemma):
        lemma_instantiate("NOPE", (), 1)


def test_estar_n_scales():
    rng = np.random.default_rng(8)
    for n in range(1, 5):
        for _ in range(5):
            params = tuple(rng.uniform(-6, 6, 3))
            inst = lemma_instantiate("ESTAR_N", params, n)
            assert check_soundness(inst, 1e-9), (n, params)


@pytest.mark.parametrize("name", ["MCPDEF", "MCRXDEF"])
def test_macro_definitions_sound_at_width(name):
    # ties the MCP/MCRX evaluation kernels to the inductive definitions
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        phi = float(rng.uniform(-4 * PI, 4 * PI))
        assert check_soundness(lemma_instantiate(name, (phi,), n), 1e-9), (name, n)
