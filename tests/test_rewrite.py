"""Rule application, sites, replay, and the 1-qubit decision procedures."""

import importlib
import math

import numpy as np
import pytest

from qc_equate import (Circuit, Derivation, Site, Step, apply_step, circuit,
                       cnot, ctrl, decide_equiv_1q, deformation_equal, dest,
                       eval_matrix, find_sites, gphase, h, init, nf_from_unitary,
                       normalize_1q, p, replay, reverse_derivation, rx, x, z)
from qc_equate.errors import (BadArity, IllegalSite, NoMatch, UnknownTheory,
                              UnsupportedGate)
from qc_equate.euler import GENERIC, Z_ZERO, ZPRIME_ZERO, euler_eprime
from qc_equate.rewrite import apply_step_full
from qc_equate.theories import DEFINITIONAL, _CATALOG
from qc_equate.traces import all_traces

PI = math.pi


def rand_1q(rng, m, grid=False):
    """m random gates; with ``grid`` every angle is a multiple of pi/4."""
    gates = []
    for _ in range(m):
        k = rng.integers(0, 6)
        ang = float(rng.integers(-16, 17)) * PI / 4 if grid else float(rng.uniform(-7, 7))
        gates.append([h(0), p(ang, 0), gphase(ang), x(0), z(0),
                      rx(ang, 0)][k])
    return circuit(1, gates)


def test_apply_h2_removton():
    c = circuit(1, [h(0), h(0), p(0.5, 0)])
    out = apply_step(c, Step("H2", "LR", (), None, Site((0, 1), (0,))))
    assert [g.kind for g in out.gates] == ["P"]


def test_apply_blocked_by_dependency():
    c = circuit(1, [h(0), p(0.5, 0), h(0)])
    with pytest.raises(IllegalSite):
        apply_step(c, Step("H2", "LR", (), None, Site((0, 2), (0,))))


def test_apply_commutes_disjoint_gate_out_of_the_way():
    c = circuit(2, [h(0), p(0.5, 1), h(0)])
    out = apply_step(c, Step("H2", "LR", (), None, Site((0, 2), (0,))))
    assert [g.kind for g in out.gates] == ["P"]
    assert out.gates[0].wires == (1,)


def test_apply_c_rule_collapses_block():
    phi = 0.7
    c = circuit(2, [cnot(0, 1), p(phi, 0), cnot(0, 1)])
    out = apply_step(c, Step("C", "LR", (phi,), None, Site((0, 1, 2), (0, 1))))
    assert [g.kind for g in out.gates] == ["P"]
    assert np.max(np.abs(eval_matrix(out) - eval_matrix(c))) < 1e-12


def test_apply_with_permuted_wire_map():
    phi = 0.9
    c = circuit(2, [cnot(1, 0), p(phi, 1), cnot(1, 0)])
    out = apply_step(c, Step("C", "LR", (phi,), None, Site((0, 1, 2), (1, 0))))
    assert [g.kind for g in out.gates] == ["P"] and out.gates[0].wires == (1,)


def test_apply_angle_mismatch_is_no_match():
    c = circuit(1, [p(0.3, 0)])
    with pytest.raises(NoMatch):
        apply_step(c, Step("P0", "LR", (), None, Site((0,), (0,))))


def test_empty_source_insertion():
    c = circuit(1, [p(0.3, 0)])
    out = apply_step(c, Step("H2", "RL", (), None, Site((), (0,), at=1)))
    assert [g.kind for g in out.gates] == ["P", "H", "H"]


def test_ancilla_steps():
    c = Circuit(1, 1, (h(0),))
    out = apply_step(c, Step("A", "RL", (), None, Site((), (), at=1)),
                     theory="QCancilla")
    assert [g.kind for g in out.gates] == ["H", "INIT", "DEST"]
    out2 = apply_step(out, Step("AP", "RL", (1.3,), None, Site((1,), (), 0)),
                      theory="QCancilla")
    assert [g.kind for g in out2.gates] == ["H", "INIT", "P", "DEST"]
    out3 = apply_step(out2, Step("AP", "LR", (1.3,), None, Site((1, 2), (), 0)),
                      theory="QCancilla")
    assert deformation_equal(out3, out)


def _flip(step, site):
    return Step(step.rule, "RL" if step.direction == "LR" else "LR",
                step.params, step.n, site)


def test_ancilla_steps_between_untouched_wires():
    # the INIT opens the middle of three wires; H(0) and H(2) act around it
    c = Circuit(2, 3, (h(0), init(1), h(2)))
    cases = ((Step("AP", "RL", (0.4,), None, Site((1,), (), 1)),
              (h(0), init(1), p(0.4, 1), h(2))),
             (Step("A", "RL", (), None, Site((), (), 2)),
              (h(0), init(1), init(0), dest(0), h(2))),
             (Step("ACX", "RL", (), None, Site((1,), (1,), 1)),
              (h(0), init(1), cnot(1, 2), h(2))))
    for step, gates in cases:
        res = apply_step_full(c, step, "QCancilla", safety=True)
        assert res.circuit.gates == gates
        back = apply_step(res.circuit, _flip(step, res.reverse_site), "QCancilla")
        assert back.gates == c.gates
    # ACX needs its ancilla above the system wire
    with pytest.raises(NoMatch):
        apply_step(c, Step("ACX", "RL", (), None, Site((1,), (0,), 1)), "QCancilla")


def _rand_ancilla_circuit(rng):
    n_in = int(rng.integers(0, 4))
    w, gates = n_in, []
    for _ in range(int(rng.integers(1, 8))):
        r = rng.random()
        if r < 0.35 and w < 4:
            k = int(rng.integers(0, w + 1))
            gates.append(init(k))
            w += 1
            if w >= 2 and rng.random() < 0.5:   # an ACX candidate
                gates.append(cnot(k, int(rng.choice([i for i in range(w) if i != k]))))
        elif r < 0.5 and w > 0:
            gates.append(dest(int(rng.integers(0, w))))
            w -= 1
        elif r < 0.65 and w >= 2:
            a, b = rng.choice(w, 2, replace=False)
            gates.append(cnot(int(a), int(b)))
        elif w > 0:
            gates.append(p(float(rng.uniform(-3, 3)), int(rng.integers(0, w))))
    return Circuit(n_in, w, tuple(gates))


def test_ancilla_steps_reverse_on_random_circuits():
    rng = np.random.default_rng(20261018)
    applied = 0
    for _ in range(40):
        c = _rand_ancilla_circuit(rng)
        n = len(c.gates)
        steps = [Step("A", "RL", (), None, Site((), (), i)) for i in range(n + 1)]
        for i in range(n):
            steps.append(Step("AP", "RL", (0.3,), None, Site((i,), (), i)))
            steps += [Step("ACX", "RL", (), None, Site((i,), (m,), i)) for m in range(4)]
            for j in range(i + 1, n):
                steps.append(Step("A", "LR", (), None, Site((i, j), (), i)))
                steps.append(Step("AP", "LR", (c.gates[j].params or (0.0,)), None,
                                  Site((i, j), (), i)))
                steps += [Step("ACX", "LR", (), None, Site((i, j), (m,), i))
                          for m in range(4)]
        for step in steps:
            try:
                res = apply_step_full(c, step, "QCancilla", safety=True)
            except (NoMatch, IllegalSite):
                continue
            applied += 1
            back = apply_step(res.circuit, _flip(step, res.reverse_site), "QCancilla")
            assert deformation_equal(back, c), step
    assert applied >= 100


def test_reverse_site_is_the_step_wire_map():
    # the replacement assembles in the frame the step resolved its wire map
    # in, and the flipped step fired there restores the step's input
    for d in all_traces():
        c = d.initial
        for step in d.steps:
            res = apply_step_full(c, step, d.theory, allow_lemmas=True, safety=False)
            assert res.reverse_site.wire_map == step.site.wire_map
            back = apply_step(res.circuit, _flip(step, res.reverse_site), d.theory,
                              allow_lemmas=True, safety=True)
            assert deformation_equal(back, c)
            c = res.circuit


def test_circuits_are_threaded_once(monkeypatch):
    # only the Circuit constructor threads: a step threads the rule's two
    # sides, the matched block and its result; evaluation threads nothing
    circuit_mod = importlib.import_module("qc_equate.circuit")
    c = circuit(2, [cnot(0, 1), p(0.7, 0), cnot(0, 1)])
    calls = []
    thread = circuit_mod.thread
    monkeypatch.setattr(circuit_mod, "thread", lambda cc: calls.append(cc) or thread(cc))
    apply_step(c, Step("C", "LR", (0.7,), None, Site((0, 1, 2), (0, 1))), safety=False)
    assert len(calls) <= 4
    calls.clear()
    eval_matrix(c)
    assert calls == []


def test_find_sites():
    c = circuit(1, [h(0), h(0), h(0)])
    sites = find_sites(c, "H2", direction="LR")
    assert [s.gates for s in sites] == [(0, 1), (1, 2)]
    c2 = circuit(2, [cnot(0, 1), p(0.4, 0), cnot(0, 1)])
    sites = find_sites(c2, "C", (0.4,), direction="LR")
    assert len(sites) == 1


def test_replay_and_reverse():
    c = circuit(1, [h(0), h(0), p(0.5, 0)])
    step = Step("H2", "LR", (), None, Site((0, 1), (0,)))
    d = Derivation("QC", c, [step], circuit(1, [p(0.5, 0)]))
    assert deformation_equal(replay(d), d.final)
    back = replay(reverse_derivation(d), allow_lemmas=True)
    assert deformation_equal(back, c)


def test_replay_reports_step_index():
    c = circuit(1, [h(0)])
    d = Derivation("QC", c, [Step("H2", "LR", (), None, Site((0,), (0,)))],
                   circuit(1, []))
    with pytest.raises(NoMatch, match="step 0"):
        replay(d)


def test_replay_empty_derivation():
    c = circuit(1, [h(0)])
    d = Derivation("QC", c, [], c)
    assert deformation_equal(replay(d), c)


def test_replay_strict_mode_rejects_lemmas():
    c = circuit(1, [p(0.2, 0), p(0.3, 0)])
    d = Derivation("QC", c,
                   [Step("PPLUS", "LR", (0.2, 0.3), None, Site((0, 1), (0,)))],
                   circuit(1, [p(0.5, 0)]))
    with pytest.raises(Exception):
        replay(d, allow_lemmas=False)
    replay(d, allow_lemmas=True)


def test_normalize_examples():
    params, _ = normalize_1q(circuit(1, [h(0), h(0)]))
    assert np.allclose(list(params), [0, 0, 0, 0], atol=1e-12)
    params, _ = normalize_1q(circuit(1, [p(1.1, 0), p(2.2, 0)]))
    assert np.allclose(list(params), [0, 3.3, 0, 0], atol=1e-12)


def test_normalize_agrees_with_closed_form():
    rng = np.random.default_rng(17)
    for trial in range(60):
        top = 61 if trial < 10 else 40
        c = rand_1q(rng, int(rng.integers(0, top)))
        params, _ = normalize_1q(c)
        want = nf_from_unitary(eval_matrix(c))
        assert params.valid()
        assert params.close_to(want, 1e-8)


def test_normalize_idempotent_on_own_output():
    rng = np.random.default_rng(18)
    for _ in range(20):
        c = rand_1q(rng, int(rng.integers(0, 20)))
        params, _ = normalize_1q(c)
        again, _ = normalize_1q(params.circuit())
        assert params.close_to(again, 1e-9)


def test_normalize_traces_replay():
    rng = np.random.default_rng(19)
    for _ in range(8):
        c = rand_1q(rng, int(rng.integers(1, 14)))
        params, deriv = normalize_1q(c, emit_trace=True)
        out = replay(deriv, allow_lemmas=True, safety=True, tol=1e-9)
        assert deformation_equal(out, deriv.final)
        assert np.max(np.abs(eval_matrix(out) - eval_matrix(c))) < 1e-8


def test_normalize_qcprime_variant():
    rng = np.random.default_rng(20)
    for _ in range(10):
        c = rand_1q(rng, int(rng.integers(0, 10)))
        params, _ = normalize_1q(c, theory="QCprime")
        want = nf_from_unitary(eval_matrix(c))
        assert params.close_to(want, 1e-7)
    # split angles on the pi grid next to context gates of the same angle
    fixed = [
        circuit(1, [h(0), h(0), z(0), x(0)]),
        circuit(1, [x(0), z(0), h(0), h(0)]),
        circuit(1, [x(0), h(0), x(0), h(0)]),
        circuit(1, [x(0), z(0), gphase(6.761538988103883), z(0), h(0), x(0),
                    h(0), rx(-6.814522666230806, 0), gphase(6.0419672278893355),
                    gphase(4.800297777855281), p(6.4670877788452845, 0)]),
    ]
    # angles on the pi/4 grid reach every Euler case of (E')
    rng = np.random.default_rng(22)
    grid = [rand_1q(rng, int(rng.integers(0, 17)), grid=True) for _ in range(150)]
    cases = set()
    for c in fixed + grid:
        params, deriv = normalize_1q(c, emit_trace=True, theory="QCprime")
        assert params.close_to(nf_from_unitary(eval_matrix(c)), 1e-8)
        out = replay(deriv, allow_lemmas=True, safety=True, tol=1e-9)
        assert deformation_equal(out, deriv.final)
        cases |= {euler_eprime(*s.params)[1].tag for s in deriv.steps
                  if s.rule == "EPRIME"}
    assert cases == {GENERIC, Z_ZERO, ZPRIME_ZERO}


def test_qcprime_normalizer_cites_only_qcprime_rules():
    """QCprime traces rest on QCprime's axioms, the macro definitions and the
    two band-reduction lemmas: never on (EH) or (E) or lemmas derived from
    them."""
    allowed = set(_CATALOG["QCprime"]) | set(DEFINITIONAL) | {"RXNEG", "RXFLIP"}
    rng = np.random.default_rng(23)
    for _ in range(60):
        c = rand_1q(rng, int(rng.integers(0, 17)))
        _, deriv = normalize_1q(c, emit_trace=True, theory="QCprime")
        assert {s.rule for s in deriv.steps} <= allowed


def test_normalize_rejects_wide_or_ancilla():
    with pytest.raises(BadArity):
        normalize_1q(circuit(2, [cnot(0, 1)]))
    with pytest.raises(BadArity):
        normalize_1q(Circuit(1, 1, (init(0), dest(0), h(0))))
    for theory in ("QC", "QCprime"):
        with pytest.raises(UnsupportedGate):
            normalize_1q(circuit(1, [h(0), ctrl("", x(0), (0,))]), theory=theory)


def test_normalize_rejects_other_theories():
    # QCugp and QCancilla lack the lemmas and axioms the procedure cites
    c = circuit(1, [h(0), p(0.3, 0), rx(0.5, 0)])
    for theory in ("QCugp", "QCancilla", "QCnone"):
        with pytest.raises(UnknownTheory):
            normalize_1q(c, emit_trace=True, theory=theory)


def test_decide_equiv_examples():
    assert decide_equiv_1q(circuit(1, [h(0), h(0)]), circuit(1, []))
    phi = 1.7
    assert decide_equiv_1q(circuit(1, [x(0), p(phi, 0), x(0)]),
                           circuit(1, [gphase(phi), p(-phi, 0)]))
    assert not decide_equiv_1q(circuit(1, [p(phi, 0)]), circuit(1, [rx(phi, 0)]))


def test_decide_equiv_matches_matrix_equality():
    from qc_equate import equal_matrices
    rng = np.random.default_rng(21)
    for _ in range(40):
        c1 = rand_1q(rng, int(rng.integers(0, 10)))
        c2 = rand_1q(rng, int(rng.integers(0, 10)))
        want = equal_matrices(eval_matrix(c1), eval_matrix(c2), 1e-8)
        assert decide_equiv_1q(c1, c2) == want
