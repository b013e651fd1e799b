"""Matrix semantics and the equality predicates."""

import math
import os

import numpy as np
import pytest

from qc_equate import (Circuit, circuit, cnot, compose_par, compose_seq,
                       ctrl, det_arg, dest, equal_matrices, equal_up_to_phase,
                       eval_matrix, expand_macros, gphase, h, init,
                       is_isometry, mcp, mcrx, p, rx, swap, x, z)
from qc_equate.errors import (DegenerateMatrix, InvalidCircuit,
                              ShapeMismatch, WireCapExceeded)
from qc_equate.semantics import _evaluate

PI = math.pi
SQ2 = math.sqrt(2)


def test_generator_matrices():
    assert np.allclose(eval_matrix(circuit(1, [h(0)])),
                       np.array([[1, 1], [1, -1]]) / SQ2)
    phi = 0.77
    assert np.allclose(eval_matrix(circuit(1, [p(phi, 0)])),
                       np.diag([1, np.exp(1j * phi)]))
    want = np.zeros((4, 4))
    want[0, 0] = want[1, 1] = want[2, 3] = want[3, 2] = 1
    assert np.allclose(eval_matrix(circuit(2, [cnot(0, 1)])), want)
    sw = np.zeros((4, 4))
    sw[0, 0] = sw[1, 2] = sw[2, 1] = sw[3, 3] = 1
    assert np.allclose(eval_matrix(circuit(2, [swap(0, 1)])), sw)
    assert np.allclose(eval_matrix(circuit(0, [gphase(1.0)])),
                       np.array([[np.exp(1j)]]))


def test_init_dest_semantics():
    assert np.allclose(eval_matrix(Circuit(0, 1, (init(0),))),
                       np.array([[1], [0]]))
    assert np.allclose(eval_matrix(Circuit(1, 0, (dest(0),))),
                       np.array([[1, 0]]))
    assert np.allclose(eval_matrix(Circuit(0, 0, (init(0), dest(0)))),
                       np.array([[1]]))


def test_cnot_involution():
    m = eval_matrix(circuit(2, [cnot(0, 1), cnot(0, 1)]))
    assert np.allclose(m, np.eye(4))


def test_functoriality_random():
    rng = np.random.default_rng(2)

    def rand(n, m):
        gates = []
        for _ in range(m):
            kind = rng.integers(0, 3)
            if kind == 0:
                gates.append(h(int(rng.integers(n))))
            elif kind == 1:
                gates.append(p(float(rng.uniform(0, 2 * PI)), int(rng.integers(n))))
            elif n >= 2:
                a, b = rng.choice(n, 2, replace=False)
                gates.append(cnot(int(a), int(b)))
        return circuit(n, gates)

    for _ in range(30):
        n = int(rng.integers(1, 4))
        a, b = rand(n, 4), rand(n, 4)
        seq = eval_matrix(compose_seq(a, b))
        assert np.max(np.abs(seq - eval_matrix(b) @ eval_matrix(a))) < 1e-12
        m = int(rng.integers(1, 3))
        c = rand(m, 3)
        par = eval_matrix(compose_par(a, c))
        assert np.max(np.abs(par - np.kron(eval_matrix(a), eval_matrix(c)))) < 1e-12


def test_vanilla_circuits_are_unitary():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(8):
            w = int(rng.integers(n))
            gates.append(h(w) if rng.random() < 0.5
                         else p(float(rng.uniform(0, 7)), w))
        u = eval_matrix(circuit(n, gates))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 ** n))) <= 1e-10


def test_equal_matrices():
    assert equal_matrices(np.eye(2), np.eye(2), 1e-12)
    assert not equal_matrices(np.eye(2), np.diag([1, np.exp(1e-3j)]), 1e-9)
    with pytest.raises(ShapeMismatch):
        equal_matrices(np.eye(2), np.eye(4))


def test_equal_up_to_phase():
    u = eval_matrix(circuit(1, [h(0)]))
    assert equal_up_to_phase(u, np.exp(0.3j) * u, 1e-10)
    xmat = np.array([[0, 1], [1, 0]], dtype=complex)
    assert not equal_up_to_phase(u, xmat, 1e-9)
    # RX(pi) = -i X
    rxpi = eval_matrix(circuit(1, [rx(PI, 0)]))
    assert np.max(np.abs(rxpi - (-1j) * xmat)) < 1e-12
    assert equal_up_to_phase(rxpi, xmat, 1e-9)
    with pytest.raises(DegenerateMatrix):
        equal_up_to_phase(np.eye(2), np.zeros((2, 2)))


def test_batched_equality_is_per_instance_equality():
    # instances on a trailing axis, each with its own phase: a batch holds
    # iff every instance does; one instance off by more than tol fails it
    rng = np.random.default_rng(3)
    us = np.stack([eval_matrix(circuit(2, [rx(t, 0), h(1), cnot(0, 1), p(phi, 1)]))
                   for t, phi in rng.uniform(-4, 4, (5, 2))], axis=-1)
    phased = us * np.exp(1j * rng.uniform(-PI, PI, 5))
    off = phased.copy()
    off[1, 2, 3] += 1e-6
    for pred in (equal_up_to_phase, equal_matrices):
        for a, b in ((us, phased), (phased, off), (us, off), (off, off)):
            each = [pred(a[..., k], b[..., k], 1e-9) for k in range(5)]
            assert pred(a, b, 1e-9) == all(each), (pred.__name__, each)
    assert equal_up_to_phase(us, phased, 1e-9) and not equal_up_to_phase(us, off, 1e-9)
    # a (near-)zero instance of b: the phase cannot be extracted from it,
    # in the batch as on its own; equality compares it like any other
    degenerate = off.copy()
    degenerate[..., 1] = 0.0
    for a in (us, phased):
        with pytest.raises(DegenerateMatrix):
            equal_up_to_phase(a[..., 1], degenerate[..., 1])
        with pytest.raises(DegenerateMatrix):
            equal_up_to_phase(a, degenerate)
        each = [equal_matrices(a[..., k], degenerate[..., k]) for k in range(5)]
        assert not equal_matrices(a, degenerate) and not all(each)
    assert equal_matrices(degenerate, degenerate)


def test_is_isometry():
    assert is_isometry(eval_matrix(Circuit(0, 1, (init(0),))))
    assert not is_isometry(eval_matrix(Circuit(1, 0, (dest(0),))))
    assert is_isometry(eval_matrix(circuit(2, [h(0), cnot(0, 1)])))


def test_det_arg():
    phi = 1.37
    assert abs(det_arg(circuit(1, [p(phi, 0)])) - phi) < 1e-12
    assert abs(det_arg(circuit(2, [cnot(0, 1)])) - PI) < 1e-12
    assert abs(det_arg(circuit(1, [h(0)])) - PI) < 1e-12
    with pytest.raises(InvalidCircuit):
        det_arg(Circuit(0, 1, (init(0),)))


def test_macro_evaluation_agrees_with_expansion():
    from qc_equate import expand_macros, mcp, mcrx
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        c = circuit(n, [mcp(float(rng.uniform(0, 7)), tuple(range(n))),
                        mcrx(float(rng.uniform(0, 7)), tuple(range(n))),
                        x(int(rng.integers(n)))])
        assert np.max(np.abs(eval_matrix(c) - eval_matrix(expand_macros(c)))) < 1e-10


def test_zero_control_ctrl_x_is_x():
    c = circuit(1, [ctrl("", x(0), (0,))])
    xmat = np.array([[0, 1], [1, 0]])
    assert np.max(np.abs(eval_matrix(c) - xmat)) < 1e-12
    assert np.max(np.abs(eval_matrix(expand_macros(c)) - xmat)) < 1e-12


def _random_gate(rng, width):
    """One gate of a random kind on a random (unsorted) wire tuple."""
    angle = float(rng.uniform(-7, 7))
    kinds = ["GPHASE", "H", "P", "X", "Z", "RX", "MCP", "MCRX", "CTRL"]
    if width >= 2:
        kinds += ["CNOT", "SWAP"]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "GPHASE":
        return gphase(angle)
    one = int(rng.integers(width))
    if kind in ("H", "X", "Z"):
        return {"H": h, "X": x, "Z": z}[kind](one)
    if kind in ("P", "RX"):
        return {"P": p, "RX": rx}[kind](angle, one)
    if kind in ("CNOT", "SWAP"):
        a, b = (int(w) for w in rng.choice(width, 2, replace=False))
        return cnot(a, b) if kind == "CNOT" else swap(a, b)
    k = int(rng.integers(1, width + 1))
    wires = tuple(int(w) for w in rng.choice(width, k, replace=False))
    if kind == "MCP":
        return mcp(angle, wires)
    if kind == "MCRX":
        return mcrx(angle, wires)
    base = [p(angle, 0), x(0), z(0), rx(angle, 0)][int(rng.integers(4))]
    pattern = "".join(str(int(b)) for b in rng.integers(0, 2, k - 1))
    return ctrl(pattern, base, wires)


def _random_circuit(rng):
    """1-6 wires, 1-8 gates; about half the circuits insert/remove wires."""
    n_in = int(rng.integers(1, 7))
    width, gates = n_in, []
    structural = rng.random() < 0.5
    for _ in range(int(rng.integers(1, 9))):
        r = rng.random()
        if structural and r < 0.15 and width < 6:
            gates.append(init(int(rng.integers(width + 1))))
            width += 1
        elif structural and r < 0.3 and width > 1:
            gates.append(dest(int(rng.integers(width))))
            width -= 1
        else:
            gates.append(_random_gate(rng, width))
    return Circuit(n_in, width, tuple(gates))


def test_kernels_agree_with_expansion_oracle():
    rng = np.random.default_rng(20261018)
    kinds, bases, zero_ctrl, structural = set(), set(), 0, 0
    for _ in range(400):
        c = _random_circuit(rng)
        for g in c.gates:
            kinds.add(g.kind)
            if g.kind == "CTRL":
                bases.add(g.base.kind)
                zero_ctrl += len(g.wires) == 1
        structural += c.n_in != c.n_out or any(g.kind in ("INIT", "DEST") for g in c.gates)
        diff = np.max(np.abs(eval_matrix(c) - eval_matrix(expand_macros(c))))
        assert diff < 1e-12, c.to_json()
    assert kinds == {"GPHASE", "H", "P", "CNOT", "SWAP", "INIT", "DEST",
                     "X", "Z", "RX", "MCP", "MCRX", "CTRL"}
    assert bases == {"P", "X", "Z", "RX"}
    assert zero_ctrl > 0 and structural > 0


def test_a_batch_of_angles_evaluates_each_instance():
    # the batch's instance k is the circuit with the angles of column k
    rng = np.random.default_rng(20261020)
    for _ in range(200):
        c = _random_circuit(rng)
        angles = rng.uniform(-7, 7, (len(c._plan.angle_at), 3))
        batch = _evaluate(c, angles)
        assert batch.shape == (2 ** c.n_out, 2 ** c.n_in, 3)
        for k in range(3):
            one = eval_matrix(c.with_angles(angles[:, k].tolist()))
            assert np.max(np.abs(batch[..., k] - one)) < 1e-12, c.to_json()


_PRIMITIVE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]]) / SQ2,
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}


def _reference_matrix(c):
    """Primitive circuits by transpose-matmul-transpose, one gate at a time."""
    width = c.n_in
    state = np.eye(2 ** width, dtype=complex)
    for g in c.gates:
        cols = state.shape[1]
        t = state.reshape((2,) * width + (cols,))
        if g.kind == "GPHASE":
            state = state * np.exp(1j * g.params[0])
            continue
        if g.kind in ("INIT", "DEST"):
            pos = g.wires[0]
            t = (np.stack([t, np.zeros_like(t)], axis=pos) if g.kind == "INIT"
                 else np.take(t, 0, axis=pos))
            width += 1 if g.kind == "INIT" else -1
            state = t.reshape(2 ** width, cols)
            continue
        u = (np.diag([1, np.exp(1j * g.params[0])]) if g.kind == "P"
             else _PRIMITIVE_MATRICES[g.kind])
        perm = list(g.wires) + [a for a in range(width) if a not in g.wires] + [width]
        t = (u @ np.transpose(t, perm).reshape(u.shape[0], -1)).reshape(
            (2,) * width + (cols,))
        state = np.transpose(t, np.argsort(perm)).reshape(2 ** width, cols)
    return state


def test_primitive_kernels_match_reference():
    rng = np.random.default_rng(31)
    for _ in range(200):
        c = expand_macros(_random_circuit(rng))
        if len(c.gates) > 200:
            continue
        assert np.max(np.abs(eval_matrix(c) - _reference_matrix(c))) < 1e-12, c.to_json()


def test_macro_closed_forms_at_ten_wires():
    n = 10
    assert np.max(np.abs(eval_matrix(circuit(n, [mcp(2 * PI, tuple(range(n)))]))
                         - np.eye(2 ** n))) < 1e-12
    phi = 1.234
    want = np.ones(2 ** n, dtype=complex)
    want[-1] = np.exp(1j * phi)
    wires = (3, 7, 0, 9, 1, 5, 8, 2, 6, 4)
    assert np.max(np.abs(eval_matrix(circuit(n, [mcp(phi, wires)]))
                         - np.diag(want))) < 1e-12
    theta = -2.5
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    want = np.eye(2 ** n, dtype=complex)
    tbit = 1 << (n - 1 - wires[-1])
    i1 = 2 ** n - 1          # every control at 1, target at 1
    i0 = i1 ^ tbit
    want[i0, i0] = want[i1, i1] = c
    want[i0, i1] = want[i1, i0] = -1j * s
    assert np.max(np.abs(eval_matrix(circuit(n, [mcrx(theta, wires)])) - want)) < 1e-12


def test_wire_cap(monkeypatch):
    monkeypatch.setenv("QCEQ_WIRE_CAP", "3")
    with pytest.raises(WireCapExceeded):
        eval_matrix(circuit(4, [h(0)]))
    monkeypatch.delenv("QCEQ_WIRE_CAP")
    eval_matrix(circuit(4, [h(0)]))  # default cap is 10


def test_eval_matrix_refuses_a_circuit_whose_inits_pass_the_cap(monkeypatch):
    # one wire at both ends, two in between: refused before any kernel runs
    monkeypatch.setenv("QCEQ_WIRE_CAP", "1")
    c = Circuit(1, 1, (init(0), dest(0)))
    assert c.threading.widest == 2
    with pytest.raises(WireCapExceeded, match="^circuit opens 2 wires at once, cap 1$"):
        eval_matrix(c)
    assert eval_matrix(Circuit(1, 1, (h(0),))).shape == (2, 2)
    monkeypatch.setenv("QCEQ_WIRE_CAP", "2")
    assert np.allclose(eval_matrix(c), np.eye(2))
