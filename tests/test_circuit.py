"""Circuit construction, composition, macro expansion, canonicalization."""

import math

import numpy as np
import pytest

from qc_equate import (Circuit, Gate, canonicalize, circuit, cnot, compose_par,
                       compose_seq, ctrl, deformation_equal, dest,
                       expand_macros, eval_matrix, gphase, h, init, mcp, mcrx,
                       p, rx, swap, x, z)
from qc_equate.circuit import PRIMITIVE_KINDS
from qc_equate.errors import ArityMismatch, InvalidCircuit

PI = math.pi


def rand_vanilla(rng, n, m):
    gates = []
    for _ in range(m):
        kind = rng.integers(0, 4)
        if kind == 0:
            gates.append(h(int(rng.integers(n))))
        elif kind == 1:
            gates.append(p(float(rng.uniform(0, 2 * PI)), int(rng.integers(n))))
        elif kind == 2 and n >= 2:
            a, b = rng.choice(n, 2, replace=False)
            gates.append(cnot(int(a), int(b)))
        else:
            gates.append(gphase(float(rng.uniform(0, 2 * PI))))
    return circuit(n, gates)


def test_compose_seq_concatenates():
    c = compose_seq(circuit(1, [h(0)]), circuit(1, [h(0)]))
    assert [g.kind for g in c.gates] == ["H", "H"]
    c2 = compose_seq(circuit(0, []), circuit(0, [gphase(0.4)]))
    assert [g.kind for g in c2.gates] == ["GPHASE"]


def test_compose_seq_arity_mismatch():
    with pytest.raises(ArityMismatch):
        compose_seq(circuit(1, [h(0)]), circuit(2, [cnot(0, 1)]))


def test_compose_par_shifts_wires():
    c = compose_par(circuit(1, [h(0)]), circuit(1, [p(0.3, 0)]))
    assert c.n_in == 2
    assert c.gates[0].wires == (0,) and c.gates[1].wires == (1,)
    e = compose_par(circuit(1, [h(0)]), circuit(0, []))
    assert len(e.gates) == 1


def test_compose_par_interchange_law():
    # (C3 (x) C4) o (C1 (x) C2) = (C3 o C1) (x) (C4 o C2), checked on matrices
    rng = np.random.default_rng(3)
    for _ in range(20):
        c1 = rand_vanilla(rng, 2, 3)
        c2 = rand_vanilla(rng, 1, 3)
        c3 = rand_vanilla(rng, 2, 3)
        c4 = rand_vanilla(rng, 1, 3)
        lhs = compose_seq(compose_par(c1, c2), compose_par(c3, c4))
        rhs = compose_par(compose_seq(c1, c3), compose_seq(c2, c4))
        assert np.max(np.abs(eval_matrix(lhs) - eval_matrix(rhs))) < 1e-12


def test_threading_validation():
    with pytest.raises(InvalidCircuit):
        circuit(1, [cnot(0, 1)])
    with pytest.raises(InvalidCircuit):
        Circuit(1, 2, ())          # wrong declared n_out
    with pytest.raises(InvalidCircuit):
        Circuit(0, 0, (dest(0),))  # nothing to destroy
    # INIT inserts a wire; the widened frame is usable afterwards
    c = Circuit(1, 2, (init(0), cnot(0, 1)))
    assert c.n_out == 2


def test_expand_macros_primitive_only_and_idempotent():
    c = circuit(3, [x(0), z(1), rx(0.7, 2), mcp(1.1, (0, 1, 2)),
                    mcrx(0.4, (0, 2)), ctrl("01", p(0.3, 0), (0, 1, 2))])
    e = expand_macros(c)
    assert all(g.kind in PRIMITIVE_KINDS for g in e.gates)
    assert expand_macros(e).gates == e.gates
    assert np.max(np.abs(eval_matrix(e) - eval_matrix(c))) < 1e-10


def test_mcp_expansion_matches_direct_construction():
    rng = np.random.default_rng(0)
    for m in range(1, 6):
        phi = float(rng.uniform(0, 2 * PI))
        c = circuit(m, [mcp(phi, tuple(range(m)))])
        d = np.ones(2 ** m, dtype=complex)
        d[-1] = np.exp(1j * phi)
        assert np.max(np.abs(eval_matrix(expand_macros(c)) - np.diag(d))) < 1e-10


def test_mcp_2pi_is_identity():
    for m in range(1, 5):
        c = circuit(m, [mcp(2 * PI, tuple(range(m)))])
        assert np.max(np.abs(eval_matrix(c) - np.eye(2 ** m))) < 1e-9


def test_mcrx_expansion_matches_block_construction():
    rng = np.random.default_rng(1)
    for k in range(0, 4):
        theta = float(rng.uniform(0, 2 * PI))
        c = circuit(k + 1, [mcrx(theta, tuple(range(k + 1)))])
        want = np.eye(2 ** (k + 1), dtype=complex)
        want[-2:, -2:] = np.array(
            [[math.cos(theta / 2), -1j * math.sin(theta / 2)],
             [-1j * math.sin(theta / 2), math.cos(theta / 2)]])
        assert np.max(np.abs(eval_matrix(c) - want)) < 1e-10


def test_rx_expansion_is_standard_rotation():
    # oracle: 2x2 product e^{-i theta/2} H diag(1, e^{i theta}) H
    theta = 1.234
    hmat = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    want = np.exp(-1j * theta / 2) * hmat @ np.diag([1, np.exp(1j * theta)]) @ hmat
    got = eval_matrix(expand_macros(circuit(1, [rx(theta, 0)])))
    assert np.max(np.abs(got - want)) < 1e-12


def test_canonicalize_examples():
    assert deformation_equal(circuit(2, [h(0), h(1)]), circuit(2, [h(1), h(0)]))
    a = circuit(2, [p(0.4, 0), cnot(0, 1)])
    b = circuit(2, [cnot(0, 1), p(0.4, 0)])
    assert not deformation_equal(a, b)
    assert not deformation_equal(circuit(1, [h(0), h(0)]), circuit(1, []))
    assert deformation_equal(circuit(3, [h(0), p(0.1, 2)]),
                             circuit(3, [p(0.1, 2), h(0)]))


def test_canonicalize_idempotent_and_semantics_preserving():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        c = rand_vanilla(rng, n, int(rng.integers(0, 10)))
        k = canonicalize(c)
        assert canonicalize(k.circuit) == k
        assert np.max(np.abs(eval_matrix(k.circuit) - eval_matrix(c))) < 1e-10


def test_canonicalize_random_transposition_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        c = rand_vanilla(rng, n, int(rng.integers(2, 12)))
        base = canonicalize(c)
        gates = list(c.gates)
        for _ in range(50):
            i = int(rng.integers(0, len(gates) - 1))
            a, b = gates[i], gates[i + 1]
            if set(a.wires) & set(b.wires):
                continue
            gates[i], gates[i + 1] = b, a
            assert canonicalize(circuit(n, gates)) == base


def test_init_dest_threading_and_canonical():
    c = Circuit(1, 1, (h(0), init(0), cnot(0, 1), dest(0), h(0)))
    assert np.max(np.abs(eval_matrix(c) - np.eye(2))) < 1e-10
    # the INIT wire is the control of the CNOT and stays |0>
    k = canonicalize(c)
    assert deformation_equal(k.circuit, c)


def test_json_round_trip():
    c = Circuit(1, 2, (h(0), init(1), mcp(0.3, (0, 1)),
                       ctrl("0", rx(0.2, 0), (0, 1))))
    back = Circuit.from_json(c.to_json())
    assert back == c


def test_swap_wires_normalized():
    assert swap(1, 0).wires == (0, 1)


def test_gate_rejects_non_integer_wires():
    assert h(np.int64(1)).wires == (1,)
    for wires in ((0.9,), (True,), ("0",)):
        with pytest.raises(InvalidCircuit):
            Gate("H", wires)


def test_gate_params_must_be_real_numbers():
    for angle in (7, 0.5, np.float32(0.5), np.int64(3)):
        assert p(angle, 0).params == (float(angle),)
        assert type(p(angle, 0).params[0]) is float
    # "7" is not P(7), true is not P(1.0)
    for params in (("7",), (True,), (None,), (1j,), (np.bool_(True),)):
        with pytest.raises(InvalidCircuit):
            Gate("P", (0,), params)


def test_circuit_rejects_non_integer_wire_counts():
    assert type(Circuit(np.int64(1), 1, (h(0),)).n_in) is int   # JSON-serializable
    # true is not 1 wire, and 1.0 is not a count
    for n_in, n_out in ((True, True), (1.0, 1), (1, "1"), (-1, 0)):
        with pytest.raises(InvalidCircuit):
            Circuit(n_in, n_out)


def test_gate_rejects_nonfinite_angle():
    with pytest.raises(InvalidCircuit):
        p(float("nan"), 0)
