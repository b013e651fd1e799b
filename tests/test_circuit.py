"""Circuit construction, composition, macro expansion, canonicalization."""

import hashlib
import itertools
import json
import math
import re
import time
import timeit

import numpy as np
import pytest

from qc_equate import (Circuit, Gate, canonicalize, circuit, cnot, compose_par,
                       compose_seq, ctrl, deformation_equal, dest,
                       expand_macros, eval_matrix, gphase, h, init, mcp, mcrx,
                       p, rx, swap, x, z)
from qc_equate.circuit import (ALL_KINDS, ANGLE_EPS, PRIMITIVE_KINDS, _bind, _deformation,
                               _deps, _id_gates, _place, angle_period, angles_equal, expand_gate,
                               reduce_angle, unfold)
from qc_equate.euler import _reduce_columns
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
    with pytest.raises(InvalidCircuit):
        Circuit(2**70, 2**70)      # more wires than a list can index
    # INIT inserts a wire; the widened frame is usable afterwards
    c = Circuit(1, 2, (init(0), cnot(0, 1)))
    assert c.n_out == 2
    # each gate checks its kind, wire and parameter counts, CTRL's base and
    # pattern, and distinct wires
    for make in (lambda: Gate("FOO", (0,)),
                 lambda: Gate("CNOT", (0,)),
                 lambda: Gate("P", (0,), ()),
                 lambda: Gate("MCP", (), (0.1,)),
                 lambda: Gate("MCRX", (), (0.1,)),
                 lambda: Gate("CTRL", (0, 1), (), "1"),
                 lambda: ctrl("1", h(1), (0, 1)),
                 lambda: ctrl("2", x(1), (0, 1)),
                 lambda: ctrl("10", x(1), (0, 1)),
                 lambda: Gate("CNOT", (1, 1))):
        with pytest.raises(InvalidCircuit):
            make()


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


def test_canonical_order_is_kept_and_never_inherited():
    # two global phases are ordered by angle, so new angles reorder them
    d = circuit(1, [gphase(0.2), h(0), gphase(0.1)]).with_angles((0.1, 0.2))
    assert canonicalize(d).gates == (h(0), gphase(0.1), gphase(0.2))
    # global phases have depth 0 and no wire: they come after the wired
    # depth-0 gate, by angle modulo 2pi, whatever the input order
    gates = (gphase(0.3 + 2 * PI), h(0), gphase(0.1))
    for perm in itertools.permutations(gates):
        assert canonicalize(circuit(1, perm)).gates == (h(0), gphase(0.1), gphase(0.3 + 2 * PI))


def test_deformation_equal_checks_arity_before_gates():
    # equal gate lists do not make circuits of different arities equal
    for a, b in ((circuit(1, [h(0)]), circuit(2, [h(0)])),
                 (circuit(1, []), circuit(2, []))):
        with pytest.raises(ArityMismatch):
            deformation_equal(a, b)


def test_canonicalize_idempotent_and_semantics_preserving():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        c = rand_vanilla(rng, n, int(rng.integers(0, 10)))
        k = canonicalize(c)
        assert canonicalize(k) == k
        assert np.max(np.abs(eval_matrix(k) - eval_matrix(c))) < 1e-10


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


def _rand_every_kind(rng) -> Circuit:
    """A random circuit on 1-4 input wires over every gate kind, CTRL on
    each base, with global phases drawn often at angles that tie: equal,
    or a period apart."""
    n = int(rng.integers(1, 5))
    width, gates = n, []
    for _ in range(int(rng.integers(0, 12))):
        i = int(rng.integers(len(ALL_KINDS) + 3))
        kind = ALL_KINDS[i] if i < len(ALL_KINDS) else "GPHASE"
        a = float(rng.choice((0.0, 0.5, 1.0, PI))) + 2 * PI * int(rng.integers(-1, 2))
        w = [int(v) for v in rng.permutation(width)]
        m = int(rng.integers(1, width + 1)) if w else 0
        if kind == "GPHASE":
            gates.append(gphase(a))
        elif kind == "INIT":
            if width < 5:
                gates.append(init(int(rng.integers(width + 1))))
                width += 1
        elif not w:
            continue
        elif kind == "DEST":
            gates.append(dest(w[0]))
            width -= 1
        elif kind in ("H", "X", "Z"):
            gates.append(Gate(kind, (w[0],)))
        elif kind in ("P", "RX"):
            gates.append(Gate(kind, (w[0],), (a,)))
        elif kind in ("MCP", "MCRX"):
            gates.append(Gate(kind, tuple(w[:m]), (a,)))
        elif width < 2:
            continue
        elif kind in ("CNOT", "SWAP"):
            gates.append(Gate(kind, (w[0], w[1])))
        else:
            m = max(m, 2)
            base = (p(a, 0), x(0), z(0), rx(a, 0))[int(rng.integers(4))]
            gates.append(ctrl("".join(rng.choice(["0", "1"], m - 1)), base, tuple(w[:m])))
    return Circuit(n, width, tuple(gates))


def test_canonical_form_is_pinned():
    # the exact canonical gate lists of a seeded corpus, hashed: any change
    # to the canonical order shows here
    rng = np.random.default_rng(28)
    digest, kinds = hashlib.sha256(), set()
    for _ in range(2000):
        c = _rand_every_kind(rng)
        kinds.update(g.kind if g.base is None else ("CTRL", g.base.kind) for g in c.gates)
        digest.update(canonicalize(c).to_json().encode() + b"\n")
    assert kinds == set(ALL_KINDS) - {"CTRL"} | {("CTRL", b) for b in ("P", "X", "Z", "RX")}
    assert digest.hexdigest() == (
        "7c8e82d2862570c27b5812f32a6b0a3196d0fc5e314d740d7fc593e723ec96d1")


def test_deformation_equal_is_linear():
    # binding a whole circuit costs about what ordering it does; a binding
    # that searched its bound gates for each candidate took 12 times as long
    # at this size
    rng = np.random.default_rng(5)
    gates = []
    for _ in range(8000):
        a, b = (int(v) for v in rng.choice(4, 2, replace=False))
        gates.append((h(a), p(float(rng.uniform(0, 6)), a), cnot(a, b))[int(rng.integers(3))])
    shuffled = list(gates)
    for _ in range(3 * len(gates)):
        i = int(rng.integers(len(gates) - 1))
        if not set(shuffled[i].wires) & set(shuffled[i + 1].wires):
            shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
    c, d = circuit(4, gates), circuit(4, shuffled)

    def fastest(f):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            f()
            times.append(time.perf_counter() - t0)
        return min(times)

    assert c.gates != d.gates and deformation_equal(c, d)
    assert fastest(lambda: deformation_equal(c, d)) < 4 * fastest(lambda: canonicalize(c))


def test_deformation_equal_is_linear_in_global_phases():
    # a global phase binds the first free one of its angle; a binding that
    # scanned every gate for each phase took 400 times as long as ordering
    # both circuits at this size
    rng = np.random.default_rng(6)
    gates = [h(0) if i % 2 else gphase(float(rng.uniform(0, 6))) for i in range(2000)]
    rng.shuffle(gates)
    c = circuit(1, gates)
    d = circuit(1, [g for g in gates if g.kind == "H"] + [g for g in gates if g.kind == "GPHASE"])

    def fastest(f):
        return min(timeit.repeat(f, number=1, repeat=3))

    assert c.gates != d.gates and deformation_equal(c, d)
    assert fastest(lambda: deformation_equal(c, d)) < 4 * fastest(
        lambda: (canonicalize(c), canonicalize(d)))


def test_deformation_equal_is_linear_in_inits():
    # with the inputs bound first, an INIT binds a label no other label
    # can hold; a binding that compared it with every bound label took
    # about 2.5 times as long as ordering both circuits at this size
    n, rng = 4000, np.random.default_rng(70)
    opens = tuple(init(int(rng.integers(0, k + 1))) for k in range(n))
    c = Circuit(0, n, opens + tuple(h(w) for w in range(n)))
    d = Circuit(0, n, opens + tuple(h(w) for w in reversed(range(n))))
    assert c.gates != d.gates and deformation_equal(c, d)
    fresh = iter([Circuit(0, n, c.gates) for _ in range(3)])   # each compiles its plan

    def fastest(f):
        return min(timeit.repeat(f, number=1, repeat=3))

    assert fastest(lambda: deformation_equal(next(fresh), d)) < fastest(
        lambda: (canonicalize(c), canonicalize(d)))


def test_bind_gives_each_way_its_own_free_phases():
    # with nothing bound the side's H binds either H, and each way then
    # binds the first global phase that it left free
    c = circuit(2, [h(0), h(1), gphase(0.5)])
    found = _bind(_id_gates(c), range(3), (circuit(1, [h(0), gphase(0.5)]), None))
    assert sorted(chosen for chosen, _ in found) == [[0, 2], [1, 2]]


def _rand_wired(rng) -> Circuit:
    """A random circuit over GPHASE, H, P, CNOT, SWAP, CTRL, MCP and
    INIT/DEST, with angles from a small set so that equal ones recur."""
    n = int(rng.integers(1, 4))
    width, gates = n, []
    for _ in range(int(rng.integers(0, 10))):
        k, a = int(rng.integers(0, 9)), float(rng.choice((0.0, 0.5, 1.0, PI, 2.0)))
        w = [int(v) for v in rng.permutation(width)]
        m = int(rng.integers(1, width + 1)) if w else 0
        if k == 0:
            gates.append(gphase(a))
        elif k == 7:
            gates.append(init(int(rng.integers(0, width + 1))))
            width += 1
        elif not w:
            continue
        elif k in (1, 2):
            gates.append(h(w[0]) if k == 1 else p(a, w[0]))
        elif k == 6:
            gates.append(mcp(a, tuple(w[:m])))
        elif k == 8:
            gates.append(dest(w[0]))
            width -= 1
        elif width >= 2:
            m = max(m, 2)
            base = (p(a, 0), x(0), z(0), rx(a, 0))[int(rng.integers(4))]
            gates.append(cnot(w[0], w[1]) if k == 3 else swap(w[0], w[1]) if k == 4 else
                         ctrl("".join(rng.choice(["0", "1"], m - 1)), base, tuple(w[:m])))
    return Circuit(n, width, tuple(gates))


def _transposed(rng, c: Circuit) -> Circuit:
    """``c`` after random swaps of adjacent gates that share no wire."""
    gates = _id_gates(c)
    for _ in range(3 * len(gates) if len(gates) > 1 else 0):
        i = int(rng.integers(0, len(gates) - 1))
        if not set(_deps(*gates[i])) & set(_deps(*gates[i + 1])):
            gates[i], gates[i + 1] = gates[i + 1], gates[i]
    return Circuit(c.n_in, c.n_out, tuple(_place(list(range(c.n_in)), gates)))


def _mutated(rng, c: Circuit, how: str):
    """``c`` with one gate changed as ``how`` says, or None."""
    gates = list(c.gates)
    at = [i for i, g in enumerate(gates) if how in ("period", "1e-6") and (
              g.params or g.base is not None and g.base.params)
          or g.kind == {"cnot": "CNOT", "ctrl": "CTRL", "init": "INIT",
                        "gphase": "GPHASE"}.get(how)]
    if not at:
        return None
    i = at[int(rng.integers(len(at)))]
    g = gates[i]
    if how in ("period", "1e-6"):
        t = g.base or g
        by = angle_period(t.kind) * int(rng.choice([-2, -1, 1, 2])) if how == "period" else 1e-6
        t = Gate(t.kind, t.wires, (t.params[0] + by,))
        gates[i] = ctrl(g.pattern, t, g.wires) if g.base else t
    elif how == "cnot":
        gates[i] = cnot(g.wires[1], g.wires[0])
    elif how == "ctrl" and rng.integers(2):
        j = int(rng.integers(len(g.pattern)))
        gates[i] = ctrl(g.pattern[:j] + "10"[int(g.pattern[j])] + g.pattern[j + 1:], g.base, g.wires)
    elif how == "ctrl":
        other = [b for b in (p(0.5, 0), x(0), z(0), rx(0.5, 0), g.base.with_wires((1,)))
                 if b != g.base]
        gates[i] = ctrl(g.pattern, other[int(rng.integers(len(other)))], g.wires)
    elif how == "init":
        gates[i] = init(g.wires[0] + int(rng.choice([-1, 1])))
    else:   # the global phases in another order
        slots = [j for j, f in enumerate(gates) if f.kind == "GPHASE"]
        for j, f in zip(slots, [gates[j] for j in rng.permutation(slots)]):
            gates[j] = f
    try:
        return Circuit(c.n_in, c.n_out, tuple(gates))
    except InvalidCircuit:
        return None


def _same_placed(a, b) -> bool:
    """Gate lists equal gate by gate, each angle modulo its kind's period."""
    def same(g1, g2):
        if (g1.kind, g1.wires, g1.pattern, g1.base is None) != (
                g2.kind, g2.wires, g2.pattern, g2.base is None):
            return False
        period = angle_period(g1.kind, g1.base.kind if g1.base else None)
        return ((g1.base is None or same(g1.base, g2.base))
                and all(angles_equal(u, v, period) for u, v in zip(g1.params, g2.params)))
    return len(a) == len(b) and all(map(same, a, b))


def test_deformation_equal_agrees_with_canonical_order():
    # the reference puts both circuits in canonical order and compares the
    # placed lists; pairs come from adjacent transpositions, some mutated.
    # No shift is below ANGLE_EPS, where the sort key's rounding and the
    # greedy global-phase binding may legitimately differ
    assert 1e-6 > 100 * ANGLE_EPS
    rng = np.random.default_rng(27)
    seen = {}
    for _ in range(1500):
        c = _rand_wired(rng)
        d = _transposed(rng, c)
        how = str(rng.choice(["none", "period", "1e-6", "cnot", "ctrl", "init", "gphase"]))
        if how != "none" and (d := _mutated(rng, d, how)) is None:
            continue
        want = _same_placed(canonicalize(c).gates, canonicalize(d).gates)
        assert deformation_equal(c, d) == deformation_equal(d, c) == want, (how, c, d)
        seen[how, want] = seen.get((how, want), 0) + 1
    for how in ("none", "period", "gphase"):
        assert seen.get((how, True), 0) > 20, seen
    for how in ("1e-6", "cnot", "ctrl", "init"):
        assert seen.get((how, False), 0) > 20, seen


def test_identical_circuits_bind_gate_for_gate():
    # _deformation returns the identity map for identical gate lists without
    # binding: the binding it skips would bind gate i to gate i, equal-angle
    # global phases, SWAPs either way round and INIT/DEST chains included
    rng = np.random.default_rng(36)
    seen = set()
    for _ in range(3000):
        c = _rand_wired(rng)
        seen.update(g.kind for g in c.gates)
        inputs, identity = range(c.n_in), list(range(len(c.gates)))
        found = _bind(_id_gates(c), range(len(c.gates)), (c, None), inputs, inputs)
        assert found[0][0] == identity, c
        c = Circuit(c.n_in, c.n_out, c.gates)
        assert _deformation(c, Circuit(c.n_in, c.n_out, c.gates)) == identity
        assert "_plan" not in c.__dict__   # nothing compiled
    assert {"INIT", "DEST", "GPHASE", "SWAP", "CTRL"} <= seen


def test_init_dest_threading_and_canonical():
    c = Circuit(1, 1, (h(0), init(0), cnot(0, 1), dest(0), h(0)))
    assert np.max(np.abs(eval_matrix(c) - np.eye(2))) < 1e-10
    # the INIT wire is the control of the CNOT and stays |0>
    assert deformation_equal(canonicalize(c), c)


def test_json_round_trip():
    c = Circuit(1, 2, (h(0), init(1), mcp(0.3, (0, 1)),
                       ctrl("0", rx(0.2, 0), (0, 1))))
    back = Circuit.from_json(c.to_json())
    assert back == c


def test_every_gate_kind_survives_a_json_round_trip():
    gates = [gphase(0.1), h(0), p(0.2, 0), cnot(1, 0), swap(0, 1), init(0), dest(0),
             x(0), z(0), rx(0.3, 0), mcp(0.4, (0, 2, 1)), mcrx(0.5, (1, 0))]
    gates += [ctrl("01", base, (2, 0, 1)) for base in (p(0.6, 0), x(0), z(0), rx(0.7, 0))]
    assert {g.kind for g in gates} == set(ALL_KINDS)
    for g in gates:
        assert Gate.from_dict(json.loads(json.dumps(g.to_dict()))) == g


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


def test_circuit_rejects_gates_that_are_not_a_sequence_of_gates():
    for gates, message in ((5, "gates 5 is not a sequence"),
                           ((5,), "gate 0: 5 is not a Gate"),
                           ([h(0), "H"], "gate 1: 'H' is not a Gate")):
        with pytest.raises(InvalidCircuit, match=f"^{re.escape(message)}$"):
            Circuit(1, 1, gates)


def test_gate_rejects_nonfinite_angle():
    with pytest.raises(InvalidCircuit):
        p(float("nan"), 0)


# -- the Gate constructor: every rejection and normalisation ------------------

_REJECTED = [
    # (kind, wires, params, pattern, base), the message
    (("FOO", (0,), ()), "unknown gate kind 'FOO'"),
    (("FOO", (0.5,), ("x",)), "unknown gate kind 'FOO'"),
    (("H", (0.5,)), "wire 0.5 is not an integer"),
    (("H", (True,)), "wire True is not an integer"),
    (("H", ("0",)), "wire '0' is not an integer"),
    (("P", (0.5,), ("x",)), "wire 0.5 is not an integer"),
    (("P", (0,), ("7",)), "angle '7' is not a real number"),
    (("P", (0,), (True,)), "angle True is not a real number"),
    (("P", (0,), (None,)), "angle None is not a real number"),
    (("GPHASE", (), (math.inf, "x")), "angle 'x' is not a real number"),
    (("P", (0,), (math.inf,)), "non-finite angle in P"),
    (("RX", (0,), (-math.inf,)), "non-finite angle in RX"),
    (("GPHASE", (), (math.nan,)), "non-finite angle in GPHASE"),
    (("H", (0, 1), (math.nan,)), "non-finite angle in H"),
    (("H", (0, 1)), "H takes 1 wire entries, got 2"),
    (("H", (0, 1), (1.0,)), "H takes 1 wire entries, got 2"),
    (("GPHASE", (0,), (1.0,)), "GPHASE takes 0 wire entries, got 1"),
    (("INIT", ()), "INIT takes 1 wire entries, got 0"),
    (("H", (0,), (1.0,)), "H takes 0 params, got 1"),
    (("P", (0,)), "P takes 1 params, got 0"),
    (("MCP", (), ()), "MCP takes 1 params, got 0"),
    (("MCP", (), (1.0,)), "MCP needs at least one wire"),
    (("MCRX", (), (1.0,)), "MCRX needs at least one wire"),
    (("CTRL", (0, 1), (), "1", None), "CTRL base must be a P, X, Z or RX gate"),
    (("CTRL", (0, 1), (), "2", Gate("H", (1,))), "CTRL base must be a P, X, Z or RX gate"),
    (("CTRL", (0, 0), (), "2", x(0)), "CTRL pattern must be a 0/1 string, one bit per control"),
    (("CTRL", (0, 1), (), "", x(0)), "CTRL pattern must be a 0/1 string, one bit per control"),
    (("CTRL", (0, 1), (), "10", x(0)), "CTRL pattern must be a 0/1 string, one bit per control"),
    (("CTRL", (), (), "", x(0)), "CTRL pattern must be a 0/1 string, one bit per control"),
    (("CTRL", (0, 0), (), "1", x(0)), "CTRL wires must be pairwise distinct"),
    (("CNOT", (1, 1)), "CNOT wires must be pairwise distinct"),
    (("SWAP", (2, 2)), "SWAP wires must be pairwise distinct"),
    (("MCP", (0, 1, 0), (1.0,)), "MCP wires must be pairwise distinct"),
    (("MCRX", (2, 2), (1.0,)), "MCRX wires must be pairwise distinct"),
    (("CTRL", (0, 1), (), "1", "P"), "CTRL base must be a P, X, Z or RX gate"),
    (("CTRL", (0, 1), (), ["1"], p(0.3, 0)), "CTRL pattern must be a 0/1 string, one bit per control"),
    # to_dict writes a pattern and base for CTRL only
    (("H", (0,), (), "01"), "H takes no control pattern or base"),
    (("H", (0,), (), []), "H takes no control pattern or base"),
    (("P", (0,), (1.0,), "", x(0)), "P takes no control pattern or base"),
    (("MCP", (0, 1), (1.0,), "1"), "MCP takes no control pattern or base"),
    (("MCRX", (), (1.0,), "", rx(0.2, 0)), "MCRX takes no control pattern or base"),
    # fields that are not sequences
    (("H", 0), "wires 0 is not a sequence"),
    (("P", (0,), 0.5), "params 0.5 is not a sequence"),
]


@pytest.mark.parametrize("args, message", _REJECTED)
def test_gate_rejects_with_the_first_failing_check(args, message):
    with pytest.raises(InvalidCircuit, match=f"^{re.escape(message)}$"):
        Gate(*args)


_NORMALISED = [
    # (kind, wires, params), the gate's wires and params
    (("CNOT", [0, 1]), (0, 1), ()),
    (("CNOT", (w for w in (2, 0))), (2, 0), ()),
    (("H", (np.int64(2),)), (2,), ()),
    (("SWAP", (3, 1)), (1, 3), ()),
    (("SWAP", [np.int32(4), 0]), (0, 4), ()),
    (("SWAP", (1, 3)), (1, 3), ()),
    (("P", (0,), [1]), (0,), (1.0,)),
    (("P", (0,), (np.float32(0.5),)), (0,), (0.5,)),
    (("GPHASE", (), (np.float64(-0.0),)), (), (-0.0,)),
    (("MCP", [2, np.int64(0)], (np.int64(3),)), (2, 0), (3.0,)),
    (("INIT", (0,)), (0,), ()),
]


@pytest.mark.parametrize("args, wires, params", _NORMALISED)
def test_gate_normalises_wires_and_params(args, wires, params):
    g = Gate(*args)
    assert type(g.wires) is tuple and g.wires == wires
    assert all(type(w) is int for w in g.wires)
    assert type(g.params) is tuple and all(type(v) is float for v in g.params)
    assert list(map(repr, g.params)) == list(map(repr, params))


def test_gate_keeps_fields_that_need_no_change():
    wires, params = (0,), (0.5,)
    g = Gate("P", wires, params)
    assert g.wires is wires and g.params is params
    with pytest.raises(AttributeError):
        g.__dict__


# -- macro expansion against the unfolding ------------------------------------

def _unfolded(g):
    """The reference route: ``unfold`` applied until no gate is a macro."""
    if g.kind in PRIMITIVE_KINDS:
        return [g]
    return [e for u in unfold(g) for e in _unfolded(u)]


def _exact(gates):
    """Gates with their angles as exact floats, the sign of zero included."""
    return [(g.kind, g.wires, tuple(map(repr, g.params))) for g in gates]


def _macro_gates(rng):
    """Seeded X/Z/RX/MCP/MCRX and CTRL gates: every CTRL base, controls
    from none up, '0' pattern bits, 1-7 wires and extreme angles, subnormal
    ones included (fewer of them on the widest shapes, which expand to
    thousands of gates)."""
    # 5 * 2^-1074 halved three times rounds to 0 step by step, to 2^-1074
    # in one product
    angles = [0.0, -0.0, PI, -PI, 1e300, -1e300, 5e-324, 2.5e-323, 3e-310]
    for n in range(1, 8):
        wires = tuple(int(w) for w in rng.permutation(8)[:n])
        thetas = angles if n <= 4 else angles[::2]
        for i, theta in enumerate(thetas + [float(v) for v in rng.uniform(-1e3, 1e3, 2)]):
            yield mcp(theta, wires)
            yield mcrx(theta, wires)
            if n == 1:
                yield rx(theta, wires[0])
            base = (p(theta, 0), rx(theta, 0), x(0), z(0))[i % 4]
            yield ctrl("".join(rng.choice(["0", "1"], n - 1)), base, wires)
            yield ctrl("0" * (n - 1), base, wires)
        yield x(n)
        yield z(n)


def test_expand_gate_equals_the_unfolding():
    rng = np.random.default_rng(20)
    seen = 0
    for g in _macro_gates(rng):
        want = _unfolded(g)
        got = expand_gate(g)
        assert _exact(got) == _exact(want), g
        # the caller owns the list it gets
        got.append(h(0))
        got[0] = h(0)
        assert _exact(expand_gate(g)) == _exact(want)
        seen += 1
    assert seen > 200


def _equal_by_fmod(a: float, b: float, period: float, tol: float) -> bool:
    """A reference angle comparison, with ``math.fmod``."""
    d = math.fmod(a - b, period)
    if d < 0.0:
        d += period
    return d <= tol or period - d <= tol


def _reduced_by_fmod(value: float, period: float) -> float:
    """A reference reduction into [0, period), with ``math.fmod``."""
    r = math.fmod(value, period)
    if r <= 0.0:
        r += period
    return 0.0 if r >= period - ANGLE_EPS else r


def test_angle_helpers_take_arrays_and_match_an_fmod_reference():
    # angles_equal on arrays decides each entry as on floats, and
    # reduce_angle and euler's column form give the reference's bits,
    # signed zeros included, at the period's edges and far past it
    rng = np.random.default_rng(39)
    for period in (2 * PI, 4 * PI, PI / 2):
        edges = [0.0, -0.0, period, -period, period + 1e-9, period - 1e-9,
                 -period + 1e-9, -period - 1e-9, 5e-324, -5e-324, 1e17, -1e17]
        near = rng.integers(-9, 9, 400) * period
        a = np.concatenate([[x for x in edges for _ in edges], rng.uniform(-40, 40, 1500),
                            near + rng.normal(0.0, 1e-8, 400)])
        b = np.concatenate([edges * len(edges), rng.uniform(-40, 40, 1500), near])
        pairs = list(zip(a.tolist(), b.tolist()))
        for tol in (0.0, 1e-9, 1e-8):
            want = [_equal_by_fmod(x, y, period, tol) for x, y in pairs]
            assert [angles_equal(x, y, period, tol) for x, y in pairs] == want
            assert all(type(angles_equal(x, y, period, tol)) is bool for x, y in pairs[:50])
            assert angles_equal(a, b, period, tol).tolist() == want, (period, tol)
        want = [_reduced_by_fmod(v, period) for v in a.tolist()]
        got = [reduce_angle(v, period) for v in a.tolist()]
        assert all(type(r) is float for r in got)
        assert [r.hex() for r in got] == [r.hex() for r in want], period
        assert type(reduce_angle(np.float64(a[20]), period)) is float
        if period == 2 * PI:
            assert _reduce_columns(a).tobytes() == np.array(want).tobytes()
