"""Alternative interpretations, minimality reports, sign assignments."""

import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qc_equate import (apply_step, circuit, cnot, ctrl, eval_matrix,
                       expand_macros, find_sites, gphase, h, interp_E_values,
                       interp_axiom, interp_k, mcp, mcrx, minimality_report, p,
                       resolve_rule, rx, sign_classes, sign_gap, swap, x, z)
from qc_equate import interp, theories
from qc_equate.circuit import Circuit, angles_equal, init, dest
from qc_equate.cli import main
from qc_equate.errors import (BadArity, BadParams, InvalidCircuit, UnknownLemma,
                              UnsupportedGate, WireCapExceeded)
from qc_equate.interp import equal_value_sets, minimality_matrix
from qc_equate.theories import (THEORIES, instances, lemma_names, list_rules, signature,
                                verify_theory)
from qc_equate.rewrite import Site, Step
from test_theories import _route_angle_maps, fresh_shapes  # noqa: F401 (a fixture)

PI = math.pi
TWO_PI = 2 * PI


def rand_vanilla(rng, n, m):
    gates = []
    for _ in range(m):
        k = rng.integers(0, 4)
        if k == 0:
            gates.append(h(int(rng.integers(n))))
        elif k == 1:
            gates.append(p(float(rng.uniform(0, TWO_PI)), int(rng.integers(n))))
        elif k == 2 and n >= 2:
            a, b = rng.choice(n, 2, replace=False)
            gates.append(cnot(int(a), int(b)))
        else:
            gates.append(gphase(float(rng.uniform(0, TWO_PI))))
    return circuit(n, gates)


def test_interp_k_base_values():
    phi = 0.9
    assert abs(interp_k(circuit(1, [p(phi, 0)]), 1) - phi) < 1e-12
    assert abs(interp_k(circuit(2, [cnot(0, 1)]), 2) - PI) < 1e-12
    assert abs(interp_k(circuit(1, [h(0)]), 1) - PI) < 1e-12
    assert interp_k(circuit(3, []), 2) == 0.0


def test_interp_k_rejects_ancilla():
    with pytest.raises(UnsupportedGate):
        interp_k(Circuit(0, 1, (init(0),)), 2)
    with pytest.raises(UnsupportedGate):
        interp_k(Circuit(1, 0, (dest(0),)), 2)


def test_interp_k_out_of_reach_raises_bad_arity():
    # a weight of 2^1024 overflows a float, and so does 2^1022 * 7, which a
    # float product, in Python or numpy, gives as inf with no error; a
    # 332-wire MCP, whose unfolding is 332 levels deep, weighs its closed
    # form
    with pytest.raises(BadArity, match="OverflowError"):
        interp_k(circuit(0, [gphase(0.3)]), 1025)
    with pytest.raises(BadArity, match="^interp_k at k=1023 is out of reach: OverflowError$"):
        interp_k(circuit(1, [p(7.0, 0)]), 1023)
    assert interp_k(circuit(332, [mcp(0.3, tuple(range(332)))]), 3) == math.ldexp(0.3, 3 - 332)


def test_interp_k_needs_an_integer_k_of_at_least_0():
    c = circuit(1, [h(0)])
    for k in (2.5, True, "3"):
        with pytest.raises(InvalidCircuit, match="is not an integer"):
            interp_k(c, k)
    with pytest.raises(BadArity, match="k >= 0"):
        interp_k(c, -1)
    assert interp_k(c, 0) == PI / 2 and interp_k(c, np.int64(1)) == PI


def test_interp_k_matches_det_arg_at_k_equals_n():
    from qc_equate import det_arg
    rng = np.random.default_rng(30)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        c = rand_vanilla(rng, n, int(rng.integers(0, 10)))
        assert abs(interp_k(c, n) - det_arg(c)) % TWO_PI < 1e-8 or \
            abs(abs(interp_k(c, n) - det_arg(c)) - TWO_PI) < 1e-8


def test_determinant_power_identity():
    rng = np.random.default_rng(31)
    for _ in range(120):
        n = int(rng.integers(1, 6))
        c = rand_vanilla(rng, n, int(rng.integers(0, 12)))
        k = int(rng.integers(n, 8))
        d = np.linalg.det(eval_matrix(c)) ** (2 ** (k - n))
        assert abs(d - np.exp(1j * interp_k(c, k))) <= 1e-8


def test_interp_k_additive_over_compositions():
    from qc_equate import compose_par, compose_seq
    rng = np.random.default_rng(32)
    for _ in range(20):
        a = rand_vanilla(rng, 2, 5)
        b = rand_vanilla(rng, 2, 5)
        k = 4
        seq = interp_k(compose_seq(a, b), k)
        assert abs((interp_k(a, k) + interp_k(b, k) - seq) % TWO_PI) < 1e-9 \
            or abs(abs((interp_k(a, k) + interp_k(b, k) - seq) % TWO_PI) - TWO_PI) < 1e-9
        par = interp_k(compose_par(a, b), k)
        assert abs((interp_k(a, k) + interp_k(b, k) - par) % TWO_PI) < 1e-9 \
            or abs(abs((interp_k(a, k) + interp_k(b, k) - par) % TWO_PI) - TWO_PI) < 1e-9


def test_unboundedness_witness():
    for n in (3, 4, 5, 6, 7, 16, 32, 64):
        w = interp_k(circuit(n, [mcp(TWO_PI, tuple(range(n)))]), n - 1)
        assert abs(w - PI) <= 1e-12
        assert interp_k(circuit(n, []), n - 1) == 0.0


def test_interp_k_of_an_mcp_is_its_closed_form():
    # an n-wire MCP(phi) weighs 2^(k-n) phi modulo 2pi, at every width
    rng = np.random.default_rng(35)
    for n in range(1, 13):
        c_of = lambda phi: circuit(n, [mcp(phi, tuple(range(n)))])  # noqa: E731
        for k in range(max(2, n), n + 9):
            phi = float(rng.uniform(-TWO_PI, TWO_PI))
            assert angles_equal(interp_k(c_of(phi), k), math.ldexp(phi, k - n) % TWO_PI,
                                TWO_PI, 1e-9), (n, k, phi)
    for n in (332, 400, 1000):
        wires = tuple(range(n))
        for k in (3, n - 1):
            phi = float(rng.uniform(-TWO_PI, TWO_PI))
            assert angles_equal(interp_k(circuit(n, [mcp(phi, wires)]), k),
                                math.ldexp(phi, k - n) % TWO_PI, TWO_PI, 1e-12), (n, k)
        assert interp_k(circuit(n, [mcp(TWO_PI, wires)]), n - 1) == PI


def _interp_k_by_expansion(expanded, k):
    """The reference route: ``interp_k``'s weights summed over a circuit's
    ``expand_macros`` gates, one at a time."""
    total = 0.0
    for g in expanded:
        if g.kind == "GPHASE":
            total += (2.0 ** k) * g.params[0]
        elif g.kind == "H":
            total += (2.0 ** (k - 1)) * PI
        elif g.kind == "P":
            total += (2.0 ** (k - 1)) * g.params[0]
        elif g.kind in ("CNOT", "SWAP"):
            total += (2.0 ** (k - 2)) * PI
        total %= TWO_PI
    return total


def test_interp_k_recursion_equals_the_expansion():
    # seeded X/Z/RX/MCP/MCRX and CTRL gates on 1-8 wires: every CTRL base,
    # '0' pattern bits, alone and in one circuit (fewer draws on the widest,
    # which expand to thousands of gates)
    rng = np.random.default_rng(21)
    seen = 0
    for n in range(1, 9):
        for i in range(4 if n < 7 else 2):
            wires = tuple(int(w) for w in rng.permutation(n))
            theta, phi = (float(v) for v in rng.uniform(-TWO_PI, TWO_PI, 2))
            base = (p(phi, 0), rx(phi, 0), x(0), z(0))[(i + n) % 4]
            gates = [mcp(theta, wires), mcrx(theta, wires), x(wires[0]), z(wires[-1]),
                     rx(phi, wires[-1]), ctrl("0" * (n - 1), base, wires),
                     ctrl("".join(rng.choice(["0", "1"], n - 1)), base, wires)]
            for c in [circuit(n, [g]) for g in gates] + [circuit(n, gates)]:
                expanded = expand_macros(c).gates
                for k in range(1, 9):
                    assert angles_equal(interp_k(c, k), _interp_k_by_expansion(expanded, k),
                                        TWO_PI, 1e-9), (c, k)
                    seen += 1
    assert seen == (6 * 4 + 2 * 2) * 8 * 8


def test_equal_circuits_share_interp_k():
    # pairs made equal by a sound rewrite keep the valuation (Cor 4.3 spirit)
    rng = np.random.default_rng(33)
    for _ in range(25):
        base = rand_vanilla(rng, 2, 6)
        phi = float(rng.uniform(0, TWO_PI))
        c = circuit(2, list(base.gates) + [p(phi, 0)])
        c2 = apply_step(c, Step("C", "RL", (phi,), None,
                                Site((len(c.gates) - 1,), (0, 1))))
        assert len(c2.gates) == len(c.gates) + 2
        for k in range(2, 6):
            a, b = interp_k(c, k), interp_k(c2, k)
            d = abs(a - b) % TWO_PI
            assert min(d, TWO_PI - d) < 1e-9


def test_interp_axiom_h2_example():
    assert interp_axiom("H2", circuit(1, [h(0), h(0)])) == 1
    assert interp_axiom("H2", circuit(1, [])) == 0


def test_interp_axiom_b_and_cz_permutation_oracle():
    b = resolve_rule("QC", "B", (), 2)
    vb_l = interp_axiom("B", b.lhs)
    vb_r = interp_axiom("B", b.rhs)
    assert np.allclose(vb_l, np.eye(4))
    swap_mat = np.zeros((4, 4))
    swap_mat[0, 0] = swap_mat[1, 2] = swap_mat[2, 1] = swap_mat[3, 3] = 1
    assert np.allclose(vb_r, swap_mat)

    cz = resolve_rule("QC", "CZ", (), 2)
    v_l = interp_axiom("CZ", cz.lhs)
    v_r = interp_axiom("CZ", cz.rhs)
    cx = np.zeros((4, 4))
    cx[0, 0] = cx[1, 1] = cx[2, 3] = cx[3, 2] = 1
    assert np.allclose(v_l, cx) and np.allclose(v_r, np.eye(4))


def test_minimality_matrix_all_ten_axioms():
    for axiom in ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"):
        rep = minimality_report("QC", axiom, max_qubits=5, samples=30, seed=2)
        assert rep["pass"], rep


def test_minimality_matrix_helper():
    m = minimality_matrix("QC", samples=25, seed=3)
    assert m["pass"] and len(m["rows"]) == 10


def test_minimality_matrix_results_are_pinned():
    # every row's own axiom is its one unsound rule; the rules wider than
    # the interpretation's bound are out of scope, every other rule sound
    wide = {"B", "C", "CZ", "I"}
    for theory, rows, missing in (
            ("QC", ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"), []),
            ("QCprime", ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "I"),
             ["PPLUS", "EPRIME"])):
        names = [r.name for r in list_rules(theory)]
        phases_only = set(names) - {"S2PI", "SPLUS"}
        out_of_scope = {"C": {"I"}, "H2": wide, "P0": wide, "E": wide,
                        "S2PI": phases_only, "SPLUS": phases_only}
        m = minimality_matrix(theory, samples=15, seed=2)
        assert m["pass"] and list(m["rows"]) == list(rows)
        assert m["no_interpretation"] == missing
        for axiom in rows:
            assert m["rows"][axiom]["results"] == {
                name: "unsound" if name == axiom
                else "out-of-scope" if name in out_of_scope.get(axiom, ())
                else "sound" for name in names}, (theory, axiom)


def test_ancilla_rules_have_no_witness():
    # no interpretation is defined on INIT/DEST: A, AP and ACX get no
    # witness wherever they are in scope, and no QCancilla row passes
    m = minimality_matrix("QCancilla", samples=15, seed=2)
    assert not m["pass"] and m["rows"]
    assert m["no_interpretation"] == ["AP", "A", "ACX", "FIVE_CX"]
    marks = {name: set() for name in ("A", "AP", "ACX")}
    for row in m["rows"].values():
        assert not row["pass"]
        for name in marks:
            marks[name].add(row["results"][name])
        assert "no-witness" not in {v for k, v in row["results"].items() if k not in marks}
    assert marks == {"A": {"no-witness"}, "AP": {"no-witness", "out-of-scope"},
                     "ACX": {"no-witness", "out-of-scope"}}


def test_minimality_with_nothing_to_check_raises():
    with pytest.raises(BadParams):
        minimality_report("QC", "C", samples=0)
    with pytest.raises(BadParams):      # (I) is in scope of CZ, with no width
        minimality_report("QC", "CZ", max_qubits=2)
    for theory in ("QC", "QCprime"):    # SPLUS with no psi-free instance
        with pytest.raises(BadParams):
            minimality_report(theory, "SPLUS", samples=0)
        assert main(["minimality", "--theory", theory, "--axiom", "SPLUS",
                     "--samples", "0"]) == 2


def test_minimality_rejects_a_non_integer_sample_count():
    # the angle-free witnesses read one draw per width, the others every draw
    for axiom in ("C", "I", "E", "SPLUS"):
        with pytest.raises(InvalidCircuit, match="^samples 1.5 is not an integer$"):
            minimality_report("QC", axiom, samples=1.5)


def test_minimality_of_a_non_axiom_raises_unknown_lemma():
    for theory, name in (("QCprime", "E"), ("QC", "i")):
        with pytest.raises(UnknownLemma):
            minimality_report(theory, name)
        assert main(["minimality", "--theory", theory, "--axiom", name]) == 2


def test_p0_witness_follows_the_theory():
    # (P+) merges two P gates into one, so QCprime cannot use the #H + #P
    # parity; it asks whether the circuit has a P gate instead
    for seed in range(4):
        rep = minimality_report("QCprime", "P0", seed=seed)
        assert rep["pass"] and rep["interpretation"] == "interp[P0']", rep
        assert rep["results"]["PPLUS"] == rep["results"]["EPRIME"] == "sound"
        rep = minimality_report("QC", "P0", seed=seed)
        assert rep["pass"] and rep["interpretation"] == "interp[P0]", rep
    assert interp_axiom("P0'", circuit(1, [h(0)])) == 0
    assert interp_axiom("P0'", circuit(1, [p(0.3, 0), p(0.4, 0)])) == 1


def test_minimality_example_reports():
    rep = minimality_report("QC", "H2", samples=50, seed=0)
    assert rep["results"]["H2"] == "unsound"
    assert rep["results"]["P0"] == "sound"
    rep = minimality_report("QC", "CZ", samples=50, seed=0)
    assert rep["results"]["CZ"] == "unsound"
    assert rep["results"]["B"] == "sound"
    rep = minimality_report("QC", "I", target_n=4, samples=30, seed=0)
    assert rep["results"]["I"] == "unsound"
    assert all(v in ("sound", "out-of-scope") or k == "I"
               for k, v in rep["results"].items())


def test_sign_classes_examples():
    sc = sign_classes(circuit(1, [p(0.4, 0), p(0.6, 0)]))
    assert len(sc.classes) == 1 and not sc.pairing

    sc = sign_classes(circuit(1, [p(0.4, 0), h(0), p(0.6, 0)]))
    assert len(sc.classes) == 2 and not sc.pairing

    # anti-diagonal middle: outer P gates take opposite signs
    sc = sign_classes(circuit(1, [p(0.4, 0), x(0), p(0.6, 0)]))
    assert len(sc.pairing) == 1
    a, b = sc.pairing[0]
    paired = set(sc.classes[a]) | set(sc.classes[b])
    assert len(paired) == 2   # the two outer gates; the inner P(pi) is its own class

    # a paired couple between two unpaired classes (expanded: P H P H P H P)
    sc = sign_classes(circuit(1, [p(0.4, 0), h(0), p(0.3, 0), x(0), p(0.6, 0)]))
    assert sc.positions == [0, 2, 4, 6]
    assert sc.classes == [(0,), (2,), (6,), (4,)]
    assert sc.pairing == [(1, 2)]


def test_sign_classes_of_zero_wire_circuits():
    # a vanilla zero-wire circuit holds only global phases: no P gate and
    # no class; one with an ancilla is refused as interp_E_values refuses it
    for gates in ((), (gphase(0.3),), (gphase(0.3), gphase(-1.2))):
        assert sign_classes(Circuit(0, 0, gates)) == interp.SignClasses([], [], [])
    ancilla = Circuit(0, 0, (init(0), p(0.3, 0), dest(0)))
    for run in (sign_classes, interp_E_values):
        with pytest.raises(UnsupportedGate):
            run(ancilla)


def test_interp_E_value_sets():
    phi = 0.8
    vals = interp_E_values(circuit(1, [p(phi, 0)]))
    want = sorted({round(phi % (PI / 2), 9), round((-phi) % (PI / 2), 9)})
    assert equal_value_sets(vals, tuple(want))
    assert interp_E_values(circuit(1, [])) == (0.0,)
    va = interp_E_values(circuit(1, [p(0.3, 0), p(0.9, 0)]))
    vb = interp_E_values(circuit(1, [p(1.2, 0)]))
    assert equal_value_sets(va, vb)


def test_interp_E_invariance_under_small_rules():
    rng = np.random.default_rng(34)
    rules = ["S2PI", "SPLUS", "H2", "P0", "EH", "PPLUS", "PMINUS"]
    done = 0
    while done < 60:
        c = circuit(1, [])
        gates = []
        for _ in range(int(rng.integers(1, 7))):
            kind = rng.integers(0, 4)
            ang = float(rng.uniform(0, TWO_PI))
            gates.append([h(0), p(ang, 0), gphase(ang), x(0)][kind])
        c = circuit(1, gates)
        name = rules[int(rng.integers(len(rules)))]
        n_params = signature(name).n_params
        params = tuple(rng.uniform(0.2, 3.0, n_params))
        direction = "LR" if rng.random() < 0.5 else "RL"
        sites = find_sites(c, name, params, 1 if name not in ("S2PI", "SPLUS") else 0,
                           direction=direction, allow_lemmas=True)
        if not sites:
            continue
        c2 = apply_step(c, Step(name, direction, params,
                                1 if name not in ("S2PI", "SPLUS") else 0,
                                sites[0]), allow_lemmas=True)
        assert equal_value_sets(interp_E_values(c), interp_E_values(c2)), \
            (name, direction)
        done += 1


def test_sign_gap_is_the_signed_phase_sum_difference():
    # s' . (b1, b2, b3) - s . (a1, a2, a3) at fixed angles, every sign pair
    a = (0.7, 1.1, -0.4)
    b = interp.b_funcs(*a)
    for s in itertools.product((1.0, -1.0), repeat=3):
        for sp in itertools.product((1.0, -1.0), repeat=3):
            want = sum(u * v for u, v in zip(sp, b)) - sum(u * v for u, v in zip(s, a))
            assert abs(sign_gap(s, sp, *a) - want) <= 1e-12, (s, sp)


def test_sign_gap_derivative_is_nonzero():
    # the gap function moves with a2, so its value set is a continuum
    eps = 1e-6
    for s in ((1, 1, 1), (-1, 1, -1)):
        for sp in ((1, 1, 1), (1, -1, 1)):
            g1 = sign_gap(s, sp, PI / 4, PI / 4 + eps, PI / 4)
            g0 = sign_gap(s, sp, PI / 4, PI / 4 - eps, PI / 4)
            assert abs((g1 - g0) / (2 * eps)) > 0.05


#: the witnesses that read the kinds and wires of the expansion, no angle
_SHAPE_WITNESSES = ("S2PI", "H2", "P0", "P0'", "C", "EH", "B", "CZ")


def test_angle_free_witnesses_have_one_value_per_rule_width():
    # minimality_report reads one instance per width for these witnesses:
    # every vanilla rule side of every theory, at every width up to 4, has
    # on each of 20 sampled instances the value it has on the first
    rng = np.random.default_rng(21)
    first, seen = {}, 0
    for t in THEORIES:
        for rid in list_rules(t):
            for inst in instances(t, rid.name, 20, 4, rng):
                for side, c in (("lhs", inst.lhs), ("rhs", inst.rhs)):
                    if any(g.kind in ("INIT", "DEST") for g in c.gates):
                        continue
                    values = [interp_axiom(w, c) for w in _SHAPE_WITNESSES]
                    want = first.setdefault((t, rid.name, inst.n, side), values)
                    for a, b in zip(values, want):
                        assert type(a) is type(b) and np.array_equal(a, b), (t, rid, inst.n)
                    seen += 1
    assert seen > 400


def _rand_any_gate(rng, n):
    """A seeded gate of any vanilla kind on ``n`` wires, at a random angle,
    on a random (unsorted) wire tuple; a CTRL gets a random base, pattern
    and control count, none among them."""
    kinds = ("GPHASE", "H", "P", "X", "Z", "RX", "MCP", "MCRX", "CTRL")
    kind = str(rng.choice(kinds + (("CNOT", "SWAP") if n >= 2 else ())))
    angle = float(rng.uniform(-4 * PI, 4 * PI))

    def wires(k):
        return tuple(int(w) for w in rng.choice(n, k, replace=False))

    if kind == "GPHASE":
        return gphase(angle)
    if kind in ("CNOT", "SWAP"):
        return (cnot if kind == "CNOT" else swap)(*wires(2))
    if kind in ("H", "X", "Z"):
        return {"H": h, "X": x, "Z": z}[kind](*wires(1))
    if kind in ("P", "RX"):
        return (p if kind == "P" else rx)(angle, *wires(1))
    ws = wires(int(rng.integers(1, n + 1)))
    if kind == "MCP":
        return mcp(angle, ws)
    if kind == "MCRX":
        return mcrx(angle, ws)
    base = (p(angle, 0), x(0), z(0), rx(angle, 0))[int(rng.integers(4))]
    return ctrl("".join(str(b) for b in rng.integers(0, 2, len(ws) - 1)), base, ws)


def test_angle_free_witnesses_equal_counts_of_the_expansion():
    # an oracle that never folds: each witness that reads no angle, on 400
    # seeded circuits of 1-6 wires, is the count or the matrix computed
    # from the circuit's full expansion
    rng = np.random.default_rng(35)
    counts = {"S2PI": lambda k: int(k["GPHASE"] > 0), "H2": lambda k: int(k["H"] > 0),
              "P0": lambda k: (k["H"] + k["P"]) % 2, "P0'": lambda k: int(k["P"] > 0),
              "C": lambda k: int(k["CNOT"] > 0), "EH": lambda k: k["H"] % 2}
    kept = {"B": ("SWAP",), "CZ": ("CNOT", "SWAP")}
    seen = set()
    for _ in range(400):
        n = int(rng.integers(1, 7))
        c = circuit(n, [_rand_any_gate(rng, n) for _ in range(int(rng.integers(0, 8)))])
        expanded = expand_macros(c).gates
        kinds = {kind: sum(g.kind == kind for g in expanded)
                 for kind in ("GPHASE", "H", "P", "CNOT")}
        for w, want in counts.items():
            assert interp_axiom(w, c) == want(kinds), (w, c)
        for w, keep in kept.items():
            want = eval_matrix(circuit(n, [g for g in expanded if g.kind in keep]))
            got = interp_axiom(w, c)
            assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12, (w, c)
        for g in c.gates:
            seen.add(g.kind if g.kind != "CTRL" else (g.base.kind, len(g.wires) > 1))
            seen.add(("unsorted", list(g.wires) != sorted(g.wires)))
    assert seen >= {"GPHASE", "H", "P", "CNOT", "SWAP", "X", "Z", "RX", "MCP", "MCRX",
                    ("unsorted", True)} | {(b, many) for b in "PXZ" for many in (False, True)} \
        | {("RX", False), ("RX", True)}


def test_angle_free_minimality_reports_expand_no_macro(monkeypatch):
    def refuse(*args):
        raise AssertionError("a witness that reads no angle expanded a macro")

    monkeypatch.setattr(interp, "_expanded", refuse)
    monkeypatch.setattr(interp, "expand_gate", refuse)
    for theory in ("QC", "QCprime"):
        for name in (r.name for r in list_rules(theory)):
            if name in interp.INTERP_BOUND and name != "SPLUS":
                assert minimality_report(theory, name, samples=2)["pass"], (theory, name)
    # widths whose MCPs expand into 2 * 3^11 - 1 gates
    for name in ("CZ", "B", "EH"):
        assert minimality_report("QC", name, max_qubits=12, samples=2)["pass"], name


def test_a_macro_wire_map_is_composed_onto_its_wires(monkeypatch):
    # every macro's wire map is the identity: a 3-wire MCP made to unfold
    # into a CNOT and a SWAP shows its map moved onto the macro's wires
    real = interp.unfold
    monkeypatch.setattr(interp, "unfold", lambda g: [cnot(0, 1), swap(1, 2)]
                        if g.kind == "MCP" and len(g.wires) == 3 else real(g))
    monkeypatch.setattr(interp, "_SUMMARIES", dict(interp._LEAVES))
    got = interp_axiom("CZ", circuit(4, [h(1), mcp(1.0, (3, 0, 2)), cnot(2, 1)]))
    want = eval_matrix(circuit(4, [cnot(3, 0), swap(0, 2), cnot(2, 1)]))
    assert np.array_equal(got, want)


def test_wide_witnesses_return_their_value():
    # a 400-wire MCP unfolds 400 levels deep: each witness returns its
    # value, as it does at 200 wires; B's and CZ's matrices are over the
    # wire cap, and their wire maps, which minimality_report compares, are
    # the identity.  400 wires are folded before 200 and after
    want = {"H2": 0, "C": 1, "EH": 0, "SPLUS": 0}
    for n in (400, 200, 400):
        c = circuit(n, [mcp(1.0, tuple(range(n)))])
        for w in ("H2", "C", "EH", "SPLUS", "B", "CZ"):
            if w in ("B", "CZ"):
                with pytest.raises(WireCapExceeded):
                    interp_axiom(w, c)
            got = interp_axiom(w, c, 0.5) if w in want else interp._witness(w, c)
            assert got == want.get(w, tuple(1 << i for i in range(n))), (n, w)


def _wide_values(n: int) -> list:
    """``interp_k`` of an n-wire MCP(1.0) at k = 3 and k = n - 1, and its
    value under each witness that reads no angle."""
    c = circuit(n, [mcp(1.0, tuple(range(n)))])
    return ([interp_k(c, 3), interp_k(c, n - 1)]
            + [interp._witness(w, c) for w in ("S2PI", "H2", "P0", "P0'", "C", "EH", "B", "CZ")])


def _at_depth(frames: int, call):
    """``call()`` from ``frames`` nested frames further down the stack."""
    return call() if frames == 0 else _at_depth(frames - 1, call)


def _cleared(monkeypatch) -> None:
    monkeypatch.setattr(interp, "_SUMMARIES", dict(interp._LEAVES))
    interp._affine.cache_clear()


def test_wide_values_do_not_depend_on_history(monkeypatch):
    # a summary is made from narrower ones in a loop, so what the caches
    # hold and how deep the caller's stack is decide nothing: a 400-wire
    # call gives one value on cleared caches, after a 200-wire call and
    # 300 frames deep; a 1000-wire MCP weighs from cleared caches as deep
    _cleared(monkeypatch)
    cold = _wide_values(400)
    _cleared(monkeypatch)
    _wide_values(200)
    warm = _wide_values(400)
    _cleared(monkeypatch)
    deep = _at_depth(300, lambda: _wide_values(400))
    assert cold == warm == deep
    assert cold[2:8] == [0, 0, 1, 1, 1, 0]
    _cleared(monkeypatch)
    c = circuit(1000, [mcp(TWO_PI, tuple(range(1000)))])
    assert _at_depth(300, lambda: interp_k(c, 999)) == PI


def test_interp_k_caches_hold_no_angle(monkeypatch):
    # a gate's weight is affine in its angle, so new angles add nothing
    # to interp's caches once their shapes and k have been weighed
    rng = np.random.default_rng(36)
    _cleared(monkeypatch)

    def sizes():
        return len(interp._SUMMARIES), interp._affine.cache_info().currsize

    for i in range(200):
        a = float(rng.uniform(-TWO_PI, TWO_PI))
        interp_k(circuit(1, [rx(a, 0)]), 4)
        interp_k(circuit(3, [mcp(a, (2, 0, 1))]), 4)
        if i == 0:
            first = sizes()
    assert sizes() == first


@pytest.mark.parametrize("order", [1, -1], ids=["as-defined", "reversed"])
def test_a_cold_summary_unfolds_each_shape_once(monkeypatch, order):
    # the worklist keeps each shape's unit-angle gate and its unfold with
    # its entry, so a cold request unfolds every shape it makes once; with
    # each unfolding reversed, an MCRX's MCP asks for the narrower MCP that
    # is already waiting in the worklist, which moves up
    unfolded, real = [], interp.unfold

    def counted(g):
        assert interp._shape(g) not in unfolded, g   # fails here, not in a loop
        unfolded.append(interp._shape(g))
        return real(g)[::order]

    monkeypatch.setattr(interp, "unfold", counted)
    for gate in (mcp(0.3, tuple(range(12))), mcrx(0.3, tuple(range(9))),
                 ctrl("0101101", x(0), tuple(range(8)))):
        _cleared(monkeypatch)
        unfolded.clear()
        interp_k(circuit(len(gate.wires), [gate]), 3)
        made = set(interp._SUMMARIES) - set(interp._LEAVES)
        assert sorted(unfolded) == sorted(made) and len(made) >= 9, gate


def test_summaries_restart_past_their_bound(monkeypatch):
    # past 4096 entries a miss starts the summaries over from the leaves:
    # they shrink back below the bound, and a shape made again after the
    # restart gives the values it gave before
    _cleared(monkeypatch)

    def values(c) -> list:
        return [interp_k(c, 3), interp_k(c, 13)] + [interp._witness(w, c)
                                                    for w in _SHAPE_WITNESSES]

    def shape(i: int):
        return circuit(14, [ctrl(format(i, "013b"), x(0), tuple(range(14)))])

    first = shape(0)
    before = values(first)
    sizes = []
    for i in range(1, 4200):
        interp_k(shape(i), 3)
        sizes.append(len(interp._SUMMARIES))
    assert max(sizes) > 4096 > sizes[-1]
    assert interp._shape(first.gates[0]) not in interp._SUMMARIES
    interp._affine.cache_clear()
    assert values(first) == before


def test_splus_witness_keeps_only_parameter_free_rules_in_scope():
    # minimality_report reads one draw per width for the rows of SPLUS's
    # witness, which reads angles: besides SPLUS, which takes its own psi
    # instances, every row it keeps in scope has no parameters
    for theory in ("QC", "QCprime"):
        results = minimality_report(theory, "SPLUS", samples=2)["results"]
        kept = [name for name, r in results.items() if r != "out-of-scope"]
        assert "SPLUS" in kept and len(kept) > 1
        assert all(name == "SPLUS" or signature(name).n_params == 0 for name in kept), kept


def test_interp_E_values_expands_its_circuit_once(monkeypatch):
    calls, real = [], interp._expanded

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(interp, "_expanded", counted)
    c = circuit(1, [x(0), p(0.7, 0), h(0), p(1.1, 0)])
    assert len(interp_E_values(c)) == 4
    assert len(calls) == 1


@pytest.mark.parametrize("seed, error", [(1.5, InvalidCircuit), (True, InvalidCircuit),
                                         ("3", InvalidCircuit), (-1, BadParams)])
def test_sampling_runs_check_their_seed(seed, error):
    with pytest.raises(error, match="^seed "):
        verify_theory("QC", 2, seed=seed)
    with pytest.raises(error, match="^seed "):
        minimality_report("QC", "H2", samples=2, seed=seed)
    with pytest.raises(error, match="^seed "):
        minimality_matrix("QC", samples=2, seed=seed)


def test_numpy_integer_seeds_draw_as_ints():
    assert (verify_theory("QC", 2, max_qubits=3, seed=np.int64(4))
            == verify_theory("QC", 2, max_qubits=3, seed=4))


def test_minimality_reports_echo_numpy_integers_as_ints():
    # a report copies seed, samples and (I)'s bound target_n - 1, so numpy
    # integers, which the checks accept, must come back as JSON-ready ints
    np_ints = {"samples": np.int64(2), "seed": np.int64(3)}
    ints = {k: int(v) for k, v in np_ints.items()}
    for axiom in ("I", "H2"):
        rep = minimality_report("QC", axiom, target_n=np.int64(4), **np_ints)
        assert json.dumps(rep) == json.dumps(minimality_report("QC", axiom, target_n=4, **ints))
    rep = minimality_matrix("QC", **np_ints)
    assert json.dumps(rep) == json.dumps(minimality_matrix("QC", **ints))


def _values_equal(a, b) -> bool:
    """Whether two ``interp_axiom`` values, counts or matrices, are equal."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= 1e-9)
    return a == b


def _reference_minimality(theory, axiom, samples, seed, target_n, max_qubits=5):
    """``minimality_report``, one built instance at a time: its own seeded
    rng, ``instances`` and the scalar witnesses."""
    rng = np.random.default_rng(seed)
    psi = None
    if axiom == "I":
        bound, kind = target_n - 1, f"interp_k(k={target_n - 1})"
        value, equal = ((lambda c: interp_k(c, bound)),
                        (lambda a, b: angles_equal(a, b, TWO_PI, 1e-8)))
    elif axiom == "E":
        bound, kind = 1, "sign-assignment value set"
        value, equal = interp_E_values, equal_value_sets
    else:
        bound = interp.INTERP_BOUND[axiom]
        witness = interp._THEORY_WITNESS.get((theory, axiom), axiom)
        kind = f"interp[{witness}]"
        if axiom == "SPLUS":
            psi = float(rng.uniform(0.1, TWO_PI - 0.1))
        value, equal = (lambda c: interp_axiom(witness, c, psi)), _values_equal

    def kept(inst):
        return equal(value(inst.lhs), value(inst.rhs))

    results = {}
    for rid in list_rules(theory):
        name = rid.name
        if name == axiom == "I":
            insts = [resolve_rule(theory, name, (), target_n)]
        elif name == axiom == "SPLUS":
            insts = [resolve_rule(theory, name, (psi, float(rng.uniform(0.2, 3.0))), 0)
                     for _ in range(3)]
        else:
            arity = signature(name).arity
            width = max_qubits if arity is None else arity
            if bound is not None and width > bound and name != axiom:
                results[name] = "out-of-scope"
                continue
            draws = samples if axiom in ("I", "E") else 1
            insts = list(instances(theory, name, draws, max_qubits, rng))
        if any(g.kind in ("INIT", "DEST") for c in (insts[0].lhs, insts[0].rhs) for g in c.gates):
            results[name] = "no-witness"
        else:
            results[name] = "sound" if all(map(kept, insts)) else "unsound"
    unsound = {k for k, v in results.items() if v == "unsound"}
    report = {"theory": theory, "axiom": axiom, "interpretation": kind,
              "bound": bound, "samples": samples, "seed": seed, "results": results,
              "pass": unsound == {axiom} and "no-witness" not in results.values()}
    if psi is not None:
        report["psi"] = psi
        free = [resolve_rule(theory, "SPLUS", rng.uniform(0.1, 3.0, 2), 0)
                for _ in range(samples)]
        report["psi_free_sound"] = all(map(kept, free))
        report["pass"] = report["pass"] and report["psi_free_sound"]
    return report


def _witnessed(theory):
    return [r.name for r in list_rules(theory)
            if r.name in interp.INTERP_BOUND or r.name in ("E", "I")]


def test_minimality_report_equals_a_per_instance_reference(monkeypatch, fresh_shapes):
    # 150 samples make a full chunk and a part one for every (E) row; the
    # reports are compared as JSON, so an int never stands in for a float.
    # (I)'s exact rows agree with the sampled reference but on QCugp's (E),
    # which interp_k breaks and the exact report calls "unshown"
    for theory in THEORIES:
        for axiom in _witnessed(theory):
            for seed in (0, 7):
                for target_n in (3, 4, 12):
                    args = (theory, axiom, 150, seed, target_n)
                    report = minimality_report(theory, axiom, samples=150, seed=seed,
                                               target_n=target_n)
                    want = _reference_minimality(*args)
                    if (theory, axiom) == ("QCugp", "I"):
                        assert want["results"]["E"] == "unsound" and not want["pass"]
                        want["results"]["E"] = "unshown"
                    assert json.dumps(report) == json.dumps(want), args
    # (I) reads C's map once, at 0, at the unit vector and at 8 checked
    # points: one wrong point refuses its form, so C, on two wires, reads
    # "unshown" and the report fails
    _route_angle_maps(monkeypatch, lambda name, params, angles, k:
                      (angles[0], (angles[1][0] + 0.5,)) if (name, k) == ("C", 5) else angles)
    report = minimality_report("QC", "I", samples=150)
    assert report["results"] == {name: "unsound" if name == "I" else "unshown" if name == "C"
                                 else "sound" for name in _witnessed("QC")}
    assert not report["pass"]
    # a non-finite mapped angle raises what building its gate raises
    monkeypatch.undo()
    _route_angle_maps(monkeypatch, lambda name, params, angles, k:
                      (angles[0], (math.inf,) + angles[1][1:])
                      if name == "E" and k in (0, 7) else angles)
    with pytest.raises(InvalidCircuit) as built:
        resolve_rule("QC", "E", (0.1, 0.2, 0.3))             # the map's call 0
    with pytest.raises(InvalidCircuit) as checked:
        minimality_report("QC", "I", samples=150)            # its call 7
    assert str(checked.value) == str(built.value) == "non-finite angle in GPHASE"


#: rows whose weights land on and around a multiple of 2*pi
_EDGE_ANGLES = (0.0, TWO_PI, -TWO_PI, 1e-13, TWO_PI - 1e-13, PI, -PI / 2)


def _form_value(form, row, k: int) -> float:
    """interp_k at level ``k`` that an exact ``form`` gives the parameter
    ``row``: 2^k const reduced modulo 2 exactly, then the parameters'
    terms in floats."""
    return (float(form.const * 2 ** k % 2) * PI
            + sum(float(c * 2 ** k) * t for c, t in zip(form.coefs, row)))


def test_exact_forms_equal_interp_k_of_their_instances():
    # every side of every catalog rule, lemmas included, in every theory,
    # at three widths of an n-ary rule, at seeded and edge angles: a form
    # evaluated at a row is the float interp_k of the row's instance; the
    # forms of the rules whose angle map is not affine are refused
    rng = np.random.default_rng(33)
    kinds, seen, refused = set(), 0, set()
    for theory in THEORIES:
        for name in dict.fromkeys([r.name for r in list_rules(theory)] + lemma_names()):
            n_params, arity, min_n = signature(name)
            for n in (arity,) if arity is not None else range(min_n, min_n + 3):
                rows = [tuple(r) for r in rng.uniform(-4 * PI, 4 * PI, (20, n_params)).tolist()]
                rows = rows + [(a,) * n_params for a in _EDGE_ANGLES] if n_params else [()]
                shape, _, angles = theories._resolve(theory, name, rows[0], n, True)
                if any(map(interp._has_ancilla, (shape.lhs, shape.rhs))):
                    continue
                forms = interp._forms(theory, name, n)
                if forms is None:
                    refused.add(name)
                    continue
                for i, (side, form) in enumerate(zip((shape.lhs, shape.rhs), forms)):
                    kinds |= {side.gates[j].kind for j in side._plan.angle_at}
                    for row in rows:
                        c = side if angles is None else side.with_angles(angles(*row)[i])
                        for k in range(2, 13):
                            assert angles_equal(_form_value(form, row, k), interp_k(c, k),
                                                TWO_PI, 1e-9), (theory, name, n, i, row, k)
                            seen += 1
    assert refused == {"E", "EPRIME", "ESTAR_N"}
    assert kinds == {"GPHASE", "P", "RX", "MCP", "MCRX"} and seen > 10000


def _doubling(values) -> bool:
    """Whether ``values``, interp_k's at k = 2, 3, ..., hold the doubling
    law: each is twice the one before it, modulo 2*pi, to 1e-12."""
    return all(angles_equal(v, 2.0 * u, TWO_PI, 1e-12) for u, v in zip(values, values[1:]))


def test_interp_k_doubles_with_k():
    # interp_k(c, k + 1) = 2 interp_k(c, k) modulo 2pi at k = 2..12, as
    # every weight doubles: on both sides of every catalog rule, lemmas
    # included, at seeded angles, one instance at a time and through the
    # side's exact form where it has one, and on seeded random circuits
    rng = np.random.default_rng(34)
    ks = range(2, 14)
    checked = 0
    for theory in THEORIES:
        for name in dict.fromkeys([r.name for r in list_rules(theory)] + lemma_names()):
            n_params, arity, min_n = signature(name)
            for n in (arity,) if arity is not None else range(min_n, min_n + 3):
                rows = rng.uniform(-4 * PI, 4 * PI, (4, n_params))
                shape, _, angles = theories._resolve(theory, name, rows[0], n, True)
                batches = ((None, None) if angles is None else
                           [theories._columns(side, len(rows)) for side in angles(*rows.T)])
                sides = (shape.lhs, shape.rhs)
                forms = (None if any(map(interp._has_ancilla, sides))
                         else interp._forms(theory, name, n))
                for i, (side, batch) in enumerate(zip(sides, batches)):
                    if interp._has_ancilla(side):
                        continue
                    insts = [side] if batch is None else list(map(side.with_angles,
                                                                  batch.T.tolist()))
                    for c in insts:
                        assert _doubling([interp_k(c, k) for k in ks]), (theory, name, n)
                    if forms is not None:
                        assert all(_doubling([_form_value(forms[i], row, k) for k in ks])
                                   for row in rows.tolist()), (theory, name, n)
                    checked += len(insts)
    for _ in range(40):
        c = rand_vanilla(rng, int(rng.integers(1, 5)), int(rng.integers(0, 12)))
        assert _doubling([interp_k(c, k) for k in ks]), c
    assert checked > 500


def test_a_repeated_i_report_reads_no_rule(monkeypatch):
    # (I)'s exact forms are cached per theory, rule and width, with no
    # angle and no seed: a second report at the same target_n, at another
    # seed, requests no rule, checks no batch of angles, builds no instance
    for theory in ("QC", "QCprime", "QCugp"):
        first = minimality_report(theory, "I", target_n=6, seed=1)
        calls = []
        for owner, attr in ((theories, "_resolve"), (interp, "_resolve"),
                            (Circuit, "_batched"), (Circuit, "with_angles")):
            monkeypatch.setattr(owner, attr, lambda *a, attr=attr: calls.append(attr))
        again = minimality_report(theory, "I", target_n=6, seed=2)
        monkeypatch.undo()
        assert calls == [] and again["results"] == first["results"], theory


def test_exact_rows_read_the_angle_map(monkeypatch, fresh_shapes):
    # a weighed angle counts as exact only as a dyadic multiple of pi as a
    # float writes it: C's map shifted by pi keeps its form and its row,
    # shifted by 0.3 it is refused, never rounded, and C reads "unshown";
    # a right side that doubles the angle has another coefficient
    assert interp._in_pi(2 * PI) == 2 and interp._in_pi(-PI / 2) == Fraction(-1, 2)
    assert interp._in_pi(0.0) == 0 and interp._in_pi(0.3) is None
    assert interp._in_pi(PI / 3) is None and interp._in_pi(PI * 2.0 ** -40) is None
    for routed, row in (((PI, PI), "sound"), ((0.3, 0.3), "unshown"), ((0.0, None), "unsound")):
        def hook(name, params, angles, k, routed=routed):
            if name != "C":
                return angles
            return tuple(tuple(2 * a if shift is None else a + shift for a in side)
                         for side, shift in zip(angles, routed))
        _route_angle_maps(monkeypatch, hook)
        report = minimality_report("QC", "I", target_n=5)
        assert report["results"]["C"] == row and report["pass"] == (row == "sound"), routed
        monkeypatch.undo()


def test_wide_minimality_reports_pass_and_never_warn():
    # (I)'s rows are exact at every width: 331 wires, and 1023 and 1026,
    # where a float weight of 2^k overflows, give passing reports
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (331, 1023, 1026):
            report = minimality_report("QC", "I", target_n=n)
            assert report["pass"] and report["bound"] == n - 1, n
            assert report["results"]["I"] == "unsound"


def test_i_reports_pass_at_every_width():
    # from n = 24 on, a float check of 2^k-scaled weights read SPLUS
    # unsound; the exact rows pass at every n, with no tolerance involved
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theory in ("QC", "QCprime"):
            for n in range(3, 65):
                for seed in range(3):
                    assert minimality_report(theory, "I", target_n=n, seed=seed)["pass"], \
                        (theory, n, seed)
            assert minimality_report(theory, "I", target_n=1000, seed=0)["pass"], theory


def test_exact_i_rows_agree_with_sampled_instances():
    # the oracle: public interp_k of each rule's sampled instances,
    # compared one at a time; the one disagreement is QCugp's (E), which
    # interp_k breaks and the report calls "unshown", since a rule that
    # holds up to a global phase keeps no determinant
    for theory in ("QC", "QCprime", "QCugp"):
        for target_n in range(3, 21):
            k = target_n - 1
            for seed in range(3):
                rng = np.random.default_rng(seed)
                results = minimality_report(theory, "I", target_n=target_n, seed=seed)["results"]
                for name, row in results.items():
                    if row == "out-of-scope":
                        continue
                    insts = ([resolve_rule(theory, name, (), target_n)] if name == "I"
                             else list(instances(theory, name, 15, 5, rng)))
                    sampled = ("sound" if all(angles_equal(interp_k(i.lhs, k), interp_k(i.rhs, k),
                                                           TWO_PI, 1e-9) for i in insts)
                               else "unsound")
                    if row == "unshown":
                        assert (theory, name, sampled) == ("QCugp", "E", "unsound"), target_n
                    else:
                        assert row == sampled, (theory, target_n, seed, name)
