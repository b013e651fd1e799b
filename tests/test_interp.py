"""Alternative interpretations, minimality reports, sign assignments."""

import math

import numpy as np
import pytest

from qc_equate import (apply_step, circuit, cnot, eval_matrix, find_sites,
                       gphase, h, instantiate, interp_E_values, interp_axiom,
                       interp_k, mcp, minimality_report, p, sign_classes,
                       sign_gap, x, z)
from qc_equate.circuit import Circuit, init, dest
from qc_equate.errors import BadParams, UnsupportedGate
from qc_equate.interp import equal_value_sets, minimality_matrix
from qc_equate.theories import list_rules
from qc_equate.rewrite import Site, Step

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
    for n in range(3, 8):
        w = interp_k(circuit(n, [mcp(TWO_PI, tuple(range(n)))]), n - 1)
        assert abs(w - PI) <= 1e-9
        assert interp_k(circuit(n, []), n - 1) == 0.0


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
    b = instantiate(("QC", "B"), (), 2)
    vb_l = interp_axiom("B", b.lhs)
    vb_r = interp_axiom("B", b.rhs)
    assert np.allclose(vb_l, np.eye(4))
    swap_mat = np.zeros((4, 4))
    swap_mat[0, 0] = swap_mat[1, 2] = swap_mat[2, 1] = swap_mat[3, 3] = 1
    assert np.allclose(vb_r, swap_mat)

    cz = instantiate(("QC", "CZ"), (), 2)
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
    for theory, rows in (("QC", ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ",
                                 "EH", "E", "I")),
                         ("QCprime", ("S2PI", "SPLUS", "H2", "P0", "C", "B",
                                      "CZ", "I"))):
        names = [r.name for r in list_rules(theory)]
        phases_only = set(names) - {"S2PI", "SPLUS"}
        out_of_scope = {"C": {"I"}, "H2": wide, "P0": wide, "E": wide,
                        "S2PI": phases_only, "SPLUS": phases_only}
        m = minimality_matrix(theory, samples=15, seed=2)
        assert m["pass"] and list(m["rows"]) == list(rows)
        for axiom in rows:
            assert m["rows"][axiom]["results"] == {
                name: "unsound" if name == axiom
                else "out-of-scope" if name in out_of_scope.get(axiom, ())
                else "sound" for name in names}, (theory, axiom)


def test_minimality_with_nothing_to_check_raises():
    with pytest.raises(BadParams):
        minimality_report("QC", "C", samples=0)
    with pytest.raises(BadParams):      # (I) is in scope of CZ, with no width
        minimality_report("QC", "CZ", max_qubits=2)


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
        from qc_equate.theories import rule_signature, lemma_signature
        try:
            n_params, _ = rule_signature(name)
        except Exception:
            n_params, _ = lemma_signature(name)
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


def test_sign_gap_derivative_is_nonzero():
    # the gap function moves with a2, so its value set is a continuum
    eps = 1e-6
    for s in ((1, 1, 1), (-1, 1, -1)):
        for sp in ((1, 1, 1), (1, -1, 1)):
            g1 = sign_gap(s, sp, PI / 4, PI / 4 + eps, PI / 4)
            g0 = sign_gap(s, sp, PI / 4, PI / 4 - eps, PI / 4)
            assert abs((g1 - g0) / (2 * eps)) > 0.05
