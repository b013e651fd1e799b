"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from qc_equate import (NormalFormParams, Site, Step, apply_step, b_derivs_alpha2,
                       b_funcs, circuit, decide_equiv_1q, equal_matrices,
                       eval_matrix, euler_e, euler_eprime, find_sites, gphase,
                       h, interp_E_values, interp_k, check_soundness, mcp,
                       minimality_report, nf_from_unitary, p, replay,
                       resolve_rule, rx, verify_theory, x, z)
from qc_equate.interp import equal_value_sets
from qc_equate.theories import signature
from qc_equate.traces import all_traces

PI = math.pi
TWO_PI = 2 * PI


def report(num, ok, detail=""):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def rand_1q(rng, m):
    gates = []
    for _ in range(m):
        k = rng.integers(0, 6)
        ang = float(rng.uniform(-7, 7))
        gates.append([h(0), p(ang, 0), gphase(ang), x(0), z(0), rx(ang, 0)][k])
    return circuit(1, gates)


def test_criterion_1_rule_soundness():
    t0 = time.time()
    ok = True
    for theory in ("QC", "QCprime", "QCugp", "QCancilla"):
        rep = verify_theory(theory, samples=100, max_qubits=6, tol=1e-9, seed=0)
        ok = ok and rep["ok"]
    elapsed = time.time() - t0
    report(1, ok and elapsed < 30.0, f"4 theories, (I) up to n=6, {elapsed:.1f}s")


def test_criterion_2_euler_formulas():
    rng = np.random.default_rng(100)
    ok = True
    for _ in range(10_000):
        a1, a2, a3 = rng.uniform(-2 * TWO_PI, 2 * TWO_PI, 3)
        params, _ = euler_e(a1, a2, a3)
        if not params.valid():
            ok = False
            break
        lhs = eval_matrix(circuit(1, [rx(a1, 0), p(a2, 0), rx(a3, 0)]))
        if np.max(np.abs(lhs - params.matrix())) > 1e-9:
            ok = False
            break
    for _ in range(10_000):
        a1, a3 = rng.uniform(-2 * TWO_PI, 2 * TWO_PI, 2)
        params, _ = euler_eprime(a1, a3)
        if not params.valid():
            ok = False
            break
        lhs = eval_matrix(circuit(1, [rx(a1, 0), h(0), rx(a3, 0)]))
        if np.max(np.abs(lhs - params.matrix())) > 1e-9:
            ok = False
            break
    report(2, ok, "10^4 draws for (E) and for (E'), tol 1e-9, intervals hold")


def test_criterion_3_normal_form_uniqueness():
    rng = np.random.default_rng(101)
    ok = True
    for i in range(500):
        if i % 10 == 0:
            b2, b3 = (0.0 if i % 20 == 0 else PI), 0.0
        else:
            b2, b3 = float(rng.uniform(0.02, PI - 0.02)), float(rng.uniform(0, TWO_PI))
        params = NormalFormParams(float(rng.uniform(0, TWO_PI)),
                                  float(rng.uniform(0, TWO_PI)), b2, b3)
        got = nf_from_unitary(params.matrix())
        if not got.close_to(params, 1e-8):
            ok = False
            break
    report(3, ok, "500 valid quadruples round-trip at 1e-8")


def _rewritten_twin(rng, c):
    """Apply a few random sound rule steps to produce an equal circuit."""
    out = c
    for _ in range(int(rng.integers(1, 4))):
        choice = rng.integers(0, 5)
        at = int(rng.integers(0, len(out.gates) + 1))
        if choice == 0:
            out = apply_step(out, Step("H2", "RL", (), None, Site((), (0,), at)))
        elif choice == 1:
            out = apply_step(out, Step("P0", "RL", (), None, Site((), (0,), at)))
        elif choice == 2:
            out = apply_step(out, Step("S2PI", "RL", (), None, Site((), (), at)))
        elif choice == 3:
            sites = find_sites(out, "EH", direction="LR")
            if sites:
                out = apply_step(out, Step("EH", "LR", (), None, sites[0]))
        else:
            sites = find_sites(out, "H2", direction="LR")
            if sites:
                out = apply_step(out, Step("H2", "LR", (), None, sites[0]))
    return out


def test_criterion_4_one_qubit_completeness():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(500):
        c1 = rand_1q(rng, int(rng.integers(0, 15)))
        c2 = _rewritten_twin(rng, c1)
        if not decide_equiv_1q(c1, c2):
            ok = False
            break
    if ok:
        for _ in range(500):
            c1 = rand_1q(rng, int(rng.integers(0, 12)))
            c2 = rand_1q(rng, int(rng.integers(0, 12)))
            want = equal_matrices(eval_matrix(c1), eval_matrix(c2), 1e-8)
            if decide_equiv_1q(c1, c2) != want:
                ok = False
                break
    report(4, ok, "500 constructed-equal pairs + 500 independent pairs")


def test_criterion_5_determinant_interpretation():
    rng = np.random.default_rng(103)
    ok = True
    from qc_equate import cnot
    for _ in range(300):
        n = int(rng.integers(1, 6))
        gates = []
        for _ in range(int(rng.integers(0, 12))):
            kind = rng.integers(0, 4)
            if kind == 0:
                gates.append(h(int(rng.integers(n))))
            elif kind == 1:
                gates.append(p(float(rng.uniform(0, TWO_PI)), int(rng.integers(n))))
            elif kind == 2 and n >= 2:
                a, b = rng.choice(n, 2, replace=False)
                gates.append(cnot(int(a), int(b)))
            else:
                gates.append(gphase(float(rng.uniform(0, TWO_PI))))
        c = circuit(n, gates)
        k = int(rng.integers(n, 8))
        d = np.linalg.det(eval_matrix(c)) ** (2 ** (k - n))
        if abs(d - np.exp(1j * interp_k(c, k))) > 1e-8:
            ok = False
            break
    report(5, ok, "300 circuits, n <= 5, k <= 7")


def test_criterion_6_unboundedness_witness():
    ok = True
    for n in range(3, 8):
        w = interp_k(circuit(n, [mcp(TWO_PI, tuple(range(n)))]), n - 1)
        ok = ok and abs(w - PI) <= 1e-9
        ok = ok and interp_k(circuit(n, []), n - 1) == 0.0
    report(6, ok, "interp_k(MCP(2pi), n-1) = pi for n = 3..7")


def test_criterion_7_minimality_matrix():
    ok = True
    for axiom in ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"):
        rep = minimality_report("QC", axiom, max_qubits=5, samples=100, seed=5)
        ok = ok and rep["pass"]
    report(7, ok, "8 counter-interpretations + interp_k + sign sets: 10/10 PASS")


def test_criterion_8_b_function_anchors():
    d1, d2, d3 = b_derivs_alpha2(PI / 4, PI / 4, PI / 4)
    want1 = (2 + 6 * math.sqrt(2)) / 17
    want2 = -1 / math.sqrt(5 + 2 * math.sqrt(2))
    ok = (abs(d1 - want1) < 1e-10 and abs(d3 - want1) < 1e-10
          and abs(d2 - want2) < 1e-10)
    hstep = 1e-6
    up = b_funcs(PI / 4, PI / 4 + hstep, PI / 4)
    dn = b_funcs(PI / 4, PI / 4 - hstep, PI / 4)
    for k, dv in enumerate((d1, d2, d3)):
        ok = ok and abs((up[k] - dn[k]) / (2 * hstep) - dv) < 1e-5
    report(8, ok, "(2+6*sqrt 2)/17 and -1/sqrt(5+2*sqrt 2) at (pi/4,pi/4,pi/4)")


def test_criterion_9_clifford_closure():
    ok = True
    grid = [i * PI / 2 for i in range(8)]   # pi/2 grid over [0, 4pi)
    for a1 in grid:
        for a3 in grid:
            params, _ = euler_eprime(a1, a3)
            for b in (params.beta1, params.beta2, params.beta3):
                r = b % (PI / 2)
                if min(r, PI / 2 - r) > 1e-9:
                    ok = False
    report(9, ok, "all 64 grid pairs give beta' on the pi/2 grid")


def test_criterion_10_trace_replay():
    ok = True
    names = []
    for d in all_traces():
        try:
            replay(d, allow_lemmas=True, safety=True, tol=1e-9)
            names.append(d.name)
        except Exception as exc:   # noqa: BLE001 - report, don't crash
            ok = False
            names.append(f"{d.name}: {exc}")
    report(10, ok and len(names) == 19,
           f"{len(names)} shipped traces, per-step drift <= 1e-9")


def test_criterion_11_estar_n():
    rng = np.random.default_rng(104)
    ok = True
    for n in range(2, 6):
        for _ in range(50):
            params = tuple(rng.uniform(-TWO_PI, TWO_PI, 3))
            inst = resolve_rule("QC", "ESTAR_N", params, n, True)
            if not check_soundness(inst, 1e-9):
                ok = False
    report(11, ok, "multi-controlled Euler instances, n = 2..5, 50 draws each")


def test_criterion_12_sign_value_invariance():
    rng = np.random.default_rng(105)
    rules = ("S2PI", "SPLUS", "H2", "P0", "EH", "PPLUS", "PMINUS")
    done, ok = 0, True
    while done < 200 and ok:
        c = rand_1q(rng, int(rng.integers(1, 7)))
        if any(g.kind in ("RX",) for g in c.gates):
            c = circuit(1, [g for g in c.gates if g.kind != "RX"])
        name = rules[int(rng.integers(len(rules)))]
        direction = "LR" if rng.random() < 0.5 else "RL"
        n = 0 if name in ("S2PI", "SPLUS") else 1
        if direction == "RL" and name in ("S2PI", "H2", "P0"):
            at = int(rng.integers(0, len(c.gates) + 1))
            wires = () if name == "S2PI" else (0,)
            c2 = apply_step(c, Step(name, "RL", (), None, Site((), wires, at)),
                            allow_lemmas=True)
        else:
            n_params = signature(name).n_params
            params = tuple(rng.uniform(0.2, 3.0, n_params))
            sites = find_sites(c, name, params, n, direction=direction,
                               allow_lemmas=True)
            if not sites:
                continue
            c2 = apply_step(c, Step(name, direction, params, n, sites[0]),
                            allow_lemmas=True)
        ok = equal_value_sets(interp_E_values(c), interp_E_values(c2))
        done += 1
    report(12, ok and done == 200, f"{done} single-step rewrites preserve the value set")
