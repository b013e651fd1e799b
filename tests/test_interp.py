"""Alternative interpretations, minimality reports, sign assignments."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from qc_equate import (apply_step, circuit, cnot, ctrl, eval_matrix,
                       expand_macros, find_sites, gphase, h, interp_E_values,
                       interp_axiom, interp_k, mcp, mcrx, minimality_report, p,
                       resolve_rule, rx, sign_classes, sign_gap, x, z)
from qc_equate import interp, theories
from qc_equate.circuit import Circuit, angles_equal, init, dest
from qc_equate.cli import main
from qc_equate.errors import (BadArity, BadParams, InvalidCircuit, UnknownLemma,
                              UnsupportedGate)
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
    # a weight of 2^1024 overflows a float, and a 332-wire MCP unfolds
    # deeper than the recursion limit allows
    with pytest.raises(BadArity, match="OverflowError"):
        interp_k(circuit(0, [gphase(0.3)]), 1025)
    with pytest.raises(BadArity, match="RecursionError"):
        interp_k(circuit(332, [mcp(0.3, tuple(range(332)))]), 3)


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
        value, equal = (lambda c: interp_axiom(witness, c, psi)), interp._values_equal

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
    # 150 samples make a full chunk and a part one for every (I) and (E)
    # row; the reports are compared as JSON, so an int never stands in
    # for a float
    for theory in THEORIES:
        for axiom in _witnessed(theory):
            for seed in (0, 7):
                for target_n in (3, 4, 12):
                    args = (theory, axiom, 150, seed, target_n)
                    report = minimality_report(theory, axiom, samples=150, seed=seed,
                                               target_n=target_n)
                    assert json.dumps(report) == json.dumps(_reference_minimality(*args)), args
    # one wrong row, in the part chunk, makes its rule unsound
    _route_angle_maps(monkeypatch, lambda name, params, angles, k:
                      (angles[0], (angles[1][0] + 0.5,)) if (name, k) == ("C", 137) else angles)
    results = minimality_report("QC", "I", samples=150)["results"]
    assert results == {name: "unsound" if name in ("C", "I") else "sound"
                       for name in _witnessed("QC")}
    # a non-finite mapped angle raises what building its gate raises
    monkeypatch.undo()
    _route_angle_maps(monkeypatch, lambda name, params, angles, k:
                      (angles[0], (math.inf,) + angles[1][1:])
                      if name == "E" and k in (0, 37) else angles)
    with pytest.raises(InvalidCircuit) as built:
        resolve_rule("QC", "E", (0.1, 0.2, 0.3))             # the map's call 0
    with pytest.raises(InvalidCircuit) as checked:
        minimality_report("QC", "I", samples=150)            # its call 37
    assert str(checked.value) == str(built.value) == "non-finite angle in GPHASE"


#: rows whose weights land on and around a multiple of 2*pi
_EDGE_ANGLES = (0.0, TWO_PI, -TWO_PI, 1e-13, TWO_PI - 1e-13, PI, -PI / 2)


def test_batched_interp_k_equals_interp_k_exactly():
    # every side of every parametrised rule, in every theory, at three
    # widths of an n-ary rule; RX, MCP and MCRX slots go through a Gate
    # per row, GPHASE and P slots through numpy
    rng = np.random.default_rng(33)
    kinds, seen = set(), 0
    for theory in THEORIES:
        for name in dict.fromkeys([r.name for r in list_rules(theory)] + lemma_names()):
            n_params, arity, min_n = signature(name)
            if not n_params:
                continue
            for n in (arity,) if arity is not None else range(min_n, min_n + 3):
                rows = [tuple(r) for r in rng.uniform(-4 * PI, 4 * PI, (20, n_params)).tolist()]
                rows += [(a,) * n_params for a in _EDGE_ANGLES]
                shape, _, angles = theories._resolve(theory, name, rows[0], n, True)
                mapped = [angles(*row) for row in rows]
                for i, side in enumerate((shape.lhs, shape.rhs)):
                    if any(g.kind in ("INIT", "DEST") for g in side.gates):
                        continue
                    batch = np.array([m[i] for m in mapped], dtype=float).T
                    kinds |= {side.gates[j].kind for j in side._plan.angle_at}
                    for k in range(2, 13):
                        scalar = [interp_k(side.with_angles(m[i]), k) for m in mapped]
                        got = interp._interp_k(side, k, batch)
                        assert np.broadcast_to(got, len(rows)).tolist() == scalar, \
                            (theory, name, n, i, k)
                        seen += 1
    assert kinds == {"GPHASE", "P", "RX", "MCP", "MCRX"} and seen > 1000


def test_minimality_i_row_makes_one_request_and_one_weigh_per_side_per_chunk(monkeypatch):
    requests, weighs, built = [], [], []
    resolve, weigh, with_angles = theories._resolve, interp._interp_k, Circuit.with_angles
    monkeypatch.setattr(theories, "_resolve", lambda *a: requests.append(a[1]) or resolve(*a))
    monkeypatch.setattr(interp, "_interp_k",
                        lambda c, k, angles=None: weighs.append(angles) or weigh(c, k, angles))
    monkeypatch.setattr(Circuit, "with_angles",
                        lambda self, angles: built.append(self) or with_angles(self, angles))
    report = minimality_report("QC", "I", samples=150, target_n=4)
    chunks = {name: 1 if name == "I" or not signature(name).n_params
              else math.ceil(150 / theories._CHUNK) for name in report["results"]}
    assert sorted(requests) == sorted(name for name, c in chunks.items() for _ in range(c))
    assert len(weighs) == 2 * sum(chunks.values())
    # every draw is weighed, once per side
    draws = sum(1 if name == "I" or not signature(name).n_params else 150 for name in chunks)
    assert sum(1 if a is None else a.shape[1] for a in weighs) == 2 * draws
    assert built == []


def test_wide_minimality_reports_raise_bad_arity_and_never_warn():
    # (I) at 331 and 1023 wires unfolds deeper than the recursion limit,
    # after the earlier rules' weights have overflowed to inf at k = 1022;
    # at 1026 the first weight overflows a float
    for n, cause in ((331, "RecursionError"), (1023, "RecursionError"),
                     (1026, "OverflowError")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadArity, match=f"^interp_k at k={n - 1} is out of reach: {cause}$"):
                minimality_report("QC", "I", target_n=n)
