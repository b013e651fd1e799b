"""Rule application, sites, replay, and the 1-qubit decision procedures."""

import functools
import hashlib
import importlib
import itertools
import json
import math

import numpy as np
import pytest

from qc_equate import (Circuit, Derivation, NormalFormParams, Site, Step, apply_step,
                       canonicalize, circuit, cnot, ctrl, decide_equiv_1q,
                       deformation_equal, dest, equal_matrices, equal_up_to_phase,
                       eval_matrix, find_sites, gphase, h, init, nf_from_unitary,
                       normalize_1q, p, replay, reverse_derivation, rx, swap,
                       check_soundness, verify_theory, x, z)
from qc_equate.circuit import angles_equal
from qc_equate.errors import (ArityMismatch, BadArity, BadParams, DomainError,
                              IllegalSite, InvalidCircuit, NoMatch, QcError,
                              UnknownTheory, UnsupportedGate)
from qc_equate.euler import GENERIC, Z_ZERO, ZPRIME_ZERO, euler_e, euler_eprime
from qc_equate.rewrite import NF_MAX_ANGLE, concat_derivations, resolve_rule
from qc_equate.theories import DEFINITIONAL, _CATALOG, signature
from qc_equate.traces import all_traces, derive_equal

rewrite = importlib.import_module("qc_equate.rewrite")
circuit_module = importlib.import_module("qc_equate.circuit")
theories = importlib.import_module("qc_equate.theories")

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


def test_block_selected_out_of_rule_order_matches_canonically():
    # the block binds to the rule side in the wire DAG, not in the order
    # it was selected, so gates the rule lists in another
    # (deformation-equal) order still match
    a, b = 0.4, 1.1
    out = apply_step(circuit(0, [gphase(b), gphase(a)]),
                     Step("SPLUS", "LR", (a, b), None, Site((0, 1), ())))
    assert deformation_equal(out, circuit(0, [gphase(a + b)]))
    zzcx = Step("ZZCX", "LR", (), None, Site((0, 1, 2), (0, 1)))
    swapped = apply_step(circuit(2, [p(PI, 1), p(PI, 0), cnot(0, 1)]), zzcx)
    in_order = apply_step(circuit(2, [p(PI, 0), p(PI, 1), cnot(0, 1)]), zzcx)
    assert deformation_equal(swapped, in_order)
    # a block in rule order with one wrong angle does not bind
    with pytest.raises(NoMatch):
        apply_step(circuit(1, [p(0.3, 0), p(0.6, 0)]),
                   Step("PPLUS", "LR", (0.3, 0.5), None, Site((0, 1), (0,))))


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


HH = circuit(1, [h(0), h(0)])
CPC = circuit(2, [cnot(0, 1), p(0.7, 0), cnot(0, 1)])


def _h2(site, direction="LR"):
    return Step("H2", direction, (), None, site)


@pytest.mark.parametrize("run, error", [
    (lambda: apply_step(HH, _h2(Site((0, 1), (0,)), "UP")), NoMatch),
    (lambda: apply_step(HH, _h2(Site((0, 0), (0,)))), NoMatch),
    (lambda: apply_step(HH, _h2(Site((0, 2), (0,)))), NoMatch),
    (lambda: apply_step(HH, _h2(Site((), (0,), 3), "RL")), NoMatch),
    (lambda: apply_step(HH, _h2(Site((0, 1), (0, 1)))), NoMatch),
    (lambda: apply_step(CPC, Step("C", "LR", (0.7,), None, Site((0, 1, 2), (0, 0)))),
     NoMatch),
    (lambda: replay(Derivation("QC", HH, [_h2(Site((0, 1), (0,)))], circuit(1, [h(0)]))),
     NoMatch),
    (lambda: concat_derivations(Derivation("QC", HH, [], HH),
                                Derivation("QC", circuit(1, []), [], circuit(1, []))),
     NoMatch),
    (lambda: concat_derivations(Derivation("QC", HH, [], HH),
                                Derivation("QC", CPC, [], CPC)), ArityMismatch),
    (lambda: concat_derivations(Derivation("QC", HH, [], HH),
                                Derivation("QCprime", HH, [], HH)), UnknownTheory),
    (lambda: resolve_rule("QCnone", "H2", (), None, True), UnknownTheory),
], ids=["direction", "repeated-index", "index-out-of-range", "splice-out-of-range",
        "wire-map-length", "wire-map-not-injective", "replay-off-final",
        "concat-no-chain", "concat-arity", "concat-theories", "unknown-theory"])
def test_engine_rejections(run, error):
    with pytest.raises(error):
        run()


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
def test_a_bad_tol_is_refused(tol):
    # a nan or negative tol fails every comparison, so the safety net would
    # report an engine bug and soundness an unsound rule; an infinite one
    # passes every comparison.  Each entry point refuses it up front.
    rec = rewrite._Recorder("QC", circuit(1, [h(0), h(0)]))
    rec.do("H2", "LR", site=Site((0, 1), (0,)))
    d = rec.derivation()
    runs = [lambda: replay(d, tol=tol),
            lambda: apply_step(d.initial, d.steps[0], tol=tol),
            lambda: verify_theory("QC", samples=2, max_qubits=3, tol=tol),
            lambda: check_soundness(resolve_rule("QC", "H2"), tol=tol)]
    for run in runs:
        with pytest.raises(BadParams, match="^tol must be a finite number >= 0"):
            run()
    replay(d)   # the default tol is fine


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
def test_a_bad_tol_is_refused_by_the_public_predicates(tol):
    # an infinite tol finds I equal to X and H H equal to H, and a nan one
    # finds H H unequal to the empty circuit: each predicate refuses it
    eye, flip = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    nf = NormalFormParams(0.0, 0.0, 0.0, 0.0)
    runs = [lambda: equal_matrices(eye, flip, tol=tol),
            lambda: equal_up_to_phase(eye, flip, tol=tol),
            lambda: nf.close_to(NormalFormParams(1.0, 0.0, 0.0, 0.0), tol=tol),
            lambda: decide_equiv_1q(circuit(1, [h(0), h(0)]), circuit(1, [h(0)]), tol=tol)]
    for run in runs:
        with pytest.raises(BadParams, match="^tol must be a finite number >= 0"):
            run()


def test_apply_step_errors_carry_the_walks_step_prefix():
    # apply_step is a one-step walk, so its error reads as replay's does
    step = Step("H2", "LR", (), None, Site((0, 2), (0,)))
    with pytest.raises(NoMatch, match=r"^step 0 \(H2 LR\): "):
        apply_step(circuit(1, [h(0), h(0)]), step)


def test_qcugp_steps_cite_rules_without_global_phases():
    # (E) and (RXDEF) lose their GPHASE in QCugp, and the safety net
    # compares up to a global phase there
    c = circuit(1, [rx(0.3, 0), p(0.5, 0), rx(0.7, 0)])
    out = apply_step(c, Step("E", "LR", (0.3, 0.5, 0.7), None, Site((0, 1, 2), (0,))),
                     "QCugp", safety=True)
    assert [g.kind for g in out.gates] == ["P", "RX", "P"]
    out = apply_step(circuit(1, [rx(0.4, 0)]),
                     Step("RXDEF", "LR", (0.4,), None, Site((0,), (0,))), "QCugp")
    assert [g.kind for g in out.gates] == ["H", "P", "H"]


def test_site_fields_are_integers():
    # one integer check for every input: numpy ints pass as Gate wires do,
    # floats and bools raise InvalidCircuit (a QcError)
    site = Site.from_dict({"gates": [np.int64(0)], "wire_map": [np.int32(1)]})
    assert site == Site((0,), (1,)) and type(site.gates[0]) is int
    for bad in ({"gates": [0.5]}, {"wire_map": [True]}, {"at": 1.0}, {"gates": "ab"}):
        with pytest.raises(InvalidCircuit):
            Site.from_dict(bad)
    with pytest.raises(InvalidCircuit):
        Step.from_dict({"rule": "H2", "direction": "LR", "n": 1.0})


def _flip(step, site):
    return Step(step.rule, "RL" if step.direction == "LR" else "LR",
                step.params, step.n, site)


def _step_and_reverse_site(c, step, theory, safety=True):
    """``c`` after ``step``, read from a recorder's ``c``, and the reverse
    step's site that ``_Recorder.step`` returns; with ``safety`` the
    safety net checks the step."""
    rec = rewrite._Recorder(theory, c)
    site = rec.step(step)
    out = rec.c
    if safety:
        assert apply_step(c, step, theory) == out
    return out, site


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
        out, site = _step_and_reverse_site(c, step, "QCancilla")
        assert out.gates == gates
        back = apply_step(out, _flip(step, site), "QCancilla")
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
                out, site = _step_and_reverse_site(c, step, "QCancilla")
            except (NoMatch, IllegalSite):
                continue
            applied += 1
            back = apply_step(out, _flip(step, site), "QCancilla")
            assert deformation_equal(back, c), step
    assert applied >= 100


def test_a_fresh_wire_takes_an_id_no_other_wire_has():
    # (A) opens a wire on a circuit whose inputs no gate touches; (ACX)
    # then puts a CNOT from it onto input 0, which needs two distinct ids
    rec = rewrite._Recorder("QCancilla", circuit(2, []))
    rec.step(Step("A", "RL", (), None, Site((), (), 0)))
    rec.step(Step("ACX", "RL", (), None, Site((0,), (0,))))
    assert rec.c == Circuit(2, 2, (init(0), cnot(0, 1), dest(0)))
    # two fresh INITs of one target side get two ids
    two = Circuit(0, 0, (init(0), init(1), cnot(0, 1), dest(1), dest(0)))
    gates, _ = rewrite._apply([], 0, (Circuit(0, 0, ()), None), (two, None), Site())
    assert Circuit(0, 0, tuple(circuit_module._place([], gates))) == two


@pytest.mark.parametrize("rule, params, c, built", [
    ("C", (0.3,), circuit(2, [cnot(0, 1), p(0.3, 0), cnot(0, 1)]), 1),
    ("PPLUS", (0.3, 0.4), circuit(1, [p(0.3, 0), p(0.4, 0)]), 1),
    ("E", (0.3, 0.4, 0.5), circuit(1, [rx(0.3, 0), p(0.4, 0), rx(0.5, 0)]), 4),
])
def test_a_step_builds_only_its_target_angle_gates(rule, params, c, built, monkeypatch):
    # the source side is matched against the rule's shape and angles, so
    # the only gates a step constructs are the target side's angle gates
    step = Step(rule, "LR", params, None, Site(tuple(range(len(c.gates))), tuple(range(c.n_in))))
    rewrite._Recorder("QC", c).step(step)   # the rule's shape is built once, here
    rec, seen = rewrite._Recorder("QC", c), []
    real = circuit_module.Gate.__post_init__
    monkeypatch.setattr(circuit_module.Gate, "__post_init__",
                        lambda g: seen.append(g.kind) or real(g))
    rec.step(step)
    assert len(seen) == built, seen


def test_reverse_site_is_the_step_wire_map():
    # the replacement assembles in the frame the step resolved its wire map
    # in, and the flipped step fired there restores the step's input
    for d in all_traces():
        c = d.initial
        for step in d.steps:
            out, site = _step_and_reverse_site(c, step, d.theory, safety=False)
            assert site.wire_map == step.site.wire_map
            back = apply_step(out, _flip(step, site), d.theory,
                              allow_lemmas=True, safety=True)
            assert deformation_equal(back, c)
            c = out


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


def _clear_request_caches():
    for cached in (theories._shape, theories._fitted, theories._kind):
        cached.cache_clear()


def _raised(run) -> tuple[type, str]:
    with pytest.raises(QcError) as info:
        run()
    return info.type, str(info.value)


def test_checked_lookups_never_serve_an_unchecked_request():
    # each bad request fails as on cold caches, after a valid request of
    # equal values (1 == 1.0 == True, one param) that fills them
    c = circuit(2, [cnot(0, 1), p(0.7, 0), cnot(0, 1)])
    site = Site((0, 1, 2), (0, 1))
    c_step = lambda params: apply_step(c, Step("C", "LR", params, None, site))
    cases = [(lambda: resolve_rule("QC", "H2", (), 1), lambda: resolve_rule("QC", "H2", (), 1.0))]
    cases += [(lambda: c_step((0.7,)), lambda bad=bad: c_step(bad))
              for bad in (("7",), (True,), (math.inf,))]
    cases += [(lambda: resolve_rule("QC", "MCPDEF", (0.3,), 1),
               lambda n=n: resolve_rule("QC", "MCPDEF", (0.3,), n)) for n in (True, 1.0)]
    for warm, bad in cases:
        _clear_request_caches()
        cold = _raised(bad)
        warm()
        assert _raised(bad) == cold
    # numpy reals are checked and read as the floats they are
    for _ in range(2):
        assert c_step((np.float64(0.7),)) == c_step((0.7,))
        assert (resolve_rule("QC", "E", tuple(np.float64([0.1, 0.2, 0.3])))
                == resolve_rule("QC", "E", (0.1, 0.2, 0.3)))


def test_each_rule_side_is_compiled_once(monkeypatch):
    # a rule side is compiled the first time a step reads it, once per
    # theory, rule and width, and a second run compiles nothing
    _clear_request_caches()
    built, compile_ = [], Circuit._plan.func
    monkeypatch.setattr(Circuit._plan, "func", lambda c: built.append(c) or compile_(c))
    rng = np.random.default_rng(30)
    inputs = [rand_1q(rng, int(rng.integers(0, 14))) for _ in range(30)]
    for run in range(2):
        cited = set()
        for theory in ("QC", "QCprime"):
            for c in inputs:
                _, deriv = normalize_1q(c, emit_trace=True, theory=theory)
                cited |= {(theory, s.rule, signature(s.rule).arity if s.n is None else s.n)
                          for s in deriv.steps}
        if run == 0:
            sides = {id(side) for triple in cited for shape, _ in [theories._shape(*triple)]
                     for side in (shape.lhs, shape.rhs)}
            assert built and len({id(c) for c in built}) == len(built)
            assert {id(c) for c in built} <= sides
            built.clear()
    assert built == []


def test_find_sites():
    c = circuit(1, [h(0), h(0), h(0)])
    sites = find_sites(c, "H2", direction="LR")
    assert [s.gates for s in sites] == [(0, 1), (1, 2)]
    c2 = circuit(2, [cnot(0, 1), p(0.4, 0), cnot(0, 1)])
    sites = find_sites(c2, "C", (0.4,), direction="LR")
    assert len(sites) == 1
    # the wire map is read where the block assembles: behind the INIT,
    # which floats out of the window in front of it
    c3 = Circuit(1, 2, (gphase(-0.4), init(0), h(1), p(0.8, 1), h(1)))
    assert find_sites(c3, "RXDEF", (0.8,), None, "RL", "QC") == [Site((0, 2, 3, 4), (1,))]


def test_find_sites_follows_wires_not_windows():
    # the two H's on wire 0 are not adjacent in the gate list
    c = circuit(2, [h(0), p(0.3, 1), h(1), h(0)])
    assert [(s.gates, s.wire_map) for s in find_sites(c, "H2")] == [((0, 3), (0,))]
    # an interleaved gate on the block's wire keeps it from matching
    assert find_sites(circuit(1, [h(0), p(0.3, 0), h(0)]), "H2") == []


def test_find_sites_binds_swap_either_way_round():
    # SWAP sorts its wires, so rule wire 0 may sit on either of them
    assert find_sites(circuit(2, [p(0.8, 1), swap(0, 1)]), "SWAPP", (0.8,)) == \
        [Site((0, 1), (1, 0))]
    assert find_sites(circuit(2, [cnot(1, 0), swap(0, 1)]), "SWAPCX") == [Site((0, 1), (1, 0))]


def test_find_sites_ranges_an_untouched_input_over_open_wires():
    # ACX's right side is a lone INIT: its input wire is touched by no gate
    c = Circuit(1, 1, (h(0), init(0), dest(0), h(0)))
    assert find_sites(c, "ACX", direction="RL", theory="QCancilla") == [Site((1,), (0,))]


#: QC rules and lemmas whose sides hold no GPHASE, which the matcher binds
#: to the first equal one by design
_ORACLE_RULES = ("H2", "P0", "C", "B", "CZ", "CNOT2", "PCOMMUTCNOT", "PGADGET",
                 "HHCNOTHH", "BPRIME", "SWAP2", "SWAPP", "SWAPCX", "ZZCX", "PPLUS")


def _oracle_circuit(rng, src: Circuit) -> Circuit:
    """1-3 wires and 2-7 gates over H, P(0), CNOT and SWAP, with ``src``'s
    gates planted in on random wires most of the time."""
    plant = rng.random() < 0.7
    n = int(rng.integers(max(src.n_in, 1) if plant else 1, 4))
    planted = []
    if plant:
        m = rng.permutation(n)[:src.n_in]
        planted = [g.with_wires(tuple(int(m[w]) for w in g.wires)) for g in src.gates]
    gates = []
    for _ in range(rng.integers(max(0, 2 - len(planted)), 8 - len(planted))):
        w = [int(v) for v in rng.permutation(n)]
        k = rng.integers(0, 4 if n > 1 else 2)
        gates.append(h(w[0]) if k == 0 else p(0.0, w[0]) if k == 1
                     else cnot(w[0], w[1]) if k == 2 else swap(w[0], w[1]))
    at = int(rng.integers(0, len(gates) + 1))
    return circuit(n, gates[:at] + planted + gates[at:])


def _deformation_equal_block(c: Circuit, src: Circuit, sel, wm) -> bool:
    """The reference for a site: the block ``sel`` commutes into one, and
    relabelled onto the rule's wires through the wire map ``wm`` (read
    where it assembles) and placed, it has the canonical gate list of
    ``src``, a side without INIT/DEST."""
    gates = circuit_module._id_gates(c)
    try:
        frame = rewrite._assembly(gates, c.n_in, sel, sel[0])[2]
    except IllegalSite:
        return False
    label = {frame[pos]: lab for lab, pos in enumerate(wm)}
    block = [gates[i] for i in sel]
    if any(wid not in label for _, ids in block for wid in ids):
        return False
    placed = circuit_module._place(list(range(src.n_in)),
                                   [(g, tuple(label[w] for w in ids)) for g, ids in block])
    return (canonicalize(Circuit(src.n_in, src.n_out, tuple(placed))).gates
            == canonicalize(src).gates)


def test_find_sites_lists_every_site_apply_step_accepts():
    # every gate subset of the source side's size under every injective
    # wire map: find_sites lists, apply_step accepts, and the reference
    # (the block relabelled and compared in canonical order) accepts the same
    rng = np.random.default_rng(2024)
    cases = 0
    for rule in _ORACLE_RULES:
        params = (0.0,) * signature(rule).n_params
        inst = resolve_rule("QC", rule, params, None, True)
        for direction, src in (("LR", inst.lhs), ("RL", inst.rhs)):
            assert not any(g.kind == "GPHASE" for g in src.gates), rule
            if not src.gates:
                continue
            for _ in range(6):
                c = _oracle_circuit(rng, src)
                accepted, reference = set(), set()
                for sel in itertools.combinations(range(len(c.gates)), len(src.gates)):
                    for wm in itertools.permutations(range(c.n_in), src.n_in):
                        if _deformation_equal_block(c, src, sel, wm):
                            reference.add((sel, wm))
                        try:
                            apply_step(c, Step(rule, direction, params, None, Site(sel, wm)),
                                       "QC", safety=False)
                        except QcError:
                            continue
                        accepted.add((sel, wm))
                found = {(s.gates, s.wire_map)
                         for s in find_sites(c, rule, params, None, direction, "QC")}
                assert found == accepted == reference, (rule, direction, c)
                cases += 1
    assert cases == 156


def test_find_sites_lists_every_ancilla_site_apply_step_accepts():
    # the QCancilla rules whose sides open a wire: find_sites lists exactly
    # the (gates, wire map) pairs apply_step accepts, the INIT/DEST chain
    # bound as one more label
    rng = np.random.default_rng(20261019)
    cases = sites = 0
    for _ in range(150):
        c = _rand_ancilla_circuit(rng)
        angles = [g.params[0] for g in c.gates if g.kind == "P"]
        a = angles[int(rng.integers(len(angles)))] if angles else 0.3   # AP's angle
        for rule, params in (("A", ()), ("AP", (a,)), ("ACX", ())):
            inst = resolve_rule("QCancilla", rule, params)
            for direction, src in (("LR", inst.lhs), ("RL", inst.rhs)):
                if not src.gates:
                    continue
                accepted = set()
                for sel in itertools.combinations(range(len(c.gates)), len(src.gates)):
                    for wm in itertools.permutations(range(c.threading.widest), src.n_in):
                        try:
                            apply_step(c, Step(rule, direction, params, None, Site(sel, wm)),
                                       "QCancilla", safety=False)
                        except QcError:
                            continue
                        accepted.add((sel, wm))
                found = {(s.gates, s.wire_map) for s in
                         find_sites(c, rule, params, None, direction, "QCancilla")}
                assert found == accepted, (rule, direction, c)
                cases += 1
                sites += len(found)
    assert (cases, sites) == (750, 425)


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


def test_normalize_traces_and_reversals_are_pinned():
    # the exact normalizer traces of a seeded corpus and their reversals,
    # hashed: a change to which sites the engine picks or carries shows
    # here even when every trace still replays
    rng = np.random.default_rng(29)
    digest = hashlib.sha256()
    for _ in range(50):
        c = rand_1q(rng, int(rng.integers(0, 13)))
        for theory in ("QC", "QCprime"):
            _, d = normalize_1q(c, emit_trace=True, theory=theory)
            pair = [d.to_dict(), reverse_derivation(d).to_dict()]
            digest.update(json.dumps(pair, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == (
        "fa75b99a5c234a42a594ca6552e7b6aec20a26d865734279e1a0ee981b4ae6b8")


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
    _assert_euler_cases("QCprime", fixed)


def test_normalize_qc_reaches_every_euler_case():
    # reaches (E) at Z_ZERO: RX(a) P(pi) RX(c) with a - c = pi mod 2pi
    _assert_euler_cases("QC", [circuit(1, [z(0), p(3 * PI / 2, 0), rx(-9 * PI / 4, 0),
                                           z(0), rx(3 * PI / 4, 0), z(0)])])


def _assert_euler_cases(theory, fixed):
    """The fixed circuits and angles on the pi/4 grid normalize correctly,
    replay, and reach every case of the theory's Euler rule."""
    rule, euler = {"QC": ("E", euler_e), "QCprime": ("EPRIME", euler_eprime)}[theory]
    rng = np.random.default_rng(22)
    grid = [rand_1q(rng, int(rng.integers(0, 17)), grid=True) for _ in range(150)]
    cases = set()
    for c in fixed + grid:
        params, deriv = normalize_1q(c, emit_trace=True, theory=theory)
        assert params.close_to(nf_from_unitary(eval_matrix(c)), 1e-8)
        out = replay(deriv, allow_lemmas=True, safety=True, tol=1e-9)
        assert deformation_equal(out, deriv.final)
        cases |= {euler(*s.params)[1].tag for s in deriv.steps if s.rule == rule}
    assert cases == {GENERIC, Z_ZERO, ZPRIME_ZERO}


def _assert_cites_only(theory, allowed):
    rng = np.random.default_rng(23)
    for _ in range(60):
        c = rand_1q(rng, int(rng.integers(0, 17)))
        _, deriv = normalize_1q(c, emit_trace=True, theory=theory)
        assert {s.rule for s in deriv.steps} <= allowed


def test_qcprime_normalizer_cites_only_qcprime_rules():
    """QCprime traces rest on QCprime's axioms, the macro definitions and the
    two band-reduction lemmas: never on (EH) or (E) or lemmas derived from
    them."""
    _assert_cites_only("QCprime", set(_CATALOG["QCprime"]) | set(DEFINITIONAL)
                       | {"RXNEG", "RXFLIP"})


def test_qc_normalizer_cites_only_qc_rules():
    """QC traces rest on QC's axioms, the macro definitions, (P+) and the two
    band-reduction lemmas: never on a rotation lemma such as RX RX = RX."""
    _assert_cites_only("QC", set(_CATALOG["QC"]) | set(DEFINITIONAL)
                       | {"PPLUS", "RXNEG", "RXFLIP"})


@functools.cache
def _normalized(theory):
    """(circuit, normal form, trace) for 100 random and 60 pi/4-grid circuits."""
    rng = np.random.default_rng(3)
    cs = [rand_1q(rng, int(rng.integers(0, 17))) for _ in range(100)]
    cs += [rand_1q(rng, int(rng.integers(0, 17)), grid=True) for _ in range(60)]
    return [(c, *normalize_1q(c, emit_trace=True, theory=theory)) for c in cs]


@pytest.mark.parametrize("theory", ["QC", "QCprime"])
def test_normalizer_matches_global_phases_exactly(theory):
    """Every GPHASE a step selects carries the rule side's angle itself, not
    one that only agrees modulo 2pi."""
    for _, _, deriv in _normalized(theory):
        c = deriv.initial
        for step in deriv.steps:
            inst = resolve_rule(theory, step.rule, step.params, step.n, True)
            src = inst.lhs if step.direction == "LR" else inst.rhs
            got = sorted(c.gates[i].params[0] for i in step.site.gates
                         if c.gates[i].kind == "GPHASE")
            want = sorted(g.params[0] for g in src.gates if g.kind == "GPHASE")
            assert len(got) == len(want), step
            assert all(abs(a - b) <= 1e-9 for a, b in zip(got, want)), step
            c = apply_step(c, step, theory, safety=False)


@pytest.mark.parametrize("theory", ["QC", "QCprime"])
def test_normalizer_mints_one_global_phase_first(theory):
    """(S2PI) runs at most once, as the first step, when the input does not
    end on a GPHASE."""
    for c, _, deriv in _normalized(theory):
        at = [i for i, s in enumerate(deriv.steps) if s.rule == "S2PI"]
        assert at == ([] if c.gates and c.gates[-1].kind == "GPHASE" else [0])


@pytest.mark.parametrize("theory", ["QC", "QCprime"])
def test_normalizer_ends_on_the_normal_form(theory):
    """A trace ends on ``params.circuit()`` unless b2 is pi, where the
    packed normal form moves b3 into b0 and b1 and no step does."""
    for _, params, deriv in _normalized(theory):
        if not math.isclose(params.beta2, PI, abs_tol=1e-9):
            assert deformation_equal(deriv.final, params.circuit()), params


def test_id_level_steps_equal_circuit_steps(monkeypatch):
    """A recorder, whose working ids carry over from step to step, gives,
    step by step and gate for gate, what a one-step ``apply_step`` gives on
    its circuit ``c``, and its replacement lands where a recorder started on
    that circuit says; folding ``apply_step`` over a recorded trace ends on
    its final."""
    do = rewrite._Recorder.do

    def checked(self, *args, **kw):
        before = self.c
        site = do(self, *args, **kw)
        step = self.steps[-1]
        assert apply_step(before, step, self.theory, safety=False) == self.c
        assert rewrite._Recorder(self.theory, before).step(step) == site
        return site

    monkeypatch.setattr(rewrite._Recorder, "do", checked)
    derivs = [normalize_1q(c, emit_trace=True, theory=theory)[1]
              for theory in ("QC", "QCprime") for c, _, _ in _normalized(theory)]
    off = set()
    for d in derivs + all_traces():
        c = d.initial
        for step in d.steps:
            c = apply_step(c, step, d.theory, safety=False)
        if c != d.final:
            assert deformation_equal(c, d.final), d.name
            off.add(d.name)
    # derive_rule glues on a reversed trace, which declares the forward
    # trace's start as its end and reaches it only up to deformation
    assert off <= {"qcprime_pminus", "qcprime_euler"}


@pytest.mark.parametrize("theory", ["QC", "QCprime"])
def test_normalizer_takes_the_fast_paths(theory, monkeypatch):
    """A run builds one ``Circuit`` from its working gates, for the trace,
    and threads only that one: every rule instance it cites is substituted
    into a shape built before."""
    cases = _normalized(theory)
    built, threaded = [], []
    make, thread = rewrite.Circuit, circuit_module.thread
    monkeypatch.setattr(rewrite, "Circuit", lambda *a: built.append(a) or make(*a))
    monkeypatch.setattr(circuit_module, "thread", lambda c: threaded.append(c) or thread(c))
    for c, params, deriv in cases:
        built.clear()
        threaded.clear()
        again, d = normalize_1q(c, emit_trace=True, theory=theory)
        assert len(built) == 1 and again == params and d.steps == deriv.steps
        assert threaded == [d.final]


def _find_word_reference(kinds, word, pred=None):
    """``_Normalizer.find_word`` as a slice compare over the whole kind list."""
    m = len(word)
    return next((j for j, k in enumerate(kinds[:len(kinds) - m]) if k == word[0]
                 and kinds[j:j + m] == word and (pred is None or pred(j))), None)


def test_find_word_agrees_with_the_slice_reference():
    rng = np.random.default_rng(36)
    words = (["GPHASE"], ["P", "P"], ["H", "H"], ["RX"])
    found, zeros = 0, 0
    for i in range(1200):
        c = rand_1q(rng, int(rng.integers(0, 25)), grid=i % 2 == 0)
        nz = rewrite._Normalizer("QC", c)
        kinds = [g.kind for g in c.gates]
        for word in words:
            got = nz.find_word(word)
            assert got == _find_word_reference(kinds, word), (c, word)
            found += got is not None
        p0 = lambda j: angles_equal(nz.angle(j), 0.0)   # noqa: E731
        got = nz.find_word(["P"], p0)
        assert got == _find_word_reference(kinds, ["P"], p0), c
        zeros += got is not None
    assert found > 2000 and zeros > 100


@pytest.mark.xfail(raises=NoMatch, strict=True,
                   reason="at b2 = pi the two traces end on P(0) RX(pi) P(0.5) "
                          "and P(-0.5) RX(pi) P(0): no step derives "
                          "RX(pi) P(phi) = G(phi) P(-phi) RX(pi)")
@pytest.mark.parametrize("theory", ["QC", "QCprime"])
def test_derive_equal_at_rx_pi(theory):
    derive_equal(circuit(1, [x(0), p(0.5, 0)]),
                 circuit(1, [gphase(0.5), p(-0.5, 0), x(0)]), theory, "t")


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


@pytest.mark.parametrize("theory", ["QC", "QCprime"])
def test_normalize_rejects_angles_beyond_the_bound(theory):
    # RX(1e308) H RX(-1e308): (S+)/(P+) sums absorbed the small angle, so
    # QC answered beta0 0.2812 where the matrix route gives pi
    for c in (circuit(1, [rx(1e308, 0), h(0), rx(-1e308, 0)]),
              circuit(1, [h(0), p(0.3, 0), gphase(-1.5 * NF_MAX_ANGLE)]),
              circuit(1, [rx(0.2, 0), x(0), rx(np.nextafter(NF_MAX_ANGLE, np.inf), 0)])):
        with pytest.raises(DomainError, match="within"):
            normalize_1q(c, theory=theory)
    big = circuit(1, [p(1e10, 0), h(0)])
    with pytest.raises(DomainError):
        derive_equal(big, circuit(1, [p(1e10 + 0.1, 0), h(0)]), theory, "big")
    with pytest.raises(DomainError):
        decide_equiv_1q(big, big)


@pytest.mark.parametrize("theory", ["QC", "QCprime"])
def test_normalize_is_right_up_to_the_bound(theory):
    # a seeded sample of circuits with one angle of magnitude in
    # [bound/2, bound], the bound itself included, against the matrix route
    rng = np.random.default_rng(1019)
    for i in range(60):
        c = rand_1q(rng, int(rng.integers(1, 12)))
        angled = [j for j, g in enumerate(c.gates) if g.params]
        if not angled:
            continue
        mag = NF_MAX_ANGLE if i == 0 else rng.uniform(0.5, 1.0) * NF_MAX_ANGLE
        j = angled[int(rng.integers(len(angled)))]
        angles = [g.params[0] for g in c.gates if g.params]
        angles[angled.index(j)] = float(rng.choice([-1.0, 1.0]) * mag)
        c = c.with_angles(angles)
        got, _ = normalize_1q(c, theory=theory)
        assert got.close_to(nf_from_unitary(eval_matrix(c)), 1e-8), c


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
