"""The shipped derivation set: replay, JSON round trips, reversibility."""

import dataclasses
import hashlib
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qc_equate import (Circuit, Derivation, Gate, RuleId, apply_step, canonicalize,
                       circuit, deformation_equal, eval_matrix, find_sites, gphase, h,
                       mcp, normalize_1q, p, replay, resolve_rule,
                       reverse_derivation, rx, x, z)
from qc_equate import rewrite, traces as tr
from qc_equate.circuit import angle_period
from qc_equate.errors import NoMatch, QcError, SemanticDrift
from qc_equate.rewrite import Site

PI = math.pi
TRACE_DIR = Path(__file__).resolve().parent.parent / "traces"


def test_every_shipped_trace_replays_with_safety_net():
    counts = tr.replay_all(tol=1e-9)
    expected = {
        "qc_p2pi", "qc_pplus", "qc_pminus", "qc_s0", "qc_cnot2",
        "qc_pcommutcnot", "qc_bprime", "qc_pgadget", "qc_hhcnothh",
        "qc_ctrlpminuspi", "qc_5cx", "qcprime_eh", "qcprime_p2pi",
        "qcprime_pminus", "qcprime_rxminus", "qcprime_euler",
        "qcancilla_p0", "qcancilla_splus", "qcancilla_i3",
    }
    assert set(counts) == expected
    assert all(v >= 1 for v in counts.values())


def test_trace_endpoints():
    d = tr.derive_rule("QC", "P2PI", name="qc_p2pi")
    assert [g.kind for g in d.initial.gates] == ["P"]
    assert len(d.final.gates) == 0

    d = tr.qc_pplus(0.3, 0.4)
    assert deformation_equal(d.final, circuit(1, [p(0.7, 0)]))

    d = tr.qcancilla_splus(1.0, 0.5)
    assert deformation_equal(d.final, circuit(0, [gphase(1.5)]))

    d = tr.qcancilla_i3()
    assert d.initial.gates[0].kind == "MCP"
    assert len(d.final.gates) == 0


def test_traces_preserve_semantics_per_step():
    d = tr.qc_pminus(1.2)
    c = d.initial
    ref = eval_matrix(c)
    for step in d.steps:
        c = apply_step(c, step, d.theory, allow_lemmas=True, safety=False)
        assert np.max(np.abs(eval_matrix(c) - ref)) < 1e-9


def test_parametric_traces_on_other_angles():
    for a, b in [(0.1, 0.2), (2.0, 5.0), (PI / 2, PI / 2), (3.0, -1.0)]:
        replay(tr.qc_pplus(a, b), allow_lemmas=True, safety=True)
        replay(tr.qcancilla_splus(a, b), allow_lemmas=True, safety=True)
    for phi in (0.4, 2.5, -1.1):
        replay(tr.qc_pminus(phi), allow_lemmas=True, safety=True)
        replay(tr.derive_rule("QCprime", "PMINUS", (phi,)), allow_lemmas=True, safety=True)
    for abc in [(0.5, 1.5, 2.5), (-1.0, 0.3, 4.0)]:
        replay(tr.derive_rule("QCprime", "E", abc), allow_lemmas=True, safety=True)


def test_frozen_traces_equal_all_traces():
    shipped = {d.name: d for d in tr.all_traces()}
    frozen = {path.stem: path for path in TRACE_DIR.glob("*.json")}
    assert set(frozen) == set(shipped)
    stale = [name for name, path in sorted(frozen.items()) if json.loads(path.read_text())
             != json.loads(json.dumps(shipped[name].to_dict()))]
    assert not stale, (f"frozen traces differ from all_traces(): {stale}; regenerate "
                       "them with PYTHONPATH=src python -c \"from qc_equate.traces "
                       "import write_traces; write_traces('traces')\"")


def test_json_round_trip_replays(tmp_path):
    paths = tr.write_traces(str(tmp_path))
    assert len(paths) == 19
    for path in paths:
        with open(path) as fh:
            d = Derivation.from_dict(json.load(fh))
        replay(d, allow_lemmas=True, safety=True, tol=1e-9)


def test_axiom_only_traces_replay_in_strict_mode():
    # a trace whose steps cite no lemma (only the theory's axioms and the
    # macro definitions) replays without allow_lemmas
    strict = [d for d in tr.all_traces()
              if all(RuleId(d.theory, s.rule).kind != "lemma" for s in d.steps)]
    assert {d.name for d in strict} == {
        "qc_p2pi", "qc_pplus", "qc_pminus", "qc_s0", "qc_cnot2", "qc_bprime",
        "qcancilla_splus", "qcprime_eh", "qcprime_p2pi", "qcprime_pminus",
        "qcprime_euler"}
    for d in strict:
        replay(d, allow_lemmas=False, safety=True, tol=1e-9)


def test_reverse_of_shipped_trace():
    for d in tr.all_traces():
        if d.name == "qcancilla_p0":
            # ACX RL attached its CNOT to the system wire at the INIT's linear
            # position; the reversed run reaches a deformation-equal circuit
            # where P(-pi/2) on that wire already precedes the INIT, so no
            # site of the reversed ACX step lands on the recorded circuit
            with pytest.raises(NoMatch):
                reverse_derivation(d)
            continue
        rd = reverse_derivation(d)
        out = replay(rd, allow_lemmas=True, safety=True)
        assert deformation_equal(out, d.initial), d.name


def test_reversals_of_frozen_traces_are_pinned():
    # reversal's exact output on the frozen traces, hashed: a change to how
    # a site is carried shows here even when every reversal still replays
    digest, reversed_ = hashlib.sha256(), 0
    for d in _frozen():
        if d.name == "qcancilla_p0":
            with pytest.raises(NoMatch) as exc:
                reverse_derivation(d)
            assert str(exc.value) == ("step 5 (ACX LR) does not reverse: "
                                      "it lands off the recorded circuit")
            continue
        digest.update(json.dumps(reverse_derivation(d).to_dict(), sort_keys=True).encode() + b"\n")
        reversed_ += 1
    assert reversed_ == 18
    assert digest.hexdigest() == (
        "6c616f5bc09afbb468ae0d742ba2d7bebef0d89dbc3a30225d362b1f0fb3934b")


def test_reverse_carries_sites_without_a_scan(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("reverse_derivation scanned for a site")

    monkeypatch.setattr(rewrite, "_matches", no_scan)
    for d in (tr.derive_rule("QCprime", "E", (0.9, 1.7, -0.6)),
              tr.derive_rule("QCprime", "PMINUS", (1.3,))):
        out = replay(reverse_derivation(d), allow_lemmas=True, safety=True)
        assert deformation_equal(out, d.initial)


def test_reverse_names_the_step_its_forward_pass_fails_at():
    # the forward pass of a reversal reports a bad step as replay does
    d = tr.qc_cnot2()
    d.steps[1] = dataclasses.replace(d.steps[1], site=Site((7,), (0, 1)))
    want = r"^step 1 \(C LR\): site gate indices out of range or repeated$"
    with pytest.raises(NoMatch, match=want):
        replay(d, allow_lemmas=True)
    with pytest.raises(NoMatch, match=want):
        reverse_derivation(d)


def _frozen() -> list[Derivation]:
    return [Derivation.from_dict(json.loads(path.read_text()))
            for path in sorted(TRACE_DIR.glob("*.json"))]


def _shifted(c: Circuit, j: int, by: float) -> Circuit:
    """``c`` with the angle of gate ``j`` moved by ``by``."""
    g = c.gates[j]
    return Circuit(c.n_in, c.n_out, c.gates[:j] + (Gate(g.kind, g.wires, (g.params[0] + by,)),)
                   + c.gates[j + 1:])


def test_a_step_matches_angles_as_same_gate_does():
    # a selected angle moved by its period is the same gate, so the step
    # lands where it did; moved by 1e-6 or half its period it is not, and
    # the step has no match
    rec = rewrite._Recorder("QCugp", circuit(1, [rx(0.3, 0), p(0.4, 0), rx(0.5, 0)]))
    back = rec.do("E", "LR", (0.3, 0.4, 0.5), site=Site((0, 1, 2), (0,)))
    rec.do("E", "RL", (0.3, 0.4, 0.5), site=back)   # QCugp: the kept angles
    checked = 0
    for d in _frozen() + [rec.derivation("qcugp_e")]:
        c = d.initial
        for step in d.steps:
            out = apply_step(c, step, d.theory, safety=False)
            j = next((j for j in step.site.gates if c.gates[j].params), None)
            if j is not None:
                period = angle_period(c.gates[j].kind)
                assert apply_step(_shifted(c, j, period), step, d.theory, safety=False) == out
                for by in (1e-6, period / 2):
                    with pytest.raises(NoMatch):
                        apply_step(_shifted(c, j, by), step, d.theory, safety=False)
                checked += 1
            c = out
    assert checked >= 150, checked


def _count_evals(monkeypatch) -> list:
    """Record each circuit the safety net evaluates, in call order: every
    evaluation, from the identity or run on from a kept state, is one
    ``_resumed`` call."""
    seen, real = [], rewrite._resumed

    def counted(c, *args):
        seen.append(c)
        return real(c, *args)

    monkeypatch.setattr(rewrite, "_resumed", counted)
    return seen


def test_replay_evaluates_each_circuit_once(monkeypatch):
    seen = _count_evals(monkeypatch)
    for d in _frozen():
        seen.clear()
        replay(d, allow_lemmas=True, safety=True)
        assert len(seen) == len(d.steps) + 1, d.name


@pytest.mark.parametrize("k", [0, 1, 3])
def test_safety_net_fires_at_the_corrupted_step(k, monkeypatch):
    # every step of this trace splices in a P of nonzero angle; dropping
    # it at step k changes the semantics there and nowhere before
    d = Derivation.from_dict(json.loads((TRACE_DIR / "qc_ctrlpminuspi.json").read_text()))
    assert k < len(d.steps) == 4
    calls, real = [], rewrite._build_replacement

    def corrupted(*args):
        repl = real(*args)
        calls.append(None)
        if len(calls) == k + 1:
            drop = next(i for i, (g, _) in enumerate(repl) if g.kind == "P")
            repl = repl[:drop] + repl[drop + 1:]
        return repl

    monkeypatch.setattr(rewrite, "_build_replacement", corrupted)
    with pytest.raises(SemanticDrift, match=fr"^step {k} \("):
        replay(d, allow_lemmas=True, safety=True)


def _rand_1q(rng, m: int) -> Circuit:
    kinds = [lambda a: h(0), lambda a: p(a, 0), lambda a: rx(a, 0), gphase,
             lambda a: x(0), lambda a: z(0)]
    return circuit(1, [kinds[rng.integers(0, len(kinds))](float(rng.uniform(-7, 7)))
                       for _ in range(m)])


def test_replay_without_the_safety_net_ends_where_a_checked_replay_does(monkeypatch):
    # replay(safety=False), which the benchmark's normalizer check runs on
    # every op, builds only the circuit it returns: the gates a checked
    # replay ends on, deformation-equal to the declared final, with no
    # evaluation on the way
    rng = np.random.default_rng(39)
    runs = _frozen() + [normalize_1q(_rand_1q(rng, int(rng.integers(1, 13))), emit_trace=True,
                                     theory=("QC", "QCprime")[k % 2])[1] for k in range(20)]
    assert len(runs) == 39 and all(d.steps for d in runs)
    checked = [replay(d, allow_lemmas=True, safety=True) for d in runs]
    seen = _count_evals(monkeypatch)
    for d, want in zip(runs, checked):
        got = replay(d, allow_lemmas=True, safety=False)
        assert got.gates == want.gates and deformation_equal(got, d.final), d.name
    assert seen == []


def test_resumed_safety_net_compares_eval_matrix_bytes(monkeypatch):
    # a check runs a step's circuit on from the state the last one kept
    # where the step's block begins; every matrix it compares is still
    # eval_matrix's, byte for byte, over the frozen traces (INIT/DEST in
    # qcancilla_*, SWAP in qc_pgadget), their reversals and seeded
    # normalizer traces
    real, resumed_over, resumed_in = rewrite._resumed, set(), set()

    def checked(c, state, at, keep):
        m, kept = real(c, state, at, keep)
        want = eval_matrix(c)
        assert m.shape == want.shape and m.dtype == want.dtype
        assert m.tobytes() == want.tobytes(), c.to_json()
        if state is not None:
            resumed_over.update(g.kind for g in c.gates[:at])
            resumed_in.update(g.kind for g in c.gates)
        return m, kept

    monkeypatch.setattr(rewrite, "_resumed", checked)
    runs = _frozen()
    runs += [reverse_derivation(d) for d in runs if d.name != "qcancilla_p0"]
    assert len(runs) == 19 + 18
    rng = np.random.default_rng(37)
    for k in range(50):
        theory = ("QC", "QCprime")[k % 2]
        runs.append(normalize_1q(_rand_1q(rng, int(rng.integers(0, 13))), emit_trace=True,
                                 theory=theory)[1])
    for d in runs:
        replay(d, allow_lemmas=True, safety=True)
    # states kept past an INIT (one wire more) and a SWAP (axes swapped),
    # and run on through a DEST
    assert {"INIT", "SWAP", "H", "P"} <= resumed_over and "DEST" in resumed_in


def test_safety_net_fires_at_a_change_in_front_of_the_block(monkeypatch):
    # a mutant splice that also moves the angle of a P in front of the
    # block of step 1: the net must see the gates it would run on from
    # differ, not take the step's word that nothing there changed
    (d,) = [d for d in _frozen() if d.name == "qc_pminus"]
    pre = apply_step(d.initial, d.steps[0], d.theory, safety=False)
    at = rewrite._anchor(d.steps[1].site)
    assert at == 4 and pre.gates[1].kind == "P"
    calls, real = [], rewrite._apply

    def mutant(*args):
        gates, rev_site = real(*args)
        calls.append(None)
        if len(calls) == 2:
            g, ids = gates[1]
            gates = [gates[0], (Gate(g.kind, g.wires, (g.params[0] + 0.5,)), ids), *gates[2:]]
        return gates, rev_site

    monkeypatch.setattr(rewrite, "_apply", mutant)
    with pytest.raises(SemanticDrift, match=r"^step 1 \("):
        replay(d, allow_lemmas=True, safety=True)


def test_safety_replay_memory_does_not_grow_with_gate_count():
    # on 7 wires a state is 2^7 x 2^7 complex numbers, 256 KiB: the net
    # keeps one beside the matrix, not one per gate, however long the
    # circuit grows (each step splices an H pair into its middle)
    def derivation(steps: int) -> Derivation:
        rec = rewrite._Recorder("QC", circuit(7, [h(w) for w in range(7)]))
        for i in range(steps):
            rec.do("H2", "RL", site=Site((), (i % 7,), len(rec.gates) // 2))
        return rec.derivation()

    peaks = []
    for steps in (4, 60):
        d = derivation(steps)
        replay(d, safety=True)
        tracemalloc.start()
        try:
            replay(d, safety=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 14 * 16, peaks


def test_wire_cap_skips_the_same_steps_as_apply_step(monkeypatch):
    # at a cap of 2 the 3-wire qcancilla_i3 is never checked, while
    # qcancilla_p0 and qcancilla_splus never open more than 2 wires
    monkeypatch.setenv("QCEQ_WIRE_CAP", "2")
    seen = _count_evals(monkeypatch)
    at, real_step = [], rewrite._Recorder.step

    def counted_step(*args, **kwargs):
        at.append(len(seen))   # evaluations made before this step
        return real_step(*args, **kwargs)

    monkeypatch.setattr(rewrite._Recorder, "step", counted_step)
    checked = {}
    for d in _frozen():
        if not d.name.startswith("qcancilla"):
            continue
        seen.clear()
        c, by_step = d.initial, set()
        for i, step in enumerate(d.steps):
            before = len(seen)
            c = apply_step(c, step, d.theory, allow_lemmas=True, safety=True)
            if len(seen) > before:
                by_step.add(i)
        at.clear()
        seen.clear()
        replay(d, allow_lemmas=True, safety=True)
        bounds = at + [len(seen)]
        by_replay = {i for i in range(len(d.steps)) if bounds[i + 1] > bounds[i]}
        assert by_replay == by_step, d.name
        checked[d.name] = len(by_step)
    assert checked == {"qcancilla_i3": 0, "qcancilla_p0": 9, "qcancilla_splus": 21}


def _widest_frame(c) -> int:
    width = top = c.n_in
    for g in c.gates:
        width += {"INIT": 1, "DEST": -1}.get(g.kind, 0)
        top = max(top, width)
    return top


def test_wire_cap_counts_the_wires_inits_open(monkeypatch):
    # qcancilla_p0 stays at one wire at its ends while steps 1-7 open a
    # second: at a cap of 1 exactly the steps whose circuits both stay
    # within one wire are checked, and the others are skipped, not failed
    monkeypatch.setenv("QCEQ_WIRE_CAP", "1")
    seen = _count_evals(monkeypatch)
    (d,) = [d for d in _frozen() if d.name == "qcancilla_p0"]
    c, checked, narrow = d.initial, set(), set()
    for i, step in enumerate(d.steps):
        before = len(seen)
        after = apply_step(c, step, d.theory, allow_lemmas=True, safety=True)
        if len(seen) > before:
            checked.add(i)
        if max(_widest_frame(c), _widest_frame(after)) <= 1:
            narrow.add(i)
        c = after
    assert checked == narrow == {0, 8}
    seen.clear()
    assert deformation_equal(replay(d, allow_lemmas=True, safety=True), d.final)
    assert seen and all(_widest_frame(c) <= 1 for c in seen)


def test_threading_records_the_widest_frame(monkeypatch):
    # every circuit the replay of a frozen trace, or of its reversal,
    # passes through goes through the safety net
    seen, real = [], rewrite._safety_check

    def recorded(before, after, *args):
        seen.extend((before, after))
        return real(before, after, *args)

    monkeypatch.setattr(rewrite, "_safety_check", recorded)
    n_steps = 0
    for d in _frozen():
        runs = [d]
        if d.name != "qcancilla_p0":   # the one frozen trace that does not reverse
            runs.append(reverse_derivation(d))
        for run in runs:
            replay(run, allow_lemmas=True, safety=True)
            n_steps += len(run.steps)
    assert len(seen) == 2 * n_steps
    assert all(c.threading.widest == _widest_frame(c) for c in seen)
    assert any(c.threading.widest > max(c.n_in, c.n_out) for c in seen)


def test_reversal_orders_each_circuit_once(monkeypatch):
    # no circuit is ordered even once: deformation checks bind in the wire
    # DAG and reversal carries its sites with the gate map its landing
    # check binds, so building, replaying, reversing and normalizing never
    # compute a canonical order
    def order(gates):
        raise AssertionError("a canonical order was computed")

    monkeypatch.setattr(sys.modules["qc_equate.circuit"], "_canonical_order", order)
    with pytest.raises(AssertionError):
        canonicalize(circuit(1, [p(0.3, 0)]))
    assert len(tr.all_traces()) == 19
    reversed_ = 0
    for d in _frozen():
        replay(d, allow_lemmas=True)
        try:
            reverse_derivation(d)
            reversed_ += 1
        except NoMatch:
            assert d.name == "qcancilla_p0"
    assert reversed_ == 18
    c = circuit(1, [gphase(0.4), rx(1.1, 0), p(0.3, 0), rx(-2.0, 0)])
    for theory in ("QC", "QCprime"):
        _, d = normalize_1q(c, emit_trace=True, theory=theory)
        reverse_derivation(d)


def test_builder_must_end_on_the_target_side():
    b = tr._Builder("QC", "CNOT2")
    b.rewrite("P0", "RL", wires=(0,), at=1)
    b.rewrite("C", "LR", (0.0,), wires=(0, 1))
    with pytest.raises(QcError, match="target side"):     # P(0) is left
        b.done("short")
    b.rewrite("P0", "LR", wires=(0,))
    assert len(b.done("qc_cnot2").final.gates) == 0


def test_builder_rewrite_needs_a_site_on_the_wires():
    b = tr._Builder("QC", "CNOT2")
    with pytest.raises(NoMatch, match="no site"):
        b.rewrite("H2", "LR", wires=(0,))
    b.rewrite("P0", "RL", wires=(0,), at=1)
    with pytest.raises(NoMatch, match="no site"):
        b.rewrite("C", "LR", (0.0,), wires=(1, 0))
    with pytest.raises(NoMatch, match="no site"):
        b.rewrite("C", "LR", (0.0,), wires=(0, 1), nth=1)
    assert len(b.steps) == 1          # a step that finds no site records nothing


BUILT = ["qc_pplus", "qc_pminus", "qc_s0", "qc_cnot2", "qc_pcommutcnot",
         "qc_bprime", "qc_pgadget", "qc_hhcnothh", "qc_ctrlpminuspi", "qc_5cx",
         "qcancilla_p0", "qcancilla_splus", "qcancilla_i3"]


def test_find_sites_recovers_every_builder_site():
    # each frozen builder trace records its steps' sites as gate indices;
    # find_sites lists every one of them on the circuit before its step
    found = insertions = 0
    for name in BUILT:
        d = Derivation.from_dict(json.loads((TRACE_DIR / f"{name}.json").read_text()))
        c = d.initial
        for i, step in enumerate(d.steps):
            if step.site.gates:
                hits = [(s.gates, s.wire_map) for s in find_sites(
                    c, step.rule, step.params, step.n, step.direction, d.theory)]
                assert (step.site.gates, step.site.wire_map) in hits, (name, i)
                found += 1
            else:
                insertions += 1
            c = apply_step(c, step, d.theory, safety=False)
    assert (found, insertions) == (91, 26)


def test_derive_rule_starts_and_ends_on_the_instance():
    d = tr.derive_rule("QCprime", "RXMINUS", (0.7,), "qcprime_rxminus")
    inst = resolve_rule("QCprime", "RXMINUS", (0.7,), None, True)
    assert d.name == "qcprime_rxminus" and d.initial == inst.lhs
    assert deformation_equal(replay(d, allow_lemmas=True), inst.rhs)


def test_i3_trace_kills_the_multicontrol():
    d = tr.qcancilla_i3()
    assert deformation_equal(d.initial,
                             circuit(3, [mcp(2 * PI, (0, 1, 2))]))
    uses = {s.rule for s in d.steps}
    assert "FIVE_CX" in uses          # the essential ancilla-theory axiom
    assert "I" not in uses


def test_5cx_trace_goes_through_the_i_axiom():
    d = tr.qc_5cx()
    assert {s.rule for s in d.steps} == {"MCPFOLD5CX", "I"}
    replay(d, allow_lemmas=True, safety=True)
