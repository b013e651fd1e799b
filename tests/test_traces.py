"""The shipped derivation set: replay, JSON round trips, reversibility."""

import json
import math

import numpy as np

from qc_equate import (Derivation, circuit, deformation_equal, eval_matrix,
                       gphase, mcp, p, replay, reverse_derivation)
from qc_equate import traces as tr

PI = math.pi


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
    d = tr.qc_p2pi()
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
    from qc_equate import apply_step
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
        replay(tr.qcprime_pminus(phi), allow_lemmas=True, safety=True)
    for abc in [(0.5, 1.5, 2.5), (-1.0, 0.3, 4.0)]:
        replay(tr.qcprime_euler(*abc), allow_lemmas=True, safety=True)


def test_json_round_trip_replays(tmp_path):
    paths = tr.write_traces(str(tmp_path))
    assert len(paths) == 19
    for path in paths:
        with open(path) as fh:
            d = Derivation.from_dict(json.load(fh))
        replay(d, allow_lemmas=True, safety=True, tol=1e-9)


def test_axiom_only_traces_replay_in_strict_mode():
    # these cite nothing outside the theory's axioms and the macro definitions
    for d in (tr.qc_p2pi(), tr.qc_pplus(0.9, 1.4), tr.qc_pminus(0.7),
              tr.qc_s0(), tr.qc_cnot2(), tr.qc_bprime(),
              tr.qcancilla_splus(0.6, 0.9)):
        replay(d, allow_lemmas=False, safety=True, tol=1e-9)


def test_reverse_of_shipped_trace():
    for d in (tr.qc_bprime(), tr.qcprime_pminus(1.3),
              tr.qcprime_euler(0.9, 1.7, -0.6)):
        rd = reverse_derivation(d)
        out = replay(rd, allow_lemmas=True, safety=True)
        assert deformation_equal(out, d.initial)


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
