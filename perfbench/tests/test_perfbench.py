"""Self-tests of the benchmark harness: span arithmetic, tracer clean-up,
seeded inputs, failure accounting and agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import qc_equate as q  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer, self_times, span_stats  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and a [5, 9]; the first a has a
    # directly recursive child a [2, 3] and b [3.5, 4]
    name = np.array([0, 1, 1, 2, 1])
    parent = np.array([-1, 0, 1, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 3.5, 5.0])
    end = np.array([10.0, 4.0, 3.0, 4.0, 9.0])
    error = np.array([3])
    assert self_times(parent, start, end).tolist() == [3.0, 1.5, 1.0, 0.5, 4.0]
    st = span_stats(name, parent, start, end, error, 3)
    assert st["calls"].tolist() == [1, 3, 1]
    assert st["self_s"].tolist() == [3.0, 6.5, 0.5]
    assert st["total_s"].tolist() == [10.0, 7.0, 0.5]   # the nested a is not counted twice
    assert st["errors"].tolist() == [0, 0, 1]


def _tiny_workload():
    c = q.circuit(1, [q.h(0), q.p(0.4, 0), q.h(0), q.rx(1.2, 0)])
    m = q.circuit(3, [q.mcp(0.7, (0, 1, 2))])

    def cycle(seed):
        return [W.Op("normalize_1q", lambda: q.normalize_1q(c, emit_trace=True),
                     lambda out: None),
                W.Op("eval_matrix", lambda: q.eval_matrix(m), lambda out: None)]

    return W.Workload(cycle, lambda: None)


def test_traced_run_records_spans_and_removes_every_wrapper():
    originals = {(mod.__name__, attr): val
                 for mod in Tracer().modules() for attr, val in vars(mod).items()}
    post_init = q.Gate.__post_init__
    tracer = Tracer()
    tracer.install()
    assert q.rewrite.apply_step is not originals[("qc_equate.rewrite", "apply_step")]
    assert q.theories.eval_matrix is not originals[("qc_equate.theories", "eval_matrix")]
    try:
        res = run.run_loop(_tiny_workload(), 1, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert tracer.installed_wrappers() == []
    assert q.Gate.__post_init__ is post_init
    for mod in tracer.modules():
        for attr, val in vars(mod).items():
            assert val is originals[(mod.__name__, attr)], f"{mod.__name__}.{attr}"
    table = tracer.table()
    assert res.passes == run.MIN_PASSES and res.failed == 0
    assert table["rewrite.normalize_1q"]["calls"] == run.MIN_PASSES
    assert table["circuit.thread"]["calls"] > 0
    assert tracer.counts["circuit.Gate.created"] > 0
    assert set(tracer.eval_by_width()) >= {3}
    layers = run.per_layer(tracer, res, res)
    assert set(layers) == set(run.per_layer_units())


def _inputs(name, seed):
    """A comparable description of every input of one pass."""
    if name in ("nf-qc", "nf-qcprime"):
        return [c.to_dict() for c in W.nf_inputs(seed)]
    if name == "traces":
        return [op.label for op in W.traces_cycle(seed)]
    return W.soundness_inputs(seed)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _inputs(name, 5) == _inputs(name, 5)
    assert _inputs(name, 5) != _inputs(name, 6)


def test_nf_inputs_keep_the_known_crash_circuit():
    crash = W.qcprime_crash_circuit().to_dict()
    for seed in (1, 2):
        assert sum(d == crash for d in _inputs("nf-qc", seed)) == 1


def test_failures_are_counted_and_wrong_answers_flagged():
    def boom():
        raise TypeError("raw crash")

    def refuse(out):
        raise W.Unsuccessful("reported failure")

    def contradict(out):
        raise W.WrongAnswer("bad value")

    ops = [W.Op("ok", lambda: 1, lambda out: None), W.Op("crash", boom, lambda out: None),
           W.Op("refused", lambda: 2, refuse), W.Op("wrong", lambda: 3, contradict)]
    res = run.run_loop(W.Workload(lambda seed: ops, lambda: None), 1, 0.0)
    assert res.attempted == 4 * res.passes
    assert res.failed == 3 * res.passes and res.wrong == res.passes
    assert len(res.per_op()) == 4
    assert any(k.startswith("WRONG wrong") for k in res.failures)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
