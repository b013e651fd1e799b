"""Split the rewrite step's cost on the benchmark's normalizer inputs and in
a replay of the frozen traces.

    PYTHONPATH=src python3 tools/step_costs.py [--seed 41] [--passes 3] [--circuits N]

Run from the root of a qc-equate source tree.  The inputs are the
``nf-qc``/``nf-qcprime`` circuits of ``perfbench/workloads.py`` at
``--seed`` (the first ``--circuits`` of them, when given), each normalized
with its trace as the benchmark does, ``--passes`` times after one warm-up
pass.  Prints one JSON object, per theory:

- ``ops`` and ``steps_per_op``;
- ``step_share``: the share of the ops' time spent in ``_Recorder.step``,
  from passes with only that call timed;
- ``rules``: per rule and direction, its ``steps_per_op`` and the median
  microseconds per step of ``resolve`` (``_sides``), ``match``
  (``_assembly`` plus ``_bind``), ``splice`` (``_build_replacement``) and
  ``apply`` (the whole of ``_apply``), from passes with those calls timed;
  an outer time includes the timers of the calls inside it;
- ``apply_by_length``: the median microseconds of ``_apply`` by the working
  circuit's gate count, in buckets of four.

and a ``replay`` section over the frozen ``traces/*.json``, each replayed
with lemmas and the safety net ``--passes`` times after one warm-up pass:
``traces``, ``steps`` (per pass) and the median microseconds per step of
``step`` (``_Recorder.step``), ``build`` (the ``Circuit`` built for the
net, ``_built``), ``evaluate`` (the net's evaluations, ``_resumed``; a
trace's first step also evaluates its initial circuit) and ``compare``
(``equal_in``).
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import workloads  # noqa: E402
from qc_equate import Derivation, normalize_1q, replay, rewrite  # noqa: E402

THEORIES = ("QC", "QCprime")
BUCKET = 4


def _run(circuits, theory: str, passes: int) -> float:
    """Seconds to normalize ``circuits`` ``passes`` times."""
    t0 = perf_counter()
    for _ in range(passes):
        for c in circuits:
            normalize_1q(c, emit_trace=True, theory=theory)
    return perf_counter() - t0


class _Timed:
    """Replaces module attributes by timed calls while in use; each call's
    seconds are added to ``into[label]``."""

    def __init__(self, targets):
        self.targets = targets   # (owner, attribute, label)
        self.into: dict = defaultdict(float)

    def _wrap(self, fn, label):
        into = self.into

        def timed(*args, **kw):
            t0 = perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                into[label] += perf_counter() - t0
        return timed

    def __enter__(self):
        self.saved = [(owner, name, getattr(owner, name)) for owner, name, _ in self.targets]
        for (owner, name, label), (_, _, fn) in zip(self.targets, self.saved):
            setattr(owner, name, self._wrap(fn, label))
        return self

    def __exit__(self, *exc):
        for owner, name, fn in self.saved:
            setattr(owner, name, fn)


def _step_share(circuits, theory: str, passes: int) -> float:
    with _Timed([(rewrite._Recorder, "step", "step")]) as timed:
        total = _run(circuits, theory, passes)
    return timed.into["step"] / total


def _parts(circuits, theory: str, passes: int):
    """Per (rule, direction), each timed step's parts; per length bucket,
    each step's ``_apply`` time; and the step count."""
    parts = [(rewrite, "_sides", "resolve"), (rewrite, "_assembly", "match"),
             (rewrite, "_bind", "match"), (rewrite, "_build_replacement", "splice"),
             (rewrite, "_apply", "apply")]
    by_rule, by_length = defaultdict(list), defaultdict(list)
    step = rewrite._Recorder.step

    with _Timed(parts) as timed:
        def recorded(rec, s):
            timed.into.clear()
            length = len(rec.gates)
            try:
                return step(rec, s)
            finally:
                by_rule[s.rule, s.direction].append(dict(timed.into))
                by_length[length // BUCKET].append(timed.into["apply"])

        rewrite._Recorder.step = recorded
        try:
            _run(circuits, theory, passes)
        finally:
            rewrite._Recorder.step = step
    return by_rule, by_length


def _replay_parts(derivs, passes: int) -> list[dict]:
    """Per replayed step, the seconds of each part: the step, then the
    calls until the next step or the end of its replay."""
    parts = [(rewrite, "_built", "build"), (rewrite, "_resumed", "evaluate"),
             (rewrite, "equal_in", "compare")]
    per_step: list[dict] = []
    step = rewrite._Recorder.step

    with _Timed(parts) as timed:
        def flush():
            if timed.into:
                per_step.append(dict(timed.into))
                timed.into.clear()

        def recorded(rec, s):
            flush()
            t0 = perf_counter()
            try:
                return step(rec, s)
            finally:
                timed.into["step"] += perf_counter() - t0

        rewrite._Recorder.step = recorded
        try:
            for _ in range(passes):
                for d in derivs:
                    replay(d, allow_lemmas=True, safety=True)
                    flush()
        finally:
            rewrite._Recorder.step = step
    return per_step


def replay_report(passes: int) -> dict:
    derivs = [Derivation.from_dict(js) for js in workloads.load_frozen().values()]
    for d in derivs:   # warm-up: rule shapes and plans compiled
        replay(d, allow_lemmas=True, safety=True)
    per_step = _replay_parts(derivs, passes)
    return {"traces": len(derivs), "steps": len(per_step) // passes,
            **{f"{part}_us": _us([t.get(part, 0.0) for t in per_step])
               for part in ("step", "build", "evaluate", "compare")}}


def _us(values) -> float:
    return round(statistics.median(values) * 1e6, 2)


def report(seed: int = 41, passes: int = 3, count: int | None = None) -> dict:
    circuits = workloads.nf_inputs(seed)[:count]
    out = {"seed": seed, "circuits": len(circuits), "passes": passes, "theories": {}}
    for theory in THEORIES:
        _run(circuits, theory, 1)   # warm-up: rule shapes and plans compiled
        share = _step_share(circuits, theory, passes)
        by_rule, by_length = _parts(circuits, theory, passes)
        ops = len(circuits) * passes
        rules = {}
        for (rule, direction), steps in sorted(by_rule.items(),
                                               key=lambda kv: -len(kv[1])):
            rules[f"{rule} {direction}"] = {
                "steps_per_op": round(len(steps) / ops, 3),
                **{f"{part}_us": _us([t.get(part, 0.0) for t in steps])
                   for part in ("resolve", "match", "splice", "apply")}}
        out["theories"][theory] = {
            "ops": ops,
            "steps_per_op": round(sum(map(len, by_rule.values())) / ops, 3),
            "step_share": round(share, 3),
            "rules": rules,
            "apply_by_length": {f"{b * BUCKET}-{b * BUCKET + BUCKET - 1}": _us(ts)
                                for b, ts in sorted(by_length.items())},
        }
    out["replay"] = replay_report(passes)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--circuits", type=int, default=None,
                    help="the first N of the workload's circuits (default: all)")
    args = ap.parse_args()
    print(json.dumps(report(args.seed, args.passes, args.circuits), indent=1))


if __name__ == "__main__":
    main()
