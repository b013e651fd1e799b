"""qc-equate benchmark: closed-loop workloads over the public API and the CLI.

    python3 perfbench/run.py --workload nf-qc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the root of a qc-equate source tree; the package is imported from
its ``src/`` directory.  One run measures one workload (or, with ``all``,
each workload in its own process) for about ``--seconds`` seconds, in whole
passes over the same seeded ops, with one caller that issues the next call
only after the previous one returns.  Every result is checked against the
oracle in ``workloads.py`` outside the timed region.

Times are rescaled to a nominal host speed (see KERNEL_NOMINAL_S) and an
op's latency is its median over the passes; ``ops_per_s``, ``op_p50_ms`` and
``op_tail_ms`` are taken over those per-op latencies.  ``ok_frac`` is
``1 - failed_frac``: the share of attempted ops that neither raised nor
failed their oracle, kept as a share of successes so that it is never 0.

The last line of stdout is a JSON object with ``correct`` (false when some
result contradicted its oracle; ops that raise or report failure only count
in ``failed``), ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the per-layer metrics, per op
of the workload, and the tracing slowdown, from a run split between an
untraced and a traced loop.  A traced run also writes its spans and its full
per-function table to ``perfbench/out/``.
"""

import os

# Pinned before numpy is imported here or in a child: BLAS threading alone
# moves 7-wire eval_matrix by 10x.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("nf-qc", "nf-qcprime", "traces", "soundness-wide")
SETUP_PROBES = 5
#: The host's speed drifts by tens of percent over seconds to minutes (other
#: tenants share its cores), so every time is rescaled by a fixed
#: calibration kernel timed next to it: t * KERNEL_NOMINAL_S / kernel time.
#: KERNEL_NOMINAL_S is the kernel's time on a quiet core of a 2-core x86-64
#: VM with Python 3.11, so rescaled times read as that machine's.
KERNEL_NOMINAL_S = 0.0007
MIN_PASSES = 3       # each op's latency is its median over at least this many passes
TAIL_BEYOND = 10      # the tail percentile keeps at least this many samples beyond it
MAX_WIDTH = 7         # widest circuit any workload evaluates

END_TO_END = {        # name -> unit
    "ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "ok_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}

#: (metric prefix, traced function, stats reported per op)
SPAN_METRICS = (
    ("circuit.thread", "circuit.thread", ("calls", "self_s")),
    ("circuit.canonicalize", "circuit.canonicalize", ("calls", "self_s")),
    ("circuit.expand_gate", "circuit.expand_gate", ("calls", "self_s")),
    ("semantics.eval_matrix", "semantics.eval_matrix", ("calls", "self_s")),
    ("euler.euler_eprime", "euler.euler_eprime", ("calls", "self_s")),
    ("euler.euler_e", "euler.euler_e", ("calls", "self_s")),
    ("euler.nf_from_unitary", "euler.nf_from_unitary", ("calls", "self_s")),
    ("theories.instantiate", "theories.instantiate", ("calls", "self_s")),
    ("theories.lemma_instantiate", "theories.lemma_instantiate", ("calls", "self_s")),
    ("theories.check_soundness", "theories.check_soundness", ("calls", "self_s")),
    # apply_step delegates to apply_step_full, which reversal and find_sites
    # also call directly, so the engine's every application is measured there
    ("rewrite.apply_step", "rewrite.apply_step_full", ("calls", "self_s", "errors")),
    ("rewrite.resolve_rule", "rewrite.resolve_rule", ("calls", "self_s")),
    ("rewrite.find_sites", "rewrite.find_sites", ("calls", "self_s")),
    ("rewrite.normalize_1q", "rewrite.normalize_1q", ("total_s",)),
    ("rewrite.replay", "rewrite.replay", ("total_s",)),
    ("rewrite.reverse_derivation", "rewrite.reverse_derivation", ("total_s",)),
    ("traces.all_traces", "traces.all_traces", ("total_s",)),
    ("interp.minimality_report", "interp.minimality_report", ("total_s",)),
    ("interp.interp_k", "interp.interp_k", ("calls", "self_s")),
    ("cli.main", "cli.main", ("calls", "total_s")),
)
COUNT_METRICS = ("circuit.Gate.created", "circuit.expand_gate.gates_out",
                 "euler.case.GENERIC", "euler.case.Z_ZERO", "euler.case.ZPRIME_ZERO")


def per_layer_units() -> dict[str, str]:
    units = {}
    for prefix, _, stats in SPAN_METRICS:
        for s in stats:
            units[f"{prefix}.{s}"] = "1/op" if s in ("calls", "errors") else "s/op"
    for name in COUNT_METRICS:
        units[name] = "1/op"
    for n in range(MAX_WIDTH + 1):
        units[f"semantics.eval_matrix.w{n}.calls"] = "1/op"
        units[f"semantics.eval_matrix.w{n}.self_s"] = "s/op"
    units.update({
        "rewrite.safety.eval_s": "s/op", "rewrite.apply_step.ok_ratio": "ratio",
        "rewrite.steps_per_op": "steps", "tracing.untraced_ops_per_s": "op/s",
        "tracing.traced_ops_per_s": "op/s", "tracing.slowdown": "ratio",
    })
    return units


@dataclass(frozen=True)
class _Item:
    kind: str
    wires: tuple = ()
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind not in ("H", "P"):
            raise ValueError(self.kind)


def calibration_kernel(n: int = 250) -> int:
    """About 1 ms of the work qc_equate's engine does most: building small
    validated frozen dataclasses, then sorting and grouping them.  Kernels of
    pure arithmetic track the host's speed less well."""
    items = [_Item("H" if i % 3 else "P", (i % 5,), (i * 0.1,)) for i in range(n)]
    items.sort(key=lambda g: (g.wires, g.kind, g.params))
    groups: dict = {}
    for g in items:
        groups.setdefault(g.wires, []).append(g)
    return sum(len(v) for v in groups.values())


def kernel_time() -> float:
    t0 = perf_counter()
    calibration_kernel()
    return perf_counter() - t0


# -- the program under test ---------------------------------------------------------

def import_program():
    """Import qc_equate from this tree's src/, refusing any other copy."""
    init = os.path.join(SRC, "qc_equate", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a qc-equate source tree")
    sys.path.insert(0, SRC)
    import qc_equate
    if os.path.realpath(qc_equate.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported {qc_equate.__file__}, not {init}")


def setup_probe(workload: str) -> None:
    """Child-process mode: time a cold import plus the workload's one-off set-up."""
    t0 = perf_counter()
    import_program()
    t1 = perf_counter()
    from workloads import WORKLOADS
    t2 = perf_counter()
    WORKLOADS[workload].warmup()
    t3 = perf_counter()
    kernel = statistics.median(kernel_time() for _ in range(15))
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "kernel_s": kernel}))


def measure_setup(workload: str) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload], cwd=ROOT, capture_output=True, text=True,
            timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"] * KERNEL_NOMINAL_S / probe["kernel_s"])
    return samples


# -- the closed loop --------------------------------------------------------------------

@dataclass
class LoopResult:
    raw: list = field(default_factory=list)      # raw[p][i]: seconds of op i in pass p
    kernels: list = field(default_factory=list)  # kernels[p][i]: kernel timed right after it
    failed: int = 0
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def passes(self) -> int:
        return len(self.raw)

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.raw)

    def per_op(self) -> list[float]:
        """Each op's rescaled latency, as the median over the passes."""
        scaled = [rescale(lat, ker) for lat, ker in zip(self.raw, self.kernels)]
        return [statistics.median(col) for col in zip(*scaled)]


def rescale(latencies: list, kernels: list, half_window: int = 4) -> list[float]:
    """Latencies at nominal host speed, from the kernel times around each op."""
    out = []
    for i, t in enumerate(latencies):
        near = kernels[max(0, i - half_window):i + half_window + 1]
        out.append(t * KERNEL_NOMINAL_S / statistics.median(near))
    return out


def run_loop(workload, seed: int, seconds: float, tracer=None,
             min_passes: int = MIN_PASSES) -> LoopResult:
    """Whole passes over the same ops: at least ``min_passes``, then until
    another pass would overrun ``seconds``."""
    from workloads import Unsuccessful, WrongAnswer

    res = LoopResult()
    verified: dict = {}
    begin = perf_counter()
    while True:
        lat, kernels = [], []
        res.raw.append(lat)
        res.kernels.append(kernels)
        for op in workload.cycle(seed):
            if tracer is not None:
                tracer.on = True
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # any raise is a failed op; it is recorded
                lat.append(perf_counter() - t0)
                if tracer is not None:
                    tracer.on = False
                kernels.append(kernel_time())
                res.failed += 1
                res.failures[f"{op.label}: {type(exc).__name__}: {exc}"[:240]] += 1
                continue
            lat.append(perf_counter() - t0)
            if tracer is not None:
                tracer.on = False
            kernels.append(kernel_time())
            if op.key is not None and op.key in verified and verified[op.key] == out:
                continue
            try:
                op.check(out)
            except Unsuccessful as exc:
                res.failed += 1
                res.failures[f"{op.label}: {exc}"[:240]] += 1
                continue
            except Exception as exc:  # WrongAnswer, or a result the oracle cannot read
                res.failed += 1
                res.wrong += 1
                kind = "" if isinstance(exc, WrongAnswer) else f"{type(exc).__name__}: "
                res.failures[f"WRONG {op.label}: {kind}{exc}"[:240]] += 1
                continue
            if op.key is not None:
                verified[op.key] = out
        elapsed = perf_counter() - begin
        if res.passes >= min_passes and elapsed + elapsed / res.passes > seconds:
            return res


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with TAIL_BEYOND beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(res: LoopResult, setup: list[float]) -> dict:
    per_op = res.per_op()
    value, _, _ = tail(per_op)
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * value,
        "ok_frac": (res.attempted - res.failed) / res.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: LoopResult, untraced: LoopResult) -> dict:
    ops = traced.attempted
    table = tracer.table()
    out = {}
    for prefix, fn, stats in SPAN_METRICS:
        row = table.get(fn, {})
        for s in stats:
            out[f"{prefix}.{s}"] = row.get(s, 0.0) / ops
    for name in COUNT_METRICS:
        out[name] = tracer.counts[name] / ops
    widths = tracer.eval_by_width()
    for n in range(MAX_WIDTH + 1):
        calls, self_s = widths.get(n, (0, 0.0))
        out[f"semantics.eval_matrix.w{n}.calls"] = calls / ops
        out[f"semantics.eval_matrix.w{n}.self_s"] = self_s / ops
    out["rewrite.safety.eval_s"] = tracer.child_time(
        "semantics.eval_matrix", "rewrite.apply_step_full") / ops
    apply_row = table.get("rewrite.apply_step_full", {})
    attempts = apply_row.get("calls", 0)
    out["rewrite.apply_step.ok_ratio"] = (
        (attempts - apply_row.get("errors", 0)) / attempts if attempts else 0.0)
    normalized = tracer.counts["rewrite.normalize_1q.returned"]
    out["rewrite.steps_per_op"] = (
        tracer.counts["rewrite.normalize_1q.steps"] / normalized if normalized else 0.0)
    fast = 1.0 / statistics.mean(untraced.per_op())
    slow = 1.0 / statistics.mean(traced.per_op())
    out["tracing.untraced_ops_per_s"] = fast
    out["tracing.traced_ops_per_s"] = slow
    out["tracing.slowdown"] = fast / slow
    return out


def write_trace(tracer, workload: str) -> str:
    import numpy as np

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}")
    np.savez_compressed(path + ".npz", names=np.array(tracer.names), **tracer.spans())
    with open(path + ".json", "w") as fh:
        json.dump({"functions": tracer.table(), "counts": dict(tracer.counts)},
                  fh, indent=1, sort_keys=True)
    return path


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "seed": seed}


def report_failures(res: LoopResult) -> None:
    for msg, k in sorted(res.failures.items()):
        print(f"  failed x{k}: {msg}")


def run_one(args) -> dict:
    import_program()
    from workloads import WORKLOADS

    setup = [] if args.trace else measure_setup(args.workload)

    workload = WORKLOADS[args.workload]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    if not args.trace:
        res = run_loop(workload, args.seed, args.seconds)
        metrics = end_to_end(res, setup)
        per_op = res.per_op()
        _, pct, beyond = tail(per_op)
        raw = [t for p in res.raw for t in p]
        print(f"# {res.passes} passes x {len(per_op)} ops; op_tail is p{pct:.2f} of "
              f"{len(per_op)} per-op medians ({beyond} beyond); failed_frac "
              f"{res.failed / res.attempted:.6f}; unscaled ops_per_s "
              f"{len(raw) / sum(raw):.4f}, op_p50_ms {1e3 * statistics.median(raw):.4f}; "
              "setup samples " + ", ".join(f"{s:.4f}" for s in setup))
        report_failures(res)
        results = [res]
    else:
        from tracer import Tracer

        # per-layer figures are exact counts and summed times, so one pass will do
        untraced = run_loop(workload, args.seed, args.seconds / 2, min_passes=1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(workload, args.seed, args.seconds / 2, tracer, min_passes=1)
        finally:
            tracer.uninstall()
        left = tracer.installed_wrappers()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")
        metrics = per_layer(tracer, traced, untraced)
        path = write_trace(tracer, args.workload)
        print(f"# untraced {untraced.passes} passes, traced {traced.passes} passes "
              f"x {len(traced.raw[0])} ops; {len(tracer.span_name)} spans -> {path}.*")
        report_failures(traced)
        results = [untraced, traced]
    units = END_TO_END if not args.trace else per_layer_units()
    for name, val in metrics.items():
        print(f"{args.workload:15s} {name:42s} {val:14.6g} {units[name]}")
    return {
        "correct": all(r.wrong == 0 for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process; metric names get a workload prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} failed:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
