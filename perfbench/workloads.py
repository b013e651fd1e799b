"""The benchmark's workloads: seeded inputs, one public call per op, oracles.

Each workload is a closed loop with one caller.  ``cycle(seed)`` returns the
ops of one pass over the workload's inputs; the same seed always gives the
same ops, and the runner repeats whole passes.  An op's ``check`` runs after
the timed call, outside any traced span, and raises ``Unsuccessful`` when
the program reports that the call did not succeed or ``WrongAnswer`` when
its result contradicts the benchmark's oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

import qc_equate as q
from qc_equate import cli, interp, traces
from qc_equate.errors import QcError

TWO_PI = 2.0 * math.pi
NF_TOL = 1e-8        # the acceptance suite's normal-form round-trip tolerance
MATRIX_TOL = 1e-9    # the acceptance suite's soundness tolerance


class Unsuccessful(Exception):
    """The program itself reported that the op did not succeed."""


class WrongAnswer(Exception):
    """The op returned a result that contradicts the oracle."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    #: identifies the op's input within a pass; an output equal to one
    #: already verified for the same key needs no second oracle run
    key: Hashable | None = None


@dataclass
class Workload:
    cycle: Callable[[int], list[Op]]
    warmup: Callable[[], None]


# -- nf-qc / nf-qcprime --------------------------------------------------------

#: lengths 0..NF_MAX_LEN, so the O(n^2) per-step cost shows, NF_PER_LEN of each
NF_MAX_LEN = 16
NF_PER_LEN = 6
#: The gate kinds of every circuit come from this fixed stream and only the
#: angles and the order come from the run's seed: rewriting cost depends on
#: the kind sequence far more than on the angles, so runs with different
#: seeds do comparable work.
NF_KIND_SEED = 20231113

GATES = (lambda a: q.h(0), lambda a: q.p(a, 0), lambda a: q.gphase(a),
         lambda a: q.x(0), lambda a: q.z(0), lambda a: q.rx(a, 0))


def rand_1q(kinds, angles) -> q.Circuit:
    """The acceptance suite's gate set: H, P, GPHASE, X, Z, RX, angles in [-7, 7]."""
    return q.circuit(1, [GATES[k](float(a)) for k, a in zip(kinds, angles)])


def qcprime_crash_circuit() -> q.Circuit:
    """A known input on which QCprime normalization raises a raw TypeError."""
    return q.circuit(1, [
        q.x(0), q.z(0), q.gphase(6.761538988103883), q.z(0), q.h(0), q.x(0),
        q.h(0), q.rx(-6.814522666230806, 0), q.gphase(6.0419672278893355),
        q.gphase(4.800297777855281), q.p(6.4670877788452845, 0)])


def nf_inputs(seed: int) -> list[q.Circuit]:
    kinds = np.random.default_rng(NF_KIND_SEED)
    rng = np.random.default_rng([seed, 1])
    circuits = [rand_1q(kinds.integers(0, 6, m), rng.uniform(-7, 7, m))
                for m in range(NF_MAX_LEN + 1) for _ in range(NF_PER_LEN)]
    circuits.append(qcprime_crash_circuit())
    order = rng.permutation(len(circuits))
    return [circuits[i] for i in order]


def _nf_check(c: q.Circuit, theory: str):
    def check(out) -> None:
        params, d = out
        want = q.nf_from_unitary(q.eval_matrix(c))
        if not params.close_to(want, NF_TOL):
            raise WrongAnswer(f"normal form {tuple(params)} != matrix route {tuple(want)}")
        if d is None or d.theory != theory or d.initial != c:
            raise WrongAnswer("no trace, or a trace of another circuit or theory")
        try:
            end = q.replay(d, allow_lemmas=True, safety=False)
        except QcError as exc:
            raise WrongAnswer(f"emitted trace does not replay: {exc}") from exc
        if not q.deformation_equal(end, d.final):
            raise WrongAnswer("emitted trace does not end at its final circuit")
    return check


def nf_workload(theory: str) -> Workload:
    def cycle(seed: int) -> list[Op]:
        return [Op(f"normalize_1q:{len(c)} gates",
                   lambda c=c: q.normalize_1q(c, emit_trace=True, theory=theory),
                   _nf_check(c, theory), key=i)
                for i, c in enumerate(nf_inputs(seed))]

    def warmup() -> None:
        q.normalize_1q(q.circuit(1, [q.h(0), q.p(0.3, 0), q.h(0)]),
                       emit_trace=True, theory=theory)

    return Workload(cycle, warmup)


# -- traces ---------------------------------------------------------------------

def frozen_dir() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "traces")


def load_frozen() -> dict[str, dict]:
    """The committed ``traces/*.json`` files, by trace name."""
    d = frozen_dir()
    out = {}
    for fn in sorted(os.listdir(d)):
        if fn.endswith(".json"):
            with open(os.path.join(d, fn)) as fh:
                out[fn[:-5]] = json.load(fh)
    if not out:
        raise FileNotFoundError(f"no frozen traces under {d}")
    return out


def _check_all_traces(frozen: dict[str, dict]):
    def check(out) -> None:
        got = {d.name: json.loads(json.dumps(d.to_dict())) for d in out}
        if len(got) != len(out) or set(got) != set(frozen):
            raise WrongAnswer(f"all_traces() names {sorted(got)} != frozen {sorted(frozen)}")
        stale = [n for n in got if got[n] != frozen[n]]
        if stale:
            raise WrongAnswer(f"frozen traces differ from all_traces(): {stale}")
    return check


def _check_lands_on(target: q.Circuit):
    def check(out) -> None:
        if not q.deformation_equal(out, target):
            raise WrongAnswer("replay did not land on the expected circuit")
    return check


def _reverse_then_replay(d):
    rev = q.reverse_derivation(d)
    return q.replay(rev, allow_lemmas=True, safety=True)


def _cli_replay(path: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["replay", path, "--allow-lemmas"])
    return code, out.getvalue() or err.getvalue()


def _check_cli(d):
    def check(out) -> None:
        code, text = out
        if code != 0:
            raise Unsuccessful(f"exit {code}: {text.strip()[:200]}")
        rep = json.loads(text)
        if rep.get("steps") != len(d.steps) or not q.deformation_equal(
                q.Circuit.from_dict(rep["final"]), d.final):
            raise WrongAnswer("CLI replay output does not match the trace")
    return check


def traces_cycle(seed: int) -> list[Op]:
    frozen = load_frozen()
    derivs = {n: q.Derivation.from_dict(js) for n, js in frozen.items()}
    per_trace = []
    for n, d in derivs.items():
        path = os.path.join(frozen_dir(), f"{n}.json")
        per_trace += [
            Op(f"replay:{n}", lambda d=d: q.replay(d, allow_lemmas=True, safety=True),
               _check_lands_on(d.final)),
            Op(f"reverse:{n}", lambda d=d: _reverse_then_replay(d),
               _check_lands_on(d.initial)),
            Op(f"cli:{n}", lambda path=path: _cli_replay(path), _check_cli(d)),
        ]
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(len(per_trace))
    return ([Op("all_traces", lambda: traces.all_traces(), _check_all_traces(frozen))]
            + [per_trace[i] for i in order])


def traces_warmup() -> None:
    code, text = _cli_replay(os.path.join(frozen_dir(), "qc_s0.json"))
    if code != 0:
        raise RuntimeError(f"warm-up CLI replay failed: {text}")


# -- soundness-wide ---------------------------------------------------------------

MAX_QUBITS = 7
EVAL_DRAWS = 5       # seeded MCP and MCRX gates per width 5..MAX_QUBITS


def mcp_matrix(phi: float, n: int) -> np.ndarray:
    """MCP on all n wires: the phase e^{i phi} on |1...1>, identity elsewhere."""
    m = np.ones(2 ** n, dtype=complex)
    m[-1] = np.exp(1j * phi)
    return np.diag(m)


def mcrx_matrix(theta: float, wires: tuple[int, ...], n: int) -> np.ndarray:
    """RX(theta) on wires[-1] when every wire in wires[:-1] is 1 (wire 0 = MSB)."""
    rx = np.array([[math.cos(theta / 2), -1j * math.sin(theta / 2)],
                   [-1j * math.sin(theta / 2), math.cos(theta / 2)]])
    m = np.eye(2 ** n, dtype=complex)
    tbit = 1 << (n - 1 - wires[-1])
    cmask = sum(1 << (n - 1 - w) for w in wires[:-1])
    for i in range(2 ** n):
        if i & cmask == cmask and not i & tbit:
            j = i | tbit
            m[np.ix_([i, j], [i, j])] = rx
    return m


def _check_verify(out) -> None:
    if not out["ok"]:
        bad = [r for r, v in out["rules"].items() if not v["ok"]]
        raise Unsuccessful(f"{out['theory']}: rules failing soundness: {bad}")


def _check_minimality(out) -> None:
    if not out["pass"]:
        unsound = sorted(r for r, v in out["results"].items() if v == "unsound")
        raise Unsuccessful(f"{out['theory']} {out['axiom']}: unsound under its "
                           f"interpretation: {unsound}")


def _check_pi(out) -> None:
    if abs((out - math.pi + math.pi) % TWO_PI - math.pi) > MATRIX_TOL:
        raise WrongAnswer(f"interp_k = {out}, expected pi")


def _check_matrix(want: np.ndarray):
    def check(out) -> None:
        if out.shape != want.shape or not np.allclose(out, want, rtol=0, atol=MATRIX_TOL):
            raise WrongAnswer("matrix differs from the closed form")
    return check


def minimality_axioms(theory: str) -> list[str]:
    """Axioms with a registered counter-interpretation (as ``minimality_matrix`` picks)."""
    return [r.name for r in q.list_rules(theory)
            if r.name in interp.INTERP_BOUND or r.name in ("E", "I")]


def soundness_inputs(seed: int) -> list[tuple]:
    """One pass of (entry point, arguments...) in seeded order."""
    rng = np.random.default_rng([seed, 3])
    specs: list[tuple] = [("verify_theory", t, int(rng.integers(2 ** 31)))
                          for t in q.THEORIES]
    specs += [("minimality_report", t, ax, int(rng.integers(2 ** 31)))
              for t in ("QC", "QCprime") for ax in minimality_axioms(t)]
    specs += [("interp_k", n) for n in range(4, MAX_QUBITS + 1)]
    for n in range(5, MAX_QUBITS + 1):
        for _ in range(EVAL_DRAWS):
            phi, theta = (float(v) for v in rng.uniform(-TWO_PI, TWO_PI, 2))
            wires = tuple(int(w) for w in rng.permutation(n))
            specs += [("MCP", n, phi, wires), ("MCRX", n, theta, wires)]
    order = rng.permutation(len(specs))
    return [specs[i] for i in order]


def soundness_op(spec: tuple) -> Op:
    kind, *args = spec
    if kind == "verify_theory":
        t, s = args
        return Op(f"{kind}:{t}", lambda: q.verify_theory(t, samples=100, max_qubits=MAX_QUBITS,
                                                 tol=MATRIX_TOL, seed=s), _check_verify)
    if kind == "minimality_report":
        t, ax, s = args
        return Op(f"{kind}:{t}:{ax}", lambda: q.minimality_report(t, ax, seed=s),
                  _check_minimality)
    if kind == "interp_k":
        (n,) = args
        c = q.circuit(n, [q.mcp(TWO_PI, tuple(range(n)))])
        return Op(f"{kind}:{n}", lambda: q.interp_k(c, n - 1), _check_pi)
    n, angle, wires = args
    if kind == "MCP":
        c, want = q.circuit(n, [q.mcp(angle, wires)]), mcp_matrix(angle, n)
    else:
        c, want = q.circuit(n, [q.mcrx(angle, wires)]), mcrx_matrix(angle, wires, n)
    return Op(f"eval_matrix:{kind}:{n}", lambda: q.eval_matrix(c), _check_matrix(want))


def soundness_cycle(seed: int) -> list[Op]:
    return [soundness_op(spec) for spec in soundness_inputs(seed)]


def soundness_warmup() -> None:
    q.eval_matrix(q.circuit(3, [q.mcp(1.0, (0, 1, 2))]))


#: why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "nf-qc": nf_workload("QC"),
    "nf-qcprime": nf_workload("QCprime"),
    "traces": Workload(traces_cycle, traces_warmup),
    "soundness-wide": Workload(soundness_cycle, soundness_warmup),
}
