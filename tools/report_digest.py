"""Print one SHA-256 digest per family of qc-equate's JSON reports.

    PYTHONPATH=src python3 tools/report_digest.py

Run from the root of a qc-equate source tree; the package is imported from
``PYTHONPATH``, so pointing it at another tree's ``src/`` digests that
tree's reports.  Two trees whose reports agree print the same eight lines:

- ``verify_theory``: the four theories at seeds 0-19, samples 100,
  max_qubits 7;
- ``minimality_report``: every rule of the four theories at seeds 0-19 and
  target_n 3, 4, 8 and 12, the error's type and text for a rule that has
  no report;
- ``minimality_matrix``: the four theories at seeds 0-5;
- ``minimality_report@7``: every axiom of QC and QCprime whose witness
  reads no angle (all of ``INTERP_BOUND`` but SPLUS) at max_qubits 7 and
  seeds 0-4, widths the default reports never reach;
- ``minimality_report@wide``: (I) in QC and QCprime at target_n 24, 32, 48
  and 64 and seeds 0-2, widths at which 2^k-scaled float weights lose the
  precision a sampled check needs;
- ``minimality_report@samples``: every axiom of QCugp and QCancilla whose
  witness reads no angle at max_qubits 5 and 7, samples 0, 1, 2 and 100
  and seeds 0-4, the error's type and text where samples=0 leaves a rule
  with no instance;
- ``normalize_1q``: QC and QCprime on 300 seeded 1-qubit circuits of 0-20
  gates (``nf_circuits``), each circuit's normal-form params, trace and
  the trace's reversal, or the error's type and text;
- ``reverse_derivation``: the reversal of each frozen trace under
  ``traces/``, or the error's type and text.

A family's digest is taken over its reports in that order, one JSON line
each with sorted keys (``digest``).  The rewrite families show that a
change to the engine kept every step and every site.
``tests/test_tools.py`` pins every digest but ``normalize_1q``'s.
"""

import hashlib
import json
import math
import os

import numpy as np

import qc_equate as q
from qc_equate import THEORIES, list_rules, minimality_report, verify_theory
from qc_equate.errors import QcError
from qc_equate.interp import INTERP_BOUND, minimality_matrix

SEEDS = range(20)
TARGET_NS = (3, 4, 8, 12)
MATRIX_SEEDS = range(6)
WIDE_SEEDS = range(5)
WIDE_TARGET_NS = (24, 32, 48, 64)
WIDE_I_SEEDS = range(3)
ANGLE_FREE_SAMPLES = (0, 1, 2, 100)
NF_CIRCUITS = 300
NF_MAX_LEN = 20
#: angles the normalizer treats apart: zero, the band edges and periods
SPECIAL_ANGLES = (0.0, math.pi, -math.pi, math.pi / 2, 2 * math.pi, 4 * math.pi)
NF_GATES = (lambda a: q.h(0), lambda a: q.p(a, 0), lambda a: q.gphase(a),
            lambda a: q.x(0), lambda a: q.z(0), lambda a: q.rx(a, 0),
            lambda a: q.mcp(a, (0,)), lambda a: q.mcrx(a, (0,)))


def _json_or_error(call):
    try:
        return call()
    except QcError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _minimality(theory: str, axiom: str, seed: int, target_n: int = 4, max_qubits: int = 5,
                samples: int = 100):
    return _json_or_error(lambda: minimality_report(theory, axiom, seed=seed, target_n=target_n,
                                                    max_qubits=max_qubits, samples=samples))


def _angle_free(theories) -> list:
    """The axioms of ``theories`` whose witness reads no angle, as
    (theory, axiom) pairs in catalog order."""
    return [(t, r.name) for t in theories for r in list_rules(t)
            if r.name in INTERP_BOUND and r.name != "SPLUS"]


def nf_circuits(count: int = NF_CIRCUITS, seed: int = 0) -> list:
    """Seeded 1-qubit circuits of 0 to NF_MAX_LEN gates, every macro the
    normalizer unfolds included, a third of the angles special."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(0, NF_MAX_LEN + 1))
        angles = np.where(rng.random(m) < 1 / 3, rng.choice(SPECIAL_ANGLES, m),
                          rng.uniform(-7, 7, m))
        out.append(q.circuit(1, [NF_GATES[k](float(a))
                                 for k, a in zip(rng.integers(0, len(NF_GATES), m), angles)]))
    return out


def _normalized(c, theory: str) -> dict:
    params, d = q.normalize_1q(c, emit_trace=True, theory=theory)
    return {"circuit": c.to_dict(), "params": list(params), "trace": d.to_dict(),
            "reversal": _json_or_error(lambda: q.reverse_derivation(d).to_dict())}


def _frozen_traces() -> list:
    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "traces")
    out = []
    for fn in sorted(os.listdir(here)):
        if fn.endswith(".json"):
            with open(os.path.join(here, fn)) as fh:
                out.append(q.Derivation.from_dict(json.load(fh)))
    return out


def families():
    """(family name, its reports in order), one family at a time."""
    yield "verify_theory", (verify_theory(t, samples=100, max_qubits=7, seed=s)
                            for t in THEORIES for s in SEEDS)
    yield "minimality_report", (_minimality(t, r.name, s, n) for t in THEORIES
                                for r in list_rules(t) for s in SEEDS for n in TARGET_NS)
    yield "minimality_matrix", (minimality_matrix(t, seed=s)
                                for t in THEORIES for s in MATRIX_SEEDS)
    yield "minimality_report@7", (_minimality(t, a, s, max_qubits=7)
                                  for t, a in _angle_free(("QC", "QCprime")) for s in WIDE_SEEDS)
    yield "minimality_report@wide", (_minimality(t, "I", s, n) for t in ("QC", "QCprime")
                                     for n in WIDE_TARGET_NS for s in WIDE_I_SEEDS)
    yield "minimality_report@samples", (_minimality(t, a, s, max_qubits=m, samples=k)
                                        for t, a in _angle_free(("QCugp", "QCancilla"))
                                        for m in (5, 7) for k in ANGLE_FREE_SAMPLES
                                        for s in WIDE_SEEDS)
    yield "normalize_1q", (_json_or_error(lambda: _normalized(c, t))
                           for t in ("QC", "QCprime") for c in nf_circuits())
    yield "reverse_derivation", (_json_or_error(lambda: q.reverse_derivation(d).to_dict())
                                 for d in _frozen_traces())


def digest(reports) -> tuple[int, str]:
    """How many ``reports`` there are, and their SHA-256 digest."""
    h, count = hashlib.sha256(), 0
    for report in reports:
        h.update(json.dumps(report, sort_keys=True).encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def main() -> None:
    for name, reports in families():
        count, hexdigest = digest(reports)
        print(f"{name} {count} {hexdigest}")


if __name__ == "__main__":
    main()
