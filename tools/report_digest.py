"""Print one SHA-256 digest per family of qc-equate's JSON reports.

    PYTHONPATH=src python3 tools/report_digest.py

Run from the root of a qc-equate source tree; the package is imported from
``PYTHONPATH``, so pointing it at another tree's ``src/`` digests that
tree's reports.  Two trees whose reports agree print the same four lines:

- ``verify_theory``: the four theories at seeds 0-19, samples 100,
  max_qubits 7;
- ``minimality_report``: every rule of the four theories at seeds 0-19 and
  target_n 3, 4, 8 and 12, the error's type and text for a rule that has
  no report;
- ``minimality_matrix``: the four theories at seeds 0-5;
- ``minimality_report@7``: every axiom of QC and QCprime whose witness
  reads no angle (all of ``INTERP_BOUND`` but SPLUS) at max_qubits 7 and
  seeds 0-4, widths the default reports never reach.

A family's digest is taken over its reports in that order, one JSON line
each with sorted keys.
"""

import hashlib
import json

from qc_equate import THEORIES, list_rules, minimality_report, verify_theory
from qc_equate.errors import QcError
from qc_equate.interp import INTERP_BOUND, minimality_matrix

SEEDS = range(20)
TARGET_NS = (3, 4, 8, 12)
MATRIX_SEEDS = range(6)
WIDE_SEEDS = range(5)


def _minimality(theory: str, axiom: str, seed: int, target_n: int = 4, max_qubits: int = 5):
    try:
        return minimality_report(theory, axiom, seed=seed, target_n=target_n,
                                 max_qubits=max_qubits)
    except QcError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def families():
    """(family name, its reports in order), one family at a time."""
    yield "verify_theory", (verify_theory(t, samples=100, max_qubits=7, seed=s)
                            for t in THEORIES for s in SEEDS)
    yield "minimality_report", (_minimality(t, r.name, s, n) for t in THEORIES
                                for r in list_rules(t) for s in SEEDS for n in TARGET_NS)
    yield "minimality_matrix", (minimality_matrix(t, seed=s)
                                for t in THEORIES for s in MATRIX_SEEDS)
    yield "minimality_report@7", (_minimality(t, r.name, s, max_qubits=7)
                                  for t in ("QC", "QCprime") for r in list_rules(t)
                                  if r.name in INTERP_BOUND and r.name != "SPLUS"
                                  for s in WIDE_SEEDS)


def main() -> None:
    for name, reports in families():
        digest, count = hashlib.sha256(), 0
        for report in reports:
            digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
            count += 1
        print(f"{name} {count} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
