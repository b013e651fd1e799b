"""Counter-interpretations: why no rule of QC can be dropped.

Each axiom gets a compositional valuation that every other axiom preserves
(within its qubit bound) and the axiom itself breaks.  The valuation for
the multi-control rule also shows that no bounded-arity theory can be
complete: it disagrees with the identity exactly one qubit above its index.
"""

import math

import numpy as np

from qc_equate import (circuit, interp_E_values, interp_axiom, interp_k, mcp,
                       minimality_matrix, minimality_report, p, resolve_rule,
                       sign_classes, x)

PI = math.pi

# The Hadamard-count indicator: sound everywhere on 1 qubit except (H^2).
inst = resolve_rule("QC", "H2", (), 1)
print("H-count indicator on (H2):",
      interp_axiom("H2", inst.lhs), "vs", interp_axiom("H2", inst.rhs))

inst = resolve_rule("QC", "EH", (), 1)
print("H-count indicator on (EH):",
      interp_axiom("H2", inst.lhs), "vs", interp_axiom("H2", inst.rhs),
      "(the X-rotation macro hides Hadamards)")

# The swap-parity functor breaks exactly (B); the cnot+swap one exactly (CZ).
for target in ("B", "CZ"):
    inst = resolve_rule("QC", target, (), 2)
    va, vb = interp_axiom(target, inst.lhs), interp_axiom(target, inst.rhs)
    print(f"permutation functor on ({target}): lhs == rhs is",
          bool(np.allclose(va, vb)))

# interp_k: sound for every rule on at most k qubits, but it gives pi to the
# (k+1)-qubit multi-control of 2pi -- so that instance cannot be derived.
# interp_k recurses on the macro's one-level unfolding, so wide witnesses
# cost little.
for n in (3, 5, 10, 64):
    w = interp_k(circuit(n, [mcp(2 * PI, tuple(range(n)))]), n - 1)
    print(f"interp_(n-1) of MCP(2pi) on {n} wires = {w:.6f} (pi, not 0)")

# The Euler rule's counter-model: signed sums of phase angles modulo pi/2.
c = circuit(1, [p(0.4, 0), x(0), p(0.9, 0)])
sc = sign_classes(c)
print("\nsign classes of P(0.4) X P(0.9):", sc.classes, "opposite-sign pairs:",
      sc.pairing)
print("value set:", interp_E_values(c))

# The full report: one PASS per axiom means the theory is minimal.
print("\nminimality matrix for QC:")
for axiom in ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"):
    rep = minimality_report("QC", axiom, samples=100, seed=0)
    flags = " ".join(k for k, v in rep["results"].items() if v == "unsound")
    print(f"  {axiom:5s} -> unsound: {flags:6s} PASS={rep['pass']}")

# No interpretation is defined on INIT/DEST, so QCancilla's ancilla rules
# have no witness and its matrix does not pass.
rows = minimality_matrix("QCancilla", samples=15, seed=2)["rows"]
print("\nQCancilla rules without a witness:",
      sorted({k for r in rows.values() for k, v in r["results"].items() if v == "no-witness"}))
