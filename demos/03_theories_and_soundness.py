"""The four equational theories and the master soundness suite."""

import numpy as np

from qc_equate import (check_soundness, eval_matrix, list_rules, resolve_rule,
                       verify_theory)

for theory in ("QC", "QCprime", "QCugp", "QCancilla"):
    names = [r.name for r in list_rules(theory)]
    print(f"{theory:10s} ({len(names):2d} rules): {' '.join(names)}")

# Every rule is an instantiable pair of circuits, checked numerically.
inst = resolve_rule("QC", "C", (0.7,), 2)
print("\n(C) at phi = 0.7:")
print("  lhs:", [(g.kind, g.wires) for g in inst.lhs.gates])
print("  rhs:", [(g.kind, g.wires) for g in inst.rhs.gates])
print("  sound at 1e-9:", check_soundness(inst, 1e-9))

inst = resolve_rule("QC", "I", (), 4)
print("\n(I) on 4 wires: lhs is one", inst.lhs.gates[0].kind,
      "gate; semantics distance from identity:",
      np.max(np.abs(eval_matrix(inst.lhs) - np.eye(16))))

# The derived-equation catalog covers the intermediate identities, e.g. the
# multi-controlled Euler schema, checkable at any width.  A lemma is resolved
# in a theory (and needs allow_lemmas); the instance knows both.
for n in (1, 2, 3, 4):
    inst = resolve_rule("QC", "ESTAR_N", (0.9, 1.7, -0.6), n, True)
    print(f"(E*_{n}) sound:", check_soundness(inst, 1e-9))
for theory in ("QC", "QCprime"):
    inst = resolve_rule(theory, "PPLUS", (0.3, 0.4), None, True)
    print(f"{inst.id} is {inst.kind}")

# QCugp cites every rule without its global phases and compares up to one.
inst = resolve_rule("QCugp", "RXDEF", (0.4,), None, True)
print(f"{inst.id} ({inst.kind}) rhs:", [g.kind for g in inst.rhs.gates],
      "sound up to phase:", check_soundness(inst, 1e-9))

# And the whole catalog, randomized:
for theory in ("QC", "QCprime", "QCugp", "QCancilla"):
    report = verify_theory(theory, samples=100, max_qubits=6, seed=0)
    checks = sum(v["checks"] for v in report["rules"].values())
    print(f"{theory}: {checks} randomized instances, all sound = {report['ok']}")
