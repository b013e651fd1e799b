"""Quantum circuits as a prop, with executable equational theories.

Circuits over H, P(phi), CNOT and global phases (plus ancilla wires) are
wire-threaded gate lists identified up to deformation.  The package ships
the complete-and-minimal rule sets QC / QC' / QC_ugp / QC_ancilla as
instantiable, numerically checked equations, the closed-form Euler angle
functions and 1-qubit normal form, a site-directed rewrite engine with
machine-checked derivation traces, and the alternative interpretations that
mechanize the minimality and unboundedness arguments.
"""

from .circuit import (ANGLE_EPS, Circuit, Gate, canonicalize, circuit, cnot,
                      compose_par, compose_seq, ctrl, deformation_equal, dest,
                      expand_macros, gphase, h, init, mcp, mcrx, p, rx, swap,
                      x, z)
from .euler import (EulerCase, NormalFormParams, b_derivs_alpha2, b_funcs,
                    euler_e, euler_eprime, nf_from_unitary)
from .interp import (interp_E_values, interp_axiom, interp_k,
                     minimality_matrix, minimality_report, sign_classes,
                     sign_gap)
from .rewrite import (Derivation, Site, Step, apply_step, decide_equiv_1q,
                      find_sites, normalize_1q, replay, reverse_derivation)
from .semantics import (det_arg, equal_matrices, equal_up_to_phase,
                        eval_matrix, is_isometry)
from .theories import (THEORIES, RuleId, RuleInstance, check_soundness,
                       lemma_names, list_rules, resolve_rule, verify_theory)

__version__ = "0.1.0"

__all__ = [
    "ANGLE_EPS", "Circuit", "Gate", "canonicalize",
    "circuit", "cnot", "compose_par", "compose_seq", "ctrl",
    "deformation_equal", "dest", "expand_macros", "gphase", "h", "init",
    "mcp", "mcrx", "p", "rx", "swap", "x", "z",
    "EulerCase", "NormalFormParams", "b_derivs_alpha2", "b_funcs",
    "euler_e", "euler_eprime", "nf_from_unitary",
    "interp_E_values", "interp_axiom", "interp_k", "minimality_matrix",
    "minimality_report", "sign_classes", "sign_gap",
    "Derivation", "Site", "Step", "apply_step", "decide_equiv_1q",
    "find_sites", "normalize_1q", "replay", "reverse_derivation",
    "det_arg", "equal_matrices", "equal_up_to_phase", "eval_matrix",
    "is_isometry",
    "THEORIES", "RuleId", "RuleInstance", "check_soundness", "lemma_names",
    "list_rules", "resolve_rule", "verify_theory",
]
