"""Equational theory catalogs and derived-equation schemas.

Four theories are provided:

    QC        -- S2PI SPLUS H2 P0 C B CZ EH E I(n>=3)
    QCprime   -- QC with {EH, E} replaced by {PPLUS, EPRIME}
    QCugp     -- QC up to global phases (no S2PI/SPLUS, circuits stripped
                 of GPHASE gates, soundness checked up to phase)
    QCancilla -- S2PI H2 AP A ACX FIVE_CX C B CZ P0 EH E

plus a catalog of derived-equation schemas (lemmas) and definitional
rewrites (macro unfoldings).  ``check_soundness`` validates any instance
numerically; nothing is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (Circuit, Gate, _controls_phase, circuit, cnot, dest,
                      gphase, h, init, mcp, mcrx, p, rx, swap, unfold, x, z)
from .errors import BadArity, BadParams, UnknownLemma, UnknownTheory
from .euler import euler_e, euler_eprime
from .semantics import equal_matrices, equal_up_to_phase, eval_matrix

THEORIES = ("QC", "QCprime", "QCugp", "QCancilla")

PI = math.pi


@dataclass(frozen=True)
class RuleId:
    theory: str
    name: str

    def __str__(self):
        return f"{self.theory}:{self.name}"


@dataclass(frozen=True)
class RuleInstance:
    """A named equation instantiated to two concrete circuits of equal arity."""

    id: RuleId
    params: tuple[float, ...]
    n: int
    lhs: Circuit
    rhs: Circuit


def _czexp(a: int, b: int, sign: float = 1.0) -> list[Gate]:
    """The two-CNOT controlled-phase decomposition (the CZ rule's RHS, phi=pi)."""
    s = sign * PI / 2.0
    return [p(s, a), p(s, b), cnot(a, b), p(-s, b), cnot(a, b)]


# -- axiom builders: build(params, n) -> (lhs, rhs) --------------------------

def _build_s2pi(_, n):
    return circuit(0, [gphase(2 * PI)]), circuit(0, [])

def _build_splus(ps, n):
    a, b = ps
    return circuit(0, [gphase(a), gphase(b)]), circuit(0, [gphase(a + b)])

def _build_h2(_, n):
    return circuit(1, [h(0), h(0)]), circuit(1, [])

def _build_p0(_, n):
    return circuit(1, [p(0.0, 0)]), circuit(1, [])

def _build_c(ps, n):
    (phi,) = ps
    return (circuit(2, [cnot(0, 1), p(phi, 0), cnot(0, 1)]),
            circuit(2, [p(phi, 0)]))

def _build_b(_, n):
    return (circuit(2, [cnot(0, 1), cnot(1, 0)]),
            circuit(2, [swap(0, 1), cnot(0, 1)]))

def _build_cz(_, n):
    return (circuit(2, [h(1), cnot(0, 1), h(1)]), circuit(2, _czexp(0, 1)))

def _build_eh(_, n):
    return (circuit(1, [h(0)]),
            circuit(1, [p(PI / 2, 0), rx(PI / 2, 0), p(PI / 2, 0)]))

def _build_e(ps, n):
    a1, a2, a3 = ps
    nf, _ = euler_e(a1, a2, a3)
    return (circuit(1, [rx(a1, 0), p(a2, 0), rx(a3, 0)]), nf.circuit())

def _build_i(_, n):
    return circuit(n, [mcp(2 * PI, tuple(range(n)))]), circuit(n, [])

def _build_pplus(ps, n):
    a, b = ps
    return circuit(1, [p(a, 0), p(b, 0)]), circuit(1, [p(a + b, 0)])

def _build_eprime(ps, n):
    a1p, a3p = ps
    nf, _ = euler_eprime(a1p, a3p)
    return (circuit(1, [rx(a1p, 0), h(0), rx(a3p, 0)]), nf.circuit())

def _build_a(_, n):
    return Circuit(0, 0, (init(0), dest(0))), Circuit(0, 0, ())

def _build_ap(ps, n):
    (phi,) = ps
    return Circuit(0, 1, (init(0), p(phi, 0))), Circuit(0, 1, (init(0),))

def _build_acx(_, n):
    return Circuit(1, 2, (init(0), cnot(0, 1))), Circuit(1, 2, (init(0),))

def _build_5cx(_, n):
    return (circuit(3, [cnot(0, 1), cnot(1, 2), cnot(0, 1)]),
            circuit(3, [cnot(1, 2), cnot(0, 2)]))


# -- derived-equation schemas -------------------------------------------------

def _lem_p2pi(_, n):
    return circuit(1, [p(2 * PI, 0)]), circuit(1, [])

def _lem_pminus(ps, n):
    (phi,) = ps
    return (circuit(1, [x(0), p(phi, 0), x(0)]),
            circuit(1, [gphase(phi), p(-phi, 0)]))

def _lem_s0(_, n):
    return circuit(0, [gphase(0.0)]), circuit(0, [])

def _lem_bprime(_, n):
    return (circuit(2, [cnot(0, 1), cnot(1, 0), cnot(0, 1)]),
            circuit(2, [swap(0, 1)]))

def _lem_cnot2(_, n):
    return circuit(2, [cnot(0, 1), cnot(0, 1)]), circuit(2, [])

def _lem_pcommutcnot(ps, n):
    (phi,) = ps
    return (circuit(2, [p(phi, 0), cnot(0, 1)]),
            circuit(2, [cnot(0, 1), p(phi, 0)]))

def _lem_pgadget(ps, n):
    (phi,) = ps
    return (circuit(2, [cnot(0, 1), p(phi, 1), cnot(0, 1)]),
            circuit(2, [cnot(1, 0), p(phi, 0), cnot(1, 0)]))

def _lem_hhcnothh(_, n):
    return (circuit(2, [h(0), h(1), cnot(0, 1), h(0), h(1)]),
            circuit(2, [cnot(1, 0)]))

def _lem_cpminuspi(_, n):
    return (circuit(2, _czexp(0, 1, sign=-1.0)), circuit(2, _czexp(0, 1)))

def _lem_swap2(_, n):
    return circuit(2, [swap(0, 1), swap(0, 1)]), circuit(2, [])

def _lem_swapp(ps, n):
    (phi,) = ps
    return (circuit(2, [p(phi, 0), swap(0, 1)]),
            circuit(2, [swap(0, 1), p(phi, 1)]))

def _lem_swapcx(_, n):
    return (circuit(2, [cnot(0, 1), swap(0, 1)]),
            circuit(2, [swap(0, 1), cnot(1, 0)]))

def _lem_zzcx(_, n):
    return (circuit(2, [p(PI, 0), p(PI, 1), cnot(0, 1)]),
            circuit(2, [cnot(0, 1), p(PI, 1)]))

def _lem_czexp2(_, n):
    return circuit(2, _czexp(0, 1) + _czexp(0, 1)), circuit(2, [])

def _lem_rxplus(ps, n):
    a, b = ps
    return circuit(1, [rx(a, 0), rx(b, 0)]), circuit(1, [rx(a + b, 0)])

def _lem_rx0(_, n):
    return circuit(1, [rx(0.0, 0)]), circuit(1, [])

def _lem_rxneg(ps, n):
    (theta,) = ps
    return (circuit(1, [rx(theta, 0)]),
            circuit(1, [gphase(PI), rx(theta - 2 * PI, 0)]))

def _lem_rxflip(ps, n):
    (theta,) = ps
    return (circuit(1, [rx(theta, 0)]),
            circuit(1, [gphase(PI), p(PI, 0), rx(2 * PI - theta, 0), p(PI, 0)]))

def _lem_rxminus(ps, n):
    (theta,) = ps
    return (circuit(1, [p(PI, 0), rx(theta, 0), p(PI, 0)]),
            circuit(1, [rx(-theta, 0)]))

def _all(n):
    return tuple(range(n))

def _lem_mcpfold5cx(_, n):
    # lhs . rhs^-1 of the 5CX equation folds into a 2pi multi-control;
    # the gate-level fold is routine CNOT/phase bookkeeping
    return (circuit(3, [cnot(0, 1), cnot(1, 2), cnot(0, 1)]),
            circuit(3, [mcp(2 * PI, (0, 1, 2)), cnot(1, 2), cnot(0, 2)]))


def _lem_estar_n(ps, n):
    if n == 1:
        return _build_e(ps, n)
    a1, a2, a3 = ps
    nf, _ = euler_e(a1, a2, a3)
    b0, b1, b2, b3 = nf
    w = _all(n)
    lhs = circuit(n, [mcrx(a1, w), mcp(a2, w), mcrx(a3, w)])
    rhs = circuit(n, [_controls_phase(b0, w[:-1]), mcp(b1, w), mcrx(b2, w), mcp(b3, w)])
    return lhs, rhs


# -- definitional rewrites (macro unfoldings, usable in any theory) ----------

def _definition(macro):
    """Builder for a macro's definition: the gate ``macro(params, n)`` on
    the left, its one-level unfolding on the right."""
    def build(ps, n):
        g = macro(ps, n)
        return circuit(n, [g]), circuit(n, unfold(g))
    return build


# -- the rule table: name -> (n_params, fixed_arity_or_None, build) -----------

_RULES = {
    # axioms
    "S2PI":    (0, 0, _build_s2pi),
    "SPLUS":   (2, 0, _build_splus),
    "H2":      (0, 1, _build_h2),
    "P0":      (0, 1, _build_p0),
    "C":       (1, 2, _build_c),
    "B":       (0, 2, _build_b),
    "CZ":      (0, 2, _build_cz),
    "EH":      (0, 1, _build_eh),      # derived in QCprime/QCancilla'
    "E":       (3, 1, _build_e),
    "I":       (0, None, _build_i),
    "PPLUS":   (2, 1, _build_pplus),   # derived in QC
    "EPRIME":  (2, 1, _build_eprime),
    "A":       (0, 0, _build_a),
    "AP":      (1, 1, _build_ap),
    "ACX":     (0, 2, _build_acx),
    "FIVE_CX": (0, 3, _build_5cx),
    # derived lemmas
    "P2PI":        (0, 1, _lem_p2pi),
    "PMINUS":      (1, 1, _lem_pminus),
    "S0":          (0, 0, _lem_s0),
    "BPRIME":      (0, 2, _lem_bprime),
    "CNOT2":       (0, 2, _lem_cnot2),
    "PCOMMUTCNOT": (1, 2, _lem_pcommutcnot),
    "PGADGET":     (1, 2, _lem_pgadget),
    "HHCNOTHH":    (0, 2, _lem_hhcnothh),
    "CPMINUSPI":   (0, 2, _lem_cpminuspi),
    "FIVECX":      (0, 3, _build_5cx),
    "SWAP2":       (0, 2, _lem_swap2),
    "SWAPP":       (1, 2, _lem_swapp),
    "SWAPCX":      (0, 2, _lem_swapcx),
    "ZZCX":        (0, 2, _lem_zzcx),
    "CZEXP2":      (0, 2, _lem_czexp2),
    "RXPLUS":      (2, 1, _lem_rxplus),
    "RX0":         (0, 1, _lem_rx0),
    "RXNEG":       (1, 1, _lem_rxneg),
    "RXFLIP":      (1, 1, _lem_rxflip),
    "RXMINUS":     (1, 1, _lem_rxminus),
    "MCPFOLD5CX":  (0, 3, _lem_mcpfold5cx),
    "ESTAR_N":     (3, None, _lem_estar_n),
    # macro definitions
    "RXDEF":   (1, 1, _definition(lambda ps, n: rx(ps[0], 0))),
    "ZDEF":    (0, 1, _definition(lambda ps, n: z(0))),
    "XDEF":    (0, 1, _definition(lambda ps, n: x(0))),
    "MCPDEF":  (1, None, _definition(lambda ps, n: mcp(ps[0], _all(n)))),
    "MCRXDEF": (1, None, _definition(lambda ps, n: mcrx(ps[0], _all(n)))),
}

_CATALOG = {
    "QC":        ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"),
    "QCprime":   ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "PPLUS", "EPRIME", "I"),
    "QCugp":     ("H2", "P0", "C", "B", "CZ", "EH", "E", "I"),
    "QCancilla": ("S2PI", "H2", "AP", "A", "ACX", "FIVE_CX", "C", "B", "CZ", "P0", "EH", "E"),
}

_AXIOMS = frozenset(name for names in _CATALOG.values() for name in names)
DEFINITIONAL = ("RXDEF", "ZDEF", "XDEF", "MCPDEF", "MCRXDEF")
# PPLUS and EH are axioms of some theories and lemmas derived in others
_LEMMAS = frozenset(_RULES) - _AXIOMS - set(DEFINITIONAL) | {"PPLUS", "EH"}
_LEMMAS_AND_DEFS = _LEMMAS | set(DEFINITIONAL)


def _sides(name: str, params: tuple[float, ...], n: int | None,
           min_n: int = 1) -> tuple[Circuit, Circuit]:
    """Both sides of the rule ``name``, after checking the parameter count
    and the wire count (the rule's fixed one when ``n`` is None)."""
    n_params, arity, build = _RULES[name]
    if len(params) != n_params:
        raise BadParams(f"{name} takes {n_params} params, got {len(params)}")
    if arity is None:
        if n is None or n < min_n:
            raise BadArity(f"{name} needs a wire count of at least {min_n}")
    elif n is None:
        n = arity
    elif n != arity:
        raise BadArity(f"{name} is pinned at {arity} wires")
    return build(params, n)


def list_rules(theory: str) -> list[RuleId]:
    if theory not in _CATALOG:
        raise UnknownTheory(f"no theory {theory!r}; pick one of {THEORIES}")
    return [RuleId(theory, name) for name in _CATALOG[theory]]


def rule_signature(name: str) -> tuple[int, int | None]:
    """(parameter count, fixed wire count or None for n-ary) of an axiom."""
    if name not in _AXIOMS:
        raise UnknownTheory(f"no axiom named {name!r}")
    np_, arity, _ = _RULES[name]
    return np_, arity


def _strip_phases(c: Circuit) -> Circuit:
    return Circuit(c.n_in, c.n_out, tuple(g for g in c.gates if g.kind != "GPHASE"))


def instantiate(rule: RuleId | tuple[str, str], params=(), n: int | None = None) -> RuleInstance:
    if isinstance(rule, tuple):
        rule = RuleId(*rule)
    if rule.theory not in _CATALOG:
        raise UnknownTheory(f"no theory {rule.theory!r}")
    if rule.name not in _CATALOG[rule.theory]:
        raise UnknownTheory(f"{rule.name} is not an axiom of {rule.theory}")
    params = tuple(float(v) for v in params)
    # (I) is an axiom for n >= 3 wires only
    lhs, rhs = _sides(rule.name, params, n, min_n=3 if rule.name == "I" else 1)
    if rule.theory == "QCugp":
        lhs, rhs = _strip_phases(lhs), _strip_phases(rhs)
    return RuleInstance(rule, params, lhs.n_in, lhs, rhs)


def check_soundness(inst: RuleInstance, tol: float = 1e-9) -> bool:
    """Numerically compare both sides (up to phase for QCugp instances)."""
    a, b = eval_matrix(inst.lhs), eval_matrix(inst.rhs)
    if inst.id.theory == "QCugp":
        return equal_up_to_phase(a, b, tol)
    return equal_matrices(a, b, tol)


def lemma_names() -> list[str]:
    return sorted(_LEMMAS) + sorted(DEFINITIONAL)


def lemma_signature(name: str) -> tuple[int, int | None]:
    if name not in _LEMMAS_AND_DEFS:
        raise UnknownLemma(f"no lemma named {name!r}")
    np_, arity, _ = _RULES[name]
    return np_, arity


def lemma_instantiate(name: str, params=(), n: int | None = None) -> RuleInstance:
    if name not in _LEMMAS_AND_DEFS:
        raise UnknownLemma(f"no lemma named {name!r}")
    params = tuple(float(v) for v in params)
    lhs, rhs = _sides(name, params, n)
    return RuleInstance(RuleId("LEMMA", name), params, lhs.n_in, lhs, rhs)


# -- sampling / master soundness suite ---------------------------------------

def sample_params(n_params: int, rng: np.random.Generator) -> tuple[float, ...]:
    return tuple(float(v) for v in rng.uniform(-4 * PI, 4 * PI, n_params))


def instances(theory: str, name: str, samples: int, max_qubits: int,
              rng: np.random.Generator):
    """Sampled instances of the axiom ``name`` of ``theory``.

    ``samples`` parameter draws, or one for a rule without parameters (its
    instance is fixed), at the rule's own width, or at every width from 3
    to ``max_qubits`` for the n-ary (I).  Raises BadParams when that leaves
    the rule with no instance, so no report passes with nothing checked.
    """
    n_params, arity = rule_signature(name)
    draws = samples if n_params else 1
    ns = range(3, max_qubits + 1) if arity is None else (arity,)
    if draws < 1 or not ns:
        raise BadParams(f"{name} gets no instance with samples={samples}, "
                        f"max_qubits={max_qubits}")
    rid = RuleId(theory, name)
    for n in ns:
        for _ in range(draws):
            yield instantiate(rid, sample_params(n_params, rng), n)


def verify_theory(theory: str, samples: int = 100, max_qubits: int = 6,
                  tol: float = 1e-9, seed: int = 0) -> dict:
    """Check every axiom of a theory on its sampled ``instances``.

    A parametrised rule is checked ``samples`` times; a rule without
    parameters has one fixed instance, checked once per width.  Returns
    {rule name: {"checks": int, "ok": bool}} plus an "ok" summary key.
    """
    rng = np.random.default_rng(seed)
    report: dict = {"theory": theory, "tol": tol, "rules": {}, "ok": True}
    for rid in list_rules(theory):
        oks = [check_soundness(inst, tol)
               for inst in instances(theory, rid.name, samples, max_qubits, rng)]
        report["rules"][rid.name] = {"checks": len(oks), "ok": all(oks)}
        report["ok"] = report["ok"] and all(oks)
    return report
