"""Equational theory catalogs and derived-equation schemas.

Four theories are provided:

    QC        -- S2PI SPLUS H2 P0 C B CZ EH E I(n>=3)
    QCprime   -- QC with {EH, E} replaced by {PPLUS, EPRIME}
    QCugp     -- QC up to global phases (no S2PI/SPLUS, every cited rule
                 stripped of GPHASE gates, equality up to phase)
    QCancilla -- S2PI H2 AP A ACX FIVE_CX C B CZ P0 EH E

plus a catalog of derived-equation schemas (lemmas) and definitional
rewrites (macro unfoldings).  ``resolve_rule`` is the one way to build an
instance: what a step in a theory may cite, under that theory's id.
``equal_in`` is each theory's equality, and ``check_soundness`` validates
any instance numerically; nothing is assumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import (Circuit, Gate, _controls_phase, _real, _wire, circuit,
                      cnot, dest, gphase, h, init, mcp, mcrx, p, rx, swap,
                      unfold, x, z)
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

    @property
    def kind(self) -> str:
        """What the rule is in its theory: "axiom", "definition" or "lemma"."""
        return _kind(self.theory, self.name)


@dataclass(frozen=True)
class RuleInstance:
    """A named equation instantiated to two concrete circuits of equal arity."""

    id: RuleId
    params: tuple[float, ...]
    n: int
    lhs: Circuit
    rhs: Circuit

    @property
    def kind(self) -> str:
        return self.id.kind


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


# -- the rule table: name -> (n_params, wires, build) --------------------------

class _AtLeast(NamedTuple):
    """The ``wires`` entry of an n-ary rule: defined from ``n`` wires on."""

    n: int


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
    "I":       (0, _AtLeast(3), _build_i),
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
    "SWAP2":       (0, 2, _lem_swap2),
    "SWAPP":       (1, 2, _lem_swapp),
    "SWAPCX":      (0, 2, _lem_swapcx),
    "ZZCX":        (0, 2, _lem_zzcx),
    "CZEXP2":      (0, 2, _lem_czexp2),
    "RXNEG":       (1, 1, _lem_rxneg),
    "RXFLIP":      (1, 1, _lem_rxflip),
    "RXMINUS":     (1, 1, _lem_rxminus),
    "MCPFOLD5CX":  (0, 3, _lem_mcpfold5cx),
    "ESTAR_N":     (3, _AtLeast(1), _lem_estar_n),
    # macro definitions
    "RXDEF":   (1, 1, _definition(lambda ps, n: rx(ps[0], 0))),
    "ZDEF":    (0, 1, _definition(lambda ps, n: z(0))),
    "XDEF":    (0, 1, _definition(lambda ps, n: x(0))),
    "MCPDEF":  (1, _AtLeast(1), _definition(lambda ps, n: mcp(ps[0], _all(n)))),
    "MCRXDEF": (1, _AtLeast(1), _definition(lambda ps, n: mcrx(ps[0], _all(n)))),
}

_CATALOG = {
    "QC":        ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"),
    "QCprime":   ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "PPLUS", "EPRIME", "I"),
    "QCugp":     ("H2", "P0", "C", "B", "CZ", "EH", "E", "I"),
    "QCancilla": ("S2PI", "H2", "AP", "A", "ACX", "FIVE_CX", "C", "B", "CZ", "P0", "EH", "E"),
}

_AXIOMS = frozenset(name for names in _CATALOG.values() for name in names)
DEFINITIONAL = ("RXDEF", "ZDEF", "XDEF", "MCPDEF", "MCRXDEF")
# axioms of some theory that a shipped trace derives in another, where a
# step may cite them as lemmas
_LEMMAS = (frozenset(_RULES) - _AXIOMS - set(DEFINITIONAL)
           | {"PPLUS", "EH", "FIVE_CX", "E", "SPLUS", "I"})


def list_rules(theory: str) -> list[RuleId]:
    if theory not in _CATALOG:
        raise UnknownTheory(f"no theory {theory!r}; pick one of {THEORIES}")
    return [RuleId(theory, name) for name in _CATALOG[theory]]


class Signature(NamedTuple):
    """A catalog rule's parameter count, its fixed wire count (None for an
    n-ary rule) and the least wire count it is defined at."""

    n_params: int
    arity: int | None
    min_n: int


def signature(name: str) -> Signature:
    if name not in _RULES:
        raise UnknownLemma(f"no rule named {name!r}")
    n_params, wires, _ = _RULES[name]
    if isinstance(wires, _AtLeast):
        return Signature(n_params, None, wires.n)
    return Signature(n_params, wires, wires)


def _kind(theory: str, name: str) -> str:
    """What ``name`` is in ``theory``: an axiom if the theory lists it, one
    of the macro definitions, or else a lemma, checked but not an axiom."""
    if theory not in _CATALOG:
        raise UnknownTheory(f"no theory {theory!r}")
    if name in _CATALOG[theory]:
        return "axiom"
    if name in DEFINITIONAL:
        return "definition"
    if name in _LEMMAS:
        return "lemma"
    raise UnknownLemma(f"no rule named {name!r} in {theory}")


def resolve_rule(theory: str, name: str, params=(), n: int | None = None,
                 allow_lemmas: bool = False) -> RuleInstance:
    """The instance of ``name`` that a step in ``theory`` may cite, with the
    id ``RuleId(theory, name)``: one of the theory's axioms, a macro
    definition, or a lemma when ``allow_lemmas`` is set.

    Checks the parameters (real numbers, as many as the rule takes) and the
    wire count (an integer: the rule's fixed one when ``n`` is None, else at
    least the ``signature``'s ``min_n``).  QCugp cites every rule without
    global phases.
    """
    if _kind(theory, name) == "lemma" and not allow_lemmas:
        raise UnknownLemma(f"{name} is not an axiom of {theory} "
                           "(derived lemmas need allow_lemmas)")
    n_params, arity, min_n = signature(name)
    params = tuple(v if type(v) is float else _real(v, f"{name} param")
                   for v in params)
    if n is not None:
        n = _wire(n, f"{name} wire count")
    if len(params) != n_params:
        raise BadParams(f"{name} takes {n_params} params, got {len(params)}")
    if arity is None and (n is None or n < min_n):
        raise BadArity(f"{name} needs a wire count of at least {min_n}")
    if arity is not None and n not in (None, arity):
        raise BadArity(f"{name} is pinned at {arity} wires")
    build = _instance if n_params or arity is None else _fixed_instance
    return build(theory, name, params, n if arity is None else arity)


def _instance(theory: str, name: str, params: tuple[float, ...],
              n: int) -> RuleInstance:
    """Build the checked instance; QCugp's sides lose their GPHASE gates."""
    lhs, rhs = _RULES[name][2](params, n)
    if theory == "QCugp":
        lhs, rhs = (Circuit(c.n_in, c.n_out, tuple(g for g in c.gates if g.kind != "GPHASE"))
                    for c in (lhs, rhs))
    return RuleInstance(RuleId(theory, name), params, lhs.n_in, lhs, rhs)


# a rule without parameters and with a fixed width has one instance per
# theory, and a RuleInstance is immutable, so it is built once
_fixed_instance = functools.cache(_instance)


def equal_in(theory: str, a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether two circuit matrices are equal in ``theory``: exactly, or up
    to a global phase in QCugp."""
    return (equal_up_to_phase if theory == "QCugp" else equal_matrices)(a, b, tol)


def check_soundness(inst: RuleInstance, tol: float = 1e-9) -> bool:
    """Numerically compare both sides in the instance's theory."""
    return equal_in(inst.id.theory, eval_matrix(inst.lhs), eval_matrix(inst.rhs), tol)


def lemma_names() -> list[str]:
    return sorted(_LEMMAS) + sorted(DEFINITIONAL)


# -- sampling / master soundness suite ---------------------------------------

def sample_params(n_params: int, rng: np.random.Generator) -> tuple[float, ...]:
    return tuple(float(v) for v in rng.uniform(-4 * PI, 4 * PI, n_params))


def instances(theory: str, name: str, samples: int, max_qubits: int,
              rng: np.random.Generator):
    """Sampled instances of the axiom ``name`` of ``theory``.

    ``samples`` parameter draws, or one for a rule without parameters (its
    instance is fixed), at the rule's own width, or at every width from its
    least one to ``max_qubits`` for an n-ary rule such as (I).  Raises
    BadParams when that leaves the rule with no instance, so no report
    passes with nothing checked.
    """
    n_params, arity, min_n = signature(name)
    samples, max_qubits = _wire(samples, "samples"), _wire(max_qubits, "max_qubits")
    draws = samples if n_params else 1
    ns = range(min_n, max_qubits + 1) if arity is None else (arity,)
    if draws < 1 or not ns:
        raise BadParams(f"{name} gets no instance with samples={samples}, "
                        f"max_qubits={max_qubits}")
    for n in ns:
        for _ in range(draws):
            yield resolve_rule(theory, name, sample_params(n_params, rng), n)


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
