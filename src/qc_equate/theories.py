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

from .circuit import (Circuit, Gate, _controls_phase, circuit, cnot, ctrl,
                      dest, gphase, h, init, mcp, mcrx, p, rx, swap, unfold,
                      x, z)
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


# -- axiom builders: name -> (n_params, fixed_arity_or_None, build) ---------
# build(params, n) -> (lhs, rhs)

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


_AXIOMS = {
    "S2PI":    (0, 0, _build_s2pi),
    "SPLUS":   (2, 0, _build_splus),
    "H2":      (0, 1, _build_h2),
    "P0":      (0, 1, _build_p0),
    "C":       (1, 2, _build_c),
    "B":       (0, 2, _build_b),
    "CZ":      (0, 2, _build_cz),
    "EH":      (0, 1, _build_eh),
    "E":       (3, 1, _build_e),
    "I":       (0, None, _build_i),
    "PPLUS":   (2, 1, _build_pplus),
    "EPRIME":  (2, 1, _build_eprime),
    "A":       (0, 0, _build_a),
    "AP":      (1, 1, _build_ap),
    "ACX":     (0, 2, _build_acx),
    "FIVE_CX": (0, 3, _build_5cx),
}

_CATALOG = {
    "QC":        ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"),
    "QCprime":   ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "PPLUS", "EPRIME", "I"),
    "QCugp":     ("H2", "P0", "C", "B", "CZ", "EH", "E", "I"),
    "QCancilla": ("S2PI", "H2", "AP", "A", "ACX", "FIVE_CX", "C", "B", "CZ", "P0", "EH", "E"),
}


def list_rules(theory: str) -> list[RuleId]:
    if theory not in _CATALOG:
        raise UnknownTheory(f"no theory {theory!r}; pick one of {THEORIES}")
    return [RuleId(theory, name) for name in _CATALOG[theory]]


def rule_signature(name: str) -> tuple[int, int | None]:
    """(parameter count, fixed wire count or None for n-ary) of an axiom."""
    if name not in _AXIOMS:
        raise UnknownTheory(f"no axiom named {name!r}")
    np_, arity, _ = _AXIOMS[name]
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
    n_params, arity, build = _AXIOMS[rule.name]
    params = tuple(float(v) for v in params)
    if len(params) != n_params:
        raise BadParams(f"{rule.name} takes {n_params} params, got {len(params)}")
    if rule.name == "I":
        if n is None or n < 3:
            raise BadArity("(I) is an axiom for n >= 3 wires")
    elif arity is not None:
        if n is None:
            n = arity
        elif n != arity:
            raise BadArity(f"{rule.name} is pinned at {arity} wires")
    lhs, rhs = build(params, n)
    if rule.theory == "QCugp":
        lhs, rhs = _strip_phases(lhs), _strip_phases(rhs)
    return RuleInstance(rule, params, lhs.n_in, lhs, rhs)


def check_soundness(inst: RuleInstance, tol: float = 1e-9) -> bool:
    """Numerically compare both sides (up to phase for QCugp instances)."""
    a, b = eval_matrix(inst.lhs), eval_matrix(inst.rhs)
    if inst.id.theory == "QCugp":
        return equal_up_to_phase(a, b, tol)
    return equal_matrices(a, b, tol)


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

def _lem_cxflip(_, n):
    return (circuit(2, [swap(0, 1), cnot(0, 1), swap(0, 1)]),
            circuit(2, [cnot(1, 0)]))

def _lem_zzcx(_, n):
    return (circuit(2, [p(PI, 0), p(PI, 1), cnot(0, 1)]),
            circuit(2, [cnot(0, 1), p(PI, 1)]))

def _lem_czexp2(_, n):
    return circuit(2, _czexp(0, 1) + _czexp(0, 1)), circuit(2, [])

def _lem_czexpsym(_, n):
    return circuit(2, _czexp(0, 1)), circuit(2, _czexp(1, 0))

def _lem_czcomm(_, n):
    return (circuit(3, _czexp(0, 1) + _czexp(0, 2)),
            circuit(3, _czexp(0, 2) + _czexp(0, 1)))

def _lem_czcomm2(_, n):
    return (circuit(3, _czexp(0, 2) + _czexp(1, 2)),
            circuit(3, _czexp(1, 2) + _czexp(0, 2)))

def _lem_czcomm3(_, n):
    return (circuit(3, _czexp(0, 1) + _czexp(1, 2)),
            circuit(3, _czexp(1, 2) + _czexp(0, 1)))

def _lem_rx2pi(_, n):
    return circuit(1, [rx(2 * PI, 0)]), circuit(1, [gphase(PI)])

def _lem_xx(_, n):
    return circuit(1, [x(0), x(0)]), circuit(1, [])

def _lem_zz(_, n):
    return circuit(1, [z(0), z(0)]), circuit(1, [])

def _lem_pminuspi(_, n):
    return circuit(1, [p(-PI, 0)]), circuit(1, [p(PI, 0)])

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

def _lem_heulerminus(_, n):
    return (circuit(1, [p(-PI / 2, 0), rx(-PI / 2, 0), p(-PI / 2, 0)]),
            circuit(1, [h(0)]))

def _lem_heulerrpr(_, n):
    return (circuit(1, [gphase(PI / 4), rx(PI / 2, 0), p(PI / 2, 0), rx(PI / 2, 0)]),
            circuit(1, [h(0)]))

def _lem_rxcommutcnot(ps, n):
    (theta,) = ps
    return (circuit(2, [rx(theta, 1), cnot(0, 1)]),
            circuit(2, [cnot(0, 1), rx(theta, 1)]))

def _lem_xcommutcnot(_, n):
    return (circuit(2, [x(1), cnot(0, 1)]), circuit(2, [cnot(0, 1), x(1)]))

def _lem_rxphasegadget(ps, n):
    (theta,) = ps
    return (circuit(2, [cnot(0, 1), rx(theta, 1), cnot(0, 1)]),
            circuit(2, [rx(theta, 1)]))

def _lem_xcnotxx(_, n):
    return (circuit(2, [x(0), cnot(0, 1)]), circuit(2, [cnot(0, 1), x(0), x(1)]))

def _lem_zcnotzz(_, n):
    return (circuit(2, [z(1), cnot(0, 1)]), circuit(2, [cnot(0, 1), z(0), z(1)]))

def _lem_cnottargetcommut(_, n):
    return (circuit(3, [cnot(0, 2), cnot(1, 2)]), circuit(3, [cnot(1, 2), cnot(0, 2)]))

def _lem_cnotcontrolcommut(_, n):
    return (circuit(3, [cnot(0, 1), cnot(0, 2)]), circuit(3, [cnot(0, 2), cnot(0, 1)]))

def _lem_i2(_, n):
    return circuit(2, [mcp(2 * PI, (0, 1))]), circuit(2, [])

def _all(n):
    return tuple(range(n))

def _lem_mcp0(_, n):
    return circuit(n, [mcp(0.0, _all(n))]), circuit(n, [])

def _lem_mcrx0(_, n):
    return circuit(n, [mcrx(0.0, _all(n))]), circuit(n, [])

def _lem_mcpplus(ps, n):
    a, b = ps
    return (circuit(n, [mcp(a, _all(n)), mcp(b, _all(n))]),
            circuit(n, [mcp(a + b, _all(n))]))

def _lem_mcrxplus(ps, n):
    a, b = ps
    return (circuit(n, [mcrx(a, _all(n)), mcrx(b, _all(n))]),
            circuit(n, [mcrx(a + b, _all(n))]))

def _lem_mcpop(ps, n):
    (phi,) = ps
    t = n - 1
    return (circuit(n, [x(t), mcp(phi, _all(n)), x(t)]),
            circuit(n, [_controls_phase(phi, _all(n)[:-1]), mcp(-phi, _all(n))]))

def _lem_mcrxop(ps, n):
    (theta,) = ps
    t = n - 1
    return (circuit(n, [z(t), mcrx(theta, _all(n)), z(t)]),
            circuit(n, [mcrx(-theta, _all(n))]))

def _lem_mczrx(ps, n):
    (theta,) = ps
    return (circuit(n, [mcp(PI, _all(n)), mcrx(theta, _all(n))]),
            circuit(n, [mcrx(-theta, _all(n)), mcp(PI, _all(n))]))

def _lem_mcpopfullctrlrx(ps, n):
    (phi,) = ps
    return (circuit(n, [mcrx(PI, _all(n)), mcp(phi, _all(n)), mcrx(-PI, _all(n))]),
            circuit(n, [_controls_phase(phi, _all(n)[:-1]), mcp(-phi, _all(n))]))

def _lem_mcpcommutcnot(ps, n):
    (phi,) = ps
    return (circuit(3, [mcp(phi, (0, 1)), cnot(0, 2)]),
            circuit(3, [cnot(0, 2), mcp(phi, (0, 1))]))

def _lem_mcrxcommutcnot(ps, n):
    (theta,) = ps
    return (circuit(3, [mcrx(theta, (0, 1)), cnot(0, 2)]),
            circuit(3, [cnot(0, 2), mcrx(theta, (0, 1))]))

def _lem_mctrlpthroughrxpi(ps, n):
    (phi,) = ps
    return (circuit(3, [mcrx(PI, (0, 1)), ctrl("10", p(phi, 0), (0, 1, 2))]),
            circuit(3, [ctrl("11", p(phi, 0), (0, 1, 2)), mcrx(PI, (0, 1))]))

def _lem_ctrl_indep(ps, n):
    (phi,) = ps
    return (circuit(3, [ctrl("11", p(phi, 0), (0, 1, 2)), ctrl("10", p(phi, 0), (0, 1, 2))]),
            circuit(3, [ctrl("1", p(phi, 0), (0, 2))]))

def _lem_ctrl_commut(ps, n):
    (phi,) = ps
    return (circuit(3, [ctrl("1", p(phi, 0), (0, 1)), ctrl("0", x(0), (0, 2))]),
            circuit(3, [ctrl("0", x(0), (0, 2)), ctrl("1", p(phi, 0), (0, 1))]))

def _lem_ctrl_p_commut(ps, n):
    a, b = ps
    return (circuit(3, [ctrl("01", p(a, 0), (0, 1, 2)), ctrl("10", p(b, 0), (1, 2, 0))]),
            circuit(3, [ctrl("10", p(b, 0), (1, 2, 0)), ctrl("01", p(a, 0), (0, 1, 2))]))

def _lem_ctrl_swap_controls(ps, n):
    (phi,) = ps
    return (circuit(3, [ctrl("10", p(phi, 0), (0, 1, 2))]),
            circuit(3, [ctrl("01", p(phi, 0), (1, 0, 2))]))

def _lem_ctrl_p_target_sym(ps, n):
    (phi,) = ps
    return (circuit(3, [ctrl("11", p(phi, 0), (0, 1, 2))]),
            circuit(3, [ctrl("11", p(phi, 0), (0, 2, 1))]))

def _lem_mcpfold5cx(_, n):
    # lhs . rhs^-1 of the 5CX equation folds into a 2pi multi-control;
    # the gate-level fold is routine CNOT/phase bookkeeping
    return (circuit(3, [cnot(0, 1), cnot(1, 2), cnot(0, 1)]),
            circuit(3, [mcp(2 * PI, (0, 1, 2)), cnot(1, 2), cnot(0, 2)]))


def _lem_estar_n(ps, n):
    a1, a2, a3 = ps
    nf, _ = euler_e(a1, a2, a3)
    b0, b1, b2, b3 = nf
    w = _all(n)
    if n == 1:
        lhs = circuit(1, [rx(a1, 0), p(a2, 0), rx(a3, 0)])
        rhs = nf.circuit()
        return lhs, rhs
    lhs = circuit(n, [mcrx(a1, w), mcp(a2, w), mcrx(a3, w)])
    rhs = circuit(n, [_controls_phase(b0, w[:-1]), mcp(b1, w), mcrx(b2, w), mcp(b3, w)])
    return lhs, rhs


# name -> (n_params, fixed_arity_or_None, build)
_LEMMAS = {
    "P2PI":            (0, 1, _lem_p2pi),
    "PPLUS":           (2, 1, _build_pplus),
    "EH":              (0, 1, _build_eh),      # derived in QCprime/QCancilla'
    "PMINUS":          (1, 1, _lem_pminus),
    "S0":              (0, 0, _lem_s0),
    "BPRIME":          (0, 2, _lem_bprime),
    "CNOT2":           (0, 2, _lem_cnot2),
    "PCOMMUTCNOT":     (1, 2, _lem_pcommutcnot),
    "PGADGET":         (1, 2, _lem_pgadget),
    "HHCNOTHH":        (0, 2, _lem_hhcnothh),
    "CPMINUSPI":       (0, 2, _lem_cpminuspi),
    "FIVECX":          (0, 3, _build_5cx),
    "SWAP2":           (0, 2, _lem_swap2),
    "SWAPP":           (1, 2, _lem_swapp),
    "SWAPCX":          (0, 2, _lem_swapcx),
    "CXFLIP":          (0, 2, _lem_cxflip),
    "ZZCX":            (0, 2, _lem_zzcx),
    "CZEXP2":          (0, 2, _lem_czexp2),
    "CZEXPSYM":        (0, 2, _lem_czexpsym),
    "CZCOMM":          (0, 3, _lem_czcomm),
    "CZCOMM2":         (0, 3, _lem_czcomm2),
    "CZCOMM3":         (0, 3, _lem_czcomm3),
    "RX2PI":           (0, 1, _lem_rx2pi),
    "XX":              (0, 1, _lem_xx),
    "ZZ":              (0, 1, _lem_zz),
    "PMINUSPI":        (0, 1, _lem_pminuspi),
    "RXPLUS":          (2, 1, _lem_rxplus),
    "RX0":             (0, 1, _lem_rx0),
    "RXNEG":           (1, 1, _lem_rxneg),
    "RXFLIP":          (1, 1, _lem_rxflip),
    "RXMINUS":         (1, 1, _lem_rxminus),
    "HEULERMINUS":     (0, 1, _lem_heulerminus),
    "HEULERRPR":       (0, 1, _lem_heulerrpr),
    "RXCOMMUTCNOT":    (1, 2, _lem_rxcommutcnot),
    "XCOMMUTCNOT":     (0, 2, _lem_xcommutcnot),
    "RXPHASEGADGET":   (1, 2, _lem_rxphasegadget),
    "XCNOTXX":         (0, 2, _lem_xcnotxx),
    "ZCNOTZZ":         (0, 2, _lem_zcnotzz),
    "CNOTTARGETCOMMUT":(0, 3, _lem_cnottargetcommut),
    "CNOTCONTROLCOMMUT":(0, 3, _lem_cnotcontrolcommut),
    "I2":              (0, 2, _lem_i2),
    "MCP0":            (0, None, _lem_mcp0),
    "MCRX0":           (0, None, _lem_mcrx0),
    "MCPPLUS":         (2, None, _lem_mcpplus),
    "MCRXPLUS":        (2, None, _lem_mcrxplus),
    "MCPOP":           (1, None, _lem_mcpop),
    "MCRXOP":          (1, None, _lem_mcrxop),
    "MCZRX":           (1, None, _lem_mczrx),
    "MCPOPFULLCTRLRX": (1, None, _lem_mcpopfullctrlrx),
    "MCPCOMMUTCNOT":   (1, 3, _lem_mcpcommutcnot),
    "MCRXCOMMUTCNOT":  (1, 3, _lem_mcrxcommutcnot),
    "MCTRLPTHROUGHRXPI":(1, 3, _lem_mctrlpthroughrxpi),
    "MCPFOLD5CX":      (0, 3, _lem_mcpfold5cx),
    "CTRL_INDEP":      (1, 3, _lem_ctrl_indep),
    "CTRL_COMMUT":     (1, 3, _lem_ctrl_commut),
    "CTRL_P_COMMUT":   (2, 3, _lem_ctrl_p_commut),
    "CTRL_SWAP_CONTROLS": (1, 3, _lem_ctrl_swap_controls),
    "CTRL_P_TARGET_SYM": (1, 3, _lem_ctrl_p_target_sym),
    "ESTAR_N":         (3, None, _lem_estar_n),
}


# -- definitional rewrites (macro unfoldings, usable in any theory) ----------

def _definition(macro):
    """Builder for a macro's definition: the gate ``macro(params, n)`` on
    the left, its one-level unfolding on the right."""
    def build(ps, n):
        g = macro(ps, n)
        return circuit(n, [g]), circuit(n, unfold(g))
    return build


_DEFS = {
    "RXDEF":   (1, 1, _definition(lambda ps, n: rx(ps[0], 0))),
    "ZDEF":    (0, 1, _definition(lambda ps, n: z(0))),
    "XDEF":    (0, 1, _definition(lambda ps, n: x(0))),
    "MCPDEF":  (1, None, _definition(lambda ps, n: mcp(ps[0], _all(n)))),
    "MCRXDEF": (1, None, _definition(lambda ps, n: mcrx(ps[0], _all(n)))),
}

DEFINITIONAL = tuple(_DEFS)


def lemma_names() -> list[str]:
    return sorted(_LEMMAS) + sorted(_DEFS)


def lemma_signature(name: str) -> tuple[int, int | None]:
    table = _LEMMAS if name in _LEMMAS else _DEFS
    if name not in table:
        raise UnknownLemma(f"no lemma named {name!r}")
    np_, arity, _ = table[name]
    return np_, arity


def lemma_instantiate(name: str, params=(), n: int | None = None) -> RuleInstance:
    table = _LEMMAS if name in _LEMMAS else _DEFS
    if name not in table:
        raise UnknownLemma(f"no lemma named {name!r}")
    n_params, arity, build = table[name]
    params = tuple(float(v) for v in params)
    if len(params) != n_params:
        raise BadParams(f"{name} takes {n_params} params, got {len(params)}")
    if arity is None:
        if n is None or n < 1:
            raise BadArity(f"{name} needs an explicit wire count")
    else:
        if n is None:
            n = arity
        elif n != arity:
            raise BadArity(f"{name} is pinned at {arity} wires")
    lhs, rhs = build(params, n)
    return RuleInstance(RuleId("LEMMA", name), params, lhs.n_in, lhs, rhs)


# -- sampling / master soundness suite ---------------------------------------

def sample_params(n_params: int, rng: np.random.Generator) -> tuple[float, ...]:
    return tuple(float(v) for v in rng.uniform(-4 * PI, 4 * PI, n_params))


def verify_theory(theory: str, samples: int = 100, max_qubits: int = 6,
                  tol: float = 1e-9, seed: int = 0) -> dict:
    """Check every axiom of a theory over random parameter draws.

    Returns {rule name: {"checks": int, "ok": bool}} plus an "ok" summary key.
    """
    rng = np.random.default_rng(seed)
    report: dict = {"theory": theory, "tol": tol, "rules": {}, "ok": True}
    for rid in list_rules(theory):
        n_params, arity = rule_signature(rid.name)
        draws = samples if n_params > 0 else min(samples, 3)
        ok, checks = True, 0
        if rid.name == "I":
            ns = range(3, max_qubits + 1)
        else:
            ns = (arity,)
        for n in ns:
            for _ in range(draws if n_params else min(draws, 3)):
                ps = sample_params(n_params, rng)
                inst = instantiate(rid, ps, n)
                checks += 1
                if not check_soundness(inst, tol):
                    ok = False
        report["rules"][rid.name] = {"checks": checks, "ok": ok}
        report["ok"] = report["ok"] and ok
    return report
