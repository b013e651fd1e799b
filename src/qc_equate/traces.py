"""The shipped derivation set.

Each builder derives a catalog rule in a theory: it starts on the source
side of the rule's instance and is checked to end on the target side.  A
step names a rule, its parameters and the wires it fires on; the matcher
of ``find_sites`` finds its gates (an insertion names a gate index).  Steps
are applied as the trace is built, so it replays by construction.
``derive_rule`` traces normalize both sides and glue them at the normal form.

``all_traces(...)`` instantiates the whole set at fixed sample angles;
``write_traces(dir)`` dumps them as JSON files for the CLI replayer.
"""

from __future__ import annotations

import json
import math
import os

from .circuit import TWO_PI, Circuit
from .errors import NoMatch, QcError
from .rewrite import (Derivation, Site, Step, _Recorder, _matches, _sides,
                      concat_derivations, deformation_equal, normalize_1q, replay,
                      reverse_derivation)
from .theories import resolve_rule

PI = math.pi


class _Builder(_Recorder):
    """Derives one catalog rule: starts on the source side of its instance
    and must end on the target side."""

    def __init__(self, theory: str, rule: str, params=(), n: int | None = None,
                 direction: str = "LR"):
        inst = resolve_rule(theory, rule, params, n, True)
        src, self.target = (inst.lhs, inst.rhs) if direction == "LR" else (inst.rhs, inst.lhs)
        super().__init__(theory, src)

    def rewrite(self, rule, direction, params=(), n=None, wires=(), at=None, nth=0):
        """One step: spliced in at gate ``at``, or at the ``nth`` site on ``wires``."""
        if at is not None:
            return self.do(rule, direction, params, n, Site((), tuple(wires), at))
        step = Step(rule, direction, tuple(float(v) for v in params), n)
        hits = _matches(self.gates, self.initial.n_in,
                        *_sides(step, self.theory, True), tuple(wires))
        if nth >= len(hits):
            raise NoMatch(f"{rule} {direction}: no site {nth} on wires {tuple(wires)}")
        return self._keep(Step(rule, direction, step.params, n, hits[nth][0]), hits[nth][1])

    def done(self, name: str) -> Derivation:
        d = self.derivation(name)
        if not deformation_equal(d.final, self.target):
            raise QcError(f"{name}: builder ended off the rule's target side")
        return d


def _drop_p0_rx0(b: _Builder, nth: int = 0):
    """Drop a P(0), then an RX(0) by (RXDEF), (P0) and the ``nth`` (H2) site."""
    b.rewrite("P0", "LR", wires=(0,))
    b.rewrite("RXDEF", "LR", (0.0,), wires=(0,))
    b.rewrite("P0", "LR", wires=(0,))
    b.rewrite("H2", "LR", wires=(0,), nth=nth)


# -- QC: the phase-group laws, derived through the Euler rule -----------------

def qc_pplus(a: float, bparam: float) -> Derivation:
    """P(a) . P(b) = P(a+b), by running (E) forwards and backwards."""
    s = a + bparam
    b = _Builder("QC", "PPLUS", (a, bparam))
    for at in (0, 3, 6):
        b.rewrite("H2", "RL", wires=(0,), at=at)
    b.rewrite("S2PI", "RL", at=0)
    b.rewrite("SPLUS", "RL", (-a / 2, TWO_PI + a / 2))
    b.rewrite("SPLUS", "RL", (-bparam / 2, TWO_PI + (a + bparam) / 2))
    # layout: G(-a/2) G(-b/2) G(rest) Ha Hb P(a) Hc Hd P(b) He Hf
    b.rewrite("RXDEF", "RL", (a,), wires=(0,))
    b.rewrite("RXDEF", "RL", (bparam,), wires=(0,))
    # G(rest) Ha RX(a) RX(b) Hf
    b.rewrite("P0", "RL", wires=(0,), at=3)
    b.rewrite("E", "LR", (a, 0.0, bparam), wires=(0,))
    # G(rest) Ha G(b0) P(b1) RX(b2) P(b3) Hf ; same betas as E(s, 0, 0)
    b.rewrite("E", "RL", (s, 0.0, 0.0), wires=(0,))
    # G(rest) Ha RX(s) P(0) RX(0) Hf
    _drop_p0_rx0(b)
    # G(rest) Ha RX(s) G(0) Hf
    b.rewrite("RXDEF", "LR", (s,), wires=(0,))
    # G(rest) Ha G(-s/2) Hp P(s) Hq G(0) Hf
    b.rewrite("H2", "LR", wires=(0,))
    b.rewrite("H2", "LR", wires=(0,))
    b.rewrite("SPLUS", "LR", (TWO_PI + s / 2, -s / 2))
    b.rewrite("SPLUS", "LR", (TWO_PI, 0.0))
    b.rewrite("S2PI", "LR")
    return b.done("qc_pplus")


def qc_pminus(phi: float) -> Derivation:
    """X . P(phi) . X = GPHASE(phi) . P(-phi)."""
    b = _Builder("QC", "PMINUS", (phi,))
    b.rewrite("XDEF", "LR", wires=(0,))
    b.rewrite("XDEF", "LR", wires=(0,))
    # H P(pi) H P(phi) H P(pi) H
    b.rewrite("S2PI", "RL", at=0)
    b.rewrite("SPLUS", "RL", (-PI / 2, TWO_PI + PI / 2))
    b.rewrite("SPLUS", "RL", (-PI / 2, 3 * PI))
    b.rewrite("RXDEF", "RL", (PI,), wires=(0,))
    b.rewrite("RXDEF", "RL", (PI,), wires=(0,))
    # G(3pi) RX(pi) P(phi) RX(pi)
    b.rewrite("E", "LR", (PI, phi, PI), wires=(0,))
    # G(3pi) G(phi-pi) P(2pi-phi) RX(0) P(0)
    _drop_p0_rx0(b)
    # G(3pi) G(phi-pi) P(2pi-phi) G(0)
    b.rewrite("SPLUS", "LR", (3 * PI, (phi - PI) % TWO_PI))
    b.rewrite("SPLUS", "LR", (3 * PI + (phi - PI) % TWO_PI, 0.0))
    return b.done("qc_pminus")


# -- QC: the CNOT / swap / gadget identities ----------------------------------

def qc_s0() -> Derivation:
    b = _Builder("QC", "S0")
    b.rewrite("S2PI", "RL", at=1)
    b.rewrite("SPLUS", "LR", (0.0, TWO_PI))
    b.rewrite("S2PI", "LR")
    return b.done("qc_s0")


def qc_cnot2() -> Derivation:
    b = _Builder("QC", "CNOT2")
    b.rewrite("P0", "RL", wires=(0,), at=1)
    b.rewrite("C", "LR", (0.0,), wires=(0, 1))
    b.rewrite("P0", "LR", wires=(0,))
    return b.done("qc_cnot2")


def qc_pcommutcnot(phi: float) -> Derivation:
    b = _Builder("QC", "PCOMMUTCNOT", (phi,))
    b.rewrite("CNOT2", "RL", wires=(0, 1), at=0)
    b.rewrite("C", "LR", (phi,), wires=(0, 1))
    return b.done("qc_pcommutcnot")


def qc_bprime() -> Derivation:
    b = _Builder("QC", "BPRIME")
    b.rewrite("B", "LR", wires=(0, 1))
    b.rewrite("P0", "RL", wires=(0,), at=2)
    b.rewrite("C", "LR", (0.0,), wires=(0, 1))
    b.rewrite("P0", "LR", wires=(0,))
    return b.done("qc_bprime")


def qc_pgadget(phi: float) -> Derivation:
    """CX.P(phi)@target.CX = flipped gadget, via (B) twice and (C) once."""
    b = _Builder("QC", "PGADGET", (phi,))
    b.rewrite("CNOT2", "RL", wires=(1, 0), at=0)
    b.rewrite("CNOT2", "RL", wires=(1, 0), at=5)
    # CX10 CX10 CX01 P@1 CX01 CX10 CX10
    b.rewrite("B", "LR", wires=(1, 0))
    # CX10 SWAP CX10 P@1 CX01 CX10 CX10
    b.rewrite("B", "LR", wires=(0, 1))
    # CX10 SWAP CX10 P@1 SWAP CX01 CX10
    b.rewrite("SWAPP", "LR", (phi,), wires=(1, 0))
    # CX10 SWAP CX10 SWAP P@0 CX01 CX10
    b.rewrite("SWAPCX", "LR", wires=(1, 0), nth=1)
    # CX10 SWAP SWAP CX01 P@0 CX01 CX10
    b.rewrite("SWAP2", "LR", wires=(0, 1))
    b.rewrite("C", "LR", (phi,), wires=(0, 1))
    return b.done("qc_pgadget")


def qc_hhcnothh() -> Derivation:
    b = _Builder("QC", "HHCNOTHH")
    b.rewrite("CZ", "LR", wires=(0, 1))
    # H0 P(pi/2)@0 P(pi/2)@1 CX P(-pi/2)@1 CX H0
    b.rewrite("PGADGET", "LR", (-PI / 2,), wires=(0, 1))
    # H0 P(pi/2)@0 P(pi/2)@1 CX10 P(-pi/2)@0 CX10 H0
    b.rewrite("CZ", "RL", wires=(1, 0))
    # H0 H0' CX10 H0'' H0
    b.rewrite("H2", "LR", wires=(0,))
    b.rewrite("H2", "LR", wires=(0,))
    return b.done("qc_hhcnothh")


def qc_ctrlpminuspi() -> Derivation:
    """The controlled phase of angle -pi equals the one of angle +pi."""
    b = _Builder("QC", "CPMINUSPI")
    b.rewrite("PPLUS", "RL", (PI / 2, -PI), wires=(0,))
    b.rewrite("PPLUS", "RL", (PI / 2, -PI), wires=(1,))
    # P(pi/2)@0 P(-pi)@0 P(pi/2)@1 P(-pi)@1 CX P(pi/2)@1 CX
    b.rewrite("ZZCX", "LR", wires=(0, 1))
    # P(pi/2)@0 P(pi/2)@1 CX P(pi)@1 P(pi/2)@1 CX
    b.rewrite("PPLUS", "LR", (PI, PI / 2), wires=(1,))
    return b.done("qc_ctrlpminuspi")


def qc_5cx() -> Derivation:
    """Three alternating CNOTs equal two, by cancelling a folded (I) instance.

    The fold of lhs . rhs^-1 into the multi-controlled 2pi phase is cited as
    a checked schema (its gate-level expansion is the QC_3 bookkeeping part
    of the derivation); the essential step is the (I) axiom on 3 qubits.
    """
    b = _Builder("QC", "FIVE_CX")
    b.rewrite("MCPFOLD5CX", "LR", wires=(0, 1, 2))
    b.rewrite("I", "LR", n=3, wires=(0, 1, 2))
    return b.done("qc_5cx")


# -- derivations through the 1-qubit normal form ------------------------------

def derive_equal(c1: Circuit, c2: Circuit, theory: str, name: str) -> Derivation:
    """Normalize both circuits and glue the traces at the normal form."""
    _, d1 = normalize_1q(c1, emit_trace=True, theory=theory)
    _, d2 = normalize_1q(c2, emit_trace=True, theory=theory)
    return concat_derivations(d1, reverse_derivation(d2), name=name)


def derive_rule(theory: str, rule: str, params=(), name: str = "") -> Derivation:
    """Derive a catalog rule by ``derive_equal`` on the two sides of its instance."""
    inst = resolve_rule(theory, rule, params, None, True)
    return derive_equal(inst.lhs, inst.rhs, theory, name)


# -- QCancilla: the ancilla propositions --------------------------------------

def qcancilla_p0() -> Derivation:
    """P(0) = identity from the primed ancilla axioms (no P0, EH, E used)."""
    b = _Builder("QCancilla", "P0", direction="RL")
    b.rewrite("H2", "RL", wires=(0,), at=0)                     # Ha Hb
    b.rewrite("A", "RL", at=1)                                  # Ha INIT DEST Hb
    b.rewrite("ACX", "RL", wires=(0,))                          # Ha INIT CX DEST Hb
    b.rewrite("CZ", "LR", wires=(0, 1))
    # INIT P(pi/2)@anc P(pi/2)@w CX P(-pi/2)@w CX DEST
    b.rewrite("AP", "LR", (PI / 2,))
    b.rewrite("ACX", "LR", wires=(0,))
    b.rewrite("ACX", "LR", wires=(0,))
    b.rewrite("A", "LR")
    b.rewrite("PPLUS", "LR", (PI / 2, -PI / 2), wires=(0,))
    return b.done("qcancilla_p0")


def qcancilla_splus(phi1: float, phi2: float) -> Derivation:
    """GPHASE(a) . GPHASE(b) = GPHASE(a+b) without the (S+) axiom."""
    s = phi1 + phi2
    b = _Builder("QCancilla", "SPLUS", (phi1, phi2))
    b.rewrite("A", "RL", at=2)                                  # G G INIT DEST
    b.rewrite("AP", "RL", (-2 * phi1,))
    b.rewrite("AP", "RL", (-2 * phi2,))
    # G1 G2 INIT P(-2phi2) P(-2phi1) DEST
    for at in (3, 6, 9):
        b.rewrite("H2", "RL", wires=(0,), at=at)
    # G1 G2 INIT Ha Hb P(-2phi2) Hc Hd P(-2phi1) He Hf DEST
    b.rewrite("RXDEF", "RL", (-2 * phi2,), wires=(0,))
    b.rewrite("RXDEF", "RL", (-2 * phi1,), wires=(0,))
    # INIT Ha RX(-2phi2) RX(-2phi1) Hf DEST
    b.rewrite("P0", "RL", wires=(0,), at=3)
    b.rewrite("E", "LR", (-2 * phi2, 0.0, -2 * phi1), wires=(0,))
    # INIT Ha G(b0) P(b1) RX(b2) P(b3) Hf DEST
    b.rewrite("E", "RL", (0.0, 0.0, -2 * s), wires=(0,))
    # INIT Ha RX(0) P(0) RX(-2s) Hf DEST
    _drop_p0_rx0(b, nth=1)     # the H's of RX(0) follow Ha
    b.rewrite("RXDEF", "LR", (-2 * s,), wires=(0,))
    # INIT Ha G(-0) G(s) Hp P(-2s) Hq Hf DEST
    b.rewrite("H2", "LR", wires=(0,))
    b.rewrite("H2", "LR", wires=(0,))
    # INIT G(-0) G(s) P(-2s) DEST
    b.rewrite("AP", "LR", (-2 * s,))
    b.rewrite("A", "LR")
    b.rewrite("S2PI", "LR")              # G(0) is G(2pi) mod 2pi
    return b.done("qcancilla_splus")


def qcancilla_i3() -> Derivation:
    """(I) on 3 qubits from the ancilla theory (the essential step is 5CX)."""
    b = _Builder("QCancilla", "I", n=3)
    b.rewrite("MCPDEF", "LR", (TWO_PI,), n=3, wires=(0, 1, 2))
    # MCP(pi)@(01) MCP(pi)@(02) CX12 MCP(-pi)@(02) CX12
    b.rewrite("MCPDEF", "LR", (PI,), n=2, wires=(0, 1))
    b.rewrite("MCPDEF", "LR", (PI,), n=2, wires=(0, 2))
    b.rewrite("MCPDEF", "LR", (-PI,), n=2, wires=(0, 2))
    # E01 E02 CX12 E02m CX12   (each E* is 5 primitive gates)
    b.rewrite("CPMINUSPI", "LR", wires=(0, 2))
    # E01 E02 CX12 E02 CX12
    b.rewrite("CZ", "RL", wires=(0, 2), nth=1)
    # E01 E02 CX12 [H2' CX02 H2''] CX12
    b.rewrite("H2", "RL", wires=(0,), at=11)
    b.rewrite("H2", "RL", wires=(0,), at=16)
    # E01 E02 CX12 Ha Hb H2' CX02 H2'' Hc Hd CX12
    b.rewrite("HHCNOTHH", "LR", wires=(0, 2))
    # E01 E02 CX12 Ha CX20 Hd CX12
    b.rewrite("FIVE_CX", "LR", wires=(1, 2, 0))
    # E01 E02 Ha CX20 CX10 Hd     (H's on wire 0 unless marked)
    b.rewrite("H2", "RL", wires=(0,), at=12)
    b.rewrite("H2", "RL", wires=(2,), at=11)
    b.rewrite("H2", "RL", wires=(2,), at=14)
    b.rewrite("HHCNOTHH", "LR", wires=(2, 0))
    # E01 E02 H@2 CX02 H@2 Hf CX10 Hd
    b.rewrite("CZ", "LR", wires=(0, 2))
    # E01 E02 E02' Hf CX10 Hd
    b.rewrite("H2", "RL", wires=(1,), at=16)
    b.rewrite("H2", "RL", wires=(1,), at=19)
    b.rewrite("HHCNOTHH", "LR", wires=(1, 0))
    # E01 E02 E02' H@1 CX01 H@1
    b.rewrite("CZ", "LR", wires=(0, 1))
    # E01 E02 E02' E01'
    b.rewrite("CZEXP2", "LR", wires=(0, 2))
    b.rewrite("CZEXP2", "LR", wires=(0, 1))
    return b.done("qcancilla_i3")


# -- registry -----------------------------------------------------------------

def all_traces() -> list[Derivation]:
    """The shipped set, instantiated at fixed sample angles."""
    return [
        derive_rule("QC", "P2PI", name="qc_p2pi"),
        qc_pplus(0.7, 1.9),
        qc_pminus(0.9),
        qc_s0(),
        qc_cnot2(),
        qc_pcommutcnot(1.1),
        qc_bprime(),
        qc_pgadget(0.8),
        qc_hhcnothh(),
        qc_ctrlpminuspi(),
        qc_5cx(),
        derive_rule("QCprime", "EH", name="qcprime_eh"),
        derive_rule("QCprime", "P2PI", name="qcprime_p2pi"),
        derive_rule("QCprime", "PMINUS", (1.3,), "qcprime_pminus"),
        derive_rule("QCprime", "RXMINUS", (0.7,), "qcprime_rxminus"),
        derive_rule("QCprime", "E", (0.9, 1.7, -0.6), "qcprime_euler"),
        qcancilla_p0(),
        qcancilla_splus(0.7, 1.1),
        qcancilla_i3(),
    ]


def write_traces(directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for d in all_traces():
        path = os.path.join(directory, f"{d.name}.json")
        with open(path, "w") as fh:
            json.dump(d.to_dict(), fh, indent=1)
        paths.append(path)
    return paths


def replay_all(tol: float = 1e-9) -> dict:
    """Replay every shipped trace; returns {name: step count}."""
    out = {}
    for d in all_traces():
        replay(d, allow_lemmas=True, safety=True, tol=tol)
        out[d.name] = len(d.steps)
    return out
