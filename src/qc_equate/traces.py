"""The shipped derivation set.

Each builder names the catalog rule it derives, in the theory it derives it
in: it starts on the source side of that rule's instance and is checked to
end on the target side.  Every step is applied while the trace is built, so
a returned derivation is replayable by construction.  ``derive_rule``
traces (``qc_p2pi`` and the QCprime ones) normalize both sides in their
theory and glue them at the normal form.

``all_traces(...)`` instantiates the whole set at fixed sample angles;
``write_traces(dir)`` dumps them as JSON files for the CLI replayer.
"""

from __future__ import annotations

import json
import math
import os

from .circuit import TWO_PI, Circuit
from .errors import QcError
from .rewrite import (Derivation, Site, _Recorder, concat_derivations,
                      deformation_equal, normalize_1q, replay,
                      reverse_derivation)
from .theories import resolve_rule

PI = math.pi


class _Builder(_Recorder):
    """Derives one catalog rule: starts on the source side of its instance
    and must end on the target side."""

    def __init__(self, theory: str, rule: str, params=(), n: int | None = None,
                 direction: str = "LR"):
        inst = resolve_rule(theory, rule, params, n, allow_lemmas=True)
        src, self.target = (inst.lhs, inst.rhs) if direction == "LR" else (inst.rhs, inst.lhs)
        super().__init__(theory, src)

    def do(self, rule, direction, params=(), n=None, gates=(), wires=(), at=0):
        super().do(rule, direction, params, n, Site(tuple(gates), tuple(wires), at))

    def done(self, name: str) -> Derivation:
        if not deformation_equal(self.c, self.target):
            raise QcError(f"{name}: builder ended off the rule's target side")
        return self.derivation(name)


# -- QC: the phase-group laws, derived through the Euler rule -----------------

def qc_pplus(a: float, bparam: float) -> Derivation:
    """P(a) . P(b) = P(a+b), by running (E) forwards and backwards."""
    s = a + bparam
    b = _Builder("QC", "PPLUS", (a, bparam))
    b.do("H2", "RL", wires=(0,), at=0)
    b.do("H2", "RL", wires=(0,), at=3)
    b.do("H2", "RL", wires=(0,), at=6)
    b.do("S2PI", "RL", at=0)
    b.do("SPLUS", "RL", (-a / 2, TWO_PI + a / 2), gates=(0,))
    b.do("SPLUS", "RL", (-bparam / 2, TWO_PI + (a + bparam) / 2), gates=(1,))
    # layout: G(-a/2) G(-b/2) G(rest) Ha Hb P(a) Hc Hd P(b) He Hf
    b.do("RXDEF", "RL", (a,), gates=(0, 4, 5, 6), wires=(0,))
    b.do("RXDEF", "RL", (bparam,), gates=(0, 4, 5, 6), wires=(0,))
    # G(rest) Ha RX(a) RX(b) Hf
    b.do("P0", "RL", wires=(0,), at=3)
    b.do("E", "LR", (a, 0.0, bparam), gates=(2, 3, 4), wires=(0,))
    # G(rest) Ha G(b0) P(b1) RX(b2) P(b3) Hf ; same betas as E(s, 0, 0)
    b.do("E", "RL", (s, 0.0, 0.0), gates=(2, 3, 4, 5), wires=(0,))
    # G(rest) Ha RX(s) P(0) RX(0) Hf
    b.do("P0", "LR", gates=(3,), wires=(0,))
    b.do("RXDEF", "LR", (0.0,), gates=(3,), wires=(0,))
    b.do("P0", "LR", gates=(5,), wires=(0,))
    b.do("H2", "LR", gates=(4, 5), wires=(0,))
    # G(rest) Ha RX(s) G(0) Hf
    b.do("RXDEF", "LR", (s,), gates=(2,), wires=(0,))
    # G(rest) Ha G(-s/2) Hp P(s) Hq G(0) Hf
    b.do("H2", "LR", gates=(1, 3), wires=(0,))
    b.do("H2", "LR", gates=(3, 5), wires=(0,))
    b.do("SPLUS", "LR", (TWO_PI + s / 2, -s / 2), gates=(0, 1))
    b.do("SPLUS", "LR", (TWO_PI, 0.0), gates=(0, 2))
    b.do("S2PI", "LR", gates=(1,))
    return b.done("qc_pplus")


def qc_pminus(phi: float) -> Derivation:
    """X . P(phi) . X = GPHASE(phi) . P(-phi)."""
    b = _Builder("QC", "PMINUS", (phi,))
    b.do("XDEF", "LR", gates=(0,), wires=(0,))
    b.do("XDEF", "LR", gates=(4,), wires=(0,))
    # H P(pi) H P(phi) H P(pi) H
    b.do("S2PI", "RL", at=0)
    b.do("SPLUS", "RL", (-PI / 2, TWO_PI + PI / 2), gates=(0,))
    b.do("SPLUS", "RL", (-PI / 2, 3 * PI), gates=(1,))
    b.do("RXDEF", "RL", (PI,), gates=(0, 3, 4, 5), wires=(0,))
    b.do("RXDEF", "RL", (PI,), gates=(0, 4, 5, 6), wires=(0,))
    # G(3pi) RX(pi) P(phi) RX(pi)
    b.do("E", "LR", (PI, phi, PI), gates=(1, 2, 3), wires=(0,))
    # G(3pi) G(phi-pi) P(2pi-phi) RX(0) P(0)
    b.do("P0", "LR", gates=(4,), wires=(0,))
    b.do("RXDEF", "LR", (0.0,), gates=(3,), wires=(0,))
    b.do("P0", "LR", gates=(5,), wires=(0,))
    b.do("H2", "LR", gates=(4, 5), wires=(0,))
    # G(3pi) G(phi-pi) P(2pi-phi) G(0)
    b.do("SPLUS", "LR", (3 * PI, (phi - PI) % TWO_PI), gates=(0, 1))
    b.do("SPLUS", "LR", (3 * PI + (phi - PI) % TWO_PI, 0.0), gates=(0, 2))
    return b.done("qc_pminus")


# -- QC: the CNOT / swap / gadget identities ----------------------------------

def qc_s0() -> Derivation:
    b = _Builder("QC", "S0")
    b.do("S2PI", "RL", at=1)
    b.do("SPLUS", "LR", (0.0, TWO_PI), gates=(0, 1))
    b.do("S2PI", "LR", gates=(0,))
    return b.done("qc_s0")


def qc_cnot2() -> Derivation:
    b = _Builder("QC", "CNOT2")
    b.do("P0", "RL", wires=(0,), at=1)
    b.do("C", "LR", (0.0,), gates=(0, 1, 2), wires=(0, 1))
    b.do("P0", "LR", gates=(0,), wires=(0,))
    return b.done("qc_cnot2")


def qc_pcommutcnot(phi: float) -> Derivation:
    b = _Builder("QC", "PCOMMUTCNOT", (phi,))
    b.do("CNOT2", "RL", wires=(0, 1), at=0)
    b.do("C", "LR", (phi,), gates=(1, 2, 3), wires=(0, 1))
    return b.done("qc_pcommutcnot")


def qc_bprime() -> Derivation:
    b = _Builder("QC", "BPRIME")
    b.do("B", "LR", gates=(0, 1), wires=(0, 1))
    b.do("P0", "RL", wires=(0,), at=2)
    b.do("C", "LR", (0.0,), gates=(1, 2, 3), wires=(0, 1))
    b.do("P0", "LR", gates=(1,), wires=(0,))
    return b.done("qc_bprime")


def qc_pgadget(phi: float) -> Derivation:
    """CX.P(phi)@target.CX = flipped gadget, via (B) twice and (C) once."""
    b = _Builder("QC", "PGADGET", (phi,))
    b.do("CNOT2", "RL", wires=(1, 0), at=0)
    b.do("CNOT2", "RL", wires=(1, 0), at=5)
    # CX10 CX10 CX01 P@1 CX01 CX10 CX10
    b.do("B", "LR", gates=(1, 2), wires=(1, 0))
    # CX10 SWAP CX10 P@1 CX01 CX10 CX10
    b.do("B", "LR", gates=(4, 5), wires=(0, 1))
    # CX10 SWAP CX10 P@1 SWAP CX01 CX10
    b.do("SWAPP", "LR", (phi,), gates=(3, 4), wires=(1, 0))
    # CX10 SWAP CX10 SWAP P@0 CX01 CX10
    b.do("SWAPCX", "LR", gates=(2, 3), wires=(1, 0))
    # CX10 SWAP SWAP CX01 P@0 CX01 CX10
    b.do("SWAP2", "LR", gates=(1, 2), wires=(0, 1))
    b.do("C", "LR", (phi,), gates=(1, 2, 3), wires=(0, 1))
    return b.done("qc_pgadget")


def qc_hhcnothh() -> Derivation:
    b = _Builder("QC", "HHCNOTHH")
    b.do("CZ", "LR", gates=(1, 2, 4), wires=(0, 1))
    # H0 P(pi/2)@0 P(pi/2)@1 CX P(-pi/2)@1 CX H0
    b.do("PGADGET", "LR", (-PI / 2,), gates=(3, 4, 5), wires=(0, 1))
    # H0 P(pi/2)@0 P(pi/2)@1 CX10 P(-pi/2)@0 CX10 H0
    b.do("CZ", "RL", gates=(1, 2, 3, 4, 5), wires=(1, 0))
    # H0 H0' CX10 H0'' H0
    b.do("H2", "LR", gates=(0, 1), wires=(0,))
    b.do("H2", "LR", gates=(1, 2), wires=(0,))
    return b.done("qc_hhcnothh")


def qc_ctrlpminuspi() -> Derivation:
    """The controlled phase of angle -pi equals the one of angle +pi."""
    b = _Builder("QC", "CPMINUSPI")
    b.do("PPLUS", "RL", (PI / 2, -PI), gates=(0,), wires=(0,))
    b.do("PPLUS", "RL", (PI / 2, -PI), gates=(2,), wires=(1,))
    # P(pi/2)@0 P(-pi)@0 P(pi/2)@1 P(-pi)@1 CX P(pi/2)@1 CX
    b.do("ZZCX", "LR", gates=(1, 3, 4), wires=(0, 1))
    # P(pi/2)@0 P(pi/2)@1 CX P(pi)@1 P(pi/2)@1 CX
    b.do("PPLUS", "LR", (PI, PI / 2), gates=(3, 4), wires=(1,))
    return b.done("qc_ctrlpminuspi")


def qc_5cx() -> Derivation:
    """Three alternating CNOTs equal two, by cancelling a folded (I) instance.

    The fold of lhs . rhs^-1 into the multi-controlled 2pi phase is cited as
    a checked schema (its gate-level expansion is the QC_3 bookkeeping part
    of the derivation); the essential step is the (I) axiom on 3 qubits.
    """
    b = _Builder("QC", "FIVE_CX")
    b.do("MCPFOLD5CX", "LR", gates=(0, 1, 2), wires=(0, 1, 2))
    b.do("I", "LR", n=3, gates=(0,), wires=(0, 1, 2))
    return b.done("qc_5cx")


# -- derivations through the 1-qubit normal form ------------------------------

def derive_equal(c1: Circuit, c2: Circuit, theory: str, name: str) -> Derivation:
    """Normalize both circuits and glue the traces at the normal form."""
    _, d1 = normalize_1q(c1, emit_trace=True, theory=theory)
    _, d2 = normalize_1q(c2, emit_trace=True, theory=theory)
    return concat_derivations(d1, reverse_derivation(d2), name=name)


def derive_rule(theory: str, rule: str, params=(), name: str = "") -> Derivation:
    """Derive a catalog rule by ``derive_equal`` on the two sides of its instance."""
    inst = resolve_rule(theory, rule, params, allow_lemmas=True)
    return derive_equal(inst.lhs, inst.rhs, theory, name)


# -- QCancilla: the ancilla propositions --------------------------------------

def qcancilla_p0() -> Derivation:
    """P(0) = identity from the primed ancilla axioms (no P0, EH, E used)."""
    b = _Builder("QCancilla", "P0", direction="RL")
    b.do("H2", "RL", wires=(0,), at=0)                     # Ha Hb
    b.do("A", "RL", at=1)                                  # Ha INIT DEST Hb
    b.do("ACX", "RL", gates=(1,), wires=(0,))              # Ha INIT CX DEST Hb
    b.do("CZ", "LR", gates=(0, 2, 4), wires=(0, 1))
    # INIT P(pi/2)@anc P(pi/2)@w CX P(-pi/2)@w CX DEST
    b.do("AP", "LR", (PI / 2,), gates=(0, 1), wires=())
    b.do("ACX", "LR", gates=(0, 2), wires=(0,))
    b.do("ACX", "LR", gates=(1, 3), wires=(0,))
    b.do("A", "LR", gates=(2, 3), wires=())
    b.do("PPLUS", "LR", (PI / 2, -PI / 2), gates=(0, 1), wires=(0,))
    return b.done("qcancilla_p0")


def qcancilla_splus(phi1: float, phi2: float) -> Derivation:
    """GPHASE(a) . GPHASE(b) = GPHASE(a+b) without the (S+) axiom."""
    s = phi1 + phi2
    b = _Builder("QCancilla", "SPLUS", (phi1, phi2))
    b.do("A", "RL", at=2)                                  # G G INIT DEST
    b.do("AP", "RL", (-2 * phi1,), gates=(2,), wires=())
    b.do("AP", "RL", (-2 * phi2,), gates=(2,), wires=())
    # G1 G2 INIT P(-2phi2) P(-2phi1) DEST
    b.do("H2", "RL", wires=(0,), at=3)
    b.do("H2", "RL", wires=(0,), at=6)
    b.do("H2", "RL", wires=(0,), at=9)
    # G1 G2 INIT Ha Hb P(-2phi2) Hc Hd P(-2phi1) He Hf DEST
    b.do("RXDEF", "RL", (-2 * phi2,), gates=(1, 4, 5, 6), wires=(0,))
    b.do("RXDEF", "RL", (-2 * phi1,), gates=(0, 4, 5, 6), wires=(0,))
    # INIT Ha RX(-2phi2) RX(-2phi1) Hf DEST
    b.do("P0", "RL", wires=(0,), at=3)
    b.do("E", "LR", (-2 * phi2, 0.0, -2 * phi1), gates=(2, 3, 4), wires=(0,))
    # INIT Ha G(b0) P(b1) RX(b2) P(b3) Hf DEST
    b.do("E", "RL", (0.0, 0.0, -2 * s), gates=(2, 3, 4, 5), wires=(0,))
    # INIT Ha RX(0) P(0) RX(-2s) Hf DEST
    b.do("P0", "LR", gates=(3,), wires=(0,))
    b.do("RXDEF", "LR", (0.0,), gates=(2,), wires=(0,))
    # G(0) INIT Ha Hx P(0) Hy RX(-2s) Hf DEST
    b.do("P0", "LR", gates=(4,), wires=(0,))
    b.do("H2", "LR", gates=(3, 4), wires=(0,))
    b.do("RXDEF", "LR", (-2 * s,), gates=(3,), wires=(0,))
    # INIT Ha G(-0) G(s) Hp P(-2s) Hq Hf DEST
    b.do("H2", "LR", gates=(1, 4), wires=(0,))
    b.do("H2", "LR", gates=(4, 5), wires=(0,))
    # INIT G(-0) G(s) P(-2s) DEST
    b.do("AP", "LR", (-2 * s,), gates=(0, 3), wires=())
    b.do("A", "LR", gates=(2, 3), wires=())
    b.do("S2PI", "LR", gates=(0,))              # G(0) is G(2pi) mod 2pi
    return b.done("qcancilla_splus")


def qcancilla_i3() -> Derivation:
    """(I) on 3 qubits from the ancilla theory (the essential step is 5CX)."""
    b = _Builder("QCancilla", "I", n=3)
    b.do("MCPDEF", "LR", (TWO_PI,), n=3, gates=(0,), wires=(0, 1, 2))
    # MCP(pi)@(01) MCP(pi)@(02) CX12 MCP(-pi)@(02) CX12
    b.do("MCPDEF", "LR", (PI,), n=2, gates=(0,), wires=(0, 1))
    b.do("MCPDEF", "LR", (PI,), n=2, gates=(5,), wires=(0, 2))
    b.do("MCPDEF", "LR", (-PI,), n=2, gates=(11,), wires=(0, 2))
    # E01 E02 CX12 E02m CX12   (each E* is 5 primitive gates)
    b.do("CPMINUSPI", "LR", gates=(11, 12, 13, 14, 15), wires=(0, 2))
    # E01 E02 CX12 E02 CX12
    b.do("CZ", "RL", gates=(11, 12, 13, 14, 15), wires=(0, 2))
    # E01 E02 CX12 [H2' CX02 H2''] CX12
    b.do("H2", "RL", wires=(0,), at=11)
    b.do("H2", "RL", wires=(0,), at=16)
    # E01 E02 CX12 Ha Hb H2' CX02 H2'' Hc Hd CX12
    b.do("HHCNOTHH", "LR", gates=(12, 13, 14, 15, 16), wires=(0, 2))
    # E01 E02 CX12 Ha CX20 Hd CX12
    b.do("FIVE_CX", "LR", gates=(10, 12, 14), wires=(1, 2, 0))
    # E01 E02 Ha@0 CX20 CX10 Hd@0          (indices 10..13)
    b.do("H2", "RL", wires=(0,), at=12)
    b.do("H2", "RL", wires=(2,), at=11)
    b.do("H2", "RL", wires=(2,), at=14)
    # 10:Ha 11:H2a 12:H2b 13:CX20 14:H2c 15:H2d 16:He 17:Hf 18:CX10 19:Hd
    b.do("HHCNOTHH", "LR", gates=(10, 12, 13, 14, 16), wires=(2, 0))
    # E01 E02 H2a CX02 H2d Hf CX10 Hd
    b.do("CZ", "LR", gates=(10, 11, 12), wires=(0, 2))
    # E01 E02 E02' Hf CX10 Hd               (E02' at 10..14)
    b.do("H2", "RL", wires=(1,), at=16)
    b.do("H2", "RL", wires=(1,), at=19)
    # 15:Hf 16:H1a 17:H1b 18:CX10 19:H1c 20:H1d 21:Hd
    b.do("HHCNOTHH", "LR", gates=(15, 17, 18, 19, 21), wires=(1, 0))
    # .. H1a CX01 H1d
    b.do("CZ", "LR", gates=(15, 16, 17), wires=(0, 1))
    # E01 E02 E02' E01'
    b.do("CZEXP2", "LR", gates=tuple(range(5, 15)), wires=(0, 2))
    b.do("CZEXP2", "LR", gates=tuple(range(0, 10)), wires=(0, 1))
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
