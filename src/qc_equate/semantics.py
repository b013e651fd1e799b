"""Dense matrix semantics of circuits and the equality predicates.

A circuit n_in -> n_out evaluates to a 2^n_out x 2^n_in complex matrix.
Wire 0 is the leftmost tensor factor (most significant bit).  Vanilla
circuits evaluate to unitaries; INIT / DEST extend the semantics to |0>
insertion and <0| projection, so circuits built from them are isometries
exactly when every removed wire is in state |0>.

``eval_matrix`` applies every gate, macros included, as an in-place kernel
on basic-indexed views of the state tensor ``(2,) * width + (cols,)``:
diagonal gates (P, Z, MCP, controlled P/Z) multiply the slice where the
controls match and the target is 1, the other 1-qubit bases update the two
target half-views of the control slice with their 2x2 entries, and SWAP
swaps two axes.  No macro is expanded; ``eval_matrix(expand_macros(c))``
(the CLI's ``expand``) gives the primitive route.
"""

from __future__ import annotations

import cmath
import math
import os

import numpy as np

from .circuit import Circuit, Gate
from .errors import (BadParams, DegenerateMatrix, InvalidCircuit, NotUnitary,
                     ShapeMismatch, WireCapExceeded)

SQRT2_INV = 1.0 / math.sqrt(2.0)

#: dense simulation refuses circuits wider than this many wires
DEFAULT_WIRE_CAP = 10

_H = (SQRT2_INV, SQRT2_INV, SQRT2_INV, -SQRT2_INV)


def wire_cap() -> int:
    raw = os.environ.get("QCEQ_WIRE_CAP", DEFAULT_WIRE_CAP)
    try:
        return int(raw)
    except ValueError:
        raise BadParams(f"QCEQ_WIRE_CAP={raw!r} is not an integer") from None


def eval_matrix(c: Circuit) -> np.ndarray:
    """Matrix of the circuit, one in-place kernel per gate."""
    cap = wire_cap()
    width = c.n_in
    if width > cap:
        raise WireCapExceeded(f"{width} wires exceeds cap {cap}")
    cols = 2 ** width
    t = np.eye(cols, dtype=complex).reshape((2,) * width + (cols,))
    for g in c.gates:
        if g.kind == "INIT":
            t = _apply_init(t, g.wires[0])
            width += 1
            if width > cap:
                raise WireCapExceeded(f"{width} wires exceeds cap {cap}")
        elif g.kind == "DEST":
            t = _apply_dest(t, g.wires[0])
            width -= 1
        elif g.kind == "SWAP":
            t = np.swapaxes(t, *g.wires)
        else:
            _apply_kernel(t, g)
    return t.reshape(2 ** width, cols)


#: gate kinds that are their last wire's 1-qubit base controlled by all
#: earlier wires at bit 1
_ALL_ONES_BASE = {"CNOT": "X", "MCP": "P", "MCRX": "RX"}


def _apply_kernel(t: np.ndarray, g: Gate) -> None:
    """Apply one non-structural gate to the state tensor in place."""
    if g.kind == "GPHASE":
        t *= cmath.exp(1j * g.params[0])
        return
    idx = [slice(None)] * t.ndim
    if g.kind == "CTRL":
        base, params = g.base.kind, g.base.params
        for w, bit in zip(g.wires, g.pattern):
            idx[w] = int(bit)
    else:
        base, params = _ALL_ONES_BASE.get(g.kind, g.kind), g.params
        for w in g.wires[:-1]:
            idx[w] = 1
    target = g.wires[-1]
    if base in ("P", "Z"):  # diagonal: phase the slice where the target is 1
        idx[target] = 1
        view = t[tuple(idx)]
        view *= cmath.exp(1j * (params[0] if base == "P" else math.pi))
        return
    idx[target] = 0
    a = t[tuple(idx)]
    idx[target] = 1
    b = t[tuple(idx)]
    if base == "X":
        tmp = a.copy()
        a[...] = b
        b[...] = tmp
        return
    if base == "H":
        u00, u01, u10, u11 = _H
    else:  # RX
        cos, sin = math.cos(params[0] / 2.0), math.sin(params[0] / 2.0)
        u00, u01, u10, u11 = cos, -1j * sin, -1j * sin, cos
    a_new = u00 * a + u01 * b
    b *= u11
    b += u10 * a
    a[...] = a_new


def _apply_init(t: np.ndarray, pos: int) -> np.ndarray:
    return np.stack([t, np.zeros_like(t)], axis=pos)  # new axis in state |0>


def _apply_dest(t: np.ndarray, pos: int) -> np.ndarray:
    return np.take(t, 0, axis=pos)  # project onto <0|


# -- predicates --------------------------------------------------------------

def equal_matrices(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} vs {b.shape}")
    return bool(np.max(np.abs(a - b)) <= tol) if a.size else True


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff a = lam * b for some unit scalar lam."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} vs {b.shape}")
    flat_b = b.ravel()
    i = int(np.argmax(np.abs(flat_b)))
    if np.abs(flat_b[i]) < 1e-12:
        raise DegenerateMatrix("cannot extract a phase from a (near-)zero matrix")
    lam = a.ravel()[i] / flat_b[i]
    mag = abs(lam)
    if abs(mag - 1.0) > max(tol, 1e-9):
        return False
    lam = lam / mag if mag > 0 else 1.0
    return bool(np.max(np.abs(a - lam * b)) <= tol)


def is_isometry(m: np.ndarray, tol: float = 1e-9) -> bool:
    gram = m.conj().T @ m
    return bool(np.max(np.abs(gram - np.eye(gram.shape[0]))) <= tol)


def is_unitary(m: np.ndarray, tol: float = 1e-9) -> bool:
    return m.shape[0] == m.shape[1] and is_isometry(m, tol)


def det_arg(c: Circuit) -> float:
    """arg(det(eval_matrix(c))) normalized to [0, 2*pi)."""
    if c.n_in != c.n_out:
        raise InvalidCircuit("det_arg needs a square (n_in = n_out) circuit")
    m = eval_matrix(c)
    d = np.linalg.det(m)
    if abs(d) < 1e-12:
        raise NotUnitary("determinant is (near-)zero; circuit is not unitary")
    a = float(np.angle(d)) % (2.0 * math.pi)
    return 0.0 if a > 2.0 * math.pi - 1e-12 else a
