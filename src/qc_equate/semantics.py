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

The same evaluator, ``_evaluate``, also evaluates a batch of instances of
one compiled circuit that differ only in their angles: the state tensor
gets a trailing axis of instances, and the gate at each angle slot of
``Circuit._plan`` carries that slot's row of angles, one per instance, as
its parameter (``Circuit._batched``, which checks the angles).  The
kernels are the same: an angle-reading kernel takes a float through
``cmath``/``math`` and a row through ``numpy``.  ``eval_matrix`` is the
batch-free call, so every angle it reads is a gate's own float.  Both
equality predicates take such a batch too and hold when they hold for
every instance; ``equal_up_to_phase`` finds one phase per instance.

Every evaluation runs one gate loop (``_run``).  The rewrite engine's
safety net evaluates through ``_resumed``, which runs the loop on from a
kept state tensor, the state after a circuit's first gates, and keeps one
such state of the circuit it evaluates: the same kernels in the same
order on the same data, so its matrix is ``eval_matrix``'s.
"""

from __future__ import annotations

import cmath
import math
import os

import numpy as np

from .circuit import Circuit, Gate, _BatchGate
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
    """Matrix of the circuit, one in-place kernel per gate, if it opens no
    more wires at once than the wire cap."""
    return _evaluate(c)


def _evaluate(c: Circuit, angles: np.ndarray | None = None) -> np.ndarray:
    """``eval_matrix``, or with ``angles``, an array (slots, k) of k
    instances' angles, one row per slot of ``c._plan``, the k matrices of
    ``c`` with those angles stacked on a trailing axis: (rows, cols, k).
    ``Circuit._batched`` checks the angles as ``Circuit.with_angles`` and
    the ``Gate`` constructor check them, with the same errors."""
    cap = wire_cap()
    if c.threading.widest > cap:
        raise WireCapExceeded(f"circuit opens {c.threading.widest} wires at once, cap {cap}")
    t, rows, cols = _identity(c.n_in), 2 ** c.n_out, 2 ** c.n_in
    if angles is None:
        return _run(t, c.gates).reshape(rows, cols)
    gates = c._batched(angles)   # each slot's gate reads its row
    t = np.repeat(t[..., None], angles.shape[1], axis=-1)
    return _run(t, gates).reshape(rows, cols, -1)


def _resumed(c: Circuit, state: np.ndarray | None, at: int,
             keep: int | None) -> tuple[np.ndarray, np.ndarray | None]:
    """``eval_matrix(c)``, the wire cap unread, run on from ``state``, the
    state after ``c``'s first ``at`` gates, which it may overwrite (None:
    from the identity, whatever ``at``), and the state after ``c``'s first
    ``keep`` gates, copied in its own layout, so a later run on from it
    applies each kernel as one from the identity would (None when ``keep``
    is None or not in ``at..len(c.gates)``)."""
    if state is None:
        state, at = _identity(c.n_in), 0
    gates, kept = c.gates, None
    if keep is not None and at <= keep <= len(gates):
        state = _run(state, gates[at:keep])
        kept, at = state.copy(order="K"), keep
    return _run(state, gates[at:]).reshape(2 ** c.n_out, 2 ** c.n_in), kept


def _identity(n_in: int) -> np.ndarray:
    """The state tensor ``(2,) * n_in + (cols,)`` of the empty circuit."""
    cols = 2 ** n_in
    return np.eye(cols, dtype=complex).reshape((2,) * n_in + (cols,))


def _run(t: np.ndarray, gates) -> np.ndarray:
    """The state tensor ``t`` after ``gates``: the one gate loop, in place
    where a kernel allows it."""
    for g in gates:
        if g.kind == "INIT":   # a new axis in state |0>
            t = np.stack([t, np.zeros_like(t)], axis=g.wires[0])
        elif g.kind == "DEST":   # project onto <0|
            t = np.take(t, 0, axis=g.wires[0])
        elif g.kind == "SWAP":
            t = np.swapaxes(t, *g.wires)
        else:
            _apply_kernel(t, g)
    return t


#: gate kinds that are their last wire's 1-qubit base controlled by all
#: earlier wires at bit 1
_ALL_ONES_BASE = {"CNOT": "X", "MCP": "P", "MCRX": "RX"}


def _apply_kernel(t: np.ndarray, g: Gate | _BatchGate) -> None:
    """Apply one non-structural gate to the state tensor in place.  An
    angle is a float (``cmath``/``math``), or a ``_BatchGate``'s row of
    angles, one per instance on the tensor's trailing axis (``numpy``)."""
    if g.kind == "GPHASE":
        phi = g.params[0]
        t *= cmath.exp(1j * phi) if type(phi) is float else np.exp(1j * phi)
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
        phi = params[0] if base == "P" else math.pi
        view *= cmath.exp(1j * phi) if type(phi) is float else np.exp(1j * phi)
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
        half = params[0] / 2.0
        if type(half) is float:
            cos, sin = math.cos(half), math.sin(half)
        else:
            cos, sin = np.cos(half), np.sin(half)
        u00, u01, u10, u11 = cos, -1j * sin, -1j * sin, cos
    a_new = u00 * a + u01 * b
    b *= u11
    b += u10 * a
    a[...] = a_new


# -- predicates --------------------------------------------------------------

def equal_matrices(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} vs {b.shape}")
    return bool(np.abs(a - b).max() <= tol) if a.size else True


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff a = lam * b for some unit scalar lam.  Matrices with a
    trailing batch axis (rows, cols, k) have one lam per instance: True iff
    every instance is, and any (near-)zero instance of ``b`` raises."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} vs {b.shape}")
    flat_a, flat_b = a.reshape(-1, *a.shape[2:]), b.reshape(-1, *b.shape[2:])
    i = np.argmax(np.abs(flat_b), axis=0, keepdims=True)
    pivot = np.take_along_axis(flat_b, i, axis=0)
    if np.abs(pivot).min() < 1e-12:
        raise DegenerateMatrix("cannot extract a phase from a (near-)zero matrix")
    lam = np.take_along_axis(flat_a, i, axis=0) / pivot
    mag = np.abs(lam)
    if np.abs(mag - 1.0).max() > max(tol, 1e-9):
        return False
    lam = np.divide(lam, mag, out=np.ones_like(lam), where=mag > 0)
    return bool(np.max(np.abs(a - lam * b)) <= tol)


def is_isometry(m: np.ndarray, tol: float = 1e-9) -> bool:
    gram = m.conj().T @ m
    return bool(np.max(np.abs(gram - np.eye(gram.shape[0]))) <= tol)


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
