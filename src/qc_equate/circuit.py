"""Circuit intermediate representation.

A circuit is a wire-threaded ordered gate sequence between ``n_in`` input
wires and ``n_out`` output wires.  Gates act on positions in the running
ordered list of open wires; ``INIT`` inserts a wire at its stated position,
``DEST`` removes one.  Circuits are identified up to deformation (sliding
gates with disjoint wire support past each other).  One binding in the
wire-threading DAG (``_bind``) decides that equality, for a rule side
against a block and for two whole circuits (``_deformation``), wire map
and INIT places included; ``canonicalize`` gives a deterministic
topological order of the DAG.  A ``Circuit`` keeps the threading its
constructor validated and the one record of its widest frame, so nothing
threads it again.
INIT/DEST keep their mutual order under every deformation and rewrite, so
each INIT's own position is the one record of wire order.

``unfold`` is the one definition of each macro; ``expand_gate`` applies it
until no gate is a macro.

Contents:
    - Gate / Circuit data types and JSON (de)serialization
    - Circuit.with_angles / Circuit._batched  (an instance with new angles,
      or the gates of a batch of instances, with their angles checked)
    - compose_seq / compose_par  (sequential and parallel composition)
    - unfold / expand_gate / expand_macros  (X, Z, RX, MCP, MCRX, CTRL ->
      primitives)
    - canonicalize / deformation_equal
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ArityMismatch, InvalidCircuit, NoMatch

TWO_PI = 2.0 * math.pi

#: tolerance for angle comparisons (modulo the gate kind's period)
ANGLE_EPS = 1e-9

#: the most wires a circuit or rule may declare: no list indexes more
_MAX_WIRES = sys.maxsize

PRIMITIVE_KINDS = ("GPHASE", "H", "P", "CNOT", "SWAP", "INIT", "DEST")
MACRO_KINDS = ("X", "Z", "RX", "MCP", "MCRX", "CTRL")
ALL_KINDS = PRIMITIVE_KINDS + MACRO_KINDS

# wire count (None = variable) and parameter count per kind
_KIND_SIG = {
    "GPHASE": (0, 1),
    "H": (1, 0),
    "P": (1, 1),
    "CNOT": (2, 0),
    "SWAP": (2, 0),
    "INIT": (1, 0),   # single entry: insertion position
    "DEST": (1, 0),
    "X": (1, 0),
    "Z": (1, 0),
    "RX": (1, 1),
    "MCP": (None, 1),
    "MCRX": (None, 1),
    "CTRL": (None, 0),
}

# generators P/GPHASE/MCP are 2pi-periodic in their angle; RX/MCRX carry a
# global phase of -theta/2 and are only 4pi-periodic
_FOUR_PI_KINDS = ("RX", "MCRX")


def angle_period(kind: str, base_kind: str | None = None) -> float:
    if kind == "CTRL":
        kind = base_kind or "P"
    return 2.0 * TWO_PI if kind in _FOUR_PI_KINDS else TWO_PI


def reduce_angle(value: float, period: float = TWO_PI) -> float:
    """Map into [0, period), values within ANGLE_EPS of period map to 0."""
    r = math.fmod(value, period)
    if r <= 0.0:        # so a zero, -0.0 included, leaves as 0.0 below
        r += period
    if r >= period - ANGLE_EPS:
        r = 0.0
    return r


def angles_equal(a: float, b: float, period: float = TWO_PI, tol: float = ANGLE_EPS) -> bool:
    d = math.fmod(a - b, period)
    if d < 0.0:
        d += period
    return d <= tol or period - d <= tol


def _wire(w, what: str = "wire") -> int:
    """``w`` as an int (numpy ints included); bools and floats are rejected,
    so 0.9 never truncates to wire 0.  The one integer check of all input:
    wires, wire counts and the index fields of a trace."""
    if isinstance(w, bool):
        raise InvalidCircuit(f"{what} {w!r} is not an integer")
    try:
        return operator.index(w)
    except TypeError:
        raise InvalidCircuit(f"{what} {w!r} is not an integer") from None


def _real(v, what: str = "angle") -> float:
    """``v`` as a float if it is a real number (numpy reals included);
    bools and strings are rejected, so "7" never reads as 7 nor true as 1."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise InvalidCircuit(f"{what} {v!r} is not a real number")
    return float(v)


def _as_tuple(vs, what: str) -> tuple:
    try:
        return tuple(vs)
    except TypeError:
        raise InvalidCircuit(f"{what} {vs!r} is not a sequence") from None


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate occurrence: a kind tag, wire positions and real parameters.

    ``wires`` index the ordered list of wires open at this gate's time
    frame.  For INIT the single entry is the insertion position.  CTRL,
    and no other kind, additionally carries a control bit ``pattern`` (a
    str, one bit per control wire, ``wires[:-1]``) and a 1-qubit ``base``
    gate applied on the last wire.

    The constructor is the one place a gate is checked and normalised:
    wires become a tuple of ints and params a tuple of finite floats
    (``_wire``, ``_real``), and a SWAP's two wires are sorted.  A field is
    rewritten only when that changes it.
    """

    kind: str
    wires: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    pattern: str = ""
    base: "Gate | None" = None

    def __post_init__(self):
        kind, wires, params = self.kind, self.wires, self.params
        sig = _KIND_SIG.get(kind)
        if sig is None:
            raise InvalidCircuit(f"unknown gate kind {kind!r}")
        if type(wires) is not tuple:
            wires = _as_tuple(wires, "wires")
            object.__setattr__(self, "wires", wires)
        for w in wires:
            if type(w) is not int:
                wires = tuple([w if type(w) is int else _wire(w) for w in wires])
                object.__setattr__(self, "wires", wires)
                break
        if type(params) is not tuple:
            params = _as_tuple(params, "params")
            object.__setattr__(self, "params", params)
        for v in params:
            if type(v) is not float:
                params = tuple([v if type(v) is float else _real(v) for v in params])
                object.__setattr__(self, "params", params)
                break
        for v in params:
            if not math.isfinite(v):
                raise InvalidCircuit(f"non-finite angle in {kind}")
        nw, np_ = sig
        if nw is not None and len(wires) != nw:
            raise InvalidCircuit(f"{kind} takes {nw} wire entries, got {len(wires)}")
        if len(params) != np_:
            raise InvalidCircuit(f"{kind} takes {np_} params, got {len(params)}")
        if kind == "SWAP" and wires[0] > wires[1]:
            wires = (wires[1], wires[0])
            object.__setattr__(self, "wires", wires)
        if kind == "CTRL":
            base, pattern = self.base, self.pattern
            if not isinstance(base, Gate) or base.kind not in ("P", "X", "Z", "RX"):
                raise InvalidCircuit("CTRL base must be a P, X, Z or RX gate")
            if (type(pattern) is not str or len(pattern) != len(wires) - 1
                    or set(pattern) - {"0", "1"}):
                raise InvalidCircuit("CTRL pattern must be a 0/1 string, one bit per control")
        else:
            # to_dict writes neither, so a gate that kept one would not
            # survive a JSON round trip
            if self.base is not None or type(self.pattern) is not str or self.pattern:
                raise InvalidCircuit(f"{kind} takes no control pattern or base")
            if nw is None and not wires:   # MCP, MCRX
                raise InvalidCircuit(f"{kind} needs at least one wire")
        # INIT has one entry, a position, so it never gets here
        if len(wires) > 1 and len(set(wires)) != len(wires):
            raise InvalidCircuit(f"{kind} wires must be pairwise distinct")

    def with_wires(self, wires: tuple[int, ...]) -> "Gate":
        """This gate on other positions (the gate itself if they are its own)."""
        if wires == self.wires:
            return self
        return Gate(self.kind, wires, self.params, self.pattern, self.base)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "wires": list(self.wires), "params": list(self.params)}
        if self.kind == "CTRL":
            d["pattern"] = self.pattern
            d["base"] = self.base.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "Gate":
        base = Gate.from_dict(d["base"]) if "base" in d else None
        return Gate(d["kind"], d.get("wires", ()), d.get("params", ()), d.get("pattern", ""), base)


# -- constructors -----------------------------------------------------------

def gphase(phi: float) -> Gate:
    return Gate("GPHASE", (), (phi,))

def h(w: int) -> Gate:
    return Gate("H", (w,))

def p(phi: float, w: int) -> Gate:
    return Gate("P", (w,), (phi,))

def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))

def swap(a: int, b: int) -> Gate:
    return Gate("SWAP", (a, b))

def init(position: int) -> Gate:
    return Gate("INIT", (position,))

def dest(position: int) -> Gate:
    return Gate("DEST", (position,))

def x(w: int) -> Gate:
    return Gate("X", (w,))

def z(w: int) -> Gate:
    return Gate("Z", (w,))

def rx(theta: float, w: int) -> Gate:
    return Gate("RX", (w,), (theta,))

def mcp(phi: float, wires: tuple[int, ...]) -> Gate:
    return Gate("MCP", tuple(wires), (phi,))

def mcrx(theta: float, wires: tuple[int, ...]) -> Gate:
    return Gate("MCRX", tuple(wires), (theta,))

def ctrl(pattern: str, base: Gate, wires: tuple[int, ...]) -> Gate:
    return Gate("CTRL", tuple(wires), (), pattern, base)


class _BatchGate(NamedTuple):
    """A gate that carries an angle, in a batch of instances of one circuit
    (``Circuit._batched``): its one parameter is a row of angles, one per
    instance."""

    kind: str
    wires: tuple[int, ...]
    params: tuple[np.ndarray]


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list applied left-to-right between n_in and n_out wires."""

    n_in: int
    n_out: int
    gates: tuple[Gate, ...] = ()
    threading: "Threading" = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if type(self.gates) is not tuple:
            object.__setattr__(self, "gates", _as_tuple(self.gates, "gates"))
        if type(self.n_in) is not int or type(self.n_out) is not int:
            object.__setattr__(self, "n_in", _wire(self.n_in))
            object.__setattr__(self, "n_out", _wire(self.n_out))
        if self.n_in < 0 or self.n_out < 0:
            raise InvalidCircuit("negative wire count")
        if self.n_in > _MAX_WIRES or self.n_out > _MAX_WIRES:
            raise InvalidCircuit(f"wire count above {_MAX_WIRES}")
        try:   # raises InvalidCircuit on bad threading
            object.__setattr__(self, "threading", thread(self))
        except AttributeError:   # thread reads fields only a Gate has
            idx, bad = next((i, g) for i, g in enumerate(self.gates) if type(g) is not Gate)
            raise InvalidCircuit(f"gate {idx}: {bad!r} is not a Gate") from None

    def __len__(self) -> int:
        return len(self.gates)

    @functools.cached_property
    def _plan(self) -> "_Plan":
        """This circuit compiled (``_compile``), once per circuit object."""
        return _compile(self)

    def _slots(self, count: int) -> tuple[int, ...]:
        """The gates that carry an angle (``_plan.angle_at``), once
        ``count`` angles fit them."""
        at = self._plan.angle_at
        if count != len(at):
            raise InvalidCircuit(f"{len(at)} gates carry an angle, got {count} angles")
        return at

    def with_angles(self, angles) -> "Circuit":
        """This circuit with new ``angles``, one per gate that carries one,
        in gate order.  Kinds and wires stay, so the threading is kept;
        each gate with an angle is built anew, which checks the angle."""
        angles = tuple(angles)
        gates, at = list(self.gates), self._slots(len(angles))
        for i, a in zip(at, angles):
            gates[i] = Gate(gates[i].kind, gates[i].wires, (a,))
        out = object.__new__(Circuit)
        out.__dict__.update(n_in=self.n_in, n_out=self.n_out, gates=tuple(gates),
                            threading=self.threading)
        return out

    def _batched(self, angles: np.ndarray) -> list:
        """This circuit's gates for a batch of instances that differ only in
        their angles: ``angles`` is an array (slots, k), one row per gate
        that carries an angle, and each such gate becomes a ``_BatchGate``
        with its row.  The angles are checked as ``with_angles`` and the
        ``Gate`` constructor check one instance's, with the same errors:
        their count, then that each is finite (the first instance's first
        bad slot names its gate)."""
        gates, at = list(self.gates), self._slots(len(angles))
        if not np.isfinite(angles).all():
            slot = np.argwhere(~np.isfinite(angles.T))[0][1]
            raise InvalidCircuit(f"non-finite angle in {gates[at[slot]].kind}")
        for i, row in zip(at, angles):
            gates[i] = _BatchGate(gates[i].kind, gates[i].wires, (row,))
        return gates

    def to_dict(self) -> dict:
        return {"n_in": self.n_in, "n_out": self.n_out,
                "gates": [g.to_dict() for g in self.gates]}

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)

    @staticmethod
    def from_dict(d: dict) -> "Circuit":
        return Circuit(d["n_in"], d["n_out"], tuple(Gate.from_dict(g) for g in d["gates"]))

    @staticmethod
    def from_json(s: str) -> "Circuit":
        return Circuit.from_dict(json.loads(s))


def circuit(n: int, gates=()) -> Circuit:
    """Width-preserving circuit (no INIT/DEST): n wires in and out."""
    return Circuit(n, n, tuple(gates))


@dataclass(frozen=True)
class Threading:
    """Result of replaying a gate list: wire identities per gate.

    Inputs get ids 0..n_in-1 and every INIT the next id, in birth order.
    ``widest`` is the most wires open at once, INITs counted.
    """

    gate_ids: tuple[tuple[int, ...], ...]   # wire ids touched by each gate
    output_ids: tuple[int, ...]
    widest: int


def thread(c: Circuit) -> Threading:
    """Replay the gate list, assigning a birth-ordered id to every wire.

    Raises InvalidCircuit when a gate references an out-of-range position or
    the replay does not end with exactly n_out wires.
    """
    open_ids = list(range(c.n_in))
    next_id = widest = c.n_in
    gate_ids: list[tuple[int, ...]] = []
    for idx, g in enumerate(c.gates):
        w = len(open_ids)
        if g.kind == "INIT":
            pos = g.wires[0]
            if not 0 <= pos <= w:
                raise InvalidCircuit(f"gate {idx}: INIT position {pos} out of range (width {w})")
            open_ids.insert(pos, next_id)
            gate_ids.append((next_id,))
            next_id += 1
            widest = max(widest, w + 1)
        elif g.kind == "DEST":
            pos = g.wires[0]
            if not 0 <= pos < w:
                raise InvalidCircuit(f"gate {idx}: DEST position {pos} out of range (width {w})")
            gate_ids.append((open_ids.pop(pos),))
        else:
            for wp in g.wires:
                if not 0 <= wp < w:
                    raise InvalidCircuit(f"gate {idx}: wire {wp} out of range (width {w})")
            gate_ids.append(tuple(open_ids[wp] for wp in g.wires))
    if len(open_ids) != c.n_out:
        raise InvalidCircuit(f"threading ends with {len(open_ids)} wires, declared n_out={c.n_out}")
    return Threading(tuple(gate_ids), tuple(open_ids), widest)


# -- the id-level wire model ------------------------------------------------
#
# A circuit read at the id level is a list of (gate, wire ids) pairs, as
# ``zip(c.gates, c.threading.gate_ids)`` gives it.  Gates may be moved and
# replaced as long as INIT/DEST keep their chain order: nothing else
# reshapes the open-wire list, so each INIT's own position stays valid and
# is the one record of where its wire sits.

#: a gate and the ids of the wires it touches
_IdGate = tuple[Gate, tuple[int, ...]]


_STRUCT = -1  # pseudo wire id that chains every INIT and DEST


def _deps(g: Gate, ids: tuple[int, ...]) -> tuple[int, ...]:
    """The ids that order ``g``: its wires, plus the INIT/DEST chain."""
    return ids + (_STRUCT,) if g.kind in ("INIT", "DEST") else ids


class _Plan(NamedTuple):
    """What binding a circuit as a rule side, or splicing it in, reads of
    it: the same for every instance of a rule shape, so a rule side is
    compiled once (``Circuit._plan``).  A gate's angle slot indexes the
    angles of the gates that carry one, in gate order (None: no angle)."""

    binds: tuple      # per gate: kind, labels (``_deps``), slot, period, CTRL gate or None
    splices: tuple    # per gate: the gate, its labels, slot, whether it is an INIT
    angle_at: tuple[int, ...]    # the gates that carry an angle
    angles: tuple[float, ...]    # and their angles
    born_out: tuple              # (output, label) of each output an INIT opens


def _compile(c: Circuit) -> _Plan:
    """``c``'s plan (``_Plan``)."""
    at = tuple(i for i, g in enumerate(c.gates) if g.params)
    slot = dict(zip(at, range(len(at))))
    per_gate = [(s, labs, slot.get(i)) for i, (s, labs)
                in enumerate(zip(c.gates, c.threading.gate_ids))]
    return _Plan(
        tuple((s.kind, _deps(s, labs), k, angle_period(s.kind), s if s.base else None)
              for s, labs, k in per_gate),
        tuple((s, labs, k, s.kind == "INIT") for s, labs, k in per_gate),
        at, tuple(c.gates[i].params[0] for i in at),
        tuple((k, lab) for k, lab in enumerate(c.threading.output_ids) if lab >= c.n_in))


def _frame(alive, gates) -> list[int]:
    """The open ids after the id-level ``gates``, starting from ``alive``."""
    alive = list(alive)
    for g, ids in gates:
        if g.kind == "INIT":
            alive.insert(g.wires[0], ids[0])
        elif g.kind == "DEST":
            alive.remove(ids[0])
    return alive


def _place(alive: list[int], gates) -> list[Gate]:
    """The id-level ``gates`` on the positions their ids hold in the running
    open-wire list ``alive``, which is updated in place.  Each INIT keeps
    its own position."""
    out = []
    for g, ids in gates:
        if g.kind == "INIT":
            alive.insert(g.wires[0], ids[0])
        elif g.kind == "DEST":
            pos = alive.index(ids[0])
            del alive[pos]
            g = g.with_wires((pos,))
        else:
            g = g.with_wires(tuple(map(alive.index, ids)))
        out.append(g)
    return out


def _bind(gates: list[_IdGate], cand, side, frame=None,
          wire_map=()) -> list[tuple[list[int], dict]]:
    """Each way the side ``side`` binds to the gates ``cand`` (indices into
    id-level ``gates``, in order): the gates its gates bind to, and the
    binding.  ``side`` is a circuit and the angles of its gates that carry
    one, or None for the circuit's own.  It reads the circuit's plan
    (``Circuit._plan``): a rule side's is compiled once, any other's here.

    A label, a side's wire or the INIT/DEST chain (``_deps``), binds to a
    wire id and the last gate bound on it (None before the first).  Each
    side gate binds a candidate of its kind and angle (modulo the kind's
    period), and a CTRL one of its pattern and base: the next one on a
    bound label's wire, or, with no label bound, any one, SWAP either way
    round; its other labels must end there or take wires no label holds.
    A GPHASE binds the first free one of its angle.  Given the open ids
    ``frame`` where the candidates assemble, the chain and each input
    label ``i`` bind first, to the id at ``wire_map[i]``, so it binds one
    way or none, and each INIT must open its wire where the side's does
    among the bound wires; a wire map off the frame, or an INIT off its
    place, raises NoMatch.  With no frame nothing is bound first, so an
    unbound label must take a wire no label holds; with one, only an INIT
    binds an unbound label, to the wire it opens, which no label holds.
    """
    shape, angles = side
    plan = shape._plan
    if angles is None:
        angles = plan.angles
    at = {}   # label -> (last gate bound on it, wire id)
    if frame is not None:
        if len(wire_map) != shape.n_in:
            raise NoMatch(f"wire_map has {len(wire_map)} entries, "
                          f"rule has {shape.n_in} input wires")
        at[_STRUCT] = (None, _STRUCT)
        for lab, pos in enumerate(wire_map):
            if not 0 <= pos < len(frame):
                raise NoMatch(f"wire_map position {pos} out of range at the site frame")
            at[lab] = (None, frame[pos])
        if len(set(wire_map)) != len(wire_map):
            raise NoMatch("wire_map is not injective")
    succ, last = {}, {}   # succ: (gate, id) -> the next candidate on it
    phases = []           # the global phases left free, one list per partial binding
    for i in cand:
        deps = _deps(*gates[i])
        for wid in deps:
            succ[last.get(wid), wid] = i
            last[wid] = i
        if not deps:
            phases.append(i)
    found, partial = [], [(0, [], at, phases)]   # (next side gate, bound, binding, phases)
    while partial:
        k, chosen, at, phases = partial.pop()
        for kind, labs, slot, period, ctl in plan.binds[k:]:   # ctl: the CTRL side gate
            for lab in labs:
                if lab in at:
                    next_on = (succ.get(at[lab]),)
                    break
            else:
                if not labs and phases is None:   # a branch lists its own
                    phases = [i for i in cand if gates[i][0].kind == "GPHASE" and i not in chosen]
                next_on = cand if labs else phases
            fits = []
            for i in next_on:   # a bound label's successor is never bound yet
                if i is None or gates[i][0].kind != kind or next_on is cand and i in chosen:
                    continue
                g, ids = gates[i][0], _deps(*gates[i])
                if len(ids) != len(labs) or slot is not None and not angles_equal(
                        g.params[0], angles[slot], period):
                    continue
                if ctl is not None:
                    b, cb = g.base, ctl.base
                    if (g.pattern, b.kind, b.wires) != (ctl.pattern, cb.kind, cb.wires) or (
                            b.params and not angles_equal(b.params[0], cb.params[0],
                                                          angle_period(b.kind))):
                        continue
                for order in (ids, ids[::-1]) if kind == "SWAP" else (ids,):
                    for lab, wid in zip(labs, order):
                        if (succ.get(at[lab]) != i or at[lab][1] != wid if lab in at
                                else frame is None and any(w == wid for _, w in at.values())):
                            break
                    else:
                        fits.append((i, order))
                if fits and not labs:   # a phase binds the first free one
                    phases.remove(i)
                    break
            if not fits:
                break
            k += 1
            i, order = fits.pop()
            for j, other in fits:   # each other way binds on from a copy
                branch = {**at, **{lab: (j, w) for lab, w in zip(labs, other)}}
                partial.append((k, chosen + [j], branch, None))
            chosen.append(i)
            for lab, wid in zip(labs, order):
                at[lab] = (i, wid)
        else:
            found.append((chosen, at))
    if frame is None or not found or len(found[0][1]) == 1 + shape.n_in:
        return found   # nothing bound first, no way, or the side opens no wire
    chosen, at = found[0]
    bound, alive = {wid for _, wid in at.values()}, list(frame)
    every = bound.issuperset(frame)   # then each INIT's place is its own position
    places = iter([s.wires[0] for s in shape.gates if s.kind == "INIT"])
    for i in sorted(chosen):
        g, ids = gates[i]
        if g.kind == "INIT":
            alive.insert(g.wires[0], ids[0])
            place = g.wires[0] if every else [w for w in alive if w in bound].index(ids[0])
            if place != next(places):
                raise NoMatch("a selected INIT opens its wire off the rule side's place")
        elif g.kind == "DEST":
            alive.remove(ids[0])
    return found


# -- composition ------------------------------------------------------------

def compose_seq(c1: Circuit, c2: Circuit) -> Circuit:
    """c2 after c1 (gate lists concatenated)."""
    if c1.n_out != c2.n_in:
        raise ArityMismatch(f"cannot chain {c1.n_out} outputs into {c2.n_in} inputs")
    return Circuit(c1.n_in, c2.n_out, c1.gates + c2.gates)


def compose_par(c1: Circuit, c2: Circuit) -> Circuit:
    """c1 on top of c2 (c2's wires shifted below c1's).

    c1's gates are emitted first, so while c2's gates run the region above
    them has settled at c1.n_out wires; any interleaving is deformation-equal.
    """
    shifted = tuple(g.with_wires(tuple(w + c1.n_out for w in g.wires)) for g in c2.gates)
    return Circuit(c1.n_in + c2.n_in, c1.n_out + c2.n_out, c1.gates + shifted)


# -- macro expansion --------------------------------------------------------

def expand_macros(c: Circuit) -> Circuit:
    """Rewrite every macro gate into primitives; semantics is preserved."""
    out: list[Gate] = []
    for g in c.gates:
        out.extend(expand_gate(g))
    return Circuit(c.n_in, c.n_out, tuple(out))


def expand_gate(g: Gate) -> list[Gate]:
    """Primitive gate list for one (possibly macro) gate occurrence: the
    gates of ``unfold``, unfolded again until none is a macro."""
    if g.kind in PRIMITIVE_KINDS:
        return [g]
    return [e for sub in unfold(g) for e in expand_gate(sub)]


def unfold(g: Gate) -> list[Gate]:
    """One-level unfolding of a macro gate: its definition, whose gates may
    themselves be macros on fewer wires."""
    if g.kind == "Z":
        return [p(math.pi, g.wires[0])]
    if g.kind == "X":
        w = g.wires[0]
        return [h(w), p(math.pi, w), h(w)]
    if g.kind == "RX":
        theta, w = g.params[0], g.wires[0]
        return [gphase(-theta / 2.0), h(w), p(theta, w), h(w)]
    if g.kind == "MCP":
        # phase-gadget recursion
        phi, wires = g.params[0], g.wires
        if len(wires) == 1:
            return [p(phi, wires[0])]
        front, last = wires[:-1], wires[-1]
        prev, tail = front[:-1], front[-1]
        return [_controls_phase(phi / 2.0, front),
                _controls_phase(phi / 2.0, prev + (last,)), cnot(tail, last),
                _controls_phase(-phi / 2.0, prev + (last,)), cnot(tail, last)]
    if g.kind == "MCRX":
        theta, wires = g.params[0], g.wires
        if len(wires) == 1:
            return [rx(theta, wires[0])]
        return [h(wires[-1]), mcp(theta, wires), h(wires[-1]),
                _controls_phase(-theta / 2.0, wires[:-1])]
    if g.kind == "CTRL":
        return _ctrl_gates(g)
    raise InvalidCircuit(f"cannot expand {g.kind}")


def _controls_phase(phi: float, controls: tuple[int, ...]) -> Gate:
    """The phase phi conditioned on all of ``controls`` (a global phase when
    there are none)."""
    return gphase(phi) if not controls else (
        p(phi, controls[0]) if len(controls) == 1 else mcp(phi, controls))


def _ctrl_gates(g: Gate) -> list[Gate]:
    controls, target = g.wires[:-1], g.wires[-1]
    flips = [x(w) for w, bit in zip(controls, g.pattern) if bit == "0"]
    base = g.base
    if base.kind == "P":
        core = [mcp(base.params[0], g.wires)]
    elif base.kind == "Z":
        core = [mcp(math.pi, g.wires)]
    elif base.kind == "RX":
        core = [mcrx(base.params[0], g.wires)]
    else:  # X: fix the -i phase of RX(pi) with a pi/2 phase on the controls
        fix = mcp(math.pi / 2.0, controls) if controls else gphase(math.pi / 2.0)
        core = [mcrx(math.pi, g.wires), fix]
    return flips + core + [Gate(f.kind, f.wires) for f in reversed(flips)]


# -- canonicalization and deformation equality -------------------------------

_NO_WIRE = 1 << 60  # sort sentinel for 0-wire gates


def canonicalize(c: Circuit) -> Circuit:
    """``c`` with its gates in the deterministic topological order of the
    wire-threading DAG (``_canonical_order``)."""
    gates = _id_gates(c)
    placed = _place(list(range(c.n_in)), [gates[i] for i in _canonical_order(gates)])
    return Circuit(c.n_in, c.n_out, tuple(placed))


def _id_gates(c: Circuit) -> list[_IdGate]:
    """``c`` at the id level, read off its threading."""
    return list(zip(c.gates, c.threading.gate_ids))


def _canonical_order(gates: list[_IdGate]) -> list[int]:
    """The indices of the id-level ``gates`` in canonical order: by
    dependency depth, then smallest wire id, then index.  Gates that share
    a wire id, or the INIT/DEST chain (``_deps``), keep their order.  Two
    gates of one depth share no wire id, so only wireless global phases
    tie there; they sort by angle modulo 2pi.

    Deformation-equal circuits put the same gate at the same rank.
    """
    depth, last = [], {}   # last: wire id -> the latest gate on it
    for i, (g, ids) in enumerate(gates):
        deps = _deps(g, ids)
        depth.append(1 + max((depth[last[w]] for w in deps if w in last), default=-1))
        for w in deps:
            last[w] = i

    def key(i):
        g, ids = gates[i]
        if ids:
            return depth[i], min(ids), 0, i
        return depth[i], _NO_WIRE, round(reduce_angle(g.params[0]) / ANGLE_EPS), i

    return sorted(range(len(gates)), key=key)


def _deformation(c1: Circuit, c2: Circuit) -> list[int] | None:
    """Where each gate of ``c1`` sits in ``c2``, of the same arity, if the
    two are equal up to deformation; else None.  ``c1`` binds, as a side,
    to all of ``c2`` with the inputs as both frame and wire map (``_bind``)."""
    if len(c1.gates) != len(c2.gates):
        return None
    inputs = range(c1.n_in)
    try:
        found = _bind(_id_gates(c2), range(len(c2.gates)), (c1, None), inputs, inputs)
    except NoMatch:   # an INIT opens its wire off its partner's position
        return None
    return found[0][0] if found else None


def deformation_equal(c1: Circuit, c2: Circuit) -> bool:
    """True iff the two circuits are equal up to prop deformation."""
    if (c1.n_in, c1.n_out) != (c2.n_in, c2.n_out):
        raise ArityMismatch("deformation_equal needs equal arities")
    return c1.gates == c2.gates or _deformation(c1, c2) is not None
