"""Circuit intermediate representation.

A circuit is a wire-threaded ordered gate sequence between ``n_in`` input
wires and ``n_out`` output wires.  Gates act on positions in the running
ordered list of open wires; ``INIT`` inserts a wire at its stated position,
``DEST`` removes one.  Circuits are identified up to deformation (sliding
gates with disjoint wire support past each other), which is decided by a
canonical topological ordering of the wire-threading DAG.

Contents:
    - Gate / Circuit / CanonicalForm data types and JSON (de)serialization
    - compose_seq / compose_par  (sequential and parallel composition)
    - unfold / expand_macros     (X, Z, RX, MCP, MCRX, CTRL -> primitives)
    - canonicalize / deformation_equal
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

from .errors import ArityMismatch, InvalidCircuit

TWO_PI = 2.0 * math.pi

#: tolerance for angle comparisons (modulo the gate kind's period)
ANGLE_EPS = 1e-9

PRIMITIVE_KINDS = ("GPHASE", "H", "P", "CNOT", "SWAP", "INIT", "DEST")
MACRO_KINDS = ("X", "Z", "RX", "MCP", "MCRX", "CTRL")
ALL_KINDS = PRIMITIVE_KINDS + MACRO_KINDS

_KIND_ORDER = {k: i for i, k in enumerate(ALL_KINDS)}

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
    if r < 0.0:
        r += period
    if r > period - ANGLE_EPS:
        r = 0.0
    return r


def angles_equal(a: float, b: float, period: float = TWO_PI, tol: float = ANGLE_EPS) -> bool:
    d = math.fmod(a - b, period)
    if d < 0.0:
        d += period
    return d <= tol or period - d <= tol


@dataclass(frozen=True)
class Gate:
    """One gate occurrence: a kind tag, wire positions and real parameters.

    ``wires`` index the ordered list of wires open at this gate's time
    frame.  For INIT the single entry is the insertion position.  CTRL
    additionally carries a control bit ``pattern`` (one bit per control
    wire, ``wires[:-1]``) and a 1-qubit ``base`` gate applied on the last
    wire.
    """

    kind: str
    wires: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    pattern: str = ""
    base: "Gate | None" = None

    def __post_init__(self):
        if self.kind not in _KIND_SIG:
            raise InvalidCircuit(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        for p in self.params:
            if not math.isfinite(p):
                raise InvalidCircuit(f"non-finite angle in {self.kind}")
        nw, np_ = _KIND_SIG[self.kind]
        if nw is not None and len(self.wires) != nw:
            raise InvalidCircuit(f"{self.kind} takes {nw} wire entries, got {len(self.wires)}")
        if len(self.params) != np_:
            raise InvalidCircuit(f"{self.kind} takes {np_} params, got {len(self.params)}")
        if self.kind == "SWAP":
            object.__setattr__(self, "wires", tuple(sorted(self.wires)))
        if self.kind in ("MCP", "MCRX") and len(self.wires) < 1:
            raise InvalidCircuit(f"{self.kind} needs at least one wire")
        if self.kind == "CTRL":
            if self.base is None or self.base.kind not in ("P", "X", "Z", "RX"):
                raise InvalidCircuit("CTRL base must be a P, X, Z or RX gate")
            if len(self.pattern) != len(self.wires) - 1 or set(self.pattern) - {"0", "1"}:
                raise InvalidCircuit("CTRL pattern must be a 0/1 string, one bit per control")
        if self.kind != "INIT" and len(set(self.wires)) != len(self.wires):
            raise InvalidCircuit(f"{self.kind} wires must be pairwise distinct")

    # -- deformation-level equality helpers --------------------------------

    def same_gate(self, other: "Gate", tol: float = ANGLE_EPS) -> bool:
        """Equality with angles compared modulo the kind's period."""
        if (self.kind, self.wires, self.pattern) != (other.kind, other.wires, other.pattern):
            return False
        if (self.base is None) != (other.base is None):
            return False
        if self.base is not None and not self.base.same_gate(other.base, tol):
            return False
        period = angle_period(self.kind, self.base.kind if self.base else None)
        return all(angles_equal(a, b, period, tol) for a, b in zip(self.params, other.params))

    def sort_key(self):
        period = angle_period(self.kind, self.base.kind if self.base else None)
        pkey = tuple(round(reduce_angle(p, period) / ANGLE_EPS) for p in self.params)
        bkey = self.base.sort_key() if self.base is not None else ()
        return (_KIND_ORDER[self.kind], self.pattern, pkey, bkey)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "wires": list(self.wires), "params": list(self.params)}
        if self.kind == "CTRL":
            d["pattern"] = self.pattern
            d["base"] = self.base.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "Gate":
        base = Gate.from_dict(d["base"]) if "base" in d else None
        return Gate(d["kind"], tuple(d.get("wires", ())), tuple(d.get("params", ())),
                    d.get("pattern", ""), base)


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


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list applied left-to-right between n_in and n_out wires."""

    n_in: int
    n_out: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n_in < 0 or self.n_out < 0:
            raise InvalidCircuit("negative wire count")
        thread(self)  # raises InvalidCircuit on bad threading

    def __len__(self) -> int:
        return len(self.gates)

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
class CanonicalForm:
    """A circuit whose gates are in canonical topological order."""

    circuit: Circuit

    def __eq__(self, other):
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        a, b = self.circuit, other.circuit
        if (a.n_in, a.n_out, len(a.gates)) != (b.n_in, b.n_out, len(b.gates)):
            return False
        return all(g1.same_gate(g2) for g1, g2 in zip(a.gates, b.gates))


@dataclass
class Threading:
    """Result of replaying a gate list: wire identities per gate."""

    gate_ids: list[tuple[int, ...]]     # wire ids touched by each gate
    init_positions: dict[int, int]      # gate index -> insertion position
    input_ids: list[int]
    output_ids: list[int]
    n_ids: int


def thread(c: Circuit) -> Threading:
    """Replay the gate list, assigning a birth-ordered id to every wire.

    Raises InvalidCircuit when a gate references an out-of-range position or
    the replay does not end with exactly n_out wires.
    """
    open_ids = list(range(c.n_in))
    next_id = c.n_in
    gate_ids: list[tuple[int, ...]] = []
    init_positions: dict[int, int] = {}
    for idx, g in enumerate(c.gates):
        w = len(open_ids)
        if g.kind == "INIT":
            pos = g.wires[0]
            if not 0 <= pos <= w:
                raise InvalidCircuit(f"gate {idx}: INIT position {pos} out of range (width {w})")
            open_ids.insert(pos, next_id)
            gate_ids.append((next_id,))
            init_positions[idx] = pos
            next_id += 1
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
    return Threading(gate_ids, init_positions, list(range(c.n_in)), open_ids, next_id)


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
    shifted = tuple(_shift_gate(g, c1.n_out) for g in c2.gates)
    return Circuit(c1.n_in + c2.n_in, c1.n_out + c2.n_out, c1.gates + shifted)


def _shift_gate(g: Gate, offset: int) -> Gate:
    return Gate(g.kind, tuple(w + offset for w in g.wires), g.params, g.pattern, g.base)


# -- macro expansion --------------------------------------------------------

def expand_macros(c: Circuit) -> Circuit:
    """Rewrite every macro gate into primitives; semantics is preserved."""
    out: list[Gate] = []
    for g in c.gates:
        out.extend(expand_gate(g))
    return Circuit(c.n_in, c.n_out, tuple(out))


def expand_gate(g: Gate) -> list[Gate]:
    """Primitive gate list for one (possibly macro) gate occurrence."""
    if g.kind in PRIMITIVE_KINDS:
        return [g]
    return [gg for sub in unfold(g) for gg in expand_gate(sub)]


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
        core = [mcrx(math.pi, g.wires)] + ([mcp(math.pi / 2.0, controls)] if controls else [])
    return flips + core + [Gate(f.kind, f.wires) for f in reversed(flips)]


# -- canonicalization -------------------------------------------------------

_NO_WIRE = 1 << 60  # sort sentinel for 0-wire gates


def canonicalize(c: Circuit) -> CanonicalForm:
    """Deterministic topological order of the wire-threading DAG.

    Gates sharing a wire keep their order; INIT/DEST keep their mutual
    order (they reshape the open-wire list).  Ready gates are emitted by
    (dependency depth, smallest touched wire id, kind, parameters).
    """
    th = thread(c)
    n = len(c.gates)
    succ: list[list[int]] = [[] for _ in range(n)]
    n_pred = [0] * n
    last_by_id: dict[int, int] = {}
    last_structural = -1
    for i, g in enumerate(c.gates):
        preds = set()
        for wid in th.gate_ids[i]:
            if wid in last_by_id:
                preds.add(last_by_id[wid])
            last_by_id[wid] = i
        if g.kind in ("INIT", "DEST"):
            if last_structural >= 0:
                preds.add(last_structural)
            last_structural = i
        for j in preds:
            succ[j].append(i)
        n_pred[i] = len(preds)

    depth = [0] * n
    ready = []
    for i in range(n):
        if n_pred[i] == 0:
            heapq.heappush(ready, _prio(c.gates[i], th.gate_ids[i], 0, i))
    order: list[int] = []
    while ready:
        *_, i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            depth[j] = max(depth[j], depth[i] + 1)
            n_pred[j] -= 1
            if n_pred[j] == 0:
                heapq.heappush(ready, _prio(c.gates[j], th.gate_ids[j], depth[j], j))
    if len(order) != n:
        raise InvalidCircuit("cycle in threading DAG")  # unreachable by construction

    gates = _emit(c, th, order)
    return CanonicalForm(Circuit(c.n_in, c.n_out, tuple(gates)))


def _prio(g: Gate, ids: tuple[int, ...], depth: int, idx: int):
    min_id = min(ids) if ids else _NO_WIRE
    return (depth, min_id, g.sort_key(), idx)


def _emit(c: Circuit, th: Threading, order: list[int]) -> list[Gate]:
    """Re-emit gate records in the given order, recomputing wire positions."""
    open_ids = list(range(c.n_in))
    out = []
    for i in order:
        g = c.gates[i]
        if g.kind == "INIT":
            pos = th.init_positions[i]
            out.append(init(pos))
            open_ids.insert(pos, th.gate_ids[i][0])
        elif g.kind == "DEST":
            pos = open_ids.index(th.gate_ids[i][0])
            out.append(dest(pos))
            open_ids.pop(pos)
        else:
            wires = tuple(open_ids.index(wid) for wid in th.gate_ids[i])
            out.append(Gate(g.kind, wires, g.params, g.pattern, g.base))
    return out


def deformation_equal(c1: Circuit, c2: Circuit, tol: float = ANGLE_EPS) -> bool:
    """True iff the two circuits are equal up to prop deformation."""
    if (c1.n_in, c1.n_out) != (c2.n_in, c2.n_out):
        raise ArityMismatch("deformation_equal needs equal arities")
    a = canonicalize(c1).circuit
    b = canonicalize(c2).circuit
    if len(a.gates) != len(b.gates):
        return False
    return all(g1.same_gate(g2, tol) for g1, g2 in zip(a.gates, b.gates))
