"""Rule application, derivation traces, replay, and 1-qubit decision procedures.

A rewrite step names a rule (axiom, derived lemma, or macro definition), a
direction, parameters, and a site: explicit gate indices plus a map from
rule wires to circuit wire positions.  Matching is site-directed; the
engine verifies that the selected gates can be commuted into a contiguous
block and are deformation-equal to the instantiated source side, then
splices in the target side.  A safety net re-checks the semantics of every
accepted step numerically.

Sites for rules whose sides create or destroy wires (A, AP, ACX) require a
spatially monotone wire map: rule wire order must agree with the circuit's
wire order at the site.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import (ANGLE_EPS, TWO_PI, Circuit, Gate, angles_equal,
                      deformation_equal, dest, init, reduce_angle, thread)
from .errors import (ArityMismatch, BadArity, IllegalSite, NoMatch, QcError,
                     SemanticDrift, UnknownLemma, UnknownTheory)
from .euler import NormalFormParams, _pack, euler_eprime
from .semantics import equal_matrices, eval_matrix, wire_cap
from .theories import (DEFINITIONAL, RuleId, RuleInstance, _CATALOG,
                       instantiate, lemma_instantiate)

_STRUCT = -1  # pseudo wire id shared by all INIT/DEST gates (order bookkeeping)


@dataclass(frozen=True)
class Site:
    """Where a rule fires: gate indices and the rule-wire -> position map.

    ``wire_map[i]`` is the position of rule wire ``i`` in the frame where
    the selected block assembles: just before the first selected gate,
    after any unselected INIT/DEST in the window have been commuted out of
    the way.  When no gates are selected (empty source side), the block is
    spliced in front of gate ``at``.
    """

    gates: tuple[int, ...] = ()
    wire_map: tuple[int, ...] = ()
    at: int = 0

    def to_dict(self) -> dict:
        return {"gates": list(self.gates), "wire_map": list(self.wire_map), "at": self.at}

    @staticmethod
    def from_dict(d: dict) -> "Site":
        return Site(tuple(d.get("gates", ())), tuple(d.get("wire_map", ())),
                    int(d.get("at", 0)))


@dataclass(frozen=True)
class Step:
    rule: str
    direction: str          # "LR" or "RL"
    params: tuple[float, ...] = ()
    n: int | None = None
    site: Site = Site()

    def to_dict(self) -> dict:
        return {"rule": self.rule, "direction": self.direction,
                "params": list(self.params), "n": self.n,
                "site": self.site.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "Step":
        return Step(d["rule"], d["direction"], tuple(d.get("params", ())),
                    d.get("n"), Site.from_dict(d.get("site", {})))


@dataclass
class Derivation:
    theory: str
    initial: Circuit
    steps: list[Step]
    final: Circuit
    name: str = ""

    def to_dict(self) -> dict:
        d = {"theory": self.theory, "initial": self.initial.to_dict(),
             "steps": [s.to_dict() for s in self.steps], "final": self.final.to_dict()}
        if self.name:
            d["name"] = self.name
        return d

    @staticmethod
    def from_dict(d: dict) -> "Derivation":
        return Derivation(d["theory"], Circuit.from_dict(d["initial"]),
                          [Step.from_dict(s) for s in d["steps"]],
                          Circuit.from_dict(d["final"]), d.get("name", ""))


def resolve_rule(theory: str, name: str, params, n, allow_lemmas: bool) -> RuleInstance:
    """Axioms of the theory first, then macro definitions, then lemmas."""
    if theory not in _CATALOG:
        raise UnknownTheory(f"no theory {theory!r}")
    if name in _CATALOG[theory]:
        return instantiate(RuleId(theory, name), params, n)
    if name in DEFINITIONAL:
        return lemma_instantiate(name, params, n)
    if allow_lemmas:
        return lemma_instantiate(name, params, n)
    raise UnknownLemma(f"{name} is not an axiom of {theory} "
                       "(derived lemmas need allow_lemmas)")


# -- id-level circuit view ----------------------------------------------------

@dataclass
class _IdGate:
    kind: str
    ids: tuple[int, ...]
    params: tuple[float, ...]
    pattern: str
    base: Gate | None

    def gate_with_wires(self, wires: tuple[int, ...]) -> Gate:
        return Gate(self.kind, wires, self.params, self.pattern, self.base)

    def dep_ids(self) -> tuple[int, ...]:
        if self.kind in ("INIT", "DEST"):
            return self.ids + (_STRUCT,)
        return self.ids


class _IdCircuit:
    """Gate list over stable wire ids, with a total spatial order (keys)."""

    def __init__(self, c: Circuit):
        th = thread(c)
        self.n_in = c.n_in
        self.n_out = c.n_out
        self.key: dict[int, Fraction] = {i: Fraction(i) for i in range(c.n_in)}
        self.gates: list[_IdGate] = []
        open_ids = list(range(c.n_in))
        for g, ids in zip(c.gates, th.gate_ids):
            if g.kind == "INIT":
                pos = g.wires[0]
                lo = self.key[open_ids[pos - 1]] if pos > 0 else None
                hi = self.key[open_ids[pos]] if pos < len(open_ids) else None
                self.key[ids[0]] = self.key_between(lo, hi)
                open_ids.insert(pos, ids[0])
            elif g.kind == "DEST":
                open_ids.remove(ids[0])
            self.gates.append(_IdGate(g.kind, ids, g.params, g.pattern, g.base))
        self._next_id = th.n_ids

    def key_between(self, lo: Fraction | None, hi: Fraction | None) -> Fraction:
        if lo is None and hi is None:
            cand = Fraction(0)
        elif lo is None:
            cand = hi - 1
        elif hi is None:
            cand = lo + 1
        else:
            cand = Fraction(lo + hi, 2)
        taken = set(self.key.values())
        step = Fraction(1, 2)
        while cand in taken:
            cand = cand - step if hi is None else cand + step * (hi - cand)
            step /= 2
        return cand

    def fresh_id(self, key: Fraction) -> int:
        wid = self._next_id
        self._next_id += 1
        self.key[wid] = key
        return wid

    def frames(self) -> list[list[int]]:
        """Alive wire ids (spatial order) before each gate, plus the final frame."""
        alive = sorted(range(self.n_in), key=lambda i: self.key[i])
        out = [list(alive)]
        for g in self.gates:
            if g.kind == "INIT":
                keys = [self.key[a] for a in alive]
                alive.insert(bisect_left(keys, self.key[g.ids[0]]), g.ids[0])
            elif g.kind == "DEST":
                alive.remove(g.ids[0])
            out.append(list(alive))
        return out

    def to_circuit(self) -> Circuit:
        alive = sorted(range(self.n_in), key=lambda i: self.key[i])
        gates: list[Gate] = []
        for g in self.gates:
            if g.kind == "INIT":
                keys = [self.key[a] for a in alive]
                pos = bisect_left(keys, self.key[g.ids[0]])
                gates.append(init(pos))
                alive.insert(pos, g.ids[0])
            elif g.kind == "DEST":
                pos = alive.index(g.ids[0])
                gates.append(dest(pos))
                alive.pop(pos)
            else:
                gates.append(g.gate_with_wires(tuple(alive.index(i) for i in g.ids)))
        return Circuit(self.n_in, self.n_out, tuple(gates))


def _rule_side_ids(side: Circuit):
    """Thread a rule side over abstract labels 0..n_in-1, fresh for INITs.

    Returns (idgates, created labels in birth order, output labels).
    """
    th = thread(side)
    idgates = [_IdGate(g.kind, ids, g.params, g.pattern, g.base)
               for g, ids in zip(side.gates, th.gate_ids)]
    created = [ids[0] for g, ids in zip(side.gates, th.gate_ids) if g.kind == "INIT"]
    return idgates, created, list(th.output_ids)


# -- step application ---------------------------------------------------------

@dataclass
class ApplyResult:
    circuit: Circuit
    reverse_site: Site


def apply_step(c: Circuit, step: Step, theory: str = "QC",
               allow_lemmas: bool = True, safety: bool = True,
               tol: float = 1e-9) -> Circuit:
    return apply_step_full(c, step, theory, allow_lemmas, safety, tol).circuit


def apply_step_full(c: Circuit, step: Step, theory: str = "QC",
                    allow_lemmas: bool = True, safety: bool = True,
                    tol: float = 1e-9) -> ApplyResult:
    if step.direction not in ("LR", "RL"):
        raise NoMatch(f"bad direction {step.direction!r}")
    inst = resolve_rule(theory, step.rule, step.params, step.n, allow_lemmas)
    src, dst = (inst.lhs, inst.rhs) if step.direction == "LR" else (inst.rhs, inst.lhs)

    idc = _IdCircuit(c)
    frames = idc.frames()
    sel = tuple(step.site.gates)
    if len(sel) != len(set(sel)) or any(not 0 <= i < len(idc.gates) for i in sel):
        raise NoMatch("site gate indices out of range or repeated")
    if len(sel) != len(src.gates):
        raise NoMatch(f"site selects {len(sel)} gates, source side has {len(src.gates)}")
    sel = tuple(sorted(sel))
    anchor = sel[0] if sel else step.site.at
    if not 0 <= anchor <= len(idc.gates):
        raise NoMatch("splice index out of range")

    before, after = _partition_block(idc, sel)

    # the block assembles after the floats-before; resolve wire positions in
    # that effective frame (floats may include INIT/DEST)
    frame = list(frames[anchor])
    for i in before:
        g = idc.gates[i]
        if g.kind == "INIT":
            keys = [idc.key[a] for a in frame]
            frame.insert(bisect_left(keys, idc.key[g.ids[0]]), g.ids[0])
        elif g.kind == "DEST":
            frame.remove(g.ids[0])
    if len(step.site.wire_map) != src.n_in:
        raise NoMatch(f"wire_map has {len(step.site.wire_map)} entries, "
                      f"rule has {src.n_in} input wires")
    for pos in step.site.wire_map:
        if not 0 <= pos < len(frame):
            raise NoMatch(f"wire_map position {pos} out of range at the site frame")
    wire_ids = [frame[pos] for pos in step.site.wire_map]
    if len(set(wire_ids)) != len(wire_ids):
        raise NoMatch("wire_map is not injective")

    structural = any(g.kind in ("INIT", "DEST") for g in src.gates + dst.gates)
    if structural and any(idc.key[a] >= idc.key[b]
                          for a, b in zip(wire_ids, wire_ids[1:])):
        raise IllegalSite("rules with INIT/DEST need a spatially monotone wire map")
    bound_created = _match_source(idc, src, sel, wire_ids)
    repl = _build_replacement(idc, src, dst, wire_ids, bound_created)

    window_pre = idc.gates[:anchor]
    window_post = idc.gates[sel[-1] + 1:] if sel else idc.gates[anchor:]
    new_gates = (window_pre + [idc.gates[i] for i in before] + repl
                 + [idc.gates[i] for i in after] + window_post)
    idc.gates = new_gates
    out = idc.to_circuit()

    # site for the reverse step: the replacement block in the new circuit
    start = anchor + len(before)
    rev_gates = tuple(range(start, start + len(repl)))
    rev_frame = _IdCircuit(out).frames()[start]
    rev_map = tuple(rev_frame.index(w) for w in wire_ids)
    rev_site = Site(rev_gates, rev_map, start)

    if safety:
        _safety_check(c, out, tol)
    return ApplyResult(out, rev_site)


def _partition_block(idc: _IdCircuit, sel: tuple[int, ...]):
    """Split the window between the selected gates into before/after floats."""
    if not sel:
        return [], []
    sel_set = set(sel)
    block_ids: set[int] = set()
    after_ids: set[int] = set()
    before, after = [], []
    for i in range(sel[0], sel[-1] + 1):
        g = idc.gates[i]
        deps = set(g.dep_ids())
        if i in sel_set:
            if deps & after_ids:
                raise IllegalSite("selected gates cannot be commuted into a block")
            block_ids |= deps
        elif deps & (block_ids | after_ids):
            after.append(i)
            after_ids |= deps
        else:
            before.append(i)
    return before, after


def _match_source(idc: _IdCircuit, src: Circuit, sel: tuple[int, ...],
                  wire_ids: list[int]) -> list[int]:
    """Check the selected block is deformation-equal to the source side.

    Returns the circuit ids bound to the source side's INIT-created wires,
    in birth order.
    """
    label_of = {wid: i for i, wid in enumerate(wire_ids)}
    created: list[int] = []
    local_alive: list[int] = list(wire_ids)          # spatial order (monotone map)
    local_gates: list[Gate] = []
    for i in sel:
        g = idc.gates[i]
        if g.kind == "INIT":
            wid = g.ids[0]
            created.append(wid)
            label_of[wid] = src.n_in + len(created) - 1
            keys = [idc.key[a] for a in local_alive]
            pos = bisect_left(keys, idc.key[wid])
            local_alive.insert(pos, wid)
            local_gates.append(init(pos))
        elif g.kind == "DEST":
            wid = g.ids[0]
            if wid not in label_of or wid not in local_alive:
                raise NoMatch("site DEST acts outside the mapped wires")
            local_gates.append(dest(local_alive.index(wid)))
            local_alive.remove(wid)
        else:
            if any(wid not in label_of or wid not in local_alive for wid in g.ids):
                raise NoMatch("selected gate touches a wire outside the map")
            local_gates.append(
                g.gate_with_wires(tuple(local_alive.index(wid) for wid in g.ids)))
    try:
        local = Circuit(src.n_in, src.n_out, tuple(local_gates))
    except QcError as exc:
        raise NoMatch(f"selected block does not thread like the rule side: {exc}")
    if not deformation_equal(local, src):
        raise NoMatch("selected block is not deformation-equal to the rule side")
    return created


def _build_replacement(idc: _IdCircuit, src: Circuit, dst: Circuit,
                       wire_ids: list[int], bound_created: list[int]) -> list[_IdGate]:
    """Id-level gates for the target side."""
    _, src_created, src_out = _rule_side_ids(src)
    dst_gates, _, dst_out = _rule_side_ids(dst)
    id_of: dict[int, int] = {i: wid for i, wid in enumerate(wire_ids)}
    for lab, wid in zip(src_created, bound_created):
        id_of[lab] = wid
    out_ids = [id_of[lab] for lab in src_out]

    dst_map: dict[int, int] = {i: wid for i, wid in enumerate(wire_ids)}
    for pos, lab in enumerate(dst_out):
        if lab >= dst.n_in:
            dst_map[lab] = out_ids[pos]   # boundary wire shared by both sides

    repl: list[_IdGate] = []
    local_alive = [dst_map[i] for i in range(dst.n_in)]
    for g, rg in zip(dst.gates, dst_gates):
        if rg.kind == "INIT":
            lab = rg.ids[0]
            rulepos = g.wires[0]
            if lab not in dst_map:
                lo = idc.key[local_alive[rulepos - 1]] if rulepos > 0 else None
                hi = (idc.key[local_alive[rulepos]]
                      if rulepos < len(local_alive) else None)
                if lo is None and hi is None and idc.key:
                    hi = min(idc.key.values())   # anchor-free: insert on top
                dst_map[lab] = idc.fresh_id(idc.key_between(lo, hi))
            wid = dst_map[lab]
            local_alive.insert(rulepos, wid)
            repl.append(_IdGate("INIT", (wid,), (), "", None))
        elif rg.kind == "DEST":
            wid = dst_map[rg.ids[0]]
            local_alive.remove(wid)
            repl.append(_IdGate("DEST", (wid,), (), "", None))
        else:
            repl.append(_IdGate(rg.kind, tuple(dst_map[lab] for lab in rg.ids),
                                rg.params, rg.pattern, rg.base))
    return repl


def _safety_check(before: Circuit, after: Circuit, tol: float):
    width = max(before.n_in, before.n_out, after.n_in, after.n_out)
    if width > wire_cap():
        return
    if not equal_matrices(eval_matrix(before), eval_matrix(after), tol):
        raise SemanticDrift("rewrite changed the semantics (engine bug)")


# -- replay -------------------------------------------------------------------

def replay(d: Derivation, allow_lemmas: bool = False, safety: bool = True,
           tol: float = 1e-9) -> Circuit:
    """Fold the steps over the initial circuit; verify the declared final."""
    c = d.initial
    for i, step in enumerate(d.steps):
        try:
            c = apply_step(c, step, d.theory, allow_lemmas, safety, tol)
        except QcError as exc:
            raise type(exc)(f"step {i} ({step.rule} {step.direction}): {exc}") from exc
    if not deformation_equal(c, d.final):
        raise NoMatch("replayed circuit is not deformation-equal to the declared final")
    return c


def reverse_derivation(d: Derivation, name: str = "") -> Derivation:
    """The same derivation run backwards (directions flipped, sites rebuilt).

    A reversed step restores its predecessor only up to deformation, which
    can shift the gate indices later reversed steps refer to; each reversed
    site is therefore validated against the recorded intermediate circuit
    and re-anchored with a site scan when the naive indices drift.  The
    reversed derivation starts from the forward replay's end, which the
    reversed sites refer to; ``d.final`` may only be deformation-equal
    to it.
    """
    c = d.initial
    fwd: list[tuple[Step, Circuit, Site]] = []
    for step in d.steps:
        res = apply_step_full(c, step, d.theory, allow_lemmas=True, safety=False)
        fwd.append((step, c, res.reverse_site))
        c = res.circuit

    rev_steps: list[Step] = []
    cur = c
    for step, target, rsite in reversed(fwd):
        flipped = "RL" if step.direction == "LR" else "LR"
        cand = Step(step.rule, flipped, step.params, step.n, rsite)
        nxt = _try_step(cur, cand, d.theory, target)
        if nxt is None:
            cand, nxt = _reanchor(cur, step, flipped, d.theory, target, rsite)
        rev_steps.append(cand)
        cur = nxt
    return Derivation(d.theory, c, rev_steps, d.initial,
                      name=name or (d.name + "_reversed" if d.name else ""))


def _try_step(c: Circuit, step: Step, theory: str, target: Circuit):
    try:
        out = apply_step(c, step, theory, allow_lemmas=True, safety=False)
    except QcError:
        return None
    return out if deformation_equal(out, target) else None


def _reanchor(c: Circuit, step: Step, direction: str, theory: str,
              target: Circuit, rsite: Site):
    """Find a site for the flipped step that lands on the recorded circuit."""
    inst = resolve_rule(theory, step.rule, step.params, step.n, True)
    src = inst.lhs if direction == "LR" else inst.rhs
    if len(src.gates) == 0:
        for at in range(len(c.gates) + 1):
            cand = Step(step.rule, direction, step.params, step.n,
                        Site((), rsite.wire_map, at))
            out = _try_step(c, cand, theory, target)
            if out is not None:
                return cand, out
    else:
        for site in find_sites(c, step.rule, step.params, step.n,
                               direction, theory):
            cand = Step(step.rule, direction, step.params, step.n, site)
            out = _try_step(c, cand, theory, target)
            if out is not None:
                return cand, out
    raise NoMatch(f"cannot reverse step {step.rule} {step.direction}")


def concat_derivations(a: Derivation, b: Derivation, name: str = "") -> Derivation:
    if not deformation_equal(a.final, b.initial):
        raise ArityMismatch("derivations do not chain")
    return Derivation(a.theory, a.initial, a.steps + b.steps, b.final, name=name)


# -- convenience site scan ----------------------------------------------------

def find_sites(c: Circuit, rule: str, params=(), n: int | None = None,
               direction: str = "LR", theory: str = "QC",
               allow_lemmas: bool = True) -> list[Site]:
    """Best-effort site scan.

    The non-phase part of the source side is matched against contiguous
    windows of the circuit's non-phase gate subsequence; GPHASE gates are
    0-wire and freely movable, so they are bound anywhere by value.  Every
    candidate is validated by actually applying the step.
    """
    inst = resolve_rule(theory, rule, params, n, allow_lemmas)
    src = inst.lhs if direction == "LR" else inst.rhs
    idc = _IdCircuit(c)
    frames = idc.frames()
    hits: list[Site] = []
    if len(src.gates) == 0:
        return hits
    src_gates, _, _ = _rule_side_ids(src)
    src_wire = [rg for rg in src_gates if rg.kind != "GPHASE"]
    src_phase = [rg for rg in src_gates if rg.kind == "GPHASE"]
    wire_idx = [i for i, g in enumerate(idc.gates) if g.kind != "GPHASE"]
    phase_idx = [i for i, g in enumerate(idc.gates) if g.kind == "GPHASE"]

    def bind_phases(chosen: list[int]) -> list[int] | None:
        used: list[int] = []
        for rg in src_phase:
            for i in phase_idx:
                if i in used or i in chosen:
                    continue
                if angles_equal(idc.gates[i].params[0], rg.params[0]):
                    used.append(i)
                    break
            else:
                return None
        return used

    k = len(src_wire)
    windows = ([[]] if k == 0 else
               [wire_idx[s:s + k] for s in range(len(wire_idx) - k + 1)])
    for window in windows:
        assign: dict[int, int] = {}
        ok = True
        for rg, i in zip(src_wire, window):
            g = idc.gates[i]
            if g.kind != rg.kind or len(g.ids) != len(rg.ids):
                ok = False
                break
            for lab, wid in zip(rg.ids, g.ids):
                if assign.get(lab, wid) != wid:
                    ok = False
                    break
                assign[lab] = wid
            if not ok:
                break
        if not ok or len(set(assign.values())) != len(assign):
            continue
        phases = bind_phases(window)
        if phases is None:
            continue
        sel = tuple(sorted(window + phases))
        anchor = sel[0] if sel else 0
        frame = frames[anchor]
        try:
            wire_map = tuple(frame.index(assign[lab]) for lab in range(src.n_in))
        except (KeyError, ValueError):
            continue
        site = Site(sel, wire_map, anchor)
        try:
            apply_step_full(c, Step(rule, direction, tuple(params), n, site),
                            theory, allow_lemmas=True, safety=False)
        except QcError:
            continue
        hits.append(site)
    return hits


# -- 1-qubit normalization ----------------------------------------------------

def normalize_1q(c: Circuit, emit_trace: bool = False, theory: str = "QC"):
    """Bring a 1-qubit circuit to the normal form GPHASE.P.RX.P.

    Returns (NormalFormParams, Derivation or None).  The QC procedure
    eliminates H via (EH) and contracts RX.P.RX blocks with (E); the
    QCprime variant does the same work from (E') and (P+), solving for the
    phase split that makes two (E') applications close.  Every step goes
    through the rewrite engine, and each follow-up site is derived from
    where the previous replacement landed: wire gates are addressed by
    their ordinal in the wire word, never found again by their angles.
    """
    if c.n_in != 1 or c.n_out != 1:
        raise BadArity("normalize_1q needs a 1-in 1-out circuit")
    if any(g.kind in ("INIT", "DEST") for g in c.gates):
        raise BadArity("normalize_1q does not accept INIT/DEST")
    nz = _Normalizer(c, theory, emit_trace)
    params = nz.run()
    if emit_trace:
        return params, Derivation(theory, c, nz.steps, nz.c, name="normalize_1q")
    return params, None


def decide_equiv_1q(c1: Circuit, c2: Circuit, tol: float = 1e-8) -> bool:
    """Completeness-based equality test: compare normal-form parameters."""
    p1, _ = normalize_1q(c1)
    p2, _ = normalize_1q(c2)
    return p1.close_to(p2, tol)


class _Normalizer:
    """Stateful driver emitting verified steps (all applied by the engine).

    Wire gates are addressed by their ordinal in the wire word (the
    non-GPHASE gates in circuit order).  No step reorders that word, so an
    ordinal moves only by the wire gates a step inserts or removes in front
    of it, while GPHASE gates float whenever (S+) merges them.
    """

    def __init__(self, c: Circuit, theory: str, emit: bool):
        self.c = c
        self.theory = theory
        self.emit = emit
        self.steps: list[Step] = []

    def do(self, rule: str, direction: str, params=(), n: int | None = None,
           site: Site = Site()) -> tuple[int, ...]:
        """Apply one step; returns the gate indices its replacement landed on."""
        step = Step(rule, direction, tuple(float(v) for v in params), n, site)
        res = apply_step_full(self.c, step, self.theory, allow_lemmas=True,
                              safety=False)
        self.c = res.circuit
        if self.emit:
            self.steps.append(step)
        return res.reverse_site.gates

    def gate(self, i: int) -> Gate:
        return self.c.gates[i]

    def wire_gates(self) -> list[int]:
        return [i for i, g in enumerate(self.c.gates) if g.kind != "GPHASE"]

    def phase_gates(self) -> list[int]:
        return [i for i, g in enumerate(self.c.gates) if g.kind == "GPHASE"]

    def angle(self, k: int) -> float:
        """Angle of the wire gate with ordinal k."""
        return self.gate(self.wire_gates()[k]).params[0]

    def wsite(self, k: int, m: int = 1) -> Site:
        """Site selecting the m wire gates from ordinal k on."""
        return Site(tuple(self.wire_gates()[k:k + m]), (0,))

    def before(self, k: int) -> int:
        """Gate index in front of wire ordinal k (past the last wire gate
        when k is the length of the word)."""
        w = self.wire_gates()
        if k < len(w):
            return w[k]
        return w[-1] + 1 if w else len(self.c.gates)

    def insert(self, rule: str, k: int):
        """Run a rule with an empty right side (H2, P0) backwards in front
        of wire ordinal k."""
        self.do(rule, "RL", site=Site((), (0,), self.before(k)))

    def find_word(self, kinds: tuple[str, ...], pred=None) -> int | None:
        """Ordinal of the first run of wire gates matching the kind word."""
        gs = [self.gate(i) for i in self.wire_gates()]
        for j in range(len(gs) - len(kinds) + 1):
            run = gs[j:j + len(kinds)]
            if all(g.kind == k for g, k in zip(run, kinds)) and (
                    pred is None or pred(run)):
                return j
        return None

    # -- high level ----------------------------------------------------------

    def run(self) -> NormalFormParams:
        self._unfold_macros()
        self._strip_hadamards()
        self._reduce()
        return self._shape_and_read()

    def _unfold_macros(self):
        changed = True
        while changed:
            changed = False
            for i, g in enumerate(self.c.gates):
                if g.kind == "X":
                    self.do("XDEF", "LR", site=Site((i,), (0,)))
                elif g.kind == "Z":
                    self.do("ZDEF", "LR", site=Site((i,), (0,)))
                elif g.kind == "MCP":
                    self.do("MCPDEF", "LR", (g.params[0],), 1, Site((i,), (0,)))
                elif g.kind == "MCRX":
                    self.do("MCRXDEF", "LR", (g.params[0],), 1, Site((i,), (0,)))
                else:
                    continue
                changed = True
                break

    def _strip_hadamards(self):
        while True:
            hs = [i for i, g in enumerate(self.c.gates) if g.kind == "H"]
            if not hs:
                return
            i = hs[0]
            if self.theory == "QC":
                self.do("EH", "LR", site=Site((i,), (0,)))
            else:
                self._mint_rx0(i)          # RX(0) lands just before the H
                self._mint_rx0(i + 2)      # and just after it
                self.do("EPRIME", "LR", (0.0, 0.0),
                        site=Site((i, i + 1, i + 2), (0,)))

    def _mint_rx0(self, at: int):
        """Insert RX(0) at gate index ``at`` using axioms and definitions."""
        self.do("S2PI", "RL", site=Site((), (), 0))        # GPHASE(2pi) up front
        at += 1
        self.do("H2", "RL", site=Site((), (0,), at))
        self.do("P0", "RL", site=Site((), (0,), at + 1))
        self.do("RXDEF", "RL", (0.0,), site=Site((0, at, at + 1, at + 2), (0,)))

    # -- reduction loop -------------------------------------------------------

    def _reduce(self):
        while True:
            if self._merge_phases():
                continue
            if self._merge_wire_pairs():
                continue
            if self._drop_trivial():
                continue
            if self._contract_once():
                continue
            return

    def _merge_phases(self) -> bool:
        ph = self.phase_gates()
        if len(ph) >= 2:
            self.do("SPLUS", "LR",
                    (self.gate(ph[0]).params[0], self.gate(ph[1]).params[0]),
                    site=Site((ph[0], ph[1]), ()))
            return True
        return False

    def _merge_phases_all(self):
        while self._merge_phases():
            pass

    def _pplus(self, k: int):
        """Merge the P P pair at wire ordinals k, k+1."""
        self.do("PPLUS", "LR", (self.angle(k), self.angle(k + 1)),
                site=self.wsite(k, 2))

    def _merge_pp_all(self):
        while (k := self.find_word(("P", "P"))) is not None:
            self._pplus(k)

    def _merge_wire_pairs(self) -> bool:
        k = self.find_word(("P", "P"))
        if k is not None:
            self._pplus(k)
            return True
        k = self.find_word(("RX", "RX"))
        if k is not None:
            self._rxplus(k)
            return True
        return False

    def _rxplus(self, k: int):
        """Merge RX(ta) RX(tb) at wire ordinals k, k+1."""
        ta, tb = self.angle(k), self.angle(k + 1)
        if self.theory == "QC":
            self.do("RXPLUS", "LR", (ta, tb), site=self.wsite(k, 2))
            return
        # QCprime: unfold both rotations, cancel the middle H pair, refold
        self.do("RXDEF", "LR", (ta,), site=self.wsite(k))          # H P H RX
        self.do("RXDEF", "LR", (tb,), site=self.wsite(k + 3))      # H P H H P H
        self.do("H2", "LR", site=self.wsite(k + 2, 2))
        self._pplus(k + 1)
        self._merge_phases_all()
        self._fold_hph(k + 1)

    def _fold_hph(self, k: int):
        """Fold H P(v) H around wire ordinal k into RX(v) at ordinal k-1.

        The rotation's -v/2 global phase is split off the first GPHASE,
        which is minted from (S2pi) when there is none.
        """
        v = self.angle(k)
        if not self.phase_gates():
            self.do("S2PI", "RL", site=Site((), (), 0))
        ph = self.phase_gates()[0]
        cur = self.gate(ph).params[0]
        g = self.do("SPLUS", "RL", (-v / 2.0, cur + v / 2.0), site=Site((ph,), ()))[0]
        self.do("RXDEF", "RL", (v,), site=Site((g,) + self.wsite(k - 1, 3).gates, (0,)))

    def _drop_trivial(self) -> bool:
        k = self.find_word(("P",), lambda gs: angles_equal(gs[0].params[0], 0.0))
        if k is not None:
            self.do("P0", "LR", site=self.wsite(k))
            return True
        k = self.find_word(("RX",), lambda gs: angles_equal(gs[0].params[0], 0.0,
                                                            2 * TWO_PI))
        if k is None:
            return False
        if self.theory == "QC":
            self.do("RX0", "LR", site=self.wsite(k))
        else:
            self.do("RXDEF", "LR", (self.angle(k),), site=self.wsite(k))   # H P(0) H
            self.do("P0", "LR", site=self.wsite(k + 1))
            self.do("H2", "LR", site=self.wsite(k, 2))
            self._merge_phases_all()
        return True

    def _contract_once(self) -> bool:
        k = self.find_word(("RX", "P", "RX"))
        if k is None:
            return False
        if self.theory == "QC":
            self.do("E", "LR", (self.angle(k), self.angle(k + 1), self.angle(k + 2)),
                    site=self.wsite(k, 3))
        else:
            self._contract_qcprime(k)
        return True

    def _contract_qcprime(self, k: int):
        """RX(t1) P(phi) RX(t2) at wire ordinals k..k+2 -> P RX P via (E') twice.

        The middle phase is split as P(a) P(b) with a + b = phi, and an H
        pair between the halves lets each fold into an (E') block:
        RX(t1) H RX(a) and RX(b) H RX(t2).  ``_solve_split`` picks x so the
        two inner phases left over sum to 0 mod pi, with x = a (direct) or
        x = b (mirrored); one orientation always has a solution unless
        exactly one rotation is pi/2 mod pi, which ``_contract_via_h``
        handles instead.  Every site is an ordinal offset from k.
        """
        t1, phi, t2 = self.angle(k), self.angle(k + 1), self.angle(k + 2)
        half1 = angles_equal(t1, math.pi / 2.0, math.pi)
        half2 = angles_equal(t2, math.pi / 2.0, math.pi)
        if half1 != half2:
            self._contract_via_h(k, right=half2)
            return
        try:
            xv = _solve_split(t1, phi, t2)
            a, b = xv, phi - xv
        except NoMatch:
            xv = _solve_split(t1, phi, t2, mirror=True)
            a, b = phi - xv, xv
        self.do("PPLUS", "RL", (a, b), site=self.wsite(k + 1))
        self.insert("H2", k + 2)             # RX(t1) P(a) H H P(b) RX(t2)
        self._absorb(k + 1, right=False)     # P RX P H P(b) RX(t2)
        self._absorb(k + 4, right=True)      # P RX P P RX P
        self._contract_tail(k)

    def _absorb(self, k: int, right: bool):
        """Contract P(v) at wire ordinal k into the rotation on its right
        (else left) side, given an H on its other side.

        An H pair goes between P and RX, H P(v) H folds into RX(v), and
        (E') contracts the resulting RX H RX block at ordinals k-1..k+1.
        """
        if right:                       # H P(v) RX(t) -> H P(v) H H RX(t)
            self.insert("H2", k + 1)
            self._fold_hph(k)
        else:                           # RX(t) P(v) H -> RX(t) H H P(v) H
            self.insert("H2", k)
            self._fold_hph(k + 2)
        self.do("EPRIME", "LR", (self.angle(k - 1), self.angle(k + 1)),
                site=self.wsite(k - 1, 3))

    def _contract_via_h(self, k: int, right: bool):
        """RX(t1) P(phi) RX(t2) at ordinals k..k+2 where only the right (else
        left) rotation is pi/2 mod pi.

        (RX-) leaves that rotation as RX(q) with q = +-pi/2.  A P(0) on its
        outer side and P(phi) are split so P(q) pads it on both sides, and
        P(q) RX(q) P(q) = H by (E_H) or its mirror lemma.  The H then sits
        next to P(phi - q), which ``_absorb`` contracts into the other
        rotation.
        """
        j = k + 2 if right else k
        vr = reduce_angle(self.angle(j), 2 * TWO_PI)
        if math.pi < vr < 3 * math.pi:          # 3pi/2, 5pi/2 -> -pi/2, pi/2
            self.do("RXNEG", "LR", (vr,), site=self.wsite(j))
        q = math.pi / 2.0
        if not angles_equal(vr, q):             # 3pi/2 or 7pi/2
            q = -q
        r = j if right else j + 1               # RX(q) once P(0) is in place
        self.insert("P0", j + 1 if right else j)
        self.do("PPLUS", "RL", (q, self.angle(r + 1) - q), site=self.wsite(r + 1))
        self.do("PPLUS", "RL", (self.angle(r - 1) - q, q), site=self.wsite(r - 1))
        if q > 0:
            self.do("EH", "RL", site=self.wsite(r, 3))
        else:
            self.do("HEULERMINUS", "LR", site=self.wsite(r, 3))
        self._absorb(r - 1 if right else r + 1, right=not right)

    def _contract_tail(self, k: int):
        """Finish P(g1) RX(g2) P(g3) P(d1) RX(d2) P(d3) at ordinals k..k+5.

        The inner phases sum to 0 mod pi; a leftover pi is pulled through
        the right rotation, and the two rotations merge.
        """
        v = self.angle(k + 2) + self.angle(k + 3)
        self._pplus(k + 2)
        if angles_equal(v, 0.0, TWO_PI, 1e-8):
            self.do("P0", "LR", site=self.wsite(k + 2))
        else:
            self.do("PPLUS", "RL", (math.pi, v - math.pi), site=self.wsite(k + 2))
            self.do("P0", "LR", site=self.wsite(k + 3))
            self.do("PPLUS", "RL", (math.pi, self.angle(k + 4) - math.pi),
                    site=self.wsite(k + 4))
            self.do("RXMINUS", "LR", (self.angle(k + 3),), site=self.wsite(k + 2, 3))
        self._rxplus(k + 1)

    # -- final shaping ---------------------------------------------------------

    def _shape_and_read(self) -> NormalFormParams:
        if self.find_word(("RX",)) is None:
            at = self.before(0)
            if self.theory == "QC":
                self.do("RX0", "RL", site=Site((), (0,), at))
            else:
                self._mint_rx0(at)
                self._merge_phases_all()
        # band-reduce the rotation into [0, pi]
        k = self.find_word(("RX",))
        theta = reduce_angle(self.angle(k), 2 * TWO_PI)
        if theta > TWO_PI + ANGLE_EPS:
            self.do("RXNEG", "LR", (self.angle(k),), site=self.wsite(k))
            self._merge_phases_all()
            theta = reduce_angle(self.angle(k), 2 * TWO_PI)
        if theta > math.pi + ANGLE_EPS:
            self.do("RXFLIP", "LR", (self.angle(k),), site=self.wsite(k))
            self._merge_phases_all()
            self._merge_pp_all()
        k = self.find_word(("RX",))
        if not any(self.gate(i).kind == "P" for i in self.wire_gates()[:k]):
            self.insert("P0", k)
        k = self.find_word(("RX",))
        if not any(self.gate(i).kind == "P" for i in self.wire_gates()[k + 1:]):
            self.insert("P0", len(self.wire_gates()))
        if not self.phase_gates():
            self.do("S2PI", "RL", site=Site((), (), 0))
        if self.phase_gates() != [len(self.c.gates) - 1]:
            # relocate the global phase to the tail so normal forms from
            # different derivations share the same literal gate order
            k = self.phase_gates()[0]
            v = self.gate(k).params[0]
            self.do("S2PI", "RL", site=Site((), (), len(self.c.gates)))
            self.do("SPLUS", "LR", (v, TWO_PI),
                    site=Site((k, len(self.c.gates) - 1), ()))
        w = self.wire_gates()
        kinds = [self.gate(i).kind for i in w]
        if kinds != ["P", "RX", "P"] or self.phase_gates() != [3]:
            raise SemanticDrift(f"normalization left shape {kinds} (engine bug)")
        b0 = self.gate(self.phase_gates()[0]).params[0]
        b1 = self.gate(w[0]).params[0]
        b2 = reduce_angle(self.gate(w[1]).params[0], 2 * TWO_PI)
        b3 = self.gate(w[2]).params[0]
        return _pack(b0, b1, b2, b3)


def _wrap_half(u: float) -> float:
    """Reduce into [-pi/2, pi/2): distance of u from the nearest pi multiple."""
    r = math.fmod(u + math.pi / 2.0, math.pi)
    if r < 0:
        r += math.pi
    return r - math.pi / 2.0


def _solve_split(t1: float, phi: float, t2: float, mirror: bool = False) -> float:
    """Find x making the two inner (E') phases sum to 0 mod pi.

    Direct orientation: f(x) = beta3'(t1, x) + beta1'(phi - x, t2);
    mirrored: beta3'(t1, phi - x) + beta1'(x, t2).  Where both (E')
    instances are generic, f = 0 mod pi exactly when
    g(x) = Im(z_A conj(z'_A) z_B z'_B) vanishes (A, B the two angle pairs,
    z, z' their Euler witnesses).  g is a trigonometric polynomial of
    degree at most 4 in x/2, so 16 samples give its 9 Fourier coefficients
    exactly and its zeros are the unit-circle roots of a degree-8
    polynomial.  Each root is polished by bisection on the exact f; the
    smallest root in [0, 4pi) with |f| < 1e-10 is returned, x = 0 when g
    vanishes identically.
    """
    def pairs(xv: float):
        return ((t1, phi - xv), (xv, t2)) if mirror else ((t1, xv), (phi - xv, t2))

    def f(xv: float) -> float:
        (a, _), (b, _) = (euler_eprime(*ab) for ab in pairs(xv))
        return _wrap_half(a.beta3 + b.beta1)

    def g(xv: float) -> float:
        (_, ca), (_, cb) = (euler_eprime(*ab) for ab in pairs(xv))
        return (ca.z * ca.z_prime.conjugate() * cb.z * cb.z_prime).imag

    coef = np.fft.fft([g(j * math.pi / 4.0) for j in range(16)]) / 16.0
    poly = coef[np.arange(4, -5, -1) % 16]          # c_4 .. c_-4
    if np.max(np.abs(poly)) < 1e-12:
        candidates = [0.0]
    else:
        # x in [-1e-9, 4pi - 1e-9): a root just below 4pi is the root at 0
        roots = sorted((2.0 * float(np.angle(w)) + 1e-9) % (2 * TWO_PI) - 1e-9
                       for w in np.roots(poly) if abs(abs(w) - 1.0) < 1e-3)
        candidates = (_bisect(f, xv) for xv in roots)
    for xv in candidates:
        if abs(f(xv)) < 1e-10:
            return xv
    raise NoMatch("no split angle closes the (E') contraction")


def _bisect(f, xv: float) -> float:
    """Refine a root estimate of f by bisection on [xv - 1e-6, xv + 1e-6];
    the estimate is returned as is unless f changes sign strictly there."""
    lo, hi = xv - 1e-6, xv + 1e-6
    flo = f(lo)
    if not flo * f(hi) < 0:
        return xv
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        fm = f(mid)
        if fm == 0.0:
            break
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
