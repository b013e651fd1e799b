"""Rule application, derivation traces, replay, and 1-qubit decision procedures.

A rewrite step names a rule (axiom, derived lemma, or macro definition), a
direction, parameters, and a site: explicit gate indices plus a map from
rule wires to circuit wire positions.  Matching is site-directed; the
engine verifies that the selected gates can be commuted into a contiguous
block and are deformation-equal to the instantiated source side, then
splices in the target side.  A safety net re-checks the semantics of every
accepted step numerically.

Sites for rules whose sides create or destroy wires (A, AP, ACX) require a
monotone wire map: ``wire_map`` must be strictly increasing, so that rule
wire order agrees with the circuit's wire order at the site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import (ANGLE_EPS, TWO_PI, Circuit, Gate, _IdGate, _STRUCT,
                      _canonical_order, _deps, _frames, _place, _real,
                      angles_equal, deformation_equal, reduce_angle)
from .errors import (ArityMismatch, BadArity, IllegalSite, NoMatch, QcError,
                     SemanticDrift, UnknownLemma, UnknownTheory, UnsupportedGate)
from .euler import NormalFormParams, _pack
from .semantics import equal_matrices, eval_matrix, wire_cap
from .theories import (DEFINITIONAL, RuleId, RuleInstance, _CATALOG,
                       instantiate, lemma_instantiate)

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
        _of(dict, d, "site")
        return Site(_tuple_of(_int, d.get("gates", ()), "gates"),
                    _tuple_of(_int, d.get("wire_map", ()), "wire_map"),
                    _int(d.get("at", 0), "at"))


def _int(v, field: str) -> int:
    """``v`` itself if it is an int; bools and floats are rejected, so 0.5
    never truncates to 0."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{field} must be an integer, got {v!r}")
    return v


def _of(kind: type, v, field: str):
    """``v`` itself if it is a ``kind`` (str, dict or list)."""
    if not isinstance(v, kind):
        raise TypeError(f"{field} must be a {kind.__name__}, got {v!r}")
    return v


def _tuple_of(item, vs, field: str) -> tuple:
    """``item(v, field)`` for each entry of the list ``vs``."""
    if not isinstance(vs, (list, tuple)):
        raise TypeError(f"{field} must be a list, got {vs!r}")
    return tuple(item(v, field) for v in vs)


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
        _of(dict, d, "step")
        n = d.get("n")
        return Step(_of(str, d["rule"], "rule"), _of(str, d["direction"], "direction"),
                    _tuple_of(_real, d.get("params", ()), "params"),
                    None if n is None else _int(n, "n"),
                    Site.from_dict(d.get("site", {})))


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
        return Derivation(_of(str, d["theory"], "theory"), Circuit.from_dict(d["initial"]),
                          [Step.from_dict(s) for s in _of(list, d["steps"], "steps")],
                          Circuit.from_dict(d["final"]), _of(str, d.get("name", ""), "name"))


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

    gates = list(zip(c.gates, c.threading.gate_ids))
    sel = tuple(step.site.gates)
    if len(sel) != len(set(sel)) or any(not 0 <= i < len(gates) for i in sel):
        raise NoMatch("site gate indices out of range or repeated")
    if len(sel) != len(src.gates):
        raise NoMatch(f"site selects {len(sel)} gates, source side has {len(src.gates)}")
    sel = tuple(sorted(sel))
    anchor = sel[0] if sel else step.site.at
    if not 0 <= anchor <= len(gates):
        raise NoMatch("splice index out of range")

    before, after = _partition_block(gates, sel)

    # the block assembles after the floats-before; resolve wire positions in
    # that effective frame (floats may include INIT/DEST)
    assembly = gates[:anchor] + [gates[i] for i in before]
    frame = list(range(c.n_in))
    head = _place(frame, assembly)
    wire_map = step.site.wire_map
    if len(wire_map) != src.n_in:
        raise NoMatch(f"wire_map has {len(wire_map)} entries, "
                      f"rule has {src.n_in} input wires")
    for pos in wire_map:
        if not 0 <= pos < len(frame):
            raise NoMatch(f"wire_map position {pos} out of range at the site frame")
    wire_ids = [frame[pos] for pos in wire_map]
    if len(set(wire_ids)) != len(wire_ids):
        raise NoMatch("wire_map is not injective")

    structural = any(g.kind in ("INIT", "DEST") for g in src.gates + dst.gates)
    if structural and any(a >= b for a, b in zip(wire_map, wire_map[1:])):
        raise IllegalSite("rules with INIT/DEST need a strictly increasing wire map")
    inits = _match_source(src, [gates[i] for i in sel], wire_ids, frame)
    repl = _build_replacement(src, dst, wire_ids, inits, frame, c.threading.n_ids)

    window_post = gates[sel[-1] + 1:] if sel else gates[anchor:]
    out = Circuit(c.n_in, c.n_out, tuple(
        head + _place(frame, repl + [gates[i] for i in after] + window_post)))

    # site for the reverse step: the replacement block in the new circuit,
    # which assembles in the same frame, so under the same wire map
    start = len(assembly)
    rev_site = Site(tuple(range(start, start + len(repl))), wire_map, start)

    if safety:
        _safety_check(c, out, tol)
    return ApplyResult(out, rev_site)


def _partition_block(gates: list[_IdGate], sel: tuple[int, ...]):
    """Split the window between the selected gates into before/after floats."""
    if not sel:
        return [], []
    sel_set = set(sel)
    block_ids: set[int] = set()
    after_ids: set[int] = set()
    before, after = [], []
    for i in range(sel[0], sel[-1] + 1):
        deps = set(_deps(*gates[i]))
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


def _match_source(src: Circuit, block: list[_IdGate], wire_ids: list[int],
                  frame: list[int]) -> list[_IdGate]:
    """Check the selected block is deformation-equal to the source side.

    The block is relabelled onto the rule's wires: inputs through the wire
    map, created wires in birth order, as the source side's threading
    numbers them.  Each INIT goes among the mapped wires open after it in
    the circuit, whose open wires where the block assembles are ``frame``.
    Returns the block's INITs.
    """
    label = {wid: i for i, wid in enumerate(wire_ids)}
    relabelled, inits = [], []
    for (g, ids), after in zip(block, _frames(frame, block)[1:]):
        if g.kind == "INIT":
            label[ids[0]] = len(label)
            inits.append(_IdGate(g, ids))
            g = g.with_wires(([wid for wid in after if wid in label].index(ids[0]),))
        elif any(wid not in label for wid in ids):
            raise NoMatch("selected gate touches a wire outside the map")
        relabelled.append((g, tuple(label[wid] for wid in ids)))
    try:
        local = Circuit(src.n_in, src.n_out,
                        tuple(_place(list(range(src.n_in)), relabelled)))
    except QcError as exc:
        raise NoMatch(f"selected block does not thread like the rule side: {exc}")
    if not deformation_equal(local, src):
        raise NoMatch("selected block is not deformation-equal to the rule side")
    return inits


def _build_replacement(src: Circuit, dst: Circuit, wire_ids: list[int],
                       inits: list[_IdGate], frame: list[int],
                       next_id: int) -> list[_IdGate]:
    """Id-level gates for the target side, spliced where the block
    assembles (``frame``).

    An INIT of a wire the source side created is the block's INIT, at its
    own position.  A fresh INIT, whose id counts up from ``next_id``, goes
    right before the next mapped wire in rule order, after the last one,
    or at 0 when no wire is mapped.
    """
    src_ids = wire_ids + [ids[0] for _, ids in inits]   # by source-side label
    born = {ids[0]: g for g, ids in inits}
    id_of = dict(enumerate(wire_ids))
    for lab, src_lab in zip(dst.threading.output_ids, src.threading.output_ids):
        if lab >= dst.n_in:
            id_of[lab] = src_ids[src_lab]   # boundary wire shared by both sides

    repl: list[_IdGate] = []
    for g, labs in zip(dst.gates, dst.threading.gate_ids):
        if g.kind == "INIT" and labs[0] not in id_of:
            id_of[labs[0]] = next_id
            next_id += 1
        ids = tuple(id_of[lab] for lab in labs)
        if g.kind == "INIT" and ids[0] in born:
            g = born[ids[0]]
        elif g.kind == "INIT":
            alive = _frames(frame, repl)[-1]
            mapped = [wid for wid in alive if wid in id_of.values()]
            r = g.wires[0]
            g = g.with_wires((alive.index(mapped[r]) if r < len(mapped) else
                              alive.index(mapped[-1]) + 1 if mapped else 0,))
        repl.append(_IdGate(g, ids))
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
    """The same derivation run backwards (directions flipped, sites carried).

    A reversed step restores its predecessor only up to deformation, so the
    circuit the reversed run reaches may order its gates differently from
    the one on which the forward step recorded its replacement's site.  That
    site is carried over by canonical rank (``_carry_site``), never searched
    for, and the reversed step must land deformation-equal on the forward
    step's input; otherwise NoMatch is raised.  The reversed derivation
    starts from the forward replay's end, which the reversed sites refer
    to; ``d.final`` may only be deformation-equal to it.
    """
    c = d.initial
    fwd: list[tuple[Step, Circuit, ApplyResult]] = []
    for step in d.steps:
        res = apply_step_full(c, step, d.theory, allow_lemmas=True, safety=False)
        fwd.append((step, c, res))
        c = res.circuit

    rev_steps: list[Step] = []
    cur = c
    for i, (step, before, res) in reversed(list(enumerate(fwd))):
        chain = any(before.gates[j].kind in ("INIT", "DEST") for j in step.site.gates)
        what = f"step {i} ({step.rule} {step.direction}) does not reverse"
        try:
            rstep = Step(step.rule, "RL" if step.direction == "LR" else "LR",
                         step.params, step.n,
                         _carry_site(res.reverse_site, res.circuit, cur, chain))
            cur = apply_step(cur, rstep, d.theory, allow_lemmas=True, safety=False)
        except QcError as exc:
            raise NoMatch(f"{what}: {exc}") from exc
        if not deformation_equal(cur, before):
            raise NoMatch(f"{what}: it lands off the recorded circuit")
        rev_steps.append(rstep)
    return Derivation(d.theory, c, rev_steps, d.initial,
                      name=name or (d.name + "_reversed" if d.name else ""))


def _carry_site(site: Site, rec: Circuit, cur: Circuit, chain: bool) -> Site:
    """Move a reverse site from ``rec`` to the deformation-equal ``cur``.

    Deformation-equal circuits give each gate the same canonical rank and
    each wire the same id, so gates map by rank and the wire map goes
    through ids.  ``site`` selects a contiguous block of ``rec`` from
    ``site.at`` on, as ``apply_step_full`` records it.  An empty block goes
    right after the last gate it depends on: one before ``site.at`` that
    shares a wire with it or, when the block joins the INIT/DEST chain
    (``chain``), that is an INIT or DEST.
    """
    if rec.gates == cur.gates:
        return site
    rec_gates = list(zip(rec.gates, rec.threading.gate_ids))
    gates = list(zip(cur.gates, cur.threading.gate_ids))
    rec_frame = _frames(range(rec.n_in), rec_gates[:site.at])[-1]
    wire_ids = [rec_frame[pos] for pos in site.wire_map]
    rank = {i: r for r, i in enumerate(_canonical_order(rec))}
    cur_order = _canonical_order(cur)
    if site.gates:
        sel = tuple(sorted(cur_order[rank[i]] for i in site.gates))
        before, _ = _partition_block(gates, sel)
        at = sel[0]
        frame = _frames(range(cur.n_in), gates[:at] + [gates[i] for i in before])[-1]
    else:
        deps = set(wire_ids) | ({_STRUCT} if chain else set())
        sel = ()
        at = max((cur_order[rank[i]] + 1 for i in range(site.at)
                  if deps.intersection(_deps(*rec_gates[i]))), default=0)
        frame = _frames(range(cur.n_in), gates[:at])[-1]
    if not set(wire_ids) <= set(frame):
        raise NoMatch("a carried wire is not open at the carried site")
    return Site(sel, tuple(frame.index(w) for w in wire_ids), at)


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
    gates = list(zip(c.gates, c.threading.gate_ids))
    frames = _frames(range(c.n_in), gates)
    hits: list[Site] = []
    if len(src.gates) == 0:
        return hits
    src_wire = [(g, labs) for g, labs in zip(src.gates, src.threading.gate_ids)
                if g.kind != "GPHASE"]
    src_phase = [g for g in src.gates if g.kind == "GPHASE"]
    wire_idx = [i for i, g in enumerate(c.gates) if g.kind != "GPHASE"]
    phase_idx = [i for i, g in enumerate(c.gates) if g.kind == "GPHASE"]

    def bind_phases(chosen: list[int]) -> list[int] | None:
        used: list[int] = []
        for rg in src_phase:
            for i in phase_idx:
                if i in used or i in chosen:
                    continue
                if angles_equal(c.gates[i].params[0], rg.params[0]):
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
        for (rg, labs), i in zip(src_wire, window):
            g, ids = gates[i]
            if g.kind != rg.kind or len(ids) != len(labs):
                ok = False
                break
            for lab, wid in zip(labs, ids):
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
    eliminates H via (EH), works over the {RX, P} word and contracts
    RX.P.RX blocks with (E).  The QCprime procedure is its dual: it unfolds
    RX via (RXDEF), works over the {H, P} word and contracts H.P.H.P.H
    blocks with (E'), one H at a time.  Every step goes through the rewrite
    engine, and each follow-up site is derived from where the previous
    replacement landed: wire gates are addressed by their ordinal in the
    wire word, never found again by their angles.
    """
    if theory not in ("QC", "QCprime"):
        raise UnknownTheory(f"normalize_1q runs in QC or QCprime, not {theory!r}")
    if c.n_in != 1 or c.n_out != 1:
        raise BadArity("normalize_1q needs a 1-in 1-out circuit")
    if any(g.kind in ("INIT", "DEST") for g in c.gates):
        raise BadArity("normalize_1q does not accept INIT/DEST")
    if any(g.kind == "CTRL" for g in c.gates):
        raise UnsupportedGate("normalize_1q has no rule that unfolds CTRL")
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

    One reduction loop serves both theories: it merges GPHASEs (S+), P P
    (P+) and RX RX (RX+) pairs, cancels H H (H2), drops P(0) (P0) and
    RX(0) (RX0), and then contracts.  In QC every H has become P RX P by
    (EH), and (E) contracts RX P RX.  In QCprime every RX has been unfolded
    to H P H by (RXDEF), the reduced word alternates H and P, and each
    contraction removes one H through (E').  Both end in the shared band
    reduction of ``_shape_and_read``.

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
        if self.theory == "QC":
            self._strip_hadamards()
        self._reduce()
        return self._shape_and_read()

    def _unfold_macros(self):
        """Unfold X, Z, MCP and MCRX, and in QCprime also RX, leftmost first."""
        rules = {"X": "XDEF", "Z": "ZDEF", "MCP": "MCPDEF", "MCRX": "MCRXDEF"}
        if self.theory != "QC":
            rules["RX"] = "RXDEF"
        while (i := next((i for i, g in enumerate(self.c.gates)
                          if g.kind in rules), None)) is not None:
            g = self.gate(i)
            n = 1 if g.kind in ("MCP", "MCRX") else None
            self.do(rules[g.kind], "LR", g.params, n, Site((i,), (0,)))

    def _strip_hadamards(self):
        while hs := [i for i, g in enumerate(self.c.gates) if g.kind == "H"]:
            self.do("EH", "LR", site=Site((hs[0],), (0,)))

    def _mint_rx0(self, at: int):
        """Insert RX(0) at gate index ``at`` using axioms and definitions."""
        self.do("S2PI", "RL", site=Site((), (), 0))        # GPHASE(2pi) up front
        at += 1
        self.do("H2", "RL", site=Site((), (0,), at))
        self.do("P0", "RL", site=Site((), (0,), at + 1))
        self.do("RXDEF", "RL", (0.0,), site=Site((0, at, at + 1, at + 2), (0,)))

    # -- reduction loop -------------------------------------------------------

    def _reduce(self):
        contract = self._contract_once if self.theory == "QC" else self._contract_hp
        while (self._merge_phases() or self._merge_wire_pairs()
               or self._drop_trivial() or contract()):
            pass

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
        if (k := self.find_word(("P", "P"))) is not None:
            self._pplus(k)
        elif (k := self.find_word(("RX", "RX"))) is not None:
            self.do("RXPLUS", "LR", (self.angle(k), self.angle(k + 1)),
                    site=self.wsite(k, 2))
        elif (k := self.find_word(("H", "H"))) is not None:
            self.do("H2", "LR", site=self.wsite(k, 2))
        else:
            return False
        return True

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
        self.do("RX0", "LR", site=self.wsite(k))
        return True

    def _contract_once(self) -> bool:
        """QC: RX P RX -> GPHASE P RX P by (E)."""
        k = self.find_word(("RX", "P", "RX"))
        if k is None:
            return False
        self.do("E", "LR", (self.angle(k), self.angle(k + 1), self.angle(k + 2)),
                site=self.wsite(k, 3))
        return True

    def _contract_hp(self) -> bool:
        """QCprime: remove one H from the alternating {H, P} word.

        With three or more H's the word reads H P(a) H P(b) H from the
        first H on.  An H pair after the middle H lets both H P H runs fold
        into RX(a) H RX(b), (E') turns that into GPHASE P RX P, and
        unfolding the RX again leaves P H P H P.  Two H's fold into one RX;
        a lone H gets an RX(0) on each side and (E') at (0, 0).  (E') is
        total over its three Euler cases, so no case needs its own route.
        """
        hs = [k for k, i in enumerate(self.wire_gates()) if self.gate(i).kind == "H"]
        if not hs:
            return False
        k = hs[0]
        if len(hs) == 2:
            self._fold_hph(k + 1)
            return True
        if len(hs) == 1:
            i = self.wire_gates()[k]
            self._mint_rx0(i)                # RX(0) lands just before the H
            self._mint_rx0(i + 2)            # and just after it
        else:
            self.insert("H2", k + 3)         # H P(a) H H H P(b) H
            self._fold_hph(k + 1)            # RX(a) H H P(b) H
            self._fold_hph(k + 3)            # RX(a) H RX(b)
        self.do("EPRIME", "LR", (self.angle(k), self.angle(k + 2)),
                site=self.wsite(k, 3))
        if len(hs) > 2:
            self.do("RXDEF", "LR", (self.angle(k + 1),), site=self.wsite(k + 1))
        return True

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
