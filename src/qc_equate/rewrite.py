"""Rule application, derivation traces, replay, and 1-qubit decision procedures.

A rewrite step names a rule (axiom, derived lemma, or macro definition), a
direction, parameters, and a site: explicit gate indices plus a map from
rule wires to circuit wire positions.  A step is site-directed; the engine
verifies that the selected gates can be commuted into a contiguous block
and are deformation-equal to the rule's source side, then splices in the
target side.  One binding in the wire DAG (``_bind``) decides equality: a
step binds the source side to its block with the inputs its wire map
names, which also checks the wire map and where each INIT opens its wire,
and ``find_sites`` to the whole circuit with nothing bound.  A step
reads the rule's shape and each side's angles (``_sides``), never a built
instance, so only its target's angle gates are new; what it reads of a
side, binding or splicing it, is compiled once per rule shape
(``Circuit._plan``), and every step runs ``resolve_rule``'s checks on its
request (``_resolve``), then applies the rule's angle map to its params.
A safety net re-checks the semantics of every accepted step numerically,
with the theory's own equality (``_safety_check``); a replay evaluates
each circuit it passes once and compares it with the matrix of the one
before.  A step changes no gate in front of its block, so the net also
keeps that circuit's state after those gates and runs the next circuit on
from it when its gates there are the same, compared gate by gate: one
state beside the matrix, and every matrix is ``eval_matrix``'s.  A walk
reads the wire cap once.  Every step goes through one recorder,
``_Recorder``, on id-level gates (``_apply``): it keeps one working
circuit across a derivation's steps and builds a ``Circuit`` only when one
is read; ``replay`` and reversal share one walk over a derivation
(``_walk``), which yields each step's id-level gate lists and builds a
circuit only for the safety net.  Reversal decides each landing by list
equality first, and carries each site with the gate map that its landing
check binds (``_deformation``) where the lists differ, so no circuit is
put in canonical order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .circuit import (ANGLE_EPS, TWO_PI, Circuit, Gate, _IdGate, _STRUCT, _bind,
                      _deformation, _deps, _frame, _id_gates, _place, _real, _wire,
                      angles_equal, deformation_equal, reduce_angle)
from .errors import (BadArity, DomainError, IllegalSite, InvalidCircuit, NoMatch,
                     QcError, SemanticDrift, UnknownTheory, UnsupportedGate)
from .euler import NormalFormParams, _pack
from .semantics import _resumed, wire_cap
from .theories import _check_tol, _resolve, equal_in, resolve_rule

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
        return Site(_tuple_of(_wire, d.get("gates", ()), "gates"),
                    _tuple_of(_wire, d.get("wire_map", ()), "wire_map"),
                    _wire(d.get("at", 0), "at"))


def _of(kind: type, v, field: str):
    """``v`` itself if it is a ``kind`` (str, dict or list)."""
    if not isinstance(v, kind):
        raise InvalidCircuit(f"{field} must be a {kind.__name__}, got {v!r}")
    return v


def _tuple_of(item, vs, field: str) -> tuple:
    """``item(v, field)`` for each entry of the list ``vs``."""
    if not isinstance(vs, (list, tuple)):
        raise InvalidCircuit(f"{field} must be a list, got {vs!r}")
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
                    None if n is None else _wire(n, "n"),
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


# -- step application ---------------------------------------------------------

def apply_step(c: Circuit, step: Step, theory: str = "QC",
               allow_lemmas: bool = True, safety: bool = True,
               tol: float = 1e-9) -> Circuit:
    """``c`` after ``step``; with ``safety``, checked by the safety net."""
    _check_tol(tol)
    rec = _Recorder(theory, c, allow_lemmas)
    rec.step(step)
    out = rec.c
    if safety:
        _safety_check(c, out, theory, tol, at=_anchor(step.site))
    return out


def _anchor(site: Site) -> int:
    """Where the block ``site`` selects begins: no gate in front of it
    changes (``_apply``)."""
    return min(site.gates) if site.gates else site.at


def _sides(step: Step, theory: str, allow_lemmas: bool):
    """The source and target side of the rule instance ``step`` cites, each
    as the rule's shape and its angles (None for a rule without parameters)."""
    if step.direction not in ("LR", "RL"):
        raise NoMatch(f"bad direction {step.direction!r}")
    shape, params, angles = _resolve(theory, step.rule, step.params, step.n, allow_lemmas)
    lhs, rhs = (None, None) if angles is None else angles(*params)
    lhs, rhs = (shape.lhs, lhs), (shape.rhs, rhs)
    return (lhs, rhs) if step.direction == "LR" else (rhs, lhs)


def _apply(gates: list[_IdGate], n_in: int, src, dst,
           site: Site) -> tuple[list[_IdGate], Site]:
    """Replace the block ``site`` selects in id-level ``gates`` (inputs
    0..n_in-1), which binds to the side ``src`` (``_bind``), by the side
    ``dst`` (``_sides``): the new gates and the reverse step's site."""
    sel = tuple(sorted(site.gates))
    if len(sel) != len(set(sel)) or sel and not 0 <= sel[0] <= sel[-1] < len(gates):
        raise NoMatch("site gate indices out of range or repeated")
    if len(sel) != len(src[0].gates):
        raise NoMatch(f"site selects {len(sel)} gates, source side has {len(src[0].gates)}")
    anchor = sel[0] if sel else site.at
    if not 0 <= anchor <= len(gates):
        raise NoMatch("splice index out of range")

    # wire positions are read where the block assembles, after the floats-before
    assembly, after, frame = _assembly(gates, n_in, sel, anchor)
    found = _bind(gates, sel, src, frame, site.wire_map)
    if not found:
        raise NoMatch("selected block is not deformation-equal to the rule side")
    at = found[0][1]
    src_ids = [at[lab][1] for lab in range(len(at) - 1)]   # by source-side label
    inits = ([gates[i] for i in sel if gates[i][0].kind == "INIT"]
             if len(src_ids) > src[0].n_in else [])   # the side opens wires
    repl = _build_replacement(src[0], *dst, src_ids, inits, frame, gates, n_in)

    # site for the reverse step: the replacement block in the new circuit,
    # which assembles in the same frame, so under the same wire map
    start = len(assembly)
    rev_site = Site(tuple(range(start, start + len(repl))), site.wire_map, start)
    window_post = gates[sel[-1] + 1:] if sel else gates[anchor:]
    return assembly + repl + [gates[i] for i in after] + window_post, rev_site


def _assembly(gates: list[_IdGate], n_in: int, sel: tuple[int, ...], anchor: int):
    """Where the block ``sel`` (sorted; empty for a splice at ``anchor``)
    assembles: the gates in front of it once the window's floats-before
    have moved there, the window's floats-after, and the open ids there."""
    block_ids: set[int] = set()
    after_ids: set[int] = set()
    before, after = [], []
    # a block that fills its window has no floats to sort out
    for i in range(anchor, sel[-1] + 1) if sel and sel[-1] - anchor >= len(sel) else ():
        g, deps = gates[i]
        if g.kind in ("INIT", "DEST"):   # the INIT/DEST chain, as _deps has it
            deps += (_STRUCT,)
        if i in sel:
            if not after_ids.isdisjoint(deps):
                raise IllegalSite("selected gates cannot be commuted into a block")
            block_ids.update(deps)
        elif not (block_ids.isdisjoint(deps) and after_ids.isdisjoint(deps)):
            after.append(i)
            after_ids.update(deps)
        else:
            before.append(i)
    assembly = gates[:anchor] + [gates[i] for i in before]
    return assembly, after, _frame(range(n_in), assembly)


def _build_replacement(src: Circuit, dst: Circuit, angles, src_ids: list[int],
                       inits: list[_IdGate], frame: list[int],
                       gates: list[_IdGate], n_in: int) -> list[_IdGate]:
    """Id-level gates for the target side, of shape ``dst`` and ``angles``
    (``_sides``), spliced into ``gates`` (inputs 0..n_in-1) where the block
    of the source side, of shape ``src``, assembles (``frame``); the block
    bound the source side's wires to ``src_ids`` and opens ``inits``.

    The target side is read off its plan (``Circuit._plan``).  Each
    target gate with an angle slot is built once, from its shape gate and
    that target angle.  An INIT of a wire the source side created is the
    block's INIT, at its own position.  A fresh INIT takes the id one
    above every id in use and goes right before the next mapped wire in
    rule order, after the last one, or at 0 when no wire is mapped.
    """
    born = {ids[0]: g for g, ids in inits}
    id_of = dict(enumerate(src_ids[:src.n_in]))
    for k, lab in dst._plan.born_out:   # boundary wire shared by both sides
        id_of[lab] = src_ids[src.threading.output_ids[k]]

    repl: list[_IdGate] = []
    for g, labs, slot, opens in dst._plan.splices:
        if opens and labs[0] not in id_of:
            id_of[labs[0]] = 1 + max([n_in - 1, *id_of.values(),
                                      *(wid for _, ids in gates for wid in ids)])
        ids = tuple([id_of[lab] for lab in labs])
        if opens and ids[0] in born:
            g = born[ids[0]]
        elif opens:
            alive = _frame(frame, repl)
            mapped = [wid for wid in alive if wid in id_of.values()]
            r = g.wires[0]
            g = g.with_wires((alive.index(mapped[r]) if r < len(mapped) else
                              alive.index(mapped[-1]) + 1 if mapped else 0,))
        elif slot is not None and angles is not None:
            g = Gate(g.kind, g.wires, (angles[slot],))
        repl.append((g, ids))
    return repl


def _safety_check(before: Circuit, after: Circuit, theory: str, tol: float,
                  cap: int | None = None, m=None, state=None, at: int = 0,
                  keep: int | None = None):
    """Check that ``after``, which a step whose block begins at gate ``at``
    made of ``before``, is equal in ``theory`` to ``before``, and so within
    the wire ``cap`` (None: ``wire_cap()``); skip the check when either
    opens more wires at once than the cap (``Threading.widest``).

    ``m`` is ``before``'s matrix and ``state`` its state after its first
    ``at`` gates when the last check evaluated them; with no ``m``,
    ``before`` is evaluated here, that state kept on the way.  ``after``
    runs on from that state when its first ``at`` gates equal ``before``'s,
    compared gate by gate, and from the identity otherwise, so each matrix
    is ``eval_matrix``'s.  Returns ``after``'s matrix and its state after
    its first ``keep`` gates (``semantics._resumed``), or (None, None) when
    the check is skipped."""
    if cap is None:
        cap = wire_cap()
    if after.threading.widest > cap or m is None and before.threading.widest > cap:
        return None, None
    if m is None:
        m, state = _resumed(before, None, 0, at)
    if after.gates[:at] != before.gates[:at]:
        state = None
    m_after, state = _resumed(after, state, at, keep)
    if not equal_in(theory, m, m_after, tol):
        raise SemanticDrift("rewrite changed the semantics (engine bug)")
    return m_after, state


# -- recording and replay -----------------------------------------------------

class _Recorder:
    """Applies steps in a theory while recording them, so the derivation it
    ends with replays by construction; every step of the engine goes
    through ``step``.  The working circuit stays id-level across steps
    (``gates``); reading ``c`` builds it as a validated ``Circuit``."""

    def __init__(self, theory: str, initial: Circuit, allow_lemmas: bool = True):
        self.theory = theory
        self.initial = initial
        self.allow_lemmas = allow_lemmas
        self.gates = _id_gates(initial)
        self.steps: list[Step] = []

    @property
    def c(self) -> Circuit:
        return _built(self.initial, self.gates)

    def do(self, rule: str, direction: str, params=(), n: int | None = None,
           site: Site = Site()) -> Site:
        """Apply one step; returns the reverse step's site."""
        return self.step(Step(rule, direction, tuple(float(v) for v in params), n, site))

    def step(self, step: Step) -> Site:
        """Apply ``step`` and record it; returns the reverse step's site."""
        return self._keep(step, _apply(self.gates, self.initial.n_in,
                                       *_sides(step, self.theory, self.allow_lemmas),
                                       step.site))

    def _keep(self, step: Step, applied) -> Site:
        """Record ``step``, whose ``_apply`` result is ``applied``."""
        self.gates, rev_site = applied
        self.steps.append(step)
        return rev_site

    def derivation(self, name: str = "") -> Derivation:
        return Derivation(self.theory, self.initial, self.steps, self.c, name=name)


def _built(initial: Circuit, gates: list[_IdGate]) -> Circuit:
    """The id-level ``gates`` of a derivation from ``initial``, placed as a
    validated ``Circuit``."""
    return Circuit(initial.n_in, initial.n_out,
                   tuple(_place(list(range(initial.n_in)), gates)))


def _walk(d: Derivation, allow_lemmas: bool, safety: bool, tol: float):
    """Apply ``d``'s steps through one recorder and yield each step's
    id-level input and output gates (new lists at every step, never
    changed after), its reverse site and, with ``safety``, its output
    ``Circuit``, checked as ``replay`` says (None without: no circuit is
    built).  A failing step's error gets the prefix ``step i (rule dir): ``.
    """
    rec = _Recorder(d.theory, d.initial, allow_lemmas)
    anchors = [_anchor(step.site) for step in d.steps] + [None]
    c = d.initial if safety else None
    cap = m = state = None   # the wire cap, read at the first check
    for i, step in enumerate(d.steps):
        before = rec.gates
        try:
            rev_site = rec.step(step)
            if safety:
                prev, c = c, rec.c
                cap = wire_cap() if cap is None else cap
                m, state = _safety_check(prev, c, d.theory, tol, cap, m, state,
                                         anchors[i], anchors[i + 1])
        except QcError as exc:
            raise type(exc)(f"step {i} ({step.rule} {step.direction}): {exc}") from exc
        yield before, rec.gates, rev_site, c


def replay(d: Derivation, allow_lemmas: bool = False, safety: bool = True,
           tol: float = 1e-9) -> Circuit:
    """Fold the steps over the initial circuit; verify the declared final.

    With ``safety``, each step is checked as ``apply_step`` checks it, but
    every circuit is evaluated once: a step's circuit is compared with the
    matrix the step before evaluated, and is run on from that circuit's
    state where the step's block begins when the gates in front of the
    block are the same.  A step wider than the wire cap is not checked,
    and the next check evaluates its circuit afresh.  Without ``safety``
    the only circuit built is the one returned.
    """
    _check_tol(tol)
    c, gates = d.initial, None
    for _, gates, _, c in _walk(d, allow_lemmas, safety, tol):
        pass
    if c is None:
        c = _built(d.initial, gates)
    if not deformation_equal(c, d.final):
        raise NoMatch("replayed circuit is not deformation-equal to the declared final")
    return c


def reverse_derivation(d: Derivation, name: str = "") -> Derivation:
    """The same derivation run backwards (directions flipped, sites carried).

    A reversed step restores its predecessor only up to deformation, so the
    circuit the reversed run reaches may order its gates differently from
    the one on which the forward step recorded its replacement's site.  The
    reversed step must land deformation-equal on the forward step's input,
    otherwise NoMatch is raised, and the gate map that check binds
    (``_deformation``) carries the next site over (``_carry_site``), never
    searched for.  The reversed derivation starts from the forward replay's
    end, which the reversed sites refer to; ``d.final`` may only be
    deformation-equal to it.  The forward run is ``replay``'s walk
    (``_walk``), with lemmas and without the safety net, so it builds no
    circuit.  A reversed step whose gate list equals the recorded one
    lands on it and its successor's site carries over as it is; only
    where the lists differ are the two placed as circuits, each once.
    """
    fwd = list(_walk(d, allow_lemmas=True, safety=False, tol=0.0))
    start = _built(d.initial, fwd[-1][1]) if fwd else d.initial
    rec = _Recorder(d.theory, start)
    # the last landing: the recorded circuit and the reached one, None when
    # their gate lists are equal, with where each gate of the first sits
    landing, where = None, None
    for i in reversed(range(len(fwd))):
        step, (before, _, rev_site, _) = d.steps[i], fwd[i]
        chain = any(before[j][0].kind in ("INIT", "DEST") for j in step.site.gates)
        what = f"step {i} ({step.rule} {step.direction}) does not reverse"
        try:
            site = rev_site if landing is None else _carry_site(rev_site, *landing, where, chain)
            rec.step(Step(step.rule, "RL" if step.direction == "LR" else "LR", step.params,
                          step.n, site))
        except QcError as exc:
            raise NoMatch(f"{what}: {exc}") from exc
        if rec.gates == before:
            landing = None
            continue
        landing = (d.initial if i == 0 else _built(d.initial, before), rec.c)
        where = _deformation(*landing)
        if where is None:
            raise NoMatch(f"{what}: it lands off the recorded circuit")
    return Derivation(d.theory, rec.initial, rec.steps, d.initial,
                      name=name or (d.name + "_reversed" if d.name else ""))


def _carry_site(site: Site, rec: Circuit, cur: Circuit, where, chain: bool) -> Site:
    """Move a reverse site from ``rec`` to the deformation-equal ``cur``.

    Gate ``i`` of ``rec`` sits at ``where[i]`` in ``cur`` (``_deformation``),
    and deformation-equal circuits give each wire the same id, so the wire
    map goes through ids.  ``site`` selects a contiguous block of ``rec``
    from ``site.at`` on, as ``_Recorder.step`` returns it.  An empty block
    goes right after the last gate it depends on: one before ``site.at``
    that shares a wire with it or, when the block joins the INIT/DEST chain
    (``chain``), that is an INIT or DEST.
    """
    if rec.gates == cur.gates:
        return site
    rec_gates = _id_gates(rec)
    rec_frame = _frame(range(rec.n_in), rec_gates[:site.at])
    wire_ids = [rec_frame[pos] for pos in site.wire_map]
    if site.gates:
        sel = tuple(sorted(where[i] for i in site.gates))
        at = sel[0]
    else:
        deps = set(wire_ids) | ({_STRUCT} if chain else set())
        sel = ()
        at = max((where[i] + 1 for i in range(site.at)
                  if deps.intersection(_deps(*rec_gates[i]))), default=0)
    _, _, frame = _assembly(_id_gates(cur), cur.n_in, sel, at)
    if not set(wire_ids) <= set(frame):
        raise NoMatch("a carried wire is not open at the carried site")
    return Site(sel, tuple(frame.index(w) for w in wire_ids), at)


def concat_derivations(a: Derivation, b: Derivation, name: str = "") -> Derivation:
    if a.theory != b.theory:
        raise UnknownTheory(f"cannot chain a {a.theory} derivation "
                            f"with a {b.theory} one")
    if not deformation_equal(a.final, b.initial):   # ArityMismatch on unequal arities
        raise NoMatch("derivations do not chain: the first ends off the second's start")
    return Derivation(a.theory, a.initial, a.steps + b.steps, b.final, name=name)


# -- site matching ------------------------------------------------------------

def find_sites(c: Circuit, rule: str, params=(), n: int | None = None,
               direction: str = "LR", theory: str = "QC",
               allow_lemmas: bool = True) -> list[Site]:
    """Every site where the rule applies to ``c``, sorted by (gates, wire_map).

    The source side binds in the wire DAG with no label bound (``_bind``).
    The wire map is read where the block assembles; an input label that no
    gate touches takes any open wire left.  Each candidate is validated by
    applying it.  An empty source side has no site: a step splices it in.
    """
    sides = _sides(Step(rule, direction, tuple(params), n), theory, allow_lemmas)
    return [s for s, _ in _matches(_id_gates(c), c.n_in, *sides)]


def _matches(gates: list[_IdGate], n_in: int, src_side, dst_side,
             wires: tuple[int, ...] | None = None) -> list[tuple[Site, tuple]]:
    """Each site of the side ``src_side`` in ``gates``, matched as
    ``find_sites`` says (with wire map ``wires`` when given), and what
    ``_apply`` gives there."""
    hits: dict[Site, tuple] = {}
    for chosen, at in _bind(gates, range(len(gates)), src_side) if src_side[0].gates else ():
        sel = tuple(sorted(chosen))
        try:
            frame = _assembly(gates, n_in, sel, sel[0])[2]
        except IllegalSite:
            continue
        ids = [at[lab][1] if lab in at else None for lab in range(src_side[0].n_in)]
        if any(wid is not None and wid not in frame for wid in ids):
            continue
        free = [pos for pos, wid in enumerate(frame) if all(w != wid for _, w in at.values())]
        for pick in map(iter, itertools.permutations(free, ids.count(None))):
            site = Site(sel, tuple(next(pick) if wid is None else frame.index(wid) for wid in ids))
            if wires in (None, site.wire_map) and site not in hits:
                try:
                    hits[site] = _apply(gates, n_in, src_side, dst_side, site)
                except QcError:
                    pass
    return sorted(hits.items(), key=lambda hit: (hit[0].gates, hit[0].wire_map))


# -- 1-qubit normalization ----------------------------------------------------

#: the largest angle magnitude ``normalize_1q`` accepts.  Its (S+) and (P+)
#: steps sum angles, and a sum with a much larger angle absorbs the smaller
#: one.  In seeded sweeps of random 1-qubit circuits with one angle scaled,
#: checked against the matrix route at 1e-8, none of 8000 with that angle
#: up to 1e6 got a wrong normal form, 1 of 2000 with it in [5e6, 1e7] did,
#: and 153 (QC) and 247 (QCprime) of 2000 up to 1e8.
NF_MAX_ANGLE = 1e6


def normalize_1q(c: Circuit, emit_trace: bool = False, theory: str = "QC"):
    """Bring a 1-qubit circuit to the normal form GPHASE.P.RX.P.

    Returns (NormalFormParams, Derivation or None).  Both theories follow
    one procedure: unfold every macro, RX included, work over the
    alternating {H, P} word and contract its H's, QC with (E) and (EH),
    QCprime with (E').  Every step goes through the rewrite engine, and
    each follow-up site is derived from where the previous replacement
    landed: with the one global phase kept last, a wire gate is addressed
    by its gate index, never found again by its angle.  An input angle of
    magnitude above ``NF_MAX_ANGLE`` raises DomainError.
    """
    if theory not in ("QC", "QCprime"):
        raise UnknownTheory(f"normalize_1q runs in QC or QCprime, not {theory!r}")
    if c.n_in != 1 or c.n_out != 1:
        raise BadArity("normalize_1q needs a 1-in 1-out circuit")
    if any(g.kind in ("INIT", "DEST") for g in c.gates):
        raise BadArity("normalize_1q does not accept INIT/DEST")
    if any(g.kind == "CTRL" for g in c.gates):
        raise UnsupportedGate("normalize_1q has no rule that unfolds CTRL")
    big = [a for g in c.gates for a in g.params if abs(a) > NF_MAX_ANGLE]
    if big:
        raise DomainError(f"normalize_1q takes angles within +-{NF_MAX_ANGLE:g}, "
                          f"got {big[0]!r}")
    nz = _Normalizer(theory, c)
    params = nz.run()
    return params, nz.derivation("normalize_1q") if emit_trace else None


def decide_equiv_1q(c1: Circuit, c2: Circuit, tol: float = 1e-8) -> bool:
    """Completeness-based equality test: compare normal-form parameters."""
    p1, _ = normalize_1q(c1)
    p2, _ = normalize_1q(c2)
    return p1.close_to(p2, tol)


class _Normalizer(_Recorder):
    """Stateful driver emitting verified steps (all applied by the engine).

    One reduction path serves both theories.  Every macro, RX included, is
    unfolded by its definition, so the wire word holds H and P only.  The
    loop merges P P pairs (P+), cancels H H (H2) and drops P(0) (P0), which
    leaves H and P alternating, and then contracts H's (``_contract``).
    The only theory difference is the Euler rule there: (E) on RX P RX,
    with (EH) for an odd H count, in QC; (E') on RX H RX, with (H2) and a
    minted RX(0), in QCprime.  Both end in the band reduction of
    ``_shape_and_read``, which mints a missing RX(0) after every P.

    Between moves the circuit holds exactly one GPHASE, as its last gate:
    (S2PI) mints it there first when the input does not end on one, and
    (S+) merges every other GPHASE into it, both the input's and the one
    a rule's replacement starts with.  The wire word is then every gate
    but the last, and a wire gate is addressed by its gate index in the
    working circuit, which becomes a ``Circuit`` only for the derivation.
    """

    def angle(self, i: int) -> float:
        return self.gates[i][0].params[0]

    def insert(self, rule: str, k: int):
        """Run a rule with an empty right side (H2, P0) backwards in front
        of gate k."""
        self.do(rule, "RL", site=Site((), (0,), k))

    def lr(self, rule: str, k: int, m: int = 1, params=(), n: int | None = None):
        """Run a rule forwards on the m wire gates from k; a GPHASE its
        replacement starts with is merged into the last gate."""
        landed = self.do(rule, "LR", params, n, Site(tuple(range(k, k + m)), (0,))).gates
        if landed and self.gates[landed[0]][0].kind == "GPHASE":
            self._merge_phase(landed[0])

    def find_word(self, word: list[str], pred=None) -> int | None:
        """Index of the first run of gates matching the kind word of one or
        two kinds, the last gate (the global phase) left out, whose index
        meets ``pred``: one pass over the gates."""
        gates, m = self.gates, len(word)
        first, second = word[0], word[-1]
        for j in range(len(gates) - m):
            if (gates[j][0].kind == first and gates[j + m - 1][0].kind == second
                    and (pred is None or pred(j))):
                return j
        return None

    # -- high level ----------------------------------------------------------

    def run(self) -> NormalFormParams:
        if not self.gates or self.gates[-1][0].kind != "GPHASE":
            self.do("S2PI", "RL", site=Site((), (), len(self.gates)))
        while (i := self.find_word(["GPHASE"])) is not None:
            self._merge_phase(i)
        self._unfold_macros()
        while self._merge_wire_pairs() or self._drop_trivial() or self._contract():
            pass
        return self._shape_and_read()

    def _merge_phase(self, i: int):
        """Merge the GPHASE at gate i into the last gate (S+)."""
        last = len(self.gates) - 1
        self.do("SPLUS", "LR", (self.angle(i), self.angle(last)), site=Site((i, last), ()))

    def _unfold_macros(self):
        """Unfold X, Z, RX, MCP and MCRX, leftmost first.  An unfolding
        changes no gate in front of its own, so the scan resumes there: a
        one-wire MCRX unfolds to an RX, which it meets next."""
        rules = {"X": "XDEF", "Z": "ZDEF", "RX": "RXDEF", "MCP": "MCPDEF",
                 "MCRX": "MCRXDEF"}
        i = 0
        while i < len(self.gates):
            g = self.gates[i][0]
            if g.kind in rules:
                n = 1 if g.kind in ("MCP", "MCRX") else None
                self.lr(rules[g.kind], i, params=g.params, n=n)
            else:
                i += 1

    def _mint_rx0(self, k: int):
        """Insert RX(0) in front of gate k: H P(0) H by (H2) and (P0),
        folded."""
        self.insert("H2", k)
        self.insert("P0", k + 1)
        self._fold_hph(k + 1)

    # -- reduction loop -------------------------------------------------------

    def _merge_wire_pairs(self) -> bool:
        if (k := self.find_word(["P", "P"])) is not None:
            self.lr("PPLUS", k, 2, (self.angle(k), self.angle(k + 1)))
        elif (k := self.find_word(["H", "H"])) is not None:
            self.lr("H2", k, 2)
        else:
            return False
        return True

    def _fold_hph(self, k: int):
        """Fold H P(v) H around gate k into RX(v) at gate k-1.

        (S+) splits the rotation's -v/2 global phase off the last gate, in
        front of the rest, which stays last when (RXDEF) takes the split.
        """
        v, last = self.angle(k), len(self.gates) - 1
        self.do("SPLUS", "RL", (-v / 2.0, self.angle(last) + v / 2.0),
                site=Site((last,), ()))
        self.do("RXDEF", "RL", (v,), site=Site((k - 1, k, k + 1, last), (0,)))

    def _drop_trivial(self) -> bool:
        k = self.find_word(["P"], lambda j: angles_equal(self.angle(j), 0.0))
        if k is None:
            return False
        self.lr("P0", k)
        return True

    def _contract(self) -> bool:
        """Remove H's from the alternating {H, P} word.

        From its first H on, the word reads H P(a) H P(b) H ...  Two H's
        fold into one RX.  Otherwise both H P H runs of the first four H's
        fold, giving RX(a) P(b) RX(c), or, after (H2) doubles the middle of
        the first three H's in QCprime, RX(a) H RX(b); the theory's Euler
        rule turns that into GPHASE P RX P, and unfolding the RX again
        leaves P H P H P.  In QC an odd count first trades one H for
        P RX P by (EH), which a lone H keeps and any other H count unfolds
        again; in QCprime a lone H gets an RX(0) on each side and (E') at
        (0, 0).  Each Euler rule is total over its three cases, so no case
        needs its own route.
        """
        hs = [i for i, (g, _) in enumerate(self.gates) if g.kind == "H"]
        if not hs:
            return False
        k, qc = hs[0], self.theory == "QC"
        if len(hs) == 2:
            self._fold_hph(k + 1)            # H P(a) H -> RX(a)
        elif qc and len(hs) % 2:
            self.lr("EH", k)                 # H -> P RX P
            if len(hs) > 1:                  # RX -> H P H: an even count
                self.lr("RXDEF", k + 1, params=(self.angle(k + 1),))
        elif len(hs) == 1:
            self._mint_rx0(k)                # RX(0) lands just before the H
            self._mint_rx0(k + 2)            # and just after it
            self._euler(k)
        else:
            if not qc:
                self.insert("H2", k + 3)     # H P(a) H H H P(b) H
            self._fold_hph(k + 1)
            self._fold_hph(k + 3)            # RX(a) P(b) RX(c) or RX(a) H RX(b)
            self._euler(k)
            self.lr("RXDEF", k + 1, params=(self.angle(k + 1),))
        return True

    def _euler(self, k: int):
        """The theory's Euler rule on the three wire gates from k: (E) on
        RX P RX in QC, (E') on RX H RX in QCprime."""
        if self.theory == "QC":
            self.lr("E", k, 3, (self.angle(k), self.angle(k + 1), self.angle(k + 2)))
        else:
            self.lr("EPRIME", k, 3, (self.angle(k), self.angle(k + 2)))

    # -- final shaping ---------------------------------------------------------

    def _shape_and_read(self) -> NormalFormParams:
        if self.find_word(["RX"]) is None:
            # after every P, so that at b2 = 0 the P's angle is b1, as _pack has it
            self._mint_rx0(len(self.gates) - 1)
        # band-reduce the rotation into [0, pi]
        k = self.find_word(["RX"])
        theta = reduce_angle(self.angle(k), 2 * TWO_PI)
        if theta > TWO_PI + ANGLE_EPS:
            self.lr("RXNEG", k, params=(self.angle(k),))
            theta = reduce_angle(self.angle(k), 2 * TWO_PI)
        if theta > math.pi + ANGLE_EPS:
            self.lr("RXFLIP", k, params=(self.angle(k),))
            while self._merge_wire_pairs():
                pass
        k = self.find_word(["RX"])
        if self.find_word(["P"], lambda j: j < k) is None:
            self.insert("P0", k)
        k = self.find_word(["RX"])
        if self.find_word(["P"], lambda j: j > k) is None:
            self.insert("P0", len(self.gates) - 1)
        if (kinds := [g.kind for g, _ in self.gates]) != ["P", "RX", "P", "GPHASE"]:
            raise SemanticDrift(f"normalization left shape {kinds} (engine bug)")
        b1, b2, b3, b0 = map(self.angle, range(4))
        return _pack(b0, b1, reduce_angle(b2, 2 * TWO_PI), b3)
