"""Alternative interpretations and the minimality/unboundedness harness.

Each axiom's necessity is witnessed by a compositional valuation that every
other axiom (within a stated qubit bound) preserves and the target axiom
breaks: indicator and parity counts for the small rules, swap/cnot functors
for B and CZ, the determinant-related valuation ``interp_k`` for the
multi-control rule, and a sign-assignment phase sum for the Euler rule.

``interp_k`` and the witnesses that read no angle (S2PI, H2, P0, P0', C,
EH, B, CZ) sum each gate's summary (``_summary``), made once per gate shape
from a macro's ``unfold`` at angle 1, narrower shapes first, with no
recursion: its counts of GPHASE, H, P and CNOT, B's and CZ's
GF(2)-linear wire maps, and its weight, affine in its angle with exact
dyadic coefficients.  So an n-wire MCP(phi) weighs 2^(k-n) phi in O(n), not
over its 2 * 3^(n-1) - 1 expanded gates, and no cache holds an angle.
SPLUS's witness and the Euler value set read angles, and read gates with
their macros expanded by ``expand_gate``.

``minimality_report`` decides (I)'s rows without drawing or weighing: each
rule side has one exact form (``_forms``), its weight over 2^k as a
constant in units of pi plus one coefficient per parameter, all
``Fraction``s, built once per theory, rule and width from the gates'
summaries and the rule's angle map read off at 0 and at the unit vectors.
A rule whose map is not affine, (E) or (E'), has no form and rests on the
determinant law instead.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .circuit import (_KIND_SIG, TWO_PI, Circuit, Gate, _wire, angles_equal, circuit,
                      expand_gate, reduce_angle, unfold)
from .errors import (BadArity, BadParams, InconsistentClasses, NoInterpretation,
                     UnknownLemma, UnsupportedGate)
from .euler import b_funcs
from .semantics import eval_matrix
from .theories import (_SHAPES_KEPT, _batch, _columns, _draws, _resolve, _seeded_rng,
                       _widths, list_rules, resolve_rule, signature)

HALF_PI = math.pi / 2.0


def _has_ancilla(c: Circuit) -> bool:
    return any(g.kind in ("INIT", "DEST") for g in c.gates)


def _vanilla(c: Circuit) -> Circuit:
    if _has_ancilla(c):
        raise UnsupportedGate("interpretations are defined on vanilla circuits")
    return c


def _expanded(c: Circuit) -> list[Gate]:
    """``c``'s gates with every macro expanded into primitives, as
    ``expand_gate`` gives them: a valuation reads the gates in order and
    needs no threading."""
    return [e for g in _vanilla(c).gates for e in expand_gate(g)]


def interp_k(c: Circuit, k: int) -> float:
    """The determinant-related valuation, in [0, 2*pi).  It is a prop
    functor only for k >= 2: at k = 1, ``SWAP SWAP`` weighs pi and the empty
    circuit 0.  ``minimality_report`` never uses k = 1: it decides (I)'s
    rows at k = target_n - 1 from exact forms (``_exact_row``), not by
    calling this, and (I) needs ``target_n >= 3`` (2 raises BadArity).
    A ``k`` at which a weight is not a finite float raises BadArity, as
    does a negative ``k``, with no warning; a ``k`` that is not an integer
    raises InvalidCircuit."""
    k = _wire(k, "k")
    if k < 0:
        raise BadArity(f"interp_k needs k >= 0, got {k}")
    try:
        r = _weigh(_vanilla(c).gates, k)
    except OverflowError:   # 2^k coef beyond a float; an inf weight sums to NaN
        r = math.nan
    if r != r:
        raise BadArity(f"interp_k at k={k} is out of reach: OverflowError")
    return 0.0 if r > TWO_PI - 1e-12 else r


def _weigh(gates, k: int) -> float:
    """``interp_k``'s sum over ``gates``, modulo 2*pi, of ``const + coef *
    angle`` (``_affine``)."""
    total = 0.0
    for g in gates:
        const, coef = _affine(_shape(g), k)
        if coef:
            # reduced before it is added, so a weight of 2^(k-2) pi or more
            # does not round away the low bits of the total
            const = const + coef * (g.params or g.base.params)[0] % TWO_PI
        total = (total + const) % TWO_PI
    return total


@functools.lru_cache(maxsize=1024)
def _affine(shape, k: int) -> tuple[float, float]:
    """A gate of ``shape`` weighs ``const + coef * angle`` at level k,
    modulo 2*pi: its summary's exact 2^k const, reduced modulo 2 before it
    meets pi, and 2^k coef, which raises OverflowError beyond a float."""
    s = _summary(shape)
    num, den = s.const.numerator, s.const.denominator
    const = num * pow(2, k, 2 * den) % (2 * den) / den * math.pi
    return const, math.ldexp(s.coef.numerator, k + 1 - s.coef.denominator.bit_length())


class _Summary(NamedTuple):
    """What the valuations read of a gate shape, with its macros unfolded:
    its counts of GPHASE, H, P and CNOT, its weight 2^k (const pi +
    coef angle) at level k, both exact dyadic rationals, and B's and CZ's
    wire maps (``_wire_map``), ``{wire: row}`` without the identity's rows."""

    counts: tuple[int, ...]
    const: Fraction
    coef: Fraction
    maps: tuple[dict, dict]


#: the primitives' summaries, by kind: a GPHASE weighs 2^k angle, a P
#: 2^(k-1) angle, an H 2^(k-1) pi and a CNOT or SWAP 2^(k-2) pi
_LEAVES = {
    "GPHASE": _Summary((1, 0, 0, 0), Fraction(0), Fraction(1), ({}, {})),
    "H": _Summary((0, 1, 0, 0), Fraction(1, 2), Fraction(0), ({}, {})),
    "P": _Summary((0, 0, 1, 0), Fraction(0), Fraction(1, 2), ({}, {})),
    "CNOT": _Summary((0, 0, 0, 1), Fraction(1, 4), Fraction(0), ({}, {1: 3})),
    "SWAP": _Summary((0, 0, 0, 0), Fraction(1, 4), Fraction(0), ({0: 2, 1: 1},) * 2),
}

#: the summaries made, by shape, and after a miss past 4096 only the leaves'
_SUMMARIES = dict(_LEAVES)


def _shape(g):
    """What of a gate its summary reads, no wire and no angle: a
    primitive's kind, or a macro's kind, width, pattern and base kind."""
    if g.kind in _LEAVES:
        return g.kind
    return g.kind, len(g.wires), g.pattern, g.base and g.base.kind


def _summary(shape) -> _Summary:
    """The summary of a gate of ``shape``: a macro's is made from those of
    its ``unfold`` on wires ``0..n-1`` at angle 1 (``_unfolded``, once per
    shape), which a worklist makes before it, narrower shapes first, so no
    call recurses and the result does not depend on what is held; an unfolded angle is a factor (+-2^-j)
    of the macro's own angle, or when it has none, a multiple of pi."""
    if shape not in _SUMMARIES:
        if len(_SUMMARIES) > 4096:
            _SUMMARIES.clear()
            _SUMMARIES.update(_LEAVES)
        todo = {shape: _unfolded(shape)}   # the shapes to make, the last first
        while todo:
            top = next(reversed(todo))
            g, subs = todo[top]
            missing = dict.fromkeys(s for s in map(_shape, subs) if s not in _SUMMARIES)
            if missing:   # made first; a shape already in ``todo`` moves up
                for s in missing:
                    todo[s] = todo.pop(s) if s in todo else _unfolded(s)
                continue
            del todo[top]
            parts = [_SUMMARIES[_shape(u)] for u in subs]
            const = sum(s.const for s in parts)
            coef = sum(s.coef * Fraction(u.params[0]) for u, s in zip(subs, parts) if u.params)
            if not (g.params or g.base is not None and g.base.params):
                const, coef = const + coef / Fraction(math.pi), 0
            maps = (_wire_map(subs, i) for i in (0, 1))
            _SUMMARIES[top] = _Summary(
                _counts(subs), Fraction(const), Fraction(coef),
                tuple({w: r for w, r in m.items() if r != 1 << w} for m in maps))
    return _SUMMARIES[shape]


def _unfolded(shape) -> tuple[Gate, list[Gate]]:
    """A macro of ``shape`` on wires ``0..n-1`` at angle 1, and its ``unfold``."""
    kind, n, pattern, base = shape
    g = Gate(kind, tuple(range(n)), (1.0,) * _KIND_SIG[kind][1], pattern,
             None if base is None else Gate(base, (0,), (1.0,) * _KIND_SIG[base][1]))
    return g, unfold(g)


# -- the eight per-axiom interpretations --------------------------------------

#: what each counting witness makes of the counts of GPHASE, H, P and CNOT
_OF_COUNTS = {
    "S2PI": lambda gphases, hs, ps, cnots: int(gphases > 0),
    "H2": lambda gphases, hs, ps, cnots: int(hs > 0),
    "P0": lambda gphases, hs, ps, cnots: (hs + ps) % 2,
    "P0'": lambda gphases, hs, ps, cnots: int(ps > 0),
    "C": lambda gphases, hs, ps, cnots: int(cnots > 0),
    "EH": lambda gphases, hs, ps, cnots: hs % 2,
}

#: the witnesses that read a wire map, at its index in ``_Summary.maps``:
#: B's of the SWAPs, CZ's of the CNOTs and SWAPs
_KEPT = {"B": 0, "CZ": 1}


def _counts(gates) -> tuple:
    """The counts of GPHASE, H, P and CNOT in ``gates``, with their macros
    unfolded."""
    gphases = hs = ps = cnots = 0
    for g in gates:
        a, b, c, d = _summary(_shape(g)).counts
        gphases, hs, ps, cnots = gphases + a, hs + b, ps + c, cnots + d
    return gphases, hs, ps, cnots


def _wire_map(gates, i: int) -> dict:
    """The GF(2)-linear wire map of ``gates``, their summaries' maps at
    index ``i`` (``_KEPT``) composed: row w, a bitmask of the input wires
    XORed into wire w, is held once written."""
    rows = {}
    for g in gates:
        m = _summary(_shape(g)).maps[i]
        if m:
            old = [rows.get(w, 1 << w) for w in g.wires]
            for w, row in m.items():
                x = 0
                for j, r in enumerate(old):
                    if row >> j & 1:
                        x ^= r
                rows[g.wires[w]] = x
    return rows


def _witness(name: str, c: Circuit):
    """The value of vanilla ``c`` under the witness ``name`` that reads no
    angle, as ``minimality_report`` compares it: an int, or for B and CZ
    the wire map."""
    if name in _KEPT:
        rows = _wire_map(c.gates, _KEPT[name])
        return tuple(rows.get(w, 1 << w) for w in range(c.n_in))
    if name not in _OF_COUNTS:
        raise NoInterpretation(f"no registered counter-interpretation for {name}")
    return _OF_COUNTS[name](*_counts(c.gates))


def interp_axiom(name: str, c: Circuit, psi: float | None = None):
    """Value of circuit c under the counter-interpretation for ``name``.

    The witnesses that read no angle sum each gate's summary (``_counts``,
    ``_wire_map``), so they are linear in width.  S2PI, H2, P0', C are 1
    when the circuit, macros expanded, has a GPHASE, H, P or CNOT; P0 is
    #H + #P and EH #H, modulo 2.  ``P0'`` is the (P0) witness of QCprime.
    B and CZ give the permutation matrix of the circuit's SWAPs, or CNOTs
    and SWAPs, alone, with wire 0 the most significant bit
    (``eval_matrix``'s, and its wire cap).  SPLUS reads an angle: it is 1
    when the circuit, macros expanded, has a GPHASE at psi, and it expands
    only the macros whose summary counts a GPHASE.
    """
    c = _vanilla(c)
    if name == "SPLUS":
        if psi is None:
            raise NoInterpretation("the SPLUS interpretation needs a phase psi")
        phased = [g for g in c.gates if _summary(_shape(g)).counts[0]]
        return int(any(e.kind == "GPHASE" and angles_equal(e.params[0], psi, TWO_PI, 1e-9)
                       for g in phased for e in expand_gate(g)))
    if name not in _KEPT:
        return _witness(name, c)
    # the basis state with input bits x goes to y, y_w the XOR of row w's x_i
    eye = eval_matrix(Circuit(c.n_in, c.n_out, ()))
    n, xs = c.n_in, np.arange(2 ** c.n_in)
    ys = np.zeros_like(xs)
    for w, row in enumerate(_witness(name, c)):
        y_w = functools.reduce(np.bitwise_xor, (xs >> (n - 1 - i) & 1
                                                for i in range(n) if row >> i & 1), 0)
        ys = ys | y_w << (n - 1 - w)
    return eye[:, ys]


#: qubit bound within which each interpretation is sound on the other axioms
INTERP_BOUND = {"S2PI": 0, "SPLUS": 0, "H2": 1, "P0": 1, "C": 2, "CZ": None,
                "B": None, "EH": None}

#: witnesses that depend on the theory: (P+) turns two P gates into one,
#: which breaks the #H + #P parity, so QCprime's (P0) row asks whether the
#: circuit has a P gate at all.  QC keeps the parity: (EH) gives a P-free
#: circuit P gates.
_THEORY_WITNESS = {("QCprime", "P0"): "P0'"}


def _phase_slots_only(theory: str, name: str, n: int) -> bool:
    """Whether every gate of the rule's sides at width ``n`` that carries a
    parameter's angle is a GPHASE."""
    shape = _resolve(theory, name, (0.0,) * signature(name).n_params, n, False)[0]
    return all(c.gates[i].kind == "GPHASE" for c in (shape.lhs, shape.rhs)
               for i in c._plan.angle_at)


# -- (I)'s exact forms ---------------------------------------------------------

#: the seeded points at which an angle map read off at 0 and at the unit
#: vectors is checked to be affine, to 1e-12
_AFFINE_POINTS = 8

#: the largest denominator a read angle, in units of pi, or coefficient may
#: have to count as exact: a float that is no small dyadic multiple of pi
#: has one near 2^52
_DYADIC = 1 << 32


class _Form(NamedTuple):
    """A rule side's weight over 2^k, exactly: ``const`` pi plus
    ``coefs[j]`` times parameter j, dyadic rationals."""

    const: Fraction
    coefs: tuple[Fraction, ...]


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _forms(theory: str, name: str, n: int) -> tuple[_Form, _Form] | None:
    """The exact forms of the rule's two sides at width ``n``, or None when
    its angle map is not affine or an angle that a side weighs is not an
    exact dyadic multiple of pi.  Each angle slot is read off the map at 0
    and at the unit vectors, then checked, unscaled, at ``_AFFINE_POINTS``
    points of a generator of its own, after ``Circuit._batched`` has
    checked every read angle as building the gates would.  The cache holds
    no drawn angle: only the forms, made once per theory, rule and
    width."""
    n_params = signature(name).n_params
    shape, _, angles = _resolve(theory, name, (0.0,) * n_params, n, True)
    sides = (_vanilla(shape.lhs), _vanilla(shape.rhs))
    if angles is None:
        slots = [[(a, ()) for a in c._plan.angles] for c in sides]
    else:
        points = np.random.default_rng(0).uniform(-4 * math.pi, 4 * math.pi,
                                                  (n_params, _AFFINE_POINTS))
        at = np.hstack([np.zeros((n_params, 1)), np.eye(n_params), points])
        slots = []
        for c, side in zip(sides, angles(*at)):
            cols = _columns(side, at.shape[1])
            c._batched(cols)
            base, units = cols[:, 0], cols[:, 1:n_params + 1] - cols[:, :1]
            if not (np.abs(base[:, None] + units @ points - cols[:, n_params + 1:])
                    <= 1e-12).all():
                return None
            slots.append(list(zip(base.tolist(), map(tuple, units.tolist()))))
    forms = tuple(_form(c, s, n_params) for c, s in zip(sides, slots))
    return None if None in forms else forms


def _form(c: Circuit, slots, n_params: int) -> _Form | None:
    """``c``'s exact form, its angle slots affine maps ``slots`` of the
    parameters, (angle at 0, coefficient per parameter); None when an angle
    it weighs is not exact (``_in_pi``) or a coefficient not dyadic."""
    const, coefs = Fraction(0), [Fraction(0)] * n_params
    slot = dict(zip(c._plan.angle_at, slots))
    for i, g in enumerate(c.gates):
        s = _summary(_shape(g))
        const += s.const
        if not s.coef:
            continue
        base, units = slot[i] if i in slot else (g.base.params[0], ())
        q = _in_pi(base)
        units = [Fraction(u) for u in units]
        if q is None or any(u.denominator > _DYADIC for u in units):
            return None
        const += s.coef * q
        for j, u in enumerate(units):
            coefs[j] += s.coef * u
    return _Form(const, tuple(coefs))


def _in_pi(angle: float) -> Fraction | None:
    """``angle`` in units of pi when it is exactly a dyadic multiple of pi
    as a float writes it (``2 * math.pi``, ``-math.pi / 2``), else None."""
    q = Fraction(angle / math.pi)
    return q if q.denominator <= _DYADIC and float(q) * math.pi == angle else None


def _exact_row(theory: str, name: str, n: int, k: int) -> str:
    """(I)'s row of the rule at width ``n`` under interp_k: "sound" when
    its sides' forms have equal coefficients and 2^k times the constants'
    difference is 0 modulo 2, which the modular power decides exactly, and
    else "unsound".  A rule with no form rests on the determinant law:
    on one wire interp_k = 2^(k-1) arg det, which a sound rule keeps when
    its theory's equality is exact, so it reads "sound"; anywhere else,
    as in QCugp, whose equality drops a global phase, "unshown"."""
    forms = _forms(theory, name, n)
    if forms is None:
        return "sound" if n == 1 and theory != "QCugp" else "unshown"
    lhs, rhs = forms
    gap = lhs.const - rhs.const
    den = 2 * gap.denominator
    return ("sound" if lhs.coefs == rhs.coefs and gap.numerator * pow(2, k, den) % den == 0
            else "unsound")


# -- sign assignments and the Euler counter-model ------------------------------

@dataclass
class SignClasses:
    """Partition of the P gates of a 1-qubit circuit by the ~ relation.

    ``classes[i]`` lists positions (indices into the expanded gate list) of
    P gates sharing a sign; ``pairing`` lists index pairs of classes forced
    to opposite signs.  A valid assignment picks one sign per component.
    """

    positions: list[int]
    classes: list[tuple[int, ...]]
    pairing: list[tuple[int, int]]


def _one_qubit(c: Circuit) -> None:
    if c.n_in != c.n_out or c.n_in > 1:
        raise UnsupportedGate("sign classes are defined for 1-qubit circuits")


def sign_classes(c: Circuit) -> SignClasses:
    _one_qubit(c)
    return _sign_classes(_expanded(c))


def _sign_classes(e: list[Gate]) -> SignClasses:
    """``sign_classes`` of a circuit whose expanded gates are ``e``."""
    mats = [eval_matrix(circuit(1, [g])) if g.kind != "GPHASE"
            else np.eye(2, dtype=complex) * np.exp(1j * g.params[0])
            for g in e]
    pos = [i for i, g in enumerate(e) if g.kind == "P"]

    # union-find with parity: link[i] = (parent, 1 if opposite sign to it)
    link = {i: (i, 0) for i in pos}

    def find(i):
        """(root, sign of i relative to the root)."""
        sign = 0
        while link[i][0] != i:
            i, s = link[i]
            sign ^= s
        return i, sign

    for i, j in combinations(pos, 2):
        mid = np.eye(2, dtype=complex)
        for t in range(i + 1, j):
            mid = mats[t] @ mid
        off = max(abs(mid[0, 1]), abs(mid[1, 0]))
        diag = max(abs(mid[0, 0]), abs(mid[1, 1]))
        if off < 1e-10:
            par = 0              # diagonal middle: same sign
        elif diag < 1e-10:
            par = 1              # anti-diagonal middle: opposite signs
        else:
            continue
        (ri, si), (rj, sj) = find(i), find(j)
        if ri != rj:
            link[rj] = (ri, si ^ sj ^ par)
        elif si ^ sj != par:
            raise InconsistentClasses("sign relation closure is contradictory")

    groups: dict[tuple[int, int], list[int]] = {}
    for i in pos:
        groups.setdefault(find(i), []).append(i)
    keys = sorted(groups)
    classes = [tuple(groups[k]) for k in keys]
    # (root, 0) sorts right before (root, 1): that couple takes opposite signs
    pairing = [(n - 1, n) for n, (_, sign) in enumerate(keys) if sign]
    return SignClasses(pos, classes, pairing)


def interp_E_values(c: Circuit) -> tuple[float, ...]:
    """All values of the signed phase sum modulo pi/2, over valid assignments."""
    _one_qubit(c)
    e = _expanded(c)
    sc = _sign_classes(e)
    phis = {i: e[i].params[0] for i in sc.positions}
    paired = {a for pair in sc.pairing for a in pair}
    # one free sign per component: a paired couple of classes is one component
    components: list[float] = []
    for a, b in sc.pairing:
        components.append(sum(phis[i] for i in sc.classes[a])
                          - sum(phis[i] for i in sc.classes[b]))
    for idx, cls in enumerate(sc.classes):
        if idx not in paired:
            components.append(sum(phis[i] for i in cls))
    values = {0.0}
    for contrib in components:
        values = {v + s * contrib for v in values for s in (1.0, -1.0)}
    return tuple(sorted({round(reduce_angle(v, HALF_PI), 9) for v in values}))


def equal_value_sets(a, b, tol: float = 1e-8) -> bool:
    return len(a) == len(b) and all(angles_equal(x, y, HALF_PI, tol)
                                    for x, y in zip(sorted(a), sorted(b)))


def sign_gap(s, s_prime, a1: float, a2: float, a3: float) -> float:
    """The computable counter-model gap for the Euler rule.

    Difference of the signed output and input phase sums; its nonvanishing
    derivative in a2 makes the set of attained values a continuum.
    """
    b1, b2, b3 = b_funcs(a1, a2, a3)
    return (s_prime[0] * b1 + s_prime[1] * b2 + s_prime[2] * b3
            - s[0] * a1 - s[1] * a2 - s[2] * a3)


# -- minimality harness --------------------------------------------------------

def minimality_report(theory: str, axiom: str, max_qubits: int = 5,
                      samples: int = 100, seed: int = 0,
                      target_n: int = 4) -> dict:
    """Check that exactly the target axiom breaks its counter-interpretation.

    For (I) the interpretation is interp_k at k = target_n - 1; for (E) it
    is the sign-assignment value set; the remaining eight axioms use their
    registered interpretations.  Axioms acting on more qubits than the
    interpretation's soundness bound are out of scope.

    (I)'s rows are decided exactly, with no draw and no float weight, at
    every width: a rule whose angle map is affine compares its sides'
    exact forms (``_exact_row``), and (E) and (E'), whose maps are not,
    rest on the determinant law, which shows them "sound" in QC and
    QCprime and leaves QCugp's (E) "unshown"; an "unshown" row fails the
    report as an "unsound" one does.  The forms are cached per theory,
    rule and width, so a repeated report reads no rule.

    Every other rule is checked on its sampled draws (``theories._draws``,
    drawn in full, so later rules' draws do not depend on where one
    fails): every draw for (E), whose value sets read angles, and one draw
    per width for the others, which read only kinds and wires, or, for
    SPLUS, keep in scope only its own psi instances and rules with no
    parameters.  (E)'s value sets read P angles only, so a rule whose
    parameters reach only GPHASE gates (SPLUS) has its first draw checked.
    SPLUS's psi-free draws are one batch (``theories._batch``), compared
    entry by entry by ``angles_equal(angle, psi, 2pi, 1e-9)``.  The other
    witnesses build an instance only when they check it, and compare its
    sides' values with ``==`` (B and CZ their wire maps), and a rule stops
    at its first unsound instance.  No interpretation is defined on
    INIT/DEST, so a rule with an ancilla side has no witness and the
    report does not pass.
    """
    rng = _seeded_rng(seed)
    seed, samples = _wire(seed, "seed"), _wire(samples, "samples")   # echoed as ints
    target_n = _wire(target_n, "target_n")
    if axiom not in {r.name for r in list_rules(theory)}:
        raise UnknownLemma(f"{axiom} is not an axiom of {theory}")
    psi = None
    if axiom == "I":
        bound = target_n - 1
        kind = f"interp_k(k={bound})"
    elif axiom == "E":
        bound = 1
        kind = "sign-assignment value set"
        value, equal = interp_E_values, equal_value_sets
    elif axiom in INTERP_BOUND:
        bound = INTERP_BOUND[axiom]
        witness = _THEORY_WITNESS.get((theory, axiom), axiom)
        kind = f"interp[{witness}]"
        if axiom == "SPLUS":
            if samples < 1:   # the psi-free instances would be none
                raise BadParams("SPLUS gets no psi-free instance with samples=0")
            psi = float(rng.uniform(0.1, TWO_PI - 0.1))
        value = ((lambda c: interp_axiom(witness, c, psi)) if axiom == "SPLUS"
                 else (lambda c: _witness(witness, c)))
        equal = operator.eq
    else:
        raise NoInterpretation(f"no counter-interpretation registered for {axiom}")

    def kept(inst) -> bool:
        return equal(value(inst.lhs), value(inst.rhs))

    results: dict[str, str] = {}
    for rid in list_rules(theory):
        name = rid.name
        arity = signature(name).arity
        width = max_qubits if arity is None else arity
        if name != axiom and bound is not None and width > bound:
            results[name] = "out-of-scope"
            continue
        if axiom == "I":
            ns = (target_n,) if name == axiom else _widths(name, samples, max_qubits)[0]
            rows = [_exact_row(theory, name, n, bound) for n in ns]
            results[name] = next((v for v in rows if v != "sound"), "sound")
            continue
        if name == axiom == "SPLUS":
            # the psi-carrying instances are the unsound ones
            chunks = [(0, np.array([(psi, float(rng.uniform(0.2, 3.0))) for _ in range(3)]))]
        else:
            draws = samples if axiom == "E" else min(samples, 1)
            chunks = list(_draws(name, draws, max_qubits, rng))
            if axiom == "E" and _phase_slots_only(theory, name, chunks[0][0]):
                # the value set reads no GPHASE angle, so every row of the
                # rule has its first row's values
                chunks = [(chunks[0][0], chunks[0][1][:1])]
        insts = (resolve_rule(theory, name, row, n) for n, rows in chunks for row in rows.tolist())
        first = next(insts)
        if _has_ancilla(first.lhs) or _has_ancilla(first.rhs):
            results[name] = "no-witness"
        else:
            results[name] = "sound" if kept(first) and all(map(kept, insts)) else "unsound"

    unsound = {k for k, v in results.items() if v == "unsound"}
    report = {"theory": theory, "axiom": axiom, "interpretation": kind,
              "bound": bound, "samples": samples, "seed": seed, "results": results,
              "pass": unsound == {axiom}
              and not {"no-witness", "unshown"} & set(results.values())}
    if psi is not None:
        report["psi"] = psi
        # psi-free instances must stay sound: every gate of SPLUS's sides
        # is a GPHASE at an angle slot, so a side's value is whether one of
        # its slots' angles equals psi
        _, sides = _batch(theory, "SPLUS", 0, rng.uniform(0.1, 3.0, (samples, 2)))
        lhs, rhs = (angles_equal(a, psi, TWO_PI, 1e-9).any(axis=0) for a in sides)
        report["psi_free_sound"] = bool(np.array_equal(lhs, rhs))
        report["pass"] = report["pass"] and report["psi_free_sound"]
    return report


def minimality_matrix(theory: str = "QC", max_qubits: int = 5,
                      samples: int = 100, seed: int = 0,
                      target_n: int = 4) -> dict:
    """One report per axiom of the theory that has a counter-interpretation;
    the axioms without one are named in ``no_interpretation``, in catalog
    order.  PASS iff every row passes."""
    seed, samples = _wire(seed, "seed"), _wire(samples, "samples")   # echoed as ints
    rows, missing = {}, []
    ok = True
    for rid in list_rules(theory):
        try:
            rep = minimality_report(theory, rid.name, max_qubits=max_qubits,
                                    samples=samples, seed=seed,
                                    target_n=target_n)
        except NoInterpretation:
            missing.append(rid.name)
            continue
        rows[rid.name] = {"interpretation": rep["interpretation"],
                          "results": rep["results"], "pass": rep["pass"]}
        ok = ok and rep["pass"]
    return {"theory": theory, "samples": samples, "seed": seed,
            "rows": rows, "no_interpretation": missing, "pass": ok}
