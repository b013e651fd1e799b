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
their macros expanded by ``expand_gate``.  ``interp_k`` is the batch-free
call of ``_interp_k``, which also weighs a batch of instances of one
circuit that differ only in their angles, bit for bit as one at a time, so
``minimality_report`` checks (I) a chunk of draws at a time.
"""

from __future__ import annotations

import functools
import itertools
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
from .theories import (_batch, _draws, _resolve, _seeded_rng, list_rules, resolve_rule,
                       signature)

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
    circuit 0.  ``minimality_report`` never uses k = 1: it takes
    k = target_n - 1, and (I) needs ``target_n >= 3`` (2 raises BadArity).
    A ``k`` at which a weight is not a finite float raises BadArity, as
    does a negative ``k``; a ``k`` that is not an integer raises
    InvalidCircuit."""
    return _interp_k(c, k)


def _interp_k(c: Circuit, k: int, angles: np.ndarray | None = None):
    """``interp_k``, or with ``angles``, an array (slots, m) of m instances'
    angles, one row per gate of ``c`` that carries one, their m values as
    an array (``Circuit._batched`` checks the angles).  A weight that a
    float product overflows silently raises BadArity, with no warning."""
    k = _wire(k, "k")
    if k < 0:
        raise BadArity(f"interp_k needs k >= 0, got {k}")
    c = _vanilla(c)
    gates = c.gates if angles is None else c._batched(angles)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            r = _weigh(gates, k)
    except OverflowError:   # 2^k coef beyond a float; an inf weight sums to NaN
        r = math.nan
    batch = isinstance(r, np.ndarray)
    if np.isnan(r).any() if batch else r != r:
        raise BadArity(f"interp_k at k={k} is out of reach: OverflowError")
    if batch:
        return np.where(r > TWO_PI - 1e-12, 0.0, r)
    return 0.0 if r > TWO_PI - 1e-12 else r


def _weigh(gates, k: int):
    """``interp_k``'s sum over ``gates``, modulo 2*pi, of ``const + coef *
    angle`` (``_affine``): a float angle, or a ``_BatchGate``'s row of
    angles with the same float operations, which gives one sum per row."""
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


def _angles_all_equal(a, b) -> bool:
    """Whether two ``interp_k`` values, or two arrays of them, one per
    instance, are equal for every instance: ``angles_equal(a, b, TWO_PI,
    1e-8)``."""
    return bool(np.all(angles_equal(a, b, TWO_PI, 1e-8)))


def _phase_slots_only(theory: str, name: str, n: int) -> bool:
    """Whether every gate of the rule's sides at width ``n`` that carries a
    parameter's angle is a GPHASE."""
    shape = _resolve(theory, name, (0.0,) * signature(name).n_params, n, False)[0]
    return all(c.gates[i].kind == "GPHASE" for c in (shape.lhs, shape.rhs)
               for i in c._plan.angle_at)


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
    interpretation's soundness bound are out of scope; every other rule is
    checked on its sampled draws (``theories._draws``, drawn in full, so
    later rules' draws do not depend on where one fails): every draw for
    (I) and (E), whose interpretations read angles, and one draw per width
    for the others, which read only kinds and wires, or, for SPLUS, keep
    in scope only its own psi instances and rules with no parameters.
    (E)'s value sets read P angles only, so a rule whose parameters reach
    only GPHASE gates (SPLUS) has its first draw checked.

    (I) checks a chunk of draws as one batch: one request, the angle map
    called once with a column per parameter, each side weighed once with
    its (slots, k) angles (``_interp_k``) and one vectorised comparison.
    SPLUS's psi-free draws are one such batch, compared entry by entry by
    ``angles_equal(angle, psi, 2pi, 1e-9)``.  The other witnesses build an
    instance only when they check it, and compare its sides' values with
    ``==`` (B and CZ their wire maps), and a rule stops at its first
    unsound chunk or instance.  No interpretation is defined
    on INIT/DEST, so a rule with an ancilla side has no witness and the
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
        value, equal = (lambda c, angles: _interp_k(c, bound, angles)), _angles_all_equal
    elif axiom == "E":
        bound = 1
        kind = "sign-assignment value set"
        value, equal = (lambda c, _: interp_E_values(c)), equal_value_sets
    elif axiom in INTERP_BOUND:
        bound = INTERP_BOUND[axiom]
        witness = _THEORY_WITNESS.get((theory, axiom), axiom)
        kind = f"interp[{witness}]"
        if axiom == "SPLUS":
            if samples < 1:   # the psi-free instances would be none
                raise BadParams("SPLUS gets no psi-free instance with samples=0")
            psi = float(rng.uniform(0.1, TWO_PI - 0.1))
        value = ((lambda c, _: interp_axiom(witness, c, psi)) if axiom == "SPLUS"
                 else (lambda c, _: _witness(witness, c)))
        equal = operator.eq
    else:
        raise NoInterpretation(f"no counter-interpretation registered for {axiom}")

    def checks(name: str, chunks):
        """The rule's checks, each (lhs, rhs, lhs angles, rhs angles): for
        (I) one per chunk, its instances on a batch axis (``_batch``), for
        the other witnesses one per instance, built when it is checked."""
        for n, rows in chunks:
            if axiom == "I":
                shape, angles = _batch(theory, name, n, rows)
                yield (shape.lhs, shape.rhs, *angles)
            else:
                for row in rows.tolist():
                    inst = resolve_rule(theory, name, row, n)
                    yield inst.lhs, inst.rhs, None, None

    def kept(lhs, rhs, a, b) -> bool:
        return equal(value(lhs, a), value(rhs, b))

    results: dict[str, str] = {}
    for rid in list_rules(theory):
        name = rid.name
        if name == axiom == "I":
            chunks = [(target_n, np.empty((1, 0)))]
        elif name == axiom == "SPLUS":
            # the psi-carrying instances are the unsound ones
            chunks = [(0, np.array([(psi, float(rng.uniform(0.2, 3.0))) for _ in range(3)]))]
        else:
            arity = signature(name).arity
            width = max_qubits if arity is None else arity
            if bound is not None and width > bound and name != axiom:
                results[name] = "out-of-scope"
                continue
            draws = samples if axiom in ("I", "E") else min(samples, 1)
            chunks = list(_draws(name, draws, max_qubits, rng))
            if axiom == "E" and _phase_slots_only(theory, name, chunks[0][0]):
                # the value set reads no GPHASE angle, so every row of the
                # rule has its first row's values
                chunks = [(chunks[0][0], chunks[0][1][:1])]
        rule_checks = checks(name, chunks)
        first = next(rule_checks)
        if _has_ancilla(first[0]) or _has_ancilla(first[1]):
            results[name] = "no-witness"
        else:
            results[name] = ("sound" if kept(*first) and all(itertools.starmap(kept, rule_checks))
                             else "unsound")

    unsound = {k for k, v in results.items() if v == "unsound"}
    report = {"theory": theory, "axiom": axiom, "interpretation": kind,
              "bound": bound, "samples": samples, "seed": seed, "results": results,
              "pass": unsound == {axiom} and "no-witness" not in results.values()}
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
