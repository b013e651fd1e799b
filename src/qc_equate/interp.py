"""Alternative interpretations and the minimality/unboundedness harness.

Each axiom's necessity is witnessed by a compositional valuation that every
other axiom (within a stated qubit bound) preserves and the target axiom
breaks: indicator and parity counts for the small rules, swap/cnot functors
for B and CZ, the determinant-related valuation ``interp_k`` for the
multi-control rule, and a sign-assignment phase sum for the Euler rule.

``interp_k`` is a sum over gates, and weighs a macro by recursion on
``unfold``, so an n-wire MCP costs O(n), not its 2 * 3^(n-1) - 1 expanded
gates.  The witnesses that read no angle (S2PI, H2, P0, P0', C, EH, B, CZ)
are functors too, and fold over the gates the same way (``_fold``): the
indicators and parities count GPHASE, H, P and CNOT gates, B and CZ keep
the GF(2)-linear wire map of the SWAPs, or CNOTs and SWAPs, and a macro
adds the fold of its ``unfold``, taken once per macro shape, which reads
no angle.  They have one value per rule width, so ``minimality_report``
reads one instance per width for them and compares their values with
``==``.  SPLUS's witness and the Euler value set read angles, and read
gates with their macros expanded by ``expand_gate``: SPLUS only a macro
whose fold counts a GPHASE, the value set a 1-qubit circuit.  The value
set reads no GPHASE angle, so it reads one instance of a rule whose
parameters reach only GPHASE gates (SPLUS).

``interp_k`` is the batch-free call of ``_interp_k``, which also weighs a
batch of instances of one circuit that differ only in their angles, as
``semantics._evaluate`` evaluates one: the gate at each angle slot carries
a row of angles, one per instance (``Circuit._batched``, which checks
them).  A GPHASE or P weighs its row with the float operations a float
angle gets; a macro weighs its one-level ``unfold`` with the row scaled
by each unfolded gate's factor (``_unfold_rows``), which gives the float
path's angles bit for bit, and builds no ``Gate`` per row.
``minimality_report``'s (I) row checks each chunk of a rule's draws with
one request, one weigh per side and one vectorised comparison, and builds
no instance, and SPLUS's psi-free check is one such batch; the other
witnesses build an instance only when they check it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .circuit import (_KIND_SIG, MACRO_KINDS, TWO_PI, Circuit, Gate, _BatchGate, _wire,
                      angles_equal, circuit, expand_gate, reduce_angle, unfold)
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
    A ``k`` whose weights overflow a float, or a macro that unfolds deeper
    than Python's recursion limit allows, raises BadArity, as does a
    negative ``k``; a ``k`` that is not an integer raises InvalidCircuit."""
    return _interp_k(c, k)


def _interp_k(c: Circuit, k: int, angles: np.ndarray | None = None):
    """``interp_k``, or with ``angles``, an array (slots, m) of m instances'
    angles, one row per gate of ``c`` that carries one, the m instances'
    values as an array (``Circuit._batched`` checks the angles).  A weight
    that overflows to inf, which a float product gives silently, gives a
    NaN value in a batch too, with no numpy warning."""
    k = _wire(k, "k")
    if k < 0:
        raise BadArity(f"interp_k needs k >= 0, got {k}")
    c = _vanilla(c)
    gates = c.gates if angles is None else c._batched(angles)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            r = _weigh(gates, k)
    except (OverflowError, RecursionError) as exc:
        raise BadArity(f"interp_k at k={k} is out of reach: {type(exc).__name__}") from None
    if isinstance(r, np.ndarray):
        return np.where(r > TWO_PI - 1e-12, 0.0, r)
    return 0.0 if r > TWO_PI - 1e-12 else r


def _weigh(gates, k: int, weighed: dict | None = None):
    """``interp_k``'s sum over ``gates``, modulo 2*pi.  A macro weighs what
    its ``unfold`` weighs, which reads no wire: it is weighed on wires
    ``0..n-1``, so the two shapes an MCP unfolds into per level are each
    weighed once and an n-wire MCP costs O(n).

    A ``_BatchGate`` weighs each instance's angle with the float operations
    a float angle gets (numpy's float ``%`` is Python's): a GPHASE or P
    its row, a macro its unfolding at rows scaled as ``_unfold_rows``
    scales them.  ``weighed`` keeps those macro weights for one batch, by
    kind, wire count and rows, as ``_macro_weight``'s cache keeps a
    ``Gate``'s.  The sum then holds one value per instance."""
    total = 0.0
    for g in gates:
        if g.kind == "GPHASE":
            w = (2.0 ** k) * g.params[0]
        elif g.kind == "H":
            w = (2.0 ** (k - 1)) * math.pi
        elif g.kind == "P":
            w = (2.0 ** (k - 1)) * g.params[0]
        elif g.kind in ("CNOT", "SWAP"):
            w = (2.0 ** (k - 2)) * math.pi
        elif type(g) is Gate:
            w = _macro_weight(g.with_wires(tuple(range(len(g.wires)))), k)
        else:
            weighed = {} if weighed is None else weighed
            key = (g.kind, len(g.wires), g.params[0].tobytes())
            if key not in weighed:
                weighed[key] = _weigh(_unfold_rows(g), k, weighed)
            w = weighed[key]
        # reduced before it is added, so a weight of 2^(k-2) pi or more
        # does not round away the low bits of the total
        total = (total + w % TWO_PI) % TWO_PI
    return total


# bounded: the key holds the macro's angle, which most callers draw anew
@functools.lru_cache(maxsize=1024)
def _macro_weight(g: Gate, k: int) -> float:
    return _weigh(unfold(g), k)


def _unfold_rows(g: _BatchGate) -> list:
    """The one-level ``unfold`` of a batch macro on wires ``0..n-1``: each
    unfolded angle is a factor times the macro's (the unfolding at angle 1
    shows the factors, +-2^-j), so a gate that carries one carries the
    macro's row scaled by its factor, which is ``unfold``'s own
    ``theta / 2.0`` bit for bit."""
    at_one = unfold(Gate(g.kind, tuple(range(len(g.wires))), (1.0,)))
    return [_BatchGate(u.kind, u.wires, (u.params[0] * g.params[0],)) if u.params else u
            for u in at_one]


# -- the eight per-axiom interpretations --------------------------------------

#: the kinds the witnesses that read no angle count, at their index in the
#: counts ``_fold`` gives
_COUNTED = {"GPHASE": 0, "H": 1, "P": 2, "CNOT": 3}

#: what each counting witness makes of the counts of GPHASE, H, P and CNOT
_OF_COUNTS = {
    "S2PI": lambda gphases, hs, ps, cnots: int(gphases > 0),
    "H2": lambda gphases, hs, ps, cnots: int(hs > 0),
    "P0": lambda gphases, hs, ps, cnots: (hs + ps) % 2,
    "P0'": lambda gphases, hs, ps, cnots: int(ps > 0),
    "C": lambda gphases, hs, ps, cnots: int(cnots > 0),
    "EH": lambda gphases, hs, ps, cnots: hs % 2,
}

#: the kinds whose wire map the B and CZ witnesses keep
_KEPT = {"B": ("SWAP",), "CZ": ("CNOT", "SWAP")}


def _fold(gates, n: int, keep: tuple) -> tuple:
    """The counts of GPHASE, H, P and CNOT in ``gates``, on ``n`` wires,
    with their macros expanded, and the wire map of their gates of the
    kinds in ``keep`` (CNOT, SWAP; None when ``keep`` is empty): these
    gates map the wire bits GF(2)-linearly, and row w of the map is a
    bitmask of the input wires XORed into wire w.  A macro adds the fold of
    its ``unfold`` (``_macro_fold``), composed onto its wires."""
    counts = [0, 0, 0, 0]
    rows = [1 << w for w in range(n)] if keep else None
    for g in gates:
        kind = g.kind
        if kind in _COUNTED:
            counts[_COUNTED[kind]] += 1
        if kind in keep:
            a, b = g.wires
            if kind == "CNOT":
                rows[b] ^= rows[a]
            else:
                rows[a], rows[b] = rows[b], rows[a]
        elif kind in MACRO_KINDS:
            base = g.base and g.base.kind
            sub, local = _macro_fold(kind, len(g.wires), g.pattern, base, keep)
            counts = [a + b for a, b in zip(counts, sub)]
            if local is not None:
                old = [rows[w] for w in g.wires]
                for w, row in zip(g.wires, local):
                    rows[w] = functools.reduce(operator.xor, (r for i, r in enumerate(old)
                                                              if row >> i & 1), 0)
    return tuple(counts), rows if rows is None else tuple(rows)


# bounded like _macro_weight; the key is the macro's shape and holds no
# angle, as the kinds and wires of unfold read none
@functools.lru_cache(maxsize=1024)
def _macro_fold(kind: str, n: int, pattern: str, base: str | None, keep: tuple) -> tuple:
    """``_fold`` of the ``unfold`` of a macro of this shape on wires
    ``0..n-1``, at angle 1.  Its wire map is None when it is the identity,
    as every macro's is, so that it costs nothing to compose."""
    at_one = Gate(kind, tuple(range(n)), (1.0,) * _KIND_SIG[kind][1], pattern,
                  None if base is None else Gate(base, (0,), (1.0,) * _KIND_SIG[base][1]))
    counts, rows = _fold(unfold(at_one), n, keep)
    return counts, None if rows == tuple(1 << w for w in range(n)) else rows


def _folded(name: str, gates, n: int, keep: tuple = ()) -> tuple:
    """``_fold`` for the witness ``name``: a macro that unfolds deeper than
    Python's recursion limit allows raises BadArity."""
    try:
        return _fold(gates, n, keep)
    except RecursionError:
        raise BadArity(f"interp[{name}] unfolds deeper than the recursion limit") from None


def _witness(name: str, c: Circuit):
    """The value of vanilla ``c`` under the witness ``name`` that reads no
    angle, as ``minimality_report`` compares it: an int, or for B and CZ
    the wire map."""
    keep = _KEPT.get(name, ())
    if not keep and name not in _OF_COUNTS:
        raise NoInterpretation(f"no registered counter-interpretation for {name}")
    counts, wires = _folded(name, c.gates, c.n_in, keep)
    return wires if keep else _OF_COUNTS[name](*counts)


def interp_axiom(name: str, c: Circuit, psi: float | None = None):
    """Value of circuit c under the counter-interpretation for ``name``.

    The witnesses that read no angle fold over the gates, a macro adding
    the fold of its ``unfold`` once per macro shape (``_fold``), so they
    are linear in width.  S2PI, H2, P0', C are 1 when the circuit, macros
    expanded, has a GPHASE, H, P or CNOT; P0 is #H + #P and EH #H, modulo
    2.  ``P0'`` is the (P0) witness of QCprime.  B and CZ give the
    permutation matrix of the circuit's SWAPs, or CNOTs and SWAPs, alone,
    with wire 0 the most significant bit (``eval_matrix``'s, and its wire
    cap).  SPLUS reads an angle: it is 1 when the circuit, macros expanded,
    has a GPHASE at psi, and it expands only the macros whose fold counts
    a GPHASE.  A macro deeper than Python's recursion limit allows raises
    BadArity.
    """
    c = _vanilla(c)
    if name == "SPLUS":
        if psi is None:
            raise NoInterpretation("the SPLUS interpretation needs a phase psi")
        phased = [g for g in c.gates if _folded(name, (g,), c.n_in)[0][0]]
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


def _angles_near(a, b, tol: float) -> np.ndarray:
    """``angles_equal(a, b, TWO_PI, tol)`` entry by entry, with the same
    float operations."""
    d = np.fmod(np.subtract(a, b), TWO_PI)
    d = np.where(d < 0.0, d + TWO_PI, d)
    return (d <= tol) | (TWO_PI - d <= tol)


def _angles_all_equal(a, b) -> bool:
    """Whether two ``interp_k`` values, or two arrays of them, one per
    instance, are equal for every instance: ``angles_equal(a, b, TWO_PI,
    1e-8)``."""
    return bool(np.all(_angles_near(a, b, 1e-8)))


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
    if c.n_in == 0:   # only global phases: no P gates, one empty class set
        return SignClasses([], [], [])
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
    SPLUS's psi-free draws are one such batch, compared with the float
    operations of ``angles_equal(angle, psi, 2pi, 1e-9)``.  The other
    witnesses build an instance only when they check it, and compare its
    sides' values with ``==`` (B and CZ their wire maps), and a rule stops
    at its first unsound chunk or instance.  No interpretation is defined
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
        lhs, rhs = (_angles_near(a, psi, 1e-9).any(axis=0) for a in sides)
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
