"""Alternative interpretations and the minimality/unboundedness harness.

Each axiom's necessity is witnessed by a compositional valuation that every
other axiom (within a stated qubit bound) preserves and the target axiom
breaks: indicator and parity counts for the small rules, swap/cnot functors
for B and CZ, the determinant-related valuation ``interp_k`` for the
multi-control rule, and a sign-assignment phase sum for the Euler rule.

The per-axiom witnesses and the Euler value set read a circuit's gates
with its macros expanded by ``expand_gate``.  ``interp_k`` is a sum over
gates, and weighs a macro by recursion on ``unfold``, so an n-wire MCP
costs O(n), not its 2 * 3^(n-1) - 1 expanded gates.  The witnesses that
read only kinds and wires (S2PI, H2, P0, P0', C, EH, B, CZ) have one value
per rule width, so ``minimality_report`` reads one instance per width for
them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .circuit import (TWO_PI, Circuit, Gate, _wire, angles_equal, circuit,
                      expand_gate, reduce_angle, unfold)
from .errors import (BadArity, BadParams, InconsistentClasses, NoInterpretation,
                     UnknownLemma, UnsupportedGate)
from .euler import b_funcs
from .semantics import eval_matrix
from .theories import _seeded_rng, instances, list_rules, resolve_rule, signature

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
    k = _wire(k, "k")
    if k < 0:
        raise BadArity(f"interp_k needs k >= 0, got {k}")
    try:
        r = _weigh(_vanilla(c).gates, k)
    except (OverflowError, RecursionError) as exc:
        raise BadArity(f"interp_k at k={k} is out of reach: {type(exc).__name__}") from None
    return 0.0 if r > TWO_PI - 1e-12 else r


def _weigh(gates, k: int) -> float:
    """``interp_k``'s sum over ``gates``, modulo 2*pi.  A macro weighs what
    its ``unfold`` weighs, which reads no wire: it is weighed on wires
    ``0..n-1``, so the two shapes an MCP unfolds into per level are each
    weighed once and an n-wire MCP costs O(n)."""
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
        else:
            w = _macro_weight(g.with_wires(tuple(range(len(g.wires)))), k)
        # reduced before it is added, so a weight of 2^(k-2) pi or more
        # does not round away the low bits of the total
        total = (total + w % TWO_PI) % TWO_PI
    return total


# bounded: the key holds the macro's angle, which most callers draw anew
@functools.lru_cache(maxsize=1024)
def _macro_weight(g: Gate, k: int) -> float:
    return _weigh(unfold(g), k)


# -- the eight per-axiom interpretations --------------------------------------

def _count(gates: list[Gate], kinds) -> int:
    return sum(1 for g in gates if g.kind in kinds)


def _keep_only(c: Circuit, gates: list[Gate], kinds) -> Circuit:
    """A circuit of ``c``'s arity holding those of ``gates``, its expansion,
    of the given kinds."""
    return Circuit(c.n_in, c.n_out, tuple(g for g in gates if g.kind in kinds))


def interp_axiom(name: str, c: Circuit, psi: float | None = None):
    """Value of circuit c under the counter-interpretation for ``name``.

    ``P0'`` is the (P0) witness of QCprime: 1 when the expanded circuit
    has a P gate.  Only SPLUS reads an angle; the others read the kinds and
    wires of the expansion.
    """
    e = _expanded(c)
    if name == "S2PI":
        return int(_count(e, ("GPHASE",)) > 0)
    if name == "SPLUS":
        if psi is None:
            raise NoInterpretation("the SPLUS interpretation needs a phase psi")
        return int(any(g.kind == "GPHASE" and angles_equal(g.params[0], psi, TWO_PI, 1e-9)
                       for g in e))
    if name == "H2":
        return int(_count(e, ("H",)) > 0)
    if name == "P0":
        return _count(e, ("H", "P")) % 2
    if name == "P0'":
        return int(_count(e, ("P",)) > 0)
    if name == "C":
        return int(_count(e, ("CNOT",)) > 0)
    if name == "B":
        return eval_matrix(_keep_only(c, e, ("SWAP",)))
    if name == "CZ":
        return eval_matrix(_keep_only(c, e, ("CNOT", "SWAP")))
    if name == "EH":
        return _count(e, ("H",)) % 2
    raise NoInterpretation(f"no registered counter-interpretation for {name}")


#: qubit bound within which each interpretation is sound on the other axioms
INTERP_BOUND = {"S2PI": 0, "SPLUS": 0, "H2": 1, "P0": 1, "C": 2, "CZ": None,
                "B": None, "EH": None}

#: witnesses that depend on the theory: (P+) turns two P gates into one,
#: which breaks the #H + #P parity, so QCprime's (P0) row asks whether the
#: circuit has a P gate at all.  QC keeps the parity: (EH) gives a P-free
#: circuit P gates.
_THEORY_WITNESS = {("QCprime", "P0"): "P0'"}


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= 1e-9)
    if isinstance(a, float) or isinstance(b, float):
        return angles_equal(a, b, TWO_PI, 1e-8)
    return a == b


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
    checked on its sampled ``instances``: every draw for (I) and (E),
    whose interpretations read angles, and one draw per width for the
    others, which read only kinds and wires, or, for SPLUS, keep in scope
    only its own psi instances and rules with no parameters.  No
    interpretation is defined on INIT/DEST, so a rule with an ancilla side
    has no witness and the report does not pass.
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
        value, equal = (lambda c: interp_k(c, bound)), _values_equal
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
        value, equal = (lambda c: interp_axiom(witness, c, psi)), _values_equal
    else:
        raise NoInterpretation(f"no counter-interpretation registered for {axiom}")

    def kept(inst) -> bool:
        return equal(value(inst.lhs), value(inst.rhs))

    results: dict[str, str] = {}
    for rid in list_rules(theory):
        name = rid.name
        if name == axiom == "I":
            insts = [resolve_rule(theory, name, (), target_n)]
        elif name == axiom == "SPLUS":
            # the psi-carrying instances are the unsound ones
            insts = [resolve_rule(theory, name, (psi, float(rng.uniform(0.2, 3.0))), 0)
                     for _ in range(3)]
        else:
            arity = signature(name).arity
            width = max_qubits if arity is None else arity
            if bound is not None and width > bound and name != axiom:
                results[name] = "out-of-scope"
                continue
            draws = samples if axiom in ("I", "E") else min(samples, 1)
            # drawn in full, so later rules' draws do not depend on where
            # this one fails
            insts = list(instances(theory, name, draws, max_qubits, rng))
        if _has_ancilla(insts[0].lhs) or _has_ancilla(insts[0].rhs):
            results[name] = "no-witness"
        else:
            results[name] = "sound" if all(map(kept, insts)) else "unsound"

    unsound = {k for k, v in results.items() if v == "unsound"}
    report = {"theory": theory, "axiom": axiom, "interpretation": kind,
              "bound": bound, "samples": samples, "seed": seed, "results": results,
              "pass": unsound == {axiom} and "no-witness" not in results.values()}
    if psi is not None:
        report["psi"] = psi
        # psi-free instances must stay sound
        free = [resolve_rule(theory, "SPLUS", rng.uniform(0.1, 3.0, 2), 0)
                for _ in range(samples)]
        report["psi_free_sound"] = all(map(kept, free))
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
