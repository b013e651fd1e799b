"""Alternative interpretations and the minimality/unboundedness harness.

Each axiom's necessity is witnessed by a compositional valuation that every
other axiom (within a stated qubit bound) preserves and the target axiom
breaks: indicator and parity counts for the small rules, swap/cnot functors
for B and CZ, the determinant-related valuation ``interp_k`` for the
multi-control rule, and a sign-assignment phase sum for the Euler rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .circuit import (TWO_PI, Circuit, angles_equal, circuit, expand_macros,
                      reduce_angle)
from .errors import (InconsistentClasses, NoInterpretation, UnknownTheory,
                     UnsupportedGate)
from .euler import b_funcs
from .semantics import eval_matrix
from .theories import instances, instantiate, list_rules, rule_signature

HALF_PI = math.pi / 2.0


def _expanded(c: Circuit) -> Circuit:
    if any(g.kind in ("INIT", "DEST") for g in c.gates):
        raise UnsupportedGate("interpretations are defined on vanilla circuits")
    return expand_macros(c)


def interp_k(c: Circuit, k: int) -> float:
    """The determinant-related valuation, in [0, 2*pi)."""
    total = 0.0
    for g in _expanded(c).gates:
        if g.kind == "GPHASE":
            total += (2.0 ** k) * g.params[0]
        elif g.kind == "H":
            total += (2.0 ** (k - 1)) * math.pi
        elif g.kind == "P":
            total += (2.0 ** (k - 1)) * g.params[0]
        elif g.kind in ("CNOT", "SWAP"):
            total += (2.0 ** (k - 2)) * math.pi
        total %= TWO_PI
    r = total % TWO_PI
    return 0.0 if r > TWO_PI - 1e-12 else r


# -- the eight per-axiom interpretations --------------------------------------

def _count(c: Circuit, kinds) -> int:
    return sum(1 for g in c.gates if g.kind in kinds)


def _keep_only(c: Circuit, kinds) -> Circuit:
    return Circuit(c.n_in, c.n_out,
                   tuple(g for g in c.gates if g.kind in kinds))


def interp_axiom(name: str, c: Circuit, psi: float | None = None):
    """Value of circuit c under the counter-interpretation for ``name``.

    ``P0'`` is the (P0) witness of QCprime: 1 when the expanded circuit
    has a P gate.
    """
    e = _expanded(c)
    if name == "S2PI":
        return int(_count(e, ("GPHASE",)) > 0)
    if name == "SPLUS":
        if psi is None:
            raise NoInterpretation("the SPLUS interpretation needs a phase psi")
        return int(any(g.kind == "GPHASE" and angles_equal(g.params[0], psi, TWO_PI, 1e-9)
                       for g in e.gates))
    if name == "H2":
        return int(_count(e, ("H",)) > 0)
    if name == "P0":
        return _count(e, ("H", "P")) % 2
    if name == "P0'":
        return int(_count(e, ("P",)) > 0)
    if name == "C":
        return int(_count(e, ("CNOT",)) > 0)
    if name == "B":
        return eval_matrix(_keep_only(e, ("SWAP",)))
    if name == "CZ":
        return eval_matrix(_keep_only(e, ("CNOT", "SWAP")))
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


def sign_classes(c: Circuit) -> SignClasses:
    if c.n_in != c.n_out or c.n_in > 1:
        raise UnsupportedGate("sign classes are defined for 1-qubit circuits")
    if c.n_in == 0:   # only global phases: no P gates, one empty class set
        return SignClasses([], [], [])
    e = _expanded(c)
    mats = [eval_matrix(circuit(1, [g])) if g.kind != "GPHASE"
            else np.eye(2, dtype=complex) * np.exp(1j * g.params[0])
            for g in e.gates]
    pos = [i for i, g in enumerate(e.gates) if g.kind == "P"]

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
    sc = sign_classes(c)
    e = _expanded(c)
    phis = {i: e.gates[i].params[0] for i in sc.positions}
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
    if len(a) != len(b):
        return False
    for x, y in zip(sorted(a), sorted(b)):
        d = abs(x - y)
        if d > tol and HALF_PI - d > tol:
            return False
    return True


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
    checked on its sampled ``instances``.
    """
    rng = np.random.default_rng(seed)
    if axiom not in {r.name for r in list_rules(theory)}:
        raise UnknownTheory(f"{axiom} is not an axiom of {theory}")
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
            insts = [instantiate(rid, (), target_n)]
        elif name == axiom == "SPLUS":
            # the psi-carrying instances are the unsound ones
            insts = [instantiate(rid, (psi, float(rng.uniform(0.2, 3.0))), 0)
                     for _ in range(3)]
        else:
            width = max_qubits if name == "I" else rule_signature(name)[1]
            if bound is not None and width > bound and name != axiom:
                results[name] = "out-of-scope"
                continue
            # drawn in full, so later rules' draws do not depend on where
            # this one fails
            insts = list(instances(theory, name, samples, max_qubits, rng))
        results[name] = "sound" if all(map(kept, insts)) else "unsound"

    unsound = {k for k, v in results.items() if v == "unsound"}
    report = {"theory": theory, "axiom": axiom, "interpretation": kind,
              "bound": bound, "samples": samples, "seed": seed,
              "results": results, "pass": unsound == {axiom}}
    if psi is not None:
        report["psi"] = psi
        # psi-free instances must stay sound
        free = [instantiate((theory, "SPLUS"), rng.uniform(0.1, 3.0, 2), 0)
                for _ in range(samples)]
        report["psi_free_sound"] = all(map(kept, free))
        report["pass"] = report["pass"] and report["psi_free_sound"]
    return report


def minimality_matrix(theory: str = "QC", max_qubits: int = 5,
                      samples: int = 100, seed: int = 0,
                      target_n: int = 4) -> dict:
    """One report per axiom of the theory; PASS iff every row passes."""
    rows = {}
    ok = True
    for rid in list_rules(theory):
        try:
            rep = minimality_report(theory, rid.name, max_qubits=max_qubits,
                                    samples=samples, seed=seed,
                                    target_n=target_n)
        except NoInterpretation:
            continue
        rows[rid.name] = {"interpretation": rep["interpretation"],
                          "results": rep["results"], "pass": rep["pass"]}
        ok = ok and rep["pass"]
    return {"theory": theory, "samples": samples, "seed": seed,
            "rows": rows, "pass": ok}
