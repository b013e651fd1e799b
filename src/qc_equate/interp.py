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

import numpy as np

from .circuit import TWO_PI, Circuit, angles_equal, circuit, expand_macros
from .errors import (InconsistentClasses, NoInterpretation, UnknownTheory,
                     UnsupportedGate)
from .euler import b_funcs
from .semantics import eval_matrix
from .theories import (RuleInstance, instantiate, list_rules, rule_signature,
                       sample_params)

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

    # union-find with parity: parity 1 means opposite sign to the root
    parent = {i: i for i in pos}
    parity = {i: 0 for i in pos}

    def find(i):
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        root, par = i, 0
        for j in reversed(path):
            par ^= parity[j]
            parent[j], parity[j] = root, par
        return root

    def rel_parity(i):
        find(i)
        return parity[i] if parent[i] != i else 0

    def union(i, j, par):
        ri, rj = find(i), find(j)
        pi = 0 if parent[i] == i else parity[i]
        pj = 0 if parent[j] == j else parity[j]
        if ri == rj:
            if (pi ^ pj) != par:
                raise InconsistentClasses("sign relation closure is contradictory")
            return
        parent[rj] = ri
        parity[rj] = pi ^ pj ^ par

    for a_idx in range(len(pos)):
        for b_idx in range(a_idx + 1, len(pos)):
            i, j = pos[a_idx], pos[b_idx]
            mid = np.eye(2, dtype=complex)
            for t in range(i + 1, j):
                mid = mats[t] @ mid
            off = max(abs(mid[0, 1]), abs(mid[1, 0]))
            diag = max(abs(mid[0, 0]), abs(mid[1, 1]))
            if off < 1e-10:
                union(i, j, 0)       # diagonal middle: same sign
            elif diag < 1e-10:
                union(i, j, 1)       # anti-diagonal middle: opposite signs

    groups: dict[tuple[int, int], list[int]] = {}
    for i in pos:
        key = (find(i), rel_parity(i))
        groups.setdefault(key, []).append(i)
    classes = [tuple(sorted(v)) for _, v in sorted(groups.items())]
    index_of = {cls: n for n, cls in enumerate(classes)}
    pairing = []
    roots = {}
    for key, members in sorted(groups.items()):
        root, par = key
        cls_idx = index_of[tuple(sorted(members))]
        if root in roots:
            pairing.append((roots[root], cls_idx))
        else:
            roots[root] = cls_idx
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
    out = set()
    for v in values:
        r = v % HALF_PI
        if r > HALF_PI - 1e-9 or r < 0:
            r = 0.0
        out.add(round(r, 9))
    return tuple(sorted(out))


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

def _instance_values(name: str, inst: RuleInstance, psi=None):
    return (interp_axiom(name, inst.lhs, psi), interp_axiom(name, inst.rhs, psi))


def _axiom_instances(theory: str, name: str, samples: int, max_qubits: int,
                     rng: np.random.Generator):
    n_params, arity = rule_signature(name)
    draws = samples if n_params else 1
    ns = range(3, max_qubits + 1) if name == "I" else (arity,)
    for n in ns:
        for _ in range(draws):
            yield instantiate((theory, name), sample_params(n_params, rng), n)


def minimality_report(theory: str, axiom: str, max_qubits: int = 5,
                      samples: int = 100, seed: int = 0,
                      target_n: int = 4) -> dict:
    """Check that exactly the target axiom breaks its counter-interpretation.

    For (I) the interpretation is interp_k at k = target_n - 1; for (E) it
    is the sign-assignment value set; the remaining eight axioms use their
    registered interpretations.  Axioms acting on more qubits than the
    interpretation's soundness bound are out of scope.
    """
    rng = np.random.default_rng(seed)
    if axiom not in {r.name for r in list_rules(theory)}:
        raise UnknownTheory(f"{axiom} is not an axiom of {theory}")
    if axiom not in INTERP_BOUND and axiom not in ("E", "I"):
        raise NoInterpretation(f"no counter-interpretation registered for {axiom}")
    results: dict[str, str] = {}
    psi = None

    if axiom == "I":
        bound = target_n - 1
        kind = f"interp_k(k={bound})"
    elif axiom == "E":
        bound = 1
        kind = "sign-assignment value set"
    else:
        bound = INTERP_BOUND[axiom]
        witness = _THEORY_WITNESS.get((theory, axiom), axiom)
        kind = f"interp[{witness}]"
        if axiom == "SPLUS":
            psi = float(rng.uniform(0.1, TWO_PI - 0.1))

    for rid in list_rules(theory):
        name = rid.name
        n_params, arity = rule_signature(name)
        max_arity = max_qubits if name == "I" else arity
        if axiom == "I" and name == "I":
            max_arity = target_n
        if bound is not None and max_arity > bound and name != axiom:
            results[name] = "out-of-scope"
            continue
        sound = True
        if name == "I" and axiom == "I":
            insts = [instantiate((theory, "I"), (), target_n)]
        elif name == "SPLUS" and axiom == "SPLUS":
            # the psi-carrying instances are the unsound ones
            insts = [instantiate((theory, "SPLUS"),
                                 (psi, float(rng.uniform(0.2, 3.0))), 0)
                     for _ in range(3)]
        else:
            insts = list(_axiom_instances(theory, name, samples,
                                          min(max_qubits, bound or max_qubits),
                                          rng))
        for inst in insts:
            if axiom == "I":
                va = interp_k(inst.lhs, bound)
                vb = interp_k(inst.rhs, bound)
                ok = _values_equal(va, vb)
            elif axiom == "E":
                ok = equal_value_sets(interp_E_values(inst.lhs),
                                      interp_E_values(inst.rhs))
            else:
                va, vb = _instance_values(witness, inst, psi)
                ok = _values_equal(va, vb)
            if not ok:
                sound = False
                break
        results[name] = "sound" if sound else "unsound"

    unsound = {k for k, v in results.items() if v == "unsound"}
    report = {"theory": theory, "axiom": axiom, "interpretation": kind,
              "bound": bound, "samples": samples, "seed": seed,
              "results": results, "pass": unsound == {axiom}}
    if psi is not None:
        report["psi"] = psi
        # psi-free instances must stay sound
        free_ok = True
        for _ in range(samples):
            a, b = rng.uniform(0.1, 3.0, 2)
            inst = instantiate((theory, "SPLUS"), (float(a), float(b)), 0)
            va, vb = _instance_values("SPLUS", inst, psi)
            if not _values_equal(va, vb):
                free_ok = False
        report["psi_free_sound"] = free_ok
        report["pass"] = report["pass"] and free_ok
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
