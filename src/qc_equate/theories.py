"""Equational theory catalogs and derived-equation schemas.

Four theories are provided:

    QC        -- S2PI SPLUS H2 P0 C B CZ EH E I(n>=3)
    QCprime   -- QC with {EH, E} replaced by {PPLUS, EPRIME}
    QCugp     -- QC up to global phases (no S2PI/SPLUS, every cited rule
                 stripped of GPHASE gates, equality up to phase)
    QCancilla -- S2PI H2 AP A ACX FIVE_CX C B CZ P0 EH E

plus a catalog of derived-equation schemas (lemmas) and definitional
rewrites (macro unfoldings).  ``resolve_rule`` is the one way to build an
instance: what a step in a theory may cite, under that theory's id.  Each
rule's two sides are built, threaded and compiled once per theory and
width, with placeholder angles, and an instance builds the gates that
carry an angle at the positions compiled with the side
(``Circuit.with_angles``); a rule without parameters has one instance per
theory and width.  The most recently requested shapes are kept, up to
``_SHAPES_KEPT``.  Every request, a rewrite step's included, runs the
same checks (``_resolve``), which give the rule's shape and its angle map
without building the sides.  ``equal_in`` is each theory's equality, and
``check_soundness`` validates any instance numerically; nothing is
assumed.

``verify_theory`` draws each rule's parameters in chunks (``_draws``, the
one sampling loop, which ``instances`` shares), an array of rows, and
checks a chunk without building its instances: one request for the chunk
and one call of the angle map, each parameter a column of the chunk's
draws (``_batch``, which ``interp.minimality_report``'s SPLUS psi-free
check shares), each side evaluated once for the chunk, its
instances on a trailing batch axis (``semantics._evaluate``;
``Circuit._batched`` checks the angles as building the gates would), and
one ``equal_in`` call over the batch.  No Python loop runs over a chunk's
rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import (_MAX_WIRES, Circuit, Gate, _check_tol, _controls_phase, _real, _wire,
                      circuit, cnot, dest, gphase, h, init, mcp, mcrx, p, rx, swap,
                      unfold, x, z)
from .errors import (BadArity, BadParams, InvalidCircuit, UnknownLemma,
                     UnknownTheory)
from .euler import _e_angles, _eprime_angles
from .semantics import _evaluate, equal_matrices, equal_up_to_phase, eval_matrix

THEORIES = ("QC", "QCprime", "QCugp", "QCancilla")

PI = math.pi


@dataclass(frozen=True)
class RuleId:
    theory: str
    name: str

    def __str__(self):
        return f"{self.theory}:{self.name}"

    @property
    def kind(self) -> str:
        """What the rule is in its theory: "axiom", "definition" or "lemma"."""
        return _kind(self.theory, self.name)


@dataclass(frozen=True)
class RuleInstance:
    """A named equation instantiated to two concrete circuits of equal arity."""

    id: RuleId
    params: tuple[float, ...]
    n: int
    lhs: Circuit
    rhs: Circuit

    @property
    def kind(self) -> str:
        return self.id.kind


def _czexp(a: int, b: int, sign: float = 1.0) -> list[Gate]:
    """The two-CNOT controlled-phase decomposition (the CZ rule's RHS, phi=pi)."""
    s = sign * PI / 2.0
    return [p(s, a), p(s, b), cnot(a, b), p(-s, b), cnot(a, b)]


# -- rule builders: build(n) -> (lhs, rhs, angles) -----------------------------
#
# A rule is built once per theory and width.  A rule without parameters
# gives its two sides as they are and no angle map.  A rule with parameters
# gives their shapes, every angle the placeholder ``_A``, and its angle map:
# params -> (lhs angles, rhs angles), one per gate that carries an angle,
# in gate order.  An instance substitutes them (``Circuit.with_angles``); a
# rewrite step reads them beside the shape's plan and builds no source gate.
# A map takes floats, or one column of k draws per parameter (``_batch``),
# and gives a column for each angle that depends on them; an angle that
# does not stays a float (``_columns`` repeats it).

_A = 0.0


def _euler_angles(a1, a2, a3):
    return (a1, a2, a3), _e_angles(a1, a2, a3)


def _normal_form() -> Circuit:
    """The shape GPHASE P RX P that both Euler rules end in."""
    return circuit(1, [gphase(_A), p(_A, 0), rx(_A, 0), p(_A, 0)])


def _build_s2pi(n):
    return circuit(0, [gphase(2 * PI)]), circuit(0, []), None

def _build_splus(n):
    return (circuit(0, [gphase(_A), gphase(_A)]), circuit(0, [gphase(_A)]),
            lambda a, b: ((a, b), (a + b,)))

def _build_h2(n):
    return circuit(1, [h(0), h(0)]), circuit(1, []), None

def _build_p0(n):
    return circuit(1, [p(0.0, 0)]), circuit(1, []), None

def _build_c(n):
    return (circuit(2, [cnot(0, 1), p(_A, 0), cnot(0, 1)]), circuit(2, [p(_A, 0)]),
            lambda phi: ((phi,), (phi,)))

def _build_b(n):
    return (circuit(2, [cnot(0, 1), cnot(1, 0)]),
            circuit(2, [swap(0, 1), cnot(0, 1)]), None)

def _build_cz(n):
    return circuit(2, [h(1), cnot(0, 1), h(1)]), circuit(2, _czexp(0, 1)), None

def _build_eh(n):
    return (circuit(1, [h(0)]),
            circuit(1, [p(PI / 2, 0), rx(PI / 2, 0), p(PI / 2, 0)]), None)

def _build_e(n):
    return (circuit(1, [rx(_A, 0), p(_A, 0), rx(_A, 0)]), _normal_form(),
            _euler_angles)

def _build_i(n):
    return circuit(n, [mcp(2 * PI, tuple(range(n)))]), circuit(n, []), None

def _build_pplus(n):
    return (circuit(1, [p(_A, 0), p(_A, 0)]), circuit(1, [p(_A, 0)]),
            lambda a, b: ((a, b), (a + b,)))

def _build_eprime(n):
    return (circuit(1, [rx(_A, 0), h(0), rx(_A, 0)]), _normal_form(),
            lambda a1p, a3p: ((a1p, a3p), _eprime_angles(a1p, a3p)))

def _build_a(n):
    return Circuit(0, 0, (init(0), dest(0))), Circuit(0, 0, ()), None

def _build_ap(n):
    return (Circuit(0, 1, (init(0), p(_A, 0))), Circuit(0, 1, (init(0),)),
            lambda phi: ((phi,), ()))

def _build_acx(n):
    return Circuit(1, 2, (init(0), cnot(0, 1))), Circuit(1, 2, (init(0),)), None

def _build_5cx(n):
    return (circuit(3, [cnot(0, 1), cnot(1, 2), cnot(0, 1)]),
            circuit(3, [cnot(1, 2), cnot(0, 2)]), None)


# -- derived-equation schemas -------------------------------------------------

def _lem_p2pi(n):
    return circuit(1, [p(2 * PI, 0)]), circuit(1, []), None

def _lem_pminus(n):
    return (circuit(1, [x(0), p(_A, 0), x(0)]),
            circuit(1, [gphase(_A), p(_A, 0)]),
            lambda phi: ((phi,), (phi, -phi)))

def _lem_s0(n):
    return circuit(0, [gphase(0.0)]), circuit(0, []), None

def _lem_bprime(n):
    return (circuit(2, [cnot(0, 1), cnot(1, 0), cnot(0, 1)]),
            circuit(2, [swap(0, 1)]), None)

def _lem_cnot2(n):
    return circuit(2, [cnot(0, 1), cnot(0, 1)]), circuit(2, []), None

def _lem_pcommutcnot(n):
    return (circuit(2, [p(_A, 0), cnot(0, 1)]),
            circuit(2, [cnot(0, 1), p(_A, 0)]),
            lambda phi: ((phi,), (phi,)))

def _lem_pgadget(n):
    return (circuit(2, [cnot(0, 1), p(_A, 1), cnot(0, 1)]),
            circuit(2, [cnot(1, 0), p(_A, 0), cnot(1, 0)]),
            lambda phi: ((phi,), (phi,)))

def _lem_hhcnothh(n):
    return (circuit(2, [h(0), h(1), cnot(0, 1), h(0), h(1)]),
            circuit(2, [cnot(1, 0)]), None)

def _lem_cpminuspi(n):
    return circuit(2, _czexp(0, 1, sign=-1.0)), circuit(2, _czexp(0, 1)), None

def _lem_swap2(n):
    return circuit(2, [swap(0, 1), swap(0, 1)]), circuit(2, []), None

def _lem_swapp(n):
    return (circuit(2, [p(_A, 0), swap(0, 1)]),
            circuit(2, [swap(0, 1), p(_A, 1)]),
            lambda phi: ((phi,), (phi,)))

def _lem_swapcx(n):
    return (circuit(2, [cnot(0, 1), swap(0, 1)]),
            circuit(2, [swap(0, 1), cnot(1, 0)]), None)

def _lem_zzcx(n):
    return (circuit(2, [p(PI, 0), p(PI, 1), cnot(0, 1)]),
            circuit(2, [cnot(0, 1), p(PI, 1)]), None)

def _lem_czexp2(n):
    return circuit(2, _czexp(0, 1) + _czexp(0, 1)), circuit(2, []), None

def _lem_rxneg(n):
    return (circuit(1, [rx(_A, 0)]),
            circuit(1, [gphase(_A), rx(_A, 0)]),
            lambda theta: ((theta,), (PI, theta - 2 * PI)))

def _lem_rxflip(n):
    return (circuit(1, [rx(_A, 0)]),
            circuit(1, [gphase(_A), p(_A, 0), rx(_A, 0), p(_A, 0)]),
            lambda theta: ((theta,), (PI, PI, 2 * PI - theta, PI)))

def _lem_rxminus(n):
    return (circuit(1, [p(_A, 0), rx(_A, 0), p(_A, 0)]),
            circuit(1, [rx(_A, 0)]),
            lambda theta: ((PI, theta, PI), (-theta,)))

def _all(n):
    return tuple(range(n))

def _lem_mcpfold5cx(n):
    # lhs . rhs^-1 of the 5CX equation folds into a 2pi multi-control;
    # the gate-level fold is routine CNOT/phase bookkeeping
    return (circuit(3, [cnot(0, 1), cnot(1, 2), cnot(0, 1)]),
            circuit(3, [mcp(2 * PI, (0, 1, 2)), cnot(1, 2), cnot(0, 2)]), None)


def _lem_estar_n(n):
    if n == 1:
        return _build_e(n)
    w = _all(n)
    return (circuit(n, [mcrx(_A, w), mcp(_A, w), mcrx(_A, w)]),
            circuit(n, [_controls_phase(_A, w[:-1]), mcp(_A, w), mcrx(_A, w),
                        mcp(_A, w)]),
            _euler_angles)


# -- definitional rewrites (macro unfoldings, usable in any theory) ----------

def _definition(macro):
    """Builder for a macro's definition: the gate ``macro(phi, n)`` on the
    left, its one-level unfolding on the right.  Every unfolded angle is a
    fixed multiple of the macro's, which the unfolding at angle 1 shows."""
    def build(n):
        g = macro(1.0, n)
        lhs, rhs = circuit(n, [g]), circuit(n, unfold(g))
        if not g.params:
            return lhs, rhs, None
        factors = tuple(u.params[0] for u in rhs.gates if u.params)
        return lhs, rhs, lambda phi: ((phi,), tuple(f * phi for f in factors))
    return build


# -- the rule table: name -> (n_params, wires, build) --------------------------

class _AtLeast(NamedTuple):
    """The ``wires`` entry of an n-ary rule: defined from ``n`` wires on."""

    n: int


_RULES = {
    # axioms
    "S2PI":    (0, 0, _build_s2pi),
    "SPLUS":   (2, 0, _build_splus),
    "H2":      (0, 1, _build_h2),
    "P0":      (0, 1, _build_p0),
    "C":       (1, 2, _build_c),
    "B":       (0, 2, _build_b),
    "CZ":      (0, 2, _build_cz),
    "EH":      (0, 1, _build_eh),      # derived in QCprime/QCancilla'
    "E":       (3, 1, _build_e),
    "I":       (0, _AtLeast(3), _build_i),
    "PPLUS":   (2, 1, _build_pplus),   # derived in QC
    "EPRIME":  (2, 1, _build_eprime),
    "A":       (0, 0, _build_a),
    "AP":      (1, 1, _build_ap),
    "ACX":     (0, 2, _build_acx),
    "FIVE_CX": (0, 3, _build_5cx),
    # derived lemmas
    "P2PI":        (0, 1, _lem_p2pi),
    "PMINUS":      (1, 1, _lem_pminus),
    "S0":          (0, 0, _lem_s0),
    "BPRIME":      (0, 2, _lem_bprime),
    "CNOT2":       (0, 2, _lem_cnot2),
    "PCOMMUTCNOT": (1, 2, _lem_pcommutcnot),
    "PGADGET":     (1, 2, _lem_pgadget),
    "HHCNOTHH":    (0, 2, _lem_hhcnothh),
    "CPMINUSPI":   (0, 2, _lem_cpminuspi),
    "SWAP2":       (0, 2, _lem_swap2),
    "SWAPP":       (1, 2, _lem_swapp),
    "SWAPCX":      (0, 2, _lem_swapcx),
    "ZZCX":        (0, 2, _lem_zzcx),
    "CZEXP2":      (0, 2, _lem_czexp2),
    "RXNEG":       (1, 1, _lem_rxneg),
    "RXFLIP":      (1, 1, _lem_rxflip),
    "RXMINUS":     (1, 1, _lem_rxminus),
    "MCPFOLD5CX":  (0, 3, _lem_mcpfold5cx),
    "ESTAR_N":     (3, _AtLeast(1), _lem_estar_n),
    # macro definitions
    "RXDEF":   (1, 1, _definition(lambda phi, n: rx(phi, 0))),
    "ZDEF":    (0, 1, _definition(lambda phi, n: z(0))),
    "XDEF":    (0, 1, _definition(lambda phi, n: x(0))),
    "MCPDEF":  (1, _AtLeast(1), _definition(lambda phi, n: mcp(phi, _all(n)))),
    "MCRXDEF": (1, _AtLeast(1), _definition(lambda phi, n: mcrx(phi, _all(n)))),
}

_CATALOG = {
    "QC":        ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"),
    "QCprime":   ("S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "PPLUS", "EPRIME", "I"),
    "QCugp":     ("H2", "P0", "C", "B", "CZ", "EH", "E", "I"),
    "QCancilla": ("S2PI", "H2", "AP", "A", "ACX", "FIVE_CX", "C", "B", "CZ", "P0", "EH", "E"),
}

_AXIOMS = frozenset(name for names in _CATALOG.values() for name in names)
DEFINITIONAL = ("RXDEF", "ZDEF", "XDEF", "MCPDEF", "MCRXDEF")
# axioms of some theory that a shipped trace derives in another, where a
# step may cite them as lemmas
_LEMMAS = (frozenset(_RULES) - _AXIOMS - set(DEFINITIONAL)
           | {"PPLUS", "EH", "FIVE_CX", "E", "SPLUS", "I"})


def list_rules(theory: str) -> list[RuleId]:
    if theory not in _CATALOG:
        raise UnknownTheory(f"no theory {theory!r}; pick one of {THEORIES}")
    return [RuleId(theory, name) for name in _CATALOG[theory]]


class Signature(NamedTuple):
    """A catalog rule's parameter count, its fixed wire count (None for an
    n-ary rule) and the least wire count it is defined at."""

    n_params: int
    arity: int | None
    min_n: int


@functools.cache
def signature(name: str) -> Signature:
    if name not in _RULES:
        raise UnknownLemma(f"no rule named {name!r}")
    n_params, wires, _ = _RULES[name]
    if isinstance(wires, _AtLeast):
        return Signature(n_params, None, wires.n)
    return Signature(n_params, wires, wires)


@functools.cache
def _kind(theory: str, name: str) -> str:
    """What ``name`` is in ``theory``: an axiom if the theory lists it, one
    of the macro definitions, or else a lemma, checked but not an axiom."""
    if theory not in _CATALOG:
        raise UnknownTheory(f"no theory {theory!r}")
    if name in _CATALOG[theory]:
        return "axiom"
    if name in DEFINITIONAL:
        return "definition"
    if name in _LEMMAS:
        return "lemma"
    raise UnknownLemma(f"no rule named {name!r} in {theory}")


def resolve_rule(theory: str, name: str, params=(), n: int | None = None,
                 allow_lemmas: bool = False) -> RuleInstance:
    """The instance of ``name`` that a step in ``theory`` may cite, with the
    id ``RuleId(theory, name)``: one of the theory's axioms, a macro
    definition, or a lemma when ``allow_lemmas`` is set.

    Checks the parameters (finite real numbers, as many as the rule takes)
    and the wire count (an integer: the rule's fixed one when ``n`` is None,
    else at least the ``signature``'s ``min_n``).  QCugp cites every rule
    without global phases.  The sides are the rule's shape at that width,
    built once, with the angle map's angles for ``params`` substituted.
    """
    shape, params, angles = _resolve(theory, name, params, n, allow_lemmas)
    if angles is None:
        return shape
    lhs, rhs = angles(*params)
    return RuleInstance(shape.id, params, shape.n, shape.lhs.with_angles(lhs),
                        shape.rhs.with_angles(rhs))


def _resolve(theory: str, name: str, params, n: int | None, allow_lemmas: bool):
    """``resolve_rule``'s checks, without building the sides: the rule's
    shape instance (``_shape``), the checked params, and the rule's angle
    map, params -> (lhs angles, rhs angles), or None for a rule without
    parameters, whose shape is its instance.

    Every call runs every check, in this order, and the first that fails
    raises: the theory and the rule (``_kind``), then a lemma without
    ``allow_lemmas``; each param a real number, then all of them finite;
    the wire count an integer; the param count; the wire count against
    the rule's arity and the wire cap.  Only what the checked values alone
    decide is cached: the rule's kind and the last two checks with the
    shape (``_fitted``)."""
    if _kind(theory, name) == "lemma" and not allow_lemmas:
        raise UnknownLemma(f"{name} is not an axiom of {theory} "
                           "(derived lemmas need allow_lemmas)")
    params = tuple(v if type(v) is float else _real(v, f"{name} param") for v in params)
    if not all(map(math.isfinite, params)):
        raise InvalidCircuit(f"{name} params must be finite, got {params}")
    if n is not None:
        n = _wire(n, f"{name} wire count")
    shape, angles = _fitted(theory, name, n, len(params))
    return shape, params, angles


#: most rule shapes the request caches keep: several times the catalog's
#: working set (about 120 after every benchmark workload), so only a run of
#: requests at many distinct wire counts evicts
_SHAPES_KEPT = 512


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _fitted(theory: str, name: str, n: int | None, count: int):
    """``_shape`` of the rule at the wire count ``n`` (None for its fixed
    one) once ``count`` params and ``n`` fit its signature."""
    n_params, arity, min_n = signature(name)
    if count != n_params:
        raise BadParams(f"{name} takes {n_params} params, got {count}")
    if arity is None and (n is None or n < min_n):
        raise BadArity(f"{name} needs a wire count of at least {min_n}")
    if arity is not None and n not in (None, arity):
        raise BadArity(f"{name} is pinned at {arity} wires")
    if n is not None and n > _MAX_WIRES:
        raise BadArity(f"{name} needs a wire count of at most {_MAX_WIRES}")
    return _shape(theory, name, n if arity is None else arity)


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _shape(theory: str, name: str, n: int):
    """The rule's instance at width ``n``, with placeholder angles, and its
    angle map; a rule without parameters has no angle map, and this is its
    one instance.  QCugp's sides lose their GPHASE gates, and its angle map
    the angles of those."""
    lhs, rhs, angles = _RULES[name][2](n)
    if theory == "QCugp":
        if angles is not None:
            keep = [[g.kind != "GPHASE" for g in c.gates if g.params] for c in (lhs, rhs)]
            angles = functools.partial(_kept_angles, angles, keep)
        lhs, rhs = (Circuit(c.n_in, c.n_out, tuple(g for g in c.gates if g.kind != "GPHASE"))
                    for c in (lhs, rhs))
    return RuleInstance(RuleId(theory, name), (), lhs.n_in, lhs, rhs), angles


def _kept_angles(angles, keep, *params):
    """The angles ``angles`` maps ``params`` to, each side's kept ones."""
    return tuple(tuple(itertools.compress(a, k)) for a, k in zip(angles(*params), keep))


def equal_in(theory: str, a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether two circuit matrices, or batches of them, are equal in
    ``theory``: exactly, or up to a global phase per instance in QCugp."""
    return (equal_up_to_phase if theory == "QCugp" else equal_matrices)(a, b, tol)


def check_soundness(inst: RuleInstance, tol: float = 1e-9) -> bool:
    """Numerically compare both sides in the instance's theory."""
    _check_tol(tol)
    return equal_in(inst.id.theory, eval_matrix(inst.lhs), eval_matrix(inst.rhs), tol)


def lemma_names() -> list[str]:
    return sorted(_LEMMAS) + sorted(DEFINITIONAL)


# -- sampling / master soundness suite ---------------------------------------

def _checked_seed(seed) -> int:
    """``seed`` as a sampling run reads it: an int >= 0."""
    if (seed := _wire(seed, "seed")) < 0:
        raise BadParams(f"seed {seed} is negative")
    return seed


def sample_params(n_params: int, rng: np.random.Generator) -> tuple[float, ...]:
    return tuple(rng.uniform(-4 * PI, 4 * PI, n_params).tolist())


#: parameter draws per chunk: ``verify_theory`` evaluates a chunk's
#: instances of a rule side as one batch, so its memory is bounded by a
#: chunk whatever the sample count
_CHUNK = 128


def _widths(name: str, samples: int, max_qubits: int) -> tuple[range | tuple, int]:
    """The widths a sampling run checks ``name`` at, and its rows per
    width: ``samples`` rows, or one empty row for a rule without parameters
    (its instance is fixed), at the rule's own width, or at every width
    from its least one to ``max_qubits`` for an n-ary rule such as (I).
    Raises BadParams when that leaves the rule with no instance, so no
    report passes with nothing checked."""
    n_params, arity, min_n = signature(name)
    samples, max_qubits = _wire(samples, "samples"), _wire(max_qubits, "max_qubits")
    draws = samples if n_params else 1
    ns = range(min_n, max_qubits + 1) if arity is None else (arity,)
    if draws < 1 or not ns:
        raise BadParams(f"{name} gets no instance with samples={samples}, "
                        f"max_qubits={max_qubits}")
    return ns, draws


def _draws(name: str, samples: int, max_qubits: int, rng: np.random.Generator):
    """The one sampling loop: (width, parameter rows) at ``_widths``, in
    chunks of at most ``_CHUNK`` rows, each an array (rows, params).  A
    chunk is one ``rng.uniform`` call, which draws the numbers that one
    ``sample_params`` call per row would.
    """
    ns, draws = _widths(name, samples, max_qubits)
    n_params = signature(name).n_params
    for n in ns:
        for start in range(0, draws, _CHUNK):
            yield n, rng.uniform(-4 * PI, 4 * PI, (min(_CHUNK, draws - start), n_params))


def instances(theory: str, name: str, samples: int, max_qubits: int,
              rng: np.random.Generator):
    """Sampled instances of the axiom ``name`` of ``theory``, one per row
    that ``_draws`` gives."""
    for n, rows in _draws(name, samples, max_qubits, rng):
        for row in rows.tolist():
            yield resolve_rule(theory, name, row, n)


def _batch(theory: str, name: str, n: int, rows: np.ndarray):
    """The instances of the axiom ``name`` at width ``n`` with the parameter
    ``rows``, an array (k, params), as one request: the rule's shape and its
    angle map called once, each parameter a column of k values, each side's
    angles an array (slots, k), one column per row (``Circuit._batched``
    checks them); (None, None) for a rule without parameters, whose one
    row is its shape."""
    shape, _, angles = _resolve(theory, name, rows[0], n, False)
    if angles is None:
        return shape, (None, None)
    return shape, tuple(_columns(side, len(rows)) for side in angles(*rows.T))


def _columns(side, k: int) -> np.ndarray:
    """A side's mapped angles as an array (slots, k): a slot's column, or
    its constant angle in every column."""
    out = np.empty((len(side), k))
    for slot, a in enumerate(side):
        out[slot] = a
    return out


def _chunk_sound(theory: str, name: str, n: int, rows, tol: float) -> bool:
    """Whether every instance of ``name`` at width ``n`` with the parameter
    ``rows`` is sound: one request (``_batch``), each side evaluated once
    with its angles (``_evaluate``'s batch) and one ``equal_in``."""
    shape, angles = _batch(theory, name, n, rows)
    lhs, rhs = map(_evaluate, (shape.lhs, shape.rhs), angles)
    return equal_in(theory, lhs, rhs, tol)


def verify_theory(theory: str, samples: int = 100, max_qubits: int = 6,
                  tol: float = 1e-9, seed: int = 0) -> dict:
    """Check every axiom of a theory on its sampled instances (``_draws``).

    A parametrised rule is checked ``samples`` times; a rule without
    parameters has one fixed instance, checked once per width.  The
    instances of one chunk are evaluated as one batch per side and compared
    in one ``equal_in`` call.  Returns {rule name: {"checks": int, "ok":
    bool}} plus an "ok" summary key.
    """
    _check_tol(tol)
    rng = np.random.default_rng(_checked_seed(seed))
    report: dict = {"theory": theory, "tol": tol, "rules": {}, "ok": True}
    for rid in list_rules(theory):
        checks, ok = 0, True
        for n, rows in _draws(rid.name, samples, max_qubits, rng):
            ok = _chunk_sound(theory, rid.name, n, rows, tol) and ok
            checks += len(rows)
        report["rules"][rid.name] = {"checks": checks, "ok": ok}
        report["ok"] = report["ok"] and ok
    return report
