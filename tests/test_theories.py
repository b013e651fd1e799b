"""Rule catalogs, instantiation, and the master soundness suite."""

import gc
import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import qc_equate
from qc_equate import (THEORIES, Circuit, RuleId, RuleInstance, check_soundness,
                       circuit, cnot, eval_matrix, gphase, list_rules,
                       minimality_report, resolve_rule, swap, verify_theory)
from qc_equate.errors import (BadArity, BadParams, InvalidCircuit, QcError,
                              UnknownLemma, UnknownTheory)
from qc_equate import interp, semantics, theories
from qc_equate.circuit import angles_equal
from qc_equate.theories import _RULES, instances, sample_params, signature

PI = math.pi
TWO_PI = 2 * PI


def test_catalogs():
    qc = [r.name for r in list_rules("QC")]
    assert qc == ["S2PI", "SPLUS", "H2", "P0", "C", "B", "CZ", "EH", "E", "I"]
    assert len(qc) == 10
    qcp = [r.name for r in list_rules("QCprime")]
    assert "EH" not in qcp and "E" not in qcp
    assert "PPLUS" in qcp and "EPRIME" in qcp
    anc = [r.name for r in list_rules("QCancilla")]
    assert "FIVE_CX" in anc and "SPLUS" not in anc
    ugp = [r.name for r in list_rules("QCugp")]
    assert "S2PI" not in ugp and "SPLUS" not in ugp
    with pytest.raises(UnknownTheory):
        list_rules("QCold")


def test_instantiate_validation():
    with pytest.raises(BadParams):
        resolve_rule("QC", "E", (0.1,), 1)
    with pytest.raises(BadArity):
        resolve_rule("QC", "I", (), 2)
    # a fixed-width rule takes no other width
    with pytest.raises(BadArity):
        resolve_rule("QC", "H2", (), 2)
    # nor a width no list can index
    with pytest.raises(BadArity):
        resolve_rule("QC", "I", (), 2**70)
    with pytest.raises(UnknownLemma):
        signature("NOPE")
    # (EH) is a lemma of QCprime: citable only with allow_lemmas
    with pytest.raises(UnknownLemma):
        resolve_rule("QCprime", "EH", (), 1)
    # a parameter-free fixed-width rule is built once per theory, but every
    # input check still runs before it is served
    assert resolve_rule("QC", "H2") is resolve_rule("QC", "H2", (), 1)
    with pytest.raises(InvalidCircuit):
        resolve_rule("QC", "H2", (), 1.0)
    assert resolve_rule("QCprime", "EH", (), 1, True).kind == "lemma"
    with pytest.raises(UnknownLemma):
        resolve_rule("QCprime", "EH", (), 1)
    qc_s0, ugp_s0 = (resolve_rule(t, "S0", (), None, True) for t in ("QC", "QCugp"))
    assert qc_s0.lhs.gates == (gphase(0.0),) and ugp_s0.lhs.gates == ()
    assert (qc_s0.id.theory, ugp_s0.id.theory) == ("QC", "QCugp")
    # parameters must be real numbers: "7" is not C(7), true is not C(1.0)
    # and wire counts, sample counts and widths integers: 3.0 is not 3
    for run in (lambda: resolve_rule("QC", "C", ("7",)),
                lambda: resolve_rule("QC", "C", (True,)),
                lambda: resolve_rule("QC", "PPLUS", ("1", "2"), None, True),
                lambda: resolve_rule("QC", "I", (), 3.0),
                lambda: resolve_rule("QC", "MCPDEF", (0.1,), 2.0, True),
                lambda: resolve_rule("QC", "ESTAR_N", (0.4, 1.2, -0.9), "2", True),
                lambda: minimality_report("QC", "I", target_n=4.0),
                lambda: verify_theory("QC", samples=2.5),
                lambda: verify_theory("QC", samples=3, max_qubits=4.0)):
        with pytest.raises(QcError):
            run()


def test_i_rule_shape():
    inst = resolve_rule("QC", "I", (), 3)
    assert inst.lhs.gates[0].kind == "MCP" and len(inst.rhs.gates) == 0
    assert check_soundness(inst, 1e-9)


def test_e_rule_uses_euler_angles():
    phi = 1.9
    inst = resolve_rule("QC", "E", (0.0, phi, 0.0), 1)
    betas = [g.params[0] for g in inst.rhs.gates]
    assert np.allclose(betas, [0.0, phi, 0.0, 0.0])


def test_c_rule_semantics_oracle():
    phi = 0.8
    inst = resolve_rule("QC", "C", (phi,), 2)
    want = np.diag([1, 1, np.exp(1j * phi), np.exp(1j * phi)])
    assert np.max(np.abs(eval_matrix(inst.lhs) - want)) < 1e-12
    assert np.max(np.abs(eval_matrix(inst.rhs) - want)) < 1e-12


def test_corrupted_b_instance_fails():
    good = resolve_rule("QC", "B", (), 2)
    assert check_soundness(good, 1e-9)
    bad = RuleInstance(RuleId("QC", "B"), (), 2, good.lhs,
                       circuit(2, [cnot(0, 1), swap(0, 1)]))
    assert not check_soundness(bad, 1e-9)


def test_master_soundness_all_theories():
    for theory in ("QC", "QCprime", "QCugp", "QCancilla"):
        report = verify_theory(theory, samples=40, max_qubits=5, seed=3)
        assert report["ok"], report


def test_verify_theory_checks_per_rule_kind():
    # a fixed instance once per width, (I) at widths 3..max_qubits, and
    # one check per parameter draw for a parametrised rule
    report = verify_theory("QC", samples=7, max_qubits=5, seed=1)
    assert {name: r["checks"] for name, r in report["rules"].items()} == {
        "S2PI": 1, "SPLUS": 7, "H2": 1, "P0": 1, "C": 7, "B": 1, "CZ": 1,
        "EH": 1, "E": 7, "I": 3}


def _reference_report(theory, samples, max_qubits, tol, seed):
    """``verify_theory``'s report, one built instance at a time: its own
    seeded rng, ``sample_params``, ``resolve_rule`` and ``check_soundness``."""
    rng = np.random.default_rng(seed)
    report = {"theory": theory, "tol": tol, "rules": {}, "ok": True}
    for rid in list_rules(theory):
        n_params, arity, min_n = signature(rid.name)
        ns = range(min_n, max_qubits + 1) if arity is None else (arity,)
        oks = [check_soundness(resolve_rule(theory, rid.name, sample_params(n_params, rng), n),
                               tol)
               for n in ns for _ in range(samples if n_params else 1)]
        report["rules"][rid.name] = {"checks": len(oks), "ok": all(oks)}
        report["ok"] = report["ok"] and all(oks)
    return report


def test_check_soundness_agrees_with_the_chunk_check_row_by_row():
    # check_soundness is the one-instance form of verify_theory's check:
    # on every axiom's draws, one built instance at a time, it decides
    # each row as _chunk_sound does on that row alone
    rng = np.random.default_rng(36)
    rows_seen = 0
    for theory in THEORIES:
        for rid in list_rules(theory):
            for n, rows in theories._draws(rid.name, 8, 4, rng):
                for row in rows:
                    one = check_soundness(resolve_rule(theory, rid.name, row.tolist(), n), 1e-9)
                    chunk = theories._chunk_sound(theory, rid.name, n, row[None], 1e-9)
                    assert one == chunk, (theory, rid.name, n, row)
                    rows_seen += 1
    assert rows_seen > 120


def _clear_shapes():
    for cached in (theories._shape, theories._fitted, theories._kind, interp._forms,
                   interp._angle_free_row):
        cached.cache_clear()


@pytest.fixture
def fresh_shapes():
    """Rule shapes and the request caches built anew after the test."""
    yield
    _clear_shapes()


def _route_angle_maps(monkeypatch, hook):
    """Route every rule's angle map through ``hook(name, params, angles, k)``
    one parameter row at a time, whose return the map returns for that row:
    ``params`` are the row's floats, ``angles`` what the map returns for
    them today, and ``k`` counts the rows per rule shape.  A map called with
    columns, one per parameter, is called once; its angles are split into
    rows for the hook and the hook's rows stacked back into columns."""
    for name, (n_params, wires, build) in list(_RULES.items()):
        def patched(n, name=name, build=build):
            lhs, rhs, angles = build(n)
            if angles is None:
                return lhs, rhs, None
            calls = itertools.count()

            def routed(*params):
                if not isinstance(params[0], np.ndarray):
                    return hook(name, params, angles(*params), next(calls))
                k = len(params[0])
                cols = [[np.broadcast_to(a, k).tolist() for a in side] for side in angles(*params)]
                hooked = [hook(name, tuple(row), tuple(tuple(a[i] for a in side) for side in cols),
                               next(calls))
                          for i, row in enumerate(np.array(params).T.tolist())]
                return tuple(tuple(map(np.array, zip(*side))) for side in zip(*hooked))
            return lhs, rhs, routed
        monkeypatch.setitem(_RULES, name, (n_params, wires, patched))
    _clear_shapes()


def test_verify_theory_equals_a_per_instance_reference(monkeypatch, fresh_shapes):
    # the same parameter draws, rule by rule, and the same report; 150
    # samples make a full chunk and a part one
    drawn = []
    _route_angle_maps(monkeypatch, lambda name, params, angles, k:
                      drawn.append((name, params)) or angles)
    for theory in THEORIES:
        for seed in (0, 7):
            report = verify_theory(theory, samples=150, max_qubits=4, seed=seed)
            batched, drawn[:] = drawn[:], []
            assert report == _reference_report(theory, 150, 4, 1e-9, seed), (theory, seed)
            assert drawn == batched, (theory, seed)
            drawn.clear()
    # one wrong row in a chunk fails its rule, which keeps its check count
    monkeypatch.undo()
    _route_angle_maps(monkeypatch, lambda name, params, angles, k:
                      (angles[0], (angles[1][0] + 0.5,)) if (name, k) == ("C", 37) else angles)
    report = verify_theory("QC", samples=150, max_qubits=4)
    assert report["rules"]["C"] == {"checks": 150, "ok": False}
    assert not report["ok"]
    assert all(r["ok"] for name, r in report["rules"].items() if name != "C")
    # a non-finite angle in one row raises what building its gate raises
    monkeypatch.undo()
    _route_angle_maps(monkeypatch, lambda name, params, angles, k:
                      (angles[0], (math.inf,) + angles[1][1:])
                      if name == "E" and k in (0, 37) else angles)
    with pytest.raises(InvalidCircuit) as built:
        resolve_rule("QC", "E", (0.1, 0.2, 0.3))       # the map's call 0
    with pytest.raises(InvalidCircuit) as checked:
        verify_theory("QC", samples=150, max_qubits=4)   # its call 37
    assert str(checked.value) == str(built.value) == "non-finite angle in GPHASE"


#: parameter rows on the Euler cases: (E)'s z' = 0, z = 0, and b2 next
#: to 0 and to pi (the boundary fix), then (E')'s in the same order
_EULER_EDGES = {3: [(0.0, 1.1, 0.0), (TWO_PI, 0.8, -TWO_PI), (PI, PI, 0.0),
                    (0.3, 0.0, -0.3 + 1e-9), (1.0, 0.0, PI - 1.0 + 1e-9)],
                2: [(PI / 2, PI / 2), (PI / 2, -PI / 2), (PI / 2 + 2e-9, PI / 2),
                    (PI / 2 + 2e-9, -PI / 2)]}


def test_column_angle_maps_equal_the_float_maps():
    # every parametrised axiom of the four theories, its angle map called
    # once with columns and once per row with floats: equal modulo 2pi to
    # 1e-14, as numpy's trig, arctan2 and hypot may differ from math's and
    # cmath's in the last bit
    from qc_equate.euler import GENERIC, euler_e, euler_eprime
    rng = np.random.default_rng(34)
    seen = set()
    for theory in THEORIES:
        for rid in list_rules(theory):
            n_params, arity, _ = signature(rid.name)
            if not n_params:
                continue
            rows = rng.uniform(-4 * PI, 4 * PI, (200, n_params)).tolist()
            rows += _EULER_EDGES.get(n_params, [])
            shape, _, angles = theories._resolve(theory, rid.name, rows[0], arity, False)
            columns = angles(*np.array(rows).T)
            for i, row in enumerate(rows):
                for got, want in zip(columns, angles(*row)):
                    assert len(got) == len(want), (theory, rid.name)
                    for a, b in zip(got, want):
                        assert angles_equal(np.broadcast_to(a, len(rows))[i], b, TWO_PI, 1e-14), \
                            (theory, rid.name, row)
                if rid.name in ("E", "EPRIME"):
                    nf, case = (euler_e if rid.name == "E" else euler_eprime)(*row)
                    seen.add(case.tag if case.tag != GENERIC or nf.beta2 not in (0.0, PI)
                             else f"b2 = {nf.beta2}")
    assert seen == {"GENERIC", "Z_ZERO", "ZPRIME_ZERO", "b2 = 0.0", f"b2 = {PI}"}


def test_verify_theory_evaluates_each_side_once_per_chunk(monkeypatch):
    calls = []
    evaluate = semantics._evaluate

    def counted(c, angles=None):
        calls.append(1 if angles is None else angles.shape[1])
        return evaluate(c, angles)
    for module in (semantics, theories):
        monkeypatch.setattr(module, "_evaluate", counted)
    report = verify_theory("QC", samples=100, max_qubits=5)
    chunks = 0
    for rid in list_rules("QC"):
        n_params, arity, min_n = signature(rid.name)
        widths = 1 if arity is not None else 5 - min_n + 1
        chunks += widths * (math.ceil(100 / theories._CHUNK) if n_params else 1)
    assert len(calls) == 2 * chunks
    # every instance is evaluated, once per side
    assert sum(calls) == 2 * sum(r["checks"] for r in report["rules"].values())


@pytest.fixture
def full_free_lists():
    """A function that fills CPython's free lists: it makes and drops more
    tuples of each length below 20 (2000 a length), lists, dicts and floats
    than CPython keeps free.  A full collection after the test empties them
    again."""
    def fill():
        junk = [tuple(range(i, i + n)) for n in range(1, 20) for i in range(2100)]
        junk += [[i] for i in range(200)] + [{i: i} for i in range(200)]
        junk += [i + 0.5 for i in range(200)]
        del junk
    yield fill
    gc.collect()


def test_verify_theory_memory_does_not_grow_with_samples(full_free_lists):
    # peaks at steady state: an untraced run first does the one-time work,
    # and the free lists are full before each traced run, which so takes
    # its tuples, lists, dicts and floats from them and gives them back; an
    # object it allocated and freed would stay in a free list, counted as
    # held, and a longer run frees more of them.  No collection runs while
    # tracing, as a full one empties the free lists.
    verify_theory("QC", samples=4000, max_qubits=3)
    peaks = {}
    gc.disable()
    try:
        for samples in (500, 4000):
            full_free_lists()
            tracemalloc.start()
            try:
                verify_theory("QC", samples=samples, max_qubits=3, seed=1)
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    finally:
        gc.enable()
    assert peaks[4000] <= peaks[500] + 4096, peaks


def test_request_caches_are_bounded(fresh_shapes):
    # 30 requests at distinct wide wire counts fill the rule-shape caches
    # with wide sides, and as many narrow requests as the caches keep
    # evict every one of them
    narrow = [(t, name, n, (0.1,) * signature(name).n_params)
              for t in THEORIES for name in ("MCPDEF", "MCRXDEF", "ESTAR_N", "I")
              for n in range(3, 35)]
    assert len(narrow) == theories._SHAPES_KEPT

    def request_narrow():
        for t, name, n, params in narrow:
            resolve_rule(t, name, params, n, True)

    def request_wide():
        for n in range(1000, 1030):
            resolve_rule("QC", "MCRXDEF", (0.1,), n, True)

    _clear_shapes()
    tracemalloc.start()   # before the narrow sides are built, so their rebuilds count as even
    try:
        # base is read, as after is, once narrow sides are rebuilt after a
        # wide eviction: the rebuilds find CPython's free lists in the same
        # state whatever an earlier test left in them
        request_narrow()
        request_wide()
        request_narrow()
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        request_wide()
        wide = tracemalloc.get_traced_memory()[0]
        request_narrow()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert wide - base > 2_000_000, (base, wide)
    assert after - base < 200_000, (base, wide, after)
    for cached in (theories._shape, theories._fitted):
        assert cached.cache_info().currsize == theories._SHAPES_KEPT


def test_angle_free_rows_are_bounded(fresh_shapes):
    # one row per theory, rule, width and witness: a sweep of more distinct
    # (I) widths than the row cache keeps fills it and goes no further
    witnesses = ("S2PI", "H2", "P0", "P0'", "C", "EH", "B", "CZ")
    rows = [(t, "I", n, w) for t in ("QC", "QCprime", "QCugp") for w in witnesses
            for n in range(3, 25)]
    assert len(rows) > interp._SHAPES_KEPT == theories._SHAPES_KEPT
    _clear_shapes()
    for row in rows:
        assert interp._angle_free_row(*row) in ("sound", "unsound")
    assert interp._angle_free_row.cache_info().currsize == theories._SHAPES_KEPT


def test_i_rule_sound_but_not_axiomatic_below_three():
    # sound on 1 and 2 wires even though the catalog starts at n = 3
    for n in (1, 2):
        from qc_equate import mcp
        lhs = circuit(n, [mcp(2 * PI, tuple(range(n)))])
        assert np.max(np.abs(eval_matrix(lhs) - np.eye(2 ** n))) < 1e-9
        with pytest.raises(BadArity):
            resolve_rule("QC", "I", (), n)
    assert signature("I") == (0, None, 3)


def test_qcugp_circuits_are_phase_free():
    rng = np.random.default_rng(5)
    for rid in list_rules("QCugp"):
        n_params, _, n = signature(rid.name)
        inst = resolve_rule("QCugp", rid.name, tuple(rng.uniform(0, 6, n_params)), n)
        assert all(g.kind != "GPHASE" for g in inst.lhs.gates + inst.rhs.gates)
        assert check_soundness(inst, 1e-9)


def test_lemma_catalog_all_sound():
    # every rule each theory may cite, lemmas and definitions included, at
    # widths up to 5 for n-ary rules: an instance is its rule's shape with
    # the angles substituted, so the same gates and threading as the
    # circuit the constructor builds from them, and it is sound (QCugp's
    # phase-stripped sides up to a global phase)
    rng = np.random.default_rng(6)
    for theory in THEORIES:
        for name in _RULES:
            try:
                RuleId(theory, name).kind
            except UnknownLemma:
                continue
            n_params, arity, min_n = signature(name)
            for n in (arity,) if arity is not None else range(min_n, 6):
                for _ in range(4 if n_params else 1):
                    params = tuple(rng.uniform(-4 * PI, 4 * PI, n_params))
                    inst = resolve_rule(theory, name, params, n, True)
                    for side in (inst.lhs, inst.rhs):
                        again = Circuit(side.n_in, side.n_out, side.gates)
                        assert side.gates == again.gates
                        assert side.threading == again.threading, (name, n)
                    assert check_soundness(inst, 1e-9), (theory, name, params, n)


def test_instances_carry_theory_and_kind():
    inst = resolve_rule("QCugp", "RXDEF", (0.4,), None, True)
    assert inst.id == RuleId("QCugp", "RXDEF") and inst.kind == "definition"
    assert all(g.kind != "GPHASE" for g in inst.rhs.gates)
    assert check_soundness(inst, 1e-9)
    qc = resolve_rule("QC", "PPLUS", (0.3, 0.4), None, True)
    assert qc.id == RuleId("QC", "PPLUS") and qc.kind == "lemma"
    qcp = resolve_rule("QCprime", "PPLUS", (0.3, 0.4))
    assert qcp.id == RuleId("QCprime", "PPLUS") and qcp.kind == "axiom"
    # the same sides in both theories
    assert (qc.lhs, qc.rhs) == (qcp.lhs, qcp.rhs)
    # FIVE_CX is an axiom of QCancilla and a lemma elsewhere
    assert resolve_rule("QCancilla", "FIVE_CX").kind == "axiom"
    assert resolve_rule("QC", "FIVE_CX", (), None, True).kind == "lemma"
    # an axiom of another theory that is no lemma is not citable
    for theory, name in (("QC", "EPRIME"), ("QC", "ACX"), ("QCugp", "S2PI")):
        with pytest.raises(UnknownLemma):
            resolve_rule(theory, name, (0.0,) * signature(name)[0], None, True)


def test_axioms_derived_elsewhere_are_lemmas():
    # the shipped traces derive (E) in QCprime and (S+), (I) in QCancilla
    for theory, name, params, n in (("QCprime", "E", (0.9, 1.7, -0.6), None),
                                    ("QCancilla", "SPLUS", (0.7, 1.1), None),
                                    ("QCancilla", "I", (), 3)):
        inst = resolve_rule(theory, name, params, n, True)
        assert inst.id == RuleId(theory, name) and inst.kind == "lemma"
        assert check_soundness(inst, 1e-9)
        with pytest.raises(UnknownLemma):
            resolve_rule(theory, name, params, n)


def test_public_names_resolve_once():
    # `from qc_equate import *` must not name anything that is gone
    assert len(set(qc_equate.__all__)) == len(qc_equate.__all__)
    for name in qc_equate.__all__:
        assert hasattr(qc_equate, name), name


def test_no_two_rules_share_a_builder():
    builders = [build for _, _, build in _RULES.values()]
    assert len(set(builders)) == len(builders)


def test_drawing_instances_threads_nothing_once_the_shape_exists(monkeypatch):
    circuit_module = importlib.import_module("qc_equate.circuit")
    threaded = []
    thread = circuit_module.thread
    rng = np.random.default_rng(13)
    for theory in THEORIES:
        for rid in list_rules(theory):
            if signature(rid.name).n_params:
                next(instances(theory, rid.name, 1, 4, rng))
                monkeypatch.setattr(circuit_module, "thread",
                                    lambda c: threaded.append(c) or thread(c))
                drawn = list(instances(theory, rid.name, 50, 4, rng))
                monkeypatch.setattr(circuit_module, "thread", thread)
                assert len(drawn) == 50 and threaded == [], (theory, rid.name)


def test_non_finite_or_overflowing_params_raise():
    for params in ((0.1, 0.2, math.inf), (math.nan, 0.2, 0.3), (0.1, -math.inf, 0.3)):
        with pytest.raises(InvalidCircuit):
            resolve_rule("QC", "E", params)
    # finite params whose sum overflows: the gate constructor's angle check
    with pytest.raises(InvalidCircuit):
        resolve_rule("QC", "SPLUS", (1e308, 1e308))
    # half-angle sums do not overflow where the full sums would
    inst = resolve_rule("QC", "E", (1e308, 1e308, 1e308))
    assert all(map(math.isfinite, (a for g in inst.rhs.gates for a in g.params)))


#: requests with two faults each, (theory, name, params, n, allow_lemmas),
#: and the error of the one that the request checks find first
_TWO_FAULTS = [
    (("QX", "PMINUS", (0.1,), None, False), UnknownTheory, "no theory 'QX'"),
    (("QC", "NOPE", ("x",), None, True), UnknownLemma, "no rule named 'NOPE' in QC"),
    (("QC", "PMINUS", (math.inf,), None, False), UnknownLemma,
     "PMINUS is not an axiom of QC (derived lemmas need allow_lemmas)"),
    (("QC", "E", ("7", math.nan, 0.1), None, False), InvalidCircuit,
     "E param '7' is not a real number"),
    (("QC", "C", (True, 0.2), None, False), InvalidCircuit, "C param True is not a real number"),
    (("QC", "C", (math.inf,), 2.0, False), InvalidCircuit, "C params must be finite, got (inf,)"),
    (("QC", "C", (0.1, 0.2), 1.0, False), InvalidCircuit, "C wire count 1.0 is not an integer"),
    (("QC", "C", (0.1, 0.2), 3, False), BadParams, "C takes 1 params, got 2"),
    (("QC", "I", (0.1,), 2, False), BadParams, "I takes 0 params, got 1"),
]


@pytest.mark.parametrize("request_, error, message", _TWO_FAULTS)
def test_request_checks_run_in_order_cold_and_warm(request_, error, message):
    # the same error on cold caches and after a valid request of the rule
    name = request_[1] if request_[1] in _RULES else "PMINUS"
    n_params, _, min_n = signature(name)
    _clear_shapes()
    for warm in (False, True):
        if warm:
            resolve_rule("QC", name, (0.3,) * n_params, min_n, True)
        with pytest.raises(error) as info:
            resolve_rule(*request_)
        assert str(info.value) == message, warm


def test_lemma_examples():
    inst = resolve_rule("QC", "P2PI", (), 1, True)
    assert check_soundness(inst, 1e-12)

    # multi-controlled Euler equation on 3 wires against the 8x8 oracle
    inst = resolve_rule("QC", "ESTAR_N", (0.4, 1.2, -0.9), 3, True)
    a, b = eval_matrix(inst.lhs), eval_matrix(inst.rhs)
    assert a.shape == (8, 8)
    assert np.max(np.abs(a - b)) < 1e-9

    phi = 1.3
    inst = resolve_rule("QC", "PMINUS", (phi,), 1, True)
    # oracle: X P(phi) X = e^{i phi} P(-phi)
    xm = np.array([[0, 1], [1, 0]], dtype=complex)
    want = np.exp(1j * phi) * np.diag([1, np.exp(-1j * phi)])
    assert np.max(np.abs(xm @ np.diag([1, np.exp(1j * phi)]) @ xm - want)) < 1e-12
    assert check_soundness(inst, 1e-12)

    with pytest.raises(UnknownLemma):
        resolve_rule("QC", "NOPE", (), 1, True)


def test_estar_n_scales():
    rng = np.random.default_rng(8)
    for n in range(1, 5):
        for _ in range(5):
            params = tuple(rng.uniform(-6, 6, 3))
            inst = resolve_rule("QC", "ESTAR_N", params, n, True)
            assert check_soundness(inst, 1e-9), (n, params)


@pytest.mark.parametrize("name", ["MCPDEF", "MCRXDEF"])
def test_macro_definitions_sound_at_width(name):
    # ties the MCP/MCRX evaluation kernels to the inductive definitions
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        phi = float(rng.uniform(-4 * PI, 4 * PI))
        assert check_soundness(resolve_rule("QC", name, (phi,), n), 1e-9), (name, n)
