"""Span tracer that wraps qc_equate's public functions from outside the package.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
public module-level function of the layer modules with a wrapper, in every
module that binds it (so ``rewrite.apply_step``, ``semantics.thread`` and
``theories.eval_matrix`` are all caught, not only the defining module's
name), and counts ``Gate`` constructions.  Spans (name, parent, start, end)
are kept in compact in-memory arrays while the tracer is on and turned into
per-function statistics afterwards; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: the package's modules, which are also the benchmark's layers
LAYERS = ("circuit", "semantics", "euler", "theories", "rewrite", "traces",
          "interp", "cli")

PACKAGE = "qc_equate"
_MARK = "__perfbench_original__"

#: Scalar angle arithmetic, called millions of times per second of work and
#: far cheaper than a span; timing it would mostly measure the tracer.
UNTRACED = frozenset({"circuit.reduce_angle", "circuit.angle_period",
                      "circuit.angles_equal"})


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []          # span name table, indexed by name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_error = array("i")        # indices of spans whose call raised
        self.eval_width: dict[int, int] = {}  # eval_matrix span -> circuit width
        self.counts: Counter = Counter()    # counts taken from arguments/returns
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def modules(self) -> list[types.ModuleType]:
        return [sys.modules[PACKAGE]] + [sys.modules[f"{PACKAGE}.{m}"] for m in LAYERS]

    def targets(self) -> dict[types.FunctionType, str]:
        """Every public function defined in a layer module -> span name."""
        out = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__
                        and f"{layer}.{attr}" not in UNTRACED):
                    out[val] = f"{layer}.{attr}"
        return out

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, name) for fn, name in self.targets().items()}
        for mod in self.modules():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        gate = sys.modules[f"{PACKAGE}.circuit"].Gate
        post_init = gate.__post_init__
        counts = self.counts

        def counted_post_init(g):
            if self.on:
                counts["circuit.Gate.created"] += 1
            post_init(g)

        self._undo.append((gate, "__post_init__", post_init))
        gate.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        self.on = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def installed_wrappers(self) -> list[str]:
        """Names still bound to a wrapper (empty after ``uninstall``)."""
        left = []
        for mod in self.modules():
            for attr, val in vars(mod).items():
                if hasattr(val, _MARK):
                    left.append(f"{mod.__name__}.{attr}")
        gate = sys.modules[f"{PACKAGE}.circuit"].Gate
        if "counted_post_init" in gate.__post_init__.__qualname__:
            left.append("circuit.Gate.__post_init__")
        return left

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        on_return = _RETURN_HOOKS.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, errors = self.span_start, self.span_end, self.span_error
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[i] = perf_counter()
                stack.pop()
                errors.append(i)
                raise
            ends[i] = perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(self, i, args, out)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- results --------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Views of the span arrays; take them only while the tracer is off."""
        return {"name": np.frombuffer(self.span_name, dtype=np.intc),
                "parent": np.frombuffer(self.span_parent, dtype=np.intc),
                "start": np.frombuffer(self.span_start, dtype=np.float64),
                "end": np.frombuffer(self.span_end, dtype=np.float64),
                "error": np.frombuffer(self.span_error, dtype=np.intc)}

    def table(self) -> dict[str, dict[str, float]]:
        """{span name: calls, self_s, total_s, errors} over the recorded spans."""
        sp = self.spans()
        st = span_stats(sp["name"], sp["parent"], sp["start"], sp["end"],
                        sp["error"], len(self.names))
        return {self.names[k]: {s: float(st[s][k]) for s in st}
                for k in range(len(self.names)) if st["calls"][k] > 0}

    def eval_by_width(self) -> dict[int, tuple[int, float]]:
        """{circuit width: (eval_matrix calls, their self time)}."""
        sp = self.spans()
        self_t = self_times(sp["parent"], sp["start"], sp["end"])
        out: dict[int, tuple[int, float]] = {}
        for i, width in self.eval_width.items():
            calls, total = out.get(width, (0, 0.0))
            out[width] = (calls + 1, total + float(self_t[i]))
        return out

    def child_time(self, child: str, parent: str) -> float:
        """Summed duration of ``child`` spans whose direct parent is a ``parent`` span."""
        sp = self.spans()
        ids = {n: k for k, n in enumerate(self.names)}
        if child not in ids or parent not in ids or len(sp["name"]) == 0:
            return 0.0
        par = sp["parent"]
        has_parent = par >= 0
        par_name = np.where(has_parent, sp["name"][np.maximum(par, 0)], -1)
        mask = (sp["name"] == ids[child]) & (par_name == ids[parent])
        return float(np.sum(sp["end"][mask] - sp["start"][mask]))


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so a span's children never overlap and their
    summed durations are the part of its interval they cover.
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def span_stats(name, parent, start, end, error, n_names: int) -> dict[str, np.ndarray]:
    """Per-name calls, self time, total time and error count.

    Total time counts only spans whose direct parent is not the same
    function, so a recursive function's time is not counted twice.
    """
    dur = end - start
    has_parent = parent >= 0
    self_t = self_times(parent, start, end)
    par_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    outer = par_name != name
    return {
        "calls": np.bincount(name, minlength=n_names),
        "self_s": np.bincount(name, weights=self_t, minlength=n_names),
        "total_s": np.bincount(name[outer], weights=dur[outer], minlength=n_names),
        "errors": np.bincount(name[error], minlength=n_names),
    }


# -- counts taken from arguments and return values ------------------------------

def _on_eval_matrix(tr: Tracer, i: int, args, out) -> None:
    c = args[0]
    tr.eval_width[i] = max(c.n_in, c.n_out)


def _on_euler(tr: Tracer, i: int, args, out) -> None:
    tr.counts[f"euler.case.{out[1].tag}"] += 1


def _on_expand_gate(tr: Tracer, i: int, args, out) -> None:
    # expand_gate recurses; count only what the outermost call hands back
    parent = tr.span_parent[i]
    if parent < 0 or tr.span_name[parent] != tr.span_name[i]:
        tr.counts["circuit.expand_gate.gates_out"] += len(out)


def _on_normalize(tr: Tracer, i: int, args, out) -> None:
    tr.counts["rewrite.normalize_1q.returned"] += 1
    if out[1] is not None:
        tr.counts["rewrite.normalize_1q.steps"] += len(out[1].steps)


_RETURN_HOOKS = {
    "semantics.eval_matrix": _on_eval_matrix,
    "euler.euler_e": _on_euler,
    "euler.euler_eprime": _on_euler,
    "circuit.expand_gate": _on_expand_gate,
    "rewrite.normalize_1q": _on_normalize,
}
