"""qc-equate command line interface.

Subcommands: eval, equiv, normalize, synth1q, expand, verify-rules, replay,
minimality, list-rules.  JSON goes to stdout, diagnostics to stderr.  Exit
codes: 0 success / property holds, 1 property fails, 2 input or step error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .circuit import Circuit, _real, expand_macros
from .errors import InvalidCircuit, QcError
from .euler import nf_from_unitary
from .interp import minimality_matrix, minimality_report
from .rewrite import Derivation, normalize_1q, replay
from .semantics import (equal_matrices, equal_up_to_phase, eval_matrix)
from .theories import (THEORIES, RuleId, lemma_names, list_rules, signature,
                       verify_theory)


def _load(path: str, parse):
    """Parse a JSON input file; malformed content raises InvalidCircuit."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:   # JSONDecodeError is a ValueError
            raise InvalidCircuit(f"{path}: malformed input ({type(exc).__name__}: {exc})") from exc


def _load_circuit(path: str) -> Circuit:
    return _load(path, Circuit.from_dict)


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


def cmd_eval(args) -> int:
    m = eval_matrix(_load_circuit(args.circuit))
    _emit({"rows": m.shape[0], "cols": m.shape[1], "matrix": _matrix_json(m)})
    return 0


def cmd_equiv(args) -> int:
    a = eval_matrix(_load_circuit(args.circuit_a))
    b = eval_matrix(_load_circuit(args.circuit_b))
    if a.shape != b.shape:
        print("shape mismatch", file=sys.stderr)
    same = a.shape == b.shape and (equal_up_to_phase if args.up_to_phase
                                   else equal_matrices)(a, b, args.tol)
    _emit({"equal": bool(same), "up_to_phase": bool(args.up_to_phase),
           "tol": args.tol})
    return 0 if same else 1


def cmd_normalize(args) -> int:
    c = _load_circuit(args.circuit)
    params, deriv = normalize_1q(c, emit_trace=args.trace is not None,
                                 theory=args.theory)
    out = {**asdict(params), "normal_form": params.circuit().to_dict()}
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(deriv.to_dict(), fh, indent=1)
        out["trace"] = args.trace
        out["steps"] = len(deriv.steps)
    _emit(out)
    return 0


def cmd_synth1q(args) -> int:
    u = _load(args.unitary, lambda raw: np.array(   # each entry an [re, im] pair
        [[complex(_real(re, "entry"), _real(im, "entry")) for re, im in row] for row in raw]))
    params = nf_from_unitary(u)
    _emit({**asdict(params), "circuit": params.circuit().to_dict()})
    return 0


def cmd_expand(args) -> int:
    _emit(expand_macros(_load_circuit(args.circuit)).to_dict())
    return 0


def cmd_verify_rules(args) -> int:
    report = verify_theory(args.theory, samples=args.samples,
                           max_qubits=args.max_qubits, tol=args.tol,
                           seed=args.seed)
    _emit(report)
    return 0 if report["ok"] else 1


def cmd_replay(args) -> int:
    deriv = _load(args.trace, Derivation.from_dict)
    final = replay(deriv, allow_lemmas=args.allow_lemmas, tol=args.tol)
    _emit({"ok": True, "steps": len(deriv.steps), "final": final.to_dict()})
    return 0


def cmd_minimality(args) -> int:
    if args.axiom.upper() == "ALL":
        report = minimality_matrix(args.theory, max_qubits=args.max_qubits,
                                   samples=args.samples, seed=args.seed,
                                   target_n=args.target_n)
    else:
        report = minimality_report(args.theory, args.axiom,
                                   max_qubits=args.max_qubits,
                                   samples=args.samples, seed=args.seed,
                                   target_n=args.target_n)
    _emit(report)
    return 0 if report["pass"] else 1


def cmd_list_rules(args) -> int:
    def entry(name):
        n_params, arity, _ = signature(name)
        return {"name": name, "params": n_params, "wires": "n" if arity is None else arity}

    payload = {"theory": args.theory,
               "rules": [entry(rid.name) for rid in list_rules(args.theory)]}
    if args.list_lemmas:
        payload["lemmas"] = [{**entry(name), "kind": RuleId(args.theory, name).kind}
                             for name in lemma_names()]
    _emit(payload)
    return 0


def _tol(text: str) -> float:
    """A ``--tol`` value: a finite number >= 0, else argparse exits 2."""
    tol = float(text)   # a ValueError reads as an invalid value
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


@functools.cache   # built once per process; each parse_args call starts afresh
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qc-equate",
                                 description="quantum circuit equational theories")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--theory", choices=THEORIES, default="QC")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=100)
        sp.add_argument("--max-qubits", type=int, default=5)

    sp = sub.add_parser("eval", help="evaluate a circuit to its matrix")
    sp.add_argument("circuit")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("equiv", help="compare two circuits numerically")
    sp.add_argument("circuit_a")
    sp.add_argument("circuit_b")
    sp.add_argument("--up-to-phase", action="store_true")
    sp.add_argument("--tol", type=_tol, default=1e-9)
    sp.set_defaults(fn=cmd_equiv)

    sp = sub.add_parser("normalize", help="1-qubit normal form (with optional trace)")
    sp.add_argument("circuit")
    sp.add_argument("--theory", choices=("QC", "QCprime"), default="QC")
    sp.add_argument("--trace", metavar="OUT", default=None)
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("synth1q", help="normal-form circuit of a 2x2 unitary")
    sp.add_argument("unitary", help="JSON [[re,im],...] 2x2 matrix")
    sp.set_defaults(fn=cmd_synth1q)

    sp = sub.add_parser("expand", help="expand macro gates to primitives")
    sp.add_argument("circuit")
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("verify-rules", help="master soundness suite")
    common(sp)
    sp.add_argument("--tol", type=_tol, default=1e-9)
    sp.set_defaults(fn=cmd_verify_rules)

    sp = sub.add_parser("replay", help="replay a derivation trace")
    sp.add_argument("trace")
    sp.add_argument("--allow-lemmas", action="store_true")
    sp.add_argument("--tol", type=_tol, default=1e-9)
    sp.set_defaults(fn=cmd_replay)

    sp = sub.add_parser("minimality", help="per-axiom counter-interpretation report")
    common(sp)
    sp.add_argument("--axiom", required=True,
                    help="axiom name, or ALL for the whole matrix")
    sp.add_argument("--target-n", type=int, default=4,
                    help="instance size when --axiom I")
    sp.set_defaults(fn=cmd_minimality)

    sp = sub.add_parser("list-rules", help="dump the rule catalog as JSON")
    sp.add_argument("--theory", choices=THEORIES, default="QC")
    sp.add_argument("--list", dest="list_lemmas", action="store_true",
                    help="include the derived-equation catalog")
    sp.set_defaults(fn=cmd_list_rules)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (QcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
