"""The scripts under ``tools/``: each runs and prints what its docstring says."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_step_costs_splits_the_step_on_five_circuits():
    out = json.loads(_tool("step_costs.py", "--circuits", "5", "--passes", "1"))
    assert out["circuits"] == 5 and set(out["theories"]) == {"QC", "QCprime"}
    for theory, t in out["theories"].items():
        assert t["ops"] == 5 and 0 < t["step_share"] < 1, theory
        per_rule = [r["steps_per_op"] for r in t["rules"].values()]
        assert abs(sum(per_rule) - t["steps_per_op"]) < 0.01 * len(per_rule)
        for name, r in t["rules"].items():
            assert set(r) == {"steps_per_op", "resolve_us", "match_us", "splice_us",
                              "apply_us"}, name
            # each part runs inside the step's _apply, resolve before it
            assert 0 < r["match_us"] < r["apply_us"] and 0 < r["resolve_us"], name
        assert t["apply_by_length"] and all(v > 0 for v in t["apply_by_length"].values())
    rep = out["replay"]
    assert set(rep) == {"traces", "steps", "step_us", "build_us", "evaluate_us", "compare_us"}
    assert rep["traces"] == 19 and rep["steps"] == 248
    assert all(rep[f"{part}_us"] > 0 for part in ("step", "build", "evaluate", "compare"))


#: the digests of ``tools/report_digest.py``'s reports, all but its slow
#: ``normalize_1q`` family: a change to a report fails here until the
#: change log explains it and gives the new digest
PINNED_DIGESTS = {
    "verify_theory": (80, "1aa79eee1ec14edf266b7354153c2ad697481d3c4d37383c4d7ba4979768a8ef"),
    "minimality_report": (3200,
                          "4f847f63e4159d80f9058dde022a5915beefe8b3c4ec09c30258724fdc096d69"),
    "minimality_matrix": (24, "ef8f73c917c1ad3d71a43870a8eee70295a8e9e8c3ee1eb1e8edfe315145a036"),
    "minimality_report@7": (65,
                            "74d7be85930255495b7703c864e2a0e7beb3bcbc91e35487a8f41b462b2af0af"),
    "minimality_report@wide": (24,
                               "12ecb18a25f2c8c3ab34099b64f33509f9ed72482ad2d52e1d124037918099ca"),
    "reverse_derivation": (19,
                           "fff026476c00493664617122b8f3a1d8ea5e5384f6c1cbccaf78366bf10b6ef5"),
}


def test_report_digests_are_pinned():
    spec = importlib.util.spec_from_file_location(
        "report_digest", os.path.join(ROOT, "tools", "report_digest.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    got = {name: tool.digest(reports) for name, reports in tool.families()
           if name in PINNED_DIGESTS}
    assert got == PINNED_DIGESTS
