"""The scripts under ``tools/``: each runs and prints what its docstring says."""

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
