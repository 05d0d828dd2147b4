"""The names ``perfbench/tracing.py`` wraps in fracstep, and what they count.

The benchmark swaps module globals and class attributes of fracstep for
timed wrappers, looked up by name.  A renamed hook raises at install time;
a call that bypasses its module global silently drops out of the layer
split.  Three tiny CLI runs in a fresh interpreter pin both down, and a
four-case table must make the stepping calls of a one-case table.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import tracing
import fracstep.cli

rec = tracing.Recorder()
tracing.install(rec, traced=True)
for i, argv in enumerate(json.loads(sys.argv[1])):
    assert fracstep.cli.main([*argv, "--out", f"{sys.argv[2]}/{i}.csv"]) == 0
print(json.dumps(tracing.layer_metrics(rec)))
"""

RUNS = [
    ["table-1d", "--h", "0.05", "--cases", "b", "--alphas", "0.5", "--ms", "2", "--Ns", "1,2"],
    ["table-2d", "--n-per-side", "6", "--cases", "e", "--alphas", "0.5", "--ms", "2",
     "--Ns", "1,2"],
    ["table-2d", "--n-per-side", "6", "--cases", "e", "--alphas", "0.5", "--ms", "2",
     "--Ns", "1,2", "--solver", "cg"],
]

EXPECTED = {
    "experiments.runs": 12,
    "experiments.steps": 240,
    "pade.coeffs.calls": 12,
    "stepping.bounds.calls": 3,
    "fem.m_norm.calls": 15,
    "kernels.tridiag_solve.calls": 120,
    "kernels.tridiag_matvec.calls": 64,
    "solvers.tensor_solve.calls": 90,
    "solvers.cg_solve.calls": 180,
    "solvers.shifted_solve.calls": 390,
}


def _traced(runs, tmp_path):
    """``layer_metrics`` of the CLI runs ``runs`` under the tracing hooks."""
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs), str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_cli_runs_hit_every_hook(tmp_path):
    metrics = _traced(RUNS, tmp_path)
    assert {k: metrics[k] for k in EXPECTED} == EXPECTED


def test_data_cases_share_one_stepping_pass(tmp_path):
    # the cases a-d step as one block: four cases cost the runs and pole
    # solves of one
    one = RUNS[0]
    four = [*one[:4], "a,b,c,d", *one[5:]]
    keys = ("experiments.runs", "kernels.tridiag_solve.calls")
    m1, m4 = _traced([one], tmp_path), _traced([four], tmp_path)
    assert m4["experiments.steps"] == m1["experiments.steps"] > 0
    assert {k: m4[k] for k in keys} == {k: m1[k] for k in keys}
