"""fracstep benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload table1d --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout of the repository; it uses the
checkout's ``src/`` and writes only under ``.perfbench/`` at its root.
Each sample is a fresh ``python3 perfbench/child.py`` process that calls
``fracstep.cli.main(argv)`` once (one process, no worker pool, default BLAS
threads).  Samples repeat until ``--seconds`` is used up, with at least
three (one pair when traced).

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs untraced/traced pairs and reports the per-layer metrics,
after checking that both runs of a pair wrote the same CSV.  Earlier lines
of standard output are for people; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS, delivered_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 3
RUN_LIMIT_S = 150.0  # every run must end well inside 180 s


def machine() -> dict:
    import mpmath
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_sample(workload, seed, tmp: Path, tag: str, traced: bool, deadline: float,
               spans: Path | None = None) -> dict:
    out, res = tmp / f"{tag}.csv", tmp / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--result", str(res)]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False}
    if proc.returncode != 0 or not res.is_file():
        return {"ok": False}
    result = json.loads(res.read_text())
    result["ok"] = result["status"] == 0 and out.is_file()
    if result["ok"]:
        result["csv"] = out.read_bytes()
        result["rows"] = checks.read_csv(out)
    return result


def sample_until(seconds: float, minimum: int, one) -> list:
    """Call ``one(i)`` until ``seconds`` is used up, at least ``minimum`` times."""
    start = time.monotonic()
    out, durations = [], []
    while True:
        t0 = time.monotonic()
        item = one(len(out))
        durations.append(time.monotonic() - t0)
        out.append(item)
        elapsed = time.monotonic() - start
        if not all(s["ok"] for s in (item if isinstance(item, tuple) else (item,))):
            return out
        if elapsed + max(durations) > RUN_LIMIT_S:
            return out
        if len(out) >= minimum and elapsed + float(np.median(durations)) > seconds:
            return out


def quartiles(values):
    p25, p50, p75 = np.percentile(values, [25, 50, 75])
    return float(p25), float(p50), float(p75)


def end_to_end(workload: str, samples: list) -> dict:
    good = [s for s in samples if s["ok"]]
    if not good:
        return {}
    wall = [s["wall_s"] for s in good]
    setup = [s["setup_s"] for s in good]
    rate = [delivered_steps(workload, s["rows"]) / (s["wall_s"] - s["setup_s"]) for s in good]
    return {
        "wall_s": wall,
        "setup_s": setup,
        "steps_per_s": rate,
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
        "err_ratio_max": [max(s["err_ratio"] for s in good)],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fracstep" / "cli.py").is_file():
        print(f"perfbench: no fracstep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S + 20.0

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("machine " + json.dumps(machine()))

        def checked(sample):
            attempted, failed, ratio = checks.check(args.workload, sample.get("rows"))
            sample.update(attempted=attempted, failed=failed, err_ratio=ratio)
            return sample

        if args.trace == 0:
            samples = sample_until(args.seconds, MIN_SAMPLES, lambda i: checked(run_sample(
                args.workload, args.seed, tmp, f"s{i}", False, deadline)))
            attempted = sum(s["attempted"] for s in samples)
            failed = sum(s["failed"] for s in samples)
            series = end_to_end(args.workload, samples)
            wanted = spec["end_to_end"]
            values = {m["name"]: float(np.median(series[m["name"]])) for m in wanted
                      if m["name"] in series}
            for m in wanted:
                if m["name"] in series:
                    p25, p50, p75 = quartiles(series[m["name"]])
                    print(f"  {m['name']:<14} {p50:>14.6g} {m['unit']:<6} "
                          f"p25 {p25:.6g}  p75 {p75:.6g}  n={len(series[m['name']])}")
        else:
            spans = work / f"spans-{args.workload}-seed{args.seed}.npz"
            pairs = sample_until(args.seconds, 1, lambda i: (
                checked(run_sample(args.workload, args.seed, tmp, f"u{i}", False, deadline)),
                checked(run_sample(args.workload, args.seed, tmp, f"t{i}", True, deadline,
                                   spans))))
            samples = [s for pair in pairs for s in pair]
            same = [u["ok"] and t["ok"] and u["csv"] == t["csv"] for u, t in pairs]
            attempted = sum(s["attempted"] for s in samples) + len(pairs)
            failed = sum(s["failed"] for s in samples) + same.count(False)
            traced = [t for _, t in pairs if t["ok"]]
            layers = {}
            if traced and all(same):
                layers = {k: float(np.median([t["layers"][k] for t in traced]))
                          for k in traced[0]["layers"]}
                layers["trace_overhead_frac"] = float(np.median(
                    [t["wall_s"] / u["wall_s"] - 1.0 for u, t in pairs]))
            print("layers " + json.dumps(layers))
            print(f"  traced/untraced CSV identical: {sum(same)}/{len(pairs)} pairs; "
                  f"spans of the last traced run in {spans.relative_to(ROOT)}")
            values = {m["name"]: layers[m["name"]] for m in spec["per_layer"]
                      if m["name"] in layers}
            wanted = spec["per_layer"]
        print(f"  failed_frac    {failed / attempted:>14.6g} {'':<6} "
              f"({failed} of {attempted} output checks failed)")
        correct = failed == 0 and all(m["name"] in values for m in wanted)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in values}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
