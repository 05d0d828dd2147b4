"""Record the reference outputs and the baseline figures of the benchmark.

    python3 perfbench/baseline.py reference
        Runs every workload once at seed 0 and stores its CSV under
        perfbench/reference/.  The output checks compare against these
        files, so run this only on the commit whose results are the
        reference.

    python3 perfbench/baseline.py stats --seeds 1-10 [--out FILE]
        Runs perfbench/run.py once per workload and seed (--trace 0) plus
        one traced run per workload, and writes per metric the median,
        quartiles and spread (quartile distance over median) next to the
        bound from BENCHMARK.json.  Default output: perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import run
from workloads import PREDICTIONS, WORKLOADS

RUN_TIMEOUT_S = 200


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_reference(workloads) -> None:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench") as tmp:
        for w in workloads:
            sample = run.run_sample(w, 0, Path(tmp), w, False, time.monotonic() + RUN_TIMEOUT_S)
            if not sample["ok"]:
                sys.exit(f"baseline: {w} failed")
            (checks.REFERENCE_DIR / f"{w}.csv").write_bytes(sample["csv"])
            print(f"{w}: {len(sample['rows'])} rows, wall {sample['wall_s']:.2f} s")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["elapsed_s"] = time.monotonic() - t0
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("machine", "layers"):
            out[key] = json.loads(rest)
    return out


def summarize(values: list[float], bound: float | None = None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    row = {"median": med, "p25": q1, "p75": q3,
           "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}
    if bound is not None:
        row["bound"] = bound
    return row


def stats(workloads, seeds, out_path: Path) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {},
              "predictions": PREDICTIONS}
    for w in workloads:
        runs = [bench(w, s, seconds, 0) for s in seeds]
        traced = bench(w, seeds[0], seconds, 1)
        report["machine"] = traced["machine"]
        e2e = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            e2e[m["name"]] = {"unit": m["unit"], **summarize(vals, m["bound"])}
        report["workloads"][w] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "run_elapsed_s": summarize([r["elapsed_s"] for r in runs]),
            "end_to_end": e2e,
            "per_layer": traced["layers"],
        }
        print(f"{w}: correct={report['workloads'][w]['correct']} "
              f"elapsed/run {statistics.median(r['elapsed_s'] for r in runs):.1f} s")
        for name, row in e2e.items():
            print(f"  {name:<14} median {row['median']:<12.6g} p25 {row['p25']:<12.6g} "
                  f"p75 {row['p75']:<12.6g} spread {row['spread']:.4f} "
                  f"(bound {row['bound']}, {row['spread'] / row['bound']:.2f} of it)")
        print(f"  trace_overhead_frac {traced['layers'].get('trace_overhead_frac')}")
        out_path.write_text(json.dumps(report, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("reference")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p = sub.add_parser("stats")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--out", type=Path, default=run.HERE / "baseline.json")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if args.cmd == "reference":
        record_reference(workloads)
    else:
        stats(workloads, args.seeds, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
