"""One benchmark sample: a fresh process that calls ``fracstep.cli.main`` once.

    python3 perfbench/child.py --workload table1d --seed 0 --out run.csv \
        --result run.json [--trace] [--spans spans.npz]

``fracstep`` is imported from ``src/`` of the checkout that holds this
file (``run.py`` sets ``PYTHONPATH``); any other copy is refused.  The
result file holds the wall time of the ``main(argv)`` call, the setup time
inside it, the exit status, the peak resident memory of this process and,
with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, argv_for

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import fracstep
    import fracstep.cli

    src = (ROOT / "src").resolve()
    if src not in Path(fracstep.__file__).resolve().parents:
        print(f"child: imported fracstep from {fracstep.__file__}, not {src}", file=sys.stderr)
        return 3

    rec = tracing.Recorder()
    tracing.install(rec, traced=args.trace)
    argv = argv_for(args.workload, args.seed, args.out)
    t0 = time.perf_counter()
    status = fracstep.cli.main(argv)
    wall = time.perf_counter() - t0

    result = {
        "status": status,
        "wall_s": wall,
        "setup_s": tracing.setup_seconds(rec),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layers"] = tracing.layer_metrics(rec)
        if args.spans:
            rec.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
