"""One benchmark pass in a fresh process: set up the inputs, run every command once.

    python3 perfbench/child.py --workload NAME --seed N --size full|smoke --trace 0|1 --work DIR --spans PATH

Prints one JSON line: the monotonic time at which the inputs were ready, the
per-command seconds and verdicts, peak RSS and, when traced, the per-layer
metrics of this pass.  Only the ``polyball.cli.main`` calls are timed; output
checks and file reads fall outside the timer.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402,F401  (part of the measured set-up)

import polyball.cli  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_step(step) -> tuple[float, str | None]:
    """Time one ``main(argv)`` call; return its seconds and why it failed, if it did."""
    t0 = time.perf_counter()
    try:
        code = polyball.cli.main(step.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failing command never stops the pass
        elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return elapsed, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        workloads.check_step(step, code)
    except (workloads.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return elapsed, f"{type(exc).__name__}: {exc}"
    return elapsed, None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True, help="where a traced pass writes its spans")
    args = ap.parse_args()

    steps = workloads.build(args.workload, args.seed, args.size, args.work)
    ready = time.monotonic()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    commands = []
    for step in steps:
        seconds, failure = run_step(step)
        commands.append({"label": step.label, "seconds": seconds, "failure": failure})
    if tracer:
        tracer.uninstall()

    result = {
        "ready": ready,
        "traced": bool(args.trace),
        "pass_s": sum(c["seconds"] for c in commands),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
    }
    if tracer:
        tracer.write(args.spans)
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
