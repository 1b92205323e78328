"""Benchmark of the polyball command line over seeded workloads.

    python3 perfbench/run.py --workload word-tuple --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --result out.json
    python3 perfbench/run.py --compare base.json new.json
    python3 perfbench/run.py --smoke

A run repeats passes of one workload for ``--seconds`` seconds.  A pass
is a fresh child process (``child.py``) that generates the inputs from the
seed and runs the workload's commands once each, in process, through
``polyball.cli.main``; BLAS threads are pinned to 1.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics of the traced ones.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("word-tuple", "word-subspace", "sym-model")
END_TO_END = {"pass_s": "s", "peak_rss_mib": "MiB", "setup_s": "s", "fail_frac": "frac"}
GATED = ("pass_s", "peak_rss_mib", "setup_s")  # fail_frac is 0 when correct; see README.md
THREAD_PIN = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
PASS_TIMEOUT_S = 80  # two hung passes of a trace run still end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ) | THREAD_PIN | {"PYTHONHASHSEED": "0"}
    env.pop("POLYBALL_THREADS", None)
    return env


def run_pass(workload: str, seed: int, size: str, traced: bool, work_root: Path) -> dict:
    """One pass in a fresh child; a child that crashes or hangs counts as one failed command."""
    work = Path(tempfile.mkdtemp(dir=work_root))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(int(traced)), "--work", str(work),
           "--spans", str(work_root / f"spans-{workload}.json")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"pass exited with code {proc.returncode}")
        result = json.loads(lines[-1])
    except (subprocess.TimeoutExpired, RuntimeError, json.JSONDecodeError) as exc:
        failure = f"{type(exc).__name__}: {exc}"
        return {"traced": traced, "crashed": True, "commands": [{"label": "pass", "failure": failure}]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = result.pop("ready") - t0
    return result


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0] if values else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Passes while the next one is expected to end within ``seconds``.

    At least one pass runs, or one of each kind when tracing.
    """
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    start = time.monotonic()
    passes: list[dict] = []
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(run_pass(workload, seed, size, traced, work_root))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest > seconds and len(passes) >= (2 if trace else 1):
            break
    commands = [c for p in passes for c in p["commands"]]
    failures = [f"{c['label']}: {c['failure']}" for c in commands if c["failure"]]
    ok = [p for p in passes if not p.get("crashed")]
    plain = [p for p in ok if not p["traced"]]
    traced_passes = [p for p in ok if p["traced"]]
    metrics = {
        "pass_s": summarize([p["pass_s"] for p in plain]),
        "peak_rss_mib": summarize([p["peak_rss_mib"] for p in plain]),
        "setup_s": summarize([p["setup_s"] for p in ok]),
        "fail_frac": summarize([len(failures) / len(commands)]),
    }
    units = dict(END_TO_END)
    if trace and traced_passes and plain:
        for name, unit in LAYER_METRICS.items():
            metrics[name] = summarize([p["layers"][name] for p in traced_passes])
            units[name] = unit
        overhead = statistics.median(p["pass_s"] for p in traced_passes) / metrics["pass_s"]["median"] - 1
        metrics["trace.overhead_frac"] = summarize([overhead])
        units["trace.overhead_frac"] = "frac"
    for name, unit in units.items():
        metrics[name]["unit"] = unit
    return {"attempted": len(commands), "failed": len(failures), "failures": failures,
            "passes": len(passes), "metrics": metrics}


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    return next((ln.split()[0] for ln in packed if ln.endswith(" " + ref)), None)


def env_info(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pin": THREAD_PIN,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
    }


def print_report(name: str, res: dict) -> None:
    print(f"{name}: {res['passes']} passes, {res['failed']}/{res['attempted']} commands failed")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    for metric, s in res["metrics"].items():
        print(f"  {metric} [{s['unit']}]: median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
              f"  n={s['n']}")


def compare(base_path: str, new_path: str) -> int:
    base, new = (json.loads(Path(p).read_text()) for p in (base_path, new_path))
    print(f"base {base_path} (commit {base['env']['git_commit']}), "
          f"new {new_path} (commit {new['env']['git_commit']}); ratio = new / base")
    for wl in base["workloads"]:
        if wl not in new["workloads"]:
            continue
        print(wl)
        for metric, b in base["workloads"][wl]["metrics"].items():
            n = new["workloads"][wl]["metrics"].get(metric)
            if n is None:
                continue
            ratio = f"{n['median'] / b['median']:.4f}" if b["median"] else "n/a (base 0)"
            print(f"  {metric} [{b['unit']}]: base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                  f"  new {n['median']:.6g} [{n['q1']:.6g}, {n['q3']:.6g}]  ratio {ratio}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--result", default=None, help="write the full result as JSON to this path")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result files")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one untraced and one traced pass, no timing gate")
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "polyball" / "cli.py").is_file():
        print(f"no polyball sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    if args.smoke:
        args.seconds, args.trace = 0.0, 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = env_info(args.seed)
    print("env: " + json.dumps(env))
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), size)
        print_report(name, results[name])
    if args.result:
        Path(args.result).write_text(json.dumps(
            {"env": env, "seconds": args.seconds, "trace": args.trace, "size": size,
             "workloads": results}, indent=1) + "\n")

    reported = ["trace.overhead_frac", *LAYER_METRICS] if args.trace else list(GATED)
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric in reported:
            s = res["metrics"].get(metric)
            if s is not None:
                metrics[prefix + metric] = {"value": s["median"], "unit": s["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
