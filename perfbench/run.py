"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` with no install step. Workloads: release_1000x50,
delta_curve_200x20, roc_figures_200x20, ridge_validate_200x300 (see
workloads.py for why each exists). Each runs in worker processes as a
closed loop with one client and workers = 1; OpenBLAS keeps its default
thread count, which is recorded.

``--trace 0`` runs PROCESSES fresh worker processes one after another.
Each sets up and then times ops for S / PROCESSES seconds on inputs of
its own, so the run samples set-up several times and its ops spread over
the whole run. It prints the end-to-end metrics:
  setup_s      median over the processes of the time from process start
               to the end of import, input generation and one untimed
               warm-up op;
  op_s_p50     median wall time of one op, over the ops of all processes;
  work_per_s   output units (scans, delta-curve rows, ROC points or Monte
               Carlo trials) per second of op time;
  peak_rss_mb  the largest ru_maxrss of the worker processes.
It also prints, outside the JSON result, fail_ratio and, when the run has
at least 20 ops, op_s_tail (the highest whole percentile with at least ten
ops beyond it).

``--trace 1`` prints the per-layer metrics of tracing.PER_LAYER from one
worker process whose ops are first timed untraced and then traced; the
spans are written to .perfbench_work/traces/NAME.npz.

Every op's output is checked against an independent numpy/scipy oracle,
and a deliberately corrupted output must fail that check. A ridge op that
fails only the validate command's own 3-standard-error gate, by at most
4.5 standard errors, is a chance failure: it counts in ``failed`` but
leaves ``correct`` true, up to MAX_CHANCE_FAILURES per run. The last line
of stdout is one JSON object with keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("release_1000x50", "delta_curve_200x20", "roc_figures_200x20",
                  "ridge_validate_200x300")
PROCESSES = 4  # worker processes of one untraced run, each set up afresh
OPS_PER_PROCESS = 1000  # worker k's inputs are those of ops k*1000, k*1000+1, ...
MAX_CHANCE_FAILURES = 2  # more 3-SE gate failures in one run point at a defect
TAIL_MIN_OPS = 20


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "dpresidual" / "__init__.py").is_file():
        print("error: run from the root of a dpresidual checkout "
              "(src/dpresidual not found)", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so the finally clauses stop the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Every worker of one run must end within this many seconds.
    limit = 120.0 + 2.5 * args.seconds
    deadline = time.monotonic() + limit
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            results = [spawn(args, 0, "trace", args.seconds, work, deadline, limit)]
        else:
            results = [spawn(args, k, "run", args.seconds / PROCESSES, work, deadline, limit)
                       for k in range(PROCESSES)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, root, results)


class WorkerError(RuntimeError):
    pass


def spawn(args, k: int, mode: str, seconds: float, work: Path, deadline: float,
          limit: float) -> dict:
    """Run worker process ``k`` to completion and return its result."""
    workdir = work / f"worker{k}"
    workdir.mkdir()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(seconds),
           "--first-op", str(k * OPS_PER_PROCESS), "--workdir", str(workdir)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker passed the {limit:.0f} s run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    path = workdir / "result.json"
    if code != 0 or not path.exists():
        raise WorkerError(f"{mode} worker exited with code {code}")
    result = json.loads(path.read_text())
    result["setup_s"] = result["setup_end"] - t0
    return result


def quantile_tail(times: list[float]) -> tuple[int, float] | None:
    """(p, value): the 11th-largest op time, exactly ten ops beyond it, at p%."""
    n = len(times)
    if n < TAIL_MIN_OPS:
        return None
    return int(100 * (n - 10) / n), sorted(times)[n - 11]


def environment(root: Path, args, result: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **result["libs"],
        "workers": 1,
        "workload": args.workload,
        "sizes": result.get("sizes"),
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or 'unknown' outside a git checkout.

    GIT_CEILING_DIRECTORIES keeps git from reading a repository that merely
    contains the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def report(args, root: Path, results: list[dict]) -> int:
    result = results[0]
    ops = [o for r in results for o in r["ops"]]
    timed = [r["ops"][i] for r in results for i in r["timed_ops"]]
    failed = [o for o in ops if o["problems"]]
    chance = [o for o in failed if o["chance"]]
    self_ok = all(r["self_check"] for r in results)
    correct = self_ok and len(failed) == len(chance) and len(chance) <= MAX_CHANCE_FAILURES
    unit = result["unit"]
    env = environment(root, args, result)

    print(f"workload {args.workload}: {len(ops)} ops attempted in {len(results)} "
          f"processes (one untimed warm-up each), {len(failed)} failed")
    print(f"fail_ratio = {len(failed) / len(ops):.6f} ({len(failed)}/{len(ops)} ops)")
    for o in failed:
        kind = "3-SE gate, chance failure" if o["chance"] else "check"
        print(f"  op {o['op']} (seed {o['seed']}) failed [{kind}]: "
              + "; ".join(o["problems"]))
    if len(chance) > MAX_CHANCE_FAILURES:
        print(f"{len(chance)} chance failures of the 3-SE gate in one run is more "
              f"than the {MAX_CHANCE_FAILURES} chance allows: counted as incorrect")
    print(f"self_check (corrupted output rejected) = {self_ok}")

    if args.trace:
        untraced = result["untraced_ops"]
        print(f"per-layer metrics over {len(timed)} traced ops "
              f"(after {untraced} untraced ops); spans in {result['trace_file']}")
        metrics = result["per_layer"]
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        times = [o["s"] for o in timed]
        op_time = sum(times)
        units = sum(o["units"] for o in timed)
        setup = [r["setup_s"] for r in results]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "work_per_s": {"value": units / op_time, "unit": "1/s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"},
        }
        print(f"setup_s = {metrics['setup_s']['value']:.4f} s "
              f"(median of {len(setup)} processes: "
              + ", ".join(f"{s:.4f}" for s in setup) + ")")
        print(f"op_s_p50 = {metrics['op_s_p50']['value']:.4f} s (n={len(times)} ops)")
        tail = quantile_tail(times)
        if tail is None:
            print(f"op_s_tail: not reported, {len(times)} ops < {TAIL_MIN_OPS}")
        else:
            print(f"op_s_tail = {tail[1]:.4f} s (p{tail[0]}, n={len(times)} ops)")
        print(f"work_per_s = {metrics['work_per_s']['value']:.6g} {unit}/s "
              f"({units} {unit} in {op_time:.3f} s of {len(times)} ops)")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MB "
              f"(largest of {len(results)} processes)")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
