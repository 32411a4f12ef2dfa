"""One workload process: set up, then run ops in a closed loop and check each.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S --first-op K --workdir DIR

The worker imports the package, generates its inputs and runs one untimed
warm-up op (its set-up), then, by mode:
  run    times ops untraced for S seconds;
  trace  times ops untraced for a third of S and traced (spans, and
         tracemalloc peaks in a few of them) for the rest.
Its ops take the inputs of ops K, K+1, ... of the workload seed.

The package is imported from ``src/`` of the current directory, with no
install step. The result goes to DIR/result.json; the parent process
(``run.py``) turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MIN_TRACE_OPS = 2


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("run", "trace"), required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-op", type=int, default=0)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args()

    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import dpresidual
    import dpresidual.cli  # noqa: F401  (CLI workloads call dpresidual.cli.main)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir, dpresidual)
    ops: list[dict] = []
    warm_inp = workload.make_input(args.first_op)
    warm_out, warm_err = run_op(workload, warm_inp, ops, args.first_op)
    result = {"setup_end": time.monotonic()}
    record_check(workload, warm_inp, warm_out, warm_err, ops[-1])
    result["self_check"] = self_check(workload, warm_inp, warm_out)
    workload.cleanup(warm_inp)

    if args.mode == "run":
        timed = closed_loop(workload, ops, args.seconds, 1, args.first_op)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer

        untraced = closed_loop(workload, ops, args.seconds / 3.0, MIN_TRACE_OPS,
                               args.first_op)
        tracer = Tracer()
        tracer.install()
        workload.span = tracer.span
        timed = closed_loop(workload, ops, args.seconds * 2.0 / 3.0, MIN_TRACE_OPS,
                            args.first_op, tracer=tracer)
        tracer.uninstall()
        traced = [ops[i] for i in timed]
        overhead = (statistics.median(o["s"] for o in traced)
                    / statistics.median(ops[i]["s"] for i in untraced))
        roc_points = sum(o["roc_points"] for o in traced)
        result["per_layer"] = tracer.reduce([o["op"] for o in traced], roc_points, overhead)
        result["untraced_ops"] = len(untraced)
        trace_path = Path.cwd() / ".perfbench_work" / "traces" / f"{args.workload}.npz"
        tracer.save(trace_path)
        result["trace_file"] = str(trace_path.relative_to(Path.cwd()))

    result["timed_ops"] = timed
    result["ops"] = ops
    result["unit"] = workload.unit
    result["sizes"] = workload.sizes
    result["libs"] = library_info()
    return write_result(args.workdir, result)


def run_op(workload, inp, ops, op, tracer=None):
    """Run op number ``op``, timed; returns (output, error text or None)."""
    err = out = None
    if tracer is not None:
        tracer.op = op
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(inp)
        else:
            with tracer.span("op"):
                out = workload.run(inp)
    except Exception as exc:  # an op that raises counts as failed, the loop goes on
        traceback.print_exc()
        err = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    ops.append({"op": op, "s": elapsed, "seed": getattr(inp, "seed", None)})
    return out, err


def record_check(workload, inp, out, err, rec) -> None:
    problems = [err] if err is not None else workload.check(inp, out)
    rec["problems"] = problems
    rec["chance"] = bool(problems) and err is None and workload.chance_failure(inp, out)
    rec["units"] = 0 if err is not None else workload.units(out)
    files = getattr(out, "files", {})
    rec["roc_points"] = len(files["roc.csv"][1]) if "roc.csv" in files else 0


def self_check(workload, inp, out) -> bool:
    """The oracle must reject a deliberately corrupted output, and not as chance."""
    if out is None:
        return False
    bad = workload.corrupt(out)
    return bool(workload.check(inp, bad)) and not workload.chance_failure(inp, bad)


def closed_loop(workload, ops, seconds, min_ops, first_op, tracer=None) -> list[int]:
    """Ops back to back (one client) for about ``seconds``.

    An op starts only if, at the median op time so far, it would end less
    than half an op past ``seconds``, so the loop neither overruns by a
    whole op nor stops early on average.
    """
    done = []
    start = time.monotonic()
    typical = statistics.median(o["s"] for o in ops)
    while len(done) < min_ops or time.monotonic() - start + typical / 2 < seconds:
        op = first_op + len(ops)
        inp = workload.make_input(op)
        out, err = run_op(workload, inp, ops, op, tracer)
        record_check(workload, inp, out, err, ops[-1])
        workload.cleanup(inp)
        done.append(len(ops) - 1)
        typical = statistics.median(o["s"] for o in ops)
    return done


def library_info() -> dict:
    """numpy/scipy versions, and the BLAS numpy loaded with its thread count."""
    import ctypes

    import numpy as np
    import scipy

    blas = {"library": "unknown", "version": "unknown", "threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas["library"], blas["version"] = cfg.get("name"), cfg.get("version")
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    getters = [f"{prefix}_get_num_threads{suffix}"
               for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        getter = next((getattr(handle, g) for g in getters if hasattr(handle, g)), None)
        if getter is not None:
            blas["threads"] = int(getter())
            break
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def write_result(workdir: Path, result: dict) -> int:
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
