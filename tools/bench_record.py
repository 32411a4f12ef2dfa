"""Collect saved perfbench runs into one BENCH_<n>.json record.

    python3 tools/bench_record.py BENCH_7.json --parent RUN... --change RUN...

Each RUN is the saved stdout of one ``python3 perfbench/run.py`` run,
untraced or traced (``--trace 1``). The script reads the run's ``env:``
line and its last line, the JSON result, and writes one file holding:

- ``host``: machine, CPU count, Python, numpy, scipy and BLAS details, as
  the runs report them (runs that disagree are refused);
- per workload and mode (``untraced`` or ``traced``): the sizes, every run
  with its side, seed, seconds, commit, correctness, op counts and metrics,
  per side the attempted and failed ops summed over its runs with the
  failed share, and per metric the median and quartiles of each side;
- for runs made in alternating pairs, the number of pairs the change won,
  ties counting for neither. The i-th parent run of a workload and mode
  pairs with its i-th change run; the direction of each metric comes from
  ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RUN_FIELDS = ("workload", "sizes", "seed", "seconds", "commit")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def parse_run(path: Path) -> tuple[dict, dict]:
    """The env dict and the result dict of one saved run."""
    lines = path.read_text().splitlines()
    env = [json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")]
    if len(env) != 1 or not lines:
        raise ValueError(f"{path}: expected one 'env:' line and a final JSON line")
    return env[0], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def op_counts(runs: list[dict]) -> dict:
    """Per side: attempted and failed ops over its runs, and the failed share."""
    out = {}
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs if r["side"] == side)
        failed = sum(r["failed"] for r in runs if r["side"] == side)
        if attempted:
            out[side] = {"attempted": attempted, "failed": failed,
                         "failed_share": failed / attempted}
    return out


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    sides = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    out = {}
    for name in runs[0]["metrics"]:
        values = {s: [r["metrics"][name] for r in rs] for s, rs in sides.items()}
        entry = {"better": better.get(name)}
        entry.update({s: spread(v) for s, v in values.items() if v})
        pairs = list(zip(values["parent"], values["change"]))
        if pairs and entry["better"]:
            sign = 1.0 if entry["better"] == "higher" else -1.0
            entry["pairs"] = len(pairs)
            entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in pairs)
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--parent", nargs="+", type=Path, required=True)
    ap.add_argument("--change", nargs="+", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    host, groups = None, {}
    for side, paths in (("parent", args.parent), ("change", args.change)):
        for path in paths:
            env, result = parse_run(path)
            run_host = {k: v for k, v in env.items() if k not in RUN_FIELDS}
            if host is None:
                host = run_host
            elif run_host != host:
                print(f"error: {path} ran on another host or library set: {run_host}",
                      file=sys.stderr)
                return 2
            mode = "untraced" if "op_s_p50" in result["metrics"] else "traced"
            group = groups.setdefault(f"{env['workload']}/{mode}",
                                      {"workload": env["workload"], "mode": mode,
                                       "sizes": env["sizes"], "runs": []})
            group["runs"].append({
                "side": side, "file": path.name, "seed": env["seed"],
                "seconds": env["seconds"], "commit": env["commit"],
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            })
    for group in groups.values():
        group["ops"] = op_counts(group["runs"])
        group["summary"] = summarize(group["runs"], better)
    args.out.write_text(json.dumps({"host": host, "workloads": groups}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
