"""tools/bench_record.py: pairing, tie counting and the one-host rule."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

HOST = {"machine": "x86_64", "cpus": 2, "python": "3.12", "numpy": "2.4", "scipy": "1.17"}


def write_run(path, op_s, work, host=HOST, seed=0, attempted=10, failed=0):
    env = {**host, "workload": "delta_curve_200x20", "sizes": {"m": 200, "n": 20},
           "seed": seed, "seconds": 8, "commit": "abc"}
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {"op_s_p50": {"value": op_s}, "work_per_s": {"value": work}}}
    path.write_text(f"progress line\nenv: {json.dumps(env)}\n{json.dumps(result)}\n")
    return path


def test_change_wins_counts_no_ties(tmp_path):
    """Pairs go by position; an equal pair is a win for neither side."""
    parent = [write_run(tmp_path / f"p{i}", op, work)
              for i, (op, work) in enumerate([(1.0, 10.0), (1.0, 10.0), (1.0, 10.0)])]
    change = [write_run(tmp_path / f"c{i}", op, work)
              for i, (op, work) in enumerate([(0.5, 10.0), (1.0, 12.0), (2.0, 9.0)])]
    out = tmp_path / "BENCH.json"
    argv = [str(out), "--parent", *map(str, parent), "--change", *map(str, change)]
    assert bench_record.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["host"] == HOST
    summary = record["workloads"]["delta_curve_200x20/untraced"]["summary"]
    assert summary["op_s_p50"]["better"] == "lower"
    assert (summary["op_s_p50"]["pairs"], summary["op_s_p50"]["change_wins"]) == (3, 1)
    assert summary["work_per_s"]["better"] == "higher"
    assert summary["work_per_s"]["change_wins"] == 1
    assert summary["op_s_p50"]["parent"] == {"n": 3, "median": 1.0, "q1": 1.0, "q3": 1.0}


def test_failed_ops_summed_per_side(tmp_path):
    """Each side's failed share is its failed ops over its attempted ops,
    so a side that attempts fewer ops shows one failure as a larger share."""
    parent = [write_run(tmp_path / f"p{i}", 1.0, 10.0, attempted=n, failed=f)
              for i, (n, f) in enumerate([(32, 1), (30, 0)])]
    change = [write_run(tmp_path / f"c{i}", 1.0, 10.0, attempted=n, failed=f)
              for i, (n, f) in enumerate([(27, 1), (28, 0)])]
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(out), "--parent", *map(str, parent),
                              "--change", *map(str, change)]) == 0
    ops = json.loads(out.read_text())["workloads"]["delta_curve_200x20/untraced"]["ops"]
    assert ops == {"parent": {"attempted": 62, "failed": 1, "failed_share": 1 / 62},
                   "change": {"attempted": 55, "failed": 1, "failed_share": 1 / 55}}


@pytest.mark.parametrize("key,value", [("machine", "aarch64"), ("numpy", "2.3")])
def test_other_host_refused(tmp_path, capsys, key, value):
    parent = write_run(tmp_path / "p", 1.0, 10.0)
    change = write_run(tmp_path / "c", 0.5, 10.0, host={**HOST, key: value})
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(out), "--parent", str(parent),
                              "--change", str(change)]) == 2
    assert "another host" in capsys.readouterr().err
    assert not out.exists()
