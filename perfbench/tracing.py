"""In-memory span tracer that wraps the package's public functions.

The tracer never edits the package source. ``install`` wraps every public
function of the layer modules and rebinds the wrapper in every
``dpresidual`` module that holds the same function object, because callers
import by name (``from .measurement_model import projection_matrix``) and
a wrapper bound only in the defining module would miss those calls.

Each span records its name, parent, op id, start, end, self time (its
duration minus the time its traced children cover) and, for the spans in
PEAK_SPANS and their children, the tracemalloc peak inside it. Spans are
kept in flat ``array`` columns so that recording one allocates no lasting
Python objects (which tracemalloc would count inside enclosing spans). ``reduce`` turns them into the
per-layer metrics, one value per metric, normalised per op.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path

LAYER_MODULES = (
    "measurement_model",
    "estimation",
    "special_functions",
    "dp_mechanism",
    "detection",
    "figures",
    "config",
    "csvio",
)

# Per-layer metrics: (name, unit). Every workload reports all of them; a
# layer the workload does not reach reads zero.
PER_LAYER = (
    ("measurement_model.projection_matrix.calls", "count"),
    ("measurement_model.projection_matrix.s", "s"),
    ("measurement_model.projection_matrix.peak_mb", "MB"),
    ("measurement_model.neighbor_projection_update.calls", "count"),
    ("measurement_model.neighbor_projection_update.s", "s"),
    ("measurement_model.simulate_measurements.s", "s"),
    ("measurement_model.load_model_csv.s", "s"),
    ("estimation.wls_estimate.s", "s"),
    ("estimation.wssr.calls", "count"),
    ("estimation.wssr.s", "s"),
    ("estimation.residual_law.calls", "count"),
    ("estimation.residual_law.s", "s"),
    ("estimation.chi_mixture.calls", "count"),
    ("estimation.chi_mixture.s", "s"),
    ("estimation.gaussian_law.s", "s"),
    ("special_functions.marcum_q.calls", "count"),
    ("special_functions.marcum_q.points", "count"),
    ("special_functions.marcum_q.s", "s"),
    ("special_functions.regularized_gamma_q_inverse.calls", "count"),
    ("dp_mechanism.delta_max_over_neighborhood.calls", "count"),
    ("dp_mechanism.delta_max_over_neighborhood.s", "s"),
    ("dp_mechanism.delta_max_over_neighborhood.self_s", "s"),
    ("dp_mechanism.delta_for_epsilon.calls", "count"),
    ("dp_mechanism.delta_for_epsilon.s", "s"),
    ("dp_mechanism.scan.useful_ratio", "ratio"),
    ("dp_mechanism.chi_square_release.s", "s"),
    ("detection.pfa_pd.calls", "count"),
    ("detection.pfa_pd.s", "s"),
    ("detection.pfa_pd.per_roc_point", "ratio"),
    ("detection.roc.calls", "count"),
    ("detection.roc.s", "s"),
    ("detection.threshold.calls", "count"),
    ("detection.monte_carlo_validate.s", "s"),
    ("detection.monte_carlo_validate.self_s", "s"),
    ("detection.monte_carlo_validate.peak_mb", "MB"),
    ("figures.input_perturbation_auroc.s", "s"),
    ("cli.delta-curve.s", "s"),
    ("cli.roc.s", "s"),
    ("cli.figures.s", "s"),
    ("cli.validate.s", "s"),
    ("config.load_config.s", "s"),
    ("csvio.write_csv.s", "s"),
    ("csvio.write_csv.bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
)


PEAK_SPANS = ("measurement_model.projection_matrix", "detection.monte_carlo_validate")


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = -1
        self.name = array("i")
        self.parent = array("q")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.peak = array("d")
        self.outer = array("b")  # 1 unless a span of the same name encloses it
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        # Open spans: [name id, start, child time, peak bytes seen,
        #              bytes at entry, span index, started tracemalloc]
        self._stack: list[list] = []
        self._open_by_name: dict[int, int] = defaultdict(int)
        self._originals: list[tuple[object, str, object]] = []
        # tracemalloc slows every allocation, so it runs only inside these
        # spans (and whatever they call).
        self._peak_ids = {self.name_id(name) for name in PEAK_SPANS}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value: float) -> None:
        self.counters[(self.op, key)] += value

    def enter(self, nid: int) -> None:
        started = nid in self._peak_ids and not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        cur = 0
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                top = self._stack[-1]
                top[3] = max(top[3], peak)
            tracemalloc.reset_peak()
        idx = len(self.name)
        self.parent.append(self._stack[-1][5] if self._stack else -1)
        # Reserve the span's slot now so children can point at it.
        self.name.append(nid)
        self.op_id.append(self.op)
        self.outer.append(0 if self._open_by_name[nid] else 1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self.peak.append(0.0)
        self._open_by_name[nid] += 1
        self._stack.append([nid, time.perf_counter(), 0.0, cur, cur, idx, started])

    def exit(self) -> None:
        end = time.perf_counter()
        nid, start, child, peak_seen, mem0, idx, started = self._stack.pop()
        if tracemalloc.is_tracing():
            peak_seen = max(peak_seen, tracemalloc.get_traced_memory()[1])
            if started:
                tracemalloc.stop()
            elif self._stack:
                top = self._stack[-1]
                top[3] = max(top[3], peak_seen)
        dur = end - start
        self._open_by_name[nid] -= 1
        if self._stack:
            self._stack[-1][2] += dur
        self.start[idx] = start
        self.end[idx] = end
        self.self_s[idx] = dur - child
        self.peak[idx] = (peak_seen - mem0) / 1e6

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap each layer's public functions and rebind them everywhere."""
        wrappers: dict[int, object] = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"dpresidual.{short}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(fn, f"{short}.{attr}")
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "dpresidual"
                                      or modname.startswith("dpresidual.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write the spans as compressed numpy columns plus the name table."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int64),
            op=np.frombuffer(self.op_id, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            self_s=np.frombuffer(self.self_s), peak_mb=np.frombuffer(self.peak),
            outer=np.frombuffer(self.outer, np.int8),
        )

    def reduce(self, ops: list[int], roc_points: float, overhead: float) -> dict:
        """Per-layer metrics over the traced ops ``ops``.

        ``.calls`` and counters are means per op; ``.s`` and ``.self_s``
        are medians over ops of the per-op totals; ``.peak_mb`` is the
        largest peak over ops. ``roc_points`` is the number of ROC points
        the ``roc`` command wrote over these ops.
        """
        per_op: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0] * len(ops))
        peaks: dict[str, float] = defaultdict(float)
        index = {op: k for k, op in enumerate(ops)}
        roc_id = self._ids.get("cli.roc")
        pfa_pd_under_roc = 0
        for i in range(len(self.name)):
            k = index.get(self.op_id[i])
            if k is None:
                continue
            name = self.names[self.name[i]]
            per_op[(name, "calls")][k] += 1
            if self.outer[i]:
                per_op[(name, "s")][k] += self.end[i] - self.start[i]
            per_op[(name, "self_s")][k] += self.self_s[i]
            peaks[name] = max(peaks[name], self.peak[i])
            if name == "detection.pfa_pd" and roc_id is not None \
                    and self._under(i, roc_id):
                pfa_pd_under_roc += 1
        counters: dict[str, float] = defaultdict(float)
        for (op, key), value in self.counters.items():
            if op in index:
                counters[key] += value

        n = len(ops)
        out = {}
        for metric, unit in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if metric == "trace.overhead_ratio":
                value = overhead
            elif metric == "dp_mechanism.scan.useful_ratio":
                probes = counters["scan.probes"]
                value = (probes - counters["scan.skipped"]) / probes if probes else 0.0
            elif metric == "detection.pfa_pd.per_roc_point":
                value = pfa_pd_under_roc / roc_points if roc_points else 0.0
            elif kind == "calls":
                value = sum(per_op[(base, "calls")]) / n
            elif kind in ("s", "self_s"):
                value = statistics.median(per_op[(base, kind)])
            elif kind == "peak_mb":
                value = peaks[base]
            else:  # a counter recorded by an _AFTER hook
                value = counters[metric] / n
            out[metric] = {"value": value, "unit": unit}
        return out

    def _under(self, i: int, ancestor: int) -> bool:
        j = self.parent[i]
        while j >= 0:
            if self.name[j] == ancestor:
                return True
            j = self.parent[j]
        return False


class _Span:
    __slots__ = ("tracer", "nid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.exit()
        return False


def _marcum_points(tracer: Tracer, args, kwargs, result) -> None:
    b = kwargs["b"] if "b" in kwargs else args[2]
    tracer.count("special_functions.marcum_q.points",
                 float(getattr(b, "size", 1)))


def _csv_bytes(tracer: Tracer, args, kwargs, result) -> None:
    path = kwargs["path"] if "path" in kwargs else args[0]
    tracer.count("csvio.write_csv.bytes", float(Path(path).stat().st_size))


def _scan_usage(tracer: Tracer, args, kwargs, result) -> None:
    spec = kwargs["spec"] if "spec" in kwargs else args[4]
    tracer.count("scan.probes", float(spec.scan_count))
    tracer.count("scan.skipped", float(result.skipped))


_AFTER = {
    "special_functions.marcum_q": _marcum_points,
    "csvio.write_csv": _csv_bytes,
    "dp_mechanism.delta_max_over_neighborhood": _scan_usage,
}
