"""The four benchmark workloads: inputs, the op, its oracle and its output units.

Every input comes from the workload seed; the program sees only the
generated arrays and files (model CSVs, configs, ``--seed`` values). Each
oracle is computed by the benchmark from the inputs it generated, with
numpy/scipy and without calling the package.

Why these workloads (sizes from the package's 20x5 .. 5000x200 ladder):

- ``release_1000x50``: an operator's long-lived process releasing one
  statistic per scan of one fixed model, as in the README quick start.
  Almost all of its time is m x m projector work, with no Marcum-Q calls;
  reusing work across scans of the same H is fair here.
- ``delta_curve_200x20``: the analyst's guarantee computation through the
  CLI. Its time splits between the neighbour projector updates and scalar
  Marcum-Q calls. A fresh model per op denies in-process caches the hits a
  one-process-per-command CLI user never gets.
- ``roc_figures_200x20``: pure detection analytics (ROC and the fig4
  sweep): many Marcum-Q and gamma-inverse calls, no m x m linear algebra.
- ``ridge_validate_200x300``: the underdetermined ridge case; the only
  workload that reaches ``chi_mixture``/``gaussian_law``, the ridge
  projector and batch ``wssr`` over 1e5 Monte Carlo trials.

5000x200 is left out (every ``wssr`` call forms and factors a 5000x5000
projector) and so is the 20x5 demo size (every layer is Python call
overhead there).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ATTACK_VALUES = (2.0, -1.5)
ALPHA_GRID_SIZE = 512  # the package's default ROC grid, one point per alpha
FIG4_CURVES = 48  # fig4's default sweep: 3 noncentralities x 16 budgets
DP_CURVE = {  # the demo config's dp block
    "mechanism": "chi_square",
    "epsilon": 2.0,
    "delta": 0.1,
    "r_prime": 1,
    "epsilon_grid": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
    "neighborhood": {
        "delta_h_bound": 0.1,
        "scan_count": 1000,
        "theta_domain": [0.2, 1.5],
        "grid_points": 17,
    },
}
MC_TRIALS = 100_000
CHANCE_MAX_SE = 4.5  # past this a gate failure is a defect, not chance


def op_rng(seed: int, workload: int, op: int | None = None) -> np.random.Generator:
    """Generator for one op's inputs (op i's depend only on seed and i), or,
    with ``op`` None, for the workload's fixed inputs."""
    key = [seed, workload] if op is None else [seed, workload, 1, op]
    return np.random.default_rng(key)


def write_model_csv(path: Path, H: np.ndarray, sigma: float, lam: float) -> None:
    """Model CSV in the package's documented format (header, then rows of H)."""
    m, n = H.shape
    lines = ["# schema: dpresidual-model/1", f"# m: {m}", f"# n: {n}",
             f"# sigma: {sigma!r}", f"# lambda: {lam!r}"]
    lines += [",".join(repr(float(v)) for v in row) for row in H]
    path.write_text("\n".join(lines) + "\n")


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Columns and rows of a CSV written by the package, comments skipped."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def attack_nc(H: np.ndarray, a: np.ndarray, sigma: float) -> float:
    """Oracle noncentrality ||a - Q Q^T a||^2 / sigma^2, Q from scipy's QR."""
    from scipy import linalg

    q, _ = linalg.qr(H, mode="economic")
    r = a - q @ (q.T @ a)
    return float(r @ r) / sigma**2


@dataclass
class CliInput:
    seed: int
    argv: list[list[str]]
    out: Path
    H: np.ndarray
    attack: np.ndarray


@dataclass
class CliOutput:
    codes: list[int]
    files: dict[str, tuple[list[str], list[list[str]]]] = field(default_factory=dict)


class Workload:
    """One workload. Subclasses set the class attributes and the four hooks."""

    name: str
    index: int
    unit: str
    sizes: dict

    def __init__(self, seed: int, workdir: Path, pkg):
        self.seed = seed
        self.workdir = workdir
        self.pkg = pkg  # the dpresidual package, so traced rebindings apply
        self.span = lambda name: contextlib.nullcontext()

    def make_input(self, op: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Problems with ``out``; empty when the oracle accepts it."""
        raise NotImplementedError

    def corrupt(self, out):
        """A deliberately wrong copy of ``out`` that ``check`` must reject."""
        raise NotImplementedError

    def units(self, out) -> int:
        raise NotImplementedError

    def chance_failure(self, inp, out) -> bool:
        """True when the op failed only a statistical gate that a correct op can fail."""
        return False

    def cleanup(self, inp) -> None:
        pass


class ReleaseLoop(Workload):
    name = "release_1000x50"
    index = 1
    unit = "scans"
    m, n, sigma = 1000, 50, 1.0
    sizes = {"m": m, "n": n, "lambda": 0.0, "r_prime": 1}

    def __init__(self, seed, workdir, pkg):
        super().__init__(seed, workdir, pkg)
        rng = op_rng(seed, self.index)
        self.H = rng.standard_normal((self.m, self.n))
        idx = rng.choice(self.m, size=len(ATTACK_VALUES), replace=False)
        self.attack = np.zeros(self.m)
        self.attack[idx] = ATTACK_VALUES
        self.model = pkg.MeasurementModel(H=self.H, sigma=self.sigma)
        self.attack_vec = pkg.AttackVector(self.attack)
        self._nc = None

    def make_input(self, op):
        rng = op_rng(self.seed, self.index, op)
        x = rng.standard_normal(self.n)
        z = self.H @ x + self.attack + self.sigma * rng.standard_normal(self.m)
        stream = self.pkg.SeedStream(int(rng.integers(2**63)))
        return z, stream

    def run(self, inp):
        z, stream = inp
        pkg, model = self.pkg, self.model
        est = pkg.wls_estimate(model, z)
        q = pkg.wssr(model, z)
        law = pkg.residual_law(model, est, self.attack_vec)
        release = pkg.chi_square_release(law, q, 1, stream, epsilon=2.0, delta=0.1)
        return {"x": np.array(est.x), "q": q, "dof": law.dof, "nc": law.noncentrality,
                "value": release.value, "release_dof": release.law.dof,
                "release_nc": release.law.noncentrality}

    def check(self, inp, out):
        from scipy import linalg

        z, _ = inp
        if self._nc is None:
            self._nc = attack_nc(self.H, self.attack, self.sigma)
        x_ref = linalg.lstsq(self.H, z)[0]
        r = z - self.H @ x_ref
        q_ref = float(r @ r) / self.sigma**2
        problems = []
        if not np.allclose(out["x"], x_ref, rtol=1e-8, atol=1e-10):
            problems.append("state estimate differs from lstsq")
        if not math.isclose(out["q"], q_ref, rel_tol=1e-9):
            problems.append(f"wssr {out['q']!r} != oracle {q_ref!r}")
        if out["dof"] != self.m - self.n or out["release_dof"] != self.m - self.n + 1:
            problems.append(f"dof {out['dof']}/{out['release_dof']} != m-n(+1)")
        for key in ("nc", "release_nc"):
            if not math.isclose(out[key], self._nc, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{key} {out[key]!r} != oracle {self._nc!r}")
        if not (math.isfinite(out["value"]) and out["value"] >= out["q"]):
            problems.append(f"release {out['value']!r} is not q plus nonnegative noise")
        return problems

    def corrupt(self, out):
        return dict(out, q=out["q"] * (1 + 1e-6))

    def units(self, out):
        return 1


class CliWorkload(Workload):
    """A workload whose op is one or more in-process ``cli.main`` calls."""

    m: int
    n: int
    lam: float
    outputs: tuple[str, ...] = ()  # files the op writes, read back for the check

    def config(self, model_csv: Path, attack_idx) -> dict:
        raise NotImplementedError

    def commands(self, cfg: Path, out: Path, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def make_input(self, op):
        rng = op_rng(self.seed, self.index, op)
        H = rng.standard_normal((self.m, self.n))
        idx = sorted(int(i) for i in rng.choice(self.m, size=len(ATTACK_VALUES),
                                                replace=False))
        attack = np.zeros(self.m)
        attack[idx] = ATTACK_VALUES
        seed = int(rng.integers(2**63))
        opdir = self.workdir / f"op{op}"
        opdir.mkdir(parents=True, exist_ok=True)
        model_csv = opdir / "model.csv"
        write_model_csv(model_csv, H, 1.0, self.lam)
        cfg = opdir / "config.yaml"  # JSON is valid YAML
        cfg.write_text(json.dumps(self.config(model_csv, idx), indent=1))
        out = opdir / "out"
        return CliInput(seed=seed, argv=self.commands(cfg, out, seed),
                        out=out, H=H, attack=attack)

    def run(self, inp):
        codes = []
        sink = io.StringIO()
        for argv in inp.argv:
            with self.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink):
                codes.append(self.pkg.cli.main(argv))
        out = CliOutput(codes=codes)
        for name in self.outputs:
            path = inp.out / name
            if path.exists():
                out.files[name] = read_table(path)
        return out

    def check_codes(self, out) -> list[str]:
        problems = [f"exit code {c} from {i}" for i, c in enumerate(out.codes) if c != 0]
        problems += [f"missing {name}" for name in self.outputs if name not in out.files]
        return problems

    def cleanup(self, inp):
        shutil.rmtree(inp.out.parent)


def _common_config(model_csv: Path, m: int, n: int, lam: float, idx) -> dict:
    return {
        "model": {"m": m, "n": n, "sigma": 1.0, "lambda": lam,
                  "matrix_source": str(model_csv)},
        "attack": {"indices": list(idx), "values": list(ATTACK_VALUES)},
        "test": {"alpha": 0.05},
        "mc": {"trials": MC_TRIALS, "seed": 7, "workers": 1},
    }


def _floats(rows, col: int) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


class DeltaCurve(CliWorkload):
    name = "delta_curve_200x20"
    index = 2
    unit = "delta_rows"
    m, n, lam = 200, 20, 0.0
    sizes = {"m": m, "n": n, "lambda": lam, "epsilons": len(DP_CURVE["epsilon_grid"]),
             "scan_count": DP_CURVE["neighborhood"]["scan_count"],
             "grid_points": DP_CURVE["neighborhood"]["grid_points"]}
    outputs = ("delta_curve.csv",)

    def config(self, model_csv, idx):
        return dict(_common_config(model_csv, self.m, self.n, self.lam, idx), dp=DP_CURVE)

    def commands(self, cfg, out, seed):
        return [["delta-curve", "--config", str(cfg), "--out", str(out),
                 "--seed", str(seed), "--workers", "1"]]

    def check(self, inp, out):
        problems = self.check_codes(out)
        if problems:
            return problems
        cols, rows = out.files["delta_curve.csv"]
        grid = DP_CURVE["epsilon_grid"]
        if len(rows) != len(grid):
            return [f"{len(rows)} curve rows for {len(grid)} epsilons"]
        eps = _floats(rows, cols.index("epsilon"))
        delta = _floats(rows, cols.index("delta"))
        if not np.array_equal(eps, grid):
            problems.append(f"epsilon column {eps.tolist()} != grid {grid}")
        if not np.all(np.isfinite(delta) & (delta >= 0) & (delta <= 1)):
            problems.append(f"delta outside [0, 1]: {delta.tolist()}")
        return problems

    def corrupt(self, out):
        cols, rows = out.files["delta_curve.csv"]
        k = cols.index("delta")
        bad = [list(r) for r in rows]
        bad[0][k] = "1.5"
        return CliOutput(codes=out.codes, files={"delta_curve.csv": (cols, bad)})

    def units(self, out):
        return len(out.files["delta_curve.csv"][1]) if "delta_curve.csv" in out.files else 0


class RocFigures(CliWorkload):
    name = "roc_figures_200x20"
    index = 3
    unit = "roc_points"
    m, n, lam = 200, 20, 0.0
    sizes = {"m": m, "n": n, "lambda": lam, "alpha_grid": ALPHA_GRID_SIZE,
             "fig4_curves": FIG4_CURVES}
    outputs = ("roc.csv", "auroc.csv", "fig4_auroc.csv")

    def config(self, model_csv, idx):
        dp = {"mechanism": "chi_square", "epsilon": 2.0, "delta": 0.1, "r_prime": 1}
        return dict(_common_config(model_csv, self.m, self.n, self.lam, idx), dp=dp)

    def commands(self, cfg, out, seed):
        return [["roc", "--config", str(cfg), "--out", str(out), "--seed", str(seed)],
                ["figures", "--which", "fig4", "--config", str(cfg), "--out", str(out),
                 "--seed", str(seed)]]

    def check(self, inp, out):
        from scipy import stats

        problems = self.check_codes(out)
        if problems:
            return problems
        cols, rows = out.files["roc.csv"]
        alpha = _floats(rows, cols.index("alpha"))
        grid = np.logspace(-4.0, math.log10(0.999), ALPHA_GRID_SIZE)
        if alpha.shape != grid.shape or not np.allclose(alpha, grid, rtol=1e-12, atol=0):
            return ["roc.csv alpha column is not the default 512-point grid"]
        dof = self.m - self.n
        tau = stats.chi2.isf(alpha, dof)
        nc = attack_nc(inp.H, inp.attack, 1.0)
        pfa_ref = stats.chi2.sf(tau, dof + 1)
        pd_ref = stats.ncx2.sf(tau, dof + 1, nc)
        for col, ref in (("pfa", pfa_ref), ("pd", pd_ref)):
            got = _floats(rows, cols.index(col))
            err = np.max(np.abs(got - ref))
            if not err <= 1e-9:
                problems.append(f"roc.csv {col} off the scipy oracle by {err:.3g}")
        for name, want in (("auroc.csv", 1), ("fig4_auroc.csv", FIG4_CURVES)):
            cols, rows = out.files[name]
            auroc = _floats(rows, cols.index("auroc"))
            if len(auroc) != want:
                problems.append(f"{name} has {len(auroc)} rows, expected {want}")
            if not np.all((auroc >= 0) & (auroc <= 1)):
                problems.append(f"{name} has an AUROC outside [0, 1]")
        return problems

    def corrupt(self, out):
        cols, rows = out.files["roc.csv"]
        k = cols.index("pd")
        bad = [list(r) for r in rows]
        bad[len(bad) // 2][k] = repr(float(bad[len(bad) // 2][k]) + 1e-6)
        return CliOutput(codes=out.codes, files=dict(out.files, **{"roc.csv": (cols, bad)}))

    def units(self, out):
        if any(name not in out.files for name in self.outputs):
            return 0
        return len(out.files["roc.csv"][1]) + ALPHA_GRID_SIZE * len(out.files["fig4_auroc.csv"][1])


class RidgeValidate(CliWorkload):
    name = "ridge_validate_200x300"
    index = 4
    unit = "mc_trials"
    m, n, lam = 200, 300, 1.0
    sizes = {"m": m, "n": n, "lambda": lam, "trials": MC_TRIALS,
             "mechanism": "gaussian_output", "nu_sigma": 1.0}
    outputs = ("validation.csv",)

    def config(self, model_csv, idx):
        dp = {"mechanism": "gaussian_output", "epsilon": 2.0, "delta": 0.1,
              "nu_mean": 0.0, "nu_sigma": 1.0}
        return dict(_common_config(model_csv, self.m, self.n, self.lam, idx), dp=dp)

    def commands(self, cfg, out, seed):
        return [["validate", "--config", str(cfg), "--out", str(out),
                 "--seed", str(seed), "--workers", "1"]]

    def check(self, inp, out):
        problems = self.check_codes(out)
        if "validation.csv" in out.files:
            cols, rows = out.files["validation.csv"]
            if [r[cols.index("quantity")] for r in rows] != ["pfa", "pd"]:
                problems.append("validation.csv rows are not pfa, pd")
            for col in ("analytic", "empirical"):
                v = _floats(rows, cols.index(col))
                if not np.all(np.isfinite(v) & (v >= 0) & (v <= 1)):
                    problems.append(f"validation.csv {col} outside [0, 1]")
        return problems

    def chance_failure(self, inp, out):
        # Exit 4 is the command's own 3-standard-error gate, which a correct
        # op fails with probability about 0.5%. Such a failure is counted as
        # chance only when nothing else about the output is wrong and the
        # worst deviation, recomputed from validation.csv, is just past the
        # gate; a wrong law misses by many standard errors on every op.
        if out.codes != [4] or self.check(inp, CliOutput([0], out.files)):
            return False
        return 3.0 < self.worst_deviation(out) <= CHANCE_MAX_SE

    @staticmethod
    def worst_deviation(out) -> float:
        """Largest |empirical - analytic| / se over the rows of validation.csv."""
        cols, rows = out.files["validation.csv"]
        analytic, empirical, se = (_floats(rows, cols.index(c))
                                   for c in ("analytic", "empirical", "se"))
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.abs(empirical - analytic) / se
        return float(np.max(np.where(np.isnan(dev), np.inf, dev)))

    def corrupt(self, out):
        # A law off by ten standard errors, as a wrong chi_mixture would give.
        cols, rows = out.files["validation.csv"]
        k, se = cols.index("empirical"), cols.index("se")
        bad = [list(r) for r in rows]
        bad[1][k] = repr(float(bad[1][k]) + 10 * float(bad[1][se]))
        return CliOutput(codes=[4], files={"validation.csv": (cols, bad)})

    def units(self, out):
        # validation.csv is written before the gate, so an op that fails the
        # gate by chance still delivered its trials.
        return MC_TRIALS if "validation.csv" in out.files else 0


WORKLOADS = {w.name: w for w in (ReleaseLoop, DeltaCurve, RocFigures, RidgeValidate)}
