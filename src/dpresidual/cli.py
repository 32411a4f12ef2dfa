"""Command-line front end.

Subcommands: one per ``COMMANDS`` entry. Every command is driven by a YAML
configuration (see config module) and writes CSV/JSON artifacts whose
headers record the schema version, config hash, and seed; under a fixed
seed the outputs are byte-identical.

Exit codes: 0 success, 2 schema/usage error, 3 numeric failure, 4 Monte
Carlo validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import figures as figs
from .config import (
    STREAM_DP,
    STREAM_MC,
    STREAM_NOISE,
    STREAM_SCAN,
    STREAM_STATE,
    STREAM_MATRIX,
    ExperimentConfig,
    build_attack,
    build_model,
    derive_streams,
    load_config,
)
from .csvio import read_csv, write_csv
from .detection import (
    DEFAULT_ALPHA_GRID,
    MIN_TRIALS,
    RocCurve,
    TestSpec,
    monte_carlo_validate,
    pfa_pd,
)
from .dp_mechanism import (
    Mechanism,
    delta_max_over_neighborhood,
    input_perturbation_noise,
    input_perturbation_release,
    output_release,
)
from .estimation import chi_mixture, gaussian_law, residual_law, wls_estimate, wssr
from .exceptions import NumericError, SchemaError, ValidationFailure
from .measurement_model import MeasurementModel, simulate_measurements
from .special_functions import ABS_TOL

# Named, not __name__: under ``python -m dpresidual.cli`` that is __main__,
# outside the "dpresidual" logger that _stderr_logging configures.
logger = logging.getLogger("dpresidual.cli")

MEASUREMENTS_SCHEMA = "dpresidual-measurements/1"
DELTA_CURVE_CLI_SCHEMA = "dpresidual-delta-curve-cli/1"
VALIDATION_SCHEMA = "dpresidual-validation/1"
ROC_SCHEMA = "dpresidual-roc/1"
AUROC_SCHEMA = "dpresidual-auroc/1"
LOG_LEVELS = {"warning": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
# Per figure: a builder returning its tables, and the (file, schema) of each
# table. The builders look each function up on the figures module when
# called, so a wrapper bound there (perfbench's tracer) is the one that runs.
FIGURES = {
    "fig3": (lambda config, seed: figs.attack_strength_roc(config),
             (("fig3_roc.csv", "dpresidual-fig3-roc/1"),
              ("fig3_auroc.csv", "dpresidual-fig3-auroc/1"))),
    "fig4": (lambda config, seed: (figs.input_perturbation_auroc(config),),
             (("fig4_auroc.csv", "dpresidual-fig4-auroc/1"),)),
    "fig5": (lambda config, seed: (figs.output_noise_auroc(config),),
             (("fig5_auroc.csv", "dpresidual-fig5-auroc/1"),)),
    "fig6": (lambda config, seed: (figs.output_noise_metrics(config, seed=seed),),
             (("fig6_metrics.csv", "dpresidual-fig6-metrics/1"),)),
}


def _meta(config: ExperimentConfig, seed: int) -> dict:
    return {"config_hash": config.config_hash, "seed": seed}


def _effective(config: ExperimentConfig, args) -> tuple[ExperimentConfig, int]:
    """Apply the --seed override; returns (config, seed)."""
    if args.seed is not None:
        config = replace(config, mc=replace(config.mc, seed=args.seed))
    return config, config.mc.seed


def _write_json(path: Path, schema: str, config: ExperimentConfig, seed: int,
                doc: dict) -> None:
    """Write ``doc`` with the schema, config hash and seed that head every artifact.

    JSON has no inf or nan, so a number that is not finite (an input that
    overflowed it) raises NumericError and writes nothing."""
    doc = {**doc, "schema": schema, **_meta(config, seed)}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path} not written: {exc}") from exc
    path.write_text(text + "\n")


def _require(config: ExperimentConfig, *sections: str) -> None:
    for name in sections:
        if getattr(config, name) is None:
            raise SchemaError(f"this command requires the {name!r} config section")


def _build_instance(config: ExperimentConfig, seed: int):
    streams = derive_streams(seed)
    model = build_model(config.model, streams[STREAM_MATRIX])
    x_true = streams[STREAM_STATE].generator.standard_normal(model.n)
    attack = build_attack(config.attack, model)
    return streams, model, x_true, attack


def _load_measurements(path: Path | None, out: Path, config: ExperimentConfig,
                       seed: int, m: int) -> np.ndarray:
    """The m finite z values of the measurements CSV (default OUT/measurements.csv)."""
    hint = "" if path else "; run simulate first or pass --measurements"
    path = path or out / "measurements.csv"
    try:
        meta, columns, rows = read_csv(path)
    except OSError as exc:
        raise SchemaError(f"measurements {path}: {exc.strerror or exc}{hint}") from exc
    except ValueError as exc:
        raise SchemaError(f"measurements {path}: {exc}") from exc
    if meta.get("schema") != MEASUREMENTS_SCHEMA:
        raise SchemaError(f"unexpected measurements schema {meta.get('schema')!r}")
    if meta.get("config_hash") != config.config_hash or meta.get("seed") != str(seed):
        raise SchemaError(
            f"measurements in {path} were produced under config_hash="
            f"{meta.get('config_hash')} seed={meta.get('seed')}, but this run uses "
            f"config_hash={config.config_hash} seed={seed}; the rebuilt model "
            "would not match"
        )
    if "z" not in columns:
        raise SchemaError(f"measurements {path} has no 'z' column")
    col = columns.index("z")
    try:
        z = np.array([float(r[col]) for r in rows])
    except (IndexError, ValueError) as exc:
        raise SchemaError(f"measurements {path}: a z cell is missing or not a number "
                          f"({exc})") from exc
    if z.shape != (m,) or not np.isfinite(z).all():
        raise SchemaError(f"measurements {path}: the model needs {m} finite z values, got "
                          f"{z.size} ({np.count_nonzero(~np.isfinite(z))} not finite)")
    return z


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(config: ExperimentConfig, out: Path, seed: int, args) -> int:
    _require(config, "model")
    streams, model, x_true, attack = _build_instance(config, seed)
    z = simulate_measurements(model, x_true, attack, streams[STREAM_NOISE])
    write_csv(out / "measurements.csv", MEASUREMENTS_SCHEMA,
              ["index", "z"], [[i, float(v)] for i, v in enumerate(z)],
              meta=_meta(config, seed))
    truth = {
        "x_true": [float(v) for v in x_true],
        "attack": [float(v) for v in attack.a],
    }
    _write_json(out / "truth.json", "dpresidual-truth/1", config, seed, truth)
    return 0


def cmd_estimate(config: ExperimentConfig, out: Path, seed: int, args) -> int:
    _require(config, "model")
    streams, model, _, _ = _build_instance(config, seed)
    z = _load_measurements(args.measurements, out, config, seed, model.m)
    x_star = wls_estimate(model, z)
    q = wssr(model, z)
    law = residual_law(model, x_star, None)  # analyst view: plug-in state
    result = {
        "x_star": [float(v) for v in x_star.x],
        "wssr": float(q),
        "dof": law.dof,
        # State-dependent only in the ridge-regularized case; labeled as the
        # plug-in value since the true state is unknown to the analyst.
        "noncentrality_plugin": law.noncentrality,
    }
    _write_json(out / "estimate.json", "dpresidual-estimate/1", config, seed, result)
    return 0


def cmd_privatize(config: ExperimentConfig, out: Path, seed: int, args) -> int:
    _require(config, "model", "dp")
    streams, model, x_true, attack = _build_instance(config, seed)
    z = _load_measurements(args.measurements, out, config, seed, model.m)
    dp_stream = streams[STREAM_DP]
    params = config.dp.params

    if params.mechanism is Mechanism.GAUSSIAN_INPUT:
        result = input_perturbation_release(model, z, params.epsilon, params.delta,
                                            dp_stream)
        payload = {
            "mechanism": "gaussian_input",
            "epsilon": params.epsilon,
            "delta": params.delta,
            "k": result.k,
            "sigma_w": result.sigma_w,
            "epsilon_per_element": result.epsilon_per_element,
            "z_tilde": [float(v) for v in result.z_tilde],
            "seed_record": result.seed,
        }
    else:
        q = float(wssr(model, z))
        law = _laws_for_roc(config, model, x_true, attack)[1]
        release = output_release(law, q, params, dp_stream)
        payload = {
            **vars(params),  # the budget and every knob field, unset ones null
            "mechanism": params.mechanism.value,
            "value": release.value,
            "law": {**vars(release.law), "regime": release.law.regime.value},
            "seed_record": release.seed,
        }
    _write_json(out / "release.json", "dpresidual-release/1", config, seed, payload)
    return 0


def cmd_delta_curve(config: ExperimentConfig, out: Path, seed: int, args) -> int:
    _require(config, "model", "dp")
    dp = config.dp
    if dp.epsilon_grid is None or dp.neighborhood is None:
        raise SchemaError("delta-curve requires dp.epsilon_grid and dp.neighborhood")
    if dp.r_prime is None:
        raise SchemaError("delta-curve requires dp.r_prime")
    if config.model.lam > 0:
        raise SchemaError("delta-curve's neighbour scan assumes an unregularized "
                          "model (model.lambda = 0)")
    streams, model, x_true, attack = _build_instance(config, seed)
    eps = np.asarray(dp.epsilon_grid, dtype=float)
    result = delta_max_over_neighborhood(eps, model, attack, dp.r_prime,
                                         dp.neighborhood, streams[STREAM_SCAN])
    # Each of delta's two Marcum-Q tails sums nonnegative terms and leaves
    # out at most ABS_TOL, so the true delta lies in [delta, delta + 2 ABS_TOL].
    bound = np.minimum(1.0, result.delta + 2.0 * ABS_TOL)
    rows = np.column_stack([eps, result.delta, result.argmax_theta,
                            result.argmax_theta_prime, bound]).tolist()
    write_csv(out / "delta_curve.csv", DELTA_CURVE_CLI_SCHEMA,
              ["epsilon", "delta", "argmax_theta", "argmax_theta_prime", "delta_bound"],
              rows, meta=_meta(config, seed))
    return 0


def _laws_for_roc(config: ExperimentConfig, model, x_true, attack):
    """(law0, law1, dp_params, label, sim_model) for the configured regime.

    The one law-selection rule: ``roc`` and ``validate`` test law0 against
    law1, and ``privatize`` releases under law1. ``sim_model`` is the
    model whose clean pipeline realizes the laws: the original model,
    except under input perturbation where the added measurement noise is
    equivalent to inflating the noise scale by sqrt(1 + k).
    Ridge-regularized residuals are weighted chi-square mixtures rather
    than plain chi-squares, so they, like the gaussian output release, use
    the moment-matched Gaussian laws; a warning names rho whenever such a
    law has no sup-density bound. Only the output releases carry privacy
    params into the test. The chi-square release analytics (and the
    guarantee scan behind them) assume the unregularized model, which the
    config schema enforces.
    """
    params = config.dp.params if config.dp is not None else None
    mechanism = params.mechanism if params is not None else None
    sim_model = model
    if mechanism is Mechanism.GAUSSIAN_INPUT:
        # Perturbing every entry inflates the noise variance by (1+k) and
        # shrinks the noncentrality accordingly; the test itself stays clean.
        _, k = input_perturbation_noise(model.m, model.sigma, params.epsilon,
                                        params.delta)
        sim_model = MeasurementModel(H=model.H, sigma=model.sigma * (1 + k) ** 0.5,
                                     lam=model.lam)
        params = None
    if model.lam > 0 or mechanism is Mechanism.GAUSSIAN_OUTPUT:
        approx = [gaussian_law(chi_mixture(sim_model, x_true, a)) for a in (None, attack)]
        if not all(g.bound_available for g in approx):
            logger.warning(
                "moment-matched Gaussian law applied without a sup-density bound: "
                "rho=%.3g (the bound needs rho < 1/8); pfa/pd are unbounded "
                "approximations", max(g.rho for g in approx))
        law0, law1 = (g.law for g in approx)
    else:
        law0, law1 = (residual_law(sim_model, x_true, a) for a in (None, attack))
    label = mechanism.value if mechanism is not None else "none"
    return law0, law1, params, label, sim_model


def cmd_roc(config: ExperimentConfig, out: Path, seed: int, args) -> int:
    _require(config, "model")
    streams, model, x_true, attack = _build_instance(config, seed)
    law0, law1, params, label, _ = _laws_for_roc(config, model, x_true, attack)
    alphas = np.array(config.test.alpha_grid) if config.test.alpha_grid is not None \
        else DEFAULT_ALPHA_GRID
    pfa, pd = pfa_pd(TestSpec(alpha=alphas, law0=law0, law1=law1, dp=params))
    curve = RocCurve.from_points(np.column_stack((pfa, pd)))
    params_str = "" if params is None else ";".join(
        f"{k}={v}" for k, v in vars(params).items()
        if k != "mechanism" and v is not None
    )
    rows = [[*point, label, params_str]
            for point in np.column_stack((alphas, pfa, pd)).tolist()]
    write_csv(out / "roc.csv", ROC_SCHEMA, ["alpha", "pfa", "pd", "mechanism", "params"],
              rows, meta=_meta(config, seed))
    write_csv(out / "auroc.csv", AUROC_SCHEMA, ["mechanism", "params", "auroc"],
              [[label, params_str, curve.auroc]], meta=_meta(config, seed))
    return 0


def cmd_validate(config: ExperimentConfig, out: Path, seed: int, args) -> int:
    workers = args.workers if args.workers is not None else config.mc.workers
    if workers > 1:
        logger.warning("workers=%d ignored: the Monte Carlo trials run in one "
                       "process", workers)
    _require(config, "model")
    if config.mc.trials < MIN_TRIALS:
        raise SchemaError(f"validate needs mc.trials >= {MIN_TRIALS}, "
                          f"got {config.mc.trials}")
    streams, model, x_true, attack = _build_instance(config, seed)
    law0, law1, params, label, sim_model = _laws_for_roc(config, model, x_true, attack)
    spec = TestSpec(alpha=config.test.alpha, law0=law0, law1=law1, dp=params)
    result = monte_carlo_validate(sim_model, attack, spec, config.mc.trials,
                                  streams[STREAM_MC], x_true=x_true, check=False)
    rows = [
        ["pfa", result.pfa_analytic, result.pfa_hat, result.pfa_se],
        ["pd", result.pd_analytic, result.pd_hat, result.pd_se],
    ]
    write_csv(out / "validation.csv", VALIDATION_SCHEMA,
              ["quantity", "analytic", "empirical", "se"], rows,
              meta=_meta(config, seed))
    print(f"validate: pfa {result.pfa_hat:.5f} (analytic {result.pfa_analytic:.5f}), "
          f"pd {result.pd_hat:.5f} (analytic {result.pd_analytic:.5f})")
    result.check()
    return 0


def cmd_figures(config: ExperimentConfig | None, out: Path, seed: int, args) -> int:
    build, tables = FIGURES[args.which]
    meta = {"config_hash": config.config_hash if config else "default", "seed": seed}
    for (name, schema), (cols, rows) in zip(tables, build(config, seed), strict=True):
        write_csv(out / name, schema, cols, rows, meta=meta)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

COMMANDS = (
    ("simulate", cmd_simulate, "draw measurements and a truth sidecar"),
    ("estimate", cmd_estimate, "state estimate and residual statistic"),
    ("privatize", cmd_privatize, "release the residual under the configured mechanism"),
    ("delta-curve", cmd_delta_curve, "guarantee curve over the epsilon grid"),
    ("roc", cmd_roc, "analytic ROC and AUROC"),
    ("validate", cmd_validate, "Monte Carlo check of the analytics"),
    ("figures", cmd_figures, "figure-reproduction CSVs"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp-residual",
        description="Differentially private release and analysis of "
                    "state-estimation residual statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if name == "figures":
            p.add_argument("--which", required=True, choices=list(FIGURES))
        p.add_argument("--config", type=Path, required=name != "figures",
                       help="YAML experiment configuration")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--workers", type=int, default=None,
                       help="override mc.workers (>= 1; validate runs in one process)")
        p.add_argument("--log-level", choices=sorted(LOG_LEVELS), default="warning",
                       help="stderr logging: warning (default), info (stage times) "
                            "or debug (also Marcum-Q term counts)")
        if name in ("estimate", "privatize"):
            p.add_argument("--measurements", type=Path, default=None,
                           help="measurements CSV (default: OUT/measurements.csv)")
    return parser


@contextlib.contextmanager
def _stderr_logging(level: int):
    """Send the package's records at ``level`` and above to stderr, for the
    duration of the block only; the logger is left as it was found."""
    package = logging.getLogger("dpresidual")
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(level)
    saved = package.level
    package.setLevel(min(level, package.getEffectiveLevel()))
    package.addHandler(handler)
    try:
        yield
    finally:
        package.removeHandler(handler)
        package.setLevel(saved)


@contextlib.contextmanager
def _stage(name: str):
    """Log the wall time of a stage that completes, at INFO."""
    start = time.perf_counter()
    yield
    logger.info("stage %s: %.3f s", name, time.perf_counter() - start)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with _stderr_logging(LOG_LEVELS[args.log_level]):
        try:
            if args.workers is not None and args.workers < 1:
                raise SchemaError(f"--workers must be >= 1, got {args.workers}")
            if args.seed is not None and args.seed < 0:
                raise SchemaError(f"--seed must be >= 0, got {args.seed}")
            with _stage("load_config"):
                config = load_config(args.config) if args.config is not None else None
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            if config is not None:
                config, seed = _effective(config, args)
            else:
                seed = args.seed if args.seed is not None else 0
            with _stage(args.command):
                return args.run(config, out, seed, args)
        except SchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return 3
        except ValidationFailure as exc:
            print(f"validation failure: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
