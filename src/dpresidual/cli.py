"""Command-line front end.

Subcommands: simulate, estimate, privatize, delta-curve, roc, validate,
figures. Every command is driven by a YAML configuration (see config
module) and writes CSV/JSON artifacts whose headers record the schema
version, config hash, and seed; under a fixed seed the outputs are
byte-identical.

Exit codes: 0 success, 2 schema/usage error, 3 numeric failure, 4 Monte
Carlo validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    build_privacy_params,
    derive_streams,
    load_config,
)
from .csvio import read_csv, write_csv
from .detection import (
    DEFAULT_ALPHA_GRID,
    RocCurve,
    TestSpec,
    monte_carlo_validate,
    pfa_pd,
    write_auroc_csv,
    write_roc_csv,
)
from .dp_mechanism import (
    Mechanism,
    chi_square_release,
    delta_max_over_neighborhood,
    gaussian_mechanism_sigma,
    gaussian_output_release,
    input_perturbation_release,
)
from .estimation import chi_mixture, gaussian_law, residual_law, wls_estimate, wssr
from .exceptions import NumericError, SchemaError, ValidationFailure
from .measurement_model import MeasurementModel

MEASUREMENTS_SCHEMA = "dpresidual-measurements/1"
DELTA_CURVE_CLI_SCHEMA = "dpresidual-delta-curve-cli/1"
VALIDATION_SCHEMA = "dpresidual-validation/1"
FIGURE_SCHEMAS = {
    "fig3_roc": "dpresidual-fig3-roc/1",
    "fig3_auroc": "dpresidual-fig3-auroc/1",
    "fig4": "dpresidual-fig4-auroc/1",
    "fig5": "dpresidual-fig5-auroc/1",
    "fig6": "dpresidual-fig6-metrics/1",
}


def _meta(config: ExperimentConfig, seed: int) -> dict:
    return {"config_hash": config.config_hash, "seed": seed}


def _effective(config: ExperimentConfig, args) -> tuple[ExperimentConfig, int, int]:
    """Apply --seed/--workers overrides; returns (config, seed, workers)."""
    mc = config.mc
    if args.seed is not None:
        mc = replace(mc, seed=args.seed)
    if args.workers is not None:
        mc = replace(mc, workers=args.workers)
    config = replace(config, mc=mc)
    return config, config.mc.seed, config.mc.workers


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


def _load_measurements(path, config: ExperimentConfig, seed: int) -> np.ndarray:
    meta, columns, rows = read_csv(path)
    if meta.get("schema") != MEASUREMENTS_SCHEMA:
        raise SchemaError(f"unexpected measurements schema {meta.get('schema')!r}")
    if meta.get("config_hash") != config.config_hash or meta.get("seed") != str(seed):
        raise SchemaError(
            f"measurements in {path} were produced under config_hash="
            f"{meta.get('config_hash')} seed={meta.get('seed')}, but this run uses "
            f"config_hash={config.config_hash} seed={seed}; the rebuilt model "
            "would not match"
        )
    col = columns.index("z")
    return np.array([float(r[col]) for r in rows])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(config: ExperimentConfig, out: Path, seed: int, workers: int) -> int:
    _require(config, "model")
    streams, model, x_true, attack = _build_instance(config, seed)
    z = model.H @ x_true + attack.a \
        + model.sigma * streams[STREAM_NOISE].generator.standard_normal(model.m)
    write_csv(out / "measurements.csv", MEASUREMENTS_SCHEMA,
              ["index", "z"], [[i, float(v)] for i, v in enumerate(z)],
              meta=_meta(config, seed))
    truth = {
        "schema": "dpresidual-truth/1",
        "config_hash": config.config_hash,
        "seed": seed,
        "x_true": [float(v) for v in x_true],
        "attack": [float(v) for v in attack.a],
    }
    (out / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_estimate(config: ExperimentConfig, out: Path, seed: int,
                 measurements: Path | None) -> int:
    _require(config, "model")
    streams, model, _, _ = _build_instance(config, seed)
    z = _load_measurements(measurements or out / "measurements.csv", config, seed)
    x_star = wls_estimate(model, z)
    q = wssr(model, z)
    law = residual_law(model, x_star, None)  # analyst view: plug-in state
    result = {
        "schema": "dpresidual-estimate/1",
        "config_hash": config.config_hash,
        "seed": seed,
        "x_star": [float(v) for v in x_star.x],
        "wssr": float(q),
        "dof": law.dof,
        # State-dependent only in the ridge-regularized case; labeled as the
        # plug-in value since the true state is unknown to the analyst.
        "noncentrality_plugin": law.noncentrality,
    }
    (out / "estimate.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_privatize(config: ExperimentConfig, out: Path, seed: int,
                  measurements: Path | None) -> int:
    _require(config, "model", "dp")
    streams, model, x_true, attack = _build_instance(config, seed)
    z = _load_measurements(measurements or out / "measurements.csv", config, seed)
    dp_stream = streams[STREAM_DP]
    dp = config.dp

    if dp.mechanism is Mechanism.GAUSSIAN_INPUT:
        result = input_perturbation_release(model, z, dp.epsilon, dp.delta, dp_stream)
        payload = {
            "schema": "dpresidual-release/1",
            "mechanism": "gaussian_input",
            "epsilon": dp.epsilon,
            "delta": dp.delta,
            "k": result.k,
            "sigma_w": result.sigma_w,
            "epsilon_per_element": result.epsilon_per_element,
            "z_tilde": [float(v) for v in result.z_tilde],
            "seed_record": result.seed,
        }
    else:
        q = float(wssr(model, z))
        if dp.mechanism is Mechanism.CHI_SQUARE:
            law = residual_law(model, x_true, attack)
            release = chi_square_release(law, q, dp.r_prime, dp_stream,
                                         epsilon=dp.epsilon, delta=dp.delta)
        else:
            approx = gaussian_law(chi_mixture(model, x_true, attack))
            release = gaussian_output_release(approx.law, q, dp.nu_mean, dp.nu_sigma,
                                              dp_stream, epsilon=dp.epsilon,
                                              delta=dp.delta)
        law_doc = {
            "regime": release.law.regime.value,
            "dof": release.law.dof,
            "noncentrality": release.law.noncentrality,
            "mean": release.law.mean,
            "variance": release.law.variance,
        }
        payload = {
            "schema": "dpresidual-release/1",
            "mechanism": dp.mechanism.value,
            "epsilon": dp.epsilon,
            "delta": dp.delta,
            "r_prime": dp.r_prime,
            "nu_mean": dp.nu_mean,
            "nu_sigma": dp.nu_sigma,
            "value": release.value,
            "law": law_doc,
            "seed_record": release.seed,
        }
    payload["config_hash"] = config.config_hash
    payload["seed"] = seed
    (out / "release.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_delta_curve(config: ExperimentConfig, out: Path, seed: int,
                    workers: int = 1) -> int:
    _require(config, "model", "dp")
    dp = config.dp
    if dp.epsilon_grid is None or dp.neighborhood is None:
        raise SchemaError("delta-curve requires dp.epsilon_grid and dp.neighborhood")
    if dp.r_prime is None:
        raise SchemaError("delta-curve requires dp.r_prime")
    streams, model, x_true, attack = _build_instance(config, seed)
    scan_children = streams[STREAM_SCAN].spawn(len(dp.epsilon_grid))
    rows = []
    for eps, child in zip(dp.epsilon_grid, scan_children):
        result = delta_max_over_neighborhood(eps, model, attack, dp.r_prime,
                                             dp.neighborhood, child,
                                             workers=workers)
        rows.append([float(eps), result.delta, result.argmax_theta,
                     result.argmax_theta_prime])
    write_csv(out / "delta_curve.csv", DELTA_CURVE_CLI_SCHEMA,
              ["epsilon", "delta", "argmax_theta", "argmax_theta_prime"],
              rows, meta=_meta(config, seed))
    return 0


def _laws_for_roc(config: ExperimentConfig, model, x_true, attack):
    """(law0, law1, dp_params, label, sim_model) for the configured regime.

    ``sim_model`` is the model whose clean pipeline realizes the laws:
    the original model, except under input perturbation where the added
    measurement noise is equivalent to inflating the noise scale by
    sqrt(1 + k). Ridge-regularized residuals are weighted chi-square
    mixtures rather than plain chi-squares, so they, like the gaussian
    output release, use the moment-matched Gaussian laws. Only the output
    releases carry privacy params into the test. The chi-square release
    analytics (and the guarantee scan behind them) assume the
    unregularized model.
    """
    dp = config.dp
    mechanism = dp.mechanism if dp is not None else None
    if model.lam > 0 and mechanism is Mechanism.CHI_SQUARE:
        raise SchemaError(
            "dp.mechanism chi_square assumes an unregularized model "
            "(model.lambda = 0); use gaussian_output for ridge models"
        )
    sim_model = model
    if mechanism is Mechanism.GAUSSIAN_INPUT:
        # Perturbing every entry inflates the noise variance by (1+k) and
        # shrinks the noncentrality accordingly; the test itself stays clean.
        sigma_w = gaussian_mechanism_sigma(1.0, dp.epsilon / model.m, dp.delta)
        k = sigma_w**2 / model.sigma**2
        sim_model = MeasurementModel(H=model.H, sigma=model.sigma * (1 + k) ** 0.5,
                                     lam=model.lam)
    if model.lam > 0 or mechanism is Mechanism.GAUSSIAN_OUTPUT:
        law0, law1 = (gaussian_law(chi_mixture(sim_model, x_true, a)).law
                      for a in (None, attack))
    else:
        law0, law1 = (residual_law(sim_model, x_true, a) for a in (None, attack))
    params = build_privacy_params(dp) \
        if mechanism in (Mechanism.CHI_SQUARE, Mechanism.GAUSSIAN_OUTPUT) else None
    label = mechanism.value if mechanism is not None else "none"
    return law0, law1, params, label, sim_model


def cmd_roc(config: ExperimentConfig, out: Path, seed: int) -> int:
    _require(config, "model")
    streams, model, x_true, attack = _build_instance(config, seed)
    law0, law1, params, label, _ = _laws_for_roc(config, model, x_true, attack)
    alphas = np.array(config.test.alpha_grid) if config.test.alpha_grid is not None \
        else DEFAULT_ALPHA_GRID
    points = list(zip(*pfa_pd(TestSpec(alpha=alphas, law0=law0, law1=law1, dp=params))))
    curve = RocCurve.from_points(points)
    params_str = "" if params is None else ";".join(
        f"{k}={getattr(params, k)}"
        for k in ("epsilon", "delta", "r_prime", "nu_mean", "nu_sigma", "input_k")
        if getattr(params, k) is not None
    )
    write_roc_csv(out / "roc.csv", [(label, params_str, alphas, points)],
                  meta=_meta(config, seed))
    write_auroc_csv(out / "auroc.csv", [[label, params_str, curve.auroc]],
                    meta=_meta(config, seed))
    return 0


def cmd_validate(config: ExperimentConfig, out: Path, seed: int, workers: int) -> int:
    _require(config, "model")
    streams, model, x_true, attack = _build_instance(config, seed)
    law0, law1, params, label, sim_model = _laws_for_roc(config, model, x_true, attack)
    spec = TestSpec(alpha=config.test.alpha, law0=law0, law1=law1, dp=params)
    result = monte_carlo_validate(sim_model, attack, spec, config.mc.trials,
                                  streams[STREAM_MC], x_true=x_true,
                                  workers=workers, check=False)
    rows = [
        ["pfa", result.pfa_analytic, result.pfa_hat, result.pfa_se],
        ["pd", result.pd_analytic, result.pd_hat, result.pd_se],
    ]
    write_csv(out / "validation.csv", VALIDATION_SCHEMA,
              ["quantity", "analytic", "empirical", "se"], rows,
              meta=_meta(config, seed))
    name, sigmas = result.worst_offender()
    print(f"validate: pfa {result.pfa_hat:.5f} (analytic {result.pfa_analytic:.5f}), "
          f"pd {result.pd_hat:.5f} (analytic {result.pd_analytic:.5f})")
    if sigmas > 3.0:
        raise ValidationFailure(
            f"{name} deviates from the analytic value by {sigmas:.2f} standard errors"
        )
    return 0


def cmd_figures(which: str, config: ExperimentConfig | None, out: Path, seed: int) -> int:
    meta = {"config_hash": config.config_hash if config else "default", "seed": seed}
    if which == "fig3":
        (roc_cols, roc_rows), (auroc_cols, auroc_rows) = figs.attack_strength_roc(config)
        write_csv(out / "fig3_roc.csv", FIGURE_SCHEMAS["fig3_roc"], roc_cols, roc_rows, meta=meta)
        write_csv(out / "fig3_auroc.csv", FIGURE_SCHEMAS["fig3_auroc"], auroc_cols,
                  auroc_rows, meta=meta)
    elif which == "fig4":
        cols, rows = figs.input_perturbation_auroc(config)
        write_csv(out / "fig4_auroc.csv", FIGURE_SCHEMAS["fig4"], cols, rows, meta=meta)
    elif which == "fig5":
        cols, rows = figs.output_noise_auroc(config)
        write_csv(out / "fig5_auroc.csv", FIGURE_SCHEMAS["fig5"], cols, rows, meta=meta)
    elif which == "fig6":
        cols, rows = figs.output_noise_metrics(config, seed=seed)
        write_csv(out / "fig6_metrics.csv", FIGURE_SCHEMAS["fig6"], cols, rows, meta=meta)
    else:
        raise SchemaError(f"unknown figure {which!r}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp-residual",
        description="Differentially private release and analysis of "
                    "state-estimation residual statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", type=Path, required=config_required,
                       help="YAML experiment configuration")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--workers", type=int, default=None, help="override mc.workers")

    common(sub.add_parser("simulate", help="draw measurements and a truth sidecar"))
    p_est = sub.add_parser("estimate", help="state estimate and residual statistic")
    common(p_est)
    p_est.add_argument("--measurements", type=Path, default=None,
                       help="measurements CSV (default: OUT/measurements.csv)")
    p_priv = sub.add_parser("privatize", help="release the residual under the configured mechanism")
    common(p_priv)
    p_priv.add_argument("--measurements", type=Path, default=None,
                        help="measurements CSV (default: OUT/measurements.csv)")
    common(sub.add_parser("delta-curve", help="guarantee curve over the epsilon grid"))
    common(sub.add_parser("roc", help="analytic ROC and AUROC"))
    common(sub.add_parser("validate", help="Monte Carlo check of the analytics"))
    p_fig = sub.add_parser("figures", help="figure-reproduction CSVs")
    p_fig.add_argument("--which", required=True, choices=["fig3", "fig4", "fig5", "fig6"])
    common(p_fig, config_required=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config is not None else None
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if config is not None:
            config, seed, workers = _effective(config, args)
        else:
            seed = args.seed if args.seed is not None else 0
            workers = args.workers if args.workers is not None else 1
        if args.command == "simulate":
            return cmd_simulate(config, out, seed, workers)
        if args.command == "estimate":
            return cmd_estimate(config, out, seed, args.measurements)
        if args.command == "privatize":
            return cmd_privatize(config, out, seed, args.measurements)
        if args.command == "delta-curve":
            return cmd_delta_curve(config, out, seed, workers)
        if args.command == "roc":
            return cmd_roc(config, out, seed)
        if args.command == "validate":
            return cmd_validate(config, out, seed, workers)
        if args.command == "figures":
            return cmd_figures(args.which, config, out, seed)
        raise SchemaError(f"unknown command {args.command!r}")
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
