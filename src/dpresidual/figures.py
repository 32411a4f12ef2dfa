"""Reference experiments behind the figure-reproduction CSVs.

Each function returns (columns, rows) ready for the CSV writer. The
baked-in defaults are the reference operating points: null mean 10 with
unit variance, alternative mean 13 (or a swept mean gap) with variance 4
(variance 2 for the attack-strength sweep), and the input-perturbation
baseline run at delta = 0.1 with unit per-element sensitivity.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig, FiguresConfig, McConfig
from .detection import (
    DEFAULT_ALPHA_GRID,
    TestSpec,
    auroc,
    auroc_family,
    pfa_pd,
    pfa_pd_family,
    sample_law,
    threshold,
)
from .dp_mechanism import PrivacyParams, input_perturbation_noise, release_noise
from .estimation import ResidualLaw
from .exceptions import SchemaError
from .streams import SeedStream

THETA_Z0 = 10.0
SIGMA_Z0 = 1.0
SIGMA_Z1_ATTACK_SWEEP = 2.0   # mean-gap sensitivity sweep
SIGMA_Z1_NOISE_SWEEP = 4.0    # release-noise sweeps
INPUT_DELTA = 0.1

DEFAULT_DELTA_THETA = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0)
DEFAULT_NU_SIGMA = tuple(float(v) for v in np.linspace(0.0, 5.0, 11))
DEFAULT_INPUT_NONCENTRALITY = (2.0, 5.0, 10.0)


def _figures_cfg(config: ExperimentConfig | None) -> FiguresConfig:
    if config is not None and config.figures is not None:
        return config.figures
    return FiguresConfig()


def attack_strength_roc(config: ExperimentConfig | None = None):
    """ROC degradation as the mean gap between hypotheses shrinks.

    Gaussian-regime laws N(10, 1) vs N(10 + gap, 4) over a gap sweep, all
    gaps in one ``pfa_pd_family`` call for the curves and one
    ``auroc_family`` call for their exact areas. Returns (roc_table,
    auroc_table).
    """
    fig = _figures_cfg(config)
    gaps = fig.delta_theta_values or DEFAULT_DELTA_THETA
    grid = DEFAULT_ALPHA_GRID
    law0 = ResidualLaw.gaussian(THETA_Z0, SIGMA_Z0**2)
    alternatives = [ResidualLaw.gaussian(THETA_Z0 + gap, SIGMA_Z1_ATTACK_SWEEP**2)
                    for gap in gaps]
    spec = TestSpec(alpha=grid, law0=law0, law1=alternatives[0])
    pfa, pds = pfa_pd_family(spec, alternatives)
    roc_rows = []
    for gap, pd in zip(gaps, pds):
        roc_rows.extend([gap, a, p, d] for a, p, d in zip(grid, pfa, pd))
    auroc_rows = [[gap, area]
                  for gap, area in zip(gaps, auroc_family(spec, alternatives).tolist())]
    return (
        (["delta_theta", "alpha", "pfa", "pd"], roc_rows),
        (["delta_theta", "auroc"], auroc_rows),
    )


def input_perturbation_auroc(config: ExperimentConfig | None = None):
    """AUROC against the per-element budget for the input-perturbed test.

    Perturbing every measurement with the standard Gaussian mechanism at
    per-element budget eps/m inflates the effective noise variance by
    (1 + k), shrinking the residual noncentrality to nc / (1 + k); the
    chi-square analytics then give the AUROC exactly. Every curve shares
    the central null law, so one ``auroc_family`` call gives every area;
    no curve point is evaluated. Reports both the per-element budget and
    the noise-ratio k columns.
    """
    fig = _figures_cfg(config)
    if config is not None and config.model is not None:
        m, dof = config.model.m, config.model.m - config.model.n
    else:
        m, dof = 20, 15
    if dof < 1:
        raise SchemaError(f"fig4 needs model.m > model.n, got m={m}, n={m - dof}")
    ncs = fig.delta_theta_values or DEFAULT_INPUT_NONCENTRALITY
    if any(nc < 0 for nc in ncs):
        raise SchemaError("figures.delta_theta_values are noncentralities for fig4 "
                          f"and must be >= 0, got {list(ncs)}")
    epsilons = fig.epsilon_values or tuple(
        float(e) for e in m * np.logspace(np.log10(0.05), np.log10(5.0), 16)
    )
    rows, alternatives = [], []
    for nc in ncs:
        for eps in epsilons:
            # k relative to unit measurement noise
            _, k = input_perturbation_noise(m, 1.0, eps, INPUT_DELTA)
            rows.append([nc, eps, eps / m, k])
            alternatives.append(ResidualLaw.chi_square(dof, nc / (1.0 + k)))
    spec = TestSpec(alpha=0.05, law0=ResidualLaw.chi_square(dof, 0.0), law1=alternatives[0])
    for row, area in zip(rows, auroc_family(spec, alternatives).tolist()):
        row.append(area)
    return ["delta_theta", "epsilon", "epsilon_per_element", "k_factor", "auroc"], rows


def _noise_sweep(config: ExperimentConfig | None) -> list[tuple[float, TestSpec]]:
    """(nu_sigma, test) per release-noise scale of the fig5/fig6 sweep.

    Gaussian-regime laws N(10, 1) vs N(13, 16) at target alpha = 0.05,
    with zero-mean release noise of standard deviation nu_sigma added to
    both; nu_sigma = 0 releases the clean statistic.
    """
    sweep = _figures_cfg(config).nu_sigma_values or DEFAULT_NU_SIGMA
    law0 = ResidualLaw.gaussian(THETA_Z0, SIGMA_Z0**2)
    law1 = ResidualLaw.gaussian(1.3 * THETA_Z0, SIGMA_Z1_NOISE_SWEEP**2)
    tests = []
    for nu_sigma in sweep:
        dp = PrivacyParams.gaussian_output(nu_mean=0.0, nu_sigma=nu_sigma) \
            if nu_sigma > 0 else None
        tests.append((nu_sigma, TestSpec(alpha=0.05, law0=law0, law1=law1, dp=dp)))
    return tests


def output_noise_auroc(config: ExperimentConfig | None = None):
    """AUROC of the test as the release-noise scale grows.

    The noise differs per curve, and with it the laws' shared variance
    inflation, so each area is its own ``auroc`` call rather than a row of
    one family call.
    """
    return ["nu_sigma", "auroc"], [[nu_sigma, auroc(spec)]
                                   for nu_sigma, spec in _noise_sweep(config)]


def output_noise_metrics(config: ExperimentConfig | None = None,
                         seed: int | None = None):
    """Pfa and Pd at a fixed target alpha = 0.05 as release noise grows.

    Analytic values plus Monte Carlo estimates from sampling the laws and
    the release noise directly.
    """
    mc = config.mc if config is not None else McConfig()
    stream = SeedStream(mc.seed if seed is None else seed)
    rows = []
    for nu_sigma, spec in _noise_sweep(config):
        pfa, pd = pfa_pd(spec)
        tau = threshold(spec)
        gen = stream.generator
        q0 = sample_law(spec.law0, gen, mc.trials)
        q1 = sample_law(spec.law1, gen, mc.trials)
        if spec.dp is not None:
            q0 = q0 + release_noise(spec.dp, gen, mc.trials)
            q1 = q1 + release_noise(spec.dp, gen, mc.trials)
        rows.append([
            nu_sigma, pfa, pd,
            float(np.mean(q0 > tau)), float(np.mean(q1 > tau)),
        ])
    return ["nu_sigma", "pfa", "pd", "pfa_mc", "pd_mc"], rows
