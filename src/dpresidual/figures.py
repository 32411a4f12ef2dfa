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
from .detection import DEFAULT_ALPHA_GRID, RocCurve, TestSpec, pfa_pd, roc, sample_law, threshold
from .dp_mechanism import PrivacyParams, gaussian_mechanism_sigma
from .estimation import ResidualLaw
from .streams import SeedStream

THETA_Z0 = 10.0
SIGMA_Z0 = 1.0
SIGMA_Z1_ATTACK_SWEEP = 2.0   # mean-gap sensitivity sweep
SIGMA_Z1_NOISE_SWEEP = 4.0    # release-noise sweeps
INPUT_DELTA = 0.1
INPUT_SENSITIVITY = 1.0

DEFAULT_DELTA_THETA = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0)
DEFAULT_NU_SIGMA = tuple(float(v) for v in np.linspace(0.0, 5.0, 11))
DEFAULT_INPUT_NONCENTRALITY = (2.0, 5.0, 10.0)


def _figures_cfg(config: ExperimentConfig | None) -> FiguresConfig:
    if config is not None and config.figures is not None:
        return config.figures
    return FiguresConfig()


def attack_strength_roc(config: ExperimentConfig | None = None):
    """ROC degradation as the mean gap between hypotheses shrinks.

    Gaussian-regime laws N(10, 1) vs N(10 + gap, 4) over a gap sweep.
    Returns (roc_table, auroc_table).
    """
    fig = _figures_cfg(config)
    gaps = fig.delta_theta_values or DEFAULT_DELTA_THETA
    grid = DEFAULT_ALPHA_GRID
    roc_rows, auroc_rows = [], []
    for gap in gaps:
        law0 = ResidualLaw.gaussian(THETA_Z0, SIGMA_Z0**2)
        law1 = ResidualLaw.gaussian(THETA_Z0 + gap, SIGMA_Z1_ATTACK_SWEEP**2)
        pfa, pd = pfa_pd(TestSpec(alpha=grid, law0=law0, law1=law1))
        roc_rows.extend([gap, a, p, d] for a, p, d in zip(grid, pfa, pd))
        auroc_rows.append([gap, RocCurve.from_points(zip(pfa, pd)).auroc])
    return (
        (["delta_theta", "alpha", "pfa", "pd"], roc_rows),
        (["delta_theta", "auroc"], auroc_rows),
    )


def input_perturbation_auroc(config: ExperimentConfig | None = None):
    """AUROC against the per-element budget for the input-perturbed test.

    Perturbing every measurement with the standard Gaussian mechanism at
    per-element budget eps/m inflates the effective noise variance by
    (1 + k), shrinking the residual noncentrality to nc / (1 + k); the
    chi-square analytics then give the AUROC exactly. Reports both the
    per-element budget and the noise-ratio k columns.
    """
    fig = _figures_cfg(config)
    if config is not None and config.model is not None:
        m, dof = config.model.m, config.model.m - config.model.n
    else:
        m, dof = 20, 15
    if dof < 1:
        raise ValueError("input perturbation sweep needs m > n")
    ncs = fig.delta_theta_values or DEFAULT_INPUT_NONCENTRALITY
    epsilons = fig.epsilon_values or tuple(
        float(e) for e in m * np.logspace(np.log10(0.05), np.log10(5.0), 16)
    )
    rows = []
    for nc in ncs:
        for eps in epsilons:
            eps_o = eps / m
            sigma_w = gaussian_mechanism_sigma(INPUT_SENSITIVITY, eps_o, INPUT_DELTA)
            k = sigma_w**2  # relative to unit measurement noise
            spec = TestSpec(
                alpha=0.05,
                law0=ResidualLaw.chi_square(dof, 0.0),
                law1=ResidualLaw.chi_square(dof, nc / (1.0 + k)),
            )
            rows.append([nc, eps, eps_o, k, roc(spec).auroc])
    return ["delta_theta", "epsilon", "epsilon_per_element", "k_factor", "auroc"], rows


def output_noise_auroc(config: ExperimentConfig | None = None):
    """AUROC of the test as the release-noise scale grows.

    Gaussian-regime laws N(10, 1) vs N(13, 16) with zero-mean release
    noise of standard deviation nu_sigma added to both.
    """
    fig = _figures_cfg(config)
    sweep = fig.nu_sigma_values or DEFAULT_NU_SIGMA
    law0 = ResidualLaw.gaussian(THETA_Z0, SIGMA_Z0**2)
    law1 = ResidualLaw.gaussian(1.3 * THETA_Z0, SIGMA_Z1_NOISE_SWEEP**2)
    rows = []
    for nu_sigma in sweep:
        dp = PrivacyParams.gaussian_output(nu_mean=0.0, nu_sigma=nu_sigma) \
            if nu_sigma > 0 else None
        rows.append([nu_sigma, roc(TestSpec(alpha=0.05, law0=law0, law1=law1, dp=dp)).auroc])
    return ["nu_sigma", "auroc"], rows


def output_noise_metrics(config: ExperimentConfig | None = None,
                         seed: int | None = None):
    """Pfa and Pd at a fixed target alpha = 0.05 as release noise grows.

    Analytic values plus Monte Carlo estimates from sampling the laws and
    the release noise directly.
    """
    fig = _figures_cfg(config)
    mc = config.mc if config is not None else McConfig()
    sweep = fig.nu_sigma_values or DEFAULT_NU_SIGMA
    law0 = ResidualLaw.gaussian(THETA_Z0, SIGMA_Z0**2)
    law1 = ResidualLaw.gaussian(1.3 * THETA_Z0, SIGMA_Z1_NOISE_SWEEP**2)
    stream = SeedStream(mc.seed if seed is None else seed)
    rows = []
    for nu_sigma in sweep:
        dp = PrivacyParams.gaussian_output(nu_mean=0.0, nu_sigma=nu_sigma) \
            if nu_sigma > 0 else None
        spec = TestSpec(alpha=0.05, law0=law0, law1=law1, dp=dp)
        pfa, pd = pfa_pd(spec)
        tau = threshold(spec)
        gen = stream.generator
        q0 = sample_law(law0, gen, mc.trials)
        q1 = sample_law(law1, gen, mc.trials)
        if nu_sigma > 0:
            q0 = q0 + gen.normal(0.0, nu_sigma, size=mc.trials)
            q1 = q1 + gen.normal(0.0, nu_sigma, size=mc.trials)
        rows.append([
            nu_sigma, pfa, pd,
            float(np.mean(q0 > tau)), float(np.mean(q1 > tau)),
        ])
    return ["nu_sigma", "pfa", "pd", "pfa_mc", "pd_mc"], rows
