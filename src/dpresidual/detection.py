"""Hypothesis-test analytics for clean and privatized residuals.

Thresholds, false-alarm and detection probabilities in both regimes, ROC
curves with trapezoid AUROC, and a Monte Carlo harness that pushes
simulated measurements through the full pipeline (residual, optional
noisy release, threshold test) and checks the empirical rates against
the analytic formulas.

The privatized test keeps the threshold calibrated on the clean null law
by default: the analyst fixes alpha before noise is added, and the noise
is what moves the operating point. A flag recalibrates the threshold on
the noisy null law instead, for comparison.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .csvio import write_csv
from .estimation import Regime, ResidualLaw, wssr
from .exceptions import NoResidualError, ValidationFailure
from .dp_mechanism import Mechanism, PrivacyParams
from .measurement_model import MeasurementModel, simulate_measurements
from .special_functions import (
    gaussian_q,
    gaussian_q_inverse,
    marcum_q,
    noncentral_chisq_sample,
    regularized_gamma_q_inverse,
)
from .streams import SeedStream, as_generator


DEFAULT_ALPHA_GRID = np.logspace(-4.0, math.log10(0.999), 512)


@dataclass(frozen=True)
class TestSpec:
    """A threshold test: target alpha, null/alternative laws, optional noise.

    ``alpha`` is a scalar or a 1-D array of targets; with an array,
    ``threshold`` and ``pfa_pd`` evaluate every target in one call.
    ``law0`` and ``law1`` must share a regime. With ``dp`` set, the
    analytics account for the release noise; ``recalibrate_threshold``
    moves the threshold onto the noisy null law instead of the clean one.
    """

    __test__ = False  # not a pytest case, despite the name

    alpha: float | np.ndarray
    law0: ResidualLaw
    law1: ResidualLaw
    dp: PrivacyParams | None = None
    recalibrate_threshold: bool = False

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if not np.all((alpha > 0) & (alpha < 1)):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.law0.regime is not self.law1.regime:
            raise ValueError("law0 and law1 must share a regime")
        if self.dp is not None:
            expected = {
                Regime.CHI_SQUARE: Mechanism.CHI_SQUARE,
                Regime.GAUSSIAN: Mechanism.GAUSSIAN_OUTPUT,
            }[self.law0.regime]
            if self.dp.mechanism is not expected:
                raise ValueError(
                    f"{self.dp.mechanism.value} noise does not apply to a "
                    f"{self.law0.regime.value} release; input perturbation is "
                    "modelled by rebuilding the laws from the perturbed model"
                )


@dataclass(frozen=True)
class RocCurve:
    """Ordered (pfa, pd) samples with the trapezoid area under them."""

    points: tuple[tuple[float, float], ...]
    auroc: float

    @classmethod
    def from_points(cls, points) -> "RocCurve":
        pts = [(float(p), float(d)) for p, d in points]
        pts += [(0.0, 0.0), (1.0, 1.0)]
        pts.sort()
        dedup: list[tuple[float, float]] = []
        for p, d in pts:
            if dedup and p == dedup[-1][0]:
                dedup[-1] = (p, max(d, dedup[-1][1]))
            else:
                dedup.append((p, d))
        xs = np.array([p for p, _ in dedup])
        ys = np.array([d for _, d in dedup])
        auroc = float(np.trapezoid(ys, xs))
        if not 0.0 <= auroc <= 1.0:
            raise ValueError(f"auroc out of range: {auroc}")
        return cls(points=tuple(dedup), auroc=auroc)


# ---------------------------------------------------------------------------
# Analytic operating points
# ---------------------------------------------------------------------------

def _dp_noise(spec: TestSpec) -> tuple[float, float, float]:
    """(extra dof, mean shift, variance inflation) of the configured noise."""
    if spec.dp is None:
        return 0.0, 0.0, 0.0
    if spec.dp.mechanism is Mechanism.CHI_SQUARE:
        return float(spec.dp.r_prime), 0.0, 0.0
    return 0.0, spec.dp.nu_mean, spec.dp.nu_sigma**2


def threshold(spec: TestSpec):
    """Test threshold at the target false-alarm rate.

    Chi-square regime: tau = 2 * Qinv(alpha, r/2) on the clean degrees of
    freedom (or r + r' when recalibrating on the noisy null). Gaussian
    regime: mean + std * Qinv(alpha) of the corresponding null law.
    A scalar alpha gives a float; an alpha array gives one threshold per
    target.
    """
    extra_dof, nu_mean, nu_var = _dp_noise(spec)
    if spec.law0.regime is Regime.CHI_SQUARE:
        dof = spec.law0.dof
        if dof <= 0:
            raise NoResidualError("null law has zero degrees of freedom")
        if spec.recalibrate_threshold:
            dof += extra_dof
        return 2.0 * regularized_gamma_q_inverse(spec.alpha, 0.5 * dof)
    mean, var = spec.law0.mean, spec.law0.variance
    if spec.recalibrate_threshold:
        mean, var = mean + nu_mean, var + nu_var
    return mean + math.sqrt(var) * gaussian_q_inverse(spec.alpha)


def pfa_pd(spec: TestSpec):
    """Analytic (false alarm, detection) probabilities of the test.

    With noise configured, the chi-square regime gains r' degrees of
    freedom at an unchanged threshold; the gaussian regime shifts by the
    noise mean and inflates both variances. A scalar alpha gives a pair
    of floats; an alpha array gives a pair of arrays aligned with it.
    """
    tau = threshold(spec)
    extra_dof, nu_mean, nu_var = _dp_noise(spec)
    if spec.law0.regime is Regime.CHI_SQUARE:
        dof = spec.law0.dof + extra_dof
        order = 0.5 * dof
        sqrt_tau = np.sqrt(tau)
        pfa = marcum_q(order, math.sqrt(spec.law0.noncentrality), sqrt_tau)
        pd = marcum_q(order, math.sqrt(spec.law1.noncentrality), sqrt_tau)
        return pfa, pd
    s0 = math.sqrt(spec.law0.variance + nu_var)
    s1 = math.sqrt(spec.law1.variance + nu_var)
    pfa = gaussian_q((tau - (spec.law0.mean + nu_mean)) / s0)
    pd = gaussian_q((tau - (spec.law1.mean + nu_mean)) / s1)
    return pfa, pd


def roc(spec: TestSpec, grid=None) -> RocCurve:
    """Analytic ROC over an alpha grid (default: 512 log-spaced points).

    The area is computed by the trapezoid rule with (0,0) and (1,1)
    appended; the log-spaced default resolves the steep low-alpha region.
    """
    alphas = DEFAULT_ALPHA_GRID if grid is None else np.asarray(grid, dtype=float)
    if alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alpha grid must be a nonempty 1-D sequence")
    if np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha grid must be strictly increasing")
    # TestSpec rejects grid values outside (0, 1).
    return RocCurve.from_points(zip(*pfa_pd(replace(spec, alpha=alphas))))


# ---------------------------------------------------------------------------
# Monte Carlo validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McValidation:
    """Empirical rates with binomial standard errors and analytic targets."""

    pfa_hat: float
    pd_hat: float
    pfa_se: float
    pd_se: float
    pfa_analytic: float
    pd_analytic: float
    trials: int
    threshold: float

    def deviations(self) -> dict[str, float]:
        """Absolute deviation of each rate in units of its standard error."""
        out = {}
        for name, hat, ref, se in (
            ("pfa", self.pfa_hat, self.pfa_analytic, self.pfa_se),
            ("pd", self.pd_hat, self.pd_analytic, self.pd_se),
        ):
            out[name] = abs(hat - ref) / se if se > 0 else (0.0 if hat == ref else math.inf)
        return out

    def worst_offender(self) -> tuple[str, float]:
        devs = self.deviations()
        name = max(devs, key=devs.get)
        return name, devs[name]


def _exceed_counts(model: MeasurementModel, attack, x_true, spec: TestSpec,
                   tau: float, trials: int, rng) -> tuple[int, int]:
    """(H0 exceedances, H1 exceedances) over ``trials`` simulated pairs."""
    gen = as_generator(rng)
    z0 = simulate_measurements(model, x_true, None, gen, trials=trials)
    z1 = simulate_measurements(model, x_true, attack, gen, trials=trials)
    q0 = wssr(model, z0)
    q1 = wssr(model, z1)
    if spec.dp is not None:
        if spec.dp.mechanism is Mechanism.CHI_SQUARE:
            q0 = q0 + noncentral_chisq_sample(float(spec.dp.r_prime), 0.0, gen, size=trials)
            q1 = q1 + noncentral_chisq_sample(float(spec.dp.r_prime), 0.0, gen, size=trials)
        else:
            q0 = q0 + gen.normal(spec.dp.nu_mean, spec.dp.nu_sigma, size=trials)
            q1 = q1 + gen.normal(spec.dp.nu_mean, spec.dp.nu_sigma, size=trials)
    return int(np.count_nonzero(q0 > tau)), int(np.count_nonzero(q1 > tau))


def monte_carlo_validate(model: MeasurementModel, attack, spec: TestSpec,
                         trials: int, rng, x_true=None, workers: int = 1,
                         check: bool = True) -> McValidation:
    """Simulate the full pipeline and compare empirical rates to analytics.

    Simulates ``trials`` measurement vectors under each hypothesis from
    the model (state defaults to zero; pass the state used to build the
    laws when lam > 0), applies the configured release noise, thresholds,
    and compares against ``pfa_pd``. With ``check`` set, a deviation
    beyond three standard errors raises ValidationFailure naming the
    worst-offending quantity. ``workers > 1`` splits trials over
    processes with per-worker child streams (requires a SeedStream) and
    a deterministic reduction order.
    """
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    if np.ndim(spec.alpha) != 0:
        raise ValueError("Monte Carlo validation needs a scalar alpha (one threshold)")
    tau = threshold(spec)
    pfa_ref, pd_ref = pfa_pd(spec)
    x_true = np.zeros(model.n) if x_true is None else x_true

    if workers <= 1:
        n0, n1 = _exceed_counts(model, attack, x_true, spec, tau, trials, rng)
    else:
        if not isinstance(rng, SeedStream):
            raise TypeError("parallel validation needs a SeedStream to derive worker streams")
        chunks = [trials // workers] * workers
        chunks[-1] += trials - sum(chunks)
        streams = rng.spawn(workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                _exceed_counts,
                [model] * workers, [attack] * workers, [x_true] * workers,
                [spec] * workers, [tau] * workers, chunks, streams,
            ))
        n0 = sum(r[0] for r in results)
        n1 = sum(r[1] for r in results)

    def se(p: float) -> float:
        return math.sqrt(max(p * (1.0 - p), 0.0) / trials)

    result = McValidation(
        pfa_hat=n0 / trials, pd_hat=n1 / trials,
        pfa_se=se(pfa_ref), pd_se=se(pd_ref),
        pfa_analytic=pfa_ref, pd_analytic=pd_ref,
        trials=trials, threshold=tau,
    )
    if check:
        name, sigmas = result.worst_offender()
        if sigmas > 3.0:
            raise ValidationFailure(
                f"{name} deviates from the analytic value by {sigmas:.2f} "
                f"standard errors (empirical {getattr(result, name + '_hat'):.5f}, "
                f"analytic {getattr(result, name + '_analytic'):.5f})"
            )
    return result


def sample_law(law: ResidualLaw, rng, size: int) -> np.ndarray:
    """Draw from a residual law directly (chi-square or gaussian regime)."""
    if law.regime is Regime.CHI_SQUARE:
        if law.dof <= 0:
            raise NoResidualError("cannot sample a zero-dof law")
        return noncentral_chisq_sample(law.dof, law.noncentrality, rng, size=size)
    gen = as_generator(rng)
    return gen.normal(law.mean, math.sqrt(law.variance), size=size)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

ROC_SCHEMA = "dpresidual-roc/1"
AUROC_SCHEMA = "dpresidual-auroc/1"


def write_roc_csv(path, labelled_curves, meta: dict | None = None) -> None:
    """Write (alpha, pfa, pd, mechanism, params) rows for labelled curves.

    ``labelled_curves`` is an iterable of (mechanism, params, alphas,
    points) with points aligned to alphas.
    """
    rows = []
    for mechanism, params, alphas, points in labelled_curves:
        for alpha, (pfa, pd) in zip(alphas, points):
            rows.append([float(alpha), float(pfa), float(pd), mechanism, params])
    write_csv(path, ROC_SCHEMA, ["alpha", "pfa", "pd", "mechanism", "params"],
              rows, meta=meta)


def write_auroc_csv(path, rows, meta: dict | None = None) -> None:
    """Write (mechanism, params, auroc) summary rows."""
    write_csv(path, AUROC_SCHEMA, ["mechanism", "params", "auroc"], rows, meta=meta)
