"""Hypothesis-test analytics for clean and privatized residuals.

Thresholds, false-alarm and detection probabilities in both regimes, ROC
curves, the exact AUROC of the two released laws, and a Monte Carlo
harness that pushes simulated measurements through the full pipeline
(residual, optional noisy release, threshold test) and checks the
empirical rates against the analytic formulas.

The privatized test keeps the threshold calibrated on the clean null law
by default: the analyst fixes alpha before noise is added, and the noise
is what moves the operating point. A flag recalibrates the threshold on
the noisy null law instead, for comparison.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .estimation import Regime, ResidualLaw, _shift_terms, wssr
from .exceptions import NoResidualError, ValidationFailure
from .dp_mechanism import PrivacyParams, release_noise, released_law
from .measurement_model import MeasurementModel, _attack_dense, simulate_measurements
from .special_functions import (
    chisq_exceedance,
    gaussian_q,
    gaussian_q_inverse,
    marcum_q,
    noncentral_chisq_sample,
    regularized_gamma_q_inverse,
)
from .streams import as_generator


DEFAULT_ALPHA_GRID = np.logspace(-4.0, math.log10(0.999), 512)
MC_BLOCK_ELEMS = 1 << 19  # trials x m entries per simulated block (4 MB of float64)
MIN_TRIALS = 1000  # fewest Monte Carlo trials per hypothesis that validation accepts

logger = logging.getLogger(__name__)


def _same_family(law0: ResidualLaw, law: ResidualLaw) -> bool:
    """Whether ``law`` shares the regime and (chi-square) the dof of ``law0``."""
    return law.regime is law0.regime and (
        law.regime is not Regime.CHI_SQUARE or law.dof == law0.dof)


@dataclass(frozen=True)
class TestSpec:
    """A threshold test: target alpha, null/alternative laws, optional noise.

    ``alpha`` is a scalar or a 1-D array of targets; with an array,
    ``threshold`` and ``pfa_pd`` evaluate every target in one call.
    ``law0`` and ``law1`` must share a regime and, in the chi-square
    regime, the degrees of freedom. With ``dp`` set, the analytics
    account for the release noise; ``recalibrate_threshold`` moves the
    threshold onto the noisy null law instead of the clean one.
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
        if not _same_family(self.law0, self.law1):
            raise ValueError("law0 and law1 must share a regime and, in the "
                             "chi-square regime, the degrees of freedom")
        released_law(self.law0, self.dp)  # the noise must fit the regime


@dataclass(frozen=True)
class RocCurve:
    """Ordered (pfa, pd) samples and the area under the curve.

    ``roc`` gives the exact area of its laws; ``from_points`` the
    trapezoid through the points a caller supplies.
    """

    points: tuple[tuple[float, float], ...]
    auroc: float

    @classmethod
    def from_points(cls, points) -> "RocCurve":
        """Curve through (pfa, pd) points and the corners (0, 0), (1, 1).

        ``points`` is an (N, 2) array or an iterable of pairs. Points are
        sorted by pfa, then pd; of a run sharing one pfa only the last
        (highest pd) is kept. The area is the trapezoid through them,
        which runs low on a concave curve: every chord lies below it.
        """
        pts = np.asarray(points if isinstance(points, np.ndarray) else list(points),
                         dtype=float).reshape(-1, 2)
        xs = np.append(pts[:, 0], (0.0, 1.0))
        ys = np.append(pts[:, 1], (0.0, 1.0))
        order = np.lexsort((ys, xs))
        xs, ys = xs[order], ys[order]
        last = np.append(xs[1:] != xs[:-1], True)
        xs, ys = xs[last], ys[last]
        auroc = float(np.trapezoid(ys, xs))
        if not 0.0 <= auroc <= 1.0:
            raise ValueError(f"auroc out of range: {auroc}")
        return cls(points=tuple(zip(xs.tolist(), ys.tolist())), auroc=auroc)


# ---------------------------------------------------------------------------
# Analytic operating points
# ---------------------------------------------------------------------------

def threshold(spec: TestSpec):
    """Test threshold at the target false-alarm rate.

    Calibrated on the clean null law, or on its released law (r + r'
    degrees of freedom, or the shifted and inflated Gaussian) when
    recalibrating. Chi-square regime: tau = 2 * Qinv(alpha, dof/2).
    Gaussian regime: mean + std * Qinv(alpha). A scalar alpha gives a
    float; an alpha array gives one threshold per target.
    """
    if spec.law0.regime is Regime.CHI_SQUARE and spec.law0.dof <= 0:
        raise NoResidualError("null law has zero degrees of freedom")
    law0 = released_law(spec.law0, spec.dp) if spec.recalibrate_threshold else spec.law0
    if law0.regime is Regime.CHI_SQUARE:
        return 2.0 * regularized_gamma_q_inverse(spec.alpha, 0.5 * law0.dof)
    return law0.mean + math.sqrt(law0.variance) * gaussian_q_inverse(spec.alpha)


def _released_family(spec: TestSpec, alternatives) -> list[ResidualLaw]:
    """The released null law, then each released alternative law."""
    if not all(_same_family(spec.law0, law) for law in alternatives):
        raise ValueError("alternatives must share the regime and, in the "
                         "chi-square regime, the degrees of freedom of law0")
    return [released_law(law, spec.dp) for law in (spec.law0, *alternatives)]


def pfa_pd_family(spec: TestSpec, alternatives):
    """False-alarm rate and detection probability under each alternative law.

    The alternatives stand in for ``spec.law1``: they share the regime,
    degrees of freedom, release noise and threshold of ``spec``, so one
    threshold inversion and one tail evaluation serve the null law and
    every alternative: one ``marcum_q`` call over a column of
    noncentrality roots in the chi-square regime (it sums only the
    Poisson terms some law's window covers, so a central null beside a
    far alternative costs one term), one ``gaussian_q`` over columns of
    means and deviations in the gaussian regime. Returns (pfa, pd): pfa
    as ``pfa_pd`` gives it, and pd of shape ``(len(alternatives),) +
    alpha.shape``, whose row i equals
    ``pfa_pd(replace(spec, law1=alternatives[i]))[1]`` bit for bit.
    """
    laws = _released_family(spec, alternatives)
    tau = threshold(spec)
    column = (-1,) + (1,) * np.ndim(tau)
    if spec.law0.regime is Regime.CHI_SQUARE:
        nc = np.array([law.noncentrality for law in laws])
        p = marcum_q(0.5 * laws[0].dof, np.sqrt(nc).reshape(column), np.sqrt(tau))
    else:
        mean = np.array([law.mean for law in laws]).reshape(column)
        std = np.sqrt(np.array([law.variance for law in laws])).reshape(column)
        p = gaussian_q((tau - mean) / std)
    pfa = float(p[0]) if p[0].ndim == 0 else p[0]
    return pfa, p[1:]


def auroc_family(spec: TestSpec, alternatives) -> np.ndarray:
    """Exact area under the ROC of the null law against each alternative law.

    The area under a ROC is Pr[X1 > X0] for independent draws of the two
    released laws (Hanley & McNeil, Radiology 1982), so it needs no
    threshold and no alpha grid: ``spec.alpha`` and
    ``recalibrate_threshold`` move the operating points along the curve,
    not the curve. The alternatives stand in for ``spec.law1`` as in
    ``pfa_pd_family``. Chi-square regime: ``chisq_exceedance``, a Poisson
    series in which each law sums only its own window, within 2e-12 of the
    exact value (1e-12 for a central null). Gaussian regime:
    Phi((mu1 - mu0) / sqrt(v0 + v1)) by ``gaussian_q``. Returns shape
    ``(len(alternatives),)``; entry i equals
    ``auroc(replace(spec, law1=alternatives[i]))`` bit for bit.
    """
    law0, *laws = _released_family(spec, alternatives)
    if law0.regime is Regime.CHI_SQUARE:
        if spec.law0.dof <= 0:
            raise NoResidualError("null law has zero degrees of freedom")
        return chisq_exceedance(law0.dof, law0.noncentrality,
                                [law.noncentrality for law in laws])
    mean = np.array([law.mean for law in laws])
    var = np.array([law.variance for law in laws])
    return gaussian_q((law0.mean - mean) / np.sqrt(law0.variance + var))


def pfa_pd(spec: TestSpec):
    """Analytic (false alarm, detection) probabilities of the test.

    With noise configured, the chi-square regime gains r' degrees of
    freedom at an unchanged threshold; the gaussian regime shifts by the
    noise mean and inflates both variances. A scalar alpha gives a pair
    of floats; an alpha array gives a pair of arrays aligned with it.
    """
    pfa, pd = pfa_pd_family(spec, (spec.law1,))
    return pfa, (float(pd[0]) if pd[0].ndim == 0 else pd[0])


def auroc(spec: TestSpec) -> float:
    """Exact area under the ROC of ``spec.law0`` against ``spec.law1``.

    ``auroc_family`` of the one alternative ``law1``; it does not depend
    on ``spec.alpha``.
    """
    return float(auroc_family(spec, (spec.law1,))[0])


def roc(spec: TestSpec) -> RocCurve:
    """Analytic ROC over ``DEFAULT_ALPHA_GRID``, 512 log-spaced points.

    The log spacing resolves the steep low-alpha region. The curve's area
    is ``auroc(spec)``, exact, not the trapezoid through the points.
    """
    pfa, pd = pfa_pd(replace(spec, alpha=DEFAULT_ALPHA_GRID))
    return replace(RocCurve.from_points(np.column_stack((pfa, pd))), auroc=auroc(spec))


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

    def check(self) -> None:
        """Raise ValidationFailure if a rate is off by more than three standard errors."""
        name, sigmas = self.worst_offender()
        if sigmas > 3.0:
            raise ValidationFailure(
                f"{name} deviates from the analytic value by {sigmas:.2f} "
                f"standard errors (empirical {getattr(self, name + '_hat'):.5f}, "
                f"analytic {getattr(self, name + '_analytic'):.5f})"
            )


def _released_wssr(model: MeasurementModel, attack, x_true, spec: TestSpec,
                   trials: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Released statistics (H0, H1) of ``trials`` simulated measurement pairs.

    Each trial draws its measurement noise once: a block of
    ``MC_BLOCK_ELEMS // m`` trials ``z0 = H x + sigma N`` is drawn into one
    reused buffer and scored with ``wssr`` for H0, the one projection of
    the block. H1's measurements are ``z1 = z0 + a``; since the residual
    map P is linear, their statistic is H0's plus the attack's cross term,
    ``q1 = q0 + (2 z0.g + ||P a||^2) / sigma^2`` with ``g = P^T P a`` formed
    once per run, a matrix-vector product per block. Each rate keeps its
    own distribution; the shared noise only correlates the two. The
    release noise is drawn last, H0's then H1's. Memory does not grow
    with ``trials``, and since the normal draws do not depend on how they
    are chunked, the block size does not change the result. The split of
    wall time between drawing and scoring is logged at DEBUG, and their sum
    as the ``monte_carlo`` stage at INFO.
    """
    rows = max(1, MC_BLOCK_ELEMS // model.m)
    block = np.empty((min(rows, trials), model.m))
    g, pa_sq = _shift_terms(model, _attack_dense(attack, model.m))
    q0, q1 = np.empty(trials), np.empty(trials)
    draw_s = score_s = 0.0
    for start in range(0, trials, rows):
        t0 = time.perf_counter()
        z = block[:min(rows, trials - start)]
        simulate_measurements(model, x_true, None, gen, trials=len(z), out=z)
        t1 = time.perf_counter()
        q0[start:start + len(z)] = q = wssr(model, z)
        q1[start:start + len(z)] = q + (2.0 * (z @ g) + pa_sq) / model.sigma**2
        draw_s += t1 - t0
        score_s += time.perf_counter() - t1
    if spec.dp is not None:
        t0 = time.perf_counter()
        q0 += release_noise(spec.dp, gen, trials)
        q1 += release_noise(spec.dp, gen, trials)
        draw_s += time.perf_counter() - t0
    logger.debug("monte carlo: %d trials in %d blocks of %d rows; drawing %.3f s, "
                 "scoring %.3f s", trials, math.ceil(trials / rows), rows, draw_s, score_s)
    logger.info("stage monte_carlo: %.3f s", draw_s + score_s)
    return q0, q1


def monte_carlo_validate(model: MeasurementModel, attack, spec: TestSpec,
                         trials: int, rng, x_true=None,
                         check: bool = True) -> McValidation:
    """Simulate the full pipeline and compare empirical rates to analytics.

    Simulates ``trials`` measurement vectors from the model (state
    defaults to zero; pass the state used to build the laws when lam > 0)
    and scores each twice, as drawn (H0) and with the attack added (H1),
    so both hypotheses share one noise draw per trial. It applies the
    configured release noise to each, thresholds, and compares against
    ``pfa_pd``. With ``check`` set, the result's ``check`` gate runs
    before it is returned. Trials are simulated in fixed-size blocks, so
    memory is bounded independently of ``trials``.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}, got {trials}")
    if np.ndim(spec.alpha) != 0:
        raise ValueError("Monte Carlo validation needs a scalar alpha (one threshold)")
    tau = threshold(spec)
    pfa_ref, pd_ref = pfa_pd(spec)
    x_true = np.zeros(model.n) if x_true is None else x_true
    q0, q1 = _released_wssr(model, attack, x_true, spec, trials, as_generator(rng))
    n0, n1 = int(np.count_nonzero(q0 > tau)), int(np.count_nonzero(q1 > tau))

    def se(p: float) -> float:
        return math.sqrt(max(p * (1.0 - p), 0.0) / trials)

    result = McValidation(
        pfa_hat=n0 / trials, pd_hat=n1 / trials,
        pfa_se=se(pfa_ref), pd_se=se(pd_ref),
        pfa_analytic=pfa_ref, pd_analytic=pd_ref,
        trials=trials, threshold=tau,
    )
    if check:
        result.check()
    return result


def sample_law(law: ResidualLaw, rng, size: int) -> np.ndarray:
    """Draw from a residual law directly (chi-square or gaussian regime)."""
    if law.regime is Regime.CHI_SQUARE:
        if law.dof <= 0:
            raise NoResidualError("cannot sample a zero-dof law")
        return noncentral_chisq_sample(law.dof, law.noncentrality, rng, size=size)
    gen = as_generator(rng)
    return gen.normal(law.mean, math.sqrt(law.variance), size=size)

