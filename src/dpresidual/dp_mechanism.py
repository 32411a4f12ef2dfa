"""Differentially private release of residual statistics.

The primary mechanism adds an independent central chi-square draw with r'
extra degrees of freedom to the residual query before release, keeping the
released statistic in the noncentral chi-square family. Its (epsilon,
delta) guarantee over distance-one neighborhoods of the system matrix is

    delta = max over reachable (theta, theta') of
            Q_{r~/2}(theta, eps/(theta'-theta) - (theta'+theta)/2)
          + Q_{r~/2}(theta, eps/(theta'-theta) + (theta'+theta)/2),

with the first term saturating at 1 when the lower boundary argument is
negative (the bounding event is then empty). The neighbours shift one
row of the system matrix by at most a row-perturbation bound; every
neighbour's root lies in an interval computed from the model's factor,
over which delta is maximized with a certified per-cell bound.

Also provided: the exact privacy leakage (log-likelihood ratio) of the
released statistic under two neighboring laws, a Gaussian additive
mechanism for the large-system regime with a numerically calibrated noise
scale (the closed-form guarantee for stochastic queries is intentionally
out of scope; the calibration searches the smallest noise scale whose
leakage passes the probabilistic privacy condition Pr[|L| <= eps] >=
1 - delta, an event read off the sorted roots of L = +-eps, since L is
quadratic in the released value), and the baseline that perturbs every
measurement with the standard Gaussian mechanism at a per-element budget.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .estimation import Regime, ResidualLaw
from .exceptions import ConvergenceError, NumericError
from .measurement_model import MeasurementModel, neighbor_root_interval
from .special_functions import (
    gaussian_q,
    log_bessel_i,
    marcum_q,
    noncentral_chisq_sample,
)
from .streams import as_generator, seed_record_of

_CENTRAL_EPS = 1e-8
_CALIBRATION_MARGIN = 1e-3
_CALIBRATION_REL_TOL = 1e-4
MAX_GRID_POINTS = 1024  # the range of the inert grid_points key
_CELLS = 64  # cells on each side of theta in the delta maximization


class Mechanism(enum.Enum):
    CHI_SQUARE = "chi_square"
    GAUSSIAN_OUTPUT = "gaussian_output"
    GAUSSIAN_INPUT = "gaussian_input"


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget plus the knobs of the selected mechanism.

    The one record of a release's knobs, and ``__post_init__`` the one
    place that checks them: exactly the knobs of the selected mechanism
    may be set, ``r_prime`` for the chi-square mechanism and
    ``nu_mean``/``nu_sigma`` for the Gaussian output mechanism. Input
    perturbation has no knob beyond the budget it calibrates its noise
    from, so there delta must lie in (0, 1). Every ``ValueError`` message
    begins with the offending field's name.
    """

    mechanism: Mechanism
    epsilon: float | None = None
    delta: float | None = None
    r_prime: int | None = None
    nu_mean: float | None = None
    nu_sigma: float | None = None

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.delta is not None and not 0 <= self.delta <= 1:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if self.mechanism is Mechanism.GAUSSIAN_INPUT and self.delta in (0, 1):
            raise ValueError(f"delta must be in (0, 1) for gaussian_input, got {self.delta}")
        required = {
            Mechanism.CHI_SQUARE: ("r_prime",),
            Mechanism.GAUSSIAN_OUTPUT: ("nu_mean", "nu_sigma"),
            Mechanism.GAUSSIAN_INPUT: (),
        }[self.mechanism]
        for name in ("r_prime", "nu_mean", "nu_sigma"):
            value = getattr(self, name)
            if name in required and value is None:
                raise ValueError(f"{name} is required by the {self.mechanism.value} "
                                 "mechanism")
            if name not in required and value is not None:
                raise ValueError(f"{name} is not a parameter of {self.mechanism.value}")
        if self.r_prime is not None and self.r_prime < 1:
            raise ValueError(f"r_prime must be >= 1, got {self.r_prime}")
        if self.nu_mean is not None and not math.isfinite(self.nu_mean):
            raise ValueError(f"nu_mean must be finite, got {self.nu_mean}")
        if self.nu_sigma is not None and not (
                self.nu_sigma > 0 and 0 < self.nu_sigma * self.nu_sigma < math.inf):
            raise ValueError(f"nu_sigma must be finite and > 0 with a positive finite "
                             f"square, got {self.nu_sigma}")

    @classmethod
    def chi_square(cls, r_prime: int = 1, epsilon: float | None = None,
                   delta: float | None = None) -> "PrivacyParams":
        return cls(mechanism=Mechanism.CHI_SQUARE, epsilon=epsilon, delta=delta,
                   r_prime=r_prime)

    @classmethod
    def gaussian_output(cls, nu_mean: float, nu_sigma: float,
                        epsilon: float | None = None,
                        delta: float | None = None) -> "PrivacyParams":
        return cls(mechanism=Mechanism.GAUSSIAN_OUTPUT, epsilon=epsilon, delta=delta,
                   nu_mean=nu_mean, nu_sigma=nu_sigma)

    @classmethod
    def gaussian_input(cls, epsilon: float | None = None,
                       delta: float | None = None) -> "PrivacyParams":
        return cls(mechanism=Mechanism.GAUSSIAN_INPUT, epsilon=epsilon, delta=delta)


@dataclass(frozen=True)
class NoisyRelease:
    """A privatized residual value with its law and replay provenance."""

    value: float
    params: PrivacyParams
    law: ResidualLaw
    seed: dict | None


def released_law(law: ResidualLaw, params: PrivacyParams | None) -> ResidualLaw:
    """Law of the released statistic q + nu for q distributed as ``law``.

    Chi-square noise adds r' degrees of freedom at unchanged
    noncentrality; Gaussian output noise shifts the mean by nu_mean and
    raises the variance by nu_sigma^2; ``params=None`` returns ``law``.
    Noise of the other regime, or input perturbation, raises ValueError.
    """
    if params is None:
        return law
    if law.regime is Regime.CHI_SQUARE and params.mechanism is Mechanism.CHI_SQUARE:
        return ResidualLaw.chi_square(dof=law.dof + params.r_prime,
                                      noncentrality=law.noncentrality)
    if law.regime is Regime.GAUSSIAN and params.mechanism is Mechanism.GAUSSIAN_OUTPUT:
        return ResidualLaw.gaussian(mean=law.mean + params.nu_mean,
                                    variance=law.variance + params.nu_sigma**2)
    raise ValueError(f"{params.mechanism.value} noise does not apply to a "
                     f"{law.regime.value} release; input perturbation is modelled "
                     "by rebuilding the laws from the perturbed model")


def release_noise(params: PrivacyParams, rng, size=None):
    """Draw the release noise nu of an output mechanism.

    A central chi-square with r' degrees of freedom, or N(nu_mean,
    nu_sigma^2). ``size=None`` gives one float, an int an array of draws.
    """
    if params.mechanism is Mechanism.CHI_SQUARE:
        return noncentral_chisq_sample(float(params.r_prime), 0.0, rng, size)
    if params.mechanism is Mechanism.GAUSSIAN_OUTPUT:
        return as_generator(rng).normal(params.nu_mean, params.nu_sigma, size)
    raise ValueError(f"{params.mechanism.value} adds no noise to the released statistic")


def output_release(law: ResidualLaw, q: float, params: PrivacyParams, rng) -> NoisyRelease:
    """Release q + nu under an output mechanism's ``params``.

    The value is q plus one ``release_noise`` draw and the law is
    ``released_law(law, params)``; q is a residual statistic, so >= 0.
    """
    release_law = released_law(law, params)
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    return NoisyRelease(value=q + release_noise(params, rng), params=params,
                        law=release_law, seed=seed_record_of(rng))


@dataclass(frozen=True)
class NeighborhoodSpec:
    """The neighbourhood of the guarantee maximization.

    ``delta_h_bound`` caps the row-perturbation norm and alone sets the
    neighbourhood: its root interval is computed, not searched.
    ``scan_count``, ``theta_domain`` and ``grid_points`` (at most
    ``MAX_GRID_POINTS``) are still range-checked, so configs that carry
    them load, but steer nothing.
    """

    delta_h_bound: float
    scan_count: int
    theta_domain: tuple[float, float]
    grid_points: int = 33

    def __post_init__(self):
        bound = self.delta_h_bound
        if not (bound > 0 and 0 < bound * bound < math.inf):
            raise ValueError(f"delta_h_bound must be finite and > 0 with a positive "
                             f"finite square, got {bound}")
        if self.scan_count < 1:
            raise ValueError(f"scan_count must be >= 1, got {self.scan_count}")
        lo, hi = self.theta_domain
        if not 0 <= lo < hi < math.inf:
            raise ValueError(f"theta_domain must satisfy 0 <= lo < hi < inf, got "
                             f"{self.theta_domain}")
        if not 2 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(f"grid_points must be in [2, {MAX_GRID_POINTS}], got "
                             f"{self.grid_points}")


# ---------------------------------------------------------------------------
# Chi-square mechanism
# ---------------------------------------------------------------------------

def chi_square_release(law: ResidualLaw, q: float, r_prime: int, rng,
                       epsilon: float | None = None,
                       delta: float | None = None) -> NoisyRelease:
    """Release q + nu with nu an independent central chi-square, r' dof."""
    params = PrivacyParams.chi_square(r_prime, epsilon, delta)
    return output_release(law, q, params, rng)


def _two_tails(r_tilde: float, a, b_lo, b_hi):
    """min(1, Q(a, b_lo) + Q(a, b_hi)) of order r~/2, both tails from one
    ``marcum_q`` call. A negative lower boundary saturates its tail at 1:
    the event that bounds the leakage from below is then empty."""
    q_lo, q_hi = marcum_q(0.5 * r_tilde, a, np.stack([np.maximum(b_lo, 0.0), b_hi]))
    return np.minimum(1.0, np.where(b_lo < 0, 1.0, q_lo) + q_hi)


def delta_for_epsilon(epsilon, r_tilde: float, theta, theta_prime):
    """The delta guarantee at budget epsilon for neighbor pairs.

    ``theta`` and ``theta_prime`` are the noncentrality roots of the
    released statistic under the two neighboring models (order
    irrelevant; each pair is symmetrized). ``epsilon`` and the two roots
    broadcast against each other, all scalars giving a float, and every
    element's two tails come from one ``marcum_q`` call, so each element
    equals the scalar call bit for bit and is within 2 ABS_TOL (one per
    tail). Identical roots give delta = 0. When the lower boundary
    eps/(theta'-theta) - (theta'+theta)/2 is negative, its tail term
    saturates at 1: the event that bounds the leakage from below is empty.
    """
    epsilon = np.asarray(epsilon, dtype=float)
    if not np.all(epsilon > 0):
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not r_tilde > 0:
        raise ValueError(f"r_tilde must be > 0, got {r_tilde}")
    theta = np.asarray(theta, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    if np.any(theta < 0) or np.any(theta_prime < 0):
        raise ValueError("noncentrality roots must be >= 0")
    lo, hi = np.minimum(theta, theta_prime), np.maximum(theta, theta_prime)
    gap = hi - lo
    ratio = epsilon / np.where(gap > 0.0, gap, np.inf)   # gap 0 is masked below
    half = 0.5 * (hi + lo)
    out = np.where(gap == 0.0, 0.0, _two_tails(r_tilde, lo, ratio - half, ratio + half))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DeltaScanResult:
    """Outcome of the guarantee maximization over a neighborhood.

    Every neighbour's root lies in [``theta_lo``, ``theta_hi``]. ``delta``
    (the formula at the best cell end), ``delta_bound`` (its bound over
    the interval), ``argmax_theta`` (the model root theta) and
    ``argmax_theta_prime`` are arrays aligned with epsilon. ``skipped`` is
    always 0: nothing is skipped, and it stays only because perfbench's
    tracer reads it.
    """

    delta: np.ndarray
    delta_bound: np.ndarray
    argmax_theta: np.ndarray
    argmax_theta_prime: np.ndarray
    theta_lo: float
    theta_hi: float
    skipped: int = 0


def _delta_over_interval(epsilon: np.ndarray, r_tilde: float, theta_lo: float,
                         theta: float, theta_hi: float):
    """(delta, argmax theta', delta_bound) over theta' in [theta_lo, theta_hi].

    Each side of theta is cut into ``_CELLS`` cells; ``delta`` is the
    formula's maximum over the cell ends other than theta (the first
    maximum wins; a zero delta names theta). Q(a, b) rises in a and falls
    in b, so on a cell [p, q] the formula is at most its two tails at
    a = q below theta (a = theta above) with boundaries eps/gap -
    (q + theta)/2 and eps/gap + (p + theta)/2 at the cell's widest gap.
    ``delta_bound``, the largest of these, holds on the whole interval.
    """
    edges = np.concatenate([np.linspace(theta_lo, theta, _CELLS + 1),
                            np.linspace(theta, theta_hi, _CELLS + 1)[1:]])
    ends = np.delete(edges, _CELLS)                          # every cell end but theta
    scores = delta_for_epsilon(epsilon[:, None], r_tilde, theta, ends)
    best = scores.argmax(axis=1)
    delta = scores[np.arange(best.size), best]
    p, q = edges[:-1], edges[1:]
    below = np.arange(2 * _CELLS) < _CELLS
    gap = np.where(below, theta - p, q - theta)              # the cell's widest gap
    ratio = epsilon[:, None] / np.where(gap > 0.0, gap, np.inf)
    cells = _two_tails(r_tilde, np.where(below, q, theta), ratio - 0.5 * (q + theta),
                       ratio + 0.5 * (p + theta))
    return (delta, np.where(delta > 0.0, ends[best], theta),
            np.where(gap > 0.0, cells, 0.0).max(axis=1))


def delta_max_over_neighborhood(epsilon, model: MeasurementModel, attack, r_prime: int,
                                spec: NeighborhoodSpec) -> DeltaScanResult:
    """Maximize delta over every neighbour within ``spec.delta_h_bound``.

    ``neighbor_root_interval`` holds every neighbour's root, and
    ``_delta_over_interval`` maximizes and bounds the formula over it.
    Nothing is drawn and no other field of ``spec`` is read. ``epsilon``
    is a 1-D array, every element maximized over the same interval.
    Requires lam = 0.
    """
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim != 1:
        raise ValueError(f"epsilon must be a 1-D array, got shape {eps.shape}")
    theta_lo, theta, theta_hi = neighbor_root_interval(model, attack, spec.delta_h_bound)
    r_tilde = float(model.m - model.n + r_prime)
    delta, theta_prime, bound = _delta_over_interval(eps, r_tilde, theta_lo, theta, theta_hi)
    return DeltaScanResult(delta=delta, delta_bound=bound,
                           argmax_theta=np.full(eps.shape, theta),
                           argmax_theta_prime=theta_prime, theta_lo=theta_lo,
                           theta_hi=theta_hi)


# ---------------------------------------------------------------------------
# Privacy leakage (log-likelihood ratio of the released statistic)
# ---------------------------------------------------------------------------

def _noncentral_logpdf(q, dof: float, theta: float):
    """log density of chi2_dof(theta^2) at q > 0, stable in theta -> 0."""
    q = np.asarray(q, dtype=float)
    half = 0.5 * dof
    if theta < _CENTRAL_EPS:
        return (half - 1.0) * np.log(q) - 0.5 * q - half * math.log(2.0) \
            - math.lgamma(half)
    nc = theta * theta
    return (-0.5 * (q + nc)
            + (0.5 * half - 0.5) * (np.log(q) - math.log(nc))
            + log_bessel_i(half - 1.0, theta * np.sqrt(q))
            - math.log(2.0))


def leakage(q_tilde, r_tilde: float, theta: float, theta_prime: float):
    """Leakage L(q) = log f(q | theta) - log f(q | theta') of the release.

    Both densities are noncentral chi-square with ``r_tilde`` degrees of
    freedom; Bessel factors are evaluated in scaled (log) form. Near-zero
    roots switch to the central-density branch, the removable limit of
    the ratio form. Accepts scalar or array ``q_tilde`` (> 0).
    """
    if not r_tilde > 0:
        raise ValueError(f"r_tilde must be > 0, got {r_tilde}")
    if theta < 0 or theta_prime < 0:
        raise ValueError("noncentrality roots must be >= 0")
    q = np.asarray(q_tilde, dtype=float)
    scalar = q.ndim == 0
    if np.any(q <= 0):
        raise ValueError("q_tilde must be > 0")
    if abs(theta - theta_prime) == 0.0:
        out = np.zeros_like(q)
        return float(out) if scalar else out
    out = _noncentral_logpdf(q, r_tilde, theta) - _noncentral_logpdf(q, r_tilde, theta_prime)
    if np.any(~np.isfinite(out)):
        raise OverflowError("leakage evaluation underflowed; arguments too extreme")
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Gaussian output mechanism
# ---------------------------------------------------------------------------

def gaussian_leakage_probability(law: ResidualLaw, neighbor_law: ResidualLaw,
                                 nu_sigma: float, epsilon: float) -> float:
    """Exact Pr[|L| <= epsilon] for the Gaussian release pair, worst direction.

    L(u) = a u^2 + b u + c is a quadratic in the released value u. Unless
    it is constant, |L| grows without bound in both tails, so the sorted
    real roots of L = -epsilon and L = +epsilon (two or four; one each
    when the variances are equal) bound the event pairwise: it is
    [r0, r1], plus [r2, r3] when there are four. With no roots L is the
    constant c and the event is all of R or empty. Both generating normals
    are integrated over the event in one ``gaussian_q`` call; returns the
    minimum over the two generating laws.
    """
    if law.regime is not Regime.GAUSSIAN or neighbor_law.regime is not Regime.GAUSSIAN:
        raise ValueError("leakage probability needs gaussian-regime laws")
    if not nu_sigma >= 0:
        raise ValueError(f"nu_sigma must be >= 0, got {nu_sigma}")
    if not epsilon > 0:                    # the roots pair up only for -epsilon < epsilon
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    mu0, mu1 = law.mean, neighbor_law.mean
    s0 = math.sqrt(law.variance + nu_sigma**2)
    s1 = math.sqrt(neighbor_law.variance + nu_sigma**2)
    a = 0.5 / s1**2 - 0.5 / s0**2
    b = mu0 / s0**2 - mu1 / s1**2
    c = 0.5 * mu1**2 / s1**2 - 0.5 * mu0**2 / s0**2 + math.log(s1 / s0)
    ends = []
    for level in (-epsilon, epsilon):                      # roots of L = level
        c_level = c - level
        if a != 0.0:
            disc = b * b - 4.0 * a * c_level
            if disc >= 0.0:
                s = math.sqrt(disc)
                ends += ((-b - s) / (2.0 * a), (-b + s) / (2.0 * a))
        elif b != 0.0:
            ends.append(-c_level / b)
    ends.sort()
    if not ends:
        if abs(c) > epsilon:
            return 0.0
        ends = [-math.inf, math.inf]
    q = gaussian_q([(e - mu) / sd for mu, sd in ((mu0, s0), (mu1, s1)) for e in ends]).tolist()
    mass = [q_lo - q_hi for q_lo, q_hi in zip(q[0::2], q[1::2])]   # per interval, per law
    k = len(ends) // 2
    return min(1.0, max(0.0, min(sum(mass[:k]), sum(mass[k:]))))


def calibrate_gaussian_output_sigma(law: ResidualLaw, neighbor_law: ResidualLaw,
                                    epsilon: float, delta: float) -> float:
    """Smallest noise scale passing the leakage condition with a margin.

    Searches nu_sigma such that Pr[|L| <= epsilon] >= 1 - delta + 1e-3
    in the worst direction, doubling up from 1 and bisecting down to a
    relative 1e-4; both are fixed (``_CALIBRATION_MARGIN``,
    ``_CALIBRATION_REL_TOL``). The probability is evaluated exactly (no
    sampling), so the returned scale is deterministic. Returns 0.0 when
    the laws already satisfy the condition without noise.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    target = 1.0 - delta + _CALIBRATION_MARGIN

    def ok(s: float) -> bool:
        return gaussian_leakage_probability(law, neighbor_law, s, epsilon) >= target

    if ok(0.0):
        return 0.0
    hi = 1.0
    doublings = 0
    while not ok(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise ConvergenceError(
                "gaussian output calibration failed: no noise scale below "
                f"2^60 satisfies the leakage condition at epsilon={epsilon}, delta={delta}"
            )
    lo = 0.0
    while hi - lo > _CALIBRATION_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Input perturbation baseline
# ---------------------------------------------------------------------------

def gaussian_mechanism_sigma(sensitivity: float, epsilon: float, delta: float) -> float:
    """Standard Gaussian-mechanism scale: sensitivity * sqrt(2 ln(1.25/delta)) / epsilon."""
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be > 0, got {sensitivity}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def input_perturbation_noise(m: int, sigma: float, epsilon: float,
                             delta: float) -> tuple[float, float]:
    """(sigma_w, k) of input perturbation at total budget epsilon.

    The budget is split evenly over the m entries, each of unit
    sensitivity, so each is perturbed at per-element budget epsilon / m;
    k = sigma_w^2 / sigma^2 is the noise-to-measurement variance ratio. A
    budget so small that sigma_w or k leaves the double range raises
    NumericError.
    """
    per_element = epsilon / m
    # A budget whose share underflows to 0 would need an infinite scale.
    sigma_w = (math.inf if per_element == 0 < epsilon
               else gaussian_mechanism_sigma(1.0, per_element, delta))
    try:
        k = sigma_w**2 / sigma**2
    except OverflowError:
        k = math.inf
    if not math.isfinite(k):
        raise NumericError(f"input perturbation at epsilon={epsilon} over {m} entries "
                           f"needs sigma_w={sigma_w:.3g}, whose variance ratio k to "
                           f"sigma={sigma:.3g} overflows")
    return sigma_w, k


@dataclass(frozen=True)
class InputPerturbation:
    """Perturbed measurement vector with the calibration record."""

    z_tilde: np.ndarray
    sigma_w: float
    k: float
    epsilon_per_element: float
    params: PrivacyParams
    seed: dict | None


def input_perturbation_release(model: MeasurementModel, z, epsilon: float,
                               delta: float, rng) -> InputPerturbation:
    """Perturb every measurement with the standard Gaussian mechanism.

    The total budget is split evenly over the m entries (per-element
    budget epsilon / m, unit sensitivity per element); reports
    k = sigma_w^2 / sigma^2, the noise-to-measurement variance ratio.
    """
    sigma_w, k = input_perturbation_noise(model.m, model.sigma, epsilon, delta)
    z = np.asarray(z, dtype=float)
    if z.shape != (model.m,):
        raise ValueError(f"z has shape {z.shape}, expected ({model.m},)")
    gen = as_generator(rng)
    return InputPerturbation(
        z_tilde=z + sigma_w * gen.standard_normal(model.m),
        sigma_w=sigma_w,
        k=k,
        epsilon_per_element=epsilon / model.m,
        params=PrivacyParams.gaussian_input(epsilon=epsilon, delta=delta),
        seed=seed_record_of(rng),
    )

