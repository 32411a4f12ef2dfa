"""Differentially private release of residual statistics.

The primary mechanism adds an independent central chi-square draw with r'
extra degrees of freedom to the residual query before release, keeping the
released statistic in the noncentral chi-square family. Its (epsilon,
delta) guarantee over distance-one neighborhoods of the system matrix is

    delta = max over reachable (theta, theta') of
            Q_{r~/2}(theta, eps/(theta'-theta) - (theta'+theta)/2)
          + Q_{r~/2}(theta, eps/(theta'-theta) + (theta'+theta)/2),

with the first term saturating at 1 when the lower boundary argument is
negative (the bounding event is then empty). The neighborhood itself is
not bounded a priori, so the maximization domain is supplied explicitly
as a row-perturbation bound plus a deterministic grid over the
noncentrality-root interval.

Also provided: the exact privacy leakage (log-likelihood ratio) of the
released statistic under two neighboring laws, a Gaussian additive
mechanism for the large-system regime with a numerically calibrated noise
scale (the closed-form guarantee for stochastic queries is intentionally
out of scope; the calibration searches the smallest noise scale whose
leakage passes the probabilistic privacy condition), and the baseline
that perturbs every measurement with the standard Gaussian mechanism at a
per-element budget.
"""

from __future__ import annotations

import enum
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .estimation import Regime, ResidualLaw
from .exceptions import ConvergenceError, SingularUpdateError
from .measurement_model import (
    MeasurementModel,
    NeighborPerturbation,
    _attack_dense,
    projection_matrix,
    neighbor_projection_update,
)
from .special_functions import (
    DEFAULT_TOLERANCE,
    Tolerance,
    gaussian_q,
    log_bessel_i,
    marcum_q,
    noncentral_chisq_sample,
)
from .streams import SeedStream, as_generator, seed_record_of

logger = logging.getLogger(__name__)

_CENTRAL_EPS = 1e-8


class Mechanism(enum.Enum):
    CHI_SQUARE = "chi_square"
    GAUSSIAN_OUTPUT = "gaussian_output"
    GAUSSIAN_INPUT = "gaussian_input"


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget plus the knobs of the selected mechanism.

    Exactly the fields of the selected mechanism may be set: ``r_prime``
    for the chi-square mechanism, ``nu_mean``/``nu_sigma`` for the
    Gaussian output mechanism, ``input_k`` (recorded noise-to-measurement
    variance ratio) for input perturbation.
    """

    mechanism: Mechanism
    epsilon: float | None = None
    delta: float | None = None
    r_prime: int | None = None
    nu_mean: float | None = None
    nu_sigma: float | None = None
    input_k: float | None = None

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.delta is not None and not 0 <= self.delta <= 1:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        required = {
            Mechanism.CHI_SQUARE: ("r_prime",),
            Mechanism.GAUSSIAN_OUTPUT: ("nu_mean", "nu_sigma"),
            Mechanism.GAUSSIAN_INPUT: ("input_k",),
        }[self.mechanism]
        for name in ("r_prime", "nu_mean", "nu_sigma", "input_k"):
            value = getattr(self, name)
            if name in required and value is None:
                raise ValueError(f"{self.mechanism.value} mechanism requires {name}")
            if name not in required and value is not None:
                raise ValueError(f"{name} is not a parameter of {self.mechanism.value}")
        if self.r_prime is not None and self.r_prime < 1:
            raise ValueError(f"r_prime must be >= 1, got {self.r_prime}")
        if self.nu_sigma is not None and not self.nu_sigma > 0:
            raise ValueError(f"nu_sigma must be > 0, got {self.nu_sigma}")
        if self.input_k is not None and not self.input_k > 0:
            raise ValueError(f"input_k must be > 0, got {self.input_k}")

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
    def gaussian_input(cls, input_k: float, epsilon: float | None = None,
                       delta: float | None = None) -> "PrivacyParams":
        return cls(mechanism=Mechanism.GAUSSIAN_INPUT, epsilon=epsilon, delta=delta,
                   input_k=input_k)


@dataclass(frozen=True)
class NoisyRelease:
    """A privatized residual value with its law and replay provenance."""

    value: float
    params: PrivacyParams
    law: ResidualLaw
    seed: dict | None


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Search domain for the guarantee maximization.

    ``delta_h_bound`` caps the row-perturbation norm, ``scan_count`` sets
    how many random perturbations to probe, and ``theta_domain`` is the
    closed interval of noncentrality roots additionally swept by a
    deterministic grid.
    """

    delta_h_bound: float
    scan_count: int
    theta_domain: tuple[float, float]
    grid_points: int = 33

    def __post_init__(self):
        if not self.delta_h_bound > 0:
            raise ValueError(f"delta_h_bound must be > 0, got {self.delta_h_bound}")
        if self.scan_count < 1:
            raise ValueError(f"scan_count must be >= 1, got {self.scan_count}")
        lo, hi = self.theta_domain
        if not (0 <= lo < hi):
            raise ValueError(f"theta_domain must satisfy 0 <= lo < hi, got {self.theta_domain}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")


# ---------------------------------------------------------------------------
# Chi-square mechanism
# ---------------------------------------------------------------------------

def chi_square_release(law: ResidualLaw, q: float, r_prime: int, rng,
                       epsilon: float | None = None,
                       delta: float | None = None) -> NoisyRelease:
    """Release q + nu with nu an independent central chi-square, r' dof.

    The released statistic keeps the noncentrality of ``law`` and gains
    r' degrees of freedom.
    """
    if law.regime is not Regime.CHI_SQUARE:
        raise ValueError("chi-square mechanism needs a chi-square-regime law")
    if r_prime < 1:
        raise ValueError(f"r_prime must be >= 1, got {r_prime}")
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    nu = noncentral_chisq_sample(float(r_prime), 0.0, rng)
    release_law = ResidualLaw.chi_square(dof=law.dof + r_prime,
                                         noncentrality=law.noncentrality)
    params = PrivacyParams.chi_square(r_prime=r_prime, epsilon=epsilon, delta=delta)
    return NoisyRelease(value=q + nu, params=params, law=release_law,
                        seed=seed_record_of(rng))


def delta_for_epsilon(epsilon: float, r_tilde: float, theta: float,
                      theta_prime: float,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """The delta guarantee at budget epsilon for one neighbor pair.

    ``theta`` and ``theta_prime`` are the noncentrality roots of the
    released statistic under the two neighboring models (order
    irrelevant; the pair is symmetrized). Identical roots give delta = 0.
    When the lower boundary eps/(theta'-theta) - (theta'+theta)/2 is
    negative, its tail term saturates at 1: the event that bounds the
    leakage from below is empty there.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not r_tilde > 0:
        raise ValueError(f"r_tilde must be > 0, got {r_tilde}")
    if theta < 0 or theta_prime < 0:
        raise ValueError("noncentrality roots must be >= 0")
    if theta > theta_prime:
        theta, theta_prime = theta_prime, theta
    gap = theta_prime - theta
    if gap == 0.0:
        return 0.0
    b_lo = epsilon / gap - 0.5 * (theta_prime + theta)
    b_hi = epsilon / gap + 0.5 * (theta_prime + theta)
    order = 0.5 * r_tilde
    term_lo = 1.0 if b_lo < 0 else marcum_q(order, theta, b_lo, tol=tol)
    term_hi = marcum_q(order, theta, b_hi, tol=tol)
    return min(1.0, term_lo + term_hi)


@dataclass(frozen=True)
class DeltaScanResult:
    """Outcome of the guarantee maximization over a neighborhood."""

    delta: float
    argmax_theta: float
    argmax_theta_prime: float
    argmax_perturbation: NeighborPerturbation | None
    scan_max: float
    grid_max: float
    skipped: int


def _scan_chunk(model: MeasurementModel, a: np.ndarray, epsilon: float,
                r_tilde: float, theta: float, bound: float, count: int, rng):
    """One worker's share of the perturbation scan.

    Returns (best delta, best theta', best perturbation, skipped count).
    """
    gen = as_generator(rng)
    m, n = model.m, model.n
    best = (-1.0, theta, None)
    skipped = 0
    for _ in range(count):
        row = int(gen.integers(m))
        direction = gen.standard_normal(n)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            skipped += 1
            continue
        pert = NeighborPerturbation(row_index=row, delta_h=direction * (bound / norm))
        try:
            P_prime = neighbor_projection_update(model, pert, fallback=False)
        except SingularUpdateError as exc:
            logger.warning("skipping singular neighbor update: %s", exc)
            skipped += 1
            continue
        theta_prime = float(np.linalg.norm(P_prime @ a)) / model.sigma
        d = delta_for_epsilon(epsilon, r_tilde, theta, theta_prime) \
            if theta_prime != theta else 0.0
        if d > best[0]:
            best = (d, theta_prime, pert)
    return best[0], best[1], best[2], skipped


def delta_max_over_neighborhood(epsilon: float, model: MeasurementModel,
                                attack, r_prime: int, spec: NeighborhoodSpec,
                                rng, workers: int = 1) -> DeltaScanResult:
    """Maximize delta over row perturbations and the configured grid.

    Scans ``spec.scan_count`` random unit directions scaled to the
    perturbation bound, propagating each through the rank-one projector
    update to get the neighbor's noncentrality root, and additionally
    sweeps all ordered pairs from a deterministic grid over
    ``spec.theta_domain``. Requires lam = 0 (the update path is
    unregularized). Singular updates are logged and skipped.

    ``workers > 1`` splits the scan over processes, each with its own
    derived stream (requires a SeedStream); partial maxima are reduced in
    worker order.
    """
    if model.lam != 0:
        raise ValueError("the sensitivity scan requires lambda = 0")
    a = _attack_dense(attack, model.m)
    P = projection_matrix(model).matrix
    theta = float(np.linalg.norm(P @ a)) / model.sigma
    r_tilde = float(model.m - model.n + r_prime)

    if workers <= 1:
        chunk_results = [_scan_chunk(model, a, epsilon, r_tilde, theta,
                                     spec.delta_h_bound, spec.scan_count, rng)]
    else:
        if not isinstance(rng, SeedStream):
            raise TypeError("parallel scans need a SeedStream to derive worker streams")
        counts = [spec.scan_count // workers] * workers
        counts[-1] += spec.scan_count - sum(counts)
        streams = rng.spawn(workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(
                _scan_chunk,
                [model] * workers, [a] * workers, [epsilon] * workers,
                [r_tilde] * workers, [theta] * workers,
                [spec.delta_h_bound] * workers, counts, streams,
            ))

    best = (-1.0, theta, theta, None)
    scan_max = 0.0
    skipped = 0
    for d, theta_prime, pert, chunk_skipped in chunk_results:
        skipped += chunk_skipped
        if d < 0.0:
            continue
        scan_max = max(scan_max, d)
        if d > best[0]:
            best = (d, theta, theta_prime, pert)

    grid = np.linspace(spec.theta_domain[0], spec.theta_domain[1], spec.grid_points)
    grid_max = 0.0
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            d = delta_for_epsilon(epsilon, r_tilde, float(grid[i]), float(grid[j]))
            grid_max = max(grid_max, d)
            if d > best[0]:
                best = (d, float(grid[i]), float(grid[j]), None)

    delta, th, thp, pert = best
    return DeltaScanResult(delta=max(delta, 0.0), argmax_theta=th,
                           argmax_theta_prime=thp, argmax_perturbation=pert,
                           scan_max=scan_max, grid_max=grid_max, skipped=skipped)


# ---------------------------------------------------------------------------
# Privacy leakage (log-likelihood ratio of the released statistic)
# ---------------------------------------------------------------------------

def _noncentral_logpdf(q, dof: float, theta: float):
    """log density of chi2_dof(theta^2) at q > 0, stable in theta -> 0."""
    q = np.asarray(q, dtype=float)
    half = 0.5 * dof
    if theta < _CENTRAL_EPS:
        return (half - 1.0) * np.log(q) - 0.5 * q - half * math.log(2.0) \
            - sp.gammaln(half)
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

def gaussian_output_release(law: ResidualLaw, q: float, nu_mean: float,
                            nu_sigma: float, rng,
                            epsilon: float | None = None,
                            delta: float | None = None) -> NoisyRelease:
    """Release q + N(nu_mean, nu_sigma^2) for a Gaussian-regime law."""
    if law.regime is not Regime.GAUSSIAN:
        raise ValueError("gaussian output mechanism needs a gaussian-regime law")
    if not nu_sigma > 0:
        raise ValueError(f"nu_sigma must be > 0, got {nu_sigma}")
    gen = as_generator(rng)
    value = q + gen.normal(nu_mean, nu_sigma)
    release_law = ResidualLaw.gaussian(mean=law.mean + nu_mean,
                                       variance=law.variance + nu_sigma**2)
    params = PrivacyParams.gaussian_output(nu_mean=nu_mean, nu_sigma=nu_sigma,
                                           epsilon=epsilon, delta=delta)
    return NoisyRelease(value=value, params=params, law=release_law,
                        seed=seed_record_of(rng))


def _quadratic_le_zero(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """Solution set of a u^2 + b u + c <= 0 as disjoint closed intervals."""
    inf = math.inf
    if a == 0.0:
        if b == 0.0:
            return [(-inf, inf)] if c <= 0 else []
        root = -c / b
        return [(-inf, root)] if b > 0 else [(root, inf)]
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return [] if a > 0 else [(-inf, inf)]
    s = math.sqrt(disc)
    lo, hi = (-b - s) / (2.0 * a), (-b + s) / (2.0 * a)
    if lo > hi:
        lo, hi = hi, lo
    if a > 0:
        return [(lo, hi)]
    return [(-inf, lo), (hi, inf)]


def _intersect(sets_a: list[tuple[float, float]],
               sets_b: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = []
    for a_lo, a_hi in sets_a:
        for b_lo, b_hi in sets_b:
            lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
            if lo < hi:
                out.append((lo, hi))
    return out


def gaussian_leakage_probability(law: ResidualLaw, neighbor_law: ResidualLaw,
                                 nu_sigma: float, epsilon: float) -> float:
    """Exact Pr[|L| <= epsilon] for the Gaussian release pair, worst direction.

    L(u) is a quadratic in the released value u; the event is an
    intersection of quadratic sub-level sets integrated in closed form
    against each generating normal. Returns the minimum over the two
    generating laws.
    """
    if law.regime is not Regime.GAUSSIAN or neighbor_law.regime is not Regime.GAUSSIAN:
        raise ValueError("leakage probability needs gaussian-regime laws")
    if nu_sigma < 0:
        raise ValueError(f"nu_sigma must be >= 0, got {nu_sigma}")
    mu0, mu1 = law.mean, neighbor_law.mean
    s0 = math.sqrt(law.variance + nu_sigma**2)
    s1 = math.sqrt(neighbor_law.variance + nu_sigma**2)
    a = 0.5 / s1**2 - 0.5 / s0**2
    b = mu0 / s0**2 - mu1 / s1**2
    c = 0.5 * mu1**2 / s1**2 - 0.5 * mu0**2 / s0**2 + math.log(s1 / s0)
    upper = _quadratic_le_zero(a, b, c - epsilon)          # L <= eps
    lower = _quadratic_le_zero(-a, -b, -(c + epsilon))     # L >= -eps
    region = _intersect(upper, lower)

    def mass(mu: float, s: float) -> float:
        total = 0.0
        for lo, hi in region:
            total += gaussian_q((lo - mu) / s) - gaussian_q((hi - mu) / s)
        return min(1.0, max(0.0, total))

    return min(mass(mu0, s0), mass(mu1, s1))


def calibrate_gaussian_output_sigma(law: ResidualLaw, neighbor_law: ResidualLaw,
                                    epsilon: float, delta: float,
                                    margin: float = 1e-3,
                                    rel_tol: float = 1e-4) -> float:
    """Smallest noise scale passing the leakage condition with margin.

    Searches nu_sigma such that Pr[|L| <= epsilon] >= 1 - delta + margin
    in the worst direction, doubling up from 1 and bisecting down. The
    probability is evaluated exactly (no sampling), so the returned scale
    is deterministic. Returns 0.0 when the laws already satisfy the
    condition without noise.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    target = 1.0 - delta + margin

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
    while hi - lo > rel_tol * hi:
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
                               delta: float, rng,
                               sensitivity: float = 1.0) -> InputPerturbation:
    """Perturb every measurement with the standard Gaussian mechanism.

    The total budget is split evenly over the m entries (per-element
    budget epsilon / m, the stated sensitivity per element); reports
    k = sigma_w^2 / sigma^2, the noise-to-measurement variance ratio.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    z = np.asarray(z, dtype=float)
    if z.shape != (model.m,):
        raise ValueError(f"z has shape {z.shape}, expected ({model.m},)")
    gen = as_generator(rng)
    eps_o = epsilon / model.m
    sigma_w = gaussian_mechanism_sigma(sensitivity, eps_o, delta)
    k = sigma_w**2 / model.sigma**2
    params = PrivacyParams.gaussian_input(input_k=k, epsilon=epsilon, delta=delta)
    return InputPerturbation(
        z_tilde=z + sigma_w * gen.standard_normal(model.m),
        sigma_w=sigma_w,
        k=k,
        epsilon_per_element=eps_o,
        params=params,
        seed=seed_record_of(rng),
    )

