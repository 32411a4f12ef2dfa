"""State estimation and residual-statistic laws.

The weighted sum of squared residuals (WSSR) of the least-squares state
estimate is the detection query everything downstream consumes. For the
unregularized model it follows a noncentral chi-square law whose degrees
of freedom equal the projector rank; the ridge variant is exactly a
weighted mixture of unit chi-squares, read off the model's cached thin
SVD factor, together with its cumulants and the moment-matched Gaussian
approximation with a computable sup-density error bound. The m - k
directions off col(U), k = min(m, n), form one weight-1 block whose basis
is arbitrary; its noncentrality is spread evenly over the block, the
representation with the smallest largest term, so ``rho`` does not
depend on a basis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError
from .measurement_model import (
    MeasurementModel,
    StateVector,
    _attack_dense,
    _readonly,
    _state_dense,
)
from .streams import as_generator


class Regime(enum.Enum):
    """Distributional regime of a residual statistic."""

    CHI_SQUARE = "chi_square"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class ResidualLaw:
    """Distribution descriptor of a WSSR-type query.

    Chi-square regime: degrees of freedom and noncentrality.
    Gaussian regime: mean and variance. A noncentrality, mean or variance
    that is not finite (an input that overflowed it) raises NumericError.
    """

    regime: Regime
    dof: float | None = None
    noncentrality: float | None = None
    mean: float | None = None
    variance: float | None = None

    def __post_init__(self):
        for name in ("noncentrality", "mean", "variance"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise NumericError(f"the {self.regime.value} law's {name} is {value}: "
                                   "an input is too large or too small for a double")
        if self.regime is Regime.CHI_SQUARE:
            if self.dof is None or self.dof < 0:
                raise ValueError(f"chi-square law needs dof >= 0, got {self.dof}")
            if self.noncentrality is None or self.noncentrality < 0:
                raise ValueError(
                    f"noncentrality must be >= 0, got {self.noncentrality}"
                )
        else:
            if self.mean is None or self.variance is None or not self.variance > 0:
                raise ValueError("gaussian law needs a mean and variance > 0")

    @classmethod
    def chi_square(cls, dof: float, noncentrality: float = 0.0) -> "ResidualLaw":
        return cls(regime=Regime.CHI_SQUARE, dof=dof, noncentrality=noncentrality)

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "ResidualLaw":
        return cls(regime=Regime.GAUSSIAN, mean=mean, variance=variance)


@dataclass(frozen=True, eq=False)
class ChiMixture:
    """Weighted mixture of independent unit-dof noncentral chi-squares.

    The query equals sum_i d_i * y_i with y_i ~ chi2_1(theta_i^2),
    obtained by rotating the measurements into the left singular basis of
    H. The first k = min(m, n) weights are (1 - w)^2 from the model's
    factor (0 when lam = 0); the last m - k are ones, the directions off
    col(U). That weight-1 block carries its noncentrality evenly, one
    equal theta per term: any basis of the block gives the same law and
    cumulants, and the even split minimizes the largest term behind
    ``rho``.
    """

    d: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for name in ("d", "theta"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if np.any(self.d < -1e-12) or np.any(self.d > 1 + 1e-12):
            raise ValueError("mixture weights must lie in [0, 1]")
        if self.d.shape != self.theta.shape:
            raise ValueError("weights and centers must have equal length")

    @property
    def m(self) -> int:
        return self.d.shape[0]

    def sample(self, rng, size: int) -> np.ndarray:
        """Draw the mixture directly: sum_i d_i (N(theta_i, 1))^2."""
        gen = as_generator(rng)
        z = gen.standard_normal((int(size), self.m)) + self.theta[None, :]
        return (z * z) @ self.d


# ---------------------------------------------------------------------------
# Estimation and residual statistics
# ---------------------------------------------------------------------------

def wls_estimate(model: MeasurementModel, z) -> StateVector:
    """Least-squares state estimate; ridge-regularized when lam > 0.

    Solves min_x sigma^{-2} ||z - H x||^2 + lam ||x||^2 from the model's
    factor: x = V (s / (s^2 + lam sigma^2) * U^T z). With lam = 0 this is
    the ordinary least-squares solution.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (model.m,):
        raise ValueError(f"z has shape {z.shape}, expected ({model.m},)")
    f = model.factor
    gain = f.s / (f.s**2 + model.lam * model.sigma**2)
    return StateVector(f.vt.T @ (gain * (f.u.T @ z)))


def _residual_sq(model: MeasurementModel, Z: np.ndarray) -> np.ndarray:
    """Row-wise ||P z||^2 of a (trials, m) batch, without forming P.

    ||P z||^2 = ||(1 - w) * c||^2 + ||z - U c||^2 with c = U^T z; the
    second term vanishes when U is square (m <= n), and there the weights
    scale U (m x m) rather than the (trials, m) batch.
    """
    f = model.factor
    if model.m <= model.n:
        C = Z @ (f.u * (1.0 - f.w))
        return np.einsum("ij,ij->i", C, C)
    C = Z @ f.u
    R = C @ f.u.T
    np.subtract(Z, R, out=R)
    C *= 1.0 - f.w
    return np.einsum("ij,ij->i", C, C) + np.einsum("ij,ij->i", R, R)


def _shift_terms(model: MeasurementModel, a: np.ndarray) -> tuple[np.ndarray, float]:
    """g = P^T P a and ||P a||^2 of a shift a, from the factor of ``_residual_sq``.

    The residual map is linear, so ||P (z + a)||^2 = ||P z||^2 + 2 z.g +
    ||P a||^2: a batch shifted by a is scored from its unshifted squares by
    one matrix-vector product. P is I - U diag(w) U^T, symmetric, so
    g = U ((1 - w)^2 * c) + (a - U c) with c = U^T a; the second term is
    kept only where U is not square (m > n), as in ``_residual_sq``. That
    remainder is projected off col(U) twice: the rounding of one pass lies
    partly in col(H), where z's mean H x can be far larger than P z.
    """
    f = model.factor
    c = f.u.T @ a
    pc = (1.0 - f.w) * c
    g = f.u @ ((1.0 - f.w) * pc)
    sq = float(pc @ pc)
    if model.m > model.n:
        r = a - f.u @ c
        r -= f.u @ (f.u.T @ r)
        g += r
        sq += float(r @ r)
    return g, sq


def wssr(model: MeasurementModel, z) -> float | np.ndarray:
    """Weighted sum of squared residuals sigma^{-2} ||z - H x*||^2.

    Accepts a single measurement vector or a (trials, m) batch; returns a
    float or a length-trials array correspondingly. Always >= 0; a statistic
    past the double range is inf, without a warning.
    """
    z = np.asarray(z, dtype=float)
    batch = z.ndim == 2
    Z = np.atleast_2d(z)
    if Z.shape[1] != model.m:
        raise ValueError(f"z has {Z.shape[1]} entries, expected m={model.m}")
    with np.errstate(over="ignore"):
        out = _residual_sq(model, Z) / model.sigma**2
    return out if batch else float(out[0])


def residual_law(model: MeasurementModel, x, attack=None) -> ResidualLaw:
    """Chi-square-regime law of the WSSR under the given state and attack.

    Degrees of freedom are the projector's numerical rank. For lam = 0 the
    noncentrality is sigma^{-2} ||P a||^2, independent of the state; for
    lam > 0 it is sigma^{-2} (H x + a)^T P^2 (H x + a) and state-dependent.
    """
    v = _attack_dense(attack, model.m)
    if model.lam > 0:
        v = model.H @ _state_dense(x, model.n) + v
    nc = float(_residual_sq(model, v[None, :])[0]) / model.sigma**2
    return ResidualLaw.chi_square(dof=float(model.factor.residual_rank), noncentrality=nc)


def chi_mixture(model: MeasurementModel, x, attack=None) -> ChiMixture:
    """Decomposition of the WSSR into weighted unit chi-squares.

    With v = H x + a and c = U^T v from the model's factor, the centers
    are c / sigma on col(U), and the off-column part ||v - U c||^2 / sigma^2
    spread evenly over the m - k weight-1 terms.
    """
    f = model.factor
    v = model.H @ _state_dense(x, model.n) + _attack_dense(attack, model.m)
    c = f.u.T @ v
    off = model.m - c.size
    t = math.sqrt(float(np.sum((v - f.u @ c) ** 2)) / off) if off else 0.0
    return ChiMixture(
        d=np.concatenate([(1.0 - f.w) ** 2, np.ones(off)]),
        theta=np.concatenate([c, np.full(off, t)]) / model.sigma,
    )


# ---------------------------------------------------------------------------
# Cumulants and the Gaussian approximation
# ---------------------------------------------------------------------------

def cumulant(mix: ChiMixture, order: int) -> float:
    """Cumulant K_ell = 2^{ell-1} (ell-1)! sum_i d_i^ell (1 + ell theta_i^2).

    Supported for order 1..4: mean, variance, the skewness numerator, and
    the kurtosis diagnostic.
    """
    if not 1 <= order <= 4:
        raise ValueError(f"cumulant order must be in 1..4, got {order}")
    ell = int(order)
    return float(
        2 ** (ell - 1) * math.factorial(ell - 1)
        * np.sum(mix.d**ell * (1.0 + ell * mix.theta**2))
    )


@dataclass(frozen=True)
class GaussianApproximation:
    """Moment-matched Gaussian law for the mixture with quality diagnostics.

    ``sup_density_bound`` bounds the sup-norm gap between the density of
    the standardized query and the standard normal density:
    0.1323 (4 + 0.2503 / (1 - 8 rho)^2) / sqrt(zeta), available only when
    rho < 1/8. ``zeta`` is None when the third cumulant vanishes. The
    approximation becomes exact as rho -> 0 or zeta -> inf.
    """

    law: ResidualLaw
    rho: float
    zeta: float | None
    sup_density_bound: float | None

    @property
    def bound_available(self) -> bool:
        return self.sup_density_bound is not None


def normal_approx_bound(rho: float, zeta: float) -> float:
    """Sup-density error bound 0.1323 (4 + 0.2503/(1-8 rho)^2) / sqrt(zeta).

    Valid for rho < 1/8 and zeta > 0; nonnegative and decreasing in zeta.
    """
    if not rho < 0.125:
        raise ValueError(f"bound requires rho < 1/8, got {rho}")
    if not zeta > 0:
        raise ValueError(f"zeta must be > 0, got {zeta}")
    return 0.1323 * (4.0 + 0.2503 / (1.0 - 8.0 * rho) ** 2) / math.sqrt(zeta)


def gaussian_law(mix: ChiMixture) -> GaussianApproximation:
    """Gaussian-regime law N(K1, K2) of the mixture, with diagnostics."""
    k1 = cumulant(mix, 1)
    k2 = cumulant(mix, 2)
    k3 = cumulant(mix, 3)
    if not k2 > 0:
        raise ValueError("mixture has zero variance; no residual to approximate")
    rho = float(np.max(2.0 * mix.d**2 * (1.0 + 2.0 * mix.theta**2)) / k2)
    zeta = 8.0 * k2**3 / k3**2 if k3 != 0 else None
    bound = None
    if rho < 0.125 and zeta is not None:
        bound = normal_approx_bound(rho, zeta)
    return GaussianApproximation(
        law=ResidualLaw.gaussian(mean=k1, variance=k2),
        rho=rho,
        zeta=zeta,
        sup_density_bound=bound,
    )

