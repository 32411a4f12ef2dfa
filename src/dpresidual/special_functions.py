"""Scalar special functions and distribution primitives.

Provides the inverse regularized gamma tail, the (generalized,
real-order) Marcum Q-function, noncentral chi-square CDF and sampling,
Gaussian tail functions, and modified Bessel functions of the first kind. These are the
numerical bedrock for the residual laws, the privacy guarantee, and the
detection analytics built on top.

The Marcum Q-function is evaluated by the Poisson-weighted series of
regularized upper-gamma tails,

    Q_s(a, b) = sum_k  Poisson(k; a^2/2) * Q(s + k, b^2/2),

summed outward from the bulk of the Poisson weights with a certified
geometric bound on the truncated mass. With all gamma tails in [0, 1], the
remaining Poisson mass bounds the truncation error directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .exceptions import ConvergenceError
from .streams import as_generator


@dataclass(frozen=True)
class Tolerance:
    """Series/iteration control for the special-function evaluations.

    Attributes
    ----------
    abs_tol : float
        Absolute truncation target for series tails.
    rel_tol : float
        Relative tolerance for inversions and round trips.
    max_terms : int
        Hard cap on series terms before a ConvergenceError is raised.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_terms: int = 10**6

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_TOLERANCE = Tolerance()


# ---------------------------------------------------------------------------
# Regularized gamma tail inverse
# ---------------------------------------------------------------------------

def regularized_gamma_q_inverse(alpha, s: float):
    """Solve Q(s, x) = alpha for x.

    Monotone decreasing in ``alpha``; alpha (scalar or array) must lie
    strictly in (0, 1). Arrays are inverted elementwise.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    if not np.all((alpha_arr > 0.0) & (alpha_arr < 1.0)):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not s > 0:
        raise ValueError(f"s must be > 0, got {s}")
    out = sp.gammainccinv(s, alpha_arr)
    return float(out) if alpha_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Marcum Q-function and the noncentral chi-square law
# ---------------------------------------------------------------------------

def marcum_q(order: float, a: float, b, tol: Tolerance = DEFAULT_TOLERANCE):
    """Generalized Marcum Q-function Q_order(a, b) of real order > 0.

    Equals the upper tail of the noncentral chi-square law under the
    standard parameter map: Q_s(a, b) = Pr[X > b^2] for
    X ~ chi2(dof=2s, noncentrality=a^2).

    Parameters
    ----------
    order : float
        Order s > 0.
    a : float
        Noncentrality root, a >= 0. At a = 0 the series degenerates and
        the value is the central gamma tail Q(s, b^2 / 2).
    b : float or ndarray
        Boundary, b >= 0. Arrays are evaluated elementwise against a
        shared, certified term budget.
    tol : Tolerance
        Truncation control; the truncated Poisson mass is kept below
        ``tol.abs_tol``.

    Raises
    ------
    ConvergenceError
        If the series needs more than ``tol.max_terms`` terms.
    """
    if not order > 0:
        raise ValueError(f"order must be > 0, got {order}")
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    b_arr = np.asarray(b, dtype=float)
    scalar = b_arr.ndim == 0
    if np.any(b_arr < 0):
        raise ValueError("b must be >= 0")
    x = 0.5 * b_arr * b_arr

    if a == 0.0:
        out = sp.gammaincc(order, x)
        return float(out) if scalar else out

    mu = 0.5 * a * a
    k0 = int(mu)
    logw0 = k0 * math.log(mu) - mu - sp.gammaln(k0 + 1)

    total = np.zeros_like(x)
    nterms = 0

    # Upward sweep from the modal weight; Poisson weights decay once k >= mu,
    # and the tail mass beyond k is bounded by w_k * r / (1 - r), r = mu/(k+1).
    k, logw = k0, logw0
    while True:
        w = math.exp(logw)
        total += w * sp.gammaincc(order + k, x)
        nterms += 1
        if nterms > tol.max_terms:
            raise ConvergenceError(
                f"marcum_q series exceeded max_terms={tol.max_terms} "
                f"(order={order}, a={a})"
            )
        r = mu / (k + 1)
        if r < 1.0 and w * r / (1.0 - r) < 0.5 * tol.abs_tol:
            break
        logw += math.log(mu) - math.log(k + 1)
        k += 1

    # Downward sweep below the mode, with the mirrored geometric bound.
    if k0 > 0:
        k = k0 - 1
        logw = logw0 + math.log(k0) - math.log(mu)
        while True:
            w = math.exp(logw)
            total += w * sp.gammaincc(order + k, x)
            nterms += 1
            if nterms > tol.max_terms:
                raise ConvergenceError(
                    f"marcum_q series exceeded max_terms={tol.max_terms} "
                    f"(order={order}, a={a})"
                )
            if k == 0:
                break
            r = k / mu
            if r < 1.0 and w * r / (1.0 - r) < 0.5 * tol.abs_tol:
                break
            logw += math.log(k) - math.log(mu)
            k -= 1

    # Truncated Poisson mass never reaches 1 exactly; the b = 0 boundary
    # carries full mass by definition.
    out = np.where(x == 0.0, 1.0, np.minimum(total, 1.0))
    return float(out) if scalar else out


def noncentral_chisq_cdf(x, dof: float, noncentrality: float,
                         tol: Tolerance = DEFAULT_TOLERANCE):
    """CDF of the noncentral chi-square law chi2_dof(noncentrality).

    Related to the Marcum Q-function by
    ``CDF(x) = 1 - Q_{dof/2}(sqrt(noncentrality), sqrt(x))``.
    Accepts scalar or array ``x``.
    """
    if not dof > 0:
        raise ValueError(f"dof must be > 0, got {dof}")
    if noncentrality < 0:
        raise ValueError(f"noncentrality must be >= 0, got {noncentrality}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    if np.any(x_arr < 0):
        raise ValueError("x must be >= 0")
    out = 1.0 - marcum_q(0.5 * dof, math.sqrt(noncentrality), np.sqrt(x_arr), tol=tol)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if scalar else out


def noncentral_chisq_sample(dof: float, noncentrality: float, rng, size=None):
    """Draw from chi2_dof(noncentrality) by the constructive definition.

    Integer dof: the sum of ``dof`` squared unit normals with one mean
    shifted by sqrt(noncentrality). Fractional dof: a Poisson(nc/2) mixture
    of central chi-squares with dof + 2K degrees of freedom.

    Parameters
    ----------
    rng : SeedStream, numpy Generator, or int seed
    size : int or None
        None returns a single float; otherwise an array of draws.
    """
    if not dof > 0:
        raise ValueError(f"dof must be > 0, got {dof}")
    if noncentrality < 0:
        raise ValueError(f"noncentrality must be >= 0, got {noncentrality}")
    gen = as_generator(rng)
    n = 1 if size is None else int(size)

    k = int(round(dof))
    if abs(dof - k) < 1e-12 and k >= 1:
        shifted = gen.standard_normal(n) + math.sqrt(noncentrality)
        out = shifted**2
        if k > 1:
            out = out + gen.chisquare(k - 1, size=n)
    else:
        mix = gen.poisson(0.5 * noncentrality, size=n) if noncentrality > 0 else 0
        out = gen.chisquare(dof + 2 * mix, size=n)
    return float(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# Gaussian tails
# ---------------------------------------------------------------------------

def gaussian_q(x):
    """Standard normal upper-tail probability Q(x) = Pr[N(0,1) > x]."""
    x_arr = np.asarray(x, dtype=float)
    out = 0.5 * sp.erfc(x_arr / math.sqrt(2.0))
    return float(out) if x_arr.ndim == 0 else out


def gaussian_q_inverse(p):
    """Inverse of ``gaussian_q``; p (scalar or array) must lie strictly in (0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise ValueError(f"p must be in (0, 1), got {p}")
    out = math.sqrt(2.0) * sp.erfcinv(2.0 * p_arr)
    return float(out) if p_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Modified Bessel functions of the first kind
# ---------------------------------------------------------------------------

def bessel_i(order: float, x: float) -> float:
    """Modified Bessel function of the first kind, I_order(x), x > 0.

    Evaluated in scaled form internally; raises OverflowError when the
    unscaled value exceeds the double range (use ``log_bessel_i`` there).
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if not x > 0:
        raise ValueError(f"x must be > 0, got {x}")
    scaled = float(sp.ive(order, x))
    value = scaled * math.exp(x) if x < 700.0 else math.inf
    if not math.isfinite(value):
        raise OverflowError(
            f"bessel_i({order}, {x}) overflows a double; use log_bessel_i"
        )
    return value


def log_bessel_i(order: float, x) -> float:
    """log I_order(x), evaluated stably via the scaled Bessel function.

    Defined for order > -1, where I_order is positive on x > 0.
    """
    if order <= -1:
        raise ValueError(f"order must be > -1, got {order}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    if np.any(x_arr <= 0):
        raise ValueError("x must be > 0")
    out = np.log(sp.ive(order, x_arr)) + x_arr
    if np.any(~np.isfinite(out)):
        raise OverflowError(f"log_bessel_i underflowed at order={order}")
    return float(out) if scalar else out
