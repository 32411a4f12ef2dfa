"""Special functions and distribution primitives.

Provides the inverse regularized gamma tail, the (generalized,
real-order) Marcum Q-function, noncentral chi-square CDF and sampling,
Gaussian tail functions, and modified Bessel functions of the first kind. These are the
numerical bedrock for the residual laws, the privacy guarantee, and the
detection analytics built on top.

The Marcum Q-function is evaluated by the Poisson-weighted series of
regularized upper-gamma tails (Gil, Segura & Temme, "Computation of the
Marcum Q-function", ACM TOMS 2014),

    Q_s(a, b) = sum_k  Poisson(k; a^2/2) * Q(s + k, b^2/2),

over a window of k fixed per element by closed-form Poisson tail bounds
on its mean: the mass left out below the window and the mass left out
above it are each at most half the absolute tolerance. With all gamma
tails in [0, 1], the left-out mass bounds the truncation error directly.
``a`` and ``b`` broadcast; a call loops over the terms of the union of
its elements' windows, never over the elements.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .exceptions import ConvergenceError
from .streams import as_generator

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class Tolerance:
    """Series/iteration control for the special-function evaluations.

    Attributes
    ----------
    abs_tol : float
        Absolute truncation target for series tails, in (0, 1).
    max_terms : int
        Hard cap on series terms before a ConvergenceError is raised.
    """

    abs_tol: float = 1e-12
    max_terms: int = 10**6

    def __post_init__(self):
        if not 0 < self.abs_tol < 1:
            raise ValueError(f"abs_tol must be in (0, 1), got {self.abs_tol}")
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

def _poisson_window(mu, p: float):
    """Each mean's window [k_lo, k_hi] of Poisson terms, from tail bounds.

    The Poisson law is sub-Gaussian on the left and obeys the Chernoff
    bound on the right (Boucheron, Lugosi & Massart, "Concentration
    Inequalities", 2013, Sec. 2.2): with L = ln(1/p),

        Pr[X <= mu - t] <= exp(-t^2 / (2 mu)),      t = sqrt(2 L mu),
        Pr[X >= mu (1 + u)] <= exp(-mu h(u)),       h(u) = (1 + u) log1p(u) - u.

    So k_lo = max(ceil(mu - t), 0) and k_hi = ceil(mu (1 + u)) - 1 with
    mu h(u) = L leave at most p of Poisson mass out on each side. That u
    is exp(1 + W0((L/mu - 1)/e)) - 1, then one Newton step: h is convex
    and increasing, so a step from any u > 0 lands on or above the root,
    whatever W's rounding. A mean mu <= p has k_hi = 0, as
    Pr[X >= 1] <= mu. Means must lie below 2^53.
    """
    log_inv_p = -math.log(p)
    k_lo = np.maximum(np.ceil(mu - np.sqrt(2.0 * log_inv_p * mu)), 0.0)
    spread = mu > p
    m = np.where(spread, mu, 1.0)  # a stand-in where k_hi is 0 anyway
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal p: caught by the caller
        c = log_inv_p / m
        u = np.expm1(1.0 + sp.lambertw((c - 1.0) / math.e).real)
        log1p_u = np.log1p(u)
        u -= ((1.0 + u) * log1p_u - u - c) / log1p_u
        k_hi = np.where(spread, np.ceil(mu * (1.0 + u)) - 1.0, 0.0)
    return k_lo, k_hi


def marcum_q(order: float, a, b, tol: Tolerance = DEFAULT_TOLERANCE):
    """Generalized Marcum Q-function Q_order(a, b) of real order > 0.

    Equals the upper tail of the noncentral chi-square law under the
    standard parameter map: Q_s(a, b) = Pr[X > b^2] for
    X ~ chi2(dof=2s, noncentrality=a^2).

    Parameters
    ----------
    order : float
        Order s > 0.
    a : float or ndarray
        Noncentrality root, a >= 0. At a = 0 the Poisson weights sit on
        k = 0 and the value is the central gamma tail Q(s, b^2 / 2).
    b : float or ndarray
        Boundary, b >= 0; b = inf gives 0. ``a`` and ``b`` broadcast
        against each other; scalars in give a float out.
    tol : Tolerance
        Truncation control; the Poisson mass each element drops is at
        most ``tol.abs_tol / 2`` on either side of its window.

    Each element sums the Poisson terms k_lo <= k <= k_hi of its own
    mean mu = a^2 / 2. With p = abs_tol / 2, both ends come in closed
    form from the Poisson tail bounds of ``_poisson_window``: the terms
    below k_lo weigh at most p together, and so do the terms above k_hi.
    The call sums the union of the windows in ascending k, skipping the
    gaps between them, each element's terms outside its own window
    weighing exactly zero, so every element of an array call equals the
    scalar call bit for bit, and elements with far apart means cost the
    sum of their windows, not the span between them. The term and
    element counts are logged at DEBUG.

    Raises
    ------
    ConvergenceError
        If a^2 / 2 reaches 2^53 (overflow included), where consecutive
        integers are no longer distinct floats, if ``tol.abs_tol`` is so
        small that a window end is not finite, or if the union of the
        windows holds more than ``tol.max_terms`` terms.
    """
    if not order > 0:
        raise ValueError(f"order must be > 0, got {order}")
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if not ((a_arr >= 0).all() and np.isfinite(a_arr).all()):
        raise ValueError(f"a must be finite and >= 0, got {a}")
    if not (b_arr >= 0).all():
        raise ValueError("b must be >= 0 and not NaN")
    shape = np.broadcast(a_arr, b_arr).shape
    if 0 in shape:
        return np.zeros(shape)
    with np.errstate(over="ignore"):  # an infinite x is a boundary with Q = 0
        mu = 0.5 * a_arr * a_arr
        x = 0.5 * b_arr * b_arr

    if not (mu < 2.0**53).all():
        raise ConvergenceError(f"marcum_q Poisson mean a^2/2 reaches 2^53 at a = {a_arr.max()}")
    k_lo, k_hi = _poisson_window(mu, 0.5 * tol.abs_tol)
    if not np.isfinite(k_hi).all():
        raise ConvergenceError(f"marcum_q window end not finite at abs_tol={tol.abs_tol}")
    # The union of the windows: sort them by k_lo and merge each window
    # into the run before it unless a gap separates them.
    by_lo = np.argsort(k_lo, axis=None)
    lo = np.ravel(k_lo)[by_lo]
    hi = np.maximum.accumulate(np.ravel(k_hi)[by_lo])
    opens = np.append(True, lo[1:] > hi[:-1] + 1.0)
    lo, hi = lo[opens], hi[np.append(opens[1:], True)]
    counts = hi - lo + 1.0
    if counts.sum() > tol.max_terms:
        raise ConvergenceError(
            f"marcum_q windows cover {counts.sum():.0f} terms, more than "
            f"max_terms={tol.max_terms} (order={order}, a up to {a_arr.max()})"
        )
    counts = counts.astype(np.int64)
    k = np.arange(counts.sum(), dtype=float) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    logger.debug("marcum_q: %d terms over %d elements", k.size, mu.size)
    kk = k.reshape((-1,) + (1,) * mu.ndim)
    w = np.exp(sp.xlogy(kk, mu) - mu - sp.gammaln(kk + 1.0))
    w[(kk < k_lo) | (kk > k_hi)] = 0.0
    total = np.zeros(shape)
    for k_i, w_i in zip(k, w):
        total += w_i * sp.gammaincc(order + k_i, x)

    # Truncated Poisson mass never reaches 1 exactly; the b = 0 boundary
    # carries full mass by definition.
    out = np.where(x == 0.0, 1.0, np.minimum(total, 1.0))
    return float(out) if out.ndim == 0 else out


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
