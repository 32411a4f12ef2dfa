"""Special functions and distribution primitives.

Provides the inverse regularized gamma tail, the (generalized,
real-order) Marcum Q-function, noncentral chi-square CDF and sampling,
the exceedance probability Pr[X1 > X0] of two noncentral chi-square
laws (an AUROC), Gaussian tail functions, and modified Bessel functions
of the first kind. These are the numerical bedrock for the residual
laws, the privacy guarantee, and the detection analytics built on top.

The Marcum Q-function and the exceedance are Poisson mixtures of central
terms (Gil, Segura & Temme, "Computation of the Marcum Q-function", ACM
TOMS 2014), e.g.

    Q_s(a, b) = sum_k  Poisson(k; a^2/2) * Q(s + k, b^2/2),

and one walker, ``_poisson_blocks``, forms every Poisson weight of both.
Each mean's window of k comes from closed-form Poisson tail bounds: the
mass left out below it and above it is each at most ABS_TOL / 2, and with
every summand in [0, 1] that bounds the truncation error, so each value is
within ABS_TOL = 1e-12 of the full series. A call walks the 32-term blocks
that the union of its distinct means' windows touches, never the span
between far-apart windows, and raises ``ConvergenceError`` if that union
holds more than MAX_TERMS = 10^6 terms or a mean reaches 2^53. At a
block's seed, a multiple of 32, the weight and the gamma tail's step
x^s e^-x / Gamma(s + 1) are Poisson terms in Loader's saddle-point form and
the tail is ``_gamma_q``'s, a series below s + 1 and a continued fraction
above; along the block w_k = w_(k-1) mu / k and Q(s + 1, x) = Q(s, x) +
x^s e^-x / Gamma(s + 1) (DLMF 8.8). Each tail is within 5e-14 of
``scipy.special.gammaincc``'s over orders 0.5 to 1e5 and each weight
within a relative 1e-13 of the exact one up to mean 2e5. A value depends
only on its blocks, its mean and its boundary, so every element of an
array call equals its one-element call bit for bit.

``regularized_gamma_q_inverse`` takes Halley steps on these same tails,
from a Wilson-Hilferty or power-law start, and ``chisq_exceedance``'s
incomplete betas I_(1/2)(a, b), whose b - a is an integer, are walks from
I_(1/2)(a, a) = 1/2 along b (DLMF 8.17.20), so neither needs scipy.

``log_bessel_i`` is the log of scipy's scaled Bessel function below
order 50, or its power series where that underflows, and the Debye
uniform expansion (DLMF 10.41(ii)) from order 50 on, where the scaled
function underflows at the orders of large models.

Every function that calls ``scipy.special`` imports it on first use, not
at module import: ``gaussian_q``, ``gaussian_q_inverse`` and
``log_bessel_i``. ``marcum_q``, ``noncentral_chisq_cdf``, the Poisson
walker, ``regularized_gamma_q_inverse`` and ``chisq_exceedance`` are plain
numpy, so a process that simulates, estimates, releases, computes the
privacy guarantee or the chi-square detection analytics starts without
paying scipy's import time.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np

from .exceptions import ConvergenceError
from .streams import as_generator

logger = logging.getLogger(__name__)

# The Marcum-Q series' absolute truncation error and its term budget.
ABS_TOL = 1e-12
MAX_TERMS = 10**6


# ---------------------------------------------------------------------------
# Regularized gamma tail inverse
# ---------------------------------------------------------------------------

def regularized_gamma_q_inverse(alpha, s: float):
    """Solve Q(s, x) = alpha for x.

    Monotone decreasing in ``alpha``; alpha (scalar or array) must lie
    strictly in (0, 1) and s must be finite and > 0. Arrays are inverted
    elementwise, each element equal to its one-element call bit for bit.

    Halley's method on the package's own tails (Gil, Segura & Temme, SIAM
    J. Sci. Comput. 2012; DiDonato & Morris, ACM TOMS 1986): on log Q where
    alpha <= 1/2, and on log P, P = 1 - Q = 1 - alpha exactly, above, so
    that neither a tail of 1e-300 nor one of 1 - 1e-12 loses its digits.
    With f = log V - log v, V the solved tail and v its target, and the
    sign sigma = +1 on Q and -1 on P, the step is

        u / (1 + u ((s - 1) / x - 1 + sigma s t / (x V)) / 2),
        u = sigma f x V / (s t),

    t = x^s e^-x / Gamma(s + 1), as dV/dx = -sigma s t / x and the density's
    log-derivative is (s - 1) / x - 1. The start is Wilson-Hilferty above
    s = 1, with a normal quantile of 1.2e-9 relative error (Acklam's
    rational form); below, the power law x^s / Gamma(s + 1) = 1 - alpha,
    and for Q the larger of it and the tail x^(s-1) e^-x / Gamma(s) =
    alpha. The power law is at or below the root, as P(s, x) <=
    x^s / Gamma(s + 1), so a start below the smallest normal double is
    returned as it is: its relative error is about x. The signs of f keep
    a bracket about the root, and a step that leaves it bisects it instead.

    f is summed as log(V / t) + (log t - log v), the first from the tails'
    factors free of t and the second from ``_log_term_ratio``, so it keeps
    its digits where t or V is subnormal or underflows. V / t comes from
    ``_gamma_pq`` at a step's x, or, where x is near the last x it was
    evaluated at, from that value and ``_gamma_local``'s series for the
    density's integral in between, if that changes V by at most half. Each
    element stops on its own at a Halley step of |dx| <= 1e-8 x, after
    which the error is far below rounding, or where the bracket is 1e-8 x
    wide; so it equals its one-element call bit for bit. At s = 90 over the
    ROC's 512-point grid the start is within 3.3e-4 relative, and every
    alpha takes one ``_gamma_pq`` evaluation and a second step on its local
    series. From the smallest subnormal alpha to 1 - 1e-12 and s from 0.5
    to 1e5, an alpha takes at most 3 steps, and x is within 1e-14 relative
    of the root. The count of alphas, s, the gamma-tail evaluations
    (``_gamma_pq``, one per element) and the most steps an alpha took are
    logged at DEBUG.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    if not np.all((alpha_arr > 0.0) & (alpha_arr < 1.0)):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < s < math.inf:
        raise ValueError(f"s must be finite and > 0, got {s}")
    s = float(s)
    alpha_flat = alpha_arr.ravel()
    upper = alpha_flat <= 0.5  # solve on Q, else on P = 1 - Q
    sign = np.where(upper, 1.0, -1.0)
    v = np.where(upper, alpha_flat, 1.0 - alpha_flat)
    log_v = np.log(v)
    # log v's rounding: exp(log v) = v (1 - its error), to 1e-16 absolute.
    back = np.exp(log_v)
    normal = back >= _TINY
    log_v_err = np.where(normal, (v - back) / np.where(normal, back, 1.0), 0.0)
    x = _gamma_q_inverse_start(alpha_flat, v, upper, s)
    lo, hi = np.zeros(x.size), np.full(x.size, np.inf)
    # Where _gamma_pq last evaluated each tail (x = 0 before it has): x, V / t
    # and log t - log v there, or V and -log v where t underflows and V / t
    # is not known (``anchored`` false).
    x_a, r_a, g_a = np.zeros(x.size), np.zeros(x.size), np.zeros(x.size)
    anchored = np.zeros(x.size, dtype=bool)
    idx = np.flatnonzero(x >= _TINY)
    evaluations = steps = 0
    while idx.size:
        if steps == _INVERSE_STEPS:
            raise ConvergenceError(f"gamma tail inverse at s = {s} took more than "
                                   f"{_INVERSE_STEPS} steps for alpha = {alpha_flat[idx[0]]}")
        xs, sg = x[idx], sign[idx]
        drop = np.zeros(idx.size)  # the change of V / t_a since the last evaluation
        shift = np.zeros(idx.size)  # log t_a - log t
        local = anchored[idx]
        if local.any():
            at = idx[local]
            gap = xs[local] - x_a[at]
            change, close = _gamma_local(s, x_a[at], s / x_a[at], gap)
            close &= np.abs(change) <= 0.5 * r_a[at]
            drop[local] = np.where(close, change, 0.0)
            shift[local] = np.where(close, gap - s * np.log1p(gap / x_a[at]), 0.0)
            local[local] = close
        full = np.flatnonzero(~local)
        if full.size:
            at, xf, sf = idx[full], xs[full], sg[full]
            g = _log_term_ratio(s, xf, log_v[at]) - log_v_err[at]  # log t - log v
            t = np.exp(g + log_v[at])
            # Where t is subnormal or 0, Q above s + 1 and P below are t times
            # a factor that does not depend on it: a stand-in t = 1 gives it.
            t = np.where((t < _TINY) & ((sf > 0.0) == (xf >= s + 1.0)), 1.0, t)
            p, q, _ = _gamma_pq(s, xf, t)
            val, live = np.where(sf > 0.0, q, p), t > 0.0
            x_a[at], anchored[at] = xf, live
            r_a[at] = np.where(live, val / np.where(live, t, 1.0), val)
            g_a[at] = np.where(live, g, -log_v[at])
        evaluations, steps = evaluations + full.size, steps + 1
        scaled = r_a[idx] - sg * drop
        ok = anchored[idx] & (scaled > 0.0)
        with np.errstate(divide="ignore"):  # a tail of 0 lies past the root
            f = np.log(scaled) + g_a[idx]
        left = sg * f > 0.0  # x lies below the root
        below, above = np.where(left, xs, lo[idx]), np.where(left, hi[idx], xs)
        lo[idx], hi[idx] = below, above
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN step leaves the bracket
            ratio = np.where(ok, scaled * np.exp(shift), 1.0) / s  # V / (s t)
            u = sg * np.where(ok, f, 0.0) * xs * ratio
            den = 1.0 + 0.5 * u * ((s - 1.0) / xs - 1.0 + sg / (xs * ratio))
            dx = np.where(den > 0.0, u / den, u)
            xn = xs + dx
        converged = ok & (np.abs(dx) <= 1e-8 * xs)
        inside = converged | (ok & (below < xn) & (xn < above))
        mid = np.where(above < np.inf,
                       np.where(below > 0.0, 0.5 * (below + above), 0.5 * above), 2.0 * below)
        x[idx] = np.where(inside, xn, mid)
        idx = idx[~(converged | (above - below <= 1e-8 * xs))]
    logger.debug("regularized_gamma_q_inverse: %d alphas at s = %g, %d _gamma_q "
                 "evaluations, at most %d steps per alpha", alpha_flat.size, s,
                 evaluations, steps)
    return float(x[0]) if alpha_arr.ndim == 0 else x.reshape(alpha_arr.shape)


def _log_term_ratio(s: float, x, log_v):
    """log t - log v for the Poisson terms t = ``_poisson_term(s, x)``, x > 0.

    log t = -stirlerr(s) - log sqrt(2 pi s) - bd0(s, x). Where bd0 has its
    direct form s log(s / x) + x - s, -log v - x is summed first: near the
    root of a far tail the two are within a factor 2, so that difference is
    exact and the sum keeps about 1e-15 of log t's size instead of 1e-16 of
    x's. With log v's own rounding taken off, log V - log v keeps its digits
    for V down to 1e-300 and below, and x is within about half an ulp of
    the root there.
    """
    direct = np.abs(s - x) >= 0.1 * (s + x)  # as in _bd0
    with np.errstate(over="ignore"):  # s / x overflows only where exp(-bd0) underflows
        deviance = np.where(direct, (-log_v - x) + (s - s * np.log(s / x)), -log_v - _bd0(s, x))
    return deviance - (_stirlerr(s) + _LN_SQRT_2PI + 0.5 * math.log(s))


# Halley steps any one alpha may take; every alpha of the docstring's range
# takes at most 3, and a bisected bracket closes in about 60.
_INVERSE_STEPS = 100
# _gamma_local sums this many terms of its series, and bounds them on a
# disc this many times the step wide.
_LOCAL_TERMS = 16
_LOCAL_RADIUS = 16.0


def _gamma_local(s: float, x, density, h):
    """(change, near): the gamma density's integral from x to x + h, in the
    unit of its value ``density`` at x, and where that is within 3e-20
    relative.

    The density is density g(y) at x + y, g(y) = e^-y (1 + y/x)^(s-1), so
    the integral is density h sum_n c_n h^n / (n + 1) over the Taylor
    coefficients c_n of g, which (x + y) g' = (s - 1 - x - y) g gives as
    c_0 = 1, c_1 = (s - 1) / x - 1 and c_(n+1) = ((s - 1 - x - n) c_n -
    c_(n-1)) / (x (n + 1)); _LOCAL_TERMS = 16 of them are summed. On the
    disc |y| <= R = 16 |h| (R < x), |log g| <= kappa = |c_1| R + |s - 1|
    (R / x)^2 / (2 (1 - R / x)), so by Cauchy's bound |c_n h^n| <= e^kappa
    16^-n. ``near`` is kappa <= 1: then the terms left out are below 1e-20,
    and the sum, the density's mean over [x, x + h] over its value at x,
    is at least 1/e.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # far h is not near
        radius = _LOCAL_RADIUS * np.abs(h)
        z = radius / x
        c1 = (s - 1.0) / x - 1.0
        kappa = np.abs(c1) * radius + abs(s - 1.0) * z * z / (2.0 * (1.0 - z))
        near = (z < 1.0) & (kappa <= 1.0)
        h = np.where(near, h, 0.0)
        w = h / x
        c1h, hw = c1 * h, h * w
        prev, term, total = 0.0, np.ones(h.size), np.ones(h.size)
        for n in range(1, _LOCAL_TERMS):  # term = c_n h^n
            prev, term = term, ((c1h - (n - 1.0) * w) * term - hw * prev) / n
            total += term / (n + 1.0)
    return density * h * total, near


# Acklam's rational approximation of the standard normal quantile: central
# numerator and denominator, then the tail's (2003, "An algorithm for
# computing the inverse normal cumulative distribution function").
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00, 1.0)


def _horner(coefficients, x):
    out = np.zeros_like(x)
    for c in coefficients:
        out = out * x + c
    return out


def _normal_lower_quantile(p):
    """z with Phi(z) = p, for p in (0, 1/2], to 1.2e-9 relative (Acklam):
    the rational form in r = sqrt(-2 log p) below p = 0.02425, in
    (p - 1/2)^2 above."""
    tail = p < 0.02425
    r = np.sqrt(-2.0 * np.log(np.where(tail, p, 0.5)))
    y = np.where(tail, 0.25, p) - 0.5
    y2 = y * y
    return np.where(tail, _horner(_ACKLAM_C, r) / _horner(_ACKLAM_D, r),
                    y * _horner(_ACKLAM_A, y2) / _horner(_ACKLAM_B, y2))


def _gamma_q_inverse_start(alpha, v, upper, s: float):
    """The start x_0 of ``regularized_gamma_q_inverse``, for 1-D alpha, v =
    min(alpha, 1 - alpha) and upper = alpha <= 1/2."""
    # P(s, x) <= x^s / Gamma(s + 1): this power law is at or below the root.
    power = np.exp((np.log1p(-alpha) + math.lgamma(s + 1.0)) / s)
    if s > 1.0:
        z = np.where(upper, -1.0, 1.0) * _normal_lower_quantile(v)  # Phi(-z) = alpha
        base = 1.0 - 1.0 / (9.0 * s) + z / (3.0 * math.sqrt(s))
        return np.where(base > 0.0, np.maximum(s * np.maximum(base, 0.0) ** 3, power), power)
    tail = -np.log(v) - math.lgamma(s)
    tail = tail + (s - 1.0) * np.log(np.maximum(tail, 1.0))
    return np.where(upper, np.maximum(tail, power), power)


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
    h(u) = c = L / mu leave at most p of Poisson mass out on each side.
    Newton's method finds that u from u_0 = c/3 + sqrt(c^2/9 + 2c), the root
    of Bernstein's bound h(u) >= u^2 / (2 + 2u/3) and so at or above h's
    root. h is convex and increasing, so each step from above lands on or
    above the root again, and every iterate keeps the guarantee. Four steps
    reach the root to 2e-14, relative, for p from 5e-16 to 5e-7 and means up
    to 1e4, where h's own rounding does not dominate; five are taken. A mean
    mu <= p has k_hi = 0, as Pr[X >= 1] <= mu. Means must lie below 2^53;
    ``marcum_q`` passes p = ABS_TOL / 2, where both ends are finite for
    every such mean.
    """
    log_inv_p = -math.log(p)
    k_lo = np.maximum(np.ceil(mu - np.sqrt(2.0 * log_inv_p * mu)), 0.0)
    spread = mu > p
    m = np.where(spread, mu, 1.0)  # a stand-in where k_hi is 0 anyway
    c = log_inv_p / m
    u = c / 3.0 + np.sqrt(c * c / 9.0 + 2.0 * c)
    for _ in range(5):
        log1p_u = np.log1p(u)
        u = u - ((1.0 + u) * log1p_u - u - c) / log1p_u
    k_hi = np.where(spread, np.ceil(mu * (1.0 + u)) - 1.0, 0.0)
    return k_lo, k_hi


# Every _RESTART-th Poisson weight and gamma tail is seeded; the ones
# between come from the recurrences.
_RESTART = 32
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling series coefficients 1/12, 1/360, 1/1260, 1/1680, 1/1188.
_STIRLING = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)


def _stirlerr(s: float) -> float:
    """log Gamma(s + 1) - (s + 1/2) log s + s - log sqrt(2 pi), for s > 0.

    Below 15 from ``math.lgamma``; above, five terms of the Stirling
    series, whose first left-out term is below 1e-16 there.
    """
    if s <= 15.0:
        return math.lgamma(s + 1.0) - (s + 0.5) * math.log(s) + s - _LN_SQRT_2PI
    inv = 1.0 / (s * s)
    c0, c1, c2, c3, c4 = _STIRLING
    return (c0 - (c1 - (c2 - (c3 - c4 * inv) * inv) * inv) * inv) / s


def _bd0(s: float, x):
    """The deviance s log(s / x) + x - s for x > 0, without cancellation.

    Where |v| < 0.1, v = (s - x) / (s + x), it is the series
    (s - x) v + sum_j 2 s v^(2j+1) / (2j + 1) of Loader (2000) to j = 8:
    the first term left out is below 1e-18 of the sum. Elsewhere the
    direct form has no cancellation to lose digits to.
    """
    v = (s - x) / (s + x)
    near = np.abs(v) < 0.1
    v = np.where(near, v, 0.0)
    v2 = v * v
    term = 2.0 * s * v
    series = (s - x) * v
    for j in range(1, 9):
        term = term * v2
        series = series + term / (2 * j + 1)
    with np.errstate(over="ignore"):  # s / x overflows only where exp(-bd0) underflows
        direct = s * np.log(s / x) + x - s
    return np.where(near, series, direct)


def _poisson_term(s: float, x):
    """The Poisson term x^s e^(-x) / Gamma(s + 1), for s >= 0 and x >= 0.

    At s = 0 it is e^(-x). Above, it is 0 where x is 0 or infinite and
    elsewhere Loader's saddle-point form exp(-stirlerr(s) - bd0(s, x)) /
    sqrt(2 pi s) ("Fast and Accurate Computation of Binomial
    Probabilities", 2000), since the direct exponent
    s log x - x - log Gamma(s + 1) cancels digits at large s.
    """
    if s == 0.0:
        return np.exp(-x)
    finite = (x > 0.0) & (x < np.inf)
    t = np.exp(-_stirlerr(s) - _bd0(s, np.where(finite, x, 1.0))) / math.sqrt(2.0 * math.pi * s)
    return np.where(finite, t, 0.0)


def _poisson_blocks(mu, where: str):
    """(terms, blocks): the Poisson weights of the 1-D means ``mu``, 32 terms at a time.

    ``terms`` counts the union of the windows ``_poisson_window(mu, ABS_TOL
    / 2)``, each widened down to its seed, the multiple of _RESTART below
    it. ``blocks`` yields (seed, w) for each block of _RESTART terms the
    union touches, in ascending order, cut after the union's last term:
    w[j, i] is the weight mu_i^k e^(-mu_i) / k! at k = seed + j inside mean
    i's window and 0 outside it, ``_poisson_term(seed, mu)`` at the seed
    and w_(k-1) mu / k after. A mean at or past 2^53, where consecutive
    integers are no longer distinct floats, or a union past MAX_TERMS
    raises ConvergenceError naming ``where`` before any weight is formed.
    """
    if not (mu < 2.0**53).all():
        raise ConvergenceError(f"Poisson mean reaches 2^53 at {where}")
    k_lo, k_hi = _poisson_window(mu, 0.5 * ABS_TOL)
    first = k_lo - k_lo % _RESTART
    # Taken by first term, each widened window adds the terms past the
    # furthest end before it, and the blocks past that end's block.
    by_first = np.argsort(first)
    lo, hi = first[by_first], k_hi[by_first]
    reach = np.maximum.accumulate(np.append(-1.0, hi))[:-1]
    terms = np.maximum(hi - np.maximum(lo - 1.0, reach), 0.0).sum()
    if terms > MAX_TERMS:
        raise ConvergenceError(f"Poisson windows cover {terms:.0f} terms, more than "
                               f"MAX_TERMS={MAX_TERMS}, at {where}")
    start = np.maximum(lo, reach - reach % _RESTART + _RESTART)
    count = np.maximum((hi - start) // _RESTART + 1.0, 0.0).astype(np.int64)
    seeds = np.repeat(start - _RESTART * (np.cumsum(count) - count), count) \
        + _RESTART * np.arange(count.sum())

    def blocks():
        for seed in seeds:
            top = min(seed + _RESTART, k_hi[k_lo < seed + _RESTART].max() + 1.0)
            k = np.arange(seed, top)[:, None]       # the block up to the union's last term
            w = np.empty((k.size, mu.size))
            w[0] = _poisson_term(seed, mu)
            w[1:] = mu / k[1:]
            yield seed, np.where((k_lo <= k) & (k <= k_hi), np.cumprod(w, axis=0), 0.0)

    return terms, blocks()


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # the smallest normal double
# _gamma_q takes its iterations this many at a time, as array operations.
_CHUNK = 16


def _gamma_q(s: float, x, t):
    """(q, n): the gamma tails Q(s, x), from their Poisson terms t =
    ``_poisson_term(s, x)``, and the most iterations an element took:
    ``_gamma_pq`` without the lower tails."""
    _, q, most = _gamma_pq(s, x, t)
    return q, most


def _gamma_pq(s: float, x, t):
    """(p, q, n): the lower and upper gamma tails P(s, x) and Q(s, x) = 1 -
    P(s, x), from their Poisson terms t = ``_poisson_term(s, x)``, and the
    most iterations an element took.

    The classical split (Gautschi, ACM TOMS 1979): below s + 1 the series
    Q = 1 - t sum_n x^n / ((s + 1) ... (s + n)) (DLMF 8.7.1), from s + 1 on
    Q = s t / (x + 1 - s - 1 (1 - s) / (x + 3 - s - 2 (2 - s) / (x + 5 - s - ...)))
    (DLMF 8.9.2) by Lentz's method: with a_n = -n (n - s) and b_n = x + 2n +
    1 - s, C_n and E_n = 1 / D_n both follow r_n = b_n + a_n / r_(n-1), from
    C_0 = inf and E_0 = b_0, and the value is 1 / b_0 times every C_n / E_n.
    There b_n >= 2n + 2, so b_n b_(n-1) > 4n (n - s) and, by induction, C_n
    and E_n stay above b_n / 2: the modified method's guard against a zero
    denominator would never act.

    Each element stops at its own convergence, at the first term within eps
    of the sum or the first factor within eps of 1, so it equals its
    one-element call bit for bit. The iterations run _CHUNK at a time as
    array operations, and each element's value is read at its own stop.
    The series forms P and the fraction Q, each without cancellation, and
    the other tail is 1 minus it. Where t is 0 (x = 0, x = inf, or t
    underflows) q is 1 below s + 1 and 0 above, with no iteration. Both
    sides are slowest near x = s, at about sqrt(2 s log(1 / eps)) iterations.
    """
    shape = np.shape(x)
    x, t = np.ravel(x), np.ravel(t)
    below = x < s + 1.0
    q = np.where(below, 1.0, 0.0)
    p = 1.0 - q
    live = t > 0.0
    most = 0
    ahead = np.arange(1.0, _CHUNK + 1.0)[:, None]

    idx = np.flatnonzero(live & below)
    xs, ts = x[idx], t[idx]
    term, total, n = np.ones(idx.size), np.ones(idx.size), 0
    while idx.size:
        ratios = xs / (s + (n + ahead))
        ratios[0] *= term
        terms = np.cumprod(ratios, axis=0)
        sums = terms.copy()
        sums[0] += total
        sums = np.cumsum(sums, axis=0)
        stop, cols, keep = _first_stops(terms <= _EPS * sums)
        at, lower = idx[cols], ts[cols] * sums[stop, cols]
        p[at], q[at] = lower, 1.0 - lower
        most = max(most, n + 1 + stop.max(initial=-1))
        idx, xs, ts = idx[keep], xs[keep], ts[keep]
        term, total, n = terms[-1, keep], sums[-1, keep], n + _CHUNK

    idx = np.flatnonzero(live & ~below)
    xs, ts = x[idx], t[idx]
    e = xs + (1.0 - s)
    c, h, n = np.full(idx.size, np.inf), 1.0 / e, 0
    while idx.size:
        b = xs + (2.0 * (n + ahead) + 1.0 - s)
        factors = np.empty((_CHUNK, idx.size))
        for j in range(_CHUNK):
            an = -(n + j + 1.0) * (n + j + 1.0 - s)
            e = b[j] + an / e
            c = b[j] + an / c
            factors[j] = c / e
        hs = factors.copy()
        hs[0] *= h
        hs = np.cumprod(hs, axis=0)
        stop, cols, keep = _first_stops(np.abs(factors - 1.0) <= _EPS)
        at, upper = idx[cols], s * ts[cols] * hs[stop, cols]
        p[at], q[at] = 1.0 - upper, upper
        most = max(most, n + 1 + stop.max(initial=-1))
        idx, xs, ts, c, e = idx[keep], xs[keep], ts[keep], c[keep], e[keep]
        h, n = hs[-1, keep], n + _CHUNK
    return p.reshape(shape), q.reshape(shape), int(most)


def _first_stops(done):
    """(stop, cols, keep) of a chunk's (iteration, element) convergence mask:
    each converged column's first converged row, the converged columns, and
    the mask of the columns still running."""
    keep = ~done.any(axis=0)
    cols = np.flatnonzero(~keep)
    return done[:, cols].argmax(axis=0), cols, keep


def _gamma_tails(order: float, seed: float, x, iterations: list | None = None):
    """Yield the gamma tails Q(order + k, x) for k = seed, ..., seed + 31.

    At the seed, ``_gamma_q`` from its step t = ``_poisson_term(order +
    seed, x)``, appending its iteration count to ``iterations`` when one
    is given; after, Q(s + 1, x) = Q(s, x) + t_s with t_(s+1) = t_s x /
    (s + 1) (DLMF 8.8).
    """
    x_step = np.where(x < np.inf, x, 0.0)  # t is 0 at x = inf and stays 0
    t = _poisson_term(order + seed, x)
    q, n = _gamma_q(order + seed, x, t)
    if iterations is not None:
        iterations.append(n)
    yield q
    for k in seed + np.arange(1.0, _RESTART):
        q, t = q + t, t * (x_step / (order + k))
        yield q


def marcum_q(order: float, a, b):
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

    Each element sums the terms of its own window of mu = a^2 / 2, in
    ascending k over the blocks of ``_poisson_blocks``, with the tails of
    ``_gamma_tails``: within ABS_TOL = 1e-12 of the full series, and equal
    to its scalar call bit for bit. At a = 0 the value is the gamma tail
    ``_gamma_q(order, b^2 / 2)`` itself. The union's term count, the
    element count, the seed count (blocks times boundaries, one ``_gamma_q``
    evaluation each) and the most iterations a seed's tail took are logged
    at DEBUG; the last is largest for boundaries near b^2 / 2 = order + k.

    Raises
    ------
    ConvergenceError
        If a^2 / 2 reaches 2^53 (overflow included), where consecutive
        integers are no longer distinct floats, or if the union of the
        windows holds more than MAX_TERMS = 10^6 terms.
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

    means, inv = np.unique(mu, return_inverse=True)
    terms, blocks = _poisson_blocks(means, f"a = {a_arr.max()} in marcum_q of order {order}")
    inv = inv.reshape(mu.shape)
    total = np.zeros(shape)
    seeds, iterations = 0, []
    for seeds, (seed, w) in enumerate(blocks, 1):
        for w_k, q in zip(w[:, inv], _gamma_tails(order, seed, x, iterations)):
            total += w_k * q
    logger.debug("marcum_q: %d terms over %d elements, %d gamma-tail seeds "
                 "of at most %d iterations", terms, mu.size, seeds * x.size,
                 max(iterations, default=0))

    # Truncated Poisson mass never reaches 1 exactly; the b = 0 boundary
    # carries full mass by definition.
    out = np.where(x == 0.0, 1.0, np.minimum(total, 1.0))
    return float(out) if out.ndim == 0 else out


def chisq_exceedance(dof: float, noncentrality0: float, noncentralities):
    """Pr[X1 > X0] for independent X0 ~ chi2_dof(nc0) and X1 ~ chi2_dof(nc1).

    One value per entry nc1 of the 1-D ``noncentralities``. Each law is the
    Poisson(nc / 2) mixture of central chi2_(dof + 2K) laws, and for
    independent A ~ chi2_(dof + 2k) and B ~ chi2_(dof + 2j) the ratio
    B / (A + B) is Beta(dof/2 + j, dof/2 + k), so

        Pr[X1 > X0] = sum_k w_k(nc1 / 2) sum_j w_j(nc0 / 2) I_(1/2)(dof/2 + j, dof/2 + k)

    with I the regularized incomplete beta, from ``_half_beta``'s walks. The
    k-series walks the blocks of ``_poisson_blocks`` as ``marcum_q`` does,
    reading I once per k that some window holds and per j of X0's window
    (the one term j = 0 for a central X0, whose walk starts at k = 0). The
    j-series is summed one block of X0's at a time, whatever the k-block.
    So each value is within ABS_TOL of the full series for a central X0 and
    2 ABS_TOL otherwise, and equals the call with that one entry bit for
    bit. ``_half_beta`` raises ``ConvergenceError`` where one block pair's
    walks would hold more than MAX_TERMS steps.
    """
    if not dof > 0:
        raise ValueError(f"dof must be > 0, got {dof}")
    nc = np.asarray(noncentralities, dtype=float)
    means, inv = np.unique(0.5 * nc, return_inverse=True)
    half = 0.5 * dof
    null = []
    for seed, v in _poisson_blocks(np.array([0.5 * noncentrality0]),
                                   f"noncentrality {noncentrality0}")[1]:
        live = np.flatnonzero(v[:, 0])
        null.append((seed + live, v[live, 0]))
    _, blocks = _poisson_blocks(means, f"noncentrality {nc.max(initial=0.0)}")
    total = np.zeros(means.size)
    for seed, w in blocks:
        live = np.flatnonzero(w.any(axis=1))
        k = seed + live
        tails = sum((v * _half_beta(half, j, k)).sum(axis=1) for j, v in null)
        for w_k, tail in zip(w[live], tails):
            total += w_k * tail
    return np.minimum(total[inv], 1.0)


# 2^-54 is half an ulp of every double in [1/2, 1]: a term below it leaves
# a sum there unchanged.
_HALF_ULP_LOG = 54.0 * math.log(2.0)


def _half_beta(half: float, j, k):
    """I_(1/2)(half + j, half + k) for the integer-valued 1-D j and k, shape
    (k.size, j.size).

    Along b, I_(1/2)(a, b + 1) = I_(1/2)(a, b) + t(a, b) with t(a, b) =
    2^-(a+b) / (b B(a, b)) (DLMF 8.17.20), t(a, b + 1) = t(a, b) (a + b) /
    (2 (b + 1)), I_(1/2)(a, a) = 1/2 by symmetry, and, from Stirling's
    series, t(a, a) = exp(stirlerr(2a) - 2 stirlerr(a)) / (2 sqrt(pi a)). So
    with c = half + min(j, k) and d = |k - j|, I is the walk ``_half_beta_walks``
    from (c, c) at step d where k >= j, and 1 minus it, as I_(1/2)(a, b) = 1 -
    I_(1/2)(b, a), where k < j. A value is its walk's sequential sum, which
    no other entry of the call changes.
    """
    j, k = np.asarray(j, dtype=float), np.asarray(k, dtype=float)[:, None]
    base = np.minimum(j, k)
    steps = np.abs(k - j).astype(np.int64)
    rows, at = np.unique(base, return_inverse=True)
    walks = _half_beta_walks(half + rows, int(steps.max(initial=0)))
    w = walks[at.reshape(base.shape), np.minimum(steps, walks.shape[1] - 1)]
    return np.where(k >= j, w, 1.0 - w)


def _half_beta_walks(c, need: int):
    """W[r, d] = I_(1/2)(c_r, c_r + d) for d = 0, ..., n: the 1/2 and the
    cumulative sums of the steps t(c_r, c_r + i), n = min(need, cut).

    Each step ratio (2c + i) / (2 (c + i + 1)) is below 1 and below
    exp(-i / (2 (c + d))) for i < d, and t(c, c) < 1, so t(c, c + d) <
    exp(-d (d - 1) / (4 (c + d))). From the cut, where that bound falls to
    2^-54, every step is below half an ulp of the sum (at least 1/2), and
    each I_(1/2)(c, c + d) past it equals the one at n bit for bit. Raises
    ConvergenceError if the rows hold more than MAX_TERMS steps.
    """
    a = 1.0 + 4.0 * _HALF_ULP_LOG
    cut = math.ceil(0.5 * (a + math.sqrt(a * a + 16.0 * _HALF_ULP_LOG * c.max())))
    n = min(need, cut)
    if c.size * n > MAX_TERMS:
        raise ConvergenceError(f"incomplete-beta walks of {c.size} x {n} steps, more than "
                               f"MAX_TERMS={MAX_TERMS}, at a = {c.max()}")
    t = np.empty((c.size, n + 1))
    t[:, 0] = 0.5
    if n:
        t[:, 1] = [0.5 * math.exp(_stirlerr(2.0 * ci) - 2.0 * _stirlerr(ci))
                   / math.sqrt(math.pi * ci) for ci in c]
        i = np.arange(n - 1.0)
        t[:, 2:] = (2.0 * c[:, None] + i) / (2.0 * (c[:, None] + i + 1.0))
        t[:, 1:] = np.cumprod(t[:, 1:], axis=1)
    return np.cumsum(t, axis=1)


def noncentral_chisq_cdf(x, dof: float, noncentrality: float):
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
    out = 1.0 - marcum_q(0.5 * dof, math.sqrt(noncentrality), np.sqrt(x_arr))
    out = np.clip(out, 0.0, 1.0)
    return float(out) if scalar else out


def noncentral_chisq_sample(dof: float, noncentrality: float, rng, size=None):
    """Draw from chi2_dof(noncentrality) with numpy's ``noncentral_chisquare``.

    It samples the constructive law: a central chi-square of dof - 1 plus
    one squared shifted normal where dof > 1, else a Poisson(nc/2) mixture
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
    out = as_generator(rng).noncentral_chisquare(dof, noncentrality, size)
    return float(out) if size is None else out


# ---------------------------------------------------------------------------
# Gaussian tails
# ---------------------------------------------------------------------------

def gaussian_q(x):
    """Standard normal upper-tail probability Q(x) = Pr[N(0,1) > x]."""
    from scipy import special as sp

    x_arr = np.asarray(x, dtype=float)
    out = 0.5 * sp.erfc(x_arr / math.sqrt(2.0))
    return float(out) if x_arr.ndim == 0 else out


def gaussian_q_inverse(p):
    """Inverse of ``gaussian_q``; p (scalar or array) must lie strictly in (0, 1)."""
    from scipy import special as sp

    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise ValueError(f"p must be in (0, 1), got {p}")
    out = math.sqrt(2.0) * sp.erfcinv(2.0 * p_arr)
    return float(out) if p_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Modified Bessel functions of the first kind
# ---------------------------------------------------------------------------

# From this order on, log_bessel_i sums the Debye expansion through U_8:
# the first term left out, U_9(p) / order^9, is below 2e-16 there.
_DEBYE_ORDER = 50.0
_DEBYE_TERMS = 8


@functools.cache
def _debye_polynomials():
    """U_1, ..., U_8 of the Debye expansion, by the recurrence DLMF 10.41.9:
    U_(k+1)(p) = p^2 (1 - p^2) U_k'(p) / 2 + int_0^p (1 - 5 t^2) U_k(t) dt / 8."""
    from numpy.polynomial import Polynomial

    p = Polynomial([0.0, 1.0])
    u, out = Polynomial([1.0]), []
    for _ in range(_DEBYE_TERMS):
        u = 0.5 * p**2 * (1.0 - p**2) * u.deriv() + 0.125 * ((1.0 - 5.0 * p**2) * u).integ()
        out.append(u)
    return tuple(out)


def _log_bessel_i_debye(order: float, x):
    """log I_order(x) by the Debye uniform expansion (DLMF 10.41.3), in log form:

        I_v(v z) ~ e^(v eta) / (sqrt(2 pi v) (1 + z^2)^(1/4)) sum_k U_k(p) / v^k,

    with eta = sqrt(1 + z^2) + log(z / (1 + sqrt(1 + z^2))) and
    p = 1 / sqrt(1 + z^2). Uniform in z > 0, so it holds where I_v(x) e^-x
    underflows a double and where I_v(x) overflows one.
    """
    z = x / order
    h = np.hypot(1.0, z)
    p = 1.0 / h
    tail = sum(u(p) / order**k for k, u in enumerate(_debye_polynomials(), 1))
    return (order * (h + np.log(z / (1.0 + h))) - 0.5 * math.log(2.0 * math.pi * order)
            - 0.5 * np.log(h) + np.log1p(tail))


def log_bessel_i(order: float, x) -> float:
    """log I_order(x), defined for order > -1, where I_order is positive on x > 0.

    Below order 50, the log of the scaled Bessel function ``ive`` plus x;
    where ``ive`` is below the smallest normal double (at order 49.5, for x
    below about 2.3e-5), the first two terms of the power series (DLMF
    10.25.2), order log(x/2) - lgamma(order + 1) + log1p((x/2)^2 / (order + 1)),
    whose first left-out term is below 1e-19 there. From order 50 on, the
    Debye uniform expansion in log form. The value is finite for every
    finite x > 0; where ``ive`` is a normal double the Debye expansion
    and ``log(ive) + x`` agree to 1e-13 of max(1, |log I|).
    """
    from scipy import special as sp

    if order <= -1:
        raise ValueError(f"order must be > -1, got {order}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    if not (np.all(x_arr > 0) and np.all(np.isfinite(x_arr))):
        raise ValueError("x must be finite and > 0")
    if order >= _DEBYE_ORDER:
        out = _log_bessel_i_debye(order, x_arr)
    else:
        ive = sp.ive(order, x_arr)
        under = ive < np.finfo(float).tiny
        half = 0.5 * np.where(under, x_arr, 1.0)  # a stand-in where ive is normal
        out = np.where(under,
                       order * np.log(half) - math.lgamma(order + 1.0)
                       + np.log1p(half * half / (order + 1.0)),
                       np.log(np.where(under, 1.0, ive)) + x_arr)
    return float(out) if scalar else out
