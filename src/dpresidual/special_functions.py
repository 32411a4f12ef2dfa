"""Special functions and distribution primitives.

Provides the inverse regularized gamma tail, the (generalized,
real-order) Marcum Q-function, noncentral chi-square CDF and sampling,
the exceedance probability Pr[X1 > X0] of two noncentral chi-square
laws (an AUROC), Gaussian tail functions, and modified Bessel functions
of the first kind. These are the numerical bedrock for the residual
laws, the privacy guarantee, and the detection analytics built on top.

The Marcum Q-function is evaluated by the Poisson-weighted series of
regularized upper-gamma tails (Gil, Segura & Temme, "Computation of the
Marcum Q-function", ACM TOMS 2014),

    Q_s(a, b) = sum_k  Poisson(k; a^2/2) * Q(s + k, b^2/2),

over a window of k fixed per element by closed-form Poisson tail bounds
on its mean: the mass left out below the window and the mass left out
above it are each at most ABS_TOL / 2. With all gamma tails in [0, 1],
the left-out mass bounds the truncation error directly, so every value
is within the fixed ABS_TOL = 1e-12 of the full series. ``a`` and ``b``
broadcast; a call loops over the terms of the union of its elements'
windows, never over the elements, and raises ``ConvergenceError`` past
MAX_TERMS = 10^6 of them. Each run of terms starts at a multiple of 32,
where the Poisson weight and the gamma tail are seeded: the weight and
the tail's step x^s e^-x / Gamma(s + 1) from one Poisson term in Loader's
saddle-point form, the tail from ``scipy.special.gammaincc``. Between
seeds the weight steps by w_k = w_(k-1) mu / k and the tail by the upward
recurrence Q(s + 1, x) = Q(s, x) + x^s e^-x / Gamma(s + 1) (DLMF 8.8).
Each tail is within 5e-14 of ``gammaincc``'s over orders 0.5 to 1e5 and
each weight within a relative 1e-13 of the exact one up to mean 2e5, far
inside ABS_TOL. A value depends only on its 32-block and its term, mean
or boundary, so every element of an array call equals its scalar call
bit for bit.

``log_bessel_i`` is the log of scipy's scaled Bessel function below
order 50, or its power series where that underflows, and the Debye
uniform expansion (DLMF 10.41(ii)) from order 50 on, where the scaled
function underflows at the orders of large models.

Every function that calls ``scipy.special`` imports it on first use, not
at module import, so a process that only simulates, estimates or releases
(all plain numpy) starts without paying scipy's import time.
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
    strictly in (0, 1). Arrays are inverted elementwise.
    """
    from scipy import special as sp

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
    Pr[X >= 1] <= mu. Means must lie below 2^53; ``marcum_q`` passes
    p = ABS_TOL / 2, where both ends are finite for every such mean.
    """
    from scipy import special as sp

    log_inv_p = -math.log(p)
    k_lo = np.maximum(np.ceil(mu - np.sqrt(2.0 * log_inv_p * mu)), 0.0)
    spread = mu > p
    m = np.where(spread, mu, 1.0)  # a stand-in where k_hi is 0 anyway
    c = log_inv_p / m
    u = np.expm1(1.0 + sp.lambertw((c - 1.0) / math.e).real)
    log1p_u = np.log1p(u)
    u -= ((1.0 + u) * log1p_u - u - c) / log1p_u
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


def _poisson_series(order: float, k, mu, x):
    """Yield (w_k(mu), Q(order + k, x)) over the ascending terms ``k``.

    w_k(mu) = mu^k e^(-mu) / k! is the Poisson weight and Q the regularized
    upper gamma tail. At every k that is a multiple of _RESTART the weight
    is ``_poisson_term(k, mu)``, the tail is ``scipy.special.gammaincc`` and
    its step is t = ``_poisson_term(order + k, x)``. Between those seeds
    w <- w mu / k, and the tail takes the upward recurrence (DLMF 8.8)
    Q(s + 1, x) = Q(s, x) + t_s with t_(s+1) = t_s x / (s + 1). Each run of
    consecutive terms must start at a multiple of _RESTART, so each value
    depends on its 32-block and (k, mu) or (order, k, x) alone, whichever
    terms sit beside it.
    """
    from scipy import special as sp

    x_step = np.where(x < np.inf, x, 0.0)  # t is 0 at x = inf and stays 0
    for k_i in k:
        if k_i % _RESTART == 0.0:
            s = order + k_i
            w, q, t = _poisson_term(k_i, mu), sp.gammaincc(s, x), _poisson_term(s, x)
        else:
            w, q, t = w * (mu / k_i), q + t, t * (x_step / (order + k_i))
        yield w, q


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

    Every value is within ABS_TOL = 1e-12 of the full series. Each
    element sums the Poisson terms k_lo <= k <= k_hi of its own mean
    mu = a^2 / 2. With p = ABS_TOL / 2, both ends come in closed
    form from the Poisson tail bounds of ``_poisson_window``: the terms
    below k_lo weigh at most p together, and so do the terms above k_hi.
    The call sums the union of the windows in ascending k, each window
    widened down to a multiple of 32, skipping the gaps between them, each
    element's terms outside its own window weighing exactly zero, so
    elements with far apart means cost the sum of their windows, not the
    span between them. Weights and tails come from ``_poisson_series``:
    seeded at every k that is a multiple of 32, where every run starts,
    and stepped by recurrence between seeds. A value so depends only on its
    32-block and (k, mu) or (order, k, b), whatever the other elements'
    windows, so every element of an array call equals the scalar call bit
    for bit, and at a = 0 the value is ``gammaincc(order, b^2 / 2)``
    itself. The term, element and seed counts (seeds times boundaries,
    one ``gammaincc`` evaluation each) are logged at DEBUG.

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

    if not (mu < 2.0**53).all():
        raise ConvergenceError(f"marcum_q Poisson mean a^2/2 reaches 2^53 at a = {a_arr.max()}")
    k_lo, k_hi = _poisson_window(mu, 0.5 * ABS_TOL)
    # The union of the windows, each starting at the seed below it: sort
    # them by k_lo and merge each window into the run before it unless a
    # gap separates them.
    by_lo = np.argsort(k_lo, axis=None)
    lo = np.ravel(k_lo)[by_lo]
    lo -= lo % _RESTART
    hi = np.maximum.accumulate(np.ravel(k_hi)[by_lo])
    opens = np.append(True, lo[1:] > hi[:-1] + 1.0)
    lo, hi = lo[opens], hi[np.append(opens[1:], True)]
    counts = hi - lo + 1.0
    if counts.sum() > MAX_TERMS:
        raise ConvergenceError(
            f"marcum_q windows cover {counts.sum():.0f} terms, more than "
            f"MAX_TERMS={MAX_TERMS} (order={order}, a up to {a_arr.max()})"
        )
    counts = counts.astype(np.int64)
    k = np.arange(counts.sum(), dtype=float) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    logger.debug("marcum_q: %d terms over %d elements, %d gamma-tail seeds",
                 k.size, mu.size, np.count_nonzero(k % _RESTART == 0.0) * x.size)
    total = np.zeros(shape)
    for k_i, (w, q) in zip(k, _poisson_series(order, k, mu, x)):
        total += np.where((k_lo <= k_i) & (k_i <= k_hi), w, 0.0) * q

    # Truncated Poisson mass never reaches 1 exactly; the b = 0 boundary
    # carries full mass by definition.
    out = np.where(x == 0.0, 1.0, np.minimum(total, 1.0))
    return float(out) if out.ndim == 0 else out


def _poisson_terms(mu):
    """Every Poisson term of each mean's window, as flat arrays (row, k, w).

    Term k of mean ``mu[row]`` has weight w = w_k(mu[row]), for k_lo <= k <=
    k_hi from ``_poisson_window(mu, ABS_TOL / 2)``, so each mean leaves out
    at most ABS_TOL of its mass. As in ``_poisson_series``, each window is
    walked in 32-blocks from the seed below k_lo: the weight at a multiple
    of _RESTART is ``_poisson_term(k, mu)``, one call per distinct seed
    over the means whose windows hold it, and w_k = w_(k-1) mu / k along the
    block, one cumulative product. Means far apart cost the sum of their
    windows, never the span between them. ``mu`` is 1-D, each below 2^53;
    more than MAX_TERMS terms raise ConvergenceError.
    """
    if not (mu < 2.0**53).all():
        raise ConvergenceError(f"Poisson mean {mu.max()} reaches 2^53")
    k_lo, k_hi = _poisson_window(mu, 0.5 * ABS_TOL)
    first = k_lo - k_lo % _RESTART
    blocks = ((k_hi - first) // _RESTART + 1.0).astype(np.int64)
    if blocks.sum() * _RESTART > MAX_TERMS:
        raise ConvergenceError(f"Poisson windows cover more than MAX_TERMS={MAX_TERMS} "
                               f"terms (means up to {mu.max()})")
    row = np.repeat(np.arange(mu.size), blocks)
    seed = np.repeat(first - _RESTART * (np.cumsum(blocks) - blocks), blocks) \
        + _RESTART * np.arange(row.size)
    k = seed[:, None] + np.arange(_RESTART, dtype=float)
    w = np.empty(k.shape)
    w[:, 1:] = mu[row, None] / k[:, 1:]
    for s in np.unique(seed):
        at = seed == s
        w[at, 0] = _poisson_term(s, mu[row[at]])
    w = np.cumprod(w, axis=1)
    keep = (k >= k_lo[row, None]) & (k <= k_hi[row, None])
    return np.broadcast_to(row[:, None], k.shape)[keep], k[keep], w[keep]


def chisq_exceedance(dof: float, noncentrality0: float, noncentralities):
    """Pr[X1 > X0] for independent X0 ~ chi2_dof(nc0) and X1 ~ chi2_dof(nc1).

    One value per entry nc1 of the 1-D ``noncentralities``. Each law is the
    Poisson(nc / 2) mixture of central chi2_(dof + 2K) laws, and for
    independent A ~ chi2_(dof + 2k) and B ~ chi2_(dof + 2j) the ratio
    B / (A + B) is Beta(dof/2 + j, dof/2 + k), so

        Pr[X1 > X0] = sum_j sum_k w_j(nc0 / 2) w_k(nc1 / 2) I_(1/2)(dof/2 + j, dof/2 + k)

    with I the regularized incomplete beta, from ``scipy.special.betainc``
    over every (j, k) pair: one call for a central X0, whose window is the
    one term j = 0, else one call per block of at most MAX_TERMS pairs.
    Each law sums only the terms of its own window (``_poisson_terms``), so
    each value is within ABS_TOL of the full series for a central X0 and
    within 2 ABS_TOL otherwise. Each value depends only on its own law, so
    it equals the call with that one entry bit for bit.
    """
    from scipy import special as sp

    if not dof > 0:
        raise ValueError(f"dof must be > 0, got {dof}")
    mu1 = 0.5 * np.asarray(noncentralities, dtype=float)
    rows, k, w = _poisson_terms(mu1)
    _, j, v = _poisson_terms(np.array([0.5 * noncentrality0]))
    tail = np.empty(k.size)
    step = max(1, MAX_TERMS // j.size)
    for at in range(0, k.size, step):
        pairs = sp.betainc(0.5 * dof + j[:, None], 0.5 * dof + k[at:at + step], 0.5)
        tail[at:at + step] = (v[:, None] * pairs).sum(axis=0)
    return np.minimum(np.bincount(rows, weights=w * tail, minlength=mu1.size), 1.0)


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
