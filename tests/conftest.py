"""Shared fixtures: seeded streams and random model instances."""

import numpy as np
import pytest

from dpresidual import MeasurementModel, SeedStream


@pytest.fixture
def rng():
    """Fixed-seed numpy generator for oracle sampling."""
    return np.random.default_rng(42)


@pytest.fixture
def stream():
    """Fixed-seed package stream for sampling operations."""
    return SeedStream(42)


def random_model(rng, m, n, sigma=1.0, lam=0.0):
    """Full-column-rank Gaussian test instance."""
    return MeasurementModel(H=rng.normal(size=(m, n)), sigma=sigma, lam=lam)


@pytest.fixture
def model_20x5(rng):
    return random_model(rng, 20, 5)


def exact_auroc(dof, nc1, nc0=0.0):
    """Pr[X1 > X0] for X_h ~ chi2_dof(nc_h), by ``scipy.integrate.quad``.

    1 - int f0(x) F1(x) dx over x = u^2, so that the dof = 1 density's pole
    at 0 becomes a finite integrand, with breakpoints about X0's mean. The
    densities and distribution functions are scipy's noncentral chi-square
    (``scipy.special.chndtr`` is ``scipy.stats.ncx2.cdf`` without the
    per-call overhead); the central density is written out.
    """
    import math

    from scipy import integrate, special, stats

    if nc0 > 0:
        pdf0 = stats.ncx2(dof, nc0).pdf
    else:
        log_norm = 0.5 * dof * math.log(2.0) + math.lgamma(0.5 * dof)
        pdf0 = lambda x: math.exp((0.5 * dof - 1.0) * math.log(x) - 0.5 * x - log_norm)
    cdf1 = (lambda x: special.chndtr(x, dof, nc1)) if nc1 > 0 else \
        (lambda x: special.chdtr(dof, x))
    mean, sd = dof + nc0, math.sqrt(2.0 * (dof + 2.0 * nc0))
    top = math.sqrt(mean + 40.0 * sd + 100.0)
    breaks = sorted({math.sqrt(mean + c * sd) for c in (-10, -5, -2, 0, 2, 5, 10, 20)
                     if 0.0 < mean + c * sd < top * top})
    below, _ = integrate.quad(lambda u: 2.0 * u * pdf0(u * u) * cdf1(u * u), 0.0, top,
                              points=breaks, epsabs=1e-14, epsrel=1e-13, limit=500)
    return 1.0 - below
