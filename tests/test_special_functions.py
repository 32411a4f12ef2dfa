"""Special-function primitives against independent oracles.

Oracles used here are deliberately implementation-distinct: adaptive
quadrature of the gamma integrand, root bracketing for inversions, a
naive Poisson-mixture summation and scipy's noncentral chi-square for
the Marcum function, and Monte Carlo for distribution checks.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, optimize, special, stats

from dpresidual import (
    ConvergenceError,
    SeedStream,
    Tolerance,
    bessel_i,
    gaussian_q,
    gaussian_q_inverse,
    log_bessel_i,
    marcum_q,
    noncentral_chisq_cdf,
    noncentral_chisq_sample,
    regularized_gamma_q_inverse,
)
from dpresidual.special_functions import _poisson_window


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def quadrature_gamma_q(s, x):
    """Adaptive quadrature of the upper gamma integrand."""
    value, _ = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), x, np.inf)
    return value / special.gamma(s)


def bracket_gamma_q_inverse(alpha, s):
    """Root bracketing of Q(s, x) = alpha via brentq on a wide interval."""
    return optimize.brentq(lambda x: special.gammaincc(s, x) - alpha, 1e-12, 1e4,
                           xtol=1e-13, rtol=1e-14)

def naive_marcum_series(order, a, b, tol=1e-12):
    """Plain forward Poisson-mixture summation with scipy chi2 tails."""
    mu = 0.5 * a * a
    total, k = 0.0, 0
    log_w = -mu
    while True:
        w = math.exp(log_w)
        total += w * stats.chi2.sf(b * b, 2.0 * (order + k))
        k += 1
        if w < tol and k > mu:
            return total
        log_w += math.log(mu) - math.log(k)


# ---------------------------------------------------------------------------
# Regularized gamma tails
# ---------------------------------------------------------------------------

class TestRegularizedGamma:
    """The upper regularized gamma tail Q(s, x) as the package evaluates it:
    the central Marcum Q-function Q_s(0, sqrt(2x)), i.e. the central
    chi-square tail with 2s degrees of freedom at 2x."""

    @staticmethod
    def gamma_q(s, x):
        return marcum_q(s, 0.0, math.sqrt(2.0 * x))

    def test_exponential_closed_form(self):
        """Q(1, x) = exp(-x)."""
        assert self.gamma_q(1.0, 2.9957) == pytest.approx(0.0500, abs=1e-4)

    def test_upper_tail_at_zero(self):
        assert self.gamma_q(1.5, 0.0) == 1.0

    def test_against_quadrature_oracle(self):
        assert self.gamma_q(2.5, 3.0) == pytest.approx(
            quadrature_gamma_q(2.5, 3.0), abs=1e-10)

    def test_p_plus_q_is_one(self):
        """scipy's lower tail P(s, x) completes the package's upper tail."""
        for s, x in [(0.5, 0.2), (3.0, 4.5), (10.0, 2.0)]:
            assert special.gammainc(s, x) + self.gamma_q(s, x) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("s,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1)])
    def test_domain_errors(self, s, x):
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(2.0 * x, 2.0 * s, 0.0)


class TestGammaQInverse:
    def test_exponential_case(self):
        """Qinv(alpha, 1) = -ln(alpha)."""
        assert regularized_gamma_q_inverse(0.05, 1.0) == pytest.approx(2.9957, abs=1e-3)

    def test_against_bracketing_oracle(self):
        assert regularized_gamma_q_inverse(0.5, 0.5) == pytest.approx(
            bracket_gamma_q_inverse(0.5, 0.5), rel=1e-9)

    def test_round_trip(self):
        for alpha in (0.01, 0.05, 0.3, 0.5, 0.9, 0.99):
            for s in (0.5, 1.0, 2.5, 7.5):
                x = regularized_gamma_q_inverse(alpha, s)
                assert special.gammaincc(s, x) == pytest.approx(alpha, rel=1e-9, abs=1e-9)

    def test_monotone_decreasing_in_alpha(self):
        xs = [regularized_gamma_q_inverse(a, 2.0) for a in np.linspace(0.01, 0.99, 25)]
        assert all(b < a for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.7])
    def test_domain_errors(self, alpha):
        with pytest.raises(ValueError):
            regularized_gamma_q_inverse(alpha, 1.0)


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

class TestMarcumQ:
    def test_central_closed_form(self):
        """Q_1(0, b) = exp(-b^2 / 2)."""
        assert marcum_q(1.0, 0.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-6)

    @pytest.mark.parametrize("order", [0.5, 1.0, 7.5, 90.5, 1e3, 1e4])
    def test_central_is_gamma_tail_bit_for_bit(self, order):
        """At a = 0 the series sums its one k = 0 term of weight exactly 1."""
        rng = np.random.default_rng(4)
        b = np.concatenate([[0.0, 1e-300, np.inf],
                            np.sqrt(2.0 * order * rng.uniform(0.5, 1.5, 200)),
                            rng.exponential(3.0, 50)])
        x = 0.5 * b * b
        expected = np.where(x == 0.0, 1.0, np.minimum(special.gammaincc(order, x), 1.0))
        assert marcum_q(order, 0.0, b).tobytes() == expected.tobytes()
        assert marcum_q(order, np.zeros((3, 1)), b).tobytes() == \
            np.broadcast_to(expected, (3, b.size)).tobytes()

    @pytest.mark.parametrize("order,a", [(1.0, 0.0), (2.5, 1.3), (0.5, 4.0)])
    def test_full_mass_above_zero(self, order, a):
        assert marcum_q(order, a, 0.0) == 1.0

    def test_against_naive_series_oracle(self):
        assert marcum_q(1.0, 1.0, 2.0) == pytest.approx(
            naive_marcum_series(1.0, 1.0, 2.0), abs=1e-12)

    def test_against_scipy_noncentral_tail(self):
        for order, a, b in [(1.5, 2.5, 3.0), (7.5, 30.0, 31.0), (2.0, 40.0, 39.0),
                            (0.5, 0.3, 0.1), (10.0, 0.7, 5.0)]:
            ref = stats.ncx2.sf(b * b, 2.0 * order, a * a)
            assert marcum_q(order, a, b) == pytest.approx(ref, abs=1e-11)

    def test_monotone_nonincreasing_in_b(self):
        bs = np.linspace(0.0, 8.0, 40)
        qs = marcum_q(2.0, 1.5, bs)
        assert np.all(np.diff(qs) <= 1e-14)

    def test_monotone_nondecreasing_in_a(self):
        qs = [marcum_q(2.0, a, 3.0) for a in np.linspace(0.0, 6.0, 40)]
        assert all(b >= a - 1e-14 for a, b in zip(qs, qs[1:]))

    def test_array_matches_scalar(self):
        bs = np.array([0.0, 0.5, 2.0, 7.0])
        out = marcum_q(1.5, 2.0, bs)
        for b, v in zip(bs, out):
            assert v == pytest.approx(marcum_q(1.5, 2.0, float(b)), abs=1e-14)

    @pytest.mark.parametrize("order", [0.5, 1.0, 3.5, 10.0])
    def test_broadcast_against_scipy_noncentral_tail(self, order):
        """A column of a (a = 0 included) against a row of b (b = 0 included)."""
        a = np.array([0.0, 0.05, 0.7, 2.0, 5.5, 11.0])[:, None]
        b = np.array([0.0, 0.3, 1.0, 2.5, 4.0, 7.0, 12.0, 16.0])
        out = marcum_q(order, a, b)
        assert out.shape == (6, 8)
        ref = stats.ncx2.sf(b * b, 2.0 * order, a * a)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    def test_broadcast_elements_equal_scalar_calls(self, rng):
        """Each element sums its own window: bit-equal to the scalar call."""
        a = np.concatenate([[0.0], rng.uniform(0.0, 9.0, 15)])
        b = np.concatenate([[0.0], rng.uniform(0.0, 14.0, 11)])
        out = marcum_q(2.5, a[:, None], b[None, :])
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                assert out[i, j] == marcum_q(2.5, float(ai), float(bj))

    def test_far_apart_windows_sum_their_union(self):
        """Means 100 and 10^4: windows of ~140 and ~1,500 terms, 10^4 apart.

        The call sums only the terms some window covers, so a budget below
        the span between them still holds, and each element equals its
        scalar call under the same budget.
        """
        tol = Tolerance(max_terms=2000)
        a = np.sqrt(2.0 * np.array([1e4, 0.0, 100.0, 1e4]))[:, None]
        b = np.sqrt(2.0 * np.array([0.0, 50.0, 100.0, 9.9e3, 1.1e4]))
        out = marcum_q(3.5, a, b, tol=tol)
        for i, ai in enumerate(a[:, 0]):
            for j, bj in enumerate(b):
                assert out[i, j] == marcum_q(3.5, float(ai), float(bj), tol=tol)
        with pytest.raises(ConvergenceError, match="cover"):
            marcum_q(3.5, a, b, tol=Tolerance(max_terms=1000))

    def test_empty_broadcast(self):
        assert marcum_q(1.0, np.array([1.0, 2.0]), np.empty((0, 1))).shape == (0, 2)

    def test_central_delegation(self):
        assert marcum_q(2.5, 0.0, 3.0) == pytest.approx(
            special.gammaincc(2.5, 4.5), abs=1e-14)

    def test_term_budget_reported(self):
        with pytest.raises(ConvergenceError):
            marcum_q(1.0, 12.0, 1.0, tol=Tolerance(max_terms=3))

    def test_overflowing_mean_reported(self):
        """a^2/2 overflows past a ~ 1.3e154: a ConvergenceError naming a."""
        with pytest.raises(ConvergenceError, match=r"a = 1e\+155"):
            marcum_q(2.0, 1e155, 1e155)

    def test_window_search_capped(self):
        """Past 2^53 consecutive integers are one float: no window is built."""
        with pytest.raises(ConvergenceError, match=r"reaches 2\^53 at a = 1000000000.0"):
            marcum_q(2.0, 1e9, 1e9)
        with pytest.raises(ConvergenceError, match=r"2\^53"):
            marcum_q(2.0, np.array([1.0, math.sqrt(2.0**54)]), 1.0)
        with pytest.raises(ConvergenceError, match="cover"):  # finite window ends below 2^53
            marcum_q(2.0, math.sqrt(2.0 * 0.99 * 2.0**53), 1.0)

    def test_nonfinite_window_end_reported(self):
        """A subnormal abs_tol overflows the upper end's closed form."""
        with pytest.raises(ConvergenceError, match="not finite"):
            marcum_q(2.0, 1e-154, 1.0, tol=Tolerance(abs_tol=1e-320))

    def test_infinite_boundary(self):
        assert marcum_q(2.0, 1.0, math.inf) == 0.0
        np.testing.assert_array_equal(marcum_q(2.0, np.array([0.0, 3.0]), math.inf), [0.0, 0.0])

    def test_debug_log_reports_window(self, caplog):
        """Term count and element count go to the DEBUG log."""
        a = np.array([0.5, 3.0, 9.0])
        with caplog.at_level(logging.DEBUG, logger="dpresidual.special_functions"):
            marcum_q(2.0, a, 4.0)
        k_lo, k_hi = _poisson_window(0.5 * a * a, 0.5 * Tolerance().abs_tol)
        assert [r.getMessage() for r in caplog.records] == [
            f"marcum_q: {int(k_hi.max() - k_lo.min()) + 1} terms over 3 elements"]

    @pytest.mark.parametrize("order,a,b", [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
                                           (1.0, -0.5, 1.0), (1.0, 1.0, -2.0),
                                           (1.0, [0.5, -0.5], 1.0),
                                           (1.0, [0.5, 1.0], [1.0, -2.0]),
                                           (1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
                                           (2.0, 1.0, math.nan), (2.0, [1.0, 2.0], [1.0, math.nan])])
    def test_domain_errors(self, order, a, b):
        with pytest.raises(ValueError):
            marcum_q(order, a, b)


def pdtrik_window(mu, p):
    """The window as continuous root-finding gave it: floor of pdtrik's root
    for k_lo, and for k_hi gdtrib's root of pdtrc(k, mu) = p, rounded up and
    corrected by one pdtrc step."""
    k_lo = np.floor(special.pdtrik(p, mu))
    k_hi = np.maximum(np.ceil(special.gdtrib(1.0, p, mu)) - 1.0, k_lo)
    k_hi += special.pdtrc(k_hi, mu) > p
    return k_lo, k_hi


class TestPoissonWindow:
    """The Marcum-Q window drops at most p per side and stays near the exact one."""

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(hnp.arrays(float, 1000, elements=st.floats(-10.0, 6.0)),
           st.sampled_from([1e-6, 1e-12, 1e-15]))
    def test_definition_certificate_and_root_oracle(self, log10_mu, abs_tol):
        p = 0.5 * abs_tol
        log_inv_p = -math.log(p)
        edges = [0.0, 5e-324, p, np.nextafter(p, 0.0), np.nextafter(p, 1.0),
                 log_inv_p * (1.0 - 1e-12), log_inv_p, log_inv_p * (1.0 + 1e-12), 1e12]
        mu = np.concatenate([edges, 10.0**log10_mu])
        k_lo, k_hi = _poisson_window(mu, p)
        assert np.all(k_lo >= 0) and np.all(k_hi >= k_lo)
        assert np.all(k_lo == np.round(k_lo)) and np.all(k_hi == np.round(k_hi))
        # Certificate: the mass left out on each side is at most p.
        assert np.all(special.pdtr(k_lo - 1.0, mu)[k_lo >= 1] <= p)
        assert np.all(special.pdtrc(k_hi, mu) <= p)
        # Width: the bounds cost at most a fifth more terms, plus two, than
        # the exact window root-finding gives, where it gives one.
        o_lo, o_hi = pdtrik_window(mu, p)
        exact = np.isfinite(o_lo) & np.isfinite(o_hi)
        assert exact[mu < 1e7].all()
        assert np.all((k_hi - k_lo + 1.0)[exact] <= 1.2 * (o_hi - o_lo + 1.0)[exact] + 2.0)


class TestNoncentralChisqCdf:
    def test_central_two_dof(self):
        """Central chi-square with 2 dof: CDF(x) = 1 - exp(-x/2)."""
        assert noncentral_chisq_cdf(5.991, 2.0, 0.0) == pytest.approx(0.95, abs=1e-3)

    def test_zero_at_origin(self):
        assert noncentral_chisq_cdf(0.0, 3.0, 2.0) == 0.0
        assert noncentral_chisq_cdf(0.0, 1.0, 0.0) == 0.0

    def test_against_monte_carlo_oracle(self, rng):
        n = 10**7
        draws = stats.ncx2.rvs(3.0, 2.0, size=n, random_state=rng)
        p_hat = np.mean(draws <= 4.0)
        se = math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(noncentral_chisq_cdf(4.0, 3.0, 2.0) - p_hat) <= 3 * se

    def test_monotone_with_limits(self):
        xs = np.linspace(0.0, 80.0, 200)
        cdf = noncentral_chisq_cdf(xs, 4.0, 3.0)
        assert np.all(np.diff(cdf) >= -1e-14)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_marcum_identity(self):
        x, dof, nc = 6.2, 5.0, 2.7
        assert noncentral_chisq_cdf(x, dof, nc) == pytest.approx(
            1.0 - marcum_q(dof / 2.0, math.sqrt(nc), math.sqrt(x)), abs=1e-14)


class TestNoncentralChisqSample:
    def test_central_mean(self, stream):
        draws = noncentral_chisq_sample(5.0, 0.0, stream, size=10**6)
        assert draws.mean() == pytest.approx(5.0, abs=0.02)

    def test_noncentral_mean(self, stream):
        draws = noncentral_chisq_sample(3.0, 4.0, stream, size=10**6)
        assert draws.mean() == pytest.approx(7.0, abs=0.03)

    def test_variance(self, stream):
        draws = noncentral_chisq_sample(3.0, 4.0, stream, size=10**6)
        assert draws.var() == pytest.approx(2 * 3 + 4 * 4, rel=0.02)

    def test_ks_against_own_cdf(self, stream):
        draws = noncentral_chisq_sample(4.0, 2.5, stream, size=10**5)
        result = stats.kstest(draws, lambda x: noncentral_chisq_cdf(x, 4.0, 2.5))
        assert result.pvalue > 0.01

    def test_fractional_dof_ks(self, stream):
        draws = noncentral_chisq_sample(2.5, 1.3, stream, size=10**5)
        result = stats.kstest(draws, lambda x: noncentral_chisq_cdf(x, 2.5, 1.3))
        assert result.pvalue > 0.01

    def test_deterministic_under_seed(self):
        a = noncentral_chisq_sample(3.0, 1.0, SeedStream(7), size=100)
        b = noncentral_chisq_sample(3.0, 1.0, SeedStream(7), size=100)
        np.testing.assert_array_equal(a, b)

    def test_scalar_draw(self, stream):
        assert isinstance(noncentral_chisq_sample(2.0, 1.0, stream), float)


# ---------------------------------------------------------------------------
# Gaussian tails
# ---------------------------------------------------------------------------

class TestGaussianQ:
    def test_half_at_zero(self):
        assert gaussian_q(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.0):
            assert gaussian_q(-x) == pytest.approx(1.0 - gaussian_q(x), abs=1e-14)

    def test_inverse_value(self):
        """Qinv(0.05) from the erfc-based closed form."""
        ref = math.sqrt(2.0) * special.erfcinv(0.1)
        assert gaussian_q_inverse(0.05) == pytest.approx(1.6449, abs=1e-4)
        assert gaussian_q_inverse(0.05) == pytest.approx(ref, abs=1e-14)

    def test_round_trip(self):
        for p in (1e-6, 0.01, 0.3, 0.5, 0.77, 0.999):
            assert gaussian_q(gaussian_q_inverse(p)) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 2.0])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            gaussian_q_inverse(p)


# ---------------------------------------------------------------------------
# Modified Bessel I
# ---------------------------------------------------------------------------

class TestBesselI:
    def test_order_zero_limit(self):
        assert bessel_i(0.0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_half_order_closed_form(self):
        """I_{1/2}(x) = sqrt(2 / (pi x)) sinh(x)."""
        ref = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert bessel_i(0.5, 1.0) == pytest.approx(0.9376, abs=1e-4)
        assert bessel_i(0.5, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_ratio_bounds(self, rng):
        """exp(x-y)(x/y)^a < I_a(x)/I_a(y) < exp(y-x)(x/y)^a for 0 < x < y."""
        for _ in range(1000):
            a = rng.uniform(1e-6, 20.0)
            x = rng.uniform(1e-3, 50.0)
            y = rng.uniform(x, 50.0)
            if y <= x:
                continue
            log_ratio = log_bessel_i(a, x) - log_bessel_i(a, y)
            lower = (x - y) + a * math.log(x / y)
            upper = (y - x) + a * math.log(x / y)
            assert lower < log_ratio < upper

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            bessel_i(0.0, 1000.0)
        assert log_bessel_i(0.0, 1000.0) == pytest.approx(1000.0 + math.log(special.ive(0, 1000.0)))

    @pytest.mark.parametrize("order,x", [(-0.5, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, order, x):
        with pytest.raises(ValueError):
            bessel_i(order, x)


class TestTolerance:
    def test_defaults(self):
        t = Tolerance()
        assert t.abs_tol == 1e-12 and t.max_terms == 10**6

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0}, {"abs_tol": -1e-3}, {"max_terms": 0},
        {"abs_tol": 1.0}, {"abs_tol": 5.0},
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)
