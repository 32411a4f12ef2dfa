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
    gaussian_q,
    gaussian_q_inverse,
    log_bessel_i,
    marcum_q,
    noncentral_chisq_cdf,
    noncentral_chisq_sample,
    regularized_gamma_q_inverse,
)
from dpresidual import special_functions
from dpresidual.detection import DEFAULT_ALPHA_GRID
from dpresidual.special_functions import (
    _gamma_pq,
    _gamma_q,
    _gamma_tails,
    _half_beta,
    _poisson_blocks,
    _poisson_term,
    _poisson_window,
    _stirlerr,
    chisq_exceedance,
)


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


def plain_gamma_q(s, x):
    """(Q(s, x), iterations) by the one-element loop that ``_gamma_q`` runs
    in chunks: the series below s + 1, Lentz's continued fraction above,
    each stopped at its first term within eps of the sum or its first
    factor within eps of 1. Plain floats, so the same IEEE arithmetic."""
    t = float(_poisson_term(s, np.array([x]))[0])
    if t == 0.0:
        return (1.0 if x < s + 1.0 else 0.0), 0
    eps, n = float(np.finfo(float).eps), 0
    if x < s + 1.0:
        term = total = 1.0
        while True:
            n += 1
            term = term * (x / (s + n))
            total = total + term
            if term <= eps * total:
                return 1.0 - t * total, n
    e = x + (1.0 - s)
    c, h = math.inf, 1.0 / e
    while True:
        n += 1
        an = -n * (n - s)
        b = x + (2.0 * n + 1.0 - s)
        e = b + an / e
        c = b + an / c
        factor = c / e
        h = h * factor
        if abs(factor - 1.0) <= eps:
            return s * t * h, n


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

    @pytest.mark.parametrize("s", [0.0, -1.0, math.inf, math.nan])
    def test_order_domain_errors(self, s):
        with pytest.raises(ValueError):
            regularized_gamma_q_inverse(0.5, s)

    ORDERS = (0.5, 1.0, 2.5, 7.5, 90.0, 90.5, 1000.5, 1e4, 1e5)
    # Log-spaced on the side of 1/2 each alpha is solved on: Q = alpha below,
    # P = 1 - alpha above.
    ALPHAS = np.concatenate([np.logspace(-300.0, math.log10(0.5), 25),
                             1.0 - np.logspace(math.log10(0.49), -12.0, 12)])

    @staticmethod
    def solved_tail(s, x):
        """(V, v, V / (s t)) at x for each of ALPHAS: the tail the inverse
        solves, its target, and the relative change of x per relative
        change of V."""
        alpha = TestGammaQInverse.ALPHAS
        t = _poisson_term(s, x)
        p, q, _ = _gamma_pq(s, x, t)
        upper = alpha <= 0.5
        val = np.where(upper, q, p)
        return val, np.where(upper, alpha, 1.0 - alpha), val / (s * t)

    @pytest.mark.parametrize("s", ORDERS)
    def test_against_scipy_and_mpmath(self, s):
        """From 1e-300 to 1 - 1e-12, within 1e-13 relative of gammainccinv
        and of the root by 40-digit mpmath. On the side it solves, every
        root here is well-conditioned: V / (s t) is at most 3, so a relative
        error in V moves x by at most three times as much. mpmath's residual
        V(x) - v over x times the density is x's relative error to first
        order."""
        mpmath = pytest.importorskip("mpmath")
        alpha = self.ALPHAS
        x = regularized_gamma_q_inverse(alpha, s)
        assert np.all(self.solved_tail(s, x)[2] <= 3.0)
        np.testing.assert_allclose(x, special.gammainccinv(s, alpha), rtol=1e-13, atol=0)
        with mpmath.workdps(40):
            sm = mpmath.mpf(s)
            for a, xv in zip(alpha, x):
                xm = mpmath.mpf(xv)
                density = mpmath.exp((sm - 1) * mpmath.log(xm) - xm - mpmath.loggamma(sm))
                if a <= 0.5:
                    residual = mpmath.gammainc(sm, xm, mpmath.inf, regularized=True) - a
                else:
                    residual = (1 - mpmath.mpf(a)) - mpmath.gammainc(sm, 0, xm, regularized=True)
                assert abs(residual) / (xm * density) <= 1e-13, (s, a)

    @pytest.mark.parametrize("s", ORDERS)
    def test_round_trip_through_gamma_q(self, s):
        """The package's own tail at the returned x gives alpha back: Q on
        the Q side and P = 1 - Q from ``_gamma_q``'s series on the P side,
        within 1e-14 relative times the conditioning of V in x, (s t / V)."""
        x = regularized_gamma_q_inverse(self.ALPHAS, s)
        val, v, cond = self.solved_tail(s, x)
        assert np.all(np.abs(val / v - 1.0) <= 1e-14 * np.maximum(1.0, 1.0 / cond))
        q, _ = _gamma_q(s, x, _poisson_term(s, x))
        upper = self.ALPHAS <= 0.5
        assert np.array_equal(q[upper], val[upper])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(s=st.sampled_from([0.5, 1.0, 2.5, 7.5, 90.0, 90.5, 1000.5]),
           alpha=st.lists(st.one_of(st.floats(-300.0, -0.31).map(lambda e: 10.0**e),
                                    st.floats(-12.0, -0.31).map(lambda e: 1.0 - 10.0**e),
                                    st.floats(0.001, 0.999)),
                          min_size=1, max_size=12))
    def test_elements_equal_one_element_calls_and_fall(self, s, alpha):
        """Each element equals its one-element call bit for bit, and x falls
        as alpha rises wherever the alphas differ by more than 1e-9 of the
        smaller tail: then the roots differ by far more than their error."""
        alpha = np.array(alpha)
        x = regularized_gamma_q_inverse(alpha, s)
        for a, xi in zip(alpha, x):
            assert xi.tobytes() == np.float64(regularized_gamma_q_inverse(a, s)).tobytes()
        order = np.argsort(alpha)
        a, xs = alpha[order], x[order]
        apart = (a[1:] - a[:-1]) > 1e-9 * np.minimum(a[1:], 1.0 - a[:-1])
        assert np.all(xs[1:][apart] < xs[:-1][apart])

    def test_one_gamma_q_evaluation_per_alpha_on_the_roc_grid(self, caplog):
        """At s = 90 over the ROC's 512-point grid, Wilson-Hilferty starts
        within 3.3e-4, each alpha takes one ``_gamma_q`` evaluation, and its
        second Halley step, on that evaluation's local series, is below
        1e-8 x. A Halley denominator with P's sign in it, used on Q, takes a
        third step."""
        with caplog.at_level(logging.DEBUG, logger="dpresidual.special_functions"):
            x = regularized_gamma_q_inverse(DEFAULT_ALPHA_GRID, 90.0)
        assert [r.getMessage() for r in caplog.records] == [
            "regularized_gamma_q_inverse: 512 alphas at s = 90, 512 _gamma_q evaluations, "
            "at most 2 steps per alpha"]
        np.testing.assert_allclose(x, special.gammainccinv(90.0, DEFAULT_ALPHA_GRID),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_small_order_near_1e_minus_11(self, s):
        """Far tails of small orders, where Wilson-Hilferty's start is off by
        more than 2%: a solver that stops short from it returns 29.03 at
        s = 2.5 where the root of Q = 1.78e-11 is 29.60. Against 40-digit
        mpmath roots."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            alphas = [1e-11, float(mpmath.gammainc(s, 29.6, mpmath.inf, regularized=True))]
            roots = [float(mpmath.findroot(
                lambda v: mpmath.gammainc(s, v, mpmath.inf, regularized=True) - a,
                mpmath.mpf(special.gammainccinv(s, a)))) for a in alphas]
        x = regularized_gamma_q_inverse(np.array(alphas), s)
        np.testing.assert_allclose(x, roots, rtol=1e-13, atol=0)
        assert x[1] == pytest.approx(29.6, rel=1e-13)

    def test_subnormal_and_underflowing_ends(self):
        """Where alpha, the tail or its Poisson term is subnormal, x is still
        the 40-digit mpmath root to 1e-14, as log V - log v is summed from
        factors that do not underflow; a root below the smallest normal
        double is the power-law start, at or below it. No warning."""
        mpmath = pytest.importorskip("mpmath")
        alpha = np.array([5e-324, 1e-320, 1e-310, 0.5, 1.0 - 2.0**-53])
        for s in (1e-3, 0.5, 3.0, 1e5):
            x = regularized_gamma_q_inverse(alpha, s)
            assert np.all(x[1:] <= x[:-1])
            with mpmath.workdps(40):
                for a, xi in zip(alpha[:3], x):
                    root = mpmath.findroot(
                        lambda v: mpmath.log(mpmath.gammainc(s, v, mpmath.inf, regularized=True))
                        - mpmath.log(mpmath.mpf(a)), mpmath.mpf(xi))
                    assert abs(xi / root - 1) <= 1e-14, (s, a)
        assert regularized_gamma_q_inverse(1.0 - 2.0**-53, 1e-3) == 0.0


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

class TestMarcumQ:
    def test_central_closed_form(self):
        """Q_1(0, b) = exp(-b^2 / 2)."""
        assert marcum_q(1.0, 0.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-6)

    @pytest.mark.parametrize("order", [0.5, 1.0, 7.5, 90.5, 1e3, 1e4])
    def test_central_is_gamma_tail_bit_for_bit(self, order):
        """At a = 0 the series sums its one k = 0 term of weight exactly 1:
        the value is the package's gamma tail ``_gamma_q`` itself, in any
        order of the boundaries and in any broadcast."""
        rng = np.random.default_rng(4)
        b = np.concatenate([[0.0, 1e-300, np.inf],
                            np.sqrt(2.0 * order * rng.uniform(0.5, 1.5, 200)),
                            rng.exponential(3.0, 50)])
        x = 0.5 * b * b
        tail, _ = _gamma_q(order, x, _poisson_term(order, x))
        expected = np.where(x == 0.0, 1.0, np.minimum(tail, 1.0))
        assert marcum_q(order, 0.0, b).tobytes() == expected.tobytes()
        assert marcum_q(order, 0.0, b[::-1]).tobytes() == expected[::-1].tobytes()
        assert marcum_q(order, np.zeros((3, 1)), b).tobytes() == \
            np.broadcast_to(expected, (3, b.size)).tobytes()
        np.testing.assert_allclose(expected, special.gammaincc(order, x), rtol=0, atol=5e-14)

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

    def test_far_apart_windows_sum_their_union(self, monkeypatch):
        """Means 100 and 10^4: windows of ~140 and ~1,500 terms, 10^4 apart.

        The call sums only the terms some window covers, so a budget below
        the span between them still holds, and each element equals its
        scalar call under the same budget.
        """
        monkeypatch.setattr(special_functions, "MAX_TERMS", 2000)
        a = np.sqrt(2.0 * np.array([1e4, 0.0, 100.0, 1e4]))[:, None]
        b = np.sqrt(2.0 * np.array([0.0, 50.0, 100.0, 9.9e3, 1.1e4]))
        out = marcum_q(3.5, a, b)
        for i, ai in enumerate(a[:, 0]):
            for j, bj in enumerate(b):
                assert out[i, j] == marcum_q(3.5, float(ai), float(bj))
        monkeypatch.setattr(special_functions, "MAX_TERMS", 1000)
        with pytest.raises(ConvergenceError, match="cover"):
            marcum_q(3.5, a, b)

    def test_restarts_are_canonical(self):
        """Windows of means 5, 400, 450 and 5e4 start at different k, and
        those of 400 and 450 merge into one run: each element still equals
        its scalar call, whose run starts at its own window."""
        a = np.sqrt(2.0 * np.array([5.0, 400.0, 450.0, 5e4]))[:, None]
        b = np.sqrt(2.0 * np.concatenate([[0.0, 3.0, 380.0, 470.0, 4.9e4, 5.1e4],
                                          np.linspace(1.0, 6e4, 30)]))
        out = marcum_q(3.5, a, b)
        for i, ai in enumerate(a[:, 0]):
            scalar = [marcum_q(3.5, float(ai), float(bj)) for bj in b]
            assert out[i].tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("noncentrality", [1.0, 10.0, 100.0, 1e3])
    def test_large_order_against_scipy_noncentral_tail(self, noncentrality):
        """dof 4801, the 5000x200 rung's WSSR law, within ABS_TOL over +-6 sd."""
        dof = 4801.0
        mean, sd = dof + noncentrality, math.sqrt(2.0 * (dof + 2.0 * noncentrality))
        x = mean + sd * np.linspace(-6.0, 6.0, 41)
        out = marcum_q(0.5 * dof, math.sqrt(noncentrality), np.sqrt(x))
        ref = stats.ncx2.sf(x, dof, noncentrality)
        np.testing.assert_allclose(out, ref, rtol=0, atol=special_functions.ABS_TOL)

    def test_empty_broadcast(self):
        assert marcum_q(1.0, np.array([1.0, 2.0]), np.empty((0, 1))).shape == (0, 2)

    def test_central_delegation(self):
        assert marcum_q(2.5, 0.0, 3.0) == pytest.approx(
            special.gammaincc(2.5, 4.5), abs=1e-14)

    def test_term_budget_reported(self, monkeypatch):
        monkeypatch.setattr(special_functions, "MAX_TERMS", 3)
        with pytest.raises(ConvergenceError):
            marcum_q(1.0, 12.0, 1.0)

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

    @pytest.mark.parametrize("noncentrality", [1e4, 1e5])
    def test_large_mean_against_scipy_noncentral_tail(self, noncentrality):
        """Order 1.5 with b^2 within 3% of the noncentrality, within ABS_TOL of
        scipy's ncx2.sf. The direct Poisson weight missed it by 1.8e-12 at
        1e4 and 1.9e-11 at 1e5."""
        x = noncentrality * np.linspace(0.97, 1.03, 61)
        out = marcum_q(1.5, math.sqrt(noncentrality), np.sqrt(x))
        ref = stats.ncx2.sf(x, 3.0, noncentrality)
        np.testing.assert_allclose(out, ref, rtol=0, atol=special_functions.ABS_TOL)

    def test_infinite_boundary(self):
        assert marcum_q(2.0, 1.0, math.inf) == 0.0
        np.testing.assert_array_equal(marcum_q(2.0, np.array([0.0, 3.0]), math.inf), [0.0, 0.0])

    def test_debug_log_reports_window(self, caplog):
        """Term, element and gamma-tail seed counts go to the DEBUG log: one
        seed per multiple of 32 in the run, and one at its start; and the
        most iterations a seed's tail took."""
        a = np.array([0.5, 3.0, 9.0])
        with caplog.at_level(logging.DEBUG, logger="dpresidual.special_functions"):
            marcum_q(2.0, a, 4.0)
        k_lo, k_hi = _poisson_window(0.5 * a * a, 0.5 * special_functions.ABS_TOL)
        lo, hi = int(k_lo.min()), int(k_hi.max())
        seeds = range(lo - lo % 32, hi + 1, 32)
        iterations = max(plain_gamma_q(2.0 + seed, 8.0)[1] for seed in seeds)
        assert [r.getMessage() for r in caplog.records] == [
            f"marcum_q: {hi - lo + 1} terms over 3 elements, {len(seeds)} gamma-tail seeds "
            f"of at most {iterations} iterations"]

    @pytest.mark.parametrize("order,a,b", [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
                                           (1.0, -0.5, 1.0), (1.0, 1.0, -2.0),
                                           (1.0, [0.5, -0.5], 1.0),
                                           (1.0, [0.5, 1.0], [1.0, -2.0]),
                                           (1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
                                           (2.0, 1.0, math.nan), (2.0, [1.0, 2.0], [1.0, math.nan])])
    def test_domain_errors(self, order, a, b):
        with pytest.raises(ValueError):
            marcum_q(order, a, b)


class TestGammaTails:
    """The Poisson weights of ``_poisson_blocks`` and the gamma tails of
    ``_gamma_tails``, their seeds, and the sums built on them."""

    @pytest.mark.parametrize("order", [0.5, 10.0, 90.5, 2400.5, 1e4, 1e5])
    def test_recurrence_against_scipy_gamma_tail(self, order):
        """Two consecutive blocks from multiples of 32 below 3000, against
        gammaincc at every k, across the block boundary.

        x sits within 3 sd of the pair's middle s, where the tails move
        most, plus 0, 1e-300 and inf. The bound 5e-14 holds only with the
        seeds' saddle-point t: the direct exponent drifts past 1e-12.
        """
        rng = np.random.default_rng(19)
        for k0 in 32.0 * rng.integers(0, 94, 8):
            k = k0 + np.arange(64.0)
            s = order + k0 + 32.0
            x = np.concatenate([np.abs(s + 3.0 * math.sqrt(s) * rng.uniform(-1.0, 1.0, 40)),
                                [0.0, 1e-300, np.inf]])
            got = np.array([*_gamma_tails(order, k0, x), *_gamma_tails(order, k0 + 32.0, x)])
            ref = special.gammaincc(order + k[:, None], x)
            np.testing.assert_allclose(got, ref, rtol=0, atol=5e-14)

    def test_weights_against_mpmath(self):
        """Every mean's whole window, walked in one call, against 30-digit
        mpmath Poisson weights to a relative 1e-13, and exactly 0 outside
        the window. The direct exp(k log mu - mu - lgamma(k + 1)) drifts to
        8.6e-10 at 2e5."""
        mpmath = pytest.importorskip("mpmath")
        mu = np.array([0.0, 0.3, 7.0, 300.0, 4e3, 5e4, 2e5])
        k_lo, k_hi = _poisson_window(mu, 0.5 * special_functions.ABS_TOL)
        _, blocks = _poisson_blocks(mu, "test")
        blocks = list(blocks)
        k = np.concatenate([seed + np.arange(float(len(w))) for seed, w in blocks])
        w = np.concatenate([w for _, w in blocks])
        inside = (k_lo <= k[:, None]) & (k[:, None] <= k_hi)
        assert np.all(w[~inside] == 0.0)
        with mpmath.workdps(30):
            for i, m in enumerate(mu):
                ref = np.array([float(mpmath.exp(int(k_i) * mpmath.log(m) - m
                                                 - mpmath.loggamma(int(k_i) + 1)))
                                if m > 0 else float(k_i == 0) for k_i in k[inside[:, i]]])
                np.testing.assert_allclose(w[inside[:, i], i], ref, rtol=1e-13, atol=0)

    def test_seeds_are_gamma_q_values(self):
        """At a block's seed the tail is ``_gamma_q`` itself, within 5e-14 of
        gammaincc, and the weight is ``_poisson_term``, and a mean's weights
        do not depend on the other means of the call (whose windows may run
        its blocks further)."""
        x = np.array([0.0, 0.3, 40.0, 70.0, np.inf])
        for seed in (0.0, 32.0, 64.0):
            s = 7.5 + seed
            q = next(_gamma_tails(7.5, seed, x))
            assert q.tobytes() == _gamma_q(s, x, _poisson_term(s, x))[0].tobytes()
            assert q.tobytes() == next(_gamma_tails(7.5, seed, x[::-1]))[::-1].tobytes()
            np.testing.assert_allclose(q, special.gammaincc(s, x), rtol=0, atol=5e-14)
        mu = np.array([0.0, 0.3, 40.0, 90.0])
        k_lo, k_hi = _poisson_window(mu, 0.5 * special_functions.ABS_TOL)
        terms, blocks = _poisson_blocks(mu, "test")
        blocks = list(blocks)
        assert [seed for seed, _ in blocks] == list(range(0, int(k_hi[-1]) + 1, 32))
        assert terms == k_hi[-1] + 1.0
        for seed, w in blocks:
            inside = (k_lo <= seed) & (seed <= k_hi)
            assert w[0, inside].tobytes() == _poisson_term(seed, mu[inside]).tobytes()
        for i, m in enumerate(mu):
            alone = dict(list(_poisson_blocks(np.array([m]), "test")[1]))
            for seed, w in blocks:
                own = alone.get(seed, np.zeros((0, 1)))[:, 0]
                assert w[:own.size, i].tobytes() == own.tobytes()
                assert np.all(w[own.size:, i] == 0.0)

    def test_union_budget_counts_each_term_once(self, monkeypatch):
        """The budget is the union of the windows, widened down to their
        seeds: a thousand copies of one mean and windows that overlap cost
        no more than their union, and a gap between windows costs nothing."""
        k_lo, k_hi = _poisson_window(np.array([1e4, 1.5e4]), 0.5 * special_functions.ABS_TOL)
        first = k_lo - k_lo % 32
        union = (k_hi - first + 1.0).sum()
        monkeypatch.setattr(special_functions, "MAX_TERMS", int(union))
        means = np.repeat([1e4, 1.5e4, 1.5e4 - 1.0], 1000)
        terms, _ = _poisson_blocks(np.unique(means), "test")
        assert k_hi[0] < first[1] - 1.0 and terms >= union
        assert terms <= union + 64.0
        monkeypatch.setattr(special_functions, "MAX_TERMS", int(terms))
        assert marcum_q(2.0, np.sqrt(2.0 * means), 100.0).shape == (3000,)
        monkeypatch.setattr(special_functions, "MAX_TERMS", int(terms) - 1)
        with pytest.raises(ConvergenceError, match="cover"):
            marcum_q(2.0, np.sqrt(2.0 * means), 100.0)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(order=st.sampled_from([0.5, 2.5, 8.0, 90.5]),
           means=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.floats(1e3, 4e3)),
                          min_size=1, max_size=4),
           copies=st.integers(1, 2),
           b=hnp.arrays(float, st.integers(1, 3), elements=st.floats(0.0, 100.0)))
    def test_every_element_equals_its_one_element_call(self, order, means, copies, b):
        """Duplicated and far-apart means: each element of a broadcast
        ``marcum_q`` call and each entry of ``chisq_exceedance`` equals the
        call with that one element bit for bit."""
        nc = np.repeat(2.0 * np.array(means), copies)
        a = np.sqrt(nc)
        out = marcum_q(order, a[:, None], b)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                assert out[i, j].tobytes() == np.float64(marcum_q(order, ai, bj)).tobytes()
        for nc0 in (0.0, 9.0):
            areas = chisq_exceedance(2.0 * order, nc0, nc)
            for area, nc1 in zip(areas, nc):
                assert area.tobytes() == chisq_exceedance(2.0 * order, nc0, [nc1]).tobytes()

    @pytest.mark.parametrize("s", [0.5, 1.0, 7.5, 90.5, 1000.5, 1e4, 1e5])
    def test_gamma_q_against_mpmath_and_scipy(self, s):
        """The numpy tail against 40-digit mpmath and against gammaincc, to
        5e-14: at 0 and 1e-300, about s +- sqrt(s), on both sides of the
        switch at s + 1, in both far tails, at 4e10 and at inf."""
        mpmath = pytest.importorskip("mpmath")
        r = math.sqrt(s)
        x = np.array([0.0, 1e-300, 1e-8, 0.01 * s, abs(s - r), s, np.nextafter(s + 1.0, 0.0),
                      s + 1.0, s + r, max(s - 12.0 * r, 0.001), s + 12.0 * r + 20.0,
                      10.0 * s + 50.0, 4e10, np.inf])
        q, _ = _gamma_q(s, x, _poisson_term(s, x))
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.gammainc(s, mpmath.mpf(v), mpmath.inf, regularized=True))
                            if 0.0 < v < np.inf else float(v == 0.0) for v in x])
        np.testing.assert_allclose(q, ref, rtol=0, atol=5e-14)
        np.testing.assert_allclose(q, special.gammaincc(s, x), rtol=0, atol=5e-14)

    @pytest.mark.parametrize("s", [0.5, 2.0, 7.5, 90.5, 1000.5])
    def test_gamma_q_chunks_equal_the_plain_loop(self, s):
        """Run _CHUNK iterations at a time, each element still stops at its
        own first converged iteration: every value equals the plain
        one-element loop bit for bit, and the count is its largest."""
        rng = np.random.default_rng(23)
        r = math.sqrt(s)
        x = np.concatenate([[0.0, 1e-300, s + 1.0, np.nextafter(s + 1.0, 0.0), 1e6 * s, np.inf],
                            np.abs(s + 4.0 * r * rng.standard_normal(40)),
                            rng.uniform(0.0, 3.0 * s + 10.0, 20)])
        q, most = _gamma_q(s, x, _poisson_term(s, x))
        plain = [plain_gamma_q(s, float(v)) for v in x]
        assert q.tobytes() == np.array([v for v, _ in plain]).tobytes()
        assert most == max(n for _, n in plain)
        assert most > special_functions._CHUNK  # more than one chunk

    def test_poisson_term_edges(self):
        """e^-x at s = 0, and 0 where x is 0 or infinite above it."""
        x = np.array([0.0, 2.5, np.inf])
        assert _poisson_term(0.0, x).tobytes() == np.exp(-x).tobytes()
        np.testing.assert_array_equal(_poisson_term(3.5, x)[[0, 2]], [0.0, 0.0])
        assert _poisson_term(3.5, x)[1] == pytest.approx(
            math.exp(3.5 * math.log(2.5) - 2.5 - math.lgamma(4.5)), rel=1e-14)


def quadrature_half_beta(a, b):
    """I_(1/2)(a, b) by 40-digit mpmath quadrature of the beta density,
    split about its peak: mpmath's betainc, a hypergeometric series, does
    not converge at parameters near 1e5."""
    import mpmath

    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        log_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
        peak = (a - 1) / (a + b - 2) if a > 1 and b > 1 else mpmath.mpf(0.25)
        sd = mpmath.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        points = sorted({mpmath.mpf(0), mpmath.mpf(0.5)}
                        | {peak + c * sd for c in (-40, -10, -3, 0, 3, 10, 40)
                           if 0 < peak + c * sd < 0.5})
        return float(mpmath.quad(lambda u: mpmath.exp((a - 1) * mpmath.log(u)
                                                      + (b - 1) * mpmath.log1p(-u)
                                                      - log_beta), points))


class TestHalfBeta:
    """``_half_beta``'s I_(1/2)(half + j, half + k) and the exceedance built on it."""

    @pytest.mark.parametrize("dof", [1.0, 2.0, 15.0, 180.0, 181.0, 2e5])
    def test_central_tie_is_one_half(self, dof):
        assert chisq_exceedance(dof, 0.0, [0.0])[0] == 0.5

    @pytest.mark.parametrize("half", [0.5, 1.0, 7.5, 90.0, 90.5, 1000.0, 5e4 + 0.5, 1e5])
    def test_against_betainc_and_mpmath(self, half):
        """Half-integer and integer a and b up to 1e5 + 2000, on both sides of
        a = b and past the walk's cut, within ABS_TOL of betainc; against
        mpmath's betainc up to 1e3 and its quadrature above."""
        mpmath = pytest.importorskip("mpmath")
        j = np.array([0.0, 1.0, 5.0, 40.0, 300.0])
        k = np.array([0.0, 1.0, 3.0, 40.0, 41.0, 299.0, 300.0, 2000.0])
        got = _half_beta(half, j, k)
        assert got.shape == (k.size, j.size)
        ref = special.betainc(half + j, half + k[:, None], 0.5)
        np.testing.assert_allclose(got, ref, rtol=0, atol=special_functions.ABS_TOL)
        for jj, kk in ((0, 0), (0, 3), (3, 0), (2, 4), (1, 7), (4, 6), (4, 7)):
            a, b = half + j[jj], half + k[kk]
            if max(a, b) <= 1e3:
                with mpmath.workdps(30):
                    want = float(mpmath.betainc(a, b, 0, 0.5, regularized=True))
            else:
                want = quadrature_half_beta(a, b)
            assert abs(got[kk, jj] - want) <= special_functions.ABS_TOL, (a, b)

    @pytest.mark.parametrize("half", [0.5, 7.5, 90.0, 2400.5])
    def test_walk_equals_the_plain_loop_past_its_cut(self, half):
        """Every value is the plain sequential walk's, bit for bit: from
        1/2 and t(a, a) by Stirling's series, adding t(a, a + i) and
        stepping it by (2a + i) / (2 (a + i + 1)); far past the cut, where
        the walk stops, the plain loop no longer changes."""
        d = np.array([0, 1, 2, 17, 64, 500, 5000])
        got = _half_beta(half, [0.0], d.astype(float))[:, 0]
        total, t = 0.5, 0.5 * math.exp(_stirlerr(2.0 * half) - 2.0 * _stirlerr(half)) \
            / math.sqrt(math.pi * half)
        plain = [total]
        for i in range(int(d.max())):
            total += t
            t *= (2.0 * half + i) / (2.0 * (half + i + 1.0))
            plain.append(total)
        assert got.tobytes() == np.array(plain)[d].tobytes()
        # The reflection I_(1/2)(a, b) = 1 - I_(1/2)(b, a) where k < j.
        assert _half_beta(half, [3.0], [0.0])[0, 0] == 1.0 - plain[3]

    def test_walk_budget(self, monkeypatch):
        """A call whose walks hold more than MAX_TERMS steps raises."""
        monkeypatch.setattr(special_functions, "MAX_TERMS", 100)
        assert _half_beta(7.5, [0.0], [99.0]).shape == (1, 1)
        with pytest.raises(ConvergenceError, match="incomplete-beta walks"):
            _half_beta(7.5, [0.0], [101.0])


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

    def test_newton_start_matches_lambert_w_window(self):
        """On 20,006 log-spaced means in [1e-14, 1e7] the Newton iteration from
        Bernstein's root gives the k_hi of the Lambert-W start, exp(1 +
        W0((c - 1) / e)) - 1, plus one Newton step."""
        p = 0.5 * special_functions.ABS_TOL
        mu = np.logspace(-14.0, 7.0, 20006)
        c = -math.log(p) / np.where(mu > p, mu, 1.0)
        u = np.expm1(1.0 + special.lambertw((c - 1.0) / math.e).real)
        log1p_u = np.log1p(u)
        u -= ((1.0 + u) * log1p_u - u - c) / log1p_u
        k_hi = np.where(mu > p, np.ceil(mu * (1.0 + u)) - 1.0, 0.0)
        assert _poisson_window(mu, p)[1].tobytes() == k_hi.tobytes()

    def test_fixed_tolerance_ends_finite(self):
        """At marcum_q's p = ABS_TOL / 2 every mean below 2^53 has a finite
        window, computed without a floating-point warning."""
        p = 0.5 * special_functions.ABS_TOL
        edges = [0.0, p, np.nextafter(p, 0.0), np.nextafter(p, 1.0),
                 2.0**53 * (1.0 - 2.0**-52)]
        sweep = np.logspace(math.log10(5e-324), 53.0 * math.log10(2.0), 10**6,
                            endpoint=False)
        k_lo, k_hi = _poisson_window(np.concatenate([edges, sweep]), p)
        assert np.isfinite(k_lo).all() and np.isfinite(k_hi).all()
        assert np.all(k_hi >= k_lo)


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
        assert math.exp(log_bessel_i(0.0, 1e-12)) == pytest.approx(1.0, abs=1e-9)

    def test_half_order_closed_form(self):
        """I_{1/2}(x) = sqrt(2 / (pi x)) sinh(x)."""
        ref = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert math.exp(log_bessel_i(0.5, 1.0)) == pytest.approx(0.9376, abs=1e-4)
        assert math.exp(log_bessel_i(0.5, 1.0)) == pytest.approx(ref, rel=1e-12)

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

    def test_power_series_where_scaled_bessel_underflows(self):
        """Below order 50, where ive is below the smallest normal double, the
        two-term power series against mpmath's besseli at 50 digits; where I
        itself overflows a double the log form stays finite."""
        mpmath = pytest.importorskip("mpmath")
        for order, x in [(49.5, 1e-6), (49.5, 2e-5), (49.0, 1e-300), (30.0, 1e-9),
                         (10.0, 1e-40), (5.0, 1e-70), (2.5, 1e-130), (1.0, 1e-310)]:
            assert special.ive(order, x) < np.finfo(float).tiny
            with mpmath.workdps(50):
                ref = float(mpmath.log(mpmath.besseli(order, mpmath.mpf(x))))
            assert log_bessel_i(order, x) == pytest.approx(ref, rel=1e-15, abs=0)
        assert log_bessel_i(0.0, 1000.0) == pytest.approx(1000.0 + math.log(special.ive(0, 1000.0)))

    @pytest.mark.parametrize("order", [50.0, 50.5, 64.0, 89.5, 200.0, 474.5, 1000.0, 2399.5])
    def test_debye_agrees_with_scaled_bessel(self, order):
        """From order 50 on, the Debye expansion against log(ive) + x wherever
        ive exceeds 1e-300, to 1e-13 of max(1, |log I|)."""
        x = order * 10.0 ** np.random.default_rng(50).uniform(-4.0, 1.5, 200)
        x = x[special.ive(order, x) > 1e-300]
        assert x.size >= 20
        ref = np.log(special.ive(order, x)) + x
        mine = log_bessel_i(order, x)
        assert np.all(np.abs(mine - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("order,x", [(4800.0, 1.0), (2399.5, 144.1), (2399.5, 1e-3),
                                         (89.5, 0.021), (50.0, 1e-6), (474.5, 62.0),
                                         (1000.0, 3e4)])
    def test_debye_against_mpmath(self, order, x):
        """Where ive underflows (all but the last), against mpmath's besseli
        at 40 digits, to 1e-14 of max(1, |log I|)."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.besseli(order, x)))
        assert log_bessel_i(order, x) == pytest.approx(ref, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("order,x", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, order, x):
        with pytest.raises(ValueError):
            log_bessel_i(order, x)

