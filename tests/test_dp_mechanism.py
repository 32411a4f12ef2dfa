"""Privacy mechanisms: releases, the delta guarantee, and leakage checks.

Monte Carlo oracles sample the exact released laws and evaluate the
leakage directly; the Gaussian-mechanism calibration is checked against a
quadrature oracle of the hockey-stick divergence.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from dpresidual import (
    AttackVector,
    MeasurementModel,
    Mechanism,
    NeighborPerturbation,
    NeighborhoodSpec,
    NumericError,
    PrivacyParams,
    ResidualLaw,
    SeedStream,
    SingularUpdateError,
    TestSpec,
    apply_neighbor,
    calibrate_gaussian_output_sigma,
    chi_square_release,
    delta_for_epsilon,
    delta_max_over_neighborhood,
    gaussian_leakage_probability,
    gaussian_mechanism_sigma,
    input_perturbation_noise,
    input_perturbation_release,
    leakage,
    neighbor_projection_update,
    neighbor_roots,
    noncentral_chisq_sample,
    output_release,
    projection_matrix,
    release_noise,
    released_law,
    residual_law,
    roc,
)
from dpresidual.dp_mechanism import (
    _CALIBRATION_MARGIN,
    _CALIBRATION_REL_TOL,
    MAX_GRID_POINTS,
    _delta_over_interval,
)
from dpresidual.config import STREAM_MATRIX, build_attack, build_model, derive_streams, \
    load_config
from dpresidual.measurement_model import neighbor_root_interval
from dpresidual.special_functions import ABS_TOL
from conftest import random_model

DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def mc_leakage_probability(r_tilde, theta, theta_prime, epsilon, n, seed):
    """Empirical Pr[|L| <= eps] with the release sampled from the theta law."""
    q = noncentral_chisq_sample(r_tilde, theta**2, SeedStream(seed), size=n)
    L = leakage(q, r_tilde, theta, theta_prime)
    p = float(np.mean(np.abs(L) <= epsilon))
    se = math.sqrt(max(p * (1 - p), 1e-12) / n)
    return p, se


def hockey_stick_delta(sigma, sensitivity, epsilon):
    """Quadrature of integral [f0(u) - e^eps f1(u)]_+ du for a unit shift pair."""
    f0 = stats.norm(0.0, sigma).pdf
    f1 = stats.norm(sensitivity, sigma).pdf
    value, _ = integrate.quad(
        lambda u: max(0.0, f0(u) - math.exp(epsilon) * f1(u)),
        -60 * sigma, 60 * sigma, limit=400)
    return value


def roots_leakage_probability(mu0, v0, mu1, v1, nu_sigma, epsilon):
    """Pr[|L| <= eps] of the Gaussian release pair, worst direction.

    The roots of L = -eps and L = +eps come from ``np.roots`` on L's
    polynomial, written out from the two log densities; each interval
    between consecutive roots (and +-inf) is kept when |L| <= eps at an
    interior point, and scipy's normal cdf integrates both laws over it.
    """
    s0, s1 = math.sqrt(v0 + nu_sigma**2), math.sqrt(v1 + nu_sigma**2)

    def log_density(mu, s):          # log N(u; mu, s^2), highest power of u first
        return np.array([-0.5, mu, -0.5 * mu * mu]) / (s * s) - [0.0, 0.0, math.log(s)]

    poly = log_density(mu0, s0) - log_density(mu1, s1)
    found = np.concatenate([np.roots(poly - [0.0, 0.0, level]) for level in (-epsilon, epsilon)])
    roots = np.sort(found[found.imag == 0].real)
    if roots.size:
        points = np.concatenate([[roots[0] - 1.0], 0.5 * (roots[1:] + roots[:-1]),
                                 [roots[-1] + 1.0]])
    else:
        points = np.array([0.0])
    L = stats.norm.logpdf(points, mu0, s0) - stats.norm.logpdf(points, mu1, s1)
    edges = np.concatenate([[-np.inf], roots, [np.inf]])
    keep = np.abs(L) <= epsilon
    lo, hi = edges[:-1][keep], edges[1:][keep]
    return min(float(np.sum(stats.norm.cdf(hi, mu, s) - stats.norm.cdf(lo, mu, s)))
               for mu, s in ((mu0, s0), (mu1, s1)))


# ---------------------------------------------------------------------------
# Privacy parameter records
# ---------------------------------------------------------------------------

class TestPrivacyParams:
    def test_chi_square_fields(self):
        p = PrivacyParams.chi_square(r_prime=2, epsilon=1.0, delta=0.1)
        assert p.mechanism is Mechanism.CHI_SQUARE
        assert p.r_prime == 2

    def test_exactly_selected_fields_required(self):
        with pytest.raises(ValueError, match="r_prime is required"):
            PrivacyParams(mechanism=Mechanism.CHI_SQUARE)
        with pytest.raises(ValueError, match="not a parameter"):
            PrivacyParams(mechanism=Mechanism.CHI_SQUARE, r_prime=1, nu_sigma=1.0)
        with pytest.raises(ValueError, match="nu_mean is required"):
            PrivacyParams(mechanism=Mechanism.GAUSSIAN_OUTPUT, nu_sigma=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0}, {"epsilon": -1.0}, {"delta": -0.1}, {"delta": 1.5},
        {"r_prime": 0},
    ])
    def test_invariants(self, kwargs):
        base = {"mechanism": Mechanism.CHI_SQUARE, "r_prime": 1}
        base.update(kwargs)
        with pytest.raises(ValueError):
            PrivacyParams(**base)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_input_perturbation_delta_is_open(self, delta):
        """Input perturbation calibrates its noise from delta in (0, 1)."""
        with pytest.raises(ValueError, match=r"^delta must be in"):
            PrivacyParams.gaussian_input(epsilon=1.0, delta=delta)
        assert PrivacyParams.gaussian_input(epsilon=1.0, delta=0.5).delta == 0.5

    @pytest.mark.parametrize("kwargs,name", [
        ({"mechanism": Mechanism.CHI_SQUARE}, "r_prime"),
        ({"mechanism": Mechanism.CHI_SQUARE, "r_prime": 1, "nu_mean": 0.0}, "nu_mean"),
        ({"mechanism": Mechanism.GAUSSIAN_OUTPUT, "nu_mean": 0.0}, "nu_sigma"),
        ({"mechanism": Mechanism.GAUSSIAN_OUTPUT, "nu_mean": 0.0, "nu_sigma": -1.0},
         "nu_sigma"),
        ({"mechanism": Mechanism.GAUSSIAN_OUTPUT, "nu_mean": math.nan, "nu_sigma": 1.0},
         "nu_mean"),
        ({"mechanism": Mechanism.GAUSSIAN_OUTPUT, "nu_mean": 0.0, "nu_sigma": math.inf},
         "nu_sigma"),
        ({"mechanism": Mechanism.GAUSSIAN_INPUT, "r_prime": 1}, "r_prime"),
        ({"mechanism": Mechanism.GAUSSIAN_INPUT, "epsilon": -1.0}, "epsilon"),
        ({"mechanism": Mechanism.GAUSSIAN_OUTPUT, "nu_mean": 0.0, "nu_sigma": 1e200},
         "nu_sigma"),  # its square overflows
        ({"mechanism": Mechanism.GAUSSIAN_OUTPUT, "nu_mean": 0.0, "nu_sigma": 1e-200},
         "nu_sigma"),  # its square underflows to 0
    ])
    def test_message_begins_with_field(self, kwargs, name):
        """The config names the offending dp.<key> by this prefix."""
        with pytest.raises(ValueError, match=rf"^{name} "):
            PrivacyParams(**kwargs)


# ---------------------------------------------------------------------------
# Chi-square mechanism
# ---------------------------------------------------------------------------

class TestChiSquareRelease:
    def test_noise_mean_one_dof(self, stream):
        """The added noise is a unit central chi-square for r' = 1."""
        nu = noncentral_chisq_sample(1.0, 0.0, stream, size=10**6)
        assert nu.mean() == pytest.approx(1.0, abs=0.01)

    def test_release_contract(self, stream):
        law = ResidualLaw.chi_square(dof=5.0, noncentrality=2.0)
        release = chi_square_release(law, 4.2, 2, stream, epsilon=1.0, delta=0.1)
        assert release.law.dof == 7.0
        assert release.law.noncentrality == 2.0
        assert release.value >= 4.2
        assert release.params.r_prime == 2
        assert release.seed is not None

    def test_release_mean_additivity(self, stream):
        """Mean of the release is r + r' + theta^2 when the query is resampled."""
        r, r_prime, nc = 6.0, 1.0, 3.0
        n = 10**6
        q = noncentral_chisq_sample(r, nc, stream, size=n)
        nu = noncentral_chisq_sample(r_prime, 0.0, stream, size=n)
        released = q + nu
        se = math.sqrt(released.var() / n)
        assert released.mean() == pytest.approx(r + r_prime + nc, abs=3 * se)

    def test_released_distribution(self, stream):
        """Released samples follow the r + r' dof law at unchanged noncentrality."""
        r, r_prime, nc = 4.0, 1.0, 2.5
        n = 10**5
        q = noncentral_chisq_sample(r, nc, stream, size=n)
        nu = noncentral_chisq_sample(r_prime, 0.0, stream, size=n)
        result = stats.kstest(q + nu, lambda x: stats.ncx2.cdf(x, r + r_prime, nc))
        assert result.pvalue > 0.01

    def test_release_op_distribution(self, rng):
        """The release operation itself matches the declared law."""
        law = ResidualLaw.chi_square(dof=3.0, noncentrality=0.0)
        stream = SeedStream(9)
        values = np.array([
            chi_square_release(law, float(q), 1, stream).value
            for q in noncentral_chisq_sample(3.0, 0.0, SeedStream(10), size=4000)
        ])
        result = stats.kstest(values, lambda x: stats.chi2.cdf(x, 4.0))
        assert result.pvalue > 0.01

    def test_rejects_gaussian_law(self, stream):
        with pytest.raises(ValueError):
            chi_square_release(ResidualLaw.gaussian(1.0, 1.0), 0.5, 1, stream)

    def test_production_mode_hides_seed(self, stream, monkeypatch):
        monkeypatch.setenv("DP_RESIDUAL_PRODUCTION", "1")
        law = ResidualLaw.chi_square(dof=5.0, noncentrality=0.0)
        assert chi_square_release(law, 1.0, 1, stream).seed is None


class TestReleasedStatistic:
    """``released_law`` and ``release_noise`` define both output mechanisms."""

    CHI = ResidualLaw.chi_square(dof=5.0, noncentrality=2.0)
    GAUSS = ResidualLaw.gaussian(mean=10.0, variance=1.5)

    def test_law_of_each_release(self):
        chi = chi_square_release(self.CHI, 4.2, 3, SeedStream(1), epsilon=1.0, delta=0.1)
        gauss = output_release(self.GAUSS, 9.7, PrivacyParams.gaussian_output(0.3, 2.0),
                               SeedStream(1))
        for release, law in ((chi, self.CHI), (gauss, self.GAUSS)):
            assert released_law(law, release.params) == release.law
        assert chi.law == ResidualLaw.chi_square(dof=8.0, noncentrality=2.0)
        assert gauss.law == ResidualLaw.gaussian(mean=10.3, variance=5.5)

    def test_no_noise_keeps_law(self):
        assert released_law(self.CHI, None) is self.CHI
        assert released_law(self.GAUSS, None) is self.GAUSS

    @pytest.mark.parametrize("law,params", [
        (CHI, PrivacyParams.gaussian_output(nu_mean=0.0, nu_sigma=1.0)),
        (GAUSS, PrivacyParams.chi_square(r_prime=1)),
        (CHI, PrivacyParams.gaussian_input(epsilon=12.0, delta=0.1)),
        (GAUSS, PrivacyParams.gaussian_input(epsilon=12.0, delta=0.1)),
    ], ids=["gaussian-on-chi", "chi-on-gaussian", "input-on-chi", "input-on-gaussian"])
    def test_rejects_foreign_noise(self, law, params):
        with pytest.raises(ValueError, match="does not apply"):
            released_law(law, params)

    @pytest.mark.parametrize("size", [None, 1000])
    def test_chi_square_noise_is_the_inline_draw(self, size):
        params = PrivacyParams.chi_square(r_prime=3)
        drawn = release_noise(params, SeedStream(11), size)
        expected = noncentral_chisq_sample(3.0, 0.0, SeedStream(11), size=size)
        assert type(drawn) is type(expected)
        assert np.asarray(drawn).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("size", [None, 1000])
    def test_gaussian_noise_is_the_inline_draw(self, size):
        params = PrivacyParams.gaussian_output(nu_mean=0.3, nu_sigma=1.5)
        drawn = release_noise(params, SeedStream(11), size)
        expected = SeedStream(11).generator.normal(0.3, 1.5, size=size)
        assert type(drawn) is type(expected)
        assert np.asarray(drawn).tobytes() == np.asarray(expected).tobytes()

    def test_release_value_is_query_plus_noise(self):
        params = PrivacyParams.chi_square(r_prime=2)
        release = chi_square_release(self.CHI, 4.2, 2, SeedStream(3))
        assert release.value == 4.2 + release_noise(params, SeedStream(3))
        params = PrivacyParams.gaussian_output(nu_mean=0.3, nu_sigma=2.0)
        release = output_release(self.GAUSS, 9.7, params, SeedStream(3))
        assert release.value == 9.7 + release_noise(params, SeedStream(3))

    @pytest.mark.parametrize("law,params", [
        (CHI, PrivacyParams.chi_square(r_prime=3, epsilon=1.0, delta=0.1)),
    ], ids=["chi_square"])
    def test_named_releases_are_output_release(self, law, params):
        """The named release is output_release over its params record."""
        named = chi_square_release(law, 4.2, 3, SeedStream(5), epsilon=1.0, delta=0.1)
        assert named == output_release(law, 4.2, params, SeedStream(5))

    def test_negative_query_rejected(self, stream):
        for law, params in ((self.CHI, PrivacyParams.chi_square(r_prime=1)),
                            (self.GAUSS, PrivacyParams.gaussian_output(0.0, 1.0))):
            with pytest.raises(ValueError, match="q must be >= 0"):
                output_release(law, -0.5, params, stream)

    def test_input_perturbation_adds_no_release_noise(self):
        with pytest.raises(ValueError):
            release_noise(PrivacyParams.gaussian_input(epsilon=12.0, delta=0.1), SeedStream(0))

    @pytest.mark.parametrize("r_prime", [0, -1])
    def test_chi_square_release_rejects_r_prime(self, stream, r_prime):
        with pytest.raises(ValueError, match="r_prime"):
            chi_square_release(self.CHI, 1.0, r_prime, stream)

    def test_gaussian_release_rejects_nu_sigma(self, stream):
        with pytest.raises(ValueError, match="nu_sigma"):
            output_release(self.GAUSS, 1.0, PrivacyParams.gaussian_output(0.0, 0.0), stream)


# ---------------------------------------------------------------------------
# The delta guarantee
# ---------------------------------------------------------------------------

class TestDeltaForEpsilon:
    def test_identical_roots_give_zero(self):
        assert delta_for_epsilon(1.0, 3.0, 2.0, 2.0) == 0.0

    def test_nonincreasing_in_epsilon(self):
        eps_grid = np.linspace(0.1, 40.0, 60)
        deltas = [delta_for_epsilon(float(e), 4.0, 0.5, 1.5) for e in eps_grid]
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 1e-6

    def test_saturates_at_small_epsilon(self):
        assert delta_for_epsilon(1e-6, 4.0, 1.0, 3.0) == 1.0

    def test_nondecreasing_in_gap(self):
        deltas = [delta_for_epsilon(6.0, 4.0, 0.5, 0.5 + g)
                  for g in np.linspace(0.05, 2.5, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.01, 30.0), st.integers(1, 300), st.floats(0.05, 10.0),
           st.floats(0.01, 5.0))
    def test_nondecreasing_in_gap_on_each_side(self, theta, r_tilde, epsilon, max_gap):
        """For a fixed theta, delta grows with |theta' - theta| on either side,
        up to the truncation error of its two Marcum-Q tails, over the range
        drawn here: theta in [0.01, 30], r~ from 1 to 300, epsilon in
        [0.05, 10] and gaps up to 5. Outside it delta need not grow with the
        gap below theta (see test_can_fall_with_the_gap_below_theta), so an
        interval of roots need not peak at an end."""
        for side in (1.0, -1.0):
            reach = max_gap if side > 0 else min(max_gap, theta)
            gaps = np.linspace(0.0, reach, 401)[1:]
            d = delta_for_epsilon(epsilon, float(r_tilde), theta, theta + side * gaps)
            assert np.diff(d).min() >= -2.0 * ABS_TOL, side

    def test_can_fall_with_the_gap_below_theta(self):
        """At r~ = 1, epsilon = 16 and theta = 5, theta' = 1.5 gives a larger
        delta than theta' = 0, the wider gap below theta. Each value is the
        two tails of the formula read from scipy's noncentral chi-square."""
        def scipy_delta(epsilon, r_tilde, theta, theta_prime):
            lo, hi = sorted((theta, theta_prime))
            b_lo = epsilon / (hi - lo) - 0.5 * (hi + lo)
            b_hi = epsilon / (hi - lo) + 0.5 * (hi + lo)
            tail_lo = 1.0 if b_lo < 0 else stats.ncx2.sf(b_lo**2, r_tilde, lo**2)
            return tail_lo + stats.ncx2.sf(b_hi**2, r_tilde, lo**2)

        wide, narrow = (delta_for_epsilon(16.0, 1.0, 5.0, tp) for tp in (0.0, 1.5))
        assert wide == pytest.approx(scipy_delta(16.0, 1.0, 5.0, 0.0), rel=0, abs=1e-13)
        assert narrow == pytest.approx(scipy_delta(16.0, 1.0, 5.0, 1.5), rel=0, abs=1e-13)
        assert (round(wide, 5), round(narrow, 5)) == (0.48393, 0.57325)

    def test_symmetric_under_swap(self):
        assert delta_for_epsilon(2.0, 5.0, 0.4, 1.2) == \
            delta_for_epsilon(2.0, 5.0, 1.2, 0.4)

    def test_probabilistic_privacy_bound_holds(self):
        """MC leakage at the reference point: Pr[|L| <= eps] >= 1 - delta."""
        d = delta_for_epsilon(1.0, 3.0, 1.0, 2.0)
        p, se = mc_leakage_probability(3.0, 1.0, 2.0, 1.0, 10**7, seed=5)
        assert p >= 1.0 - d - 3 * se

    def test_bound_holds_where_informative(self):
        """A tuple with delta < 1 still satisfies the leakage inequality."""
        eps, r_tilde, th, thp = 6.0, 4.0, 0.3, 1.0
        d = delta_for_epsilon(eps, r_tilde, th, thp)
        assert 0.0 < d < 1.0
        p, se = mc_leakage_probability(r_tilde, th, thp, eps, 10**6, seed=6)
        assert p >= 1.0 - d - 3 * se

    def test_dominates_exact_divergence(self):
        """The guarantee upper-bounds the exact hockey-stick divergence
        between the two released laws, in both directions."""
        def hockey_stick(eps, dof, nc0, nc1):
            f0 = stats.ncx2(dof, nc0).pdf if nc0 > 0 else stats.chi2(dof).pdf
            f1 = stats.ncx2(dof, nc1).pdf if nc1 > 0 else stats.chi2(dof).pdf
            hi = stats.ncx2(dof, max(nc0, nc1)).ppf(1 - 1e-13)
            value, _ = integrate.quad(
                lambda q: max(0.0, f0(q) - math.exp(eps) * f1(q)), 0.0, hi, limit=800)
            return value

        tuples = [(6.0, 4.0, 0.3, 1.0), (4.0, 3.0, 0.5, 1.2), (8.0, 5.0, 1.0, 2.0),
                  (3.0, 6.0, 0.2, 0.8), (10.0, 4.0, 1.5, 3.0), (2.0, 2.0, 0.1, 0.6)]
        for eps, r_tilde, th, thp in tuples:
            formula = delta_for_epsilon(eps, r_tilde, th, thp)
            exact = max(hockey_stick(eps, r_tilde, th**2, thp**2),
                        hockey_stick(eps, r_tilde, thp**2, th**2))
            assert formula >= exact - 1e-9, (eps, r_tilde, th, thp)

    def test_array_elements_equal_scalar_calls(self):
        """Equal roots, swapped pairs and saturated lower tails included,
        with epsilon as a scalar and as a column broadcast over the pairs."""
        theta = np.array([0.5, 1.5, 2.0, 0.0, 0.3, 1.2, 4.0, 0.7])
        theta_prime = np.array([1.5, 0.5, 2.0, 0.9, 3.5, 1.25, 3.0, 0.0])
        eps_grid = (0.2, 1.5, 9.0)
        table = delta_for_epsilon(np.array(eps_grid)[:, None], 5.0, theta, theta_prime)
        assert table.shape == (len(eps_grid), theta.size)
        for eps, row in zip(eps_grid, table):
            out = delta_for_epsilon(eps, 5.0, theta, theta_prime)
            assert out.shape == theta.shape
            for k, d in enumerate(out):
                assert d == row[k] == delta_for_epsilon(eps, 5.0, float(theta[k]),
                                                        float(theta_prime[k]))
        assert out[2] == 0.0
        assert delta_for_epsilon(0.2, 5.0, 0.5, 1.5) == 1.0

    def test_scalar_theta_broadcasts(self):
        theta_prime = np.array([0.4, 1.1, 2.6])
        out = delta_for_epsilon(2.0, 4.0, 1.0, theta_prime)
        assert [float(d) for d in out] == [delta_for_epsilon(2.0, 4.0, 1.0, float(t))
                                           for t in theta_prime]

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0}, {"r_tilde": 0.0}, {"theta": -0.1}, {"theta_prime": -1.0},
        {"theta_prime": np.array([1.0, -1.0])},
        {"epsilon": np.array([1.0, 0.0])}, {"epsilon": np.array([1.0, np.nan])},
    ])
    def test_domain_errors(self, kwargs):
        base = {"epsilon": 1.0, "r_tilde": 3.0, "theta": 0.5, "theta_prime": 1.0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            delta_for_epsilon(**base)


class TestLeakage:
    def test_zero_for_identical_roots(self):
        assert leakage(2.5, 4.0, 1.3, 1.3) == 0.0

    def test_against_scipy_logpdf_oracle(self):
        q = np.linspace(0.5, 30.0, 50)
        s, th, thp = 5.0, 1.2, 2.1
        mine = leakage(q, s, th, thp)
        ref = stats.ncx2.logpdf(q, s, th**2) - stats.ncx2.logpdf(q, s, thp**2)
        np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_central_branch_against_scipy(self):
        q = np.linspace(0.5, 20.0, 30)
        s, thp = 4.0, 1.7
        mine = leakage(q, s, 0.0, thp)
        ref = stats.chi2.logpdf(q, s) - stats.ncx2.logpdf(q, s, thp**2)
        np.testing.assert_allclose(mine, ref, atol=1e-9)

    def test_central_branch_is_the_limit(self):
        q = np.array([1.0, 5.0, 12.0])
        near = leakage(q, 4.0, 1e-9, 1.5)
        exact = leakage(q, 4.0, 0.0, 1.5)
        np.testing.assert_allclose(near, exact, atol=1e-6)

    def test_monotone_decreasing_in_q(self):
        """For theta' > theta the likelihood ratio favors theta at small q."""
        q = np.linspace(0.1, 60.0, 200)
        L = leakage(q, 5.0, 0.8, 2.0)
        assert np.all(np.diff(L) < 0)

    def test_mc_probability_consistent_with_delta(self):
        eps, r_tilde, th, thp = 3.0, 5.0, 0.5, 1.4
        d = delta_for_epsilon(eps, r_tilde, th, thp)
        p, se = mc_leakage_probability(r_tilde, th, thp, eps, 10**6, seed=7)
        assert p >= 1.0 - d - 3 * se

    def test_rejects_nonpositive_query(self):
        with pytest.raises(ValueError):
            leakage(0.0, 3.0, 1.0, 2.0)

    @staticmethod
    def mpmath_leakage(q, r_tilde, theta, theta_prime):
        """log f(q | theta) - log f(q | theta') from 50-digit densities."""
        mpmath = pytest.importorskip("mpmath")

        def logpdf(th):
            k, lam, qq = mpmath.mpf(r_tilde), mpmath.mpf(th) ** 2, mpmath.mpf(q)
            return (-(qq + lam) / 2 + (k / 4 - mpmath.mpf(1) / 2) * mpmath.log(qq / lam)
                    + mpmath.log(mpmath.besseli(k / 2 - 1, mpmath.sqrt(lam * qq)) / 2))

        with mpmath.workdps(50):
            return float(logpdf(theta) - logpdf(theta_prime))

    def test_tiny_q_against_mpmath_oracle(self):
        """Below Bessel order 50 at tiny q the scaled Bessel function
        underflows; the power series keeps the leakage finite, within 1e-12
        of 50-digit densities. Each log-density is about 1.6e3 in size."""
        ref = self.mpmath_leakage(1e-14, 99.0, 2.08, 2.10)
        assert leakage(1e-14, 99.0, 2.08, 2.10) == pytest.approx(ref, rel=0, abs=1e-12)

    @pytest.mark.parametrize("q,r_tilde", [(4801.0, 4801.0), (100.0, 4801.0),
                                           (2e4, 4801.0), (1e-4, 181.0)])
    def test_large_dof_against_mpmath_oracle(self, q, r_tilde):
        """The 5000x200 rung's r~ = 4801 at its typical q, and r~ = 181 at
        q = 1e-4: finite, and within 2e-11 of 50-digit densities. Each
        log-density is about 1e4 in size, so its rounding is about 1e-12."""
        ref = self.mpmath_leakage(q, r_tilde, 2.08, 2.10)
        assert leakage(q, r_tilde, 2.08, 2.10) == pytest.approx(ref, rel=0, abs=2e-11)


ORACLE_EPSILONS = (0.5, 2.0, 8.0)


def ncx2_two_tails(epsilon_ratio_lo, epsilon_ratio_hi, r_tilde, a):
    """min(1, Q(a, b_lo) + Q(a, b_hi)) from scipy's noncentral chi-square, the
    first tail 1 where b_lo < 0."""
    def sf(b):
        return stats.ncx2.sf(b * b, r_tilde, a * a) if a > 0 else stats.chi2.sf(b * b, r_tilde)
    tail_lo = 1.0 if epsilon_ratio_lo < 0 else sf(epsilon_ratio_lo)
    return min(1.0, tail_lo + sf(epsilon_ratio_hi))


class TestDeltaScan:
    @pytest.fixture
    def instance(self, rng):
        model = random_model(rng, 10, 4)
        attack = AttackVector.sparse(10, [2], [4.0])
        return model, attack

    def test_collapsed_neighborhood_gives_zero(self, instance):
        model, attack = instance
        theta = float(np.linalg.norm(projection_matrix(model).matrix @ attack.a))
        spec = NeighborhoodSpec(delta_h_bound=1e-9, scan_count=200,
                                theta_domain=(theta, theta + 1e-9))
        result = delta_max_over_neighborhood([4.0], model, attack, 1, spec)
        assert result.delta[0] < 1e-6 and result.delta_bound[0] < 1e-6

    def test_zero_delta_names_no_neighbour(self, instance):
        """Every cell end ties at delta = 0: the argmax is theta."""
        model, attack = instance
        theta = math.sqrt(residual_law(model, None, attack.a).noncentrality)
        spec = NeighborhoodSpec(delta_h_bound=1e-6, scan_count=200,
                                theta_domain=(0.2, 0.21), grid_points=5)
        result = delta_max_over_neighborhood([4.0], model, attack, 1, spec)
        assert result.delta[0] == 0.0
        assert result.argmax_theta[0] == result.argmax_theta_prime[0] \
            == pytest.approx(theta, rel=1e-15)
        assert result.theta_lo < theta < result.theta_hi

    def test_inert_keys_change_nothing(self, instance, caplog):
        """scan_count, theta_domain and grid_points steer nothing: theta inside
        or outside theta_domain, one probe or 10^4, 2 grid points or the cap,
        every field is the same, the same on a second call, and nothing is
        logged at INFO or above. Only delta_h_bound moves the result."""
        model, attack = instance
        theta = math.sqrt(residual_law(model, None, attack.a).noncentrality)
        specs = [NeighborhoodSpec(delta_h_bound=0.1, scan_count=count, theta_domain=domain,
                                  grid_points=points)
                 for count, domain, points in [(1, (0.2, 0.3), 2),
                                               (10**4, (0.5 * theta, 2.0 * theta), 17),
                                               (50, (0.0, 1e-3), MAX_GRID_POINTS)]]
        eps = np.array([0.5, 2.0, 8.0])
        with caplog.at_level("INFO", logger="dpresidual"):
            results = [delta_max_over_neighborhood(eps, model, attack, 1, spec)
                       for spec in specs + specs[:1]]
        assert not caplog.records
        for other in results[1:]:
            for name in ("delta", "delta_bound", "argmax_theta", "argmax_theta_prime"):
                assert np.array_equal(getattr(other, name), getattr(results[0], name)), name
            assert (other.theta_lo, other.theta_hi, other.skipped) == \
                (results[0].theta_lo, results[0].theta_hi, 0)
        wider = NeighborhoodSpec(delta_h_bound=0.2, scan_count=1, theta_domain=(0.2, 0.3))
        result = delta_max_over_neighborhood(eps, model, attack, 1, wider)
        assert result.theta_lo < results[0].theta_lo and result.theta_hi > results[0].theta_hi

    @staticmethod
    def scalar_loop_oracle(epsilon, r_tilde, theta_lo, theta, theta_hi):
        """The per-cell scalar loop over the 64 cells on each side of theta:
        the formula at each cell end other than theta, below theta first, the
        first strict maximum winning and a zero delta naming theta; and each
        cell's bound from scipy's noncentral chi-square, with the root at its
        largest and both boundaries at their smallest over the cell."""
        best, bound = (0.0, theta), 0.0
        for side, edges in ((-1, np.linspace(theta_lo, theta, 65)),
                            (1, np.linspace(theta, theta_hi, 65))):
            for p, q in zip(edges[:-1].tolist(), edges[1:].tolist()):
                end = p if side < 0 else q
                d = delta_for_epsilon(epsilon, r_tilde, theta, end)
                if d > best[0]:
                    best = (d, end)
                far = theta - p if side < 0 else q - theta
                if far > 0:
                    a = q if side < 0 else theta
                    bound = max(bound, ncx2_two_tails(epsilon / far - 0.5 * (q + theta),
                                                      epsilon / far + 0.5 * (p + theta),
                                                      r_tilde, a))
        return best, bound

    @pytest.mark.parametrize("bound,domain,grid_points", [
        (0.1, (0.2, 1.5), 17),       # a narrow interval, theta outside the inert domain
        (1.0, (0.98, 1.0), 3),       # a wide interval: delta > 0 on every epsilon
        (1e-6, (0.2, 0.21), 4),      # all ties at zero
    ])
    @pytest.mark.parametrize("epsilon", ORACLE_EPSILONS)
    def test_matches_scalar_loop_oracle(self, instance, bound, domain, grid_points,
                                        epsilon):
        """The one-element call matches the oracle: delta and its argmax bit
        for bit, delta_bound to scipy's accuracy. The epsilon-array call's
        element for this epsilon equals the one-element call in every field."""
        model, attack = instance
        theta = math.sqrt(residual_law(model, None, attack.a).noncentrality)
        if domain[1] == 1.0:
            domain = (domain[0] * theta, domain[1] * theta)
        spec = NeighborhoodSpec(delta_h_bound=bound, scan_count=300,
                                theta_domain=domain, grid_points=grid_points)
        result = delta_max_over_neighborhood([epsilon], model, attack, 1, spec)
        (delta, theta_prime), delta_bound = self.scalar_loop_oracle(
            epsilon, 7.0, result.theta_lo, result.argmax_theta[0], result.theta_hi)
        assert result.argmax_theta[0] == pytest.approx(theta, rel=1e-15)
        assert (result.delta[0], result.argmax_theta_prime[0]) == (delta, theta_prime)
        assert result.delta_bound[0] == pytest.approx(delta_bound, rel=0, abs=1e-12)
        assert result.delta_bound[0] >= result.delta[0]
        if bound == 1.0:
            assert result.delta[0] > 0.0

        batch = delta_max_over_neighborhood(np.array(ORACLE_EPSILONS), model, attack, 1,
                                            spec)
        k = ORACLE_EPSILONS.index(epsilon)
        for name in ("delta", "delta_bound", "argmax_theta", "argmax_theta_prime"):
            column = getattr(batch, name)
            assert column.shape == (len(ORACLE_EPSILONS),)
            assert column[k] == getattr(result, name)[0], name
        assert (batch.theta_lo, batch.theta_hi, batch.skipped) == \
            (result.theta_lo, result.theta_hi, result.skipped) == \
            (result.theta_lo, result.theta_hi, 0)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_nonincreasing_in_epsilon(self, seed):
        """One seed fixes the neighbour set, over which delta only falls as
        the budget grows."""
        model = random_model(np.random.default_rng(seed), 8, 3)
        attack = AttackVector.sparse(8, [1, 6], [2.0, -1.5])
        spec = NeighborhoodSpec(delta_h_bound=0.5, scan_count=200,
                                theta_domain=(0.2, 1.5), grid_points=9)
        deltas = [delta_max_over_neighborhood([eps], model, attack, 1, spec).delta[0]
                  for eps in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_max_dominates_argmax_pair(self, instance):
        """delta is the formula at its argmax pair, within the interval, and
        no larger than delta_bound."""
        model, attack = instance
        spec = NeighborhoodSpec(delta_h_bound=0.5, scan_count=300,
                                theta_domain=(0.5, 1.5), grid_points=9)
        result = delta_max_over_neighborhood([5.0], model, attack, 1, spec)
        recomputed = delta_for_epsilon(5.0, 7.0, result.argmax_theta[0],
                                       result.argmax_theta_prime[0])
        assert result.delta[0] > 0.0
        assert result.delta[0] == pytest.approx(recomputed, rel=1e-12)
        assert result.theta_lo <= result.argmax_theta_prime[0] <= result.theta_hi
        assert result.delta_bound[0] >= result.delta[0]

    def test_requires_unregularized_model(self, rng):
        model = random_model(rng, 6, 3, lam=0.2)
        spec = NeighborhoodSpec(delta_h_bound=0.1, scan_count=10, theta_domain=(0.0, 1.0))
        with pytest.raises(ValueError):
            delta_max_over_neighborhood([1.0], model, None, 1, spec)

    @pytest.mark.parametrize("epsilon", [2.0, np.ones((2, 2))], ids=["0-d", "2-d"])
    def test_requires_epsilon_array(self, instance, epsilon):
        model, attack = instance
        spec = NeighborhoodSpec(delta_h_bound=0.1, scan_count=10, theta_domain=(0.0, 1.0))
        with pytest.raises(ValueError, match="epsilon must be a 1-D array"):
            delta_max_over_neighborhood(epsilon, model, attack, 1, spec)

    def test_overflowing_gram_raises(self, instance, rng):
        """A bound of 1e150 has a finite square, and on a model whose singular
        values are about 1e-10 each neighbour's beta = ||dh V / s||^2
        overflows: neighbor_roots raises NumericError, with no RuntimeWarning,
        instead of flagging every neighbour singular. The delta path itself
        forms no Gram."""
        model, attack = instance
        tiny = MeasurementModel(H=1e-10 * model.H, sigma=1.0)
        rows = rng.integers(10, size=50)
        deltas = rng.normal(size=(50, 4))
        deltas *= (1e150 / np.linalg.norm(deltas, axis=1))[:, None]
        with pytest.raises(NumericError, match="50 of 50 neighbour Grams overflow"):
            neighbor_roots(tiny, attack.a, rows, deltas)

    def test_singular_neighbour_lies_in_the_interval(self):
        """H = [[1], [0]] with a = [3, 2] and bound 1: theta = 2 and x_hat = 3.
        Shifting row 0 by -1 zeroes H', whose root is ||a|| = sqrt(13);
        shifting row 1 by 2/3 puts a in col(H'), root 0. The upper
        end is row 1's weak-duality bound at x_hat, (2 + 1 * 3) = 5. The
        singular neighbour is inside the interval, nothing is skipped, and
        delta_bound is at least that neighbour's own delta."""
        model = MeasurementModel(H=np.array([[1.0], [0.0]]), sigma=1.0)
        attack = AttackVector(np.array([3.0, 2.0]))
        spec = NeighborhoodSpec(delta_h_bound=1.0, scan_count=64,
                                theta_domain=(0.0, 1e-3), grid_points=2)
        result = delta_max_over_neighborhood([2.0], model, attack, 1, spec)
        assert result.skipped == 0
        assert result.theta_hi == pytest.approx(5.0, rel=1e-15)
        assert result.theta_lo == 0.0
        singular = delta_for_epsilon(2.0, 2.0, 2.0, math.sqrt(13.0))
        assert 0.0 < singular <= result.delta_bound[0]
        assert 0.0 < result.delta[0] <= result.delta_bound[0]
        assert result.theta_lo <= result.argmax_theta_prime[0] <= result.theta_hi

    def test_can_fall_with_the_gap_below_theta(self):
        """At r~ = 1, epsilon = 16 and theta = 5, delta peaks at theta' = 1.72
        inside [0, 5], not at an end: the dense maximum is 0.580625 against
        0.48393 at theta' = 0. The cell ends reach it to 1e-5, and the cell
        bound covers it."""
        delta, theta_prime, bound = _delta_over_interval(np.array([16.0]), 1.0, 0.0, 5.0, 5.0)
        dense = delta_for_epsilon(16.0, 1.0, 5.0, np.linspace(0.0, 5.0, 4001))
        assert round(float(dense.max()), 6) == 0.580625
        assert delta[0] >= 0.5806 and bound[0] >= dense.max()
        assert 0.0 < theta_prime[0] < 5.0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.01, 30.0), st.floats(0.0, 1.0), st.floats(0.0, 10.0),
           st.integers(1, 300), st.floats(0.05, 40.0))
    def test_cell_bound_covers_the_interval(self, theta, below, above, r_tilde, epsilon):
        """delta_bound is at least the formula at 4,001 dense theta' on each
        side of theta, up to the rounding of a sum of two tails near 1, and
        delta is the formula at a cell end, so no more than delta_bound."""
        theta_lo, theta_hi = theta * (1.0 - below), theta + above
        delta, theta_prime, bound = _delta_over_interval(
            np.array([epsilon]), float(r_tilde), theta_lo, theta, theta_hi)
        for side in (np.linspace(theta_lo, theta, 4001), np.linspace(theta, theta_hi, 4001)):
            dense = delta_for_epsilon(epsilon, float(r_tilde), theta, side)
            assert dense.max() <= bound[0] + 1e-14
        assert delta[0] <= bound[0] <= 1.0
        assert theta_lo <= theta_prime[0] <= theta_hi

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NeighborhoodSpec(delta_h_bound=0.0, scan_count=10, theta_domain=(0.0, 1.0))
        with pytest.raises(ValueError):
            NeighborhoodSpec(delta_h_bound=1.0, scan_count=0, theta_domain=(0.0, 1.0))
        with pytest.raises(ValueError):
            NeighborhoodSpec(delta_h_bound=1.0, scan_count=10, theta_domain=(1.0, 0.5))
        # G grid points make G (G - 1) / 2 pairs, 523,776 at the cap.
        NeighborhoodSpec(delta_h_bound=1.0, scan_count=10, theta_domain=(0.0, 1.0),
                         grid_points=MAX_GRID_POINTS)
        with pytest.raises(ValueError, match=r"grid_points must be in \[2, 1024\]"):
            NeighborhoodSpec(delta_h_bound=1.0, scan_count=10, theta_domain=(0.0, 1.0),
                             grid_points=MAX_GRID_POINTS + 1)

    @pytest.mark.parametrize("bound,domain", [
        (math.inf, (0.2, 1.5)), (math.nan, (0.2, 1.5)),
        (0.1, (0.2, math.inf)), (0.1, (math.nan, 1.5)),
        (1e200, (0.2, 1.5)), (1e-200, (0.2, 1.5)),
    ])
    def test_spec_rejects_nonfinite(self, bound, domain):
        """An infinite bound used to skip every probe with a numpy warning, and
        an infinite domain end to fail later inside the grid. A bound whose
        square overflows or underflows is refused with them."""
        with pytest.raises(ValueError, match="delta_h_bound|theta_domain"):
            NeighborhoodSpec(delta_h_bound=bound, scan_count=10, theta_domain=domain)


class TestNeighborRoots:
    """The batched Woodbury roots against a fresh SVD of each neighbour."""

    @staticmethod
    def probes(rng, model, count, bound):
        rows = rng.integers(model.m, size=count)
        deltas = rng.normal(size=(count, model.n))
        deltas *= (bound / np.linalg.norm(deltas, axis=1))[:, None]
        return rows, deltas

    @staticmethod
    def oracle(model, a, rows, deltas):
        return np.array([
            np.linalg.norm(projection_matrix(apply_neighbor(
                model, NeighborPerturbation(int(i), dh))).matrix @ a)
            for i, dh in zip(rows, deltas)]) / model.sigma

    @pytest.mark.parametrize("in_col_h", [False, True])
    @pytest.mark.parametrize("m,n,bound", [(40, 6, 0.1), (12, 4, 1.5), (7, 6, 0.5)])
    def test_matches_projector_update(self, rng, m, n, bound, in_col_h):
        model = random_model(rng, m, n, sigma=0.8)
        if in_col_h:  # mostly in col(H): ||P a|| is small against ||a||
            a = model.H @ rng.normal(size=n) + 1e-3 * rng.normal(size=m)
        else:
            a = AttackVector.sparse(m, [1, m - 2], [2.0, -1.5]).a
        rows, deltas = self.probes(rng, model, 60, bound)
        roots = neighbor_roots(model, a, rows, deltas)
        np.testing.assert_allclose(roots, self.oracle(model, a, rows, deltas),
                                   rtol=1e-9, atol=0)

    def test_square_model_roots_vanish(self, rng):
        model = random_model(rng, 5, 5)
        rows, deltas = self.probes(rng, model, 40, 0.3)
        roots = neighbor_roots(model, rng.normal(size=5), rows, deltas)
        assert np.all(roots <= 1e-12)

    def test_requires_unregularized_model(self, rng):
        model = random_model(rng, 6, 3, lam=0.2)
        with pytest.raises(ValueError):
            neighbor_roots(model, None, [0], np.ones((1, 3)))

    @pytest.mark.parametrize("rows,shape", [([-1], (1, 3)), ([6], (1, 3)),
                                            ([0, 1], (1, 3)), ([0], (1, 2))])
    def test_rejects_bad_probes(self, rng, rows, shape):
        model = random_model(rng, 6, 3)
        with pytest.raises(ValueError):
            neighbor_roots(model, None, rows, np.ones(shape))

    @pytest.mark.parametrize("bound", [1e-2, 1.0, 1e2, 1e4])
    def test_agrees_with_qr_up_to_1e4(self, bound):
        """On the demo model (singular values 2.9 to 6.6) the roots agree with
        a Householder QR of each H' to 1e-10 relative for shifts up to 1e4;
        the docstring records where that accuracy ends."""
        model, attack = demo_instance()
        rng = np.random.default_rng(31)
        rows, deltas = self.probes(rng, model, 200, bound)
        np.testing.assert_allclose(neighbor_roots(model, attack.a, rows, deltas),
                                   qr_roots(model, attack.a, rows, deltas),
                                   rtol=1e-10, atol=0)

    @pytest.mark.parametrize("bound", [1e6, 1e20, 1e100, 1e150])
    def test_exact_at_any_shift(self, bound):
        """No term of the closed form grows with the shift: on the demo the
        roots are finite (RuntimeWarning is an error here) and within 1e-13
        relative of a normal-equations solve at 2 log10(B) + 40 digits. The
        float QR oracle's own error grows with the shift (4e-12 at 1e6)."""
        mpmath = pytest.importorskip("mpmath")
        model, attack = demo_instance()
        rows, deltas = self.probes(np.random.default_rng(37), model, 8, bound)
        got = neighbor_roots(model, attack.a, rows, deltas)
        assert np.isfinite(got).all()
        with mpmath.workdps(int(2 * math.log10(bound)) + 40):
            want = []
            for i, dh in zip(rows, deltas):
                h = mpmath.matrix(model.H.tolist())
                for j in range(model.n):
                    h[int(i), j] += dh[j]
                a = mpmath.matrix(attack.a.tolist())
                r = a - h * mpmath.lu_solve(h.T * h, h.T * a)
                want.append(float(mpmath.norm(r)) / model.sigma)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_large_bound_flags_no_false_singularity(self):
        """det K = (1 + gamma)^2 + beta (1 - lev) has no cancellation: at a
        bound of 1e20 no demo probe is flagged singular (k11 k22 - k12 k21
        flagged 999 of 1000)."""
        model, attack = demo_instance()
        rows, deltas = self.probes(np.random.default_rng(5), model, 1000, 1e20)
        assert not np.isnan(neighbor_roots(model, attack.a, rows, deltas)).any()

    def test_exact_singularity_still_flagged(self):
        """H = [[1], [0]] with row 0 shifted by -1 is H' = 0: still singular."""
        model = MeasurementModel(H=np.array([[1.0], [0.0]]), sigma=1.0)
        roots = neighbor_roots(model, np.array([3.0, 2.0]), [0, 0, 1],
                               np.array([[-1.0], [1.0], [-1.0]]))
        assert np.isnan(roots[0]) and not np.isnan(roots[1:]).any()
        with pytest.raises(SingularUpdateError, match="numerically singular"):
            neighbor_projection_update(model, NeighborPerturbation(0, np.array([-1.0])))


def demo_instance():
    """The demo config's model and attack at seed 3."""
    config = load_config(DEMO)
    model = build_model(config.model, derive_streams(3)[STREAM_MATRIX])
    return model, build_attack(config.attack, model)


def qr_roots(model, a, rows, deltas):
    """||P' a|| / sigma for each neighbour from a Householder QR of its H'."""
    H_prime = np.repeat(model.H[None], len(rows), axis=0)
    H_prime[np.arange(len(rows)), rows] += deltas
    q, _ = np.linalg.qr(H_prime)
    residual = a - np.einsum("kij,kj->ki", q, np.einsum("kij,i->kj", q, a))
    return np.linalg.norm(residual, axis=1) / model.sigma


def row_dual(model, a, bound):
    """(dual, s_min^2): row i's S-lemma dual ``dual(t, i)`` at the multiplier
    t = mu B^2 in [0, s_min^2). Written out per row from the model's SVD,
    independently of the package."""
    u, s, _ = np.linalg.svd(model.H, full_matrices=False)
    c = u.T @ a
    pa = a - u @ c

    def dual(t, i):
        k = t / (s * s - t)
        curv = 1.0 - u[i] @ u[i] + t / bound**2 - np.sum(k * u[i] ** 2)
        if not curv > 0:
            return -1e300
        b = pa[i] - np.sum(k * u[i] * c)
        return pa @ pa - np.sum(k * c * c) - b * b / curv

    return dual, s[-1] ** 2


def row_dual_maximum(model, a, bound):
    """Each row's S-lemma dual, maximized by scipy's bounded scalar search
    over the multiplier t = mu B^2 in [0, s_min^2), then the smallest row."""
    dual, top = row_dual(model, a, bound)
    best = []
    for i in range(model.m):
        found = optimize.minimize_scalar(lambda t: -dual(t, i), bounds=(0.0, top * (1 - 1e-12)),
                                         method="bounded",
                                         options={"xatol": 1e-14 * top, "maxiter": 2000})
        best.append(max(dual(0.0, i), -found.fun))
    return math.sqrt(max(min(best), 0.0)) / model.sigma


class TestNeighborRootInterval:
    """Every neighbour's root lies in [theta_lo, theta_hi] (weak duality and the S-lemma)."""

    @staticmethod
    def instance(seed):
        """A random model with m <= 30, attack and bound B in [1e-3, 3 s_min]."""
        gen = np.random.default_rng(seed)
        m = int(gen.integers(2, 31))
        n = int(gen.integers(1, m + 1))
        model = MeasurementModel(H=gen.normal(size=(m, n)) * gen.choice([0.01, 1.0, 10.0]),
                                 sigma=float(gen.choice([0.5, 1.0, 2.0])))
        a = gen.normal(size=m) * gen.choice([0.1, 1.0, 10.0])
        s_min = model.factor.s[-1]
        assume(3.0 * s_min > 1e-3)
        bound = float(np.exp(gen.uniform(math.log(1e-3), math.log(3.0 * s_min))))
        return gen, model, a, bound

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_contains_every_probe_root(self, seed):
        """theta_lo <= every root <= theta_hi to 1e-9 relative, over 200 random
        probes and the 2m first-order candidates (each row shifted by
        +-B x_hat / ||x_hat||), each root from a QR of its H'."""
        gen, model, a, bound = self.instance(seed)
        theta_lo, theta, theta_hi = neighbor_root_interval(model, a, bound)
        rows = gen.integers(model.m, size=200)
        deltas = gen.normal(size=(200, model.n))
        deltas *= (bound / np.linalg.norm(deltas, axis=1))[:, None]
        x_hat = np.linalg.lstsq(model.H, a, rcond=None)[0]
        step = bound * x_hat / np.linalg.norm(x_hat)
        rows = np.concatenate([rows, np.repeat(np.arange(model.m), 2)])
        deltas = np.concatenate([deltas, np.tile([step, -step], (model.m, 1))])
        roots = qr_roots(model, a, rows, deltas)
        assert theta_lo * (1 - 1e-9) <= roots.min()
        assert roots.max() <= theta_hi * (1 + 1e-9)
        assert theta_lo <= theta <= theta_hi
        unshifted, = qr_roots(model, a, [0], [np.zeros(model.n)])
        assert theta == pytest.approx(unshifted, rel=1e-12,
                                      abs=1e-12 * np.linalg.norm(a) / model.sigma)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lower_end_is_the_dual_maximum(self, seed):
        """theta_lo is within 1e-6 relative below the per-row scipy maximum of
        the same dual and never more than 1e-12 above it. The dual is a
        difference of terms of size theta^2 and rounds at about 1e-15
        theta^2, so roots below about 1e-7 theta are compared to that floor."""
        _, model, a, bound = self.instance(seed)
        assume(model.m > model.n)
        theta_lo, theta, _ = neighbor_root_interval(model, a, bound)
        reference = row_dual_maximum(model, a, bound)
        floor = 1e-7 * theta
        assert theta_lo >= reference * (1 - 1e-6) - floor
        assert theta_lo <= reference * (1 + 1e-12) + floor

    def test_demo_interval(self):
        """The demo at seed 3, B = 0.1: theta_lo is the S-lemma optimum of
        row 11, and theta_hi is loose by 1.1e-4 against that row's exact
        upper optimum, 1.71125968."""
        model, attack = demo_instance()
        theta_lo, theta, theta_hi = neighbor_root_interval(model, attack, 0.1)
        assert 1.6643892 <= theta_lo <= 1.6643909
        assert theta == pytest.approx(1.687643613947003, rel=1e-15)
        assert 1.71125968 <= theta_hi <= 1.7114

    @pytest.mark.parametrize("bound", [1e-9, 1e-12])
    def test_small_bound_gap_is_the_dual_maximum(self, bound):
        """At small B a row's best multiplier t is of order B, far below the
        shared run's 1e-6 s_min^2 (where theta - theta_lo stalled at 1.2e-8).
        The gap is within 1 % of the per-row scipy maximum of the same dual,
        searched in log t."""
        model, attack = demo_instance()
        theta_lo, theta, _ = neighbor_root_interval(model, attack, bound)
        dual, top = row_dual(model, attack.a, bound)
        logs = np.linspace(math.log(1e-40 * top), math.log(top * (1 - 1e-12)), 400)
        best = []
        for i in range(model.m):
            at = int(np.argmax([dual(math.exp(v), i) for v in logs]))
            found = optimize.minimize_scalar(
                lambda v: -dual(math.exp(v), i), method="bounded",
                bounds=(logs[max(at - 1, 0)], logs[min(at + 1, logs.size - 1)]),
                options={"xatol": 1e-12})
            best.append(max(dual(0.0, i), -found.fun))
        reference = math.sqrt(min(best)) / model.sigma
        assert theta - theta_lo == pytest.approx(theta - reference, rel=0.01)

    def test_tiny_bound_collapses_without_warning(self):
        """At B = 1e-154 the multiplier's mu = t / B^2 overflows; that only
        zeroes its term (RuntimeWarning is an error here)."""
        model, attack = demo_instance()
        theta_lo, theta, theta_hi = neighbor_root_interval(model, attack, 1e-154)
        assert theta_lo <= theta <= theta_hi
        assert theta_lo == pytest.approx(theta, rel=1e-7)
        assert theta_hi == pytest.approx(theta, rel=1e-15)

    @pytest.mark.parametrize("power", [-266, 266, 498])
    def test_scale_free(self, power):
        """Scaling H and B by 2^power leaves every root unchanged, and the
        interval follows to 1e-12 with no RuntimeWarning, where s^2 / (s^2 -
        t)^2 at H's own scale would overflow or underflow."""
        model, attack = demo_instance()
        scaled = MeasurementModel(H=2.0**power * model.H, sigma=model.sigma)
        np.testing.assert_allclose(neighbor_root_interval(scaled, attack, 0.1 * 2.0**power),
                                   neighbor_root_interval(model, attack, 0.1), rtol=1e-12)

    def test_overflowing_end_raises(self):
        """B ||x_hat|| past 1.3e154 while B^2 is finite: theta_hi is not a
        double, and NumericError names the interval."""
        model, _ = demo_instance()
        attack = AttackVector.sparse(model.m, [3, 11], [2.0e4, -1.5e4])
        with pytest.raises(NumericError, match="neighbour root interval"):
            neighbor_root_interval(model, attack, 1e154)

    def test_requires_unregularized_model(self, rng):
        model = random_model(rng, 6, 3, lam=0.2)
        with pytest.raises(ValueError, match="lambda = 0"):
            neighbor_root_interval(model, None, 0.1)


# ---------------------------------------------------------------------------
# Gaussian output mechanism
# ---------------------------------------------------------------------------

class TestGaussianOutputRelease:
    def test_vanishing_noise_returns_query(self, stream):
        law = ResidualLaw.gaussian(mean=10.0, variance=1.0)
        release = output_release(law, 9.7, PrivacyParams.gaussian_output(0.0, 1e-12), stream)
        assert release.value == pytest.approx(9.7, abs=1e-9)

    def test_release_law(self, stream):
        law = ResidualLaw.gaussian(mean=10.0, variance=1.0)
        release = output_release(law, 9.7, PrivacyParams.gaussian_output(0.5, 2.0), stream)
        assert release.law.mean == pytest.approx(10.5)
        assert release.law.variance == pytest.approx(5.0)

    def test_variance_additivity(self, stream):
        law = ResidualLaw.gaussian(mean=10.0, variance=1.0)
        n = 10**6
        gen = stream.generator
        q = gen.normal(10.0, 1.0, size=n)
        released = q + gen.normal(0.0, 2.0, size=n)
        target = 1.0 + 4.0
        se = target * math.sqrt(2.0 / n)
        assert released.var() == pytest.approx(target, abs=3 * se)


class TestGaussianLeakageProbability:
    @pytest.mark.parametrize("mu0,v0,mu1,v1,eps", [
        (10.0, 1.0, 13.0, 16.0, 2.0),
        (10.0, 4.0, 10.5, 4.0, 1.0),    # equal variances: linear leakage
        (5.0, 9.0, 4.0, 1.0, 0.7),      # wider null law
        (0.0, 1.0, 0.0, 2.0, 0.4),      # equal means
    ])
    def test_against_monte_carlo(self, mu0, v0, mu1, v1, eps):
        law0 = ResidualLaw.gaussian(mu0, v0)
        law1 = ResidualLaw.gaussian(mu1, v1)
        exact = gaussian_leakage_probability(law0, law1, 0.0, eps)
        gen = np.random.default_rng(12)
        n = 10**6
        p_both = []
        for mu, v in ((mu0, v0), (mu1, v1)):
            u = gen.normal(mu, math.sqrt(v), size=n)
            L = stats.norm.logpdf(u, mu0, math.sqrt(v0)) \
                - stats.norm.logpdf(u, mu1, math.sqrt(v1))
            p_both.append(np.mean(np.abs(L) <= eps))
        mc = min(p_both)
        assert exact == pytest.approx(mc, abs=4 * math.sqrt(0.25 / n) + 1e-4)

    def test_noise_drives_probability_to_one(self):
        law0 = ResidualLaw.gaussian(10.0, 1.0)
        law1 = ResidualLaw.gaussian(13.0, 16.0)
        small = gaussian_leakage_probability(law0, law1, 0.1, 1.0)
        large = gaussian_leakage_probability(law0, law1, 500.0, 1.0)
        assert large > small
        assert large > 0.999


class TestGaussianLeakageOracle:
    """The sorted-roots event against ``roots_leakage_probability``.

    a is the leakage's quadratic coefficient 1/(2 s1^2) - 1/(2 s0^2).
    """

    @pytest.mark.parametrize("mu0,v0,mu1,v1,nu_sigma,eps", [
        (10.0, 4.0, 10.5, 4.0, 0.0, 1.0),     # equal variances, no noise
        (10.0, 4.0, 10.5, 4.0, 1.5, 0.2),     # equal variances
        (0.0, 1.0, 0.0, 2.0, 0.0, 0.4),       # equal means, a < 0
        (0.0, 2.0, 0.0, 1.0, 0.3, 0.4),       # equal means, a > 0
        (5.0, 9.0, 4.0, 1.0, 0.0, 0.7),       # a > 0, four roots
        (4.0, 1.0, 5.0, 9.0, 0.0, 0.7),       # a < 0, four roots
        (10.0, 1.0, 13.0, 16.0, 0.5, 2.0),    # a < 0, two roots
        (-3.0, 0.5, 8.0, 0.2, 0.0, 0.05),     # far apart: mass near 0, four roots
    ])
    def test_degenerate_cases(self, mu0, v0, mu1, v1, nu_sigma, eps):
        law0, law1 = ResidualLaw.gaussian(mu0, v0), ResidualLaw.gaussian(mu1, v1)
        mine = gaussian_leakage_probability(law0, law1, nu_sigma, eps)
        ref = roots_leakage_probability(mu0, v0, mu1, v1, nu_sigma, eps)
        assert mine == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("nu_sigma", [0.0, 0.7])
    def test_identical_laws(self, nu_sigma):
        law = ResidualLaw.gaussian(3.0, 2.0)
        assert gaussian_leakage_probability(law, law, nu_sigma, 0.1) == 1.0
        assert roots_leakage_probability(3.0, 2.0, 3.0, 2.0, nu_sigma, 0.1) == 1.0

    @pytest.mark.parametrize("nu_sigma,eps", [(math.nan, 1.0), (-0.1, 1.0),
                                              (1.0, 0.0), (1.0, -1.0), (1.0, math.nan)])
    def test_rejects_bad_knobs(self, nu_sigma, eps):
        """A negative epsilon used to give 0.0 and a NaN nu_sigma 0.0, silently."""
        law0, law1 = ResidualLaw.gaussian(0.0, 1.0), ResidualLaw.gaussian(1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_leakage_probability(law0, law1, nu_sigma, eps)

    def test_random_tuples(self):
        gen = np.random.default_rng(2018)
        for k in range(400):
            mu0, mu1 = gen.uniform(-20.0, 20.0, size=2)
            v0, v1 = 10.0 ** gen.uniform(-2.0, 2.0, size=2)
            nu_sigma = 0.0 if k % 5 == 0 else 10.0 ** gen.uniform(-3.0, 1.5)
            eps = 10.0 ** gen.uniform(-2.0, 1.0)
            if k % 5 == 1:
                v1 = v0
            elif k % 5 == 2:
                mu1 = mu0
            law0, law1 = ResidualLaw.gaussian(mu0, v0), ResidualLaw.gaussian(mu1, v1)
            mine = gaussian_leakage_probability(law0, law1, nu_sigma, eps)
            ref = roots_leakage_probability(mu0, v0, mu1, v1, nu_sigma, eps)
            assert mine == pytest.approx(ref, abs=1e-9), (mu0, v0, mu1, v1, nu_sigma, eps)


class TestGaussianCalibration:
    def test_calibrated_scale_passes_mc_leakage(self):
        """MC check of the probabilistic privacy condition at the calibrated scale."""
        law = ResidualLaw.gaussian(10.0, 1.0)
        neighbor = ResidualLaw.gaussian(10.8, 1.5)
        eps, delta = 1.0, 0.1
        nu_sigma = calibrate_gaussian_output_sigma(law, neighbor, eps, delta)
        assert nu_sigma > 0
        gen = np.random.default_rng(3)
        n = 10**6
        s0 = math.sqrt(law.variance + nu_sigma**2)
        s1 = math.sqrt(neighbor.variance + nu_sigma**2)
        worst = 1.0
        for mu, s in ((law.mean, s0), (neighbor.mean, s1)):
            u = gen.normal(mu, s, size=n)
            L = stats.norm.logpdf(u, law.mean, s0) - stats.norm.logpdf(u, neighbor.mean, s1)
            worst = min(worst, float(np.mean(np.abs(L) <= eps)))
        se = math.sqrt(0.25 / n)
        assert worst >= 1.0 - delta - 3 * se

    def test_smaller_scale_fails(self):
        law = ResidualLaw.gaussian(10.0, 1.0)
        neighbor = ResidualLaw.gaussian(10.8, 1.5)
        eps, delta = 1.0, 0.1
        nu_sigma = calibrate_gaussian_output_sigma(law, neighbor, eps, delta)
        assert gaussian_leakage_probability(law, neighbor, 0.5 * nu_sigma, eps) \
            < 1.0 - delta + 1e-3

    def test_identical_laws_need_no_noise(self):
        law = ResidualLaw.gaussian(10.0, 1.0)
        assert calibrate_gaussian_output_sigma(law, law, 1.0, 0.1) == 0.0


GAUSSIAN_PAIRS = dict(mu0=st.floats(-20.0, 20.0), v0=st.floats(0.01, 100.0),
                      mu1=st.floats(-20.0, 20.0), v1=st.floats(0.01, 100.0),
                      eps=st.floats(0.05, 5.0))


class TestGaussianCalibrationProperties:
    """What the calibration's doubling and bisection rely on."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(**GAUSSIAN_PAIRS, nu_a=st.floats(0.0, 50.0), nu_b=st.floats(0.0, 50.0))
    def test_probability_nondecreasing_in_nu_sigma(self, mu0, v0, mu1, v1, eps, nu_a, nu_b):
        law0, law1 = ResidualLaw.gaussian(mu0, v0), ResidualLaw.gaussian(mu1, v1)
        lo, hi = sorted((nu_a, nu_b))
        assert gaussian_leakage_probability(law0, law1, lo, eps) \
            <= gaussian_leakage_probability(law0, law1, hi, eps)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(**GAUSSIAN_PAIRS, delta=st.floats(0.01, 0.5))
    def test_calibrated_scale_is_tight(self, mu0, v0, mu1, v1, eps, delta):
        law0, law1 = ResidualLaw.gaussian(mu0, v0), ResidualLaw.gaussian(mu1, v1)
        nu_sigma = calibrate_gaussian_output_sigma(law0, law1, eps, delta)
        target = 1.0 - delta + _CALIBRATION_MARGIN
        assert gaussian_leakage_probability(law0, law1, nu_sigma, eps) >= target
        if nu_sigma > 0:
            smaller = nu_sigma * (1.0 - 2.0 * _CALIBRATION_REL_TOL)
            assert gaussian_leakage_probability(law0, law1, smaller, eps) < target


# ---------------------------------------------------------------------------
# Input perturbation baseline
# ---------------------------------------------------------------------------

class TestInputPerturbation:
    def test_huge_budget_vanishing_noise(self, rng, stream):
        model = random_model(rng, 5, 2)
        z = rng.normal(size=5)
        result = input_perturbation_release(model, z, 1e9, 0.1, stream)
        np.testing.assert_allclose(result.z_tilde, z, atol=1e-6)
        assert result.sigma_w < 1e-7

    def test_scale_against_hockey_stick_oracle(self):
        """The classic scale satisfies the (eps, delta) tail condition."""
        eps_o, delta = 1.0, 0.1
        sigma_w = gaussian_mechanism_sigma(1.0, eps_o, delta)
        assert sigma_w == pytest.approx(math.sqrt(2 * math.log(1.25 / delta)), rel=1e-12)
        assert hockey_stick_delta(sigma_w, 1.0, eps_o) <= delta

    def test_per_element_budget_and_k(self, rng, stream):
        model = random_model(rng, 8, 3, sigma=0.5)
        z = rng.normal(size=8)
        result = input_perturbation_release(model, z, 4.0, 0.1, stream)
        assert result.epsilon_per_element == pytest.approx(0.5)
        assert result.k == pytest.approx(result.sigma_w**2 / 0.25)
        assert result.params.mechanism is Mechanism.GAUSSIAN_INPUT

    def test_noise_matches_release(self, rng, stream):
        """The (sigma_w, k) calibration is the one the release records."""
        model = random_model(rng, 8, 3, sigma=0.5)
        result = input_perturbation_release(model, np.zeros(8), 4.0, 0.1, stream)
        assert input_perturbation_noise(8, 0.5, 4.0, 0.1) == (result.sigma_w, result.k)
        sigma_w = gaussian_mechanism_sigma(1.0, 4.0 / 8, 0.1)
        assert input_perturbation_noise(8, 1.0, 4.0, 0.1) == (sigma_w, sigma_w**2)

    def test_output_beats_input_at_matched_budget(self, rng):
        """At equal total budget, perturbing the release preserves more
        detection power than perturbing every measurement."""
        m, n, nc = 20, 5, 10.0
        r = float(m - n)
        law0 = ResidualLaw.gaussian(r, 2 * r)
        law1 = ResidualLaw.gaussian(r + nc, 2 * r + 4 * nc)
        # worst neighbor at a modest row-perturbation bound
        neighbor = ResidualLaw.gaussian(r + 0.5, 2 * r + 1.0)
        delta = 0.1
        for eps in (5.0, 10.0, 20.0):
            nu_sigma = calibrate_gaussian_output_sigma(law0, neighbor, eps, delta)
            dp = PrivacyParams.gaussian_output(nu_mean=0.0, nu_sigma=max(nu_sigma, 1e-9),
                                               epsilon=eps, delta=delta)
            auroc_out = roc(TestSpec(alpha=0.05, law0=law0, law1=law1, dp=dp)).auroc
            sigma_w = gaussian_mechanism_sigma(1.0, eps / m, delta)
            k = sigma_w**2
            in_spec = TestSpec(alpha=0.05,
                               law0=ResidualLaw.chi_square(r, 0.0),
                               law1=ResidualLaw.chi_square(r, nc / (1.0 + k)))
            auroc_in = roc(in_spec).auroc
            assert auroc_in <= auroc_out + 0.02

    @pytest.mark.parametrize("m,sigma,epsilon", [
        (20, 1.0, 1e-300),    # sigma_w**2 overflows
        (20, 1e-100, 1e-100),  # sigma_w**2 is finite, k is not
        (20, 1.0, 5e-324),    # epsilon / m underflows to 0
    ])
    def test_overflowing_noise_raises(self, m, sigma, epsilon):
        with pytest.raises(NumericError, match="overflows"):
            input_perturbation_noise(m, sigma, epsilon, 0.1)

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (1.0, 0.0), (1.0, 1.0)])
    def test_domain_errors(self, rng, stream, eps, delta):
        model = random_model(rng, 4, 2)
        with pytest.raises(ValueError):
            input_perturbation_release(model, np.zeros(4), eps, delta, stream)

