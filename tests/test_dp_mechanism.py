"""Privacy mechanisms: releases, the delta guarantee, and leakage checks.

Monte Carlo oracles sample the exact released laws and evaluate the
leakage directly; the Gaussian-mechanism calibration is checked against a
quadrature oracle of the hockey-stick divergence.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from dpresidual import (
    AttackVector,
    Mechanism,
    NeighborhoodSpec,
    PrivacyParams,
    ResidualLaw,
    SeedStream,
    TestSpec,
    calibrate_gaussian_output_sigma,
    chi_square_release,
    delta_for_epsilon,
    delta_max_over_neighborhood,
    gaussian_leakage_probability,
    gaussian_mechanism_sigma,
    gaussian_output_release,
    input_perturbation_release,
    leakage,
    noncentral_chisq_sample,
    projection_matrix,
    roc,
)
from conftest import random_model


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


# ---------------------------------------------------------------------------
# Privacy parameter records
# ---------------------------------------------------------------------------

class TestPrivacyParams:
    def test_chi_square_fields(self):
        p = PrivacyParams.chi_square(r_prime=2, epsilon=1.0, delta=0.1)
        assert p.mechanism is Mechanism.CHI_SQUARE
        assert p.r_prime == 2

    def test_exactly_selected_fields_required(self):
        with pytest.raises(ValueError, match="requires r_prime"):
            PrivacyParams(mechanism=Mechanism.CHI_SQUARE)
        with pytest.raises(ValueError, match="not a parameter"):
            PrivacyParams(mechanism=Mechanism.CHI_SQUARE, r_prime=1, nu_sigma=1.0)
        with pytest.raises(ValueError, match="requires nu_mean"):
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

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0}, {"r_tilde": 0.0}, {"theta": -0.1}, {"theta_prime": -1.0},
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
        result = delta_max_over_neighborhood(4.0, model, attack, 1, spec, SeedStream(1))
        assert result.delta < 1e-6

    def test_max_dominates_argmax_pair(self, instance):
        model, attack = instance
        spec = NeighborhoodSpec(delta_h_bound=0.1, scan_count=300,
                                theta_domain=(0.5, 1.5), grid_points=9)
        result = delta_max_over_neighborhood(5.0, model, attack, 1, spec, SeedStream(2))
        recomputed = delta_for_epsilon(5.0, 7.0, result.argmax_theta,
                                       result.argmax_theta_prime)
        assert result.delta == pytest.approx(recomputed, rel=1e-12)
        assert result.delta >= result.scan_max - 1e-15
        assert result.delta >= result.grid_max - 1e-15

    def test_scan_stability_across_seeds(self, instance):
        """Two independent 10^4-perturbation scans agree within 5 percent."""
        model, attack = instance
        spec = NeighborhoodSpec(delta_h_bound=0.1, scan_count=10**4,
                                theta_domain=(0.5, 0.51), grid_points=2)
        r1 = delta_max_over_neighborhood(8.0, model, attack, 1, spec, SeedStream(100))
        r2 = delta_max_over_neighborhood(8.0, model, attack, 1, spec, SeedStream(200))
        assert r1.scan_max == pytest.approx(r2.scan_max, rel=0.05)

    def test_requires_unregularized_model(self, rng):
        model = random_model(rng, 6, 3, lam=0.2)
        spec = NeighborhoodSpec(delta_h_bound=0.1, scan_count=10, theta_domain=(0.0, 1.0))
        with pytest.raises(ValueError):
            delta_max_over_neighborhood(1.0, model, None, 1, spec, SeedStream(0))

    def test_parallel_scan_is_deterministic(self, instance):
        model, attack = instance
        spec = NeighborhoodSpec(delta_h_bound=0.1, scan_count=400,
                                theta_domain=(0.5, 0.51), grid_points=2)
        a = delta_max_over_neighborhood(8.0, model, attack, 1, spec,
                                        SeedStream(44), workers=2)
        b = delta_max_over_neighborhood(8.0, model, attack, 1, spec,
                                        SeedStream(44), workers=2)
        assert a.delta == b.delta
        assert a.scan_max == b.scan_max

    def test_parallel_scan_requires_stream(self, instance, rng):
        model, attack = instance
        spec = NeighborhoodSpec(delta_h_bound=0.1, scan_count=10,
                                theta_domain=(0.5, 0.51), grid_points=2)
        with pytest.raises(TypeError):
            delta_max_over_neighborhood(1.0, model, attack, 1, spec, rng, workers=2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NeighborhoodSpec(delta_h_bound=0.0, scan_count=10, theta_domain=(0.0, 1.0))
        with pytest.raises(ValueError):
            NeighborhoodSpec(delta_h_bound=1.0, scan_count=0, theta_domain=(0.0, 1.0))
        with pytest.raises(ValueError):
            NeighborhoodSpec(delta_h_bound=1.0, scan_count=10, theta_domain=(1.0, 0.5))


# ---------------------------------------------------------------------------
# Gaussian output mechanism
# ---------------------------------------------------------------------------

class TestGaussianOutputRelease:
    def test_vanishing_noise_returns_query(self, stream):
        law = ResidualLaw.gaussian(mean=10.0, variance=1.0)
        release = gaussian_output_release(law, 9.7, 0.0, 1e-12, stream)
        assert release.value == pytest.approx(9.7, abs=1e-9)

    def test_release_law(self, stream):
        law = ResidualLaw.gaussian(mean=10.0, variance=1.0)
        release = gaussian_output_release(law, 9.7, 0.5, 2.0, stream)
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

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (1.0, 0.0), (1.0, 1.0)])
    def test_domain_errors(self, rng, stream, eps, delta):
        model = random_model(rng, 4, 2)
        with pytest.raises(ValueError):
            input_perturbation_release(model, np.zeros(4), eps, delta, stream)

