"""State estimation, residual laws, the chi-mixture, and its Gaussian limit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from dpresidual import (
    AttackVector,
    ChiMixture,
    MeasurementModel,
    NumericError,
    Regime,
    ResidualLaw,
    SeedStream,
    chi_mixture,
    cumulant,
    gaussian_law,
    normal_approx_bound,
    projection_matrix,
    residual_law,
    simulate_measurements,
    stealth_attack,
    wls_estimate,
    wssr,
)
from dpresidual.estimation import _shift_terms
from conftest import random_model


class TestWlsEstimate:
    def test_exact_recovery(self, rng):
        model = random_model(rng, 10, 4)
        x0 = rng.normal(size=4)
        est = wls_estimate(model, model.H @ x0)
        np.testing.assert_allclose(est.x, x0, atol=1e-10)

    def test_shrinkage_limit(self, rng):
        model = random_model(rng, 10, 4, lam=1e8)
        z = rng.normal(size=10)
        est = wls_estimate(model, z)
        assert np.linalg.norm(est.x) < 1e-6 * np.linalg.norm(z)

    def test_against_normal_equations_oracle(self, rng):
        model = random_model(rng, 12, 5)
        z = rng.normal(size=12)
        oracle = np.linalg.solve(model.H.T @ model.H, model.H.T @ z)
        np.testing.assert_allclose(wls_estimate(model, z).x, oracle, atol=1e-9)

    def test_ridge_against_closed_form(self, rng):
        model = random_model(rng, 6, 9, sigma=0.7, lam=0.4)
        z = rng.normal(size=6)
        gram = model.H.T @ model.H + model.lam * model.sigma**2 * np.eye(9)
        oracle = np.linalg.solve(gram, model.H.T @ z)
        np.testing.assert_allclose(wls_estimate(model, z).x, oracle, atol=1e-9)

    def test_dimension_check(self, rng):
        model = random_model(rng, 6, 3)
        with pytest.raises(ValueError):
            wls_estimate(model, np.ones(5))


class TestWssr:
    def test_zero_on_column_space(self, rng):
        model = random_model(rng, 9, 3)
        assert wssr(model, model.H @ rng.normal(size=3)) <= 1e-10

    def test_hand_computation(self):
        model = MeasurementModel(H=np.array([[1.0], [0.0]]), sigma=1.0)
        assert wssr(model, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_sample_mean_matches_dof(self, rng):
        """Central residual statistic has mean equal to its rank."""
        model = random_model(rng, 20, 5)
        Z = simulate_measurements(model, np.zeros(5), None, SeedStream(5), trials=10**5)
        assert wssr(model, Z).mean() == pytest.approx(15.0, abs=0.05)

    def test_projector_identity(self, rng):
        """WSSR equals the squared projected disturbance, exactly."""
        for _ in range(10):
            model = random_model(rng, 12, 5, sigma=0.6)
            P = projection_matrix(model).matrix
            x = rng.normal(size=5)
            eta = rng.normal(size=12)
            a = rng.normal(size=12)
            lhs = wssr(model, model.H @ x + eta + a)
            rhs = np.linalg.norm(P @ (eta + a)) ** 2 / model.sigma**2
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_batch_matches_scalar(self, rng):
        model = random_model(rng, 7, 2)
        Z = rng.normal(size=(4, 7))
        batch = wssr(model, Z)
        for i in range(4):
            assert batch[i] == pytest.approx(wssr(model, Z[i]), abs=1e-12)

    def test_nonnegative(self, rng):
        model = random_model(rng, 8, 3, lam=0.5)
        assert np.all(wssr(model, rng.normal(size=(50, 8))) >= 0.0)

    @pytest.mark.parametrize("m, n, lam", [(6, 9, 0.7), (6, 6, 0.7), (6, 6, 0.0),
                                           (12, 5, 0.0), (12, 5, 0.7)])
    def test_shift_terms_from_dense_projector(self, rng, m, n, lam):
        """g = P^T P a and ||P a||^2 agree with the dense projector."""
        model = random_model(rng, m, n, sigma=0.6, lam=lam)
        P = projection_matrix(model).matrix
        a = rng.normal(size=m)
        g, sq = _shift_terms(model, a)
        np.testing.assert_allclose(g, P.T @ P @ a, rtol=1e-10, atol=1e-12)
        assert sq == pytest.approx(np.sum((P @ a) ** 2), rel=1e-10, abs=1e-12)


@st.composite
def factor_instances(draw):
    """(m, n, lam, sigma, seed): lam = 0 needs m >= n; ridge allows m <= n."""
    m = draw(st.integers(1, 12))
    ridge = draw(st.booleans())
    n = draw(st.integers(1, 12 if ridge else m))
    lam = draw(st.floats(0.05, 5.0)) if ridge else 0.0
    return m, n, lam, draw(st.floats(0.3, 3.0)), draw(st.integers(0, 2**32 - 1))


class TestFactorAgainstReference:
    """The SVD factor against QR (lam = 0) and Gram-solve (lam > 0) references."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(factor_instances())
    @example((4, 4, 0.0, 1.0, 0))     # square, unregularized: no residual
    @example((3, 7, 0.5, 0.8, 1))     # underdetermined ridge: U is square
    @example((9, 9, 1.0, 1.3, 2))     # square ridge
    def test_estimate_wssr_and_law(self, inst):
        m, n, lam, sigma, seed = inst
        gen = np.random.default_rng(seed)
        H = gen.normal(size=(m, n))
        model = MeasurementModel(H=H, sigma=sigma, lam=lam)
        x, a = gen.normal(size=n), gen.normal(size=m)
        Z = H @ x + sigma * gen.normal(size=(5, m))

        if lam == 0:
            q, r = np.linalg.qr(H)
            x_ref = linalg.solve_triangular(r, q.T @ Z[0])
            P_ref = np.eye(m) - q @ q.T
        else:
            gram = H.T @ H + lam * sigma**2 * np.eye(n)
            x_ref = np.linalg.solve(gram, H.T @ Z[0])
            P_ref = np.eye(m) - H @ np.linalg.solve(gram, H.T)
        R = Z @ P_ref.T
        q_ref = np.einsum("ij,ij->i", R, R) / sigma**2
        v = a if lam == 0 else H @ x + a
        nc_ref = float(np.sum((P_ref @ v) ** 2)) / sigma**2

        np.testing.assert_allclose(wls_estimate(model, Z[0]).x, x_ref,
                                   rtol=1e-10, atol=1e-10 * np.abs(x_ref).max())
        q_scale = 1e-10 * np.sum(Z**2, axis=1) / sigma**2
        np.testing.assert_allclose(wssr(model, Z), q_ref, rtol=1e-10, atol=q_scale.max())
        assert wssr(model, Z[0]) == pytest.approx(q_ref[0], rel=1e-10, abs=q_scale[0])
        law = residual_law(model, x, a)
        assert law.noncentrality == pytest.approx(
            nc_ref, rel=1e-10, abs=1e-10 * float(v @ v) / sigma**2)
        assert law.dof == np.linalg.matrix_rank(P_ref, tol=1e-8)
        proj = projection_matrix(model)
        assert proj.rank == law.dof
        np.testing.assert_allclose(proj.matrix, P_ref, rtol=0, atol=1e-10)


class TestResidualLaw:
    def test_central_unregularized(self, rng):
        model = random_model(rng, 11, 4)
        law = residual_law(model, np.zeros(4), None)
        assert law.regime is Regime.CHI_SQUARE
        assert law.dof == 7
        assert law.noncentrality == 0.0

    def test_stealth_gives_central_law(self, rng):
        model = random_model(rng, 9, 4)
        attack = stealth_attack(model, rng.normal(size=4))
        law = residual_law(model, rng.normal(size=4), attack)
        assert abs(law.noncentrality) <= 1e-20

    def test_ridge_matches_svd_path(self, rng):
        model = random_model(rng, 8, 5, sigma=0.9, lam=0.3)
        x = rng.normal(size=5)
        attack = AttackVector.sparse(8, [1, 6], [2.0, -1.0])
        law = residual_law(model, x, attack)
        mix = chi_mixture(model, x, attack)
        assert law.noncentrality == pytest.approx(
            float(np.sum(mix.d * mix.theta**2)), rel=1e-9)

    def test_state_invariance_without_ridge(self, rng):
        model = random_model(rng, 10, 3)
        attack = AttackVector.sparse(10, [0], [3.0])
        nc1 = residual_law(model, rng.normal(size=3), attack).noncentrality
        nc2 = residual_law(model, rng.normal(size=3), attack).noncentrality
        assert nc1 == pytest.approx(nc2, rel=1e-12)

    def test_state_dependence_with_ridge(self, rng):
        model = random_model(rng, 10, 3, lam=0.4)
        attack = AttackVector.sparse(10, [0], [3.0])
        nc1 = residual_law(model, np.zeros(3), attack).noncentrality
        nc2 = residual_law(model, 5.0 * np.ones(3), attack).noncentrality
        assert abs(nc1 - nc2) > 1e-6

    def test_square_model_zero_dof(self, rng):
        """Empty null space: no residual, zero statistic, zero dof."""
        model = random_model(rng, 4, 4)
        law = residual_law(model, np.zeros(4), None)
        assert law.dof == 0
        assert wssr(model, rng.normal(size=4)) <= 1e-10

    def test_law_validation(self):
        with pytest.raises(ValueError):
            ResidualLaw.chi_square(dof=-1.0)
        with pytest.raises(ValueError):
            ResidualLaw.chi_square(dof=2.0, noncentrality=-0.5)
        with pytest.raises(ValueError):
            ResidualLaw.gaussian(mean=0.0, variance=0.0)

    @pytest.mark.parametrize("make", [
        lambda v: ResidualLaw.chi_square(dof=2.0, noncentrality=v),
        lambda v: ResidualLaw.gaussian(mean=v, variance=1.0),
        lambda v: ResidualLaw.gaussian(mean=0.0, variance=v),
    ])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_law_is_a_numeric_failure(self, make, value):
        """A parameter that overflowed is a numeric failure (CLI exit 3)."""
        with pytest.raises(NumericError):
            make(value)


class TestChiMixture:
    def test_unregularized_weights_are_binary(self, rng):
        model = random_model(rng, 12, 5)
        mix = chi_mixture(model, np.zeros(5), None)
        assert np.sum(np.abs(mix.d - 1.0) < 1e-10) == 7
        assert np.sum(np.abs(mix.d) < 1e-10) == 5

    def test_mean_identity(self, rng):
        """Sum of d_i (1 + theta_i^2) is the first cumulant."""
        model = random_model(rng, 8, 5, lam=0.6, sigma=1.4)
        x = rng.normal(size=5)
        attack = AttackVector.sparse(8, [2], [3.0])
        mix = chi_mixture(model, x, attack)
        direct = float(np.sum(mix.d * (1.0 + mix.theta**2)))
        assert cumulant(mix, 1) == pytest.approx(direct, rel=1e-12)
        assert gaussian_law(mix).law.mean == pytest.approx(direct, rel=1e-12)

    def test_two_path_sampling_agreement(self, rng):
        """Simulated WSSR and direct mixture draws share one distribution."""
        model = random_model(rng, 9, 4, sigma=0.8, lam=0.5)
        x = rng.normal(size=4)
        attack = AttackVector.sparse(9, [3], [2.5])
        mix = chi_mixture(model, x, attack)
        n = 10**5
        Z = simulate_measurements(model, x, attack, SeedStream(21), trials=n)
        q_pipeline = wssr(model, Z)
        q_mixture = mix.sample(SeedStream(22), n)
        result = stats.ks_2samp(q_pipeline, q_mixture)
        assert result.pvalue > 0.01

    def test_unregularized_noncentrality_matches_projection(self, rng):
        model = random_model(rng, 10, 4)
        attack = AttackVector.sparse(10, [1, 7], [1.0, -2.0])
        mix = chi_mixture(model, rng.normal(size=4), attack)
        P = projection_matrix(model).matrix
        expected = np.linalg.norm(P @ attack.a) ** 2 / model.sigma**2
        assert float(np.sum(mix.d * mix.theta**2)) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("m, n, lam", [(30, 6, 0.0), (30, 6, 0.4), (8, 12, 0.5)])
    def test_reads_the_cached_factor(self, rng, monkeypatch, m, n, lam):
        """Once the factor exists, the mixture and its law make no SVD."""
        model = random_model(rng, m, n, lam=lam)
        model.factor

        def no_svd(*args, **kwargs):
            raise AssertionError("H was factored again")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        mix = chi_mixture(model, rng.normal(size=n), AttackVector.sparse(m, [3], [2.0]))
        assert mix.m == m
        assert gaussian_law(mix).law.variance > 0


def full_svd_mixture(model, x, a):
    """Mixture weights and centers from a full SVD: an m x m U, a padded S."""
    u, s, vt = np.linalg.svd(model.H, full_matrices=True)
    m, n = model.H.shape
    ridge = model.lam * model.sigma**2
    d = np.ones(m)
    d[: s.size] = (ridge / (s**2 + ridge)) ** 2 if ridge > 0 else 0.0
    s_full = np.zeros((m, n))
    s_full[: s.size, : s.size] = np.diag(s)
    theta = (s_full @ (vt @ x) + u.T @ a) / model.sigma
    return ChiMixture(d=d, theta=theta)


@st.composite
def mixture_instances(draw):
    """(m, n, lam, sigma, seed) over m < n, m = n and m > n; lam = 0 needs m >= n."""
    shape = draw(st.sampled_from(["m<n", "m=n", "m>n"]))
    m = draw(st.integers(2 if shape == "m>n" else 1, 12))
    if shape == "m<n":
        n = draw(st.integers(m + 1, 14))
    elif shape == "m=n":
        n = m
    else:
        n = draw(st.integers(1, m - 1))
    lams = [0.1, 1.0, 4.0] if shape == "m<n" else [0.0, 0.1, 1.0, 4.0]
    lam = draw(st.sampled_from(lams))
    return m, n, lam, draw(st.floats(0.3, 3.0)), draw(st.integers(0, 2**32 - 1))


class TestChiMixtureAgainstFullSvd:
    """The factor-based mixture against the full-SVD construction."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(mixture_instances())
    @example((3, 7, 0.5, 0.8, 1))     # m < n ridge: no weight-1 block
    @example((5, 5, 0.0, 1.0, 2))     # square, unregularized: zero variance
    @example((40, 3, 0.0, 1.3, 3))    # large weight-1 block
    def test_same_law_and_no_larger_rho(self, inst):
        m, n, lam, sigma, seed = inst
        gen = np.random.default_rng(seed)
        model = MeasurementModel(H=gen.normal(size=(m, n)), sigma=sigma, lam=lam)
        x, a = gen.normal(scale=2.0, size=n), gen.normal(scale=2.0, size=m)
        mix, ref = chi_mixture(model, x, a), full_svd_mixture(model, x, a)

        assert mix.m == ref.m == m
        np.testing.assert_allclose(np.sort(mix.d), np.sort(ref.d), rtol=0, atol=1e-12)
        for order in (1, 2, 3, 4):
            assert cumulant(mix, order) == pytest.approx(cumulant(ref, order), rel=1e-10)
        if lam == 0 and m == n:
            with pytest.raises(ValueError, match="zero variance"):
                gaussian_law(mix)
            return
        rho, rho_ref = gaussian_law(mix).rho, gaussian_law(ref).rho
        assert rho <= rho_ref * (1 + 1e-12)
        if m <= n:
            assert rho == pytest.approx(rho_ref, rel=1e-10)


class TestCumulants:
    def test_central_unregularized_values(self, rng):
        model = random_model(rng, 14, 6)
        mix = chi_mixture(model, np.zeros(6), None)
        r = 8.0
        assert cumulant(mix, 1) == pytest.approx(r, rel=1e-12)
        assert cumulant(mix, 2) == pytest.approx(2 * r, rel=1e-12)
        assert cumulant(mix, 3) == pytest.approx(8 * r, rel=1e-12)

    def test_attacked_mean(self, rng):
        model = random_model(rng, 14, 6)
        attack = AttackVector.sparse(14, [4], [3.0])
        mix = chi_mixture(model, np.zeros(6), attack)
        law = residual_law(model, np.zeros(6), attack)
        assert cumulant(mix, 1) == pytest.approx(8.0 + law.noncentrality, rel=1e-10)

    def test_ridge_moments_against_monte_carlo(self, rng):
        model = random_model(rng, 10, 4, sigma=0.7, lam=0.3)
        x = rng.normal(size=4)
        attack = AttackVector.sparse(10, [1], [2.0])
        mix = chi_mixture(model, x, attack)
        k1, k2, k4 = cumulant(mix, 1), cumulant(mix, 2), cumulant(mix, 4)
        n = 10**6
        Z = simulate_measurements(model, x, attack, SeedStream(31), trials=n)
        q = wssr(model, Z)
        se_mean = math.sqrt(k2 / n)
        se_var = math.sqrt((k4 + 2 * k2**2) / n)
        assert abs(q.mean() - k1) <= 3 * se_mean
        assert abs(q.var() - k2) <= 3 * se_var

    @pytest.mark.parametrize("order", [0, 5, -1])
    def test_order_capped(self, rng, order):
        mix = chi_mixture(random_model(rng, 6, 2), np.zeros(2), None)
        with pytest.raises(ValueError):
            cumulant(mix, order)


class TestGaussianLaw:
    def test_central_unregularized_moments(self, rng):
        model = random_model(rng, 16, 6)
        approx = gaussian_law(chi_mixture(model, np.zeros(6), None))
        assert approx.law.mean == pytest.approx(10.0, rel=1e-12)
        assert approx.law.variance == pytest.approx(20.0, rel=1e-12)

    def test_bound_nonnegative_and_decreasing_in_zeta(self):
        for rho in (0.0, 0.05, 0.12):
            values = [normal_approx_bound(rho, z) for z in np.linspace(1.0, 500.0, 40)]
            assert all(v >= 0 for v in values)
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_bound_unavailable_for_large_rho(self, rng):
        model = random_model(rng, 4, 2)  # 2 residual dof: rho = 1/2
        approx = gaussian_law(chi_mixture(model, np.zeros(2), None))
        assert approx.rho >= 0.125
        assert approx.sup_density_bound is None
        assert not approx.bound_available

    def test_bound_shrinks_with_system_size(self, rng):
        small = gaussian_law(chi_mixture(random_model(rng, 30, 5), np.zeros(5), None))
        large = gaussian_law(chi_mixture(random_model(rng, 300, 5), np.zeros(5), None))
        assert large.sup_density_bound < small.sup_density_bound

    def test_zero_variance_rejected(self, rng):
        mix = chi_mixture(random_model(rng, 4, 4), np.zeros(4), None)
        with pytest.raises(ValueError, match="zero variance"):
            gaussian_law(mix)

    def test_normalized_statistic_is_near_normal(self, rng):
        """Large-system sanity: standardized WSSR close to N(0, 1)."""
        model = random_model(rng, 150, 10)
        approx = gaussian_law(chi_mixture(model, np.zeros(10), None))
        Z = simulate_measurements(model, np.zeros(10), None, SeedStream(41), trials=3 * 10**4)
        q = wssr(model, Z)
        standardized = (q - approx.law.mean) / math.sqrt(approx.law.variance)
        assert stats.kstest(standardized, "norm").statistic < 0.03
