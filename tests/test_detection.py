"""Threshold-test analytics, ROC curves, and Monte Carlo validation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from dpresidual import (
    AttackVector,
    NoResidualError,
    PrivacyParams,
    ResidualLaw,
    SeedStream,
    TestSpec,
    ValidationFailure,
    monte_carlo_validate,
    pfa_pd,
    residual_law,
    roc,
    sample_law,
    threshold,
)
from dpresidual.special_functions import gaussian_q_inverse, regularized_gamma_q_inverse
from dpresidual.detection import write_auroc_csv, write_roc_csv
from dpresidual.csvio import read_csv
from conftest import random_model


def chi_spec(dof, nc0=0.0, nc1=0.0, alpha=0.05, dp=None, recalibrate=False):
    return TestSpec(alpha=alpha,
                    law0=ResidualLaw.chi_square(dof, nc0),
                    law1=ResidualLaw.chi_square(dof, nc1),
                    dp=dp, recalibrate_threshold=recalibrate)


def gaussian_spec(mu0, v0, mu1, v1, alpha=0.05, dp=None, recalibrate=False):
    return TestSpec(alpha=alpha,
                    law0=ResidualLaw.gaussian(mu0, v0),
                    law1=ResidualLaw.gaussian(mu1, v1),
                    dp=dp, recalibrate_threshold=recalibrate)


class TestThreshold:
    def test_chi_two_dof_closed_form(self):
        """tau = -2 ln(alpha) for two degrees of freedom."""
        assert threshold(chi_spec(2.0)) == pytest.approx(5.991, abs=0.01)

    def test_gaussian_reference_point(self):
        assert threshold(gaussian_spec(10.0, 1.0, 13.0, 16.0)) == \
            pytest.approx(11.645, abs=0.001)

    def test_gaussian_median_alpha(self):
        assert threshold(gaussian_spec(10.0, 4.0, 12.0, 4.0, alpha=0.5)) == \
            pytest.approx(10.0, abs=1e-12)

    def test_zero_dof_rejected(self):
        with pytest.raises(NoResidualError):
            threshold(chi_spec(0.0))

    def test_noise_keeps_clean_threshold(self):
        dp = PrivacyParams.chi_square(r_prime=1)
        assert threshold(chi_spec(6.0, dp=dp)) == threshold(chi_spec(6.0))

    def test_recalibrated_threshold_restores_alpha(self):
        dp = PrivacyParams.chi_square(r_prime=2)
        spec = chi_spec(6.0, alpha=0.05, dp=dp, recalibrate=True)
        pfa, _ = pfa_pd(spec)
        assert pfa == pytest.approx(0.05, rel=1e-9)

    def test_mismatched_regimes_rejected(self):
        with pytest.raises(ValueError):
            TestSpec(alpha=0.1, law0=ResidualLaw.chi_square(3.0),
                     law1=ResidualLaw.gaussian(0.0, 1.0))

    def test_mechanism_regime_compatibility(self):
        with pytest.raises(ValueError):
            chi_spec(4.0, dp=PrivacyParams.gaussian_output(nu_mean=0.0, nu_sigma=1.0))
        with pytest.raises(ValueError):
            gaussian_spec(0.0, 1.0, 1.0, 1.0, dp=PrivacyParams.chi_square(r_prime=1))


class TestPfaPd:
    def test_identical_laws_give_diagonal(self):
        for alpha in (0.01, 0.05, 0.3, 0.8):
            pfa, pd = pfa_pd(gaussian_spec(10.0, 4.0, 10.0, 4.0, alpha=alpha))
            assert pfa == pytest.approx(alpha, rel=1e-9)
            assert pd == pytest.approx(alpha, rel=1e-9)

    def test_clean_chi_pfa_equals_alpha(self):
        for alpha in (0.01, 0.05, 0.1):
            pfa, _ = pfa_pd(chi_spec(15.0, nc1=4.0, alpha=alpha))
            assert pfa == pytest.approx(alpha, rel=1e-9)

    def test_noisy_chi_pfa_against_monte_carlo(self):
        """Noisy null with one extra dof, clean threshold, MC cross-check."""
        dp = PrivacyParams.chi_square(r_prime=1)
        spec = chi_spec(2.0, alpha=0.05, dp=dp)
        pfa, _ = pfa_pd(spec)
        n = 10**6
        draws = stats.chi2.rvs(3.0, size=n, random_state=np.random.default_rng(2))
        hat = np.mean(draws > threshold(spec))
        se = math.sqrt(pfa * (1 - pfa) / n)
        assert abs(hat - pfa) <= 3 * se

    def test_gaussian_reference_detection(self):
        """Pd = Q((Qinv(0.05) - 3) / 4) at the reference operating point."""
        _, pd = pfa_pd(gaussian_spec(10.0, 1.0, 13.0, 16.0, alpha=0.05))
        assert pd == pytest.approx(0.6326, abs=0.002)

    def test_pd_monotone_in_noncentrality(self):
        pds = [pfa_pd(chi_spec(10.0, nc1=nc, alpha=0.05))[1]
               for nc in np.linspace(0.0, 20.0, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(pds, pds[1:]))

    def test_pd_monotone_in_mean_gap(self):
        pds = [pfa_pd(gaussian_spec(10.0, 1.0, 10.0 + gap, 16.0))[1]
               for gap in np.linspace(0.0, 8.0, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(pds, pds[1:]))

    def test_noise_never_improves_detection_at_matched_size(self):
        """At equal operating false-alarm rate, release noise only hurts."""
        for alpha in (0.01, 0.05, 0.2):
            clean = pfa_pd(chi_spec(10.0, nc1=8.0, alpha=alpha))[1]
            for r_prime in (1, 2, 5):
                dp = PrivacyParams.chi_square(r_prime=r_prime)
                noisy = pfa_pd(chi_spec(10.0, nc1=8.0, alpha=alpha, dp=dp,
                                        recalibrate=True))[1]
                assert noisy <= clean + 1e-12
        for alpha in (0.01, 0.05, 0.2):
            clean = pfa_pd(gaussian_spec(10.0, 1.0, 13.0, 16.0, alpha=alpha))[1]
            for nu in (0.5, 2.0, 5.0):
                dp = PrivacyParams.gaussian_output(nu_mean=0.0, nu_sigma=nu)
                noisy = pfa_pd(gaussian_spec(10.0, 1.0, 13.0, 16.0, alpha=alpha,
                                             dp=dp, recalibrate=True))[1]
                assert noisy <= clean + 1e-12

    def test_noise_never_improves_auroc(self):
        """The noisy test's ROC is dominated: lower area in both regimes."""
        clean_chi = roc(chi_spec(10.0, nc1=8.0)).auroc
        for r_prime in (1, 3):
            noisy = roc(chi_spec(10.0, nc1=8.0,
                                 dp=PrivacyParams.chi_square(r_prime=r_prime))).auroc
            assert noisy <= clean_chi + 1e-6
        clean_gauss = roc(gaussian_spec(10.0, 1.0, 13.0, 16.0)).auroc
        for nu in (0.5, 2.0, 5.0):
            dp = PrivacyParams.gaussian_output(nu_mean=0.0, nu_sigma=nu)
            noisy = roc(gaussian_spec(10.0, 1.0, 13.0, 16.0, dp=dp)).auroc
            assert noisy <= clean_gauss + 1e-6


class TestRoc:
    def test_identical_laws_auroc_half(self):
        curve = roc(gaussian_spec(10.0, 4.0, 10.0, 4.0))
        assert curve.auroc == pytest.approx(0.5, abs=1e-6)

    def test_separation_limit(self):
        curve = roc(gaussian_spec(10.0, 1.0, 60.0, 1.0))
        assert curve.auroc > 0.999

    def test_curve_majorizes_diagonal_under_dominance(self):
        curve = roc(chi_spec(8.0, nc1=6.0))
        assert all(pd >= pfa - 1e-12 for pfa, pd in curve.points)

    def test_points_strictly_increasing_in_pfa(self):
        curve = roc(chi_spec(8.0, nc1=6.0))
        pfas = [p for p, _ in curve.points]
        assert all(b > a for a, b in zip(pfas, pfas[1:]))

    def test_auroc_in_unit_interval(self):
        curve = roc(gaussian_spec(10.0, 1.0, 10.5, 9.0))
        assert 0.0 <= curve.auroc <= 1.0

    def test_custom_grid_validation(self):
        spec = chi_spec(5.0, nc1=2.0)
        with pytest.raises(ValueError):
            roc(spec, [0.5, 0.2])
        with pytest.raises(ValueError):
            roc(spec, [0.0, 0.5])
        with pytest.raises(ValueError):
            roc(spec, [])

    def test_gaussian_nonconcave_curve_allowed(self):
        """Unequal variances can cross the diagonal; the area still integrates."""
        curve = roc(gaussian_spec(10.0, 1.0, 10.0, 16.0))
        assert curve.auroc == pytest.approx(0.5, abs=0.005)
        assert any(pd < pfa for pfa, pd in curve.points[1:-1])


class TestAlphaArray:
    """An alpha array is one call that equals the per-alpha scalar calls."""

    ALPHAS = np.array([1e-4, 0.003, 0.05, 0.2, 0.5, 0.9, 0.999])

    @pytest.mark.parametrize("spec", [
        chi_spec(6.0, nc0=0.0, nc1=5.0),
        chi_spec(6.0, nc0=0.7, nc1=5.0, dp=PrivacyParams.chi_square(r_prime=2)),
        chi_spec(6.0, nc1=5.0, dp=PrivacyParams.chi_square(r_prime=2), recalibrate=True),
        gaussian_spec(10.0, 1.0, 13.0, 16.0),
        gaussian_spec(10.0, 1.0, 13.0, 16.0,
                      dp=PrivacyParams.gaussian_output(nu_mean=0.5, nu_sigma=2.0)),
        gaussian_spec(10.0, 1.0, 13.0, 16.0, recalibrate=True,
                      dp=PrivacyParams.gaussian_output(nu_mean=0.5, nu_sigma=2.0)),
    ], ids=["chi", "chi-dp", "chi-dp-recal", "gauss", "gauss-dp", "gauss-dp-recal"])
    def test_matches_scalar_loop_exactly(self, spec):
        array_spec = replace(spec, alpha=self.ALPHAS)
        taus = threshold(array_spec)
        pfas, pds = pfa_pd(array_spec)
        for i, a in enumerate(self.ALPHAS):
            scalar_spec = replace(spec, alpha=float(a))
            tau = threshold(scalar_spec)
            pfa, pd = pfa_pd(scalar_spec)
            assert isinstance(tau, float) and isinstance(pfa, float)
            assert taus[i] == tau
            assert pfas[i] == pfa and pds[i] == pd

    @pytest.mark.parametrize("bad", [0.0, 1.0, math.nan])
    @pytest.mark.parametrize("call", [
        lambda a: chi_spec(4.0, alpha=a),
        lambda a: regularized_gamma_q_inverse(a, 2.0),
        gaussian_q_inverse,
    ], ids=["TestSpec", "regularized_gamma_q_inverse", "gaussian_q_inverse"])
    def test_out_of_range_entry_rejected(self, call, bad):
        with pytest.raises(ValueError):
            call(np.array([0.05, bad, 0.5]))

    def test_monte_carlo_validate_needs_scalar_alpha(self, rng):
        model = random_model(rng, 10, 3)
        law = residual_law(model, np.zeros(3), None)
        spec = TestSpec(alpha=np.array([0.05, 0.1]), law0=law, law1=law)
        with pytest.raises(ValueError, match="scalar alpha"):
            monte_carlo_validate(model, None, spec, 2000, SeedStream(0))


class TestMonteCarloValidate:
    def test_clean_false_alarm_rate(self, rng):
        model = random_model(rng, 20, 5)
        law = residual_law(model, np.zeros(5), None)
        spec = TestSpec(alpha=0.1, law0=law, law1=law)
        result = monte_carlo_validate(model, None, spec, 10**5, SeedStream(51))
        assert result.pfa_hat == pytest.approx(0.100, abs=0.003)

    def test_stealth_attack_is_invisible(self, rng):
        model = random_model(rng, 12, 4)
        from dpresidual import stealth_attack
        attack = stealth_attack(model, rng.normal(size=4))
        law0 = residual_law(model, np.zeros(4), None)
        law1 = residual_law(model, np.zeros(4), attack)
        spec = TestSpec(alpha=0.05, law0=law0, law1=law1)
        result = monte_carlo_validate(model, attack, spec, 5 * 10**4, SeedStream(52))
        assert abs(result.pd_hat - result.pfa_hat) <= \
            3 * math.sqrt(2 * 0.05 * 0.95 / (5 * 10**4))

    def test_noisy_release_rates(self, rng):
        model = random_model(rng, 20, 5)
        attack = AttackVector.sparse(20, [2, 11], [2.0, -1.5])
        law0 = residual_law(model, np.zeros(5), None)
        law1 = residual_law(model, np.zeros(5), attack)
        dp = PrivacyParams.chi_square(r_prime=1)
        spec = TestSpec(alpha=0.05, law0=law0, law1=law1, dp=dp)
        result = monte_carlo_validate(model, attack, spec, 5 * 10**4, SeedStream(53))
        assert result.deviations()["pfa"] <= 3.0
        assert result.deviations()["pd"] <= 3.0

    def test_wrong_analytics_detected(self, rng):
        """A law that misstates the noncentrality trips the 3-sigma check."""
        model = random_model(rng, 20, 5)
        attack = AttackVector.sparse(20, [2], [4.0])
        law0 = residual_law(model, np.zeros(5), None)
        wrong = ResidualLaw.chi_square(law0.dof, noncentrality=50.0)
        spec = TestSpec(alpha=0.05, law0=law0, law1=wrong)
        with pytest.raises(ValidationFailure, match="pd"):
            monte_carlo_validate(model, attack, spec, 10**4, SeedStream(54))
        result = monte_carlo_validate(model, attack, spec, 10**4, SeedStream(54),
                                      check=False)
        assert result.worst_offender()[0] == "pd"

    def test_minimum_trials(self, rng):
        model = random_model(rng, 6, 2)
        law = residual_law(model, np.zeros(2), None)
        spec = TestSpec(alpha=0.1, law0=law, law1=law)
        with pytest.raises(ValueError):
            monte_carlo_validate(model, None, spec, 999, SeedStream(0))

    def test_parallel_matches_reruns(self, rng):
        model = random_model(rng, 10, 3)
        law = residual_law(model, np.zeros(3), None)
        spec = TestSpec(alpha=0.1, law0=law, law1=law)
        a = monte_carlo_validate(model, None, spec, 4000, SeedStream(7), workers=2)
        b = monte_carlo_validate(model, None, spec, 4000, SeedStream(7), workers=2)
        assert a.pfa_hat == b.pfa_hat and a.pd_hat == b.pd_hat

    def test_parallel_requires_stream(self, rng):
        model = random_model(rng, 10, 3)
        law = residual_law(model, np.zeros(3), None)
        spec = TestSpec(alpha=0.1, law0=law, law1=law)
        with pytest.raises(TypeError):
            monte_carlo_validate(model, None, spec, 2000, rng, workers=2)


class TestSampleLaw:
    def test_chi_square_regime(self, stream):
        draws = sample_law(ResidualLaw.chi_square(4.0, 2.0), stream, 10**5)
        assert draws.mean() == pytest.approx(6.0, abs=0.1)

    def test_gaussian_regime(self, stream):
        draws = sample_law(ResidualLaw.gaussian(3.0, 4.0), stream, 10**5)
        assert draws.mean() == pytest.approx(3.0, abs=0.05)
        assert draws.std() == pytest.approx(2.0, abs=0.05)

    def test_zero_dof_rejected(self, stream):
        with pytest.raises(NoResidualError):
            sample_law(ResidualLaw.chi_square(0.0), stream, 10)


class TestCsvExports:
    def test_roc_csv(self, tmp_path):
        spec = chi_spec(5.0, nc1=3.0)
        alphas = [0.01, 0.05, 0.1]
        points = [pfa_pd(TestSpec(alpha=a, law0=spec.law0, law1=spec.law1))
                  for a in alphas]
        path = tmp_path / "roc.csv"
        write_roc_csv(path, [("chi_square", "r_prime=1", alphas, points)],
                      meta={"seed": 0})
        meta, columns, rows = read_csv(path)
        assert columns == ["alpha", "pfa", "pd", "mechanism", "params"]
        assert len(rows) == 3
        assert rows[0][3] == "chi_square"

    def test_auroc_csv(self, tmp_path):
        path = tmp_path / "auroc.csv"
        write_auroc_csv(path, [["none", "", 0.87]], meta={"seed": 0})
        _, columns, rows = read_csv(path)
        assert columns == ["mechanism", "params", "auroc"]
        assert float(rows[0][2]) == 0.87
