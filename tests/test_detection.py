"""Threshold-test analytics, ROC curves, and Monte Carlo validation."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from dpresidual import (
    AttackVector,
    NoResidualError,
    PrivacyParams,
    Regime,
    ResidualLaw,
    SeedStream,
    TestSpec,
    ValidationFailure,
    auroc,
    auroc_family,
    monte_carlo_validate,
    RocCurve,
    pfa_pd,
    pfa_pd_family,
    residual_law,
    roc,
    sample_law,
    threshold,
)
from dpresidual import detection
from dpresidual.special_functions import (
    gaussian_q,
    gaussian_q_inverse,
    marcum_q,
    noncentral_chisq_sample,
    regularized_gamma_q_inverse,
)
from dpresidual.dp_mechanism import Mechanism
from dpresidual.estimation import wssr
from conftest import exact_auroc, random_model


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
        with pytest.raises(NoResidualError):  # also on the noisy null's r' dof
            threshold(chi_spec(0.0, dp=PrivacyParams.chi_square(r_prime=2),
                               recalibrate=True))

    def test_noise_keeps_clean_threshold(self):
        dp = PrivacyParams.chi_square(r_prime=1)
        assert threshold(chi_spec(6.0, dp=dp)) == threshold(chi_spec(6.0))

    def test_recalibrated_threshold_restores_alpha(self):
        dp = PrivacyParams.chi_square(r_prime=2)
        spec = chi_spec(6.0, alpha=0.05, dp=dp, recalibrate=True)
        pfa, _ = pfa_pd(spec)
        assert pfa == pytest.approx(0.05, rel=1e-9)
        dp = PrivacyParams.gaussian_output(nu_mean=0.3, nu_sigma=2.0)
        spec = gaussian_spec(10.0, 1.0, 13.0, 16.0, dp=dp, recalibrate=True)
        assert threshold(spec) == pytest.approx(
            10.3 + math.sqrt(5.0) * gaussian_q_inverse(0.05), rel=1e-15)
        assert pfa_pd(spec)[0] == pytest.approx(0.05, rel=1e-9)

    def test_mismatched_regimes_rejected(self):
        with pytest.raises(ValueError):
            TestSpec(alpha=0.1, law0=ResidualLaw.chi_square(3.0),
                     law1=ResidualLaw.gaussian(0.0, 1.0))

    def test_mechanism_regime_compatibility(self):
        with pytest.raises(ValueError):
            chi_spec(4.0, dp=PrivacyParams.gaussian_output(nu_mean=0.0, nu_sigma=1.0))
        with pytest.raises(ValueError):
            gaussian_spec(0.0, 1.0, 1.0, 1.0, dp=PrivacyParams.chi_square(r_prime=1))
        # Input perturbation changes the laws, not the released statistic.
        dp = PrivacyParams.gaussian_input(epsilon=12.0, delta=0.1)
        with pytest.raises(ValueError, match="input perturbation"):
            chi_spec(4.0, dp=dp)
        with pytest.raises(ValueError, match="input perturbation"):
            gaussian_spec(0.0, 1.0, 1.0, 1.0, dp=dp)


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


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _two_call_pfa_pd(spec):
    """pfa_pd as one tail evaluation per law, each law on its own."""
    tau = threshold(spec)
    dp = spec.dp
    if spec.law0.regime is Regime.CHI_SQUARE:
        extra_dof = 0.0 if dp is None else float(dp.r_prime)
        order = 0.5 * (spec.law0.dof + extra_dof)
        return tuple(marcum_q(order, math.sqrt(law.noncentrality), np.sqrt(tau))
                     for law in (spec.law0, spec.law1))
    nu_mean, nu_var = (0.0, 0.0) if dp is None else (dp.nu_mean, dp.nu_sigma**2)
    return tuple(gaussian_q((tau - (law.mean + nu_mean)) / math.sqrt(law.variance + nu_var))
                 for law in (spec.law0, spec.law1))


ALPHAS = st.one_of(
    st.floats(1e-4, 0.999),
    hnp.arrays(float, st.integers(1, 8), elements=st.floats(1e-4, 0.999)),
)


@st.composite
def chi_families(draw):
    """A chi-square spec (clean, noisy, or recalibrated) and its alternatives."""
    dof = draw(st.sampled_from([1.0, 3.0, 15.0, 180.0, 181.0, 200.5]))
    r_prime = draw(st.sampled_from([None, 1, 4]))
    dp = None if r_prime is None else PrivacyParams.chi_square(r_prime=r_prime)
    law0 = ResidualLaw.chi_square(dof, draw(st.sampled_from([0.0, 0.5, 9.0])))
    ncs = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
                        min_size=1, max_size=6))
    alternatives = [ResidualLaw.chi_square(dof, nc) for nc in ncs]
    spec = TestSpec(alpha=draw(ALPHAS), law0=law0, law1=alternatives[0], dp=dp,
                    recalibrate_threshold=dp is not None and draw(st.booleans()))
    return spec, alternatives


@st.composite
def gaussian_families(draw):
    """A gaussian spec (clean, noisy, or recalibrated) and its alternatives."""
    noise = draw(st.sampled_from([None, (0.0, 2.0), (0.5, 0.3)]))
    dp = None if noise is None else PrivacyParams.gaussian_output(*noise)
    law0 = ResidualLaw.gaussian(draw(st.floats(-5.0, 20.0)), draw(st.floats(0.1, 9.0)))
    alternatives = [ResidualLaw.gaussian(mean, var) for mean, var in draw(
        st.lists(st.tuples(st.floats(-5.0, 40.0), st.floats(0.1, 25.0)),
                 min_size=1, max_size=6))]
    spec = TestSpec(alpha=draw(ALPHAS), law0=law0, law1=alternatives[0], dp=dp,
                    recalibrate_threshold=dp is not None and draw(st.booleans()))
    return spec, alternatives


class TestPfaPdFamily:
    """One family call equals the per-law calls bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.one_of(chi_families(), gaussian_families()))
    def test_rows_equal_per_law_calls(self, case):
        spec, alternatives = case
        pfa, pd = pfa_pd_family(spec, alternatives)
        assert pd.shape == (len(alternatives),) + np.shape(spec.alpha)
        assert isinstance(pfa, float) == (np.ndim(spec.alpha) == 0)
        for law, row in zip(alternatives, pd):
            law_spec = replace(spec, law1=law)
            want_pfa, want_pd = pfa_pd(law_spec)
            assert _bits(row) == _bits(want_pd) and _bits(pfa) == _bits(want_pfa)
            # pfa_pd itself against one tail evaluation per law.
            ref_pfa, ref_pd = _two_call_pfa_pd(law_spec)
            assert _bits(want_pfa) == _bits(ref_pfa) and _bits(want_pd) == _bits(ref_pd)
            if np.ndim(spec.alpha) == 0:
                assert isinstance(want_pfa, float) and isinstance(want_pd, float)

    def test_no_alternatives(self):
        pfa, pd = pfa_pd_family(chi_spec(6.0, alpha=np.array([0.01, 0.1])), [])
        assert pd.shape == (0, 2)
        assert _bits(pfa) == _bits(pfa_pd(chi_spec(6.0, alpha=np.array([0.01, 0.1])))[0])

    def test_mixed_regime_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            pfa_pd_family(chi_spec(6.0), [ResidualLaw.gaussian(1.0, 1.0)])
        with pytest.raises(ValueError, match="degrees of freedom"):
            pfa_pd_family(chi_spec(6.0), [ResidualLaw.chi_square(6.0, 1.0),
                                          ResidualLaw.chi_square(10.0, 1.0)])

    def test_spec_rejects_other_dof(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            TestSpec(alpha=0.05, law0=ResidualLaw.chi_square(5, 0.0),
                     law1=ResidualLaw.chi_square(10, 4.0))

    def test_central_null_keeps_large_alternative_window(self):
        """A central law0 does not widen a far alternative's Poisson window.

        At nc1 = 4e6 the alternative's window holds about 16k terms; summed
        from k = 0 it would exceed ``max_terms`` and raise.
        """
        spec = chi_spec(15.0, nc1=4e6, alpha=np.array([1e-4, 0.05, 0.9]))
        pfa, pd = pfa_pd(spec)
        ref_pfa, ref_pd = _two_call_pfa_pd(spec)
        assert _bits(pfa) == _bits(ref_pfa) and _bits(pd) == _bits(ref_pd)
        big = replace(spec, law1=ResidualLaw.chi_square(15.0, 1e7))
        fam_pfa, fam_pd = pfa_pd_family(spec, [spec.law1, big.law1])
        assert _bits(fam_pfa) == _bits(pfa) and _bits(fam_pd[0]) == _bits(pd)
        assert _bits(fam_pd[1]) == _bits(_two_call_pfa_pd(big)[1])


def _python_roc(points):
    """Sort and dedup the points in Python, keeping the highest pd per pfa."""
    pts = [(float(p), float(d)) for p, d in points]
    pts += [(0.0, 0.0), (1.0, 1.0)]
    pts.sort()
    dedup: list[tuple[float, float]] = []
    for p, d in pts:
        if dedup and p == dedup[-1][0]:
            dedup[-1] = (p, max(d, dedup[-1][1]))
        else:
            dedup.append((p, d))
    xs = np.array([p for p, _ in dedup])
    ys = np.array([d for _, d in dedup])
    return tuple(dedup), float(np.trapezoid(ys, xs))


@st.composite
def roc_point_sets(draw):
    """(pfa, pd) pairs with forced pfa ties and points at 0 and 1."""
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)) + [0.0, 1.0]
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    pfa = draw(st.lists(st.one_of(st.sampled_from(pool), unit), max_size=40))
    pd = draw(st.lists(unit, min_size=len(pfa), max_size=len(pfa)))
    return list(zip(pfa, pd))


class TestRocCurveFromPoints:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(roc_point_sets())
    def test_matches_python_dedup(self, points):
        want_points, want_auroc = _python_roc(points)
        if not 0.0 <= want_auroc <= 1.0:
            with pytest.raises(ValueError, match="auroc"):
                RocCurve.from_points(points)
            return
        curve = RocCurve.from_points(points)
        assert curve.points == want_points
        assert all(type(v) is float for pt in curve.points for v in pt)
        assert _bits(curve.auroc) == _bits(want_auroc)
        assert RocCurve.from_points(np.array(points, dtype=float).reshape(-1, 2)) == curve


class TestAuroc:
    """The exact AUROC, Pr[X1 > X0] of the two released laws."""

    @pytest.mark.parametrize("dof", [1, 2, 16, 181])
    @pytest.mark.parametrize("r_prime", [0, 1, 5])
    def test_matches_quadrature(self, dof, r_prime):
        dp = PrivacyParams.chi_square(r_prime=r_prime) if r_prime else None
        ncs = [0.0, 1e-3, 2.848, 30.0, 120.0, 1e4]
        spec = chi_spec(dof, dp=dp)
        got = auroc_family(spec, [ResidualLaw.chi_square(dof, nc) for nc in ncs])
        want = [exact_auroc(dof + r_prime, nc) for nc in ncs]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_noncentral_null_matches_quadrature(self):
        for nc0, nc1 in ((5.0, 5.0), (5.0, 20.0), (30.0, 2.0), (100.0, 400.0)):
            got = auroc(chi_spec(16.0, nc0=nc0, nc1=nc1))
            assert abs(got - exact_auroc(16.0, nc1, nc0)) <= 2e-12

    def test_wide_noncentral_null_in_blocks(self):
        """A null window of about 670 terms against three alternatives holds
        1.4e6 (j, k) pairs, more than MAX_TERMS: they are summed in blocks,
        each row still equal to its one-law call."""
        spec = chi_spec(16.0, nc0=4000.0, nc1=4000.0)
        ncs = [4000.0, 4200.0, 4400.0]
        areas = auroc_family(spec, [ResidualLaw.chi_square(16.0, nc) for nc in ncs])
        for nc, area in zip(ncs, areas):
            assert _bits(area) == _bits(auroc(chi_spec(16.0, nc0=4000.0, nc1=nc)))
            assert abs(area - exact_auroc(16.0, nc, 4000.0)) <= 2e-12

    def test_far_alternative_is_one(self):
        """The window comes from the Poisson tail bounds, not a fixed width."""
        assert abs(auroc(chi_spec(16.0, nc1=1e5)) - 1.0) <= 1e-12
        assert auroc(chi_spec(16.0, nc1=0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_gaussian_matches_monte_carlo(self):
        gen = np.random.default_rng(11)
        dp = PrivacyParams.gaussian_output(nu_mean=0.5, nu_sigma=2.0)
        spec = gaussian_spec(10.0, 1.0, 13.0, 16.0, dp=dp)
        n = 10**6
        x0 = gen.normal(10.5, math.sqrt(1.0 + 4.0), n)
        x1 = gen.normal(13.5, math.sqrt(16.0 + 4.0), n)
        hat = float(np.mean(x1 > x0))
        got = auroc(spec)
        assert got == pytest.approx(stats.norm.cdf(3.0 / math.sqrt(25.0)), abs=1e-15)
        assert abs(hat - got) <= 4.0 * math.sqrt(got * (1.0 - got) / n)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.one_of(chi_families(), gaussian_families()))
    def test_family_rows_equal_per_law_calls(self, case):
        spec, alternatives = case
        areas = auroc_family(spec, alternatives)
        assert areas.shape == (len(alternatives),)
        for law, area in zip(alternatives, areas):
            law_spec = replace(spec, law1=law)
            assert _bits(area) == _bits(auroc(law_spec))
            # The area is the curve's, wherever its operating points sit.
            assert auroc(replace(law_spec, alpha=0.3, recalibrate_threshold=False)) \
                == auroc(law_spec)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dof=st.sampled_from([1.0, 4.0, 16.0, 181.0]),
           nc0=st.sampled_from([0.0, 0.5, 9.0]), gap=st.floats(0.0, 200.0),
           r_prime=st.sampled_from([0, 1, 5]),
           grid=hnp.arrays(float, st.integers(1, 12), elements=st.floats(1e-4, 0.999),
                           unique=True))
    def test_trapezoid_below_and_converging(self, dof, nc0, gap, r_prime, grid):
        """A monotone likelihood ratio makes the ROC concave: every trapezoid
        over its points is at most the exact area, and refining a grid (adding
        the midpoints) can only close the gap."""
        dp = PrivacyParams.chi_square(r_prime=r_prime) if r_prime else None
        spec = chi_spec(dof, nc0=nc0, nc1=nc0 + gap, dp=dp)
        exact = auroc(spec)
        grid = np.sort(grid)
        gaps = []
        for _ in range(3):
            pfa, pd = pfa_pd(replace(spec, alpha=grid))
            gaps.append(exact - RocCurve.from_points(np.column_stack((pfa, pd))).auroc)
            grid = np.sort(np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]),
                                           [0.5 * grid[0], 0.5 * (grid[-1] + 1.0)]]))
        assert gaps[0] >= -2e-12
        assert gaps[2] <= gaps[1] + 1e-12 and gaps[1] <= gaps[0] + 1e-12

    def test_roc_carries_the_exact_area(self):
        spec = chi_spec(16.0, nc1=2.848, dp=PrivacyParams.chi_square(r_prime=1))
        curve = roc(spec)
        assert curve.auroc == auroc(spec)
        assert curve.auroc > RocCurve.from_points(curve.points).auroc

    def test_no_alternatives_and_zero_dof(self):
        assert auroc_family(chi_spec(6.0), []).shape == (0,)
        with pytest.raises(NoResidualError):
            auroc(chi_spec(0.0, dp=PrivacyParams.chi_square(r_prime=2)))
        with pytest.raises(ValueError, match="degrees of freedom"):
            auroc_family(chi_spec(6.0), [ResidualLaw.chi_square(10.0, 1.0)])

    def test_draws_no_curve_point(self, monkeypatch):
        """auroc evaluates no tail and inverts no threshold."""
        def refuse(*args, **kwargs):
            raise AssertionError("called")
        monkeypatch.setattr(detection, "marcum_q", refuse)
        monkeypatch.setattr(detection, "regularized_gamma_q_inverse", refuse)
        assert 0.5 < auroc(chi_spec(16.0, nc1=2.848)) < 1.0


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


def oracle_release_noise(dp, gen, trials):
    """One hypothesis's release noise, drawn without the package's helper."""
    if dp.mechanism is Mechanism.CHI_SQUARE:
        return noncentral_chisq_sample(float(dp.r_prime), 0.0, gen, size=trials)
    return gen.normal(dp.nu_mean, dp.nu_sigma, size=trials)


def two_array_wssr(model, attack, x, spec, trials, gen):
    """Released statistics from one un-blocked trials x m noise draw: H1's
    measurements are H0's plus the attack, then H0's and H1's release noise."""
    z0 = (model.H @ x)[None, :] + model.sigma * gen.standard_normal((trials, model.m))
    z1 = z0 + attack.a
    q0, q1 = wssr(model, z0), wssr(model, z1)
    if spec.dp is None:
        return q0, q1
    return (q0 + oracle_release_noise(spec.dp, gen, trials),
            q1 + oracle_release_noise(spec.dp, gen, trials))


class TestStreamedSimulation:
    @pytest.mark.parametrize("m, n, lam", [(12, 18, 1.0), (30, 4, 0.0)],
                             ids=["ridge-m<=n", "lam0-m>n"])
    @pytest.mark.parametrize("dp", [
        None,
        PrivacyParams.chi_square(r_prime=2),
        PrivacyParams.gaussian_output(nu_mean=0.3, nu_sigma=1.5),
    ], ids=["none", "chi_square", "gaussian_output"])
    def test_matches_two_array_path(self, rng, monkeypatch, m, n, lam, dp):
        """Many small blocks give the statistics and counts of one big batch."""
        model = random_model(rng, m, n, lam=lam)
        x = rng.normal(size=n)
        attack = AttackVector.sparse(m, [1, m - 2], [2.0, -1.5])
        if dp is not None and dp.mechanism is Mechanism.GAUSSIAN_OUTPUT:
            spec = gaussian_spec(float(m), 2.0 * m, float(m) + 4.0, 2.0 * m, dp=dp)
        else:
            spec = TestSpec(alpha=0.05, law0=residual_law(model, x, None),
                            law1=residual_law(model, x, attack), dp=dp)
        trials = 2003  # 286 blocks of 7 rows and one of 1
        monkeypatch.setattr(detection, "MC_BLOCK_ELEMS", 7 * m + 3)

        q0, q1 = detection._released_wssr(model, attack, x, spec, trials,
                                          SeedStream(5).generator)
        r0, r1 = two_array_wssr(model, attack, x, spec, trials, SeedStream(5).generator)
        np.testing.assert_allclose(q0, r0, rtol=1e-12)
        np.testing.assert_allclose(q1, r1, rtol=1e-12)
        target = float(np.quantile(r0, 0.8))  # a threshold both hypotheses straddle
        law0 = spec.law0
        alpha = stats.chi2.sf(target, law0.dof) if law0.regime is Regime.CHI_SQUARE \
            else stats.norm.sf((target - law0.mean) / math.sqrt(law0.variance))
        result = monte_carlo_validate(model, attack, replace(spec, alpha=float(alpha)),
                                      trials, SeedStream(5), x_true=x, check=False)
        counts = (round(result.pfa_hat * trials), round(result.pd_hat * trials))
        tau = result.threshold
        assert counts == (np.count_nonzero(r0 > tau), np.count_nonzero(r1 > tau))
        assert 0 < counts[0] < trials and 0 < counts[1] < trials

    @pytest.mark.parametrize("dp", [
        None,
        PrivacyParams.chi_square(r_prime=2),
        PrivacyParams.gaussian_output(nu_mean=0.3, nu_sigma=1.5),
    ], ids=["none", "chi_square", "gaussian_output"])
    def test_one_noise_draw_per_trial(self, rng, monkeypatch, dp):
        """The trials consume one trials x m normal draw between them, then
        the release noise; with no attack and no release, H1 is H0 exactly."""
        m, n, trials = 12, 4, 1001
        model = random_model(rng, m, n)
        x = rng.normal(size=n)
        attack = AttackVector.sparse(m, [1, m - 2], [2.0, -1.5])
        if dp is not None and dp.mechanism is Mechanism.GAUSSIAN_OUTPUT:
            spec = gaussian_spec(float(m), 2.0 * m, float(m) + 4.0, 2.0 * m, dp=dp)
        else:
            law = residual_law(model, x, None)
            spec = TestSpec(alpha=0.05, law0=law, law1=law, dp=dp)
        monkeypatch.setattr(detection, "MC_BLOCK_ELEMS", 7 * m + 3)

        gen = SeedStream(6).generator
        detection._released_wssr(model, attack, x, spec, trials, gen)
        ref = SeedStream(6).generator
        ref.standard_normal((trials, m))
        if dp is not None:
            oracle_release_noise(dp, ref, trials)
            oracle_release_noise(dp, ref, trials)
        assert gen.standard_normal(8).tobytes() == ref.standard_normal(8).tobytes()

        if dp is None:
            q0, q1 = detection._released_wssr(model, None, x, spec, trials,
                                              SeedStream(6).generator)
            assert q1.tobytes() == q0.tobytes()

    def test_one_projection_per_block(self, rng, monkeypatch):
        """H0's wssr is the only projection of a block; H1 reuses it."""
        m, n, trials = 12, 4, 2003
        model = random_model(rng, m, n)
        attack = AttackVector.sparse(m, [1, m - 2], [2.0, -1.5])
        law = residual_law(model, np.zeros(n), None)
        spec = TestSpec(alpha=0.05, law0=law, law1=law)
        monkeypatch.setattr(detection, "MC_BLOCK_ELEMS", 7 * m + 3)
        calls = []

        def counted(model, z):
            calls.append(len(z))
            return wssr(model, z)

        monkeypatch.setattr(detection, "wssr", counted)
        detection._released_wssr(model, attack, np.zeros(n), spec, trials,
                                 SeedStream(8).generator)
        assert len(calls) == math.ceil(trials / 7)
        assert sum(calls) == trials

    def test_logs_block_layout_and_times(self, rng, monkeypatch, caplog):
        m, n, trials = 12, 4, 1001
        model = random_model(rng, m, n)
        law = residual_law(model, np.zeros(n), None)
        spec = TestSpec(alpha=0.05, law0=law, law1=law,
                        dp=PrivacyParams.chi_square(r_prime=1))
        monkeypatch.setattr(detection, "MC_BLOCK_ELEMS", 7 * m + 3)
        with caplog.at_level("DEBUG", logger="dpresidual.detection"):
            detection._released_wssr(model, None, np.zeros(n), spec, trials,
                                     SeedStream(8).generator)
        line, stage = [r.getMessage() for r in caplog.records]
        match = re.fullmatch(r"monte carlo: 1001 trials in 143 blocks of 7 rows; "
                             r"drawing (\d+\.\d{3}) s, scoring (\d+\.\d{3}) s", line)
        assert match
        # The stage is the sum of the two, each rounded on its own.
        assert re.fullmatch(r"stage monte_carlo: \d+\.\d{3} s", stage)
        assert abs(float(stage.split()[-2]) - sum(map(float, match.groups()))) <= 0.0015

    def test_memory_bounded_by_block(self, rng):
        """Peak traced memory stays far below one trials x m batch."""
        trials, m, n = 50_000, 200, 20
        model = random_model(rng, m, n)
        law = residual_law(model, np.zeros(n), None)
        spec = TestSpec(alpha=0.05, law0=law, law1=law,
                        dp=PrivacyParams.chi_square(r_prime=1))
        tracemalloc.start()
        try:
            monte_carlo_validate(model, None, spec, trials, SeedStream(9), check=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < trials * m * 8 / 4


class TestShiftedScoring:
    """H1's statistic from H0's plus the attack's cross term against a
    second projection of the shifted measurements."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=st.sampled_from([("m<=n", 1e-3, 10.0), ("m>n", 0.0, 0.0),
                              ("m>n", 1e-3, 10.0)]),
        shape=st.tuples(st.integers(1, 12), st.integers(0, 8)),
        sigma=st.floats(0.1, 10.0),
        lam_unit=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        attack=hnp.arrays(float, 21, elements=st.floats(-1e3, 1e3)),
    )
    # An attack almost inside col(H): one projection of its off-column part
    # leaves rounding in col(H) that z's mean H x amplifies past the bound.
    @example(case=("m>n", 0.0, 0.0), shape=(11, 0), sigma=1.0, lam_unit=0.0, seed=0,
             attack=np.array([0.0] * 5 + [-130.0, -607.0] + [0.0] * 14))
    def test_cross_term_matches_second_projection(self, case, shape, sigma, lam_unit,
                                                  seed, attack):
        branch, lam_lo, lam_hi = case
        small, extra = shape
        m, n = (small, small + extra) if branch == "m<=n" else (small + extra + 1, small)
        lam = lam_lo + (lam_hi - lam_lo) * lam_unit
        gen = np.random.default_rng(seed)
        model = random_model(gen, m, n, sigma=sigma, lam=lam)
        x = gen.normal(size=n)
        a = attack[:m]
        law = ResidualLaw.chi_square(1.0)
        spec = TestSpec(alpha=0.05, law0=law, law1=law)
        trials = 53
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detection, "MC_BLOCK_ELEMS", 7 * m + 3)
            q0, q1 = detection._released_wssr(model, a, x, spec, trials,
                                              SeedStream(seed).generator)
            zero0, zero1 = detection._released_wssr(model, np.zeros(m), x, spec, trials,
                                                    SeedStream(seed).generator)
        z0 = model.H @ x + sigma * SeedStream(seed).generator.standard_normal((trials, m))
        np.testing.assert_allclose(q0, wssr(model, z0), rtol=1e-12)
        ref = wssr(model, z0 + a)
        slack = 1e-12 * (q0 + wssr(model, a))
        assert np.all(np.abs(q1 - ref) <= 1e-12 * ref + slack)
        assert zero0.tobytes() == q0.tobytes()
        assert zero1.tobytes() == zero0.tobytes()


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
