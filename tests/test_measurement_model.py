"""Measurement models, projectors, neighbors, reductions, and attacks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpresidual import (
    AttackVector,
    MeasurementModel,
    NeighborPerturbation,
    RankDeficiencyError,
    SeedStream,
    SingularUpdateError,
    apply_neighbor,
    gsp_reduce,
    load_model_csv,
    neighbor_projection_update,
    neighbor_roots,
    projection_matrix,
    save_model_csv,
    simulate_measurements,
    stealth_attack,
    wssr,
)
from conftest import random_model


class TestMeasurementModel:
    def test_basic_construction(self, rng):
        model = random_model(rng, 8, 3, sigma=0.7, lam=0.2)
        assert (model.m, model.n) == (8, 3)
        assert not model.H.flags.writeable

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_sigma_positive(self, rng, sigma):
        with pytest.raises(ValueError):
            MeasurementModel(H=rng.normal(size=(4, 2)), sigma=sigma)

    def test_lambda_nonnegative(self, rng):
        with pytest.raises(ValueError):
            MeasurementModel(H=rng.normal(size=(4, 2)), sigma=1.0, lam=-0.1)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_lambda_finite(self, rng, lam):
        with pytest.raises(ValueError, match="lambda must be finite"):
            MeasurementModel(H=rng.normal(size=(4, 2)), sigma=1.0, lam=lam)

    def test_rank_checked_without_ridge(self, rng):
        H = rng.normal(size=(5, 3))
        H[:, 2] = H[:, 0] + H[:, 1]
        with pytest.raises(RankDeficiencyError):
            MeasurementModel(H=H, sigma=1.0)
        MeasurementModel(H=H, sigma=1.0, lam=0.5)  # ridge lifts the requirement

    def test_underdetermined_needs_ridge(self, rng):
        with pytest.raises(RankDeficiencyError):
            MeasurementModel(H=rng.normal(size=(3, 6)), sigma=1.0)
        model = MeasurementModel(H=rng.normal(size=(3, 6)), sigma=1.0, lam=1.0)
        assert model.n == 6

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MeasurementModel(H=np.array([[1.0], [np.nan]]), sigma=1.0)


class TestAttackVector:
    def test_sparse_construction(self):
        a = AttackVector.sparse(6, [1, 4], [2.0, -3.0])
        assert a.support == (1, 4)
        np.testing.assert_array_equal(a.a, [0, 2.0, 0, 0, -3.0, 0])

    def test_zero(self):
        assert AttackVector.zero(4).support == ()

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            AttackVector.sparse(3, [3], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            AttackVector.sparse(3, [0, 1], [1.0])

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            AttackVector.sparse(6, [2, 4, 2], [2.0, 1.0, -1.5])


class TestProjectionMatrix:
    def test_hand_computable(self):
        model = MeasurementModel(H=np.array([[1.0], [0.0]]), sigma=1.0)
        proj = projection_matrix(model)
        np.testing.assert_allclose(proj.matrix, np.diag([0.0, 1.0]), atol=1e-14)
        assert proj.rank == 1

    def test_idempotent_and_annihilating(self, rng):
        for _ in range(30):
            m = int(rng.integers(3, 30))
            n = int(rng.integers(1, m))
            model = random_model(rng, m, n)
            P = projection_matrix(model).matrix
            assert np.max(np.abs(P @ P - P)) <= 1e-10
            assert np.max(np.abs(P @ model.H)) <= 1e-10
            assert np.trace(P) == pytest.approx(m - n, abs=1e-8)

    def test_ridge_matches_svd_construction(self, rng):
        """The SVD-built projector equals I - H (H^T H + lam sigma^2 I)^{-1} H^T."""
        model = random_model(rng, 8, 3, sigma=1.0, lam=0.5)
        H = model.H
        gram = H.T @ H + model.lam * model.sigma**2 * np.eye(model.n)
        P_ref = np.eye(model.m) - H @ np.linalg.solve(gram, H.T)
        np.testing.assert_allclose(projection_matrix(model).matrix, P_ref, atol=1e-10)

    def test_ridge_rank_full(self, rng):
        model = random_model(rng, 6, 4, lam=0.3)
        assert projection_matrix(model).rank == 6

    def test_square_model_zero_projector(self, rng):
        model = random_model(rng, 4, 4)
        proj = projection_matrix(model)
        assert proj.rank == 0
        assert np.max(np.abs(proj.matrix)) <= 1e-10


class TestSimulateMeasurements:
    def test_tiny_noise_recovers_mean(self, rng, stream):
        model = random_model(rng, 6, 2, sigma=1e-12)
        x = rng.normal(size=2)
        z = simulate_measurements(model, x, None, stream)
        np.testing.assert_allclose(z, model.H @ x, atol=1e-9)

    def test_deterministic_under_seed(self, rng):
        model = random_model(rng, 5, 2)
        x = np.ones(2)
        z1 = simulate_measurements(model, x, None, SeedStream(3))
        z2 = simulate_measurements(model, x, None, SeedStream(3))
        np.testing.assert_array_equal(z1, z2)

    def test_attack_enters_additively(self, rng):
        model = random_model(rng, 5, 2, sigma=1e-12)
        attack = AttackVector.sparse(5, [2], [4.0])
        x = np.zeros(2)
        z = simulate_measurements(model, x, attack, SeedStream(0))
        assert z[2] == pytest.approx(4.0, abs=1e-9)

    def test_residual_covariance(self, rng):
        model = random_model(rng, 6, 2, sigma=0.8)
        x = rng.normal(size=2)
        Z = simulate_measurements(model, x, None, SeedStream(11), trials=10**5)
        resid = Z - model.H @ x
        cov = np.cov(resid.T)
        n = Z.shape[0]
        se_diag = model.sigma**2 * np.sqrt(2.0 / n)
        se_off = model.sigma**2 / np.sqrt(n)
        diff = cov - model.sigma**2 * np.eye(6)
        assert np.max(np.abs(np.diag(diff))) <= 3 * se_diag
        off = diff[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) <= 3.5 * se_off

    @pytest.mark.parametrize("trials", [None, 37])
    def test_out_fill_matches_allocating_draw(self, rng, trials):
        model = random_model(rng, 6, 2, sigma=0.8)
        x = rng.normal(size=2)
        attack = AttackVector.sparse(6, [4], [3.0])
        shape = (6,) if trials is None else (trials, 6)
        out = np.full(shape, np.nan)
        got = simulate_measurements(model, x, attack, SeedStream(8), trials=trials, out=out)
        assert got is out
        ref = simulate_measurements(model, x, attack, SeedStream(8), trials=trials)
        np.testing.assert_array_equal(out, ref)
        formula = model.H @ x + attack.a + 0.8 * SeedStream(8).generator.standard_normal(shape)
        np.testing.assert_array_equal(out, formula)

    @pytest.mark.parametrize("trials, out", [
        (None, np.empty(5)),
        (4, np.empty((5, 6))),
        (4, np.empty((4, 5))),
        (4, np.empty((4, 6), dtype=np.float32)),
        (4, np.empty((4, 12))[:, ::2]),
    ], ids=["vector", "rows", "cols", "dtype", "strided"])
    def test_out_wrong_shape_rejected(self, rng, trials, out):
        model = random_model(rng, 6, 2)
        with pytest.raises(ValueError, match="out must be"):
            simulate_measurements(model, np.ones(2), None, SeedStream(0),
                                  trials=trials, out=out)

    def test_dimension_mismatch(self, rng, stream):
        model = random_model(rng, 5, 2)
        with pytest.raises(ValueError):
            simulate_measurements(model, np.ones(3), None, stream)
        with pytest.raises(ValueError):
            simulate_measurements(model, np.ones(2), AttackVector.zero(4), stream)


class TestNeighbors:
    def test_zero_perturbation_is_identity(self, rng):
        model = random_model(rng, 7, 3)
        pert = NeighborPerturbation(row_index=2, delta_h=np.zeros(3))
        np.testing.assert_array_equal(apply_neighbor(model, pert).H, model.H)

    def test_exactly_one_row_changes(self, rng):
        model = random_model(rng, 7, 3)
        pert = NeighborPerturbation(row_index=4, delta_h=rng.normal(size=3))
        diff = apply_neighbor(model, pert).H - model.H
        nonzero_rows = np.flatnonzero(np.max(np.abs(diff), axis=1))
        np.testing.assert_array_equal(nonzero_rows, [4])

    def test_update_zero_perturbation(self, rng):
        model = random_model(rng, 6, 3)
        P = projection_matrix(model).matrix
        P_prime = neighbor_projection_update(
            model, NeighborPerturbation(row_index=1, delta_h=np.zeros(3)))
        np.testing.assert_allclose(P_prime, P, atol=1e-12)

    def test_update_matches_direct(self, rng):
        for _ in range(30):
            model = random_model(rng, 10, 4)
            pert = NeighborPerturbation(
                row_index=int(rng.integers(10)),
                delta_h=rng.normal(size=4) * rng.uniform(0.05, 2.0))
            P_updated = neighbor_projection_update(model, pert)
            P_direct = projection_matrix(apply_neighbor(model, pert)).matrix
            assert np.max(np.abs(P_updated - P_direct)) <= 1e-8

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 40).flatmap(lambda m: st.tuples(
               st.just(m), st.integers(1, m - 1), st.integers(0, m - 1))),
           st.floats(-3.0, math.log10(3.0)), st.booleans(), st.integers(0, 2**32 - 1))
    def test_update_matches_fresh_factor(self, shape, log_norm, gram_pivot, seed):
        """Any size and row, ||dh|| from 1e-3 to 3. ``gram_pivot`` takes
        dh = -H^T H h / (h^T h) instead, which zeroes the Sherman-Morrison
        pivot 1 + h^T (H^T H)^{-1} dh although the neighbour has full rank."""
        m, n, row = shape
        gen = np.random.default_rng(seed)
        model = random_model(gen, m, n)
        h = model.H[row]
        d = -model.H.T @ model.H @ h if gram_pivot else gen.normal(size=n)
        dh = d / (h @ h) if gram_pivot else d * 10**log_norm / np.linalg.norm(d)
        pert = NeighborPerturbation(row_index=row, delta_h=dh)
        np.testing.assert_allclose(neighbor_projection_update(model, pert),
                                   projection_matrix(apply_neighbor(model, pert)).matrix,
                                   rtol=0, atol=1e-8)

    def test_singular_gram_raises_and_root_is_nan(self):
        """Column 2 of H is e_2, and shifting row 2 by (0, 0, -1) zeroes it:
        the update and the roots flag the neighbour by the same rule."""
        for seed in range(20):
            gen = np.random.default_rng(seed)
            H = gen.normal(size=(6, 3))
            H[:, 2] = 0.0
            H[2, 2] = 1.0
            model = MeasurementModel(H=H, sigma=1.0)
            dh = np.array([0.0, 0.0, -1.0])
            with pytest.raises(SingularUpdateError):
                neighbor_projection_update(model, NeighborPerturbation(2, dh))
            root = neighbor_roots(model, gen.normal(size=6), [2], dh[None, :])
            assert np.isnan(root[0]), f"seed {seed}"

    def test_requires_unregularized_model(self, rng):
        model = random_model(rng, 6, 3, lam=0.5)
        with pytest.raises(ValueError):
            neighbor_projection_update(
                model, NeighborPerturbation(row_index=0, delta_h=np.zeros(3)))

    def test_neighbor_measurements_differ_in_one_coordinate(self, rng):
        """With noise and attack held fixed, only the perturbed row moves."""
        model = random_model(rng, 7, 3)
        pert = NeighborPerturbation(row_index=5, delta_h=rng.normal(size=3))
        neighbor = apply_neighbor(model, pert)
        x = rng.normal(size=3)
        attack = AttackVector.sparse(7, [1], [2.0])
        z = simulate_measurements(model, x, attack, SeedStream(17))
        z_prime = simulate_measurements(neighbor, x, attack, SeedStream(17))
        diff = np.flatnonzero(np.abs(z_prime - z) > 1e-12)
        np.testing.assert_array_equal(diff, [5])

    def test_worst_case_sensitivity_scan(self, rng):
        """Max noncentrality-root shift over unit row perturbations is finite
        and reproducible."""
        model = random_model(rng, 10, 4)
        attack = AttackVector.sparse(10, [3], [5.0])
        P = projection_matrix(model).matrix
        theta = np.linalg.norm(P @ attack.a) / model.sigma

        def scan(seed):
            gen = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(1000):
                d = gen.normal(size=4)
                pert = NeighborPerturbation(
                    row_index=int(gen.integers(10)), delta_h=d / np.linalg.norm(d))
                P_prime = neighbor_projection_update(model, pert)
                worst = max(worst, abs(np.linalg.norm(P_prime @ attack.a) / model.sigma - theta))
            return worst

        w = scan(0)
        assert w > 0.0
        assert scan(0) == w


class TestGspReduce:
    def test_identity_reduction(self, rng):
        model = random_model(rng, 8, 4)
        reduced = gsp_reduce(model, np.eye(4))
        np.testing.assert_array_equal(reduced.H, model.H)

    def test_reduced_projection_rank(self, rng):
        model = MeasurementModel(H=rng.normal(size=(8, 6)), sigma=1.0)
        q, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        reduced = gsp_reduce(model, q)
        assert reduced.n == 2
        assert projection_matrix(reduced).rank == 6

    def test_enables_underdetermined_residuals(self, rng):
        wide = MeasurementModel(H=rng.normal(size=(4, 7)), sigma=1.0, lam=1.0)
        q, _ = np.linalg.qr(rng.normal(size=(7, 2)))
        reduced = gsp_reduce(MeasurementModel(H=wide.H, sigma=1.0, lam=1.0), q)
        assert reduced.n == 2

    def test_rejects_nonorthonormal(self, rng):
        model = random_model(rng, 8, 4)
        with pytest.raises(ValueError):
            gsp_reduce(model, rng.normal(size=(4, 2)))

    def test_rejects_kappa_not_below_m(self, rng):
        model = MeasurementModel(H=rng.normal(size=(2, 2)), sigma=1.0)
        with pytest.raises(ValueError):
            gsp_reduce(model, np.eye(2))

    def test_stealth_exposed_by_mismatched_reduction(self, rng):
        model = random_model(rng, 8, 6)
        attack = stealth_attack(model, rng.normal(size=6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        reduced = gsp_reduce(model, q)
        P_red = projection_matrix(reduced).matrix
        nc = np.linalg.norm(P_red @ attack.a) ** 2 / reduced.sigma**2
        assert nc > 1e-6


class TestStealthAttack:
    def test_zero_coeffs(self, rng):
        model = random_model(rng, 6, 3)
        assert stealth_attack(model, np.zeros(3)).support == ()

    def test_projector_annihilates(self, rng):
        model = random_model(rng, 9, 4)
        attack = stealth_attack(model, rng.normal(size=4))
        P = projection_matrix(model).matrix
        assert np.linalg.norm(P @ attack.a) <= 1e-10 * np.linalg.norm(attack.a)

    def test_wssr_unchanged_for_same_noise(self, rng):
        model = random_model(rng, 9, 4)
        attack = stealth_attack(model, rng.normal(size=4))
        x = rng.normal(size=4)
        eta = rng.normal(size=9)
        clean = wssr(model, model.H @ x + eta)
        attacked = wssr(model, model.H @ x + eta + attack.a)
        assert attacked == pytest.approx(clean, rel=1e-10, abs=1e-12)

    def test_noncentrality_vanishes(self, rng):
        model = random_model(rng, 9, 4)
        attack = stealth_attack(model, rng.normal(size=4))
        P = projection_matrix(model).matrix
        assert np.linalg.norm(P @ attack.a) ** 2 / model.sigma**2 <= 1e-20

    def test_requires_unregularized_model(self, rng):
        model = random_model(rng, 6, 3, lam=0.2)
        with pytest.raises(ValueError):
            stealth_attack(model, np.zeros(3))


class TestModelCsv:
    def test_round_trip(self, rng, tmp_path):
        model = random_model(rng, 5, 3, sigma=0.4, lam=0.7)
        path = tmp_path / "model.csv"
        save_model_csv(model, path)
        loaded = load_model_csv(path)
        np.testing.assert_array_equal(loaded.H, model.H)
        assert loaded.sigma == model.sigma
        assert loaded.lam == model.lam

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema: something-else/9\n1.0\n")
        with pytest.raises(ValueError, match="schema"):
            load_model_csv(path)

    def test_shape_mismatch_detected(self, rng, tmp_path):
        model = random_model(rng, 4, 2)
        path = tmp_path / "model.csv"
        save_model_csv(model, path)
        text = path.read_text().replace("# m: 4", "# m: 5")
        path.write_text(text)
        with pytest.raises(ValueError, match="header declares"):
            load_model_csv(path)
