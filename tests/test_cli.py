"""End-to-end CLI behavior: schemas, determinism, exit codes, artifacts."""

import json
import math

import numpy as np
import pytest
import yaml

from dpresidual import (
    NeighborhoodSpec,
    Regime,
    delta_max_over_neighborhood,
    gaussian_mechanism_sigma,
    wssr,
)
from dpresidual.cli import _build_instance, _laws_for_roc, main
from dpresidual.config import (
    STREAM_SCAN,
    build_attack,
    build_model,
    derive_streams,
    load_config,
)
from dpresidual.csvio import read_csv


BASE_CONFIG = {
    "model": {"m": 12, "n": 4, "sigma": 1.0, "lambda": 0.0},
    "attack": {"indices": [2, 7], "values": [2.0, -1.5]},
    "dp": {"mechanism": "chi_square", "epsilon": 2.0, "delta": 0.1, "r_prime": 1},
    "test": {"alpha": 0.05},
    "mc": {"trials": 20000, "seed": 3, "workers": 1},
}


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


@pytest.fixture
def config_path(tmp_path):
    return write_config(tmp_path, BASE_CONFIG)


class TestSimulate:
    def test_fixed_seed_is_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config_path), "--out", str(out2)]) == 0
        assert (out1 / "measurements.csv").read_bytes() == \
            (out2 / "measurements.csv").read_bytes()
        assert (out1 / "truth.json").read_bytes() == (out2 / "truth.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config_path), "--out", str(out1)])
        main(["simulate", "--config", str(config_path), "--out", str(out2),
              "--seed", "99"])
        assert (out1 / "measurements.csv").read_bytes() != \
            (out2 / "measurements.csv").read_bytes()

    def test_schema_violation_names_key(self, tmp_path, capsys):
        doc = {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "lambda": -0.5}}
        path = write_config(tmp_path, doc)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "model.lambda" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "rows": 3}}
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "model.rows" in capsys.readouterr().err

    def test_truth_sidecar_contents(self, tmp_path, config_path):
        out = tmp_path / "o"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth["x_true"]) == 4
        assert len(truth["attack"]) == 12
        assert truth["seed"] == 3
        assert truth["attack"][2] == 2.0


class TestEstimate:
    def test_rejects_foreign_measurements(self, tmp_path, config_path, capsys):
        """Measurements from another seed cannot be paired with this model."""
        out = tmp_path / "o"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        code = main(["estimate", "--config", str(config_path), "--out", str(out),
                     "--seed", "99"])
        assert code == 2
        assert "config_hash" in capsys.readouterr().err

    def test_round_trip_reproduces_wssr(self, tmp_path, config_path):
        """The CSV round trip agrees with the in-process residual statistic."""
        out = tmp_path / "o"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        main(["estimate", "--config", str(config_path), "--out", str(out)])
        estimate = json.loads((out / "estimate.json").read_text())

        config = load_config(config_path)
        streams = derive_streams(config.mc.seed)
        model = build_model(config.model, streams[0])
        _, _, rows = read_csv(out / "measurements.csv")
        z = np.array([float(r[1]) for r in rows])
        assert estimate["wssr"] == pytest.approx(float(wssr(model, z)), abs=1e-12)
        assert estimate["dof"] == 8


class TestPrivatize:
    def test_chi_release_document(self, tmp_path, config_path):
        out = tmp_path / "o"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert main(["privatize", "--config", str(config_path), "--out", str(out)]) == 0
        release = json.loads((out / "release.json").read_text())
        assert release["mechanism"] == "chi_square"
        assert release["law"]["dof"] == 9.0  # 8 residual dof + 1 noise dof
        assert release["value"] >= 0.0
        assert release["seed_record"] is not None

    def test_production_mode_drops_seed_record(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setenv("DP_RESIDUAL_PRODUCTION", "1")
        out = tmp_path / "o"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        main(["privatize", "--config", str(config_path), "--out", str(out)])
        release = json.loads((out / "release.json").read_text())
        assert release["seed_record"] is None

    def test_input_perturbation_release(self, tmp_path):
        doc = {**BASE_CONFIG,
               "dp": {"mechanism": "gaussian_input", "epsilon": 6.0, "delta": 0.1}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        main(["simulate", "--config", str(path), "--out", str(out)])
        assert main(["privatize", "--config", str(path), "--out", str(out)]) == 0
        release = json.loads((out / "release.json").read_text())
        assert release["mechanism"] == "gaussian_input"
        assert len(release["z_tilde"]) == 12
        assert release["epsilon_per_element"] == pytest.approx(0.5)


class TestDeltaCurve:
    @pytest.fixture
    def curve_config(self, tmp_path):
        doc = {**BASE_CONFIG,
               "dp": {**BASE_CONFIG["dp"],
                      "epsilon_grid": [1.0, 2.0, 4.0, 8.0],
                      "neighborhood": {"delta_h_bound": 0.1, "scan_count": 200,
                                       "theta_domain": [0.2, 1.2], "grid_points": 7}}}
        return write_config(tmp_path, doc)

    def test_columns_and_monotone_delta(self, tmp_path, curve_config):
        out = tmp_path / "o"
        assert main(["delta-curve", "--config", str(curve_config), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "delta_curve.csv")
        assert columns == ["epsilon", "delta", "argmax_theta", "argmax_theta_prime"]
        deltas = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_single_point_matches_library_call(self, tmp_path):
        doc = {**BASE_CONFIG,
               "dp": {**BASE_CONFIG["dp"],
                      "epsilon_grid": [3.0],
                      "neighborhood": {"delta_h_bound": 0.1, "scan_count": 50,
                                       "theta_domain": [0.2, 1.2], "grid_points": 5}}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        main(["delta-curve", "--config", str(path), "--out", str(out)])
        _, _, rows = read_csv(out / "delta_curve.csv")

        config = load_config(path)
        streams = derive_streams(config.mc.seed)
        model = build_model(config.model, streams[0])
        attack = build_attack(config.attack, model)
        child = streams[STREAM_SCAN].spawn(1)[0]
        spec = NeighborhoodSpec(delta_h_bound=0.1, scan_count=50,
                                theta_domain=(0.2, 1.2), grid_points=5)
        direct = delta_max_over_neighborhood(3.0, model, attack, 1, spec, child)
        assert float(rows[0][1]) == pytest.approx(direct.delta, rel=1e-12)


class TestRocAndValidate:
    def test_roc_outputs(self, tmp_path, config_path):
        out = tmp_path / "o"
        assert main(["roc", "--config", str(config_path), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "roc.csv")
        assert columns == ["alpha", "pfa", "pd", "mechanism", "params"]
        _, _, auroc_rows = read_csv(out / "auroc.csv")
        assert 0.0 <= float(auroc_rows[0][2]) <= 1.0

    def test_validate_passes_consistent_config(self, tmp_path, config_path):
        out = tmp_path / "o"
        assert main(["validate", "--config", str(config_path), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "validation.csv")
        assert columns == ["quantity", "analytic", "empirical", "se"]
        assert {r[0] for r in rows} == {"pfa", "pd"}

    def test_validate_input_perturbation(self, tmp_path):
        """The input-perturbed pipeline simulates the inflated-noise model."""
        doc = {**BASE_CONFIG,
               "dp": {"mechanism": "gaussian_input", "epsilon": 12.0, "delta": 0.1},
               "mc": {"trials": 30000, "seed": 2, "workers": 1}}
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0

    def test_validate_exit_code_on_bad_analytics(self, tmp_path, capsys):
        """A too-small system makes the gaussian approximation fail the check."""
        doc = {"model": {"m": 6, "n": 2, "sigma": 1.0, "lambda": 0.0},
               "attack": {"indices": [1], "values": [3.0]},
               "dp": {"mechanism": "gaussian_output", "epsilon": 1.0, "delta": 0.1,
                      "nu_mean": 0.0, "nu_sigma": 0.001},
               "test": {"alpha": 0.05},
               "mc": {"trials": 100000, "seed": 1, "workers": 1}}
        path = write_config(tmp_path, doc)
        code = main(["validate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "standard errors" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        """Rank-deficient CSV-sourced matrix with lambda = 0 exits 3."""
        model_csv = tmp_path / "H.csv"
        model_csv.write_text(
            "# schema: dpresidual-model/1\n# m: 3\n# n: 2\n# sigma: 1.0\n# lambda: 0.0\n"
            "1.0,2.0\n2.0,4.0\n3.0,6.0\n")
        doc = {**BASE_CONFIG,
               "model": {"m": 3, "n": 2, "sigma": 1.0, "lambda": 0.0,
                         "matrix_source": str(model_csv)}}
        doc.pop("attack")
        path = write_config(tmp_path, doc)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err


class TestFigures:
    def test_attack_strength_outputs(self, tmp_path):
        out = tmp_path / "f3"
        assert main(["figures", "--which", "fig3", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "fig3_auroc.csv")
        assert columns == ["delta_theta", "auroc"]
        by_gap = {float(r[0]): float(r[1]) for r in rows}
        assert by_gap[0.0] == pytest.approx(0.5, abs=0.005)
        gaps = sorted(by_gap)
        assert all(by_gap[a] <= by_gap[b] + 1e-9 for a, b in zip(gaps, gaps[1:]))

    def test_input_budget_sweep(self, tmp_path):
        out = tmp_path / "f4"
        assert main(["figures", "--which", "fig4", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "fig4_auroc.csv")
        assert columns == ["delta_theta", "epsilon", "epsilon_per_element",
                           "k_factor", "auroc"]
        first = [r for r in rows if float(r[0]) == 5.0]
        aurocs = [float(r[4]) for r in first]
        assert all(b >= a - 1e-9 for a, b in zip(aurocs, aurocs[1:]))

    def test_release_noise_auroc_strictly_decreasing(self, tmp_path):
        out = tmp_path / "f5"
        assert main(["figures", "--which", "fig5", "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "fig5_auroc.csv")
        aurocs = [float(r[1]) for r in rows]
        assert all(b < a for a, b in zip(aurocs, aurocs[1:]))

    def test_metrics_at_zero_noise(self, tmp_path):
        out = tmp_path / "f6"
        assert main(["figures", "--which", "fig6", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "fig6_metrics.csv")
        assert columns == ["nu_sigma", "pfa", "pd", "pfa_mc", "pd_mc"]
        assert float(rows[0][1]) == pytest.approx(0.05, abs=1e-9)
        assert float(rows[0][3]) == pytest.approx(0.05, abs=0.005)  # MC column
        pfas = [float(r[1]) for r in rows]
        pds = [float(r[2]) for r in rows]
        assert all(b > a for a, b in zip(pfas, pfas[1:]))
        assert all(b < a for a, b in zip(pds, pds[1:]))


class TestDeterminism:
    def test_all_artifact_commands_byte_identical(self, tmp_path):
        """Fixed seed and workers=1 reproduce every output byte for byte."""
        doc = {**BASE_CONFIG,
               "dp": {**BASE_CONFIG["dp"],
                      "epsilon_grid": [1.0, 4.0],
                      "neighborhood": {"delta_h_bound": 0.1, "scan_count": 100,
                                       "theta_domain": [0.2, 1.2], "grid_points": 5}},
               "mc": {"trials": 5000, "seed": 11, "workers": 1}}
        path = write_config(tmp_path, doc)
        outputs = {}
        for run in ("a", "b"):
            out = tmp_path / run
            for args in (["simulate"], ["estimate"], ["privatize"], ["delta-curve"],
                         ["roc"], ["validate"], ["figures", "--which", "fig6"]):
                extra = [] if args[0] == "figures" else []
                assert main(args + ["--config", str(path), "--out", str(out)] + extra) == 0
            outputs[run] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs["a"] == outputs["b"]


class TestCliMisc:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_section_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, {"test": {"alpha": 0.5}})
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "model" in capsys.readouterr().err

    def test_workers_flag_accepted(self, tmp_path, config_path):
        out = tmp_path / "o"
        assert main(["validate", "--config", str(config_path), "--out", str(out),
                     "--workers", "2"]) == 0

    def test_chi_mechanism_rejected_on_ridge_model(self, tmp_path, capsys):
        doc = {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "lambda": 0.5}}
        path = write_config(tmp_path, doc)
        code = main(["roc", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "gaussian_output" in capsys.readouterr().err

    def test_ridge_model_routes_to_gaussian_analytics(self, tmp_path):
        doc = {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "lambda": 0.5}}
        doc.pop("dp")
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["roc", "--config", str(path), "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "auroc.csv")
        assert 0.5 <= float(rows[0][2]) <= 1.0


DP_BY_MECHANISM = {
    "none": None,
    "chi_square": {"mechanism": "chi_square", "epsilon": 2.0, "delta": 0.1,
                   "r_prime": 1},
    "gaussian_output": {"mechanism": "gaussian_output", "epsilon": 2.0,
                        "delta": 0.1, "nu_mean": 0.0, "nu_sigma": 1.0},
    "gaussian_input": {"mechanism": "gaussian_input", "epsilon": 12.0,
                       "delta": 0.1},
}
# Unit noise inflated by sqrt(1 + k), k = sigma_w^2 at per-element budget eps / m.
INFLATED_SIGMA = math.sqrt(
    1.0 + gaussian_mechanism_sigma(1.0, 12.0 / BASE_CONFIG["model"]["m"], 0.1) ** 2)


class TestLawSelection:
    """One law-selection rule over every (lambda, mechanism) pair."""

    @pytest.mark.parametrize("lam,mechanism,regime,has_params,sim_sigma", [
        (0.0, "none", Regime.CHI_SQUARE, False, 1.0),
        (0.0, "chi_square", Regime.CHI_SQUARE, True, 1.0),
        (0.0, "gaussian_output", Regime.GAUSSIAN, True, 1.0),
        (0.0, "gaussian_input", Regime.CHI_SQUARE, False, INFLATED_SIGMA),
        (1.0, "none", Regime.GAUSSIAN, False, 1.0),
        (1.0, "chi_square", None, None, None),
        (1.0, "gaussian_output", Regime.GAUSSIAN, True, 1.0),
        (1.0, "gaussian_input", Regime.GAUSSIAN, False, INFLATED_SIGMA),
    ])
    def test_rule(self, tmp_path, capsys, lam, mechanism, regime, has_params,
                  sim_sigma):
        doc = {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "lambda": lam}}
        doc.pop("dp")
        if DP_BY_MECHANISM[mechanism] is not None:
            doc["dp"] = DP_BY_MECHANISM[mechanism]
        path = write_config(tmp_path, doc)
        if regime is None:
            code = main(["roc", "--config", str(path), "--out", str(tmp_path / "o")])
            assert code == 2
            assert "gaussian_output" in capsys.readouterr().err
            return
        config = load_config(path)
        _, model, x_true, attack = _build_instance(config, config.mc.seed)
        law0, law1, params, label, sim_model = _laws_for_roc(config, model, x_true, attack)
        assert law0.regime is regime and law1.regime is regime
        assert label == mechanism
        assert (params is not None) == has_params
        assert sim_model.sigma == pytest.approx(sim_sigma, rel=1e-12)
        assert sim_model.lam == lam
