"""End-to-end CLI behavior: schemas, determinism, exit codes, artifacts."""

import json
import logging
import math

import numpy as np
import pytest
import yaml

from dpresidual import (
    Regime,
    ResidualLaw,
    RocCurve,
    TestSpec,
    delta_max_over_neighborhood,
    gaussian_mechanism_sigma,
    pfa_pd,
    released_law,
    roc,
    wssr,
)
from dpresidual import figures as figs
from dpresidual.detection import DEFAULT_ALPHA_GRID
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


# The demo model with a near-point theta_domain far from its root theta =
# 1.603, so the neighbour scan, not the grid, sets delta on every epsilon.
SCAN_WINNING_CONFIG = {
    "model": {"m": 20, "n": 5, "sigma": 1.0, "lambda": 0.0,
              "matrix_source": "random_seeded"},
    "attack": {"indices": [3, 11], "values": [2.0, -1.5]},
    "dp": {"mechanism": "chi_square", "epsilon": 2.0, "delta": 0.1, "r_prime": 1,
           "epsilon_grid": [0.10, 0.11, 0.12, 0.13, 0.14, 0.15],
           "neighborhood": {"delta_h_bound": 0.1, "scan_count": 200,
                            "theta_domain": [0.2, 0.201], "grid_points": 5}},
    "test": {"alpha": 0.05},
    "mc": {"trials": 20000, "seed": 0, "workers": 1},
}


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

    @pytest.mark.parametrize("lam,mechanism", [
        (0.0, "chi_square"), (0.0, "gaussian_output"), (1.0, "gaussian_output"),
    ])
    def test_release_law_follows_roc_rule(self, tmp_path, lam, mechanism):
        """privatize releases under the alternative law roc and validate test."""
        doc = {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "lambda": lam},
               "dp": {**DP_BY_MECHANISM[mechanism], "nu_mean": 0.3}
               if mechanism == "gaussian_output" else DP_BY_MECHANISM[mechanism]}
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["privatize", "--config", str(path), "--out", str(out)]) == 0
        law_doc = json.loads((out / "release.json").read_text())["law"]
        config = load_config(path)
        _, model, x_true, attack = _build_instance(config, config.mc.seed)
        _, law1, params, _, _ = _laws_for_roc(config, model, x_true, attack)
        law = released_law(law1, params)
        assert law_doc == {"regime": law.regime.value, "dof": law.dof,
                           "noncentrality": law.noncentrality, "mean": law.mean,
                           "variance": law.variance}

    def test_chi_square_on_ridge_model_rejected(self, tmp_path, capsys):
        """The lambda = 0 rule of the chi-square release is a schema check,
        so every subcommand refuses the config before writing anything."""
        doc = {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "lambda": 1.0}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        for command in ("simulate", "privatize"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 2
            assert "dp.mechanism chi_square" in capsys.readouterr().err
        assert not (out / "measurements.csv").exists()
        assert not (out / "release.json").exists()

    def test_unbounded_ridge_law_warns_once(self, tmp_path, caplog):
        """privatize selects its law by roc's rule and so logs its one
        missing-bound warning on a 20x30 ridge model."""
        doc = {**BASE_CONFIG, "model": {"m": 20, "n": 30, "sigma": 1.0, "lambda": 1.0},
               "dp": DP_BY_MECHANISM["gaussian_output"]}
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        with caplog.at_level("WARNING", logger="dpresidual.cli"):
            assert main(["privatize", "--config", str(path), "--out", str(out)]) == 0
        records = [r for r in caplog.records if r.name == "dpresidual.cli"]
        assert len(records) == 1 and records[0].levelname == "WARNING"
        assert "rho=" in records[0].getMessage()


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
        """One neighbour sample serves the whole curve, so delta never rises
        with epsilon, also where the scan rather than the grid sets it."""
        scan_winning = write_config(tmp_path, SCAN_WINNING_CONFIG, "scan.yaml")
        for k, path in enumerate((curve_config, scan_winning)):
            out = tmp_path / f"o{k}"
            assert main(["delta-curve", "--config", str(path), "--out", str(out)]) == 0
            _, columns, rows = read_csv(out / "delta_curve.csv")
            assert columns == ["epsilon", "delta", "argmax_theta", "argmax_theta_prime"]
            deltas = [float(r[1]) for r in rows]
            assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_single_point_matches_library_call(self, tmp_path):
        """Every row is the library's epsilon-array call on the scan stream,
        on a curve the scan wins."""
        path = write_config(tmp_path, SCAN_WINNING_CONFIG)
        out = tmp_path / "o"
        assert main(["delta-curve", "--config", str(path), "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "delta_curve.csv")

        config = load_config(path)
        streams = derive_streams(config.mc.seed)
        model = build_model(config.model, streams[0])
        attack = build_attack(config.attack, model)
        eps = np.array(config.dp.epsilon_grid)
        direct = delta_max_over_neighborhood(eps, model, attack, 1, config.dp.neighborhood,
                                             streams[STREAM_SCAN])
        assert np.all(direct.scan_max > direct.grid_max)
        expected = np.column_stack([eps, direct.delta, direct.argmax_theta,
                                    direct.argmax_theta_prime])
        assert [[float(v) for v in row] for row in rows] == expected.tolist()

    def test_theta_domain_warning_logged_once(self, tmp_path, caplog):
        path = write_config(tmp_path, SCAN_WINNING_CONFIG)
        with caplog.at_level(logging.WARNING):
            assert main(["delta-curve", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 0
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert "lies outside theta_domain [0.2, 0.201]" in messages[0]

    def test_ridge_model_rejected(self, tmp_path, capsys):
        """A gaussian_output ridge config that carries r_prime still cannot
        reach the unregularized neighbour scan."""
        doc = {**SCAN_WINNING_CONFIG,
               "model": {**SCAN_WINNING_CONFIG["model"], "lambda": 0.5},
               "dp": {**SCAN_WINNING_CONFIG["dp"], "mechanism": "gaussian_output",
                      "nu_mean": 0.0, "nu_sigma": 1.0}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["delta-curve", "--config", str(path), "--out", str(out)]) == 2
        assert "model.lambda = 0" in capsys.readouterr().err
        assert not (out / "delta_curve.csv").exists()


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

    @pytest.mark.parametrize("doc", [
        None,
        {"model": BASE_CONFIG["model"],
         "figures": {"delta_theta_values": [0.0, 0.3, 7.0, 40.0],
                     "epsilon_values": [0.5, 3.0, 60.0]}},
        {"figures": {"delta_theta_values": [0.1, 1000.0]}},
    ], ids=["default", "config", "wide"])
    def test_sweeps_match_per_curve_loops(self, tmp_path, doc):
        """fig3/fig4 rows equal the per-curve pfa_pd and roc loops."""
        config = None if doc is None else load_config(write_config(tmp_path, doc))
        sweeps = (doc or {}).get("figures", {})
        gaps = sweeps.get("delta_theta_values") or figs.DEFAULT_DELTA_THETA
        ncs = sweeps.get("delta_theta_values") or figs.DEFAULT_INPUT_NONCENTRALITY
        m, dof = (12, 8) if "model" in (doc or {}) else (20, 15)
        epsilons = sweeps.get("epsilon_values") or tuple(
            float(e) for e in m * np.logspace(np.log10(0.05), np.log10(5.0), 16))

        (_, roc_rows), (_, auroc_rows) = figs.attack_strength_roc(config)
        want_roc, want_auroc = [], []
        for gap in gaps:
            spec = TestSpec(alpha=DEFAULT_ALPHA_GRID,
                            law0=ResidualLaw.gaussian(figs.THETA_Z0, figs.SIGMA_Z0**2),
                            law1=ResidualLaw.gaussian(figs.THETA_Z0 + gap,
                                                      figs.SIGMA_Z1_ATTACK_SWEEP**2))
            pfa, pd = pfa_pd(spec)
            want_roc.extend([gap, a, p, d] for a, p, d in zip(DEFAULT_ALPHA_GRID, pfa, pd))
            want_auroc.append([gap, RocCurve.from_points(zip(pfa, pd)).auroc])
        assert repr(roc_rows) == repr(want_roc) and repr(auroc_rows) == repr(want_auroc)

        _, rows = figs.input_perturbation_auroc(config)
        want = []
        for nc in ncs:
            for eps in epsilons:
                k = gaussian_mechanism_sigma(figs.INPUT_SENSITIVITY, eps / m,
                                             figs.INPUT_DELTA) ** 2
                spec = TestSpec(alpha=0.05, law0=ResidualLaw.chi_square(dof, 0.0),
                                law1=ResidualLaw.chi_square(dof, nc / (1.0 + k)))
                want.append([nc, eps, eps / m, k, roc(spec).auroc])
        assert repr(rows) == repr(want)

    @pytest.mark.parametrize("which, figures_doc, key", [
        ("fig5", {"nu_sigma_values": [-1.0, 2.0]}, "figures.nu_sigma_values"),
        ("fig6", {"nu_sigma_values": [math.inf]}, "figures.nu_sigma_values[0]"),
        ("fig4", {"epsilon_values": [0.0, 5.0]}, "figures.epsilon_values"),
        ("fig4", {"epsilon_values": [math.inf]}, "figures.epsilon_values[0]"),
        ("fig4", {"delta_theta_values": [-1.0, 2.0]}, "figures.delta_theta_values"),
        ("fig3", {"delta_theta_values": [1.0, math.nan]}, "figures.delta_theta_values[1]"),
    ])
    def test_invalid_sweep_rejected(self, tmp_path, capsys, which, figures_doc, key):
        path = write_config(tmp_path, {"figures": figures_doc})
        code = main(["figures", "--which", which, "--config", str(path),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())

    def test_fig4_needs_residual_dof(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {**BASE_CONFIG["model"], "m": 4}})
        assert main(["figures", "--which", "fig4", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "model.m > model.n" in capsys.readouterr().err

    def test_negative_gaps_allowed_in_fig3(self, tmp_path):
        path = write_config(tmp_path, {"figures": {"delta_theta_values": [-1.0, 2.0]}})
        out = tmp_path / "o"
        assert main(["figures", "--which", "fig3", "--config", str(path),
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "fig3_auroc.csv")
        assert [float(r[0]) for r in rows] == [-1.0, 2.0]


ALL_COMMANDS = (["simulate"], ["estimate"], ["privatize"], ["delta-curve"], ["roc"],
                ["validate"], ["figures", "--which", "fig5"])


class TestDpSection:
    """The dp section is parsed into its PrivacyParams once, for every command."""

    @pytest.mark.parametrize("mechanism,key,value", [
        ("chi_square", "nu_sigma", -5.0),
        ("chi_square", "nu_mean", 2.0),
        ("gaussian_input", "r_prime", 1),
        ("gaussian_input", "nu_sigma", 1.0),
    ])
    def test_foreign_knob_rejected_everywhere(self, tmp_path, capsys, mechanism, key,
                                              value):
        doc = {**BASE_CONFIG, "dp": {**DP_BY_MECHANISM[mechanism], key: value}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        for args in ALL_COMMANDS:
            assert main(args + ["--config", str(path), "--out", str(out)]) == 2, args
            err = capsys.readouterr().err
            assert err.startswith(f"error: dp.{key} is not a parameter of {mechanism}")
            assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("delta", [0, 1])
    def test_input_perturbation_delta_bounds(self, tmp_path, capsys, delta):
        doc = {**BASE_CONFIG, "dp": {**DP_BY_MECHANISM["gaussian_input"], "delta": delta}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        for command in ("simulate", "privatize", "roc"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(
                "error: dp.delta must be in (0, 1) for gaussian_input")
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("nu_mean", math.nan), ("nu_mean", -math.inf), ("nu_sigma", math.inf),
    ])
    def test_nonfinite_output_noise_rejected(self, tmp_path, capsys, key, value):
        """A NaN noise mean used to end roc in an uncaught auroc traceback."""
        doc = {**BASE_CONFIG, "dp": {**DP_BY_MECHANISM["gaussian_output"], key: value}}
        path = write_config(tmp_path, doc)
        assert main(["roc", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: dp.{key} must be finite")

    def test_missing_knob_named(self, tmp_path, capsys):
        dp = {k: v for k, v in DP_BY_MECHANISM["gaussian_output"].items() if k != "nu_mean"}
        path = write_config(tmp_path, {**BASE_CONFIG, "dp": dp})
        assert main(["roc", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "dp.nu_mean is required by the gaussian_output mechanism" in \
            capsys.readouterr().err

    def test_gaussian_output_scan_r_prime(self, tmp_path, capsys):
        """A lambda = 0 gaussian_output config may carry r_prime for the
        delta-curve scan alone; the scan reads it and the release does not."""
        doc = {**SCAN_WINNING_CONFIG,
               "dp": {**SCAN_WINNING_CONFIG["dp"], "mechanism": "gaussian_output",
                      "nu_mean": 0.0, "nu_sigma": 1.0}}
        path = write_config(tmp_path, doc)
        chi_path = write_config(tmp_path, SCAN_WINNING_CONFIG, "chi.yaml")
        out, chi_out = tmp_path / "o", tmp_path / "chi"
        assert main(["delta-curve", "--config", str(path), "--out", str(out)]) == 0
        assert main(["delta-curve", "--config", str(chi_path), "--out", str(chi_out)]) == 0
        assert read_csv(out / "delta_curve.csv")[1:] == \
            read_csv(chi_out / "delta_curve.csv")[1:]
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["privatize", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "release.json").read_text())["r_prime"] is None
        doc["dp"]["r_prime"] = 0
        path = write_config(tmp_path, doc)
        assert main(["delta-curve", "--config", str(path), "--out", str(out)]) == 2
        assert "dp.r_prime must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("mechanism,keys", [
        ("chi_square", {"mechanism", "epsilon", "delta", "r_prime", "nu_mean",
                        "nu_sigma", "value", "law"}),
        ("gaussian_output", {"mechanism", "epsilon", "delta", "r_prime", "nu_mean",
                             "nu_sigma", "value", "law"}),
        ("gaussian_input", {"mechanism", "epsilon", "delta", "k", "sigma_w",
                            "epsilon_per_element", "z_tilde"}),
    ])
    def test_release_document_keys(self, tmp_path, mechanism, keys):
        path = write_config(tmp_path, {**BASE_CONFIG, "dp": DP_BY_MECHANISM[mechanism]})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["privatize", "--config", str(path), "--out", str(out)]) == 0
        release = json.loads((out / "release.json").read_text())
        assert set(release) == keys | {"schema", "seed_record", "config_hash", "seed"}
        assert release["mechanism"] == mechanism
        for key, value in DP_BY_MECHANISM[mechanism].items():
            assert release[key] == value

    def test_validate_needs_enough_trials(self, tmp_path, capsys):
        """validate refuses mc.trials below its Monte Carlo floor up front;
        fig6 samples any trials >= 1."""
        path = write_config(tmp_path, {**BASE_CONFIG,
                                       "mc": {**BASE_CONFIG["mc"], "trials": 500}})
        out = tmp_path / "o"
        assert main(["validate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: validate needs mc.trials >= 1000, got 500")
        assert not (out / "validation.csv").exists()
        assert main(["figures", "--which", "fig6", "--config", str(path),
                     "--out", str(out)]) == 0


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
                assert main(args + ["--config", str(path), "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("section,key,value,named", [
        ("model", "sigma", math.inf, "model.sigma"),
        ("model", "sigma", math.nan, "model.sigma"),
        ("model", "lambda", math.nan, "model.lambda"),
        ("model", "lambda", math.inf, "model.lambda"),
        ("attack", "values", [math.nan, -1.5], "attack.values[0]"),
        ("attack", "values", [2.0, math.inf], "attack.values[1]"),
        ("attack", "stealth_coeffs", [0.0, math.nan, 0.0, 0.0],
         "attack.stealth_coeffs[1]"),
    ])
    def test_nonfinite_model_and_attack_rejected(self, tmp_path, capsys, section, key,
                                                 value, named):
        """An infinite sigma used to exit 0 on simulate and roc, and the other
        values ended estimate, simulate or roc in a traceback."""
        body = {key: value} if key == "stealth_coeffs" else {**BASE_CONFIG[section],
                                                             key: value}
        path = write_config(tmp_path, {**BASE_CONFIG, section: body})
        out = tmp_path / "o"
        for args in ALL_COMMANDS:
            assert main(args + ["--config", str(path), "--out", str(out)]) == 2, args
            assert capsys.readouterr().err.startswith(f"error: {named} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("lam,attack,named", [
        # simulate and roc used to end in a ValueError traceback (exit 1).
        (0.5, {"stealth_coeffs": [1.0, -0.5, 0.0, 2.0]}, "attack.stealth_coeffs"),
        # simulate used to exit 0 and keep only the last value, -1.5.
        (0.0, {"indices": [2, 2], "values": [2.0, -1.5]}, "attack.indices must be distinct"),
    ])
    def test_attack_rejected_on_every_command(self, tmp_path, capsys, lam, attack, named):
        doc = {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "lambda": lam},
               "attack": attack}
        doc.pop("dp")
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        for args in ALL_COMMANDS:
            assert main(args + ["--config", str(path), "--out", str(out)]) == 2, args
            assert capsys.readouterr().err.startswith(f"error: {named}")
        assert not out.exists()

    def test_workers_flag_accepted(self, tmp_path, config_path):
        out = tmp_path / "o"
        assert main(["validate", "--config", str(config_path), "--out", str(out),
                     "--workers", "2"]) == 0

    def test_workers_above_one_runs_in_one_process(self, tmp_path, config_path, caplog):
        """--workers 2 warns once and writes what --workers 1 writes."""
        outputs, warnings = {}, {}
        for workers in ("1", "2"):
            caplog.clear()
            out = tmp_path / workers
            with caplog.at_level(logging.WARNING):
                assert main(["validate", "--config", str(config_path), "--out", str(out),
                             "--workers", workers]) == 0
            outputs[workers] = (out / "validation.csv").read_bytes()
            warnings[workers] = [r.getMessage() for r in caplog.records
                                 if r.levelno >= logging.WARNING]
        assert outputs["2"] == outputs["1"]
        assert warnings["1"] == []
        assert len(warnings["2"]) == 1 and "one process" in warnings["2"][0]

    def test_config_workers_above_one_warns(self, tmp_path, caplog):
        path = write_config(tmp_path, {**BASE_CONFIG,
                                       "mc": {**BASE_CONFIG["mc"], "workers": 3}})
        with caplog.at_level(logging.WARNING):
            assert main(["validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert [r.levelno for r in caplog.records] == [logging.WARNING]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, config_path, capsys, workers):
        code = main(["validate", "--config", str(config_path), "--out", str(tmp_path / "o"),
                     "--workers", workers])
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "validation.csv").exists()

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

    def test_unbounded_gaussian_law_warns(self, tmp_path, caplog):
        """A 20x30 ridge model has rho far above 1/8: the Gaussian law it
        gets carries no sup-density bound, and roc says so once."""
        doc = {**BASE_CONFIG, "model": {"m": 20, "n": 30, "sigma": 1.0, "lambda": 1.0}}
        doc.pop("dp")
        path = write_config(tmp_path, doc)
        with caplog.at_level("WARNING", logger="dpresidual.cli"):
            assert main(["roc", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        records = [r for r in caplog.records if r.name == "dpresidual.cli"]
        assert len(records) == 1 and records[0].levelname == "WARNING"
        message = records[0].getMessage()
        assert "rho=" in message and "sup-density bound" in message

    def test_chi_square_law_does_not_warn(self, tmp_path, caplog, config_path):
        with caplog.at_level("WARNING", logger="dpresidual.cli"):
            assert main(["roc", "--config", str(config_path),
                         "--out", str(tmp_path / "o")]) == 0
        assert not [r for r in caplog.records if r.name == "dpresidual.cli"]
