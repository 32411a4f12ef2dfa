"""End-to-end CLI behavior: schemas, determinism, exit codes, artifacts."""

import json
import logging
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import stats

from dpresidual import (
    Regime,
    ResidualLaw,
    TestSpec,
    auroc,
    delta_max_over_neighborhood,
    gaussian_mechanism_sigma,
    pfa_pd,
    released_law,
    wssr,
)
import dpresidual
from dpresidual import figures as figs
from dpresidual.detection import DEFAULT_ALPHA_GRID
from dpresidual.cli import _build_instance, _laws_for_roc, main
from dpresidual.config import (
    build_attack,
    build_model,
    derive_streams,
    load_config,
)
from dpresidual.csvio import read_csv
from conftest import exact_auroc


DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
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


# The demo model (root theta = 1.603) with an epsilon grid so small that
# delta > 0 on every row.
SMALL_EPSILON_CONFIG = {
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

    @pytest.mark.parametrize("section,key,value", [
        # sigma**2 is subnormal, so wssr's division by it overflows.
        pytest.param("model", "sigma", 1.0e-160, id="sigma"),
        # The residual's square overflows.
        pytest.param("attack", "values", [1.0e200, -1.5], id="values"),
    ])
    def test_overflowing_statistic_exits_3(self, tmp_path, capsys, section, key, value):
        """An infinite WSSR used to be written as "wssr": Infinity, which is not
        JSON, with exit 0; under RuntimeWarning errors the sigma case ended
        estimate and privatize in a traceback."""
        doc = yaml.safe_load(DEMO.read_text())
        doc[section][key] = value
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["estimate", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: {out / 'estimate.json'} not written")
        assert not (out / "estimate.json").exists()
        assert main(["privatize", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: ")
        assert not (out / "release.json").exists()


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
        """One root interval serves the whole curve, so delta and its bound
        never rise with epsilon, also where delta > 0 on every row."""
        small = write_config(tmp_path, SMALL_EPSILON_CONFIG, "small.yaml")
        for k, path in enumerate((curve_config, small)):
            out = tmp_path / f"o{k}"
            assert main(["delta-curve", "--config", str(path), "--out", str(out)]) == 0
            _, columns, rows = read_csv(out / "delta_curve.csv")
            assert columns == ["epsilon", "delta", "argmax_theta", "argmax_theta_prime",
                               "delta_bound", "theta_lo", "theta_hi"]
            for col in (1, 4):
                values = [float(r[col]) for r in rows]
                assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_single_point_matches_library_call(self, tmp_path):
        """Every row is the library's epsilon-array call, delta_bound plus the
        two tails' truncation allowance, on a curve with delta > 0 throughout."""
        path = write_config(tmp_path, SMALL_EPSILON_CONFIG)
        out = tmp_path / "o"
        assert main(["delta-curve", "--config", str(path), "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "delta_curve.csv")

        config = load_config(path)
        streams = derive_streams(config.mc.seed)
        model = build_model(config.model, streams[0])
        attack = build_attack(config.attack, model)
        eps = np.array(config.dp.epsilon_grid)
        direct = delta_max_over_neighborhood(eps, model, attack, 1, config.dp.neighborhood)
        assert np.all(direct.delta > 0)
        expected = np.column_stack([eps, direct.delta, direct.argmax_theta,
                                    direct.argmax_theta_prime,
                                    np.minimum(1.0, direct.delta_bound + 2e-12),
                                    np.full(eps.shape, direct.theta_lo),
                                    np.full(eps.shape, direct.theta_hi)])
        assert [[float(v) for v in row] for row in rows] == expected.tolist()

    def test_delta_bound_covers_series_truncation(self, tmp_path):
        """delta_bound adds the two Marcum-Q tails' truncation bound to the
        cell bound, so a delta printed far below the series tolerance is
        bounded by it."""
        doc = {"model": {"m": 200, "n": 20, "sigma": 1.0, "lambda": 0.0,
                         "matrix_source": "random_seeded"},
               "attack": {"indices": [3, 11], "values": [2.0, -1.5]},
               "dp": {"mechanism": "chi_square", "epsilon": 2.0, "delta": 0.1,
                      "r_prime": 1, "epsilon_grid": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
                      "neighborhood": {"delta_h_bound": 1.0, "scan_count": 1000,
                                       "theta_domain": [2.3, 2.4], "grid_points": 17}},
               "test": {"alpha": 0.05},
               "mc": {"trials": 100000, "seed": 7, "workers": 1}}
        out = tmp_path / "o"
        assert main(["delta-curve", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "delta_curve.csv")
        delta = np.array([float(r[columns.index("delta")]) for r in rows])
        bound = np.array([float(r[columns.index("delta_bound")]) for r in rows])
        assert np.all(bound >= delta) and np.all(bound <= 1.0)
        tiny = delta < 1e-30
        assert tiny.any() and np.all(bound[tiny] == 2e-12)
        assert (~tiny).sum() >= 2
        assert np.all(bound[~tiny] >= np.minimum(1.0, delta[~tiny] + 2e-12))

    def test_inert_keys_logged_once(self, tmp_path, caplog):
        """scan_count, theta_domain and grid_points change no row: the demo
        with 7 probes, theta_domain [3, 4] and 2 grid points writes the
        demo's rows. One INFO line names the three keys, and nothing is
        logged at WARNING (theta lies outside both domains)."""
        doc = yaml.safe_load(DEMO.read_text())
        inert = {**doc, "dp": {**doc["dp"], "neighborhood": {
            **doc["dp"]["neighborhood"], "scan_count": 7, "theta_domain": [3.0, 4.0],
            "grid_points": 2}}}
        bodies = []
        for name, config in (("demo", doc), ("inert", inert)):
            out = tmp_path / name
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="dpresidual"):
                assert main(["delta-curve", "--config", str(write_config(tmp_path, config,
                                                                          f"{name}.yaml")),
                             "--out", str(out), "--seed", "3"]) == 0
            named = [r for r in caplog.records if "scan_count" in r.getMessage()]
            assert len(named) == 1 and named[0].levelname == "INFO"
            assert "theta_domain and grid_points are read and ignored" in \
                named[0].getMessage()
            assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
            lines = (out / "delta_curve.csv").read_text().splitlines()
            bodies.append([line for line in lines if not line.startswith("#")])
        assert bodies[0] == bodies[1] and len(bodies[0]) == 7

    def test_demo_curve(self, tmp_path):
        """The demo at seed 3: theta_lo and theta_hi bracket every neighbour's
        root; delta(0.5) is about 1e-62, delta is 0 from epsilon = 1, and
        delta_bound is the truncation allowance 2e-12 on every row."""
        out = tmp_path / "o"
        assert main(["delta-curve", "--config", str(DEMO), "--out", str(out),
                     "--seed", "3"]) == 0
        _, columns, rows = read_csv(out / "delta_curve.csv")
        table = {name: np.array([float(r[k]) for r in rows])
                 for k, name in enumerate(columns)}
        assert np.all((1.6643892 <= table["theta_lo"]) & (table["theta_lo"] <= 1.6643909))
        assert np.all((1.71125968 <= table["theta_hi"]) & (table["theta_hi"] <= 1.7114))
        assert 1.9e-63 <= table["delta"][0] <= 1.1e-62
        assert np.all(table["delta"][1:] == 0.0)
        assert np.all(table["delta_bound"] == 2e-12)

    def test_tiny_perturbation_bound_gives_zero(self, tmp_path, capsys):
        """At delta_h_bound 1e-154 the multiplier mu = t / B^2 overflows in the
        root interval; that zeroes its term, with no RuntimeWarning (an error
        in this suite), and every delta is 0."""
        doc = yaml.safe_load(DEMO.read_text())
        doc["dp"]["neighborhood"]["delta_h_bound"] = 1.0e-154
        out = tmp_path / "o"
        assert main(["delta-curve", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, columns, rows = read_csv(out / "delta_curve.csv")
        assert [float(r[columns.index("delta")]) for r in rows] == [0.0] * 6

    def test_gaussian_output_scans_with_its_r_prime(self, tmp_path):
        """A gaussian_output config's r_prime drives the same delta curve as
        the chi_square mechanism's: the curves differ only in the header."""
        gaussian = {**SMALL_EPSILON_CONFIG,
                    "dp": {**SMALL_EPSILON_CONFIG["dp"], "mechanism": "gaussian_output",
                           "nu_mean": 0.3, "nu_sigma": 1.0}}
        bodies = []
        for name, doc in (("chi", SMALL_EPSILON_CONFIG), ("gauss", gaussian)):
            out = tmp_path / name
            path = write_config(tmp_path, doc, f"{name}.yaml")
            assert main(["delta-curve", "--config", str(path), "--out", str(out)]) == 0
            lines = (out / "delta_curve.csv").read_text().splitlines()
            bodies.append([line for line in lines if not line.startswith("#")])
        assert bodies[0] == bodies[1] and len(bodies[0]) == 7

    def test_ridge_model_rejected(self, tmp_path, capsys):
        """A gaussian_output ridge config that carries r_prime still cannot
        reach the unregularized neighbour scan."""
        doc = {**SMALL_EPSILON_CONFIG,
               "model": {**SMALL_EPSILON_CONFIG["model"], "lambda": 0.5},
               "dp": {**SMALL_EPSILON_CONFIG["dp"], "mechanism": "gaussian_output",
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
        labels = ("chi_square", "epsilon=2.0;delta=0.1;r_prime=1")
        meta, columns, rows = read_csv(out / "roc.csv")
        assert meta["schema"] == "dpresidual-roc/1"
        assert columns == ["alpha", "pfa", "pd", "mechanism", "params"]
        assert [float(r[0]) for r in rows] == DEFAULT_ALPHA_GRID.tolist()
        assert {tuple(r[3:]) for r in rows} == {labels}
        meta, columns, auroc_rows = read_csv(out / "auroc.csv")
        assert meta["schema"] == "dpresidual-auroc/1"
        assert columns == ["mechanism", "params", "auroc"]
        (*row_labels, area), = auroc_rows
        assert tuple(row_labels) == labels
        # The exact area of the released laws, not a trapezoid over the rows.
        config = load_config(config_path)
        _, model, x_true, attack = _build_instance(config, config.mc.seed)
        law0, law1, params, _, _ = _laws_for_roc(config, model, x_true, attack)
        assert float(area) == auroc(TestSpec(alpha=0.05, law0=law0, law1=law1, dp=params))
        assert abs(float(area) - exact_auroc(law1.dof + params.r_prime,
                                             law1.noncentrality)) <= 1e-12

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
    @pytest.mark.parametrize("which, schemas", [
        ("fig3", {"fig3_roc.csv": "dpresidual-fig3-roc/1",
                  "fig3_auroc.csv": "dpresidual-fig3-auroc/1"}),
        ("fig4", {"fig4_auroc.csv": "dpresidual-fig4-auroc/1"}),
        ("fig5", {"fig5_auroc.csv": "dpresidual-fig5-auroc/1"}),
        ("fig6", {"fig6_metrics.csv": "dpresidual-fig6-metrics/1"}),
    ])
    def test_each_figure_writes_exactly_its_tables(self, tmp_path, which, schemas):
        out = tmp_path / which
        assert main(["figures", "--which", which, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(schemas)
        for name, schema in schemas.items():
            assert read_csv(out / name)[0]["schema"] == schema

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
            want_auroc.append([gap, auroc(spec)])
            oracle = stats.norm.cdf(gap / math.hypot(figs.SIGMA_Z0, figs.SIGMA_Z1_ATTACK_SWEEP))
            assert abs(want_auroc[-1][1] - oracle) <= 1e-12
        assert repr(roc_rows) == repr(want_roc) and repr(auroc_rows) == repr(want_auroc)

        _, rows = figs.input_perturbation_auroc(config)
        want = []
        for nc in ncs:
            for eps in epsilons:
                k = gaussian_mechanism_sigma(1.0, eps / m, figs.INPUT_DELTA) ** 2
                spec = TestSpec(alpha=0.05, law0=ResidualLaw.chi_square(dof, 0.0),
                                law1=ResidualLaw.chi_square(dof, nc / (1.0 + k)))
                want.append([nc, eps, eps / m, k, auroc(spec)])
                assert abs(want[-1][4] - exact_auroc(dof, nc / (1.0 + k))) <= 1e-12
        assert repr(rows) == repr(want)

    @pytest.mark.parametrize("values", [None, [0.1, 1.0e5]])
    def test_input_budget_sweep_evaluates_no_curve(self, tmp_path, monkeypatch, values):
        """fig4 writes areas only, so it calls no tail function: even a far
        noncentrality beside a near one costs only its own Poisson window."""
        def refuse(*args, **kwargs):
            raise AssertionError("fig4 evaluated a curve point")
        monkeypatch.setattr(dpresidual.detection, "marcum_q", refuse)
        out = tmp_path / "f4"
        argv = ["figures", "--which", "fig4", "--out", str(out)]
        if values:
            doc = {"figures": {"delta_theta_values": values}}
            argv += ["--config", str(write_config(tmp_path, doc))]
        assert main(argv) == 0
        _, _, rows = read_csv(out / "fig4_auroc.csv")
        assert len(rows) == 16 * len(values or figs.DEFAULT_INPUT_NONCENTRALITY)
        assert all(0.5 <= float(r[4]) <= 1.0 for r in rows)

    @pytest.mark.parametrize("which, figures_doc, key", [
        ("fig5", {"nu_sigma_values": [-1.0, 2.0]}, "figures.nu_sigma_values"),
        ("fig6", {"nu_sigma_values": [math.inf]}, "figures.nu_sigma_values[0]"),
        ("fig4", {"epsilon_values": [0.0, 5.0]}, "figures.epsilon_values"),
        ("fig4", {"epsilon_values": [math.inf]}, "figures.epsilon_values[0]"),
        ("fig4", {"delta_theta_values": [-1.0, 2.0]}, "figures.delta_theta_values"),
        ("fig3", {"delta_theta_values": [1.0, math.nan]}, "figures.delta_theta_values[1]"),
        ("fig5", {"nu_sigma_values": [0.0, 1.0e200]}, "figures.nu_sigma_values"),
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
        doc = {**SMALL_EPSILON_CONFIG,
               "dp": {**SMALL_EPSILON_CONFIG["dp"], "mechanism": "gaussian_output",
                      "nu_mean": 0.0, "nu_sigma": 1.0}}
        path = write_config(tmp_path, doc)
        chi_path = write_config(tmp_path, SMALL_EPSILON_CONFIG, "chi.yaml")
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
        release = json.loads((out / "release.json").read_text(),
                             parse_constant=lambda name: pytest.fail(f"non-JSON {name}"))
        assert set(release) == keys | {"schema", "seed_record", "config_hash", "seed"}
        assert release["mechanism"] == mechanism
        for key, value in DP_BY_MECHANISM[mechanism].items():
            assert release[key] == value

    @pytest.mark.parametrize("mechanism, regime, unset", [
        ("chi_square", "chi_square", ("mean", "variance")),
        ("gaussian_output", "gaussian", ("dof", "noncentrality")),
    ])
    def test_release_law_block(self, tmp_path, mechanism, regime, unset):
        """The law block holds every field of the released law, the other
        regime's as null."""
        path = write_config(tmp_path, {**BASE_CONFIG, "dp": DP_BY_MECHANISM[mechanism]})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["privatize", "--config", str(path), "--out", str(out)]) == 0
        law = json.loads((out / "release.json").read_text())["law"]
        assert set(law) == {"regime", "dof", "noncentrality", "mean", "variance"}
        assert law["regime"] == regime
        assert {k for k, v in law.items() if v is None} == set(unset)

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


class TestLogLevel:
    """--log-level sends the package's records to stderr for one main call."""

    def test_default_writes_bare_warnings_only(self, tmp_path, capsys, caplog,
                                               config_path):
        """validate --workers 2 logs one warning; at the default level stderr
        holds that bare message and no INFO line. delta-curve writes nothing."""
        out = tmp_path / "o"
        assert main(["validate", "--config", str(config_path), "--out", str(out),
                     "--workers", "2"]) == 0
        warning, = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert capsys.readouterr().err == warning + "\n"
        path = write_config(tmp_path, SMALL_EPSILON_CONFIG, "small.yaml")
        assert main(["delta-curve", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_info_logs_stage_times(self, tmp_path, capsys, config_path):
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o"),
                     "--log-level", "info"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["stage load_config",
                                                          "stage simulate"]
        assert all(re.fullmatch(r"stage \w+: \d+\.\d{3} s", line) for line in lines)

    def test_debug_logs_marcum_terms(self, tmp_path, capsys, config_path):
        assert main(["roc", "--config", str(config_path), "--out", str(tmp_path / "o"),
                     "--log-level", "debug"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert any(re.fullmatch(r"marcum_q: \d+ terms over \d+ elements, \d+ gamma-tail seeds",
                                 line)
                   for line in lines)
        assert lines[-1].startswith("stage roc: ")

    def test_debug_names_yaml_parser_and_hash_dumper(self, tmp_path, capsys, config_path):
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o"),
                     "--log-level", "debug"]) == 0
        first = capsys.readouterr().err.splitlines()[0]
        libyaml = "libyaml" if yaml.__with_libyaml__ else \
            "pure-Python (PyYAML has no libyaml)"
        assert first == (f"config {config_path}: parsed by {libyaml}, "
                         f"config_hash dumped by {libyaml}")

    def test_logger_restored_after_main(self, tmp_path, capsys, config_path):
        package = logging.getLogger("dpresidual")
        before = (package.level, list(package.handlers))
        for level in ("warning", "debug"):
            assert main(["simulate", "--config", str(config_path),
                         "--out", str(tmp_path / "o"), "--log-level", level]) == 0
            assert (package.level, package.handlers) == before
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o"),
                     "--seed", "-1", "--log-level", "debug"]) == 2
        assert (package.level, package.handlers) == before

    def test_info_names_each_delta_source(self, tmp_path, capsys):
        """After one line naming the inert keys, one line per epsilon names
        what sets delta: theta, the root interval [theta_lo, theta_hi], the
        cell end theta' that attains delta (theta itself at delta = 0),
        delta and the written delta_bound, each as the CSV row has it."""
        doc = {**SMALL_EPSILON_CONFIG,
               "dp": {**SMALL_EPSILON_CONFIG["dp"], "epsilon_grid": [0.05, 0.5, 1000.0],
                      "neighborhood": {"delta_h_bound": 0.5, "scan_count": 300,
                                       "theta_domain": [1.0, 3.0], "grid_points": 9}}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["delta-curve", "--config", str(path), "--out", str(out),
                     "--log-level", "info"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("stage load_config: ")
        assert lines[-1].startswith("stage delta-curve: ")
        _, _, rows = read_csv(out / "delta_curve.csv")
        assert "scan_count, theta_domain and grid_points" in lines[1]
        sources = []
        for line, row in zip(lines[2:-1], rows, strict=True):
            eps, delta, theta, theta_prime, bound, theta_lo, theta_hi = map(float, row)
            match = re.fullmatch(r"delta at epsilon=(\S+): theta=(\S+) theta_lo=(\S+) "
                                 r"theta_hi=(\S+) theta_prime=(\S+) delta=(\S+) "
                                 r"delta_bound=(\S+)", line)
            assert match is not None, line
            assert match[1] == f"{eps:g}"
            assert match.group(2, 3, 4, 5) == tuple(
                f"{v:.6g}" for v in (theta, theta_lo, theta_hi, theta_prime))
            assert match.group(6, 7) == (f"{delta:.3g}", f"{bound:.3g}")
            sources.append("lo" if theta_prime == theta_lo else
                           "hi" if theta_prime == theta_hi else
                           "none" if theta_prime == theta and delta == 0 else "inner")
        assert sources == ["lo", "lo", "none"]

    def test_info_times_monte_carlo_apart(self, tmp_path, capsys, config_path):
        """validate logs the simulation's own stage inside its command stage,
        and writes the same validation.csv columns and rows as ever."""
        out = tmp_path / "o"
        assert main(["validate", "--config", str(config_path), "--out", str(out),
                     "--log-level", "info"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["stage load_config",
                                                          "stage monte_carlo",
                                                          "stage validate"]
        assert all(re.fullmatch(r"stage \w+: \d+\.\d{3} s", line) for line in lines)
        seconds = [float(line.split()[-2]) for line in lines]
        assert seconds[1] <= seconds[2]
        _, columns, rows = read_csv(out / "validation.csv")
        assert columns == ["quantity", "analytic", "empirical", "se"]
        assert [r[0] for r in rows] == ["pfa", "pd"]

    def test_debug_splits_monte_carlo_time(self, tmp_path, capsys, config_path):
        """One DEBUG line gives the trials, the block layout and the seconds
        spent drawing against scoring, inside the monte_carlo stage."""
        assert main(["validate", "--config", str(config_path), "--out", str(tmp_path / "o"),
                     "--log-level", "debug"]) == 0
        lines = capsys.readouterr().err.splitlines()
        found = [re.fullmatch(r"monte carlo: (\d+) trials in (\d+) blocks of (\d+) rows; "
                              r"drawing \d+\.\d{3} s, scoring \d+\.\d{3} s", line)
                 for line in lines]
        (i, match), = [(i, f) for i, f in enumerate(found) if f]
        trials, blocks, rows = (int(v) for v in match.groups())
        assert trials == load_config(config_path).mc.trials
        assert blocks == -(-trials // rows)
        assert lines[i + 1].startswith("stage monte_carlo: ")

    def test_monte_carlo_stage_times_the_simulation_alone(self, tmp_path, capsys,
                                                          config_path, monkeypatch):
        """The stage sums the drawing and scoring: the analytics around the
        simulation (here a threshold slowed by 0.5 s) are not in it."""
        threshold = dpresidual.detection.threshold

        def slow_threshold(spec):
            time.sleep(0.5)
            return threshold(spec)

        monkeypatch.setattr(dpresidual.detection, "threshold", slow_threshold)
        assert main(["validate", "--config", str(config_path), "--out", str(tmp_path / "o"),
                     "--log-level", "info"]) == 0
        lines = capsys.readouterr().err.splitlines()
        stage, = [line for line in lines if line.startswith("stage monte_carlo: ")]
        command, = [line for line in lines if line.startswith("stage validate: ")]
        assert float(stage.split()[-2]) < 0.5 <= float(command.split()[-2])

    def test_python_m_logs_stages(self, tmp_path):
        """Run as ``python -m dpresidual.cli``, the module is __main__, yet its
        stage lines still reach --log-level's stderr handler."""
        demo = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
        config = tmp_path / "demo.yaml"
        config.write_text(demo.read_text())
        src = str(Path(dpresidual.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "dpresidual.cli", "validate", "--config", str(config),
             "--out", str(tmp_path / "o"), "--log-level", "info"],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        stages = [line.split(":")[0] for line in proc.stderr.splitlines()]
        assert stages == ["stage load_config", "stage monte_carlo", "stage validate"]

    def test_unknown_level_is_a_usage_error(self, tmp_path, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o"),
                  "--log-level", "error"])
        assert exc.value.code == 2


class TestCliMisc:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        """Exit 2 with PyYAML's own wording of the error, and no artifact."""
        text = "model: {m: 20, n: 5\nattack: [1, 2\n"
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(yaml.YAMLError) as exc:
            yaml.safe_load(text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config is not valid YAML: {exc.value}\n"
        assert not out.exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        """Exit 2 naming the path and the decode error, and no artifact."""
        path = tmp_path / "latin.yaml"
        path.write_bytes(b"model: \xff\xfe\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path}: ") and "can't decode" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_is_a_directory(self, tmp_path, capsys):
        path = tmp_path / "configs"
        path.mkdir()
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config {path}: Is a directory\n"
        assert not out.exists()

    def test_omitted_keys_take_the_defaults(self, tmp_path):
        neighborhood = {"delta_h_bound": 0.1, "scan_count": 5, "theta_domain": [0.2, 1.2]}
        doc = {**BASE_CONFIG, "test": {}, "mc": {},
               "dp": {**BASE_CONFIG["dp"], "neighborhood": neighborhood}}
        config = load_config(write_config(tmp_path, doc))
        assert (config.mc.trials, config.mc.seed, config.mc.workers) == (100_000, 0, 1)
        assert config.test.alpha == 0.05
        assert config.dp.neighborhood.grid_points == 33

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

    @pytest.mark.parametrize("value", [math.inf, math.nan,
                                       pytest.param(10**400, id="int_past_double")])
    @pytest.mark.parametrize("key", [
        "model.sigma", "model.lambda", "attack.values", "attack.stealth_coeffs",
        "dp.epsilon", "dp.delta", "dp.nu_mean", "dp.nu_sigma", "dp.epsilon_grid",
        "dp.neighborhood.delta_h_bound", "dp.neighborhood.theta_domain", "test.alpha",
        "test.alpha_grid", "figures.delta_theta_values", "figures.nu_sigma_values",
        "figures.epsilon_values",
    ])
    def test_nonfinite_float_rejected(self, tmp_path, capsys, key, value):
        """Every float key, set to inf, nan or an integer no double holds (a list
        at its last element), exits 2 naming it before any artifact.
        dp.epsilon = inf used to exit 0 on privatize with "epsilon": Infinity
        in release.json, an infinite theta_domain end or delta_h_bound to
        reach delta-curve, and a huge integer to end in an OverflowError."""
        doc = {**BASE_CONFIG,
               "dp": {**DP_BY_MECHANISM["gaussian_output"], "r_prime": 1,
                      "epsilon_grid": [0.5, 1.0],
                      "neighborhood": {"delta_h_bound": 0.1, "scan_count": 10,
                                       "theta_domain": [0.2, 1.5]}},
               "test": {"alpha": 0.05, "alpha_grid": [0.01, 0.1]},
               "figures": {"delta_theta_values": [0.5, 1.0], "nu_sigma_values": [0.0, 1.0],
                           "epsilon_values": [1.0, 2.0]}}
        if key == "attack.stealth_coeffs":
            doc["attack"] = {"stealth_coeffs": [0.0, 1.0, 0.0, 0.0]}
        *sections, leaf = key.split(".")
        section = doc
        for name in sections:
            section[name] = section = dict(section[name])
        named = key
        if isinstance(section[leaf], list):
            section[leaf] = [*section[leaf][:-1], value]
            named = f"{key}[{len(section[leaf]) - 1}]"
        else:
            section[leaf] = value
        path = write_config(tmp_path, doc)
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

    def test_help_lists_the_seven_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        choices, = re.findall(r"\{([\w,-]+)\}", capsys.readouterr().out)[:1]
        assert choices.split(",") == ["simulate", "estimate", "privatize", "delta-curve",
                                      "roc", "validate", "figures"]

    @pytest.mark.parametrize("section, key, value, code", [
        ("model", "sigma", 1.0e200, 2),  # sigma**2 overflowed
        ("model", "sigma", 1.0e-200, 2),  # sigma**2 underflowed to 0
        ("model", "sigma", 1.0e-160, 3),  # the noncentrality overflows
        ("attack", "values", [1.0e200], 3),
        ("dp", "nu_sigma", 1.0e200, 2),  # nu_sigma**2 overflowed
    ])
    def test_extreme_finite_values_exit_cleanly(self, tmp_path, capsys, section, key,
                                                value, code):
        """Finite numbers whose squares leave the double range used to end roc
        and validate in an OverflowError, ZeroDivisionError or marcum_q
        ValueError traceback (exit 1)."""
        demo = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
        doc = yaml.safe_load(demo.read_text())
        if section == "dp":
            doc["dp"] = {**DP_BY_MECHANISM["gaussian_output"]}
        if section == "attack":
            doc["attack"] = {"indices": [3], "values": value}
        else:
            doc[section][key] = value
        path = write_config(tmp_path, doc)
        prefix = "error: " if code == 2 else "numeric failure: "
        for command in ("roc", "validate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) \
                == code, command
            err = capsys.readouterr().err
            assert err.startswith(prefix) and "Traceback" not in err, err
            if code == 2:
                assert f"{section}.{key} " in err

    @pytest.mark.parametrize("bound, code", [
        (1.0e200, 2),  # the bound's square overflows
        (1.0e150, 0),  # a finite square: an unbounded neighbourhood, delta = 1
    ])
    def test_overflowing_perturbation_bound_exits_cleanly(self, tmp_path, capsys,
                                                         bound, code):
        """delta-curve on the demo used to end in an overflow RuntimeWarning
        traceback, or, with warnings not raised, to skip every probe as
        singular and write a curve from the grid alone. A bound with a finite
        square now gives the root interval of an unbounded neighbourhood,
        where delta = 1 on every row; no Gram is formed."""
        doc = yaml.safe_load(DEMO.read_text())
        doc["dp"]["neighborhood"]["delta_h_bound"] = bound
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["delta-curve", "--config", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and "skipped" not in err
        if code == 2:
            assert err.startswith("error: dp.neighborhood.delta_h_bound must be finite"), err
            assert not (out / "delta_curve.csv").exists()
        else:
            assert err == ""
            _, columns, rows = read_csv(out / "delta_curve.csv")
            assert [float(r[columns.index("delta")]) for r in rows] == [1.0] * 6

    def test_overflowing_root_interval_exits_3(self, tmp_path, capsys):
        """With the attack scaled to 1e4, B ||x_hat|| passes 1.3e154 at a bound
        of 1e154, whose square is finite: theta_hi is not a double, so
        delta-curve exits 3 with no traceback and writes no curve."""
        doc = yaml.safe_load(DEMO.read_text())
        doc["dp"]["neighborhood"]["delta_h_bound"] = 1.0e154
        doc["attack"]["values"] = [2.0e4, -1.5e4]
        out = tmp_path / "o"
        assert main(["delta-curve", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: the neighbour root interval "), err
        assert "Traceback" not in err
        assert not (out / "delta_curve.csv").exists()

    @pytest.mark.parametrize("command", ["privatize", "roc", "validate", "fig4"])
    def test_tiny_input_budget_exits_3(self, tmp_path, capsys, command):
        """At epsilon = 1e-300, sigma_w is finite but its square is not: this
        used to end in an OverflowError traceback (exit 1)."""
        doc = yaml.safe_load(DEMO.read_text())
        if command == "fig4":
            doc["figures"] = {"epsilon_values": [1.0e-300, 1.0]}
            argv = ["figures", "--which", "fig4"]
        else:
            doc["dp"] = {"mechanism": "gaussian_input", "epsilon": 1.0e-300, "delta": 0.1}
            argv = [command]
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        if command == "privatize":
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        written = sorted(out.iterdir()) if out.exists() else []
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: input perturbation at epsilon=1e-300 "), err
        assert "Traceback" not in err
        assert sorted(out.iterdir()) == written

    def test_grid_points_capped_before_the_scan(self, tmp_path, capsys, monkeypatch):
        """A million grid points would make 5e11 pairs; the config is refused
        on load, so no command reaches the pair indices."""
        def no_pairs(*args, **kwargs):
            raise AssertionError("the grid pairs were formed")

        monkeypatch.setattr(np, "triu_indices", no_pairs)
        doc = yaml.safe_load(DEMO.read_text())
        doc["dp"]["neighborhood"]["grid_points"] = 1000000
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        for args in ALL_COMMANDS:
            assert main(args + ["--config", str(path), "--out", str(out)]) == 2, args
            assert capsys.readouterr().err == ("error: dp.neighborhood.grid_points must "
                                               "be in [2, 1024], got 1000000\n")
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


MODEL_COMMANDS = ALL_COMMANDS[:6]
MODEL_HEADER = "# schema: dpresidual-model/1\n# m: 3\n# n: 2\n# sigma: 1.0\n# lambda: 0.0\n"


class TestInputErrors:
    """Unreadable input files and a negative seed are schema errors (exit 2)
    with no artifact written; each used to end in a traceback (exit 1)."""

    @pytest.mark.parametrize("body", [
        None,
        MODEL_HEADER + "1.0,2.0\n2.0,5.0\n",
        MODEL_HEADER + "1.0,2.0\n2.0,abc\n3.0,7.0\n",
        MODEL_HEADER + "1.0,2.0\n2.0\n3.0,7.0\n",
        MODEL_HEADER + "1.0,2.0\n2.0,\n3.0,7.0\n",
        MODEL_HEADER,
        MODEL_HEADER.replace("# sigma: 1.0\n", "") + "1.0,2.0\n2.0,5.0\n3.0,7.0\n",
    ], ids=["missing", "two_rows_of_three", "non_numeric", "ragged", "empty_cell",
            "empty_body", "no_sigma"])
    def test_bad_model_csv(self, tmp_path, capsys, body):
        model_csv = tmp_path / "H.csv"
        if body is not None:
            model_csv.write_text(body)
        doc = {**SMALL_EPSILON_CONFIG,
               "model": {"m": 3, "n": 2, "sigma": 1.0, "lambda": 0.0,
                         "matrix_source": str(model_csv)}}
        doc.pop("attack")
        path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        for args in MODEL_COMMANDS:
            assert main(args + ["--config", str(path), "--out", str(out)]) == 2, args
            err = capsys.readouterr().err
            assert err.startswith(f"error: model.matrix_source {model_csv}: "), err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command,artifact", [("estimate", "estimate.json"),
                                                  ("privatize", "release.json")])
    def test_missing_measurements(self, tmp_path, capsys, config_path, command, artifact):
        out = tmp_path / "o"
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / "measurements.csv") in err and "run simulate first" in err
        elsewhere = tmp_path / "nope.csv"
        assert main([command, "--config", str(config_path), "--out", str(out),
                     "--measurements", str(elsewhere)]) == 2
        err = capsys.readouterr().err
        assert str(elsewhere) in err and "run simulate first" not in err
        assert not (out / artifact).exists()

    @pytest.mark.parametrize("command,artifact", [("estimate", "estimate.json"),
                                                  ("privatize", "release.json")])
    @pytest.mark.parametrize("offset,line,named", [
        (0, "index,y", "no 'z' column"),
        (1, "0,abc", "not a number"),
        (1, "0,nan", "1 not finite"),
        (1, None, "needs 12 finite z values, got 11"),
    ], ids=["no_z_column", "non_numeric", "nan", "short"])
    def test_malformed_measurements(self, tmp_path, capsys, config_path, command,
                                    artifact, offset, line, named):
        """Replace the header or the first row (None drops that row)."""
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        measurements = out / "measurements.csv"
        lines = measurements.read_text().splitlines()
        at = lines.index("index,z") + offset
        lines[at:at + 1] = [] if line is None else [line]
        measurements.write_text("\n".join(lines) + "\n")
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(measurements) in err and named in err
        assert not (out / artifact).exists()

    @pytest.mark.parametrize("args,with_config", [
        *((args, True) for args in MODEL_COMMANDS),
        (["figures", "--which", "fig6"], True),
        (["figures", "--which", "fig6"], False),
    ], ids=[*(args[0] for args in MODEL_COMMANDS), "figures", "figures_no_config"])
    def test_negative_seed(self, tmp_path, capsys, config_path, args, with_config):
        config = ["--config", str(config_path)] if with_config else []
        out = tmp_path / "o"
        assert main(args + config + ["--out", str(out), "--seed", "-3"]) == 2
        assert "--seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()
