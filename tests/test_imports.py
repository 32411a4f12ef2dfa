"""Start-up: the package, the release path, the privacy guarantee and the
chi-square detection analytics load no scipy.

``special_functions`` imports ``scipy.special`` on first use, and
``marcum_q``, the gamma-tail inverse and the exceedance are plain numpy,
so importing the package, and running ``simulate``, ``estimate``,
``privatize``, ``delta-curve``, and ``roc`` and ``figures --which fig4``
on chi-square laws, never pays scipy's import time. Each check runs in a
fresh interpreter, since the test process itself has long since loaded
scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import dpresidual

SRC = Path(dpresidual.__file__).resolve().parents[1]
DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"

# Every public name dpresidual/__init__.py binds; each must keep resolving.
EXPORTED = (
    "AttackVector", "ChiMixture", "ConvergenceError", "DeltaScanResult",
    "GaussianApproximation", "InputPerturbation", "McValidation", "MeasurementModel",
    "Mechanism", "NeighborPerturbation", "NeighborhoodSpec", "NoResidualError",
    "NoisyRelease", "NumericError", "PrivacyParams", "Projection",
    "RankDeficiencyError", "Regime", "ResidualLaw", "RocCurve", "SchemaError",
    "SeedStream", "SingularUpdateError", "StateVector", "TestSpec",
    "ValidationFailure", "__version__", "apply_neighbor", "auroc", "auroc_family",
    "calibrate_gaussian_output_sigma", "chi_mixture", "chi_square_release",
    "cumulant", "delta_for_epsilon", "delta_max_over_neighborhood", "gaussian_law",
    "gaussian_leakage_probability", "gaussian_mechanism_sigma",
    "gaussian_q", "gaussian_q_inverse", "gsp_reduce",
    "input_perturbation_noise", "input_perturbation_release", "leakage",
    "load_model_csv", "log_bessel_i", "marcum_q", "monte_carlo_validate",
    "neighbor_projection_update", "neighbor_roots", "noncentral_chisq_cdf",
    "noncentral_chisq_sample", "normal_approx_bound", "output_release", "pfa_pd",
    "pfa_pd_family", "production_mode", "projection_matrix",
    "regularized_gamma_q_inverse", "release_noise", "released_law", "residual_law",
    "roc", "sample_law", "save_model_csv", "simulate_measurements", "stealth_attack",
    "threshold", "wls_estimate", "wssr",
)

# Runs each argv through cli.main and prints, per command, its exit code and
# which of scipy and scipy.special are loaded after it.
SCRIPT = """
import json, sys
import dpresidual, dpresidual.cli
runs = [["import", 0, "scipy" in sys.modules, "scipy.special" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    code = dpresidual.cli.main(argv)
    runs.append([argv[0], code, "scipy" in sys.modules, "scipy.special" in sys.modules])
print(json.dumps(runs))
"""


def run_fresh(argvs):
    """[command, exit code, scipy loaded, scipy.special loaded] per step."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def demo_variant(tmp_path, mechanism):
    doc = yaml.safe_load(DEMO.read_text())
    dp = doc["dp"]
    if mechanism == "gaussian_output":
        dp.update(mechanism=mechanism, nu_mean=0.0, nu_sigma=1.0)
    elif mechanism == "gaussian_input":
        del dp["r_prime"]
        dp.update(mechanism=mechanism, epsilon=12.0)
    path = tmp_path / f"{mechanism}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_package_import_loads_no_scipy():
    assert run_fresh([]) == [["import", 0, False, False]]


@pytest.mark.parametrize("mechanism", ["chi_square", "gaussian_output", "gaussian_input"])
def test_release_commands_load_no_scipy(tmp_path, mechanism):
    config, out = str(demo_variant(tmp_path, mechanism)), str(tmp_path / "o")
    runs = run_fresh([[command, "--config", config, "--out", out]
                      for command in ("simulate", "estimate", "privatize")])
    assert [command for command, *_ in runs] == ["import", "simulate", "estimate",
                                                 "privatize"]
    assert all(code == 0 and not scipy for _, code, scipy, _ in runs), runs
    assert (tmp_path / "o" / "release.json").exists()


def test_delta_curve_loads_no_scipy(tmp_path):
    """The guarantee's Marcum-Q tails, its root interval and its cells."""
    out = tmp_path / "o"
    runs = run_fresh([["delta-curve", "--config", str(DEMO), "--out", str(out)]])
    assert runs == [["import", 0, False, False], ["delta-curve", 0, False, False]]
    assert (out / "delta_curve.csv").exists()


def test_chi_square_detection_loads_no_scipy(tmp_path):
    """The threshold's gamma-tail inverse, the Marcum-Q tails and the exact
    AUROC, in ``roc`` and in fig4."""
    out = tmp_path / "o"
    runs = run_fresh([["roc", "--config", str(DEMO), "--out", str(out)],
                      ["figures", "--which", "fig4", "--config", str(DEMO), "--out", str(out)]])
    assert runs == [["import", 0, False, False], ["roc", 0, False, False],
                    ["figures", 0, False, False]]
    assert all((out / name).exists() for name in ("roc.csv", "auroc.csv", "fig4_auroc.csv"))


def test_roc_does_load_scipy_special(tmp_path):
    """The checks above are not vacuous: the Gaussian detection analytics
    still take ``erfc`` from scipy."""
    config, out = str(demo_variant(tmp_path, "gaussian_output")), str(tmp_path / "o")
    runs = run_fresh([["roc", "--config", config, "--out", out]])
    assert runs == [["import", 0, False, False], ["roc", 0, True, True]]


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_resolves(name):
    assert getattr(dpresidual, name) is not None
