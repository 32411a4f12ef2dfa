"""Experiment configuration: strict schema over a YAML key tree.

Unknown keys are rejected and every violation names the offending key
path. The parsed configuration is plain data, the ``dp`` section parsed
straight into its ``PrivacyParams``; building models and attacks from it
lives here too so the CLI commands stay thin.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .dp_mechanism import Mechanism, NeighborhoodSpec, PrivacyParams
from .exceptions import SchemaError
from .measurement_model import AttackVector, MeasurementModel, load_model_csv, stealth_attack
from .streams import SeedStream


@dataclass(frozen=True)
class ModelConfig:
    m: int
    n: int
    sigma: float
    lam: float
    matrix_source: str  # "random_seeded" or a CSV path


@dataclass(frozen=True)
class AttackConfig:
    indices: tuple[int, ...] | None = None
    values: tuple[float, ...] | None = None
    stealth_coeffs: tuple[float, ...] | None = None


@dataclass(frozen=True)
class DpConfig:
    """The ``dp`` section: the release's ``PrivacyParams`` plus delta-curve's inputs.

    ``r_prime`` is set only on a gaussian_output config, for delta-curve's
    chi-square guarantee scan; a chi_square config's r' is ``params.r_prime``.
    """

    params: PrivacyParams
    epsilon_grid: tuple[float, ...] | None = None
    neighborhood: NeighborhoodSpec | None = None
    r_prime: int | None = None


@dataclass(frozen=True)
class TestConfig:
    alpha: float = 0.05
    alpha_grid: tuple[float, ...] | None = None


@dataclass(frozen=True)
class McConfig:
    trials: int = 100_000
    seed: int = 0
    workers: int = 1


@dataclass(frozen=True)
class FiguresConfig:
    delta_theta_values: tuple[float, ...] | None = None
    nu_sigma_values: tuple[float, ...] | None = None
    epsilon_values: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig | None
    attack: AttackConfig | None
    dp: DpConfig | None
    test: TestConfig = field(default_factory=TestConfig)
    mc: McConfig = field(default_factory=McConfig)
    figures: FiguresConfig | None = None
    config_hash: str = ""


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

def _require_mapping(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path} must be a mapping, got {type(doc).__name__}")
    return doc

def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"unknown key {path}.{sorted(unknown)[0]}")

def _get(doc: dict, key: str, path: str, kind, required: bool = True, default=None):
    if key not in doc or doc[key] is None:
        if required:
            raise SchemaError(f"missing required key {path}.{key}")
        return default
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise SchemaError(f"{path}.{key} must be an integer")
    if not isinstance(value, kind):
        raise SchemaError(f"{path}.{key} must be of type {kind.__name__}")
    return value

def _get_list(doc: dict, key: str, path: str, kind, required: bool = False):
    if key not in doc or doc[key] is None:
        if required:
            raise SchemaError(f"missing required key {path}.{key}")
        return None
    value = doc[key]
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}.{key} must be a nonempty list")
    out = []
    for i, v in enumerate(value):
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if kind is int and (isinstance(v, bool) or not isinstance(v, int)):
            raise SchemaError(f"{path}.{key}[{i}] must be an integer")
        if not isinstance(v, kind):
            raise SchemaError(f"{path}.{key}[{i}] must be of type {kind.__name__}")
        out.append(v)
    return tuple(out)


def _require_finite(path: str, lists: dict) -> None:
    for key, values in lists.items():
        for i, v in enumerate(values or ()):
            if not math.isfinite(v):
                raise SchemaError(f"{path}.{key}[{i}] must be finite, got {v}")


def _parse_model(doc, path="model") -> ModelConfig:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"m", "n", "sigma", "lambda", "matrix_source"}, path)
    cfg = ModelConfig(
        m=_get(doc, "m", path, int),
        n=_get(doc, "n", path, int),
        sigma=_get(doc, "sigma", path, float),
        lam=_get(doc, "lambda", path, float),
        matrix_source=_get(doc, "matrix_source", path, str, required=False,
                           default="random_seeded"),
    )
    if cfg.m < 1:
        raise SchemaError(f"{path}.m must be >= 1")
    if cfg.n < 1:
        raise SchemaError(f"{path}.n must be >= 1")
    if not 0 < cfg.sigma < math.inf:
        raise SchemaError(f"{path}.sigma must be finite and > 0, got {cfg.sigma}")
    if not 0 <= cfg.lam < math.inf:
        raise SchemaError(f"{path}.lambda must be finite and >= 0, got {cfg.lam}")
    return cfg


def _parse_attack(doc, path="attack") -> AttackConfig:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"indices", "values", "stealth_coeffs"}, path)
    indices = _get_list(doc, "indices", path, int)
    values = _get_list(doc, "values", path, float)
    stealth = _get_list(doc, "stealth_coeffs", path, float)
    if stealth is not None and (indices is not None or values is not None):
        raise SchemaError(f"{path}: stealth_coeffs excludes indices/values")
    if (indices is None) != (values is None):
        raise SchemaError(f"{path}: indices and values must be given together")
    if indices is not None and len(indices) != len(values):
        raise SchemaError(f"{path}: indices and values must have equal length")
    if indices is not None and len(set(indices)) != len(indices):
        raise SchemaError(f"{path}.indices must be distinct, got {indices}")
    if stealth is None and indices is None:
        raise SchemaError(f"{path}: give either indices/values or stealth_coeffs")
    _require_finite(path, {"values": values, "stealth_coeffs": stealth})
    return AttackConfig(indices=indices, values=values, stealth_coeffs=stealth)


def _parse_neighborhood(doc, path="dp.neighborhood") -> NeighborhoodSpec:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"delta_h_bound", "scan_count", "theta_domain", "grid_points"}, path)
    domain = _get_list(doc, "theta_domain", path, float, required=True)
    if len(domain) != 2:
        raise SchemaError(f"{path}.theta_domain must be [lo, hi]")
    try:
        return NeighborhoodSpec(
            delta_h_bound=_get(doc, "delta_h_bound", path, float),
            scan_count=_get(doc, "scan_count", path, int),
            theta_domain=(domain[0], domain[1]),
            grid_points=_get(doc, "grid_points", path, int, required=False, default=33),
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _parse_dp(doc, path="dp") -> DpConfig:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"mechanism", "epsilon", "delta", "r_prime", "nu_mean",
                          "nu_sigma", "epsilon_grid", "neighborhood"}, path)
    mech_name = _get(doc, "mechanism", path, str)
    try:
        mechanism = Mechanism(mech_name)
    except ValueError:
        raise SchemaError(
            f"{path}.mechanism must be one of "
            f"{[m.value for m in Mechanism]}, got {mech_name!r}"
        ) from None
    knobs = dict(
        epsilon=_get(doc, "epsilon", path, float),
        delta=_get(doc, "delta", path, float),
        r_prime=_get(doc, "r_prime", path, int, required=False),
        nu_mean=_get(doc, "nu_mean", path, float, required=False),
        nu_sigma=_get(doc, "nu_sigma", path, float, required=False),
    )
    # A gaussian_output config may carry r_prime for delta-curve's
    # chi-square guarantee scan alone: no knob of its release, but checked
    # as the chi-square mechanism's r_prime.
    scan_r_prime = knobs.pop("r_prime") if mechanism is Mechanism.GAUSSIAN_OUTPUT else None
    try:
        params = PrivacyParams(mechanism, **knobs)
        if scan_r_prime is not None:
            PrivacyParams.chi_square(r_prime=scan_r_prime)
    except ValueError as exc:
        raise SchemaError(f"{path}.{exc}") from exc
    cfg = DpConfig(
        params=params,
        epsilon_grid=_get_list(doc, "epsilon_grid", path, float),
        neighborhood=_parse_neighborhood(doc["neighborhood"])
        if doc.get("neighborhood") is not None else None,
        r_prime=scan_r_prime,
    )
    if cfg.epsilon_grid is not None:
        if any(e <= 0 for e in cfg.epsilon_grid):
            raise SchemaError(f"{path}.epsilon_grid values must be > 0")
        if any(b <= a for a, b in zip(cfg.epsilon_grid, cfg.epsilon_grid[1:])):
            raise SchemaError(f"{path}.epsilon_grid must be strictly increasing")
    return cfg


def _parse_test(doc, path="test") -> TestConfig:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"alpha", "alpha_grid"}, path)
    cfg = TestConfig(
        alpha=_get(doc, "alpha", path, float, required=False, default=0.05),
        alpha_grid=_get_list(doc, "alpha_grid", path, float),
    )
    if not 0 < cfg.alpha < 1:
        raise SchemaError(f"{path}.alpha must be in (0, 1)")
    if cfg.alpha_grid is not None:
        if any(not 0 < a < 1 for a in cfg.alpha_grid):
            raise SchemaError(f"{path}.alpha_grid values must be in (0, 1)")
        if any(b <= a for a, b in zip(cfg.alpha_grid, cfg.alpha_grid[1:])):
            raise SchemaError(f"{path}.alpha_grid must be strictly increasing")
    return cfg


def _parse_mc(doc, path="mc") -> McConfig:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"trials", "seed", "workers"}, path)
    cfg = McConfig(
        trials=_get(doc, "trials", path, int, required=False, default=100_000),
        seed=_get(doc, "seed", path, int, required=False, default=0),
        workers=_get(doc, "workers", path, int, required=False, default=1),
    )
    if cfg.trials < 1:
        raise SchemaError(f"{path}.trials must be >= 1")
    if cfg.seed < 0:
        raise SchemaError(f"{path}.seed must be >= 0")
    if cfg.workers < 1:
        raise SchemaError(f"{path}.workers must be >= 1")
    return cfg


def _parse_figures(doc, path="figures") -> FiguresConfig:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"delta_theta_values", "nu_sigma_values", "epsilon_values"}, path)
    cfg = FiguresConfig(
        delta_theta_values=_get_list(doc, "delta_theta_values", path, float),
        nu_sigma_values=_get_list(doc, "nu_sigma_values", path, float),
        epsilon_values=_get_list(doc, "epsilon_values", path, float),
    )
    # fig3 sweeps signed mean gaps; fig4 rejects negative noncentralities.
    _require_finite(path, vars(cfg))
    if cfg.nu_sigma_values is not None and any(v < 0 for v in cfg.nu_sigma_values):
        raise SchemaError(f"{path}.nu_sigma_values must be >= 0")
    if cfg.epsilon_values is not None and any(v <= 0 for v in cfg.epsilon_values):
        raise SchemaError(f"{path}.epsilon_values must be > 0")
    return cfg


def validate_config(doc) -> ExperimentConfig:
    """Validate a parsed YAML document against the experiment schema."""
    doc = _require_mapping(doc, "config")
    _reject_unknown(doc, {"model", "attack", "dp", "test", "mc", "figures"}, "config")
    canonical = yaml.safe_dump(doc, sort_keys=True)
    model = _parse_model(doc["model"]) if doc.get("model") is not None else None
    attack = _parse_attack(doc["attack"]) if doc.get("attack") is not None else None
    dp = _parse_dp(doc["dp"]) if doc.get("dp") is not None else None
    if model and dp and model.lam > 0 and dp.params.mechanism is Mechanism.CHI_SQUARE:
        raise SchemaError("dp.mechanism chi_square assumes an unregularized model "
                          "(model.lambda = 0); use gaussian_output for ridge models")
    if model and attack and model.lam > 0 and attack.stealth_coeffs is not None:
        raise SchemaError("attack.stealth_coeffs builds an attack that only the "
                          "unregularized projector annihilates (model.lambda = 0)")
    return ExperimentConfig(
        model=model,
        attack=attack,
        dp=dp,
        test=_parse_test(doc["test"]) if doc.get("test") is not None else TestConfig(),
        mc=_parse_mc(doc["mc"]) if doc.get("mc") is not None else McConfig(),
        figures=_parse_figures(doc["figures"]) if doc.get("figures") is not None else None,
        config_hash=hashlib.sha256(canonical.encode()).hexdigest()[:16],
    )


def load_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment configuration."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise SchemaError(f"config is not valid YAML: {exc}") from exc
    return validate_config(doc)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

# Fixed child-stream layout under the experiment seed, so each stage draws
# from its own substream regardless of which commands run.
STREAM_MATRIX, STREAM_STATE, STREAM_NOISE, STREAM_DP, STREAM_SCAN, STREAM_MC = range(6)


def derive_streams(seed: int) -> list[SeedStream]:
    return SeedStream(seed).spawn(6)


def build_model(cfg: ModelConfig, matrix_stream: SeedStream) -> MeasurementModel:
    """Materialize the model: seeded standard-normal H or a CSV load."""
    if cfg.matrix_source == "random_seeded":
        H = matrix_stream.generator.standard_normal((cfg.m, cfg.n))
        return MeasurementModel(H=H, sigma=cfg.sigma, lam=cfg.lam)
    model = load_model_csv(cfg.matrix_source)
    if (model.m, model.n) != (cfg.m, cfg.n):
        raise SchemaError(
            f"model.matrix_source is {model.m}x{model.n}, config declares "
            f"{cfg.m}x{cfg.n}"
        )
    if model.sigma != cfg.sigma or model.lam != cfg.lam:
        raise SchemaError("model.matrix_source header disagrees with config sigma/lambda")
    return model


def build_attack(cfg: AttackConfig | None, model: MeasurementModel) -> AttackVector:
    if cfg is None:
        return AttackVector.zero(model.m)
    if cfg.stealth_coeffs is not None:
        if len(cfg.stealth_coeffs) != model.n:
            raise SchemaError(
                f"attack.stealth_coeffs has length {len(cfg.stealth_coeffs)}, "
                f"expected n={model.n}"
            )
        return stealth_attack(model, np.array(cfg.stealth_coeffs))
    if any(not 0 <= i < model.m for i in cfg.indices):
        raise SchemaError(f"attack.indices must lie in [0, {model.m})")
    return AttackVector.sparse(model.m, cfg.indices, cfg.values)
