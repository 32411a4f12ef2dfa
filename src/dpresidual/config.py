"""Experiment configuration: strict schema over a YAML key tree.

Unknown keys are rejected and every violation names the offending key
path. The parsed configuration is plain data, the ``dp`` section parsed
straight into its ``PrivacyParams``; building models and attacks from it
lives here too so the CLI commands stay thin.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .dp_mechanism import Mechanism, NeighborhoodSpec, PrivacyParams
from .exceptions import SchemaError
from .measurement_model import AttackVector, MeasurementModel, load_model_csv, stealth_attack
from .streams import SeedStream

logger = logging.getLogger(__name__)

# libyaml's C parser and emitter, where PyYAML was built with them. The C
# parser builds the documents the pure-Python one builds, and where it fails
# _parse has the pure-Python one read the text again; the C emitter writes
# config_hash's text only where _c_dump_refusal finds no reason not to.
_LIBYAML = yaml.__with_libyaml__
# libyaml writes a mapping key inline up to another length than PyYAML (they
# part near 123 characters), and writes an empty key inline where PyYAML
# writes "? ''"; keys of 1 to this many characters they write alike.
_MAX_C_KEY = 64


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

def _value(value, kind, where: str):
    """``value`` as ``kind``: an int widens to float, a bool is no int, and a
    float must be finite. ``where`` is the key path the message names."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer past the double range
            value = math.inf
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise SchemaError(f"{where} must be an integer")
    if not isinstance(value, kind):
        raise SchemaError(f"{where} must be of type {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise SchemaError(f"{where} must be finite, got {value}")
    return value

def _get(doc: dict, key: str, path: str, kind, required: bool = True, default=None):
    if key not in doc or doc[key] is None:
        if required:
            raise SchemaError(f"missing required key {path}.{key}")
        return default
    return _value(doc[key], kind, f"{path}.{key}")

def _get_list(doc: dict, key: str, path: str, kind, required: bool = False):
    if key not in doc or doc[key] is None:
        if required:
            raise SchemaError(f"missing required key {path}.{key}")
        return None
    value = doc[key]
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}.{key} must be a nonempty list")
    return tuple(_value(v, kind, f"{path}.{key}[{i}]") for i, v in enumerate(value))


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
    if not (cfg.sigma > 0 and 0 < cfg.sigma * cfg.sigma < math.inf):
        raise SchemaError(f"{path}.sigma must be > 0 with a positive finite square, "
                          f"got {cfg.sigma}")
    if not cfg.lam >= 0:
        raise SchemaError(f"{path}.lambda must be >= 0, got {cfg.lam}")
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
            grid_points=_get(doc, "grid_points", path, int, required=False,
                             default=NeighborhoodSpec.grid_points),
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
        alpha=_get(doc, "alpha", path, float, required=False,
                   default=TestConfig.alpha),
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
        trials=_get(doc, "trials", path, int, required=False, default=McConfig.trials),
        seed=_get(doc, "seed", path, int, required=False, default=McConfig.seed),
        workers=_get(doc, "workers", path, int, required=False,
                     default=McConfig.workers),
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
    if cfg.nu_sigma_values is not None and not all(
            v == 0 or (v > 0 and 0 < v * v < math.inf) for v in cfg.nu_sigma_values):
        raise SchemaError(f"{path}.nu_sigma_values must be >= 0, and a nonzero one "
                          "needs a positive finite square")
    if cfg.epsilon_values is not None and any(v <= 0 for v in cfg.epsilon_values):
        raise SchemaError(f"{path}.epsilon_values must be > 0")
    return cfg


def _c_dump_refusal(doc) -> str | None:
    """Why libyaml's emitter might not write ``doc`` as ``yaml.safe_dump`` does,
    or None. Past printable ASCII it folds long double-quoted strings at other
    places, so every string must be printable ASCII. Anything but strings,
    numbers, bools, None, lists and mappings, each list or mapping met once
    (a repeated one is written as an anchor), is left to PyYAML too."""
    seen: set[int] = set()
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            if not (node.isascii() and node.isprintable()):
                return "a string outside printable ASCII"
        elif isinstance(node, (dict, list)):
            if id(node) in seen:
                return "a list or mapping met twice"
            seen.add(id(node))
            if isinstance(node, dict):
                if not all(isinstance(k, str) and 0 < len(k) <= _MAX_C_KEY for k in node):
                    return f"a mapping key that is no string of 1 to {_MAX_C_KEY} characters"
                stack.extend(node.keys())
                stack.extend(node.values())
            else:
                stack.extend(node)
        elif node is not None and type(node) not in (bool, int, float):
            return f"a {type(node).__name__} value"
    return None


def _hash_dumper(doc) -> tuple[type, str]:
    """The dumper that writes ``doc``'s canonical text, and its name for the log."""
    if not _LIBYAML:
        return yaml.SafeDumper, "pure-Python (PyYAML has no libyaml)"
    why = _c_dump_refusal(doc)
    if why:
        return yaml.SafeDumper, f"pure-Python ({why})"
    return yaml.CSafeDumper, "libyaml"


def _canonical_text(doc) -> str:
    """``yaml.safe_dump(doc, sort_keys=True)``, the text config_hash digests:
    written by libyaml's emitter where that gives the same text."""
    return yaml.dump(doc, Dumper=_hash_dumper(doc)[0], sort_keys=True)


def validate_config(doc) -> ExperimentConfig:
    """Validate a parsed YAML document against the experiment schema."""
    doc = _require_mapping(doc, "config")
    _reject_unknown(doc, {"model", "attack", "dp", "test", "mc", "figures"}, "config")
    canonical = _canonical_text(doc)
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


def _parse(text: str) -> tuple[object, str]:
    """The YAML document in ``text``, and the parser that read it for the log."""
    if not _LIBYAML:
        return yaml.safe_load(text), "pure-Python (PyYAML has no libyaml)"
    try:
        return yaml.load(text, Loader=yaml.CSafeLoader), "libyaml"
    except yaml.YAMLError:
        # PyYAML words the error as it always has, quoting the line at
        # fault; and it reads a few texts libyaml refuses, such as an
        # escaped lone surrogate "\uD800".
        return yaml.safe_load(text), "pure-Python (libyaml's parser failed)"


def load_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment configuration."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise SchemaError(f"config {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"config {path}: {exc}") from exc
    try:
        doc, parser = _parse(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"config is not valid YAML: {exc}") from exc
    config = validate_config(doc)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("config %s: parsed by %s, config_hash dumped by %s",
                     path, parser, _hash_dumper(doc)[1])
    return config


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
    source = cfg.matrix_source
    try:
        model = load_model_csv(source)
    except OSError as exc:
        raise SchemaError(f"model.matrix_source {source}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"model.matrix_source {source}: {exc}") from exc
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
