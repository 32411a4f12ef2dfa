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

    ``scan_r_prime`` is a gaussian_output config's r_prime, kept for
    delta-curve's chi-square guarantee scan alone: no knob of its release.
    """

    params: PrivacyParams
    epsilon_grid: tuple[float, ...] | None = None
    neighborhood: NeighborhoodSpec | None = None
    scan_r_prime: int | None = None

    @property
    def r_prime(self) -> int | None:
        """delta-curve's r': the release's on chi_square, else the scan's."""
        return self.params.r_prime if self.params.r_prime is not None else self.scan_r_prime


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
# Validation
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key that must be given


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


def _section(doc, path: str, spec: dict) -> dict:
    """The mapping ``doc`` at ``path`` read by ``spec``: each allowed key, in
    reading order, to (kind, default). A kind is a type read by ``_value``,
    ``[type]`` for a nonempty list of it, or a parser called with the value
    and its key path (a nested section's, say). An absent or null key takes
    its default unless that is ``_REQUIRED``. Under the top level, "config",
    a key path is the bare key."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path} must be a mapping, got {type(doc).__name__}")
    unknown = doc.keys() - spec.keys()
    if unknown:
        raise SchemaError(f"unknown key {path}.{min(unknown, key=str)}")
    values = {}
    for key, (kind, default) in spec.items():
        where = key if path == "config" else f"{path}.{key}"
        value = doc.get(key)
        if value is None:
            if default is _REQUIRED:
                raise SchemaError(f"missing required key {where}")
            values[key] = default
        elif isinstance(kind, list):
            if not isinstance(value, list) or not value:
                raise SchemaError(f"{where} must be a nonempty list")
            values[key] = tuple(_value(v, kind[0], f"{where}[{i}]")
                                for i, v in enumerate(value))
        elif isinstance(kind, type):
            values[key] = _value(value, kind, where)
        else:
            values[key] = kind(value, where)
    return values


def _parse_model(doc, path: str) -> ModelConfig:
    values = _section(doc, path, {
        "m": (int, _REQUIRED), "n": (int, _REQUIRED), "sigma": (float, _REQUIRED),
        "lambda": (float, _REQUIRED), "matrix_source": (str, "random_seeded")})
    cfg = ModelConfig(lam=values.pop("lambda"), **values)
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


def _parse_attack(doc, path: str) -> AttackConfig:
    cfg = AttackConfig(**_section(doc, path, {
        "indices": ([int], None), "values": ([float], None),
        "stealth_coeffs": ([float], None)}))
    indices, values, stealth = cfg.indices, cfg.values, cfg.stealth_coeffs
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
    return cfg


def _parse_neighborhood(doc, path: str) -> NeighborhoodSpec:
    values = _section(doc, path, {
        "theta_domain": ([float], _REQUIRED), "delta_h_bound": (float, _REQUIRED),
        "scan_count": (int, _REQUIRED),
        "grid_points": (int, NeighborhoodSpec.grid_points)})
    if len(values["theta_domain"]) != 2:
        raise SchemaError(f"{path}.theta_domain must be [lo, hi]")
    try:
        return NeighborhoodSpec(**values)
    except ValueError as exc:  # each message begins with the field's name
        raise SchemaError(f"{path}.{exc}") from exc


def _mechanism(name, where: str) -> Mechanism:
    try:
        return Mechanism(_value(name, str, where))
    except ValueError:
        raise SchemaError(f"{where} must be one of {[m.value for m in Mechanism]}, "
                          f"got {name!r}") from None


def _parse_dp(doc, path: str) -> DpConfig:
    knobs = _section(doc, path, {
        "mechanism": (_mechanism, _REQUIRED), "epsilon": (float, _REQUIRED),
        "delta": (float, _REQUIRED), "r_prime": (int, None),
        "nu_mean": (float, None), "nu_sigma": (float, None),
        "epsilon_grid": ([float], None), "neighborhood": (_parse_neighborhood, None)})
    grid, neighborhood = knobs.pop("epsilon_grid"), knobs.pop("neighborhood")
    # A gaussian_output config may carry r_prime for delta-curve's
    # chi-square guarantee scan alone: no knob of its release, but checked
    # as the chi-square mechanism's r_prime.
    scan_r_prime = (knobs.pop("r_prime") if knobs["mechanism"] is Mechanism.GAUSSIAN_OUTPUT
                    else None)
    try:
        params = PrivacyParams(**knobs)
        if scan_r_prime is not None:
            PrivacyParams.chi_square(r_prime=scan_r_prime)
    except ValueError as exc:
        raise SchemaError(f"{path}.{exc}") from exc
    if grid is not None:
        if any(e <= 0 for e in grid):
            raise SchemaError(f"{path}.epsilon_grid values must be > 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise SchemaError(f"{path}.epsilon_grid must be strictly increasing")
    return DpConfig(params, epsilon_grid=grid, neighborhood=neighborhood,
                    scan_r_prime=scan_r_prime)


def _parse_test(doc, path: str) -> TestConfig:
    cfg = TestConfig(**_section(doc, path, {
        "alpha": (float, TestConfig.alpha), "alpha_grid": ([float], None)}))
    if not 0 < cfg.alpha < 1:
        raise SchemaError(f"{path}.alpha must be in (0, 1)")
    if cfg.alpha_grid is not None:
        if any(not 0 < a < 1 for a in cfg.alpha_grid):
            raise SchemaError(f"{path}.alpha_grid values must be in (0, 1)")
        if any(b <= a for a, b in zip(cfg.alpha_grid, cfg.alpha_grid[1:])):
            raise SchemaError(f"{path}.alpha_grid must be strictly increasing")
    return cfg


def _parse_mc(doc, path: str) -> McConfig:
    cfg = McConfig(**_section(doc, path, {
        "trials": (int, McConfig.trials), "seed": (int, McConfig.seed),
        "workers": (int, McConfig.workers)}))
    if cfg.trials < 1:
        raise SchemaError(f"{path}.trials must be >= 1")
    if cfg.seed < 0:
        raise SchemaError(f"{path}.seed must be >= 0")
    if cfg.workers < 1:
        raise SchemaError(f"{path}.workers must be >= 1")
    return cfg


def _parse_figures(doc, path: str) -> FiguresConfig:
    cfg = FiguresConfig(**_section(doc, path, {
        "delta_theta_values": ([float], None), "nu_sigma_values": ([float], None),
        "epsilon_values": ([float], None)}))
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
    sections = _section(doc, "config", {
        "model": (_parse_model, None), "attack": (_parse_attack, None),
        "dp": (_parse_dp, None), "test": (_parse_test, TestConfig()),
        "mc": (_parse_mc, McConfig()), "figures": (_parse_figures, None)})
    model, attack, dp = sections["model"], sections["attack"], sections["dp"]
    if model and dp and model.lam > 0 and dp.params.mechanism is Mechanism.CHI_SQUARE:
        raise SchemaError("dp.mechanism chi_square assumes an unregularized model "
                          "(model.lambda = 0); use gaussian_output for ridge models")
    if model and attack and model.lam > 0 and attack.stealth_coeffs is not None:
        raise SchemaError("attack.stealth_coeffs builds an attack that only the "
                          "unregularized projector annihilates (model.lambda = 0)")
    canonical = _canonical_text(doc)
    return ExperimentConfig(**sections,
                            config_hash=hashlib.sha256(canonical.encode()).hexdigest()[:16])


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
