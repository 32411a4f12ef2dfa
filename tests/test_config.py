"""Config parsing: the schema reader, and config_hash under libyaml.

Every section is read by one reader that names the key path at fault.
config_hash digests ``yaml.safe_dump(doc, sort_keys=True)``. Where PyYAML
has libyaml, its C emitter writes that text only on some documents, so the
hash must come out the same whichever dumper runs.
"""

import hashlib
import logging
from operator import attrgetter
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dpresidual import config as config_module
from dpresidual.config import _canonical_text, load_config, validate_config
from dpresidual.exceptions import SchemaError

DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
DEMO_HASH = "0354d37abb4382de"
# A path whose double-quoted scalar libyaml folds elsewhere than PyYAML: the
# hash PyYAML's text gives, which the C emitter's text would not.
ACCENTED_SOURCE = "/tmp/é" * 20
ACCENTED_HASH = "6a4b8609dd0c6578"

libyaml_only = pytest.mark.skipif(not yaml.__with_libyaml__,
                                  reason="PyYAML built without libyaml")

# Strings from all of Unicode (control characters included) and from
# printable ASCII alone, so both of the hash dumper's choices are drawn; as
# words too, for the emitters fold long strings at spaces.
ASCII = st.characters(min_codepoint=32, max_codepoint=126)
TEXT = st.one_of(
    st.text(max_size=400), st.text(ASCII, max_size=400),
    *(st.lists(st.text(chars, max_size=16), max_size=40).map(lambda w: " ".join(w)[:400])
      for chars in (st.characters(), ASCII)))
NUMBER = st.one_of(st.floats(), st.integers(-2**70, 2**70))
NUMBERS = st.lists(NUMBER, min_size=1, max_size=6)
SCHEMA_DOCS = st.fixed_dictionaries({}, optional={
    "model": st.fixed_dictionaries(
        {"m": st.integers(1, 10**6), "n": st.integers(1, 10**6), "sigma": NUMBER,
         "lambda": NUMBER},
        optional={"matrix_source": TEXT}),
    "attack": st.fixed_dictionaries(
        {}, optional={"indices": st.lists(st.integers(0, 10**6), max_size=6),
                      "values": NUMBERS, "stealth_coeffs": NUMBERS}),
    "dp": st.fixed_dictionaries(
        {"mechanism": TEXT, "epsilon": NUMBER, "delta": NUMBER},
        optional={"r_prime": st.integers(1, 10**6), "nu_mean": NUMBER, "nu_sigma": NUMBER,
                  "epsilon_grid": NUMBERS,
                  "neighborhood": st.fixed_dictionaries(
                      {"delta_h_bound": NUMBER, "scan_count": st.integers(0, 10**6),
                       "theta_domain": st.lists(NUMBER, min_size=2, max_size=2)},
                      optional={"grid_points": st.integers(1, 10**6)})}),
    "test": st.fixed_dictionaries({}, optional={"alpha": NUMBER, "alpha_grid": NUMBERS}),
    "mc": st.fixed_dictionaries({}, optional={"trials": st.integers(1, 10**9),
                                              "seed": st.integers(0, 2**64),
                                              "workers": st.integers(1, 64)}),
    "figures": st.fixed_dictionaries({}, optional={"delta_theta_values": NUMBERS,
                                                   "nu_sigma_values": NUMBERS,
                                                   "epsilon_values": NUMBERS}),
})


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_demo(tmp_path, matrix_source=None) -> Path:
    doc = yaml.safe_load(DEMO.read_text())
    if matrix_source is not None:
        doc["model"]["matrix_source"] = matrix_source
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestLibyamlAgreesWithPyyaml:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(SCHEMA_DOCS)
    def test_is_safe_dump(self, doc):
        assert _canonical_text(doc) == yaml.safe_dump(doc, sort_keys=True)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(SCHEMA_DOCS, st.booleans())
    def test_parse_reads_what_pyyaml_reads(self, doc, unicode):
        text = yaml.safe_dump(doc, allow_unicode=unicode)
        parsed, _ = config_module._parse(text)
        # Compared as text, so NaN equals NaN and -0.0 differs from 0.0.
        assert yaml.safe_dump(parsed) == yaml.safe_dump(yaml.safe_load(text))

    @libyaml_only
    def test_pyyaml_reads_what_libyaml_rejects(self):
        """libyaml refuses an escaped lone surrogate, which PyYAML reads."""
        text = 'dp: {mechanism: "\\uD800"}\n'
        with pytest.raises(yaml.YAMLError):
            yaml.load(text, Loader=yaml.CSafeLoader)
        assert config_module._parse(text) == (
            {"dp": {"mechanism": "\ud800"}}, "pure-Python (libyaml's parser failed)")

    @pytest.mark.parametrize("text", [
        "a: &x [*x]\n",          # a list that holds itself
        "a: &x {k: 1}\nb: *x\n",  # a mapping written twice, with an anchor
        "'': 1\n",               # libyaml writes the empty key inline
        f"{'k' * 123}: 1\n",     # and a long key too
        "a: 2001-12-14\n",
        "a: !!binary aGVsbG8=\n",
        "a: !!set {x, y}\n",
        "1: 2\n",
    ])
    def test_is_safe_dump_on_documents_left_to_pyyaml(self, text):
        doc = yaml.safe_load(text)
        assert config_module._c_dump_refusal(doc) is not None
        assert _canonical_text(doc) == yaml.safe_dump(doc, sort_keys=True)


class TestConfigHash:
    def test_demo_hash_pinned(self):
        assert load_config(DEMO).config_hash == DEMO_HASH

    def test_non_ascii_path_hashes_pyyaml_text(self, tmp_path):
        path = _write_demo(tmp_path, ACCENTED_SOURCE)
        doc = yaml.safe_load(path.read_text())
        assert _hash(yaml.safe_dump(doc, sort_keys=True)) == ACCENTED_HASH
        assert load_config(path).config_hash == ACCENTED_HASH

    @pytest.mark.parametrize("matrix_source", [None, ACCENTED_SOURCE],
                             ids=["demo", "accented"])
    def test_same_config_without_libyaml(self, tmp_path, monkeypatch, matrix_source):
        path = _write_demo(tmp_path, matrix_source)
        fast = load_config(path)
        monkeypatch.setattr(config_module, "_LIBYAML", False)
        assert load_config(path) == fast
        assert fast.config_hash == (DEMO_HASH if matrix_source is None else ACCENTED_HASH)


class TestParserLog:
    """load_config names its parser and hash dumper in one DEBUG record."""

    def _record(self, caplog, path) -> str:
        with caplog.at_level(logging.DEBUG, logger="dpresidual.config"):
            load_config(path)
        record, = [r for r in caplog.records if r.name == "dpresidual.config"]
        assert record.levelno == logging.DEBUG
        return record.getMessage()

    @libyaml_only
    def test_names_libyaml(self, caplog):
        assert self._record(caplog, DEMO) == (
            f"config {DEMO}: parsed by libyaml, config_hash dumped by libyaml")

    @libyaml_only
    def test_names_why_the_dumper_falls_back(self, tmp_path, caplog):
        path = _write_demo(tmp_path, ACCENTED_SOURCE)
        assert self._record(caplog, path).endswith(
            "parsed by libyaml, config_hash dumped by pure-Python "
            "(a string outside printable ASCII)")

    def test_names_pure_python_without_libyaml(self, caplog, monkeypatch):
        monkeypatch.setattr(config_module, "_LIBYAML", False)
        assert self._record(caplog, DEMO) == (
            f"config {DEMO}: parsed by pure-Python (PyYAML has no libyaml), "
            "config_hash dumped by pure-Python (PyYAML has no libyaml)")


# Every key of the schema: (key path, kind, default). The kind is "int",
# "float", "str", "section" or a list of one of the first two;
# REQUIRED marks a key that must be given.
REQUIRED = object()
_DELETE = object()
KEYS = [
    ("model", "section", None),
    ("attack", "section", None),
    ("dp", "section", None),
    ("test", "section", config_module.TestConfig()),
    ("mc", "section", config_module.McConfig()),
    ("figures", "section", None),
    ("model.m", "int", REQUIRED),
    ("model.n", "int", REQUIRED),
    ("model.sigma", "float", REQUIRED),
    ("model.lambda", "float", REQUIRED),
    ("model.matrix_source", "str", "random_seeded"),
    ("attack.indices", ["int"], None),
    ("attack.values", ["float"], None),
    ("attack.stealth_coeffs", ["float"], None),
    ("dp.mechanism", "str", REQUIRED),
    ("dp.epsilon", "float", REQUIRED),
    ("dp.delta", "float", REQUIRED),
    ("dp.r_prime", "int", None),
    ("dp.nu_mean", "float", None),
    ("dp.nu_sigma", "float", None),
    ("dp.epsilon_grid", ["float"], None),
    ("dp.neighborhood", "section", None),
    ("dp.neighborhood.delta_h_bound", "float", REQUIRED),
    ("dp.neighborhood.scan_count", "int", REQUIRED),
    ("dp.neighborhood.theta_domain", ["float"], REQUIRED),
    ("dp.neighborhood.grid_points", "int", 33),
    ("test.alpha", "float", 0.05),
    ("test.alpha_grid", ["float"], None),
    ("mc.trials", "int", 100_000),
    ("mc.seed", "int", 0),
    ("mc.workers", "int", 1),
    ("figures.delta_theta_values", ["float"], None),
    ("figures.nu_sigma_values", ["float"], None),
    ("figures.epsilon_values", ["float"], None),
]
# Where ExperimentConfig keeps a key whose path is not its attribute path.
ATTRIBUTES = {"model.lambda": "model.lam", "dp.nu_mean": "dp.params.nu_mean",
              "dp.nu_sigma": "dp.params.nu_sigma"}
WRONG_TYPE = {"int": ("x", "must be an integer"), "float": ("x", "must be of type float"),
              "str": (1, "must be of type str"),
              "section": ("x", "must be a mapping, got str")}
GOOD_ELEMENT = {"int": 1, "float": 0.5}


def _full_demo() -> dict:
    """The demo document with a figures section, so every section is present."""
    doc = yaml.safe_load(DEMO.read_text())
    doc["figures"] = {"delta_theta_values": [0.0, 1.0]}
    return doc


def _schema_error(doc) -> str:
    with pytest.raises(SchemaError) as exc:
        validate_config(doc)
    return str(exc.value)


def _with(key, value) -> dict:
    """The full demo with ``key`` set to ``value``, or removed for _DELETE."""
    doc = _full_demo()
    *sections, leaf = key.split(".")
    section = doc
    for name in sections:
        section = section[name]
    if value is _DELETE:
        section.pop(leaf, None)
    else:
        section[leaf] = value
    return doc


class TestSchema:
    @pytest.mark.parametrize("key,kind,default", KEYS, ids=[k for k, _, _ in KEYS])
    def test_key(self, key, kind, default):
        """Each key's type error, list rules, absence and section's unknown key."""
        section = key.rpartition(".")[0] or "config"
        unknown = "zz" if section == "config" else f"{section}.zz"
        assert _schema_error(_with(unknown, 1)) == f"unknown key {section}.zz"

        if isinstance(kind, list):
            for value in ("x", [], {}):
                assert _schema_error(_with(key, value)) == f"{key} must be a nonempty list"
            bad_element = _with(key, [GOOD_ELEMENT[kind[0]], "x"])
            assert _schema_error(bad_element) == f"{key}[1] {WRONG_TYPE[kind[0]][1]}"
        else:
            value, message = WRONG_TYPE[kind]
            assert _schema_error(_with(key, value)) == f"{key} {message}"

        for absent in (_DELETE, None):
            doc = _with(key, absent)
            if default is REQUIRED:
                assert _schema_error(doc) == f"missing required key {key}"
            elif key not in ("dp.r_prime", "attack.indices", "attack.values"):
                # The demo's chi_square mechanism requires r_prime, and
                # indices and values come together.
                read = attrgetter(ATTRIBUTES.get(key, key))(validate_config(doc))
                assert read == default

    @pytest.mark.parametrize("section", ["config", "model"])
    def test_unknown_keys_of_mixed_types(self, section):
        """An unknown integer key beside an unknown string key is named, not
        compared: sorting them used to end in a TypeError."""
        doc = _full_demo()
        (doc if section == "config" else doc[section]).update({1: 2, "zz": 3})
        assert _schema_error(doc) == f"unknown key {section}.1"

    def test_every_section_is_read_before_cross_section_rules(self):
        """Of several faults, each section's key types are read before its
        range rules, and every section before the rules that join sections."""
        doc = _with("model.lambda", 1.0)  # a ridge model under chi_square
        doc["test"] = {"alpha": 2.0}
        assert _schema_error(doc) == "test.alpha must be in (0, 1)"
        doc = _with("dp.epsilon", -1.0)
        doc["dp"]["neighborhood"] = "x"
        assert _schema_error(doc) == "dp.neighborhood must be a mapping, got str"


class TestDpRPrime:
    """DpConfig.r_prime is delta-curve's r' under either mechanism that has one."""

    def test_is_the_chi_square_knob(self):
        dp = load_config(DEMO).dp
        assert dp.r_prime == dp.params.r_prime == 1

    def test_is_the_scan_key_on_gaussian_output(self):
        doc = _full_demo()
        doc["dp"].update(mechanism="gaussian_output", nu_mean=0.3, nu_sigma=1.0,
                         r_prime=2)
        dp = validate_config(doc).dp
        assert dp.r_prime == 2 and dp.params.r_prime is None
