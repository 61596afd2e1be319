"""Run configuration: YAML loading, schema validation and defaults.

Validation failures point at the offending key with its line number in the
source file.  The defaults pre-populate the preprocessing and network sizes
used throughout (window 120 -> length-12 sequences, latent dimension 15,
generator depth 3 / discriminator depth 1 with 100 hidden units each).
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import yaml

from .gan import TrainingConfig
from .inversion import InversionConfig
from .synthetic import (
    AttackSpec,
    CoupledSensor,
    ScenarioSpec,
    SineSensor,
    SquareActuator,
)

LINE_KEY = "__lines__"


class ConfigError(ValueError):
    """A configuration file failed schema validation."""


class _LineLoader(yaml.SafeLoader):
    """SafeLoader that annotates every mapping with per-key line numbers."""


def _construct_mapping(loader, node, deep=False):
    mapping = yaml.SafeLoader.construct_mapping(loader, node, deep=deep)
    lines = {}
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=deep)
        lines[key] = key_node.start_mark.line + 1
    mapping[LINE_KEY] = lines
    return mapping


_LineLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


def _strip_lines(obj):
    if isinstance(obj, dict):
        return {k: _strip_lines(v) for k, v in obj.items() if k != LINE_KEY}
    if isinstance(obj, list):
        return [_strip_lines(v) for v in obj]
    return obj


class Field:
    def __init__(self, kind, default=None, check=None, expect=""):
        self.kind = kind
        self.default = default
        self.check = check
        self.expect = expect


def _positive(x):
    return x > 0


def _non_negative(x):
    return x >= 0


def _fraction(x):
    return 0.0 <= x <= 0.9


def _unit_open(x):
    return 0.0 < x < 1.0


def _unit_closed(x):
    return 0.0 <= x <= 1.0


def _binary_labels(mapping):
    return all(type(v) is int and v in (0, 1) for v in mapping.values())


SCHEMA: dict = {
    "seed": Field(int, 7, _non_negative, "non-negative integer"),
    "paths": {
        "input_csv": Field((str, type(None)), None),
        "test_csv": Field((str, type(None)), None),
        "out_dir": Field(str, "out"),
        "checkpoint": Field((str, type(None)), None),
    },
    "ingest": {
        "timestamp_column": Field(str, "timestamp"),
        "label_column": Field((str, type(None)), "label"),
        "timestamp_format": Field((str, type(None)), None),
        "label_mapping": Field(
            dict, {"Normal": 0, "Attack": 1}, _binary_labels, "label values 0 or 1"
        ),
        "trim_rows": Field(int, 0, _non_negative, "non-negative integer"),
        "window_length": Field(int, 120, _positive, "positive integer"),
        "train_shift": Field(int, 10, _positive, "positive integer"),
        "test_shift": Field(int, 120, _positive, "positive integer"),
        "downsample_factor": Field(int, 10, _positive, "positive integer"),
        "holdout_fraction": Field(float, 0.2, _fraction, "fraction in [0, 0.9]"),
    },
    "pca": {
        "n_components": Field(int, 5, _positive, "positive integer"),
    },
    "gan": {
        "epochs": Field(int, 100, _non_negative, "non-negative integer"),
        "batch_size": Field(int, 32, _positive, "positive integer"),
        "d_steps": Field(int, 1, _positive, "positive integer"),
        "g_steps": Field(int, 3, _positive, "positive integer"),
        "d_learning_rate": Field(float, 1e-3, _positive, "positive number"),
        "g_learning_rate": Field(float, 1e-3, _positive, "positive number"),
        "latent_dim": Field(int, 15, _positive, "positive integer"),
        "gen_depth": Field(int, 3, _positive, "positive integer"),
        "gen_hidden": Field(int, 100, _positive, "positive integer"),
        "disc_depth": Field(int, 1, _positive, "positive integer"),
        "disc_hidden": Field(int, 100, _positive, "positive integer"),
        "grad_clip": Field(float, 5.0, _non_negative, "non-negative number"),
        "mmd_every": Field(int, 1, _non_negative, "non-negative integer"),
        "mmd_samples": Field(int, 128, lambda v: v >= 2, "integer >= 2"),
        "checkpoint_interval": Field(int, 0, _non_negative, "non-negative integer"),
    },
    "inversion": {
        "max_iterations": Field(int, 200, _non_negative, "non-negative integer"),
        "learning_rate": Field(float, 0.2, _positive, "positive number"),
        "restarts": Field(int, 3, _positive, "positive integer"),
        "tolerance": Field(float, 1e-3, _non_negative, "non-negative number"),
    },
    "scoring": {
        "lambda": Field(float, 0.5, _unit_closed, "number in [0, 1]"),
        "target_fpr": Field(float, 0.01, _unit_open, "number strictly in (0, 1)"),
        "tau": Field((float, type(None)), None),
    },
    "baselines": {
        "cusum": Field(bool, True),
        "spe": Field(bool, True),
        "cusum_k_sigmas": Field(float, 0.5, _non_negative, "non-negative number"),
        "cusum_two_sided": Field(bool, True),
    },
    "generate": {
        "count": Field(int, 8, _positive, "positive integer"),
    },
    "synth": {
        "enabled": Field(bool, False),
        "train_duration": Field(int, 4000, _positive, "positive integer"),
        "test_duration": Field(int, 2000, _positive, "positive integer"),
        "noise_sigma": Field((float, list), 0.1),
        "label_coupled": Field(bool, False),
        "propagate_to_coupled": Field(bool, False),
        "variables": Field(list, []),
        "attacks": Field(list, []),
    },
}


def _type_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_type_name(k) for k in kind)
    return {type(None): "null"}.get(kind, kind.__name__)


def _check_value(value, field: Field, path: str, line: str) -> object:
    kind = field.kind
    # YAML integers satisfy float fields
    if kind is float or (isinstance(kind, tuple) and float in kind):
        if isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
    if isinstance(value, bool) and (kind is int or kind is float):
        raise ConfigError(f"{line}{path}: expected {_type_name(kind)}, got boolean")
    if not isinstance(value, kind):
        raise ConfigError(
            f"{line}{path}: expected {_type_name(kind)}, got {type(value).__name__} ({value!r})"
        )
    if field.check is not None and value is not None and not field.check(value):
        raise ConfigError(f"{line}{path}: expected {field.expect}, got {value!r}")
    return value


def _validate(raw: dict, schema: dict, path: str, source: str) -> dict:
    lines = raw.get(LINE_KEY, {}) if isinstance(raw, dict) else {}

    def where(key):
        return f"{source}:{lines[key]}: " if key in lines else ""

    out = {}
    for key in raw:
        if key == LINE_KEY:
            continue
        if key not in schema:
            raise ConfigError(f"{where(key)}unknown key {path}{key}")
    for key, spec in schema.items():
        dotted = f"{path}{key}"
        if isinstance(spec, dict):
            sub = raw.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"{where(key)}{dotted}: expected a mapping")
            out[key] = _validate(sub, spec, dotted + ".", source)
        elif key in raw:
            value = _strip_lines(raw[key])
            out[key] = _check_value(value, spec, dotted, where(key))
        else:
            out[key] = copy.deepcopy(spec.default)
    return out


def validate_config(raw: dict, source: str = "<config>") -> dict:
    """Merge ``raw`` over the defaults, rejecting unknown keys and bad values."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    cfg = _validate(raw, SCHEMA, "", source)
    if cfg["synth"]["enabled"]:
        # construct the scenario spec now so errors surface at load time
        scenario_spec(cfg, which="test")
    return cfg


def load_config(path: str | Path) -> dict:
    """Parse and validate a YAML config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text(), Loader=_LineLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    return validate_config(raw, source=str(path))


def config_hash(cfg: dict) -> str:
    """Stable 12-hex digest of the configuration keys that change results.

    ``paths`` is left out: where files live does not change any output.
    """
    relevant = {k: v for k, v in cfg.items() if k != "paths"}
    canonical = json.dumps(relevant, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def training_config(cfg: dict, sequence_length: int) -> TrainingConfig:
    return TrainingConfig(**cfg["gan"], sequence_length=sequence_length, seed=cfg["seed"])


def inversion_config(cfg: dict) -> InversionConfig:
    return InversionConfig(**cfg["inversion"], seed=cfg["seed"])


_VARIABLE_KINDS = {
    "sine": (SineSensor, {"period", "amplitude", "phase", "name"}),
    "square": (SquareActuator, {"period", "duty_cycle", "low", "high", "name"}),
    "coupled": (CoupledSensor, {"source", "gain", "delay", "offset", "name"}),
}


def _parse_variable(entry: dict, index: int):
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(f"synth.variables[{index}]: expected a mapping with a 'kind'")
    kind = entry["kind"]
    if kind not in _VARIABLE_KINDS:
        raise ConfigError(
            f"synth.variables[{index}]: unknown kind {kind!r} "
            f"(expected one of {sorted(_VARIABLE_KINDS)})"
        )
    cls, allowed = _VARIABLE_KINDS[kind]
    params = {k: v for k, v in entry.items() if k != "kind"}
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"synth.variables[{index}]: unknown fields {sorted(unknown)}")
    try:
        return cls(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"synth.variables[{index}]: {exc}") from None


def _parse_attack(entry: dict, index: int) -> AttackSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"synth.attacks[{index}]: expected a mapping")
    try:
        return AttackSpec(**entry)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"synth.attacks[{index}]: {exc}") from None


def scenario_spec(cfg: dict, which: str) -> ScenarioSpec:
    """Build the normal-run ('train') or attacked-run ('test') scenario."""
    s = cfg["synth"]
    if not s["variables"]:
        raise ConfigError("synth.variables: at least one variable is required")
    variables = [_parse_variable(v, i) for i, v in enumerate(s["variables"])]
    if which == "train":
        duration, attacks, seed = s["train_duration"], [], cfg["seed"]
    else:
        duration = s["test_duration"]
        attacks = [_parse_attack(a, i) for i, a in enumerate(s["attacks"])]
        seed = cfg["seed"] + 1  # fresh noise realization for the test stream
    try:
        return ScenarioSpec(
            duration=duration,
            variables=variables,
            noise_sigma=s["noise_sigma"],
            attacks=attacks,
            seed=seed,
            label_coupled=s["label_coupled"],
            propagate_to_coupled=s["propagate_to_coupled"],
        )
    except ValueError as exc:
        raise ConfigError(f"synth: {exc}") from None
