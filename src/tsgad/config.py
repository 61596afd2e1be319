"""Run configuration: YAML loading, schema validation and defaults.

Validation failures point at the offending key with its line number in the
source file.  ``SCHEMA`` is the one place that holds each setting's default
and range, the entries of the ``synth.variables`` and ``synth.attacks``
lists included: each entry's ``kind`` picks its fields from a :class:`Kinds`
mapping.  The stages read the validated sections it produces;
:func:`tsgad.synthetic.check_scenario` adds the checks that span entries.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

import yaml

from .synthetic import check_scenario

LINE_KEY = "__lines__"


class ConfigError(ValueError):
    """A configuration file failed schema validation, or a stage input was
    refused: a CSV it names or any file an earlier stage wrote.

    The CLI reports it with exit code 1, so a bad config or input file is
    told apart from a crash (exit 2).
    """


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
    """One setting: its type, its default (``...`` when it has to be given)
    and an optional range check, described by ``expect`` in errors."""

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
    return 0.0 < x <= 0.9


def _unit_open(x):
    return 0.0 < x < 1.0


def _unit_closed(x):
    return 0.0 <= x <= 1.0


def _binary_labels(mapping):
    return all(type(v) is int and v in (0, 1) for v in mapping.values())


class Kinds(dict):
    """A list setting whose entries are mappings tagged with a ``kind``: maps
    each kind to the field schema of its entries."""


_NAME = Field((str, type(None)), None)  # a column name; unset means v<index>_<kind>
_PERIOD = Field(float, ..., _positive, "positive number")
_ATTACK = {
    "target": Field(int, ...),
    "start": Field(int, ..., _non_negative, "non-negative integer"),
    "duration": Field(int, ..., _positive, "positive integer"),
}


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
        "holdout_fraction": Field(float, 0.2, _fraction, "fraction in (0, 0.9]"),
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
        "mmd_samples": Field(int, 128, lambda v: v >= 2, "integer >= 2"),
    },
    # Adam on the latents: ``learning_rate`` is Adam's step size, and a
    # restart stops once its lowest error reaches ``tolerance``
    "inversion": {
        "max_iterations": Field(int, 200, _non_negative, "non-negative integer"),
        "learning_rate": Field(float, 0.2, _positive, "positive number"),
        "restarts": Field(int, 3, _positive, "positive integer"),
        "tolerance": Field(float, 1e-3, _non_negative, "non-negative number"),
    },
    "scoring": {
        "lambda": Field(float, 0.5, _unit_closed, "number in [0, 1]"),
        "target_fpr": Field(float, 0.01, _unit_open, "number strictly in (0, 1)"),
    },
    "synth": {
        "enabled": Field(bool, False),
        "train_duration": Field(int, 4000, _positive, "positive integer"),
        "test_duration": Field(int, 2000, _positive, "positive integer"),
        "noise_sigma": Field(float, 0.1, _non_negative, "non-negative number"),
        "variables": Kinds(
            sine={
                "period": _PERIOD,
                "amplitude": Field(float, 1.0),
                "phase": Field(float, 0.0),
                "name": _NAME,
            },
            square={
                "period": _PERIOD,
                "duty_cycle": Field(float, 0.5, _unit_open, "number strictly in (0, 1)"),
                "low": Field(float, 0.0),
                "high": Field(float, 1.0),
                "name": _NAME,
            },
            # mirrors an earlier variable, ``source``, read ``delay`` rows late
            coupled={
                "source": Field(int, ...),
                "gain": Field(float, 1.0),
                "delay": Field(int, 0, _non_negative, "non-negative integer"),
                "offset": Field(float, 0.0),
                "name": _NAME,
            },
        ),
        # each attack acts on rows [start, start + duration) of its target;
        # a stuck sensor repeats its reading at start, so it has no magnitude
        "attacks": Kinds(
            mean_shift={**_ATTACK, "magnitude": Field(float, 0.0)},
            spike={**_ATTACK, "magnitude": Field(float, 0.0)},
            stuck_value=_ATTACK,
        ),
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
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{line}{path}: expected a finite number, got {value!r}")
    if field.check is not None and value is not None and not field.check(value):
        raise ConfigError(f"{line}{path}: expected {field.expect}, got {value!r}")
    return value


def _where(raw: dict, key: str, source: str) -> str:
    """``source:line: `` of ``key`` in the YAML mapping ``raw``, or ``""``."""
    lines = raw.get(LINE_KEY, {})
    return f"{source}:{lines[key]}: " if key in lines else ""


def _validate_entry(entry, kinds: Kinds, path: str, source: str, line: str) -> dict:
    """One kind-tagged list entry, checked against the schema of its kind."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{line}{path}: expected a mapping, got {type(entry).__name__}")
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(
            f"{_where(entry, 'kind', source) or line}{path}.kind: expected one of "
            f"{sorted(kinds)}, got {kind!r}"
        )
    fields = {k: v for k, v in entry.items() if k != "kind"}
    return {"kind": kind, **_validate(fields, kinds[kind], path + ".", source)}


def _validate(raw: dict, schema: dict, path: str, source: str) -> dict:
    out = {}
    for key in raw:
        if key == LINE_KEY:
            continue
        if key not in schema:
            raise ConfigError(f"{_where(raw, key, source)}unknown key {path}{key}")
    for key, spec in schema.items():
        dotted = f"{path}{key}"
        line = _where(raw, key, source)
        if isinstance(spec, Kinds):
            entries = raw.get(key, [])
            if not isinstance(entries, list):
                raise ConfigError(f"{line}{dotted}: expected a list of mappings")
            out[key] = [
                _validate_entry(entry, spec, f"{dotted}[{i}]", source, line)
                for i, entry in enumerate(entries)
            ]
        elif isinstance(spec, dict):
            sub = raw.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"{line}{dotted}: expected a mapping")
            out[key] = _validate(sub, spec, dotted + ".", source)
        elif key in raw:
            out[key] = _check_value(_strip_lines(raw[key]), spec, dotted, line)
        elif spec.default is ...:
            # a missing key has no line; point at the mapping that lacks it
            lines = raw.get(LINE_KEY)
            where = f"{source}:{min(lines.values())}: " if lines else ""
            raise ConfigError(f"{where}{dotted}: required, not given")
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
    ing = raw.get("ingest", {})
    factor = cfg["ingest"]["downsample_factor"]
    # a window must cut into whole blocks, and every window must start on a
    # block boundary: ingest cuts each set's windows from its one downsampled
    # stream
    for name in ("window_length", "train_shift", "test_shift"):
        value = cfg["ingest"][name]
        if value % factor:
            key = name if name in ing else "downsample_factor"
            raise ConfigError(
                f"{_where(ing, key, source)}ingest.{name} {value} is not a multiple "
                f"of ingest.downsample_factor {factor}"
            )
    # detect's inversion correlates each window over its stream rows, so it
    # needs 2 or more; this refuses a 1-row window before synth writes anything
    if cfg["ingest"]["window_length"] == factor:
        key = "window_length" if "window_length" in ing else "downsample_factor"
        raise ConfigError(
            f"{_where(ing, key, source)}ingest.window_length {factor} is one block of "
            f"ingest.downsample_factor {factor}: a window must downsample to 2 or more rows"
        )
    synth = cfg["synth"]
    if synth["enabled"]:
        # the test run has every attack and is the one they must fit in
        try:
            check_scenario(synth["variables"], synth["attacks"], synth["test_duration"])
        except ValueError as exc:
            raise ConfigError(f"synth: {exc}") from None
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

