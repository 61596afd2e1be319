import numpy.testing as npt
import pytest

from tsgad.config import (
    ConfigError,
    config_hash,
    load_config,
    validate_config,
)
from tsgad.ingest import load_csv
from tsgad.pipeline import run_synth
from tsgad.synthetic import generate_scenario


def test_defaults_carry_paper_scale_preprocessing():
    cfg = validate_config({})
    assert cfg["ingest"]["window_length"] == 120
    assert cfg["ingest"]["train_shift"] == 10
    assert cfg["ingest"]["test_shift"] == 120
    assert cfg["ingest"]["downsample_factor"] == 10
    assert cfg["gan"]["latent_dim"] == 15
    assert cfg["gan"]["gen_depth"] == 3
    assert cfg["gan"]["gen_hidden"] == 100
    assert cfg["gan"]["disc_depth"] == 1
    assert cfg["gan"]["disc_hidden"] == 100


# every training window must start on a block boundary, as each test window
# does: ingest cuts both from one downsampled stream.  The message names the
# train_shift line, or the downsample_factor line when train_shift is the default
@pytest.mark.parametrize("text, line", [
    ("ingest:\n  downsample_factor: 4\n  train_shift: 10\n", 3),
    ("ingest:\n  downsample_factor: 4\n", 2),
], ids=["given", "default"])
def test_train_shift_not_a_multiple_of_downsample_factor_rejected(tmp_path, text, line):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"bad.yaml:{line}: ingest.train_shift 10 is not a "
                                          r"multiple of ingest.downsample_factor 4$"):
        load_config(path)


def test_partial_config_merges_over_defaults():
    cfg = validate_config({"gan": {"epochs": 7}, "seed": 3})
    assert cfg["gan"]["epochs"] == 7
    assert cfg["gan"]["batch_size"] == 32
    assert cfg["seed"] == 3


def test_unknown_key_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: 1\ngan:\n  epochz: 3\n")
    with pytest.raises(ConfigError, match=r"bad.yaml:3: unknown key gan.epochz"):
        load_config(path)


def test_bad_type_reported_with_line_and_path(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("gan:\n  epochs: many\n")
    with pytest.raises(ConfigError, match=r"bad.yaml:2: gan.epochs: expected int"):
        load_config(path)


def test_range_violation_reported(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("scoring:\n  lambda: 1.5\n")
    with pytest.raises(ConfigError, match=r"scoring.lambda"):
        load_config(path)


@pytest.mark.parametrize("section,key,value", [
    ("gan", "epochs", -1),
    *(("gan", key, 0) for key in ("batch_size", "d_steps", "g_steps", "latent_dim",
                                   "gen_depth", "gen_hidden", "disc_depth", "disc_hidden")),
    ("gan", "mmd_samples", 1),
    ("inversion", "max_iterations", -1),
    ("inversion", "learning_rate", 0),
    ("inversion", "restarts", 0),
    ("inversion", "tolerance", -0.001),
])
def test_training_and_inversion_ranges_enforced(section, key, value):
    with pytest.raises(ConfigError, match=rf"{section}\.{key}: expected"):
        validate_config({section: {key: value}})


@pytest.mark.parametrize("value", ["2", "-1", "true", "'1'"])
def test_label_mapping_values_must_be_0_or_1(value, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(f"ingest:\n  label_mapping: {{Normal: 0, Attack: {value}}}\n")
    with pytest.raises(ConfigError, match=r"bad.yaml:2: ingest.label_mapping: expected label"):
        load_config(path)


def test_invalid_yaml_reported(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.yaml")


def test_hash_stable_and_sensitive():
    a = validate_config({"seed": 1})
    b = validate_config({"seed": 1})
    c = validate_config({"seed": 2})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    # where files go does not change results
    moved = validate_config({"seed": 1, "paths": {"out_dir": "elsewhere"}})
    assert config_hash(moved) == config_hash(a)


SCENARIO = {
    "enabled": True,
    "train_duration": 500,
    "test_duration": 300,
    "variables": [
        {"kind": "sine", "period": 40.0},
        {"kind": "coupled", "source": 0, "gain": 2.0, "delay": 3},
    ],
    "attacks": [
        {"kind": "mean_shift", "target": 0, "start": 50, "duration": 30, "magnitude": 1.0},
        {"kind": "stuck_value", "target": 1, "start": 100, "duration": 20},
    ],
}


def test_scenario_entries_carry_their_kinds_defaults():
    synth = validate_config({"synth": SCENARIO})["synth"]
    assert synth["variables"] == [
        {"kind": "sine", "period": 40.0, "amplitude": 1.0, "phase": 0.0, "name": None},
        {"kind": "coupled", "source": 0, "gain": 2.0, "delay": 3, "offset": 0.0, "name": None},
    ]
    # a stuck sensor repeats its start reading: it has no magnitude
    assert synth["attacks"][1] == {"kind": "stuck_value", "target": 1, "start": 100,
                                   "duration": 20}


def test_spelled_out_entry_defaults_hash_like_omitted_ones():
    spelled = {**SCENARIO, "variables": [
        {"kind": "sine", "period": 40, "amplitude": 1, "phase": 0.0, "name": None},
        {"kind": "coupled", "source": 0, "gain": 2.0, "delay": 3, "offset": 0.0},
    ]}
    assert config_hash(validate_config({"synth": spelled})) == config_hash(
        validate_config({"synth": SCENARIO}))
    moved = {**SCENARIO, "variables": [{**SCENARIO["variables"][0], "phase": 0.5},
                                        SCENARIO["variables"][1]]}
    assert config_hash(validate_config({"synth": moved})) != config_hash(
        validate_config({"synth": SCENARIO}))


def test_run_synth_writes_the_train_run_at_seed_and_the_test_run_at_seed_plus_1(tmp_path):
    cfg = validate_config({"seed": 5, "paths": {"out_dir": str(tmp_path)}, "synth": SCENARIO})
    train_csv, test_csv = run_synth(cfg)
    s = cfg["synth"]
    runs = [(train_csv, [], s["train_duration"], 5), (test_csv, s["attacks"], s["test_duration"], 6)]
    for path, attacks, duration, seed in runs:
        values, labels, _ = generate_scenario(s["variables"], attacks, duration,
                                              s["noise_sigma"], seed)
        loaded, loaded_labels, _ = load_csv(path, "timestamp", "label", {"Normal": 0, "Attack": 1})
        npt.assert_array_equal(loaded, values)
        npt.assert_array_equal(loaded_labels, labels)
    assert loaded_labels.sum() == 50


def test_scenario_validation_errors_surface_at_load():
    with pytest.raises(ConfigError, match=r"synth\.variables\[0\]\.kind: expected one of "
                       r"\['coupled', 'sine', 'square'\], got 'fancy'"):
        validate_config({"synth": {"enabled": True, "variables": [{"kind": "fancy"}]}})
    with pytest.raises(ConfigError, match="synth: attack target 5 out of range"):
        validate_config(
            {
                "synth": {
                    "enabled": True,
                    "variables": [{"kind": "sine", "period": 10.0}],
                    "attacks": [{"kind": "mean_shift", "target": 5, "start": 0,
                                 "duration": 10, "magnitude": 1.0}],
                }
            }
        )
    with pytest.raises(ConfigError, match="synth: at least one variable is required"):
        validate_config({"synth": {"enabled": True}})


def test_scenario_entries_are_checked_with_synth_disabled(tmp_path):
    # each entry is checked against its schema whether or not synth runs; the
    # checks that span entries run only when it does
    path = tmp_path / "bad.yaml"
    path.write_text("synth:\n  variables:\n    - {kind: sine, period: 5.0}\n"
                    "    - {kind: square, amplitude: 2.0}\n")
    with pytest.raises(ConfigError, match=r"bad.yaml:4: unknown key synth\.variables\[1\]\.amplitude"):
        load_config(path)
    path.write_text("synth:\n  variables:\n    - {kind: sine}\n")
    with pytest.raises(ConfigError, match=r"bad.yaml:3: synth\.variables\[0\]\.period: "
                       "required, not given"):
        load_config(path)
    path.write_text("synth:\n  variables:\n    - sine\n")
    with pytest.raises(ConfigError, match=r"bad.yaml:2: synth\.variables\[0\]: expected a mapping, "
                       "got str"):
        load_config(path)
    # an entry of a source that does not exist is caught once synth is enabled
    path.write_text("synth:\n  variables:\n    - {kind: coupled, source: 3}\n")
    assert load_config(path)["synth"]["variables"][0]["source"] == 3


@pytest.mark.parametrize("key", [
    "gan.d_learning_rate", "gan.g_learning_rate", "inversion.learning_rate",
    "inversion.tolerance", "synth.noise_sigma", "scoring.lambda", "ingest.holdout_fraction",
])
@pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
def test_non_finite_float_refused_with_its_line(key, value, tmp_path):
    section, name = key.split(".")
    path = tmp_path / "bad.yaml"
    path.write_text(f"seed: 1\n{section}:\n  {name}: {value}\n")
    with pytest.raises(ConfigError, match=rf"bad.yaml:3: {key}: expected a finite number"):
        load_config(path)


def test_boolean_not_accepted_as_int(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("gan:\n  epochs: true\n")
    with pytest.raises(ConfigError, match="expected int, got boolean"):
        load_config(path)


# a window of one block downsamples to a single stream row, which detect's
# inversion cannot correlate: the config is refused at load, naming the
# window_length line, or the downsample_factor line when window_length is
# the default
@pytest.mark.parametrize("text, line, length", [
    ("ingest:\n  downsample_factor: 4\n  window_length: 4\n  train_shift: 4\n"
     "  test_shift: 4\n", 3, 4),
    ("ingest:\n  downsample_factor: 120\n  train_shift: 120\n", 2, 120),
], ids=["given", "default"])
def test_one_row_window_rejected(tmp_path, text, line, length):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"bad.yaml:{line}: ingest.window_length {length} is "
                                          rf"one block of ingest.downsample_factor {length}: "):
        load_config(path)
