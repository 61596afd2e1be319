import pytest

from tsgad.config import (
    ConfigError,
    config_hash,
    load_config,
    scenario_spec,
    validate_config,
)
from tsgad.synthetic import CoupledSensor, SineSensor


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


def test_scenario_spec_builders():
    cfg = validate_config(
        {
            "seed": 5,
            "synth": {
                "enabled": True,
                "train_duration": 500,
                "test_duration": 300,
                "variables": [
                    {"kind": "sine", "period": 40.0},
                    {"kind": "coupled", "source": 0, "gain": 2.0, "delay": 3},
                ],
                "attacks": [
                    {"kind": "mean_shift", "target": 0, "start": 50,
                     "duration": 30, "magnitude": 1.0},
                ],
            },
        }
    )
    train = scenario_spec(cfg, "train")
    test = scenario_spec(cfg, "test")
    assert train.duration == 500 and train.attacks == []
    assert test.duration == 300 and len(test.attacks) == 1
    assert train.seed == 5 and test.seed == 6
    assert isinstance(train.variables[0], SineSensor)
    assert isinstance(train.variables[1], CoupledSensor)


def test_scenario_validation_errors_surface_at_load():
    with pytest.raises(ConfigError, match="synth.variables"):
        validate_config({"synth": {"enabled": True, "variables": [{"kind": "fancy"}]}})
    with pytest.raises(ConfigError, match="synth.*target 5 out of range"):
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


def test_boolean_not_accepted_as_int(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("gan:\n  epochs: true\n")
    with pytest.raises(ConfigError, match="expected int, got boolean"):
        load_config(path)
