"""End-to-end runs of the CLI on a tiny synthetic plant (a few seconds each)."""

import json

import pytest

from tsgad.cli import main

TINY_CONFIG = """\
seed: 3
ingest:
  window_length: 20
  train_shift: 10
  test_shift: 20
  downsample_factor: 4
  holdout_fraction: 0.3
pca:
  n_components: 2
gan:
  epochs: 1
  batch_size: 8
  latent_dim: 2
  gen_depth: 1
  gen_hidden: 4
  disc_hidden: 4
  mmd_samples: 8
inversion:
  max_iterations: 3
  restarts: 2
synth:
  enabled: true
  train_duration: 300
  test_duration: 200
  noise_sigma: 0.05
  variables:
    - {kind: sine, period: 30.0, amplitude: 1.0, name: LIT101}
    - {kind: square, period: 40.0, duty_cycle: 0.5, name: MV101}
    - {kind: coupled, source: 0, gain: 0.8, delay: 2, name: FIT101}
  attacks:
    - {kind: mean_shift, target: 0, start: 60, duration: 40, magnitude: 5.0}
"""

DETERMINISTIC = ("scores.csv", "metrics.json", "inversion_diagnostics.csv")
# the tiny plant holds out 4 windows, below the floor detect warns about
FEW_HOLDOUT = "only 4 holdout windows"


def _header(path):
    return path.read_text().splitlines()[0].split(",")


def _run(config, out, *extra):
    return main([*extra, "--config", str(config), "--out", str(out)])


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.yaml"
    path.write_text(TINY_CONFIG)
    return path


@pytest.fixture(scope="module")
def all_out(config, tmp_path_factory):
    out = tmp_path_factory.mktemp("all")
    with pytest.warns(UserWarning, match=FEW_HOLDOUT):
        assert _run(config, out, "all") == 0
    return out


def test_all_writes_documented_artifacts(all_out):
    assert _header(all_out / "scores.csv") == [
        "index", "residual", "residual_norm", "disc_score", "combined", "flag", "truth",
    ]
    assert _header(all_out / "inversion_diagnostics.csv") == ["window", "error", "iterations"]
    assert _header(all_out / "history.csv") == ["epoch", "d_loss", "g_loss", "mmd"]
    assert _header(all_out / "per_variable_flags.csv") == ["index", "LIT101", "MV101", "FIT101"]
    for name in ("train.csv", "test.csv", "bundle/manifest.json", "bundle/pca.json",
                 "checkpoints/final.npz", "history.svg", "scores.svg"):
        assert (all_out / name).is_file(), name
    metrics = json.loads((all_out / "metrics.json").read_text())
    assert set(metrics["methods"]) == {"gan_ad", "cusum", "spe"}
    manifest = json.loads((all_out / "detect_manifest.json").read_text())
    assert manifest["config_hash"] == metrics["config_hash"]
    assert manifest["timesteps"] == manifest["test_windows"] * 5
    assert manifest["holdout_windows"] == 4


def test_rerun_is_byte_identical(config, all_out, tmp_path):
    with pytest.warns(UserWarning, match=FEW_HOLDOUT):
        assert _run(config, tmp_path, "all") == 0
    for name in DETERMINISTIC:
        assert (tmp_path / name).read_bytes() == (all_out / name).read_bytes(), name


def test_stage_by_stage_matches_all(config, all_out, tmp_path):
    for stage in ("synth", "ingest", "train"):
        assert _run(config, tmp_path, stage) == 0, stage
    with pytest.warns(UserWarning, match=FEW_HOLDOUT):
        assert _run(config, tmp_path, "detect") == 0
    assert _run(config, tmp_path, "evaluate") == 0
    for name in DETERMINISTIC:
        assert (tmp_path / name).read_bytes() == (all_out / name).read_bytes(), name


def test_generate_writes_bounded_samples_reproducibly(config, all_out):
    assert _run(config, all_out, "generate") == 0
    lines = (all_out / "generated.csv").read_text().splitlines()
    assert lines[0] == "sample,step,f0,f1"
    assert len(lines) == 1 + 8 * 5  # generate.count samples of 5 downsampled steps
    values = [float(v) for line in lines[1:] for v in line.split(",")[2:]]
    assert all(-1.0 < v < 1.0 for v in values)
    assert (all_out / "generated_vs_real.svg").is_file()
    first = (all_out / "generated.csv").read_bytes()
    assert _run(config, all_out, "generate") == 0
    assert (all_out / "generated.csv").read_bytes() == first


@pytest.mark.parametrize("key", ["no_such_key", "workers"])
def test_unknown_config_key_exits_1(key, tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text(TINY_CONFIG + f"{key}: 1\n")
    assert _run(config, tmp_path, "all") == 1
    assert f"unknown key {key}" in capsys.readouterr().err


def test_workers_flag_is_rejected(config, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        _run(config, tmp_path, "all", "--workers", "2")
    assert exc_info.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_detect_without_checkpoint_exits_2(config, tmp_path, capsys):
    assert _run(config, tmp_path, "synth") == 0
    assert _run(config, tmp_path, "ingest") == 0
    capsys.readouterr()
    assert _run(config, tmp_path, "detect") == 2
    assert "final.npz" in capsys.readouterr().err
