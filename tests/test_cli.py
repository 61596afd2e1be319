"""End-to-end runs of the CLI on a tiny synthetic plant (a few seconds each)."""

import json
import shutil

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

# the tiny plant holds out 4 windows, below the floor detect warns about
FEW_HOLDOUT = "only 4 holdout windows"


def _header(path):
    return path.read_text().splitlines()[0].split(",")


def _run(config, out, *extra):
    return main([*extra, "--config", str(config), "--out", str(out)])


def _assert_same_tree(got, want):
    """Both directories hold the same files with the same bytes."""
    names = sorted(str(p.relative_to(want)) for p in want.rglob("*") if p.is_file())
    assert sorted(str(p.relative_to(got)) for p in got.rglob("*") if p.is_file()) == names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


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
    _assert_same_tree(tmp_path, all_out)


def test_stage_by_stage_matches_all(config, all_out, tmp_path):
    for stage in ("synth", "ingest", "train"):
        assert _run(config, tmp_path, stage) == 0, stage
    with pytest.warns(UserWarning, match=FEW_HOLDOUT):
        assert _run(config, tmp_path, "detect") == 0
    assert _run(config, tmp_path, "evaluate") == 0
    _assert_same_tree(tmp_path, all_out)


def test_periodic_checkpoints_do_not_depend_on_out_dir(tmp_path):
    config = tmp_path / "interval.yaml"
    config.write_text(TINY_CONFIG.replace("gan:\n", "gan:\n  checkpoint_interval: 1\n"))
    for out in (tmp_path / "a", tmp_path / "b"):
        for stage in ("synth", "ingest", "train"):
            assert _run(config, out, stage) == 0, stage
    for name in ("final.npz", "epoch_00001.npz"):
        first = (tmp_path / "a" / "checkpoints" / name).read_bytes()
        assert (tmp_path / "b" / "checkpoints" / name).read_bytes() == first, name


def test_generate_writes_bounded_samples_reproducibly(config, all_out, tmp_path):
    # on a copy, so the other tests see the out dir exactly as `all` left it
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    assert _run(config, out, "generate") == 0
    lines = (out / "generated.csv").read_text().splitlines()
    assert lines[0] == "sample,step,f0,f1"
    assert len(lines) == 1 + 8 * 5  # generate.count samples of 5 downsampled steps
    values = [float(v) for line in lines[1:] for v in line.split(",")[2:]]
    assert all(-1.0 < v < 1.0 for v in values)
    assert (out / "generated_vs_real.svg").is_file()
    first = (out / "generated.csv").read_bytes()
    assert _run(config, out, "generate") == 0
    assert (out / "generated.csv").read_bytes() == first


@pytest.mark.parametrize("key", ["no_such_key", "workers", "gan.optimizer"])
def test_unknown_config_key_exits_1(key, tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    if "." in key:
        section, name = key.split(".")
        config.write_text(TINY_CONFIG.replace(f"{section}:\n", f"{section}:\n  {name}: 1\n"))
    else:
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


def test_label_mapping_outside_0_1_exits_1(tmp_path, capsys):
    # a truth label of 2 would reach scores.csv, and the confusion counts in
    # metrics.json would skip its timesteps
    config = tmp_path / "labels.yaml"
    config.write_text(TINY_CONFIG.replace(
        "ingest:\n", "ingest:\n  label_mapping: {Normal: 0, Attack: 2}\n"))
    assert _run(config, tmp_path, "all") == 1
    assert f"{config}:3: ingest.label_mapping: expected label values 0 or 1" in (
        capsys.readouterr().err)
    assert not (tmp_path / "scores.csv").exists()


def test_holdout_shorter_than_one_window_exits_1_at_ingest(tmp_path, capsys):
    # 5% of the 300 training rows is 15, fewer than the 20-row window
    config = tmp_path / "short_holdout.yaml"
    config.write_text(TINY_CONFIG.replace("holdout_fraction: 0.3", "holdout_fraction: 0.05"))
    assert _run(config, tmp_path, "synth") == 0
    assert _run(config, tmp_path, "ingest") == 1
    err = capsys.readouterr().err
    assert "ingest.holdout_fraction 0.05 holds out 15 rows" in err
    assert "ingest.window_length 20" in err
    assert not (tmp_path / "bundle").exists()


def test_integer_label_mapping_keys_match_0_1_label_cells(all_out, tmp_path):
    # YAML reads the keys of {0: 0, 1: 1} as integers, CSV label cells are strings
    config = tmp_path / "numeric_labels.yaml"
    config.write_text(TINY_CONFIG.replace(
        "ingest:\n", "ingest:\n  label_mapping: {0: 0, 1: 1}\n"))
    assert _run(config, tmp_path, "synth") == 0
    for name in ("train.csv", "test.csv"):
        path = tmp_path / name
        path.write_text(path.read_text().replace(",Normal\n", ",0\n").replace(",Attack\n", ",1\n"))
    assert _run(config, tmp_path, "ingest") == 0
    assert (tmp_path / "bundle" / "windows.npz").read_bytes() == (
        all_out / "bundle" / "windows.npz").read_bytes()


def test_baselines_without_holdout_windows_exit_1_until_turned_off(tmp_path, capsys):
    config = tmp_path / "no_holdout.yaml"
    no_holdout = TINY_CONFIG.replace("holdout_fraction: 0.3", "holdout_fraction: 0.0")
    config.write_text(no_holdout + "scoring:\n  tau: 1.0\n")
    assert _run(config, tmp_path, "all") == 1
    err = capsys.readouterr().err
    assert "baselines.cusum and baselines.spe: the bundle has no holdout windows" in err
    assert "set ingest.holdout_fraction above 0" in err
    assert not (tmp_path / "metrics.json").exists()
    config.write_text(
        no_holdout + "scoring:\n  tau: 1.0\nbaselines:\n  cusum: false\n  spe: false\n")
    assert _run(config, tmp_path, "evaluate") == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics["methods"]) == {"gan_ad"}


def _train_windows(out):
    return json.loads((out / "bundle" / "manifest.json").read_text())[
        "window_sets"]["train"]["count"]


def test_trim_rows_drops_leading_training_rows(all_out, tmp_path):
    # 200 of 300 rows are left: 60 held out, 140 train 13 windows (20 untrimmed)
    config = tmp_path / "trim.yaml"
    config.write_text(TINY_CONFIG.replace("ingest:\n", "ingest:\n  trim_rows: 100\n"))
    assert _run(config, tmp_path, "synth") == 0
    assert _run(config, tmp_path, "ingest") == 0
    assert (_train_windows(tmp_path), _train_windows(all_out)) == (13, 20)


def test_trim_rows_of_every_row_exits_1(tmp_path, capsys):
    config = tmp_path / "trim_all.yaml"
    config.write_text(TINY_CONFIG.replace("ingest:\n", "ingest:\n  trim_rows: 300\n"))
    assert _run(config, tmp_path, "synth") == 0
    assert _run(config, tmp_path, "ingest") == 1
    assert "ingest.trim_rows 300 leaves none of the 300 rows" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()
