"""End-to-end runs of the CLI on a tiny synthetic plant (a few seconds each)."""

import csv
import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from tsgad import gan, ingest, inversion
from tsgad.cli import main
from tsgad.config import load_config

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
    # threshold-free metrics for GAN-AD's three scores and for SPE
    ranked = [*metrics["methods"]["gan_ad"]["ranking"].values(), metrics["methods"]["spe"]]
    assert set(metrics["methods"]["gan_ad"]["ranking"]) == {"residual", "one_minus_disc",
                                                            "combined"}
    assert all(0.0 <= r[k] <= 1.0 for r in ranked for k in ("auroc", "average_precision"))
    manifest = json.loads((all_out / "detect_manifest.json").read_text())
    assert manifest["config_hash"] == metrics["config_hash"]
    assert manifest["timesteps"] == manifest["test_windows"] * 5
    assert manifest["holdout_windows"] == 4
    # the bundle detect scored, for evaluate to check
    assert manifest["windows_sha256"] == _sha256(all_out / "bundle" / "windows.npz")


def test_detect_manifest_records_holdout_inversions(config, all_out):
    # the holdout windows' inversions, which set the residual scale, are
    # summarized beside it: their error median and mean Adam step count
    manifest = json.loads((all_out / "detect_manifest.json").read_text())
    cfg = load_config(config)
    assert 0.0 <= manifest["holdout_error_median"] <= 2.0
    assert 0.0 <= manifest["holdout_iterations_mean"] <= cfg["inversion"]["max_iterations"]
    holdout = ingest.load_window_bundle(all_out / "bundle")[0]["holdout_windows"]
    generator = gan.load_checkpoint(all_out / "checkpoints" / "final.npz").generator
    _, errors, iterations, _ = inversion.invert(generator, holdout, cfg["inversion"],
                                                cfg["seed"] + 1_000_000)
    assert manifest["holdout_error_median"] == float(np.median(errors))
    assert manifest["holdout_iterations_mean"] == float(iterations.mean())


def test_flags_are_the_combined_score_above_the_threshold(all_out):
    threshold = json.loads((all_out / "detect_manifest.json").read_text())["threshold"]
    with (all_out / "scores.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["flag"]) for r in rows] == [int(float(r["combined"]) > threshold) for r in rows]


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


def test_history_has_a_finite_mmd_every_epoch(tmp_path):
    config = tmp_path / "three_epochs.yaml"
    config.write_text(TINY_CONFIG.replace("  epochs: 1\n", "  epochs: 3\n"))
    out = tmp_path / "out"
    for stage in ("synth", "ingest", "train"):
        assert _run(config, out, stage) == 0, stage
    rows = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
    assert [(row[0], math.isfinite(float(row[3]))) for row in rows] == [
        ("1", True), ("2", True), ("3", True)]
    assert (out / "mmd.svg").is_file()


@pytest.mark.parametrize("key", [
    "no_such_key", "workers", "gan.optimizer", "synth.propagate_to_coupled",
    "synth.label_coupled", "baselines", "scoring.tau", "generate",
    "gan.checkpoint_interval", "gan.mmd_every", "gan.grad_clip",
])
def test_unknown_config_key_exits_1(key, tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    if "." in key:
        section, name = key.split(".")
        text = TINY_CONFIG if f"{section}:\n" in TINY_CONFIG else TINY_CONFIG + f"{section}:\n"
        config.write_text(text.replace(f"{section}:\n", f"{section}:\n  {name}: 1\n"))
    else:
        config.write_text(TINY_CONFIG + f"{key}: 1\n")
    assert _run(config, tmp_path, "all") == 1
    assert f"unknown key {key}" in capsys.readouterr().err


@pytest.mark.parametrize("sigmas", ["[0.1, 0.2]", "[0.1, 0.2, 0.3]"])
def test_noise_sigma_list_exits_1_at_load(sigmas, tmp_path, capsys):
    config = tmp_path / "noise_list.yaml"
    config.write_text(TINY_CONFIG.replace("noise_sigma: 0.05", f"noise_sigma: {sigmas}"))
    assert _run(config, tmp_path, "synth") == 1
    assert f"{config}:25: synth.noise_sigma: expected float, got list" in (
        capsys.readouterr().err)
    assert not (tmp_path / "train.csv").exists()


def test_negative_noise_sigma_exits_1_at_load(tmp_path, capsys):
    config = tmp_path / "negative_noise.yaml"
    config.write_text(TINY_CONFIG.replace("noise_sigma: 0.05", "noise_sigma: -0.5"))
    assert _run(config, tmp_path, "synth") == 1
    assert f"{config}:25: synth.noise_sigma: expected non-negative number, got -0.5" in (
        capsys.readouterr().err)
    assert not (tmp_path / "train.csv").exists()


def test_seed_flag_is_rejected(config, tmp_path, capsys):
    # the config's seed key is the one seed setting
    with pytest.raises(SystemExit) as exc_info:
        _run(config, tmp_path, "all", "--seed", "3")
    assert exc_info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_workers_flag_is_rejected(config, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        _run(config, tmp_path, "all", "--workers", "2")
    assert exc_info.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_detect_without_checkpoint_exits_1(config, tmp_path, capsys):
    assert _run(config, tmp_path, "synth") == 0
    assert _run(config, tmp_path, "ingest") == 0
    capsys.readouterr()
    assert _run(config, tmp_path, "detect") == 1
    checkpoint = tmp_path / "checkpoints" / "final.npz"
    assert f"{checkpoint} not found; run train first" in capsys.readouterr().err


def test_detect_with_refused_checkpoint_exits_1(config, all_out, tmp_path, capsys):
    # Adam moments, which no stage writes any more, next to the nets
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    checkpoint = out / "checkpoints" / "final.npz"
    with np.load(checkpoint) as data:
        arrays = {k: data[k] for k in data.files}
    np.savez(checkpoint, gopt_m0=arrays["gen_out_b"], **arrays)
    capsys.readouterr()
    assert _run(config, out, "detect") == 1
    assert f"config error: {checkpoint}: arrays outside gen_*/disc_*: ['gopt_m0']" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("damage, reason", [
    ("text", "not an npz archive"),
    ("npy", "not an npz archive"),
    ("no meta", "no meta array"),
    ("meta not json", "meta is not a JSON object"),
    ("no config", "meta has no config"),
    ("no windows digest", "meta has no windows_sha256"),
])
def test_detect_with_corrupt_checkpoint_exits_1(config, all_out, tmp_path, capsys,
                                                 damage, reason):
    # paths.checkpoint may name any file: one that is no npz archive (text or
    # a single .npy array), or an npz archive of the nets whose meta is
    # missing, not JSON, or without the training config or the digest of the
    # windows it was trained on
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    checkpoint = out / "checkpoints" / "final.npz"
    if damage == "text":
        checkpoint.write_text("not a checkpoint\n")
    elif damage == "npy":
        with open(checkpoint, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        with np.load(checkpoint) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays.pop("meta")).decode())
        if damage == "meta not json":
            arrays["meta"] = np.frombuffer(b"not json", dtype=np.uint8)
        elif damage != "no meta":
            del meta["config" if damage == "no config" else "windows_sha256"]
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(checkpoint, **arrays)
    capsys.readouterr()
    assert _run(config, out, "detect") == 1
    assert f"config error: {checkpoint}: {reason}" in capsys.readouterr().err


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mismatch", ["re-ingest", "discriminator"])
def test_detect_with_checkpoint_of_another_width_exits_1(config, all_out, tmp_path, capsys,
                                                         mismatch):
    # the checkpoint was trained on 2-column windows: either the bundle is
    # re-ingested at 3 principal components, so it holds other windows than
    # the checkpoint was trained on, or the discriminator reads 3
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    checkpoint = out / "checkpoints" / "final.npz"
    if mismatch == "re-ingest":
        trained_on = _sha256(out / "bundle" / "windows.npz")
        config = _edited(tmp_path, [("n_components: 2", "n_components: 3")])
        assert _run(config, out, "ingest") == 0
        reason = (f"trained on windows.npz with sha256 {trained_on}, the bundle's has "
                  f"{_sha256(out / 'bundle' / 'windows.npz')}; re-run train")
    else:
        model = gan.load_checkpoint(checkpoint)
        model.discriminator = gan.build_discriminator(3, depth=1, hidden=4, rng=0)
        gan.save_checkpoint(model, checkpoint)
        reason = "generator emits 2 and discriminator reads 3 columns"
    capsys.readouterr()
    assert _run(config, out, "detect") == 1
    assert f"config error: {checkpoint}: {reason}" in capsys.readouterr().err
    assert (out / "scores.csv").read_bytes() == (all_out / "scores.csv").read_bytes()


def test_detect_with_checkpoint_of_another_bundle_of_the_same_width_exits_1(
        all_out, tmp_path, capsys):
    # trimming training rows refits the normalization and the principal
    # components: the windows keep their 2 columns, but the checkpoint was
    # trained on others, and the config hash alone would not tell
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    windows = out / "bundle" / "windows.npz"
    trained_on = _sha256(windows)
    config = _edited(tmp_path, [("  holdout_fraction: 0.3\n",
                                 "  holdout_fraction: 0.3\n  trim_rows: 100\n")])
    assert _run(config, out, "ingest") == 0
    arrays = ingest.load_window_bundle(out / "bundle")[0]
    assert arrays["test_windows"].shape[2] == 2
    capsys.readouterr()
    assert _run(config, out, "detect") == 1
    checkpoint = out / "checkpoints" / "final.npz"
    assert (f"config error: {checkpoint}: trained on windows.npz with sha256 {trained_on}, "
            f"the bundle's has {_sha256(windows)}; re-run train") in capsys.readouterr().err
    assert (out / "scores.csv").read_bytes() == (all_out / "scores.csv").read_bytes()
    # the remedy the message names
    assert _run(config, out, "train") == 0
    with pytest.warns(UserWarning, match="holdout windows set the residual scale"):
        assert _run(config, out, "detect") == 0


def test_re_ingest_during_train_binds_the_checkpoint_to_the_windows_trained_on(
        all_out, tmp_path, capsys, monkeypatch):
    # the checkpoint's digest is that of the bytes train parsed its windows
    # from, not of whatever windows.npz holds when training ends
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    config = _edited(tmp_path, [("  holdout_fraction: 0.3\n",
                                 "  holdout_fraction: 0.3\n  trim_rows: 100\n")])
    trained_on = _sha256(out / "bundle" / "windows.npz")
    real_train = gan.train

    def train_during_a_re_ingest(*args):
        model = real_train(*args)
        assert _run(config, out, "ingest") == 0
        return model

    monkeypatch.setattr(gan, "train", train_during_a_re_ingest)
    assert _run(config, out, "train") == 0
    assert gan.load_checkpoint(out / "checkpoints" / "final.npz").windows_sha256 == trained_on
    capsys.readouterr()
    assert _run(config, out, "detect") == 1
    assert "re-run train" in capsys.readouterr().err


def test_evaluate_after_a_trim_rows_re_ingest_exits_1(all_out, tmp_path, capsys):
    # trimming training rows refits the normalization and the principal
    # components but keeps the test windows' count and labels: only the
    # digest of windows.npz tells that scores.csv came from another bundle
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    windows = out / "bundle" / "windows.npz"
    scored = _sha256(windows)
    config = _edited(tmp_path, [("  holdout_fraction: 0.3\n",
                                 "  holdout_fraction: 0.3\n  trim_rows: 100\n")])
    assert _run(config, out, "ingest") == 0
    labels = ingest.load_window_bundle(out / "bundle")[0]["test_labels"]
    before = ingest.load_window_bundle(all_out / "bundle")[0]["test_labels"]
    np.testing.assert_array_equal(labels, before)
    capsys.readouterr()
    assert _run(config, out, "evaluate") == 1
    assert (f"config error: {out / 'scores.csv'}: detect scored windows.npz with sha256 "
            f"{scored}, the bundle's has {_sha256(windows)}; re-run detect"
            ) in capsys.readouterr().err
    assert (out / "metrics.json").read_bytes() == (all_out / "metrics.json").read_bytes()


def test_evaluate_without_a_recorded_digest_exits_1(all_out, tmp_path, capsys):
    # a detect_manifest.json without windows_sha256 ties scores.csv to no bundle
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    manifest = json.loads((out / "detect_manifest.json").read_text())
    del manifest["windows_sha256"]
    (out / "detect_manifest.json").write_text(json.dumps(manifest))
    config = _edited(tmp_path, [])
    assert _run(config, out, "evaluate") == 1
    assert "detect scored windows.npz with sha256 None" in capsys.readouterr().err
    (out / "detect_manifest.json").unlink()
    assert _run(config, out, "evaluate") == 1
    assert (f"config error: {out / 'detect_manifest.json'} not found; run detect first"
            in capsys.readouterr().err)


@pytest.mark.parametrize("change, stages, edits", [
    ("test_shift", ("ingest",), [("test_shift: 20", "test_shift: 12")]),
    ("attack", ("synth", "ingest"), [("start: 60", "start: 120")]),
], ids=["test-shift", "attack"])
def test_evaluate_after_a_re_ingest_exits_1(config, tmp_path, capsys, change, stages, edits):
    # detect scored one ingest's test windows; the baselines would scan
    # another's, at another length (a new test_shift) or at the same length
    # with other labels (a moved attack)
    for stage in ("synth", "ingest", "train"):
        assert _run(config, tmp_path, stage) == 0, stage
    with pytest.warns(UserWarning, match=FEW_HOLDOUT):
        assert _run(config, tmp_path, "detect") == 0
    rows = len((tmp_path / "scores.csv").read_text().splitlines()) - 1
    windows = tmp_path / "bundle" / "windows.npz"
    scored = _sha256(windows)
    edited = _edited(tmp_path, edits)
    for stage in stages:
        assert _run(edited, tmp_path, stage) == 0, stage
    labels = ingest.load_window_bundle(tmp_path / "bundle")[0]["test_labels"].size
    assert (rows == labels) == (change == "attack")
    capsys.readouterr()
    assert _run(edited, tmp_path, "evaluate") == 1
    assert (f"config error: {tmp_path / 'scores.csv'}: detect scored windows.npz with sha256 "
            f"{scored}, the bundle's has {_sha256(windows)}; re-run detect"
            ) in capsys.readouterr().err
    assert not (tmp_path / "metrics.json").exists()
    # the remedy the message names, after the one detect names for the
    # checkpoint trained on the first ingest's windows; a test_shift of 12
    # also cuts 6 holdout windows
    assert _run(edited, tmp_path, "detect") == 1
    assert "re-run train" in capsys.readouterr().err
    assert _run(edited, tmp_path, "train") == 0
    with pytest.warns(UserWarning, match="holdout windows set the residual scale"):
        assert _run(edited, tmp_path, "detect") == 0
    assert _run(edited, tmp_path, "evaluate") == 0


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


def test_zero_holdout_fraction_exits_1_at_load(tmp_path, capsys):
    # detect and evaluate calibrate on holdout windows, so every run needs some
    config = tmp_path / "no_holdout.yaml"
    config.write_text(TINY_CONFIG.replace("holdout_fraction: 0.3", "holdout_fraction: 0.0"))
    out = tmp_path / "out"
    assert _run(config, out, "all") == 1
    assert f"{config}:7: ingest.holdout_fraction: expected fraction in (0, 0.9], got 0.0" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_bundle_without_holdout_windows_exits_1_at_detect_and_evaluate(
        config, all_out, tmp_path, capsys):
    # a bundle ingested before holdout windows were required
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    windows = out / "bundle" / "windows.npz"
    with np.load(windows) as data:
        kept = {k: data[k] for k in data.files if not k.startswith("holdout")}
    np.savez_compressed(windows, **kept)
    for stage in ("detect", "evaluate"):
        capsys.readouterr()
        assert _run(config, out, stage) == 1, stage
        assert "bundle has no holdout windows; re-ingest" in capsys.readouterr().err
    for name in ("scores.csv", "metrics.json"):
        assert (out / name).read_bytes() == (all_out / name).read_bytes(), name


def test_test_csv_with_swapped_columns_exits_1(config, tmp_path, capsys):
    # header and values swapped together: each column would be scaled and
    # projected with the other's bounds and loadings
    assert _run(config, tmp_path, "synth") == 0
    test_csv = tmp_path / "test.csv"
    lines = []
    for line in test_csv.read_text().splitlines():
        cells = line.split(",")
        cells[1], cells[2] = cells[2], cells[1]
        lines.append(",".join(cells))
    test_csv.write_text("\n".join(lines) + "\n")
    assert _run(config, tmp_path, "ingest") == 1
    err = capsys.readouterr().err
    assert f"paths.test_csv {test_csv}: column 'MV101' where the training CSV has 'LIT101'" in err
    assert not (tmp_path / "bundle").exists()


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


def test_training_split_shorter_than_one_window_exits_1_at_ingest(tmp_path, capsys):
    # 90% of the 300 training rows is held out, which leaves 30 for training
    config = tmp_path / "short_train.yaml"
    config.write_text(TINY_CONFIG.replace("window_length: 20", "window_length: 100").replace(
        "holdout_fraction: 0.3", "holdout_fraction: 0.9"))
    assert _run(config, tmp_path, "synth") == 0
    assert _run(config, tmp_path, "ingest") == 1
    err = capsys.readouterr().err
    assert "ingest.holdout_fraction 0.9 and ingest.trim_rows 0 leave 30 rows" in err
    assert "ingest.window_length 100" in err
    assert not (tmp_path / "bundle").exists()


def test_trim_rows_of_every_row_exits_1(tmp_path, capsys):
    config = tmp_path / "trim_all.yaml"
    config.write_text(TINY_CONFIG.replace("ingest:\n", "ingest:\n  trim_rows: 300\n"))
    assert _run(config, tmp_path, "synth") == 0
    assert _run(config, tmp_path, "ingest") == 1
    assert "ingest.trim_rows 300 leaves none of the 300 rows" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()


def test_window_length_not_a_multiple_of_downsample_factor_exits_1_at_load(tmp_path, capsys):
    config = tmp_path / "indivisible.yaml"
    config.write_text(TINY_CONFIG.replace("window_length: 20", "window_length: 22"))
    out = tmp_path / "out"
    assert _run(config, out, "all") == 1
    assert (f"{config}:3: ingest.window_length 22 is not a multiple of "
            "ingest.downsample_factor 4") in capsys.readouterr().err
    assert not out.exists()


def test_test_shift_not_a_multiple_of_downsample_factor_exits_1_at_load(tmp_path, capsys):
    # neighbouring test windows would sit on downsampled grids 2 rows apart
    config = tmp_path / "misaligned.yaml"
    config.write_text(TINY_CONFIG.replace("test_shift: 20", "test_shift: 10"))
    out = tmp_path / "out"
    assert _run(config, out, "all") == 1
    assert (f"{config}:5: ingest.test_shift 10 is not a multiple of "
            "ingest.downsample_factor 4") in capsys.readouterr().err
    assert not out.exists()


def test_test_csv_shorter_than_one_window_exits_1_at_ingest(tmp_path, capsys):
    config = tmp_path / "short_test.yaml"
    config.write_text(TINY_CONFIG.replace("test_duration: 200", "test_duration: 15").replace(
        "start: 60, duration: 40", "start: 5, duration: 5"))
    assert _run(config, tmp_path, "all") == 1
    err = capsys.readouterr().err
    assert f"paths.test_csv {tmp_path / 'test.csv'} has 15 rows" in err
    assert "ingest.window_length 20" in err
    assert not (tmp_path / "bundle").exists()


def test_unknown_attack_field_exits_1_at_load(tmp_path, capsys):
    config = tmp_path / "attack_typo.yaml"
    config.write_text(TINY_CONFIG.replace("magnitude: 5.0", "magnitud: 5.0"))
    out = tmp_path / "out"
    assert _run(config, out, "all") == 1
    assert f"{config}:31: unknown key synth.attacks[0].magnitud" in capsys.readouterr().err
    assert not out.exists()


def _edited(tmp_path, edits):
    """A copy of the tiny config with each ``(old, new)`` text replacement applied."""
    text = TINY_CONFIG
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new)
    config = tmp_path / "edited.yaml"
    config.write_text(text)
    return config


@pytest.mark.parametrize("edits, message", [
    ([("{kind: sine,", "{kind: [sine],")],
     ":27: synth.variables[0].kind: expected one of ['coupled', 'sine', 'square'], got ['sine']"),
    ([("period: 30.0", "period: 0.0")], ":27: synth.variables[0].period: expected positive number"),
    ([("period: 30.0", "period: -30.0")], ":27: synth.variables[0].period: expected positive number"),
    ([("period: 40.0", "period: 0.0")], ":28: synth.variables[1].period: expected positive number"),
    ([("name: MV101", "name: LIT101")], "synth: column names ['LIT101'] are used twice"),
    ([("name: MV101", "name: label")], "synth: column names ['label'] are used twice"),
    ([("name: MV101", "name: timestamp")], "synth: column names ['timestamp'] are used twice"),
    ([("name: MV101", "name: index")], "synth: column names ['index'] are used twice"),
    # an unnamed variable takes its default name, v<index>_<kind>
    ([("name: LIT101", "name: v1_act"), (", name: MV101", "")],
     "synth: column names ['v1_act'] are used twice"),
    ([("amplitude: 1.0", "amplitude: abc")],
     ":27: synth.variables[0].amplitude: expected float, got str ('abc')"),
    ([("source: 0,", "source: 0.0,")],
     ":29: synth.variables[2].source: expected int, got float (0.0)"),
    ([("target: 0,", "target: 1.5,")], ":31: synth.attacks[0].target: expected int, got float (1.5)"),
    ([("magnitude: 5.0", "magnitude: null")],
     ":31: synth.attacks[0].magnitude: expected float, got NoneType (None)"),
    ([("duty_cycle: 0.5,", "duty_cycle: 0.5, low: null,")],
     ":28: synth.variables[1].low: expected float, got NoneType (None)"),
    ([("delay: 2,", "delay: 2.5,")], ":29: synth.variables[2].delay: expected int, got float (2.5)"),
    ([("name: MV101", "name: 5")], ":28: synth.variables[1].name: expected str or null, got int (5)"),
    ([("start: 60,", "start: true,")], ":31: synth.attacks[0].start: expected int, got boolean"),
    ([("period: 30.0", "period: .inf")],
     ":27: synth.variables[0].period: expected a finite number, got inf"),
    ([("amplitude: 1.0", "amplitude: .nan")],
     ":27: synth.variables[0].amplitude: expected a finite number, got nan"),
    ([("gain: 0.8", "gain: -.inf")], ":29: synth.variables[2].gain: expected a finite number, got -inf"),
    ([("period: 30.0, ", "")], ":27: synth.variables[0].period: required, not given"),
    # a stuck sensor repeats its start reading, so a magnitude would be ignored
    ([("kind: mean_shift", "kind: stuck_value")], ":31: unknown key synth.attacks[0].magnitude"),
], ids=["kind-list", "sine-period-0", "sine-period-negative", "square-period-0",
        "repeated-name", "name-label", "name-timestamp", "name-index",
        "repeated-default-name", "amplitude-string", "source-float", "target-float",
        "magnitude-null", "low-null", "delay-float", "name-int", "start-boolean",
        "period-inf", "amplitude-nan", "gain-negative-inf", "period-missing",
        "stuck-magnitude"])
def test_bad_synth_variable_exits_1_at_load(edits, message, tmp_path, capsys):
    config = _edited(tmp_path, edits)
    assert _run(config, tmp_path, "synth") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "train.csv").exists()


def test_reading_beyond_2_63_exits_1_at_synth(config, tmp_path, capsys):
    # the fixed-point text of such a reading would not fit its integer part
    # in an int64; both streams are checked before either file is written
    config_big = _edited(tmp_path, [("amplitude: 1.0, name: LIT101",
                                     "amplitude: 1.0e+19, name: LIT101")])
    assert _run(config_big, tmp_path, "synth") == 1
    err = capsys.readouterr().err
    assert "config error: synth: column 'LIT101' reaches " in err
    assert f"of {tmp_path / 'train.csv'}; readings must stay below 2**63 in magnitude" in err
    assert not (tmp_path / "train.csv").exists()
    # an attack that reaches it in the test stream leaves the last synth's
    # pair of files as it was
    assert _run(config, tmp_path, "synth") == 0
    written = {name: (tmp_path / name).read_bytes() for name in ("train.csv", "test.csv")}
    config_big = _edited(tmp_path, [("magnitude: 5.0", "magnitude: 1.0e+19")])
    assert _run(config_big, tmp_path, "synth") == 1
    assert ("config error: synth: column 'LIT101' reaches 1e+19 at row 60 of "
            f"{tmp_path / 'test.csv'}") in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes() for name in written} == written


def test_column_name_with_a_comma_keeps_its_column(tmp_path):
    config = _edited(tmp_path, [
        ("name: LIT101", 'name: "A,B"'),
        ("name: MV101", "name: C"),
        ("    - {kind: coupled, source: 0, gain: 0.8, delay: 2, name: FIT101}\n", ""),
    ])
    with pytest.warns(UserWarning, match=FEW_HOLDOUT):
        assert _run(config, tmp_path, "all") == 0
    for name in ("train.csv", "test.csv"):
        assert (tmp_path / name).read_text().startswith('timestamp,"A,B",C,label\n')
    with (tmp_path / "per_variable_flags.csv").open(newline="") as fh:
        assert next(csv.reader(fh)) == ["index", "A,B", "C"]


def test_csv_feature_named_index_exits_1_at_ingest(config, tmp_path, capsys):
    # per_variable_flags.csv writes its own index column before the features;
    # a feature of the same name would be dropped when the file is read back
    assert _run(config, tmp_path, "synth") == 0
    train_csv = tmp_path / "train.csv"
    train_csv.write_text(train_csv.read_text().replace(",MV101,", ",index,", 1))
    assert _run(config, tmp_path, "ingest") == 1
    assert f"{train_csv}: feature column 'index'" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()


def _repeat_header_name(text):
    return text.replace(",MV101,", ",LIT101,", 1)


def _drop_a_cell(text):
    lines = text.splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


def _non_numeric_cell(text):
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[1] = "high"
    lines[5] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit, message", [
    (_repeat_header_name, "header repeats ['LIT101']"),
    (_drop_a_cell, "ragged row 6: expected 5 cells, got 4"),
    (_non_numeric_cell, "row 6: non-numeric cell 'high' in column 'LIT101'"),
], ids=["repeated-header-name", "ragged-row", "non-numeric-cell"])
def test_bad_csv_exits_1_at_ingest(edit, message, config, tmp_path, capsys):
    # a refused input file is a config error (exit 1), not a crash (exit 2)
    assert _run(config, tmp_path, "synth") == 0
    train_csv = tmp_path / "train.csv"
    train_csv.write_text(edit(train_csv.read_text()))
    assert _run(config, tmp_path, "ingest") == 1
    assert f"config error: {train_csv}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("key", ["input_csv", "test_csv"])
def test_missing_csv_exits_1_naming_its_key(key, config, tmp_path, capsys):
    # a wrong path in the config is a config error (exit 1), not a crash (exit 2)
    assert _run(config, tmp_path, "synth") == 0
    paths = {"input_csv": tmp_path / "train.csv", "test_csv": tmp_path / "test.csv"}
    paths[key] = tmp_path / "nowhere.csv"
    edited = _edited(tmp_path, [
        ("enabled: true", "enabled: false"),
        ("seed: 3\n", "seed: 3\npaths:\n" + "".join(
            f"  {name}: {path}\n" for name, path in paths.items())),
    ])
    assert _run(edited, tmp_path, "ingest") == 1
    assert f"config error: paths.{key}: no file '{paths[key]}'" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()
