"""End-to-end runs of the CLI on a tiny synthetic plant (a few seconds each)."""

import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from tsgad import gan, ingest, inversion, pca
from tsgad.cli import main
from tsgad.config import load_config, validate_config
from tsgad.pipeline import SCORES_HEADER, _read_scores

TINY_CONFIG = """\
seed: 3
ingest:
  window_length: 20
  train_shift: 8
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
    assert manifest["windows_sha256"] == _bundle_digest(all_out / "bundle")
    # windows are the GAN's: the baselines' row tables have no window set
    bundle = json.loads((all_out / "bundle" / "manifest.json").read_text())
    assert set(bundle["window_sets"]) == {"train", "holdout", "test"}
    assert manifest["test_windows"] == bundle["window_sets"]["test"]["count"]


def test_detect_manifest_records_holdout_inversions(config, all_out):
    # the holdout windows' inversions, which set the residual scale, are
    # summarized beside it: their error median and mean Adam step count
    manifest = json.loads((all_out / "detect_manifest.json").read_text())
    cfg = load_config(config)
    assert 0.0 <= manifest["holdout_error_median"] <= 2.0
    assert 0.0 <= manifest["holdout_iterations_mean"] <= cfg["inversion"]["max_iterations"]
    # detect inverts the holdout and the test windows in one stack, holdout
    # first, window j of the holdout from seed + 1_000_000 + j and window i
    # of the test set from seed + i; the same call gives the same figures
    arrays = ingest.load_window_bundle(all_out / "bundle")[0]
    holdout, test = arrays["holdout_windows"], arrays["test_windows"]
    seeds = [cfg["seed"] + 1_000_000 + j for j in range(len(holdout))]
    seeds += [cfg["seed"] + i for i in range(len(test))]
    generator = gan.load_checkpoint(all_out / "checkpoints" / "final.npz").generator
    _, errors, iterations, _ = inversion.invert(generator, np.concatenate([holdout, test]),
                                                cfg["inversion"], seeds)
    assert manifest["holdout_error_median"] == float(np.median(errors[:len(holdout)]))
    assert manifest["holdout_iterations_mean"] == float(iterations[:len(holdout)].mean())
    assert _diagnostics(all_out) == (errors[len(holdout):].tolist(),
                                     iterations[len(holdout):].tolist())


def _diagnostics(out):
    """The ``(errors, iterations)`` of ``inversion_diagnostics.csv``."""
    with (out / "inversion_diagnostics.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["error"]) for r in rows], [int(r["iterations"]) for r in rows]


def test_default_inversion_budget_stops_at_the_tolerance(all_out, tmp_path):
    # no workload inverts at the schema's budget: detect and evaluate again
    # from the trained checkpoint and bundle with the inversion section
    # dropped.  The descent stops a window once its error reaches
    # inversion.tolerance, and ends no worse in the median than at the tiny
    # config's 3 steps x 2 restarts
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    config = _edited(tmp_path, [("inversion:\n  max_iterations: 3\n  restarts: 2\n", "")])
    with pytest.warns(UserWarning, match=FEW_HOLDOUT):
        assert _run(config, out, "detect") == 0
    assert _run(config, out, "evaluate") == 0
    budget = validate_config({})["inversion"]["max_iterations"]
    errors, iterations = _diagnostics(out)
    short_errors, _ = _diagnostics(all_out)
    assert len(errors) == len(short_errors)
    assert all(0 <= i <= budget for i in iterations), iterations
    assert min(iterations) < budget, iterations
    assert all(0.0 <= e <= 2.0 for e in errors), errors
    assert statistics.median(errors) <= statistics.median(short_errors)


def test_detect_inverts_and_scores_every_window_in_one_pass(config, all_out, tmp_path,
                                                            monkeypatch):
    # one descent over the holdout and test windows together, which keeps
    # the reconstructions it made, and one discriminator pass over them
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    inverted, scored = [], []
    invert_many, forward_outputs = inversion.invert_many, inversion.forward_outputs

    def counting_invert_many(gen, windows, settings, seeds):
        inverted.append((len(windows), list(seeds)))
        return invert_many(gen, windows, settings, seeds)

    def counting_forward_outputs(net, sequences):
        scored.append((net.output_size, len(sequences)))
        return forward_outputs(net, sequences)

    monkeypatch.setattr(inversion, "invert_many", counting_invert_many)
    monkeypatch.setattr(inversion, "forward_outputs", counting_forward_outputs)
    with pytest.warns(UserWarning, match=FEW_HOLDOUT):
        assert _run(config, out, "detect") == 0
    detect = json.loads((out / "detect_manifest.json").read_text())
    holdout, test = detect["holdout_windows"], detect["test_windows"]
    seed = load_config(config)["seed"]
    seeds = [seed + 1_000_000 + j for j in range(holdout)] + [seed + i for i in range(test)]
    assert inverted == [(holdout + test, seeds)]
    # the discriminator's scoring (one probability per step) only
    assert scored == [(1, holdout + test)]
    for name in ("scores.csv", "detect_manifest.json", "inversion_diagnostics.csv"):
        assert (out / name).read_bytes() == (all_out / name).read_bytes(), name


def test_flags_are_the_combined_score_above_the_threshold(all_out):
    threshold = json.loads((all_out / "detect_manifest.json").read_text())["threshold"]
    with (all_out / "scores.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["flag"]) for r in rows] == [int(float(r["combined"]) > threshold) for r in rows]


def test_read_scores_parses_every_score_bit_for_bit(all_out):
    # metrics.json ranks these columns, so its bytes rest on their bits
    path = all_out / "scores.csv"
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    scores = _read_scores(path, len(rows))
    for name in ("residual", "disc_score", "combined"):
        want = np.array([float(row[name]) for row in rows])
        got = np.ascontiguousarray(scores[name])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), name


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


@pytest.mark.parametrize("key", [
    "no_such_key", "workers", "gan.optimizer", "synth.propagate_to_coupled",
    "synth.label_coupled", "baselines", "scoring.tau", "generate",
    "gan.checkpoint_interval", "gan.mmd_every", "gan.grad_clip", "gan.disc_depth",
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


@pytest.mark.parametrize("stage", ["train", "detect", "evaluate"])
def test_stage_before_ingest_exits_1(stage, tmp_path, capsys):
    config = tmp_path / "seed.yaml"
    config.write_text("seed: 0\n")
    out = tmp_path / "out"
    assert _run(config, out, stage) == 1
    assert (f"config error: no window bundle in {out / 'bundle'}; run ingest first"
            in capsys.readouterr().err)


@pytest.mark.parametrize("name, damage, stage", [
    ("windows.npz", "truncate", "train"),
    ("manifest.json", "{", "train"),
    ("pca.json", "{", "detect"),
    ("pca.json", "{", "evaluate"),
])
def test_damaged_bundle_file_exits_1(config, all_out, tmp_path, capsys, name, damage, stage):
    # a bundle file cut short or not JSON is refused by name, with the cure
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    path = out / "bundle" / name
    if damage == "truncate":
        path.write_bytes(path.read_bytes()[:1000])
    else:
        path.write_text(damage)
    capsys.readouterr()
    assert _run(config, out, stage) == 1
    err = capsys.readouterr().err
    assert f"config error: {path}: damaged (" in err and "; re-run ingest" in err, err


def _flip_member_bytes(path):
    """Invert the last 100 data bytes of the largest member of the stored
    (uncompressed) zip archive at ``path``, leaving its CRC as it was."""
    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        member = max(archive.infolist(), key=lambda info: info.compress_size)
    start = member.header_offset
    name_len, extra_len = struct.unpack("<HH", raw[start + 26:start + 30])
    end = start + 30 + name_len + extra_len + member.compress_size
    raw[end - 100:end] = bytes(b ^ 0xFF for b in raw[end - 100:end])
    path.write_bytes(bytes(raw))


def _window_set_edit(name, key, value):
    """A damage that sets, or with ``...`` deletes, one key of the bundle
    manifest's ``window_sets`` entry ``name``, or adds the entry as a copy
    of the test set's."""
    def edit(sets):
        entry = sets.setdefault(name, dict(sets["test"]))
        if value is ...:
            del entry[key]
        else:
            entry[key] = value
    return edit


@pytest.mark.parametrize("name, damage, stage, cure", [
    ("bundle/manifest.json", _window_set_edit("train", "step", ...), "train", "ingest"),
    ("bundle/manifest.json", _window_set_edit("test", "step", 0), "detect", "ingest"),
    ("bundle/manifest.json", _window_set_edit("holdout", "step", "1"), "evaluate", "ingest"),
    ("bundle/manifest.json", _window_set_edit("train", "step", True), "train", "ingest"),
    ("bundle/manifest.json", _window_set_edit("holdout", "window_length", 1.5), "evaluate",
     "ingest"),
    ("bundle/manifest.json", _window_set_edit("spare", "step", 1), "train", "ingest"),
    ("bundle/manifest.json", _window_set_edit("test", "window_length", 1000), "detect",
     "ingest"),
    ("bundle/manifest.json", "{}", "train", "ingest"),
    ("bundle/manifest.json", _window_set_edit("train", "count", 1), "train", "ingest"),
    ("checkpoints/final.npz", "flip", "detect", "train"),
    ("detect_manifest.json", "{", "evaluate", "detect"),
    ("detect_manifest.json", "[1]", "evaluate", "detect"),
    ("scores.csv", "truncate", "evaluate", "detect"),
    ("scores.csv", "index,residual\n0,0.5\n", "evaluate", "detect"),
    ("scores.csv", "rows", "evaluate", "detect"),
    ("scores.csv", ("flag", "x"), "evaluate", "detect"),
    ("scores.csv", ("flag", "2"), "evaluate", "detect"),
    ("scores.csv", ("truth", "2"), "evaluate", "detect"),
    ("scores.csv", ("truth", "-1"), "evaluate", "detect"),
    ("scores.csv", ("truth", ""), "evaluate", "detect"),
    ("scores.csv", ("residual", "nan"), "evaluate", "detect"),
    ("scores.csv", ("disc_score", "inf"), "evaluate", "detect"),
    ("scores.csv", ("combined", "-inf"), "evaluate", "detect"),
    ("scores.csv", ("index", "x"), "evaluate", "detect"),
    ("scores.csv", "reverse index", "evaluate", "detect"),
], ids=["bundle step missing", "bundle step 0", "bundle step a string", "bundle step true",
        "bundle window length a float", "bundle set without a stream",
        "bundle window longer than its stream", "bundle without window sets",
        "bundle count not the windows cut", "checkpoint bad crc", "detect manifest not json",
        "detect manifest a list", "scores cut short", "scores header", "scores missing rows",
        "scores cell not a number", "scores flag 2", "scores truth 2", "scores truth -1",
        "scores truth empty in one row", "scores residual nan", "scores disc_score inf",
        "scores combined -inf", "scores index not a number", "scores index reversed"])
def test_damaged_stage_output_exits_1(config, all_out, tmp_path, capsys, name, damage, stage,
                                      cure):
    # a bundle manifest without window sets, or whose set has a window step
    # or length that is not a positive integer, no stream in windows.npz, one
    # shorter than a window or a count other than the windows it cuts, a
    # checkpoint whose member fails its CRC, a detect manifest that is no JSON
    # object, and a scores.csv cut short (mid-row or after a row), with a
    # foreign header, with a flag that is no integer, a flag or truth other
    # than 0 or 1 (an empty truth among labelled rows included), a score
    # that is not finite or an index that is no number or does not increase
    # (each score naming another test row) are refused by name, with the
    # stage to re-run, and in terms of the file: evaluate has no ingest
    # settings to name
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    path = out / name
    if callable(damage):
        manifest = json.loads(path.read_text())
        damage(manifest["window_sets"])
        path.write_text(json.dumps(manifest))
    elif damage == "flip":
        _flip_member_bytes(path)
    elif damage == "truncate":
        path.write_bytes(path.read_bytes()[:300])
    elif damage == "rows":
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:10]))
    elif damage == "reverse index":
        header, *rows = path.read_text().splitlines(keepends=True)
        cells = [row.split(",", 1) for row in rows]
        index = [first for first, _ in reversed(cells)]
        path.write_text(header + "".join(f"{i},{rest}" for i, (_, rest) in zip(index, cells)))
    elif isinstance(damage, tuple):
        # one cell of the first row
        column, value = damage
        header, first, *rest = path.read_text().splitlines(keepends=True)
        cells = first.rstrip("\r\n").split(",")
        cells[SCORES_HEADER.index(column)] = value
        path.write_text("".join([header, ",".join(cells), "\n", *rest]))
    else:
        path.write_text(damage)
    capsys.readouterr()
    assert _run(config, out, stage) == 1
    err = capsys.readouterr().err
    assert f"config error: {path}: damaged (" in err and f"; re-run {cure}" in err, err
    assert err.count(str(path)) == 1, err
    assert "label_mapping" not in err and "timestamp_format" not in err, err
    if damage == "reverse index":
        assert "in column 'index'" in err, err


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
    ("meta not json", "Expecting value: line 1 column 1 (char 0)"),
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
    if damage in ("text", "npy", "meta not json"):
        # the npz and JSON readers refuse a damaged file with the cure
        reason = f"damaged ({reason}); re-run train"
    capsys.readouterr()
    assert _run(config, out, "detect") == 1
    assert f"config error: {checkpoint}: {reason}" in capsys.readouterr().err


def _bundle_digest(bundle):
    """The digest that binds a stage to the windows it read: the sha256 of
    ``windows.npz``'s bytes, then the sorted JSON of the manifest's
    ``window_sets``, which give each set's window length and step."""
    digest = hashlib.sha256((bundle / "windows.npz").read_bytes())
    sets = json.loads((bundle / "manifest.json").read_text())["window_sets"]
    digest.update(json.dumps(sets, sort_keys=True).encode())
    return digest.hexdigest()


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
        trained_on = _bundle_digest(out / "bundle")
        config = _edited(tmp_path, [("n_components: 2", "n_components: 3")])
        assert _run(config, out, "ingest") == 0
        reason = (f"trained on windows with bundle digest {trained_on}, the bundle's has "
                  f"{_bundle_digest(out / 'bundle')}; re-run train")
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
    bundle = out / "bundle"
    trained_on = _bundle_digest(bundle)
    config = _edited(tmp_path, [("  holdout_fraction: 0.3\n",
                                 "  holdout_fraction: 0.3\n  trim_rows: 100\n")])
    assert _run(config, out, "ingest") == 0
    arrays = ingest.load_window_bundle(out / "bundle")[0]
    assert arrays["test_windows"].shape[2] == 2
    capsys.readouterr()
    assert _run(config, out, "detect") == 1
    checkpoint = out / "checkpoints" / "final.npz"
    assert (f"config error: {checkpoint}: trained on windows with bundle digest {trained_on}, "
            f"the bundle's has {_bundle_digest(bundle)}; re-run train") in capsys.readouterr().err
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
    trained_on = _bundle_digest(out / "bundle")
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
    # bundle's digest tells that scores.csv came from another bundle
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    bundle = out / "bundle"
    scored = _bundle_digest(bundle)
    config = _edited(tmp_path, [("  holdout_fraction: 0.3\n",
                                 "  holdout_fraction: 0.3\n  trim_rows: 100\n")])
    assert _run(config, out, "ingest") == 0
    labels = ingest.load_window_bundle(out / "bundle")[0]["test_stream_labels"]
    before = ingest.load_window_bundle(all_out / "bundle")[0]["test_stream_labels"]
    np.testing.assert_array_equal(labels, before)
    capsys.readouterr()
    assert _run(config, out, "evaluate") == 1
    assert (f"config error: {out / 'scores.csv'}: detect scored windows with bundle digest "
            f"{scored}, the bundle's has {_bundle_digest(bundle)}; re-run detect"
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
    assert "detect scored windows with bundle digest None" in capsys.readouterr().err
    (out / "detect_manifest.json").unlink()
    assert _run(config, out, "evaluate") == 1
    assert (f"config error: {out / 'detect_manifest.json'} not found; run detect first"
            in capsys.readouterr().err)


@pytest.mark.parametrize("change, stages, edits", [
    ("test_shift", ("ingest",), [("test_shift: 20", "test_shift: 12")]),
    ("attack", ("synth", "ingest"), [("start: 60", "start: 120")]),
], ids=["test-shift", "attack"])
def test_evaluate_after_a_re_ingest_exits_1(config, tmp_path, capsys, change, stages, edits):
    # detect scored one ingest's test windows; evaluate would count them
    # against another's, cut at another step from the same test stream (a
    # new test_shift) or from a stream with other labels (a moved attack)
    for stage in ("synth", "ingest", "train"):
        assert _run(config, tmp_path, stage) == 0, stage
    with pytest.warns(UserWarning, match=FEW_HOLDOUT):
        assert _run(config, tmp_path, "detect") == 0
    rows = len((tmp_path / "scores.csv").read_text().splitlines()) - 1
    bundle = tmp_path / "bundle"
    scored = _bundle_digest(bundle)
    before = ingest.load_window_bundle(bundle)[0]["test_stream_labels"]
    edited = _edited(tmp_path, edits)
    for stage in stages:
        assert _run(edited, tmp_path, stage) == 0, stage
    labels = ingest.load_window_bundle(bundle)[0]["test_stream_labels"]
    assert rows == labels.size
    assert np.array_equal(labels, before) == (change == "test_shift")
    capsys.readouterr()
    assert _run(edited, tmp_path, "evaluate") == 1
    assert (f"config error: {tmp_path / 'scores.csv'}: detect scored windows with bundle digest "
            f"{scored}, the bundle's has {_bundle_digest(bundle)}; re-run detect"
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


def test_overlapping_test_windows_score_each_test_stream_row_once(tmp_path):
    # at a test_shift of 12, the 5-row test windows overlap; they cover the
    # same 50 test-stream rows (and 20 holdout rows) as the abutting windows
    # at 20, and every method counts each row once, so the baselines, which
    # scan those rows, report the same figures at both shifts.  At 40 the
    # windows start 10 rows apart, and only the rows they cover are scored
    runs = {}
    for shift in (20, 12, 40):
        out = tmp_path / str(shift)
        out.mkdir()
        config = _edited(out, [("test_shift: 20", f"test_shift: {shift}")])
        with pytest.warns(UserWarning, match="holdout windows set the residual scale"):
            assert _run(config, out, "all") == 0
        with (out / "scores.csv").open(newline="") as fh:
            scores = list(csv.DictReader(fh))
        arrays, manifest, _ = ingest.load_window_bundle(out / "bundle")
        sets = manifest["window_sets"]
        runs[shift] = {
            "scores": scores,
            "flag_rows": len((out / "per_variable_flags.csv").read_text().splitlines()) - 1,
            "metrics": json.loads((out / "metrics.json").read_text())["methods"],
            "windows": {name: sets[name]["count"] for name in ("holdout", "test")},
            "holdout_rows": len(arrays["holdout_raw"]),
            "test_rows": len(arrays["test_raw"]),
        }
    whole, overlapping, gapped = runs[20], runs[12], runs[40]
    assert [run["windows"] for run in runs.values()] == [
        {"holdout": 4, "test": 10}, {"holdout": 6, "test": 16}, {"holdout": 2, "test": 5}]
    assert whole["holdout_rows"] == overlapping["holdout_rows"] == 20
    assert gapped["holdout_rows"] == 10
    covered = {20: range(50), 12: range(50),
               40: [k * 10 + t for k in range(5) for t in range(5)]}
    for shift, run in runs.items():
        rows = len(covered[shift])
        assert [r["index"] for r in run["scores"]] == [str(t) for t in covered[shift]], shift
        assert run["flag_rows"] == run["test_rows"] == rows, shift
        # the baselines count the same rows
        counts = [run["metrics"]["spe"], *run["metrics"]["cusum"]["per_variable"].values()]
        assert {sum(c[k] for k in ("tp", "fp", "tn", "fn")) for c in counts} == {rows}, shift
    assert [r["truth"] for r in whole["scores"]] == [r["truth"] for r in overlapping["scores"]]
    for method in ("spe", "cusum"):
        assert whole["metrics"][method] == overlapping["metrics"][method], method


def test_ingest_at_factor_one_stores_the_normalized_and_projected_rows(tmp_path):
    # ingest rewrites the parsed rows in place, normalizing and then
    # centring them for the PCA; at factor 1 each row table is cut from
    # those very rows, so it must hold them as normalize left them: the rows
    # of the set's whole 20-row windows
    config = _edited(tmp_path, [("downsample_factor: 4", "downsample_factor: 1")])
    assert _run(config, tmp_path, "synth") == 0
    assert _run(config, tmp_path, "ingest") == 0
    arrays, manifest, _ = ingest.load_window_bundle(tmp_path / "bundle")
    model = pca.PcaModel.load(tmp_path / "bundle" / "pca.json")
    ing = load_config(config)["ingest"]
    schema = [ing[k] for k in ("timestamp_column", "label_column", "label_mapping")]
    bounds = [np.array(manifest["normalization"][k]) for k in ("col_min", "col_max")]
    train = ingest.normalize(ingest.load_csv(tmp_path / "train.csv", *schema)[0], *bounds)
    split = len(train) - int(round(len(train) * ing["holdout_fraction"]))
    test = ingest.normalize(ingest.load_csv(tmp_path / "test.csv", *schema)[0], *bounds)
    for name, rows in (("train", train[:split]), ("holdout", train[split:]), ("test", test)):
        raw, projected = arrays[f"{name}_raw"], arrays[f"{name}_stream"]
        covered = rows[: len(rows) // 20 * 20]
        assert raw.tobytes() == np.ascontiguousarray(covered).tobytes(), name
        assert projected.tobytes() == pca.project(model, rows.copy()).tobytes(), name


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
    manifest_path = out / "bundle" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["window_sets"]["holdout"]
    manifest_path.write_text(json.dumps(manifest))
    for stage in ("detect", "evaluate"):
        capsys.readouterr()
        assert _run(config, out, stage) == 1, stage
        assert "bundle has no holdout windows; re-ingest" in capsys.readouterr().err
    for name in ("scores.csv", "metrics.json"):
        assert (out / name).read_bytes() == (all_out / name).read_bytes(), name


@pytest.mark.parametrize("table", ["train_raw", "holdout_raw", "test_raw"])
def test_bundle_without_a_row_table_exits_1_at_evaluate(config, all_out, tmp_path, capsys,
                                                        table):
    # each row table the baselines scan is refused by name when missing
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    windows = out / "bundle" / "windows.npz"
    with np.load(windows) as data:
        kept = {k: data[k] for k in data.files if k != table}
    np.savez(windows, **kept)
    capsys.readouterr()
    assert _run(config, out, "evaluate") == 1
    assert (f"config error: {windows}: damaged (no {table} row table); re-run ingest"
            in capsys.readouterr().err)
    assert (out / "metrics.json").read_bytes() == (all_out / "metrics.json").read_bytes()


def test_bundle_without_a_test_set_exits_1_at_detect_and_evaluate(all_out, tmp_path, capsys):
    # a bundle ingested without paths.test_csv has nothing to score or count
    config = _edited(tmp_path, [("  enabled: true\n", "  enabled: false\n")])
    config.write_text(f"paths:\n  input_csv: {all_out / 'train.csv'}\n" + config.read_text())
    out = tmp_path / "out"
    assert _run(config, out, "ingest") == 0
    for stage in ("detect", "evaluate"):
        capsys.readouterr()
        assert _run(config, out, stage) == 1, stage
        assert ("bundle has no test windows; configure paths.test_csv and re-ingest"
                in capsys.readouterr().err), stage


def test_scores_without_truth_exit_1_at_evaluate(config, all_out, tmp_path, capsys):
    # detect writes an empty truth column for a test stream without labels
    out = tmp_path / "out"
    shutil.copytree(all_out, out)
    scores = out / "scores.csv"
    header, *rows = scores.read_text().splitlines()
    body = "".join(f"{line.rsplit(',', 1)[0]},\n" for line in rows)
    scores.write_text(f"{header}\n{body}")
    capsys.readouterr()
    assert _run(config, out, "evaluate") == 1
    assert ("test stream has no ground-truth labels; cannot evaluate"
            in capsys.readouterr().err)


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
    # 200 of 300 rows are left: 60 held out, 140 train 16 windows (24 untrimmed)
    config = tmp_path / "trim.yaml"
    config.write_text(TINY_CONFIG.replace("ingest:\n", "ingest:\n  trim_rows: 100\n"))
    assert _run(config, tmp_path, "synth") == 0
    assert _run(config, tmp_path, "ingest") == 0
    assert (_train_windows(tmp_path), _train_windows(all_out)) == (16, 24)


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


def _datetime_timestamp(text):
    lines = text.splitlines()
    lines[5] = "2015-12-28 10:00:04," + lines[5].split(",", 1)[1]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit, message", [
    (_repeat_header_name, "header repeats ['LIT101']"),
    (_drop_a_cell, "ragged row 6: expected 5 cells, got 4"),
    (_non_numeric_cell, "row 6: non-numeric cell 'high' in column 'LIT101'"),
    # the setting that reads datetime strings is named for the plant CSVs
    (_datetime_timestamp, "row 6: non-numeric timestamp '2015-12-28 10:00:04' in column "
     "'timestamp' (set ingest.timestamp_format for datetime strings)"),
], ids=["repeated-header-name", "ragged-row", "non-numeric-cell", "datetime-timestamp"])
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


def test_module_runs_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "tsgad", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)

    shown = run("--help")
    assert shown.returncode == 0, shown.stderr
    assert "{all,detect,evaluate,ingest,synth,train}" in shown.stdout
    # the process exits with main's code: 1 for a config error
    missing = run("synth", "--config", "missing.yaml")
    assert missing.returncode == 1
    assert "config error" in missing.stderr


def test_a_run_leaves_numpy_ma_unimported(config, tmp_path):
    # np.median and np.quantile import numpy.ma on first use; tsgad takes
    # its medians and quantiles from tsgad.orderstats instead
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys, warnings\n"
        "import numpy\n"
        "print('numpy.ma' in sys.modules)\n"
        "from tsgad.cli import main\n"
        "warnings.simplefilter('ignore', UserWarning)\n"
        f"assert main(['all', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    # the CLI prints the paths it wrote between the two answers
    lines = run.stdout.splitlines()
    at_import, after_run = lines[0], lines[-1]
    if at_import == "True":
        pytest.skip("import numpy loads numpy.ma")
    assert after_run == "False"
