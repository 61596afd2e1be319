"""End-to-end orchestration behind the CLI commands.

Every artifact, the bundle manifest and both ``.npz`` files included, is
timestamp-free and path-free, so identical configs and seeds reproduce
byte-identical outputs in any output directory.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines as bl
from . import gan, ingest, inversion, lstm, pca, scoring, svgplot
from .config import (
    ConfigError,
    config_hash,
    inversion_config,
    scenario_spec,
    training_config,
)
from .synthetic import generate_scenario, save_scenario_csv

# below this many holdout windows, one window can set the residual scale and tau
MIN_HOLDOUT_WINDOWS = 8


def _out_dir(cfg: dict) -> Path:
    return Path(cfg["paths"]["out_dir"])


def _bundle_dir(cfg: dict) -> Path:
    return _out_dir(cfg) / "bundle"


def _checkpoint_path(cfg: dict) -> Path:
    if cfg["paths"]["checkpoint"]:
        return Path(cfg["paths"]["checkpoint"])
    return _out_dir(cfg) / "checkpoints" / "final.npz"


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _csv_paths(cfg: dict) -> tuple[Path, Path | None]:
    """Training and test CSVs; with synth enabled an unset path falls back to
    the file ``run_synth`` writes under ``out_dir``."""
    train, test = cfg["paths"]["input_csv"], cfg["paths"]["test_csv"]
    if cfg["synth"]["enabled"]:
        train = train or _out_dir(cfg) / "train.csv"
        test = test or _out_dir(cfg) / "test.csv"
    elif not train:
        raise ConfigError("paths.input_csv is required for ingest")
    return Path(train), Path(test) if test else None


def run_synth(cfg: dict) -> tuple[Path, Path]:
    """Generate the normal training stream and the attacked test stream."""
    if not cfg["synth"]["enabled"]:
        raise ConfigError("synth.enabled is false; nothing to generate")
    train_csv, test_csv = _csv_paths(cfg)
    save_scenario_csv(*generate_scenario(scenario_spec(cfg, "train")), train_csv)
    save_scenario_csv(*generate_scenario(scenario_spec(cfg, "test")), test_csv)
    return train_csv, test_csv


def run_ingest(cfg: dict) -> Path:
    """CSV -> normalized, PCA-projected, windowed dataset bundle."""
    ing = cfg["ingest"]
    train_csv, test_csv = _csv_paths(cfg)
    schema = [ing[k] for k in ("timestamp_column", "label_column", "label_mapping",
                               "timestamp_format")]
    values, labels, columns = ingest.load_csv(train_csv, *schema)
    trim = ing["trim_rows"]
    if trim >= len(values):
        raise ConfigError(
            f"ingest.trim_rows {trim} leaves none of the {len(values)} rows of {train_csv}"
        )
    values = values[trim:]

    holdout_rows = int(round(len(values) * ing["holdout_fraction"]))
    window_len = ing["window_length"]
    if 0 < holdout_rows < window_len:
        raise ConfigError(
            f"ingest.holdout_fraction {ing['holdout_fraction']} holds out {holdout_rows} "
            f"rows, fewer than one window of ingest.window_length {window_len}"
        )
    split = len(values) - holdout_rows
    if split < window_len:
        raise ConfigError(
            "training split too short for the configured window length"
        )
    col_min, col_max = values[:split].min(axis=0), values[:split].max(axis=0)
    train_norm = ingest.normalize(values[:split], col_min, col_max)
    n_components = cfg["pca"]["n_components"]
    if n_components > len(columns):
        raise ConfigError(
            f"pca.n_components ({n_components}) exceeds the "
            f"{len(columns)} data columns"
        )
    model = pca.fit_pca(train_norm, n_components)

    factor = ing["downsample_factor"]

    def cut(rows: np.ndarray, labels: np.ndarray | None, shift: int):
        return ingest.downsample_median(
            *ingest.window(rows, labels, window_len, shift), factor
        )

    train_labels = None if labels is None else labels[trim : trim + split]
    sets = {
        "train": cut(pca.project(model, train_norm), train_labels, ing["train_shift"]),
        "train_raw": cut(train_norm, train_labels, window_len),
    }
    if holdout_rows:
        holdout_norm = ingest.normalize(values[split:], col_min, col_max)
        sets["holdout"] = cut(pca.project(model, holdout_norm), None, ing["test_shift"])
        sets["holdout_raw"] = cut(holdout_norm, None, ing["test_shift"])
    if test_csv:
        test_values, test_labels, _ = ingest.load_csv(test_csv, *schema)
        test_norm = ingest.normalize(test_values, col_min, col_max)
        sets["test"] = cut(pca.project(model, test_norm), test_labels, ing["test_shift"])
        sets["test_raw"] = cut(test_norm, test_labels, ing["test_shift"])

    bundle = _bundle_dir(cfg)
    ingest.save_window_bundle(
        bundle,
        sets,
        manifest_extra={
            "config_hash": config_hash(cfg),
            "window_length": window_len,
            "sequence_length": window_len // factor,
            "train_shift": ing["train_shift"],
            "test_shift": ing["test_shift"],
            "downsample_factor": factor,
            "downsample_order": "window-then-downsample",
            "columns": columns,
            "normalization": {"col_min": col_min.tolist(), "col_max": col_max.tolist()},
        },
    )
    model.save(bundle / "pca.json")
    return bundle


def run_train(cfg: dict) -> Path:
    """Train the adversarial pair on the bundled training windows."""
    train_windows = ingest.load_window_bundle(_bundle_dir(cfg))[0]["train_windows"]
    tc = training_config(cfg, sequence_length=train_windows.shape[1])
    checkpoint = _checkpoint_path(cfg)
    model = gan.train(tc, train_windows, checkpoint_dir=checkpoint.parent)
    gan.save_checkpoint(model, checkpoint)

    out = _out_dir(cfg)
    rows = []
    for epoch, (dl, gl) in enumerate(model.loss_history, start=1):
        mmd_val = ""
        if tc.mmd_every and epoch % tc.mmd_every == 0:
            idx = epoch // tc.mmd_every - 1
            if idx < len(model.mmd_history):
                mmd_val = _fmt(model.mmd_history[idx])
        rows.append([epoch, _fmt(dl), _fmt(gl), mmd_val])
    _write_csv(out / "history.csv", ["epoch", "d_loss", "g_loss", "mmd"], rows)
    if model.loss_history:
        svgplot.write_line_chart(
            out / "history.svg",
            {
                "d_loss": np.array([d for d, _ in model.loss_history]),
                "g_loss": np.array([g for _, g in model.loss_history]),
            },
            title="adversarial training losses",
        )
    if model.mmd_history:
        svgplot.write_line_chart(
            out / "mmd.svg",
            {"mmd": np.array(model.mmd_history)},
            title="generated-vs-real MMD per epoch",
        )
    return checkpoint


def run_generate(cfg: dict) -> Path:
    """Sample the trained generator and dump sequences for inspection."""
    model = gan.load_checkpoint(_checkpoint_path(cfg))
    count = cfg["generate"]["count"]
    seq_len = model.config.sequence_length
    z = gan.sample_latent(count, seq_len, model.config.latent_dim, rng=cfg["seed"])
    samples = gan.generate(model.generator, z)

    out = _out_dir(cfg)
    n_features = samples.shape[2]
    header = ["sample", "step"] + [f"f{j}" for j in range(n_features)]
    rows = []
    for i in range(count):
        for t in range(seq_len):
            rows.append([i, t] + [samples[i, t, j] for j in range(n_features)])
    path = out / "generated.csv"
    _write_csv(path, header, rows)

    bundle = _bundle_dir(cfg)
    if (bundle / "manifest.json").exists():
        real = ingest.load_window_bundle(bundle)[0]["train_windows"]
        series = {}
        for i in range(min(3, count)):
            series[f"generated_{i}"] = samples[i, :, 0]
        for i in range(min(3, real.shape[0])):
            series[f"real_{i}"] = real[i, :, 0]
        svgplot.write_line_chart(
            out / "generated_vs_real.svg", series,
            title="generated vs real windows (first projected component)",
        )
    return path


def _flatten_windows(windows: np.ndarray) -> np.ndarray:
    return windows.reshape(-1, windows.shape[2])


def _score_windows(model: gan.GanModel, windows: np.ndarray, inv_cfg):
    """Invert every window and collect per-timestep residuals and D scores."""
    results = inversion.invert_many(model.generator, windows, inv_cfg)
    recon = np.stack([r.reconstruction for r in results])
    component_residuals = np.abs(_flatten_windows(windows) - _flatten_windows(recon))
    summed = component_residuals.sum(axis=1)
    disc_out = lstm.forward_batch(model.discriminator, windows)[0]
    disc_flat = disc_out[..., 0].reshape(-1)
    return results, component_residuals, summed, disc_flat


def run_detect(cfg: dict) -> Path:
    """Invert, score and flag the bundled test windows."""
    arrays, manifest = ingest.load_window_bundle(_bundle_dir(cfg))
    if "test_windows" not in arrays:
        raise ConfigError("bundle has no test windows; configure paths.test_csv and re-ingest")
    model = gan.load_checkpoint(_checkpoint_path(cfg))
    pca_model = pca.PcaModel.load(_bundle_dir(cfg) / "pca.json")
    inv_cfg = inversion_config(cfg)
    lam = cfg["scoring"]["lambda"]

    tau = cfg["scoring"]["tau"]
    res_min = res_max = None
    holdout_windows = len(arrays["holdout_windows"]) if "holdout_windows" in arrays else 0
    if 0 < holdout_windows < MIN_HOLDOUT_WINDOWS:
        warnings.warn(f"only {holdout_windows} holdout windows set the residual scale and tau")
    if holdout_windows:
        hold_cfg = replace(inv_cfg, seed=inv_cfg.seed + 1_000_000)
        _, _, hold_res, hold_disc = _score_windows(model, arrays["holdout_windows"], hold_cfg)
        res_min, res_max = float(hold_res.min()), float(hold_res.max())
        _, hold_combined = scoring.anomaly_score(hold_res, hold_disc, lam, res_min, res_max)
        if tau is None:
            tau = scoring.calibrate_tau(hold_combined, cfg["scoring"]["target_fpr"])
    elif tau is None:
        raise ConfigError(
            "scoring.tau is unset and the bundle has no holdout windows to calibrate on"
        )

    results, comp_res, test_res, test_disc = _score_windows(model, arrays["test_windows"], inv_cfg)
    res_norm, combined = scoring.anomaly_score(test_res, test_disc, lam, res_min, res_max)
    flags = scoring.flag_anomalies(combined, tau)

    truth = arrays["test_labels"].reshape(-1) if "test_labels" in arrays else None
    out = _out_dir(cfg)
    rows = []
    for t in range(len(flags)):
        row = [
            t,
            test_res[t],
            res_norm[t],
            test_disc[t],
            combined[t],
            int(flags[t]),
        ]
        row.append(int(truth[t]) if truth is not None else "")
        rows.append(row)
    scores_path = out / "scores.csv"
    _write_csv(
        scores_path,
        ["index", "residual", "residual_norm", "disc_score", "combined", "flag", "truth"],
        rows,
    )

    per_var = scoring.per_variable_labels(comp_res, pca_model, tau)
    _write_csv(
        out / "per_variable_flags.csv",
        ["index"] + manifest["columns"],
        ([t] + [int(v) for v in per_var[t]] for t in range(per_var.shape[0])),
    )
    _write_csv(
        out / "inversion_diagnostics.csv",
        ["window", "error", "iterations"],
        ([i, r.error, r.iterations] for i, r in enumerate(results)),
    )
    (out / "detect_manifest.json").write_text(
        json.dumps(
            {
                "config_hash": config_hash(cfg),
                "holdout_windows": holdout_windows,
                "tau": tau,
                "lambda": lam,
                "residual_min": res_min,
                "residual_max": res_max,
                "test_windows": len(arrays["test_windows"]),
                "timesteps": int(len(flags)),
            },
            indent=2,
            sort_keys=True,
        )
    )
    svgplot.write_line_chart(
        out / "scores.svg",
        {"combined": combined, "flag": flags.astype(float)},
        title="combined anomaly score and flags",
    )
    return scores_path


def _read_scores_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(cell)
    flags = np.array([int(v) for v in cols["flag"]])
    truth = None
    if all(v != "" for v in cols["truth"]):
        truth = np.array([int(v) for v in cols["truth"]])
    return flags, truth


def run_evaluate(cfg: dict) -> Path:
    """Score GAN detection against the CUSUM and SPE baselines."""
    bundle = _bundle_dir(cfg)
    arrays, manifest = ingest.load_window_bundle(bundle)
    out = _out_dir(cfg)
    scores_path = out / "scores.csv"
    if not scores_path.exists():
        raise ConfigError(f"{scores_path} not found; run detect first")
    flags, truth = _read_scores_csv(scores_path)
    if truth is None:
        raise ConfigError("test stream has no ground-truth labels; cannot evaluate")
    enabled = [f"baselines.{name}" for name in ("cusum", "spe") if cfg["baselines"][name]]
    if enabled and "holdout_raw_windows" not in arrays:
        raise ConfigError(
            f"{' and '.join(enabled)}: the bundle has no holdout windows to set a threshold "
            "on; set ingest.holdout_fraction above 0 and re-ingest, or turn the baseline off"
        )

    report: dict = {"config_hash": config_hash(cfg), "methods": {}}
    report["methods"]["gan_ad"] = scoring.metrics(flags, truth)

    fpr = cfg["scoring"]["target_fpr"]
    columns = manifest["columns"]
    if cfg["baselines"]["cusum"]:
        train_rows = _flatten_windows(arrays["train_raw_windows"])
        holdout_rows = _flatten_windows(arrays["holdout_raw_windows"])
        test_rows = _flatten_windows(arrays["test_raw_windows"])
        per_variable = {}
        best_name, best = None, None
        for j, name in enumerate(columns):
            base = bl.fit_cusum_config(
                train_rows[:, j],
                k_sigmas=cfg["baselines"]["cusum_k_sigmas"],
                two_sided=cfg["baselines"]["cusum_two_sided"],
            )
            stat = bl.cusum_statistic(holdout_rows[:, j], base)
            threshold = max(scoring.threshold_for_fpr(stat, fpr), 1e-9)
            calibrated = replace(base, threshold=threshold)
            var_report = scoring.metrics(
                bl.cusum_detect(test_rows[:, j], calibrated), truth
            )
            per_variable[name] = {**var_report, "threshold": threshold}
            if best is None or var_report["f1"] > best["f1"]:
                best_name, best = name, var_report
        report["methods"]["cusum"] = {
            "per_variable": per_variable,
            "best_variable": best_name,
            "best": best,
        }

    if cfg["baselines"]["spe"]:
        pca_model = pca.PcaModel.load(bundle / "pca.json")
        holdout_rows = _flatten_windows(arrays["holdout_raw_windows"])
        test_rows = _flatten_windows(arrays["test_raw_windows"])
        threshold = scoring.threshold_for_fpr(pca.spe(pca_model, holdout_rows), fpr)
        spe_report = scoring.metrics(bl.spe_detect(pca_model, test_rows, threshold), truth)
        report["methods"]["spe"] = {**spe_report, "threshold": threshold}
        report["variance_ratios"] = pca.variance_ratios(pca_model).tolist()

    metrics_path = out / "metrics.json"
    metrics_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    return metrics_path


def run_all(cfg: dict) -> Path:
    """synth (when enabled) -> ingest -> train -> detect -> evaluate."""
    if cfg["synth"]["enabled"]:
        run_synth(cfg)
    run_ingest(cfg)
    run_train(cfg)
    run_detect(cfg)
    return run_evaluate(cfg)
