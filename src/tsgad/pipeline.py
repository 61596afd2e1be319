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
    save_scenario_csv(generate_scenario(scenario_spec(cfg, "train")), train_csv)
    save_scenario_csv(generate_scenario(scenario_spec(cfg, "test")), test_csv)
    return train_csv, test_csv


def _load_series(cfg: dict, path: str | Path) -> ingest.RawSeries:
    ing = cfg["ingest"]
    schema = ingest.CsvSchema(
        timestamp_column=ing["timestamp_column"],
        label_column=ing["label_column"],
        label_mapping=ing["label_mapping"],
        timestamp_format=ing["timestamp_format"],
    )
    return ingest.load_csv(path, schema)


def _project_series(series: ingest.RawSeries, model: pca.PcaModel) -> ingest.RawSeries:
    return ingest.RawSeries(
        timestamps=series.timestamps,
        values=pca.project(model, series.values),
        column_names=[f"pc_{i}" for i in range(model.n_components)],
        labels=series.labels,
    )


def _window_down(series: ingest.RawSeries, length: int, shift: int, factor: int):
    return ingest.downsample_median(ingest.window(series, length, shift), factor)


def run_ingest(cfg: dict) -> Path:
    """CSV -> normalized, PCA-projected, windowed dataset bundle."""
    ing = cfg["ingest"]
    train_csv, test_csv = _csv_paths(cfg)
    train_full = _load_series(cfg, train_csv)
    if ing["trim_rows"]:
        train_full = ingest.trim_startup(train_full, ing["trim_rows"])

    holdout_rows = int(round(train_full.n_rows * ing["holdout_fraction"]))
    window_len = ing["window_length"]
    if 0 < holdout_rows < window_len:
        raise ConfigError(
            f"ingest.holdout_fraction {ing['holdout_fraction']} holds out {holdout_rows} "
            f"rows, fewer than one window of ingest.window_length {window_len}"
        )
    split = train_full.n_rows - holdout_rows
    if split < window_len:
        raise ConfigError(
            "training split too short for the configured window length"
        )
    train_part = ingest.RawSeries(
        train_full.timestamps[:split],
        train_full.values[:split],
        list(train_full.column_names),
        None if train_full.labels is None else train_full.labels[:split],
    )
    holdout_part = None
    if holdout_rows:
        holdout_part = ingest.RawSeries(
            train_full.timestamps[split:],
            train_full.values[split:],
            list(train_full.column_names),
            None,
        )

    stats = ingest.fit_normalizer(train_part)
    train_norm = ingest.apply_normalizer(train_part, stats)
    n_components = cfg["pca"]["n_components"]
    if n_components > train_norm.n_columns:
        raise ConfigError(
            f"pca.n_components ({n_components}) exceeds the "
            f"{train_norm.n_columns} data columns"
        )
    model = pca.fit_pca(train_norm.values, n_components)

    factor = ing["downsample_factor"]
    sets: dict[str, ingest.WindowSet] = {
        "train": _window_down(
            _project_series(train_norm, model), window_len, ing["train_shift"], factor
        ),
        "train_raw": _window_down(train_norm, window_len, window_len, factor),
    }
    if holdout_part is not None:
        holdout_norm = ingest.apply_normalizer(holdout_part, stats)
        sets["holdout"] = _window_down(
            _project_series(holdout_norm, model), window_len, ing["test_shift"], factor
        )
        sets["holdout_raw"] = _window_down(holdout_norm, window_len, ing["test_shift"], factor)
    if test_csv:
        test_series = ingest.apply_normalizer(_load_series(cfg, test_csv), stats)
        sets["test"] = _window_down(
            _project_series(test_series, model), window_len, ing["test_shift"], factor
        )
        sets["test_raw"] = _window_down(test_series, window_len, ing["test_shift"], factor)

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
            "columns": list(train_part.column_names),
            "normalization": stats.to_dict(),
        },
    )
    model.save(bundle / "pca.json")
    return bundle


def run_train(cfg: dict) -> Path:
    """Train the adversarial pair on the bundled training windows."""
    sets, manifest = ingest.load_window_bundle(_bundle_dir(cfg))
    train_windows = sets["train"]
    tc = training_config(cfg, sequence_length=train_windows.window_length)
    checkpoint = _checkpoint_path(cfg)
    model = gan.train(tc, train_windows.windows, checkpoint_dir=checkpoint.parent)
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
        sets, _ = ingest.load_window_bundle(bundle)
        real = sets["train"].windows
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
    sets, manifest = ingest.load_window_bundle(_bundle_dir(cfg))
    if "test" not in sets:
        raise ConfigError("bundle has no test windows; configure paths.test_csv and re-ingest")
    model = gan.load_checkpoint(_checkpoint_path(cfg))
    pca_model = pca.PcaModel.load(_bundle_dir(cfg) / "pca.json")
    inv_cfg = inversion_config(cfg)
    lam = cfg["scoring"]["lambda"]

    tau = cfg["scoring"]["tau"]
    res_min = res_max = None
    holdout_windows = int(sets["holdout"].n_windows) if "holdout" in sets else 0
    if 0 < holdout_windows < MIN_HOLDOUT_WINDOWS:
        warnings.warn(f"only {holdout_windows} holdout windows set the residual scale and tau")
    if "holdout" in sets:
        hold_cfg = replace(inv_cfg, seed=inv_cfg.seed + 1_000_000)
        _, _, hold_res, hold_disc = _score_windows(model, sets["holdout"].windows, hold_cfg)
        res_min, res_max = float(hold_res.min()), float(hold_res.max())
        _, hold_combined = scoring.anomaly_score(hold_res, hold_disc, lam, res_min, res_max)
        if tau is None:
            tau = scoring.calibrate_tau(hold_combined, cfg["scoring"]["target_fpr"])
    elif tau is None:
        raise ConfigError(
            "scoring.tau is unset and the bundle has no holdout windows to calibrate on"
        )

    results, comp_res, test_res, test_disc = _score_windows(model, sets["test"].windows, inv_cfg)
    res_norm, combined = scoring.anomaly_score(test_res, test_disc, lam, res_min, res_max)
    flags = scoring.flag_anomalies(combined, tau)

    truth = sets["test"].labels.reshape(-1) if sets["test"].labels is not None else None
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
                "test_windows": int(sets["test"].n_windows),
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
    sets, manifest = ingest.load_window_bundle(bundle)
    out = _out_dir(cfg)
    scores_path = out / "scores.csv"
    if not scores_path.exists():
        raise ConfigError(f"{scores_path} not found; run detect first")
    flags, truth = _read_scores_csv(scores_path)
    if truth is None:
        raise ConfigError("test stream has no ground-truth labels; cannot evaluate")

    report: dict = {"config_hash": config_hash(cfg), "methods": {}}
    report["methods"]["gan_ad"] = scoring.metrics(flags, truth)

    fpr = cfg["scoring"]["target_fpr"]
    columns = manifest["columns"]
    if cfg["baselines"]["cusum"] and "holdout_raw" in sets:
        train_rows = _flatten_windows(sets["train_raw"].windows)
        holdout_rows = _flatten_windows(sets["holdout_raw"].windows)
        test_rows = _flatten_windows(sets["test_raw"].windows)
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

    if cfg["baselines"]["spe"] and "holdout_raw" in sets:
        pca_model = pca.PcaModel.load(bundle / "pca.json")
        holdout_rows = _flatten_windows(sets["holdout_raw"].windows)
        test_rows = _flatten_windows(sets["test_raw"].windows)
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
