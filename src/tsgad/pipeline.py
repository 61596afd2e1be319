"""End-to-end orchestration behind the CLI commands.

Every artifact, the bundle manifest and both ``.npz`` files included, is
timestamp-free and path-free, so identical configs and seeds reproduce
byte-identical outputs in any output directory.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import baselines as bl
from . import gan, ingest, inversion, lstm, pca, scoring, svgplot
from .config import ConfigError, config_hash, scenario_spec
from .synthetic import generate_scenario

# below this many holdout windows, one window can set the residual scale and every threshold
MIN_HOLDOUT_WINDOWS = 8


def _out_dir(cfg: dict) -> Path:
    return Path(cfg["paths"]["out_dir"])


def _bundle_dir(cfg: dict) -> Path:
    return _out_dir(cfg) / "bundle"


def _checkpoint_path(cfg: dict) -> Path:
    if cfg["paths"]["checkpoint"]:
        return Path(cfg["paths"]["checkpoint"])
    return _out_dir(cfg) / "checkpoints" / "final.npz"


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


def _load_calibration_bundle(cfg: dict) -> tuple[dict[str, np.ndarray], dict]:
    """The bundle that detect and evaluate read: both set their thresholds on
    its holdout windows, which a bundle ingested with no holdout lacks."""
    arrays, manifest = ingest.load_window_bundle(_bundle_dir(cfg))
    if not {"holdout_windows", "holdout_raw_windows"} <= arrays.keys():
        raise ConfigError("bundle has no holdout windows; re-ingest")
    return arrays, manifest


def save_scenario_csv(
    values: np.ndarray, labels: np.ndarray, column_names: list[str], path: str | Path
) -> None:
    """Write a scenario in the CSV schema the ingest loader consumes.

    ``values`` is the float64 array of :func:`~tsgad.synthetic.generate_scenario`.
    The ``timestamp`` column holds the row index (0.0, 1.0, ...) and the
    ``label`` column ``Attack`` or ``Normal`` from the 0/1 ``labels``.
    """
    rows = (
        [float(i), *row, "Attack" if label else "Normal"]
        for i, (row, label) in enumerate(zip(values.tolist(), labels.tolist()))
    )
    ingest.write_csv(path, ["timestamp", *column_names, "label"], rows)


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
    for key, path in (("paths.input_csv", train_csv), ("paths.test_csv", test_csv)):
        if path is not None and not path.is_file():
            raise ConfigError(f"{key}: no file {str(path)!r}")
    schema = [ing[k] for k in ("timestamp_column", "label_column", "label_mapping",
                               "timestamp_format")]
    values, _, columns = ingest.load_csv(train_csv, *schema)
    trim = ing["trim_rows"]
    if trim >= len(values):
        raise ConfigError(
            f"ingest.trim_rows {trim} leaves none of the {len(values)} rows of {train_csv}"
        )
    values = values[trim:]

    holdout_rows = int(round(len(values) * ing["holdout_fraction"]))
    window_len = ing["window_length"]
    if holdout_rows < window_len:
        raise ConfigError(
            f"ingest.holdout_fraction {ing['holdout_fraction']} holds out {holdout_rows} "
            f"rows, fewer than one window of ingest.window_length {window_len}"
        )
    split = len(values) - holdout_rows
    if split < window_len:
        raise ConfigError(
            f"ingest.holdout_fraction {ing['holdout_fraction']} and ingest.trim_rows {trim} "
            f"leave {split} rows of {train_csv} for training, fewer than one window of "
            f"ingest.window_length {window_len}"
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

    holdout_norm = ingest.normalize(values[split:], col_min, col_max)
    # no stage reads training labels; only the test set's are stored
    sets = {
        "train": cut(pca.project(model, train_norm), None, ing["train_shift"]),
        "train_raw": cut(train_norm, None, window_len),
        "holdout": cut(pca.project(model, holdout_norm), None, ing["test_shift"]),
        "holdout_raw": cut(holdout_norm, None, ing["test_shift"]),
    }
    if test_csv:
        test_values, test_labels, test_columns = ingest.load_csv(test_csv, *schema)
        if test_columns != columns:
            pairs = zip_longest(test_columns, columns, fillvalue="<missing>")
            got, want = next((t, c) for t, c in pairs if t != c)
            raise ConfigError(
                f"paths.test_csv {test_csv}: column {got!r} where the training CSV has {want!r}"
            )
        if len(test_values) < window_len:
            raise ConfigError(
                f"paths.test_csv {test_csv} has {len(test_values)} rows, fewer than one "
                f"window of ingest.window_length {window_len}"
            )
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
    checkpoint = _checkpoint_path(cfg)
    model = gan.train(cfg["gan"], train_windows, cfg["seed"])
    gan.save_checkpoint(model, checkpoint)

    out = _out_dir(cfg)
    history = model.history
    rows = ([epoch, h["d_loss"], h["g_loss"], h["mmd"]] for epoch, h in enumerate(history, 1))
    ingest.write_csv(out / "history.csv", ["epoch", "d_loss", "g_loss", "mmd"], rows)
    if history:
        svgplot.write_line_chart(
            out / "history.svg",
            {key: [h[key] for h in history] for key in ("d_loss", "g_loss")},
            title="adversarial training losses",
        )
        svgplot.write_line_chart(
            out / "mmd.svg", {"mmd": [h["mmd"] for h in history]},
            title="generated-vs-real MMD per epoch",
        )
    return checkpoint


def _flatten_windows(windows: np.ndarray) -> np.ndarray:
    return windows.reshape(-1, windows.shape[2])


def _score_windows(model: gan.GanModel, windows: np.ndarray, settings: dict, seed: int):
    """Invert every window and collect per-timestep residuals and D scores."""
    results = inversion.invert_many(model.generator, windows, settings, seed)
    recon = np.stack([r.reconstruction for r in results])
    component_residuals = np.abs(_flatten_windows(windows) - _flatten_windows(recon))
    summed = component_residuals.sum(axis=1)
    disc_out = lstm.forward_batch(model.discriminator, windows)[0]
    disc_flat = disc_out[..., 0].reshape(-1)
    return results, component_residuals, summed, disc_flat


def run_detect(cfg: dict) -> Path:
    """Invert, score and flag the bundled test windows.

    The bundle must hold holdout windows: the residual scale, the threshold
    on the combined score and each variable's threshold in
    ``per_variable_flags.csv`` are taken from the scores of those normal
    windows, so that about ``scoring.target_fpr`` of them would be flagged.
    """
    arrays, manifest = _load_calibration_bundle(cfg)
    if "test_windows" not in arrays:
        raise ConfigError("bundle has no test windows; configure paths.test_csv and re-ingest")
    checkpoint = _checkpoint_path(cfg)
    if not checkpoint.is_file():
        raise ConfigError(f"{checkpoint} not found; run train first")
    model = gan.load_checkpoint(checkpoint)
    pca_model = pca.PcaModel.load(_bundle_dir(cfg) / "pca.json")
    inv = cfg["inversion"]
    lam = cfg["scoring"]["lambda"]
    target_fpr = cfg["scoring"]["target_fpr"]

    holdout_windows = len(arrays["holdout_windows"])
    if holdout_windows < MIN_HOLDOUT_WINDOWS:
        warnings.warn(
            f"only {holdout_windows} holdout windows set the residual scale and thresholds"
        )
    _, hold_comp_res, hold_res, hold_disc = _score_windows(
        model, arrays["holdout_windows"], inv, cfg["seed"] + 1_000_000
    )
    res_min, res_max = float(hold_res.min()), float(hold_res.max())
    _, hold_combined = scoring.anomaly_score(hold_res, hold_disc, lam, res_min, res_max)
    threshold = scoring.threshold_for_fpr(hold_combined, target_fpr)

    results, comp_res, test_res, test_disc = _score_windows(
        model, arrays["test_windows"], inv, cfg["seed"]
    )
    res_norm, combined = scoring.anomaly_score(test_res, test_disc, lam, res_min, res_max)
    flags = (combined > threshold).astype(np.int64)

    if "test_labels" in arrays:
        truth = arrays["test_labels"].reshape(-1).tolist()
    else:
        truth = [""] * len(flags)
    out = _out_dir(cfg)
    scores_path = out / "scores.csv"
    ingest.write_csv(
        scores_path,
        ["index", "residual", "residual_norm", "disc_score", "combined", "flag", "truth"],
        zip(
            range(len(flags)),
            test_res.tolist(),
            res_norm.tolist(),
            test_disc.tolist(),
            combined.tolist(),
            flags.tolist(),
            truth,
        ),
    )

    per_var = scoring.per_variable_labels(hold_comp_res, comp_res, pca_model, target_fpr)
    ingest.write_csv(
        out / "per_variable_flags.csv",
        ["index"] + manifest["columns"],
        ([t, *row] for t, row in enumerate(per_var.tolist())),
    )
    ingest.write_csv(
        out / "inversion_diagnostics.csv",
        ["window", "error", "iterations"],
        ([i, r.error, r.iterations] for i, r in enumerate(results)),
    )
    (out / "detect_manifest.json").write_text(
        json.dumps(
            {
                "config_hash": config_hash(cfg),
                "holdout_windows": holdout_windows,
                "lambda": lam,
                "residual_min": res_min,
                "residual_max": res_max,
                "test_windows": len(arrays["test_windows"]),
                "threshold": threshold,
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


def run_evaluate(cfg: dict) -> Path:
    """Score GAN detection against the CUSUM and SPE baselines.

    The bundle must hold holdout windows: each baseline's threshold is the
    ``1 - scoring.target_fpr`` quantile of its statistic on them.
    """
    bundle = _bundle_dir(cfg)
    arrays, manifest = _load_calibration_bundle(cfg)
    out = _out_dir(cfg)
    scores_path = out / "scores.csv"
    if not scores_path.exists():
        raise ConfigError(f"{scores_path} not found; run detect first")
    # flags and truth come from one file, so a re-ingest after detect cannot
    # pair one run's flags with another run's labels
    with scores_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if any(row["truth"] == "" for row in rows):
        raise ConfigError("test stream has no ground-truth labels; cannot evaluate")
    flags = np.array([int(row["flag"]) for row in rows])
    truth = np.array([int(row["truth"]) for row in rows])

    report: dict = {"config_hash": config_hash(cfg), "methods": {}}
    report["methods"]["gan_ad"] = scoring.metrics(flags, truth)

    fpr = cfg["scoring"]["target_fpr"]
    train_rows = _flatten_windows(arrays["train_raw_windows"])
    holdout_rows = _flatten_windows(arrays["holdout_raw_windows"])
    test_rows = _flatten_windows(arrays["test_raw_windows"])
    # one chart per variable, all scanned at once
    base = bl.fit_cusum_config(train_rows)
    stat = bl.cusum_statistic(holdout_rows, base)
    thresholds = np.maximum(scoring.threshold_for_fpr(stat, fpr), 1e-9)
    cusum_flags = bl.cusum_detect(test_rows, replace(base, threshold=thresholds))
    per_variable = {}
    best_name, best = None, None
    for j, name in enumerate(manifest["columns"]):
        var_report = scoring.metrics(cusum_flags[:, j], truth)
        per_variable[name] = {**var_report, "threshold": float(thresholds[j])}
        if best is None or var_report["f1"] > best["f1"]:
            best_name, best = name, var_report
    report["methods"]["cusum"] = {
        "per_variable": per_variable,
        "best_variable": best_name,
        "best": best,
    }

    pca_model = pca.PcaModel.load(bundle / "pca.json")
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
