"""End-to-end orchestration behind the CLI commands.

Every artifact, the bundle manifest and both ``.npz`` files included, is
timestamp-free and path-free, so identical configs and seeds reproduce
byte-identical outputs in any output directory.
"""

from __future__ import annotations

import csv
import json
import warnings
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import baselines as bl
from . import gan, ingest, inversion, pca, scoring, svgplot
from .config import ConfigError, config_hash
from .synthetic import DECIMALS, generate_scenario

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


def _load_calibration_bundle(cfg: dict) -> tuple[dict[str, np.ndarray], dict, str]:
    """The bundle that detect and evaluate read, as
    :func:`~tsgad.ingest.load_window_bundle` returns it: both set their
    thresholds on its holdout windows, which a bundle ingested with no
    holdout lacks."""
    arrays, manifest, digest = ingest.load_window_bundle(_bundle_dir(cfg))
    if not {"holdout_windows", "holdout_raw_windows"} <= arrays.keys():
        raise ConfigError("bundle has no holdout windows; re-ingest")
    return arrays, manifest, digest


def _check_magnitudes(values: np.ndarray, column_names: list[str], path: str | Path) -> None:
    """Refuse a reading of ``values``, bound for ``path``, that is 2**63 or
    more in magnitude or not finite, naming its column."""
    # min and max allocate nothing, and a nan fails both comparisons
    if not values.size or (-(2.0**63) < values.min() and values.max() < 2.0**63):
        return
    out_of_range = ~(np.abs(values) < 2.0**63)
    if out_of_range.any():
        row, column = np.argwhere(out_of_range)[0]
        raise ConfigError(
            f"synth: column {column_names[column]!r} reaches {float(values[row, column])!r} at "
            f"row {row} of {path}; readings must stay below 2**63 in magnitude"
        )


def save_scenario_csv(
    values: np.ndarray, labels: np.ndarray, column_names: list[str], path: str | Path
) -> None:
    """Write a scenario in the CSV schema the ingest loader consumes.

    ``values`` is the float64 array of :func:`~tsgad.synthetic.generate_scenario`.
    The ``timestamp`` column holds the row index (0.0, 1.0, ...) and the
    ``label`` column ``Attack`` or ``Normal`` from the 0/1 ``labels``.

    Each reading is written as fixed-point text with
    :data:`~tsgad.synthetic.DECIMALS` digits after the point, the text of
    ``%.6f``, by :func:`~tsgad.ingest.write_fixed_point_csv`: numpy digit
    arithmetic on blocks of about :data:`~tsgad.ingest.FIXED_POINT_BLOCK_CELLS`
    numbers, not one ``%`` per cell.  The text is byte for byte ``%.6f``'s on
    every reading ``generate_scenario`` can emit: a value on the grid, and
    any double of magnitude from 2**33 to below 2**63, whose fraction times
    1e6 is exact.  A double below 2**33 off the grid can differ in its last
    digit at a decimal near-tie: ``0.0000025`` is written ``0.000002``,
    where ``%.6f`` writes ``0.000003``; no stage writes such a value.

    For a reading on the grid :func:`~tsgad.ingest.load_csv` returns the
    same double bit for bit: below 2**33 the text is the grid value the
    double is nearest to, and above it the text is off by at most 5e-7,
    less than half the spacing of the doubles there.  The text is half the
    size of the shortest round-trip text of a noisy reading, and faster to
    write and to parse.

    A reading of magnitude 2**63 or more, or one that is not finite, is
    refused with a :class:`~tsgad.config.ConfigError` naming its column,
    before the file is opened: its integer part does not fit the int64 the
    digits are computed in.
    """
    _check_magnitudes(values, column_names, path)
    ingest.write_fixed_point_csv(
        path, ["timestamp", *column_names, "label"], values, DECIMALS, labels,
        ("Normal", "Attack"),
    )


def run_synth(cfg: dict) -> tuple[Path, Path]:
    """Generate the normal training stream and the attacked test stream."""
    if not cfg["synth"]["enabled"]:
        raise ConfigError("synth.enabled is false; nothing to generate")
    train_csv, test_csv = _csv_paths(cfg)
    s, seed = cfg["synth"], cfg["seed"]
    train = generate_scenario(s["variables"], [], s["train_duration"], s["noise_sigma"], seed)
    # a fresh noise realization for the test stream
    test = generate_scenario(
        s["variables"], s["attacks"], s["test_duration"], s["noise_sigma"], seed + 1
    )
    # both streams are checked before either is written: a refused test
    # stream must not leave a new train.csv beside an old test.csv
    for (values, _, names), path in ((train, train_csv), (test, test_csv)):
        _check_magnitudes(values, names, path)
    save_scenario_csv(*train, train_csv)
    save_scenario_csv(*test, test_csv)
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
    holdout_norm = ingest.normalize(values[split:], col_min, col_max)
    # each plant matrix is held about once: a stage drops what no later one reads
    del values
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

    # no stage reads training labels; only the test set's are stored
    sets = {
        "train": cut(pca.project(model, train_norm), None, ing["train_shift"]),
        "train_raw": cut(train_norm, None, window_len),
        "holdout": cut(pca.project(model, holdout_norm), None, ing["test_shift"]),
        "holdout_raw": cut(holdout_norm, None, ing["test_shift"]),
    }
    del train_norm, holdout_norm
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
        del test_values
        sets["test"] = cut(pca.project(model, test_norm), test_labels, ing["test_shift"])
        sets["test_raw"] = cut(test_norm, None, ing["test_shift"])

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
    """Train the adversarial pair on the bundled training windows.

    The checkpoint records, as ``windows_sha256``, the SHA-256 of the
    ``windows.npz`` bytes those windows were read from, so that detect and
    evaluate refuse another bundle, one re-ingested during training too.
    """
    arrays, _, digest = ingest.load_window_bundle(_bundle_dir(cfg))
    train_windows = arrays["train_windows"]
    del arrays  # training reads no other set
    checkpoint = _checkpoint_path(cfg)
    model = gan.train(cfg["gan"], train_windows, cfg["seed"])
    model.windows_sha256 = digest
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
    """Invert every window and collect per-timestep residuals and D scores:
    ``(errors, iterations, component_residuals, summed, disc_flat)``, the
    first two per window and the others per timestep.  Like the inversion,
    the discriminator takes at most ``inversion.MAX_BATCH_ROWS`` windows
    at once."""
    # the tracer sizes invert_many by its second positional argument
    _, errors, iterations, recon = inversion.invert_many(model.generator, windows, settings, seed)
    component_residuals = np.abs(_flatten_windows(windows) - _flatten_windows(recon))
    summed = component_residuals.sum(axis=1)
    disc_out = inversion.forward_outputs(model.discriminator, windows)
    disc_flat = disc_out[..., 0].reshape(-1)
    return errors, iterations, component_residuals, summed, disc_flat


def run_detect(cfg: dict) -> Path:
    """Invert, score and flag the bundled test windows.

    The bundle must hold holdout windows: the residual scale, the threshold
    on the combined score and each variable's threshold in
    ``per_variable_flags.csv`` are taken from the scores of those normal
    windows, so that about ``scoring.target_fpr`` of them would be flagged.
    A checkpoint trained on another bundle's windows is refused: its
    ``windows_sha256`` must be the digest of the bundle's ``windows.npz``
    (the config hash would not do, as a changed CSV re-ingested under the
    same config keeps it).  Besides the threshold and the residual scale,
    ``detect_manifest.json`` records that digest, as ``windows_sha256``,
    for evaluate to check, and how well the generator reconstructs those
    normal windows: ``holdout_error_median``, the median of their inversion
    errors, and ``holdout_iterations_mean``, the mean of their Adam steps.
    """
    arrays, manifest, digest = _load_calibration_bundle(cfg)
    if "test_windows" not in arrays:
        raise ConfigError("bundle has no test windows; configure paths.test_csv and re-ingest")
    checkpoint = _checkpoint_path(cfg)
    if not checkpoint.is_file():
        raise ConfigError(f"{checkpoint} not found; run train first")
    model = gan.load_checkpoint(checkpoint)
    if model.windows_sha256 != digest:
        raise ConfigError(
            f"{checkpoint}: trained on windows.npz with sha256 {model.windows_sha256}, "
            f"the bundle's has {digest}; re-run train"
        )
    pca_model = pca.PcaModel.load(_bundle_dir(cfg) / "pca.json")
    inv = cfg["inversion"]
    lam = cfg["scoring"]["lambda"]
    target_fpr = cfg["scoring"]["target_fpr"]

    holdout_windows = len(arrays["holdout_windows"])
    if holdout_windows < MIN_HOLDOUT_WINDOWS:
        warnings.warn(
            f"only {holdout_windows} holdout windows set the residual scale and thresholds"
        )
    hold_errors, hold_iterations, hold_comp_res, hold_res, hold_disc = _score_windows(
        model, arrays["holdout_windows"], inv, cfg["seed"] + 1_000_000
    )
    res_min, res_max = float(hold_res.min()), float(hold_res.max())
    _, hold_combined = scoring.anomaly_score(hold_res, hold_disc, lam, res_min, res_max)
    threshold = scoring.threshold_for_fpr(hold_combined, target_fpr)

    errors, iterations, comp_res, test_res, test_disc = _score_windows(
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
        zip(range(len(errors)), errors.tolist(), iterations.tolist()),
    )
    (out / "detect_manifest.json").write_text(
        json.dumps(
            {
                "config_hash": config_hash(cfg),
                "holdout_error_median": float(np.median(hold_errors)),
                "holdout_iterations_mean": float(hold_iterations.mean()),
                "holdout_windows": holdout_windows,
                "lambda": lam,
                "residual_min": res_min,
                "residual_max": res_max,
                "test_windows": len(arrays["test_windows"]),
                "threshold": threshold,
                "timesteps": int(len(flags)),
                "windows_sha256": digest,
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
    ``1 - scoring.target_fpr`` quantile of its statistic on them.  Besides
    the flags' confusion counts, ``metrics.json`` holds the threshold-free
    :func:`~tsgad.scoring.ranking_metrics` of the ``residual``, 1 -
    ``disc_score`` and ``combined`` columns of ``scores.csv`` (under
    ``gan_ad.ranking``) and of the SPE statistic on the test rows (``spe``).
    The baselines scan the bundle's windows, so a ``scores.csv`` that detect
    wrote from another bundle is refused: the ``windows_sha256`` in
    ``detect_manifest.json`` must be the digest of the bundle's
    ``windows.npz``, as for the checkpoint in :func:`run_detect`.
    """
    bundle = _bundle_dir(cfg)
    arrays, manifest, digest = _load_calibration_bundle(cfg)
    out = _out_dir(cfg)
    scores_path = out / "scores.csv"
    detect_path = out / "detect_manifest.json"
    for path in (scores_path, detect_path):
        if not path.exists():
            raise ConfigError(f"{path} not found; run detect first")
    scored = json.loads(detect_path.read_text()).get("windows_sha256")
    if scored != digest:
        raise ConfigError(
            f"{scores_path}: detect scored windows.npz with sha256 {scored}, "
            f"the bundle's has {digest}; re-run detect"
        )
    with scores_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if any(row["truth"] == "" for row in rows):
        raise ConfigError("test stream has no ground-truth labels; cannot evaluate")
    flags = np.array([int(row["flag"]) for row in rows])
    truth = np.array([int(row["truth"]) for row in rows])

    def column(key: str) -> np.ndarray:
        return np.array([float(row[key]) for row in rows])

    report: dict = {"config_hash": config_hash(cfg), "methods": {}}
    report["methods"]["gan_ad"] = {
        **scoring.metrics(flags, truth),
        # -D ranks the rows as 1 - D does, without the ties rounding 1 - D makes
        "ranking": {
            name: scoring.ranking_metrics(stat, truth)
            for name, stat in (
                ("residual", column("residual")),
                ("one_minus_disc", -column("disc_score")),
                ("combined", column("combined")),
            )
        },
    }

    fpr = cfg["scoring"]["target_fpr"]
    train_rows = _flatten_windows(arrays["train_raw_windows"])
    holdout_rows = _flatten_windows(arrays["holdout_raw_windows"])
    test_rows = _flatten_windows(arrays["test_raw_windows"])
    # one chart per variable, all scanned at once
    mean, slack = bl.fit_cusum_config(train_rows)
    stat = bl.cusum_statistic(holdout_rows, mean, slack)
    thresholds = np.maximum(scoring.threshold_for_fpr(stat, fpr), 1e-9)
    cusum_flags = bl.cusum_detect(test_rows, mean, slack, thresholds)
    # no AUROC for CUSUM: its flags come from a scan that resets after each
    # alarm, not from a fixed statistic that a ranking could score
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
    report["methods"]["spe"] = {
        **spe_report,
        "threshold": threshold,
        **scoring.ranking_metrics(pca.spe(pca_model, test_rows), truth),
    }
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
