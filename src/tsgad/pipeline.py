"""End-to-end orchestration behind the CLI commands.

Every artifact, the bundle manifest and both ``.npz`` files included, is
timestamp-free and path-free, so identical configs and seeds reproduce
byte-identical outputs in any output directory.
"""

from __future__ import annotations

import json
import warnings
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import baselines as bl
from . import gan, ingest, inversion, pca, scoring, svgplot
from .config import ConfigError, config_hash
from .orderstats import median
from .synthetic import check_readings, generate_scenario, save_scenario_csv

# below this many holdout windows, one window can set the residual scale and every threshold
MIN_HOLDOUT_WINDOWS = 8
# index: the test-stream row each score is for
SCORES_HEADER = ["index", "residual", "residual_norm", "disc_score", "combined", "flag", "truth"]


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
    holdout lacks, and count the rows its test windows cover, which one
    ingested without ``paths.test_csv`` lacks."""
    arrays, manifest, digest = ingest.load_window_bundle(_bundle_dir(cfg))
    if "holdout_windows" not in arrays:
        raise ConfigError("bundle has no holdout windows; re-ingest")
    if "test_windows" not in arrays:
        raise ConfigError("bundle has no test windows; configure paths.test_csv and re-ingest")
    return arrays, manifest, digest


def _check_binding(path: Path, action: str, recorded, digest: str, cure: str) -> None:
    """Refuse ``path`` unless the bundle digest, as
    :func:`~tsgad.ingest.load_window_bundle` returns it, of the windows its
    stage ``action`` is the bundle's."""
    if recorded != digest:
        raise ConfigError(f"{path}: {action} windows with bundle digest {recorded}, "
                          f"the bundle's has {digest}; {cure}")


def run_synth(cfg: dict) -> tuple[Path, Path]:
    """Generate the normal training stream and the attacked test stream and
    write each with :func:`~tsgad.synthetic.save_scenario_csv`.  A reading
    that :func:`~tsgad.synthetic.check_readings` refuses, in either stream,
    is a :class:`~tsgad.config.ConfigError` before either file is written."""
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
    try:
        for (values, _, names), path in ((train, train_csv), (test, test_csv)):
            check_readings(values, names, path)
    except ValueError as exc:
        raise ConfigError(f"synth: {exc}") from None
    save_scenario_csv(*train, train_csv)
    save_scenario_csv(*test, test_csv)
    return train_csv, test_csv


def run_ingest(cfg: dict) -> Path:
    """CSV -> bundle of the normalized, PCA-projected, downsampled streams
    the GAN windows and the normalized, downsampled row tables the
    baselines scan."""
    ing = cfg["ingest"]
    train_csv, test_csv = _csv_paths(cfg)
    for key, path in (("paths.input_csv", train_csv), ("paths.test_csv", test_csv)):
        if path is not None and not path.is_file():
            raise ConfigError(f"{key}: no file {str(path)!r}")
    schema = [ing[k] for k in ("timestamp_column", "label_column", "label_mapping",
                               "timestamp_format")]

    def load(path: Path) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
        try:
            return ingest.load_csv(path, *schema)
        except ingest.NonNumericTimestamp as exc:
            raise ConfigError(
                f"{exc} (set ingest.timestamp_format for datetime strings)") from None

    values, _, columns = load(train_csv)
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
    # each plant matrix is held once: normalize, and then the PCA fit and
    # projections, rewrite the rows load_csv returned in place
    train_norm = ingest.normalize(values[:split], col_min, col_max)
    holdout_norm = ingest.normalize(values[split:], col_min, col_max)
    del values
    n_components = cfg["pca"]["n_components"]
    if n_components > len(columns):
        raise ConfigError(
            f"pca.n_components ({n_components}) exceeds the "
            f"{len(columns)} data columns"
        )
    factor = ing["downsample_factor"]
    length = window_len // factor

    def stream(rows: np.ndarray, shift: int, labels: np.ndarray | None = None):
        # each set is downsampled once; its windows start every shift / factor rows
        return (*ingest.downsample_median(rows, labels, factor), length, shift // factor)

    def table(rows: np.ndarray, shift: int) -> np.ndarray:
        # the rows the baselines scan, cut before the PCA centres ``rows``;
        # the cut copies them, as it must at factor 1
        return ingest.covered_rows(ingest.downsample_median(rows, None, factor)[0], length,
                                   shift // factor)

    # CUSUM fits on the rows of whole training windows at a step of one window
    tables = {"train_raw": table(train_norm, window_len),
              "holdout_raw": table(holdout_norm, ing["test_shift"])}
    model = pca.fit_pca(train_norm, n_components)
    # no stage reads training labels; only the test set's are stored.  The
    # fit left the training rows centred: their scores need no second centring
    sets = {
        "train": stream(train_norm @ model.loadings.T, ing["train_shift"]),
        "holdout": stream(pca.project(model, holdout_norm), ing["test_shift"]),
    }
    del train_norm, holdout_norm
    if test_csv:
        test_values, test_labels, test_columns = load(test_csv)
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
        tables["test_raw"] = table(test_norm, ing["test_shift"])
        sets["test"] = stream(pca.project(model, test_norm), ing["test_shift"], test_labels)

    bundle = _bundle_dir(cfg)
    ingest.save_window_bundle(
        bundle,
        sets,
        tables=tables,
        manifest_extra={
            "config_hash": config_hash(cfg),
            "window_length": window_len,
            "sequence_length": length,
            "train_shift": ing["train_shift"],
            "test_shift": ing["test_shift"],
            "downsample_factor": factor,
            "columns": columns,
            "normalization": {"col_min": col_min.tolist(), "col_max": col_max.tolist()},
        },
    )
    model.save(bundle / "pca.json")
    return bundle


def run_train(cfg: dict) -> Path:
    """Train the adversarial pair on the bundled training windows.

    The checkpoint records, as ``windows_sha256``, the digest of what those
    windows were cut from, as :func:`~tsgad.ingest.load_window_bundle`
    returns it, so that detect and evaluate refuse another bundle, one
    re-ingested during training too.
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
    return checkpoint


def run_detect(cfg: dict) -> Path:
    """Invert the bundled test windows, then score and flag the test-stream
    rows they cover.

    Each set's component residuals and D scores per window timestep are
    averaged, side by side, onto the stream rows its windows cover by one
    :func:`~tsgad.ingest.unwindow` call, so a row that overlapping windows
    share is scored once and a row between windows is not scored.  Per
    row, the residual is the component residuals' sum, and the combined
    score mixes it with the D score.  ``scores.csv`` holds one line per
    covered test row, ``index`` being that row of the test stream, as
    ``unwindow`` returns it, and ``truth`` its label in
    ``test_stream_labels``, as does ``per_variable_flags.csv``.

    The bundle must hold holdout windows: the residual scale, the threshold
    on the combined score and each variable's threshold in
    ``per_variable_flags.csv`` are taken from the scores of the holdout
    rows, so that about ``scoring.target_fpr`` of them would be flagged.
    The holdout and the test windows are inverted as one stack, holdout
    first, by one ``inversion.invert_many`` call: holdout window j from
    seed ``seed + 1_000_000 + j`` and test window i from ``seed + i``,
    where ``seed`` is the config's.  Each window keeps its own starts and
    Adam trajectory, so sharing batches with the other set moves its
    scores only by float32 rounding, which the descent can amplify.  The
    component residuals are |window - reconstruction| against the
    reconstructions the descent made.

    A checkpoint trained on another bundle's windows is refused: its
    ``windows_sha256`` must be the digest of the bundle's windows
    (the config hash would not do, as a changed CSV re-ingested under the
    same config keeps it).  Besides the threshold and the residual scale,
    ``detect_manifest.json`` records that digest, as ``windows_sha256``,
    for evaluate to check, and how well the generator reconstructs those
    normal windows: ``holdout_error_median``, the median of their inversion
    errors, and ``holdout_iterations_mean``, the mean of their Adam steps.
    """
    arrays, manifest, digest = _load_calibration_bundle(cfg)
    checkpoint = _checkpoint_path(cfg)
    if not checkpoint.is_file():
        raise ConfigError(f"{checkpoint} not found; run train first")
    model = gan.load_checkpoint(checkpoint)
    _check_binding(checkpoint, "trained on", model.windows_sha256, digest, "re-run train")
    pca_model = pca.PcaModel.load(_bundle_dir(cfg) / "pca.json")
    lam = cfg["scoring"]["lambda"]
    target_fpr = cfg["scoring"]["target_fpr"]

    holdout, test = arrays["holdout_windows"], arrays["test_windows"]
    holdout_windows = len(holdout)
    if holdout_windows < MIN_HOLDOUT_WINDOWS:
        warnings.warn(
            f"only {holdout_windows} holdout windows set the residual scale and thresholds"
        )
    seed = cfg["seed"]
    seeds = [seed + 1_000_000 + j for j in range(holdout_windows)]
    seeds += [seed + i for i in range(len(test))]
    windows = np.concatenate([holdout, test])
    # the tracer sizes invert_many by its second positional argument
    _, errors, iterations, recon = inversion.invert_many(model.generator, windows,
                                                         cfg["inversion"], seeds)
    disc = inversion.forward_outputs(model.discriminator, windows)
    # the holdout leads the stack; each set's scores go onto its stream
    # rows, the D score beside the component residuals
    scored = np.concatenate([np.abs(windows - recon), disc], axis=2)
    sets = manifest["window_sets"]
    _, hold_means = ingest.unwindow(scored[:holdout_windows], sets["holdout"]["step"])
    rows, test_means = ingest.unwindow(scored[holdout_windows:], sets["test"]["step"])
    (hold_comp, hold_disc), (test_comp, test_disc) = (
        (means[:, :-1], means[:, -1]) for means in (hold_means, test_means))
    hold_res, test_res = hold_comp.sum(axis=1), test_comp.sum(axis=1)
    res_min, res_max = float(hold_res.min()), float(hold_res.max())
    _, hold_combined = scoring.anomaly_score(hold_res, hold_disc, lam, res_min, res_max)
    threshold = scoring.threshold_for_fpr(hold_combined, target_fpr)
    res_norm, combined = scoring.anomaly_score(test_res, test_disc, lam, res_min, res_max)
    hold_errors, hold_iterations = errors[:holdout_windows], iterations[:holdout_windows]
    errors, iterations = errors[holdout_windows:], iterations[holdout_windows:]
    flags = (combined > threshold).astype(np.int64)

    labels = arrays.get("test_stream_labels")
    truth = [""] * len(rows) if labels is None else labels[rows].tolist()
    out = _out_dir(cfg)
    scores_path = out / "scores.csv"
    ingest.write_csv(
        scores_path,
        SCORES_HEADER,
        zip(
            rows.tolist(),
            test_res.tolist(),
            res_norm.tolist(),
            test_disc.tolist(),
            combined.tolist(),
            flags.tolist(),
            truth,
        ),
    )

    per_var = scoring.per_variable_labels(hold_comp, test_comp, pca_model, target_fpr)
    ingest.write_csv(
        out / "per_variable_flags.csv",
        ["index"] + manifest["columns"],
        ([t, *row] for t, row in zip(rows.tolist(), per_var.tolist())),
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
                "holdout_error_median": median(hold_errors),
                "holdout_iterations_mean": float(hold_iterations.mean()),
                "holdout_windows": holdout_windows,
                "lambda": lam,
                "residual_min": res_min,
                "residual_max": res_max,
                "test_windows": len(test),
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


def _read_scores(path: Path, test_rows: int) -> dict[str, np.ndarray]:
    """The columns of detect's ``scores.csv`` but ``index`` by name, ``flag``
    and ``truth`` as integers and the scores as floats, read by
    :func:`ingest.load_csv` with ``index`` as the timestamp column and
    ``truth`` as the label column, whose empty cells read as -1.  A file
    whose ``truth`` column is all empty, detect's mark of a test stream
    without labels, is refused, and as damaged one that ``load_csv``
    refuses (an ``index`` that is not strictly increasing included) or that
    is not the score columns of :data:`SCORES_HEADER` over ``test_rows``
    rows, with every ``flag`` 0 or 1 and no ``truth`` empty."""
    try:
        values, truth, names = ingest.load_csv(path, "index", "truth", {"0": 0, "1": 1, "": -1})
    except ConfigError as exc:
        reason = str(exc).removeprefix(f"{path}: ")
    else:
        columns = dict(zip(names, values.T))
        if names != SCORES_HEADER[1:-1]:
            reason = f"score columns {names} where detect writes {SCORES_HEADER[1:-1]}"
        elif len(truth) != test_rows:
            reason = f"{len(truth)} rows for the bundle's {test_rows} test rows"
        elif not np.isin(columns["flag"], (0, 1)).all():
            row = int(np.argmin(np.isin(columns["flag"], (0, 1))))
            reason = f"row {row + 2} has flag {columns['flag'][row]}, not 0 or 1"
        elif (truth == -1).all():
            raise ConfigError("test stream has no ground-truth labels; cannot evaluate")
        elif (truth == -1).any():
            row = int(np.argmax(truth == -1))
            reason = f"row {row + 2} has an empty truth among labelled rows"
        else:
            return {**columns, "flag": columns["flag"].astype(np.int64), "truth": truth}
    raise ConfigError(f"{path}: damaged ({reason}); re-run detect")


def run_evaluate(cfg: dict) -> Path:
    """Score GAN detection against the CUSUM and SPE baselines.

    Every method is counted on the rows of ``scores.csv``, the test-stream
    rows that the test windows cover, each once.  The baselines read no
    windows: they scan the bundle's row tables ``train_raw``,
    ``holdout_raw`` and ``test_raw`` in time order, and a bundle that lacks
    one is refused as damaged.  CUSUM's mean and slack are fitted on
    ``train_raw``.  The bundle must hold holdout windows:
    each baseline's threshold is the ``1 - scoring.target_fpr`` quantile of
    its statistic on ``holdout_raw``.  Besides
    the flags' confusion counts, ``metrics.json`` holds the threshold-free
    :func:`~tsgad.scoring.ranking_metrics` of the ``residual``, 1 -
    ``disc_score`` and ``combined`` columns of ``scores.csv`` (under
    ``gan_ad.ranking``) and of the SPE statistic on the test rows (``spe``).
    The baselines scan the bundle's row tables, so a ``scores.csv`` that detect
    wrote from another bundle is refused: the ``windows_sha256`` in
    ``detect_manifest.json`` must be the digest of the bundle's windows,
    as for the checkpoint in :func:`run_detect`, and a
    damaged ``detect_manifest.json`` or ``scores.csv`` too: a ``scores.csv``
    whose ``index`` does not strictly increase is damaged.
    """
    bundle = _bundle_dir(cfg)
    arrays, manifest, digest = _load_calibration_bundle(cfg)
    try:
        train_rows, holdout_rows, test_rows = (
            arrays[name] for name in ("train_raw", "holdout_raw", "test_raw"))
    except KeyError as exc:
        raise ConfigError(f"{bundle / 'windows.npz'}: damaged (no {exc.args[0]} row table); "
                          "re-run ingest") from None
    out = _out_dir(cfg)
    scores_path = out / "scores.csv"
    detect_path = out / "detect_manifest.json"
    for path in (scores_path, detect_path):
        if not path.exists():
            raise ConfigError(f"{path} not found; run detect first")
    detect = ingest.read_json_object(detect_path, "re-run detect")
    _check_binding(scores_path, "detect scored", detect.get("windows_sha256"), digest,
                   "re-run detect")
    scores = _read_scores(scores_path, len(test_rows))
    truth = scores["truth"]

    report: dict = {"config_hash": config_hash(cfg), "methods": {}}
    report["methods"]["gan_ad"] = {
        **scoring.metrics(scores["flag"], truth),
        # -D ranks the rows as 1 - D does, without the ties rounding 1 - D makes
        "ranking": {
            name: scoring.ranking_metrics(stat, truth)
            for name, stat in (
                ("residual", scores["residual"]),
                ("one_minus_disc", -scores["disc_score"]),
                ("combined", scores["combined"]),
            )
        },
    }

    fpr = cfg["scoring"]["target_fpr"]
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
