"""Output checks for one benchmark repetition, and the quality figures it yields.

:func:`check_outputs` reads the artifacts ``tsgad all`` leaves in ``out_dir``
and returns the problems it found (empty when everything holds), the
detection-quality numbers the benchmark reports, and the sha256 of the
artifacts that must be byte-identical across runs of one commit and seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

SCORES_COLUMNS = ["index", "residual", "residual_norm", "disc_score", "combined", "flag", "truth"]
HISTORY_COLUMNS = ["epoch", "d_loss", "g_loss", "mmd"]
DIAGNOSTICS_COLUMNS = ["window", "error", "iterations"]
# artifacts the pipeline documents as timestamp-free, hence byte-identical on rerun
HASHED = ("scores.csv", "metrics.json", "inversion_diagnostics.csv")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _confusion(flags: list[int], truth: list[int]) -> dict:
    """Recount the ``gan_ad`` report the way ``scoring.metrics`` defines it."""
    tp = sum(1 for f, t in zip(flags, truth) if f == 1 and t == 1)
    fp = sum(1 for f, t in zip(flags, truth) if f == 1 and t == 0)
    tn = sum(1 for f, t in zip(flags, truth) if f == 0 and t == 0)
    fn = sum(1 for f, t in zip(flags, truth) if f == 0 and t == 1)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn,
            "precision": precision, "recall": recall, "f1": f1}


def check_outputs(out_dir: Path, epochs: int, max_iterations: int) -> tuple[list[str], dict, dict]:
    """Check the artifacts of one ``tsgad all`` run trained for ``epochs``
    with at most ``max_iterations`` descent steps per inversion.

    Returns ``(problems, quality, hashes)``.
    """
    problems: list[str] = []
    required = [
        "scores.csv", "metrics.json", "inversion_diagnostics.csv", "per_variable_flags.csv",
        "detect_manifest.json", "history.csv", "scores.svg", "checkpoints/final.npz",
        "bundle/manifest.json", "bundle/windows.npz", "bundle/pca.json",
    ]
    if epochs > 0:
        required.append("history.svg")
    missing = [name for name in required if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"], {}, {}

    bundle = json.loads((out_dir / "bundle" / "manifest.json").read_text())
    detect = json.loads((out_dir / "detect_manifest.json").read_text())
    report = json.loads((out_dir / "metrics.json").read_text())
    test_windows = bundle["window_sets"]["test"]["count"]
    timesteps = test_windows * bundle["sequence_length"]

    header, rows = _read_csv(out_dir / "scores.csv")
    if header != SCORES_COLUMNS:
        problems.append(f"scores.csv columns {header} != {SCORES_COLUMNS}")
        return problems, {}, {}
    if len(rows) != timesteps or detect["timesteps"] != timesteps:
        problems.append(
            f"scores.csv has {len(rows)} rows and detect_manifest {detect['timesteps']} "
            f"timesteps; {test_windows} windows x {bundle['sequence_length']} steps = {timesteps}"
        )
    values = [float(c) for row in rows for c in row[1:5]]
    if not all(math.isfinite(v) for v in values):
        problems.append("scores.csv holds non-finite scores")
    flags = [int(row[5]) for row in rows]
    truth = [int(row[6]) for row in rows]
    if set(flags) - {0, 1} or set(truth) - {0, 1}:
        problems.append("scores.csv flag/truth columns are not 0/1")

    recount = _confusion(flags, truth)
    gan_ad = report["methods"]["gan_ad"]
    differing = {k: (v, gan_ad.get(k)) for k, v in recount.items() if gan_ad.get(k) != v}
    if differing:
        problems.append(f"metrics.json gan_ad disagrees with scores.csv recount: {differing}")

    header, rows = _read_csv(out_dir / "per_variable_flags.csv")
    if header != ["index"] + bundle["columns"] or len(rows) != timesteps:
        problems.append("per_variable_flags.csv columns or row count are wrong")

    header, rows = _read_csv(out_dir / "inversion_diagnostics.csv")
    errors = [float(row[1]) for row in rows]
    iterations = [int(row[2]) for row in rows]
    if header != DIAGNOSTICS_COLUMNS or len(rows) != test_windows:
        problems.append("inversion_diagnostics.csv columns or row count are wrong")
    elif not all(math.isfinite(e) and 0.0 <= e <= 2.0 for e in errors):
        problems.append("inversion errors outside [0, 2]")
    elif not all(0 <= i <= max_iterations for i in iterations):
        problems.append("inversion iteration counts outside [0, max_iterations]")

    header, rows = _read_csv(out_dir / "history.csv")
    if header != HISTORY_COLUMNS or len(rows) != epochs:
        problems.append("history.csv columns or row count are wrong")

    methods = report["methods"]
    missing_methods = {"gan_ad", "cusum", "spe"} - set(methods)
    if missing_methods:
        problems.append(f"metrics.json lacks methods {sorted(missing_methods)}")
        return problems, {}, {}
    quality = {
        "f1_gan_ad": gan_ad["f1"],
        "f1_spe": methods["spe"]["f1"],
        "f1_cusum_best": methods["cusum"]["best"]["f1"],
        "inversion_error_median": statistics.median(errors),
        "inversion_iterations_mean": statistics.fmean(iterations),
    }
    hashes = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in HASHED}
    return problems, quality, hashes
