"""Anomaly-score combination, thresholded flags and metrics.

The combined score S is a convex mix of the min-max-normalized reconstruction
residual and the probability-of-fake (1 - D); high S means more anomalous.
The flag rule is the cross-entropy test on the probability of being normal:
with p = 1 - S clipped into (eps, 1 - eps), timestep t is flagged iff
-log(p_t) > tau.  :func:`flag_anomalies` is its one implementation.
"""

from __future__ import annotations

import numpy as np

from .pca import PcaModel

CLAMP_EPS = 1e-7


def anomaly_score(
    residuals: np.ndarray,
    disc_scores: np.ndarray,
    lam: float,
    res_min: float,
    res_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Combine residual and discrimination evidence per timestep.

    ``disc_scores`` are raw discriminator outputs D(x) in (0, 1); the
    discrimination term becomes 1 - D(x).  Residuals are min-max normalized
    with ``res_min``/``res_max``, the residual range on the normal holdout
    windows, so the test set never sets its own scale; a residual outside
    that range maps outside [0, 1].  Returns the normalized residuals and the
    combined score lam * residual_norm + (1 - lam) * (1 - D).
    """
    res = np.asarray(residuals, dtype=np.float64)
    disc = np.asarray(disc_scores, dtype=np.float64)
    if res.shape != disc.shape or res.ndim != 1:
        raise ValueError("residuals and disc_scores must be equal-length vectors")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    span = res_max - res_min if res_max > res_min else 1.0
    res_norm = (res - res_min) / span
    return res_norm, lam * res_norm + (1.0 - lam) * (1.0 - disc)


def flag_anomalies(scores, tau: float) -> np.ndarray:
    """0/1 flags, of the same shape as ``scores``, from the flag rule."""
    p = np.clip(1.0 - np.asarray(scores, dtype=np.float64), CLAMP_EPS, 1.0 - CLAMP_EPS)
    return (-np.log(p) > tau).astype(np.int64)


def calibrate_tau(normal_scores: np.ndarray, target_fpr: float) -> float:
    """Pick tau so that roughly ``target_fpr`` of the given normal combined
    scores get flagged by :func:`flag_anomalies`."""
    if not 0.0 < target_fpr < 1.0:
        raise ValueError("target_fpr must lie strictly between 0 and 1")
    normality = 1.0 - np.asarray(normal_scores, dtype=np.float64)
    cut = float(np.quantile(normality, target_fpr))
    return float(-np.log(np.clip(cut, CLAMP_EPS, 1.0 - CLAMP_EPS)))


def threshold_for_fpr(normal_statistic, target_fpr: float) -> float:
    """Upper quantile of a detector statistic on held-out normal data."""
    if not 0.0 < target_fpr < 1.0:
        raise ValueError("target_fpr must lie strictly between 0 and 1")
    return float(np.quantile(np.asarray(normal_statistic, dtype=np.float64), 1.0 - target_fpr))


def metrics(predicted, truth) -> dict:
    """Confusion counts and the derived rates, as ``metrics.json`` holds them;
    zero-denominator rates are reported as 0 and listed in ``undefined``."""
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(truth, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError("predicted and truth must be equal-length vectors")
    if pred.size == 0:
        raise ValueError("empty label vectors")
    for name, labels in (("predicted", pred), ("truth", true)):
        if np.any((labels != 0) & (labels != 1)):
            raise ValueError(f"{name} labels must be 0 or 1, got {np.unique(labels).tolist()}")
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    tn = int(np.sum((pred == 0) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))

    undefined = []

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    precision = ratio(tp, tp + fp, "precision")
    recall = ratio(tp, tp + fn, "recall")
    if precision + recall == 0.0:
        undefined.append("f1")
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    fpr = ratio(fp, fp + tn, "fpr")
    return {
        "tp": tp,
        "fp": fp,
        "tn": tn,
        "fn": fn,
        "accuracy": (tp + tn) / pred.size,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "fpr": fpr,
        "undefined": undefined,
    }


def per_variable_labels(
    component_residuals: np.ndarray,
    model: PcaModel,
    tau: float,
) -> np.ndarray:
    """Attribute PC-space residuals back to original variables and flag them.

    The contribution of variable j at time t is sum_k |P[k, j]| * res[t, k].
    Contributions share one min-max scale across the whole matrix, then every
    entry goes through the flag rule at the same tau.
    """
    res = np.asarray(component_residuals, dtype=np.float64)
    if res.ndim != 2 or res.shape[1] != model.n_components:
        raise ValueError(
            f"component_residuals must be (timesteps x {model.n_components}), got {res.shape}"
        )
    contrib = np.abs(res) @ np.abs(model.loadings)
    lo, hi = float(contrib.min()), float(contrib.max())
    span = hi - lo if hi > lo else 1.0
    return flag_anomalies((contrib - lo) / span, tau)
