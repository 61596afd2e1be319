"""Anomaly-score combination, thresholded flags and metrics.

The combined score S is a convex mix of the min-max-normalized reconstruction
residual and the probability-of-fake (1 - D); high S means more anomalous.
Every flag has one rule: a statistic above :func:`threshold_for_fpr`, its
``1 - target_fpr`` quantile on held-out normal data.  The four users are S,
the SPE and CUSUM baselines and each variable of :func:`per_variable_labels`.
For S this is the cross-entropy test on the probability of being normal
p = 1 - S, -ln(1 - S) > -ln(1 - threshold), written directly: -ln(1 - S)
increases with S.  A test that clips p into [1e-7, 1 - 1e-7] differs only at
the clip: when the holdout quantile is at or above 1 - 1e-7 it flags nothing,
where S > threshold flags every S above it, and likewise when the quantile
is at or below 1e-7 it misses S in (threshold, 1e-7].
"""

from __future__ import annotations

import numpy as np

from .pca import PcaModel


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


def threshold_for_fpr(normal_statistic, target_fpr: float) -> float | np.ndarray:
    """Upper quantile of a detector statistic on held-out normal data.

    A statistic of shape (rows,) gives one float; one of shape (rows,
    columns) gives an array of one threshold per column.
    """
    if not 0.0 < target_fpr < 1.0:
        raise ValueError("target_fpr must lie strictly between 0 and 1")
    cut = np.quantile(np.asarray(normal_statistic, dtype=np.float64), 1.0 - target_fpr, axis=0)
    return cut if cut.ndim else float(cut)


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
    holdout_residuals: np.ndarray,
    test_residuals: np.ndarray,
    model: PcaModel,
    target_fpr: float,
) -> np.ndarray:
    """Attribute PC-space residuals back to original variables and flag them.

    The contribution of variable j at time t is sum_k |P[k, j]| * |res[t, k]|.
    A test contribution is flagged when it exceeds the ``1 - target_fpr``
    quantile of the same variable's contributions on the holdout residuals,
    so each variable flags at most about ``target_fpr`` of its holdout cells.
    """
    contrib = {}
    for name, res in (("holdout", holdout_residuals), ("test", test_residuals)):
        res = np.asarray(res, dtype=np.float64)
        if res.ndim != 2 or res.shape[1] != model.n_components:
            raise ValueError(
                f"{name} residuals must be (timesteps x {model.n_components}), got {res.shape}"
            )
        contrib[name] = np.abs(res) @ np.abs(model.loadings)
    return (contrib["test"] > threshold_for_fpr(contrib["holdout"], target_fpr)).astype(np.int64)
