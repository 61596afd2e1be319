"""Reference detectors: two-sided tabular CUSUM (slack 0.5 sigma) and PCA/SPE
thresholding.

A CUSUM chart is given as plain arrays: the target mean and the slack per
step, each a float for one series or one entry per column (shape
``(columns,)``) for a ``(rows, columns)`` series, whose columns are then
charted side by side.  The decision limit is an argument of
:func:`cusum_detect` alone, shaped the same way.
"""

from __future__ import annotations

import numpy as np

from .pca import PcaModel, spe


def fit_cusum_config(training_values: np.ndarray):
    """Classic tabular settings estimated on the normal training slice, one
    series or each column of ``(rows, columns)``: ``(target_mean, slack)``,
    the mean and 0.5 sigma."""
    # each column is reduced as one contiguous row, so its sums round as a
    # single-column fit's do
    x = np.ascontiguousarray(np.asarray(training_values, dtype=np.float64).T)
    sigma = x.std(axis=-1)
    # a degenerate constant channel gets sigma 1, which keeps its chart well-defined
    sigma = np.where(sigma == 0.0, 1.0, sigma)
    return x.mean(axis=-1), 0.5 * sigma


def _cusum_scan(series: np.ndarray, mean, slack, threshold=None) -> np.ndarray:
    """max(S+, S-) per step, taken before any reset; given a ``threshold``,
    both accumulators of a column return to zero whenever that value
    exceeds it.

    One pass over the rows updates every column at once.  ``np.where`` keeps
    the scalar recurrence's IEEE arithmetic and its ``max``: ``max(0.0, s)``
    is ``s`` only when ``s > 0.0``, so a ``-0.0`` or nan sum becomes ``0.0``.
    """
    if np.any(np.asarray(slack) < 0):
        raise ValueError("slack must be >= 0")
    if threshold is not None and np.any(np.asarray(threshold) <= 0):
        raise ValueError("threshold must be > 0")
    x = np.asarray(series, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("series must be one series or (rows, columns)")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    rise = x - mean - slack
    fall = mean - x - slack
    stat = np.empty_like(x)
    s_hi = s_lo = np.zeros(x.shape[1:])
    for t in range(len(x)):
        s_hi = s_hi + rise[t]
        s_hi = np.where(s_hi > 0.0, s_hi, 0.0)
        s_lo = s_lo + fall[t]
        s_lo = np.where(s_lo > 0.0, s_lo, 0.0)
        peak = stat[t] = np.where(s_lo > s_hi, s_lo, s_hi)
        if threshold is not None:
            alarm = peak > threshold
            s_hi = np.where(alarm, 0.0, s_hi)
            s_lo = np.where(alarm, 0.0, s_lo)
    return stat


def cusum_statistic(series: np.ndarray, mean, slack) -> np.ndarray:
    """Accumulator trajectory max(S+, S-) without alarm resets, of one
    series or of each column of a ``(rows, columns)`` series.

    Used for threshold calibration: the alarm rule ``stat > h`` applied to
    this trajectory matches the first alarm of :func:`cusum_detect`.
    """
    return _cusum_scan(series, mean, slack)


def cusum_detect(series: np.ndarray, mean, slack, threshold) -> np.ndarray:
    """Flag timesteps where an accumulator strictly exceeds ``threshold``,
    in one series or in each column of a ``(rows, columns)`` series.

    Both accumulators reset to zero after an alarm, so alarms mark events
    rather than latching for the rest of the series.
    """
    return (_cusum_scan(series, mean, slack, threshold) > threshold).astype(np.int64)


def spe_detect(model: PcaModel, data: np.ndarray, threshold: float) -> np.ndarray:
    """Flag rows whose squared prediction error strictly exceeds the threshold."""
    return (spe(model, data) > threshold).astype(np.int64)
