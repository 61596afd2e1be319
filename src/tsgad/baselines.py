"""Reference detectors: two-sided tabular CUSUM (slack 0.5 sigma) and PCA/SPE
thresholding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pca import PcaModel, spe


@dataclass
class CusumConfig:
    """Two-sided tabular CUSUM settings: target mean, slack per step and
    decision limit."""

    target_mean: float
    slack: float
    threshold: float

    def __post_init__(self):
        if self.slack < 0:
            raise ValueError("slack must be >= 0")
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")


def fit_cusum_config(training_values: np.ndarray) -> CusumConfig:
    """Classic tabular settings: slack 0.5 sigma, limit 5 sigma, estimated on
    the normal training slice."""
    x = np.asarray(training_values, dtype=np.float64)
    sigma = float(x.std())
    if sigma == 0.0:
        sigma = 1.0  # degenerate constant channel; keeps the chart well-defined
    return CusumConfig(target_mean=float(x.mean()), slack=0.5 * sigma, threshold=5.0 * sigma)


def _cusum_scan(series: np.ndarray, config: CusumConfig, reset: bool) -> np.ndarray:
    """max(S+, S-) per step, taken before any reset; with ``reset``, both
    accumulators return to zero whenever that value exceeds the threshold."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be univariate")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    mean, slack = config.target_mean, config.slack
    stat = []
    s_hi = 0.0
    s_lo = 0.0
    for value in x.tolist():  # Python floats: same IEEE arithmetic, faster loop
        s_hi = max(0.0, s_hi + (value - mean - slack))
        s_lo = max(0.0, s_lo + (mean - value - slack))
        peak = max(s_hi, s_lo)
        stat.append(peak)
        if reset and peak > config.threshold:
            s_hi = 0.0
            s_lo = 0.0
    return np.array(stat, dtype=np.float64)


def cusum_statistic(series: np.ndarray, config: CusumConfig) -> np.ndarray:
    """Accumulator trajectory max(S+, S-) without alarm resets.

    Used for threshold calibration: the alarm rule ``stat > h`` applied to
    this trajectory matches the first alarm of :func:`cusum_detect`.
    """
    return _cusum_scan(series, config, reset=False)


def cusum_detect(series: np.ndarray, config: CusumConfig) -> np.ndarray:
    """Flag timesteps where an accumulator strictly exceeds the threshold.

    Both accumulators reset to zero after an alarm, so alarms mark events
    rather than latching for the rest of the series.
    """
    return (_cusum_scan(series, config, reset=True) > config.threshold).astype(np.int64)


def spe_detect(model: PcaModel, data: np.ndarray, threshold: float) -> np.ndarray:
    """Flag rows whose squared prediction error strictly exceeds the threshold."""
    return (spe(model, data) > threshold).astype(np.int64)
