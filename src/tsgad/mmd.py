"""Unbiased maximum mean discrepancy between generated and reference samples.

The kernel is the RBF kernel exp(-||a-b||^2 / (2 sigma^2)).  Its bandwidth
sigma is an argument, so a caller that fixes it once (for example with
``median_heuristic`` on the reference set) gets values comparable across calls.
"""

from __future__ import annotations

import numpy as np

from .orderstats import median


def _flatten(samples: np.ndarray) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    return arr.reshape(arr.shape[0], -1)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b, floored at 0 against roundoff
    d = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.maximum(d, 0.0)


def median_heuristic(samples: np.ndarray) -> float:
    """Median pairwise Euclidean distance within a sample set.

    Zero distances are excluded; if every pair coincides the fallback is 1.0.
    """
    flat = _flatten(samples)
    if flat.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    d = np.sqrt(_sq_dists(flat, flat))
    upper = d[np.triu_indices(flat.shape[0], k=1)]
    nonzero = upper[upper > 0.0]
    if nonzero.size == 0:
        return 1.0
    return median(nonzero)


def mmd_unbiased(
    gen_set: np.ndarray,
    ref_set: np.ndarray,
    bandwidth: float,
) -> float:
    """Three-term unbiased MMD^2 estimate between two sample sets.

    Sequences (sets of matrices) are flattened to vectors before kernel
    evaluation.  The estimate may be slightly negative for same-distribution
    sets.
    """
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    g = _flatten(gen_set)
    r = _flatten(ref_set)
    n, m = g.shape[0], r.shape[0]
    if n < 2 or m < 2:
        raise ValueError("need at least 2 samples on each side")
    if g.shape[1] != r.shape[1]:
        raise ValueError(
            f"sample length mismatch: {g.shape[1]} vs {r.shape[1]}"
        )

    two_sigma_sq = 2.0 * float(bandwidth) ** 2
    k_gg = np.exp(-_sq_dists(g, g) / two_sigma_sq)
    k_rr = np.exp(-_sq_dists(r, r) / two_sigma_sq)
    k_gr = np.exp(-_sq_dists(g, r) / two_sigma_sq)

    term_gg = (k_gg.sum() - np.trace(k_gg)) / (n * (n - 1))
    term_rr = (k_rr.sum() - np.trace(k_rr)) / (m * (m - 1))
    term_gr = 2.0 * k_gr.sum() / (m * n)
    return float(term_gg - term_gr + term_rr)
