"""Mapping test windows back into the generator's latent space.

The inversion minimizes :func:`objective`, one minus the per-column Pearson
correlation of the window and G(z) averaged over columns, over z by gradient
descent through the frozen generator, with backtracking step halving and a
configurable number of restarts.  The error is bounded and scale invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lstm

MAX_HALVINGS = 10


@dataclass
class InversionResult:
    latent: np.ndarray          # (length, latent_dim)
    error: float                # objective at the returned latent
    iterations: int             # accepted descent steps
    reconstruction: np.ndarray  # generator output at the returned latent


def objective(window: np.ndarray, recon: np.ndarray) -> tuple[float, np.ndarray]:
    """Inversion error of ``recon`` against ``window`` and its gradient in ``recon``.

    The error is 1 minus the per-column Pearson correlation of two
    equal-shape (timesteps, columns) windows averaged over columns, so it
    lies in [0, 2].  A constant column in either input correlates 0 and gets
    a zero gradient.
    """
    x = np.asarray(window, dtype=np.float64)
    y = np.asarray(recon, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("windows must be (timesteps >= 2, columns)")
    cols = x.shape[1]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    sx = np.sqrt(np.sum(xc * xc, axis=0))
    sy = np.sqrt(np.sum(yc * yc, axis=0))
    ok = (sx > 0.0) & (sy > 0.0)
    r = np.zeros(cols)
    denom = (sx * sy)[ok]
    r[ok] = np.sum(xc * yc, axis=0)[ok] / denom
    # d (1 - r_j) / d y[:, j] = r yc / sy^2 - xc / (sx sy)
    grad = np.zeros_like(y)
    grad[:, ok] = (r[ok] * yc[:, ok] / sy[ok] ** 2 - xc[:, ok] / denom) / cols
    return 1.0 - float(r.mean()), grad


def _descend(gen: lstm.StackedLstm, window: np.ndarray, z0: np.ndarray, settings: dict):
    """One gradient-descent run; returns None if the error turns non-finite."""
    z = z0.copy()
    recon, cache = lstm.forward_batch(gen, z[None])
    recon = recon[0]
    err, err_grad = objective(window, recon)
    if not np.isfinite(err):
        return None
    iterations = 0
    step = settings["learning_rate"]
    for _ in range(settings["max_iterations"]):
        if err <= settings["tolerance"]:
            break
        _, z_grads = lstm.backward_batch(gen, cache, err_grad[None])
        z_grad = z_grads[0]
        if not np.all(np.isfinite(z_grad)):
            return None
        accepted = False
        halvings = 0
        for halvings in range(MAX_HALVINGS + 1):
            z_try = z - step * z_grad
            recon_try, cache_try = lstm.forward_batch(gen, z_try[None])
            recon_try = recon_try[0]
            err_try, grad_try = objective(window, recon_try)
            if np.isfinite(err_try) and err_try < err:
                z, recon, cache = z_try, recon_try, cache_try
                err, err_grad = err_try, grad_try
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # no direction of improvement within the backtracking budget
        if halvings == 0:
            # clean acceptance: let the step grow back, capped at 50x the base rate
            step = min(step * 1.5, 50.0 * settings["learning_rate"])
        iterations += 1
    return InversionResult(latent=z, error=err, iterations=iterations, reconstruction=recon)


def invert(
    gen: lstm.StackedLstm, window: np.ndarray, settings: dict, seed: int
) -> InversionResult:
    """Best-of-restarts latent recovery for one test window.

    ``settings`` is the validated ``inversion`` config section; ``seed``
    draws the initial latent of every restart.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ValueError("window must be (timesteps, columns)")
    if window.shape[1] != gen.output_size:
        raise ValueError(
            f"window has {window.shape[1]} columns, generator emits {gen.output_size}"
        )
    rng = np.random.default_rng(seed)
    best: InversionResult | None = None
    for _ in range(settings["restarts"]):
        z0 = rng.standard_normal((window.shape[0], gen.input_size))
        result = _descend(gen, window, z0, settings)
        if result is None:
            continue
        if best is None or result.error < best.error:
            best = result
    if best is None:
        raise RuntimeError("all inversion restarts diverged")
    return best


def invert_many(
    gen: lstm.StackedLstm, windows: np.ndarray, settings: dict, seed: int
) -> list[InversionResult]:
    """Invert a batch of windows with the ``inversion`` config section
    ``settings``; window i uses seed ``seed + i``."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError("windows must be (count, timesteps, columns)")
    return [invert(gen, w, settings, seed + i) for i, w in enumerate(windows)]
