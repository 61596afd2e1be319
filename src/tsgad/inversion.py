"""Mapping test windows back into the generator's latent space.

The inversion minimizes :func:`objective`, one minus the per-column Pearson
correlation of the window and G(z) averaged over columns, over z by gradient
descent through the frozen generator, with backtracking step halving and a
configurable number of restarts.  The error is bounded and scale invariant.

All restarts of one window descend together as one (restarts, L, latent)
batch, each row under its own step and stop rule, and the backward pass
forms input gradients only.  float32 rounds a batch of R rows differently
from R batches of one, so with several restarts a window's result can differ
by rounding from descending the restarts one at a time; with one restart it
is bitwise the same.
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


def _take(cache: tuple, rows: np.ndarray) -> tuple:
    """The ``forward_batch`` cache of the given batch rows only."""
    layers, outputs = cache
    return [tuple(a[rows] for a in layer) for layer in layers], outputs[rows]


def _splice(cache: tuple, rows: np.ndarray, trial: tuple, picks: np.ndarray) -> None:
    """Overwrite batch rows ``rows`` of ``cache`` with rows ``picks`` of ``trial``."""
    for layer, trial_layer in zip(cache[0], trial[0]):
        for a, b in zip(layer, trial_layer):
            a[rows] = b[picks]
    cache[1][rows] = trial[1][picks]


def _descend(gen: lstm.StackedLstm, window: np.ndarray, z0: np.ndarray, settings: dict):
    """Gradient descent from every restart row of ``z0`` (restarts, L, latent) as one batch.

    Each row follows the one-row rule on its own: it stops at ``tolerance``,
    after ``max_iterations`` accepted steps, or when ``MAX_HALVINGS``
    halvings of its step find no lower error; a clean first-try acceptance
    grows its step by 1.5, capped at 50 times ``learning_rate``.  The batch
    holds only the rows still descending, and a backtracking retry forwards
    only the rows still searching.  Returns ``(latents, reconstructions,
    errors, iterations)`` per row, with a nan error for a row whose error or
    gradient turned non-finite.
    """
    lr, tol = settings["learning_rate"], settings["tolerance"]
    z = z0.copy()
    recons, cache = lstm.forward_batch(gen, z)
    errors = np.empty(len(z))
    err_grads = np.empty(recons.shape)
    for r, rec in enumerate(recons):
        errors[r], err_grads[r] = objective(window, rec)
    steps = np.full(len(z), lr)
    iterations = np.zeros(len(z), dtype=int)
    errors[~np.isfinite(errors)] = np.nan
    run = np.flatnonzero(~np.isnan(errors))  # rows still descending, in cache order
    if len(run) < len(z):
        cache = _take(cache, run)
    for _ in range(settings["max_iterations"]):
        keep = errors[run] > tol
        if not keep.all():
            run, cache = run[keep], _take(cache, keep)
        if not len(run):
            break
        _, z_grads = lstm.backward_batch(gen, cache, err_grads[run], weights=False)
        finite = np.isfinite(z_grads).all(axis=(1, 2))
        if not finite.all():
            errors[run[~finite]] = np.nan
            run, cache, z_grads = run[finite], _take(cache, finite), z_grads[finite]
            if not len(run):
                break
        search = np.arange(len(run))  # cache positions of the rows still backtracking
        for halvings in range(MAX_HALVINGS + 1):
            rows = run[search]
            # the step in the gradient's dtype, as numpy applies a Python float
            # step, so one restart repeats the one-row arithmetic bitwise
            step = steps[rows].astype(z_grads.dtype)[:, None, None]
            z_try = z[rows] - step * z_grads[search]
            recon_try, cache_try = lstm.forward_batch(gen, z_try)
            accept = np.zeros(len(rows), dtype=bool)
            for k, r in enumerate(rows):
                err_try, grad_try = objective(window, recon_try[k])
                if np.isfinite(err_try) and err_try < errors[r]:
                    accept[k] = True
                    z[r], recons[r], errors[r] = z_try[k], recon_try[k], err_try
                    err_grads[r] = grad_try
            iterations[rows[accept]] += 1
            if halvings == 0:
                # clean acceptance: let the step grow back, capped at 50x the base rate
                steps[rows[accept]] = np.minimum(steps[rows[accept]] * 1.5, 50.0 * lr)
            if halvings == 0 and accept.all():
                cache = cache_try
            else:
                _splice(cache, search[accept], cache_try, np.flatnonzero(accept))
            steps[rows[~accept]] *= 0.5
            search = search[~accept]
            if not len(search):
                break
        if len(search):
            # no direction of improvement within the backtracking budget
            keep = np.ones(len(run), dtype=bool)
            keep[search] = False
            run, cache = run[keep], _take(cache, keep)
    return z, recons, errors, iterations


def invert(
    gen: lstm.StackedLstm, window: np.ndarray, settings: dict, seed: int
) -> InversionResult:
    """Best-of-restarts latent recovery for one test window.

    ``settings`` is the validated ``inversion`` config section; ``seed``
    draws the initial latent of every restart, restart r taking the r-th
    draw.  All restarts descend as one batch.  The returned reconstruction
    equals ``forward_batch(gen, latent[None])`` exactly: with more than one
    restart it and the error come from a batch-1 forward pass of the winning
    latent, because float32 rounds a larger batch differently.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ValueError("window must be (timesteps, columns)")
    if window.shape[1] != gen.output_size:
        raise ValueError(
            f"window has {window.shape[1]} columns, generator emits {gen.output_size}"
        )
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal((settings["restarts"], window.shape[0], gen.input_size))
    latents, recons, errors, iterations = _descend(gen, window, z0, settings)
    if np.isnan(errors).all():
        raise RuntimeError("all inversion restarts diverged")
    best = int(np.nanargmin(errors))
    recon, error = recons[best], float(errors[best])
    if len(z0) > 1:
        recon = lstm.forward_batch(gen, latents[best][None])[0][0]
        error = objective(window, recon)[0]
    return InversionResult(
        latent=latents[best], error=error, iterations=int(iterations[best]), reconstruction=recon
    )


def invert_many(
    gen: lstm.StackedLstm, windows: np.ndarray, settings: dict, seed: int
) -> list[InversionResult]:
    """Invert a batch of windows with the ``inversion`` config section
    ``settings``; window i uses seed ``seed + i``."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError("windows must be (count, timesteps, columns)")
    return [invert(gen, w, settings, seed + i) for i, w in enumerate(windows)]
