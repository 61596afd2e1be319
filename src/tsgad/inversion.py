"""Mapping test windows back into the generator's latent space.

The inversion minimizes :func:`objective`, one minus the per-column Pearson
correlation of the window and G(z) averaged over columns, over z by gradient
descent through the frozen generator, with backtracking step halving and a
configurable number of restarts.  The error is bounded and scale invariant.

:func:`invert` takes a stack of N windows and descends all of its N x R
restarts (R = ``restarts``) together, as one (N R, L, latent) batch laid out
window by window: rows ``i R .. i R + R - 1`` are the restarts of window i,
drawn as the first R (L, latent) draws of ``default_rng(seed + i)``.  Each
row descends towards its own window under its own step and stop rule, and
the backward pass forms input gradients only.  At most
:data:`MAX_BATCH_ROWS` rows descend in one batch, so the LSTM caches of a
large test set stay bounded.  float32 rounds a batch of B rows differently
from B batches of one, so a window's result can differ by rounding from
inverting it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lstm

MAX_HALVINGS = 10
# rows (windows x restarts) per descent batch; bounds the LSTM cache memory
MAX_BATCH_ROWS = 512


@dataclass
class InversionResult:
    latent: np.ndarray          # (length, latent_dim)
    error: float                # objective at the returned latent
    iterations: int             # accepted descent steps
    reconstruction: np.ndarray  # generator output at the returned latent


def objective(window: np.ndarray, recon: np.ndarray):
    """Inversion error of ``recon`` against ``window`` and its gradient in ``recon``.

    The error is 1 minus the per-column Pearson correlation of two
    equal-shape (timesteps, columns) windows averaged over columns, so it
    lies in [0, 2].  A constant column in either input correlates 0 and gets
    a zero gradient.  Two (timesteps, columns) inputs give ``(float, grad)``;
    two (batch, timesteps, columns) stacks give ``(errors, grads)`` with one
    error per batch row, each equal to the 2-D call on that row.
    """
    x = np.asarray(window, dtype=np.float64)
    y = np.asarray(recon, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim not in (2, 3) or x.shape[-2] < 2:
        raise ValueError("windows must be ([batch,] timesteps >= 2, columns)")
    cols = x.shape[-1]
    xc = x - x.mean(axis=-2, keepdims=True)
    yc = y - y.mean(axis=-2, keepdims=True)
    sx = np.sqrt(np.sum(xc * xc, axis=-2, keepdims=True))
    sy = np.sqrt(np.sum(yc * yc, axis=-2, keepdims=True))
    ok = (sx > 0.0) & (sy > 0.0)
    # a constant column divides by 1 and is then zeroed, so it warns of nothing
    sy = np.where(ok, sy, 1.0)
    denom = np.where(ok, sx * sy, 1.0)
    r = np.where(ok, np.sum(xc * yc, axis=-2, keepdims=True) / denom, 0.0)
    # d (1 - r_j) / d y[:, j] = r yc / sy^2 - xc / (sx sy)
    grad = np.where(ok, (r * yc / sy**2 - xc / denom) / cols, 0.0)
    errors = 1.0 - r.mean(axis=(-2, -1))
    return (float(errors), grad) if x.ndim == 2 else (errors, grad)


def _take(cache: tuple, rows: np.ndarray) -> tuple:
    """The ``forward_batch`` cache of the given batch rows only.

    ``rows`` is a boolean mask or an index array.  The per-layer arrays hold
    the batch on their last axis and the outputs on their first; ``take``
    keeps each step's block of a per-layer array contiguous.
    """
    layers, outputs = cache
    if rows.dtype == bool:
        rows = np.flatnonzero(rows)
    return [tuple(a.take(rows, axis=-1) for a in layer) for layer in layers], outputs[rows]


def _splice(cache: tuple, rows: np.ndarray, trial: tuple, picks: np.ndarray) -> None:
    """Overwrite batch rows ``rows`` of ``cache`` with rows ``picks`` of ``trial``."""
    for layer, trial_layer in zip(cache[0], trial[0]):
        for a, b in zip(layer, trial_layer):
            a[..., rows] = b[..., picks]
    cache[1][rows] = trial[1][picks]


def _descend(gen: lstm.StackedLstm, windows: np.ndarray, z0: np.ndarray, settings: dict):
    """Gradient descent from every row of ``z0`` (rows, L, latent) as one batch.

    Row k descends towards ``windows[k]`` and follows the one-row rule on
    its own: it stops at ``tolerance``, after ``max_iterations`` accepted
    steps, or when ``MAX_HALVINGS`` halvings of its step find no lower
    error; a clean first-try acceptance grows its step by 1.5, capped at 50
    times ``learning_rate``.  The batch holds only the rows still
    descending, and a backtracking retry forwards only the rows still
    searching.  Returns ``(latents, errors, iterations)`` per row, with a
    nan error for a row whose error or gradient turned non-finite.
    """
    lr, tol = settings["learning_rate"], settings["tolerance"]
    z = z0.copy()
    recons, cache = lstm.forward_batch(gen, z)
    errors, err_grads = objective(windows, recons)
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
            # step, so a batch of one repeats the one-row arithmetic bitwise
            step = steps[rows].astype(z_grads.dtype)[:, None, None]
            z_try = z[rows] - step * z_grads[search]
            recon_try, cache_try = lstm.forward_batch(gen, z_try)
            err_try, grad_try = objective(windows[rows], recon_try)
            accept = np.isfinite(err_try) & (err_try < errors[rows])
            won = rows[accept]
            z[won], errors[won], err_grads[won] = z_try[accept], err_try[accept], grad_try[accept]
            iterations[won] += 1
            if halvings == 0:
                # clean acceptance: let the step grow back, capped at 50x the base rate
                steps[won] = np.minimum(steps[won] * 1.5, 50.0 * lr)
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
    return z, errors, iterations


def invert(
    gen: lstm.StackedLstm, windows: np.ndarray, settings: dict, seed: int
) -> list[InversionResult]:
    """Best-of-restarts latent recovery for each window of an (N, L, C) stack.

    ``settings`` is the validated ``inversion`` config section.  Window i
    starts its R restarts from the first R (L, latent) draws of
    ``default_rng(seed + i)``, restart r taking the r-th draw, whatever else
    is in the stack.  All N x R restarts descend together, at most
    :data:`MAX_BATCH_ROWS` rows per batch, and window i keeps its restart
    of lowest error.  Every reconstruction and error comes from one forward
    pass over the N winning latents: ``reconstruction`` of window i equals
    row i of ``forward_batch(gen, latents)[0]`` exactly, with ``latents``
    the stacked winning latents.  One window is inverted as ``invert(gen,
    window[None], settings, seed)[0]``; an empty stack returns ``[]``.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError("windows must be (count, timesteps, columns)")
    if windows.shape[2] != gen.output_size:
        raise ValueError(
            f"windows have {windows.shape[2]} columns, generator emits {gen.output_size}"
        )
    count, length, _ = windows.shape
    if not count:
        return []
    restarts = settings["restarts"]
    shape = (restarts, length, gen.input_size)
    z0 = np.concatenate([np.random.default_rng(seed + i).standard_normal(shape)
                         for i in range(count)])
    targets = np.repeat(windows, restarts, axis=0)
    latents, errors, iterations = np.empty_like(z0), np.empty(len(z0)), np.empty(len(z0), int)
    for lo in range(0, len(z0), MAX_BATCH_ROWS):
        part = slice(lo, lo + MAX_BATCH_ROWS)
        latents[part], errors[part], iterations[part] = _descend(
            gen, targets[part], z0[part], settings
        )
    errors = errors.reshape(count, restarts)
    diverged = np.isnan(errors).all(axis=1)
    if diverged.any():
        raise RuntimeError(
            f"window {int(np.argmax(diverged))}: all inversion restarts diverged"
        )
    best = np.arange(count) * restarts + np.nanargmin(errors, axis=1)
    winners = latents[best]
    recons = lstm.forward_batch(gen, winners)[0]
    final, _ = objective(windows, recons)
    return [
        InversionResult(latent=winners[i], error=float(final[i]),
                        iterations=int(iterations[k]), reconstruction=recons[i])
        for i, k in enumerate(best)
    ]


def invert_many(
    gen: lstm.StackedLstm, windows: np.ndarray, settings: dict, seed: int
) -> list[InversionResult]:
    """The same as :func:`invert`; ``bench/tracer.py`` times the inversions
    of ``tsgad detect`` under this name."""
    return invert(gen, windows, settings, seed)
