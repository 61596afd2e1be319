"""Mapping windows back into the generator's latent space.

The inversion minimizes :func:`objective`, one minus the per-column Pearson
correlation of the window and G(z) averaged over columns, over z by Adam
through the frozen generator, with a configurable number of restarts.  The
error is bounded and scale invariant.

:func:`invert` takes a stack of N windows with one seed each and descends
all of its N x R restarts (R = ``restarts``) together, as one (N R, L,
latent) batch laid out window by window: rows ``i R .. i R + R - 1`` are the
restarts of window i, drawn as the first R (L, latent) draws of
``default_rng(seeds[i])``.  ``tsgad detect`` inverts its holdout and test
windows in one such stack.  Every iteration forwards, scores and
back-propagates the whole batch, input gradients only, and takes one Adam
step (``lstm.optimizer_step``, step size ``learning_rate``) on all of z.
Adam's moments are elementwise, so each row follows its own trajectory and
keeps the lowest-error latent it visits, with its error and the generator
output the descent made at it.  At most :data:`MAX_BATCH_ROWS` rows go
through the LSTM at once.  Only the descent's forwards keep an LSTM cache,
each for the backward that follows it, so :data:`MAX_BATCH_ROWS` bounds
those caches for a large test set; the descent's last forward keeps none,
and no pass follows the descent.  float32 rounds a batch of B rows
differently from a batch of another size, so a window's result can differ
from inverting it alone or in another stack by that rounding, which Adam's
normalized steps can amplify; its starts and its trajectory are its own.
The result is four arrays stacked like the windows, window i in row i:
latents, errors, iterations and reconstructions.
"""

from __future__ import annotations

import numpy as np

from . import lstm

# rows (windows x restarts) per LSTM batch; bounds the descent's LSTM caches
MAX_BATCH_ROWS = 512


def forward_outputs(net: lstm.StackedLstm, sequences: np.ndarray) -> np.ndarray:
    """The outputs of ``lstm.forward_batch(net, sequences)``, taken
    :data:`MAX_BATCH_ROWS` sequences at a time: the discriminator's scoring
    of the detect windows.  No backward follows, so each batch runs with
    ``cache=False`` and holds one layer's arrays at a time, not the cache of
    every layer.  Up to ``MAX_BATCH_ROWS`` sequences this is one call and
    its exact result; a longer stack may differ from one call by float32
    rounding.
    """
    return np.concatenate([
        lstm.forward_batch(net, sequences[lo : lo + MAX_BATCH_ROWS], cache=False)[0]
        for lo in range(0, len(sequences), MAX_BATCH_ROWS)
    ])


def objective(windows: np.ndarray, recons: np.ndarray):
    """Inversion errors of ``recons`` against ``windows`` and their gradients in ``recons``.

    Both are (batch, timesteps, columns) stacks.  Row k's error is 1 minus
    the per-column Pearson correlation of ``windows[k]`` and ``recons[k]``
    averaged over columns, so it lies in [0, 2].  A constant column in
    either input correlates 0 and gets a zero gradient.  Returns
    ``(errors, grads)``: one error per row and the gradient of each row's
    error, shaped like ``recons``.
    """
    x = np.asarray(windows, dtype=np.float64)
    y = np.asarray(recons, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 3 or x.shape[1] < 2:
        raise ValueError("windows must be (batch, timesteps >= 2, columns)")
    cols = x.shape[2]
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    sx = np.sqrt(np.sum(xc * xc, axis=1, keepdims=True))
    sy = np.sqrt(np.sum(yc * yc, axis=1, keepdims=True))
    ok = (sx > 0.0) & (sy > 0.0)
    # a constant column divides by 1 and is then zeroed, so it warns of nothing
    sy = np.where(ok, sy, 1.0)
    denom = np.where(ok, sx * sy, 1.0)
    r = np.where(ok, np.sum(xc * yc, axis=1, keepdims=True) / denom, 0.0)
    # d (1 - r_j) / d y[:, j] = r yc / sy^2 - xc / (sx sy)
    grad = np.where(ok, (r * yc / sy**2 - xc / denom) / cols, 0.0)
    return 1.0 - r.mean(axis=(1, 2)), grad


def _descend(gen: lstm.StackedLstm, windows: np.ndarray, z0: np.ndarray, settings: dict):
    """Adam from every row of ``z0`` (rows, L, latent) as one batch.

    Row k descends towards ``windows[k]``.  It stops once its lowest error is
    at or below ``tolerance``, or once its error or gradient turns
    non-finite; a stopped row's latent drifts on its momentum alone.  The
    loop ends after ``max_iterations`` steps or when every row has stopped.
    Returns ``(latents, errors, iterations, reconstructions)`` per row: the
    lowest-error latent it visited, that error (nan for a row whose error or
    gradient turned non-finite), the Adam steps it took before it stopped
    and the generator output at that latent, from the batch that scored it.
    """
    z = z0.copy()
    best, errors = z0.copy(), np.full(len(z), np.inf)
    best_recons = np.empty(windows.shape, gen.params["out_w"].dtype)
    iterations = np.zeros(len(z), dtype=int)
    run = np.ones(len(z), dtype=bool)  # rows still descending
    adam = lstm.OptimizerState(settings["learning_rate"])
    last = settings["max_iterations"]
    for step in range(last + 1):
        # no backward follows the last step's forward
        recons, cache = lstm.forward_batch(gen, z, cache=step < last)
        err, err_grads = objective(windows, recons)
        finite = np.isfinite(err)
        errors[run & ~finite] = np.nan
        run &= finite
        better = run & (err < errors)
        best[better], errors[better] = z[better], err[better]
        best_recons[better] = recons[better]
        run &= errors > settings["tolerance"]
        if step == last or not run.any():
            break
        _, z_grads = lstm.backward_batch(gen, cache, err_grads, weights=False)
        finite = np.isfinite(z_grads).all(axis=(1, 2))
        errors[run & ~finite] = np.nan
        run &= finite
        # a stopped row's gradient, finite or not, stays out of Adam's moments
        z_grads[~run] = 0.0
        iterations[run] += 1
        lstm.optimizer_step([z], [z_grads], adam)
    return best, errors, iterations, best_recons


def invert(gen: lstm.StackedLstm, windows: np.ndarray, settings: dict, seeds):
    """Best-of-restarts latent recovery for each window of an (N, L, C) stack.

    ``settings`` is the validated ``inversion`` config section and
    ``seeds`` a sequence of N seeds, one per window.  Window i starts its R
    restarts from the first R (L, latent) draws of
    ``default_rng(seeds[i])``, restart r taking the r-th draw, whatever else
    is in the stack.  All N x R restarts descend together, at most
    :data:`MAX_BATCH_ROWS` rows per batch, and window i keeps its restart
    of lowest error.  Returns ``(latents, errors, iterations,
    reconstructions)``, row i of each for window i: the winning (N, L,
    latent) latents, their float64 errors, the Adam steps each winning
    restart took and the (N, L, C) generator outputs at those latents.
    Both the reconstructions and the errors come from the descent batch
    that visited each winning latent, so the errors are
    ``objective(windows, reconstructions)[0]`` bit for bit, and the
    reconstructions are the generator's outputs at the latents up to the
    float32 rounding of that batch's size.  An empty stack, and a seed
    count other than N, are refused.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or not len(windows):
        raise ValueError("windows must be a non-empty (count, timesteps, columns) stack")
    if windows.shape[2] != gen.output_size:
        raise ValueError(
            f"windows have {windows.shape[2]} columns, generator emits {gen.output_size}"
        )
    count, length, _ = windows.shape
    if np.ndim(seeds) != 1 or len(seeds) != count:
        raise ValueError(f"need a sequence of one seed per window, for {count} windows")
    restarts = settings["restarts"]
    shape = (restarts, length, gen.input_size)
    z0 = np.concatenate([np.random.default_rng(seed).standard_normal(shape) for seed in seeds])
    targets = np.repeat(windows, restarts, axis=0)
    parts = [
        _descend(gen, targets[lo : lo + MAX_BATCH_ROWS], z0[lo : lo + MAX_BATCH_ROWS], settings)
        for lo in range(0, len(z0), MAX_BATCH_ROWS)
    ]
    latents, errors, iterations, recons = (np.concatenate(a) for a in zip(*parts))
    by_window = errors.reshape(count, restarts)
    diverged = np.isnan(by_window).all(axis=1)
    if diverged.any():
        raise RuntimeError(
            f"window {int(np.argmax(diverged))}: all inversion restarts diverged"
        )
    best = np.arange(count) * restarts + np.nanargmin(by_window, axis=1)
    return latents[best], errors[best], iterations[best], recons[best]


def invert_many(gen: lstm.StackedLstm, windows: np.ndarray, settings: dict, seeds):
    """The same as :func:`invert`; ``bench/tracer.py`` times the one
    inversion of ``tsgad detect`` under this name."""
    return invert(gen, windows, settings, seeds)
