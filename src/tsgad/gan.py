"""Adversarial training of an LSTM generator/discriminator pair.

Both networks are plain ``lstm.StackedLstm`` stacks: the generator maps
latent sequences to feature sequences through a tanh head, the discriminator
maps feature sequences to one sigmoid score per timestep.  Sequence-level
losses average those scores within each sequence first.  The generator is
trained with the non-saturating objective (maximize log D on fakes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lstm
from .config import ConfigError
from .ingest import read_json_object, read_npz
from .mmd import median_heuristic, mmd_unbiased

SCORE_EPS = 1e-12
# the largest global gradient norm of one update: a guard against a blow-up,
# far above the norms the benchmark workloads' training reaches (under 0.5)
GRAD_CLIP = 5.0
DISC_DEPTH = 1  # the paper's discriminator: one LSTM layer


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient norm turns non-finite; carries the last good model."""

    def __init__(self, message: str, model: "GanModel"):
        super().__init__(message)
        self.model = model


@dataclass
class GanModel:
    """The trained pair, its config and one record per completed epoch.

    Each ``history`` record is a dict of floats: the epoch's mean ``d_loss``
    and ``g_loss`` and the ``mmd`` measured after it.  ``len(history)`` is
    the number of completed epochs.  ``windows_sha256`` is the digest of the
    window bundle the pair was trained on, as
    :func:`tsgad.ingest.load_window_bundle` returns it, which
    :func:`tsgad.pipeline.run_train` sets.
    """

    generator: lstm.StackedLstm
    discriminator: lstm.StackedLstm
    config: dict  # the gan config section plus sequence_length and seed
    history: list[dict] = field(default_factory=list)
    windows_sha256: str | None = None


def build_generator(
    feature_dim: int,
    latent_dim: int,
    depth: int,
    hidden: int,
    rng: np.random.Generator | int | None = None,
) -> lstm.StackedLstm:
    """Latent-to-sequence network; the tanh head keeps samples in (-1, 1)."""
    return lstm.init_lstm(depth, latent_dim, hidden, feature_dim, "tanh", rng)


def build_discriminator(
    feature_dim: int,
    depth: int,
    hidden: int,
    rng: np.random.Generator | int | None = None,
) -> lstm.StackedLstm:
    """Sequence-to-score network emitting one sigmoid score per timestep."""
    return lstm.init_lstm(depth, feature_dim, hidden, 1, "sigmoid", rng)


def d_loss(d_real: np.ndarray, d_fake: np.ndarray) -> float:
    """Mean of -log D(real) - log(1 - D(fake)) over per-sequence scores."""
    return float(np.mean(-np.log(d_real) - np.log(1.0 - d_fake)))


def g_loss(d_fake: np.ndarray) -> float:
    """Non-saturating generator objective: mean of -log D(fake) over per-sequence scores."""
    return float(np.mean(-np.log(d_fake)))


def _clipped_seq_scores(raw_scores: np.ndarray) -> np.ndarray:
    """Per-sequence mean of per-timestep scores nudged off the exact 0/1 endpoints.

    The clip runs in float64: in float32, 1 - SCORE_EPS rounds to exactly 1.
    """
    pt = np.clip(raw_scores[..., 0].astype(np.float64), SCORE_EPS, 1.0 - SCORE_EPS)
    return pt.mean(axis=1)


def discriminator_grads(
    disc: lstm.StackedLstm,
    real: np.ndarray,
    fake: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Loss and parameter gradients of d_loss on one real/fake batch pair."""
    m = real.shape[0]
    steps = real.shape[1]
    real_out, real_cache = lstm.forward_batch(disc, real)
    fake_out, fake_cache = lstm.forward_batch(disc, fake)
    real_seq = _clipped_seq_scores(real_out)
    fake_seq = _clipped_seq_scores(fake_out)
    loss = d_loss(real_seq, fake_seq)

    d_real = (-1.0 / (m * steps * real_seq))[:, None, None] * np.ones_like(real_out)
    d_fake = (1.0 / (m * steps * (1.0 - fake_seq)))[:, None, None] * np.ones_like(fake_out)
    g_real, _ = lstm.backward_batch(disc, real_cache, d_real)
    g_fake, _ = lstm.backward_batch(disc, fake_cache, d_fake)
    return loss, [a + b for a, b in zip(g_real.values(), g_fake.values())]


def generator_grads(
    gen: lstm.StackedLstm,
    disc: lstm.StackedLstm,
    latent: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Loss and generator gradients of g_loss; discriminator stays frozen."""
    m, steps = latent.shape[0], latent.shape[1]
    fake, gen_cache = lstm.forward_batch(gen, latent)
    scores, disc_cache = lstm.forward_batch(disc, fake)
    fake_seq = _clipped_seq_scores(scores)
    loss = g_loss(fake_seq)

    d_scores = (-1.0 / (m * steps * fake_seq))[:, None, None] * np.ones_like(scores)
    _, d_fake = lstm.backward_batch(disc, disc_cache, d_scores, weights=False)
    gen_grads, _ = lstm.backward_batch(gen, gen_cache, d_fake)
    return loss, list(gen_grads.values())


def _update(
    model: GanModel,
    net: lstm.StackedLstm,
    opt: lstm.OptimizerState,
    name: str,
    loss: float,
    grads: list[np.ndarray],
    epoch: int,
) -> None:
    """Clip ``grads`` to a global norm of :data:`GRAD_CLIP` and take one Adam
    step on ``net``; a non-finite ``loss`` or norm raises
    :class:`TrainingDiverged` naming the loss ``name`` and ``epoch``."""
    norm = lstm.clip_gradients(grads, GRAD_CLIP)
    if not np.isfinite(loss + norm):
        raise TrainingDiverged(f"{name} {loss}, gradient norm {norm} at epoch {epoch}", model)
    lstm.optimizer_step(net.params.values(), grads, opt)


def train(settings: dict, windows: np.ndarray, seed: int) -> GanModel:
    """Run the adversarial loop and return the trained pair with its history.

    ``settings`` is the validated ``gan`` config section; ``config.SCHEMA``
    holds its defaults and ranges.  The sequence length is that of
    ``windows``, and ``seed`` drives initialization, shuffling and latent
    draws.

    Each epoch shuffles the window set and walks it in minibatches; every
    minibatch takes ``d_steps`` discriminator updates followed by ``g_steps``
    generator updates on fresh latent draws.  A non-finite loss or gradient
    norm raises :class:`TrainingDiverged` with the last epoch's parameters
    and the completed epochs' history attached; non-finite windows are
    rejected before the first epoch.  After every epoch the record gets an
    MMD between generated windows and up to ``mmd_samples`` reference
    windows, with one bandwidth for the whole run, the median heuristic of
    the reference windows, so its values can be compared across epochs.
    The MMD needs 2 windows, so with ``epochs > 0`` a single window is
    refused.

    Only the passes a backward reads keep an LSTM cache: those inside
    :func:`discriminator_grads` and :func:`generator_grads`.  The generator
    passes that make a discriminator step's fakes and the MMD batch run
    with ``cache=False``; with ``mmd_samples`` above ``batch_size``, the
    MMD batch's cache would otherwise set the peak memory of training.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError("training data must be (windows, length, features)")
    n_windows, seq_len, feature_dim = windows.shape
    if not np.all(np.isfinite(windows)):
        raise ValueError("training windows contain non-finite values")
    if settings["epochs"] > 0 and n_windows < 2:
        raise ValueError(
            f"the per-epoch MMD needs at least 2 training windows, got {n_windows}; "
            "add training data"
        )

    latent_dim = settings["latent_dim"]
    rng = np.random.default_rng(seed)
    gen = build_generator(
        feature_dim, latent_dim, settings["gen_depth"], settings["gen_hidden"], rng
    )
    disc = build_discriminator(feature_dim, DISC_DEPTH, settings["disc_hidden"], rng)
    g_opt = lstm.OptimizerState(learning_rate=settings["g_learning_rate"])
    d_opt = lstm.OptimizerState(learning_rate=settings["d_learning_rate"])
    model = GanModel(gen, disc, {**settings, "sequence_length": seq_len, "seed": seed})

    ref_size = min(settings["mmd_samples"], n_windows)
    mmd_ref = windows[rng.choice(n_windows, size=ref_size, replace=False)]
    # the median heuristic needs 2 windows, which only an MMD run is sure to have
    bandwidth = median_heuristic(mmd_ref) if settings["epochs"] > 0 else None

    last_good = (gen.copy(), disc.copy())
    batch = min(settings["batch_size"], n_windows)

    for epoch in range(settings["epochs"]):
        perm = rng.permutation(n_windows)
        d_losses: list[float] = []
        g_losses: list[float] = []
        try:
            for start in range(0, n_windows, batch):
                idx = perm[start : start + batch]
                real = windows[idx]
                m = real.shape[0]
                for _ in range(settings["d_steps"]):
                    z = rng.standard_normal((m, seq_len, latent_dim))
                    fake = lstm.forward_batch(gen, z, cache=False)[0]
                    loss, grads = discriminator_grads(disc, real, fake)
                    _update(model, disc, d_opt, "d_loss", loss, grads, epoch + 1)
                    d_losses.append(loss)
                for _ in range(settings["g_steps"]):
                    z = rng.standard_normal((m, seq_len, latent_dim))
                    loss, grads = generator_grads(gen, disc, z)
                    _update(model, gen, g_opt, "g_loss", loss, grads, epoch + 1)
                    g_losses.append(loss)
        except TrainingDiverged:
            model.generator, model.discriminator = last_good
            raise

        last_good = (gen.copy(), disc.copy())
        z = rng.standard_normal((ref_size, seq_len, latent_dim))
        mmd = mmd_unbiased(lstm.forward_batch(gen, z, cache=False)[0], mmd_ref, bandwidth)
        model.history.append(
            {"d_loss": float(np.mean(d_losses)), "g_loss": float(np.mean(g_losses)), "mmd": mmd}
        )

    return model


def save_checkpoint(model: GanModel, path: str | Path) -> None:
    """Persist both networks, the config and the history (no optimizer state).

    Parameters are stored in their training dtype, and ``load_checkpoint``
    keeps it, so a float64 checkpoint still runs in float64.  The meta's
    ``history`` and ``windows_sha256`` keys hold those fields of the model.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    nets = {"gen_": model.generator, "disc_": model.discriminator}
    arrays = {prefix + name: a for prefix, net in nets.items() for name, a in net.params.items()}
    meta = {
        "format_version": 1,
        "config": model.config,
        "history": model.history,
        "windows_sha256": model.windows_sha256,
    }
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path: str | Path) -> GanModel:
    """Rebuild both networks from their ``gen_``/``disc_`` arrays.

    A file :func:`save_checkpoint` would not write is refused with a
    :class:`ConfigError` naming ``path``: no npz archive, a member that
    cannot be read or a ``meta`` that holds no JSON object (as damaged, with
    ``; re-run train``), no ``meta`` array, another version, an array under
    another prefix, meta without ``config``, ``history`` or
    ``windows_sha256``, arrays that form no stack or a discriminator that
    reads another width than the generator emits.
    """
    arrays = read_npz(path, "re-run train")
    if "meta" not in arrays:
        raise ConfigError(f"{path}: no meta array")
    meta = read_json_object(path, "re-run train", bytes(arrays.pop("meta")))
    if meta.get("format_version") != 1:
        raise ConfigError(f"unsupported checkpoint version in {path}")
    foreign = sorted(k for k in arrays if not k.startswith(("gen_", "disc_")))
    if foreign:
        raise ConfigError(f"{path}: arrays outside gen_*/disc_*: {foreign}")
    for key in ("config", "history", "windows_sha256"):
        if key not in meta:
            raise ConfigError(f"{path}: meta has no {key}")

    def net(prefix: str, activation: str) -> lstm.StackedLstm:
        params = {k[len(prefix):]: a for k, a in arrays.items() if k.startswith(prefix)}
        try:
            return lstm.StackedLstm(params, activation)
        except ValueError as exc:
            raise ConfigError(f"{path}: {prefix}* arrays: {exc}") from None

    gen, disc = net("gen_", "tanh"), net("disc_", "sigmoid")
    if gen.output_size != disc.input_size:
        raise ConfigError(
            f"{path}: generator emits {gen.output_size} and discriminator reads "
            f"{disc.input_size} columns"
        )
    return GanModel(gen, disc, meta["config"], meta["history"], meta["windows_sha256"])
