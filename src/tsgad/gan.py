"""Adversarial training of an LSTM generator/discriminator pair.

The discriminator scores every timestep; sequence-level losses average those
scores within each sequence first.  The generator is trained with the
non-saturating objective (maximize log D on fakes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import lstm
from .ingest import WindowSet
from .mmd import KernelConfig, mmd_unbiased

SCORE_EPS = 1e-12


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient norm turns non-finite; carries the last good model."""

    def __init__(self, message: str, model: "GanModel"):
        super().__init__(message)
        self.model = model


@dataclass
class Generator:
    """Latent-to-sequence network; tanh output keeps samples in (-1, 1)."""

    net: lstm.StackedLstm

    @property
    def latent_dim(self) -> int:
        return self.net.input_size

    @property
    def feature_dim(self) -> int:
        return self.net.output_size


@dataclass
class Discriminator:
    """Sequence-to-score network emitting one sigmoid score per timestep."""

    net: lstm.StackedLstm

    @property
    def feature_dim(self) -> int:
        return self.net.input_size


@dataclass
class TrainingConfig:
    epochs: int
    batch_size: int = 32
    d_steps: int = 1
    g_steps: int = 3
    optimizer: str = "adam"
    d_learning_rate: float = 1e-3
    g_learning_rate: float = 1e-3
    latent_dim: int = 15
    sequence_length: int = 12
    gen_depth: int = 3
    gen_hidden: int = 100
    disc_depth: int = 1
    disc_hidden: int = 100
    grad_clip: float = 5.0
    seed: int = 0
    mmd_every: int = 0          # 0 disables the per-epoch MMD diagnostic
    mmd_samples: int = 128
    checkpoint_interval: int = 0
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("batch_size", "d_steps", "g_steps", "latent_dim",
                     "sequence_length", "gen_depth", "gen_hidden",
                     "disc_depth", "disc_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class GanModel:
    generator: Generator
    discriminator: Discriminator
    config: TrainingConfig
    loss_history: list[tuple[float, float]] = field(default_factory=list)
    mmd_history: list[float] = field(default_factory=list)
    epochs_completed: int = 0


def build_generator(
    feature_dim: int,
    latent_dim: int = 15,
    depth: int = 3,
    hidden: int = 100,
    rng: np.random.Generator | int | None = None,
) -> Generator:
    net = lstm.init_lstm(depth, latent_dim, hidden, feature_dim, "tanh", rng)
    return Generator(net=net)


def build_discriminator(
    feature_dim: int,
    depth: int = 1,
    hidden: int = 100,
    rng: np.random.Generator | int | None = None,
) -> Discriminator:
    net = lstm.init_lstm(depth, feature_dim, hidden, 1, "sigmoid", rng)
    return Discriminator(net=net)


def sample_latent(
    count: int,
    length: int,
    dim: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw (count, length, dim) i.i.d. standard normal latent sequences."""
    if count < 1 or length < 1 or dim < 1:
        raise ValueError("count, length and dim must be positive")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return rng.standard_normal((count, length, dim))


def _sequence_scores(scores: np.ndarray, name: str) -> np.ndarray:
    """Validate per-timestep scores and average them to one score per sequence."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    if arr.ndim == 1:
        return arr
    return arr.reshape(arr.shape[0], -1).mean(axis=1)


def d_loss(d_real: np.ndarray, d_fake: np.ndarray) -> float:
    """Mean of -log D(real) - log(1 - D(fake)) over the batch."""
    real = _sequence_scores(d_real, "d_real")
    fake = _sequence_scores(d_fake, "d_fake")
    if real.shape != fake.shape:
        raise ValueError("real/fake batch sizes differ")
    return float(np.mean(-np.log(real) - np.log(1.0 - fake)))


def g_loss(d_fake: np.ndarray) -> float:
    """Non-saturating generator objective: mean of -log D(fake)."""
    fake = _sequence_scores(d_fake, "d_fake")
    return float(np.mean(-np.log(fake)))


def generate(gen: Generator, latent: np.ndarray) -> np.ndarray:
    """Deterministic forward pass of a latent batch (count, length, dim)."""
    z = np.asarray(latent, dtype=np.float64)
    if z.ndim != 3 or z.shape[2] != gen.latent_dim:
        raise ValueError(
            f"latent batch must be (count, length, {gen.latent_dim}), got {z.shape}"
        )
    return lstm.forward_batch(gen.net, z)[0]


def _clipped_seq_scores(raw_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(per-timestep, per-sequence) scores nudged off the exact 0/1 endpoints."""
    pt = np.clip(raw_scores[..., 0], SCORE_EPS, 1.0 - SCORE_EPS)
    return pt, pt.mean(axis=1)


def discriminator_grads(
    disc: Discriminator,
    real: np.ndarray,
    fake: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Loss and parameter gradients of d_loss on one real/fake batch pair."""
    m = real.shape[0]
    steps = real.shape[1]
    real_out, real_cache = lstm.forward_batch(disc.net, real)
    fake_out, fake_cache = lstm.forward_batch(disc.net, fake)
    real_pt, real_seq = _clipped_seq_scores(real_out)
    fake_pt, fake_seq = _clipped_seq_scores(fake_out)
    loss = float(np.mean(-np.log(real_seq) - np.log(1.0 - fake_seq)))

    d_real = (-1.0 / (m * steps * real_seq))[:, None, None] * np.ones_like(real_out)
    d_fake = (1.0 / (m * steps * (1.0 - fake_seq)))[:, None, None] * np.ones_like(fake_out)
    g_real = lstm.backward_batch(disc.net, real_cache, d_real)
    g_fake = lstm.backward_batch(disc.net, fake_cache, d_fake)
    total = [a + b for a, b in zip(g_real.arrays(), g_fake.arrays())]
    return loss, total


def generator_grads(
    gen: Generator,
    disc: Discriminator,
    latent: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Loss and generator gradients of g_loss; discriminator stays frozen."""
    m, steps = latent.shape[0], latent.shape[1]
    fake, gen_cache = lstm.forward_batch(gen.net, latent)
    scores, disc_cache = lstm.forward_batch(disc.net, fake)
    _, fake_seq = _clipped_seq_scores(scores)
    loss = float(np.mean(-np.log(fake_seq)))

    d_scores = (-1.0 / (m * steps * fake_seq))[:, None, None] * np.ones_like(scores)
    disc_grads = lstm.backward_batch(disc.net, disc_cache, d_scores)
    gen_grads = lstm.backward_batch(gen.net, gen_cache, disc_grads.inputs)
    return loss, gen_grads.arrays()


def _training_data(data) -> np.ndarray:
    if isinstance(data, WindowSet):
        return data.windows
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("training data must be (windows, length, features)")
    return arr


def train(config: TrainingConfig, data) -> GanModel:
    """Run the adversarial loop and return the trained pair with histories.

    Each epoch shuffles the window set and walks it in minibatches; every
    minibatch takes ``d_steps`` discriminator updates followed by ``g_steps``
    generator updates on fresh latent draws.  A non-finite loss or gradient
    norm raises :class:`TrainingDiverged` with the last epoch's parameters
    attached; non-finite windows are rejected before the first epoch.
    """
    windows = _training_data(data)
    n_windows, seq_len, feature_dim = windows.shape
    if seq_len != config.sequence_length:
        raise ValueError(
            f"windows have length {seq_len}, config expects {config.sequence_length}"
        )
    if not np.all(np.isfinite(windows)):
        raise ValueError("training windows contain non-finite values")
    if 0 < config.mmd_every <= config.epochs and n_windows < 2:
        raise ValueError(
            f"the per-epoch MMD needs at least 2 training windows, got {n_windows}; "
            "add training data or set gan.mmd_every: 0"
        )

    rng = np.random.default_rng(config.seed)
    gen = build_generator(
        feature_dim, config.latent_dim, config.gen_depth, config.gen_hidden, rng
    )
    disc = build_discriminator(feature_dim, config.disc_depth, config.disc_hidden, rng)
    g_opt = lstm.OptimizerState(rule=config.optimizer, learning_rate=config.g_learning_rate)
    d_opt = lstm.OptimizerState(rule=config.optimizer, learning_rate=config.d_learning_rate)
    model = GanModel(gen, disc, config)

    if config.mmd_every > 0:
        ref_idx = rng.choice(n_windows, size=min(config.mmd_samples, n_windows), replace=False)
        mmd_ref = windows[ref_idx]

    last_good = (gen.net.copy(), disc.net.copy())
    batch = min(config.batch_size, n_windows)

    for epoch in range(config.epochs):
        perm = rng.permutation(n_windows)
        d_losses: list[float] = []
        g_losses: list[float] = []
        try:
            for start in range(0, n_windows, batch):
                idx = perm[start : start + batch]
                real = windows[idx]
                m = real.shape[0]
                for _ in range(config.d_steps):
                    z = sample_latent(m, seq_len, config.latent_dim, rng)
                    fake = generate(gen, z)
                    loss, grads = discriminator_grads(disc, real, fake)
                    norm = lstm.clip_gradients(grads, config.grad_clip)
                    if not np.isfinite(loss + norm):
                        msg = f"d_loss {loss}, gradient norm {norm} at epoch {epoch + 1}"
                        raise TrainingDiverged(msg, model)
                    lstm.optimizer_step(disc.net.parameters(), grads, d_opt)
                    d_losses.append(loss)
                for _ in range(config.g_steps):
                    z = sample_latent(m, seq_len, config.latent_dim, rng)
                    loss, grads = generator_grads(gen, disc, z)
                    norm = lstm.clip_gradients(grads, config.grad_clip)
                    if not np.isfinite(loss + norm):
                        msg = f"g_loss {loss}, gradient norm {norm} at epoch {epoch + 1}"
                        raise TrainingDiverged(msg, model)
                    lstm.optimizer_step(gen.net.parameters(), grads, g_opt)
                    g_losses.append(loss)
        except TrainingDiverged:
            gen.net, disc.net = last_good
            raise

        model.loss_history.append((float(np.mean(d_losses)), float(np.mean(g_losses))))
        model.epochs_completed = epoch + 1
        last_good = (gen.net.copy(), disc.net.copy())

        if config.mmd_every > 0 and (epoch + 1) % config.mmd_every == 0:
            z = sample_latent(mmd_ref.shape[0], seq_len, config.latent_dim, rng)
            model.mmd_history.append(mmd_unbiased(generate(gen, z), mmd_ref, KernelConfig()))

        if (
            config.checkpoint_interval > 0
            and config.checkpoint_dir is not None
            and (epoch + 1) % config.checkpoint_interval == 0
        ):
            save_checkpoint(model, Path(config.checkpoint_dir) / f"epoch_{epoch + 1:05d}.npz")

    return model


def save_checkpoint(model: GanModel, path: str | Path) -> None:
    """Persist both networks, the config and the histories (no optimizer state)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {}
    arrays.update(model.generator.net.to_arrays("gen_"))
    arrays.update(model.discriminator.net.to_arrays("disc_"))
    meta = {
        "format_version": 1,
        "config": asdict(model.config),
        "epochs_completed": model.epochs_completed,
        "loss_history": model.loss_history,
        "mmd_history": model.mmd_history,
    }
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path: str | Path) -> GanModel:
    data = np.load(path)
    meta = json.loads(bytes(data["meta"]).decode())
    if meta.get("format_version") != 1:
        raise ValueError(f"unsupported checkpoint version in {path}")
    config = TrainingConfig(**meta["config"])
    gen = Generator(
        lstm.StackedLstm.from_arrays(data, config.gen_depth, "tanh", "gen_")
    )
    disc = Discriminator(
        lstm.StackedLstm.from_arrays(data, config.disc_depth, "sigmoid", "disc_")
    )
    return GanModel(
        generator=gen,
        discriminator=disc,
        config=config,
        loss_history=[tuple(pair) for pair in meta["loss_history"]],
        mmd_history=list(meta["mmd_history"]),
        epochs_completed=meta["epochs_completed"],
    )
