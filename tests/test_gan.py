import json
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from tsgad import gan, lstm
from tsgad.gan import (
    TrainingConfig,
    TrainingDiverged,
    build_discriminator,
    build_generator,
    d_loss,
    discriminator_grads,
    g_loss,
    generate,
    generator_grads,
    load_checkpoint,
    sample_latent,
    save_checkpoint,
    train,
)


def tiny_config(**overrides):
    base = dict(
        epochs=3,
        batch_size=16,
        d_steps=1,
        g_steps=1,
        d_learning_rate=1e-2,
        g_learning_rate=1e-2,
        latent_dim=2,
        sequence_length=4,
        gen_depth=1,
        gen_hidden=6,
        disc_depth=1,
        disc_hidden=4,
        seed=0,
        mmd_every=0,
    )
    base.update(overrides)
    return TrainingConfig(**base)


class TestSampleLatent:
    def test_deterministic(self):
        a = sample_latent(3, 5, 2, rng=42)
        b = sample_latent(3, 5, 2, rng=42)
        npt.assert_array_equal(a, b)

    def test_standard_normal_moments(self):
        z = sample_latent(100, 10, 10, rng=7)  # 10^4 draws
        assert abs(z.mean()) < 0.05
        assert abs(z.var() - 1.0) < 0.05

    def test_paper_scale_shapes(self):
        z = sample_latent(4, 12, 15, rng=0)
        assert z.shape == (4, 12, 15)

    def test_positive_sizes_required(self):
        with pytest.raises(ValueError):
            sample_latent(0, 5, 2)


class TestDLoss:
    def test_indifferent_point(self):
        half = np.full(4, 0.5)
        assert d_loss(half, half) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_perfect_discriminator_limit(self):
        assert d_loss(np.full(3, 1 - 1e-9), np.full(3, 1e-9)) < 1e-8

    def test_hand_case_matches_direct_sum(self):
        d_real = np.array([0.9, 0.8])
        d_fake = np.array([0.1, 0.3])
        # independent evaluation, term by term
        expected = (
            (-math.log(0.9) - math.log(1 - 0.1)) + (-math.log(0.8) - math.log(1 - 0.3))
        ) / 2
        assert d_loss(d_real, d_fake) == pytest.approx(expected, abs=1e-10)

    def test_per_timestep_scores_averaged_first(self):
        real = np.array([[0.6, 0.8], [0.5, 0.5]])  # sequence means 0.7, 0.5
        fake = np.array([[0.2, 0.4], [0.1, 0.1]])  # sequence means 0.3, 0.1
        expected = d_loss(np.array([0.7, 0.5]), np.array([0.3, 0.1]))
        assert d_loss(real, fake) == pytest.approx(expected, abs=1e-12)

    def test_rejects_scores_outside_open_interval(self):
        with pytest.raises(ValueError):
            d_loss(np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            d_loss(np.array([0.5]), np.array([0.0]))

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            d_loss(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            d_loss(np.array([0.5, 0.5]), np.array([0.5]))


class TestGLoss:
    def test_indifferent_point(self):
        assert g_loss(np.full(5, 0.5)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_fooled_discriminator_limit(self):
        assert g_loss(np.full(3, 1 - 1e-12)) < 1e-10

    def test_hand_case(self):
        expected = 0.5 * (math.log(4.0) + math.log(2.0))
        assert g_loss(np.array([0.25, 0.5])) == pytest.approx(expected, abs=1e-12)


class TestGenerate:
    def test_deterministic(self):
        gen = build_generator(3, latent_dim=2, depth=1, hidden=5, rng=1)
        z = sample_latent(4, 6, 2, rng=2)
        npt.assert_array_equal(generate(gen, z), generate(gen, z))

    def test_zero_parameter_generator_emits_zeros(self):
        gen = build_generator(2, latent_dim=2, depth=1, hidden=4, rng=3)
        for p in gen.net.parameters():
            p[...] = 0.0
        gen.net.output_activation = "identity"
        out = generate(gen, sample_latent(2, 5, 2, rng=4))
        npt.assert_array_equal(out, np.zeros((2, 5, 2)))

    def test_tanh_outputs_bounded(self):
        gen = build_generator(2, latent_dim=3, depth=2, hidden=6, rng=5)
        out = generate(gen, 100.0 * sample_latent(3, 4, 3, rng=6))
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_latent_dim_mismatch(self):
        gen = build_generator(2, latent_dim=3, depth=1, hidden=4, rng=7)
        with pytest.raises(ValueError, match="latent"):
            generate(gen, np.zeros((2, 4, 5)))


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        windows = np.zeros((8, 4, 1))
        model = train(tiny_config(epochs=0), windows)
        assert model.loss_history == []
        assert model.mmd_history == []
        assert model.epochs_completed == 0
        ref = build_generator(1, latent_dim=2, depth=1, hidden=6,
                              rng=np.random.default_rng(0))
        for a, b in zip(model.generator.net.parameters(), ref.net.parameters()):
            npt.assert_array_equal(a, b)

    def test_constant_data_convergence(self):
        # degenerate target distribution: all windows equal a constant
        target = 0.4
        windows = np.full((64, 4, 1), target)
        cfg = tiny_config(epochs=400, batch_size=64, g_steps=3, gen_hidden=8,
                          disc_hidden=16)
        model = train(cfg, windows)
        samples = generate(model.generator, sample_latent(200, 4, 2, rng=123))
        assert abs(samples.mean() - target) < 0.1

    def test_fixed_seed_is_reproducible(self):
        windows = np.random.default_rng(9).uniform(0.2, 0.8, (16, 4, 2))
        a = train(tiny_config(), windows)
        b = train(tiny_config(), windows)
        for pa, pb in zip(a.generator.net.parameters(), b.generator.net.parameters()):
            npt.assert_array_equal(pa, pb)
        for pa, pb in zip(a.discriminator.net.parameters(), b.discriminator.net.parameters()):
            npt.assert_array_equal(pa, pb)
        assert a.loss_history == b.loss_history

    def test_histories_match_epochs_and_mmd_interval(self):
        windows = np.random.default_rng(10).uniform(-0.5, 0.5, (16, 4, 1))
        model = train(tiny_config(epochs=4, mmd_every=2), windows)
        assert len(model.loss_history) == 4
        assert len(model.mmd_history) == 2

    def test_non_finite_window_rejected(self):
        windows = np.zeros((8, 4, 1))
        windows[3, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            train(tiny_config(), windows)

    def test_non_finite_gradients_abort_with_last_good_model(self, monkeypatch):
        windows = np.random.default_rng(11).uniform(-0.5, 0.5, (8, 4, 1))
        cfg = tiny_config(epochs=2, batch_size=4)
        reference = train(replace(cfg, epochs=1), windows)
        real_grads = gan.discriminator_grads
        calls = []

        def nan_in_epoch_two(disc, real, fake):
            loss, grads = real_grads(disc, real, fake)
            calls.append(None)
            if len(calls) > 2:  # two minibatches per epoch
                grads[0][0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(gan, "discriminator_grads", nan_in_epoch_two)
        with pytest.raises(TrainingDiverged, match="gradient norm nan") as exc_info:
            train(cfg, windows)
        model = exc_info.value.model
        assert model.epochs_completed == 1
        for net, ref in ((model.generator.net, reference.generator.net),
                         (model.discriminator.net, reference.discriminator.net)):
            for a, b in zip(net.parameters(), ref.parameters()):
                npt.assert_array_equal(a, b)

    def test_shape_bug_is_not_reported_as_divergence(self, monkeypatch):
        # a generator emitting the wrong width fails inside the epoch
        monkeypatch.setattr(gan, "generate", lambda gen, z: np.zeros(z.shape[:2] + (2,)))
        with pytest.raises(ValueError, match="feature dim"):
            train(tiny_config(), np.zeros((8, 4, 1)))

    def test_sequence_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            train(tiny_config(sequence_length=5), np.zeros((4, 4, 1)))

    def test_one_window_with_mmd_names_the_cause(self):
        with pytest.raises(ValueError, match=r"2 training windows, got 1; .*gan\.mmd_every: 0"):
            train(tiny_config(mmd_every=1), np.zeros((1, 4, 1)))
        assert train(tiny_config(epochs=1), np.zeros((1, 4, 1))).epochs_completed == 1


class TestUpdateDirections:
    def test_discriminator_update_decreases_d_loss(self):
        rng = np.random.default_rng(11)
        disc = build_discriminator(2, depth=1, hidden=6, rng=rng)
        real = rng.uniform(0.2, 0.8, (8, 5, 2))
        fake = rng.uniform(-0.8, -0.2, (8, 5, 2))
        loss_before, grads = discriminator_grads(disc, real, fake)
        lr = 0.5
        for _ in range(10):
            candidate = gan.Discriminator(disc.net.copy())
            lstm.optimizer_step(
                candidate.net.parameters(),
                grads,
                lstm.OptimizerState(rule="sgd", learning_rate=lr),
            )
            loss_after, _ = discriminator_grads(candidate, real, fake)
            if loss_after < loss_before:
                break
            lr *= 0.5
        assert loss_after < loss_before

    def test_generator_update_decreases_g_loss(self):
        rng = np.random.default_rng(12)
        gen = build_generator(2, latent_dim=2, depth=1, hidden=6, rng=rng)
        disc = build_discriminator(2, depth=1, hidden=6, rng=rng)
        z = sample_latent(8, 5, 2, rng=13)
        loss_before, grads = generator_grads(gen, disc, z)
        lr = 0.5
        for _ in range(10):
            candidate = gan.Generator(gen.net.copy())
            lstm.optimizer_step(
                candidate.net.parameters(),
                grads,
                lstm.OptimizerState(rule="sgd", learning_rate=lr),
            )
            loss_after, _ = generator_grads(candidate, disc, z)
            if loss_after < loss_before:
                break
            lr *= 0.5
        assert loss_after < loss_before

    def test_generator_gradients_match_finite_differences(self):
        # end-to-end through D into G, versus numeric derivative
        rng = np.random.default_rng(14)
        gen = build_generator(1, latent_dim=2, depth=1, hidden=4, rng=rng)
        disc = build_discriminator(1, depth=1, hidden=3, rng=rng)
        z = sample_latent(2, 3, 2, rng=15)
        _, analytic = generator_grads(gen, disc, z)
        params = gen.net.parameters()
        eps = 1e-6
        for p_idx in range(len(params)):
            flat_idx = np.unravel_index(0, params[p_idx].shape)
            orig = params[p_idx][flat_idx]
            params[p_idx][flat_idx] = orig + eps
            lp, _ = generator_grads(gen, disc, z)
            params[p_idx][flat_idx] = orig - eps
            lm, _ = generator_grads(gen, disc, z)
            params[p_idx][flat_idx] = orig
            numeric = (lp - lm) / (2 * eps)
            assert abs(analytic[p_idx][flat_idx] - numeric) < 1e-6


def test_checkpoint_roundtrip(tmp_path):
    windows = np.random.default_rng(16).uniform(-0.5, 0.5, (16, 4, 2))
    model = train(tiny_config(epochs=2, mmd_every=1), windows)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for a, b in zip(model.generator.net.parameters(), loaded.generator.net.parameters()):
        npt.assert_array_equal(a, b)
    for a, b in zip(
        model.discriminator.net.parameters(), loaded.discriminator.net.parameters()
    ):
        npt.assert_array_equal(a, b)
    assert loaded.loss_history == model.loss_history
    assert loaded.mmd_history == model.mmd_history
    assert loaded.epochs_completed == 2
    assert loaded.config == model.config


def test_checkpoint_with_optimizer_state_loads(tmp_path):
    """Checkpoints written when Adam moments were still saved carry
    gopt_*/dopt_* arrays and optimizer_steps meta; the loader ignores them."""
    windows = np.random.default_rng(18).uniform(-0.5, 0.5, (16, 4, 2))
    model = train(tiny_config(epochs=1), windows)
    save_checkpoint(model, tmp_path / "current.npz")
    with np.load(tmp_path / "current.npz") as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays.pop("meta")).decode())
    meta["optimizer_steps"] = {"gen": 1, "disc": 1}
    for prefix, net in (("gopt_", model.generator.net), ("dopt_", model.discriminator.net)):
        for i, p in enumerate(net.parameters()):
            arrays[f"{prefix}m{i}"] = np.full_like(p, 0.1)
            arrays[f"{prefix}v{i}"] = np.full_like(p, 0.01)
    old = tmp_path / "with_optimizer.npz"
    np.savez(old, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)

    loaded = load_checkpoint(old)
    for a, b in zip(model.generator.net.parameters(), loaded.generator.net.parameters()):
        npt.assert_array_equal(a, b)
    for a, b in zip(
        model.discriminator.net.parameters(), loaded.discriminator.net.parameters()
    ):
        npt.assert_array_equal(a, b)
    assert loaded.config == model.config
    assert loaded.loss_history == model.loss_history


def test_checkpoint_interval_writes_files(tmp_path):
    windows = np.random.default_rng(17).uniform(-0.5, 0.5, (16, 4, 1))
    cfg = tiny_config(epochs=4, checkpoint_interval=2, checkpoint_dir=str(tmp_path))
    train(cfg, windows)
    assert (tmp_path / "epoch_00002.npz").exists()
    assert (tmp_path / "epoch_00004.npz").exists()
