import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from tsgad import gan, lstm
from tsgad.config import ConfigError, validate_config
from tsgad.gan import (
    TrainingDiverged,
    build_discriminator,
    build_generator,
    d_loss,
    discriminator_grads,
    g_loss,
    generator_grads,
    load_checkpoint,
    save_checkpoint,
    train,
)
from tsgad.mmd import median_heuristic, mmd_unbiased


SEED = 0


def float64_twin(net):
    """The same net with every parameter array cast to float64, for
    finite-difference checks and for float64 checkpoints."""
    return lstm.StackedLstm(
        {k: v.astype(np.float64) for k, v in net.params.items()}, net.output_activation
    )


def assert_same_params(net, ref):
    assert list(net.params) == list(ref.params)
    for a, b in zip(net.params.values(), ref.params.values()):
        npt.assert_array_equal(a, b)


def tiny_config(**overrides):
    """The validated ``gan`` section, sized down, with ``overrides`` on top."""
    return {
        **validate_config({})["gan"],
        "epochs": 3,
        "batch_size": 16,
        "d_steps": 1,
        "g_steps": 1,
        "d_learning_rate": 1e-2,
        "g_learning_rate": 1e-2,
        "latent_dim": 2,
        "gen_depth": 1,
        "gen_hidden": 6,
        "disc_depth": 1,
        "disc_hidden": 4,
        **overrides,
    }


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
        raw = np.array([[0.6, 0.8], [0.5, 0.5]])[..., None]  # (sequences, steps, 1)
        # training averages each sequence's per-timestep D before the loss
        # (TestUpdateDirections checks the losses discriminator_grads reports)
        npt.assert_allclose(gan._clipped_seq_scores(raw), [0.7, 0.5], rtol=0, atol=1e-15)


class TestGLoss:
    def test_indifferent_point(self):
        assert g_loss(np.full(5, 0.5)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_fooled_discriminator_limit(self):
        assert g_loss(np.full(3, 1 - 1e-12)) < 1e-10

    def test_hand_case(self):
        expected = 0.5 * (math.log(4.0) + math.log(2.0))
        assert g_loss(np.array([0.25, 0.5])) == pytest.approx(expected, abs=1e-12)


def generate(gen, z):
    """The generator's forward pass, as training and inversion run it."""
    return lstm.forward_batch(gen, z)[0]


class TestGenerate:
    def test_deterministic(self):
        gen = build_generator(3, latent_dim=2, depth=1, hidden=5, rng=1)
        z = np.random.default_rng(2).standard_normal((4, 6, 2))
        npt.assert_array_equal(generate(gen, z), generate(gen, z))

    def test_zero_parameter_generator_emits_zeros(self):
        gen = build_generator(2, latent_dim=2, depth=1, hidden=4, rng=3)
        for p in gen.params.values():
            p[...] = 0.0
        gen.output_activation = "identity"
        out = generate(gen, np.random.default_rng(4).standard_normal((2, 5, 2)))
        npt.assert_array_equal(out, np.zeros((2, 5, 2)))

    def test_tanh_outputs_bounded(self):
        gen = build_generator(2, latent_dim=3, depth=2, hidden=6, rng=5)
        out = generate(gen, 100.0 * np.random.default_rng(6).standard_normal((3, 4, 3)))
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_latent_dim_mismatch(self):
        gen = build_generator(2, latent_dim=3, depth=1, hidden=4, rng=7)
        with pytest.raises(ValueError, match="feature dim 5 does not match net input size 3"):
            generate(gen, np.zeros((2, 4, 5)))


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        windows = np.zeros((8, 4, 1))
        model = train(tiny_config(epochs=0), windows, SEED)
        assert model.history == []
        ref = build_generator(1, latent_dim=2, depth=1, hidden=6,
                              rng=np.random.default_rng(0))
        assert_same_params(model.generator, ref)

    def test_constant_data_convergence(self):
        # degenerate target distribution: all windows equal a constant
        target = 0.4
        windows = np.full((64, 4, 1), target)
        cfg = tiny_config(epochs=400, batch_size=64, g_steps=3, gen_hidden=8,
                          disc_hidden=16)
        model = train(cfg, windows, SEED)
        z = np.random.default_rng(123).standard_normal((200, 4, 2))
        samples = generate(model.generator, z)
        assert abs(samples.mean() - target) < 0.1

    def test_fixed_seed_is_reproducible(self):
        windows = np.random.default_rng(9).uniform(0.2, 0.8, (16, 4, 2))
        a = train(tiny_config(), windows, SEED)
        b = train(tiny_config(), windows, SEED)
        assert_same_params(a.generator, b.generator)
        assert_same_params(a.discriminator, b.discriminator)
        assert a.history == b.history

    def test_histories_match_epochs_and_mmd_interval(self):
        # the MMD interval is one epoch: every record holds three finite floats
        windows = np.random.default_rng(10).uniform(-0.5, 0.5, (16, 4, 1))
        model = train(tiny_config(epochs=4), windows, SEED)
        assert [list(h) for h in model.history] == [["d_loss", "g_loss", "mmd"]] * 4
        for h in model.history:
            assert all(isinstance(v, float) and math.isfinite(v) for v in h.values())

    def test_every_epoch_mmd_uses_one_bandwidth(self, monkeypatch):
        # 16 windows and mmd_samples 128: the reference set is every window
        windows = np.random.default_rng(22).uniform(-0.5, 0.5, (16, 4, 2))
        bandwidths = []

        def recording_mmd(gen_set, ref_set, bandwidth):
            bandwidths.append(bandwidth)
            return mmd_unbiased(gen_set, ref_set, bandwidth)

        monkeypatch.setattr(gan, "mmd_unbiased", recording_mmd)
        train(tiny_config(epochs=4), windows, SEED)
        assert len(bandwidths) == 4
        assert len(set(bandwidths)) == 1
        assert bandwidths[0] == pytest.approx(median_heuristic(windows), rel=1e-12)

    def test_non_finite_window_rejected(self):
        windows = np.zeros((8, 4, 1))
        windows[3, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            train(tiny_config(), windows, SEED)

    def test_non_finite_gradients_abort_with_last_good_model(self, monkeypatch):
        windows = np.random.default_rng(11).uniform(-0.5, 0.5, (8, 4, 1))
        cfg = tiny_config(epochs=2, batch_size=4)
        reference = train({**cfg, "epochs": 1}, windows, SEED)
        real_grads = gan.discriminator_grads
        calls = []

        def nan_in_epoch_two(disc, real, fake):
            loss, grads = real_grads(disc, real, fake)
            calls.append(None)
            if len(calls) > 2:  # two minibatches per epoch
                grads[0][0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(gan, "discriminator_grads", nan_in_epoch_two)
        with pytest.raises(TrainingDiverged, match="gradient norm nan at epoch 2") as exc_info:
            train(cfg, windows, SEED)
        model = exc_info.value.model
        assert len(model.history) == 1
        assert model.history == reference.history
        assert_same_params(model.generator, reference.generator)
        assert_same_params(model.discriminator, reference.discriminator)

    def test_shape_bug_is_not_reported_as_divergence(self, monkeypatch):
        # a generator emitting the wrong width fails inside the epoch
        real_forward = lstm.forward_batch

        def wrong_width_generator(net, sequences, **kwargs):
            out, cache = real_forward(net, sequences, **kwargs)
            if net.output_activation == "tanh":
                out = np.zeros(out.shape[:2] + (2,))
            return out, cache

        monkeypatch.setattr(lstm, "forward_batch", wrong_width_generator)
        with pytest.raises(ValueError, match="feature dim"):
            train(tiny_config(), np.zeros((8, 4, 1)), SEED)

    def test_every_kept_cache_is_read(self, kept_caches):
        # the MMD batch of 24 windows and the discriminator step's fakes
        # run with cache=False
        windows = np.random.default_rng(31).uniform(-0.5, 0.5, (24, 4, 1))
        train(tiny_config(epochs=2, batch_size=8, mmd_samples=24), windows, SEED)
        kept, unread = kept_caches()
        assert kept and not unread

    def test_one_window_with_mmd_names_the_cause(self):
        with pytest.raises(ValueError, match=r"MMD needs at least 2 training windows, got 1"):
            train(tiny_config(epochs=1), np.zeros((1, 4, 1)), SEED)
        assert train(tiny_config(epochs=0), np.zeros((1, 4, 1)), SEED).history == []


def descent_step(net, grads, lr):
    """A copy of ``net`` after one plain gradient step p -= lr * g."""
    stepped = net.copy()
    for p, g in zip(stepped.params.values(), grads):
        p -= lr * g
    return stepped


class TestUpdateDirections:
    def test_grads_report_the_tested_losses(self):
        rng = np.random.default_rng(23)
        gen = build_generator(2, latent_dim=2, depth=1, hidden=6, rng=rng)
        disc = build_discriminator(2, depth=1, hidden=6, rng=rng)
        real = rng.uniform(-0.8, 0.8, (8, 5, 2))
        z = np.random.default_rng(24).standard_normal((8, 5, 2))
        fake = generate(gen, z)
        # one score per sequence: the mean of its per-timestep scores
        real_scores = lstm.forward_batch(disc, real)[0][..., 0].astype(np.float64).mean(axis=1)
        fake_scores = lstm.forward_batch(disc, fake)[0][..., 0].astype(np.float64).mean(axis=1)
        assert discriminator_grads(disc, real, fake)[0] == d_loss(real_scores, fake_scores)
        assert generator_grads(gen, disc, z)[0] == g_loss(fake_scores)

    def test_frozen_discriminator_skips_only_its_weight_gradients(self, monkeypatch):
        rng = np.random.default_rng(25)
        gen = build_generator(2, latent_dim=2, depth=2, hidden=6, rng=rng)
        disc = build_discriminator(2, depth=2, hidden=6, rng=rng)
        z = np.random.default_rng(26).standard_normal((8, 5, 2))
        loss, grads = generator_grads(gen, disc, z)
        full_backward, asked = lstm.backward_batch, []

        def every_gradient(net, cache, output_grads, weights=True):
            # both passes' gradients, whichever the caller asked for
            asked.append(weights)
            return (full_backward(net, cache, output_grads, weights=True)[0],
                    full_backward(net, cache, output_grads, weights=False)[1])

        monkeypatch.setattr(lstm, "backward_batch", every_gradient)
        ref_loss, ref_grads = generator_grads(gen, disc, z)
        assert asked == [False, True]
        assert loss == ref_loss
        for g, ref in zip(grads, ref_grads, strict=True):
            npt.assert_array_equal(g, ref)

    def test_discriminator_update_decreases_d_loss(self):
        rng = np.random.default_rng(11)
        disc = build_discriminator(2, depth=1, hidden=6, rng=rng)
        real = rng.uniform(0.2, 0.8, (8, 5, 2))
        fake = rng.uniform(-0.8, -0.2, (8, 5, 2))
        loss_before, grads = discriminator_grads(disc, real, fake)
        lr = 0.5
        for _ in range(10):
            candidate = descent_step(disc, grads, lr)
            loss_after, _ = discriminator_grads(candidate, real, fake)
            if loss_after < loss_before:
                break
            lr *= 0.5
        assert loss_after < loss_before

    def test_generator_update_decreases_g_loss(self):
        rng = np.random.default_rng(12)
        gen = build_generator(2, latent_dim=2, depth=1, hidden=6, rng=rng)
        disc = build_discriminator(2, depth=1, hidden=6, rng=rng)
        z = np.random.default_rng(13).standard_normal((8, 5, 2))
        loss_before, grads = generator_grads(gen, disc, z)
        lr = 0.5
        for _ in range(10):
            candidate = descent_step(gen, grads, lr)
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
        gen = float64_twin(gen)
        disc = float64_twin(disc)
        z = np.random.default_rng(15).standard_normal((2, 3, 2))
        _, analytic = generator_grads(gen, disc, z)
        params = list(gen.params.values())
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


class TestSaturatedDiscriminator:
    def test_losses_stay_finite_at_a_score_of_exactly_one(self):
        # sigmoid(50) is exactly 1 in float32; the loss clip must not run in float32,
        # where 1 - SCORE_EPS is also exactly 1 and log(1 - score) is log(0)
        rng = np.random.default_rng(19)
        gen = build_generator(2, latent_dim=2, depth=1, hidden=4, rng=rng)
        disc = build_discriminator(2, depth=1, hidden=4, rng=rng)
        disc.params["out_b"][:] = 100.0
        z = rng.standard_normal((3, 5, 2))
        fake = generate(gen, z)
        assert np.all(lstm.forward_batch(disc, fake)[0] == 1.0)
        d_value, d_grads = discriminator_grads(disc, rng.uniform(-1, 1, (3, 5, 2)), fake)
        g_value, g_grads = generator_grads(gen, disc, z)
        assert np.isfinite(d_value) and np.isfinite(g_value)
        for grad in d_grads + g_grads:
            assert np.all(np.isfinite(grad))


def test_checkpoint_roundtrip(tmp_path):
    windows = np.random.default_rng(16).uniform(-0.5, 0.5, (16, 4, 2))
    model = train(tiny_config(epochs=2), windows, SEED)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for net, ref in ((loaded.generator, model.generator),
                     (loaded.discriminator, model.discriminator)):
        assert_same_params(net, ref)
        assert all(p.dtype == np.float32 for p in net.params.values())
    assert len(loaded.history) == 2
    assert loaded.history == model.history
    assert loaded.config == model.config


def test_model_config_records_settings_length_and_seed(tmp_path):
    settings = tiny_config(epochs=1)
    windows = np.random.default_rng(24).uniform(-0.5, 0.5, (8, 4, 2))
    model = train(settings, windows, 5)
    assert model.config == {**settings, "sequence_length": 4, "seed": 5}
    save_checkpoint(model, tmp_path / "model.npz")
    assert load_checkpoint(tmp_path / "model.npz").config == model.config


def _without_history(arrays, meta):
    del meta["history"]


def _with_optimizer_state(arrays, meta):
    arrays["gopt_m0"] = np.zeros_like(arrays["gen_out_b"])


@pytest.mark.parametrize(
    "edit, message",
    [
        (_with_optimizer_state, r"arrays outside gen_\*/disc_\*: \['gopt_m0'\]"),
        (_without_history, "meta has no history"),
    ],
    ids=["optimizer-state", "no-history"],
)
def test_checkpoint_format_nothing_writes_is_refused(tmp_path, edit, message):
    """No stage writes the Adam moments or a meta without per-epoch history
    any more, so a checkpoint that holds either is refused by path."""
    model = train(tiny_config(epochs=0), np.zeros((4, 4, 2)), SEED)
    save_checkpoint(model, tmp_path / "model.npz")
    with np.load(tmp_path / "model.npz") as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays.pop("meta")).decode())
    edit(arrays, meta)
    path = tmp_path / "edited.npz"
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: {message}"):
        load_checkpoint(path)


def test_float64_checkpoint_runs_in_float64(tmp_path):
    """Checkpoints written before the nets were stored in float32 hold float64
    arrays; they load, and compute, in float64."""
    windows = np.random.default_rng(20).uniform(-0.5, 0.5, (16, 4, 2))
    model = train(tiny_config(epochs=1), windows, SEED)
    model.generator = float64_twin(model.generator)
    model.discriminator = float64_twin(model.discriminator)
    save_checkpoint(model, tmp_path / "float64.npz")
    loaded = load_checkpoint(tmp_path / "float64.npz")
    z = np.random.default_rng(21).standard_normal((3, 4, 2))
    for net, ref, inputs in (
        (loaded.generator, model.generator, z),
        (loaded.discriminator, model.discriminator, windows[:3]),
    ):
        assert all(p.dtype == np.float64 for p in net.params.values())
        out = lstm.forward_batch(net, inputs)[0]
        assert out.dtype == np.float64
        npt.assert_array_equal(out, lstm.forward_batch(ref, inputs)[0])


@pytest.mark.parametrize(
    "drop, add, message",
    [
        ("gen_l0_w_rec", None, r"gen_\* arrays: .*missing \['l0_w_rec'\]"),
        ("disc_out_b", None, r"disc_\* arrays: .*missing \['out_b'\]"),
        (None, "gen_l9_w_in", r"gen_\* arrays: .*unexpected \['l9_w_in'\]"),
    ],
)
def test_checkpoint_with_missing_or_extra_array_rejected(tmp_path, drop, add, message):
    """The loader takes each net's depth from its arrays, so an array too
    few or too many is refused by name instead of silently ignored."""
    model = train(tiny_config(epochs=0), np.zeros((4, 4, 2)), SEED)
    save_checkpoint(model, tmp_path / "model.npz")
    with np.load(tmp_path / "model.npz") as data:
        arrays = {k: data[k] for k in data.files}
    if drop:
        del arrays[drop]
    if add:
        arrays[add] = arrays["gen_l0_w_in"]
    np.savez(tmp_path / "edited.npz", **arrays)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(tmp_path / "edited.npz")
