import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from tsgad import lstm
from tsgad.lstm import (
    OptimizerState,
    StackedLstm,
    backward_batch,
    clip_gradients,
    forward_batch,
    init_lstm,
    optimizer_step,
)


def float64_twin(net):
    """The same net with every parameter array cast to float64.

    Finite-difference and bitwise-consistency checks run on the twin: their
    tolerances are set for float64, not for the float32 nets ``init_lstm`` makes.
    """
    return StackedLstm(
        {k: v.astype(np.float64) for k, v in net.params.items()}, net.output_activation
    )


def grad_check(net, sequences, loss_fn, eps=1e-5):
    """Compare BPTT gradients against central finite differences.

    ``loss_fn`` maps the (batch, time, output) outputs to (loss, dloss/doutputs).
    Returns the worst relative error over all parameter entries.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    outputs, cache = forward_batch(net, sequences)
    _, d_outputs = loss_fn(outputs)
    analytic, _ = backward_batch(net, cache, d_outputs)

    worst = 0.0
    for param, grad in zip(net.params.values(), analytic.values()):
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + eps
            loss_plus, _ = loss_fn(forward_batch(net, sequences)[0])
            param[idx] = original - eps
            loss_minus, _ = loss_fn(forward_batch(net, sequences)[0])
            param[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            rel = abs(grad[idx] - numeric) / max(abs(grad[idx]), abs(numeric), 1e-8)
            worst = max(worst, rel)
            it.iternext()
    return worst


def zero_net(depth=1, d=2, h=3, o=2, activation="identity"):
    params = {}
    size = d
    for i in range(depth):
        params[f"l{i}_w_in"] = np.zeros((4 * h, size))
        params[f"l{i}_w_rec"] = np.zeros((4 * h, h))
        params[f"l{i}_bias"] = np.zeros(4 * h)
        size = h
    params["out_w"] = np.zeros((o, h))
    params["out_b"] = np.zeros(o)
    return StackedLstm(params, activation)


def scaled_linear_loss(shape, seed=0, scale=1e-2):
    """Loss with O(0.01) magnitude so finite differences stay well above
    float cancellation noise."""
    w = np.random.default_rng(seed).uniform(-1.0, 1.0, shape) * scale / np.prod(shape)

    def loss_fn(outputs):
        return float(np.sum(w * outputs)), w.copy()

    return loss_fn


class TestForward:
    def test_zero_parameters_fixed_point(self):
        net = zero_net()
        out, _ = forward_batch(net, np.random.default_rng(0).normal(size=(1, 6, 2)))
        npt.assert_array_equal(out, np.zeros((1, 6, 2)))

    def test_single_timestep_hand_computation(self):
        # one unit, one input, one step: check every gate by hand
        wi, wf, wo, wg = 0.3, -0.2, 0.5, 0.7
        bi, bf, bo, bg = 0.1, 0.2, -0.3, 0.05
        w_out, b_out = 1.3, -0.4
        x = 0.8
        net = StackedLstm(
            {
                "l0_w_in": np.array([[wi], [wf], [wo], [wg]]),
                "l0_w_rec": np.array([[0.9], [0.5], [-0.6], [0.2]]),
                "l0_bias": np.array([bi, bf, bo, bg]),
                "out_w": np.array([[w_out]]),
                "out_b": np.array([b_out]),
            },
            "identity",
        )
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        i = sig(wi * x + bi)
        o = sig(wo * x + bo)
        g = math.tanh(wg * x + bg)
        cell = i * g  # forget gate sees a zero initial cell
        expected = w_out * (o * math.tanh(cell)) + b_out
        out, _ = forward_batch(net, np.array([[[x]]]))
        assert out[0, 0, 0] == pytest.approx(expected, abs=1e-14)

    def test_causality_zero_padded_tail(self):
        net = init_lstm(2, 3, 5, 2, "tanh", rng=1, weight_scale=0.3)
        seq = np.random.default_rng(2).normal(size=(1, 4, 3))
        padded = np.concatenate([seq, np.zeros((1, 4, 3))], axis=1)
        short, _ = forward_batch(net, seq)
        long, _ = forward_batch(net, padded)
        npt.assert_allclose(long[:, :4], short, atol=1e-14)

    def test_causality_perturbed_future(self):
        net = init_lstm(1, 2, 4, 1, "identity", rng=3, weight_scale=0.3)
        rng = np.random.default_rng(4)
        seq = rng.normal(size=(1, 6, 2))
        other = seq.copy()
        other[:, 4:] += rng.normal(size=(1, 2, 2))
        a, _ = forward_batch(net, seq)
        b, _ = forward_batch(net, other)
        npt.assert_array_equal(a[:, :4], b[:, :4])
        assert not np.allclose(a[:, 4:], b[:, 4:])

    def test_sigmoid_outputs_strictly_inside_unit_interval(self):
        net = init_lstm(1, 2, 4, 1, "sigmoid", rng=5, weight_scale=0.3)
        out, _ = forward_batch(net, np.random.default_rng(6).normal(size=(1, 50, 2)) * 100)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_dimension_mismatch(self):
        net = zero_net(d=3)
        with pytest.raises(ValueError, match="feature dim"):
            forward_batch(net, np.zeros((1, 4, 2)))

    def test_non_finite_input(self):
        net = zero_net()
        bad = np.zeros((1, 3, 2))
        bad[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward_batch(net, bad)

    def test_deterministic(self):
        net = init_lstm(2, 2, 6, 2, "tanh", rng=7)
        seq = np.random.default_rng(8).normal(size=(1, 5, 2))
        a, _ = forward_batch(net, seq)
        b, _ = forward_batch(net, seq)
        npt.assert_array_equal(a, b)

    def test_batch_consistent_with_single(self):
        net = float64_twin(init_lstm(2, 3, 4, 2, "tanh", rng=9, weight_scale=0.3))
        batch = np.random.default_rng(10).normal(size=(4, 5, 3))
        batched, _ = forward_batch(net, batch)
        for k in range(4):
            single, _ = forward_batch(net, batch[k : k + 1])
            npt.assert_allclose(batched[k], single[0], atol=1e-14)


class TestBackward:
    def test_zero_output_grads(self):
        net = init_lstm(1, 2, 3, 2, "tanh", rng=11)
        seq = np.random.default_rng(12).normal(size=(1, 4, 2))
        _, cache = forward_batch(net, seq)
        grads, input_grads = backward_batch(net, cache, np.zeros((1, 4, 2)))
        for g in grads.values():
            npt.assert_array_equal(g, 0.0)
        npt.assert_array_equal(input_grads, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        depth = 1 + seed % 2
        act = ("identity", "tanh", "sigmoid")[seed % 3]
        net = float64_twin(init_lstm(depth, 2, 4 + seed, 3, act, rng=rng, weight_scale=0.4))
        seq = rng.normal(size=(1, 5, 2))
        loss_fn = scaled_linear_loss((1, 5, 3), seed=seed)
        assert grad_check(net, seq, loss_fn, 1e-5) < 1e-4

    def test_final_timestep_only_loss(self):
        net = float64_twin(init_lstm(1, 2, 5, 2, "tanh", rng=20, weight_scale=0.4))
        seq = np.random.default_rng(21).normal(size=(1, 5, 2))
        w = np.random.default_rng(22).uniform(-1, 1, 2) * 1e-2

        def loss_fn(outputs):
            grad = np.zeros_like(outputs)
            grad[0, -1] = w
            return float(outputs[0, -1] @ w), grad

        assert grad_check(net, seq, loss_fn, 1e-5) < 1e-4

    def test_input_gradients_match_finite_differences(self):
        net = float64_twin(init_lstm(2, 3, 4, 2, "tanh", rng=23, weight_scale=0.4))
        rng = np.random.default_rng(24)
        seq = rng.normal(size=(1, 4, 3))
        loss_fn = scaled_linear_loss((1, 4, 2), seed=25)
        out, cache = forward_batch(net, seq)
        _, d_out = loss_fn(out)
        _, analytic = backward_batch(net, cache, d_out)
        eps = 1e-6
        for t in range(4):
            for j in range(3):
                bumped = seq.copy()
                bumped[0, t, j] += eps
                lp, _ = loss_fn(forward_batch(net, bumped)[0])
                bumped[0, t, j] -= 2 * eps
                lm, _ = loss_fn(forward_batch(net, bumped)[0])
                numeric = (lp - lm) / (2 * eps)
                assert abs(analytic[0, t, j] - numeric) < 1e-7

    @pytest.mark.parametrize("steps", [1, 5])
    def test_batch_gradients_sum_per_sequence_gradients(self, steps):
        # weight gradients sum over batch and time; at steps = 1 the
        # recurrent weights get no term from a previous hidden state
        net = float64_twin(init_lstm(2, 3, 4, 2, "tanh", rng=27, weight_scale=0.4))
        rng = np.random.default_rng(28)
        seqs = rng.normal(size=(3, steps, 3))
        d_out = rng.normal(size=(3, steps, 2))
        _, cache = forward_batch(net, seqs)
        batched, batched_inputs = backward_batch(net, cache, d_out)
        rows = [
            backward_batch(net, forward_batch(net, seqs[k : k + 1])[1], d_out[k : k + 1])
            for k in range(3)
        ]
        for name, grad in batched.items():
            npt.assert_allclose(grad, sum(r[0][name] for r in rows), rtol=1e-12)
        for k in range(3):
            npt.assert_allclose(batched_inputs[k], rows[k][1][0], rtol=1e-12)

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_input_gradients_only(self, activation, depth, batch):
        # float32, as inversion and the frozen discriminator run it
        net = init_lstm(depth, 3, 6, 2, activation, rng=29, weight_scale=0.4)
        rng = np.random.default_rng(30)
        seqs = rng.normal(size=(batch, 4, 3))
        d_out = rng.normal(size=(batch, 4, 2))
        _, cache = forward_batch(net, seqs)
        grads, input_grads = backward_batch(net, cache, d_out, weights=False)
        assert grads is None
        npt.assert_array_equal(input_grads, backward_batch(net, cache, d_out)[1])

    def test_cache_mismatch(self):
        net = init_lstm(1, 2, 3, 2, "tanh", rng=26)
        _, cache = forward_batch(net, np.zeros((1, 4, 2)))
        with pytest.raises(ValueError, match="output_grads shape"):
            backward_batch(net, cache, np.zeros((1, 5, 2)))


class TestSaturation:
    @pytest.mark.parametrize("activation", ["identity", "tanh", "sigmoid"])
    def test_saturated_net_is_finite_and_silent(self, activation):
        net = init_lstm(2, 3, 8, 2, activation, rng=50, weight_scale=40.0)
        rng = np.random.default_rng(51)
        seqs = rng.normal(size=(4, 10, 3)) * 30.0
        # most first-step pre-activations lie beyond +/-CLAMP, so the clip acts
        first = seqs[:, 0] @ net.params["l0_w_in"].T + net.params["l0_bias"]
        assert np.mean(np.abs(first) >= lstm.CLAMP) > 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, cache = forward_batch(net, seqs)
            grads, input_grads = backward_batch(net, cache, rng.normal(size=out.shape))
        low, high = {"tanh": (-1.0, 1.0), "sigmoid": (0.0, 1.0)}.get(
            activation, (-np.inf, np.inf)
        )
        assert np.all(np.isfinite(out)) and np.all((out >= low) & (out <= high))
        for grad in [*grads.values(), input_grads]:
            assert np.all(np.isfinite(grad))

    def test_identity_head_is_not_clamped(self):
        net = zero_net(activation="identity")
        net.params["out_b"][:] = 100.0
        out, _ = forward_batch(net, np.zeros((1, 3, 2)))
        npt.assert_array_equal(out, 100.0)


class TestGradCheck:
    def test_linear_projection_path_is_exact(self):
        # identity output, loss linear in outputs: the projection parameters
        # see a purely linear map, so FD error collapses to float noise
        rng = np.random.default_rng(30)
        net = float64_twin(init_lstm(1, 2, 4, 3, "identity", rng=rng, weight_scale=0.5))
        seq = rng.normal(size=(1, 4, 2))
        loss_fn = scaled_linear_loss((1, 4, 3), seed=31)
        out, cache = forward_batch(net, seq)
        _, d_out = loss_fn(out)
        grads, _ = backward_batch(net, cache, d_out)
        eps = 1e-5
        for name in ("out_w", "out_b"):
            param, grad = net.params[name], grads[name]
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + eps
                lp, _ = loss_fn(forward_batch(net, seq)[0])
                param[idx] = orig - eps
                lm, _ = loss_fn(forward_batch(net, seq)[0])
                param[idx] = orig
                numeric = (lp - lm) / (2 * eps)
                rel = abs(grad[idx] - numeric) / max(abs(grad[idx]), abs(numeric), 1e-8)
                assert rel < 1e-7
                it.iternext()

    def test_seeded_small_net(self):
        rng = np.random.default_rng(33)
        net = float64_twin(init_lstm(1, 2, 4, 2, "tanh", rng=rng, weight_scale=0.4))
        seq = rng.normal(size=(1, 3, 2))
        assert grad_check(net, seq, scaled_linear_loss((1, 3, 2), seed=34), 1e-5) < 1e-4

    def test_zero_eps_rejected(self):
        net = init_lstm(1, 2, 3, 1, "tanh", rng=35)
        with pytest.raises(ValueError, match="eps"):
            grad_check(net, np.zeros((1, 3, 2)), scaled_linear_loss((1, 3, 1)), 0.0)


class TestOptimizer:
    def test_adam_against_hand_recurrence(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        g = 0.37
        p_hand = 1.5
        m = v = 0.0
        params = [np.array([1.5])]
        state = OptimizerState(learning_rate=lr)
        for t in range(1, 4):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p_hand -= lr * m_hat / (math.sqrt(v_hat) + eps)
            optimizer_step(params, [np.array([g])], state)
            assert params[0][0] == pytest.approx(p_hand, abs=1e-15)
        # first-step update magnitude is about lr thanks to bias correction
        assert abs(1.5 - (1.5 - lr * g / (abs(g) + eps))) == pytest.approx(lr, rel=1e-6)

    def test_zero_gradient_keeps_parameters(self):
        params = [np.array([2.0, -1.0])]
        optimizer_step(params, [np.zeros(2)], OptimizerState(learning_rate=1e-3))
        npt.assert_array_equal(params[0], [2.0, -1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            optimizer_step([np.zeros(2)], [np.zeros(3)], OptimizerState(learning_rate=1e-3))


class TestClipGradients:
    def test_scales_to_max_norm(self):
        grads = [np.array([3.0, 4.0])]
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(5.0)
        npt.assert_allclose(grads[0], [0.6, 0.8])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_gives_non_finite_norm(self, bad):
        # gan.train refuses a non-finite norm before optimizer_step sees the gradients
        grads = [np.array([3.0, 4.0]), np.array([bad])]
        assert not np.isfinite(clip_gradients(grads, 1.0))
        npt.assert_array_equal(grads[0], [3.0, 4.0])

    def test_below_threshold_untouched(self):
        grads = [np.array([0.3])]
        clip_gradients(grads, 5.0)
        npt.assert_array_equal(grads[0], [0.3])


def test_gradients_keyed_and_ordered_like_params():
    net = init_lstm(2, 3, 4, 2, "tanh", rng=40)
    assert list(net.params) == [
        "l0_w_in", "l0_w_rec", "l0_bias", "l1_w_in", "l1_w_rec", "l1_bias", "out_w", "out_b"
    ]
    _, cache = forward_batch(net, np.zeros((1, 3, 3)))
    grads, _ = backward_batch(net, cache, np.zeros((1, 3, 2)))
    assert list(grads) == list(net.params)
    for name, g in grads.items():
        assert g.shape == net.params[name].shape


def test_checkpoint_array_roundtrip(tmp_path):
    net = init_lstm(2, 3, 4, 2, "sigmoid", rng=41)
    np.savez(tmp_path / "net.npz", **net.params)
    with np.load(tmp_path / "net.npz") as data:
        rebuilt = StackedLstm({k: data[k] for k in data.files}, "sigmoid")
    assert list(rebuilt.params) == list(net.params)
    for a, b in zip(net.params.values(), rebuilt.params.values()):
        npt.assert_array_equal(a, b)
        assert a.dtype == b.dtype == lstm.PARAM_DTYPE


def test_params_are_put_in_layout_order():
    net = init_lstm(2, 3, 4, 2, "tanh", rng=42)
    shuffled = StackedLstm(dict(reversed(net.params.items())), "tanh")
    assert list(shuffled.params) == list(net.params)
    assert (shuffled.depth, shuffled.input_size, shuffled.output_size) == (2, 3, 2)


@pytest.mark.parametrize(
    "name, shape, message",
    [
        ("l0_w_in", (15, 3), "l0_w_in shape"),
        ("l0_w_rec", (16, 5), "l0_w_rec shape"),
        ("l1_bias", (12,), "l1_bias shape"),
        ("l1_w_in", (16, 3), "previous hidden size"),
        ("out_w", (2, 5), "top hidden state"),
        ("out_b", (3,), "output bias"),
    ],
)
def test_shape_mismatch_rejected(name, shape, message):
    params = dict(init_lstm(2, 3, 4, 2, "tanh", rng=44).params)
    params[name] = np.zeros(shape, np.float32)
    with pytest.raises(ValueError, match=message):
        StackedLstm(params, "tanh")


class TestDtype:
    def test_float32_generator_computes_in_float32(self):
        net = init_lstm(3, 15, 100, 7, "tanh", rng=60)
        rng = np.random.default_rng(61)
        out, cache = forward_batch(net, rng.normal(size=(4, 12, 15)))
        grads, input_grads = backward_batch(net, cache, rng.normal(size=out.shape))
        state = OptimizerState(learning_rate=1e-3)
        optimizer_step(net.params.values(), grads.values(), state)
        layers, outputs = cache
        arrays = [outputs, *(a for layer in layers for a in layer)]
        arrays += [*grads.values(), input_grads]
        arrays += [*net.params.values(), *state.first_moment, *state.second_moment]
        assert all(a.dtype == np.float32 for a in arrays)

    @pytest.mark.parametrize("batch", [1, 32])
    def test_float32_generator_matches_float64_twin(self, batch):
        net = init_lstm(3, 15, 100, 7, "tanh", rng=62)
        twin = float64_twin(net)
        rng = np.random.default_rng(63)
        z = rng.normal(size=(batch, 12, 15))
        d_out = rng.normal(size=(batch, 12, 7))
        out, cache = forward_batch(net, z)
        out64, cache64 = forward_batch(twin, z)
        npt.assert_allclose(out, out64, rtol=0, atol=1e-6)
        grads, input_grads = backward_batch(net, cache, d_out)
        grads64, input_grads64 = backward_batch(twin, cache64, d_out)
        for g, g64 in zip([*grads.values(), input_grads], [*grads64.values(), input_grads64]):
            npt.assert_allclose(g, g64, rtol=0, atol=1e-5 * np.abs(g64).max())

    def test_mixed_parameter_dtypes_rejected(self):
        arrays = dict(init_lstm(2, 3, 4, 2, "tanh", rng=64).params)
        arrays["l1_bias"] = arrays["l1_bias"].astype(np.float64)
        with pytest.raises(ValueError, match="l1_bias has dtype float64"):
            StackedLstm(arrays, "tanh")
        ints = {k: v.astype(np.int64) for k, v in arrays.items()}
        with pytest.raises(ValueError, match="l0_w_in has dtype int64"):
            StackedLstm(ints, "tanh")
