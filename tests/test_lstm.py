import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from tsgad import lstm
from tsgad.lstm import (
    GradientSet,
    LstmLayerParams,
    OptimizerState,
    StackedLstm,
    backward,
    clip_gradients,
    forward,
    forward_batch,
    grad_check,
    init_lstm,
    optimizer_step,
)


def zero_net(depth=1, d=2, h=3, o=2, activation="identity"):
    layers = []
    size = d
    for _ in range(depth):
        layers.append(
            LstmLayerParams(
                input_weights=np.zeros((4 * h, size)),
                recurrent_weights=np.zeros((4 * h, h)),
                biases=np.zeros(4 * h),
            )
        )
        size = h
    return StackedLstm(
        layers=layers,
        out_weights=np.zeros((o, h)),
        out_bias=np.zeros(o),
        output_activation=activation,
    )


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
        out, _ = forward(net, np.random.default_rng(0).normal(size=(6, 2)))
        npt.assert_array_equal(out, np.zeros((6, 2)))

    def test_single_timestep_hand_computation(self):
        # one unit, one input, one step: check every gate by hand
        wi, wf, wo, wg = 0.3, -0.2, 0.5, 0.7
        bi, bf, bo, bg = 0.1, 0.2, -0.3, 0.05
        w_out, b_out = 1.3, -0.4
        x = 0.8
        net = StackedLstm(
            layers=[
                LstmLayerParams(
                    input_weights=np.array([[wi], [wf], [wo], [wg]]),
                    recurrent_weights=np.array([[0.9], [0.5], [-0.6], [0.2]]),
                    biases=np.array([bi, bf, bo, bg]),
                )
            ],
            out_weights=np.array([[w_out]]),
            out_bias=np.array([b_out]),
            output_activation="identity",
        )
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        i = sig(wi * x + bi)
        o = sig(wo * x + bo)
        g = math.tanh(wg * x + bg)
        cell = i * g  # forget gate sees a zero initial cell
        expected = w_out * (o * math.tanh(cell)) + b_out
        out, _ = forward(net, np.array([[x]]))
        assert out[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_causality_zero_padded_tail(self):
        net = init_lstm(2, 3, 5, 2, "tanh", rng=1, weight_scale=0.3)
        seq = np.random.default_rng(2).normal(size=(4, 3))
        padded = np.vstack([seq, np.zeros((4, 3))])
        short, _ = forward(net, seq)
        long, _ = forward(net, padded)
        npt.assert_allclose(long[:4], short, atol=1e-14)

    def test_causality_perturbed_future(self):
        net = init_lstm(1, 2, 4, 1, "identity", rng=3, weight_scale=0.3)
        rng = np.random.default_rng(4)
        seq = rng.normal(size=(6, 2))
        other = seq.copy()
        other[4:] += rng.normal(size=(2, 2))
        a, _ = forward(net, seq)
        b, _ = forward(net, other)
        npt.assert_array_equal(a[:4], b[:4])
        assert not np.allclose(a[4:], b[4:])

    def test_sigmoid_outputs_strictly_inside_unit_interval(self):
        net = init_lstm(1, 2, 4, 1, "sigmoid", rng=5, weight_scale=0.3)
        out, _ = forward(net, np.random.default_rng(6).normal(size=(50, 2)) * 100)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_dimension_mismatch(self):
        net = zero_net(d=3)
        with pytest.raises(ValueError, match="feature dim"):
            forward(net, np.zeros((4, 2)))

    def test_non_finite_input(self):
        net = zero_net()
        bad = np.zeros((3, 2))
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward(net, bad)

    def test_deterministic(self):
        net = init_lstm(2, 2, 6, 2, "tanh", rng=7)
        seq = np.random.default_rng(8).normal(size=(5, 2))
        a, _ = forward(net, seq)
        b, _ = forward(net, seq)
        npt.assert_array_equal(a, b)

    def test_batch_consistent_with_single(self):
        net = init_lstm(2, 3, 4, 2, "tanh", rng=9, weight_scale=0.3)
        batch = np.random.default_rng(10).normal(size=(4, 5, 3))
        batched, _ = forward_batch(net, batch)
        for k in range(4):
            single, _ = forward(net, batch[k])
            npt.assert_allclose(batched[k], single, atol=1e-14)


class TestBackward:
    def test_zero_output_grads(self):
        net = init_lstm(1, 2, 3, 2, "tanh", rng=11)
        seq = np.random.default_rng(12).normal(size=(4, 2))
        _, cache = forward(net, seq)
        grads = backward(net, cache, np.zeros((4, 2)))
        for g in grads.arrays():
            npt.assert_array_equal(g, 0.0)
        npt.assert_array_equal(grads.inputs, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        depth = 1 + seed % 2
        act = ("identity", "tanh", "sigmoid")[seed % 3]
        net = init_lstm(depth, 2, 4 + seed, 3, act, rng=rng, weight_scale=0.4)
        seq = rng.normal(size=(5, 2))
        loss_fn = scaled_linear_loss((5, 3), seed=seed)
        assert grad_check(net, seq, loss_fn, 1e-5) < 1e-4

    def test_final_timestep_only_loss(self):
        net = init_lstm(1, 2, 5, 2, "tanh", rng=20, weight_scale=0.4)
        seq = np.random.default_rng(21).normal(size=(5, 2))
        w = np.random.default_rng(22).uniform(-1, 1, 2) * 1e-2

        def loss_fn(outputs):
            grad = np.zeros_like(outputs)
            grad[-1] = w
            return float(outputs[-1] @ w), grad

        assert grad_check(net, seq, loss_fn, 1e-5) < 1e-4

    def test_input_gradients_match_finite_differences(self):
        net = init_lstm(2, 3, 4, 2, "tanh", rng=23, weight_scale=0.4)
        rng = np.random.default_rng(24)
        seq = rng.normal(size=(4, 3))
        loss_fn = scaled_linear_loss((4, 2), seed=25)
        out, cache = forward(net, seq)
        _, d_out = loss_fn(out)
        analytic = backward(net, cache, d_out).inputs
        eps = 1e-6
        for t in range(4):
            for j in range(3):
                bumped = seq.copy()
                bumped[t, j] += eps
                lp, _ = loss_fn(forward(net, bumped)[0])
                bumped[t, j] -= 2 * eps
                lm, _ = loss_fn(forward(net, bumped)[0])
                numeric = (lp - lm) / (2 * eps)
                assert abs(analytic[t, j] - numeric) < 1e-7

    @pytest.mark.parametrize("steps", [1, 5])
    def test_batch_gradients_sum_per_sequence_gradients(self, steps):
        # weight gradients sum over batch and time; at steps = 1 the
        # recurrent weights get no term from a previous hidden state
        net = init_lstm(2, 3, 4, 2, "tanh", rng=27, weight_scale=0.4)
        rng = np.random.default_rng(28)
        seqs = rng.normal(size=(3, steps, 3))
        d_out = rng.normal(size=(3, steps, 2))
        _, cache = forward_batch(net, seqs)
        batched = lstm.backward_batch(net, cache, d_out)
        rows = [backward(net, forward(net, seqs[k])[1], d_out[k]) for k in range(3)]
        for p_idx, grad in enumerate(batched.arrays()):
            npt.assert_allclose(grad, sum(r.arrays()[p_idx] for r in rows), rtol=1e-12)
        for k in range(3):
            npt.assert_allclose(batched.inputs[k], rows[k].inputs, rtol=1e-12)

    def test_cache_mismatch(self):
        net = init_lstm(1, 2, 3, 2, "tanh", rng=26)
        _, cache = forward(net, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="output_grads shape"):
            backward(net, cache, np.zeros((5, 2)))


class TestSaturation:
    @pytest.mark.parametrize("activation", ["identity", "tanh", "sigmoid"])
    def test_saturated_net_is_finite_and_silent(self, activation):
        net = init_lstm(2, 3, 8, 2, activation, rng=50, weight_scale=40.0)
        rng = np.random.default_rng(51)
        seqs = rng.normal(size=(4, 10, 3)) * 30.0
        # most first-step pre-activations lie beyond +/-CLAMP, so the clip acts
        first = seqs[:, 0] @ net.layers[0].input_weights.T + net.layers[0].biases
        assert np.mean(np.abs(first) >= lstm.CLAMP) > 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, cache = forward_batch(net, seqs)
            grads = lstm.backward_batch(net, cache, rng.normal(size=out.shape))
        low, high = {"tanh": (-1.0, 1.0), "sigmoid": (0.0, 1.0)}.get(
            activation, (-np.inf, np.inf)
        )
        assert np.all(np.isfinite(out)) and np.all((out >= low) & (out <= high))
        for grad in grads.arrays() + [grads.inputs]:
            assert np.all(np.isfinite(grad))

    def test_identity_head_is_not_clamped(self):
        net = zero_net(activation="identity")
        net.out_bias[:] = 100.0
        out, _ = forward(net, np.zeros((3, 2)))
        npt.assert_array_equal(out, 100.0)


class TestGradCheck:
    def test_linear_projection_path_is_exact(self):
        # identity output, loss linear in outputs: the projection parameters
        # see a purely linear map, so FD error collapses to float noise
        rng = np.random.default_rng(30)
        net = init_lstm(1, 2, 4, 3, "identity", rng=rng, weight_scale=0.5)
        seq = rng.normal(size=(4, 2))
        loss_fn = scaled_linear_loss((4, 3), seed=31)
        out, cache = forward(net, seq)
        _, d_out = loss_fn(out)
        grads = backward(net, cache, d_out)
        eps = 1e-5
        for param, grad in (
            (net.out_weights, grads.out_weights),
            (net.out_bias, grads.out_bias),
        ):
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + eps
                lp, _ = loss_fn(forward(net, seq)[0])
                param[idx] = orig - eps
                lm, _ = loss_fn(forward(net, seq)[0])
                param[idx] = orig
                numeric = (lp - lm) / (2 * eps)
                rel = abs(grad[idx] - numeric) / max(abs(grad[idx]), abs(numeric), 1e-8)
                assert rel < 1e-7
                it.iternext()

    def test_seeded_small_net(self):
        rng = np.random.default_rng(33)
        net = init_lstm(1, 2, 4, 2, "tanh", rng=rng, weight_scale=0.4)
        seq = rng.normal(size=(3, 2))
        assert grad_check(net, seq, scaled_linear_loss((3, 2), seed=34), 1e-5) < 1e-4

    def test_zero_eps_rejected(self):
        net = init_lstm(1, 2, 3, 1, "tanh", rng=35)
        with pytest.raises(ValueError, match="eps"):
            grad_check(net, np.zeros((3, 2)), scaled_linear_loss((3, 1)), 0.0)


class TestOptimizer:
    def test_sgd_arithmetic(self):
        params = [np.array([1.0])]
        grads = [np.array([2.0])]
        optimizer_step(params, grads, OptimizerState(rule="sgd", learning_rate=0.1))
        assert params[0][0] == pytest.approx(0.8)

    def test_adam_against_hand_recurrence(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        g = 0.37
        p_hand = 1.5
        m = v = 0.0
        params = [np.array([1.5])]
        state = OptimizerState(rule="adam", learning_rate=lr)
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
        for rule in ("sgd", "adam"):
            params = [np.array([2.0, -1.0])]
            optimizer_step(params, [np.zeros(2)], OptimizerState(rule=rule))
            npt.assert_array_equal(params[0], [2.0, -1.0])

    def test_non_finite_gradients_diverge(self):
        params = [np.array([1.0])]
        with pytest.raises(ValueError, match="diverged"):
            optimizer_step(params, [np.array([np.nan])], OptimizerState(rule="sgd"))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            optimizer_step([np.zeros(2)], [np.zeros(3)], OptimizerState())


class TestClipGradients:
    def test_scales_to_max_norm(self):
        grads = [np.array([3.0, 4.0])]
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(5.0)
        npt.assert_allclose(grads[0], [0.6, 0.8])

    def test_below_threshold_untouched(self):
        grads = [np.array([0.3])]
        clip_gradients(grads, 5.0)
        npt.assert_array_equal(grads[0], [0.3])


def test_gradient_set_array_order_matches_parameters():
    net = init_lstm(2, 3, 4, 2, "tanh", rng=40)
    _, cache = forward(net, np.zeros((3, 3)))
    grads = backward(net, cache, np.zeros((3, 2)))
    params = net.parameters()
    arrays = grads.arrays()
    assert len(params) == len(arrays)
    for p, g in zip(params, arrays):
        assert p.shape == g.shape


def test_checkpoint_array_roundtrip():
    net = init_lstm(2, 3, 4, 2, "sigmoid", rng=41)
    rebuilt = StackedLstm.from_arrays(net.to_arrays(), 2, "sigmoid")
    for a, b in zip(net.parameters(), rebuilt.parameters()):
        npt.assert_array_equal(a, b)
