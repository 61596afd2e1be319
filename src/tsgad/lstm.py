"""Stacked LSTM with exact backpropagation through time, in plain numpy.

Gate layout is the standard (input, forget, output, candidate) quadruple with
sigmoid gates and tanh candidate/cell output; the four gate blocks are stacked
row-wise inside each weight matrix.

All parameter arrays of a net share one floating dtype.  ``init_lstm`` stores
``PARAM_DTYPE`` (float32); a checkpoint keeps the dtype it was saved in.  The
forward pass, the backward pass and the optimizer work in the parameters'
dtype, so inputs and upstream gradients are cast to it.

``sigmoid`` clips its argument to +/-50 to keep exp() finite.  The backward
pass needs no clamp mask: tanh(+/-50) and sigmoid(+50) are exactly +/-1 and 1
in float32 and float64, so their slopes are 0, and below -50 the sigmoid slope
is sigmoid(-50) * (1 - sigmoid(-50)) ~ 1.9e-22, a normal number in both dtypes.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

CLAMP = 50.0
PARAM_DTYPE = np.float32


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of ``z`` clipped to +/-CLAMP, so exp() never overflows."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -CLAMP, CLAMP)))


@dataclass
class StackedLstm:
    """A stack of LSTM layers with a linear output projection.

    ``params`` maps each parameter name to its array, in this order:
    ``l<i>_w_in`` (4h, d), ``l<i>_w_rec`` (4h, h) and ``l<i>_bias`` (4h,) for
    each layer i from the bottom, then ``out_w`` (o, h_top) and ``out_b`` (o,).
    The gates (i, f, o, g) are stacked along the first axis of each layer's
    arrays.  Gradients come back under the same names in the same order, and
    checkpoints store these names behind a ``gen_``/``disc_`` prefix.
    """

    params: dict[str, np.ndarray]
    output_activation: str = "identity"

    def __post_init__(self):
        depth = 0
        while any(name.startswith(f"l{depth}_") for name in self.params):
            depth += 1
        if depth == 0:
            raise ValueError("need at least one layer")
        layout = [f"l{i}_{part}" for i in range(depth) for part in ("w_in", "w_rec", "bias")]
        layout += ["out_w", "out_b"]
        missing = [name for name in layout if name not in self.params]
        extra = [name for name in self.params if name not in layout]
        if missing or extra:
            raise ValueError(
                f"parameters do not fit a {depth}-layer net: "
                f"missing {missing}, unexpected {extra}"
            )
        p = self.params = {name: self.params[name] for name in layout}

        size = None
        for i in range(depth):
            w_in, w_rec, bias = p[f"l{i}_w_in"], p[f"l{i}_w_rec"], p[f"l{i}_bias"]
            if w_in.ndim != 2 or w_in.shape[0] % 4 != 0:
                raise ValueError(f"l{i}_w_in shape {w_in.shape} is not (4*hidden, input)")
            if i > 0 and w_in.shape[1] != size:
                raise ValueError("layer input size must match previous hidden size")
            four_h = w_in.shape[0]
            if w_rec.shape != (four_h, four_h // 4):
                raise ValueError(f"l{i}_w_rec shape mismatch: {w_rec.shape}")
            if bias.shape != (four_h,):
                raise ValueError(f"l{i}_bias shape mismatch: {bias.shape}")
            size = four_h // 4
        if p["out_w"].ndim != 2 or p["out_w"].shape[1] != size:
            raise ValueError("output projection must consume top hidden state")
        if p["out_b"].shape != (p["out_w"].shape[0],):
            raise ValueError("output bias shape mismatch")
        if self.output_activation not in ("tanh", "sigmoid", "identity"):
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        dtype = p["out_w"].dtype
        for name, array in p.items():
            if array.dtype != dtype or not np.issubdtype(dtype, np.floating):
                raise ValueError(
                    f"parameter {name} has dtype {array.dtype}; "
                    "all parameters need one floating dtype"
                )

    @property
    def depth(self) -> int:
        return (len(self.params) - 2) // 3

    @property
    def input_size(self) -> int:
        return self.params["l0_w_in"].shape[1]

    @property
    def output_size(self) -> int:
        return self.params["out_w"].shape[0]

    def copy(self) -> "StackedLstm":
        return StackedLstm(
            {name: array.copy() for name, array in self.params.items()},
            self.output_activation,
        )


def init_lstm(
    depth: int,
    input_size: int,
    hidden_size: int,
    output_size: int,
    output_activation: str = "identity",
    rng: np.random.Generator | int | None = None,
    weight_scale: float = 0.08,
) -> StackedLstm:
    """Seeded initialization: uniform weights, +1 forget-gate bias, zero elsewhere.

    Weights are drawn in float64 and stored as ``PARAM_DTYPE``, so the rng
    stream does not depend on the storage dtype.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    def uniform(shape):
        return rng.uniform(-weight_scale, weight_scale, shape).astype(PARAM_DTYPE)

    params = {}
    d = input_size
    for i in range(depth):
        params[f"l{i}_w_in"] = uniform((4 * hidden_size, d))
        params[f"l{i}_w_rec"] = uniform((4 * hidden_size, hidden_size))
        biases = np.zeros(4 * hidden_size, PARAM_DTYPE)
        biases[hidden_size : 2 * hidden_size] = 1.0  # forget gate opens early training
        params[f"l{i}_bias"] = biases
        d = hidden_size
    params["out_w"] = uniform((output_size, hidden_size))
    params["out_b"] = np.zeros(output_size, PARAM_DTYPE)
    return StackedLstm(params, output_activation)


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(pre)
    if kind == "sigmoid":
        return sigmoid(pre)
    return pre


def forward_batch(net: StackedLstm, sequences: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Run a (batch, time, features) tensor through the stack.

    Initial hidden and cell states are zero.  Returns the outputs and a cache
    ``(layers, outputs)`` for an exact backward pass, where ``layers`` holds
    one ``(inputs, gates, cell, hidden)`` tuple per layer from the bottom:
    (B, L, d), the activated (i, f, o, g) gates (B, L, 4h), and (B, L, h)
    twice.  The sequences are cast to the parameters' dtype, and every array
    in the result has that dtype.
    """
    p = net.params
    dtype = p["out_w"].dtype
    x = np.asarray(sequences, dtype=dtype)
    if x.ndim != 3:
        raise ValueError(f"sequences must be (batch, time, features), got {x.shape}")
    if x.shape[2] != net.input_size:
        raise ValueError(
            f"feature dim {x.shape[2]} does not match net input size {net.input_size}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    batch, steps, _ = x.shape

    layers = []
    for idx in range(net.depth):
        w_rec = p[f"l{idx}_w_rec"]
        bias = p[f"l{idx}_bias"]
        h_size = w_rec.shape[1]
        gates = np.empty((batch, steps, 4 * h_size), dtype)
        cell = np.empty((batch, steps, h_size), dtype)
        hidden = np.empty((batch, steps, h_size), dtype)

        h_prev = np.zeros((batch, h_size), dtype)
        c_prev = np.zeros((batch, h_size), dtype)
        w_in_t = p[f"l{idx}_w_in"].T
        w_rec_t = w_rec.T
        for t in range(steps):
            pre = x[:, t] @ w_in_t + h_prev @ w_rec_t + bias
            ifo = sigmoid(pre[:, : 3 * h_size])
            g = np.tanh(pre[:, 3 * h_size :])
            gates[:, t, : 3 * h_size], gates[:, t, 3 * h_size :] = ifo, g
            i, f, o = ifo[:, :h_size], ifo[:, h_size : 2 * h_size], ifo[:, 2 * h_size :]
            c = f * c_prev + i * g
            h = o * np.tanh(c)
            cell[:, t], hidden[:, t] = c, h
            h_prev, c_prev = h, c
        layers.append((x, gates, cell, hidden))
        x = hidden

    outputs = _activate(x @ p["out_w"].T + p["out_b"], net.output_activation)
    return outputs, (layers, outputs)


def backward_batch(
    net: StackedLstm, cache: tuple, output_grads: np.ndarray, weights: bool = True
) -> tuple[dict[str, np.ndarray] | None, np.ndarray]:
    """Exact BPTT for the scalar loss whose per-output partials are given.

    Returns ``(grads, input_grads)``: the parameter gradients keyed and
    ordered like ``net.params``, and the gradient with respect to the
    sequences ``forward_batch`` was given.  The partials are cast to the
    parameters' dtype, and every gradient has it.

    With ``weights=False`` the parameter gradients are not formed and
    ``grads`` is None; the input gradients are bitwise those of the full
    pass.  Callers that hold a net fixed (latent inversion, the frozen
    discriminator in a generator step) use it.
    """
    p = net.params
    dtype = p["out_w"].dtype
    layers, outputs = cache
    d_out = np.asarray(output_grads, dtype=dtype)
    if d_out.shape != outputs.shape:
        raise ValueError(
            f"output_grads shape {d_out.shape} does not match outputs {outputs.shape}"
        )
    if len(layers) != net.depth:
        raise ValueError("cache does not belong to this network")
    batch, steps, _ = d_out.shape

    if net.output_activation == "tanh":
        d_pre = d_out * (1.0 - outputs**2)
    elif net.output_activation == "sigmoid":
        d_pre = d_out * outputs * (1.0 - outputs)
    else:
        d_pre = d_out

    grads = None
    if weights:
        grads = dict.fromkeys(p)
        grads["out_w"] = np.einsum("blo,blh->oh", d_pre, layers[-1][3])
        grads["out_b"] = d_pre.sum(axis=(0, 1))
    d_hidden_seq = d_pre @ p["out_w"]

    for idx in range(net.depth - 1, -1, -1):
        w_in, w_rec = p[f"l{idx}_w_in"], p[f"l{idx}_w_rec"]
        inputs, gates, cell, hidden = layers[idx]
        h_size = w_rec.shape[1]

        if weights:
            d_gates = np.empty((batch, steps, 4 * h_size), dtype)
        d_inputs = np.empty_like(inputs)

        cell_tanh = np.tanh(cell)
        d_h_rec = np.zeros((batch, h_size), dtype)
        d_c = np.zeros((batch, h_size), dtype)
        for t in range(steps - 1, -1, -1):
            act = gates[:, t]
            i = act[:, :h_size]
            f = act[:, h_size : 2 * h_size]
            o = act[:, 2 * h_size : 3 * h_size]
            g = act[:, 3 * h_size :]
            ct = cell_tanh[:, t]
            c_prev = cell[:, t - 1] if t > 0 else np.zeros((batch, h_size), dtype)

            d_h = d_hidden_seq[:, t] + d_h_rec
            d_o = d_h * ct
            d_c = d_c + d_h * o * (1.0 - ct**2)
            d_i = d_c * g
            d_g = d_c * i
            d_f = d_c * c_prev
            d_c_prev = d_c * f

            d_a = np.concatenate(
                [
                    d_i * i * (1.0 - i),
                    d_f * f * (1.0 - f),
                    d_o * o * (1.0 - o),
                    d_g * (1.0 - g**2),
                ],
                axis=1,
            )

            if weights:
                d_gates[:, t] = d_a
            d_inputs[:, t] = d_a @ w_in
            d_h_rec = d_a @ w_rec
            d_c = d_c_prev

        if weights:
            # one product per weight array sums over batch and time; h_prev is
            # the hidden state entering each step, zero before t = 0
            flat = d_gates.reshape(-1, 4 * h_size)
            grads[f"l{idx}_w_in"] = flat.T @ inputs.reshape(batch * steps, -1)
            h_prev = np.zeros_like(hidden)
            h_prev[:, 1:] = hidden[:, :-1]
            grads[f"l{idx}_w_rec"] = flat.T @ h_prev.reshape(-1, h_size)
            grads[f"l{idx}_bias"] = flat.sum(axis=0)
        d_hidden_seq = d_inputs

    return grads, d_hidden_seq


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class OptimizerState:
    """Adam with bias-corrected moments."""

    learning_rate: float
    step: int = 0
    first_moment: list[np.ndarray] | None = None
    second_moment: list[np.ndarray] | None = None


def optimizer_step(
    params: Collection[np.ndarray],
    grads: Collection[np.ndarray],
    state: OptimizerState,
) -> None:
    """Update parameters in place by one Adam step."""
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("diverged: non-finite gradients")

    if state.first_moment is None:
        state.first_moment = [np.zeros_like(p) for p in params]
        state.second_moment = [np.zeros_like(p) for p in params]
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**state.step
    bias2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPSILON)


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most max_norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
