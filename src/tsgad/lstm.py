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

from dataclasses import dataclass

import numpy as np

CLAMP = 50.0
PARAM_DTYPE = np.float32


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of ``z`` clipped to +/-CLAMP, so exp() never overflows."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -CLAMP, CLAMP)))


@dataclass
class LstmLayerParams:
    """One recurrent layer: gates (i, f, o, g) stacked along the first axis."""

    input_weights: np.ndarray      # (4h, d)
    recurrent_weights: np.ndarray  # (4h, h)
    biases: np.ndarray             # (4h,)

    def __post_init__(self):
        four_h, d = self.input_weights.shape
        if four_h % 4 != 0:
            raise ValueError("first weight axis must be 4*hidden_size")
        h = four_h // 4
        if self.recurrent_weights.shape != (four_h, h):
            raise ValueError("recurrent weight shape mismatch")
        if self.biases.shape != (four_h,):
            raise ValueError("bias shape mismatch")

    @property
    def hidden_size(self) -> int:
        return self.input_weights.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.input_weights.shape[1]


@dataclass
class StackedLstm:
    """A stack of LSTM layers with a linear output projection."""

    layers: list[LstmLayerParams]
    out_weights: np.ndarray  # (o, h_top)
    out_bias: np.ndarray     # (o,)
    output_activation: str = "identity"

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        for lower, upper in zip(self.layers, self.layers[1:]):
            if upper.input_size != lower.hidden_size:
                raise ValueError("layer input size must match previous hidden size")
        if self.out_weights.shape[1] != self.layers[-1].hidden_size:
            raise ValueError("output projection must consume top hidden state")
        if self.out_bias.shape != (self.out_weights.shape[0],):
            raise ValueError("output bias shape mismatch")
        if self.output_activation not in ("tanh", "sigmoid", "identity"):
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        dtype = self.out_weights.dtype
        for name, array in self.to_arrays().items():
            if array.dtype != dtype or not np.issubdtype(dtype, np.floating):
                raise ValueError(
                    f"parameter {name} has dtype {array.dtype}; "
                    "all parameters need one floating dtype"
                )

    @property
    def input_size(self) -> int:
        return self.layers[0].input_size

    @property
    def output_size(self) -> int:
        return self.out_weights.shape[0]

    def parameters(self) -> list[np.ndarray]:
        """Live views of every parameter array, in a fixed order."""
        out = []
        for layer in self.layers:
            out.extend([layer.input_weights, layer.recurrent_weights, layer.biases])
        out.extend([self.out_weights, self.out_bias])
        return out

    def copy(self) -> "StackedLstm":
        return StackedLstm(
            layers=[
                LstmLayerParams(
                    l.input_weights.copy(), l.recurrent_weights.copy(), l.biases.copy()
                )
                for l in self.layers
            ],
            out_weights=self.out_weights.copy(),
            out_bias=self.out_bias.copy(),
            output_activation=self.output_activation,
        )

    def to_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        arrays = {}
        for i, layer in enumerate(self.layers):
            arrays[f"{prefix}l{i}_w_in"] = layer.input_weights
            arrays[f"{prefix}l{i}_w_rec"] = layer.recurrent_weights
            arrays[f"{prefix}l{i}_bias"] = layer.biases
        arrays[f"{prefix}out_w"] = self.out_weights
        arrays[f"{prefix}out_b"] = self.out_bias
        return arrays

    @classmethod
    def from_arrays(
        cls, arrays: dict, depth: int, output_activation: str, prefix: str = ""
    ) -> "StackedLstm":
        layers = [
            LstmLayerParams(
                np.asarray(arrays[f"{prefix}l{i}_w_in"]),
                np.asarray(arrays[f"{prefix}l{i}_w_rec"]),
                np.asarray(arrays[f"{prefix}l{i}_bias"]),
            )
            for i in range(depth)
        ]
        return cls(
            layers=layers,
            out_weights=np.asarray(arrays[f"{prefix}out_w"]),
            out_bias=np.asarray(arrays[f"{prefix}out_b"]),
            output_activation=output_activation,
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

    layers = []
    d = input_size
    for _ in range(depth):
        biases = np.zeros(4 * hidden_size, PARAM_DTYPE)
        biases[hidden_size : 2 * hidden_size] = 1.0  # forget gate opens early training
        layers.append(
            LstmLayerParams(
                input_weights=uniform((4 * hidden_size, d)),
                recurrent_weights=uniform((4 * hidden_size, hidden_size)),
                biases=biases,
            )
        )
        d = hidden_size
    return StackedLstm(
        layers=layers,
        out_weights=uniform((output_size, hidden_size)),
        out_bias=np.zeros(output_size, PARAM_DTYPE),
        output_activation=output_activation,
    )


@dataclass
class LayerCache:
    inputs: np.ndarray  # (B, L, d)
    gates: np.ndarray   # (B, L, 4h) activated i, f, o, g
    cell: np.ndarray    # (B, L, h)
    hidden: np.ndarray  # (B, L, h)


@dataclass
class ForwardCache:
    layer_caches: list[LayerCache]
    outputs: np.ndarray  # (B, L, o)


@dataclass
class GradientSet:
    """Gradients shape-congruent with a StackedLstm, plus the input gradient."""

    layer_grads: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    out_weights: np.ndarray
    out_bias: np.ndarray
    inputs: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        """Parameter gradients in the same order as StackedLstm.parameters()."""
        out = []
        for w_in, w_rec, bias in self.layer_grads:
            out.extend([w_in, w_rec, bias])
        out.extend([self.out_weights, self.out_bias])
        return out


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(pre)
    if kind == "sigmoid":
        return sigmoid(pre)
    return pre


def forward_batch(net: StackedLstm, sequences: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run a (batch, time, features) tensor through the stack.

    Initial hidden and cell states are zero.  The cache holds every
    intermediate needed for an exact backward pass.  The sequences are cast to
    the parameters' dtype, and every array in the result has that dtype.
    """
    dtype = net.out_weights.dtype
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

    layer_caches = []
    for layer in net.layers:
        h_size = layer.hidden_size
        gates = np.empty((batch, steps, 4 * h_size), dtype)
        cell = np.empty((batch, steps, h_size), dtype)
        hidden = np.empty((batch, steps, h_size), dtype)

        h_prev = np.zeros((batch, h_size), dtype)
        c_prev = np.zeros((batch, h_size), dtype)
        w_in_t = layer.input_weights.T
        w_rec_t = layer.recurrent_weights.T
        for t in range(steps):
            pre = x[:, t] @ w_in_t + h_prev @ w_rec_t + layer.biases
            ifo = sigmoid(pre[:, : 3 * h_size])
            g = np.tanh(pre[:, 3 * h_size :])
            gates[:, t, : 3 * h_size], gates[:, t, 3 * h_size :] = ifo, g
            i, f, o = ifo[:, :h_size], ifo[:, h_size : 2 * h_size], ifo[:, 2 * h_size :]
            c = f * c_prev + i * g
            h = o * np.tanh(c)
            cell[:, t], hidden[:, t] = c, h
            h_prev, c_prev = h, c
        layer_caches.append(LayerCache(x, gates, cell, hidden))
        x = hidden

    outputs = _activate(x @ net.out_weights.T + net.out_bias, net.output_activation)
    return outputs, ForwardCache(layer_caches, outputs)


def backward_batch(net: StackedLstm, cache: ForwardCache, output_grads: np.ndarray) -> GradientSet:
    """Exact BPTT for the scalar loss whose per-output partials are given.

    The partials are cast to the parameters' dtype, and every gradient has it.
    """
    dtype = net.out_weights.dtype
    d_out = np.asarray(output_grads, dtype=dtype)
    if d_out.shape != cache.outputs.shape:
        raise ValueError(
            f"output_grads shape {d_out.shape} does not match outputs {cache.outputs.shape}"
        )
    if len(cache.layer_caches) != len(net.layers):
        raise ValueError("cache does not belong to this network")
    batch, steps, _ = d_out.shape

    if net.output_activation == "tanh":
        d_pre = d_out * (1.0 - cache.outputs**2)
    elif net.output_activation == "sigmoid":
        d_pre = d_out * cache.outputs * (1.0 - cache.outputs)
    else:
        d_pre = d_out

    top_hidden = cache.layer_caches[-1].hidden
    d_out_w = np.einsum("blo,blh->oh", d_pre, top_hidden)
    d_out_b = d_pre.sum(axis=(0, 1))
    d_hidden_seq = d_pre @ net.out_weights

    layer_grads: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        lc = cache.layer_caches[idx]
        h_size = layer.hidden_size

        d_gates = np.empty((batch, steps, 4 * h_size), dtype)
        d_inputs = np.empty_like(lc.inputs)

        cell_tanh = np.tanh(lc.cell)
        d_h_rec = np.zeros((batch, h_size), dtype)
        d_c = np.zeros((batch, h_size), dtype)
        for t in range(steps - 1, -1, -1):
            act = lc.gates[:, t]
            i = act[:, :h_size]
            f = act[:, h_size : 2 * h_size]
            o = act[:, 2 * h_size : 3 * h_size]
            g = act[:, 3 * h_size :]
            ct = cell_tanh[:, t]
            c_prev = lc.cell[:, t - 1] if t > 0 else np.zeros((batch, h_size), dtype)

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

            d_gates[:, t] = d_a
            d_inputs[:, t] = d_a @ layer.input_weights
            d_h_rec = d_a @ layer.recurrent_weights
            d_c = d_c_prev

        # one product per weight array sums over batch and time; h_prev is the
        # hidden state entering each step, zero before t = 0
        flat = d_gates.reshape(-1, 4 * h_size)
        d_w_in = flat.T @ lc.inputs.reshape(batch * steps, -1)
        h_prev = np.zeros_like(lc.hidden)
        h_prev[:, 1:] = lc.hidden[:, :-1]
        d_w_rec = flat.T @ h_prev.reshape(-1, h_size)
        layer_grads[idx] = (d_w_in, d_w_rec, flat.sum(axis=0))
        d_hidden_seq = d_inputs

    return GradientSet(
        layer_grads=layer_grads,
        out_weights=d_out_w,
        out_bias=d_out_b,
        inputs=d_hidden_seq,
    )


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
    params: list[np.ndarray],
    grads: list[np.ndarray],
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
