"""Stacked LSTM with exact backpropagation through time, in plain numpy.

Gate layout is the standard (input, forget, output, candidate) quadruple with
sigmoid gates and tanh candidate/cell output; the four gate blocks are stacked
row-wise inside each weight matrix.  Pre-activations are clamped to +/-50 to
keep exp() finite; the clamp is treated as a hard saturation in the backward
pass so gradients stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CLAMP = 50.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


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
                np.asarray(arrays[f"{prefix}l{i}_w_in"], dtype=np.float64),
                np.asarray(arrays[f"{prefix}l{i}_w_rec"], dtype=np.float64),
                np.asarray(arrays[f"{prefix}l{i}_bias"], dtype=np.float64),
            )
            for i in range(depth)
        ]
        return cls(
            layers=layers,
            out_weights=np.asarray(arrays[f"{prefix}out_w"], dtype=np.float64),
            out_bias=np.asarray(arrays[f"{prefix}out_b"], dtype=np.float64),
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
    """Seeded initialization: uniform weights, +1 forget-gate bias, zero elsewhere."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    layers = []
    d = input_size
    for _ in range(depth):
        biases = np.zeros(4 * hidden_size)
        biases[hidden_size : 2 * hidden_size] = 1.0  # forget gate opens early training
        layers.append(
            LstmLayerParams(
                input_weights=rng.uniform(-weight_scale, weight_scale, (4 * hidden_size, d)),
                recurrent_weights=rng.uniform(
                    -weight_scale, weight_scale, (4 * hidden_size, hidden_size)
                ),
                biases=biases,
            )
        )
        d = hidden_size
    return StackedLstm(
        layers=layers,
        out_weights=rng.uniform(-weight_scale, weight_scale, (output_size, hidden_size)),
        out_bias=np.zeros(output_size),
        output_activation=output_activation,
    )


@dataclass
class LayerCache:
    inputs: np.ndarray      # (B, L, d)
    gate_i: np.ndarray      # (B, L, h)
    gate_f: np.ndarray
    gate_o: np.ndarray
    gate_g: np.ndarray
    cell: np.ndarray        # (B, L, h)
    cell_tanh: np.ndarray
    hidden: np.ndarray
    clamp_mask: np.ndarray  # (B, L, 4h) 1 where pre-activation not clamped


@dataclass
class ForwardCache:
    layer_caches: list[LayerCache]
    out_pre: np.ndarray        # (B, L, o) clamped pre-activation
    out_clamp_mask: np.ndarray
    outputs: np.ndarray        # (B, L, o)


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
    intermediate needed for an exact backward pass.
    """
    x = np.asarray(sequences, dtype=np.float64)
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
        gate_i = np.empty((batch, steps, h_size))
        gate_f = np.empty((batch, steps, h_size))
        gate_o = np.empty((batch, steps, h_size))
        gate_g = np.empty((batch, steps, h_size))
        cell = np.empty((batch, steps, h_size))
        cell_tanh = np.empty((batch, steps, h_size))
        hidden = np.empty((batch, steps, h_size))
        clamp_mask = np.empty((batch, steps, 4 * h_size))

        h_prev = np.zeros((batch, h_size))
        c_prev = np.zeros((batch, h_size))
        w_in_t = layer.input_weights.T
        w_rec_t = layer.recurrent_weights.T
        for t in range(steps):
            pre = x[:, t] @ w_in_t + h_prev @ w_rec_t + layer.biases
            mask = (np.abs(pre) < CLAMP).astype(np.float64)
            pre = np.clip(pre, -CLAMP, CLAMP)
            i = sigmoid(pre[:, :h_size])
            f = sigmoid(pre[:, h_size : 2 * h_size])
            o = sigmoid(pre[:, 2 * h_size : 3 * h_size])
            g = np.tanh(pre[:, 3 * h_size :])
            c = f * c_prev + i * g
            ct = np.tanh(c)
            h = o * ct
            gate_i[:, t], gate_f[:, t], gate_o[:, t], gate_g[:, t] = i, f, o, g
            cell[:, t], cell_tanh[:, t], hidden[:, t] = c, ct, h
            clamp_mask[:, t] = mask
            h_prev, c_prev = h, c
        layer_caches.append(
            LayerCache(x, gate_i, gate_f, gate_o, gate_g, cell, cell_tanh, hidden, clamp_mask)
        )
        x = hidden

    out_pre = x @ net.out_weights.T + net.out_bias
    out_mask = (np.abs(out_pre) < CLAMP).astype(np.float64)
    out_pre = np.clip(out_pre, -CLAMP, CLAMP)
    outputs = _activate(out_pre, net.output_activation)
    cache = ForwardCache(layer_caches, out_pre, out_mask, outputs)
    return outputs, cache


def backward_batch(net: StackedLstm, cache: ForwardCache, output_grads: np.ndarray) -> GradientSet:
    """Exact BPTT for the scalar loss whose per-output partials are given."""
    d_out = np.asarray(output_grads, dtype=np.float64)
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
        d_pre = d_out.copy()
    d_pre = d_pre * cache.out_clamp_mask

    top_hidden = cache.layer_caches[-1].hidden
    d_out_w = np.einsum("blo,blh->oh", d_pre, top_hidden)
    d_out_b = d_pre.sum(axis=(0, 1))
    d_hidden_seq = d_pre @ net.out_weights

    layer_grads: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        lc = cache.layer_caches[idx]
        h_size = layer.hidden_size

        d_gates = np.empty((batch, steps, 4 * h_size))
        d_inputs = np.empty_like(lc.inputs)

        d_h_rec = np.zeros((batch, h_size))
        d_c = np.zeros((batch, h_size))
        for t in range(steps - 1, -1, -1):
            i = lc.gate_i[:, t]
            f = lc.gate_f[:, t]
            o = lc.gate_o[:, t]
            g = lc.gate_g[:, t]
            ct = lc.cell_tanh[:, t]
            c_prev = lc.cell[:, t - 1] if t > 0 else np.zeros((batch, h_size))

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
            d_a *= lc.clamp_mask[:, t]

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


def forward(net: StackedLstm, sequence: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Single-sequence (time, features) convenience wrapper."""
    seq = np.asarray(sequence, dtype=np.float64)
    if seq.ndim != 2:
        raise ValueError(f"sequence must be (time, features), got {seq.shape}")
    outputs, cache = forward_batch(net, seq[None])
    return outputs[0], cache


def backward(net: StackedLstm, cache: ForwardCache, output_grads: np.ndarray) -> GradientSet:
    """Single-sequence counterpart of :func:`backward_batch`."""
    grads_in = np.asarray(output_grads, dtype=np.float64)
    if grads_in.ndim == 2:
        grads_in = grads_in[None]
    grad_set = backward_batch(net, cache, grads_in)
    if grad_set.inputs.shape[0] == 1:
        grad_set.inputs = grad_set.inputs[0]
    return grad_set


LossFn = Callable[[np.ndarray], tuple[float, np.ndarray]]


def grad_check(
    net: StackedLstm,
    sequence: np.ndarray,
    loss_fn: LossFn,
    eps: float = 1e-5,
) -> float:
    """Compare BPTT gradients against central finite differences.

    ``loss_fn`` maps the (time, output) matrix to (loss, dloss/doutputs).
    Returns the worst relative error over all parameter entries.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    outputs, cache = forward(net, sequence)
    _, d_outputs = loss_fn(outputs)
    analytic = backward(net, cache, d_outputs).arrays()
    params = net.parameters()

    worst = 0.0
    for p_idx, param in enumerate(params):
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + eps
            loss_plus, _ = loss_fn(forward(net, sequence)[0])
            param[idx] = original - eps
            loss_minus, _ = loss_fn(forward(net, sequence)[0])
            param[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = analytic[p_idx][idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
            it.iternext()
    return worst


@dataclass
class OptimizerState:
    """Plain SGD or Adam with bias-corrected moments."""

    rule: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    first_moment: list[np.ndarray] | None = None
    second_moment: list[np.ndarray] | None = None

    def __post_init__(self):
        if self.rule not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer rule {self.rule!r}")


def optimizer_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: OptimizerState,
) -> tuple[list[np.ndarray], OptimizerState]:
    """Update parameters in place by one optimizer step."""
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("diverged: non-finite gradients")

    if state.rule == "sgd":
        for p, g in zip(params, grads):
            p -= state.learning_rate * g
        state.step += 1
        return params, state

    if state.first_moment is None:
        state.first_moment = [np.zeros_like(p) for p in params]
        state.second_moment = [np.zeros_like(p) for p in params]
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.step
    bias2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + state.epsilon)
    return params, state


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most max_norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
