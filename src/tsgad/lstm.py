"""Stacked LSTM with exact backpropagation through time, in plain numpy.

Gate layout is the standard (input, forget, output, candidate) quadruple with
sigmoid gates and tanh candidate/cell output; the four gate blocks are stacked
row-wise inside each weight matrix.

All parameter arrays of a net share one floating dtype.  ``init_lstm`` stores
``PARAM_DTYPE`` (float32); a checkpoint keeps the dtype it was saved in.  The
forward pass, the backward pass and the optimizer work in the parameters'
dtype, so inputs and upstream gradients are cast to it.

``forward_batch`` and ``backward_batch`` take and return (batch, time,
features) arrays but work feature-major.  The sequences are transposed once
to (L, features, B), so each step's (4h, B) gate block, and each (h, B) gate
inside it, is one contiguous array that the time loop updates in place.  The
input projection of every step is one product before the loop; the input
and weight gradients are products over every step after it.

Each pass forms only what its caller reads.  A forward pass keeps the
backward cache, the per-layer arrays of every step, only for a backward
that reads it; one that no backward reads runs with
``forward_batch(..., cache=False)``, which keeps about one layer's arrays
at a time and returns bitwise the same outputs.  ``backward_batch``
returns the parameter gradients, or with ``weights=False`` the input
gradients, never both.

``sigmoid`` raises its argument to at least -50 to keep exp() finite.  Above
+50 it needs no clamp: exp(-50) ~ 1.9e-22 vanishes beside 1 in float32 and
float64, so it is exactly 1 there, as the logistic of an argument clipped to
+/-50 is.  The backward pass needs no clamp mask: tanh(+/-50) and
sigmoid(+50) are exactly +/-1 and 1 in both dtypes, so their slopes are 0,
and below -50 the sigmoid slope is sigmoid(-50) * (1 - sigmoid(-50)) ~
1.9e-22, a normal number in both dtypes.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

CLAMP = 50.0
PARAM_DTYPE = np.float32


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of ``z`` clipped to +/-CLAMP, so exp() never overflows.

    Only the lower clamp is applied; above +CLAMP the result is 1 either way.
    With ``out``, which may be ``z`` itself, the result is written there.
    """
    out = np.maximum(z, -CLAMP, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


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
    """Apply the output head's activation to ``pre`` in place."""
    if kind == "tanh":
        np.tanh(pre, out=pre)
    elif kind == "sigmoid":
        sigmoid(pre, out=pre)
    return pre


def _flat_steps(a: np.ndarray) -> np.ndarray:
    """A feature-major (L, n, B) array as the (n, L*B) matrix of its columns."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def forward_batch(
    net: StackedLstm, sequences: np.ndarray, cache: bool = True
) -> tuple[np.ndarray, tuple | None]:
    """Run a (batch, time, features) tensor through the stack.

    Initial hidden and cell states are zero.  Returns the (batch, time,
    output) outputs and a cache ``(layers, outputs)`` for an exact backward
    pass.  ``layers`` holds one ``(inputs, gates, cell, cell_tanh, hidden)``
    tuple per layer from the bottom, feature-major with the batch last:
    (L, d, B), the activated (i, f, o, g) gates (L, 4h, B), then cell,
    tanh(cell) and hidden (L, h, B).  The sequences are cast to the
    parameters' dtype, and every array in the result has that dtype.

    With ``cache=False`` the cache is None: each layer's gates, cell and
    tanh(cell) are freed as the next layer allocates its own, so the pass
    holds one layer's arrays and the next one's gates at most, where the
    cached pass holds every layer's.  The outputs are bitwise those of the
    cached pass, which runs the same operations in the same order.  The
    passes that no backward reads use it: in training, the generator's
    fakes for a discriminator step and its MMD batch; in detection, the
    inversion descent's last forward and the discriminator's scoring.
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
    x = np.ascontiguousarray(x.transpose(1, 2, 0))

    layers = []
    for idx in range(net.depth):
        w_rec = p[f"l{idx}_w_rec"]
        h = w_rec.shape[1]
        # the input projection of every step at once; the loop adds w_rec @ h_prev
        gates = np.matmul(p[f"l{idx}_w_in"], x)
        gates += p[f"l{idx}_bias"][:, None]
        cell = np.empty((steps, h, batch), dtype)
        cell_tanh = np.empty_like(cell)
        hidden = np.empty_like(cell)
        rec = np.empty((4 * h, batch), dtype)
        kept = np.empty((h, batch), dtype)
        for t in range(steps):
            act = gates[t]
            if t > 0:
                np.matmul(w_rec, hidden[t - 1], out=rec)
                act += rec
            sigmoid(act[: 3 * h], out=act[: 3 * h])
            np.tanh(act[3 * h :], out=act[3 * h :])
            i, f, o, g = act[:h], act[h : 2 * h], act[2 * h : 3 * h], act[3 * h :]
            np.multiply(i, g, out=cell[t])
            if t > 0:
                cell[t] += np.multiply(f, cell[t - 1], out=kept)
            np.tanh(cell[t], out=cell_tanh[t])
            np.multiply(o, cell_tanh[t], out=hidden[t])
        if cache:
            layers.append((x, gates, cell, cell_tanh, hidden))
        x = hidden

    head = np.matmul(p["out_w"], x)
    head += p["out_b"][:, None]
    outputs = np.ascontiguousarray(_activate(head, net.output_activation).transpose(2, 0, 1))
    return outputs, ((layers, outputs) if cache else None)


def backward_batch(
    net: StackedLstm, cache: tuple | None, output_grads: np.ndarray, weights: bool = True
) -> tuple[dict[str, np.ndarray] | None, np.ndarray | None]:
    """Exact BPTT for the scalar loss whose per-output partials are given.

    ``output_grads`` has the (batch, time, output) shape of the outputs, and
    ``cache`` is the feature-major cache ``forward_batch`` returned with them.
    Returns ``(grads, None)``: the parameter gradients keyed and ordered
    like ``net.params``.  The partials are cast to the parameters' dtype,
    and every gradient has it.  The recurrence runs on one contiguous
    (4h, B) gate-gradient block per step; the input and weight gradients
    are formed from all steps' blocks after it.

    With ``weights=False`` it returns ``(None, input_grads)`` instead: the
    (batch, time, features) gradient with respect to the sequences
    ``forward_batch`` was given, and no parameter gradient.  Callers that
    hold a net fixed (latent inversion, the frozen discriminator in a
    generator step) use it.  No caller reads both, so the pass with
    weights skips the bottom layer's input-gradient product.  A cache of
    None, from ``forward_batch(..., cache=False)``, is refused.
    """
    if cache is None:
        raise ValueError("no backward cache: the forward ran with cache=False")
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
    d_pre = np.ascontiguousarray(d_pre.transpose(1, 2, 0))

    grads = None
    if weights:
        grads = dict.fromkeys(p)
        flat_hidden = _flat_steps(layers[-1][4])
        grads["out_w"] = _flat_steps(d_pre) @ flat_hidden.T
        grads["out_b"] = d_pre.sum(axis=(0, 2))
    d_hidden_seq = np.matmul(p["out_w"].T, d_pre)

    for idx in range(net.depth - 1, -1, -1):
        w_rec = p[f"l{idx}_w_rec"]
        inputs, gates, cell, cell_tanh, _ = layers[idx]
        h = w_rec.shape[1]
        w_rec_t = np.ascontiguousarray(w_rec.T)

        d_gates = np.empty_like(gates)
        d_h_rec = np.empty((h, batch), dtype)
        d_c = np.zeros((h, batch), dtype)
        tmp = np.empty((h, batch), dtype)
        slope = np.empty((3 * h, batch), dtype)
        zeros = np.zeros((h, batch), dtype)
        for t in range(steps - 1, -1, -1):
            act, d_a = gates[t], d_gates[t]
            i, f, o, g = act[:h], act[h : 2 * h], act[2 * h : 3 * h], act[3 * h :]
            d_i, d_f, d_o, d_g = d_a[:h], d_a[h : 2 * h], d_a[2 * h : 3 * h], d_a[3 * h :]
            ct = cell_tanh[t]
            c_prev = cell[t - 1] if t > 0 else zeros

            if t < steps - 1:
                d_h = np.matmul(w_rec_t, d_gates[t + 1], out=d_h_rec)
                d_h += d_hidden_seq[t]
            else:
                d_h = d_hidden_seq[t]
            np.multiply(d_h, ct, out=d_o)
            # d_c += d_h * o * (1 - ct^2)
            np.multiply(ct, ct, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            tmp *= o
            tmp *= d_h
            d_c += tmp
            np.multiply(d_c, g, out=d_i)
            np.multiply(d_c, c_prev, out=d_f)
            # the sigmoid gates' slope s (1 - s), all three in one block
            np.subtract(1.0, act[: 3 * h], out=slope)
            slope *= act[: 3 * h]
            d_a[: 3 * h] *= slope
            # d_g = d_c * i * (1 - g^2)
            np.multiply(g, g, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            tmp *= i
            np.multiply(d_c, tmp, out=d_g)
            d_c *= f

        if weights:
            # one product per weight array sums over batch and time; the
            # recurrent weights see step t's gates against hidden state t - 1,
            # which are the columns one batch apart in the flat matrices
            flat, flat_inputs = _flat_steps(d_gates), _flat_steps(inputs)
            grads[f"l{idx}_w_in"] = flat @ flat_inputs.T
            grads[f"l{idx}_w_rec"] = flat[:, batch:] @ flat_hidden[:, :-batch].T
            grads[f"l{idx}_bias"] = flat.sum(axis=1)
            flat_hidden = flat_inputs
            if idx == 0:  # no caller of the weight gradients reads the input's
                return grads, None
        d_hidden_seq = np.matmul(p[f"l{idx}_w_in"].T, d_gates)

    return None, np.ascontiguousarray(d_hidden_seq.transpose(2, 0, 1))


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
    """Scale gradients in place so their global L2 norm is at most max_norm.

    A non-finite norm, which ``gan.train`` refuses, leaves them as they
    are.  Returns the norm before any scaling.
    """
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if max_norm < total < np.inf:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
