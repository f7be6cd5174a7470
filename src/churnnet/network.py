"""Feed-forward sigmoid network trained by online back-propagation with momentum.

Everything here is written out explicitly: forward signal propagation,
error signals per node, and the momentum weight/threshold update rule.
``numeric_gradient`` provides an independent central-difference gradient
used by the tests to verify the analytic updates.

Layer indexing convention: ``layer_sizes = [n_in, h1, ..., n_out]``.
``weights[k]`` has shape ``(layer_sizes[k], layer_sizes[k+1])`` and maps
activations of layer ``k`` to pre-activations of layer ``k+1``;
``thresholds[k]`` is the additive bias vector of layer ``k+1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError

# Pre-activations are clamped to this magnitude before exponentiation so the
# transfer function saturates instead of overflowing.
SIGMOID_CLAMP = 500.0

# forward_batch pads a batch to a multiple of this many rows. BLAS computes
# the rows of a partial tile of a matrix product with other kernels, which
# can round differently, so unpadded, a row's outputs could change in the
# last bit with the number of rows in its batch. 32 is a multiple of the
# tile heights (4 to 16 rows) of OpenBLAS's kernels on common CPUs. OpenBLAS
# also picks its kernels by the size of the whole product, so a batch of
# tens of thousands of rows can still round some rows differently from a
# batch of a thousand.
BATCH_ROW_MULTIPLE = 32


def sigmoid(x):
    """Logistic transfer function 1 / (1 + e^-x); accepts scalars or arrays."""
    z = np.clip(x, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class Network:
    """Weights, biases and the previous-update buffers used by momentum.

    ``prev_weight_update`` / ``prev_threshold_update`` hold the total change
    applied to each parameter by the most recent update step; a freshly
    initialized network has them at zero.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    thresholds: list[np.ndarray]
    prev_weight_update: list[np.ndarray] = field(default_factory=list)
    prev_threshold_update: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.prev_weight_update:
            self.prev_weight_update = [np.zeros_like(w) for w in self.weights]
        if not self.prev_threshold_update:
            self.prev_threshold_update = [np.zeros_like(t) for t in self.thresholds]

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(t.size for t in self.thresholds)

    def copy(self) -> "Network":
        """Deep copy, momentum buffers included."""
        return Network(
            list(self.layer_sizes),
            [w.copy() for w in self.weights],
            [t.copy() for t in self.thresholds],
            [w.copy() for w in self.prev_weight_update],
            [t.copy() for t in self.prev_threshold_update],
        )

    def all_finite(self) -> bool:
        return all(np.isfinite(w).all() for w in self.weights) and all(
            np.isfinite(t).all() for t in self.thresholds
        )


@dataclass
class Activations:
    """Per-layer node outputs of one forward pass; ``layers[0]`` is the input."""

    layers: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.layers[-1]


@dataclass
class Deltas:
    """Per-node error signals for every non-input layer, plus the target.

    ``layers[k]`` belongs to network layer ``k + 1`` (same alignment as
    ``Network.weights``).
    """

    layers: list[np.ndarray]
    target: np.ndarray


@dataclass
class LearningParams:
    """Learning rate and momentum constant for the update rule."""

    eta: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must be in (0, 1], got {self.eta}")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")


def init_network(layer_sizes, seed: int) -> Network:
    """Build a network with weights and thresholds drawn uniform on [-0.5, 0.5].

    The draw order is fixed (per layer: weight matrix, then thresholds) so a
    given seed always produces the identical network.
    """
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ConfigError(f"need at least input and output layers, got {sizes}")
    if any(s < 1 for s in sizes):
        raise ConfigError(f"layer sizes must be positive, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, thresholds = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.uniform(-0.5, 0.5, size=(n_in, n_out)))
        thresholds.append(rng.uniform(-0.5, 0.5, size=n_out))
    return Network(sizes, weights, thresholds)


def forward(net: Network, inputs) -> Activations:
    """Propagate one input vector through every layer."""
    x = np.asarray(inputs, dtype=float)
    if x.shape != (net.layer_sizes[0],):
        raise ShapeError(
            f"input has shape {x.shape}, network expects ({net.layer_sizes[0]},)"
        )
    layers = [x]
    for w, th in zip(net.weights, net.thresholds):
        layers.append(sigmoid(layers[-1] @ w + th))
    return Activations(layers)


def forward_batch(net: Network, x) -> np.ndarray:
    """Forward pass for a whole matrix of inputs, one row per example.

    Returns the output-layer activations, shape ``(n_rows, n_out)``. Used for
    scoring and evaluation; training always goes through :func:`forward`.
    The batch is padded to a multiple of BATCH_ROW_MULTIPLE rows.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != net.layer_sizes[0]:
        raise ShapeError(
            f"batch has shape {a.shape}, network expects (*, {net.layer_sizes[0]})"
        )
    n_rows = a.shape[0]
    pad = -n_rows % BATCH_ROW_MULTIPLE
    if pad:
        a = np.concatenate([a, np.zeros((pad, a.shape[1]))])
    for w, th in zip(net.weights, net.thresholds):
        a = sigmoid(a @ w + th)
    return a[:n_rows]


def output_deltas(acts: Activations, target) -> np.ndarray:
    """Error signal of each output node: y (1 - y) (target - y)."""
    t = np.asarray(target, dtype=float)
    y = acts.output
    if t.shape != y.shape:
        raise ShapeError(f"target has shape {t.shape}, output is {y.shape}")
    return y * (1.0 - y) * (t - y)


def hidden_deltas(net: Network, acts: Activations, downstream, layer: int) -> np.ndarray:
    """Error signal for hidden ``layer`` given the deltas of ``layer + 1``.

    The transfer-function derivative is taken from the stored activation,
    y (1 - y), so no pre-activation values need to be kept around.
    """
    d = np.asarray(downstream, dtype=float)
    w = net.weights[layer]
    if d.shape != (w.shape[1],):
        raise ShapeError(
            f"downstream deltas have shape {d.shape}, expected ({w.shape[1]},)"
        )
    y = acts.layers[layer]
    return y * (1.0 - y) * (w @ d)


def backward(net: Network, acts: Activations, target) -> Deltas:
    """Compute deltas for every non-input layer, output first, then backward."""
    t = np.asarray(target, dtype=float)
    per_layer = [output_deltas(acts, t)]
    for layer in range(len(net.layer_sizes) - 2, 0, -1):
        per_layer.insert(0, hidden_deltas(net, acts, per_layer[0], layer))
    return Deltas(per_layer, t)


def apply_updates(net: Network, acts: Activations, deltas: Deltas, params: LearningParams) -> Network:
    """Apply the momentum update to every weight and threshold, in place.

    Each parameter moves by eta * delta * upstream_activation plus alpha times
    whatever it moved last step; the buffers then record the total change just
    applied. All deltas were computed from the pre-update weights, so the
    whole network updates as one step.
    """
    for k in range(len(net.weights)):
        dw = params.eta * np.outer(acts.layers[k], deltas.layers[k])
        dw += params.alpha * net.prev_weight_update[k]
        net.weights[k] += dw
        net.prev_weight_update[k] = dw

        dt = params.eta * deltas.layers[k] + params.alpha * net.prev_threshold_update[k]
        net.thresholds[k] += dt
        net.prev_threshold_update[k] = dt
    return net


def squared_error(output, target) -> float:
    """Half the summed squared difference between target and output."""
    d = np.asarray(target, dtype=float) - np.asarray(output, dtype=float)
    return 0.5 * float(d @ d)


def train_example(net: Network, inputs, target, params: LearningParams) -> float:
    """One full learning step on a single example; returns its squared error.

    Forward pass, output and hidden error signals, then the momentum update.
    The returned error is measured on the pre-update forward pass.
    """
    acts = forward(net, inputs)
    err = squared_error(acts.output, target)
    deltas = backward(net, acts, target)
    apply_updates(net, acts, deltas, params)
    return err


def _sigmoid_into(z, out, low, one) -> None:
    """:func:`sigmoid` of ``z`` written to ``out``, overwriting ``z``.

    ``low`` and ``one`` hold -SIGMOID_CLAMP and 1.0 in every element. The
    bits are those of :func:`sigmoid`, with one operation fewer. Only the
    lower clamp can change a result: above SIGMOID_CLAMP, ``1 + e^-z``
    rounds to 1.0 exactly as ``1 + e^-SIGMOID_CLAMP`` does, and NaN
    passes through either way. ``np.maximum`` returns what ``np.clip``
    does at less than half its call overhead, and an array operand is
    cheaper to pass than a Python float.
    """
    np.maximum(z, low, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.add(one, z, out=z)
    np.divide(one, z, out=out)


class LockstepBatch:
    """Several ``[n_in, h, n_out]`` networks trained by online steps together.

    At every step each member takes one example of its own, so members keep
    independent example orders; the result is bit-identical to calling
    :func:`train_example` on each member in turn. Members may differ in
    hidden width only.

    All parameters live in one flat float64 buffer (every member's hidden
    weights, then every member's hidden thresholds, then output weights, then
    output thresholds), each member's block C-contiguous and of the member's
    own shape; the momentum buffers mirror it. The three products per member
    and step go to the same BLAS routine with the same arguments as the
    ``@`` in :func:`forward` and :func:`hidden_deltas`. Every elementwise
    operation runs once over all members, in the reference's order; gathers
    through precomputed index arrays line up its operands, and thresholds
    update as weights from a constant 1.0 input (1.0 * delta is delta
    exactly). Widths are not zero-padded to a common size, because BLAS
    rounds products over a few columns differently inside a larger matrix.

    ``networks`` gives each member as a :class:`Network` whose arrays are
    views of the flat buffers: it always shows the live state, and
    ``Network.copy`` of it is a snapshot. Building a batch copies the given
    networks' parameters and momentum buffers in; to drop members, build a
    new batch from the ``networks`` that remain.
    """

    # Example positions whose inputs and targets train_epoch gathers at once,
    # which bounds its scratch memory for any number of examples.
    _CHUNK = 256

    def __init__(self, nets):
        nets = list(nets)
        if not nets:
            raise ConfigError("a lockstep batch needs at least one network")
        n_in, n_out = nets[0].layer_sizes[0], nets[0].layer_sizes[-1]
        for net in nets:
            sizes = net.layer_sizes
            if len(sizes) != 3 or (sizes[0], sizes[2]) != (n_in, n_out):
                raise ConfigError(
                    f"lockstep members must all be [{n_in}, h, {n_out}] networks, got {sizes}"
                )
        hidden = [net.layer_sizes[1] for net in nets]
        n_nets, h_total, o_total = len(nets), sum(hidden), len(nets) * n_out
        starts = np.cumsum([0] + hidden[:-1]).tolist()
        w1_at, t1_at, w2_at, t2_at, size = np.cumsum(
            [0, n_in * h_total, h_total, h_total * n_out, o_total]
        ).tolist()
        self._params = np.empty(size)
        self._prev = np.empty(size)
        self._hidden_thresholds = self._params[t1_at:w2_at]
        self._output_thresholds = self._params[t2_at:]

        # Upstream operands of the update: every member's input, hidden and
        # output activations, and the constant 1.0 that thresholds multiply.
        self._upstream = np.empty(n_nets * n_in + h_total + o_total + 1)
        self._upstream[-1] = 1.0
        one_at = self._upstream.size - 1
        self._inputs = self._upstream[: n_nets * n_in].reshape(n_nets, n_in)
        self._activations = self._upstream[n_nets * n_in : -1]
        self._hidden = self._activations[:h_total]
        self._output = self._activations[h_total:]
        self._slopes = np.empty(h_total + o_total)  # y (1 - y) of every activation
        self._deltas = np.empty(h_total + o_total)
        self._z_hidden = np.empty(h_total)
        self._z_output = np.empty(o_total)
        self._back = np.empty(h_total)  # W2 @ output deltas
        self._step = np.empty(size)
        self._step_deltas = np.empty(size)
        # Constant operands as arrays: a Python float costs more to pass per call.
        self._low = np.full(size, -SIGMOID_CLAMP)
        self._one = np.ones(size)

        self.networks: list[Network] = []
        # Per member, (a.dot, b, out) of each BLAS product; the bound method
        # skips np.dot's dispatch, which costs more than the product.
        self._forward_hidden, self._forward_output, self._backward_hidden = [], [], []
        up_index, delta_index = [[], [], [], []], [[], [], [], []]
        for k, (net, h, s) in enumerate(zip(nets, hidden, starts)):
            o = k * n_out
            views = [
                (
                    buf[w1_at + n_in * s : w1_at + n_in * (s + h)].reshape(n_in, h),
                    buf[t1_at + s : t1_at + s + h],
                    buf[w2_at + n_out * s : w2_at + n_out * (s + h)].reshape(h, n_out),
                    buf[t2_at + o : t2_at + o + n_out],
                )
                for buf in (self._params, self._prev)
            ]
            (w1, t1, w2, t2), (pw1, pt1, pw2, pt2) = views
            w1[...], w2[...] = net.weights
            t1[...], t2[...] = net.thresholds
            pw1[...], pw2[...] = net.prev_weight_update
            pt1[...], pt2[...] = net.prev_threshold_update
            self.networks.append(
                Network([n_in, h, n_out], [w1, w2], [t1, t2], [pw1, pw2], [pt1, pt2])
            )
            self._forward_hidden.append((self._inputs[k].dot, w1, self._z_hidden[s : s + h]))
            self._forward_output.append(
                (self._hidden[s : s + h].dot, w2, self._z_output[o : o + n_out])
            )
            self._backward_hidden.append(
                (w2.dot, self._deltas[h_total + o : h_total + o + n_out], self._back[s : s + h])
            )

            # Weight (i, j) moves by eta * upstream[i] * delta[j].
            in_at = np.arange(k * n_in, (k + 1) * n_in)
            hid_at = n_nets * n_in + np.arange(s, s + h)
            hid_delta = np.arange(s, s + h)
            out_delta = h_total + np.arange(o, o + n_out)
            up_index[0].append(np.repeat(in_at, h))
            delta_index[0].append(np.tile(hid_delta, n_in))
            up_index[1].append(np.full(h, one_at))
            delta_index[1].append(hid_delta)
            up_index[2].append(np.repeat(hid_at, n_out))
            delta_index[2].append(np.tile(out_delta, h))
            up_index[3].append(np.full(n_out, one_at))
            delta_index[3].append(out_delta)
        self._up_index = np.concatenate(sum(up_index, []))
        self._delta_index = np.concatenate(sum(delta_index, []))

    def train_epoch(self, inputs, targets, orders, params: LearningParams) -> None:
        """Step every member through its own order of examples.

        ``orders`` has one row per member, each a sequence of row indices
        into ``inputs`` (one input vector per row) and ``targets``; at
        position ``p`` member ``k`` trains on example ``orders[k][p]``.
        """
        x = np.ascontiguousarray(inputs, dtype=float)
        t = np.ascontiguousarray(targets, dtype=float)
        steps = np.asarray(orders, dtype=np.intp)
        n_nets, n_in = self._inputs.shape
        n_out = self._output.size // n_nets
        if x.ndim != 2 or x.shape[1] != n_in or t.shape != (len(x), n_out):
            raise ShapeError(
                f"inputs {x.shape} and targets {t.shape} do not fit "
                f"[{n_in}, h, {n_out}] networks"
            )
        if steps.ndim != 2 or steps.shape[0] != n_nets:
            raise ShapeError(f"orders have shape {steps.shape}, expected ({n_nets}, *)")
        if steps.size and not (steps.min() >= 0 and steps.max() < len(x)):
            raise ShapeError(f"orders index outside the {len(x)} examples")

        xs, act, hid, y = self._inputs, self._activations, self._hidden, self._output
        z1, z2, slopes, deltas, back = (
            self._z_hidden, self._z_output, self._slopes, self._deltas, self._back
        )
        h_total = hid.size
        slopes1, slopes2 = slopes[:h_total], slopes[h_total:]
        d1, d2 = deltas[:h_total], deltas[h_total:]
        t1, t2 = self._hidden_thresholds, self._output_thresholds
        upstream, up_index, delta_index = self._upstream, self._up_index, self._delta_index
        step, step_deltas, prev, theta = self._step, self._step_deltas, self._prev, self._params
        fw1, fw2, bw1 = self._forward_hidden, self._forward_output, self._backward_hidden
        eta, alpha = np.full(theta.size, params.eta), np.full(theta.size, params.alpha)
        low, one = self._low, self._one
        sig1 = low[:h_total], one[:h_total]
        sig2 = low[: y.size], one[: y.size]
        one_act = one[: act.size]

        by_position = steps.T
        for begin in range(0, len(by_position), self._CHUNK):
            chunk = by_position[begin : begin + self._CHUNK]
            for x_step, t_step in zip(x[chunk], t[chunk].reshape(len(chunk), -1)):
                xs[...] = x_step
                # forward: a1 = sigmoid(x @ W1 + t1), y = sigmoid(a1 @ W2 + t2)
                for a_dot, w, out in fw1:
                    a_dot(w, out)
                z1 += t1
                _sigmoid_into(z1, hid, *sig1)
                for a_dot, w, out in fw2:
                    a_dot(w, out)
                z2 += t2
                _sigmoid_into(z2, y, *sig2)
                # deltas: y (1 - y) (t - y) at the output, a1 (1 - a1) (W2 @ d2) hidden
                np.subtract(one_act, act, out=slopes)
                np.multiply(act, slopes, out=slopes)
                np.subtract(t_step, y, out=d2)
                np.multiply(slopes2, d2, out=d2)
                for w_dot, d, out in bw1:
                    w_dot(d, out)
                np.multiply(slopes1, back, out=d1)
                # momentum: dw = eta * (a * d) + alpha * prev; w += dw; prev = dw
                # (mode="clip" lets take write straight to out; the indices
                # are in range by construction)
                upstream.take(up_index, out=step, mode="clip")
                deltas.take(delta_index, out=step_deltas, mode="clip")
                np.multiply(step, step_deltas, out=step)
                np.multiply(eta, step, out=step)
                np.multiply(alpha, prev, out=prev)
                np.add(step, prev, out=prev)
                np.add(theta, prev, out=theta)


def numeric_gradient(net: Network, inputs, target, epsilon: float = 1e-5):
    """Central-difference gradient of the squared error for every parameter.

    Returns ``(weight_grads, threshold_grads)`` mirroring the shapes of
    ``net.weights`` and ``net.thresholds``. Purely a verification oracle:
    it perturbs each parameter by +/- epsilon and never uses the deltas.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ConfigError(f"epsilon must be in [1e-7, 1e-3], got {epsilon}")

    def loss() -> float:
        return squared_error(forward(net, inputs).output, target)

    weight_grads = []
    for w in net.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = w[i]
            w[i] = orig + epsilon
            hi = loss()
            w[i] = orig - epsilon
            lo = loss()
            w[i] = orig
            g[i] = (hi - lo) / (2.0 * epsilon)
        weight_grads.append(g)

    threshold_grads = []
    for t in net.thresholds:
        g = np.zeros_like(t)
        for i in range(t.size):
            orig = t[i]
            t[i] = orig + epsilon
            hi = loss()
            t[i] = orig - epsilon
            lo = loss()
            t[i] = orig
            g[i] = (hi - lo) / (2.0 * epsilon)
        threshold_grads.append(g)

    return weight_grads, threshold_grads
