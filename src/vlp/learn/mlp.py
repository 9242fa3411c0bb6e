"""Dense feedforward MLP baseline trained with mini-batch Adam on MSE.

The network is float32 from end to end, as neural regressors usually are:
inputs and targets are standardized in float64, then the weights, biases,
activations, gradients and Adam moments are all float32, which halves the
bytes every product and every elementwise pass moves. Only the
standardization (x_mean, x_std, y_mean, y_std) stays float64, and predict
undoes the target scaling in float64. A model document writes each float32
value as its exact float64 repr, so a save/load round trip is bit-exact.

Matrix products are plain `@`, so they run through the host BLAS (sgemm).
OpenBLAS splits a product across threads by output block, never along the
summed axis, so each output element is summed in the same order at any
thread count; acceptance criterion 9 checks that study reports stay
byte-identical at 1 and 4 BLAS threads.
"""

from __future__ import annotations

import numpy as np

from .tree import _number, _numbers, _validate_xy

__all__ = ["Mlp", "fit_mlp", "loss_and_grads"]


class Mlp:
    """Rectifier network with a linear scalar output head.

    Inputs and targets are standardized internally during fit; predict
    undoes both, so the public interface speaks raw units. Weights and
    biases are float32, the standardization float64. The layers
    must chain, from the width of x_mean and x_std to one output, each
    bias vector as wide as its layer; the constructor raises ValueError
    otherwise.
    """

    __slots__ = ("weights", "biases", "x_mean", "x_std", "y_mean", "y_std")

    def __init__(self, weights, biases, x_mean, x_std, y_mean, y_std):
        self.weights = [_numbers(w, np.float32) for w in weights]
        self.biases = [_numbers(b, np.float32) for b in biases]
        self.x_mean = _numbers(x_mean, np.float64)
        self.x_std = _numbers(x_std, np.float64)
        self.y_mean = _number(y_mean)
        self.y_std = _number(y_std)
        if self.x_mean.ndim != 1 or self.x_std.shape != self.x_mean.shape:
            raise ValueError(f"x_mean {self.x_mean.shape} and x_std {self.x_std.shape} "
                             "must be vectors of the input width")
        if not self.weights or len(self.biases) != len(self.weights):
            raise ValueError(f"{len(self.weights)} weight matrices and "
                             f"{len(self.biases)} bias vectors: need one of each per layer")
        width = self.x_mean.size
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
                raise ValueError(f"layer {k}: weights {w.shape} and biases {b.shape} "
                                 f"do not take width {width}")
            width = w.shape[1]
        if width != 1:
            raise ValueError(f"the output layer has width {width}, not 1")

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted value for each row of an (N, n_features) matrix: the
        network runs in float32, its output is unscaled in float64."""
        x = np.asarray(features, dtype=np.float64)
        a = ((x - self.x_mean) / self.x_std).astype(np.float32)
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = a @ w  # one new (N, width) array per layer; the rest in place
            a += b
            np.maximum(a, 0.0, out=a)
        out = (a @ self.weights[-1] + self.biases[-1]).ravel()
        return self.y_mean + self.y_std * out.astype(np.float64)


def loss_and_grads(weights, biases, x, y):
    """Mean squared error and its analytic parameter gradients.

    Forward pass with rectifier hiddens and a linear scalar head, then
    plain backprop, in the inputs' dtype: float32 when fit_mlp calls it,
    float64 for a finite-difference check. Shapes: x (N, d), y (N,).
    Returns (loss, [dW...], [db...]). Kept standalone so the gradients can
    be checked against finite differences.
    """
    acts = [np.asarray(x)]
    pre = []
    a = acts[0]
    for w, b in zip(weights[:-1], biases[:-1]):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    out = (a @ weights[-1] + biases[-1]).ravel()
    resid = out - np.asarray(y)
    n = resid.size
    loss = float(resid @ resid) / n

    delta = (2.0 / n) * resid[:, None]
    grad_w = [None] * len(weights)
    grad_b = [None] * len(biases)
    grad_w[-1] = acts[-1].T @ delta
    grad_b[-1] = delta.sum(axis=0)
    for layer in range(len(weights) - 2, -1, -1):
        delta = delta @ weights[layer + 1].T
        delta = delta * (pre[layer] > 0.0)
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
    return loss, grad_w, grad_b


def fit_mlp(features, targets, *, hidden: tuple[int, ...] = (200, 200, 200, 200, 200),
            epochs: int = 80, batch_size: int = 64, learning_rate: float = 1e-3,
            seed=None) -> Mlp:
    """Train the network with Adam; deterministic for a fixed seed.

    Hidden layers start from scaled normal draws (drawn in float64, then
    rounded to float32); the output layer starts at zero, so an untrained
    model predicts the target mean exactly. Training runs in float32.
    """
    x, y = _validate_xy(features, targets)
    if any(h < 1 for h in hidden):
        raise ValueError("hidden widths must be >= 1")
    if epochs < 0 or batch_size < 1 or learning_rate <= 0:
        raise ValueError("bad training parameters")

    x_mean = x.mean(axis=0)
    x_std = x.std(axis=0)
    x_std[x_std == 0.0] = 1.0
    y_mean = float(y.mean())
    y_std = float(y.std()) or 1.0
    xs = ((x - x_mean) / x_std).astype(np.float32)
    ys = ((y - y_mean) / y_std).astype(np.float32)

    rng = np.random.default_rng(seed)
    widths = [x.shape[1], *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        weights.append(w.astype(np.float32))
        biases.append(np.zeros(fan_out, dtype=np.float32))
    weights[-1][:] = 0.0  # head at zero: epoch-0 prediction is the mean

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = weights + biases  # the same arrays: updates land in both lists
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step = 0
    n = xs.shape[0]
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = perm[start : start + batch_size]
            _, gw, gb = loss_and_grads(weights, biases, xs[batch], ys[batch])
            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            for i, g in enumerate(gw + gb):
                m[i] = beta1 * m[i] + (1 - beta1) * g
                v[i] = beta2 * v[i] + (1 - beta2) * g ** 2
                params[i] -= learning_rate * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
    return Mlp(weights, biases, x_mean, x_std, y_mean, y_std)
