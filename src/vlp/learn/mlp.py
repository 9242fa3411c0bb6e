"""Dense feedforward MLP baseline trained with mini-batch Adam on MSE.

Matrix products are plain `@`, so they run through the host BLAS. OpenBLAS
splits a product across threads by output block, never along the summed
axis, so each output element is summed in the same order at any thread
count; acceptance criterion 9 checks that study reports stay
byte-identical at 1 and 4 BLAS threads.
"""

from __future__ import annotations

import numpy as np

from .tree import _validate_xy

__all__ = ["Mlp", "fit_mlp", "loss_and_grads"]


class Mlp:
    """Rectifier network with a linear scalar output head.

    Inputs and targets are standardized internally during fit; predict
    undoes both, so the public interface speaks raw units.
    """

    __slots__ = ("weights", "biases", "x_mean", "x_std", "y_mean", "y_std")

    def __init__(self, weights, biases, x_mean, x_std, y_mean, y_std):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.x_mean = np.asarray(x_mean, dtype=np.float64)
        self.x_std = np.asarray(x_std, dtype=np.float64)
        self.y_mean = float(y_mean)
        self.y_std = float(y_std)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted value for each row of an (N, n_features) matrix."""
        x = np.asarray(features, dtype=np.float64)
        a = (x - self.x_mean) / self.x_std
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        out = (a @ self.weights[-1] + self.biases[-1]).ravel()
        return self.y_mean + self.y_std * out


def loss_and_grads(weights, biases, x, y):
    """Mean squared error and its analytic parameter gradients.

    Forward pass with rectifier hiddens and a linear scalar head, then
    plain backprop. Shapes: x (N, d), y (N,). Returns
    (loss, [dW...], [db...]). Kept standalone so the gradients can be
    checked against finite differences.
    """
    acts = [np.asarray(x, dtype=np.float64)]
    pre = []
    a = acts[0]
    for w, b in zip(weights[:-1], biases[:-1]):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    out = (a @ weights[-1] + biases[-1]).ravel()
    resid = out - np.asarray(y, dtype=np.float64)
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

    Hidden layers start from scaled normal draws; the output layer starts
    at zero, so an untrained model predicts the target mean exactly.
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
    xs = (x - x_mean) / x_std
    ys = (y - y_mean) / y_std

    rng = np.random.default_rng(seed)
    widths = [x.shape[1], *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
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
