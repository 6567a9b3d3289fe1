"""Minimal reverse-mode automatic differentiation over 2-D float64 arrays.

Supports exactly the primitive set the networks need: matmul, bias add,
ReLU, sigmoid, elementwise multiply, dropout, batch normalization (handled
in layers.py), sparsemax, MSE, and a mask-entropy regularizer. Graphs are
built eagerly. Each op is its forward value plus one vector-Jacobian product
(VJP) per input, handed to ``node``, which records only the inputs that
require grad; ``backward`` walks the recorded graph in topological order.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphShapeError


class Tensor:
    """A node in the computation graph holding a float64 array.

    ``inputs`` holds (input tensor, VJP) pairs, one per input that requires
    grad; a VJP maps this node's gradient to that input's share of it.
    """

    __slots__ = ("data", "grad", "inputs", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.inputs = ()
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def backward(self):
        if self.data.size != 1:
            raise GraphShapeError(
                f"backward() requires a scalar output, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            t, processed = stack.pop()
            if processed:
                topo.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            for p, _ in t.inputs:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            for p, vjp in t.inputs:
                p._accumulate(vjp(t.grad))


def node(value, *inputs) -> Tensor:
    """The tensor ``value`` computed from ``inputs``, (tensor, VJP) pairs.

    Only inputs that require grad are kept, and the result requires grad
    exactly when it keeps one, so a VJP never runs for a constant.
    """
    out = Tensor(value)
    out.inputs = tuple((t, vjp) for t, vjp in inputs if t.requires_grad)
    out.requires_grad = bool(out.inputs)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise GraphShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    return node(a.data @ b.data,
                (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    if b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise GraphShapeError(f"bias shape {b.shape} does not match input {x.shape}")
    return node(x.data + b.data[None, :], (x, lambda g: g), (b, lambda g: g.sum(axis=0)))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise GraphShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return node(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise GraphShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    return node(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def scale(x: Tensor, c: float) -> Tensor:
    return node(x.data * c, (x, lambda g: g * c))


def relu(x: Tensor) -> Tensor:
    return node(np.maximum(x.data, 0.0), (x, lambda g: g * (x.data > 0.0)))


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    return node(s, (x, lambda g: g * s * (1.0 - s)))


def dropout(x: Tensor, p: float, rng: np.random.Generator | None,
            training: bool) -> Tensor:
    """Inverted dropout; exact identity in eval mode, where ``rng`` is unused."""
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return node(x.data * mask, (x, lambda g: g * mask))


def sparsemax_projection(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise Euclidean projection onto the simplex (sort algorithm).

    Returns (probabilities, support mask).
    """
    z = np.asarray(z, dtype=np.float64)
    zs = np.sort(z, axis=1)[:, ::-1]
    cs = np.cumsum(zs, axis=1)
    ks = np.arange(1, z.shape[1] + 1)
    feasible = 1.0 + ks * zs > cs
    k_z = feasible.sum(axis=1)
    tau = (cs[np.arange(z.shape[0]), k_z - 1] - 1.0) / k_z
    p = np.maximum(z - tau[:, None], 0.0)
    return p, p > 0.0


def sparsemax(x: Tensor) -> Tensor:
    """Sparsemax activation; backward uses the support-restricted Jacobian."""
    p, support = sparsemax_projection(x.data)

    def vjp(g):
        counts = support.sum(axis=1)
        mean_on_support = np.where(support, g, 0.0).sum(axis=1) / np.maximum(counts, 1)
        return np.where(support, g - mean_on_support[:, None], 0.0)

    return node(p, (x, vjp))


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise GraphShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.data - target
    return node(np.mean(diff**2), (pred, lambda g: g * 2.0 * diff / diff.size))


def mask_entropy(m: Tensor, eps: float = 1e-10) -> Tensor:
    """Mean over rows of the entropy -sum(m * log(m + eps)) of mask rows."""
    n = m.shape[0]
    return node(
        np.mean(-np.sum(m.data * np.log(m.data + eps), axis=1)),
        (m, lambda g: g * (-(np.log(m.data + eps) + m.data / (m.data + eps))) / n),
    )
