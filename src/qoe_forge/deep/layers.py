"""Trainable layers and the Adam optimizer used by the deep models."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, add_bias, matmul, node


class Linear:
    """Fully connected layer with Glorot-uniform init."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self.W = Tensor(rng.uniform(-limit, limit, (fan_in, fan_out)), requires_grad=True)
        self.b = Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return add_bias(matmul(x, self.W), self.b)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [("W", self.W), ("b", self.b)]


class GhostBatchNorm:
    """Batch normalization over contiguous virtual batches.

    Training statistics are computed per virtual batch of ``virtual_batch``
    rows; a trailing chunk of fewer than 2 rows is merged into its
    predecessor (whole-batch statistics when there is none). Inference
    normalizes with the running averages, which makes the op a plain affine
    map (used for gradient checking).
    """

    def __init__(self, dim: int, virtual_batch: int = 128, momentum: float = 0.1,
                 eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.virtual_batch = virtual_batch
        self.momentum = momentum
        self.eps = eps

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [("gamma", self.gamma), ("beta", self.beta)]

    def _runs(self, n: int) -> list[tuple[int, int, int]]:
        """The training chunks of ``n`` rows as runs of equal size: (first
        row, chunks, rows per chunk). There are at most two: the full virtual
        batches, then a ragged tail, or the last full batch with a one-row
        tail merged into it."""
        vb = self.virtual_batch
        full, tail = divmod(n, vb)
        if tail == 1 and full:
            full, tail = full - 1, vb + 1
        runs = [(0, full, vb)] if full else []
        if tail:
            runs.append((full * vb, 1, tail))
        return runs

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        gamma, beta, eps = self.gamma, self.beta, self.eps

        if not training:
            inv = 1.0 / np.sqrt(self.running_var + eps)
            xhat = (x.data - self.running_mean) * inv
            return node(xhat * gamma.data + beta.data,
                        (x, lambda g: g * gamma.data * inv),
                        (gamma, lambda g: (g * xhat).sum(axis=0)),
                        (beta, lambda g: g.sum(axis=0)))

        # Each run of equal chunks is one (chunks, rows, dim) block. Every
        # chunk's statistics reduce over its own rows, with the arithmetic of
        # ``mean`` and ``var`` on that chunk alone, so each value is bit for
        # bit that of a loop over the chunks.
        n, dim = x.shape
        blocks = []
        outs = []
        for start, count, m in self._runs(n):
            sl, shape = slice(start, start + count * m), (count, m, dim)
            xb = x.data[sl].reshape(shape)
            mu = np.add.reduce(xb, axis=1, keepdims=True) / m
            xc = xb - mu
            var = np.add.reduce(xc * xc, axis=1, keepdims=True) / m
            inv = 1.0 / np.sqrt(var + eps)
            xhat = xc * inv
            outs.append((xhat * gamma.data + beta.data).reshape(-1, dim))
            blocks.append((sl, shape, xhat, inv))
            for mu_c, var_c in zip(mu[:, 0], var[:, 0]):
                self.running_mean = (
                    (1.0 - self.momentum) * self.running_mean + self.momentum * mu_c
                )
                self.running_var = (
                    (1.0 - self.momentum) * self.running_var + self.momentum * var_c
                )
        out = outs[0] if len(outs) == 1 else np.concatenate(outs)

        def vjp_x(g):
            gx = []
            for sl, shape, xhat, inv in blocks:
                m = shape[1]
                dxhat = g[sl].reshape(shape) * gamma.data
                gx.append((
                    inv
                    / m
                    * (
                        m * dxhat
                        - np.add.reduce(dxhat, axis=1, keepdims=True)
                        - xhat * np.add.reduce(dxhat * xhat, axis=1, keepdims=True)
                    )
                ).reshape(-1, dim))
            return gx[0] if len(gx) == 1 else np.concatenate(gx)

        def chunk_sums(parts):
            """The column sums of every chunk of the (chunks, rows, dim)
            ``parts``, added up chunk by chunk from zero."""
            total = np.zeros(dim)
            for part in parts:
                for row in np.add.reduce(part, axis=1):
                    total += row
            return total

        return node(
            out,
            (x, vjp_x),
            (gamma, lambda g: chunk_sums(g[sl].reshape(shape) * xhat
                                         for sl, shape, xhat, _ in blocks)),
            (beta, lambda g: chunk_sums(g[sl].reshape(shape) for sl, shape, _, _ in blocks)),
        )


class Adam:
    """Standard Adam on a fixed parameter list."""

    def __init__(self, params: list[Tensor], lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """One update of every parameter from its ``.grad`` (zero when None).

        ``m`` and ``v`` are updated in place: ``m *= beta1; m += (1 - beta1)
        * g`` is ``m = beta1 * m + (1 - beta1) * g`` bit for bit, since each
        operation keeps its order. ``g`` is only read, as a gradient array may
        be shared by several parameters.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / c1
            v_hat = v / c2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
