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

    def _chunks(self, n: int) -> list[slice]:
        vb = self.virtual_batch
        starts = list(range(0, n, vb))
        chunks = [slice(s, min(s + vb, n)) for s in starts]
        if len(chunks) > 1 and (chunks[-1].stop - chunks[-1].start) < 2:
            merged = slice(chunks[-2].start, chunks[-1].stop)
            chunks = chunks[:-2] + [merged]
        return chunks

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        gamma, beta, eps = self.gamma, self.beta, self.eps

        if not training:
            inv = 1.0 / np.sqrt(self.running_var + eps)
            xhat = (x.data - self.running_mean) * inv
            return node(xhat * gamma.data + beta.data,
                        (x, lambda g: g * gamma.data * inv),
                        (gamma, lambda g: (g * xhat).sum(axis=0)),
                        (beta, lambda g: g.sum(axis=0)))

        n = x.shape[0]
        chunks = self._chunks(n)
        out_data = np.empty_like(x.data)
        stats = []
        for sl in chunks:
            xc = x.data[sl]
            mu = xc.mean(axis=0)
            var = xc.var(axis=0)
            inv = 1.0 / np.sqrt(var + eps)
            xhat = (xc - mu) * inv
            out_data[sl] = xhat * gamma.data + beta.data
            stats.append((sl, xhat, inv))
            self.running_mean = (
                (1.0 - self.momentum) * self.running_mean + self.momentum * mu
            )
            self.running_var = (
                (1.0 - self.momentum) * self.running_var + self.momentum * var
            )

        def vjp_x(g):
            gx = np.empty_like(g)
            for sl, xhat, inv in stats:
                gc = g[sl]
                m = gc.shape[0]
                dxhat = gc * gamma.data
                gx[sl] = (
                    inv
                    / m
                    * (
                        m * dxhat
                        - dxhat.sum(axis=0)
                        - xhat * (dxhat * xhat).sum(axis=0)
                    )
                )
            return gx

        def vjp_gamma(g):
            dgamma = np.zeros_like(gamma.data)
            for sl, xhat, _ in stats:
                dgamma += (g[sl] * xhat).sum(axis=0)
            return dgamma

        def vjp_beta(g):
            dbeta = np.zeros_like(beta.data)
            for sl, _, _ in stats:
                dbeta += g[sl].sum(axis=0)
            return dbeta

        return node(out_data, (x, vjp_x), (gamma, vjp_gamma), (beta, vjp_beta))


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
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1**self.t)
            v_hat = self.v[i] / (1.0 - self.beta2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
