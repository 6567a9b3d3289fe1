"""Trainable networks: plain MLP, feature-gating AttentionMLP, and TabNet-lite.

Targets are standardized internally during training (predictions are mapped
back to the MOS scale), so the published learning rates work at their stated
values. All training is sequential and bit-deterministic in (data, config,
seed).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import DivergenceError, InvalidArgumentError
from .autodiff import (
    Tensor,
    add,
    dropout,
    mask_entropy,
    mse,
    mul,
    relu,
    scale,
    sigmoid,
    sparsemax,
)
from .layers import Adam, GhostBatchNorm, Linear


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple[int, ...] = (256, 128, 64)
    attention_hidden: int = 128
    dropout: float = 0.2
    learning_rate: float = 0.001
    batch_size: int = 256
    epochs: int = 40

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidArgumentError("dropout must be in [0,1)")
        if not self.hidden:
            raise InvalidArgumentError("hidden needs at least one layer size")
        if min(*self.hidden, self.attention_hidden, self.batch_size, self.epochs) <= 0:
            raise InvalidArgumentError(
                "hidden sizes, attention_hidden, batch size, epochs must be positive"
            )


@dataclass(frozen=True)
class TabNetConfig:
    n_steps: int = 3
    relaxation: float = 1.3
    sparsity: float = 1e-3
    step_dim: int = 32
    batch_size: int = 256
    virtual_batch: int = 128
    max_epochs: int = 120
    patience: int = 30
    learning_rate: float = 0.02
    validation_fraction: float = 0.15

    def __post_init__(self):
        if self.n_steps < 1:
            raise InvalidArgumentError("n_steps must be >= 1")
        if self.relaxation < 1.0:
            raise InvalidArgumentError("relaxation must be >= 1")
        if not 1 <= self.virtual_batch <= self.batch_size:
            raise InvalidArgumentError("virtual batch must be in [1, batch size]")
        if self.step_dim < 1:
            raise InvalidArgumentError("step_dim must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise InvalidArgumentError("validation_fraction must be in [0,1)")


@dataclass(frozen=True)
class TargetScaler:
    """Standardizes y for training; inverse-transforms predictions."""

    mean: float = 0.0
    std: float = 1.0

    @classmethod
    def fit(cls, y: np.ndarray) -> "TargetScaler":
        sd = float(np.std(y))
        return cls(float(np.mean(y)), sd if sd > 0 else 1.0)

    def forward(self, y):
        return (y - self.mean) / self.std

    def inverse(self, y):
        return y * self.std + self.mean


class Network:
    """A network's trainable layers, declared once in ``blocks``.

    ``blocks`` is an ordered table: block name -> tuple of layers. Saved
    parameter names (``<block>.<param>``), the optimizer's parameter list and
    the norm layers with their running statistics are all read from it.
    """

    blocks: dict[str, tuple]

    def accepts_width(self, width: int) -> bool:
        return self.n_features == width

    def param_entries(self) -> list[tuple[str, Tensor]]:
        return [
            (f"{name}.{pname}", p)
            for name, layers in self.blocks.items()
            for layer in layers
            for pname, p in layer.named_parameters()
        ]

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.param_entries()]

    def norm_layers(self) -> list[tuple[str, GhostBatchNorm]]:
        return [
            (name, layer)
            for name, layers in self.blocks.items()
            for layer in layers
            if isinstance(layer, GhostBatchNorm)
        ]

    def state(self) -> dict:
        """The trained state as plain JSON values: every parameter by saved
        name, each norm layer's running statistics by block, and the target
        scaler. Float lists round-trip float64 exactly."""
        return {
            "params": {
                name: {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
                for name, p in self.param_entries()
            },
            "norm": {
                name: {"running_mean": bn.running_mean.tolist(),
                       "running_var": bn.running_var.tolist()}
                for name, bn in self.norm_layers()
            },
            "target_scaler": asdict(self.target_scaler),
        }

    def load_state(self, state: dict) -> None:
        """Restore what ``state`` returned; every array keeps its shape."""
        for name, p in self.param_entries():
            entry = state["params"][name]
            data = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            p.data = _same_shape(name, data, p.data)
        for name, bn in self.norm_layers():
            norm = state["norm"][name]
            bn.running_mean = _same_shape(f"{name}.running_mean", norm["running_mean"],
                                          bn.running_mean)
            bn.running_var = _same_shape(f"{name}.running_var", norm["running_var"],
                                         bn.running_var)
        scaler = state["target_scaler"]
        self.target_scaler = TargetScaler(float(scaler["mean"]), float(scaler["std"]))


def _same_shape(name: str, values, like: np.ndarray) -> np.ndarray:
    """``values`` as a float64 array, which must have the shape of ``like``."""
    out = np.asarray(values, dtype=np.float64)
    if out.shape != like.shape:
        raise InvalidArgumentError(
            f"state entry {name} has shape {out.shape}, expected {like.shape}"
        )
    return out


class MlpNet(Network):
    """Plain fully connected regressor: hidden ReLU/dropout stack + linear head."""

    def __init__(self, n_features: int, cfg: MlpConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.n_features = n_features
        sizes = [n_features, *cfg.hidden]
        self.hidden_layers = [Linear(a, b, rng) for a, b in zip(sizes, sizes[1:])]
        self.head = Linear(sizes[-1], 1, rng)
        self.blocks = {f"hidden{i}": (layer,) for i, layer in enumerate(self.hidden_layers)}
        self.blocks["head"] = (self.head,)
        self.target_scaler = TargetScaler()  # set by training or loading

    def forward(self, x: Tensor, training: bool, rng: np.random.Generator) -> Tensor:
        h = x
        for layer in self.hidden_layers:
            h = dropout(relu(layer(h)), self.cfg.dropout, rng, training)
        return self.head(h)

    def loss(self, x: Tensor, y: np.ndarray, training: bool,
             rng: np.random.Generator) -> Tensor:
        return mse(self.forward(x, training, rng), y)

    def predict(self, X) -> np.ndarray:
        out = self.forward(Tensor(np.asarray(X, dtype=np.float64)), False, None)
        return self.target_scaler.inverse(out.data[:, 0])


class AttentionMlpNet(MlpNet):
    """MLP with a learned sigmoid feature gate applied before the stack."""

    def __init__(self, n_features: int, cfg: MlpConfig, rng: np.random.Generator):
        # Gate layers are created first so the MLP stack sees the same rng
        # stream regardless of subclass; order is fixed for determinism.
        gate = {
            "gate_in": (Linear(n_features, cfg.attention_hidden, rng),),
            "gate_out": (Linear(cfg.attention_hidden, n_features, rng),),
        }
        super().__init__(n_features, cfg, rng)
        self.blocks = {**gate, **self.blocks}

    def gate(self, x: Tensor) -> Tensor:
        (gate_in,), (gate_out,) = self.blocks["gate_in"], self.blocks["gate_out"]
        return sigmoid(gate_out(relu(gate_in(x))))

    def forward(self, x: Tensor, training: bool, rng: np.random.Generator) -> Tensor:
        return super().forward(mul(x, self.gate(x)), training, rng)

    def mean_gate(self, X) -> np.ndarray:
        """Mean attention gate over a dataset; feature-importance readout."""
        alpha = self.gate(Tensor(np.asarray(X, dtype=np.float64)))
        return alpha.data.mean(axis=0)


class TabNetLite(Network):
    """Sequential sparsemax feature masks with ghost batch normalization.

    Each decision step masks the input with a sparsemax attention vector
    (relaxed by the prior of earlier steps), runs a two-block feature
    transformer, and contributes a ReLU'd vector to the summed decision
    output. Loss adds a mask-entropy sparsity term. Step ``t`` uses the
    blocks ``attentive<t>``, ``transform1<t>`` and ``transform2<t>``, each a
    linear layer followed by a ghost batch norm.
    """

    def __init__(self, n_features: int, cfg: TabNetConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.n_features = n_features
        d, k, vb = n_features, cfg.step_dim, cfg.virtual_batch
        # Linear layers are drawn step by step; the table lists them by block.
        steps = [
            (Linear(d, d, rng), Linear(d, k, rng), Linear(k, k, rng))
            for _ in range(cfg.n_steps)
        ]
        self.blocks = {}
        for block, dim, linears in zip(
            ("attentive", "transform1", "transform2"), (d, k, k), zip(*steps)
        ):
            for t, lin in enumerate(linears):
                self.blocks[f"{block}{t}"] = (lin, GhostBatchNorm(dim, vb))
        self.head = Linear(k, 1, rng)
        self.blocks["head"] = (self.head,)
        self.target_scaler = TargetScaler()  # set by training or loading

    def _steps(self, x: Tensor, training: bool):
        n, d = x.shape
        prior = Tensor(np.ones((n, d)))
        masks = []
        contribs = []
        total = None
        for t in range(self.cfg.n_steps):
            lin_a, bn_a = self.blocks[f"attentive{t}"]
            scores = mul(prior, bn_a(lin_a(x), training))
            mask = sparsemax(scores)
            masks.append(mask)
            relaxed = add(scale(mask, -1.0), Tensor(np.full((n, d), self.cfg.relaxation)))
            prior = mul(prior, relaxed)

            lin1, bn1 = self.blocks[f"transform1{t}"]
            lin2, bn2 = self.blocks[f"transform2{t}"]
            h = relu(bn1(lin1(mul(x, mask)), training))
            contrib = relu(bn2(lin2(h), training))
            contribs.append(contrib)
            total = contrib if total is None else add(total, contrib)
        return total, masks, contribs

    def forward(self, x: Tensor, training: bool,
                rng: np.random.Generator | None = None) -> Tensor:
        total, _, _ = self._steps(x, training)
        return self.head(total)

    def loss(self, x: Tensor, y: np.ndarray, training: bool,
             rng: np.random.Generator | None = None) -> Tensor:
        total, masks, _ = self._steps(x, training)
        out = mse(self.head(total), y)
        penalty = None
        for mask in masks:
            term = mask_entropy(mask)
            penalty = term if penalty is None else add(penalty, term)
        return add(out, scale(penalty, self.cfg.sparsity / self.cfg.n_steps))

    def predict(self, X) -> np.ndarray:
        out = self.forward(Tensor(np.asarray(X, dtype=np.float64)), False)
        return self.target_scaler.inverse(out.data[:, 0])

    def feature_importances(self, X) -> np.ndarray:
        """Masks aggregated over steps, weighted by step contribution magnitude.

        A step's magnitude for a sample is the absolute size of its share of
        the final prediction (its output through the linear head), so steps
        that barely influence the decision barely influence the importances.
        """
        x = Tensor(np.asarray(X, dtype=np.float64))
        _, masks, contribs = self._steps(x, False)
        head_w = self.head.W.data[:, 0]
        agg = np.zeros(x.shape[1])
        for mask, contrib in zip(masks, contribs):
            weight = np.abs(contrib.data @ head_w)[:, None]
            agg += (mask.data * weight).sum(axis=0)
        total = agg.sum()
        return agg / total if total > 0 else np.full(x.shape[1], 1.0 / x.shape[1])


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def train_mlp(X, y, cfg: MlpConfig, seed: int) -> MlpNet:
    net, X, yt, rng = _new_net(MlpNet, X, y, cfg, seed)
    for _ in _epochs(net, X, yt, cfg.epochs, rng):
        pass
    return net


def train_attention_mlp(X, y, cfg: MlpConfig, seed: int) -> AttentionMlpNet:
    net, X, yt, rng = _new_net(AttentionMlpNet, X, y, cfg, seed)
    for _ in _epochs(net, X, yt, cfg.epochs, rng):
        pass
    return net


def train_tabnet_lite(X, y, cfg: TabNetConfig, seed: int) -> TabNetLite:
    """Adam training with early stopping on a held-out validation fraction."""
    net, X, yt, rng = _new_net(TabNetLite, X, y, cfg, seed)
    n = len(yt)
    n_val = max(1, round(n * cfg.validation_fraction)) if n >= 4 else 0
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    Xval, yval = X[val_idx], yt[val_idx]

    best_val = np.inf
    best_state = None
    stale = 0
    for _ in _epochs(net, X[train_idx], yt[train_idx], cfg.max_epochs, rng):
        if n_val:
            val_pred = net.forward(Tensor(Xval), False).data
            val_mse = float(np.mean((val_pred - yval) ** 2))
        else:
            val_mse = net.loss_curve[-1]
        if val_mse < best_val:
            best_val = val_mse
            best_state = net.state()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    if best_state is not None:
        net.load_state(best_state)
    return net


def _new_net(net_cls, X, y, cfg, seed: int):
    """A freshly initialized net with its target scaler fit on ``y``; returns
    (net, X as float64, standardized y as a column, the training rng)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(seed)
    net = net_cls(X.shape[1], cfg, rng)
    net.target_scaler = TargetScaler.fit(y)
    return net, X, net.target_scaler.forward(y)[:, None], rng


def _epochs(net, X, yt, n_epochs: int, rng: np.random.Generator):
    """Adam on shuffled mini-batches of ``net.cfg.batch_size`` rows, yielding
    after each epoch so the caller can stop early by leaving its loop.

    Records the mean batch loss of each epoch in ``net.loss_curve`` and the
    epochs completed in ``net.epochs_run``. A non-finite batch loss raises
    ``DivergenceError`` naming the 1-based epoch.
    """
    opt = Adam(net.parameters(), lr=net.cfg.learning_rate)
    net.loss_curve = []
    net.epochs_run = 0
    for epoch in range(n_epochs):
        losses = []
        for idx in _epoch_batches(len(yt), net.cfg.batch_size, rng):
            loss = net.loss(Tensor(X[idx]), yt[idx], True, rng)
            if not np.isfinite(loss.data):
                raise DivergenceError(epoch + 1)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        net.loss_curve.append(float(np.mean(losses)))
        net.epochs_run = epoch + 1
        yield

