"""Autodiff primitives, layers, and the three deep regressors."""

from dataclasses import replace

import numpy as np
import pytest

from qoe_forge.deep.autodiff import (
    Tensor,
    add,
    add_bias,
    dropout,
    mask_entropy,
    matmul,
    mse,
    mul,
    relu,
    scale,
    sigmoid,
    sparsemax,
    sparsemax_projection,
)
from qoe_forge.deep.layers import Adam, GhostBatchNorm, Linear
from qoe_forge.deep.networks import (
    AttentionMlpNet,
    MlpConfig,
    MlpNet,
    TabNetConfig,
    TabNetLite,
    train_attention_mlp,
    train_mlp,
    train_tabnet_lite,
)
from qoe_forge.errors import DivergenceError


def fd_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestAutodiffPrimitives:
    def test_composite_graph_gradients(self):
        rng = np.random.default_rng(0)
        W1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b1 = Tensor(rng.normal(size=5), requires_grad=True)
        W2 = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
        X = rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 1))

        def loss_value():
            h = relu(add_bias(matmul(Tensor(X), W1), b1))
            out = matmul(sigmoid(h), W2)
            return mse(out, y).data

        h = relu(add_bias(matmul(Tensor(X), W1), b1))
        out = matmul(sigmoid(h), W2)
        loss = mse(out, y)
        loss.backward()
        for t in (W1, b1, W2):
            numeric = fd_grad(loss_value, t.data)
            assert max_rel_error(t.grad, numeric) < 1e-6

    def test_add_mul_scale(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

        def value():
            return mse(scale(add(mul(a, b), a), 0.7), np.zeros((3, 3))).data

        loss = mse(scale(add(mul(a, b), a), 0.7), np.zeros((3, 3)))
        loss.backward()
        assert max_rel_error(a.grad, fd_grad(value, a.data)) < 1e-7
        assert max_rel_error(b.grad, fd_grad(value, b.data)) < 1e-7

    def test_reused_node_accumulates(self):
        # y = x*x + x: gradient 2x + 1, exercised through a shared subgraph.
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        loss = mse(add(mul(x, x), x), np.zeros((1, 1)))
        loss.backward()
        # d/dx (x^2+x)^2 = 2*(x^2+x)*(2x+1) = 2*12*7 = 168
        assert x.grad[0, 0] == pytest.approx(168.0)

    def test_dropout_train_and_eval(self):
        x = Tensor(np.ones((200, 10)), requires_grad=True)
        rng = np.random.default_rng(2)
        out = dropout(x, 0.4, rng, training=True)
        kept = out.data != 0
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.6)
        assert 0.45 < kept.mean() < 0.75
        out_eval = dropout(x, 0.4, rng, training=False)
        np.testing.assert_array_equal(out_eval.data, x.data)

    def test_mask_entropy_value(self):
        m = np.array([[0.5, 0.5], [1.0, 0.0]])
        expected = np.mean(
            [-np.sum(row * np.log(row + 1e-10)) for row in m]
        )
        assert mask_entropy(Tensor(m)).data == pytest.approx(expected, abs=1e-12)

    def test_mask_entropy_gradient(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 5))
        m = Tensor(np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True),
                   requires_grad=True)
        mask_entropy(m).backward()
        numeric = fd_grad(lambda: mask_entropy(Tensor(m.data)).data, m.data)
        assert max_rel_error(m.grad, numeric) < 1e-6


class TestGradientPruning:
    def test_ops_on_constants_record_nothing(self):
        rng = np.random.default_rng(9)
        a, b = Tensor(rng.random((3, 3))), Tensor(rng.random((3, 3)))
        outs = [matmul(a, b), add_bias(a, Tensor(np.ones(3))), add(a, b), mul(a, b),
                scale(a, 2.0), relu(a), sigmoid(a), dropout(a, 0.5, rng, True),
                sparsemax(a), mse(a, b.data), mask_entropy(a)]
        for out in outs:
            assert not out.requires_grad and out.inputs == ()
        # Mixed inputs: only the one that asks is recorded.
        w = Tensor(rng.random((3, 3)), requires_grad=True)
        out = matmul(a, w)
        assert out.requires_grad and [t for t, _ in out.inputs] == [w]
        mse(out, b.data).backward()
        assert a.grad is None and w.grad is not None

    @pytest.mark.parametrize("net_cls, cfg", [
        (MlpNet, MlpConfig(hidden=(8,), attention_hidden=8, batch_size=16)),
        (AttentionMlpNet, MlpConfig(hidden=(8,), attention_hidden=8, batch_size=16)),
        (TabNetLite, TabNetConfig(step_dim=8, batch_size=16, virtual_batch=8)),
    ])
    def test_only_parameters_receive_gradients(self, net_cls, cfg):
        X, y = tiny_regression(n=16)
        net = net_cls(4, cfg, np.random.default_rng(0))
        x = Tensor(X)
        net.loss(x, y[:, None], True, np.random.default_rng(1)).backward()
        assert x.grad is None
        for name, p in net.param_entries():
            assert p.grad is not None, name


class TestSparsemax:
    def test_symmetric_input_uniform(self):
        p, support = sparsemax_projection(np.zeros((1, 5)))
        np.testing.assert_allclose(p, np.full((1, 5), 0.2), atol=1e-15)
        assert support.all()

    def test_one_hot_limit(self):
        p, _ = sparsemax_projection(np.array([[10.0, 0.0, -3.0]]))
        np.testing.assert_array_equal(p, [[1.0, 0.0, 0.0]])

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(2, 7))
        p1, _ = sparsemax_projection(z)
        p2, _ = sparsemax_projection(z + 100.0)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        target = rng.normal(size=(3, 6))
        mse(sparsemax(z), target).backward()
        numeric = fd_grad(lambda: mse(sparsemax(Tensor(z.data)), target).data, z.data)
        assert max_rel_error(z.grad, numeric) < 1e-5


class TestLayers:
    def test_linear_init_deterministic(self):
        a = Linear(4, 3, np.random.default_rng(0))
        b = Linear(4, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(a.W.data, b.W.data)
        np.testing.assert_array_equal(a.b.data, np.zeros(3))
        limit = np.sqrt(6.0 / 7.0)
        assert np.all(np.abs(a.W.data) <= limit)

    def test_gbn_normalizes_per_chunk(self):
        rng = np.random.default_rng(6)
        gbn = GhostBatchNorm(3, virtual_batch=4)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(8, 3)))
        out = gbn(x, training=True).data
        for sl in (slice(0, 4), slice(4, 8)):
            np.testing.assert_allclose(out[sl].mean(axis=0), 0.0, atol=1e-10)
            np.testing.assert_allclose(out[sl].std(axis=0), 1.0, atol=1e-3)

    def test_gbn_trailing_chunk_merged(self):
        gbn = GhostBatchNorm(2, virtual_batch=4)
        assert gbn._chunks(9) == [slice(0, 4), slice(4, 9)]
        assert gbn._chunks(8) == [slice(0, 4), slice(4, 8)]
        assert gbn._chunks(3) == [slice(0, 3)]

    def test_gbn_running_stats_and_inference(self):
        rng = np.random.default_rng(7)
        gbn = GhostBatchNorm(2, virtual_batch=8, momentum=0.5)
        x = rng.normal(loc=2.0, size=(8, 2))
        gbn(Tensor(x), training=True)
        np.testing.assert_allclose(gbn.running_mean, 0.5 * x.mean(axis=0), atol=1e-12)
        out = gbn(Tensor(x), training=False).data
        expected = (x - gbn.running_mean) / np.sqrt(gbn.running_var + gbn.eps)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gbn_train_gradient(self):
        rng = np.random.default_rng(8)
        gbn = GhostBatchNorm(3, virtual_batch=4)
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        target = rng.normal(size=(8, 3))

        def value():
            g2 = GhostBatchNorm(3, virtual_batch=4)
            g2.gamma.data = gbn.gamma.data
            g2.beta.data = gbn.beta.data
            return mse(g2(Tensor(x.data), training=True), target).data

        mse(gbn(x, training=True), target).backward()
        numeric = fd_grad(value, x.data)
        assert max_rel_error(x.grad, numeric) < 1e-5

    def test_adam_first_step_oracle(self):
        p = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([[0.5, -2.0]])
        opt.step()
        # Bias-corrected first step moves each coordinate by ~lr against the
        # gradient sign: m_hat = g, v_hat = g^2, step = lr*g/(|g|+eps).
        np.testing.assert_allclose(
            p.data, [[1.0 - 0.1 * (0.5 / (0.5 + 1e-8)), 2.0 + 0.1 * (2.0 / (2.0 + 1e-8))]],
            atol=1e-9,
        )


def tiny_regression(seed=0, n=64, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = 40.0 + 10.0 * X[:, 0] - 5.0 * X[:, 1] + rng.normal(scale=0.5, size=n)
    return X, y


SMALL_MLP = MlpConfig(hidden=(16, 8), attention_hidden=8, dropout=0.0,
                      learning_rate=0.01, batch_size=32, epochs=40)
SMALL_TABNET = TabNetConfig(step_dim=8, batch_size=32, virtual_batch=16,
                            max_epochs=40, patience=10)


class TestTraining:
    def test_mlp_learns_and_is_deterministic(self):
        X, y = tiny_regression()
        a = train_mlp(X, y, SMALL_MLP, seed=1)
        b = train_mlp(X, y, SMALL_MLP, seed=1)
        assert a.loss_curve[-1] < 0.2 * a.loss_curve[0]
        np.testing.assert_array_equal(a.predict(X), b.predict(X))
        rmse = np.sqrt(np.mean((a.predict(X) - y) ** 2))
        assert rmse < 3.0

    def test_attention_mlp_learns(self):
        X, y = tiny_regression()
        net = train_attention_mlp(X, y, SMALL_MLP, seed=1)
        gate = net.mean_gate(X)
        assert gate.shape == (4,)
        assert np.all((gate >= 0) & (gate <= 1))
        rmse = np.sqrt(np.mean((net.predict(X) - y) ** 2))
        assert rmse < 4.0

    def test_tabnet_learns_and_stops_early(self):
        X, y = tiny_regression(n=128)
        net = train_tabnet_lite(X, y, SMALL_TABNET, seed=2)
        assert net.epochs_run <= SMALL_TABNET.max_epochs
        rmse = np.sqrt(np.mean((net.predict(X) - y) ** 2))
        assert rmse < 6.0

    def test_tabnet_masks_on_simplex(self):
        X, y = tiny_regression(n=32)
        net = train_tabnet_lite(X, y, SMALL_TABNET, seed=3)
        _, masks, _ = net._steps(Tensor(X), False)
        assert len(masks) == SMALL_TABNET.n_steps
        for m in masks:
            assert np.all(m.data >= -1e-12)
            np.testing.assert_allclose(m.data.sum(axis=1), 1.0, atol=1e-8)

    def test_tabnet_importances_normalized(self):
        X, y = tiny_regression(n=32)
        net = train_tabnet_lite(X, y, SMALL_TABNET, seed=4)
        imp = net.feature_importances(X)
        assert imp.shape == (4,)
        assert np.all(imp >= 0)
        assert imp.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        X, y = tiny_regression()
        # Adam steps are bounded by ~lr, so the rate itself must be big
        # enough that one update overflows the next forward pass.
        cfg = MlpConfig(hidden=(16,), dropout=0.0, learning_rate=1e160,
                        batch_size=32, epochs=5)
        with pytest.raises(DivergenceError):
            train_mlp(X, y, cfg, seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tabnet_divergence_detected(self):
        X, y = tiny_regression()
        cfg = TabNetConfig(step_dim=8, batch_size=32, virtual_batch=16, max_epochs=5,
                           learning_rate=1e160)
        with pytest.raises(DivergenceError):
            train_tabnet_lite(X, y, cfg, seed=0)

    def test_tabnet_patience_stops_early_and_restores_best(self):
        X, y = tiny_regression(n=128)
        cfg = TabNetConfig(step_dim=8, batch_size=32, virtual_batch=16, max_epochs=60,
                           patience=2, learning_rate=0.2)
        net = train_tabnet_lite(X, y, cfg, seed=2)
        assert 2 < net.epochs_run < cfg.max_epochs
        assert len(net.loss_curve) == net.epochs_run
        # Stopped `patience` epochs after the best one, whose weights it keeps:
        # a run cut at the best epoch ends with the same net.
        best = replace(cfg, max_epochs=net.epochs_run - cfg.patience)
        np.testing.assert_array_equal(net.predict(X),
                                      train_tabnet_lite(X, y, best, seed=2).predict(X))

    def test_fixed_epoch_training_records_every_epoch(self):
        X, y = tiny_regression()
        for train in (train_mlp, train_attention_mlp):
            net = train(X, y, SMALL_MLP, seed=1)
            assert net.epochs_run == len(net.loss_curve) == SMALL_MLP.epochs

    def test_target_scale_invariance_of_training(self):
        # Internally standardized targets: training on MOS-scale values works
        # with the same learning rate as unit-scale values.
        X, y = tiny_regression()
        net = train_mlp(X, y, SMALL_MLP, seed=5)
        assert abs(net.predict(X).mean() - y.mean()) < 2.0


class TestGradChecks:
    def test_mlp_gradients(self):
        self._check_net(MlpNet, seed=3, tol=1e-5)

    def test_attention_mlp_gradients(self):
        self._check_net(AttentionMlpNet, seed=3, tol=1e-5)

    @staticmethod
    def _check_net(net_cls, seed, tol):
        rng_data = np.random.default_rng(0)
        X = rng_data.normal(size=(16, 8))
        y = rng_data.normal(size=(16, 1))
        cfg = MlpConfig(hidden=(16, 8), attention_hidden=16, dropout=0.0,
                        batch_size=16, epochs=1)
        net = net_cls(8, cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(1)
        loss = net.loss(Tensor(X), y, True, rng)
        loss.backward()
        for name, t in net.param_entries():
            numeric = fd_grad(
                lambda: net.loss(Tensor(X), y, True, rng).data, t.data
            )
            assert max_rel_error(t.grad, numeric) < tol, name
