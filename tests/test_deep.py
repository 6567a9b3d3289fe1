"""Autodiff primitives, layers, and the three deep regressors."""

import contextlib
import tracemalloc
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
    no_grad,
    relu,
    scale,
    sigmoid,
    sparsemax,
    sparsemax_projection,
)
from qoe_forge.deep import networks
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
from qoe_forge.errors import DivergenceError, InvalidArgumentError

from oracles import loop_ghost_batch_norm


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


TINY_NETS = [
    (MlpNet, MlpConfig(hidden=(8,), attention_hidden=8, batch_size=16)),
    (AttentionMlpNet, MlpConfig(hidden=(8,), attention_hidden=8, batch_size=16)),
    (TabNetLite, TabNetConfig(step_dim=8, batch_size=16, virtual_batch=8)),
]


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

    @pytest.mark.parametrize("net_cls, cfg", TINY_NETS)
    def test_only_parameters_receive_gradients(self, net_cls, cfg):
        X, y = tiny_regression(n=16)
        net = net_cls(4, cfg, np.random.default_rng(0))
        x = Tensor(X)
        net.loss(x, y[:, None], True, np.random.default_rng(1)).backward()
        assert x.grad is None
        for name, p in net.param_entries():
            assert p.grad is not None, name


def graph_nodes(out: Tensor) -> list[Tensor]:
    """Every tensor reached from ``out`` through recorded inputs."""
    found, stack = {}, [out]
    while stack:
        t = stack.pop()
        if id(t) not in found:
            found[id(t)] = t
            stack += [p for p, _ in t.inputs]
    return list(found.values())


def traced_peak(fn) -> int:
    """The peak of traced memory, in bytes, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRecordingScope:
    def test_forward_in_the_scope_records_nothing(self):
        X, _ = tiny_regression(n=16)
        for net_cls, cfg in TINY_NETS:
            net = net_cls(4, cfg, np.random.default_rng(0))
            with no_grad():
                out = net.forward(Tensor(X), False, None)
            assert out.inputs == () and not out.requires_grad
            assert net.forward(Tensor(X), False, None).inputs != ()

    @pytest.mark.parametrize("net_cls, cfg", TINY_NETS)
    def test_readouts_equal_the_recorded_forward(self, net_cls, cfg, monkeypatch):
        X, _ = tiny_regression(n=40)
        net = net_cls(4, cfg, np.random.default_rng(0))
        names = [n for n in ("predict", "mean_gate", "feature_importances") if hasattr(net, n)]
        scoped = {n: getattr(net, n)(X) for n in names}
        monkeypatch.setattr(networks, "no_grad", contextlib.nullcontext)
        recorded = {n: getattr(net, n)(X) for n in names}
        for n in names:
            np.testing.assert_array_equal(scoped[n], recorded[n], err_msg=n)
        assert all(p.grad is None for p in net.parameters())

    def test_scope_is_restored_after_an_exception_and_when_nested(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        x = Tensor(np.ones((1, 2)))
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside the scope")
        assert matmul(x, w).inputs != ()
        with no_grad():
            with no_grad():
                pass
            assert matmul(x, w).inputs == ()
        assert matmul(x, w).inputs != ()
        # A training step after the scopes still reaches every parameter.
        X, y = tiny_regression(n=16)
        for net_cls, cfg in TINY_NETS:
            net = net_cls(4, cfg, np.random.default_rng(0))
            net.loss(Tensor(X), y[:, None], True, np.random.default_rng(1)).backward()
            for name, p in net.param_entries():
                assert p.grad is not None, name

    @pytest.mark.parametrize("net_cls, cfg", TINY_NETS)
    def test_backward_releases_the_graph_it_walks(self, net_cls, cfg):
        X, y = tiny_regression(n=16)
        net = net_cls(4, cfg, np.random.default_rng(0))
        loss = net.loss(Tensor(X), y[:, None], True, np.random.default_rng(1))
        nodes = graph_nodes(loss)
        assert len(nodes) > len(net.parameters())
        loss.backward()
        assert all(t.inputs == () for t in nodes)

    @pytest.mark.parametrize("net_cls, cfg", [
        (MlpNet, MlpConfig()), (AttentionMlpNet, MlpConfig()), (TabNetLite, TabNetConfig()),
    ])
    def test_predict_peak_is_under_half_the_recorded_forward(self, net_cls, cfg):
        # A recorded forward keeps every activation alive until it returns;
        # inference frees each one after its last use. The ratios measured
        # were 0.38, 0.30 and 0.24.
        X = np.random.default_rng(0).normal(size=(4000, 13))
        net = net_cls(13, cfg, np.random.default_rng(1))
        recorded = traced_peak(lambda: net.forward(Tensor(X), False, None))
        assert traced_peak(lambda: net.predict(X)) < 0.5 * recorded


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
        assert gbn._runs(9) == [(0, 1, 4), (4, 1, 5)]
        assert gbn._runs(8) == [(0, 2, 4)]
        assert gbn._runs(10) == [(0, 2, 4), (8, 1, 2)]
        assert gbn._runs(5) == [(0, 1, 5)]
        assert gbn._runs(3) == [(0, 1, 3)]

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

    @pytest.mark.parametrize("n, vb, dim", [
        (48, 16, 5),    # q * vb: three full virtual batches
        (53, 16, 5),    # q * vb + r, r >= 2: a ragged tail
        (49, 16, 5),    # q * vb + 1: the last row merged into a 17-row chunk
        (17, 16, 3),    # vb + 1: one merged chunk
        (11, 16, 5),    # n < vb
        (2, 16, 4),     # the smallest batch
        (257, 128, 1),  # one column sums pairwise; a 129-row merged tail
        # Ten equal chunks of one column: one reduction over their sums would
        # add them pairwise, not chunk by chunk.
        (160, 16, 1),
        (173, 16, 1),
        (300, 128, 13),
        (256, 128, 32),
    ])
    @pytest.mark.parametrize("upstream", ["normal", "zero", "negative_zero"])
    def test_gbn_matches_per_chunk_loop_bitwise(self, n, vb, dim, upstream):
        rng = np.random.default_rng(n * 100 + dim)
        bn = GhostBatchNorm(dim, virtual_batch=vb)
        bn.gamma.data = rng.normal(1.0, 0.3, dim)
        bn.beta.data = rng.normal(0.0, 0.3, dim)
        bn.running_mean = rng.normal(size=dim)
        bn.running_var = rng.uniform(0.5, 2.0, dim)
        x = rng.normal(3.0, 2.0, (n, dim))
        g = {"normal": rng.normal(size=(n, dim)), "zero": np.zeros((n, dim)),
             "negative_zero": np.full((n, dim), -0.0)}[upstream]
        expected = loop_ghost_batch_norm(x, g, bn.gamma.data, bn.beta.data,
                                         bn.running_mean, bn.running_var, vb)

        xt = Tensor(x, requires_grad=True)
        out = bn(xt, training=True)
        grads = {id(t): vjp(g) for t, vjp in out.inputs}
        got = (out.data, bn.running_mean, bn.running_var,
               grads[id(xt)], grads[id(bn.gamma)], grads[id(bn.beta)])
        for name, a, b in zip(("out", "running_mean", "running_var", "dx", "dgamma",
                               "dbeta"), got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        if upstream != "normal":
            # Chunk sums are added to +0.0, so no -0.0 reaches a parameter.
            assert not np.signbit(got[4]).any() and not np.signbit(got[5]).any()

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

    def test_adam_matches_textbook_steps_bitwise(self):
        rng = np.random.default_rng(12)
        shapes = [(3, 4), (4,), (2, 2)]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        for t in range(1, 8):
            # The last parameter has no gradient on odd steps.
            grads = [rng.normal(size=s) for s in shapes]
            if t % 2:
                grads[-1] = None
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            for i, g in enumerate(grads):
                g = np.zeros(shapes[i]) if g is None else g
                ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * g * g
                m_hat = ref_m[i] / (1.0 - b1**t)
                v_hat = ref_v[i] / (1.0 - b2**t)
                ref_p[i] = ref_p[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert params[i].data.tobytes() == ref_p[i].tobytes(), (t, i)

    def test_adam_step_writes_no_grad(self):
        a = Tensor(np.array([[1.5]]), requires_grad=True)
        b = Tensor(np.array([[-0.5]]), requires_grad=True)
        add(a, b).backward()
        # add hands its gradient to both inputs, which keep it uncopied.
        assert a.grad is b.grad
        before = a.grad.copy()
        Adam([a, b], lr=0.1).step()
        np.testing.assert_array_equal(a.grad, before)
        assert a.grad is b.grad


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

    def test_tabnet_keeps_its_best_epoch_without_a_model_document(self, monkeypatch):
        # Each improving epoch encoded the whole net, and the restore decoded
        # it again; the net now holds the best epoch's arrays.
        def refuse(*args):
            raise AssertionError("early stopping went through a model document")

        monkeypatch.setattr(networks.Network, "state", refuse)
        monkeypatch.setattr(networks.Network, "load_state", refuse)
        X, y = tiny_regression(n=128)
        cfg = TabNetConfig(step_dim=8, batch_size=32, virtual_batch=16, max_epochs=60,
                           patience=2, learning_rate=0.2)
        net = train_tabnet_lite(X, y, cfg, seed=2)
        best = train_tabnet_lite(X, y, replace(cfg, max_epochs=net.epochs_run - cfg.patience),
                                 seed=2)
        for (name, p), (_, q) in zip(net.param_entries(), best.param_entries()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)
        for (name, a), (_, b) in zip(net.norm_layers(), best.norm_layers()):
            np.testing.assert_array_equal(a.running_mean, b.running_mean, err_msg=name)
            np.testing.assert_array_equal(a.running_var, b.running_var, err_msg=name)

    @pytest.mark.parametrize("n, fraction", [(10, 0.95), (288, 0.999), (4, 0.9)])
    def test_tabnet_validation_split_of_every_row_is_a_domain_error(self, n, fraction):
        # It trained on no row: a loss curve of NaN and an untrained net.
        X, y = tiny_regression(n=n)
        cfg = replace(SMALL_TABNET, validation_fraction=fraction)
        with pytest.raises(InvalidArgumentError, match="validation_fraction"):
            train_tabnet_lite(X, y, cfg, seed=0)

    def test_tabnet_validation_split_may_leave_one_training_row(self):
        X, y = tiny_regression(n=10)
        cfg = replace(SMALL_TABNET, validation_fraction=0.9, max_epochs=2)
        net = train_tabnet_lite(X, y, cfg, seed=0)
        assert net.epochs_run == 2
        assert np.isfinite(net.loss_curve).all()

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
