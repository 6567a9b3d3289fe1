"""End-to-end acceptance suite: one test per release criterion.

Each test states its criterion, tolerance, and runtime budget inline. The
dataset-level checks run on the seed-42 synthetic corpus (450 base sessions,
2700 augmented rows), matching the documented evaluation protocol.
"""

import math
import time

import numpy as np
import pytest

from qoe_forge.classical import fit_boosted, fit_forest, fit_knn, fit_linear, fit_tree
from qoe_forge.data_model import generate_base_dataset
from qoe_forge.deep.autodiff import Tensor, sparsemax_projection
from qoe_forge.deep.networks import (
    AttentionMlpNet,
    MlpConfig,
    TabNetConfig,
    TabNetLite,
    train_attention_mlp,
    train_tabnet_lite,
)
from qoe_forge.demographics import (
    AugmentationConfig,
    augment_dataset,
    compute_impact_factors,
)
from qoe_forge.harness import ExperimentConfig, run_compare, report_to_json
from qoe_forge.metrics import correlation_by_demographic, mae, plcc, r2, rmse, srcc

from conftest import make_session, random_sessions, session_rows
from oracles import (
    bisection_simplex_projection,
    brute_force_best_split,
    brute_force_tree,
    brute_force_tree_predict,
)


def test_criterion_01_augmentation_cardinality_and_range():
    """450 base sessions -> exactly 2700 augmented rows, MOS in [0,100]; <1s."""
    start = time.perf_counter()
    base = generate_base_dataset(450, seed=42)
    aug = augment_dataset(base, AugmentationConfig(seed=1))
    elapsed = time.perf_counter() - start
    assert len(aug) == 2700
    mos = aug.column("mos").astype(float)
    assert np.all((mos >= 0.0) & (mos <= 100.0))
    assert elapsed < 1.0


def test_criterion_02_impact_factor_exactness():
    """1000 random sessions match the factor formulas to 1e-12; <1s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    log_ratio = math.log2(20_000 / 300)
    sessions = random_sessions(rng, 1000)
    f = compute_impact_factors(sessions.columns)
    for i, s in enumerate(session_rows(sessions)):
        assert abs(f.rebuff_impact[i] - min(s.stall_duration_s / 2.0, 1.0)) <= 1e-12
        assert abs(f.quality_boost[i] - 0.5 * (s.vmaf_mean / 100.0 + s.ssim_mean)) <= 1e-12
        qv = 0.5 * (s.vmaf_std / s.vmaf_mean + s.bitrate_std_kbps / s.bitrate_mean_kbps)
        assert abs(f.quality_variance[i] - qv) <= 1e-12
        assert abs(f.smoothness[i] - (1.0 - min(qv, 1.0))) <= 1e-12
        bn = min(max(math.log2(s.bitrate_mean_kbps / 300) / log_ratio, 0.0), 1.0)
        assert abs(f.bitrate_norm[i] - bn) <= 1e-12
    # Saturation: exactly 2 s of stalling already gives full rebuffering impact.
    sat = compute_impact_factors(make_session(stall_duration_s=2.0, stall_count=1).columns)
    assert sat.rebuff_impact.tolist() == [1.0]
    assert time.perf_counter() - start < 1.0


def test_criterion_03_demographic_ordering(aug2700):
    """Stall/MOS and VMAF/MOS correlations order by profile sensitivity; <5s."""
    start = time.perf_counter()
    stall = correlation_by_demographic(aug2700, "stall_duration_s")
    assert stall["gamer_sports"] < 0.0
    assert stall["elderly_user"] < 0.0
    assert stall["elderly_user"] - stall["gamer_sports"] >= 0.05
    vmaf = correlation_by_demographic(aug2700, "vmaf_mean")
    assert vmaf["quality_enthusiast"] - vmaf["mobile_user"] >= 0.03
    assert time.perf_counter() - start < 5.0


def test_criterion_04_tree_oracle_equivalence():
    """200 random instances: root split and full tree match brute force; <30s."""
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(4, 51))
        d = int(rng.integers(1, 6))
        X = rng.integers(0, 10, size=(n, d)).astype(np.float64)
        y = rng.integers(0, 20, size=n).astype(np.float64)
        expected = brute_force_best_split(X, y, min_samples_leaf=1)
        root = fit_tree(X, y, max_depth=1, min_samples_leaf=1).root
        if expected is None:
            assert root.is_leaf
        else:
            assert (root.feature, root.threshold) == expected
        oracle = brute_force_tree(X, y, max_depth=6, min_samples_leaf=1)
        model = fit_tree(X, y, max_depth=6, min_samples_leaf=1)
        np.testing.assert_array_equal(
            model.predict(X), brute_force_tree_predict(oracle, X)
        )
    assert time.perf_counter() - start < 30.0


def test_criterion_05_degeneration_identities():
    """Forest/boosting/KNN collapse to their textbook special cases exactly."""
    rng = np.random.default_rng(55)
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    # forest(T=1, no bootstrap, m=d) == tree
    forest = fit_forest(X, y, n_trees=1, bootstrap=False, n_feature_subset=4)
    np.testing.assert_array_equal(forest.predict(X), fit_tree(X, y).predict(X))
    # boosting(M=1, eta=1, unlimited depth) interpolates distinct-row data
    boosted = fit_boosted(X, y, n_stages=1, learning_rate=1.0,
                          max_depth=None, min_samples_leaf=1)
    np.testing.assert_allclose(boosted.predict(X), y, atol=1e-12)
    # KNN(k=n) predicts the global mean
    knn = fit_knn(X, y, k=60)
    np.testing.assert_allclose(knn.predict(X), np.full(60, y.mean()), atol=1e-12)


def test_criterion_06_linear_recovery():
    """Noiseless planted linear target recovered to 1e-6."""
    rng = np.random.default_rng(66)
    X = rng.normal(size=(120, 6))
    w = np.array([2.0, -3.0, 0.5, 1.25, -0.75, 4.0])
    model = fit_linear(X, X @ w + 7.0)
    np.testing.assert_allclose(model.coef, w, atol=1e-6)
    assert abs(model.intercept - 7.0) <= 1e-6


def _fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
    return g


def _max_rel_error(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-8)))


def test_criterion_07_gradient_checks():
    """AttentionMLP and TabNet-lite analytic vs central differences < 1e-4; <60s."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(16, 8))
    y = rng.normal(size=(16, 1))

    cfg = MlpConfig(hidden=(16, 8), attention_hidden=16, dropout=0.0,
                    batch_size=16, epochs=1)
    net = AttentionMlpNet(8, cfg, np.random.default_rng(3))
    aux_rng = np.random.default_rng(1)  # unused: dropout is off
    net.loss(Tensor(X), y, True, aux_rng).backward()
    for name, t in net.param_entries():
        numeric = _fd_grad(lambda: net.loss(Tensor(X), y, True, aux_rng).data, t.data)
        assert _max_rel_error(t.grad, numeric) < 1e-4, f"attention_mlp {name}"

    tcfg = TabNetConfig(step_dim=8, virtual_batch=16, batch_size=16)
    tab = TabNetLite(8, tcfg, np.random.default_rng(100))
    tab.set_frozen_norm(True)  # norm statistics frozen for the check
    tab.loss(Tensor(X), y, True).backward()
    for name, t in tab.param_entries():
        numeric = _fd_grad(lambda: tab.loss(Tensor(X), y, True).data, t.data)
        assert _max_rel_error(t.grad, numeric) < 1e-4, f"tabnet {name}"
    assert time.perf_counter() - start < 60.0


def test_criterion_08_sparsemax():
    """10^4 random vectors on the simplex (1e-8), vs bisection oracle (1e-10)."""
    rng = np.random.default_rng(8)
    for dim in (2, 3, 5, 8, 16):
        z = rng.normal(scale=3.0, size=(2000, dim))
        p, support = sparsemax_projection(z)
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-8)
        np.testing.assert_array_equal(support, p > 0.0)
        for i in range(0, 2000, 25):
            oracle = bisection_simplex_projection(z[i])
            np.testing.assert_allclose(p[i], oracle, atol=1e-10)
    # Symmetric input -> exactly uniform; dominant input -> exactly one-hot.
    p_sym, _ = sparsemax_projection(np.full((1, 4), 1.7))
    np.testing.assert_array_equal(p_sym, np.full((1, 4), 0.25))
    p_hot, _ = sparsemax_projection(np.array([[5.0, 0.0, -1.0]]))
    np.testing.assert_array_equal(p_hot, [[1.0, 0.0, 0.0]])


def test_criterion_09_metric_identities():
    """Perfect/reversed/constant predictions and RMSE>=MAE, invariances."""
    y = np.array([10.0, 30.0, 20.0, 50.0, 40.0])
    assert rmse(y, y) == 0.0
    assert mae(y, y) == 0.0
    assert r2(y, y) == 1.0
    assert plcc(y, y) == pytest.approx(1.0, abs=1e-12)
    assert srcc(y, y) == pytest.approx(1.0, abs=1e-12)
    assert srcc(y, -y) == pytest.approx(-1.0, abs=1e-12)
    assert r2(y, np.full(5, y.mean())) == pytest.approx(0.0, abs=1e-12)

    rng = np.random.default_rng(9)
    a = rng.normal(size=10_000)
    b = rng.normal(size=10_000)
    assert rmse(a, b) >= mae(a, b)
    assert plcc(2.5 * a + 3.0, b) == pytest.approx(plcc(a, b), abs=1e-10)
    assert srcc(np.exp(a), b) == pytest.approx(srcc(a, b), abs=1e-10)


def test_criterion_10_augmentation_improves_tabular_models():
    """Grouped split, demographic feature on: RF R2 >= 0.75 on augmented data
    and R2(aug) >= R2(base) for tree, forest, and KNN; full run < 10 min.

    Hyperparameters are tuned for the leakage-free grouped protocol: high-k
    KNN and large-leaf trees oversmooth 360 base rows but benefit from the
    six noisy repeats per training session in the augmented set.
    """
    start = time.perf_counter()
    cfg = ExperimentConfig(
        augment=AugmentationConfig(seed=1, adjustment_scale=18.0),
        model_params={
            "decision_tree": {"max_depth": 12, "min_samples_leaf": 8},
            # n_feature_subset >= d disables per-split subsetting
            "random_forest": {"n_feature_subset": 100, "min_samples_leaf": 1},
            "knn": {"k": 48},
        },
    )
    report, _ = run_compare(cfg)
    for side in ("base", "augmented"):
        assert all("metrics" in doc for doc in report[side]["models"].values())
    r2_of = lambda side, name: report[side]["models"][name]["metrics"]["r2"]
    assert r2_of("augmented", "random_forest") >= 0.75
    for name in ("decision_tree", "random_forest", "knn"):
        assert r2_of("augmented", name) >= r2_of("base", name), name
    assert time.perf_counter() - start < 600.0


def test_criterion_11_compare_determinism():
    """Two compare runs with an identical config yield byte-identical JSON."""
    cfg_kwargs = dict(
        dataset_n=120,
        dataset_seed=7,
        roster=("linear_regression", "random_forest", "mlp", "tabnet"),
        model_params={
            "random_forest": {"n_trees": 10},
            "mlp": {"hidden": (16,), "dropout": 0.1, "batch_size": 64, "epochs": 3},
            "tabnet": {"step_dim": 8, "batch_size": 64, "virtual_batch": 32,
                       "max_epochs": 3},
        },
        seed=21,
    )
    first, _ = run_compare(ExperimentConfig(**cfg_kwargs))
    second, _ = run_compare(ExperimentConfig(**cfg_kwargs))
    assert report_to_json(first) == report_to_json(second)


def test_criterion_12_attention_relevance_readout():
    """One informative + one noise feature: both attention readouts rank the
    informative feature first on 10/10 seeds."""
    mlp_cfg = MlpConfig(hidden=(32, 16), attention_hidden=16, dropout=0.0,
                        learning_rate=0.01, batch_size=64, epochs=30)
    tab_cfg = TabNetConfig(step_dim=8, batch_size=64, virtual_batch=32,
                           max_epochs=60, patience=15)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(400, 2))
        y = 50.0 + 10.0 * X[:, 0] + rng.normal(scale=0.5, size=400)
        gate = train_attention_mlp(X, y, mlp_cfg, seed=seed).mean_gate(X)
        assert gate[0] > gate[1], f"attention_mlp gate, seed {seed}"
        imp = train_tabnet_lite(X, y, tab_cfg, seed=seed).feature_importances(X)
        assert imp[0] > imp[1], f"tabnet importance, seed {seed}"
