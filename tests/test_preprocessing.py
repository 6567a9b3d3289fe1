"""Encoding, standardization, and leakage-safe splitting."""

import numpy as np
import pytest

from qoe_forge.data_model import Dataset, generate_base_dataset
from qoe_forge.errors import InvalidArgumentError, SchemaMismatchError
from qoe_forge.preprocessing import (
    ColumnEncoder,
    FittedPreprocessor,
    SplitSpec,
    StandardScaler,
    fit_transform,
    split,
    held_out_group_ids,
    transform,
)

from conftest import columns_equal


class TestColumnEncoder:
    def test_first_appearance_order(self):
        enc = ColumnEncoder("device").fit(["tv", "phone", "tv", "laptop"])
        assert enc.mapping == {"tv": 0, "phone": 1, "laptop": 2}
        np.testing.assert_array_equal(
            enc.encode(["laptop", "tv"]), np.array([2.0, 0.0])
        )

    def test_unseen_label_overflow_with_warning(self):
        enc = ColumnEncoder("device").fit(["tv", "phone"])
        with pytest.warns(UserWarning, match="unseen"):
            codes = enc.encode(["tablet", "tv"])
        np.testing.assert_array_equal(codes, np.array([2.0, 0.0]))

    def test_matches_row_loop(self, aug2700):
        labels = aug2700.column("demographic")[::-7]
        enc = ColumnEncoder("demographic").fit(labels)
        mapping = {}
        for lab in labels.tolist():
            mapping.setdefault(lab, len(mapping))
        assert list(enc.mapping.items()) == list(mapping.items())
        assert all(type(k) is str for k in enc.mapping)
        queries = aug2700.column("demographic")
        assert enc.encode(queries).tolist() == [float(mapping[q]) for q in queries.tolist()]

    def test_refit_appends_new_labels(self):
        enc = ColumnEncoder("device").fit(["tv", "phone"]).fit(["phone", "pc", "tv"])
        assert enc.mapping == {"tv": 0, "phone": 1, "pc": 2}

    def test_empty_labels(self):
        enc = ColumnEncoder("device").fit(["tv"])
        assert enc.encode(np.array([], dtype=object)).shape == (0,)


class TestStandardScaler:
    def test_population_moments(self):
        sc = StandardScaler()
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        assert sc.fit("x", vals)
        out = sc.transform("x", vals)
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0, abs=1e-12)  # population sigma
        assert sc.std["x"] == pytest.approx(np.std(vals))

    def test_constant_column_dropped(self):
        sc = StandardScaler()
        with pytest.warns(UserWarning, match="constant"):
            kept = sc.fit("x", np.array([5.0, 5.0, 5.0]))
        assert not kept
        assert "x" not in sc.mean


class TestFitTransform:
    def test_base_feature_layout(self, base450):
        X, y, fitted = fit_transform(base450)
        # meta (session_id) and target (mos) excluded -> 12 feature columns.
        assert X.shape == (450, 12)
        assert fitted.target_column == "mos"
        assert fitted.feature_columns[:3] == ["content_type", "device", "encoding_profile"]
        np.testing.assert_array_equal(y, base450.column("mos").astype(float))
        # Numeric columns standardized, categoricals left as integer codes.
        j = fitted.feature_columns.index("vmaf_mean")
        assert X[:, j].mean() == pytest.approx(0.0, abs=1e-9)
        assert X[:, j].std() == pytest.approx(1.0, abs=1e-9)
        codes = X[:, fitted.feature_columns.index("device")]
        assert set(codes) <= set(float(c) for c in range(10))

    def test_augmented_includes_demographic_excludes_group(self, aug2700):
        X, _, fitted = fit_transform(aug2700)
        assert "demographic" in fitted.feature_columns
        assert "base_session_id" not in fitted.feature_columns
        assert "session_id" not in fitted.feature_columns
        assert X.shape == (2700, 13)

    def test_exclude(self, aug2700):
        _, _, fitted = fit_transform(aug2700, exclude=("demographic",))
        assert "demographic" not in fitted.feature_columns

    def test_transform_uses_train_parameters(self, base450):
        train = base450.subset(range(300))
        test = base450.subset(range(300, 450))
        _, _, fitted = fit_transform(train)
        Xt, yt = transform(test, fitted)
        assert Xt.shape == (150, len(fitted.feature_columns))
        j = fitted.feature_columns.index("vmaf_mean")
        mu, sd = fitted.scaler.mean["vmaf_mean"], fitted.scaler.std["vmaf_mean"]
        np.testing.assert_allclose(
            Xt[:, j], (test.column("vmaf_mean").astype(float) - mu) / sd
        )

    def test_transform_missing_column(self, base450):
        _, _, fitted = fit_transform(base450)
        stripped = Dataset(
            schema=tuple(c for c in base450.schema if c.name != "vmaf_mean"),
            columns={k: v for k, v in base450.columns.items() if k != "vmaf_mean"},
        )
        with pytest.raises(SchemaMismatchError):
            transform(stripped, fitted)

    def test_round_trip_doc(self, base450):
        X, _, fitted = fit_transform(base450)
        restored = FittedPreprocessor.from_doc(fitted.to_doc())
        X2, _ = transform(base450, restored)
        np.testing.assert_array_equal(X, X2)

    def test_empty_dataset_rejected(self, base450):
        with pytest.raises(InvalidArgumentError):
            fit_transform(base450.subset([]))


class TestSplit:
    def test_iid_sizes(self, base450):
        train, test = split(base450, SplitSpec(mode="iid", seed=3))
        assert len(test) == 90 and len(train) == 360
        ids = set(train.column("session_id")) | set(test.column("session_id"))
        assert ids == set(range(450))

    def test_grouped_keeps_siblings_together(self, aug2700):
        train, test = split(aug2700, SplitSpec(seed=3))
        train_groups = set(train.column("base_session_id").tolist())
        test_groups = set(test.column("base_session_id").tolist())
        assert not train_groups & test_groups
        assert len(test_groups) == 90  # round(450 * 0.2)
        assert len(test) == 540  # six siblings per held-out session

    def test_grouped_on_base_uses_session_id(self, base450):
        train, test = split(base450, SplitSpec(seed=3))
        assert len(test) == 90
        assert not set(train.column("session_id")) & set(test.column("session_id"))

    def test_deterministic_in_seed(self, base450):
        a1, b1 = split(base450, SplitSpec(seed=3))
        a2, b2 = split(base450, SplitSpec(seed=3))
        a3, b3 = split(base450, SplitSpec(seed=4))
        assert columns_equal(b1, b2)
        assert not columns_equal(b1, b3)

    def test_grouped_matches_row_loop(self, aug2700):
        # The held-out groups are the first round(0.2 * groups) of a
        # permutation of the sorted group ids; rows keep their order.
        train, test = split(aug2700, SplitSpec(seed=5))
        groups = aug2700.column("base_session_id").tolist()
        unique = sorted(set(groups))
        perm = np.random.default_rng(5).permutation(len(unique))
        held = {unique[i] for i in perm[:90]}
        assert columns_equal(test, aug2700.subset([i for i, g in enumerate(groups) if g in held]))
        assert columns_equal(
            train, aug2700.subset([i for i, g in enumerate(groups) if g not in held]))

    def test_held_out_group_ids(self, aug2700):
        _, test = split(aug2700, SplitSpec(seed=3))
        ids = held_out_group_ids(test)
        assert ids == sorted(set(test.column("base_session_id").tolist()))
        assert ids == sorted(ids)

    def test_spec_validation(self):
        with pytest.raises(InvalidArgumentError):
            SplitSpec(test_fraction=0.0)
        with pytest.raises(InvalidArgumentError):
            SplitSpec(mode="stratified")

    def test_too_small_dataset(self):
        ds = generate_base_dataset(4, seed=0)
        with pytest.raises(InvalidArgumentError):
            split(ds, SplitSpec())
