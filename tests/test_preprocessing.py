"""Encoding, standardization, and leakage-safe splitting."""

import numpy as np
import pytest

from qoe_forge.data_model import Dataset, generate_base_dataset
from qoe_forge.errors import InvalidArgumentError, SchemaMismatchError
from qoe_forge.preprocessing import (
    FittedPreprocessor,
    SplitSpec,
    fit_transform,
    split,
    held_out_group_ids,
    transform,
)

from conftest import columns_equal, random_sessions


def sessions_with(**columns) -> Dataset:
    """Random valid sessions, as many as the given column values, with those
    columns set."""
    n = len(next(iter(columns.values())))
    ds = random_sessions(np.random.default_rng(0), n)
    return Dataset(ds.schema, {**ds.columns, **columns})


def feature(X, plan, name):
    return X[:, plan.feature_columns.index(name)]


class TestColumnEncoder:
    """Label coding of categorical columns by the fitted plan."""

    def test_first_appearance_order(self):
        plan = FittedPreprocessor.fit(sessions_with(device=["tv", "phone", "tv", "laptop"]))
        assert plan.encoders["device"] == {"tv": 0, "phone": 1, "laptop": 2}
        X, _ = transform(sessions_with(device=["laptop", "tv"]), plan)
        np.testing.assert_array_equal(feature(X, plan, "device"), [2.0, 0.0])

    def test_unseen_label_overflow_with_warning(self):
        plan = FittedPreprocessor.fit(sessions_with(device=["tv", "phone"]))
        with pytest.warns(UserWarning, match=r"'device': unseen labels \['tablet'\] "
                                             "mapped to overflow code 2"):
            X, _ = transform(sessions_with(device=["tablet", "tv"]), plan)
        np.testing.assert_array_equal(feature(X, plan, "device"), [2.0, 0.0])

    def test_matches_row_loop(self, aug2700):
        labels = aug2700.column("demographic")[::-7]
        plan = FittedPreprocessor.fit(aug2700.subset(np.arange(len(aug2700))[::-7]))
        mapping = {}
        for lab in labels.tolist():
            mapping.setdefault(lab, len(mapping))
        assert list(plan.encoders["demographic"].items()) == list(mapping.items())
        assert all(type(k) is str for k in plan.encoders["demographic"])
        X, _ = transform(aug2700, plan)
        queries = aug2700.column("demographic").tolist()
        assert feature(X, plan, "demographic").tolist() == [float(mapping[q]) for q in queries]

    def test_empty_labels(self, base450):
        _, _, plan = fit_transform(base450)
        X, y = transform(base450.subset([]), plan)
        assert X.shape == (0, 12) and y.shape == (0,)


class TestStandardScaler:
    """Standardization of numeric columns by the fitted plan."""

    def test_population_moments(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        X, _, plan = fit_transform(sessions_with(duration_s=vals))
        out = feature(X, plan, "duration_s")
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0, abs=1e-12)  # population sigma
        assert plan.std["duration_s"] == pytest.approx(np.std(vals))
        assert plan.mean["duration_s"] == pytest.approx(2.5)

    def test_constant_column_dropped(self):
        with pytest.warns(UserWarning, match="'duration_s' is constant on the training "
                                             "split; dropped"):
            X, _, plan = fit_transform(sessions_with(duration_s=[5.0, 5.0, 5.0]))
        assert "duration_s" not in plan.feature_columns
        assert "duration_s" not in plan.mean and "duration_s" not in plan.std
        assert X.shape[1] == len(plan.feature_columns)
        assert plan.to_doc()["scaler"]["columns"] == [
            c for c in plan.feature_columns if c not in plan.encoders]


class TestPlanCheck:
    """A plan names each feature's encoding exactly once; a document that
    does not is a domain error."""

    @pytest.fixture
    def doc(self, base450):
        return fit_transform(base450)[2].to_doc()

    def test_round_trip_keeps_the_document(self, doc):
        assert FittedPreprocessor.from_doc(doc).to_doc() == doc

    def test_feature_without_mean(self, doc):
        del doc["scaler"]["mean"]["duration_s"]
        with pytest.raises(InvalidArgumentError, match="'duration_s'"):
            FittedPreprocessor.from_doc(doc)

    def test_feature_with_both_encodings(self, doc):
        doc["encoders"]["duration_s"] = {"x": 0}
        with pytest.raises(InvalidArgumentError, match="'duration_s'"):
            FittedPreprocessor.from_doc(doc)

    def test_feature_with_neither_encoding(self, doc):
        del doc["encoders"]["device"]
        with pytest.raises(InvalidArgumentError, match="'device'"):
            FittedPreprocessor.from_doc(doc)

    def test_encoding_of_a_non_feature_column(self, doc):
        doc["feature_columns"].remove("vmaf_mean")
        with pytest.raises(InvalidArgumentError, match="non-feature columns \\['vmaf_mean'\\]"):
            FittedPreprocessor.from_doc(doc)

    @pytest.mark.parametrize("stat, value", [
        ("std", -1.0), ("std", float("inf")), ("std", 0.0), ("mean", float("nan")),
    ])
    def test_statistic_out_of_range(self, doc, stat, value):
        doc["scaler"][stat]["duration_s"] = value
        with pytest.raises(InvalidArgumentError, match="'duration_s'"):
            FittedPreprocessor.from_doc(doc)

    def test_fit_transform_is_fit_then_transform(self, aug2700):
        X, y, plan = fit_transform(aug2700, exclude=("demographic",))
        fitted = FittedPreprocessor.fit(aug2700, exclude=("demographic",))
        assert fitted.to_doc() == plan.to_doc()
        X2, y2 = transform(aug2700, fitted)
        assert X.tobytes() == X2.tobytes() and y.tobytes() == y2.tobytes()


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
        mu, sd = fitted.mean["vmaf_mean"], fitted.std["vmaf_mean"]
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

    def test_transform_missing_target_column(self, base450):
        _, _, fitted = fit_transform(base450)
        doc = {**fitted.to_doc(), "target_column": "nope"}
        with pytest.raises(SchemaMismatchError, match=r"lacks fitted columns \['nope'\]"):
            transform(base450, FittedPreprocessor.from_doc(doc))

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
