"""Metric correctness against hand values, scipy oracles, and properties."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qoe_forge.errors import (
    InvalidArgumentError,
    SchemaMismatchError,
    UndefinedMetricError,
)
from qoe_forge.metrics import (
    _average_ranks,
    correlation_by_demographic,
    mae,
    metric_block,
    plcc,
    r2,
    rmse,
    srcc,
)

from oracles import loop_average_ranks

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def pair_arrays(min_size=2, max_size=60):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            hnp.arrays(np.float64, n, elements=finite_floats),
            hnp.arrays(np.float64, n, elements=finite_floats),
        )
    )


class TestHandValues:
    def test_small_case(self):
        y = [1.0, 2.0, 3.0]
        y_hat = [2.0, 2.0, 2.0]
        assert rmse(y, y_hat) == pytest.approx(np.sqrt(2.0 / 3.0))
        assert mae(y, y_hat) == pytest.approx(2.0 / 3.0)
        assert r2(y, y_hat) == pytest.approx(0.0)  # predicting the mean

    def test_perfect_prediction(self):
        y = np.array([3.0, 1.0, 4.0, 1.5])
        block = metric_block(y, y.copy())
        assert (block.rmse, block.mae, block.r2) == (0.0, 0.0, 1.0)
        assert (block.plcc, block.srcc) == (1.0, 1.0)
        assert block.n == 4

    def test_reversed_ranking(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert srcc(y, -y) == pytest.approx(-1.0)
        assert plcc(y, -y) == pytest.approx(-1.0)

    def test_plcc_of_near_constant_vector_on_an_offset(self):
        # 3*a + 7 is [7 + 1 ulp, 7, 7]: one centering pass left a residual mean
        # as large as the spread and gave -0.8165.
        a = np.array([2.2e-16, 0.0, 0.0])
        b = np.array([0.0, 1.0, 1.0])
        assert plcc(3.0 * a + 7.0, b) == pytest.approx(-1.0, abs=1e-12)
        assert plcc(a, b) == pytest.approx(-1.0, abs=1e-12)

    def test_srcc_closed_form_no_ties(self):
        a = np.array([10.0, 20.0, 30.0, 40.0])
        b = np.array([3.0, 1.0, 4.0, 2.0])
        # d = (rank_a - rank_b) = (-2, 1, -1, 2); 1 - 6*10/(4*15) = 0
        assert srcc(a, b) == pytest.approx(0.0)

    def test_srcc_with_ties_matches_scipy(self):
        a = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
        b = np.array([2.0, 1.0, 1.0, 4.0, 4.0, 5.0])
        expected = scipy.stats.spearmanr(a, b).statistic
        assert srcc(a, b) == pytest.approx(expected, abs=1e-12)

    def test_average_ranks(self):
        x = np.array([10.0, 20.0, 20.0, 30.0])
        ranks, ties = _average_ranks(x)
        np.testing.assert_allclose(ranks, scipy.stats.rankdata(x))
        assert ties
        x = np.array([5.0, 5.0, 5.0])
        np.testing.assert_allclose(_average_ranks(x)[0], [2.0, 2.0, 2.0])
        assert _average_ranks(np.array([3.0, 1.0, 2.0]))[1] is False

    def test_average_ranks_match_the_loop_oracle(self):
        # Continuous, rounded and few-level vectors: no ties, some, mostly ties.
        rng = np.random.default_rng(8)
        for trial in range(300):
            n = int(rng.integers(1, 300))
            x = rng.normal(size=n)
            x = (x, np.round(x, 1), rng.integers(0, 5, size=n).astype(float))[trial % 3]
            ranks, ties = _average_ranks(x)
            assert ranks.tobytes() == loop_average_ranks(x).tobytes()
            assert ties == (len(set(x.tolist())) < n)


class TestScipyOracle:
    def test_random_data(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(3, 200))
            a = rng.normal(size=n)
            b = rng.normal(size=n) + 0.3 * a
            if trial % 2:  # inject ties half the time
                a = np.round(a, 1)
                b = np.round(b, 1)
            assert plcc(a, b) == pytest.approx(
                scipy.stats.pearsonr(a, b).statistic, abs=1e-12
            )
            assert srcc(a, b) == pytest.approx(
                scipy.stats.spearmanr(a, b).statistic, abs=1e-12
            )

    def test_r2_identity(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=100)
        y_hat = y + rng.normal(scale=0.5, size=100)
        expected = 1.0 - np.sum((y - y_hat) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2(y, y_hat) == pytest.approx(expected, abs=1e-12)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(pair_arrays())
    def test_rmse_dominates_mae(self, pair):
        y, y_hat = pair
        assert rmse(y, y_hat) * (1 + 1e-12) + 1e-12 >= mae(y, y_hat)

    @settings(max_examples=100, deadline=None)
    @given(pair_arrays(min_size=3))
    @example((np.array([3.3e-16, 1.6e-16, 0.0]), np.array([0.0, 1.0, 2.0])))
    def test_plcc_affine_invariance(self, pair):
        a, b = pair

        def too_coarse(v):
            # The affine map rounds each value by up to one ulp of the largest,
            # which moves plcc by up to sqrt(2 n) ulps / spread: skip a spread
            # of fewer than 1e10 ulps, where that can exceed the 1e-8 tolerance.
            return np.ptp(v) < 1e10 * np.spacing(np.abs(v).max())

        if too_coarse(3.0 * a + 7.0) or too_coarse(-2.0 * b + 1.0):
            return
        base = plcc(a, b)
        assert plcc(3.0 * a + 7.0, b) == pytest.approx(base, abs=1e-8)
        assert plcc(a, -2.0 * b + 1.0) == pytest.approx(-base, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(pair_arrays(min_size=3))
    def test_srcc_monotone_invariance(self, pair):
        a, b = pair
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            return
        base = srcc(a, b)
        # Nonlinear monotone maps can merge nearly-equal floats into new
        # ties, which legitimately changes the rank correlation; only assert
        # when the transform kept the same tie structure.
        ta, tb = np.exp(a / 2e6), b**3
        if len(np.unique(ta)) == len(np.unique(a)):
            assert srcc(ta, b) == pytest.approx(base, abs=1e-10)
        if len(np.unique(tb)) == len(np.unique(b)):
            assert srcc(a, tb) == pytest.approx(base, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(pair_arrays())
    def test_metric_ranges(self, pair):
        y, y_hat = pair
        assert rmse(y, y_hat) >= 0
        assert mae(y, y_hat) >= 0
        if np.ptp(y) > 0 and np.ptp(y_hat) > 0:
            try:
                assert -1 - 1e-9 <= plcc(y, y_hat) <= 1 + 1e-9
                assert -1 - 1e-9 <= srcc(y, y_hat) <= 1 + 1e-9
            except UndefinedMetricError:
                # A subnormal spread can underflow the centered sum of
                # squares to zero; numerically constant input is undefined.
                pass


class TestErrorPaths:
    def test_undefined_metrics(self):
        const = np.ones(5)
        varying = np.arange(5.0)
        with pytest.raises(UndefinedMetricError):
            r2(const, varying)
        with pytest.raises(UndefinedMetricError):
            plcc(const, varying)

    def test_constant_input_whose_mean_is_off_by_an_ulp(self):
        # np.mean([0.1] * 3) != 0.1, so the centred sum of squares is about
        # 6e-34, not 0; constancy is still detected.
        const = np.full(3, 0.1)
        assert np.sum((const - np.mean(const)) ** 2) > 0.0
        with pytest.raises(UndefinedMetricError):
            r2(const, np.arange(3.0))
        with pytest.raises(UndefinedMetricError):
            plcc(np.arange(3.0), const)

    def test_metric_block_reports_undefined_as_none(self):
        y = np.arange(6.0)
        block = metric_block(y, np.full(6, 0.1))  # a constant predictor
        assert (block.r2, block.plcc, block.srcc) == (
            pytest.approx(r2(y, np.full(6, 0.1))), None, None)
        assert block.rmse == rmse(y, np.full(6, 0.1))
        assert block.mae == mae(y, np.full(6, 0.1))
        const_y = metric_block(np.full(4, 2.0), np.arange(4.0)).to_doc()
        assert const_y["r2"] is None and const_y["plcc"] is None
        assert const_y["srcc"] is None and const_y["n"] == 4

    def test_shape_and_finiteness(self):
        with pytest.raises(InvalidArgumentError):
            rmse([1.0, 2.0], [1.0])
        with pytest.raises(InvalidArgumentError):
            mae([], [])
        with pytest.raises(InvalidArgumentError):
            rmse([np.nan, 1.0], [0.0, 1.0])


class TestPerDemographic:
    def test_matches_manual_groups(self, aug2700):
        corr = correlation_by_demographic(aug2700, "stall_duration_s")
        labels = aug2700.column("demographic")
        stall = aug2700.column("stall_duration_s").astype(float)
        mos = aug2700.column("mos").astype(float)
        assert set(corr) == set(labels.tolist())
        for profile, value in corr.items():
            mask = labels == profile
            assert value == pytest.approx(plcc(stall[mask], mos[mask]), abs=1e-12)

    def test_requires_demographic_column(self, base450):
        with pytest.raises(SchemaMismatchError):
            correlation_by_demographic(base450, "stall_duration_s")
        with pytest.raises(SchemaMismatchError):
            correlation_by_demographic(base450, "nope")

    def test_categorical_feature_is_a_schema_error(self, aug2700):
        with pytest.raises(SchemaMismatchError, match="'content_type' is not numeric"):
            correlation_by_demographic(aug2700, "content_type")

    def test_undefined_correlation_is_none(self, aug2700):
        # No stalls in these sessions: a constant feature within each profile.
        calm = aug2700.subset(np.flatnonzero(aug2700.column("stall_count") == 0))
        corr = correlation_by_demographic(calm, "stall_count")
        assert len(corr) == 6 and set(corr.values()) == {None}
