"""Demographic profiles, impact factors, and the augmentation pipeline."""

import math
import tracemalloc

import numpy as np
import pytest

from qoe_forge.data_model import _BLOCK_ROWS, BASE_SCHEMA, Dataset, generate_base_dataset
from qoe_forge.demographics import (
    BUILTIN_PROFILES,
    PROFILE_IDS,
    AugmentationConfig,
    adjust_mos,
    augment_dataset,
    compute_impact_factors,
    profile_by_id,
    session_noise,
)
from qoe_forge.errors import DegenerateInputError, InvalidArgumentError

from conftest import columns_equal, make_session, random_sessions, session_rows


def factors_of(**overrides):
    return compute_impact_factors(make_session(**overrides).columns)


def reference_augmented_mos(base: Dataset, cfg: AugmentationConfig) -> list[float]:
    """The augmented MOS column computed one (session, profile) row at a time
    in Python floats, with one ``default_rng`` per row."""
    out = []
    log_ratio = math.log2(20_000.0 / 300.0)
    for s in session_rows(base):
        rebuff = min(s.stall_duration_s / 2.0, 1.0)
        quality = 0.5 * (s.vmaf_mean / 100.0 + s.ssim_mean)
        qv = 0.5 * (s.vmaf_std / s.vmaf_mean + s.bitrate_std_kbps / s.bitrate_mean_kbps)
        smooth = 1.0 - min(qv, 1.0)
        bn = min(max(math.log2(s.bitrate_mean_kbps / 300.0) / log_ratio, 0.0), 1.0)
        for k, p in enumerate(BUILTIN_PROFILES):
            delta = cfg.adjustment_scale * (
                p.w_quality * (quality - 0.5)
                - p.w_rebuff * rebuff
                + p.w_consistency * (smooth - 0.5)
                + p.w_bitrate * (bn - 0.5)
            )
            adjusted = min(max(s.mos + delta, 0.0), 100.0)
            rng = np.random.default_rng([cfg.seed & (2**64 - 1), s.session_id, k])
            out.append(min(max(adjusted + rng.normal(0.0, cfg.noise_sigma), 0.0), 100.0))
    return out


class TestProfiles:
    def test_builtin_roster(self):
        assert PROFILE_IDS == (
            "casual_viewer",
            "quality_enthusiast",
            "mobile_user",
            "gamer_sports",
            "elderly_user",
            "professional_critical",
        )

    def test_weight_anchors(self):
        assert profile_by_id("gamer_sports").w_rebuff == 2.8
        assert profile_by_id("elderly_user").w_rebuff == 0.5
        weights = [p.w_rebuff for p in BUILTIN_PROFILES]
        assert max(weights) == 2.8 and min(weights) == 0.5
        assert profile_by_id("quality_enthusiast").w_quality == max(
            p.w_quality for p in BUILTIN_PROFILES
        )
        assert profile_by_id("mobile_user").w_quality == min(
            p.w_quality for p in BUILTIN_PROFILES
        )

    def test_casual_viewer_is_unit(self):
        p = profile_by_id("casual_viewer")
        assert (p.w_rebuff, p.w_quality, p.w_bitrate, p.w_consistency) == (1, 1, 1, 1)

    def test_unknown_profile(self):
        with pytest.raises(InvalidArgumentError):
            profile_by_id("nope")


class TestImpactFactors:
    def test_formula_oracle(self):
        rng = np.random.default_rng(11)
        sessions = random_sessions(rng, 200)
        f = compute_impact_factors(sessions.columns)
        for i, s in enumerate(session_rows(sessions)):
            assert f.rebuff_impact[i] == min(s.stall_duration_s / 2.0, 1.0)
            assert f.quality_boost[i] == 0.5 * (s.vmaf_mean / 100.0 + s.ssim_mean)
            qv = 0.5 * (
                s.vmaf_std / s.vmaf_mean + s.bitrate_std_kbps / s.bitrate_mean_kbps
            )
            assert f.quality_variance[i] == qv
            assert f.smoothness[i] == 1.0 - min(qv, 1.0)
            expected_bn = min(
                max(math.log2(s.bitrate_mean_kbps / 300) / math.log2(20_000 / 300), 0), 1
            )
            assert f.bitrate_norm[i] == expected_bn

    def test_rebuff_saturates(self):
        assert factors_of(stall_duration_s=2.0, stall_count=1).rebuff_impact.tolist() == [1.0]
        assert factors_of(stall_duration_s=9.0, stall_count=2).rebuff_impact.tolist() == [1.0]

    def test_bitrate_norm_endpoints(self):
        assert factors_of(bitrate_mean_kbps=300.0).bitrate_norm.tolist() == [0.0]
        assert factors_of(bitrate_mean_kbps=20_000.0).bitrate_norm.tolist() == [1.0]

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            factors_of(vmaf_mean=0.0)
        # One degenerate session anywhere in the columns is enough.
        cols = dict(generate_base_dataset(20, seed=0).columns)
        cols["bitrate_mean_kbps"] = np.where(np.arange(20) == 13, 0.0, 500.0)
        with pytest.raises(DegenerateInputError):
            compute_impact_factors(cols)


class TestAdjustMos:
    def test_neutral_point_identity(self):
        # quality_boost = smoothness = bitrate_norm = 1/2, no stall: delta = 0.
        s = make_session(
            vmaf_mean=50.0,
            ssim_mean=0.5,
            vmaf_std=25.0,  # qv = 0.5*(0.5 + 0.5) = 0.5 -> smoothness 0.5
            bitrate_mean_kbps=math.sqrt(300 * 20_000),
            bitrate_std_kbps=0.5 * math.sqrt(300 * 20_000),
        )
        f = compute_impact_factors(s.columns)
        cfg = AugmentationConfig()
        for p in BUILTIN_PROFILES:
            assert adjust_mos(60.0, f, p, cfg).tolist() == pytest.approx([60.0], abs=1e-12)

    def test_linear_oracle(self):
        rng = np.random.default_rng(5)
        cfg = AugmentationConfig(adjustment_scale=12.0)
        for _ in range(100):
            f = compute_impact_factors(random_sessions(rng, 1).columns)
            p = BUILTIN_PROFILES[int(rng.integers(0, 6))]
            base = float(rng.uniform(0, 100))
            delta = 12.0 * (
                p.w_quality * (f.quality_boost - 0.5)
                - p.w_rebuff * f.rebuff_impact
                + p.w_consistency * (f.smoothness - 0.5)
                + p.w_bitrate * (f.bitrate_norm - 0.5)
            )
            expected = min(max(base + delta[0], 0.0), 100.0)
            assert adjust_mos(base, f, p, cfg).tolist() == pytest.approx([expected], abs=1e-12)

    def test_clipping(self):
        f = factors_of(stall_duration_s=6.0, stall_count=3, vmaf_mean=10.0, ssim_mean=0.5)
        cfg = AugmentationConfig(adjustment_scale=100.0)
        assert adjust_mos(5.0, f, profile_by_id("gamer_sports"), cfg).tolist() == [0.0]

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            AugmentationConfig(noise_sigma=-1.0)
        with pytest.raises(InvalidArgumentError):
            AugmentationConfig(adjustment_scale=0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidArgumentError, match="^noise_sigma must be a finite number"):
                AugmentationConfig(noise_sigma=bad)
            with pytest.raises(InvalidArgumentError, match="^adjustment_scale must be a finite number"):
                AugmentationConfig(adjustment_scale=bad)


class TestAugmentDataset:
    def test_sixfold_cardinality(self, base450, aug2700):
        assert len(aug2700) == 6 * len(base450) == 2700

    def test_row_layout(self, base450, aug2700):
        # Six consecutive rows per base session, in builtin profile order.
        assert aug2700.column("session_id").tolist() == list(range(2700))
        demos = aug2700.column("demographic")
        assert tuple(demos[:6]) == PROFILE_IDS
        base_ids = aug2700.column("base_session_id")
        assert base_ids.tolist() == [i // 6 for i in range(2700)]
        # Objective features are copied verbatim from the parent session.
        for col in ("vmaf_mean", "bitrate_mean_kbps", "stall_duration_s"):
            np.testing.assert_array_equal(
                aug2700.column(col), np.repeat(base450.column(col), 6)
            )

    def test_mos_in_range(self, aug2700):
        mos = aug2700.column("mos")
        assert np.all((mos >= 0) & (mos <= 100))

    def test_deterministic_in_seed(self, base450):
        a = augment_dataset(base450, AugmentationConfig(seed=9))
        b = augment_dataset(base450, AugmentationConfig(seed=9))
        c = augment_dataset(base450, AugmentationConfig(seed=10))
        assert columns_equal(a, b)
        assert not columns_equal(a, c)

    def test_order_independent(self, base450, aug2700):
        # Augmenting a reordered subset reproduces the same adjusted MOS values
        # because the noise stream is keyed by (seed, base session, profile).
        sub = base450.subset([41, 7])
        out = augment_dataset(sub, AugmentationConfig(seed=1))
        for j, base_idx in enumerate((41, 7)):
            for k in range(6):
                assert out.column("mos")[6 * j + k] == aug2700.column("mos")[6 * base_idx + k]
                assert out.column("base_session_id")[6 * j + k] == base_idx

    def test_zero_noise_matches_adjust_mos(self, base450):
        cfg = AugmentationConfig(noise_sigma=0.0, seed=1)
        out = augment_dataset(base450, cfg)
        for i in (0, 123, 449):
            session = base450.subset([i])
            f = compute_impact_factors(session.columns)
            for k, p in enumerate(BUILTIN_PROFILES):
                expected = adjust_mos(session.column("mos"), f, p, cfg)[0]
                assert out.column("mos")[6 * i + k] == pytest.approx(expected, abs=1e-12)

    def test_noise_magnitude(self, base450):
        # Unclipped rows: augmented MOS minus adjusted MOS ~ N(0, 2^2).
        cfg = AugmentationConfig(seed=1)
        noisy = augment_dataset(base450, cfg)
        clean = augment_dataset(base450, AugmentationConfig(noise_sigma=0.0, seed=1))
        a, c = noisy.column("mos"), clean.column("mos")
        diff = (a - c)[(5 < c) & (c < 95) & (5 < a) & (a < 95)]
        assert abs(diff.mean()) < 0.2
        assert abs(diff.std() - 2.0) < 0.2

    def test_matches_row_loop_reference(self, base450, aug2700):
        assert aug2700.column("mos").tolist() == reference_augmented_mos(
            base450, AugmentationConfig(seed=1))
        cfg = AugmentationConfig(noise_sigma=7.5, adjustment_scale=30.0, seed=2**40 + 3)
        sub = base450.subset(range(0, 450, 9))
        assert augment_dataset(sub, cfg).column("mos").tolist() == reference_augmented_mos(
            sub, cfg)

    def test_rejects_augmented_input(self, aug2700):
        with pytest.raises(InvalidArgumentError, match="base schema"):
            augment_dataset(aug2700, AugmentationConfig(seed=1))
        reread = Dataset(aug2700.schema, aug2700.columns)
        with pytest.raises(InvalidArgumentError):
            augment_dataset(reread, AugmentationConfig(seed=1))

    def test_runtime_scales(self):
        base = generate_base_dataset(100, seed=0)
        out = augment_dataset(base, AugmentationConfig(seed=0))
        assert len(out) == 600


class TestSessionNoise:
    """Bulk-seeded noise against one ``default_rng`` per (seed, session, profile)."""

    SIDS = [0, 1, 17, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 5, 2**63 - 1]

    @pytest.mark.parametrize("seed", [0, 1, 99, 2**32 - 1, 2**32, 2**40 + 7,
                                      2**64 - 1, 2**64 + 5, -3])
    def test_matches_default_rng(self, seed):
        got = session_noise(seed, self.SIDS, 6, 2.0)
        want = [
            [np.random.default_rng([seed & (2**64 - 1), s, k]).normal(0.0, 2.0)
             for k in range(6)]
            for s in self.SIDS
        ]
        assert got.tolist() == want

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 13.0])
    def test_scale(self, sigma):
        got = session_noise(5, [3, 2**33], 2, sigma)
        want = [[np.random.default_rng([5, s, k]).normal(0.0, sigma) for k in range(2)]
                for s in (3, 2**33)]
        assert got.tolist() == want

    def test_shape_and_empty(self):
        assert session_noise(1, np.arange(4), 6, 1.0).shape == (4, 6)
        assert session_noise(1, [], 6, 1.0).shape == (0, 6)

    def test_negative_session_id_rejected(self):
        with pytest.raises(InvalidArgumentError):
            session_noise(1, [3, -1], 6, 1.0)

    def test_blocks_of_rows_match_default_rng(self):
        # Seven profiles: no block edge falls between two sessions, so the
        # rows of a session straddle each edge. More than two blocks of rows.
        n_profiles = 7
        edges = (_BLOCK_ROWS, 2 * _BLOCK_ROWS)
        assert all(edge % n_profiles for edge in edges)
        sids = np.arange(max(edges) // n_profiles + 8) * 3
        # Ids of one uint32 word and of two share a block and a block edge:
        # the middle session of each triple has rows on both sides of it.
        sids[5:8] = [2**32 + 2, 11, 2**41]
        first, second = (edge // n_profiles for edge in edges)
        sids[first - 1:first + 2] = [2**32 - 1, 2**32, 2**32 + 7]
        sids[second - 1:second + 2] = [2**40 + 5, 2**32 - 2, 2**32 + 1]
        assert len(sids) * n_profiles > 2 * _BLOCK_ROWS
        got = session_noise(123, sids, n_profiles, 1.5)
        want = [
            [np.random.default_rng([123, s, k]).normal(0.0, 1.5) for k in range(n_profiles)]
            for s in sids.tolist()
        ]
        assert got.tolist() == want

    def test_memory_is_bounded_by_a_block(self):
        # Seeding every row at once held two 128-bit Python ints per row,
        # about 720 bytes a row (8.7 MB here); a block's worth is about
        # 0.75 MB, plus 16 bytes a row for the draws and the result.
        n_sessions, n_profiles = 2000, 6
        session_noise(0, [1], n_profiles, 1.0)
        tracemalloc.start()
        try:
            session_noise(3, np.arange(n_sessions), n_profiles, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 * n_sessions * n_profiles
