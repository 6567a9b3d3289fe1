"""Demographic profiles, per-session impact factors, and 6x MOS augmentation.

Six synthetic viewer classes carry sensitivity weights over four perception
channels (rebuffering, visual quality, bitrate, consistency). Augmentation
produces one adjusted copy of every base session per profile, perturbed with
seeded Gaussian noise and clipped to the [0, 100] MOS range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data_model import (
    AUGMENTED_SCHEMA,
    BASE_SCHEMA,
    BITRATE_MAX_KBPS,
    BITRATE_MIN_KBPS,
    Dataset,
    dataset_hash,  # not called here; perfbench/layers.py wraps it by this name
)
from .errors import DegenerateInputError, InvalidArgumentError


@dataclass(frozen=True)
class DemographicProfile:
    id: str
    w_rebuff: float
    w_quality: float
    w_bitrate: float
    w_consistency: float


# Weight table: (w_rebuff, w_quality, w_bitrate, w_consistency).
# Anchored orderings: gamers are most stall-averse (2.8) and elderly least
# (0.5); quality enthusiasts have the highest quality weight, mobile users
# the lowest. Overridable via the experiment config.
BUILTIN_PROFILES: tuple[DemographicProfile, ...] = (
    DemographicProfile("casual_viewer", 1.0, 1.0, 1.0, 1.0),
    DemographicProfile("quality_enthusiast", 1.2, 2.5, 1.2, 1.5),
    DemographicProfile("mobile_user", 1.5, 0.7, 0.6, 1.0),
    DemographicProfile("gamer_sports", 2.8, 1.0, 1.8, 0.8),
    DemographicProfile("elderly_user", 0.5, 0.8, 0.5, 2.0),
    DemographicProfile("professional_critical", 0.8, 2.2, 1.2, 1.5),
)

PROFILE_IDS = tuple(p.id for p in BUILTIN_PROFILES)


def profile_by_id(profile_id: str) -> DemographicProfile:
    for p in BUILTIN_PROFILES:
        if p.id == profile_id:
            return p
    raise InvalidArgumentError(f"unknown demographic profile {profile_id!r}")


@dataclass(frozen=True)
class ImpactFactors:
    """Per-session perception channels, one float64 array each."""

    rebuff_impact: np.ndarray     # [0,1], saturates at 2 s of stalling
    quality_boost: np.ndarray     # [0,1]
    quality_variance: np.ndarray  # >= 0
    smoothness: np.ndarray        # 1 - min(quality_variance, 1)
    bitrate_norm: np.ndarray      # [0,1], log-scale position in the bitrate range


@dataclass(frozen=True)
class AugmentationConfig:
    noise_sigma: float = 2.0
    adjustment_scale: float = 12.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise InvalidArgumentError("noise_sigma must be >= 0")
        if self.adjustment_scale <= 0:
            raise InvalidArgumentError("adjustment_scale must be > 0")


def compute_impact_factors(columns: Mapping[str, np.ndarray]) -> ImpactFactors:
    """Derive the perception channels from session feature columns."""
    c = {name: np.asarray(columns[name], dtype=np.float64) for name in (
        "stall_duration_s", "vmaf_mean", "vmaf_std", "ssim_mean",
        "bitrate_mean_kbps", "bitrate_std_kbps",
    )}
    if np.any(c["vmaf_mean"] <= 0) or np.any(c["bitrate_mean_kbps"] <= 0):
        raise DegenerateInputError(
            "vmaf_mean and bitrate_mean_kbps must be > 0 to compute factors"
        )
    rebuff = np.minimum(c["stall_duration_s"] / 2.0, 1.0)
    quality = 0.5 * (c["vmaf_mean"] / 100.0 + c["ssim_mean"])
    variance = 0.5 * (
        c["vmaf_std"] / c["vmaf_mean"]
        + c["bitrate_std_kbps"] / c["bitrate_mean_kbps"]
    )
    smoothness = 1.0 - np.minimum(variance, 1.0)
    # math.log2 per element: np.log2 differs from it in the last bit on some
    # inputs, which would change the MOS values.
    ratio = (c["bitrate_mean_kbps"] / BITRATE_MIN_KBPS).tolist()
    log2 = np.array(list(map(math.log2, ratio)), dtype=np.float64)
    bitrate_norm = np.minimum(
        np.maximum(log2 / math.log2(BITRATE_MAX_KBPS / BITRATE_MIN_KBPS), 0.0), 1.0
    )
    return ImpactFactors(rebuff, quality, variance, smoothness, bitrate_norm)


def adjust_mos(
    base_mos,
    factors: ImpactFactors,
    profile: DemographicProfile,
    cfg: AugmentationConfig,
) -> np.ndarray:
    """Pre-noise adjusted score: linear in the centered factors, clipped.

    The neutral point (quality_boost = smoothness = bitrate_norm = 1/2,
    rebuff_impact = 0) leaves the base MOS unchanged for every profile.
    """
    beta = cfg.adjustment_scale
    delta = beta * (
        profile.w_quality * (factors.quality_boost - 0.5)
        - profile.w_rebuff * factors.rebuff_impact
        + profile.w_consistency * (factors.smoothness - 0.5)
        + profile.w_bitrate * (factors.bitrate_norm - 0.5)
    )
    return np.minimum(np.maximum(base_mos + delta, 0.0), 100.0)


# -- per-(session, profile) noise, seeded in bulk ---------------------------
#
# Row (session s, profile k) of an augmentation with seed S gets the first
# normal draw of ``np.random.default_rng([S mod 2**64, s, k])``. Calling
# default_rng per row is slow, so the SeedSequence hashing that turns each
# key into a PCG64 state runs here on uint32 columns for all rows at once,
# following numpy's SeedSequence (numpy/random/bit_generator.pyx) and
# pcg64_set_seed; one reused PCG64 then takes each row's state and draws.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: little-endian 32-bit words."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


class _HashMix:
    """SeedSequence's hashmix over uint32 columns, with its running multiplier."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _pcg64_states(entropy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 (state, inc) as Python ints for ``default_rng(row)`` of each row of
    an (n, width) uint32 entropy array."""
    n, width = entropy.shape
    hashmix = _HashMix(_INIT_A, _MULT_A)
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    # generate_state(4, uint64): eight words cycled from the pool, paired
    # little-endian; the first two uint64s are the seed, the last two the stream.
    out = _HashMix(_INIT_B, _MULT_B)
    w = [out(pool[i % _POOL_SIZE]).astype(object) for i in range(8)]
    seed = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
    stream = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
    inc = ((stream << 1) | 1) & _MASK128
    return ((inc + seed) * _PCG64_MULT + inc) & _MASK128, inc


def session_noise(seed: int, session_ids, n_profiles: int, sigma: float) -> np.ndarray:
    """``default_rng([seed mod 2**64, s, k]).normal(0, sigma)`` for every session
    id ``s`` and profile index ``k < n_profiles``; shape (sessions, profiles)."""
    sids = np.asarray(session_ids, dtype=np.int64)
    if np.any(sids < 0):
        raise InvalidArgumentError("session ids must be >= 0 to seed the noise")
    sid = np.repeat(sids, n_profiles).astype(np.uint64)
    profile = np.tile(np.arange(n_profiles, dtype=np.uint64), len(sids))
    low, high = sid & np.uint64(_MASK32), sid >> np.uint64(32)
    seed_words = _uint32_words(int(seed) & 0xFFFFFFFFFFFFFFFF)
    states = np.empty(sid.size, dtype=object)
    incs = np.empty(sid.size, dtype=object)
    for wide in (False, True):  # ids below 2**32 are one word, the rest two
        rows = np.flatnonzero((high > 0) == wide)
        words = [np.full(rows.size, w, dtype=np.uint64) for w in seed_words]
        words += [low[rows], high[rows], profile[rows]] if wide else [low[rows], profile[rows]]
        states[rows], incs[rows] = _pcg64_states(np.column_stack(words).astype(np.uint32))

    bitgen = np.random.PCG64(0)
    draw = np.random.Generator(bitgen).standard_normal
    doc = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    z = np.empty(sid.size)
    for i, (state, inc) in enumerate(zip(states.tolist(), incs.tolist())):
        doc["state"] = {"state": state, "inc": inc}
        bitgen.state = doc
        z[i] = draw()
    # Generator.normal(loc, scale) returns loc + scale * standard_normal().
    return (0.0 + sigma * z).reshape(len(sids), n_profiles)


def augment_dataset(
    base: Dataset,
    cfg: AugmentationConfig,
    profiles: tuple[DemographicProfile, ...] = BUILTIN_PROFILES,
) -> Dataset:
    """Expand a base dataset sixfold, one adjusted copy per demographic.

    Output rows are grouped by base session with profiles in builtin order;
    ``session_id`` is reassigned to keep it unique, ``base_session_id``
    records the source session.
    """
    if len(base) == 0:
        raise InvalidArgumentError("base dataset is empty")
    if base.schema != BASE_SCHEMA:
        raise InvalidArgumentError(
            "augment needs a dataset with the base schema; "
            "an augmented dataset cannot be augmented again"
        )
    if tuple(p.id for p in profiles) != PROFILE_IDS:
        raise InvalidArgumentError("profiles must cover the six builtin ids in order")

    n, k = len(base), len(profiles)
    sids = base.column("session_id")
    factors = compute_impact_factors(base.columns)
    adjusted = np.column_stack(
        [adjust_mos(base.column("mos"), factors, p, cfg) for p in profiles]
    )
    noisy = adjusted + session_noise(cfg.seed, sids, k, cfg.noise_sigma)
    columns = {name: np.repeat(col, k) for name, col in base.columns.items()}
    columns["session_id"] = np.arange(n * k)
    columns["mos"] = np.minimum(np.maximum(noisy, 0.0), 100.0).ravel()
    columns["demographic"] = np.tile(np.array(PROFILE_IDS, dtype=object), n)
    columns["base_session_id"] = np.repeat(sids, k)

    return Dataset(schema=AUGMENTED_SCHEMA, columns=columns, copy=False)
