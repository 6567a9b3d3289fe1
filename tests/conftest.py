"""Shared fixtures for the qoe-forge test suite."""

from types import SimpleNamespace

import numpy as np
import pytest

from qoe_forge.data_model import BASE_SCHEMA, Dataset, generate_base_dataset
from qoe_forge.demographics import AugmentationConfig, augment_dataset


@pytest.fixture(scope="session")
def base450():
    return generate_base_dataset(450, seed=42)


@pytest.fixture(scope="session")
def aug2700(base450):
    return augment_dataset(base450, AugmentationConfig(seed=1))


def columns_equal(a: Dataset, b: Dataset) -> bool:
    """Same column names in the same order, and per column the same dtype and
    exactly the same values in the same order."""
    return a.column_names() == b.column_names() and all(
        a.column(n).dtype == b.column(n).dtype
        and a.column(n).tolist() == b.column(n).tolist()
        for n in a.column_names()
    )


def session_rows(ds: Dataset) -> list[SimpleNamespace]:
    """Each row as an attribute namespace of Python scalars: the
    row-at-a-time view that reference loops in the tests read."""
    cols = {n: ds.column(n).tolist() for n in ds.column_names()}
    return [SimpleNamespace(**{n: v[i] for n, v in cols.items()}) for i in range(len(ds))]


def _session_fields(**overrides) -> dict:
    fields = dict(
        session_id=0,
        content_type="movie",
        device="tv",
        encoding_profile="h264_1080p",
        duration_s=300.0,
        bitrate_mean_kbps=4000.0,
        bitrate_std_kbps=400.0,
        vmaf_mean=80.0,
        vmaf_std=4.0,
        ssim_mean=0.95,
        qp_mean=26.0,
        stall_duration_s=0.0,
        stall_count=0,
        mos=70.0,
    )
    fields.update(overrides)
    return fields


def make_session(**overrides) -> Dataset:
    """A one-row base dataset of a valid session; override any column's value."""
    return Dataset(BASE_SCHEMA, {k: [v] for k, v in _session_fields(**overrides).items()})


def random_sessions(rng: np.random.Generator, n: int) -> Dataset:
    """``n`` random valid sessions for property-style checks, drawn session
    by session."""
    rows = []
    for _ in range(n):
        stall_count = int(rng.integers(0, 5))
        stall = float(rng.uniform(0.1, 6.0)) if stall_count else 0.0
        rows.append(_session_fields(
            session_id=int(rng.integers(0, 10_000)),
            duration_s=float(rng.uniform(30, 600)),
            bitrate_mean_kbps=float(rng.uniform(300, 20_000)),
            bitrate_std_kbps=float(rng.uniform(0, 3_000)),
            vmaf_mean=float(rng.uniform(1, 100)),
            vmaf_std=float(rng.uniform(0, 15)),
            ssim_mean=float(rng.uniform(0.5, 1.0)),
            qp_mean=float(rng.uniform(10, 45)),
            stall_duration_s=stall,
            stall_count=stall_count,
            mos=float(rng.uniform(0, 100)),
        ))
    return Dataset(BASE_SCHEMA, {c.name: [r[c.name] for r in rows] for c in BASE_SCHEMA})
