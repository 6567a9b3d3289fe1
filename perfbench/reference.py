"""A fixed reference computation that reads how fast the CPU is at a moment.

On a shared virtual machine the CPU's speed moves: on the 2-vCPU machine the
benchmark was built on, by about 1.4x between spells that last minutes,
when the other tenants of the physical core are busy or idle. Each timed
pass is bracketed by this computation, and ``wall_ref_s`` scales the pass by
the speed the reference saw around it, so runs made in a slow spell and in a
fast one agree. The mix follows the program's own: interpreted loops over
dicts, text formatting and parsing, and numpy gathers, sorts, reductions and
small matrix products. It calls no qoe-forge code, so no change to the
program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the reference takes on that machine in a fast spell; ``wall_ref_s``
# is a pass's wall time at this speed.
REF_SECONDS = 0.1

_RNG = np.random.default_rng(20240601)
_X = _RNG.standard_normal((4000, 16))
_W = _RNG.standard_normal((16, 16)) / 4.0
_ORDER = _RNG.permutation(len(_X))


def _interpreted() -> float:
    lines = []
    for i in range(12_000):
        rec = {"id": i, "bitrate": (i * 7919) % 5000 / 3.0, "stall": (i % 13) * 0.25}
        lines.append(f"{rec['id']},{rec['bitrate']:.4f},{rec['stall']:.2f}")
    total = 0.0
    for line in lines:
        _, bitrate, stall = line.split(",")
        total += float(bitrate) * 0.5 + float(stall)
    return total


def _numeric() -> float:
    x = _X
    for _ in range(40):
        x = x[_ORDER]
        x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1.0)
        x = np.tanh(x @ _W)
        x = x[np.argsort(x[:, 0], kind="stable")]
    return float(x.sum())


def reference_seconds() -> float:
    """Wall seconds of one run of the reference computation."""
    started = time.perf_counter()
    _interpreted()
    _numeric()
    return time.perf_counter() - started
