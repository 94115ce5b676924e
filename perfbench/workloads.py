"""Workload definitions and seeded input generation.

Everything the program receives is made here from the seed alone, with
numpy's own generator, so the same seed always gives the same inputs.  This
module never imports spectilt.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("design-grade", "stream-static", "stream-modulated")

# The stock design that the stream workloads deliver.
STOCK_ALPHA = -0.5
STOCK_ORDER = 20
STOCK_SKIP = 3
STOCK_BAND = (20.0, 20000.0)
FS = 48000.0

# stream-static: in a cold `apply --coeffs` (about 2.4 s on a 2-core Xeon) the
# cascade over 8 Mi samples takes about 1 s next to about 1.4 s of start-up;
# twice the length would tip it further but also double the 64 MB streams
# and the run time.
STATIC_SAMPLES = 8 << 20
STATIC_BLOCK = 1 << 16  # the CLI's own chunk size, so chunked output is comparable bit for bit
NOISE_SAMPLES = 2 << 20
NOISE_COLOR = -0.5

# stream-modulated: one slope update per 64-sample control block, -1 -> 1.
MOD_SAMPLES = 256 << 10
CONTROL_BLOCK = 64
SWEEP = (-1.0, 1.0)
SWEEP_SECONDS = MOD_SAMPLES / FS  # the sweep spans the whole stream

# design-grade grid: the full product of 8 slopes x 4 (order, skip) x 3 bands
# x 3 integer parts x 3 sample rates = 864 designs, so that one pass lasts
# about a second and its time averages over the shared machine's short slow
# spells.  Positive integer parts are analog-only (digitize rejects more
# zeros than poles), and every operation here ends in coefficients, so the
# grid uses 0, -1 and -2.
GRID_ALPHAS = (-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0)
GRID_ORDER_SKIPS = ((8, 1), (12, 2), (20, 3), (24, 4))
GRID_BANDS = ((20.0, 20000.0), (50.0, 5000.0), (100.0, 16000.0))
GRID_INTEGER_PARTS = (0, -1, -2)
GRID_RATES = (44100.0, 48000.0, 96000.0)
ALPHA_JITTER = 0.02
POINTS_PER_INTERVAL = 64
SLOPE_SAMPLES_PER_DESIGN = 1  # seeded in-band points checked with mpmath, besides the worst one

# Cold `sweep` grid: the CLI's default, orders 8:24:2 x skips 0:3 (36 designs).
SWEEP_ORDERS = range(8, 25, 2)
SWEEP_SKIPS = range(0, 4)


def range_flag(r: range) -> str:
    """`start:stop[:step]` with an inclusive stop, as `spectilt sweep` reads it."""
    return f"{r.start}:{r[-1]}:{r.step}"


def design_grid(seed: int) -> list[dict]:
    """The design cells in a seeded order, each slope jittered inward."""
    rng = np.random.default_rng([seed, 1])
    cells = []
    for alpha in GRID_ALPHAS:
        for order, skip in GRID_ORDER_SKIPS:
            for f_min, f_max in GRID_BANDS:
                for integer_part in GRID_INTEGER_PARTS:
                    for fs in GRID_RATES:
                        jitter = float(rng.uniform(0.0, ALPHA_JITTER))
                        cells.append({
                            "alpha": alpha - jitter if alpha > 0 else alpha + jitter,
                            "order": order,
                            "skip": skip,
                            "f_min_hz": f_min,
                            "f_max_hz": f_max,
                            "integer_part": integer_part,
                            "fs_hz": fs,
                            "probe": int(rng.integers(0, 1 << 30)),
                        })
    order = rng.permutation(len(cells))
    return [cells[i] for i in order]


def cli_alpha(seed: int) -> float:
    """Slope of the design the cold design-grade commands solve."""
    rng = np.random.default_rng([seed, 2])
    return float(np.round(rng.uniform(-0.95, 0.95), 6))


def gaussian_stream(seed: int, n: int) -> np.ndarray:
    """Seeded white input for the stream workloads (not spectilt's generator)."""
    return np.random.default_rng([seed, 3]).standard_normal(n)


def noise_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 4]).integers(0, 1 << 62))


def sweep_schedule(n_samples: int) -> np.ndarray:
    """Slope before each control block, computed as `apply --alpha-sweep` does."""
    a0, a1 = SWEEP
    starts = range(0, n_samples, CONTROL_BLOCK)
    return np.array([a0 + (a1 - a0) * min((pos / FS) / SWEEP_SECONDS, 1.0) for pos in starts])


def sweep_flag() -> str:
    return f"--alpha-sweep={SWEEP[0]!r}:{SWEEP[1]!r}:{SWEEP_SECONDS!r}"
