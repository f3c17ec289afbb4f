"""Workload inputs of the uncrel benchmark.

Fixed grids (shared with reference.py, which computes their reference
values with mpmath) and the seeded draws made fresh for every pass.  This
module imports nothing from uncrel, so reference.py stays independent of
the program it checks.
"""

from __future__ import annotations

import math
import random

# --- ho1d-fleet -------------------------------------------------------------
HO1D_Q = 2
HO1D_NS = tuple(range(1, 41))
HO1D_SWEEP = ("fisher_product_heisenberg", "cramer_rao", "zumbach")

# --- bounds-catalog ---------------------------------------------------------
# The 16 (d, k) cells of the paper's Table 1 and their published values.
TABLE1_PUBLISHED = {
    (1, 1): 0.165728, (2, 1): 0.405724, (3, 1): 0.537513, (4, 1): 0.618094,
    (1, 2): 0.021331, (2, 2): 0.165728, (3, 2): 0.303977, (4, 2): 0.405724,
    (1, 3): 0.002056, (2, 3): 0.061935, (3, 3): 0.165728, (4, 3): 0.262190,
    (1, 4): 0.000158, (2, 4): 0.021331, (3, 4): 0.086812, (4, 4): 0.165728,
}
# Further (d, k) points with an mpmath reference, spanning rho = d/k up to 40.
DAUBECHIES_REFERENCE_POINTS = ((3, 10.0), (7, 2.0), (5, 2.0), (5, 1.0), (15, 2.0),
                               (10, 1.0), (20, 1.0), (30, 1.0), (40, 1.0))
# rho = d/k >= 80: a ** (-rho) overflows in the objective scan (counted failures).
DAUBECHIES_OVERFLOW_POINTS = ((40, 0.1), (40, 0.25), (40, 0.5))
DAUBECHIES_SEEDED = 372  # 16 + 9 + 372 + 3 = 400 daubechies_factor calls a pass
EXTREMAL_SEEDED = 100    # extremal_F and extremal_G draws each

TABLE2_ORDERS = tuple((a, k) for a in (1, 2, 3, 4) for k in (1, 2, 3, 4))

HYDROGENIC_ZS = tuple(range(1, 11))
GAUSSIAN_PAIRS = tuple((d, a, n) for d in range(1, 6) for a in (0.5, 1.0, 2.0)
                       for n in (1.0, 4.0))
# moment orders with a reference value on every analytic pair (where they exist)
MOMENT_ORDERS = (-2.0, -1.0, -0.5, -0.25, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
POSITIVE_ORDERS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
NEGATIVE_K = (-0.25, -0.5)
NEGATIVE_ALPHA = (1.5, 2.0, 3.0)

# --- cli-documents ----------------------------------------------------------
EXPORT_POINTS = 4000
CLI_MOMENT_ORDERS = (-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def key(*parts) -> str:
    """Lookup key of a reference.json entry: ints and strings as written,
    other numbers as the repr of their float."""
    return ",".join(p if isinstance(p, str) else str(p) if isinstance(p, int)
                    else repr(float(p)) for p in parts)


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index` of a run seeded with `seed`."""
    return seed * 1000 + index


def daubechies_seeded(rng: random.Random) -> list[tuple[int, float]]:
    """(d, k) with rho = d/k spread log-uniformly over [0.25, 40]."""
    out = []
    for _ in range(DAUBECHIES_SEEDED):
        d = rng.randint(1, 10)
        rho = math.exp(rng.uniform(math.log(0.25), math.log(40.0)))
        out.append((d, d / rho))
    return out


def extremal_F_seeded(rng: random.Random) -> list[tuple[int, float, float]]:
    return [(rng.randint(1, 5), rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
            for _ in range(EXTREMAL_SEEDED)]


def extremal_G_seeded(rng: random.Random) -> list[tuple[int, float, float]]:
    """Admissible negative-order points: -d < k < 0 and alpha inside the window."""
    out = []
    for _ in range(EXTREMAL_SEEDED):
        d = rng.randint(1, 5)
        k = -rng.uniform(0.1, 0.9) * d
        window = -k * d / (d + k)
        out.append((d, window * rng.uniform(1.1, 3.0) + 0.05, k))
    return out


def pair_orders(rng: random.Random, d: int) -> list[tuple[str, float, float]]:
    """The six (inequality, alpha, k) checks of one analytic pair."""
    checks = []
    for k in rng.sample(POSITIVE_ORDERS, 2):
        checks.append(("daubechies", 0.0, k))
    for _ in range(2):
        checks.append(("heisenberg", rng.choice(POSITIVE_ORDERS), rng.choice(POSITIVE_ORDERS)))
    ks = [k for k in NEGATIVE_K if k > -d]
    for _ in range(2):
        k = rng.choice(ks)
        window = -k * d / (d + k)
        checks.append(("negative_order",
                       rng.choice([a for a in NEGATIVE_ALPHA if a > window]), k))
    return checks


def cli_choices(rng: random.Random) -> dict:
    """Seeded parameters of the cli-documents commands."""
    d = rng.randint(2, 5)
    k = -rng.uniform(0.2, 0.8) * d
    window = -k * d / (d + k)
    return {"Z": float(rng.choice(HYDROGENIC_ZS)),
            "orders": sorted(rng.sample(CLI_MOMENT_ORDERS, 5)),
            "oracle": (d, round(window * rng.uniform(1.2, 2.5) + 0.1, 6), round(k, 6))}
