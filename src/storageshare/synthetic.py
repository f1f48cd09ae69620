"""Seeded synthetic load and price series for experiments and tests.

Two household shapes are available: a duck profile (midday trough from
rooftop generation, steep evening ramp) and a typical double-hump
profile. Retail prices are a three-tier time-of-use schedule; wholesale
prices either track the aggregate load (conforming) or run against the
retail tiers (conflicting). Everything is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np

PROFILES = ("duck", "typical")
PRICE_SHAPES = ("conforming", "conflicting")

# three-tier retail schedule, currency per kWh, by day fraction
_TOU_TIERS = (0.14, 0.26, 0.47)


def _gauss(x, mu, sigma):
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2)


def _base_shape(profile: str, t: int) -> np.ndarray:
    x = (np.arange(t) + 0.5) / t
    if profile == "duck":
        y = 0.55 + 0.5 * _gauss(x, 0.85, 0.09) + 0.18 * _gauss(x, 0.33, 0.10)
        y -= 0.45 * _gauss(x, 0.54, 0.12)  # midday trough
    elif profile == "typical":
        y = 0.45 + 0.35 * _gauss(x, 0.33, 0.09) + 0.5 * _gauss(x, 0.80, 0.10)
    else:
        raise ValueError(f"profile must be one of {PROFILES}")
    return np.maximum(y, 0.05)


def tou_schedule(t: int) -> np.ndarray:
    """Three-tier retail price: off-peak night, shoulder day, evening peak."""
    x = (np.arange(t) + 0.5) / t
    out = np.full(t, _TOU_TIERS[0])
    out[(x >= 0.29) & (x < 0.67)] = _TOU_TIERS[1]
    out[(x >= 0.67) & (x < 0.88)] = _TOU_TIERS[2]
    return out


def synth_series(profile: str, price_shape: str, n_customers: int,
                 n_slots: int, seed: int):
    """Return (loads [N, T] kW, lmp [T], tou [T]) for the given recipe."""
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}")
    if price_shape not in PRICE_SHAPES:
        raise ValueError(f"price_shape must be one of {PRICE_SHAPES}")
    if n_customers < 1 or n_slots < 2:  # as validate_instance requires
        raise ValueError(f"n_customers must be >= 1 and n_slots >= 2, "
                         f"got {n_customers} and {n_slots}")
    rng = np.random.default_rng(seed)
    base = _base_shape(profile, n_slots)
    scale = rng.uniform(2.0, 6.0, n_customers)
    wobble = rng.normal(0.0, 0.04, (n_customers, n_slots))
    loads = np.maximum(scale[:, None] * (base[None, :] + wobble), 0.0)

    tou = tou_schedule(n_slots)
    if price_shape == "conforming":
        agg = loads.sum(axis=0)
        span = agg.max() - agg.min()
        norm = (agg - agg.min()) / (span if span > 0 else 1.0)
        lmp = 0.02 + 0.09 * norm + rng.normal(0.0, 0.002, n_slots)
    else:
        norm = (tou - tou.min()) / (tou.max() - tou.min())
        lmp = 0.02 + 0.09 * (1.0 - norm) + rng.normal(0.0, 0.002, n_slots)
    return loads, lmp, tou


def write_series(loads: np.ndarray, lmp: np.ndarray, tou: np.ndarray,
                 loads_path, prices_path) -> None:
    """Write the two delimited input files for the given series."""
    n, t = loads.shape
    with open(loads_path, "w") as fh:
        fh.write("t,customer_id,load_kw\n")
        for tt in range(t):
            for cid in range(n):
                fh.write("%d,%d,%.12g\n" % (tt, cid, loads[cid, tt]))
    with open(prices_path, "w") as fh:
        fh.write("t,lmp_per_kwh,tou_per_kwh\n")
        for tt in range(t):
            fh.write("%d,%.12g,%.12g\n" % (tt, lmp[tt], tou[tt]))


def gen_synthetic(profile: str, price_shape: str, n_customers: int,
                  n_slots: int, seed: int, loads_path, prices_path):
    """Generate and write synthetic inputs; returns the two paths."""
    loads, lmp, tou = synth_series(profile, price_shape, n_customers,
                                   n_slots, seed)
    write_series(loads, lmp, tou, loads_path, prices_path)
    return loads_path, prices_path
