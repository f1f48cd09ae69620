"""Frozen instance recipes for the benchmark.

The recipes are copied from the test suite's fixture generators rather
than imported, so that a later edit to the tests cannot move the
benchmark. Every draw happens in the same order as in the originals, so
each named fixture here is the same instance as the test fixture of the
same name.
"""

from __future__ import annotations

import numpy as np

from storageshare import synthetic  # called through the module, which tracing wraps
from storageshare.instance import make_instance


def rand_instance(rng, n, t, **overrides):
    """Random but well-posed instance with n customers and t slots."""
    kw = dict(
        lmp=rng.uniform(-0.05, 0.6, t),
        tou=rng.uniform(0.05, 0.9, t),
        customer_load=rng.uniform(0.0, 5.0, (n, t)),
        slot_hours=float(rng.choice([0.5, 1.0])),
        total_capacity=float(rng.uniform(0.0, 20.0)),
        eta_ch=float(rng.uniform(0.85, 1.0)),
        eta_dis=float(rng.uniform(0.85, 1.0)),
        power_ratio=float(rng.uniform(0.1, 1.0)),
        soc_lower=0.1,
        soc_upper=0.9,
        soc_ini_customer=0.5,
        soc_ini_disco=0.5,
        alpha=0.01,
    )
    kw.update(overrides)
    return make_instance(**kw)


def division_fixture(seed):
    """Small division instance; customer count and horizon drawn from the seed."""
    g = np.random.default_rng(seed)
    n = int(g.integers(1, 3))
    t = int(g.choice([4, 6]))
    return rand_instance(g, n=n, t=t, total_capacity=float(g.uniform(3.0, 15.0)))


def division_fixture_n2(seed):
    """Small two-customer division instance."""
    g = np.random.default_rng(seed)
    t = int(g.choice([4, 6]))
    return rand_instance(g, n=2, t=t, total_capacity=float(g.uniform(3.0, 15.0)))


def stress_fixture():
    """Two customers over twelve slots (356 rows), solved to optimality."""
    g = np.random.default_rng(304)
    return rand_instance(g, n=2, t=12, total_capacity=float(g.uniform(5.0, 15.0)))


def day_long(n):
    """A day of 24 slots with n customers (461 rows for n=1, 704 for n=2)."""
    g = np.random.default_rng([5, n, 24])
    return rand_instance(g, n=n, t=24, total_capacity=float(g.uniform(5.0, 15.0)))


def fleet(seed):
    """100 customers, 48 half-hour slots, 800 kWh: the fleet-scale model."""
    loads, lmp, tou = synthetic.synth_series("typical", "conforming", n_customers=100,
                                             n_slots=48, seed=seed)
    return make_instance(lmp=lmp, tou=tou, customer_load=loads,
                         slot_hours=0.5, total_capacity=800.0,
                         eta_ch=0.92, eta_dis=0.92, power_ratio=0.25,
                         lambda1=0.8, lambda2=6.69, lambda3=1.0)


DIVISION_FIXTURES = (
    ("zero_cap", lambda: rand_instance(np.random.default_rng(101), n=2, t=4,
                                       total_capacity=0.0)),
    ("mix202", lambda: division_fixture(202)),
    ("mix203", lambda: division_fixture(203)),
    ("mix207", lambda: division_fixture(207)),
    ("mix209", lambda: division_fixture(209)),
    ("mix212", lambda: division_fixture(212)),
    ("mix214", lambda: division_fixture(214)),
    ("pair219", lambda: division_fixture_n2(219)),
    ("pair223", lambda: division_fixture_n2(223)),
    ("pair226", lambda: division_fixture_n2(226)),
    ("pair236", lambda: division_fixture_n2(236)),
    ("pair250", lambda: division_fixture_n2(250)),
)

# Upper objective of each fixture's optimal division. Provenance: the
# big-M tree (solve_division, mode "bigm"), the complementarity tree
# (solve_lpcc) and the grid oracle at step capacity/20 all give these
# values within 1e-6 relative, which is the three-way agreement the
# acceptance suite asserts for the same fixtures.
REFERENCE_OBJECTIVES = {
    "zero_cap": 87.97644597423769,
    "mix202": 14.70461342056987,
    "mix203": 15.48278123538992,
    "mix207": 37.180465800304894,
    "mix209": 35.08556629590805,
    "mix212": 43.683174397568955,
    "mix214": 14.203002647898472,
    "pair219": 32.19841220307345,
    "pair223": 54.533291716036004,
    "pair226": 66.2950036926149,
    "pair236": 58.60651427805887,
    "pair250": 13.963587679071379,
}

# Upper objective of the stress instance. Provenance: the complementarity
# tree and the grid oracle at step capacity/20 agree within 1e-6 relative;
# the big-M tree needs minutes on this instance and was not run.
STRESS_REFERENCE = 28.518445920299847
