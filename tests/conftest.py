import numpy as np
import pytest

from storageshare.instance import make_instance
from storageshare.lp import build_party_lp
from storageshare.simplex import Simplex
from storageshare.solver import _COMP_TOL, _pair_slacks
from storageshare.synthetic import synth_series
from tests.lp_oracle import check_kkt_residuals, derive_kkt


@pytest.fixture
def tiny_instance():
    # 1 customer, 4 slots, frictionless battery; numbers chosen so the
    # optimal dispatch is computable by hand.
    return make_instance(
        lmp=[1.0, 1.0, 2.0, 2.0],
        tou=[1.0, 1.0, 2.0, 2.0],
        customer_load=[[4.0, 4.0, 4.0, 4.0]],
        slot_hours=1.0,
        total_capacity=4.0,
        eta_ch=1.0,
        eta_dis=1.0,
        power_ratio=1.0,
        soc_lower=0.0,
        soc_upper=1.0,
        soc_ini_customer=0.0,
        soc_ini_disco=0.0,
        alpha=0.01,
    )


def rand_instance(rng, n=None, t=None, **overrides):
    """Random but well-posed instance for property tests."""
    n = int(rng.integers(1, 4)) if n is None else n
    t = int(rng.integers(3, 9)) if t is None else t
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


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def division_fixture(seed):
    """Deterministic small division instance; shape drawn from the seed."""
    g = np.random.default_rng(seed)
    n = int(g.integers(1, 3))
    t = int(g.choice([4, 6]))
    return rand_instance(g, n=n, t=t, total_capacity=float(g.uniform(3.0, 15.0)))


def division_fixture_n2(seed):
    """Deterministic two-customer division instance."""
    g = np.random.default_rng(seed)
    t = int(g.choice([4, 6]))
    return rand_instance(g, n=2, t=t, total_capacity=float(g.uniform(3.0, 15.0)))


def interior_fixture():
    """A one-customer day whose optimal division is interior (about 9.9 of
    11.0 kWh to the DisCo): the chord rows do not close it at the root,
    so both trees branch (9 lpcc nodes, 9 bigm)."""
    return division_fixture(200)


def stress_fixture():
    """Two customers over twelve slots; the largest tree the suite solves."""
    g = np.random.default_rng(304)
    return rand_instance(g, n=2, t=12, total_capacity=float(g.uniform(5.0, 15.0)))


def day_long(n, t=24):
    """A day of t slots (24 unless given) with n customers."""
    g = np.random.default_rng([5, n, t])
    return rand_instance(g, n=n, t=t, total_capacity=float(g.uniform(5.0, 15.0)))


def fleet_instance(seed=1):
    """The benchmark's fleet: 100 customers x 48 half-hour slots, 800 kWh."""
    loads, lmp, tou = synth_series("typical", "conforming", n_customers=100,
                                   n_slots=48, seed=seed)
    return make_instance(lmp=lmp, tou=tou, customer_load=loads, slot_hours=0.5,
                         total_capacity=800.0, eta_ch=0.92, eta_dis=0.92, power_ratio=0.25,
                         lambda1=0.8, lambda2=6.69, lambda3=1.0)


def lower_level_excess(mpec, x):
    """(tag, c_p.x_p - phi_p(s_p), phi_p(s_p)) for every party of the
    division point x, with phi_p from a cold solve of the party's LP
    built at its share s_p."""
    out = []
    for p, lay in enumerate(mpec.parties()):
        lp = build_party_lp(mpec.instance, p, max(0.0, float(x[lay.cap_col])))
        phi = Simplex(lp).solve()
        assert phi.status == "optimal", lay.tag
        cost = float(lp.c[: lay.nx] @ x[lay.x0: lay.x0 + lay.nx]) + lp.objective_constant
        out.append((lay.tag, cost - phi.objective, phi.objective))
    return out


def assert_lower_level_optimal(mpec, res):
    """Every party's dispatch in the division answer res is optimal at the
    party's share s_p: c_p.x_p <= phi_p(s_p) + 1e-9 (1 + |phi_p|)."""
    for tag, excess, phi in lower_level_excess(mpec, res.x):
        assert excess <= 1e-9 * (1.0 + abs(phi)), tag


def assert_multipliers_certify(mpec, res):
    """The multipliers of the division answer res are complementary to its
    pair rows at _COMP_TOL, and with each party's dispatch they pass that
    party's optimality system at its share s_p (a hair below 0 read as 0)
    to 1e-7."""
    x = res.x
    slack = _pair_slacks(mpec.lp, mpec.pairs)(x)
    assert float(np.abs(x[mpec.pairs[:, 0]] * slack).max()) <= _COMP_TOL
    for p, lay in enumerate(mpec.parties()):
        share = max(0.0, float(x[lay.cap_col]))
        kkt = derive_kkt(build_party_lp(mpec.instance, p, share))
        report, ok = check_kkt_residuals(
            kkt, np.append(x[lay.x0: lay.x0 + lay.nx], share), x[lay.w0: lay.w0 + lay.nw],
            x[lay.v0: lay.v0 + lay.nv], tol=1e-7)
        assert ok, (lay.tag, report)


def corrupted_starts(start):
    """Wrappers of the no-battery start builder start that spoil its start
    so that the engine must reject it: one basic column listed twice, or
    one replaced by the surplus of a sign row, which folds into its
    column's bounds and so is no column."""
    def duplicate(lp):
        basic, x = start(lp)
        return np.append(basic[:-1], basic[0]), x

    def folded(lp):
        basic, x = start(lp)
        sign = np.flatnonzero(np.diff(lp.g.indptr) == 1)[0]
        return np.append(basic[:-1], lp.n_vars + sign), x

    return {"duplicate column": duplicate, "folded row's surplus": folded}


def assert_grid_not_below(grid, exact):
    """The grid searches a subset of the divisions, so its best objective
    may not lie below the exact optimum."""
    assert grid >= exact - 1e-9 * max(1.0, abs(exact)), (grid, exact)


# Cross-checked division fixtures: every entry solves identically under
# big-M branching, complementarity branching, and the capacity grid sweep.
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
