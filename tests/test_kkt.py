"""Soundness of the derived optimality systems on dispatch problems.

Two directions, both against independent constructions:
  - engine optima (primal and dual) satisfy the derived system;
  - any point satisfying the derived system attains the optimal value,
    where the candidate point is built from scipy primal/dual solves that
    share no code with the engine.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from storageshare.instance import make_instance
from storageshare.lp import build_party_lp
from storageshare.simplex import CapacityPath, Simplex

from tests.conftest import DIVISION_FIXTURES, rand_instance
from tests.lp_oracle import check_kkt_residuals, derive_kkt


def scipy_kkt_point(lp, active_tol=1e-7):
    """Optimal primal from scipy plus duals from a stationarity-system LP,
    whose rows are the free columns' (a party LP's capacity is fixed)."""
    gd, hd = lp.g.dense(lp.n_vars), lp.h.dense(lp.n_vars)
    bg, bh = lp.b_g, lp.b_h
    res = linprog(
        lp.c, A_ub=-gd, b_ub=-bg, A_eq=hd if lp.n_h else None,
        b_eq=bh if lp.n_h else None,
        bounds=[(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
                for lo, hi in zip(lp.lb, lp.ub)], method="highs",
    )
    assert res.status == 0, res.message
    x = res.x
    slack = gd @ x - bg
    scale = 1.0 + float(np.abs(bg).max(initial=0.0))
    active = slack <= active_tol * scale
    # solve G_act' w + H' v = c with w >= 0, inactive w pinned to zero
    free = lp.lb != lp.ub
    a_eq = (np.hstack([gd.T, hd.T]) if lp.n_h else gd.T)[free]
    bounds = [(0.0, 0.0 if not act else None) for act in active]
    bounds += [(None, None)] * lp.n_h
    dual = linprog(
        np.zeros(lp.n_g + lp.n_h), A_eq=a_eq, b_eq=lp.c[free],
        bounds=bounds, method="highs",
    )
    if dual.status != 0:  # degenerate active set, widen once
        active = slack <= 1e-4 * scale
        bounds = [(0.0, 0.0 if not act else None) for act in active]
        bounds += [(None, None)] * lp.n_h
        dual = linprog(
            np.zeros(lp.n_g + lp.n_h), A_eq=a_eq, b_eq=lp.c[free],
            bounds=bounds, method="highs",
        )
    assert dual.status == 0, dual.message
    return x, dual.x[: lp.n_g], dual.x[lp.n_g:]


def random_llm(rng):
    inst = rand_instance(rng, n=int(rng.integers(1, 3)), t=int(rng.integers(3, 7)))
    cap = float(rng.uniform(0.0, inst.storage.total_capacity))
    if rng.random() < 0.5:
        return build_party_lp(inst, int(rng.integers(inst.customer_count)), cap)
    return build_party_lp(inst, inst.customer_count, cap)


def test_engine_optimum_satisfies_kkt(rng):
    for _ in range(30):
        lp = random_llm(rng)
        sol = Simplex(lp).solve()
        assert sol.status == "optimal"
        kkt = derive_kkt(lp)
        report, ok = check_kkt_residuals(kkt, sol.x, sol.dual_g, sol.dual_h, tol=1e-6)
        assert ok, report


@pytest.mark.parametrize("name", [name for name, _ in DIVISION_FIXTURES])
def test_capacity_family_duals_satisfy_kkt(name):
    """Every party's capacity path looked up at five capacities, up then
    down: the multipliers the trees stitch into the root start and the
    answer certify each party optimum. The sign rows (dis_nonneg,
    ch_nonneg) are column bounds inside the engine, so their multipliers
    come back through the reduced costs."""
    inst = dict(DIVISION_FIXTURES)[name]()
    caps = np.linspace(0.0, inst.storage.total_capacity, 5)
    for p in range(inst.customer_count + 1):
        path = CapacityPath(inst, p)
        for cap in np.concatenate([caps, caps[::-1]]):
            sol = path.at(float(cap))
            assert sol.status == "optimal"
            kkt = derive_kkt(build_party_lp(inst, p, float(cap)))
            report, ok = check_kkt_residuals(kkt, sol.x, sol.dual_g, sol.dual_h, tol=1e-6)
            assert ok, (p, cap, report)


def test_independent_kkt_point_attains_engine_optimum(rng):
    for _ in range(30):
        lp = random_llm(rng)
        x, omega, v = scipy_kkt_point(lp)
        kkt = derive_kkt(lp)
        report, ok = check_kkt_residuals(kkt, x, omega, v, tol=1e-6)
        assert ok, report
        f_engine = Simplex(lp).solve().objective
        f_point = float(lp.c @ x) + lp.objective_constant
        assert abs(f_point - f_engine) <= 1e-6 * (1.0 + abs(f_engine))


def profitable_instance():
    # wide price spread and lossless storage make idling strictly suboptimal
    return make_instance(
        lmp=[0.1, 0.1, 2.0, 2.0],
        tou=[0.1, 0.1, 2.0, 2.0],
        customer_load=[[4.0, 4.0, 4.0, 4.0]],
        slot_hours=1.0,
        total_capacity=4.0,
        eta_ch=1.0,
        eta_dis=1.0,
        power_ratio=1.0,
        soc_lower=0.0,
        soc_upper=1.0,
        soc_ini_customer=[0.0],
        soc_ini_disco=0.0,
    )


def test_feasible_but_suboptimal_point_fails():
    inst = profitable_instance()
    lp = build_party_lp(inst, 0, capacity=4.0)
    sol = Simplex(lp).solve()
    kkt = derive_kkt(lp)
    # idle schedule: zero flows, peak/valley at the raw load envelope
    x0 = np.zeros(lp.n_vars)
    x0[-3:] = 4.0  # peak, valley, and the capacity
    f_idle = float(lp.c @ x0)
    assert f_idle > sol.objective + 1e-3  # genuinely non-optimal
    _, ok = check_kkt_residuals(kkt, x0, sol.dual_g, sol.dual_h, tol=1e-6)
    assert not ok


def test_corrupted_duals_fail(rng):
    lp = random_llm(rng)
    sol = Simplex(lp).solve()
    kkt = derive_kkt(lp)
    omega = sol.dual_g.copy()
    nz = np.nonzero(omega > 1e-6)[0]
    if nz.size == 0:
        pytest.skip("no active inequality dual to corrupt")
    omega[nz[0]] = -omega[nz[0]]
    report, ok = check_kkt_residuals(kkt, sol.x, omega, sol.dual_h, tol=1e-6)
    assert not ok
    assert report.min_dual < -1e-6 or report.max_stationarity > 1e-6


def test_primal_violation_detected(rng):
    lp = random_llm(rng)
    sol = Simplex(lp).solve()
    kkt = derive_kkt(lp)
    x = sol.x.copy()
    x[0] += 1.0  # breaks the energy balance row
    report, ok = check_kkt_residuals(kkt, x, sol.dual_g, sol.dual_h, tol=1e-6)
    assert not ok
    assert report.max_primal_violation > 1e-3
