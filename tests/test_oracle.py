"""Grid search oracle, optimistic ties on the optimal face, and schedule
auditing."""

import math

import numpy as np
import pytest

from storageshare.instance import (
    Division,
    ScheduleSet,
    make_instance,
    upper_objective,
    zero_schedules,
)
from storageshare.lp import build_llm_c, build_llm_d, make_lp
from storageshare import simplex
from storageshare.oracle import check_schedule_invariants, grid_oracle
from storageshare.simplex import Simplex
from tests.conftest import corrupted_starts, division_fixture, rand_instance


def schedules_from_division(instance, division):
    """Independent rebuild: solve each party's dispatch and pack the result."""
    t = instance.grid.slot_count
    n = instance.customer_count
    ch = np.zeros((n, t))
    dis = np.zeros((n, t))
    peak = np.zeros(n)
    valley = np.zeros(n)
    for i in range(n):
        sol = Simplex(build_llm_c(instance, i, float(division.s_customer[i]))).solve()
        assert sol.status == "optimal"
        ch[i], dis[i] = sol.x[:t], sol.x[t: 2 * t]
        peak[i], valley[i] = sol.x[2 * t], sol.x[2 * t + 1]
    sol = Simplex(build_llm_d(instance, division.s_disco)).solve()
    assert sol.status == "optimal"
    d_ch, d_dis = sol.x[:t], sol.x[t: 2 * t]
    net = (
        instance.loads.system_load
        + (ch - dis).sum(axis=0)
        + d_ch
        - d_dis
    )
    return ScheduleSet(
        customer_ch=ch, customer_dis=dis, disco_ch=d_ch, disco_dis=d_dis,
        customer_peak=peak, customer_valley=valley,
        system_peak=float(net.max()),
    )


def test_zero_capacity_single_point(rng):
    inst = rand_instance(rng, total_capacity=0.0)
    rep = grid_oracle(inst, step=1.0)
    assert len(rep.records) == 1
    assert rep.best_division.s_disco == 0.0
    assert np.all(rep.best_division.s_customer == 0.0)
    baseline = upper_objective(inst, zero_schedules(inst))
    assert rep.best_objective == pytest.approx(baseline, abs=1e-9)


def test_best_is_min_over_records(rng):
    inst = rand_instance(rng, n=2, t=4, total_capacity=6.0)
    rep = grid_oracle(inst, step=2.0)
    k = int(6.0 / 2.0)
    assert len(rep.records) == math.comb(k + 3, 3)
    assert rep.best_objective == pytest.approx(
        min(r[2] for r in rep.records), abs=0.0
    )
    divs = [r[0] for r in rep.records]
    assert len(set(divs)) == len(divs)
    for d in divs:
        assert sum(d) <= 6.0 + 1e-9


def test_record_values_match_direct_rebuild(rng):
    # strictly varying prices and lossy storage keep dispatch optima unique,
    # so the cached-flow evaluation must equal a from-scratch rebuild
    inst = rand_instance(rng, n=1, t=4, total_capacity=5.0,
                         eta_ch=0.9, eta_dis=0.9)
    rep = grid_oracle(inst, step=2.5)
    for division, lower, val in rep.records:
        div = Division(s_disco=division[0],
                       s_customer=np.asarray(division[1:], float))
        sched = schedules_from_division(inst, div)
        rebuilt = upper_objective(inst, sched)
        # tie resolution may shave a hair off the raw rebuild, never add
        assert val <= rebuilt + 1e-9
        assert val == pytest.approx(rebuilt, rel=1e-6, abs=1e-6)


def test_refinement_never_worse(rng):
    inst = rand_instance(rng, n=1, t=5, total_capacity=8.0)
    coarse = grid_oracle(inst, step=4.0)
    fine = grid_oracle(inst, step=2.0)
    assert fine.best_objective <= coarse.best_objective + 1e-12
    assert fine.grid_step == 2.0


def test_lower_objectives_decrease_with_share(rng):
    # more capacity can only help a dispatch problem; check along the
    # disco axis of the grid records
    inst = rand_instance(rng, n=1, t=4, total_capacity=9.0)
    rep = grid_oracle(inst, step=3.0)
    by_div = {r[0]: r[1] for r in rep.records}
    for s in (0.0, 3.0, 6.0):
        assert by_div[(s + 3.0, 0.0)][-1] <= by_div[(s, 0.0)][-1] + 1e-9


def test_symmetric_customers_tie_note():
    load = [[3.0, 1.0, 2.0, 4.0], [3.0, 1.0, 2.0, 4.0]]
    inst = make_instance(
        lmp=[0.2, 0.1, 0.3, 0.5],
        tou=[0.2, 0.1, 0.3, 0.5],
        customer_load=load,
        slot_hours=1.0,
        total_capacity=2.0,
        soc_ini_customer=[0.5, 0.5],
    )
    rep = grid_oracle(inst, step=2.0)
    # giving the whole battery to either identical customer scores the same
    assert any("within 1e-9" in note for note in rep.notes)
    vals = {r[0]: r[2] for r in rep.records}
    assert vals[(0.0, 2.0, 0.0)] == pytest.approx(vals[(0.0, 0.0, 2.0)], abs=1e-9)


def test_grid_names_each_party_whose_family_start_is_rejected(monkeypatch):
    inst = division_fixture(202)
    step = inst.storage.total_capacity / 4.0
    clean = grid_oracle(inst, step=step)
    assert not any("start" in note for note in clean.notes)
    spoiled = corrupted_starts(simplex.no_battery_start)
    for why, spoil in spoiled.items():
        with monkeypatch.context() as m:
            m.setattr(simplex, "no_battery_start", spoil)
            rep = grid_oracle(inst, step=step)
        named = [note.split(":")[0] for note in rep.notes if "start rejected" in note]
        assert named == ["customer[0]", "disco"], why
        assert rep.best_objective == pytest.approx(clean.best_objective, rel=1e-9, abs=1e-9)
        assert rep.best_division.s_disco == clean.best_division.s_disco
        np.testing.assert_array_equal(rep.best_division.s_customer,
                                      clean.best_division.s_customer)


def test_guard_and_bad_step(rng):
    inst = rand_instance(rng, n=2, total_capacity=10.0)
    with pytest.raises(ValueError, match="guard"):
        grid_oracle(inst, step=0.001, guard=1000)
    # at step inf the first cell once solved at 0 * inf = NaN
    for step in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step"):
            grid_oracle(inst, step=step)


def face_minimum(lp, grad):
    """(optimum, face minimum of grad) from one engine."""
    eng = Simplex(lp)
    sol = eng.solve()
    assert sol.status == "optimal"
    return sol, eng.face_minimum(np.asarray(grad, float))


def test_face_minimum_picks_preferred_corner():
    # objective is indifferent on 0 <= x <= 1; the secondary gradient decides
    lp = make_lp(
        c=[0.0, 1.0],
        a_ub=[[1.0, 0.0], [-1.0, 0.0]],
        b_ub=[0.0, -1.0],
        a_eq=[[0.0, 1.0]],
        b_eq=[0.5],
        name="face",
    )
    lo = face_minimum(lp, [1.0, 0.0])[1]
    hi = face_minimum(lp, [-1.0, 0.0])[1]
    assert lo[0] == pytest.approx(0.0, abs=1e-9)
    assert hi[0] == pytest.approx(1.0, abs=1e-9)
    assert lo[1] == hi[1] == pytest.approx(0.5, abs=1e-9)


def test_face_minimum_keeps_optimal_value(rng):
    for _ in range(10):
        inst = rand_instance(rng, n=1, t=4)
        cap = float(rng.uniform(0.0, inst.storage.total_capacity))
        lp = build_llm_d(inst, cap)
        grad = rng.normal(size=lp.n_vars)
        sol, x = face_minimum(lp, grad)
        f = float(lp.c @ x) + lp.objective_constant
        assert abs(f - sol.objective) <= 1e-9 * (1.0 + abs(sol.objective))
        assert float(grad @ x) <= float(grad @ sol.x) + 1e-9


def test_face_minimum_flat_price_degenerate_face():
    # constant price and a lossless battery leave the dispatch cost flat at
    # zero over every balanced schedule; the face minimum should then discharge
    # where the peak relief gradient points
    inst = make_instance(
        lmp=[0.5, 0.5, 0.5, 0.5],
        tou=[0.5, 0.5, 0.5, 0.5],
        customer_load=[[1.0, 1.0, 6.0, 1.0]],
        slot_hours=1.0,
        total_capacity=2.0,
        eta_ch=1.0,
        eta_dis=1.0,
        power_ratio=1.0,
        soc_lower=0.0,
        soc_upper=1.0,
        soc_ini_customer=[0.0],
        soc_ini_disco=0.0,
    )
    lp = build_llm_d(inst, capacity=2.0)
    grad = np.zeros(lp.n_vars)
    grad[2] = 1.0   # charging in the peak slot hurts
    grad[6] = -1.0  # discharging there helps
    x = face_minimum(lp, grad)[1]
    assert x[6] - x[2] == pytest.approx(2.0, abs=1e-8)  # full peak discharge


def test_invariants_pass_on_solved_division(rng):
    inst = rand_instance(rng, n=2, t=5, total_capacity=7.0)
    div = Division(s_disco=3.0, s_customer=np.array([2.5, 1.5]))
    sched = schedules_from_division(inst, div)
    rep = check_schedule_invariants(inst, div, sched, tol=1e-6)
    assert rep.passed, rep.failures()
    names = [name for name, _, _ in rep.items]
    assert "capacity_split" in names
    assert "disco.soc_corridor" in names
    assert "customer[1].peak_def" in names
    assert "system_peak" in names


def test_invariants_flag_violations(tiny_instance):
    inst = tiny_instance
    div = Division(s_disco=2.0, s_customer=np.array([2.0]))
    sched = zero_schedules(inst)
    ch = sched.customer_ch.copy()
    ch[0, 0] = 99.0  # beyond the power cap and the soc ceiling
    bad = ScheduleSet(
        customer_ch=ch, customer_dis=sched.customer_dis,
        disco_ch=sched.disco_ch, disco_dis=sched.disco_dis,
        customer_peak=sched.customer_peak,
        customer_valley=sched.customer_valley,
        system_peak=sched.system_peak,
    )
    rep = check_schedule_invariants(inst, div, bad, tol=1e-6)
    assert not rep.passed
    failed = {name for name, ok, _ in rep.items if not ok}
    assert "customer[0].power_caps" in failed
    assert "customer[0].soc_corridor" in failed

    over = Division(s_disco=4.0, s_customer=np.array([4.0]))
    rep2 = check_schedule_invariants(inst, over, zero_schedules(inst))
    assert {"capacity_split"} == {n for n, ok, _ in rep2.items if not ok}


def test_oracle_runs_on_tiny(tiny_instance):
    rep = grid_oracle(tiny_instance, step=1.0)
    assert len(rep.records) == math.comb(4 + 2, 2)
    zero_val = dict((r[0], r[2]) for r in rep.records)[(0.0, 0.0)]
    assert rep.best_objective <= zero_val + 1e-12
    split = rep.best_division.s_disco + float(rep.best_division.s_customer.sum())
    assert split <= 4.0 + 1e-9
