import numpy as np
import pytest
from scipy.optimize import linprog

from storageshare.instance import ScheduleSet, customer_llm_objective, make_instance, soc_trajectory
from storageshare.lp import (
    build_llm_c,
    build_llm_d,
    build_party_lp,
    capacity_column,
    evaluate,
    make_lp,
    no_battery_start,
)
from storageshare.simplex import Simplex
from tests.conftest import rand_instance


def scipy_solve(lp):
    # independent reference solver: rows are >=, scipy wants <=
    res = linprog(
        lp.c,
        A_ub=-lp.g.dense(lp.n_vars),
        b_ub=-lp.b_g(),
        A_eq=lp.h.dense(lp.n_vars),
        b_eq=lp.b_h(),
        bounds=[(l if np.isfinite(l) else None, u if np.isfinite(u) else None)
                for l, u in zip(lp.lb, lp.ub)],
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x, res.fun + lp.objective_constant


def test_llm_c_shape_and_catalog_order(tiny_instance):
    # row f*T + s is catalog family f + 1 at slot s, over the columns
    # ch_0..ch_{T-1}, dis_0..dis_{T-1}, peak, valley
    lp = build_llm_c(tiny_instance, 0, 4.0)
    t = 4
    assert lp.n_vars == 2 * t + 2
    assert lp.n_g == 8 * t
    assert lp.n_h == 1
    ch, dis, peak, valley = np.arange(t), t + np.arange(t), 2 * t, 2 * t + 1
    for i in range(lp.n_g):
        fam, s = divmod(i, t)
        cols, vals = lp.g.row(i)
        if fam < 2:  # soc_min, soc_max: every flow through slot s
            assert sorted(cols) == [*ch[: s + 1], *dis[: s + 1]]
            assert np.all(np.sign(vals[cols < t]) == (1.0, -1.0)[fam])
        elif fam < 4:  # dis_nonneg, ch_nonneg: one +1 entry, no capacity marker
            assert cols.tolist() == [(dis, ch)[fam - 2][s]] and vals.tolist() == [1.0]
            assert lp.g_cap[i] == 0.0
        elif fam < 6:  # dis_cap, ch_cap: one -1 entry and a capacity marker
            assert cols.tolist() == [(dis, ch)[fam - 4][s]] and vals.tolist() == [-1.0]
            assert lp.g_cap[i] != 0.0
        else:  # peak_def, valley_def: the profile column and slot s's flows
            assert sorted(cols) == sorted([(peak, valley)[fam - 6], ch[s], dis[s]])
    assert sorted(lp.h.row(0)[0]) == [*ch, *dis]  # energy_balance


def test_llm_d_shape(tiny_instance):
    lp = build_llm_d(tiny_instance, 4.0)
    assert lp.n_vars == 8
    assert lp.n_g == 24
    assert lp.n_h == 1
    assert lp.g.indices.max() < 8  # no peak_def/valley_def row: flows only


def test_capacity_markers(tiny_instance):
    # the catalog families (row // T) whose rows move with capacity
    lp = build_llm_c(tiny_instance, 0, 4.0)
    moving = set((np.flatnonzero(lp.g_cap) // 4).tolist())
    # with soc_ini = soc_lower = 0 the soc_min rows have a zero cap coef
    assert moving == {1, 4, 5}  # soc_max, dis_cap, ch_cap
    inst = rand_instance(np.random.default_rng(0), n=1, t=4)
    lp2 = build_llm_c(inst, 0, 5.0)
    moving2 = set((np.flatnonzero(lp2.g_cap) // 4).tolist())
    assert moving2 == {0, 1, 4, 5}  # soc_min, soc_max, dis_cap, ch_cap
    assert np.all(lp2.h_cap == 0.0)


def test_rhs_tracks_capacity(tiny_instance):
    a = build_llm_c(tiny_instance, 0, 2.0)
    b = build_llm_c(tiny_instance, 0, 6.0)
    np.testing.assert_allclose(b.b_g() - a.b_g(), 4.0 * a.g_cap)


def test_evaluate_on_hand_schedule(tiny_instance):
    lp = build_llm_c(tiny_instance, 0, 4.0)
    x = np.concatenate([[2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, 2.0], [6.0, 2.0]])
    ev = evaluate(lp, x)
    assert ev.feasible(1e-9)
    assert ev.objective == pytest.approx(-3.96)
    assert ev.max_equality_residual == pytest.approx(0.0, abs=1e-12)
    # breaking neutrality shows up in the equality residual
    x_bad = x.copy()
    x_bad[0] = 3.0
    assert evaluate(lp, x_bad).max_equality_residual == pytest.approx(1.0)


def test_llm_c_optimum_frozen(tiny_instance):
    # hand-derived optimum: shift the full 4 kWh from price 2 to price 1,
    # paying 0.04 extra spread penalty -> -3.96
    lp = build_llm_c(tiny_instance, 0, 4.0)
    _, fun = scipy_solve(lp)
    assert fun == pytest.approx(-3.96, abs=1e-9)


def test_llm_d_optimum_frozen():
    inst = make_instance(
        lmp=[1.0, 3.0],
        tou=[1.0, 1.0],
        customer_load=[[1.0, 1.0]],
        slot_hours=1.0,
        total_capacity=2.0,
        eta_ch=1.0,
        eta_dis=1.0,
        power_ratio=1.0,
        soc_lower=0.0,
        soc_upper=1.0,
        soc_ini_disco=0.0,
        soc_ini_customer=0.0,
    )
    lp = build_llm_d(inst, 2.0)
    _, fun = scipy_solve(lp)
    # buy 2 kWh at 1, sell back at 3
    assert fun == pytest.approx(-4.0, abs=1e-9)


def test_zero_capacity_forces_idle(rng):
    for _ in range(5):
        inst = rand_instance(rng, n=1)
        lp = build_llm_c(inst, 0, 0.0)
        x, fun = scipy_solve(lp)
        t = inst.grid.slot_count
        np.testing.assert_allclose(x[: 2 * t], 0.0, atol=1e-9)
        load = inst.loads.customer_load[0]
        want = inst.weights.alpha * (load.max() - load.min())
        assert fun == pytest.approx(want, abs=1e-8)


def test_solution_respects_soc_corridor(rng):
    # row algebra agrees with the closed-form trajectory bookkeeping
    for _ in range(10):
        inst = rand_instance(rng, n=2)
        cap = 0.5 * inst.storage.total_capacity
        st = inst.storage
        for lp, soc_ini in (
            (build_llm_c(inst, 1, cap), float(st.soc_ini_customer[1])),
            (build_llm_d(inst, cap), st.soc_ini_disco),
        ):
            x, _ = scipy_solve(lp)
            t = inst.grid.slot_count
            ch, dis = x[:t], x[t : 2 * t]
            assert np.all(ch >= -1e-9) and np.all(dis >= -1e-9)
            assert np.all(ch <= st.power_ratio * cap + 1e-9)
            assert np.all(dis <= st.power_ratio * cap + 1e-9)
            traj = soc_trajectory(st, cap, ch, dis, soc_ini, inst.grid.slot_hours)
            assert np.all(traj >= cap * st.soc_lower - 1e-8)
            assert np.all(traj <= cap * st.soc_upper + 1e-8)
            assert traj[-1] == pytest.approx(cap * soc_ini, abs=1e-8)


def test_llm_objective_matches_closed_form(rng):
    for _ in range(10):
        inst = rand_instance(rng, n=1)
        cap = inst.storage.total_capacity
        lp = build_llm_c(inst, 0, cap)
        x, fun = scipy_solve(lp)
        t = inst.grid.slot_count
        sch = ScheduleSet(
            customer_ch=x[:t][None, :],
            customer_dis=x[t : 2 * t][None, :],
            disco_ch=np.zeros(t),
            disco_dis=np.zeros(t),
            customer_peak=np.array([x[2 * t]]),
            customer_valley=np.array([x[2 * t + 1]]),
            system_peak=1e9,
        )
        assert customer_llm_objective(inst, 0, sch) == pytest.approx(fun, abs=1e-9)


def test_capacity_column_reproduces_the_rows(rng):
    for _ in range(5):
        inst = rand_instance(rng)
        cap = float(rng.uniform(0.0, inst.storage.total_capacity))
        for p in range(inst.customer_count + 1):
            lp = build_party_lp(inst, p, cap)
            col = capacity_column(lp)
            n = lp.n_vars
            assert col.n_vars == n + 1  # kappa is the one new, last column
            assert col.lb[n] == col.ub[n] == cap
            assert not col.g_cap.any() and not col.h_cap.any()
            np.testing.assert_array_equal(col.g.dense(col.n_vars)[:, :n], lp.g.dense(lp.n_vars))
            np.testing.assert_array_equal(col.g.dense(col.n_vars)[:, n], -lp.g_cap)
            np.testing.assert_array_equal(col.h.dense(col.n_vars)[:, n], -lp.h_cap)
            x = rng.uniform(-2.0, 2.0, n)
            xk = np.append(x, cap)
            np.testing.assert_allclose(col.g.dot(xk) - col.b_g(), lp.g.dot(x) - lp.b_g(),
                                       rtol=0, atol=1e-12)
            got, want = evaluate(col, xk), evaluate(lp, x)
            assert got.objective == want.objective
            assert got.min_inequality_slack == pytest.approx(want.min_inequality_slack, abs=1e-12)
            assert got.max_equality_residual == pytest.approx(want.max_equality_residual, abs=1e-12)


def test_no_battery_start_is_a_vertex_at_every_capacity(rng):
    """The start point idles the battery, puts peak and valley at the
    highest and lowest load, is feasible at every capacity, and names one
    distinct basic column per row the engine keeps."""
    for _ in range(3):
        inst = rand_instance(rng, t=int(rng.integers(2, 8)))
        t = inst.grid.slot_count
        total = inst.storage.total_capacity
        for p in range(inst.customer_count + 1):
            lp = build_party_lp(inst, p, 0.0)
            basic, x = no_battery_start(lp)
            assert np.all(x[: 2 * t] == 0.0)
            if p < inst.customer_count:
                load = inst.loads.customer_load[p]
                assert (x[2 * t], x[2 * t + 1]) == (load.max(), load.min())
            for cap in (0.0, 0.3 * total, total):
                assert evaluate(build_party_lp(inst, p, cap), x[: lp.n_vars]).feasible(1e-12)
            eng = Simplex(capacity_column(lp))
            assert basic.size == np.unique(basic).size == eng.m
            assert np.all(eng._engine_col[basic] >= 0)  # no folded row's surplus


def test_bad_inputs():
    inst = rand_instance(np.random.default_rng(1), n=1, t=3)
    with pytest.raises(IndexError):
        build_llm_c(inst, 5, 1.0)
    for cap in (-1.0, -0.5, np.nan, np.inf):  # NaN passes a plain capacity < 0 check
        with pytest.raises(ValueError, match="capacity"):
            build_llm_c(inst, 0, cap)
        with pytest.raises(ValueError, match="capacity"):
            build_llm_d(inst, cap)


def test_make_lp_sparsifies():
    lp = make_lp(
        c=[1.0, 2.0],
        a_ub=[[1.0, 0.0], [0.0, 1.0]],
        b_ub=[0.0, 0.0],
        lb=[0.0, 0.0],
        ub=[5.0, 5.0],
    )
    assert lp.n_g == 2
    assert all(len(i) == 1 for i in lp.g_idx)
    ev = evaluate(lp, np.array([1.0, 1.0]))
    assert ev.objective == 3.0
    assert ev.min_bound_slack == 1.0
