"""End-to-end gate for the toolkit.

Each test pins one externally checkable guarantee: the LP engine against
independent oracles, optimality-system soundness, agreement of the three
division solvers, exact neutrality at zero capacity, value monotonicity
in capacity, the qualitative outcome pattern under conflicting prices,
dominance of shared control, fleet-scale model construction, and
byte-level determinism of every emitted file. Tolerances and runtime
budgets are stated inline and are part of the contract.
"""

import time

import numpy as np
import pytest

from storageshare.instance import make_instance, upper_objective
from storageshare.lp import build_llm_c, build_llm_d, make_lp
from storageshare.mpec import assemble_mpec, linearize_big_m, validate_big_m
from storageshare.mps_io import export_mps, read_mps
from storageshare.oracle import grid_oracle
from storageshare.scenarios import emit_report, read_report, run_all_scenarios
from storageshare.simplex import Simplex
from storageshare.solver import extract_solution, solve_lpcc, solve_milp
from storageshare.synthetic import gen_synthetic, synth_series

from tests.conftest import (
    DIVISION_FIXTURES,
    assert_grid_not_below,
    assert_lower_level_optimal,
    assert_multipliers_certify,
    division_fixture,
    rand_instance,
    stress_fixture,
)
from tests.lp_oracle import (
    brute_optimum,
    check_kkt_residuals,
    derive_kkt,
    dual_objective,
    random_feasible_lp,
)
from tests.test_kkt import random_llm, scipy_kkt_point


def conflict_fixture():
    """Duck-shaped loads priced so wholesale and retail pull opposite ways.

    Sized so the shared-control division stays within the tolerance band
    for every party while single-party control shows its signature costs
    imposed on the non-controlling side.
    """
    loads, lmp, tou = synth_series("duck", "conflicting", n_customers=2,
                                   n_slots=6, seed=5)
    return make_instance(lmp=lmp, tou=tou, customer_load=loads,
                         slot_hours=4.0, total_capacity=0.4)


def test_engine_matches_vertex_oracle_and_strong_duality():
    # 100 random feasible LPs up to 40 vars / 60 rows, solved < 30 s.
    # Small ones (<= 8 rows) are also checked against vertex enumeration
    # at 1e-9; every solve must close the bound-aware duality gap to 1e-7.
    rng = np.random.default_rng(91)
    t0 = time.perf_counter()
    enumerated = 0
    for i in range(100):
        if i % 2 == 0:
            n = int(rng.integers(2, 5))
            mg = int(rng.integers(1, 7))
            mh = int(rng.integers(0, min(3, n - 1)))
        else:
            n = int(rng.integers(10, 41))
            mh = int(rng.integers(0, 6))
            mg = int(rng.integers(5, 56 - mh))
        lp = random_feasible_lp(rng, n_vars=n, n_g=mg, n_h=mh)
        assert lp.n_vars <= 40 and lp.n_g + lp.n_h <= 60
        sol = Simplex(lp).solve()
        assert sol.status == "optimal"
        if lp.n_vars <= 4 and lp.n_g + lp.n_h <= 8:
            want, _ = brute_optimum(lp)
            assert want is not None
            assert sol.objective == pytest.approx(want, abs=1e-9, rel=1e-9)
            enumerated += 1
        assert abs(sol.objective - dual_objective(lp, sol)) <= 1e-7
    assert enumerated == 50
    assert time.perf_counter() - t0 < 30.0


def test_engine_terminates_on_cycling_instance():
    # the classic example that loops forever under naive Dantzig pricing
    a = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    lp = make_lp(
        c=[-0.75, 150.0, -1.0 / 50.0, 6.0],
        a_ub=[[-v for v in row] for row in a],
        b_ub=[-v for v in b],
        lb=[0.0] * 4,
    )
    sol = Simplex(lp).solve()
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_dispatch_optimality_system_sound_and_complete():
    # 100 random dispatch LPs. Soundness: engine optima satisfy the derived
    # system at 1e-6. Completeness: an independently constructed point that
    # satisfies the system attains the engine's optimum at 1e-6.
    rng = np.random.default_rng(92)
    for _ in range(100):
        lp = random_llm(rng)
        sol = Simplex(lp).solve()
        assert sol.status == "optimal"
        kkt = derive_kkt(lp)
        report, ok = check_kkt_residuals(kkt, sol.x, sol.dual_g, sol.dual_h,
                                         tol=1e-6)
        assert ok, report
        x, omega, v = scipy_kkt_point(lp)
        report, ok = check_kkt_residuals(kkt, x, omega, v, tol=1e-6)
        assert ok, report
        f_point = float(lp.c @ x) + lp.objective_constant
        assert abs(f_point - sol.objective) <= 1e-6 * (1.0 + abs(sol.objective))


def test_division_solvers_triple_agreement():
    # every fixture: big-M tree, complementarity tree and the grid sweep
    # land on the same upper objective within 1e-6 relative, the grid not
    # below it, every party's dispatch optimal at its share with multipliers
    # that certify it, and no big-M bound is binding at the incumbent. Whole
    # sweep under 120 s.
    t0 = time.perf_counter()
    for name, build in DIVISION_FIXTURES:
        inst = build()
        mpec = assemble_mpec(inst)
        milp = linearize_big_m(mpec)
        rm = solve_milp(milp)
        rl = solve_lpcc(mpec)
        assert rm.status == "optimal" and rl.status == "optimal", name
        step = inst.storage.total_capacity / 20.0
        grid = grid_oracle(inst, step=step if step > 0 else 1.0)
        scale = max(1.0, abs(rl.objective))
        assert abs(rm.objective - rl.objective) <= 1e-6 * scale, name
        assert abs(grid.best_objective - rl.objective) <= 1e-6 * scale, name
        assert_grid_not_below(grid.best_objective, rl.objective)
        for res in (rm, rl):
            assert_lower_level_optimal(mpec, res)
            assert_multipliers_certify(mpec, res)
        assert validate_big_m(milp, rm.x).clean, name
    assert time.perf_counter() - t0 < 120.0


def test_stress_instance_solves_within_budget():
    inst = stress_fixture()
    t0 = time.perf_counter()
    res = solve_lpcc(assemble_mpec(inst))
    wall = time.perf_counter() - t0
    assert res.status == "optimal"
    assert wall < 60.0
    division, schedules, _ = extract_solution(res, inst)
    total = division.s_disco + float(division.s_customer.sum())
    assert total <= inst.storage.total_capacity + 1e-9
    assert upper_objective(inst, schedules) == pytest.approx(
        res.objective, rel=1e-9, abs=1e-9)


def test_zero_capacity_is_exactly_neutral():
    # nothing to divide: all schedules identically zero and every reported
    # reduction exactly 0.0 in all three scenarios, under both tree modes
    inst = rand_instance(np.random.default_rng(101), n=2, t=4,
                         total_capacity=0.0)
    for mode in ("bigm", "lpcc"):
        for rep in run_all_scenarios(inst, mode=mode):
            assert rep.division.s_disco == 0.0
            assert np.all(rep.division.s_customer == 0.0)
            assert rep.disco_reduction == 0.0
            assert np.all(rep.customer_reductions == 0.0)
            assert rep.peak_reduction == 0.0
            assert np.array_equal(rep.actual_profile, rep.original_profile)
    res = solve_lpcc(assemble_mpec(inst))
    _, schedules, _ = extract_solution(res, inst)
    for arr in (schedules.customer_ch, schedules.customer_dis,
                schedules.disco_ch, schedules.disco_dis):
        assert np.all(arr == 0.0)


def test_dispatch_value_monotone_in_capacity():
    # more battery never hurts any single operator: for S1 < S2 each
    # party's optimal cost at S2 is <= its cost at S1 (+1e-9)
    rng = np.random.default_rng(95)
    for _ in range(20):
        inst = rand_instance(rng)
        s2 = float(rng.uniform(0.3, 1.0)) * inst.storage.total_capacity
        s1 = s2 * float(rng.uniform(0.0, 0.95))
        lps = [(build_llm_d(inst, s1), build_llm_d(inst, s2))]
        lps += [(build_llm_c(inst, i, s1), build_llm_c(inst, i, s2))
                for i in range(inst.customer_count)]
        for lp1, lp2 in lps:
            a = Simplex(lp1).solve()
            b = Simplex(lp2).solve()
            assert a.status == "optimal" and b.status == "optimal"
            assert b.objective <= a.objective + 1e-9


def test_conflicting_price_sign_pattern():
    # when wholesale and retail prices disagree, whoever holds the whole
    # battery wins while the other side pays for it; shared control keeps
    # every party within half a point of its baseline
    r1, r2, r3 = run_all_scenarios(conflict_fixture(), mode="lpcc")
    assert r1.disco_reduction > 0.0
    assert np.all(r1.customer_reductions < 0.0)
    assert r2.disco_reduction < 0.0
    assert np.all(r2.customer_reductions > 0.0)
    assert r3.disco_reduction >= -0.5
    assert np.all(r3.customer_reductions >= -0.5)


def test_shared_control_dominates_single_party():
    # the shared division optimizes over a superset of both single-party
    # feasible sets, so its upper objective can never be worse
    fixtures = list(DIVISION_FIXTURES) + [("conflict", conflict_fixture)]
    for name, build in fixtures:
        r1, r2, r3 = run_all_scenarios(build(), mode="lpcc")
        best_single = min(r1.upper_objective, r2.upper_objective)
        assert r3.upper_objective <= best_single + 1e-6, name


def test_fleet_scale_build_and_export(tmp_path):
    # 100 customers, 48 half-hour slots, 800 kWh: the mixed-binary model
    # must assemble and export in under 5 s with exactly 38,688 binaries
    # (8T rows per customer system + 6T for the utility system)
    loads, lmp, tou = synth_series("typical", "conforming", n_customers=100,
                                   n_slots=48, seed=8)
    inst = make_instance(lmp=lmp, tou=tou, customer_load=loads,
                         slot_hours=0.5, total_capacity=800.0,
                         eta_ch=0.92, eta_dis=0.92, power_ratio=0.25,
                         lambda1=0.8, lambda2=6.69, lambda3=1.0)
    t0 = time.perf_counter()
    milp = linearize_big_m(assemble_mpec(inst))
    path = tmp_path / "fleet.mps"
    export_mps(milp, path)
    wall = time.perf_counter() - t0
    assert milp.n_binaries == 38688
    assert wall < 5.0
    summary = read_mps(path)
    assert summary.binary_columns == 38688
    assert summary.columns == milp.lp.n_vars
    assert summary.g_rows == milp.lp.n_g
    assert summary.e_rows == milp.lp.n_h


def test_determinism_and_round_trips(tmp_path):
    # same seed, same bytes: generated inputs and emitted reports are
    # byte-identical across runs; emitted numbers re-parse to the
    # in-memory values at 1e-9; exported models survive an independent
    # reader with identical counts
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    gen_synthetic("duck", "conflicting", 2, 6, 5,
                  tmp_path / "a" / "loads.csv", tmp_path / "a" / "prices.csv")
    gen_synthetic("duck", "conflicting", 2, 6, 5,
                  tmp_path / "b" / "loads.csv", tmp_path / "b" / "prices.csv")
    for name in ("loads.csv", "prices.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()

    inst = conflict_fixture()
    first = run_all_scenarios(inst, mode="lpcc")
    second = run_all_scenarios(inst, mode="lpcc")
    p1 = emit_report(first, tmp_path / "r1")
    p2 = emit_report(second, tmp_path / "r2")
    for key in p1:
        with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
            assert f1.read() == f2.read(), key

    back = read_report(tmp_path / "r1")
    for rep in first:
        sc = int(rep.scenario)
        assert back["divisions"][(0, sc, "disco")] == pytest.approx(
            rep.division.s_disco, abs=1e-9)
        for i, cap in enumerate(rep.division.s_customer):
            assert back["divisions"][(0, sc, f"c{i}")] == pytest.approx(
                cap, abs=1e-9)
        b, a, p = back["reductions"][(0, sc, "disco")]
        assert b == pytest.approx(rep.baseline_disco_cost, abs=1e-9)
        assert a == pytest.approx(rep.actual_disco_cost, abs=1e-9)
        assert p == pytest.approx(rep.disco_reduction, abs=1e-9)
        for i in range(len(rep.customer_reductions)):
            b, a, p = back["reductions"][(0, sc, f"c{i}")]
            assert b == pytest.approx(rep.baseline_customer_costs[i], abs=1e-9)
            assert a == pytest.approx(rep.actual_customer_costs[i], abs=1e-9)
            assert p == pytest.approx(rep.customer_reductions[i], abs=1e-9)
        b, a, p = back["reductions"][(0, sc, "peak")]
        assert b == pytest.approx(rep.baseline_peak, abs=1e-9)
        assert a == pytest.approx(rep.actual_peak, abs=1e-9)
        assert p == pytest.approx(rep.peak_reduction, abs=1e-9)
        np.testing.assert_allclose(back["profiles"][(0, f"s{sc}")],
                                   rep.actual_profile, atol=1e-9)
    np.testing.assert_allclose(back["profiles"][(0, "original")],
                               first[0].original_profile, atol=1e-9)

    milp = linearize_big_m(assemble_mpec(division_fixture(207)))
    m1, m2 = tmp_path / "m1.mps", tmp_path / "m2.mps"
    export_mps(milp, m1)
    export_mps(milp, m2)
    assert m1.read_bytes() == m2.read_bytes()
    summary = read_mps(m1)
    assert summary.columns == milp.lp.n_vars
    assert summary.binary_columns == milp.n_binaries
    assert summary.g_rows == milp.lp.n_g
    assert summary.e_rows == milp.lp.n_h
    assert summary.objective_rows == 1
