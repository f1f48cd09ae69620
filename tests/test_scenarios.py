"""Scenario comparison engine: baselines, attribution, reports, the cycle."""

import filecmp
from dataclasses import replace

import numpy as np
import pytest

from storageshare.instance import customer_cost_total, make_instance, zero_schedules
from storageshare.mpec import assemble_mpec
from storageshare.scenarios import (
    CycleResult,
    ScenarioError,
    ScenarioId,
    attributed_customer_costs,
    daily_cycle,
    emit_report,
    read_report,
    reduction_pct,
    run_all_scenarios,
    run_scenario,
    solve_division,
)
from storageshare.solver import SolveOptions
from storageshare.synthetic import synth_series
from tests.conftest import (
    DIVISION_FIXTURES,
    assert_lower_level_optimal,
    division_fixture,
    interior_fixture,
    rand_instance,
)


def conflict_instance(capacity=0.4):
    """Two duck-profile customers under retail/wholesale price conflict."""
    loads, lmp, tou = synth_series("duck", "conflicting", 2, 6, 5)
    return make_instance(lmp, tou, loads, slot_hours=4.0,
                         total_capacity=capacity)


def test_reduction_pct_guards_zero_baseline():
    assert reduction_pct(0.0, 5.0) == 0.0
    assert reduction_pct(1e-13, 5.0) == 0.0
    assert reduction_pct(200.0, 150.0) == 25.0
    assert reduction_pct(100.0, 110.0) == -10.0


def test_attribution_sums_to_pooled_total():
    rng = np.random.default_rng(20260819)
    for _ in range(5):
        inst = rand_instance(rng, n=3, t=6)
        sched = zero_schedules(inst)
        flows = rng.uniform(-0.2, 0.2, (3, 6))
        sched = replace(sched, customer_ch=np.maximum(flows, 0),
                        customer_dis=np.maximum(-flows, 0))
        attr = attributed_customer_costs(inst, sched)
        assert attr.shape == (3,)
        total = customer_cost_total(inst, sched)
        assert abs(attr.sum() - total) <= 1e-9 * max(1.0, abs(total))


def test_attribution_splits_dead_slots_equally():
    inst = make_instance(
        lmp=[0.1, 0.1], tou=[0.2, 0.3],
        customer_load=[[2.0, 0.0], [6.0, 0.0]],
        slot_hours=1.0, total_capacity=1.0,
    )
    sched = replace(zero_schedules(inst), disco_ch=np.array([0.0, 1.0]))
    attr = attributed_customer_costs(inst, sched)
    # slot 0 splits 1:3 on load, slot 1 (no load) splits equally
    slot0 = 0.2 * 8.0
    slot1 = 0.3 * 1.0
    np.testing.assert_allclose(
        attr, [slot0 * 0.25 + slot1 * 0.5, slot0 * 0.75 + slot1 * 0.5])


def test_scenario_one_is_a_single_lp():
    inst = division_fixture(202)
    rep = run_scenario(inst, ScenarioId.DISCO_ONLY)
    assert rep.solver_stats["mode"] == "lp"
    assert rep.solver_stats["nodes"] == 1
    assert rep.division.s_disco == inst.storage.total_capacity
    assert np.all(rep.division.s_customer == 0.0)
    # the carried peak must match the profile it reports
    assert rep.actual_peak == pytest.approx(rep.actual_profile.max(), abs=1e-12)


def test_scenario_two_gives_customers_everything():
    inst = division_fixture(202)
    rep = run_scenario(inst, ScenarioId.CUSTOMERS_ONLY, mode="lpcc")
    cap = inst.storage.total_capacity
    assert abs(rep.division.s_disco) <= 1e-9
    assert abs(rep.division.s_customer.sum() - cap) <= 1e-9 * max(1.0, cap)


def test_pinned_model_agrees_across_modes():
    inst = division_fixture(207)
    a = run_scenario(inst, ScenarioId.CUSTOMERS_ONLY, mode="lpcc")
    b = run_scenario(inst, ScenarioId.CUSTOMERS_ONLY, mode="bigm")
    scale = max(1.0, abs(a.upper_objective))
    assert abs(a.upper_objective - b.upper_objective) <= 1e-6 * scale


def test_scenario_dominance_on_small_fixtures():
    for seed in (202, 214):
        inst = division_fixture(seed)
        reps = run_all_scenarios(inst, mode="lpcc")
        best_fixed = min(reps[0].upper_objective, reps[1].upper_objective)
        assert reps[2].upper_objective <= best_fixed + 1e-6
        # baseline costs are scenario-independent
        for r in reps[1:]:
            assert r.baseline_disco_cost == reps[0].baseline_disco_cost
            np.testing.assert_array_equal(r.baseline_customer_costs,
                                          reps[0].baseline_customer_costs)


def test_zero_capacity_is_exactly_neutral():
    inst = DIVISION_FIXTURES[0][1]()
    assert inst.storage.total_capacity == 0.0
    for rep in run_all_scenarios(inst, mode="lpcc"):
        assert rep.disco_reduction == 0.0
        assert np.all(rep.customer_reductions == 0.0)
        assert rep.peak_reduction == 0.0
        np.testing.assert_array_equal(rep.original_profile, rep.actual_profile)


def test_solve_division_rejects_unknown_mode():
    # a typo once fell through to the big-M tree
    mpec = assemble_mpec(conflict_instance())
    with pytest.raises(ValueError, match="lpc"):
        solve_division(mpec, SolveOptions(), "lpc", None)


def test_conflict_fixture_scenario_one_signs():
    rep = run_scenario(conflict_instance(), ScenarioId.DISCO_ONLY)
    assert rep.disco_reduction > 0.0
    assert np.all(rep.customer_reductions < 0.0)


def test_run_scenario_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        run_scenario(conflict_instance(), ScenarioId.SHARED, mode="exact")
    with pytest.raises(ValueError, match="mode"):
        run_scenario(conflict_instance(), ScenarioId.DISCO_ONLY, mode="exact")
    with pytest.raises(ValueError):
        run_scenario(conflict_instance(), 7)


def test_emit_and_read_report_round_trip(tmp_path):
    inst = division_fixture(202)
    reports = run_all_scenarios(inst, mode="lpcc")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    paths = emit_report(reports, out1)
    emit_report(run_all_scenarios(division_fixture(202), mode="lpcc"), out2)
    for name in ("divisions.csv", "reductions.csv", "profiles.csv",
                 "summary.txt"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    back = read_report(out1)
    n = inst.customer_count
    for rep in reports:
        sc = int(rep.scenario)
        caps = [rep.division.s_disco] + list(rep.division.s_customer)
        for party, cap in zip(["disco"] + [f"c{i}" for i in range(n)], caps):
            got = back["divisions"][(0, sc, party)]
            assert abs(got - cap) <= 1e-9 * max(1.0, abs(cap))
        b, a, p = back["reductions"][(0, sc, "disco")]
        assert abs(b - rep.baseline_disco_cost) <= 1e-9 * max(1.0, abs(b))
        assert abs(a - rep.actual_disco_cost) <= 1e-9 * max(1.0, abs(a))
        assert abs(p - rep.disco_reduction) <= 1e-9 * max(1.0, abs(p))
        prof = back["profiles"][(0, f"s{sc}")]
        np.testing.assert_allclose(prof, rep.actual_profile,
                                   rtol=1e-9, atol=1e-9)
    series = sorted(s for day, s in back["profiles"] if day == 0)
    assert series == ["original", "s1", "s2", "s3"]
    assert paths["summary"].endswith("summary.txt")


def test_emit_report_requires_reports(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "empty")


def test_daily_cycle_identical_days_repeat():
    inst = division_fixture(214)
    result = daily_cycle([inst, inst], mode="lpcc")
    assert isinstance(result, CycleResult)
    assert len(result.reports) == 2 and not result.failures
    r0, r1 = result.reports
    assert (r0.day, r1.day) == (0, 1)
    assert r0.upper_objective == r1.upper_objective
    assert r0.division.s_disco == r1.division.s_disco
    np.testing.assert_array_equal(r0.actual_profile, r1.actual_profile)


def test_daily_cycle_records_failures_and_continues():
    fine = DIVISION_FIXTURES[0][1]()  # zero capacity: root-only solve
    hard = interior_fixture()
    opts = SolveOptions(node_limit=1)
    result = daily_cycle([fine, hard], opts, mode="lpcc")
    assert [r.day for r in result.reports] == [0]
    assert len(result.failures) == 1
    day, message = result.failures[0]
    assert day == 1 and "limit" in message


def test_scenario_error_carries_solver_status():
    with pytest.raises(ScenarioError) as info:
        run_scenario(interior_fixture(), ScenarioId.SHARED,
                     SolveOptions(node_limit=1), mode="lpcc")
    assert getattr(info.value, "status", None) == "limit"
    assert info.value.exit_code == 4  # what the command line exits with
    # without the node limit the same day branches past the root and solves
    mpec = assemble_mpec(interior_fixture())
    res = solve_division(mpec, SolveOptions(), "lpcc", None)[0]
    assert res.status == "optimal" and res.node_count > 1
    assert_lower_level_optimal(mpec, res)
