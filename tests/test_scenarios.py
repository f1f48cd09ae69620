"""Scenario comparison engine: baselines, attribution, reports, the cycle."""

import filecmp
import importlib
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from storageshare import mpec as mpec_module
from storageshare import scenarios, simplex, solver
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
from storageshare.simplex import CapacityPath
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


def test_scenario_one_is_checked_against_the_schedule_invariants(monkeypatch):
    # a utility dispatch above its power cap must not reach a report
    inst = division_fixture(202)
    over = 2.0 * inst.storage.power_ratio * inst.storage.total_capacity
    flow_face = CapacityPath.flow_face

    def over_cap(self, s, price):
        sol, x_face = flow_face(self, s, price)
        bump = np.zeros_like(x_face)
        bump[0] = over
        return replace(sol, x=sol.x + bump), x_face + bump

    monkeypatch.setattr(CapacityPath, "flow_face", over_cap)
    with pytest.raises(RuntimeError, match="disco.power_caps"):
        run_scenario(inst, ScenarioId.DISCO_ONLY)


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
        solve_division(mpec, SolveOptions(), "lpc")


def _small_sizes(monkeypatch, **sizes):
    """Set mpec's big-M sizes (_PRIMAL_SAFETY=..., ...) for one test."""
    for name, value in sizes.items():
        monkeypatch.setattr(mpec_module, name, value)


def _lpcc_objective(mpec):
    res, _, _ = solve_division(mpec, SolveOptions(), "lpcc")
    assert res.status == "optimal"
    return res.objective


def _counting_milp_solves(monkeypatch):
    """Patch scenarios.solve_milp to record each call's options; returns
    the list of them."""
    solve, calls = scenarios.solve_milp, []

    def counted(mpec, opts, **kw):
        calls.append(opts)
        return solve(mpec, opts, **kw)

    monkeypatch.setattr(scenarios, "solve_milp", counted)
    return calls


def test_bigm_escalates_binding_pair_bounds(monkeypatch):
    # primal bounds at 0.3 of the row ranges cut off mix202's optimum and
    # flag slack pairs; the path floor covers the multiplier side only, so
    # the one solve's answer comes back with a note naming the slack side
    mpec = assemble_mpec(dict(DIVISION_FIXTURES)["mix202"]())
    _small_sizes(monkeypatch, _PRIMAL_SAFETY=0.3, _PRIMAL_FLOOR=1e-6)
    calls = _counting_milp_solves(monkeypatch)
    res, escalations, notes = solve_division(mpec, SolveOptions(), "bigm")
    assert (res.status, escalations, len(notes), len(calls)) == ("optimal", 0, 1, 1)
    assert notes[0].endswith(" binding pair bounds (flagged: slack)")


def test_bigm_escalates_undersized_dual_bounds(monkeypatch):
    # multiplier bounds at 0.05 of the price scale left the first six
    # fixtures' big-M forms infeasible; floored at their capacity paths'
    # maxima they reach lpcc in one solve, and the lifted pairs count as
    # escalations, named in a note
    _small_sizes(monkeypatch, _DUAL_SCALE=0.05, _DUAL_FLOOR=1e-3)
    calls = _counting_milp_solves(monkeypatch)
    for name, build in DIVISION_FIXTURES[:6]:
        mpec = assemble_mpec(build())
        want = _lpcc_objective(mpec)
        calls.clear()
        res, escalations, notes = solve_division(mpec, SolveOptions(), "bigm")
        assert res.status == "optimal" and len(calls) == 1 and escalations > 0, (name, notes)
        assert notes == [f"{escalations} multiplier bounds lifted to their capacity path's"
                         " maximum"], name
        assert abs(res.objective - want) <= 1e-9 * max(1.0, abs(want)), name


def test_bigm_path_build_counts_against_the_time_limit(monkeypatch):
    # a bigm solve built the day's paths before its tree and off its clock,
    # so a day whose paths took longer than the time limit still solved;
    # the first tree solve of a model now builds them on its own clock
    build = mpec_module.day_paths

    def slow(instance):
        time.sleep(0.3)
        return build(instance)

    monkeypatch.setattr(mpec_module, "day_paths", slow)
    mpec = assemble_mpec(dict(DIVISION_FIXTURES)["mix202"]())  # no path built yet
    t0 = time.perf_counter()
    res, _, _ = solve_division(mpec, SolveOptions(time_limit=0.2), "bigm")
    assert (res.status, res.exit_code, res.node_count) == ("limit", 4, 0)
    assert res.wall_time <= time.perf_counter() - t0
    assert res.wall_time >= 0.3


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
    res = solve_division(mpec, SolveOptions(), "lpcc")[0]
    assert res.status == "optimal" and res.node_count > 1
    assert_lower_level_optimal(mpec, res)


def _count_paths(monkeypatch):
    """Patch a CapacityPath that counts its builds into simplex (for
    day_paths) and scenarios; returns the list each build appends its
    party to."""
    built = []

    class Counting(CapacityPath):
        def __init__(self, instance, party):
            built.append(party)
            super().__init__(instance, party)

    monkeypatch.setattr(simplex, "CapacityPath", Counting)
    monkeypatch.setattr(scenarios, "CapacityPath", Counting)
    return built


def test_scenario_run_builds_each_path_once(monkeypatch):
    # the three scenarios once built 1 + 3 + 3 paths for the day's 3
    built = _count_paths(monkeypatch)
    for mode in ("lpcc", "bigm"):
        built.clear()
        reps = run_all_scenarios(conflict_instance(), mode=mode)
        assert built == [0, 1, 2], mode
        assert reps[1].solver_stats["status"] == reps[2].solver_stats["status"] == "optimal"


def test_a_model_builds_its_paths_once_for_every_solve(monkeypatch):
    # every tree solve once built every party's path: 62 builds a pass of
    # the small-days benchmark workload (31 parties, two trees each) and the
    # same again on each later pass; its models now build them once
    built = _count_paths(monkeypatch)
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    measure, workloads = (importlib.import_module(name) for name in ("measure", "workloads"))
    days = workloads.SmallDays()
    state = days.setup(1, None)
    assert built == []  # assembling a model builds no path
    for builds in (31, 0):
        built.clear()
        p = measure.Pass()
        days.run_pass(state, p)
        assert len(built) == builds and days.check(state, p.records) == []
    # a scenario run builds the day's N+1 paths once: scenario 1 reads the
    # utility's, and the customers-only solve, on its pinned model, reads
    # the objects the shared solve reads
    built.clear()
    seen = []
    solve = scenarios.solve_division

    def recording(mpec, opts, mode):
        seen.append(mpec.paths)
        return solve(mpec, opts, mode)

    monkeypatch.setattr(scenarios, "solve_division", recording)
    inst = conflict_instance()
    run_all_scenarios(inst)
    assert built == list(range(inst.customer_count + 1))
    assert len(seen) == 2 and all(a is b for a, b in zip(*seen))


def _record_limits(monkeypatch, pause=0.0):
    """Patch scenarios.solve_division to record the time limit of each call
    and the perf_counter reading at its return, and to sleep pause seconds
    after solving."""
    solve, calls = scenarios.solve_division, []

    def recorded(mpec, opts, mode):
        res = solve(mpec, opts, mode)
        time.sleep(pause)
        calls.append((opts.time_limit, time.perf_counter()))
        return res

    monkeypatch.setattr(scenarios, "solve_division", recorded)
    return calls


def _assert_within(calls, budget, t0):
    """Each call's time limit is below the budget less the time spent
    before it: the first less the path builds, every later one less the
    time up to the return of the call before it."""
    assert calls[0][0] < budget
    for (limit, _), (_, returned) in zip(calls[1:], calls):
        assert limit <= budget - (returned - t0)


def test_scenario_run_and_cycle_share_one_time_limit(monkeypatch):
    # every solve of a scenario run or a cycle once got the whole time
    # limit ([5.0, 5.0] for a scenario run); each now gets what is left
    calls, inst, days = _record_limits(monkeypatch), interior_fixture(), [conflict_instance()] * 3
    opts = SolveOptions(time_limit=5.0)
    t0 = time.perf_counter()
    run_all_scenarios(inst, opts, mode="lpcc")
    assert len(calls) == 2
    _assert_within(calls, 5.0, t0)
    calls.clear()
    t0 = time.perf_counter()
    result = daily_cycle(days, opts, mode="bigm")
    assert len(result.reports) == len(calls) == 3 and not result.failures
    _assert_within(calls, 5.0, t0)


def test_scenarios_and_days_past_the_time_limit_fail(monkeypatch):
    # a solve that overruns the budget leaves none for the next scenario,
    # which stops with status limit (exit 4), and none for the next days
    calls = _record_limits(monkeypatch, pause=0.3)
    with pytest.raises(ScenarioError, match="scenario 3: time limit reached") as info:
        run_all_scenarios(conflict_instance(), SolveOptions(time_limit=0.3), mode="lpcc")
    assert (info.value.status, info.value.exit_code) == ("limit", 4)
    assert len(calls) == 1
    calls.clear()
    result = daily_cycle([conflict_instance()] * 3, SolveOptions(time_limit=0.3), mode="lpcc")
    assert [r.day for r in result.reports] == [0] and len(calls) == 1
    assert result.failures == ((1, "scenario 3: time limit reached"),
                               (2, "scenario 3: time limit reached"))
