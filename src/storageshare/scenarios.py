"""Scenario comparison, the day-by-day division cycle, and report files.

Three control scenarios are compared against the do-nothing baseline:

1. the utility operates the whole battery and customers get none,
2. customers split the whole battery and the utility gets none,
3. the division model allocates capacity freely (the full bilevel solve).

Costs follow the pooled convention of the division objective: the retail
bill prices the entire net feeder load at the time-of-use rate and the
wholesale bill prices the same net load at the nodal price, so one
party's storage moves every party's bill. The pooled retail bill is
attributed to customers slot by slot in proportion to their original
load (equal split on slots with no load). Reductions are percentages of
the baseline, positive when the bill went down; reductions on a zero
baseline are reported as zero. Reports on Customers rows are group
figures, not individual bills.

Report files are plain delimited text, deterministic for fixed inputs
(no timestamps, no wall-clock fields).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .instance import (
    Division,
    Instance,
    ScheduleSet,
    disco_cost,
    flow_price,
    net_system_load,
    upper_objective,
    zero_schedules,
)
from .lp import Rows
from .mpec import BigMPolicy, assemble_mpec, linearize_big_m, validate_big_m
from .simplex import flow_face, party_family
from .solver import MODES, SolveOptions, extract_solution, solve_lpcc, solve_milp

ZERO_BASELINE_TOL = 1e-12


class ScenarioId(IntEnum):
    """Who controls the battery: the utility, the customers, or both."""

    DISCO_ONLY = 1
    CUSTOMERS_ONLY = 2
    SHARED = 3


class ScenarioError(RuntimeError):
    """A scenario solve failed; the message names the scenario. A failed
    division solve also sets status and exit_code (SolveResult's)."""

    exit_code = 1


@dataclass(frozen=True)
class DayReport:
    """One scenario's outcome for one day, compared against the baseline."""

    day: int
    scenario: ScenarioId
    division: Division
    baseline_disco_cost: float
    baseline_customer_costs: np.ndarray  # attributed, [N]
    baseline_peak: float
    actual_disco_cost: float
    actual_customer_costs: np.ndarray  # attributed, [N]
    actual_peak: float
    disco_reduction: float  # percent, positive = bill went down
    customer_reductions: np.ndarray  # percent, [N]
    peak_reduction: float  # percent
    upper_objective: float
    original_profile: np.ndarray  # net feeder load, no storage, [T]
    actual_profile: np.ndarray  # net feeder load with storage, [T]
    solver_stats: dict
    notes: tuple = ()


@dataclass(frozen=True)
class CycleResult:
    """Per-day reports of a multi-day run plus the days that failed."""

    reports: tuple
    failures: tuple  # (day, message)


def reduction_pct(baseline: float, actual: float) -> float:
    """Percent improvement over the baseline; zero baselines report 0."""
    if abs(baseline) < ZERO_BASELINE_TOL:
        return 0.0
    return (baseline - actual) / baseline * 100.0


def attributed_customer_costs(instance: Instance,
                              schedules: ScheduleSet) -> np.ndarray:
    """Split the pooled retail bill by original per-slot load share.

    Slots where no customer draws anything split equally. The attribution
    sums back to the pooled total exactly.
    """
    cl = instance.loads.customer_load
    n = instance.customer_count
    tot = cl.sum(axis=0)
    live = tot > ZERO_BASELINE_TOL
    weights = np.where(live[None, :], cl / np.where(live, tot, 1.0), 1.0 / n)
    net = net_system_load(instance, schedules)
    slot_cost = instance.prices.tou * net * instance.grid.slot_hours
    return weights @ slot_cost


def _disco_only_dispatch(instance: Instance):
    """Fixed division (everything to the utility); its dispatch is one
    solve of the utility's party family, the same path as every other."""
    t = instance.grid.slot_count
    s_total = instance.storage.total_capacity
    family = party_family(instance, instance.customer_count)
    sol, x_res = flow_face(family, s_total, flow_price(instance))
    if x_res is None:
        raise ScenarioError(f"scenario 1: utility dispatch ended {sol.status}")

    def as_schedules(x):
        ch, dis = x[:t], x[t: 2 * t]
        net = instance.loads.system_load + ch - dis
        return replace(zero_schedules(instance), disco_ch=ch, disco_dis=dis,
                       system_peak=float(net.max()))

    candidates = [as_schedules(sol.x), as_schedules(x_res)]
    schedules = min(candidates, key=lambda s: upper_objective(instance, s))
    division = Division(s_disco=s_total,
                        s_customer=np.zeros(instance.customer_count))
    return division, schedules, sol


def _pin_customers_only(mpec):
    """Give the whole battery to the customers.

    The utility's share is pinned to zero and the customer shares must
    use the full capacity; how it splits among customers stays free for
    the division model to optimize.
    """
    lp = mpec.lp
    lb, ub = lp.lb.copy(), lp.ub.copy()
    lb[mpec.div_disco_col] = 0.0
    ub[mpec.div_disco_col] = 0.0
    cols = np.asarray(mpec.div_cust_cols, dtype=int)
    lp2 = replace(
        lp,
        lb=lb,
        ub=ub,
        h=Rows.stack([lp.h, Rows.from_lists([cols], [np.ones(len(cols))])]),
        h_offset=np.append(lp.h_offset, mpec.instance.storage.total_capacity),
        h_cap=np.append(lp.h_cap, 0.0),
    )
    return replace(mpec, lp=lp2)


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def solve_division(mpec, opts: SolveOptions, mode: str,
                   policy: BigMPolicy | None):
    """Run the joint model in the requested mode.

    In bigm mode the pair bounds are validated after the solve; a flagged
    bound escalates the policy on the flagged side and re-solves, up to
    the policy's round limit.
    """
    _check_mode(mode)
    notes = []
    if mode == "lpcc":
        return solve_lpcc(mpec, opts), 0, notes
    pol = (policy or BigMPolicy()).check()
    rounds = 0
    while True:
        milp = linearize_big_m(mpec, pol)
        result = solve_milp(milp, opts)
        if result.status != "optimal":
            return result, rounds, notes
        report = validate_big_m(milp, result.x)
        if report.clean:
            return result, rounds, notes
        if rounds >= pol.max_rounds:
            notes.append(
                f"pair bounds still binding after {rounds} escalations")
            return result, rounds, notes
        rounds += 1
        sides = {side for _, side, _, _ in report.flagged}
        grown = {}
        if "omega" in sides:
            grown["dual_scale"] = pol.dual_scale * pol.escalation
        if "slack" in sides:
            grown["primal_safety"] = pol.primal_safety * pol.escalation
        pol = replace(pol, **grown)
        notes.append(
            f"escalation round {rounds}: {len(report.flagged)} binding "
            f"pair bounds, regrowing {'/'.join(sorted(sides))}")


def run_scenario(instance: Instance, scenario, options: SolveOptions | None = None,
                 mode: str = "lpcc", policy: BigMPolicy | None = None,
                 day: int = 0) -> DayReport:
    """Solve one scenario and report costs against the do-nothing baseline."""
    scenario = ScenarioId(scenario)
    _check_mode(mode)
    opts = options if options is not None else SolveOptions()
    t0 = time.perf_counter()
    notes: list = []

    if scenario is ScenarioId.DISCO_ONLY:
        division, schedules, sol = _disco_only_dispatch(instance)
        stats = {"mode": "lp", "status": "optimal", "nodes": 1,
                 "gap": 0.0, "escalations": 0, "iterations": sol.iterations}
    else:
        mpec = assemble_mpec(instance)
        if scenario is ScenarioId.CUSTOMERS_ONLY:
            mpec = _pin_customers_only(mpec)
        result, escalations, notes = solve_division(mpec, opts, mode, policy)
        if result.status != "optimal":
            err = ScenarioError(
                f"scenario {int(scenario)}: solver ended {result.status} "
                f"after {result.node_count} nodes")
            err.status, err.exit_code = result.status, result.exit_code
            raise err
        division, schedules, _ = extract_solution(result, instance)
        stats = {"mode": mode, "status": result.status,
                 "nodes": result.node_count, "gap": result.gap,
                 "escalations": escalations, "iterations": result.iterations}
    stats["wall_time"] = time.perf_counter() - t0

    baseline = zero_schedules(instance)
    base_cust = attributed_customer_costs(instance, baseline)
    act_cust = attributed_customer_costs(instance, schedules)
    base_disco = disco_cost(instance, baseline)
    act_disco = disco_cost(instance, schedules)
    original = net_system_load(instance, baseline)
    actual = net_system_load(instance, schedules)
    base_peak = float(original.max())
    act_peak = float(actual.max())
    return DayReport(
        day=day,
        scenario=scenario,
        division=division,
        baseline_disco_cost=base_disco,
        baseline_customer_costs=base_cust,
        baseline_peak=base_peak,
        actual_disco_cost=act_disco,
        actual_customer_costs=act_cust,
        actual_peak=act_peak,
        disco_reduction=reduction_pct(base_disco, act_disco),
        customer_reductions=np.array([
            reduction_pct(b, a) for b, a in zip(base_cust, act_cust)
        ]),
        peak_reduction=reduction_pct(base_peak, act_peak),
        upper_objective=upper_objective(instance, schedules),
        original_profile=original,
        actual_profile=actual,
        solver_stats=stats,
        notes=tuple(notes),
    )


def run_all_scenarios(instance: Instance, options: SolveOptions | None = None,
                      mode: str = "lpcc", policy: BigMPolicy | None = None,
                      day: int = 0):
    """All three scenarios on one instance, in scenario order."""
    return tuple(
        run_scenario(instance, sid, options, mode=mode, policy=policy, day=day)
        for sid in ScenarioId
    )


def daily_cycle(days, options: SolveOptions | None = None, mode: str = "lpcc",
                policy: BigMPolicy | None = None) -> CycleResult:
    """Re-solve the division independently for each day's instance.

    The dispatch model returns every battery to its initial state of
    charge by the end of the day, so days decouple and each one is a
    fresh full solve. A failed day is recorded and the cycle continues.
    """
    reports, failures = [], []
    for day, instance in enumerate(days):
        try:
            reports.append(run_scenario(instance, ScenarioId.SHARED, options,
                                        mode=mode, policy=policy, day=day))
        except (ScenarioError, RuntimeError, ValueError) as exc:
            failures.append((day, str(exc)))
    return CycleResult(reports=tuple(reports), failures=tuple(failures))


def _party_names(n: int):
    return ["disco"] + [f"c{i}" for i in range(n)]


def _fmt(v: float) -> str:
    return "%.12g" % v


def emit_report(reports, destination, config=None, failures=()) -> dict:
    """Write division, reduction, profile and summary files.

    Returns {"divisions": path, "reductions": path, "profiles": path,
    "summary": path}. Output is deterministic: fixed inputs give
    byte-identical files.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("emit_report needs at least one report")
    os.makedirs(destination, exist_ok=True)
    reports.sort(key=lambda r: (r.day, int(r.scenario)))
    paths = {name: os.path.join(destination, f"{name}.csv")
             for name in ("divisions", "reductions", "profiles")}
    paths["summary"] = os.path.join(destination, "summary.txt")

    with open(paths["divisions"], "w") as fh:
        fh.write("day,scenario,party,capacity_kwh\n")
        for r in reports:
            caps = [r.division.s_disco] + list(r.division.s_customer)
            for party, cap in zip(_party_names(len(r.division.s_customer)), caps):
                fh.write(f"{r.day},{int(r.scenario)},{party},{_fmt(cap)}\n")

    with open(paths["reductions"], "w") as fh:
        fh.write("day,scenario,party,baseline,actual,reduction_pct\n")
        for r in reports:
            rows = [("disco", r.baseline_disco_cost, r.actual_disco_cost,
                     r.disco_reduction)]
            rows += [(f"c{i}", b, a, p) for i, (b, a, p) in enumerate(
                zip(r.baseline_customer_costs, r.actual_customer_costs,
                    r.customer_reductions))]
            rows.append(("peak", r.baseline_peak, r.actual_peak,
                         r.peak_reduction))
            for party, b, a, p in rows:
                fh.write(f"{r.day},{int(r.scenario)},{party},"
                         f"{_fmt(b)},{_fmt(a)},{_fmt(p)}\n")

    with open(paths["profiles"], "w") as fh:
        fh.write("day,series,t,net_load_kw\n")
        seen_days = set()
        for r in reports:
            if r.day not in seen_days:
                seen_days.add(r.day)
                for t, v in enumerate(r.original_profile):
                    fh.write(f"{r.day},original,{t},{_fmt(v)}\n")
            for t, v in enumerate(r.actual_profile):
                fh.write(f"{r.day},s{int(r.scenario)},{t},{_fmt(v)}\n")

    with open(paths["summary"], "w") as fh:
        fh.write(f"reports = {len(reports)}\n")
        fh.write(f"days = {len({r.day for r in reports})}\n")
        fh.write(f"failures = {len(failures)}\n")
        if config is not None:
            fh.write(f"mode = {config.values['mode']}\n")
            fh.write("defaults_applied = "
                     + ",".join(config.defaults_applied()) + "\n")
        for day, message in failures:
            fh.write(f"failed day {day}: {message}\n")
        for r in reports:
            s = r.solver_stats
            fh.write(f"[day {r.day} scenario {int(r.scenario)}]\n")
            fh.write(f"status = {s.get('status', '?')}\n")
            fh.write(f"mode = {s.get('mode', '?')}\n")
            fh.write(f"nodes = {s.get('nodes', 0)}\n")
            fh.write(f"escalations = {s.get('escalations', 0)}\n")
            fh.write(f"upper_objective = {_fmt(r.upper_objective)}\n")
            total = r.division.s_disco + float(r.division.s_customer.sum())
            fh.write(f"division_total_kwh = {_fmt(total)}\n")
            fh.write(f"disco_reduction_pct = {_fmt(r.disco_reduction)}\n")
            fh.write(f"peak_reduction_pct = {_fmt(r.peak_reduction)}\n")
            for note in r.notes:
                fh.write(f"note = {note}\n")
    return paths


def read_report(destination) -> dict:
    """Re-parse emitted report files into plain dictionaries."""
    out = {"divisions": {}, "reductions": {}, "profiles": {}}
    with open(os.path.join(destination, "divisions.csv")) as fh:
        header = fh.readline().strip()
        if header != "day,scenario,party,capacity_kwh":
            raise ValueError(f"unexpected divisions header: {header!r}")
        for line in fh:
            day, sc, party, cap = line.strip().split(",")
            out["divisions"][(int(day), int(sc), party)] = float(cap)
    with open(os.path.join(destination, "reductions.csv")) as fh:
        header = fh.readline().strip()
        if header != "day,scenario,party,baseline,actual,reduction_pct":
            raise ValueError(f"unexpected reductions header: {header!r}")
        for line in fh:
            day, sc, party, b, a, p = line.strip().split(",")
            out["reductions"][(int(day), int(sc), party)] = (
                float(b), float(a), float(p))
    profiles: dict = {}
    with open(os.path.join(destination, "profiles.csv")) as fh:
        header = fh.readline().strip()
        if header != "day,series,t,net_load_kw":
            raise ValueError(f"unexpected profiles header: {header!r}")
        for line in fh:
            day, series, t, v = line.strip().split(",")
            profiles.setdefault((int(day), series), {})[int(t)] = float(v)
    out["profiles"] = {
        key: np.array([vals[t] for t in range(len(vals))])
        for key, vals in profiles.items()
    }
    return out
