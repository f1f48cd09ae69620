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

All three scenarios solve the day's division model in lpcc or bigm mode
(solve_division), each under its pin: scenario 1 fixes the utility's
share at the capacity and every customer's at zero (_pin_disco_only),
scenario 2 the utility's at zero with the customers' summing to the
capacity (_pin_customers_only), and scenario 3 leaves the division free.
In bigm mode the tree builds its own big-M form and solves it once: its
pair bounds take mpec's fixed sizes, each multiplier bound floored at its
capacity path's maximum, which makes the form exact (mpec's notes), and
a bound still near-binding at the answer is a note in the day's report.
solver.extract_solution audits every scenario's division and schedules
with oracle.check_schedule_invariants at FEAS_TOL before they are
reported; a failure raises RuntimeError naming the failed items.

run_all_scenarios assembles the day's division model once. The model
owns the day's capacity paths (simplex.CapacityPath, one per party,
MpecModel.paths), built on their first read; every pinned copy of the
model shares them, so the three solves build them once. A scenario run,
a run of all three and a cycle each share one time limit, path builds
included: every solve gets what is left of it, and a scenario that would
start with none left fails with status limit (a cycle records the day as
failed). The mode is checked once, by each public entry.

Report files are dataio's DIVISIONS, REDUCTIONS and PROFILES tables and a
summary, deterministic for fixed inputs (no timestamps, no wall-clock
fields); re-reading one rejects a repeated row.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .dataio import DIVISIONS, PROFILES, REDUCTIONS, DataError, read_table, write_table
from .instance import (
    Division,
    Instance,
    ScheduleSet,
    disco_cost,
    net_system_load,
    upper_objective,
    zero_schedules,
)
from .lp import Rows
from .mpec import assemble_mpec, validate_big_m
from .solver import (_EXIT_CODES, DEFAULT_MODE, MODES, SolveOptions, extract_solution,
                     solve_lpcc, solve_milp)

ZERO_BASELINE_TOL = 1e-12


class ScenarioId(IntEnum):
    """Who controls the battery: the utility, the customers, or both."""

    DISCO_ONLY = 1
    CUSTOMERS_ONLY = 2
    SHARED = 3


class ScenarioError(RuntimeError):
    """A scenario solve ended with a status other than optimal: a failed
    division solve, or a scenario that the time limit left no time for.
    The message names the scenario; exit_code is the status's code, as
    SolveResult's."""

    def __init__(self, scenario, status: str, why: str):
        super().__init__(f"scenario {int(scenario)}: {why}")
        self.status, self.exit_code = status, _EXIT_CODES[status]


def _left(scenario, deadline: float) -> float:
    """Seconds left before deadline, a perf_counter reading; with none
    left the scenario stops with status limit."""
    left = deadline - time.perf_counter()
    if left <= 0:
        raise ScenarioError(scenario, "limit", "time limit reached")
    return left


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


def _pin_disco_only(mpec):
    """Give the whole battery to the utility: its share is pinned to the
    capacity and every customer's to zero. The pinned model keeps the
    instance, so it shares mpec's capacity paths."""
    lb, ub = mpec.lp.lb.copy(), mpec.lp.ub.copy()
    lb[mpec.div_disco_col] = ub[mpec.div_disco_col] = mpec.instance.storage.total_capacity
    lb[mpec.div_cust_cols] = ub[mpec.div_cust_cols] = 0.0
    return replace(mpec, lp=replace(mpec.lp, lb=lb, ub=ub))


def _pin_customers_only(mpec):
    """Give the whole battery to the customers.

    The utility's share is pinned to zero and the customer shares must
    use the full capacity; how it splits among customers stays free for
    the division model to optimize. The pinned model keeps the instance,
    so it shares mpec's capacity paths.
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
        b_h=np.append(lp.b_h, mpec.instance.storage.total_capacity),
    )
    return replace(mpec, lp=lp2)


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def solve_division(mpec, opts: SolveOptions, mode: str, _=None):
    """Run the joint model in the requested mode, on the model's own
    capacity paths. A bigm solve builds its own big-M form, floored by the
    paths (solve_milp), and its answer is validated; a near-binding bound
    is noted by side. Returns (result, escalations, notes), escalations
    being the number of pairs whose bound the floor lifted, noted when
    there are any. A fourth argument, where the day's paths were once
    passed, is ignored; perfbench/workloads.py still passes None there."""
    _check_mode(mode)
    if mode == "lpcc":
        return solve_lpcc(mpec, opts), 0, []
    result = solve_milp(mpec, opts)
    milp = result.model
    notes = []
    if milp.lifted:
        notes.append(f"{milp.lifted} multiplier bounds lifted to their capacity path's maximum")
    if result.status == "optimal":
        report = validate_big_m(milp, result.x)
        if not report.clean:
            sides = sorted({side for _, side, _, _ in report.flagged})
            notes.append(f"{len(report.flagged)} binding pair bounds (flagged: {'/'.join(sides)})")
    return result, milp.lifted, notes


def run_scenario(instance: Instance, scenario, options: SolveOptions | None = None,
                 mode: str = DEFAULT_MODE, day: int = 0) -> DayReport:
    """Solve one scenario and report costs against the do-nothing baseline;
    the solve, its path builds included, gets options.time_limit."""
    _check_mode(mode)
    scenario = ScenarioId(scenario)
    opts = options if options is not None else SolveOptions()
    deadline = time.perf_counter() + opts.time_limit
    return _report(assemble_mpec(instance), scenario, opts, mode, day, deadline)


def _report(mpec, scenario: ScenarioId, opts: SolveOptions, mode: str,
            day: int, deadline: float) -> DayReport:
    """One scenario's report off the day's division model mpec, pinned as
    the scenario fixes the division, its solve given what is left before
    deadline (a perf_counter reading)."""
    instance = mpec.instance
    if scenario is ScenarioId.DISCO_ONLY:
        mpec = _pin_disco_only(mpec)
    elif scenario is ScenarioId.CUSTOMERS_ONLY:
        mpec = _pin_customers_only(mpec)
    result, escalations, notes = solve_division(
        mpec, replace(opts, time_limit=_left(scenario, deadline)), mode)
    if result.status != "optimal":
        raise ScenarioError(scenario, result.status,
                            f"solver ended {result.status} after {result.node_count} nodes")
    division, schedules, _ = extract_solution(result, instance)
    stats = {"mode": mode, "status": result.status,
             "nodes": result.node_count, "gap": result.gap,
             "escalations": escalations, "iterations": result.iterations}

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
                      mode: str = DEFAULT_MODE, day: int = 0):
    """All three scenarios on one instance, in scenario order, on one
    division model, and so one build of the day's capacity paths, within
    one options.time_limit."""
    _check_mode(mode)
    opts = options if options is not None else SolveOptions()
    deadline = time.perf_counter() + opts.time_limit
    mpec = assemble_mpec(instance)
    return tuple(_report(mpec, sid, opts, mode, day, deadline) for sid in ScenarioId)


def daily_cycle(days, options: SolveOptions | None = None,
                mode: str = DEFAULT_MODE) -> CycleResult:
    """Re-solve the division independently for each day's instance.

    The dispatch model returns every battery to its initial state of
    charge by the end of the day, so days decouple and each one is a
    fresh full solve. The days share one options.time_limit. A failed day,
    or one the time limit left no time for, is recorded and the cycle
    continues. An unknown mode raises ValueError before any day runs.
    """
    _check_mode(mode)
    opts = options if options is not None else SolveOptions()
    deadline = time.perf_counter() + opts.time_limit
    reports, failures = [], []
    for day, instance in enumerate(days):
        try:
            reports.append(_report(assemble_mpec(instance), ScenarioId.SHARED, opts, mode,
                                   day, deadline))
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

    divisions, reductions, profiles = [], [], []
    days = set()
    for r in reports:
        key = r.day, int(r.scenario)
        caps = [r.division.s_disco, *r.division.s_customer]
        divisions += [(*key, party, cap)
                      for party, cap in zip(_party_names(len(r.division.s_customer)), caps)]
        reductions.append((*key, "disco", r.baseline_disco_cost, r.actual_disco_cost,
                           r.disco_reduction))
        reductions += [(*key, f"c{i}", b, a, p) for i, (b, a, p) in enumerate(
            zip(r.baseline_customer_costs, r.actual_customer_costs, r.customer_reductions))]
        reductions.append((*key, "peak", r.baseline_peak, r.actual_peak, r.peak_reduction))
        if r.day not in days:
            days.add(r.day)
            profiles += [(r.day, "original", t, v) for t, v in enumerate(r.original_profile)]
        profiles += [(r.day, f"s{int(r.scenario)}", t, v) for t, v in enumerate(r.actual_profile)]
    write_table(paths["divisions"], DIVISIONS, divisions)
    write_table(paths["reductions"], REDUCTIONS, reductions)
    write_table(paths["profiles"], PROFILES, profiles)

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
    """Re-parse emitted report files into plain dictionaries. A malformed
    file, a repeated row or a profile series with a missing slot included,
    raises DataError."""

    def table(name, spec):
        path = os.path.join(destination, f"{name}.csv")
        return {row[: spec.key_fields]: row[spec.key_fields:] for _, row in read_table(path, spec)}

    out = {"divisions": {k: v for k, (v,) in table("divisions", DIVISIONS).items()},
           "reductions": table("reductions", REDUCTIONS),
           "profiles": {}}
    profiles: dict = {}
    for (day, series, t), (v,) in table("profiles", PROFILES).items():
        profiles.setdefault((day, series), {})[t] = v
    for (day, series), vals in profiles.items():
        missing = set(range(len(vals))) - set(vals)
        if missing:
            raise DataError(f"{os.path.join(destination, 'profiles.csv')}: day {day} "
                            f"series {series} has no slot {min(missing)}")
        out["profiles"][(day, series)] = np.array([vals[t] for t in range(len(vals))])
    return out
