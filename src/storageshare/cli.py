"""Command-line front end.

Subcommands: gen-data (synthetic inputs), build (export the mixed-binary
model as MPS), solve (run the division model), oracle (exhaustive grid
search), scenario (compare the three control scenarios), cycle (one
division solve per day), report (re-parse emitted report files).

Exit codes: 0 success, 2 infeasible or bad input, 3 unbounded, 4 node or
time limit, 1 other failure. A division solve's code is its
SolveResult.exit_code, the one table of status codes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .dataio import DataError, load_inputs, parse_config
from .instance import InstanceError
from .mpec import assemble_mpec, linearize_big_m
from .mps_io import export_mps
from .oracle import grid_oracle
from .scenarios import (
    ScenarioError,
    _fmt,
    daily_cycle,
    emit_report,
    read_report,
    run_all_scenarios,
    solve_division,
)
from .solver import MODES, extract_solution
from .synthetic import PRICE_SHAPES, PROFILES, gen_synthetic


def _solve_flags(p: argparse.ArgumentParser):
    p.add_argument("--mode", choices=MODES, default=None,
                   help="override the config's solver mode")
    p.add_argument("--time-limit", type=float, default=None,
                   help="override the config's solve time limit in seconds")


def _inputs(p: argparse.ArgumentParser):
    p.add_argument("--loads", required=True, help="load series file")
    p.add_argument("--prices", required=True, help="price series file")
    p.add_argument("--config", required=True, help="run configuration file")


def _load(args):
    config = parse_config(args.config)
    return load_inputs(args.loads, args.prices, config), config


def _solve_settings(args, config):
    """Solve options and mode: the config's, with --time-limit/--mode applied."""
    opts = config.solve_options()
    if args.time_limit is not None:
        try:
            opts = replace(opts, time_limit=args.time_limit)
        except ValueError as exc:
            raise DataError(f"--time-limit: {exc}") from None
    mode = args.mode if args.mode is not None else config.values["mode"]
    return opts, mode


def _print_division(division):
    print(f"division disco = {_fmt(division.s_disco)} kWh")
    for i, s in enumerate(division.s_customer):
        print(f"division c{i} = {_fmt(s)} kWh")


def _cmd_gen_data(args) -> int:
    try:
        gen_synthetic(args.profile, args.price_shape, args.customers, args.slots,
                      args.seed, args.loads, args.prices)
    except ValueError as exc:  # the choices are parsed already: a count is bad
        raise DataError(f"--customers/--slots: {exc}") from None
    print(f"wrote {args.loads}")
    print(f"wrote {args.prices}")
    return 0


def _cmd_build(args) -> int:
    instance, config = _load(args)
    milp = linearize_big_m(assemble_mpec(instance), config.big_m_policy())
    with open(args.out, "w") as fh:
        export_mps(milp, fh)
    print(f"wrote {args.out}")
    print(f"columns = {milp.lp.n_vars + milp.n_binaries}")
    print(f"binaries = {milp.n_binaries}")
    print(f"rows = {milp.lp.n_g + 2 * milp.n_binaries + milp.lp.n_h}")
    return 0


def _cmd_solve(args) -> int:
    instance, config = _load(args)
    opts, mode = _solve_settings(args, config)
    mpec = assemble_mpec(instance)
    policy = config.big_m_policy()
    result, escalations, notes = solve_division(mpec, opts, mode, policy)
    print(f"status = {result.status}")
    print(f"nodes = {result.node_count}")
    print(f"escalations = {escalations}")
    for note in notes:
        print(f"note = {note}")
    if result.status != "optimal":
        return result.exit_code
    division, _, _ = extract_solution(result, instance)
    print(f"objective = {_fmt(result.objective)}")
    print(f"gap = {_fmt(result.gap)}")
    _print_division(division)
    return 0


def _cmd_oracle(args) -> int:
    if args.grid_step is not None and not 0 < args.grid_step < math.inf:
        raise DataError(f"--grid-step must be positive and finite, got {args.grid_step}")
    instance, _ = _load(args)
    cap = instance.storage.total_capacity
    step = args.grid_step if args.grid_step is not None else cap / 20.0
    if cap == 0.0:
        step = 1.0  # single grid point either way
    report = grid_oracle(instance, step)
    print(f"grid_step = {_fmt(report.grid_step)}")
    print(f"points = {len(report.records)}")
    print(f"objective = {_fmt(report.best_objective)}")
    _print_division(report.best_division)
    for note in report.notes:
        print(f"note = {note}")
    return 0


def _cmd_scenario(args) -> int:
    instance, config = _load(args)
    opts, mode = _solve_settings(args, config)
    try:
        reports = run_all_scenarios(instance, opts, mode=mode,
                                    policy=config.big_m_policy())
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code
    paths = emit_report(reports, args.out, config=config)
    for r in reports:
        cust = " ".join(_fmt(v) + "%" for v in r.customer_reductions)
        print(f"scenario {int(r.scenario)}: disco {_fmt(r.disco_reduction)}% "
              f"customers {cust} peak {_fmt(r.peak_reduction)}%")
    print(f"wrote {paths['summary']}")
    return 0


def _cmd_cycle(args) -> int:
    config = parse_config(args.config)
    opts, mode = _solve_settings(args, config)
    days = [load_inputs(loads, prices, config) for loads, prices in args.day]
    result = daily_cycle(days, opts, mode=mode, policy=config.big_m_policy())
    for r in result.reports:
        print(f"day {r.day}: objective {_fmt(r.upper_objective)} "
              f"disco {_fmt(r.division.s_disco)} kWh "
              f"peak {_fmt(r.peak_reduction)}%")
    for day, message in result.failures:
        print(f"day {day} failed: {message}", file=sys.stderr)
    if result.reports:
        emit_report(result.reports, args.out, config=config,
                    failures=result.failures)
        print(f"wrote {args.out}")
    return 0 if not result.failures else 1


def _cmd_report(args) -> int:
    data = read_report(args.dir)
    days = sorted({d for d, _, _ in data["reductions"]})
    print(f"days = {len(days)}")
    for day in days:
        scenarios = sorted({s for d, s, _ in data["reductions"] if d == day})
        for sc in scenarios:
            rows = {p: v for (d, s, p), v in data["reductions"].items()
                    if d == day and s == sc}
            parts = [f"{p} {_fmt(rows[p][2])}%"
                     for p in sorted(rows, key=lambda q: (q != "disco", q))]
            print(f"day {day} scenario {sc}: " + ", ".join(parts))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="storageshare",
        description="Day-ahead battery division between a utility and its "
                    "customers, with per-party dispatch baked in as "
                    "optimality conditions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write synthetic load/price files")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed for data generation")
    p.add_argument("--profile", choices=PROFILES, default="duck")
    p.add_argument("--price-shape", choices=PRICE_SHAPES, default="conforming")
    p.add_argument("--customers", type=int, default=2)
    p.add_argument("--slots", type=int, default=24)
    p.add_argument("--loads", required=True, help="output load file")
    p.add_argument("--prices", required=True, help="output price file")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("build", help="export the mixed-binary model as MPS")
    _inputs(p)
    p.add_argument("--out", required=True, help="output MPS path")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("solve", help="solve the division model")
    _solve_flags(p)
    _inputs(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive grid search over divisions")
    _inputs(p)
    p.add_argument("--grid-step", type=float, default=None,
                   help="grid resolution in kWh (default capacity/20)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("scenario", help="compare the three control scenarios")
    _solve_flags(p)
    _inputs(p)
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("cycle", help="solve the division day by day")
    _solve_flags(p)
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--day", nargs=2, action="append", required=True,
                   metavar=("LOADS", "PRICES"),
                   help="one day's load and price files (repeatable)")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("report", help="re-parse and summarize report files")
    p.add_argument("--dir", required=True, help="report directory")
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, InstanceError, FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ScenarioError, RuntimeError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
