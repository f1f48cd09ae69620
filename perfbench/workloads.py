"""The four benchmark workloads.

Each workload builds its inputs in setup() (timed as set-up) and runs
one pass of its operations in run_pass() through measure.Pass.op, which
times each operation. Afterwards check() applies the correctness gates to the
pass's records and fingerprint() returns the counters that must repeat
exactly between two passes of the same inputs. An operation's record is
its result, or the exception it raised.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os

import numpy as np

# Calls go through the module attributes, which tracing replaces.
from storageshare import cli, mpec, mps_io, scenarios, solver
from storageshare.solver import SolveOptions

import instances

REL_TOL = 1e-6


def _failed(records, label):
    out = records.get(label)
    if out is None:
        return f"{label}: not run"
    if isinstance(out, Exception):
        return f"{label}: {type(out).__name__}: {out}"
    return None


def _close(a, b, ref):
    return abs(a - b) <= REL_TOL * max(1.0, abs(ref))


def _solved(inst, solve, *args):
    result = solve(*args)
    solver.extract_solution(result, inst)  # raises if the schedules break an invariant
    return result


def _bigm(model):
    return scenarios.solve_division(model, SolveOptions(), "bigm", None)[0]


class Workload:
    def fingerprint(self, records):
        """What must repeat exactly between passes: every record that is not an error."""
        return {k: self.counters(v) for k, v in records.items()
                if not isinstance(v, Exception)}

    @staticmethod
    def counters(record):
        return record


class _Trees(Workload):
    @staticmethod
    def counters(result):
        return (result.status, result.node_count, result.iterations, result.gap,
                result.objective)


class SmallDays(_Trees):
    name = "small-days"

    def setup(self, seed, workdir):
        fixtures = [(name, build()) for name, build in instances.DIVISION_FIXTURES]
        order = np.random.default_rng(seed).permutation(len(fixtures))
        return [(fixtures[i][0], fixtures[i][1], mpec.assemble_mpec(fixtures[i][1]))
                for i in order]

    def run_pass(self, state, p):
        for name, inst, model in state:
            p.op(f"{name}/lpcc", lambda: _solved(inst, solver.solve_lpcc, model))
            p.op(f"{name}/bigm", lambda: _solved(inst, _bigm, model))

    def check(self, state, records):
        failures = []
        for name, _, _ in state:
            ref = instances.REFERENCE_OBJECTIVES[name]
            lpcc = records.get(f"{name}/lpcc")
            for mode in ("lpcc", "bigm"):
                label = f"{name}/{mode}"
                res = records.get(label)
                why = _failed(records, label)
                if why is None and res.status != "optimal":
                    why = f"{label}: status {res.status}"
                if why is None and not _close(res.objective, ref, ref):
                    why = f"{label}: objective {res.objective!r} vs reference {ref!r}"
                if why is None and mode == "bigm":
                    if not mpec.validate_big_m(res.model, res.x).clean:
                        why = f"{label}: a big-M bound binds at the incumbent"
                    elif (_failed(records, f"{name}/lpcc") is None
                          and not _close(res.objective, lpcc.objective, ref)):
                        why = f"{label}: {res.objective!r} vs lpcc {lpcc.objective!r}"
                if why:
                    failures.append(why)
        return failures


class LongDays(_Trees):
    name = "long-days"
    BUDGETS = (("day-n1", 1, 100), ("day-n2", 2, 100))

    def setup(self, seed, workdir):
        days = [("stress", instances.stress_fixture(), None)]
        days += [(label, instances.day_long(n), budget) for label, n, budget in self.BUDGETS]
        order = np.random.default_rng(seed).permutation(len(days))
        return [(label, inst, mpec.assemble_mpec(inst), budget)
                for label, inst, budget in (days[i] for i in order)]

    def run_pass(self, state, p):
        for label, inst, model, budget in state:
            opts = SolveOptions() if budget is None else SolveOptions(node_limit=budget)
            p.op(label, lambda: _solved(inst, solver.solve_lpcc, model, opts))

    def check(self, state, records):
        failures = []
        for label, _, _, budget in state:
            why = _failed(records, label)
            res = records.get(label)
            if why is None:
                expected = ("optimal",) if budget is None else ("optimal", "limit")
                if res.status not in expected:
                    why = f"{label}: status {res.status}"
                elif budget is not None and res.node_count > budget:
                    why = f"{label}: {res.node_count} nodes over a budget of {budget}"
                elif res.best_bound > res.objective + 1e-9 * max(1.0, abs(res.objective)):
                    why = f"{label}: bound {res.best_bound!r} above incumbent {res.objective!r}"
                elif budget is None and not _close(res.objective, instances.STRESS_REFERENCE,
                                                   instances.STRESS_REFERENCE):
                    why = f"{label}: objective {res.objective!r} vs reference"
            if why:
                failures.append(why)
        return failures


class FleetExport(Workload):
    name = "fleet-export"
    BINARIES = 38688

    def setup(self, seed, workdir):
        return instances.fleet(seed), os.path.join(workdir, "fleet.mps")

    def run_pass(self, state, p):
        inst, path = state
        model = p.op("assemble", lambda: mpec.assemble_mpec(inst), keep=lambda m: m.n_pairs)
        milp = None if model is None else p.op(
            "linearize", lambda: mpec.linearize_big_m(model),
            keep=lambda m: (m.n_binaries, m.lp.n_vars, m.lp.n_g, m.lp.n_h))
        exported = milp is not None and p.op(
            "export", lambda: mps_io.export_mps(milp, path) or True,
            keep=lambda _: os.path.getsize(path))
        del model, milp  # the re-read does not need the model in memory
        if exported:
            p.op("read", lambda: mps_io.read_mps(path),
                 keep=lambda s: (s.binary_columns, s.columns, s.g_rows, s.e_rows))
        if os.path.exists(path):
            os.remove(path)

    def check(self, state, records):
        for step in ("assemble", "linearize", "export", "read"):
            why = _failed(records, step)
            if why:  # later steps did not run, so only this one counts
                return [why]
        failures = []
        binaries, n_vars, n_g, n_h = records["linearize"]
        if binaries != self.BINARIES:
            failures.append(f"linearize: {binaries} binaries, expected {self.BINARIES}")
        if records["read"] != (self.BINARIES, n_vars, n_g, n_h):
            failures.append(f"read: counts {records['read']} vs model "
                            f"{(self.BINARIES, n_vars, n_g, n_h)}")
        return failures


class CliDay(Workload):
    name = "cli-day"
    CONFIG = "slot_hours = 4.0\ntotal_capacity = 0.4\nmode = lpcc\n"

    def setup(self, seed, workdir):
        files = {k: os.path.join(workdir, v) for k, v in
                 (("loads", "loads.csv"), ("prices", "prices.csv"),
                  ("config", "run.cfg"), ("out", "report"))}
        with open(files["config"], "w") as fh:
            fh.write(self.CONFIG)
        inputs = ["--loads", files["loads"], "--prices", files["prices"],
                  "--config", files["config"]]
        steps = [("solve", inputs), ("oracle", inputs),
                 ("scenario", inputs + ["--out", files["out"]])]
        order = np.random.default_rng(seed).permutation(len(steps))
        argvs = [("gen-data", ["--profile", "duck", "--price-shape", "conflicting",
                               "--customers", "2", "--slots", "6", "--seed", "5",
                               "--loads", files["loads"], "--prices", files["prices"]])]
        argvs += [steps[i] for i in order]
        argvs.append(("report", ["--dir", files["out"]]))
        return files, argvs

    def run_pass(self, state, p):
        for sub, args in state[1]:
            p.op(sub, functools.partial(_run_cli, [sub, *args]))

    def check(self, state, records):
        files, _ = state
        failures = []
        for sub, rec in records.items():
            why = _failed(records, sub)
            if why is None and rec[0] != 0:
                why = f"{sub}: exit code {rec[0]}: {rec[2].strip()}"
            if why:
                failures.append(why)
        if failures:
            return failures
        try:
            return _cli_gates(files, records)
        except (OSError, ValueError, KeyError) as exc:
            return [f"outputs: cannot be read back: {type(exc).__name__}: {exc}"]


def _cli_gates(files, records):
    failures = []
    exact = _printed_value(records["solve"][1], "objective")
    grid = _printed_value(records["oracle"][1], "objective")
    if grid < exact - REL_TOL * max(1.0, abs(exact)):
        failures.append(f"oracle: grid {grid!r} below the exact optimum {exact!r}")
    upper = _summary_objectives(os.path.join(files["out"], "summary.txt"))
    if upper[3] > min(upper[1], upper[2]) + REL_TOL:
        failures.append(f"scenario: shared {upper[3]!r} worse than single-party "
                        f"{upper[1]!r}/{upper[2]!r}")
    if _report_lines(records["report"][1]) != _reductions(
            os.path.join(files["out"], "reductions.csv")):
        failures.append("report: printed reductions differ from reductions.csv")
    return failures


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _printed_value(text, key):
    for line in text.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split("=", 1)[1])
    raise ValueError(f"no '{key} = ' line in output")


def _summary_objectives(path):
    """Upper objective per scenario from summary.txt, read independently."""
    out, scenario = {}, None
    with open(path) as fh:
        for line in fh:
            if line.startswith("[day "):
                scenario = int(line.split("scenario")[1].strip(" ]\n"))
            elif line.startswith("upper_objective = "):
                out[scenario] = float(line.split("=", 1)[1])
    return out


def _reductions(path):
    """{(scenario, party): percent} from reductions.csv, read independently."""
    out = {}
    with open(path) as fh:
        fh.readline()  # header
        for line in fh:
            _, sc, party, _, _, pct = line.strip().split(",")
            out[(int(sc), party)] = float(pct)
    return out


def _report_lines(text):
    """{(scenario, party): percent} from the output of `report`."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("day "):
            continue
        head, parts = line.split(": ", 1)
        sc = int(head.split("scenario")[1])
        for part in parts.split(", "):
            party, pct = part.split(" ")
            out[(sc, party)] = float(pct.rstrip("%"))
    return out


WORKLOADS = {w.name: w for w in (SmallDays(), LongDays(), FleetExport(), CliDay())}
