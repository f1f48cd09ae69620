"""Layer spans recorded from outside the package.

Tracing wraps every public module-level function of the traced modules,
plus Simplex.solve and Simplex.resolve, at every name a traced module
binds it under: solver calls solve_lp_engine through its own import, so
wrapping simplex.solve_lp_engine alone would miss the heuristic and
polish LPs. Spans stay in memory as [name, site, start, end, parent, op,
note]; site is the module whose binding was called, op the benchmark
operation that was running, and note a small figure read off the result
(LP iterations, tree nodes, file bytes, ...).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("simplex", "solver", "lp", "mpec", "mps_io", "oracle", "scenarios",
           "dataio", "synthetic", "cli")

NAME, SITE, START, END, PARENT, OP, NOTE = range(7)

TREES = ("solver.solve_lpcc", "solver.solve_milp")


def _tree_note(args, out):
    return [out.node_count, out.iterations, out.gap, out.status]


def _nnz(args, out):
    lp = out.lp
    return int(sum(len(i) for i in lp.g_idx) + sum(len(i) for i in lp.h_idx))


def _file_bytes(args, out):
    dest = args[1]
    return os.path.getsize(dest) if isinstance(dest, (str, os.PathLike)) else 0


_NOTES = {
    "simplex.Simplex.solve": lambda args, out: out.iterations,
    "simplex.Simplex.resolve": lambda args, out: out.iterations,
    "solver.solve_lpcc": _tree_note,
    "solver.solve_milp": _tree_note,
    "scenarios.solve_division": lambda args, out: out[1],
    "mpec.assemble_mpec": _nnz,
    "mps_io.export_mps": _file_bytes,
    "oracle.grid_oracle": lambda args, out: len(out.records),
}


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self, spans=()):
        self.spans: list = list(spans)
        self.op = None
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, fn, name, site):
        spans, stack, note = self.spans, self._stack, _NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, site, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, out)
            return out

        return traced

    def __enter__(self):
        mods = {m: importlib.import_module(f"storageshare.{m}") for m in MODULES}
        targets = {}  # id(function) -> (function, span name)
        for mname, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    targets[id(fn)] = (fn, f"{mname}.{attr}")
        for site, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    fn, name = targets[id(obj)]
                    self._patch(mod, attr, self._wrap(fn, name, site))
        simplex_cls = mods["simplex"].Simplex
        for meth in ("solve", "resolve"):
            fn = vars(simplex_cls)[meth]
            self._patch(simplex_cls, meth, self._wrap(fn, f"simplex.Simplex.{meth}", "simplex"))
        return self

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced pass, from its spans alone."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    def pick(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def total(idx, times=dur):
        return float(sum(times[i] for i in idx))

    def notes(idx):  # a call that raised has no note
        return [spans[i][NOTE] for i in idx if spans[i][NOTE] is not None]

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else ""

    def top(layer):  # spans of a layer not nested in a span of the same layer
        return [i for i, s in enumerate(spans) if s[NAME].startswith(layer)
                and not parent_name(i).startswith(layer)]

    cold = pick("simplex.Simplex.solve")
    warm = pick("simplex.Simplex.resolve")
    restarts = [i for i in cold if parent_name(i) == "simplex.Simplex.resolve"]
    # a restart's iterations are already in the resolve span that returned them
    iters = sum(notes(warm)) + sum(notes(set(cold) - set(restarts)))
    simplex_s = total(cold) + total(warm, self_t)
    trees = pick(*TREES)
    tree_notes = notes(trees)
    nodes = sum(n[0] for n in tree_notes)
    gaps = [n[2] for n in tree_notes if n[3] == "limit"]
    side = [i for i in pick("simplex.solve_lp_engine") if spans[i][SITE] == "solver"]
    builds = pick("lp.build_llm_c", "lp.build_llm_d", "lp.make_lp")
    exports = pick("mps_io.export_mps")
    export_bytes = sum(notes(exports))
    export_s = total(exports)

    out = {
        "simplex.cold_calls": len(cold),
        "simplex.cold_s": total(cold),
        "simplex.warm_calls": len(warm),
        "simplex.warm_s": total(warm, self_t),
        "simplex.warm_restarts": len(restarts),
        "simplex.iters": iters,
        "simplex.iters_per_s": iters / simplex_s if simplex_s > 0 else 0.0,
        "solver.nodes": nodes,
        "solver.tree_self_s": total(trees, self_t),
        "solver.side_lps": len(side),
        "solver.side_lp_s": total(side),
        "solver.extract_s": total(pick("solver.extract_solution")),
        "solver.iters_per_node": sum(n[1] for n in tree_notes) / nodes if nodes else 0.0,
        "solver.nodes_per_s": nodes / total(trees) if trees else 0.0,
        "solver.gap_at_budget": sum(gaps) / len(gaps) if gaps else 0.0,
        "lp.build_calls": len(builds),
        "lp.build_s": total(builds),
        "lp.evaluate_calls": len(pick("lp.evaluate")),
        "lp.evaluate_s": total(pick("lp.evaluate")),
        "mpec.assemble_s": total(pick("mpec.assemble_mpec")),
        "mpec.linearize_s": total(pick("mpec.linearize_big_m")),
        "mpec.validate_s": total(pick("mpec.validate_big_m")),
        "mpec.escalations": sum(notes(pick("scenarios.solve_division"))),
        "mpec.nnz": sum(notes(pick("mpec.assemble_mpec"))),
        "mps_io.export_s": export_s,
        "mps_io.export_mb_per_s": export_bytes / 1e6 / export_s if export_s > 0 else 0.0,
        "mps_io.read_s": total(pick("mps_io.read_mps")),
        "mps_io.bytes": export_bytes,
        "oracle.grid_s": total(pick("oracle.grid_oracle")),
        "oracle.grid_points": sum(notes(pick("oracle.grid_oracle"))),
        "oracle.resolve_calls": len(pick("oracle.optimistic_resolve")),
        "oracle.resolve_s": total(pick("oracle.optimistic_resolve")),
        "scenarios.run_s": total(pick("scenarios.run_scenario")),
        "scenarios.report_io_s": total(pick("scenarios.emit_report", "scenarios.read_report")),
        "dataio.load_s": total(top("dataio.")),
        "synthetic.gen_s": total(top("synthetic.")),
        "trace.spans": len(spans),
    }
    mains = pick("cli.main")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub.replace('-', '_')}_s"] = total(
            [i for i in mains if spans[i][OP] == sub])
    return out


CLI_SUBCOMMANDS = ("gen-data", "solve", "oracle", "scenario", "report")

# Counters that must repeat exactly between two traced passes of the same work.
DETERMINISTIC = ("solver.nodes", "simplex.iters", "solver.side_lps", "mps_io.bytes",
                 "solver.gap_at_budget", "mpec.nnz", "oracle.grid_points")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, as BENCHMARK.json lists it."""
    special = {"mps_io.export_mb_per_s": "MB/s", "solver.gap_at_budget": "ratio",
               "solver.iters_per_node": "iter/node", "mps_io.bytes": "B",
               "run.slowdown": "ratio"}
    if name in special:
        return special[name]
    if name.endswith("per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"
