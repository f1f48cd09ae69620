"""Held-out sweep of both division trees over generated division fixtures.

    PYTHONPATH=src python -m tests.tree_sweep --seeds 260-299 --node-limit 4000 --out FILE
    python -m tests.tree_sweep --compare A B

The first form solves tests.conftest.division_fixture(seed) for every seed,
free and with the whole battery given to the customers (scenario "free"
or "customers-only"), with solve_lpcc and with the bigm path of
scenarios.solve_division (the path floor and validation included), and
writes one JSON line per (seed, mode, scenario) with the status, nodes, LP
iterations, the root LP's iterations, the pivots and the pieces of the
parties' capacity paths (family iterations and path pieces), big-M
escalations (the pairs whose multiplier bound the path floor lifted), the
fallbacks the solve took (family_start, root_start,
cold_restart, reread, unbranchable), the tree engine's warm starts
(warm_hits, warm_rebuilds, cold_restarts), objective, best bound and
seconds, the answer's worst lower-level excess,
plus, on a free record, the seed's grid_oracle objective at step C/20
and the seconds the grid took (grid_seconds).
The excess is c_p.x_p - phi_p(s_p) of the party where it is largest
relative to 1 + |phi_p(s_p)| (ll_excess, with that phi as ll_phi). The
second form reads two such files, matches their records by seed, mode
and scenario (a record with no scenario, from an older file, is free),
and prints, per mode and scenario, the summed seconds and nodes of each
(and the summed grid seconds, family iterations, path pieces and warm
hits/rebuilds/cold restarts, each when both files record it for every
solve of the group) and every seed where both solves
are optimal and the objectives differ by more than 1e-6 relative; then
the (seed, mode, scenario) solves whose nodes, LP iterations or family
iterations differ (of the counters both files record), those whose warm
hits, rebuilds or cold restarts differ (likewise), those whose
escalation counts differ, those whose fallbacks differ (of the solves
both files record fallbacks for), and those of equal status whose best
bounds differ by more than 1e-12 relative (of the solves both files
record bounds for), and the seeds whose grid objectives
differ by more than 1e-12 relative; then, per file, the seeds where the
grid lies more than 1e-9 relative below an optimal free lpcc objective,
which no correct grid can, and the (seed, mode, scenario) answers whose
excess is above 1e-9 (1 + |phi|), whose dispatch is then not optimal.
It exits 1 when it prints any of these correctness failures (a differing
objective, a grid below lpcc or an excess answer), else 0.
Run both sides of a comparison on the same machine, one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

MODES = ("lpcc", "bigm")
SCENARIOS = ("free", "customers-only")
OBJ_TOL = 1e-6
GRID_TOL = 1e-9
GRID_SAME_TOL = 1e-12
BOUND_SAME_TOL = 1e-12
LL_TOL = 1e-9
COUNTERS = ("nodes", "iterations", "family_iterations")
WARM = ("warm_hits", "warm_rebuilds", "cold_restarts")


def parse_seeds(text: str) -> list[int]:
    """'260-299' or '1,3,5-7' -> the listed seeds, in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def solve_one(seed: int, mode: str, scenario: str, node_limit: int) -> dict:
    from storageshare.mpec import assemble_mpec
    from storageshare.scenarios import _pin_customers_only, solve_division
    from storageshare.solver import SolveOptions

    from tests.conftest import division_fixture, lower_level_excess

    model = assemble_mpec(division_fixture(seed))
    if scenario == "customers-only":
        model = _pin_customers_only(model)
    t0 = time.perf_counter()
    res, escalations, _ = solve_division(model, SolveOptions(node_limit=node_limit), mode)
    seconds = time.perf_counter() - t0
    rec = {"seed": seed, "mode": mode, "scenario": scenario, "status": res.status,
           "nodes": res.node_count, "iterations": res.iterations,
           "root_iterations": res.root_iterations,
           "family_iterations": res.family_iterations, "path_pieces": res.path_pieces,
           "escalations": escalations, "fallbacks": list(res.fallbacks),
           **{key: getattr(res, key) for key in WARM},
           "objective": float(res.objective), "best_bound": float(res.best_bound),
           "seconds": round(seconds, 4)}
    if res.x is not None:
        _, excess, phi = max(lower_level_excess(model, res.x),
                             key=lambda e: e[1] / (1.0 + abs(e[2])))
        rec.update(ll_excess=excess, ll_phi=phi)
    return rec


def grid_objective(seed: int) -> float:
    from storageshare.oracle import grid_oracle

    from tests.conftest import division_fixture

    inst = division_fixture(seed)
    return grid_oracle(inst, step=inst.storage.total_capacity / 20.0).best_objective


def sweep(seeds, node_limit: int, out: str):
    with open(out, "w") as fh:
        for seed in seeds:
            t0 = time.perf_counter()
            grid = grid_objective(seed)
            grid_seconds = round(time.perf_counter() - t0, 4)
            for scenario in SCENARIOS:
                for mode in MODES:
                    rec = solve_one(seed, mode, scenario, node_limit)
                    if scenario == "free":  # the grid searches the free division only
                        rec.update(grid=grid, grid_seconds=grid_seconds)
                    line = json.dumps(rec)
                    fh.write(line + "\n")
                    fh.flush()
                    print(line, flush=True)


def _load(path: str) -> dict:
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {(r["seed"], r["mode"], r.get("scenario", "free")): r for r in records}


def _label(key) -> str:
    return "/".join(map(str, key))


def _same(x: float, y: float, tol: float) -> bool:
    """x and y within tol relative (equal infinities included)."""
    return x == y or abs(x - y) <= tol * max(1.0, abs(x))


def grid_below(records: dict) -> list[int]:
    """Seeds whose grid objective lies below their optimal free lpcc one."""
    return [seed for (seed, mode, _), r in sorted(records.items())
            if mode == "lpcc" and r["status"] == "optimal" and "grid" in r
            and r["grid"] < r["objective"] - GRID_TOL * max(1.0, abs(r["objective"]))]


def lower_level_above(records: dict) -> list[tuple[int, str]]:
    """(seed, mode, scenario) of the answers whose worst lower-level excess is above
    LL_TOL (1 + |phi|)."""
    return [key for key, r in sorted(records.items())
            if "ll_excess" in r and r["ll_excess"] > LL_TOL * (1.0 + abs(r["ll_phi"]))]


def compare(path_a: str, path_b: str) -> int:
    """Print the comparison; returns the number of correctness failures it
    printed: differing objectives, and in either file the seeds whose grid
    lies below lpcc and the answers whose lower-level excess is too high."""
    a, b = _load(path_a), _load(path_b)
    both = sorted(set(a) & set(b))
    print(f"{len(both)} solves in both files (A={path_a}, B={path_b})")
    differ = 0
    for group in ((mode, scenario) for scenario in SCENARIOS for mode in MODES):
        keys = [k for k in both if k[1:] == group]
        if not keys:
            continue
        ta, tb = (sum(side[k]["seconds"] for k in keys) for side in (a, b))
        na, nb = (sum(side[k]["nodes"] for k in keys) for side in (a, b))
        line = (f"{_label(group)}: {len(keys)} seeds, seconds {ta:.2f} -> {tb:.2f}"
                f" ({(tb - ta) / ta if ta else 0.0:+.1%}), nodes {na} -> {nb}")
        if all("grid_seconds" in side[k] for side in (a, b) for k in keys):
            ga, gb = (sum(side[k]["grid_seconds"] for k in keys) for side in (a, b))
            line += f", grid seconds {ga:.2f} -> {gb:.2f}"
        for key in ("family_iterations", "path_pieces"):
            if all(key in side[k] for side in (a, b) for k in keys):
                ca, cb = (sum(side[k][key] for k in keys) for side in (a, b))
                line += f", {key.replace('_', ' ')} {ca} -> {cb}"
        if all(key in side[k] for side in (a, b) for k in keys for key in WARM):
            wa, wb = ("/".join(str(sum(side[k][key] for k in keys)) for key in WARM)
                      for side in (a, b))
            line += f", warm hits/rebuilds/cold restarts {wa} -> {wb}"
        print(line)
        for k in keys:
            ra, rb = a[k], b[k]
            if ra["status"] != rb["status"]:
                print(f"  seed {k[0]}: status {ra['status']} -> {rb['status']}")
            if ra["status"] == rb["status"] == "optimal":
                fa, fb = ra["objective"], rb["objective"]
                if abs(fa - fb) > OBJ_TOL * max(1.0, abs(fa)):
                    differ += 1
                    print(f"  seed {k[0]}: objective {fa!r} -> {fb!r}")
    print(f"{differ} objectives differ at {OBJ_TOL:g}")
    recount = [_label(key) for key in both
               if any(k in a[key] and k in b[key] and a[key][k] != b[key][k] for k in COUNTERS)]
    print(f"nodes, iterations or family iterations differ: "
          f"{', '.join(recount) if recount else 'none'}")
    rewarm = [_label(key) for key in both
              if any(k in a[key] and k in b[key] and a[key][k] != b[key][k] for k in WARM)]
    print(f"warm hits, rebuilds or cold restarts differ: "
          f"{', '.join(rewarm) if rewarm else 'none'}")
    escalated = [_label(key) for key in both
                 if a[key].get("escalations") != b[key].get("escalations")]
    print(f"escalations differ: {', '.join(escalated) if escalated else 'none'}")
    fell = [_label(key) for key in both
            if "fallbacks" in a[key] and "fallbacks" in b[key]
            and a[key]["fallbacks"] != b[key]["fallbacks"]]
    print(f"fallbacks differ: {', '.join(fell) if fell else 'none'}")
    rebound = [_label(key) for key in both
               if "best_bound" in a[key] and "best_bound" in b[key]
               and a[key]["status"] == b[key]["status"]
               and not _same(a[key]["best_bound"], b[key]["best_bound"], BOUND_SAME_TOL)]
    print(f"best bounds differ at {BOUND_SAME_TOL:g}: {', '.join(rebound) if rebound else 'none'}")
    regrid = sorted({key[0] for key in both
                     if "grid" in a[key] and "grid" in b[key]
                     and not _same(a[key]["grid"], b[key]["grid"], GRID_SAME_TOL)})
    print(f"grid differs at {GRID_SAME_TOL:g}: {', '.join(map(str, regrid)) if regrid else 'none'}")
    failures = differ
    for side, records in (("A", a), ("B", b)):
        seeds = grid_below(records)
        print(f"grid below lpcc at {GRID_TOL:g} in {side}: "
              f"{', '.join(map(str, seeds)) if seeds else 'none'}")
        above = [_label(key) for key in lower_level_above(records)]
        print(f"lower-level excess above {LL_TOL:g} in {side}: "
              f"{', '.join(above) if above else 'none'}")
        failures += len(seeds) + len(above)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.tree_sweep", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="260-299")
    ap.add_argument("--node-limit", type=int, default=4000)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if not args.out:
        ap.error("--out is required unless --compare is given")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: node counts depend on it
    sweep(parse_seeds(args.seeds), args.node_limit, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
