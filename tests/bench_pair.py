"""Run the benchmark on a parent and a change checkout, seed by seed, and
summarize the pairs.

    python -m tests.bench_pair --parent P --change C --seeds 1-10 --out BENCH_<pr>.json \
        --parent-label <commit> --claim "No gain claimed."
    python -m tests.bench_pair --summary BENCH_<pr>.json

The first form runs, for every seed and workload, `perfbench/run.py
--workload W --seed N --seconds S --trace T` once in each checkout (the
command and run_seconds S of the change's BENCHMARK.json), the parent
first on odd seeds and the change first on even ones. The runs are made
in the two directories as given; how those were made (a clean copy of
each commit, say) belongs in --parent-label. It keeps each run's final
JSON line and writes the file after every run, in the shape of the
committed BENCH_<pr>.json files: command, protocol, claim, env and runs,
a run being {side, workload, seed, trace, seconds, result}. With --append the
runs are added to those of an existing file (a held-out seed, a traced
pair), and its command, protocol, claim and env are kept unless given.

Both forms then print, for each workload, trace setting and metric, the
parent's and the change's median and quartiles (statistics.quantiles,
n=4), the change in percent, and the pairs the change won and lost: a
pair is the two sides' runs of one seed, workload and trace in the order
they were made, won when the change is better in the metric's direction
in BENCHMARK.json (lower unless it says higher); a tie counts for
neither side. "clear" marks a metric whose medians differ by more than
the parent's interquartile distance. A last line per workload and
trace setting sums each side's failed operations; both forms exit 1
when the change has more than the parent (or, when running, when any
run is not correct).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from tests.tree_sweep import parse_seeds

SIDES = ("parent", "change")


def first_side(seed: int) -> tuple:
    """The order of a seed's two runs: the parent first on odd seeds."""
    return SIDES if seed % 2 else SIDES[::-1]


def run_one(checkout: str, command: list, workload: str, seed: int, seconds: float,
            trace: int):
    """One benchmark run in checkout: (environment, result). The result is
    the run's final JSON line, or {"correct": False, "error": ...} when it
    printed none."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    if lines and lines[-1].startswith("{"):
        return env, json.loads(lines[-1])
    return env, {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}


def pairs(runs: list) -> dict:
    """{(workload, trace, metric): [(parent value, change value), ...]}: the
    runs of one seed, workload and trace paired in the order they were made,
    in seed order."""
    by_key: dict = {}
    for run in runs:
        key = (run["workload"], run["trace"], run["seed"])
        by_key.setdefault(key, {s: [] for s in SIDES})[run["side"]].append(run["result"])
    out: dict = {}
    for (workload, trace, _), sides in sorted(by_key.items()):
        for parent, change in zip(sides["parent"], sides["change"]):
            for metric, entry in parent.get("metrics", {}).items():
                if metric in change.get("metrics", {}):
                    out.setdefault((workload, trace, metric), []).append(
                        (entry["value"], change["metrics"][metric]["value"]))
    return out


def _stats(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list, higher_is_better=frozenset()) -> dict:
    """Per (workload, trace, metric): each side's median and quartiles, the
    change in percent, the pairs the change won, lost and tied, and
    whether the medians differ by more than the parent's interquartile
    distance."""
    summary = {}
    for key, values in pairs(runs).items():
        parent, change = (_stats(list(side)) for side in zip(*values))
        sign = -1.0 if key[2] in higher_is_better else 1.0
        won = sum(sign * (c - p) < 0 for p, c in values)
        lost = sum(sign * (c - p) > 0 for p, c in values)
        summary[key] = {
            "parent": parent, "change": change, "pairs": len(values), "won": won,
            "lost": lost, "tied": len(values) - won - lost,
            "percent": (100.0 * (change["median"] / parent["median"] - 1.0)
                        if parent["median"] else 0.0),
            "clear": abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return summary


def format_summary(summary: dict) -> list:
    """One line per (workload, trace, metric) of a summary."""
    def stats(s):
        return f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"

    return [f"{wl:13s} trace {trace} {metric:24s} {stats(s['parent'])} -> {stats(s['change'])}"
            f" ({s['percent']:+.1f}%) change won {s['won']}/{s['pairs']}, lost {s['lost']},"
            f" tied {s['tied']}{'  clear' if s['clear'] else ''}"
            for (wl, trace, metric), s in summary.items()]


def failures(runs: list) -> dict:
    """{(workload, trace): {side: the failed operations its runs report}}."""
    out: dict = {}
    for run in runs:
        sides = out.setdefault((run["workload"], run["trace"]), dict.fromkeys(SIDES, 0))
        sides[run["side"]] += run["result"].get("failed", 0)
    return out


def format_failures(failed: dict) -> list:
    """One line per (workload, trace) of failures(), marked where the
    change failed more operations than the parent."""
    return [f"{wl:13s} trace {trace} failed operations       parent {n['parent']} -> change"
            f" {n['change']}{'  MORE' if n['change'] > n['parent'] else ''}"
            for (wl, trace), n in sorted(failed.items())]


def report(runs: list, higher_is_better=frozenset()) -> bool:
    """Print the summary and failure lines of runs; whether the change
    failed no more operations than the parent on every workload."""
    failed = failures(runs)
    print("\n".join(format_summary(summarize(runs, higher_is_better)) + format_failures(failed)))
    return all(n["change"] <= n["parent"] for n in failed.values())


def _benchmark(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _higher_is_better(bench: dict) -> frozenset:
    return frozenset(m["name"] for group in ("end_to_end", "per_layer")
                     for m in bench.get(group, ()) if m.get("better") == "higher")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summary", metavar="FILE", help="only summarize FILE")
    parser.add_argument("--parent", help="the parent's checkout")
    parser.add_argument("--change", help="the change's checkout")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="the BENCH_<pr>.json to write")
    parser.add_argument("--append", action="store_true", help="add to the runs in --out")
    parser.add_argument("--parent-label", default="the parent commit")
    parser.add_argument("--claim", help="the claim the runs back, as it is to read")
    args = parser.parse_args(argv)

    if args.summary:
        with open(args.summary) as fh:
            doc = json.load(fh)
        bench = _benchmark(os.getcwd()) if os.path.isfile("BENCHMARK.json") else {}
        return 0 if report(doc["runs"], _higher_is_better(bench)) else 1
    if not (args.parent and args.change and args.out):
        parser.error("--parent, --change and --out are needed to run")

    bench = _benchmark(args.change)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    doc = {"command": " ".join(bench["command"]) + " --workload W --seed N --seconds S --trace T",
           "protocol": f"parent ({args.parent_label}) and change (the source tree of this "
                       "change) run in alternating order per seed, parent first on odd seeds; "
                       "each entry is the final JSON line of one run",
           "claim": args.claim or "", "env": {}, "runs": []}
    if args.append and os.path.isfile(args.out):
        with open(args.out) as fh:
            old = json.load(fh)
        doc = {**old, **({"claim": args.claim} if args.claim else {})}
    checkouts = {"parent": args.parent, "change": args.change}
    incorrect = 0
    for seed in args.seeds:
        for workload in workloads:
            for side in first_side(seed):
                env, result = run_one(checkouts[side], bench["command"], workload, seed,
                                      seconds, args.trace)
                doc["env"] = doc["env"] or env
                incorrect += not result.get("correct")
                doc["runs"].append({"side": side, "workload": workload, "seed": seed,
                                    "trace": args.trace, "seconds": seconds, "result": result})
                values = ({k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
                          if args.trace == 0 else {})  # a traced run has dozens
                print(f"seed {seed} {workload} {side}: correct {result.get('correct')} {values}",
                      flush=True)
                with open(args.out, "w") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
    no_more_failed = report(doc["runs"], _higher_is_better(bench))
    return 0 if no_more_failed and not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
