"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads small-days cli-day --seeds 1-10 --trace 0

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. The spread of setup_s is reported but not held against
its bound: set-up time is compared by its median only. A metric whose
spread exceeds a third of its bound is flagged; the exit code is 1 if any
run failed or any spread exceeds its bound. Results go to
.perfbench-out/spread-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    summary, ok = {}, True
    for wl in workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
            print(f"{wl} seed {seed}: {values}", flush=True)
        summary[wl] = {}
        for name in runs[0].get("metrics", {}):
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "values": values}
            bound = bounds.get(name)
            if bound is not None:
                flag = "" if name == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
                ok = ok and (name == "setup_s" or spread <= bound)
                print(f"  {wl:13s} {name:12s} median {med:10.4f}  spread {spread:6.3f}"
                      f"  bound {bound}{flag}")
    out = os.path.join(ROOT, ".perfbench-out", f"spread-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
