"""Benchmark entry point.

    python3 perfbench/run.py --workload small-days --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory and nowhere else. BLAS threads are pinned to 1 before numpy
loads. Set-up (a cold interpreter import of the package in a child
process, plus input generation and model assembly) is repeated and its
median reported as setup_s. The measured section then runs passes over
the workload's operations while another pass fits in --seconds (at least
one), checks every pass against the correctness gates, and compares the
deterministic counters of every pass with the first.

Times are reported at the reference machine speed (see measure.py); the
raw wall times are printed and kept in the report file.

--trace 0 reports the end-to-end metrics (wall_ref_s is the median pass).
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with trace.overhead_s the median
traced pass minus the median untraced pass.

The last line of standard output is the JSON result. A fuller report,
and in traced runs the spans, go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from measure import Clock, Pass, slowdown  # noqa: E402
from tracing import DETERMINISTIC, Tracer, layer_metrics, unit_of  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
COLD_IMPORT = f"import sys; sys.path.insert(0, {SRC!r}); import storageshare.cli"


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "storageshare", "__init__.py")):
        sys.exit(f"no package source under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import storageshare

    if not os.path.abspath(storageshare.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported storageshare from {storageshare.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure_setup(wl, seed, workdir):
    """SETUP_REPEATS cold imports plus input builds; returns (their clocks, last state)."""
    def once():
        subprocess.run([sys.executable, "-c", COLD_IMPORT], check=True)
        return wl.setup(seed, workdir)

    clocks = []
    for _ in range(SETUP_REPEATS):
        clocks.append(Clock())
        state, err = clocks[-1].time(once)
        if err is not None:
            raise err
    return clocks, state


class Run:
    """Passes, attempted/failed tallies and determinism checks of one run."""

    def __init__(self, wl, state):
        self.wl, self.state = wl, state
        self.attempted = self.failed = 0
        self.errors: list = []
        self.first_print = None
        self.first_layers = None

    def one_pass(self, tracer=None):
        p = Pass(tracer)
        if tracer is None:
            self.wl.run_pass(self.state, p)
        else:
            with tracer:
                self.wl.run_pass(self.state, p)
        self.attempted += len(p.records)
        for why in self.wl.check(self.state, p.records):
            self._fail(why)
        fp = self.wl.fingerprint(p.records)
        if self.first_print is None:
            self.first_print = fp
        else:
            self._same("pass counters", fp, self.first_print)
        return p.clock

    def layers(self, metrics):
        counters = {k: metrics[k] for k in DETERMINISTIC}
        if self.first_layers is None:
            self.first_layers = counters
        else:
            self._same("traced counters", counters, self.first_layers)

    def _fail(self, why):
        self.failed += 1
        self.errors.append(why)

    def _same(self, what, now, first):
        self.attempted += 1
        if now != first:
            diff = sorted(k for k in set(now) | set(first) if now.get(k) != first.get(k))
            self._fail(f"determinism: {what} differ between passes: {diff}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env), flush=True)

    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
        setup_clocks, state = measure_setup(wl, args.seed, workdir)
        setup_spans = ()
        if args.trace:
            with Tracer() as tracer:
                tracer.op = "setup"
                wl.setup(args.seed, workdir)
            setup_spans = tracer.spans

        run = Run(wl, state)
        kinds = ("plain", "traced") if args.trace else ("plain",)
        clocks = {k: [] for k in kinds}
        layers, tracer = [], None
        deadline = time.perf_counter() + args.seconds
        while True:
            t_round = time.perf_counter()
            for kind in kinds:
                tracer = Tracer(setup_spans) if kind == "traced" else None
                clock = run.one_pass(tracer)
                clocks[kind].append(clock)
                print(f"pass {len(clocks[kind])} {kind}: {clock.raw:.3f} s raw, "
                      f"{clock.scaled:.3f} s at reference speed "
                      f"(slowdown {clock.slowdown:.2f})", flush=True)
                if tracer is not None:
                    layers.append(layer_metrics(tracer.spans))
                    run.layers(layers[-1])
            if time.perf_counter() + (time.perf_counter() - t_round) > deadline:
                break
        if tracer is not None:
            tracer.write(f"{stem}-spans.jsonl")

    def median_of(kind, attr):
        return statistics.median(getattr(c, attr) for c in clocks[kind])

    # A set-up is too short for enough probes of its own: rescale it by the
    # slowdown over the whole run.
    setup_raw = statistics.median(c.raw for c in setup_clocks)
    setup_s = setup_raw / slowdown([t for c in setup_clocks + clocks["plain"] for t in c.probes])
    print(f"setup {setup_raw:.3f} s raw, {setup_s:.3f} s at reference speed", flush=True)

    if args.trace:
        metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = (median_of("traced", "scaled")
                                       - median_of("plain", "scaled"))
        metrics["run.raw_wall_s"] = median_of("plain", "raw")
        metrics["run.slowdown"] = median_of("plain", "slowdown")
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics = {
            "wall_ref_s": median_of("plain", "scaled"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for why in run.errors:
        print(f"FAILED {why}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env,
                   "setup": [vars(c) for c in setup_clocks],
                   "passes": {k: [vars(c) for c in v] for k, v in clocks.items()},
                   "counters": repr(run.first_print), "errors": run.errors,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
