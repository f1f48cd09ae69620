"""The README command-line flow, run end to end and compared between trees.

    PYTHONPATH=src python -m tests.readme_flow --out DIR
    python -m tests.readme_flow --compare A B

The first form runs, once with `mode = lpcc` and once with `mode = bigm`
in the config (in DIR/lpcc and DIR/bigm), the README's flow of
`storageshare` commands at README size: gen-data (and a second day's
gen-data), solve, oracle, scenario, report, a two-day cycle and build.
Each command runs as `python -m storageshare.cli` in its own process,
inside the mode's directory and with relative paths, so no file or output
names DIR; the BLAS thread count is pinned to 1. Next to the files the
commands write, each command's stdout, stderr and exit code are kept as
NAME.stdout, NAME.stderr and NAME.exit. It exits 1 when any command exits
non-zero.

The second form compares two such directories file by file, byte for
byte, prints every file that differs or is in one directory only, and
exits 1 on any difference, else 0. Two runs of the same tree compare
equal; a change that keeps every answer, message and file compares equal
to its parent.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys

MODES = ("lpcc", "bigm")
CONFIG = "slot_hours = 4.0\ntotal_capacity = 0.4\nmode = {mode}\n"
INPUTS = ("--loads", "loads.csv", "--prices", "prices.csv", "--config", "run.cfg")
GEN = ("gen-data", "--profile", "duck", "--price-shape", "conflicting",
       "--customers", "2", "--slots", "6")
STEPS = (
    ("gen-data", (*GEN, "--seed", "5", "--loads", "loads.csv", "--prices", "prices.csv")),
    ("gen-data-day2", (*GEN, "--seed", "6", "--loads", "loads2.csv", "--prices", "prices2.csv")),
    ("solve", ("solve", *INPUTS)),
    ("oracle", ("oracle", *INPUTS)),
    ("scenario", ("scenario", *INPUTS, "--out", "report/")),
    ("report", ("report", "--dir", "report/")),
    ("cycle", ("cycle", "--config", "run.cfg", "--day", "loads.csv", "prices.csv",
               "--day", "loads2.csv", "prices2.csv", "--out", "cyc/")),
    ("build", ("build", *INPUTS, "--out", "model.mps")),
)


def _env() -> dict:
    """The environment of each command: the storageshare this process would
    import, by absolute path, and one BLAS thread."""
    spec = importlib.util.find_spec("storageshare")
    if spec is None or spec.origin is None:
        sys.exit("storageshare is not importable: run with PYTHONPATH=src")
    src = os.path.dirname(os.path.dirname(os.path.abspath(spec.origin)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run(out: str) -> int:
    """Run the flow in both modes under out; returns the number of commands
    that exited non-zero."""
    env = _env()
    failed = 0
    for mode in MODES:
        where = os.path.join(out, mode)
        os.makedirs(where, exist_ok=True)
        with open(os.path.join(where, "run.cfg"), "w") as fh:
            fh.write(CONFIG.format(mode=mode))
        for name, argv in STEPS:
            proc = subprocess.run([sys.executable, "-m", "storageshare.cli", *argv],
                                  cwd=where, env=env, capture_output=True)
            for suffix, data in (("stdout", proc.stdout), ("stderr", proc.stderr),
                                 ("exit", b"%d\n" % proc.returncode)):
                with open(os.path.join(where, f"{name}.{suffix}"), "wb") as fh:
                    fh.write(data)
            print(f"{mode}/{name}: exit {proc.returncode}", flush=True)
            failed += proc.returncode != 0
    return failed


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def compare(a: str, b: str) -> int:
    """Print every file of a and b that differs or is in one only; returns
    their number."""
    fa, fb = _files(a), _files(b)
    differ = 0
    for rel in sorted(fa | fb):
        if rel not in fb or rel not in fa:
            print(f"only in {'A' if rel in fa else 'B'}: {rel}")
            differ += 1
            continue
        with open(os.path.join(a, rel), "rb") as ha, open(os.path.join(b, rel), "rb") as hb:
            if ha.read() != hb.read():
                print(f"differs: {rel}")
                differ += 1
    print(f"{len(fa | fb)} files, {differ} differ (A={a}, B={b})")
    return differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.readme_flow", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if not args.out:
        ap.error("--out is required unless --compare is given")
    if os.path.isdir(args.out) and os.listdir(args.out):
        ap.error(f"--out {args.out} is not empty")  # a stale file would compare
    return 1 if run(args.out) else 0


if __name__ == "__main__":
    sys.exit(main())
