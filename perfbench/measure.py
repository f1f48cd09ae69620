"""Timing of operations, rescaled to a reference machine speed.

On a shared host the same code runs up to ~70 % slower when neighbours
are busy, and the slowdown changes within seconds and drifts over
minutes, so raw wall times of two runs are not comparable. While a timed
block runs, an interval timer therefore interrupts it every
PROBE_INTERVAL_S and times a short probe of the benchmark's own (a pure
Python loop and small numpy inverses, the same mix of work as the
program). The block is charged its wall time minus the probes, divided by
the machine's slowdown: the mean probe time over PROBE_REFERENCE_S, the
probe's time on the reference machine. The probe calls no code of the
program, so a change to the program moves the rescaled time as it moves
the raw one. Probes cost about 2 % of the block's time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PROBE_INTERVAL_S = 0.25
# Probe time on the reference machine: a 2-core Intel Xeon VM under light
# load, Python 3.11, numpy 2.4 on OpenBLAS with one thread.
PROBE_REFERENCE_S = 0.004
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((60, 60)) + 60.0 * np.eye(60)


def probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    for _ in range(20):
        np.linalg.inv(_PROBE_MATRIX)
    return time.perf_counter() - t0


def slowdown(probes) -> float:
    """Mean probe time over the reference: 1.0 on the reference machine."""
    return sum(probes) / len(probes) / PROBE_REFERENCE_S


class Clock:
    """Program seconds of a sequence of timed blocks, and the machine's slowdown."""

    def __init__(self):
        self.raw = 0.0  # wall seconds of the blocks, probes excluded
        self.probes = [probe()]

    def time(self, fn):
        """Run fn as a timed block; returns (result, exception)."""
        probes = self.probes
        first = len(probes)
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # the caller records it as a failed operation
            out, err = None, exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            elapsed = time.perf_counter() - t0  # after any probe still pending
            signal.signal(signal.SIGALRM, previous)
        self.raw += elapsed - sum(probes[first:])
        return out, err

    @property
    def slowdown(self) -> float:
        return slowdown(self.probes)

    @property
    def scaled(self) -> float:
        """Seconds the blocks would have taken on the reference machine."""
        return self.raw / self.slowdown


class Pass:
    """The timed operations of one pass and what each left behind."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records: dict = {}
        self.clock = Clock()

    def op(self, label, fn, keep=None):
        """Run one operation; record keep(result), or the exception it raised."""
        if self.tracer is not None:
            self.tracer.op = label
        out, err = self.clock.time(fn)
        if err is not None:
            self.records[label] = err
            return None
        self.records[label] = out if keep is None else keep(out)
        return out
