"""One pass of each benchmark workload (perfbench/workloads.py) on seed 1.

The workloads call the package the way the benchmark does: solve_lpcc,
the cli's `mode = lpcc`, solve_division's four-argument tuple, read_mps's
summary fields, and the cli-day workload's own re-reads of
reductions.csv and summary.txt. The pass runs traced, as the benchmark's
traced passes do, so the layer figures read off the spans (solve_division's
escalations among them) are computed too. A change that breaks one of
those calls fails here, not only in a benchmark run.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.mark.parametrize("name", ["small-days", "long-days", "fleet-export", "cli-day"])
def test_one_pass_of_each_workload_runs_and_passes_its_checks(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(PERFBENCH)
    measure, tracing, workloads = (importlib.import_module(m)
                                   for m in ("measure", "tracing", "workloads"))
    work = workloads.WORKLOADS[name]
    state = work.setup(1, str(tmp_path))
    with tracing.Tracer() as tracer:
        p = measure.Pass(tracer)
        work.run_pass(state, p)
    failed = {label: repr(rec) for label, rec in p.records.items() if isinstance(rec, Exception)}
    assert p.records and failed == {}
    assert work.check(state, p.records) == []
    assert tracing.layer_metrics(tracer.spans)["trace.spans"] == len(tracer.spans)
