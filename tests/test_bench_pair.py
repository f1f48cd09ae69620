import json
import sys

import pytest

from tests import bench_pair


def _line(wall, rss=40.0, failed=0):
    # a final line as perfbench/run.py prints it
    return json.dumps({"correct": True, "attempted": 3, "failed": failed, "metrics": {
        "wall_ref_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def _runs(lines, workload="fleet-export", trace=0):
    """Runs from (seed, side, final line) in the order they were made."""
    return [{"side": side, "workload": workload, "seed": seed, "trace": trace, "seconds": 20,
             "result": json.loads(line)} for seed, side, line in lines]


def test_the_parent_runs_first_on_odd_seeds():
    assert bench_pair.first_side(1) == ("parent", "change")
    assert bench_pair.first_side(2) == ("change", "parent")


def test_summary_of_canned_lines():
    runs = _runs([(1, "parent", _line(1.0)), (1, "change", _line(0.9)),
                  (2, "change", _line(1.2)), (2, "parent", _line(1.2)),  # a tie
                  (3, "parent", _line(1.1)), (3, "change", _line(1.0)),
                  (4, "change", _line(1.4, rss=41.0)), (4, "parent", _line(1.3))])
    summary = bench_pair.summarize(runs)
    wall = summary[("fleet-export", 0, "wall_ref_s")]
    assert wall["parent"] == pytest.approx({"median": 1.15, "q1": 1.025, "q3": 1.275})
    assert wall["change"] == pytest.approx({"median": 1.1, "q1": 0.925, "q3": 1.35})
    assert (wall["pairs"], wall["won"], wall["lost"], wall["tied"]) == (4, 2, 1, 1)
    assert wall["percent"] == pytest.approx(100 * (1.1 / 1.15 - 1))
    assert not wall["clear"]  # 0.05 apart, the parent's quartiles 0.25 apart
    rss = summary[("fleet-export", 0, "peak_rss_mb")]
    assert (rss["won"], rss["lost"], rss["tied"]) == (0, 1, 3)
    lines = bench_pair.format_summary(summary)
    assert lines[0] == ("fleet-export  trace 0 wall_ref_s               1.1500 [1.0250, 1.2750]"
                        " -> 1.1000 [0.9250, 1.3500] (-4.3%) change won 2/4, lost 1, tied 1")
    assert len(lines) == 2


def test_pairs_follow_the_run_order_and_the_metric_direction():
    # a held-out seed run twice per side, and a metric where higher is better
    runs = _runs([(11, "parent", _line(2.0)), (11, "change", _line(1.0)),
                  (11, "parent", _line(2.2)), (11, "change", _line(1.1))])
    runs += _runs([(1, "parent", _line(3.0)), (1, "change", _line(2.0))], workload="cli-day")
    assert bench_pair.pairs(runs)[("fleet-export", 0, "wall_ref_s")] == [(2.0, 1.0), (2.2, 1.1)]
    summary = bench_pair.summarize(runs, higher_is_better={"wall_ref_s"})
    wall = summary[("fleet-export", 0, "wall_ref_s")]
    assert (wall["won"], wall["lost"], wall["clear"]) == (0, 2, True)
    assert summary[("cli-day", 0, "wall_ref_s")]["lost"] == 1


def test_failed_operations_are_summed_per_side(capsys):
    runs = _runs([(1, "parent", _line(1.0, failed=1)), (1, "change", _line(0.9)),
                  (2, "change", _line(1.0, failed=2)), (2, "parent", _line(1.0))])
    runs += _runs([(1, "parent", _line(1.0)), (1, "change", _line(1.0))], workload="cli-day")
    failed = bench_pair.failures(runs)
    assert failed == {("fleet-export", 0): {"parent": 1, "change": 2},
                      ("cli-day", 0): {"parent": 0, "change": 0}}
    assert bench_pair.format_failures(failed) == [
        "cli-day       trace 0 failed operations       parent 0 -> change 0",
        "fleet-export  trace 0 failed operations       parent 1 -> change 2  MORE"]
    assert not bench_pair.report(runs)  # the change failed more on fleet-export
    assert capsys.readouterr().out.splitlines()[-1].endswith("MORE")
    assert bench_pair.report(runs[:2])


def test_a_run_keeps_its_environment_and_final_line(tmp_path):
    env = {"python": "3.x", "nproc": 2}
    script = (f"import sys; print('env ' + {json.dumps(json.dumps(env))}); print('pass 1');"
              f" print({_line(0.5)!r}); sys.exit(0)")
    got_env, result = bench_pair.run_one(str(tmp_path), [sys.executable, "-c", script],
                                         "cli-day", 1, 1.0, 0)
    assert got_env == env
    assert result == json.loads(_line(0.5))
    _, failed = bench_pair.run_one(str(tmp_path), [sys.executable, "-c", "raise SystemExit(3)"],
                                   "cli-day", 1, 1.0, 0)
    assert failed["correct"] is False and failed["error"].startswith("exit 3")
