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


def _ten_pairs(parent_walls, change_walls, workload="fleet-export"):
    """Ten seeds' runs, each side's wall times in seed order."""
    lines = []
    for seed, (p, c) in enumerate(zip(parent_walls, change_walls), start=1):
        lines += [(seed, side, _line(wall)) for side, wall in
                  zip(bench_pair.first_side(seed), (p, c) if seed % 2 else (c, p))]
    return _runs(lines, workload)


def test_a_metric_won_on_nine_pairs_in_ten_and_clear_is_claimable():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    nine = [0.8] * 9 + [1.1]  # the last pair lost
    wall = bench_pair.summarize(_ten_pairs(parent, nine))[("fleet-export", 0, "wall_ref_s")]
    assert (wall["won"], wall["clear"], wall["claimable"]) == (9, True, True)
    assert bench_pair.format_summary({("fleet-export", 0, "wall_ref_s"): wall})[0].endswith(
        "change won 9/10, lost 1, tied 0  clear  claimable")
    eight = [0.8] * 8 + [1.1, 1.1]
    wall = bench_pair.summarize(_ten_pairs(parent, eight))[("fleet-export", 0, "wall_ref_s")]
    assert (wall["won"], wall["clear"], wall["claimable"]) == (8, True, False)
    # won on every pair, but by less than the parent's quartile distance
    close = [p - 0.001 for p in parent]
    wall = bench_pair.summarize(_ten_pairs(parent, close))[("fleet-export", 0, "wall_ref_s")]
    assert (wall["won"], wall["clear"], wall["claimable"]) == (10, False, False)


def test_an_end_to_end_metric_worse_than_its_bound_fails(tmp_path, monkeypatch, capsys):
    parent = [1.0] * 10
    bounds = {"wall_ref_s": 0.2}
    key = ("fleet-export", 0, "wall_ref_s")
    runs = _ten_pairs(parent, [1.25] * 10)
    wall = bench_pair.summarize(runs, bounds=bounds)[key]
    assert wall["worse"] and not wall["claimable"]
    assert bench_pair.format_summary({key: wall})[0].endswith("clear  WORSE")
    assert not bench_pair.report(runs, bounds=bounds)
    assert "WORSE" in capsys.readouterr().out
    # within the bound, without one, and worse in the metric's own direction
    assert not bench_pair.summarize(_ten_pairs(parent, [1.15] * 10), bounds=bounds)[key]["worse"]
    assert not bench_pair.summarize(runs)[key]["worse"]
    assert bench_pair.report(_ten_pairs(parent, [1.15] * 10), bounds=bounds)
    lower = bench_pair.summarize(_ten_pairs(parent, [0.75] * 10), {"wall_ref_s"}, bounds)[key]
    assert lower["worse"]
    # the summary form reads the bounds of the BENCHMARK.json where it runs
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_ref_s", "better": "lower", "bound": 0.2}]}))
    (tmp_path / "BENCH.json").write_text(json.dumps({"runs": runs}))
    monkeypatch.chdir(tmp_path)
    assert bench_pair.main(["--summary", "BENCH.json"]) == 1
    (tmp_path / "BENCH.json").write_text(json.dumps({"runs": _ten_pairs(parent, [0.9] * 10)}))
    assert bench_pair.main(["--summary", "BENCH.json"]) == 0
