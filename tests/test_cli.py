"""Command-line flows driven through main(argv)."""

import argparse

import numpy as np
import pytest

from storageshare import cli, scenarios
from storageshare.cli import main
from storageshare.instance import make_instance
from storageshare.mpec import BigMReport
from storageshare.mps_io import read_mps
from storageshare.simplex import SimplexError
from storageshare.synthetic import write_series
from tests.conftest import interior_fixture


@pytest.fixture
def workdir(tmp_path):
    """Synthetic inputs plus a small config, all inside tmp_path."""
    loads = tmp_path / "loads.csv"
    prices = tmp_path / "prices.csv"
    config = tmp_path / "run.cfg"
    rc = main(["gen-data", "--profile", "duck", "--price-shape", "conflicting",
               "--customers", "2", "--slots", "6", "--seed", "5",
               "--loads", str(loads), "--prices", str(prices)])
    assert rc == 0
    config.write_text("slot_hours = 4.0\ntotal_capacity = 0.4\nmode = lpcc\n")
    return {"loads": loads, "prices": prices, "config": config,
            "dir": tmp_path}


def args_for(workdir, *extra):
    return ["--loads", str(workdir["loads"]), "--prices",
            str(workdir["prices"]), "--config", str(workdir["config"]),
            *extra]


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    # every call once built the whole argparse tree anew
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for seed in ("1", "2"):
        assert main(["gen-data", "--slots", "4", "--seed", seed, "--loads",
                     str(tmp_path / "loads.csv"), "--prices", str(tmp_path / "prices.csv")]) == 0
    capsys.readouterr()
    assert built == []


def test_solve_prints_division(workdir, capsys):
    rc = main(["solve", *args_for(workdir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status = optimal" in out
    assert "division disco = 0.4 kWh" in out


def test_mode_flag_overrides_config(workdir, capsys):
    rc = main(["solve", *args_for(workdir, "--mode", "bigm")])
    assert rc == 0
    assert "status = optimal" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["solve", *args_for(workdir, "--mode", "lpc")])
    assert exc.value.code == 2
    assert "invalid choice: 'lpc'" in capsys.readouterr().err


def test_bigm_runs_print_the_flagged_pair_note(workdir, capsys, monkeypatch):
    # a bigm answer with a binding pair bound is noted on stdout by solve
    # and in summary.txt by scenario, once for each bigm solve (1, 2 and 3)
    monkeypatch.setattr(scenarios, "validate_big_m",
                        lambda milp, x: BigMReport(flagged=((0, "omega", 1.0, 1.0),)))
    note = "note = 1 binding pair bounds (flagged: omega)"
    assert main(["solve", *args_for(workdir, "--mode", "bigm")]) == 0
    assert note in capsys.readouterr().out.splitlines()
    report_dir = workdir["dir"] / "rep"
    assert main(["scenario", *args_for(workdir, "--mode", "bigm"),
                 "--out", str(report_dir)]) == 0
    capsys.readouterr()
    assert (report_dir / "summary.txt").read_text().splitlines().count(note) == 3


def test_oracle_agrees_with_solver(workdir, capsys):
    rc = main(["solve", *args_for(workdir)])
    solved = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("objective = ")][0]
    rc2 = main(["oracle", *args_for(workdir, "--grid-step", "0.1")])
    out = capsys.readouterr().out
    oracled = [l for l in out.splitlines() if l.startswith("objective = ")][0]
    assert rc == rc2 == 0
    a = float(solved.split("=")[1])
    b = float(oracled.split("=")[1])
    assert b >= a - 1e-6  # the grid can only be as good as the true optimum
    assert "points = " in out


def test_build_emits_readable_mps(workdir, capsys):
    out_path = workdir["dir"] / "model.mps"
    rc = main(["build", *args_for(workdir), "--out", str(out_path)])
    printed = capsys.readouterr().out
    assert rc == 0
    summary = read_mps(out_path)
    counts = dict(l.split(" = ") for l in printed.splitlines() if " = " in l)
    assert summary.binary_columns == int(counts["binaries"]) > 0
    assert summary.columns == int(counts["columns"])
    assert summary.rows == int(counts["rows"])
    assert out_path.read_text().rstrip().endswith("ENDATA")


def test_scenario_emits_report_files(workdir, capsys):
    report_dir = workdir["dir"] / "rep"
    rc = main(["scenario", *args_for(workdir), "--out", str(report_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("divisions.csv", "reductions.csv", "profiles.csv",
                 "summary.txt"):
        assert (report_dir / name).exists()
    assert "scenario 3:" in out

    rc = main(["report", "--dir", str(report_dir)])
    rendered = capsys.readouterr().out
    assert rc == 0
    assert "days = 1" in rendered
    assert "scenario 2" in rendered


@pytest.mark.parametrize("command", ["scenario", "cycle"])
def test_summary_names_the_flags_that_ran(workdir, capsys, command):
    # with no mode in the config, --mode bigm once left the summary's head
    # at "mode = lpcc", with mode and time_limit listed as defaulted
    cfg = workdir["dir"] / "nomode.cfg"
    cfg.write_text("slot_hours = 4.0\ntotal_capacity = 0.4\n")
    report_dir = workdir["dir"] / command
    inputs = (["--loads", str(workdir["loads"]), "--prices", str(workdir["prices"])]
              if command == "scenario" else
              ["--day", str(workdir["loads"]), str(workdir["prices"])])
    rc = main([command, *inputs, "--config", str(cfg), "--mode", "bigm",
               "--time-limit", "60", "--out", str(report_dir)])
    assert rc == 0
    capsys.readouterr()
    head = dict(line.split(" = ", 1) for line in
                (report_dir / "summary.txt").read_text().splitlines()[:5])
    assert head["mode"] == "bigm"
    applied = head["defaults_applied"].split(",")
    assert "mode" not in applied and "time_limit" not in applied
    assert "gap_target" in applied and "node_limit" in applied


def _drop_line_3(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + lines[3:]))


def _append(row):
    return lambda path: path.write_text(path.read_text() + row + "\n")


@pytest.mark.parametrize("name,spoil,message", [
    ("profiles.csv", _drop_line_3, "profiles.csv: day 0 series original has no slot 1"),
    ("divisions.csv", _append("0,1,c0"), "divisions.csv:11: expected 4 fields, got 3"),
    ("reductions.csv", _append("0,1,c0,abc"), "reductions.csv:14: expected 6 fields, got 4"),
    ("divisions.csv", _append("0,1,c0,abc"),
     "divisions.csv:11: expected int,int,str,float, got 0,1,c0,abc"),
    ("profiles.csv", _append("0,original,0,999"),
     "profiles.csv:26: duplicate entry for day,series,t = 0,original,0"),
    ("divisions.csv", _append("0,1,disco,7"),
     "divisions.csv:11: duplicate entry for day,scenario,party = 0,1,disco"),
    ("reductions.csv", _append("0,3,peak,1,1,0"),
     "reductions.csv:14: duplicate entry for day,scenario,party = 0,3,peak"),
], ids=["missing slot", "short division", "short reduction", "non-number",
        "duplicate profile", "duplicate division", "duplicate reduction"])
def test_report_exits_2_on_a_malformed_file(workdir, capsys, name, spoil, message):
    # these once ended in a KeyError or unpacking traceback, exit 1; a
    # duplicate row once read back as the later line, exit 0
    report_dir = workdir["dir"] / "rep"
    assert main(["scenario", *args_for(workdir), "--out", str(report_dir)]) == 0
    spoil(report_dir / name)
    capsys.readouterr()
    assert main(["report", "--dir", str(report_dir)]) == 2
    assert message in capsys.readouterr().err


def test_cycle_runs_each_day(workdir, capsys):
    out_dir = workdir["dir"] / "cyc"
    day = [str(workdir["loads"]), str(workdir["prices"])]
    rc = main(["cycle", "--config", str(workdir["config"]),
               "--day", *day, "--day", *day, "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "day 0:" in out and "day 1:" in out
    assert (out_dir / "profiles.csv").exists()


def write_day(inst, directory, **extra):
    """The input files of an instance: loads, prices and a config carrying
    its storage parameters plus the extra keys."""
    loads, prices, config = (directory / n for n in ("loads.csv", "prices.csv", "run.cfg"))
    write_series(inst.loads.customer_load, inst.prices.lmp, inst.prices.tou, loads, prices)
    st = inst.storage
    keys = dict(slot_hours=inst.grid.slot_hours, total_capacity=st.total_capacity,
                eta_ch=st.eta_ch, eta_dis=st.eta_dis, power_ratio=st.power_ratio,
                soc_lower=st.soc_lower, soc_upper=st.soc_upper,
                soc_ini_customer=float(st.soc_ini_customer[0]),
                soc_ini_disco=st.soc_ini_disco, alpha=inst.weights.alpha, **extra)
    config.write_text("".join(f"{k} = {v!r}\n" for k, v in keys.items()))
    return [str(loads), str(prices)], config


def test_cycle_reports_partial_failure(workdir, tmp_path, capsys):
    # the README inputs close at the root node, so a node limit of 1 cannot
    # stop them; this day's optimum is interior and its tree branches
    day, slow_cfg = write_day(interior_fixture(), tmp_path, node_limit=1)
    out_dir = workdir["dir"] / "cyc_fail"
    rc = main(["cycle", "--config", str(slow_cfg), "--day", *day,
               "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "failed" in err
    assert "ended limit" in err


def test_oracle_prints_its_tied_grid_points(tmp_path, capsys):
    # flat prices leave many divisions with the same objective; the grid
    # names how many tie with its best point
    inst = make_instance(lmp=[0.2] * 4, tou=[0.2] * 4, customer_load=[[3.0, 5.0, 2.0, 4.0]] * 2,
                         slot_hours=1.0, total_capacity=4.0)
    day, config = write_day(inst, tmp_path)
    assert main(["oracle", "--loads", day[0], "--prices", day[1], "--config", str(config),
                 "--grid-step", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "note = 34 grid points within 1e-9 of the best objective"


def test_missing_file_exits_two(workdir, capsys):
    rc = main(["solve", "--loads", str(workdir["loads"]),
               "--prices", str(workdir["prices"]),
               "--config", str(workdir["dir"] / "absent.cfg")])
    assert rc == 2
    assert capsys.readouterr().err


def test_malformed_config_exits_two(workdir, capsys):
    bad = workdir["dir"] / "bad.cfg"
    for line, fragment in (("wooble = 1", "unknown key"),
                           ("gap_target = -1", "bad.cfg: key gap_target"),
                           ("gap_target = nan", "bad.cfg: key gap_target"),
                           ("node_limit = 0", "bad.cfg: key node_limit"),
                           ("time_limit = nan", "bad.cfg: key time_limit"),
                           ("big_m_dual_scale = 1000", "unknown key 'big_m_dual_scale'"),
                           ("alpha = nan", "alpha"),
                           ("soc_ini_disco = nan", "soc_ini_disco")):
        bad.write_text(f"slot_hours = 4.0\ntotal_capacity = 0.4\n{line}\n")
        rc = main(["solve", *["--loads", str(workdir["loads"]), "--prices",
                   str(workdir["prices"]), "--config", str(bad)]])
        assert rc == 2, line
        assert fragment in capsys.readouterr().err, line


def test_bad_time_limit_flag_exits_two(workdir, capsys):
    rc = main(["solve", *args_for(workdir, "--time-limit", "nan")])
    assert rc == 2
    assert "time_limit" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["-1", "0", "nan", "inf"])
def test_bad_grid_step_exits_two(workdir, capsys, step):
    rc = main(["oracle", *args_for(workdir, "--grid-step", step)])
    assert rc == 2
    assert "--grid-step" in capsys.readouterr().err


def test_grid_over_the_guard_exits_two_and_names_the_step(workdir, capsys):
    # six customers at the default step capacity/20: C(27, 7) = 888030 points
    loads, prices = workdir["dir"] / "l6.csv", workdir["dir"] / "p6.csv"
    assert main(["gen-data", "--profile", "duck", "--price-shape", "conflicting",
                 "--customers", "6", "--slots", "6", "--seed", "5",
                 "--loads", str(loads), "--prices", str(prices)]) == 0
    capsys.readouterr()
    rc = main(["oracle", "--loads", str(loads), "--prices", str(prices),
               "--config", str(workdir["config"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--grid-step" in err
    assert "888030 points" in err


@pytest.mark.parametrize("flag,value", [("--slots", "1"), ("--customers", "0")])
def test_gen_data_bad_count_exits_two(tmp_path, capsys, flag, value):
    # one slot makes files every other subcommand rejects (a day needs two)
    rc = main(["gen-data", flag, value, "--loads", str(tmp_path / "l.csv"),
               "--prices", str(tmp_path / "p.csv")])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "l.csv").exists()


def test_unfinished_solve_exits_with_its_status_code(tmp_path, capsys):
    # a node limit of 1 stops the interior day's tree: status limit, code 4
    day, cfg = write_day(interior_fixture(), tmp_path, node_limit=1)
    inputs = ["--loads", day[0], "--prices", day[1], "--config", str(cfg)]
    assert main(["solve", *inputs]) == 4
    assert "status = limit" in capsys.readouterr().out
    assert main(["scenario", *inputs, "--out", str(tmp_path / "rep")]) == 4
    assert "ended limit" in capsys.readouterr().err


def test_gen_data_rejects_bad_shape(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen-data", "--profile", "square",
              "--loads", str(tmp_path / "l.csv"),
              "--prices", str(tmp_path / "p.csv")])


def test_flags_only_on_subcommands_that_read_them(workdir, capsys):
    # --seed belongs to gen-data alone; the oracle never drew random numbers
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *args_for(workdir, "--seed", "1")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_scenario_past_its_time_limit_exits_with_the_limit_code(workdir, capsys):
    rc = main(["scenario", *args_for(workdir, "--time-limit", "1e-9"),
               "--out", str(workdir["dir"] / "rep")])
    assert rc == 4
    assert "scenario 1: time limit reached" in capsys.readouterr().err
    assert not (workdir["dir"] / "rep").exists()


def test_a_failed_solve_exits_1_with_its_message(workdir, capsys, monkeypatch):
    def fail(*args):
        raise SimplexError("singular basis")

    monkeypatch.setattr(cli, "solve_division", fail)
    assert main(["solve", *args_for(workdir)]) == 1
    assert capsys.readouterr().err.strip() == "singular basis"
