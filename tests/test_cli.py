"""Command-line flows driven through main(argv)."""

import numpy as np
import pytest

from storageshare.cli import main
from storageshare.mps_io import read_mps
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
    binaries = int([l for l in printed.splitlines()
                    if l.startswith("binaries = ")][0].split("=")[1])
    assert summary.binary_columns == binaries > 0
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
                           ("big_m_dual_scale = nan", "bad.cfg: key big_m_dual_scale"),
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
