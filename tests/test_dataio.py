"""Config and series-file parsing, including every rejection path."""

import inspect
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from storageshare.dataio import (
    _CONFIG_SCHEMA,
    DataError,
    load_inputs,
    parse_config,
    read_loads,
    read_prices,
)
from storageshare.instance import StorageParams, Weights, make_instance
from storageshare.solver import SolveOptions
from storageshare.synthetic import gen_synthetic


def write(path, text):
    path.write_text(text)
    return path


def test_config_defaults_and_overrides(tmp_path):
    cfg = parse_config(write(tmp_path / "run.cfg", """
# comment line
slot_hours = 0.5
total_capacity = 800   # kWh, trailing comment
eta_ch = 0.9
mode = lpcc
node_limit = 500
"""))
    assert cfg.values["slot_hours"] == 0.5
    assert cfg.values["total_capacity"] == 800.0
    assert cfg.values["eta_ch"] == 0.9
    assert cfg.values["eta_dis"] == 0.92  # untouched default
    assert cfg.values["mode"] == "lpcc"
    assert cfg.values["alpha"] == 0.01
    applied = cfg.defaults_applied()
    assert "alpha" in applied and "eta_dis" in applied
    assert "eta_ch" not in applied and "mode" not in applied
    opts = cfg.solve_options()
    assert opts.node_limit == 500 and opts.time_limit == 600.0
    assert not any(k.startswith("big_m_") for k in cfg.values)


def test_config_defaults_match_the_code_defaults():
    # each default is written once, in its StorageParams, Weights or
    # SolveOptions field, and the schema and make_instance take it from
    # there: a schema entry, a make_instance keyword or a field that comes to
    # differ from the others fails here, as does an instance or
    # SolveOptions() that resolves to another default
    written = {name: [p.default] for name, p in inspect.signature(make_instance).parameters.items()}
    for cls in (StorageParams, Weights, SolveOptions):
        for f in fields(cls):
            written.setdefault(f.name, []).append(f.default)
    inst = make_instance(lmp=np.ones(2), tou=np.ones(2), customer_load=np.ones((3, 2)),
                         slot_hours=1.0, total_capacity=1.0)
    built = {**vars(inst.storage), **vars(inst.weights), **vars(SolveOptions())}
    for key, (conv, default) in _CONFIG_SCHEMA.items():
        if default is None or conv is str:  # required, or the mode
            continue
        given = [d for d in written[key] if d not in (None, inspect.Parameter.empty, MISSING)]
        assert all(d == default for d in given), (key, given)
        assert np.all(built[key] == default), key  # soc_ini_customer: one per customer


def test_readme_config_table_names_every_key():
    # the README's key table documents the schema, key for key and default
    # for default ("required" for a required key; a row of several keys
    # gives one default for all or one per key): a key added or dropped, or
    # a default changed, on one side only fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines()[1:]:
        cells = line.split("|")
        names = re.findall(r"`(\w+)`", cells[1])
        given = cells[2].replace("`", "").strip().split(", ")
        for key, text in zip(names, given * len(names) if len(given) == 1 else given):
            assert key not in documented, key
            documented[key] = text
    assert set(documented) == set(_CONFIG_SCHEMA)
    for key, (conv, default) in _CONFIG_SCHEMA.items():
        text = documented[key]
        assert (text == "required") if default is None else (conv(text) == default), (key, text)


def test_mode_defaults_to_lpcc(tmp_path):
    cfg = parse_config(write(tmp_path / "run.cfg", "slot_hours = 1\ntotal_capacity = 2\n"))
    assert cfg.values["mode"] == "lpcc"
    assert "mode" in cfg.defaults_applied()


@pytest.mark.parametrize("body,fragment", [
    ("slot_hours = 0.5\n", "missing required key 'total_capacity'"),
    ("total_capacity = 1\n", "missing required key 'slot_hours'"),
    ("slot_hours = 0.5\ntotal_capacity = 1\nwidgets = 3\n", "unknown key"),
    ("slot_hours = abc\ntotal_capacity = 1\n", "needs a float"),
    ("slot_hours = 0.5\nnode_limit = 1.5\ntotal_capacity = 1\n", "needs a int"),
    ("slot_hours = 0.5\ntotal_capacity = 1\nmode = gurobi\n", "mode must be"),
    ("slot_hours = 0.5\nslot_hours = 1\ntotal_capacity = 1\n", "duplicate key"),
    ("slot_hours 0.5\ntotal_capacity = 1\n", "expected 'key = value'"),
])
def test_config_rejections(tmp_path, body, fragment):
    path = write(tmp_path / "bad.cfg", body)
    with pytest.raises(DataError, match=fragment):
        parse_config(path)


def test_load_file_round_trip(tmp_path):
    path = write(tmp_path / "loads.csv",
                 "t,customer_id,load_kw\n"
                 "0,0,1.5\n0,1,2.5\n1,0,3\n1,1,0\n")
    loads = read_loads(path)
    np.testing.assert_array_equal(loads, [[1.5, 3.0], [2.5, 0.0]])


def test_blank_lines_are_skipped(tmp_path):
    path = write(tmp_path / "loads.csv",
                 "t,customer_id,load_kw\n0,0,1.5\n\n1,0,3\n  \n")
    np.testing.assert_array_equal(read_loads(path), [[1.5, 3.0]])


@pytest.mark.parametrize("body,fragment", [
    ("time,customer,kw\n0,0,1\n", "expected header"),
    ("t,customer_id,load_kw\n0,0\n", "expected 3 fields"),
    ("t,customer_id,load_kw\n0,0,1\n0,0,2\n", "duplicate entry"),
    ("t,customer_id,load_kw\n0,0,1\n1,1,2\n", "incomplete grid"),
    ("t,customer_id,load_kw\n-1,0,1\n", "negative slot"),
    ("t,customer_id,load_kw\nx,0,1\n", "expected int,int,float"),
    ("t,customer_id,load_kw\n", "no data rows"),
])
def test_load_file_rejections(tmp_path, body, fragment):
    path = write(tmp_path / "loads.csv", body)
    with pytest.raises(DataError, match=fragment):
        read_loads(path)


@pytest.mark.parametrize("body,fragment", [
    ("t,lmp,tou\n0,1,2\n", "expected header"),
    ("t,lmp_per_kwh,tou_per_kwh\n0,1,2\n0,1,2\n", "duplicate entry"),
    ("t,lmp_per_kwh,tou_per_kwh\n0,1,2\n2,1,2\n", "incomplete series"),
    ("t,lmp_per_kwh,tou_per_kwh\n0,x,2\n", "expected int,float,float"),
    ("t,lmp_per_kwh,tou_per_kwh\n-1,1,2\n", "negative slot"),
    ("t,lmp_per_kwh,tou_per_kwh\n", "no data rows"),
])
def test_price_file_rejections(tmp_path, body, fragment):
    path = write(tmp_path / "prices.csv", body)
    with pytest.raises(DataError, match=fragment):
        read_prices(path)


def test_error_messages_carry_line_numbers(tmp_path):
    path = write(tmp_path / "loads.csv",
                 "t,customer_id,load_kw\n0,0,1\n0,0,2\n")
    with pytest.raises(DataError, match=r"loads\.csv:3"):
        read_loads(path)


def test_t_mismatch_names_both_files(tmp_path):
    gen_synthetic("duck", "conforming", 2, 8, 1,
                  tmp_path / "l8.csv", tmp_path / "p8.csv")
    gen_synthetic("duck", "conforming", 2, 9, 1,
                  tmp_path / "l9.csv", tmp_path / "p9.csv")
    cfg = write(tmp_path / "run.cfg", "slot_hours = 1.0\ntotal_capacity = 5\n")
    with pytest.raises(DataError, match=r"p8\.csv has 8 slots.*l9\.csv has 9"):
        load_inputs(tmp_path / "l9.csv", tmp_path / "p8.csv", cfg)


def test_load_inputs_builds_matching_instance(tmp_path):
    gen_synthetic("typical", "conforming", 3, 12, 4,
                  tmp_path / "loads.csv", tmp_path / "prices.csv")
    cfg = write(tmp_path / "run.cfg", """
slot_hours = 2.0
total_capacity = 6.5
alpha = 0.02
soc_ini_customer = 0.4
""")
    inst = load_inputs(tmp_path / "loads.csv", tmp_path / "prices.csv", cfg)
    assert inst.customer_count == 3
    assert inst.grid.slot_count == 12
    assert inst.grid.slot_hours == 2.0
    assert inst.storage.total_capacity == 6.5
    assert inst.weights.alpha == 0.02
    np.testing.assert_array_equal(inst.storage.soc_ini_customer, [0.4] * 3)
    loads = read_loads(tmp_path / "loads.csv")
    np.testing.assert_array_equal(inst.loads.customer_load, loads)
