"""The delimited files through dataio's one writer and one reader.

The reference writers below are the hand-written writers the package had
before every file went through write_table: write_table must print the
same bytes. Every table rejects a bad header, a wrong field count, a
wrong field kind and a repeated key, naming the file and the line.
"""

import numpy as np
import pytest

from storageshare import dataio
from storageshare.dataio import DataError, read_loads, read_prices, write_table
from storageshare.instance import Division
from storageshare.scenarios import DayReport, ScenarioId, emit_report, read_report
from storageshare.synthetic import write_series


def ref_write_series(loads, lmp, tou, loads_path, prices_path):
    n, t = loads.shape
    with open(loads_path, "w") as fh:
        fh.write("t,customer_id,load_kw\n")
        for tt in range(t):
            for cid in range(n):
                fh.write("%d,%d,%.12g\n" % (tt, cid, loads[cid, tt]))
    with open(prices_path, "w") as fh:
        fh.write("t,lmp_per_kwh,tou_per_kwh\n")
        for tt in range(t):
            fh.write("%d,%.12g,%.12g\n" % (tt, lmp[tt], tou[tt]))


def _fmt(v):
    return "%.12g" % v


def ref_emit_tables(reports, destination):
    """The division, reduction and profile files of emit_report."""
    reports = sorted(reports, key=lambda r: (r.day, int(r.scenario)))
    with open(destination / "divisions.csv", "w") as fh:
        fh.write("day,scenario,party,capacity_kwh\n")
        for r in reports:
            caps = [r.division.s_disco] + list(r.division.s_customer)
            names = ["disco"] + [f"c{i}" for i in range(len(r.division.s_customer))]
            for party, cap in zip(names, caps):
                fh.write(f"{r.day},{int(r.scenario)},{party},{_fmt(cap)}\n")
    with open(destination / "reductions.csv", "w") as fh:
        fh.write("day,scenario,party,baseline,actual,reduction_pct\n")
        for r in reports:
            rows = [("disco", r.baseline_disco_cost, r.actual_disco_cost, r.disco_reduction)]
            rows += [(f"c{i}", b, a, p) for i, (b, a, p) in enumerate(
                zip(r.baseline_customer_costs, r.actual_customer_costs, r.customer_reductions))]
            rows.append(("peak", r.baseline_peak, r.actual_peak, r.peak_reduction))
            for party, b, a, p in rows:
                fh.write(f"{r.day},{int(r.scenario)},{party},{_fmt(b)},{_fmt(a)},{_fmt(p)}\n")
    with open(destination / "profiles.csv", "w") as fh:
        fh.write("day,series,t,net_load_kw\n")
        seen_days = set()
        for r in reports:
            if r.day not in seen_days:
                seen_days.add(r.day)
                for t, v in enumerate(r.original_profile):
                    fh.write(f"{r.day},original,{t},{_fmt(v)}\n")
            for t, v in enumerate(r.actual_profile):
                fh.write(f"{r.day},s{int(r.scenario)},{t},{_fmt(v)}\n")


SPECIAL = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
                    -1e300, 1.0, -1.0, 0.1, 1 / 3, 123456789012345.6])


def values(rng, shape):
    """Random values across every magnitude and sign, special ones included."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    pick = rng.random(shape) < 0.3
    v[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return v


def random_report(rng, day, scenario, n, t):
    return DayReport(
        day=day, scenario=ScenarioId(scenario),
        division=Division(s_disco=float(values(rng, 1)[0]), s_customer=values(rng, n)),
        baseline_disco_cost=float(values(rng, 1)[0]), baseline_customer_costs=values(rng, n),
        baseline_peak=float(values(rng, 1)[0]),
        actual_disco_cost=float(values(rng, 1)[0]), actual_customer_costs=values(rng, n),
        actual_peak=float(values(rng, 1)[0]),
        disco_reduction=float(values(rng, 1)[0]), customer_reductions=values(rng, n),
        peak_reduction=float(values(rng, 1)[0]), upper_objective=float(values(rng, 1)[0]),
        original_profile=values(rng, t), actual_profile=values(rng, t), solver_stats={})


@pytest.mark.parametrize("seed", range(8))
def test_series_files_match_the_reference_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n, t = int(rng.integers(1, 5)), int(rng.integers(2, 30))
    loads, lmp, tou = values(rng, (n, t)), values(rng, t), values(rng, t)
    write_series(loads, lmp, tou, tmp_path / "loads.csv", tmp_path / "prices.csv")
    ref_write_series(loads, lmp, tou, tmp_path / "ref_loads.csv", tmp_path / "ref_prices.csv")
    for name in ("loads.csv", "prices.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref_{name}").read_bytes()
    np.testing.assert_array_equal(read_loads(tmp_path / "loads.csv"),
                                  np.array([[float(_fmt(v)) for v in row] for row in loads]))


@pytest.mark.parametrize("seed", range(8))
def test_report_files_match_the_reference_writer(tmp_path, seed):
    # one day or several, each with one to three scenarios, in shuffled order
    rng = np.random.default_rng(seed)
    n, t = int(rng.integers(1, 4)), int(rng.integers(2, 25))
    keys = [(day, sc) for day in range(int(rng.integers(1, 4))) for sc in (1, 2, 3)
            if sc == 3 or rng.random() < 0.5]
    reports = [random_report(rng, day, sc, n, t) for day, sc in rng.permutation(keys).tolist()]
    emit_report(reports, tmp_path / "new")
    (tmp_path / "ref").mkdir()
    ref_emit_tables(reports, tmp_path / "ref")
    for name in ("divisions.csv", "reductions.csv", "profiles.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    back = read_report(tmp_path / "new")
    assert sorted(back["divisions"]) == sorted(
        (day, sc, party) for day, sc in keys for party in ["disco"] + [f"c{i}" for i in range(n)])


# valid rows of each table; the report tables are read back by read_report
SAMPLES = {
    "loads": (dataio.LOADS, [(0, 0, 1.5), (0, 1, -2.0), (1, 0, 0.0), (1, 1, 3e-9)]),
    "prices": (dataio.PRICES, [(0, 0.1, 0.2), (1, -0.05, 0.26)]),
    "divisions": (dataio.DIVISIONS, [(0, 1, "disco", 0.4), (0, 1, "c0", 0.0)]),
    "reductions": (dataio.REDUCTIONS, [(0, 1, "disco", 1.0, 0.9, 10.0), (0, 1, "peak", 2.0, 2.0, 0.0)]),
    "profiles": (dataio.PROFILES, [(0, "original", 0, 1.0), (0, "original", 1, 2.0)]),
}
READERS = {"loads": read_loads, "prices": read_prices}


FAULTS = ("bad header", "field count", "field kind", "repeated key")


def spoil(lines, spec, fault):
    """Spoil the lines of a valid file of spec by fault; returns the line
    and the message, after "PATH:LINE: ", of the rejection it must raise."""
    first = lines[1].split(",")
    if fault == "bad header":
        lines[0] = "a,b,c"
        return 1, f"expected header {spec.header!r}, got 'a,b,c'"
    if fault == "field count":
        lines.append(",".join(first[:-1]))
        return len(lines), f"expected {len(first)} fields, got {len(first) - 1}"
    if fault == "field kind":
        lines.append(",".join(["x", *first[1:]]))  # every table's first field is an int
        return len(lines), f"expected {','.join(k.__name__ for k in spec.kinds)}, got {lines[-1]}"
    lines.append(lines[1])
    return len(lines), (f"duplicate entry for {','.join(spec.header.split(',')[:spec.key_fields])} = "
                        f"{','.join(first[:spec.key_fields])}")


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name", SAMPLES)
def test_every_table_rejects_a_malformed_file(tmp_path, name, fault):
    for other, (spec, rows) in SAMPLES.items():
        write_table(tmp_path / f"{other}.csv", spec, rows)
    path, spec = tmp_path / f"{name}.csv", SAMPLES[name][0]
    lines = path.read_text().splitlines()
    lineno, message = spoil(lines, spec, fault)
    path.write_text("\n".join(lines) + "\n")
    read = READERS.get(name, lambda _: read_report(tmp_path))
    with pytest.raises(DataError) as err:
        read(path)
    assert str(err.value) == f"{path}:{lineno}: {message}"
