"""The package's files: input loads and prices, the run configuration and
the report tables.

Each delimited file is declared once here, as a Table, and written by
write_table and read by read_table; the loads and prices readers add
their own checks (no negative ids, a complete grid or series). The config
is a flat ``key = value`` file. Every parse error names the file and,
where it applies, the line that caused it. Unknown config keys are
rejected so a typo cannot silently fall back to a default. The config
sets the instance, the solver mode and the solve limits: its keys are the
StorageParams, Weights and SolveOptions fields, whose defaults are its
defaults, plus slot_hours, soc_ini_customer's one value for every
customer (default DEFAULT_SOC_INI) and mode (default solver.DEFAULT_MODE).
The big-M sizes of bigm mode are fixed in mpec and not configurable.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .instance import DEFAULT_SOC_INI, Instance, StorageParams, Weights, make_instance
from .solver import DEFAULT_MODE, MODES, SolveOptions

# the keys of load_inputs' make_instance call (slot_hours and the
# StorageParams and Weights fields) and of RunConfig.solve_options
_INSTANCE_FIELDS = fields(StorageParams) + fields(Weights)
_INSTANCE_KEYS = ("slot_hours", *(f.name for f in _INSTANCE_FIELDS))
_SOLVE_KEYS = tuple(f.name for f in fields(SolveOptions))

# key -> (converter, default); None default means the key is required (a
# field without a default). A field's key converts by its annotation, a
# string under the postponed annotations of instance and solver.
_CONFIG_SCHEMA = {
    "slot_hours": (float, None),
    **{f.name: ({"float": float, "int": int}[f.type], None if f.default is MISSING else f.default)
       for f in _INSTANCE_FIELDS + fields(SolveOptions) if f.name != "soc_ini_customer"},
    "soc_ini_customer": (float, DEFAULT_SOC_INI),
    "mode": (str, DEFAULT_MODE),
}


class DataError(ValueError):
    """Raised on any malformed input file, naming file and location."""


@dataclass(frozen=True)
class RunConfig:
    """Typed view of the config file, one setting per key of values, plus
    which keys were actually given."""

    values: dict
    provided: frozenset = field(default_factory=frozenset)

    def defaults_applied(self):
        """Sorted keys that fell back to their documented default."""
        return tuple(sorted(set(_CONFIG_SCHEMA) - set(self.provided)))

    def solve_options(self) -> SolveOptions:
        return SolveOptions(**{k: self.values[k] for k in _SOLVE_KEYS})


def parse_config(path) -> RunConfig:
    """Parse a flat key = value config file against the fixed schema; its
    solve options are built here to check their values."""
    values = {k: d for k, (_, d) in _CONFIG_SCHEMA.items()}
    provided = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected 'key = value', "
                                f"got {line!r}")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in _CONFIG_SCHEMA:
                raise DataError(f"{path}:{lineno}: unknown key {key!r}")
            if key in provided:
                raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
            conv = _CONFIG_SCHEMA[key][0]
            try:
                values[key] = conv(text)
            except ValueError:
                raise DataError(f"{path}:{lineno}: key {key!r} needs a "
                                f"{conv.__name__}, got {text!r}") from None
            provided.add(key)
    for key, (_, default) in _CONFIG_SCHEMA.items():
        if default is None and key not in provided:
            raise DataError(f"{path}: missing required key {key!r}")
    if values["mode"] not in MODES:
        raise DataError(f"{path}: mode must be one of {MODES}, "
                        f"got {values['mode']!r}")
    config = RunConfig(values=values, provided=frozenset(provided))
    try:
        config.solve_options()
    except ValueError as exc:
        raise DataError(f"{path}: key {exc}") from None  # exc names the field
    return config


@dataclass(frozen=True)
class Table:
    """A delimited file: its header, each field's kind (int, float or str)
    and how many leading fields make up a row's key."""

    header: str
    kinds: tuple
    key_fields: int


LOADS = Table("t,customer_id,load_kw", (int, int, float), 2)
PRICES = Table("t,lmp_per_kwh,tou_per_kwh", (int, float, float), 1)
DIVISIONS = Table("day,scenario,party,capacity_kwh", (int, int, str, float), 3)
REDUCTIONS = Table("day,scenario,party,baseline,actual,reduction_pct",
                   (int, int, str, float, float, float), 3)
PROFILES = Table("day,series,t,net_load_kw", (int, str, int, float), 3)

_FORMATS = {int: "%d", float: "%.12g", str: "%s"}


def write_table(path, table: Table, rows) -> None:
    """Write table's header and rows, tuples of its fields: ints as %d,
    floats as %.12g, strs unchanged."""
    line = ",".join(_FORMATS[kind] for kind in table.kinds) + "\n"
    with open(path, "w") as fh:
        fh.write(table.header + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def read_table(path, table: Table):
    """Yield (lineno, row) for each non-blank line of the file at path, row
    its fields converted by their kinds. A wrong header, field count or
    field, or a repeated key, raises DataError naming the file and line."""
    kinds, k, keys = table.kinds, table.key_fields, set()
    with open(path) as fh:
        first = fh.readline().strip()
        if first != table.header:
            raise DataError(f"{path}:1: expected header {table.header!r}, got {first!r}")
        for lineno, raw in enumerate(fh, 2):
            fields = raw.strip().split(",")
            if fields == [""]:
                continue
            if len(fields) != len(kinds):
                raise DataError(f"{path}:{lineno}: expected {len(kinds)} fields, "
                                f"got {len(fields)}")
            try:
                row = tuple(kind(f) for kind, f in zip(kinds, fields))
            except ValueError:
                raise DataError(f"{path}:{lineno}: expected "
                                f"{','.join(kind.__name__ for kind in kinds)}, "
                                f"got {','.join(fields)}") from None
            if row[:k] in keys:
                raise DataError(f"{path}:{lineno}: duplicate entry for "
                                f"{','.join(table.header.split(',')[:k])} = {','.join(fields[:k])}")
            keys.add(row[:k])
            yield lineno, row


def read_loads(path):
    """Parse a load file into an [N, T] kW array."""
    cells = {}
    for lineno, (t, c, v) in read_table(path, LOADS):
        if t < 0 or c < 0:
            raise DataError(f"{path}:{lineno}: negative slot or customer id")
        cells[(t, c)] = v
    if not cells:
        raise DataError(f"{path}: no data rows")
    t_count = max(t for t, _ in cells) + 1
    n_count = max(c for _, c in cells) + 1
    if len(cells) != t_count * n_count:
        raise DataError(f"{path}: incomplete grid: {len(cells)} rows for "
                        f"{n_count} customers x {t_count} slots")
    loads = np.empty((n_count, t_count))
    for (t, c), v in cells.items():
        loads[c, t] = v
    return loads


def read_prices(path):
    """Parse a price file into (lmp [T], tou [T]) arrays."""
    lmp, tou = {}, {}
    for lineno, (t, lv, uv) in read_table(path, PRICES):
        if t < 0:
            raise DataError(f"{path}:{lineno}: negative slot index")
        lmp[t], tou[t] = lv, uv
    if not lmp:
        raise DataError(f"{path}: no data rows")
    t_count = max(lmp) + 1
    if len(lmp) != t_count:
        raise DataError(f"{path}: incomplete series: {len(lmp)} rows for "
                        f"{t_count} slots")
    return (np.array([lmp[t] for t in range(t_count)]),
            np.array([tou[t] for t in range(t_count)]))


def load_inputs(loads_path, prices_path, config) -> Instance:
    """Assemble a validated Instance from the three input files.

    config may be a path or an already-parsed RunConfig.
    """
    if not isinstance(config, RunConfig):
        config = parse_config(config)
    loads = read_loads(loads_path)
    lmp, tou = read_prices(prices_path)
    if len(lmp) != loads.shape[1]:
        raise DataError(
            f"{prices_path} has {len(lmp)} slots but {loads_path} has "
            f"{loads.shape[1]}")
    return make_instance(lmp, tou, loads, **{k: config.values[k] for k in _INSTANCE_KEYS})
