"""Input-file parsing: load series, price series and run configuration.

Loads and prices are delimited text with fixed headers; the config is a
flat ``key = value`` file. Every parse error names the file and, where it
applies, the line that caused it. Unknown config keys are rejected so a
typo cannot silently fall back to a default. The config sets the instance,
the solver mode and the solve limits: its keys are the StorageParams,
Weights and SolveOptions fields, whose defaults are its defaults, plus
slot_hours, soc_ini_customer's one value for every customer (default
DEFAULT_SOC_INI) and mode (default solver.DEFAULT_MODE). The big-M sizes
of bigm mode are fixed in mpec and not configurable.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .instance import DEFAULT_SOC_INI, Instance, StorageParams, Weights, make_instance
from .solver import DEFAULT_MODE, MODES, SolveOptions

LOADS_HEADER = "t,customer_id,load_kw"
PRICES_HEADER = "t,lmp_per_kwh,tou_per_kwh"

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
    """Typed view of the config file plus which keys were actually given."""

    values: dict
    provided: frozenset = field(default_factory=frozenset)

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

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


def _rows(path, header, n_fields):
    """Yield (lineno, fields) for a delimited file with a fixed header."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise DataError(f"{path}:1: expected header {header!r}, "
                            f"got {first!r}")
        for lineno, raw in enumerate(fh, 2):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != n_fields:
                raise DataError(f"{path}:{lineno}: expected {n_fields} "
                                f"fields, got {len(fields)}")
            yield lineno, fields


def read_loads(path):
    """Parse a load file into an [N, T] kW array."""
    cells = {}
    for lineno, (t_s, c_s, v_s) in _rows(path, LOADS_HEADER, 3):
        try:
            t, c, v = int(t_s), int(c_s), float(v_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected int,int,float, "
                            f"got {t_s},{c_s},{v_s}") from None
        if t < 0 or c < 0:
            raise DataError(f"{path}:{lineno}: negative slot or customer id")
        if (t, c) in cells:
            raise DataError(f"{path}:{lineno}: duplicate entry for slot {t}, "
                            f"customer {c}")
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
    for lineno, (t_s, l_s, u_s) in _rows(path, PRICES_HEADER, 3):
        try:
            t, lv, uv = int(t_s), float(l_s), float(u_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected int,float,float, "
                            f"got {t_s},{l_s},{u_s}") from None
        if t < 0:
            raise DataError(f"{path}:{lineno}: negative slot index")
        if t in lmp:
            raise DataError(f"{path}:{lineno}: duplicate entry for slot {t}")
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
