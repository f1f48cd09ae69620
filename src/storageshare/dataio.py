"""Input-file parsing: load series, price series and run configuration.

Loads and prices are delimited text with fixed headers; the config is a
flat ``key = value`` file. Every parse error names the file and, where it
applies, the line that caused it. Unknown config keys are rejected so a
typo cannot silently fall back to a default. The config sets the instance,
the solver mode and the solve limits; the big-M sizes of bigm mode are
fixed in mpec and not configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, make_instance
from .solver import MODES, SolveOptions

LOADS_HEADER = "t,customer_id,load_kw"
PRICES_HEADER = "t,lmp_per_kwh,tou_per_kwh"

# key -> (converter, default); None default means the key is required
_CONFIG_SCHEMA = {
    "slot_hours": (float, None),
    "total_capacity": (float, None),
    "eta_ch": (float, 0.92),
    "eta_dis": (float, 0.92),
    "power_ratio": (float, 0.25),
    "soc_lower": (float, 0.1),
    "soc_upper": (float, 0.9),
    "soc_ini_customer": (float, 0.5),
    "soc_ini_disco": (float, 0.5),
    "lambda1": (float, 0.8),
    "lambda2": (float, 6.69),
    "lambda3": (float, 1.0),
    "alpha": (float, 0.01),
    "mode": (str, "lpcc"),
    "time_limit": (float, 600.0),
    "node_limit": (int, 100_000),
    "gap_target": (float, 0.0),
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
        return SolveOptions(
            time_limit=self.values["time_limit"],
            node_limit=self.values["node_limit"],
            gap_target=self.values["gap_target"],
        )


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
    v = config.values
    return make_instance(
        lmp, tou, loads,
        slot_hours=v["slot_hours"],
        total_capacity=v["total_capacity"],
        eta_ch=v["eta_ch"], eta_dis=v["eta_dis"],
        power_ratio=v["power_ratio"],
        soc_lower=v["soc_lower"], soc_upper=v["soc_upper"],
        soc_ini_customer=v["soc_ini_customer"],
        soc_ini_disco=v["soc_ini_disco"],
        lambda1=v["lambda1"], lambda2=v["lambda2"], lambda3=v["lambda3"],
        alpha=v["alpha"],
    )
