"""Fixed-format MPS export plus an independent reader for round-trips.

The writer emits ROWS/COLUMNS/RHS/RANGES/BOUNDS sections with classic
column offsets, names X/R/E-prefixed by index so files are byte-stable
for a given model. Binary columns are wrapped in INTORG/INTEND marker
lines. The reader shares no code or constants with the writer; it
tokenizes sections per the published format and reports counts, which is
what round-trip checks compare.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .lp import LinearProgram
from .mpec import MilpModel

_OBJ = "OBJ"


def _pad(arr, width):
    return np.char.ljust(np.asarray(arr, dtype=f"U{width}"), width)


def _fmt_values(values: np.ndarray):
    """%.12g-render values via their unique set; returns (plain, padded)."""
    uniq, inverse = np.unique(np.asarray(values, float), return_inverse=True)
    rendered = np.char.mod("%.12g", uniq)
    return rendered[inverse], _pad(rendered, 12)[inverse]


def _lines_for_entries(first_key: np.ndarray, first_p: np.ndarray,
                       rows_p: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Render entries two per line, greedy within a run of equal
    first-field keys; returns the line array in entry order."""
    k = len(values)
    if k == 0:
        return np.empty(0, dtype=object)
    vals, vals_p = _fmt_values(values)
    same_next = np.zeros(k, dtype=bool)
    same_next[:-1] = first_key[1:] == first_key[:-1]
    # position inside each run decides which entries start a line
    starts = np.zeros(k, dtype=np.int64)
    new_run = np.ones(k, dtype=bool)
    new_run[1:] = ~same_next[:-1]
    starts[new_run] = np.arange(k)[new_run]
    pos = np.arange(k) - np.maximum.accumulate(starts)
    lead = pos % 2 == 0
    paired = lead & same_next
    lead_idx = np.flatnonzero(lead)
    out = np.empty(lead_idx.size, dtype=object)
    pair_lead = paired[lead_idx]
    pi = lead_idx[pair_lead]
    if pi.size:
        out[pair_lead] = reduce(np.char.add, (
            "    ", first_p[pi], rows_p[pi], vals_p[pi],
            "   ", rows_p[pi + 1], vals[pi + 1]))
    si = lead_idx[~pair_lead]
    if si.size:
        out[~pair_lead] = reduce(np.char.add, (
            "    ", first_p[si], rows_p[si], vals[si]))
    return out


def _sanitize(name: str) -> str:
    clean = "".join(ch if ch.isalnum() else "_" for ch in name.upper())
    return (clean or "MODEL")[:8]


def export_mps(model: LinearProgram | MilpModel, destination) -> None:
    """Write the model to destination as a fixed-format MPS file."""
    if isinstance(model, MilpModel):
        lp = model.lp
        binary_cols = np.asarray(model.binary_cols, dtype=int)
    elif isinstance(model, LinearProgram):
        lp = model
        binary_cols = np.empty(0, dtype=int)
    else:
        raise TypeError("model must be a LinearProgram or MilpModel")

    n = lp.n_vars
    col_names = np.array([f"X{j:07d}" for j in range(n)])
    g_names = [f"R{i:07d}" for i in range(lp.n_g)]
    h_names = [f"E{i:07d}" for i in range(lp.n_h)]

    # flatten every matrix entry into parallel arrays: column, row key, value
    c_cols = np.flatnonzero(lp.c)
    g_rows, g_cols, g_coefs = lp.g.coo()
    h_rows, h_cols, h_coefs = lp.h.coo()
    e_col = np.concatenate([c_cols, g_cols, h_cols]).astype(np.int64)
    e_row = np.concatenate([np.zeros(len(c_cols), dtype=np.int64),
                            1 + g_rows, 1 + lp.n_g + h_rows])
    e_val = np.concatenate([lp.c[c_cols], g_coefs, h_coefs])
    order = np.lexsort((e_row, e_col))
    e_col, e_row, e_val = e_col[order], e_row[order], e_val[order]

    row_name_table = np.array([_OBJ] + g_names + h_names)
    row_pad_table = _pad(row_name_table, 10)
    col_pad_table = _pad(col_names, 10)
    is_binary = np.zeros(n, dtype=bool)
    is_binary[binary_cols] = True

    out: list[str] = []
    out.append("NAME".ljust(14) + _sanitize(lp.name))
    out.append("ROWS")
    out.append(" N  " + _OBJ)
    out.extend(" G  " + r for r in g_names)
    out.extend(" E  " + r for r in h_names)

    out.append("COLUMNS")
    # integrality markers around maximal runs of binary-column entries
    ib = is_binary[e_col]
    cuts = [0] + (np.flatnonzero(ib[1:] != ib[:-1]) + 1).tolist() + [len(ib)]
    marker_no = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        if ib[a]:
            marker_no += 1
            out.append(f"    M{marker_no:07d}  'MARKER'" + " " * 17 + "'INTORG'")
        out.extend(_lines_for_entries(e_col[a:b], col_pad_table[e_col[a:b]],
                                      row_pad_table[e_row[a:b]], e_val[a:b]))
        if ib[a]:
            marker_no += 1
            out.append(f"    M{marker_no:07d}  'MARKER'" + " " * 17 + "'INTEND'")

    out.append("RHS")
    rhs_rows = np.concatenate([lp.b_g(), lp.b_h()])
    nz = np.flatnonzero(rhs_rows)
    rhs_names_p = row_pad_table[1 + nz]
    rhs_vals = rhs_rows[nz]
    if lp.objective_constant != 0.0:
        rhs_names_p = np.concatenate([row_pad_table[:1], rhs_names_p])
        rhs_vals = np.concatenate([[-lp.objective_constant], rhs_vals])
    out.extend(_lines_for_entries(np.zeros(len(rhs_vals), dtype=np.int64),
                                  _pad(["RHS"], 10)[np.zeros(len(rhs_vals), int)],
                                  rhs_names_p, rhs_vals))

    out.append("RANGES")  # no ranged rows in these models; section kept for shape

    out.append("BOUNDS")
    lb, ub = lp.lb, lp.ub
    lo_fin = np.isfinite(lb)
    hi_fin = np.isfinite(ub)
    fixed = ~is_binary & lo_fin & hi_fin & (lb == ub)
    free = ~is_binary & ~lo_fin & ~hi_fin
    minus = ~is_binary & ~lo_fin & hi_fin
    lo_line = ~is_binary & ~fixed & lo_fin & (lb != 0.0)
    up_line = ~is_binary & ~fixed & hi_fin
    name_p = _pad(col_names, 10)
    first_a = np.full(n, "", dtype=object)
    first_a[is_binary] = np.char.add(" BV BND       ", col_names[is_binary])
    first_a[fixed] = np.char.add(np.char.add(" FX BND       ", name_p[fixed]),
                                 np.char.mod("%.12g", lb[fixed]))
    first_a[free] = np.char.add(" FR BND       ", col_names[free])
    first_a[minus] = np.char.add(" MI BND       ", col_names[minus])
    first_a[lo_line] = np.char.add(np.char.add(" LO BND       ", name_p[lo_line]),
                                   np.char.mod("%.12g", lb[lo_line]))
    second_a = np.full(n, "", dtype=object)
    second_a[up_line] = np.char.add(np.char.add(" UP BND       ", name_p[up_line]),
                                    np.char.mod("%.12g", ub[up_line]))
    both = np.stack([first_a, second_a], axis=1).ravel()
    out.extend(both[both != ""])
    out.append("ENDATA")
    out.append("")

    text = "\n".join(out)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


@dataclass
class MpsSummary:
    """Counts and key fields recovered from an MPS file."""

    name: str = ""
    objective_rows: int = 0
    g_rows: int = 0
    l_rows: int = 0
    e_rows: int = 0
    columns: int = 0
    binary_columns: int = 0
    entries: int = 0
    rhs_entries: int = 0
    range_entries: int = 0
    bound_entries: int = 0
    objective_constant: float = 0.0
    bound_types: dict = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return self.g_rows + self.l_rows + self.e_rows


def read_mps(path) -> MpsSummary:
    """Parse an MPS file independently of the writer and return counts.

    Only the structure is recovered: row counts by sense, column and
    binary-column counts, and entry tallies per section. Marker lines
    toggle integrality exactly as the format prescribes.
    """
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path) as fh:
            text = fh.read()

    summary = MpsSummary()
    section = None
    obj_names: set[str] = set()
    seen_cols: dict[str, bool] = {}
    integral = False
    for raw in io.StringIO(text):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("*"):
            continue
        head = line[0] not in " \t"
        tokens = line.split()
        if head:
            keyword = tokens[0].upper()
            if keyword == "NAME":
                summary.name = tokens[1] if len(tokens) > 1 else ""
                continue
            if keyword == "ENDATA":
                break
            section = keyword
            continue
        if section == "ROWS":
            sense, name = tokens[0].upper(), tokens[1]
            if sense == "N":
                summary.objective_rows += 1
                obj_names.add(name)
            elif sense == "G":
                summary.g_rows += 1
            elif sense == "L":
                summary.l_rows += 1
            elif sense == "E":
                summary.e_rows += 1
            else:
                raise ValueError(f"unknown row sense {sense!r}")
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                marker = tokens[-1].upper()
                if marker == "'INTORG'":
                    integral = True
                elif marker == "'INTEND'":
                    integral = False
                continue
            col = tokens[0]
            if col not in seen_cols:
                seen_cols[col] = integral
            for p in range(1, len(tokens) - 1, 2):
                float(tokens[p + 1])  # malformed values should not pass silently
                summary.entries += 1
        elif section == "RHS":
            for p in range(1, len(tokens) - 1, 2):
                if tokens[p] in obj_names:
                    summary.objective_constant = -float(tokens[p + 1])
                else:
                    float(tokens[p + 1])
                summary.rhs_entries += 1
        elif section == "RANGES":
            for p in range(1, len(tokens) - 1, 2):
                float(tokens[p + 1])
                summary.range_entries += 1
        elif section == "BOUNDS":
            btype = tokens[0].upper()
            summary.bound_entries += 1
            summary.bound_types[btype] = summary.bound_types.get(btype, 0) + 1
        elif section is None:
            raise ValueError("data line before any section header")
    summary.columns = len(seen_cols)
    summary.binary_columns = sum(seen_cols.values())
    return summary
