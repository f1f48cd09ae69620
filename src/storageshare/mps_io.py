"""Fixed-format MPS export plus an independent reader for round-trips.

The writer emits ROWS/COLUMNS/RHS/RANGES/BOUNDS sections with classic
column offsets, names X/R/E-prefixed by index so files are byte-stable
for a given model. Binary columns are wrapped in INTORG/INTEND marker
lines. Every field is rendered as a 1-byte string array and lines are
joined and written in blocks of `_BLOCK`, so the writer never holds
more than one block of text. A value is written with %.12g, padded to
12 characters where another field follows it; a value longer than 12
characters is written whole.

The reader shares no code or constants with the writer; it streams the
file line by line, tokenizes sections per the published format and
reports counts, which is what round-trip checks compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .lp import LinearProgram
from .mpec import MilpModel

_OBJ = b"OBJ"
_BLOCK = 1 << 16  # lines joined and written at a time


def _ljust(arr, width):
    # np.strings.ljust raises on an empty array
    return np.strings.ljust(arr, width) if arr.size else arr


def _names(prefix: bytes, count: int) -> np.ndarray:
    """prefix + index zero-filled to 7 digits, for indices 0..count-1."""
    digits = np.arange(count).astype("S")
    return np.strings.add(prefix, np.strings.zfill(digits, 7) if count else digits)


def _fmt_values(values: np.ndarray):
    """%.12g-render values via their unique set; returns (plain, padded,
    inverse): the renderings of the unique values, unpadded and padded to
    12 characters, and each value's index into them."""
    uniq, inverse = np.unique(np.asarray(values, float), return_inverse=True)
    rendered = np.strings.mod(b"%.12g", uniq)
    return rendered, _ljust(rendered, 12), inverse


def _pairing(keys: np.ndarray):
    """Entries go two per line, greedy within a run of equal keys: the
    entry each line starts with, and whether the next entry joins it."""
    k = len(keys)
    same_next = np.zeros(k, dtype=bool)
    same_next[:-1] = keys[1:] == keys[:-1]
    # position inside each run decides which entries start a line
    starts = np.zeros(k, dtype=np.int64)
    new_run = np.ones(k, dtype=bool)
    new_run[1:] = ~same_next[:-1]
    starts[new_run] = np.arange(k)[new_run]
    pos = np.arange(k) - np.maximum.accumulate(starts)
    lead = np.flatnonzero(pos % 2 == 0)
    return lead, same_next[lead]


def _entry_parts(first_tab, first, row_tab, row, values):
    """Lay entries (first-field name index, row name index, value) out two
    per line by `_pairing`; returns the entry each line starts with and
    parts(a, b) for `_write_lines`. The name tables hold names padded to
    10 characters."""
    plain, padded, inv = _fmt_values(values)
    lead, paired = _pairing(first)
    last = len(first) - 1

    def parts(a, b):
        i, two = lead[a:b], paired[a:b]
        j = np.minimum(i + 1, last)
        second = np.strings.add(np.strings.add(b"   ", row_tab[row[j]]), plain[inv[j]])
        return (b"    ", first_tab[first[i]], row_tab[row[i]],
                np.where(two, padded[inv[i]], plain[inv[i]]), np.where(two, second, b""))

    return lead, parts


def _write_lines(write, start, stop, parts):
    """Write lines start..stop-1, `_BLOCK` at a time; parts(a, b) gives the
    fields of lines a..b-1 as 1-byte string arrays or scalars."""
    for a in range(start, stop, _BLOCK):
        lines = reduce(np.strings.add, (*parts(a, min(a + _BLOCK, stop)), b"\n"))
        cells = lines.view(np.uint8)
        write(cells[cells != 0].tobytes())  # drop the NUL padding of each line


def _sanitize(name: str) -> str:
    clean = "".join(ch if ch.isalnum() else "_" for ch in name.upper())
    return (clean or "MODEL")[:8]


def export_mps(model: LinearProgram | MilpModel, destination) -> None:
    """Write the model to destination (a path, or a text handle with
    `write`) as a fixed-format MPS file."""
    if isinstance(model, MilpModel):
        lp = model.lp
        binary_cols = np.asarray(model.binary_cols, dtype=int)
    elif isinstance(model, LinearProgram):
        lp = model
        binary_cols = np.empty(0, dtype=int)
    else:
        raise TypeError("model must be a LinearProgram or MilpModel")

    if hasattr(destination, "write"):
        _write_model(lp, binary_cols, lambda data: destination.write(data.decode()))
    else:
        with open(destination, "wb") as fh:
            _write_model(lp, binary_cols, fh.write)


def _write_model(lp: LinearProgram, binary_cols: np.ndarray, write) -> None:
    n = lp.n_vars
    col_names = _names(b"X", n)
    g_labels = _names(b"R", lp.n_g)
    h_labels = _names(b"E", lp.n_h)

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

    row_pad_table = _ljust(np.concatenate([[_OBJ], g_labels, h_labels]), 10)
    col_pad_table = _ljust(col_names, 10)
    is_binary = np.zeros(n, dtype=bool)
    is_binary[binary_cols] = True

    write(b"NAME".ljust(14) + _sanitize(lp.name).encode() + b"\nROWS\n N  " + _OBJ + b"\n")
    _write_lines(write, 0, lp.n_g, lambda a, b: (b" G  ", g_labels[a:b]))
    _write_lines(write, 0, lp.n_h, lambda a, b: (b" E  ", h_labels[a:b]))

    write(b"COLUMNS\n")
    lead, parts = _entry_parts(col_pad_table, e_col, row_pad_table, e_row, e_val)
    # integrality markers around maximal runs of binary-column entries; a
    # run of one column's entries never crosses them, so no line does
    ib = is_binary[e_col]
    cuts = [0] + (np.flatnonzero(ib[1:] != ib[:-1]) + 1).tolist() + [len(ib)]
    line_cuts = np.searchsorted(lead, cuts)
    marker_no = 0
    for a, first, stop in zip(cuts[:-1], line_cuts[:-1], line_cuts[1:]):
        if first == stop:
            continue
        if ib[a]:
            marker_no += 1
            write(b"    M%07d  'MARKER'                 'INTORG'\n" % marker_no)
        _write_lines(write, first, stop, parts)
        if ib[a]:
            marker_no += 1
            write(b"    M%07d  'MARKER'                 'INTEND'\n" % marker_no)

    write(b"RHS\n")
    rhs_rows = np.concatenate([lp.b_g(), lp.b_h()])
    rhs_row = 1 + np.flatnonzero(rhs_rows)
    rhs_vals = rhs_rows[rhs_row - 1]
    if lp.objective_constant != 0.0:
        rhs_row = np.concatenate([[0], rhs_row])
        rhs_vals = np.concatenate([[-lp.objective_constant], rhs_vals])
    lead, parts = _entry_parts(np.array([b"RHS".ljust(10)]), np.zeros(len(rhs_row), np.int64),
                               row_pad_table, rhs_row, rhs_vals)
    _write_lines(write, 0, len(lead), parts)

    write(b"RANGES\n")  # no ranged rows in these models; section kept for shape

    write(b"BOUNDS\n")
    lb, ub = lp.lb, lp.ub
    lo_fin = np.isfinite(lb)
    hi_fin = np.isfinite(ub)
    fixed = ~is_binary & lo_fin & hi_fin & (lb == ub)
    # each column has up to two lines, a first one and then UP: kind 0 is none
    kind = np.zeros((n, 2), dtype=np.int8)
    kind[is_binary, 0] = 1
    kind[fixed, 0] = 2
    kind[~is_binary & ~lo_fin & ~hi_fin, 0] = 3
    kind[~is_binary & ~lo_fin & hi_fin, 0] = 4
    kind[~is_binary & ~fixed & lo_fin & (lb != 0.0), 0] = 5
    kind[~is_binary & ~fixed & hi_fin, 1] = 6
    line = np.flatnonzero(kind.ravel())
    col, kind = line // 2, kind.ravel()[line]
    valued = (kind == 2) | (kind >= 5)  # FX, LO and UP lines end in a value
    plain, _, inv = _fmt_values(np.where(kind == 6, ub[col], lb[col])[valued])
    value = np.zeros(len(line), dtype=plain.dtype)
    value[valued] = plain[inv]
    heads = np.array([b"", b" BV BND       ", b" FX BND       ", b" FR BND       ",
                      b" MI BND       ", b" LO BND       ", b" UP BND       "])

    def bound_parts(a, b):
        c = col[a:b]
        return (heads[kind[a:b]], np.where(valued[a:b], col_pad_table[c], col_names[c]),
                value[a:b])

    _write_lines(write, 0, len(line), bound_parts)
    write(b"ENDATA\n")


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
    toggle integrality exactly as the format prescribes. The objective is
    the first N row, and only its RHS entry sets objective_constant; every
    N row counts in objective_rows. The file (a path or a text handle) is
    read one line at a time.
    """
    if hasattr(path, "read"):
        return _summarize(path)
    with open(path) as fh:
        return _summarize(fh)


def _summarize(lines) -> MpsSummary:
    summary = MpsSummary()
    section = None
    objective = None  # the first N row; later N rows are free rows
    seen_cols: dict[str, bool] = {}
    integral = False
    entries = 0
    for line in lines:
        tokens = line.split()
        if not tokens or tokens[0][0] == "*":  # blank or comment
            continue
        if line[0] not in " \t":
            keyword = tokens[0].upper()
            if keyword == "NAME":
                summary.name = tokens[1] if len(tokens) > 1 else ""
                continue
            if keyword == "ENDATA":
                break
            section = keyword
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                marker = tokens[-1].upper()
                if marker == "'INTORG'":
                    integral = True
                elif marker == "'INTEND'":
                    integral = False
                continue
            seen_cols.setdefault(tokens[0], integral)
            for value in tokens[2::2]:  # (len - 1) // 2 name/value pairs
                float(value)  # malformed values should not pass silently
            entries += (len(tokens) - 1) // 2
        elif section == "ROWS":
            sense, name = tokens[0].upper(), tokens[1]
            if sense == "N":
                summary.objective_rows += 1
                if objective is None:
                    objective = name
            elif sense == "G":
                summary.g_rows += 1
            elif sense == "L":
                summary.l_rows += 1
            elif sense == "E":
                summary.e_rows += 1
            else:
                raise ValueError(f"unknown row sense {sense!r}")
        elif section == "RHS":
            for p in range(1, len(tokens) - 1, 2):
                if tokens[p] == objective:
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
    summary.entries = entries
    summary.columns = len(seen_cols)
    summary.binary_columns = sum(seen_cols.values())
    return summary
