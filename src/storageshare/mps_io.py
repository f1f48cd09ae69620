"""Fixed-format MPS export plus an independent reader for round-trips.

The writer emits ROWS/COLUMNS/RHS/RANGES/BOUNDS sections with classic
column offsets, names X/R/E-prefixed by index so files are byte-stable
for a given model; the names are filled in as digit bytes of one byte
matrix. Binary columns are wrapped in INTORG/INTEND marker lines. Past
arrays of one item per row or column, the writer holds the entries in
column order, transposed once per export by a stable counting sort over
slices of storage order: each entry's row (int32) and the index of its
value in one table of the model's distinct values (uint8 up to 256 of
them), plus the lines of one chunk of whole columns (about `_CHUNK`
entries). Each field of a line is gathered from a NUL-padded byte table
straight into its columns of one preallocated byte matrix, written with
the NULs dropped; a line's second row name is one field with the
separator before it. A value is written with %.12g, padded to 12
characters where another field follows it; a value longer than 12
characters is written whole.

The reader shares no code or constants with the writer and reports
counts, which is what round-trip checks compare. It reads the file in
blocks of bytes cut after their last line end, splits each block into
tokens at the whitespace bytes.split() uses, and reads header lines one
at a time but each section's data lines as arrays. Every value field is
parsed as a float by numpy with float()'s grammar; a block mostly
repeats few values, so each distinct value token of a block is parsed
once (found by np.unique, which numpy >= 2.3 runs by hash), unless a
sample of the block's tokens shows them mostly distinct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lp import LinearProgram
from .mpec import MilpModel

_OBJ = b"OBJ"
_CHUNK = 1 << 16  # COLUMNS entries written at a time, rounded to whole columns


def _ljust(arr, width):
    # np.strings.ljust raises on an empty array
    return np.strings.ljust(arr, width) if arr.size else arr


def _names(prefix: bytes, index: np.ndarray) -> np.ndarray:
    """prefix + each index zero-filled to 7 digits. Below 10**7 the digits
    are written into one byte matrix, a name per row, by // 10**k % 10; a
    larger index takes numpy's int-to-bytes conversion and zfill."""
    index = np.asarray(index)
    if index.size and index.max() >= 10**7:
        return np.strings.add(prefix, np.strings.zfill(index.astype("S"), 7))
    p = len(prefix)
    cells = np.empty((len(index), p + 7), dtype=np.uint8)
    cells[:, :p] = np.frombuffer(prefix, dtype=np.uint8)
    for k in range(7):
        cells[:, p + 6 - k] = index // 10**k % 10 + ord("0")
    return cells.view(f"S{p + 7}").ravel()


def _table(strings: np.ndarray) -> np.ndarray:
    """The bytes of a 1-byte string array, one NUL-padded row per string,
    and one all-NUL row last: index -1 is an empty field."""
    return np.concatenate([strings, [b""]]).view(np.uint8).reshape(len(strings) + 1, -1)


def _fmt_values(uniq: np.ndarray) -> np.ndarray:
    """%.12g renderings of sorted distinct values: a `_table` whose first u
    rows are the u renderings and next u rows the same padded to 12
    characters. A value's row is its np.searchsorted index in uniq."""
    rendered = np.strings.mod(b"%.12g", uniq)
    return _table(np.concatenate([rendered, _ljust(rendered, 12)]))


def _write_lines(write, *fields) -> None:
    """Write one line per index. A field is bytes, the same on every line,
    or (table, index): line i takes row index[i] of a `_table`. The fields
    are gathered into their columns of one byte matrix, a line per row,
    and the NULs dropped."""
    count = next(len(f[1]) for f in fields if not isinstance(f, bytes))
    fields = (*fields, b"\n")
    widths = [len(f) if isinstance(f, bytes) else f[0].shape[1] for f in fields]
    cells = np.empty((count, sum(widths)), dtype=np.uint8)
    at = 0
    for f, w in zip(fields, widths):
        if isinstance(f, bytes):
            cells[:, at:at + w] = np.frombuffer(f, dtype=np.uint8)
        else:  # "wrap" as mode "raise" buffers out; an index is in range or -1,
            # the table's all-NUL last row
            np.take(f[0], f[1], axis=0, out=cells[:, at:at + w], mode="wrap")
        at += w
    write(cells.tobytes().translate(None, b"\0"))


def _write_pairs(write, first, row_tabs, row, val_tab, val, lead, two) -> None:
    """Write entries two per line: line i holds entry lead[i], and entry
    lead[i] + 1 too where two[i]. An entry is (row row[k] of a row name
    table, row val[k] of the `_fmt_values` table val_tab); first is the
    field before them. row_tabs are the name tables of a line's first and
    second entry, the second with the separator before the name."""
    nxt = np.where(two, lead + 1, lead)
    none = np.intp(-1)  # a typed -1: a python -1 would wrap in an unsigned val
    _write_lines(write, b"    ", first, (row_tabs[0], row[lead]),
                 (val_tab, val[lead] + two * (len(val_tab) // 2)),
                 (row_tabs[1], np.where(two, row[nxt], none)),
                 (val_tab, np.where(two, val[nxt], none)))


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


def _by_column(sources, n: int):
    """The entries of stacked CSR sources, each (first row, indptr, indices,
    data), in column order: (col_ptr, row, val, uniq). Column j's entries
    are col_ptr[j] .. col_ptr[j + 1] - 1, in stacked row order; row holds
    each entry's row (int32) and val the index of its value in uniq, the
    sorted distinct values (in the smallest unsigned dtype that holds it).
    A stable counting sort: storage order is cut into slices of at most
    `_CHUNK` entries, each slice is sorted by (column, position) packed
    into one int64 key, and its entries are scattered to the next free
    places of their columns."""
    width = max(1, min(_CHUNK, sum(len(src[2]) for src in sources)))
    cuts = [(src, a, min(a + width, len(src[2])))
            for src in sources for a in range(0, len(src[2]), width)]
    uniq = np.unique(np.concatenate([np.empty(0)] + [np.unique(d[a:b])
                                                     for (*_, d), a, b in cuts]))
    counts = sum(np.bincount(src[2], minlength=n) for src in sources)
    col_ptr = np.concatenate([[0], np.cumsum(counts)])
    row = np.empty(col_ptr[-1], np.int32)
    val = np.empty(col_ptr[-1], np.min_scalar_type(max(len(uniq) - 1, 0)))
    free = col_ptr[:-1].copy()
    shift = width.bit_length()
    for (row0, indptr, indices, data), a, b in cuts:
        # each row the slice touches, once per entry of it inside the slice
        r0 = int(np.searchsorted(indptr, a, side="right")) - 1
        r1 = int(np.searchsorted(indptr, b))
        rows = np.repeat(np.arange(row0 + r0, row0 + r1, dtype=np.int32),
                         np.diff(np.clip(indptr[r0:r1 + 1], a, b)))
        key = np.sort(indices[a:b].astype(np.int64) << shift | np.arange(b - a))
        col, pos = key >> shift, key & ((1 << shift) - 1)
        run = np.flatnonzero(np.diff(col, prepend=-1))
        size = np.diff(run, append=len(col))
        dest = np.repeat(free[col[run]] - run, size) + np.arange(len(col))
        free[col[run]] += size
        row[dest] = rows[pos]
        val[dest] = np.searchsorted(uniq, data[a:b])[pos]
    return col_ptr, row, val, uniq


def _write_model(lp: LinearProgram, binary_cols: np.ndarray, write) -> None:
    n = lp.n_vars
    col_names = _names(b"X", np.arange(n))
    row_names = np.concatenate([[_OBJ], _names(b"R", np.arange(lp.n_g)),
                                _names(b"E", np.arange(lp.n_h))])
    row_tab = _table(row_names)
    # a line's first row name, and its second with the separator before it
    row_pad = _ljust(row_names, 10)
    row_tabs = (_table(row_pad), _table(np.strings.add(b"   ", row_pad)))
    del row_pad
    col_pad_tab = _table(_ljust(col_names, 10))
    is_binary = np.zeros(n, dtype=bool)
    is_binary[binary_cols] = True

    write(b"NAME".ljust(14) + _sanitize(lp.name).encode() + b"\nROWS\n N  " + _OBJ + b"\n")
    _write_lines(write, b" G  ", (row_tab, np.arange(1, 1 + lp.n_g)))
    _write_lines(write, b" E  ", (row_tab, np.arange(1 + lp.n_g, len(row_names))))
    del row_tab

    # the objective, g and h entries stacked in that order, row 0 being OBJ
    c_cols = np.flatnonzero(lp.c)
    col_ptr, row, val, uniq = _by_column(
        [(0, np.array([0, len(c_cols)]), c_cols, lp.c[c_cols]),
         (1, lp.g.indptr, lp.g.indices, lp.g.data),
         (1 + lp.g.n_rows, lp.h.indptr, lp.h.indices, lp.h.data)], n)
    val_tab = _fmt_values(uniq)

    write(b"COLUMNS\n")
    # integrality markers around maximal runs of binary-column entries: a
    # chunk holds columns of one kind, and the run state carries across
    ends = np.append(np.flatnonzero(is_binary[1:] != is_binary[:-1]) + 1, n)
    j, marker_no, integral = 0, 0, False
    while j < n:
        fill = int(np.searchsorted(col_ptr, col_ptr[j] + _CHUNK, side="right")) - 1
        stop = min(int(ends[np.searchsorted(ends, j, side="right")]), max(j + 1, fill))
        a, b = col_ptr[j], col_ptr[stop]
        if b > a and integral != is_binary[j]:
            integral, marker_no = not integral, marker_no + 1
            write(b"    M%07d  'MARKER'                 '%s'\n"
                  % (marker_no, b"INTORG" if integral else b"INTEND"))
        # a column's entries go two per line from its first one
        size = np.diff(col_ptr[j:stop + 1])
        lines = (size + 1) // 2
        before = np.cumsum(lines) - lines
        lead = np.repeat(col_ptr[j:stop] - a - 2 * before, lines) + 2 * np.arange(lines.sum())
        two = np.ones(len(lead), dtype=bool)
        two[(before + lines - 1)[size % 2 == 1]] = False
        _write_pairs(write, (col_pad_tab, np.repeat(np.arange(j, stop), lines)), row_tabs,
                     row[a:b], val_tab, val[a:b], lead, two)
        j = stop
    if integral:
        write(b"    M%07d  'MARKER'                 'INTEND'\n" % (marker_no + 1))
    del row, val  # the BOUNDS tables would otherwise set the peak

    write(b"RHS\n")
    rhs_rows = np.concatenate([lp.b_g, lp.b_h])
    rhs_row = 1 + np.flatnonzero(rhs_rows)
    rhs_vals = rhs_rows[rhs_row - 1]
    if lp.objective_constant != 0.0:
        rhs_row = np.concatenate([[0], rhs_row])
        rhs_vals = np.concatenate([[-lp.objective_constant], rhs_vals])
    uniq = np.unique(rhs_vals)
    lead = np.arange(0, len(rhs_row), 2)
    _write_pairs(write, b"RHS".ljust(10), row_tabs, rhs_row, _fmt_values(uniq),
                 np.searchsorted(uniq, rhs_vals), lead, lead + 1 < len(rhs_row))

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
    values = np.where(kind == 6, ub[col], lb[col])
    uniq = np.unique(values)
    tab, inv = _fmt_values(uniq), np.searchsorted(uniq, values)
    heads = _table(np.array([b"", b" BV BND       ", b" FX BND       ", b" FR BND       ",
                             b" MI BND       ", b" LO BND       ", b" UP BND       "]))
    # a name is padded to 10 characters only where a value follows it
    names = _table(np.concatenate([col_names, _ljust(col_names, 10)]))
    _write_lines(write, (heads, kind), (names, col + n * valued),
                 (tab, np.where(valued, inv, -1)))
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


_READ_BLOCK = 1 << 18  # kept small: the read's peak memory is a few blocks
_SAMPLE = 256  # value tokens per length sampled for how many are distinct


def read_mps(path) -> MpsSummary:
    """Parse an MPS file independently of the writer and return counts.

    Only the structure is recovered: row counts by sense, column and
    binary-column counts, and entry tallies per section. Marker lines
    toggle integrality exactly as the format prescribes. The objective is
    the first N row, and only its RHS entry sets objective_constant; every
    N row counts in objective_rows. Every value field is parsed as a float,
    so a malformed one raises ValueError. The file (a path, or a text
    handle with `read`) is read `_READ_BLOCK` bytes or characters at a time.
    """
    if hasattr(path, "read"):
        return _Reader().summarize(lambda: path.read(_READ_BLOCK).encode())
    with open(path, "rb") as fh:
        return _Reader().summarize(lambda: fh.read(_READ_BLOCK))


def _blocks(read):
    """Blocks of whole lines from read() until it returns b"": each read is
    cut after its last line end and the rest carried into the next block.
    The last block gets a line end if the file lacks one."""
    carry: list[bytes] = []
    for block in iter(read, b""):
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if cut:
            yield b"".join([*carry, block[:cut]])
            carry = [block[cut:]]
        else:
            carry.append(block)
    if any(carry):
        yield b"".join([*carry, b"\n"])


class _Block:
    """The whitespace-separated tokens of a block of whole lines: token i
    is text[start[i]:start[i] + size[i]]. Lines are the block's non-blank
    lines that are not comments; line k's tokens are first[k] ..
    first[k] + count[k] - 1, and header[k] says whether it starts in
    column 1."""

    def __init__(self, text: bytes):
        self.text = text
        self.cells = cells = np.frombuffer(text, dtype=np.uint8)
        # the bytes bytes.split() splits at: space and \t \n \v \f \r (9..13)
        space = (cells == ord(" ")) | (cells - np.uint8(9) <= 4)
        # token edges alternate start, end: the block ends with a line end
        edges = np.flatnonzero(np.diff(~space, prepend=False, append=False))
        self.start = edges[0::2]
        self.size = edges[1::2] - self.start
        # line ends as text mode reads them: \n, \r and \r\n (an empty line)
        ends = np.flatnonzero((cells == ord("\n")) | (cells == ord("\r")))
        # line j runs up to ends[j]; its tokens are bound[j] .. bound[j + 1] - 1
        bound = np.concatenate([[0], np.searchsorted(self.start, ends)])
        count = np.diff(bound)
        lead = cells[np.concatenate([[0], ends[:-1] + 1])]  # each line's first byte
        keep = count > 0
        first, count, lead = bound[:-1][keep], count[keep], lead[keep]
        keep = cells[self.start[first]] != ord("*")  # comments
        self.first, self.count, lead = first[keep], count[keep], lead[keep]
        self.header = (lead != ord(" ")) & (lead != ord("\t"))

    def token(self, i) -> bytes:
        return self.text[self.start[i]:self.start[i] + self.size[i]]

    def window(self, w) -> np.ndarray:
        """Row i is the w bytes from byte i on: a view of the text."""
        return np.ndarray((len(self.text) - w + 1, w), np.uint8, self.text, strides=(1, 1))

    def by_size(self, idx, extra=0):
        """For each length w among the tokens idx: the ascending positions
        in idx of the k tokens that have it, and the (k, w + extra) bytes
        that start where those tokens start."""
        if not len(idx):
            return
        start, size = self.start[idx], self.size[idx] + extra
        order = np.argsort(size, kind="stable")
        size = size[order]
        cut = (np.flatnonzero(size[1:] != size[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cut], [*cut, len(order)]):
            pick = order[lo:hi]
            yield pick, self.window(int(size[lo]))[start[pick]]

    def check_floats(self, idx) -> None:
        """float() every token in idx; a malformed one raises ValueError.
        A block mostly repeats few values, so each length's distinct
        tokens (np.unique of its bytes) are parsed, once each. The saving
        rests on numpy >= 2.3, whose np.unique drops duplicates by hash
        and sorts only the distinct tokens; an older numpy sorts every
        token first. np.unique costs more than it saves where most tokens
        differ, so a length whose evenly spaced sample of _SAMPLE tokens
        is more than half distinct is parsed whole. Each token is parsed
        with the whitespace byte after it, which float() ignores, so
        numpy's strip of trailing NULs cannot pass a token that ends in
        one."""
        for _, cells in self.by_size(idx, extra=1):
            tokens = cells.view(f"S{cells.shape[1]}").ravel()
            sample = tokens[:: -(-len(tokens) // _SAMPLE)]
            if 2 * len(np.unique(sample)) <= len(sample):
                tokens = np.unique(tokens)
            tokens.astype(float)

    def equals(self, idx, word: bytes) -> np.ndarray:
        """Whether each token in idx is exactly word: only the tokens of
        its length whose first byte is word's are compared whole."""
        start = self.start[idx]
        hit = (self.size[idx] == len(word)) & (self.cells[start] == word[0])
        if hit.any():
            cells = self.window(len(word))[start[hit]]
            hit[hit] = (cells == np.frombuffer(word, dtype=np.uint8)).all(axis=1)
        return hit

    def differs_from_previous(self, idx) -> np.ndarray:
        """Whether each token in idx differs from the one before it in idx.
        Each length's tokens are gathered once, and each is compared with
        the one before it in that gather where that one is its predecessor
        in idx."""
        new = np.ones(len(idx), dtype=bool)
        for pick, cells in self.by_size(idx):
            after = np.flatnonzero(pick[1:] == pick[:-1] + 1)
            rows = cells.view(f"S{cells.shape[1]}").ravel()
            new[pick[after + 1]] = rows[after + 1] != rows[after]
        return new


def _pair_names(first, count):
    """Token index of each name in the (name, value) pairs that follow a
    line's first token: (count - 1) // 2 pairs per line."""
    pairs = (count - 1) // 2
    offset = np.repeat(first + 1 - 2 * (np.cumsum(pairs) - pairs), pairs)
    return offset + 2 * np.arange(len(offset))


class _Reader:
    """Section state carried from block to block of one file."""

    def __init__(self):
        self.summary = MpsSummary()
        self.section = None
        self.objective = None  # the first N row; later N rows are free rows
        self.integral = False
        # column names by length w: (k, w) bytes and whether each was integral
        self.names: dict[int, list] = {}

    def summarize(self, read) -> MpsSummary:
        for text in _blocks(read):
            if self.read_block(_Block(text)):
                break
        summary = self.summary
        for parts in self.names.values():
            names, integral = (np.concatenate(part) for part in zip(*parts))
            # a column is integral if it was where its name first appears
            _, first = np.unique(names.view(f"V{names.shape[1]}"), return_index=True)
            summary.columns += len(first)
            summary.binary_columns += int(np.count_nonzero(integral[first]))
        return summary

    def read_block(self, b: _Block) -> bool:
        """Read one block's lines; True once ENDATA is reached. Header
        lines are few, so they are read one at a time; the data lines
        between them go to their section's handler together."""
        done = 0
        for k in [*np.flatnonzero(b.header).tolist(), len(b.first)]:
            if k > done:
                self.data(b, b.first[done:k], b.count[done:k])
            if k == len(b.first):
                break
            keyword = b.token(b.first[k]).decode().upper()
            if keyword == "NAME":
                self.summary.name = b.token(b.first[k] + 1).decode() if b.count[k] > 1 else ""
            elif keyword == "ENDATA":
                return True
            else:
                self.section = keyword
            done = k + 1
        return False

    def data(self, b, first, count) -> None:
        if self.section is None:
            raise ValueError("data line before any section header")
        handler = self.HANDLERS.get(self.section)
        if handler is not None:  # data of other sections is skipped
            handler(self, b, first, count)

    def rows(self, b, first, count) -> None:
        if np.any(count < 2):
            raise ValueError("ROWS line without a row name")
        sense = b.cells[b.start[first]] & 0xDF  # ASCII upper case
        known = (b.size[first] == 1) & np.isin(sense, list(b"NGLE"))
        if not known.all():
            bad = b.token(first[np.argmin(known)]).decode().upper()
            raise ValueError(f"unknown row sense {bad!r}")
        s = self.summary
        n, g, l, e = (int(np.count_nonzero(sense == c)) for c in b"NGLE")
        s.objective_rows += n
        s.g_rows += g
        s.l_rows += l
        s.e_rows += e
        if self.objective is None and n:
            self.objective = b.token(first[np.argmax(sense == ord("N"))] + 1)

    def columns(self, b, first, count) -> None:
        # integrality holds from one marker line to the next
        marker = count >= 3
        marker[marker] = b.equals(first[marker] + 1, b"'MARKER'")
        integral = np.full(len(first), self.integral)
        for k in np.flatnonzero(marker).tolist():
            word = b.token(first[k] + count[k] - 1).decode().upper()
            if word in ("'INTORG'", "'INTEND'"):
                self.integral = word == "'INTORG'"
                integral[k:] = self.integral
        first, count, integral = first[~marker], count[~marker], integral[~marker]
        # a column's lines run together, so one name per run is kept
        new = b.differs_from_previous(first)
        for pick, cells in b.by_size(first[new]):
            self.names.setdefault(cells.shape[1], []).append((cells, integral[new][pick]))
        names = _pair_names(first, count)
        b.check_floats(names + 1)
        self.summary.entries += len(names)

    def rhs(self, b, first, count) -> None:
        names = _pair_names(first, count)
        b.check_floats(names + 1)
        self.summary.rhs_entries += len(names)
        if self.objective is not None:
            hit = np.flatnonzero(b.equals(names, self.objective))
            if hit.size:
                self.summary.objective_constant = -float(b.token(names[hit[-1]] + 1))

    def ranges(self, b, first, count) -> None:
        names = _pair_names(first, count)
        b.check_floats(names + 1)
        self.summary.range_entries += len(names)

    def bounds(self, b, first, count) -> None:
        b.check_floats(first[count >= 4] + 3)  # BV, FR and MI lines may have no value
        s = self.summary
        s.bound_entries += len(first)
        for _, cells in b.by_size(first):
            kinds, n = np.unique(cells.view(f"V{cells.shape[1]}"), return_counts=True)
            for kind, k in zip(kinds.tolist(), n.tolist()):
                key = kind.decode().upper()
                s.bound_types[key] = s.bound_types.get(key, 0) + k

    # plain functions, not bound methods: a reader holds no reference to
    # itself, so what it holds is freed as soon as the read returns
    HANDLERS = {"ROWS": rows, "COLUMNS": columns, "RHS": rhs, "RANGES": ranges, "BOUNDS": bounds}
