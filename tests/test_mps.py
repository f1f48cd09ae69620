import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from storageshare import mps_io
from storageshare.instance import make_instance
from storageshare.mpec import MilpModel, assemble_mpec, linearize_big_m
from storageshare.mps_io import MpsSummary, export_mps, read_mps
from storageshare.synthetic import synth_series
from tests.conftest import division_fixture, fleet_instance, rand_instance
from tests.lp_oracle import make_lp, read_mps_lines, write_mps_lines


def random_lp(rng, n=None, mg=None, mh=None):
    n = n or int(rng.integers(2, 9))
    mg = mg if mg is not None else int(rng.integers(1, 6))
    mh = mh if mh is not None else int(rng.integers(0, 3))
    a_ub = np.where(rng.random((mg, n)) < 0.5, rng.normal(size=(mg, n)), 0.0)
    a_ub[np.arange(mg), rng.integers(0, n, mg)] = 1.0  # no empty rows
    a_eq = None
    b_eq = None
    if mh:
        a_eq = rng.normal(size=(mh, n))
        b_eq = rng.normal(size=mh)
    lb = np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-1.0, 0.5, n))
    ub = np.where(rng.random(n) < 0.3, np.inf, rng.uniform(1.0, 3.0, n))
    return make_lp(
        c=rng.uniform(0.5, 2.0, n),  # nonzero so every column is emitted
        a_ub=a_ub,
        b_ub=rng.normal(size=mg),
        a_eq=a_eq,
        b_eq=b_eq,
        lb=lb,
        ub=np.maximum(ub, lb),
        name=f"rand{int(rng.integers(1e6))}",
    )


def exported_text(model) -> str:
    buf = io.StringIO()
    export_mps(model, buf)
    return buf.getvalue()


def test_one_variable_layout():
    lp = make_lp(c=np.array([1.0]), a_ub=np.array([[1.0]]),
                 b_ub=np.array([0.0]), name="one")
    text = exported_text(lp)
    lines = text.splitlines()
    for section in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"):
        assert section in lines
    assert sum(1 for ln in lines if ln.startswith(" N ")) == 1
    assert sum(1 for ln in lines if ln.startswith(" G ")) == 1
    col_block = lines[lines.index("COLUMNS") + 1: lines.index("RHS")]
    assert len(col_block) == 1  # both entries fit one line
    assert col_block[0].startswith("    X0000000  OBJ")


def test_round_trip_counts_random(rng):
    for _ in range(8):
        lp = random_lp(rng)
        summary = read_mps(io.StringIO(exported_text(lp)))
        assert summary.g_rows == lp.n_g
        assert summary.e_rows == lp.n_h
        assert summary.objective_rows == 1
        assert summary.columns == lp.n_vars
        assert summary.binary_columns == 0
        nnz = int(np.count_nonzero(lp.c))
        nnz += sum(len(ix) for ix in lp.g_idx)
        nnz += sum(len(ix) for ix in lp.h_idx)
        assert summary.entries == nnz
        want_rhs = int(np.count_nonzero(np.concatenate([lp.b_g, lp.b_h])))
        assert summary.rhs_entries == want_rhs
        assert summary.range_entries == 0


def test_division_model_markers():
    inst = division_fixture(207)
    milp = linearize_big_m(assemble_mpec(inst))
    text = exported_text(milp)
    assert text.count("'INTORG'") == 1
    assert text.count("'INTEND'") == 1
    summary = read_mps(io.StringIO(text))
    assert summary.binary_columns == len(milp.binary_cols)
    assert summary.columns == milp.lp.n_vars
    assert summary.g_rows == milp.lp.n_g
    assert summary.e_rows == milp.lp.n_h
    assert summary.bound_types.get("BV", 0) == len(milp.binary_cols)


def test_objective_constant_round_trip():
    lp = make_lp(c=np.array([1.0, 2.0]), a_ub=np.array([[1.0, 1.0]]),
                 b_ub=np.array([1.0]), lb=np.zeros(2), ub=np.ones(2),
                 objective_constant=3.25)
    summary = read_mps(io.StringIO(exported_text(lp)))
    assert summary.objective_constant == pytest.approx(3.25, abs=1e-12)


def test_export_is_byte_stable(rng):
    lp = random_lp(rng, n=6, mg=4, mh=1)
    assert exported_text(lp) == exported_text(lp)
    inst = division_fixture(202)
    a = exported_text(linearize_big_m(assemble_mpec(inst)))
    b = exported_text(linearize_big_m(assemble_mpec(division_fixture(202))))
    assert a == b


def test_writer_rejects_unknown_model():
    with pytest.raises(TypeError):
        export_mps(object(), io.StringIO())


def test_reader_rejects_malformed():
    with pytest.raises(ValueError):
        read_mps(io.StringIO("    X0  OBJ  1.0\nENDATA\n"))
    with pytest.raises(ValueError):
        read_mps(io.StringIO("ROWS\n Q  BADROW\nENDATA\n"))
    with pytest.raises(ValueError):
        read_mps(io.StringIO("ROWS\n N  OBJ\nCOLUMNS\n    X0  OBJ  oops\nENDATA\n"))
    with pytest.raises(ValueError):
        read_mps(io.StringIO("ROWS\n N\nENDATA\n"))
    with pytest.raises(ValueError):
        read_mps(io.StringIO("ROWS\n N  OBJ\nCOLUMNS\n    X1  OBJ  1\nBOUNDS\n"
                             " UP BND X1 abc\nENDATA\n"))


def test_values_written_whole():
    # a first value field of a paired line once lost every character past
    # the 12th: 1.23456789012e-07 came out as 1.2345678901
    c = np.array([1.23456789012e-07, -123456789012.0, -1.23456789012e-123])
    lp = make_lp(c, a_ub=[[1.0, 2.0, 3.0], [0.5, -1.0 / 3.0, 7.0]], b_ub=[1.0, 2.0],
                 lb=np.zeros(3), objective_constant=81.1752696902)
    lines = exported_text(lp).splitlines()
    a = np.vstack([lp.c, lp.g.dense(lp.n_vars)])
    rows = ["OBJ"] + [f"R{i:07d}" for i in range(lp.n_g)]
    seen = 0
    for line in lines[lines.index("COLUMNS") + 1: lines.index("RHS")]:
        tokens = line.split()
        j = int(tokens[0][1:])
        for row, value in zip(tokens[1::2], tokens[2::2]):
            assert float(value) == pytest.approx(a[rows.index(row), j], rel=1e-11, abs=0)
            seen += 1
    assert seen == np.count_nonzero(a)
    summary = read_mps(io.StringIO("\n".join(lines)))
    assert summary.objective_constant == pytest.approx(81.1752696902, rel=1e-11, abs=0)


def _milp(lp, binary_cols):
    return MilpModel(mpec=None, lp=lp, binary_cols=np.asarray(binary_cols),
                     m_omega=np.empty(0), m_slack=np.empty(0), pair_row0=lp.n_g)


# each model gives every column an entry, so every column is read back
EDGE_MODELS = {
    "no_e_rows": (make_lp([1.0, 2.0], a_ub=[[1.0, 1.0], [1.0, -1.0]], b_ub=[1.0, 0.5],
                          lb=[0.0, -1.0], ub=[2.0, np.inf]), {"UP": 1, "LO": 1}),
    "no_g_rows": (make_lp([1.0, -1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0], lb=[0.0, 0.0],
                          ub=[5.0, 5.0]), {"UP": 2}),
    "zero_rhs": (make_lp([1.0, 1.0], a_ub=[[1.0, -1.0]], b_ub=[0.0], a_eq=[[1.0, 2.0]],
                         b_eq=[0.0], lb=[-np.inf, 0.0]), {"FR": 1}),
    "no_bound_lines": (make_lp([1.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], lb=[0.0, 0.0]), {}),
    "last_column_binary": (_milp(make_lp([1.0, 0.0, 2.0], a_ub=[[1.0, 1.0, -4.0]], b_ub=[-1.0],
                                         a_eq=[[0.0, 1.0, 1.0]], b_eq=[1.0],
                                         lb=[0.0, -2.0, 0.0], ub=[1.0, 2.0, 1.0]), [2]),
                           {"UP": 2, "LO": 1, "BV": 1}),
    "constant_only_objective": (make_lp([0.0, 0.0], a_ub=[[1.0, 2.0]], b_ub=[1.0], lb=[0.0, 0.0],
                                        objective_constant=-7.5), {}),
}


@pytest.mark.parametrize("name", sorted(EDGE_MODELS))
def test_edge_case_round_trip(name, tmp_path):
    model, bound_types = EDGE_MODELS[name]
    lp = getattr(model, "lp", model)
    path = tmp_path / "model.mps"
    export_mps(model, path)
    text = exported_text(model)
    assert path.read_text() == text
    summary = read_mps(path)
    assert summary == read_mps(io.StringIO(text))
    assert (summary.objective_rows, summary.g_rows, summary.l_rows, summary.e_rows) == (
        1, lp.n_g, 0, lp.n_h)
    assert summary.columns == lp.n_vars
    assert summary.binary_columns == len(getattr(model, "binary_cols", ()))
    assert summary.entries == np.count_nonzero(lp.c) + len(lp.g.data) + len(lp.h.data)
    rhs = np.count_nonzero(np.concatenate([lp.b_g, lp.b_h]))
    assert summary.rhs_entries == rhs + (lp.objective_constant != 0.0)
    assert summary.objective_constant == lp.objective_constant
    assert summary.bound_types == bound_types
    assert summary.bound_entries == sum(bound_types.values())


def test_export_and_read_memory_stay_below_file_size(tmp_path):
    # the writer holds each entry's row and value index in column order,
    # name and value tables and one chunk of whole columns, the reader one
    # block of bytes: neither holds the text
    loads, lmp, tou = synth_series("typical", "conforming", n_customers=20, n_slots=48, seed=1)
    inst = make_instance(lmp=lmp, tou=tou, customer_load=loads, slot_hours=0.5,
                         total_capacity=160.0, eta_ch=0.92, eta_dis=0.92, power_ratio=0.25,
                         lambda1=0.8, lambda2=6.69, lambda3=1.0)
    milp = linearize_big_m(assemble_mpec(inst))
    path = tmp_path / "fleet.mps"
    tracemalloc.start()
    try:
        export_mps(milp, path)
        export_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        summary = read_mps(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert summary.binary_columns == milp.n_binaries
    assert export_peak <= 2 * size
    assert read_peak <= size


def test_fleet_export_memory_peak(tmp_path):
    # on top of the model it writes, the seed-1 fleet's export holds the
    # entries' rows (int32) and value indices (uint8) in column order, the
    # name tables and one chunk's lines: 24.4 MB at numpy 2.4.6, where an
    # argsort order by column and a per-entry row search peaked at 35.0 MB
    milp = linearize_big_m(assemble_mpec(fleet_instance()))
    tracemalloc.start()
    try:
        export_mps(milp, tmp_path / "fleet.mps")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 34e6


def test_fleet_models_hold_int32_column_ids():
    # the CSR arrays the seed-1 fleet's two models hold while it is
    # exported: 28,996,872 B with int32 column ids, 38,222,896 B with int64
    mpec = assemble_mpec(fleet_instance())
    milp = linearize_big_m(mpec)
    held = sum(a.nbytes for rows in (mpec.lp.g, mpec.lp.h, milp.lp.g)
               for a in (rows.indptr, rows.indices, rows.data))
    assert held <= 29.5e6


READER_CASES = {
    "comments_and_blanks": (
        "* leading comment\n"
        "NAME          DEMO\n"
        "\n"
        "ROWS\n"
        " N  COST\n"
        "   * indented comment\n"
        " G  LIM1\n"
        " L  LIM2\n"
        " E  MYEQN\n"
        "COLUMNS\n"
        "    X1        COST      1.0          LIM1      1.0\n"
        "\n"
        "    X1        LIM2      1.0\n"
        "    X2        COST      2.0          LIM2      1.0\n"
        "    X3        MYEQN     -1.0\n"
        "RHS\n"
        "    RHS       LIM1      4.0          LIM2      1.0\n"
        "    RHS       MYEQN     7.0\n"
        "BOUNDS\n"
        " UP BND       X1        4.0\n"
        " MI BND       X2\n"
        " UP BND       X2        1.0\n"
        " FR BND       X3\n"
        "ENDATA\n",
        MpsSummary(name="DEMO", objective_rows=1, g_rows=1, l_rows=1, e_rows=1, columns=3,
                   entries=6, rhs_entries=3, bound_entries=4,
                   bound_types={"UP": 2, "MI": 1, "FR": 1})),
    "tabs_and_empty_name": (
        "NAME\n"
        "ROWS\n"
        "\tN\tOBJ\n"
        "\tG\tR1\n"
        "COLUMNS\n"
        "\tX1\tOBJ\t1.5\tR1\t2\n"
        "\tX2\tR1\t-1\n"
        "RHS\n"
        "\tRHS\tR1\t3\n"
        "ENDATA\n",
        MpsSummary(name="", objective_rows=1, g_rows=1, columns=2, entries=3, rhs_entries=1)),
    # a line with an even token count counts its complete name/value pairs
    "even_tokens_and_markers": (
        "NAME          EVEN\n"
        "ROWS\n"
        " N  OBJ\n"
        " G  R1\n"
        " G  R2\n"
        "COLUMNS\n"
        "    X1        OBJ       1            R1\n"
        "    M1        'MARKER'                 'INTORG'\n"
        "    Y1        OBJ       1            R1        2\n"
        "    Y1        R2        1\n"
        "    Y2        R2\n"
        "    M2        'MARKER'                 'INTEND'\n"
        "    X2        R2        1            R1        1        OBJ\n"
        "RHS\n"
        "    RHS       R1        1            R2\n"
        "BOUNDS\n"
        " BV BND       Y1\n"
        " BV BND       Y2\n"
        " LO BND       X1        -1\n"
        " FX BND       X2        2\n"
        "ENDATA\n",
        MpsSummary(name="EVEN", objective_rows=1, g_rows=2, columns=4, binary_columns=2,
                   entries=6, rhs_entries=1, bound_entries=4,
                   bound_types={"BV": 2, "LO": 1, "FX": 1})),
    # the last objective-row RHS entry sets the constant; nothing after ENDATA is read
    "ranges_and_objective_constant": (
        "NAME          RNG extra words\n"
        "ROWS\n"
        " N  OBJ\n"
        " N  OBJ2\n"
        " G  R1\n"
        " E  R2\n"
        " L  R3\n"
        "COLUMNS\n"
        "    X1        OBJ       1            R1        1\n"
        "    X1        R2        1            R3        1\n"
        "RHS\n"
        "    RHS       OBJ       -2.5         R1        1\n"
        "    RHS       R2        3            OBJ2      4\n"
        "RANGES\n"
        "    RNG       R1        2            R3        5\n"
        "    RNG       R2        1\n"
        "BOUNDS\n"
        " UP BND       X1        9\n"
        "ENDATA\n"
        "    X9        OBJ       1\n",
        MpsSummary(name="RNG", objective_rows=2, g_rows=1, l_rows=1, e_rows=1, columns=1,
                   entries=4, rhs_entries=4, range_entries=3, bound_entries=1,
                   objective_constant=2.5, bound_types={"UP": 1})),
    # the first N row is the objective, even when a later free row's RHS
    # entry comes first
    "free_row_rhs_before_objective": (
        "NAME          FREE\n"
        "ROWS\n"
        " N  COST\n"
        " N  FREE\n"
        " L  LIM\n"
        "COLUMNS\n"
        "    X1        COST      1            FREE      2\n"
        "    X1        LIM       1\n"
        "RHS\n"
        "    RHS       FREE      7            COST      -1.5\n"
        "    RHS       LIM       4\n"
        "ENDATA\n",
        MpsSummary(name="FREE", objective_rows=2, l_rows=1, columns=1, entries=3,
                   rhs_entries=3, objective_constant=1.5)),
}
READER_CASES["crlf"] = (READER_CASES["comments_and_blanks"][0].replace("\n", "\r\n"),
                        READER_CASES["comments_and_blanks"][1])


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_reader_summaries(name, tmp_path):
    text, expected = READER_CASES[name]
    assert read_mps(io.StringIO(text)) == expected
    path = tmp_path / "case.mps"
    path.write_text(text)
    assert read_mps(path) == expected


def test_fleet_mps_bytes_are_pinned(tmp_path):
    # the seed-1 fleet (100 customers x 48 half-hour slots, 800 kWh) as
    # the benchmark exports it; the tree solvers' chord rows live in their
    # own copy of the LP and never reach the model or its MPS bytes
    loads, lmp, tou = synth_series("typical", "conforming", n_customers=100,
                                   n_slots=48, seed=1)
    inst = make_instance(lmp=lmp, tou=tou, customer_load=loads, slot_hours=0.5,
                         total_capacity=800.0, eta_ch=0.92, eta_dis=0.92, power_ratio=0.25,
                         lambda1=0.8, lambda2=6.69, lambda3=1.0)
    path = tmp_path / "fleet.mps"
    export_mps(linearize_big_m(assemble_mpec(inst)), path)
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    assert digest.hexdigest() == (
        "8c03334398266478a0985b74bc23d1692bde4ba03524c4dffe55e57dd1dcca35")
    assert read_mps(path) == MpsSummary(
        name="DIVISION", objective_rows=1, g_rows=116_113, e_rows=9_997, columns=87_475,
        binary_columns=38_688, entries=1_763_670, rhs_entries=58_234, bound_entries=48_787,
        objective_constant=4380.06287239, bound_types={"FR": 9_998, "UP": 101, "BV": 38_688})


# block sizes that cut lines, tokens, marker lines and section headers,
# and the default
@pytest.mark.parametrize("block", [1, 7, 64, 4096, None])
def test_block_reader_matches_line_reference(block, rng, monkeypatch, tmp_path):
    if block is not None:
        monkeypatch.setattr(mps_io, "_READ_BLOCK", block)
    texts = [text for text, _ in READER_CASES.values()]
    texts += [exported_text(model) for model, _ in EDGE_MODELS.values()]
    texts += [exported_text(random_lp(rng)) for _ in range(50)]
    path = tmp_path / "case.mps"
    for text in texts:
        path.write_text(text)
        assert read_mps(io.StringIO(text)) == read_mps_lines(io.StringIO(text))
        assert read_mps(path) == read_mps_lines(path)


# chunk sizes that cut between columns, inside a binary-column run and
# inside one column's entries, and the default
@pytest.mark.parametrize("chunk", [1, 2, 7, 64, None])
def test_chunked_writer_matches_one_chunk(chunk, rng, monkeypatch):
    milp = linearize_big_m(assemble_mpec(division_fixture(207)))
    lp = milp.lp
    binary_entries = np.isin(np.concatenate([lp.g.indices, lp.h.indices]), milp.binary_cols)
    assert np.count_nonzero(binary_entries) > 64
    models = [model for model, _ in EDGE_MODELS.values()]
    models += [random_lp(rng) for _ in range(50)]
    models += [milp, make_lp([1.0, 2.0], a_ub=np.ones((100, 2)), b_ub=np.arange(100.0))]
    monkeypatch.setattr(mps_io, "_CHUNK", 1 << 62)  # every column in one chunk
    expected = [exported_text(model) for model in models]
    monkeypatch.undo()
    if chunk is not None:
        monkeypatch.setattr(mps_io, "_CHUNK", chunk)
    for model, text in zip(models, expected):
        assert exported_text(model) == text


@pytest.mark.parametrize("block", [7, 64, 4096])
def test_value_cut_by_a_block_boundary_is_checked(block, monkeypatch):
    monkeypatch.setattr(mps_io, "_READ_BLOCK", block)
    head = "ROWS\n N  OBJ\nCOLUMNS\n    X0  OBJ  "
    pad = " " * ((block - 2 - len(head)) % block)  # the boundary falls after 2 characters
    for value, ok in (("1.2.3", False), ("1.234", True)):
        text = f"{head}{pad}{value}\nENDATA\n"
        at = len(head) + len(pad)
        assert at // block != (at + len(value) - 1) // block
        if ok:
            assert read_mps(io.StringIO(text)) == read_mps_lines(io.StringIO(text))
        else:
            with pytest.raises(ValueError):
                read_mps(io.StringIO(text))


def _names_by_zfill(prefix, count):
    # the reference: numpy's int-to-bytes conversion, zfill and add
    digits = np.arange(count).astype("S")
    return np.strings.add(prefix, np.strings.zfill(digits, 7) if count else digits)


@pytest.mark.parametrize("count", [0, 1, 10, 87_475])
def test_names_match_the_zfill_formula(count):
    for prefix in (b"X", b"R", b"E"):
        names = mps_io._names(prefix, np.arange(count))
        expected = _names_by_zfill(prefix, count)
        assert names.tolist() == expected.tolist()
        if count:
            assert names.dtype == expected.dtype


def test_names_past_seven_digits():
    # an index range renders the names around 10**7 without the ten
    # million below them
    for index in (np.arange(9_999_990, 10_000_000), np.arange(9_999_990, 10_000_010),
                  np.array([10**7, 123, 2 * 10**9])):
        names = mps_io._names(b"X", index).tolist()
        assert names == [b"X%07d" % i for i in index]
        assert names == np.strings.add(b"X", np.strings.zfill(index.astype("S"), 7)).tolist()


def _section_file(section, values):
    """A file whose `section` holds one entry per value, in order."""
    lines = {"COLUMNS": [f"    X{i}  R1  {v}" for i, v in enumerate(values, 1)],
             "RHS": [f"    RHS  R1  {v}" for v in values],
             "RANGES": [f"    RNG  R1  {v}" for v in values],
             "BOUNDS": [f" UP BND  X0  {v}" for v in values]}[section]
    head = "ROWS\n N  OBJ\n G  R1\nCOLUMNS\n    X0  OBJ  1\n"
    return head + ("" if section == "COLUMNS" else f"{section}\n") + "\n".join(
        lines) + "\nENDATA\n"


SECTIONS = ("COLUMNS", "RHS", "RANGES", "BOUNDS")


@pytest.mark.parametrize("section", SECTIONS)
def test_malformed_value_repeated_raises(section):
    text = _section_file(section, ["1.2.3"] * 20_000)
    with pytest.raises(ValueError):
        read_mps(io.StringIO(text))


# a malformed value of the valid one's length and of another length, first,
# in the middle (past the first 256 KB block) and last among 20,000 entries
@pytest.mark.parametrize("section", SECTIONS)
@pytest.mark.parametrize("bad", ["0.2x", "0.2.5"])
@pytest.mark.parametrize("at", [0, 15_000, 19_999])
def test_one_malformed_value_among_copies_raises(section, bad, at):
    values = ["0.25"] * 20_000
    text = _section_file(section, values)
    assert len(text) > mps_io._READ_BLOCK
    assert read_mps(io.StringIO(text)) == read_mps_lines(io.StringIO(text))
    values[at] = bad
    with pytest.raises(ValueError):
        read_mps(io.StringIO(_section_file(section, values)))


# mostly distinct values are parsed whole, without np.unique: they read
# as the line reference does, and a malformed one, first, in the middle
# (past the first 256 KB block) or last, raises the error it raises among
# copies of one value, which are parsed through np.unique
@pytest.mark.parametrize("section", SECTIONS)
@pytest.mark.parametrize("at", [0, 15_000, 19_999])
def test_distinct_values_read_and_fail_as_copies_do(section, at):
    distinct = [f"{10_000 + k}.5" for k in range(20_000)]  # all 7 characters long
    copies = ["10000.5"] * 20_000
    text = _section_file(section, distinct)
    assert len(text) > mps_io._READ_BLOCK
    assert read_mps(io.StringIO(text)) == read_mps_lines(io.StringIO(text))
    errors = []
    for values in (distinct, copies):
        values[at] = "1234.x5"
        with pytest.raises(ValueError) as info:
            read_mps(io.StringIO(_section_file(section, values)))
        errors.append(str(info.value))
    assert errors[0] == errors[1] and "1234.x5" in errors[0]


@pytest.mark.parametrize("block", [1, 7, 64, None])
def test_a_value_counts_once_per_entry_whatever_follows_it(block, monkeypatch, tmp_path):
    # one value ends its line before a space, a tab or \r\n, or ends the
    # file, in every section that holds values
    if block is not None:
        monkeypatch.setattr(mps_io, "_READ_BLOCK", block)
    ends = [" \n", "\t\n", "\r\n", "\n"]
    text = "ROWS\n N  OBJ\n G  R1\nCOLUMNS\n"
    text += "".join(f"    X{i}  R1  2.5{end}" for i, end in enumerate(ends))
    for head in ("RHS\n    RHS  R1  2.5", "RANGES\n    RNG  R1  2.5", "BOUNDS\n UP BND  X0  2.5"):
        section, line = head.split("\n")
        text += section + "\n" + "".join(line + end for end in ends)
    text += " UP BND  X1  2.5"  # the file ends with the value
    expected = MpsSummary(objective_rows=1, g_rows=1, columns=4, entries=4, rhs_entries=4,
                          range_entries=4, bound_entries=5, bound_types={"UP": 5})
    assert read_mps_lines(io.StringIO(text)) == expected
    assert read_mps(io.StringIO(text)) == expected
    path = tmp_path / "case.mps"
    path.write_bytes(text.encode())
    assert read_mps(path) == expected


def few_valued_lp(rng, values=(-2.0, -1.0, 0.5, 1.0, 1.25, 3.0)):
    """A random LP whose coefficients, right-hand sides and bounds are
    drawn from a handful of values, so each block repeats its tokens."""
    n, mg, mh = (int(rng.integers(lo, hi)) for lo, hi in ((2, 30), (1, 20), (0, 5)))
    a_ub = np.where(rng.random((mg, n)) < 0.4, rng.choice(values, (mg, n)), 0.0)
    a_ub[np.arange(mg), rng.integers(0, n, mg)] = 1.0  # no empty rows
    lb = np.where(rng.random(n) < 0.3, -np.inf, rng.choice(values, n))
    ub = np.where(rng.random(n) < 0.3, np.inf,
                  np.where(np.isfinite(lb), lb, 0.0) + rng.choice(np.abs(values), n))
    return make_lp(c=rng.choice(values, n), a_ub=a_ub, b_ub=rng.choice(values, mg),
                   a_eq=rng.choice(values, (mh, n)) if mh else None,
                   b_eq=rng.choice(values, mh) if mh else None, lb=lb, ub=ub,
                   objective_constant=float(rng.choice(values)))


@pytest.mark.parametrize("block", [1, 7, 64, 4096, None])
def test_few_valued_lps_match_line_reference(block, rng, monkeypatch):
    if block is not None:
        monkeypatch.setattr(mps_io, "_READ_BLOCK", block)
    for _ in range(30):
        text = exported_text(few_valued_lp(rng))
        assert read_mps(io.StringIO(text)) == read_mps_lines(io.StringIO(text))


# chunk sizes that cut inside one column's entries and a storage slice
# inside a row, and the default
@pytest.mark.parametrize("chunk", [1, 7, None])
def test_writer_matches_entry_reference(chunk, rng, monkeypatch, tmp_path):
    if chunk is not None:
        monkeypatch.setattr(mps_io, "_CHUNK", chunk)
    models = [model for model, _ in EDGE_MODELS.values()]
    models += [random_lp(rng) for _ in range(50)]
    models += [few_valued_lp(rng) for _ in range(30)]
    models.append(linearize_big_m(assemble_mpec(division_fixture(207))))
    path = tmp_path / "model.mps"
    for model in models:
        export_mps(model, path)
        lp = getattr(model, "lp", model)
        assert path.read_bytes() == write_mps_lines(lp, getattr(model, "binary_cols", ()))
