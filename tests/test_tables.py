"""The byte layout of every CSV table pairspec writes, on tiny hand-built
results: `# ` comment lines, an optional column header, comma-separated
cells in %.9g (%d for k and counts, %.12g for Schmidt coefficients); and
the block formatter behind them, cell for cell the bytes of Python's `%`."""

import math
import struct
import tracemalloc
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairspec import tables
from pairspec.analysis import CountRecord, JsiScanResult, SweepResult, simulate_jsi_scan
from pairspec.cli import load_config
from pairspec.interference import HomScan
from pairspec.jsa import FrequencyGrid, JointAmplitude, export_jsi_csv, lattice_axis
from pairspec.schmidt import SchmidtResult, export_schmidt_csv
from pairspec.tables import csv_cells, write_csv

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
LAMBDA_NM = np.array([829.9, 830.0, 830.1])
EXPECTED = np.array([[0.5, 12.25, 1 / 3], [7.0, 1234.5678912, 2.0], [0.0, 1e-7, 3.5]])
JSI_AXIS = lattice_axis(2.27e15, 2.28e15, 16)
JSI_VALUES = np.eye(16) / 3.0
JSI_VALUES[0, 15] = 2.0

WRITERS = {
    "hom": lambda path: HomScan(
        np.array([-150.0, 0.0, 150.0]), np.array([0.999123456789, 0.0561234567891, 1.0]),
        0.94387654321, 312.3456789, 0.0,
    ).to_csv(path, metadata_lines=["source_a,a.cfg", "herald_arm,o"]),
    "sweep": lambda path: SweepResult(
        np.array([16.0, 1e-6, np.inf]), np.array([0.912345678912, np.nan, 0.35]),
        np.array([0.5, np.nan, 1.0]), {"crystal": "BBO", "n_points": 64},
        ((1e-6, "filter removes all support"),),
    ).to_csv(path),
    "counts": lambda path: CountRecord(
        np.array([-10.5, 0.0, 10.5]), np.array([1000, 56, 2 ** 60 + 1]), 1000.0, 3).to_csv(path),
    "scan-counts": lambda path: JsiScanResult(
        LAMBDA_NM, EXPECTED, np.array([[1, 12, 0], [7, 1235, 2], [0, 0, 4]]), 0.2, 0.1, 5,
    ).to_csv(path),
    # Cells at and past 1e9, where %.9g would drop digits.
    "scan-large-counts": lambda path: JsiScanResult(
        LAMBDA_NM, EXPECTED, np.array([[999999999, 1000000000, 0], [7, 6083130621519, 2],
                                       [0, 0, 2 ** 62 + 1]]), 0.2, 0.1, 5,
    ).to_csv(path),
    "scan-noiseless": lambda path: JsiScanResult(
        LAMBDA_NM, EXPECTED, None, 0.0, 0.1, None).to_csv(path),
    "schmidt": lambda path: export_schmidt_csv(SchmidtResult(
        np.array([0.97, 0.2, 0.1234567890123, 1e-13]), np.eye(4), np.eye(4), 1e-11,
    ), path),
    "jsi": lambda path: export_jsi_csv(
        JointAmplitude(FrequencyGrid(JSI_AXIS, JSI_AXIS), JSI_VALUES), path),
}

JSI_NM = ("829.802453,829.558823,829.315336,829.071993,828.828792,828.585733,828.342818,"
          "828.100044,827.857413,827.614924,827.372577,827.130372,826.888309,826.646387,"
          "826.404607,826.162968")
JSI_RAD_S = ("2.27e+15,2.27066667e+15,2.27133333e+15,2.272e+15,2.27266667e+15,"
             "2.27333333e+15,2.274e+15,2.27466667e+15,2.27533333e+15,2.276e+15,"
             "2.27666667e+15,2.27733333e+15,2.278e+15,2.27866667e+15,2.27933333e+15,2.28e+15")
JSI_ROWS = (
    "0.111111111,0,0,0,0,0,0,0,0,0,0,0,0,0,0,4\n"
    "0,0.111111111,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n"
    "0,0,0.111111111,0,0,0,0,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0.111111111,0,0,0,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0.111111111,0,0,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0.111111111,0,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0.111111111,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0.111111111,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0.111111111,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,0.111111111,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,0,0.111111111,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,0,0,0.111111111,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,0,0,0,0.111111111,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,0,0,0,0,0.111111111,0,0\n"
    "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.111111111,0\n"
    "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.111111111\n"
)

TEXT = {
    "hom": (
        "# source_a,a.cfg\n"
        "# herald_arm,o\n"
        "# visibility,0.943876543\n"
        "# dip_fwhm_fs,312.345679\n"
        "# dip_center_fs,0\n"
        "# coherence_time_fs,220.861748\n"
        "delay_fs,normalized_rate\n"
        "-150,0.999123457\n"
        "0,0.0561234568\n"
        "150,1\n"),
    "sweep": (
        '# {"crystal": "BBO", "n_points": 64}\n'
        "bandwidth_nm,purity,heralding_efficiency\n"
        "16,0.912345679,0.5\n"
        "1e-06,nan,nan\n"
        "inf,0.35,1\n"),
    "counts": (
        "# pairs_per_point,1000\n"
        "# seed,3\n"
        "delay_fs,counts\n"
        "-10.5,1000\n"
        "0,56\n"
        "10.5,1152921504606846977\n"),
    "scan-counts": (
        "# resolution_fwhm_nm,0.2\n"
        "# step_nm,0.1\n"
        "# axis_e_nm,829.9,830,830.1\n"
        "# axis_o_nm,829.9,830,830.1\n"
        "1,12,0\n"
        "7,1235,2\n"
        "0,0,4\n"),
    "scan-large-counts": (
        "# resolution_fwhm_nm,0.2\n"
        "# step_nm,0.1\n"
        "# axis_e_nm,829.9,830,830.1\n"
        "# axis_o_nm,829.9,830,830.1\n"
        "999999999,1000000000,0\n"
        "7,6083130621519,2\n"
        "0,0,4611686018427387905\n"),
    "scan-noiseless": (
        "# resolution_fwhm_nm,0\n"
        "# step_nm,0.1\n"
        "# axis_e_nm,829.9,830,830.1\n"
        "# axis_o_nm,829.9,830,830.1\n"
        "0.5,12.25,0.333333333\n"
        "7,1234.56789,2\n"
        "0,1e-07,3.5\n"),
    "schmidt": (
        "k,c_k,c_k_squared\n"
        "1,0.97,0.9409\n"
        "2,0.2,0.04\n"
        "3,0.123456789012,0.0152415787532\n"),
    "jsi": (
        f"# axis_e_nm,{JSI_NM}\n"
        f"# axis_e_rad_s,{JSI_RAD_S}\n"
        f"# axis_o_nm,{JSI_NM}\n"
        f"# axis_o_rad_s,{JSI_RAD_S}\n"
        + JSI_ROWS),
}


@pytest.mark.parametrize("table", sorted(WRITERS))
def test_table_layout(tmp_path, table):
    # Literal bytes: a change to any table's layout is a change to its readers.
    path = tmp_path / f"{table}.csv"
    WRITERS[table](path)
    assert path.read_bytes() == TEXT[table].encode()


def percent_rows(columns, fmts):
    """The reference text of a table: Python's `%` on each cell, row by row."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return "".join(",".join(f % v for f, v in zip(fmts, row)) + "\n" for row in rows).encode()


@pytest.fixture(scope="module")
def cells_dir(tmp_path_factory):
    """One directory for every example of a property test (a function-scoped
    tmp_path is not reset between the examples)."""
    return tmp_path_factory.mktemp("cells")


def write_table(directory, table, fmt):
    path = directory / "t.csv"
    write_csv(path, table, fmt=fmt)
    return path.read_bytes()


def float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FLOAT_FORMATS = ("%.9g", "%.12g")
PRECISION = {"%.6g": 6, "%.9g": 9, "%.12g": 12}


@st.composite
def hard_floats(draw, fmt):
    """A float64 where %.Pg is hardest to get right: any bit pattern, or
    one next to a P-digit tie, a power of ten, a 9.99..95e+k rounding
    boundary or the edges of the fixed notation (exponents -5, -4, P - 1, P)."""
    p = PRECISION[fmt]
    kind = draw(st.sampled_from(["bits", "tie", "power", "boundary", "edge"]))
    if kind == "bits":
        return float_of_bits(draw(st.integers(0, 2 ** 64 - 1)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "tie":  # exact when the tie is representable, a near tie otherwise
        mantissa = draw(st.integers(10 ** (p - 1), 10 ** p - 1))
        value = float(f"{mantissa}.5e{draw(st.integers(-320, 290))}")
    elif kind == "power":
        value = 10.0 ** draw(st.integers(-323, 308))
    elif kind == "boundary":
        value = float(f"9.{'9' * (p - 1)}5e{draw(st.integers(-320, 300))}")
    else:
        mantissa = draw(st.floats(1.0, 10.0, exclude_max=True))
        value = mantissa * 10.0 ** draw(st.sampled_from([-5, -4, p - 1, p]))
    value = np.nextafter(value, draw(st.sampled_from([0.0, value, np.inf])))
    return sign * float(value)


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
            1e-290, 1e290, 1.7976931348623157e308, 123456789.5, 0.5, 2.5, 1e16, 1e-5, 1e-4]


@pytest.mark.parametrize("fmt", FLOAT_FORMATS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_float_cells_match_percent(cells_dir, fmt, data):
    cells = data.draw(st.lists(hard_floats(fmt), min_size=1, max_size=40))
    shape = data.draw(st.sampled_from([(1, 1), (1, -1), (-1, 1)]))
    table = np.array(cells[:1] if shape == (1, 1) else cells + SPECIALS).reshape(shape)
    assert write_table(cells_dir, table, fmt) == percent_rows(table.T, [fmt] * table.shape[1])


@pytest.mark.parametrize("fmt", FLOAT_FORMATS)
def test_float_block_matches_percent(tmp_path, fmt):
    # Many blocks of cells across the whole exponent range, in both notations.
    rng = np.random.default_rng(3)
    table = rng.standard_normal((333, 97)) * 10.0 ** rng.integers(-30, 30, (333, 97))
    table[::7, ::5] = SPECIALS[0]
    table[1::11, 2::3] = rng.integers(0, 10 ** 6, (31, 32))
    assert write_table(tmp_path, table, fmt) == percent_rows(table.T, [fmt] * 97)


INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.one_of(INT64, st.sampled_from(
    [0, -1, 9, 10, -(2 ** 63), 2 ** 63 - 1, 10 ** 18, -(10 ** 18) + 1])), min_size=1, max_size=40),
    shape=st.sampled_from([(1, 1), (1, -1), (-1, 1)]))
@example(cells=[-(2 ** 63), 2 ** 63 - 1, 0], shape=(1, -1))
# uint64 cells past the int64 range, which an int64 cast would write as negative.
@example(cells=[2 ** 64 - 1, 2 ** 63, 10 ** 19, 0, 7], shape=(1, -1))
@example(cells=[2 ** 64 - 1], shape=(1, 1))
def test_int_cells_match_percent(cells_dir, cells, shape):
    dtype = np.uint64 if max(cells) > 2 ** 63 - 1 else np.int64
    table = np.array(cells[:1] if shape == (1, 1) else cells, dtype=dtype).reshape(shape)
    assert write_table(cells_dir, table, "%d") == percent_rows(table.T, ["%d"] * table.shape[1])


def spy(name):
    """A spy on one path of the block formatter in pairspec.tables."""
    return mock.patch.object(tables, name, wraps=getattr(tables, name))


def small_int_calls():
    """A spy on the one-word layout of %d cells."""
    return spy("_small_int_slots")


def percent_calls():
    """A spy on Python's `%`, which writes every cell that no word layout takes."""
    return spy("_percent_slots")


def percent_cells(percent):
    """The number of cells the `percent_calls` spy saw written by `%`."""
    return sum(call.args[0].size for call in percent.call_args_list)


def block_count(table):
    """The number of blocks write_csv formats a table of rows no longer than a block in."""
    return -(-len(table) // (tables.CSV_BLOCK_CELLS // table.shape[1]))


WIDTH_EDGES = [0, 9, 10, 99, 100, 999, 1000, 9999]


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.integers(0, 9999), min_size=1, max_size=60),
       shape=st.sampled_from([(1, -1), (-1, 1)]))
@example(cells=WIDTH_EDGES, shape=(1, -1))
@example(cells=WIDTH_EDGES, shape=(-1, 1))
def test_int_cells_to_9999_take_one_word(cells_dir, cells, shape):
    table = np.array(cells, np.int64).reshape(shape)
    with small_int_calls() as words, percent_calls() as percent:
        text = write_table(cells_dir, table, "%d")
    assert text == percent_rows(table.T, ["%d"] * table.shape[1])
    assert words.called and not percent_cells(percent)


def test_poisson_rows_take_one_word_a_cell(tmp_path):
    # Several blocks of counts with means from about 0.1 to 3000.
    rng = np.random.default_rng(13)
    table = rng.poisson(3.0 * rng.random((300, 57)) * 10.0 ** rng.integers(-1, 4, (300, 1)))
    with small_int_calls() as words, percent_calls() as percent:
        text = write_table(tmp_path, table, "%d")
    assert text == percent_rows(table.T, ["%d"] * 57)
    assert words.call_count == block_count(table) and not percent_cells(percent)


@pytest.mark.parametrize("cells, dtype", [
    ([3, 10000, 7], np.int64), ([3, -1, 7], np.int64), ([3, 12, 7], np.uint64),
    ([3, 12, 7], np.int8), ([3, 12, 7], np.int32)],
    ids=["10000", "negative", "uint64", "int8", "int32"])
def test_other_int_blocks_go_through_percent(tmp_path, cells, dtype):
    # One such cell puts its whole block on Python's `%`.
    table = np.tile(np.array(cells, dtype), (5, 4))
    with small_int_calls() as words, percent_calls() as percent:
        text = write_table(tmp_path, table, "%d")
    assert text == percent_rows(table.T, ["%d"] * 12)
    assert percent_cells(percent) and not words.called


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64], ids=str)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_int_blocks_of_each_dtype_match_percent(cells_dir, dtype, data):
    # Negative cells, cells past 9999 and uint64 cells past 2**63 beside cells
    # of 0 .. 9999; only an int64 block of those alone takes the one-word layout.
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    edges = [v for v in (0, 9999, 10000, -1, 2 ** 63, 2 ** 64 - 1, lo, hi) if lo <= v <= hi]
    cells = data.draw(st.lists(st.one_of(st.integers(lo, hi), st.integers(0, min(9999, hi)),
                                         st.sampled_from(edges)), min_size=1, max_size=40))
    table = np.array(cells, dtype).reshape(data.draw(st.sampled_from([(1, -1), (-1, 1)])))
    with small_int_calls() as words:
        text = write_table(cells_dir, table, "%d")
    assert text == percent_rows(table.T, ["%d"] * table.shape[1])
    assert words.called == (dtype is np.int64 and 0 <= min(cells) and max(cells) <= 9999)


def test_an_empty_int_block_goes_through_percent():
    with small_int_calls() as words, percent_calls() as percent:
        slots = tables._cell_slots(np.zeros(0, np.int64), "%d", np.zeros(0, np.uint8))
    assert slots.size == 0 and percent.called and not words.called


def test_count_record_columns_match_percent(tmp_path):
    # A %.9g column beside a %d column of one-word cells.
    rng = np.random.default_rng(17)
    delays = np.sort(rng.uniform(-2500.0, 2500.0, 401))
    counts = rng.poisson(1000.0 * (1.0 - 0.9 * np.exp(-(delays / 300.0) ** 2)))
    path = tmp_path / "counts.csv"
    with small_int_calls() as words:
        CountRecord(delays, counts, 1000.0, 7).to_csv(path)
    head = b"# pairs_per_point,1000\n# seed,7\ndelay_fs,counts\n"
    assert path.read_bytes() == head + percent_rows((delays, counts), ("%.9g", "%d"))
    assert words.called


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.tuples(INT64, hard_floats("%.12g"), hard_floats("%.9g")),
                     min_size=1, max_size=20))
def test_columns_each_in_their_own_format(cells_dir, rows):
    columns = [np.array(column) for column in zip(*rows)]
    fmts = ("%d", "%.12g", "%.9g")
    assert write_table(cells_dir, columns, fmts) == percent_rows(columns, fmts)


WORD_FORMATS = ("%.6g", "%.9g")


def word_exponents(p):
    return st.one_of(st.integers(-99, -5), st.integers(p, 99))


@st.composite
def word_floats(draw, fmt):
    """A float whose %.Pg text is e-notation with a 2-digit exponent, far from
    a tie: a P-digit mantissa with 0 to P - 1 trailing zeros, either sign."""
    p = PRECISION[fmt]
    zeros = draw(st.integers(0, p - 1))
    mantissa = draw(st.integers(10 ** (p - 1 - zeros), 10 ** (p - zeros) - 1)) * 10 ** zeros
    sign = draw(st.sampled_from(["", "-"]))
    return float(f"{sign}{mantissa}e{draw(word_exponents(p)) - (p - 1)}")


@st.composite
def tie_floats(draw, fmt):
    """A float next to a P-digit tie or a 9.99..95e+k boundary at an exponent of
    the word cells: y's rounding is not certain there, so it goes through `%`,
    and past 9.99..95e-5 and 9.99..95e+99 its text is 0.0001 or 1e+100."""
    p = PRECISION[fmt]
    k = draw(word_exponents(p))
    if draw(st.booleans()):
        mantissa = draw(st.integers(10 ** (p - 1), 10 ** p - 1))
        value = float(f"{mantissa}.5e{k - (p - 1)}")
    else:
        value = float(f"9.{'9' * (p - 1)}5e{k}")
    value = np.nextafter(value, draw(st.sampled_from([0.0, value, np.inf])))
    return draw(st.sampled_from([1.0, -1.0])) * float(value)


def word_calls():
    """A spy on the two-word layout of %.Pg cells."""
    return spy("_word_slots")


@pytest.mark.parametrize("fmt", WORD_FORMATS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_word_cells_match_percent(cells_dir, fmt, data):
    cells = data.draw(st.lists(word_floats(fmt), min_size=1, max_size=60))
    table = np.array(cells).reshape(data.draw(st.sampled_from([(1, -1), (-1, 1)])))
    with word_calls() as words, percent_calls() as percent:
        text = write_table(cells_dir, table, fmt)
    assert text == percent_rows(table.T, [fmt] * table.shape[1])
    assert words.called and not percent_cells(percent)


@pytest.mark.parametrize("fmt", WORD_FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_near_ties_among_word_cells_go_through_percent(cells_dir, fmt, data):
    # Their `%` text fills their slots in the words of the block.
    cells = data.draw(st.lists(word_floats(fmt), min_size=1, max_size=40))
    for tie in data.draw(st.lists(tie_floats(fmt), min_size=1, max_size=3)):
        cells.insert(data.draw(st.integers(0, len(cells))), tie)
    table = np.array(cells)[None, :]
    with word_calls() as words, percent_calls() as percent:
        text = write_table(cells_dir, table, fmt)
    assert text == percent_rows(table.T, [fmt] * table.shape[1])
    assert words.called and percent_cells(percent)


# Cells of other forms: zero, non-finite and fixed notation, from its first
# exponent to its last (P - 1, added per format), which the words leave to `%`,
# and subnormal cells and 3-digit exponents, which put their block on `%`.
OTHER_FORMS = [0.0, -0.0, np.nan, np.inf, 1e-4, 123.25]
THREE_DIGIT_EXPONENTS = [5e-324, 1e-100, 1e100, -3.5e105]


@pytest.mark.parametrize("fmt, other", [
    (fmt, other) for fmt in WORD_FORMATS
    for other in OTHER_FORMS + THREE_DIGIT_EXPONENTS + [-1.5 * 10.0 ** (PRECISION[fmt] - 1)]],
    ids=str)
def test_a_cell_of_another_form_goes_through_percent(tmp_path, fmt, other):
    # The block takes the words without that cell. With it, the cell goes
    # through `%` into its slots among the words, or for a 3-digit exponent,
    # the whole block does.
    rng = np.random.default_rng(11)
    shape = (64, 33)
    exponents = np.where(rng.random(shape) < 0.5, rng.integers(-99, -4, shape),
                         rng.integers(PRECISION[fmt], 100, shape))
    table = (1.0 + 9.0 * rng.random(shape)) * 10.0 ** exponents * rng.choice([-1, 1], shape)
    for cell in (table[17, 5], other):
        table[17, 5] = cell
        with word_calls() as words, percent_calls() as percent:
            text = write_table(tmp_path, table, fmt)
        assert text == percent_rows(table.T, [fmt] * 33)
        assert bool(percent_cells(percent)) == (cell is other)
        assert words.called == (cell not in THREE_DIGIT_EXPONENTS)


@st.composite
def mixed_floats(draw, p, kinds):
    """A float of one of `kinds`: "e2", whose %.Pg text has a 2-digit exponent
    unless it is fixed notation; "fixed", in the exponents -4 .. P - 1 of fixed
    notation; "tie", next to a P-digit tie at an exponent of "e2"; "special",
    a signed zero, a signed infinity or nan; "e3", of a 3-digit exponent. The
    9-digit mantissas keep "e2" and "e3" cells 1e-9 or more from 1e-99 and 1e100."""
    kind = draw(st.sampled_from(kinds))
    if kind == "special":
        return draw(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
    if kind == "fixed":
        k = draw(st.integers(-4, p - 1))
    elif kind == "e3":
        k = draw(st.one_of(st.integers(-314, -100), st.integers(100, 307)))
    else:
        k = draw(st.one_of(st.integers(-99, -5), st.integers(p, 99)))
    if kind == "tie":
        value = float(f"{draw(st.integers(10 ** (p - 1), 10 ** p - 1))}.5e{k - (p - 1)}")
        value = float(np.nextafter(value, draw(st.sampled_from([0.0, value, math.inf]))))
    else:
        value = float(f"{draw(st.integers(10 ** 8 + 1, 10 ** 9 - 1))}e{k - 8}")
    return draw(st.sampled_from([1.0, -1.0])) * value


def three_digit_exponent(value):
    """Whether a float's exact decimal exponent is below -99 or above 99."""
    return math.isfinite(value) and value != 0.0 and not -99 <= Decimal(value).adjusted() <= 99


@pytest.mark.parametrize("p", [1, 6, 9, 12, 15])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mixed_blocks_match_percent_on_their_path(cells_dir, p, data):
    # A block of P <= 9 with no 3-digit exponent takes the words, with `%` in
    # the slots of the cells they cannot lay out; any other goes through `%`.
    kinds = ["e2", "fixed", "tie", "special"] + ["e3"] * data.draw(st.booleans())
    cells = data.draw(st.lists(mixed_floats(p, kinds), min_size=1, max_size=40))
    table = np.array(cells).reshape(data.draw(st.sampled_from([(1, -1), (-1, 1)])))
    fmt = f"%.{p}g"
    with word_calls() as words, percent_calls() as percent:
        text = write_table(cells_dir, table, fmt)
    assert text == percent_rows(table.T, [fmt] * table.shape[1])
    takes_words = p <= 9 and not any(map(three_digit_exponent, cells))
    assert words.called == takes_words
    assert takes_words or percent_cells(percent) == len(cells)


@pytest.fixture(scope="module")
def shipped_tables():
    """The four large %.9g tables of the shipped configs: the 512 x 512 JSI and
    the noiseless 0.2 nm / 0.1 nm scan of each."""
    tables = {}
    for name in ("kdp", "bbo"):
        amplitude = load_config(CONFIGS / f"{name}.cfg")[0].source.build_jsa()
        tables[f"{name}_jsi"] = amplitude.intensity
        tables[f"{name}_scan"] = simulate_jsi_scan(amplitude, 0.2, 0.1).expected
    return tables


@pytest.mark.parametrize("table", ["kdp_jsi", "kdp_scan", "bbo_jsi", "bbo_scan"])
def test_shipped_tables_match_percent(tmp_path, shipped_tables, table):
    values = shipped_tables[table]
    assert write_table(tmp_path, values, "%.9g") == percent_rows(values.T, ["%.9g"] * len(values))


@pytest.mark.parametrize("table", ["kdp_jsi", "kdp_scan", "bbo_jsi", "bbo_scan"])
def test_shipped_tables_take_the_word_path(tmp_path, shipped_tables, table):
    # A block that fell back to `%` cell by cell would give the same bytes
    # more slowly; here every block takes the words.
    values = shipped_tables[table]
    with word_calls() as words:
        write_table(tmp_path, values, "%.9g")
    assert words.call_count == block_count(values)


@pytest.mark.parametrize("shape", [(3, 0), (1, 0), (0, 0), (0, 4)])
@pytest.mark.parametrize("fmt", ["%.9g", "%d"])
def test_tables_of_no_cells_are_what_percent_gives(tmp_path, shape, fmt):
    # `%` on each of no cells: an empty line per row, and nothing for no rows.
    table = np.zeros(shape, dtype=int if fmt == "%d" else float)
    assert write_table(tmp_path, table, fmt) == b"\n" * shape[0]


def test_a_table_of_no_column_tuples_is_its_comments_and_header(tmp_path):
    # `%` on the rows of no columns: no rows at all.
    write_csv(tmp_path / "t.csv", (), comments=["seed,3"], header="delay_fs", fmt=())
    assert (tmp_path / "t.csv").read_bytes() == b"# seed,3\ndelay_fs\n"


def test_csv_cells_of_no_values_is_empty():
    assert csv_cells(np.array([])) == ""


def test_csv_cells_is_a_row_without_its_newline():
    values = np.array([829.9, 1e-7, -0.0, 2.27066667e15])
    assert csv_cells(values) == ",".join(f"{x:.9g}" for x in values)


@pytest.mark.parametrize("fmt", ["%.9f", "%s", "%.16g", "%.0g", "%d"])
def test_unsupported_formats_are_refused(tmp_path, fmt):
    # %d takes integer columns only; these cells are floats.
    with pytest.raises(ValueError, match="unsupported CSV cell format|must be integers"):
        write_table(tmp_path, np.ones((2, 2)), fmt)


def traced_peak(call):
    """The result of call() and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_blocks_bound_the_memory_of_a_large_table(tmp_path):
    table = np.random.default_rng(5).random((1024, 1024)) ** 8
    _, peak = traced_peak(lambda: write_csv(tmp_path / "big.csv", table))
    assert peak <= 2 * 2 ** 20


@pytest.mark.parametrize("shape", [(2, 100_000), (1, 20_000)], ids=["2x100000", "1x20000"])
def test_rows_longer_than_a_block_bound_their_memory(tmp_path, shape):
    # Such a row is written in chunks of cells, the last one ending the line.
    table = np.random.default_rng(5).random(shape) ** 8
    _, peak = traced_peak(lambda: write_csv(tmp_path / "long.csv", table))
    assert peak <= 2 * 2 ** 20
    assert (tmp_path / "long.csv").read_bytes() == percent_rows(table.T, ["%.9g"] * shape[1])


def test_csv_cells_of_a_long_axis_bound_their_memory():
    values = np.random.default_rng(5).random(20_000) ** 8
    text, peak = traced_peak(lambda: csv_cells(values))
    assert peak <= 2 * 2 ** 20
    assert text == ",".join("%.9g" % x for x in values.tolist())
