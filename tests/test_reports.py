"""The column renderer against the row-at-a-time oracle renderer.

`reports.render_csv`/`render_json` format each column once per distinct
value, of the values of a (values, index) column or of a plain column
within each block of rows; `oracles.row_render_csv`/`row_render_json`
format every cell on its own, as the reports were written before.  The two
must agree byte for byte, whatever the block size.  The CLI writes the same
text a block at a time, and the guards at the end hold it to that.
"""

import io
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrixwell import RunReport, momentum_element, position_element, reports
from matrixwell.cli import _run_elements, parse_config, run
from matrixwell.reports import render_csv, render_json

from oracles import row_render_csv, row_render_json

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310, 1e300]),
)
INTS = st.integers(-(2**63), 2**63 - 1)
# numpy's fixed-width strings drop trailing NUL characters
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6)


@st.composite
def tables(draw):
    """Column names and columns of Python scalars, one kind per column.

    Half the columns repeat values from a small pool, so the renderer's
    distinct-value lookup is exercised on repeats as well as on fresh values.
    """
    rows = draw(st.integers(0, 12))
    names, columns = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from([FLOATS, INTS, TEXT]))
        if draw(st.booleans()):
            kind = st.sampled_from(draw(st.lists(kind, min_size=1, max_size=3)))
        names.append(draw(st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1)))
        columns.append(draw(st.lists(kind, min_size=rows, max_size=rows)))
    return names, columns


def _rows(columns):
    return [list(row) for row in zip(*columns)]


@PROPERTY
@given(tables())
def test_csv_columns_equal_row_oracle(table):
    names, columns = table
    arrays = [np.asarray(c) for c in columns]
    assert render_csv(names, arrays) == row_render_csv(names, _rows(columns))


@PROPERTY
@given(tables(), st.dictionaries(st.text(max_size=4), st.one_of(FLOATS, INTS, TEXT), max_size=3))
def test_json_columns_equal_row_oracle(table, config):
    names, columns = table
    arrays = [np.asarray(c) for c in columns]
    diagnostics = {"dim": len(columns[0]), "note": "x"}
    want = row_render_json(config, names, _rows(columns), diagnostics)
    assert render_json(config, names, arrays, diagnostics) == want


@st.composite
def factored_tables(draw):
    """Column names and (values, index) columns, with the cells they stand for as Python scalars.

    Values may repeat (drawn from a small pool) and the index picks them in
    any order; a negative index -j, j >= 1, negates values[j], for floats
    and ints only.
    """
    rows = draw(st.integers(0, 12))
    names, columns, cells = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from([FLOATS, INTS, TEXT]))
        if draw(st.booleans()):
            kind = st.sampled_from(draw(st.lists(kind, min_size=1, max_size=3)))
        values = draw(st.lists(kind, min_size=1, max_size=6))
        low = 0 if isinstance(values[0], str) else 1 - len(values)
        index = draw(st.lists(st.integers(low, len(values) - 1), min_size=rows, max_size=rows))
        names.append(draw(st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1)))
        columns.append((np.asarray(values), np.asarray(index, dtype=np.int32)))
        cells.append([values[i] if i >= 0 else -values[-i] for i in index])
    return names, columns, cells


@PROPERTY
@given(factored_tables())
def test_factored_columns_equal_row_oracle_on_gathered_cells(table):
    names, columns, cells = table
    assert render_csv(names, columns) == row_render_csv(names, _rows(cells))
    diagnostics = {"dim": len(cells[0])}
    assert render_json({}, names, columns, diagnostics) == row_render_json({}, names, _rows(cells), diagnostics)


def test_factored_and_plain_columns_mix():
    values, index = np.array([0.0, 2.5, -0.0, 7.0]), np.array([1, -1, 0, -2, 2, -3, 3])
    plain = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    want = [[1.0, 2.5], [2.0, -2.5], [3.0, 0.0], [4.0, 0.0], [5.0, 0.0], [6.0, -7.0], [7.0, 7.0]]
    assert render_csv(["a", "b"], [plain, (values, index)]) == row_render_csv(["a", "b"], want)
    assert "-0" not in render_json({}, ["b"], [(values, index)], {})


def test_signed_index_on_strings_refused():
    with pytest.raises(TypeError, match="string column"):
        render_csv(["s"], [(np.array(["a", "b"]), np.array([0, -1]))])


def test_factored_column_checks():
    with pytest.raises(ValueError, match="NaN or infinities"):
        render_csv(["a"], [(np.array([1.0, np.nan]), np.array([0, 0]))])  # values are checked, used or not
    with pytest.raises(TypeError, match="boolean"):
        render_csv(["a"], [(np.array([True]), np.array([0, 0]))])
    with pytest.raises(ValueError, match="differ in length"):  # a pair counts len(index) cells, not len(values)
        render_csv(["a", "b"], [[1.0, 2.0], (np.array([1.0, 2.0]), np.array([0, 1, 1]))])


def _csv(names, columns):
    return render_csv(names, columns)


def _json(names, columns):
    return render_json({}, names, columns, {})


@pytest.mark.parametrize("render", [_csv, _json])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_cell_refused(render, bad):
    with pytest.raises(ValueError, match="NaN or infinities"):
        render(["a", "b"], [np.array([1, 2]), np.array([0.5, bad])])


@pytest.mark.parametrize("render", [_csv, _json])
def test_boolean_column_refused(render):
    with pytest.raises(TypeError, match="boolean"):
        render(["flag"], [np.array([True, False])])


def test_nonfinite_diagnostic_refused():
    with pytest.raises(ValueError, match="NaN or infinities"):
        render_json({}, ["a"], [[1.0]], {"integral": float("nan")})


@pytest.mark.parametrize("value", [True, None])
def test_boolean_or_none_diagnostic_refused(value):
    # no report carries either; a bool is an int and would otherwise print as True
    with pytest.raises(TypeError, match="cannot serialize"):
        render_json({}, ["a"], [[1.0]], {"flag": value})


def test_ragged_columns_refused():
    with pytest.raises(ValueError, match="differ in length"):
        render_csv(["a", "b"], [[1.0, 2.0], [3.0]])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_elements_report_equals_row_oracle(tmp_path, fmt):
    """Every (k, l) cell from the scalar closed forms of `well`, rendered cell by cell, at the unit
    scale and another; odd N gives parity blocks with one row more than columns."""
    out = tmp_path / f"elements.{fmt}"
    names = ["k", "l", "x", "p_re", "p_im"]
    for scales in ((), ("--L", "0.731", "--hbar", "1.37")):
        for n in (2, 3, 40, 41):
            rc = parse_config(["elements", *scales, "--N", str(n), "--format", fmt, "--out", str(out)])
            rows = []
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    p = momentum_element(rc.well, k, l)
                    rows.append([k, l, position_element(rc.well, k, l), p.real, p.imag])
            assert run(rc) == 0
            if fmt == "csv":
                want = row_render_csv(names, rows)
            else:
                want = row_render_json(rc.echo, names, rows, {"dim": n})
            assert out.read_text(encoding="utf-8") == want, (scales, n)


@pytest.mark.parametrize("n", [2, 7, 250])
def test_elements_sorts_only_the_block_entries(n):
    """The distinct-value sort of every elements column sees at most the ceil(N/2) floor(N/2)
    entries of one parity block and the two values 0 and L/2, never the N^2 cells."""
    names, columns, diagnostics = _run_elements(parse_config(["elements", "--N", str(n)]))
    real_unique, sizes = np.unique, []

    def counting_unique(a, *args, **kwargs):
        sizes.append(np.size(a))
        return real_unique(a, *args, **kwargs)

    with mock.patch.object(reports.np, "unique", counting_unique):
        render_csv(names, columns)
        render_json({}, names, columns, diagnostics)
    assert len(sizes) == 2 * len(names) and max(sizes) <= -(-n // 2) * (n // 2) + 2


def _with_cells(table):
    names, columns = table
    return names, [np.asarray(c) for c in columns], columns


@PROPERTY
@given(st.one_of(tables().map(_with_cells), factored_tables()), st.integers(1, 12))
def test_reports_split_into_small_blocks_equal_row_oracle(table, block_cells):
    """Blocks of a few rows give the bytes of one block: block edges, a short last block, the plain
    columns' per-block distinct values and the JSON rows' closing bracket."""
    names, columns, cells = table
    diagnostics = {"dim": len(cells[0])}
    with mock.patch.object(reports, "_BLOCK_CELLS", block_cells):
        assert render_csv(names, columns) == row_render_csv(names, _rows(cells))
        assert render_json({}, names, columns, diagnostics) == row_render_json({}, names, _rows(cells), diagnostics)


class _Pieces(io.StringIO):
    """A stdout that keeps each piece handed to it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, s):
        self.pieces.append(s)
        return len(s)


@pytest.mark.parametrize("fmt, row_end", [("csv", "\n"), ("json", "], [")], ids=["csv", "json"])
def test_no_write_gets_more_than_one_block(fmt, row_end, monkeypatch):
    """`elements` at N=250 reaches stdout a block of rows at a time, never as one whole text."""
    n, rows_per_block = 250, reports._BLOCK_CELLS // 5
    stdout = _Pieces()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(parse_config(["elements", "--N", str(n), "--format", fmt])) == 0
    assert max(piece.count(row_end) for piece in stdout.pieces) <= rows_per_block
    assert len(stdout.pieces) >= n * n / rows_per_block


def _traced_peak(argv) -> int:
    rc = parse_config(argv)
    tracemalloc.start()
    try:
        assert run(rc) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_elements_footprint_at_n_600(tmp_path):
    """30.2 MiB: the distinct texts of B and Q, and five int32 index matrices; the whole JSON text and
    its cell list took it to 52.2 MiB."""
    peak = _traced_peak(["elements", "--N", "600", "--format", "json", "--out", str(tmp_path / "e.json")])
    assert peak <= 36 * 2**20


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_series_footprint_within_three_float_tables(fmt, tmp_path):
    """2.0 (CSV) and 2.55 (JSON) times the float64 table at 20 000 steps; 5.7 and 6.8 with the whole text."""
    steps = 20000
    argv = ["spread", "--N", "8", "--state", "eigen:1", "--steps", str(steps), "--format", fmt]
    peak = _traced_peak([*argv, "--out", str(tmp_path / f"s.{fmt}")])
    assert peak <= 3 * 8 * len(RunReport.COLUMNS) * steps
