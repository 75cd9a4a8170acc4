"""The column renderer against the row-at-a-time oracle renderer.

`reports.render_csv`/`render_json` format each column once per distinct
value; `oracles.row_render_csv`/`row_render_json` format every cell on its
own, as the reports were written before.  The two must agree byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrixwell import WellConfig, momentum_element, position_element
from matrixwell.cli import parse_config, run
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
    """Every (k, l) cell from the scalar closed forms of `well`, rendered cell by cell."""
    cfg = WellConfig(L=0.731, hbar=1.37, N=40)
    rows = []
    for k in range(1, cfg.N + 1):
        for l in range(1, cfg.N + 1):
            p = momentum_element(cfg, k, l)
            rows.append([k, l, position_element(cfg, k, l), p.real, p.imag])
    out = tmp_path / f"elements.{fmt}"
    rc = parse_config(
        ["elements", "--L", "0.731", "--hbar", "1.37", "--N", "40", "--format", fmt, "--out", str(out)]
    )
    assert run(rc) == 0
    names = ["k", "l", "x", "p_re", "p_im"]
    if fmt == "csv":
        want = row_render_csv(names, rows)
    else:
        want = row_render_json(rc.echo, names, rows, {"dim": cfg.N})
    assert out.read_text(encoding="utf-8") == want
