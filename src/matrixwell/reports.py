"""Deterministic CSV and JSON emission for scenario reports.

A report table arrives as columns, all of one length, in row order.  A
column is a 1-D sequence, or a pair (values, index) whose cell i is
values[index[i]], and values[-index[i]] negated where index[i] < 0, so a
table with parity zeros or symmetric entries hands over each value once.
Each column's values are formatted once per distinct value (`np.unique`),
with the separator that follows it; a negated cell is its value's text with
the sign flipped.  The cells of the whole table are joined once.
A column holds floats, integers (int64) or strings; booleans and anything
else are refused, and so is a negative index into strings.

Floats are written with fixed significant digits (17 in JSON, 12 in CSV)
so identical runs produce byte-identical files; 17 significant digits
round-trip IEEE doubles exactly, so emitted JSON re-parses into an equal
record.  Files are written to a temporary sibling and renamed into place,
so a failed run never leaves a partial file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np


def _json_value(v) -> str:
    """One config or diagnostics value (scalars, dicts and lists of them)."""
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, int) and not isinstance(v, bool):  # a bool is an int, but no report carries one
        return str(v)
    if isinstance(v, float):
        return _column_cells([v], 17, quote=True)[0]
    if isinstance(v, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__} deterministically")


def _column_cells(column, digits: int, quote: bool, sep: str = "") -> list[str]:
    """The cells of one column, plain or (values, index), each followed by `sep`, each distinct value formatted once.

    -0.0 and 0.0 are one distinct value; both print as 0, and so does a
    negated zero.  `quote` writes strings as JSON string literals.
    """
    values, index = column if isinstance(column, tuple) else (column, None)
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"a report column must be one-dimensional, got shape {a.shape}")
    kind = a.dtype.kind
    if kind == "b":
        raise TypeError("boolean cells are not part of any report schema")
    if kind not in "fiuU":
        raise TypeError(f"cannot serialize a {a.dtype} column deterministically")
    distinct, inverse = np.unique(a, return_inverse=True)
    if kind == "f":
        if not np.all(np.isfinite(distinct)):
            raise ValueError("reports must not contain NaN or infinities")
        template = f"%.{digits}g{sep}"  # % formats a float as format(v, ".{digits}g") does
        # + 0.0 turns -0.0 into 0.0, so a negative zero prints as 0
        text = [template % v for v in (distinct + 0.0).tolist()]
    elif kind == "U":
        text = [(json.dumps(v) if quote else v) + sep for v in distinct.tolist()]
    else:
        text = [str(v) + sep for v in distinct.tolist()]
    if index is not None:
        negative = np.less(index, 0)
        inverse = inverse[np.abs(index)]
        if negative.any():
            if kind == "U":
                raise TypeError("a string column cannot be negated")
            zero = "0" + sep
            text += [t if t == zero else t[1:] if t[0] == "-" else "-" + t for t in text]
            inverse[negative] += len(distinct)  # the flipped texts follow the plain ones
    return np.array(text, dtype=object)[inverse.ravel()].tolist()


def _table(names, columns, digits: int, quote: bool, seps: tuple[str, str]) -> str:
    """The cells of every row, joined once: seps[0] after each cell, seps[1] after a row's last.

    The cells are formed one column at a time, straight into the table.
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} column names for {len(columns)} columns")
    width, table = len(columns), None
    for i, column in enumerate(columns):
        cells = _column_cells(column, digits, quote, seps[i == width - 1])
        if table is None:
            table = [""] * (width * len(cells))
        if width * len(cells) != len(table):
            raise ValueError(f"report columns differ in length: {len(table) // width} and {len(cells)}")
        table[i::width] = cells
        del cells  # before the next column's cells are formed
    return "".join(table or ())


def render_json(config: dict, names, columns, diagnostics: dict) -> str:
    rows = _table(names, columns, 17, True, (", ", "], ["))
    rows = f"[{rows[: -len('], [')]}]" if rows else ""
    return (
        f'{{"config": {_json_value(config)}, "columns": {_json_value(list(names))},'
        f' "rows": [{rows}], "diagnostics": {_json_value(diagnostics)}}}\n'
    )


def render_csv(names, columns) -> str:
    return ",".join(names) + "\n" + _table(names, columns, 12, False, (",", "\n"))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text via a temporary file and an atomic rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
