"""Deterministic CSV and JSON emission for scenario reports.

A report table arrives as columns, all of one length, in row order.  A
column is a 1-D sequence, or a pair (values, index) whose cell i is
values[index[i]], and values[-index[i]] negated where index[i] < 0, so a
table with parity zeros or symmetric entries hands over each value once.
A column holds floats, integers (int64) or strings; booleans and anything
else are refused, and so is a negative index into strings.

Every check runs before the first piece of text exists: each column's
kind, NaN and infinities, the column lengths, and the config and
diagnostics values.  So a refused report writes nothing.  The text is then
formed as a sequence of pieces, one block of rows (_BLOCK_CELLS cells) at a
time, so neither the whole text nor its whole list of cells is ever held.
Text is formed once per distinct value (`np.unique`), with the separator
that follows it: the values of a (values, index) column once, up front,
and a plain column's within each block.  A negated cell is its value's text
with the sign flipped.

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

_BLOCK_CELLS = 1 << 15  # the cells of one piece of text: rows per block are this over the table's width


def _json_value(v) -> str:
    """One config or diagnostics value (scalars, dicts and lists of them)."""
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, int) and not isinstance(v, bool):  # a bool is an int, but no report carries one
        return str(v)
    if isinstance(v, float):
        return _texts(_checked([v]), 17, True, "")[0]
    if isinstance(v, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__} deterministically")


def _checked(values) -> np.ndarray:
    """`values` as a 1-D array of floats, integers or strings, refused if it holds NaN or infinities."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"a report column must be one-dimensional, got shape {a.shape}")
    kind = a.dtype.kind
    if kind == "b":
        raise TypeError("boolean cells are not part of any report schema")
    if kind not in "fiuU":
        raise TypeError(f"cannot serialize a {a.dtype} column deterministically")
    if kind == "f" and not np.isfinite(a).all():
        raise ValueError("reports must not contain NaN or infinities")
    return a


def _texts(distinct: np.ndarray, digits: int, quote: bool, sep: str) -> list[str]:
    """The text of each value, followed by `sep`; `quote` writes strings as JSON string literals.

    -0.0 prints as 0, like 0.0.
    """
    kind = distinct.dtype.kind
    if kind == "f":
        template = f"%.{digits}g{sep}"  # % formats a float as format(v, ".{digits}g") does
        return [template % v for v in (distinct + 0.0).tolist()]  # + 0.0 turns -0.0 into 0.0
    if kind == "U":
        return [(json.dumps(v) if quote else v) + sep for v in distinct.tolist()]
    return [str(v) + sep for v in distinct.tolist()]


def _column(column, digits: int, quote: bool, sep: str):
    """Check one column, plain or (values, index); return its length and `cells(start, stop)`.

    `cells` gives the texts of rows [start, stop), each followed by `sep`, as
    an object array.  The values of a pair are formatted here, once each; a
    plain column's values are formatted per call, once per distinct value.
    -0.0 and 0.0 are one distinct value, and a negated zero prints as 0.
    """
    if not isinstance(column, tuple):
        a = _checked(column)

        def plain_cells(start, stop):
            distinct, inverse = np.unique(a[start:stop], return_inverse=True)
            return np.array(_texts(distinct, digits, quote, sep), dtype=object)[inverse]

        return len(a), plain_cells
    values, index = column
    distinct, inverse = np.unique(_checked(values), return_inverse=True)
    index, text = np.asarray(index), _texts(distinct, digits, quote, sep)
    negated = bool((index < 0).any())
    if negated:
        if distinct.dtype.kind == "U":
            raise TypeError("a string column cannot be negated")
        zero = "0" + sep
        text += [t if t == zero else t[1:] if t[0] == "-" else "-" + t for t in text]  # after the plain texts
    text = np.array(text, dtype=object)

    def indexed_cells(start, stop):
        block = index[start:stop]
        slots = inverse[np.abs(block)]
        if negated:
            slots[block < 0] += len(distinct)
        return text[slots]

    return len(index), indexed_cells


def _blocks(names, columns, digits: int, quote: bool, seps: tuple[str, str]):
    """Check every column, then return the table's text as a generator of pieces, one block of rows each.

    Each cell is followed by seps[0], a row's last by seps[1].
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} column names for {len(columns)} columns")
    width, cells, rows = len(columns), [], 0
    for i, column in enumerate(columns):
        length, column_cells = _column(column, digits, quote, seps[i == width - 1])
        if cells and length != rows:
            raise ValueError(f"report columns differ in length: {rows} and {length}")
        cells.append(column_cells)
        rows = length
    return _pieces(cells, rows, max(1, _BLOCK_CELLS // max(1, width)))


def _pieces(cells, rows: int, step: int):
    """The cells of rows [start, start + step), interleaved a column at a time and joined, for each block."""
    width = len(cells)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        table = [""] * (width * (stop - start))
        for i, column_cells in enumerate(cells):
            table[i::width] = column_cells(start, stop).tolist()
        yield "".join(table)


def _json_pieces(config: dict, names, columns, diagnostics: dict):
    """The checked JSON report as a generator of pieces."""
    blocks = _blocks(names, columns, 17, True, (", ", "], ["))
    head = f'{{"config": {_json_value(config)}, "columns": {_json_value(list(names))}, "rows": ['
    return _json_text(head, blocks, f'], "diagnostics": {_json_value(diagnostics)}}}\n')


def _json_text(head: str, blocks, tail: str):
    """head, the rows, tail; each block is held back until the next arrives, so that the last loses its "], ["."""
    held = None
    for block in blocks:
        yield head + "[" if held is None else held
        held = block
    yield head + tail if held is None else held[: -len("], [")] + "]" + tail


def _csv_pieces(names, columns):
    """The checked CSV report as a generator of pieces."""
    head = ",".join(names) + "\n"
    return _csv_text(head, _blocks(names, columns, 12, False, (",", "\n")))


def _csv_text(head: str, blocks):
    yield head
    yield from blocks


def render_json(config: dict, names, columns, diagnostics: dict) -> str:
    return "".join(_json_pieces(config, names, columns, diagnostics))


def render_csv(names, columns) -> str:
    return "".join(_csv_pieces(names, columns))


def atomic_write_text(path: str | Path, pieces) -> None:
    """Write UTF-8 text, given as an iterable of str pieces, via a temporary file and an atomic rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as f:
            f.writelines(pieces)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
