"""Deterministic CSV and JSON emission for scenario reports.

A report table arrives as columns, all of one length, in row order.  A
column is a 1-D sequence, or a pair (values, index) whose cell i is
values[index[i]], and values[-index[i]] negated where index[i] < 0, so a
table with parity zeros or symmetric entries hands over each value once.
A column holds floats, integers (int64) or strings without NUL; anything
else is refused, and so is a negative index into strings.

Every check runs before the first piece of text exists: each column's
kind, NaN and infinities, the column lengths, and the config and
diagnostics values.  So a refused report writes nothing.  The text is then
formed one block of rows (_BLOCK_CELLS cells) at a time.  Each column's
distinct values become a table of fixed-width bytes, each text padded
with NUL and followed by its separator: a (values, index) column's once,
up front, with the negated texts after them, and a plain column's within
each block.  A block gathers every column's table at its slots into one
structured array, whose bytes less the NUL padding are its text.

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
        return "%.17g" % (_checked([v])[0] + 0.0)  # as a JSON float cell; + 0.0 turns -0.0 into 0.0
    if isinstance(v, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__} deterministically")


def _checked(values) -> np.ndarray:
    """`values` as a 1-D array of floats, integers or strings, refused if it holds NaN, infinities or NUL."""
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
    if kind == "U" and any("\0" in s for s in map(str, values)):  # the text drops NUL, and `a` a trailing one
        raise ValueError("string cells must not contain NUL characters")
    return a


def _table(distinct: np.ndarray, digits: int, quote: bool, end: bytes) -> np.ndarray:
    """Each value's text, NUL padding and `end`, as a table of fixed-width UTF-8 bytes (`S` dtype).

    Floats and integers take one `%` per chunk of at most _BLOCK_CELLS values, padded with spaces to the
    longest text of their kind, which become NUL.  `quote` writes JSON strings; -0.0 prints as 0.
    """
    n, kind = len(distinct), distinct.dtype.kind
    if kind == "U":
        texts = [(json.dumps(v) if quote else v).encode() for v in distinct.tolist()]
        width = max(map(len, texts), default=0)
        chunks = [text.ljust(width, b"\0") + end for text in texts]
    else:
        # "-d.<digits - 1>e-308" is the longest %g text, "-9223372036854775808" the longest int64
        width, spec = (digits + 7, f".{digits}g") if kind == "f" else (20, "d")
        template = f"%-{width}{spec}".encode() + end.replace(b" ", b"\1")  # the end's spaces are kept
        swap, values = bytes.maketrans(b" \1", b"\0 "), distinct + 0.0 if kind == "f" else distinct
        chunks = ((template * len(c) % c).translate(swap)
                  for c in (tuple(values[i : i + _BLOCK_CELLS].tolist()) for i in range(0, n, _BLOCK_CELLS)))
    return np.frombuffer(b"".join(chunks), f"S{width + len(end)}")


def _narrowed(table: np.ndarray, tail: int) -> np.ndarray:
    """`table` less the NUL padding that all its texts have; the last `tail` bytes of each entry stay."""
    text = table.view(np.uint8).reshape(len(table), table.itemsize)
    used = np.flatnonzero(text[:, :-tail].any(axis=0)).max(initial=-1) + 1  # the longest text
    return np.concatenate((text[:, :used], text[:, -tail:]), axis=1).view(f"S{used + tail}").reshape(-1)


def _negated(table: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """`table`, then its texts negated: a leading "-" becomes NUL, any other text but a `zero`'s gains a "-"."""
    text = table.view(np.uint8).reshape(len(table), table.itemsize)
    minus = text[:, 0] == ord("-")
    both = np.zeros((2, len(table), table.itemsize + 1), np.uint8)
    both[:, :, 1:] = text
    both[1, minus, 1] = 0
    both[1, :, 0] = np.where(minus | zero, 0, ord("-"))
    return both.view(f"S{table.itemsize + 1}").reshape(-1)


def _column(column, digits: int, quote: bool, end: bytes):
    """Check one column, plain or (values, index); return its length and `cells(start, stop)`.

    `cells` gives a table (`_table`, texts followed by `end`) and the slot in it of each of rows
    [start, stop).  A pair's values are formatted here, with their negated texts after them, a plain
    column's per call; each distinct value once, -0.0 and 0.0 as one.
    """
    if not isinstance(column, tuple):
        a = _checked(column)

        def plain_cells(start, stop):
            if stop - start == 1:  # one cell is its own distinct value
                return _table(a[start:stop], digits, quote, end), 0
            # np.unique(a[start:stop], return_inverse=True), less its own cost of several us a call
            order = a[start:stop].argsort()
            ordered = a[start:stop][order]
            first = np.concatenate(([True], ordered[1:] != ordered[:-1]))  # the first of each equal run
            slots = np.empty(stop - start, np.intp)
            slots[order] = first.cumsum() - 1
            return _table(ordered[first], digits, quote, end), slots

        return len(a), plain_cells
    values, index = column
    distinct, inverse = np.unique(_checked(values), return_inverse=True)
    index = np.asarray(index)
    negated = bool((index < 0).any())
    if negated and distinct.dtype.kind == "U":
        raise TypeError("a string column cannot be negated")
    table = _narrowed(_table(distinct, digits, quote, end), len(end))  # each byte it drops, one less per row
    if negated:
        table = _negated(table, distinct == 0)

    def indexed_cells(start, stop):
        block = index[start:stop]
        slots = inverse[np.abs(block)]
        if negated:
            slots[block < 0] += len(distinct)
        return table, slots

    return len(index), indexed_cells


def _blocks(names, columns, digits: int, quote: bool, seps: tuple[str, str], row_start: str = "", cut: int = 0):
    """Check every column, then return the table's text as a generator of pieces, one block of rows each.

    Each row starts with `row_start`, each cell is followed by seps[0] and a row's last by seps[1],
    less its final `cut` characters in the last row.
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} column names for {len(columns)} columns")
    width, cells, rows = len(columns), [], 0
    for i, column in enumerate(columns):
        length, column_cells = _column(column, digits, quote, seps[i == width - 1].encode())
        if cells and length != rows:
            raise ValueError(f"report columns differ in length: {rows} and {length}")
        cells.append(column_cells)
        rows = length
    if row_start:  # a table of one text, whose slot 0, a scalar, serves every row
        cells.insert(0, lambda start, stop, table=np.array([row_start.encode()]): (table, 0))
    step = max(1, _BLOCK_CELLS // max(1, width))
    return (_block_bytes(cells, start, min(start + step, rows), cut if start + step >= rows else 0)
            .translate(None, b"\0").decode() for start in range(0, rows, step))


def _block_bytes(cells, start: int, stop: int, cut: int) -> bytes:
    """Rows [start, stop): every column's table gathered at its slots into one structured array, as
    bytes, the last `cut` of them NUL."""
    parts = [column_cells(start, stop) for column_cells in cells]
    block = np.empty(stop - start, [(f"c{i}", table.dtype) for i, (table, _) in enumerate(parts)])
    for i, (table, slots) in enumerate(parts):
        block[f"c{i}"] = table[slots]
    del parts, table, slots  # the plain columns' tables, before the block's bytes are copied out
    if cut:
        block.view(np.uint8)[-cut:] = 0
    return block.tobytes()


def _json_pieces(config: dict, names, columns, diagnostics: dict):
    """The checked JSON report as a generator of pieces."""
    blocks = _blocks(names, columns, 17, True, (", ", "], "), "[", len(", "))
    head = f'{{"config": {_json_value(config)}, "columns": {_json_value(list(names))}, "rows": ['
    return _text(head, blocks, f'], "diagnostics": {_json_value(diagnostics)}}}\n')


def _csv_pieces(names, columns):
    """The checked CSV report as a generator of pieces."""
    return _text(",".join(names) + "\n", _blocks(names, columns, 12, False, (",", "\n")), "")


def _text(head: str, blocks, tail: str):
    yield head
    yield from blocks
    yield tail


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
