"""CSV reading and writing for the batch pipeline.

Data files carry a header row; every column except the named label
column is a numeric feature. UTF-8, with or without a leading
byte-order mark (as spreadsheet programs write it); every cell is a
finite '.'-decimal number in ASCII digits (``nan``, ``inf``, ``1_000``
and ``１２`` are rejected); no missing values (an empty field is a hard
error, never imputed). Blank lines are skipped anywhere in the file, as
``np.loadtxt`` does, and row numbers in messages count data rows only; a
line holding only spaces is a row with one field, not a blank line.

A file is read in one pass into one flat float buffer. It is opened
once, as ``utf-8-sig`` so a leading byte-order mark is dropped, with
bytes UTF-8 cannot decode kept as U+DC80-U+DCFF
(``errors="surrogateescape"``), so decoding never fails ahead of the CSV
parser and such a byte is reported where the reader reaches it. Data
lines are taken ``_BLOCK`` at a time. A plain block, whose lines hold
only digits, ``eE+-.`` and commas, is parsed by ``np.loadtxt`` and
checked for width, finiteness and 0/1 labels. At the first block that is
not plain or fails a check, the per-cell loop takes over: it reads that
block's lines and the rest of the file, checks and parses each row as
the CSV parser yields it, and numbers rows on from those already read.
The loop is the one owner of the number grammar and of every message,
so the first problem in file order is the one reported, whether it is a
bad cell, an undecodable byte, or a row the CSV parser rejects (named by
its row, e.g. a field over the parser's size limit).

Both writers go through one private CSV write (UTF-8, the csv module's
default dialect, a header row then the rows), each passing its own row
generator; floats are written with ``repr``, so they read back exactly.
"""

import csv
import math
import re
from array import array
from itertools import chain, islice

import numpy as np

from .errors import DataError


_BLOCK = 8192  # data lines per bulk block
_PLAIN_LINE = re.compile(r"[0-9eE+\-.,]+\r?\n?")
_UNDECODABLE = re.compile("[\udc80-\udcff]")  # a byte UTF-8 cannot decode, under surrogateescape


def read_data_csv(path, label_col: str | None = None):
    """Read a data CSV into one float table, then split the label column off.

    Returns ``(X, y)``: ``X`` holds the other columns in file order, ``y``
    the 0/1 labels as ints, or None when ``label_col`` is None.
    """
    values = array("d")
    with open(path, "r", newline="", encoding="utf-8-sig", errors="surrogateescape") as f:
        try:
            header = next(filter(None, csv.reader(f)), None)  # a blank line is a record with no fields
        except csv.Error as exc:
            raise DataError(f"header of {path}: {exc}") from None
        if header is None:
            raise DataError(f"empty data file: {path}")
        header = [h.strip() for h in header]
        if byte := _undecodable("".join(header)):
            raise DataError(f"{byte} in the header of {path}")
        while lines := list(islice(f, _BLOCK)):
            block = _plain_block(lines, path, header, label_col)
            if block is None:
                _read_loop(chain(lines, f), path, header, label_col, values)
                break
            values.frombytes(memoryview(block).cast("B"))
            del lines, block  # so the next block's lines and floats do not coexist with these
    if not values:
        raise DataError(f"no data rows in {path}")
    table = np.frombuffer(values).reshape(-1, len(header))
    label_idx = _label_index(header, label_col, path)
    if label_idx is None:
        return table, None
    return np.delete(table, label_idx, axis=1), table[:, label_idx].astype(int)


def _undecodable(text):
    """``'undecodable byte 0xNN'`` for the first such byte in ``text``, or None."""
    bad = _UNDECODABLE.search(text)
    return bad and f"undecodable byte {ord(bad[0]) - 0xDC00:#04x}"


def _label_index(header, label_col, path):
    """The index of ``label_col`` in ``header``; None when ``label_col`` is None.

    Called at the first data row, so a header-only file reports no data rows.
    """
    if label_col is None:
        return None
    count = header.count(label_col)
    if count == 0:
        raise ValueError(f"label column {label_col!r} not found in {path}")
    if count > 1:
        raise DataError(f"label column {label_col!r} appears {count} times in {path}")
    return header.index(label_col)


def _plain_block(lines, path, header, label_col):
    """The rows of ``lines`` as floats, or None to leave them to ``_read_loop``.

    Every line must match ``_PLAIN_LINE`` and be no longer than the CSV
    field limit, and the block must parse to the header's width with finite
    values and 0/1 labels.
    """
    if max(map(len, lines)) > csv.field_size_limit() or not all(map(_PLAIN_LINE.fullmatch, lines)):
        return None
    label_idx = _label_index(header, label_col, path)  # a plain line is a data row the loop would yield
    try:
        block = np.loadtxt(lines, delimiter=",", dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    plain = (block.shape[1] == len(header) and np.isfinite(block).all()
             and (label_idx is None or np.isin(block[:, label_idx], (0.0, 1.0)).all()))
    return block if plain else None


def _read_loop(lines, path, header, label_col, values):
    """Append the rows of ``lines`` to ``values``, each cell checked as the CSV parser yields it.

    Rows are numbered on from those already in ``values``. It reads any
    text, and raises at the first problem in file order.
    """
    start = len(values) // len(header)
    try:
        for i, row in enumerate(filter(None, csv.reader(lines)), start):
            if i == start:
                label_idx = _label_index(header, label_col, path)
            if len(row) != len(header):
                raise DataError(f"row {i} of {path} has {len(row)} fields, expected {len(header)}")
            for j, cell in enumerate(row):
                cell = cell.strip()
                if cell == "":
                    raise DataError(f"missing value at row {i}, column {header[j]!r}")
                try:
                    value = float(cell)
                    if "_" in cell or not cell.isascii():  # float() also reads 1_000 and "１２"
                        raise ValueError(cell)
                except ValueError:
                    what = _undecodable(cell) or f"non-numeric value {cell!r}"
                    raise DataError(f"{what} at row {i}, column {header[j]!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"non-finite value {cell!r} at row {i}, column {header[j]!r}")
                if j == label_idx and value not in (0.0, 1.0):
                    raise ValueError(f"labels must be 0/1; row {i} has {header[j]!r}={cell}")
                values.append(value)
    except csv.Error as exc:  # raised reading a row, so every row before it is in values
        raise DataError(f"row {len(values) // len(header)} of {path}: {exc}") from None


def _write_csv(path, header, rows) -> None:
    """The one CSV write: UTF-8, the csv module's default dialect, ``header`` then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_data_csv(path, X, labels, latent=None) -> None:
    """Write features plus a ``label`` column; latent columns are optional."""
    X = np.asarray(X)
    header = [f"x{j}" for j in range(X.shape[1])] + ["label"]
    if latent is not None:
        latent = np.asarray(latent)
        header += [f"s{j}" for j in range(X.shape[1])]

    def row(i):
        values = [repr(v) for v in X[i].tolist()] + [int(labels[i])]
        return values if latent is None else values + [repr(v) for v in latent[i].tolist()]

    _write_csv(path, header, map(row, range(X.shape[0])))


def write_predictions_csv(path, preds, votes) -> None:
    """Write one (pred, vote) row per input row.

    Each distinct vote (by its bits, so ``-0.0`` keeps its sign) is
    formatted once: an ensemble of ``b1`` blocks has at most ``b1 + 1``.
    """
    bits, inverse = np.unique(np.asarray(votes, dtype=float).view(np.uint64), return_inverse=True)
    reprs = [repr(vote) for vote in bits.view(float).tolist()]
    rows = zip(np.asarray(preds).astype(int).tolist(), map(reprs.__getitem__, inverse.tolist()))
    _write_csv(path, ["pred", "vote"], rows)
