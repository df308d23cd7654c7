"""CSV reading and writing for the batch pipeline.

Data files carry a header row; every column except the named label
column is a numeric feature. UTF-8; every cell is a finite '.'-decimal
number in ASCII digits (``nan``, ``inf``, ``1_000`` and ``１２`` are
rejected); no missing values (an empty field is a hard error, never
imputed). Blank lines are skipped anywhere in the file, as ``np.loadtxt``
does, and row numbers in messages count data rows only; a line holding
only spaces is a row with one field, not a blank line.

A file is read by one of two routes into one flat float buffer, with
the same values either way. A plain file, whose data lines hold only
digits, ``eE+-.`` and commas and whose label column appears once, is
parsed ``_BLOCK`` lines at a time by ``np.loadtxt``. Any other file is
read by the per-cell loop, which checks and parses each row as the CSV
parser yields it, so the first problem in file order is the one
reported, whether it is a bad cell, a row the CSV parser rejects (named
by its row, e.g. a field over the parser's size limit) or an
undecodable byte. The loop is the one owner of the number grammar and
of every message: a block that is not plain, or that fails to parse or
check, sends the whole file back to the loop from its first line. A
file that turns non-plain late so pays for the bulk pass up to that
block before the loop reads it.

Both writers go through one private CSV write (UTF-8, the csv module's
default dialect, a header row then the rows), each passing its own row
generator; floats are written with ``repr``, so they read back exactly.
"""

import csv
import math
import re
from array import array
from itertools import islice

import numpy as np

from .errors import DataError


_BLOCK = 8192  # data lines per bulk block
_PLAIN_LINE = re.compile(r"[0-9eE+\-.,]+\r?\n?")


def read_data_csv(path, label_col: str | None = None):
    """Read a data CSV into one float table, then split the label column off.

    Returns ``(X, y)``: ``X`` holds the other columns in file order, ``y``
    the 0/1 labels as ints, or None when ``label_col`` is None.
    """
    return _read_bulk(path, label_col) or _read_loop(path, label_col)


def _split(values, n_cols: int, label_idx):
    """``(X, y)`` from a flat row-major buffer of ``n_cols`` columns."""
    table = np.frombuffer(values).reshape(-1, n_cols)
    if label_idx is None:
        return table, None
    return np.delete(table, label_idx, axis=1), table[:, label_idx].astype(int)


def _read_bulk(path, label_col):
    """``(X, y)`` of a plain file, parsed ``_BLOCK`` lines at a time; None for any other file.

    Every data line must match ``_PLAIN_LINE`` and be no longer than the
    CSV field limit, and every block must parse to the header's width with
    finite values and 0/1 labels. Anything else, including an undecodable
    byte or a header the CSV parser rejects, returns None, leaving the file
    and its messages to ``_read_loop``.
    """
    values = array("d")
    limit = csv.field_size_limit()
    try:  # ValueError: loadtxt's parse error, or an undecodable byte
        with open(path, "r", newline="", encoding="utf-8") as f:
            header = next(filter(None, csv.reader(f)), None)
            if header is None:
                return None
            header = [h.strip() for h in header]
            if label_col is not None and header.count(label_col) != 1:
                return None
            label_idx = None if label_col is None else header.index(label_col)
            label_cols = [] if label_idx is None else [label_idx]
            while lines := list(islice(f, _BLOCK)):
                if max(map(len, lines)) > limit or not all(map(_PLAIN_LINE.fullmatch, lines)):
                    return None
                block = np.loadtxt(lines, delimiter=",", dtype=float, comments=None, ndmin=2)
                if (block.shape[1] != len(header) or not np.isfinite(block).all()
                        or not np.isin(block[:, label_cols], (0.0, 1.0)).all()):
                    return None
                values.frombytes(memoryview(block).cast("B"))
                del lines, block  # so the next block's lines and floats do not coexist with these
    except (ValueError, csv.Error):
        return None
    if not values:  # no data rows: the loop owns that message
        return None
    return _split(values, len(header), label_idx)


def _read_loop(path, label_col):
    """``(X, y)`` read row by row, each cell checked as the CSV parser yields it.

    It reads any file, and raises at the first problem in file order.
    """
    values = array("d")
    header, i = None, -1  # i: the last data row read
    with open(path, "r", newline="", encoding="utf-8") as f:
        records = filter(None, csv.reader(f))  # a blank line is a record with no fields
        try:
            header = next(records, None)
            if header is None:
                raise DataError(f"empty data file: {path}")
            header = [h.strip() for h in header]
            label_idx = None  # looked up at the first data row: a header-only file has no data rows
            for i, row in enumerate(records):
                if i == 0 and label_col is not None:
                    count = header.count(label_col)
                    if count == 0:
                        raise ValueError(f"label column {label_col!r} not found in {path}")
                    if count > 1:
                        raise DataError(f"label column {label_col!r} appears {count} times in {path}")
                    label_idx = header.index(label_col)
                if len(row) != len(header):
                    raise DataError(
                        f"row {i} of {path} has {len(row)} fields, expected {len(header)}"
                    )
                for j, cell in enumerate(row):
                    cell = cell.strip()
                    if cell == "":
                        raise DataError(f"missing value at row {i}, column {header[j]!r}")
                    try:
                        value = float(cell)
                        if "_" in cell or not cell.isascii():  # float() also reads 1_000 and "１２"
                            raise ValueError(cell)
                    except ValueError:
                        raise DataError(
                            f"non-numeric value {cell!r} at row {i}, column {header[j]!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise DataError(f"non-finite value {cell!r} at row {i}, column {header[j]!r}")
                    if j == label_idx and value not in (0.0, 1.0):
                        raise ValueError(f"labels must be 0/1; row {i} has {header[j]!r}={cell}")
                    values.append(value)
        except csv.Error as exc:
            where = "header" if header is None else f"row {i + 1}"
            raise DataError(f"{where} of {path}: {exc}") from None

    if i < 0:
        raise DataError(f"no data rows in {path}")
    return _split(values, len(header), label_idx)


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
