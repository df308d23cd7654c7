"""CSV reading and writing for the batch pipeline.

Data files carry a header row; every column except the named label
column is a numeric feature. UTF-8; every cell is a finite '.'-decimal
number in ASCII digits (``nan``, ``inf``, ``1_000`` and ``１２`` are
rejected); no missing values (an empty field is a hard error, never
imputed). Blank lines are skipped anywhere in the file, as ``np.loadtxt``
does, and row numbers in messages count data rows only; a line holding
only spaces is a row with one field, not a blank line. The reader makes
one streaming pass: each row is checked and parsed as the CSV parser
yields it, into one flat float buffer, so the first problem in file
order is the one reported, whether it is a bad cell, a row the CSV
parser rejects (named by its row, e.g. a field over the parser's size
limit) or an undecodable byte.

Both writers go through one private CSV write (UTF-8, the csv module's
default dialect, a header row then the rows), each passing its own row
generator; floats are written with ``repr``, so they read back exactly.
"""

import csv
import math
from array import array

import numpy as np

from .errors import DataError


def read_data_csv(path, label_col: str | None = None):
    """Read a data CSV row by row into one float table, then split the label column off.

    Returns ``(X, y)``: ``X`` holds the other columns in file order, ``y``
    the 0/1 labels as ints, or None when ``label_col`` is None.
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
                    if label_col not in header:
                        raise ValueError(f"label column {label_col!r} not found in {path}")
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
    table = np.frombuffer(values).reshape(i + 1, len(header))
    if label_idx is None:
        return table, None
    return np.delete(table, label_idx, axis=1), table[:, label_idx].astype(int)


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
    """Write one (pred, vote) row per input row."""
    rows = ([int(pred), repr(float(vote))] for pred, vote in zip(preds, votes))
    _write_csv(path, ["pred", "vote"], rows)
