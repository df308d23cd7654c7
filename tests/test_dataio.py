"""The data CSV reader: one float table, one label split, first error wins."""

import re
import tracemalloc

import numpy as np
import pytest

from rankqda.dataio import read_data_csv, write_data_csv
from rankqda.errors import DataError


def _csv(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "header, rows",
    [
        ("label,a,b", ["0,1.5,2.5", "1,3.5,4.5"]),
        ("a,label,b", ["1.5,0,2.5", "3.5,1,4.5"]),
        ("a,b,label", ["1.5,2.5,0", "3.5,4.5,1"]),
    ],
    ids=["first", "middle", "last"],
)
def test_label_column_anywhere_leaves_features_in_file_order(tmp_path, header, rows):
    X, y = read_data_csv(_csv(tmp_path, "\n".join([header, *rows]) + "\n"), "label")
    np.testing.assert_array_equal(X, [[1.5, 2.5], [3.5, 4.5]])
    assert X.flags.c_contiguous
    np.testing.assert_array_equal(y, [0, 1])
    assert y.dtype == int


def test_negative_zero_label_reads_as_zero(tmp_path):
    _, y = read_data_csv(_csv(tmp_path, "a,label\n1.0,-0.0\n2.0,1\n"), "label")
    assert y.tolist() == [0, 1]


def test_whitespace_padded_cells_and_header_are_stripped(tmp_path):
    X, y = read_data_csv(_csv(tmp_path, " a , label \n  1.25 ,\t1 \n-2e3, 0\n"), "label")
    np.testing.assert_array_equal(X, [[1.25], [-2000.0]])
    assert y.tolist() == [1, 0]


def test_no_label_column_returns_every_column(tmp_path):
    X, y = read_data_csv(_csv(tmp_path, "a,label,b\n1.0,0,2.0\n3.0,1,4.0\n"))
    np.testing.assert_array_equal(X, [[1.0, 0.0, 2.0], [3.0, 1.0, 4.0]])
    assert y is None


def test_first_error_in_row_major_order_wins(tmp_path):
    # a bad label at row 0, column 0 comes before a non-numeric cell in row 0 and a short row 1
    path = _csv(tmp_path, "label,a,b\n2,x,1.0\n0,1.0\n")
    with pytest.raises(ValueError, match=re.escape("labels must be 0/1; row 0 has 'label'=2")):
        read_data_csv(path, "label")
    with pytest.raises(DataError, match=re.escape("non-numeric value 'x' at row 0, column 'a'")):
        read_data_csv(path)


@pytest.mark.parametrize(
    "cell, message",
    [
        ("1_000", "non-numeric value '1_000' at row 0, column 'x0'"),
        (" nan ", "non-finite value 'nan' at row 0, column 'x0'"),
        ("inf", "non-finite value 'inf' at row 0, column 'x0'"),
        ("-Infinity", "non-finite value '-Infinity' at row 0, column 'x0'"),
        ("1e999", "non-finite value '1e999' at row 0, column 'x0'"),
    ],
)
def test_cells_outside_the_number_grammar_are_rejected(tmp_path, cell, message):
    path = _csv(tmp_path, f"x0,label\n{cell},0\n2.0,1\n")
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        read_data_csv(path, "label")


def test_nan_label_reports_as_non_finite_before_a_later_error(tmp_path):
    path = _csv(tmp_path, "x0,label\n1.0,nan\n2.0,2\n")
    with pytest.raises(DataError, match=re.escape("non-finite value 'nan' at row 0, column 'label'")):
        read_data_csv(path, "label")


def _csv_bytes(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    return path


def test_first_problem_in_file_order_wins_past_the_first_decode_chunk(tmp_path):
    # the bad cell is in row 0; the undecodable byte comes after the first 8 KiB decode chunk
    path = _csv_bytes(tmp_path, b"x0,label\nabc,0\n" + b"1.0,1\n" * 2000 + b"\xff,0\n")
    with pytest.raises(DataError, match="^" + re.escape("non-numeric value 'abc' at row 0, column 'x0'") + "$"):
        read_data_csv(path, "label")


def test_reading_peaks_at_a_small_multiple_of_the_returned_arrays(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "data.csv"
    write_data_csv(path, rng.standard_normal((20000, 10)), rng.integers(0, 2, 20000))
    tracemalloc.start()
    try:
        X, y = read_data_csv(path, "label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (20000, 10) and y.shape == (20000,)
    assert peak < 5 * (X.nbytes + y.nbytes)


@pytest.mark.parametrize(
    "text, where",
    [
        ("x0,label\n1.0,0\n{big},1\n", "row 1"),
        ("x0,{big}\n1.0,0\n", "header"),
    ],
    ids=["row", "header"],
)
def test_a_row_the_csv_parser_rejects_is_one_data_error_naming_it(tmp_path, text, where):
    path = _csv(tmp_path, text.format(big="1" * 131073))
    message = f"{where} of {path}: field larger than field limit (131072)"
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        read_data_csv(path, "label")


@pytest.mark.parametrize("cell", ["１２", "٣"], ids=["fullwidth", "arabic_indic"])
def test_non_ascii_digits_are_non_numeric(tmp_path, cell):
    path = _csv_bytes(tmp_path, f"x0,label\n{cell},0\n2.0,1\n".encode("utf-8"))
    message = f"non-numeric value {cell!r} at row 0, column 'x0'"
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        read_data_csv(path, "label")


def test_nbsp_padded_ascii_cells_are_read(tmp_path):
    path = _csv_bytes(tmp_path, "x0,label\n\u00a01.5\u00a0,\u00a01\n2.0,0\n".encode("utf-8"))
    X, y = read_data_csv(path, "label")
    np.testing.assert_array_equal(X, [[1.5], [2.0]])
    assert y.tolist() == [1, 0]


def test_header_only_file_reports_no_data_rows_before_a_missing_label_column(tmp_path):
    path = _csv(tmp_path, "x0,x1\n")
    with pytest.raises(DataError, match="^" + re.escape(f"no data rows in {path}") + "$"):
        read_data_csv(path, "label")
