"""The data CSV reader: one float table, one label split, first error wins."""

import csv
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankqda import dataio
from rankqda.dataio import read_data_csv, write_data_csv, write_predictions_csv
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


@pytest.mark.parametrize(
    "text",
    [
        "x0,label\n1.5,0\n2.5,1\n\n",
        "\nx0,label\n1.5,0\n2.5,1\n",
        "x0,label\n1.5,0\n\n\n2.5,1\n",
        "\r\n\nx0,label\r\n\r\n1.5,0\r\n2.5,1\r\n\r\n",
    ],
    ids=["trailing", "before_header", "between_rows", "crlf_everywhere"],
)
def test_blank_lines_are_skipped(tmp_path, text):
    X, y = read_data_csv(_csv_bytes(tmp_path, text.encode("utf-8")), "label")
    np.testing.assert_array_equal(X, [[1.5], [2.5]])
    assert y.tolist() == [0, 1]


def test_header_followed_only_by_blank_lines_has_no_data_rows(tmp_path):
    path = _csv(tmp_path, "x0,label\n\n\n")
    with pytest.raises(DataError, match="^" + re.escape(f"no data rows in {path}") + "$"):
        read_data_csv(path, "label")


def test_a_file_of_blank_lines_is_empty(tmp_path):
    path = _csv(tmp_path, "\n\n")
    with pytest.raises(DataError, match="^" + re.escape(f"empty data file: {path}") + "$"):
        read_data_csv(path)


def test_row_numbers_after_blank_lines_count_data_rows(tmp_path):
    path = _csv(tmp_path, "x0,label\n1.5,0\n\n\n2.5,x\n")
    with pytest.raises(DataError, match="^" + re.escape("non-numeric value 'x' at row 1, column 'label'") + "$"):
        read_data_csv(path, "label")


@pytest.mark.parametrize(
    "text, label_col, message",
    [
        ("x0,label\n1.5,0\n   \n2.5,1\n", "label", "row 1 of {path} has 1 fields, expected 2"),
        ("x0\n1.5\n \t \n", None, "missing value at row 1, column 'x0'"),
    ],
    ids=["two_columns", "one_column"],
)
def test_a_whitespace_only_line_is_a_row(tmp_path, text, label_col, message):
    path = _csv(tmp_path, text)
    with pytest.raises(DataError, match="^" + re.escape(message.format(path=path)) + "$"):
        read_data_csv(path, label_col)


_finite_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _data_files(draw):
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(_finite_floats, min_size=n * p, max_size=n * p))).reshape(n, p)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    latent = None
    if draw(st.booleans()):
        latent = np.array(draw(st.lists(_finite_floats, min_size=n * p, max_size=n * p))).reshape(n, p)
    return X, labels, latent


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(data=_data_files(), label_col=st.sampled_from(["label", None]))
def test_write_data_csv_reads_back_bit_for_bit(tmp_path_factory, data, label_col):
    X, labels, latent = data
    path = tmp_path_factory.mktemp("roundtrip") / "data.csv"
    write_data_csv(path, X, labels, latent)
    features, y = read_data_csv(path, label_col)
    others = [X] if latent is None else [X, latent]
    if label_col is None:
        expected = np.hstack([X, labels[:, None].astype(float)] + others[1:])
        np.testing.assert_array_equal(_bits(features), _bits(expected))
        assert y is None
    else:
        np.testing.assert_array_equal(_bits(features), _bits(np.hstack(others)))
        assert y.dtype == int and y.tolist() == labels.tolist()


def test_write_data_csv_writes_plain_lists_as_arrays(tmp_path):
    X, labels = [[1.5, -0.0], [2.0, 1e-300]], [0, 1]
    write_data_csv(tmp_path / "lists.csv", X, labels)
    write_data_csv(tmp_path / "arrays.csv", np.array(X), np.array(labels))
    assert (tmp_path / "lists.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()


def test_write_data_csv_writes_plain_list_latent_scores_as_arrays(tmp_path):
    X, labels, latent = [[1.0, 2.0], [-0.0, 1e-300]], [0, 1], [[0.5, 0.25], [-0.0, -1.5]]
    write_data_csv(tmp_path / "lists.csv", X, labels, latent=latent)
    write_data_csv(tmp_path / "arrays.csv", np.array(X), np.array(labels), latent=np.array(latent))
    assert (tmp_path / "lists.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 1), _finite_floats), min_size=0, max_size=8),
)
def test_write_predictions_csv_reads_back_exactly(tmp_path_factory, rows):
    preds = np.array([pred for pred, _ in rows], dtype=int)
    votes = np.array([vote for _, vote in rows], dtype=float)
    path = tmp_path_factory.mktemp("preds") / "preds.csv"
    write_predictions_csv(path, preds, votes)
    with open(path, newline="", encoding="utf-8") as f:
        header, *body = list(csv.reader(f))
    assert header == ["pred", "vote"]
    assert [int(pred) for pred, _ in body] == preds.tolist()
    np.testing.assert_array_equal(_bits([float(vote) for _, vote in body]), _bits(votes))


def test_a_duplicated_label_column_is_an_error_not_a_feature(tmp_path):
    path = _csv(tmp_path, "x0,label,label\n1.5,0,7\n2.5,1,9\n")
    message = f"label column 'label' appears 2 times in {path}"
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        read_data_csv(path, "label")


def _outcome(read, path, label_col):
    """What a reader returns, as bits, or the type and text of what it raises."""
    try:
        X, y = read(path, label_col)
    except ValueError as exc:  # DataError included
        return type(exc), str(exc)
    return X.shape, _bits(X).tobytes(), None if y is None else (y.dtype, y.tolist())


def _read_by_the_loop(path, label_col):
    """``read_data_csv`` with no line plain, so the per-cell loop reads every row."""
    with mock.patch.object(dataio, "_PLAIN_LINE", re.compile("(?!)")):
        return read_data_csv(path, label_col)


_PLAIN_EDGE_CELLS = ["-0", "5.", "+.5e-3", "1E5", "5e-324", "-2.2250738585072014e-308",
                     "1.7976931348623157e308", "-1.7976931348623157e308"]
_plain_cells = st.one_of(
    st.sampled_from(_PLAIN_EDGE_CELLS), st.floats(allow_nan=False, allow_infinity=False).map(repr)
)
_labels = st.sampled_from(["0", "1", "-0", "1.0", "+1e0"])
_accepted_cells = st.sampled_from(['"1.5"', " 2.5", "3.5\t", "\u00a04.5", " -0 "])
_rejected_cells = st.sampled_from(["nan", "1_000", "１２", "", "1" * 131073])
_plain_rejected_cells = st.sampled_from(["1e999", "-1e400", "1.2.3", "1e", "-", "1,"])
_PROBLEMS = st.sampled_from(["accepted cell", "rejected cell", "short row", "blank line", "duplicate label",
                             "xff byte"])
_PLAIN_PROBLEMS = st.sampled_from(["plain rejected cell", "bad label"])  # the bulk route's own checks


@st.composite
def _any_files(draw):
    """Bytes of a plain data file with up to two of the loop's cases put in at any row."""
    p = draw(st.integers(1, 3))
    label_at = draw(st.integers(0, p))
    header = [f"x{j}" for j in range(p)]
    header.insert(label_at, "label")
    rows = [[draw(_labels if j == label_at else _plain_cells) for j in range(p + 1)]
            for _ in range(draw(st.integers(0, 10)))]
    blanks, xff = [], None
    for problem in draw(st.lists(st.one_of(_PROBLEMS, _PLAIN_PROBLEMS), max_size=2)):
        if problem == "duplicate label":
            header.append("label")
            rows = [row + ["7"] for row in rows]
        elif problem == "xff byte":
            xff = draw(st.floats(0, 1))
        elif problem == "blank line":
            blanks.append((draw(st.integers(0, len(rows) + 1)), draw(st.sampled_from(["", " ", " \t "]))))
        elif rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if problem == "short row":
                row.pop()
            elif problem == "bad label":
                if label_at < len(row):  # a short row may have lost its label cell
                    row[label_at] = draw(st.sampled_from(["2", "0.5", "-1", "1e999"]))
            else:
                cells = {"accepted cell": _accepted_cells, "rejected cell": _rejected_cells,
                         "plain rejected cell": _plain_rejected_cells}[problem]
                row[draw(st.integers(0, len(row) - 1))] = draw(cells)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for at, line in sorted(blanks, reverse=True):
        lines.insert(at, line)
    data = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines).encode("utf-8")
    if xff is not None:
        at = int(xff * len(data))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=500, deadline=None)
@given(data=_any_files(), label_col=st.sampled_from(["label", None]), block=st.integers(1, 4))
def test_bulk_blocks_read_like_the_per_cell_loop(tmp_path_factory, data, label_col, block):
    path = tmp_path_factory.mktemp("differential") / "data.csv"
    path.write_bytes(data)
    with mock.patch.object(dataio, "_BLOCK", block):
        assert _outcome(read_data_csv, path, label_col) == _outcome(_read_by_the_loop, path, label_col)


def _rows(n, bad_row=None, bad_cell=None, bad_col=0):
    rows = [[f"{i}.5", str(i % 2)] for i in range(n)]
    if bad_row is not None:
        rows[bad_row][bad_col] = bad_cell
    return "x0,label\n" + "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize(
    "cell, col, message",
    [
        ("1e999", 0, "non-finite value '1e999' at row 9, column 'x0'"),
        ("1.2.3", 0, "non-numeric value '1.2.3' at row 9, column 'x0'"),
        ("2", 1, "labels must be 0/1; row 9 has 'label'=2"),
    ],
    ids=["non_finite", "non_numeric", "bad_label"],
)
def test_a_bad_cell_in_a_later_block_names_its_file_row(tmp_path, monkeypatch, cell, col, message):
    monkeypatch.setattr(dataio, "_BLOCK", 4)
    path = _csv(tmp_path, _rows(12, bad_row=9, bad_cell=cell, bad_col=col))
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        read_data_csv(path, "label")


def test_a_bad_cell_in_block_0_wins_over_an_undecodable_byte_in_block_1(tmp_path, monkeypatch):
    # the undecodable byte lies past the first 8 KiB decode chunk, as in the loop's own test
    monkeypatch.setattr(dataio, "_BLOCK", 4)
    data = _rows(4, bad_row=1, bad_cell="1e999").encode() + b"1.5,0\n" * 2000 + b"\xff,1\n"
    path = _csv_bytes(tmp_path, data)
    message = "non-finite value '1e999' at row 1, column 'x0'"
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        read_data_csv(path, "label")


def test_a_plain_file_with_a_padded_last_line_reads_like_the_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_BLOCK", 4)
    path = _csv(tmp_path, _rows(10) + " 10.5 , 1 \n")
    X, y = read_data_csv(path, "label")
    np.testing.assert_array_equal(X[:, 0], np.arange(11) + 0.5)
    assert y.tolist() == [i % 2 for i in range(10)] + [1]
    assert _outcome(read_data_csv, path, "label") == _outcome(_read_by_the_loop, path, "label")


def test_a_plain_file_never_reaches_the_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_BLOCK", 4)
    monkeypatch.setattr(dataio, "_read_loop", None)  # calling it would raise TypeError
    X, y = read_data_csv(_csv_bytes(tmp_path, _rows(10).replace("\n", "\r\n").encode()), "label")
    np.testing.assert_array_equal(X[:, 0], np.arange(10) + 0.5)
    assert y.tolist() == [i % 2 for i in range(10)]


def test_a_bad_cell_before_an_undecodable_byte_in_the_same_decode_chunk_wins(tmp_path):
    path = _csv_bytes(tmp_path, b"x0,label\n1e999,0\n\xff,1\n")
    message = "non-finite value '1e999' at row 0, column 'x0'"
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        read_data_csv(path, "label")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"x0,label\n1.5,0\n2\xff.5,1\n", "undecodable byte 0xff at row 1, column 'x0'"),
        (b"x0,label\n1.5,0\n2.5,\xc3\n", "undecodable byte 0xc3 at row 1, column 'label'"),
        (b"x0,label\n\n\"\x80\",0\n", "undecodable byte 0x80 at row 0, column 'x0'"),
        (b"x0,la\xe9bel\n1.5,0\n", "undecodable byte 0xe9 in the header of {path}"),
        (b"\xef\xbbx0,label\n1.5,0\n", "undecodable byte 0xef in the header of {path}"),
    ],
    ids=["row", "truncated_sequence", "quoted", "header", "partial_byte_order_mark"],
)
def test_an_undecodable_byte_names_its_place(tmp_path, data, message):
    path = _csv_bytes(tmp_path, data)
    with pytest.raises(DataError, match="^" + re.escape(message.format(path=path)) + "$"):
        read_data_csv(path, "label")


def test_a_byte_order_mark_before_the_label_column_is_dropped(tmp_path):
    X, y = read_data_csv(_csv_bytes(tmp_path, b"\xef\xbb\xbflabel,x0\n0,1.5\n1,2.5\n"), "label")
    np.testing.assert_array_equal(X, [[1.5], [2.5]])
    assert y.tolist() == [0, 1]


def test_a_byte_order_mark_before_a_feature_column_is_dropped(tmp_path):
    path = _csv_bytes(tmp_path, b"\xef\xbb\xbfx0,label\n1.5,0\nabc,1\n")
    with pytest.raises(DataError, match="^" + re.escape("non-numeric value 'abc' at row 1, column 'x0'") + "$"):
        read_data_csv(path, "label")


def test_a_block_that_turns_non_plain_hands_the_loop_only_its_own_rows_on(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_BLOCK", 4)
    rows = _rows(12).splitlines(keepends=True)  # the header, then rows 0-11
    rows[10] = " 9.5 , 1 \n"  # row 9, in block 2
    path = _csv(tmp_path, "".join(rows))
    seen, read_loop = [], dataio._read_loop

    def spy(lines, *args):
        seen.extend(lines)
        return read_loop(iter(seen), *args)

    monkeypatch.setattr(dataio, "_read_loop", spy)
    outcome = _outcome(read_data_csv, path, "label")
    assert seen == rows[9:]
    monkeypatch.setattr(dataio, "_read_loop", read_loop)
    assert outcome == _outcome(_read_by_the_loop, path, "label")
