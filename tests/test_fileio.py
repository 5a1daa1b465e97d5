import csv
import io
import os
import stat

import numpy as np
import pytest

from capic.errors import CsvParseError
from capic.fileio import csv_records, csv_text, labelled_csv_text, write_text_atomic
from capic.linalg import distinct_rows


def reference_table_text(header, labels, matrix, lead=(), counts=None):
    """The per-row writer :func:`labelled_csv_text` replaced: one ``csv_text`` row per matrix row.

    Row ``i`` takes ``labels[i]``, then ``counts[i]`` if counts are given;
    the floats go through ``csv_text``'s ``repr`` per cell.
    """
    rows = [[*lead, str(labels[i]), *([] if counts is None else [counts[i]]), *values]
            for i, values in enumerate(matrix.tolist())]
    return csv_text(header, rows)


def emitted_table_text(header, labels, matrix, lead=()):
    return labelled_csv_text(csv_text(header, []), [(lead, labels, matrix)])


def test_written_file_mode_follows_umask(tmp_path):
    path = tmp_path / "out.txt"
    old = os.umask(0o022)
    try:
        write_text_atomic(path, "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
    assert path.read_text() == "x\n"
    assert os.listdir(tmp_path) == ["out.txt"]


NEGATIVE_NAN = -np.float64("nan")  # another NaN bit pattern, with the same repr

MATRICES = {
    "repeated rows": np.array([[0.5, -0.25], [1e-17, 3.0], [0.5, -0.25], [0.5, -0.25]]),
    "signed zeros": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [0.0, 1.0]]),
    "nan and inf": np.array([[np.nan, np.inf], [-np.inf, NEGATIVE_NAN], [np.nan, np.inf]]),
    "all distinct": np.random.default_rng(3).normal(size=(40, 3)),
    "repeated samples": np.random.default_rng(4).normal(size=(5, 3))[[0, 4, 4, 1, 0, 2, 2]],
    "one row": np.array([[2.5e16, -1.0, 0.1]]),
    "zero rows": np.empty((0, 3)),
    "float32": np.array([[0.1, 0.2], [0.1, 0.2]], dtype=np.float32),
}


@pytest.mark.parametrize("name", MATRICES)
def test_table_bytes_match_the_per_row_writer(name):
    matrix = MATRICES[name]
    header = ["index"] + [f"f{k}" for k in range(matrix.shape[1])]
    labels = range(len(matrix))
    assert emitted_table_text(header, labels, matrix) == reference_table_text(
        header, labels, matrix
    )


@pytest.mark.parametrize("name", MATRICES)
def test_gathered_rows_give_the_per_row_bytes(name):
    # A per-value table stands for the rows with each code: gathering the
    # distinct rows back by the codes gives every row's bytes.
    matrix = MATRICES[name]
    header = ["index"] + [f"f{k}" for k in range(matrix.shape[1])]
    labels = range(len(matrix))
    first, inverse = distinct_rows(matrix)
    assert emitted_table_text(header, labels, matrix[first][inverse]) == reference_table_text(
        header, labels, matrix
    )


AWKWARD_LABELS = ["", "with,comma", 'with "quote"', "with\nnewline", "with\rreturn", "plain"]


@pytest.mark.parametrize("matrix", [
    np.array([[1.0, 2.0]] * 6),                                  # one distinct row
    np.arange(12, dtype=np.float64).reshape(6, 2),               # every row distinct
    np.empty((6, 0)),                                            # no value columns
])
@pytest.mark.parametrize("lead", [(), ("x",)])
def test_awkward_labels_are_quoted_as_the_csv_module_quotes_them(matrix, lead):
    header = ["label"] + [f"g{k}" for k in range(matrix.shape[1])]
    assert emitted_table_text(header, AWKWARD_LABELS, matrix, lead) == reference_table_text(
        header, AWKWARD_LABELS, matrix, lead
    )


def test_blocks_follow_the_head_in_order():
    head = csv_text(["# doc"], [["axes", 0, 1], ["ratios", 0.75, 0.125]])
    x, y = np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[-1.0, 2.0]])
    text = labelled_csv_text(head, [(("x",), ["a", "b"], x), (("y",), ["c,d"], y)])
    assert text == (
        "# doc\naxes,0,1\nratios,0.75,0.125\n"
        "x,a,0.5,0.5\nx,b,0.5,0.5\n"
        'y,"c,d",-1.0,2.0\n'
    )


@pytest.mark.parametrize("matrix", [np.ones((3, 2)), np.arange(6.0).reshape(3, 2)])
def test_too_few_labels_raise_index_error(matrix):
    # labels are indexed by row, never zipped: a short label list is an error
    with pytest.raises(IndexError):
        emitted_table_text(["label", "g0", "g1"], ["a", "b"], matrix)


def test_csv_records_give_the_line_each_record_starts_on():
    text = 'a,b\n"x\ny",2\n\n"p\n\nq"\n3\n'
    assert list(csv_records(io.StringIO(text, newline=""), "t")) == [
        (1, ["a", "b"]), (2, ["x\ny", "2"]), (4, []), (5, ["p\n\nq"]), (8, ["3"])]


def test_csv_records_name_the_line_of_a_rejected_record():
    text = 'a\n"x\ny"\n' + "z" * (csv.field_size_limit() + 1) + "\n"
    with pytest.raises(CsvParseError, match=r"^where: field larger .* \(line 4\)$") as info:
        list(csv_records(io.StringIO(text, newline=""), "where"))
    assert info.value.line == 4
