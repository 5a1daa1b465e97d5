import ast
import csv
import io
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from capic.errors import CsvParseError
from capic.fileio import csv_records, csv_text, write_text_atomic
from capic.linalg import distinct_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "capic"


def reference_csv_text(header, rows):
    """The csv module's bytes for a header and rows of plain cells, floats by ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [repr(float(cell)) if isinstance(cell, float) else cell for cell in row]
        for row in rows
    )
    return buf.getvalue()


def reference_table_text(header, labels, matrix, lead=(), counts=None):
    """One :func:`reference_csv_text` row per matrix row.

    Row ``i`` takes the cells of ``lead``, ``str(labels[i])``, then
    ``counts[i]`` if counts are given, then the row's floats.
    """
    rows = [[*lead, str(labels[i]), *([] if counts is None else [counts[i]]), *values]
            for i, values in enumerate(matrix.tolist())]
    return reference_csv_text(header, rows)


def emitted_table_text(header, labels, matrix, lead=()):
    return csv_text(header, ((*lead, label, values) for label, values in zip(labels, matrix)))


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
    x, y = np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[-1.0, 2.0]])
    text = csv_text(["# doc"], [["axes", 0, 1], ["ratios", 0.75, 0.125],
                                ("x", "a", x[0]), ("x", "b", x[1]), ("y", "c,d", y[0])])
    assert text == (
        "# doc\naxes,0,1\nratios,0.75,0.125\n"
        "x,a,0.5,0.5\nx,b,0.5,0.5\n"
        'y,"c,d",-1.0,2.0\n'
    )


#: Rows of each kind of cell capic writes.
CELL_ROWS = {
    "awkward strings": [AWKWARD_LABELS, *([label] for label in AWKWARD_LABELS),
                        ["with\r\nboth", '"', ",", "\n", " spaced "]],
    "ints": [[0, -7, 2**70, np.int64(5), np.bincount([1, 1])[1], True]],
    "floats": [[0.1, 1 / 3, 1e-300, 2.5e16, np.float64(0.1), np.float64(2) / 3, np.float32(0.1)]],
    "float32 arrays": [["a", np.array([0.1, 1 / 3, 7.0], dtype=np.float32)]],
    "nan, inf and -0.0": [[np.nan, np.inf, -np.inf, -0.0, NEGATIVE_NAN],
                          [np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, NEGATIVE_NAN])]],
    "empty arrays": [["a", np.empty(0)], [np.empty(0), "b"], ["", np.empty(0)], [np.empty(0)]],
    "a lone empty cell": [[""], ["", ""], ["", np.array([1.0])]],
    "an empty row": [[], ["x"], []],
}


@pytest.mark.parametrize("name", CELL_ROWS)
def test_csv_text_gives_the_csv_module_bytes(name):
    rows = CELL_ROWS[name]
    plain = [
        [value for cell in row
         for value in (cell.tolist() if isinstance(cell, np.ndarray) else [cell])]
        for row in rows
    ]
    assert csv_text(["h", "i"], iter(rows)) == reference_csv_text(["h", "i"], plain)


def test_only_fileio_knows_the_csv_format():
    # One CSV writer and one reader: no other module imports the csv module
    # or doubles quotes, as quoting a CSV cell does.
    def csv_code(path):
        return [
            node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "csv"
            or isinstance(node, ast.Constant) and isinstance(node.value, str)
            and '""' in node.value
        ]

    assert csv_code(SRC / "fileio.py")  # the rule sees the writer it protects
    offenders = {path.name: csv_code(path) for path in sorted(SRC.glob("*.py"))
                 if path.name != "fileio.py" and csv_code(path)}
    assert offenders == {}


def test_csv_records_give_the_line_each_record_starts_on():
    text = 'a,b\n"x\ny",2\n\n"p\n\nq"\n3\n'
    assert list(csv_records(io.StringIO(text, newline=""), "t")) == [
        (1, ["a", "b"]), (2, ["x\ny", "2"]), (4, []), (5, ["p\n\nq"]), (8, ["3"])]


def test_csv_records_name_the_line_of_a_rejected_record():
    text = 'a\n"x\ny"\n' + "z" * (csv.field_size_limit() + 1) + "\n"
    with pytest.raises(CsvParseError, match=r"^where: field larger .* \(line 4\)$") as info:
        list(csv_records(io.StringIO(text, newline=""), "where"))
    assert info.value.line == 4
