import csv

import numpy as np
import pytest

import capic.datasets as datasets
from capic.datasets import (
    PairedDataset,
    WINE_SCHEMA,
    apply_standardization,
    column_codes,
    load_csv,
    make_split,
    one_hot_encode,
    synthetic_wine_csv,
)
from capic.errors import ContractViolationError, CsvParseError, EmptyDatasetError
from capic.linalg import distinct_rows

TOY_CSV = """color,grade,size
red,good,1.5
blue,bad,2.0
red,bad,0.5
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_toy_categorical_pair(self, tmp_path):
        path = write(tmp_path, "toy.csv", TOY_CSV)
        ds = load_csv(
            path,
            {"color": "x-categorical", "grade": "y-categorical", "size": "ignore"},
        )
        assert ds.x.shape == (2, 3) and ds.y.shape == (2, 3)
        assert ds.x_labels == ("blue", "red")  # lexicographic
        assert ds.y_labels == ("bad", "good")
        np.testing.assert_allclose(ds.x[:, 0], [0.0, 1.0])  # first row is red
        np.testing.assert_allclose(ds.y[:, 0], [0.0, 1.0])  # and good

    def test_continuous_plus_categorical(self, tmp_path):
        path = write(tmp_path, "toy.csv", TOY_CSV)
        ds = load_csv(
            path,
            {"color": "ignore", "grade": "y-categorical", "size": "x-continuous"},
        )
        np.testing.assert_allclose(ds.x, [[1.5, 2.0, 0.5]])
        assert ds.y_kind == "onehot"

    def test_several_categorical_columns_on_one_side_rejected(self, tmp_path):
        path = write(tmp_path, "toy.csv", TOY_CSV)
        schema = {"color": "x-categorical", "grade": "x-categorical", "size": "y-continuous"}
        with pytest.raises(ContractViolationError, match=r"\['color', 'grade'\]"):
            load_csv(path, schema)

    def test_row_length_mismatch_names_line(self, tmp_path):
        path = write(tmp_path, "bad.csv", "a,b\n1,2\n3\n")
        with pytest.raises(CsvParseError, match="line 3"):
            load_csv(path, {"a": "x-continuous", "b": "y-continuous"})

    def test_non_numeric_continuous_names_line(self, tmp_path):
        path = write(tmp_path, "bad.csv", "a,b\n1,2\nx,4\n")
        with pytest.raises(CsvParseError, match="line 3"):
            load_csv(path, {"a": "x-continuous", "b": "y-continuous"})

    @pytest.mark.parametrize("last_row,message", ids=["short-row", "non-numeric"], argvalues=[
        ("3\n", "row has 1 fields"),
        ("z,oops\n", "non-numeric value 'oops' in continuous column 'b'"),
    ])
    def test_quoted_newline_rows_name_physical_line(self, tmp_path, last_row, message):
        # the quoted x cell spans lines 2-3, so the last row starts on line 4
        path = write(tmp_path, "bad.csv", 'a,b\n"x\ny",2\n' + last_row)
        with pytest.raises(CsvParseError, match=f"{message}.* \\(line 4\\)$") as info:
            load_csv(path, {"a": "x-categorical", "b": "y-continuous"})
        assert info.value.line == 4

    def test_record_the_csv_module_rejects_names_line(self, tmp_path):
        path = write(tmp_path, "big.csv", "a,b\n1,2\n3," + "4" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(CsvParseError, match="field larger than field limit.* \\(line 3\\)$"):
            load_csv(path, {"a": "x-continuous", "b": "y-continuous"})

    def test_parses_each_continuous_cell_with_float(self, tmp_path):
        cells = [["0.1", "1e-300"], ["0.30000000000000004", "2.5e16"], ["nan", "-0.0"],
                 ["1_000", "0.1"]]
        path = tmp_path / "cells.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["u", "q", "v"]] + [[a, "r\n1", b] for a, b in cells])
        ds = load_csv(path, {"u": "x-continuous", "q": "y-categorical", "v": "x-continuous"})
        expected = np.array([[float(c) for c in row] for row in cells]).T
        assert ds.x.dtype == np.float64 and ds.x.tobytes() == expected.tobytes()
        assert ds.y_labels == ("r\n1",) and ds.x.flags.c_contiguous

    def test_repeated_header_column_rejected(self, tmp_path):
        path = write(tmp_path, "dup.csv", "a,a,b\n1,2,x\n3,4,y\n")
        with pytest.raises(CsvParseError, match=r"header repeats columns \['a'\] \(line 1\)$"):
            load_csv(path, {"a": "x-continuous", "b": "y-categorical"})

    def test_missing_schema_column(self, tmp_path):
        path = write(tmp_path, "bad.csv", "a,b\n1,2\n")
        with pytest.raises(CsvParseError, match="missing"):
            load_csv(path, {"a": "x-continuous", "zz": "y-continuous"})

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.csv", "")
        with pytest.raises(CsvParseError):
            load_csv(path, {"a": "x-continuous"})

    def test_no_data_rows(self, tmp_path):
        path = write(tmp_path, "header.csv", "a,b\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(path, {"a": "x-continuous", "b": "y-continuous"})

    def test_standardize_uses_train_split_stats(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = "\n".join(
            f"{float(v)!r},{float(w)!r}" for v, w in rng.normal(3.0, 2.0, size=(50, 2))
        )
        path = write(tmp_path, "std.csv", "a,b\n" + rows + "\n")
        ds = load_csv(
            path,
            {"a": "x-continuous", "b": "y-continuous"},
            standardize=True,
            test_fraction=0.2,
            split_seed=7,
        )
        x_tr, _ = ds.train_arrays()
        assert abs(x_tr.mean()) < 1e-12
        assert abs(x_tr.std() - 1.0) < 1e-12
        # stored stats reproduce the transform
        stats = ds.provenance["standardization"]["x"]
        assert len(stats["mean"]) == 1
        # and are numpy's statistics of the training rows, bit for bit
        raw = np.array([[float(v) for v in line.split(",")[:1]]
                        for line in rows.splitlines()]).T[:, ds.split.train_idx]
        assert stats == {"mean": raw.mean(axis=1).tolist(), "std": raw.std(axis=1).tolist()}


class TestOneHot:
    def test_round_trip(self):
        values = ["c", "a", "b", "a"]
        mat, labels = one_hot_encode(values)
        assert labels == ("a", "b", "c")
        assert [labels[i] for i in mat.argmax(axis=0)] == values

    def test_columns_sum_to_one(self):
        mat, _ = one_hot_encode([1, 2, 2, 3])
        np.testing.assert_allclose(mat.sum(axis=0), 1.0)

    def test_given_labels_set_one_entry_per_column(self):
        values = ["b", "c", "b", "a", "c"]
        labels = ("c", "a", "b")
        mat, out_labels = one_hot_encode(iter(values), labels)
        expected = np.zeros((3, 5))
        for j, v in enumerate(values):
            expected[labels.index(v), j] = 1.0
        assert out_labels == labels
        assert mat.dtype == np.float64 and np.array_equal(mat, expected)

    def test_unknown_value_named(self):
        with pytest.raises(ContractViolationError, match="value 'z' not in label set"):
            one_hot_encode(["a", "z", "y"], ("a", "b"))

    def test_no_values(self):
        mat, labels = one_hot_encode([])
        assert mat.shape == (0, 0) and labels == ()

    def test_paired_dataset_validates_onehot(self):
        with pytest.raises(ContractViolationError):
            PairedDataset(
                x=np.array([[0.5, 0.0], [0.0, 1.0]]),
                y=np.zeros((1, 2)),
                x_kind="onehot",
                x_labels=("a", "b"),
            )


class TestSplit:
    def test_deterministic(self):
        a = make_split(100, 0.2, seed=3)
        b = make_split(100, 0.2, seed=3)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert a.test_idx.size == 20
        assert np.intersect1d(a.train_idx, a.test_idx).size == 0

    def test_split_leaving_no_training_rows_rejected(self, tmp_path):
        # round(2 * 0.75) = 2 rows held out of 2; standardizing on no
        # training rows would give NaN statistics
        with pytest.raises(EmptyDatasetError, match="test_fraction 0.75 of 2 rows"):
            make_split(2, 0.75, seed=0)
        path = write(tmp_path, "two.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(EmptyDatasetError, match="test_fraction 0.75 of 2 rows"):
            load_csv(path, {"a": "x-continuous", "b": "y-continuous"}, standardize=True,
                     test_fraction=0.75)


class TestStandardizationHelper:
    def test_apply_matches_stats(self):
        stats = {"mean": [1.0, -2.0], "std": [2.0, 0.5]}
        out = apply_standardization(stats, np.array([[3.0], [-1.0]]))
        np.testing.assert_allclose(out, [[1.0], [2.0]])


class TestSyntheticWine:
    def test_shapes_match_expected_schema(self, tmp_path):
        path = synthetic_wine_csv(tmp_path / "wine.csv", n_samples=300, seed=1)
        ds = load_csv(path, WINE_SCHEMA)
        assert ds.x.shape == (11, 300)
        assert ds.y.shape[0] == 6  # six quality grades
        assert ds.y_labels == ("2", "3", "4", "5", "6", "7")

    def test_default_sample_count(self, tmp_path):
        path = synthetic_wine_csv(tmp_path / "wine.csv", seed=2)
        ds = load_csv(path, WINE_SCHEMA)
        assert ds.x.shape == (11, 4898)

    def test_deterministic(self, tmp_path):
        synthetic_wine_csv(tmp_path / "a.csv", n_samples=50, seed=9)
        synthetic_wine_csv(tmp_path / "b.csv", n_samples=50, seed=9)
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


class TestColumnCodesAndSplitArrays:
    def test_a_distinct_first_row_needs_no_column_sort(self, monkeypatch):
        sorts = []
        real = datasets.distinct_rows
        monkeypatch.setattr(datasets, "distinct_rows", lambda a: sorts.append(a.shape) or real(a))
        rng = np.random.default_rng(3)
        assert column_codes(rng.normal(size=(4, 200))) is None
        assert sorts == []
        # a repeat in the first row alone proves nothing: the columns are sorted
        a = rng.normal(size=(2, 6))
        a[0, 1] = a[0, 0]
        assert column_codes(a) is None
        a[:, 5] = a[:, 0]
        codes = column_codes(a)
        assert sorts == [(6, 2), (6, 2)]
        assert codes.first.size == 5 and codes.inverse[5] == codes.inverse[0]

    def test_codes_of_a_discrete_side_are_the_sorted_ones(self):
        bits = np.random.default_rng(4).integers(0, 2, size=(3, 300)).astype(float)
        codes = column_codes(bits)
        first, inverse = distinct_rows(bits.T)
        assert np.array_equal(codes.first, first) and np.array_equal(codes.inverse, inverse)

    def test_split_arrays_are_gathered_once(self):
        rng = np.random.default_rng(5)
        ds = PairedDataset(x=rng.normal(size=(2, 40)), y=rng.normal(size=(1, 40)),
                           split=make_split(40, 0.25, 1))
        train, test = ds.train_arrays(), ds.test_arrays()
        assert ds.train_arrays() is train and ds.test_arrays() is test
        assert np.array_equal(train[0], ds.x[:, ds.split.train_idx])
        assert np.array_equal(test[1], ds.y[:, ds.split.test_idx])
