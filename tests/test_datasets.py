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
from capic.neural import MlpConfig, encode, mlp_init

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
        train_rows, _ = make_split(50, 0.2, 7)
        raw = np.array([[float(v) for v in line.split(",")[:1]]
                        for line in rows.splitlines()]).T[:, train_rows]
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

    @pytest.mark.parametrize("column", [[0.5, 0.5], [2.0, -1.0]])
    def test_paired_dataset_rejects_a_column_that_is_not_one_hot(self, column):
        # Each column sums to 1, but only a 1 among 0s is one-hot.
        with pytest.raises(ContractViolationError, match="x one-hot"):
            PairedDataset(
                x=np.array([[1.0, column[0]], [0.0, column[1]]]),
                y=np.zeros((1, 2)),
                x_kind="onehot",
                x_labels=("a", "b"),
            )

class TestSplit:
    def test_deterministic(self):
        (a_train, a_test), (b_train, b_test) = make_split(100, 0.2, 3), make_split(100, 0.2, 3)
        assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
        assert a_test.size == 20
        assert np.intersect1d(a_train, a_test).size == 0

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

    @staticmethod
    def _stats_with_a_constant_row():
        mat = np.random.default_rng(8).normal(3.0, 2.0, size=(3, 5000))
        mat[1] = 2.5  # std 0, replaced by 1 as load_csv does
        std = mat.std(axis=1)
        return mat, {"mean": mat.mean(axis=1).tolist(), "std": np.where(std > 0, std, 1.0).tolist()}

    def test_apply_gives_the_bytes_of_shift_then_scale(self):
        mat, stats = self._stats_with_a_constant_row()
        assert stats["std"][1] == 1.0
        mean, std = np.array(stats["mean"])[:, None], np.array(stats["std"])[:, None]
        for layout in (mat, np.asfortranarray(mat)):
            assert apply_standardization(stats, layout).tobytes() == ((mat - mean) / std).tobytes()

    def test_apply_allocates_one_output(self, traced_peak):
        mat, stats = self._stats_with_a_constant_row()
        assert traced_peak(apply_standardization, stats, mat) <= mat.nbytes + 4096


class TestSplitMajorLayout:
    """A csv dataset holds each side once, training columns first.

    The reference is the layout the split-major one replaced: each side
    in file order, standardized with the statistics of the gathered
    training columns, and each split gathered with ``[:, rows]``.
    """

    N = 400

    @classmethod
    def _write(cls, tmp_path):
        rng = np.random.default_rng(11)
        labels = ["a,b", 'q"x', "line\nbreak", "plain"]
        rows = [[repr(v), repr(w), "2.5", labels[k]]
                for v, w, k in zip(rng.normal(3.0, 2.0, cls.N).tolist(),
                                   rng.exponential(1.0, cls.N).tolist(),
                                   rng.integers(0, len(labels), cls.N))]
        path = tmp_path / "mixed.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["a", "b", "c", "y"], *rows])
        schema = {"a": "x-continuous", "b": "x-continuous", "c": "x-continuous",
                  "y": "y-categorical"}
        return path, schema, rows

    @classmethod
    def _reference(cls, rows, standardize, test_fraction):
        """``(split arrays, labels)``: each split's ``(x, y)`` as gathered from file order."""
        x = np.ascontiguousarray(np.array([[float(c) for c in r[:3]] for r in rows]).T)
        y, labels = one_hot_encode([r[3] for r in rows])
        split_rows = make_split(cls.N, test_fraction, 3) if test_fraction else [np.arange(cls.N)]
        if standardize:
            gathered = x[:, split_rows[0]]  # the statistics reduce over the gathered columns
            std = gathered.std(axis=1)
            x = (x - gathered.mean(axis=1)[:, None]) / np.where(std > 0, std, 1.0)[:, None]
        if not test_fraction:
            return [(x, y)], labels  # an unsplit dataset trains on its file-order matrices
        return [(x[:, r], y[:, r]) for r in split_rows], labels

    @pytest.mark.parametrize("test_fraction", [0.0, 0.25])
    @pytest.mark.parametrize("standardize", [False, True])
    def test_split_arrays_keep_the_gathered_bytes(self, tmp_path, traced_peak, standardize,
                                                  test_fraction):
        path, schema, rows = self._write(tmp_path)
        ds = load_csv(path, schema, standardize=standardize, test_fraction=test_fraction,
                      split_seed=3)
        reference, labels = self._reference(rows, standardize, test_fraction)
        assert ds.y_labels == labels
        if test_fraction:
            assert ds.n_train == reference[0][0].shape[1] and ds.x.flags.f_contiguous
            splits = [ds.train_arrays(), ds.test_arrays()]
        else:
            assert ds.n_train is None and ds.test_arrays() is None and ds.x.flags.c_contiguous
            splits = [ds.train_arrays()]
        for (x_split, y_split), (x_ref, y_ref) in zip(splits, reference, strict=True):
            assert x_split.tobytes() == x_ref.tobytes() and y_split.tobytes() == y_ref.tobytes()
            assert x_split.strides == x_ref.strides
            assert np.shares_memory(x_split, ds.x) and np.shares_memory(y_split, ds.y)
        assert traced_peak(ds.train_arrays) < 1024  # array headers, no column copied

    @pytest.mark.parametrize("test_fraction", [0.0, 0.25])
    def test_encode_over_a_view_gives_the_gathered_bytes(self, tmp_path, test_fraction):
        path, schema, rows = self._write(tmp_path)
        ds = load_csv(path, schema, standardize=True, test_fraction=test_fraction, split_seed=3)
        reference, _ = self._reference(rows, True, test_fraction)
        f = mlp_init(MlpConfig((3, 16, 2), "relu", 1))
        g = mlp_init(MlpConfig((len(ds.y_labels), 16, 2), "relu", 2))
        for arrays, (x_ref, y_ref) in zip((ds.train_arrays(), ds.test_arrays()), reference):
            assert encode(f, arrays[0], None).tobytes() == encode(f, x_ref, None).tobytes()
            assert encode(g, arrays[1], None).tobytes() == encode(g, y_ref, None).tobytes()


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

    def test_load_frees_the_parse_buffer_before_the_sides_are_built(self, tmp_path, traced_peak):
        # The continuous cells' parse buffer goes once the x side is gathered,
        # before it is standardized and the y side encoded: the traced peak
        # is 1.76 times the dataset's arrays (2.29 while the buffer was held).
        path = synthetic_wine_csv(tmp_path / "wine.csv", n_samples=4000, seed=2)
        loaded = []

        def load():
            loaded.append(load_csv(path, WINE_SCHEMA, standardize=True, test_fraction=0.2,
                                   split_seed=2))

        peak = traced_peak(load)
        assert peak <= 2 * (loaded[0].x.nbytes + loaded[0].y.nbytes)

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

    def test_split_arrays_are_views_of_the_split_major_columns(self, traced_peak):
        rng = np.random.default_rng(5)
        ds = PairedDataset(x=rng.normal(size=(2, 400)), y=rng.normal(size=(1, 400)), n_train=300)
        (x_train, y_train), (x_test, y_test) = ds.train_arrays(), ds.test_arrays()
        assert np.array_equal(x_train, ds.x[:, :300]) and np.array_equal(y_test, ds.y[:, 300:])
        for view, whole in ((x_train, ds.x), (y_train, ds.y), (x_test, ds.x), (y_test, ds.y)):
            assert view.base is whole
        assert traced_peak(ds.train_arrays) < 1024  # array headers, no column copied
        assert PairedDataset(x=ds.x, y=ds.y, n_train=400).test_arrays() is None
        unsplit = PairedDataset(x=ds.x, y=ds.y)
        assert unsplit.test_arrays() is None
        assert all(a.base is b for a, b in zip(unsplit.train_arrays(), (ds.x, ds.y)))

    @pytest.mark.parametrize("n_train", [-1, 401])
    def test_n_train_beyond_the_samples_rejected(self, n_train):
        with pytest.raises(ContractViolationError, match=f"n_train {n_train} not in"):
            PairedDataset(x=np.zeros((1, 400)), y=np.zeros((1, 400)), n_train=n_train)
