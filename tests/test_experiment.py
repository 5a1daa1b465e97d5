import csv
import json
import re
import sys
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from capic import classical, experiment, fileio
from capic import factor_plane as fp
from capic.classical import ca_decompose, contingency_from_pmf
from capic.cli import main
from capic.datasets import WINE_SCHEMA, make_split, synthetic_wine_csv
from capic.errors import CapacityError, ContractViolationError
from capic.experiment import (
    build_dataset, evaluate_model, read_pmf_csv, run_eval, run_experiment,
)
from capic.factor_plane import FactorPlane, plane_from_csv, plane_to_csv
from capic.fileio import dump_json
from capic.model import fit_ca_nn_model, save_model
from capic.linalg import distinct_rows as linalg_distinct_rows
from capic.neural import MlpConfig, TrainConfig, train_ca_nn
from capic.neural import forward as neural_forward
from capic.oracles import BscSpec, bsc_joint_pmf
from capic.reconstitution import classify, from_cann

from test_classical import contingency_from_samples, random_full_support_pmf, same_bytes
from test_factor_plane import (
    export_decomposition, reference_plane_csv, reference_points, reference_ratios,
    reference_render_svg,
)
from test_fileio import reference_table_text


def spy_on(monkeypatch, *names):
    """Wrap each ``experiment`` function of ``names``; the dict returned gets
    ``(args, result)`` of its last call under its name."""
    seen = {}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] = (args, fn(*args, **kwargs))
            return seen[name][1]
        return wrapper

    for name in names:
        monkeypatch.setattr(experiment, name, spy(name, getattr(experiment, name)))
    return seen


def tiny_bsc_config(out_dir, epochs=30):
    return {
        "version": 1,
        "mode": "train",
        "output_dir": str(out_dir),
        "d": 2,
        "dataset": {
            "source": "bsc", "n_bits": 3, "delta": 0.1, "p": 0.5,
            "n_samples": 600, "n_test": 200, "seed": 5,
        },
        "f_net": {"hidden": [16], "activation": "relu", "seed": 1},
        "g_net": {"hidden": [16], "activation": "relu", "seed": 2},
        "train": {"epochs": epochs, "optimizer": "adam", "lr": 0.01, "seed": 3},
        "planes": [[0, 1]],
    }


EXPECTED_TRAIN_FILES = [
    "config_resolved.json",
    "model.json",
    "pic_report.json",
    "loss_history.csv",
    "factors_x_train.csv",
    "factors_y_train.csv",
    "factors_x_test.csv",
    "factors_y_test.csv",
    "plane_0_1.svg",
    "plane_0_1.csv",
]


class TestRunExperiment:
    def test_train_mode_writes_all_artifacts(self, tmp_path):
        out = run_experiment(tiny_bsc_config(tmp_path / "run"))
        for name in EXPECTED_TRAIN_FILES:
            assert (out / name).exists(), name
        report = json.loads((out / "pic_report.json").read_text())
        assert report["loss_final"] <= report["loss_initial"]
        assert len(report["train"]["raw"]) == 2
        assert report["test"] is not None

    def test_rerun_is_byte_identical(self, tmp_path):
        out1 = run_experiment(tiny_bsc_config(tmp_path / "a"))
        out2 = run_experiment(tiny_bsc_config(tmp_path / "b"))
        for name in EXPECTED_TRAIN_FILES:
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            if name == "config_resolved.json":
                continue  # differs in output_dir by construction
            assert a == b, f"{name} differs between identical runs"

    def test_seed_override_changes_results(self, tmp_path):
        base = run_experiment(tiny_bsc_config(tmp_path / "base"))
        seeded = run_experiment(tiny_bsc_config(tmp_path / "seeded"), seed=99)
        a = json.loads((base / "pic_report.json").read_text())
        b = json.loads((seeded / "pic_report.json").read_text())
        assert a["train"]["raw"] != b["train"]["raw"]

    def test_svd_mode_on_pmf_csv(self, tmp_path):
        pmf_path = tmp_path / "table.csv"
        pmf_path.write_text(",u,v\nrow1,0.4,0.1\nrow2,0.1,0.4\n")
        cfg = {
            "version": 1,
            "mode": "svd",
            "output_dir": str(tmp_path / "svd"),
            "dataset": {"source": "pmf_csv", "path": str(pmf_path)},
        }
        out = run_experiment(cfg)
        assert (out / "factors_x.csv").exists()
        assert (out / "factors_y.csv").exists()
        scores = (out / "scores.csv").read_text().splitlines()
        assert scores[0] == "component,sigma,lambda,score_ratio"
        assert not (out / "model.json").exists()  # no training happened
        sigma = float(scores[1].split(",")[1])
        assert sigma == pytest.approx(0.6, abs=1e-12)  # hand-computed 2x2

    def test_svd_mode_on_categorical_csv(self, tmp_path):
        rng = np.random.default_rng(4)
        xs = rng.choice(["b", "a", "c,d", 'say "e"'], size=300).tolist()
        ys = [x if rng.random() < 0.6 else rng.choice(["a", "b", "z"]) for x in xs]
        csv_path = tmp_path / "pairs.csv"
        fileio.write_text_atomic(csv_path, fileio.csv_text(["x", "y"], zip(xs, ys)))
        cfg = {
            "version": 1, "mode": "svd", "output_dir": str(tmp_path / "svd"),
            "dataset": {"source": "csv", "path": str(csv_path),
                        "schema": {"x": "x-categorical", "y": "y-categorical"}},
        }
        out = run_experiment(cfg)
        table = contingency_from_samples(xs, ys)
        decomp = ca_decompose(table)
        for side, letter, labels, factors in (("x", "f", table.x_labels, decomp.l_factors),
                                              ("y", "g", table.y_labels, decomp.r_factors)):
            experiment._write_factor_table(tmp_path / side, ["label"], letter, labels, factors)
            assert (out / f"factors_{side}.csv").read_bytes() == (tmp_path / side).read_bytes()

    @pytest.mark.parametrize("matrix", [np.ones((3, 2)), np.arange(6.0).reshape(3, 2)])
    def test_too_few_labels_raise_value_error(self, tmp_path, matrix):
        # labels and rows are paired strictly: a short (or long) label list is
        # an error, and no table is written
        for labels in (["a", "b"], ["a", "b", "c", "d"]):
            with pytest.raises(ValueError):
                experiment._write_factor_table(tmp_path / "t.csv", ["label"], "g", labels, matrix)
        assert not (tmp_path / "t.csv").exists()

    @staticmethod
    def _categorical_csv_config(tmp_path, xs, ys, test_fraction):
        csv_path = tmp_path / "pairs.csv"
        fileio.write_text_atomic(csv_path, fileio.csv_text(["x", "y"], zip(xs, ys)))
        return {
            "version": 1, "mode": "svd", "output_dir": str(tmp_path / f"svd{test_fraction}"),
            "dataset": {"source": "csv", "path": str(csv_path), "test_fraction": test_fraction,
                        "split_seed": 5, "schema": {"x": "x-categorical", "y": "y-categorical"}},
        }

    def test_svd_mode_counts_the_training_rows_of_a_csv(self, tmp_path):
        rng = np.random.default_rng(6)
        xs = rng.choice(["a", "b", "c"], size=400).tolist()
        ys = [x if rng.random() < 0.6 else rng.choice(["a", "b", "z"]) for x in xs]
        cfg = self._categorical_csv_config(tmp_path, xs, ys, 0.5)
        out = run_experiment(cfg)
        train, _ = make_split(len(xs), 0.5, 5)
        assert build_dataset(cfg["dataset"]).n_train == train.size == 200
        table = contingency_from_samples([xs[i] for i in train], [ys[i] for i in train])
        decomp = ca_decompose(table)
        for side, letter, labels, factors in (("x", "f", table.x_labels, decomp.l_factors),
                                              ("y", "g", table.y_labels, decomp.r_factors)):
            experiment._write_factor_table(tmp_path / side, ["label"], letter, labels, factors)
            assert (out / f"factors_{side}.csv").read_bytes() == (tmp_path / side).read_bytes()
        every_row = run_experiment(self._categorical_csv_config(tmp_path, xs, ys, 0.0))
        assert (every_row / "factors_x.csv").read_bytes() != (out / "factors_x.csv").read_bytes()

    def test_svd_label_seen_only_in_held_out_rows_exits_2(self, tmp_path, capsys):
        xs, ys = ["a", "b"] * 50, ["a", "b"] * 50
        xs[int(make_split(len(xs), 0.5, 5)[1][0])] = "only-held-out"
        cfg = self._categorical_csv_config(tmp_path, xs, ys, 0.5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_json(cfg))
        assert main(["svd", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: x labels ['only-held-out'] occur only in held-out rows")
        with pytest.raises(ContractViolationError, match="test_fraction 0.5, split_seed 5"):
            run_experiment(cfg)

    def test_svd_planes_are_the_exported_planes(self, tmp_path):
        pmf_path = tmp_path / "table.csv"
        pmf_path.write_text(",u,v,w\nr1,0.2,0.05,0.05\nr2,0.05,0.2,0.1\nr3,0.1,0.05,0.2\n")
        cfg = {
            "version": 1, "mode": "svd", "output_dir": str(tmp_path / "svd"),
            "dataset": {"source": "pmf_csv", "path": str(pmf_path)},
            "planes": [[0, 1], [1, 0]],
        }
        out = run_experiment(cfg)
        table = contingency_from_pmf(*read_pmf_csv(pmf_path))
        decomp = ca_decompose(table)
        for i, j in cfg["planes"]:
            plane, svg = export_decomposition(
                decomp, i, j, x_labels=table.x_labels, y_labels=table.y_labels
            )
            assert (out / f"plane_{i}_{j}.svg").read_bytes() == svg.encode()
            assert (out / f"plane_{i}_{j}.csv").read_bytes() == plane_to_csv(plane).encode()

    def test_artifacts_are_the_per_row_text_of_the_run_outputs(self, tmp_path, monkeypatch):
        # Every factor table, plane CSV and plane SVG of a train and an svd
        # run equals the per-row reference text of that run's own outputs.
        # A BSC-3 side has a row per distinct column (8), labelled by the
        # column's values, with its count in the split.
        seen = spy_on(monkeypatch, "evaluate_model", "ca_decompose")
        cfg = tiny_bsc_config(tmp_path / "train", epochs=5)
        cfg["planes"] = [[0, 1], [1, 0]]
        out = run_experiment(cfg)
        (_, data), pfs = seen["evaluate_model"]
        texts, values = {}, {}
        for split, pf, arrays, split_codes in zip(("train", "test"), pfs,
                                                  (data.train_arrays(), data.test_arrays()),
                                                  (data.train_codes, data.test_codes)):
            for side, letter, rows, codes, columns in (
                    ("x", "f", pf.f, split_codes[0], arrays[0]),
                    ("y", "g", pf.g, split_codes[1], arrays[1])):
                assert codes.first.size == 8
                labels = [" ".join(str(float(v)) for v in columns[:, k]) for k in codes.first]
                counts = np.bincount(codes.inverse).tolist()
                assert sum(counts) == pf.f.shape[1]
                values[split, side] = labels, rows[:, codes.first].T
                texts[f"factors_{side}_{split}.csv"] = reference_table_text(
                    ["label", "count", f"{letter}0", f"{letter}1"], labels,
                    rows[:, codes.first].T, counts=counts)
        diag = pfs[0].pic_diagonal
        (x_labels, x_mat), (y_labels, y_mat) = values["train", "x"], values["train", "y"]
        for i, j in cfg["planes"]:
            plane = FactorPlane(
                i, j, reference_points(x_mat, diag[i], diag[j], i, j, x_labels),
                reference_points(y_mat, diag[i], diag[j], i, j, y_labels),
                reference_ratios(diag, i, j),
            )
            assert len(plane.x_points) <= fp.SVG_MAX_X_LABELS  # the SVG labels them
            texts[f"plane_{i}_{j}.csv"] = reference_plane_csv(plane)
            texts[f"plane_{i}_{j}.svg"] = reference_render_svg(plane)
        for name, text in texts.items():
            assert (out / name).read_bytes() == text.encode(), name

        pmf_path = tmp_path / "table.csv"
        labels = ["a,b", 'say "hi"', "two\nlines", "x&<y>", "", "plain"]
        pmf = np.random.default_rng(5).uniform(0.1, 1.0, size=(6, 6))
        with open(pmf_path, "w", newline="") as fh:
            csv.writer(fh).writerows([["x\\y", *labels[::-1]], *(
                [label, *row] for label, row in zip(labels, (pmf / pmf.sum()).tolist()))])
        cfg = {"version": 1, "mode": "svd", "output_dir": str(tmp_path / "svd"),
               "dataset": {"source": "pmf_csv", "path": str(pmf_path)}, "planes": [[0, 2]]}
        out = run_experiment(cfg)
        (table,), decomp = seen["ca_decompose"]
        sig = decomp.sigmas
        plane = FactorPlane(
            0, 2, reference_points(decomp.l_factors, sig[0], sig[2], 0, 2, table.x_labels),
            reference_points(decomp.r_factors, sig[0], sig[2], 0, 2, table.y_labels),
            (float(decomp.score_ratios[0]), float(decomp.score_ratios[2])),
        )
        texts = {
            "factors_x.csv": reference_table_text(
                ["label", *(f"f{k}" for k in range(decomp.d))], table.x_labels, decomp.l_factors),
            "factors_y.csv": reference_table_text(
                ["label", *(f"g{k}" for k in range(decomp.d))], table.y_labels, decomp.r_factors),
            "plane_0_2.csv": reference_plane_csv(plane),
            "plane_0_2.svg": reference_render_svg(plane),
        }
        for name, text in texts.items():
            assert (out / name).read_bytes() == text.encode(), name

    def test_gaussian_run_keeps_its_per_sample_artifacts(self, tmp_path, monkeypatch):
        # Continuous sides have no repeated column: a row and a point per sample.
        seen = spy_on(monkeypatch, "evaluate_model")
        cfg = tiny_bsc_config(tmp_path / "run", epochs=5)
        cfg["dataset"] = {"source": "gaussian", "sigma1": 1.0, "sigma2": 1.0,
                          "n_samples": 150, "n_test": 60, "seed": 6}
        out = run_experiment(cfg)
        (_, data), pfs = seen["evaluate_model"]
        assert data.train_codes == data.test_codes == (None, None)
        texts = {}
        for split, pf in zip(("train", "test"), pfs):
            n = pf.f.shape[1]
            texts[f"factors_x_{split}.csv"] = reference_table_text(
                ["index", "f0", "f1"], range(n), pf.f.T)
            texts[f"factors_y_{split}.csv"] = reference_table_text(
                ["label", "g0", "g1"], range(n), pf.g.T)
        diag = pfs[0].pic_diagonal
        plane = FactorPlane(
            0, 1, reference_points(pfs[0].f.T, diag[0], diag[1], 0, 1, None),
            reference_points(pfs[0].g.T, diag[0], diag[1], 0, 1, None),
            reference_ratios(diag, 0, 1),
        )
        assert len(plane.x_points) == 150
        texts["plane_0_1.csv"] = reference_plane_csv(plane)
        texts["plane_0_1.svg"] = reference_render_svg(plane)
        for name, text in texts.items():
            assert (out / name).read_bytes() == text.encode(), name

    def test_bsc_artifacts_do_not_grow_with_the_sample_count(self, tmp_path):
        # BSC-3: 8 distinct x and 8 distinct y values, whatever n is.
        lines = {}
        for n in (400, 4000):
            cfg = tiny_bsc_config(tmp_path / str(n), epochs=2)
            cfg["dataset"].update(n_samples=n, n_test=n // 4)
            out = run_experiment(cfg)
            lines[n] = {p.name: len(p.read_text().splitlines()) for p in out.glob("*.csv")
                        if p.name != "loss_history.csv"}
        assert lines[400] == lines[4000]
        assert set(lines[400].values()) == {1 + 8, 4 + 8 + 8}

    def test_repeated_columns_are_found_once_per_split_side(self, tmp_path, monkeypatch):
        # BSC-3 has 8 distinct x and 8 distinct y columns.  After training,
        # every pass runs on those, the repeats are found once per split side,
        # and the plane holds the bytes of a point per distinct column.
        forwards, sorts, seen = [], [], {}
        training = []

        def spy_forward(p, x_batch, buffers=None):
            if not training:
                forwards.append(np.shape(x_batch)[1])
            return neural_forward(p, x_batch, buffers)

        def spy_sort(a):
            sorts.append(len(a))
            return linalg_distinct_rows(a)

        def spy_train(*args, **kwargs):
            training.append(True)
            try:
                return train_ca_nn(*args, **kwargs)
            finally:
                training.pop()

        def spy_evaluate(*args, **kwargs):
            seen["evaluate_model"] = args, evaluate_model(*args, **kwargs)
            return seen["evaluate_model"][1]

        for module in [m for key, m in sys.modules.items() if key.startswith("capic")]:
            for name, spy in (("forward", spy_forward), ("distinct_rows", spy_sort),
                              ("train_ca_nn", spy_train), ("evaluate_model", spy_evaluate)):
                if name in vars(module):
                    monkeypatch.setattr(module, name, spy)
        cfg = tiny_bsc_config(tmp_path / "run", epochs=5)
        cfg["dataset"].update(n_samples=400, n_test=100)
        out = run_experiment(cfg)
        assert forwards and max(forwards) <= 8
        assert sorted(sorts) == [100, 100, 400, 400]
        (_, data), (train_pf, _) = seen["evaluate_model"]
        x, y = data.train_arrays()
        diag = train_pf.pic_diagonal
        xf, yf = (codes.first for codes in data.train_codes)
        plane = FactorPlane(
            0, 1, reference_points(train_pf.f[:, xf].T, diag[0], diag[1], 0, 1,
                                   [" ".join(map(str, c)) for c in x[:, xf].T.tolist()]),
            reference_points(train_pf.g[:, yf].T, diag[0], diag[1], 0, 1,
                             [" ".join(map(str, c)) for c in y[:, yf].T.tolist()]),
            reference_ratios(diag, 0, 1),
        )
        assert (out / "plane_0_1.csv").read_bytes() == reference_plane_csv(plane).encode()
        assert (out / "plane_0_1.svg").read_bytes() == reference_render_svg(plane).encode()

    def test_library_calls_find_the_codes_once(self, tmp_path, monkeypatch):
        # capbench's wine route: fit_ca_nn_model, then evaluate_model, handed
        # only the dataset.  The one-hot y side is forwarded once per label,
        # each one-hot split side is sorted once (a continuous x side, whose
        # first row is all distinct, needs no sort of its columns), and the
        # outputs are the per-sample ones.
        csv_path = tmp_path / "wine.csv"
        synthetic_wine_csv(csv_path, n_samples=300, seed=4)
        data = build_dataset({"source": "csv", "path": str(csv_path), "schema": WINE_SCHEMA,
                              "standardize": True, "test_fraction": 0.25, "split_seed": 4})
        n_labels = data.y.shape[0]
        g_widths, sorts, training = [], [], []

        def spy_forward(p, x_batch, buffers=None):
            if not training and p.config.in_width == n_labels:
                g_widths.append(np.shape(x_batch)[1])
            return neural_forward(p, x_batch, buffers)

        def spy_sort(a):
            sorts.append(len(a))
            return linalg_distinct_rows(a)

        def spy_train(*args, **kwargs):
            training.append(True)
            try:
                return train_ca_nn(*args, **kwargs)
            finally:
                training.pop()

        for module in [m for key, m in sys.modules.items() if key.startswith("capic")]:
            for name, spy in (("forward", spy_forward), ("distinct_rows", spy_sort),
                              ("train_ca_nn", spy_train)):
                if name in vars(module):
                    monkeypatch.setattr(module, name, spy)
        f_cfg = MlpConfig((data.x.shape[0], 8, 2), "relu", 1)
        g_cfg = MlpConfig((n_labels, 8, 2), "relu", 2)
        t_cfg = TrainConfig(epochs=2, batch_size=64, optimizer="adam", lr=1e-3, seed=3)
        model, _ = fit_ca_nn_model(data, f_cfg, g_cfg, t_cfg)
        pfs = evaluate_model(model, data)
        assert g_widths and max(g_widths) <= n_labels
        assert sorted(sorts) == [75, 225]
        monkeypatch.undo()
        for (x, y), pf in zip((data.train_arrays(), data.test_arrays()), pfs):
            np.testing.assert_allclose(pf.f, neural_forward(model.f_params, x)[0], rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(pf.g, neural_forward(model.g_params, y)[0], rtol=0,
                                       atol=1e-12)

    def test_model_pics_are_the_reported_train_diagonal(self, tmp_path):
        out = run_experiment(tiny_bsc_config(tmp_path / "run", epochs=5))
        pics = json.loads((out / "model.json").read_text())["pics"]
        assert pics == json.loads((out / "pic_report.json").read_text())["train"]

    @pytest.mark.parametrize("mode", ["train", "svd"])
    def test_each_artifact_is_written_from_one_str(self, tmp_path, monkeypatch, mode):
        # A traced benchmark run takes len() of write_text_atomic's text: it
        # must be one str.  Tables stream through write_csv_atomic, and each
        # artifact is written once, by one of the two writers.
        calls, written = [], []
        text_writer, table_writer = fileio.write_text_atomic, fileio.write_csv_atomic

        def text_spy(path, text):
            calls.append(type(text))
            written.append(path)
            return text_writer(path, text)

        def table_spy(path, header, rows):
            written.append(path)
            return table_writer(path, header, rows)

        for module in [m for key, m in sys.modules.items() if key.startswith("capic")]:
            for name, original, spy in (("write_text_atomic", text_writer, text_spy),
                                        ("write_csv_atomic", table_writer, table_spy)):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)
        if mode == "train":
            cfg = tiny_bsc_config(tmp_path / "run", epochs=2)
        else:
            pmf_path = tmp_path / "table.csv"
            pmf_path.write_text(",u,v,w\nr1,0.2,0.05,0.05\nr2,0.05,0.2,0.1\nr3,0.1,0.05,0.2\n")
            cfg = {"version": 1, "mode": "svd", "output_dir": str(tmp_path / "svd"),
                   "dataset": {"source": "pmf_csv", "path": str(pmf_path)}, "planes": [[0, 1]]}
        out = run_experiment(cfg)
        assert calls == [str] * (5 if mode == "train" else 3)
        assert sorted(map(str, written)) == sorted(map(str, out.iterdir()))

    def test_output_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CA_OUTPUT_DIR", str(tmp_path / "envout"))
        cfg = tiny_bsc_config(tmp_path / "ignored", epochs=2)
        del cfg["output_dir"]
        out = run_experiment(cfg)
        assert str(out) == str(tmp_path / "envout")


class TestBuildDataset:
    def test_bsc_split_sizes(self):
        ds = build_dataset(
            {"source": "bsc", "n_bits": 2, "delta": 0.2, "n_samples": 50,
             "n_test": 10, "seed": 1}
        )
        assert ds.n_train == 50
        assert ds.train_arrays()[0].shape[1] == 50
        assert ds.test_arrays()[0].shape[1] == 10

    def test_gaussian_and_multimodal(self):
        g = build_dataset(
            {"source": "gaussian", "sigma1": 1.0, "sigma2": 1.0,
             "n_samples": 30, "seed": 2}
        )
        assert g.x.shape == (1, 30)
        m = build_dataset(
            {"source": "multimodal", "mu0": [5, 5], "mu1": [-5, -5],
             "cov": [[1.0, 0.7], [0.7, 1.0]], "p_mode": 0.5,
             "n_samples": 40, "seed": 3}
        )
        assert m.x.shape == (1, 40)

    def test_pmf_reader_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",a,b\nr,0.5\n")
        from capic.errors import CsvParseError

        with pytest.raises(CsvParseError, match="line 2"):
            read_pmf_csv(bad)

    @pytest.mark.parametrize("text,message,line", [
        ("", "file is empty", 1),
        ("x\n", "header has no y labels", 1),
        (",a,b\nr,0.5,0.5\ns,0.25,oops\n", "non-numeric table entry", 3),
        (',a,b\n"r,1",0.5,0.5\ns,0.25\n', "row width mismatch", 3),
        # a quoted label holding a newline: the next row starts on line 4
        (',a,b\n"r\n1",0.5,0.5\ns,0.25\n', "row width mismatch", 4),
        (',a,b\n"r\n1",0.5,0.5\n"s\n\n2",0.25,oops\n', "non-numeric table entry", 4),
        (",a,b\n", "no table rows", 1),
        (",a,b,a\nr,0.5,0.25,0.25\n", "header repeats y labels ['a']", 1),
        (',a,b\nu,0.25,0.25\n"v\n1",0.25,0\nu,0,0.25\n', "x label 'u' repeats line 2", 5),
    ])
    def test_pmf_reader_names_the_line(self, tmp_path, text, message, line):
        from capic.errors import CsvParseError

        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvParseError, match=f"{re.escape(message)} \\(line {line}\\)$") as info:
            read_pmf_csv(path)
        assert info.value.line == line

    def test_pmf_reader_parses_each_cell_with_float(self, tmp_path):
        cells = [["0.1", "1e-300", "0.30000000000000004"], ["2.5e16", "nan", "-0.0"]]
        path = tmp_path / "pmf.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["", "u", "v,w", 'say "z"'], ["r\n1", *cells[0]],
                                      ["s", *cells[1]]])
        table, x_labels, y_labels = read_pmf_csv(path)
        expected = np.array([[float(c) for c in row] for row in cells])
        assert table.dtype == np.float64 and table.tobytes() == expected.tobytes()
        assert x_labels == ("r\n1", "s") and y_labels == ("u", "v,w", 'say "z"')

    @staticmethod
    def write_pmf(path, pmf, x_labels, y_labels):
        """Write ``pmf`` (lists of floats) as a joint-table CSV, each cell by ``repr``."""
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["", *y_labels],
                                      *([x, *map(repr, row)] for x, row in zip(x_labels, pmf))])

    def test_pmf_reader_matches_row_by_row_stacking(self, tmp_path):
        pmf = random_full_support_pmf(np.random.default_rng(8), 9, 7)
        x_labels = ["r\n1", 'say "q"', "a,b", *(f"x{i}" for i in range(6))]
        path = tmp_path / "pmf.csv"
        self.write_pmf(path, pmf.tolist(), x_labels, [f"y{j}" for j in range(7)])
        table, labels, _ = read_pmf_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        stacked = np.asarray([np.fromiter(map(float, row[1:]), np.float64, 7) for row in rows])
        assert same_bytes(table, stacked) and same_bytes(table, pmf)
        assert labels == tuple(x_labels)

    def test_pmf_reader_holds_one_table(self, tmp_path, traced_peak):
        # the buffer overallocates by up to 1/16 as it grows, and 256 KiB
        # is for the labels, the reader's current row and its floats;
        # stacking separate rows holds two tables
        pmf = random_full_support_pmf(np.random.default_rng(6), 512, 512)
        path = tmp_path / "pmf.csv"
        self.write_pmf(path, pmf.tolist(), range(512), range(512))
        assert traced_peak(read_pmf_csv, path) <= pmf.nbytes * 17 // 16 + 256 * 1024

    def test_svd_mode_frees_the_table_before_the_svd(self, tmp_path, monkeypatch):
        # On entering numpy's SVD only q is left of the table stage (holding
        # the normalized table through it reads 2.08 tables), and no factor
        # table is held as one text (formatting each as one text peaks at
        # 7.07 tables; streaming at 5.10).
        pmf = bsc_joint_pmf(BscSpec(n_bits=8, delta=0.1, p=0.5))
        path = tmp_path / "pmf.csv"
        self.write_pmf(path, pmf.tolist(), range(256), range(256))
        entered, svd = [], classical.svd

        def spy(q):
            entered.append(tracemalloc.get_traced_memory()[0])
            return svd(q)

        monkeypatch.setattr(classical, "svd", spy)
        cfg = {"version": 1, "mode": "svd", "dataset": {"source": "pmf_csv", "path": str(path)},
               "planes": [[0, 1]]}
        tracemalloc.start()
        try:
            run_experiment(cfg, out_dir=tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(entered) == 1 and entered[0] <= 1.25 * pmf.nbytes
        assert peak <= 6 * pmf.nbytes

    def test_pmf_reader_stops_at_the_row_over_the_exact_cap(self, tmp_path, monkeypatch):
        # the fourth row starts on line 6 and takes the table to 12 cells;
        # the entry that float rejects on that row is never parsed
        monkeypatch.setattr(classical, "MAX_EXACT_CELLS", 9)
        path = tmp_path / "big.csv"
        path.write_text(',a,b,c\nr,0.1,0.1,0.1\n"s\n1",0.1,0.1,0.1\nt,0.1,0.1,0.1\nu,0.1,0.1,x\n')
        over = "has 12 cells, over the exact-oracle cap 9"
        with pytest.raises(CapacityError, match=f"the table through line 6 {over}$"):
            read_pmf_csv(path)
        with pytest.raises(CapacityError, match=f"joint alphabet {over}$"):
            classical.pics_exact(np.full((4, 3), 1 / 12))

    @pytest.mark.parametrize("cap,fits", [(11, False), (12, True)])
    def test_svd_mode_honours_the_exact_cap(self, tmp_path, monkeypatch, cap, fits):
        monkeypatch.setattr(classical, "MAX_EXACT_CELLS", cap)
        path = tmp_path / "pmf.csv"
        self.write_pmf(path, np.full((4, 3), 1 / 12).tolist(), "rstu", "abc")
        cfg = {"version": 1, "mode": "svd", "dataset": {"source": "pmf_csv", "path": str(path)}}
        if fits:
            out = run_experiment(cfg, out_dir=tmp_path / "out")
            assert len((out / "scores.csv").read_text().splitlines()) == 3
        else:
            with pytest.raises(CapacityError):
                run_experiment(cfg, out_dir=tmp_path / "out")
            assert not list((tmp_path / "out").glob("factors_*"))

    @pytest.mark.parametrize("cap,fits", [(11, False), (12, True)])
    def test_svd_mode_on_a_categorical_csv_honours_the_exact_cap(self, tmp_path, monkeypatch,
                                                                  cap, fits):
        monkeypatch.setattr(classical, "MAX_EXACT_CELLS", cap)
        path = tmp_path / "pairs.csv"
        pairs = [(x, y) for x in "rstu" for y in "abc"]  # 4 x labels, 3 y labels
        fileio.write_text_atomic(path, fileio.csv_text(["x", "y"], pairs))
        cfg = {"version": 1, "mode": "svd",
               "dataset": {"source": "csv", "path": str(path),
                           "schema": {"x": "x-categorical", "y": "y-categorical"}}}
        if fits:
            out = run_experiment(cfg, out_dir=tmp_path / "out")
            assert len((out / "scores.csv").read_text().splitlines()) == 3
        else:
            with pytest.raises(CapacityError, match="x-by-y label table has 12 cells"):
                run_experiment(cfg, out_dir=tmp_path / "out")
            assert not list((tmp_path / "out").glob("factors_*"))


@pytest.fixture(scope="module")
def wine_plane(tmp_path_factory):
    """A categorical-y model on a 120-row wine CSV and the plane ``ca plane`` writes for it.

    Returns ``(data, model, plane)``.
    """
    tmp_path = tmp_path_factory.mktemp("wine")
    csv_path = tmp_path / "wine.csv"
    synthetic_wine_csv(csv_path, n_samples=120, seed=0)
    dcfg = {"source": "csv", "path": str(csv_path), "schema": WINE_SCHEMA, "standardize": True}
    data = build_dataset(dcfg)
    f_cfg = MlpConfig((data.x.shape[0], 8, 2), "relu", 1)
    g_cfg = MlpConfig((data.y.shape[0], 8, 2), "relu", 2)
    model, _ = fit_ca_nn_model(data, f_cfg, g_cfg, TrainConfig(epochs=3, optimizer="adam"))
    save_model(model, tmp_path / "model.json")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dump_json({"version": 1, "dataset": dcfg}))
    assert main([
        "plane", "--model", str(tmp_path / "model.json"), "--config", str(cfg_path),
        "-i", "0", "-j", "1", "--out", str(tmp_path / "plane"),
    ]) == 0
    return data, model, plane_from_csv((tmp_path / "plane" / "plane_0_1.csv").read_text())


class TestCli:
    def test_train_and_eval_and_plane(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_json(tiny_bsc_config(tmp_path / "run", epochs=5)))
        assert main(["train", "--config", str(cfg_path)]) == 0
        model_path = tmp_path / "run" / "model.json"
        assert model_path.exists()
        assert main([
            "eval", "--model", str(model_path), "--config", str(cfg_path),
            "--out", str(tmp_path / "eval"),
        ]) == 0
        # The saved nets reproduce the run's diagonals, byte for byte.
        run_report = json.loads((tmp_path / "run" / "pic_report.json").read_text())
        eval_report = json.loads((tmp_path / "eval" / "pic_report_eval.json").read_text())
        for split in ("train", "test"):
            assert eval_report[split] == run_report[split]
        assert main([
            "plane", "--model", str(model_path), "--config", str(cfg_path),
            "-i", "0", "-j", "1", "--out", str(tmp_path / "plane"),
        ]) == 0
        for name in ("plane_0_1.svg", "plane_0_1.csv"):
            # Same model, same training split: the run's own plane, byte for byte.
            plane_bytes = (tmp_path / "plane" / name).read_bytes()
            assert plane_bytes == (tmp_path / "run" / name).read_bytes()

    @pytest.mark.parametrize("command", ["eval", "plane"])
    def test_dataset_with_other_categories_exits_2(self, tmp_path, capsys, command):
        # A model trained on y labels p, q, r, handed a dataset whose y labels
        # are x, y, z: nothing is written, and the error names both label lists.
        values = np.random.default_rng(7).normal(size=(90, 2)).tolist()
        cfgs = {}
        for name, labels in (("train", "pqr"), ("other", "xyz")):
            csv_path = tmp_path / f"{name}.csv"
            csv_path.write_text("a,b,c\n" + "".join(
                f"{a!r},{b!r},{labels[k % 3]}\n" for k, (a, b) in enumerate(values)))
            cfgs[name] = tmp_path / f"{name}.json"
            cfgs[name].write_text(dump_json({
                "version": 1, "mode": "train", "d": 2,
                "dataset": {"source": "csv", "path": str(csv_path),
                            "schema": {"a": "x-continuous", "b": "x-continuous",
                                       "c": "y-categorical"}},
                "f_net": {"hidden": [8], "seed": 1}, "g_net": {"hidden": [8], "seed": 2},
                "train": {"epochs": 2, "optimizer": "adam", "seed": 3}}))
        assert main(["train", "--config", str(cfgs["train"]), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        axes = ["-i", "0", "-j", "1"] if command == "plane" else []
        out = tmp_path / command
        assert main([command, "--model", str(tmp_path / "run" / "model.json"),
                     "--config", str(cfgs["other"]), *axes, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: y side:")
        assert "['x', 'y', 'z']" in err and "['p', 'q', 'r']" in err
        assert not (out / "pic_report_eval.json").exists()
        assert not list(out.glob("plane_*"))

    def test_eval_and_plane_standardize_with_the_model_statistics(self, tmp_path):
        # A continuous side is scaled by the training statistics the model
        # stores, not by those of the dataset it is handed: shifting feature
        # a by +10 moves the diagonals (a held-out one leaves [-1, 1.01]) and
        # the plane, and the unshifted file gives back the run's own.
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, 300))
        score = a + 0.5 * b + rng.normal(scale=0.5, size=300)
        grades = np.where(score > 0.5, "hi", np.where(score < -0.5, "lo", "mid"))
        cfgs = {}
        for name, shift in (("same", 0.0), ("shifted", 10.0)):
            csv_path = tmp_path / f"{name}.csv"
            fileio.write_csv_atomic(csv_path, ["a", "b", "c"], zip(a + shift, b, grades))
            cfgs[name] = tmp_path / f"{name}.json"
            cfgs[name].write_text(dump_json({
                "version": 1, "mode": "train", "d": 2,
                "dataset": {"source": "csv", "path": str(csv_path), "standardize": True,
                            "test_fraction": 0.25, "split_seed": 1,
                            "schema": {"a": "x-continuous", "b": "x-continuous",
                                       "c": "y-categorical"}},
                "f_net": {"hidden": [8], "seed": 1}, "g_net": {"hidden": [8], "seed": 2},
                "train": {"epochs": 20, "optimizer": "adam", "lr": 0.01, "seed": 3},
                "planes": [[0, 1]]}))
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfgs["same"]), "--out", str(run)]) == 0
        reports, planes = {}, {}
        for name, cfg_path in cfgs.items():
            model = ["--model", str(run / "model.json"), "--config", str(cfg_path)]
            with (pytest.warns(RuntimeWarning, match="clipped") if name == "shifted"
                  else nullcontext()):
                assert main(["eval", *model, "--out", str(tmp_path / f"eval_{name}")]) == 0
                assert main(["plane", *model, "-i", "0", "-j", "1",
                             "--out", str(tmp_path / f"plane_{name}")]) == 0
            reports[name] = json.loads((tmp_path / f"eval_{name}" / "pic_report_eval.json")
                                       .read_text())
            planes[name] = (tmp_path / f"plane_{name}" / "plane_0_1.csv").read_bytes()
        run_report = json.loads((run / "pic_report.json").read_text())
        for split in ("train", "test"):
            assert reports["same"][split] == run_report[split]
            assert reports["shifted"][split]["raw"] != run_report[split]["raw"]
        assert planes["same"] == (run / "plane_0_1.csv").read_bytes()
        assert planes["shifted"] != planes["same"]

    def test_train_on_categorical_y_writes_a_row_per_label(self, tmp_path):
        csv_path = synthetic_wine_csv(tmp_path / "wine.csv", n_samples=300, seed=0)
        cfg = {
            "version": 1, "mode": "train", "d": 3,
            "dataset": {"source": "csv", "path": str(csv_path), "schema": WINE_SCHEMA,
                        "standardize": True, "test_fraction": 0.2, "split_seed": 0},
            "f_net": {"hidden": [16], "seed": 1},
            "g_net": {"hidden": [16], "seed": 2},
            "train": {"epochs": 2, "batch_size": 64, "optimizer": "adam", "lr": 1e-3, "seed": 3},
        }
        cfg_path = tmp_path / "wine.json"
        cfg_path.write_text(dump_json(cfg))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        data = build_dataset(cfg["dataset"])
        for split, size in (("train", data.n_train), ("test", data.n - data.n_train)):
            with open(tmp_path / "run" / f"factors_y_{split}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [row["label"] for row in rows] == [str(l) for l in data.y_labels]
            assert sum(int(row["count"]) for row in rows) == size
            lines = (tmp_path / "run" / f"factors_x_{split}.csv").read_text().splitlines()
            assert len(lines) == 1 + size

    def test_plane_of_categorical_y_has_one_y_point_per_label(self, wine_plane):
        data, _, plane = wine_plane
        assert [label for label, _, _ in plane.y_points] == [str(l) for l in data.y_labels]
        assert len(plane.x_points) == data.x.shape[1]

    def test_from_cann_label_points_are_the_plane_y_points(self, wine_plane):
        data, model, plane = wine_plane
        labels = data.y_labels
        _, y_train = data.train_arrays()
        counts = y_train.sum(axis=1)
        prior = counts / counts.sum()
        recon = from_cann(model, labels, list(np.eye(len(labels))), prior)
        # the plane scales each axis by the training-split diagonal
        diag = evaluate_model(model, data)[0].pic_diagonal
        assert [(c_i, c_j) for _, c_i, c_j in plane.y_points] == [
            (float(diag[0] * g[0]), float(diag[1] * g[1])) for g in recon.g_points
        ]
        predicted = {classify(recon, data.x[:, k])[0] for k in range(data.x.shape[1])}
        assert predicted <= set(labels)

    def test_reports_without_a_test_split_share_their_blocks(self, tmp_path):
        # pic_report.json and pic_report_eval.json hold the same config hash
        # and diagonals, and a null test block when there is no test split.
        cfg = tiny_bsc_config(tmp_path / "run", epochs=2)
        cfg["dataset"]["n_test"] = 0
        run = run_experiment(cfg)
        ev = run_eval(run / "model.json", cfg, out_dir=tmp_path / "eval")
        run_report = json.loads((run / "pic_report.json").read_text())
        eval_report = json.loads((ev / "pic_report_eval.json").read_text())
        assert set(run_report) == {"config_hash", "train", "test", "loss_initial",
                                   "loss_final", "kyfan_final"}
        assert set(eval_report) == {"config_hash", "train", "test", "model"}
        for key in ("config_hash", "train", "test"):
            assert eval_report[key] == run_report[key]
        assert run_report["test"] is None
        assert set(run_report["train"]) == {"raw", "clamped"}

    def test_svd_subcommand_on_pmf(self, tmp_path):
        pmf_path = tmp_path / "table.csv"
        pmf_path.write_text(",u,v\nr1,0.4,0.1\nr2,0.1,0.4\n")
        code = main(["svd", "--pmf", str(pmf_path), "--out", str(tmp_path / "svdout")])
        assert code == 0
        assert (tmp_path / "svdout" / "scores.csv").exists()

    def test_svd_plane_flag_on_a_config(self, tmp_path):
        pmf_path = tmp_path / "table.csv"
        pmf_path.write_text(",u,v,w\nr1,0.2,0.05,0.05\nr2,0.05,0.2,0.1\nr3,0.1,0.05,0.2\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_json(
            {"version": 1, "dataset": {"source": "pmf_csv", "path": str(pmf_path)}}
        ))
        for route in (["--config", str(cfg_path)], ["--pmf", str(pmf_path)]):
            out = tmp_path / route[0][2:]
            assert main(["svd", *route, "--plane", "0", "1", "--out", str(out)]) == 0
            assert sorted(p.name for p in out.glob("plane_*")) == ["plane_0_1.csv",
                                                                   "plane_0_1.svg"]
        assert ((tmp_path / "config" / "plane_0_1.svg").read_bytes()
                == (tmp_path / "pmf" / "plane_0_1.svg").read_bytes())

    def test_svd_plane_beyond_the_table_exits_2_before_any_table(self, tmp_path, capsys):
        # a 3 x 3 table has d = 2 non-trivial components
        pmf_path = tmp_path / "table.csv"
        pmf_path.write_text(",u,v,w\nr1,0.2,0.05,0.05\nr2,0.05,0.2,0.1\nr3,0.1,0.05,0.2\n")
        out = tmp_path / "out"
        assert main(["svd", "--pmf", str(pmf_path), "--plane", "0", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: config planes: axis 5 out of range for d=2")
        for name in ("factors_x.csv", "factors_y.csv", "scores.csv"):
            assert not (out / name).exists(), name

    @pytest.mark.parametrize("argv", [[], ["--config", "c.json", "--pmf", "t.csv"]],
                             ids=["neither", "both"])
    def test_svd_needs_exactly_one_of_config_and_pmf(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["svd", *argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_oracle_emits_spectrum(self, tmp_path):
        code = main([
            "oracle", "bsc-spectrum", "--bits", "5", "--delta", "0.1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        text = (tmp_path / "bsc_spectrum.csv").read_text().splitlines()
        assert text[0] == "value,multiplicity"
        assert text[1].endswith(",5")  # C(5,1) entries of 0.8

    @pytest.mark.parametrize("argv,name,expected", [
        (["bsc-spectrum", "--bits", "2", "--delta", "0.25"], "bsc_spectrum.csv",
         "value,multiplicity\n0.5,2\n0.25,1\n"),
        (["bsc", "--bits", "2", "--samples", "3", "--seed", "0"], "bsc_samples.csv",
         "x0,x1,y0,y1\n0.0,1.0,0.0,1.0\n1.0,0.0,1.0,0.0\n1.0,0.0,1.0,1.0\n"),
    ])
    def test_oracle_output_bytes(self, tmp_path, argv, name, expected):
        assert main(["oracle", *argv, "--out", str(tmp_path)]) == 0
        assert (tmp_path / name).read_bytes() == expected.encode()

    def test_oracle_output_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CA_OUTPUT_DIR", str(tmp_path / "envout"))
        assert main(["oracle", "bsc-spectrum", "--bits", "2"]) == 0
        assert (tmp_path / "envout" / "bsc_spectrum.csv").exists()

    def test_oracle_spectrum_rejects_biased_input(self, tmp_path, capsys):
        argv = ["oracle", "bsc-spectrum", "--bits", "2", "--p", "0.3", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "--p 0.5" in capsys.readouterr().err
        assert not (tmp_path / "bsc_spectrum.csv").exists()

    def test_oracle_emits_samples(self, tmp_path):
        code = main([
            "oracle", "bsc", "--bits", "3", "--delta", "0.1", "--samples", "20",
            "--seed", "4", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "bsc_samples.csv").read_text().splitlines()
        assert lines[0] == "x0,x1,x2,y0,y1,y2"
        assert len(lines) == 21

    def test_interpolate(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = {
            "version": 1, "mode": "train", "output_dir": str(tmp_path / "run"),
            "d": 1,
            "dataset": {"source": "gaussian", "sigma1": 1.0, "sigma2": 1.0,
                        "n_samples": 200, "seed": 6},
            "f_net": {"hidden": [8], "activation": "tanh", "seed": 1},
            "g_net": {"hidden": [8], "activation": "tanh", "seed": 2},
            "train": {"epochs": 5, "optimizer": "adam", "lr": 0.01, "seed": 3},
        }
        cfg_path.write_text(dump_json(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        code = main([
            "interpolate", "--model", str(tmp_path / "run" / "model.json"),
            "--start", "-1.0", "--end", "1.0", "--steps", "4",
            "--out", str(tmp_path / "interp"),
        ])
        assert code == 0
        lines = (tmp_path / "interp" / "interpolation.csv").read_text().splitlines()
        assert lines[0] == "step,f0"
        assert len(lines) == 5

    @pytest.mark.parametrize("key,value,message", [
        ("d", None, "config is missing d"),
        ("train.epochs", None, "config is missing train.epochs"),
        ("dataset.n_samples", None, "config is missing dataset.n_samples"),
        ("train.lr", "fast", "config train.lr = 'fast'"),
        ("dataset", None, "config is missing dataset"),
        ("dataset.n_bits", None, "config is missing dataset.n_bits"),
        ("dataset.delta", None, "config is missing dataset.delta"),
        ("dataset", {"source": "gaussian", "sigma1": 1.0, "n_samples": 50},
         "config is missing dataset.sigma2"),
        ("dataset", {"source": "multimodal", "mu0": [5, 5], "mu1": [-5, -5], "n_samples": 50},
         "config is missing dataset.cov"),
        ("dataset", {"source": "csv", "schema": WINE_SCHEMA}, "config is missing dataset.path"),
        ("dataset", {"source": "csv", "path": "wine.csv"}, "config is missing dataset.schema"),
        ("train", 5, "config train = 5: not an object"),
        ("f_net.output_clip", 10.0, "config sets unknown key f_net.output_clip"),
        ("g_net.width", 8, "config sets unknown key g_net.width"),
        ("train.epoch", 3, "config sets unknown key train.epoch"),
        ("planes", [[0]], "config planes = [[0]]: each plane is two distinct non-negative axes"),
        ("planes", [[0, "a"]], "config planes = [[0, 'a']]: invalid literal for int()"),
        ("planes", [[1, 1]], "config planes = [[1, 1]]: each plane is two distinct"),
        ("planes", [[0, 1], [0, 5]], "config planes: axis 5 out of range for d=2"),
    ], ids=["no-d", "no-epochs", "no-n_samples", "bad-lr", "no-dataset", "no-n_bits",
            "no-delta", "no-sigma2", "no-cov", "csv-no-path", "csv-no-schema", "train-not-object",
            "unknown-f_net-key", "unknown-g_net-key", "unknown-train-key", "planes-one-axis",
            "planes-not-int", "planes-same-axis", "planes-axis-beyond-d"])
    def test_config_error_names_the_key(self, tmp_path, capsys, key, value, message):
        cfg = tiny_bsc_config(tmp_path / "run", epochs=2)
        *outer, name = key.split(".")
        block = cfg[outer[0]] if outer else cfg
        if value is None:
            del block[name]
        else:
            block[name] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_json(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "run" / "model.json").exists()  # refused before any work

    @pytest.mark.parametrize("key", ["dataset", "f_net", "g_net", "train"])
    def test_seed_override_names_a_block_that_is_not_an_object(self, tmp_path, capsys, key):
        cfg = tiny_bsc_config(tmp_path / "run", epochs=2)
        cfg[key] = 5
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_json(cfg))
        assert main(["train", "--config", str(cfg_path), "--seed", "3"]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {key} = 5: not an object")

    def test_svd_config_error_names_the_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_json({"version": 1, "dataset": {"source": "pmf_csv"}}))
        assert main(["svd", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: config is missing dataset.path")

    @pytest.mark.parametrize("case", [
        "config-missing", "config-not-json", "config-list", "model-missing", "pmf-missing",
        "csv-missing",
    ])
    def test_unreadable_input_names_the_path(self, tmp_path, capsys, case):
        missing = str(tmp_path / "missing.file")
        cfg = tiny_bsc_config(tmp_path / "run", epochs=2)
        if case == "csv-missing":
            cfg["dataset"] = {"source": "csv", "path": missing, "schema": WINE_SCHEMA}
        cfg_path = tmp_path / "cfg.json"
        text = {"config-not-json": "{", "config-list": "[1]"}.get(case, dump_json(cfg))
        cfg_path.write_text(text)
        argv = {
            "config-missing": ["train", "--config", missing],
            "model-missing": ["eval", "--model", missing, "--config", str(cfg_path)],
            "pmf-missing": ["svd", "--pmf", missing, "--out", str(tmp_path)],
        }.get(case, ["train", "--config", str(cfg_path)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        named = str(cfg_path) if case in ("config-not-json", "config-list") else missing
        assert err.startswith("error: ") and named in err

    def test_batch_smaller_than_d_exits_2(self, tmp_path, capsys):
        # every batch of 2 would be dropped for d = 3: nothing would train
        cfg = tiny_bsc_config(tmp_path / "run")
        cfg["d"] = 3
        cfg["dataset"].update(n_samples=400, n_test=100)
        cfg["train"]["batch_size"] = 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_json(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "n=400, batch_size=2, d=3" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.json").exists()

    def test_error_paths_return_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        missing.write_text(dump_json({"version": 1, "mode": "train"}))
        code = main(["train", "--config", str(missing)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
