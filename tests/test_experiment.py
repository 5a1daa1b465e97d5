import json

import numpy as np
import pytest

from capic.classical import ca_decompose, contingency_from_pmf
from capic.cli import main
from capic.datasets import WINE_SCHEMA, synthetic_wine_csv
from capic.experiment import build_dataset, read_pmf_csv, run_experiment
from capic.factor_plane import export_factor_plane, plane_from_csv, plane_to_csv
from capic.fileio import dump_json
from capic.model import fit_ca_nn_model, save_model
from capic.neural import MlpConfig, TrainConfig


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
            plane, svg = export_factor_plane(
                decomp, i, j, x_labels=table.x_labels, y_labels=table.y_labels
            )
            assert (out / f"plane_{i}_{j}.svg").read_bytes() == svg.encode()
            assert (out / f"plane_{i}_{j}.csv").read_bytes() == plane_to_csv(plane).encode()

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
        assert ds.split.train_idx.size == 50
        assert ds.split.test_idx.size == 10

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
        assert (tmp_path / "eval" / "pic_report_eval.json").exists()
        assert main([
            "plane", "--model", str(model_path), "--config", str(cfg_path),
            "-i", "0", "-j", "1", "--out", str(tmp_path / "plane"),
        ]) == 0
        for name in ("plane_0_1.svg", "plane_0_1.csv"):
            # Same model, same training split: the run's own plane, byte for byte.
            plane_bytes = (tmp_path / "plane" / name).read_bytes()
            assert plane_bytes == (tmp_path / "run" / name).read_bytes()

    def test_plane_of_categorical_y_has_one_y_point_per_label(self, tmp_path):
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
        plane = plane_from_csv((tmp_path / "plane" / "plane_0_1.csv").read_text())
        assert [label for label, _, _ in plane.y_points] == [str(l) for l in data.y_labels]
        assert len(plane.x_points) == data.x.shape[1]

    def test_svd_subcommand_on_pmf(self, tmp_path):
        pmf_path = tmp_path / "table.csv"
        pmf_path.write_text(",u,v\nr1,0.4,0.1\nr2,0.1,0.4\n")
        code = main(["svd", "--pmf", str(pmf_path), "--out", str(tmp_path / "svdout")])
        assert code == 0
        assert (tmp_path / "svdout" / "scores.csv").exists()

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
    ], ids=["no-d", "no-epochs", "no-n_samples", "bad-lr"])
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

    def test_error_paths_return_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        missing.write_text(dump_json({"version": 1, "mode": "train"}))
        code = main(["train", "--config", str(missing)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
