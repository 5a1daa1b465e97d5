"""The benchmark's three workloads.

Each workload has a ``setup`` that makes the inputs from the seed (this
is what ``setup_s`` times, together with importing capic), an
``operate`` that makes one timed call chain into capic, and a ``check``
that verifies the outputs of that call outside the timed region.
``check`` returns the estimate's gap to the workload's oracle and
raises :class:`CheckFailed` when an output is wrong.

Why these three:

* ``bsc5-full`` is the paper's synthetic reference: full-batch training
  at n=15000, where MLP matrix products dominate.
* ``wine-mb64`` trains at batch 64, where the fixed per-step cost
  dominates (validation, ``eig_sym`` inside ``pic_loss``, the
  optimizer), and is the only workload with CSV ingest and
  reconstitution.  It calls the library pipeline rather than
  ``ca train`` because ``ca train`` on a categorical y raises
  ``IndexError`` in ``experiment._write_factor_tables`` (see
  ``capbench/tests/test_known_defects.py``).
* ``pmf-svd`` is classical CA on the exact 1024x1024 BSC-10 table: no
  neural code runs, so it is the workload that a CA-NN optimisation
  should leave unchanged.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from capic import (
    BscSpec,
    MlpConfig,
    TrainConfig,
    bsc_joint_pmf,
    bsc_spectrum_uniform,
    classify,
    fit_ca_nn_model,
    synthetic_wine_csv,
)
from capic.datasets import WINE_SCHEMA
from capic.experiment import build_dataset, evaluate_model, run_experiment
from capic.oracles import spectrum_to_vector
from capic.reconstitution import from_cann


class CheckFailed(Exception):
    """An operation returned without error but its output is wrong."""


@dataclass(frozen=True)
class BscSize:
    n_bits: int
    n_train: int
    n_test: int
    hidden: tuple
    epochs: int


@dataclass(frozen=True)
class WineSize:
    rows: int
    hidden: tuple
    epochs: int


@dataclass(frozen=True)
class PmfSize:
    n_bits: int


BSC_DELTA = 0.1
#: Bayes accuracy of the synthetic wine data: three equiprobable
#: clusters holding 3, 1 and 2 equiprobable grades.
WINE_BAYES_ACCURACY = (1 / 3 + 1 + 1 / 2) / 3
WINE_D = 3


class Bsc5Full:
    """``run_experiment`` in train mode on the BSC-5 reference config."""

    name = "bsc5-full"

    def __init__(self, size: BscSize):
        self.size = size

    def setup(self, seed, work: Path):
        s = self.size
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        config = {
            "version": 1,
            "mode": "train",
            "d": s.n_bits,
            "dataset": {"source": "bsc", "n_bits": s.n_bits, "delta": BSC_DELTA, "p": 0.5,
                        "n_samples": s.n_train, "n_test": s.n_test},
            "f_net": {"hidden": list(s.hidden), "activation": "relu"},
            "g_net": {"hidden": list(s.hidden), "activation": "relu"},
            "train": {"epochs": s.epochs, "batch_size": "full", "optimizer": "gd",
                      "lr": 0.01},
            "planes": [[0, 1]],
        }
        return {"config": config, "seed": seed, "out": out}

    def operate(self, inputs):
        return run_experiment(inputs["config"], seed=inputs["seed"], out_dir=inputs["out"])

    def check(self, inputs, out):
        report = json.loads((Path(out) / "pic_report.json").read_text())
        diag = np.asarray(report["test"]["raw"], dtype=np.float64)
        if diag.shape != (self.size.n_bits,) or not np.all(np.isfinite(diag)):
            raise CheckFailed(f"held-out PIC diagonal is not {self.size.n_bits} finite values")
        # Every component of the uniform BSC has correlation 1 - 2*delta.
        return float(np.mean(np.abs(diag - (1.0 - 2.0 * BSC_DELTA))))


class WineMb64:
    """CSV ingest, batch-64 Adam training and reconstitution on wine-shaped data."""

    name = "wine-mb64"

    def __init__(self, size: WineSize):
        self.size = size

    def setup(self, seed, work: Path):
        path = work / "wine.csv"
        synthetic_wine_csv(path, n_samples=self.size.rows, seed=seed)
        return {"path": path, "seed": seed}

    def operate(self, inputs):
        s, seed = self.size, inputs["seed"]
        data = build_dataset({
            "source": "csv", "path": str(inputs["path"]), "schema": WINE_SCHEMA,
            "standardize": True, "test_fraction": 0.2, "split_seed": seed,
        })
        f_cfg = MlpConfig((data.x.shape[0], *s.hidden, WINE_D), "relu", seed + 1)
        g_cfg = MlpConfig((data.y.shape[0], *s.hidden, WINE_D), "relu", seed + 2)
        t_cfg = TrainConfig(epochs=s.epochs, batch_size=64, optimizer="adam", lr=1e-3,
                            seed=seed + 3)
        model, _ = fit_ca_nn_model(data, f_cfg, g_cfg, t_cfg)
        evaluate_model(model, data)
        labels = data.y_labels
        _, y_train = data.train_arrays()
        counts = y_train.sum(axis=1)
        recon = from_cann(model, labels, list(np.eye(len(labels))), counts / counts.sum())
        x_test, y_test = data.test_arrays()
        predicted = [classify(recon, x_test[:, j])[0] for j in range(x_test.shape[1])]
        truth = [labels[k] for k in np.argmax(y_test, axis=0)]
        return predicted, truth, labels

    def check(self, inputs, out):
        predicted, truth, labels = out
        if len(predicted) != len(truth) or not truth:
            raise CheckFailed(f"{len(predicted)} predictions for {len(truth)} test samples")
        if not set(predicted) <= set(labels):
            raise CheckFailed("a prediction is not a quality label")
        accuracy = sum(p == t for p, t in zip(predicted, truth)) / len(truth)
        return WINE_BAYES_ACCURACY - accuracy


class PmfSvd:
    """``run_experiment`` in svd mode on the exact BSC joint pmf read from CSV."""

    name = "pmf-svd"
    #: Largest allowed distance of a singular value from its closed form.
    TOLERANCE = 1e-12

    def __init__(self, size: PmfSize):
        self.size = size

    def setup(self, seed, work: Path):
        n = self.size.n_bits
        delta = 0.05 + 0.15 * float(np.random.default_rng(seed).random())
        pmf = bsc_joint_pmf(BscSpec(n_bits=n, delta=delta, p=0.5))
        labels = [format(i, f"0{n}b") for i in range(1 << n)]
        path = work / "pmf.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x\\y", *labels])
            for label, row in zip(labels, pmf.tolist()):
                writer.writerow([label, *map(repr, row)])
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        config = {"version": 1, "mode": "svd",
                  "dataset": {"source": "pmf_csv", "path": str(path)},
                  "planes": [[0, 1]]}
        truth = spectrum_to_vector(bsc_spectrum_uniform(n, delta))
        return {"config": config, "out": out, "truth": truth}

    def operate(self, inputs):
        return run_experiment(inputs["config"], out_dir=inputs["out"])

    def check(self, inputs, out):
        with open(Path(out) / "scores.csv", newline="") as fh:
            sigmas = np.array([float(row["sigma"]) for row in csv.DictReader(fh)])
        truth = inputs["truth"]
        if sigmas.shape != truth.shape:
            raise CheckFailed(f"{sigmas.size} singular values, expected {truth.size}")
        gap = float(np.max(np.abs(sigmas - truth)))
        if not gap <= self.TOLERANCE:
            raise CheckFailed(f"spectrum is {gap:.3e} from the closed form")
        return gap


FULL = {
    "bsc5-full": Bsc5Full(BscSize(n_bits=5, n_train=15000, n_test=1500, hidden=(32, 32),
                                  epochs=200)),
    "wine-mb64": WineMb64(WineSize(rows=40000, hidden=(32, 32), epochs=4)),
    "pmf-svd": PmfSvd(PmfSize(n_bits=10)),
}

#: The same workloads at a size that runs in about a second, for the
#: benchmark's own smoke test.
TOY = {
    "bsc5-full": Bsc5Full(BscSize(n_bits=3, n_train=600, n_test=200, hidden=(8,), epochs=5)),
    "wine-mb64": WineMb64(WineSize(rows=600, hidden=(8,), epochs=1)),
    "pmf-svd": PmfSvd(PmfSize(n_bits=4)),
}
