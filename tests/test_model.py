import re

import numpy as np
import pytest

from capic.cli import main
from capic.datasets import PairedDataset
from capic.errors import ContractViolationError
from capic.experiment import build_dataset, evaluate_model
from capic.fileio import dump_json
from capic.model import fit_ca_nn_model, load_model, model_from_doc, model_to_doc, save_model
from capic.neural import MlpConfig, TrainConfig, evaluate_loss, forward, train_ca_nn

CONFIGS = (
    MlpConfig((2, 8, 2), activation="tanh", init_seed=1),
    MlpConfig((2, 8, 2), activation="tanh", init_seed=2),
    TrainConfig(epochs=40, optimizer="adam", lr=0.01, seed=3),
)


@pytest.fixture(scope="module")
def tiny_model():
    rng = np.random.default_rng(91)
    x = rng.normal(size=(2, 300))
    y = 0.7 * x + 0.3 * rng.normal(size=(2, 300))
    data = PairedDataset(x=x, y=y, provenance={"source": "unit-test"})
    model, history = fit_ca_nn_model(data, *CONFIGS)
    return data, model, history


class TestFitModel:
    def test_whitening_identities_on_training_set(self, tiny_model):
        # the whitening is folded into the nets: their outputs are white
        data, model, _ = tiny_model
        f, _ = forward(model.f_params, data.x)
        g, _ = forward(model.g_params, data.y)
        n = data.n
        np.testing.assert_allclose(f @ f.T / n, np.eye(2), atol=1e-6)
        np.testing.assert_allclose(g @ g.T / n, np.eye(2), atol=1e-6)
        cross = f @ g.T / n
        np.testing.assert_allclose(np.diag(cross), model.raw_diagonal, atol=1e-12)

    def test_final_loss_is_that_of_the_nets_before_the_fold(self, tiny_model):
        data, model, _ = tiny_model
        f_params, g_params, _ = train_ca_nn(data, *CONFIGS)
        final = evaluate_loss(f_params, g_params, data, eps=CONFIGS[2].loss_eps)
        assert (model.loss_final, model.kyfan_final) == (final.loss, final.kyfan_term)

    @pytest.mark.parametrize("dcfg, coded", [
        ({"source": "bsc", "n_bits": 3, "delta": 0.1, "n_samples": 400, "seed": 3}, True),
        ({"source": "gaussian", "sigma1": 1.0, "sigma2": 1.0, "n_samples": 300, "seed": 3},
         False),
    ])
    def test_kept_diagonal_is_the_evaluated_one_exactly(self, dcfg, coded):
        # The fit takes the diagonal from its own pass's last hidden
        # activations, through the folded output layers; only exact
        # equality shows that reuse gives evaluate_model's numbers.
        data = build_dataset(dcfg)
        assert (data.train_codes[0] is not None) == coded
        f_cfg = MlpConfig((data.x.shape[0], 8, 2), activation="tanh", init_seed=4)
        g_cfg = MlpConfig((data.y.shape[0], 8, 2), activation="tanh", init_seed=5)
        t_cfg = TrainConfig(epochs=20, optimizer="adam", lr=0.01, seed=6)
        model, _ = fit_ca_nn_model(data, f_cfg, g_cfg, t_cfg)
        train_pf, _ = evaluate_model(model, data)
        assert np.array_equal(model.raw_diagonal, train_pf.raw_diagonal)
        assert np.array_equal(model.pic_diagonal, train_pf.pic_diagonal)

    def test_metadata_captures_kinds(self, tiny_model):
        _, model, _ = tiny_model
        assert model.metadata["x_kind"] == "continuous"
        assert model.d == 2


def _parent(doc, path):
    """The block holding the dotted ``path`` of a model document, and the last key."""
    *outer, last = path.split(".")
    for key in outer:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc, last


class TestSerialization:
    def test_round_trip_through_disk(self, tiny_model, tmp_path):
        data, model, _ = tiny_model
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = np.linspace(-1, 1, 10).reshape(2, 5)
        for saved, back in ((model.f_params, loaded.f_params), (model.g_params, loaded.g_params)):
            np.testing.assert_array_equal(forward(saved, probe)[0], forward(back, probe)[0])
        np.testing.assert_array_equal(model.pic_diagonal, loaded.pic_diagonal)
        assert loaded.f_params.config.layer_widths == (2, 8, 2)

    def test_disk_round_trip_keeps_weights_exact(self, tiny_model, tmp_path):
        _, model, _ = tiny_model
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for saved, back in ((model.f_params, loaded.f_params), (model.g_params, loaded.g_params)):
            assert back.flat.dtype == np.float64
            assert back.flat.tobytes() == saved.flat.tobytes()

    def test_doc_round_trip_exact(self, tiny_model):
        _, model, _ = tiny_model
        doc = model_to_doc(model)
        again = model_to_doc(model_from_doc(doc))
        assert doc == again

    def test_version_checked(self, tiny_model):
        # a version-1 document (nets plus a separate whitening block) must not load
        _, model, _ = tiny_model
        for version in (1, 99):
            doc = model_to_doc(model)
            doc["format_version"] = version
            with pytest.raises(ContractViolationError, match="format version"):
                model_from_doc(doc)

    @pytest.mark.parametrize("path,named", [
        ("f_net", "f_net"),
        ("g_net.biases", "g_net.biases"),
        ("f_net.activation", "f_net.activation"),
        ("f_net.weights.1.shape", "f_net.weights[1].shape"),
        ("pics.raw", "pics.raw"),
        ("loss_final", "loss_final"),
    ])
    def test_missing_key_is_named(self, tiny_model, path, named):
        _, model, _ = tiny_model
        doc = model_to_doc(model)
        block, last = _parent(doc, path)
        del block[last]
        with pytest.raises(ContractViolationError,
                           match=f"^model document is missing {re.escape(named)}$"):
            model_from_doc(doc)

    @pytest.mark.parametrize("path,value,named", [
        ("f_net.weights", 5, "f_net.weights"),
        ("g_net.layer_widths", 5, "g_net.layer_widths"),
        ("f_net.weights.1.data", [0.5], "f_net.weights[1].data"),
        ("g_net.biases.0.shape", "x", "g_net.biases[0].shape"),
        ("f_net.layer_widths", [2, "wide", 2], "f_net.layer_widths"),
        ("pics.raw", "x", "pics.raw"),
    ])
    def test_malformed_value_is_named(self, tiny_model, path, value, named):
        _, model, _ = tiny_model
        doc = model_to_doc(model)
        block, last = _parent(doc, path)
        block[last] = value
        with pytest.raises(ContractViolationError,
                           match=f"^model document has a malformed {re.escape(named)}: "):
            model_from_doc(doc)

    def test_eval_of_a_model_without_nets_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        model_path.write_text(dump_json({"format_version": 2}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_json({"version": 1, "dataset": {
            "source": "bsc", "n_bits": 2, "delta": 0.1, "n_samples": 20}}))
        argv = ["eval", "--model", str(model_path), "--config", str(cfg_path),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: model document is missing f_net\n"
