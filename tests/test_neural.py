import warnings

import numpy as np
import pytest

import capic.neural as neural
from capic.datasets import PairedDataset, column_codes
from capic.errors import ContractViolationError, TrainingDivergedError
from capic.experiment import build_dataset, evaluate_model
from capic.model import fit_ca_nn_model
from capic.neural import (
    EpochRecord,
    MlpConfig,
    MlpParams,
    TrainConfig,
    backward,
    encode,
    evaluate_loss,
    forward,
    mlp_init,
    train_ca_nn,
)
from capic.objective import BatchOutputs, pic_loss


def loss_for_fd(params, x, probe):
    out, _ = forward(params, x)
    return float(np.sum(probe * out))


def finite_diff_param_grads(params, x, probe, step=1e-5):
    grads_w, grads_b = [], []
    for store, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for arr in store:
            g = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                arr[idx] += step
                up = loss_for_fd(params, x, probe)
                arr[idx] -= 2 * step
                down = loss_for_fd(params, x, probe)
                arr[idx] += step
                g[idx] = (up - down) / (2 * step)
            grads.append(g)
    return grads_w, grads_b


def max_rel_err(a_list, b_list):
    worst = 0.0
    for a, b in zip(a_list, b_list):
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-6))))
    return worst


class TestInitAndShapes:
    def test_same_seed_bit_identical(self):
        cfg = MlpConfig((4, 8, 3), init_seed=5)
        a = mlp_init(cfg)
        b = mlp_init(cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_weight_shapes(self):
        p = mlp_init(MlpConfig((4, 8, 3)))
        assert p.weights[0].shape == (8, 4)
        assert p.weights[1].shape == (3, 8)
        assert all(b.shape == (w.shape[0],) for w, b in zip(p.weights, p.biases))

    def test_zero_width_rejected(self):
        with pytest.raises(ContractViolationError):
            MlpConfig((4, 0, 3))

    def test_needs_hidden_layer(self):
        with pytest.raises(ContractViolationError):
            MlpConfig((4, 3))

    def test_unknown_activation_rejected(self):
        with pytest.raises(ContractViolationError):
            MlpConfig((4, 8, 3), activation="gelu")

    def test_weights_and_biases_are_views_of_flat(self):
        p = mlp_init(MlpConfig((3, 4, 2), init_seed=1))
        arrays = p.weights + p.biases
        assert sum(a.size for a in arrays) == p.flat.size
        assert all(np.shares_memory(a, p.flat) for a in arrays)
        p.flat[:] = 7.0
        assert all(np.all(a == 7.0) for a in arrays)

    def test_param_shapes_must_match_config(self):
        p = mlp_init(MlpConfig((3, 4, 2)))
        with pytest.raises(ContractViolationError):
            MlpParams(MlpConfig((3, 5, 2)), p.weights, p.biases)


class TestForward:
    def test_zero_params_zero_output(self):
        p = mlp_init(MlpConfig((3, 5, 2)))
        for w in p.weights:
            w[:] = 0.0
        out, _ = forward(p, np.random.default_rng(0).normal(size=(3, 7)))
        np.testing.assert_allclose(out, 0.0)

    def test_identity_hook_collapses_to_affine(self):
        p = mlp_init(MlpConfig((3, 4, 2), activation="identity", init_seed=2))
        x = np.random.default_rng(1).normal(size=(3, 6))
        out, _ = forward(p, x)
        w = p.weights[1] @ p.weights[0]
        b = p.weights[1] @ p.biases[0] + p.biases[1]
        np.testing.assert_allclose(out, w @ x + b[:, None], atol=1e-12)

    def test_matches_scalar_reference_evaluation(self):
        cfg = MlpConfig((2, 3, 2), activation="tanh", init_seed=9)
        p = mlp_init(cfg)
        x = np.random.default_rng(4).normal(size=(2, 5))
        out, _ = forward(p, x)
        for col in range(5):
            h = [0.0] * 3
            for i in range(3):
                acc = p.biases[0][i]
                for j in range(2):
                    acc += p.weights[0][i, j] * x[j, col]
                h[i] = np.tanh(acc)
            for i in range(2):
                acc = p.biases[1][i]
                for j in range(3):
                    acc += p.weights[1][i, j] * h[j]
                assert abs(out[i, col] - acc) < 1e-12

    def test_width_mismatch_rejected(self):
        p = mlp_init(MlpConfig((3, 4, 2)))
        with pytest.raises(ContractViolationError):
            forward(p, np.zeros((2, 5)))


class TestBackward:
    def test_zero_grad_out(self):
        p = mlp_init(MlpConfig((2, 3, 2), init_seed=1))
        x = np.random.default_rng(2).normal(size=(2, 4))
        _, buffers = forward(p, x)
        gw, gb = backward(p, buffers, np.zeros((2, 4)))
        assert all(np.all(g == 0) for g in gw + gb)

    def test_linear_net_sum_loss_hand_gradient(self):
        # identity activations, loss = sum of outputs: dW_last = 1 h^T etc.
        p = mlp_init(MlpConfig((2, 2, 1), activation="identity", init_seed=6))
        x = np.random.default_rng(7).normal(size=(2, 5))
        out, buffers = forward(p, x)
        gw, gb = backward(p, buffers, np.ones_like(out))
        np.testing.assert_allclose(gw[1], buffers.hidden[0].sum(axis=1)[None, :], atol=1e-12)
        np.testing.assert_allclose(gb[1], [5.0], atol=1e-12)
        np.testing.assert_allclose(
            gw[0], p.weights[1].T @ np.ones((1, 5)) @ x.T, atol=1e-12
        )

    def test_finite_differences_tanh(self):
        p = mlp_init(MlpConfig((2, 3, 2), activation="tanh", init_seed=11))
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 6))
        probe = rng.normal(size=(2, 6))
        out, buffers = forward(p, x)
        gw, gb = backward(p, buffers, probe)
        fd_w, fd_b = finite_diff_param_grads(p, x, probe)
        assert max_rel_err(gw, fd_w) < 1e-4
        assert max_rel_err(gb, fd_b) < 1e-4

    def test_finite_differences_relu_away_from_kinks(self):
        p = mlp_init(MlpConfig((3, 5, 2), activation="relu", init_seed=21))
        rng = np.random.default_rng(22)
        x = rng.normal(size=(3, 8))
        _, buffers = forward(p, x)
        # seed chosen so no pre-activation sits near the kink
        pre = p.weights[0] @ x + p.biases[0][:, None]
        assert np.abs(pre).min() > 1e-3
        probe = rng.normal(size=(2, 8))
        gw, gb = backward(p, buffers, probe)
        fd_w, fd_b = finite_diff_param_grads(p, x, probe)
        assert max_rel_err(gw, fd_w) < 1e-4
        assert max_rel_err(gb, fd_b) < 1e-4


def scalar_dataset(n, seed, independent=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, n))
    y = rng.normal(size=(1, n)) if independent else x.copy()
    return PairedDataset(x=x, y=y)


class TestTraining:
    def test_perfect_dependence_reaches_first_component(self):
        data = scalar_dataset(512, seed=100)
        f_cfg = MlpConfig((1, 16, 1), activation="tanh", init_seed=1)
        g_cfg = MlpConfig((1, 16, 1), activation="tanh", init_seed=2)
        t_cfg = TrainConfig(epochs=300, optimizer="adam", lr=0.01, seed=3)
        f_p, g_p, history = train_ca_nn(data, f_cfg, g_cfg, t_cfg)
        assert history[-1].kyfan_term >= 0.95

    def test_training_reduces_loss(self):
        data = scalar_dataset(256, seed=200)
        f_cfg = MlpConfig((1, 8, 1), activation="tanh", init_seed=4)
        g_cfg = MlpConfig((1, 8, 1), activation="tanh", init_seed=5)
        t_cfg = TrainConfig(epochs=50, optimizer="gd", lr=0.05, seed=6)
        f_p, g_p, _ = train_ca_nn(data, f_cfg, g_cfg, t_cfg)
        initial = evaluate_loss(mlp_init(f_cfg), mlp_init(g_cfg), data)
        final = evaluate_loss(f_p, g_p, data)
        assert final.loss <= initial.loss

    def test_independent_data_small_correlations(self):
        data = scalar_dataset(10_000, seed=300, independent=True)
        f_cfg = MlpConfig((1, 8, 2), activation="tanh", init_seed=7)
        g_cfg = MlpConfig((1, 8, 2), activation="tanh", init_seed=8)
        t_cfg = TrainConfig(epochs=60, optimizer="adam", lr=0.005, seed=9)
        f_p, g_p, _ = train_ca_nn(data, f_cfg, g_cfg, t_cfg)
        from capic.whitening import apply_whitening, fit_whitening

        f_out, _ = forward(f_p, data.x)
        g_out, _ = forward(g_p, data.y)
        pf = apply_whitening(fit_whitening(f_out, g_out), f_out, g_out)
        assert np.all(np.abs(pf.pic_diagonal) <= 0.15)

    def test_determinism_identical_history(self):
        data = scalar_dataset(128, seed=400)
        f_cfg = MlpConfig((1, 8, 1), init_seed=10, activation="tanh")
        g_cfg = MlpConfig((1, 8, 1), init_seed=11, activation="tanh")
        t_cfg = TrainConfig(epochs=20, batch_size=32, optimizer="adam", lr=0.01, seed=12)
        run1 = train_ca_nn(data, f_cfg, g_cfg, t_cfg)
        run2 = train_ca_nn(data, f_cfg, g_cfg, t_cfg)
        assert [r.loss for r in run1[2]] == [r.loss for r in run2[2]]
        for a, b in zip(run1[0].weights, run2[0].weights):
            assert np.array_equal(a, b)

    def test_divergence_raises_with_epoch(self):
        data = scalar_dataset(64, seed=500)
        f_cfg = MlpConfig((1, 8, 1), init_seed=13)
        g_cfg = MlpConfig((1, 8, 1), init_seed=14)
        t_cfg = TrainConfig(epochs=200, optimizer="gd", lr=1e9, seed=15)
        with pytest.raises(TrainingDivergedError) as err:
            train_ca_nn(data, f_cfg, g_cfg, t_cfg)
        assert err.value.epoch >= 0

    def test_divergence_raises_without_overflow_warning(self):
        # the setup of test_divergence_raises_with_epoch
        data = scalar_dataset(64, seed=500)
        f_cfg = MlpConfig((1, 8, 1), init_seed=13)
        g_cfg = MlpConfig((1, 8, 1), init_seed=14)
        t_cfg = TrainConfig(epochs=200, optimizer="gd", lr=1e9, seed=15)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError):
                train_ca_nn(data, f_cfg, g_cfg, t_cfg)

    def test_forward_and_backward_called_twice_per_step(self, monkeypatch):
        # The benchmark tracer counts neural.gflop from these calls: the
        # params and the batch (forward) or the StepBuffers whose .x is
        # the batch (backward).
        seen = {"forward": [], "backward": []}
        real_forward, real_backward = neural.forward, neural.backward

        def counting_forward(*args, **kwargs):
            assert isinstance(args[0], MlpParams)
            seen["forward"].append(args[1].shape[1])
            return real_forward(*args, **kwargs)

        def counting_backward(*args, **kwargs):
            assert isinstance(args[0], MlpParams)
            seen["backward"].append(args[1].x.shape[1])
            return real_backward(*args, **kwargs)

        monkeypatch.setattr(neural, "forward", counting_forward)
        monkeypatch.setattr(neural, "backward", counting_backward)
        data = scalar_dataset(100, seed=800)
        t_cfg = TrainConfig(epochs=3, batch_size=32, optimizer="adam", lr=0.01, seed=1)
        train_ca_nn(data, MlpConfig((1, 4, 1), init_seed=2), MlpConfig((1, 4, 1), init_seed=3),
                    t_cfg)
        per_epoch = [32, 32, 32, 32, 32, 32, 4, 4]  # 3 batches of 32, then one of 4
        assert seen["forward"] == per_epoch * 3
        assert seen["backward"] == per_epoch * 3

    def test_data_beyond_float32_range_rejected(self):
        data = scalar_dataset(64, seed=900)
        data.x[0, 0] = 1e39
        with pytest.raises(ContractViolationError, match="float32"):
            train_ca_nn(data, MlpConfig((1, 4, 1)), MlpConfig((1, 4, 1)), TrainConfig(epochs=1))

    @pytest.mark.parametrize("batch_size, n", [(2, 400), ("full", 2)])
    def test_batch_smaller_than_d_rejected(self, batch_size, n):
        # a batch of fewer than d samples cannot be trained: mini-batches
        # that small would all be dropped, and a full batch has no loss
        t_cfg = TrainConfig(epochs=1, batch_size=batch_size)
        with pytest.raises(ContractViolationError, match=f"n={n}, batch_size={batch_size}, d=3"):
            train_ca_nn(bsc_split(3, n), MlpConfig((3, 8, 3)), MlpConfig((3, 8, 3)), t_cfg)

    def test_output_width_mismatch_rejected(self):
        data = scalar_dataset(64, seed=600)
        with pytest.raises(ContractViolationError):
            train_ca_nn(
                data,
                MlpConfig((1, 8, 2)),
                MlpConfig((1, 8, 3)),
                TrainConfig(epochs=1),
            )


def bsc_split(n_bits, n, seed=0, delta=0.1):
    return build_dataset({"source": "bsc", "n_bits": n_bits, "delta": delta,
                          "n_samples": n, "seed": seed})


def gd_on_every_sample(data, f_cfg, g_cfg, t_cfg):
    """Full-batch GD with both nets run on all n samples of the split.

    The reference for the distinct-column encoding of ``train_ca_nn``:
    the same float32 nets, loss and update, without the gather and the
    per-column gradient sums.  Returns ``(f, g, history)`` like it.
    """
    x, y = (np.ascontiguousarray(a, dtype=np.float32) for a in data.train_arrays())
    f = mlp_init(f_cfg).astype(np.float32)
    g = mlp_init(g_cfg).astype(np.float32)
    history = []
    for _ in range(t_cfg.epochs):
        f_out, f_buffers = forward(f, x)
        g_out, g_buffers = forward(g, y)
        report = pic_loss(BatchOutputs(f_out, g_out), eps=t_cfg.loss_eps)
        backward(f, f_buffers, report.grad_f)
        backward(g, g_buffers, report.grad_g)
        f.flat -= t_cfg.lr * f_buffers.grad
        g.flat -= t_cfg.lr * g_buffers.grad
        history.append(EpochRecord(report.loss, report.kyfan_term, report.g_energy))
    return f, g, history


def forward_widths(monkeypatch):
    """Record the column count of every ``neural.forward`` call."""
    widths = []
    real_forward = neural.forward

    def spy(p, x_batch, *args, **kwargs):
        widths.append(np.shape(x_batch)[1])
        return real_forward(p, x_batch, *args, **kwargs)

    monkeypatch.setattr(neural, "forward", spy)
    return widths


def pic_loss_calls(monkeypatch):
    """Record the column count of every ``pic_loss`` call of the training loop."""
    calls = []
    real_pic_loss = neural.pic_loss

    def spy(b, *args, **kwargs):
        calls.append(b.n)
        return real_pic_loss(b, *args, **kwargs)

    monkeypatch.setattr(neural, "pic_loss", spy)
    return calls


#: Full-batch GD, 30 epochs, on 3-bit BSC or scalar gaussian data.
FULL_BATCH = (
    MlpConfig((3, 16, 3), init_seed=1),
    MlpConfig((3, 16, 3), init_seed=2),
    TrainConfig(epochs=30, optimizer="gd", lr=0.05),
)
#: float32 rounding where only the order of a sum changed: about 8 ulps
#: of float32 (eps 1.2e-7).  The runs differ by at most 6e-8 here.
FLOAT32_RTOL = 1e-6


def assert_runs_agree(run, ref):
    """Two ``(f, g, history)`` training results agree to FLOAT32_RTOL."""
    (f, g, history), (f_ref, g_ref, history_ref) = run, ref
    terms = [[(r.loss, r.kyfan_term, r.g_energy) for r in h] for h in (history, history_ref)]
    np.testing.assert_allclose(*terms, rtol=FLOAT32_RTOL)
    for a, b in ((f, f_ref), (g, g_ref)):
        np.testing.assert_allclose(a.flat, b.flat, rtol=FLOAT32_RTOL, atol=FLOAT32_RTOL)


BLOCK = neural._BLOCK


def repeated_columns(n, width, seed):
    """``n`` distinct columns, each used twice and shuffled: ``(a, codes)``."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(width, n))[:, rng.permutation(np.repeat(np.arange(n), 2))]
    return a, column_codes(a)


class TestEncode:
    # Nets at most 8 wide keep every product of these column counts under
    # OpenBLAS's small-matrix size, which the single pass and the blocks
    # then share (see encode's docstring; test_wide_layers covers 32-wide
    # layers at column counts that fill the kernel panels).
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("coded", [False, True], ids=["samples", "codes"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_is_one_forward_pass(self, n, activation, coded, dtype):
        p = mlp_init(MlpConfig((4, 8, 8, 3), activation, init_seed=5)).astype(dtype)
        if coded:
            a, codes = repeated_columns(n, 4, seed=n)
            assert codes.first.size == n
            ref = forward(p, a[:, codes.first])[0][:, codes.inverse]
        else:
            a, codes = np.random.default_rng(n).normal(size=(4, n)), None
            ref = forward(p, a)[0]
        out = encode(p, a, codes)
        assert out.dtype == dtype
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("n", [3 * BLOCK + 8, 5 * BLOCK + 1024])
    def test_wide_layers(self, n):
        p = mlp_init(MlpConfig((11, 32, 32, 3), init_seed=6))
        a = np.random.default_rng(n).normal(size=(11, n))
        assert np.array_equal(encode(p, a, None), forward(p, a)[0])

    def test_runs_fixed_blocks_the_last_taking_the_rest(self, monkeypatch):
        widths = forward_widths(monkeypatch)
        p = mlp_init(MlpConfig((2, 4, 2)))
        for n in (5, BLOCK, 2 * BLOCK, 3 * BLOCK + 5):
            encode(p, np.ones((2, n)), None)
        assert widths == [5, BLOCK, BLOCK, BLOCK, BLOCK, BLOCK, BLOCK + 5]

    def test_every_block_is_checked(self):
        p = mlp_init(MlpConfig((2, 4, 2)))
        a = np.zeros((2, 3 * BLOCK + 5))
        a[1, -1] = np.nan
        with pytest.raises(ContractViolationError, match="non-finite"):
            encode(p, a, None)
        with pytest.raises(ContractViolationError, match="input width"):
            encode(p, np.zeros((3, 2 * BLOCK)), None)

    def test_memory_beyond_the_output_does_not_grow_with_n(self, traced_peak):
        # The traced peak at 16 blocks may exceed that at 4 blocks by the
        # larger output (d * 12 blocks of float64) and 16 KiB of slack; a
        # single pass would add each hidden layer's 12 blocks as well.
        p = mlp_init(MlpConfig((4, 32, 32, 3), init_seed=7))
        peaks = []
        for n in (4 * BLOCK, 16 * BLOCK):
            a = np.random.default_rng(n).normal(size=(4, n))
            peaks.append(traced_peak(encode, p, a, None))
        assert peaks[1] - peaks[0] <= 3 * 12 * BLOCK * 8 + 16 * 1024


class TestFullBatchDistinctColumns:
    def test_tiling_the_split_leaves_training_unchanged(self):
        # the loss depends on the data only through its empirical
        # distribution, which tiling the split does not change: the pairs
        # and their scales (2c / 2n rounds as c / n) are the same, so
        # the runs are bit-identical
        data = bsc_split(3, 400)
        x, y = data.train_arrays()
        tiled = PairedDataset(x=np.tile(x, 2), y=np.tile(y, 2))
        run, ref = train_ca_nn(tiled, *FULL_BATCH), train_ca_nn(data, *FULL_BATCH)
        assert [r.loss for r in run[2]] == [r.loss for r in ref[2]]
        for a, b in zip(run[:2], ref[:2]):
            assert np.array_equal(a.flat, b.flat)

    def test_bsc_nets_see_only_distinct_columns(self, monkeypatch):
        data = bsc_split(3, 400)
        widths = forward_widths(monkeypatch)
        run = train_ca_nn(data, *FULL_BATCH)
        assert len(widths) == 2 * FULL_BATCH[2].epochs
        assert max(widths) <= 8  # 2**3 bit strings per side
        # and the result is that of running the nets on every sample
        assert_runs_agree(run, gd_on_every_sample(data, *FULL_BATCH))

    def test_all_distinct_columns_encode_every_sample(self, monkeypatch):
        data = scalar_dataset(300, seed=1000)
        cfgs = (MlpConfig((1, 16, 1), init_seed=1), MlpConfig((1, 16, 1), init_seed=2),
                FULL_BATCH[2])
        widths = forward_widths(monkeypatch)
        calls = pic_loss_calls(monkeypatch)
        run = train_ca_nn(data, *cfgs)
        assert widths == [300] * (2 * cfgs[2].epochs)
        # no pair repeats, so the loss runs unscaled on the samples
        assert calls == [300] * cfgs[2].epochs
        assert_runs_agree(run, gd_on_every_sample(data, *cfgs))

    def test_fewer_pairs_than_components_keep_the_samples(self, monkeypatch):
        # two distinct (x, y) pairs for three output components
        x = np.random.default_rng(1100).integers(0, 2, size=(1, 200)).astype(float)
        data = PairedDataset(x=x, y=x.copy())
        cfgs = (MlpConfig((1, 8, 3), init_seed=1), MlpConfig((1, 8, 3), init_seed=2),
                TrainConfig(epochs=5, optimizer="gd", lr=0.05))
        widths = forward_widths(monkeypatch)
        calls = pic_loss_calls(monkeypatch)
        run = train_ca_nn(data, *cfgs)
        assert widths == [2] * (2 * cfgs[2].epochs)
        assert calls == [200] * cfgs[2].epochs
        assert_runs_agree(run, gd_on_every_sample(data, *cfgs))

    def test_loss_columns_do_not_scale_with_n(self, monkeypatch):
        # a structural guard: the loss sees the distinct (x, y) pairs of
        # the split, 2**3 * 2**3 on BSC-3 at every n.  At delta 0.4 the
        # rarest pair has probability 0.008, and both splits hold all 64.
        for n in (400, 4000):
            calls = pic_loss_calls(monkeypatch)
            train_ca_nn(bsc_split(3, n, delta=0.4), *FULL_BATCH)
            assert calls == [64] * FULL_BATCH[2].epochs  # one call per step


    def test_columns_equal_only_in_float32_keep_their_codes(self, monkeypatch):
        # 1.0 and 1.0 + 2**-30 are one float32 value but two float64 ones.
        # The step runs them as two (equal) columns, still exactly, and
        # the float64 evaluation keeps their outputs apart.
        near_one = 1.0 + 2.0 ** -30
        assert np.float32(near_one) == np.float32(1.0)
        x, y = bsc_split(3, 400).train_arrays()
        x = x.copy()
        x[0, (x[0] == 1.0) & (np.arange(x.shape[1]) % 2 == 0)] = near_one
        data = PairedDataset(x=x, y=y)
        widths = forward_widths(monkeypatch)
        run = train_ca_nn(data, *FULL_BATCH)
        assert sorted(set(widths)) == [8, 12]  # 8 y columns, 8 + 4 x columns
        assert_runs_agree(run, gd_on_every_sample(data, *FULL_BATCH))

        model, _ = fit_ca_nn_model(data, *FULL_BATCH)
        train_pf, _ = evaluate_model(model, data)
        assert data.train_codes[0].first.size == 12
        np.testing.assert_allclose(train_pf.f, forward(model.f_params, x)[0], rtol=0, atol=1e-12)
        # two samples whose x differ only by the 2**-30
        lo = int(np.argmax((x[0] == 1.0) & (x[1] == 1.0) & (x[2] == 1.0)))
        hi = int(np.argmax((x[0] == near_one) & (x[1] == 1.0) & (x[2] == 1.0)))
        assert x[0, hi] == near_one and x[0, lo] == 1.0
        assert not np.array_equal(train_pf.f[:, lo], train_pf.f[:, hi])


class TestPrecisionContract:
    def test_trained_params_are_float64_holding_float32_values(self):
        data = scalar_dataset(128, seed=700)
        f_cfg = MlpConfig((1, 8, 1), activation="tanh", init_seed=1)
        g_cfg = MlpConfig((1, 8, 1), activation="tanh", init_seed=2)
        t_cfg = TrainConfig(epochs=10, optimizer="adam", lr=0.01, seed=3)
        f_p, g_p, _ = train_ca_nn(data, f_cfg, g_cfg, t_cfg)
        for p in (f_p, g_p):
            assert p.flat.dtype == np.float64
            assert all(a.dtype == np.float64 for a in p.weights + p.biases)
            assert np.array_equal(p.flat.astype(np.float32).astype(np.float64), p.flat)
            assert not np.array_equal(p.flat, mlp_init(p.config).flat)

    def test_bsc2_held_out_diagonal_near_oracle(self):
        # BSC-2 at delta 0.1: both principal correlations are 1 - 2*delta.
        # 0.06 is about two standard errors at 1000 held-out samples.
        data = build_dataset({"source": "bsc", "n_bits": 2, "delta": 0.1,
                              "n_samples": 3000, "n_test": 1000, "seed": 0})
        model, _ = fit_ca_nn_model(
            data,
            MlpConfig((2, 16, 2), init_seed=1),
            MlpConfig((2, 16, 2), init_seed=2),
            TrainConfig(epochs=150, optimizer="gd", lr=0.05, seed=3),
        )
        _, test_pf = evaluate_model(model, data)
        np.testing.assert_allclose(test_pf.raw_diagonal, 0.8, atol=0.06)


def adam_textbook(params, grads_per_step, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Adam written out as the formula, with fresh arrays for every term."""
    p = params.copy()
    m, v = np.zeros_like(p), np.zeros_like(p)
    for t, g in enumerate(grads_per_step, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g ** 2
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class TestLeanStepMatchesItsReferences:
    def test_gather_and_group_sum_match_their_references(self):
        data = bsc_split(3, 400)
        x, y = (np.ascontiguousarray(a, dtype=np.float32) for a in data.train_arrays())
        f, g = (mlp_init(c).astype(np.float32) for c in FULL_BATCH[:2])
        rng = np.random.default_rng(5)
        for enc in neural._full_batch_encodings(f, g, x, y, data.train_codes):
            assert enc.scale is not None  # the pair form, as on BSC-5
            out = rng.normal(size=(3, enc.columns.shape[1])).astype(np.float32)
            ref = np.take(out.astype(np.float64), enc.inverse, axis=1) * enc.scale
            assert enc.gather(out).tobytes() == ref.tobytes()
            grad = rng.normal(size=(3, enc.inverse.size))
            width = enc.columns.shape[1]
            ref = np.stack([np.bincount(enc.inverse, weights=row, minlength=width)
                            for row in grad * enc.scale])
            assert enc.group_sum(grad).tobytes() == ref.tobytes()

    def test_group_sum_of_an_unscaled_gather(self):
        # a coded y side beside an uncoded x side: the n samples, unscaled
        data = bsc_split(3, 400)
        x = np.random.default_rng(6).normal(size=(3, data.n)).astype(np.float32)
        y = np.ascontiguousarray(data.y, dtype=np.float32)
        f, g = (mlp_init(c).astype(np.float32) for c in FULL_BATCH[:2])
        codes = (None, data.train_codes[1])
        _, enc = neural._full_batch_encodings(f, g, x, y, codes)
        assert enc.scale is None and enc.inverse.size == data.n
        grad = np.random.default_rng(7).normal(size=(3, data.n))
        ref = np.stack([np.bincount(enc.inverse, weights=row, minlength=8) for row in grad])
        assert enc.group_sum(grad).tobytes() == ref.tobytes()

    def test_adam_in_place_is_the_textbook_formula(self):
        rng = np.random.default_rng(8)
        params = rng.normal(size=50).astype(np.float32)
        grads = [rng.normal(scale=10.0 ** -k, size=50).astype(np.float32) for k in range(3)]
        opt = neural._Adam(1e-3, 0.9, 0.999, 1e-8)
        p = params.copy()
        for grad in grads:
            opt.step((p,), (grad,))
        assert p.tobytes() == adam_textbook(params, grads).tobytes()

    def test_pair_form_initial_loss_is_the_sample_loss(self, monkeypatch):
        data = bsc_split(3, 4000, delta=0.3)
        f, g = (mlp_init(c) for c in FULL_BATCH[:2])
        calls = pic_loss_calls(monkeypatch)
        report = evaluate_loss(f, g, data)
        assert calls == [64]  # the loss runs on the 8 x 8 distinct pairs
        x, y = data.train_arrays()
        ref = pic_loss(BatchOutputs(forward(f, x)[0], forward(g, y)[0]))
        assert abs(report.loss - ref.loss) <= 1e-12
        assert abs(report.kyfan_term - ref.kyfan_term) <= 1e-12
        assert abs(report.g_energy - ref.g_energy) <= 1e-12
