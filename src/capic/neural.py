"""Plain-numpy multilayer perceptrons and the paired-encoder training loop.

Two small MLPs (one per variable) are trained jointly under the loss in
:mod:`capic.objective`.  Everything is deterministic given the seeds in
the configs: initialization, batch order, and therefore the whole
training history.

Precision: :func:`train_ca_nn` trains in float32.  It casts both nets
and the training split to float32 once, and the encoder passes of each
step write their activations, deltas and gradients into
:class:`StepBuffers` reused from step to step instead of allocating
them.  The loss stays float64: :class:`~capic.objective.BatchOutputs`
upcasts the d x n outputs, so covariances and eigendecompositions run
in float64.  The trained weights come back as float64 copies;
whitening, evaluation and the saved model run in float64 on those.

Full-batch encoding: a full-batch step takes the loss over the distinct
(x, y) pairs of the training split (at most 1024 pairs on BSC-5,
against 15000 samples), and runs each net once per distinct column of
its side (the dataset's column codes, see :mod:`capic.datasets`).  A
pair that stands for c of the n samples has its f and g outputs scaled
by ``sqrt(P * c / n)``, P the number of pairs, so the plain ``1/P`` loss
of :mod:`capic.objective` on the P scaled columns is the n-sample loss.
That is exact because every term of the loss is an uncentered second
moment of the output columns (``C_f``, ``C_fg``, the g-energy); a
centered statistic would need true weights.  The gradient at a pair's
unscaled outputs is its scaled columns' gradient times the same
factor, and the pairs' output gradients are summed per column before
:func:`backward`.  That is the exact gradient of the n-sample loss:
the hidden deltas are linear in the output delta, so summing first
changes only rounding, and nothing in the step scales with n.  When no
pair repeats or there are fewer pairs than output components, the loss
runs unscaled on the n samples, gathered from each side's distinct
columns.  Mini-batches keep the plain per-sample path: a batch of 64
holds few repeats, and the fixed per-step cost of the gather and the
sums outweighs the smaller products.

Forward-only passes: :func:`encode`, the pass of a net over a whole
split (or any other many columns) that trains nothing, runs the net
over its distinct columns in fixed blocks of ``_BLOCK`` columns, the
last block taking the rest, and writes each block's outputs into one
d x n array.  Its memory beyond that output is a few blocks'
activations, whatever n is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .datasets import ColumnCodes
from .errors import ContractViolationError, TrainingDivergedError
from .linalg import as_matrix
from .objective import DEFAULT_EPS, BatchOutputs, pic_loss

_ACTIVATIONS = ("relu", "tanh", "identity")  # identity is a diagnostic hook
# encode's block width: 512 KB per 32-wide float64 layer, and a power of two, so whole BLAS panels
_BLOCK = 2048


@dataclass
class MlpConfig:
    """Layer widths run input -> hidden ... -> output; output is linear."""

    layer_widths: tuple
    activation: str = "relu"
    init_seed: int = 0

    def __post_init__(self):
        self.layer_widths = tuple(int(w) for w in self.layer_widths)
        if len(self.layer_widths) < 3:
            raise ContractViolationError("need at least one hidden layer")
        if any(w < 1 for w in self.layer_widths):
            raise ContractViolationError(f"zero-width layer in {self.layer_widths}")
        if self.activation not in _ACTIVATIONS:
            raise ContractViolationError(f"unknown activation {self.activation!r}")

    @property
    def in_width(self) -> int:
        return self.layer_widths[0]

    @property
    def out_width(self) -> int:
        return self.layer_widths[-1]


def _param_shapes(cfg: MlpConfig) -> list:
    """Shapes of the weights, then of the biases, layer by layer."""
    pairs = list(zip(cfg.layer_widths[:-1], cfg.layer_widths[1:]))
    return [(fan_out, fan_in) for fan_in, fan_out in pairs] + [(fan_out,) for _, fan_out in pairs]


def _param_views(flat: np.ndarray, cfg: MlpConfig):
    """``(weights, biases)``: lists of views into a flat parameter-sized vector."""
    views = []
    start = 0
    for shape in _param_shapes(cfg):
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    layers = len(cfg.layer_widths) - 1
    return views[:layers], views[layers:]


@dataclass
class MlpParams:
    """The parameters of one net, stored in one flat vector.

    ``weights[k]`` (shape ``(out, in)``) and ``biases[k]`` (shape
    ``(out,)``) are views into ``flat``, so updating ``flat`` in place
    updates every layer.  The constructor copies the given arrays into
    ``flat``, which is float32 when they all fit in it and float64
    otherwise.
    """

    config: MlpConfig
    weights: list
    biases: list
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrays = [np.asarray(a) for a in (*self.weights, *self.biases)]
        expected = _param_shapes(self.config)
        if [a.shape for a in arrays] != expected:
            raise ContractViolationError(
                f"parameter shapes {[a.shape for a in arrays]} do not match "
                f"the config's {expected}"
            )
        self.flat = np.concatenate(
            [a.ravel() for a in arrays], dtype=np.result_type(np.float32, *arrays)
        )
        self.weights, self.biases = _param_views(self.flat, self.config)

    def astype(self, dtype) -> MlpParams:
        """A copy of the parameters in ``dtype``."""
        return MlpParams(
            self.config,
            [w.astype(dtype) for w in self.weights],
            [b.astype(dtype) for b in self.biases],
        )


def mlp_init(cfg: MlpConfig) -> MlpParams:
    """Seeded fan-in-scaled uniform weights, zero biases (float64)."""
    rng = np.random.default_rng(cfg.init_seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(cfg.layer_widths[:-1], cfg.layer_widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(cfg, weights, biases)


class StepBuffers:
    """Work arrays of one net at one batch width, in the params' dtype.

    :func:`forward` writes the hidden activations and the output here,
    and keeps the batch it ran on (in the params' dtype) as ``x``, the
    input of :func:`backward`'s first layer.  The first :func:`backward`
    pass adds what it writes (see :meth:`for_backward`), so a
    forward-only pass allocates just its activations.  Each pass through
    the same buffers overwrites the previous one's results.
    """

    def __init__(self, p: MlpParams, n: int):
        cfg = p.config
        dtype = p.flat.dtype
        self.hidden = [np.empty((w, n), dtype) for w in cfg.layer_widths[1:-1]]
        self.out = np.empty((cfg.out_width, n), dtype)
        self.x = None
        self.grad = None

    def for_backward(self, p: MlpParams) -> StepBuffers:
        """Make the backward arrays on first use; returns ``self``.

        ``deltas[k]`` is the gradient at layer k's output, ``act_grad``
        holds the activation derivatives (relu: a bool mask), ``grad`` is
        laid out like :attr:`MlpParams.flat` with ``grad_w``/``grad_b``
        views into it.
        """
        if self.grad is None:
            cfg = p.config
            n = self.out.shape[1]
            dtype = self.out.dtype
            act_dtype = bool if cfg.activation == "relu" else dtype
            self.deltas = [np.empty((w, n), dtype) for w in cfg.layer_widths[1:]]
            self.act_grad = [np.empty((w, n), act_dtype) for w in cfg.layer_widths[1:-1]]
            self.ones = np.ones(n, dtype)
            self.grad = np.empty_like(p.flat)
            self.grad_w, self.grad_b = _param_views(self.grad, cfg)
        return self


class _Encoding(NamedTuple):
    """What one step feeds a net: the input columns and their buffers.

    ``inverse`` maps the loss's columns (samples or pairs) to the input
    columns (loss column ``i`` is input column ``inverse[i]``), or is
    None when the input columns are the loss's.  Each loss column is
    multiplied by its ``scale`` when that is not None (the pair scale,
    see the module docstring).  ``bins`` is ``inverse`` per output row,
    offset by the row times the number of input columns: the flat bin
    of each gradient entry.
    """

    columns: np.ndarray
    buffers: StepBuffers
    inverse: np.ndarray | None = None
    scale: np.ndarray | None = None
    bins: np.ndarray | None = None

    def gather(self, out):
        """The loss's outputs, from the outputs of the input columns."""
        if self.inverse is None:
            return out
        gathered = np.take(out, self.inverse, axis=1)
        # float32 times float64 casts first: the float64 outputs, scaled
        return gathered if self.scale is None else gathered * self.scale

    def group_sum(self, grad):
        """The gradient at the input columns: the loss columns' gradients summed per column."""
        if self.inverse is None:
            return grad
        if self.scale is not None:
            grad = grad * self.scale
        # each bin sums its entries in row-major order, as a bincount per row would
        shape = (grad.shape[0], self.columns.shape[1])
        sums = np.bincount(self.bins, weights=grad.ravel(), minlength=math.prod(shape))
        return sums.reshape(shape)


def encode(p: MlpParams, a, codes: ColumnCodes | None) -> np.ndarray:
    """The net's outputs on the columns of ``a`` (d x n), as ``forward(p, a)[0]`` gives them.

    With ``codes`` the net runs once per distinct column and the outputs
    are gathered back to the columns.  The columns run through
    :func:`forward` in blocks of ``_BLOCK``, the last one taking the
    remaining fewer than ``_BLOCK`` with it, so the memory beyond the
    output does not grow with n, and :func:`forward` checks the width
    and finiteness of every block.  The blocks give the bytes of a
    single pass as long as the BLAS gives a column the same bits in a
    product of any width.  OpenBLAS does for whole kernel panels, and
    ``_BLOCK`` is a multiple of the panel width; when the column count
    is not, the last few columns can differ in the last bit where the
    single product and the last block fall on either side of OpenBLAS's
    small-matrix size.
    """
    cols = a if codes is None else np.take(a, codes.first, axis=1)
    n = cols.shape[1]
    out = np.empty((p.config.out_width, n), p.flat.dtype)
    starts = range(0, max(n - _BLOCK, 0) + 1, _BLOCK)
    buffers = None
    for start, stop in zip(starts, [*starts[1:], n]):
        if buffers is None or buffers.out.shape[1] != stop - start:
            buffers = None  # the last block's arrays replace the others', not join them
            buffers = StepBuffers(p, stop - start)
        out[:, start:stop] = forward(p, cols[:, start:stop], buffers)[0]
    return out if codes is None else np.take(out, codes.inverse, axis=1)


def _side_encoding(p: MlpParams, a, codes: ColumnCodes | None, inverse, scale) -> _Encoding:
    """Encode the samples ``a`` through their distinct columns (all of them without codes).

    ``inverse`` maps the loss's columns to the distinct ones, and
    ``scale`` (or None) scales the loss's columns.
    """
    if codes is None:
        return _Encoding(a, StepBuffers(p, a.shape[1]))
    d, width = p.config.out_width, codes.first.size
    bins = (np.arange(d)[:, None] * width + inverse).ravel()
    return _Encoding(a[:, codes.first], StepBuffers(p, width), inverse, scale, bins)


def _full_batch_encodings(f: MlpParams, g: MlpParams, x, y, codes):
    """``(f_enc, g_enc)`` for a full-batch step on the split ``(x, y)``.

    ``codes`` are the split's ``(x, y)`` :class:`~capic.datasets.ColumnCodes`.
    The loss runs on the distinct (x, y) pairs, scaled by the square
    root of P times their counts over n, or unscaled on the n samples
    when no pair repeats or there are fewer pairs than output components.
    """
    n = x.shape[1]
    x_codes, y_codes = codes
    x_inv, y_inv = (None if c is None else c.inverse for c in codes)
    scale = None
    if x_codes is not None and y_codes is not None:
        width = y_codes.first.size
        pairs, counts = np.unique(x_inv * width + y_inv, return_counts=True)
        if f.config.out_width <= pairs.size < n:
            x_inv, y_inv = np.divmod(pairs, width)
            # the integer product first, so that c / n and 2c / 2n round alike
            scale = np.sqrt(pairs.size * counts / n)
    return _side_encoding(f, x, x_codes, x_inv, scale), _side_encoding(g, y, y_codes, y_inv, scale)


def _activate(z, kind):
    """Apply the activation to ``z`` in place."""
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    elif kind == "tanh":
        np.tanh(z, out=z)


def _backprop_activation(delta, post, kind, work):
    """Multiply ``delta`` in place by the activation derivative at ``post``.

    The derivative is read off the activated output ``post``, with
    ``work`` to hold it: for relu the bool mask ``post > 0``
    (``max(z, 0) > 0`` exactly when ``z > 0``).
    """
    if kind == "relu":
        delta *= np.greater(post, 0, out=work)
    elif kind == "tanh":
        np.square(post, out=work)
        np.subtract(1.0, work, out=work)
        delta *= work


def forward(p: MlpParams, x_batch, buffers: StepBuffers | None = None):
    """Evaluate the net on a batch (columns are samples).

    Returns the d x n output and the filled :class:`StepBuffers`, which
    :func:`backward` takes.  The output layer is linear, so an affine
    map of the output folds into its weights and bias (see
    :func:`capic.model.fit_ca_nn_model`).  The batch is taken in the
    params' dtype, and activations and output are written into
    ``buffers`` (fresh ones when None), so the output is overwritten by
    the next pass through the same buffers.
    """
    x = as_matrix(x_batch, "x_batch", dtype=p.flat.dtype)
    cfg = p.config
    if x.shape[0] != cfg.in_width:
        raise ContractViolationError(
            f"input width {x.shape[0]} does not match config width {cfg.in_width}"
        )
    bufs = StepBuffers(p, x.shape[1]) if buffers is None else buffers
    if bufs.out.shape[1] != x.shape[1]:
        raise ContractViolationError(
            f"buffers hold {bufs.out.shape[1]} samples, the batch has {x.shape[1]}"
        )
    bufs.x = a = x
    for w, b, h in zip(p.weights[:-1], p.biases[:-1], bufs.hidden):
        np.matmul(w, a, out=h)
        h += b[:, None]
        _activate(h, cfg.activation)
        a = h
    out = np.matmul(p.weights[-1], a, out=bufs.out)
    out += p.biases[-1][:, None]
    return out, bufs


def backward(p: MlpParams, buffers: StepBuffers, grad_out):
    """Exact reverse-mode parameter gradients for the forward pass that filled ``buffers``.

    Activation derivatives come from the activated outputs in
    ``buffers.hidden``.  ``grad_out`` is cast to the params' dtype.
    Returns ``(grad_w, grad_b)``, views into ``buffers.grad``.
    """
    cfg = p.config
    bufs = buffers.for_backward(p)
    delta = bufs.deltas[-1]
    grad_out = np.asarray(grad_out)
    if grad_out.shape != delta.shape:
        raise ContractViolationError(
            f"grad_out shape {grad_out.shape} does not match output {delta.shape}"
        )
    np.copyto(delta, grad_out)
    as_matrix(delta, "grad_out", dtype=delta.dtype)
    for k in range(len(p.weights) - 1, -1, -1):
        below = bufs.hidden[k - 1] if k > 0 else bufs.x
        np.matmul(delta, below.T, out=bufs.grad_w[k])
        # a product, like the weight gradient: faster than a float32 row sum
        np.matmul(delta, bufs.ones, out=bufs.grad_b[k])
        if k > 0:
            delta = np.matmul(p.weights[k].T, delta, out=bufs.deltas[k - 1])
            _backprop_activation(delta, bufs.hidden[k - 1], cfg.activation, bufs.act_grad[k - 1])
    return bufs.grad_w, bufs.grad_b


@dataclass
class TrainConfig:
    epochs: int
    batch_size: object = "full"  # int or "full"
    optimizer: str = "gd"        # "gd" or "adam"
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    loss_eps: float = DEFAULT_EPS
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractViolationError("epochs must be >= 1")
        if not self.lr > 0:
            raise ContractViolationError("learning rate must be > 0")
        if self.optimizer not in ("gd", "adam"):
            raise ContractViolationError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size != "full" and int(self.batch_size) < 1:
            raise ContractViolationError("batch_size must be 'full' or a positive int")


class _Gd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for p, g in zip(params, grads):
            p -= self.lr * g


class _Adam:
    def __init__(self, lr, beta1, beta2, eps):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = self.v = self.work = None

    def step(self, params, grads):
        """One Adam update of each of ``params``, in place.

        ``m = b1 m + (1-b1) g``, ``v = b2 v + (1-b2) g^2`` and ``p -= lr
        m_hat / (sqrt(v_hat) + eps)``: the formula's operations in its
        order, into two work arrays per parameter vector, so the result
        is the formula's bit for bit.
        """
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
            self.work = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v, self.work):
            m *= b1
            m += np.multiply(1 - b1, g, out=a)
            v *= b2
            np.square(g, out=a)
            v += np.multiply(1 - b2, a, out=a)
            np.divide(m, c1, out=a)
            a *= self.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a


def _make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return _Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    return _Gd(cfg.lr)


@dataclass
class EpochRecord:
    """Per-epoch loss summary (means over the epoch's batches)."""

    loss: float
    kyfan_term: float
    g_energy: float


def evaluate_loss(f_params, g_params, data, eps=DEFAULT_EPS):
    """Full-batch loss report of fixed nets on a dataset's training split (no updates).

    The loss is taken as a full-batch step takes it, in the nets' dtype:
    over the scaled distinct (x, y) pairs when the split's pairs repeat,
    otherwise over the n samples, gathered from each side's distinct
    columns (see the module docstring).  The pair form is the n-sample
    loss up to rounding.
    """
    x, y = data.train_arrays()
    f_enc, g_enc = _full_batch_encodings(f_params, g_params, x, y, data.train_codes)
    f_out = forward(f_params, f_enc.columns, f_enc.buffers)[0]
    g_out = forward(g_params, g_enc.columns, g_enc.buffers)[0]
    return pic_loss(BatchOutputs(f_enc.gather(f_out), g_enc.gather(g_out)), eps=eps)


def train_ca_nn(data, f_cfg: MlpConfig, g_cfg: MlpConfig, t_cfg: TrainConfig):
    """Train the paired encoders on a dataset's training split.

    Returns ``(f_params, g_params, history)`` where ``history`` holds one
    :class:`EpochRecord` per epoch.  Full-batch gradient descent is the
    default; with a finite ``batch_size`` the sample order is reshuffled
    each epoch from ``t_cfg.seed`` and trailing batches smaller than the
    output width are dropped (the loss needs n >= d per batch).  A split
    or a ``batch_size`` smaller than the output width raises
    :class:`ContractViolationError`, since no batch could be trained.

    Training runs in float32 (see the module docstring); the returned
    params are float64 copies of the trained float32 values.  A
    full-batch step encodes each distinct input column once (the
    dataset's column codes) and takes the loss over the distinct (x, y)
    pairs, scaled by their counts, with the exact gradient of the
    n-sample loss; mini-batch steps encode every sample of the batch.

    Raises :class:`TrainingDivergedError` with the offending epoch index
    as soon as the encoder outputs, the loss or the gradients stop being
    finite.
    """
    x, y = data.train_arrays()
    n = x.shape[1]
    if n == 0:
        raise ContractViolationError("dataset has no training samples")
    if f_cfg.out_width != g_cfg.out_width:
        raise ContractViolationError(
            f"encoder output widths differ: {f_cfg.out_width} vs {g_cfg.out_width}"
        )
    if f_cfg.in_width != x.shape[0] or g_cfg.in_width != y.shape[0]:
        raise ContractViolationError("encoder input widths do not match the dataset")
    d = f_cfg.out_width
    batch = n if t_cfg.batch_size == "full" else int(t_cfg.batch_size)
    if min(n, batch) < d:
        raise ContractViolationError(
            f"need min(n, batch_size) >= d to train: n={n}, batch_size={t_cfg.batch_size}, d={d}"
        )
    f = mlp_init(f_cfg).astype(np.float32)
    g = mlp_init(g_cfg).astype(np.float32)
    with np.errstate(over="ignore"):
        x = np.ascontiguousarray(x, dtype=np.float32)
        y = np.ascontiguousarray(y, dtype=np.float32)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ContractViolationError("training data exceeds the float32 range")
    if t_cfg.batch_size == "full":
        f_full, g_full = _full_batch_encodings(f, g, x, y, data.train_codes)
    f_pool, g_pool = {}, {}  # mini-batch width -> StepBuffers
    opt = _make_optimizer(t_cfg)
    rng = np.random.default_rng(t_cfg.seed)
    history = []
    for epoch in range(t_cfg.epochs):
        if t_cfg.batch_size == "full":
            batches = [None]
        else:
            order = rng.permutation(n)
            size = int(t_cfg.batch_size)
            batches = [order[i:i + size] for i in range(0, n, size)]
            batches = [b for b in batches if b.size >= d]
        sums = np.zeros(3)
        for idx in batches:
            if idx is None:
                f_enc, g_enc = f_full, g_full
            else:
                width = idx.size
                if width not in f_pool:
                    f_pool[width] = StepBuffers(f, width)
                    g_pool[width] = StepBuffers(g, width)
                f_enc = _Encoding(np.take(x, idx, axis=1), f_pool[width])
                g_enc = _Encoding(np.take(y, idx, axis=1), g_pool[width])
            # float32 overflows sooner; the checks below turn it into divergence
            with np.errstate(over="ignore"):
                f_out = forward(f, f_enc.columns, f_enc.buffers)[0]
                g_out = forward(g, g_enc.columns, g_enc.buffers)[0]
                try:
                    outputs = BatchOutputs(f_enc.gather(f_out), g_enc.gather(g_out))
                    report = pic_loss(outputs, eps=t_cfg.loss_eps)
                    if not np.isfinite(report.loss):
                        raise TrainingDivergedError(
                            f"non-finite loss at epoch {epoch}", epoch=epoch
                        )
                    backward(f, f_enc.buffers, f_enc.group_sum(report.grad_f))
                    backward(g, g_enc.buffers, g_enc.group_sum(report.grad_g))
                except ContractViolationError as exc:
                    # BatchOutputs rejects non-finite outputs; finite ones whose
                    # covariances or gradients overflow are divergence too
                    raise TrainingDivergedError(
                        f"loss or gradient computation failed at epoch {epoch}: {exc}",
                        epoch=epoch,
                    ) from exc
                opt.step((f.flat, g.flat), (f_enc.buffers.grad, g_enc.buffers.grad))
            sums += (report.loss, report.kyfan_term, report.g_energy)
        k = len(batches)
        history.append(EpochRecord(sums[0] / k, sums[1] / k, sums[2] / k))
    return f.astype(np.float64), g.astype(np.float64), history
