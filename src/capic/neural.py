"""Plain-numpy multilayer perceptrons and the paired-encoder training loop.

Two small MLPs (one per variable) are trained jointly under the loss in
:mod:`capic.objective`.  Everything is deterministic given the seeds in
the configs: initialization, batch order, and therefore the whole
training history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, TrainingDivergedError
from .linalg import as_matrix
from .objective import DEFAULT_EPS, BatchOutputs, pic_loss

_ACTIVATIONS = ("relu", "tanh", "identity")  # identity is a diagnostic hook


@dataclass
class MlpConfig:
    """Layer widths run input -> hidden ... -> output; output is linear."""

    layer_widths: tuple
    activation: str = "relu"
    init_seed: int = 0
    output_clip: float | None = None

    def __post_init__(self):
        self.layer_widths = tuple(int(w) for w in self.layer_widths)
        if len(self.layer_widths) < 3:
            raise ContractViolationError("need at least one hidden layer")
        if any(w < 1 for w in self.layer_widths):
            raise ContractViolationError(f"zero-width layer in {self.layer_widths}")
        if self.activation not in _ACTIVATIONS:
            raise ContractViolationError(f"unknown activation {self.activation!r}")
        if self.output_clip is not None and not self.output_clip > 0:
            raise ContractViolationError("output_clip must be > 0 when set")

    @property
    def in_width(self) -> int:
        return self.layer_widths[0]

    @property
    def out_width(self) -> int:
        return self.layer_widths[-1]


@dataclass
class MlpParams:
    config: MlpConfig
    weights: list  # per layer, shape (out, in)
    biases: list   # per layer, shape (out,)


def mlp_init(cfg: MlpConfig) -> MlpParams:
    """Seeded fan-in-scaled uniform weights, zero biases."""
    rng = np.random.default_rng(cfg.init_seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(cfg.layer_widths[:-1], cfg.layer_widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(cfg, weights, biases)


class ForwardCache(NamedTuple):
    """What :func:`backward` reads; activation derivatives come from the outputs."""

    x: np.ndarray
    hidden_post: list    # activated hidden outputs
    pass_mask: np.ndarray | None  # False where output clipping saturated


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _activate_grad(post, kind):
    """Activation derivative in terms of the activated output."""
    if kind == "relu":
        return post > 0  # max(z, 0) > 0 exactly when z > 0
    if kind == "tanh":
        return 1.0 - post ** 2
    return 1.0


def forward(p: MlpParams, x_batch):
    """Evaluate the net on a batch (columns are samples).

    Returns the d x n output and the cache consumed by
    :func:`backward`.  When ``output_clip`` is configured the output is
    hard-clipped elementwise and the saturated coordinates are recorded
    so they receive zero gradient.
    """
    x = as_matrix(x_batch, "x_batch")
    cfg = p.config
    if x.shape[0] != cfg.in_width:
        raise ContractViolationError(
            f"input width {x.shape[0]} does not match config width {cfg.in_width}"
        )
    hidden_post = []
    a = x
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        a = _activate(w @ a + b[:, None], cfg.activation)
        hidden_post.append(a)
    out = p.weights[-1] @ a + p.biases[-1][:, None]
    pass_mask = None
    if cfg.output_clip is not None:
        pass_mask = np.abs(out) <= cfg.output_clip
        out = np.clip(out, -cfg.output_clip, cfg.output_clip)
    return out, ForwardCache(x, hidden_post, pass_mask)


def backward(p: MlpParams, cache: ForwardCache, grad_out):
    """Exact reverse-mode parameter gradients for a cached forward pass."""
    grad_out = as_matrix(grad_out, "grad_out")
    cfg = p.config
    if grad_out.shape != (cfg.out_width, cache.x.shape[1]):
        raise ContractViolationError(
            f"grad_out shape {grad_out.shape} does not match output "
            f"({cfg.out_width}, {cache.x.shape[1]})"
        )
    if cache.pass_mask is not None:
        grad_out = grad_out * cache.pass_mask
    grad_w = [None] * len(p.weights)
    grad_b = [None] * len(p.biases)
    delta = grad_out
    for k in range(len(p.weights) - 1, -1, -1):
        below = cache.hidden_post[k - 1] if k > 0 else cache.x
        grad_w[k] = delta @ below.T
        grad_b[k] = delta.sum(axis=1)
        if k > 0:
            delta = p.weights[k].T @ delta
            delta = delta * _activate_grad(cache.hidden_post[k - 1], cfg.activation)
    return grad_w, grad_b


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
        self.m = None
        self.v = None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g ** 2
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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


def evaluate_loss(f_params, g_params, x, y, eps=DEFAULT_EPS):
    """Full-batch loss report for fixed parameters (no updates)."""
    f_out, _ = forward(f_params, x)
    g_out, _ = forward(g_params, y)
    return pic_loss(BatchOutputs(f_out, g_out), eps=eps)


def train_ca_nn(data, f_cfg: MlpConfig, g_cfg: MlpConfig, t_cfg: TrainConfig):
    """Train the paired encoders on a dataset's training split.

    Returns ``(f_params, g_params, history)`` where ``history`` holds one
    :class:`EpochRecord` per epoch.  Full-batch gradient descent is the
    default; with a finite ``batch_size`` the sample order is reshuffled
    each epoch from ``t_cfg.seed`` and trailing batches smaller than the
    output width are dropped (the loss needs n >= d per batch).

    Raises :class:`TrainingDivergedError` with the offending epoch index
    as soon as the loss stops being finite.
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
    f_params = mlp_init(f_cfg)
    g_params = mlp_init(g_cfg)
    opt = _make_optimizer(t_cfg)
    rng = np.random.default_rng(t_cfg.seed)
    history = []
    for epoch in range(t_cfg.epochs):
        if t_cfg.batch_size == "full":
            batches = [np.arange(n)]
        else:
            order = rng.permutation(n)
            size = int(t_cfg.batch_size)
            batches = [order[i:i + size] for i in range(0, n, size)]
            batches = [b for b in batches if b.size >= d]
        sums = np.zeros(3)
        for idx in batches:
            f_out, f_cache = forward(f_params, x[:, idx])
            g_out, g_cache = forward(g_params, y[:, idx])
            if not (np.all(np.isfinite(f_out)) and np.all(np.isfinite(g_out))):
                raise TrainingDivergedError(
                    f"non-finite encoder outputs at epoch {epoch}", epoch=epoch
                )
            try:
                with np.errstate(over="ignore"):
                    report = pic_loss(BatchOutputs(f_out, g_out), eps=t_cfg.loss_eps)
            except ContractViolationError as exc:
                # finite outputs whose covariances overflow are divergence too
                raise TrainingDivergedError(
                    f"loss computation failed at epoch {epoch}: {exc}", epoch=epoch
                ) from exc
            if not np.isfinite(report.loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}", epoch=epoch
                )
            gw_f, gb_f = backward(f_params, f_cache, report.grad_f)
            gw_g, gb_g = backward(g_params, g_cache, report.grad_g)
            opt.step(
                f_params.weights + f_params.biases + g_params.weights + g_params.biases,
                gw_f + gb_f + gw_g + gb_g,
            )
            sums += (report.loss, report.kyfan_term, report.g_energy)
        k = len(batches)
        history.append(EpochRecord(sums[0] / k, sums[1] / k, sums[2] / k))
    return f_params, g_params, history
