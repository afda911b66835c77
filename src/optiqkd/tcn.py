"""Dilated-causal residual convolution network forecasting the channel state.

The network reads a fixed-length window of normalized telemetry features
and predicts the next block's normalized feature vector. The head reads
only the top layer's last step, so :meth:`TcnModel.forward` computes only
that step's dependency cone (:func:`dependency_cone`): with the default
kernel 3 and dilations 1, 2, 4, 8 the layers keep 15, 7, 3 and 1 of the
window's 32 steps. It runs a batch of windows on plain arrays, one gathered
GEMM per conv (:func:`tcn_forward` and :func:`dataset_mse` call it), and
each training step follows it with gradients derived by hand into
``nn.Adam``. ``tests/oracles.py`` keeps the full-window ``nn`` graph of the
same loss, which agrees up to rounding. The closed loop's
:class:`Forecaster` streams instead: each block advances every conv layer
by one step, which gives the same forecast because a config's window is
never shorter than its receptive field. Inference is read-only on the
parameters; training mutates parameters and is single-threaded per model
instance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import nn
from .channel import Telemetry

FEATURES = ("q_mu", "e_mu", "v", "eta")
Dataset = Tuple[np.ndarray, np.ndarray]  # windows (N, W, F), targets (N, F)


@dataclass
class TcnConfig:
    """One conv layer per entry of ``dilations``."""

    dilations: Tuple[int, ...] = (1, 2, 4, 8)
    kernel: int = 3
    hidden: int = 16
    window: int = 32
    lr: float = 3e-3
    epochs: int = 60
    batch_size: int = 64

    def __post_init__(self) -> None:
        if not self.dilations:
            raise ValueError("dilations must name at least one layer")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.kernel < 1 or any(d < 1 for d in self.dilations):
            raise ValueError("kernel and dilations must be >= 1")
        if self.window < self.receptive_field:
            raise ValueError(
                f"window ({self.window}) must be >= the receptive field "
                f"({self.receptive_field}); a shorter window would cut taps off")
        for name in ("hidden", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")

    @property
    def receptive_field(self) -> int:
        return 1 + (self.kernel - 1) * sum(self.dilations)


class Normalizer:
    """Frozen per-feature affine scaling (z-score)."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=float)
        self.std = np.where(np.asarray(std, dtype=float) > 1e-12, std, 1.0)

    @classmethod
    def identity(cls, n_features: int) -> "Normalizer":
        return cls(np.zeros(n_features), np.ones(n_features))

    @classmethod
    def calibrate(cls, data: np.ndarray) -> "Normalizer":
        data = np.asarray(data, dtype=float)
        return cls(data.mean(axis=0), data.std(axis=0))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def denormalize(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) * self.std + self.mean


def telemetry_features(telem: Telemetry) -> np.ndarray:
    return np.array([telem.q_mu_hat, telem.e_mu_hat, telem.v_hat, telem.eta_hat])


def dependency_cone(cfg: TcnConfig) -> List[np.ndarray]:
    """The steps each conv layer must compute for the head, as one index
    table (k, n_l) per layer, bottom layer first.

    The head reads the top layer's step ``window - 1``; layer l keeps the
    n_l steps its layer above reads, and its output step t reads its input
    at ``t - i*d_l`` for tap i. Entry [i, j] of table l is the position of
    that input step for the j-th kept step among the steps layer l-1 keeps
    (the input keeps the whole window), so row 0 locates the kept steps
    themselves, which the residual skip reads. A window no shorter than
    the receptive field keeps every step at or after 0, so the cone needs
    no padding.
    """
    steps = np.array([cfg.window - 1])
    tables = []
    for layer in reversed(range(len(cfg.dilations))):
        reads = steps - cfg.dilations[layer] * np.arange(cfg.kernel)[:, None]
        steps = np.array(sorted(set(reads.flat))) if layer else np.arange(cfg.window)
        tables.append(np.searchsorted(steps, reads))
    return tables[::-1]


def _scatter_matrix(idx: np.ndarray, n_in: int) -> np.ndarray:
    """The 0/1 matrix (n_in, k*n) whose product with a layer's gradient
    columns, tap-major as (k*n, ...), adds column ``t*n + j`` into input
    position ``idx[t, j]``: the transpose of the gather by ``idx``."""
    matrix = np.zeros((n_in, idx.size))
    matrix[idx.ravel(), np.arange(idx.size)] = 1.0
    return matrix


class TcnModel:
    """Stack of {dilated causal conv -> ReLU -> residual add} blocks with a
    linear head reading the final time step.

    ``named`` maps each parameter's checkpoint name to its ``Var``, in
    checkpoint order; ``params``, ``state_arrays`` and ``load_tcn`` read it.
    ``cone`` holds the :func:`dependency_cone` tables, one per conv layer,
    and ``scatter`` the 0/1 matrices that route the x-gradients of layers
    1 and up back through them.
    """

    def __init__(self, cfg: TcnConfig, rng: np.random.Generator,
                 normalizer: Optional[Normalizer] = None):
        self.cfg = cfg
        n_feat = len(FEATURES)
        self.normalizer = normalizer or Normalizer.identity(n_feat)
        self.convs: List[nn.Conv1dCausalLayer] = []
        self.projs: List[Optional[nn.Conv1dCausalLayer]] = []
        self.named: Dict[str, nn.Var] = {}
        c_in = n_feat
        for i, d in enumerate(cfg.dilations):
            conv = nn.Conv1dCausalLayer.create(c_in, cfg.hidden, cfg.kernel, d, rng)
            self.named.update(conv.named(f"conv{i}"))
            proj = None
            if c_in != cfg.hidden:
                proj = nn.Conv1dCausalLayer.create(c_in, cfg.hidden, 1, 1, rng)
                self.named.update(proj.named(f"proj{i}"))
            self.convs.append(conv)
            self.projs.append(proj)
            c_in = cfg.hidden
        self.head = nn.DenseLayer.create(cfg.hidden, n_feat, rng)
        self.named.update(self.head.named("head"))
        self.cone = dependency_cone(cfg)
        self.scatter = [_scatter_matrix(idx, below.shape[1])
                        for below, idx in zip(self.cone, self.cone[1:])]

    def params(self) -> List[nn.Var]:
        return list(self.named.values())

    def forward(self, windows: np.ndarray,
                tape: Optional[List[np.ndarray]] = None) -> np.ndarray:
        """Predictions (B, F) from normalized windows (B, W, F), on plain
        arrays, over the dependency cone only.

        Hidden states are channel-first and batch-last, (C, n, B) over a
        layer's n kept steps. Each conv gathers its k taps through its
        ``cone`` table into columns (C_in*k, n*B), one ``np.take`` whose
        result needs no transpose: row ``c*k + i`` is channel c at tap i,
        the order of the kernel's own (C_out, C_in, k) layout, so one GEMM
        with the kernel reshaped to (C_out, C_in*k) computes the conv. The
        skip, or the projection, reads tap 0 (rows ``::k``). A ``tape``
        list receives each layer's columns and relu mask in turn, then the
        top layer's output (C, B): what :func:`_gradients` reads."""
        k, b_sz = self.cfg.kernel, windows.shape[0]
        h = np.transpose(windows, (2, 1, 0))  # (F, W, B)
        for conv, proj, idx in zip(self.convs, self.projs, self.cone):
            cols = np.take(h, idx, axis=1).reshape(h.shape[0] * k, -1)
            kernel = conv.kernel.data
            c = kernel.reshape(len(kernel), -1) @ cols + conv.bias.data[:, None]
            skip = cols[::k]
            if proj is not None:
                skip = proj.kernel.data[:, :, 0] @ skip + proj.bias.data[:, None]
            if tape is not None:
                tape += [cols, c > 0]
            h = (np.maximum(c, 0.0) + skip).reshape(len(kernel), -1, b_sz)
        if tape is not None:
            tape.append(h[:, 0])
        return h[:, 0].T @ self.head.w.data.T + self.head.b.data

    def state_arrays(self) -> Dict[str, np.ndarray]:
        arrays = {name: p.data for name, p in self.named.items()}
        arrays["norm.mean"] = self.normalizer.mean
        arrays["norm.std"] = self.normalizer.std
        return arrays


def tcn_forward(window: np.ndarray, model: TcnModel) -> np.ndarray:
    """Normalized next-block prediction (F,) from the last ``cfg.window``
    rows of a normalized (W, F) feature window."""
    window = np.asarray(window, dtype=float)
    w = model.cfg.window
    if window.ndim != 2 or window.shape[0] < w or window.shape[1] != len(FEATURES):
        raise ValueError(f"window must be at least ({w}, {len(FEATURES)})")
    return model.forward(window[None, -w:, :])[0]


def make_dataset(features: np.ndarray, window: int) -> Dataset:
    """A (T, F) feature matrix as one pair of fresh arrays: windows (N,
    window, F) with ``windows[i] = features[i:i+window]`` and their next
    rows, targets (N, F) with ``targets[i] = features[i+window]``, N = T -
    window. A stack (S, T, F) of S series gives each series' pairs in turn,
    so no window spans two series. Raises ``ValueError`` when T <= window."""
    features = np.asarray(features, dtype=float)
    windows = sliding_window_view(features[..., :-1, :], window, axis=-2).swapaxes(-1, -2)
    return (windows.copy().reshape(-1, window, features.shape[-1]),
            features[..., window:, :].copy().reshape(-1, features.shape[-1]))


def _nonempty(dataset: Dataset) -> Dataset:
    if len(dataset[0]) < 1:  # the windows, not the pair
        raise ValueError("empty training dataset")
    return dataset


def persistence_mse(dataset: Dataset, normalizer: Normalizer) -> float:
    """Mean squared error of the repeat-last-row baseline (normalized units)."""
    windows, targets = _nonempty(dataset)
    diff = normalizer.normalize(targets) - normalizer.normalize(windows[:, -1])
    return float(np.mean(np.mean(diff**2, axis=1)))


def dataset_mse(dataset: Dataset, model: TcnModel) -> float:
    """Mean over windows of each window's mean squared forecast error
    (normalized units), evaluated ``cfg.batch_size`` windows at a time."""
    windows, targets = map(model.normalizer.normalize, _nonempty(dataset))
    errs = []
    for start in range(0, len(windows), model.cfg.batch_size):
        sl = slice(start, start + model.cfg.batch_size)
        diff = targets[sl] - model.forward(windows[sl])
        errs.append(np.mean(diff**2, axis=1))
    return float(np.mean(np.concatenate(errs)))


def _gradients(model: TcnModel, tape: List[np.ndarray], g: np.ndarray) -> List[np.ndarray]:
    """Gradients of the loss w.r.t. every parameter, in ``model.named``
    order, from its gradient ``g`` (B, F) at the predictions and the
    ``tape`` of :meth:`TcnModel.forward`.

    Gradients are (C, n*B) over each layer's kept steps, mirroring the
    forward: a conv's kernel gradient is one GEMM ``g_c @ cols.T`` and its
    bias gradient one sum. Its x-gradient columns, the reshaped kernel's
    transpose times ``g_c`` plus ``g_h`` at the skip's tap 0, go back to
    the input steps through the layer's ``scatter`` matrix, the transpose
    of its cone gather, in one batched product. Steps outside the cone get
    no gradient, as in the full-window graph (``tests/oracles.py``), which
    the gradients equal up to rounding.
    The input windows need no gradient: layer 0 and its projection skip
    their x-gradients.
    """
    cols, masks = tape[0:-1:2], tape[1:-1:2]
    k, b_sz = model.cfg.kernel, g.shape[0]
    grads = {"head.w": g.T @ tape[-1].T, "head.b": g.sum(axis=0)}
    g_h = (g @ model.head.w.data).T  # (C, 1*B)
    for i in reversed(range(len(model.convs))):
        kernel, proj = model.convs[i].kernel.data, model.projs[i]
        g_c = g_h * masks[i]
        grads[f"conv{i}.kernel"] = (g_c @ cols[i].T).reshape(kernel.shape)
        grads[f"conv{i}.bias"] = g_c.sum(axis=1)
        if proj is not None:
            grads[f"proj{i}.kernel"] = (g_h @ cols[i][::k].T)[:, :, None]
            grads[f"proj{i}.bias"] = g_h.sum(axis=1)
        if i > 0:  # only layer 0 projects: above it the skip passes g_h on
            g_cols = kernel.reshape(len(kernel), -1).T @ g_c
            g_cols[::k] += g_h
            g_x = np.matmul(model.scatter[i - 1], g_cols.reshape(kernel.shape[1], -1, b_sz))
            g_h = g_x.reshape(kernel.shape[1], -1)
    return [grads[name] for name in model.named]


def tcn_train(
    dataset: Dataset,
    cfg: TcnConfig,
    rng: np.random.Generator,
    epochs: Optional[int] = None,
    lr: Optional[float] = None,
    model: Optional[TcnModel] = None,
) -> Tuple[TcnModel, List[float]]:
    """Minimize mean squared forecast error over a (windows, targets) pair
    holding a window or more; returns the model and per-epoch mean losses.

    Each minibatch step runs :meth:`TcnModel.forward` with a tape, the mean
    squared error and its gradient, then :func:`_gradients` and one Adam
    step. The normalizer is calibrated from the full training corpus and
    frozen before the first update, so the observation scaling seen
    downstream is stable. Raises :class:`nn.DivergenceError` before the
    first step if a normalized window or target holds a non-finite value,
    whether or not the prediction reads it, and aborts with it if the loss
    goes non-finite.
    """
    windows, targets = _nonempty(dataset)
    epochs = cfg.epochs if epochs is None else epochs
    lr = cfg.lr if lr is None else lr
    if model is None:
        corpus = np.concatenate([windows.reshape(-1, windows.shape[2]), targets])
        model = TcnModel(cfg, rng, Normalizer.calibrate(corpus))
    params = model.params()
    opt = nn.Adam(params, lr=lr)
    windows, targets = map(model.normalizer.normalize, (windows, targets))
    if not (np.isfinite(windows).all() and np.isfinite(targets).all()):
        raise nn.DivergenceError(
            "forecaster training diverged: a normalized window or target is not finite")
    curve: List[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(windows))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            tape: List[np.ndarray] = []
            diff = model.forward(windows[sel], tape) + (-targets[sel])
            loss = (diff * diff).mean()
            if not np.isfinite(loss):
                raise nn.DivergenceError("forecaster training diverged")
            opt.step(_gradients(model, tape, (1.0 / diff.size) * 2.0 * diff))
            losses.append(float(loss))
        curve.append(float(np.mean(losses)))
    return model, curve


def train_forecaster(
    dataset: Dataset,
    cfg: TcnConfig,
    rng: np.random.Generator,
) -> Tuple[TcnModel, List[float]]:
    """Two-stage fit: full rate then a fine-tune pass at lr/6."""
    model, curve = tcn_train(dataset, cfg, rng)
    model, tail = tcn_train(dataset, cfg, rng, epochs=cfg.epochs,
                            lr=cfg.lr / 6.0, model=model)
    return model, curve + tail


class Forecaster:
    """Streaming one-step forecaster over the normalized telemetry rows.

    Each conv layer keeps a zero-initialised queue of its last ``span``
    inputs (Fast WaveNet; Paine et al. 2016, arXiv:1611.09482). ``push``
    normalizes one block's features once and advances every layer by one
    step, so a block costs one new column per layer; ``forecast`` applies
    the head to the newest hidden vector. Because ``window`` is at least
    the receptive field, this equals :func:`tcn_forward` over the last
    ``window`` rows, up to rounding. ``forecast`` repeats the last row
    (persistence) until ``window`` rows have been pushed.

    The forecaster copies the model's weights when it is built, each conv
    kernel flattened once (:meth:`nn.Conv1dCausalLayer.frozen_step`), and
    does not see a later update of the model.
    """

    def __init__(self, model: TcnModel):
        self.model = model
        self.steps = [(conv.frozen_step(), proj.frozen_step() if proj is not None else None)
                      for conv, proj in zip(model.convs, model.projs)]
        self.queues: List[deque[np.ndarray]] = [
            deque([np.zeros(conv.kernel.data.shape[1])] * conv.span, maxlen=conv.span)
            for conv in model.convs]
        self.head_w, self.head_b = model.head.w.data.copy(), model.head.b.data.copy()
        self.pushed = 0
        self.last: Optional[np.ndarray] = None  # newest normalized row
        self.hidden: Optional[np.ndarray] = None  # newest top-layer column
        self.calls = 0  # counts model-backed forecasts

    def push(self, features: np.ndarray) -> np.ndarray:
        h = self.last = self.model.normalizer.normalize(features)
        for (conv, proj), queue in zip(self.steps, self.queues):
            queue.append(h)
            h = np.maximum(conv(queue), 0.0) + (proj((h,)) if proj is not None else h)
        self.hidden = h
        self.pushed += 1
        return self.last

    def forecast(self) -> np.ndarray:
        if self.pushed < self.model.cfg.window:
            return self.last
        self.calls += 1
        return self.head_w @ self.hidden + self.head_b


def save_tcn(path: str, model: TcnModel) -> None:
    meta = {
        "kind": "tcn",
        "dilations": list(model.cfg.dilations),
        "kernel": model.cfg.kernel,
        "hidden": model.cfg.hidden,
        "window": model.cfg.window,
        "features": list(FEATURES),
    }
    nn.save_checkpoint(path, model.state_arrays(), meta)


def load_tcn(path: str) -> TcnModel:
    """The model a :func:`save_tcn` checkpoint holds; the ``layers`` entry of
    older checkpoints, always ``len(dilations)``, is not read. A checkpoint
    trained on other features than :data:`FEATURES`, or with a size missing,
    fractional or out of :class:`TcnConfig`'s range, is refused naming the file."""
    arrays, meta = nn.load_checkpoint(path)
    features = meta.get("features")
    if features != list(FEATURES):
        raise ValueError(f"checkpoint {path} has features {features}, not {list(FEATURES)}")
    sizes = {key: nn.meta_int(path, meta, key) for key in ("kernel", "hidden", "window")}
    dilations = nn.meta_int(path, meta, "dilations", many=True)
    try:
        cfg = TcnConfig(dilations=dilations, **sizes)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    model = TcnModel(cfg, np.random.Generator(np.random.Philox(key=0)))
    norm = {"norm.mean": nn.Var(model.normalizer.mean), "norm.std": nn.Var(model.normalizer.std)}
    nn.set_params({**model.named, **norm}, arrays)
    model.normalizer = Normalizer(norm["norm.mean"].data, norm["norm.std"].data)
    return model
