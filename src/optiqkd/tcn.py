"""Dilated-causal residual convolution network forecasting the channel state.

The network reads a fixed-length window of normalized telemetry features
and predicts the next block's normalized feature vector.
:meth:`TcnModel.forward` runs a batch of windows on plain arrays
(:func:`tcn_forward` and :func:`dataset_mse` call it), and each training
step follows it with gradients derived by hand into ``nn.Adam``, bitwise
equal to the ``nn`` graph of the same loss, which ``tests/oracles.py``
keeps. The closed loop's :class:`Forecaster` streams instead: each block
advances every conv layer by one step, which gives the same forecast
because a config's window is never shorter than its receptive field.
Inference is read-only on the parameters; training mutates parameters and
is single-threaded per model instance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .channel import Telemetry

FEATURES = ("q_mu", "e_mu", "v", "eta")


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


class TcnModel:
    """Stack of {dilated causal conv -> ReLU -> residual add} blocks with a
    linear head reading the final time step.

    ``named`` maps each parameter's checkpoint name to its ``Var``, in
    checkpoint order; ``params``, ``state_arrays`` and ``load_tcn`` read it.
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

    def params(self) -> List[nn.Var]:
        return list(self.named.values())

    def forward(self, windows: np.ndarray,
                tape: Optional[List[np.ndarray]] = None) -> np.ndarray:
        """Predictions (B, F) from normalized windows (B, W, F), on plain
        arrays. A ``tape`` list receives each layer's input and relu mask in
        turn, then the top layer's output: what :func:`_gradients` reads."""
        h = np.transpose(windows, (0, 2, 1))  # (B, F, W)
        for conv, proj in zip(self.convs, self.projs):
            c = nn.conv1d_forward(h, conv.kernel.data, conv.bias.data, conv.dilation)
            skip = h if proj is None else nn.conv1d_forward(h, proj.kernel.data, proj.bias.data)
            if tape is not None:
                tape += [h, c > 0]
            h = np.maximum(c, 0.0) + skip
        if tape is not None:
            tape.append(h)
        return h[:, :, -1] @ self.head.w.data.T + self.head.b.data

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


def make_dataset(features: np.ndarray, window: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Slice a (T, F) feature matrix into (window, next-row) training pairs."""
    features = np.asarray(features, dtype=float)
    return [(features[t - window:t], features[t]) for t in range(window, features.shape[0])]


def persistence_mse(dataset: Sequence[Tuple[np.ndarray, np.ndarray]],
                    normalizer: Normalizer) -> float:
    """Mean squared error of the repeat-last-row baseline (normalized units)."""
    windows, targets = _stacked(dataset)
    diff = normalizer.normalize(targets) - normalizer.normalize(windows[:, -1])
    return float(np.mean(np.mean(diff**2, axis=1)))


def _stacked(dataset: Sequence[Tuple[np.ndarray, np.ndarray]]) -> Tuple[np.ndarray, np.ndarray]:
    """A dataset as one (N, W, F) window array and one (N, F) target array."""
    return np.stack([w for w, _ in dataset]), np.stack([t for _, t in dataset])


def dataset_mse(dataset: Sequence[Tuple[np.ndarray, np.ndarray]], model: TcnModel) -> float:
    """Mean over windows of each window's mean squared forecast error
    (normalized units), evaluated ``cfg.batch_size`` windows at a time."""
    windows, targets = map(model.normalizer.normalize, _stacked(dataset))
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

    Every operation is the one the ``nn`` graph of the same forward runs
    (``tests/oracles.py`` keeps it), so the gradients are the graph's to
    the bit. The input windows need no gradient: layer 0 and its
    projection skip their x-gradients.
    """
    hs, masks = tape[0::2], tape[1::2]
    top = hs[-1]
    grads = {"head.w": g.T @ top[:, :, -1], "head.b": g.sum(axis=0)}
    g_h = np.zeros_like(top)
    g_h[:, :, -1] = g @ model.head.w.data
    for i in reversed(range(len(model.convs))):
        conv, proj, x = model.convs[i], model.projs[i], hs[i]
        g_c = g_h * masks[i]
        grads[f"conv{i}.kernel"] = nn.conv1d_grad_kernel(x, g_c, model.cfg.kernel, conv.dilation)
        grads[f"conv{i}.bias"] = g_c.sum(axis=0).sum(axis=1)
        if proj is not None:
            grads[f"proj{i}.kernel"] = nn.conv1d_grad_kernel(x, g_h, 1, 1)
            grads[f"proj{i}.bias"] = g_h.sum(axis=0).sum(axis=1)
        if i > 0:  # only layer 0 projects: above it the skip passes g_h on
            g_h = nn.conv1d_grad_x(conv.kernel.data, g_c, conv.dilation) + g_h
    return [grads[name] for name in model.named]


def tcn_train(
    dataset: Sequence[Tuple[np.ndarray, np.ndarray]],
    cfg: TcnConfig,
    rng: np.random.Generator,
    epochs: Optional[int] = None,
    lr: Optional[float] = None,
    model: Optional[TcnModel] = None,
) -> Tuple[TcnModel, List[float]]:
    """Minimize mean squared forecast error; returns per-epoch mean losses.

    Each minibatch step runs :meth:`TcnModel.forward` with a tape, the mean
    squared error and its gradient, then :func:`_gradients` and one Adam
    step. The normalizer is calibrated from the full training corpus and
    frozen before the first update, so the observation scaling seen
    downstream is stable. Aborts with :class:`nn.DivergenceError` if the
    loss goes non-finite.
    """
    if len(dataset) < 1:
        raise ValueError("empty training dataset")
    epochs = cfg.epochs if epochs is None else epochs
    lr = cfg.lr if lr is None else lr
    windows, targets = _stacked(dataset)
    if model is None:
        corpus = np.concatenate([windows.reshape(-1, windows.shape[2]), targets])
        model = TcnModel(cfg, rng, Normalizer.calibrate(corpus))
    params = model.params()
    opt = nn.Adam(params, lr=lr)
    windows, targets = map(model.normalizer.normalize, (windows, targets))
    curve: List[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(dataset))
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
    dataset: Sequence[Tuple[np.ndarray, np.ndarray]],
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
        self.calls = 0  # counts model-backed forecasts, for isolation checks

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
