"""Minimal numeric kit shared by the forecaster and controller.

The layers hold each parameter as a :class:`Var` leaf, whose ``data``
array the models read and :class:`Adam` updates in place. The models'
training steps run on plain arrays with gradients derived by hand: the
forecaster's convolutions over the head's dependency cone in ``tcn``, the
controller's dense layers in ``controller``. Nothing in the package builds
a graph.

The define-by-run graph remains for the gradient checks and the
benchmark's kernel timings: every op returns a :class:`Var` that records
its parents and the local gradient rule, and :func:`backward` on a scalar
loss fills ``.grad`` on every reachable node that needs one. Its conv node
:func:`conv1d_causal` is the full-window dilated causal convolution, built
from three array functions that serve it alone: the im2col forward
:func:`conv1d_forward` and its gradients :func:`conv1d_grad_x` and
:func:`conv1d_grad_kernel`. A leaf made by
:func:`const` needs no gradient, and neither does an op whose inputs are
all such leaves: an op records only the parents that need a gradient, so
``backward`` never runs the closures of the others and their ``grad``
stays ``None``. A plain ``Var(x)`` leaf gets a gradient; the operator
sugar promotes a bare number or array to a :func:`const`.

:class:`Adam` keeps its first and second moments as one flat vector each
over the concatenated parameters, in parameter order; :func:`adam_step`
updates them with one vectorized pass and writes each parameter's slice
back in place. A model instance (parameters, optimizer state) belongs to
one thread at a time; there is no global state.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class DivergenceError(RuntimeError):
    """Training diverged: a loss or a gradient became non-finite."""


class GraphStateError(RuntimeError):
    """Backward called twice on one graph, or on an unready graph."""


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Var:
    """Node in the computation graph: value plus gradient accumulator.

    An op node keeps only the ``parents`` that need a gradient, and needs
    one itself only if it kept any; a leaf needs one unless built with
    ``needs_grad=False`` (see :func:`const`).
    """

    __slots__ = ("data", "grad", "needs_grad", "_parents", "_done")

    def __init__(self, data, parents: Sequence[Tuple["Var", Callable]] = (),
                 needs_grad: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        if parents:
            parents = [pf for pf in parents if pf[0].needs_grad]
            needs_grad = bool(parents)
        self.needs_grad = needs_grad
        self._parents = parents
        self._done = False

    def __repr__(self) -> str:
        return f"Var(shape={self.data.shape}, leaf={not self._parents})"

    # -- operator sugar (constants are promoted) ------------------------
    def __add__(self, other):
        return add(self, _as_var(other))

    def __sub__(self, other):
        return add(self, neg(_as_var(other)))

    def __mul__(self, other):
        return mul(self, _as_var(other))


def const(x) -> Var:
    """A leaf that needs no gradient: ``backward`` never reaches it."""
    return Var(x, needs_grad=False)


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else const(x)


def backward(loss: Var) -> None:
    """Reverse-mode sweep from a scalar loss; fills ``grad`` on all nodes."""
    if loss.data.size != 1:
        raise GraphStateError("backward requires a scalar loss node")
    if loss._done:
        raise GraphStateError("backward already ran on this graph; run forward again")
    if not loss._parents:
        raise GraphStateError(
            "backward before forward: loss is not computed from a node that needs a gradient")
    topo: List[Var] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            stack.append((parent, False))
    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    # a first contribution may alias a child's grad or be read-only: add out of place
    for node in reversed(topo):
        for parent, fn in node._parents:
            g = _unbroadcast(np.asarray(fn(node.grad)), parent.data.shape)
            parent.grad = g if parent.grad is None else parent.grad + g
    loss._done = True


# -- elementwise and reduction ops --------------------------------------

def add(a: Var, b: Var) -> Var:
    return Var(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def neg(a: Var) -> Var:
    return Var(-a.data, [(a, lambda g: -g)])


def mul(a: Var, b: Var) -> Var:
    return Var(a.data * b.data, [(a, lambda g: g * b.data), (b, lambda g: g * a.data)])


def relu(a: Var) -> Var:
    mask = a.data > 0
    return Var(np.maximum(a.data, 0.0), [(a, lambda g: g * mask)])


def square(a: Var) -> Var:
    return Var(a.data * a.data, [(a, lambda g: g * 2.0 * a.data)])


def vsum(a: Var, axis=None) -> Var:
    out = a.data.sum(axis=axis)

    def bw(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape)
        return np.broadcast_to(np.expand_dims(g, axis), a.data.shape)

    return Var(out, [(a, bw)])


def vmean(a: Var, axis=None) -> Var:
    n = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis)

    def bw(g):
        if axis is None:
            return np.broadcast_to(g / n, a.data.shape)
        return np.broadcast_to(np.expand_dims(g, axis), a.data.shape) / n

    return Var(out, [(a, bw)])


def index(a: Var, idx) -> Var:
    """``a[idx]`` for a basic index (integers and slices), which reads each
    element at most once, so the gradient is assigned, not accumulated."""
    def bw(g):
        out = np.zeros_like(a.data)
        out[idx] = g
        return out

    return Var(a.data[idx], [(a, bw)])


# -- layer ops -----------------------------------------------------------

def dense(x: Var, w: Var, b: Var) -> Var:
    """Affine map: x (B, n_in) with w (n_out, n_in), b (n_out,)."""
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"dense shape mismatch: x {x.data.shape} vs w {w.data.shape}")
    out = x.data @ w.data.T + b.data
    return Var(out, [
        (x, lambda g: g @ w.data),
        (w, lambda g: g.T @ x.data),
        (b, lambda g: g.sum(axis=0)),
    ])


def flat_kernel(kernel: np.ndarray) -> np.ndarray:
    """A conv kernel (C_out, C_in, k) as W (C_out, k*C_in), column
    ``i*C_in + c`` being ``kernel[:, c, i]``: the weights of input channel
    c delayed by i taps. :func:`conv1d_forward` and
    :meth:`Conv1dCausalLayer.frozen_step` both read this layout."""
    n_out, n_in, k = kernel.shape
    return kernel.transpose(0, 2, 1).reshape(n_out, k * n_in)


def conv1d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                   dilation: int = 1) -> np.ndarray:
    """Dilated causal 1-D convolution with left zero-padding, on arrays.

    x: (B, C_in, T), kernel: (C_out, C_in, k), bias: (C_out,).
    Output (B, C_out, T); the value at time t depends only on inputs
    at times <= t.

    Computed as im2col + GEMM: the columns cols (B, k*C_in, T) stack the
    k delayed copies of x, row ``i*C_in + c`` being channel c delayed by
    ``i*dilation`` (zeros before t = 0), and the output is ``W @ cols``
    with W the :func:`flat_kernel`. :func:`conv1d_grad_x` and
    :func:`conv1d_grad_kernel` are its two gradients.
    """
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    if x.ndim != 3:
        raise ValueError("conv input must be (batch, channels, time)")
    _, n_in, k = kernel.shape
    if x.shape[1] != n_in:
        raise ValueError(
            f"conv channel mismatch: input has {x.shape[1]}, kernel wants {n_in}")
    b_sz, _, t_len = x.shape
    cols = np.empty((b_sz, k, n_in, t_len))
    for i in range(k):  # each tap zero-fills only the steps before its shift
        shift = min(i * dilation, t_len)
        cols[:, i, :, :shift] = 0.0
        cols[:, i, :, shift:] = x[:, :, :t_len - shift]
    out = flat_kernel(kernel) @ cols.reshape(b_sz, k * n_in, t_len)
    out += bias[None, :, None]
    return out


def conv1d_grad_x(kernel: np.ndarray, g: np.ndarray, dilation: int) -> np.ndarray:
    """Gradient of :func:`conv1d_forward` w.r.t. x for the upstream ``g``
    (B, C_out, T): one matmul per tap, broadcast over the batch, tap i
    adding ``kernel[:, :, i].T @ g[:, :, s:]`` at times ``:T-s``, with
    s = ``i*dilation``."""
    t_len = g.shape[2]
    gx = kernel[:, :, 0].T @ g
    for i in range(1, kernel.shape[2]):
        shift = i * dilation
        if shift < t_len:
            gx[:, :, :t_len - shift] += kernel[:, :, i].T @ g[:, :, shift:]
    return gx


def conv1d_grad_kernel(x: np.ndarray, g: np.ndarray, k: int, dilation: int) -> np.ndarray:
    """Gradient of :func:`conv1d_forward` w.r.t. its (C_out, C_in, k)
    kernel for the input ``x`` and upstream ``g``: tap i gets
    ``sum_b g_b[:, s:] @ x_b[:, :T-s].T``, one matmul per batch entry
    summed over the batch, with s = ``i*dilation``."""
    t_len = x.shape[2]
    gk = np.zeros((g.shape[1], x.shape[1], k))
    for i in range(k):
        shift = i * dilation
        if shift < t_len:
            taps = np.matmul(g[:, :, shift:], x[:, :, :t_len - shift].transpose(0, 2, 1))
            gk[:, :, i] = taps.sum(axis=0)
    return gk


def conv1d_causal(x: Var, kernel: Var, bias: Var, dilation: int = 1) -> Var:
    """:func:`conv1d_forward` as a graph node, whose gradients are
    :func:`conv1d_grad_x` and :func:`conv1d_grad_kernel`. The graph keeps
    only x, not the im2col columns."""
    out = conv1d_forward(x.data, kernel.data, bias.data, dilation)
    x_data, k = x.data, kernel.data.shape[2]
    return Var(out, [
        (x, lambda g: conv1d_grad_x(kernel.data, g, dilation)),
        (kernel, lambda g: conv1d_grad_kernel(x_data, g, k, dilation)),
        (bias, lambda g: g.sum(axis=0).sum(axis=1)),
    ])


# -- parameter containers ------------------------------------------------

def kaiming_uniform(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    limit = math.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-limit, limit, size=shape)


class DenseLayer:
    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = Var(w)
        self.b = Var(b)

    @classmethod
    def create(cls, n_in: int, n_out: int, rng: np.random.Generator) -> "DenseLayer":
        return cls(kaiming_uniform((n_out, n_in), n_in, rng), np.zeros(n_out))

    def __call__(self, x: Var) -> Var:
        return dense(x, self.w, self.b)

    def named(self, prefix: str) -> Dict[str, Var]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class Conv1dCausalLayer:
    def __init__(self, kernel: np.ndarray, bias: np.ndarray, dilation: int = 1):
        self.kernel = Var(kernel)
        self.bias = Var(bias)
        self.dilation = dilation

    @classmethod
    def create(cls, n_in: int, n_out: int, k: int, dilation: int,
               rng: np.random.Generator) -> "Conv1dCausalLayer":
        return cls(kaiming_uniform((n_out, n_in, k), n_in * k, rng),
                   np.zeros(n_out), dilation)

    @property
    def span(self) -> int:
        """How many past inputs, the current one included, one output reads."""
        return (self.kernel.data.shape[2] - 1) * self.dilation + 1

    def __call__(self, x: Var) -> Var:
        return conv1d_causal(x, self.kernel, self.bias, self.dilation)

    def frozen_step(self) -> Callable[[Sequence[np.ndarray]], np.ndarray]:
        """A function giving the newest output column (C_out,) from the
        layer's last ``span`` inputs, as a plain array: no graph is built.
        It holds a copy of the kernel, flattened once by :func:`flat_kernel`,
        and of the bias, so a later update of the layer is not seen.

        Its argument holds one (C_in,) input per step, oldest first (a
        (span, C_in) array or a deque of vectors); tap i reads
        ``hist[-1 - i*dilation]``, so the taps stack in the flat kernel's
        column order."""
        w, bias, span = flat_kernel(self.kernel.data).copy(), self.bias.data.copy(), self.span
        taps = [-1 - i * self.dilation for i in range(self.kernel.data.shape[2])]

        def step(hist: Sequence[np.ndarray]) -> np.ndarray:
            if len(hist) != span:
                raise ValueError(f"step needs the last {span} inputs, got {len(hist)}")
            return w @ np.concatenate([hist[i] for i in taps]) + bias

        return step

    def named(self, prefix: str) -> Dict[str, Var]:
        return {f"{prefix}.kernel": self.kernel, f"{prefix}.bias": self.bias}


# -- optimizer -----------------------------------------------------------

def init_adam_state(params: Sequence[Var]) -> Dict:
    """Adam moments ``m`` and ``v``, one flat vector each over all
    ``params`` in order, and the step count ``t``."""
    n = sum(p.data.size for p in params)
    return {"m": np.zeros(n), "v": np.zeros(n), "t": 0}


def adam_step(
    params: Sequence[Var],
    grads: Sequence[np.ndarray],
    state: Dict,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> Sequence[Var]:
    """Adaptive-moment update with bias correction, applied in place.

    The gradients are concatenated in parameter order and updated with
    the flat moments of :func:`init_adam_state` in one vectorized pass;
    each parameter then takes its slice of the step. Rejects the whole
    step (raising :class:`DivergenceError`) if any gradient entry
    is not finite, leaving parameters and ``state`` untouched.
    """
    g = np.concatenate([np.ravel(x) for x in grads])
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradient; step rejected")
    state["t"] += 1
    t = state["t"]
    m, v = state["m"], state["v"]
    m += (1.0 - beta1) * (g - m)
    v += (1.0 - beta2) * (g * g - v)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    step = lr * m_hat / (np.sqrt(v_hat) + eps)
    start = 0
    for p in params:
        p.data -= step[start:start + p.data.size].reshape(p.data.shape)
        start += p.data.size
    return params


class Adam:
    def __init__(self, params: Sequence[Var], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.state = init_adam_state(self.params)

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """One update from ``grads``, one per parameter, in order."""
        adam_step(self.params, grads, self.state, self.lr, self.beta1,
                  self.beta2, self.eps)


# -- checkpoint format ---------------------------------------------------

def save_checkpoint(path: str, arrays: Dict[str, np.ndarray], meta: Optional[dict] = None) -> None:
    """Structured text checkpoint: per-array shape metadata plus row-major
    values at full precision (value-exact round trip)."""
    doc = {
        "format": "optiqkd-checkpoint-v1",
        "meta": meta or {},
        "arrays": [
            {
                "name": name,
                "shape": list(np.asarray(arr).shape),
                "data": [float(x) for x in np.asarray(arr, dtype=np.float64).ravel()],
            }
            for name, arr in arrays.items()
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], dict]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "optiqkd-checkpoint-v1":
        raise ValueError(f"not a recognized checkpoint file: {path}")
    arrays = {
        entry["name"]: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for entry in doc["arrays"]
    }
    return arrays, doc.get("meta", {})


def as_int(val: Any, what: str) -> int:
    """``val`` as an int if it is an integral number or a string of one, else
    a :class:`ValueError` naming ``what``; config int keys and checkpoint
    sizes share this rule, so a fraction is refused, never truncated."""
    try:
        if isinstance(val, bool) or (isinstance(val, float) and not val.is_integer()):
            raise TypeError
        return int(val)
    except (TypeError, ValueError):
        raise ValueError(f"{what} needs an integer, got {val!r}") from None


def meta_int(path: str, meta: dict, key: str, many: bool = False) -> Any:
    """Checkpoint ``path``'s metadata entry ``key`` by :func:`as_int`, or
    with ``many`` a list of them as a tuple; a missing entry is refused."""
    what = f"checkpoint {path} metadata {key!r}"
    if key not in meta:
        raise ValueError(f"{what} is missing")
    if not many:
        return as_int(meta[key], what)
    if not isinstance(meta[key], list):
        raise ValueError(f"{what} needs a list of integers, got {meta[key]!r}")
    return tuple(as_int(v, what) for v in meta[key])


def set_params(params: Dict[str, Var], arrays: Dict[str, np.ndarray]) -> None:
    """Set each named parameter from checkpoint ``arrays``.

    Every name is checked before any is set: an array that is missing, has
    another shape than its parameter, or names no parameter raises
    :class:`ValueError` naming it.
    """
    problems = [f"missing array {name!r}" for name in params if name not in arrays]
    problems += [f"array {name!r} has shape {np.shape(arrays[name])}, expected {p.data.shape}"
                 for name, p in params.items()
                 if name in arrays and np.shape(arrays[name]) != p.data.shape]
    problems += [f"unexpected array {name!r}" for name in arrays if name not in params]
    if problems:
        raise ValueError("checkpoint does not fit the model: " + "; ".join(problems))
    for name, p in params.items():
        p.data = arrays[name]
