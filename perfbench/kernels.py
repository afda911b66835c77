"""Micro-timings of the nn kernels at the shapes the workloads use.

Shapes follow the TCN defaults (16 channels, window 32, kernel 3, the
dilation-4 layer) and the controller's 15 -> 64 input layer. Training uses
batch 64; per-block inference uses batch 1. Flop and byte counts are
computed from the shapes, not measured: bytes are the minimum float64
traffic, each operand read once and each result written once.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from optiqkd import nn
from optiqkd.controller import OBS_DIM, ActorCritic, PpoConfig
from optiqkd.tcn import TcnConfig, TcnModel

B_TRAIN, C, T, K, DIL = 64, 16, 32, 3, 4
HIDDEN = 64
F64 = 8


def _median_us(case: Dict, reps: int) -> float:
    """Median per-call time of ``case["fn"]``, or of the part of each call
    that ``case["timed"]`` measures itself and returns."""
    timed = case.get("timed")
    fn = case.get("fn")
    for _ in range(3):
        (timed or fn)()
    samples = []
    for _ in range(reps):
        if timed is not None:
            samples.append(timed())
        else:
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
    return float(np.median(samples)) * 1e6


def _conv_forward(b: int, rng) -> Dict:
    x = nn.Var(rng.standard_normal((b, C, T)))
    layer = nn.Conv1dCausalLayer.create(C, C, K, DIL, rng)
    flops = 2 * b * C * C * K * T + b * C * T
    bytes_ = F64 * (b * C * T + C * C * K + C + b * C * T)
    return {"fn": lambda: nn.conv1d_causal(x, layer.kernel, layer.bias, DIL),
            "flops": flops, "bytes": bytes_}


def _conv_backward(b: int, rng) -> Dict:
    x_data = rng.standard_normal((b, C, T))
    layer = nn.Conv1dCausalLayer.create(C, C, K, DIL, rng)
    g = nn.Var(rng.standard_normal((b, C, T)))

    def one() -> float:
        loss = nn.vsum(nn.mul(nn.conv1d_causal(nn.Var(x_data), layer.kernel,
                                               layer.bias, DIL), g))
        t0 = time.perf_counter()
        nn.backward(loss)
        return time.perf_counter() - t0

    # gradient w.r.t. x and w.r.t. the kernel, plus the bias sum
    flops = 2 * (2 * b * C * C * K * T) + b * C * T
    bytes_ = F64 * (3 * b * C * T + 2 * C * C * K + C)
    return {"timed": one, "flops": flops, "bytes": bytes_}


def _dense(b: int, rng) -> Dict:
    x = nn.Var(rng.standard_normal((b, OBS_DIM)))
    layer = nn.DenseLayer.create(OBS_DIM, HIDDEN, rng)
    flops = 2 * b * OBS_DIM * HIDDEN + b * HIDDEN
    bytes_ = F64 * (b * OBS_DIM + HIDDEN * OBS_DIM + HIDDEN + b * HIDDEN)
    return {"fn": lambda: nn.dense(x, layer.w, layer.b), "flops": flops, "bytes": bytes_}


def _adam(params, rng) -> Dict:
    grads = [rng.standard_normal(p.data.shape) * 1e-3 for p in params]
    state = nn.init_adam_state(params)
    n = sum(p.data.size for p in params)
    # finiteness scan, two moment updates, bias corrections, sqrt, divide, step
    flops = 14 * n
    bytes_ = F64 * 7 * n  # read p, g, m, v; write p, m, v
    return {"fn": lambda: nn.adam_step(params, grads, state, lr=1e-6),
            "flops": flops, "bytes": bytes_}


def run_kernels(seed: int) -> Dict[str, Dict[str, float]]:
    rng = np.random.Generator(np.random.Philox(key=seed))
    tcn_params = TcnModel(TcnConfig(), rng).params()
    actor_params = ActorCritic(PpoConfig(), rng=rng).actor_params()
    cases = {
        "conv1d_causal_fwd_b64": (_conv_forward(B_TRAIN, rng), 300),
        "conv1d_causal_fwd_b1": (_conv_forward(1, rng), 2000),
        "conv1d_causal_bwd_b64": (_conv_backward(B_TRAIN, rng), 150),
        "dense_b64": (_dense(B_TRAIN, rng), 3000),
        "dense_b1": (_dense(1, rng), 5000),
        "adam_step_tcn": (_adam(tcn_params, rng), 1000),
        "adam_step_actor": (_adam(actor_params, rng), 1000),
    }
    out = {}
    for name, (case, reps) in cases.items():
        out[name] = {"us": _median_us(case, reps),
                     **{k: v for k, v in case.items() if k not in ("fn", "timed")}}
    return out
