"""Stochastic block-level simulator of the fiber link.

One block is one control interval (one simulated second). The simulator
evolves a noise schedule, applies the current control parameters, has the
protocol's sampler in ``rates.PROTOCOLS`` draw the block's detection
counts, and emits telemetry with estimator uncertainty. A
:class:`Simulator` instance owns its generator state and is confined to a
single thread; independent instances with distinct seeds run in parallel
with no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import List, NamedTuple, Tuple

import numpy as np

from .rates import PROTOCOLS, LinkParams, ProtocolConfig, transmittance

SCENARIOS = ("nominal", "noise-sweep", "splice-3db", "sine-drift")

# Composite stressor mapping for the noise-sweep scenario: a stressor
# level L splits into an irreducible depolarizing part (p = DEPOL_FRAC*L)
# and a compensable misalignment part (added intrinsic error MISALIGN_FRAC*L).
# Fractions keep the static baseline's median decoy rate positive over the
# sweep while leaving most of the damage correctable by alignment control.
DEPOL_FRACTION = 0.10
MISALIGN_FRACTION = 0.07

SWEEP_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

Z_95 = NormalDist().inv_cdf(0.975)  # two-sided 95% normal quantile

TELEMETRY_CSV_HEADER = (
    "block,n_pulses,n_sifted,n_errors,q_mu_hat,e_mu_hat,e_lo,e_hi,v_hat,eta_hat,aborted"
)


@dataclass(frozen=True)
class ChannelConfig:
    """Per-block measurement settings: pulses sent per block, the QBER above
    which a second consecutive block aborts, and the block's duration."""

    n_pulses: int = 1_000_000
    abort_qber: float = 0.11
    block_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses!r}")
        if not 0.0 < self.abort_qber <= 0.5:
            raise ValueError(f"abort_qber must be in (0, 0.5], got {self.abort_qber!r}")
        if not 0.0 < self.block_seconds < math.inf:
            raise ValueError(f"block_seconds must be finite and > 0, got {self.block_seconds!r}")


class UnknownScenarioError(ValueError):
    """Requested scenario name is not defined."""


@dataclass(frozen=True)
class ScheduleEvent:
    """A persistent loss step of ``magnitude`` dB from ``block_index`` on."""

    block_index: int
    magnitude: float


@dataclass
class NoiseSchedule:
    """Per-block noise series plus loss-step events, fully deterministic
    (a phase drift is drawn by its protocol's sampler from the run's generator)."""

    blocks: int
    depol_p: np.ndarray
    damp_gamma: np.ndarray
    misalign_err: np.ndarray
    events: List[ScheduleEvent] = field(default_factory=list)
    name: str = "custom"

    def __post_init__(self) -> None:
        for arr_name in ("depol_p", "damp_gamma", "misalign_err"):
            arr = np.asarray(getattr(self, arr_name), dtype=float)
            if arr.shape != (self.blocks,):
                raise ValueError(f"{arr_name} must have shape ({self.blocks},)")
            setattr(self, arr_name, arr)
        if np.any(self.depol_p < 0) or np.any(self.depol_p > 1):
            raise ValueError("depol_p must lie in [0, 1]")
        if np.any(self.damp_gamma < 0) or np.any(self.damp_gamma > 1):
            raise ValueError("damp_gamma must lie in [0, 1]")
        idx = [ev.block_index for ev in self.events]
        if any(not 0 <= i < self.blocks for i in idx):
            raise ValueError(f"event block indices must lie in [0, {self.blocks}), got {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("event block indices must be strictly increasing")


@dataclass(frozen=True)
class ControlState:
    """Controller-owned knob settings applied to the link for one block."""

    mu_s: float = 0.5
    mu_w: float = 0.1
    p_z: float = 0.5
    theta_c: float = 0.0
    phi_c: float = 0.0


class EffectiveParams(NamedTuple):
    """Physical parameters in force for one block after noise and control:
    transmittance, visibility, misalignment error and the depolarizing
    probability they include."""

    eta: float
    v: float
    e_d_eff: float
    depol_p: float


@dataclass
class Telemetry:
    """Observed statistics for one measurement block."""

    block_index: int
    n_pulses: int
    n_sifted: int
    n_errors: int
    q_mu_hat: float
    e_mu_hat: float
    e_lo: float
    e_hi: float
    v_hat: float
    eta_hat: float
    aborted: bool = False
    # weak-decoy observations (BB84 only; zero elsewhere)
    q_w_hat: float = 0.0
    e_w_hat: float = 0.0

    def csv_row(self) -> str:
        """One row under :data:`TELEMETRY_CSV_HEADER`."""
        stats = (self.q_mu_hat, self.e_mu_hat, self.e_lo, self.e_hi, self.v_hat, self.eta_hat)
        return (f"{self.block_index},{self.n_pulses},{self.n_sifted},{self.n_errors},"
                + ",".join(f"{x:.10g}" for x in stats) + f",{int(self.aborted)}")


def make_scenario(name: str, blocks: int) -> NoiseSchedule:
    """Build the reproducible noise schedule of a named scenario.

      nominal     constant zero added noise
      noise-sweep stressor level stepped 0.0 -> 0.5 over six equal segments;
                  each level L maps to depolarizing p = 0.10*L
                  (DEPOL_FRACTION) plus an added misalignment error 0.07*L
                  (MISALIGN_FRACTION)
      splice-3db  one 3.0 dB loss step at the midpoint block
      sine-drift  depolarizing probability and amplitude damping, each
                  0.25 + 0.20*sin(2*pi*t/24): period 24 blocks
    """
    if name not in SCENARIOS:
        raise UnknownScenarioError(f"unknown scenario {name!r}")
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    zeros = np.zeros(blocks)
    if name == "noise-sweep":
        seg = max(blocks // len(SWEEP_LEVELS), 1)
        level = np.array([SWEEP_LEVELS[min(t // seg, len(SWEEP_LEVELS) - 1)]
                          for t in range(blocks)])
        return NoiseSchedule(blocks, DEPOL_FRACTION * level, zeros, MISALIGN_FRACTION * level,
                             name=name)
    if name == "sine-drift":  # one slow driver modulating depolarization and loss alike
        wave = 0.25 + 0.20 * np.sin(2.0 * math.pi * np.arange(blocks) / 24.0)
        return NoiseSchedule(blocks, wave, wave.copy(), zeros, name=name)
    events = [ScheduleEvent(blocks // 2, 3.0)] if name == "splice-3db" else []
    return NoiseSchedule(blocks, zeros, zeros.copy(), zeros.copy(), events, name)


class LinkSeries:
    """The per-block terms of a link under a noise schedule that no control
    moves, computed once for every block: the depolarizing probability
    ``depol_p``, the transmittance ``eta`` after fiber, detector, the loss
    steps so far and amplitude damping, and the misalignment angle
    ``theta`` (sin^2(theta) is the base error plus any scheduled
    misalignment). Each is a list of Python floats."""

    def __init__(self, link: LinkParams, sched: NoiseSchedule):
        self.blocks = sched.blocks
        steps = np.zeros(sched.blocks)
        for ev in sched.events:  # an event counts from its block on
            steps[ev.block_index] = ev.magnitude
        # cumsum adds the steps in event order, as summing the events would
        loss_db = np.cumsum(steps).tolist()
        eta0 = transmittance(link)
        self.eta = [eta0 * 10.0 ** (-db / 10.0) * (1.0 - gamma)
                    for db, gamma in zip(loss_db, sched.damp_gamma.tolist())]
        self.depol_p = sched.depol_p.tolist()
        self.theta = [math.asin(math.sqrt(min(max(link.e_d + m, 0.0), 1.0)))
                      for m in sched.misalign_err.tolist()]


def effective_link(series: LinkSeries, ctrl: ControlState, t: int) -> EffectiveParams:
    """Physical parameters for block ``t`` after noise, loss steps and
    control, the same for every protocol (a sampler adds any phase drift).

    The compensation knob theta_c acts on the misalignment angle, giving
    e_d_eff = e_d + p/2 at nominal control. Amplitude damping acts as extra
    photon loss only.
    """
    if not 0 <= t < series.blocks:
        raise ValueError(f"block {t} outside schedule of length {series.blocks}")
    p = series.depol_p[t]
    theta_err = series.theta[t] - ctrl.theta_c
    v = (1.0 - p) * math.cos(theta_err) ** 2
    e_d_eff = min(max(math.sin(theta_err) ** 2 + p / 2.0, 0.0), 0.5)
    return EffectiveParams(series.eta[t], min(max(v, 0.0), 1.0), e_d_eff, p)


def wilson_interval(n_err: int, n: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n_err < 0 or n < 0 or n_err > n:
        raise ValueError("need 0 <= n_err <= n")
    if n == 0:
        return 0.0, 1.0
    p = n_err / n
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    margin = Z_95 * math.sqrt((p * (1.0 - p) + z2 / (4.0 * n)) / n) / denom
    # no errors (or no successes) puts the bound exactly at 0 (or 1);
    # center - margin would leave a rounding residue there
    lo = 0.0 if n_err == 0 else max(0.0, center - margin)
    hi = 1.0 if n_err == n else min(1.0, center + margin)
    return lo, hi


def _estimate_eta(q_hat: float, y0: float, mu: float) -> float:
    """Invert the closed-form gain for a transmittance estimate."""
    x = min(max(q_hat - y0, 0.0), 1.0 - 1e-12)
    return min(max(-math.log1p(-x) / mu, 0.0), 1.0)


class Simulator:
    """One run of the link: owns the generator, the inter-pulse phase and the
    consecutive-exceedance abort bookkeeping, and computes the run's
    :class:`LinkSeries` once.

    The protocol's ``sample`` in ``rates.PROTOCOLS`` draws each block's
    counts from this run's generator, at block level: n_sifted ~
    Binomial(n*q, Q) and n_errors ~ Binomial(n_sifted, E), which matches
    per-pulse sampling in distributionally relevant statistics (see the
    per-pulse sampler in tests/oracles.py); the step reads them the same
    way for every protocol. A block with no sifted detections reports the
    degenerate convention e_mu_hat = 0.5 with the full-width interval.
    """

    def __init__(
        self,
        link: LinkParams,
        proto: ProtocolConfig,
        sched: NoiseSchedule,
        seed: int,
        channel: ChannelConfig = ChannelConfig(),
    ):
        self.link = link
        self.proto = proto
        self.channel = channel
        self.series = LinkSeries(link, sched)
        spec = PROTOCOLS[proto.kind]
        self.key_fraction, self.sample = spec.key_fraction, spec.sample
        self.rng = np.random.Generator(np.random.Philox(key=seed))
        self.dphi = 0.0
        self.t = 0
        self._prev_exceeded = False

    def step(self, ctrl: ControlState) -> Telemetry:
        t, link, proto = self.t, self.link, self.proto
        if t >= self.series.blocks:
            raise IndexError("schedule exhausted")
        n = self.channel.n_pulses
        trials, n_sift, n_err, v_err, v_trials, mu, self.dphi, q_w_hat, e_w_hat = self.sample(
            self.rng, link, proto, ctrl, effective_link(self.series, ctrl, t), n,
            self.key_fraction(proto, ctrl.p_z), self.dphi)
        q_mu_hat = n_sift / trials if trials else 0.0
        if n_sift > 0:
            e_mu_hat = n_err / n_sift
            e_lo, e_hi = wilson_interval(n_err, n_sift)
        else:
            e_mu_hat, (e_lo, e_hi) = 0.5, (0.0, 1.0)
        e_v_hat = v_err / v_trials if v_trials > 0 else 0.5
        v_hat = min(max(1.0 - 2.0 * e_v_hat, 0.0), 1.0)

        # a second consecutive block above the threshold aborts, and the
        # session restarts after an abort
        exceeded = n_sift > 0 and e_mu_hat > self.channel.abort_qber
        aborted = exceeded and self._prev_exceeded
        self._prev_exceeded = exceeded and not aborted
        self.t = t + 1
        return Telemetry(t, n, n_sift, n_err, q_mu_hat, e_mu_hat, e_lo, e_hi, v_hat,
                         _estimate_eta(q_mu_hat, link.y0, mu), aborted, q_w_hat, e_w_hat)
