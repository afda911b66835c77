"""Stochastic block-level simulator of the fiber link.

One block is one control interval (one simulated second). The simulator
evolves a noise schedule, applies the current control parameters, samples
detection counts at block level, and emits telemetry with estimator
uncertainty. A :class:`Simulator` instance owns its generator state and is
confined to a single thread; independent instances with distinct seeds run
in parallel with no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple, Union

import numpy as np

from .rates import (PROTOCOLS, LinkParams, ProtocolConfig, bb84_gains, cow_visibility,
                    transmittance)

EVENT_KINDS = ("StepLossDb", "StepDepol", "StepDarkCounts", "VisibilityDip")

# Composite stressor mapping for the noise-sweep scenario: a stressor
# level L splits into an irreducible depolarizing part (p = DEPOL_FRAC*L)
# and a compensable misalignment part (added intrinsic error MISALIGN_FRAC*L).
# Fractions keep the static baseline's median decoy rate positive over the
# sweep while leaving most of the damage correctable by alignment control.
DEPOL_FRACTION = 0.10
MISALIGN_FRACTION = 0.07

SWEEP_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

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
    block_index: int
    kind: str
    magnitude: float

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class PhaseDriftParams:
    """Bounded mean-reverting random walk for the inter-pulse phase."""

    reversion: float = 0.05
    step_scale: float = 0.05
    bound: float = math.pi


@dataclass
class NoiseSchedule:
    """Per-block noise series plus discrete events, fully deterministic
    apart from the phase-drift process (which the simulator evolves from
    its own seeded generator)."""

    blocks: int
    depol_p: np.ndarray
    damp_gamma: np.ndarray
    misalign_err: np.ndarray
    level: np.ndarray
    phase: PhaseDriftParams = field(default_factory=PhaseDriftParams)
    events: List[ScheduleEvent] = field(default_factory=list)
    name: str = "custom"

    def __post_init__(self) -> None:
        for arr_name in ("depol_p", "damp_gamma", "misalign_err", "level"):
            arr = np.asarray(getattr(self, arr_name), dtype=float)
            if arr.shape != (self.blocks,):
                raise ValueError(f"{arr_name} must have shape ({self.blocks},)")
            setattr(self, arr_name, arr)
        if np.any(self.depol_p < 0) or np.any(self.depol_p > 1):
            raise ValueError("depol_p must lie in [0, 1]")
        if np.any(self.damp_gamma < 0) or np.any(self.damp_gamma > 1):
            raise ValueError("damp_gamma must lie in [0, 1]")
        idx = [ev.block_index for ev in self.events]
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


@dataclass(frozen=True)
class EffectiveParams:
    """Physical parameters in force for one block after noise and control."""

    eta: float
    v: float
    e_d_eff: float
    y0: float
    e_ph: float = 0.0


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
    y0_hat: float
    eta_hat: float
    aborted: bool = False
    # weak-decoy observations (BB84 only; zero elsewhere)
    q_w_hat: float = 0.0
    e_w_hat: float = 0.0

    def csv_row(self) -> str:
        fields = [
            str(self.block_index),
            str(self.n_pulses),
            str(self.n_sifted),
            str(self.n_errors),
        ]
        fields += [f"{x:.10g}" for x in (self.q_mu_hat, self.e_mu_hat, self.e_lo,
                                         self.e_hi, self.v_hat, self.eta_hat)]
        fields.append(str(int(self.aborted)))
        return ",".join(fields)


def _const(blocks: int, value: float) -> np.ndarray:
    return np.full(blocks, float(value))


def make_scenario(spec: Union[str, dict], blocks: int) -> NoiseSchedule:
    """Build a reproducible noise schedule from a name or a descriptor dict.

    Named scenarios:
      nominal     constant zero added noise
      noise-sweep stressor level stepped 0.0 -> 0.5 over six equal segments;
                  each level L maps to depolarizing p = 0.10*L
                  (DEPOL_FRACTION) plus an added misalignment error 0.07*L
                  (MISALIGN_FRACTION)
      splice-3db  one 3.0 dB loss step at the midpoint block
      sine-drift  depolarizing probability and amplitude damping, each
                  0.25 + 0.20*sin(2*pi*t/24): period 24 blocks
    """
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    if isinstance(spec, dict):
        events = [ev if isinstance(ev, ScheduleEvent) else ScheduleEvent(*ev)
                  for ev in spec.get("events", [])]
        phase = spec.get("phase", PhaseDriftParams())
        if isinstance(phase, dict):
            phase = PhaseDriftParams(**phase)

        def series(key: str, default: float = 0.0) -> np.ndarray:
            val = spec.get(key, default)
            if np.isscalar(val):
                return _const(blocks, float(val))
            arr = np.asarray(val, dtype=float)
            if arr.shape != (blocks,):
                raise ValueError(f"{key} series must have length {blocks}")
            return arr

        return NoiseSchedule(
            blocks=blocks,
            depol_p=series("depol_p"),
            damp_gamma=series("damp_gamma"),
            misalign_err=series("misalign_err"),
            level=series("level"),
            phase=phase,
            events=events,
            name=str(spec.get("name", "custom")),
        )

    name = str(spec)
    zeros = _const(blocks, 0.0)
    if name == "nominal":
        return NoiseSchedule(blocks, zeros, zeros.copy(), zeros.copy(), zeros.copy(),
                             name="nominal")
    if name == "noise-sweep":
        seg = max(blocks // len(SWEEP_LEVELS), 1)
        level = np.array([SWEEP_LEVELS[min(t // seg, len(SWEEP_LEVELS) - 1)]
                          for t in range(blocks)])
        return NoiseSchedule(
            blocks,
            depol_p=DEPOL_FRACTION * level,
            damp_gamma=zeros.copy(),
            misalign_err=MISALIGN_FRACTION * level,
            level=level,
            name="noise-sweep",
        )
    if name == "splice-3db":
        return NoiseSchedule(
            blocks, zeros, zeros.copy(), zeros.copy(), zeros.copy(),
            events=[ScheduleEvent(blocks // 2, "StepLossDb", 3.0)],
            name="splice-3db",
        )
    if name == "sine-drift":
        # one slow environmental driver modulating depolarization and loss
        t = np.arange(blocks)
        wave = np.sin(2.0 * math.pi * t / 24.0)
        p = 0.25 + 0.20 * wave
        gamma = 0.25 + 0.20 * wave
        return NoiseSchedule(blocks, p, gamma, zeros.copy(), p.copy(),
                             name="sine-drift")
    raise UnknownScenarioError(f"unknown scenario {name!r}")


def _base_misalign_error(link: LinkParams) -> float:
    if link.theta is not None:
        return math.sin(link.theta) ** 2
    return link.e_d


def effective_link(
    link: LinkParams,
    sched: NoiseSchedule,
    ctrl: ControlState,
    t: int,
    protocol: str = "bb84",
    dphi: float = 0.0,
) -> EffectiveParams:
    """Physical parameters for block ``t`` after noise, events, and control.

    The intrinsic alignment error is realized as an angle so that the
    compensation knob theta_c acts on it: sin^2(theta) equals the base
    error plus any scheduled misalignment, giving e_d_eff = e_d + p/2 at
    nominal control. Amplitude damping acts as extra photon loss only.
    """
    if not 0 <= t < sched.blocks:
        raise ValueError(f"block {t} outside schedule of length {sched.blocks}")
    p = float(sched.depol_p[t])
    gamma = float(sched.damp_gamma[t])
    loss_db = 0.0
    y0 = link.y0
    dip = 1.0
    for ev in sched.events:
        if ev.block_index <= t:
            if ev.kind == "StepLossDb":
                loss_db += ev.magnitude
            elif ev.kind == "StepDepol":
                p = min(p + ev.magnitude, 1.0)
            elif ev.kind == "StepDarkCounts":
                y0 = min(y0 + ev.magnitude, 0.999)
            elif ev.kind == "VisibilityDip":
                dip *= max(1.0 - ev.magnitude, 0.0)
    eta = transmittance(link) * 10.0 ** (-loss_db / 10.0) * (1.0 - gamma)
    m_err = min(max(_base_misalign_error(link) + float(sched.misalign_err[t]), 0.0), 1.0)
    theta_t = math.asin(math.sqrt(m_err))
    theta_err = theta_t - ctrl.theta_c
    if protocol == "cow":
        v = cow_visibility(ctrl.mu_s, dphi - ctrl.phi_c) * (1.0 - p) * dip
        e_ph = (1.0 - v) / 2.0
    else:
        v = (1.0 - p) * math.cos(theta_err) ** 2 * dip
        e_ph = 0.0
    e_d_eff = min(max(math.sin(theta_err) ** 2 + p / 2.0, 0.0), 0.5)
    return EffectiveParams(eta=eta, v=min(max(v, 0.0), 1.0), e_d_eff=e_d_eff,
                           y0=y0, e_ph=e_ph)


def wilson_interval(n_err: int, n: int, conf: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n_err < 0 or n < 0 or n_err > n:
        raise ValueError("need 0 <= n_err <= n")
    if n == 0:
        return 0.0, 1.0
    z = normal_quantile(0.5 + conf / 2.0)
    p = n_err / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    margin = z * math.sqrt((p * (1.0 - p) + z2 / (4.0 * n)) / n) / denom
    # no errors (or no successes) puts the bound exactly at 0 (or 1);
    # center - margin would leave a rounding residue there
    lo = 0.0 if n_err == 0 else max(0.0, center - margin)
    hi = 1.0 if n_err == n else min(1.0, center + margin)
    return lo, hi


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        z = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        z = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    else:
        q = p - 0.5
        r = q * q
        z = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    # one Newton polish with the exact CDF brings the result to full precision
    err = 0.5 * math.erfc(-z / math.sqrt(2.0)) - p
    z -= err * math.sqrt(2.0 * math.pi) * math.exp(z * z / 2.0)
    return z


def _estimate_eta(q_hat: float, y0: float, mu: float) -> float:
    """Invert the closed-form gain for a transmittance estimate."""
    x = min(max(q_hat - y0, 0.0), 1.0 - 1e-12)
    return min(max(-math.log1p(-x) / mu, 0.0), 1.0)


def _sample_fraction(rng: np.random.Generator, trials: int, p: float) -> Tuple[int, int]:
    """(successes, trials) with trials clamped to be non-negative."""
    trials = max(int(trials), 0)
    p = min(max(p, 0.0), 1.0)
    if trials == 0:
        return 0, 0
    return int(rng.binomial(trials, p)), trials


def step_block(
    link: LinkParams,
    sched: NoiseSchedule,
    ctrl: ControlState,
    proto: ProtocolConfig,
    t: int,
    rng: np.random.Generator,
    channel: ChannelConfig = ChannelConfig(),
    dphi: float = 0.0,
    prev_exceeded: bool = False,
) -> Telemetry:
    """Simulate one measurement block and return its telemetry.

    Detection counts are drawn at block level: n_sifted ~ Binomial(n*q, Q)
    and n_errors ~ Binomial(n_sifted, E), which matches per-pulse sampling
    in distributionally relevant statistics (see the per-pulse sampler in
    tests/oracles.py).
    A block with no sifted detections reports the degenerate convention
    e_mu_hat = 0.5 with the full-width interval.
    """
    eff = effective_link(link, sched, ctrl, t, protocol=proto.kind, dphi=dphi)
    q_sift = PROTOCOLS[proto.kind].key_fraction(proto, ctrl.p_z)

    q_w_hat = e_w_hat = 0.0

    if proto.kind == "bb84":
        n_sig = int(round(channel.n_pulses * proto.bb84.p_s))
        n_weak = channel.n_pulses - n_sig
        gs = bb84_gains(ctrl.mu_s, eff.eta, eff.y0, eff.e_d_eff, link.e0)
        gw = bb84_gains(ctrl.mu_w, eff.eta, eff.y0, eff.e_d_eff, link.e0)
        n_sift, trials = _sample_fraction(rng, round(n_sig * q_sift), gs.q_mu)
        n_err, _ = _sample_fraction(rng, n_sift, gs.e_mu)
        n_sift_w, trials_w = _sample_fraction(rng, round(n_weak * q_sift), gw.q_mu)
        n_err_w, _ = _sample_fraction(rng, n_sift_w, gw.e_mu)
        q_mu_hat = n_sift / trials if trials else 0.0
        q_w_hat = n_sift_w / trials_w if trials_w else 0.0
        e_w_hat = n_err_w / n_sift_w if n_sift_w else link.e0
        mu_for_eta = ctrl.mu_s
    elif proto.kind == "e91":
        # Source colocated with the transmitter: local arm sees only the
        # detector, remote arm the full link.
        eta_pair = eff.eta * link.eta_det
        v_pair = proto.e91.v_source * eff.v
        q_c = min(eff.y0 + eta_pair, 1.0)
        e_pair = (link.e0 * eff.y0 + (1.0 - v_pair) / 2.0 * eta_pair) / q_c if q_c > 0 else link.e0
        n_sift, trials = _sample_fraction(rng, round(channel.n_pulses * q_sift), q_c)
        n_err, _ = _sample_fraction(rng, n_sift, e_pair)
        q_mu_hat = n_sift / trials if trials else 0.0
        mu_for_eta = 1.0
    else:  # cow
        mu = ctrl.mu_s  # mean photon number per signal bin
        g = bb84_gains(mu, eff.eta, eff.y0, eff.e_d_eff, link.e0)
        n_sift, trials = _sample_fraction(rng, round(channel.n_pulses * q_sift), g.q_mu)
        n_err, _ = _sample_fraction(rng, n_sift, g.e_mu)
        n_mon, _ = _sample_fraction(
            rng, round(channel.n_pulses * proto.cow.monitor_fraction), g.q_mu)
        n_mon_err, _ = _sample_fraction(rng, n_mon, eff.e_ph)
        q_mu_hat = n_sift / trials if trials else 0.0
        mu_for_eta = mu

    if n_sift > 0:
        e_mu_hat = n_err / n_sift
        e_lo, e_hi = wilson_interval(n_err, n_sift)
    else:
        e_mu_hat, (e_lo, e_hi) = 0.5, (0.0, 1.0)

    if proto.kind == "cow":
        e_ph_hat = n_mon_err / n_mon if n_mon > 0 else 0.5
        v_hat = min(max(1.0 - 2.0 * e_ph_hat, 0.0), 1.0)
    else:
        v_hat = min(max(1.0 - 2.0 * e_mu_hat, 0.0), 1.0)

    exceeded = n_sift > 0 and e_mu_hat > channel.abort_qber
    return Telemetry(
        block_index=t,
        n_pulses=channel.n_pulses,
        n_sifted=n_sift,
        n_errors=n_err,
        q_mu_hat=q_mu_hat,
        e_mu_hat=e_mu_hat,
        e_lo=e_lo,
        e_hi=e_hi,
        v_hat=v_hat,
        y0_hat=eff.y0,
        eta_hat=_estimate_eta(q_mu_hat, eff.y0, mu_for_eta),
        aborted=bool(exceeded and prev_exceeded),
        q_w_hat=q_w_hat,
        e_w_hat=e_w_hat,
    )


class Simulator:
    """Stateful wrapper: owns the generator, the phase-drift process, and
    the consecutive-exceedance abort bookkeeping for one run."""

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
        self.sched = sched
        self.channel = channel
        self.rng = np.random.Generator(np.random.Philox(key=seed))
        self.dphi = 0.0
        self.t = 0
        self._prev_exceeded = False

    def step(self, ctrl: ControlState) -> Telemetry:
        if self.t >= self.sched.blocks:
            raise IndexError("schedule exhausted")
        telem = step_block(
            self.link, self.sched, ctrl, self.proto, self.t, self.rng,
            channel=self.channel, dphi=self.dphi, prev_exceeded=self._prev_exceeded,
        )
        if telem.aborted:
            self._prev_exceeded = False  # session restarts after an abort
        else:
            self._prev_exceeded = telem.n_sifted > 0 and telem.e_mu_hat > self.channel.abort_qber
        if self.proto.kind == "cow":
            ph = self.sched.phase
            xi = self.rng.standard_normal()
            self.dphi = (1.0 - ph.reversion) * self.dphi + ph.step_scale * xi
            self.dphi = min(max(self.dphi, -ph.bound), ph.bound)
        self.t += 1
        return telem
