"""Analytical secure-key-rate engine for BB84-decoy, E91, and COW links.

Everything in this module is a pure function of its inputs: no shared
state, safe to call from any number of threads. Rates are reported per
emitted pulse, in bits per second via the source clock, and with a
finite-size deduction applied on top of the asymptotic value.

:data:`PROTOCOLS` holds, per protocol, every decision the package makes by
protocol kind: nominal intensities, the controller's action mask, the key
fraction, the model operating point, the key rate from one block's
telemetry and the block sampler that draws one block's counts for the
channel simulator. A sampler draws only from the generator it is given,
so this module keeps no random state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Tuple

if TYPE_CHECKING:
    import numpy as np

    from .channel import ControlState, EffectiveParams, Telemetry

DEFAULT_F_REP = 2.5e8
NOMINAL_P_Z = 0.5  # basis bias a run starts from
CHSH_MAX = 2.0 * math.sqrt(2.0)

# COW inter-pulse phase: a bounded mean-reverting random walk per block.
PHASE_REVERSION = 0.05
PHASE_STEP_SCALE = 0.05
PHASE_BOUND = math.pi


class BoundInfeasibleError(ValueError):
    """Observed decoy statistics admit no positive single-photon yield."""


def _check_prob(name: str, x: float, hi: float = 1.0) -> None:
    if not 0.0 <= x <= hi:
        raise ValueError(f"{name} must be in [0, {hi}], got {x!r}")


@dataclass(frozen=True)
class LinkParams:
    """Fiber and device constants for one point-to-point link."""

    alpha_db_per_km: float = 0.2
    distance_km: float = 50.0
    eta_det: float = 0.2
    y0: float = 5e-6
    e_d: float = 0.015
    e0: float = 0.5
    f_rep: float = DEFAULT_F_REP

    def __post_init__(self) -> None:
        if self.alpha_db_per_km < 0:
            raise ValueError("alpha_db_per_km must be >= 0")
        if self.distance_km < 0:
            raise ValueError("distance_km must be >= 0")
        if not 0.0 < self.eta_det <= 1.0:
            raise ValueError("eta_det must be in (0, 1]")
        if not 0.0 <= self.y0 < 1.0:
            raise ValueError("y0 must be in [0, 1)")
        if not 0.0 <= self.e_d <= 0.5:
            raise ValueError("e_d must be in [0, 0.5]")
        if not 0.0 <= self.e0 <= 0.5:
            raise ValueError("e0 must be in [0, 0.5]")
        if self.f_rep <= 0:
            raise ValueError("f_rep must be positive")


@dataclass(frozen=True)
class Bb84Config:
    mu_s: float = 0.5
    mu_w: float = 0.1
    p_s: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.mu_w < self.mu_s:
            raise ValueError("need 0 < mu_w < mu_s")
        if not 0.0 < self.p_s < 1.0:
            raise ValueError("p_s must be in (0, 1)")


@dataclass(frozen=True)
class E91Config:
    v_source: float = 0.98

    def __post_init__(self) -> None:
        if not 0.0 < self.v_source <= 1.0:
            raise ValueError("v_source must be in (0, 1]")


@dataclass(frozen=True)
class CowConfig:
    alpha_sq: float = 0.5
    monitor_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.alpha_sq <= 0:
            raise ValueError("alpha_sq must be positive")
        if not 0.0 <= self.monitor_fraction < 1.0:
            raise ValueError("monitor_fraction must be in [0, 1)")


@dataclass(frozen=True)
class FiniteKeyConfig:
    n_block: float = 1e6
    epsilon: float = 1e-10

    def __post_init__(self) -> None:
        if self.n_block < 1:
            raise ValueError("n_block must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")


@dataclass(frozen=True)
class ProtocolConfig:
    """Tagged union of per-protocol parameter sets plus shared settings.

    ``kind`` selects which of the protocol sub-configs is active; the
    others keep their defaults and are ignored by the rate functions.
    """

    kind: str = "bb84"
    f_ec: float = 1.16
    bb84: Bb84Config = field(default_factory=Bb84Config)
    e91: E91Config = field(default_factory=E91Config)
    cow: CowConfig = field(default_factory=CowConfig)
    finite_key: FiniteKeyConfig = field(default_factory=FiniteKeyConfig)

    def __post_init__(self) -> None:
        if self.kind not in PROTOCOLS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.f_ec < 1.0:
            raise ValueError("f_ec must be >= 1")


@dataclass(frozen=True)
class DecoyBounds:
    """Two-intensity decoy bounds on the single-photon contribution."""

    y1_lower: float
    q1_lower: float
    e1_upper: float


@dataclass(frozen=True)
class KeyRateReport:
    """A key rate, clamped at zero, per pulse, per second and after the
    finite-size deduction, and the clamp-free raw rate it came from."""

    r_per_pulse: float
    r_bps: float
    r_finite: float
    raw: float


def binary_entropy(x: float) -> float:
    """Binary entropy H2(x) in bits, with the convention 0*log2(0) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def transmittance(link: LinkParams) -> float:
    """Overall transmittance: fiber attenuation folded with detector efficiency."""
    return 10.0 ** (-link.alpha_db_per_km * link.distance_km / 10.0) * link.eta_det


def wcp_gain(mu: float, eta: float, y0: float, e_d: float,
             e0: float = 0.5) -> Tuple[float, float]:
    """Overall gain Q_mu and error rate E_mu of a weak coherent pulse at
    intensity ``mu``: the photon-number ladder Yn = Y0 + 1 - (1-eta)^n
    summed under Poisson statistics, in its closed form
    Q_mu = Y0 + 1 - exp(-eta*mu). A dark channel (eta = 0, y0 = 0) has
    zero gain and its error rate at the random baseline e0."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    _check_prob("eta", eta)
    detected = 1.0 - math.exp(-eta * mu)
    q_mu = min(y0 + detected, 1.0)
    if q_mu <= 0.0:
        return 0.0, e0
    return q_mu, min(max((e0 * y0 + e_d * detected) / q_mu, 0.0), 1.0)


def bb84_model_gains(link: LinkParams, mu: float) -> Tuple[float, float]:
    """:func:`wcp_gain`'s (Q_mu, E_mu) of any weak coherent pulse of mean
    photon number ``mu`` (BB84's signal or decoy, COW's pulse) at a link's
    nominal transmittance."""
    return wcp_gain(mu, transmittance(link), link.y0, link.e_d, link.e0)


def decoy_bounds(
    obs_s: Tuple[float, float],
    obs_w: Tuple[float, float],
    mu_s: float,
    mu_w: float,
    y0: float,
    e0: float = 0.5,
) -> DecoyBounds:
    """Two-intensity (signal + weak decoy) analytic bounds.

    ``obs_s`` and ``obs_w`` are observed (gain, QBER) pairs at the signal
    and weak intensities ``mu_s`` and ``mu_w``. The vacuum yield ``y0`` is
    assumed known from calibration. Raises :class:`BoundInfeasibleError`
    when the observations are mutually inconsistent (no non-negative Y1
    exists).
    """
    q_s, _ = obs_s
    q_w, e_w = obs_w
    if not (0.0 < mu_w < mu_s):
        raise ValueError("need 0 < mu_w < mu_s")
    y1_raw = (mu_s / (mu_s * mu_w - mu_w**2)) * (
        q_w * math.exp(mu_w)
        - q_s * math.exp(mu_s) * (mu_w**2 / mu_s**2)
        - ((mu_s**2 - mu_w**2) / mu_s**2) * y0
    )
    y1_lower = min(max(y1_raw, 0.0), 1.0)
    if y1_lower <= 0.0:
        raise BoundInfeasibleError(
            f"single-photon yield bound is non-positive ({y1_raw:.3e}); "
            "observations inconsistent with the decoy model"
        )
    e1_raw = (e_w * q_w * math.exp(mu_w) - e0 * y0) / (y1_lower * mu_w)
    e1_upper = min(max(e1_raw, 0.0), 0.5)
    q1_lower = y1_lower * mu_s * math.exp(-mu_s)
    return DecoyBounds(y1_lower=y1_lower, q1_lower=q1_lower, e1_upper=e1_upper)


def _report(r_raw: float, cfg: ProtocolConfig, f_rep: float) -> KeyRateReport:
    r_pp = max(r_raw, 0.0)
    r_fin = finite_key_rate(r_pp, cfg.finite_key.n_block, cfg.finite_key.epsilon)
    return KeyRateReport(r_pp, r_pp * f_rep, r_fin, r_raw)


def bb84_key_rate(
    bounds: DecoyBounds,
    q_mu: float,
    e_mu: float,
    cfg: ProtocolConfig,
    q: float,
    f_rep: float = DEFAULT_F_REP,
) -> KeyRateReport:
    """Decoy-state BB84 secure fraction per emitted pulse.

    R = q * { -Q_mu f(E) H2(E) + Q1 [1 - H2(e1)] } with Q1 the decoy
    bounds' ``q1_lower`` and e1 their ``e1_upper``. Negative raw values
    are kept in ``raw`` and clamped in the headline fields.
    """
    _check_prob("q_mu", q_mu)
    _check_prob("e_mu", e_mu)
    ec_leak = q_mu * cfg.f_ec * binary_entropy(min(e_mu, 0.5))
    pa_term = bounds.q1_lower * (1.0 - binary_entropy(min(bounds.e1_upper, 0.5)))
    return _report(q * (pa_term - ec_leak), cfg, f_rep)


def bb84_sifted_key_rate(
    q_mu: float,
    e_mu: float,
    cfg: ProtocolConfig,
    q: float,
    f_rep: float = DEFAULT_F_REP,
) -> KeyRateReport:
    """Sifted-key approximation R ~ q * Q_mu * [1 - 2 H2(E_mu)]."""
    _check_prob("q_mu", q_mu)
    _check_prob("e_mu", e_mu)
    h = binary_entropy(min(e_mu, 0.5))
    return _report(q * q_mu * (1.0 - 2.0 * h), cfg, f_rep)


def e91_pair_gain(link: LinkParams, eta: float) -> float:
    """Coincidence gain of a pair source at the transmitter: the local arm
    sees only its detector, the remote arm the transmittance ``eta``."""
    return min(link.y0 + eta * link.eta_det, 1.0)


def e91_quantities(v: float) -> Tuple[float, float]:
    """CHSH value and QBER implied by a two-photon interference visibility."""
    _check_prob("visibility", v)
    return CHSH_MAX * v, (1.0 - v) / 2.0


def e91_key_rate(
    s: float,
    q_err: float,
    cfg: ProtocolConfig,
    q: float,
    f_rep: float = DEFAULT_F_REP,
) -> KeyRateReport:
    """Entanglement-based rate with a CHSH-dependent privacy term.

    R = q * [1 - f(Q) H2(Q) - H2((1 + sqrt(max(0, (S/2)^2 - 1))) / 2)].
    """
    _check_prob("q_err", q_err, 0.5)
    if not 0.0 <= s <= CHSH_MAX + 1e-12:
        raise ValueError(f"CHSH value must be in [0, 2*sqrt(2)], got {s!r}")
    ec_leak = cfg.f_ec * binary_entropy(q_err)
    holevo_arg = (1.0 + math.sqrt(max(0.0, (s / 2.0) ** 2 - 1.0))) / 2.0
    pa_term = 1.0 - binary_entropy(min(holevo_arg, 1.0))
    return _report(q * (pa_term - ec_leak), cfg, f_rep)


def cow_visibility(alpha_sq: float, dphi: float) -> float:
    """Monitor-line visibility under inter-pulse phase drift ``dphi``."""
    if alpha_sq < 0:
        raise ValueError("alpha_sq must be >= 0")
    return math.exp(-2.0 * alpha_sq * (1.0 - math.cos(dphi)))


def cow_key_rate(
    q_mu: float,
    e_mu: float,
    e_ph: float,
    cfg: ProtocolConfig,
    q: float,
    f_rep: float = DEFAULT_F_REP,
) -> KeyRateReport:
    """Coherent one-way rate per emitted signal bin.

    R = q * { -Q_mu f(E) H2(E) + Q_mu [1 - H2(e_ph)] } with the phase
    error taken from the monitor-line visibility.
    """
    _check_prob("q_mu", q_mu)
    _check_prob("e_mu", e_mu)
    _check_prob("e_ph", e_ph)
    ec_leak = q_mu * cfg.f_ec * binary_entropy(min(e_mu, 0.5))
    pa_term = q_mu * (1.0 - binary_entropy(min(e_ph, 0.5)))
    return _report(q * (pa_term - ec_leak), cfg, f_rep)


@functools.lru_cache(maxsize=64)
def finite_key_penalty(n: float, eps: float) -> float:
    """Finite-size rate deduction Delta_FK(N, eps), computed once per
    (N, eps): every block of a run deducts the same."""
    if n < 1:
        raise ValueError("block size must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    return 7.0 * math.sqrt(math.log2(2.0 / eps) / n) + (2.0 / n) * math.log2(1.0 / eps)


def finite_key_rate(r_asym: float, n: float, eps: float) -> float:
    """Asymptotic rate minus the finite-size penalty, clamped at zero."""
    return max(0.0, r_asym - finite_key_penalty(n, eps))


# -- per-protocol table -----------------------------------------------------

# One block's draws, as a sampler returns them: trials, n_sifted, n_errors,
# the errors and trials the visibility estimate reads, the intensity the
# transmittance estimate inverts the gain at, the COW phase after the
# block, and the weak decoy's gain and QBER (zero without a decoy).
BlockSample = Tuple[int, int, int, int, int, float, float, float, float]


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything that differs between protocols.

    ``nominal`` gives the (mu_s, mu_w) a run starts from; ``mask`` marks
    the knobs the controller may move, in ``controller.ACTION_ORDER``
    order; ``key_fraction`` is the share of pulses kept for the key at
    basis bias ``p_z``; ``operating_point`` is the model's (Q_mu, E_mu,
    report) on a link at key fraction ``q``; ``block_rate`` is the report
    from one block's telemetry at key fraction ``q``; ``sample`` draws one
    block's :data:`BlockSample` of ``n`` pulses at key fraction ``q`` and
    COW phase ``dphi`` from the generator it is given.
    """

    nominal: Callable[[ProtocolConfig], Tuple[float, float]]
    mask: Tuple[float, ...]
    key_fraction: Callable[[ProtocolConfig, float], float]
    operating_point: Callable[[LinkParams, ProtocolConfig, float],
                              Tuple[float, float, KeyRateReport]]
    block_rate: Callable[[LinkParams, ProtocolConfig, ControlState, Telemetry, float],
                         KeyRateReport]
    sample: Callable[[np.random.Generator, LinkParams, ProtocolConfig, ControlState,
                      EffectiveParams, int, float, float], BlockSample]


def _basis_match(proto: ProtocolConfig, p_z: float) -> float:
    """Both sides choose the same basis, each with bias ``p_z``."""
    return p_z**2 + (1.0 - p_z) ** 2


def _cow_key_fraction(proto: ProtocolConfig, p_z: float) -> float:
    """A fixed share of the non-monitor bins; ``p_z`` plays no part."""
    return 0.9 * (1.0 - proto.cow.monitor_fraction)


_NO_SINGLE_PHOTONS = DecoyBounds(0.0, 0.0, 0.5)  # what an infeasible bound certifies


def _decoy_rate(obs_s: Tuple[float, float], obs_w: Tuple[float, float],
                mu_s: float, mu_w: float, link: LinkParams, proto: ProtocolConfig,
                q: float) -> KeyRateReport:
    """BB84 rate from the (gain, QBER) pairs at the signal and weak-decoy
    intensities. An infeasible bound certifies no single photons, which
    gives a zero rate."""
    try:
        bounds = decoy_bounds(obs_s, obs_w, mu_s, mu_w, link.y0, link.e0)
    except BoundInfeasibleError:
        bounds = _NO_SINGLE_PHOTONS
    return bb84_key_rate(bounds, min(obs_s[0], 1.0), min(obs_s[1], 1.0), proto,
                         f_rep=link.f_rep, q=q)


def _bb84_point(link: LinkParams, proto: ProtocolConfig, q: float):
    obs_s = bb84_model_gains(link, proto.bb84.mu_s)
    obs_w = bb84_model_gains(link, proto.bb84.mu_w)
    return (*obs_s, _decoy_rate(obs_s, obs_w, proto.bb84.mu_s, proto.bb84.mu_w,
                                link, proto, q))


def _e91_point(link: LinkParams, proto: ProtocolConfig, q: float):
    s, q_err = e91_quantities(proto.e91.v_source)
    return (e91_pair_gain(link, transmittance(link)), q_err,
            e91_key_rate(s, q_err, proto, f_rep=link.f_rep, q=q))


def _cow_point(link: LinkParams, proto: ProtocolConfig, q: float):
    q_mu, e_mu = bb84_model_gains(link, proto.cow.alpha_sq)
    return q_mu, e_mu, cow_key_rate(q_mu, e_mu, 0.0, proto, f_rep=link.f_rep, q=q)


def _bb84_block(link: LinkParams, proto: ProtocolConfig, ctrl: ControlState,
                telem: Telemetry, q: float) -> KeyRateReport:
    return _decoy_rate((telem.q_mu_hat, telem.e_mu_hat), (telem.q_w_hat, telem.e_w_hat),
                       ctrl.mu_s, ctrl.mu_w, link, proto, q)


def _e91_block(link: LinkParams, proto: ProtocolConfig, ctrl: ControlState,
               telem: Telemetry, q: float) -> KeyRateReport:
    s_hat = min(CHSH_MAX * telem.v_hat, CHSH_MAX)
    return e91_key_rate(s_hat, min(telem.e_mu_hat, 0.5), proto, f_rep=link.f_rep, q=q)


def _cow_block(link: LinkParams, proto: ProtocolConfig, ctrl: ControlState,
               telem: Telemetry, q: float) -> KeyRateReport:
    e_ph_hat = min(max((1.0 - telem.v_hat) / 2.0, 0.0), 1.0)
    return cow_key_rate(min(telem.q_mu_hat, 1.0), min(telem.e_mu_hat, 1.0), e_ph_hat,
                        proto, f_rep=link.f_rep, q=q)


def _detect(rng: np.random.Generator, trials: int, gain: float, error: float):
    """(trials, detections, errors): each of ``trials`` pulses detected at
    ``gain``, each detection in error at ``error``; no draw on no trials."""
    n_det = int(rng.binomial(trials, min(max(gain, 0.0), 1.0))) if trials > 0 else 0
    n_err = int(rng.binomial(n_det, min(max(error, 0.0), 1.0))) if n_det > 0 else 0
    return trials, n_det, n_err


def _bb84_sample(rng: np.random.Generator, link: LinkParams, proto: ProtocolConfig,
                 ctrl: ControlState, eff: EffectiveParams, n: int, q: float, dphi: float):
    """The signal pulses, then the weak decoy."""
    n_signal = round(n * proto.bb84.p_s)
    q_s, e_s = wcp_gain(ctrl.mu_s, eff.eta, link.y0, eff.e_d_eff, link.e0)
    q_w, e_w = wcp_gain(ctrl.mu_w, eff.eta, link.y0, eff.e_d_eff, link.e0)
    trials, n_sift, n_err = _detect(rng, round(n_signal * q), q_s, e_s)
    trials_w, n_sift_w, n_err_w = _detect(rng, round((n - n_signal) * q), q_w, e_w)
    return (trials, n_sift, n_err, n_err, n_sift, ctrl.mu_s, dphi,
            n_sift_w / trials_w if trials_w else 0.0, n_err_w / n_sift_w if n_sift_w else link.e0)


def _e91_sample(rng: np.random.Generator, link: LinkParams, proto: ProtocolConfig,
                ctrl: ControlState, eff: EffectiveParams, n: int, q: float, dphi: float):
    """Sifted pairs; no intensity knob enters."""
    q_pair, eta_pair = e91_pair_gain(link, eff.eta), eff.eta * link.eta_det
    e_pair = ((link.e0 * link.y0 + (1.0 - proto.e91.v_source * eff.v) / 2.0 * eta_pair)
              / q_pair if q_pair > 0 else link.e0)
    trials, n_sift, n_err = _detect(rng, round(n * q), q_pair, e_pair)
    return trials, n_sift, n_err, n_err, n_sift, 1.0, dphi, 0.0, 0.0


def _cow_sample(rng: np.random.Generator, link: LinkParams, proto: ProtocolConfig,
                ctrl: ControlState, eff: EffectiveParams, n: int, q: float, dphi: float):
    """The signal bins, then the monitor line, whose phase errors give the
    visibility, then one step of the phase walk (``mu_s`` is the mean
    photon number per signal bin)."""
    q_mu, e_mu = wcp_gain(ctrl.mu_s, eff.eta, link.y0, eff.e_d_eff, link.e0)
    e_ph = (1.0 - cow_visibility(ctrl.mu_s, dphi - ctrl.phi_c) * (1.0 - eff.depol_p)) / 2.0
    trials, n_sift, n_err = _detect(rng, round(n * q), q_mu, e_mu)
    _, n_mon, n_mon_err = _detect(rng, round(n * proto.cow.monitor_fraction), q_mu, e_ph)
    dphi = (1.0 - PHASE_REVERSION) * dphi + PHASE_STEP_SCALE * rng.standard_normal()
    return (trials, n_sift, n_err, n_mon_err, n_mon, ctrl.mu_s,
            min(max(dphi, -PHASE_BOUND), PHASE_BOUND), 0.0, 0.0)


PROTOCOLS: Dict[str, ProtocolSpec] = {
    "bb84": ProtocolSpec(nominal=lambda p: (p.bb84.mu_s, p.bb84.mu_w),
                         mask=(1.0, 1.0, 1.0, 1.0, 0.0), key_fraction=_basis_match,
                         operating_point=_bb84_point, block_rate=_bb84_block,
                         sample=_bb84_sample),
    # no intensity knob: E91 carries the BB84 values, masked
    "e91": ProtocolSpec(nominal=lambda p: (p.bb84.mu_s, p.bb84.mu_w),
                        mask=(0.0, 0.0, 1.0, 1.0, 0.0), key_fraction=_basis_match,
                        operating_point=_e91_point, block_rate=_e91_block,
                        sample=_e91_sample),
    # no decoy: mu_s is the mean photon number per signal bin
    "cow": ProtocolSpec(nominal=lambda p: (p.cow.alpha_sq, 0.1),
                        mask=(1.0, 0.0, 0.0, 0.0, 1.0), key_fraction=_cow_key_fraction,
                        operating_point=_cow_point, block_rate=_cow_block,
                        sample=_cow_sample),
}


def operating_point(link: LinkParams,
                    proto: ProtocolConfig) -> Tuple[float, float, KeyRateReport]:
    """Model-predicted (gain, QBER, rate report) of ``proto`` on ``link``
    at its configured parameters, the nominal basis bias and zero added
    noise."""
    spec = PROTOCOLS[proto.kind]
    return spec.operating_point(link, proto, spec.key_fraction(proto, NOMINAL_P_Z))


def block_key_rate(link: LinkParams, proto: ProtocolConfig, ctrl: ControlState,
                   telem: Telemetry) -> Tuple[float, float]:
    """Asymptotic and finite throughput (bits/s) estimated from one block's
    telemetry, at the key fraction of the block's control.

    BB84 runs the two-intensity decoy bounds on the sampled statistics; an
    infeasible bound (inconsistent observations) yields a zero-rate block.
    """
    spec = PROTOCOLS[proto.kind]
    rep = spec.block_rate(link, proto, ctrl, telem, spec.key_fraction(proto, ctrl.p_z))
    return rep.r_bps, rep.r_finite * link.f_rep
