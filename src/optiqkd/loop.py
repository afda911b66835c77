"""Closed-loop integration: telemetry -> forecast -> action -> measurement.

Couples the channel simulator, the rate engine, the forecaster, and the
PPO controller into per-block episodes; also provides the static and
periodic-recalibration baselines, the QBER abort rule, adaptation-time
extraction, and bootstrap comparison tables. Each (scenario, seed,
controller) run is an independent single-threaded job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .channel import (SCENARIOS, TELEMETRY_CSV_HEADER, ChannelConfig, ControlState,
                      NoiseSchedule, Simulator, Telemetry, UnknownScenarioError,
                      make_scenario)
from .controller import (ActorCritic, PpoConfig, RewardConfig, act,
                         apply_action, observe, ppo_update, reward as reward_fn)
from .rates import (NOMINAL_P_Z, PROTOCOLS, LinkParams, ProtocolConfig,
                    block_key_rate, operating_point)
from .tcn import Dataset, Forecaster, TcnModel, make_dataset, telemetry_features

PRE_EVENT_WINDOW = 50
RECALIB_PERIOD = 15
RECALIB_GRID = (0.3, 0.4, 0.5, 0.6, 0.7)
CONTROLLER_KINDS = ("ml", "static", "recalib")

EPISODE_CSV_HEADER = (TELEMETRY_CSV_HEADER
                      + ",mu_s,mu_w,p_z,theta_c,phi_c,skr_bps,skr_finite,reward,controller")
METRICS_CSV_HEADER = "controller,scenario,metric,value,ci_lo,ci_hi"


class ConfigMismatchError(ValueError):
    """Requested controller/protocol combination is not runnable."""


@dataclass(frozen=True)
class LoopConfig:
    """The first ``warmup`` blocks of each episode are left out of the
    comparison medians."""

    warmup: int = 100

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Training runs: the static-control scenarios and blocks per scenario
    of the forecaster's corpus, and the PPO updates, scenario mixture and
    episode length of the controller's."""

    tcn_scenarios: Tuple[str, ...] = ("nominal", "sine-drift", "noise-sweep")
    tcn_blocks: int = 500
    ppo_updates: int = 300
    ppo_scenarios: Tuple[str, ...] = ("noise-sweep", "splice-3db")
    ppo_blocks: int = 600

    def __post_init__(self) -> None:
        for name in ("tcn_scenarios", "ppo_scenarios"):
            if not getattr(self, name):
                raise ValueError(f"{name} must name at least one scenario")
            for scen in getattr(self, name):
                if scen not in SCENARIOS:
                    raise UnknownScenarioError(f"unknown scenario {scen!r} in {name}")
        # an ml episode first acts on its second block, so ppo_blocks >= 2
        for name, low in (("tcn_blocks", 1), ("ppo_updates", 1), ("ppo_blocks", 2)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")


@dataclass
class BlockRecord:
    ctrl: ControlState
    telem: Telemetry
    skr_bps: float
    skr_finite: float
    reward: float


@dataclass
class EpisodeLog:
    scenario: str
    seed: int
    controller: str
    records: List[BlockRecord] = field(default_factory=list)
    updates: List[Dict[str, float]] = field(default_factory=list)  # PPO reports

    def skr_series(self) -> np.ndarray:
        return np.array([r.skr_bps for r in self.records])

    def qber_series(self) -> np.ndarray:
        return np.array([min(r.telem.e_mu_hat, 0.5) for r in self.records])

    def abort_count(self) -> int:
        return sum(1 for r in self.records if r.telem.aborted)

    def csv(self) -> str:
        lines = [EPISODE_CSV_HEADER]
        for r in self.records:
            ctrl = (f"{r.ctrl.mu_s:.10g},{r.ctrl.mu_w:.10g},{r.ctrl.p_z:.10g},"
                    f"{r.ctrl.theta_c:.10g},{r.ctrl.phi_c:.10g}")
            lines.append(
                f"{r.telem.csv_row()},{ctrl},{r.skr_bps:.10g},{r.skr_finite:.10g},"
                f"{r.reward:.10g},{self.controller}")
        return "\n".join(lines) + "\n"


@dataclass
class RunMetrics:
    median_skr_bps: float
    median_qber: float
    abort_count: float
    adaptation_blocks: Optional[float]
    adaptation_seconds: Optional[float]
    skr_ci: Tuple[float, float]
    qber_ci: Tuple[float, float]
    abort_ci: Tuple[float, float]


def nominal_control(proto: ProtocolConfig) -> ControlState:
    mu_s, mu_w = PROTOCOLS[proto.kind].nominal(proto)
    return ControlState(mu_s=mu_s, mu_w=mu_w, p_z=NOMINAL_P_Z)


def nominal_skr_ref(link: LinkParams, proto: ProtocolConfig) -> float:
    """Asymptotic throughput at nominal parameters and zero added noise."""
    return max(operating_point(link, proto)[2].r_bps, 1e-9)


def _recalib_mu(t: int, records: Sequence[BlockRecord]) -> float:
    """The recalibration baseline's signal intensity at block ``t``, given
    the blocks before it: every RECALIB_PERIOD blocks it scans RECALIB_GRID,
    one value a block, then holds the value whose scan block had the first
    largest ``skr_bps``, an aborted block's rate being 0."""
    pos = t % RECALIB_PERIOD
    if pos < len(RECALIB_GRID):
        return RECALIB_GRID[pos]
    scan = [r.skr_bps for r in records[t - pos:t - pos + len(RECALIB_GRID)]]
    return RECALIB_GRID[scan.index(max(scan))]


def run_episode(
    link: LinkParams,
    proto: ProtocolConfig,
    scenario: Union[str, NoiseSchedule],
    kind: str,
    seed: int,
    blocks: int,
    channel: ChannelConfig = ChannelConfig(),
    tcn_model: Optional[TcnModel] = None,
    nets: Optional[ActorCritic] = None,
    reward_cfg: RewardConfig = RewardConfig(),
) -> EpisodeLog:
    """One (scenario, seed, controller) run; deterministic under fixed inputs.

    The ML controller (``tcn_model`` and ``nets``) consumes the previous
    block's normalized telemetry and forecast, then acts; the transition
    goes to ``nets.buffer`` and a PPO update fires whenever that buffer
    reaches ``nets.cfg.rollout`` (its report lands in ``EpisodeLog.updates``).
    The buffer and the optimizer are the nets' own, so they carry over to
    the next episode run with the same nets. Rewards scale the rate by
    :func:`nominal_skr_ref`. An abort resets the control state to nominal.
    """
    if kind not in CONTROLLER_KINDS:
        raise ConfigMismatchError(f"unknown controller kind {kind!r}")
    sched = scenario if isinstance(scenario, NoiseSchedule) else make_scenario(scenario, blocks)
    sim = Simulator(link, proto, sched, seed=seed * 4 + 1, channel=channel)
    skr_ref = nominal_skr_ref(link, proto)
    nominal = nominal_control(proto)
    ctrl = nominal
    log = EpisodeLog(scenario=sched.name, seed=seed, controller=kind)

    forecaster: Optional[Forecaster] = None
    policy_rng: Optional[np.random.Generator] = None
    if kind == "ml":
        if tcn_model is None or nets is None:
            raise ConfigMismatchError("ml controller requires a forecaster and networks")
        forecaster = Forecaster(tcn_model)
        policy_rng = np.random.Generator(np.random.Philox(key=seed * 4 + 2))

    z_tm: Optional[np.ndarray] = None  # previous block's normalized telemetry

    for t in range(blocks):
        if z_tm is not None:  # the ml controller, from block 1 on
            obs = observe(forecaster.forecast(), z_tm, ctrl)
            sample = act(nets, obs, policy_rng, protocol=proto.kind)
            ctrl = apply_action(ctrl, sample.action)
        elif kind == "recalib":
            ctrl = replace(nominal, mu_s=_recalib_mu(t, log.records))

        telem = sim.step(ctrl)
        skr_bps, skr_finite = block_key_rate(link, proto, ctrl, telem)
        if telem.aborted:
            skr_bps, skr_finite = 0.0, 0.0
        r = reward_fn(skr_bps, min(telem.e_mu_hat, 0.5), telem.aborted, reward_cfg, skr_ref)

        if z_tm is not None:  # the ml controller acted on this block
            nets.buffer.add(obs, sample.pre_squash, sample.log_prob, sample.value,
                            r, sample.action.mask)
            if len(nets.buffer) >= nets.cfg.rollout:
                log.updates.append(ppo_update(nets.buffer, nets))

        log.records.append(BlockRecord(ctrl=ctrl, telem=telem, skr_bps=skr_bps,
                                       skr_finite=skr_finite, reward=r))
        if forecaster is not None:
            z_tm = forecaster.push(telemetry_features(telem))
        if telem.aborted:
            ctrl = nominal
    return log


def train_policy(
    link: LinkParams,
    proto: ProtocolConfig,
    tcn_model: TcnModel,
    seed: int,
    train: TrainConfig = TrainConfig(),
    ppo_cfg: Optional[PpoConfig] = None,
    reward_cfg: RewardConfig = RewardConfig(),
    channel: ChannelConfig = ChannelConfig(),
) -> Tuple[ActorCritic, List[Dict[str, float]]]:
    """Train the PPO controller on ``train.ppo_scenarios`` in turn until
    ``train.ppo_updates`` policy updates have run, streaming rollouts
    across episode resets."""
    ppo_cfg = ppo_cfg or PpoConfig()
    nets = ActorCritic(ppo_cfg, rng=np.random.Generator(np.random.Philox(key=seed * 4 + 3)))
    progress: List[Dict[str, float]] = []
    episode = 0
    while len(progress) < train.ppo_updates:
        scen = train.ppo_scenarios[episode % len(train.ppo_scenarios)]
        progress += run_episode(
            link, proto, scen, "ml", seed=100_000 + seed * 1_000 + episode,
            blocks=train.ppo_blocks, channel=channel, tcn_model=tcn_model,
            nets=nets, reward_cfg=reward_cfg,
        ).updates
        episode += 1
    return nets, progress[:train.ppo_updates]


def forecaster_corpus(train: TrainConfig, window: int, link: LinkParams, proto: ProtocolConfig,
                      channel: ChannelConfig, seed: int) -> Dataset:
    """The forecaster's training corpus, (windows (N, window, F), targets
    (N, F)): ``train.tcn_blocks`` blocks of static-control telemetry from
    each of ``train.tcn_scenarios``, sliced by :func:`tcn.make_dataset`
    scenario by scenario, each scenario's pairs in turn, so no window spans
    two scenarios and N = len(tcn_scenarios) * (tcn_blocks - window).
    Raises ``ValueError``, before any block runs, when tcn_blocks <= window."""
    if train.tcn_blocks <= window:
        raise ValueError(f"train.tcn_blocks {train.tcn_blocks} per scenario is too few for "
                         f"one tcn.window of {window} blocks and the block after it")
    ctrl = nominal_control(proto)
    series = []
    for i, scen in enumerate(train.tcn_scenarios):
        sim = Simulator(link, proto, make_scenario(scen, train.tcn_blocks),
                        seed=(seed * 977 + i) * 4 + 1, channel=channel)
        series.append([telemetry_features(sim.step(ctrl)) for _ in range(train.tcn_blocks)])
    return make_dataset(np.asarray(series), window)


def adaptation_time(log: EpisodeLog, event_block: int,
                    pre_window: int = PRE_EVENT_WINDOW,
                    recovery_fraction: float = 0.95,
                    sustain: int = 3) -> Optional[int]:
    """Blocks until the rate stays above the pre-event reference.

    Returns the smallest tau such that skr_bps >= recovery_fraction times
    the median over the ``pre_window`` blocks before the event, sustained
    for ``sustain`` consecutive blocks; None if never recovered. After a
    persistent loss step the pre-event reference cannot be reached, so a
    caller who knows the event's loss passes it through
    ``recovery_fraction`` (e.g. ``0.95 * 10 ** (-dB / 10)``).
    """
    series = log.skr_series()
    if event_block < pre_window or event_block >= len(series):
        raise ValueError("insufficient pre-event history")
    pre_median = float(np.median(series[event_block - pre_window:event_block]))
    threshold = recovery_fraction * pre_median
    for tau in range(0, len(series) - event_block - sustain + 1):
        window = series[event_block + tau:event_block + tau + sustain]
        if np.all(window >= threshold):
            return tau
    return None


def bootstrap_ci(values: Sequence[float], n_boot: int = 10_000,
                 conf: float = 0.95, seed: int = 0) -> Tuple[float, float]:
    """Percentile bootstrap CI of the median of ``values``."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return math.nan, math.nan
    if np.all(values == values[0]):
        return float(values[0]), float(values[0])
    rng = np.random.Generator(np.random.Philox(key=seed))
    stats = np.median(
        values[rng.integers(0, values.size, size=(n_boot, values.size))], axis=1)
    lo = float(np.percentile(stats, 100 * (1 - conf) / 2))
    hi = float(np.percentile(stats, 100 * (1 + conf) / 2))
    return lo, hi


@dataclass
class ComparisonResult:
    scenario: str
    metrics: Dict[str, RunMetrics]
    improvements: List[Tuple[str, str, float, float, float]]

    def csv(self) -> str:
        lines = [METRICS_CSV_HEADER]

        def fmt(x) -> str:
            if x is None or (isinstance(x, float) and math.isnan(x)):
                return "nan"
            return f"{x:.10g}"

        for name, m in self.metrics.items():
            rows = [
                ("median_skr_bps", m.median_skr_bps, *m.skr_ci),
                ("median_qber", m.median_qber, *m.qber_ci),
                ("abort_count", m.abort_count, *m.abort_ci),
            ]
            if m.adaptation_blocks is not None:
                rows.append(("adaptation_blocks", m.adaptation_blocks, math.nan, math.nan))
                rows.append(("adaptation_seconds", m.adaptation_seconds, math.nan, math.nan))
            for metric, val, lo, hi in rows:
                lines.append(f"{name},{self.scenario},{metric},{fmt(val)},{fmt(lo)},{fmt(hi)}")
        for ctrl, metric, val, lo, hi in self.improvements:
            lines.append(f"{ctrl},{self.scenario},{metric},{fmt(val)},{fmt(lo)},{fmt(hi)}")
        return "\n".join(lines) + "\n"


def compare(runs: Dict[str, List[EpisodeLog]], warmup: int = LoopConfig.warmup,
            event_block: Optional[int] = None, n_boot: int = 10_000,
            block_seconds: float = ChannelConfig.block_seconds) -> ComparisonResult:
    """Aggregate per-controller metrics and ML-vs-baseline improvements.

    Medians are taken over post-warm-up blocks pooled across seeds;
    bootstrap CIs resample the seed-level aggregates.
    """
    if len(runs) < 2:
        raise ValueError("compare needs at least two controllers")
    blocks = min(len(log.records) for logs in runs.values() for log in logs)
    if blocks <= warmup:
        raise ValueError(f"no block left after warm-up: {blocks} blocks, warmup {warmup}")
    scen_sets = {name: tuple(sorted((l.scenario, l.seed) for l in logs))
                 for name, logs in runs.items()}
    if len(set(scen_sets.values())) != 1:
        raise ValueError("controllers must cover identical scenario/seed sets")
    scenario = next(iter(runs.values()))[0].scenario

    metrics: Dict[str, RunMetrics] = {}
    seed_meds: Dict[str, Dict[str, List[float]]] = {}
    for name, logs in runs.items():
        pooled_skr, pooled_qber = [], []
        skr_meds, qber_meds, aborts, adapts = [], [], [], []
        for log in logs:
            skr = log.skr_series()[warmup:]
            qber = log.qber_series()[warmup:]
            pooled_skr.append(skr)
            pooled_qber.append(qber)
            skr_meds.append(float(np.median(skr)))
            qber_meds.append(float(np.median(qber)))
            aborts.append(float(log.abort_count()))
            adapt = (adaptation_time(log, event_block)
                     if event_block is not None else None)
            if adapt is not None:
                adapts.append(float(adapt))
        adapt_agg = float(np.median(adapts)) if adapts else (
            math.nan if event_block is not None else None)
        metrics[name] = RunMetrics(
            median_skr_bps=float(np.median(np.concatenate(pooled_skr))),
            median_qber=float(np.median(np.concatenate(pooled_qber))),
            abort_count=float(np.sum(aborts)),
            adaptation_blocks=adapt_agg,
            adaptation_seconds=(None if adapt_agg is None
                                else adapt_agg * block_seconds),
            skr_ci=bootstrap_ci(skr_meds, n_boot, seed=1),
            qber_ci=bootstrap_ci(qber_meds, n_boot, seed=2),
            abort_ci=bootstrap_ci(aborts, n_boot, seed=3),
        )
        seed_meds[name] = {"skr": skr_meds, "qber": qber_meds}

    improvements: List[Tuple[str, str, float, float, float]] = []
    if "ml" in runs and "static" in runs:
        ml, st = seed_meds["ml"], seed_meds["static"]
        improvements.append(("ml", "skr_improvement_vs_static_pct", *_paired_bootstrap(
            lambda m, s: 100.0 * (m - s) / s, ml["skr"], st["skr"], n_boot, seed=4)))
        improvements.append(("ml", "qber_ratio_vs_static", *_paired_bootstrap(
            lambda m, s: m / s, ml["qber"], st["qber"], n_boot, seed=5)))
    return ComparisonResult(scenario=scenario, metrics=metrics,
                            improvements=improvements)


def _paired_bootstrap(stat: Callable, ml: Sequence[float], static: Sequence[float],
                      n_boot: int, seed: int) -> Tuple[float, float, float]:
    """``stat(median ml, median static)`` and its 95% percentile CI, with
    seeds resampled in (ml, static) pairs; nan when the static median is 0."""
    ml = np.asarray(ml, dtype=float)
    static = np.asarray(static, dtype=float)
    st_med = float(np.median(static))
    val = math.nan if st_med == 0 else stat(float(np.median(ml)), st_med)
    if np.all(ml == ml[0]) and np.all(static == static[0]):
        return val, val, val
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = rng.integers(0, ml.size, size=(n_boot, ml.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        boot = stat(np.median(ml[idx], axis=1), np.median(static[idx], axis=1))
    boot = boot[np.isfinite(boot)]
    if boot.size == 0:
        return val, math.nan, math.nan
    return val, float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5))
