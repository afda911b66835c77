"""Call-site timers and span tracing for the benchmark's runs.

Every timer is installed from the benchmark's own files by replacing a
function at the name its caller looks it up by (for example ``loop.act``,
which ``run_episode`` calls, or ``nn.conv1d_causal``, which
``Conv1dCausalLayer.__call__`` calls) and is removed again when the op
ends. Nothing in ``src/`` records anything.

* :class:`EpisodeTimer` is one timer per closed-loop episode and per
  training-corpus build. It stays on in untraced runs.
* :class:`Tracer` records a span per call of every traced function, keeps
  the spans in flat in-memory arrays and writes them out at the end. A
  span's self time is its duration minus the durations of its child spans.
  It also counts, from outside, the silent events whose ratios the traced
  run reports.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from optiqkd import channel, cli, controller, loop, nn, rates, tcn

perf = time.perf_counter


@contextmanager
def patched(replacements: List[Tuple[object, str, Callable]]):
    """Replace ``owner.attr`` by ``make(original)`` for each triple and
    restore the originals on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class EpisodeTimer:
    """Times each ``run_episode`` call and the start of TCN training.

    ``cli.run_episode`` is the call site of ``eval`` and ``simulate``;
    ``loop.run_episode`` is the one ``train_policy`` looks up.
    ``cli.train_forecaster`` marks the end of the training-corpus build in
    ``train tcn``, which steps the channel under static control.
    """

    def __init__(self):
        self.episodes: List[Tuple[str, int, float, float]] = []  # (controller, blocks, t0, t1)
        self.train_start: Optional[float] = None

    def _time_episode(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf()
            log = fn(*args, **kwargs)
            self.episodes.append((log.controller, len(log.records), t0, perf()))
            return log
        return timed

    def _mark_training(self, fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if self.train_start is None:
                self.train_start = perf()
            return fn(*args, **kwargs)
        return marked

    def installed(self):
        return patched([
            (cli, "run_episode", self._time_episode),
            (loop, "run_episode", self._time_episode),
            (cli, "train_forecaster", self._mark_training),
        ])


# label -> the call sites it is installed at. Modules are patched at the
# attribute their callers read; methods on their class.
CALL_SITES: Dict[str, List[Tuple[object, str]]] = {
    "nn.conv1d_causal": [(nn, "conv1d_causal")],
    "nn.dense": [(nn, "dense")],
    "nn.backward": [(nn, "backward")],
    "nn.adam_step": [(nn, "adam_step")],
    "nn.save_checkpoint": [(nn, "save_checkpoint")],
    "nn.load_checkpoint": [(nn, "load_checkpoint")],
    "tcn.Forecaster.forecast": [(tcn.Forecaster, "forecast")],
    "tcn.tcn_forward": [(tcn, "tcn_forward")],
    "tcn.tcn_train": [(tcn, "tcn_train")],
    "tcn.dataset_mse": [(tcn, "dataset_mse")],
    "controller.act": [(loop, "act")],
    "controller.observe": [(loop, "observe")],
    "controller.apply_action": [(loop, "apply_action")],
    "controller.ppo_update": [(loop, "ppo_update")],
    "loop.run_episode": [(cli, "run_episode"), (loop, "run_episode")],
    "loop.block_key_rate": [(loop, "block_key_rate")],
    "loop.compare": [(loop, "compare")],
    "channel.Simulator.step": [(channel.Simulator, "step")],
    "rates.decoy_bounds": [(rates, "decoy_bounds")],
    "rates.bb84_key_rate": [(rates, "bb84_key_rate")],
}
FUNCTIONS = tuple(CALL_SITES)
BENCH_SPANS = ("bench.setup", "bench.op")
MODULES = ("nn", "tcn", "controller", "loop", "channel", "rates")


# Forecaster.calls counts model-backed forecasts; a call that leaves it
# unchanged fell back to persistence.
_BEFORE = {"tcn.Forecaster.forecast": lambda args: args[0].calls}


def _clamped(args, kwargs, out) -> bool:
    """True when the safety filter changed the integrated knob values."""
    ctrl = args[0] if args else kwargs["ctrl"]
    act_ = args[1] if len(args) > 1 else kwargs["action"]
    unclamped = (ctrl.mu_s + act_.d_mu_s, ctrl.mu_w + act_.d_mu_w,
                 ctrl.p_z + act_.d_pz, ctrl.theta_c + act_.d_theta_c,
                 ctrl.phi_c + act_.d_phi_c)
    return unclamped != (out.mu_s, out.mu_w, out.p_z, out.theta_c, out.phi_c)


class Tracer:
    """In-memory span recorder for the traced run."""

    def __init__(self):
        self.names = list(FUNCTIONS) + list(BENCH_SPANS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.self_time = array("d")
        self._stack: List[List] = []  # [span index, summed child duration, start]
        # Seconds spent in speed probes (see speed.py). Spans run on a clock
        # that stops while a probe runs, so probes add to no span.
        self.paused = 0.0
        self.probes: List[Tuple[float, float]] = []  # (start on span clock, probe s)
        self.events: Dict[str, int] = defaultdict(int)
        self.ml_episodes: List[Tuple[int, int]] = []  # (span index, blocks)

    # -- recording ---------------------------------------------------------
    def _open(self, label: str) -> List:
        idx = len(self.name_id)
        self.name_id.append(self._ids[label])
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.dur.append(0.0)
        self.self_time.append(0.0)
        frame = [idx, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = perf() - self.paused
        self.start.append(frame[2])
        return frame

    def _close(self, frame: List) -> None:
        d = perf() - self.paused - frame[2]
        self._stack.pop()
        self.dur[frame[0]] = d
        self.self_time[frame[0]] = d - frame[1]
        if self._stack:
            self._stack[-1][1] += d

    def probe_taken(self, start: float, handler_s: float, probe_s: float) -> None:
        self.probes.append((start - self.paused, probe_s))
        self.paused += handler_s

    def _speed(self, t0: float, t1: float) -> float:
        """Mean inverse probe time over [t0, t1] on the span clock, or over
        the five probes nearest to it."""
        starts = np.array([p[0] for p in self.probes])
        inv = 1.0 / np.array([p[1] for p in self.probes])
        sel = (starts >= t0) & (starts <= t1)
        if sel.sum() < 5:
            sel = np.argsort(np.abs(starts - 0.5 * (t0 + t1)))[:5]
        return float(inv[sel].mean())

    @contextmanager
    def span(self, label: str):
        frame = self._open(label)
        try:
            yield
        finally:
            self._close(frame)

    def _wrap(self, label: str, fn: Callable):
        tracer = self
        before, after = _BEFORE.get(label), self._after(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(label)
            state = before(args) if before is not None else None
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.events[f"{label}:raised:{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(frame)
            if after is not None:
                after(frame[0], args, kwargs, out, state)
            return out
        return traced

    # -- ratio counters, measured at the call site -------------------------
    def _after(self, label: str) -> Optional[Callable]:
        ev = self.events

        def act_(idx, args, kwargs, out, state):
            ev["act_fallback"] += bool(out.fallback)

        def apply_(idx, args, kwargs, out, state):
            ev["clamp"] += _clamped(args, kwargs, out)

        def forecast_(idx, args, kwargs, out, calls_before):
            ev["forecast_fallback"] += args[0].calls == calls_before

        def step_(idx, args, kwargs, out, state):
            ev["abort"] += bool(out.aborted)

        def episode_(idx, args, kwargs, out, state):
            if out.controller == "ml":
                self.ml_episodes.append((idx, len(out.records)))

        return {"controller.act": act_, "controller.apply_action": apply_,
                "tcn.Forecaster.forecast": forecast_,
                "channel.Simulator.step": step_,
                "loop.run_episode": episode_}.get(label)

    def installed(self):
        return patched([
            (owner, attr, functools.partial(self._wrap, label))
            for label, sites in CALL_SITES.items() for owner, attr in sites
        ])

    # -- reporting ---------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "dur": np.frombuffer(self.dur, dtype=np.float64),
            "self_time": np.frombuffer(self.self_time, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def _subtree(self, a, idx: int) -> slice:
        """Index range of span ``idx`` and its descendants (spans are stored
        in start order, so descendants are the contiguous run after it)."""
        end = a["start"][idx] + a["dur"][idx]
        return slice(idx, int(np.searchsorted(a["start"], end, side="right")))

    def self_shares(self, root_label: str) -> Dict[str, float]:
        """Self time of each function inside all ``root_label`` spans, as a
        share of those spans' total duration."""
        a = self.arrays()
        roots = np.flatnonzero(a["name_id"] == self._ids[root_label])
        total = float(a["dur"][roots].sum())
        acc = np.zeros(len(self.names))
        for r in roots:
            sl = self._subtree(a, int(r))
            np.add.at(acc, a["name_id"][sl], a["self_time"][sl])
        return {n: float(acc[i]) / total for i, n in enumerate(self.names)
                if total > 0 and acc[i] > 0}

    def _longest_ml_episode(self) -> Tuple[int, int]:
        if not self.ml_episodes:
            raise RuntimeError("the traced run ran no ML episode")
        return max(self.ml_episodes, key=lambda e: e[1])

    def ml_episode_self_shares(self) -> Dict[str, float]:
        """Self-time shares inside the longest ML episode."""
        idx, _ = self._longest_ml_episode()
        a = self.arrays()
        sl = self._subtree(a, idx)
        acc = np.zeros(len(self.names))
        np.add.at(acc, a["name_id"][sl], a["self_time"][sl])
        return {n: float(acc[i]) / float(a["dur"][idx])
                for i, n in enumerate(self.names) if acc[i] > 0}

    def block_intervals(self, warmup: int) -> Tuple[np.ndarray, float]:
        """Gaps between successive ``Simulator.step`` starts inside the
        longest ML episode, and their growth: the median gap over the last
        10% of the episode over the median over the first 10% after
        ``warmup`` blocks. Each median is taken at the machine speed the
        probes measured over its stretch (see speed.py), so the growth
        compares work, not the speed of the core at two moments."""
        idx, blocks = self._longest_ml_episode()
        a = self.arrays()
        sl = self._subtree(a, idx)
        mine = (a["name_id"][sl] == self._ids["channel.Simulator.step"]) & (a["parent"][sl] == idx)
        starts = a["start"][sl][mine]
        gaps = np.diff(starts)
        tenth = max(1, blocks // 10)
        first = np.median(gaps[warmup:warmup + tenth]) * self._speed(
            starts[warmup], starts[warmup + tenth])
        last = np.median(gaps[-tenth:]) * self._speed(starts[-tenth - 1], starts[-1])
        return gaps, float(last / first)

    def function_stats(self) -> Dict[str, Dict[str, float]]:
        a = self.arrays()
        out = {}
        for label in FUNCTIONS:
            sel = a["name_id"] == self._ids[label]
            durs = a["dur"][sel]
            out[label] = {
                "calls": int(durs.size),
                "self_s": float(a["self_time"][sel].sum()),
                "p50_us": float(np.percentile(durs, 50)) * 1e6 if durs.size else 0.0,
                "p99_us": float(np.percentile(durs, 99)) * 1e6 if durs.size else 0.0,
            }
        return out
