import numpy as np
import pytest

from optiqkd import loop
from optiqkd.channel import ChannelConfig, ControlState, NoiseSchedule, Telemetry
from optiqkd.controller import PpoConfig, ActorCritic
from optiqkd.loop import (BlockRecord, ConfigMismatchError,
                          EPISODE_CSV_HEADER, EpisodeLog, METRICS_CSV_HEADER,
                          RECALIB_GRID, adaptation_time, bootstrap_ci, compare,
                          nominal_control, nominal_skr_ref, run_episode)
from optiqkd.rates import LinkParams, ProtocolConfig
from optiqkd.tcn import Forecaster, TcnConfig, TcnModel

from oracles import operating_point_oracle

LINK = LinkParams()
PROTO = ProtocolConfig()


def small_tcn(key=2):
    """The smallest forecaster the ML controller runs with."""
    cfg = TcnConfig(dilations=(1,), kernel=2, hidden=4, window=2)
    return TcnModel(cfg, np.random.Generator(np.random.Philox(key=key)))


def storm(blocks):
    """A custom schedule of heavy depolarizing noise (p = 0.4) throughout."""
    return NoiseSchedule(blocks, np.full(blocks, 0.4), np.zeros(blocks), np.zeros(blocks),
                         name="storm")


@pytest.fixture
def ml_calls(monkeypatch):
    """Counts of the closed loop's ``act`` calls and of the forecasts that
    ran the model (not the persistence fallback) while the test runs."""
    counts = {"act": 0, "forecast": 0}
    act, forecast = loop.act, Forecaster.forecast

    def counted_act(*args, **kwargs):
        counts["act"] += 1
        return act(*args, **kwargs)

    def counted_forecast(self):
        before = self.calls
        out = forecast(self)
        counts["forecast"] += self.calls - before
        return out

    monkeypatch.setattr(loop, "act", counted_act)
    monkeypatch.setattr(Forecaster, "forecast", counted_forecast)
    return counts


def synthetic_log(skr_values, controller="static", scenario="synthetic", seed=0):
    log = EpisodeLog(scenario=scenario, seed=seed, controller=controller)
    telem = Telemetry(block_index=0, n_pulses=1, n_sifted=1, n_errors=0,
                      q_mu_hat=0.0, e_mu_hat=0.0, e_lo=0.0, e_hi=0.0,
                      v_hat=1.0, eta_hat=0.0)
    for i, v in enumerate(skr_values):
        log.records.append(BlockRecord(ctrl=ControlState(), telem=telem, skr_bps=float(v),
                                       skr_finite=0.0, reward=0.0))
    return log


class TestRunEpisode:
    def test_nominal_static_no_aborts_positive_rate(self):
        logs = [run_episode(LINK, PROTO, "nominal", "static", seed=s, blocks=220)
                for s in (1, 2, 3)]
        for log in logs:
            assert log.abort_count() == 0
        meds = [float(np.median(log.skr_series()[100:])) for log in logs]
        lo, hi = bootstrap_ci(meds, n_boot=2000)
        assert lo > 0.0  # interval excludes zero

    def test_forced_high_qber_aborts_fast(self):
        log = run_episode(LINK, PROTO, storm(10), "static", seed=1, blocks=10)
        aborted_at = [r.telem.block_index for r in log.records if r.telem.aborted]
        assert aborted_at and aborted_at[0] <= 2

    def test_determinism_bitwise(self):
        a = run_episode(LINK, PROTO, "noise-sweep", "static", seed=7, blocks=210)
        b = run_episode(LINK, PROTO, "noise-sweep", "static", seed=7, blocks=210)
        assert a.csv() == b.csv()

    def test_static_control_constant(self):
        log = run_episode(LINK, PROTO, "nominal", "static", seed=1, blocks=30)
        nominal = nominal_control(PROTO)
        assert all(r.ctrl == nominal for r in log.records)

    def test_abort_zeroes_rate_and_resets(self):
        log = run_episode(LINK, PROTO, storm(12), "recalib", seed=2, blocks=12)
        for r in log.records:
            if r.telem.aborted:
                assert r.skr_bps == 0.0 and r.skr_finite == 0.0

    def test_finite_never_exceeds_asymptotic(self):
        log = run_episode(LINK, PROTO, "noise-sweep", "static", seed=3, blocks=210)
        for r in log.records:
            assert r.skr_finite <= r.skr_bps + 1e-9

    def test_secret_bit_accounting(self):
        log = run_episode(LINK, PROTO, "nominal", "static", seed=4, blocks=50)
        total = float(log.skr_series().sum())
        lines = log.csv().strip().split("\n")[1:]
        col = EPISODE_CSV_HEADER.split(",").index("skr_bps")
        from_csv = sum(float(row.split(",")[col]) for row in lines)
        assert from_csv == pytest.approx(total, rel=1e-9)

    def test_csv_header_schema(self):
        log = run_episode(LINK, PROTO, "nominal", "static", seed=5, blocks=5)
        lines = log.csv().strip().split("\n")
        assert lines[0] == EPISODE_CSV_HEADER
        assert all(len(l.split(",")) == len(EPISODE_CSV_HEADER.split(","))
                   for l in lines[1:])
        assert lines[1].endswith("static")

    def test_controller_isolation(self, ml_calls):
        for kind in ("static", "recalib"):
            run_episode(LINK, PROTO, "nominal", kind, seed=6, blocks=40)
        assert ml_calls == {"act": 0, "forecast": 0}

    def test_ml_requires_networks(self):
        with pytest.raises(ConfigMismatchError):
            run_episode(LINK, PROTO, "nominal", "ml", seed=1, blocks=10)

    def test_ml_requires_forecaster(self):
        nets = ActorCritic(PpoConfig(), rng=np.random.Generator(np.random.Philox(key=1)))
        with pytest.raises(ConfigMismatchError, match="forecaster"):
            run_episode(LINK, PROTO, "nominal", "ml", seed=1, blocks=10, nets=nets)

    def test_unknown_controller(self):
        with pytest.raises(ConfigMismatchError):
            run_episode(LINK, PROTO, "nominal", "pid", seed=1, blocks=10)

    def test_ml_uses_models_and_is_deterministic(self, ml_calls):
        cfg = PpoConfig(rollout=64, minibatch=32)
        def fresh():
            return ActorCritic(cfg, rng=np.random.Generator(np.random.Philox(key=1)))
        a, b = (run_episode(LINK, PROTO, "nominal", "ml", seed=8, blocks=80,
                            tcn_model=small_tcn(), nets=fresh()) for _ in range(2))
        assert a.csv() == b.csv()
        # per episode: acts from block 1 on; the first forecast, on one row,
        # falls back to persistence
        assert ml_calls == {"act": 2 * 79, "forecast": 2 * 78}

    def test_ml_forecaster_sees_at_most_window_rows(self, ml_calls, monkeypatch):
        cfg = TcnConfig(dilations=(1, 2), hidden=6, window=8)
        model = TcnModel(cfg, np.random.Generator(np.random.Philox(key=3)))
        nets = ActorCritic(PpoConfig(), rng=np.random.Generator(np.random.Philox(key=1)))
        spans = []
        original = Forecaster.forecast

        def spy(self):
            spans.append([len(q) for q in self.queues])
            return original(self)

        monkeypatch.setattr(Forecaster, "forecast", spy)
        run_episode(LINK, PROTO, "noise-sweep", "ml", seed=4, blocks=300,
                    tcn_model=model, nets=nets)
        assert len(spans) == 299
        # each layer keeps its (k-1)*d + 1 inputs, never more than the window
        assert all(s == [3, 5] for s in spans)
        assert max(map(max, spans)) <= cfg.window
        assert ml_calls["forecast"] == 299 - (cfg.window - 1)  # warm-up falls back

    def test_learner_state_carries_over_episodes(self):
        # the buffer and the optimizer live on the nets, not the episode
        cfg = PpoConfig(rollout=64, minibatch=32)
        nets = ActorCritic(cfg, rng=np.random.Generator(np.random.Philox(key=1)))
        first = run_episode(LINK, PROTO, "nominal", "ml", seed=1, blocks=50,
                            tcn_model=small_tcn(), nets=nets)
        assert first.updates == []
        assert len(nets.buffer) == 49  # acts from block 1 on
        second = run_episode(LINK, PROTO, "noise-sweep", "ml", seed=2, blocks=50,
                             tcn_model=small_tcn(), nets=nets)
        assert len(second.updates) == 1
        assert len(nets.buffer) == 2 * 49 - cfg.rollout
        assert nets.opt.state["t"] == cfg.epochs * 2  # two minibatches an epoch


class TestRecalib:
    def test_scan_then_hold(self):
        log = run_episode(LINK, PROTO, "nominal", "recalib", seed=9, blocks=30)
        mus = [r.ctrl.mu_s for r in log.records]
        assert mus[:5] == list(RECALIB_GRID)
        assert len(set(mus[5:15])) == 1  # frozen at the scan argmax
        assert mus[15:20] == list(RECALIB_GRID)

    def test_scan_picks_measured_argmax(self):
        log = run_episode(LINK, PROTO, "nominal", "recalib", seed=10, blocks=20)
        scan_skr = [log.records[t].skr_bps for t in range(5)]
        held = log.records[6].ctrl.mu_s
        assert held == RECALIB_GRID[int(np.argmax(scan_skr))]

    @pytest.mark.parametrize("kind", ["bb84", "e91", "cow"])
    def test_hold_after_abort_keeps_scan_argmax(self, kind):
        # an abort resets the ml controller to nominal; recalib's next held
        # block still holds its scan's argmax
        proto = ProtocolConfig(kind=kind)
        log = run_episode(LINK, proto, "sine-drift", "recalib", seed=3, blocks=100,
                          channel=ChannelConfig(n_pulses=2000, abort_qber=0.05))
        held_after_abort = [t for t in range(1, 100)
                            if log.records[t - 1].telem.aborted and t % 15 >= 5]
        moved = 0
        for t in held_after_abort:
            start = t - t % 15
            scan = [r.skr_bps for r in log.records[start:start + 5]]
            best = RECALIB_GRID[int(np.argmax(scan))]
            assert log.records[t].ctrl.mu_s == best, t
            moved += best != nominal_control(proto).mu_s
        assert moved > 0

    def test_first_post_event_change_at_next_scan(self):
        log = run_episode(LINK, PROTO, "splice-3db", "recalib", seed=11, blocks=210)
        mus = [r.ctrl.mu_s for r in log.records]
        event = 105  # next scan boundary after the event at block 105
        # blocks 95..104 are the held segment of the cycle starting at 90
        assert len(set(mus[95:105])) == 1
        assert mus[105:110] == list(RECALIB_GRID)


class TestAdaptationTime:
    def test_synthetic_recovery(self):
        pre = [100.0] * 50
        post = [60.0, 60.0, 70.0, 96.0, 97.0, 98.0, 99.0, 99.0]
        log = synthetic_log(pre + post)
        assert adaptation_time(log, event_block=50) == 3

    def test_never_recovered(self):
        log = synthetic_log([100.0] * 50 + [40.0] * 30)
        assert adaptation_time(log, event_block=50) is None

    def test_oscillation_needs_sustained_triple(self):
        post = [50.0, 96.0, 80.0, 96.0, 96.0, 96.0, 96.0]
        log = synthetic_log([100.0] * 50 + post)
        assert adaptation_time(log, event_block=50) == 3

    def test_insufficient_history(self):
        log = synthetic_log([100.0] * 30)
        with pytest.raises(ValueError):
            adaptation_time(log, event_block=20)


class TestCompare:
    def _runs(self, vals_a, vals_b, seeds=(1, 2)):
        return {
            "ml": [synthetic_log(vals_a, "ml", seed=s) for s in seeds],
            "static": [synthetic_log(vals_b, "static", seed=s) for s in seeds],
        }

    def test_self_comparison_zero_improvement(self):
        vals = [100.0] * 150
        runs = self._runs(vals, vals)
        res = compare(runs, warmup=50)
        imp = dict((m, (v, lo, hi)) for _, m, v, lo, hi in res.improvements)
        v, lo, hi = imp["skr_improvement_vs_static_pct"]
        assert v == pytest.approx(0.0, abs=1e-12)
        assert lo <= 0.0 <= hi

    def test_bootstrap_degenerate_for_constant(self):
        lo, hi = bootstrap_ci([5.0, 5.0, 5.0])
        assert lo == hi == 5.0

    def test_improvement_definition(self):
        runs = self._runs([130.0] * 150, [100.0] * 150)
        res = compare(runs, warmup=50)
        imp = dict((m, v) for _, m, v, _, _ in res.improvements)
        assert imp["skr_improvement_vs_static_pct"] == pytest.approx(30.0)

    def test_mismatched_seed_sets_rejected(self):
        runs = {
            "ml": [synthetic_log([1.0] * 120, "ml", seed=1)],
            "static": [synthetic_log([1.0] * 120, "static", seed=2)],
        }
        with pytest.raises(ValueError):
            compare(runs, warmup=50)

    def test_metrics_csv_schema(self):
        runs = self._runs([120.0] * 150, [100.0] * 150)
        res = compare(runs, warmup=50)
        lines = res.csv().strip().split("\n")
        assert lines[0] == METRICS_CSV_HEADER
        assert all(len(l.split(",")) == 6 for l in lines[1:])
        controllers = {l.split(",")[0] for l in lines[1:]}
        assert {"ml", "static"} <= controllers

    def test_needs_two_controllers(self):
        with pytest.raises(ValueError):
            compare({"ml": [synthetic_log([1.0] * 120, "ml")]}, warmup=50)

    def test_no_block_after_warmup_rejected(self):
        runs = self._runs([100.0] * 150, [100.0] * 150)
        with pytest.raises(ValueError, match="no block left after warm-up"):
            compare(runs, warmup=150)


def test_nominal_skr_ref_positive_all_protocols():
    for kind, q in (("bb84", 0.5), ("e91", 0.5), ("cow", 0.81)):
        proto = ProtocolConfig(kind=kind)
        ref = nominal_skr_ref(LINK, proto)
        assert ref > 0.0
        _, _, r_pp = operating_point_oracle(kind, LINK.distance_km, q)
        assert ref == pytest.approx(r_pp * LINK.f_rep, rel=1e-9, abs=0.0)


def test_all_protocols_run_closed_loop():
    from optiqkd.config import default_config, typed
    cfg = default_config()
    ppo = PpoConfig(rollout=64, minibatch=32)
    for kind, frozen in (("e91", ("mu_s", "phi_c")), ("cow", ("p_z", "theta_c"))):
        proto = typed(cfg, "protocol", kind=kind)
        st = run_episode(LINK, proto, "nominal", "static", seed=2, blocks=60)
        assert np.median(st.skr_series()) > 0.0
        nets = ActorCritic(ppo, rng=np.random.Generator(np.random.Philox(key=3)))
        ml = run_episode(LINK, proto, "nominal", "ml", seed=2, blocks=60,
                         tcn_model=small_tcn(), nets=nets)
        nominal = nominal_control(proto)
        for rec in ml.records:
            for name in frozen:  # masked components never move
                assert getattr(rec.ctrl, name) == getattr(nominal, name)
