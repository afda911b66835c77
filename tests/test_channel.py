import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optiqkd.channel import (SCENARIOS, ChannelConfig, ControlState, DEPOL_FRACTION,
                             MISALIGN_FRACTION, LinkSeries, NoiseSchedule, ScheduleEvent,
                             Simulator,
                             TELEMETRY_CSV_HEADER,
                             UnknownScenarioError, effective_link,
                             make_scenario, wilson_interval)
from optiqkd.rates import (PROTOCOLS, LinkParams, ProtocolConfig, e91_pair_gain,
                           operating_point, transmittance, wcp_gain)

from oracles import (SimulatorOracle, bit_level_sample_block, closed_form_gains_oracle,
                     effective_link_oracle, step_block_oracle, wilson_oracle)

LINK = LinkParams()
PROTO = ProtocolConfig()
CTRL = ControlState()


class RecordingGenerator:
    """Stands in for a generator: every binomial draw succeeds on all its
    trials, so every draw a sampler can make is made, and each draw's
    (trials, p) is recorded; the phase walk steps by 0."""

    def __init__(self):
        self.draws = []

    def binomial(self, n, p):
        self.draws.append((n, p))
        return n

    def standard_normal(self):
        return 0.0


def sampler_draws(link, proto, ctrl, eff, n_pulses, dphi):
    """The (trials, p) of each draw ``proto``'s sampler makes for one block."""
    spec, rng = PROTOCOLS[proto.kind], RecordingGenerator()
    spec.sample(rng, link, proto, ctrl, eff, n_pulses, spec.key_fraction(proto, ctrl.p_z), dphi)
    return rng.draws


def constant_schedule(blocks, depol_p=0.0, damp_gamma=0.0):
    """A custom schedule holding one depolarizing and damping level."""
    return NoiseSchedule(blocks, np.full(blocks, depol_p), np.full(blocks, damp_gamma),
                         np.zeros(blocks))


class TestScenarios:
    def test_nominal(self):
        sched = make_scenario("nominal", 50)
        assert np.all(sched.depol_p == 0.0)
        assert np.all(sched.damp_gamma == 0.0)
        assert sched.events == []

    def test_splice(self):
        sched = make_scenario("splice-3db", 200)
        assert len(sched.events) == 1
        ev = sched.events[0]
        assert ev.block_index == 100 and ev.magnitude == 3.0

    def test_noise_sweep_levels(self):
        sched = make_scenario("noise-sweep", 600)
        # six equal segments, stepped upward 0.0 -> 0.5
        level = np.repeat([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], 100)
        assert np.array_equal(sched.depol_p, DEPOL_FRACTION * level)
        assert np.array_equal(sched.misalign_err, MISALIGN_FRACTION * level)

    def test_sine_drift_is_sinusoidal_p(self):
        sched = make_scenario("sine-drift", 200)
        t = np.arange(200)
        assert np.allclose(sched.depol_p, 0.25 + 0.20 * np.sin(2 * np.pi * t / 24.0))

    def test_unknown_name(self):
        with pytest.raises(UnknownScenarioError):
            make_scenario("quantum-storm", 100)

    def test_event_ordering_enforced(self):
        with pytest.raises(ValueError):
            NoiseSchedule(10, np.zeros(10), np.zeros(10), np.zeros(10),
                          events=[ScheduleEvent(5, 0.1),
                                  ScheduleEvent(5, 0.1)])

    @pytest.mark.parametrize("block", [-1, 10])
    def test_event_outside_schedule_refused(self, block):
        with pytest.raises(ValueError, match=r"must lie in \[0, 10\)"):
            NoiseSchedule(10, np.zeros(10), np.zeros(10), np.zeros(10),
                          events=[ScheduleEvent(block, 0.1)])


class TestEffectiveLink:
    def test_depolarizing_visibility(self):
        link = LinkParams(e_d=0.0)  # perfect alignment
        sched = constant_schedule(10, depol_p=0.1)
        eff = effective_link(LinkSeries(link, sched), CTRL, 0)
        assert eff.v == pytest.approx(0.9, rel=1e-12)
        assert eff.e_d_eff == pytest.approx(0.05, rel=1e-12)

    def test_step_loss_db(self):
        sched = make_scenario("splice-3db", 200)
        before = effective_link(LinkSeries(LINK, sched), CTRL, 99)
        after = effective_link(LinkSeries(LINK, sched), CTRL, 100)
        assert before.eta == pytest.approx(transmittance(LINK), rel=1e-12)
        assert after.eta / before.eta == pytest.approx(10 ** -0.3, rel=1e-9)

    def test_damping_is_loss_only(self):
        sched = constant_schedule(10, damp_gamma=0.2)
        eff = effective_link(LinkSeries(LINK, sched), CTRL, 0)
        ref = effective_link(LinkSeries(LINK, make_scenario("nominal", 10)), CTRL, 0)
        assert eff.eta == pytest.approx(0.8 * ref.eta, rel=1e-12)
        assert eff.v == pytest.approx(ref.v, rel=1e-12)

    def test_intrinsic_error_realized_as_angle(self):
        eff = effective_link(LinkSeries(LINK, make_scenario("nominal", 10)), CTRL, 0)
        assert eff.e_d_eff == pytest.approx(LINK.e_d, rel=1e-9)
        # compensating the full angle removes the intrinsic misalignment
        theta = math.asin(math.sqrt(LINK.e_d))
        eff2 = effective_link(LinkSeries(LINK, make_scenario("nominal", 10)),
                              ControlState(theta_c=theta), 0)
        assert eff2.e_d_eff == pytest.approx(0.0, abs=1e-12)

    def test_cow_phase_compensation(self):
        # the COW sampler's last draw is the monitor line's phase errors
        series, cow = LinkSeries(LINK, make_scenario("nominal", 10)), ProtocolConfig(kind="cow")
        ctrl = ControlState(mu_s=0.5, phi_c=0.3)
        e_ph = sampler_draws(LINK, cow, ctrl, effective_link(series, ctrl, 0), 1000, 0.3)[-1][1]
        assert e_ph == pytest.approx(0.0, abs=1e-12)
        e_ph2 = sampler_draws(LINK, cow, CTRL, effective_link(series, CTRL, 0), 1000, 0.3)[-1][1]
        assert e_ph2 > 0.0

    def test_monotone_damage(self):
        # increasing p pointwise never decreases the model error rate
        grid = np.linspace(0.0, 0.6, 13)
        last = -1.0
        for p in grid:
            sched = constant_schedule(5, depol_p=float(p))
            eff = effective_link(LinkSeries(LINK, sched), CTRL, 0)
            e_mu = wcp_gain(0.5, eff.eta, LINK.y0, eff.e_d_eff)[1]
            assert e_mu >= last - 1e-15
            last = e_mu


class TestStepBlock:
    def test_dark_channel_degenerate_block(self):
        link = LinkParams(distance_km=2000.0, y0=0.0)
        t = Simulator(link, PROTO, make_scenario("nominal", 5), seed=1).step(CTRL)
        assert t.n_sifted == 0
        assert t.e_mu_hat == 0.5
        assert (t.e_lo, t.e_hi) == (0.0, 1.0)

    def test_estimate_concentration(self):
        t = Simulator(LINK, PROTO, make_scenario("nominal", 5), seed=1,
                      channel=ChannelConfig(n_pulses=1_000_000)).step(CTRL)
        q_mu = wcp_gain(0.5, transmittance(LINK), LINK.y0, LINK.e_d)[0]
        n_trials = round(1_000_000 * PROTO.bb84.p_s * 0.5)
        sigma = math.sqrt(q_mu * (1 - q_mu) / n_trials)
        assert abs(t.q_mu_hat - q_mu) < 5 * sigma

    def test_determinism(self):
        for proto in (PROTO, ProtocolConfig(kind="e91"), ProtocolConfig(kind="cow")):
            a = Simulator(LINK, proto, make_scenario("noise-sweep", 30), seed=9)
            b = Simulator(LINK, proto, make_scenario("noise-sweep", 30), seed=9)
            for _ in range(30):
                assert a.step(CTRL) == b.step(CTRL)

    def test_event_prefix_identity(self):
        a = Simulator(LINK, PROTO, make_scenario("splice-3db", 40), seed=3)
        b = Simulator(LINK, PROTO, make_scenario("nominal", 40), seed=3)
        for t in range(40):
            ta, tb = a.step(CTRL), b.step(CTRL)
            if t < 20:
                assert ta == tb
        assert ta != tb  # loss event visible after the midpoint

    def test_counts_nested(self):
        sim = Simulator(LINK, PROTO, make_scenario("noise-sweep", 20), seed=2,
                        channel=ChannelConfig(n_pulses=100_000))
        for _ in range(20):
            telem = sim.step(CTRL)
            assert telem.n_errors <= telem.n_sifted <= telem.n_pulses
            assert telem.e_lo <= telem.e_mu_hat <= telem.e_hi

    def test_abort_rule_two_consecutive(self):
        # forced high QBER: exceeds threshold every block
        sched = constant_schedule(10, depol_p=0.35)
        sim = Simulator(LINK, PROTO, sched, seed=5)
        flags = [sim.step(CTRL).aborted for _ in range(6)]
        assert flags[0] is False
        assert flags[1] is True  # second consecutive exceedance aborts
        assert True in flags[2:]  # session restarts and aborts again

    def test_no_abort_below_threshold(self):
        sim = Simulator(LINK, PROTO, make_scenario("nominal", 50), seed=6)
        assert not any(sim.step(CTRL).aborted for _ in range(50))

    def test_csv_row_format(self):
        telem = Simulator(LINK, PROTO, make_scenario("nominal", 5), seed=7).step(CTRL)
        row = telem.csv_row()
        assert len(row.split(",")) == len(TELEMETRY_CSV_HEADER.split(","))
        assert row.split(",")[-1] in ("0", "1")


def random_control(rng):
    """A control inside the controller's safe boxes."""
    mu_s = rng.uniform(0.1, 1.0)
    return ControlState(mu_s=mu_s, mu_w=rng.uniform(0.02, mu_s - 0.05),
                        p_z=rng.uniform(0.5, 0.95), theta_c=rng.uniform(-0.6, 0.6),
                        phi_c=rng.uniform(-math.pi, math.pi))


def run_against_oracle(link, proto, sched, seed, channel=ChannelConfig()):
    """Step ``Simulator`` and its per-block reference side by side
    under one random control per block; every telemetry field and the COW
    phase must be equal. Returns the telemetry and the phase after each
    block."""
    sim = Simulator(link, proto, sched, seed=seed, channel=channel)
    ref = SimulatorOracle(link, proto, sched, seed=seed, channel=channel)
    controls = np.random.default_rng(seed)
    telem, phases = [], []
    for _ in range(sched.blocks):
        ctrl = random_control(controls)
        got, want = sim.step(ctrl), ref.step(ctrl)
        assert dataclasses.astuple(got) == dataclasses.astuple(want), got.block_index
        assert sim.dphi == ref.dphi
        telem.append(got)
        phases.append(sim.dphi)
    return telem, phases


KINDS = ("bb84", "e91", "cow")
# fractional loss steps whose running sum depends on the order they are
# added in (0.1 + 0.2 + 0.3 is not 0.1 + (0.2 + 0.3)): one at the first
# block, one that gains back, one at the last block; the misalignment runs
# past both ends of [0, 1]
LOSS_STEPS = NoiseSchedule(
    60, np.full(60, 0.05), np.full(60, 0.1), np.linspace(-0.05, 1.2, 60), events=[
        ScheduleEvent(0, 0.1), ScheduleEvent(1, 0.2), ScheduleEvent(2, 0.3),
        ScheduleEvent(13, 0.7), ScheduleEvent(14, -0.3), ScheduleEvent(41, 1.9),
        ScheduleEvent(59, 3.0)])


class TestAgainstOracle:
    """``Simulator`` computes each run's link terms once and draws each
    block through its protocol's sampler; these pin both to the per-block
    code of ``tests/oracles.py``, which derives every term on every block
    and draws in one function for all three protocols."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenarios_with_random_controls(self, kind, scenario):
        run_against_oracle(LINK, ProtocolConfig(kind=kind), make_scenario(scenario, 120),
                           seed=SCENARIOS.index(scenario) * 10 + KINDS.index(kind))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scenario", SCENARIOS + ("loss-steps",))
    def test_effective_link_and_gains_are_the_oracles(self, kind, scenario):
        # the terms themselves, whose last bits a binomial draw may hide: the
        # link terms, and the trials and probability of every draw the
        # protocol's sampler makes (COW's monitor error among them)
        sched = LOSS_STEPS if scenario == "loss-steps" else make_scenario(scenario, 120)
        series, proto, n_pulses = LinkSeries(LINK, sched), ProtocolConfig(kind=kind), 10**6
        rng = np.random.default_rng(25)
        for t in range(sched.blocks):
            ctrl, dphi = random_control(rng), rng.uniform(-math.pi, math.pi)
            eff = effective_link(series, ctrl, t)
            eta, v, e_d_eff, _ = effective_link_oracle(LINK, sched, ctrl, t)
            assert tuple(eff) == (eta, v, e_d_eff, sched.depol_p[t]), t
            want = RecordingGenerator()
            step_block_oracle(LINK, sched, ctrl, proto, t, want, ChannelConfig(n_pulses), dphi)
            assert sampler_draws(LINK, proto, ctrl, eff, n_pulses, dphi) == want.draws, t
            for mu in (ctrl.mu_s, ctrl.mu_w):
                args = (mu, eff.eta, LINK.y0, eff.e_d_eff, LINK.e0)
                assert wcp_gain(*args) == closed_form_gains_oracle(*args), t

    @pytest.mark.parametrize("kind", KINDS)
    def test_aborts(self, kind):
        telem, _ = run_against_oracle(LINK, ProtocolConfig(kind=kind),
                                      constant_schedule(40, depol_p=0.35), seed=21)
        assert sum(t.aborted for t in telem) >= 5

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("link,channel", [
        (LinkParams(distance_km=2000.0, y0=0.0), ChannelConfig()),  # dark fiber
        (LINK, ChannelConfig(n_pulses=1)),  # too few pulses for a sifted trial
    ])
    def test_zero_sift_blocks(self, kind, link, channel):
        telem, _ = run_against_oracle(link, ProtocolConfig(kind=kind),
                                      make_scenario("noise-sweep", 30), seed=22, channel=channel)
        assert all(t.n_sifted == 0 and t.e_mu_hat == 0.5 for t in telem)

    @pytest.mark.parametrize("kind", KINDS)
    def test_few_pulses(self, kind):
        # trial counts of a few pulses, where rounding the splits shows
        run_against_oracle(LINK, ProtocolConfig(kind=kind), make_scenario("nominal", 200),
                           seed=26, channel=ChannelConfig(n_pulses=15))

    def test_cow_phase_drift(self):
        _, phases = run_against_oracle(LINK, ProtocolConfig(kind="cow"),
                                       make_scenario("nominal", 200), seed=23)
        assert len(set(phases)) == 200 and max(map(abs, phases)) > 0.05

    @pytest.mark.parametrize("kind", KINDS)
    def test_loss_steps_summed_in_event_order(self, kind):
        run_against_oracle(LINK, ProtocolConfig(kind=kind), LOSS_STEPS, seed=24)


# links at the edges of their ranges among them: no dark counts, a perfect
# detector and no fiber put E91's pair gain at its clamp of 1
LINKS = st.builds(LinkParams,
                  distance_km=st.one_of(st.just(0.0), st.floats(0.0, 300.0)),
                  eta_det=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
                  y0=st.one_of(st.just(0.0), st.floats(0.0, 1e-3)),
                  e_d=st.floats(0.0, 0.5), e0=st.floats(0.0, 0.5))
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(kind=st.sampled_from(KINDS), link=LINKS, scenario=st.sampled_from(SCENARIOS),
       n_pulses=st.integers(1, 10**6), seed=st.integers(0, 2**32))
@example(kind="e91", link=LinkParams(distance_km=0.0, eta_det=1.0, y0=0.0),
         scenario="nominal", n_pulses=10**6, seed=1)
@example(kind="e91", link=LinkParams(distance_km=0.0, eta_det=1.0, y0=1e-3),
         scenario="nominal", n_pulses=10**6, seed=1)
def test_samplers_match_the_oracle_on_any_link(kind, link, scenario, n_pulses, seed):
    run_against_oracle(link, ProtocolConfig(kind=kind), make_scenario(scenario, 12), seed,
                       ChannelConfig(n_pulses=n_pulses))


def test_every_protocol_has_a_sampler():
    assert all(callable(spec.sample) for spec in PROTOCOLS.values())


@PROPERTY
@given(link=LINKS)
def test_e91_pair_gain_is_the_operating_point_gain(link):
    assert e91_pair_gain(link, transmittance(link)) == operating_point(
        link, ProtocolConfig(kind="e91"))[0]


@PROPERTY
@given(mu_s=st.floats(0.01, 2.0), mu_w=st.floats(0.001, 1.0), seed=st.integers(0, 2**32))
def test_e91_counts_read_no_intensity(mu_s, mu_w, seed):
    # so a controller that moves only mu_s, as recalib does, moves nothing on E91
    e91, sched = ProtocolConfig(kind="e91"), make_scenario("noise-sweep", 12)
    a, b = (Simulator(LINK, e91, sched, seed=seed, channel=ChannelConfig(n_pulses=10_000))
            for _ in range(2))
    for _ in range(sched.blocks):
        assert a.step(CTRL) == b.step(dataclasses.replace(CTRL, mu_s=mu_s, mu_w=mu_w))


class TestWilson:
    def test_boundaries(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_reference_point(self):
        lo, hi = wilson_interval(30, 1000)
        ref_lo, ref_hi = wilson_oracle(30, 1000)
        assert lo == pytest.approx(ref_lo, abs=1e-12)
        assert hi == pytest.approx(ref_hi, abs=1e-12)
        assert lo == pytest.approx(0.0211, abs=2e-4)
        assert hi == pytest.approx(0.0425, abs=2e-4)

    def test_estimator_consistency_large_blocks(self):
        # model value inside the 95% interval in >= 93% of seeded trials
        e_mu = wcp_gain(0.5, transmittance(LINK), LINK.y0, LINK.e_d)[1]
        sched = make_scenario("nominal", 5)
        hits = 0
        trials = 500
        for seed in range(trials):
            t = Simulator(LINK, PROTO, sched, seed=seed,
                          channel=ChannelConfig(n_pulses=10_000_000)).step(CTRL)
            if t.e_lo <= e_mu <= t.e_hi:
                hits += 1
        assert hits / trials >= 0.93


class TestBitLevelOracle:
    def test_binomial_shortcut_matches_bit_level(self):
        # first-moment agreement between the per-pulse sampler and the
        # block-level binomial path
        q_sift, q_mu, e_mu, n = 0.5, 0.01, 0.05, 50_000
        rng = np.random.Generator(np.random.Philox(key=11))
        sift_bit, err_bit, sift_blk, err_blk = [], [], [], []
        for _ in range(300):
            s, e = bit_level_sample_block(n, q_sift, q_mu, e_mu, rng)
            sift_bit.append(s)
            err_bit.append(e)
            s2 = rng.binomial(int(n * q_sift), q_mu)
            sift_blk.append(s2)
            err_blk.append(rng.binomial(s2, e_mu))
        mean_expected = n * q_sift * q_mu
        se = math.sqrt(mean_expected / 300) * 5
        assert abs(np.mean(sift_bit) - mean_expected) < se
        assert abs(np.mean(sift_blk) - mean_expected) < se
        assert abs(np.mean(err_bit) - mean_expected * e_mu) < 5 * math.sqrt(
            mean_expected * e_mu / 300)

    def test_size_guard(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bit_level_sample_block(200_000, 0.5, 0.01, 0.05, rng)


def test_sifting_factors():
    for kind in ("bb84", "e91"):
        key_fraction = PROTOCOLS[kind].key_fraction
        assert key_fraction(PROTO, 0.5) == pytest.approx(0.5)
        assert key_fraction(PROTO, 0.95) == pytest.approx(0.95**2 + 0.05**2)
    # COW keys 0.9 of its non-monitor bins whatever the basis bias
    cow = ProtocolConfig(kind="cow")
    for p_z in (0.5, 0.95):
        assert PROTOCOLS["cow"].key_fraction(cow, p_z) == pytest.approx(0.81)
