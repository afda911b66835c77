import copy
import math

import numpy as np
import pytest

from optiqkd import nn
from optiqkd.channel import ControlState, Telemetry
from optiqkd.controller import (ACTION_CAPS, Action, ActorCritic,
                                DivergenceError, OBS_DIM, OBS_ORDER,
                                PpoConfig, RewardConfig,
                                RolloutBuffer, SAFE_MU_GAP, SAFE_MU_S,
                                SAFE_MU_W, SAFE_PZ, SAFE_PHI_C, SAFE_THETA_C,
                                LOG2PI, act, apply_action,
                                discounted_returns, load_policy, observe,
                                ppo_update, reward, save_policy)
from optiqkd.rates import PROTOCOLS
from optiqkd.tcn import FEATURES, Normalizer, telemetry_features

from oracles import (act_oracle, clip, exp, forward_actor, forward_critic, minimum,
                     observe_oracle, ppo_update_oracle)


def nominal_telemetry():
    return Telemetry(block_index=0, n_pulses=10**6, n_sifted=4000, n_errors=60,
                     q_mu_hat=0.00995, e_mu_hat=0.015, e_lo=0.011, e_hi=0.019,
                     v_hat=0.97, eta_hat=0.02)


NORM = Normalizer(np.array([0.00995, 0.015, 0.97, 0.02]),
                  np.array([0.001, 0.01, 0.02, 0.002]))


def nominal_rows():
    """Normalized (forecast, telemetry) rows of a nominal block."""
    return np.zeros(len(FEATURES)), NORM.normalize(telemetry_features(nominal_telemetry()))


class TestObserve:
    def test_nominal_in_unit_box(self):
        obs = observe(*nominal_rows(), ControlState())
        assert obs.shape == (OBS_DIM,)
        assert np.all(obs >= -1.0) and np.all(obs <= 1.0)

    def test_deterministic(self):
        a = observe(*nominal_rows(), ControlState())
        b = observe(*nominal_rows(), ControlState())
        assert np.array_equal(a, b)

    def test_schema_order(self):
        n = len(FEATURES)
        assert len(OBS_ORDER) == OBS_DIM == 2 * n + 5
        assert OBS_ORDER[:n] == tuple(f"fc_{f}" for f in FEATURES)
        assert OBS_ORDER[n:2 * n] == tuple(f"tm_{f}" for f in FEATURES)
        # control scaling: mid-box maps to 0, box edges map to +-1
        ctrl = ControlState(mu_s=SAFE_MU_S[1], mu_w=SAFE_MU_W[0], p_z=0.725,
                            theta_c=0.0, phi_c=0.0)
        obs = observe(*nominal_rows(), ctrl)
        assert obs[2 * n] == pytest.approx(1.0)
        assert obs[2 * n + 1] == pytest.approx(-1.0)
        assert obs[2 * n + 2] == pytest.approx(0.0)


class TestAct:
    def test_deterministic_mean_action(self):
        cfg = PpoConfig()
        nets = ActorCritic(cfg, rng=np.random.default_rng(0))
        obs = np.zeros(OBS_DIM)
        rng = np.random.default_rng(1)
        s1 = act(nets, obs, rng, deterministic=True)
        s2 = act(nets, obs, np.random.default_rng(99), deterministic=True)
        assert s1.action == s2.action  # noise ignored in deterministic mode

    def test_seeded_reproducibility(self):
        cfg = PpoConfig()
        nets = ActorCritic(cfg, rng=np.random.default_rng(0))
        obs = np.zeros(OBS_DIM)
        a = [act(nets, obs, np.random.Generator(np.random.Philox(key=5))).action
             for _ in range(1)]
        b = [act(nets, obs, np.random.Generator(np.random.Philox(key=5))).action
             for _ in range(1)]
        assert a == b

    def test_action_within_caps_and_mask(self):
        cfg = PpoConfig()
        nets = ActorCritic(cfg, rng=np.random.default_rng(0))
        rng = np.random.default_rng(2)
        for proto, spec in PROTOCOLS.items():
            mask = np.array(spec.mask)
            for _ in range(50):
                s = act(nets, rng.uniform(-1, 1, OBS_DIM), rng, protocol=proto)
                vec = s.action.as_vector()
                assert np.all(np.abs(vec) <= ACTION_CAPS + 1e-12)
                assert np.all(vec[mask == 0.0] == 0.0)

    def test_nonfinite_fallback(self):
        cfg = PpoConfig()
        nets = ActorCritic(cfg, rng=np.random.default_rng(0))
        nets.actor[0].w.data[:] = np.nan
        s = act(nets, np.zeros(OBS_DIM), np.random.default_rng(3))
        assert s.fallback
        assert s.action.as_vector().tolist() == [0.0] * 5


def assert_same_sample(got, want):
    assert got.action == want.action
    assert got.action.mask == want.action.mask
    assert got.log_prob == want.log_prob and got.value == want.value
    assert got.pre_squash.tobytes() == want.pre_squash.tobytes()
    assert got.fallback == want.fallback


class TestAgainstOracle:
    """``act`` and ``observe`` against references that take numpy's
    Python-level dispatch (``tests/oracles.py``): the same bits."""

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_act(self, protocol, deterministic):
        nets = ActorCritic(PpoConfig(), rng=np.random.default_rng(30))
        # log_std on both sides of the [-5, 2] clip and inside it
        nets.log_std.data[:] = [-7.0, -5.0, -0.7, 2.0, 3.5]
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        for obs in np.random.default_rng(32).uniform(-1.5, 1.5, (100, OBS_DIM)):
            assert_same_sample(act(nets, obs, rng, protocol, deterministic),
                               act_oracle(nets, obs, ref_rng, protocol, deterministic))

    @pytest.mark.parametrize("broken", ["actor", "critic"])
    def test_act_nonfinite_fallback(self, broken):
        nets = ActorCritic(PpoConfig(), rng=np.random.default_rng(33))
        getattr(nets, broken)[-1].w.data[0, 0] = np.nan
        obs = np.random.default_rng(34).uniform(-1, 1, OBS_DIM)
        got = act(nets, obs, np.random.default_rng(35))
        assert got.fallback
        assert_same_sample(got, act_oracle(nets, obs, np.random.default_rng(35)))

    def test_observe_out_of_box(self):
        rng = np.random.default_rng(36)
        boxes = (SAFE_MU_S, SAFE_MU_W, SAFE_PZ, SAFE_THETA_C, SAFE_PHI_C)
        for _ in range(200):
            z_fc, z_tm = rng.uniform(-12, 12, (2, len(FEATURES)))
            # each knob anywhere from well below its box to well above it
            knobs = [rng.uniform(lo - (hi - lo), hi + (hi - lo)) for lo, hi in boxes]
            ctrl = ControlState(*knobs)
            assert (observe(z_fc, z_tm, ctrl).tobytes()
                    == observe_oracle(z_fc, z_tm, ctrl).tobytes())


def graph_mean_value(nets, obs):
    """The batch-1 graph forward that ``ppo_update_oracle`` differentiates."""
    x = nn.const(obs[None, :])
    return forward_actor(nets, x).data[0], float(forward_critic(nets, x).data[0])


def assert_mean_value_is_graph(nets, seed):
    for obs in np.random.default_rng(seed).uniform(-1, 1, (50, OBS_DIM)):
        mean, value = nets.mean_value(obs)
        g_mean, g_value = graph_mean_value(nets, obs)
        assert np.array_equal(mean, g_mean)
        assert np.array_equal(value, g_value)


class TestMeanValue:
    def test_equals_graph_forward(self):
        assert_mean_value_is_graph(ActorCritic(PpoConfig(), rng=np.random.default_rng(0)), 10)

    def test_reads_weights_moved_by_update(self):
        nets = ActorCritic(PpoConfig(rollout=64, minibatch=32, lr=1e-2),
                           rng=np.random.default_rng(0))
        rng = np.random.default_rng(11)
        probe = rng.uniform(-1, 1, OBS_DIM)
        before, _ = nets.mean_value(probe)
        mask = np.asarray(PROTOCOLS["bb84"].mask)
        for _ in range(64):
            obs = rng.uniform(-1, 1, OBS_DIM)
            s = act(nets, obs, rng)
            nets.buffer.add(obs, s.pre_squash, s.log_prob, s.value, rng.normal(), mask)
        ppo_update(nets.buffer, nets)
        assert not np.array_equal(nets.mean_value(probe)[0], before)
        assert_mean_value_is_graph(nets, 12)

    def test_reads_weights_set_by_load(self, tmp_path):
        trained = ActorCritic(PpoConfig(), rng=np.random.default_rng(13))
        path = str(tmp_path / "policy.ckpt")
        save_policy(path, trained)
        loaded = load_policy(path)
        assert_mean_value_is_graph(loaded, 14)
        obs = np.random.default_rng(15).uniform(-1, 1, OBS_DIM)
        assert np.array_equal(loaded.mean_value(obs)[0], trained.mean_value(obs)[0])

    def test_act_builds_no_graph(self, monkeypatch):
        nets = ActorCritic(PpoConfig(), rng=np.random.default_rng(0))
        made = []
        init = nn.Var.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(nn.Var, "__init__", counting_init)
        rng = np.random.default_rng(16)
        for _ in range(5):
            act(nets, rng.uniform(-1, 1, OBS_DIM), rng)
        assert not made
        graph_mean_value(nets, np.zeros(OBS_DIM))
        assert made  # the counter sees a graph forward


class TestSafetyFilter:
    def test_clamp_to_boxes_property(self):
        rng = np.random.default_rng(4)
        ctrl = ControlState()
        for _ in range(10_000):
            vec = rng.uniform(-1, 1, 5) * ACTION_CAPS
            ctrl = apply_action(ctrl, Action.from_vector(vec, np.ones(5)))
            assert SAFE_MU_S[0] <= ctrl.mu_s <= SAFE_MU_S[1]
            assert SAFE_MU_W[0] <= ctrl.mu_w <= SAFE_MU_W[1]
            assert ctrl.mu_w <= ctrl.mu_s - SAFE_MU_GAP + 1e-12
            assert SAFE_PZ[0] <= ctrl.p_z <= SAFE_PZ[1]
            assert SAFE_THETA_C[0] <= ctrl.theta_c <= SAFE_THETA_C[1]
            assert SAFE_PHI_C[0] <= ctrl.phi_c <= SAFE_PHI_C[1]

    def test_excess_mu_clamped(self):
        ctrl = ControlState(mu_s=0.99)
        out = apply_action(ctrl, Action(d_mu_s=0.05))
        assert out.mu_s == SAFE_MU_S[1]


class TestReward:
    CFG = RewardConfig(w_rate=1.0, w_err=0.5, qber_ref=0.11, abort_penalty=1.0)
    REF = 1000.0  # the link's nominal rate

    def test_normalization_anchor(self):
        assert reward(1000.0, 0.0, False, self.CFG, self.REF) == pytest.approx(1.0)

    def test_weighted_example(self):
        assert reward(800.0, 0.022, False, self.CFG, self.REF) == pytest.approx(0.7)

    def test_abort_penalty(self):
        expected = -0.5 * (0.12 / 0.11) - 1.0
        assert reward(0.0, 0.12, True, self.CFG, self.REF) == pytest.approx(expected)

    def test_monotonicity(self):
        r0 = reward(500.0, 0.05, False, self.CFG, self.REF)
        assert reward(600.0, 0.05, False, self.CFG, self.REF) > r0
        assert reward(500.0, 0.06, False, self.CFG, self.REF) < r0

    def test_scale_invariance(self):
        # common positive scaling of the weights scales every reward equally
        scaled = RewardConfig(w_rate=3.0, w_err=1.5, qber_ref=0.11, abort_penalty=3.0)
        cases = [(1000.0, 0.0, False), (800.0, 0.022, False), (0.0, 0.12, True)]
        rewards = [reward(*c, self.CFG, self.REF) for c in cases]
        scaled_rewards = [reward(*c, scaled, self.REF) for c in cases]
        for r, rs in zip(rewards, scaled_rewards):
            assert rs == pytest.approx(3.0 * r)
        assert np.argsort(rewards).tolist() == np.argsort(scaled_rewards).tolist()

    def test_domain(self):
        with pytest.raises(ValueError):
            reward(-1.0, 0.1, False, self.CFG, self.REF)
        with pytest.raises(ValueError):
            reward(1.0, 0.7, False, self.CFG, self.REF)


class TestAdvantages:
    """``ppo_update``'s advantage is the discounted return less the
    critic's value; these pin the return."""

    def test_hand_example(self):
        assert np.allclose(discounted_returns([1.0, 1.0], gamma=0.5), [1.5, 1.0])

    def test_myopic_limit(self):
        # with a critic value of 0.5 on every step
        adv = discounted_returns([1.0, 2.0, 3.0], gamma=0.0) - 0.5
        assert np.allclose(adv, [0.5, 1.5, 2.5])


class TestClipProperty:
    def test_zero_gradient_outside_trust_region(self):
        # a sample whose ratio exceeds 1+eps with positive advantage must
        # contribute zero gradient with respect to its log-probability
        eps = 0.2
        logp_old = nn.Var(np.array([0.0, 0.0]))
        logp_new = nn.Var(np.array([0.5, 0.05]))  # ratios e^0.5=1.65, e^0.05=1.05
        adv = np.array([1.0, 1.0])
        ratio = exp(logp_new - logp_old)
        clipped = clip(ratio, 1.0 - eps, 1.0 + eps)
        surr = minimum(nn.mul(ratio, nn.Var(adv)), nn.mul(clipped, nn.Var(adv)))
        loss = nn.neg(nn.vmean(surr))
        nn.backward(loss)
        assert logp_new.grad[0] == 0.0  # clipped sample: no push
        assert logp_new.grad[1] != 0.0  # in-region sample still learns

    def test_inside_region_objectives_equal(self):
        eps = 0.2
        ratio = nn.Var(np.array([1.1, 0.9]))
        adv = nn.Var(np.array([0.5, -0.5]))
        clipped = clip(ratio, 1.0 - eps, 1.0 + eps)
        assert np.allclose(minimum(nn.mul(ratio, adv), nn.mul(clipped, adv)).data,
                           (ratio.data * adv.data))


def fill_buffer(nets, cfg, rng, n, reward_fn):
    buf = RolloutBuffer()
    obs = np.array([1.0])
    mask = np.ones(1)
    for _ in range(n):
        mean, v = nets.mean_value(obs)
        sigma = nets.sigma()
        u = mean + sigma * rng.standard_normal(1)
        a = float(np.tanh(u)[0])
        z = (u - mean) / sigma
        logp = float(np.sum(-0.5 * z**2 - np.log(sigma) - 0.5 * math.log(2 * math.pi)))
        buf.add(obs, u, logp, v, reward_fn(a), mask)
    return buf


class TestPpoUpdate:
    def test_toy_reward_improves(self):
        cfg = PpoConfig(gamma=0.05, rollout=64, minibatch=32, lr=3e-3,
                        entropy_weight=0.003, log_std_init=-0.5, hidden=(32, 32))
        nets = ActorCritic(cfg, obs_dim=1, act_dim=1, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        rewards = []
        for _ in range(60):
            buf = fill_buffer(nets, cfg, rng, cfg.rollout,
                              lambda a: -(a - 0.6) ** 2)
            rep = ppo_update(buf, nets)
            rewards.append(rep["mean_reward"])
            assert len(buf) == 0  # buffer cleared after each update
        assert np.mean(rewards[-10:]) > np.mean(rewards[:10])

    def test_divergence_restores_snapshot(self):
        cfg = PpoConfig(rollout=32, minibatch=16)
        nets = ActorCritic(cfg, obs_dim=1, act_dim=1, rng=np.random.default_rng(2))
        before = [p.data.copy() for p in nets.actor_params()]
        buf = fill_buffer(nets, cfg, np.random.default_rng(3), 32,
                          lambda a: math.nan)
        with pytest.raises(DivergenceError):
            ppo_update(buf, nets)
        for b, p in zip(before, nets.actor_params()):
            assert np.array_equal(b, p.data)
        assert len(buf) == 0

    def test_short_buffer_rejected(self):
        cfg = PpoConfig(rollout=64, minibatch=64)
        nets = ActorCritic(cfg, obs_dim=1, act_dim=1, rng=np.random.default_rng(4))
        buf = fill_buffer(nets, cfg, np.random.default_rng(5), 10, lambda a: 0.0)
        with pytest.raises(ValueError):
            ppo_update(buf, nets)


def add_transitions(bufs, nets, rng, mask, n, reward_fn):
    """Add the same ``n`` on-policy transitions of ``nets`` to each buffer."""
    for _ in range(n):
        obs = rng.uniform(-1.5, 1.5, nets.obs_dim)
        mean, value = nets.mean_value(obs)
        sigma = nets.sigma()
        u = mean + sigma * rng.standard_normal(nets.act_dim)
        z = (u - mean) / sigma
        logp = float(((-0.5 * z**2 - np.log(sigma) - 0.5 * LOG2PI) * mask).sum())
        r = reward_fn(rng)
        for buf in bufs:
            buf.add(obs, u, logp, value, r, mask)


def assert_same_learner(got, want):
    """Parameters, both Adam states (``m``, ``v``, ``t``) and the buffer."""
    for name, p in got.named.items():
        assert np.array_equal(p.data, want.named[name].data), name
    for opt in ("opt_actor", "opt_critic"):
        a, b = getattr(got, opt).state, getattr(want, opt).state
        assert a["t"] == b["t"], opt
        assert np.array_equal(a["m"], b["m"]) and np.array_equal(a["v"], b["v"]), opt
    assert len(got.buffer) == len(want.buffer) == 0


def run_against_oracle(nets, updates, protocol="bb84", reward_fn=lambda rng: rng.normal(),
                       before_update=None, seed=40):
    """``updates`` rounds of one rollout and one ``ppo_update`` on ``nets``,
    and of the same rollout and ``ppo_update_oracle`` on a copy; the two
    must agree to the bit after every round. Returns the last rollout's
    observations, pre-squash actions, log-probabilities and masks."""
    ref = copy.deepcopy(nets)
    rng = np.random.default_rng(seed)
    mask = (np.asarray(PROTOCOLS[protocol].mask) if nets.act_dim == len(ACTION_CAPS)
            else np.ones(nets.act_dim))
    for i in range(updates):
        if before_update:
            before_update(i, nets, ref)
        add_transitions((nets.buffer, ref.buffer), nets, rng, mask, nets.cfg.rollout, reward_fn)
        rollout = copy.deepcopy(nets.buffer)
        assert ppo_update(nets.buffer, nets) == ppo_update_oracle(ref.buffer, ref)
        assert_same_learner(nets, ref)
    return rollout


def ratios(nets, rollout):
    """exp(new log-probability - old) of each transition under ``nets``."""
    logp = [np.sum((-0.5 * ((u - nets.mean_value(obs)[0]) / nets.sigma())**2
                    - np.log(nets.sigma()) - 0.5 * LOG2PI) * mask)
            for obs, u, mask in zip(rollout.obs, rollout.pre_squash, rollout.masks)]
    return np.exp(np.array(logp) - np.array(rollout.log_probs))


class TestPpoAgainstOracle:
    """``ppo_update``'s hand-derived gradients against the ``nn`` graph of
    ``tests/oracles.py``: parameters, Adam moments and step counts, the
    report and the cleared buffer, all to the bit."""

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_each_protocol_mask(self, protocol):
        nets = ActorCritic(PpoConfig(), rng=np.random.default_rng(41))
        run_against_oracle(nets, 2, protocol)

    def test_ragged_last_minibatch(self):
        # 100 = 64 + 36: the last minibatch's means divide by 36
        nets = ActorCritic(PpoConfig(rollout=100, minibatch=64), rng=np.random.default_rng(42))
        run_against_oracle(nets, 3, "e91")

    def test_log_std_outside_and_on_clip_edges(self):
        nets = ActorCritic(PpoConfig(rollout=128), rng=np.random.default_rng(43))
        nets.log_std.data[:] = [-6.0, 3.0, -0.7, -5.0, 2.0]
        run_against_oracle(nets, 3)

    def test_clip_binds_under_heavy_advantages(self):
        nets = ActorCritic(PpoConfig(rollout=128, lr=0.05, epochs=6),
                           rng=np.random.default_rng(44))
        rollout = run_against_oracle(nets, 3, reward_fn=lambda rng: 1e3 * rng.standard_cauchy())
        ratio = ratios(nets, rollout)
        assert np.any(ratio > 1.2) and np.any(ratio < 0.8)

    def test_one_dimensional_nets(self):
        cfg = PpoConfig(rollout=64, minibatch=32, lr=3e-3, hidden=(32, 32))
        nets = ActorCritic(cfg, obs_dim=1, act_dim=1, rng=np.random.default_rng(45))
        run_against_oracle(nets, 4)

    def test_learning_rate_lowered_between_updates(self):
        def lower(i, *both):
            if i == 1:
                for nets in both:
                    nets.opt_actor.lr /= 10.0
                    nets.opt_critic.lr /= 7.0

        nets = ActorCritic(PpoConfig(rollout=128), rng=np.random.default_rng(46))
        run_against_oracle(nets, 3, "cow", before_update=lower)

    def test_nan_reward_restores_snapshot(self):
        nets = ActorCritic(PpoConfig(rollout=64), rng=np.random.default_rng(47))
        run_against_oracle(nets, 1)  # moves the Adam moments off zero
        ref = copy.deepcopy(nets)
        before = copy.deepcopy(nets.state_arrays())
        rng = np.random.default_rng(48)
        add_transitions((nets.buffer, ref.buffer), nets, rng, np.ones(5), 64,
                        lambda rng: math.nan)
        with pytest.raises(DivergenceError):
            ppo_update(nets.buffer, nets)
        with pytest.raises(DivergenceError):
            ppo_update_oracle(ref.buffer, ref)
        assert_same_learner(nets, ref)
        for name, arr in before.items():
            assert np.array_equal(nets.named[name].data, arr), name

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_inf_gradient_restores_snapshot(self):
        # huge observations the critic's tiny first layer keeps finite: the
        # losses are finite, the critic's first-layer gradient overflows
        # after the actor (whose second layer is zero) has stepped
        nets = ActorCritic(PpoConfig(rollout=64), rng=np.random.default_rng(49))
        for layers in (nets.actor, nets.critic):
            layers[0].w.data *= 1e-308
        nets.actor[1].w.data[:] = 0.0
        ref = copy.deepcopy(nets)
        before = copy.deepcopy(nets.state_arrays())
        rng = np.random.default_rng(50)
        add_transitions((nets.buffer, ref.buffer), nets, rng, np.ones(5), 64,
                        lambda rng: 1e6 * rng.normal())
        for buf in (nets.buffer, ref.buffer):
            buf.obs[:] = [1e308 * obs for obs in buf.obs]
        with pytest.raises(nn.NonFiniteGradientError):
            ppo_update(nets.buffer, nets)
        with pytest.raises(nn.NonFiniteGradientError):
            ppo_update_oracle(ref.buffer, ref)
        assert_same_learner(nets, ref)
        assert nets.opt_actor.state["t"] == 1 and nets.opt_critic.state["t"] == 0
        for name, arr in before.items():
            assert np.array_equal(nets.named[name].data, arr), name

    def test_update_builds_no_graph(self, monkeypatch):
        nets = ActorCritic(PpoConfig(rollout=64), rng=np.random.default_rng(51))
        add_transitions((nets.buffer,), nets, np.random.default_rng(52), np.ones(5), 64,
                        lambda rng: rng.normal())
        made = []
        init = nn.Var.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(nn.Var, "__init__", counting_init)
        ppo_update(nets.buffer, nets)
        assert not made


class TestCheckpoint:
    def test_policy_round_trip(self, tmp_path):
        cfg = PpoConfig()
        nets = ActorCritic(cfg, rng=np.random.default_rng(6))
        path = tmp_path / "policy.ckpt"
        save_policy(str(path), nets)
        loaded = load_policy(str(path))
        obs = np.random.default_rng(7).uniform(-1, 1, OBS_DIM)
        a = act(nets, obs, np.random.default_rng(8), deterministic=True)
        b = act(loaded, obs, np.random.default_rng(9), deterministic=True)
        assert a.action == b.action
        assert a.value == b.value

    @pytest.mark.parametrize("key,value,message", [
        ("obs_dim", OBS_DIM + 2, f"has obs_dim {OBS_DIM + 2}, not {OBS_DIM}"),
        ("act_dim", 4, "has act_dim 4, not 5"),
        ("obs_dim", None, "metadata 'obs_dim' is missing"),
        ("hidden", [64, 64.5], "metadata 'hidden' needs an integer, got 64.5"),
    ])
    def test_other_or_malformed_sizes_refused(self, tmp_path, key, value, message):
        path = str(tmp_path / "policy.ckpt")
        save_policy(path, ActorCritic(PpoConfig(), rng=np.random.default_rng(6)))
        arrays, meta = nn.load_checkpoint(path)
        meta = {k: v for k, v in meta.items() if k != key}
        nn.save_checkpoint(path, arrays, meta if value is None else {**meta, key: value})
        with pytest.raises(ValueError, match="checkpoint .*policy.ckpt") as err:
            load_policy(path)
        assert message in str(err.value)


def test_ppo_config_validation():
    with pytest.raises(ValueError):
        PpoConfig(gamma=1.0)
    with pytest.raises(ValueError):
        PpoConfig(rollout=16, minibatch=64)
    with pytest.raises(ValueError):
        RewardConfig(w_rate=0.0)
