"""PPO sanity check on a one-dimensional quadratic-reward bandit.

The actor must place its deterministic action at the reward peak (0.6 on
a [-1, 1] action range). Because there is no state, the discount is set
near zero so each action is credited with its own reward only.
"""

import math

import numpy as np

from optiqkd.controller import ActorCritic, PpoConfig, RolloutBuffer, ppo_update

TARGET = 0.6

for seed in (1, 2, 3):
    cfg = PpoConfig(gamma=0.05, rollout=64, minibatch=32, lr=3e-3,
                    entropy_weight=0.003, log_std_init=-0.5, hidden=(32, 32))
    nets = ActorCritic(cfg, obs_dim=1, act_dim=1, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1000)
    buf = RolloutBuffer()
    obs, mask = np.array([1.0]), np.ones(1)
    for update in range(200):
        if update == 120:
            nets.opt_actor.lr /= 10.0
            nets.opt_critic.lr /= 10.0
        for _ in range(cfg.rollout):
            mean, value = nets.mean_value(obs)
            sigma = nets.sigma()
            u = mean + sigma * rng.standard_normal(1)
            action = float(np.tanh(u)[0])
            z = (u - mean) / sigma
            logp = float(np.sum(-0.5 * z**2 - np.log(sigma)
                                - 0.5 * math.log(2 * math.pi)))
            buf.add(obs, u, logp, value, -(action - TARGET) ** 2, mask)
        ppo_update(buf, nets)
    final = math.tanh(float(nets.mean_value(obs)[0][0]))
    print(f"seed {seed}: deterministic action {final:.4f} "
          f"(optimum {TARGET}, rel err {abs(final - TARGET) / TARGET:.3f})")
