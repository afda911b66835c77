"""PPO actor-critic mapping channel forecasts to bounded parameter moves.

The actor emits per-block adjustment deltas squashed into per-component
boxes; a safety filter then clamps the resulting absolute parameters into
their allowed operating ranges, so no sampled action can push the link
outside safe settings. Transitions are used once per update and discarded
(on-policy buffer).

Nothing here builds an ``nn`` graph. Inference
(:meth:`ActorCritic.mean_value`, which :func:`act` calls once per block)
runs on plain arrays and reads each layer's live weights on every call:
unlike ``tcn.Forecaster`` it keeps no copy, so it follows ``ppo_update``
mid-episode and a checkpoint restored by ``nn.set_params``. Each PPO
minibatch step runs the same forward on plain arrays, keeping each
layer's tanh output, and backpropagates gradients derived by hand into
the two Adam optimizers, bitwise equal to the graph of the same losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .channel import ControlState
from .rates import PROTOCOLS
from .tcn import DivergenceError

LOG2PI = math.log(2.0 * math.pi)

ACTION_ORDER = ("d_mu_s", "d_mu_w", "d_pz", "d_theta_c", "d_phi_c")
ACTION_CAPS = np.array([0.05, 0.05, 0.05, 0.02, 0.05])

# Absolute safe operating boxes enforced after every action.
SAFE_MU_S = (0.1, 1.0)
SAFE_MU_W = (0.02, 0.3)
SAFE_MU_GAP = 0.05  # mu_w stays below mu_s by at least this margin
SAFE_PZ = (0.5, 0.95)
SAFE_THETA_C = (-0.6, 0.6)
SAFE_PHI_C = (-math.pi, math.pi)

# Fixed layout of the observation vector; see observe().
OBS_ORDER = (
    "fc_q_mu", "fc_e_mu", "fc_v", "fc_eta",
    "tm_q_mu", "tm_e_mu", "tm_v", "tm_eta",
    "ctrl_mu_s", "ctrl_mu_w", "ctrl_p_z", "ctrl_theta_c", "ctrl_phi_c",
)
OBS_DIM = len(OBS_ORDER)
OBS_Z_CLIP = 4.0


@dataclass
class PpoConfig:
    gamma: float = 0.9
    clip_eps: float = 0.2
    lr: float = 3e-4
    epochs: int = 4
    rollout: int = 256
    minibatch: int = 64
    entropy_weight: float = 0.01
    log_std_init: float = -0.7
    hidden: Tuple[int, int] = (64, 64)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must be in (0, 1)")
        for name in ("epochs", "minibatch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.rollout < self.minibatch:
            raise ValueError("rollout length must be >= minibatch size")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if len(self.hidden) != 2 or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden must be two widths >= 1, got {self.hidden!r}")


@dataclass(frozen=True)
class RewardConfig:
    """Weights of the composite throughput-vs-error feedback signal; the
    rate is scaled by the link's own nominal rate (see :func:`reward`)."""

    w_rate: float = 1.0
    w_err: float = 0.5
    qber_ref: float = 0.11
    abort_penalty: float = 1.0

    def __post_init__(self) -> None:
        if self.w_rate <= 0 or self.w_err <= 0:
            raise ValueError("reward weights must be positive")


@dataclass(frozen=True)
class Action:
    d_mu_s: float = 0.0
    d_mu_w: float = 0.0
    d_pz: float = 0.0
    d_theta_c: float = 0.0
    d_phi_c: float = 0.0
    mask: Tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)

    def as_vector(self) -> np.ndarray:
        return np.array([self.d_mu_s, self.d_mu_w, self.d_pz,
                         self.d_theta_c, self.d_phi_c])

    @classmethod
    def from_vector(cls, vec: np.ndarray, mask: np.ndarray) -> "Action":
        """The deltas ``vec * mask``, both in ACTION_ORDER, keeping the mask."""
        mask = np.asarray(mask, dtype=float)
        return cls(*(np.asarray(vec, dtype=float) * mask).tolist(), mask=tuple(mask.tolist()))


@dataclass(frozen=True)
class ActionSample:
    action: Action
    log_prob: float
    value: float
    pre_squash: np.ndarray
    fallback: bool = False


class RolloutBuffer:
    """On-policy transition store, cleared after each update."""

    def __init__(self):
        self.obs: List[np.ndarray] = []
        self.pre_squash: List[np.ndarray] = []
        self.log_probs: List[float] = []
        self.values: List[float] = []
        self.rewards: List[float] = []
        self.masks: List[Sequence[float]] = []

    def add(self, obs: np.ndarray, pre_squash: np.ndarray, log_prob: float, value: float,
            reward: float, mask: Sequence[float]) -> None:
        """Store one transition as given; ``ppo_update`` stacks each field."""
        self.obs.append(obs)
        self.pre_squash.append(pre_squash)
        self.log_probs.append(log_prob)
        self.values.append(value)
        self.rewards.append(reward)
        self.masks.append(mask)

    def __len__(self) -> int:
        return len(self.rewards)

    def clear(self) -> None:
        self.__init__()


def _mlp(sizes: Sequence[int], rng: np.random.Generator,
         out_scale: float = 1.0) -> List[nn.DenseLayer]:
    layers = [nn.DenseLayer.create(a, b, rng) for a, b in zip(sizes, sizes[1:])]
    layers[-1].w.data *= out_scale
    return layers


def _mlp_forward(layers: Sequence[nn.DenseLayer],
                 x: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
    """Each layer's input and the stack's output on plain ``x`` (B, n_in):
    ``tanh`` after every affine map but the last, in ``nn.dense``'s
    arithmetic."""
    inputs = [x]
    for layer in layers[:-1]:
        inputs.append(np.tanh(inputs[-1] @ layer.w.data.T + layer.b.data))
    return inputs, inputs[-1] @ layers[-1].w.data.T + layers[-1].b.data


def _mlp_backward(layers: Sequence[nn.DenseLayer], inputs: Sequence[np.ndarray],
                  g: np.ndarray) -> List[np.ndarray]:
    """The gradients of each layer's ``w`` and ``b``, in layer order, from
    the gradient ``g`` of the stack's output, in the arithmetic of the
    ``nn.dense`` and ``nn.tanh`` closures; the input ``inputs[0]`` gets none."""
    grads: List[np.ndarray] = []
    for i in range(len(layers) - 1, -1, -1):
        grads[:0] = (g.T @ inputs[i], g.sum(axis=0))
        if i:
            g = (g @ layers[i].w.data) * (1.0 - inputs[i] * inputs[i])
    return grads


class ActorCritic:
    """Gaussian policy with tanh squashing plus a state-value critic.

    ``named`` maps each parameter's checkpoint name to its ``Var``, in
    checkpoint order: the actor layers, the critic layers, ``log_std``.
    The learner state lives here too: the on-policy ``buffer`` and one
    Adam optimizer (at ``cfg.lr``) each for the actor and the critic, so
    it carries over from one episode to the next with the networks.
    """

    def __init__(self, cfg: PpoConfig, obs_dim: int = OBS_DIM, act_dim: int = len(ACTION_ORDER),
                 rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.Generator(np.random.Philox(key=0))
        self.cfg = cfg
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        h1, h2 = cfg.hidden
        self.actor = _mlp((obs_dim, h1, h2, act_dim), rng, out_scale=0.01)
        self.critic = _mlp((obs_dim, h1, h2, 1), rng)
        self.log_std = nn.Var(np.full(act_dim, cfg.log_std_init))
        self.named: Dict[str, nn.Var] = {}
        for name, layers in (("actor", self.actor), ("critic", self.critic)):
            for i, layer in enumerate(layers):
                self.named.update(layer.named(f"{name}{i}"))
        self.named["log_std"] = self.log_std
        self.act_calls = 0
        self.buffer = RolloutBuffer()
        self.opt_actor = nn.Adam(self.actor_params(), lr=cfg.lr)
        self.opt_critic = nn.Adam(self.critic_params(), lr=cfg.lr)

    def actor_params(self) -> List[nn.Var]:
        return [p for name, p in self.named.items() if not name.startswith("critic")]

    def critic_params(self) -> List[nn.Var]:
        return [p for name, p in self.named.items() if name.startswith("critic")]

    def mean_value(self, obs: np.ndarray) -> Tuple[np.ndarray, float]:
        """The actor's mean (act_dim,) and the critic's value at one
        observation: the forward of :func:`ppo_update` at batch 1."""
        x = np.asarray(obs, dtype=float)[None, :]
        mean = _mlp_forward(self.actor, x)[1][0]
        return mean, float(_mlp_forward(self.critic, x)[1][0, 0])

    def sigma(self) -> np.ndarray:
        """exp(log_std) with log_std clipped to [-5, 2], from the live
        parameter (``np.clip``'s values, without its Python dispatch)."""
        return np.exp(np.minimum(np.maximum(self.log_std.data, -5.0), 2.0))

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named.items()}


def _unit(x: float, box: Tuple[float, float]) -> float:
    """``x`` clamped into ``box`` and scaled to [-1, 1]."""
    lo, hi = box
    return 2.0 * (min(max(x, lo), hi) - lo) / (hi - lo) - 1.0


def observe(z_fc: np.ndarray, z_tm: np.ndarray, ctrl: ControlState) -> np.ndarray:
    """Fixed-order observation: the normalized forecast and current
    telemetry rows, each clipped to +-OBS_Z_CLIP and scaled to [-1, 1], and
    the control parameters scaled to [-1, 1]."""
    rows = np.concatenate((z_fc, z_tm))
    n = len(rows)
    obs = np.empty(n + 5)
    np.divide(np.minimum(np.maximum(rows, -OBS_Z_CLIP), OBS_Z_CLIP), OBS_Z_CLIP, out=obs[:n])
    obs[n:] = (_unit(ctrl.mu_s, SAFE_MU_S), _unit(ctrl.mu_w, SAFE_MU_W),
               _unit(ctrl.p_z, SAFE_PZ), _unit(ctrl.theta_c, SAFE_THETA_C),
               _unit(ctrl.phi_c, SAFE_PHI_C))
    return obs


# each protocol's action mask as an array, in ACTION_ORDER; read-only
_MASKS = {kind: np.array(spec.mask) for kind, spec in PROTOCOLS.items()}
for _mask in _MASKS.values():
    _mask.flags.writeable = False


def act(nets: ActorCritic, obs: np.ndarray, rng: np.random.Generator,
        protocol: str = "bb84", deterministic: bool = False) -> ActionSample:
    """Sample a squashed-Gaussian action and evaluate the critic.

    Never raises on bad network output: a non-finite mean or value falls
    back to the zero action with the ``fallback`` flag set.
    """
    nets.act_calls += 1
    mask = _MASKS[protocol]
    mean, value = nets.mean_value(obs)
    noise = rng.standard_normal(nets.act_dim)
    if not (np.isfinite(mean).all() and math.isfinite(value)):
        return ActionSample(Action.from_vector(np.zeros(nets.act_dim), mask),
                            0.0, 0.0, np.zeros(nets.act_dim), fallback=True)
    sigma = nets.sigma()
    u = mean if deterministic else mean + sigma * noise
    z = (u - mean) / sigma
    logp_terms = -0.5 * z**2 - np.log(sigma) - 0.5 * LOG2PI
    log_prob = float((logp_terms * mask).sum())
    deltas = np.tanh(u) * ACTION_CAPS
    return ActionSample(Action.from_vector(deltas, mask), log_prob, value, u)


def apply_action(ctrl: ControlState, action: Action) -> ControlState:
    """Integrate the deltas and clamp the result into the safe boxes."""
    mu_s = min(max(ctrl.mu_s + action.d_mu_s, SAFE_MU_S[0]), SAFE_MU_S[1])
    mu_w = min(max(ctrl.mu_w + action.d_mu_w, SAFE_MU_W[0]), SAFE_MU_W[1])
    mu_w = min(mu_w, mu_s - SAFE_MU_GAP)
    p_z = min(max(ctrl.p_z + action.d_pz, SAFE_PZ[0]), SAFE_PZ[1])
    theta_c = min(max(ctrl.theta_c + action.d_theta_c, SAFE_THETA_C[0]), SAFE_THETA_C[1])
    phi_c = min(max(ctrl.phi_c + action.d_phi_c, SAFE_PHI_C[0]), SAFE_PHI_C[1])
    return ControlState(mu_s=mu_s, mu_w=mu_w, p_z=p_z, theta_c=theta_c, phi_c=phi_c)


def reward(skr_bps: float, qber: float, aborted: bool, cfg: RewardConfig,
           skr_ref: float) -> float:
    """Composite feedback: rate over ``skr_ref`` minus weighted normalized error."""
    if skr_bps < 0:
        raise ValueError("skr_bps must be >= 0")
    if not 0.0 <= qber <= 0.5:
        raise ValueError("qber must be in [0, 0.5]")
    r = cfg.w_rate * (skr_bps / skr_ref) - cfg.w_err * (qber / cfg.qber_ref)
    if aborted:
        r -= cfg.abort_penalty
    return r


def discounted_returns(rewards: Sequence[float], gamma: float) -> np.ndarray:
    """Truncated discounted return per step, terminal bootstrap value zero."""
    out = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def _ppo_step(nets: ActorCritic, obs: np.ndarray, u: np.ndarray, mask: np.ndarray,
              logp_old: np.ndarray, adv: np.ndarray,
              returns: np.ndarray) -> Tuple[float, float, float]:
    """One minibatch step on plain arrays: the clipped surrogate less the
    entropy bonus, and the critic's squared error, each differentiated by
    hand and followed by one Adam step of its net. Every operation is the
    one the ``nn`` graph of these losses runs, in its order, so the update
    is the graph's to the bit (``tests/oracles.py`` keeps that graph).
    Returns the policy loss, the value loss and the entropy; a non-finite
    loss raises :class:`DivergenceError` before either step."""
    cfg, n = nets.cfg, len(obs)
    lo, hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
    log_std = nets.log_std.data
    ls = np.clip(log_std, -5.0, 2.0)
    inv_sigma = np.exp(ls * -1.0)
    inputs, mean = _mlp_forward(nets.actor, obs)
    diff = u - mean
    z = diff * inv_sigma
    logp = ((z * z * -0.5 - ls - 0.5 * LOG2PI) * mask).sum(axis=1)
    ratio = np.exp(logp - logp_old)
    p1, p2 = ratio * adv, np.clip(ratio, lo, hi) * adv
    take = p1 <= p2
    mask_mean = mask.mean(axis=0)
    entropy = ((ls + 0.5 * (LOG2PI + 1.0)) * mask_mean).sum()
    policy_loss = -np.where(take, p1, p2).mean() - entropy * cfg.entropy_weight
    v_inputs, v_pred = _mlp_forward(nets.critic, obs)
    err = v_pred[:, 0] - returns
    value_loss = (err * err).mean()
    if not (np.isfinite(policy_loss) and np.isfinite(value_loss)):
        raise DivergenceError("non-finite PPO loss")
    # the mean's -1/n through the minimum, the ratio clip and the log density
    g = -1.0 / n
    g_ratio = (g * take) * adv + ((g * ~take) * adv) * ((ratio > lo) & (ratio < hi))
    g_terms = (g_ratio * ratio)[:, None] * mask
    g_z = g_terms * -0.5 * 2.0 * z
    g_ls = -g_terms.sum(axis=0) + (g_z * diff).sum(axis=0) * inv_sigma * -1.0
    inside = (log_std > -5.0) & (log_std < 2.0)
    g_log_std = g_ls * inside + (-cfg.entropy_weight * mask_mean) * inside
    nets.opt_actor.step(_mlp_backward(nets.actor, inputs, -(g_z * inv_sigma)) + [g_log_std])
    g_v = 1.0 / n * 2.0 * err
    nets.opt_critic.step(_mlp_backward(nets.critic, v_inputs, g_v.reshape(n, 1)))
    return float(policy_loss), float(value_loss), float(entropy)


def ppo_update(buffer: RolloutBuffer, nets: ActorCritic) -> Dict[str, float]:
    """Clipped-surrogate policy update plus squared-error critic fit.

    Runs ``nets.cfg.epochs`` passes of shuffled minibatches through the
    nets' own optimizers, then clears the buffer. On a non-finite loss the
    parameters are restored to their pre-update snapshot and
    :class:`DivergenceError` is raised.
    """
    cfg = nets.cfg
    if len(buffer) < cfg.minibatch:
        raise ValueError("buffer shorter than one minibatch")
    obs = np.stack(buffer.obs)
    u = np.stack(buffer.pre_squash)
    masks = np.stack(buffer.masks)
    logp_old = np.asarray(buffer.log_probs)
    returns = discounted_returns(buffer.rewards, cfg.gamma)
    adv = returns - np.asarray(buffer.values)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    snap = {name: p.data.copy() for name, p in nets.named.items()}
    rng = np.random.Generator(np.random.Philox(key=len(buffer)))
    stats = []
    try:
        for _ in range(cfg.epochs):
            order = rng.permutation(len(buffer))
            for start in range(0, len(order), cfg.minibatch):
                sel = order[start:start + cfg.minibatch]
                stats.append(_ppo_step(nets, obs[sel], u[sel], masks[sel], logp_old[sel],
                                       adv[sel], returns[sel]))
    except (DivergenceError, nn.NonFiniteGradientError):
        nn.set_params(nets.named, snap)
        buffer.clear()
        raise
    policy_losses, value_losses, entropies = zip(*stats)
    report = {
        "mean_reward": float(np.mean(buffer.rewards)),
        "policy_loss": float(np.mean(policy_losses)),
        "value_loss": float(np.mean(value_losses)),
        "entropy": float(np.mean(entropies)),
    }
    buffer.clear()
    return report


def save_policy(path: str, nets: ActorCritic) -> None:
    meta = {
        "kind": "ppo",
        "obs_dim": nets.obs_dim,
        "act_dim": nets.act_dim,
        "hidden": list(nets.cfg.hidden),
    }
    nn.save_checkpoint(path, nets.state_arrays(), meta)


def load_policy(path: str, cfg: Optional[PpoConfig] = None) -> ActorCritic:
    """The policy a :func:`save_policy` checkpoint holds; one for another
    ``obs_dim`` or ``act_dim``, or with a size missing, fractional or out of
    :class:`PpoConfig`'s range, is refused naming the file."""
    arrays, meta = nn.load_checkpoint(path)
    for key, want in (("obs_dim", OBS_DIM), ("act_dim", len(ACTION_ORDER))):
        got = nn.meta_int(path, meta, key)
        if got != want:
            raise ValueError(f"checkpoint {path} has {key} {got}, not {want}")
    hidden = nn.meta_int(path, meta, "hidden", many=True)
    try:
        cfg = replace(cfg or PpoConfig(), hidden=hidden)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    nets = ActorCritic(cfg)
    nn.set_params(nets.named, arrays)
    return nets
