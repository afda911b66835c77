"""Independent reference implementations used to pin expected test values.

These deliberately re-derive every quantity from first principles with
their own code paths (explicit photon-number sums, direct formula
transliterations, central finite differences) so that a defect in the
package cannot hide in its own oracle.
"""

import math

import numpy as np

from optiqkd import nn

Z_95 = 1.959963984540054


def h2_oracle(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / math.log(2.0)


def poisson_gains_oracle(mu, eta, y0, e_d, e0=0.5, nmax=50):
    """Exact photon-number expansion of the WCP gain model.

    Yields per photon number: Yn = y0 + 1 - (1-eta)^n, with error weight
    en*Yn = e0*y0 + e_d*(1 - (1-eta)^n), summed under Poisson statistics.
    Returns a dict with overall and single-photon quantities; e1 follows
    the n=1 term of the expansion, e1_src the source-conditioned form
    e1*Q1 = e0*y0 + e_d*eta*mu*e^-mu.
    """
    q_mu = 0.0
    eq = 0.0
    for n in range(nmax + 1):
        pn = math.exp(-mu) * mu**n / math.factorial(n)
        yn = y0 + 1.0 - (1.0 - eta) ** n
        q_mu += pn * yn
        eq += pn * (e0 * y0 + e_d * (1.0 - (1.0 - eta) ** n))
    y1 = y0 + eta
    q1 = y1 * mu * math.exp(-mu)
    return {
        "q_mu": q_mu,
        "e_mu": eq / q_mu if q_mu > 0 else e0,
        "y1": y1,
        "q1": q1,
        "e1": (e0 * y0 + e_d * eta) / y1 if y1 > 0 else e0,
        "e1_src": (e0 * y0 + e_d * eta * mu * math.exp(-mu)) / q1 if q1 > 0 else e0,
    }


def bb84_rate_oracle(q_mu, e_mu, q1, e1, f_ec, q_sift):
    return q_sift * (-q_mu * f_ec * h2_oracle(e_mu) + q1 * (1.0 - h2_oracle(e1)))


def decoy_bounds_oracle(q_s, q_w, e_w, mu_s, mu_w, y0, e0=0.5):
    y1 = (mu_s / (mu_s * mu_w - mu_w**2)) * (
        q_w * math.exp(mu_w)
        - q_s * math.exp(mu_s) * mu_w**2 / mu_s**2
        - (mu_s**2 - mu_w**2) / mu_s**2 * y0
    )
    e1 = (e_w * q_w * math.exp(mu_w) - e0 * y0) / (y1 * mu_w)
    return y1, e1


def e91_rate_oracle(v, f_ec, q_sift):
    s = 2.0 * math.sqrt(2.0) * v
    q_err = (1.0 - v) / 2.0
    holevo = h2_oracle((1.0 + math.sqrt(max(0.0, (s / 2.0) ** 2 - 1.0))) / 2.0)
    return q_sift * (1.0 - f_ec * h2_oracle(q_err) - holevo)


def cow_rate_oracle(q_mu, e_mu, e_ph, f_ec, q_sift):
    return q_sift * (-q_mu * f_ec * h2_oracle(e_mu)
                     + q_mu * (1.0 - h2_oracle(e_ph)))


def operating_point_oracle(kind, distance_km, q_sift, alpha_db=0.2, eta_det=0.2,
                           y0=5e-6, e_d=0.015, e0=0.5, f_ec=1.16, mu_s=0.5,
                           mu_w=0.1, v_source=0.98, alpha_sq=0.5):
    """Model operating point (Q_mu, E_mu, clamped rate per pulse) of one
    protocol on a fiber link; defaults are the configuration defaults.

    BB84 takes its single-photon terms from the two-intensity decoy bounds
    on the model gains, E91 reports the coincidence probability of a
    source placed at the transmitter, and COW has no phase error.
    """
    eta = transmittance_oracle(alpha_db, distance_km, eta_det)
    if kind == "bb84":
        gs = poisson_gains_oracle(mu_s, eta, y0, e_d, e0)
        gw = poisson_gains_oracle(mu_w, eta, y0, e_d, e0)
        y1, e1 = decoy_bounds_oracle(gs["q_mu"], gw["q_mu"], gw["e_mu"],
                                     mu_s, mu_w, y0, e0)
        q1 = y1 * mu_s * math.exp(-mu_s)
        raw = bb84_rate_oracle(gs["q_mu"], gs["e_mu"], q1, min(e1, 0.5), f_ec, q_sift)
        q_mu, e_mu = gs["q_mu"], gs["e_mu"]
    elif kind == "e91":
        q_mu, e_mu = y0 + eta * eta_det, (1.0 - v_source) / 2.0
        raw = e91_rate_oracle(v_source, f_ec, q_sift)
    else:
        g = poisson_gains_oracle(alpha_sq, eta, y0, e_d, e0)
        q_mu, e_mu = g["q_mu"], g["e_mu"]
        raw = cow_rate_oracle(q_mu, e_mu, 0.0, f_ec, q_sift)
    return q_mu, e_mu, max(raw, 0.0)


def cow_visibility_oracle(alpha_sq, dphi):
    return math.exp(-2.0 * alpha_sq * (1.0 - math.cos(dphi)))


def finite_penalty_oracle(n, eps):
    return 7.0 * math.sqrt(math.log(2.0 / eps, 2) / n) + 2.0 / n * math.log(1.0 / eps, 2)


def transmittance_oracle(alpha_db, d_km, eta_det):
    return math.pow(10.0, -alpha_db * d_km / 10.0) * eta_det


def wilson_oracle(k, n, z=Z_95):
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    margin = z * math.sqrt((p * (1 - p) + z * z / (4 * n)) / n) / denom
    return max(0.0, center - margin), min(1.0, center + margin)


def bit_level_sample_block(n_pulses, q_sift, q_mu, e_mu, rng):
    """Per-pulse reference for the block-level binomial sampler of
    ``channel.step_block``.

    Draws an explicit basis-match/detect/error outcome for every pulse.
    The block sampler conditions on exactly n*q basis matches, so the two
    agree in mean (and closely in spread) but are not identical laws;
    validation compares first moments across seeds. Limited to small n.
    """
    if n_pulses > 100_000:
        raise ValueError("bit-level sampler is for n_pulses <= 1e5")
    matched = rng.random(n_pulses) < q_sift
    detected = rng.random(n_pulses) < q_mu
    sifted = matched & detected
    n_sift = int(sifted.sum())
    n_err = int((rng.random(n_sift) < e_mu).sum())
    return n_sift, n_err


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def conv1d_causal_oracle(x, kernel, bias, dilation, g):
    """Dilated causal convolution by explicit left padding and one einsum
    per tap. Returns the output (B, C_out, T) and, for the upstream
    gradient ``g`` (B, C_out, T), the gradients w.r.t. x and the kernel."""
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    b_sz, n_in, t_len = x.shape
    n_out, _, k = kernel.shape
    pad = (k - 1) * dilation
    xp = np.concatenate([np.zeros((b_sz, n_in, pad)), x], axis=2)
    out = np.zeros((b_sz, n_out, t_len))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(kernel)
    for i in range(k):
        start = pad - i * dilation
        tap = xp[:, :, start:start + t_len]
        out += np.einsum("oc,bct->bot", kernel[:, :, i], tap)
        gxp[:, :, start:start + t_len] += np.einsum("oc,bot->bct", kernel[:, :, i], g)
        gk[:, :, i] = np.einsum("bot,bct->oc", g, tap)
    out += np.asarray(bias, dtype=float)[None, :, None]
    return out, gxp[:, :, pad:], gk


def adam_step_oracle(params, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam (Kingma and Ba, arXiv:1412.6980) one array at a time: updates
    the arrays ``params`` in place, with ``state`` holding one ``m`` and one
    ``v`` array per parameter and the step count ``t``."""
    state["t"] += 1
    t = state["t"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def relu_oracle(x, g):
    """ReLU of ``x`` by ``np.where`` and its gradient for upstream ``g``."""
    mask = x > 0
    return np.where(mask, x, 0.0), g * mask


def index_oracle(x, idx, g):
    """``x[idx]`` and its gradient for upstream ``g``, accumulated with
    ``np.add.at`` (right for any index, repeated elements included)."""
    grad = np.zeros_like(x)
    np.add.at(grad, idx, g)
    return x[idx], grad


# -- bitwise references for the closed-loop block ----------------------------
#
# Per-block code that derives every term on the spot: the channel takes the
# transmittance, the loss steps so far and the misalignment angle from the
# link and the schedule on every block, and the controller goes through
# numpy's Python-level dispatch on 5-vectors. The package computes these
# once per run, or without the dispatch, and must give the same bits; tests
# compare the two with ``==``.

def closed_form_gains_oracle(mu, eta, y0, e_d, e0=0.5):
    """(Q_mu, E_mu) of the closed-form weak-coherent-pulse gain model, each
    exponential taken twice."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1.0], got {eta!r}")
    q_mu = min(y0 + (1.0 - math.exp(-eta * mu)), 1.0)
    if q_mu <= 0.0:
        return 0.0, e0
    e_mu = (e0 * y0 + e_d * (1.0 - math.exp(-eta * mu))) / q_mu
    return q_mu, min(max(e_mu, 0.0), 1.0)


def effective_link_oracle(link, sched, ctrl, t, protocol="bb84", dphi=0.0):
    """(eta, v, e_d_eff, e_ph) of block ``t``, every term taken from the
    link and the schedule on the spot (the loss steps summed over the
    events so far)."""
    from optiqkd.rates import cow_visibility, transmittance

    if not 0 <= t < sched.blocks:
        raise ValueError(f"block {t} outside schedule of length {sched.blocks}")
    p = float(sched.depol_p[t])
    gamma = float(sched.damp_gamma[t])
    loss_db = sum(ev.magnitude for ev in sched.events if ev.block_index <= t)
    eta = transmittance(link) * 10.0 ** (-loss_db / 10.0) * (1.0 - gamma)
    m_err = min(max(link.e_d + float(sched.misalign_err[t]), 0.0), 1.0)
    theta_t = math.asin(math.sqrt(m_err))
    theta_err = theta_t - ctrl.theta_c
    if protocol == "cow":
        v = cow_visibility(ctrl.mu_s, dphi - ctrl.phi_c) * (1.0 - p)
        e_ph = (1.0 - v) / 2.0
    else:
        v = (1.0 - p) * math.cos(theta_err) ** 2
        e_ph = 0.0
    e_d_eff = min(max(math.sin(theta_err) ** 2 + p / 2.0, 0.0), 0.5)
    return eta, min(max(v, 0.0), 1.0), e_d_eff, e_ph


def _sample_fraction_oracle(rng, trials, p):
    trials = max(int(trials), 0)
    p = min(max(p, 0.0), 1.0)
    if trials == 0:
        return 0, 0
    return int(rng.binomial(trials, p)), trials


def step_block_oracle(link, sched, ctrl, proto, t, rng, channel, dphi=0.0):
    """One block's telemetry, abort flag unset, drawn from ``rng`` in the
    order ``channel.Simulator.step`` draws: per protocol, the sifted and
    error counts (BB84: signal then weak decoy; COW: then the monitor
    line)."""
    from optiqkd.channel import Telemetry, _estimate_eta, wilson_interval
    from optiqkd.rates import PROTOCOLS

    eta, v, e_d_eff, e_ph = effective_link_oracle(link, sched, ctrl, t, proto.kind, dphi)
    q_sift = PROTOCOLS[proto.kind].key_fraction(proto, ctrl.p_z)
    sample = _sample_fraction_oracle
    q_w_hat = e_w_hat = 0.0
    if proto.kind == "bb84":
        n_sig = int(round(channel.n_pulses * proto.bb84.p_s))
        n_weak = channel.n_pulses - n_sig
        gs = closed_form_gains_oracle(ctrl.mu_s, eta, link.y0, e_d_eff, link.e0)
        gw = closed_form_gains_oracle(ctrl.mu_w, eta, link.y0, e_d_eff, link.e0)
        n_sift, trials = sample(rng, round(n_sig * q_sift), gs[0])
        n_err, _ = sample(rng, n_sift, gs[1])
        n_sift_w, trials_w = sample(rng, round(n_weak * q_sift), gw[0])
        n_err_w, _ = sample(rng, n_sift_w, gw[1])
        q_mu_hat = n_sift / trials if trials else 0.0
        q_w_hat = n_sift_w / trials_w if trials_w else 0.0
        e_w_hat = n_err_w / n_sift_w if n_sift_w else link.e0
        mu_for_eta = ctrl.mu_s
    elif proto.kind == "e91":
        eta_pair = eta * link.eta_det
        v_pair = proto.e91.v_source * v
        q_c = min(link.y0 + eta_pair, 1.0)
        e_pair = (link.e0 * link.y0 + (1.0 - v_pair) / 2.0 * eta_pair) / q_c if q_c > 0 else link.e0
        n_sift, trials = sample(rng, round(channel.n_pulses * q_sift), q_c)
        n_err, _ = sample(rng, n_sift, e_pair)
        q_mu_hat = n_sift / trials if trials else 0.0
        mu_for_eta = 1.0
    else:
        g = closed_form_gains_oracle(ctrl.mu_s, eta, link.y0, e_d_eff, link.e0)
        n_sift, trials = sample(rng, round(channel.n_pulses * q_sift), g[0])
        n_err, _ = sample(rng, n_sift, g[1])
        n_mon, _ = sample(rng, round(channel.n_pulses * proto.cow.monitor_fraction), g[0])
        n_mon_err, _ = sample(rng, n_mon, e_ph)
        q_mu_hat = n_sift / trials if trials else 0.0
        mu_for_eta = ctrl.mu_s
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
    return Telemetry(block_index=t, n_pulses=channel.n_pulses, n_sifted=n_sift,
                     n_errors=n_err, q_mu_hat=q_mu_hat, e_mu_hat=e_mu_hat, e_lo=e_lo,
                     e_hi=e_hi, v_hat=v_hat,
                     eta_hat=_estimate_eta(q_mu_hat, link.y0, mu_for_eta),
                     q_w_hat=q_w_hat, e_w_hat=e_w_hat)


class SimulatorOracle:
    """``channel.Simulator`` on :func:`step_block_oracle`: the same seed, the
    two-block abort rule and the COW phase walk."""

    def __init__(self, link, proto, sched, seed, channel):
        self.link, self.proto, self.sched, self.channel = link, proto, sched, channel
        self.rng = np.random.Generator(np.random.Philox(key=seed))
        self.dphi = 0.0
        self.t = 0
        self.prev_exceeded = False

    def step(self, ctrl):
        from optiqkd.channel import PHASE_BOUND, PHASE_REVERSION, PHASE_STEP_SCALE

        telem = step_block_oracle(self.link, self.sched, ctrl, self.proto, self.t, self.rng,
                                  self.channel, self.dphi)
        exceeded = telem.n_sifted > 0 and telem.e_mu_hat > self.channel.abort_qber
        telem.aborted = exceeded and self.prev_exceeded
        self.prev_exceeded = exceeded and not telem.aborted
        if self.proto.kind == "cow":
            xi = self.rng.standard_normal()
            self.dphi = (1.0 - PHASE_REVERSION) * self.dphi + PHASE_STEP_SCALE * xi
            self.dphi = min(max(self.dphi, -PHASE_BOUND), PHASE_BOUND)
        self.t += 1
        return telem


def observe_oracle(z_fc, z_tm, ctrl):
    """The observation vector with each row clipped on its own and the
    control entries scaled by a nested helper."""
    from optiqkd.controller import (OBS_Z_CLIP, SAFE_MU_S, SAFE_MU_W, SAFE_PHI_C, SAFE_PZ,
                                    SAFE_THETA_C)

    z_fc = np.clip(z_fc, -OBS_Z_CLIP, OBS_Z_CLIP) / OBS_Z_CLIP
    z_tm = np.clip(z_tm, -OBS_Z_CLIP, OBS_Z_CLIP) / OBS_Z_CLIP

    def scale(x, box):
        lo, hi = box
        return 2.0 * (min(max(x, lo), hi) - lo) / (hi - lo) - 1.0

    ctrl_part = np.array([
        scale(ctrl.mu_s, SAFE_MU_S),
        scale(ctrl.mu_w, SAFE_MU_W),
        scale(ctrl.p_z, SAFE_PZ),
        scale(ctrl.theta_c, SAFE_THETA_C),
        scale(ctrl.phi_c, SAFE_PHI_C),
    ])
    return np.concatenate([z_fc, z_tm, ctrl_part])


def act_oracle(nets, obs, rng, protocol="bb84", deterministic=False):
    """``controller.act`` through ``np.clip``, ``np.sum`` and ``np.all``, with
    a mask array and an ``Action`` built per call (``act_calls`` is not
    counted)."""
    from optiqkd.controller import ACTION_CAPS, LOG2PI, Action, ActionSample
    from optiqkd.rates import PROTOCOLS

    def action(vec, mask):
        vec = np.asarray(vec, dtype=float) * mask
        return Action(*[float(x) for x in vec], mask=tuple(float(m) for m in mask))

    mask = np.asarray(PROTOCOLS[protocol].mask)
    mean, value = nets.mean_value(obs)
    noise = rng.standard_normal(nets.act_dim)
    if not (np.all(np.isfinite(mean)) and math.isfinite(value)):
        return ActionSample(action(np.zeros(nets.act_dim), mask),
                            0.0, 0.0, np.zeros(nets.act_dim), fallback=True)
    sigma = np.exp(np.clip(nets.log_std.data, -5.0, 2.0))
    u = mean if deterministic else mean + sigma * noise
    z = (u - mean) / sigma
    logp_terms = -0.5 * z**2 - np.log(sigma) - 0.5 * LOG2PI
    log_prob = float(np.sum(logp_terms * mask))
    deltas = np.tanh(u) * ACTION_CAPS
    return ActionSample(action(deltas, mask), log_prob, value, u)


# -- the PPO update on the nn graph ---------------------------------------
# Graph ops that only this reference and a few tests build; ``nn`` keeps the
# ops the package's own training and the benchmark kernels use.

def tanh(a):
    out = np.tanh(a.data)
    return nn.Var(out, [(a, lambda g: g * (1.0 - out * out))])


def exp(a):
    out = np.exp(a.data)
    return nn.Var(out, [(a, lambda g: g * out)])


def minimum(a, b):
    take_a = a.data <= b.data
    return nn.Var(
        np.where(take_a, a.data, b.data),
        [(a, lambda g: g * take_a), (b, lambda g: g * ~take_a)],
    )


def clip(a, lo, hi):
    inside = (a.data > lo) & (a.data < hi)
    return nn.Var(np.clip(a.data, lo, hi), [(a, lambda g: g * inside)])


def _graph_mlp(layers, h):
    for layer in layers[:-1]:
        h = tanh(nn.dense(h, layer.w, layer.b))
    return nn.dense(h, layers[-1].w, layers[-1].b)


def forward_actor(nets, obs):
    """The actor's mean (B, act_dim) as a graph node on ``obs`` (a Var)."""
    return _graph_mlp(nets.actor, obs)


def forward_critic(nets, obs):
    """The critic's value (B,) as a graph node on ``obs`` (a Var)."""
    return nn.index(_graph_mlp(nets.critic, obs), (slice(None), 0))


def _gaussian_log_prob(mean, log_std, u, mask):
    """Masked diagonal-Gaussian log density of pre-squash actions (B,)."""
    from optiqkd.controller import LOG2PI

    ls = clip(log_std, -5.0, 2.0)
    inv_sigma = exp(nn.mul(ls, nn.const(-1.0)))
    z = nn.mul(nn.const(u) - mean, inv_sigma)
    terms = nn.mul(nn.square(z), nn.const(-0.5)) - ls - nn.const(0.5 * LOG2PI)
    return nn.vsum(nn.mul(terms, nn.const(mask)), axis=1)


def ppo_update_oracle(buffer, nets):
    """``controller.ppo_update`` with every minibatch step built as an
    ``nn`` graph and differentiated by ``nn.backward``; each parameter's
    ``grad`` goes to its net's ``Adam.step``."""
    from optiqkd.controller import LOG2PI, discounted_returns
    from optiqkd.tcn import DivergenceError

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
    policy_losses, value_losses, entropies = [], [], []
    try:
        for _ in range(cfg.epochs):
            order = rng.permutation(len(buffer))
            for start in range(0, len(order), cfg.minibatch):
                sel = order[start:start + cfg.minibatch]
                obs_v = nn.const(obs[sel])
                mean = forward_actor(nets, obs_v)
                logp = _gaussian_log_prob(mean, nets.log_std, u[sel], masks[sel])
                ratio = exp(logp - nn.const(logp_old[sel]))
                adv_v = nn.const(adv[sel])
                surr = minimum(nn.mul(ratio, adv_v),
                               nn.mul(clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps),
                                      adv_v))
                ls = clip(nets.log_std, -5.0, 2.0)
                entropy = nn.vsum(nn.mul(ls + nn.const(0.5 * (LOG2PI + 1.0)),
                                         nn.const(masks[sel].mean(axis=0))))
                policy_loss = nn.neg(nn.vmean(surr)) - nn.mul(entropy, nn.const(cfg.entropy_weight))
                v_pred = forward_critic(nets, obs_v)
                value_loss = nn.vmean(nn.square(v_pred - nn.const(returns[sel])))
                if not (np.isfinite(policy_loss.data) and np.isfinite(value_loss.data)):
                    raise DivergenceError("non-finite PPO loss")
                nn.backward(policy_loss)
                nets.opt_actor.step()
                nn.backward(value_loss)
                nets.opt_critic.step()
                policy_losses.append(float(policy_loss.data))
                value_losses.append(float(value_loss.data))
                entropies.append(float(entropy.data))
    except (DivergenceError, nn.NonFiniteGradientError):
        nn.set_params(nets.named, snap)
        buffer.clear()
        raise
    report = {
        "mean_reward": float(np.mean(buffer.rewards)),
        "policy_loss": float(np.mean(policy_losses)),
        "value_loss": float(np.mean(value_losses)),
        "entropy": float(np.mean(entropies)),
    }
    buffer.clear()
    return report
