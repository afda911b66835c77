"""Independent reference implementations used to pin expected test values.

These deliberately re-derive every quantity from first principles with
their own code paths (explicit photon-number sums, direct formula
transliterations, central finite differences) so that a defect in the
package cannot hide in its own oracle.
"""

import math

import numpy as np

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
