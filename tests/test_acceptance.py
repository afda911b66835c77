"""Acceptance suite: every headline requirement as one test, each printing a
PASS/FAIL line with its measured numbers.

Notes on the two checks whose references need a source:

* check 3 pins where each key-rate bound loses positivity, under the
  Werner-state parameterization S = 2*sqrt(2)*(1-2Q). The CHSH-certified
  entanglement rate is the device-independent bound of Acin et al.,
  PRL 98, 230501 (2007), arXiv:quant-ph/0702152, which gives up positive
  key at Q = 7.1%; the check asserts its sign change inside
  [0.070, 0.073]. The older window [0.10, 0.125] brackets 11.0%, the zero
  of the sifted-key bound 1 - 2 h(Q) (Shor and Preskill 2000), and is now
  applied to ``bb84_sifted_key_rate``, the bound it belongs to. The check
  also asserts that the entanglement zero lies strictly below the
  sifted-key zero.

* check 8 compares ML and recalibration adaptation times after the 3 dB
  splice. The splice is a persistent loss step and throughput is close to
  linear in transmittance, so no controller gets back to the pre-splice
  level; the reference is therefore 95% of the pre-splice median scaled
  by the event's own transmittance factor 10^(-dB/10). With that reference
  the check depends on the controllers, but it stays red: after the event
  the per-block rate has a coefficient of variation of 20-28%, far wider
  than the 5% band, and a pure loss step leaves nothing to adapt (the ML
  policy holds mu_s near 1.0 across the event, and the static controller,
  which never moves, "recovers" in a handful of blocks). Whether the check
  should use a compensable event or a smoothed tau is not settled here.
"""

import math
import time

import numpy as np
import pytest

from optiqkd import nn
from optiqkd.channel import (ChannelConfig, ControlState, Simulator, make_scenario,
                             wilson_interval)
from optiqkd.cli import main as cli_main
from optiqkd.controller import (ActorCritic, PpoConfig, RolloutBuffer,
                                load_policy, ppo_update, save_policy)
from optiqkd.loop import (TrainConfig, adaptation_time, bootstrap_ci, compare,
                          forecaster_corpus, run_episode, train_policy)
from optiqkd.rates import (LinkParams, ProtocolConfig, bb84_key_rate,
                           bb84_model_gains, bb84_sifted_key_rate, cow_key_rate,
                           cow_visibility, decoy_bounds, e91_key_rate,
                           e91_quantities, transmittance, wcp_gain)
from optiqkd.tcn import (TcnConfig, make_dataset, save_tcn, dataset_mse,
                         persistence_mse, telemetry_features, train_forecaster)
from optiqkd.nn import Var, backward, conv1d_causal, dense, relu

from oracles import (bb84_rate_oracle, cow_rate_oracle, e91_rate_oracle,
                     fd_gradient, max_rel_err, poisson_gains_oracle,
                     transmittance_oracle)

LINK = LinkParams()
PROTO = ProtocolConfig()
TIMINGS = {}


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def trained_tcn():
    t0 = time.monotonic()
    cfg = TcnConfig()
    # the corpus `optiqkd train tcn --seed 1` trains on, with its own training key
    corpus = forecaster_corpus(TrainConfig(), cfg.window, LINK, PROTO, ChannelConfig(), seed=1)
    model, _ = train_forecaster(corpus, cfg, np.random.Generator(np.random.Philox(key=15)))
    TIMINGS["tcn_train"] = time.monotonic() - t0
    return model


@pytest.fixture(scope="module")
def trained_policy(trained_tcn, tmp_path_factory):
    t0 = time.monotonic()
    nets, _ = train_policy(LINK, PROTO, trained_tcn, seed=0,
                           train=TrainConfig(ppo_updates=300))
    TIMINGS["ppo_train"] = time.monotonic() - t0
    path = tmp_path_factory.mktemp("ckpt") / "policy.ckpt"
    save_policy(str(path), nets)
    return str(path)


@pytest.fixture(scope="module")
def sweep_runs(trained_tcn, trained_policy):
    t0 = time.monotonic()
    runs = {"ml": [], "static": []}
    for seed in range(1, 6):
        nets = load_policy(trained_policy)
        runs["ml"].append(run_episode(LINK, PROTO, "noise-sweep", "ml",
                                      seed=seed, blocks=600,
                                      tcn_model=trained_tcn, nets=nets))
        runs["static"].append(run_episode(LINK, PROTO, "noise-sweep", "static",
                                          seed=seed, blocks=600))
    TIMINGS["sweep_eval"] = time.monotonic() - t0
    return runs


@pytest.fixture(scope="module")
def splice_runs(trained_tcn, trained_policy):
    runs = {"ml": [], "recalib": [], "static": []}
    for seed in range(1, 6):
        nets = load_policy(trained_policy)
        runs["ml"].append(run_episode(LINK, PROTO, "splice-3db", "ml",
                                      seed=seed, blocks=300,
                                      tcn_model=trained_tcn, nets=nets))
        for kind in ("recalib", "static"):
            runs[kind].append(run_episode(LINK, PROTO, "splice-3db", kind,
                                          seed=seed, blocks=300))
    return runs


def test_01_rate_engine_exactness():
    t0 = time.monotonic()
    worst = 0.0
    for d in np.arange(0.0, 120.1, 5.0):
        link = LinkParams(distance_km=float(d))
        eta = transmittance(link)
        assert eta == pytest.approx(transmittance_oracle(0.2, d, 0.2), rel=1e-12)

        q_mu, e_mu = obs_s = bb84_model_gains(link, 0.5)
        obs_w = bb84_model_gains(link, 0.1)
        ob_s = poisson_gains_oracle(0.5, eta, link.y0, link.e_d)
        ob_w = poisson_gains_oracle(0.1, eta, link.y0, link.e_d)
        worst = max(worst, max_rel_err(q_mu, ob_s["q_mu"], floor=1e-30),
                    max_rel_err(e_mu, ob_s["e_mu"], floor=1e-30))
        bounds = decoy_bounds(obs_s, obs_w, 0.5, 0.1, link.y0)
        rep = bb84_key_rate(bounds, q_mu, e_mu, PROTO, q=0.5)
        from oracles import decoy_bounds_oracle
        y1o, e1o = decoy_bounds_oracle(ob_s["q_mu"], ob_w["q_mu"], ob_w["e_mu"],
                                       0.5, 0.1, link.y0)
        ref = bb84_rate_oracle(ob_s["q_mu"], ob_s["e_mu"],
                               y1o * 0.5 * math.exp(-0.5), min(e1o, 0.5),
                               1.16, 0.5)
        worst = max(worst, max_rel_err(rep.r_per_pulse, max(ref, 0.0), floor=1e-30))

        e91_cfg = ProtocolConfig(kind="e91")
        s, q_err = e91_quantities(e91_cfg.e91.v_source)
        rep = e91_key_rate(s, q_err, e91_cfg, q=0.5)
        ref = max(e91_rate_oracle(e91_cfg.e91.v_source, 1.16, 0.5), 0.0)
        worst = max(worst, max_rel_err(rep.r_per_pulse, ref, floor=1e-30))

        cow_cfg = ProtocolConfig(kind="cow")
        q_mu, e_mu = wcp_gain(0.5, eta, link.y0, link.e_d)
        e_ph = (1.0 - cow_visibility(0.5, 0.0)) / 2.0
        rep = cow_key_rate(q_mu, e_mu, e_ph, cow_cfg, q=0.81)
        ref = max(cow_rate_oracle(ob_s["q_mu"], ob_s["e_mu"], 0.0, 1.16, 0.81), 0.0)
        worst = max(worst, max_rel_err(rep.r_per_pulse, ref, floor=1e-30))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert report(1, "rate-engine exactness", ok,
                  f"max rel err {worst:.2e} (need <=1e-9) over 0-120 km, "
                  f"3 protocols, {elapsed:.2f}s (budget 5s)")


def test_02_decoy_bound_safety():
    t0 = time.monotonic()
    rng = np.random.default_rng(20)
    violations = 0
    for _ in range(1000):
        mu_s = rng.uniform(0.3, 0.7)
        mu_w = rng.uniform(0.05, 0.2)
        d = rng.uniform(0.0, 120.0)
        y0 = rng.uniform(1e-6, 1e-4)
        e_d = rng.uniform(0.0, 0.03)
        eta = transmittance_oracle(0.2, d, 0.2)
        ob_s = poisson_gains_oracle(mu_s, eta, y0, e_d)
        ob_w = poisson_gains_oracle(mu_w, eta, y0, e_d)
        b = decoy_bounds((ob_s["q_mu"], ob_s["e_mu"]),
                         (ob_w["q_mu"], ob_w["e_mu"]), mu_s, mu_w, y0)
        if b.y1_lower > ob_s["y1"] + 1e-12 or b.e1_upper < min(ob_s["e1"], 0.5) - 1e-12:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 10.0
    assert report(2, "decoy-bound safety", ok,
                  f"{violations}/1000 violations (need 0), {elapsed:.2f}s (budget 10s)")


def test_03_e91_threshold_window():
    e91_cfg = ProtocolConfig(kind="e91", f_ec=1.0)
    sifted_cfg = ProtocolConfig(f_ec=1.0)

    def e91_raw(q_err):
        # Werner-state parameterization: S = 2*sqrt(2)*(1 - 2Q)
        s, _ = e91_quantities(1.0 - 2.0 * q_err)
        return e91_key_rate(s, q_err, e91_cfg, q=1.0).raw

    def sifted_raw(q_err):
        return bb84_sifted_key_rate(1.0, q_err, sifted_cfg, q=1.0).raw

    def zero(rate):
        a, b = 0.02, 0.2
        for _ in range(60):
            mid = (a + b) / 2
            if rate(mid) > 0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    # device-independent CHSH bound: zero near Q = 7.1% (Acin et al. 2007)
    e_lo, e_hi = e91_raw(0.070), e91_raw(0.073)
    # sifted-key bound 1 - 2 h(Q): zero near Q = 11.0% (Shor-Preskill 2000)
    s_lo, s_hi = sifted_raw(0.10), sifted_raw(0.125)
    e_zero, s_zero = zero(e91_raw), zero(sifted_raw)
    ok = e_lo > 0.0 > e_hi and s_lo > 0.0 > s_hi and e_zero < s_zero
    assert report(3, "entanglement rate threshold", ok,
                  f"e91 raw(0.070)={e_lo:+.4f}, raw(0.073)={e_hi:+.4f} "
                  f"(need sign change in [0.070, 0.073]); sifted-key "
                  f"raw(0.10)={s_lo:+.4f}, raw(0.125)={s_hi:+.4f} (need sign "
                  f"change in [0.10, 0.125]); zeros at Q={e_zero:.4f} < "
                  f"Q={s_zero:.4f}: {e_zero < s_zero}")


def test_04_tcn_correctness():
    t0 = time.monotonic()
    # gradient checks over the layer stack
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(4):
        k = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=4)
        w = rng.normal(size=(2, 4))
        b2 = rng.normal(size=2)
        x = rng.normal(size=(1, 3, 12)) + 0.05
        arrays = (k, b, w, b2, x)

        def forward(kv, bv, wv, b2v, xv):
            h = relu(conv1d_causal(Var(xv), Var(kv), Var(bv), dilation=2))
            last = nn.index(h, (slice(None), slice(None), -1))
            return nn.vmean(nn.square(dense(last, Var(wv), Var(b2v))))

        vars_ = [Var(a.copy()) for a in arrays]
        h = relu(conv1d_causal(vars_[4], vars_[0], vars_[1], dilation=2))
        last = nn.index(h, (slice(None), slice(None), -1))
        loss = nn.vmean(nn.square(dense(last, vars_[2], vars_[3])))
        backward(loss)
        for i in range(5):
            def f(a, i=i):
                parts = [q.copy() for q in arrays]
                parts[i] = a
                return float(forward(*parts).data)
            worst = max(worst, max_rel_err(fd_gradient(f, arrays[i]),
                                           vars_[i].grad, floor=1e-4))
    grads_ok = worst < 1e-4

    # exact causality at the required dilations
    causal_ok = True
    for dilation in (1, 2, 4, 8):
        x = rng.normal(size=(1, 2, 30))
        k = rng.normal(size=(3, 2, 3))
        base = conv1d_causal(Var(x), Var(k), Var(np.zeros(3)), dilation).data
        xp = x.copy()
        xp[:, :, 17] += 1.0
        out = conv1d_causal(Var(xp), Var(k), Var(np.zeros(3)), dilation).data
        causal_ok &= bool(np.array_equal(out[:, :, :17], base[:, :, :17]))

    # sinusoid-drift benchmark, five seeds
    ratios = []
    ctrl = ControlState()
    for seed in range(1, 6):
        sim = Simulator(LINK, PROTO, make_scenario("sine-drift", 500), seed=seed)
        feats = np.array([telemetry_features(sim.step(ctrl)) for _ in range(500)])
        cfg = TcnConfig()
        ds = make_dataset(feats, cfg.window)
        model, _ = train_forecaster(ds, cfg, np.random.default_rng(seed))
        ratios.append(dataset_mse(ds, model) / persistence_mse(ds, model.normalizer))
    bench_ok = all(r <= 0.5 for r in ratios)
    elapsed = time.monotonic() - t0
    ok = grads_ok and causal_ok and bench_ok and elapsed < 180.0
    assert report(4, "forecaster correctness", ok,
                  f"grad rel err {worst:.1e} (<1e-4), causality exact: {causal_ok}, "
                  f"benchmark ratios {['%.2f' % r for r in ratios]} (each <=0.5), "
                  f"{elapsed:.0f}s (budget 180s)")


def test_05_ppo_toy_convergence():
    t0 = time.monotonic()
    target = 0.6
    final = []
    for seed in (1, 2, 3):
        cfg = PpoConfig(gamma=0.05, rollout=64, minibatch=32, lr=3e-3, epochs=4,
                        entropy_weight=0.003, log_std_init=-0.5, hidden=(32, 32))
        nets = ActorCritic(cfg, obs_dim=1, act_dim=1,
                           rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1000)
        buf = RolloutBuffer()
        obs = np.array([1.0])
        mask = np.ones(1)
        for update in range(200):
            if update == 120:
                nets.opt.lr /= 10.0
            for _ in range(cfg.rollout):
                mean, v = nets.mean_value(obs)
                sigma = nets.sigma()
                u = mean + sigma * rng.standard_normal(1)
                a = float(np.tanh(u)[0])
                z = (u - mean) / sigma
                logp = float(np.sum(-0.5 * z**2 - np.log(sigma)
                                    - 0.5 * math.log(2 * math.pi)))
                buf.add(obs, u, logp, v, -(a - target) ** 2, mask)
            ppo_update(buf, nets)
        det = math.tanh(float(nets.mean_value(obs)[0][0]))
        final.append(det)
    rel_errs = [abs(a - target) / target for a in final]
    elapsed = time.monotonic() - t0
    ok = all(e <= 0.05 for e in rel_errs) and elapsed < 180.0
    assert report(5, "controller toy convergence", ok,
                  f"deterministic actions {['%.3f' % a for a in final]} vs optimum "
                  f"{target} (rel errs {['%.3f' % e for e in rel_errs]}, each <=0.05), "
                  f"200 updates, {elapsed:.0f}s (budget 180s)")


def test_06_closed_loop_skr_gain(sweep_runs):
    res = compare(sweep_runs, warmup=100)
    ml = res.metrics["ml"].median_skr_bps
    st = res.metrics["static"].median_skr_bps
    train_eval = (TIMINGS.get("tcn_train", 0.0) + TIMINGS.get("ppo_train", 0.0)
                  + TIMINGS.get("sweep_eval", 0.0))
    ok = st > 0 and ml >= 1.15 * st and train_eval < 1200.0
    assert report(6, "closed-loop SKR gain", ok,
                  f"ml median {ml:.3e} bps vs static {st:.3e} bps: "
                  f"{ml / st:.2f}x (need >=1.15x); train+eval {train_eval:.0f}s "
                  f"(budget 1200s)")


def test_07_closed_loop_qber_suppression(sweep_runs):
    res = compare(sweep_runs, warmup=100)
    ml_q = res.metrics["ml"].median_qber
    st_q = res.metrics["static"].median_qber
    ratio_ok = ml_q <= 0.7 * st_q
    worst_peak = max(log.qber_series()[500:].max() for log in sweep_runs["ml"])
    breach_ok = worst_peak < 0.11
    ok = ratio_ok and breach_ok
    assert report(7, "closed-loop QBER suppression", ok,
                  f"ml median QBER {ml_q:.4f} vs static {st_q:.4f} "
                  f"(ratio {ml_q / st_q:.2f}, need <=0.7); worst per-block QBER at "
                  f"peak stress {worst_peak:.4f} across 5 seeds (need <0.11)")


def test_08_adaptation_time(splice_runs):
    splice = make_scenario("splice-3db", 300).events[0]
    # a persistent loss step scales throughput by its transmittance factor,
    # so the reachable reference is the pre-event median times that factor
    loss_factor = 10.0 ** (-splice.magnitude / 10.0)
    fraction = 0.95 * loss_factor
    wins = 0
    details = []
    for ml_log, rc_log, st_log in zip(splice_runs["ml"], splice_runs["recalib"],
                                      splice_runs["static"]):
        tau_ml, tau_rc, tau_st = (
            adaptation_time(log, splice.block_index, recovery_fraction=fraction)
            for log in (ml_log, rc_log, st_log))
        details.append(f"seed {ml_log.seed}: ml={tau_ml} recalib={tau_rc} "
                       f"static={tau_st}")
        if tau_ml is not None and tau_rc is not None and tau_ml <= 0.5 * tau_rc:
            wins += 1
    ok = wins >= 4
    assert report(8, "splice adaptation time", ok,
                  f"{wins}/5 seeds with ml <= 0.5x recalib (need >=4); "
                  + "; ".join(details)
                  + f" (tau = blocks until 3 in a row >= 0.95 x "
                  f"{loss_factor:.3f} ({splice.magnitude:g} dB) = "
                  f"{fraction:.3f} of the pre-splice median, None = never)")


def test_09_statistical_machinery():
    rng = np.random.default_rng(40)
    n, p = 1000, 0.03
    hits = 0
    trials = 500
    for _ in range(trials):
        k = rng.binomial(n, p)
        lo, hi = wilson_interval(k, n)
        if lo <= p <= hi:
            hits += 1
    coverage = hits / trials
    lo, hi = bootstrap_ci([7.25, 7.25, 7.25, 7.25, 7.25])
    degenerate = (lo == hi == 7.25)
    ok = coverage >= 0.93 and degenerate
    assert report(9, "statistical machinery", ok,
                  f"Wilson coverage {coverage:.3f} over {trials} trials "
                  f"(need >=0.93); constant-metric bootstrap degenerate: {degenerate}")


def test_10_determinism(trained_tcn, trained_policy, tmp_path):
    tcn_path = tmp_path / "tcn.ckpt"
    save_tcn(str(tcn_path), trained_tcn)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["eval", "--scenario", "noise-sweep", "--controllers",
                       "ml,static", "--seeds", "1..2", "--blocks", "210",
                       "--tcn", str(tcn_path), "--policy", trained_policy,
                       "--out", str(out),
                       "--set", "channel.n_pulses=200000"])
        assert rc == 0
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    same = outs[0] == outs[1]
    n_files = len(outs[0])
    ok = same and n_files == 5  # 4 episode CSVs + 1 metrics CSV
    assert report(10, "pipeline determinism", ok,
                  f"{n_files} CSVs byte-identical across repeated eval runs: {same}")
