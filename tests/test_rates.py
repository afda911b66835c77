import math

import numpy as np
import pytest

from optiqkd.channel import ControlState, Telemetry
from optiqkd.rates import (Bb84Config, BoundInfeasibleError, DecoyBounds,
                           FiniteKeyConfig, LinkParams, ProtocolConfig,
                           bb84_key_rate, bb84_model_gains, bb84_sifted_key_rate,
                           binary_entropy, block_key_rate, cow_key_rate,
                           cow_visibility, decoy_bounds, e91_key_rate, e91_quantities,
                           finite_key_penalty, finite_key_rate, transmittance,
                           wcp_gain)

from oracles import (bb84_rate_oracle, cow_rate_oracle, cow_visibility_oracle,
                     decoy_bounds_oracle, e91_rate_oracle, finite_penalty_oracle,
                     h2_oracle, poisson_gains_oracle, transmittance_oracle)

LINK = LinkParams()
PROTO = ProtocolConfig()


class TestBinaryEntropy:
    def test_boundaries(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_high_precision_point(self):
        # frozen from the independent definition
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)
        assert binary_entropy(0.11) == pytest.approx(h2_oracle(0.11), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0, 1, size=1000):
            assert abs(binary_entropy(x) - binary_entropy(1 - x)) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestTransmittance:
    def test_zero_length_fiber(self):
        assert transmittance(LinkParams(distance_km=0.0)) == pytest.approx(0.2)

    def test_ten_db_is_factor_ten(self):
        assert transmittance(LinkParams(distance_km=50.0)) == pytest.approx(0.02, rel=1e-12)

    def test_oracle_point(self):
        link = LinkParams(distance_km=37.0)
        assert transmittance(link) == pytest.approx(
            transmittance_oracle(0.2, 37.0, 0.2), rel=1e-12)
        assert transmittance(link) == pytest.approx(0.03639401717219967, rel=1e-9)


class TestBb84Gains:
    def test_dark_channel_convention(self):
        assert wcp_gain(0.5, eta=0.0, y0=0.0, e_d=0.015) == (0.0, 0.5)

    def test_defaults_at_50km(self):
        q_mu, e_mu = bb84_model_gains(LINK, 0.5)
        oracle = poisson_gains_oracle(0.5, 0.02, 5e-6, 0.015)
        assert q_mu == pytest.approx(9.955166250831893e-3, rel=1e-9)
        assert e_mu == pytest.approx(1.5243592114777325e-2, rel=1e-9)
        assert q_mu == pytest.approx(oracle["q_mu"], rel=1e-12)
        assert e_mu == pytest.approx(oracle["e_mu"], rel=1e-12)

    def test_no_error_sources(self):
        for eta, mu in [(0.02, 0.5), (0.5, 0.2), (1.0, 1.0)]:
            assert wcp_gain(mu, eta=eta, y0=0.0, e_d=0.0)[1] == 0.0

    def test_closed_form_matches_poisson_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mu = rng.uniform(0.05, 1.0)
            eta = rng.uniform(1e-4, 1.0)
            y0 = rng.uniform(0, 1e-4)
            e_d = rng.uniform(0, 0.05)
            q_mu, e_mu = wcp_gain(mu, eta, y0, e_d)
            slow = poisson_gains_oracle(mu, eta, y0, e_d)
            assert q_mu == pytest.approx(slow["q_mu"], rel=1e-12)
            assert e_mu == pytest.approx(slow["e_mu"], rel=1e-12)

    def test_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q_mu, e_mu = wcp_gain(rng.uniform(0.05, 1.0), rng.uniform(1e-4, 1.0),
                                  rng.uniform(0, 1e-4), rng.uniform(0, 0.5))
            assert 0.0 <= q_mu <= 1.0 and 0.0 <= e_mu <= 1.0


class TestDecoyBounds:
    def test_bounds_bracket_truth_at_defaults(self):
        b = decoy_bounds(bb84_model_gains(LINK, 0.5), bb84_model_gains(LINK, 0.1),
                         0.5, 0.1, LINK.y0)
        oracle = poisson_gains_oracle(0.5, 0.02, 5e-6, 0.015)
        assert b.y1_lower <= oracle["y1"] + 1e-15
        assert b.e1_upper >= oracle["e1"] - 1e-15
        assert b.y1_lower == pytest.approx(0.01940408809607679, rel=1e-9)
        assert b.e1_upper == pytest.approx(0.017205097006870975, rel=1e-9)
        assert b.q1_lower == pytest.approx(b.y1_lower * 0.5 * math.exp(-0.5), rel=1e-12)

    def test_lossless_weak_limit(self):
        b = decoy_bounds(wcp_gain(0.5, eta=1.0, y0=0.0, e_d=0.0),
                         wcp_gain(1e-6, eta=1.0, y0=0.0, e_d=0.0), 0.5, 1e-6, 0.0)
        assert b.y1_lower == pytest.approx(1.0, abs=1e-3)

    def test_perturbed_observation_is_infeasible(self):
        link = LinkParams(distance_km=180.0)
        obs_s = bb84_model_gains(link, 0.5)
        q_w, e_w = bb84_model_gains(link, 0.1)
        with pytest.raises(BoundInfeasibleError):
            decoy_bounds(obs_s, (q_w * 0.5, e_w), 0.5, 0.1, link.y0)

    def test_safety_property_randomized(self):
        # module-level spot check; the full 1000-draw sweep runs in acceptance
        rng = np.random.default_rng(11)
        for _ in range(300):
            mu_s = rng.uniform(0.3, 0.7)
            mu_w = rng.uniform(0.05, 0.2)
            d = rng.uniform(0.0, 120.0)
            y0 = rng.uniform(1e-6, 1e-4)
            e_d = rng.uniform(0.0, 0.03)
            eta = transmittance_oracle(0.2, d, 0.2)
            obs_s = poisson_gains_oracle(mu_s, eta, y0, e_d)
            obs_w = poisson_gains_oracle(mu_w, eta, y0, e_d)
            b = decoy_bounds((obs_s["q_mu"], obs_s["e_mu"]),
                             (obs_w["q_mu"], obs_w["e_mu"]), mu_s, mu_w, y0)
            assert b.y1_lower <= obs_s["y1"] + 1e-12
            assert b.e1_upper >= min(obs_s["e1"], 0.5) - 1e-12


class TestBb84KeyRate:
    def test_error_free_channel(self):
        b = DecoyBounds(y1_lower=0.02, q1_lower=0.01, e1_upper=0.0)
        cfg = ProtocolConfig(f_ec=1.0)
        rep = bb84_key_rate(b, 0.01, 0.0, cfg, q=0.5)
        assert rep.r_per_pulse == pytest.approx(0.5 * 0.01, rel=1e-12)

    def test_defaults_against_oracle(self):
        q_mu, e_mu = obs_s = bb84_model_gains(LINK, 0.5)
        b = decoy_bounds(obs_s, bb84_model_gains(LINK, 0.1), 0.5, 0.1, LINK.y0)
        rep = bb84_key_rate(b, q_mu, e_mu, PROTO, q=0.5)
        expected = bb84_rate_oracle(q_mu, e_mu, b.q1_lower, b.e1_upper, 1.16, 0.5)
        assert rep.r_per_pulse == pytest.approx(expected, rel=1e-12)
        assert rep.r_per_pulse == pytest.approx(1.9159486917774457e-3, rel=1e-9)
        assert rep.r_bps == pytest.approx(rep.r_per_pulse * 2.5e8, rel=1e-12)

    def test_block_rate_at_control_intensities(self):
        # a block's decoy bounds use the control's (mu_s, mu_w), not the
        # configured nominal pair that static episodes run at
        ctrl = ControlState(mu_s=0.7, mu_w=0.15, p_z=0.8)
        eta = transmittance_oracle(0.2, 50.0, 0.2)
        obs_s = poisson_gains_oracle(0.7, eta, LINK.y0, LINK.e_d)
        obs_w = poisson_gains_oracle(0.15, eta, LINK.y0, LINK.e_d)
        telem = Telemetry(block_index=0, n_pulses=10**6, n_sifted=0, n_errors=0,
                          q_mu_hat=obs_s["q_mu"], e_mu_hat=obs_s["e_mu"], e_lo=0.0,
                          e_hi=0.0, v_hat=1.0, eta_hat=eta,
                          q_w_hat=obs_w["q_mu"], e_w_hat=obs_w["e_mu"])
        y1, e1 = decoy_bounds_oracle(obs_s["q_mu"], obs_w["q_mu"], obs_w["e_mu"],
                                     0.7, 0.15, LINK.y0)
        expected = bb84_rate_oracle(obs_s["q_mu"], obs_s["e_mu"], y1 * 0.7 * math.exp(-0.7),
                                    min(e1, 0.5), 1.16, 0.8**2 + 0.2**2)
        assert expected > 0.0
        r_bps, _ = block_key_rate(LINK, PROTO, ctrl, telem)
        assert r_bps == pytest.approx(expected * LINK.f_rep, rel=1e-9)

    def test_sifted_variant_near_threshold(self):
        q_mu = 0.01
        rep = bb84_sifted_key_rate(q_mu, 0.11, ProtocolConfig(f_ec=1.0), q=0.5)
        assert abs(rep.raw) <= 1e-3 * q_mu

    def test_sifted_consistency_with_full_rate(self):
        # Q1 = Q_mu, e1 = E_mu, f = 1 collapses Eq-style rate to the
        # sifted approximation exactly
        cfg = ProtocolConfig(f_ec=1.0)
        for e in (0.01, 0.05, 0.11, 0.2):
            b = DecoyBounds(y1_lower=0.02, q1_lower=0.01, e1_upper=e)
            full = bb84_key_rate(b, 0.01, e, cfg, q=0.5).raw
            sift = bb84_sifted_key_rate(0.01, e, cfg, q=0.5).raw
            assert abs(full - sift) < 1e-12

    def test_negative_raw_preserved_and_clamped(self):
        b = DecoyBounds(y1_lower=0.02, q1_lower=0.002, e1_upper=0.2)
        rep = bb84_key_rate(b, 0.01, 0.2, PROTO, q=0.5)
        assert rep.raw < 0.0
        assert rep.r_per_pulse == 0.0
        assert rep.r_finite == 0.0

    def test_monotone_in_distance(self):
        prev = math.inf
        for d in np.arange(0.0, 200.1, 5.0):
            link = LinkParams(distance_km=float(d))
            q_mu, e_mu = obs_s = bb84_model_gains(link, 0.5)
            b = decoy_bounds(obs_s, bb84_model_gains(link, 0.1), 0.5, 0.1, link.y0)
            r = bb84_key_rate(b, q_mu, e_mu, PROTO, q=0.5).r_per_pulse
            assert r <= prev + 1e-15
            prev = r


class TestE91:
    def test_quantities(self):
        s, q = e91_quantities(1.0)
        assert s == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert q == 0.0
        s, q = e91_quantities(0.9)
        assert s == pytest.approx(2.5455844122715714, rel=1e-12)
        assert q == pytest.approx(0.05, rel=1e-12)
        s, q = e91_quantities(0.0)
        assert s == 0.0 and q == 0.5

    def test_perfect_singlet_rate(self):
        cfg = ProtocolConfig(kind="e91", f_ec=1.0)
        rep = e91_key_rate(2.0 * math.sqrt(2.0), 0.0, cfg, q=0.5)
        assert rep.r_per_pulse == pytest.approx(0.5, rel=1e-12)

    def test_no_violation_yields_zero(self):
        # S = 2 leaves no privacy term: the raw rate is the leak alone
        cfg = ProtocolConfig(kind="e91", f_ec=1.16)
        for q_err in (0.0, 0.05, 0.3):
            rep = e91_key_rate(2.0, q_err, cfg, q=0.5)
            assert rep.raw == pytest.approx(-0.5 * 1.16 * h2_oracle(q_err), abs=1e-12)
            assert rep.r_per_pulse == 0.0

    def test_oracle_agreement(self):
        cfg = ProtocolConfig(kind="e91", f_ec=1.16)
        for v in (0.99, 0.95, 0.9, 0.85):
            s, q_err = e91_quantities(v)
            rep = e91_key_rate(s, q_err, cfg, q=0.5)
            assert rep.raw == pytest.approx(
                e91_rate_oracle(v, 1.16, 0.5), rel=1e-12)

    def test_bracket_changes_sign_exactly_once(self):
        cfg = ProtocolConfig(kind="e91", f_ec=1.0)
        grid = np.arange(0.05, 0.2001, 0.0025)
        raws = []
        for q_err in grid:
            s, _ = e91_quantities(1.0 - 2.0 * q_err)
            raws.append(e91_key_rate(s, q_err, cfg, q=1.0).raw)
        signs = np.sign(raws)
        changes = np.sum(signs[:-1] != signs[1:])
        assert changes == 1


class TestCow:
    def test_no_drift(self):
        assert cow_visibility(0.5, 0.0) == 1.0

    def test_quarter_turn(self):
        v = cow_visibility(0.5, math.pi / 2.0)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-12)
        # the phase error (1 - V) / 2
        assert (1.0 - v) / 2.0 == pytest.approx(0.31606027941427883, rel=1e-12)

    def test_half_turn_quarter_photon(self):
        assert cow_visibility(0.25, math.pi) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert cow_visibility(0.25, math.pi) == pytest.approx(
            cow_visibility_oracle(0.25, math.pi), rel=1e-12)

    def test_perfect_coherence_rate(self):
        cfg = ProtocolConfig(kind="cow", f_ec=1.0)
        rep = cow_key_rate(0.03, 0.0, 0.0, cfg, q=0.81)
        assert rep.r_per_pulse == pytest.approx(0.81 * 0.03, rel=1e-12)

    def test_visibility_collapse(self):
        rep = cow_key_rate(0.03, 0.01, 0.5, ProtocolConfig(kind="cow"), q=0.81)
        assert rep.r_per_pulse == 0.0

    def test_oracle_point_25km(self):
        link = LinkParams(distance_km=25.0)
        eta = transmittance(link)
        q_mu, e_mu = wcp_gain(0.5, eta, link.y0, link.e_d)
        e_ph = (1.0 - cow_visibility(0.5, 0.3)) / 2.0
        cfg = ProtocolConfig(kind="cow", f_ec=1.16)
        rep = cow_key_rate(q_mu, e_mu, e_ph, cfg, q=0.81)
        assert rep.r_per_pulse == pytest.approx(
            cow_rate_oracle(q_mu, e_mu, e_ph, 1.16, 0.81), rel=1e-12)
        assert rep.r_per_pulse == pytest.approx(0.018092809490448086, rel=1e-9)


class TestFiniteKey:
    def test_asymptotic_limit(self):
        assert finite_key_rate(0.01, 1e18, 1e-10) == pytest.approx(0.01, rel=1e-4)

    def test_penalty_value(self):
        assert finite_key_penalty(1e6, 1e-10) == pytest.approx(
            0.04101451258858193, rel=1e-12)
        assert finite_key_penalty(1e6, 1e-10) == pytest.approx(
            finite_penalty_oracle(1e6, 1e-10), rel=1e-12)

    def test_penalty_exceeds_rate(self):
        assert finite_key_rate(0.01, 1e4, 1e-10) == 0.0

    def test_clamping_invariant(self):
        rng = np.random.default_rng(5)
        fk = FiniteKeyConfig()
        for _ in range(200):
            r = rng.uniform(0, 0.1)
            fin = finite_key_rate(r, fk.n_block, fk.epsilon)
            assert 0.0 <= fin <= r


class TestValidation:
    def test_link_invariants(self):
        with pytest.raises(ValueError):
            LinkParams(eta_det=0.0)
        with pytest.raises(ValueError):
            LinkParams(e_d=0.6)
        with pytest.raises(ValueError):
            LinkParams(distance_km=-1.0)

    def test_protocol_invariants(self):
        with pytest.raises(ValueError):
            ProtocolConfig(kind="b92")
        with pytest.raises(ValueError):
            ProtocolConfig(f_ec=0.9)
        with pytest.raises(ValueError):
            Bb84Config(mu_s=0.1, mu_w=0.5)
        with pytest.raises(ValueError):
            FiniteKeyConfig(epsilon=1.5)
