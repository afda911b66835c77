"""Property tests of the hand-off edges (the config document and the
model checkpoints), the streaming forecaster and the rate engine's bounds.

- A ``--set key=v`` override of any numeric leaf reaches its typed config
  as exactly ``v`` (or fails with the dataclass's own ``ValueError``), and
  a JSON overlay of the same value gives the same document.
- Random small TCN and PPO architectures save and load bit-exactly (a
  policy's input and output sizes are fixed: ``load_policy`` refuses others).
- A checkpoint array that is missing, mis-shaped or unknown is rejected
  with an error naming it, and ``optiqkd eval`` exits with code 2.
- The streaming ``Forecaster`` matches ``tcn_forward`` over the last
  ``window`` rows on every block.
- The asymptotic key rate never rises with distance; the decoy bounds
  bracket the single-photon yield and error (Lo, Ma & Chen 2005); Wilson
  intervals lie in [0, 1] and nest as the confidence level grows.
"""

import dataclasses
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from optiqkd import config as cfgmod
from optiqkd import nn
from optiqkd.cli import main
from optiqkd.loop import LoopConfig, TrainConfig
from optiqkd.controller import (ActorCritic, PpoConfig, RewardConfig, load_policy,
                                save_policy)
from optiqkd.channel import ChannelConfig, wilson_interval
from optiqkd.rates import (PROTOCOLS, BoundInfeasibleError, Bb84Config, CowConfig,
                           E91Config, LinkParams, ProtocolConfig, bb84_gains,
                           decoy_bounds, operating_point)
from optiqkd.tcn import (FEATURES, Forecaster, Normalizer, TcnConfig, TcnModel, load_tcn,
                         save_tcn, tcn_forward)

from oracles import forward_actor, forward_critic

# a fixed example sequence keeps the suite deterministic
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# section -> the default typed config the section mirrors
TYPED = {
    "link": LinkParams(),
    "protocol": ProtocolConfig(),
    "channel": ChannelConfig(),
    "tcn": TcnConfig(),
    "ppo": PpoConfig(),
    "reward": RewardConfig(),
    "loop": LoopConfig(),
    "train": TrainConfig(),
}


def numeric_leaves(node, prefix=""):
    """Dotted keys of every scalar numeric (or ``None``) leaf."""
    for key, val in node.items():
        path = prefix + key
        if isinstance(val, dict):
            yield from numeric_leaves(val, path + ".")
        elif val is None or (isinstance(val, (int, float)) and not isinstance(val, bool)):
            yield path


LEAVES = sorted(numeric_leaves(cfgmod.default_config()))
FLOATS = st.floats(-1e3, 1e3, allow_nan=False) | st.floats(-1e12, 1e12, allow_nan=False)


@st.composite
def leaf_and_value(draw):
    key = draw(st.sampled_from(LEAVES))
    node = cfgmod.default_config()
    for part in key.split(".")[:-1]:
        node = node[part]
    if isinstance(node[key.split(".")[-1]], int):
        return key, draw(st.integers(-5, 5000))
    return key, draw(FLOATS)


def nested(key, val):
    doc = val
    for part in reversed(key.split(".")):
        doc = {part: doc}
    return doc


def own_error(key, val):
    """Whether the dataclass holding ``key`` rejects ``val`` by itself."""
    section, *inner, field = key.split(".")
    owner = TYPED[section]
    for part in inner:
        owner = getattr(owner, part)
    try:
        dataclasses.replace(owner, **{field: val})
    except ValueError:
        return True
    return False


def test_leaves_cover_every_typed_section():
    sections = {key.split(".")[0] for key in LEAVES}
    assert set(TYPED) == sections == set(cfgmod.DEFAULTS)
    assert "protocol.q" not in LEAVES and "tcn.layers" not in LEAVES


@SETTINGS
@given(leaf_and_value())
def test_config_override_round_trip(kv):
    key, val = kv
    by_set = cfgmod.apply_overrides(cfgmod.default_config(), [f"{key}={val!r}"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(nested(key, val), fh)
        by_json = cfgmod.load_config(path)
    assert by_set == by_json
    section, *inner, field = key.split(".")
    node = by_set[section]
    for part in inner:
        node = node[part]
    assert node[field] == val
    rejected = own_error(key, val)
    try:
        typed = cfgmod.typed(by_set, section)
    except ValueError:
        assert rejected, f"{key}={val!r} rejected by the builder only"
        return
    assert not rejected
    for part in inner:
        typed = getattr(typed, part)
    got = getattr(typed, field)
    assert got == val and type(got) is type(val)


# -- checkpoints --------------------------------------------------------

@st.composite
def tcn_models(draw):
    """A small TCN whose window covers its receptive field."""
    dilations = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)))
    kernel = draw(st.integers(1, 3))
    field = 1 + (kernel - 1) * sum(dilations)
    cfg = TcnConfig(dilations=dilations, kernel=kernel,
                    hidden=draw(st.integers(1, 6)),
                    window=draw(st.integers(max(2, field), field + 8)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.Generator(np.random.Philox(key=seed))
    norm = Normalizer(rng.normal(size=len(FEATURES)), rng.uniform(0.1, 2.0, size=len(FEATURES)))
    return TcnModel(cfg, rng, norm), rng


@st.composite
def policies(draw):
    cfg = PpoConfig(hidden=(draw(st.integers(1, 8)), draw(st.integers(1, 8))),
                    log_std_init=draw(st.floats(-3, 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    nets = ActorCritic(cfg, rng=np.random.Generator(np.random.Philox(key=seed)))
    return nets


def assert_same_arrays(a, b):
    assert list(a) == list(b)
    for name in a:
        assert a[name].shape == b[name].shape, name
        assert np.array_equal(a[name], b[name]), name


@SETTINGS
@given(tcn_models())
def test_tcn_checkpoint_round_trip(model_rng):
    model, rng = model_rng
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tcn.ckpt")
        save_tcn(path, model)
        loaded = load_tcn(path)
    assert_same_arrays(model.state_arrays(), loaded.state_arrays())
    window = rng.uniform(0.0, 1.0, size=(model.cfg.window, len(FEATURES)))
    a = tcn_forward(model.normalizer.normalize(window), model)
    b = tcn_forward(loaded.normalizer.normalize(window), loaded)
    assert np.array_equal(a, b)
    assert np.array_equal(model.normalizer.denormalize(a), loaded.normalizer.denormalize(b))


@SETTINGS
@given(tcn_models())
@example((TcnModel(TcnConfig(), np.random.default_rng(0)), np.random.default_rng(1)))
def test_streaming_forecast_matches_window_forward(model_rng):
    model, rng = model_rng
    w = model.cfg.window
    fc = Forecaster(model)
    rows = []
    for row in rng.uniform(0.0, 1.0, size=(200, len(FEATURES))):
        rows.append(fc.push(row))
        if len(rows) < w:
            assert fc.forecast() is rows[-1]  # persistence until the window fills
        else:
            np.testing.assert_allclose(fc.forecast(), tcn_forward(np.array(rows[-w:]), model),
                                       rtol=1e-12, atol=1e-12)
    assert fc.calls == 200 - w + 1


@SETTINGS
@given(policies())
def test_policy_checkpoint_round_trip(nets):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "policy.ckpt")
        save_policy(path, nets)
        loaded = load_policy(path)
    assert_same_arrays(nets.state_arrays(), loaded.state_arrays())
    obs = nn.Var(np.linspace(-1.0, 1.0, 3 * nets.obs_dim).reshape(3, nets.obs_dim))
    assert np.array_equal(forward_actor(nets, obs).data, forward_actor(loaded, obs).data)
    assert np.array_equal(forward_critic(nets, obs).data, forward_critic(loaded, obs).data)


def break_checkpoint(path, pick, mode):
    """Rewrite one array of a checkpoint file; returns the name to expect."""
    with open(path) as fh:
        doc = json.load(fh)
    entry = doc["arrays"][pick % len(doc["arrays"])]
    if mode == "missing":
        doc["arrays"].remove(entry)
    elif mode == "longer":
        entry["data"].append(0.0)
        entry["shape"] = [len(entry["data"])]
    elif mode == "length-1":
        assume(entry["shape"] != [1])
        entry["data"], entry["shape"] = entry["data"][:1], [1]
    else:
        entry = {"name": "extra.w", "shape": [1], "data": [0.0]}
        doc["arrays"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return entry["name"]


MODES = st.sampled_from(["missing", "longer", "length-1", "unexpected"])


@SETTINGS
@given(st.one_of(tcn_models().map(lambda model_rng: model_rng[0]), policies()),
       st.integers(0, 10**6), MODES)
def test_broken_checkpoint_names_the_array(model, pick, mode):
    save, load = ((save_tcn, load_tcn) if isinstance(model, TcnModel)
                  else (save_policy, load_policy))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save(path, model)
        name = break_checkpoint(path, pick, mode)
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            load(path)


def test_short_conv_kernel_rejected(tmp_path):
    # a kernel with fewer taps would otherwise run as a different model
    model = TcnModel(TcnConfig(dilations=(1,), kernel=3, hidden=4),
                     np.random.default_rng(0))
    arrays = model.state_arrays()
    arrays["conv0.kernel"] = arrays["conv0.kernel"][:, :, :2]
    path = tmp_path / "tcn.ckpt"
    nn.save_checkpoint(str(path), arrays, {
        "kind": "tcn", "layers": 1, "dilations": [1], "kernel": 3, "hidden": 4,
        "window": 32, "features": list(FEATURES)})
    with pytest.raises(ValueError, match=rf"'conv0\.kernel' has shape \(4, {len(FEATURES)}, 2\)"):
        load_tcn(str(path))


@pytest.mark.parametrize("which", ["tcn", "policy"])
def test_eval_rejects_broken_checkpoint(tmp_path, capsys, which):
    tcn_path, policy_path = tmp_path / "tcn.ckpt", tmp_path / "policy.ckpt"
    save_tcn(str(tcn_path), TcnModel(TcnConfig(), np.random.default_rng(1)))
    save_policy(str(policy_path), ActorCritic(PpoConfig(), rng=np.random.default_rng(2)))
    broken = tcn_path if which == "tcn" else policy_path
    name = break_checkpoint(str(broken), 1, "missing")
    code = main(["eval", "--controllers", "ml,static", "--seeds", "1", "--blocks", "20",
                 "--tcn", str(tcn_path), "--policy", str(policy_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"missing array {name!r}" in capsys.readouterr().err


# -- rate engine ----------------------------------------------------------

@SETTINGS
@given(st.sampled_from(sorted(PROTOCOLS)), st.floats(0.0, 0.5), st.floats(0.01, 1.0),
       st.floats(-8.0, -3.0), st.floats(0.0, 0.1), st.floats(0.05, 1.0), st.floats(0.01, 0.99),
       st.floats(0.5, 1.0), st.floats(0.0, 200.0), st.floats(0.0, 100.0))
def test_key_rate_never_rises_with_distance(kind, alpha, eta_det, log_y0, e_d, mu_s, weak,
                                            v_source, d_near, d_extra):
    proto = ProtocolConfig(kind=kind, bb84=Bb84Config(mu_s=mu_s, mu_w=weak * mu_s),
                           e91=E91Config(v_source=v_source), cow=CowConfig(alpha_sq=mu_s))
    rates = [operating_point(LinkParams(alpha_db_per_km=alpha, distance_km=d, eta_det=eta_det,
                                        y0=10.0**log_y0, e_d=e_d), proto)[2].r_per_pulse
             for d in (d_near, d_near + d_extra)]
    assert rates[1] <= rates[0]


@SETTINGS
@given(st.floats(0.05, 1.0), st.floats(0.01, 0.99), st.floats(-6.0, 0.0),
       st.floats(-8.0, -3.0), st.floats(0.0, 0.5))
def test_decoy_bounds_bracket_single_photon_terms(mu_s, weak, log_eta, log_y0, e_d):
    # noise-free gains; the true single-photon yield is Y0 + eta and its
    # error (e0*Y0 + e_d*eta) / (Y0 + eta)
    eta, y0, e0 = 10.0**log_eta, 10.0**log_y0, 0.5
    mu_w = weak * mu_s
    gs, gw = bb84_gains(mu_s, eta, y0, e_d, e0), bb84_gains(mu_w, eta, y0, e_d, e0)
    try:
        bounds = decoy_bounds((gs.q_mu, gs.e_mu), (gw.q_mu, gw.e_mu), mu_s, mu_w, y0, e0)
    except BoundInfeasibleError:
        return  # no bound is claimed
    assert bounds.y1_lower <= y0 + eta
    assert bounds.e1_upper >= (e0 * y0 + e_d * eta) / (y0 + eta)


@SETTINGS
@given(st.integers(0, 10**9), st.floats(0.0, 1.0), st.sampled_from(["any", "none", "all"]))
def test_wilson_intervals_nest(n, frac, where):
    n_err = {"any": round(frac * n), "none": 0, "all": n}[where]
    intervals = [wilson_interval(n_err, n, conf) for conf in (0.90, 0.95, 0.99)]
    for lo, hi in intervals:
        assert 0.0 <= lo <= hi <= 1.0
    for (lo_in, hi_in), (lo_out, hi_out) in zip(intervals, intervals[1:]):
        assert lo_out <= lo_in and hi_in <= hi_out
