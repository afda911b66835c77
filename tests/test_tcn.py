import numpy as np
import pytest

from optiqkd import nn
from optiqkd.channel import ControlState, Simulator, make_scenario
from optiqkd.rates import LinkParams, ProtocolConfig
from optiqkd.tcn import (FEATURES, Forecaster, Normalizer, TcnConfig,
                         TcnModel, _gradients, dataset_mse, load_tcn,
                         make_dataset, persistence_mse, save_tcn, tcn_forward,
                         tcn_train, telemetry_features, train_forecaster)

from oracles import tcn_forward_oracle, tcn_train_oracle

LINK = LinkParams()
PROTO = ProtocolConfig()
F = len(FEATURES)
RTOL = 1e-12  # the cone's smaller GEMMs round apart from the full-window graph


def collect_features(scenario, blocks, seed):
    sim = Simulator(LINK, PROTO, make_scenario(scenario, blocks), seed=seed)
    ctrl = ControlState()
    return np.array([telemetry_features(sim.step(ctrl)) for _ in range(blocks)])


def streamed(model, rows):
    """Forecast after pushing ``rows`` one block at a time."""
    fc = Forecaster(model)
    for row in rows:
        fc.push(row)
    return fc.forecast()


def small_cfg(**kw):
    base = dict(dilations=(1, 2), kernel=3, hidden=8, window=8,
                epochs=10, batch_size=32)
    base.update(kw)
    return TcnConfig(**base)


def input_cone(cfg):
    """The input steps the head's prediction reads, by walking the taps
    down from the top layer's last step."""
    steps = {cfg.window - 1}
    for d in reversed(cfg.dilations):
        steps = {t - i * d for t in steps for i in range(cfg.kernel)}
    return steps


class TestForward:
    def test_identity_configuration_returns_last_row(self):
        # zero conv kernels + identity skip + identity head pass the last
        # input row through unchanged
        cfg = TcnConfig(dilations=(1,), kernel=3, hidden=F, window=4)
        model = TcnModel(cfg, np.random.default_rng(0), Normalizer.identity(F))
        model.convs[0].kernel.data[:] = 0.0
        model.convs[0].bias.data[:] = 0.0
        assert model.projs[0] is None  # matching widths use an identity skip
        model.head.w.data[:] = np.eye(F)
        model.head.b.data[:] = 0.0
        window = np.random.default_rng(1).uniform(0.0, 1.0, size=(4, F))
        fc = tcn_forward(window, model)
        assert np.allclose(fc, window[-1], atol=1e-12)

    def test_window_too_short(self):
        cfg = small_cfg()
        model = TcnModel(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            tcn_forward(np.zeros((cfg.window - 1, F)), model)

    def test_causal_invariance(self):
        # the forecast at block t is identical whether or not later blocks
        # exist in the stream
        feats = collect_features("sine-drift", 60, seed=2)
        cfg = small_cfg()
        model = TcnModel(cfg, np.random.default_rng(1),
                         Normalizer.calibrate(feats))
        z = model.normalizer.normalize(feats)
        a = tcn_forward(z[:40], model)
        b = tcn_forward(z[:40], model)  # same history, stream continued
        assert np.array_equal(a, b)
        assert np.array_equal(streamed(model, feats[:40]),
                              streamed(model, feats[:40].copy()))

    def test_window_shorter_than_receptive_field_rejected(self):
        # taps past the window would only ever read zero padding
        with pytest.raises(ValueError, match=r"window \(16\).*receptive field \(31\)"):
            TcnConfig(dilations=(1, 2, 4, 8), kernel=3, hidden=8, window=16)

    def test_receptive_field_covers_window(self):
        cfg = TcnConfig(dilations=(1, 2, 4, 8), kernel=3, hidden=8, window=31)
        assert cfg.receptive_field == cfg.window
        model = TcnModel(cfg, np.random.default_rng(3), Normalizer.identity(F))
        rng = np.random.default_rng(4)
        window = rng.uniform(0.2, 0.8, size=(31, F))
        base = streamed(model, window)
        assert np.allclose(base, tcn_forward(window, model), rtol=1e-12, atol=1e-12)
        perturbed = window.copy()
        perturbed[0] += 0.3
        assert not np.allclose(streamed(model, perturbed), base)


class TestTraining:
    def test_zero_epochs_leaves_params(self):
        feats = collect_features("nominal", 40, seed=3)
        ds = make_dataset(feats, 8)
        cfg = small_cfg()
        model = TcnModel(cfg, np.random.default_rng(0), Normalizer.calibrate(feats))
        before = [p.data.copy() for p in model.params()]
        model2, curve = tcn_train(ds, cfg, np.random.default_rng(1), epochs=0,
                                  model=model)
        assert curve == []
        for b, p in zip(before, model2.params()):
            assert np.array_equal(b, p.data)

    def test_nominal_beats_or_matches_persistence(self):
        feats = collect_features("nominal", 200, seed=4)
        cfg = small_cfg(epochs=30)
        ds = make_dataset(feats, cfg.window)
        model, _ = tcn_train(ds, cfg, np.random.default_rng(2))
        assert dataset_mse(ds, model) <= persistence_mse(ds, model.normalizer)

    def test_sine_drift_beats_persistence_by_half(self):
        feats = collect_features("sine-drift", 400, seed=5)
        cfg = TcnConfig()
        ds = make_dataset(feats, cfg.window)
        model, _ = train_forecaster(ds, cfg, np.random.default_rng(3))
        assert dataset_mse(ds, model) <= 0.5 * persistence_mse(ds, model.normalizer)

    def test_constant_data_learned_to_high_precision(self):
        const = np.tile(np.array([0.3, 0.1, 0.8, 0.02]), (60, 1))
        cfg = small_cfg(epochs=60, lr=3e-3)
        ds = make_dataset(const, cfg.window)
        model, curve = tcn_train(ds, cfg, np.random.default_rng(4))
        assert dataset_mse(ds, model) < 1e-6

    def test_divergence_guard(self):
        feats = collect_features("nominal", 60, seed=6)
        cfg = small_cfg(epochs=5, lr=1e200)
        with pytest.raises(nn.DivergenceError):
            tcn_train(make_dataset(feats, cfg.window), cfg, np.random.default_rng(5))

    def test_nonfinite_input_outside_the_cone_raises_before_any_step(self):
        # the default cone reads input steps 1..31, never step 0; an inf
        # there fails like one inside the cone, before the first update
        feats = collect_features("nominal", 80, seed=8)
        cfg = TcnConfig(epochs=1)
        assert 0 not in input_cone(cfg)
        ds = make_dataset(feats, cfg.window)
        ds[0][5, 0, 1] = np.inf
        model = TcnModel(cfg, np.random.default_rng(9), Normalizer.calibrate(feats))
        assert np.isfinite(model.forward(model.normalizer.normalize(ds[0][5:6]))).all()
        before = {name: p.data.copy() for name, p in model.named.items()}
        with pytest.raises(nn.DivergenceError, match="not finite"):
            tcn_train(ds, cfg, np.random.default_rng(10), model=model)
        for name, p in model.named.items():
            assert np.array_equal(p.data, before[name]), name

    def test_loss_curve_shape(self):
        feats = collect_features("nominal", 60, seed=7)
        cfg = small_cfg(epochs=7)
        _, curve = tcn_train(make_dataset(feats, cfg.window), cfg,
                             np.random.default_rng(6))
        assert len(curve) == 7
        assert all(np.isfinite(c) for c in curve)


class TestNormalizer:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        norm = Normalizer.calibrate(rng.uniform(0, 1, size=(100, F)))
        x = rng.uniform(0, 1, size=F)
        assert np.allclose(norm.denormalize(norm.normalize(x)), x, atol=1e-12)

    def test_constant_feature_guard(self):
        data = np.zeros((50, 3))
        data[:, 0] = 0.7
        norm = Normalizer.calibrate(data)
        z = norm.normalize(data[0])
        assert np.all(np.isfinite(z))


class TestCheckpoint:
    def test_round_trip_forecast_identical(self, tmp_path):
        feats = collect_features("sine-drift", 80, seed=9)
        cfg = small_cfg(epochs=5)
        model, _ = tcn_train(make_dataset(feats, cfg.window), cfg,
                             np.random.default_rng(7))
        path = tmp_path / "tcn.ckpt"
        save_tcn(str(path), model)
        loaded = load_tcn(str(path))
        a = tcn_forward(model.normalizer.normalize(feats[-8:]), model)
        b = tcn_forward(loaded.normalizer.normalize(feats[-8:]), loaded)
        assert np.array_equal(model.normalizer.denormalize(a),
                              loaded.normalizer.denormalize(b))
        assert np.array_equal(a, b)

    def test_older_checkpoint_with_layer_count_loads(self, tmp_path):
        # checkpoints used to repeat len(dilations) as a "layers" entry
        model = TcnModel(small_cfg(), np.random.default_rng(5))
        path = tmp_path / "tcn.ckpt"
        save_tcn(str(path), model)
        arrays, meta = nn.load_checkpoint(str(path))
        assert "layers" not in meta
        nn.save_checkpoint(str(path), arrays, {**meta, "layers": 2})
        loaded = load_tcn(str(path))
        assert loaded.cfg.dilations == model.cfg.dilations
        assert all(np.array_equal(loaded.named[k].data, v.data) for k, v in model.named.items())

    @pytest.mark.parametrize("features", [
        ["q", "e", "v", "eta"],                    # renamed, still four
        ["e_mu", "q_mu", "v", "eta"],              # reordered
        ["q_mu", "e_mu", "v", "eta", "y0"],        # an older checkpoint's five
        ["q_mu", "e_mu", "v"],                     # one short
    ])
    def test_other_feature_list_refused(self, tmp_path, features):
        path = tmp_path / "tcn.ckpt"
        save_tcn(str(path), TcnModel(small_cfg(), np.random.default_rng(6)))
        arrays, meta = nn.load_checkpoint(str(path))
        assert meta["features"] == list(FEATURES)
        nn.save_checkpoint(str(path), arrays, {**meta, "features": features})
        with pytest.raises(ValueError, match="features"):
            load_tcn(str(path))

    @pytest.mark.parametrize("key,value,message", [
        ("window", None, "metadata 'window' is missing"),
        ("dilations", None, "metadata 'dilations' is missing"),
        ("kernel", 2.7, "metadata 'kernel' needs an integer, got 2.7"),
        ("dilations", [1, 2.5], "metadata 'dilations' needs an integer, got 2.5"),
        ("dilations", 2, "metadata 'dilations' needs a list of integers, got 2"),
        ("hidden", True, "metadata 'hidden' needs an integer, got True"),
    ])
    def test_missing_or_fractional_size_refused(self, tmp_path, key, value, message):
        path = str(tmp_path / "tcn.ckpt")
        save_tcn(path, TcnModel(small_cfg(), np.random.default_rng(6)))
        arrays, meta = nn.load_checkpoint(path)
        meta = {k: v for k, v in meta.items() if k != key}
        nn.save_checkpoint(path, arrays, meta if value is None else {**meta, key: value})
        with pytest.raises(ValueError) as err:
            load_tcn(path)
        assert str(err.value) == f"checkpoint {path} {message}"


class TestForecaster:
    def test_persistence_fallback_warmup(self):
        cfg = small_cfg()
        model = TcnModel(cfg, np.random.default_rng(10), Normalizer.identity(F))
        fc = Forecaster(model)
        hist = np.random.default_rng(11).uniform(0, 1, size=(3, F))
        for row in hist:
            fc.push(row)
        out = fc.forecast()
        assert np.allclose(out, hist[-1])
        assert fc.calls == 0  # fallback does not touch the model

    def test_counts_model_calls(self):
        cfg = small_cfg()
        model = TcnModel(cfg, np.random.default_rng(12), Normalizer.identity(F))
        fc = Forecaster(model)
        hist = np.random.default_rng(13).uniform(0, 1, size=(20, F))
        for row in hist:
            fc.push(row)
        fc.forecast()
        fc.forecast()
        assert fc.calls == 2


class TestTcnAgainstOracle:
    """``tcn_train``'s hand-derived step over the head's dependency cone
    against the full-window ``nn`` graph (``tests/oracles.py``): gradients,
    parameters, Adam moments and the loss curve must agree to ``RTOL``, and
    the Adam step count exactly. The cone's GEMMs are smaller than the
    graph's and sum in another order, so they are not bitwise equal."""

    CONFIGS = [
        # (dilations, kernel, hidden): hidden 4 = len(FEATURES) gives an
        # identity skip at layer 0, any other width a projection
        ((1, 2, 4, 8), 3, 16),
        ((1, 2, 4, 8), 3, F),
        ((1,), 1, 8),
        ((2, 8), 2, 6),
        ((8,), 2, F),
        ((1, 2), 3, 5),
    ]

    @staticmethod
    def dataset(cfg, blocks, seed):
        return make_dataset(collect_features("sine-drift", blocks, seed=seed), cfg.window)

    @staticmethod
    def train_recording_adam(monkeypatch, *args, **kw):
        """``tcn_train``, and the ``nn.Adam`` it made."""
        made = []

        class Recording(nn.Adam):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                made.append(self)

        monkeypatch.setattr(nn, "Adam", Recording)
        model, curve = tcn_train(*args, **kw)
        monkeypatch.undo()
        assert len(made) == 1
        return model, made[0], curve

    @staticmethod
    def config(dilations, kernel, hidden, window=None, **kw):
        """The config of a CONFIGS entry; the window defaults to the
        receptive field, or 8 if that is shorter."""
        window = window or max(8, 1 + (kernel - 1) * sum(dilations))
        return TcnConfig(dilations=dilations, kernel=kernel, hidden=hidden, window=window, **kw)

    @staticmethod
    def assert_same(model, opt, curve, ref_model, ref_opt, ref_curve):
        assert list(model.named) == list(ref_model.named)
        for name, p in model.named.items():
            np.testing.assert_allclose(p.data, ref_model.named[name].data, rtol=RTOL,
                                       err_msg=name)
        assert opt.state["t"] == ref_opt.state["t"]
        # an entry of m where gradients of both signs cancel rounds at the
        # scale of the largest entries, not at its own
        m = ref_opt.state["m"]
        np.testing.assert_allclose(opt.state["m"], m, rtol=RTOL, atol=RTOL * np.abs(m).max())
        np.testing.assert_allclose(opt.state["v"], ref_opt.state["v"], rtol=RTOL)
        np.testing.assert_allclose(curve, ref_curve, rtol=RTOL)

    @pytest.mark.parametrize("dilations,kernel,hidden", CONFIGS)
    def test_one_step_gradients_match_graph(self, dilations, kernel, hidden):
        cfg = self.config(dilations, kernel, hidden)
        model = TcnModel(cfg, np.random.default_rng(30), Normalizer.identity(F))
        rng = np.random.default_rng(31)
        windows, targets = rng.normal(size=(24, cfg.window, F)), rng.normal(size=(24, F))
        tape = []
        pred = model.forward(windows, tape)
        diff = pred - targets
        grads = _gradients(model, tape, (1.0 / diff.size) * 2.0 * diff)
        ref = tcn_forward_oracle(model, windows)
        nn.backward(nn.vmean(nn.square(ref - nn.const(targets))))
        np.testing.assert_allclose(pred, ref.data, rtol=RTOL)
        for (name, p), grad in zip(model.named.items(), grads):
            np.testing.assert_allclose(grad, p.grad, rtol=RTOL, err_msg=name)

    @pytest.mark.parametrize("dilations,kernel,hidden,window", [
        *[(*c, None) for c in CONFIGS], ((1, 2), 3, 5, 13)])
    def test_prediction_reads_exactly_the_cone(self, dilations, kernel, hidden, window):
        # the last entry's window, 13, is longer than its receptive field, 7
        cfg = self.config(dilations, kernel, hidden, window)
        model = TcnModel(cfg, np.random.default_rng(32), Normalizer.identity(F))
        # non-negative conv weights, positive biases and inputs keep every
        # relu on, so each input step the head reads moves the prediction
        for conv in model.convs + [p for p in model.projs if p is not None]:
            conv.kernel.data = np.abs(conv.kernel.data)
            conv.bias.data[:] = 1.0
        rng = np.random.default_rng(33)
        base = rng.uniform(0.0, 1.0, size=(1, cfg.window, F))
        want = model.forward(base)
        cone = input_cone(cfg)
        assert min(cone) >= 0
        for step in range(cfg.window):
            moved = base.copy()
            moved[0, step] += rng.uniform(0.5, 1.5, size=F)
            same = np.array_equal(model.forward(moved), want)
            assert same == (step not in cone), step

    @pytest.mark.parametrize("dilations,kernel,hidden", CONFIGS)
    def test_training_matches_graph(self, monkeypatch, dilations, kernel, hidden):
        cfg = self.config(dilations, kernel, hidden, epochs=3, batch_size=24)
        ds = self.dataset(cfg, cfg.window + 83, seed=len(dilations) + kernel)
        assert len(ds[0]) % cfg.batch_size != 0  # a ragged last batch
        got = self.train_recording_adam(monkeypatch, ds, cfg, np.random.default_rng(11))
        want = tcn_train_oracle(ds, cfg, np.random.default_rng(11))
        assert (got[0].projs[0] is None) == (hidden == F)
        self.assert_same(*got, *want)

    def test_two_stage_fit_matches_graph(self, monkeypatch):
        # train_forecaster's second stage runs at lr/6 on the first's model
        cfg = small_cfg(epochs=2)
        ds = self.dataset(cfg, 70, seed=12)
        model, curve = train_forecaster(ds, cfg, np.random.default_rng(13))
        rng = np.random.default_rng(13)
        ref, _, head = tcn_train_oracle(ds, cfg, rng)
        ref, ref_opt, tail = tcn_train_oracle(ds, cfg, rng, lr=cfg.lr / 6.0, model=ref)
        np.testing.assert_allclose(curve, head + tail, rtol=RTOL)
        for name, p in model.named.items():
            np.testing.assert_allclose(p.data, ref.named[name].data, rtol=RTOL, err_msg=name)
        # the second stage alone, from equal models, also keeps equal Adam state
        start = TcnModel(cfg, np.random.default_rng(14), Normalizer.identity(F))
        twin = TcnModel(cfg, np.random.default_rng(14), Normalizer.identity(F))
        got = self.train_recording_adam(monkeypatch, ds, cfg, np.random.default_rng(15),
                                        lr=cfg.lr / 6.0, model=start)
        want = tcn_train_oracle(ds, cfg, np.random.default_rng(15), lr=cfg.lr / 6.0,
                                model=twin)
        self.assert_same(*got, *want)

    def test_nonfinite_loss_raises_where_the_graph_does(self):
        cfg = small_cfg(epochs=5, lr=1e200)
        ds = self.dataset(cfg, 60, seed=16)
        models = []
        for train in (tcn_train, tcn_train_oracle):
            model = TcnModel(cfg, np.random.default_rng(17), Normalizer.identity(F))
            with pytest.raises(nn.DivergenceError, match="training diverged"):
                train(ds, cfg, np.random.default_rng(18), model=model)
            models.append(model)
        for name, p in models[0].named.items():
            np.testing.assert_allclose(p.data, models[1].named[name].data, rtol=RTOL,
                                       err_msg=name)

    @pytest.mark.parametrize("dilations,kernel,hidden", CONFIGS[:3])
    def test_forward_callers_match_graph(self, dilations, kernel, hidden):
        cfg = self.config(dilations, kernel, hidden, batch_size=16)
        feats = collect_features("sine-drift", cfg.window + 40, seed=20)
        ds = make_dataset(feats, cfg.window)
        model, _ = tcn_train(ds, cfg, np.random.default_rng(21), epochs=1)
        windows, targets = map(model.normalizer.normalize, ds)
        errs = [np.mean((targets[s:s + 16] - tcn_forward_oracle(model, windows[s:s + 16]).data)
                        ** 2, axis=1) for s in range(0, len(windows), 16)]
        assert dataset_mse(ds, model) == pytest.approx(float(np.mean(np.concatenate(errs))),
                                                       rel=RTOL)
        z = model.normalizer.normalize(feats)
        np.testing.assert_allclose(tcn_forward(z, model),
                                   tcn_forward_oracle(model, z[None, -cfg.window:]).data[0],
                                   rtol=RTOL)

    def test_training_builds_no_graph(self, monkeypatch):
        made = []
        init = nn.Var.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        cfg = small_cfg(epochs=2)
        ds = self.dataset(cfg, 50, seed=22)
        model = TcnModel(cfg, np.random.default_rng(23), Normalizer.identity(F))
        monkeypatch.setattr(nn.Var, "__init__", counting_init)
        tcn_train(ds, cfg, np.random.default_rng(24), model=model)
        dataset_mse(ds, model)
        assert not made


def test_training_improves_on_sine_benchmark_all_seeds():
    # final epoch loss below the first epoch loss, five fixed seeds
    for seed in range(1, 6):
        feats = collect_features("sine-drift", 500, seed=seed)
        cfg = TcnConfig(epochs=4)
        _, curve = tcn_train(make_dataset(feats, cfg.window), cfg,
                             np.random.default_rng(seed))
        assert curve[-1] < curve[0]
