import math

import numpy as np
import pytest

from optiqkd import nn
from optiqkd.nn import (Conv1dCausalLayer, DenseLayer, DivergenceError,
                        GraphStateError, Var, adam_step, backward,
                        conv1d_causal, dense, init_adam_state, load_checkpoint,
                        relu, save_checkpoint)

from optiqkd.controller import ActorCritic, PpoConfig
from optiqkd.tcn import TcnConfig, TcnModel

from oracles import (adam_step_oracle, conv1d_causal_oracle, fd_gradient, index_oracle,
                     max_rel_err, relu_oracle, tanh, tcn_forward_oracle)


class TestConvCausal:
    def test_hand_example(self):
        x = Var(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        k = Var(np.array([[[1.0, 1.0]]]))
        y = conv1d_causal(x, k, Var(np.zeros(1)), dilation=2)
        assert np.allclose(y.data.ravel(), [1.0, 2.0, 4.0, 6.0])

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 7))
        for d in (1, 3, 5):
            y = conv1d_causal(Var(x), Var(np.ones((1, 1, 1))), Var(np.array([0.25])), d)
            assert np.allclose(y.data, x + 0.25)

    @pytest.mark.parametrize("dilation", [1, 2, 4, 8])
    def test_causality_exact(self, dilation):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3, 24))
        k = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=4)
        base = conv1d_causal(Var(x), Var(k), Var(b), dilation).data
        for t0 in (5, 12, 23):
            xp = x.copy()
            xp[:, :, t0] += 1.7
            out = conv1d_causal(Var(xp), Var(k), Var(b), dilation).data
            assert np.array_equal(out[:, :, :t0], base[:, :, :t0])
            assert not np.allclose(out[:, :, t0], base[:, :, t0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            conv1d_causal(Var(np.zeros((1, 2, 5))), Var(np.zeros((3, 4, 3))),
                          Var(np.zeros(3)))

    @pytest.mark.parametrize("batch,c_in,k,dilation,t_len", [
        *[(b, c, k, d, 32) for b in (1, 64) for c in (5, 16) for k in (1, 3)
          for d in (1, 2, 4, 8)],
        (2, 5, 3, 8, 5),  # every delayed tap starts beyond the series
    ])
    def test_matches_oracle(self, batch, c_in, k, dilation, t_len):
        rng = np.random.default_rng(batch * 1000 + c_in * 100 + k * 10 + dilation)
        x = rng.normal(size=(batch, c_in, t_len))
        kern = rng.normal(size=(16, c_in, k))
        bias = rng.normal(size=16)
        g = rng.normal(size=(batch, 16, t_len))
        ref_out, ref_gx, ref_gk = conv1d_causal_oracle(x, kern, bias, dilation, g)
        xv, kv, bv = Var(x), Var(kern), Var(bias)
        out = conv1d_causal(xv, kv, bv, dilation)
        backward(nn.vsum(nn.mul(out, Var(g))))
        assert max_rel_err(out.data, ref_out, floor=1.0) < 1e-12
        assert max_rel_err(xv.grad, ref_gx, floor=1.0) < 1e-12
        assert max_rel_err(kv.grad, ref_gk, floor=1.0) < 1e-12
        assert np.allclose(bv.grad, g.sum(axis=(0, 2)), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("t_len", [32, 5])
    def test_unwritten_buffer_never_reaches_the_output(self, monkeypatch, t_len):
        # the im2col buffer is not zeroed as a whole: each tap zeroes the
        # steps before its shift, so a buffer holding NaN gives the same bits
        rng = np.random.default_rng(t_len)
        x, kern, bias = (rng.normal(size=(3, 4, t_len)), rng.normal(size=(5, 4, 3)),
                         rng.normal(size=5))
        want = conv1d_causal(Var(x), Var(kern), Var(bias), 4).data
        monkeypatch.setattr(np, "empty", lambda shape, *a, **kw: np.full(shape, np.nan))
        got = conv1d_causal(Var(x), Var(kern), Var(bias), 4).data
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c_in,k,dilation", [(5, 3, 1), (16, 3, 8), (4, 1, 1), (3, 2, 5)])
    def test_step_is_the_last_column(self, c_in, k, dilation):
        rng = np.random.default_rng(c_in * 100 + k * 10 + dilation)
        layer = Conv1dCausalLayer.create(c_in, 6, k, dilation, rng)
        layer.bias.data = rng.normal(size=6)
        x = rng.normal(size=(1, c_in, 40))
        full = layer(Var(x)).data[0]
        assert layer.span == (k - 1) * dilation + 1
        step_fn = layer.frozen_step()
        for t in range(layer.span - 1, 40):
            hist = x[0, :, t + 1 - layer.span:t + 1].T  # one row per step, oldest first
            step = step_fn(hist)
            assert isinstance(step, np.ndarray)
            np.testing.assert_allclose(step, full[:, t], rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="last"):
            step_fn(hist[1:])


class TestElementwise:
    def test_relu(self):
        assert np.allclose(relu(Var(np.array([-1.0, 0.0, 2.0]))).data, [0.0, 0.0, 2.0])

    def test_relu_matches_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 5, 7))
        x[0, 0, :3] = 0.0  # the kink: no gradient, as the mask has it
        g = rng.normal(size=x.shape)
        ref_out, ref_grad = relu_oracle(x, g)
        xv = Var(x)
        out = relu(xv)
        backward(nn.vsum(nn.mul(out, Var(g))))
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(xv.grad, ref_grad)

    @pytest.mark.parametrize("idx", [(slice(None), slice(None), -1),
                                     (slice(None), 0), (slice(1, 3), 2, slice(None, None, 2))])
    def test_index_matches_oracle(self, idx):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 5, 6))
        g = rng.normal(size=x[idx].shape)
        ref_out, ref_grad = index_oracle(x, idx, g)
        xv = Var(x)
        out = nn.index(xv, idx)
        backward(nn.vsum(nn.mul(out, Var(g))))
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(xv.grad, ref_grad)

    def test_dense_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        y = dense(Var(x), Var(np.eye(3)), Var(np.zeros(3)))
        assert np.allclose(y.data, x)


class TestBackward:
    def test_linear_case(self):
        x = Var(np.array([2.0]))
        loss = nn.vsum(x * Var(np.array([1.0])))
        backward(loss)
        assert np.allclose(x.grad, 1.0)

    def test_gradient_checks_all_layer_types(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for trial in range(10):
            k = rng.normal(size=(4, 3, 3))
            b = rng.normal(size=4)
            w = rng.normal(size=(2, 4))
            b2 = rng.normal(size=2)
            x = rng.normal(size=(2, 3, 16)) + 0.05  # keep relu away from kink

            def run(kv, bv, wv, b2v, xv):
                h = relu(conv1d_causal(Var(xv), Var(kv), Var(bv), dilation=2))
                h = nn.add(h, h)
                last = nn.index(h, (slice(None), slice(None), -1))
                y = tanh(dense(last, Var(wv), Var(b2v)))
                return nn.vmean(nn.square(y))

            loss = None
            vars_ = [Var(a.copy()) for a in (k, b, w, b2, x)]
            h = relu(conv1d_causal(vars_[4], vars_[0], vars_[1], dilation=2))
            h = nn.add(h, h)
            last = nn.index(h, (slice(None), slice(None), -1))
            y = tanh(dense(last, vars_[2], vars_[3]))
            loss = nn.vmean(nn.square(y))
            backward(loss)
            arrays = (k, b, w, b2, x)
            for i in range(5):
                def f(a, i=i):
                    parts = [q.copy() for q in arrays]
                    parts[i] = a
                    return float(run(*parts).data)
                num = fd_gradient(f, arrays[i])
                worst = max(worst, max_rel_err(num, vars_[i].grad, floor=1e-4))
        assert worst < 1e-4

    def test_double_backward_rejected(self):
        x = Var(np.array([1.0, 2.0]))
        loss = nn.vsum(nn.square(x))
        backward(loss)
        with pytest.raises(GraphStateError):
            backward(loss)

    def test_backward_needs_forward(self):
        with pytest.raises(GraphStateError):
            backward(Var(np.array([1.0])))
        with pytest.raises(GraphStateError):
            backward(nn.vsum(Var(np.zeros(3))) + Var(np.zeros(2)))  # non-scalar


class TestNoGrad:
    def test_const_leaf_closure_never_runs(self):
        x, c = Var(np.array([1.0, 2.0])), nn.const(np.array([3.0, -1.0]))
        calls = []

        def spy(g):
            calls.append(g)
            return g

        node = Var(x.data * c.data, [(x, lambda g: g * c.data), (c, spy)])
        backward(nn.vsum(node))
        assert calls == []
        assert c.grad is None and not c.needs_grad
        assert np.array_equal(x.grad, c.data)

    def test_op_on_consts_needs_no_gradient(self):
        y = nn.mul(nn.const(np.ones(3)), nn.const(np.full(3, 2.0)))
        assert not y.needs_grad
        z = nn.square(nn.Var(np.ones(3)) - np.ones(3))  # sugar promotes to a const
        assert z.needs_grad and len(z._parents) == 1

    def test_plain_var_input_keeps_its_gradient(self):
        # a const input drops only its own branch: the kernel and bias
        # gradients are bitwise those of a plain Var input, whose gradient
        # still matches the einsum oracle
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 5, 16))
        kern, bias = rng.normal(size=(6, 5, 3)), rng.normal(size=6)
        g = rng.normal(size=(4, 6, 16))
        grads = {}
        for leaf in (Var, nn.const):
            xv, kv, bv = leaf(x), Var(kern), Var(bias)
            backward(nn.vsum(nn.mul(conv1d_causal(xv, kv, bv, dilation=2), nn.const(g))))
            grads[leaf] = (xv.grad, kv.grad, bv.grad)
        assert grads[nn.const][0] is None
        assert all(np.array_equal(a, b) for a, b in zip(grads[Var][1:], grads[nn.const][1:]))
        _, ref_gx, _ = conv1d_causal_oracle(x, kern, bias, 2, g)
        assert max_rel_err(grads[Var][0], ref_gx, floor=1.0) < 1e-12

    def test_tcn_input_windows_get_no_gradient(self):
        model = TcnModel(TcnConfig(dilations=(1, 2), hidden=6, window=8),
                         np.random.default_rng(9))
        loss = nn.vmean(nn.square(tcn_forward_oracle(
            model, np.random.default_rng(10).normal(size=(3, 8, 4)))))
        nodes, stack = [], [loss]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(parent for parent, _ in node._parents)
        assert all(node.needs_grad for node in nodes)
        # conv0 and proj0 read the windows: their kernel and bias are their only parents
        for layer in (model.convs[0], model.projs[0]):
            outs = [n for n in nodes if any(p is layer.kernel for p, _ in n._parents)]
            assert outs and all([p for p, _ in n._parents] == [layer.kernel, layer.bias]
                                for n in outs)
        backward(loss)
        assert all(p.grad is not None for p in model.params())


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = Var(np.array([1.0, -2.0]))
        state = init_adam_state([p])
        adam_step([p], [np.zeros(2)], state, lr=0.1)
        assert np.allclose(p.data, [1.0, -2.0])

    def test_descent_direction(self):
        p = Var(np.array([0.0]))
        state = init_adam_state([p])
        for _ in range(50):
            adam_step([p], [np.array([3.0])], state, lr=0.01)
        assert p.data[0] < 0.0

    def test_quadratic_single_step(self):
        w = Var(np.array([1.0]))
        loss = nn.vsum(nn.square(w))
        backward(loss)
        state = init_adam_state([w])
        adam_step([w], [w.grad], state, lr=0.1)
        assert w.data[0] < 1.0

    def test_nonfinite_rejected(self):
        p = Var(np.array([1.0]))
        state = init_adam_state([p])
        with pytest.raises(DivergenceError):
            adam_step([p], [np.array([np.nan])], state)
        assert p.data[0] == 1.0

    @staticmethod
    def _mixed_params():
        rng = np.random.default_rng(11)
        return (TcnModel(TcnConfig(), rng).params()
                + ActorCritic(PpoConfig(), rng=rng).actor_params())

    def test_flat_matches_per_array_oracle(self):
        params = self._mixed_params()
        ref = [p.data.copy() for p in params]
        ref_state = {"m": [np.zeros_like(a) for a in ref],
                     "v": [np.zeros_like(a) for a in ref], "t": 0}
        state = init_adam_state(params)
        rng = np.random.default_rng(12)
        for _ in range(5):
            grads = [rng.normal(size=p.data.shape) * 1e-2 for p in params]
            adam_step(params, grads, state, lr=3e-3)
            adam_step_oracle(ref, grads, ref_state, lr=3e-3)
            assert all(np.array_equal(p.data, a) for p, a in zip(params, ref))
        assert state["t"] == ref_state["t"] == 5
        assert np.array_equal(state["m"], np.concatenate([m.ravel() for m in ref_state["m"]]))
        assert np.array_equal(state["v"], np.concatenate([v.ravel() for v in ref_state["v"]]))

    def test_nonfinite_leaves_params_and_state_untouched(self):
        params = self._mixed_params()
        state = init_adam_state(params)
        rng = np.random.default_rng(13)
        for _ in range(2):
            adam_step(params, [rng.normal(size=p.data.shape) for p in params], state)
        before = ([p.data.copy() for p in params], state["m"].copy(), state["v"].copy())
        for bad in (np.nan, np.inf):
            grads = [rng.normal(size=p.data.shape) for p in params]
            grads[-3].flat[1] = bad
            with pytest.raises(DivergenceError):
                adam_step(params, grads, state)
            assert all(np.array_equal(p.data, a) for p, a in zip(params, before[0]))
            assert np.array_equal(state["m"], before[1])
            assert np.array_equal(state["v"], before[2])
            assert state["t"] == 2


class TestNumericalHygiene:
    def test_layers_finite_on_large_inputs(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1e6, 1e6, size=(2, 3, 8))
        k = rng.uniform(-1e6, 1e6, size=(2, 3, 3))
        y = conv1d_causal(Var(x), Var(k), Var(np.ones(2) * 1e6), dilation=4)
        assert np.all(np.isfinite(y.data))
        z = relu(y)
        assert np.all(np.isfinite(z.data))
        w = dense(nn.index(z, (slice(None), slice(None), -1)),
                  Var(rng.uniform(-1e6, 1e6, size=(2, 2))), Var(np.zeros(2)))
        assert np.all(np.isfinite(w.data))
        assert np.all(np.isfinite(nn.add(y, y).data))


class TestCheckpoint:
    def test_value_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        arrays = {
            "a": rng.standard_normal((3, 4)),
            "b": np.array([1e-300, 1e300, math.pi, -0.0, 1.0 / 3.0]),
            "c.w": rng.standard_normal((2, 2, 3)),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), arrays, meta={"kind": "test"})
        loaded, meta = load_checkpoint(str(path))
        assert meta["kind"] == "test"
        for name, arr in arrays.items():
            assert loaded[name].shape == arr.shape
            assert np.array_equal(loaded[name], arr)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_checkpoint(str(path))


def test_layer_containers():
    rng = np.random.default_rng(5)
    layer = DenseLayer.create(4, 3, rng)
    assert layer(Var(np.zeros((2, 4)))).data.shape == (2, 3)
    conv = Conv1dCausalLayer.create(3, 5, 3, 2, rng)
    assert conv(Var(np.zeros((1, 3, 9)))).data.shape == (1, 5, 9)
