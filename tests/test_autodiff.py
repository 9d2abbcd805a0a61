"""Numeric core: forward oracles, gradient checks, Adam, checkpoints.

Forward oracles are deliberately naive (triple loops, explicit sliding
windows) so they share nothing with the vectorized implementations.
"""

import math

import numpy as np
import pytest

from emodub.autodiff import (
    AdamState,
    Conv1dParams,
    CrossAttentionParams,
    Parameter,
    Tensor,
    add,
    concat_cols,
    concat_rows,
    conv1d,
    cross_attention,
    grad_check,
    leaky_relu,
    linear,
    load_checkpoint,
    masked_softmax_rows,
    matmul,
    mse,
    mul,
    restore_checkpoint,
    save_checkpoint,
    scale,
    shift_rows,
    slice_cols,
    slice_rows,
    softmax_rows,
    sub,
    sum_all,
    transpose,
)
from emodub.errors import ArgumentError, ConfigError, FormatError, NumericError, ShapeError
from emodub.rng import SplitMix64


# --- naive oracles -----------------------------------------------------------


def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_softmax_rows(x):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = x[i] - max(x[i])
        e = [math.exp(v) for v in row]
        s = sum(e)
        out[i] = [v / s for v in e]
    return out


def naive_attention(q, k, v, wq, wk, wv, wo):
    qp, kp, vp = naive_matmul(q, wq), naive_matmul(k, wk), naive_matmul(v, wv)
    d = qp.shape[1]
    scores = naive_matmul(qp, kp.T) / math.sqrt(d)
    attn = naive_softmax_rows(scores)
    return naive_matmul(naive_matmul(attn, vp), wo)


def naive_conv1d(x, kernel_blocks, bias):
    """kernel_blocks: list of (d_in x d_out) taps; symmetric zero padding."""
    L, d_in = x.shape
    width = len(kernel_blocks)
    half = width // 2
    d_out = kernel_blocks[0].shape[1]
    out = np.zeros((L, d_out))
    for i in range(L):
        for t in range(width):
            src = i + t - half
            if 0 <= src < L:
                out[i] += x[src] @ kernel_blocks[t]
        out[i] += bias[0]
    return out


def param(data, name):
    return Parameter(np.asarray(data, dtype=np.float64), name)


# --- forward behavior --------------------------------------------------------


class TestLinear:
    def test_identity_weights(self, rng):
        x = Tensor(rng.normal(size=(5, 4)))
        w = param(np.eye(4), "w")
        b = param(np.zeros((1, 4)), "b")
        np.testing.assert_array_equal(linear(x, w, b).data, x.data)

    def test_zero_input_gives_bias_rows(self, rng):
        b_row = rng.normal(size=(1, 3))
        out = linear(Tensor(np.zeros((4, 2))), param(rng.normal(size=(2, 3)), "w"), param(b_row, "b"))
        for i in range(4):
            np.testing.assert_array_equal(out.data[i], b_row[0])

    def test_matches_naive_matmul(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=(1, 2))
        got = linear(Tensor(x), param(w, "w"), param(b, "b")).data
        np.testing.assert_allclose(got, naive_matmul(x, w) + b, rtol=1e-13)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_symmetric_pair(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_large_values_do_not_overflow(self):
        out = softmax_rows(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_analytic_quarter_three_quarters(self):
        out = softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(20, 9)) * 50
        out = softmax_rows(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert (out.data >= 0).all() and (out.data <= 1).all()

    def test_masked_rows_sum_to_one_on_mask(self, rng):
        x = rng.normal(size=(6, 6))
        mask = (rng.random((6, 6)) < 0.5).astype(float)
        mask[np.arange(6), np.arange(6)] = 1.0  # keep every row non-empty
        out = masked_softmax_rows(Tensor(x), mask)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert (out.data[mask == 0] == 0.0).all()

    def test_empty_mask_row_rejected(self):
        with pytest.raises(ArgumentError):
            masked_softmax_rows(Tensor(np.zeros((2, 2))), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_matches_naive(self, rng):
        x = rng.normal(size=(4, 7))
        np.testing.assert_allclose(softmax_rows(Tensor(x)).data, naive_softmax_rows(x), rtol=1e-12)


class TestCrossAttention:
    def test_single_key_forces_weight_one(self, rng):
        gen = SplitMix64(3)
        params = CrossAttentionParams.init("ca", 4, gen)
        q = Tensor(rng.normal(size=(5, 4)))
        kv = Tensor(rng.normal(size=(1, 4)))
        out, weights = cross_attention(q, kv, kv, params, with_weights=True)
        np.testing.assert_array_equal(weights[0], np.ones((5, 1)))
        # every output row is the single projected value row through wo
        v_row = (kv.data @ params.wv.data) @ params.wo.data
        for i in range(5):
            np.testing.assert_allclose(out.data[i], v_row[0], rtol=1e-12)

    def test_weight_rows_sum_to_one(self, rng):
        gen = SplitMix64(4)
        params = CrossAttentionParams.init("ca", 6, gen, heads=2)
        q, kv = Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(7, 6)))
        _out, weights = cross_attention(q, kv, kv, params, with_weights=True)
        assert len(weights) == 2
        for w in weights:
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_naive_attention(self, rng):
        gen = SplitMix64(5)
        params = CrossAttentionParams.init("ca", 4, gen)
        q = rng.normal(size=(2, 4))
        kv = rng.normal(size=(3, 4))
        got = cross_attention(Tensor(q), Tensor(kv), Tensor(kv), params).data
        want = naive_attention(
            q, kv, kv, params.wq.data, params.wk.data, params.wv.data, params.wo.data
        )
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_dim_mismatch(self, rng):
        params = CrossAttentionParams.init("ca", 4, SplitMix64(0))
        with pytest.raises(ShapeError):
            cross_attention(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))), params)

    def test_bad_head_count(self):
        with pytest.raises(ConfigError):
            CrossAttentionParams.init("ca", 6, SplitMix64(0), heads=4)


class TestConv1d:
    def test_width_one_is_bitwise_linear(self, rng):
        weights = rng.normal(size=(4, 3))
        bias = rng.normal(size=(1, 3))
        params = Conv1dParams(
            kernel=param(weights, "k"), bias=param(bias, "b"), width=1, d_in=4, d_out=3
        )
        x = Tensor(rng.normal(size=(6, 4)))
        conv_out = conv1d(x, params)
        lin_out = linear(x, param(weights, "w2"), param(bias, "b2"))
        assert conv_out.data.tobytes() == lin_out.data.tobytes()

    def test_impulse_response_width_three(self, rng):
        d_in, d_out, L = 3, 2, 7
        kernel = rng.normal(size=(3 * d_in, d_out))
        params = Conv1dParams(
            kernel=param(kernel, "k"),
            bias=param(np.zeros((1, d_out)), "b"),
            width=3,
            d_in=d_in,
            d_out=d_out,
        )
        x = np.zeros((L, d_in))
        x[3, 1] = 1.0  # unit impulse in feature 1 at position 3
        out = conv1d(Tensor(x), params).data
        taps = [kernel[t * d_in : (t + 1) * d_in] for t in range(3)]
        np.testing.assert_allclose(out[2], taps[2][1])  # sees impulse one step ahead
        np.testing.assert_allclose(out[3], taps[1][1])
        np.testing.assert_allclose(out[4], taps[0][1])
        assert np.all(out[[0, 1, 5, 6]] == 0.0)

    def test_matches_sliding_window_oracle(self, rng):
        d_in, d_out = 4, 3
        kernel = rng.normal(size=(3 * d_in, d_out))
        bias = rng.normal(size=(1, d_out))
        params = Conv1dParams(
            kernel=param(kernel, "k"), bias=param(bias, "b"), width=3, d_in=d_in, d_out=d_out
        )
        x = rng.normal(size=(8, d_in))
        got = conv1d(Tensor(x), params).data
        taps = [kernel[t * d_in : (t + 1) * d_in] for t in range(3)]
        np.testing.assert_allclose(got, naive_conv1d(x, taps, bias), rtol=1e-12)

    def test_length_preserved(self, rng):
        for width in (1, 3, 5):
            params = Conv1dParams.init("c", 4, 4, SplitMix64(0), width=width)
            out = conv1d(Tensor(rng.normal(size=(9, 4))), params)
            assert out.shape == (9, 4)

    def test_even_width_rejected(self):
        with pytest.raises(ConfigError):
            Conv1dParams.init("c", 4, 4, SplitMix64(0), width=2)


# --- gradients ---------------------------------------------------------------


class TestGradCheck:
    def test_quadratic_loss_is_nearly_exact(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        w = param(rng.normal(size=(3, 3)), "w")

        def loss():
            y = matmul(x, w)
            return scale(sum_all(mul(y, y)), 1.0)

        assert grad_check(loss, [w]) < 1e-7

    def test_dead_parameter_gets_exactly_zero(self, rng):
        used = param(rng.normal(size=(2, 2)), "used")
        dead = param(rng.normal(size=(2, 2)), "dead")
        x = Tensor(rng.normal(size=(3, 2)))

        loss = mse(matmul(x, used), np.zeros((3, 2)))
        loss.backward()
        assert np.all(dead.grad == 0.0)
        assert np.any(used.grad != 0.0)

    @pytest.mark.parametrize(
        "op_name",
        ["add", "sub", "mul", "matmul", "transpose", "concat_cols", "concat_rows",
         "slice_rows", "slice_cols", "shift_pos", "shift_neg", "leaky_relu",
         "softmax", "masked_softmax"],
    )
    def test_each_op_gradient(self, rng, op_name):
        a = param(rng.normal(size=(4, 3)), "a")
        b = param(rng.normal(size=(4, 3)), "b")

        def build():
            if op_name == "add":
                y = add(a, b)
            elif op_name == "sub":
                y = sub(a, b)
            elif op_name == "mul":
                y = mul(a, b)
            elif op_name == "matmul":
                y = matmul(a, transpose(b))
            elif op_name == "transpose":
                y = transpose(a)
            elif op_name == "concat_cols":
                y = concat_cols(a, b)
            elif op_name == "concat_rows":
                y = concat_rows([a, b])
            elif op_name == "slice_rows":
                y = slice_rows(a, 1, 3)
            elif op_name == "slice_cols":
                y = slice_cols(a, 0, 2)
            elif op_name == "shift_pos":
                y = shift_rows(a, 2)
            elif op_name == "shift_neg":
                y = shift_rows(a, -1)
            elif op_name == "leaky_relu":
                y = leaky_relu(a, 0.2)
            elif op_name == "softmax":
                y = softmax_rows(a)
            else:
                mask = np.ones((4, 3))
                mask[0, 1] = 0.0
                y = masked_softmax_rows(a, mask)
            # anchor against a fixed offset so no op yields a flat loss
            return mse(y, np.full(y.data.shape, 0.25))

        assert grad_check(build, [a, b]) < 1e-6

    def test_broadcast_bias_gradient(self, rng):
        w = param(rng.normal(size=(3, 2)), "w")
        b = param(rng.normal(size=(1, 2)), "b")
        x = Tensor(rng.normal(size=(5, 3)))
        target = rng.normal(size=(5, 2))
        assert grad_check(lambda: mse(linear(x, w, b), target), [w, b]) < 1e-7

    def test_attention_and_conv_composite(self, rng):
        gen = SplitMix64(8)
        ca = CrossAttentionParams.init("ca", 4, gen, heads=2)
        conv = Conv1dParams.init("conv", 4, 4, gen, width=3)
        q = Tensor(rng.normal(size=(3, 4)))
        kv = Tensor(rng.normal(size=(5, 4)))
        target = rng.normal(size=(3, 4))

        def loss():
            return mse(conv1d(cross_attention(q, kv, kv, ca), conv), target)

        params = ca.parameters() + conv.parameters()
        assert grad_check(loss, params) < 1e-4

    def test_non_finite_loss_diagnosed(self):
        w = param(np.array([[1.0]]), "w")

        def loss():
            return scale(matmul(w, Tensor([[float("1e308")]])), 1e308)

        with np.errstate(over="ignore"):
            with pytest.raises(NumericError):
                grad_check(loss, [w])

    def test_second_backward_adds_one_more_gradient(self):
        # interior nodes must not re-propagate the first call's gradient
        p = param(np.array([[2.0]]), "p")
        loss = scale(mul(p, p), 1.0)
        loss.backward()
        assert p.grad[0, 0] == 4.0
        loss.backward()
        assert p.grad[0, 0] == 8.0

    def test_gradient_flows_to_inputs_too(self, rng):
        x = param(rng.normal(size=(2, 3)), "x")
        w = param(rng.normal(size=(3, 2)), "w")
        target = rng.normal(size=(2, 2))
        assert grad_check(lambda: mse(matmul(x, w), target), [x, w]) < 1e-7

    def test_negative_control_catches_wrong_gradients(self, rng):
        # an op whose backward rule is deliberately off by 10% must be flagged
        from emodub.autodiff import _accum, _make

        def bad_scale(t, factor):
            def backward(g):
                _accum(t, g * factor * 1.1)

            return _make(t.data * factor, (t,), backward)

        w = param(rng.normal(size=(3, 3)), "w")
        target = rng.normal(size=(3, 3))
        err = grad_check(lambda: mse(bad_scale(w, 2.0), target), [w])
        assert err > 0.05


class TestDeterminism:
    def test_same_inputs_same_bits(self, rng):
        x = rng.normal(size=(4, 4))
        gen1, gen2 = SplitMix64(21), SplitMix64(21)
        p1 = CrossAttentionParams.init("ca", 4, gen1)
        p2 = CrossAttentionParams.init("ca", 4, gen2)
        o1 = cross_attention(Tensor(x), Tensor(x), Tensor(x), p1)
        o2 = cross_attention(Tensor(x), Tensor(x), Tensor(x), p2)
        assert o1.data.tobytes() == o2.data.tobytes()


# --- Adam ---------------------------------------------------------------------


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self, rng):
        p = param(rng.normal(size=(3, 3)), "p")
        before = p.data.copy()
        adam = AdamState([p])
        adam.step()
        np.testing.assert_array_equal(p.data, before)

    def test_single_step_matches_scalar_formula(self):
        # from zero moments with gradient g: update = -lr * g / (|g| + eps)
        g = np.array([[0.37, -2.0], [5.0, -0.004]])
        p = param(np.zeros((2, 2)), "p")
        p.grad[...] = g
        lr, eps = 0.00625, 1e-9
        adam = AdamState([p], lr=lr, eps=eps)
        adam.step()
        want = -lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(p.data, want, rtol=1e-12)
        assert np.all(p.grad == 0.0)  # zeroed after the step

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        p = param(np.zeros((1, 1)), "p")
        adam = AdamState([p], lr=0.00625)
        prev = 0.0
        for _ in range(50):
            p.grad[...] = 1.0
            adam.step()
            delta = p.data[0, 0] - prev
            prev = p.data[0, 0]
            assert abs(abs(delta) - 0.00625) < 1e-9

    def test_bias_correction_over_steps(self):
        # two steps with different gradients, checked against a by-hand recurrence
        beta1, beta2, lr, eps = 0.9, 0.98, 0.00625, 1e-9
        p = param(np.array([[1.0]]), "p")
        adam = AdamState([p], lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        value, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate([0.5, -1.25, 2.0], start=1):
            p.grad[...] = g
            adam.step()
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            value -= lr * m_hat / (math.sqrt(v_hat) + eps)
            assert p.data[0, 0] == pytest.approx(value, rel=1e-12)

    def test_default_hyperparameters(self):
        adam = AdamState([param(np.zeros((1, 1)), "p")])
        assert (adam.lr, adam.beta1, adam.beta2, adam.eps) == (0.00625, 0.9, 0.98, 1e-9)


# --- checkpoints ---------------------------------------------------------------


class TestCheckpoints:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        gen = SplitMix64(33)
        params = [
            Parameter(rng.normal(size=(3, 4)), "alpha"),
            Parameter(rng.normal(size=(1, 2)), "beta.weight"),
            Parameter(np.array([[math.pi]]), "gamma"),
        ]
        path = tmp_path / "params.adpk"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"alpha", "beta.weight", "gamma"}
        for p in params:
            assert loaded[p.name].tobytes() == p.data.tobytes()

    def test_restore_into_fresh_parameters(self, rng, tmp_path):
        src = [Parameter(rng.normal(size=(2, 2)), "w")]
        path = tmp_path / "p.adpk"
        save_checkpoint(src, path)
        dst = [Parameter(np.zeros((2, 2)), "w")]
        restore_checkpoint(dst, path)
        assert dst[0].data.tobytes() == src[0].data.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.adpk"
        path.write_bytes(b"JUNKyyyy")
        with pytest.raises(FormatError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated(self, rng, tmp_path):
        path = tmp_path / "t.adpk"
        save_checkpoint([Parameter(rng.normal(size=(4, 4)), "w")], path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_duplicate_names_rejected_on_save(self, rng, tmp_path):
        params = [Parameter(np.zeros((1, 1)), "w"), Parameter(np.ones((1, 1)), "w")]
        with pytest.raises(ConfigError, match="duplicate"):
            save_checkpoint(params, tmp_path / "d.adpk")

    def test_invalid_utf8_name(self, tmp_path):
        path = tmp_path / "u.adpk"
        save_checkpoint([Parameter(np.zeros((1, 1)), "w")], path)
        data = bytearray(path.read_bytes())
        data[16] = 0xFF  # the one-byte name follows magic, version, count, name length
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="UTF-8"):
            load_checkpoint(path)

    def test_shape_mismatch_on_restore(self, rng, tmp_path):
        path = tmp_path / "s.adpk"
        save_checkpoint([Parameter(np.zeros((2, 2)), "w")], path)
        with pytest.raises(ShapeError):
            restore_checkpoint([Parameter(np.zeros((3, 2)), "w")], path)
