"""Numeric core: forward oracles, gradient checks, Adam, checkpoints.

Forward oracles are deliberately naive (triple loops) so they share
nothing with the vectorized implementations.
"""

import math
import tracemalloc

import numpy as np
import pytest

from emodub import autodiff, graph
from emodub.autodiff import (
    AdamState,
    Conv1dParams,
    CrossAttentionParams,
    Parameter,
    Tensor,
    _accum,
    _accum_product,
    _make,
    add,
    concat_cols,
    concat_rows,
    conv1d,
    cross_attention,
    grad_check,
    linear,
    load_checkpoint,
    matmul,
    mse,
    save_checkpoint,
)
from emodub.errors import ConfigError, FormatError, NumericError, ShapeError
from emodub.graph import GAEParams, gae_encode
from emodub.rng import SplitMix64

from conftest import graph_of


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


def param(data, name):
    return Parameter(np.asarray(data, dtype=np.float64), name)


def scaled(t, factor, off_by=1.0):
    """``t * factor`` as one op, with a backward rule off by the factor
    ``off_by`` (1.0 gives the true rule)."""

    def backward(g):
        _accum(t, g * factor * off_by)

    return _make(t.data * factor, (t,), backward)


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


class TestShapeChecks:
    def test_add_rejects_shapes_that_do_not_broadcast(self):
        for other in ((3, 3), (2, 2), (3, 1)):
            with pytest.raises(ShapeError):
                add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(other)))
        for other in ((2, 3), (1, 3), (2, 1), (1, 1)):
            assert add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(other))).data.shape == (2, 3)

    def test_concat_rows_rejects_unequal_column_counts(self):
        with pytest.raises(ShapeError, match="row concat"):
            concat_rows([Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 2)))])


def frozen(params):
    """A copy of a parameter set whose fields are constants."""
    return type(params)(*(Tensor(p.data) for p in params.parameters()))


def path_stage(features):
    """One GAE stage over a path through the rows of ``features``."""
    return graph_of(features, [(i, i + 1) for i in range(features.rows - 1)])


#: each op on 4x3 inputs; ``b`` supplies a second operand or a constant;
#: the attentions' parameters are constants
OPS = {
    "add": add,
    "matmul": lambda a, b: matmul(a, Tensor(b.data.T)),
    "concat_cols": concat_cols,
    "concat_rows": lambda a, b: concat_rows([a, b]),
    "mse": lambda a, b: mse(a, b.data),
    "cross_attention": lambda a, b: cross_attention(a, b, frozen(CrossAttentionParams.init("ca", 3, SplitMix64(13)))),
    "gae_encode": lambda a, b: gae_encode(path_stage(a), frozen(GAEParams.init(3, SplitMix64(14)))).features,
}

#: the output layout of each op for C- and for F-ordered inputs; BLAS
#: results depend on the layout, so no op may copy its result into another
LAYOUT = {
    "add": ("C", "F"),
    "matmul": ("C", "C"),
    "concat_cols": ("C", "F"),
    "concat_rows": ("C", "F"),
    "mse": ("CF", "CF"),
    "cross_attention": ("C", "C"),
    "gae_encode": ("C", "C"),
}


def op_operands(order, trainable=False):
    a = np.asarray(np.arange(12.0).reshape(4, 3) - 5.5, order=order)
    b = np.asarray(np.arange(12.0).reshape(4, 3) * 0.5 + 1.0, order=order)
    return (Parameter(a, "a") if trainable else Tensor(a)), Tensor(b)


class TestOpOutputs:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("op_name", sorted(OPS))
    def test_output_is_2d_float64_in_its_layout(self, op_name, order):
        a, b = op_operands(order)
        assert a.data.flags[f"{order}_CONTIGUOUS"]
        out = OPS[op_name](a, b).data
        layout = "C" * out.flags.c_contiguous + "F" * out.flags.f_contiguous
        assert out.ndim == 2 and out.dtype == np.float64
        assert layout == LAYOUT[op_name][order == "F"]

    @pytest.mark.parametrize("op_name", sorted(OPS))
    def test_an_op_keeps_a_tape_only_when_a_parent_needs_a_gradient(self, op_name):
        out = OPS[op_name](*op_operands("C"))
        assert not out.requires_grad and out._parents == () and out._backward is None
        out = OPS[op_name](*op_operands("C", trainable=True))
        assert out.requires_grad and out._parents and out._backward is not None


#: the ops that backpropagate through products, each with one operand, or
#: one set of parameters, that needs no gradient; ``a`` and ``b`` are 4x3
GUARDED = {
    "matmul-constant-left": lambda a, b: matmul(Tensor(a), param(b.T, "b")),
    "matmul-constant-right": lambda a, b: matmul(param(a, "a"), Tensor(b.T)),
    "matmul-constant-parameter-right": lambda a, b: matmul(param(a, "a"), constant_param(b.T, "b")),
    "cross_attention-constant-query": lambda a, b: cross_attention(
        Tensor(a), param(b, "b"), CrossAttentionParams.init("ca", 3, SplitMix64(13))),
    "cross_attention-constant-memory": lambda a, b: cross_attention(
        param(a, "a"), Tensor(b), CrossAttentionParams.init("ca", 3, SplitMix64(13))),
    "cross_attention-constant-weights": lambda a, b: cross_attention(
        param(a, "a"), param(b, "b"), frozen(CrossAttentionParams.init("ca", 3, SplitMix64(13)))),
    "gae_encode-constant-features": lambda a, b: gae_encode(
        path_stage(Tensor(a)), GAEParams.init(3, SplitMix64(14))).features,
    "gae_encode-constant-weights": lambda a, b: gae_encode(
        path_stage(param(a, "a")), frozen(GAEParams.init(3, SplitMix64(14)))).features,
}


def constant_param(data, name):
    """A parameter that needs no gradient: the one kind of constant that
    the in-place write of a product could reach."""
    p = param(data, name)
    p.requires_grad = False
    return p


class TestBackwardGuard:
    @pytest.mark.parametrize("case", sorted(GUARDED))
    def test_no_product_reaches_an_operand_that_needs_no_gradient(self, monkeypatch, case):
        # records both ways a gradient arrives: added, or a product written in place
        reached = []

        def recording(t, g):
            reached.append(t)
            _accum(t, g)

        def recording_product(t, a, b):
            reached.append(t)
            _accum_product(t, a, b)

        for module in (autodiff, graph):
            monkeypatch.setattr(module, "_accum", recording)
            monkeypatch.setattr(module, "_accum_product", recording_product)
        a, b = (t.data for t in op_operands("C"))
        out = GUARDED[case](a, b)
        mse(out, np.zeros(out.shape)).backward()
        assert len(reached) > 1  # mse's own gradient, then the op's
        assert all(t.requires_grad for t in reached)


class TestMse:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("upstream", [1.0, 3.0, -0.5])
    def test_bits_of_the_composition_it_replaces(self, rng, order, upstream):
        # the roundings of mse's unfused form (subtract, square, sum, scale), in numpy
        for rows, cols in ((5, 3), (7, 3), (1, 9), (6, 11)):
            p = np.asarray(rng.normal(size=(rows, cols)), order=order)
            t = rng.normal(size=(rows, cols))
            t[0] = p[0]  # zero differences, where the gradient's sign of zero could differ
            pred = Tensor(p, requires_grad=True)
            loss = mse(pred, t)
            scaled(loss, upstream).backward()
            factor = 1 / p.size
            diff = p - t
            h = (np.full((1, 1), upstream) * factor) * diff
            want_value = np.array([[(diff * diff).sum()]]) * factor
            want_grad = np.zeros_like(p) + ((0.0 + h) + h)
            assert pred.data.flags[f"{order}_CONTIGUOUS"]
            assert loss.data.tobytes() == want_value.tobytes()
            assert pred.grad.tobytes() == want_grad.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="mse shape mismatch"):
            mse(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_target_tensor_is_a_constant(self, rng):
        pred = param(rng.normal(size=(3, 4)), "pred")
        target = param(rng.normal(size=(3, 4)), "target")
        loss = mse(pred, target)
        assert loss._parents == (pred,)
        loss.backward()
        assert np.any(pred.grad != 0.0) and np.all(target.grad == 0.0)


class TestCrossAttention:
    def test_single_key_forces_weight_one(self, rng):
        gen = SplitMix64(3)
        params = CrossAttentionParams.init("ca", 4, gen)
        q = Tensor(rng.normal(size=(5, 4)))
        kv = Tensor(rng.normal(size=(1, 4)))
        out, weights = cross_attention(q, kv, params, with_weights=True)
        np.testing.assert_array_equal(weights[0], np.ones((5, 1)))
        # every output row is the single projected value row through wo
        v_row = (kv.data @ params.wv.data) @ params.wo.data
        for i in range(5):
            np.testing.assert_allclose(out.data[i], v_row[0], rtol=1e-12)

    def test_weight_rows_sum_to_one(self, rng):
        gen = SplitMix64(4)
        params = CrossAttentionParams.init("ca", 6, gen)
        q, kv = Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(7, 6)))
        _out, weights = cross_attention(q, kv, params, with_weights=True)
        assert len(weights) == 1 and weights[0].shape == (3, 7)
        np.testing.assert_allclose(weights[0].sum(axis=1), 1.0, atol=1e-12)

    def test_matches_naive_attention(self, rng):
        gen = SplitMix64(5)
        params = CrossAttentionParams.init("ca", 4, gen)
        q = rng.normal(size=(2, 4))
        kv = rng.normal(size=(3, 4))
        got = cross_attention(Tensor(q), Tensor(kv), params).data
        want = naive_attention(
            q, kv, kv, params.wq.data, params.wk.data, params.wv.data, params.wo.data
        )
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_dim_mismatch(self, rng):
        params = CrossAttentionParams.init("ca", 4, SplitMix64(0))
        with pytest.raises(ShapeError):
            cross_attention(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 4))), params)

    def test_weights_match_naive_softmax(self, rng):
        params = CrossAttentionParams.init("ca", 4, SplitMix64(6))
        q, kv = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        _out, weights = cross_attention(Tensor(q), Tensor(kv), params, with_weights=True)
        qp = naive_matmul(q, params.wq.data)
        kp = naive_matmul(kv, params.wk.data)
        want = naive_softmax_rows(naive_matmul(qp, kp.T) / math.sqrt(4))
        np.testing.assert_allclose(weights[0], want, rtol=1e-11)

    def test_memory_dim_mismatch(self):
        params = CrossAttentionParams.init("ca", 4, SplitMix64(0))
        with pytest.raises(ShapeError, match="memory has dim 5"):
            cross_attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 5))), params)

    def test_large_scores_give_finite_weights(self, rng):
        params = CrossAttentionParams.init("ca", 4, SplitMix64(9))
        q = Tensor(rng.normal(size=(3, 4)) * 300.0)
        kv = Tensor(rng.normal(size=(5, 4)) * 300.0)
        scores = (q.data @ params.wq.data) @ (kv.data @ params.wk.data).T / 2.0
        assert np.abs(scores).max() > 1e3  # exp would overflow without the row max
        out, weights = cross_attention(q, kv, params, with_weights=True)
        assert np.isfinite(out.data).all() and np.isfinite(weights[0]).all()
        np.testing.assert_allclose(weights[0].sum(axis=1), 1.0, atol=1e-12)
        # two equal keys near 1e3 split the weight exactly
        _out, weights = cross_attention(q, Tensor(np.repeat(kv.data[:1], 2, axis=0)), params, with_weights=True)
        assert np.all(weights[0] == 0.5)

    def test_analytic_quarter_three_quarters(self):
        # dim 1 with unit projections: the scores of the two keys are 0 and ln 3
        params = CrossAttentionParams(*(param([[1.0]], n) for n in ("wq", "wk", "wv", "wo")))
        out, weights = cross_attention(Tensor([[1.0]]), Tensor([[0.0], [math.log(3.0)]]), params, with_weights=True)
        np.testing.assert_allclose(weights[0], [[0.25, 0.75]], atol=1e-15)
        np.testing.assert_allclose(out.data, [[0.75 * math.log(3.0)]], rtol=1e-15)

    def test_memory_row_order_does_not_matter(self, rng):
        params = CrossAttentionParams.init("ca", 4, SplitMix64(15))
        q, kv = Tensor(rng.normal(size=(3, 4))), rng.normal(size=(6, 4))
        order = np.array([4, 0, 5, 2, 1, 3])
        out, weights = cross_attention(q, Tensor(kv), params, with_weights=True)
        out_p, weights_p = cross_attention(q, Tensor(kv[order]), params, with_weights=True)
        np.testing.assert_allclose(out_p.data, out.data, rtol=1e-12)
        np.testing.assert_allclose(weights_p[0], weights[0][:, order], rtol=1e-12)

    def test_weights_hook_returns_the_weights_the_output_used(self, rng):
        params = CrossAttentionParams.init("ca", 4, SplitMix64(16))
        q, kv = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(5, 4)))
        out, weights = cross_attention(q, kv, params, with_weights=True)
        assert out.data.tobytes() == cross_attention(q, kv, params).data.tobytes()
        want = (weights[0] @ (kv.data @ params.wv.data)) @ params.wo.data
        np.testing.assert_allclose(out.data, want, rtol=1e-12)

    def test_query_row_gradient_comes_from_its_own_output_row(self, rng):
        params = CrossAttentionParams.init("ca", 4, SplitMix64(17))
        query = param(rng.normal(size=(3, 4)), "query")
        memory = param(rng.normal(size=(5, 4)), "memory")
        out = cross_attention(query, memory, params)
        target = out.data.copy()
        target[0] += 1.0  # only row 0 is off its target
        mse(out, target).backward()
        assert np.all(query.grad[1:] == 0.0) and np.any(query.grad[0] != 0.0)
        assert np.all(memory.grad.any(axis=1))

    def test_memory_gradient_sums_key_and_value_paths(self, rng):
        params = CrossAttentionParams.init("ca", 4, SplitMix64(7))
        q = Tensor(rng.normal(size=(2, 4)))
        memory = param(rng.normal(size=(5, 4)), "memory")
        target = rng.normal(size=(2, 4))
        assert grad_check(lambda: mse(cross_attention(q, memory, params), target), [memory]) < 1e-6


class TestConv1d:
    def test_width_one_is_bitwise_linear(self, rng):
        weights = rng.normal(size=(4, 3))
        bias = rng.normal(size=(1, 3))
        params = Conv1dParams(kernel=param(weights, "k"), bias=param(bias, "b"))
        x = Tensor(rng.normal(size=(6, 4)))
        conv_out = conv1d(x, params)
        lin_out = linear(x, param(weights, "w2"), param(bias, "b2"))
        assert conv_out.data.tobytes() == lin_out.data.tobytes()

    def test_length_preserved(self, rng):
        params = Conv1dParams.init("c", 4, 4, SplitMix64(0))
        out = conv1d(Tensor(rng.normal(size=(9, 4))), params)
        assert out.shape == (9, 4)

    def test_input_dim_mismatch(self, rng):
        params = Conv1dParams.init("c", 4, 4, SplitMix64(0))
        with pytest.raises(ShapeError):
            conv1d(Tensor(rng.normal(size=(9, 5))), params)

    def test_parameter_names_and_shapes(self):
        params = Conv1dParams.init("head.conv_out", 6, 3, SplitMix64(0))
        assert [(p.name, p.shape) for p in params.parameters()] == [
            ("head.conv_out.kernel", (6, 3)),
            ("head.conv_out.bias", (1, 3)),
        ]

    def test_gradient_is_bitwise_linear_gradient(self, rng):
        weights = rng.normal(size=(4, 3))
        bias = rng.normal(size=(1, 3))
        x = Tensor(rng.normal(size=(6, 4)))
        target = rng.normal(size=(6, 3))
        conv = Conv1dParams(kernel=param(weights, "k"), bias=param(bias, "b"))
        w2, b2 = param(weights, "w2"), param(bias, "b2")
        mse(conv1d(x, conv), target).backward()
        mse(linear(x, w2, b2), target).backward()
        assert conv.kernel.grad.tobytes() == w2.grad.tobytes()
        assert conv.bias.grad.tobytes() == b2.grad.tobytes()


# --- gradients ---------------------------------------------------------------


class TestGradCheck:
    def test_quadratic_loss_is_nearly_exact(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        w = param(rng.normal(size=(3, 3)), "w")

        def loss():
            return mse(matmul(x, w), np.zeros((4, 3)))

        assert grad_check(loss, [w]) < 1e-7

    def test_dead_parameter_gets_exactly_zero(self, rng):
        used = param(rng.normal(size=(2, 2)), "used")
        dead = param(rng.normal(size=(2, 2)), "dead")
        x = Tensor(rng.normal(size=(3, 2)))

        loss = mse(matmul(x, used), np.zeros((3, 2)))
        loss.backward()
        assert np.all(dead.grad == 0.0)
        assert np.any(used.grad != 0.0)

    @pytest.mark.parametrize("op_name", ["add", "matmul", "concat_cols", "concat_rows"])
    def test_each_op_gradient(self, rng, op_name):
        a = param(rng.normal(size=(4, 3)), "a")
        b = param(rng.normal(size=(3, 4) if op_name == "matmul" else (4, 3)), "b")

        def build():
            if op_name == "add":
                y = add(a, b)
            elif op_name == "matmul":
                y = matmul(a, b)
            elif op_name == "concat_cols":
                y = concat_cols(a, b)
            else:
                y = concat_rows([a, b])
            # anchor against a fixed offset so no op yields a flat loss
            return mse(y, np.full(y.data.shape, 0.25))

        assert grad_check(build, [a, b]) < 1e-6

    def test_broadcast_bias_gradient(self, rng):
        w = param(rng.normal(size=(3, 2)), "w")
        b = param(rng.normal(size=(1, 2)), "b")
        x = Tensor(rng.normal(size=(5, 3)))
        target = rng.normal(size=(5, 2))
        assert grad_check(lambda: mse(linear(x, w, b), target), [w, b]) < 1e-7

    def test_cross_attention_gradient(self, rng):
        ca = CrossAttentionParams.init("ca", 4, SplitMix64(10))
        query = param(rng.normal(size=(3, 4)), "query")
        memory = param(rng.normal(size=(5, 4)), "memory")
        target = rng.normal(size=(3, 4))
        params = [query, memory, *ca.parameters()]
        assert grad_check(lambda: mse(cross_attention(query, memory, ca), target), params) < 1e-6

    @pytest.mark.parametrize("trainable", ["query", "memory", "wq", "wk", "wv", "wo"])
    def test_cross_attention_gradient_of_one_operand(self, rng, trainable):
        # the other five operands are constants, which the backward must skip
        values = {"query": rng.normal(size=(3, 4)), "memory": rng.normal(size=(5, 4))}
        values.update((p.name[3:], p.data) for p in CrossAttentionParams.init("ca", 4, SplitMix64(18)).parameters())
        t = {k: param(v, k) if k == trainable else Tensor(v) for k, v in values.items()}
        ca = CrossAttentionParams(t["wq"], t["wk"], t["wv"], t["wo"])
        target = rng.normal(size=(3, 4))
        assert grad_check(lambda: mse(cross_attention(t["query"], t["memory"], ca), target), [t[trainable]]) < 1e-6
        assert all(v.grad is None for k, v in t.items() if k != trainable)

    def test_attention_and_conv_composite(self, rng):
        gen = SplitMix64(8)
        ca = CrossAttentionParams.init("ca", 4, gen)
        conv = Conv1dParams.init("conv", 4, 4, gen)
        q = Tensor(rng.normal(size=(3, 4)))
        kv = Tensor(rng.normal(size=(5, 4)))
        target = rng.normal(size=(3, 4))

        def loss():
            return mse(conv1d(cross_attention(q, kv, ca), conv), target)

        params = ca.parameters() + conv.parameters()
        assert grad_check(loss, params) < 1e-4

    def test_non_finite_loss_diagnosed(self):
        w = param(np.array([[1.0]]), "w")

        def loss():
            return scaled(matmul(w, Tensor([[float("1e308")]])), 1e308)

        with np.errstate(over="ignore"):
            with pytest.raises(NumericError):
                grad_check(loss, [w])

    def test_non_finite_perturbed_loss_leaves_nothing_changed(self):
        # the unperturbed loss is finite, but w + eps overflows it
        w = param(np.array([[1.0]]), "w")

        def loss():
            return scaled(matmul(w, Tensor([[1e308]])), 1.79769)

        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="perturbed loss"):
                grad_check(loss, [w])
        assert w.data[0, 0] == 1.0
        assert w.grad[0, 0] == 0.0

    def test_overflowing_difference_diagnosed(self):
        # both perturbed losses are finite, but their difference overflows;
        # the backward rule is off by a factor of 2, which must not be skipped
        w = param(np.array([[0.0]]), "w")

        def loss():
            return scaled(matmul(w, Tensor([[1e308]])), 1.0, off_by=2.0)

        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=r"w\[0, 0\]"):
                grad_check(loss, [w], eps=1.5)
        assert w.data[0, 0] == 0.0
        assert w.grad[0, 0] == 0.0

    def test_second_backward_adds_one_more_gradient(self):
        # interior nodes must not re-propagate the first call's gradient
        p = param(np.array([[2.0]]), "p")
        loss = scaled(matmul(p, p), 1.0)
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
        w = param(rng.normal(size=(3, 3)), "w")
        target = rng.normal(size=(3, 3))
        err = grad_check(lambda: mse(scaled(w, 2.0, off_by=1.1), target), [w])
        assert err > 0.05


def every_product_site(x, gae, ca, w):
    """A loss whose weights get their gradients through every product that
    is written in place: two GAE stages share ``W``, a cross-attention
    block, and two matmuls share ``w``."""
    h = gae_encode(path_stage(x), gae).features
    h = gae_encode(path_stage(h), gae).features
    return add(matmul(cross_attention(h, x, ca), w), matmul(x, w))


class TestFirstGradientWrite:
    def test_zero_grad_then_backward_has_the_bits_of_zero_plus_the_sum(self, monkeypatch, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        x.data[1] = 0.0  # its products are signed zeros
        gae, ca = GAEParams.init(3, SplitMix64(14)), CrossAttentionParams.init("ca", 3, SplitMix64(13))
        w = param(rng.normal(size=(3, 3)), "w")
        params = [*gae.parameters(), *ca.parameters(), w]
        target = rng.normal(size=(4, 3))

        def gradients():
            for p in params:
                p.grad[...] = np.nan  # stale values that the write must not read
                p.zero_grad()
            mse(every_product_site(x, gae, ca, w), target).backward()
            return [p.grad.tobytes() for p in params]

        written = gradients()
        for module in (autodiff, graph):  # every product added to a zeroed buffer instead
            monkeypatch.setattr(module, "_accum_product", lambda t, a, b: _accum(t, a @ b))
        assert gradients() == written

    # shapes that take numpy's dot, gemv, non-BLAS and gemm paths
    @pytest.mark.parametrize("rows, cols, out_cols", [(1, 1, 1), (3, 1, 1), (3, 1, 4), (3, 4, 1), (1, 4, 5), (40, 33, 20)])
    def test_a_product_of_negative_zeros_is_written_as_positive_zero(self, rows, cols, out_cols):
        # each term of x^T @ g is 0 * (negative) = -0.0; 0.0 + their sum is +0.0
        w = param(np.ones((cols, out_cols)), "w")
        w.grad[...] = -1.0
        w.zero_grad()
        out = matmul(Tensor(np.zeros((rows, cols))), w)
        mse(out, np.ones(out.shape)).backward()
        assert not w.grad.any() and not np.signbit(w.grad).any()


class TestDeterminism:
    def test_same_inputs_same_bits(self, rng):
        x = rng.normal(size=(4, 4))
        gen1, gen2 = SplitMix64(21), SplitMix64(21)
        p1 = CrossAttentionParams.init("ca", 4, gen1)
        p2 = CrossAttentionParams.init("ca", 4, gen2)
        o1 = cross_attention(Tensor(x), Tensor(x), p1)
        o2 = cross_attention(Tensor(x), Tensor(x), p2)
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
        adam = AdamState([p])
        adam.step()
        want = -lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(p.data, want, rtol=1e-12)
        assert np.all(p.grad == 0.0)  # zeroed after the step

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        p = param(np.zeros((1, 1)), "p")
        adam = AdamState([p])
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
        adam = AdamState([p])
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

    @staticmethod
    def six_steps(rng, update, scaled):
        """Six steps on parameters of 1, ``CHUNK + 1`` and 200 x 200 entries
        and an F-ordered one, with gradients spanning 8 decades and zeros.
        Yields ``(t, i, parameter, want)`` after each step, where ``want`` is
        the numpy reference's value: ``update(x, m, v, t)`` from the moments,
        which are kept divided by ``1 - beta`` when ``scaled`` is set."""
        beta1, beta2 = 0.9, 0.98
        datas = [rng.normal(size=(1, 1)), rng.normal(size=(1, AdamState.CHUNK + 1)), rng.normal(size=(200, 200)),
                 np.asfortranarray(rng.normal(size=(90, 70)))]
        params = [param(d, f"p{i}") for i, d in enumerate(datas)]
        adam = AdamState(params)
        want = [d.copy() for d in datas]
        m = [np.zeros_like(d) for d in datas]
        v = [np.zeros_like(d) for d in datas]
        for t in range(1, 7):
            grads = [rng.normal(size=d.shape) * 10.0 ** rng.integers(-4, 4, size=d.shape) for d in datas]
            grads[2][::3] = 0.0
            for p, g in zip(params, grads):
                p.grad[...] = g
            adam.step()
            for i, g in enumerate(grads):
                if scaled:
                    m[i] = beta1 * m[i] + g
                    v[i] = beta2 * v[i] + g * g
                else:
                    m[i] = beta1 * m[i] + (1.0 - beta1) * g
                    v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
                want[i] = update(want[i], m[i], v[i], t)
                yield t, i, params[i], want[i]

    def test_sliced_pass_has_the_bits_of_the_formula(self, rng):
        # the efficient form on scaled moments: alpha' and eps' as Python floats, then divide, then scale
        beta1, beta2, lr, eps = 0.9, 0.98, 0.00625, 1e-9

        def efficient(x, m, v, t):
            root_bc2, root_c2 = math.sqrt(1.0 - beta2**t), math.sqrt(1.0 - beta2)
            alpha = lr * root_bc2 / (1.0 - beta1**t) * (1.0 - beta1) / root_c2
            return x - (m / (np.sqrt(v) + eps * root_bc2 / root_c2)) * alpha

        for t, i, p, want in self.six_steps(rng, efficient, scaled=True):
            assert p.data.tobytes() == want.tobytes(), (t, i)
            assert not p.grad.any()

    def test_efficient_form_is_the_textbook_formula_within_1e_12_of_lr(self, rng):
        # Kingma and Ba's Algorithm 1, on the bias-corrected moments m_hat and v_hat
        beta1, beta2, lr, eps = 0.9, 0.98, 0.00625, 1e-9

        def textbook(x, m, v, t):
            return x - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)

        for t, i, p, want in self.six_steps(rng, textbook, scaled=False):
            assert np.abs(p.data - want).max() <= 1e-12 * lr, (t, i)

    def test_step_allocates_no_parameter_sized_temporary(self):
        p = param(np.ones((1000, 1000)), "p")
        p.grad[...] = 0.5
        adam = AdamState([p])
        tracemalloc.start()
        try:
            adam.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one 10^6-element temporary would be 8 MB
        assert not p.grad.any()

    def test_moments_are_mapped_zeros_off_the_heap(self):
        # numpy reports its heap allocations to tracemalloc; two heap moments
        # would be 16 MB, which a reused heap chunk would have to clear at once
        p = param(np.ones((1000, 1000)), "p")
        tracemalloc.start()
        try:
            adam = AdamState([p])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert adam.m.shape == adam.v.shape == (10**6,)
        assert not adam.m.any() and not adam.v.any()
        p.grad[...] = 0.5
        adam.step()
        assert adam.m.all() and adam.v.all()

    def test_gradient_reads_positive_zero_after_a_step(self, rng):
        p = param(rng.normal(size=(3, 4)), "p")
        p.grad[...] = -rng.random(size=(3, 4)) - 0.5
        AdamState([p]).step()
        assert not p.grad.any() and not np.signbit(p.grad).any()

    def test_a_parameter_no_backward_reaches_steps_with_a_zero_gradient(self, rng):
        data, g1, g3 = rng.normal(size=(3, 3, 4))
        lazy, written = param(data.copy(), "p"), param(data.copy(), "p")
        adams = AdamState([lazy]), AdamState([written])
        for t, g in enumerate([g1, None, g3]):
            if g is not None:  # else the lazy buffer still holds g1, marked zero
                lazy.grad[...] = g
            written.grad[...] = 0.0 if g is None else g
            for adam in adams:
                adam.step()
            assert lazy.data.tobytes() == written.data.tobytes(), t

    def test_no_parameters(self):
        adam = AdamState([])
        adam.step()
        assert adam.m.size == adam.v.size == 0


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
