"""Autodiff engine tests: oracle comparisons, finite-difference checks and
the no_grad context."""

import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from nlic import tensor as T
from nlic.errors import ConfigError, ContractViolation

from conftest import finite_difference, rel_err

GRAD_TOL = 1e-4


def naive_conv2d(x, w, b, stride=1, pad=0):
    """Independent nested-loop cross-correlation oracle."""
    bsz, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((bsz, co, oh, ow))
    for n in range(bsz):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[o, c, u, v] * xp[n, c, i * stride + u, j * stride + v]
                    out[n, o, i, j] = acc + b[o]
    return out


def naive_conv2d_transposed(x, w, b, stride=1, pad=0):
    """Scatter-add oracle for the transposed convolution."""
    bsz, ci, h, wd = x.shape
    _, co, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * pad + kh
    ow = (wd - 1) * stride - 2 * pad + kw
    full = np.zeros((bsz, co, (h - 1) * stride + kh, (wd - 1) * stride + kw))
    for n in range(bsz):
        for c in range(ci):
            for i in range(h):
                for j in range(wd):
                    for o in range(co):
                        for u in range(kh):
                            for v in range(kw):
                                full[n, o, i * stride + u, j * stride + v] += \
                                    x[n, c, i, j] * w[c, o, u, v]
    return full[:, :, pad:pad + oh, pad:pad + ow] + b[None, :, None, None]


def check_grads(fn, arrays, guard, tol=GRAD_TOL, h=1e-5):
    """fn maps Tensors to a scalar Tensor; compares backward to central FD,
    with `guard` (the kink_guard fixture) checking that no probe crosses a kink."""
    tensors = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = fn(*tensors)
    loss.backward()

    def scalar_fn(*arrs):
        return fn(*[T.Tensor(a) for a in arrs]).item()

    fd = finite_difference(scalar_fn, [a.copy() for a in arrays], guard, h=h)
    for t, g in zip(tensors, fd):
        assert t.grad is not None
        assert rel_err(t.grad, g) < tol


def _windows_ref(xp, kh, kw, stride):
    # [B,C,Hp,Wp] -> [B,C,OH,OW,kh,kw]
    return sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]


def _pad_ref(x, pad):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x


def _conv_input_grad_ref(g, w, x_padded_shape, stride, pad):
    """Reference conv2d input gradient: one tensordot per kernel tap, each
    scattered into the padded input, which is then cropped."""
    _, _, oh, ow = g.shape
    _, _, kh, kw = w.shape
    gp = np.zeros(x_padded_shape)
    for u in range(kh):
        for v in range(kw):
            tmp = np.tensordot(g, w[:, :, u, v], axes=([1], [0]))  # [B,OH,OW,Ci]
            gp[:, :, u:u + stride * (oh - 1) + 1:stride,
               v:v + stride * (ow - 1) + 1:stride] += tmp.transpose(0, 3, 1, 2)
    if pad:
        return gp[:, :, pad:gp.shape[2] - pad, pad:gp.shape[3] - pad]
    return gp


def _conv2d_transposed_ref(x, w, b, stride, pad):
    """Reference conv2d_transposed as its own body: one tensordot scattered
    tap by tap, and a backward over windows of the padded output gradient.
    Returns the output and a map from output gradient to (gx, gw, gb)."""
    bsz, _, h, wd = x.shape
    _, co, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * pad + kh
    ow = (wd - 1) * stride - 2 * pad + kw
    full = np.zeros((bsz, co, (h - 1) * stride + kh, (wd - 1) * stride + kw))
    tmp = np.tensordot(x, w, axes=([1], [0]))  # [B,H,W,Co,kh,kw]
    for u in range(kh):
        for v in range(kw):
            full[:, :, u:u + stride * (h - 1) + 1:stride,
                 v:v + stride * (wd - 1) + 1:stride] += tmp[:, :, :, :, u, v].transpose(0, 3, 1, 2)
    data = np.ascontiguousarray(full[:, :, pad:pad + oh, pad:pad + ow] + b[None, :, None, None])

    def backward(g):
        gwin = _windows_ref(_pad_ref(g, pad), kh, kw, stride)  # [B,Co,H,W,kh,kw]
        gx = np.tensordot(gwin, w, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
        return gx, np.tensordot(x, gwin, axes=([0, 2, 3], [0, 2, 3])), g.sum(axis=(0, 2, 3))

    return data, backward


def _masked_conv2d_ref(x, w, b, kernel):
    """Reference masked_conv2d as its own body: windows times the masked
    weight, the weight gradient masked, the input gradient scattered by
    _conv_input_grad_ref. Returns the output and a map from output gradient
    to (gx, gw, gb)."""
    mask = T.causal_mask(kernel)
    pad = kernel // 2
    w_eff = w * mask
    xp = _pad_ref(x, pad)
    win = _windows_ref(xp, kernel, kernel, 1)
    out = np.tensordot(win, w_eff, axes=([1, 4, 5], [1, 2, 3]))
    data = np.ascontiguousarray(out.transpose(0, 3, 1, 2)) + b[None, :, None, None]

    def backward(g):
        gw = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3])) * mask
        return _conv_input_grad_ref(g, w_eff, xp.shape, 1, pad), gw, g.sum(axis=(0, 2, 3))

    return data, backward


def _output_and_grads(op, x, w, b, g, *args):
    """op(x, w, b, *args) and the gradients of x, w, b for output gradient g."""
    ts = [T.Tensor(a, requires_grad=True) for a in (x, w, b)]
    out = op(*ts, *args)
    T.reduce_sum(T.mul(out, g)).backward()
    return (out.data,) + tuple(t.grad for t in ts)


class TestConvReferences:
    """conv2d_transposed, masked_conv2d and conv2d's input gradient against
    the bodies they had before all three ran on _correlate and _scatter.
    Outputs and weight and bias gradients are bit-identical; input
    gradients sum the same products, grouped into other BLAS calls."""

    @pytest.mark.parametrize("k", [1, 3, 4])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_transposed(self, rng, stride, pad, k):
        x = rng.normal(size=(2, 3, 5, 7))
        w = rng.normal(size=(3, 4, k, k))
        b = rng.normal(size=4)
        data, backward = _conv2d_transposed_ref(x, w, b, stride, pad)
        g = rng.normal(size=data.shape)
        out, gx, gw, gb = _output_and_grads(T.conv2d_transposed, x, w, b, g, stride, pad)
        np.testing.assert_array_equal(out, data)
        ref_gx, ref_gw, ref_gb = backward(g)
        np.testing.assert_array_equal(gw, ref_gw)
        np.testing.assert_array_equal(gb, ref_gb)
        np.testing.assert_allclose(gx, ref_gx, rtol=1e-12)

    @pytest.mark.parametrize("hw", [(7, 5), (9, 11)])
    @pytest.mark.parametrize("kernel", [5, 7])
    def test_masked(self, rng, kernel, hw):
        x = rng.normal(size=(2, 3) + hw)
        w = rng.normal(size=(4, 3, kernel, kernel))
        b = rng.normal(size=4)
        data, backward = _masked_conv2d_ref(x, w, b, kernel)
        g = rng.normal(size=data.shape)
        out, gx, gw, gb = _output_and_grads(T.masked_conv2d, x, w, b, g, kernel)
        np.testing.assert_array_equal(out, data)
        ref_gx, ref_gw, ref_gb = backward(g)
        np.testing.assert_array_equal(gw, ref_gw)
        np.testing.assert_array_equal(gb, ref_gb)
        np.testing.assert_allclose(gx, ref_gx, rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_input_grad(self, rng, stride, pad, k):
        # at stride 2, 8 + 2*pad - k is odd: the last padded row lies in no
        # window and gets zero gradient; the 7 columns leave none out
        x = rng.normal(size=(2, 3, 8, 7))
        w = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=4)
        oh = (8 + 2 * pad - k) // stride + 1
        ow = (7 + 2 * pad - k) // stride + 1
        g = rng.normal(size=(2, 4, oh, ow))
        _, gx, _, _ = _output_and_grads(T.conv2d, x, w, b, g, stride, pad)
        ref = _conv_input_grad_ref(g, w, (2, 3, 8 + 2 * pad, 7 + 2 * pad), stride, pad)
        np.testing.assert_allclose(gx, ref, rtol=1e-12)


class TestConv2d:
    def test_identity_1x1(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        b = np.zeros(1)
        out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b))
        np.testing.assert_array_equal(out.data, x)

    def test_all_ones_kernel_matches_oracle(self):
        x = np.ones((1, 1, 5, 5))
        w = np.ones((1, 1, 3, 3))
        b = np.zeros(1)
        expected = naive_conv2d(x, w, b, pad=1)
        out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), pad=1)
        # oracle gives 9.0 in the interior, 4.0 at corners
        assert expected[0, 0, 2, 2] == 9.0
        assert expected[0, 0, 0, 0] == 4.0
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_matches_nested_loop_oracle(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=stride, pad=pad)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, b, stride, pad), atol=1e-10)

    def test_gradients_vs_finite_differences(self, rng, kink_guard):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(2, 3, 3, 3))
        b = rng.normal(size=2)

        def fn(xt, wt, bt):
            return T.reduce_sum(T.square(T.conv2d(xt, wt, bt, stride=2, pad=1)))

        check_grads(fn, [x, w, b], kink_guard)

    def test_shape_contract_errors(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        with pytest.raises(ContractViolation, match="channels"):
            T.conv2d(T.Tensor(x), T.Tensor(np.zeros((2, 4, 3, 3))), T.Tensor(np.zeros(2)))
        with pytest.raises(ContractViolation, match="odd"):
            T.conv2d(T.Tensor(x), T.Tensor(np.zeros((2, 3, 2, 2))), T.Tensor(np.zeros(2)))


class TestConvTransposed:
    def test_identity_1x1(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        w = np.zeros((2, 2, 1, 1))
        w[0, 0] = w[1, 1] = 1.0
        out = T.conv2d_transposed(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, x)

    def test_stride2_scatter_matches_oracle(self, rng):
        x = rng.normal(size=(1, 1, 2, 2))
        w = np.ones((1, 1, 2, 2))
        b = np.zeros(1)
        out = T.conv2d_transposed(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=2)
        expected = naive_conv2d_transposed(x, w, b, stride=2)
        assert out.data.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("stride,pad,k", [(1, 0, 3), (2, 0, 2), (2, 1, 4)])
    def test_matches_oracle(self, rng, stride, pad, k):
        x = rng.normal(size=(2, 2, 4, 4))
        w = rng.normal(size=(2, 3, k, k))
        b = rng.normal(size=3)
        out = T.conv2d_transposed(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=stride, pad=pad)
        np.testing.assert_allclose(
            out.data, naive_conv2d_transposed(x, w, b, stride, pad), atol=1e-10)

    def test_gradients(self, rng, kink_guard):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 2, 4, 4))
        b = rng.normal(size=2)

        def fn(xt, wt, bt):
            return T.reduce_sum(T.square(T.conv2d_transposed(xt, wt, bt, stride=2, pad=1)))

        check_grads(fn, [x, w, b], kink_guard)


class TestMaskedConv:
    def test_mask_shape(self):
        m5 = T.causal_mask(5)
        assert m5[2, 2] == 0.0 and m5[2, 1] == 1.0 and m5[2, 3] == 0.0
        assert m5[:2].all() and not m5[3:].any()
        with pytest.raises(ConfigError):
            T.causal_mask(4)

    def test_strict_causality_bias_only(self, rng):
        # only position (i,j) and raster-later positions are nonzero
        x = np.zeros((1, 2, 6, 6))
        i, j = 3, 2
        raster = np.arange(36).reshape(6, 6)
        x[:, :, raster >= raster[i, j]] = rng.normal(size=(1, 2, (raster >= raster[i, j]).sum()))
        w = rng.normal(size=(3, 2, 5, 5))
        b = rng.normal(size=3)
        out = T.masked_conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), kernel=5)
        np.testing.assert_array_equal(out.data[0, :, i, j], b)

    @pytest.mark.parametrize("kernel", [5, 7])
    def test_exhaustive_perturbation(self, rng, kernel):
        # perturbing input at raster position p leaves all outputs before p
        # bit-identical
        x = rng.normal(size=(1, 4, 6, 6))
        w = rng.normal(size=(2, 4, kernel, kernel))
        b = rng.normal(size=2)
        base = T.masked_conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), kernel=kernel).data
        for p in range(36):
            i, j = divmod(p, 6)
            xp = x.copy()
            xp[0, rng.integers(0, 4), i, j] += rng.normal()
            out = T.masked_conv2d(T.Tensor(xp), T.Tensor(w), T.Tensor(b), kernel=kernel).data
            flat_base = base.reshape(1, 2, -1)
            flat_out = out.reshape(1, 2, -1)
            assert np.array_equal(flat_base[:, :, :p], flat_out[:, :, :p])

    def test_masked_weights_get_zero_grad(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        w = T.Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        b = T.Tensor(rng.normal(size=2), requires_grad=True)
        loss = T.reduce_sum(T.square(T.masked_conv2d(T.Tensor(x), w, b, kernel=5)))
        loss.backward()
        mask = T.causal_mask(5)
        assert np.array_equal(w.grad * (1 - mask), np.zeros_like(w.grad))
        # unmasked taps do receive gradient
        assert np.abs(w.grad * mask).max() > 0

    def test_gradients(self, rng, kink_guard):
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(2, 2, 5, 5))
        b = rng.normal(size=2)

        def fn(xt, wt, bt):
            return T.reduce_sum(T.square(T.masked_conv2d(xt, wt, bt, kernel=5)))

        check_grads(fn, [x, w, b], kink_guard)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.Tensor(np.zeros(3))).data[0] == 0.5

    def test_softplus_positive(self, rng):
        x = rng.normal(scale=10, size=100)
        assert (T.softplus(T.Tensor(x)).data > 0).all()

    def test_leaky_relu_slope(self):
        out = T.leaky_relu(T.Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [-0.2, 2.0])

    @pytest.mark.parametrize("op", ["add", "mul", "sub", "div", "leaky_relu", "sigmoid",
                                    "exp", "softplus", "log", "square", "tanh",
                                    "normal_cdf", "mean", "clamp_min"])
    def test_gradients_each_op(self, rng, op, kink_guard):
        x = rng.normal(size=(2, 3, 4, 4))
        y = rng.normal(size=(2, 3, 4, 4))
        if op == "log":
            x = np.abs(x) + 0.5
        if op == "div":
            y = np.abs(y) + 0.5
        binary = {"add": T.add, "mul": T.mul, "sub": T.sub, "div": T.div}
        if op in binary:
            def fn(a, b2):
                return T.reduce_sum(T.square(binary[op](a, b2)))
            check_grads(fn, [x, y], kink_guard)
        else:
            # a positive bound: the square's gradient at a clamped element is
            # positive, so the one-sided rule blocks it, as the finite
            # difference does
            unary = (lambda a: T.clamp_min(a, 0.1)) if op == "clamp_min" else getattr(T, op)

            def fn(a):
                return T.reduce_sum(T.square(unary(a)))
            check_grads(fn, [x], kink_guard)

    def test_bias_broadcast_gradient(self, rng, kink_guard):
        x = rng.normal(size=(2, 3, 4, 4))
        bias = rng.normal(size=(1, 3, 1, 1))

        def fn(a, b2):
            return T.reduce_sum(T.square(T.add(a, b2)))

        check_grads(fn, [x, bias], kink_guard)

    def test_clamp_min_directional_gradient(self):
        t = T.Tensor(np.array([0.5, 2.0]), requires_grad=True)
        out = T.clamp_min(t, 1.0)
        np.testing.assert_allclose(out.data, [1.0, 2.0])
        loss = T.reduce_sum(out)
        loss.backward()
        # gradient of +1 at a clamped element pushes it further down: blocked
        np.testing.assert_allclose(t.grad, [0.0, 1.0])
        t2 = T.Tensor(np.array([0.5]), requires_grad=True)
        T.reduce_sum(T.mul(T.clamp_min(t2, 1.0), -1.0)).backward()
        np.testing.assert_allclose(t2.grad, [-1.0])  # upward pull passes


class TestSoftmaxGroups:
    def test_uniform_logits(self):
        x = np.zeros((1, 6, 2, 2))
        out = T.softmax_channel_groups(T.Tensor(x), 3)
        np.testing.assert_allclose(out.data, 1.0 / 3.0)

    def test_limit_case(self):
        x = np.zeros((1, 3, 1, 1))
        x[0, 2] = 50.0
        out = T.softmax_channel_groups(T.Tensor(x), 3).data[0, :, 0, 0]
        assert out[2] > 1 - 1e-9 and out[0] < 1e-9 and out[1] < 1e-9

    def test_groups_sum_to_one(self, rng):
        x = rng.normal(scale=4, size=(2, 12, 3, 3))
        out = T.softmax_channel_groups(T.Tensor(x), 3).data
        sums = out.reshape(2, 4, 3, 3, 3).sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert (out > 0).all()

    def test_indivisible_channels(self):
        with pytest.raises(ConfigError):
            T.softmax_channel_groups(T.Tensor(np.zeros((1, 5, 1, 1))), 3)

    def test_gradients(self, rng, kink_guard):
        x = rng.normal(size=(1, 6, 2, 2))

        def fn(a):
            sm = T.softmax_channel_groups(a, 3)
            return T.reduce_sum(T.mul(sm, T.Tensor(np.linspace(0, 1, sm.size).reshape(sm.shape))))

        check_grads(fn, [x], kink_guard)


class TestShapeOps:
    def test_concat_narrow_roundtrip(self, rng, kink_guard):
        a = rng.normal(size=(1, 2, 3, 3))
        b = rng.normal(size=(1, 4, 3, 3))

        def fn(at, bt):
            cat = T.concat([at, bt], axis=1)
            return T.reduce_sum(T.square(T.narrow(cat, 1, 1, 3)))

        check_grads(fn, [a, b], kink_guard)

    def test_transpose_reshape(self, rng, kink_guard):
        x = rng.normal(size=(2, 6, 2, 2))

        def fn(a):
            r = T.reshape(a, (2, 2, 3, 2, 2))
            tr = T.transpose(r, (0, 2, 1, 3, 4))
            return T.reduce_sum(T.square(tr))

        check_grads(fn, [x], kink_guard)

    def test_reduce_sum_axis(self, rng, kink_guard):
        x = rng.normal(size=(2, 3, 4))
        for keepdims in (True, False):
            def fn(a):
                return T.reduce_sum(T.square(T.reduce_sum(a, axis=1, keepdims=keepdims)))

            check_grads(fn, [x], kink_guard)


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        T.reduce_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares_gradient(self, rng):
        data = rng.normal(size=(3, 4))
        x = T.Tensor(data, requires_grad=True)
        T.reduce_sum(T.square(x)).backward()
        np.testing.assert_allclose(x.grad, 2 * data)

    def test_composite_conv_relu_sum(self, rng, kink_guard):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)

        def fn(xt, wt, bt):
            return T.reduce_sum(T.leaky_relu(T.conv2d(xt, wt, bt, pad=1)))

        check_grads(fn, [x, w, b], kink_guard)

    def test_non_scalar_loss_rejected(self, rng):
        x = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with pytest.raises(ContractViolation, match="scalar"):
            T.square(x).backward()

    def test_second_backward_rejected(self, rng):
        x = T.Tensor(rng.normal(size=3), requires_grad=True)
        loss = T.reduce_sum(T.square(x))
        loss.backward()
        with pytest.raises(ContractViolation):
            loss.backward()

    def test_leaf_reused_in_second_graph(self, rng):
        data = rng.normal(size=3)
        w = T.Tensor(data, requires_grad=True)
        T.reduce_sum(T.mul(w, w)).backward()
        np.testing.assert_array_equal(w.grad, 2 * data)
        w.grad = None
        T.reduce_sum(T.mul(w, 3.0)).backward()
        np.testing.assert_array_equal(w.grad, np.full(3, 3.0))

    def test_parentless_root_backward_twice(self):
        # a scalar leaf as its own loss records no ops: a second backward
        # repeats the first, and the leaf still joins a later graph
        w = T.Tensor(np.array(2.0), requires_grad=True)
        w.backward()
        w.backward()
        np.testing.assert_array_equal(w.grad, 1.0)
        w.grad = None
        T.reduce_sum(T.mul(w, 3.0)).backward()
        np.testing.assert_array_equal(w.grad, 3.0)


# op, input shapes, and which inputs must stay positive (denominators)
MIXED_OPS = {
    "add": (T.add, [(2, 3, 4, 4), (1, 3, 1, 1)], ()),
    "sub": (T.sub, [(2, 3, 4, 4), (1, 3, 1, 1)], ()),
    "mul": (T.mul, [(2, 3, 4, 4), (1, 3, 1, 1)], ()),
    "div": (T.div, [(2, 3, 4, 4), (1, 3, 1, 1)], (1,)),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(1, 2, 3, 3), (1, 4, 3, 3)], ()),
    "conv2d": (lambda x, w, b: T.conv2d(x, w, b, 2, 1),
               [(2, 3, 7, 7), (4, 3, 3, 3), (4,)], ()),
    "conv2d_transposed": (lambda x, w, b: T.conv2d_transposed(x, w, b, 2, 1),
                          [(2, 3, 4, 4), (3, 4, 4, 4), (4,)], ()),
    "masked_conv2d": (lambda x, w, b: T.masked_conv2d(x, w, b, 5),
                      [(2, 3, 6, 6), (4, 3, 5, 5), (4,)], ()),
}


class TestConstantInputs:
    """An input that needs no grad is not recorded, so backward computes no
    gradient for it and gives the other inputs the same gradients."""

    @pytest.mark.parametrize("op,const", [(op, i) for op, (_, shapes, _) in MIXED_OPS.items()
                                          for i in range(len(shapes))])
    def test_mixed_requires_grad(self, rng, op, const):
        fn, shapes, positive = MIXED_OPS[op]
        arrays = [rng.normal(size=s) for s in shapes]
        for i in positive:
            arrays[i] = np.abs(arrays[i]) + 0.5

        def grads(const_index):
            ts = [T.Tensor(a, requires_grad=i != const_index) for i, a in enumerate(arrays)]
            T.reduce_sum(T.square(fn(*ts))).backward()
            return [t.grad for t in ts]

        full, mixed = grads(None), grads(const)
        assert mixed[const] is None
        for i, (g_full, g_mixed) in enumerate(zip(full, mixed)):
            if i != const:
                np.testing.assert_array_equal(g_mixed, g_full)

    def test_no_input_gradient_for_constant_image(self, rng, monkeypatch):
        calls = []
        scatter = T._scatter

        def counting_scatter(*args):
            calls.append(args)
            return scatter(*args)

        monkeypatch.setattr(T, "_scatter", counting_scatter)
        w = T.Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = T.Tensor(np.zeros(4))
        for x_requires_grad, expected in ((False, 0), (True, 1)):
            calls.clear()
            x = T.Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=x_requires_grad)
            T.reduce_sum(T.square(T.conv2d(x, w, b, 1, 1))).backward()
            assert len(calls) == expected
            assert w.grad is not None
            w.grad = None


class TestNoGrad:
    def test_records_nothing_and_restores(self, rng):
        w = T.Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        b = T.Tensor(np.zeros(2), requires_grad=True)
        x = T.Tensor(rng.normal(size=(1, 1, 5, 5)))
        with T.no_grad():
            with T.no_grad():
                inner = T.conv2d(x, w, b, 1, 1)
            out = T.sigmoid(inner)
        assert not inner.requires_grad and inner._parents == () and inner._backward is None
        assert not out.requires_grad and out._parents == () and out._backward is None
        recorded = T.sigmoid(T.conv2d(x, w, b, 1, 1))
        assert recorded.requires_grad and recorded._parents
        np.testing.assert_array_equal(out.data, recorded.data)
        T.reduce_sum(recorded).backward()
        assert w.grad is not None

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError), T.no_grad():
            raise RuntimeError
        assert T.mul(T.Tensor(1.0, requires_grad=True), 2.0).requires_grad

    @pytest.mark.parametrize("holder", ["other-thread", "this-thread"])
    def test_scoped_to_its_thread(self, holder):
        # one thread sits inside no_grad while the other runs an op
        entered, release = threading.Event(), threading.Event()
        seen = []

        def hold():
            with T.no_grad():
                entered.set()
                release.wait(10)

        def probe():
            seen.append(T.mul(T.Tensor(np.ones(3), requires_grad=True), 2.0).requires_grad)

        if holder == "other-thread":
            worker = threading.Thread(target=hold)
            worker.start()
            assert entered.wait(10)
            probe()
            release.set()
        else:
            worker = threading.Thread(target=probe)
            with T.no_grad():
                worker.start()
                worker.join(10)
        worker.join(10)
        assert seen == [True]


class TestKinkGuard:
    """The finite-difference oracle refuses probes that straddle a kink."""

    @pytest.mark.parametrize("op,kink", [("leaky_relu", 0.0), ("clamp_min", 1.0)])
    def test_crossing_probe_fails(self, kink_guard, op, kink):
        x = np.array([kink + 1e-7, kink + 0.5])

        def fn(a):
            t = T.Tensor(a)
            out = T.leaky_relu(t) if op == "leaky_relu" else T.clamp_min(t, kink)
            return T.reduce_sum(out).item()

        with pytest.raises(pytest.fail.Exception,
                           match=rf"probe -h on array 0 element \(0,\) .* {op} call 0 "):
            finite_difference(fn, [x.copy()], kink_guard, h=1e-5)
        fd = finite_difference(fn, [x.copy()], kink_guard, h=1e-8)
        np.testing.assert_allclose(fd[0], [1.0, 1.0], rtol=1e-6)


class TestGradientSuiteRandomized:
    """Spec-level property: >=10 seeds, rel. gradient error < 1e-4 per op."""

    @pytest.mark.parametrize("seed", range(10))
    def test_conv_pipeline_many_seeds(self, seed, kink_guard):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=2)

        def fn(xt, wt, bt):
            h = T.conv2d(xt, wt, bt, stride=1, pad=1)
            h = T.leaky_relu(h)
            h = T.sigmoid(h)
            return T.reduce_sum(T.square(h))

        check_grads(fn, [x, w, b], kink_guard)
