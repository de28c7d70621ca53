import json
import re
import struct
from dataclasses import asdict

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sp_signal

from emgleam.classifier import (
    INFER_BATCH,
    CnnSpec,
    _Conv,
    _MaxPool2,
    TrainConfig,
    evaluate,
    grad_check,
    init_model,
    load_model,
    log_softmax,
    save_model,
    train,
)
from emgleam.errors import DivergenceError, ValidationError

SMALL = CnnSpec((20, 16), 4, conv_channels=(2, 3), fc_sizes=(8, 6))


def channel_major(a):
    """(N, C, H, W) -> (C, H, W, N), the layers' layout."""
    return a.transpose(1, 2, 3, 0)


def batch_major(a):
    """(C, H, W, N) -> (N, C, H, W)."""
    return a.transpose(3, 0, 1, 2)


# Reference layers in the batch-major (N, C, H, W) layout, with the patch
# matrix, col2im order and pooling of the layers the classifier had before
# batch-innermost maps: the rewritten layers must give the same bits.

def yxn_columns(m, n, oh, ow):
    """An (R, N*OH*OW) matrix with its columns reordered (n, y, x) -> (y, x, n)."""
    return np.ascontiguousarray(m.reshape(-1, n, oh, ow).transpose(0, 2, 3, 1)).reshape(len(m), -1)


def ref_conv_forward(x, w, b, yxn=False):
    """(out, cols), cols in (n, y, x) order.  With ``yxn`` the product runs
    over the columns in the layers' (y, x, n) order: BLAS can round a
    GEMM's columns past the last multiple of its kernel width on another
    path, so an element's last bits depend on its column, and only the
    layers' order gives their bits at every batch size."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    oh, ow = h - k + 1, wd - k + 1
    cols = sliding_window_view(x, (k, k), axis=(2, 3)).transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, -1)
    if yxn:
        out = (w.reshape(f, -1) @ yxn_columns(cols, n, oh, ow)).reshape(f, oh, ow, n).transpose(0, 3, 1, 2)
    else:
        out = (w.reshape(f, -1) @ cols).reshape(f, n, oh, ow)
    out += b[:, None, None, None]
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3)), cols


def ref_conv_apply(x, w, b):
    """(out, cols) of a (C, H, W, N) map as one product over the whole
    (y, x, n)-ordered patch matrix, plus the bias: the bits the layer's
    row-block products must give."""
    c, h, wd, n = x.shape
    f, _, k, _ = w.shape
    cols = sliding_window_view(x, (k, k), axis=(1, 2)).transpose(0, 4, 5, 1, 2, 3).reshape(c * k * k, -1)
    out = w.reshape(f, -1) @ cols
    out += b[:, None]
    return out.reshape(f, h - k + 1, wd - k + 1, n), cols


def ref_conv_backward(g, w, cols, x_shape):
    """(gw, gb, dx), dx scattered with one k*k loop over an (N, C, H, W) buffer.

    The weight and bias gradients reduce over the columns in (y, x, n)
    order, the order of the layers' patch matrix."""
    n, f, oh, ow = g.shape
    k = w.shape[-1]
    gm = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(f, -1)
    dcols = (w.reshape(f, -1).T @ gm).reshape(-1, k, k, n, oh, ow)
    dx = np.zeros(x_shape, dtype=g.dtype)
    dx_c = dx.transpose(1, 0, 2, 3)
    for u in range(k):
        for v in range(k):
            dx_c[:, :, u : u + oh, v : v + ow] += dcols[:, u, v]
    gm_yxn = yxn_columns(gm, n, oh, ow)
    return (gm_yxn @ yxn_columns(cols, n, oh, ow).T).reshape(w.shape), gm_yxn.sum(axis=1), dx


def ref_quadrants(a, h2, w2):
    return [a[:, :, i : 2 * h2 : 2, j : 2 * w2 : 2] for i in (0, 1) for j in (0, 1)]


def ref_pool_forward(x):
    """(max, argmax) over the four stacked quadrant views."""
    quads = np.stack(ref_quadrants(x, x.shape[2] // 2, x.shape[3] // 2))
    return quads.max(axis=0), quads.argmax(axis=0)


def ref_pool_backward(g, arg, x_shape):
    gx = np.zeros(x_shape, dtype=g.dtype)
    for idx, quad in enumerate(ref_quadrants(gx, *g.shape[2:])):
        np.copyto(quad, g, where=arg == idx)
    return gx


def ref_loss_and_grads(model, x, y):
    """Loss, flat gradients and logits through the reference layers, with
    the first conv's input gradient computed too, and ReLU before pooling
    where the model pools before ReLU."""
    conv1, _, _, conv2, _, _, _, *dense = model.layers
    dense = dense[::2]
    n = len(x)
    a0 = np.asarray(x, dtype=model.dtype)[:, None]
    z1, cols1 = ref_conv_forward(a0, conv1.w, conv1.b, yxn=True)
    r1 = z1 * (z1 > 0)
    p1, arg1 = ref_pool_forward(r1)
    z2, cols2 = ref_conv_forward(p1, conv2.w, conv2.b, yxn=True)
    r2 = z2 * (z2 > 0)
    p2, arg2 = ref_pool_forward(r2)
    acts = [p2.reshape(n, -1)]
    for i, lay in enumerate(dense):
        z = acts[-1] @ lay.w + lay.b
        acts.append(z if i == len(dense) - 1 else z * (z > 0))
    logits = acts[-1]
    logp = log_softmax(logits)
    loss = float(-logp[np.arange(n), y].mean())
    g = np.exp(logp)
    g[np.arange(n), y] -= 1.0
    g = (g / n).astype(model.dtype)
    dense_grads = []
    for i in reversed(range(len(dense))):
        if i < len(dense) - 1:
            g = g * (acts[i + 1] > 0)
        dense_grads = [acts[i].T @ g, g.sum(axis=0)] + dense_grads
        g = g @ dense[i].w.T
    g = ref_pool_backward(g.reshape(p2.shape), arg2, r2.shape) * (z2 > 0)
    gw2, gb2, dx2 = ref_conv_backward(g, conv2.w, cols2, p1.shape)
    g = ref_pool_backward(dx2, arg1, r1.shape) * (z1 > 0)
    gw1, gb1, _ = ref_conv_backward(g, conv1.w, cols1, a0.shape)
    grads = np.concatenate([a.ravel() for a in [gw1, gb1, gw2, gb2, *dense_grads]])
    return loss, grads, logits


def ref_train(model, train_set, val_set, config):
    """``train``'s flat parameters, from its loop with Adam written as
    allocating expressions."""
    (x, y), (xv, yv) = train_set, val_set
    rng = np.random.default_rng(config.seed)
    params = model.flat_params().astype(np.float64)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    t = 0
    best_key, best = (-1.0, -np.inf), params.copy()
    for _ in range(config.epochs):
        order = rng.permutation(len(x))
        for i in range(0, len(order), config.batch_size):
            batch = order[i : i + config.batch_size]
            _, grads, _ = model.loss_and_grads(x[batch], y[batch])
            t += 1
            g = grads.astype(np.float64)
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            model.set_flat_params(params)
        val_loss, val_acc = evaluate(model, xv, yv)
        if (val_acc, -val_loss) > best_key:
            best_key, best = (val_acc, -val_loss), params.copy()
    return best.astype(model.dtype)


def blobs(n=150, seed=0):
    """Two linearly separable patch classes with mild noise."""
    rng = np.random.default_rng(seed)
    x = np.zeros((2 * n, 20, 16), dtype=np.float32)
    x[:n, 3:9, 3:9] = 1.0
    x[n:, 11:17, 7:13] = 1.0
    x += rng.normal(0, 0.08, x.shape).astype(np.float32)
    x = np.clip(x, 0.0, 1.0)
    y = np.array([0] * n + [1] * n)
    order = rng.permutation(2 * n)
    return x[order], y[order]


class TestInit:
    def test_same_seed_same_params(self):
        a = init_model(SMALL, seed=5).flat_params()
        b = init_model(SMALL, seed=5).flat_params()
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = init_model(SMALL, seed=5).flat_params()
        b = init_model(SMALL, seed=6).flat_params()
        assert not np.array_equal(a, b)

    def test_biases_zero_and_weights_bounded(self):
        model = init_model(CnnSpec((31, 21), 10), seed=0)
        for lay in model.layers:
            if hasattr(lay, "w"):
                assert not lay.b.any()
                limit = np.sqrt(6.0 / lay.fan_in)
                assert np.max(np.abs(lay.w)) <= limit

    def test_standard_input_yields_10_logits(self):
        model = init_model(CnnSpec((31, 21), 10), seed=1)
        logits = model.forward(np.random.default_rng(0).random((7, 31, 21)))
        assert logits.shape == (7, 10)

    def test_zero_sized_layer_rejected(self):
        with pytest.raises(ValidationError):
            CnnSpec((31, 21), 10, conv_channels=(0, 16))
        with pytest.raises(ValidationError, match=r"too small for two 3x3 conv\+pool stages"):
            CnnSpec((6, 6), 10)

    @pytest.mark.parametrize("hw, kernel", [
        ((31, 21), 5), ((31, 20), 5), ((45, 21), 5), ((32, 32), 5),  # phone digits, testbed letters
        ((20, 16), 5), ((24, 18), 5), ((22, 22), 5),  # the gradient-check specs
        ((24, 13), 3), ((31, 16), 5), ((31, 15), 3),  # galaxy_a3 digits; the width 5x5 needs
    ])
    def test_input_picks_the_kernel(self, hw, kernel):
        assert CnnSpec(hw, 10).kernel == kernel
        pytest.raises(TypeError, CnnSpec, hw, 10, kernel=kernel)  # not a setting

    @pytest.mark.parametrize("conv, fc", [((2,), (8, 6)), ((2, 3, 4), (8, 6)), ((2, 3), (8,)), ((2, 3), ())])
    def test_layer_lists_need_two_entries(self, conv, fc):
        with pytest.raises(ValidationError, match="two conv channel counts and two dense sizes"):
            CnnSpec((20, 16), 4, conv_channels=conv, fc_sizes=fc)


class TestParameterVector:
    def test_layer_arrays_tile_the_two_vectors_in_flat_params_order(self):
        model = init_model(SMALL, seed=0)
        model.loss_and_grads(*blobs(4))
        pos = 0
        for lay in model.layers:
            for name in ("w", "b") if hasattr(lay, "w") else ():
                for arr, vec in ((getattr(lay, name), model.params), (getattr(lay, "g" + name), model.grads)):
                    assert np.shares_memory(arr, vec) and arr.flags.c_contiguous
                    start = arr.__array_interface__["data"][0] - vec.__array_interface__["data"][0]
                    assert start == pos * vec.itemsize
                pos += getattr(lay, name).size
        assert pos == model.n_params == model.params.size == model.grads.size

    def test_set_flat_params_reaches_the_layers(self):
        model = init_model(SMALL, seed=0)
        v = np.arange(model.n_params) / model.n_params
        model.set_flat_params(v)
        conv, dense = model.layers[0], model.layers[-1]
        assert np.array_equal(conv.w.ravel(), v[: conv.w.size].astype(np.float32))
        assert np.array_equal(dense.b, v[-dense.b.size :].astype(np.float32))
        model.flat_params()[:] = 0.0  # a copy, not the model's storage
        assert np.array_equal(model.params, v.astype(np.float32))

    @pytest.mark.parametrize("bad, message", [
        (lambda v: v[:-1], r"expected \d+ parameters, got \d+"),
        (lambda v: np.where(np.arange(v.size) == 7, np.nan, v), "non-finite parameters"),
    ], ids=["short", "nan"])
    def test_set_flat_params_refuses_a_bad_vector(self, bad, message):
        model = init_model(SMALL, seed=0)
        before = model.flat_params()
        with pytest.raises(ValidationError, match=message):
            model.set_flat_params(bad(before.astype(np.float64)))
        assert np.array_equal(model.params, before)

    def test_returned_gradient_outlives_the_next_call(self):
        model = init_model(SMALL, seed=0)
        x, y = blobs(8, seed=1)
        _, first, _ = model.loss_and_grads(x[:8], y[:8])
        kept = first.copy()
        _, second, _ = model.loss_and_grads(x[8:], y[8:])
        assert np.array_equal(first, kept) and not np.array_equal(first, second)
        assert np.array_equal(second, model.grads)


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        model = init_model(SMALL, seed=0)
        model.set_flat_params(np.zeros(model.n_params))
        probs = model.softmax(np.zeros((3, 20, 16)))
        assert np.allclose(probs, 0.25, atol=1e-7)

    def test_softmax_rows_sum_to_one(self):
        model = init_model(SMALL, seed=2)
        probs = model.softmax(np.random.default_rng(1).random((33, 20, 16)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_batch_independence(self):
        model = init_model(SMALL, seed=3, dtype=np.float64)
        rng = np.random.default_rng(2)
        batch = rng.random((256, 20, 16))
        full = model.forward(batch)
        single = model.forward(batch[17])
        assert np.max(np.abs(full[17] - single[0])) < 1e-6

    def test_inference_runs_in_chunks_of_infer_batch(self):
        # softmax and predict_batch equal per-INFER_BATCH forward passes, bit for bit
        model = init_model(CnnSpec((31, 21), 10), seed=4)
        x = np.random.default_rng(5).random((1100, 31, 21), dtype=np.float32)
        probs = np.exp(log_softmax(np.concatenate([model.forward(x[i : i + INFER_BATCH])
                                                   for i in range(0, 1100, INFER_BATCH)])))
        assert np.array_equal(model.softmax(x), probs)
        labels, again = model.predict_batch(x)
        assert np.array_equal(again, probs)
        assert np.array_equal(labels, probs.argmax(axis=1))

    @pytest.mark.parametrize("spec", [
        CnnSpec((32, 32), 12, conv_channels=(12, 32), fc_sizes=(240, 120)),  # the testbed's letter spec
        CnnSpec((24, 13), 10),  # a galaxy_a3 digit: 3x3 kernels
    ], ids=["letter", "kernel3"])
    def test_inference_equals_the_training_forward(self, spec):
        # the record-free inference path gives forward's bits, chunk for chunk,
        # across a chunk boundary
        model = init_model(spec, seed=6)
        n = INFER_BATCH + 37
        x = np.random.default_rng(7).random((n, *spec.input_hw), dtype=np.float32)
        y = np.arange(n) % spec.n_classes
        want = np.concatenate([model.forward(x[i : i + INFER_BATCH]) for i in range(0, n, INFER_BATCH)])
        assert np.array_equal(model.logits(x), want)
        assert np.array_equal(model.softmax(x), np.exp(log_softmax(want)))
        loss = float(-log_softmax(want)[np.arange(n), y].sum()) / n
        assert evaluate(model, x, y) == (loss, int((want.argmax(axis=1) == y).sum()) / n)

    @pytest.mark.parametrize("spec", [CnnSpec((31, 21), 10), CnnSpec((32, 32), 12, conv_channels=(12, 32),
                                                                     fc_sizes=(240, 120))],
                             ids=["digit", "letter"])
    def test_code_batch_reads_as_inside_a_full_chunk(self, spec):
        # six crops (a read_code batch) alone and at either end of a full
        # chunk: the GEMMs' edge columns move the logits' last bits, never
        # the argmax
        model = init_model(spec, seed=8)
        x = np.random.default_rng(9).random((INFER_BATCH, *spec.input_hw), dtype=np.float32)
        chunk = model.logits(x)
        for inside, crops in ((chunk[:6], x[:6]), (chunk[-6:], x[-6:])):
            alone = model.logits(crops)
            assert np.array_equal(alone.argmax(axis=1), inside.argmax(axis=1))
            np.testing.assert_allclose(alone, inside, rtol=0, atol=1e-5)

    def test_single_image_softmax(self):
        model = init_model(SMALL, seed=2)
        x = np.random.default_rng(1).random((20, 16))
        assert model.softmax(x).shape == (1, 4)
        assert np.array_equal(model.softmax(x), model.softmax(x[None]))

    @pytest.mark.parametrize("call", [
        lambda m, x: m.forward(x),
        lambda m, x: m.softmax(x),
        lambda m, x: m.predict_batch(x),
        lambda m, x: evaluate(m, x, np.zeros(0, dtype=int)),
        lambda m, x: m.loss_and_grads(x, np.zeros(0, dtype=int)),
    ])
    def test_empty_batch_rejected(self, call):
        model = init_model(SMALL, seed=0)
        with pytest.raises(ValidationError, match="empty batch"):
            call(model, np.zeros((0, 20, 16), dtype=np.float32))

    def test_shape_mismatch_rejected(self):
        model = init_model(SMALL, seed=0)
        with pytest.raises(ValidationError, match="does not match input"):
            model.forward(np.zeros((2, 21, 16)))


class TestGradients:
    @pytest.mark.parametrize("spec,seed", [
        (SMALL, 0),
        (CnnSpec((24, 18), 5, conv_channels=(3, 4), fc_sizes=(10, 8)), 7),
        (CnnSpec((22, 22), 3, conv_channels=(2, 2), fc_sizes=(6, 5)), 3),
    ])
    def test_matches_central_differences(self, spec, seed):
        report = grad_check(spec, tolerance=1e-4, seed=seed)
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"
        assert report.n_checked >= 200

    def test_large_spec_rejected(self):
        with pytest.raises(ValidationError, match="small specs"):
            grad_check(CnnSpec((31, 21), 10))

    def test_gradient_linearity_over_samples(self):
        # mean loss over a batch = mean of per-sample losses, so the batch
        # gradient is the average of the per-sample gradients
        model = init_model(SMALL, seed=4, dtype=np.float64)
        rng = np.random.default_rng(3)
        x = rng.random((2, 20, 16))
        y = np.array([1, 3])
        _, g_pair, _ = model.loss_and_grads(x, y)
        _, g0, _ = model.loss_and_grads(x[:1], y[:1])
        _, g1, _ = model.loss_and_grads(x[1:], y[1:])
        assert np.max(np.abs(g_pair - 0.5 * (g0 + g1))) < 1e-9

    def test_duplicated_sample_keeps_mean_gradient(self):
        model = init_model(SMALL, seed=4, dtype=np.float64)
        rng = np.random.default_rng(4)
        x = rng.random((1, 20, 16))
        y = np.array([2])
        _, g_one, _ = model.loss_and_grads(x, y)
        _, g_dup, _ = model.loss_and_grads(np.concatenate([x, x]), np.array([2, 2]))
        assert np.max(np.abs(g_dup - g_one)) < 1e-9


class TestLayers:
    def test_pool_sends_gradient_to_first_maximum(self):
        # 2x2 blocks: all zeros (as ReLU leaves them, with signed zeros),
        # two equal maxima at (0, 1) and (1, 0), and one maximum at (1, 1)
        x = np.array([[0.0, -0.0, 1.0, 3.0],
                      [-0.0, 0.0, 3.0, 2.0],
                      [0.5, 0.2, 4.0, 7.0],
                      [0.1, 0.9, 7.0, 7.0]])[None, :, :, None]
        pool = _MaxPool2()
        assert np.array_equal(pool.forward(x)[0, :, :, 0], [[0.0, 3.0], [0.9, 7.0]])
        g = -np.array([[1.0, 2.0], [3.0, 4.0]])[None, :, :, None]
        gx = pool.backward(g)[0, :, :, 0]
        expected = -np.array([[1.0, 0.0, 0.0, 2.0],
                              [0.0, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0, 4.0],
                              [0.0, 3.0, 0.0, 0.0]])
        assert np.array_equal(gx, expected)
        # unrouted positions hold +0.0, not the -0.0 of g * mask
        assert not np.signbit(gx[gx == 0]).any()

    def test_pool_drops_odd_last_row_and_column(self):
        # the digit spec's first pool: 27x17 -> 13x8
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 27, 17, 2))
        pool = _MaxPool2()
        out = pool.forward(x)
        blocks = x[:, :26, :16].reshape(3, 13, 2, 8, 2, 2)
        assert np.array_equal(out, blocks.max(axis=(2, 4)))
        g = rng.uniform(0.5, 1.5, out.shape)
        gx = pool.backward(g)
        assert gx.shape == x.shape
        assert np.array_equal(gx[:, 26], np.zeros((3, 17, 2)))
        assert np.array_equal(gx[:, :, 16], np.zeros((3, 27, 2)))
        # every output gradient lands on exactly one input, at its maximum
        assert np.count_nonzero(gx) == g.size
        assert np.array_equal(np.sort(gx[gx != 0]), np.sort(g.ravel()))
        assert np.array_equal(np.sort(x[gx != 0]), np.sort(out.ravel()))

    @pytest.mark.parametrize("k", [3, 5])
    def test_conv_matches_per_channel_correlation(self, k):
        rng = np.random.default_rng(k)
        n, c, f, h, w = 3, 4, 5, 11, 9
        conv = _Conv(c, f, k, np.float64)
        conv.w[...] = rng.standard_normal(conv.w.shape)
        conv.b[...] = rng.standard_normal(f)
        x = rng.standard_normal((n, c, h, w))
        g = rng.standard_normal((n, f, h - k + 1, w - k + 1))

        out = batch_major(conv.forward(channel_major(x)))
        dx = batch_major(conv.backward(channel_major(g)))
        ref_out = np.stack([
            [sum(sp_signal.correlate(x[i, ci], conv.w[fi, ci], mode="valid") for ci in range(c)) + conv.b[fi]
             for fi in range(f)]
            for i in range(n)
        ])
        ref_gw = np.stack([
            [sum(sp_signal.correlate(x[i, ci], g[i, fi], mode="valid") for i in range(n)) for ci in range(c)]
            for fi in range(f)
        ])
        ref_dx = np.stack([
            [sum(sp_signal.convolve(g[i, fi], conv.w[fi, ci], mode="full") for fi in range(f)) for ci in range(c)]
            for i in range(n)
        ])
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(conv.gw, ref_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(conv.gb, g.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("c, f, hw", [(1, 6, (31, 21)), (6, 16, (13, 8)), (12, 32, (14, 14))])
    def test_conv_matches_batch_major_reference(self, c, f, hw):
        rng = np.random.default_rng(c)
        conv = _Conv(c, f, 5, np.float32)
        conv.w[...] = rng.uniform(-0.3, 0.3, conv.w.shape)
        conv.b[...] = rng.uniform(-0.1, 0.1, f)
        x = rng.standard_normal((37, c, *hw), dtype=np.float32)
        ref_out, cols = ref_conv_forward(x, conv.w, conv.b)
        g = rng.standard_normal(ref_out.shape, dtype=np.float32)
        ref_gw, ref_gb, ref_dx = ref_conv_backward(g, conv.w, cols, x.shape)

        out = conv.forward(np.ascontiguousarray(channel_major(x)))
        assert out.dtype == np.float32 and np.array_equal(batch_major(out), ref_out)
        dx = conv.backward(np.ascontiguousarray(channel_major(g)))
        assert np.array_equal(conv.gw, ref_gw) and np.array_equal(conv.gb, ref_gb)
        assert np.array_equal(batch_major(dx), ref_dx)
        conv.param_grads(np.ascontiguousarray(channel_major(g)))
        assert np.array_equal(conv.gw, ref_gw) and np.array_equal(conv.gb, ref_gb)

    @pytest.mark.parametrize("n", [1, 6, 22, 37, 64, 157, 160, 256])
    @pytest.mark.parametrize("c, f, k, hw", [
        (1, 6, 5, (31, 21)), (6, 16, 5, (13, 8)),
        (1, 12, 5, (32, 32)), (12, 32, 5, (14, 14)),
        (1, 6, 3, (24, 13)), (6, 16, 3, (11, 5)),
    ], ids=["digit1", "digit2", "letter1", "letter2", "kernel3-1", "kernel3-2"])
    def test_row_blocks_give_one_product_bits(self, c, f, k, hw, n):
        # the patch copy and product run in blocks of output rows, split
        # only at multiples of 16 columns: the bits of one product over the
        # whole patch matrix, at batch sizes whose OW*N is and is not a
        # multiple of 16 (row blocks of 3x3 conv2's 471 columns at batch
        # 157 would move bits)
        rng = np.random.default_rng(n)
        conv = _Conv(c, f, k, np.float32)
        conv.w[...] = rng.uniform(-0.3, 0.3, conv.w.shape)
        conv.b[...] = rng.uniform(-0.1, 0.1, f)
        x = rng.random((c, *hw, n), dtype=np.float32)
        out, cols = conv._apply(x)
        ref_out, ref_cols = ref_conv_apply(x, conv.w, conv.b)
        assert out.dtype == np.float32 and np.array_equal(out, ref_out)
        assert np.array_equal(cols, ref_cols)

    @pytest.mark.parametrize("shape", [(6, 9, 27, 17), (4, 5, 8, 6)])
    def test_pool_matches_stack_argmax_reference(self, shape):
        # ReLU-like maps drawn from a few levels, so most blocks hold ties,
        # with +0.0 and -0.0 mixed; gradients with signed zeros of their own
        rng = np.random.default_rng(shape[2])
        x = rng.integers(-1, 3, shape).astype(np.float32)
        x *= x > 0
        x[rng.random(shape) < 0.2] = -0.0
        g = rng.integers(-2, 3, (shape[0], shape[1], shape[2] // 2, shape[3] // 2)).astype(np.float32)
        g[rng.random(g.shape) < 0.3] = -0.0
        ref_out, arg = ref_pool_forward(x)
        ref_gx = channel_major(ref_pool_backward(g, arg, x.shape)).tobytes()
        pool = _MaxPool2()
        out = pool.forward(np.ascontiguousarray(channel_major(x)))
        assert out.tobytes() == channel_major(ref_out).tobytes()
        assert np.array_equal(pool._first, channel_major(arg))
        # a contiguous gradient, as conv2's backward returns it to the first pool
        gx = pool.backward(np.ascontiguousarray(channel_major(g)))
        assert gx.tobytes() == ref_gx
        # the same routing from the strided view the flatten's backward returns
        gx = pool.backward(channel_major(g))
        assert gx.tobytes() == ref_gx

    @pytest.mark.parametrize("spec", [
        CnnSpec((31, 21), 10),
        CnnSpec((32, 32), 26, conv_channels=(12, 32)),
        SMALL,
    ])
    def test_loss_and_grads_match_reference_backward(self, spec):
        """The model pools before its ReLU, the reference after: max and
        ReLU commute, so the logits and gradients are equal; only the sign
        of an exact zero may move, which ``array_equal`` does not see and
        which adds nothing to any nonzero sum."""
        model = init_model(spec, seed=3)
        rng = np.random.default_rng(4)
        x = rng.random((45, *spec.input_hw), dtype=np.float32)
        y = rng.integers(0, spec.n_classes, 45)
        loss, grads, logits = model.loss_and_grads(x, y)
        ref_loss, ref_grads, ref_logits = ref_loss_and_grads(model, x, y)
        assert grads.dtype == np.float32 and grads.size == model.n_params
        assert loss == ref_loss
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(grads, ref_grads)


class TestTrain:
    def test_separable_blobs_reach_full_accuracy(self):
        x, y = blobs()
        model = init_model(SMALL.__class__((20, 16), 2, conv_channels=(2, 3), fc_sizes=(8, 6)), seed=0)
        result = train(model, (x[:200], y[:200]), (x[200:], y[200:]),
                       TrainConfig(epochs=10, batch_size=64, seed=0))
        assert result.best_val_accuracy == 1.0

    def test_zero_learning_rate_is_identity(self):
        x, y = blobs(40)
        model = init_model(SMALL, seed=9)
        before = model.flat_params().copy()
        train(model, (x, y % 4), (x, y % 4), TrainConfig(epochs=3, learning_rate=0.0, seed=0))
        assert np.array_equal(before, model.flat_params())

    def test_best_checkpoint_matches_history_max(self):
        x, y = blobs(60, seed=5)
        model = init_model(SMALL, seed=1)
        result = train(model, (x[:80], y[:80] % 4), (x[80:], y[80:] % 4),
                       TrainConfig(epochs=6, batch_size=32, seed=1))
        assert result.best_val_accuracy == max(h["val_accuracy"] for h in result.history)
        assert result.model.meta["val_accuracy"] == result.best_val_accuracy

    def test_returned_model_holds_no_backward_records(self):
        x, y = blobs(40, seed=4)
        result = train(init_model(SMALL, seed=5), (x, y % 4), (x, y % 4),
                       TrainConfig(epochs=2, batch_size=16, seed=0))
        records = ("_cols", "_mask", "_first", "_x")  # conv, ReLU, pooling, dense
        assert not [(type(lay).__name__, r) for lay in result.model.layers for r in records
                    if hasattr(lay, r)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_adam_gives_the_allocating_bits(self, dtype):
        # a float64 model holds Adam's float64 parameters unrounded, so an
        # update that rounds one value differently shows in its bits
        x, y = blobs()
        spec = CnnSpec((20, 16), 2, conv_channels=(2, 3), fc_sizes=(8, 6))
        config = TrainConfig(epochs=3, batch_size=64, seed=0)
        sets = (x[:200], y[:200]), (x[200:], y[200:])
        model = init_model(spec, seed=0, dtype=dtype)
        train(model, *sets, config)
        want = ref_train(init_model(spec, seed=0, dtype=dtype), *sets, config)
        assert np.array_equal(model.flat_params(), want)

    @pytest.mark.parametrize("n_x, n_y, n_val_y, message", [
        (20, 50, 50, "training set: 20 images but 50 labels"),  # used to train silently
        (50, 20, 50, "training set: 50 images but 20 labels"),  # used to end in an IndexError
        (50, 50, 10, "validation set: 50 images but 10 labels"),  # a broadcast ValueError
    ], ids=["more-labels", "fewer-labels", "validation-labels"])
    def test_image_and_label_counts_must_match(self, n_x, n_y, n_val_y, message):
        x, y = blobs(25)
        model = init_model(SMALL, seed=0)
        with pytest.raises(ValidationError, match=message):
            train(model, (x[:n_x], y[:n_y] % 4), (x, y[:n_val_y] % 4), TrainConfig(epochs=1))

    def test_training_determinism(self):
        x, y = blobs(50, seed=6)

        def run():
            model = init_model(SMALL, seed=2)
            train(model, (x[:70], y[:70] % 4), (x[70:], y[70:] % 4),
                  TrainConfig(epochs=4, batch_size=32, seed=3))
            return model.flat_params()

        assert np.array_equal(run(), run())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        x, y = blobs(30, seed=7)
        model = init_model(SMALL, seed=3)
        with pytest.raises((DivergenceError, ValidationError)):
            train(model, (x, y % 4), (x, y % 4),
                  TrainConfig(epochs=10, learning_rate=1e12, seed=0))

    @pytest.mark.parametrize("bad", [4, -1])
    def test_out_of_range_label_rejected(self, bad):
        x, y = blobs(20)
        y = y.copy()
        y[7] = bad
        model = init_model(SMALL, seed=0)
        with pytest.raises(ValidationError, match=f"label {bad} outside the model's 4 classes"):
            train(model, (x, y), (x, y), TrainConfig(epochs=1))

    def test_empty_sets_rejected(self):
        model = init_model(SMALL, seed=0)
        with pytest.raises(ValidationError, match="empty"):
            train(model, (np.zeros((0, 20, 16)), np.zeros(0, dtype=int)),
                  (np.zeros((1, 20, 16)), np.zeros(1, dtype=int)), TrainConfig(epochs=1))

    def test_overfits_256_memorizable_samples(self):
        # 256 distinct coarse block patterns with random labels; batch 32
        # so 100 epochs supply enough optimizer steps to memorize
        rng = np.random.default_rng(8)
        blocks = rng.integers(0, 2, (256, 8, 7)).astype(np.float32)
        x = np.kron(blocks, np.ones((4, 3), dtype=np.float32))[:, :31, :21]
        y = rng.integers(0, 10, 256)
        model = init_model(CnnSpec((31, 21), 10), seed=4)
        result = train(model, (x, y), (x, y),
                       TrainConfig(epochs=50, batch_size=32, seed=5))
        assert max(h["train_accuracy"] for h in result.history) >= 0.99


class TestPredict:
    def test_tie_breaks_to_lowest_class(self):
        model = init_model(SMALL, seed=0)
        model.set_flat_params(np.zeros(model.n_params))
        labels, probs = model.predict_batch(np.zeros((3, 20, 16)))
        assert list(labels) == [0, 0, 0]
        assert probs.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-6)

    def test_constant_logit_shift_keeps_argmax(self):
        model = init_model(SMALL, seed=6)
        x = np.random.default_rng(9).random((20, 16))
        (label,), _ = model.predict_batch(x[None])
        logits = model.forward(x[None])
        assert int(np.argmax(logits + 3.7)) == label


class TestSerialization:
    def test_round_trip(self, tmp_path):
        x, y = blobs(30, seed=9)
        model = init_model(SMALL, seed=7)
        train(model, (x, y % 4), (x, y % 4), TrainConfig(epochs=2, batch_size=32, seed=0))
        path = tmp_path / "model.bin"
        save_model(model, path)
        again = load_model(path)
        assert np.array_equal(again.flat_params(), model.flat_params().astype(np.float32))
        assert again.spec == model.spec
        assert again.meta == model.meta
        assert path.read_bytes()[:4] == b"EMGL"

    def test_reload_preserves_predictions(self, tmp_path):
        model = init_model(SMALL, seed=8)
        path = tmp_path / "m.bin"
        save_model(model, path)
        again = load_model(path)
        x = np.random.default_rng(10).random((5, 20, 16)).astype(np.float32)
        assert np.allclose(model.forward(x), again.forward(x), atol=1e-6)

    def test_spec_with_three_conv_layers_rejected(self, tmp_path):
        block = json.dumps({"spec": {**asdict(SMALL), "conv_channels": [2, 3, 4]}, "meta": {}}).encode()
        path = tmp_path / "three.bin"
        path.write_bytes(b"EMGL" + struct.pack("<II", 1, len(block)) + block + struct.pack("<Q", 0))
        with pytest.raises(ValidationError, match="two conv channel counts"):
            load_model(path)

    @pytest.mark.parametrize("damage, message", [
        pytest.param(lambda data, spec_end: data[:6], "truncated header", id="magic-plus-2-bytes"),
        pytest.param(lambda data, spec_end: data[: spec_end + 5], "truncated header",
                     id="count-cut-short"),
        pytest.param(lambda data, spec_end: data[:12] + b"{" * (spec_end - 12) + data[spec_end:],
                     "malformed record", id="spec-block-not-json"),
        pytest.param(lambda data, spec_end: data[: spec_end + 12], "truncated parameter block",
                     id="params-cut-short"),
        pytest.param(lambda data, spec_end: data.replace(b'"kernel": 5', b'"kernel": 3'),
                     r"malformed record \(stored kernel 3 is not input \(20, 16\)'s 5\)",
                     id="stored-kernel-disagrees"),
    ])
    def test_damaged_file_names_the_file(self, tmp_path, damage, message):
        path = tmp_path / "m.bin"
        save_model(init_model(SMALL, seed=1), path)
        data = path.read_bytes()
        path.write_bytes(damage(data, 12 + struct.unpack_from("<I", data, 8)[0]))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {message}"):
            load_model(path)

    def test_spec_block_missing_a_key(self, tmp_path):
        spec = asdict(SMALL)
        del spec["n_classes"]
        block = json.dumps({"spec": spec, "meta": {}}).encode()
        path = tmp_path / "m.bin"
        path.write_bytes(b"EMGL" + struct.pack("<II", 1, len(block)) + block + struct.pack("<Q", 0))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: missing key 'n_classes'"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValidationError, match="not a model file"):
            load_model(path)

    def test_evaluate_rejects_unequal_counts(self):
        # one label for 50 crops used to broadcast to an accuracy of 50.0
        model = init_model(SMALL, seed=0)
        with pytest.raises(ValidationError, match="50 images but 1 labels"):
            evaluate(model, np.zeros((50, 20, 16), dtype=np.float32), np.zeros(1, dtype=int))

    def test_accuracy_helper(self):
        model = init_model(SMALL, seed=0)
        model.set_flat_params(np.zeros(model.n_params))
        x = np.zeros((10, 20, 16), dtype=np.float32)
        assert evaluate(model, x, np.zeros(10, dtype=int))[1] == 1.0  # all tie-break to 0
        assert evaluate(model, x, np.ones(10, dtype=int))[1] == 0.0
