import math

import numpy as np
import pytest

from subner import nn
from subner.errors import AllMasked, IdOutOfRange, ShapeMismatch


def test_embedding_lookup():
    table = np.arange(12, dtype=float).reshape(4, 3)
    out = nn.embedding_forward([2], table)
    assert np.array_equal(out, [[6.0, 7.0, 8.0]])


def test_embedding_repeated_id_grad_sums():
    grads = np.array([[1.0, 2.0], [10.0, 20.0]])
    dtable = nn.embedding_backward([0, 0], grads, vocab_size=3)
    assert np.array_equal(dtable[0], [11.0, 22.0])
    assert np.array_equal(dtable[1], [0.0, 0.0])


def test_embedding_row_grads_sum_repeats_in_sorted_rows():
    grads = np.array([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0], [0.5, 0.5]])
    rows, values = nn.embedding_row_grads([4, 1, 4, 4], grads)
    assert rows.tolist() == [1, 4]
    assert np.array_equal(values, [[10.0, 20.0], [101.5, 202.5]])
    rows, values = nn.embedding_row_grads([], np.zeros((0, 2)))
    assert rows.size == 0 and values.shape == (0, 2)


def test_embedding_backward_matches_dense_scatter_add():
    # the dense table before row gradients: add every position into zeros
    rng = np.random.default_rng(3)
    for length in (1, 5, 40):
        ids = rng.integers(0, 7, size=length)
        grad_out = rng.normal(size=(length, 3))
        reference = np.zeros((9, 3))
        np.add.at(reference, ids, grad_out)
        assert np.array_equal(nn.embedding_backward(ids, grad_out, 9), reference)


def test_embedding_out_of_range():
    table = np.zeros((2, 3))
    with pytest.raises(IdOutOfRange):
        nn.embedding_forward([2], table)


def test_embedding_grad_check():
    rng = np.random.default_rng(0)
    table = rng.normal(size=(5, 4))
    ids = [1, 3, 1]
    weights = rng.normal(size=(3, 4))

    def loss():
        return float((nn.embedding_forward(ids, table) * weights).sum())

    analytic = nn.embedding_backward(ids, weights, 5)
    assert nn.grad_check(loss, {"table": table}, {"table": analytic}) < 1e-6


def test_conv_zero_kernel():
    x = np.random.default_rng(1).normal(size=(5, 3))
    y, _ = nn.conv1d_forward(x, np.zeros((3, 3, 4)), np.zeros(4))
    assert np.array_equal(y, np.zeros((5, 4)))


def test_conv_identity_kernel():
    x = np.abs(np.random.default_rng(2).normal(size=(6, 3)))
    kernel = np.eye(3)[None, :, :]  # k=1 identity
    y, _ = nn.conv1d_forward(x, kernel, np.zeros(3))
    assert np.allclose(y, x)


def test_conv_same_padding_lengths():
    x = np.random.default_rng(3).normal(size=(9, 2))
    for k in (1, 3, 5, 7):
        kernel = np.random.default_rng(k).normal(size=(k, 2, 4))
        y, _ = nn.conv1d_forward(x, kernel, np.zeros(4))
        assert y.shape == (9, 4)


def test_conv_even_kernel_rejected():
    with pytest.raises(ShapeMismatch):
        nn.conv1d_forward(np.zeros((4, 2)), np.zeros((2, 2, 3)), np.zeros(3))


def test_conv_grad_check():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(7, 3))
    kernel = rng.normal(size=(3, 3, 2))
    bias = rng.normal(size=2)
    weights = rng.normal(size=(7, 2))

    def loss():
        y, _ = nn.conv1d_forward(x, kernel, bias)
        return float((y * weights).sum())

    _, cache = nn.conv1d_forward(x, kernel, bias)
    dx, dk, db = nn.conv1d_backward(cache, weights)
    err = nn.grad_check(loss, {"x": x, "k": kernel, "b": bias},
                        {"x": dx, "k": dk, "b": db})
    assert err < 1e-5


def test_lstm_zero_weights_zero_output():
    x = np.random.default_rng(5).normal(size=(4, 3))
    h, _ = nn.lstm_forward(x, np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
    assert np.array_equal(h, np.zeros((4, 2)))


def test_lstm_single_step_hand_computed():
    # one cell step recomputed from the gate equations directly
    rng = np.random.default_rng(6)
    d, h = 3, 2
    W = rng.normal(size=(d, 4 * h))
    U = rng.normal(size=(h, 4 * h))
    b = rng.normal(size=4 * h)
    x = rng.normal(size=(1, d))
    out, _ = nn.lstm_forward(x, W, U, b)

    a = x[0] @ W + b  # zero initial state
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f, g, o = sig(a[:h]), sig(a[h:2 * h]), np.tanh(a[2 * h:3 * h]), sig(a[3 * h:])
    c = i * g  # c_prev = 0
    expected = o * np.tanh(c)
    assert np.allclose(out[0], expected, atol=1e-12)


def test_lstm_grad_check():
    rng = np.random.default_rng(7)
    d, h, length = 3, 2, 4
    W, U, b = nn.init_lstm_params(rng, d, h)
    x = rng.normal(size=(length, d))
    weights = rng.normal(size=(length, h))

    def loss():
        hs, _ = nn.lstm_forward(x, W, U, b)
        return float((hs * weights).sum())

    _, cache = nn.lstm_forward(x, W, U, b)
    dx, dW, dU, db = nn.lstm_backward(cache, weights)
    err = nn.grad_check(loss, {"x": x, "W": W, "U": U, "b": b},
                        {"x": dx, "W": dW, "U": dU, "b": db})
    assert err < 1e-4


def lstm_step_by_step(x, W, U, b, dh_seq):
    """Reference LSTM: every product and every weight-gradient outer product
    taken one time step at a time. Returns (h_seq, dx, dW, dU, db)."""
    h = U.shape[0]
    steps, h_prev, c_prev = [], np.zeros(h), np.zeros(h)
    for x_t in x:
        a = x_t @ W + h_prev @ U + b
        i, f = nn.sigmoid(a[:h]), nn.sigmoid(a[h:2 * h])
        g, o = np.tanh(a[2 * h:3 * h]), nn.sigmoid(a[3 * h:])
        c = f * c_prev + i * g
        steps.append((x_t, h_prev, c_prev, i, f, g, o, np.tanh(c)))
        h_prev, c_prev = o * np.tanh(c), c
    dx = np.zeros_like(x)
    dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)
    dh_next, dc_next = np.zeros(h), np.zeros(h)
    for t in range(len(x) - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, g, o, hc = steps[t]
        dh = dh_seq[t] + dh_next
        dc = dh * o * (1.0 - hc * hc) + dc_next
        da = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g * g), dh * hc * o * (1.0 - o)])
        dW += np.outer(x_t, da)
        dU += np.outer(h_prev, da)
        db += da
        dx[t] = da @ W.T
        dh_next, dc_next = da @ U.T, dc * f
    h_seq = np.array([s[6] * s[7] for s in steps]).reshape(len(x), h)
    return h_seq, dx, dW, dU, db


@pytest.mark.parametrize("length", [0, 1, 9])
def test_lstm_matches_step_by_step_reference(length):
    # the hoisted GEMMs only reorder sums, so agreement is to rounding
    rng = np.random.default_rng(length)
    d, h = 6, 5
    W, U, b = nn.init_lstm_params(rng, d, h)
    x = rng.normal(size=(length, d))
    dh_seq = rng.normal(size=(length, h))
    h_seq, cache = nn.lstm_forward(x, W, U, b)
    got = (h_seq,) + nn.lstm_backward(cache, dh_seq)
    for actual, expected in zip(got, lstm_step_by_step(x, W, U, b, dh_seq)):
        assert actual.shape == expected.shape
        assert np.allclose(actual, expected, rtol=1e-12, atol=1e-14)


def test_bilstm_zero_weights():
    x = np.random.default_rng(8).normal(size=(3, 2))
    zeros = (np.zeros((2, 8)), np.zeros((2, 8)), np.zeros(8))
    out, _ = nn.bilstm_forward(x, zeros, zeros)
    assert np.array_equal(out, np.zeros((3, 4)))


def test_bilstm_palindrome_mirror():
    rng = np.random.default_rng(9)
    params = nn.init_lstm_params(rng, 2, 3)
    half = rng.normal(size=(2, 2))
    x = np.vstack([half, half[::-1]])  # palindromic along time
    out, _ = nn.bilstm_forward(x, params, params)
    length, h = x.shape[0], 3
    for t in range(length):
        assert np.allclose(out[t, h:], out[length - 1 - t, :h], atol=1e-12)


def test_bilstm_grad_check():
    rng = np.random.default_rng(10)
    d, h, length = 3, 2, 4
    pf = nn.init_lstm_params(rng, d, h)
    pb = nn.init_lstm_params(rng, d, h)
    x = rng.normal(size=(length, d))
    weights = rng.normal(size=(length, 2 * h))

    def loss():
        out, _ = nn.bilstm_forward(x, pf, pb)
        return float((out * weights).sum())

    _, cache = nn.bilstm_forward(x, pf, pb)
    dx, gf, gb = nn.bilstm_backward(cache, weights)
    arrays = {"x": x, "fW": pf[0], "fU": pf[1], "fb": pf[2],
              "bW": pb[0], "bU": pb[1], "bb": pb[2]}
    analytic = {"x": dx, "fW": gf[0], "fU": gf[1], "fb": gf[2],
                "bW": gb[0], "bU": gb[1], "bb": gb[2]}
    assert nn.grad_check(loss, arrays, analytic) < 1e-4


def test_dense_identity_and_bias():
    x = np.random.default_rng(11).normal(size=(4, 3))
    y, _ = nn.dense_forward(x, np.eye(3), np.zeros(3))
    assert np.allclose(y, x)
    b = np.array([1.0, 2.0])
    y2, _ = nn.dense_forward(np.zeros((2, 3)), np.zeros((3, 2)), b)
    assert np.allclose(y2, np.tile(b, (2, 1)))


def test_dense_grad_check():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 3))
    W = rng.normal(size=(3, 2))
    b = rng.normal(size=2)
    weights = rng.normal(size=(4, 2))

    def loss():
        y, _ = nn.dense_forward(x, W, b)
        return float((y * weights).sum())

    _, cache = nn.dense_forward(x, W, b)
    dx, dW, db = nn.dense_backward(cache, weights)
    err = nn.grad_check(loss, {"x": x, "W": W, "b": b},
                        {"x": dx, "W": dW, "b": db})
    assert err < 1e-6


def test_ce_uniform_logits():
    logits = np.zeros((3, 8))
    loss, grad = nn.masked_softmax_ce(logits, [1, 2, 3])
    assert abs(loss - math.log(8)) < 1e-12
    expected = np.full((3, 8), 1 / 8)
    expected[[0, 1, 2], [1, 2, 3]] -= 1.0
    assert np.allclose(grad, expected / 3, rtol=0, atol=1e-15)


def test_ce_confident_correct():
    logits = np.zeros((1, 4))
    logits[0, 2] = 50.0
    loss, _ = nn.masked_softmax_ce(logits, [2])
    assert loss < 1e-8


def test_ce_all_masked():
    # an empty batch has no position to average over
    with pytest.raises(AllMasked):
        nn.masked_softmax_ce(np.zeros((0, 3)), [])


def test_ce_stability_large_logits():
    logits = np.random.default_rng(14).uniform(-1e4, 1e4, size=(5, 6))
    loss, grad = nn.masked_softmax_ce(logits, [0, 1, 2, 3, 4])
    assert np.isfinite(loss)
    assert np.isfinite(grad).all()


def test_softmax_rows_sum_to_one():
    logits = np.random.default_rng(15).uniform(-1e4, 1e4, size=(20, 7))
    probs = nn.softmax(logits)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_rmsprop_hand_example():
    params = {"w": np.array([1.0])}
    state = nn.RmspropState(params, learning_rate=0.1, rho=0.9, epsilon=1e-8)
    nn.rmsprop_step(params, {"w": np.array([2.0])}, state)  # g of loss w^2 at w=1
    assert abs(state.s["w"][0] - 0.4) < 1e-12
    assert abs(params["w"][0] - 0.68377) < 1e-4


def test_rmsprop_zero_gradient():
    params = {"w": np.array([3.0])}
    state = nn.RmspropState(params)
    state.s["w"][:] = 0.5
    nn.rmsprop_step(params, {"w": np.array([0.0])}, state)
    assert params["w"][0] == 3.0
    assert abs(state.s["w"][0] - 0.45) < 1e-12  # decayed by rho


def test_rmsprop_row_grad_matches_dense_step():
    rng = np.random.default_rng(8)
    table = rng.normal(size=(6, 3))
    params = {"row": table.copy(), "dense": table.copy()}
    state = nn.RmspropState(params, learning_rate=0.01)
    for step in range(4):
        rows = np.sort(rng.choice(6, size=2 + step % 2, replace=False))
        values = rng.normal(size=(rows.size, 3))
        dense = np.zeros_like(table)
        dense[rows] = values
        untouched = np.setdiff1d(np.arange(6), rows)
        before = params["row"][untouched].copy()
        nn.rmsprop_step(params, {"row": nn.RowGrad(rows, values),
                                 "dense": dense}, state)
        assert np.array_equal(params["row"], params["dense"])
        assert np.array_equal(state.s["row"], state.s["dense"])
        assert np.array_equal(params["row"][untouched], before)


def test_rmsprop_row_grad_shape_mismatch():
    params = {"t": np.zeros((4, 3))}
    state = nn.RmspropState(params)
    with pytest.raises(ShapeMismatch):
        nn.rmsprop_step(params, {"t": nn.RowGrad(np.array([0, 2]),
                                                 np.zeros((2, 2)))}, state)


def test_rmsprop_quadratic_converges():
    lr = 0.01
    params = {"w": np.array([1.0])}
    state = nn.RmspropState(params, learning_rate=lr)
    # independent recurrence run alongside the implementation
    w_ref, s_ref = 1.0, 0.0
    for _ in range(200):
        g = 2.0 * params["w"][0]
        nn.rmsprop_step(params, {"w": np.array([g])}, state)
        g_ref = 2.0 * w_ref
        s_ref = 0.9 * s_ref + 0.1 * g_ref * g_ref
        w_ref -= lr * g_ref / (math.sqrt(s_ref) + 1e-8)
        assert abs(params["w"][0] - w_ref) < 1e-12
    assert abs(params["w"][0]) < 1e-2


def test_rmsprop_monotone_decrease_on_quadratic():
    params = {"w": np.array([2.0])}
    state = nn.RmspropState(params)
    prev = params["w"][0] ** 2
    for _ in range(50):
        g = 2.0 * params["w"][0]
        nn.rmsprop_step(params, {"w": np.array([g])}, state)
        cur = params["w"][0] ** 2
        assert cur < prev
        prev = cur


def test_forward_determinism():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(6, 3))
    kernel = rng.normal(size=(3, 3, 4))
    bias = rng.normal(size=4)
    y1, _ = nn.conv1d_forward(x, kernel, bias)
    y2, _ = nn.conv1d_forward(x.copy(), kernel.copy(), bias.copy())
    assert np.array_equal(y1, y2)


def packed_layer(layer, rng, lengths):
    """(weights, run, grads) of a layer on 3-wide packed inputs: `run(x)`
    forwards x through it, `grads(cache, dy)` names the input and weight
    gradients, the input's as "x"."""
    if layer == "conv":
        weights = {"k": rng.normal(size=(3, 3, 2)), "b": rng.normal(size=2)}
        run = lambda x: nn.conv1d_forward(x, weights["k"], weights["b"],
                                          lengths)
        grads = lambda cache, dy: dict(zip(("x", "k", "b"),
                                           nn.conv1d_backward(cache, dy)))
    elif layer == "lstm":
        weights = dict(zip(("W", "U", "b"), nn.init_lstm_params(rng, 3, 2)))
        run = lambda x: nn.lstm_forward(x, *weights.values(), lengths=lengths)
        grads = lambda cache, dy: dict(zip(("x", "W", "U", "b"),
                                           nn.lstm_backward(cache, dy)))
    else:
        fw, bw = nn.init_lstm_params(rng, 3, 2), nn.init_lstm_params(rng, 3, 2)
        weights = {"fW": fw[0], "fU": fw[1], "fb": fw[2],
                   "bW": bw[0], "bU": bw[1], "bb": bw[2]}
        run = lambda x: nn.bilstm_forward(x, fw, bw, lengths)

        def grads(cache, dy):
            dx, gf, gb = nn.bilstm_backward(cache, dy)
            return dict(zip(weights, gf + gb), x=dx)
    return weights, run, grads


@pytest.mark.parametrize("layer", ["conv", "lstm", "bilstm"])
def test_packed_batch_grad_check(layer):
    # three rows of mixed lengths in one packed batch, float64
    rng = np.random.default_rng(18)
    weights, run, grads = packed_layer(layer, rng, [3, 1, 4])
    x = rng.normal(size=(8, 3))
    dy = rng.normal(size=run(x)[0].shape)

    def loss():
        return float((run(x)[0] * dy).sum())

    arrays = dict(weights, x=x)
    assert nn.grad_check(loss, arrays, grads(run(x)[1], dy)) < 1e-4


@pytest.mark.parametrize("layer", ["conv", "lstm", "bilstm"])
def test_packed_rows_do_not_see_each_other(layer):
    # changing one row's inputs changes that row's outputs only
    rng = np.random.default_rng(19)
    _, run, _ = packed_layer(layer, rng, [2, 0, 3, 1])
    x = rng.normal(size=(6, 3))
    changed = x.copy()
    changed[2:5] += 1.0  # the third row
    y, y_changed = run(x)[0], run(changed)[0]
    assert np.array_equal(y[:2], y_changed[:2])
    assert np.array_equal(y[5:], y_changed[5:])
    assert not np.allclose(y[2:5], y_changed[2:5])


def test_packed_lengths_must_cover_the_batch():
    x = np.zeros((5, 2))
    with pytest.raises(ShapeMismatch):
        nn.conv1d_forward(x, np.zeros((3, 2, 4)), np.zeros(4), [2, 2])
    with pytest.raises(ShapeMismatch):
        nn.lstm_forward(x, *nn.init_lstm_params(np.random.default_rng(0), 2, 3),
                        lengths=[6, -1])
