"""Minimal differentiable numeric core: embedding, 1D convolution, LSTM,
BiLSTM, dense, masked softmax cross-entropy, and RMSProp.

All layers work on a single unpadded (len, dim) sequence in float64; every
backward pass is verifiable against central finite differences (see
grad_check). The LSTM computes its input projection and its input and
weight gradients as one matrix product over all steps; only the products
with the recurrent weights run once per step.

The embedding gradient is row-sparse: `embedding_row_grads` returns only the
rows a sequence touches (`RowGrad`), and `rmsprop_step` updates only those
rows of the table, so a training step costs the same with a 100k-entry
vocabulary as with a 1k one (apart from the decay of the mean-square
accumulator, one multiply over the table). `embedding_backward` scatters
the same rows into the dense table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AllMasked, IdOutOfRange, ShapeMismatch


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(logits):
    """Row-wise softmax with max-subtraction for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Embedding


def embedding_forward(ids, table):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IdOutOfRange(
            f"ids outside [0, {table.shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    return table[ids]


class RowGrad(NamedTuple):
    """Gradient of a table that is zero outside `rows`: `values[j]` is the
    gradient of row `rows[j]`; `rows` is sorted and holds no repeats."""
    rows: np.ndarray
    values: np.ndarray


def embedding_row_grads(ids, grad_out) -> RowGrad:
    """Row-sparse embedding gradient: the sorted unique ids and, for each,
    the sum of the output grads at positions holding it, added in position
    order."""
    rows, inverse = np.unique(np.asarray(ids, dtype=np.int64),
                              return_inverse=True)
    values = np.zeros((rows.size, grad_out.shape[-1]), dtype=grad_out.dtype)
    np.add.at(values, inverse.reshape(-1),
              grad_out.reshape(-1, grad_out.shape[-1]))
    return RowGrad(rows, values)


def embedding_backward(ids, grad_out, vocab_size):
    """Dense (vocab_size, dim) form of `embedding_row_grads`: rows no id
    touches are zero."""
    rows, values = embedding_row_grads(ids, grad_out)
    dtable = np.zeros((vocab_size, grad_out.shape[-1]), dtype=grad_out.dtype)
    dtable[rows] = values
    return dtable


# ---------------------------------------------------------------------------
# Conv1D (same padding, ReLU)


def conv1d_forward(x, kernel, bias):
    """x: (len, d_in); kernel: (k, d_in, d_out); bias: (d_out,).
    Same-padded 1D convolution followed by ReLU."""
    if x.ndim != 2 or kernel.ndim != 3 or bias.ndim != 1:
        raise ShapeMismatch("conv1d expects x(len,d_in), kernel(k,d_in,d_out), bias(d_out)")
    k, d_in, d_out = kernel.shape
    if k % 2 == 0:
        raise ShapeMismatch("kernel size must be odd for same padding")
    if x.shape[1] != d_in or bias.shape[0] != d_out:
        raise ShapeMismatch(
            f"conv1d shapes disagree: x {x.shape}, kernel {kernel.shape}, "
            f"bias {bias.shape}"
        )
    length = x.shape[0]
    pad = (k - 1) // 2
    xp = np.zeros((length + 2 * pad, d_in), dtype=x.dtype)
    xp[pad:pad + length] = x
    x_col = np.hstack([xp[i:i + length] for i in range(k)])  # (len, k*d_in)
    w_col = kernel.reshape(k * d_in, d_out)
    z = x_col @ w_col + bias
    y = np.maximum(z, 0.0)
    cache = (x_col, w_col, z, kernel.shape, length, pad)
    return y, cache


def conv1d_backward(cache, dy):
    """Returns (dx, dkernel, dbias)."""
    x_col, w_col, z, kshape, length, pad = cache
    k, d_in, d_out = kshape
    dz = dy * (z > 0)
    db = dz.sum(axis=0)
    dkernel = (x_col.T @ dz).reshape(k, d_in, d_out)
    dx_col = dz @ w_col.T                       # (len, k*d_in)
    dxp = np.zeros((length + 2 * pad, d_in), dtype=dz.dtype)
    for i in range(k):
        dxp[i:i + length] += dx_col[:, i * d_in:(i + 1) * d_in]
    dx = dxp[pad:pad + length]
    return dx, dkernel, db


# ---------------------------------------------------------------------------
# LSTM / BiLSTM


def init_lstm_params(rng, d, h):
    """Uniform(-1/sqrt(h), 1/sqrt(h)) weights; forget-gate bias 1, others 0.
    Gate order along the 4h axis: input, forget, candidate, output."""
    scale = 1.0 / np.sqrt(h)
    W = rng.uniform(-scale, scale, size=(d, 4 * h))
    U = rng.uniform(-scale, scale, size=(h, 4 * h))
    b = np.zeros(4 * h)
    b[h:2 * h] = 1.0
    return W, U, b


def lstm_forward(x, W, U, b):
    """Standard LSTM over x (len, d) with zero initial state.
    Returns h_seq (len, h) and a cache for backward-through-time.

    The input projection x @ W + b is one GEMM over all steps; only the
    recurrent h_prev @ U stays inside the time loop."""
    if x.ndim != 2 or W.ndim != 2 or U.ndim != 2 or b.ndim != 1:
        raise ShapeMismatch("lstm expects x(len,d), W(d,4h), U(h,4h), b(4h)")
    d4 = W.shape[1]
    if d4 % 4 or U.shape != (d4 // 4, d4) or b.shape != (d4,) or W.shape[0] != x.shape[1]:
        raise ShapeMismatch(
            f"lstm shapes disagree: x {x.shape}, W {W.shape}, U {U.shape}, "
            f"b {b.shape}"
        )
    h = d4 // 4
    length = x.shape[0]
    gates = x @ W + b                    # (len, 4h): pre-activations, then i|f|g|o
    c_s = np.empty((length, h))
    hc_s = np.empty((length, h))
    h_s = np.zeros((length + 1, h))      # h_s[t] is the state entering step t
    c = np.zeros(h)
    for t in range(length):
        a = gates[t]
        a += h_s[t] @ U
        a[:2 * h] = sigmoid(a[:2 * h])
        a[2 * h:3 * h] = np.tanh(a[2 * h:3 * h])
        a[3 * h:] = sigmoid(a[3 * h:])
        c = a[h:2 * h] * c + a[:h] * a[2 * h:3 * h]
        c_s[t] = c
        hc_s[t] = np.tanh(c)
        h_s[t + 1] = a[3 * h:] * hc_s[t]
    cache = (x, W, U, gates, c_s, hc_s, h_s)
    return h_s[1:], cache


def lstm_backward(cache, dh_seq):
    """Backward-through-time; returns (dx, dW, dU, db).

    Only dh_next = da @ U.T is recurrent; the gate gradients of every step
    are collected in da_all and the input and weight gradients come from
    one GEMM each after the loop."""
    x, W, U, gates, c_s, hc_s, h_s = cache
    length, h = dh_seq.shape
    i, f = gates[:, :h], gates[:, h:2 * h]
    g, o = gates[:, 2 * h:3 * h], gates[:, 3 * h:]
    c_prevs = np.zeros_like(c_s)
    c_prevs[1:] = c_s[:-1]
    # per-step factors that need no recurrent input
    dc_from_dh = o * (1.0 - hc_s * hc_s)
    da_from_dc = np.hstack([g * i * (1.0 - i), c_prevs * f * (1.0 - f),
                            i * (1.0 - g * g)]).reshape(length, 3, h)
    da_from_dh = hc_s * o * (1.0 - o)
    da_all = np.empty((length, 4 * h))
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for t in range(length - 1, -1, -1):
        dh = dh_seq[t] + dh_next
        dc = dh * dc_from_dh[t] + dc_next
        da = da_all[t]
        da[:3 * h] = (dc * da_from_dc[t]).reshape(-1)
        da[3 * h:] = dh * da_from_dh[t]
        dc_next = dc * f[t]
        dh_next = da @ U.T
    dx = da_all @ W.T
    dW = x.T @ da_all
    dU = h_s[:-1].T @ da_all
    db = da_all.sum(axis=0)
    return dx, dW, dU, db


def bilstm_forward(x, params_fw, params_bw):
    """Forward LSTM on x, backward LSTM on reversed x (output re-reversed),
    concatenated along the feature axis. params_*: (W, U, b) triples."""
    h_fw, cache_fw = lstm_forward(x, *params_fw)
    h_bw_rev, cache_bw = lstm_forward(x[::-1], *params_bw)
    out = np.concatenate([h_fw, h_bw_rev[::-1]], axis=1)
    return out, (cache_fw, cache_bw)


def bilstm_backward(cache, dout):
    cache_fw, cache_bw = cache
    h = dout.shape[1] // 2
    dx_fw, dW_fw, dU_fw, db_fw = lstm_backward(cache_fw, dout[:, :h])
    dx_bw_rev, dW_bw, dU_bw, db_bw = lstm_backward(cache_bw, dout[::-1, h:])
    dx = dx_fw + dx_bw_rev[::-1]
    return dx, (dW_fw, dU_fw, db_fw), (dW_bw, dU_bw, db_bw)


# ---------------------------------------------------------------------------
# Dense


def dense_forward(x, W, b):
    if x.ndim != 2 or W.ndim != 2 or x.shape[1] != W.shape[0] or b.shape != (W.shape[1],):
        raise ShapeMismatch(
            f"dense shapes disagree: x {x.shape}, W {W.shape}, b {b.shape}"
        )
    return x @ W + b, (x, W)


def dense_backward(cache, dy):
    x, W = cache
    dW = x.T @ dy
    db = dy.sum(axis=0)
    dx = dy @ W.T
    return dx, dW, db


# ---------------------------------------------------------------------------
# Masked softmax cross-entropy


def masked_softmax_ce(logits, targets, mask, denom=None):
    """Mean masked cross-entropy and its gradient w.r.t. logits.

    loss = sum_t mask_t * -log softmax(logits_t)[targets_t] / denom, where
    denom defaults to the mask sum. Gradient is zero at masked positions.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    n, m = logits.shape
    if targets.shape != (n,) or mask.shape != (n,):
        raise ShapeMismatch(
            f"lengths disagree: logits {logits.shape}, targets "
            f"{targets.shape}, mask {mask.shape}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= m):
        raise IdOutOfRange(f"targets outside [0, {m})")
    msum = mask.sum()
    if denom is None:
        if msum == 0:
            raise AllMasked("all positions masked")
        denom = msum
    zmax = logits.max(axis=1, keepdims=True)
    z = logits - zmax
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    nll = -logp[np.arange(n), targets]
    loss = float((nll * mask).sum() / denom)
    grad = np.exp(logp)
    grad[np.arange(n), targets] -= 1.0
    grad *= (mask / denom)[:, None]
    return loss, grad


# ---------------------------------------------------------------------------
# RMSProp


class RmspropState:
    """Per-parameter running mean-square accumulators."""

    def __init__(self, params, learning_rate=1e-3, rho=0.9, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.rho = rho
        self.epsilon = epsilon
        self.s = {name: np.zeros_like(p) for name, p in params.items()}


def rmsprop_step(params, grads, state: RmspropState):
    """s <- rho*s + (1-rho)*g^2; p <- p - lr*g/(sqrt(s)+eps), elementwise.

    A `RowGrad` updates its rows only, after decaying the whole of `s`:
    that is exactly the dense step with a zero gradient elsewhere, where
    (1-rho)*0*0 leaves s and lr*0/(sqrt(s)+eps) leaves p as they are."""
    for name, g in grads.items():
        p = params[name]
        rows = None
        if isinstance(g, RowGrad):
            rows, g = g
            if g.shape != (rows.size,) + p.shape[1:]:
                raise ShapeMismatch(f"row grad/param shape mismatch for {name!r}")
        elif g.shape != p.shape:
            raise ShapeMismatch(f"grad/param shape mismatch for {name!r}")
        s = state.s[name]
        s *= state.rho
        if rows is None:
            s += (1.0 - state.rho) * g * g
            p -= state.learning_rate * g / (np.sqrt(s) + state.epsilon)
        else:
            s_rows = s[rows] + (1.0 - state.rho) * g * g
            s[rows] = s_rows
            p[rows] -= state.learning_rate * g / (np.sqrt(s_rows) + state.epsilon)


# ---------------------------------------------------------------------------
# Gradient checking


def grad_check(loss_fn, arrays, analytic, eps=1e-5):
    """Max relative error between analytic grads and central differences.

    loss_fn() recomputes the scalar loss from the (temporarily mutated)
    arrays; relative error = |a - n| / max(1e-8, |a| + |n|).
    """
    worst = 0.0
    for name, arr in arrays.items():
        an = analytic[name]
        if an.shape != arr.shape:
            raise ShapeMismatch(f"analytic grad shape mismatch for {name!r}")
        flat = arr.reshape(-1)
        aflat = an.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            fp = loss_fn()
            flat[j] = orig - eps
            fm = loss_fn()
            flat[j] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = aflat[j]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
    return worst
