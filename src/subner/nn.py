"""Minimal differentiable numeric core: embedding, 1D convolution, LSTM,
BiLSTM, dense, softmax cross-entropy, and RMSProp.

Every layer takes a *packed batch* in float64: the real positions of all
rows concatenated into one flat (N, dim) array, plus each row's length
(`lengths`, summing to N; omitted, the array is one row). No pad position
exists, so nothing can leak through padding.
Embedding, dense and the cross-entropy work position by position. The
convolution puts its zero padding at each row boundary before im2col. The
LSTM computes its input projection as one matrix product over all
positions and visits them step by step, rows sorted by length so that step
t is one product of the first n_t rows' states with the recurrent weights;
its input and weight gradients are again one product each. A sentence is
the batch of one. Every backward pass is verifiable against central finite
differences (see grad_check).

The embedding gradient is row-sparse: `embedding_row_grads` returns only the
rows a batch touches (`RowGrad`), and `rmsprop_step` updates only those
rows of the table, so a training step costs the same with a 100k-entry
vocabulary as with a 1k one (apart from the decay of the mean-square
accumulator, one multiply over the table). `embedding_backward` scatters
the same rows into the dense table.
"""

from __future__ import annotations

from itertools import accumulate
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


def _starts(lengths) -> list[int]:
    """Where each row of a packed batch begins."""
    return list(accumulate(lengths, initial=0))[:-1]


def _row_lengths(x, lengths) -> list[int]:
    """The packed batch's row lengths; None means one row.

    The index arithmetic of a packed batch runs in plain Python: right
    after a layer's matrix products, small numpy calls run on cold caches.
    Inside a one-row, 12-step LSTM forward at H=512 (2-core x86 VM, one
    BLAS thread), the time-major index took 223 us as ten numpy calls and
    95 us as Python loops."""
    if lengths is None:
        return [x.shape[0]]
    lengths = [int(n) for n in lengths]
    if min(lengths, default=0) < 0 or sum(lengths) != x.shape[0]:
        raise ShapeMismatch(
            f"row lengths {lengths} do not pack {x.shape[0]} positions"
        )
    return lengths


# ---------------------------------------------------------------------------
# Conv1D (same padding, ReLU)


def conv1d_forward(x, kernel, bias, lengths=None):
    """x: packed (N, d_in); kernel: (k, d_in, d_out); bias: (d_out,).
    Same-padded 1D convolution of each row followed by ReLU; (k-1)//2 zero
    rows separate the rows, so no window reaches into a neighbour."""
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
    lengths = _row_lengths(x, lengths)
    pad = (k - 1) // 2
    at = []  # row r starts after r + 1 runs of `pad` zero rows
    for r, (start, n) in enumerate(zip(_starts(lengths), lengths)):
        at += range(start + pad * (r + 1), start + pad * (r + 1) + n)
    at = np.array(at, dtype=np.intp)
    xp = np.zeros((x.shape[0] + pad * (len(lengths) + 1), d_in), dtype=x.dtype)
    xp[at] = x
    windows = at[:, None] + np.arange(-pad, pad + 1)
    x_col = xp[windows].reshape(x.shape[0], k * d_in)    # (N, k*d_in)
    w_col = kernel.reshape(k * d_in, d_out)
    z = x_col @ w_col + bias
    y = np.maximum(z, 0.0)
    cache = (x_col, w_col, z, kernel.shape, windows, xp.shape[0])
    return y, cache


def conv1d_backward(cache, dy):
    """Returns (dx, dkernel, dbias)."""
    x_col, w_col, z, kshape, windows, padded = cache
    k, d_in, d_out = kshape
    dz = dy * (z > 0)
    db = dz.sum(axis=0)
    dkernel = (x_col.T @ dz).reshape(k, d_in, d_out)
    dx_col = dz @ w_col.T                       # (N, k*d_in)
    dxp = np.zeros((padded, d_in), dtype=dz.dtype)
    for i in range(k):  # one window offset at a time: no index repeats
        dxp[windows[:, i]] += dx_col[:, i * d_in:(i + 1) * d_in]
    dx = dxp[windows[:, (k - 1) // 2]]
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


class _TimeMajor(NamedTuple):
    """A packed batch's positions step by step, rows sorted by length
    (longest first, ties in row order): step t holds `sizes[t]` rows, in
    slots `starts[t]:starts[t] + sizes[t]`. `flat[s]` is slot s's position
    in the packed batch. `prev[s]` is the row of the state array that holds
    slot s's incoming state: rows 0..B-1 are the zero initial states, row
    B + s the state slot s leaves."""
    flat: np.ndarray
    sizes: list
    starts: list
    prev: list      # read by the backward pass only
    rows: int


def _time_major(lengths) -> _TimeMajor:
    rows = len(lengths)
    order = sorted(range(rows), key=lengths.__getitem__, reverse=True)
    row_start = _starts(lengths)
    flat, prev, sizes, starts = [], [], [], []
    running = rows
    for t in range(lengths[order[0]] if rows else 0):
        while lengths[order[running - 1]] <= t:  # rows that have ended
            running -= 1
        before = rows + starts[-1] if starts else 0
        starts.append(len(flat))
        sizes.append(running)
        flat += [row_start[r] + t for r in order[:running]]
        prev += range(before, before + running)
    return _TimeMajor(np.array(flat, dtype=np.intp), sizes, starts, prev, rows)


def lstm_forward(x, W, U, b, lengths=None):
    """Standard LSTM over each row of the packed x (N, d), zero initial
    state. Returns h_seq (N, h) and a cache for backward-through-time.

    The input projection x @ W + b is one GEMM over all positions, laid out
    time-major (see `_time_major`); step t adds h_prev @ U for the rows still
    running, a prefix of the step's slots, so no state passes a row's end."""
    if x.ndim != 2 or W.ndim != 2 or U.ndim != 2 or b.ndim != 1:
        raise ShapeMismatch("lstm expects x(len,d), W(d,4h), U(h,4h), b(4h)")
    d4 = W.shape[1]
    if d4 % 4 or U.shape != (d4 // 4, d4) or b.shape != (d4,) or W.shape[0] != x.shape[1]:
        raise ShapeMismatch(
            f"lstm shapes disagree: x {x.shape}, W {W.shape}, U {U.shape}, "
            f"b {b.shape}"
        )
    h = d4 // 4
    tm = _time_major(_row_lengths(x, lengths))
    x_tm = x[tm.flat]
    gates = x_tm @ W + b                 # (N, 4h): pre-activations, then i|f|g|o
    hc_s = np.empty((x.shape[0], h))
    # state arrays: B zero initial states, then the state each slot leaves
    c_s = np.zeros((tm.rows + x.shape[0], h))
    h_s = np.zeros((tm.rows + x.shape[0], h))
    c, h_prev = c_s[:tm.rows], h_s[:tm.rows]
    for start, n in zip(tm.starts, tm.sizes):
        # the rows still running are a prefix of the last step's rows
        a = gates[start:start + n]
        a += h_prev[:n] @ U
        a[:, :2 * h] = sigmoid(a[:, :2 * h])
        a[:, 2 * h:3 * h] = np.tanh(a[:, 2 * h:3 * h])
        a[:, 3 * h:] = sigmoid(a[:, 3 * h:])
        c = a[:, h:2 * h] * c[:n] + a[:, :h] * a[:, 2 * h:3 * h]
        c_s[tm.rows + start:tm.rows + start + n] = c
        hc = np.tanh(c, out=hc_s[start:start + n])
        h_prev = np.multiply(a[:, 3 * h:], hc,
                             out=h_s[tm.rows + start:tm.rows + start + n])
    h_seq = np.empty((x.shape[0], h))
    h_seq[tm.flat] = h_s[tm.rows:]
    cache = (x_tm, W, U, gates, c_s, hc_s, h_s, tm)
    return h_seq, cache


def lstm_backward(cache, dh_seq):
    """Backward-through-time; returns (dx, dW, dU, db).

    Only dh_next = da @ U.T is recurrent; the gate gradients of every step
    are collected in da_all and the input and weight gradients come from
    one GEMM each after the loop."""
    x_tm, W, U, gates, c_s, hc_s, h_s, tm = cache
    h = dh_seq.shape[1]
    i, f = gates[:, :h], gates[:, h:2 * h]
    g, o = gates[:, 2 * h:3 * h], gates[:, 3 * h:]
    prev = np.array(tm.prev, dtype=np.intp)
    c_prevs = c_s[prev]
    # per-slot factors that need no recurrent input
    dc_from_dh = o * (1.0 - hc_s * hc_s)
    da_from_dc = np.hstack([g * i * (1.0 - i), c_prevs * f * (1.0 - f),
                            i * (1.0 - g * g)]).reshape(-1, 3, h)
    da_from_dh = hc_s * o * (1.0 - o)
    dh_tm = dh_seq[tm.flat]
    da_all = np.empty((x_tm.shape[0], 4 * h))
    dh_next = dc_next = np.zeros((0, h))
    for start, n in zip(tm.starts[::-1], tm.sizes[::-1]):
        now = slice(start, start + n)
        going = dh_next.shape[0]         # rows that run on to the next step
        dh = dh_tm[now]
        dh[:going] += dh_next
        dc = dh * dc_from_dh[now]
        dc[:going] += dc_next
        da = da_all[now]
        da[:, :3 * h] = (dc[:, None, :] * da_from_dc[now]).reshape(n, -1)
        da[:, 3 * h:] = dh * da_from_dh[now]
        dc_next = dc * f[now]
        dh_next = da @ U.T
    dx = np.empty((x_tm.shape[0], W.shape[0]))
    dx[tm.flat] = da_all @ W.T
    dW = x_tm.T @ da_all
    dU = h_s[prev].T @ da_all
    db = da_all.sum(axis=0)
    return dx, dW, dU, db


def _reversed_rows(lengths):
    """Index that reverses each row of a packed batch in place."""
    rev = []
    for start, n in zip(_starts(lengths), lengths):
        rev += range(start + n - 1, start - 1, -1)
    return np.array(rev, dtype=np.intp)


def bilstm_forward(x, params_fw, params_bw, lengths=None):
    """Forward LSTM on x, backward LSTM on each row of x reversed (output
    re-reversed), concatenated along the feature axis. params_*: (W, U, b)
    triples."""
    lengths = _row_lengths(x, lengths)
    rev = _reversed_rows(lengths)
    h_fw, cache_fw = lstm_forward(x, *params_fw, lengths=lengths)
    h_bw_rev, cache_bw = lstm_forward(x[rev], *params_bw, lengths=lengths)
    out = np.concatenate([h_fw, h_bw_rev[rev]], axis=1)
    return out, (cache_fw, cache_bw, rev)


def bilstm_backward(cache, dout):
    cache_fw, cache_bw, rev = cache
    h = dout.shape[1] // 2
    dx_fw, dW_fw, dU_fw, db_fw = lstm_backward(cache_fw, dout[:, :h])
    dx_bw_rev, dW_bw, dU_bw, db_bw = lstm_backward(cache_bw, dout[rev, h:])
    dx = dx_fw + dx_bw_rev[rev]
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
# Softmax cross-entropy


def masked_softmax_ce(logits, targets):
    """Mean cross-entropy over all positions and its gradient w.r.t. logits:
    loss = sum_t -log softmax(logits_t)[targets_t] / N. (The name is older
    than packing, which left no position to mask; bench/tracer.py wraps the
    function under it.) Raises AllMasked for an empty batch."""
    targets = np.asarray(targets, dtype=np.int64)
    n, m = logits.shape
    if targets.shape != (n,):
        raise ShapeMismatch(
            f"lengths disagree: logits {logits.shape}, targets {targets.shape}"
        )
    if n == 0:
        raise AllMasked("empty batch: no position to score")
    if targets.min() < 0 or targets.max() >= m:
        raise IdOutOfRange(f"targets outside [0, {m})")
    zmax = logits.max(axis=1, keepdims=True)
    z = logits - zmax
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    nll = -logp[np.arange(n), targets]
    loss = float(nll.sum() / n)
    grad = np.exp(logp)
    grad[np.arange(n), targets] -= 1.0
    # times 1/n, not divided by n: the two can differ in the last bit, and
    # equal-seed checkpoints and histories are pinned to this one
    grad *= 1.0 / n
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
