"""Trainable per-position taggers: a single CNN, LSTM, or BiLSTM layer over
trained embeddings, with a dense softmax head.

Pipeline per packed batch of sentences (one sentence is the batch of one):
token ids -> embedding -> arch layer -> dense -> softmax. Training
propagates root labels to subtokens; prediction clubs subtoken labels back
to root tokens.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import nn
from .alignment import ClubbingStrategy, club_labels, make_padded_batch
from .corpus import LabeledCorpus, LabelSet
from .errors import (
    CorruptCheckpoint,
    DuplicateToken,
    EmptySplit,
    InvalidHyper,
    LabelMismatch,
    MissingSpecial,
    NonFiniteLoss,
    VersionMismatch,
)
from .metrics import token_confusion, token_metrics
from .tokenizers import Vocab
from .util import atomic_write_bytes

ARCHS = ("CNN", "LSTM", "BiLSTM")

CHECKPOINT_MAGIC = b"SUBNER\x00\x01"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Hyperparams:
    embed_dim: int = 300
    conv_filters: int = 512
    conv_kernel: int = 3
    lstm_hidden: int = 512
    bilstm_hidden: int = 512  # per direction
    num_labels: int = 2

    def __post_init__(self):
        for name, value in asdict(self).items():
            if type(value) is not int or value < 1:  # a bool is no size
                raise InvalidHyper(f"{name} must be a positive integer, "
                                   f"got {value!r}")
        if self.conv_kernel % 2 == 0:
            raise InvalidHyper("conv_kernel must be odd (same padding)")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    max_len: int = 128
    learning_rate: float = 1e-3
    seed: int = 0
    patience: int = 3
    strategy: ClubbingStrategy = ClubbingStrategy.FIRST

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.max_len < 1:
            raise InvalidHyper("epochs, batch_size, max_len must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise InvalidHyper("bad optimizer settings")
        if self.patience < 1:
            raise InvalidHyper("patience must be >= 1")
        if self.seed < 0:
            raise InvalidHyper(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_macro_f1: list[float | None] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    truncated_rows: int = 0
    best_epoch: int | None = None

    def to_file_text(self) -> str:
        """Deterministic serialization: wall-clock is deliberately omitted so
        equal-seed runs produce byte-identical history files."""
        lines = ["epoch\ttrain_loss\tval_macro_f1"]
        for epoch, (loss, f1) in enumerate(zip(self.train_loss, self.val_macro_f1), 1):
            f1_str = f"{f1:.10f}" if f1 is not None else "-"
            lines.append(f"{epoch}\t{loss:.10f}\t{f1_str}")
        return "\n".join(lines) + "\n"


@dataclass
class TaggerModel:
    arch: str
    hyper: Hyperparams
    labels: LabelSet
    vocab: Vocab | None           # None for externally segmented input
    tokenizer_mode: str           # word | subword | external
    params: dict[str, np.ndarray]

    @property
    def vocab_size(self) -> int:
        return self.params["embed"].shape[0]

    def vocab_fingerprint(self) -> str:
        if self.vocab is None:
            return f"external:{self.vocab_size}"
        digest = hashlib.sha256("\n".join(self.vocab.token_of).encode("utf-8"))
        return digest.hexdigest()


def build_model(arch: str, hyper: Hyperparams, vocab: Vocab | None,
                labels: LabelSet, seed: int, tokenizer_mode: str | None = None,
                vocab_size: int | None = None) -> TaggerModel:
    """Initialize a tagger deterministically from a seed.

    One generator draws the tensors in `param_shapes` order: the embedding,
    then the layer (an LSTM's forward direction before its backward one),
    then the dense weight. Embedding/conv/dense weights ~ U(-0.05, 0.05);
    each LSTM direction is `nn.init_lstm_params` (W, then U, each
    U(-1/sqrt(h), 1/sqrt(h)); forget-gate bias 1); other biases 0. Each
    tensor is drawn in float64 and stored in float32, the dtype every layer
    computes in and checkpoints store, a block of rows at a time
    (`nn.uniform`): no tensor is ever held in float64 whole.
    """
    if arch not in ARCHS:
        raise InvalidHyper(f"unknown architecture {arch!r}")
    if hyper.num_labels != len(labels):
        raise InvalidHyper(
            f"num_labels {hyper.num_labels} != label set size {len(labels)}"
        )
    if vocab is not None:
        vocab_size = len(vocab)
        tokenizer_mode = tokenizer_mode or "subword"
    elif vocab_size is None or tokenizer_mode is None:
        raise InvalidHyper("vocab-less model needs vocab_size, tokenizer_mode")
    if vocab_size < 1:
        raise InvalidHyper(f"bad vocab_size {vocab_size}")

    shapes = param_shapes(arch, hyper, vocab_size)
    for name, shape in shapes.items():
        if math.prod(shape) > np.iinfo(np.intp).max // 8:
            raise InvalidHyper(f"{name} of shape {shape} is too large to "
                               f"allocate")
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in shapes.items():
        if name in params:  # drawn with its LSTM direction
            continue
        if name.startswith("lstm"):
            direction = name.removesuffix("_W")
            d, four_h = shape
            W, U, b = nn.init_lstm_params(rng, d, four_h // 4, np.float32)
            params.update({f"{direction}_W": W, f"{direction}_U": U,
                           f"{direction}_b": b})
        elif name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            params[name] = nn.uniform(rng, 0.05, shape, np.float32)
    return TaggerModel(arch, hyper, labels, vocab, tokenizer_mode, params)


def count_params(model: TaggerModel) -> int:
    return sum(int(p.size) for p in model.params.values())


def param_shapes(arch: str, hyper: Hyperparams,
                 vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor of a model with this architecture, in
    the order `build_model` draws them: embedding, layer, dense."""
    d, n = hyper.embed_dim, hyper.num_labels
    shapes = {"embed": (vocab_size, d)}
    if arch == "CNN":
        width = hyper.conv_filters
        shapes.update(conv_w=(hyper.conv_kernel, d, width), conv_b=(width,))
    else:
        h = hyper.lstm_hidden if arch == "LSTM" else hyper.bilstm_hidden
        directions = ("lstm",) if arch == "LSTM" else ("lstm_fw", "lstm_bw")
        for direction in directions:
            shapes.update({f"{direction}_W": (d, 4 * h),
                           f"{direction}_U": (h, 4 * h),
                           f"{direction}_b": (4 * h,)})
        width = h * len(directions)
    shapes.update(dense_W=(width, n), dense_b=(n,))
    return shapes


def forward(model: TaggerModel, ids, lengths=None):
    """Per-subtoken logits (N, num_labels) of a packed batch (`ids` holds
    every row's subtokens, row after row; `lengths` each row's count, None
    for one row) plus caches for backward."""
    p = model.params
    ids = np.asarray(ids, dtype=np.int64)
    emb = nn.embedding_forward(ids, p["embed"])
    if model.arch == "CNN":
        feat, arch_cache = nn.conv1d_forward(emb, p["conv_w"], p["conv_b"],
                                             lengths)
    elif model.arch == "LSTM":
        feat, arch_cache = nn.lstm_forward(emb, p["lstm_W"], p["lstm_U"],
                                           p["lstm_b"], lengths)
    else:
        feat, arch_cache = nn.bilstm_forward(
            emb,
            (p["lstm_fw_W"], p["lstm_fw_U"], p["lstm_fw_b"]),
            (p["lstm_bw_W"], p["lstm_bw_U"], p["lstm_bw_b"]),
            lengths,
        )
    logits, dense_cache = nn.dense_forward(feat, p["dense_W"], p["dense_b"])
    return logits, (ids, arch_cache, dense_cache)


def backward(model: TaggerModel, cache, dlogits) -> dict:
    """Gradients by parameter name; "embed" is a row-sparse `nn.RowGrad`
    over the batch's ids, every other one a dense array."""
    ids, arch_cache, dense_cache = cache
    dfeat, dW, db = nn.dense_backward(dense_cache, dlogits)
    grads = {"dense_W": dW, "dense_b": db}
    if model.arch == "CNN":
        demb, dk, dcb = nn.conv1d_backward(arch_cache, dfeat)
        grads.update(conv_w=dk, conv_b=dcb)
    elif model.arch == "LSTM":
        demb, dW, dU, db = nn.lstm_backward(arch_cache, dfeat)
        grads.update(lstm_W=dW, lstm_U=dU, lstm_b=db)
    else:
        demb, g_fw, g_bw = nn.bilstm_backward(arch_cache, dfeat)
        grads.update(lstm_fw_W=g_fw[0], lstm_fw_U=g_fw[1], lstm_fw_b=g_fw[2])
        grads.update(lstm_bw_W=g_bw[0], lstm_bw_U=g_bw[1], lstm_bw_b=g_bw[2])
    grads["embed"] = nn.embedding_row_grads(ids, demb)
    return grads


# Inference forwards sentences in blocks of at most this many subtokens (a
# longer sentence is a block of its own). At paper sizes a forward holds
# about 20 KB per subtoken for the CNN and 83 KB for the BiLSTM, so a block
# stays within about 21 MB. Over 60 sentences of 5-60 subtokens (2-core x86
# VM, one BLAS thread), 256 was the CNN's fastest cap, and the BiLSTM ran
# 1.9x faster with it than one sentence at a time.
PREDICT_BLOCK_SUBTOKENS = 256


def predict_encodings(model: TaggerModel, encodings,
                      strategy: ClubbingStrategy = ClubbingStrategy.FIRST):
    """(root-word labels, per-subtoken labels) of each encoding, in input
    order. Sentences are sorted by length and forwarded as packed blocks of
    at most PREDICT_BLOCK_SUBTOKENS subtokens."""
    order = sorted(range(len(encodings)), key=lambda i: len(encodings[i].ids))
    blocks, block, size = [], [], 0
    for i in order:
        n = len(encodings[i].ids)
        if block and size + n > PREDICT_BLOCK_SUBTOKENS:
            blocks.append(block)
            block, size = [], 0
        block.append(i)
        size += n
    if block:
        blocks.append(block)
    out = [None] * len(encodings)
    for block in blocks:
        ids = [t for i in block for t in encodings[i].ids]
        lengths = [len(encodings[i].ids) for i in block]
        logits, _ = forward(model, ids, lengths)
        pred_idx = logits.argmax(axis=1).tolist()  # ties: the lowest index
        start = 0
        for i, n in zip(block, lengths):
            subtoken_tags = [model.labels.labels[j]
                             for j in pred_idx[start:start + n]]
            out[i] = (club_labels(subtoken_tags, encodings[i], strategy),
                      subtoken_tags)
            start += n
    return out


def predict_sentence(model: TaggerModel, words, segmenter,
                     strategy: ClubbingStrategy = ClubbingStrategy.FIRST):
    """Segment, forward, argmax per subtoken, then club back to words.
    Kept for one-sentence latency: the bench's `predict_ms_p50` /
    `predict_ms_tail` and `bench/tracer.py` call it."""
    enc = segmenter.encode(words)
    [(word_tags, _)] = predict_encodings(model, [enc], strategy)
    return list(zip(words, word_tags))


def _grad_norm(grads) -> float:
    """The global norm of the gradients. A row gradient's rows are all of
    its table's nonzero entries."""
    arrays = [g.values if isinstance(g, nn.RowGrad) else g
              for g in grads.values()]
    return math.sqrt(sum(float(np.vdot(g, g)) for g in arrays))


def _val_macro_f1(model, val_encodings, val_tags, strategy):
    """Macro F1 of a split; `val_tags` are its gold word tags in order."""
    predicted = predict_encodings(model, val_encodings, strategy)
    pred = [tag for word_tags, _ in predicted for tag in word_tags]
    return token_metrics(token_confusion(pred, val_tags)).macro_f1


# An untrained tagger's mean loss is about ln(num_labels); an epoch whose
# mean train loss exceeds this many times that has diverged.
DIVERGED_LOSS_FACTOR = 100


def train(model: TaggerModel, train_corpus: LabeledCorpus,
          val_corpus: LabeledCorpus | None, segmenter,
          config: TrainConfig) -> tuple[TaggerModel, TrainHistory]:
    """Seeded shuffle, propagated labels, softmax CE, RMSProp; keeps the
    best-validation parameters when a validation split is given (early
    stopping, configurable patience). `segmenter` encodes both splits.

    Rows are truncated at a word boundary to at most `max_len` subtokens and
    each minibatch is one packed batch of its rows' kept subtokens: one
    forward and one backward, the loss the mean over those subtokens. The
    embedding gradient holds only the rows the batch uses, and RMSProp
    updates only those rows of the table. Validation forwards the split in
    length-sorted blocks (`predict_encodings`).

    No step does work in proportion to the embedding table: training runs
    on a copy of the rows the training split's ids use (`used`, sorted;
    each batch's ids renumbered into it), which RMSProp's state and the
    best epoch's snapshot cover, and which is written back into the table
    before each validation and at the end. Every step computes in the
    parameters' float32, the dtype a checkpoint stores.

    Raises EmptySplit when no training subtoken fits `max_len`, and
    NonFiniteLoss when a batch loss or a gradient norm is not finite, or an
    epoch's mean loss exceeds DIVERGED_LOSS_FACTOR * ln(num_labels)."""
    from .alignment import propagate_labels

    for corpus, split in ((train_corpus, "training"), (val_corpus, "validation")):
        if corpus is None:
            continue
        if len(corpus) == 0:
            raise EmptySplit(f"empty {split} split")
        check_label_compat(model.labels, corpus)

    train_rows = []
    for sent in train_corpus:
        enc = segmenter.encode(sent.words)
        sub_tags = propagate_labels(list(sent.tags), enc)
        train_rows.append((enc, [model.labels.index(t) for t in sub_tags]))
    val_encodings = None
    if val_corpus is not None:
        val_encodings = [segmenter.encode(sent.words) for sent in val_corpus]
        val_tags = [tag for sent in val_corpus for tag in sent.tags]

    # the table rows a step can change; the lookup checks their range
    used = np.unique([i for enc, _ in train_rows for i in enc.ids])
    embed = model.params["embed"]
    work = replace(model, params={**model.params,
                                  "embed": nn.embedding_forward(used, embed)})
    state = nn.RmspropState(work.params, learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    best_f1 = -1.0
    best_params = None
    stale = 0
    n = len(train_rows)
    max_loss = DIVERGED_LOSS_FACTOR * math.log(len(model.labels))
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        nll_total = 0.0
        positions = 0
        for batch_start in range(0, n, config.batch_size):
            batch_idx = order[batch_start:batch_start + config.batch_size]
            batch = make_padded_batch([train_rows[i] for i in batch_idx],
                                      config.max_len)
            if epoch == 0:
                history.truncated_rows += batch.truncated_rows
            if batch.ids.size == 0:
                continue
            logits, cache = forward(work, np.searchsorted(used, batch.ids),
                                    batch.lengths)
            loss, dlogits = nn.masked_softmax_ce(logits, batch.label_indices)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"epoch {epoch + 1}: batch loss is {loss}")
            nll_total += loss * batch.ids.size
            positions += batch.ids.size
            grads = backward(work, cache, dlogits)
            norm = _grad_norm(grads)
            if not np.isfinite(norm):
                raise NonFiniteLoss(
                    f"epoch {epoch + 1}: gradient norm is {norm}")
            nn.rmsprop_step(work.params, grads, state)
        if positions == 0:
            raise EmptySplit(f"no training subtoken fits max_len = {config.max_len}")
        mean_loss = nll_total / positions
        if mean_loss > max_loss:
            raise NonFiniteLoss(
                f"epoch {epoch + 1}: mean train loss {mean_loss:.6g} exceeds "
                f"{DIVERGED_LOSS_FACTOR} x ln({len(model.labels)}) = "
                f"{max_loss:.6g}; training diverged")
        history.train_loss.append(mean_loss)
        f1 = None
        if val_encodings is not None:
            embed[used] = work.params["embed"]
            f1 = _val_macro_f1(model, val_encodings, val_tags, config.strategy)
            if f1 > best_f1:
                best_f1 = f1
                best_params = {k: v.copy() for k, v in work.params.items()}
                history.best_epoch = epoch + 1
                stale = 0
            else:
                stale += 1
        history.val_macro_f1.append(f1)
        history.seconds.append(time.perf_counter() - t0)
        if stale >= config.patience:  # only a validation split goes stale
            break
    params = work.params if best_params is None else best_params
    embed[used] = params["embed"]
    model.params.update(params, embed=embed)
    return model, history


# ---------------------------------------------------------------------------
# Checkpoint persistence
#
# Layout: magic, u32 version, u32 header length, JSON header (sorted keys),
# the `param_shapes` tensors as little-endian float32 in name order, 8-byte
# truncated sha256 checksum. The header's arch, hyper and vocab_size give
# the tensors; the file's exact length ties them to it. A save streams the
# parameters themselves to the file, never copying them into one buffer.


def save_checkpoint(model: TaggerModel, path):
    header = {
        "arch": model.arch,
        "hyper": asdict(model.hyper),
        "labels": list(model.labels.labels),
        "tokenizer_mode": model.tokenizer_mode,
        "vocab_size": model.vocab_size,
        "vocab_fingerprint": model.vocab_fingerprint(),
        "vocab_tokens": list(model.vocab.token_of) if model.vocab else None,
    }
    header_bytes = json.dumps(header, ensure_ascii=False,
                              sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)),
             header_bytes]
    parts += [np.ascontiguousarray(model.params[name], dtype="<f4")
              for name in sorted(model.params)]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    atomic_write_bytes(path, *parts, digest.digest()[:8])


# The loader ignores any other key, such as the "tensors" list that older
# checkpoints carry.
HEADER_KEYS = ("arch", "hyper", "labels", "tokenizer_mode",
               "vocab_fingerprint", "vocab_size", "vocab_tokens")


def _check_header(header) -> tuple[Hyperparams, LabelSet, dict]:
    """Hyperparameters, labels and tensor shapes (`param_shapes`) of a
    checkpoint header; raises CorruptCheckpoint unless every key is present,
    the sizes agree and the tokenizer mode fits the vocab."""
    if not isinstance(header, dict):
        raise CorruptCheckpoint("header is not a JSON object")
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        raise CorruptCheckpoint(f"header lacks {', '.join(missing)}")
    if header["arch"] not in ARCHS:
        raise CorruptCheckpoint(f"unknown architecture {header['arch']!r}")
    try:
        hyper = Hyperparams(**header["hyper"])
        labels = LabelSet(tuple(header["labels"]))
    except (TypeError, ValueError, InvalidHyper) as exc:
        raise CorruptCheckpoint(f"bad header: {exc}") from exc
    if not all(isinstance(label, str) for label in labels.labels):
        raise CorruptCheckpoint("bad header: a label is not a string")
    vocab_size = header["vocab_size"]
    tokens = header["vocab_tokens"]
    if (type(vocab_size) is not int or vocab_size < 1
            or (tokens is not None and (not isinstance(tokens, list)
                                        or len(tokens) != vocab_size))
            or hyper.num_labels != len(labels)):
        raise CorruptCheckpoint("header sizes disagree: vocab or labels")
    if tokens is not None and header["tokenizer_mode"] not in ("word", "subword"):
        raise CorruptCheckpoint(
            f"tokenizer mode {header['tokenizer_mode']!r} cannot segment "
            f"with a vocab")
    return hyper, labels, param_shapes(header["arch"], hyper, vocab_size)


def _vocab_from_header(header) -> Vocab | None:
    if header["vocab_tokens"] is None:
        return None
    if not all(isinstance(token, str) for token in header["vocab_tokens"]):
        raise CorruptCheckpoint("bad header vocab: a token is not a string")
    try:
        return Vocab(tuple(header["vocab_tokens"]))
    except (TypeError, DuplicateToken, MissingSpecial) as exc:
        raise CorruptCheckpoint(f"bad header vocab: {exc}") from exc


# A load hashes the file 4 * LOAD_CHUNK bytes at a time, reads each tensor
# into its array, then checks it for nan and inf this many values at a time:
# it never holds the file's bytes, or a mask of a tensor, next to the tensors.
LOAD_CHUNK = 1 << 18


def load_checkpoint(path) -> TaggerModel:
    """Reads a checkpoint written by `save_checkpoint`. Raises
    VersionMismatch for another format or version and CorruptCheckpoint for
    a checksum mismatch, a header that fails `_check_header`, a truncated or
    non-finite tensor, or a vocab fingerprint that its tokens do not give."""
    with open(path, "rb") as fh:
        total = os.fstat(fh.fileno()).st_size
        if (total < len(CHECKPOINT_MAGIC) + 16
                or fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC):
            raise VersionMismatch("not a recognized checkpoint file")
        fh.seek(0)
        digest = hashlib.sha256()
        left = total - 8
        while left > 0 and (chunk := fh.read(min(left, 4 * LOAD_CHUNK))):
            digest.update(chunk)
            left -= len(chunk)
        if left or digest.digest()[:8] != fh.read(8):
            raise CorruptCheckpoint("checksum mismatch (truncated or corrupted file)")
        fh.seek(len(CHECKPOINT_MAGIC))
        version, header_len = struct.unpack("<II", fh.read(8))
        if version != CHECKPOINT_VERSION:
            raise VersionMismatch(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptCheckpoint(f"bad header: {exc}") from exc
        offset = len(CHECKPOINT_MAGIC) + 8 + header_len
        hyper, labels, shapes = _check_header(header)
        params = {}
        for name, shape in sorted(shapes.items()):
            count = math.prod(shape)
            if offset + 4 * count > total - 8:
                raise CorruptCheckpoint(f"tensor {name!r} truncated")
            flat = np.empty(count, dtype="<f4")
            if fh.readinto(flat) != 4 * count:
                raise CorruptCheckpoint(f"tensor {name!r} truncated")
            for start in range(0, count, LOAD_CHUNK):
                if not np.isfinite(flat[start:start + LOAD_CHUNK]).all():
                    raise CorruptCheckpoint(f"tensor {name!r} holds nan or inf")
            params[name] = flat.reshape(shape)
            offset += 4 * count
    if offset != total - 8:
        raise CorruptCheckpoint("trailing bytes after tensors")
    # built after the tensors: built before them, a 30k-token vocab raised
    # the peak resident memory of a load by about 3.5 MB
    vocab = _vocab_from_header(header)
    model = TaggerModel(
        arch=header["arch"],
        hyper=hyper,
        labels=labels,
        vocab=vocab,
        tokenizer_mode=header["tokenizer_mode"],
        params=params,
    )
    if model.vocab_fingerprint() != header["vocab_fingerprint"]:
        raise CorruptCheckpoint("header vocab fingerprint does not match its "
                                "vocab tokens")
    return model


def check_label_compat(labels: LabelSet, corpus: LabeledCorpus):
    """Training and evaluation guard: every corpus tag must exist in the
    model label set."""
    for sent in corpus:
        for tag in sent.tags:
            if tag not in labels:
                raise LabelMismatch(
                    f"corpus tag {tag!r} not in model label set "
                    f"{list(labels.labels)}"
                )
