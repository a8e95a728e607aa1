"""Trainable per-position taggers: a single CNN, LSTM, or BiLSTM layer over
trained embeddings, with a dense softmax head.

Pipeline per sentence: token ids -> embedding -> arch layer -> dense ->
softmax. Training propagates root labels to subtokens; prediction clubs
subtoken labels back to root tokens.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from dataclasses import asdict, dataclass, field

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
from .tokenizers import SubwordEncoding, Vocab

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
            if not isinstance(value, int) or value < 1:
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
    rho: float = 0.9
    epsilon: float = 1e-8
    seed: int = 0
    patience: int = 3
    strategy: ClubbingStrategy = ClubbingStrategy.FIRST
    grad_clip: float | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.max_len < 1:
            raise InvalidHyper("epochs, batch_size, max_len must be positive")
        if self.learning_rate <= 0 or not 0 < self.rho < 1 or self.epsilon <= 0:
            raise InvalidHyper("bad optimizer settings")
        if self.patience < 1:
            raise InvalidHyper("patience must be >= 1")


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
    vocab_size: int
    pad_id: int
    params: dict[str, np.ndarray]

    @property
    def feature_width(self) -> int:
        return param_shapes(self.arch, self.hyper, self.vocab_size)["dense_W"][0]

    def vocab_fingerprint(self) -> str:
        if self.vocab is None:
            return f"external:{self.vocab_size}"
        digest = hashlib.sha256("\n".join(self.vocab.token_of).encode("utf-8"))
        return digest.hexdigest()


def _to_f32_grid(arr):
    # parameters live on the float32 grid so checkpoints round-trip exactly
    return arr.astype(np.float32).astype(np.float64)


def build_model(arch: str, hyper: Hyperparams, vocab: Vocab | None,
                labels: LabelSet, seed: int, tokenizer_mode: str | None = None,
                vocab_size: int | None = None,
                pad_id: int | None = None) -> TaggerModel:
    """Initialize a tagger deterministically from a seed.

    Embedding/conv/dense weights ~ U(-0.05, 0.05); LSTM weights
    U(-1/sqrt(h), 1/sqrt(h)) with forget-gate bias 1; other biases 0.
    """
    if arch not in ARCHS:
        raise InvalidHyper(f"unknown architecture {arch!r}")
    if hyper.num_labels != len(labels):
        raise InvalidHyper(
            f"num_labels {hyper.num_labels} != label set size {len(labels)}"
        )
    if vocab is not None:
        vocab_size = len(vocab)
        pad_id = vocab.pad_id
        tokenizer_mode = tokenizer_mode or "subword"
    elif vocab_size is None or pad_id is None or tokenizer_mode is None:
        raise InvalidHyper("vocab-less model needs vocab_size, pad_id, tokenizer_mode")
    if vocab_size < 1 or not 0 <= pad_id < vocab_size:
        raise InvalidHyper(f"bad vocab_size {vocab_size} / pad_id {pad_id}")

    rng = np.random.default_rng(seed)
    d = hyper.embed_dim
    params = {"embed": rng.uniform(-0.05, 0.05, size=(vocab_size, d))}
    if arch == "CNN":
        k, f = hyper.conv_kernel, hyper.conv_filters
        params["conv_w"] = rng.uniform(-0.05, 0.05, size=(k, d, f))
        params["conv_b"] = np.zeros(f)
    elif arch == "LSTM":
        W, U, b = nn.init_lstm_params(rng, d, hyper.lstm_hidden)
        params.update(lstm_W=W, lstm_U=U, lstm_b=b)
    else:
        W, U, b = nn.init_lstm_params(rng, d, hyper.bilstm_hidden)
        params.update(lstm_fw_W=W, lstm_fw_U=U, lstm_fw_b=b)
        W, U, b = nn.init_lstm_params(rng, d, hyper.bilstm_hidden)
        params.update(lstm_bw_W=W, lstm_bw_U=U, lstm_bw_b=b)
    model = TaggerModel(arch, hyper, labels, vocab, tokenizer_mode,
                        vocab_size, pad_id, params)
    params["dense_W"] = rng.uniform(-0.05, 0.05,
                                    size=(model.feature_width, len(labels)))
    params["dense_b"] = np.zeros(len(labels))
    for name in params:
        params[name] = _to_f32_grid(params[name])
    return model


def count_params(model: TaggerModel) -> int:
    return sum(int(p.size) for p in model.params.values())


def param_shapes(arch: str, hyper: Hyperparams,
                 vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor of a model with this architecture."""
    d, n = hyper.embed_dim, hyper.num_labels
    if arch == "CNN":
        k, width = hyper.conv_kernel, hyper.conv_filters
        shapes = {"conv_w": (k, d, width), "conv_b": (width,)}
    elif arch == "LSTM":
        h = width = hyper.lstm_hidden
        shapes = {"lstm_W": (d, 4 * h), "lstm_U": (h, 4 * h), "lstm_b": (4 * h,)}
    else:
        h = hyper.bilstm_hidden
        width = 2 * h
        shapes = {}
        for direction in ("fw", "bw"):
            shapes.update({f"lstm_{direction}_W": (d, 4 * h),
                           f"lstm_{direction}_U": (h, 4 * h),
                           f"lstm_{direction}_b": (4 * h,)})
    shapes.update(embed=(vocab_size, d), dense_W=(width, n), dense_b=(n,))
    return shapes


def forward(model: TaggerModel, ids):
    """Per-subtoken logits (len, num_labels) plus caches for backward."""
    p = model.params
    ids = np.asarray(ids, dtype=np.int64)
    emb = nn.embedding_forward(ids, p["embed"])
    if model.arch == "CNN":
        feat, arch_cache = nn.conv1d_forward(emb, p["conv_w"], p["conv_b"])
    elif model.arch == "LSTM":
        feat, arch_cache = nn.lstm_forward(emb, p["lstm_W"], p["lstm_U"], p["lstm_b"])
    else:
        feat, arch_cache = nn.bilstm_forward(
            emb,
            (p["lstm_fw_W"], p["lstm_fw_U"], p["lstm_fw_b"]),
            (p["lstm_bw_W"], p["lstm_bw_U"], p["lstm_bw_b"]),
        )
    logits, dense_cache = nn.dense_forward(feat, p["dense_W"], p["dense_b"])
    return logits, (ids, arch_cache, dense_cache)


def backward(model: TaggerModel, cache, dlogits) -> dict:
    """Gradients by parameter name; "embed" is a row-sparse `nn.RowGrad`
    over the sentence's ids, every other one a dense array."""
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


def predict_tags_for_encoding(model: TaggerModel, encoding: SubwordEncoding,
                              strategy: ClubbingStrategy = ClubbingStrategy.FIRST):
    """Returns (root-word labels, per-subtoken labels) for one sentence."""
    logits, _ = forward(model, encoding.ids)
    pred_idx = logits.argmax(axis=1)  # ties resolve to the lowest index
    subtoken_tags = [model.labels.labels[i] for i in pred_idx]
    return club_labels(subtoken_tags, encoding, strategy), subtoken_tags


def predict_sentence(model: TaggerModel, words, segmenter,
                     strategy: ClubbingStrategy = ClubbingStrategy.FIRST):
    """Segment, forward, argmax per subtoken, then club back to words."""
    enc = segmenter.encode(words)
    word_tags, _ = predict_tags_for_encoding(model, enc, strategy)
    return list(zip(words, word_tags))


def _clip_grads(grads, max_norm) -> float:
    """Scales every gradient in place so that their global norm is at most
    `max_norm`; returns the norm before clipping. A row gradient's rows
    are all of its table's nonzero entries."""
    arrays = [g.values if isinstance(g, nn.RowGrad) else g
              for g in grads.values()]
    total = np.sqrt(sum(float((g * g).sum()) for g in arrays))
    if total > max_norm:
        scale = max_norm / total
        for g in arrays:
            g *= scale
    return total


def _val_macro_f1(model, val_rows, val_tags, strategy):
    counts = None
    for (enc, _), gold in zip(val_rows, val_tags):
        word_tags, _ = predict_tags_for_encoding(model, enc, strategy)
        c = token_confusion(word_tags, gold)
        if counts is None:
            counts = c
        else:
            counts.add(c)
    return token_metrics(counts).macro_f1


def train(model: TaggerModel, train_corpus: LabeledCorpus,
          val_corpus: LabeledCorpus | None, segmenter,
          config: TrainConfig,
          val_segmenter=None) -> tuple[TaggerModel, TrainHistory]:
    """Seeded shuffle, propagated labels, masked CE, RMSProp; keeps the
    best-validation parameters when a validation split is given (early
    stopping, configurable patience). A non-finite batch loss raises
    NonFiniteLoss.

    Rows are truncated at a word boundary to at most `max_len` subtokens and
    each row runs forward and backward over its kept subtokens only; the
    loss is the mean over the batch's kept subtokens. The embedding
    gradient of a batch holds only the rows its sentences use, and RMSProp
    updates only those rows of the table."""
    from .alignment import propagate_labels

    if len(train_corpus) == 0:
        raise EmptySplit("empty training split")
    for corpus in (train_corpus, val_corpus):
        if corpus is not None:
            check_label_compat(model.labels, corpus)

    def encode_rows(corpus, seg):
        rows = []
        for idx, sent in enumerate(corpus):
            enc = seg.encode(sent.words, index=idx)
            sub_tags = propagate_labels(list(sent.tags), enc)
            label_idx = [model.labels.index(t) for t in sub_tags]
            rows.append((enc, label_idx))
        return rows

    train_rows = encode_rows(train_corpus, segmenter)
    val_rows = None
    val_tags = None
    if val_corpus is not None:
        val_rows = encode_rows(val_corpus, val_segmenter or segmenter)
        val_tags = [list(s.tags) for s in val_corpus]

    state = nn.RmspropState(model.params, learning_rate=config.learning_rate,
                            rho=config.rho, epsilon=config.epsilon)
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    best_f1 = -1.0
    best_params = None
    stale = 0
    n = len(train_rows)
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        nll_total = 0.0
        mask_total = 0.0
        for batch_start in range(0, n, config.batch_size):
            batch_idx = order[batch_start:batch_start + config.batch_size]
            batch = make_padded_batch([train_rows[i] for i in batch_idx],
                                      config.max_len, model.pad_id)
            if epoch == 0:
                history.truncated_rows += batch.truncated_rows
            denom = float(batch.mask.sum())
            if denom == 0.0:
                continue
            grads = {name: np.zeros_like(p) for name, p in model.params.items()
                     if name != "embed"}
            embed_grads = []
            batch_loss = 0.0
            for row in range(batch.ids.shape[0]):
                # real positions are a prefix; train on them alone, as
                # inference sees the sentence
                keep = int(batch.mask[row].sum())
                if keep == 0:
                    continue
                logits, cache = forward(model, batch.ids[row, :keep])
                loss, dlogits = nn.masked_softmax_ce(
                    logits, batch.label_indices[row, :keep],
                    batch.mask[row, :keep], denom=denom,
                )
                nll_total += loss * denom
                batch_loss += loss
                row_grads = backward(model, cache, dlogits)
                embed_grads.append(row_grads.pop("embed"))
                for name, g in row_grads.items():
                    grads[name] += g
            if not np.isfinite(batch_loss):
                raise NonFiniteLoss(
                    f"epoch {epoch + 1}: batch loss is {batch_loss}"
                )
            # the batch's rows, each summed in row order from zero: the same
            # additions as a dense table that every row's gradient is added to
            grads["embed"] = nn.embedding_row_grads(
                np.concatenate([g.rows for g in embed_grads]),
                np.concatenate([g.values for g in embed_grads]))
            mask_total += denom
            if config.grad_clip is not None:
                _clip_grads(grads, config.grad_clip)
            nn.rmsprop_step(model.params, grads, state)
        history.train_loss.append(nll_total / mask_total if mask_total else 0.0)
        if val_rows is not None:
            f1 = _val_macro_f1(model, val_rows, val_tags, config.strategy)
            history.val_macro_f1.append(f1)
            if f1 > best_f1:
                best_f1 = f1
                best_params = {k: v.copy() for k, v in model.params.items()}
                history.best_epoch = epoch + 1
                stale = 0
            else:
                stale += 1
        else:
            history.val_macro_f1.append(None)
        history.seconds.append(time.perf_counter() - t0)
        if val_rows is not None and stale >= config.patience:
            break
    if best_params is not None:
        model.params = best_params
    for name in model.params:
        model.params[name] = _to_f32_grid(model.params[name])
    return model, history


# ---------------------------------------------------------------------------
# Checkpoint persistence
#
# Layout: magic, u32 version, u32 header length, JSON header, named tensors
# as little-endian float32 in header order, 8-byte truncated sha256 checksum.


def save_checkpoint(model: TaggerModel, path):
    header = {
        "arch": model.arch,
        "hyper": asdict(model.hyper),
        "labels": list(model.labels.labels),
        "tokenizer_mode": model.tokenizer_mode,
        "vocab_size": model.vocab_size,
        "pad_id": model.pad_id,
        "vocab_fingerprint": model.vocab_fingerprint(),
        "vocab_tokens": list(model.vocab.token_of) if model.vocab else None,
        "unk_token": model.vocab.unk_token if model.vocab else None,
        "pad_token": model.vocab.pad_token if model.vocab else None,
        "continuation_prefix": model.vocab.continuation_prefix if model.vocab else None,
        "tensors": [[name, list(model.params[name].shape)]
                    for name in sorted(model.params)],
    }
    header_bytes = json.dumps(header, ensure_ascii=False,
                              sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes))
    blob += header_bytes
    for name in sorted(model.params):
        blob += model.params[name].astype("<f4").tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()[:8]
    from .util import atomic_write_bytes

    atomic_write_bytes(path, bytes(blob))


HEADER_KEYS = ("arch", "continuation_prefix", "hyper", "labels", "pad_id",
               "pad_token", "tensors", "tokenizer_mode", "unk_token",
               "vocab_fingerprint", "vocab_size", "vocab_tokens")


def _check_header(header) -> tuple[Hyperparams, LabelSet, dict]:
    """Hyperparameters, labels and tensor shapes of a checkpoint header;
    raises CorruptCheckpoint unless every key is present, the sizes agree,
    the tokenizer mode fits the vocab and the tensor list is exactly the one
    the architecture needs."""
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
    vocab_size, pad_id = header["vocab_size"], header["pad_id"]
    tokens = header["vocab_tokens"]
    if (not isinstance(vocab_size, int) or not isinstance(pad_id, int)
            or not 0 <= pad_id < vocab_size
            or (tokens is not None and (not isinstance(tokens, list)
                                        or len(tokens) != vocab_size))
            or hyper.num_labels != len(labels)):
        raise CorruptCheckpoint("header sizes disagree: vocab, pad id or labels")
    if tokens is not None and header["tokenizer_mode"] not in ("word", "subword"):
        raise CorruptCheckpoint(
            f"tokenizer mode {header['tokenizer_mode']!r} cannot segment "
            f"with a vocab")
    shapes = param_shapes(header["arch"], hyper, vocab_size)
    if header["tensors"] != [[name, list(shape)]
                             for name, shape in sorted(shapes.items())]:
        raise CorruptCheckpoint(
            f"tensor names or shapes do not fit a {header['arch']} with "
            f"these hyperparameters"
        )
    return hyper, labels, shapes


def _vocab_from_header(header) -> Vocab | None:
    if header["vocab_tokens"] is None:
        return None
    try:
        vocab = Vocab(tuple(header["vocab_tokens"]),
                      unk_token=header["unk_token"],
                      pad_token=header["pad_token"],
                      continuation_prefix=header["continuation_prefix"])
    except (TypeError, DuplicateToken, MissingSpecial) as exc:
        raise CorruptCheckpoint(f"bad header vocab: {exc}") from exc
    if vocab.pad_id != header["pad_id"]:
        raise CorruptCheckpoint("header pad id is not the vocab's pad token")
    return vocab


def load_checkpoint(path) -> TaggerModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 16 or not blob.startswith(CHECKPOINT_MAGIC):
        raise VersionMismatch("not a recognized checkpoint file")
    if hashlib.sha256(blob[:-8]).digest()[:8] != blob[-8:]:
        raise CorruptCheckpoint("checksum mismatch (truncated or corrupted file)")
    offset = len(CHECKPOINT_MAGIC)
    version, header_len = struct.unpack_from("<II", blob, offset)
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"unsupported checkpoint version {version}")
    offset += 8
    try:
        header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"bad header: {exc}") from exc
    offset += header_len
    hyper, labels, shapes = _check_header(header)
    params = {}
    for name, shape in sorted(shapes.items()):
        size = math.prod(shape) * 4
        if offset + size > len(blob) - 8:
            raise CorruptCheckpoint(f"tensor {name!r} truncated")
        arr = np.frombuffer(blob, dtype="<f4", count=size // 4, offset=offset)
        params[name] = arr.astype(np.float64).reshape(shape)
        offset += size
    if offset != len(blob) - 8:
        raise CorruptCheckpoint("trailing bytes after tensors")
    # built after the tensors: built before them, a 30k-token vocab raised
    # the peak resident memory of a load by about 3.5 MB
    vocab = _vocab_from_header(header)
    return TaggerModel(
        arch=header["arch"],
        hyper=hyper,
        labels=labels,
        vocab=vocab,
        tokenizer_mode=header["tokenizer_mode"],
        vocab_size=header["vocab_size"],
        pad_id=header["pad_id"],
        params=params,
    )


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
