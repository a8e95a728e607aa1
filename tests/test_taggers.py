import hashlib
import json
import random
import struct

import numpy as np
import pytest

from subner import nn
from subner.alignment import ClubbingStrategy, make_padded_batch, propagate_labels
from subner.corpus import LabelSet, build_label_set, parse_conll
from subner.errors import (
    CorruptCheckpoint,
    InvalidHyper,
    LabelMismatch,
    NonFiniteLoss,
    SubnerError,
    VersionMismatch,
)
from subner.metrics import evaluate
from subner.taggers import (
    ARCHS,
    CHECKPOINT_MAGIC,
    HEADER_KEYS,
    Hyperparams,
    TrainConfig,
    _clip_grads,
    backward,
    build_model,
    check_label_compat,
    count_params,
    forward,
    load_checkpoint,
    predict_sentence,
    save_checkpoint,
    train,
)
from subner.tokenizers import Vocab, VocabSegmenter, build_word_vocab

TOY = "\n".join([
    "pune\tB-NEL\nis\tO\nbig\tO\n",
    "raj\tB-NEP\nlives\tO\nin\tO\npune\tB-NEL\n",
    "delhi\tB-NEL\nand\tO\nmumbai\tB-NEL\n",
    "anita\tB-NEP\nmet\tO\nraj\tB-NEP\n",
    "the\tO\ncity\tO\nof\tO\nnagpur\tB-NEL\n",
    "sita\tB-NEP\nwent\tO\nhome\tO\n",
    "rivers\tO\nflow\tO\nnear\tO\ndelhi\tB-NEL\n",
    "old\tO\nfort\tO\nin\tO\nagra\tB-NEL\n",
    "kiran\tB-NEP\nreads\tO\nbooks\tO\n",
    "train\tO\nto\tO\nmumbai\tB-NEL\nleft\tO\n",
])


def small_hyper(num_labels, **overrides):
    kwargs = dict(embed_dim=16, conv_filters=16, conv_kernel=3,
                  lstm_hidden=8, bilstm_hidden=8, num_labels=num_labels)
    kwargs.update(overrides)
    return Hyperparams(**kwargs)


@pytest.fixture()
def toy():
    corpus = parse_conll(TOY, "train")
    labels = build_label_set(corpus)
    vocab = build_word_vocab(corpus, 1)
    return corpus, labels, vocab, VocabSegmenter(vocab, "word")


def test_build_model_deterministic(toy):
    _, labels, vocab, _ = toy
    hyper = small_hyper(len(labels))
    a = build_model("CNN", hyper, vocab, labels, 5, tokenizer_mode="word")
    b = build_model("CNN", hyper, vocab, labels, 5, tokenizer_mode="word")
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_build_model_shapes(toy):
    _, _, vocab, _ = toy
    labels8 = LabelSet(("O", "B-1", "B-2", "B-3", "B-4", "B-5", "B-6", "B-7"))
    model = build_model("CNN", small_hyper(8), vocab, labels8, 0,
                        tokenizer_mode="word")
    assert model.params["dense_b"].shape == (8,)
    bi = build_model("BiLSTM", Hyperparams(num_labels=8), vocab, labels8, 0,
                     tokenizer_mode="word")
    assert bi.feature_width == 1024  # 2 x 512
    assert bi.params["dense_W"].shape == (1024, 8)


def test_build_model_invalid(toy):
    _, labels, vocab, _ = toy
    with pytest.raises(InvalidHyper):
        build_model("GRU", small_hyper(len(labels)), vocab, labels, 0)
    with pytest.raises(InvalidHyper):
        Hyperparams(conv_kernel=2)
    with pytest.raises(InvalidHyper):
        Hyperparams(embed_dim=0)


def test_count_params_closed_form():
    vocab = Vocab(("[PAD]", "[UNK]") + tuple(f"w{i}" for i in range(998)))
    labels8 = LabelSet(("O", "B-1", "B-2", "B-3", "B-4", "B-5", "B-6", "B-7"))
    hyper = Hyperparams(num_labels=8)  # paper sizes: 300/512/3/512

    cnn = build_model("CNN", hyper, vocab, labels8, 0, tokenizer_mode="word")
    assert count_params(cnn) == 1000 * 300 + (3 * 300 * 512 + 512) + (512 * 8 + 8)

    lstm = build_model("LSTM", hyper, vocab, labels8, 0, tokenizer_mode="word")
    assert count_params(lstm) == \
        1000 * 300 + 4 * (512 * (300 + 512) + 512) + (512 * 8 + 8)

    bilstm = build_model("BiLSTM", hyper, vocab, labels8, 0, tokenizer_mode="word")
    assert count_params(bilstm) == \
        1000 * 300 + 2 * 4 * (512 * (300 + 512) + 512) + (1024 * 8 + 8)


def test_train_deterministic(toy):
    corpus, labels, vocab, seg = toy
    hyper = small_hyper(len(labels))
    config = TrainConfig(epochs=3, batch_size=4, max_len=8, seed=2)
    histories = []
    for _ in range(2):
        model = build_model("CNN", hyper, vocab, labels, 2, tokenizer_mode="word")
        _, history = train(model, corpus, None, seg, config)
        histories.append(history)
    assert histories[0].train_loss == histories[1].train_loss
    assert histories[0].to_file_text() == histories[1].to_file_text()


def test_train_overfits_toy_cnn(toy):
    corpus, labels, vocab, seg = toy
    hyper = small_hyper(len(labels), embed_dim=32, conv_filters=64)
    config = TrainConfig(epochs=40, batch_size=2, max_len=8,
                         learning_rate=5e-3, seed=1)
    model = build_model("CNN", hyper, vocab, labels, 1, tokenizer_mode="word")
    model, _ = train(model, corpus, None, seg, config)
    report = evaluate(model, corpus, seg, ClubbingStrategy.FIRST)
    assert report.accuracy == 1.0


def test_predict_length_contract(toy):
    corpus, labels, vocab, seg = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    words = ["pune", "unknownword", "is", "big", "x"]
    for strategy in ClubbingStrategy:
        pairs = predict_sentence(model, words, seg, strategy)
        assert len(pairs) == 5
        assert [w for w, _ in pairs] == words


def test_predict_uniform_logits_argmax_zero(toy):
    corpus, labels, vocab, seg = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    model.params["dense_W"][:] = 0.0
    model.params["dense_b"][:] = 0.0
    pairs = predict_sentence(model, ["pune", "is"], seg)
    assert [t for _, t in pairs] == [labels.labels[0]] * 2


def test_softmax_distribution_sums_to_one(toy):
    corpus, labels, vocab, seg = toy
    from subner import nn
    model = build_model("LSTM", small_hyper(len(labels)), vocab, labels, 3,
                        tokenizer_mode="word")
    enc = seg.encode(corpus.sentences[0].words)
    logits, _ = forward(model, enc.ids)
    probs = nn.softmax(logits)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6


def test_checkpoint_round_trip(tmp_path, toy):
    corpus, labels, vocab, seg = toy
    model = build_model("BiLSTM", small_hyper(len(labels)), vocab, labels, 4,
                        tokenizer_mode="word")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for name in model.params:
        assert np.array_equal(model.params[name], loaded.params[name])
    assert loaded.labels == model.labels
    assert loaded.vocab.token_of == vocab.token_of
    words = corpus.sentences[1].words
    assert predict_sentence(model, words, seg) == \
        predict_sentence(loaded, words, seg)


def test_checkpoint_byte_stable(tmp_path, toy):
    _, labels, vocab, _ = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 4,
                        tokenizer_mode="word")
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncated(tmp_path, toy):
    _, labels, vocab, _ = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-20])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def test_label_mismatch_on_eval(tmp_path, toy):
    corpus, labels, vocab, seg = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    other = parse_conll("x\tB-UNSEEN\n\n")
    with pytest.raises(LabelMismatch):
        check_label_compat(model.labels, other)
    with pytest.raises(LabelMismatch):
        evaluate(model, other, seg)


def test_train_rejects_unknown_tags(toy):
    corpus, labels, vocab, seg = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    bad = parse_conll("x\tB-UNSEEN\n\n")
    with pytest.raises(LabelMismatch):
        train(model, bad, None, seg, TrainConfig(epochs=1))


def test_train_raises_on_non_finite_loss(toy):
    corpus, labels, vocab, seg = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss, match="epoch 1: batch loss is nan"):
            train(model, corpus, None, seg, config)


@pytest.mark.parametrize("arch", ARCHS)
def test_train_ignores_padding(toy, arch):
    # one sentence, so a max_len above its length can only add padding
    corpus, labels, vocab, seg = toy
    one = parse_conll(TOY.split("\n\n")[1], "train")
    n_subtokens = len(seg.encode(one.sentences[0].words).ids)
    runs = []
    for max_len in (n_subtokens, 128):
        model = build_model(arch, small_hyper(len(labels)), vocab, labels, 6,
                            tokenizer_mode="word")
        config = TrainConfig(epochs=3, batch_size=4, max_len=max_len, seed=6)
        runs.append(train(model, one, None, seg, config))
    (short, short_history), (long, long_history) = runs
    assert short_history.train_loss == long_history.train_loss
    for name in short.params:
        assert np.array_equal(short.params[name], long.params[name]), name


# words outside the TOY vocab all map to [UNK], so ids repeat within rows
REPEATS = TOY + "\n" + "\n".join([
    "zz\tO\nraj\tB-NEP\nzz\tO\nraj\tB-NEP\n",
    "pune\tB-NEL\nyy\tO\npune\tB-NEL\nin\tO\nxx\tO\nmumbai\tB-NEL\n",
])


def dense_reference_train(model, corpus, seg, config):
    """Reference training loop with dense gradients: every row's gradient of
    every table, the embedding's as a dense vocab x dim table, is added into
    zeros, and RMSProp updates every entry of every table.
    Returns the train losses, each step's gradients and which kinds of
    embedding rows occurred."""
    rows = []
    for sent in corpus:
        enc = seg.encode(sent.words)
        sub_tags = propagate_labels(list(sent.tags), enc)
        rows.append((enc, [model.labels.index(t) for t in sub_tags]))
    s = {name: np.zeros_like(p) for name, p in model.params.items()}
    rng = np.random.default_rng(config.seed)
    losses, steps = [], []
    seen = {"within": False, "across": False, "untouched": False}
    for _ in range(config.epochs):
        order = rng.permutation(len(rows))
        nll_total = mask_total = 0.0
        for start in range(0, len(rows), config.batch_size):
            batch = make_padded_batch(
                [rows[i] for i in order[start:start + config.batch_size]],
                config.max_len, model.pad_id)
            denom = float(batch.mask.sum())
            grads = {name: np.zeros_like(p) for name, p in model.params.items()}
            batch_ids = []
            for row in range(batch.ids.shape[0]):
                keep = int(batch.mask[row].sum())
                ids = batch.ids[row, :keep]
                seen["within"] |= len(set(ids.tolist())) < keep
                seen["across"] |= bool(set(ids.tolist()) & set(batch_ids))
                batch_ids += ids.tolist()
                logits, cache = forward(model, ids)
                loss, dlogits = nn.masked_softmax_ce(
                    logits, batch.label_indices[row, :keep],
                    batch.mask[row, :keep], denom=denom)
                nll_total += loss * denom
                for name, g in backward(model, cache, dlogits).items():
                    if name == "embed":  # rows are unique: the dense table
                        g = nn.embedding_backward(g.rows, g.values,
                                                  model.vocab_size)
                    grads[name] += g
            seen["untouched"] |= len(set(batch_ids)) < model.vocab_size
            mask_total += denom
            steps.append(grads)
            for name, g in grads.items():
                s[name] *= config.rho
                s[name] += (1.0 - config.rho) * g * g
                model.params[name] -= (config.learning_rate * g
                                       / (np.sqrt(s[name]) + config.epsilon))
        losses.append(nll_total / mask_total)
    for name, p in model.params.items():
        model.params[name] = p.astype(np.float32).astype(np.float64)
    return losses, steps, seen


@pytest.mark.parametrize("arch", ARCHS)
def test_train_matches_dense_reference(toy, arch, monkeypatch):
    corpus, labels, vocab, seg = toy
    repeats = parse_conll(REPEATS, "train")
    config = TrainConfig(epochs=3, batch_size=6, max_len=5, seed=4,
                         learning_rate=1e-2)
    runs = []
    for _ in range(2):
        runs.append(build_model(arch, small_hyper(len(labels)), vocab, labels,
                                9, tokenizer_mode="word"))
    # RMSProp divides out most of a gradient's last bits, so the gradients
    # each step receives are compared as well as the trained parameters
    steps = []
    rmsprop_step = nn.rmsprop_step

    def recording_step(params, grads, state):
        steps.append({name: nn.embedding_backward(g.rows, g.values, len(vocab))
                      if isinstance(g, nn.RowGrad) else g.copy()
                      for name, g in grads.items()})
        rmsprop_step(params, grads, state)

    monkeypatch.setattr(nn, "rmsprop_step", recording_step)
    trained, history = train(runs[0], repeats, None, seg, config)
    losses, ref_steps, seen = dense_reference_train(runs[1], repeats, seg,
                                                    config)
    assert seen == {"within": True, "across": True, "untouched": True}
    assert history.truncated_rows > 0
    assert history.train_loss == losses
    assert len(steps) == len(ref_steps)
    for step, ref_step in zip(steps, ref_steps):
        assert step.keys() == ref_step.keys()
        for name in step:
            assert np.array_equal(step[name], ref_step[name]), name
    for name in trained.params:
        assert np.array_equal(trained.params[name], runs[1].params[name]), name


def test_clip_grads_counts_row_grads(toy):
    corpus, labels, vocab, seg = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 1,
                        tokenizer_mode="word")
    enc = seg.encode(corpus.sentences[1].words)
    logits, cache = forward(model, enc.ids)
    label_idx = [labels.index(t) for t in corpus.sentences[1].tags]
    _, dlogits = nn.masked_softmax_ce(logits, label_idx, np.ones(len(label_idx)))
    grads = backward(model, cache, dlogits)
    assert isinstance(grads["embed"], nn.RowGrad)

    def dense_norm():
        tables = [nn.embedding_backward(g.rows, g.values, model.vocab_size)
                  if isinstance(g, nn.RowGrad) else g for g in grads.values()]
        return np.sqrt(sum(float((t * t).sum()) for t in tables))

    before = dense_norm()
    max_norm = before / 3.0
    assert _clip_grads(grads, max_norm) == pytest.approx(before, rel=1e-12)
    assert dense_norm() == pytest.approx(max_norm, rel=1e-12)
    assert _clip_grads(grads, 2.0 * max_norm) == \
        pytest.approx(max_norm, rel=1e-12)
    assert dense_norm() == pytest.approx(max_norm, rel=1e-12)


def test_train_with_grad_clip_deterministic(toy):
    corpus, labels, vocab, seg = toy
    runs = []
    for grad_clip in (0.05, 0.05, None):
        model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 2,
                            tokenizer_mode="word")
        config = TrainConfig(epochs=3, batch_size=4, max_len=8, seed=2,
                             learning_rate=1e-2, grad_clip=grad_clip)
        runs.append(train(model, corpus, None, seg, config)[0].params)
    clipped, again, unclipped = runs
    for name in clipped:
        assert np.array_equal(clipped[name], again[name]), name
    assert not np.array_equal(clipped["conv_w"], unclipped["conv_w"])


def resign_header(path, edit):
    """Rewrite a checkpoint's JSON header with `edit(header)` and sign the
    result with a valid checksum, so only the header checks can reject it."""
    blob = path.read_bytes()
    offset = len(CHECKPOINT_MAGIC)
    version, header_len = struct.unpack_from("<II", blob, offset)
    start = offset + 8
    header = json.loads(blob[start:start + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = (CHECKPOINT_MAGIC + struct.pack("<II", version, len(header_bytes))
            + header_bytes + blob[start + header_len:-8])
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])


@pytest.mark.parametrize("key", HEADER_KEYS)
def test_checkpoint_header_missing_key(tmp_path, toy, key):
    _, labels, vocab, _ = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    resign_header(path, lambda header: header.pop(key))
    with pytest.raises(CorruptCheckpoint, match=key):
        load_checkpoint(path)


HEADER_EDITS = {
    "other_arch": lambda header: header.update(
        arch=next(a for a in ARCHS if a != header["arch"])),
    "embed_dim": lambda header: header["hyper"].update(embed_dim=17),
    "tensor_name": lambda header: header["tensors"][0].__setitem__(0, "x"),
    "tensor_shape": lambda header: header["tensors"][0][1].append(1),
    "tensor_dropped": lambda header: header["tensors"].pop(),
    "vocab_size": lambda header: header.update(
        vocab_size=header["vocab_size"] + 1),
    "label_dropped": lambda header: header["labels"].pop(),
    "hyper_unknown_key": lambda header: header["hyper"].update(depth=2),
    "pad_id": lambda header: header.update(
        pad_id=(header["pad_id"] + 1) % header["vocab_size"]),
    "unk_token_missing": lambda header: header.update(unk_token="[NONE]"),
    "hyper_float": lambda header: header["hyper"].update(
        embed_dim=float(header["hyper"]["embed_dim"])),
    "tokenizer_mode": lambda header: header.update(tokenizer_mode="bpe"),
}


@pytest.mark.parametrize("edit", HEADER_EDITS.values(), ids=HEADER_EDITS)
def test_checkpoint_header_disagrees_with_arch(tmp_path, toy, edit):
    _, labels, vocab, _ = toy
    for arch in ARCHS:
        model = build_model(arch, small_hyper(len(labels)), vocab, labels, 0,
                            tokenizer_mode="word")
        path = tmp_path / f"{arch}.ckpt"
        save_checkpoint(model, path)
        load_checkpoint(path)
        resign_header(path, edit)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)


def test_checkpoint_fuzz_raises_only_subner_errors(tmp_path, toy):
    # flipped or truncated bytes under a valid checksum: only the format and
    # header checks stand between them and the loader
    _, labels, vocab, _ = toy
    rng = random.Random(505)
    path = tmp_path / "fuzz.ckpt"
    outcomes = {"loaded": 0, "rejected": 0}
    for arch in ARCHS:
        model = build_model(arch, small_hyper(len(labels), embed_dim=2,
                                              conv_filters=2, lstm_hidden=2,
                                              bilstm_hidden=2),
                            vocab, labels, 0, tokenizer_mode="word")
        save_checkpoint(model, path)
        body = path.read_bytes()[:-8]
        header_end = len(CHECKPOINT_MAGIC) + 8 + struct.unpack_from(
            "<I", body, len(CHECKPOINT_MAGIC) + 4)[0]
        for trial in range(400):
            data = bytearray(body)
            if rng.random() < 0.2:
                del data[rng.randrange(len(data)):]
            else:
                for _ in range(rng.randint(1, 3)):
                    # most flips land in the header, where the checks are
                    end = header_end if rng.random() < 0.8 else len(data)
                    data[rng.randrange(end)] ^= rng.randrange(1, 256)
            path.write_bytes(bytes(data) + hashlib.sha256(data).digest()[:8])
            try:
                with np.errstate(invalid="ignore"):
                    load_checkpoint(path)
                outcomes["loaded"] += 1
            except SubnerError:
                outcomes["rejected"] += 1
            except Exception as exc:  # noqa: BLE001 - the property under test
                pytest.fail(f"{arch} trial {trial}: {type(exc).__name__}: {exc}")
    assert outcomes["rejected"] > outcomes["loaded"] > 0
