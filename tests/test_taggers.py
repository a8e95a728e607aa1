import hashlib
import json
import struct

import numpy as np
import pytest

from subner.alignment import ClubbingStrategy
from subner.corpus import LabelSet, build_label_set, parse_conll
from subner.errors import (
    CorruptCheckpoint,
    InvalidHyper,
    LabelMismatch,
    NonFiniteLoss,
    VersionMismatch,
)
from subner.metrics import evaluate
from subner.taggers import (
    ARCHS,
    CHECKPOINT_MAGIC,
    HEADER_KEYS,
    Hyperparams,
    TrainConfig,
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
