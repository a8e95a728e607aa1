import dataclasses
import errno
import hashlib
import io
import json
import os
import random
import struct
import tracemalloc

import numpy as np
import pytest

from subner import metrics, nn, taggers, util
from subner.alignment import ClubbingStrategy, make_padded_batch, propagate_labels
from subner.corpus import (
    LabeledCorpus,
    LabelSet,
    SynthConfig,
    build_label_set,
    generate_synthetic,
    parse_conll,
    synthetic_vocab_tokens,
)
from subner.errors import (
    CorruptCheckpoint,
    EmptySplit,
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
    _grad_norm,
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
    vocab = build_word_vocab(corpus)
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
    assert bi.params["dense_W"].shape == (1024, 8)  # 2 x 512 features


@pytest.mark.parametrize("arch", ARCHS)
def test_build_model_draws_the_documented_initialization(toy, arch):
    # an independent statement of build_model's docstring: one generator
    # draws the embedding, the layer (each LSTM direction through
    # init_lstm_params, forward before backward), then the dense weight;
    # biases are zero but the LSTM forget gate's; each cast to float32
    _, labels, vocab, _ = toy
    hyper = small_hyper(len(labels), lstm_hidden=6, bilstm_hidden=5)
    d, n = hyper.embed_dim, len(labels)
    rng = np.random.default_rng(11)
    expected = {"embed": rng.uniform(-0.05, 0.05, size=(len(vocab), d))}
    if arch == "CNN":
        f = hyper.conv_filters
        expected["conv_w"] = rng.uniform(-0.05, 0.05,
                                         size=(hyper.conv_kernel, d, f))
        expected["conv_b"] = np.zeros(f)
        width = f
    else:
        h = hyper.lstm_hidden if arch == "LSTM" else hyper.bilstm_hidden
        directions = ["lstm"] if arch == "LSTM" else ["lstm_fw", "lstm_bw"]
        for direction in directions:
            W, U, b = nn.init_lstm_params(rng, d, h)
            assert np.array_equal(b, np.repeat([0.0, 1.0, 0.0, 0.0], h))
            expected.update({f"{direction}_W": W, f"{direction}_U": U,
                             f"{direction}_b": b})
        width = h * len(directions)
    expected["dense_W"] = rng.uniform(-0.05, 0.05, size=(width, n))
    expected["dense_b"] = np.zeros(n)

    model = build_model(arch, hyper, vocab, labels, 11, tokenizer_mode="word")
    assert sorted(model.params) == sorted(expected)
    for name, value in expected.items():
        assert model.params[name].dtype == np.float32, name
        assert np.array_equal(model.params[name],
                              value.astype(np.float32)), name
    assert model.vocab_size == len(vocab)


def test_build_model_block_draw_equals_one_whole_table_draw():
    # a table taller than one block, with a ragged last block: the blocks
    # take the generator's values in the order one whole-table draw does,
    # and the tensor drawn after the table starts where that draw ends
    labels = LabelSet(("O", "B-X"))
    hyper = small_hyper(2)
    rows = 2 * nn.DRAW_BLOCK_ROWS + 5
    rng = np.random.default_rng(13)
    embed = rng.uniform(-0.05, 0.05, size=(rows, hyper.embed_dim))
    conv_w = rng.uniform(-0.05, 0.05, size=(hyper.conv_kernel,
                                            hyper.embed_dim,
                                            hyper.conv_filters))
    model = build_model("CNN", hyper, None, labels, 13,
                        tokenizer_mode="external", vocab_size=rows)
    for name, value in (("embed", embed), ("conv_w", conv_w)):
        assert model.params[name].dtype == np.float32, name
        assert model.params[name].tobytes() == \
            value.astype(np.float32).tobytes(), name


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


@pytest.mark.parametrize("arch", ARCHS)
def test_train_deterministic(tmp_path, toy, arch):
    # equal seeds give equal history and checkpoint bytes, with a validation
    # split and a max_len that truncates the four-word sentences
    corpus, labels, vocab, seg = toy
    train_split = LabeledCorpus(corpus.sentences[:7], "train")
    val_split = LabeledCorpus(corpus.sentences[7:], "validation")
    config = TrainConfig(epochs=4, batch_size=3, max_len=3, seed=2,
                         learning_rate=0.03)
    histories, checkpoints = [], []
    for run in range(2):
        model = build_model(arch, small_hyper(len(labels)), vocab, labels, 2,
                            tokenizer_mode="word")
        model, history = train(model, train_split, val_split, seg, config)
        assert history.truncated_rows > 0 and None not in history.val_macro_f1
        save_checkpoint(model, tmp_path / f"{run}.ckpt")
        histories.append((history.train_loss, history.to_file_text()))
        checkpoints.append((tmp_path / f"{run}.ckpt").read_bytes())
    assert histories[0] == histories[1]
    assert checkpoints[0] == checkpoints[1]


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


def test_train_raises_on_non_finite_gradient_norm(toy, monkeypatch):
    corpus, labels, vocab, seg = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    real_backward = taggers.backward

    def poisoned_backward(model, cache, dlogits):
        grads = real_backward(model, cache, dlogits)
        grads["dense_b"][0] = np.inf
        return grads

    monkeypatch.setattr(taggers, "backward", poisoned_backward)
    with pytest.raises(NonFiniteLoss, match="epoch 1: gradient norm is inf"):
        train(model, corpus, None, seg, TrainConfig(epochs=1, batch_size=4))


def test_train_raises_on_diverging_mean_loss(toy):
    corpus, labels, vocab, seg = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    config = TrainConfig(epochs=2, batch_size=2, learning_rate=1e6)
    with pytest.raises(NonFiniteLoss, match=r"epoch 1: mean train loss .* "
                       r"exceeds 100 x ln\(3\)"):
        train(model, corpus, None, seg, config)


def test_train_rejects_empty_validation_split(toy):
    corpus, labels, vocab, seg = toy
    model = build_model("LSTM", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    with pytest.raises(EmptySplit, match="empty validation split"):
        train(model, corpus, LabeledCorpus((), "validation"), seg,
              TrainConfig(epochs=1))


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


@pytest.mark.parametrize("arch", ["CNN", "BiLSTM"])
def test_best_epoch_restore_equals_training_to_the_best_epoch(toy, arch):
    # validation draws no random numbers, so the best epoch's parameters are
    # those of a run that stops there; 200 rows no sentence uses must keep
    # the bytes build_model gave them
    corpus, labels, vocab, _ = toy
    vocab = Vocab(vocab.token_of + tuple(f"unused{i}" for i in range(200)))
    seg = VocabSegmenter(vocab, "word")
    train_split = LabeledCorpus(corpus.sentences[:8], "train")
    val_split = LabeledCorpus(corpus.sentences[5:], "validation")
    config = TrainConfig(epochs=8, batch_size=3, max_len=16, seed=2,
                         patience=8, learning_rate=0.03)

    def fresh():
        return build_model(arch, small_hyper(len(labels)), vocab, labels, 2,
                           tokenizer_mode="word")

    best, history = train(fresh(), train_split, val_split, seg, config)
    assert 1 < history.best_epoch < config.epochs
    short, short_history = train(
        fresh(), train_split, None, seg,
        dataclasses.replace(config, epochs=history.best_epoch))
    assert short_history.train_loss == history.train_loss[:history.best_epoch]
    for name in best.params:
        assert best.params[name].tobytes() == short.params[name].tobytes(), name
    used = {i for sent in train_split for i in seg.encode(sent.words).ids}
    untouched = sorted(set(range(len(vocab))) - used)
    assert len(untouched) >= 200
    assert (best.params["embed"][untouched].tobytes()
            == fresh().params["embed"][untouched].tobytes())


@pytest.mark.parametrize("arch", ["CNN", "BiLSTM"])
def test_training_state_covers_the_training_split_rows_only(toy, arch,
                                                          monkeypatch):
    # RMSProp's state holds one embedding row per distinct training id: not
    # the 200 rows no sentence uses, nor the rows of words that only the
    # validation split holds. After the best epoch is restored, every row
    # outside the training ids keeps the bytes build_model gave it.
    corpus, labels, vocab, _ = toy
    vocab = Vocab(vocab.token_of + tuple(f"unused{i}" for i in range(200)))
    seg = VocabSegmenter(vocab, "word")
    train_split = LabeledCorpus(corpus.sentences[:6], "train")
    val_split = LabeledCorpus(corpus.sentences[6:], "validation")
    used = {i for sent in train_split for i in seg.encode(sent.words).ids}
    val_only = {i for sent in val_split
                for i in seg.encode(sent.words).ids} - used
    assert len(val_only) >= 10
    state_rows = set()
    rmsprop_step = nn.rmsprop_step

    def recording_step(params, grads, state):
        state_rows.add(state.s["embed"].shape[0])
        rmsprop_step(params, grads, state)

    monkeypatch.setattr(nn, "rmsprop_step", recording_step)
    config = TrainConfig(epochs=8, batch_size=3, max_len=16, seed=2,
                         patience=8, learning_rate=0.03)
    initial = build_model(arch, small_hyper(len(labels)), vocab, labels, 2,
                          tokenizer_mode="word")
    trained, history = train(
        build_model(arch, small_hyper(len(labels)), vocab, labels, 2,
                    tokenizer_mode="word"),
        train_split, val_split, seg, config)
    assert state_rows == {len(used)}
    assert history.best_epoch < len(history.train_loss)  # a restore ran
    untouched = sorted(set(range(len(vocab))) - used)
    assert (trained.params["embed"][untouched].tobytes()
            == initial.params["embed"][untouched].tobytes())
    assert (trained.params["embed"][sorted(used)]
            != initial.params["embed"][sorted(used)]).any(axis=1).all()


# words outside the TOY vocab all map to [UNK], so ids repeat within rows
REPEATS = TOY + "\n" + "\n".join([
    "zz\tO\nraj\tB-NEP\nzz\tO\nraj\tB-NEP\n",
    "pune\tB-NEL\nyy\tO\npune\tB-NEL\nin\tO\nxx\tO\nmumbai\tB-NEL\n",
])


ARCH_BACKWARD = {"CNN": nn.conv1d_backward, "LSTM": nn.lstm_backward,
                 "BiLSTM": nn.bilstm_backward}


def dense_reference_train(model, corpus, seg, config):
    """Reference training loop with dense gradients: each batch's embedding
    gradient is added position by position into a dense vocab x dim table of
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
        nll_total = positions = 0.0
        for start in range(0, len(rows), config.batch_size):
            batch = make_padded_batch(
                [rows[i] for i in order[start:start + config.batch_size]],
                config.max_len)
            batch_ids = []
            for ids in np.split(batch.ids, np.cumsum(batch.lengths)[:-1]):
                ids = ids.tolist()
                seen["within"] |= len(set(ids)) < len(ids)
                seen["across"] |= bool(set(ids) & set(batch_ids))
                batch_ids += ids
            seen["untouched"] |= len(set(batch_ids)) < model.vocab_size
            logits, cache = forward(model, batch.ids, batch.lengths)
            loss, dlogits = nn.masked_softmax_ce(logits, batch.label_indices)
            nll_total += loss * batch.ids.size
            positions += batch.ids.size
            grads = backward(model, cache, dlogits)
            # the per-position embedding gradient, added into zeros
            ids, arch_cache, dense_cache = cache
            dfeat = nn.dense_backward(dense_cache, dlogits)[0]
            demb = ARCH_BACKWARD[model.arch](arch_cache, dfeat)[0]
            grads["embed"] = np.zeros_like(model.params["embed"])
            np.add.at(grads["embed"], ids, demb)
            steps.append(grads)
            for name, g in grads.items():
                s[name] *= nn.RHO
                s[name] += (1.0 - nn.RHO) * g * g
                model.params[name] -= (config.learning_rate * g
                                       / (np.sqrt(s[name]) + nn.EPSILON))
        losses.append(nll_total / positions)
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
    # each step receives are compared as well as the trained parameters;
    # `train` steps on the table rows of the training split's sorted ids
    used = np.unique([i for sent in repeats for i in seg.encode(sent.words).ids])
    steps = []
    rmsprop_step = nn.rmsprop_step

    def recording_step(params, grads, state):
        steps.append({name: nn.embedding_backward(used[g.rows], g.values,
                                                  len(vocab))
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


def split_rows(array, lengths):
    return np.split(array, np.cumsum(lengths)[:-1])


def in_float64(model):
    """`model` with its float32 parameters cast to float64, for tests whose
    subject is not precision and that compare at float64 tolerances."""
    model.params = {name: p.astype(np.float64)
                    for name, p in model.params.items()}
    return model


@pytest.mark.parametrize("arch", ARCHS)
def test_packed_batch_matches_batch_of_one(toy, arch):
    # in float64, a packed batch only reorders the sums inside the GEMMs:
    # logits and gradients agree with the batch of one to rounding
    corpus, labels, vocab, seg = toy
    model = in_float64(build_model(arch, small_hyper(len(labels)), vocab,
                                   labels, 5, tokenizer_mode="word"))
    sentences = (corpus.sentences[1], parse_conll("pune\tB-NEL\n").sentences[0],
                 parse_conll(REPEATS).sentences[-1], corpus.sentences[0],
                 corpus.sentences[4])
    rows = []
    for sent in sentences:
        enc = seg.encode(sent.words)
        rows.append((enc, [labels.index(t) for t in
                           propagate_labels(list(sent.tags), enc)]))
    batch = make_padded_batch(rows, max_len=5)
    # unsorted, mixed lengths, a length-1 row and a row truncated at max_len
    assert batch.lengths.tolist() == [4, 1, 5, 3, 4]
    assert batch.truncated_rows == 1
    logits, cache = forward(model, batch.ids, batch.lengths)
    _, dlogits = nn.masked_softmax_ce(logits, batch.label_indices)
    grads = backward(model, cache, dlogits)
    expected = {name: np.zeros_like(p) for name, p in model.params.items()}
    for ids, row_logits, row_dlogits in zip(
            split_rows(batch.ids, batch.lengths),
            split_rows(logits, batch.lengths),
            split_rows(dlogits, batch.lengths)):
        one_logits, one_cache = forward(model, ids)
        assert np.allclose(row_logits, one_logits, rtol=1e-12, atol=1e-15)
        for name, g in backward(model, one_cache, row_dlogits).items():
            if isinstance(g, nn.RowGrad):
                g = nn.embedding_backward(g.rows, g.values, model.vocab_size)
            expected[name] += g
    assert isinstance(grads["embed"], nn.RowGrad)
    grads["embed"] = nn.embedding_backward(*grads["embed"], model.vocab_size)
    for name, g in grads.items():
        assert np.allclose(g, expected[name], rtol=1e-10, atol=1e-15), name


@pytest.mark.parametrize("arch", ARCHS)
def test_float32_end_to_end(tmp_path, toy, arch, monkeypatch):
    # one float64 scalar in a product upcasts a whole step (numpy 2's NEP 50
    # promotion), so parameters, RMSProp state, the logits of training and
    # validation, and every gradient are all checked
    corpus, labels, vocab, seg = toy
    float32 = np.dtype(np.float32)
    model = build_model(arch, small_hyper(len(labels)), vocab, labels, 3,
                        tokenizer_mode="word")
    assert {p.dtype for p in model.params.values()} == {float32}
    save_checkpoint(model, tmp_path / "model.ckpt")
    model = load_checkpoint(tmp_path / "model.ckpt")
    assert {p.dtype for p in model.params.values()} == {float32}

    seen = {}
    real_forward, real_step = taggers.forward, nn.rmsprop_step

    def recording_forward(model, ids, lengths=None):
        logits, cache = real_forward(model, ids, lengths)
        seen.setdefault("logits", set()).add(logits.dtype)
        return logits, cache

    def recording_step(params, grads, state):
        for name, g in grads.items():
            g = g.values if isinstance(g, nn.RowGrad) else g
            seen.setdefault(f"grad {name}", set()).add(g.dtype)
        for name, s in state.s.items():
            seen.setdefault(f"s {name}", set()).add(s.dtype)
        real_step(params, grads, state)

    monkeypatch.setattr(taggers, "forward", recording_forward)
    monkeypatch.setattr(nn, "rmsprop_step", recording_step)
    config = TrainConfig(epochs=3, batch_size=4, max_len=8, seed=3,
                         learning_rate=0.03)
    trained, history = train(model, LabeledCorpus(corpus.sentences[:7]),
                             LabeledCorpus(corpus.sentences[7:]), seg, config)
    assert history.best_epoch is not None  # the restore path ran
    assert sorted(seen) == sorted(["logits"]
                                  + [f"grad {name}" for name in model.params]
                                  + [f"s {name}" for name in model.params])
    assert all(dtypes == {float32} for dtypes in seen.values()), seen
    assert {p.dtype for p in trained.params.values()} == {float32}


@pytest.mark.parametrize("arch", ARCHS)
def test_float32_training_tracks_float64(toy, arch):
    # nine RMSProp steps of a float32 model against the same steps on a
    # float64 copy of its parameters. Measured: epoch losses agree to 5e-8
    # (relative) and parameters to 1.8e-6 (absolute, the LSTM's), while the
    # steps move them by about 0.25; the bounds leave 200x and 5x of room.
    corpus, labels, vocab, seg = toy
    config = TrainConfig(epochs=3, batch_size=4, max_len=8, seed=5,
                         learning_rate=1e-2)
    runs = []
    for cast in (lambda m: m, in_float64):
        model = cast(build_model(arch, small_hyper(len(labels)), vocab,
                                 labels, 5, tokenizer_mode="word"))
        runs.append(train(model, corpus, None, seg, config))
    (single, single_history), (double, double_history) = runs
    assert single.params["embed"].dtype == np.float32
    assert double.params["embed"].dtype == np.float64
    assert np.allclose(single_history.train_loss, double_history.train_loss,
                       rtol=1e-5, atol=0)
    initial = build_model(arch, small_hyper(len(labels)), vocab, labels, 5,
                          tokenizer_mode="word").params
    moved = max(np.abs(double.params[name] - initial[name]).max()
                for name in initial)
    assert moved > 0.1
    for name in initial:
        assert np.allclose(single.params[name], double.params[name],
                           rtol=0, atol=1e-5), name


def test_predict_encodings_blocks_by_subtoken_cap(toy, monkeypatch):
    corpus, labels, vocab, seg = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    monkeypatch.setattr(taggers, "PREDICT_BLOCK_SUBTOKENS", 7)
    blocks = []
    real_forward = taggers.forward

    def recording_forward(model, ids, lengths=None):
        blocks.append(list(lengths))
        return real_forward(model, ids, lengths)

    monkeypatch.setattr(taggers, "forward", recording_forward)
    encodings = [seg.encode(sent.words) for sent in corpus]
    encodings.append(seg.encode(["pune"] * 9))  # longer than a block
    taggers.predict_encodings(model, encodings)
    forwarded = [n for block in blocks for n in block]
    assert forwarded == sorted(len(enc.ids) for enc in encodings)
    assert all(sum(block) <= 7 or len(block) == 1 for block in blocks)
    assert [9] in blocks and len(blocks) < len(encodings)


@pytest.mark.parametrize("arch", ARCHS)
def test_evaluate_labels_match_predict_sentence(arch, monkeypatch):
    # the bench's tag-eval recounts evaluate's scores from predict_sentence
    cfg = SynthConfig(stems_per_class=10, n_fillers=15, n_train=20,
                      n_test=40, n_validation=5)
    splits = generate_synthetic(cfg, seed=12)
    test = splits["test"]
    labels = build_label_set(splits["train"])
    vocab = Vocab(tuple(synthetic_vocab_tokens(cfg, seed=12)))
    seg = VocabSegmenter(vocab, "subword")
    model = build_model(arch, small_hyper(len(labels)), vocab, labels, 8)
    # several blocks, and sentences longer than a block
    monkeypatch.setattr(taggers, "PREDICT_BLOCK_SUBTOKENS", 12)
    assert max(len(seg.encode(s.words).ids) for s in test) > 12
    recorded = []
    token_confusion = metrics.token_confusion

    def recording(pred, gold):
        recorded.append(list(pred))
        return token_confusion(pred, gold)

    monkeypatch.setattr(metrics, "token_confusion", recording)
    evaluate(model, test, seg, ClubbingStrategy.MAJORITY)
    # one count over the split: its word tags in corpus order
    assert recorded == [
        [tag for sent in test
         for _, tag in predict_sentence(model, sent.words, seg,
                                        ClubbingStrategy.MAJORITY)]]


def test_clip_grads_counts_row_grads(toy):
    corpus, labels, vocab, seg = toy
    model = in_float64(build_model("CNN", small_hyper(len(labels)), vocab,
                                   labels, 1, tokenizer_mode="word"))
    enc = seg.encode(corpus.sentences[1].words)
    logits, cache = forward(model, enc.ids)
    label_idx = [labels.index(t) for t in corpus.sentences[1].tags]
    _, dlogits = nn.masked_softmax_ce(logits, label_idx)
    grads = backward(model, cache, dlogits)
    assert isinstance(grads["embed"], nn.RowGrad)

    def dense_norm():
        tables = [nn.embedding_backward(g.rows, g.values, model.vocab_size)
                  if isinstance(g, nn.RowGrad) else g for g in grads.values()]
        return np.sqrt(sum(float((t * t).sum()) for t in tables))

    assert _grad_norm(grads) == pytest.approx(dense_norm(), rel=1e-12)


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
    "vocab_size": lambda header: header.update(
        vocab_size=header["vocab_size"] + 1),
    "label_dropped": lambda header: header["labels"].pop(),
    "hyper_unknown_key": lambda header: header["hyper"].update(depth=2),
    "unk_token_missing": lambda header: header["vocab_tokens"].__setitem__(
        header["vocab_tokens"].index("[UNK]"), "[NONE]"),
    "hyper_float": lambda header: header["hyper"].update(
        embed_dim=float(header["hyper"]["embed_dim"])),
    # a size the architecture does not use, so only its type is wrong
    "hyper_bool": lambda header: header["hyper"].__setitem__(
        "bilstm_hidden" if header["arch"] == "LSTM" else "lstm_hidden", True),
    "vocab_size_bool": lambda header: header.update(vocab_size=True),
    "tokenizer_mode": lambda header: header.update(tokenizer_mode="bpe"),
    "label_not_a_string": lambda header: header["labels"].__setitem__(1, 5),
    "vocab_token_not_a_string": lambda header: header["vocab_tokens"].__setitem__(
        2, 7),
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


def test_checkpoint_with_pad_header_keys_loads(tmp_path, toy):
    # checkpoints written while the format reserved a pad row also carry
    # "pad_id" and "pad_token", those written while every vocab recorded its
    # special tokens carry "unk_token" and "continuation_prefix", and those
    # written while the header listed the tensors carry "tensors"; the
    # loader ignores all five
    corpus, labels, vocab, seg = toy
    encodings = [seg.encode(sent.words) for sent in corpus]
    for arch in ARCHS:
        model = build_model(arch, small_hyper(len(labels)), vocab, labels, 0,
                            tokenizer_mode="word")
        path = tmp_path / f"{arch}.ckpt"
        save_checkpoint(model, path)
        resign_header(path, lambda header: header.update(
            pad_id=vocab.id_of["[PAD]"], pad_token="[PAD]",
            unk_token="[UNK]", continuation_prefix="##",
            tensors=[[name, list(model.params[name].shape)]
                     for name in sorted(model.params)]))
        loaded = load_checkpoint(path)
        assert loaded.params.keys() == model.params.keys()
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])
        assert loaded.vocab.token_of == vocab.token_of
        assert (taggers.predict_encodings(loaded, encodings)
                == taggers.predict_encodings(model, encodings))


def test_checkpoint_fuzz_raises_only_subner_errors(tmp_path, toy):
    # flipped or truncated bytes under a valid checksum: only the format and
    # header checks stand between them and the loader. A flip that turns a
    # weight into another finite value, or an unchecked header string into
    # another valid one, cannot be detected once the file is re-signed; what
    # can be detected must never load: a nan or inf tensor, or vocab tokens
    # that do not give the header's fingerprint
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
                loaded = load_checkpoint(path)
            except SubnerError:
                outcomes["rejected"] += 1
                continue
            except Exception as exc:  # noqa: BLE001 - the property under test
                pytest.fail(f"{arch} trial {trial}: {type(exc).__name__}: {exc}")
            outcomes["loaded"] += 1
            for name, tensor in loaded.params.items():
                assert np.isfinite(tensor).all(), (arch, trial, name)
            assert loaded.vocab.token_of == vocab.token_of, (arch, trial)
    assert outcomes["rejected"] > outcomes["loaded"] > 0


def test_checkpoint_round_trip_in_chunks(tmp_path, toy, monkeypatch):
    # tensors are checked for nan and inf a few values at a time, across
    # chunk boundaries
    _, labels, vocab, _ = toy
    monkeypatch.setattr(taggers, "LOAD_CHUNK", 5)
    for arch in ARCHS:
        model = build_model(arch, small_hyper(len(labels)), vocab, labels, 3,
                            tokenizer_mode="word")
        save_checkpoint(model, tmp_path / "model.ckpt")
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        for name in model.params:
            assert np.array_equal(model.params[name], loaded.params[name])


@pytest.mark.parametrize("poison", ["nan", "inf", "fingerprint", "token"])
def test_checkpoint_rejects_poisoned_tensors_and_vocab(tmp_path, toy, poison,
                                                       monkeypatch):
    # the poisoned value sits in a later chunk of its tensor
    monkeypatch.setattr(taggers, "LOAD_CHUNK", 5)
    _, labels, vocab, _ = toy
    model = build_model("CNN", small_hyper(len(labels)), vocab, labels, 0,
                        tokenizer_mode="word")
    if poison in ("nan", "inf"):
        model.params["conv_w"][1, 2, 3] = float(poison)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    if poison == "fingerprint":
        resign_header(path, lambda header: header.update(
            vocab_fingerprint="0" * 64))
    elif poison == "token":
        resign_header(path, lambda header: header["vocab_tokens"].__setitem__(
            -1, header["vocab_tokens"][-1] + "x"))
    with pytest.raises(CorruptCheckpoint,
                       match="nan or inf" if poison in ("nan", "inf")
                       else "fingerprint"):
        load_checkpoint(path)


def reference_checkpoint_bytes(model):
    """The checkpoint format spelled out: magic, u32 version and header
    length, the sorted-key JSON header, each tensor's little-endian float32
    bytes in name order, then the first 8 bytes of the sha256 of it all."""
    vocab = model.vocab
    header = {
        "arch": model.arch,
        "hyper": dataclasses.asdict(model.hyper),
        "labels": list(model.labels.labels),
        "tokenizer_mode": model.tokenizer_mode,
        "vocab_fingerprint": (
            f"external:{model.vocab_size}" if vocab is None else hashlib.sha256(
                "\n".join(vocab.token_of).encode("utf-8")).hexdigest()),
        "vocab_size": model.vocab_size,
        "vocab_tokens": None if vocab is None else list(vocab.token_of),
    }
    header_bytes = json.dumps(header, ensure_ascii=False,
                              sort_keys=True).encode("utf-8")
    body = (b"SUBNER\x00\x01" + struct.pack("<II", 1, len(header_bytes))
            + header_bytes + b"".join(model.params[name].astype("<f4").tobytes()
                                      for name in sorted(model.params)))
    return body + hashlib.sha256(body).digest()[:8]


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("kind", ["vocab", "external"])
def test_checkpoint_bytes_equal_the_reference_serializer(tmp_path, toy, arch,
                                                         kind):
    _, labels, vocab, _ = toy
    if kind == "vocab":  # a non-ASCII token is written as UTF-8, unescaped
        model = build_model(arch, small_hyper(len(labels)),
                            Vocab(vocab.token_of + ("पुणे",)), labels, 6,
                            tokenizer_mode="word")
    else:
        model = build_model(arch, small_hyper(len(labels)), None, labels, 6,
                            tokenizer_mode="external", vocab_size=23)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    assert path.read_bytes() == reference_checkpoint_bytes(model)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, toy,
                                                   monkeypatch):
    # the disk fills once the header is written, at the first tensor
    _, labels, vocab, _ = toy
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model("CNN", small_hyper(len(labels)), vocab,
                                labels, 0, tokenizer_mode="word"), path)
    old = path.read_bytes()
    header_end = len(CHECKPOINT_MAGIC) + 8 + struct.unpack_from(
        "<I", old, len(CHECKPOINT_MAGIC) + 4)[0]
    written = []

    class FillingFile(io.BufferedWriter):
        def write(self, data):
            if self.tell() >= header_end:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(super().write(data))
            return written[-1]

    monkeypatch.setattr(util, "open", raising=False,
                        value=lambda file, mode: FillingFile(io.FileIO(file, mode)))
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(build_model("CNN", small_hyper(len(labels)), vocab,
                                    labels, 1, tokenizer_mode="word"), path)
    assert sum(written) == header_end
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_save_checkpoint_holds_no_copy_of_the_tensors(tmp_path, toy):
    # traced allocations, unlike resident memory, repeat exactly; a save that
    # assembled the file in one buffer peaked at twice the tensors' bytes
    _, labels, _, _ = toy
    model = build_model("CNN", small_hyper(len(labels), embed_dim=64), None,
                        labels, 0, tokenizer_mode="external",
                        vocab_size=20_000)
    tensor_bytes = sum(p.nbytes for p in model.params.values())
    assert tensor_bytes >= 5_000_000
    tracemalloc.start()
    try:
        save_checkpoint(model, tmp_path / "model.ckpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor_bytes / 4
