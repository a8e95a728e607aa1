"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line at its stated tolerance and runtime budget. Criterion 9 needs real data
and is skipped unless MAHANER_DIR and MAHABERT_VOCAB are set.
"""

import os
import random
import time

import numpy as np
import pytest

from subner import nn
from subner.alignment import ClubbingStrategy, club_labels, propagate_labels
from subner.corpus import (
    SynthConfig,
    build_label_set,
    corpus_stats,
    generate_synthetic,
    parse_conll,
    synthetic_vocab_tokens,
    write_conll,
)
from subner.cli import main as cli_main
from subner.metrics import evaluate, token_confusion, token_metrics
from subner.taggers import Hyperparams, TrainConfig, build_model, count_params, train
from subner.tokenizers import (
    Vocab,
    VocabSegmenter,
    build_word_vocab,
    load_vocab,
    wordpiece_word,
)

from test_alignment import random_encoding
from test_metrics import brute_force_metrics
from test_tokenizers import _random_vocab, brute_force_wordpiece


def _report(number, title, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"runtime {elapsed:.1f}s exceeds {budget_seconds}s budget"
        )
    except Exception:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {title}: PASS ({elapsed:.1f}s)")


def test_acceptance_1_alignment_round_trip():
    def body():
        rng = random.Random(101)
        pool = ["O", "B-NEL", "I-NEL", "B-NEP", "B-NEO", "I-NEO"]
        for _ in range(1000):
            enc = random_encoding(rng, max_words=8, max_fertility=5)
            tags = [rng.choice(pool) for _ in range(enc.n_words)]
            subtoken_tags = propagate_labels(tags, enc)
            for strategy in ClubbingStrategy:
                assert club_labels(subtoken_tags, enc, strategy) == tags

    _report(1, "alignment round trip (1000 pairs, both strategies)", 5, body)


def test_acceptance_2_wordpiece_oracle():
    def body():
        rng = random.Random(202)
        for _ in range(10000):
            vocab = _random_vocab(rng)
            word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 10)))
            assert wordpiece_word(word, vocab) == \
                brute_force_wordpiece(word, vocab)
        # hand fixtures: continuation pieces, UNK fallback, Devanagari
        vocab = Vocab(("[PAD]", "[UNK]", "un", "##aff", "##able",
                       "पु", "##णे"))
        assert wordpiece_word("unaffable", vocab) == ["un", "##aff", "##able"]
        assert wordpiece_word("zzz", vocab) == ["[UNK]"]
        assert wordpiece_word("पुणे", vocab) == \
            ["पु", "##णे"]
        assert wordpiece_word("x" * 101, vocab) == ["[UNK]"]

    _report(2, "wordpiece matches brute-force oracle (10000 cases)", 30, body)


def test_acceptance_3_gradient_checks():
    def body():
        for seed in range(20):
            rng = np.random.default_rng(seed)

            table = rng.normal(size=(6, 4))
            ids = [int(rng.integers(0, 6)) for _ in range(5)]
            w_e = rng.normal(size=(5, 4))
            err = nn.grad_check(
                lambda: float((nn.embedding_forward(ids, table) * w_e).sum()),
                {"t": table}, {"t": nn.embedding_backward(ids, w_e, 6)},
            )
            assert err < 1e-6, f"embedding seed {seed}: {err}"

            x = rng.normal(size=(5, 3))
            W = rng.normal(size=(3, 2))
            b = rng.normal(size=2)
            w_d = rng.normal(size=(5, 2))
            _, cache = nn.dense_forward(x, W, b)
            dx, dW, db = nn.dense_backward(cache, w_d)

            def dense_loss():
                y, _ = nn.dense_forward(x, W, b)
                return float((y * w_d).sum())

            err = nn.grad_check(dense_loss, {"x": x, "W": W, "b": b},
                                {"x": dx, "W": dW, "b": db})
            assert err < 1e-6, f"dense seed {seed}: {err}"

            kernel = rng.normal(size=(3, 3, 2))
            kb = rng.normal(size=2)
            w_c = rng.normal(size=(5, 2))
            _, cache = nn.conv1d_forward(x, kernel, kb)
            dx, dk, db = nn.conv1d_backward(cache, w_c)

            def conv_loss():
                y, _ = nn.conv1d_forward(x, kernel, kb)
                return float((y * w_c).sum())

            err = nn.grad_check(conv_loss, {"x": x, "k": kernel, "b": kb},
                                {"x": dx, "k": dk, "b": db})
            assert err < 1e-5, f"conv seed {seed}: {err}"

            W_l, U_l, b_l = nn.init_lstm_params(rng, 3, 2)
            w_h = rng.normal(size=(5, 2))
            _, cache = nn.lstm_forward(x, W_l, U_l, b_l)
            dx, dW, dU, db = nn.lstm_backward(cache, w_h)

            def lstm_loss():
                hs, _ = nn.lstm_forward(x, W_l, U_l, b_l)
                return float((hs * w_h).sum())

            err = nn.grad_check(lstm_loss,
                                {"x": x, "W": W_l, "U": U_l, "b": b_l},
                                {"x": dx, "W": dW, "U": dU, "b": db})
            assert err < 1e-4, f"lstm seed {seed}: {err}"

            pf = nn.init_lstm_params(rng, 3, 2)
            pb = nn.init_lstm_params(rng, 3, 2)
            w_b = rng.normal(size=(5, 4))
            _, cache = nn.bilstm_forward(x, pf, pb)
            dx, gf, gb = nn.bilstm_backward(cache, w_b)

            def bilstm_loss():
                out, _ = nn.bilstm_forward(x, pf, pb)
                return float((out * w_b).sum())

            err = nn.grad_check(
                bilstm_loss,
                {"x": x, "fW": pf[0], "fU": pf[1], "fb": pf[2],
                 "bW": pb[0], "bU": pb[1], "bb": pb[2]},
                {"x": dx, "fW": gf[0], "fU": gf[1], "fb": gf[2],
                 "bW": gb[0], "bU": gb[1], "bb": gb[2]},
            )
            assert err < 1e-4, f"bilstm seed {seed}: {err}"

    _report(3, "gradient checks (5 layers x 20 seeds)", 60, body)


def test_acceptance_4_metric_oracle():
    def body():
        rng = random.Random(404)
        pool = ["O", "B-NEL", "B-NEP", "B-NEO", "I-NEL"]
        for _ in range(1000):
            n = rng.randint(1, 40)
            gold = [rng.choice(pool) for _ in range(n)]
            pred = [rng.choice(pool) for _ in range(n)]
            report = token_metrics(token_confusion(pred, gold))
            per_class, macro, micro, accuracy = brute_force_metrics(pred, gold)
            for label, (p, r, f1, support) in per_class.items():
                m = report.per_class[label]
                assert (m.precision, m.recall, m.f1, m.support) == \
                    (p, r, f1, support)
            assert (report.macro_precision, report.macro_recall,
                    report.macro_f1) == macro
            assert (report.micro_precision, report.micro_recall,
                    report.micro_f1) == micro
            assert report.accuracy == accuracy

    _report(4, "token metrics match brute-force recount (1000 pairs)", 30, body)


def test_acceptance_5_overfit_sanity():
    from test_taggers import TOY

    def body():
        corpus = parse_conll(TOY, "train")
        labels = build_label_set(corpus)
        vocab = build_word_vocab(corpus, 1)
        seg = VocabSegmenter(vocab, "word")
        budgets = {"CNN": 50, "LSTM": 100, "BiLSTM": 100}
        for arch, epochs in budgets.items():
            hyper = Hyperparams(embed_dim=32, conv_filters=64, conv_kernel=3,
                                lstm_hidden=32, bilstm_hidden=32,
                                num_labels=len(labels))
            config = TrainConfig(epochs=epochs, batch_size=2, max_len=8,
                                 learning_rate=5e-3, seed=1)
            model = build_model(arch, hyper, vocab, labels, 1,
                                tokenizer_mode="word")
            model, _ = train(model, corpus, None, seg, config)
            report = evaluate(model, corpus, seg, ClubbingStrategy.FIRST)
            assert report.accuracy == 1.0, f"{arch}: {report.accuracy}"

    _report(5, "overfit sanity (CNN<=50, LSTM/BiLSTM<=100 epochs)", 120, body)


def test_acceptance_6_subword_beats_word_baseline():
    def body():
        cfg = SynthConfig(stems_per_class=30, n_fillers=40,
                          n_train=200, n_test=100, n_validation=50,
                          stem_len_min=2, stem_len_max=2, oov_rate=1.0)
        assert cfg.oov_rate >= 0.5
        splits = generate_synthetic(cfg, seed=7)
        wp_vocab = Vocab(tuple(synthetic_vocab_tokens(cfg, seed=7)))
        labels = build_label_set(splits["train"])
        hyper = Hyperparams(embed_dim=64, conv_filters=128, conv_kernel=3,
                            lstm_hidden=16, bilstm_hidden=16,
                            num_labels=len(labels))
        config = TrainConfig(epochs=20, batch_size=16, max_len=32,
                             learning_rate=5e-3, seed=3,
                             strategy=ClubbingStrategy.MAJORITY)
        scores = {}
        for name, seg in (
            ("subword", VocabSegmenter(wp_vocab, "subword")),
            ("word", VocabSegmenter(build_word_vocab(splits["train"], 1), "word")),
        ):
            model = build_model("CNN", hyper, seg.vocab, labels, 3,
                                tokenizer_mode=seg.mode)
            model, history = train(model, splits["train"],
                                   splits["validation"], seg, config)
            assert len(history.train_loss) <= 20
            report = evaluate(model, splits["test"], seg,
                              ClubbingStrategy.MAJORITY)
            scores[name] = report.macro_f1
        assert scores["subword"] >= 0.90, scores
        assert scores["subword"] - scores["word"] >= 0.10, scores

    _report(6, "subword CNN >= 0.90 macro-F1 and >= +0.10 over word baseline",
            300, body)


def test_acceptance_7_training_determinism(tmp_path):
    def body():
        cfg = SynthConfig(stems_per_class=10, n_fillers=15, n_train=40,
                          n_test=10, n_validation=10)
        splits = generate_synthetic(cfg, seed=5)
        for name, split in splits.items():
            (tmp_path / f"{name}.conll").write_text(write_conll(split),
                                                    encoding="utf-8")
        vocab_path = tmp_path / "vocab.txt"
        vocab_path.write_text(
            "\n".join(synthetic_vocab_tokens(cfg, seed=5)) + "\n",
            encoding="utf-8",
        )
        (tmp_path / "train.cfg").write_text(
            "epochs = 4\nbatch_size = 8\nmax_len = 24\nseed = 11\n"
            "embed_dim = 16\nconv_filters = 16\n",
            encoding="utf-8",
        )
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = cli_main([
                "train", "--train", str(tmp_path / "train.conll"),
                "--val", str(tmp_path / "validation.conll"),
                "--arch", "CNN", "--tokenizer", f"wordpiece:{vocab_path}",
                "--config", str(tmp_path / "train.cfg"),
                "--out", str(out), "--run-name", "run",
            ])
            assert code == 0
            outs.append(out)
        a, b = outs
        assert (a / "run.history.txt").read_bytes() == \
            (b / "run.history.txt").read_bytes()
        assert (a / "run.ckpt").read_bytes() == (b / "run.ckpt").read_bytes()

    _report(7, "equal-seed training runs are byte-identical", 120, body)


def test_acceptance_8_param_count_closed_form():
    def body():
        vocab = Vocab(("[PAD]", "[UNK]") + tuple(f"w{i}" for i in range(998)))
        labels = parse_conll(
            "\n".join(f"x\tB-{i}\n" for i in range(7)) + "y\tO\n\n"
        )
        label_set = build_label_set(labels)
        hyper = Hyperparams(num_labels=8)
        V, E, K, F, H, L = 1000, 300, 3, 512, 512, 8

        cnn = build_model("CNN", hyper, vocab, label_set, 0,
                          tokenizer_mode="word")
        assert count_params(cnn) == V * E + (K * E * F + F) + (F * L + L)

        lstm = build_model("LSTM", hyper, vocab, label_set, 0,
                           tokenizer_mode="word")
        assert count_params(lstm) == \
            V * E + 4 * (H * (E + H) + H) + (H * L + L)

        bilstm = build_model("BiLSTM", hyper, vocab, label_set, 0,
                             tokenizer_mode="word")
        assert count_params(bilstm) == \
            V * E + 2 * 4 * (H * (E + H) + H) + (2 * H * L + L)

    _report(8, "parameter counts match closed-form arithmetic", 30, body)


@pytest.mark.skipif(
    not (os.environ.get("MAHANER_DIR") and os.environ.get("MAHABERT_VOCAB")),
    reason="extended run needs MAHANER_DIR and MAHABERT_VOCAB",
)
def test_acceptance_9_extended_real_data(tmp_path):
    def body():
        data_dir = os.environ["MAHANER_DIR"]
        vocab_path = os.environ["MAHABERT_VOCAB"]
        expected = {"train": (21500, 26502), "test": (2000, 2424),
                    "validation": (1500, 1800)}
        corpora = {}
        for split, (n_sent, n_tag) in expected.items():
            path = os.path.join(data_dir, f"{split}.conll")
            with open(path, "r", encoding="utf-8") as fh:
                corpora[split] = parse_conll(fh.read(), split)
            stats = corpus_stats(corpora[split])
            assert stats.sentence_count == n_sent, (split, stats.sentence_count)
            assert stats.tag_count == n_tag, (split, stats.tag_count)

        labels = build_label_set(corpora["train"])
        config = TrainConfig(epochs=20, batch_size=16, max_len=128, seed=0)
        scores = {}
        for name, seg in (
            ("subword", VocabSegmenter(load_vocab(vocab_path), "subword")),
            ("word", VocabSegmenter(build_word_vocab(corpora["train"], 1),
                                    "word")),
        ):
            hyper = Hyperparams(num_labels=len(labels))
            model = build_model("CNN", hyper, seg.vocab, labels, 0,
                                tokenizer_mode=seg.mode)
            model, _ = train(model, corpora["train"], corpora["validation"],
                             seg, config)
            scores[name] = evaluate(model, corpora["test"], seg,
                                    ClubbingStrategy.FIRST).macro_f1
        assert abs(scores["subword"] * 100 - 82.1) <= 3.0, scores
        assert scores["subword"] > scores["word"], scores

    _report(9, "extended real-data run reproduces published ordering",
            3600, body)
