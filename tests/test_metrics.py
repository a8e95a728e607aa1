import random

import pytest

from subner.alignment import ClubbingStrategy
from subner.corpus import LabeledCorpus, build_label_set, parse_conll
from subner.errors import LengthMismatch, UnknownScheme
from subner.metrics import (
    decode_spans,
    evaluate,
    span_metrics,
    token_confusion,
    token_metrics,
)
from subner.taggers import Hyperparams, build_model
from subner.tokenizers import VocabSegmenter, build_word_vocab


def brute_force_metrics(pred, gold):
    """Recompute P/R/F1 by scanning the pairs directly."""
    labels = sorted(set(pred) | set(gold))
    per_class = {}
    for label in labels:
        tp = sum(1 for p, g in zip(pred, gold) if p == g == label)
        fp = sum(1 for p, g in zip(pred, gold) if p == label != g)
        fn = sum(1 for p, g in zip(pred, gold) if g == label != p)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class[label] = (precision, recall, f1, tp + fn)
    entity = [l for l in labels if l != "O" and l in set(gold)]
    if entity:
        macro = tuple(
            sum(per_class[l][i] for l in entity) / len(entity) for i in range(3)
        )
    else:
        macro = (0.0, 0.0, 0.0)
    tp = sum(1 for p, g in zip(pred, gold) if p == g != "O")
    fp = sum(1 for p, g in zip(pred, gold) if p != "O" and p != g)
    fn = sum(1 for p, g in zip(pred, gold) if g != "O" and p != g)
    micro_p = tp / (tp + fp) if tp + fp else 0.0
    micro_r = tp / (tp + fn) if tp + fn else 0.0
    micro_f1 = (2 * micro_p * micro_r / (micro_p + micro_r)
                if micro_p + micro_r else 0.0)
    accuracy = sum(1 for p, g in zip(pred, gold) if p == g) / len(gold)
    return per_class, macro, (micro_p, micro_r, micro_f1), accuracy


def test_confusion_perfect():
    counts = token_confusion(["B-NEL", "O"], ["B-NEL", "O"])
    assert counts.fp == {} and counts.fn == {}
    assert token_metrics(counts).accuracy == 1.0


def test_confusion_partial():
    counts = token_confusion(["B-NEL", "O"], ["B-NEL", "B-NEL"])
    assert counts.tp["B-NEL"] == 1
    assert counts.fn["B-NEL"] == 1
    assert counts.fp.get("B-NEL", 0) == 0
    report = token_metrics(counts)
    assert report.per_class["B-NEL"].precision == 1.0
    assert report.per_class["B-NEL"].recall == 0.5
    assert abs(report.per_class["B-NEL"].f1 - 2 / 3) < 1e-15


def test_confusion_all_outside_predictor():
    gold = ["B-NEL", "O", "B-NEP", "O", "O"]
    pred = ["O"] * 5
    report = token_metrics(token_confusion(pred, gold))
    assert report.macro_recall == 0.0
    assert report.accuracy == 3 / 5


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatch):
        token_confusion(["O"], ["O", "O"])


def test_empty_gold_entities_flagged():
    report = token_metrics(token_confusion(["O", "B-NEL"], ["O", "O"]))
    assert report.empty_gold_entities
    assert report.macro_f1 == 0.0


def test_metrics_match_brute_force():
    rng = random.Random(99)
    labels_pool = ["O", "B-NEL", "B-NEP", "B-NEO"]
    for _ in range(300):
        n = rng.randint(1, 30)
        gold = [rng.choice(labels_pool) for _ in range(n)]
        pred = [rng.choice(labels_pool) for _ in range(n)]
        report = token_metrics(token_confusion(pred, gold))
        per_class, macro, micro, accuracy = brute_force_metrics(pred, gold)
        for label, (p, r, f1, support) in per_class.items():
            m = report.per_class[label]
            assert (m.precision, m.recall, m.f1, m.support) == (p, r, f1, support)
        assert (report.macro_precision, report.macro_recall,
                report.macro_f1) == macro
        assert (report.micro_precision, report.micro_recall,
                report.micro_f1) == micro
        assert report.accuracy == accuracy


def test_micro_single_class_equals_class_f1():
    pred = ["B-NEL", "O", "B-NEL", "O"]
    gold = ["B-NEL", "B-NEL", "O", "O"]
    report = token_metrics(token_confusion(pred, gold))
    assert report.micro_f1 == report.per_class["B-NEL"].f1


def test_decode_spans_bio():
    assert decode_spans(["B-NEL", "I-NEL", "O"], "bio") == [("NEL", 0, 2)]
    assert decode_spans(["I-NEL"], "bio") == [("NEL", 0, 1)]  # orphan repair
    assert decode_spans(["B-NEL", "B-NEL"], "bio") == [("NEL", 0, 1), ("NEL", 1, 2)]


def test_decode_spans_flat():
    assert decode_spans(["NEL", "NEL", "NEP"], "flat") == \
        [("NEL", 0, 2), ("NEP", 2, 3)]


def test_decode_spans_unknown_scheme():
    with pytest.raises(UnknownScheme):
        decode_spans(["O"], "iobes")


def encode_bio(spans, length):
    """Re-encode spans as a BIO label sequence (used to check decode)."""
    labels = ["O"] * length
    for cls, start, end in spans:
        labels[start] = f"B-{cls}"
        for pos in range(start + 1, end):
            labels[pos] = f"I-{cls}"
    return labels


def _repair_bio(labels):
    """Independent statement of the orphan-I repair rule."""
    out = []
    prev_cls = None
    for label in labels:
        if label == "O":
            out.append(label)
            prev_cls = None
        elif label.startswith("B-"):
            out.append(label)
            prev_cls = label[2:]
        else:
            cls = label[2:]
            out.append(label if prev_cls == cls else f"B-{cls}")
            prev_cls = cls
    return out


def test_bio_decode_reencode_roundtrip():
    rng = random.Random(17)
    pool = ["O", "B-NEL", "I-NEL", "B-NEP", "I-NEP"]
    for _ in range(200):
        labels = [rng.choice(pool) for _ in range(rng.randint(1, 15))]
        spans = decode_spans(labels, "bio")
        assert encode_bio(spans, len(labels)) == _repair_bio(labels)
        # decoding the repaired sequence is a fixed point
        assert decode_spans(_repair_bio(labels), "bio") == spans


def test_span_metrics_exact():
    pred = ["B-NEL", "I-NEL", "O", "B-NEP"]
    gold = ["B-NEL", "I-NEL", "O", "B-NEL"]
    sm = span_metrics(pred, gold, "bio")
    assert sm.matched == 1
    assert sm.precision == 0.5 and sm.recall == 0.5


def _tiny_model_and_segmenter():
    corpus = parse_conll(
        "pune\tB-NEL\nis\tO\n\nraj\tB-NEP\nhome\tO\n\nbig\tO\ncity\tO\n\n"
    )
    labels = build_label_set(corpus)
    vocab = build_word_vocab(corpus)
    hyper = Hyperparams(embed_dim=8, conv_filters=8, conv_kernel=3,
                        lstm_hidden=4, bilstm_hidden=4, num_labels=len(labels))
    model = build_model("CNN", hyper, vocab, labels, seed=0,
                        tokenizer_mode="word")
    return model, corpus, VocabSegmenter(vocab, "word")


def test_evaluate_sentence_order_invariant():
    model, corpus, segmenter = _tiny_model_and_segmenter()
    report = evaluate(model, corpus, segmenter, ClubbingStrategy.FIRST)
    shuffled = LabeledCorpus(tuple(reversed(corpus.sentences)),
                             corpus.split_name)
    report2 = evaluate(model, shuffled, segmenter, ClubbingStrategy.FIRST)
    assert report.accuracy == report2.accuracy
    assert report.macro_f1 == report2.macro_f1
    assert report.micro_f1 == report2.micro_f1


def test_evaluate_reports_diagnostics():
    model, corpus, segmenter = _tiny_model_and_segmenter()
    report = evaluate(model, corpus, segmenter, ClubbingStrategy.FIRST,
                      span_scheme="bio")
    assert report.subtoken_accuracy is not None
    assert report.span is not None
    assert report.fertility is not None
    assert report.fertility.fertility == 1.0
