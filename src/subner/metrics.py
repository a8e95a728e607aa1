"""Root-token-level evaluation: per-class and aggregate precision/recall/F1,
token accuracy, and optional entity-span scoring."""

from __future__ import annotations

from dataclasses import dataclass, field

from .alignment import ClubbingStrategy, propagate_labels
from .corpus import OUTSIDE, LabeledCorpus
from .errors import LengthMismatch, UnknownScheme
from .tokenizers import VocabSegmenter, encoding_fertility
from .tokenizers import fertility_stats  # noqa: F401  (callers use metrics.fertility_stats)


@dataclass
class ConfusionCounts:
    tp: dict[str, int] = field(default_factory=dict)
    fp: dict[str, int] = field(default_factory=dict)
    fn: dict[str, int] = field(default_factory=dict)
    gold_labels: set = field(default_factory=set)
    total_tokens: int = 0
    correct_tokens: int = 0


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int  # gold occurrences


@dataclass
class SpanMetrics:
    precision: float
    recall: float
    f1: float
    pred_spans: int
    gold_spans: int
    matched: int


@dataclass
class EvalReport:
    per_class: dict[str, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    accuracy: float
    total_tokens: int
    empty_gold_entities: bool
    strategy: str | None = None
    span: SpanMetrics | None = None
    fertility: object | None = None
    subtoken_accuracy: float | None = None


def token_confusion(pred, gold) -> ConfusionCounts:
    if len(pred) != len(gold):
        raise LengthMismatch(f"{len(pred)} predictions for {len(gold)} gold labels")
    counts = ConfusionCounts()
    counts.total_tokens = len(gold)
    for p, g in zip(pred, gold):
        counts.gold_labels.add(g)
        if p == g:
            counts.correct_tokens += 1
            counts.tp[p] = counts.tp.get(p, 0) + 1
        else:
            counts.fp[p] = counts.fp.get(p, 0) + 1
            counts.fn[g] = counts.fn.get(g, 0) + 1
    return counts


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def token_metrics(counts: ConfusionCounts, strategy: str | None = None) -> EvalReport:
    """P/R/F1 per class, macro over non-O classes present in gold, micro over
    pooled non-O counts, plus all-token accuracy."""
    labels = sorted(set(counts.tp) | set(counts.fp) | set(counts.fn)
                    | counts.gold_labels)
    per_class = {}
    for label in labels:
        tp = counts.tp.get(label, 0)
        fp = counts.fp.get(label, 0)
        fn = counts.fn.get(label, 0)
        p, r, f1 = _prf(tp, fp, fn)
        per_class[label] = ClassMetrics(p, r, f1, tp + fn)
    entity_labels = [lab for lab in labels
                     if lab != OUTSIDE and lab in counts.gold_labels]
    if entity_labels:
        macro_p = sum(per_class[l].precision for l in entity_labels) / len(entity_labels)
        macro_r = sum(per_class[l].recall for l in entity_labels) / len(entity_labels)
        macro_f1 = sum(per_class[l].f1 for l in entity_labels) / len(entity_labels)
    else:
        macro_p = macro_r = macro_f1 = 0.0
    pooled_labels = [lab for lab in labels if lab != OUTSIDE]
    tp = sum(counts.tp.get(l, 0) for l in pooled_labels)
    fp = sum(counts.fp.get(l, 0) for l in pooled_labels)
    fn = sum(counts.fn.get(l, 0) for l in pooled_labels)
    micro_p, micro_r, micro_f1 = _prf(tp, fp, fn)
    accuracy = counts.correct_tokens / counts.total_tokens if counts.total_tokens else 0.0
    return EvalReport(
        per_class=per_class,
        macro_precision=macro_p, macro_recall=macro_r, macro_f1=macro_f1,
        micro_precision=micro_p, micro_recall=micro_r, micro_f1=micro_f1,
        accuracy=accuracy,
        total_tokens=counts.total_tokens,
        empty_gold_entities=not entity_labels,
        strategy=strategy,
    )


def decode_spans(labels, scheme: str = "bio"):
    """Decode label runs into (class, start, end) spans, end exclusive.

    bio: maximal B-X (I-X)* runs, with the conventional orphan-I repair;
    flat: maximal runs of equal non-O labels.
    """
    if scheme not in ("bio", "flat"):
        raise UnknownScheme(f"unknown span scheme {scheme!r}")
    spans = []
    open_cls = None
    start = 0
    for pos, label in enumerate(labels):
        if label == OUTSIDE:
            if open_cls is not None:
                spans.append((open_cls, start, pos))
                open_cls = None
            continue
        if scheme == "flat":
            cls, begins = label, (open_cls != label)
        elif label.startswith("B-"):
            cls, begins = label[2:], True
        elif label.startswith("I-"):
            cls = label[2:]
            begins = open_cls != cls  # orphan I-X starts a new span
        else:
            cls, begins = label, (open_cls != label)
        if begins:
            if open_cls is not None:
                spans.append((open_cls, start, pos))
            open_cls = cls
            start = pos
    if open_cls is not None:
        spans.append((open_cls, start, len(labels)))
    return spans


def encode_bio(spans, length):
    """Re-encode spans as a BIO label sequence (used to check decode)."""
    labels = [OUTSIDE] * length
    for cls, start, end in spans:
        labels[start] = f"B-{cls}"
        for pos in range(start + 1, end):
            labels[pos] = f"I-{cls}"
    return labels


def span_metrics(pred_labels, gold_labels, scheme: str = "bio") -> SpanMetrics:
    pred = set(decode_spans(pred_labels, scheme))
    gold = set(decode_spans(gold_labels, scheme))
    matched = len(pred & gold)
    p = matched / len(pred) if pred else 0.0
    r = matched / len(gold) if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return SpanMetrics(p, r, f1, len(pred), len(gold), matched)


def evaluate(model, corpus: LabeledCorpus, segmenter,
             strategy: ClubbingStrategy = ClubbingStrategy.FIRST,
             span_scheme: str | None = None) -> EvalReport:
    """Predict every sentence (forwarded in length-sorted packed blocks,
    see `taggers.predict_encodings`), club to root tokens, and score the
    split's word tags in one confusion count.

    Also reports pre-clubbing subtoken accuracy (against propagated gold
    labels) as a diagnostic, and fertility stats for vocab-driven segmenters.
    """
    from . import taggers  # local import; taggers depends on this module

    taggers.check_label_compat(model.labels, corpus)
    sub_total = sub_correct = 0
    pred_tags, gold_tags = [], []
    span_pred, span_gold = [], []
    encodings = [segmenter.encode(sent.words) for sent in corpus]
    predicted = taggers.predict_encodings(model, encodings, strategy)
    for sent, enc, (word_tags, subtoken_tags) in zip(corpus, encodings,
                                                     predicted):
        pred_tags.extend(word_tags)
        gold_tags.extend(sent.tags)
        gold_sub = propagate_labels(sent.tags, enc)
        sub_total += len(gold_sub)
        sub_correct += sum(p == g for p, g in zip(subtoken_tags, gold_sub))
        if span_scheme is not None:
            span_pred.extend(word_tags + [OUTSIDE])  # sentinel between sentences
            span_gold.extend(sent.tags + (OUTSIDE,))
    report = token_metrics(token_confusion(pred_tags, gold_tags),
                           strategy=strategy.value)
    report.subtoken_accuracy = sub_correct / sub_total if sub_total else None
    if span_scheme is not None:
        report.span = span_metrics(span_pred, span_gold, span_scheme)
    if isinstance(segmenter, VocabSegmenter):
        report.fertility = encoding_fertility(encodings, segmenter.vocab.unk_id)
    return report


# ---------------------------------------------------------------------------
# Report rendering


def report_to_tsv(report: EvalReport) -> str:
    lines = ["class\tprecision\trecall\tf1\tsupport"]
    for label in sorted(report.per_class):
        m = report.per_class[label]
        lines.append(f"{label}\t{m.precision:.6f}\t{m.recall:.6f}\t{m.f1:.6f}\t{m.support}")
    lines.append(f"macro\t{report.macro_precision:.6f}\t{report.macro_recall:.6f}"
                 f"\t{report.macro_f1:.6f}\t-")
    lines.append(f"micro\t{report.micro_precision:.6f}\t{report.micro_recall:.6f}"
                 f"\t{report.micro_f1:.6f}\t-")
    lines.append(f"accuracy\t-\t-\t{report.accuracy:.6f}\t{report.total_tokens}")
    return "\n".join(lines) + "\n"


def report_to_text(report: EvalReport) -> str:
    lines = []
    header = "evaluation report"
    if report.strategy:
        header += (f" (clubbing: {report.strategy}; "
                   f"headline F1 is macro over non-O classes)")
    lines.append(header)
    lines.append(f"{'class':<12} {'prec':>8} {'recall':>8} {'f1':>8} {'support':>8}")
    for label in sorted(report.per_class):
        m = report.per_class[label]
        lines.append(f"{label:<12} {m.precision:>8.4f} {m.recall:>8.4f} "
                     f"{m.f1:>8.4f} {m.support:>8}")
    lines.append(f"{'macro':<12} {report.macro_precision:>8.4f} "
                 f"{report.macro_recall:>8.4f} {report.macro_f1:>8.4f} {'-':>8}")
    lines.append(f"{'micro':<12} {report.micro_precision:>8.4f} "
                 f"{report.micro_recall:>8.4f} {report.micro_f1:>8.4f} {'-':>8}")
    lines.append(f"accuracy     {report.accuracy:.4f} over {report.total_tokens} tokens")
    if report.empty_gold_entities:
        lines.append("note: gold contains no entity tokens; macro/micro set to 0")
    if report.subtoken_accuracy is not None:
        lines.append(f"subtoken accuracy (pre-clubbing): {report.subtoken_accuracy:.4f}")
    if report.span is not None:
        s = report.span
        lines.append(f"spans        {s.precision:>8.4f} {s.recall:>8.4f} "
                     f"{s.f1:>8.4f} ({s.matched}/{s.gold_spans} matched)")
    if report.fertility is not None:
        f = report.fertility
        lines.append(f"fertility    {f.fertility:.4f} "
                     f"(unk word rate {f.unk_word_rate:.4f})")
    return "\n".join(lines) + "\n"
