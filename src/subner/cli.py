"""Command-line surface: tokenize, train, predict, eval, compare, synth, stats.

Exit codes: 0 ok, 2 input/file errors, 3 training errors, 4 evaluation errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import taggers as taggers_mod
from . import tokenizers as tok_mod
from .alignment import ClubbingStrategy
from .errors import (
    DuplicateToken,
    EmptyCorpus,
    InvalidConfig,
    InvalidHyper,
    MalformedLine,
    MissingSpecial,
    SubnerError,
)
from .util import atomic_write_text, parse_kv_file

EXIT_INPUT = 2
EXIT_TRAIN = 3
EXIT_EVAL = 4


def _read_corpus(path, split_name="unsplit"):
    with open(path, "r", encoding="utf-8") as fh:
        return corpus_mod.parse_conll(fh.read(), split_name)


# flat config key -> parser: every TrainConfig field, then every Hyperparams
# field but num_labels (that one comes from the label set)
CONFIG_KEYS = {
    **dict.fromkeys(("epochs", "batch_size", "max_len", "seed", "patience"), int),
    **dict.fromkeys(("learning_rate", "rho", "epsilon", "grad_clip"), float),
    "strategy": ClubbingStrategy.parse,
}
HYPER_KEYS = dict.fromkeys(("embed_dim", "conv_filters", "conv_kernel",
                            "lstm_hidden", "bilstm_hidden"), int)


def _configs_from_kv(kv, num_labels, seed_override=None):
    """(TrainConfig, Hyperparams) from flat key=value settings; a key that
    names neither a training setting nor a model size, or a value out of its
    range, raises InvalidConfig."""
    unknown = [key for key in kv if key not in CONFIG_KEYS and key not in HYPER_KEYS]
    if unknown:
        raise InvalidConfig(f"unknown config key {', '.join(map(repr, unknown))}")
    config = {key: CONFIG_KEYS[key](value) for key, value in kv.items()
              if key in CONFIG_KEYS}
    if seed_override is not None:
        config["seed"] = seed_override
    hyper = {key: int(value) for key, value in kv.items() if key in HYPER_KEYS}
    try:
        return (taggers_mod.TrainConfig(**config),
                taggers_mod.Hyperparams(num_labels=num_labels, **hyper))
    except InvalidHyper as exc:
        raise InvalidConfig(str(exc)) from exc


def _build_segmenters(spec, train_corpus, base):
    """Resolve a tokenizer spec into per-split segmenters.

    Specs: `word`, `wordpiece:<vocab path>`,
    `external:<train seg>,<val seg or ->,<test seg or ->`; relative paths
    are taken relative to `base`. Returns (train_seg, val_seg, test_seg,
    the spec with its paths resolved).
    """
    kind, colon, rest = spec.partition(":")
    if spec == "word":
        vocab = tok_mod.build_word_vocab(train_corpus, min_freq=1)
        seg = tok_mod.VocabSegmenter(vocab, "word")
        return seg, seg, seg, "word"
    if kind == "wordpiece":
        if not rest:
            raise InvalidConfig("wordpiece tokenizer needs --vocab")
        path = os.path.join(base, rest)  # an absolute path stays as it is
        seg = tok_mod.VocabSegmenter(tok_mod.load_vocab(path), "subword")
        return seg, seg, seg, f"wordpiece:{path}"
    if kind == "external" and colon:
        paths = [p.strip() for p in rest.split(",")]
        paths = [p if p in ("", "-") else os.path.join(base, p) for p in paths]
        splits = [tok_mod.load_external_segmentation(p) if p not in ("", "-")
                  else None for p in paths]
        splits += [None] * (3 - len(splits))
        # a model embeds every id of every split, test ids included
        vocab_size = max((max(e.ids) + 1 for encs in splits if encs
                          for e in encs if e.ids), default=1)
        segs = [tok_mod.PrecomputedSegmenter(encs, vocab_size)
                if encs is not None else None for encs in splits]
        return segs[0], segs[1], segs[2], "external:" + ",".join(paths)
    raise InvalidConfig(f"unknown tokenizer spec {spec!r}")


# ---------------------------------------------------------------------------
# Commands


def cmd_stats(args):
    corpus = _read_corpus(args.input)
    stats = corpus_mod.corpus_stats(corpus)
    print(f"sentences\t{stats.sentence_count}")
    print(f"tokens\t{stats.token_count}")
    print(f"tags (non-O)\t{stats.tag_count}")
    for label in sorted(stats.per_label_counts):
        print(f"label {label}\t{stats.per_label_counts[label]}")
    return 0


def cmd_synth(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg, seed = corpus_mod.parse_synth_config(fh.read())
    if args.seed is not None:
        seed = args.seed
    if seed is None:
        seed = 0
    os.makedirs(args.out, exist_ok=True)
    splits = corpus_mod.generate_synthetic(cfg, seed)
    for name, split in splits.items():
        path = os.path.join(args.out, f"{name}.conll")
        atomic_write_text(path, corpus_mod.write_conll(split))
        stats = corpus_mod.corpus_stats(split)
        print(f"{name}: {stats.sentence_count} sentences, "
              f"{stats.token_count} tokens, {stats.tag_count} tags -> {path}")
    vocab_path = os.path.join(args.out, "vocab.txt")
    tokens = corpus_mod.synthetic_vocab_tokens(cfg, seed)
    atomic_write_text(vocab_path, "\n".join(tokens) + "\n")
    print(f"wordpiece vocab: {len(tokens)} tokens -> {vocab_path}")
    return 0


def cmd_tokenize(args):
    corpus = _read_corpus(args.input)
    if args.mode == "word" and args.vocab is None:
        vocab = tok_mod.build_word_vocab(corpus, min_freq=1)
    else:
        if args.vocab is None:
            raise SubnerError("subword mode needs --vocab")
        vocab = tok_mod.load_vocab(args.vocab)
    shown = 0
    for sent in corpus:
        if args.limit is not None and shown >= args.limit:
            break
        enc = tok_mod.segment_sentence(sent.words, vocab, args.mode)
        print(" ".join(enc.subtokens))
        shown += 1
    stats = tok_mod.fertility_stats(corpus, vocab, args.mode)
    print(f"# words {stats.words_total}  subtokens {stats.subtokens_total}  "
          f"fertility {stats.fertility:.4f}  unk_word_rate {stats.unk_word_rate:.4f}")
    return 0


def _run_training(train_corpus, val_corpus, tokenizer, arch, labels, config,
                  hyper, out_dir, run_name):
    """Shared by cmd_train and cmd_compare: trains on parsed corpora with
    `_build_segmenters` output; returns (model, RunRecord dict)."""
    seg_train, seg_val, _, tok_desc = tokenizer
    if seg_train is None:
        raise InvalidConfig("tokenizer spec provides no training segmentation")
    if val_corpus is not None and seg_val is None:
        raise InvalidConfig("tokenizer spec provides no validation segmentation")
    if val_corpus is None:
        print("warning: no validation split; early stopping disabled",
              file=sys.stderr)

    model = taggers_mod.build_model(arch, hyper, seg_train.vocab, labels,
                                    config.seed, tokenizer_mode=seg_train.mode,
                                    vocab_size=seg_train.vocab_size)
    t0 = time.perf_counter()
    model, history = taggers_mod.train(model, train_corpus, val_corpus,
                                       seg_train, config, val_segmenter=seg_val)
    wall = time.perf_counter() - t0

    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, f"{run_name}.ckpt")
    taggers_mod.save_checkpoint(model, ckpt_path)
    atomic_write_text(os.path.join(out_dir, f"{run_name}.history.txt"),
                      history.to_file_text())
    record = {
        "run": run_name,
        "arch": arch,
        "tokenizer": tok_desc,
        "seed": config.seed,
        "config": {
            "epochs": config.epochs, "batch_size": config.batch_size,
            "max_len": config.max_len, "learning_rate": config.learning_rate,
            "patience": config.patience, "strategy": config.strategy.value,
        },
        "hyper": {
            "embed_dim": hyper.embed_dim, "conv_filters": hyper.conv_filters,
            "conv_kernel": hyper.conv_kernel, "lstm_hidden": hyper.lstm_hidden,
            "bilstm_hidden": hyper.bilstm_hidden, "num_labels": hyper.num_labels,
        },
        "param_count": taggers_mod.count_params(model),
        "epochs_run": len(history.train_loss),
        "best_epoch": history.best_epoch,
        "truncated_rows": history.truncated_rows,
        "train_seconds": wall,
        "epoch_seconds": history.seconds,
        "checkpoint": ckpt_path,
    }
    atomic_write_text(os.path.join(out_dir, f"{run_name}.run.json"),
                      json.dumps(record, indent=2, sort_keys=True) + "\n")
    return model, record


def cmd_train(args):
    kv = parse_kv_file(args.config) if args.config else {}
    spec = args.tokenizer
    if spec == "wordpiece" and args.vocab:
        spec = f"wordpiece:{args.vocab}"
    if spec == "external":
        seg_paths = [args.seg_train or "-", args.seg_val or "-", "-"]
        spec = "external:" + ",".join(seg_paths)
    train_corpus = _read_corpus(args.train, "train")
    val_corpus = _read_corpus(args.val, "validation") if args.val else None
    labels = corpus_mod.build_label_set(train_corpus)
    config, hyper = _configs_from_kv(kv, len(labels), args.seed)
    # paths on the command line stay relative to the working directory
    tokenizer = _build_segmenters(spec, train_corpus, "")
    _, record = _run_training(train_corpus, val_corpus, tokenizer, args.arch,
                              labels, config, hyper, args.out, args.run_name)
    print(f"trained {record['run']}: {record['param_count']} parameters, "
          f"{record['epochs_run']} epochs, checkpoint {record['checkpoint']}")
    return 0


def cmd_predict(args):
    model = taggers_mod.load_checkpoint(args.checkpoint)
    if model.vocab is None:
        raise SubnerError("externally segmented checkpoints cannot predict raw text")
    segmenter = tok_mod.VocabSegmenter(model.vocab, model.tokenizer_mode)
    strategy = ClubbingStrategy.parse(args.strategy)
    with open(args.input, "r", encoding="utf-8") as fh:
        lines = [line.split() for line in fh]
    tagged = iter(taggers_mod.predict_encodings(
        model, [segmenter.encode(words) for words in lines if words], strategy))
    for words in lines:
        if words:
            word_tags, _ = next(tagged)
            for word, tag in zip(words, word_tags):
                print(f"{word}\t{tag}")
        print()
    return 0


def cmd_eval(args):
    model = taggers_mod.load_checkpoint(args.checkpoint)
    test_corpus = _read_corpus(args.test, "test")
    if args.seg:
        segmenter = tok_mod.PrecomputedSegmenter(
            tok_mod.load_external_segmentation(args.seg), model.vocab_size
        )
    elif model.vocab is not None:
        segmenter = tok_mod.VocabSegmenter(model.vocab, model.tokenizer_mode)
    else:
        raise SubnerError("externally segmented checkpoint needs --seg")
    strategy = ClubbingStrategy.parse(args.strategy)
    report = metrics_mod.evaluate(model, test_corpus, segmenter, strategy,
                                  span_scheme=args.span_scheme)
    sys.stdout.write(metrics_mod.report_to_text(report))
    if args.out:
        atomic_write_text(args.out, metrics_mod.report_to_tsv(report))
        print(f"tsv report -> {args.out}")
    return 0


def cmd_compare(args):
    kv = parse_kv_file(args.grid)
    base = os.path.dirname(os.path.abspath(args.grid))

    specs, settings = {}, {}
    for key, value in kv.items():
        if key.startswith("tokenizer."):
            specs[key.split(".", 1)[1]] = value
        elif key not in ("archs", "train", "validation", "test"):
            settings[key] = value
    archs = [a.strip() for a in kv.get("archs", "CNN").split(",") if a.strip()]
    if not specs or not archs:
        raise SubnerError("grid needs at least one tokenizer.<name> and one arch")
    unknown = [a for a in archs if a not in taggers_mod.ARCHS]
    if unknown:
        raise InvalidConfig(f"unknown architecture {', '.join(map(repr, unknown))}; "
                            f"expected one of {', '.join(taggers_mod.ARCHS)}")
    if "train" not in kv or "test" not in kv:
        raise SubnerError("grid needs train= and test= corpus paths")
    # inputs load once, before any cell trains, so a bad one exits 2 early
    train_corpus = _read_corpus(os.path.join(base, kv["train"]), "train")
    val_corpus = (_read_corpus(os.path.join(base, kv["validation"]), "validation")
                  if "validation" in kv else None)
    test_corpus = _read_corpus(os.path.join(base, kv["test"]), "test")
    labels = corpus_mod.build_label_set(train_corpus)
    for corpus in (val_corpus, test_corpus):
        if corpus is not None:
            taggers_mod.check_label_compat(labels, corpus)
    config, hyper = _configs_from_kv(settings, len(labels))
    tokenizers = {name: _build_segmenters(spec, train_corpus, base)
                  for name, spec in specs.items()}
    os.makedirs(args.out, exist_ok=True)

    results = {}   # (tok_name, arch) -> EvalReport or None
    any_ok = False
    for tok_name, tokenizer in tokenizers.items():
        seg_test = tokenizer[2]
        for arch in archs:
            run_name = f"{tok_name}.{arch}"
            try:
                if seg_test is None:
                    raise SubnerError("tokenizer spec provides no test segmentation")
                model, record = _run_training(train_corpus, val_corpus,
                                              tokenizer, arch, labels, config,
                                              hyper, args.out, run_name)
                report = metrics_mod.evaluate(model, test_corpus, seg_test,
                                              config.strategy)
                results[(tok_name, arch)] = report
                record["metrics"] = {
                    "macro_f1": report.macro_f1,
                    "macro_precision": report.macro_precision,
                    "macro_recall": report.macro_recall,
                    "micro_f1": report.micro_f1,
                    "accuracy": report.accuracy,
                }
                record["status"] = "ok"
                any_ok = True
            except SubnerError as exc:
                print(f"run {run_name} failed: {exc}", file=sys.stderr)
                results[(tok_name, arch)] = None
                record = {"run": run_name, "status": "failed", "error": str(exc)}
            atomic_write_text(os.path.join(args.out, f"{run_name}.run.json"),
                              json.dumps(record, indent=2, sort_keys=True) + "\n")

    md = _render_markdown(tokenizers, archs, results, config.strategy)
    tsv = _render_tsv(tokenizers, archs, results)
    atomic_write_text(os.path.join(args.out, "report.md"), md)
    atomic_write_text(os.path.join(args.out, "report.tsv"), tsv)
    sys.stdout.write(md)
    return 0 if any_ok else EXIT_TRAIN


def _render_markdown(tokenizers, archs, results, strategy):
    metric_groups = [
        ("F1", "macro_f1"), ("Precision", "macro_precision"),
        ("Recall", "macro_recall"), ("Accuracy", "accuracy"),
    ]
    best_f1 = {}
    for arch in archs:
        cells = [(name, results[(name, arch)]) for name in tokenizers
                 if results[(name, arch)] is not None]
        if cells:
            best_f1[arch] = max(cells, key=lambda kv: kv[1].macro_f1)[0]
    header = ["Tokenizer/Model"]
    for title, _ in metric_groups:
        header.extend(f"{title} {arch}" for arch in archs)
    lines = [
        f"# Tokenizer x architecture comparison",
        "",
        f"Headline metric: macro over non-O classes; clubbing: {strategy.value}.",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for name in tokenizers:
        row = [name]
        for title, attr in metric_groups:
            for arch in archs:
                report = results[(name, arch)]
                if report is None:
                    row.append("failed")
                    continue
                value = f"{getattr(report, attr) * 100:.1f}"
                if attr == "macro_f1" and best_f1.get(arch) == name:
                    value = f"**{value}**"
                row.append(value)
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _render_tsv(tokenizers, archs, results):
    cols = ["tokenizer"]
    for arch in archs:
        cols.extend(f"{arch}.{m}" for m in
                    ("macro_f1", "macro_precision", "macro_recall", "accuracy"))
    lines = ["\t".join(cols)]
    for name in tokenizers:
        row = [name]
        for arch in archs:
            report = results[(name, arch)]
            if report is None:
                row.extend(["failed"] * 4)
            else:
                row.extend(f"{v:.6f}" for v in (
                    report.macro_f1, report.macro_precision,
                    report.macro_recall, report.accuracy,
                ))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subner",
        description="Subword-tokenized shallow NER taggers and tokenizer "
                    "comparison harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics for a CoNLL file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_stats, error_code=EXIT_INPUT)

    p = sub.add_parser("synth", help="generate a synthetic inflected corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth, error_code=EXIT_INPUT)

    p = sub.add_parser("tokenize", help="show segmentations and fertility stats")
    p.add_argument("--input", required=True)
    p.add_argument("--vocab")
    p.add_argument("--mode", choices=("subword", "word"), default="subword")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_tokenize, error_code=EXIT_INPUT)

    p = sub.add_parser("train", help="train a tagger")
    p.add_argument("--train", required=True)
    p.add_argument("--val")
    p.add_argument("--arch", choices=taggers_mod.ARCHS, required=True)
    p.add_argument("--tokenizer", default="word",
                   help="word | wordpiece (with --vocab) | external")
    p.add_argument("--vocab")
    p.add_argument("--seg-train", dest="seg_train")
    p.add_argument("--seg-val", dest="seg_val")
    p.add_argument("--config", help="flat key=value training config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--run-name", dest="run_name", default="run")
    p.set_defaults(func=cmd_train, error_code=EXIT_TRAIN)

    p = sub.add_parser("predict", help="tag raw text (one sentence per line)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--strategy", default="first")
    p.set_defaults(func=cmd_predict, error_code=EXIT_EVAL)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a CoNLL file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--strategy", default="first")
    p.add_argument("--seg", help="external segmentation for the test file")
    p.add_argument("--span-scheme", dest="span_scheme",
                   choices=("bio", "flat"), default=None)
    p.add_argument("--out", help="TSV report path")
    p.set_defaults(func=cmd_eval, error_code=EXIT_EVAL)

    p = sub.add_parser("compare", help="tokenizer x architecture grid run")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    # every cell's failure is caught; what escapes failed before any cell
    p.set_defaults(func=cmd_compare, error_code=EXIT_INPUT)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MalformedLine, EmptyCorpus, DuplicateToken, MissingSpecial,
            InvalidConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SubnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return args.error_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
