"""Command-line surface: tokenize, train, predict, eval, compare, synth, stats.

Exit codes: 0 ok, 2 input/file errors, 3 training errors, 4 evaluation errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
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
    InvariantViolation,
    LabelMismatch,
    MalformedLine,
    MissingSpecial,
    NotUtf8,
    SubnerError,
)
from .util import atomic_write_text, dataclass_kwargs, parse_kv_file, read_text

EXIT_INPUT = 2
EXIT_TRAIN = 3
EXIT_EVAL = 4


def _read_corpus(path, split_name="unsplit"):
    return corpus_mod.parse_conll(read_text(path), split_name)


def _configs_from_kv(kv, num_labels, seed_override=None):
    """(TrainConfig, Hyperparams) from flat key=value settings, each key a
    field of one of them but num_labels (that comes from the label set); an
    unknown key, or a value that does not parse or is out of its range,
    raises InvalidConfig."""
    hyper_keys = {f.name for f in dataclasses.fields(taggers_mod.Hyperparams)
                  if f.name != "num_labels"}
    hyper = dataclass_kwargs(taggers_mod.Hyperparams,
                             {k: v for k, v in kv.items() if k in hyper_keys})
    config = dataclass_kwargs(taggers_mod.TrainConfig,
                              {k: v for k, v in kv.items() if k not in hyper_keys},
                              {"strategy": ClubbingStrategy.parse})
    if seed_override is not None:
        config["seed"] = seed_override
    try:
        return (taggers_mod.TrainConfig(**config),
                taggers_mod.Hyperparams(num_labels=num_labels, **hyper))
    except InvalidHyper as exc:
        raise InvalidConfig(str(exc)) from exc


def _load_segmentation(path, corpus, encodings):
    """Adds the records of `corpus` in an external segmentation file, in
    line order (later records are not read), to `encodings`, the map of a
    sentence's words to its encoding, and returns it. A malformed file, a
    missing or misaligned record, or a sentence the map already segments
    differently is an input error."""
    try:
        records = tok_mod.load_external_segmentation(path)
        if len(records) < len(corpus):
            raise InvariantViolation(
                len(records), f"external segmentation has {len(records)} "
                              f"records, none for this sentence")
        for index, (sent, enc) in enumerate(zip(corpus, records)):
            if enc.n_words != len(sent.words):
                raise InvariantViolation(
                    index, f"encoding covers {enc.n_words} words, sentence "
                           f"has {len(sent.words)}")
            if encodings.setdefault(sent.words, enc) != enc:
                raise InvariantViolation(index, "segmented differently from "
                                         "an earlier copy of the sentence")
    except InvariantViolation as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc
    return encodings


def _check_run_name(name, what):
    """Run artifacts are named after `name` inside --out: no path allowed."""
    if not name or any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        raise InvalidConfig(f"{what} {name!r} is not a file name")


def _resolve_tokenizer(spec, corpora, base=""):
    """(segmenter, spec as recorded) of a tokenizer spec: `word`,
    `wordpiece:<vocab>` or `external:<train seg>[,<val seg>[,<test seg>]]`,
    where "-" or nothing stands for a split without a segmentation. Paths
    are relative to `base` (an absolute one stays as it is), and the
    recorded spec names them so. An external spec names a file for exactly
    the splits of `corpora` (training, validation, test; None for one not
    given) and checks each against its corpus; one segmenter serves all."""
    kind, colon, rest = spec.partition(":")
    if spec == "word":
        vocab = tok_mod.build_word_vocab(corpora[0])
        return tok_mod.VocabSegmenter(vocab, "word"), "word"
    if kind == "wordpiece":
        if not rest.strip():
            raise InvalidConfig(f"tokenizer spec {spec!r} names no vocab; "
                                f"expected wordpiece:<vocab file>")
        path = os.path.join(base, rest.strip())
        seg = tok_mod.VocabSegmenter(tok_mod.load_vocab(path), "subword")
        return seg, f"wordpiece:{path}"
    paths = [p.strip() for p in rest.split(",")]
    if kind != "external" or not colon or len(paths) > 3:
        raise InvalidConfig(f"unknown tokenizer spec {spec!r}")
    paths = [os.path.join(base, p) if p not in ("", "-") else None
             for p in paths + [""] * (3 - len(paths))]
    encodings = {}
    for path, corpus, split in zip(paths, corpora,
                                   ("training", "validation", "test")):
        if path and corpus is None:
            raise InvalidConfig(f"{path}: segments the {split} split, "
                                f"which has no corpus")
        if corpus is not None and not path:
            raise InvalidConfig(f"tokenizer spec provides no {split} segmentation")
        if path:
            _load_segmentation(path, corpus, encodings)
    return (tok_mod.PrecomputedSegmenter(encodings),
            "external:" + ",".join(p or "-" for p in paths))


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
    cfg, seed = corpus_mod.parse_synth_config(read_text(args.config))
    if args.seed is not None:
        seed = args.seed
    if seed is None:
        seed = 0
    splits = corpus_mod.generate_synthetic(cfg, seed)
    os.makedirs(args.out, exist_ok=True)
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
    if args.tokenizer.startswith("external:"):
        raise InvalidConfig("tokenize segments through a vocab: expected "
                            "word or wordpiece:<vocab file>")
    corpus = _read_corpus(args.input)
    segmenter, _ = _resolve_tokenizer(args.tokenizer, (corpus, None, None))
    encodings = [segmenter.encode(sent.words) for sent in corpus]
    shown = encodings if args.limit is None else encodings[:max(args.limit, 0)]
    for enc in shown:
        print(" ".join(enc.subtokens))
    stats = tok_mod.encoding_fertility(encodings, segmenter.vocab.unk_id)
    print(f"# words {stats.words_total}  subtokens {stats.subtokens_total}  "
          f"fertility {stats.fertility:.4f}  unk_word_rate {stats.unk_word_rate:.4f}")
    return 0


def _run_training(train_corpus, val_corpus, tokenizer, arch, labels, config,
                  hyper, out_dir, run_name):
    """Shared by cmd_train and cmd_compare: trains on parsed corpora with
    `_resolve_tokenizer` output; returns (model, run record to write)."""
    segmenter, tok_desc = tokenizer
    if val_corpus is None:
        print("warning: no validation split; early stopping disabled",
              file=sys.stderr)

    model = taggers_mod.build_model(arch, hyper, segmenter.vocab, labels,
                                    config.seed, tokenizer_mode=segmenter.mode,
                                    vocab_size=segmenter.vocab_size)
    # a file in the way of out_dir fails os.makedirs below; fail before
    # training instead, creating nothing
    blocker = os.path.abspath(out_dir)
    while not os.path.exists(blocker):
        blocker = os.path.dirname(blocker)
    if not os.path.isdir(blocker):
        raise InvalidConfig(f"--out {out_dir}: {blocker} is not a directory")
    t0 = time.perf_counter()
    model, history = taggers_mod.train(model, train_corpus, val_corpus,
                                       segmenter, config)
    wall = time.perf_counter() - t0

    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, f"{run_name}.ckpt")
    taggers_mod.save_checkpoint(model, ckpt_path)
    atomic_write_text(os.path.join(out_dir, f"{run_name}.history.txt"),
                      history.to_file_text())
    return model, {
        "run": run_name,
        "arch": arch,
        "tokenizer": tok_desc,
        "seed": config.seed,
        "config": {**dataclasses.asdict(config), "strategy": config.strategy.value},
        "hyper": dataclasses.asdict(hyper),
        "param_count": taggers_mod.count_params(model),
        "epochs_run": len(history.train_loss),
        "best_epoch": history.best_epoch,
        "truncated_rows": history.truncated_rows,
        "train_seconds": wall,
        "epoch_seconds": history.seconds,
        "checkpoint": ckpt_path,
    }


def _write_record(out_dir, record):
    atomic_write_text(os.path.join(out_dir, f"{record['run']}.run.json"),
                      json.dumps(record, indent=2, sort_keys=True) + "\n")


def cmd_train(args):
    _check_run_name(args.run_name, "run name")
    kv = parse_kv_file(args.config) if args.config else {}
    train_corpus = _read_corpus(args.train, "train")
    val_corpus = _read_corpus(args.val, "validation") if args.val else None
    labels = corpus_mod.build_label_set(train_corpus)
    config, hyper = _configs_from_kv(kv, len(labels), args.seed)
    # paths on the command line stay relative to the working directory
    tokenizer = _resolve_tokenizer(args.tokenizer,
                                   (train_corpus, val_corpus, None))
    _, record = _run_training(train_corpus, val_corpus, tokenizer, args.arch,
                              labels, config, hyper, args.out, args.run_name)
    _write_record(args.out, record)
    print(f"trained {record['run']}: {record['param_count']} parameters, "
          f"{record['epochs_run']} epochs, checkpoint {record['checkpoint']}")
    return 0


def cmd_predict(args):
    model = taggers_mod.load_checkpoint(args.checkpoint)
    if model.vocab is None:
        raise SubnerError("externally segmented checkpoints cannot predict raw text")
    segmenter = tok_mod.VocabSegmenter(model.vocab, model.tokenizer_mode)
    strategy = ClubbingStrategy.parse(args.strategy)
    lines = [line.split() for line in io.StringIO(read_text(args.input))]
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
            _load_segmentation(args.seg, test_corpus, {}))
        if segmenter.vocab_size > model.vocab_size:
            raise InvalidConfig(f"{args.seg}: id {segmenter.vocab_size - 1} "
                                f"is outside the checkpoint's embedding table "
                                f"of {model.vocab_size} rows")
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


# compare report column title -> EvalReport attribute, in report order; the
# same attributes are a cell's run.json metrics
REPORT_COLUMNS = {"F1": "macro_f1", "Precision": "macro_precision",
                  "Recall": "macro_recall", "Accuracy": "accuracy"}


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
    repeated = sorted({a for a in archs if archs.count(a) > 1})
    if repeated:
        raise InvalidConfig(f"architecture {', '.join(map(repr, repeated))} "
                            f"repeated in archs")
    for name in specs:
        _check_run_name(name, "tokenizer name")
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
    tokenizers = {name: _resolve_tokenizer(spec, (train_corpus, val_corpus,
                                                  test_corpus), base)
                  for name, spec in specs.items()}
    os.makedirs(args.out, exist_ok=True)

    results = {}   # (tok_name, arch) -> EvalReport or None
    any_ok = False
    for tok_name, tokenizer in tokenizers.items():
        for arch in archs:
            run_name = f"{tok_name}.{arch}"
            try:
                model, record = _run_training(train_corpus, val_corpus,
                                              tokenizer, arch, labels, config,
                                              hyper, args.out, run_name)
                report = metrics_mod.evaluate(model, test_corpus,
                                              tokenizer[0], config.strategy)
                results[(tok_name, arch)] = report
                record["metrics"] = {attr: getattr(report, attr) for attr in
                                     ("micro_f1", *REPORT_COLUMNS.values())}
                record["status"] = "ok"
                any_ok = True
            except (SubnerError, MemoryError) as exc:
                print(f"run {run_name} failed: {exc}", file=sys.stderr)
                results[(tok_name, arch)] = None
                record = {"run": run_name, "status": "failed", "error": str(exc)}
            _write_record(args.out, record)

    md = _render_markdown(tokenizers, archs, results, config.strategy)
    tsv = _render_tsv(tokenizers, archs, results)
    atomic_write_text(os.path.join(args.out, "report.md"), md)
    atomic_write_text(os.path.join(args.out, "report.tsv"), tsv)
    sys.stdout.write(md)
    return 0 if any_ok else EXIT_TRAIN


def _render_markdown(tokenizers, archs, results, strategy):
    best_f1 = {}
    for arch in archs:
        cells = [(name, results[(name, arch)]) for name in tokenizers
                 if results[(name, arch)] is not None]
        if cells:
            best_f1[arch] = max(cells, key=lambda kv: kv[1].macro_f1)[0]
    header = ["Tokenizer/Model"]
    for title in REPORT_COLUMNS:
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
        for attr in REPORT_COLUMNS.values():
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
        cols.extend(f"{arch}.{attr}" for attr in REPORT_COLUMNS.values())
    lines = ["\t".join(cols)]
    for name in tokenizers:
        row = [name]
        for arch in archs:
            report = results[(name, arch)]
            if report is None:
                row.extend(["failed"] * len(REPORT_COLUMNS))
            else:
                row.extend(f"{getattr(report, attr):.6f}"
                           for attr in REPORT_COLUMNS.values())
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
    p.add_argument("--tokenizer", default="word",
                   help="word | wordpiece:<vocab>")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_tokenize, error_code=EXIT_INPUT)

    p = sub.add_parser("train", help="train a tagger")
    p.add_argument("--train", required=True)
    p.add_argument("--val")
    p.add_argument("--arch", choices=taggers_mod.ARCHS, required=True)
    p.add_argument("--tokenizer", default="word",
                   help="word | wordpiece:<vocab> | "
                        "external:<train seg>[,<val seg>]")
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
            InvalidConfig, LabelMismatch, NotUtf8) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SubnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return args.error_code
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return args.error_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
