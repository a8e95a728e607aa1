import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subner.alignment import ClubbingStrategy
from subner.cli import CONFIG_KEYS, HYPER_KEYS, main
from subner.taggers import Hyperparams, TrainConfig

SYNTH_CONFIG = """
classes = NEL, NEP
suffixes = NEL:pur|gad; NEP:rao|bai
stems_per_class = 20
n_fillers = 30
n_train = 60
n_test = 30
n_validation = 15
len_min = 3
len_max = 6
stem_len_min = 2
stem_len_max = 2
oov_rate = 1.0
seed = 7
"""

TRAIN_CONFIG = """
epochs = 6
batch_size = 8
max_len = 24
learning_rate = 0.005
seed = 3
embed_dim = 24
conv_filters = 32
lstm_hidden = 16
"""


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    cfg = root / "synth.cfg"
    cfg.write_text(SYNTH_CONFIG, encoding="utf-8")
    data = root / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    return data


def test_synth_outputs(synth_dir):
    for name in ("train.conll", "test.conll", "validation.conll", "vocab.txt"):
        assert (synth_dir / name).exists()


def test_stats_runs(synth_dir, capsys):
    assert main(["stats", "--input", str(synth_dir / "train.conll")]) == 0
    out = capsys.readouterr().out
    assert "sentences\t60" in out


def test_tokenize_subword(synth_dir, capsys):
    assert main([
        "tokenize", "--input", str(synth_dir / "train.conll"),
        "--vocab", str(synth_dir / "vocab.txt"), "--limit", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "fertility" in out


def test_tokenize_word_mode_fertility_one(synth_dir, capsys):
    assert main([
        "tokenize", "--input", str(synth_dir / "train.conll"),
        "--mode", "word", "--limit", "1",
    ]) == 0
    assert "fertility 1.0000" in capsys.readouterr().out


def test_tokenize_missing_vocab_exit_2(synth_dir, capsys):
    code = main([
        "tokenize", "--input", str(synth_dir / "train.conll"),
        "--vocab", str(synth_dir / "does-not-exist.txt"),
    ])
    assert code == 2
    assert "does-not-exist.txt" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg = out / "train.cfg"
    cfg.write_text(TRAIN_CONFIG, encoding="utf-8")
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--val", str(synth_dir / "validation.conll"),
        "--arch", "CNN", "--tokenizer", "wordpiece",
        "--vocab", str(synth_dir / "vocab.txt"),
        "--config", str(cfg), "--out", str(out), "--run-name", "cnn",
    ])
    assert code == 0
    return out, cfg


def test_train_artifacts(trained):
    out, _ = trained
    assert (out / "cnn.ckpt").exists()
    assert (out / "cnn.history.txt").exists()
    record = json.loads((out / "cnn.run.json").read_text())
    assert record["arch"] == "CNN"
    assert record["param_count"] > 0
    assert len(record["epoch_seconds"]) == record["epochs_run"]
    assert all(s > 0 for s in record["epoch_seconds"])
    assert sum(record["epoch_seconds"]) <= record["train_seconds"]


def test_train_rerun_byte_identical(trained, synth_dir, tmp_path):
    out, cfg = trained
    out2 = tmp_path / "rerun"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--val", str(synth_dir / "validation.conll"),
        "--arch", "CNN", "--tokenizer", "wordpiece",
        "--vocab", str(synth_dir / "vocab.txt"),
        "--config", str(cfg), "--out", str(out2), "--run-name", "cnn",
    ])
    assert code == 0
    assert (out / "cnn.history.txt").read_bytes() == \
        (out2 / "cnn.history.txt").read_bytes()
    assert (out / "cnn.ckpt").read_bytes() == (out2 / "cnn.ckpt").read_bytes()


def test_eval_writes_tsv(trained, synth_dir, tmp_path, capsys):
    out, _ = trained
    tsv = tmp_path / "report.tsv"
    code = main([
        "eval", "--checkpoint", str(out / "cnn.ckpt"),
        "--test", str(synth_dir / "test.conll"),
        "--strategy", "majority", "--out", str(tsv),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "clubbing: majority" in text
    lines = tsv.read_text().splitlines()
    assert lines[0] == "class\tprecision\trecall\tf1\tsupport"
    assert lines[-1].startswith("accuracy")


def test_eval_corrupt_checkpoint_exit_4(trained, synth_dir, tmp_path, capsys):
    out, _ = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((out / "cnn.ckpt").read_bytes()[:-11])
    code = main([
        "eval", "--checkpoint", str(bad),
        "--test", str(synth_dir / "test.conll"),
    ])
    assert code == 4
    assert "checksum" in capsys.readouterr().err


def test_eval_header_missing_key_exit_4(trained, synth_dir, tmp_path, capsys):
    from test_taggers import resign_header

    out, _ = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((out / "cnn.ckpt").read_bytes())
    resign_header(bad, lambda header: header.pop("tensors"))
    code = main([
        "eval", "--checkpoint", str(bad),
        "--test", str(synth_dir / "test.conll"),
    ])
    assert code == 4
    assert "tensors" in capsys.readouterr().err


def test_predict(trained, tmp_path, capsys):
    out, _ = trained
    text = tmp_path / "input.txt"
    text.write_text("dupur ozbai\n", encoding="utf-8")
    code = main([
        "predict", "--checkpoint", str(out / "cnn.ckpt"),
        "--input", str(text), "--strategy", "majority",
    ])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 2
    assert all("\t" in l for l in lines)


@pytest.mark.parametrize("arch", ["CNN", "BiLSTM"])
def test_predict_matches_per_line_tagging(arch, synth_dir, tmp_path, capsys,
                                          monkeypatch):
    from subner import taggers
    from subner.corpus import build_label_set, parse_conll
    from subner.tokenizers import VocabSegmenter, load_vocab

    train = parse_conll((synth_dir / "train.conll").read_text(), "train")
    test = parse_conll((synth_dir / "test.conll").read_text(), "test")
    labels = build_label_set(train)
    vocab = load_vocab(synth_dir / "vocab.txt")
    hyper = Hyperparams(embed_dim=8, conv_filters=8, bilstm_hidden=6,
                        num_labels=len(labels))
    model = taggers.build_model(arch, hyper, vocab, labels, 4)
    ckpt = tmp_path / "model.ckpt"
    taggers.save_checkpoint(model, ckpt)
    # mixed lengths, unknown words, leading, repeated and blank-looking lines
    lines = ["", " ".join(test.sentences[0].words), "", "   ", "xq zzv",
             " ".join(test.sentences[1].words * 4), "\t",
             *(" ".join(s.words) for s in test.sentences[2:9]), ""]
    text = tmp_path / "input.txt"
    text.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # several blocks, and a line longer than a block
    monkeypatch.setattr(taggers, "PREDICT_BLOCK_SUBTOKENS", 10)

    assert main(["predict", "--checkpoint", str(ckpt), "--input", str(text),
                 "--strategy", "majority"]) == 0
    seg = VocabSegmenter(vocab, "subword")
    expected = ""
    for line in lines:
        for word, tag in taggers.predict_sentence(
                model, line.split(), seg, ClubbingStrategy.MAJORITY):
            expected += f"{word}\t{tag}\n"
        expected += "\n"
    assert capsys.readouterr().out == expected


def test_compare_grid(synth_dir, tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.word-based = word\n"
        f"tokenizer.synthpiece = wordpiece:{synth_dir / 'vocab.txt'}\n"
        "archs = CNN\n"
        f"train = {synth_dir / 'train.conll'}\n"
        f"validation = {synth_dir / 'validation.conll'}\n"
        f"test = {synth_dir / 'test.conll'}\n"
        "strategy = majority\n"
        + TRAIN_CONFIG,
        encoding="utf-8",
    )
    out = tmp_path / "gridout"
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 0
    assert (out / "report.md").exists()
    tsv = (out / "report.tsv").read_text().splitlines()
    assert tsv[0].startswith("tokenizer\tCNN.macro_f1")
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in tsv[1:]}
    word_f1 = float(rows["word-based"][0])
    sub_f1 = float(rows["synthpiece"][0])
    assert sub_f1 > word_f1  # OOV-heavy test split favors subwords

    # matrix cell equals the standalone train+eval path for the same seed
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CONFIG + "strategy = majority\n", encoding="utf-8")
    solo = tmp_path / "solo"
    assert main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--val", str(synth_dir / "validation.conll"),
        "--arch", "CNN", "--tokenizer", "wordpiece",
        "--vocab", str(synth_dir / "vocab.txt"),
        "--config", str(cfg), "--out", str(solo), "--run-name", "solo",
    ]) == 0
    assert (solo / "solo.ckpt").read_bytes() == \
        (out / "synthpiece.CNN.ckpt").read_bytes()
    # compare scores the model in memory; eval of its checkpoint agrees exactly
    solo_tsv = tmp_path / "solo.tsv"
    assert main([
        "eval", "--checkpoint", str(out / "synthpiece.CNN.ckpt"),
        "--test", str(synth_dir / "test.conll"), "--strategy", "majority",
        "--out", str(solo_tsv),
    ]) == 0
    solo_rows = {line.split("\t")[0]: line.split("\t")[1:]
                 for line in solo_tsv.read_text().splitlines()}
    macro_p, macro_r, macro_f1, _ = solo_rows["macro"]
    assert rows["synthpiece"] == [macro_f1, macro_p, macro_r,
                                  solo_rows["accuracy"][2]]


def test_compare_single_cell(synth_dir, tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.word-based = word\n"
        "archs = CNN\n"
        f"train = {synth_dir / 'train.conll'}\n"
        f"test = {synth_dir / 'test.conll'}\n"
        "epochs = 2\nbatch_size = 8\nmax_len = 16\n"
        "embed_dim = 8\nconv_filters = 8\n",
        encoding="utf-8",
    )
    out = tmp_path / "gridout"
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 0
    tsv = (out / "report.tsv").read_text().splitlines()
    assert len(tsv) == 2


SMALL_GRID_CONFIG = ("epochs = 1\nbatch_size = 8\nmax_len = 16\n"
                     "embed_dim = 8\nconv_filters = 8\nlstm_hidden = 8\n")


@pytest.mark.parametrize("spec, error", [
    ("wordpiece:no-such-vocab.txt", "no-such-vocab.txt"),
    ("bogus", "unknown tokenizer spec 'bogus'"),
])
def test_compare_bad_tokenizer_exit_2_before_training(synth_dir, tmp_path,
                                                      capsys, spec, error):
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.word-based = word\n"
        f"tokenizer.synthpiece = wordpiece:{synth_dir / 'vocab.txt'}\n"
        f"tokenizer.bad = {spec}\n"
        "archs = CNN,LSTM\n"
        f"train = {synth_dir / 'train.conll'}\n"
        f"test = {synth_dir / 'test.conll'}\n"
        + SMALL_GRID_CONFIG,
        encoding="utf-8",
    )
    out = tmp_path / "gridout"
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not list(out.glob("*.ckpt"))
    assert not (out / "report.tsv").exists()


def test_compare_malformed_corpus_exit_2_before_training(synth_dir, tmp_path):
    bad = tmp_path / "bad.conll"
    bad.write_text("a b O\n", encoding="utf-8")
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.word-based = word\n"
        "archs = CNN,LSTM\n"
        f"train = {bad}\n"
        f"test = {synth_dir / 'test.conll'}\n"
        + SMALL_GRID_CONFIG,
        encoding="utf-8",
    )
    out = tmp_path / "gridout"
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 2
    assert not list(out.glob("*.ckpt"))


def test_config_keys_are_the_dataclass_fields():
    fields = ({f.name for f in dataclasses.fields(TrainConfig)}
              | {f.name for f in dataclasses.fields(Hyperparams)})
    assert set(CONFIG_KEYS) | set(HYPER_KEYS) == fields - {"num_labels"}


def test_train_unknown_config_key_exit_2(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CONFIG + "learnig_rate = 5\n", encoding="utf-8")
    out = tmp_path / "run"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--config", str(cfg), "--out", str(out),
    ])
    assert code == 2
    assert "unknown config key 'learnig_rate'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting, error", [
    ("learning_rate = -1", "bad optimizer settings"),
    ("epochs = 0", "epochs, batch_size, max_len must be positive"),
    ("embed_dim = 0", "embed_dim must be a positive integer"),
    ("grad_clip = -1", "grad_clip must be positive"),
    ("grad_clip = 0", "grad_clip must be positive"),
], ids=["learning_rate", "epochs", "embed_dim", "grad_clip_negative",
        "grad_clip_zero"])
def test_train_out_of_range_config_exit_2(synth_dir, tmp_path, capsys,
                                          setting, error):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CONFIG + setting + "\n", encoding="utf-8")
    out = tmp_path / "run"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--config", str(cfg), "--out", str(out),
    ])
    assert code == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tokenizer, error", [
    ("wordpiece", "wordpiece tokenizer needs --vocab"),
    ("bogus", "unknown tokenizer spec 'bogus'"),
])
def test_train_bad_tokenizer_exit_2(synth_dir, tmp_path, capsys, tokenizer,
                                    error):
    out = tmp_path / "run"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--tokenizer", tokenizer, "--out", str(out),
    ])
    assert code == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def with_new_tag(src, dst):
    """Copy a CoNLL file, tagging its first word with a tag no split has."""
    word, _, rest = src.read_text(encoding="utf-8").partition("\t")
    dst.write_text(word + "\tB-NEW" + rest[rest.index("\n"):], encoding="utf-8")
    return dst


@pytest.mark.parametrize("bad, error", [
    ("test", "corpus tag 'B-NEW' not in model label set"),
    ("validation", "corpus tag 'B-NEW' not in model label set"),
    ("epoch", "unknown config key 'epoch'"),
    ("arch", "unknown architecture 'GRU'"),
])
def test_compare_bad_grid_exit_2_before_training(synth_dir, tmp_path, capsys,
                                                 bad, error):
    splits = {name: synth_dir / f"{name}.conll"
              for name in ("train", "validation", "test")}
    settings = SMALL_GRID_CONFIG
    archs = "CNN,LSTM"
    if bad == "epoch":
        settings += "epoch = 2\n"
    elif bad == "arch":
        archs = "CNN,GRU"
    else:
        splits[bad] = with_new_tag(splits[bad], tmp_path / f"{bad}.conll")
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.word-based = word\n"
        f"tokenizer.synthpiece = wordpiece:{synth_dir / 'vocab.txt'}\n"
        f"archs = {archs}\n"
        + "".join(f"{name} = {path}\n" for name, path in splits.items())
        + settings,
        encoding="utf-8",
    )
    out = tmp_path / "gridout"
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_train_non_finite_loss_exit_3(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CONFIG.replace("learning_rate = 0.005",
                                        "learning_rate = 1e300"),
                   encoding="utf-8")
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([
            "train", "--train", str(synth_dir / "train.conll"),
            "--val", str(synth_dir / "validation.conll"),
            "--arch", "CNN", "--tokenizer", "wordpiece",
            "--vocab", str(synth_dir / "vocab.txt"),
            "--config", str(cfg), "--out", str(out), "--run-name", "nan",
        ])
    assert code == 3
    assert "epoch 1: batch loss is nan" in capsys.readouterr().err
    assert not (out / "nan.ckpt").exists()


def test_train_diverging_loss_exit_3(synth_dir, tmp_path, capsys):
    # every loss stays finite, but the epoch's mean is far above ln(labels)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CONFIG.replace("learning_rate = 0.005",
                                        "learning_rate = 1e6"),
                   encoding="utf-8")
    out = tmp_path / "run"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--val", str(synth_dir / "validation.conll"),
        "--arch", "CNN", "--tokenizer", "wordpiece",
        "--vocab", str(synth_dir / "vocab.txt"),
        "--config", str(cfg), "--out", str(out), "--run-name", "big",
    ])
    assert code == 3
    assert "epoch 1: mean train loss" in capsys.readouterr().err
    assert not (out / "big.ckpt").exists()


def write_word_segmentation(synth_dir, tmp_path, drop_last=False):
    """External segmentations equivalent to word-mode ids, one JSONL file
    per split; `drop_last` leaves each file one sentence short."""
    from subner.corpus import parse_conll
    from subner.tokenizers import build_word_vocab, segment_sentence

    train_corpus = parse_conll((synth_dir / "train.conll").read_text(), "train")
    test_corpus = parse_conll((synth_dir / "test.conll").read_text(), "test")
    vocab = build_word_vocab(train_corpus, 1)
    for corpus, name in ((train_corpus, "train"), (test_corpus, "test")):
        sentences = corpus.sentences[:-1] if drop_last else corpus.sentences
        with open(tmp_path / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            for sent in sentences:
                enc = segment_sentence(sent.words, vocab, "word")
                fh.write(json.dumps({
                    "subtokens": list(enc.subtokens),
                    "ids": list(enc.ids),
                    "word_ids": list(enc.word_ids),
                }) + "\n")


def test_external_segmentation_training(synth_dir, tmp_path, capsys):
    write_word_segmentation(synth_dir, tmp_path)
    out = tmp_path / "ext"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--tokenizer", "external",
        "--seg-train", str(tmp_path / "train.jsonl"),
        "--seed", "1", "--out", str(out), "--run-name", "ext",
    ])
    assert code == 0
    code = main([
        "eval", "--checkpoint", str(out / "ext.ckpt"),
        "--test", str(synth_dir / "test.conll"),
        "--seg", str(tmp_path / "test.jsonl"),
    ])
    assert code == 0

    write_word_segmentation(synth_dir, tmp_path, drop_last=True)
    code = main([
        "eval", "--checkpoint", str(out / "ext.ckpt"),
        "--test", str(synth_dir / "test.conll"),
        "--seg", str(tmp_path / "test.jsonl"),
    ])
    assert code == 4
    assert "external segmentation has 29 records" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["training", "validation"])
def test_train_external_without_segmentation_exit_2(synth_dir, tmp_path,
                                                    capsys, missing):
    write_word_segmentation(synth_dir, tmp_path)
    segs = [] if missing == "training" else ["--seg-train",
                                             str(tmp_path / "train.jsonl")]
    out = tmp_path / "ext"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--val", str(synth_dir / "validation.conll"),
        "--arch", "CNN", "--tokenizer", "external", *segs, "--out", str(out),
    ])
    assert code == 2
    assert f"tokenizer spec provides no {missing} segmentation" in \
        capsys.readouterr().err
    assert not out.exists()


def test_external_segmentation_too_short_train_exit_3(synth_dir, tmp_path,
                                                      capsys):
    write_word_segmentation(synth_dir, tmp_path, drop_last=True)
    out = tmp_path / "ext"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--tokenizer", "external",
        "--seg-train", str(tmp_path / "train.jsonl"),
        "--seed", "1", "--out", str(out), "--run-name", "ext",
    ])
    assert code == 3
    assert "sentence 59: external segmentation has 59 records" in \
        capsys.readouterr().err


def test_malformed_corpus_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.conll"
    bad.write_text("a b O\n", encoding="utf-8")
    assert main(["stats", "--input", str(bad)]) == 2


def test_compare_external_tokenizers(synth_dir, tmp_path):
    write_word_segmentation(synth_dir, tmp_path)
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.ext = external:train.jsonl,-,test.jsonl\n"
        "tokenizer.no-test = external:train.jsonl,-,-\n"
        "tokenizer.no-train = external:-,-,test.jsonl\n"
        "archs = CNN\n"
        f"train = {synth_dir / 'train.conll'}\n"
        f"test = {synth_dir / 'test.conll'}\n"
        + SMALL_GRID_CONFIG,
        encoding="utf-8",
    )
    out = tmp_path / "gridout"
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 0
    tsv = (out / "report.tsv").read_text().splitlines()
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in tsv[1:]}
    assert all(0.0 <= float(v) <= 1.0 for v in rows["ext"])
    assert (out / "ext.CNN.ckpt").exists()
    assert rows["no-test"] == ["failed"] * 4
    assert not (out / "no-test.CNN.ckpt").exists()
    record = json.loads((out / "no-test.CNN.run.json").read_text())
    assert record["error"] == "tokenizer spec provides no test segmentation"
    assert rows["no-train"] == ["failed"] * 4
    record = json.loads((out / "no-train.CNN.run.json").read_text())
    assert record["error"] == "tokenizer spec provides no training segmentation"


def test_external_embedding_covers_every_split(synth_dir, tmp_path):
    # a test-split id above every training id still has a row
    from subner.taggers import load_checkpoint

    write_word_segmentation(synth_dir, tmp_path)
    train_ids = [i for line in (tmp_path / "train.jsonl").read_text().splitlines()
                 for i in json.loads(line)["ids"]]
    test_lines = (tmp_path / "test.jsonl").read_text().splitlines()
    record = json.loads(test_lines[0])
    record["ids"][0] = max(train_ids) + 7
    test_lines[0] = json.dumps(record)
    (tmp_path / "test.jsonl").write_text("\n".join(test_lines) + "\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.ext = external:train.jsonl,-,test.jsonl\n"
        "archs = CNN\n"
        f"train = {synth_dir / 'train.conll'}\n"
        f"test = {synth_dir / 'test.conll'}\n"
        + SMALL_GRID_CONFIG,
        encoding="utf-8",
    )
    out = tmp_path / "gridout"
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 0
    assert json.loads((out / "ext.CNN.run.json").read_text())["status"] == "ok"
    model = load_checkpoint(out / "ext.CNN.ckpt")
    assert model.vocab_size == max(train_ids) + 8
    assert model.params["embed"].shape[0] == max(train_ids) + 8


SRC = Path(__file__).resolve().parents[1] / "src"
MISSING = "no-such-file"

# subcommand -> (the input it is given missing or malformed, its arguments
# given the path of each input)
SWEEP = {
    "stats": ("corpus", lambda f: ["--input", f("corpus")]),
    "synth": ("synth", lambda f: ["--config", f("synth"), "--out", "out"]),
    "tokenize": ("corpus", lambda f: ["--input", f("corpus"), "--mode", "word"]),
    "train": ("config", lambda f: ["--train", f("train"), "--config",
                                   f("config"), "--arch", "CNN", "--out", "out"]),
    "predict": ("checkpoint", lambda f: ["--checkpoint", f("checkpoint"),
                                         "--input", f("text")]),
    "eval": ("corpus", lambda f: ["--checkpoint", f("model"),
                                  "--test", f("corpus")]),
    "compare": ("grid", lambda f: ["--grid", f("grid"), "--out", "out"]),
}


@pytest.mark.parametrize("broken", ["missing", "malformed"])
@pytest.mark.parametrize("command", list(SWEEP))
def test_every_command_maps_bad_input_to_an_exit_code(
        command, broken, trained, synth_dir, tmp_path):
    out, _ = trained
    good = {
        "train": synth_dir / "train.conll",
        "text": tmp_path / "text.txt",
        "model": out / "cnn.ckpt",
    }
    good["text"].write_text("dupur ozbai\n", encoding="utf-8")
    malformed = {
        "corpus": "a b O\n",
        "synth": "classes NEL\n",
        "config": "epochs = 1\nlearnig_rate = 5\n",
        "checkpoint": "not a checkpoint",
        "grid": (f"tokenizer.w = word\ntrain = {good['train']}\n"
                 f"test = {good['train']}\nepoch = 1\n"),
    }
    target, arguments = SWEEP[command]
    bad = tmp_path / (MISSING if broken == "missing" else f"bad-{target}")
    if broken == "malformed":
        bad.write_text(malformed[target], encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subner", command,
         *arguments(lambda kind: str(bad if kind == target else good[kind]))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode in (2, 3, 4), proc.stderr
    assert "Traceback" not in proc.stderr
    if broken == "missing":
        assert MISSING in proc.stderr
