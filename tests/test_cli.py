import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subner.alignment import ClubbingStrategy
from subner.cli import build_parser, main
from subner.taggers import Hyperparams, TrainConfig
from subner.tokenizers import load_vocab

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
    def tokenize(*limit):
        assert main([
            "tokenize", "--input", str(synth_dir / "train.conll"),
            "--tokenizer", f"wordpiece:{synth_dir / 'vocab.txt'}", *limit,
        ]) == 0
        return capsys.readouterr().out.splitlines()

    everything = tokenize()
    assert len(everything) == 60 + 1  # a line per sentence, then fertility
    assert everything[-1].startswith("# words ")
    assert "fertility" in everything[-1]
    assert tokenize("--limit", "2") == everything[:2] + everything[-1:]
    # no sentence for a limit of 0 or below, and the same fertility line
    assert tokenize("--limit", "0") == everything[-1:]
    assert tokenize("--limit", "-1") == everything[-1:]


@pytest.mark.parametrize("mode", ["subword", "word"])
def test_tokenize_segments_each_sentence_once(synth_dir, capsys, monkeypatch,
                                              mode):
    from subner import tokenizers

    calls = []
    segment_sentence = tokenizers.segment_sentence

    def counting(words, vocab, mode):
        calls.append(words)
        return segment_sentence(words, vocab, mode)

    monkeypatch.setattr(tokenizers, "segment_sentence", counting)
    spec = f"wordpiece:{synth_dir / 'vocab.txt'}" if mode == "subword" else "word"
    assert main(["tokenize", "--input", str(synth_dir / "train.conll"),
                 "--tokenizer", spec]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 60 + 1
    assert len(calls) == 60


def test_tokenize_word_mode_fertility_one(synth_dir, capsys):
    assert main([
        "tokenize", "--input", str(synth_dir / "train.conll"),
        "--tokenizer", "word", "--limit", "1",
    ]) == 0
    assert "fertility 1.0000" in capsys.readouterr().out


def test_tokenize_external_spec_exit_2(synth_dir, capsys):
    code = main([
        "tokenize", "--input", str(synth_dir / "train.conll"),
        "--tokenizer", "external:train.jsonl",
    ])
    assert code == 2
    assert "expected word or wordpiece:<vocab file>" in capsys.readouterr().err


def test_tokenize_missing_vocab_exit_2(synth_dir, capsys):
    code = main([
        "tokenize", "--input", str(synth_dir / "train.conll"),
        "--tokenizer", f"wordpiece:{synth_dir / 'does-not-exist.txt'}",
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
        "--arch", "CNN", "--tokenizer", f"wordpiece:{synth_dir / 'vocab.txt'}",
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
        "--arch", "CNN", "--tokenizer", f"wordpiece:{synth_dir / 'vocab.txt'}",
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
    vocab = os.path.relpath(synth_dir / "vocab.txt", tmp_path)
    grid.write_text(
        "tokenizer.word-based = word\n"
        f"tokenizer.synthpiece = wordpiece:{vocab}\n"
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

    # matrix cell equals the standalone train+eval path for the same seed;
    # the tokenizer the cell records, its path resolved, is a train spec
    spec = json.loads((out / "synthpiece.CNN.run.json").read_text())["tokenizer"]
    assert spec == f"wordpiece:{os.path.join(tmp_path, vocab)}"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CONFIG + "strategy = majority\n", encoding="utf-8")
    solo = tmp_path / "solo"
    assert main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--val", str(synth_dir / "validation.conll"),
        "--arch", "CNN", "--tokenizer", spec,
        "--config", str(cfg), "--out", str(solo), "--run-name", "solo",
    ]) == 0
    for suffix in (".ckpt", ".history.txt"):
        assert (solo / f"solo{suffix}").read_bytes() == \
            (out / f"synthpiece.CNN{suffix}").read_bytes()
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
    ("wordpiece", "'wordpiece' names no vocab; expected wordpiece:<vocab file>"),
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


# a value other than the default for every setting a config file may hold
NON_DEFAULT_SETTINGS = {
    "epochs": 2, "batch_size": 4, "max_len": 20, "learning_rate": 0.002,
    "rho": 0.8, "epsilon": 1e-7, "seed": 5, "patience": 2,
    "strategy": "majority", "grad_clip": 5.0, "embed_dim": 8,
    "conv_filters": 8, "conv_kernel": 5, "lstm_hidden": 6, "bilstm_hidden": 7,
}


def test_run_json_records_every_config_setting(synth_dir, tmp_path):
    defaults = {**dataclasses.asdict(TrainConfig()), "strategy": "first",
                **dataclasses.asdict(Hyperparams())}
    del defaults["num_labels"]  # comes from the label set
    assert defaults.keys() == NON_DEFAULT_SETTINGS.keys()
    assert all(defaults[key] != value
               for key, value in NON_DEFAULT_SETTINGS.items())
    cfg = tmp_path / "train.cfg"
    cfg.write_text("".join(f"{key} = {value}\n"
                           for key, value in NON_DEFAULT_SETTINGS.items()),
                   encoding="utf-8")
    out = tmp_path / "run"
    assert main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--config", str(cfg), "--out", str(out),
    ]) == 0
    record = json.loads((out / "run.run.json").read_text())
    recorded = {**record["config"], **record["hyper"]}
    assert recorded.pop("num_labels") == 3  # O, B-NEL, B-NEP
    assert recorded == NON_DEFAULT_SETTINGS


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


def with_setting(config, setting):
    """`config` with the line `setting` in place of the one that sets the
    same key (a key may be set only once)."""
    key = setting.partition("=")[0].strip()
    kept = [line for line in config.splitlines()
            if line.partition("=")[0].strip() != key]
    return "\n".join(kept + [setting]) + "\n"


@pytest.mark.parametrize("command", ["train", "compare", "synth"])
def test_repeated_config_key_exit_2(synth_dir, tmp_path, capsys, command):
    cfg = tmp_path / "settings.cfg"
    out = tmp_path / "out"
    if command == "synth":
        cfg.write_text(SYNTH_CONFIG + "n_train = 5\n", encoding="utf-8")
        lines = "lines 6 and 15"  # SYNTH_CONFIG opens with a blank line
        argv = ["synth", "--config", str(cfg)]
        key = "n_train"
    elif command == "train":
        cfg.write_text("epochs = 1\nbatch_size = 4\n# again\nepochs = 2\n",
                       encoding="utf-8")
        lines = "lines 1 and 4"
        argv = ["train", "--train", str(synth_dir / "train.conll"),
                "--arch", "CNN", "--config", str(cfg)]
        key = "epochs"
    else:
        cfg.write_text(
            "tokenizer.word-based = word\n"
            f"train = {synth_dir / 'train.conll'}\n"
            f"test = {synth_dir / 'test.conll'}\n"
            f"train = {synth_dir / 'validation.conll'}\n" + SMALL_GRID_CONFIG,
            encoding="utf-8")
        lines = "lines 2 and 4"
        argv = ["compare", "--grid", str(cfg)]
        key = "train"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r} repeated on {lines}" in err
    assert not out.exists()


@pytest.mark.parametrize("setting, error", [
    ("learning_rate = -1", "bad optimizer settings"),
    ("epochs = 0", "epochs, batch_size, max_len must be positive"),
    ("embed_dim = 0", "embed_dim must be a positive integer"),
    ("grad_clip = -1", "grad_clip must be positive"),
    ("grad_clip = 0", "grad_clip must be positive"),
    ("learning_rate = nan", "bad optimizer settings"),
    ("learning_rate = inf", "bad optimizer settings"),
    ("epsilon = nan", "bad optimizer settings"),
    ("max_len = 3.5", "config key 'max_len'"),
    ("seed = -1", "seed must be non-negative, got -1"),
], ids=["learning_rate", "epochs", "embed_dim", "grad_clip_negative",
        "grad_clip_zero", "learning_rate_nan", "learning_rate_inf",
        "epsilon_nan", "max_len_not_int", "seed_negative"])
def test_train_out_of_range_config_exit_2(synth_dir, tmp_path, capsys,
                                          setting, error):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(with_setting(TRAIN_CONFIG, setting), encoding="utf-8")
    out = tmp_path / "run"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--config", str(cfg), "--out", str(out),
    ])
    assert code == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_train_negative_seed_flag_exit_2(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--seed", "-1", "--out", str(out),
    ])
    assert code == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tokenizer, error", [
    ("wordpiece", "expected wordpiece:<vocab file>"),
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
    ("seed", "seed must be non-negative, got -1"),
    ("arch", "unknown architecture 'GRU'"),
    ("repeated arch", "architecture 'CNN' repeated in archs"),
    ("tokenizer a/b", "tokenizer name 'a/b' is not a file name"),
    ("tokenizer ../escaped", "tokenizer name '../escaped' is not a file name"),
    ("tokenizer ", "tokenizer name '' is not a file name"),
])
def test_compare_bad_grid_exit_2_before_training(synth_dir, tmp_path, capsys,
                                                 bad, error):
    splits = {name: synth_dir / f"{name}.conll"
              for name in ("train", "validation", "test")}
    settings = SMALL_GRID_CONFIG
    archs = "CNN,LSTM"
    tokenizer = "word-based"
    if bad == "epoch":
        settings += "epoch = 2\n"
    elif bad == "seed":
        settings += "seed = -1\n"
    elif bad == "arch":
        archs = "CNN,GRU"
    elif bad == "repeated arch":
        archs = "CNN,LSTM,CNN"
    elif bad.startswith("tokenizer "):
        tokenizer = bad.split(" ", 1)[1]
    else:
        splits[bad] = with_new_tag(splits[bad], tmp_path / f"{bad}.conll")
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        f"tokenizer.{tokenizer} = word\n"
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
    assert not list(tmp_path.glob("**/*.ckpt"))


@pytest.mark.parametrize("run_name", ["a/b", "../escaped", ""])
def test_train_run_name_not_a_file_name_exit_2(synth_dir, tmp_path, capsys,
                                               run_name):
    out = tmp_path / "run"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--out", str(out), "--run-name", run_name,
    ])
    assert code == 2
    assert f"run name {run_name!r} is not a file name" in \
        capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("**/*.ckpt"))


def test_train_nothing_fits_max_len_exit_3(tmp_path, capsys):
    # every row's first word takes 2 subtokens, so max_len = 1 keeps none
    (tmp_path / "vocab.txt").write_text("[UNK]\npu\n##ne\nmadhye\n",
                                        encoding="utf-8")
    (tmp_path / "train.conll").write_text(
        "pune\tB-NEL\nmadhye\tO\n\npune\tB-NEL\n\n", encoding="utf-8")
    (tmp_path / "train.cfg").write_text(
        "epochs = 2\nmax_len = 1\nembed_dim = 8\nconv_filters = 8\n",
        encoding="utf-8")
    out = tmp_path / "run"
    code = main([
        "train", "--train", str(tmp_path / "train.conll"), "--arch", "CNN",
        "--tokenizer", f"wordpiece:{tmp_path / 'vocab.txt'}",
        "--config", str(tmp_path / "train.cfg"), "--out", str(out),
    ])
    assert code == 3
    assert "no training subtoken fits max_len = 1" in capsys.readouterr().err
    assert not (out / "run.ckpt").exists()


def test_train_validation_tag_outside_label_set_exit_2(synth_dir, tmp_path,
                                                       capsys):
    val = with_new_tag(synth_dir / "validation.conll", tmp_path / "val.conll")
    out = tmp_path / "run"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"), "--val", str(val),
        "--arch", "CNN", "--out", str(out),
    ])
    assert code == 2
    assert "corpus tag 'B-NEW' not in model label set" in capsys.readouterr().err
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
            "--arch", "CNN", "--tokenizer",
            f"wordpiece:{synth_dir / 'vocab.txt'}",
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
        "--arch", "CNN", "--tokenizer", f"wordpiece:{synth_dir / 'vocab.txt'}",
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

    corpora = {name: parse_conll((synth_dir / f"{name}.conll").read_text(), name)
               for name in ("train", "validation", "test")}
    vocab = build_word_vocab(corpora["train"])
    for name, corpus in corpora.items():
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
        "--arch", "CNN", "--tokenizer", f"external:{tmp_path / 'train.jsonl'}",
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
    assert code == 2
    assert "external segmentation has 29 records" in capsys.readouterr().err


def with_leading_ids(path, ids):
    """Rewrite the first record of a segmentation file with `ids` in place
    of its leading ids."""
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["ids"][:len(ids)] = ids
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("ids", [[-5, 3], [-1]], ids=["mixed", "negative"])
def test_negative_segmentation_id_exit_2(synth_dir, tmp_path, trained, capsys,
                                         ids):
    write_word_segmentation(synth_dir, tmp_path)
    with_leading_ids(tmp_path / "train.jsonl", ids)
    with_leading_ids(tmp_path / "test.jsonl", ids)
    error = f"sentence 0: negative id {min(ids)}"
    out = tmp_path / "ext"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--tokenizer", f"external:{tmp_path / 'train.jsonl'}",
        "--out", str(out),
    ])
    assert code == 2
    assert f"train.jsonl: {error}" in capsys.readouterr().err
    assert not out.exists()

    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.ext = external:train.jsonl,-,test.jsonl\n"
        "archs = CNN\n"
        f"train = {synth_dir / 'train.conll'}\n"
        f"test = {synth_dir / 'test.conll'}\n" + SMALL_GRID_CONFIG,
        encoding="utf-8")
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 2
    assert f"train.jsonl: {error}" in capsys.readouterr().err
    assert not out.exists()

    code = main([
        "eval", "--checkpoint", str(trained[0] / "cnn.ckpt"),
        "--test", str(synth_dir / "test.conll"),
        "--seg", str(tmp_path / "test.jsonl"),
    ])
    assert code == 2
    assert f"test.jsonl: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1e309", "14.9", '"7"', "true"])
def test_non_integer_segmentation_id_exit_2(synth_dir, tmp_path, trained,
                                            capsys, literal):
    write_word_segmentation(synth_dir, tmp_path)
    for name in ("train", "test"):
        path = tmp_path / f"{name}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["ids"][0] = "@"
        lines[0] = json.dumps(record).replace('"@"', literal)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    error = f"sentence 0: ids must be integers, got {json.loads(literal)!r}"
    out = tmp_path / "ext"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--tokenizer", f"external:{tmp_path / 'train.jsonl'}",
        "--out", str(out),
    ])
    assert code == 2
    assert f"train.jsonl: {error}" in capsys.readouterr().err
    assert not out.exists()
    code = main([
        "eval", "--checkpoint", str(trained[0] / "cnn.ckpt"),
        "--test", str(synth_dir / "test.conll"),
        "--seg", str(tmp_path / "test.jsonl"),
    ])
    assert code == 2
    assert f"test.jsonl: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["training", "validation"])
def test_train_external_without_segmentation_exit_2(synth_dir, tmp_path,
                                                    capsys, missing):
    write_word_segmentation(synth_dir, tmp_path)
    spec = ("external:" if missing == "training"
            else f"external:{tmp_path / 'train.jsonl'}")
    out = tmp_path / "ext"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--val", str(synth_dir / "validation.conll"),
        "--arch", "CNN", "--tokenizer", spec, "--out", str(out),
    ])
    assert code == 2
    assert f"tokenizer spec provides no {missing} segmentation" in \
        capsys.readouterr().err
    assert not out.exists()


def test_external_segmentation_too_short_train_exit_2(synth_dir, tmp_path,
                                                      capsys):
    write_word_segmentation(synth_dir, tmp_path, drop_last=True)
    out = tmp_path / "ext"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--tokenizer", f"external:{tmp_path / 'train.jsonl'}",
        "--seed", "1", "--out", str(out), "--run-name", "ext",
    ])
    assert code == 2
    assert "sentence 59: external segmentation has 59 records" in \
        capsys.readouterr().err
    assert not out.exists()


def test_external_segmentation_too_short_val_exit_2(synth_dir, tmp_path,
                                                    capsys):
    write_word_segmentation(synth_dir, tmp_path)
    full_train = (tmp_path / "train.jsonl").rename(tmp_path / "full.jsonl")
    write_word_segmentation(synth_dir, tmp_path, drop_last=True)
    out = tmp_path / "ext"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--val", str(synth_dir / "validation.conll"),
        "--arch", "CNN", "--tokenizer",
        f"external:{full_train},{tmp_path / 'validation.jsonl'}",
        "--out", str(out),
    ])
    assert code == 2
    assert ("validation.jsonl: sentence 14: external segmentation has 14 "
            "records") in capsys.readouterr().err
    assert not out.exists()


def test_train_seg_val_without_val_exit_2(synth_dir, tmp_path, capsys):
    # not even its ids are read: one of 1,000,000 used to size the table
    write_word_segmentation(synth_dir, tmp_path)
    with_leading_ids(tmp_path / "validation.jsonl", [1_000_000])
    out = tmp_path / "ext"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--tokenizer",
        f"external:{tmp_path / 'train.jsonl'},{tmp_path / 'validation.jsonl'}",
        "--out", str(out),
    ])
    assert code == 2
    assert ("validation.jsonl: segments the validation split, which has no "
            "corpus") in capsys.readouterr().err
    assert not out.exists()


def test_eval_segmentation_id_outside_the_checkpoint_exit_2(
        synth_dir, tmp_path, trained, capsys):
    write_word_segmentation(synth_dir, tmp_path)
    with_leading_ids(tmp_path / "test.jsonl", [1_000_000])
    code = main([
        "eval", "--checkpoint", str(trained[0] / "cnn.ckpt"),
        "--test", str(synth_dir / "test.conll"),
        "--seg", str(tmp_path / "test.jsonl"),
    ])
    assert code == 2
    rows = len(load_vocab(synth_dir / "vocab.txt"))
    assert (f"test.jsonl: id 1000000 is outside the checkpoint's embedding "
            f"table of {rows} rows") in capsys.readouterr().err


# an id whose embedding table at embed_dim 8 takes 2^60 bytes: more than
# any host's address space, and below numpy's largest array size
TABLE_TOO_LARGE_ID = 2 ** 54


def test_train_oversized_segmentation_id_exit_3(synth_dir, tmp_path):
    write_word_segmentation(synth_dir, tmp_path)
    with_leading_ids(tmp_path / "train.jsonl", [TABLE_TOO_LARGE_ID])
    (tmp_path / "small.cfg").write_text(SMALL_GRID_CONFIG, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subner", "train",
         "--train", str(synth_dir / "train.conll"), "--arch", "CNN",
         "--tokenizer", "external:train.jsonl", "--config", "small.cfg",
         "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: out of memory: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", ["bilstm_hidden = " + "9" * 30,
                                     "embed_dim = " + "9" * 30])
def test_train_size_beyond_any_array_exit_3(synth_dir, tmp_path, capsys,
                                            setting):
    # numpy cannot index a tensor this large: before, the hidden size
    # escaped np.sqrt as a TypeError (exit 1)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(with_setting(TRAIN_CONFIG, setting), encoding="utf-8")
    out = tmp_path / "run"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "BiLSTM", "--config", str(cfg), "--out", str(out),
    ])
    assert code == 3
    assert "too large to allocate" in capsys.readouterr().err
    assert not out.exists()


def test_compare_oversized_segmentation_id_fails_only_its_cells(
        synth_dir, tmp_path, capsys):
    write_word_segmentation(synth_dir, tmp_path)
    with_leading_ids(tmp_path / "train.jsonl", [TABLE_TOO_LARGE_ID])
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.word-based = word\n"
        "tokenizer.ext = external:train.jsonl,-,test.jsonl\n"
        "archs = CNN\n"
        f"train = {synth_dir / 'train.conll'}\n"
        f"test = {synth_dir / 'test.conll'}\n" + SMALL_GRID_CONFIG,
        encoding="utf-8")
    out = tmp_path / "gridout"
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 0
    assert "run ext.CNN failed: " in capsys.readouterr().err
    rows = {line.split("\t")[0]: line.split("\t")[1:]
            for line in (out / "report.tsv").read_text().splitlines()[1:]}
    assert rows["ext"] == ["failed"] * 4
    assert rows["word-based"] != ["failed"] * 4
    assert json.loads((out / "ext.CNN.run.json").read_text())["status"] == \
        "failed"


def with_first_record_one_word_short(path):
    """Rewrite the first record of a segmentation file without the
    subtokens of its last word."""
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    keep = record["word_ids"].index(record["word_ids"][-1])
    lines[0] = json.dumps({key: value[:keep] for key, value in record.items()})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_misaligned_segmentation_exit_2(synth_dir, tmp_path, trained, capsys):
    write_word_segmentation(synth_dir, tmp_path)
    test_seg = tmp_path / "test.jsonl"
    with_first_record_one_word_short(test_seg)
    code = main([
        "eval", "--checkpoint", str(trained[0] / "cnn.ckpt"),
        "--test", str(synth_dir / "test.conll"), "--seg", str(test_seg),
    ])
    assert code == 2
    assert "test.jsonl: sentence 0: encoding covers" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["misaligned test", "validation without corpus",
                                  "no training file", "no validation file",
                                  "no test file"])
def test_compare_external_segmentation_checked_before_training(
        synth_dir, tmp_path, capsys, case):
    write_word_segmentation(synth_dir, tmp_path)
    # (spec, error, whether the grid has a validation corpus)
    spec, error, with_val = {
        "misaligned test": ("train.jsonl,-,test.jsonl",
                            "test.jsonl: sentence 0: encoding covers", False),
        "validation without corpus": (
            "train.jsonl,validation.jsonl,test.jsonl",
            "validation.jsonl: segments the validation split", False),
        "no training file": ("-,validation.jsonl,test.jsonl",
                             "provides no training segmentation", True),
        "no validation file": ("train.jsonl,-,test.jsonl",
                               "provides no validation segmentation", True),
        "no test file": ("train.jsonl,validation.jsonl,-",
                         "provides no test segmentation", True),
    }[case]
    if case == "misaligned test":
        with_first_record_one_word_short(tmp_path / "test.jsonl")
    splits = ("train", "validation", "test") if with_val else ("train", "test")
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.word-based = word\n"
        f"tokenizer.ext = external:{spec}\n"
        "archs = CNN\n"
        + "".join(f"{name} = {synth_dir / name}.conll\n" for name in splits)
        + SMALL_GRID_CONFIG,
        encoding="utf-8")
    out = tmp_path / "gridout"
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_malformed_segmentation_exit_2(synth_dir, tmp_path, trained, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"subtokens": ["a"]\n', encoding="utf-8")
    out = tmp_path / "ext"
    code = main([
        "train", "--train", str(synth_dir / "train.conll"),
        "--arch", "CNN", "--tokenizer", f"external:{bad}",
        "--out", str(out),
    ])
    assert code == 2
    assert "bad.jsonl: sentence 0: bad JSON" in capsys.readouterr().err
    assert not out.exists()
    code = main([
        "eval", "--checkpoint", str(trained[0] / "cnn.ckpt"),
        "--test", str(synth_dir / "test.conll"), "--seg", str(bad),
    ])
    assert code == 2
    assert "bad.jsonl: sentence 0: bad JSON" in capsys.readouterr().err


def test_malformed_corpus_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.conll"
    bad.write_text("a b O\n", encoding="utf-8")
    assert main(["stats", "--input", str(bad)]) == 2


def test_compare_external_tokenizers(synth_dir, tmp_path):
    write_word_segmentation(synth_dir, tmp_path)
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "tokenizer.ext = external:train.jsonl,validation.jsonl,test.jsonl\n"
        "archs = CNN\n"
        + "".join(f"{name} = {synth_dir / name}.conll\n"
                  for name in ("train", "validation", "test"))
        + SMALL_GRID_CONFIG,
        encoding="utf-8",
    )
    out = tmp_path / "gridout"
    assert main(["compare", "--grid", str(grid), "--out", str(out)]) == 0
    tsv = (out / "report.tsv").read_text().splitlines()
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in tsv[1:]}
    assert all(0.0 <= float(v) <= 1.0 for v in rows["ext"])
    assert (out / "ext.CNN.ckpt").exists()


@pytest.mark.parametrize("repeat", ["same", "different"])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_external_segmentation_of_a_repeated_sentence(
        synth_dir, tmp_path, capsys, command, repeat):
    # the training corpus and its segmentation end with a copy of their
    # first sentence, segmented the same way or not
    write_word_segmentation(synth_dir, tmp_path)
    corpus = (synth_dir / "train.conll").read_text(encoding="utf-8")
    (tmp_path / "train.conll").write_text(
        corpus + corpus.split("\n\n", 1)[0] + "\n\n", encoding="utf-8")
    seg = tmp_path / "train.jsonl"
    record = json.loads(seg.read_text(encoding="utf-8").splitlines()[0])
    if repeat == "different":
        record["ids"][0] += 1
    with open(seg, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    settings = tmp_path / "settings.cfg"
    if command == "train":
        settings.write_text(SMALL_GRID_CONFIG, encoding="utf-8")
        argv = ["train", "--train", str(tmp_path / "train.conll"),
                "--arch", "CNN", "--tokenizer", f"external:{seg}",
                "--config", str(settings)]
    else:
        settings.write_text(
            "tokenizer.ext = external:train.jsonl,-,test.jsonl\n"
            "archs = CNN\n"
            f"train = {tmp_path / 'train.conll'}\n"
            f"test = {synth_dir / 'test.conll'}\n" + SMALL_GRID_CONFIG,
            encoding="utf-8")
        argv = ["compare", "--grid", str(settings)]
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    if repeat == "same":
        assert code == 0
        return
    assert code == 2
    assert ("train.jsonl: sentence 60: segmented differently from an earlier "
            "copy of the sentence") in capsys.readouterr().err
    assert not out.exists()


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
    "tokenize": ("corpus", lambda f: ["--input", f("corpus")]),
    "train": ("config", lambda f: ["--train", f("train"), "--config",
                                   f("config"), "--arch", "CNN", "--out", "out"]),
    "predict": ("checkpoint", lambda f: ["--checkpoint", f("checkpoint"),
                                         "--input", f("text")]),
    "eval": ("corpus", lambda f: ["--checkpoint", f("model"),
                                  "--test", f("corpus")]),
    "compare": ("grid", lambda f: ["--grid", f("grid"), "--out", "out"]),
}


def test_readme_commands_parse():
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("subner ")]
    assert len(commands) >= 7
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


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
