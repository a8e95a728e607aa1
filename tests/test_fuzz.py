"""Seeded mutation fuzz of the exit-code contract: every `subner` run over a
mutated input returns 0, 2, 3 or 4, and no exception escapes `cli.main`.

Each input kind (CoNLL, vocab, training config, grid values, external
segmentation, checkpoint bytes, `predict` text) gets a fixed number of
cases from its own seeded generator, run in-process at E=8 sizes. Numpy's
floating-point warnings (a diverging run overflows before `train` stops it)
are ignored here as a run outside the test suite prints and ignores them;
the contract is the exit code."""

import contextlib
import hashlib
import io
import json
import random
import struct
import traceback
import warnings

import pytest

from subner.cli import main
from subner.corpus import parse_conll
from subner.tokenizers import VocabSegmenter, load_vocab

SEED = 17
CASES = {"conll": 60, "vocab": 40, "config": 60, "grid": 48,
         "segmentation": 60, "checkpoint": 60, "predict": 40}

SYNTH_CONFIG = """
classes = NEL, NEP
suffixes = NEL:pur|gad; NEP:rao|bai
stems_per_class = 6
n_fillers = 10
n_train = 12
n_test = 6
n_validation = 4
len_min = 2
len_max = 5
seed = 5
"""

SETTINGS = {"epochs": "1", "batch_size": "4", "max_len": "12",
            "learning_rate": "0.01", "seed": "1", "embed_dim": "8",
            "conv_filters": "8", "lstm_hidden": "8", "bilstm_hidden": "8"}

# a grid's external tokenizer; the grid sits next to these files
EXTERNAL = "external:train.jsonl,validation.jsonl,test.jsonl"

# in-range values at the edges of each setting, so that a mutated config or
# grid still trains; sizes stay small and epochs few to keep the budget
EDGE_VALUES = {
    "epochs": ["1", "2"],
    "batch_size": ["1", "1000"],
    "max_len": ["1", "2", "1000"],
    "learning_rate": ["1e-300", "10", "1e6", "1e300"],
    "rho": ["1e-12", "0.999999"],
    "epsilon": ["5e-324", "1e300"],
    "seed": ["0", "4294967296", "9223372036854775807"],
    "patience": ["1"],
    "strategy": ["first", "majority", "MAJORITY"],
    "grad_clip": ["5e-324", "1e-300", "1e300"],
    "embed_dim": ["1", "2"],
    "conv_filters": ["1"],
    "conv_kernel": ["1", "15"],
    "lstm_hidden": ["1"],
    "bilstm_hidden": ["1"],
}

# out-of-range, unparsable or huge values; a huge size fails its allocation
NASTY = ["", "-1", "0", "3.5", "1e309", "-1e309", "nan", "inf", "-inf",
         "1000000000000", "9" * 30, "true", "null", "abc", "[UNK]", "[PAD]",
         "##", "B-", "I-NEL", "O", "x\ty", "\u0938\u0941", "\x00", "\ufeff",
         "#", "=", ",", "-", ":", "last"]

ALPHABET = "\t\n\r =#,:-.0123456789eE[]{}\"'\\xyzOIB\u0938\u093e\x00\ufeff"

JSON_NASTY = [-1, 0, 1, 10 ** 12, 2 ** 63, 10 ** 30, 1.5, float("inf"),
              None, True, "x", "", [], {}, [1], "CNN", "BiLSTM", "word",
              "subword", "external", ["O"], ["O", "O"]]


def mutate_text(rng, text):
    """`text` after one to three random edits: a character deleted,
    inserted or replaced, a word swapped for a nasty token, or a line
    duplicated, dropped or moved, or the text cut short."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(8)
        pos = rng.randrange(len(text) + 1)
        lines = text.split("\n")
        if op == 0 and text:
            text = text[:pos] + text[pos + 1:]
        elif op == 1:
            text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
        elif op == 2 and text:
            text = text[:pos] + rng.choice(ALPHABET) + text[pos + 1:]
        elif op == 3:
            sep = rng.choice([" ", "\t", "\n"])
            words = text.split(sep)
            words[rng.randrange(len(words))] = rng.choice(NASTY)
            text = sep.join(words)
        elif op == 4:
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
            text = "\n".join(lines)
        elif op == 5:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif op == 6:
            line = lines.pop(rng.randrange(len(lines)))
            lines.insert(rng.randrange(len(lines) + 1), line)
            text = "\n".join(lines)
        else:
            text = text[:pos]
    return text


def mutate_json(rng, value):
    """`value` with one nested item replaced by a nasty JSON value, dropped,
    or (in a list) duplicated."""
    if isinstance(value, dict) and value and rng.random() < 0.8:
        key = rng.choice(sorted(value))
        if rng.random() < 0.15:
            return {k: v for k, v in value.items() if k != key}
        return {**value, key: mutate_json(rng, value[key])}
    if isinstance(value, list) and value and rng.random() < 0.8:
        items = list(value)
        i = rng.randrange(len(items))
        roll = rng.random()
        if roll < 0.15:
            del items[i]
        elif roll < 0.3:
            items.insert(i, items[i])
        else:
            items[i] = mutate_json(rng, items[i])
        return items
    return rng.choice(JSON_NASTY)


def settings_text(settings):
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


def mutate_settings(rng, settings):
    """A copy of `settings` with one to three keys set to an edge or nasty
    value (a key may be new); mostly in range, so most runs train."""
    settings = dict(settings)
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(sorted(EDGE_VALUES))
        if rng.random() < 0.9:
            settings[key] = rng.choice(EDGE_VALUES[key])
        elif key != "epochs":  # a huge epoch count is valid and never ends
            settings[key] = rng.choice(NASTY)
    return settings


def reseal(blob):
    """A checkpoint's bytes with a fresh checksum."""
    return blob + hashlib.sha256(blob).digest()[:8]


def mutate_checkpoint(rng, data):
    """Raw byte edits (the checksum catches them), or an edited header or
    tensor under a fresh checksum, so that the load reaches its checks."""
    roll = rng.random()
    if roll < 0.3:
        data = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        return bytes(data)
    if roll < 0.4:
        return data[:rng.randrange(len(data))]
    body = data[:-8]
    magic, rest = body[:8], body[8:]
    version, header_len = struct.unpack("<II", rest[:8])
    header = json.loads(rest[8:8 + header_len].decode("utf-8"))
    tensors = rest[8 + header_len:]
    if roll < 0.55:
        pos = rng.randrange(0, len(tensors) - 3, 4)
        value = rng.choice([float("nan"), float("inf"), 1e38, -0.0])
        tensors = tensors[:pos] + struct.pack("<f", value) + tensors[pos + 4:]
    elif roll < 0.65:
        cut = rng.randrange(len(tensors) + 1)
        tensors = tensors[:cut] + tensors[cut:cut + rng.randrange(9)] * 2 \
            + tensors[cut:]
    elif roll < 0.7:
        version = rng.choice([0, 2, 2 ** 32 - 1])
    else:
        header = mutate_json(rng, header)
    header_bytes = json.dumps(header).encode("utf-8")
    return reseal(magic + struct.pack("<II", version, len(header_bytes))
                  + header_bytes + tensors)


def write_segmentation(corpus_path, vocab_path, out_path):
    """External segmentation of a corpus, one JSONL record per sentence,
    from the WordPiece vocab."""
    seg = VocabSegmenter(load_vocab(vocab_path), "subword")
    corpus = parse_conll(corpus_path.read_text(encoding="utf-8"))
    lines = []
    for sent in corpus:
        enc = seg.encode(sent.words)
        lines.append(json.dumps({"subtokens": list(enc.subtokens),
                                 "ids": list(enc.ids),
                                 "word_ids": list(enc.word_ids)},
                                ensure_ascii=False))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(argv):
    """cli.main's exit code, or the traceback of what escaped it."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return main(argv)
        except Exception:  # the contract allows none to escape
            return traceback.format_exc()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "synth.cfg"
    cfg.write_text(SYNTH_CONFIG, encoding="utf-8")
    data = root / "data"
    assert run(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    paths = {name: data / f"{name}.conll"
             for name in ("train", "validation", "test")}
    paths["vocab"] = data / "vocab.txt"
    paths["config"] = data / "train.cfg"
    paths["config"].write_text(settings_text(SETTINGS), encoding="utf-8")
    for split in ("train", "validation", "test"):
        paths[f"{split}_seg"] = data / f"{split}.jsonl"
        write_segmentation(paths[split], paths["vocab"], paths[f"{split}_seg"])
    paths["text"] = data / "text.txt"
    paths["text"].write_text(
        "\n".join(" ".join(s.words) for s in parse_conll(
            paths["test"].read_text(encoding="utf-8"))) + "\n",
        encoding="utf-8")
    # compare's external model covers the test split's ids too
    grid = data / "grid.cfg"
    grid.write_text(f"tokenizer.word = word\ntokenizer.external = {EXTERNAL}\n"
                    "train = train.conll\nvalidation = validation.conll\n"
                    "test = test.conll\n" + settings_text(SETTINGS),
                    encoding="utf-8")
    assert run(["compare", "--grid", str(grid), "--out", str(root)]) == 0
    for name in ("word", "external"):
        paths[f"{name}_ckpt"] = root / f"{name}.CNN.ckpt"
    return paths


def conll_case(rng, p, case):
    bad = case / "corpus.conll"
    bad.write_text(mutate_text(rng, p["train"].read_text(encoding="utf-8")),
                   encoding="utf-8")
    command = rng.choice(["train", "train-val", "eval", "tokenize", "stats"])
    if command.startswith("train"):
        train, val = bad, p["validation"]
        if command == "train-val":
            train, val = p["train"], bad
        return ["train", "--train", str(train), "--val", str(val),
                "--arch", rng.choice(["CNN", "LSTM"]),
                "--tokenizer", rng.choice(["word", f"wordpiece:{p['vocab']}"]),
                "--config", str(p["config"]), "--out", str(case / "out")]
    if command == "eval":
        return ["eval", "--checkpoint", str(p["word_ckpt"]), "--test", str(bad),
                "--span-scheme", rng.choice(["bio", "flat"])]
    if command == "tokenize":
        return ["tokenize", "--input", str(bad),
                "--tokenizer", f"wordpiece:{p['vocab']}"]
    return ["stats", "--input", str(bad)]


def vocab_case(rng, p, case):
    bad = case / "vocab.txt"
    bad.write_text(mutate_text(rng, p["vocab"].read_text(encoding="utf-8")),
                   encoding="utf-8")
    if rng.random() < 0.5:
        return ["tokenize", "--input", str(p["train"]),
                "--tokenizer", f"wordpiece:{bad}"]
    return ["train", "--train", str(p["train"]), "--arch", "CNN",
            "--tokenizer", f"wordpiece:{bad}", "--config", str(p["config"]),
            "--out", str(case / "out")]


def config_case(rng, p, case):
    bad = case / "train.cfg"
    if rng.random() < 0.6:
        text = settings_text(mutate_settings(rng, SETTINGS))
    else:
        text = mutate_text(rng, settings_text(SETTINGS))
    bad.write_text(text, encoding="utf-8")
    return ["train", "--train", str(p["train"]), "--val", str(p["validation"]),
            "--arch", rng.choice(["CNN", "LSTM", "BiLSTM"]),
            "--tokenizer", rng.choice(["word", f"wordpiece:{p['vocab']}"]),
            "--config", str(bad), "--out", str(case / "out")]


GRID_VALUES = {
    "archs": ["CNN", "CNN,BiLSTM", "LSTM,", ",", "", "CNN,CNN", "GRU",
              "cnn", " BiLSTM , LSTM "],
    "tokenizer.word": ["word", "word:", "wordpiece", "wordpiece:",
                       "external:", "external:-", "external:,,,", "bpe:x"],
    "tokenizer.piece": ["wordpiece:vocab.txt", "wordpiece:train.conll",
                        "wordpiece:nowhere.txt", "wordpiece: vocab.txt "],
    "tokenizer.ext": [EXTERNAL, EXTERNAL.replace(",validation.jsonl,", ",,"),
                      "external:test.jsonl,validation.jsonl,train.jsonl",
                      "external:train.jsonl",
                      "external:train.jsonl,train.jsonl,test.jsonl"],
    "train": ["train.conll", "train.conll", "test.conll", "validation.conll",
              "vocab.txt", "nowhere.conll", ""],
    "validation": ["validation.conll", "validation.conll", "test.conll"],
    "test": ["test.conll", "test.conll", "validation.conll", "text.txt"],
}


def grid_case(rng, p, case):
    """A grid written next to the inputs, so that its relative paths
    resolve; its values are mutated, not only its paths."""
    grid = {"tokenizer.word": "word",
            "tokenizer.piece": "wordpiece:vocab.txt",
            "tokenizer.ext": EXTERNAL,
            "archs": "CNN,BiLSTM",
            "train": "train.conll", "validation": "validation.conll",
            "test": "test.conll",
            **mutate_settings(rng, SETTINGS)}
    roll = rng.random()
    if roll < 0.3:
        key = rng.choice(sorted(GRID_VALUES))
        grid[key] = rng.choice(GRID_VALUES[key])
    elif roll < 0.35:
        del grid[rng.choice(sorted(grid))]
    text = settings_text(grid)
    if rng.random() < 0.1:
        text = mutate_text(rng, text)
    path = p["train"].parent / f"grid-{case.name}.cfg"
    path.write_text(text, encoding="utf-8")
    return ["compare", "--grid", str(path), "--out", str(case / "out")]


def segmentation_case(rng, p, case):
    split = rng.choice(["train", "test"])
    text = p[f"{split}_seg"].read_text(encoding="utf-8")
    if rng.random() < 0.6:
        lines = text.splitlines()
        i = rng.randrange(len(lines))
        lines[i] = json.dumps(mutate_json(rng, json.loads(lines[i])))
        text = "\n".join(lines) + "\n"
    else:
        text = mutate_text(rng, text)
    bad = case / "seg.jsonl"
    bad.write_text(text, encoding="utf-8")
    if split == "train":
        return ["train", "--train", str(p["train"]), "--arch", "CNN",
                "--tokenizer", f"external:{bad}", "--config", str(p["config"]),
                "--out", str(case / "out")]
    return ["eval", "--checkpoint", str(p[rng.choice(["external_ckpt",
                                                      "word_ckpt"])]),
            "--test", str(p["test"]), "--seg", str(bad)]


def checkpoint_case(rng, p, case):
    name = rng.choice(["word_ckpt", "external_ckpt"])
    bad = case / "model.ckpt"
    bad.write_bytes(mutate_checkpoint(rng, p[name].read_bytes()))
    if name == "word_ckpt" and rng.random() < 0.5:
        return ["predict", "--checkpoint", str(bad), "--input", str(p["text"])]
    seg = ["--seg", str(p["test_seg"])] if name == "external_ckpt" else []
    return ["eval", "--checkpoint", str(bad), "--test", str(p["test"]), *seg]


def predict_case(rng, p, case):
    bad = case / "text.txt"
    bad.write_text(mutate_text(rng, p["text"].read_text(encoding="utf-8")),
                   encoding="utf-8")
    return ["predict", "--checkpoint", str(p["word_ckpt"]), "--input", str(bad),
            "--strategy", rng.choice(["first", "majority", "last"])]


MAKE_CASE = {"conll": conll_case, "vocab": vocab_case, "config": config_case,
             "grid": grid_case, "segmentation": segmentation_case,
             "checkpoint": checkpoint_case, "predict": predict_case}


@pytest.mark.parametrize("kind", list(CASES))
def test_mutated_inputs_keep_the_exit_code_contract(kind, inputs, tmp_path):
    rng = random.Random(f"{SEED}:{kind}")
    broken = []
    for index in range(CASES[kind]):
        case = tmp_path / f"case{index}"
        case.mkdir()
        argv = MAKE_CASE[kind](rng, inputs, case)
        code = run(argv)
        if code not in (0, 2, 3, 4):
            broken.append(f"case {index}: {argv}\n{code}")
    assert not broken, "\n\n".join(broken[:3])
