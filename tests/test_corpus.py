import dataclasses
import random

import pytest

from subner.corpus import (
    LabeledCorpus,
    LabeledSentence,
    SynthConfig,
    build_label_set,
    corpus_stats,
    generate_synthetic,
    parse_conll,
    parse_synth_config,
    synthetic_vocab_tokens,
    write_conll,
    _build_pools,
)
from subner.errors import EmptyCorpus, InvalidConfig, MalformedLine


def test_parse_basic():
    corpus = parse_conll("a\tO\nb\tB-NEL\n\n")
    assert len(corpus) == 1
    assert corpus.sentences[0].words == ("a", "b")
    assert corpus.sentences[0].tags == ("O", "B-NEL")


def test_parse_empty_input():
    with pytest.raises(EmptyCorpus):
        parse_conll("")


def test_parse_space_separated_line():
    with pytest.raises(MalformedLine) as exc:
        parse_conll("a b O")
    assert exc.value.line_no == 1


@pytest.mark.parametrize("word", ["ab\u00a0c", "\u2003ab", "ab\t", "a b", ""])
def test_word_empty_or_with_whitespace_rejected_in_memory(word):
    # whitespace as str.isspace has it, Unicode spaces included
    with pytest.raises(ValueError) as exc:
        LabeledSentence(("ok", word), ("O", "O"))
    assert str(exc.value) == f"bad word {word!r}: empty or contains whitespace"


@pytest.mark.parametrize("word", ["ab\u00a0c", "\u2003ab", "a\u3000b", ""])
def test_parse_word_empty_or_with_whitespace_rejected(word):
    line = f"{word}\tO"
    with pytest.raises(MalformedLine) as exc:
        parse_conll(f"ok\tO\n{line}\n")
    assert str(exc.value) == f"line 2: bad word/tag pair {line!r}"


def test_parse_tab_in_word_rejected():
    # a tab splits the line into three fields
    with pytest.raises(MalformedLine) as exc:
        parse_conll("ok\tO\na\tb\tO\n")
    assert str(exc.value) == "line 2: expected two tab-separated fields"


def test_parse_no_trailing_blank():
    corpus = parse_conll("a\tO\nb\tO")
    assert len(corpus) == 1


def test_write_single_sentence():
    corpus = LabeledCorpus((LabeledSentence(("a",), ("O",)),))
    assert write_conll(corpus) == "a\tO\n\n"


def test_round_trip_random_corpora():
    rng = random.Random(42)
    words_pool = ["ab", "cde", "f", "पुणे", "x1"]
    tags_pool = ["O", "B-NEL", "I-NEL", "B-NEP"]
    sentences = []
    for _ in range(100):
        n = rng.randint(1, 10)
        sentences.append(LabeledSentence(
            tuple(rng.choice(words_pool) for _ in range(n)),
            tuple(rng.choice(tags_pool) for _ in range(n)),
        ))
    corpus = LabeledCorpus(tuple(sentences), "train")
    assert parse_conll(write_conll(corpus), "train") == corpus


def test_stats_all_outside():
    corpus = parse_conll("a\tO\nb\tO\n\n")
    stats = corpus_stats(corpus)
    assert stats.tag_count == 0
    assert stats.token_count == 2
    assert stats.sentence_count == 1


def test_stats_totals_consistent():
    splits = generate_synthetic(SynthConfig(n_train=30, n_test=10), seed=5)
    for split in splits.values():
        stats = corpus_stats(split)
        assert stats.token_count == sum(len(s) for s in split)
        non_o = {k: v for k, v in stats.per_label_counts.items() if k != "O"}
        assert stats.tag_count == sum(non_o.values())
        assert stats.tag_count <= stats.token_count


def test_label_set_order():
    corpus = parse_conll("a\tO\nb\tB-NEL\nc\tB-NEP\n\n")
    labels = build_label_set(corpus)
    assert labels.labels == ("O", "B-NEL", "B-NEP")
    assert [labels.index(l) for l in labels.labels] == [0, 1, 2]


def test_label_set_only_outside():
    corpus = parse_conll("a\tO\n\n")
    assert build_label_set(corpus).labels == ("O",)


def test_label_set_stable():
    splits = generate_synthetic(SynthConfig(n_train=20, n_test=5), seed=9)
    first = build_label_set(splits["train"])
    assert first == build_label_set(splits["train"])


def test_synthetic_deterministic():
    cfg = SynthConfig(n_train=40, n_test=20, n_validation=10)
    a = generate_synthetic(cfg, 123)
    b = generate_synthetic(cfg, 123)
    for name in a:
        assert write_conll(a[name]) == write_conll(b[name])


def test_synthetic_suffix_determines_class():
    cfg = SynthConfig(n_train=60, n_test=30, oov_rate=0.7)
    splits = generate_synthetic(cfg, 11)
    for split in splits.values():
        for sent in split:
            for word, tag in zip(sent.words, sent.tags):
                matched = [
                    cls for cls in cfg.classes
                    if any(word.endswith(s) for s in cfg.suffixes[cls])
                ]
                if matched:
                    assert tag == f"B-{matched[0]}"
                else:
                    assert tag == "O"


def test_synthetic_full_oov():
    cfg = SynthConfig(n_train=80, n_test=40, oov_rate=1.0)
    splits = generate_synthetic(cfg, 3)
    all_suffixes = [s for cls in cfg.classes for s in cfg.suffixes[cls]]

    def stems(split):
        out = set()
        for sent in split:
            for word, tag in zip(sent.words, sent.tags):
                if tag == "O":
                    continue
                suffix = next(s for s in all_suffixes if word.endswith(s))
                out.add(word[:-len(suffix)])
        return out

    assert stems(splits["train"]) & stems(splits["test"]) == set()


def test_synthetic_invalid_configs():
    with pytest.raises(InvalidConfig):
        SynthConfig(stems_per_class=0)
    with pytest.raises(InvalidConfig):
        SynthConfig(suffixes={"NEL": (), "NEP": ("rao",)})
    with pytest.raises(InvalidConfig):
        # "ur" is a trailing substring of "pur"
        SynthConfig(suffixes={"NEL": ("pur",), "NEP": ("ur",)})
    with pytest.raises(InvalidConfig):
        SynthConfig(oov_rate=1.5)


def synth_pool_config(stems_per_class):
    # one class whose suffix "a" leaves 16 of the 17 one-letter words free
    return SynthConfig(classes=("NEL",), suffixes={"NEL": ("a",)},
                       stems_per_class=stems_per_class, stem_len_min=1,
                       stem_len_max=1)


def test_synthetic_pool_filled_exactly():
    train, heldout, _ = _build_pools(synth_pool_config(8), random.Random(0))
    assert sorted(train["NEL"] + heldout["NEL"]) == list("bdeghiklmnorstuz")


def test_synthetic_pool_past_its_words_raises():
    with pytest.raises(InvalidConfig, match="every 1-letter word is taken"):
        generate_synthetic(synth_pool_config(9), 0)


@pytest.mark.parametrize("make", [generate_synthetic, synthetic_vocab_tokens])
def test_synthetic_negative_seed_raises(make):
    # random.Random(-3) would silently give seed 3's corpus
    with pytest.raises(InvalidConfig, match="seed must be non-negative, got -3"):
        make(SynthConfig(), -3)


def test_synthetic_vocab_matches_pools():
    cfg = SynthConfig(n_train=10, n_test=5)
    tokens = synthetic_vocab_tokens(cfg, 4)
    assert tokens[0] == "[PAD]" and tokens[1] == "[UNK]"
    _, _, fillers = _build_pools(cfg, random.Random(4))
    for filler in fillers:
        assert filler in tokens
    for cls in cfg.classes:
        for suffix in cfg.suffixes[cls]:
            assert "##" + suffix in tokens


def test_devanagari_round_trip():
    corpus = parse_conll("पुणे\tB-NEL\nमध्ये\tO\n\n")
    assert parse_conll(write_conll(corpus)) == corpus


def test_parse_synth_config():
    text = """
    classes = NEL, NEP
    suffixes = NEL:pur|gad; NEP:rao
    n_train = 12
    oov_rate = 0.75
    seed = 99
    """
    cfg, seed = parse_synth_config(text)
    assert cfg.classes == ("NEL", "NEP")
    assert cfg.suffixes["NEL"] == ("pur", "gad")
    assert cfg.n_train == 12
    assert cfg.oov_rate == 0.75
    assert seed == 99


def test_parse_synth_config_unknown_key():
    with pytest.raises(InvalidConfig):
        parse_synth_config("bogus = 1")


def test_parse_synth_config_sets_every_field():
    text = """
    classes = LOC, PER, ORG
    suffixes = LOC:pur; PER:rao|bai; ORG:kar
    stems_per_class = 7
    n_fillers = 9
    n_train = 11
    n_test = 13
    n_validation = 5
    len_min = 2
    len_max = 4
    stem_len_min = 3
    stem_len_max = 5
    entity_rate = 0.25
    oov_rate = 0.125
    """
    cfg, seed = parse_synth_config(text)
    assert seed is None
    expected = {
        "classes": ("LOC", "PER", "ORG"),
        "suffixes": {"LOC": ("pur",), "PER": ("rao", "bai"), "ORG": ("kar",)},
        "stems_per_class": 7, "n_fillers": 9, "n_train": 11, "n_test": 13,
        "n_validation": 5, "len_min": 2, "len_max": 4, "stem_len_min": 3,
        "stem_len_max": 5, "entity_rate": 0.25, "oov_rate": 0.125,
    }
    assert dataclasses.asdict(cfg) == expected
    assert all(value != getattr(SynthConfig(), key)
               for key, value in expected.items())


@pytest.mark.parametrize("text, key", [
    ("n_train = 3.5", "n_train"),
    ("oov_rate = half", "oov_rate"),
    ("seed = x", "seed"),
])
def test_parse_synth_config_bad_value_names_its_key(text, key):
    with pytest.raises(InvalidConfig, match=f"config key '{key}'"):
        parse_synth_config(text)
