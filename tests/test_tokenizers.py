import json
import random

import pytest

from subner.corpus import parse_conll
from subner.errors import DuplicateToken, InvariantViolation, MissingSpecial
from subner.tokenizers import (
    PrecomputedSegmenter,
    SubwordEncoding,
    Vocab,
    build_word_vocab,
    encoding_fertility,
    fertility_stats,
    load_external_segmentation,
    load_vocab,
    segment_sentence,
    wordpiece_word,
)


def make_vocab(*tokens):
    return Vocab(("[PAD]", "[UNK]") + tokens)


def brute_force_wordpiece(word, vocab):
    """Independent matcher: at each position scan every vocab entry for
    applicability and take the longest, with no backtracking. The BERT
    format is spelled out here, not read from the code under test."""
    if len(word) > 100:
        return ["[UNK]"]
    pieces = []
    pos = 0
    while pos < len(word):
        best = None
        for token in vocab.token_of:
            if pos > 0:
                if not token.startswith("##"):
                    continue
                surface = token[len("##"):]
            else:
                surface = token
            if not surface:
                continue
            if word.startswith(surface, pos):
                if best is None or len(surface) > len(best[1]):
                    best = (token, surface)
        if best is None:
            return ["[UNK]"]
        pieces.append(best[0])
        pos += len(best[1])
    return pieces


def test_load_vocab_line_numbers(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\n[UNK]\nab\n##cd\n", encoding="utf-8")
    vocab = load_vocab(path)
    assert vocab.token_of == ("[PAD]", "[UNK]", "ab", "##cd")
    assert [vocab.id_of[t] for t in vocab.token_of] == [0, 1, 2, 3]
    assert vocab.id_of["[UNK]"] == 1


def test_load_vocab_duplicate(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\n[UNK]\nx\na\nb\nc\nx\n", encoding="utf-8")
    with pytest.raises(DuplicateToken):
        load_vocab(path)


def test_load_vocab_missing_special(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\nab\n", encoding="utf-8")
    with pytest.raises(MissingSpecial):
        load_vocab(path)


def test_load_vocab_needs_no_pad_token(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[UNK]\nab\n##cd\n", encoding="utf-8")
    vocab = load_vocab(path)
    assert segment_sentence(["abcd", "x"], vocab).ids == (1, 2, 0)


def test_build_word_vocab_min_freq():
    corpus = parse_conll("a\tO\na\tO\nb\tO\n\n")
    vocab = build_word_vocab(corpus, min_freq=2)
    assert vocab.token_of == ("[PAD]", "[UNK]", "a")
    vocab1 = build_word_vocab(corpus, min_freq=1)
    assert vocab1.token_of == ("[PAD]", "[UNK]", "a", "b")


def test_build_word_vocab_corpus_word_spelled_as_a_special():
    corpus = parse_conll("a\tO\n[UNK]\tO\n[PAD]\tO\nb\tO\n\n")
    vocab = build_word_vocab(corpus)
    assert vocab.token_of == ("[PAD]", "[UNK]", "a", "b")
    assert segment_sentence(["[UNK]", "[PAD]", "b"], vocab, "word").ids == \
        (1, 0, 3)


def test_word_mode_oov_gets_unk_id():
    corpus = parse_conll("a\tO\n\n")
    vocab = build_word_vocab(corpus, min_freq=1)
    enc = segment_sentence(["zzz"], vocab, "word")
    assert enc.ids == (vocab.unk_id,)
    assert enc.subtokens == ("zzz",)  # surface string kept


def test_wordpiece_examples():
    vocab = make_vocab("pu", "##ne")
    assert wordpiece_word("pune", vocab) == ["pu", "##ne"]
    vocab2 = make_vocab("city")
    assert wordpiece_word("city", vocab2) == ["city"]
    vocab3 = make_vocab("pu")
    assert wordpiece_word("pune", vocab3) == ["[UNK]"]


def test_wordpiece_devanagari():
    vocab = make_vocab("पु", "##णे")
    assert wordpiece_word("पुणे", vocab) == ["पु", "##णे"]


def test_wordpiece_max_word_chars():
    vocab = make_vocab("a", "##a")
    assert wordpiece_word("a" * 101, vocab) == ["[UNK]"]
    assert wordpiece_word("a" * 100, vocab) == ["a"] + ["##a"] * 99


def test_segment_sentence_modes():
    vocab = make_vocab("pu", "##ne", "madhye")
    enc = segment_sentence(["pune", "madhye"], vocab, "subword")
    assert enc.subtokens == ("pu", "##ne", "madhye")
    assert enc.word_ids == (0, 0, 1)
    word_enc = segment_sentence(["pune", "madhye"], vocab, "word")
    assert word_enc.word_ids == (0, 1)
    empty = segment_sentence([], vocab, "subword")
    assert empty.subtokens == ()


def _random_vocab(rng):
    pieces = set()
    for _ in range(rng.randint(3, 12)):
        piece = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.5:
            piece = "##" + piece
        pieces.add(piece)
    pieces -= {"[PAD]", "[UNK]"}
    return Vocab(("[PAD]", "[UNK]") + tuple(sorted(pieces)))


def test_wordpiece_matches_brute_force():
    rng = random.Random(7)
    for _ in range(2000):
        vocab = _random_vocab(rng)
        word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
        assert wordpiece_word(word, vocab) == brute_force_wordpiece(word, vocab)


def test_detokenization_property():
    rng = random.Random(13)
    for _ in range(500):
        vocab = _random_vocab(rng)
        word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
        pieces = wordpiece_word(word, vocab)
        if pieces == ["[UNK]"]:
            continue
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == word


def test_fertility_examples():
    vocab = make_vocab("a", "b")
    corpus = parse_conll("a\tO\nb\tO\n\n")
    stats = fertility_stats(corpus, vocab, "subword")
    assert stats.fertility == 1.0
    assert stats.unk_word_rate == 0.0

    vocab2 = make_vocab("a", "b", "##b")
    corpus2 = parse_conll("a\tO\nbb\tO\n\n")
    stats2 = fertility_stats(corpus2, vocab2, "subword")
    assert stats2.fertility == 1.5

    vocab3 = make_vocab("x")
    stats3 = fertility_stats(corpus, vocab3, "subword")
    assert stats3.fertility == 1.0  # UNK is one token
    assert stats3.unk_word_rate == 1.0


def test_fertility_word_mode_is_one():
    corpus = parse_conll("a\tO\nbb\tO\ncc\tO\n\n")
    vocab = build_word_vocab(corpus, min_freq=1)
    assert fertility_stats(corpus, vocab, "word").fertility == 1.0


def test_fertility_counts_unk_by_id():
    train = parse_conll("a\tO\nbb\tO\n\n")
    test = parse_conll("a\tO\nzz\tO\n\nbb\tO\nyy\tO\nxx\tO\n\n")
    # word mode keeps an unknown word's text as its subtoken
    stats = fertility_stats(test, build_word_vocab(train), "word")
    assert (stats.unk_words, stats.words_total) == (3, 5)
    assert stats.unk_word_rate == 0.6

    # a word with a subtoken of several pieces next to an unknown word; a
    # word split into the unk id and a continuation piece is not unknown
    vocab = make_vocab("b", "##b")
    corpus = parse_conll("bb\tO\nzz\tO\n[UNK]b\tO\n\n")
    assert fertility_stats(corpus, vocab, "subword").unk_words == 1

    rng = random.Random(3)
    encodings = []
    for _ in range(300):
        word_ids = [w for w in range(rng.randint(0, 6))
                    for _ in range(rng.randint(1, 3))]
        ids = [rng.randint(0, 3) for _ in word_ids]
        encodings.append(SubwordEncoding(tuple(map(str, ids)), tuple(ids),
                                         tuple(word_ids)))
    expected = sum(1 for enc in encodings for start, end in enc.word_groups()
                   if end - start == 1 and enc.ids[start] == 1)
    assert encoding_fertility(encodings, 1).unk_words == expected


def _write_jsonl(path, records):
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )


def test_load_external_segmentation(tmp_path):
    path = tmp_path / "seg.jsonl"
    _write_jsonl(path, [
        {"subtokens": ["a", "b"], "ids": [5, 9], "word_ids": [0, 1]},
    ])
    encs = load_external_segmentation(path)
    assert encs[0].ids == (5, 9)
    assert encs[0].n_words == 2


def test_load_external_segmentation_coverage(tmp_path):
    path = tmp_path / "seg.jsonl"
    _write_jsonl(path, [
        {"subtokens": ["a", "b"], "ids": [1, 2], "word_ids": [0, 2]},
    ])
    with pytest.raises(InvariantViolation):
        load_external_segmentation(path)


def test_load_external_segmentation_monotonic(tmp_path):
    path = tmp_path / "seg.jsonl"
    _write_jsonl(path, [
        {"subtokens": ["a", "b"], "ids": [1, 2], "word_ids": [1, 0]},
    ])
    with pytest.raises(InvariantViolation):
        load_external_segmentation(path)


def test_load_external_segmentation_rejects_negative_ids(tmp_path):
    path = tmp_path / "seg.jsonl"
    _write_jsonl(path, [
        {"subtokens": ["a"], "ids": [0], "word_ids": [0]},
        {"subtokens": ["a", "b"], "ids": [3, -5], "word_ids": [0, 1]},
    ])
    with pytest.raises(InvariantViolation, match="sentence 1: negative id -5"):
        load_external_segmentation(path)


@pytest.mark.parametrize("field", ["ids", "word_ids"])
@pytest.mark.parametrize("literal", ["1e309", "14.9", "0.0", '"7"', "true",
                                     "false"])
def test_load_external_segmentation_rejects_non_integers(tmp_path, field,
                                                         literal):
    record = {"subtokens": ["a", "b"], "ids": [3, 4], "word_ids": [0, 1]}
    record[field][0] = "@"
    path = tmp_path / "seg.jsonl"
    path.write_text(json.dumps(record).replace('"@"', literal) + "\n",
                    encoding="utf-8")
    with pytest.raises(InvariantViolation,
                       match=f"sentence 0: {field} must be integers"):
        load_external_segmentation(path)


def test_precomputed_segmenter_looks_up_by_sentence():
    enc = SubwordEncoding(("a",), (3,), (0,))
    seg = PrecomputedSegmenter({("word",): enc})
    assert seg.vocab_size == 4
    assert seg.encode(["word"]) is enc
    assert seg.encode(("word",)) is enc
    with pytest.raises(InvariantViolation, match="no record of this sentence"):
        seg.encode(["two", "words"])
