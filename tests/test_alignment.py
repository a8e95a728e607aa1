import random

import numpy as np
import pytest

from subner.alignment import (
    ClubbingStrategy,
    club_labels,
    make_padded_batch,
    propagate_labels,
)
from subner.errors import LengthMismatch
from subner.tokenizers import SubwordEncoding


def enc_from_word_ids(word_ids):
    n = len(word_ids)
    return SubwordEncoding(
        tuple(f"t{i}" for i in range(n)),
        tuple(range(n)),
        tuple(word_ids),
    )


def random_encoding(rng, max_words=6, max_fertility=4):
    n_words = rng.randint(0, max_words)
    word_ids = []
    for w in range(n_words):
        word_ids.extend([w] * rng.randint(1, max_fertility))
    return enc_from_word_ids(word_ids)


def test_propagate_examples():
    enc = enc_from_word_ids([0, 0, 1])
    assert propagate_labels(["B-NEL", "O"], enc) == ["B-NEL", "B-NEL", "O"]
    enc2 = enc_from_word_ids([0, 1, 2])
    assert propagate_labels(["a", "b", "c"], enc2) == ["a", "b", "c"]
    assert propagate_labels([], enc_from_word_ids([])) == []


def test_propagate_length_mismatch():
    with pytest.raises(LengthMismatch):
        propagate_labels(["O"], enc_from_word_ids([0, 0, 1]))


def test_club_examples():
    enc = enc_from_word_ids([0, 0, 1])
    assert club_labels(["B-NEL", "O", "O"], enc, ClubbingStrategy.FIRST) == \
        ["B-NEL", "O"]
    enc2 = enc_from_word_ids([0, 0, 0])
    assert club_labels(["O", "B-NEL", "B-NEL"], enc2,
                       ClubbingStrategy.MAJORITY) == ["B-NEL"]
    # tie: earliest subtoken's label wins
    enc3 = enc_from_word_ids([0, 0])
    assert club_labels(["B-NEL", "O"], enc3, ClubbingStrategy.MAJORITY) == \
        ["B-NEL"]


def test_club_length_mismatch():
    with pytest.raises(LengthMismatch):
        club_labels(["O"], enc_from_word_ids([0, 0]), ClubbingStrategy.FIRST)


def test_round_trip_property():
    rng = random.Random(21)
    labels_pool = ["O", "B-NEL", "I-NEL", "B-NEP", "weird label"]
    for _ in range(300):
        enc = random_encoding(rng)
        tags = [rng.choice(labels_pool) for _ in range(enc.n_words)]
        subtoken_tags = propagate_labels(tags, enc)
        assert len(subtoken_tags) == len(enc.word_ids)
        for strategy in ClubbingStrategy:
            assert club_labels(subtoken_tags, enc, strategy) == tags


def test_pad_short_sequence():
    rows = [(enc_from_word_ids([0, 1]), [0, 1]),
            (enc_from_word_ids([0, 1, 2, 3]), [1] * 4)]
    batch = make_padded_batch(rows, max_len=4, pad_id=9)
    assert batch.mask[0].tolist() == [1, 1, 0, 0]
    assert batch.ids[0].tolist() == [0, 1, 9, 9]
    assert batch.label_indices[0].tolist() == [0, 1, 0, 0]
    assert batch.truncated_rows == 0


def test_pad_exact_length():
    enc = enc_from_word_ids([0, 1, 2, 3, 4])
    batch = make_padded_batch([(enc, [0] * 5)], max_len=5, pad_id=9)
    assert batch.mask.tolist() == [[1] * 5]
    assert batch.truncated_rows == 0


def test_truncate_at_word_boundary():
    # word subtoken-group sizes 3, 4, 5: only the first group fits max_len 4
    enc = enc_from_word_ids([0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2])
    rows = [(enc, list(range(12))), (enc_from_word_ids([0, 1, 2, 3]), [0] * 4)]
    batch = make_padded_batch(rows, max_len=4, pad_id=99)
    assert batch.truncated_rows == 1
    assert batch.mask[0].tolist() == [1, 1, 1, 0]
    assert batch.ids[0].tolist() == [0, 1, 2, 99]
    assert batch.label_indices[0].tolist() == [0, 1, 2, 0]


def test_truncation_never_splits_groups():
    rng = random.Random(5)
    for _ in range(200):
        rows = [(enc, [0] * len(enc.word_ids)) for enc in
                (random_encoding(rng, max_words=8, max_fertility=5)
                 for _ in range(rng.randint(1, 4)))]
        max_len = rng.randint(1, 12)
        batch = make_padded_batch(rows, max_len, pad_id=0)
        truncated = 0
        for (enc, _), mask in zip(rows, batch.mask):
            kept = int(mask.sum())
            assert mask[:kept].all() and not mask[kept:].any()
            assert kept <= max_len
            if kept < len(enc.word_ids):
                truncated += 1
                # boundary: the first cut subtoken starts a new word group,
                # and only a word longer than max_len leaves nothing
                assert kept == 0 or enc.word_ids[kept - 1] != enc.word_ids[kept]
                assert kept + enc.word_ids.count(enc.word_ids[kept]) > max_len
        assert batch.truncated_rows == truncated


def test_make_padded_batch():
    rows = [
        (enc_from_word_ids([0, 0]), [1, 1]),
        (enc_from_word_ids([0]), [2]),
    ]
    batch = make_padded_batch(rows, max_len=3, pad_id=7)
    # padded to the longest row, not to max_len
    assert batch.ids.shape == (2, 2)
    assert batch.mask.sum() == 3
    assert batch.truncated_rows == 0
    assert np.array_equal(batch.label_indices[0], [1, 1])
    assert np.array_equal(batch.ids[1], [0, 7])
    assert np.array_equal(batch.label_indices[1], [2, 0])

    # the longest row is cut at a word boundary, so the width is its kept
    # length (2 of 5 subtokens), below max_len
    rows.append((enc_from_word_ids([0, 0, 1, 1, 1]), [3] * 5))
    batch = make_padded_batch(rows, max_len=4, pad_id=7)
    assert batch.ids.shape == (3, 2)
    assert batch.truncated_rows == 1
    assert batch.mask[2].tolist() == [1, 1]

    with pytest.raises(LengthMismatch):
        make_padded_batch([(enc_from_word_ids([0, 0]), [1])], max_len=3, pad_id=7)
