"""Label propagation (root word -> subtokens), clubbing (subtokens -> root
word), and word-boundary truncation with batch-local padding for training."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch
from .tokenizers import SubwordEncoding


class ClubbingStrategy(enum.Enum):
    FIRST = "first"
    MAJORITY = "majority"

    @classmethod
    def parse(cls, name: str) -> "ClubbingStrategy":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown clubbing strategy {name!r}") from None


def propagate_labels(tags, encoding: SubwordEncoding) -> list:
    """Copy each root word's label verbatim onto all of its subtokens."""
    if len(tags) != encoding.n_words:
        raise LengthMismatch(
            f"{len(tags)} tags for {encoding.n_words} words"
        )
    return [tags[wid] for wid in encoding.word_ids]


def club_labels(subtoken_tags, encoding: SubwordEncoding,
                strategy: ClubbingStrategy = ClubbingStrategy.FIRST) -> list:
    """Merge per-subtoken labels back to one label per root word.

    FIRST takes the word's first subtoken label; MAJORITY the most frequent
    label among the word's subtokens, ties broken by earliest subtoken.
    """
    if len(subtoken_tags) != len(encoding.word_ids):
        raise LengthMismatch(
            f"{len(subtoken_tags)} subtoken tags for "
            f"{len(encoding.word_ids)} subtokens"
        )
    out = []
    for start, end in encoding.word_groups():
        group = subtoken_tags[start:end]
        if strategy is ClubbingStrategy.FIRST:
            out.append(group[0])
        else:
            counts = {}
            for tag in group:
                counts[tag] = counts.get(tag, 0) + 1
            best = max(counts.values())
            # earliest subtoken whose label is among the tied maxima
            out.append(next(t for t in group if counts[t] == best))
    return out


@dataclass
class PaddedBatch:
    ids: np.ndarray            # (batch, width), width = longest kept row
    label_indices: np.ndarray
    mask: np.ndarray
    truncated_rows: int


def _kept_length(encoding: SubwordEncoding, max_len: int) -> int:
    """Subtokens left after truncating to at most max_len at a word boundary
    (a word's subtoken group is never split)."""
    keep = len(encoding.ids)
    if keep <= max_len:
        return keep
    keep = 0
    for _, end in encoding.word_groups():
        if end > max_len:
            break
        keep = end
    return keep


def make_padded_batch(rows, max_len: int, pad_id: int) -> PaddedBatch:
    """Stack (encoding, label_indices) pairs into a batch. Each row is
    truncated at a word boundary to at most max_len subtokens, then
    right-padded with `pad_id` (label index 0) to the batch's longest kept
    row; mask marks real positions."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    keeps = [_kept_length(enc, max_len) for enc, _ in rows]
    shape = (len(rows), max(keeps + [1]))
    ids = np.full(shape, pad_id, dtype=np.int64)
    labels = np.zeros(shape, dtype=np.int64)
    mask = np.zeros(shape, dtype=np.float64)
    truncated = 0
    for row, ((enc, label_indices), keep) in enumerate(zip(rows, keeps)):
        if len(label_indices) != len(enc.word_ids):
            raise LengthMismatch(
                f"{len(label_indices)} label indices for "
                f"{len(enc.word_ids)} subtokens"
            )
        ids[row, :keep] = enc.ids[:keep]
        labels[row, :keep] = label_indices[:keep]
        mask[row, :keep] = 1.0
        truncated += keep < len(enc.ids)
    return PaddedBatch(ids, labels, mask, truncated)
