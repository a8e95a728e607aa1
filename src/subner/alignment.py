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
class PaddedRow:
    ids: np.ndarray            # (max_len,) int64
    label_indices: np.ndarray  # (max_len,) int64
    mask: np.ndarray           # (max_len,) float64, 1.0 on real positions
    truncated: bool


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


def pad_truncate(encoding: SubwordEncoding, label_indices, max_len: int,
                 pad_id: int, pad_label_index: int = 0) -> PaddedRow:
    """Fixed-length row: truncate at a word boundary, then right-pad; mask
    marks real positions."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if len(label_indices) != len(encoding.word_ids):
        raise LengthMismatch(
            f"{len(label_indices)} label indices for "
            f"{len(encoding.word_ids)} subtokens"
        )
    keep = _kept_length(encoding, max_len)
    ids = np.full(max_len, pad_id, dtype=np.int64)
    labels = np.full(max_len, pad_label_index, dtype=np.int64)
    mask = np.zeros(max_len, dtype=np.float64)
    ids[:keep] = encoding.ids[:keep]
    labels[:keep] = label_indices[:keep]
    mask[:keep] = 1.0
    return PaddedRow(ids, labels, mask, keep < len(encoding.ids))


def make_padded_batch(rows, max_len: int, pad_id: int,
                      pad_label_index: int = 0) -> PaddedBatch:
    """Stack (encoding, label_indices) pairs into a batch padded only to its
    longest row after word-boundary truncation at max_len."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    width = max([_kept_length(enc, max_len) for enc, _ in rows] + [1])
    # Every kept length is <= width <= max_len, so truncating at width keeps
    # what truncating at max_len keeps and flags the same rows as truncated.
    padded = [
        pad_truncate(enc, labels, width, pad_id, pad_label_index)
        for enc, labels in rows
    ]
    return PaddedBatch(
        ids=np.stack([p.ids for p in padded]),
        label_indices=np.stack([p.label_indices for p in padded]),
        mask=np.stack([p.mask for p in padded]),
        truncated_rows=sum(p.truncated for p in padded),
    )
