"""Label propagation (root word -> subtokens), clubbing (subtokens -> root
word), and word-boundary truncation into packed batches for training."""

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
class PackedBatch:
    ids: np.ndarray            # (N,): every row's kept subtokens, row after row
    label_indices: np.ndarray  # (N,)
    lengths: np.ndarray        # (batch,): kept subtokens of each row
    truncated_rows: int

    @property
    def mask(self) -> np.ndarray:
        """All ones, one per position: every position is real. Nothing in
        the package reads it; bench/tracer.py counts real over all positions
        from it for its `alignment.pad_ratio` counter."""
        return np.ones(self.ids.size)


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


def make_padded_batch(rows, max_len: int) -> PackedBatch:
    """Pack (encoding, label_indices) pairs into one batch with no padding
    (the name predates packing; bench/tracer.py wraps it under it). Each row
    is truncated at a word boundary to at most max_len subtokens."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    keeps, ids, labels = [], [], []
    for enc, label_indices in rows:
        if len(label_indices) != len(enc.word_ids):
            raise LengthMismatch(
                f"{len(label_indices)} label indices for "
                f"{len(enc.word_ids)} subtokens"
            )
        keep = _kept_length(enc, max_len)
        keeps.append(keep)
        ids.extend(enc.ids[:keep])
        labels.extend(label_indices[:keep])
    truncated = sum(keep < len(enc.ids) for (enc, _), keep in zip(rows, keeps))
    return PackedBatch(np.array(ids, dtype=np.int64),
                       np.array(labels, dtype=np.int64),
                       np.array(keeps, dtype=np.int64), truncated)
