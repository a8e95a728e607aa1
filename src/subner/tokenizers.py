"""Word-level and WordPiece segmentation over pretrained vocab files.

Vocab files follow the published BERT format: UTF-8, one token per line,
token id == zero-based line number. Non-WordPiece tokenizers are supported
through an import format for externally produced segmentations.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .corpus import LabeledCorpus
from .errors import DuplicateToken, InvariantViolation, MissingSpecial

DEFAULT_UNK = "[UNK]"


@dataclass
class Vocab:
    token_of: tuple[str, ...]
    unk_token: str = DEFAULT_UNK
    continuation_prefix: str = "##"
    max_word_chars: int = 100
    id_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.id_of = {}
        for idx, token in enumerate(self.token_of):
            if token in self.id_of:
                raise DuplicateToken(token, idx)
            self.id_of[token] = idx
        if self.unk_token not in self.id_of:
            raise MissingSpecial(self.unk_token)

    @property
    def unk_id(self) -> int:
        return self.id_of[self.unk_token]

    def __len__(self):
        return len(self.token_of)

    def __contains__(self, token):
        return token in self.id_of


@dataclass(frozen=True)
class SubwordEncoding:
    subtokens: tuple[str, ...]
    ids: tuple[int, ...]
    word_ids: tuple[int, ...]  # index of the source word per subtoken

    @property
    def n_words(self) -> int:
        return self.word_ids[-1] + 1 if self.word_ids else 0

    def validate(self, sentence_no: int = 0) -> "SubwordEncoding":
        n = len(self.subtokens)
        if len(self.ids) != n or len(self.word_ids) != n:
            raise InvariantViolation(sentence_no, "field lengths differ")
        prev = -1
        for wid in self.word_ids:
            if wid < prev:
                raise InvariantViolation(sentence_no, "word_ids not non-decreasing")
            if wid > prev + 1:
                raise InvariantViolation(
                    sentence_no, f"word index {prev + 1} has no subtokens"
                )
            prev = wid
        return self

    def word_groups(self) -> list[tuple[int, int]]:
        """Half-open (start, end) subtoken ranges, one per source word."""
        groups = []
        start = 0
        for pos in range(1, len(self.word_ids) + 1):
            if pos == len(self.word_ids) or self.word_ids[pos] != self.word_ids[pos - 1]:
                groups.append((start, pos))
                start = pos
        return groups


@dataclass(frozen=True)
class FertilityStats:
    words_total: int
    subtokens_total: int
    fertility: float
    unk_words: int
    unk_word_rate: float
    sentence_lengths: dict[int, int]  # subtoken length -> sentence count


def load_vocab(path, unk_token: str = DEFAULT_UNK,
               continuation_prefix: str = "##") -> Vocab:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    tokens = tuple(line.rstrip("\r") for line in lines)
    return Vocab(tokens, unk_token=unk_token,
                 continuation_prefix=continuation_prefix)


def build_word_vocab(corpus: LabeledCorpus, min_freq: int = 1,
                     unk_token: str = DEFAULT_UNK) -> Vocab:
    """Word-level baseline vocab: "[PAD]" (id 0), unk (id 1), then corpus
    words with frequency >= min_freq in first-occurrence order. No word maps
    to "[PAD]"; its row keeps word ids, and so each word's seeded initial
    embedding, stable across versions."""
    freq = Counter()
    order = []
    for sent in corpus:
        for word in sent.words:
            if word not in freq:
                order.append(word)
            freq[word] += 1
    tokens = ["[PAD]", unk_token]
    tokens.extend(w for w in order if freq[w] >= min_freq)
    return Vocab(tuple(tokens), unk_token=unk_token)


def wordpiece_word(word: str, vocab: Vocab) -> list[str]:
    """Greedy longest-match-first WordPiece split; [UNK] is the total fallback."""
    if len(word) > vocab.max_word_chars:
        return [vocab.unk_token]
    pieces = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        match = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = vocab.continuation_prefix + piece
            if piece in vocab.id_of:
                match = piece
                break
            end -= 1
        if match is None:
            return [vocab.unk_token]
        pieces.append(match)
        start = end
    return pieces


def segment_sentence(words, vocab: Vocab, mode: str = "subword") -> SubwordEncoding:
    """Segment a word sequence. mode="word" is the identity segmentation
    (one subtoken per word, OOV words mapped to the unk id)."""
    subtokens, ids, word_ids = [], [], []
    if mode == "word":
        for widx, word in enumerate(words):
            subtokens.append(word)
            ids.append(vocab.id_of.get(word, vocab.unk_id))
            word_ids.append(widx)
    elif mode == "subword":
        for widx, word in enumerate(words):
            for piece in wordpiece_word(word, vocab):
                subtokens.append(piece)
                ids.append(vocab.id_of[piece])
                word_ids.append(widx)
    else:
        raise ValueError(f"unknown segmentation mode {mode!r}")
    return SubwordEncoding(tuple(subtokens), tuple(ids), tuple(word_ids))


def fertility_stats(corpus: LabeledCorpus, vocab: Vocab,
                    mode: str = "subword") -> FertilityStats:
    encodings = (segment_sentence(sent.words, vocab, mode) for sent in corpus)
    return encoding_fertility(encodings, vocab.unk_id)


def encoding_fertility(encodings, unk_id: int) -> FertilityStats:
    """Fertility of segmentations already made; a word counts as unknown
    when its only subtoken has `unk_id` (word mode keeps an unknown word's
    text as its subtoken, so the id decides, not the text)."""
    words_total = 0
    subtokens_total = 0
    unk_words = 0
    lengths = Counter()
    for enc in encodings:
        n_words = enc.n_words
        words_total += n_words
        subtokens_total += len(enc.subtokens)
        lengths[len(enc.subtokens)] += 1
        unk_ids = enc.ids.count(unk_id)
        if unk_ids == 0:
            continue
        if len(enc.ids) == n_words:  # one subtoken per word
            unk_words += unk_ids
            continue
        for start, end in enc.word_groups():
            if end - start == 1 and enc.ids[start] == unk_id:
                unk_words += 1
    return FertilityStats(
        words_total=words_total,
        subtokens_total=subtokens_total,
        fertility=subtokens_total / words_total if words_total else 1.0,
        unk_words=unk_words,
        unk_word_rate=unk_words / words_total if words_total else 0.0,
        sentence_lengths=dict(lengths),
    )


def load_external_segmentation(path) -> list[SubwordEncoding]:
    """Load line-delimited JSON records {subtokens, ids, word_ids}, one
    sentence per line, validating the encoding invariants per sentence."""
    encodings = []
    with open(path, "r", encoding="utf-8") as fh:
        for sentence_no, raw in enumerate(fh):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise InvariantViolation(sentence_no, f"bad JSON: {exc}") from exc
            try:
                enc = SubwordEncoding(
                    tuple(str(t) for t in record["subtokens"]),
                    tuple(int(i) for i in record["ids"]),
                    tuple(int(w) for w in record["word_ids"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise InvariantViolation(sentence_no, f"bad record: {exc}") from exc
            if enc.word_ids and enc.word_ids[0] != 0:
                raise InvariantViolation(sentence_no, "word_ids must start at 0")
            encodings.append(enc.validate(sentence_no))
    return encodings


# ---------------------------------------------------------------------------
# Segmenter adapters: one interface over vocab-driven and precomputed paths.


class VocabSegmenter:
    """Segments any word sequence through a Vocab, in word or subword mode."""

    def __init__(self, vocab: Vocab, mode: str):
        if mode not in ("word", "subword"):
            raise ValueError(f"unknown segmentation mode {mode!r}")
        self.vocab = vocab
        self.mode = mode
        self.vocab_size = len(vocab)

    def encode(self, words, index: int | None = None) -> SubwordEncoding:
        return segment_sentence(words, self.vocab, self.mode)


class PrecomputedSegmenter:
    """Serves externally produced encodings by corpus position. `vocab_size`
    is the embedding table size of a model over them: one past the largest
    id of every split the same tokenizer segmented."""

    mode = "external"
    vocab = None

    def __init__(self, encodings: list[SubwordEncoding], vocab_size: int):
        self.encodings = list(encodings)
        self.vocab_size = vocab_size

    def encode(self, words, index: int | None = None) -> SubwordEncoding:
        if index is None:
            raise InvariantViolation(
                -1, "precomputed segmentations require a corpus position"
            )
        if not 0 <= index < len(self.encodings):
            raise InvariantViolation(
                index, f"external segmentation has {len(self.encodings)} "
                       f"records, none for this sentence"
            )
        enc = self.encodings[index]
        if enc.n_words != len(words):
            raise InvariantViolation(
                index, f"encoding covers {enc.n_words} words, sentence has {len(words)}"
            )
        return enc
