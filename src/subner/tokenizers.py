"""Word-level and WordPiece segmentation over pretrained vocab files.

Vocab files follow the published BERT format: UTF-8, one token per line,
token id == zero-based line number, an `[UNK]` token, continuation pieces
prefixed `##`, and any word longer than 100 characters segmented as `[UNK]`.
Non-WordPiece tokenizers are supported through an import format for
externally produced segmentations.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .corpus import LabeledCorpus
from .errors import DuplicateToken, InvariantViolation, MissingSpecial

# the vocab format, shared by every vocab
UNK_TOKEN = "[UNK]"
CONTINUATION_PREFIX = "##"
MAX_WORD_CHARS = 100


@dataclass
class Vocab:
    token_of: tuple[str, ...]
    id_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.id_of = {}
        for idx, token in enumerate(self.token_of):
            if token in self.id_of:
                raise DuplicateToken(token, idx)
            self.id_of[token] = idx
        if UNK_TOKEN not in self.id_of:
            raise MissingSpecial(UNK_TOKEN)

    @property
    def unk_id(self) -> int:
        return self.id_of[UNK_TOKEN]

    def __len__(self):
        return len(self.token_of)


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


def load_vocab(path) -> Vocab:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    tokens = tuple(line.rstrip("\r") for line in lines)
    return Vocab(tokens)


def build_word_vocab(corpus: LabeledCorpus, min_freq: int = 1) -> Vocab:
    """Word-level baseline vocab: "[PAD]" (id 0), "[UNK]" (id 1), then corpus
    words with frequency >= min_freq in first-occurrence order. The "[PAD]"
    row keeps word ids, and so each word's seeded initial embedding, stable
    across versions. A corpus word spelled "[PAD]" or "[UNK]" is not added
    again: it takes that special's id."""
    freq = Counter()
    order = []
    for sent in corpus:
        for word in sent.words:
            if word not in freq:
                order.append(word)
            freq[word] += 1
    specials = ("[PAD]", UNK_TOKEN)
    return Vocab(specials + tuple(w for w in order if freq[w] >= min_freq
                                  and w not in specials))


def wordpiece_word(word: str, vocab: Vocab) -> list[str]:
    """Greedy longest-match-first WordPiece split; [UNK] is the total fallback."""
    if len(word) > MAX_WORD_CHARS:
        return [UNK_TOKEN]
    pieces = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        match = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION_PREFIX + piece
            if piece in vocab.id_of:
                match = piece
                break
            end -= 1
        if match is None:
            return [UNK_TOKEN]
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
    for enc in encodings:
        n_words = enc.n_words
        words_total += n_words
        subtokens_total += len(enc.subtokens)
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
    )


def load_external_segmentation(path) -> list[SubwordEncoding]:
    """Load line-delimited JSON records {subtokens, ids, word_ids}, one
    sentence per line, validating the encoding invariants per sentence.
    Ids and word ids must be JSON integers: not floats (`14.9`, or `1e309`,
    which reads as infinity), strings or booleans."""
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
                    tuple(record["ids"]),
                    tuple(record["word_ids"]),
                )
            except (KeyError, TypeError) as exc:
                raise InvariantViolation(sentence_no, f"bad record: {exc}") from exc
            for name, values in (("ids", enc.ids), ("word_ids", enc.word_ids)):
                for v in values:
                    if type(v) is not int:  # bool is a subclass of int
                        raise InvariantViolation(
                            sentence_no, f"{name} must be integers, got {v!r}")
            if enc.word_ids and enc.word_ids[0] != 0:
                raise InvariantViolation(sentence_no, "word_ids must start at 0")
            if enc.ids and min(enc.ids) < 0:
                raise InvariantViolation(sentence_no,
                                         f"negative id {min(enc.ids)}")
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

    def encode(self, words) -> SubwordEncoding:
        return segment_sentence(words, self.vocab, self.mode)


class PrecomputedSegmenter:
    """Serves externally produced encodings by sentence, from one map of a
    sentence's words (a tuple) to its encoding over every split the same
    tokenizer segmented. `vocab_size` is the embedding table size of a
    model over them: one past their largest id, test ids included."""

    mode = "external"
    vocab = None

    def __init__(self, encodings: dict[tuple[str, ...], SubwordEncoding]):
        self.encodings = encodings
        self.vocab_size = max((max(e.ids) + 1 for e in encodings.values()
                               if e.ids), default=1)

    def encode(self, words) -> SubwordEncoding:
        try:
            return self.encodings[tuple(words)]
        except KeyError:
            raise InvariantViolation(-1, "external segmentation has no "
                                         "record of this sentence") from None
