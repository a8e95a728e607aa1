"""Word-level and WordPiece segmentation over pretrained vocab files.

Vocab files follow the published BERT format: UTF-8, one token per line,
token id == zero-based line number, an `[UNK]` token, continuation pieces
prefixed `##`, and any word longer than 100 characters segmented as `[UNK]`.
Non-WordPiece tokenizers are supported through an import format for
externally produced segmentations.

A `Vocab` remembers the WordPiece split of each word it segments, so each
distinct word runs the greedy matcher once per vocab; training, evaluation,
prediction and fertility statistics over one vocab share that memo. Two
threads segmenting through one vocab at worst compute a split twice.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

from .corpus import LabeledCorpus
from .errors import DuplicateToken, InvariantViolation, MissingSpecial
from .util import read_text

# the vocab format, shared by every vocab
UNK_TOKEN = "[UNK]"
CONTINUATION_PREFIX = "##"
MAX_WORD_CHARS = 100

# Words whose split one Vocab remembers; past this a word is split and not
# stored, so a stream of ever new words (predict over open text) cannot grow
# the memo without bound. An entry takes about 200 B (tracemalloc 203-205 B
# over the bench's 5,400-word test split at seeds 1-3, 2.5 pieces a word,
# keys shared with the corpus), so a full memo is about 13 MB. The bench
# corpus's three splits hold 5,400 distinct words; the cap is 12 times that.
MEMO_WORDS = 1 << 16


@dataclass
class Vocab:
    """A token list and its id map, plus a memo of WordPiece splits: word ->
    (pieces, ids), the pieces being this vocab's own token strings. The memo
    fills as `segment_sentence` splits words (at most MEMO_WORDS of them,
    each at most MAX_WORD_CHARS long) and takes no part in equality or repr.
    It is a dict with no lock: two threads that miss the same word both
    split it and store equal values, so at worst a split is computed
    twice."""
    token_of: tuple[str, ...]
    id_of: dict[str, int] = field(init=False, repr=False)
    memo: dict[str, tuple[tuple[str, ...], tuple[int, ...]]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

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
    lines = read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    return Vocab(tuple(lines))


def build_word_vocab(corpus: LabeledCorpus) -> Vocab:
    """Word-level baseline vocab: "[PAD]" (id 0), "[UNK]" (id 1), then every
    corpus word in first-occurrence order. The "[PAD]" row keeps word ids,
    and so each word's seeded initial embedding, stable across versions. A
    corpus word spelled "[PAD]" or "[UNK]" is not added again: it takes that
    special's id."""
    specials = ("[PAD]", UNK_TOKEN)
    words = dict.fromkeys(word for sent in corpus for word in sent.words)
    return Vocab(specials + tuple(w for w in words if w not in specials))


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


def _split_word(word: str, vocab: Vocab):
    """(pieces, ids) of `word` by `wordpiece_word`, stored in the vocab's
    memo while it has room and the word is short enough to be matched."""
    id_of, token_of = vocab.id_of, vocab.token_of
    ids = tuple([id_of[piece] for piece in wordpiece_word(word, vocab)])
    split = (tuple([token_of[i] for i in ids]), ids)
    if len(word) <= MAX_WORD_CHARS and len(vocab.memo) < MEMO_WORDS:
        vocab.memo[word] = split
    return split


def segment_sentence(words, vocab: Vocab, mode: str = "subword") -> SubwordEncoding:
    """Segment a word sequence. mode="word" is the identity segmentation
    (one subtoken per word, OOV words mapped to the unk id); mode="subword"
    splits each word by WordPiece, through the vocab's memo."""
    if mode == "word":
        words = tuple(words)
        id_of, unk_id = vocab.id_of, vocab.id_of[UNK_TOKEN]
        # a list first: tuple() of an iterator over-allocates and shrinks,
        # which cost the bench's train-bilstm about 4 MB of peak RSS
        ids = tuple([id_of.get(word, unk_id) for word in words])
        return SubwordEncoding(words, ids, tuple(range(len(words))))
    if mode != "subword":
        raise ValueError(f"unknown segmentation mode {mode!r}")
    subtokens, ids, word_ids = [], [], []
    remembered = vocab.memo.get
    for widx, word in enumerate(words):
        pieces, piece_ids = remembered(word) or _split_word(word, vocab)
        subtokens += pieces
        ids += piece_ids
        if len(piece_ids) == 1:  # most words; spares a list per word
            word_ids.append(widx)
        else:
            word_ids += [widx] * len(piece_ids)
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
    Subtokens must be a JSON list of strings. Ids and word ids must be JSON
    integers: not floats (`14.9`, or `1e309`, which reads as infinity),
    strings or booleans."""
    encodings = []
    for sentence_no, raw in enumerate(io.StringIO(read_text(path))):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InvariantViolation(sentence_no, f"bad JSON: {exc}") from exc
        try:
            enc = SubwordEncoding(
                tuple(record["subtokens"]),
                tuple(record["ids"]),
                tuple(record["word_ids"]),
            )
        except (KeyError, TypeError) as exc:
            raise InvariantViolation(sentence_no, f"bad record: {exc}") from exc
        if (type(record["subtokens"]) is not list  # not a string's letters
                or not all(type(t) is str for t in enc.subtokens)):
            raise InvariantViolation(sentence_no, f"subtokens must be a list "
                                     f"of strings, got {record['subtokens']!r}")
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
