"""Corpus data model, CoNLL-style I/O, statistics, and a synthetic corpus generator.

The synthetic generator builds morphologically inflected entity words
(stem + class-determining suffix) so that subword-vs-word tokenization can be
compared at desk scale with a controllable out-of-vocabulary rate.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .errors import EmptyCorpus, InvalidConfig, MalformedLine
from .util import parse_kv_text

OUTSIDE = "O"

SPLIT_NAMES = ("train", "test", "validation", "unsplit")


@dataclass(frozen=True)
class LabeledSentence:
    words: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.words) != len(self.tags):
            raise ValueError(
                f"words/tags length mismatch: {len(self.words)} vs {len(self.tags)}"
            )
        if not self.words:
            raise ValueError("empty sentence")
        for w in self.words:
            if not w or any(ch.isspace() for ch in w):
                raise ValueError(f"bad word {w!r}: empty or contains whitespace")

    def __len__(self):
        return len(self.words)


@dataclass(frozen=True)
class LabeledCorpus:
    sentences: tuple[LabeledSentence, ...]
    split_name: str = "unsplit"

    def __post_init__(self):
        if self.split_name not in SPLIT_NAMES:
            raise ValueError(f"unknown split name {self.split_name!r}")

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


@dataclass(frozen=True)
class LabelSet:
    labels: tuple[str, ...]

    def __post_init__(self):
        if OUTSIDE not in self.labels:
            raise ValueError(f"label set must contain {OUTSIDE!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        object.__setattr__(self, "_index",
                           {label: i for i, label in enumerate(self.labels)})

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"{label!r} is not in label set") from None

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self._index


@dataclass(frozen=True)
class CorpusStats:
    sentence_count: int
    token_count: int
    tag_count: int  # tokens whose tag != "O"
    per_label_counts: dict[str, int]


def parse_conll(text: str, split_name: str = "unsplit") -> LabeledCorpus:
    """Parse `word<TAB>tag` lines; a blank line terminates a sentence."""
    sentences = []
    words, tags = [], []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            if words:
                sentences.append(LabeledSentence(tuple(words), tuple(tags)))
                words, tags = [], []
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine(line_no)
        word, tag = fields
        if not word or not tag or any(ch.isspace() for ch in word):
            raise MalformedLine(line_no, f"bad word/tag pair {line!r}")
        words.append(word)
        tags.append(tag)
    if words:
        sentences.append(LabeledSentence(tuple(words), tuple(tags)))
    if not sentences:
        raise EmptyCorpus("no sentences found")
    return LabeledCorpus(tuple(sentences), split_name)


def write_conll(corpus: LabeledCorpus) -> str:
    """Inverse of parse_conll: one pair per line, blank line after each sentence."""
    chunks = []
    for sent in corpus:
        for word, tag in zip(sent.words, sent.tags):
            chunks.append(f"{word}\t{tag}\n")
        chunks.append("\n")
    return "".join(chunks)


def corpus_stats(corpus: LabeledCorpus) -> CorpusStats:
    token_count = 0
    per_label = Counter()
    for sent in corpus:
        token_count += len(sent)
        per_label.update(sent.tags)
    non_o = {lab: n for lab, n in per_label.items() if lab != OUTSIDE}
    return CorpusStats(
        sentence_count=len(corpus),
        token_count=token_count,
        tag_count=sum(non_o.values()),
        per_label_counts=dict(per_label),
    )


def build_label_set(corpus: LabeledCorpus) -> LabelSet:
    """Collect observed labels, "O" first, the rest sorted lexicographically."""
    seen = set()
    for sent in corpus:
        seen.update(sent.tags)
    seen.discard(OUTSIDE)
    return LabelSet((OUTSIDE,) + tuple(sorted(seen)))


# ---------------------------------------------------------------------------
# Synthetic corpus generation


@dataclass(frozen=True)
class SynthConfig:
    classes: tuple[str, ...] = ("NEL", "NEP")
    suffixes: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: {"NEL": ("pur", "gad"), "NEP": ("rao", "bai")}
    )
    stems_per_class: int = 30
    n_fillers: int = 40
    n_train: int = 200
    n_test: int = 100
    n_validation: int = 0
    len_min: int = 3
    len_max: int = 8
    stem_len_min: int = 2
    stem_len_max: int = 3
    entity_rate: float = 0.35
    oov_rate: float = 0.5

    def __post_init__(self):
        if not self.classes:
            raise InvalidConfig("at least one entity class required")
        if self.stems_per_class < 1:
            raise InvalidConfig("stems_per_class must be >= 1")
        if self.n_fillers < 1:
            raise InvalidConfig("n_fillers must be >= 1")
        for cls in self.classes:
            if not self.suffixes.get(cls):
                raise InvalidConfig(f"class {cls!r} has no suffixes")
            if any(not s for s in self.suffixes[cls]):
                raise InvalidConfig(f"class {cls!r} has an empty suffix")
        all_suf = [s for cls in self.classes for s in self.suffixes[cls]]
        if len(set(all_suf)) != len(all_suf):
            raise InvalidConfig("suffixes must be distinct across classes")
        for s1 in all_suf:
            for s2 in all_suf:
                if s1 != s2 and s1.endswith(s2):
                    raise InvalidConfig(
                        f"suffix {s2!r} is a trailing substring of {s1!r}"
                    )
        if self.len_min < 1 or self.len_max < self.len_min:
            raise InvalidConfig("bad sentence length range")
        if self.stem_len_min < 1 or self.stem_len_max < self.stem_len_min:
            raise InvalidConfig("bad stem length range")
        if not 0.0 <= self.oov_rate <= 1.0:
            raise InvalidConfig("oov_rate must be in [0, 1]")
        if not 0.0 < self.entity_rate <= 1.0:
            raise InvalidConfig("entity_rate must be in (0, 1]")
        if self.n_train < 1 or self.n_test < 0 or self.n_validation < 0:
            raise InvalidConfig("bad split sizes")


_LETTERS = "abdeghiklmnorstuz"


def _random_word(rng, length, forbidden_suffixes, taken):
    while True:
        w = "".join(rng.choice(_LETTERS) for _ in range(length))
        if w in taken:
            continue
        if any(w.endswith(s) for s in forbidden_suffixes):
            continue
        return w


def _build_pools(cfg: SynthConfig, rng: random.Random):
    """Deterministic stem/filler pools. Held-out stems never occur in train."""
    all_suffixes = [s for cls in cfg.classes for s in cfg.suffixes[cls]]
    taken = set()
    train_stems, heldout_stems = {}, {}
    for cls in cfg.classes:
        pools = []
        for _ in range(2):
            stems = []
            for _ in range(cfg.stems_per_class):
                length = rng.randint(cfg.stem_len_min, cfg.stem_len_max)
                stem = _random_word(rng, length, all_suffixes, taken)
                taken.add(stem)
                stems.append(stem)
            pools.append(tuple(stems))
        train_stems[cls], heldout_stems[cls] = pools
    fillers = []
    for _ in range(cfg.n_fillers):
        length = rng.randint(3, 6)
        filler = _random_word(rng, length, all_suffixes, taken)
        taken.add(filler)
        fillers.append(filler)
    return train_stems, heldout_stems, tuple(fillers)


def _synth_sentences(cfg, rng, n, train_stems, heldout_stems, fillers, oov_rate):
    sentences = []
    for _ in range(n):
        length = rng.randint(cfg.len_min, cfg.len_max)
        words, tags = [], []
        for _ in range(length):
            if rng.random() < cfg.entity_rate:
                cls = rng.choice(cfg.classes)
                if oov_rate > 0.0 and rng.random() < oov_rate:
                    stem = rng.choice(heldout_stems[cls])
                else:
                    stem = rng.choice(train_stems[cls])
                suffix = rng.choice(cfg.suffixes[cls])
                words.append(stem + suffix)
                tags.append(f"B-{cls}")
            else:
                words.append(rng.choice(fillers))
                tags.append(OUTSIDE)
        sentences.append(LabeledSentence(tuple(words), tuple(tags)))
    return tuple(sentences)


def generate_synthetic(cfg: SynthConfig, seed: int) -> dict[str, LabeledCorpus]:
    """Generate train/test (and optionally validation) splits, bit-reproducibly.

    Entity words are stem+suffix where the suffix determines the class; the
    test split draws stems from a held-out pool at the configured OOV rate.
    """
    rng = random.Random(seed)
    train_stems, heldout_stems, fillers = _build_pools(cfg, rng)
    splits = {
        "train": LabeledCorpus(
            _synth_sentences(cfg, rng, cfg.n_train, train_stems, heldout_stems,
                             fillers, 0.0),
            "train",
        )
    }
    if cfg.n_validation:
        splits["validation"] = LabeledCorpus(
            _synth_sentences(cfg, rng, cfg.n_validation, train_stems,
                             heldout_stems, fillers, 0.0),
            "validation",
        )
    if cfg.n_test:
        splits["test"] = LabeledCorpus(
            _synth_sentences(cfg, rng, cfg.n_test, train_stems, heldout_stems,
                             fillers, cfg.oov_rate),
            "test",
        )
    return splits


def synthetic_vocab_tokens(cfg: SynthConfig, seed: int) -> list[str]:
    """WordPiece vocab covering the synthetic corpus, including unseen stems.

    Single characters appear in both word-initial and continuation form, so any
    stem decomposes; suffixes are single continuation pieces; fillers are whole
    words. Pool construction mirrors generate_synthetic for the same seed.
    """
    rng = random.Random(seed)
    _, _, fillers = _build_pools(cfg, rng)
    tokens = ["[PAD]", "[UNK]"]
    tokens.extend(sorted(_LETTERS))
    tokens.extend("##" + c for c in sorted(_LETTERS))
    all_suffixes = sorted(s for cls in cfg.classes for s in cfg.suffixes[cls])
    tokens.extend("##" + s for s in all_suffixes)
    tokens.extend(sorted(fillers))
    return tokens


def parse_synth_config(text: str) -> tuple[SynthConfig, int | None]:
    """Parse the flat key=value synthetic-config format.

    Documented keys: classes, suffixes, stems_per_class, n_fillers, n_train,
    n_test, n_validation, len_min, len_max, stem_len_min, stem_len_max,
    entity_rate, oov_rate, seed. `suffixes` uses `CLS:a|b;CLS2:c` syntax.
    """
    kv = parse_kv_text(text)
    kwargs = {}
    seed = None
    try:
        if "classes" in kv:
            kwargs["classes"] = tuple(
                c.strip() for c in kv["classes"].split(",") if c.strip()
            )
        if "suffixes" in kv:
            suffixes = {}
            for part in kv["suffixes"].split(";"):
                part = part.strip()
                if not part:
                    continue
                cls, _, rest = part.partition(":")
                suffixes[cls.strip()] = tuple(
                    s.strip() for s in rest.split("|") if s.strip()
                )
            kwargs["suffixes"] = suffixes
        for key in ("stems_per_class", "n_fillers", "n_train", "n_test",
                    "n_validation", "len_min", "len_max", "stem_len_min",
                    "stem_len_max"):
            if key in kv:
                kwargs[key] = int(kv[key])
        for key in ("entity_rate", "oov_rate"):
            if key in kv:
                kwargs[key] = float(kv[key])
        if "seed" in kv:
            seed = int(kv["seed"])
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from exc
    unknown = set(kv) - {
        "classes", "suffixes", "stems_per_class", "n_fillers", "n_train",
        "n_test", "n_validation", "len_min", "len_max", "stem_len_min",
        "stem_len_max", "entity_rate", "oov_rate", "seed",
    }
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    return SynthConfig(**kwargs), seed
