"""Seeded inputs, output checks and the timed phases of the three workloads
(why each exists is in `run.py`).

Every workload drives the subner package only through its public functions,
looked up as module attributes at call time so that the traced run can wrap
them.
"""

from __future__ import annotations

import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path

WORKLOADS = ("train-cnn", "train-bilstm", "tag-eval")

VOCAB_SIZE = 30_000
SETUP_SHARE = 0.25       # share of a run spent setting up again
PREDICT_SAMPLES = 100     # train-*: held-out sentences tagged (tail = p90)
PREDICT_PER_ROUND = 0.5   # train-*: seconds of predict passes per round
SEGMENT_SENTENCES = 500   # train-*: held-out sentences segmented per pass
SEGMENT_PER_ROUND = 0.2   # train-*: seconds of segment passes per round
EVAL_SENTENCES = 1000     # tag-eval: held-out sentences (tail = p99)
SEGMENT_REPEATS = 4       # tag-eval: fertility_stats calls per block visit
BLOCK = 50                # sentences per evaluate / fertility_stats call
MIN_VISITS = 2            # tag-eval: rounds every block goes through
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0)

# Sentences of 3 to 30 words, ~2.2 WordPiece subtokens per word, a few
# thousand distinct training words; stems of 3-4 characters split into
# single-letter pieces plus a suffix piece.
SYNTH = dict(stems_per_class=300, n_fillers=3000, n_train=2000,
             n_validation=8, n_test=4000, len_min=3, len_max=30,
             stem_len_min=3, stem_len_max=4, entity_rate=0.35, oov_rate=0.5)

# (sentences per train call, batch size, epochs). Two epochs put at least
# one optimizer step before the reported loss.
TRAIN_SPECS = {
    "train-cnn": (16, 16, 2),
    "train-bilstm": (1, 1, 2),
}
MAX_LEN = 128


def tail_percentile(samples):
    """(percentile, value, count) for the highest percentile on TAIL_LADDER
    that has at least 10 samples above its nearest-rank position."""
    xs = sorted(samples)
    n = len(xs)
    for p in reversed(TAIL_LADDER):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, xs[rank - 1], n
    raise ValueError(f"{n} samples leave fewer than 10 beyond any percentile")


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, reason: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    def run(self, op, check):
        """Time `op()`, then `check(result)`, which returns a failure reason
        or ''. A raise counts as a failure, with its traceback kept.
        Returns (result or None on failure, seconds op() took)."""
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception:  # benchmark boundary: count it, keep going
            took = time.perf_counter() - t0
            self.record(False, traceback.format_exc(limit=3))
            return None, took
        took = time.perf_counter() - t0
        reason = check(result)
        self.record(not reason, reason)
        return (None if reason else result), took


# ---------------------------------------------------------------------------
# Inputs


def wordpiece_vocab(cfg, seed: int):
    """The synthetic WordPiece vocab plus seeded random pieces up to
    VOCAB_SIZE. Pieces are 4-8 letters, so they almost never change how the
    corpus segments; they only make the table pretrained-sized."""
    from subner import corpus, tokenizers

    tokens = corpus.synthetic_vocab_tokens(cfg, seed)
    seen = set(tokens)
    rng = random.Random(f"{seed}:vocab")
    letters = "abcdefghijklmnopqrstuvwxyz"
    while len(tokens) < VOCAB_SIZE:
        piece = "".join(rng.choice(letters) for _ in range(rng.randint(4, 8)))
        if rng.random() < 0.5:
            piece = "##" + piece
        if piece not in seen:
            seen.add(piece)
            tokens.append(piece)
    return tokenizers.Vocab(tuple(tokens))


@dataclass
class State:
    """Everything set-up builds; the timed phase only uses it."""
    splits: dict
    labels: object
    segmenter: object
    model: object
    seed: int
    init_params: dict | None = None


def setup(workload: str, seed: int, workdir: Path, tally: Tally,
          lap=lambda stage: None) -> State:
    """Build a workload's inputs and model; `lap(stage)` is called as each
    stage of set-up ends."""
    from subner import corpus, taggers, tokenizers

    cfg = corpus.SynthConfig(**SYNTH)
    splits = corpus.generate_synthetic(cfg, seed)
    labels = corpus.build_label_set(splits["train"])
    hyper = taggers.Hyperparams(num_labels=len(labels))
    lap("corpus")
    if workload == "train-bilstm":
        vocab = tokenizers.build_word_vocab(splits["train"])
        segmenter = tokenizers.VocabSegmenter(vocab, "word")
    else:
        vocab = wordpiece_vocab(cfg, seed)
        segmenter = tokenizers.VocabSegmenter(vocab, "subword")
    lap("vocab")
    arch = "BiLSTM" if workload == "train-bilstm" else "CNN"
    model = taggers.build_model(arch, hyper, vocab, labels, seed)
    state = State(splits, labels, segmenter, model, seed)
    lap("model")
    if workload == "tag-eval":
        path = workdir / "tagger.ckpt"
        taggers.save_checkpoint(model, path)
        lap("save")
        state.model, _ = tally.run(
            lambda: taggers.load_checkpoint(path),
            lambda loaded: checkpoint_mismatch(model, loaded))
        lap("load")
    else:
        state.init_params = {k: v.copy() for k, v in model.params.items()}
        lap("init_copy")
    return state


def input_fingerprint(state: State) -> str:
    """Digest of the generated corpora and vocab, to show a seed's inputs."""
    import hashlib

    from subner import corpus

    digest = hashlib.sha256()
    for name in sorted(state.splits):
        digest.update(corpus.write_conll(state.splits[name]).encode("utf-8"))
    digest.update("\n".join(state.segmenter.vocab.token_of).encode("utf-8"))
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output checks


def checkpoint_mismatch(model, loaded) -> str:
    import numpy as np

    if (loaded.arch, loaded.labels, loaded.hyper) != \
            (model.arch, model.labels, model.hyper):
        return "checkpoint header differs after round trip"
    if sorted(loaded.params) != sorted(model.params):
        return "checkpoint tensor names differ after round trip"
    for name, value in model.params.items():
        if not np.array_equal(loaded.params[name], value):
            return f"checkpoint tensor {name!r} differs after round trip"
    return ""


def loss_problem(history, num_labels: int) -> str:
    loss = history.train_loss[-1]
    if not math.isfinite(loss) or loss >= math.log(num_labels):
        return f"final train loss {loss!r} is not a finite value below ln({num_labels})"
    return ""


def prediction_problem(words, pairs, labels) -> str:
    if [w for w, _ in pairs] != list(words):
        return "prediction does not cover the sentence's words"
    if any(tag not in labels for _, tag in pairs):
        return "prediction outside the label set"
    return ""


def recount_problem(report, block, predicted) -> str:
    """Compare evaluate's counts with a recount from predict_sentence."""
    if any(pairs is None for pairs in predicted):
        return "a prediction in the block failed"
    words = sum(len(s) for s in block)
    if report.total_tokens != words:
        return f"evaluate scored {report.total_tokens} tokens of {words}"
    tp, fp, fn = {}, {}, {}
    gold_labels, correct = set(), 0
    for sent, pairs in zip(block, predicted):
        for (_, pred), gold in zip(pairs, sent.tags):
            gold_labels.add(gold)
            if pred == gold:
                correct += 1
                tp[pred] = tp.get(pred, 0) + 1
            else:
                fp[pred] = fp.get(pred, 0) + 1
                fn[gold] = fn.get(gold, 0) + 1
    labels = set(tp) | set(fp) | set(fn) | gold_labels
    if set(report.per_class) != labels:
        return "evaluate's classes differ from the recount"
    for label in labels:
        t, p, n = tp.get(label, 0), fp.get(label, 0), fn.get(label, 0)
        m = report.per_class[label]
        precision = t / (t + p) if t + p else 0.0
        recall = t / (t + n) if t + n else 0.0
        if m.support != t + n or m.precision != precision or m.recall != recall:
            return f"evaluate's counts for {label!r} differ from the recount"
    if report.accuracy != correct / words:
        return "evaluate's accuracy differs from the recount"
    return ""


def fertility_problem(stats, words: int) -> str:
    if stats.words_total != words or stats.subtokens_total < words:
        return (f"fertility counted {stats.words_total} words, "
                f"{stats.subtokens_total} subtokens for {words} words")
    return ""


# ---------------------------------------------------------------------------
# Timed phases


class BestTimes:
    """The fastest time seen for each unit of work that a run repeats.

    On a host shared with other machines a busy core runs at several
    speeds, up to a few times apart, switching many times a second, and the
    share of slow time drifts from run to run. So each run repeats the same
    units of work at different moments and keeps the fastest time of each:
    the cost of the code when the core is not contended.
    """

    def __init__(self):
        self.work = {}
        self.best = {}
        self.visits = {}

    def add(self, key, work, seconds):
        self.work[key] = work
        self.best[key] = min(seconds, self.best.get(key, math.inf))
        self.visits[key] = self.visits.get(key, 0) + 1

    def rate(self) -> float:
        """Work per second over all units, each at its fastest."""
        return sum(self.work.values()) / sum(self.best.values())

    def milliseconds(self) -> list:
        return [s * 1e3 for s in self.best.values()]


@dataclass
class Timing:
    """Fastest times of one timed phase, per kind of unit."""
    main: BestTimes = field(default_factory=BestTimes)      # train / evaluate
    predict: BestTimes = field(default_factory=BestTimes)   # per sentence
    segment: BestTimes = field(default_factory=BestTimes)   # per block


class Setups:
    """Sets a workload up again and again, in place: `state` is always the
    same State object, and a new set-up replaces its contents.

    Set-up time drifts with the host's speed like everything else, so it
    is sampled at moments spread over the run: before a unit of training,
    prediction or evaluation a new set-up is due while set-ups have taken
    less than SETUP_SHARE of the time since the first began (not before
    segmentation units, which are too short and too few on train-* to
    absorb the cold caches a set-up leaves). Each stage's fastest time is
    kept.
    `build(lap)` returns a new State and calls `lap(stage)` as each stage
    of set-up ends.
    """

    def __init__(self, build, clock=time.perf_counter):
        self.build = build
        self.clock = clock
        self.stages = BestTimes()
        self.state = None
        self.count = 0
        self.spent = 0.0
        self._first = self._lap_start = None

    def renew(self) -> State:
        if self.state is not None:  # release it before building again
            for f in fields(self.state):
                setattr(self.state, f.name, None)
        begin = self._lap_start = self.clock()
        if self._first is None:
            self._first = begin
        new = self.build(self._lap)
        self.count += 1
        self.spent += self.clock() - begin
        if self.state is None:
            self.state = new
        else:
            vars(self.state).update(vars(new))
        return self.state

    def _lap(self, stage):
        now = self.clock()
        self.stages.add(stage, 1, now - self._lap_start)
        self._lap_start = now

    def due(self) -> bool:
        return self.spent < SETUP_SHARE * (self.clock() - self._first)

    def refresh(self):
        """Set up again if a set-up is due."""
        if self.due():
            self.renew()

    def seconds(self) -> float:
        """One set-up with every stage at its fastest."""
        return sum(self.stages.best.values())


def _predict(setups, indexed_sentences, tally, timing):
    from subner import taggers
    from subner.alignment import ClubbingStrategy

    state = setups.state
    predicted = []
    for index, sent in indexed_sentences:
        setups.refresh()
        words = list(sent.words)
        pairs, took = tally.run(
            lambda: taggers.predict_sentence(state.model, words, state.segmenter,
                                             ClubbingStrategy.MAJORITY),
            lambda out: prediction_problem(words, out, state.labels))
        timing.predict.add(index, 1, took)
        predicted.append(pairs)
    return predicted


def _segment(setups, index, sentences, tally, timing):
    from subner import corpus, metrics

    state = setups.state
    block = corpus.LabeledCorpus(tuple(sentences), "test")
    words = sum(len(s) for s in sentences)
    _, took = tally.run(
        lambda: metrics.fertility_stats(block, state.segmenter.vocab,
                                        state.segmenter.mode),
        lambda stats: fertility_problem(stats, words))
    timing.segment.add(index, words, took)


def by_length(sentences, n):
    """`n` sentences at evenly spaced length ranks, in corpus order, so a
    sample's length distribution (and with it the latency percentiles)
    follows the whole split's rather than the luck of the draw."""
    ranked = sorted(range(len(sentences)), key=lambda i: (len(sentences[i]), i))
    picked = sorted(ranked[(2 * k + 1) * len(ranked) // (2 * n)]
                    for k in range(n))
    return [sentences[i] for i in picked]


def _blocks(sentences, size):
    return [sentences[i:i + size] for i in range(0, len(sentences), size)]


def _repeat_for(seconds, op):
    """Call `op()` at least once, and again until `seconds` have passed."""
    until = time.perf_counter() + seconds
    op()
    while time.perf_counter() < until:
        op()


def run_train(workload, setups, seconds, tally) -> Timing:
    """Rounds of: one `train` call from the set-up initialization on the
    first chunk of the training split; passes of `predict_sentence` over
    PREDICT_SAMPLES held-out sentences for PREDICT_PER_ROUND seconds;
    passes of `fertility_stats` over SEGMENT_SENTENCES held-out sentences
    in blocks, for SEGMENT_PER_ROUND seconds. Rounds repeat while the next
    is expected to end in the window. A set-up made between two units
    replaces the model just trained with the initial one; a prediction
    costs the same with either."""
    from subner import corpus, taggers

    state = setups.state
    chunk, batch_size, epochs = TRAIN_SPECS[workload]
    config = taggers.TrainConfig(epochs=epochs, batch_size=batch_size,
                                 max_len=MAX_LEN, seed=state.seed)
    part = corpus.LabeledCorpus(state.splits["train"].sentences[:chunk], "train")
    heldout = state.splits["test"].sentences
    to_predict = list(enumerate(by_length(heldout, PREDICT_SAMPLES)))
    to_segment = _blocks(by_length(heldout, SEGMENT_SENTENCES), BLOCK)

    def segment_pass():
        for index, sentences in enumerate(to_segment):
            _segment(setups, index, sentences, tally, timing)

    timing = Timing()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups.refresh()
        state.model.params = {k: v.copy() for k, v in state.init_params.items()}
        _, took = tally.run(
            lambda: taggers.train(state.model, part, state.splits["validation"],
                                  state.segmenter, config)[1],
            lambda history: loss_problem(history, len(state.labels)))
        timing.main.add("train", chunk * epochs, took)
        _repeat_for(PREDICT_PER_ROUND,
                    lambda: _predict(setups, to_predict, tally, timing))
        _repeat_for(SEGMENT_PER_ROUND, segment_pass)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return timing


def run_tag_eval(setups, seconds, tally) -> Timing:
    """Rounds over EVAL_SENTENCES held-out sentences in blocks:
    `predict_sentence` on each sentence of the block, `evaluate` on the
    block, then `fertility_stats` on the block SEGMENT_REPEATS times; until
    the window is used and every block has been through MIN_VISITS rounds.
    Every set-up builds the same seeded model, so a set-up made between a
    block's predictions and its `evaluate` leaves the recount valid."""
    from subner import corpus, metrics
    from subner.alignment import ClubbingStrategy

    state = setups.state
    heldout = by_length(state.splits["test"].sentences, EVAL_SENTENCES)
    blocks = _blocks(list(enumerate(heldout)), BLOCK)
    timing = Timing()
    start = time.perf_counter()
    while True:
        for index, indexed in enumerate(blocks):
            sentences = [sent for _, sent in indexed]
            predicted = _predict(setups, indexed, tally, timing)
            block = corpus.LabeledCorpus(tuple(sentences), "test")
            setups.refresh()
            _, took = tally.run(
                lambda: metrics.evaluate(state.model, block, state.segmenter,
                                         ClubbingStrategy.MAJORITY, "bio"),
                lambda report: recount_problem(report, sentences, predicted))
            timing.main.add(index, len(sentences), took)
            for _ in range(SEGMENT_REPEATS):
                _segment(setups, index, sentences, tally, timing)
            if (time.perf_counter() - start >= seconds
                    and min(timing.main.visits.values()) >= MIN_VISITS
                    and len(timing.main.visits) == len(blocks)):
                return timing


def run_timed(workload, setups, seconds, tally) -> Timing:
    """The timed phase, on `setups.state` and the set-ups it renews."""
    if workload == "tag-eval":
        return run_tag_eval(setups, seconds, tally)
    return run_train(workload, setups, seconds, tally)


def summarize(timing: Timing) -> dict:
    """End-to-end values of one timed phase, plus the sample counts."""
    latencies = timing.predict.milliseconds()
    p, tail, n = tail_percentile(latencies)
    return {
        "sents_per_s": timing.main.rate(),
        "predict_ms_p50": statistics.median(latencies),
        "predict_ms_tail": tail,
        "segment_words_per_s": timing.segment.rate(),
        "tail_percentile": p,
        "predict_samples": n,
        "repeats": min(timing.main.visits.values()),
    }
