"""Span timer for the traced benchmark run.

The traced run replaces public functions of the subner modules, at the
names through which the package looks them up, with wrappers that open a
span around each call. Nothing inside `src/subner` is changed: `traced()`
puts every original back when it exits.

Self time of a span is its duration minus the time its child spans cover.
Calls are strictly nested on one thread, so the children of a span are
disjoint and the covered time is the sum of their durations; the self
times of all spans opened under a root therefore add up to the root's
duration.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager


class Tracer:
    """Aggregates calls, self time and counters per span name in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, seconds covered by children]

    def start(self, name: str):
        self._stack.append([name, self.clock(), 0.0])

    def stop(self) -> float:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        return duration

    @contextmanager
    def span(self, name: str):
        self.start(name)
        try:
            yield
        finally:
            self.stop()

    def count(self, name: str, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def wrap(self, fn, name: str, counter=None):
        """`fn` inside a span called `name`; `counter(tracer, args, result)`
        records the call's counts after the span closes."""
        def wrapper(*args, **kwargs):
            self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stop()
            if counter is not None:
                counter(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# ---------------------------------------------------------------------------
# What the traced run wraps


def _count_positions(name):
    def counter(tracer, args, result):
        tracer.count(name, len(args[0]))
    return counter


def _count_embedding_out(tracer, args, result):
    tracer.count("nn.embedding_backward.out_bytes", result.nbytes)


def _count_rmsprop_params(tracer, args, result):
    params, grads = args[0], args[1]
    tracer.count("nn.rmsprop_step.param_bytes",
                 sum(params[name].nbytes for name in grads))


def _count_padded_batch(tracer, args, result):
    tracer.count("alignment.real_positions", float(result.mask.sum()))
    tracer.count("alignment.padded_positions", result.mask.size)
    tracer.count("alignment.truncated_rows", result.truncated_rows)


def _count_segment(tracer, args, result):
    tracer.count("tokenizers.segment_sentence.words", len(args[0]))
    tracer.count("tokenizers.segment_sentence.subtokens", len(result.ids))


def _count_checkpoint_bytes(tracer, args, result):
    tracer.count("taggers.load_checkpoint.bytes", os.path.getsize(args[0]))


NN_FUNCTIONS = (
    "embedding_forward", "embedding_backward",
    "conv1d_forward", "conv1d_backward",
    "lstm_forward", "lstm_backward",
    "dense_forward", "dense_backward",
    "masked_softmax_ce", "rmsprop_step",
)
SEQUENCE_LAYERS = ("embedding_forward", "conv1d_forward", "lstm_forward",
                   "dense_forward")
TAGGERS_FUNCTIONS = ("train", "forward", "backward", "predict_sentence",
                     "save_checkpoint", "load_checkpoint")
METRICS_FUNCTIONS = ("evaluate", "token_confusion", "span_metrics",
                     "fertility_stats")


def span_names() -> list[str]:
    """Every span the traced run can record, as `<layer>.<function>`."""
    return ([f"nn.{f}" for f in NN_FUNCTIONS]
            + ["alignment.make_padded_batch", "alignment.club_labels",
               "alignment.propagate_labels", "tokenizers.segment_sentence"]
            + [f"taggers.{f}" for f in TAGGERS_FUNCTIONS]
            + [f"metrics.{f}" for f in METRICS_FUNCTIONS]
            + ["corpus.generate_synthetic"])


def wrap_targets():
    """(module, attribute, span name, counter) for every wrapped lookup site.

    A function imported by name into another module is wrapped where that
    module looks it up; `train` imports `propagate_labels` from
    `alignment` at call time, so that site is wrapped as well.
    """
    from subner import alignment, corpus, metrics, nn, taggers, tokenizers

    counters = {f"nn.{f}": _count_positions(f"nn.{f}.positions")
                for f in SEQUENCE_LAYERS}
    counters.update({
        "nn.embedding_backward": _count_embedding_out,
        "nn.rmsprop_step": _count_rmsprop_params,
        "alignment.make_padded_batch": _count_padded_batch,
        "tokenizers.segment_sentence": _count_segment,
        "taggers.load_checkpoint": _count_checkpoint_bytes,
    })
    sites = [(nn, f, f"nn.{f}") for f in NN_FUNCTIONS]
    sites += [
        (taggers, "make_padded_batch", "alignment.make_padded_batch"),
        (taggers, "club_labels", "alignment.club_labels"),
        (metrics, "propagate_labels", "alignment.propagate_labels"),
        (alignment, "propagate_labels", "alignment.propagate_labels"),
        (tokenizers, "segment_sentence", "tokenizers.segment_sentence"),
    ]
    sites += [(taggers, f, f"taggers.{f}") for f in TAGGERS_FUNCTIONS]
    sites += [(metrics, f, f"metrics.{f}") for f in METRICS_FUNCTIONS]
    sites += [
        (taggers, "token_confusion", "metrics.token_confusion"),
        (corpus, "generate_synthetic", "corpus.generate_synthetic"),
    ]
    return [(module, attr, name, counters.get(name))
            for module, attr, name in sites]


@contextmanager
def traced(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, name, counter in wrap_targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
