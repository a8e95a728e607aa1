"""Benchmark for the subner package.

    python3 bench/run.py --workload train-cnn --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Inputs are seeded synthetic stand-ins generated from `--seed` (the
MahaNER splits and the MahaBERT vocab are not in the repository); the
program only receives the generated corpora, vocab and checkpoint.

Why each workload exists:

- train-cnn: `taggers.train` for a CNN at E=300, F=512, K=3, max_len=128,
  batch 16, over WordPiece with a ~30k-entry vocab. The CNN is the only
  architecture near the extended run's time budget, and a pretrained-size
  embedding table makes table-sized work (dense embedding gradients,
  RMSProp over the whole table, per-row gradient accumulation in `train`)
  dominate; the 60-token vocab of the acceptance tests would hide that.
- train-bilstm: `taggers.train` for a BiLSTM at H=512 per direction,
  max_len=128, with the word-level tokenizer (the paper's baseline branch).
  The recurrence does nearly all of the work and the table has a few
  thousand rows, so it bypasses the embedding path that train-cnn stresses.
- tag-eval: inference with a seeded, untrained CNN checkpoint at paper sizes
  and the same 30k WordPiece vocab: `load_checkpoint` in set-up, then
  `predict_sentence` per held-out sentence, `evaluate` (majority clubbing,
  bio spans) and `fertility_stats`. Layers run forward only, unpadded, so
  segmentation, clubbing and scoring carry a real share of the time.

Set-up runs once before the timed phase. The timed phase then runs rounds
that repeat the same units of work for about `--seconds`, sets up again
before a unit of training, prediction or evaluation while set-ups take
less than `workloads.SETUP_SHARE` of the run, and keeps each unit's and
each set-up stage's fastest time (see `workloads.BestTimes` and README.md
for why). Every operation's output is checked; the last line
printed is the result object (`correct`, `attempted`, `failed`, `metrics`),
the line before it a report with the host record, the input digest, the
latency sample count and any failure reasons.

`--trace 0` reports the end-to-end metrics:
- setup_s: corpus and vocab generation, segmenter and model construction,
  and on tag-eval the checkpoint save and timed load: the sum of each
  stage's fastest time over the run's set-ups.
- sents_per_s: train-*: sentences x epochs through `train` per second;
  tag-eval: sentences through `evaluate` per second.
- predict_ms_p50, predict_ms_tail: `predict_sentence` latency per held-out
  sentence; the tail is the highest of p50/p90/p95/p99 with at least 10
  samples beyond it (p90 of 100 sentences on train-*, p99 of 1000 on
  tag-eval).
- segment_words_per_s: words per second of `fertility_stats` over held-out
  sentences (WordPiece on train-cnn and tag-eval, word-level on
  train-bilstm).
- peak_rss_mb: peak resident set size of this process.
The share of failed operations is `failed / attempted` in the result.

`--trace 1` repeats the workload with every public layer function wrapped
(see `tracer.py`) and reports per-layer calls, self time and counts instead.
Tracing overhead is the difference between `sents_per_s` untraced and
`bench.sents_per_s` traced on the same seed (`bench/overhead.py`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import tracer as tracing  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("sents_per_s", "1/s"),
    ("predict_ms_p50", "ms"),
    ("predict_ms_tail", "ms"),
    ("segment_words_per_s", "words/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    spec = []
    for name in tracing.span_names():
        spec += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.self_s", "s", "lower")]
    spec += [(f"nn.{f}.positions", "count", "lower")
             for f in tracing.SEQUENCE_LAYERS]
    spec += [
        ("nn.embedding_backward.out_bytes", "bytes", "lower"),
        ("nn.rmsprop_step.param_bytes", "bytes", "lower"),
        ("alignment.pad_ratio", "ratio", "higher"),
        ("alignment.truncated_rows", "count", "lower"),
        ("tokenizers.segment_sentence.words", "count", "lower"),
        ("tokenizers.segment_sentence.subtokens", "count", "lower"),
        ("taggers.load_checkpoint.bytes", "bytes", "lower"),
        ("bench.setup.self_s", "s", "lower"),
        ("bench.timed.self_s", "s", "lower"),
        ("bench.timed_wall_s", "s", "lower"),
        ("bench.sents_per_s", "1/s", "higher"),
    ]
    return spec


def layer_values(tracer, timed_wall, sents_per_s) -> dict:
    """Per-layer values from a finished traced run, keyed by metric name."""
    values = {}
    for name in tracing.span_names() + ["bench.setup", "bench.timed"]:
        values[f"{name}.calls"] = tracer.calls.get(name, 0)
        values[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    values.update(tracer.counts)
    real = tracer.counts.get("alignment.real_positions", 0)
    padded = tracer.counts.get("alignment.padded_positions", 0)
    # real positions over padded positions; 0 when nothing was padded
    values["alignment.pad_ratio"] = real / padded if padded else 0.0
    values["bench.timed_wall_s"] = timed_wall
    values["bench.sents_per_s"] = sents_per_s
    return values


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_record(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: on a 2-core host shared with other machines, two
    # threads made the LSTM's per-step products faster but far less steady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import subner
    except ImportError as exc:
        print(f"cannot import subner from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(subner.__file__).resolve().parents:
        print(f"subner was imported from {subner.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tally = workloads.Tally()
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir, \
            (tracing.traced(tracer) if tracer else nullcontext()):

        def build(lap):
            with tracer.span("bench.setup") if tracer else nullcontext():
                return workloads.setup(args.workload, args.seed, Path(workdir),
                                       tally, lap)

        setups = workloads.Setups(build)
        state = setups.renew()
        spans_before = tracer.total_self_s() if tracer else 0.0
        t0 = time.perf_counter()
        if tracer:
            tracer.start("bench.timed")
        timing = workloads.run_timed(args.workload, setups, args.seconds, tally)
        timed_wall = tracer.stop() if tracer else time.perf_counter() - t0
    summary = workloads.summarize(timing)

    correct = tally.failed == 0
    report = {
        "workload": args.workload,
        "host": host_record(args.seed),
        "inputs_sha256": workloads.input_fingerprint(state),
        "predict_samples": summary["predict_samples"],
        "repeats": summary["repeats"],
        "setups": setups.count,
        "setup_stages_s": setups.stages.best,
        "tail_percentile": summary["tail_percentile"],
        "failed_ratio": tally.failed / tally.attempted,
        "failures": tally.reasons,
    }
    if tracer:
        span_sum = tracer.total_self_s() - spans_before
        report["timed_span_self_sum_s"] = span_sum
        if abs(span_sum - timed_wall) > 1e-6 * max(1.0, timed_wall):
            correct = False
            report["failures"].append(
                f"timed spans' self times sum to {span_sum} s, "
                f"timed phase took {timed_wall} s")
        values = layer_values(tracer, timed_wall, summary["sents_per_s"])
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit, _ in per_layer_spec()}
    else:
        values = dict(summary)
        values["setup_s"] = setups.seconds()
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
