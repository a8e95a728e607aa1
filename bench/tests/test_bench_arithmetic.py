"""Tests for the benchmark's own bookkeeping: span self time, the tail
percentile rule, restoring wrapped functions, seeded inputs, and the metric
names declared in BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 9001


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.start("root")          # 0
    clock.now = 1.0
    tracer.start("a")             # 1
    clock.now = 2.0
    tracer.start("b")             # 2
    clock.now = 5.0
    tracer.stop()                 # b: 3
    clock.now = 6.0
    tracer.stop()                 # a: 5, of which b covers 3
    tracer.start("b")             # 6
    clock.now = 8.0
    tracer.stop()                 # b: 2
    clock.now = 10.0
    root = tracer.stop()          # root: 10, a and b cover 7

    assert root == 10.0
    assert tracer.self_s == {"b": 5.0, "a": 2.0, "root": 3.0}
    assert tracer.calls == {"b": 2, "a": 1, "root": 1}
    assert tracer.total_self_s() == root


def test_wrapped_call_records_span_and_counts_even_when_it_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def work(n):
        clock.now += n
        if n < 0:
            raise ValueError("negative")
        return [0] * n

    wrapped = tracer.wrap(work, "w", lambda t, args, out: t.count("w.n", len(out)))
    assert wrapped(3) == [0, 0, 0]
    with pytest.raises(ValueError):
        wrapped(-1)
    assert tracer.calls == {"w": 2}
    assert tracer.self_s == {"w": 2.0}
    assert tracer.counts == {"w.n": 3}


@pytest.mark.parametrize("n, percentile", [
    (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (50000, 99.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile):
    samples = list(range(n, 0, -1))  # order must not matter
    p, value, count = workloads.tail_percentile(samples)
    assert (p, count) == (percentile, n)
    assert sum(x > value for x in samples) >= 10
    rank = sorted(samples).index(value) + 1
    assert rank >= p / 100 * n


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        workloads.tail_percentile(list(range(19)))


def test_best_times_keep_each_units_fastest_time():
    best = workloads.BestTimes()
    best.add("a", 10, 2.0)
    best.add("b", 30, 1.0)
    best.add("a", 10, 0.5)
    best.add("a", 10, 4.0)
    assert best.rate() == 40 / 1.5
    assert sorted(best.milliseconds()) == [500.0, 1000.0]
    assert best.visits == {"a": 3, "b": 1}


def test_by_length_takes_evenly_spaced_length_ranks_in_corpus_order():
    sentences = [[0] * n for n in (5, 3, 9, 1, 7, 2, 8, 4)]
    picked = workloads.by_length(sentences, 4)
    assert [len(s) for s in picked] == [9, 7, 2, 4]
    positions = [next(i for i, s in enumerate(sentences) if s is p)
                 for p in picked]
    assert positions == sorted(positions)
    assert workloads.by_length(sentences, 8) == sentences


def test_traced_run_restores_every_wrapped_attribute():
    targets = tracing.wrap_targets()
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in targets]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            for module, attr, original in originals:
                assert getattr(module, attr).__wrapped__ is original
            raise RuntimeError("stop inside the traced block")
    for module, attr, original in originals:
        assert getattr(module, attr) is original
        assert not hasattr(original, "__wrapped__")
    names = {name for _, _, name, _ in targets}
    assert names == set(tracing.span_names())


def test_setup_time_is_the_sum_of_each_stages_fastest_time():
    clock = FakeClock()
    durations = iter([(1.0, 5.0), (3.0, 2.0)])

    def build(lap):
        if setups.state is not None:  # released before building again
            assert set(vars(setups.state).values()) == {None}
        for stage, seconds in zip(("a", "b"), next(durations)):
            clock.now += seconds
            lap(stage)
        return workloads.State({}, setups.count, None, None, setups.count)

    setups = workloads.Setups(build, clock)
    state = setups.renew()            # 6 s of set-up
    clock.now = 6.0 / workloads.SETUP_SHARE - 0.5
    setups.refresh()
    assert setups.count == 1
    clock.now += 1.0
    setups.refresh()
    assert setups.count == 2
    assert setups.state is state and state.labels == 1   # renewed in place
    assert setups.spent == 11.0
    assert setups.seconds() == 3.0    # a at 1 s, b at 2 s
    assert not setups.due()


def test_seed_changes_the_generated_inputs(tmp_path):
    def digest(seed):
        state = workloads.setup("train-bilstm", seed, tmp_path,
                                workloads.Tally())
        return workloads.input_fingerprint(state)

    assert digest(1) == digest(1)
    assert digest(1) != digest(HELD_OUT_SEED)


def test_benchmark_json_matches_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_spec()
