"""Tests for the benchmark's own logic.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import numpy as np
import pytest

import loadgen
from checks import Ledger, identical, rows_sum_to_one
from layers import PER_LAYER
from measure import nearest_rank, peak_rss_mb, reset_peak_rss, summarize, tail_percentile
from tracer import Span, Tracer, self_times, totals
from workloads import END_TO_END, FIT_GRAPHS, WORKLOADS, graph_seeds

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """Advances only when told to, plus a tick per read so spin loops end."""

    def __init__(self, tick: float = 1e-6) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Percentile / sample-count helper
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (200, 95.0), (999, 98.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_summary_reports_median_tail_and_count():
    samples = list(range(1, 101))          # 1..100
    summary = summarize(samples)
    assert summary["n"] == 100
    assert summary["median"] == 50.5
    assert summary["tail_percentile"] == 90.0
    assert summary["tail"] == 90            # nearest rank: 90 of 100
    assert sum(sample > summary["tail"] for sample in samples) == 10


def test_summary_without_enough_samples_has_no_tail():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary["median"] == 2.0 and summary["tail"] is None


def test_nearest_rank():
    assert nearest_rank([1, 2, 3, 4], 50) == 2
    assert nearest_rank([1, 2, 3, 4], 100) == 4


def test_reset_peak_rss_forgets_an_earlier_peak():
    block = np.ones(64 * 2**20, dtype=np.uint8)  # 64 MiB, touched
    high = peak_rss_mb()
    del block
    reset_peak_rss()
    assert peak_rss_mb() < high - 32


# ----------------------------------------------------------------------
# Self time from nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    clock = FakeClock(tick=0.0)
    tracer = Tracer(clock=clock)
    with tracer.span("fit"):
        clock.advance(1.0)
        with tracer.span("search"):
            clock.advance(2.0)
            with tracer.span("train"):
                clock.advance(3.0)
        with tracer.span("train"):
            clock.advance(4.0)
    own = self_times(tracer.spans)
    assert own == pytest.approx({"fit": 1.0, "search": 2.0, "train": 7.0})
    assert totals(tracer.spans)["fit"] == pytest.approx(10.0)
    parents = {span.name: span.parent for span in tracer.spans if span.name != "train"}
    fit_id = next(span.span_id for span in tracer.spans if span.name == "fit")
    assert parents == {"fit": None, "search": fit_id}


def test_self_time_counts_overlapping_children_once():
    # Children on two threads may overlap; their union is what the parent
    # did not spend itself.
    spans = [Span("parent", 0.0, 10.0, 1, None, None),
             Span("a", 1.0, 4.0, 2, 1, None),
             Span("b", 3.0, 6.0, 3, 1, None),
             Span("late", 9.0, 12.0, 4, 1, None)]
    assert self_times(spans)["parent"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_patch_wraps_and_restores_methods():
    class Layer:
        def work(self, value):
            return value + 1

        @classmethod
        def build(cls, value):
            return cls, value

    original_work = Layer.__dict__["work"]
    original_build = Layer.__dict__["build"]
    seen = []
    tracer = Tracer()
    tracer.patch(Layer, "work", "layer.work", lambda span, result, args: seen.append(result))
    tracer.patch(Layer, "build", "layer.build")
    assert Layer().work(1) == 2 and seen == [2]
    assert Layer.build(5) == (Layer, 5)
    assert [span.name for span in tracer.spans] == ["layer.work", "layer.build"]
    tracer.restore()
    assert Layer.__dict__["work"] is original_work
    assert Layer.__dict__["build"] is original_build


# ----------------------------------------------------------------------
# Open-loop due-time accounting
# ----------------------------------------------------------------------
def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()
    durations = {0: 0.3}                  # the first request stalls 3 intervals

    def request(index):
        clock.advance(durations.get(index, 0.0))

    result = loadgen.open_loop(request, rate=10.0, count=6, clock=clock,
                               sleep=clock.advance)
    latencies = np.array(result.latencies)
    # Requests 1 and 2 were due at 0.1 and 0.2 but waited behind request 0.
    assert latencies[:4] == pytest.approx([0.3, 0.2, 0.1, 0.0], abs=1e-3)
    assert latencies[4:] == pytest.approx([0.0, 0.0], abs=1e-3)
    # Waiting behind a busy server is latency, not generator lateness.
    assert max(result.late) < 1e-3


def test_open_loop_reports_generator_overshoot_as_late():
    clock = FakeClock()
    oversleep = 0.005

    def sleep(seconds):
        clock.advance(seconds + oversleep)

    result = loadgen.open_loop(lambda index: clock.advance(0.001), rate=10.0, count=5,
                               clock=clock, sleep=sleep)
    late = np.array(result.late[1:])
    assert late == pytest.approx(oversleep - loadgen.SPIN_SECONDS, abs=1e-4)
    # Latency still counts from the due time, so the overshoot is visible there.
    assert np.array(result.latencies[1:]) == pytest.approx(late + 0.001, abs=1e-4)


def test_closed_loop_counts_requests_per_second():
    clock = FakeClock(tick=0.0)
    result = loadgen.closed_loop(lambda index: clock.advance(0.01), seconds=1.0,
                                 clock=clock)
    assert len(result.latencies) == 100
    assert result.throughput == pytest.approx(100.0)


# ----------------------------------------------------------------------
# Parity checks
# ----------------------------------------------------------------------
def test_perturbed_probabilities_trip_the_parity_check():
    rng = np.random.default_rng(0)
    probabilities = rng.random((50, 4))
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    perturbed = probabilities.copy()
    perturbed[17, 2] = np.nextafter(perturbed[17, 2], 1.0)
    ledger = Ledger()
    assert ledger.check("same", identical(probabilities, probabilities.copy()))
    assert not ledger.check("perturbed", identical(probabilities, perturbed))
    assert ledger.attempted == 2 and ledger.failed == 1 and not ledger.correct
    assert not identical(probabilities, probabilities.astype(np.float32))


def test_rows_sum_to_one():
    probabilities = np.full((3, 4), 0.25)
    assert rows_sum_to_one(probabilities)
    probabilities[1, 0] += 1e-6
    assert not rows_sum_to_one(probabilities)
    assert not rows_sum_to_one(np.array([[1.5, -0.5]]))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_fit_workloads_draw_distinct_graphs_from_the_seed():
    for workload in ("fit-dense", "fit-hetero"):
        seeds = graph_seeds(workload, 7)
        assert seeds == graph_seeds(workload, 7)
        assert len(set(seeds)) == len(seeds) == FIT_GRAPHS
        assert all(0 <= seed < 2**31 for seed in seeds)
        assert not set(seeds) & set(graph_seeds(workload, 8))
    assert graph_seeds("serve", 7) == [7]


# ----------------------------------------------------------------------
# BENCHMARK.json mirrors the metric tables
# ----------------------------------------------------------------------
def test_benchmark_json_mirrors_the_metric_tables():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in BENCHMARK["end_to_end"]] == END_TO_END
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in BENCHMARK["per_layer"]] == [row[:3] for row in PER_LAYER]
