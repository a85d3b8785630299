"""The three workloads: inputs, program settings and the measured lifecycle.

``fit-dense``  ``AutoHEnsGNN.fit`` on dense homogeneous kddcup-D analogues:
               adaptive search, serial backend, capture on.
``fit-hetero`` fits on 8-relation typed SBMs: gradient search, process
               backend with a shared-memory graph and a drop policy.
``serve``      fit once in set-up (pool pinned), then cold load, batch score,
               process-sharded score and a streaming read/write mix, closed
               loop and open loop.

Every workload also saves, cold-loads and batch-scores its own fitted
ensemble, so ``load_ms`` and ``score_ms`` exist on all three.  The seed
selects the generated graphs and request stream; the program's own seed is
fixed.  A fit workload fits :data:`FIT_GRAPHS` graphs drawn from the seed and
reports medians over all of them.  The pool and depths the search picks, and
so the cost of a fit, differ between graphs: on ``fit-dense`` about one graph
in nine gets no GAT and fits in under half the time, and about one in twelve
gets a two-layer GAT and takes half as long again.  With a single graph per
run the figures would follow the seed instead of the program.  For the same
reason ``peak_rss_mb`` on a fit workload is the median over fits of the
process's peak RSS during each fit, not the peak of the whole run.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import loadgen
from checks import Ledger, identical, rows_sum_to_one
from layers import LayerProbe
from measure import nearest_rank, peak_rss_mb, reset_peak_rss, summarize, uss_mb, worker_pids
from tracer import Tracer, self_times

WORKLOADS = ("fit-dense", "fit-hetero", "serve")

#: (name, unit, better) of every end-to-end metric; ``BENCHMARK.json`` mirrors it.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("fit_s", "s", "lower"),
    ("test_acc", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("load_ms", "ms", "lower"),
    ("score_ms", "ms", "lower"),
]

DENSE_CANDIDATES = ["gcn", "gat", "tagcn", "sgc", "appnp", "graphsage-mean", "mlp"]
HETERO_CANDIDATES = ["rgcn", "rgcn-basis", "rgat", "gcn", "gat"]
SERVE_POOL = ["gat", "gcn", "appnp"]

#: Set-up is repeated this many times, each in a fresh process, and the
#: repeats are spread over the run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Open-loop arrival rate (requests/s), frozen at about a third of the
#: closed-loop capacity measured when the benchmark was defined.
OPEN_LOOP_RATE = 45.0
#: One request in this many is preceded by a write.
WRITE_EVERY = 4
#: Nodes read per streaming query.
QUERY_NODES = 8
#: Shares of ``--seconds`` given to each serve phase, and the number of
#: interleaved rounds they are split into.
SERVE_SHARES = {"load": 0.1, "score": 0.1, "shard": 0.2, "closed": 0.2, "open": 0.4}
SERVE_ROUNDS = 4
#: Cold loads and batch scores taken after each fit on the fit workloads.
FIT_SERVE_SAMPLES = 10
#: Distinct graphs a fit workload generates from its seed; every one is
#: fitted at least once in the timed part of a run.
FIT_GRAPHS = 5


# ----------------------------------------------------------------------
# Inputs and program settings
# ----------------------------------------------------------------------
def graph_seeds(workload: str, seed: int) -> List[int]:
    """Generator seeds of the run's graphs: the seed itself on ``serve``, and
    :data:`FIT_GRAPHS` independent draws from it on the fit workloads."""
    if workload == "serve":
        return [seed]
    return [int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % 2**31)
            for index in range(FIT_GRAPHS)]


def make_inputs(workload: str, seed: int) -> list:
    """Every graph one run of ``workload`` uses, generated from ``seed``."""
    return [make_graph(workload, graph_seed) for graph_seed in graph_seeds(workload, seed)]


def make_graph(workload: str, seed: int):
    from repro import load_dataset

    if workload == "fit-dense":
        return load_dataset("kddcup-D", scale=0.5, seed=seed)
    if workload == "serve":
        return load_dataset("kddcup-A", scale=1.0, seed=seed)
    graph = load_dataset("sbm-hetero", num_nodes=1500, num_relations=8,
                         num_node_types=2, feature_informativeness=0.3, seed=seed)
    return hide_test_labels(graph, test_fraction=0.3, seed=seed)


def hide_test_labels(graph, test_fraction: float, seed: int):
    """Hold out a test set and hide its labels, as the challenge data does."""
    from repro.graph.splits import holdout_test_split

    graph = holdout_test_split(graph, test_fraction=test_fraction, seed=seed)
    hidden = graph.labels.copy()
    graph.labels = hidden.copy()
    graph.labels[graph.test_mask] = -1
    graph.metadata["hidden_labels"] = hidden
    return graph


def make_config(workload: str):
    from repro import AutoHEnsGNNConfig, ResiliencePolicy
    from repro.core.config import ProxyConfig, SearchMethod
    from repro.tasks.trainer import TrainConfig

    common = dict(pool_size=3, bagging_splits=1, hidden=32, seed=0,
                  proxy=ProxyConfig(bagging_rounds=2, max_epochs=20))
    if workload == "fit-dense":
        config = AutoHEnsGNNConfig(candidate_models=DENSE_CANDIDATES, ensemble_size=3,
                                   max_layers=3, search_epochs=10, backend="serial",
                                   capture=True, **common)
    elif workload == "fit-hetero":
        config = AutoHEnsGNNConfig(candidate_models=HETERO_CANDIDATES, ensemble_size=2,
                                   max_layers=2, search_epochs=10,
                                   search_method=SearchMethod.GRADIENT,
                                   backend="process", max_workers=2, shared_graph=True,
                                   resilience=ResiliencePolicy(on_failure="drop"),
                                   **common)
    else:
        # Depth pinned to 1 like the pool, and no early stopping, so the
        # served model and every cost of fitting and serving it do not
        # change with the seed.
        config = AutoHEnsGNNConfig(ensemble_size=3, max_layers=1, search_epochs=10,
                                   **common)
        config.train = TrainConfig(lr=0.02, max_epochs=30, patience=30)
        return config
    config.train = TrainConfig(lr=0.02, max_epochs=30, patience=10)
    return config


def fit(workload: str, graph):
    from repro import AutoHEnsGNN

    pool = SERVE_POOL if workload == "serve" else None
    return AutoHEnsGNN(make_config(workload)).fit(graph, pool=pool)


def test_accuracy(probabilities: np.ndarray, graph) -> float:
    labels = np.asarray(graph.metadata["hidden_labels"])
    test = graph.mask_indices("test")
    return float((probabilities[test].argmax(axis=1) == labels[test]).mean())


# ----------------------------------------------------------------------
# Set-up, repeated in fresh processes
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int, outdir: Path) -> dict:
    """One ``setup_probe.py`` process: its set-up timings (and artifact)."""
    probe = Path(__file__).with_name("setup_probe.py")
    completed = subprocess.run(
        [sys.executable, str(probe), workload, str(seed), str(outdir)],
        capture_output=True, text=True, timeout=150)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one run measured, checked and traced."""

    ledger: Ledger = field(default_factory=Ledger)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, dict] = field(default_factory=dict)
    facts: Dict[str, object] = field(default_factory=dict)
    self_times: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    def timing(self, name: str, samples: List[float], scale: float = 1.0) -> float:
        """Record a timing summary (in the metric's unit); return its median."""
        summary = summarize([sample * scale for sample in samples])
        self.timings[name] = summary
        return float(summary["median"])


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.trace = trace
        self.workdir = workdir
        self.out = Outcome()
        self.ledger = self.out.ledger
        self.tracer = Tracer() if trace else None
        self.probe = LayerProbe(self.tracer) if trace else None
        self.setups: List[dict] = []
        #: Whether the layer wrappers are installed right now.
        self.tracing = False

    def next_setup(self) -> None:
        """Run one more set-up repeat, if any are left.  Called between timed
        phases, so the repeats sample the whole run."""
        if len(self.setups) < SETUP_REPEATS:
            outdir = self.workdir / f"setup{len(self.setups)}"
            self.setups.append(setup_probe(self.workload, self.seed, outdir))

    # -- tracing window -------------------------------------------------
    def traced(self, body: Callable[[], object]):
        """Run ``body`` with the layer wrappers installed."""
        self.probe.install()
        self.probe.begin()
        self.tracing = True
        try:
            return body()
        finally:
            self.tracing = False
            self.tracer.restore()

    def span(self, name: str):
        from contextlib import nullcontext
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    # -- entry ----------------------------------------------------------
    def execute(self) -> Outcome:
        self.next_setup()
        with self.span("datasets.load"):
            graphs = make_inputs(self.workload, self.seed)
        self.out.facts["nodes"] = [int(graph.num_nodes) for graph in graphs]
        if self.workload == "serve":
            self.serve(graphs[0])
        else:
            self.fit_workload(graphs)
        while len(self.setups) < SETUP_REPEATS:
            self.next_setup()
        self.out.end_to_end["setup_s"] = self.out.timing(
            "setup_s", [result["setup_s"] for result in self.setups])
        if self.workload == "serve":
            self.out.end_to_end["fit_s"] = self.out.timing(
                "fit_s", [result["fit_s"] for result in self.setups])
            self.out.end_to_end["peak_rss_mb"] = peak_rss_mb()
        if self.tracer is not None:
            self.out.self_times = self_times(self.tracer.spans)
            self.out.tracer = self.tracer
        return self.out

    # -- fit workloads --------------------------------------------------
    def one_fit(self, graph, reference: Optional[np.ndarray]):
        """Fit ``graph``: the fitted ensemble, the fit's wall time and the
        process's peak RSS during the fit."""
        self.ledger.attempted += 1
        reset_peak_rss()
        start = time.perf_counter()
        try:
            fitted = fit(self.workload, graph)
        except Exception as error:  # a fit that raises is a failed operation
            self.ledger.record_failure("fit raised", repr(error))
            raise
        elapsed = time.perf_counter() - start
        peak = peak_rss_mb()
        report = fitted.fit_report
        failures = report.details.get("failures") or []
        # Tasks the drop policy gave up on: each an attempted, failed operation.
        for failure in failures:
            self.ledger.attempted += 1
            self.ledger.record_failure("pipeline failure", str(failure))
        if reference is not None:
            self.ledger.check("fit is bit-identical at one seed",
                              identical(report.probabilities, reference))
        return fitted, elapsed, peak

    def fit_workload(self, graphs) -> None:
        # The first fit is the warm-up: caches fill and lazy set-up finishes
        # before anything is timed.  The first fit of each graph is that
        # graph's reference; every later fit of it must match bit for bit.
        warmup_fit, warmup, _ = self.one_fit(graphs[0], None)
        references: Dict[int, np.ndarray] = {}
        self.add_reference(references, 0, warmup_fit, graphs[0])
        self.out.facts["warmup_fit_s"] = warmup
        # Serving samples are taken after every fit, so they spread over the run.
        samples: Dict[str, List[float]] = {"fit_s": [], "peak_rss_mb": [],
                                           "load_ms": [], "score_ms": []}
        if self.trace:
            graph, reference = graphs[0], references[0]
            self.serve_own_artifact(warmup_fit, graph, reference, samples)
            fitted, untraced, peak = self.one_fit(graph, reference)
            traced_samples: Dict[str, List[float]] = {"load_ms": [], "score_ms": []}

            def traced_fit_and_serve():
                self.set_trace_id("fit")
                fitted, elapsed, _ = self.one_fit(graph, reference)
                self.serve_own_artifact(fitted, graph, reference, traced_samples)
                return elapsed

            traced = self.traced(traced_fit_and_serve)
            samples["fit_s"].append(untraced)
            samples["peak_rss_mb"].append(peak)
            self.out.per_layer = self.probe.metrics({
                **zero_serving_extras(), "trace.overhead_ratio": traced / untraced})
        else:
            # Graph 1, 2, ..., 0, 1, ...: every graph once (graph 0 against its
            # warm-up fit), then on until ``seconds`` is used.
            window = time.perf_counter()
            count = 0
            while count < len(graphs) or time.perf_counter() - window < self.seconds:
                count += 1
                index = count % len(graphs)
                fitted, elapsed, peak = self.one_fit(graphs[index], references.get(index))
                samples["fit_s"].append(elapsed)
                samples["peak_rss_mb"].append(peak)
                if index not in references:
                    self.add_reference(references, index, fitted, graphs[index])
                self.serve_own_artifact(fitted, graphs[index], references[index], samples)
                self.next_setup()
        self.out.end_to_end["test_acc"] = statistics.median(
            fit["test_acc"] for fit in self.out.facts["fits"])
        for name in ("fit_s", "peak_rss_mb"):
            self.out.end_to_end[name] = self.out.timing(name, samples[name])
        for name in ("load_ms", "score_ms"):
            self.out.end_to_end[name] = self.out.timing(name, samples[name], 1e3)

    def add_reference(self, references: Dict[int, np.ndarray], index: int, fitted,
                      graph) -> None:
        """Keep a graph's first fit as its reference, check it and note what
        the search chose for it."""
        report = fitted.fit_report
        references[index] = report.probabilities
        self.ledger.check("probability rows sum to 1", rows_sum_to_one(report.probabilities))
        self.out.facts.setdefault("fits", []).append({
            "graph": index, "pool": list(report.pool),
            "chosen_layers": {name: np.asarray(depth).tolist()
                              for name, depth in report.chosen_layers.items()},
            "test_acc": test_accuracy(report.probabilities, graph)})

    def serve_own_artifact(self, fitted, graph, reference,
                           samples: Dict[str, List[float]]) -> None:
        """Save, cold-load and batch-score the fitted ensemble."""
        from repro.serve import BatchScorer

        path = fitted.save(str(self.workdir / "artifact"))
        ensemble = self.sample_loads(path, graph, reference, samples["load_ms"],
                                     count=FIT_SERVE_SAMPLES)
        self.sample_scores(BatchScorer(ensemble), graph, reference, samples["score_ms"],
                           count=FIT_SERVE_SAMPLES)

    # -- serving pieces -------------------------------------------------
    def clear_cache(self) -> None:
        from repro.parallel.cache import compute_cache

        if self.tracing:
            self.probe.clear_cache()
        else:
            compute_cache().clear()

    def sample_loads(self, path: str, graph, reference, samples: List[float],
                     count: int = 0, seconds: float = 0.0):
        """Cold ``FittedEnsemble.load`` with an empty ComputeCache, repeated."""
        from repro.core.artifact import FittedEnsemble

        ensemble = FittedEnsemble.load(path)  # warm-up: file cache, imports
        self.ledger.attempted += 1
        self.ledger.check("loaded probabilities equal fit-time probabilities",
                          identical(ensemble.predict_proba(graph), reference))
        taken = 0
        window = time.perf_counter()
        while taken < count or time.perf_counter() - window < seconds:
            self.clear_cache()
            self.set_trace_id(f"load-{len(samples)}")
            start = time.perf_counter()
            ensemble = FittedEnsemble.load(path)
            samples.append(time.perf_counter() - start)
            self.ledger.attempted += 1
            taken += 1
        return ensemble

    def sample_scores(self, scorer, graph, reference, samples: List[float],
                      count: int = 0, seconds: float = 0.0) -> None:
        """Full-graph ``BatchScorer.score``, each result checked against the fit."""
        name = "sharded" if scorer.sharded else "batch"
        self.ledger.check(f"{name} scores equal fit-time probabilities",
                          identical(scorer.score(graph).probabilities, reference))
        taken = 0
        window = time.perf_counter()
        while taken < count or time.perf_counter() - window < seconds:
            self.set_trace_id(f"{name}-{len(samples)}")
            start = time.perf_counter()
            result = scorer.score(graph)
            samples.append(time.perf_counter() - start)
            self.ledger.attempted += 1
            taken += 1
            if not identical(result.probabilities, reference):
                self.ledger.record_failure(f"{name} score parity", "")

    # -- serve workload -------------------------------------------------
    def serve(self, graph) -> None:
        path = self.setups[0]["artifact"]
        reference = np.load(Path(path).parent / "probabilities.npy")
        self.ledger.check("probability rows sum to 1", rows_sum_to_one(reference))
        if not self.trace:
            samples = self.serve_lifecycle(path, graph, reference, self.seconds,
                                           SERVE_ROUNDS)["samples"]
            for name in ("load_ms", "score_ms"):
                self.out.end_to_end[name] = self.out.timing(name, samples[name], 1e3)
            self.check_setup_fits(reference)
            return
        rounds = max(SERVE_ROUNDS // 2, 1)
        untraced = self.serve_lifecycle(path, graph, reference, self.seconds / 2, rounds)
        traced = self.traced(lambda: self.serve_lifecycle(path, graph, reference,
                                                          self.seconds / 2, rounds))
        extras = traced["extras"]
        extras["trace.overhead_ratio"] = untraced["closed_rps"] / traced["closed_rps"]
        self.out.per_layer = self.probe.metrics(extras)
        self.check_setup_fits(reference)

    def check_setup_fits(self, reference) -> None:
        while len(self.setups) < SETUP_REPEATS:
            self.next_setup()
        for result in self.setups[1:]:
            self.ledger.check("set-up fits are bit-identical across processes",
                              identical(np.load(Path(result["artifact"]).parent
                                                / "probabilities.npy"), reference))

    def serve_lifecycle(self, path: str, graph, reference, seconds: float,
                        rounds: int) -> dict:
        """Load, score, shard-score and stream, in ``rounds`` interleaved rounds
        so that every metric samples the whole run."""
        from repro.serve import BatchScorer

        samples: Dict[str, List[float]] = {"load_ms": [], "score_ms": [],
                                           "shard_score_ms": []}
        self.set_trace_id("warm-up")
        ensemble = self.sample_loads(path, graph, reference, [])
        self.out.end_to_end["test_acc"] = test_accuracy(ensemble.predict_proba(graph), graph)
        batch = BatchScorer(ensemble)
        sharded = BatchScorer(path, num_partitions=2, shard_backend="process",
                              max_workers=2)
        streams = {loop: Stream(loop, ensemble, graph,
                                np.random.default_rng([self.seed, index]), self)
                   for index, loop in enumerate(("closed", "open"))}
        try:
            per_round = {phase: share * seconds / rounds
                         for phase, share in SERVE_SHARES.items()}
            worker_uss: List[float] = []
            for _ in range(rounds):
                self.sample_loads(path, graph, reference, samples["load_ms"],
                                  seconds=per_round["load"])
                self.sample_scores(batch, graph, reference, samples["score_ms"],
                                   seconds=per_round["score"])
                self.sample_scores(sharded, graph, reference, samples["shard_score_ms"],
                                   seconds=per_round["shard"])
                worker_uss = [value for value in map(uss_mb, worker_pids(os.getpid()))
                              if value is not None]
                streams["closed"].closed(per_round["closed"])
                streams["open"].open(per_round["open"])
                self.next_setup()
        finally:
            sharded.close()
        for loop, stream in streams.items():
            self.ledger.check(f"{loop}-loop streaming scores equal a batch rebuild",
                              stream.matches_batch_rebuild())
        out = self.out
        for name, values in samples.items():
            out.timing(name, values, 1e3)
        closed, opened = streams["closed"].result, streams["open"].result
        closed_rps = closed.throughput
        out.timing("stream_closed_latency_ms", closed.latencies, 1e3)
        out.timing("stream_open_ms", opened.latencies, 1e3)
        open_summary = out.timings["stream_open_ms"]
        out.timing("loadgen_late_ms", opened.late, 1e3)
        refresh = streams["closed"].mix.refresh + streams["open"].mix.refresh
        queries = streams["closed"].mix.queries + streams["open"].mix.queries
        out.timing("stream_refresh_ms", refresh, 1e3)
        out.timing("stream_query_us", queries, 1e6)
        stats = [stream.scorer.batcher.stats() for stream in streams.values()]
        requests = sum(stat["requests"] for stat in stats)
        out.facts.update(closed_rps=closed_rps, open_rate=OPEN_LOOP_RATE,
                         worker_uss_mb=worker_uss)
        extras = {
            "serve.sharded.worker_uss_mb": max(worker_uss) if worker_uss else 0.0,
            "serve.streaming.refresh_ms": 1e3 * statistics.median(refresh),
            "serve.streaming.query_p50_us": 1e6 * statistics.median(queries),
            "serve.streaming.coalesce_ratio":
                sum(stat["coalesced"] for stat in stats) / requests if requests else 0.0,
            "serve.streaming.shed": float(sum(stat["shed"] for stat in stats)),
            "serve.streaming.closed_rps": closed_rps,
            "serve.streaming.open_tail_ms": open_summary["tail"] or open_summary["median"],
            "serve.streaming.open_p50_ms": open_summary["median"],
            "loadgen.late_p99_ms": 1e3 * nearest_rank(sorted(opened.late), 99.0),
        }
        return {"samples": samples, "extras": extras, "closed_rps": closed_rps}

    def set_trace_id(self, trace_id: str) -> None:
        """Tag the following spans with the fit or request they belong to."""
        if self.tracer is not None:
            self.tracer.trace_id = trace_id


class Stream:
    """One ``StreamingScorer`` driven by a ``RequestMix``; its closed- or
    open-loop chunks accumulate into one ``LoopResult`` across rounds."""

    def __init__(self, loop: str, ensemble, graph, rng: np.random.Generator,
                 run: Run) -> None:
        from repro.serve import StreamingScorer

        self.loop = loop
        self.ensemble = ensemble
        self.run = run
        self.scorer = StreamingScorer(ensemble, graph)
        self.mix = RequestMix(self.scorer, graph, rng)
        self.scorer.score(np.arange(QUERY_NODES))  # warm-up: first forward pass
        self.result = loadgen.LoopResult()

    def request(self, index: int) -> None:
        from repro.serve import OverloadedError

        # Continue the write rotation where the previous chunk stopped.
        index += len(self.result.latencies)
        self.run.set_trace_id(f"{self.loop}-{index}")
        self.run.ledger.attempted += 1
        try:
            self.mix.request(index)
        except OverloadedError as error:
            self.run.ledger.record_failure("request shed", repr(error))

    def _absorb(self, chunk: loadgen.LoopResult) -> None:
        self.result.latencies += chunk.latencies
        self.result.late += chunk.late
        self.result.elapsed += chunk.elapsed

    def closed(self, seconds: float) -> None:
        self._absorb(loadgen.closed_loop(self.request, seconds))

    def open(self, seconds: float) -> None:
        count = max(int(OPEN_LOOP_RATE * seconds), 1)
        self._absorb(loadgen.open_loop(self.request, OPEN_LOOP_RATE, count))

    def matches_batch_rebuild(self) -> bool:
        from repro.serve import BatchScorer

        streamed = self.scorer.score().probabilities
        rebuilt = BatchScorer(self.ensemble).score(self.scorer.graph.snapshot())
        return identical(streamed, rebuilt.probabilities)


def zero_serving_extras() -> Dict[str, float]:
    """Serving-loop per-layer values on the fit workloads, which run no stream."""
    return {name: 0.0 for name in (
        "serve.sharded.worker_uss_mb", "serve.streaming.refresh_ms",
        "serve.streaming.query_p50_us", "serve.streaming.coalesce_ratio",
        "serve.streaming.shed", "serve.streaming.closed_rps",
        "serve.streaming.open_tail_ms", "serve.streaming.open_p50_ms",
        "loadgen.late_p99_ms")}


class RequestMix:
    """Streaming requests: a read of ``QUERY_NODES`` nodes, and before one read
    in ``WRITE_EVERY`` a write rotating through feature update, edge add and
    node add.  Edge adds never repeat an existing edge or form a self-loop."""

    def __init__(self, scorer, graph, rng: np.random.Generator) -> None:
        self.scorer = scorer
        self.rng = rng
        self.num_features = int(graph.num_features)
        self.directed = bool(graph.directed)
        self.edges = {(int(src), int(dst)) for src, dst in np.asarray(graph.edge_index).T}
        #: Latency of reads that ran a forward pass / were served coalesced.
        self.refresh: List[float] = []
        self.queries: List[float] = []

    def _new_edge(self, pinned: Optional[int] = None):
        num_nodes = self.scorer.graph.num_nodes
        while True:
            src = pinned if pinned is not None else int(self.rng.integers(num_nodes))
            dst = int(self.rng.integers(num_nodes))
            if src != dst and (src, dst) not in self.edges \
                    and (self.directed or (dst, src) not in self.edges):
                self.edges.add((src, dst))
                return src, dst

    def write(self, index: int) -> None:
        scorer = self.scorer
        kind = (index // WRITE_EVERY) % 3
        if kind == 0:
            nodes = self.rng.choice(scorer.graph.num_nodes, size=4, replace=False)
            scorer.update_features(nodes, self.rng.standard_normal((4, self.num_features)))
        elif kind == 1:
            src, dst = self._new_edge()
            scorer.add_edges(np.array([[src], [dst]]))
        else:
            new = int(scorer.add_nodes(self.rng.standard_normal((1, self.num_features)))[0])
            src, dst = self._new_edge(pinned=new)
            scorer.add_edges(np.array([[src], [dst]]))

    def request(self, index: int) -> None:
        if index % WRITE_EVERY == 0:
            self.write(index)
        nodes = self.rng.choice(self.scorer.graph.num_nodes, size=QUERY_NODES,
                                replace=False)
        passes = self.scorer.batcher.forward_passes
        start = time.perf_counter()
        self.scorer.score(nodes)
        elapsed = time.perf_counter() - start
        (self.refresh if self.scorer.batcher.forward_passes > passes
         else self.queries).append(elapsed)
