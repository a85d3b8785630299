"""Per-layer metrics: what each one is, which end-to-end number it should move,
and the probe that records it in a traced run.

``PER_LAYER`` is the single list of per-layer metrics; ``BENCHMARK.json``
mirrors its names, units and directions (a test keeps the two equal).  A
layer that does no work on a workload reports 0 there: that is the
prediction, for example no process backend on ``fit-dense``.
"""

from __future__ import annotations

import os
import resource
import statistics
from typing import Dict, List

from tracer import Span, Tracer, totals

MB = 1024.0 * 1024.0

#: (name, unit, better, the end-to-end metric it should move, on which workload)
PER_LAYER = [
    ("datasets.load_s", "s", "lower", "setup_s on all"),
    ("nn.data.from_graph_s", "s", "lower", "setup_s on all"),
    ("core.proxy.evaluate_s", "s", "lower", "fit_s on fit-*"),
    ("core.proxy.candidates_scored", "count", "higher", "fit_s on fit-*"),
    ("core.adaptive.search_s", "s", "lower", "fit_s on fit-dense"),
    ("core.gradient_search.search_s", "s", "lower", "fit_s on fit-hetero"),
    ("core.gradient_search.epoch_ms", "ms", "lower", "fit_s on fit-hetero"),
    ("core.hierarchical.fit_s", "s", "lower", "fit_s on fit-*"),
    ("core.hierarchical.predict_s", "s", "lower", "fit_s on fit-*"),
    ("tasks.trainer.runs", "count", "lower", "fit_s on fit-dense"),
    ("tasks.trainer.train_s", "s", "lower", "fit_s on fit-dense"),
    ("tasks.trainer.engine_s", "s", "lower", "fit_s on fit-dense"),
    ("tasks.trainer.epoch_ms", "ms", "lower", "fit_s on fit-dense"),
    ("tasks.trainer.validation_share", "ratio", "lower", "fit_s on fit-dense"),
    ("autograd.capture.replay_ratio", "ratio", "higher", "fit_s on fit-dense"),
    ("autograd.capture.bailouts", "count", "lower", "fit_s on fit-dense"),
    ("autograd.capture.replayed_ops", "count", "lower", "fit_s on fit-dense"),
    ("autograd.ir.arena_reuse_ratio", "ratio", "higher", "peak_rss_mb on fit-dense"),
    ("autograd.ir.arena_high_water_mb", "MB", "lower", "peak_rss_mb on fit-dense"),
    ("parallel.backends.map_s", "s", "lower", "fit_s on fit-hetero"),
    ("parallel.backends.tasks", "count", "lower", "fit_s on fit-hetero"),
    ("parallel.backends.retries", "count", "lower", "fit_s on fit-hetero"),
    ("parallel.backends.pool_rebuilds", "count", "lower", "fit_s on fit-hetero"),
    ("parallel.backends.worker_peak_rss_mb", "MB", "lower", "fit_s on fit-hetero"),
    ("graph.shm.put_s", "s", "lower", "fit_s on fit-hetero; shard score on serve"),
    ("graph.shm.published_mb", "MB", "lower", "fit_s on fit-hetero; shard score on serve"),
    ("parallel.cache.hit_ratio", "ratio", "higher", "fit_s on fit-*; load_ms/score_ms on serve"),
    ("parallel.cache.misses", "count", "lower", "fit_s on fit-*; load_ms/score_ms on serve"),
    ("parallel.cache.resident_mb", "MB", "lower", "fit_s on fit-*; load_ms/score_ms on serve"),
    ("core.artifact.save_s", "s", "lower", "setup_s on serve"),
    ("core.artifact.load_s", "s", "lower", "load_ms on all"),
    ("core.artifact.predict_s", "s", "lower", "score_ms on all"),
    ("serve.batch.score_s", "s", "lower", "score_ms on all"),
    ("graph.partition.plan_s", "s", "lower", "shard score on serve"),
    ("graph.partition.halo_fraction", "ratio", "lower", "shard score on serve"),
    ("serve.sharded.score_s", "s", "lower", "shard score on serve"),
    ("serve.sharded.worker_uss_mb", "MB", "lower", "shard memory on serve"),
    ("graph.streaming.mutate_us", "us", "lower", "stream p99 and rps on serve"),
    ("graph.streaming.flush_ms", "ms", "lower", "stream p99 and rps on serve"),
    ("serve.streaming.refresh_ms", "ms", "lower", "stream p99 and rps on serve"),
    ("serve.streaming.query_p50_us", "us", "lower", "stream rps on serve"),
    ("serve.streaming.coalesce_ratio", "ratio", "higher", "stream rps on serve"),
    ("serve.streaming.shed", "count", "lower", "stream rps on serve"),
    ("serve.streaming.closed_rps", "1/s", "higher", "closed-loop capacity on serve"),
    ("serve.streaming.open_tail_ms", "ms", "lower", "open-loop tail latency on serve"),
    ("serve.streaming.open_p50_ms", "ms", "lower", "open-loop latency on serve"),
    ("loadgen.late_p99_ms", "ms", "lower", "validity of the open-loop tail on serve"),
    ("trace.overhead_ratio", "ratio", "lower", "traced / untraced main timing, all"),
]

#: Span names whose per-layer value is the median duration of one call; every
#: other span-backed time is summed over the traced window.
PER_CALL = {"core.artifact.load", "core.artifact.predict", "serve.batch.score",
            "serve.sharded.score", "graph.partition.plan"}


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class LayerProbe:
    """Installs span wrappers on the program's layer entry points and turns the
    resulting spans and counter deltas into per-layer metrics."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._before: Dict[str, dict] = {}

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.core.adaptive import AdaptiveSearch
        from repro.core.artifact import FittedEnsemble
        from repro.core.gradient_search import GradientSearch
        from repro.core.hierarchical import HierarchicalEnsemble
        from repro.core.proxy import ProxyEvaluator
        from repro.graph import streaming as graph_streaming
        from repro.graph.shm import SharedGraphStore
        from repro.nn.data import GraphTensors
        from repro.parallel.backends import _PoolBackend
        from repro.serve import BatchScorer
        from repro.serve import sharded
        from repro.tasks.trainer import NodeClassificationTrainer

        patch = self.tracer.patch
        patch(GraphTensors, "from_graph", "nn.data.from_graph")
        patch(ProxyEvaluator, "evaluate", "core.proxy.evaluate",
              lambda span, report, args: self._add("candidates_scored", len(report.scores)))
        patch(AdaptiveSearch, "search", "core.adaptive.search")
        patch(GradientSearch, "search", "core.gradient_search.search",
              lambda span, result, args: self._add("search_epochs", len(result.history)))
        patch(HierarchicalEnsemble, "fit", "core.hierarchical.fit")
        patch(HierarchicalEnsemble, "predict_proba", "core.hierarchical.predict")
        patch(NodeClassificationTrainer, "train", "tasks.trainer.train", self._on_train)
        # Thread and process pools; the serial backend is the caller's loop.
        patch(_PoolBackend, "map", "parallel.backends.map", self._on_map)
        for method in ("put_tensors", "put_graph"):
            patch(SharedGraphStore, method, "graph.shm.put",
                  lambda span, handle, args: span.attrs.update(
                      store=args[0].path, bytes=_dir_bytes(args[0].path)))
        patch(FittedEnsemble, "save", "core.artifact.save")
        patch(FittedEnsemble, "load", "core.artifact.load")
        patch(FittedEnsemble, "predict_proba", "core.artifact.predict")
        patch(BatchScorer, "score",
              lambda scorer, *args, **kwargs: "serve.sharded.score" if scorer.sharded
              else "serve.batch.score")
        patch(sharded, "build_partition_plan", "graph.partition.plan", self._on_plan)
        for method in ("add_nodes", "add_edges", "update_features"):
            patch(graph_streaming.MutableServingGraph, method, "graph.streaming.mutate")
        patch(graph_streaming.MutableServingGraph, "flush", "graph.streaming.flush",
              lambda span, delta, args: span.attrs.update(applied=delta is not None))

    def _on_train(self, span: Span, result, args) -> None:
        self._add("trainer_runs", 1)
        self._add("trainer_train_s", result.train_time)
        self._add("trainer_engine_s", result.engine_seconds)
        self._add("trainer_epochs", result.epochs_run)
        if result.capture_used:
            self._add("trainer_replayed_runs", 1)
            self._add("replayed_ops", (result.capture_plan or {}).get("ops_replayed", 0))

    def _on_map(self, span: Span, report, args) -> None:
        self._add("map_tasks", report.dispatched)
        self._add("map_retries", report.details.get("retries", 0))
        self._add("map_pool_rebuilds", report.details.get("pool_rebuilds", 0))

    def _on_plan(self, span: Span, plan, args) -> None:
        described = plan.describe()
        owned = sum(described["owned_sizes"])
        self._sample("halo_fraction", sum(described["halo_sizes"]) / max(owned, 1))

    # ------------------------------------------------------------------
    # Counter snapshots around the traced window
    # ------------------------------------------------------------------
    @staticmethod
    def _counters() -> Dict[str, dict]:
        from repro.autograd.capture import engine_stats
        from repro.autograd.ir.arena import global_pool
        from repro.parallel.cache import compute_cache

        return {"cache": compute_cache().stats(), "engine": engine_stats(),
                "arena": global_pool().stats()}

    def begin(self) -> None:
        self._before = self._counters()

    def clear_cache(self) -> None:
        """``compute_cache().clear()``, keeping this window's hit/miss counts
        (clearing the cache also resets its counters)."""
        from repro.parallel.cache import compute_cache

        stats = compute_cache().stats()
        for key in ("hits", "misses"):
            self._add(f"cache_{key}", stats[key] - self._before["cache"][key])
        compute_cache().clear()
        self._before["cache"] = compute_cache().stats()

    def metrics(self, extra: Dict[str, float]) -> Dict[str, float]:
        """Every ``PER_LAYER`` value from this window's spans and counters.

        ``extra`` supplies the values measured by the workload itself
        (streaming and load-generator numbers, worker memory, overhead).
        """
        after = self._counters()
        before = self._before
        spans = self.tracer.spans
        summed = totals(spans)
        per_call: Dict[str, List[float]] = {}
        for span in spans:
            per_call.setdefault(span.name, []).append(span.duration)

        def time_of(name: str) -> float:
            if name in PER_CALL:
                calls = per_call.get(name)
                return statistics.median(calls) if calls else 0.0
            return summed.get(name, 0.0)

        counts = self.counts
        train_s = counts.get("trainer_train_s", 0.0)
        engine_s = counts.get("trainer_engine_s", 0.0)
        epochs = counts.get("trainer_epochs", 0.0)
        runs = counts.get("trainer_runs", 0.0)
        search_epochs = counts.get("search_epochs", 0.0)
        hits = after["cache"]["hits"] - before["cache"]["hits"] + counts.get("cache_hits", 0)
        misses = (after["cache"]["misses"] - before["cache"]["misses"]
                  + counts.get("cache_misses", 0))
        leases = after["arena"]["leases"] - before["arena"]["leases"]
        reuses = after["arena"]["reuses"] - before["arena"]["reuses"]
        mutate = per_call.get("graph.streaming.mutate", [])
        flushes = [span.duration for span in spans
                   if span.name == "graph.streaming.flush" and span.attrs.get("applied")]
        # A store's directory only grows, so its last put gives its size.
        stores = {span.attrs["store"]: span.attrs["bytes"] for span in spans
                  if span.name == "graph.shm.put"}
        published = sum(stores.values())
        values = {
            "datasets.load_s": time_of("datasets.load"),
            "nn.data.from_graph_s": time_of("nn.data.from_graph"),
            "core.proxy.evaluate_s": time_of("core.proxy.evaluate"),
            "core.proxy.candidates_scored": counts.get("candidates_scored", 0.0),
            "core.adaptive.search_s": time_of("core.adaptive.search"),
            "core.gradient_search.search_s": time_of("core.gradient_search.search"),
            "core.gradient_search.epoch_ms":
                1e3 * time_of("core.gradient_search.search") / search_epochs
                if search_epochs else 0.0,
            "core.hierarchical.fit_s": time_of("core.hierarchical.fit"),
            "core.hierarchical.predict_s": time_of("core.hierarchical.predict"),
            "tasks.trainer.runs": runs,
            "tasks.trainer.train_s": train_s,
            "tasks.trainer.engine_s": engine_s,
            "tasks.trainer.epoch_ms": 1e3 * engine_s / epochs if epochs else 0.0,
            "tasks.trainer.validation_share": 1.0 - engine_s / train_s if train_s else 0.0,
            "autograd.capture.replay_ratio":
                counts.get("trainer_replayed_runs", 0.0) / runs if runs else 0.0,
            "autograd.capture.bailouts":
                after["engine"]["bailouts"] - before["engine"]["bailouts"],
            "autograd.capture.replayed_ops": counts.get("replayed_ops", 0.0),
            "autograd.ir.arena_reuse_ratio": reuses / leases if leases else 0.0,
            "autograd.ir.arena_high_water_mb": after["arena"]["high_water_bytes"] / MB,
            "parallel.backends.map_s": time_of("parallel.backends.map"),
            "parallel.backends.tasks": counts.get("map_tasks", 0.0),
            "parallel.backends.retries": counts.get("map_retries", 0.0),
            "parallel.backends.pool_rebuilds": counts.get("map_pool_rebuilds", 0.0),
            "parallel.backends.worker_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "graph.shm.put_s": time_of("graph.shm.put"),
            "graph.shm.published_mb": published / MB,
            "parallel.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "parallel.cache.misses": misses,
            "parallel.cache.resident_mb": after["cache"]["resident_bytes"] / MB,
            "core.artifact.save_s": time_of("core.artifact.save"),
            "core.artifact.load_s": time_of("core.artifact.load"),
            "core.artifact.predict_s": time_of("core.artifact.predict"),
            "serve.batch.score_s": time_of("serve.batch.score"),
            "graph.partition.plan_s": time_of("graph.partition.plan"),
            "graph.partition.halo_fraction":
                statistics.median(self.samples["halo_fraction"])
                if self.samples.get("halo_fraction") else 0.0,
            "serve.sharded.score_s": time_of("serve.sharded.score"),
            "graph.streaming.mutate_us": 1e6 * statistics.median(mutate) if mutate else 0.0,
            "graph.streaming.flush_ms": 1e3 * statistics.median(flushes) if flushes else 0.0,
        }
        values.update(extra)
        missing = [name for name, *_ in PER_LAYER if name not in values]
        if missing:
            raise KeyError(f"per-layer metrics not computed: {missing}")
        return {name: float(values[name]) for name, *_ in PER_LAYER}

