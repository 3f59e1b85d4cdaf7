"""The traced run's per-layer ledger.

All numbers are taken from outside the program: the benchmark's own
timers around public calls, the program's existing ``MetricsRegistry``
and ``FlightRecorder`` (read through ``snapshot()`` and ``dump()``), and
``gc.callbacks``.  Only what happens inside a :meth:`Ledger.window` counts,
so set-up work done by a traced service does not leak into its layers.
"""

from __future__ import annotations

import gc
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.obs import MetricsRegistry
from repro.service.queries import QUERY_KINDS

FLIGHT_CAPACITY = 400_000
"""Large enough that no traced run wraps the span ring (checked)."""

GROWTH_METRICS = (
    "chain.render_s",
    "chain.index_s",
    "core.engine_s",
    "aggregates.flush_s",
    "gc.pause_s",
)
"""Layers whose half-scale to full-scale ratio ``cold_build`` reports."""


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Ledger:
    """Accumulates per-layer deltas over one or more traced windows."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry(flight_capacity=FLIGHT_CAPACITY)
        self.totals: dict[str, float] = defaultdict(float)
        self.timers: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self._query_windows: list[tuple[int, int]] = []
        self._window_base = 0
        self._gc_start = 0.0
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0

    # -- windows ---------------------------------------------------------

    def _flat(self) -> dict[str, float]:
        snapshot = self.registry.snapshot()
        flat = dict(snapshot["counters"])
        for key, summary in snapshot["histograms"].items():
            flat[f"{key}:total"] = summary["total"]
            flat[f"{key}:count"] = summary["count"]
        return flat

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.gc_pause_s += perf_counter() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    @contextmanager
    def window(self):
        """Count everything the program and the benchmark do inside."""
        flight = self.registry.flight
        before = self._flat()
        first_span = len(flight)
        self._window_base = len(self.spans) - first_span
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            if len(flight) >= flight.capacity:
                raise RuntimeError("flight recorder wrapped; raise its capacity")
            for key, value in self._flat().items():
                self.totals[key] += value - before.get(key, 0)
            self.spans.extend(flight.dump()[first_span:])

    @contextmanager
    def outside(self):
        """Untraced work inside a window (the untraced side of an
        interleaved comparison): its collector pauses are not counted."""
        gc.callbacks.remove(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.append(self._on_gc)

    @contextmanager
    def timed(self, name: str):
        """Benchmark-side timer around one call into a layer.  Collector
        pauses that fall inside are left out: they are ``gc.pause_s``."""
        paused = self.gc_pause_s
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.timers[name] += elapsed - (self.gc_pause_s - paused)

    def answer_many(self, service, queries: list) -> list:
        """``service.answer_many`` with its flight-span range remembered, so
        flush and time-travel spans can be subtracted from query time."""
        flight = self.registry.flight
        first = len(flight)
        try:
            return service.answer_many(queries)
        finally:
            base = self._window_base
            self._query_windows.append((base + first, base + len(flight)))

    # -- the per-layer table ---------------------------------------------

    def _total(self, key: str) -> float:
        return self.totals.get(key, 0.0)

    def _spans(self, kind: str) -> list[dict]:
        return [span for span in self.spans if span["kind"] == kind]

    def layers(self) -> dict[str, float]:
        """Every per-layer metric the ledger itself measures, zero where
        the layer did no work (the ``obs.*`` pair comes from the
        workload, which knows its operations)."""
        t = self._total
        out: dict[str, float] = {}
        out["chain.parse_s"] = self.timers["parse"]
        out["chain.render_s"] = self.timers["render"]
        out["chain.index_s"] = t("ingest.index_seconds:total")
        out["chain.delta_build_s"] = t("ingest.delta_build_seconds:total")
        blocks = self._spans("block")
        out["chain.blocks"] = len(blocks)
        out["chain.txs"] = sum(span["txs"] for span in blocks)
        out["chain.addresses"] = self.counts["addresses"]

        out["core.engine_s"] = t("ingest.fanout_seconds{subscriber=engine}:total")
        out["core.h1_pairs"] = t("engine.h1_pairs:total")
        out["core.merges"] = t("engine.merges")
        out["core.labels_born"] = t("engine.labels_born")
        out["core.labels_voided"] = t("engine.labels_voided")
        out["core.labels_settled"] = t("engine.labels_settled")
        out["core.open_labels"] = self.counts["open_labels"]

        for view in ("balances", "activity", "taint"):
            out[f"views.{view}_s"] = t(f"view.fold_seconds{{view={view}}}:total")
        out["views.grown_slots"] = sum(
            value for key, value in self.totals.items()
            if key.startswith("view.grown_slots")
        )

        flushes = [span["seconds"] for span in self._spans("flush")]
        queued = t("aggregates.queued_blocks:count")
        out["aggregates.enqueue_s"] = t(
            "ingest.fanout_seconds{subscriber=aggregates}:total"
        )
        out["aggregates.flush_s"] = t("aggregates.flush_seconds:total")
        out["aggregates.flush_ms_p50"] = 1e3 * percentile(flushes, 50)
        out["aggregates.flush_ms_p99"] = 1e3 * percentile(flushes, 99)
        out["aggregates.flushes"] = t("aggregates.flush_seconds:count")
        out["aggregates.queued_blocks_mean"] = (
            t("aggregates.queued_blocks:total") / queued if queued else 0.0
        )
        out["aggregates.churn_rows"] = t("aggregates.churn_rows")
        out["aggregates.overlay_reuse_hits"] = t("aggregates.overlay_reuse_hits")

        depths = [span["depth"] for span in self._spans("timetravel")]
        out["timetravel.replay_s"] = t("timetravel.replay_seconds:total")
        out["timetravel.replay_depth_p50"] = percentile(depths, 50)
        out["timetravel.replay_depth_p95"] = percentile(depths, 95)
        out["timetravel.memo_hits"] = t("timetravel.memo_hits")
        out["timetravel.checkpoint_hits"] = t("timetravel.checkpoint_hits")
        out["timetravel.checkpoints_materialized"] = t(
            "timetravel.checkpoints_materialized"
        )
        out["timetravel.first_horizon_s"] = self.timers["first_horizon"]

        by_kind: dict[str, list[float]] = {kind: [] for kind in QUERY_KINDS}
        for span in self._spans("query"):
            by_kind[span["query"]].append(span["seconds"])
        for kind, seconds in by_kind.items():
            out[f"queries.{kind}_ms_p50"] = 1e3 * percentile(seconds, 50)
            out[f"queries.{kind}_ms_p99"] = 1e3 * percentile(seconds, 99)
        enclosed = 0.0
        for first, last in self._query_windows:
            for span in self.spans[first:last]:
                if span["kind"] in ("flush", "timetravel"):
                    enclosed += span["seconds"]
        query_s = sum(sum(seconds) for seconds in by_kind.values())
        out["queries.self_s"] = query_s - enclosed

        lookups = self.counts["cache_hits"] + self.counts["cache_misses"]
        out["cache.hit_rate"] = (
            self.counts["cache_hits"] / lookups if lookups else 0.0
        )
        out["cache.evictions"] = self.counts["cache_evictions"]

        out["storage.snapshot_s"] = t("store.snapshot_seconds:total")
        out["storage.snapshot_bytes"] = t("store.snapshot_bytes")
        out["storage.restore_s"] = t("store.restore_seconds:total")
        out["storage.restore_bytes"] = t("store.restore_bytes")
        out["storage.tail_replay_s"] = (
            self.timers["warm_start"] - out["storage.restore_s"]
            if self.timers["warm_start"] else 0.0
        )

        out["gc.pause_s"] = self.gc_pause_s
        out["gc.collections_gen2"] = self.gc_gen2
        return out

    # -- service-side counts read around a window -------------------------

    def add_state(self, service) -> None:
        """Read the service's size at the end of the traced work."""
        self.counts["addresses"] = service.index.address_count
        self.counts["open_labels"] = service.engine.open_label_count

    def add_cache(self, before: dict, after: dict) -> None:
        for key in ("hits", "misses", "evictions"):
            self.counts[f"cache_{key}"] += after[key] - before[key]


def growth(
    full: dict[str, float], half: dict[str, float], speed: float = 1.0
) -> dict[str, float]:
    """``log2(full / half)`` per growth layer (0 when either side is 0);
    ``speed`` is the full pass's calibration factor over the half pass's."""
    out = {}
    for name in GROWTH_METRICS:
        a, b = full.get(name, 0.0), half.get(name, 0.0)
        out[f"{name}.growth"] = (
            math.log2(a * speed / b) if a > 0 and b > 0 else 0.0
        )
    return out
