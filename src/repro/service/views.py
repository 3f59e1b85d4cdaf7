"""Streaming materialized views over a :class:`~repro.chain.index.ChainIndex`.

The forensics questions of §5 — "what does this address hold *now*, who
else holds with it, where did the stolen coins go?" — used to be batch
recomputations: every answer re-walked the chain.  Each view here
instead attaches to :meth:`ChainIndex.subscribe_deltas
<repro.chain.index.ChainIndex.subscribe_deltas>` and folds every new block
into warm state the moment it is ingested, so the
:class:`~repro.service.service.ForensicsService` answers from O(1)-ish
lookups:

* :class:`BalanceView` — per-address balances (dense arrays keyed by
  interned id), per-height coinbase issuance, and the compact
  ``(address id, delta)`` event log that Figure 2's category series is
  rebuilt from without touching a single transaction again.
* :class:`TaintView` — live haircut-taint frontiers for any number of
  watched theft cases, advanced per block by the *same*
  :func:`~repro.analysis.taint.taint_step` the batch
  :class:`~repro.analysis.taint.TaintTracker` runs, so streamed state
  provably equals a from-scratch propagation at every height.
* :class:`ActivityView` — per-address transaction incidence counts and
  first/last-seen heights, the raw material for per-cluster activity
  profiles and supercluster/chokepoint queries.

Every view folds from the block's shared
:class:`~repro.chain.delta.BlockDelta` (see ``chain/delta.py``): the
index walks each block's transactions exactly once at ingestion and the
whole observer fan-out — engine, these views, the differential
aggregates — reads the one flat plan, so no view ever touches a
transaction list or re-resolves an id memo on the hot path.

Every view follows the incremental engine's contract: construction
catches up on blocks the index already holds, then streams; ``detach``
stops following.  The equivalence property (view state at height ``h``
== batch recomputation over the ``h``-prefix) is pinned by
``tests/service/test_views.py`` in the same style as the PR 1
incremental==batch clustering test, and the delta-vs-transaction-walk
property by ``tests/chain/test_delta.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..analysis.taint import TaintResult, TaintTracker, taint_step
from ..chain.delta import BlockDelta
from ..chain.index import ChainIndex
from ..chain.model import OutPoint
from ..core.arrays import IntVector
from ..obs import NULL_REGISTRY


def _frombytes(buffer: bytes) -> np.ndarray:
    """Read-only int64 array over snapshot bytes (zero copy)."""
    return np.frombuffer(buffer, dtype="<i8")


def _check_state_version(cls, state: dict) -> None:
    """Fail closed on any view state but the version-2 bytes shape."""
    if state.get("version") != 2:
        raise ValueError(
            f"unsupported {cls.__name__} state version "
            f"{state.get('version')!r} (expected 2); rebuild cold"
        )


class MaterializedView:
    """Base class: catch-up, ordered streaming, detach.

    Subclasses implement :meth:`_apply_delta`; the base class guarantees
    it sees every block's delta exactly once, in height order
    (out-of-order delivery raises, mirroring the incremental clustering
    engine).

    Folds report per-view telemetry when a ``metrics`` registry is
    given: ``view.fold_seconds{view=…}`` times each :meth:`_apply_delta`
    (a refinement of the index's per-subscriber fan-out timing) and
    ``view.grown_slots{view=…}`` counts dense-array growth.
    """

    OBSERVER_NAME = "view"
    """Subscriber label in fan-out and fold metrics (per subclass)."""

    def __init__(
        self,
        index: ChainIndex,
        *,
        follow: bool = True,
        metrics=None,
    ) -> None:
        self.index = index
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._height = -1
        self._unsubscribe = None
        for height in range(index.height + 1):
            self._observe_delta(index.block_delta(height))
        if follow:
            self._unsubscribe = index.subscribe_deltas(
                self._observe_delta, name=self.OBSERVER_NAME
            )

    def _adopt(self, index: ChainIndex, height: int, follow: bool) -> None:
        """Attach a snapshot-restored view to ``index`` at ``height``
        without replaying the catch-up (its state is already warm)."""
        if height != index.height:
            raise ValueError(
                f"view state is at height {height} but the index is at "
                f"{index.height}"
            )
        self.index = index
        if not hasattr(self, "metrics"):
            self.metrics = NULL_REGISTRY
        self._height = height
        self._unsubscribe = (
            index.subscribe_deltas(self._observe_delta, name=self.OBSERVER_NAME)
            if follow
            else None
        )

    @property
    def height(self) -> int:
        """Last height folded into the view (-1 before any block)."""
        return self._height

    def detach(self) -> None:
        """Stop observing the index (materialized state remains)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def _observe_delta(self, delta: BlockDelta) -> None:
        if delta.height != self._height + 1:
            raise ValueError(
                f"blocks must stream in order: expected height "
                f"{self._height + 1}, got {delta.height}"
            )
        metrics = self.metrics
        if metrics.enabled:
            start = perf_counter()
            self._apply_delta(delta)
            metrics.histogram(
                "view.fold_seconds", view=self.OBSERVER_NAME
            ).observe(perf_counter() - start)
        else:
            self._apply_delta(delta)
        self._height = delta.height

    def _apply_delta(self, delta: BlockDelta) -> None:
        raise NotImplementedError


class BalanceView(MaterializedView):
    """Per-address balances + the per-height delta log, streamed.

    Replaces the chain re-walk in
    :meth:`~repro.analysis.balances.BalanceAnalyzer.series`: instead of
    iterating every address record and every block per call, the
    analyzer replays this view's compact event log (pass the view via
    ``BalanceAnalyzer(..., view=...)``).  Point queries
    (:meth:`balance_of`) read the dense balance array directly.

    The fold is kernelized by default: one ``np.add.at`` scatter of the
    delta's columnar event buffers into an :class:`IntVector` grown once
    per block from ``max_id``.  ``use_kernels=False`` selects the scalar
    per-event reference loop (same state, same answers — pinned by
    ``tests/service/test_fold_kernels.py``).
    """

    OBSERVER_NAME = "balances"

    def __init__(
        self,
        index: ChainIndex,
        *,
        follow: bool = True,
        use_kernels: bool = True,
        metrics=None,
    ) -> None:
        self._use_kernels = use_kernels
        self._balances = IntVector()
        """Current balance per interned address id."""
        self._events: list[tuple[np.ndarray, np.ndarray]] = []
        """Per height: the delta's columnar ``(ids, signed deltas)``
        event buffers, retained by reference — no per-block copy."""
        self._coinbase: list[int] = []
        """Coins issued at each height."""
        self._supply: list[int] = []
        """Cumulative issuance by each height."""
        super().__init__(index, follow=follow, metrics=metrics)

    def _apply_delta(self, delta: BlockDelta) -> None:
        # The delta pre-flattened the block's debits and credits into
        # the exact per-height event log this view keeps.  Every event
        # id is ≤ max_id, so one grow per block covers the whole fold.
        balances = self._balances
        if delta.max_id >= len(balances):
            if self.metrics.enabled:
                self.metrics.counter(
                    "view.grown_slots", view=self.OBSERVER_NAME
                ).inc(delta.max_id + 1 - len(balances))
            balances.grow_to(delta.max_id + 1)
        if self._use_kernels:
            np.add.at(balances.array, delta.event_ids, delta.event_values)
        else:
            for ident, change in delta.events:
                balances[ident] += change
        self._events.append((delta.event_ids, delta.event_values))
        self._coinbase.append(delta.minted)
        self._supply.append(
            (self._supply[-1] if self._supply else 0) + delta.minted
        )

    # -- durable state -------------------------------------------------

    def export_state(self) -> dict:
        """Plain-data state: balances, the event log, and issuance.

        Version 2: the balance array and the per-height event columns
        export as raw int64 bytes — one buffer copy each, instead of the
        old O(events) Python list-of-lists rebuild per snapshot.
        """
        return {
            "version": 2,
            "height": self._height,
            "balances": self._balances.tobytes(),
            "events_ids": [ids.tobytes() for ids, _values in self._events],
            "events_values": [
                values.tobytes() for _ids, values in self._events
            ],
            "coinbase": list(self._coinbase),
            "supply": list(self._supply),
        }

    @classmethod
    def from_state(
        cls,
        index: ChainIndex,
        state: dict,
        *,
        follow: bool = True,
        use_kernels: bool = True,
        metrics=None,
    ) -> "BalanceView":
        """Rebuild a view from :meth:`export_state` output, no catch-up.

        Only the version-2 bytes shape is accepted; the pre-columnar
        version-1 list shape fails closed (rebuild cold).
        """
        _check_state_version(cls, state)
        view = cls.__new__(cls)
        view.metrics = metrics if metrics is not None else NULL_REGISTRY
        view._use_kernels = use_kernels
        view._balances = IntVector.from_bytes(state["balances"])
        view._events = [
            (_frombytes(ids), _frombytes(values))
            for ids, values in zip(state["events_ids"], state["events_values"])
        ]
        view._coinbase = list(state["coinbase"])
        view._supply = list(state["supply"])
        view._adopt(index, state["height"], follow)
        return view

    # -- point queries -------------------------------------------------

    def balance_of_id(self, ident: int) -> int:
        """Current balance of an interned address id (0 if never seen)."""
        if 0 <= ident < len(self._balances):
            return self._balances[ident]
        return 0

    def balance_of(self, address: str) -> int:
        """Current balance of an address string (reporting edge)."""
        ident = self.index.interner.id_of(address)
        return 0 if ident is None else self.balance_of_id(ident)

    @property
    def supply(self) -> int:
        """Total coins issued by the view's height."""
        return self._supply[-1] if self._supply else 0

    def supply_at(self, height: int) -> int:
        """Cumulative issuance by ``height``."""
        return self._supply[height]

    def coinbase_at(self, height: int) -> int:
        """Coins issued at exactly ``height``."""
        return self._coinbase[height]

    def events_at(self, height: int) -> list[tuple[int, int]]:
        """The ``(address id, delta)`` log for one height (Python ints)."""
        ids, values = self._events[height]
        return list(zip(ids.tolist(), values.tolist()))


@dataclass
class TaintCase:
    """One watched theft: live frontier plus arrival accounting."""

    label: str
    sources: tuple[OutPoint, ...]
    initial_taint: int
    taint: dict[OutPoint, float] = field(default_factory=dict)
    at_entities: dict[str, float] = field(default_factory=dict)
    txs_processed: int = 0

    def as_result(self) -> TaintResult:
        """Snapshot the case as a batch-shaped
        :class:`~repro.analysis.taint.TaintResult`."""
        return TaintResult(
            initial_taint=self.initial_taint,
            taint_by_outpoint=dict(self.taint),
            taint_at_entities=dict(self.at_entities),
            txs_processed=self.txs_processed,
        )


class TaintView(MaterializedView):
    """Incremental haircut-taint propagation for watched theft cases.

    :meth:`watch` registers a case: a catch-up propagation (the batch
    :class:`~repro.analysis.taint.TaintTracker`) brings it level with
    the chain tip, after which every new block's transactions are folded
    through :func:`~repro.analysis.taint.taint_step` — the identical
    inner loop, so streamed case state equals a fresh batch propagation
    at every height.  ``name_of_address`` must be stable over time for
    that equivalence to hold (the service wires direct tag lookups, not
    height-dependent cluster naming).
    """

    OBSERVER_NAME = "taint"

    def __init__(
        self,
        index: ChainIndex,
        *,
        name_of_address=None,
        min_taint: float = 1.0,
        follow: bool = True,
        metrics=None,
    ) -> None:
        self.name_of_address = name_of_address or (lambda _a: None)
        self.min_taint = min_taint
        self._cases: dict[str, TaintCase] = {}
        self.epoch = 0
        """Bumped on every :meth:`watch`: taint answers depend on the
        watch set as well as the chain height, so caches key on
        ``(height, epoch)`` — (re)watching at an unchanged tip must not
        serve pre-watch answers."""
        super().__init__(index, follow=follow, metrics=metrics)

    def _apply_delta(self, delta: BlockDelta) -> None:
        if not self._cases:
            return
        index = self.index
        for case in self._cases.values():
            if not case.taint:
                continue
            for txd in delta.txs:
                if txd.is_coinbase:
                    continue
                frontier = taint_step(
                    index,
                    txd.tx,
                    case.taint,
                    name_of_address=self.name_of_address,
                    min_taint=self.min_taint,
                    at_entities=case.at_entities,
                )
                if frontier is not None:
                    case.txs_processed += 1

    # -- durable state -------------------------------------------------

    def export_state(self) -> dict:
        """Plain-data state: every watched case's live frontier.

        ``name_of_address`` is deliberately *not* part of the state —
        it is configuration (the service rewires it from the restored
        tag store), and the view's equivalence contract already requires
        it to be time-stable.
        """
        return {
            "height": self._height,
            "epoch": self.epoch,
            "cases": [
                (
                    case.label,
                    [(point.txid, point.vout) for point in case.sources],
                    case.initial_taint,
                    {
                        (point.txid, point.vout): value
                        for point, value in case.taint.items()
                    },
                    dict(case.at_entities),
                    case.txs_processed,
                )
                for case in self._cases.values()
            ],
        }

    @classmethod
    def from_state(
        cls,
        index: ChainIndex,
        state: dict,
        *,
        name_of_address=None,
        min_taint: float = 1.0,
        follow: bool = True,
        metrics=None,
    ) -> "TaintView":
        """Rebuild a view from :meth:`export_state` output, no catch-up.

        Restored cases resume streaming immediately — no batch
        re-propagation, which is exactly the recovery-time win the
        state store exists for.
        """
        view = cls.__new__(cls)
        view.metrics = metrics if metrics is not None else NULL_REGISTRY
        view.name_of_address = name_of_address or (lambda _a: None)
        view.min_taint = min_taint
        view._cases = {}
        view.epoch = state["epoch"]
        for label, sources, initial, taint, at_entities, processed in state["cases"]:
            view._cases[label] = TaintCase(
                label=label,
                sources=tuple(OutPoint(txid, vout) for txid, vout in sources),
                initial_taint=initial,
                taint={
                    OutPoint(txid, vout): value
                    for (txid, vout), value in taint.items()
                },
                at_entities=dict(at_entities),
                txs_processed=processed,
            )
        view._adopt(index, state["height"], follow)
        return view

    # -- case management ----------------------------------------------

    def watch(self, label: str, sources: list[OutPoint]) -> TaintCase:
        """Start tracking taint from the given outpoints under ``label``.

        Spends already in the chain are caught up with a batch
        propagation; subsequent blocks stream.  Re-watching a label
        replaces the case.
        """
        tracker = TaintTracker(
            self.index,
            name_of_address=self.name_of_address,
            min_taint=self.min_taint,
        )
        caught_up = tracker.propagate(list(sources), max_txs=10 ** 9)
        case = TaintCase(
            label=label,
            sources=tuple(sources),
            initial_taint=caught_up.initial_taint,
            taint=dict(caught_up.taint_by_outpoint),
            at_entities=dict(caught_up.taint_at_entities),
            txs_processed=caught_up.txs_processed,
        )
        self._cases[label] = case
        self.epoch += 1
        return case

    def watch_tx(self, label: str, txid: bytes) -> TaintCase:
        """Watch every output of one transaction (a whole theft tx)."""
        tx = self.index.tx(txid)
        return self.watch(
            label, [OutPoint(txid, vout) for vout in range(len(tx.outputs))]
        )

    def watch_txs(self, label: str, txids: list[bytes]) -> TaintCase:
        """Watch every output of several transactions as one case."""
        sources: list[OutPoint] = []
        for txid in txids:
            tx = self.index.tx(txid)
            sources.extend(OutPoint(txid, vout) for vout in range(len(tx.outputs)))
        return self.watch(label, sources)

    @property
    def labels(self) -> list[str]:
        """Watched case labels, registration-ordered."""
        return list(self._cases)

    def case(self, label: str) -> TaintCase:
        """The live case for ``label`` (``KeyError`` if unwatched)."""
        return self._cases[label]

    def result_for(self, label: str) -> TaintResult:
        """Batch-shaped result snapshot for one case."""
        return self._cases[label].as_result()


@dataclass(frozen=True, slots=True)
class ClusterActivity:
    """Aggregate activity of one cluster (Table 1 / chokepoint fodder)."""

    tx_count: int
    """Summed member incidences: a tx touching k member addresses
    counts k times (address-tx incidences, not distinct txs)."""

    first_seen: int
    last_seen: int


class ActivityView(MaterializedView):
    """Per-address tx incidence counts and first/last-seen heights.

    A transaction *involves* an address when the address appears among
    its resolved input senders or its outputs — the delta's
    pre-deduplicated :attr:`~repro.chain.delta.TxDelta.involved` list,
    read here without allocating a per-tx set.  Per-cluster rollups
    (:meth:`cluster_activity`) feed the service's ``top_clusters`` /
    ``cluster_profile`` queries.

    Kernelized by default: incidence is one ``np.add.at`` scatter of
    the delta's flat per-tx involvement multiset, first/last-seen one
    masked assignment over the block's deduplicated ids.
    ``use_kernels=False`` selects the scalar per-id reference loop.
    """

    OBSERVER_NAME = "activity"

    def __init__(
        self,
        index: ChainIndex,
        *,
        follow: bool = True,
        use_kernels: bool = True,
        metrics=None,
    ) -> None:
        self._use_kernels = use_kernels
        self._tx_counts = IntVector()
        self._first_seen = IntVector()
        self._last_seen = IntVector()
        super().__init__(index, follow=follow, metrics=metrics)

    def _apply_delta(self, delta: BlockDelta) -> None:
        height = delta.height
        counts = self._tx_counts
        first = self._first_seen
        last = self._last_seen
        if delta.max_id >= len(counts):
            n = delta.max_id + 1
            if self.metrics.enabled:
                self.metrics.counter(
                    "view.grown_slots", view=self.OBSERVER_NAME
                ).inc(n - len(counts))
            counts.grow_to(n)
            first.grow_to(n, fill=-1)
            last.grow_to(n, fill=-1)
        if self._use_kernels:
            # involved_flat repeats an id once per involving tx — the
            # incidence multiset — while first/last touch each involved
            # id once off the deduplicated column.
            np.add.at(counts.array, delta.involved_flat, 1)
            ids = delta.involved_ids
            first_arr = first.array
            seen = first_arr[ids]
            first_arr[ids] = np.where(seen < 0, height, seen)
            last.array[ids] = height
        else:
            for txd in delta.txs:
                for ident in txd.involved:
                    counts[ident] += 1
                    if first[ident] < 0:
                        first[ident] = height
                    last[ident] = height

    # -- durable state -------------------------------------------------

    def export_state(self) -> dict:
        """Plain-data state: the three dense per-id arrays.

        Version 2: raw int64 bytes per array (one buffer copy each).
        """
        return {
            "version": 2,
            "height": self._height,
            "tx_counts": self._tx_counts.tobytes(),
            "first_seen": self._first_seen.tobytes(),
            "last_seen": self._last_seen.tobytes(),
        }

    @classmethod
    def from_state(
        cls,
        index: ChainIndex,
        state: dict,
        *,
        follow: bool = True,
        use_kernels: bool = True,
        metrics=None,
    ) -> "ActivityView":
        """Rebuild a view from :meth:`export_state` output, no catch-up.

        Only the version-2 bytes shape is accepted; the pre-columnar
        version-1 list shape fails closed (rebuild cold).
        """
        _check_state_version(cls, state)
        view = cls.__new__(cls)
        view.metrics = metrics if metrics is not None else NULL_REGISTRY
        view._use_kernels = use_kernels
        view._tx_counts = IntVector.from_bytes(state["tx_counts"])
        view._first_seen = IntVector.from_bytes(state["first_seen"])
        view._last_seen = IntVector.from_bytes(state["last_seen"])
        view._adopt(index, state["height"], follow)
        return view

    # -- queries -------------------------------------------------------

    def tx_count_of_id(self, ident: int) -> int:
        """Transactions involving an address id (0 if never seen)."""
        if 0 <= ident < len(self._tx_counts):
            return self._tx_counts[ident]
        return 0

    def seen_range_of_id(self, ident: int) -> tuple[int, int] | None:
        """``(first, last)`` involvement heights, or ``None`` if unseen."""
        if 0 <= ident < len(self._first_seen) and self._first_seen[ident] >= 0:
            return self._first_seen[ident], self._last_seen[ident]
        return None
