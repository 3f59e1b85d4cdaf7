"""Batch whole-partition oracle for the cluster query kinds.

The service answers every cluster question from the differential
:class:`~repro.service.aggregates.ClusterAggregateView`: the live view
at the tip and ``view.horizon(h)`` replay for past heights.  This module
is the independent ground truth those answers are pinned against by
the property suites and the ratio benchmarks.  It rebuilds each
whole-partition aggregate (canonical ids, cluster balances, activity,
rankings, names) from scratch over the engine's partition as of the
asked height:

* at the tip it reads the tip partition plus the dense per-address
  arrays of a :class:`~repro.service.views.BalanceView` and an
  :class:`~repro.service.views.ActivityView`;
* below the tip it re-sums the balance view's per-height event log and
  re-walks the chain's block deltas up to the horizon.

Each aggregate is built once per height and shared by every query at
that height.  The oracle never reads the aggregate view.

Usage::

    oracle = BatchOracle(service.engine, service.balances,
                         service.activity, tags=service.tags)
    oracle.answer(Query("top_clusters", (10, "balance", 420)))
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.service.queries import ClusterRanking, Query, TOP_CLUSTER_METRICS
from repro.service.views import ClusterActivity
from repro.tagging.naming import top_entity

CLUSTER_KINDS = (
    "cluster_of", "cluster_balance", "top_clusters", "cluster_profile",
)


def cluster_balances(balances, partition) -> dict[int, int]:
    """``cluster root -> summed member balance`` in one array pass over
    a :class:`~repro.service.views.BalanceView`.

    ``partition`` is an
    :class:`~repro.core.clustering.InternedPartition` (or anything with
    an id-keyed ``find_root``); addresses the partition has not seen
    keep their balance out of every cluster.
    """
    find_root = partition.find_root
    out: dict[int, int] = {}
    array = balances._balances.array
    nonzero = np.nonzero(array)[0]
    for ident, balance in zip(nonzero.tolist(), array[nonzero].tolist()):
        root = find_root(ident)
        if root is None:
            continue
        out[root] = out.get(root, 0) + balance
    return out


def cluster_activity(activity, partition) -> dict[int, ClusterActivity]:
    """``cluster root -> ClusterActivity`` in one array pass over an
    :class:`~repro.service.views.ActivityView`."""
    find_root = partition.find_root
    counts: dict[int, int] = {}
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    count_arr = activity._tx_counts.array
    first_arr = activity._first_seen.array
    last_arr = activity._last_seen.array
    nonzero = np.nonzero(count_arr)[0]
    for ident, count, seen_first, seen_last in zip(
        nonzero.tolist(),
        count_arr[nonzero].tolist(),
        first_arr[nonzero].tolist(),
        last_arr[nonzero].tolist(),
    ):
        root = find_root(ident)
        if root is None:
            continue
        counts[root] = counts.get(root, 0) + count
        if root not in first or seen_first < first[root]:
            first[root] = seen_first
        if root not in last or seen_last > last[root]:
            last[root] = seen_last
    return {
        root: ClusterActivity(
            tx_count=counts[root],
            first_seen=first[root],
            last_seen=last[root],
        )
        for root in counts
    }


def _ranking(canonical: dict[int, int], metric: dict[int, int]):
    order = tuple(
        sorted(
            ((canonical[root], value) for root, value in metric.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )
    )
    rank_of = {cid: rank for rank, (cid, _value) in enumerate(order, 1)}
    return ClusterRanking(order=order, rank_of=rank_of)


class BatchOracle:
    """Cluster answers rebuilt from whole-partition batch aggregates."""

    MEMO_HEIGHTS = 8
    """Heights whose aggregates stay memoized (least recently used
    evicted): enough for a scrub that asks several kinds per horizon."""

    def __init__(self, engine, balances, activity, *, tags=None) -> None:
        self.engine = engine
        self.balances = balances
        self.activity = activity
        self.tags = tags
        self.index = engine.index
        self._memo: OrderedDict[int, dict] = OrderedDict()

    @classmethod
    def of(cls, service) -> "BatchOracle":
        """An oracle over a service's engine and sibling views."""
        return cls(
            service.engine, service.balances, service.activity,
            tags=service.tags,
        )

    @property
    def tip(self) -> int:
        return self.engine.height

    def _aggregate(self, height: int, name: str, build):
        """Build one aggregate once per height."""
        memo = self._memo
        per_height = memo.get(height)
        if per_height is None:
            per_height = memo[height] = {}
            while len(memo) > self.MEMO_HEIGHTS:
                memo.popitem(last=False)
        else:
            memo.move_to_end(height)
        if name not in per_height:
            per_height[name] = build()
        return per_height[name]

    # -- whole-partition aggregates ------------------------------------

    def clustering(self, height: int):
        if height == self.tip:
            return self.engine.cluster_as_of()
        return self.engine.cluster_as_of(height)

    def canonical(self, height: int) -> dict[int, int]:
        """Partition root -> canonical cluster id (minimum member)."""

        def build() -> dict[int, int]:
            uf = self.clustering(height).uf
            find_root = uf.find_root
            canonical: dict[int, int] = {}
            for ident in range(len(uf)):
                root = find_root(ident)
                if root not in canonical:
                    # Ids ascend, so a root's first member is its minimum.
                    canonical[root] = ident
            return canonical

        return self._aggregate(height, "canonical", build)

    def address_balances(self, height: int) -> dict[int, int]:
        """``address id -> balance`` after block ``height`` (nonzero
        entries only), re-summed from the balance view's event log."""

        def build() -> dict[int, int]:
            events_at = self.balances.events_at
            balances: dict[int, int] = {}
            for h in range(height + 1):
                for ident, change in events_at(h):
                    total = balances.get(ident, 0) + change
                    if total:
                        balances[ident] = total
                    else:
                        balances.pop(ident, None)
            return balances

        return self._aggregate(height, "address_balances", build)

    def cluster_balances(self, height: int) -> dict[int, int]:
        def build() -> dict[int, int]:
            uf = self.clustering(height).uf
            if height == self.tip:
                return cluster_balances(self.balances, uf)
            find_root = uf.find_root
            out: dict[int, int] = {}
            for ident, balance in sorted(
                self.address_balances(height).items()
            ):
                root = find_root(ident)
                if root is None:
                    continue
                out[root] = out.get(root, 0) + balance
            return out

        return self._aggregate(height, "cluster_balances", build)

    def address_activity(self, height: int):
        """Per-address ``(tx counts, first seen, last seen)`` dicts at
        ``height``, re-walked from the chain's block deltas."""

        def build():
            block_delta = self.index.block_delta
            counts: dict[int, int] = {}
            first: dict[int, int] = {}
            last: dict[int, int] = {}
            for h in range(height + 1):
                for ident in block_delta(h).involved_flat.tolist():
                    counts[ident] = counts.get(ident, 0) + 1
                    if ident not in first:
                        first[ident] = h
                    last[ident] = h
            return counts, first, last

        return self._aggregate(height, "address_activity", build)

    def cluster_activity(self, height: int) -> dict[int, ClusterActivity]:
        def build() -> dict[int, ClusterActivity]:
            uf = self.clustering(height).uf
            if height == self.tip:
                return cluster_activity(self.activity, uf)
            find_root = uf.find_root
            counts, first, last = self.address_activity(height)
            agg_counts: dict[int, int] = {}
            agg_first: dict[int, int] = {}
            agg_last: dict[int, int] = {}
            for ident in sorted(counts):
                root = find_root(ident)
                if root is None:
                    continue
                agg_counts[root] = agg_counts.get(root, 0) + counts[ident]
                seen_first = first[ident]
                seen_last = last[ident]
                if root not in agg_first or seen_first < agg_first[root]:
                    agg_first[root] = seen_first
                if root not in agg_last or seen_last > agg_last[root]:
                    agg_last[root] = seen_last
            return {
                root: ClusterActivity(
                    tx_count=agg_counts[root],
                    first_seen=agg_first[root],
                    last_seen=agg_last[root],
                )
                for root in agg_counts
            }

        return self._aggregate(height, "cluster_activity", build)

    def ranking(self, by: str, height: int | None = None) -> ClusterRanking:
        """One metric's full ranking at ``height`` (default: the tip)."""
        if by not in TOP_CLUSTER_METRICS:
            raise ValueError(
                f"ranking metric must be one of {TOP_CLUSTER_METRICS}"
            )
        height = self.tip if height is None else height

        def build() -> ClusterRanking:
            canonical = self.canonical(height)
            if by == "size":
                metric = self.clustering(height).component_sizes()
            elif by == "balance":
                metric = self.cluster_balances(height)
            else:  # activity
                metric = {
                    root: activity.tx_count
                    for root, activity in self.cluster_activity(
                        height
                    ).items()
                }
            return _ranking(canonical, metric)

        return self._aggregate(height, f"ranking:{by}", build)

    def cluster_names(self, height: int) -> dict[int, str] | None:
        """``canonical id -> name`` at ``height``, or ``None`` without
        tags (same winner rule as
        :class:`~repro.tagging.naming.ClusterNaming`)."""
        tags = self.tags
        if tags is None:
            return None

        def build() -> dict[int, str]:
            canonical = self.canonical(height)
            find_root = self.clustering(height).uf.find_root
            weights: dict[int, dict[str, float]] = {}
            for tag in tags.all_tags():
                root = find_root(tag.address)
                if root is None:
                    continue
                entity_weights = weights.setdefault(canonical[root], {})
                entity_weights[tag.entity] = (
                    entity_weights.get(tag.entity, 0.0) + tag.confidence
                )
            return {
                cid: top_entity(entity_weights)
                for cid, entity_weights in weights.items()
            }

        return self._aggregate(
            height, f"cluster_names:{len(tags)}", build
        )

    # -- answers -------------------------------------------------------

    def answer_many(self, queries: list[Query]) -> list:
        return [self.answer(query) for query in queries]

    def answer(self, query: Query):
        """The batch answer to one cluster query, in the service's
        answer shape (tip when the optional height is absent)."""
        kind, args = query.kind, query.args
        if kind not in CLUSTER_KINDS:
            raise ValueError(f"the batch oracle answers {CLUSTER_KINDS}")
        arity = 2 if kind == "top_clusters" else 1
        height = args[arity] if len(args) > arity else self.tip
        if kind == "top_clusters":
            return self._top_clusters(args[0], args[1], height)
        address = args[0]
        if kind == "cluster_profile":
            return self._profile(address, height)
        root = self.clustering(height).uf.find_root(address)
        if root is None:
            return None
        if kind == "cluster_of":
            return self.canonical(height)[root]
        return self.cluster_balances(height).get(root, 0)

    def _top_clusters(self, n: int, by: str, height: int):
        names = self.cluster_names(height)
        return tuple(
            (
                cluster_id,
                value,
                names.get(cluster_id) if names is not None else None,
            )
            for cluster_id, value in self.ranking(by, height).top(n)
        )

    def _profile(self, address: str, height: int):
        ident = self.index.interner.id_of(address)
        if ident is None:
            return None
        clustering = self.clustering(height)
        root = clustering.uf.find_root(ident)
        if root is None:
            return None
        cluster_id = self.canonical(height)[root]
        if height == self.tip:
            balance = self.balances.balance_of_id(ident)
            tx_count = self.activity.tx_count_of_id(ident)
            seen = self.activity.seen_range_of_id(ident)
        else:
            counts, first, last = self.address_activity(height)
            balance = self.address_balances(height).get(ident, 0)
            tx_count = counts.get(ident, 0)
            seen = (first[ident], last[ident]) if ident in first else None
        cluster_activity = self.cluster_activity(height).get(root)
        names = self.cluster_names(height)
        return {
            "address": address,
            "address_id": ident,
            "cluster": cluster_id,
            "cluster_size": clustering.uf.size_of(root),
            "balance": balance,
            "cluster_balance": self.cluster_balances(height).get(root, 0),
            "tx_count": tx_count,
            "first_seen": seen[0] if seen else None,
            "last_seen": seen[1] if seen else None,
            "cluster_tx_count": (
                cluster_activity.tx_count if cluster_activity else 0
            ),
            "cluster_rank": self.ranking("size", height).rank_of.get(
                cluster_id
            ),
            "name": names.get(cluster_id) if names is not None else None,
        }
