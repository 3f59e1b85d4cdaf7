"""Array-backed durable state: bytes round-trips and legacy shapes.

The snapshot layout stores every dense per-id array as one raw
little-endian int64 buffer.  Three contracts are pinned here:

* **byte-equal round trip** — ``export_state`` → ``from_state`` →
  ``export_state`` reproduces the original payload bit for bit, for
  every array-backed component (union-find, balance/activity views,
  cluster aggregates);
* **legacy shapes fail closed** — the pre-columnar state dicts (plain
  Python lists, no ``version`` key) are refused by every ``from_state``
  with a ``ValueError``, never half-restored;
* **manifest gate** — only the current manifest version (4) reads;
  versions 2 and 3, and anything unknown, fail closed with a hint to
  rebuild cold.
"""

import json

import pytest

from repro.chain.index import ChainIndex
from repro.core.incremental import IncrementalClusteringEngine
from repro.core.union_find import IntUnionFind
from repro.service.aggregates import ClusterAggregateView, TOP_CLUSTER_METRICS
from repro.service.views import ActivityView, BalanceView
from repro.simulation import large_scale_blocks
from repro.storage.errors import SnapshotIntegrityError
from repro.storage.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    SUPPORTED_VERSIONS,
    read_manifest,
)


@pytest.fixture(scope="module")
def streamed():
    """One small high-merge chain streamed into every fold consumer."""
    index = ChainIndex()
    engine = IncrementalClusteringEngine(index)
    balances = BalanceView(index)
    activity = ActivityView(index)
    aggregates = ClusterAggregateView(index, engine=engine)
    for block in large_scale_blocks(30, seed=7):
        index.add_block(block)
    assert aggregates.cluster_count > 0  # force the flush
    return index, engine, balances, activity, aggregates


class TestByteEqualRoundTrip:
    def test_union_find(self, streamed):
        _index, engine, *_ = streamed
        state = engine._uf.export_state()
        assert isinstance(state["parent"], bytes)
        restored = IntUnionFind.from_state(state)
        assert restored.export_state() == state
        assert restored.component_sizes() == engine._uf.component_sizes()

    def test_balance_view(self, streamed):
        index, _engine, balances, *_ = streamed
        state = balances.export_state()
        assert state["version"] == 2
        assert isinstance(state["balances"], bytes)
        restored = BalanceView.from_state(index, state, follow=False)
        assert restored.export_state() == state

    def test_activity_view(self, streamed):
        index, _engine, _balances, activity, _aggregates = streamed
        state = activity.export_state()
        assert isinstance(state["tx_counts"], bytes)
        restored = ActivityView.from_state(index, state, follow=False)
        assert restored.export_state() == state

    def test_aggregate_view(self, streamed):
        index, engine, _balances, _activity, aggregates = streamed
        state = aggregates.export_state()
        assert isinstance(state["balance"], bytes)
        timetravel = aggregates.export_time_travel()
        restored = ClusterAggregateView.from_state(
            index, state, timetravel, engine=engine, follow=False
        )
        assert restored.export_state() == state
        assert restored.export_time_travel() == timetravel
        for metric in TOP_CLUSTER_METRICS:
            assert restored.ranking(metric) == aggregates.ranking(metric)


class TestLegacyShapesRestore:
    """Version-1 snapshots carried Python lists.  Nobody holds them and
    the chain re-derives every state, so each ``from_state`` refuses
    the list shape outright instead of restoring it."""

    def test_union_find_list_state(self, streamed):
        _index, engine, *_ = streamed
        uf = engine._uf
        legacy = {
            "parent": [uf._parent[i] for i in range(len(uf))],
            "size": [uf._size[i] for i in range(len(uf))],
            "components": uf.component_count,
            "log": [list(entry) for entry in uf.log_prefix(uf.checkpoint())],
        }
        with pytest.raises(ValueError, match="rebuild cold"):
            IntUnionFind.from_state(legacy)

    def test_union_find_rejects_misaligned_lists(self):
        with pytest.raises(ValueError):
            IntUnionFind.from_state(
                {"parent": [0, 1], "size": [1], "components": 2, "log": []}
            )
        # The bytes shape keeps its own alignment check.
        with pytest.raises(ValueError, match="misaligned"):
            IntUnionFind.from_state(
                {
                    "parent": bytes(16),
                    "size": bytes(8),
                    "components": 2,
                    "log": b"",
                }
            )

    def test_balance_view_v1_state(self, streamed):
        index, _engine, balances, *_ = streamed
        v1 = {
            "height": balances.height,
            "balances": balances._balances.tolist(),
            "events": [
                balances.events_at(h) for h in range(balances.height + 1)
            ],
            "coinbase": [
                balances.coinbase_at(h) for h in range(balances.height + 1)
            ],
            "supply": [
                balances.supply_at(h) for h in range(balances.height + 1)
            ],
        }
        with pytest.raises(ValueError, match="rebuild cold"):
            BalanceView.from_state(index, v1, follow=False)

    def test_activity_view_v1_state(self, streamed):
        index, _engine, _balances, activity, _aggregates = streamed
        v1 = {
            "height": activity.height,
            "tx_counts": activity._tx_counts.tolist(),
            "first_seen": activity._first_seen.tolist(),
            "last_seen": activity._last_seen.tolist(),
        }
        with pytest.raises(ValueError, match="rebuild cold"):
            ActivityView.from_state(index, v1, follow=False)

    def test_aggregate_view_v1_state(self, streamed):
        index, engine, _balances, _activity, aggregates = streamed
        v1 = {
            "height": aggregates.height,
            "balance": aggregates._balance.tolist(),
            "tx_count": aggregates._tx_count.tolist(),
            "first_seen": aggregates._first.tolist(),
            "last_seen": aggregates._last.tolist(),
            "min_member": aggregates._min_member.tolist(),
        }
        with pytest.raises(ValueError, match="rebuild cold"):
            ClusterAggregateView.from_state(
                index, v1, aggregates.export_time_travel(), engine=engine,
                follow=False,
            )


class TestManifestVersionGate:
    def test_only_current_version_supported(self):
        assert MANIFEST_VERSION == 4
        assert SUPPORTED_VERSIONS == {4}

    def _snapshot_dir(self, tmp_path):
        from repro.service import ForensicsService
        from repro.storage import StateStore

        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        for block in large_scale_blocks(4, seed=1):
            index.add_block(block)
        store = StateStore(tmp_path / "snapshots")
        return store.snapshot(service)

    def _rewrite_version(self, directory, version):
        path = directory / MANIFEST_NAME
        raw = json.loads(path.read_text())
        raw["format_version"] = version
        path.write_text(json.dumps(raw))

    def test_version_2_and_3_manifests_fail_closed(self, tmp_path):
        """Pre-v4 snapshots carry no time-travel log; they are refused
        (the store skips them, a restore finds none) with the version
        named and a hint to rebuild cold."""
        from repro.storage import NoSnapshotError, StateStore

        directory = self._snapshot_dir(tmp_path)
        store = StateStore(tmp_path / "snapshots")
        for version in (2, 3):
            self._rewrite_version(directory, version)
            with pytest.raises(
                SnapshotIntegrityError,
                match=f"unsupported format version {version}.*rebuild cold",
            ):
                read_manifest(directory)
            assert store.snapshots() == []
            with pytest.raises(NoSnapshotError):
                store.restore()

    def test_unknown_version_fails_closed(self, tmp_path):
        directory = self._snapshot_dir(tmp_path)
        self._rewrite_version(directory, 99)
        with pytest.raises(SnapshotIntegrityError):
            read_manifest(directory)
