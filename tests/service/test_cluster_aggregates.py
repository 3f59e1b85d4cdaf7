"""Differential cluster aggregates == the batch oracle, per height.

Stream a world's chain block by block with the
:class:`ClusterAggregateView` folding deltas, and at *every* height
compare its state against the batch full rebuild over the tip partition
(``tests/batch_oracle.py``) — per-cluster balances, activity, sizes,
and the complete :class:`ClusterRanking` order for every metric in
``TOP_CLUSTER_METRICS``.  Cluster identity is canonical (minimum member
address id), so equality here is exact object equality, not merely
shape-compatible.

The hypothesis case randomizes the simulated scenario (seed, length,
roster size), so the sweep covers H1-only blocks, H2 births, §4.2 wait
voids, window expiries, and merges folding previously independent
aggregates — under ``HYPOTHESIS_PROFILE=nightly`` it runs hundreds of
worlds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.chain.index import ChainIndex
from repro.service import ForensicsService, Query
from repro.service.aggregates import RankIndex
from repro.service.queries import TOP_CLUSTER_METRICS
from repro.simulation import large_scale_blocks, scenarios

from tests.batch_oracle import BatchOracle


def assert_view_equals_batch(service):
    view = service.aggregates
    assert view.height == service.height
    oracle = BatchOracle.of(service)
    tip = service.height
    for by in TOP_CLUSTER_METRICS:
        assert view.ranking(by) == oracle.ranking(by)
    canonical = oracle.canonical(tip)
    balances = oracle.cluster_balances(tip)
    activity = oracle.cluster_activity(tip)
    for root, size in oracle.clustering(tip).component_sizes().items():
        cid = canonical[root]
        assert view.size_of_cluster(cid) == size
        assert view.balance_of_cluster(cid) == balances.get(root, 0)
        assert view.activity_of_cluster(cid) == activity.get(root)


class TestDifferentialEqualsBatchAtEveryHeight:
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n_blocks=st.integers(min_value=6, max_value=30),
        n_users=st.integers(min_value=3, max_value=8),
    )
    def test_random_scenarios(self, seed, n_blocks, n_users):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        for block in world.blocks:
            target.add_block(block)
            assert_view_equals_batch(service)

    def test_default_world_with_tags(self, micro_world):
        """One full-roster streamed pass with naming in play: every
        cluster-level answer is byte-equal between the differential
        view and the batch oracle, at every height."""
        attack = micro_world.extras.get("attack")
        tags = attack.tags if attack is not None else None
        diff_index = ChainIndex()
        diff = ForensicsService(diff_index, tags=tags)
        batch = BatchOracle.of(diff)
        for block in micro_world.blocks[:48]:
            diff_index.add_block(block)
            for by in TOP_CLUSTER_METRICS:
                query = Query("top_clusters", (20, by))
                assert repr(diff.answer(query)) == repr(batch.answer(query))
            interner = diff_index.interner
            for ident in range(0, len(interner), 9):
                address = interner.address_of(ident)
                for kind in (
                    "cluster_of",
                    "cluster_balance",
                    "cluster_profile",
                ):
                    query = Query(kind, (address,))
                    assert repr(diff.answer(query)) == repr(
                        batch.answer(query)
                    ), (block.height, kind, address)


class TestRankIndexBackings:
    """:meth:`RankIndex.apply` keeps two backings: a bulk batch stores
    lexsorted columns, a small one edits a sorted key list that is
    created on the first small mutation."""

    def test_bulk_first_flush_then_per_block_flushes(self):
        """A coalesced first flush over a 40-block prefix takes the bulk
        (array) branch for every metric; each later per-block flush
        takes the small (list) branch.  The view equals the oracle at
        every height across the switch."""
        blocks = list(large_scale_blocks(70, seed=11))
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        for block in blocks[:40]:
            target.add_block(block)
        assert view.pending_blocks == 40
        assert_view_equals_batch(service)
        for by in TOP_CLUSTER_METRICS:
            rank_index = view._ranks[by]
            assert rank_index._neg is not None, by
            assert len(rank_index) >= 8 * 64, by  # large enough to matter
        for block in blocks[40:]:
            target.add_block(block)
            assert_view_equals_batch(service)
        for by in TOP_CLUSTER_METRICS:
            rank_index = view._ranks[by]
            assert rank_index._neg is None, by
            assert len(rank_index._keys) == len(rank_index._values) > 0

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 300), max_size=40),
                st.dictionaries(
                    st.integers(0, 300), st.integers(1, 9), max_size=200
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_apply_equals_sorted_reference(self, batches):
        """Any mix of bulk and small batches serves exactly the order a
        from-scratch sort of the surviving ``(id, value)`` map gives."""
        rank_index = RankIndex()
        reference: dict[int, int] = {}
        for discards, updates in batches:
            rank_index.apply(discards, list(updates.items()))
            for cluster_id in discards:
                reference.pop(cluster_id, None)
            reference.update(updates)
            order = sorted(reference.items(), key=lambda kv: (-kv[1], kv[0]))
            assert rank_index.top(len(order) + 1) == tuple(order)
            for rank, (cluster_id, _value) in enumerate(order, 1):
                assert rank_index.rank_of(cluster_id) == rank


class TestIncrementalClusterNames:
    def test_incremental_names_equal_full_rebuild_at_every_height(
        self, micro_world
    ):
        """The live-view naming path patches its name map from the
        view's dirty-root drain; at every height it must equal a
        from-scratch build (fresh QueryEngine, empty naming state) —
        merges, group dissolutions, and voids included."""
        from repro.service.queries import QueryEngine

        attack = micro_world.extras.get("attack")
        tags = attack.tags if attack is not None else None
        assert tags is not None and len(tags) > 0
        target = ChainIndex()
        service = ForensicsService(target, tags=tags)
        for block in micro_world.blocks[:80]:
            target.add_block(block)
            incremental = service.queries._cluster_names()
            # Fresh engine: no cached placements, full build.  Runs
            # after the incremental build so it cannot steal the
            # single-consumer dirty drain.
            full = QueryEngine(service)._build_cluster_names()
            assert incremental == full, block.height

    def test_tags_added_after_first_build_are_picked_up(self, micro_world):
        """The tag store is append-only but live: a tag added after the
        first name build must flow into later heights on the live-view
        path (the entries snapshot rebuilds on count change)."""
        from repro.tagging.tags import Tag

        attack = micro_world.extras.get("attack")
        tags = attack.tags if attack is not None else None
        target = ChainIndex()
        service = ForensicsService(target, tags=tags)
        blocks = micro_world.blocks
        for block in blocks[:30]:
            target.add_block(block)
        before = service.queries._cluster_names()
        # Tag an address that already has a cluster but no name yet.
        interner = target.interner
        named_cids = set(before)
        victim = None
        for ident in range(len(interner)):
            cid = service.aggregates.cluster_id_of(ident)
            if cid is not None and cid not in named_cids:
                victim = interner.address_of(ident)
                break
        assert victim is not None
        tags.add(Tag(address=victim, entity="Late Entity", source="user",
                     confidence=1.0))
        target.add_block(blocks[30])
        after = service.queries._cluster_names()
        late_cid = service.aggregates.cluster_id_of(interner.id_of(victim))
        assert after.get(late_cid) == "Late Entity"
        # And the incremental state stays equal to a full rebuild.
        from repro.service.queries import QueryEngine

        assert after == QueryEngine(service)._build_cluster_names()


class TestMergeHookAndTimeTravel:
    def test_view_survives_interleaved_time_travel(self, micro_world):
        """The engine's snapshot()/cluster_as_of() brackets roll its
        merge log back and forth between blocks; the view's per-height
        deltas must be immune (the brackets restore the log exactly)."""
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        for block in micro_world.blocks[:36]:
            target.add_block(block)
            height = block.height
            # Exercise rollback/replay across the whole clustered range.
            service.engine.snapshot(height // 2)
            service.engine.cluster_as_of(max(0, height - 3))
            service.top_clusters(5, by="balance")
        assert_view_equals_batch(service)

    def test_view_requires_engine_ahead(self, micro_world):
        """Attaching the view to an index the engine does not follow
        fails loudly instead of folding stale deltas."""
        source = micro_world.index
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        service.engine.detach()
        with pytest.raises(ValueError, match="attach ClusterAggregateView"):
            target.add_block(source.block_at(0))

    def test_fold_retraction_refused(self, micro_world):
        """The view's base partition is never rolled back; a retraction
        surfacing at its merge cursor is a bug, not a silent unfold.
        Folding is lazily flushed, so the refusal surfaces on the first
        query after the rollback, not inside ``add_block``."""
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        fed = 0
        for block in micro_world.blocks:
            target.add_block(block)
            view.cluster_count  # flush the queued block
            fed += 1
            if view._uf.checkpoint() > 0:  # some base merges happened
                break
        assert view._uf.checkpoint() > 0
        view._uf.rollback(0)
        target.add_block(micro_world.index.block_at(fed))
        with pytest.raises(RuntimeError, match="rolled back"):
            view.cluster_count


class TestFallbackBelowLiveHeight:
    """There is no second serving path: a view that stopped following
    the chain cannot answer cluster questions at all."""

    def test_detached_view_raises(self, micro_world):
        """A view frozen below the tip must not serve stale rankings or
        stale history: every cluster kind raises a clear error, while
        the kinds that do not read the view keep answering."""
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        for block in micro_world.blocks[:20]:
            target.add_block(block)
        service.aggregates.detach()
        for block in micro_world.blocks[20:24]:
            target.add_block(block)
        assert service.aggregates.height == 19
        assert service.height == 23
        address = target.interner.address_of(0)
        for query in (
            Query("top_clusters", (10, "size")),
            Query("top_clusters", (10, "size", 5)),
            Query("cluster_of", (address,)),
            Query("cluster_balance", (address, 5)),
            Query("cluster_profile", (address,)),
        ):
            with pytest.raises(RuntimeError, match="detached"):
                service.answer(query)
        assert service.balance_of(address) == target.address(address).balance

    def test_stats_report_cluster_count_only_when_live(self, micro_world):
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        for block in micro_world.blocks[:10]:
            target.add_block(block)
        live = service.stats()
        assert live["clusters"] == service.aggregates.cluster_count > 0
        service.aggregates.detach()
        target.add_block(micro_world.index.block_at(10))
        assert service.stats()["clusters"] is None


class TestDirtyRootCursors:
    """Per-cursor dirty-root delivery: multiple naming consumers (the
    query engine's name aggregate, the invariant auditor) each observe
    every dirty root exactly once, without starving one another."""

    def _stream(self, world, n_blocks, *hooks):
        """Stream ``n_blocks``, invoking each hook after every block;
        returns the service."""
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        for block in world.blocks[:n_blocks]:
            target.add_block(block)
            for hook in hooks:
                hook(service.aggregates)
        return service

    def test_two_cursors_both_observe_all_dirty_roots(self, micro_world):
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        first = view.naming_cursor()
        second = view.naming_cursor()
        seen_first: set[int] = set()
        seen_second: set[int] = set()
        for block in micro_world.blocks[:30]:
            target.add_block(block)
            # Interleave drain cadences: first drains per block, second
            # every third block — the backlog must still be complete.
            seen_first |= view.drain_naming_dirty(first)
            if block.height % 3 == 2:
                seen_second |= view.drain_naming_dirty(second)
        seen_second |= view.drain_naming_dirty(second)
        assert seen_first == seen_second
        assert seen_first  # folds happened; churn was reported

    def test_drain_clears_only_the_draining_cursor(self, micro_world):
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        first = view.naming_cursor()
        second = view.naming_cursor()
        for block in micro_world.blocks[:30]:
            target.add_block(block)
        drained = view.drain_naming_dirty(first)
        assert drained
        assert view.drain_naming_dirty(first) == set()
        # The other consumer still holds its full backlog.
        assert view.drain_naming_dirty(second) == drained

    def test_cursorless_drain_keeps_working(self, micro_world):
        """The pre-cursor single-consumer API: drains with no cursor
        argument share one lazily registered default cursor."""
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        for block in micro_world.blocks[:30]:
            target.add_block(block)
        drained = view.drain_naming_dirty()
        assert drained
        assert view.drain_naming_dirty() == set()

    def test_released_cursor_stops_accumulating(self, micro_world):
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        cursor = view.naming_cursor()
        for block in micro_world.blocks[:8]:
            target.add_block(block)
        view.release_naming_cursor(cursor)
        view.drain_naming_dirty()  # distributes pending to cursors
        assert cursor.dirty == set()

    def test_new_cursor_sees_only_future_churn(self, micro_world):
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        for block in micro_world.blocks[:12]:
            target.add_block(block)
        view.drain_naming_dirty()  # flush + distribute everything so far
        late = view.naming_cursor()
        assert view.drain_naming_dirty(late) == set()

    def test_query_names_and_auditor_coexist(self, micro_world):
        """End to end: the query engine's incremental name aggregate and
        a strict auditor both follow naming churn through their own
        cursors, and the incremental name map still equals a
        from-scratch build at every audited height."""
        from repro.obs import InvariantAuditor
        from repro.service.queries import QueryEngine

        attack = micro_world.extras.get("attack")
        tags = attack.tags if attack is not None else None
        target = ChainIndex()
        service = ForensicsService(target, tags=tags)
        auditor = InvariantAuditor(service, audit_every=5, strict=True)
        for block in micro_world.blocks[:40]:
            target.add_block(block)
            incremental = service.queries._cluster_names()
            assert incremental == QueryEngine(
                service
            )._build_cluster_names(), block.height
        assert auditor.audits_run == 8
        assert auditor.total_violations == 0
