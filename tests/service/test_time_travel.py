"""Replayed horizons == the batch oracle, for every kind at every height.

The time-travel contract behind the per-height aggregate delta log:
``top_clusters`` / ``cluster_profile`` / ``cluster_balance`` /
``cluster_of`` at any ``height <= tip``, served by replaying a sparse
checkpoint forward, must answer byte-equal to the batch oracle's
whole-partition rebuild as of that height (``tests/batch_oracle.py``).  The hypothesis case randomizes the scenario,
so the sweep covers H1-only heights, open-overlay horizons (a §4.2
window mid-flight at ``h``), voids, expiries, and base merges landing
between checkpoints; the restore case pins the same equality after a
manifest-v4 snapshot round trip, whose ``time_travel`` segment seeds
the replay base from serialized arrays rather than a live fold.

A second class pins the naming-epoch cache key (the staleness fix that
rides along with this log): name-bearing kinds re-key when a
structural naming drain bumps the epoch at an unchanged tip, so a
merge can never keep serving a pre-merge cluster name out of the
query cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.blockfile import BlockFileWriter
from repro.chain.index import ChainIndex
from repro.chain.model import COIN
from repro.service import ForensicsService, Query
from repro.service.queries import TOP_CLUSTER_METRICS
from repro.simulation import scenarios
from repro.storage import StateStore

from tests.batch_oracle import BatchOracle
from tests.helpers import addr, build_chain, coinbase, spend


def historical_queries(index, height: int) -> list[Query]:
    """Every historical kind at one height, over a spread of addresses."""
    queries = [
        Query("top_clusters", (8, by, height)) for by in TOP_CLUSTER_METRICS
    ]
    interner = index.interner
    step = max(1, len(interner) // 5)
    for ident in range(0, len(interner), step):
        address = interner.address_of(ident)
        for kind in ("cluster_of", "cluster_balance", "cluster_profile"):
            queries.append(Query(kind, (address, height)))
    return queries


def assert_replay_equals_batch(fast, base) -> None:
    """Exhaustive sweep: the service and the oracle answer every
    historical kind at every height, and every answer pair is
    repr-equal (exact values, exact ranking order, exact names — not
    merely shape-compatible)."""
    assert fast.height == base.tip
    assert fast.aggregates.covers(0)
    for height in range(fast.height + 1):
        for query in historical_queries(fast.index, height):
            assert repr(fast.answer(query)) == repr(base.answer(query)), (
                height,
                query,
            )


class TestReplayedEqualsBatchAtEveryHeight:
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n_blocks=st.integers(min_value=6, max_value=20),
        n_users=st.integers(min_value=3, max_value=6),
    )
    def test_random_scenarios(self, seed, n_blocks, n_users):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        fast = ForensicsService.from_world(world)
        base = BatchOracle.of(ForensicsService.from_world(world))
        assert_replay_equals_batch(fast, base)

    def test_micro_world_with_tags(self, micro_world):
        """Naming in play: historical top-cluster rows and profiles
        carry as-of-height cluster names on both paths."""
        fast = ForensicsService.from_world(micro_world)
        base = BatchOracle.of(ForensicsService.from_world(micro_world))
        assert_replay_equals_batch(fast, base)


class TestReplayedEqualsBatchAfterRestore:
    def test_every_height_after_v4_round_trip(self, tmp_path):
        """Snapshot -> restore -> the restored replay path answers every
        historical kind at every height equal to the batch oracle over a
        service that never restarted."""
        world = scenarios.micro_economy(seed=5, n_blocks=20, n_users=5)
        BlockFileWriter(tmp_path / "blocks").write_chain(world.blocks)
        store = StateStore(tmp_path / "snapshots")
        fast = ForensicsService.from_world(world)
        assert fast.aggregates.covers(0)
        # Warm one horizon before the snapshot so the export is taken
        # from a view whose replay machinery has actually run.
        assert fast.cluster_profile(
            world.index.interner.address_of(0), height=fast.height // 2
        )
        store.snapshot(fast)

        restored = store.restore(follow=False)
        base = BatchOracle.of(ForensicsService.from_world(world))
        assert_replay_equals_batch(restored, base)


class TestNamingEpochCacheKeys:
    """The staleness regression: name-bearing kinds must re-key when the
    aggregate view's naming epoch moves, even at an unchanged tip."""

    def _service(self):
        cb_a = coinbase(addr("epoch/a"))
        cb_b = coinbase(addr("epoch/b"))
        merge = spend(
            [(cb_a, 0), (cb_b, 0)], [(addr("epoch/c"), 80 * COIN)]
        )
        source = build_chain([[cb_a], [cb_b], [merge]])
        target = ChainIndex()
        service = ForensicsService(target)
        for height in range(3):
            target.add_block(source.block_at(height))
        return service

    def test_epoch_bump_re_keys_name_bearing_kinds(self):
        service = self._service()
        engine = service.queries
        view = service.aggregates
        named = [
            Query("top_clusters", (5, "size")),
            Query("cluster_profile", (addr("epoch/a"),)),
        ]
        for query in named:
            before = engine._cache_key(query)
            view.naming_epoch += 1
            assert engine._cache_key(query) != before, query.kind
        # Name-free kinds stay keyed on the tip alone.
        unnamed = Query("cluster_balance", (addr("epoch/a"),))
        before = engine._cache_key(unnamed)
        view.naming_epoch += 1
        assert engine._cache_key(unnamed) == before

    def test_epoch_bump_forces_recompute_at_unchanged_tip(self):
        service = self._service()
        query = Query("top_clusters", (5, "size"))
        first = service.answer(query)
        # The first answer drains naming churn (which may bump the
        # epoch); from here the key is stable, so a repeat is a pure hit.
        service.answer(query)
        hits = service.cache.hits
        assert service.answer(query) == first
        assert service.cache.hits == hits + 1
        # An epoch bump at the same tip invalidates: the repeat misses
        # (recomputes against current names) instead of serving the
        # pre-drain entry.
        misses = service.cache.misses
        service.aggregates.naming_epoch += 1
        assert service.answer(query) == first
        assert service.cache.misses == misses + 1
