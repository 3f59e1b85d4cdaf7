"""The query API: correctness vs batch, memoization, invalidation."""

import pytest

from repro.chain.index import ChainIndex
from repro.chain.model import COIN
from repro.pipeline import AnalystView
from repro.service import ForensicsService, Query, parse_query
from repro.service.cache import QueryCache
from repro.simulation import scenarios

from tests.batch_oracle import BatchOracle
from tests.helpers import addr, build_chain, coinbase, spend


@pytest.fixture(scope="module")
def small_world():
    return scenarios.micro_economy(seed=13, n_blocks=60, n_users=8)


@pytest.fixture(scope="module")
def analyst(small_world):
    return AnalystView.build(small_world)


@pytest.fixture(scope="module")
def service(small_world, analyst):
    return ForensicsService(
        small_world.index,
        tags=analyst.tags,
        dice_addresses=analyst.dice_addresses,
    )


def _sample_addresses(index, n=40):
    interner = index.interner
    step = max(1, len(interner) // n)
    return [interner.address_of(i) for i in range(0, len(interner), step)]


class TestAnswersAgainstBatch:
    def test_cluster_of_induces_batch_partition(self, service, analyst):
        batch = analyst.clustering
        addresses = _sample_addresses(service.index)
        for a in addresses:
            for b in addresses:
                assert (
                    service.cluster_of(a) == service.cluster_of(b)
                ) == batch.same_cluster(a, b), (a, b)

    def test_balance_of_matches_records(self, service):
        for a in _sample_addresses(service.index):
            assert service.balance_of(a) == service.index.address(a).balance

    def test_cluster_balance_sums_members(self, service):
        clusters = service.clustering.clusters()
        index = service.index
        interner = index.interner
        for a in _sample_addresses(index, n=10):
            members = clusters[service.clustering.uf.find(a)]
            expected = sum(index.address(m).balance for m in members)
            assert service.cluster_balance(a) == expected
            # The public cluster id is canonical: the minimum member id.
            assert service.cluster_of(a) == min(
                interner.id_of(m) for m in members
            )

    def test_top_clusters_by_size_matches_largest_clusters(self, service):
        expected = service.clustering.largest_clusters(5)
        answered = [(root, size) for root, size, _name in service.top_clusters(5)]
        assert {s for _r, s in answered} == {s for _r, s in expected}

    def test_cluster_profile_fields(self, service):
        a = _sample_addresses(service.index, n=5)[1]
        profile = service.cluster_profile(a)
        assert profile["address"] == a
        assert profile["cluster"] == service.cluster_of(a)
        assert profile["balance"] == service.balance_of(a)
        assert profile["cluster_balance"] == service.cluster_balance(a)
        assert profile["cluster_size"] >= 1
        assert profile["tx_count"] >= 1
        assert 0 <= profile["first_seen"] <= profile["last_seen"]

    def test_unknown_address_answers(self, service):
        unknown = addr("never-on-chain")
        assert service.cluster_of(unknown) is None
        assert service.balance_of(unknown) == 0
        assert service.cluster_balance(unknown) is None
        assert service.cluster_profile(unknown) is None

    def test_trace_taint_matches_batch_result(self, service):
        from repro.analysis.taint import TaintTracker

        index = service.index
        theft_tx = next(
            tx for tx, _loc in index.iter_transactions() if not tx.is_coinbase
        )
        service.watch_theft("heist", [theft_tx.txid])
        answer = service.trace_taint("heist")
        batch = TaintTracker(
            index, name_of_address=service.taint.name_of_address
        ).propagate(
            list(service.taint.case("heist").sources), max_txs=10 ** 9
        )
        assert answer["initial_taint"] == batch.initial_taint
        assert answer["unspent_taint"] == pytest.approx(batch.unspent_taint)
        assert dict(answer["reached"]) == pytest.approx(
            batch.taint_at_entities
        )

    def test_trace_taint_unwatched_label(self, service):
        assert service.trace_taint("no-such-case") is None

    def test_answer_many_matches_individual_answers(self, service):
        addresses = _sample_addresses(service.index, n=8)
        queries = []
        for a in addresses:
            queries.append(Query("cluster_of", (a,)))
            queries.append(Query("balance_of", (a,)))
            queries.append(Query("cluster_profile", (a,)))
        queries.append(Query("top_clusters", (5, "balance")))
        batch_answers = service.answer_many(queries)
        assert len(batch_answers) == len(queries)
        for query, answer in zip(queries, batch_answers):
            assert service.answer(query) == answer

    def test_unknown_kind_rejected(self, service):
        with pytest.raises(ValueError, match="unknown query kind"):
            service.answer(Query("who_is", ("x",)))


class TestCacheBehaviour:
    def _service_over(self, target):
        return ForensicsService(target)

    def _streaming_world(self):
        cb = coinbase(addr("q/a"))
        pay = spend(
            [(cb, 0)],
            [(addr("q/b"), 30 * COIN), (addr("q/c"), 20 * COIN)],
        )
        sweep = spend([(pay, 0)], [(addr("q/d"), 30 * COIN)])
        return build_chain([[cb], [pay], [sweep]])

    def test_repeat_query_hits_cache(self):
        source = self._streaming_world()
        service = self._service_over(source)
        query = Query("cluster_profile", (addr("q/b"),))
        first = service.answer(query)
        hits_before = service.cache.hits
        assert service.answer(query) is first  # memo: identical object
        assert service.cache.hits == hits_before + 1

    def test_new_block_invalidates(self):
        source = self._streaming_world()
        target = ChainIndex()
        service = self._service_over(target)
        target.add_block(source.block_at(0))
        target.add_block(source.block_at(1))
        assert service.balance_of(addr("q/b")) == 30 * COIN
        # New block spends q/b's coin: the old answer must not be served.
        target.add_block(source.block_at(2))
        assert service.balance_of(addr("q/b")) == 0
        assert service.balance_of(addr("q/d")) == 30 * COIN
        # The stale entry still exists under the old height key — usable
        # for time-travel-style repeats, never for the new tip.
        assert (1, Query("balance_of", (addr("q/b"),))) in service.cache
        assert (2, Query("balance_of", (addr("q/b"),))) in service.cache

    def test_watch_at_unchanged_tip_invalidates_taint_answers(self):
        source = self._streaming_world()
        service = self._service_over(source)
        assert service.trace_taint("loot") is None  # cached: unwatched
        pay_txid = source.block_at(1).transactions[1].txid
        service.watch_theft("loot", [pay_txid])
        # Same height, but the watch set changed: no stale None.
        answer = service.trace_taint("loot")
        assert answer is not None
        assert answer["initial_taint"] == 50 * COIN

    def test_aggregates_rebuilt_after_new_block(self):
        source = self._streaming_world()
        target = ChainIndex()
        service = self._service_over(target)
        target.add_block(source.block_at(0))
        target.add_block(source.block_at(1))
        top_before = service.top_clusters(3, by="balance")
        target.add_block(source.block_at(2))
        top_after = service.top_clusters(3, by="balance")
        balances_before = dict(
            (root, value) for root, value, _ in top_before
        )
        balances_after = dict(
            (root, value) for root, value, _ in top_after
        )
        assert balances_before != balances_after

    def test_lru_eviction(self):
        cache = QueryCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "a" not in cache
        assert cache.lookup("b") == (True, 2)
        assert cache.hit_rate == 1.0
        assert cache.lookup("a") == (False, None)  # evicted
        assert cache.hit_rate == 0.5

    def test_cache_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            QueryCache(maxsize=0)


class TestSharedRankingIndex:
    """top_clusters and cluster_profile share one sorted index per
    (height, metric) — the aggregate view's per-metric
    :class:`~repro.service.aggregates.RankIndex` — instead of re-ranking
    per distinct (n, by) pair; every ranking equals the batch oracle's
    (tests/batch_oracle.py)."""

    def test_distinct_n_share_one_ranking(self, small_world):
        service = ForensicsService(small_world.index)
        five = service.top_clusters(5, by="size")
        misses_after_build = service.cache.misses
        ten = service.top_clusters(10, by="size")
        twenty = service.top_clusters(20, by="size")
        # Different n answers are prefixes of the same shared order...
        assert ten[:5] == five
        assert twenty[:10] == ten
        assert [
            (cid, value) for cid, value, _name in twenty
        ] == list(BatchOracle.of(service).ranking("size").top(20))
        # ...and nothing but the new (n, by) answer keys missed.
        assert service.cache.misses == misses_after_build + 2

    def test_each_metric_gets_its_own_ranking(self, small_world):
        service = ForensicsService(small_world.index)
        oracle = BatchOracle.of(service)
        for by in ("size", "balance", "activity"):
            answered = service.top_clusters(3, by=by)
            assert answered
            assert [
                (cid, value) for cid, value, _name in answered
            ] == list(oracle.ranking(by).top(3))
            assert service.aggregates.ranking(by) == oracle.ranking(by)

    def test_ranking_matches_direct_sort(self, small_world):
        service = ForensicsService(small_world.index)
        uf = service.clustering.uf
        canonical: dict[int, int] = {}
        for ident in range(len(uf)):
            canonical.setdefault(uf.find_root(ident), ident)
        sizes = {
            canonical[root]: size
            for root, size in service.clustering.component_sizes().items()
        }
        expected = sorted(sizes.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
        answered = [
            (cid, value) for cid, value, _name in service.top_clusters(8)
        ]
        assert answered == expected

    def test_profile_rank_reads_shared_index(self, small_world):
        service = ForensicsService(small_world.index)
        ranked = service.top_clusters(1, by="size")
        top_cluster = ranked[0][0]
        # The canonical id is itself a member id of the cluster.
        member = small_world.index.interner.address_of(top_cluster)
        profile = service.cluster_profile(member)
        assert profile["cluster_rank"] == 1
        assert profile["cluster"] == top_cluster
        assert profile == BatchOracle.of(service).answer(
            Query("cluster_profile", (member,))
        )

    def test_unknown_metric_still_rejected(self, small_world):
        service = ForensicsService(small_world.index)
        with pytest.raises(ValueError, match="metric"):
            service.answer(Query("top_clusters", (3, "charisma")))

    @pytest.mark.parametrize("n", [-1, 2.5, True, "3"])
    def test_bad_count_rejected(self, n):
        """A negative count would slice off the ranking's tail (411 of
        412 clusters for ``n=-1``) and a float would raise ``TypeError``
        from the slice; both are client errors."""
        world = scenarios.micro_economy(seed=3)
        service = ForensicsService(world.index)
        for args in ((n, "size"), (n, "size", 0)):
            with pytest.raises(ValueError, match="count"):
                service.answer(Query("top_clusters", args))
        assert service.answer(Query("top_clusters", (0, "size"))) == ()


class TestParsing:
    def test_parse_address_queries(self):
        assert parse_query(["cluster-of", "1abc"]) == Query(
            "cluster_of", ("1abc",)
        )
        assert parse_query(["balance_of", "1abc"]) == Query(
            "balance_of", ("1abc",)
        )

    def test_parse_top_clusters_defaults(self):
        assert parse_query(["top-clusters"]) == Query("top_clusters", (10, "size"))
        assert parse_query(["top-clusters", "5", "balance"]) == Query(
            "top_clusters", (5, "balance")
        )
        with pytest.raises(ValueError, match="metric"):
            parse_query(["top-clusters", "5", "bogus"])

    def test_parse_taint_label_rejoined(self):
        assert parse_query(["trace-taint", "Silk", "Road", "seizure"]) == Query(
            "trace_taint", ("Silk Road seizure",)
        )

    def test_parse_rejects_bad_top_count(self):
        with pytest.raises(ValueError, match="count"):
            parse_query(["top-clusters", "-1"])
        with pytest.raises(ValueError):
            parse_query(["top-clusters", "2.5", "size"])

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_query([])
        with pytest.raises(ValueError):
            parse_query(["cluster-of"])
        with pytest.raises(ValueError, match="unknown query kind"):
            parse_query(["frobnicate", "x"])
