"""Kernelized folds == scalar reference folds, at every height.

The vectorized fold kernels (``np.add.at`` scatters in the balance and
activity views, the batched per-flush churn fold in the cluster
aggregate view) must change *nothing but speed*: each test streams one
chain into paired kernel/scalar twins and compares their observable
state — balances, incidence counts, first/last-seen, per-root
aggregates, rankings — block by block.

Chains come from the large-scale generator (dense co-spends, heavy
merging, fresh-address churn) with hypothesis-drawn shape parameters,
so the comparison sweeps many fold orders, merge patterns, and flush
cadences rather than one golden scenario.
"""

from hypothesis import given, settings, strategies as st

from repro.chain.index import ChainIndex
from repro.core.incremental import IncrementalClusteringEngine
from repro.service.aggregates import ClusterAggregateView, TOP_CLUSTER_METRICS
from repro.service.views import ActivityView, BalanceView
from repro.simulation import large_scale_blocks

from tests.batch_oracle import cluster_balances


def _chain(seed, n_blocks, txs_per_block, reuse):
    return list(
        large_scale_blocks(
            n_blocks,
            seed=seed,
            txs_per_block=txs_per_block,
            outputs_per_tx=3,
            reuse_probability=reuse,
        )
    )


_SHAPES = {
    "seed": st.integers(0, 2**16),
    "n_blocks": st.integers(2, 25),
    "txs_per_block": st.integers(1, 6),
    "reuse": st.floats(0.0, 0.9),
}


class TestViewKernelsMatchScalar:
    @settings(max_examples=20, deadline=None)
    @given(**_SHAPES)
    def test_balance_and_activity_twins_agree_at_every_height(
        self, seed, n_blocks, txs_per_block, reuse
    ):
        index = ChainIndex()
        bal_k = BalanceView(index, use_kernels=True)
        bal_s = BalanceView(index, use_kernels=False)
        act_k = ActivityView(index, use_kernels=True)
        act_s = ActivityView(index, use_kernels=False)
        for block in _chain(seed, n_blocks, txs_per_block, reuse):
            index.add_block(block)
            assert bal_k.supply == bal_s.supply
            assert bal_k._balances.tolist() == bal_s._balances.tolist()
            assert act_k._tx_counts.tolist() == act_s._tx_counts.tolist()
            assert act_k._first_seen.tolist() == act_s._first_seen.tolist()
            assert act_k._last_seen.tolist() == act_s._last_seen.tolist()

    @settings(max_examples=20, deadline=None)
    @given(**_SHAPES)
    def test_balance_events_and_queries_agree(
        self, seed, n_blocks, txs_per_block, reuse
    ):
        index = ChainIndex()
        bal_k = BalanceView(index, use_kernels=True)
        bal_s = BalanceView(index, use_kernels=False)
        blocks = _chain(seed, n_blocks, txs_per_block, reuse)
        for block in blocks:
            index.add_block(block)
        for height in range(len(blocks)):
            assert bal_k.events_at(height) == bal_s.events_at(height)

        class _IdentityPartition:
            find_root = staticmethod(lambda ident: ident)

        identity = _IdentityPartition()
        assert cluster_balances(bal_k, identity) == cluster_balances(
            bal_s, identity
        )


class TestAggregateKernelsMatchScalar:
    @settings(max_examples=15, deadline=None)
    @given(flush_every=st.integers(1, 9), **_SHAPES)
    def test_aggregate_twins_agree_at_every_flush(
        self, flush_every, seed, n_blocks, txs_per_block, reuse
    ):
        """The batched churn fold must land every sum/min/max at the
        same post-merge root the scalar per-block fold does, across
        arbitrary flush cadences (batch size = merge-fold interleaving).
        """
        index = ChainIndex()
        engine = IncrementalClusteringEngine(index)
        agg_k = ClusterAggregateView(index, engine=engine, use_kernels=True)
        agg_s = ClusterAggregateView(index, engine=engine, use_kernels=False)
        blocks = _chain(seed, n_blocks, txs_per_block, reuse)
        for block in blocks:
            index.add_block(block)
            if (block.height + 1) % flush_every and (
                block.height != len(blocks) - 1
            ):
                continue
            # Any query flushes the queued blocks in both twins.
            assert agg_k.cluster_count == agg_s.cluster_count
            for metric in TOP_CLUSTER_METRICS:
                assert agg_k.ranking(metric) == agg_s.ranking(metric)
            roots = agg_k._uf.component_sizes()
            assert roots == agg_s._uf.component_sizes()
            for root in roots:
                assert agg_k._balance[root] == agg_s._balance[root]
                assert agg_k._tx_count[root] == agg_s._tx_count[root]
                assert agg_k._first[root] == agg_s._first[root]
                assert agg_k._last[root] == agg_s._last[root]
                assert agg_k._min_member[root] == agg_s._min_member[root]


class TestH1PairKernelMatchesScalar:
    @settings(max_examples=20, deadline=None)
    @given(**_SHAPES)
    def test_engine_partition_equals_per_tx_union_chains(
        self, seed, n_blocks, txs_per_block, reuse
    ):
        """The engine's per-block ``union_many(h1_a, h1_b)`` pair batch
        must leave the same partition *and the same merge log* as the
        per-transaction chain unions it replaced."""
        from repro.core.union_find import IntUnionFind

        index = ChainIndex()
        engine = IncrementalClusteringEngine(index)
        deltas = []
        index.subscribe_deltas(deltas.append)
        for block in _chain(seed, n_blocks, txs_per_block, reuse):
            index.add_block(block)
        reference = IntUnionFind()
        for delta in deltas:
            reference.ensure(delta.max_id + 1)
            for txd in delta.txs:
                if not txd.is_coinbase and txd.input_ids:
                    reference.union_many(txd.input_ids)
        live = engine._uf
        assert live.component_count == reference.component_count
        assert live.log_prefix(live.checkpoint()) == reference.log_prefix(
            reference.checkpoint()
        )
        assert live.component_sizes() == reference.component_sizes()
