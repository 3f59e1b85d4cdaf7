"""The shared per-block ingest plan (``chain/delta.py``).

Two contracts are pinned here:

* **Fan-out protocol** — ``add_block`` builds exactly one
  :class:`~repro.chain.delta.BlockDelta` per block and hands the *same
  object* to every delta subscriber, in registration order, exactly
  once; legacy block-shaped subscribers (the :meth:`ChainIndex.subscribe
  <repro.chain.index.ChainIndex.subscribe>` compatibility shim) share
  the fan-out slot and receive ``delta.block``; a raising subscriber is
  isolated and re-raised after the rest are notified.
* **Delta == transaction walk** — every field of the delta equals an
  independent recomputation that resolves prevouts and output scripts
  the long way (a hypothesis property over random simulated scenarios,
  checked at every height), and the streaming views folded from deltas
  equal per-address state recomputed from the records/transactions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.delta import BlockDelta
from repro.chain.index import ChainIndex
from repro.obs import MetricsRegistry
from repro.service.views import ActivityView, BalanceView
from repro.simulation import scenarios

from tests.helpers import build_chain


class TestDeltaFanOut:
    def _source_blocks(self, n=3):
        source = build_chain([[] for _ in range(n)])
        return [source.block_at(h) for h in range(n)]

    def test_same_delta_object_once_per_subscriber_in_order(self):
        target = ChainIndex()
        calls = []
        target.subscribe_deltas(lambda delta: calls.append(("a", delta)))
        target.subscribe_deltas(lambda delta: calls.append(("b", delta)))
        blocks = self._source_blocks(2)
        for block in blocks:
            target.add_block(block)
        assert [tag for tag, _delta in calls] == ["a", "b", "a", "b"]
        for height in (0, 1):
            first, second = calls[2 * height: 2 * height + 2]
            # One shared plan per block: the identical object to every
            # subscriber, carrying the ingested block itself.
            assert first[1] is second[1]
            assert isinstance(first[1], BlockDelta)
            assert first[1].block is blocks[height]
            assert first[1].height == height

    def test_raising_delta_subscriber_isolated_and_reraised(self):
        target = ChainIndex()
        seen = []

        def explode(delta):
            raise RuntimeError(f"boom at {delta.height}")

        target.subscribe_deltas(explode)
        target.subscribe_deltas(lambda delta: seen.append(delta.height))
        blocks = self._source_blocks(2)
        with pytest.raises(RuntimeError, match="boom at 0"):
            target.add_block(blocks[0])
        # The block is ingested and the later subscriber observed it.
        assert target.height == 0
        assert seen == [0]

    def test_every_subscriber_failure_counted_and_retained(self):
        """Swallowed fan-out exceptions must stay visible: with metrics
        attached, *every* failing subscriber — not just the first, whose
        exception is the one re-raised — is counted per subscriber and
        retained as a ``subscriber_error`` flight span, and the later
        failures ride the raised exception as notes."""
        target = ChainIndex()
        target.metrics = MetricsRegistry()
        seen = []

        def explode_a(delta):
            raise RuntimeError(f"boom a at {delta.height}")

        def explode_b(delta):
            raise ValueError(f"boom b at {delta.height}")

        target.subscribe_deltas(explode_a, name="flaky-a")
        target.subscribe_deltas(explode_b, name="flaky-b")
        target.subscribe_deltas(lambda delta: seen.append(delta.height),
                                name="healthy")
        blocks = self._source_blocks(2)
        with pytest.raises(RuntimeError, match="boom a at 0") as excinfo:
            target.add_block(blocks[0])
        # The second failure is not lost: it rides along as a note.
        assert any(
            "boom b at 0" in note for note in excinfo.value.__notes__
        )
        # The healthy subscriber still observed the block.
        assert seen == [0]
        counters = target.metrics.snapshot()["counters"]
        assert counters["ingest.subscriber_errors{subscriber=flaky-a}"] == 1
        assert counters["ingest.subscriber_errors{subscriber=flaky-b}"] == 1
        assert "ingest.subscriber_errors{subscriber=healthy}" not in counters
        errors = [
            span for span in target.metrics.flight.dump()
            if span["kind"] == "subscriber_error"
        ]
        assert [(span["subscriber"], span["height"]) for span in errors] == [
            ("flaky-a", 0), ("flaky-b", 0),
        ]
        assert "boom a at 0" in errors[0]["error"]

    def test_fanout_timed_per_subscriber_even_on_failure(self):
        target = ChainIndex()
        target.metrics = MetricsRegistry()

        def explode(delta):
            raise RuntimeError("boom")

        target.subscribe_deltas(explode, name="flaky")
        target.subscribe_deltas(lambda delta: None, name="healthy")
        with pytest.raises(RuntimeError):
            target.add_block(self._source_blocks(1)[0])
        histograms = target.metrics.snapshot()["histograms"]
        assert histograms["ingest.fanout_seconds{subscriber=flaky}"][
            "count"
        ] == 1
        assert histograms["ingest.fanout_seconds{subscriber=healthy}"][
            "count"
        ] == 1

    def test_unsubscribe_stops_delta_delivery(self):
        target = ChainIndex()
        seen = []
        unsubscribe = target.subscribe_deltas(
            lambda delta: seen.append(delta.height)
        )
        blocks = self._source_blocks(2)
        target.add_block(blocks[0])
        unsubscribe()
        target.add_block(blocks[1])
        assert seen == [0]

    def test_block_delta_rebuild_equals_streamed_delta(self):
        world = scenarios.micro_economy(seed=7, n_blocks=12, n_users=4)
        target = ChainIndex()
        streamed = []
        target.subscribe_deltas(streamed.append)
        for block in world.blocks:
            target.add_block(block)
        for height, live in enumerate(streamed):
            rebuilt = target.block_delta(height)
            assert rebuilt.block is live.block
            assert rebuilt.events == live.events
            assert rebuilt.minted == live.minted
            assert rebuilt.involved == live.involved
            assert rebuilt.max_id == live.max_id
            for txd_rebuilt, txd_live in zip(rebuilt.txs, live.txs):
                assert txd_rebuilt.tx is txd_live.tx
                assert txd_rebuilt.input_ids == txd_live.input_ids
                assert txd_rebuilt.input_spends == txd_live.input_spends
                assert txd_rebuilt.output_ids == txd_live.output_ids
                assert txd_rebuilt.involved == txd_live.involved


def _walk_block_reference(index, block):
    """Recompute one block's delta facts the long way: resolve every
    prevout through the UTXO history and every output through the
    interner — no per-tx memos."""
    id_of = index.interner.id_of
    events = []
    minted = 0
    involved_block = {}
    max_id = -1
    per_tx = []
    for tx in block.transactions:
        if tx.is_coinbase:
            minted += sum(out.value for out in tx.outputs)
            input_ids = ()
            spends = ()
        else:
            seen = {}
            spends = []
            for txin in tx.inputs:
                spent = index.output(txin.prevout)
                ident = (
                    id_of(spent.address) if spent.address is not None else None
                )
                if ident is None:
                    spends.append((-1, spent.value))
                else:
                    seen.setdefault(ident)
                    spends.append((ident, spent.value))
                    events.append((ident, -spent.value))
            input_ids = tuple(seen)
            spends = tuple(spends)
        output_ids = []
        involved = dict.fromkeys(input_ids)
        for out in tx.outputs:
            ident = id_of(out.address) if out.address is not None else None
            output_ids.append(-1 if ident is None else ident)
            if ident is not None:
                events.append((ident, out.value))
                involved[ident] = None
        per_tx.append(
            (input_ids, spends, tuple(output_ids), tuple(involved))
        )
        for ident in involved:
            max_id = max(max_id, ident)
        involved_block.update(involved)
    return events, minted, tuple(involved_block), max_id, per_tx


class TestDeltaEqualsTransactionWalk:
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n_blocks=st.integers(min_value=4, max_value=24),
        n_users=st.integers(min_value=3, max_value=8),
    )
    def test_delta_and_folded_views_match_walk_at_every_height(
        self, seed, n_blocks, n_users
    ):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        target = ChainIndex()
        balances = BalanceView(target)
        activity = ActivityView(target)
        deltas = []
        target.subscribe_deltas(deltas.append)
        for block in world.blocks:
            target.add_block(block)
        # Delta contents: every field equals the independent walk.
        supply = 0
        walk_counts: dict[int, int] = {}
        walk_first: dict[int, int] = {}
        walk_last: dict[int, int] = {}
        for height, delta in enumerate(deltas):
            block = target.block_at(height)
            events, minted, involved, max_id, per_tx = _walk_block_reference(
                target, block
            )
            assert list(delta.events) == events, height
            assert delta.minted == minted, height
            assert delta.involved == involved, height
            assert delta.max_id == max_id, height
            assert len(delta.txs) == len(block.transactions)
            for txd, (input_ids, spends, output_ids, tx_involved) in zip(
                delta.txs, per_tx
            ):
                assert txd.input_ids == input_ids, height
                assert txd.input_spends == spends, height
                assert txd.output_ids == output_ids, height
                assert txd.involved == tx_involved, height
            supply += minted
            for ident in involved:
                walk_counts[ident] = walk_counts.get(ident, 0) + 0
            for input_ids, _spends, output_ids, tx_involved in per_tx:
                for ident in tx_involved:
                    walk_counts[ident] = walk_counts.get(ident, 0) + 1
                    walk_first.setdefault(ident, height)
                    walk_last[ident] = height
        # Folded views: delta-folded state equals per-address recompute.
        assert balances.height == activity.height == target.height
        assert balances.supply == supply
        for record in target.iter_addresses():
            assert (
                balances.balance_of_id(record.address_id) == record.balance
            ), record.address
        for ident, count in walk_counts.items():
            assert activity.tx_count_of_id(ident) == count
            assert activity.seen_range_of_id(ident) == (
                walk_first[ident],
                walk_last[ident],
            )


class TestColumnarMirrors:
    """The delta's typed int64 columns are exact mirrors of its tuple
    views — the kernels scatter from the columns, the scalar reference
    paths iterate the tuples, and both must see the same facts."""

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n_blocks=st.integers(min_value=4, max_value=20),
        n_users=st.integers(min_value=3, max_value=8),
    )
    def test_columns_mirror_tuple_views(self, seed, n_blocks, n_users):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        target = ChainIndex()
        deltas = []
        target.subscribe_deltas(deltas.append)
        for block in world.blocks:
            target.add_block(block)
        for delta in deltas:
            # Event columns zip back to the tuple event log.
            assert (
                list(
                    zip(
                        delta.event_ids.tolist(),
                        delta.event_values.tolist(),
                    )
                )
                == list(delta.events)
            )
            # Block-level dedup column == the involved tuple.
            assert tuple(delta.involved_ids.tolist()) == delta.involved
            # Flat involvement multiset == the per-tx concatenation.
            flat = [
                ident for txd in delta.txs for ident in txd.involved
            ]
            assert delta.involved_flat.tolist() == flat
            # Co-spend pair columns == one (first, k-th) pair per extra
            # input id of every non-coinbase transaction, in tx order.
            pairs = []
            for txd in delta.txs:
                if not txd.is_coinbase and len(txd.input_ids) > 1:
                    anchor = txd.input_ids[0]
                    pairs.extend(
                        (anchor, other) for other in txd.input_ids[1:]
                    )
            assert (
                list(zip(delta.h1_a.tolist(), delta.h1_b.tolist())) == pairs
            )
            # The columns are shared read-only across the fan-out.
            for column in (
                delta.event_ids,
                delta.event_values,
                delta.involved_ids,
                delta.involved_flat,
                delta.h1_a,
                delta.h1_b,
            ):
                assert not column.flags.writeable


SUBSCRIBER_MODULES = [
    "core/incremental.py",
    "service/views.py",
    "service/aggregates.py",
]


class TestSubscribersNeverWalkTransactions:
    @pytest.mark.parametrize("module", SUBSCRIBER_MODULES)
    def test_no_subscriber_touches_block_transactions(self, module):
        """The whole point of the shared delta: exactly one transaction
        walk per block, inside the chain layer.  A subscriber reaching
        for ``block.transactions`` re-introduces the N-walk fan-out."""
        import repro

        source_path = (
            __import__("pathlib").Path(repro.__file__).parent / module
        )
        assert "block.transactions" not in source_path.read_text()
