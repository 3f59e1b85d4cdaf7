"""ChainIndex ingestion, UTXO discipline, and temporal queries."""

import pytest

from repro.chain.errors import (
    DoubleSpendError,
    MissingInputError,
    UnknownAddressError,
    UnknownTransactionError,
)
from repro.chain.index import ChainIndex
from repro.chain.model import COIN, OutPoint

from tests.helpers import addr, build_chain, coinbase, spend


class TestIngestion:
    def test_basic_accounting(self):
        index, txs = _indexed_payment()
        assert index.tx_count == 4  # two coinbases + pay + sweep
        assert index.height == 1
        assert index.address_count >= 5
        # Supply: two 50 BTC coinbases, minus the 1000 satoshi fee the
        # sweep paid (it vanishes because the test coinbases don't claim
        # fees).
        assert index.utxo_value() == 100 * COIN - 1000

    def test_out_of_order_blocks_rejected(self):
        index = build_chain([[]])
        from repro.chain.model import Block, GENESIS_PREV_HASH

        block = Block.assemble(
            height=5,
            prev_hash=GENESIS_PREV_HASH,
            timestamp=0,
            transactions=[coinbase(addr("x"))],
        )
        with pytest.raises(MissingInputError):
            index.add_block(block)


def _indexed_payment():
    """cb -> pay(a, b); b spends to c.  Returns (index, txs dict)."""
    cb = coinbase(addr("miner-main"))
    pay = spend([(cb, 0)], [(addr("a"), 30 * COIN), (addr("b"), 20 * COIN)])
    sweep = spend([(pay, 1)], [(addr("c"), 20 * COIN - 1000)])
    index = ChainIndex()
    from repro.chain.model import Block, GENESIS_PREV_HASH

    block0 = Block.assemble(
        height=0, prev_hash=GENESIS_PREV_HASH, timestamp=100, transactions=[cb]
    )
    cb1 = coinbase(addr("miner-1"), height=1)
    block1 = Block.assemble(
        height=1, prev_hash=block0.hash, timestamp=700,
        transactions=[cb1, pay, sweep],
    )
    index.add_block(block0)
    index.add_block(block1)
    return index, {"cb": cb, "pay": pay, "sweep": sweep}


class TestQueries:
    def test_tx_lookup(self):
        index, txs = _indexed_payment()
        assert index.tx(txs["pay"].txid) == txs["pay"]
        with pytest.raises(UnknownTransactionError):
            index.tx(b"\x00" * 32)

    def test_location(self):
        index, txs = _indexed_payment()
        loc = index.location(txs["pay"].txid)
        assert loc.height == 1
        assert loc.timestamp == 700
        assert loc.index_in_block == 1

    def test_utxo_tracking(self):
        index, txs = _indexed_payment()
        assert index.is_unspent(OutPoint(txs["pay"].txid, 0))
        assert not index.is_unspent(OutPoint(txs["pay"].txid, 1))
        spender = index.spender_of(OutPoint(txs["pay"].txid, 1))
        assert spender == (txs["sweep"].txid, 0)

    def test_fee(self):
        index, txs = _indexed_payment()
        assert index.fee(txs["sweep"]) == 1000
        assert index.fee(txs["cb"]) == 0

    def test_input_addresses(self):
        index, txs = _indexed_payment()
        assert index.input_addresses(txs["sweep"]) == [addr("b")]
        assert index.input_addresses(txs["cb"]) == []

    def test_address_records(self):
        index, _txs = _indexed_payment()
        record_b = index.address(addr("b"))
        assert record_b.total_received == 20 * COIN
        assert record_b.total_spent == 20 * COIN
        assert record_b.balance == 0
        assert not record_b.is_sink
        record_c = index.address(addr("c"))
        assert record_c.is_sink
        with pytest.raises(UnknownAddressError):
            index.address(addr("nobody"))

    def test_sink_addresses(self):
        index, _txs = _indexed_payment()
        sinks = set(index.sink_addresses())
        assert addr("a") in sinks
        assert addr("c") in sinks
        assert addr("b") not in sinks

    def test_appearances_before(self):
        index, _txs = _indexed_payment()
        assert index.appearances_before(addr("b"), 1) == 0
        assert index.appearances_before(addr("b"), 2) == 1
        assert index.appearances_before(addr("unseen"), 99) == 0

    def test_first_seen(self):
        index, _txs = _indexed_payment()
        assert index.first_seen(addr("b")) == 1
        assert index.first_seen(addr("nobody")) is None


class TestViolations:
    def test_double_spend_rejected(self):
        cb = coinbase(addr("m2"))
        pay1 = spend([(cb, 0)], [(addr("a"), COIN)])
        pay2 = spend([(cb, 0)], [(addr("b"), COIN)])
        with pytest.raises(DoubleSpendError):
            _ingest(cb, pay1, pay2)

    def test_missing_input_rejected(self):
        cb = coinbase(addr("m3"))
        orphan = spend([(coinbase(addr("ghost")), 0)], [(addr("a"), COIN)])
        with pytest.raises(MissingInputError):
            _ingest(cb, orphan)


def _ingest(cb, *txs):
    from repro.chain.model import Block, GENESIS_PREV_HASH

    index = ChainIndex()
    block0 = Block.assemble(
        height=0, prev_hash=GENESIS_PREV_HASH, timestamp=0, transactions=[cb]
    )
    index.add_block(block0)
    cb1 = coinbase(addr("m-next"), height=1)
    block1 = Block.assemble(
        height=1, prev_hash=block0.hash, timestamp=600,
        transactions=[cb1, *txs],
    )
    index.add_block(block1)
    return index


class TestSelfChangeHistory:
    def test_self_change_recorded(self):
        cb = coinbase(addr("m4"))
        # a pays itself (self-change) plus a payment.
        first = spend([(cb, 0)], [(addr("self"), 10 * COIN)])
        selfchange = spend(
            [(first, 0)], [(addr("other"), COIN), (addr("self"), 9 * COIN)]
        )
        index = _ingest(cb, first, selfchange)
        assert index.self_change_heights(addr("self")) == [1]
        assert index.was_self_change_before(addr("self"), 2)
        assert not index.was_self_change_before(addr("self"), 1)
        assert not index.was_self_change_before(addr("other"), 5)


class TestObserverFanOut:
    """Multiple subscribers: exactly-once, in order, isolated failures."""

    def _source_blocks(self, n=3):
        source = build_chain([[] for _ in range(n)])
        return [source.block_at(h) for h in range(n)]

    def test_subscribers_observe_in_registration_order(self):
        target = ChainIndex()
        calls = []
        target.subscribe_deltas(lambda delta: calls.append(("a", delta.height)))
        target.subscribe_deltas(lambda delta: calls.append(("b", delta.height)))
        for block in self._source_blocks(2):
            target.add_block(block)
        assert calls == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_raising_subscriber_does_not_starve_later_ones(self):
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
        with pytest.raises(RuntimeError, match="boom at 1"):
            target.add_block(blocks[1])
        assert seen == [0, 1]

    def test_all_failures_reported_on_first_exception(self):
        target = ChainIndex()

        def explode_a(delta):
            raise RuntimeError("first")

        def explode_b(delta):
            raise ValueError("second")

        target.subscribe_deltas(explode_a)
        target.subscribe_deltas(explode_b)
        with pytest.raises(RuntimeError, match="first") as excinfo:
            target.add_block(self._source_blocks(1)[0])
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("second" in note for note in notes)

    def test_mid_callback_unsubscribe_still_delivers_current_block(self):
        target = ChainIndex()
        seen = []
        unsubscribe_b = None

        def observer_a(delta):
            unsubscribe_b()

        def observer_b(delta):
            seen.append(delta.height)

        target.subscribe_deltas(observer_a)
        unsubscribe_b = target.subscribe_deltas(observer_b)
        blocks = self._source_blocks(2)
        target.add_block(blocks[0])
        # b was registered when the fan-out for block 0 snapshotted the
        # list, so it sees block 0 exactly once — and nothing after.
        assert seen == [0]
        target.add_block(blocks[1])
        assert seen == [0]

    def test_mid_callback_subscribe_starts_at_next_block(self):
        target = ChainIndex()
        seen = []

        def late_observer(delta):
            seen.append(delta.height)

        def observer_a(delta):
            if delta.height == 0:
                target.subscribe_deltas(late_observer)

        target.subscribe_deltas(observer_a)
        blocks = self._source_blocks(2)
        target.add_block(blocks[0])
        assert seen == []  # subscribed during block 0's fan-out
        target.add_block(blocks[1])
        assert seen == [1]


class TestOutputAddressIds:
    def test_aligned_and_memoized_for_ingested_txs(self):
        index, txs = _indexed_payment()
        for tx in (txs["pay"], txs["sweep"]):
            ids = index.output_address_ids(tx)
            assert len(ids) == len(tx.outputs)
            for ident, out in zip(ids, tx.outputs):
                assert index.interner.address_of(ident) == out.address
            assert index.output_address_ids(tx) is ids  # memo hit

    def test_foreign_tx_never_allocates_phantom_ids(self):
        index, txs = _indexed_payment()
        before = len(index.interner)
        foreign = spend(
            [(txs["sweep"], 0)], [(addr("phantom-recipient"), COIN)]
        )
        ids = index.output_address_ids(foreign)
        # Unknown address resolves to -1 and the dense first-sight id
        # space is untouched (snapshot universes depend on it).
        assert ids == (-1,)
        assert len(index.interner) == before
