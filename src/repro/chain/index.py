"""Chain index: the random-access view the analyses run on.

A :class:`ChainIndex` ingests blocks in height order and maintains:

* transaction lookup by txid, with block height and timestamp;
* the UTXO set and a ``spent_by`` map (which input consumed an output);
* per-address histories — every receive and every spend with heights and
  values — which is what Heuristic 2's "has this address appeared
  before?" and "has it received more than one input?" questions read;
* running balances and the set of *sink addresses* (received but never
  spent from), which the paper uses to bound the number of users and to
  define "active bitcoins" in Figure 2.

The index is deliberately append-only: the paper analyses a chain prefix,
and temporal replay (false-positive estimation) is done by *consulting
heights*, not by mutating the index.

Observer fan-out runs on a **shared per-block ingest plan**: after each
``add_block`` the index builds one :class:`~repro.chain.delta.BlockDelta`
(one transaction walk, id-space, see ``chain/delta.py``) and hands that
single object to every subscriber through
:meth:`ChainIndex.subscribe_deltas`; a consumer that only needs
block-level facts reads ``delta.block``.

Durability: :meth:`ChainIndex.export_state` flattens the whole index
into plain picklable data (raw block bytes, tuple-keyed maps, per-record
tuples) and :meth:`ChainIndex.restore_state` rebuilds from it *lazily* —
blocks, transactions, and address records stay as flat data until first
touched.  That laziness is what keeps a snapshot restore bounded by
O(flat bytes) instead of O(every Python object the chain ever created):
a restored serving index answers balance/cluster queries and ingests
tail blocks while materializing only the objects those paths actually
touch.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Iterator

from ..obs import NULL_LOGGER, NULL_REGISTRY
from .delta import BlockDelta, build_block_delta
from .errors import (
    DoubleSpendError,
    MissingInputError,
    UnknownAddressError,
    UnknownTransactionError,
)
from .intern import AddressInterner
from .model import Block, OutPoint, Transaction, TxOut


@dataclass(frozen=True, slots=True)
class Receive:
    """One credit to an address: output ``vout`` of ``txid`` at ``height``."""

    height: int
    txid: bytes
    vout: int
    value: int


@dataclass(frozen=True, slots=True)
class Spend:
    """One debit from an address: input ``vin`` of ``txid`` at ``height``."""

    height: int
    txid: bytes
    vin: int
    value: int


@dataclass
class AddressRecord:
    """Everything the index knows about one address."""

    address: str
    address_id: int = -1
    """Dense interned id (see :class:`~repro.chain.intern.AddressInterner`);
    -1 for records built outside a :class:`ChainIndex`."""

    receives: list[Receive] = field(default_factory=list)
    spends: list[Spend] = field(default_factory=list)
    receive_heights: list[int] = field(default_factory=list)
    """Heights of ``receives`` (kept in sync for binary search)."""

    @property
    def first_seen_height(self) -> int:
        """Height of the first appearance (always a receive)."""
        return self.receives[0].height

    @property
    def total_received(self) -> int:
        return sum(r.value for r in self.receives)

    @property
    def total_spent(self) -> int:
        return sum(s.value for s in self.spends)

    @property
    def balance(self) -> int:
        return self.total_received - self.total_spent

    @property
    def is_sink(self) -> bool:
        """True when the address has never spent anything."""
        return not self.spends

    def receives_at_or_before(self, height: int) -> list[Receive]:
        """Receives with ``height <= height`` (ordered)."""
        return self.receives[: bisect_right(self.receive_heights, height)]

    def receives_after(self, height: int) -> list[Receive]:
        """Receives strictly after ``height`` (ordered)."""
        return self.receives[bisect_right(self.receive_heights, height):]

    def receives_before(self, height: int) -> int:
        """Count of receives strictly before ``height``."""
        return bisect_left(self.receive_heights, height)


@dataclass(frozen=True, slots=True)
class TxLocation:
    """Where a transaction sits in the chain."""

    height: int
    timestamp: int
    index_in_block: int


class ChainIndex:
    """Indexed view over an ordered sequence of blocks."""

    def __init__(self) -> None:
        self._txs: dict[bytes, Transaction] = {}
        self._locations: dict[bytes, TxLocation] = {}
        # UTXO/spender maps are keyed by plain (txid, vout) tuples, not
        # OutPoint objects: the keys then restore from a snapshot at
        # pickle speed with zero per-entry reconstruction.
        self._utxos: dict[tuple[bytes, int], TxOut] = {}
        self._spent_by: dict[tuple[bytes, int], tuple[bytes, int]] = {}
        self._addresses: dict[str, AddressRecord] = {}
        self._records_by_id: list[AddressRecord] = []
        self._interner = AddressInterner()
        self._blocks: list[Block] = []
        # Addresses appearing in a tx's outputs whose prevouts include the
        # same address ("self-change" usage, §4.2).
        self._self_change_history: dict[str, list[int]] = {}
        # Per-tx input address ids (dedup'd, insertion-ordered), memoized:
        # the heuristics resolve the same transaction's senders many times.
        self._input_ids: dict[bytes, tuple[int, ...]] = {}
        # Per-tx output address ids (position-aligned, -1 for exotic
        # scripts), memoized: every streaming view credits the same
        # outputs, and script → address extraction is the hot part.
        self._output_ids: dict[bytes, tuple[int, ...]] = {}
        # Per-tx (address id, value) of each consumed output, aligned
        # with the non-coinbase inputs.  Populated during ingestion —
        # `_add_tx` holds every spent TxOut the moment it pops the UTXO
        # — so observers debiting spends never re-resolve prevouts
        # (which, on a snapshot-restored index, would materialize
        # historic blocks and defeat the lazy restore).
        self._input_spends: dict[bytes, tuple[tuple[int, int], ...]] = {}
        self._observers: list[tuple[Callable[[BlockDelta], None], str]] = []
        """``(observer, name)`` pairs in registration order.  Names key
        the per-subscriber fan-out metrics."""
        self.metrics = NULL_REGISTRY
        """Telemetry sink (:class:`~repro.obs.metrics.MetricsRegistry`).
        Defaults to the shared disabled registry — assign an enabled one
        to record per-stage ingest timings (``ingest.*``) and per-block
        flight spans; see ``docs/metrics.md``."""
        self.log = NULL_LOGGER
        """Structured event sink (:class:`~repro.obs.log.EventLogger`).
        Defaults to the shared null logger — assign a
        :class:`~repro.obs.log.JsonLinesLogger` to record ingest and
        subscriber-failure events; see ``docs/observability.md``."""
        self._timestamps: list[int] = []
        # Lazy backing for a snapshot-restored index; all None/absent in a
        # live-built one.  `_blocks` / `_records_by_id` hold None at not-
        # yet-materialized positions, with the flat data waiting here.
        self._raw_blocks: list[bytes | None] | None = None
        self._tx_locator: dict[bytes, tuple[int, int]] | None = None
        """txid -> (height, index in block) for every tx, materialized
        or not (kept current through tail ingestion)."""
        self._lazy_records: list[tuple | None] | None = None
        """Per address id: ``(receive_tuples, spend_tuples)`` until the
        :class:`AddressRecord` is first touched."""
        self._txids_by_height: dict[int, dict[int, bytes]] | None = None
        """Inverse of ``_tx_locator`` (height -> position -> txid),
        built once on the first lazy block materialization so txids are
        seated, not recomputed."""

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def add_block(self, block: Block) -> None:
        """Ingest the next block.  Blocks must arrive in height order."""
        expected = len(self._blocks)
        if block.height != expected:
            raise MissingInputError(
                f"blocks must be added in order: expected height {expected}, "
                f"got {block.height}"
            )
        metrics = self.metrics
        timed = metrics.enabled
        if timed:
            start = perf_counter()
        for i, tx in enumerate(block.transactions):
            self._add_tx(tx, block, i)
        self._blocks.append(block)
        self._timestamps.append(block.header.timestamp)
        if timed:
            now = perf_counter()
            metrics.histogram("ingest.index_seconds").observe(now - start)
        if self._raw_blocks is not None:
            self._raw_blocks.append(None)  # serialized on demand at export
        if self._observers:
            if timed:
                start = perf_counter()
            delta = build_block_delta(self, block)
            if timed:
                now = perf_counter()
                metrics.histogram("ingest.delta_build_seconds").observe(
                    now - start
                )
            self._notify_observers(delta)
            if timed:
                metrics.flight.record(
                    "block",
                    height=block.height,
                    txs=len(block.transactions),
                    seconds=perf_counter() - start,
                )
        if self.log.enabled:
            self.log.debug(
                "block_ingested",
                height=block.height,
                txs=len(block.transactions),
            )

    def block_delta(self, height: int) -> BlockDelta:
        """The shared ingest plan for one already-ingested block.

        Streaming fan-out builds each block's delta exactly once inside
        :meth:`add_block`; this rebuilds the identical plan on demand —
        the catch-up path consumers use to fold blocks the index held
        before they attached.
        """
        return build_block_delta(self, self.block_at(height))

    def _notify_observers(self, delta: BlockDelta) -> None:
        """Fan one block's shared :class:`BlockDelta` out to every
        observer registered when ingestion finished, in registration
        order — the *same* object to each, so the whole pipeline costs
        one transaction walk per block.

        The observer list is snapshotted first, so a callback that
        subscribes or unsubscribes mid-fan-out cannot skip or double-
        deliver this block (late subscribers start at the *next* block).
        A raising observer does not starve the ones after it: every
        observer is notified before the first exception propagates to the
        ``add_block`` caller — and *every* failure (not just the first)
        is counted per subscriber and retained in the flight recorder,
        so a flaky later subscriber stays visible even though only the
        first exception is raised (the rest ride along as notes).
        """
        errors: list[BaseException] = []
        metrics = self.metrics
        timed = metrics.enabled
        for observer, name in tuple(self._observers):
            if timed:
                start = perf_counter()
            try:
                observer(delta)
            except Exception as exc:  # noqa: BLE001 — isolate per observer
                errors.append(exc)
                if timed:
                    metrics.counter(
                        "ingest.subscriber_errors", subscriber=name
                    ).inc()
                    metrics.flight.record(
                        "subscriber_error",
                        height=delta.height,
                        subscriber=name,
                        error=repr(exc),
                    )
                if self.log.enabled:
                    self.log.error(
                        "subscriber_error",
                        height=delta.height,
                        subscriber=name,
                        error=repr(exc),
                    )
            if timed:
                metrics.histogram(
                    "ingest.fanout_seconds", subscriber=name
                ).observe(perf_counter() - start)
        if errors:
            first = errors[0]
            for later in errors[1:]:
                first.add_note(
                    f"additional observer failure at height {delta.height}: "
                    f"{later!r}"
                )
            raise first

    def subscribe_deltas(
        self,
        observer: Callable[[BlockDelta], None],
        *,
        name: str | None = None,
    ) -> Callable[[], None]:
        """Register a per-block delta observer; returns an unsubscribe
        callable.

        Observers are called after each block is fully ingested (index
        queries see the block), in registration order, each exactly once
        per block, every one receiving the block's single shared
        :class:`~repro.chain.delta.BlockDelta`.  This is the hook the
        incremental clustering engine and the service layer's
        materialized views stream from; see :meth:`_notify_observers`
        for the fan-out contract under mid-callback (un)subscription and
        observer exceptions.

        ``name`` labels the subscriber in the per-subscriber fan-out
        metrics and error spans (``ingest.fanout_seconds{subscriber=…}``);
        it defaults to the callable's qualified name.
        """
        if name is None:
            name = getattr(observer, "__qualname__", None) or repr(observer)
        entry = (observer, name)
        self._observers.append(entry)

        def unsubscribe() -> None:
            if entry in self._observers:
                self._observers.remove(entry)

        return unsubscribe

    def add_chain(self, blocks: Iterable[Block]) -> None:
        """Ingest a whole chain in order."""
        for block in blocks:
            self.add_block(block)

    def _add_tx(self, tx: Transaction, block: Block, index_in_block: int) -> None:
        txid = tx.txid
        if txid in self:
            raise DoubleSpendError(f"duplicate transaction {tx.txid_hex}")
        input_addrs: set[str] = set()
        input_ids: dict[int, None] = {}  # dedup'd, insertion-ordered
        input_spends: list[tuple[int, int]] = []
        # Consume inputs.
        for vin, txin in enumerate(tx.inputs):
            if txin.is_coinbase:
                continue
            prevout = txin.prevout
            prevout_key = (prevout.txid, prevout.vout)
            if prevout_key in self._spent_by:
                raise DoubleSpendError(
                    f"{tx.txid_hex} double-spends {prevout.txid[::-1].hex()}:"
                    f"{prevout.vout}"
                )
            spent = self._utxos.pop(prevout_key, None)
            if spent is None:
                raise MissingInputError(
                    f"{tx.txid_hex} spends unknown outpoint "
                    f"{prevout.txid[::-1].hex()}:{prevout.vout}"
                )
            self._spent_by[prevout_key] = (txid, vin)
            addr = spent.address
            if addr is None:
                input_spends.append((-1, spent.value))
            else:
                input_addrs.add(addr)
                record = self.address(addr)
                record.spends.append(Spend(block.height, txid, vin, spent.value))
                input_ids.setdefault(record.address_id)
                input_spends.append((record.address_id, spent.value))
        # Create outputs.
        output_ids: list[int] = []
        for vout, txout in enumerate(tx.outputs):
            self._utxos[(txid, vout)] = txout
            addr = txout.address
            if addr is None:
                output_ids.append(-1)
                continue
            record = self._record_or_none(addr)
            if record is None:
                record = AddressRecord(addr, self._interner.intern(addr))
                self._addresses[addr] = record
                self._records_by_id.append(record)
                if self._lazy_records is not None:
                    self._lazy_records.append(None)
            output_ids.append(record.address_id)
            record.receives.append(Receive(block.height, txid, vout, txout.value))
            record.receive_heights.append(block.height)
            if addr in input_addrs:
                self._self_change_history.setdefault(addr, []).append(block.height)
        # Seat the per-tx memos while the resolved data is in hand: the
        # streaming observers (H1 unions, balance debits, activity) read
        # exactly these, so they never re-resolve scripts or prevouts.
        self._input_ids[txid] = tuple(input_ids)
        self._output_ids[txid] = tuple(output_ids)
        self._input_spends[txid] = tuple(input_spends)
        self._txs[txid] = tx
        if self._tx_locator is not None:
            self._tx_locator[txid] = (block.height, index_in_block)
        self._locations[txid] = TxLocation(
            height=block.height,
            timestamp=block.header.timestamp,
            index_in_block=index_in_block,
        )

    # ------------------------------------------------------------------
    # chain / block access
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Height of the chain tip (-1 when empty)."""
        return len(self._blocks) - 1

    @property
    def blocks(self) -> list[Block]:
        """The ingested blocks in height order (fully materialized)."""
        if self._raw_blocks is not None:
            for height, block in enumerate(self._blocks):
                if block is None:
                    self._materialize_block(height)
        return self._blocks

    def block_at(self, height: int) -> Block:
        """The block at ``height``."""
        block = self._blocks[height]
        if block is None:
            block = self._materialize_block(height)
        return block

    def _materialize_block(self, height: int) -> Block:
        """Parse a restored block from its raw bytes on first touch and
        register its transactions in the live maps.

        Txids are seated from the locator instead of recomputed — the
        double-SHA256 over a re-serialization is the expensive half of
        materializing a block, and the locator already knows every id.
        """
        from .serialize import block_from_bytes

        raw = self._raw_blocks[height]
        block = block_from_bytes(raw, height=height)
        self._blocks[height] = block
        if self._txids_by_height is None:
            by_height: dict[int, dict[int, bytes]] = {}
            for txid, (tx_height, position) in self._tx_locator.items():
                by_height.setdefault(tx_height, {})[position] = txid
            self._txids_by_height = by_height
        seated = self._txids_by_height.get(height, {})
        txs = self._txs
        for position, tx in enumerate(block.transactions):
            txid = seated.get(position)
            if txid is not None:
                tx.__dict__["txid"] = txid  # pre-warm the cached_property
            txs[tx.txid] = tx
        return block

    def timestamp_at(self, height: int) -> int:
        """The block timestamp at ``height``."""
        return self._timestamps[height]

    # ------------------------------------------------------------------
    # transaction access
    # ------------------------------------------------------------------

    def __contains__(self, txid: bytes) -> bool:
        if txid in self._txs:
            return True
        return self._tx_locator is not None and txid in self._tx_locator

    def tx(self, txid: bytes) -> Transaction:
        """Look up a transaction by internal-order txid."""
        found = self._txs.get(txid)
        if found is not None:
            return found
        if self._tx_locator is not None:
            location = self._tx_locator.get(txid)
            if location is not None:
                block = self.block_at(location[0])
                return block.transactions[location[1]]
        raise UnknownTransactionError(txid[::-1].hex())

    def location(self, txid: bytes) -> TxLocation:
        """Block height/timestamp/position for a txid."""
        found = self._locations.get(txid)
        if found is not None:
            return found
        if self._tx_locator is not None:
            located = self._tx_locator.get(txid)
            if located is not None:
                height, index_in_block = located
                found = TxLocation(height, self._timestamps[height], index_in_block)
                self._locations[txid] = found
                return found
        raise UnknownTransactionError(txid[::-1].hex())

    def iter_transactions(self) -> Iterator[tuple[Transaction, TxLocation]]:
        """All transactions with their locations, in chain order."""
        for height in range(len(self._blocks)):
            block = self.block_at(height)
            for i, tx in enumerate(block.transactions):
                yield tx, TxLocation(block.height, block.header.timestamp, i)

    @property
    def tx_count(self) -> int:
        if self._tx_locator is not None:
            return len(self._tx_locator)
        return len(self._txs)

    # ------------------------------------------------------------------
    # outputs / UTXO
    # ------------------------------------------------------------------

    def output(self, outpoint: OutPoint) -> TxOut:
        """The output a prevout references (spent or unspent)."""
        utxo = self._utxos.get((outpoint.txid, outpoint.vout))
        if utxo is not None:
            return utxo
        tx = self.tx(outpoint.txid)
        return tx.outputs[outpoint.vout]

    def is_unspent(self, outpoint: OutPoint) -> bool:
        """True while an output is in the UTXO set."""
        return (outpoint.txid, outpoint.vout) in self._utxos

    def spender_of(self, outpoint: OutPoint) -> tuple[bytes, int] | None:
        """``(txid, vin)`` of the input spending an output, if spent."""
        return self._spent_by.get((outpoint.txid, outpoint.vout))

    @property
    def utxo_count(self) -> int:
        return len(self._utxos)

    def utxo_value(self) -> int:
        """Total satoshis in the UTXO set."""
        return sum(out.value for out in self._utxos.values())

    # ------------------------------------------------------------------
    # addresses
    # ------------------------------------------------------------------

    @property
    def interner(self) -> AddressInterner:
        """The index's address interner (string ⇄ dense id)."""
        return self._interner

    def has_address(self, address: str) -> bool:
        if address in self._addresses:
            return True
        return (
            self._lazy_records is not None
            and self._interner.id_of(address) is not None
        )

    def _record_or_none(self, address: str) -> AddressRecord | None:
        """The record for ``address`` if it exists (materializing a lazy
        one), else ``None``."""
        record = self._addresses.get(address)
        if record is None and self._lazy_records is not None:
            ident = self._interner.id_of(address)
            if ident is not None:
                record = self._materialize_record(ident)
        return record

    def _materialize_record(self, address_id: int) -> AddressRecord:
        """Inflate a restored address record from its flat tuples."""
        record = self._records_by_id[address_id]
        if record is not None:
            return record
        receives, spends = self._lazy_records[address_id]
        record = AddressRecord(
            self._interner.address_of(address_id), address_id
        )
        record.receives = [Receive(*entry) for entry in receives]
        record.spends = [Spend(*entry) for entry in spends]
        record.receive_heights = [entry[0] for entry in receives]
        self._records_by_id[address_id] = record
        self._addresses[record.address] = record
        self._lazy_records[address_id] = None
        return record

    def address(self, address: str) -> AddressRecord:
        """The :class:`AddressRecord` for ``address``."""
        record = self._record_or_none(address)
        if record is None:
            raise UnknownAddressError(address)
        return record

    def address_by_id(self, address_id: int) -> AddressRecord:
        """The :class:`AddressRecord` for an interned address id."""
        try:
            record = self._records_by_id[address_id]
        except IndexError:
            raise UnknownAddressError(f"id:{address_id}") from None
        if record is None:
            record = self._materialize_record(address_id)
        return record

    def iter_addresses(self) -> Iterator[AddressRecord]:
        """Every record, in interned-id (= first-sight) order."""
        for address_id in range(len(self._records_by_id)):
            yield self.address_by_id(address_id)

    @property
    def address_count(self) -> int:
        return len(self._records_by_id)

    def sink_addresses(self) -> list[str]:
        """Addresses that have received but never spent (paper §4.1)."""
        return [rec.address for rec in self.iter_addresses() if rec.is_sink]

    def input_address_ids(self, tx: Transaction) -> tuple[int, ...]:
        """Interned ids of the addresses a transaction spends from
        (deduplicated, insertion-ordered).  Empty for coinbases.

        Memoized per txid for transactions in the index: the clustering
        heuristics resolve the same senders repeatedly (H1 unions, H2
        candidate checks, dice lookups, FP replay).
        """
        txid = tx.txid
        cached = self._input_ids.get(txid)
        if cached is not None:
            return cached
        seen: dict[int, None] = {}
        for txin in tx.inputs:
            if txin.is_coinbase:
                continue
            addr = self.output(txin.prevout).address
            if addr is not None:
                seen.setdefault(self._interner.intern(addr))
        ids = tuple(seen)
        if txid in self:
            self._input_ids[txid] = ids
        return ids

    def output_address_ids(self, tx: Transaction) -> tuple[int, ...]:
        """Interned ids of a transaction's output addresses, aligned with
        ``tx.outputs`` (-1 for outputs with no extractable address).

        Memoized per txid for transactions in the index: the service
        layer's materialized views (balances, activity) each credit the
        same outputs per block, and script → address extraction is the
        expensive part of that loop.

        For a transaction *not* in the index, addresses are resolved
        without allocating (-1 also covers never-interned addresses):
        interning here would inject phantom ids into the dense
        first-sight id space the per-height snapshot universes rely on.
        """
        txid = tx.txid
        cached = self._output_ids.get(txid)
        if cached is not None:
            return cached
        if txid in self:
            # Ingestion already interned every output address; intern()
            # is a pure lookup here.
            intern = self._interner.intern
            ids = tuple(
                -1 if out.address is None else intern(out.address)
                for out in tx.outputs
            )
            self._output_ids[txid] = ids
            return ids
        id_of = self._interner.id_of
        ids = []
        for out in tx.outputs:
            address = out.address
            ident = id_of(address) if address is not None else None
            ids.append(-1 if ident is None else ident)
        return tuple(ids)

    def input_addresses(self, tx: Transaction) -> list[str]:
        """Addresses owning the outputs a transaction spends (deduplicated,
        insertion-ordered).  Empty for coinbases.  This is the reporting
        edge of :meth:`input_address_ids`."""
        return self._interner.addresses_of(self.input_address_ids(tx))

    def input_spends(self, tx: Transaction) -> tuple[tuple[int, int], ...]:
        """``(address id, value)`` of each consumed output, aligned with
        the transaction's non-coinbase inputs (-1 for exotic scripts).

        Memoized at ingestion (``_add_tx`` holds every spent output as
        it pops the UTXO), so for indexed transactions this never
        resolves a prevout — the property the balance view's spend
        debits and a lazily restored index both rely on.
        """
        txid = tx.txid
        cached = self._input_spends.get(txid)
        if cached is not None:
            return cached
        spends: list[tuple[int, int]] = []
        id_of = self._interner.id_of
        for txin in tx.inputs:
            if txin.is_coinbase:
                continue
            out = self.output(txin.prevout)
            ident = id_of(out.address) if out.address is not None else None
            spends.append((-1 if ident is None else ident, out.value))
        resolved = tuple(spends)
        if txid in self:
            self._input_spends[txid] = resolved
        return resolved

    def input_value(self, tx: Transaction) -> int:
        """Total satoshis consumed by a transaction's inputs."""
        if tx.is_coinbase:
            return 0
        return sum(value for _ident, value in self.input_spends(tx))

    def fee(self, tx: Transaction) -> int:
        """Miner fee (inputs minus outputs); 0 for coinbases."""
        if tx.is_coinbase:
            return 0
        return self.input_value(tx) - tx.total_output_value

    # ------------------------------------------------------------------
    # temporal queries used by Heuristic 2 (§4.1/§4.2)
    # ------------------------------------------------------------------

    def appearances_before(self, address: str, height: int) -> int:
        """How many times ``address`` was paid strictly before ``height``."""
        record = self._record_or_none(address)
        if record is None:
            return 0
        return record.receives_before(height)

    def first_seen(self, address: str) -> int | None:
        """Height of the first receive, or ``None`` if never seen."""
        record = self._record_or_none(address)
        if record is None or not record.receives:
            return None
        return record.first_seen_height

    def self_change_heights(self, address: str) -> list[int]:
        """Heights at which ``address`` was used as a self-change address
        (appears among both the inputs and the outputs of one tx)."""
        return self._self_change_history.get(address, [])

    def was_self_change_before(self, address: str, height: int) -> bool:
        """True if the address served as self-change strictly before
        ``height`` (one of the §4.2 refinements)."""
        return any(h < height for h in self._self_change_history.get(address, ()))

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    STATE_VERSION = 1
    """Bump on any incompatible change to the exported state shape."""

    def export_state(self) -> dict:
        """Flatten the index into plain picklable data.

        Everything is primitives, tuples, lists, and dicts — no model
        objects — so serialization and deserialization both run at
        C speed, and :meth:`restore_state` can rebuild lazily.  Blocks
        are exported as their wire bytes (reusing the raw bytes a
        restored index was itself loaded from, where still unparsed).
        """
        from .serialize import serialize_block

        raw_blocks: list[bytes] = []
        for height, block in enumerate(self._blocks):
            raw = self._raw_blocks[height] if self._raw_blocks is not None else None
            if raw is None:
                raw = serialize_block(self.block_at(height))
            raw_blocks.append(raw)
        if self._tx_locator is not None:
            tx_locator = dict(self._tx_locator)
        else:
            tx_locator = {}
            for height, block in enumerate(self._blocks):
                for i, tx in enumerate(block.transactions):
                    tx_locator[tx.txid] = (height, i)
        records: list[tuple] = []
        for address_id in range(len(self._records_by_id)):
            record = self._records_by_id[address_id]
            if record is None:
                records.append(self._lazy_records[address_id])
                continue
            records.append(
                (
                    [(r.height, r.txid, r.vout, r.value) for r in record.receives],
                    [(s.height, s.txid, s.vin, s.value) for s in record.spends],
                )
            )
        return {
            "version": self.STATE_VERSION,
            "raw_blocks": raw_blocks,
            "timestamps": list(self._timestamps),
            "tx_locator": tx_locator,
            "utxos": {
                key: (out.value, out.script_pubkey)
                for key, out in self._utxos.items()
            },
            "spent_by": dict(self._spent_by),
            "addresses": list(self._interner),
            "records": records,
            "self_change": {
                address: list(heights)
                for address, heights in self._self_change_history.items()
            },
        }

    @classmethod
    def restore_state(cls, state: dict) -> "ChainIndex":
        """Rebuild an index from :meth:`export_state` output, lazily.

        Blocks, transactions, and address records are left as flat data
        and materialized on first access; the UTXO set, spender map, and
        interner are rebuilt eagerly (tail ingestion needs them all
        immediately).  The restored index is fully live: it ingests new
        blocks, fans out to observers, and can itself be exported again.
        """
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported chain state version {version!r} "
                f"(expected {cls.STATE_VERSION})"
            )
        index = cls()
        raw_blocks = list(state["raw_blocks"])
        index._raw_blocks = raw_blocks
        index._blocks = [None] * len(raw_blocks)
        index._timestamps = list(state["timestamps"])
        index._tx_locator = dict(state["tx_locator"])
        index._utxos = {
            key: TxOut(value, script)
            for key, (value, script) in state["utxos"].items()
        }
        index._spent_by = dict(state["spent_by"])
        index._interner = AddressInterner.from_addresses(state["addresses"])
        lazy_records = list(state["records"])
        index._lazy_records = lazy_records
        index._records_by_id = [None] * len(lazy_records)
        index._self_change_history = {
            address: list(heights)
            for address, heights in state["self_change"].items()
        }
        if len(index._timestamps) != len(raw_blocks):
            raise ValueError("chain state timestamps misaligned with blocks")
        if len(index._interner) != len(lazy_records):
            raise ValueError("chain state records misaligned with interner")
        return index
