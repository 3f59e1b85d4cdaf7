"""Reference answers the benchmark computes itself.

Every answer the service gives is checked against a recomputation from
three independent sources:

* the partition of the batch ``ClusteringEngine`` (``cluster(as_of_height=h)``),
  the paper's whole-chain clustering, which shares no state with the
  streaming engine or the aggregate view;
* per-address ``ChainIndex`` records (receives and spends with heights),
  from which balances, tx incidence and first/last-seen are re-summed;
* the documented contracts: a cluster's id is its minimum member address
  id, rankings order by ``(-value, cluster id)``, a cluster is named by the
  entity with the highest summed tag confidence (ties by entity name), and
  taint is a haircut walk in chain order that stops at tagged addresses.

Nothing here reads the service's aggregate state, its batch fallback, or
its configuration switches.
"""

from __future__ import annotations

import heapq
import math

from repro.chain.model import OutPoint
from repro.core.clustering import ClusteringEngine

from chaingen import address_of_counter

TOP_METRICS = ("size", "balance", "activity")

TAINT_TOLERANCE = 1e-9
"""Relative tolerance for taint amounts (float sums in another order)."""

MIN_TAINT = 1.0
"""Least taint share the walk follows.  Must equal the default
``min_taint`` of ``ForensicsService``, which the benchmark never sets."""


class Oracle:
    """Every answer the service can give, as of one height."""

    def __init__(self, index, height: int, tags):
        self.index = index
        self.height = height
        self.tag_of = {address: entity for address, entity, _c in tags}
        partition = ClusteringEngine(index).cluster(as_of_height=height).uf
        universe = len(partition)
        find = partition.int_uf.find
        self.cluster_of_id: list[int] = [0] * universe
        canonical: dict[int, int] = {}
        self.balance_of_id: list[int] = [0] * universe
        self.txs_of_id: list[int] = [0] * universe
        self.seen_of_id: list[tuple[int, int]] = [(0, 0)] * universe
        size: dict[int, int] = {}
        balance: dict[int, int] = {}
        activity: dict[int, int] = {}
        for ident in range(universe):
            root = find(ident)
            cid = canonical.setdefault(root, ident)  # ids ascend: first is min
            self.cluster_of_id[ident] = cid
            record = index.address_by_id(ident)
            received = [r for r in record.receives if r.height <= height]
            spent = [s for s in record.spends if s.height <= height]
            held = sum(r.value for r in received) - sum(s.value for s in spent)
            heights = [r.height for r in received] + [s.height for s in spent]
            txs = len({r.txid for r in received} | {s.txid for s in spent})
            self.balance_of_id[ident] = held
            self.txs_of_id[ident] = txs
            self.seen_of_id[ident] = (min(heights), max(heights))
            size[cid] = size.get(cid, 0) + 1
            balance[cid] = balance.get(cid, 0) + held
            activity[cid] = activity.get(cid, 0) + txs
        self.universe = universe
        self.metric = {"size": size, "balance": balance, "activity": activity}
        self.order = {
            by: sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
            for by, values in self.metric.items()
        }
        self.size_rank = {
            cid: rank for rank, (cid, _v) in enumerate(self.order["size"], 1)
        }
        weights: dict[int, dict[str, float]] = {}
        id_of = index.interner.id_of
        for address, entity, confidence in tags:
            ident = id_of(address)
            if ident is None or ident >= universe:
                continue
            per = weights.setdefault(self.cluster_of_id[ident], {})
            per[entity] = per.get(entity, 0.0) + confidence
        self.names = {
            cid: min(per.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            for cid, per in weights.items()
        }

    def _ident(self, address: str) -> int | None:
        ident = self.index.interner.id_of(address)
        if ident is None or ident >= self.universe:
            return None
        return ident

    # -- one method per query kind ---------------------------------------

    def cluster_of(self, address: str):
        ident = self._ident(address)
        return None if ident is None else self.cluster_of_id[ident]

    def balance_of(self, address: str) -> int:
        ident = self._ident(address)
        return 0 if ident is None else self.balance_of_id[ident]

    def cluster_balance(self, address: str):
        cid = self.cluster_of(address)
        return None if cid is None else self.metric["balance"][cid]

    def top_clusters(self, n: int, by: str) -> tuple:
        return tuple(
            (cid, value, self.names.get(cid))
            for cid, value in self.order[by][:n]
        )

    def cluster_profile(self, address: str):
        ident = self._ident(address)
        if ident is None:
            return None
        cid = self.cluster_of_id[ident]
        first, last = self.seen_of_id[ident]
        return {
            "address": address,
            "address_id": ident,
            "cluster": cid,
            "cluster_size": self.metric["size"][cid],
            "balance": self.balance_of_id[ident],
            "cluster_balance": self.metric["balance"][cid],
            "tx_count": self.txs_of_id[ident],
            "first_seen": first,
            "last_seen": last,
            "cluster_tx_count": self.metric["activity"][cid],
            "cluster_rank": self.size_rank[cid],
            "name": self.names.get(cid),
        }

    def trace_taint(self, label: str, txid: bytes) -> dict:
        """Haircut taint from every output of ``txid``, walked in chain
        order over spends at or below the oracle height."""
        index = self.index
        tx = index.tx(txid)
        taint: dict[OutPoint, float] = {}
        initial = 0
        for vout, out in enumerate(tx.outputs):
            taint[OutPoint(txid, vout)] = float(out.value)
            initial += out.value
        reached: dict[str, float] = {}
        queue: list[tuple[int, int, bytes]] = []
        queued: set[bytes] = set()

        def enqueue(outpoint: OutPoint) -> None:
            spender = index.spender_of(outpoint)
            if spender is None or spender[0] in queued:
                return
            location = index.location(spender[0])
            if location.height > self.height:
                return
            queued.add(spender[0])
            heapq.heappush(
                queue, (location.height, location.index_in_block, spender[0])
            )

        for outpoint in list(taint):
            enqueue(outpoint)
        processed = 0
        while queue:
            _h, _pos, spender_txid = heapq.heappop(queue)
            spender = index.tx(spender_txid)
            processed += 1
            tainted_in = 0.0
            total_in = 0
            for txin in spender.inputs:
                total_in += index.output(txin.prevout).value
                share = taint.pop(txin.prevout, None)
                if share is not None:
                    tainted_in += share
            if tainted_in < MIN_TAINT or total_in == 0:
                continue
            ratio = tainted_in / total_in
            for vout, out in enumerate(spender.outputs):
                share = out.value * ratio
                if share < MIN_TAINT:
                    continue
                entity = self.tag_of.get(_address(out.script_pubkey))
                if entity is not None:
                    reached[entity] = reached.get(entity, 0.0) + share
                    continue
                outpoint = OutPoint(spender_txid, vout)
                taint[outpoint] = taint.get(outpoint, 0.0) + share
                enqueue(outpoint)
        return {
            "label": label,
            "initial_taint": initial,
            "unspent_taint": sum(taint.values()),
            "txs_processed": processed,
            "reached": dict(reached),
        }


def _address(script: bytes) -> str | None:
    """P2PKH address of a synthetic script (the generator makes no others)."""
    if len(script) == 25 and script[:3] == b"\x76\xa9\x14":
        return address_of_counter(int.from_bytes(script[3:23], "big"))
    return None


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TAINT_TOLERANCE, abs_tol=1e-6)


def same_answer(kind: str, got, want) -> bool:
    """Whether the service's answer equals the oracle's."""
    if kind != "trace_taint":
        return got == want
    if got is None:
        return False
    reached, wanted = dict(got["reached"]), dict(want["reached"])
    return (
        got["label"] == want["label"]
        and got["initial_taint"] == want["initial_taint"]
        and got["txs_processed"] == want["txs_processed"]
        and _close(got["unspent_taint"], want["unspent_taint"])
        and reached.keys() == wanted.keys()
        and all(_close(reached[e], wanted[e]) for e in reached)
    )
