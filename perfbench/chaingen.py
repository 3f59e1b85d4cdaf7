"""Seeded synthetic chains written to ``blk*.dat``, plus the side data the
benchmark needs to ask questions about them.

The program under test only ever sees the block files.  Everything else
here (tag strings, watched theft transactions, query addresses) is derived
from the generator's own scripts and counters, never from block objects
the program ingests, so the benchmark cannot pre-warm or peek at program
state.  The chain itself comes from ``repro.simulation.large_scale_blocks``:
every synthetic address is a P2PKH script whose 20-byte hash is a running
counter, so address ``k`` renders as ``base58check(0x00 || k.to_bytes(20))``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from repro.chain.blockfile import BlockFileWriter
from repro.chain.crypto import base58check_encode
from repro.simulation import large_scale_blocks
from repro.tagging.tags import Tag, TagStore

SHAPES = {
    # The generator's defaults: five outputs per tx.  Every tx has several
    # fresh outputs, so Heuristic 2 never finds a unique change candidate
    # and no label opens: the cold path is H1, views and one big flush.
    "default": {},
    # Two outputs, one of them a re-paid address 30% of the time: that tx
    # then has exactly one fresh output, which H2 labels as change.  With a
    # one-week wait window (1008 blocks) thousands of labels stay open.
    "h2": {"outputs_per_tx": 2, "reuse_probability": 0.3},
}

ENTITIES = 300
"""Synthetic entities the tagged addresses are spread over."""

TAG_SHARE = 0.01
"""Share of all addresses that carry one tag."""

TAG_CONFIDENCES = (0.25, 0.5, 0.75, 1.0)
"""Dyadic confidences: summed weights are exact in any order, so a name
tie can only be a true tie, broken by entity name."""

WATCHED_THEFTS = 3


def address_of_counter(counter: int) -> str:
    """The P2PKH address string of synthetic address ``counter``."""
    return base58check_encode(counter.to_bytes(20, "big"))


def _counter_of_script(script: bytes) -> int:
    return int.from_bytes(script[3:23], "big")


@dataclass
class Chain:
    """One generated chain on disk and what the benchmark knows about it."""

    directory: Path
    shape: str
    n_blocks: int
    seed: int
    addresses_by_height: list[int] = field(default_factory=list)
    """Addresses minted up to and including each height (counter bound)."""
    tags: list[tuple[str, str, float]] = field(default_factory=list)
    """``(address, entity, confidence)``, one per tagged address, in
    ascending counter order."""
    tag_counters: list[int] = field(default_factory=list)
    """The counter of each entry of :attr:`tags`."""
    thefts: list[tuple[str, bytes, int]] = field(default_factory=list)
    """``(label, txid, height)`` of each watched mid-chain spend."""

    def tag_store(self) -> TagStore:
        return TagStore(
            Tag(address, entity, "perfbench", confidence)
            for address, entity, confidence in self.tags
        )

    def address_at(self, rng: random.Random, height: int) -> str:
        """A seeded address already seen at ``height``; tagged ones are
        drawn a tenth of the time so named clusters show up in answers."""
        bound = self.addresses_by_height[height]
        if rng.random() < 0.1:
            known = bisect_left(self.tag_counters, bound)
            if known:
                return self.tags[rng.randrange(known)][0]
        return address_of_counter(rng.randrange(bound))


def generate(
    directory: Path,
    n_blocks: int,
    shape: str,
    seed: int,
    *,
    theft_heights: tuple[int, ...] | None = None,
    tick=None,
) -> Chain:
    """Write ``n_blocks`` blocks of ``shape`` under ``directory``.

    ``theft_heights`` picks the blocks whose first spend is watched for
    ``trace_taint`` (default: three heights around the middle); ``tick``
    is called after each block.
    """
    directory = Path(directory)
    rng = random.Random(f"perfbench:{shape}:{n_blocks}:{seed}")
    if theft_heights is None:
        mid = n_blocks // 2
        theft_heights = tuple(mid - 40 + 40 * k for k in range(WATCHED_THEFTS))
    chain = Chain(directory, shape, n_blocks, seed)
    writer = BlockFileWriter(directory)
    wanted = set(theft_heights)
    minted = 0
    for block in large_scale_blocks(n_blocks, seed=seed, **SHAPES[shape]):
        writer.write_block(block)
        for tx in block.transactions:
            for out in tx.outputs:
                minted = max(minted, _counter_of_script(out.script_pubkey) + 1)
        chain.addresses_by_height.append(minted)
        if tick is not None:
            tick()
        if block.height in wanted and len(block.transactions) > 1:
            label = f"theft-{len(chain.thefts)}"
            chain.thefts.append((label, block.transactions[1].txid, block.height))
    tagged = sorted(rng.sample(range(minted), max(1, int(minted * TAG_SHARE))))
    for counter in tagged:
        chain.tag_counters.append(counter)
        chain.tags.append(
            (
                address_of_counter(counter),
                f"entity-{rng.randrange(ENTITIES):03d}",
                rng.choice(TAG_CONFIDENCES),
            )
        )
    return chain
