"""Disjoint-set forests: a generic one and an array-backed int one.

:class:`UnionFind` works over arbitrary hashable items (tags, test
fixtures, miscellaneous groupings).  The clustering hot path instead
runs on :class:`IntUnionFind`, which is backed by flat int64 arrays
indexed by the dense address ids the chain layer interns, and which
keeps an undo log so unions can be checkpointed and rolled back — the
mechanism behind the incremental engine's time-travel snapshots.  The
array backing is what makes :meth:`IntUnionFind.find_many` possible:
batch root resolution as a handful of whole-array gathers instead of
one pointer-chase loop per id.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Iterable, Iterator

import numpy as np

from .arrays import IntVector


class UnionFind:
    """Disjoint sets with union-by-size and path compression."""

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}
        self._components = 0
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        """Ensure ``item`` exists (as its own singleton set)."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1
            self._components += 1

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        """Number of items tracked."""
        return len(self._parent)

    @property
    def component_count(self) -> int:
        """Number of disjoint sets."""
        return self._components

    def find(self, item: Hashable) -> Hashable:
        """Canonical representative of ``item``'s set (adds if missing)."""
        if item not in self._parent:
            self.add(item)
            return item
        # Iterative find with path compression.
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def find_root(self, item: Hashable) -> Hashable | None:
        """Representative of ``item``'s set, or ``None`` if untracked.

        The read-only counterpart of :meth:`find`: querying an unknown
        item never adds it (so lookups cannot inflate the item count).
        """
        if item not in self._parent:
            return None
        return self.find(item)

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the sets containing ``a`` and ``b``; returns the root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._components -= 1
        return ra

    def union_all(self, items: Iterable[Hashable]) -> Hashable | None:
        """Merge every item in ``items`` into one set; returns its root."""
        iterator = iter(items)
        try:
            first = next(iterator)
        except StopIteration:
            return None
        root = self.find(first)
        for item in iterator:
            root = self.union(root, item)
        return root

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """True when ``a`` and ``b`` share a set."""
        if a not in self._parent or b not in self._parent:
            return False
        return self.find(a) == self.find(b)

    def size_of(self, item: Hashable) -> int:
        """Size of the set containing ``item``."""
        return self._size[self.find(item)]

    def component_sizes(self) -> dict[Hashable, int]:
        """``root -> component size`` without materializing member lists.

        Roots are exactly the self-parented items, so this is a single
        scan of the parent map reading the maintained ``_size`` entries.
        """
        parent = self._parent
        size = self._size
        return {item: size[item] for item, p in parent.items() if p == item}

    def components(self) -> dict[Hashable, list[Hashable]]:
        """Materialize all sets as ``root -> members``."""
        out: dict[Hashable, list[Hashable]] = defaultdict(list)
        for item in self._parent:
            out[self.find(item)].append(item)
        return dict(out)

    def iter_items(self) -> Iterator[Hashable]:
        """All tracked items."""
        return iter(self._parent)

    def copy(self) -> "UnionFind":
        """An independent copy (used to layer H2 on top of H1)."""
        clone = UnionFind()
        clone._parent = dict(self._parent)
        clone._size = dict(self._size)
        clone._components = self._components
        return clone


class MergeCursor:
    """A consumer's position in an :class:`IntUnionFind` merge log.

    Created by :meth:`IntUnionFind.merge_cursor`; advanced by
    :meth:`IntUnionFind.drain_merges`.  ``retracted`` counts merges the
    cursor had already delivered that a later :meth:`IntUnionFind.rollback`
    undid — the next drain reports it so the consumer can reconcile
    (see ``drain_merges`` for the contract).
    """

    __slots__ = ("position", "retracted")

    def __init__(self, position: int) -> None:
        self.position = position
        self.retracted = 0


class IntUnionFind:
    """Array-backed disjoint sets over dense ids ``0..n-1`` with undo.

    Union-by-size **without path compression**: the structure is then a
    pure function of its union log, so any merge can be undone by
    resetting one parent pointer — which is what makes
    :meth:`checkpoint` / :meth:`rollback` / :meth:`replay` exact.  Finds
    are O(log n) worst case (union-by-size bounds tree depth), which the
    flat-array backing more than pays back against the dict-of-strings
    structure on the clustering hot path.  Parents and sizes live in
    :class:`~repro.core.arrays.IntVector` buffers; scalar methods bind
    the raw backing array (``_data``) in their loops — safe because a
    live id's parent is always a live id, so walks never enter the
    capacity tail — and :meth:`find_many` resolves whole id batches by
    iterated gather.

    Consumers that maintain *derived* per-cluster state (the service's
    differential cluster aggregates) subscribe to the merge log with
    :meth:`merge_cursor` / :meth:`drain_merges` instead of re-scanning
    members: each drained ``(absorbed_root, kept_root)`` entry is the
    exact fold order for merging the smaller cluster's aggregate into
    the larger's.
    """

    __slots__ = ("_parent", "_size", "_components", "_log", "_cursors")

    def __init__(self, n: int = 0) -> None:
        self._parent = IntVector()
        self._size = IntVector()
        self._components = 0
        self._log: list[tuple[int, int]] = []
        """Merge log: ``(absorbed_root, kept_root)`` per effective union."""
        self._cursors: list[MergeCursor] = []
        """Registered merge-log consumers (see :meth:`merge_cursor`)."""
        if n:
            self.ensure(n)

    def ensure(self, n: int) -> None:
        """Grow the universe so ids ``0..n-1`` exist (as singletons)."""
        current = len(self._parent)
        if n <= current:
            return
        self._parent.grow_to(n)
        self._parent.array[current:] = np.arange(current, n, dtype="<i8")
        self._size.grow_to(n, fill=1)
        self._components += n - current

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, item: int) -> bool:
        return 0 <= item < len(self._parent)

    @property
    def component_count(self) -> int:
        return self._components

    def find(self, item: int) -> int:
        """Root of ``item``'s set (no path compression; see class doc)."""
        parent = self._parent._data
        above = parent[item]
        while above != item:
            item = above
            above = parent[item]
        return int(item)

    def find_many(self, ids) -> np.ndarray:
        """Roots of every id in ``ids``, as a fresh int64 array.

        Iterated whole-batch gather: each pass replaces every id with
        its parent, so the loop runs max-tree-depth times — O(log n)
        passes of C-speed indexing instead of a Python pointer chase per
        id.  Read-only (no compression, like :meth:`find`), so it is
        safe between :meth:`checkpoint` and :meth:`rollback`.  The win
        is batch size: at tens of thousands of ids this is ~8× faster
        than a :meth:`find` loop; for a handful of ids prefer the loop.
        """
        roots = np.asarray(ids, dtype="<i8")
        parent = self._parent._data
        while True:
            above = parent[roots]
            if np.array_equal(above, roots):
                return above
            roots = above

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; logs the merge for undo."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        size = self._size._data
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self._parent._data[rb] = ra
        size[ra] += size[rb]
        self._components -= 1
        self._log.append((rb, ra))
        return ra

    def union_many(self, items, partners=None) -> int | None:
        """Chain or bulk-pair unions, undo-log contract preserved.

        * ``union_many(items)`` — merge every id in ``items`` into one
          set; returns its root (the original chain form).
        * ``union_many(ids_a, ids_b)`` — the bulk batch entry point:
          union ``(ids_a[k], ids_b[k])`` for every k, in order, exactly
          as a sequential :meth:`union` loop would — identical merge
          log, so :meth:`checkpoint` / :meth:`rollback` / merge cursors
          observe nothing different.  Accepts any aligned int sequences
          (numpy int64 arrays are converted once, at C speed); the loop
          binds the parent/size/log structures to locals, walks with
          ``ndarray.item`` (plain Python ints, no numpy scalar churn),
          and memoizes the anchor's root across consecutive pairs that
          share it (the co-spend columns emit one anchor per tx), so
          the engine's per-block H1 pass pays one deep walk per
          distinct id — the same count as the per-tx chain form — and
          one call per *block*.  Returns ``None``.
        """
        if partners is None:
            iterator = iter(items)
            try:
                root = self.find(next(iterator))
            except StopIteration:
                return None
            for item in iterator:
                root = self.union(root, item)
            return root
        ids_a = items.tolist() if hasattr(items, "tolist") else items
        ids_b = partners.tolist() if hasattr(partners, "tolist") else partners
        if len(ids_a) != len(ids_b):
            raise ValueError(
                f"pair arrays misaligned: {len(ids_a)} vs {len(ids_b)}"
            )
        parent = self._parent._data
        size = self._size._data
        step = parent.item
        weight = size.item
        append = self._log.append
        merged = 0
        anchor = anchor_root = -1
        for a, b in zip(ids_a, ids_b):
            if a == anchor:
                # Consecutive pairs share their tx's anchor: restart the
                # walk at its last known root (still current — nothing
                # merged it away between consecutive pairs) instead of
                # re-walking from the leaf.
                a = anchor_root
            else:
                anchor = a
            above = step(a)
            while above != a:
                a = above
                above = step(a)
            anchor_root = a
            above = step(b)
            while above != b:
                b = above
                above = step(b)
            if a == b:
                continue
            sa = weight(a)
            sb = weight(b)
            if sa < sb:
                a, b = b, a
                sa, sb = sb, sa
            parent[b] = a
            size[a] = sa + sb
            merged += 1
            append((b, a))
            anchor_root = a
        self._components -= merged
        return None

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def size_of(self, item: int) -> int:
        return self._size[self.find(item)]

    @property
    def root_sizes(self) -> IntVector:
        """The per-id size vector (meaningful only at roots; junk
        elsewhere).  Exposed read-only for hot-path consumers that
        already hold roots — indexing this skips the :meth:`size_of`
        find, and item access returns plain Python ints.  Callers must
        not mutate it."""
        return self._size

    def root_ids(self) -> np.ndarray:
        """All component roots (self-parented ids), ascending — one
        vectorized scan, no per-id Python work."""
        parent = self._parent.array
        return np.nonzero(parent == np.arange(len(parent), dtype="<i8"))[0]

    def component_sizes(self) -> dict[int, int]:
        """``root -> component size`` (roots are self-parented ids)."""
        roots = self.root_ids()
        sizes = self._size.array[roots]
        return dict(zip(roots.tolist(), sizes.tolist()))

    def components(self) -> dict[int, list[int]]:
        """Materialize all sets as ``root -> member ids``."""
        n = len(self._parent)
        roots = self.find_many(np.arange(n, dtype="<i8")).tolist()
        out: dict[int, list[int]] = defaultdict(list)
        for i, root in enumerate(roots):
            out[root].append(i)
        return dict(out)

    # ------------------------------------------------------------------
    # checkpoint / rollback / replay
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """A token marking the current position in the merge log."""
        return len(self._log)

    def rollback(self, token: int) -> list[tuple[int, int]]:
        """Undo every union after ``token``; ids added by :meth:`ensure`
        stay (as singletons).  Returns the undone log entries in
        chronological order, suitable for :meth:`replay`.

        Merge cursors past ``token`` are pulled back to it and their
        ``retracted`` count bumped, so a drain-based consumer can never
        silently miss that merges it already folded were undone."""
        undone = self._log[token:]
        parent = self._parent._data
        size = self._size._data
        for absorbed, kept in reversed(undone):
            parent[absorbed] = absorbed
            size[kept] -= size[absorbed]
        self._components += len(undone)
        del self._log[token:]
        for cursor in self._cursors:
            if cursor.position > token:
                cursor.retracted += cursor.position - token
                cursor.position = token
        return undone

    def replay(self, entries: Iterable[tuple[int, int]]) -> None:
        """Re-apply previously recorded merges (chronological order).

        Entries must come from this structure's own log (via
        :meth:`rollback` or :meth:`log_prefix`) and be applied onto the
        exact state they were recorded against — each ``absorbed`` must
        currently be a root.  No finds are needed, so replay is O(1) per
        entry.
        """
        parent = self._parent._data
        size = self._size._data
        log = self._log
        n = 0
        for absorbed, kept in entries:
            parent[absorbed] = kept
            size[kept] += size[absorbed]
            log.append((absorbed, kept))
            n += 1
        self._components -= n

    def log_prefix(self, token: int) -> list[tuple[int, int]]:
        """The first ``token`` merge-log entries (chronological)."""
        return self._log[:token]

    def log_span(self, start: int, stop: int) -> list[tuple[int, int]]:
        """Merge-log entries between two checkpoint tokens (chronological)."""
        return self._log[start:stop]

    # ------------------------------------------------------------------
    # merge subscription (differential consumers)
    # ------------------------------------------------------------------

    def merge_cursor(self) -> MergeCursor:
        """Register a merge-log consumer at the current log position.

        The cursor sees only merges applied *after* registration; use
        :meth:`drain_merges` to collect them.  Cursors are not part of
        the durable state (:meth:`export_state` ignores them) and are
        not carried over by :meth:`copy` — a consumer re-registers
        against the structure it actually follows.
        """
        cursor = MergeCursor(len(self._log))
        self._cursors.append(cursor)
        return cursor

    def drain_merges(self, cursor: MergeCursor) -> tuple[int, list[tuple[int, int]]]:
        """Merges since the cursor's last drain, advancing the cursor.

        Returns ``(retracted, entries)``: ``entries`` are the
        ``(absorbed_root, kept_root)`` merges now in the log past the
        cursor, in fold order; ``retracted`` counts previously drained
        merges that a :meth:`rollback` undid since — the consumer must
        un-apply its last ``retracted`` folds before applying
        ``entries``.  A consumer that only drains at points where every
        interleaved rollback was balanced by an exact :meth:`replay`
        (the incremental engine's block boundaries) will observe the
        retracted merges re-delivered verbatim at the head of
        ``entries``, so fold-then-refold reconciliation is exact.
        """
        retracted = cursor.retracted
        entries = self._log[cursor.position:]
        cursor.position = len(self._log)
        cursor.retracted = 0
        return retracted, entries

    def release_cursor(self, cursor: MergeCursor) -> None:
        """Deregister a cursor (rollbacks stop adjusting it)."""
        try:
            self._cursors.remove(cursor)
        except ValueError:
            pass

    def copy(self) -> "IntUnionFind":
        """An independent copy (log included; merge cursors are not)."""
        clone = IntUnionFind()
        clone._parent = self._parent.copy()
        clone._size = self._size.copy()
        clone._components = self._components
        clone._log = list(self._log)
        return clone

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Plain-data state: parents, sizes, and the full merge log.

        The log is part of the state on purpose — the incremental
        engine's time travel replays log prefixes, so a restored
        structure must be able to answer every historical horizon the
        live one could.

        Arrays are exported as raw little-endian int64 bytes (the log
        as an ``(n, 2)`` row-major buffer): at a million addresses the
        parent/size/log columns dominate the engine and aggregate
        segments, and a flat-bytes export keeps snapshot cost one
        ``memcpy`` per column instead of a Python-object copy per id.
        """
        return {
            "parent": self._parent.tobytes(),
            "size": self._size.tobytes(),
            "components": self._components,
            "log": np.asarray(
                self._log if self._log else np.empty((0, 2)), dtype="<i8"
            ).tobytes(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "IntUnionFind":
        """Rebuild a structure from :meth:`export_state` output.

        Only the columnar bytes shape is accepted; the pre-kernel list
        shape fails closed.
        """
        parent = state["parent"]
        if not isinstance(parent, bytes):
            raise ValueError(
                "union-find state is not in the columnar bytes shape "
                "(pre-kernel snapshot); rebuild cold"
            )
        uf = cls()
        uf._parent = IntVector.from_bytes(parent)
        uf._size = IntVector.from_bytes(state["size"])
        uf._log = [
            (absorbed, kept)
            for absorbed, kept in np.frombuffer(state["log"], dtype="<i8")
            .reshape(-1, 2)
            .tolist()
        ]
        uf._components = state["components"]
        if len(uf._parent) != len(uf._size):
            raise ValueError("union-find state parents/sizes misaligned")
        return uf
