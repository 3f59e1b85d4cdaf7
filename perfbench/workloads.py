"""The four workloads: what each times, and how its answers are checked.

Every workload is a closed loop with one client and no think time, in one
process with no extra threads.  Input always comes from ``blk*.dat`` files
written during set-up, so parsing and first-touch address rendering are
paid inside the timed region, as they are for a user.  The garbage
collector stays on and nothing pre-warms ``TxOut.address``: both are part
of what a user waits for.

Each workload defines its *operation*, the unit the end-to-end latency
percentiles are taken over:

* ``cold_build``: one catch-up, from the first parsed block through the
  first answered batch (which pays the one coalesced aggregate flush);
* ``live_tip``: one round, from a block's ``add_block`` to the last answer
  of the query round that follows it;
* ``history_scrub``: one four-query batch at a fresh historical height;
* ``restart``: one recovery, ``StateStore.warm_start`` through the first
  answered batch.
"""

from __future__ import annotations

import gc
import random
import resource
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from repro.chain.blockfile import BlockFileReader
from repro.chain.index import ChainIndex
from repro.service import ForensicsService
from repro.service.queries import Query
from repro.storage import StateStore

import chaingen
from calib import Calibration
from ledger import Ledger, growth, percentile
from oracle import Oracle, TOP_METRICS, same_answer

COLD_BLOCKS = 3750
"""Default shape: ~151k addresses, ~10^5 clusters in the cold flush."""

LIVE_PREFIX = 1200
"""Blocks ingested in set-up; past the one-week wait window (1008
blocks), so the tip carries a full window of open H2 labels."""

LIVE_ROUNDS = 600
"""Rounds in one pass, one per block from height ``LIVE_PREFIX`` on.  The
timed loop replays whole passes, each on a freshly built prefix, until
time is up, so the latency samples cover the same heights however fast
the program is."""

HISTORY_BLOCKS = 2000
RESTART_BLOCKS = 1600
RESTART_TAIL = 160
"""Blocks after the snapshot that ``warm_start`` replays."""

SETUP_REPEATS = 3
"""Set-ups per untraced run; ``setup_s`` is their median."""

CHECKED_SAMPLES = 3
"""Mid-run ``live_tip`` rounds and ``history_scrub`` horizons re-checked."""

SAMPLE_WINDOW = 150
"""Checked samples are drawn from the first this-many operations, which
every run reaches."""

MIN_BUILDS = 2
"""``cold_build`` takes at least this many catch-ups, so its median never
rests on the first build alone.  Three make ~45 s runs, too slow for the
whole schedule of benchmark runs; two make ~25 s runs."""

TRACE_PAIRS = 2
"""Untraced/traced catch-up pairs a traced ``cold_build`` run times;
``obs.trace_overhead`` is the median of their ratios."""

RSS_AT_OPS = {"cold_build": 1, "live_tip": LIVE_ROUNDS, "history_scrub": 300,
              "restart": 2}
"""``peak_rss_mib`` is read once this many operations are done (or at the
end of a shorter loop).  A fixed point keeps the reading independent of
speed: a faster program plays more rounds in the same seconds, and the
state those extra blocks add must not read as a memory regression."""

TAIL_PERCENTILE = {"cold_build": 50, "live_tip": 90, "history_scrub": 95,
                   "restart": 50}
"""The percentile ``op_ms_tail`` reports.  ``history_scrub`` takes
hundreds of samples a run and reports p95.  ``live_tip`` reports p90: its
slowest 5% of rounds is mostly one burst of host load lasting a few
hundred milliseconds, shorter than the calibration can follow, and its
p95 spread 0.15-0.22 across seeds where p90 spread 0.12.  ``cold_build``
(two) and ``restart`` (~15) take too few samples for any tail, so
theirs is the median."""

TOP_N = 10
TIP_ADDRESSES = 4


@dataclass
class Run:
    """One invocation's settings, samples and correctness tally."""

    seed: int
    seconds: float
    workdir: Path
    traced: bool
    attempted: int = 0
    failed: int = 0
    setup_spans: list[tuple[float, float]] = field(default_factory=list)
    op_spans: list[tuple[float, float]] = field(default_factory=list)
    """``(begin, end)`` wall-clock of each set-up and each timed operation."""
    report: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    """Workload-specific headline figures: ``name -> (value, unit, n)``."""
    layers: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    rss_at_ops: int = 1
    peak_rss_mib: float | None = None
    cal: Calibration = field(default_factory=Calibration)

    def record_op(self, begin: float, end: float) -> None:
        self.op_spans.append((begin, end))
        if len(self.op_spans) == self.rss_at_ops:
            self.read_rss()

    def ops_ms(self, scaled: bool = True) -> list[float]:
        """Operation latencies, at the reference speed unless ``scaled``
        is false (then wall-clock)."""
        return [1e3 * self._seconds(b, e, scaled) for b, e in self.op_spans]

    def setups_s(self, scaled: bool = True) -> list[float]:
        return [self._seconds(b, e, scaled) for b, e in self.setup_spans]

    def _seconds(self, begin: float, end: float, scaled: bool) -> float:
        return self.cal.scaled(begin, end) if scaled else end - begin

    def read_rss(self) -> None:
        if self.peak_rss_mib is None:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            self.peak_rss_mib = usage.ru_maxrss / 1024

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{purpose}:{self.seed}")

    def ask(self, service, queries, ledger: Ledger | None = None) -> list:
        """One batch; a raising batch counts every query in it as failed
        and answers ``None``."""
        self.attempted += len(queries)
        try:
            if ledger is not None:
                return ledger.answer_many(service, queries)
            return service.answer_many(queries)
        except Exception as exc:  # a benchmark must report, not crash
            self.failed += len(queries)
            self.errors.append(f"{queries[0].kind}: {exc!r}")
            return None

    def check(self, oracle: Oracle, chain, queries, answers) -> None:
        """Compare answers with the oracle; a mismatch counts as failed
        (a batch that already raised is not counted twice)."""
        if answers is None:
            return
        thefts = {label: txid for label, txid, _h in chain.thefts}
        for query, got in zip(queries, answers):
            want = expected(oracle, thefts, query)
            if not same_answer(query.kind, got, want):
                self.failed += 1
                self.errors.append(
                    f"{query.kind}{query.args} at {oracle.height}: "
                    f"got {got!r}, want {want!r}"
                )

    def timed_out(self, start: float) -> bool:
        return perf_counter() - start >= self.seconds


def expected(oracle: Oracle, thefts: dict, query: Query):
    kind, args = query.kind, query.args
    if kind == "top_clusters":
        return oracle.top_clusters(args[0], args[1])
    if kind == "trace_taint":
        return oracle.trace_taint(args[0], thefts[args[0]])
    return getattr(oracle, kind)(args[0])


def tip_batch(chain, rng: random.Random, height: int) -> list[Query]:
    """Every query kind at the tip: three rankings, four addresses asked
    each per-address kind, and every watched theft."""
    queries = [Query("top_clusters", (TOP_N, by)) for by in TOP_METRICS]
    for _ in range(TIP_ADDRESSES):
        address = chain.address_at(rng, height)
        for kind in ("cluster_profile", "cluster_balance", "cluster_of",
                     "balance_of"):
            queries.append(Query(kind, (address,)))
    queries += [
        Query("trace_taint", (label,))
        for label, _txid, h in chain.thefts if h <= height
    ]
    return queries


def new_service(chain, ledger: Ledger | None = None):
    index = ChainIndex()
    service = ForensicsService(
        index,
        tags=chain.tag_store(),
        metrics=ledger.registry if ledger is not None else None,
    )
    return index, service


def watch(service, chain) -> None:
    for label, txid, height in chain.thefts:
        if height <= service.height:
            service.watch_theft(label, [txid])


def next_block(blocks, ledger: Ledger | None = None):
    """The next block of a ``BlockFileReader`` stream (None at its end);
    under a ledger the read is timed as ``chain.parse_s``."""
    if ledger is None:
        return next(blocks, None)
    with ledger.timed("parse"):
        return next(blocks, None)


def add(index, block, ledger: Ledger | None = None) -> None:
    """``add_block``; under a ledger, after a timed first-touch rendering
    pass over the block's outputs (the benchmark's ``chain.render_s``)."""
    if ledger is not None:
        with ledger.timed("render"):
            for tx in block.transactions:
                for out in tx.outputs:
                    out.address
    index.add_block(block)


def ingest(index, chain, stop: int | None = None, tick=None,
           ledger: Ledger | None = None) -> None:
    """Stream blocks ``0..stop-1`` (all when ``stop`` is None) from disk,
    calling ``tick`` after each."""
    blocks = BlockFileReader(chain.directory).iter_blocks()
    while True:
        block = next_block(blocks, ledger)
        if block is None or (stop is not None and block.height >= stop):
            break
        add(index, block, ledger)
        if tick is not None:
            tick()


def untraced(ledger: Ledger | None):
    """Inside a traced window, a context whose collector pauses the ledger
    leaves out; without a ledger, nothing."""
    return nullcontext() if ledger is None else ledger.outside()


def both(ledger: Ledger, step: int, plain, traced):
    """Call ``plain()`` outside the trace and ``traced()`` inside it, in an
    order that alternates with ``step``; returns both results."""
    if step % 2:
        traced_result = traced()
        with ledger.outside():
            plain_result = plain()
    else:
        with ledger.outside():
            plain_result = plain()
        traced_result = traced()
    return plain_result, traced_result


def finish_trace(run: Run, ledger: Ledger, traced, plain) -> None:
    """The traced run's layers: the ledger's, ``obs.traced_region_s``
    (wall-clock of the traced operations, kernel runs left out) and
    ``obs.trace_overhead``: the median traced operation over the median
    untraced one, both at the reference speed.  Medians, because a full
    collection lands on one side or the other as a lump."""
    run.layers = ledger.layers()
    run.layers["obs.traced_region_s"] = sum(
        run.cal.busy(begin, end) for begin, end in traced)
    run.layers["obs.trace_overhead"] = (
        median(run.cal.scaled(*span) for span in traced)
        / median(run.cal.scaled(*span) for span in plain))


# ---------------------------------------------------------------------------
# cold_build
# ---------------------------------------------------------------------------


class ColdBuild:
    """Catch-up and cold start over the default shape (zero H2 labels)."""

    name = "cold_build"

    def setup(self, run: Run, directory: Path):
        chain = chaingen.generate(directory, COLD_BLOCKS, "default", run.seed,
                                  tick=run.cal.tick)
        batch = tip_batch(chain, run.rng("cold"), COLD_BLOCKS - 1)
        return chain, batch

    def build(self, run: Run, chain, batch, ledger: Ledger | None = None):
        """One catch-up, after a collection of the last one's garbage;
        returns ``((begin, end), service, answers)``."""
        with untraced(ledger):
            gc.collect()
            run.cal.sample(5)
        begin = perf_counter()
        index, service = new_service(chain, ledger)
        ingest(index, chain, tick=run.cal.tick, ledger=ledger)
        watch(service, chain)
        answers = run.ask(service, batch, ledger)
        return (begin, perf_counter()), service, answers

    def measure(self, run: Run, state) -> None:
        chain, batch = state
        start = perf_counter()
        while True:
            span, service, answers = self.build(run, chain, batch)
            run.record_op(*span)
            if len(run.op_spans) >= MIN_BUILDS and run.timed_out(start):
                break
            del service, answers
        run.report["catchup_blocks_per_s"] = (
            COLD_BLOCKS / (median(run.ops_ms()) / 1e3), "blocks/s",
            len(run.op_spans),
        )
        run.check(
            Oracle(service.index, service.height, chain.tags),
            chain, batch, answers,
        )

    def trace(self, run: Run, state, directory: Path) -> None:
        """Untraced and traced catch-ups in alternation, then a traced one
        at half scale for the ``.growth`` metrics."""
        chain, batch = state
        ratios = []
        for pair in range(TRACE_PAIRS):
            # Untraced first, then traced first: drift across the pairs
            # hits both sides alike.
            if pair % 2 == 0:
                plain = self.build(run, chain, batch)[0]
            ledger, traced = self._traced(run, chain, batch)
            if pair % 2 == 1:
                plain = self.build(run, chain, batch)[0]
            finish_trace(run, ledger, [traced], [plain])
            ratios.append(run.layers["obs.trace_overhead"])
            run.report[f"trace_overhead_pair{pair}"] = (ratios[-1], "ratio", 1)
        full = run.layers
        full["obs.trace_overhead"] = median(ratios)
        half_chain = chaingen.generate(
            directory / "half", COLD_BLOCKS // 2, "default", run.seed
        )
        half_batch = tip_batch(half_chain, run.rng("cold"), COLD_BLOCKS // 2 - 1)
        ledger, half = self._traced(run, half_chain, half_batch)

        def speed(span):
            return run.cal.scaled(*span) / run.cal.busy(*span)

        full.update(growth(full, ledger.layers(), speed(traced) / speed(half)))

    def _traced(self, run: Run, chain, batch):
        """One traced catch-up, checked; returns its ledger and its
        ``(begin, end)``."""
        ledger = Ledger()
        with ledger.window():
            span, service, answers = self.build(run, chain, batch, ledger)
        ledger.add_state(service)
        run.check(
            Oracle(service.index, service.height, chain.tags),
            chain, batch, answers,
        )
        return ledger, span


# ---------------------------------------------------------------------------
# live_tip
# ---------------------------------------------------------------------------


class LiveTip:
    """Live serving on the H2 shape: one block, then one query round."""

    name = "live_tip"

    def setup(self, run: Run, directory: Path):
        mid = LIVE_PREFIX // 2
        chain = chaingen.generate(
            directory, LIVE_PREFIX + LIVE_ROUNDS, "h2", run.seed,
            theft_heights=(mid - 40, mid, mid + 40), tick=run.cal.tick,
        )
        rng = run.rng("live")
        rounds = []
        for r in range(LIVE_ROUNDS):
            height = LIVE_PREFIX + r
            rounds.append([
                Query("top_clusters", (TOP_N, TOP_METRICS[r % 3])),
                Query("cluster_profile", (chain.address_at(rng, height),)),
                Query("cluster_balance", (chain.address_at(rng, height),)),
                Query("cluster_of", (chain.address_at(rng, height),)),
                Query("balance_of", (chain.address_at(rng, height),)),
                Query("trace_taint", (chain.thefts[r % 3][0],)),
            ])
        return [chain, rounds, self.prefix(run, chain)]

    def prefix(self, run: Run, chain, ledger: Ledger | None = None):
        index, service = new_service(chain, ledger)
        ingest(index, chain, LIVE_PREFIX, tick=run.cal.tick)
        watch(service, chain)
        run.ask(service, tip_batch(chain, run.rng("prefix"), LIVE_PREFIX - 1))
        return service

    def checked(self, run: Run) -> set[int]:
        return set(run.rng("live-check").sample(
            range(SAMPLE_WINDOW), CHECKED_SAMPLES))

    def blocks(self, chain):
        return BlockFileReader(chain.directory).iter_blocks(
            start_height=LIVE_PREFIX)

    def round(self, run: Run, service, blocks, queries,
              ledger: Ledger | None = None):
        """The next block, then the round's queries; returns the round's
        ``(begin, end)`` and its answers."""
        block = next_block(blocks, ledger)
        begin = perf_counter()
        add(service.index, block, ledger)
        answers = run.ask(service, queries, ledger)
        return (begin, perf_counter()), answers

    def rounds(self, run: Run, chain, rounds, service):
        """Play one pass on a service at the prefix tip; returns the
        per-round ``(begin, end)`` and the answers of the checked rounds."""
        checked = self.checked(run)
        blocks = self.blocks(chain)
        spans, kept = [], {}
        for r, queries in enumerate(rounds):
            span, answers = self.round(run, service, blocks, queries)
            spans.append(span)
            run.record_op(*span)
            run.cal.tick()
            if r in checked:
                kept[r] = answers
        return spans, kept

    def verify(self, run: Run, chain, rounds, service, kept) -> None:
        for r, answers in kept.items():
            oracle = Oracle(service.index, LIVE_PREFIX + r, chain.tags)
            run.check(oracle, chain, rounds[r], answers)
        batch = tip_batch(chain, run.rng("final"), service.height)
        run.check(
            Oracle(service.index, service.height, chain.tags),
            chain, batch, run.ask(service, batch),
        )

    def measure(self, run: Run, state) -> None:
        chain, rounds = state[:2]
        service = state.pop()  # held here only, so a rebuild can free it
        start = perf_counter()
        while True:
            _spans, kept = self.rounds(run, chain, rounds, service)
            if run.timed_out(start):
                break
            del service
            gc.collect()
            service = self.prefix(run, chain)
        ops = run.ops_ms()
        run.report["round_ms_p50"] = (percentile(ops, 50), "ms", len(ops))
        run.report["round_ms_p99"] = (percentile(ops, 99), "ms", len(ops))
        self.verify(run, chain, rounds, service, kept)

    def trace(self, run: Run, state, directory: Path) -> None:
        """One pass on the untraced service and on a traced one, round by
        round in alternation, so host drift hits both sides alike."""
        chain, rounds, plain_service = state
        ledger = Ledger()
        traced_service = self.prefix(run, chain, ledger)
        before = traced_service.cache.stats()
        checked = self.checked(run)
        plain_blocks, traced_blocks = self.blocks(chain), self.blocks(chain)
        plain, traced, kept = [], [], {}
        with ledger.window():
            for r, queries in enumerate(rounds):
                (plain_span, _), (traced_span, answers) = both(
                    ledger, r,
                    lambda: self.round(run, plain_service, plain_blocks,
                                       queries),
                    lambda: self.round(run, traced_service, traced_blocks,
                                       queries, ledger),
                )
                plain.append(plain_span)
                traced.append(traced_span)
                run.cal.tick()
                if r in checked:
                    kept[r] = answers
        ledger.add_cache(before, traced_service.cache.stats())
        ledger.add_state(traced_service)
        finish_trace(run, ledger, traced, plain)
        self.verify(run, chain, rounds, traced_service, kept)


# ---------------------------------------------------------------------------
# history_scrub
# ---------------------------------------------------------------------------


class HistoryScrub:
    """Past-height questions over a fully built H2 chain."""

    name = "history_scrub"

    def setup(self, run: Run, directory: Path):
        chain = chaingen.generate(directory, HISTORY_BLOCKS, "h2", run.seed,
                                  tick=run.cal.tick)
        rng = run.rng("history")
        heights = list(range(HISTORY_BLOCKS - 1))
        rng.shuffle(heights)
        horizons = []
        for i, h in enumerate(heights):
            horizons.append([
                Query("top_clusters", (TOP_N, TOP_METRICS[i % 3], h)),
                Query("cluster_profile", (chain.address_at(rng, h), h)),
                Query("cluster_balance", (chain.address_at(rng, h), h)),
                Query("cluster_of", (chain.address_at(rng, h), h)),
            ])
        return chain, horizons, self.build(run, chain)

    def build(self, run: Run, chain, ledger: Ledger | None = None):
        index, service = new_service(chain, ledger)
        ingest(index, chain, tick=run.cal.tick)
        watch(service, chain)
        run.ask(service, tip_batch(chain, run.rng("prefix"), service.height))
        return service

    def checked(self, run: Run) -> set[int]:
        return {0} | set(run.rng("history-check").sample(
            range(1, SAMPLE_WINDOW), CHECKED_SAMPLES - 1))

    def horizon(self, run: Run, service, queries,
                ledger: Ledger | None = None):
        """One batch at one height; returns its ``(begin, end)`` and its
        answers."""
        begin = perf_counter()
        answers = run.ask(service, queries, ledger)
        return (begin, perf_counter()), answers

    def scrub(self, run: Run, horizons, service):
        """The first horizon, then fresh ones until time is up; returns
        every horizon's ``(begin, end)`` and the answers of the checked
        horizons.  The first, which pays the spine walk, is not an
        operation sample."""
        checked = self.checked(run)
        spans, kept = [], {}
        start = perf_counter()
        for i, queries in enumerate(horizons):
            if i > 0 and run.timed_out(start):
                break
            span, answers = self.horizon(run, service, queries)
            spans.append(span)
            if i:
                run.record_op(*span)
            run.cal.tick()
            if i in checked:
                kept[i] = answers
        return spans, kept

    def verify(self, run: Run, chain, horizons, service, kept) -> None:
        for i, answers in kept.items():
            height = horizons[i][0].args[2]
            run.check(Oracle(service.index, height, chain.tags),
                      chain, horizons[i], answers)
        batch = tip_batch(chain, run.rng("final"), service.height)
        run.check(
            Oracle(service.index, service.height, chain.tags),
            chain, batch, run.ask(service, batch),
        )

    def measure(self, run: Run, state) -> None:
        chain, horizons, service = state
        spans, kept = self.scrub(run, horizons, service)
        ops = run.ops_ms()
        run.report["first_horizon_s"] = (run.cal.scaled(*spans[0]), "s", 1)
        run.report["horizon_ms_p50"] = (percentile(ops, 50), "ms", len(ops))
        run.report["horizon_ms_p95"] = (percentile(ops, 95), "ms", len(ops))
        self.verify(run, chain, horizons, service, kept)

    def trace(self, run: Run, state, directory: Path) -> None:
        """The same horizons on the untraced service and on a traced one,
        in alternation, until time is up."""
        chain, horizons, plain_service = state
        ledger = Ledger()
        traced_service = self.build(run, chain, ledger)
        before = traced_service.cache.stats()
        checked = self.checked(run)
        plain, traced, kept = [], [], {}
        start = perf_counter()
        with ledger.window():
            for i, queries in enumerate(horizons):
                if i > 0 and run.timed_out(start):
                    break
                (plain_span, _), (traced_span, answers) = both(
                    ledger, i,
                    lambda: self.horizon(run, plain_service, queries),
                    lambda: self.horizon(run, traced_service, queries,
                                         ledger),
                )
                plain.append(plain_span)
                traced.append(traced_span)
                run.cal.tick()
                if i in checked:
                    kept[i] = answers
        begin, end = traced[0]
        ledger.timers["first_horizon"] = end - begin
        ledger.add_cache(before, traced_service.cache.stats())
        ledger.add_state(traced_service)
        finish_trace(run, ledger, traced, plain)
        self.verify(run, chain, horizons, traced_service, kept)


# ---------------------------------------------------------------------------
# restart
# ---------------------------------------------------------------------------


class Restart:
    """Snapshot capture, then warm restarts with a tail replay."""

    name = "restart"

    def setup(self, run: Run, directory: Path, ledger: Ledger | None = None):
        chain = chaingen.generate(
            directory / "chain", RESTART_BLOCKS, "h2", run.seed,
            tick=run.cal.tick)
        snapshot_height = RESTART_BLOCKS - RESTART_TAIL
        index, service = new_service(chain)
        ingest(index, chain, snapshot_height, tick=run.cal.tick)
        watch(service, chain)
        store = StateStore(
            directory / "state",
            metrics=ledger.registry if ledger is not None else None,
        )
        begin = perf_counter()
        if ledger is None:
            path = store.snapshot(service)
        else:
            with ledger.window():
                path = store.snapshot(service)
        seconds = run.cal.scaled(begin, perf_counter())
        size = sum(f.stat().st_size for f in path.iterdir() if f.is_file())
        run.report["snapshot_s"] = (seconds, "s", 1)
        run.report["snapshot_mib"] = (size / 2**20, "MiB", 1)
        batch = tip_batch(chain, run.rng("restart"), RESTART_BLOCKS - 1)
        return chain, store, batch

    def recover(self, run: Run, state, ledger: Ledger | None = None):
        """One recovery, after a collection of the last one's garbage;
        returns ``((begin, end), service, answers)``."""
        chain, store, batch = state
        with untraced(ledger):
            gc.collect()
            run.cal.sample(5)
        begin = perf_counter()
        service = store.warm_start(chain.directory).service
        if ledger is not None:
            ledger.timers["warm_start"] += perf_counter() - begin
        answers = run.ask(service, batch, ledger)
        return (begin, perf_counter()), service, answers

    def verify(self, run: Run, state, service, answers) -> None:
        """Restored == never-restarted, and both == the oracle."""
        chain, _store, batch = state
        del service
        gc.collect()
        index, cold = new_service(chain)
        ingest(index, chain)
        watch(cold, chain)
        never_restarted = run.ask(cold, batch)
        if answers is None or never_restarted is None:
            return
        for query, got, want in zip(batch, answers, never_restarted):
            if not same_answer(query.kind, got, want):
                run.failed += 1
                run.errors.append(f"restored != never-restarted: {query}")
        run.check(Oracle(index, index.height, chain.tags),
                  chain, batch, answers)

    def measure(self, run: Run, state) -> None:
        start = perf_counter()
        while True:
            span, service, answers = self.recover(run, state)
            run.record_op(*span)
            if run.timed_out(start):
                break
            del service, answers
        run.cal.sample(5)
        run.report["recovery_s"] = (median(run.ops_ms()) / 1e3, "s",
                                    len(run.op_spans))
        self.verify(run, state, service, answers)

    def trace(self, run: Run, state, directory: Path) -> None:
        """Recoveries from the untraced store and from a traced one (of
        its own snapshot), in alternation, until time is up."""
        ledger = Ledger()
        traced_dir = directory / "traced"
        traced_dir.mkdir()
        traced_state = self.setup(run, traced_dir, ledger)
        plain, traced = [], []
        start = perf_counter()
        with ledger.window():
            while not traced or not run.timed_out(start):
                # Only the spans are kept: no recovered service outlives
                # its own step.
                plain_span, traced_span = both(
                    ledger, len(traced),
                    lambda: self.recover(run, state)[0],
                    lambda: self.recover(run, traced_state, ledger)[0],
                )
                plain.append(plain_span)
                traced.append(traced_span)
        run.cal.sample(5)
        _span, service, answers = self.recover(run, traced_state)
        ledger.add_state(service)
        finish_trace(run, ledger, traced, plain)
        self.verify(run, traced_state, service, answers)


WORKLOADS = {w.name: w for w in (ColdBuild(), LiveTip(), HistoryScrub(),
                                 Restart())}


def run_workload(name: str, run: Run) -> None:
    """Set up (several times untraced), then measure or trace."""
    workload = WORKLOADS[name]
    run.rss_at_ops = RSS_AT_OPS[name]
    repeats = 1 if run.traced else SETUP_REPEATS
    state = None
    for attempt in range(repeats):
        directory = run.workdir / f"setup-{attempt}"
        state = None  # drop the previous set-up before building the next
        gc.collect()
        run.cal.sample(5)
        start = perf_counter()
        state = workload.setup(run, directory)
        run.setup_spans.append((start, perf_counter()))
        run.cal.sample(5)
        if attempt < repeats - 1:
            shutil.rmtree(directory)
    if run.traced:
        workload.trace(run, state, run.workdir)
        for name, zero in growth({}, {}).items():
            run.layers.setdefault(name, zero)  # only cold_build has two scales
    else:
        workload.measure(run, state)
        run.read_rss()
