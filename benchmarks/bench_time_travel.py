"""Ranked time travel: replayed horizons vs the batch rebuild at ``h``.

The serving claim behind the aggregate view's per-height delta log: a
historical ranked or rolled-up cluster question (``top_clusters``,
``cluster_profile``, ``cluster_balance``, ``cluster_of`` at ``h < tip``)
replays a sparse checkpoint plus a bounded run of height records, so an
analyst scrubbing across the chain's history pays O(spine gap + churn at
``h``) per horizon — not a full partition materialization, balance
re-sum, and re-ranking at every height touched.

The service and the baseline run the same mixed historical workload
(uniformly random horizons over the whole chain, several kinds per
horizon) over the same prebuilt 600-block world; the baseline is the
batch oracle (``tests/batch_oracle.py``), which rebuilds every
whole-partition aggregate as of each horizon once and shares it across
that horizon's queries.  Every answer is
cross-checked equal, so the speedup is not bought with different
answers.  GC is disabled inside the timed regions so collector pauses
are not misattributed.
"""

import gc
import random
import time

from repro.service import ForensicsService, Query
from repro.service.queries import TOP_CLUSTER_METRICS

from tests.batch_oracle import BatchOracle

N_HEIGHTS = 80
SPEEDUP_BOUND = 10.0


def _historical_workload(world, n_heights: int) -> list[Query]:
    """A mixed stream of historical queries at random horizons.

    Horizons are shuffled (an analyst scrubs, not sweeps) and strictly
    below the tip, so every query exercises the horizon path rather
    than the tip fast path.  Each query in the stream is distinct, so
    neither service's memo cache shortcuts the timed pass.
    """
    rng = random.Random(23)
    tip = world.index.height
    interner = world.index.interner
    heights = rng.sample(range(tip), n_heights)
    queries: list[Query] = []
    for i, height in enumerate(heights):
        queries.append(
            Query(
                "top_clusters",
                (10, TOP_CLUSTER_METRICS[i % len(TOP_CLUSTER_METRICS)], height),
            )
        )
        for kind in ("cluster_profile", "cluster_balance", "cluster_of"):
            address = interner.address_of(rng.randrange(len(interner)))
            queries.append(Query(kind, (address, height)))
    return queries


def _timed_pass(service, queries: list[Query]):
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        answers = [service.answer(query) for query in queries]
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    return seconds, answers


def test_time_travel_beats_batch_rebuild_10x(bench_default_world, bench_report):
    world = bench_default_world
    queries = _historical_workload(world, N_HEIGHTS)

    fast = ForensicsService.from_world(world)
    base = BatchOracle.of(ForensicsService.from_world(world))
    assert fast.aggregates.covers(0)
    # Materialize the checkpoint spine once, untimed: the first horizon
    # past the spine's frontier pays a one-time walk that stores every
    # interval checkpoint along the way — index-build cost on the same
    # footing as service construction, not per-query serving work.
    fast.aggregates.horizon(max(query.args[-1] for query in queries))

    fast_seconds, fast_answers = _timed_pass(fast, queries)
    base_seconds, base_answers = _timed_pass(base, queries)

    # Same stream, same answers — the property suite pins replayed ==
    # batch per height; here it guards the benchmark itself.
    assert fast_answers == base_answers

    speedup = base_seconds / fast_seconds
    print(
        f"\n{len(queries)} historical queries over {N_HEIGHTS} random "
        f"horizons (chain height {world.index.height}):\n"
        f"  time travel:   {fast_seconds:.3f}s "
        f"({len(queries) / fast_seconds:,.0f} q/s)\n"
        f"  batch rebuild: {base_seconds:.3f}s "
        f"({len(queries) / base_seconds:,.0f} q/s)\n"
        f"  speedup: ×{speedup:,.1f}"
    )
    bench_report(
        "time_travel",
        {
            "horizons": N_HEIGHTS,
            "queries": len(queries),
            "time_travel_seconds": fast_seconds,
            "batch_seconds": base_seconds,
            "speedup": speedup,
            "bound": SPEEDUP_BOUND,
        },
    )
    assert fast_seconds * SPEEDUP_BOUND <= base_seconds
