"""Check that reference-speed scaling keeps a program slowdown at its size.

Usage (from the repository root)::

    python3 perfbench/calcheck.py --seed 1 --passes 12

Timings are scaled by a kernel timed between operations (``calib.py``).
If a slowdown in the program also slowed the kernel, through the caches
or allocator state it leaves behind, the scaled figure would hide part
of it.  This script injects two known slowdowns into every
``ChainIndex.add_block`` by wrapping it at run time (``src/`` is not
edited): a CPU loop (``cpu``), and an allocation of 24k objects kept
alive until the next block (``alloc``).  Then, on ``live_tip`` rounds:

1. alternating slowed and plain rounds, with one kernel sample right
   after each round: the kernel time after a slowed round over that
   after a plain one should read 1;
2. whole passes cycling plain, ``cpu`` and ``alloc``, as the benchmark
   plays them: each slowed variant's round p50 over the plain one
   (medians over passes), raw and scaled.  Host drift between passes
   makes the raw ratio the noisier of the two; both should agree with
   the drift-free round ratio of step 1 (which, for ``alloc``, reads
   low: collections its allocations trigger partly land in the plain
   rounds that follow).
"""

from __future__ import annotations

import argparse
import gc
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.chain.blockfile import BlockFileReader  # noqa: E402
from repro.chain.index import ChainIndex  # noqa: E402

from workloads import LIVE_PREFIX, LiveTip, Run  # noqa: E402

slowdown: str | None = None
_kept = None


def _cpu() -> None:
    x = 0
    for i in range(60_000):
        x ^= i


def _alloc() -> None:
    global _kept
    _kept = [str(i) * 2 for i in range(12_000)] + [[i] for i in range(12_000)]


SLOWDOWNS = {"cpu": _cpu, "alloc": _alloc}


def _slowed(add_block):
    def add_block_slowed(self, block):
        if slowdown is not None:
            SLOWDOWNS[slowdown]()
        return add_block(self, block)

    return add_block_slowed


def alternate(run, chain, rounds, service, kind: str, parity: int):
    """One pass, ``kind`` on every other round; returns per-round times
    and the kernel time sampled right after, keyed by slowed or not."""
    global slowdown
    took = {False: [], True: []}
    after = {False: [], True: []}
    blocks = BlockFileReader(chain.directory).iter_blocks(
        start_height=LIVE_PREFIX)
    for r, queries in enumerate(rounds):
        slowed = r % 2 == parity
        slowdown = kind if slowed else None
        block = next(blocks)
        begin = perf_counter()
        service.index.add_block(block)
        service.answer_many(queries)
        took[slowed].append(perf_counter() - begin)
        slowdown = None
        run.cal.sample()
        start, end = run.cal.samples[-1]
        after[slowed].append(end - start)
    return took, after


def main() -> int:
    global slowdown
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=12,
                        help="whole passes in step 2 (a multiple of 3)")
    args = parser.parse_args()
    ChainIndex.add_block = _slowed(ChainIndex.add_block)
    workdir = HERE / ".work" / "calcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(seed=args.seed, seconds=0, workdir=workdir, traced=False)
    live = LiveTip()
    try:
        chain, rounds, service = live.setup(run, workdir / "chain")

        def fresh():
            nonlocal service
            service = None
            gc.collect()
            service = live.prefix(run, chain)

        print("1. kernel after a slowed round / after a plain round")
        for kind in SLOWDOWNS:
            took = {False: [], True: []}
            after = {False: [], True: []}
            for parity in (0, 1):
                t, a = alternate(run, chain, rounds, service, kind, parity)
                for slowed in (False, True):
                    took[slowed] += t[slowed]
                    after[slowed] += a[slowed]
                fresh()
            kernel_ratio = median(after[True]) / median(after[False])
            round_ratio = median(took[True]) / median(took[False])
            print(f"   {kind:5s} kernel {kernel_ratio:.3f}"
                  f"  (round {round_ratio:.3f},"
                  f" n={len(took[True])}+{len(took[False])})")

        print("2. whole passes: round p50 over plain, raw and scaled")
        variants = [None, *SLOWDOWNS]
        raw = {v: [] for v in variants}
        scaled = {v: [] for v in variants}
        for p in range(args.passes):
            variant = variants[p % len(variants)]
            slowdown = variant
            spans, _answers = live.rounds(run, chain, rounds, service)
            slowdown = None
            raw[variant].append(median(e - b for b, e in spans))
            scaled[variant].append(
                median(run.cal.scaled(b, e) for b, e in spans))
            fresh()
        for kind in SLOWDOWNS:
            raw_ratio = median(raw[kind]) / median(raw[None])
            scaled_ratio = median(scaled[kind]) / median(scaled[None])
            print(f"   {kind:5s} raw {raw_ratio:.3f}  scaled {scaled_ratio:.3f}"
                  f"  (passes {len(raw[kind])})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no run is using it
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
