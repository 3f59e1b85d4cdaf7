"""Run one benchmark workload against the program in ``src/``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live_tip --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
runs the workload again with the program's metrics registry attached and
prints the per-layer ledger.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in its own fresh process and prints only the readable lines.

The metric names, units and workloads are those of ``BENCHMARK.json`` at
the repository root; ``perfbench/README.md`` explains each of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program():
    """Put ``src/`` on the path; fail (no result) when it is missing."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def end_to_end(name: str, run, percentile) -> dict[str, float]:
    """The bounded metrics; timings at the reference speed (``calib.py``)."""
    from workloads import TAIL_PERCENTILE

    ops = run.ops_ms()
    return {
        "setup_s": median(run.setups_s()),
        "peak_rss_mib": run.peak_rss_mib,
        "op_ms_p50": percentile(ops, 50),
        "op_ms_tail": percentile(ops, TAIL_PERCENTILE[name]),
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from ledger import percentile
    from workloads import Run, run_workload

    workdir = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(seed=seed, seconds=seconds, workdir=workdir, traced=traced)
    try:
        run_workload(name, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    specs = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    values = run.layers if traced else end_to_end(name, run, percentile)
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise RuntimeError(f"workload {name} did not measure {missing}")
    for error in run.errors[:10]:
        print(f"error: {error}", file=sys.stderr)
    for label, (value, unit, count) in run.report.items():
        print(f"{name}  {label} = {value:.6g} {unit}  (n={count})")
    if not traced:
        ops = run.ops_ms(scaled=False)
        print(f"{name}  wall-clock op_ms p50={percentile(ops, 50):.6g} "
              f"p95={percentile(ops, 95):.6g} p99={percentile(ops, 99):.6g} "
              f"max={max(ops):.6g} (n={len(ops)}); setup_s "
              f"{median(run.setups_s(scaled=False)):.6g} "
              f"(n={len(run.setup_spans)})")
        print(f"{name}  run speed factor {run.cal.factor():.4g} "
              f"(n={len(run.cal.samples)} kernel samples); timings below "
              f"are at the reference speed")
    print(f"{name}  error_rate = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} operations)")
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{name}  {spec['name']} = {value:.6g} {spec['unit']}")
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload, each in a fresh process (peak RSS is per process)."""
    status = 0
    for workload in SPEC["workloads"]:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload",
             workload["name"], "--seed", str(seed), "--seconds",
             str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        if done.returncode == 0 and not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
