"""Self-tests of the benchmark itself, at toy sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the program's own test collection.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import chaingen  # noqa: E402
import run as runner  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import ColdBuild, Run, tip_batch  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def toy_sizes(monkeypatch):
    """Shrink every workload so the whole harness runs in seconds."""
    for name, value in {
        "COLD_BLOCKS": 240,
        "LIVE_PREFIX": 160,
        "LIVE_ROUNDS": 60,
        "HISTORY_BLOCKS": 200,
        "RESTART_BLOCKS": 200,
        "RESTART_TAIL": 40,
        "SETUP_REPEATS": 2,
        "SAMPLE_WINDOW": 20,
    }.items():
        monkeypatch.setattr(workloads, name, value)


def _blk_bytes(directory: Path) -> list[bytes]:
    return [path.read_bytes() for path in sorted(directory.glob("blk*.dat"))]


def _counts(layers: dict) -> dict:
    """The program's count metrics (the collector's depend on the
    interpreter's history, not on the input)."""
    return {
        spec["name"]: layers[spec["name"]]
        for spec in SPEC["per_layer"]
        if spec["unit"] == "count" and not spec["name"].startswith("gc.")
    }


def _toy_run(tmp_path: Path, seed: int = 7) -> Run:
    return Run(seed=seed, seconds=0.05, workdir=tmp_path, traced=True)


def test_same_seed_same_blocks_and_counts(tmp_path):
    chains = [
        chaingen.generate(tmp_path / f"c{k}", 240, "h2", seed=11)
        for k in range(2)
    ]
    assert _blk_bytes(chains[0].directory) == _blk_bytes(chains[1].directory)
    assert chains[0].tags == chains[1].tags
    assert chains[0].thefts == chains[1].thefts
    other = chaingen.generate(tmp_path / "other", 240, "h2", seed=12)
    assert _blk_bytes(other.directory) != _blk_bytes(chains[0].directory)

    counts = []
    for chain in chains:
        run = _toy_run(tmp_path)
        batch = tip_batch(chain, run.rng("cold"), chain.n_blocks - 1)
        ledger, _span = ColdBuild()._traced(run, chain, batch)
        counts.append(_counts(ledger.layers()))
        assert run.failed == 0
    assert counts[0] == counts[1]
    assert counts[0]["chain.blocks"] == 240
    assert counts[0]["core.labels_born"] > 0


def test_oracle_flags_an_injected_wrong_answer(tmp_path):
    chain = chaingen.generate(tmp_path / "c", 240, "h2", seed=3)
    run = _toy_run(tmp_path)
    index, service = workloads.new_service(chain)
    workloads.ingest(index, chain)
    workloads.watch(service, chain)
    batch = tip_batch(chain, run.rng("t"), index.height)
    answers = run.ask(service, batch)
    oracle = Oracle(index, index.height, chain.tags)
    run.check(oracle, chain, batch, answers)
    assert run.failed == 0, run.errors

    kinds = [query.kind for query in batch]
    wrong = list(answers)
    first = kinds.index("cluster_of")
    wrong[first] = answers[first] + 1
    top = kinds.index("top_clusters")
    (cid, value, name), *rest = answers[top]
    wrong[top] = ((cid, value - 1, name), *rest)
    run.check(oracle, chain, batch, wrong)
    assert run.failed == 2


def test_printed_metric_names_match_benchmark_json(toy_sizes, capsys):
    for workload in SPEC["workloads"]:
        for traced, specs in ((False, "end_to_end"), (True, "per_layer")):
            assert runner.main([
                "--workload", workload["name"], "--seed", "5",
                "--seconds", "0.05", "--trace", str(int(traced)),
            ]) == 0
            last = capsys.readouterr().out.strip().splitlines()[-1]
            result = json.loads(last)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            names = [spec["name"] for spec in SPEC[specs]]
            assert list(result["metrics"]) == names
            assert result["correct"], workload["name"]
            for spec in SPEC[specs]:
                assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
