"""Golden SHA-256 digests of canonical solve results, both precision tiers.

``tests/data/solve_digests.json`` pins the exact output of a fixed set of
solves: King's boards 4x4-7x7 at K=2/4/8 with and without static frequency
detuning (two seeds each), replica-chunked ``SolveJob.split`` +
``merge_job_results`` runs, the sequential reference engine, and the
throughput tier under its default :class:`ThroughputOptions` and with each
relaxation flipped.  A digest covers the persisted result payload plus the
raw bytes of every iteration's final phases, so any change to the solve
arithmetic, the noise streams or the scoring shows up as a mismatch.

Floating-point results may legitimately differ across numpy builds and CPU
architectures, so the comparison only runs in the environment the digests
were captured in (numpy version and ``platform.machine()``) and skips
elsewhere.  Regenerate the file only from a revision whose results are known
good::

    PYTHONPATH=src python tests/test_solve_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.analysis.results_io import solve_result_to_dict
from repro.circuit.control import TimingPlan
from repro.core import MSROPM, BatchedEngine, MSROPMConfig, SequentialEngine
from repro.core.results import SolveResult
from repro.dynamics.batched import ThroughputOptions
from repro.graphs import kings_graph
from repro.runtime.jobs import KingsGraphSpec, SolveJob, merge_job_results
from repro.units import ns

DIGEST_PATH = Path(__file__).parent / "data" / "solve_digests.json"

ITERATIONS = 4
SEEDS = (3, 11)


def _config(num_colors: int, detuning: float = 0.0, **updates) -> MSROPMConfig:
    """The suite's fast timing (see ``conftest.fast_config``)."""
    return MSROPMConfig(
        num_colors=num_colors,
        timing=TimingPlan(initialization=ns(1.0), annealing=ns(8.0), shil_settling=ns(3.0)),
        time_step=0.05e-9,
        record_every=20,
        frequency_detuning_std=detuning,
        seed=1234,
        **updates,
    )


def canonical_digest(result: SolveResult) -> str:
    """SHA-256 of the result payload plus every iteration's final-phase bytes."""
    payload = solve_result_to_dict(result)
    payload["final_phases"] = [
        {
            "dtype": str(item.stage_results[-1].final_phases.dtype),
            "hex": item.stage_results[-1].final_phases.tobytes().hex(),
        }
        for item in result.iterations
    ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _board_solve(rows: int, num_colors: int, detuning: float, seed: int, engine=None):
    def run() -> SolveResult:
        machine = MSROPM(kings_graph(rows, rows), _config(num_colors, detuning))
        return machine.solve(iterations=ITERATIONS, seed=seed, engine=engine)

    return run


def _chunked_solve(rows: int, num_colors: int, detuning: float, seed: int, chunk: int):
    def run() -> SolveResult:
        job = SolveJob(
            spec=KingsGraphSpec(rows, rows),
            config=_config(num_colors, detuning),
            seed=seed,
            total_iterations=5,
        )
        chunks = job.split(chunk)
        return merge_job_results(chunks, [piece.run() for piece in chunks])

    return run


def _throughput_solve(rows: int, num_colors: int, seed: int, options: ThroughputOptions):
    def run() -> SolveResult:
        machine = MSROPM(kings_graph(rows, rows), _config(num_colors, precision="throughput"))
        engine = BatchedEngine(precision="throughput", throughput_options=options)
        return machine.solve(iterations=ITERATIONS, seed=seed, engine=engine)

    return run


THROUGHPUT_VARIANTS = {
    "default": ThroughputOptions(),
    "per-replica-rng": ThroughputOptions(batched_rng=False),
    "float64-state": ThroughputOptions(float32_state=False),
    "fused-shil": ThroughputOptions(fused_shil=True),
}


def digest_cases() -> List[Tuple[str, Callable[[], SolveResult]]]:
    """Every pinned solve as ``(name, zero-argument runner)``."""
    cases: List[Tuple[str, Callable[[], SolveResult]]] = []
    for rows in (4, 5, 6, 7):
        for num_colors in (2, 4, 8):
            for detuning in (0.0, 0.01):
                for seed in SEEDS:
                    name = f"exact/kings{rows}x{rows}/K{num_colors}/detune{detuning}/s{seed}"
                    cases.append((name, _board_solve(rows, num_colors, detuning, seed)))
    for rows, num_colors, detuning in ((5, 4, 0.0), (6, 8, 0.01)):
        for seed in SEEDS:
            name = f"sequential/kings{rows}x{rows}/K{num_colors}/detune{detuning}/s{seed}"
            cases.append(
                (name, _board_solve(rows, num_colors, detuning, seed, engine=SequentialEngine()))
            )
    for rows, num_colors, detuning in ((6, 4, 0.0), (6, 8, 0.01)):
        for chunk in (1, 2):
            name = f"chunked/kings{rows}x{rows}/K{num_colors}/detune{detuning}/chunk{chunk}/s{SEEDS[0]}"
            cases.append((name, _chunked_solve(rows, num_colors, detuning, SEEDS[0], chunk)))
    for rows, num_colors in ((5, 4), (7, 8)):
        for variant, options in THROUGHPUT_VARIANTS.items():
            for seed in SEEDS:
                name = f"throughput-{variant}/kings{rows}x{rows}/K{num_colors}/s{seed}"
                cases.append((name, _throughput_solve(rows, num_colors, seed, options)))
    return cases


def current_environment() -> Dict[str, str]:
    return {"numpy": np.__version__, "machine": platform.machine()}


def compute_digests() -> Dict[str, str]:
    return {name: canonical_digest(run()) for name, run in digest_cases()}


def _golden() -> Dict:
    return json.loads(DIGEST_PATH.read_text(encoding="utf-8"))


def _require_environment(golden: Dict) -> None:
    captured = golden["environment"]
    here = current_environment()
    if captured != here:
        pytest.skip(
            f"golden digests were captured with numpy {captured['numpy']} on "
            f"{captured['machine']}; this environment is numpy {here['numpy']} on "
            f"{here['machine']}"
        )


def test_digest_file_covers_every_case():
    assert sorted(_golden()["digests"]) == sorted(name for name, _ in digest_cases())


@pytest.mark.parametrize("name,run", digest_cases(), ids=[name for name, _ in digest_cases()])
def test_solve_digest_matches_golden(name, run):
    golden = _golden()
    _require_environment(golden)
    assert canonical_digest(run()) == golden["digests"][name]


SHARDABLE_CASES = [
    (name, run) for name, run in digest_cases() if name.startswith(("exact/", "chunked/"))
]


@pytest.mark.parametrize("name,run", SHARDABLE_CASES, ids=[name for name, _ in SHARDABLE_CASES])
def test_solve_digest_matches_golden_with_forced_shards(name, run, monkeypatch):
    """Batched exact-tier solves split into one replica shard per replica."""
    from repro.core import engine

    golden = _golden()
    _require_environment(golden)
    monkeypatch.setattr(engine, "replica_thread_budget", lambda: ITERATIONS)
    monkeypatch.setattr(engine, "MIN_SHARD_ELEMENTS", 1)
    assert canonical_digest(run()) == golden["digests"][name]


def test_chunk_sizes_share_one_digest():
    """Every chunk size merges to one digest (chunking never changes results)."""
    golden = _golden()["digests"]
    for rows, num_colors, detuning in ((6, 4, 0.0), (6, 8, 0.01)):
        digests = {
            golden[f"chunked/kings{rows}x{rows}/K{num_colors}/detune{detuning}/chunk{chunk}/s{SEEDS[0]}"]
            for chunk in (1, 2)
        }
        assert len(digests) == 1


def test_sequential_digests_match_batched():
    golden = _golden()["digests"]
    for rows, num_colors, detuning in ((5, 4, 0.0), (6, 8, 0.01)):
        for seed in SEEDS:
            suffix = f"kings{rows}x{rows}/K{num_colors}/detune{detuning}/s{seed}"
            assert golden[f"sequential/{suffix}"] == golden[f"exact/{suffix}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_solve_digests.py --write")
    DIGEST_PATH.parent.mkdir(parents=True, exist_ok=True)
    document = {"environment": current_environment(), "digests": compute_digests()}
    DIGEST_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(document['digests'])} digests to {DIGEST_PATH}")
