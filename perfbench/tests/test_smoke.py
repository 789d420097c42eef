"""A tiny size of every workload, end to end through ``perfbench/run.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import E2E, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_size_of_every_workload(workload, trace):
    completed = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--size", "smoke", "--trace", trace)
    assert completed.returncode == 0, completed.stderr + completed.stdout
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else E2E
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
    if trace == "0":
        assert all(result["metrics"][name]["value"] > 0 for name in E2E)
    else:
        assert result["metrics"]["trace.mismatched_exits"]["value"] == 0
        assert "reconciliation of" in completed.stdout
        # Every wrapped function was found: none of the layer metrics is a blind 0.
        assert "not traced" not in completed.stdout


def test_fails_without_a_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run("--workload", "kings46-exact", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
