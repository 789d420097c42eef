"""Shared fixtures for the test-suite.

The dynamics-based tests use a *fast* configuration (shorter intervals,
coarser time step) so the full suite stays quick while still exercising every
stage of the machine; experiments that need the paper's exact timing construct
their own :class:`MSROPMConfig`.
"""

from __future__ import annotations

import pytest

from repro.circuit.control import TimingPlan
from repro.core.config import MSROPMConfig
from repro.graphs.generators import kings_graph
from repro.units import ns
from graph_builders import cycle_graph, grid_graph


@pytest.fixture(autouse=True)
def _sandbox_result_cache(monkeypatch, tmp_path):
    """Point the runtime's default result cache at a per-test directory.

    CLI commands enable the on-disk cache by default; without this, tests
    would write into (and read stale results from) the user's real
    ``~/.cache/msropm``.
    """
    monkeypatch.setenv("MSROPM_CACHE_DIR", str(tmp_path / "msropm-cache"))


@pytest.fixture
def kings_5x5():
    """A 25-node King's graph — small enough for exact baselines."""
    return kings_graph(5, 5)


@pytest.fixture
def kings_7x7():
    """The paper's smallest benchmark (49 nodes)."""
    return kings_graph(7, 7)


@pytest.fixture
def small_grid():
    """A 4x4 rectangular grid (bipartite)."""
    return grid_graph(4, 4)


@pytest.fixture
def small_cycle():
    """A 6-cycle (bipartite, 2-colorable)."""
    return cycle_graph(6)


@pytest.fixture
def odd_cycle():
    """A 5-cycle (odd, 3-chromatic)."""
    return cycle_graph(5)


@pytest.fixture
def fast_config():
    """A reduced-timing MSROPM configuration for quick dynamics tests."""
    return MSROPMConfig(
        num_colors=4,
        timing=TimingPlan(initialization=ns(1.0), annealing=ns(8.0), shil_settling=ns(3.0)),
        time_step=0.05e-9,
        record_every=20,
        seed=1234,
    )


@pytest.fixture
def fast_binary_config():
    """A reduced-timing configuration for 2-color (single-stage) tests."""
    return MSROPMConfig(
        num_colors=2,
        timing=TimingPlan(initialization=ns(1.0), annealing=ns(8.0), shil_settling=ns(3.0)),
        time_step=0.05e-9,
        record_every=20,
        seed=99,
    )
