"""Built-in workload families: the zoo's King's boards, random-graph
ensembles, bundled DIMACS benchmarks and max-cut scenarios.

Each family maps a small, CI-sized default parameter grid to content-addressed
runtime specs:

* ``kings`` — the paper's benchmark topology (deterministic, by board shape);
* ``er`` — Erdős–Rényi ``G(n, p)`` ensembles (seeded recipes);
* ``regular`` — random regular-like graphs (seeded recipes);
* ``planar`` — random Delaunay triangulations, 4-colorable by the four-colour
  theorem (seeded recipes);
* ``dimacs`` — bundled ``.col`` instances under ``workloads/data/``
  (deterministic, by file content hash);
* ``maxcut`` — max-cut scenarios on King's boards, solved with 2 colors and
  normalized against the reference striping cut;
* ``wmaxcut`` — *weighted* max-cut ensembles on King's boards: per-edge
  integer weights drawn from the instance seed (cross-process stable, folded
  into the recipe hash), normalized against the total-weight upper bound;
* ``kcolor8`` / ``kcolor16`` — dense random ensembles solved with 8 and 16
  colors, exercising multi-stage depths 3 and 4 (the paper stops at 2).

Reference solutions are computed per instance: closed-form for King's boards,
known chromatic numbers for the bundled DIMACS instances, the four-colour
theorem for planar triangulations, and an exact backtracking search for small
random instances (falling back to "unknown" when the search budget is hit).

The grids are deliberately small — they are what ``msropm scenarios`` and the
CI smoke job run; larger sweeps pass their own :class:`WorkloadSpec` grids.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ColoringError
from repro.graphs.generators import (
    erdos_renyi_graph,
    random_planar_triangulation,
    random_regular_like_graph,
)
from repro.graphs.graph import Graph
from repro.ising.maxcut import kings_graph_reference_cut
from repro.rng import make_rng
from repro.runtime.jobs import DimacsGraphSpec, GeneratedGraphSpec, KingsGraphSpec
from repro.workloads.registry import (
    ReferenceSolution,
    WorkloadFamily,
    WorkloadInstance,
    register_family,
)

#: Directory of the bundled DIMACS benchmark instances.
DATA_DIR = Path(__file__).resolve().parent / "data"

#: Chromatic numbers of the bundled instances (Mycielski and queens graphs).
BUNDLED_DIMACS_CHROMATIC = {
    "myciel3": 4,
    "myciel4": 5,
    "myciel5": 6,
    "queen5_5": 5,
    "queen6_6": 7,
    "queen7_7": 7,
    "queen8_8": 9,
}

#: Largest random instance the exact backtracking reference is attempted on.
_BACKTRACK_REFERENCE_NODES = 64


def bundled_dimacs_path(instance: str) -> Path:
    """Path of a bundled ``.col`` instance by stem name."""
    return DATA_DIR / f"{instance}.col"


# ----------------------------------------------------------------------
# Reference providers
# ----------------------------------------------------------------------
def _backtracking_reference(instance: WorkloadInstance, graph: Graph) -> ReferenceSolution:
    """Exact 4-colorability by backtracking, for small random instances."""
    if graph.num_nodes > _BACKTRACK_REFERENCE_NODES:
        return ReferenceSolution(kind=instance.kind, num_colors=instance.num_colors)
    try:
        from repro.baselines.exact import exact_coloring_backtracking

        coloring = exact_coloring_backtracking(graph, instance.num_colors)
    except ColoringError:  # search budget exceeded
        return ReferenceSolution(kind=instance.kind, num_colors=instance.num_colors)
    return ReferenceSolution(
        kind=instance.kind,
        num_colors=instance.num_colors,
        colorable=coloring is not None,
        provider="backtracking",
    )


def _kings_reference(instance: WorkloadInstance, graph: Graph) -> ReferenceSolution:
    # reference_cut is deliberately absent: it belongs to max-cut workloads
    # only, and the closed-form 4-coloring is this family's reference.
    return ReferenceSolution(
        kind="coloring",
        num_colors=4,
        colorable=True,
        provider="closed-form",
    )


def _planar_reference(instance: WorkloadInstance, graph: Graph) -> ReferenceSolution:
    return ReferenceSolution(
        kind="coloring", num_colors=4, colorable=True, provider="four-colour-theorem"
    )


def _dimacs_reference(instance: WorkloadInstance, graph: Graph) -> ReferenceSolution:
    chromatic = BUNDLED_DIMACS_CHROMATIC.get(str(instance.params_dict["instance"]))
    if chromatic is None:
        return ReferenceSolution(kind="coloring", num_colors=instance.num_colors)
    return ReferenceSolution(
        kind="coloring",
        num_colors=instance.num_colors,
        colorable=chromatic <= instance.num_colors,
        provider="known",
    )


def wmaxcut_edge_weights(
    params: Dict[str, Any], seed: Optional[int], graph: Graph
) -> Dict[Tuple, float]:
    """Per-edge weights of a weighted-max-cut instance, derived from its seed.

    Weights are small integers drawn from a PCG64 stream seeded with the
    instance seed, assigned in canonically sorted edge order — both choices
    for cross-process stability: the same recipe always weighs the same edge
    identically, independent of build order, platform, or Python hash
    randomization.  Integer weights also keep cut sums exact, so weighted
    accuracies never depend on floating-point summation order.
    """
    rng = make_rng(seed)
    return {
        (u, v): float(rng.integers(1, 10)) for u, v in sorted(graph.edges())
    }


def _wmaxcut_reference(instance: WorkloadInstance, graph: Graph) -> ReferenceSolution:
    # The total edge weight is an upper bound on any cut (tight only on
    # bipartite graphs); weighted accuracies therefore never exceed 1.0.
    weights = instance.edge_weights(graph)
    return ReferenceSolution(
        kind="maxcut",
        num_colors=2,
        reference_cut=float(sum(weights.values())),
        provider="upper-bound",
    )


def _maxcut_reference(instance: WorkloadInstance, graph: Graph) -> ReferenceSolution:
    # The striping cut is a *heuristic* reference (the canonical 4-coloring's
    # high bit): solvers can beat it, which is exactly why accuracies are
    # reported as raw ratios and only clipped at presentation time.
    rows = int(instance.params_dict["rows"])
    return ReferenceSolution(
        kind="maxcut",
        num_colors=2,
        reference_cut=float(kings_graph_reference_cut(rows, rows)),
        provider="reference-striping",
    )


# ----------------------------------------------------------------------
# Generated-family builders (GeneratedGraphSpec dispatches back here)
# ----------------------------------------------------------------------
def _build_er(params: Dict[str, Any], seed: Optional[int]) -> Graph:
    return erdos_renyi_graph(int(params["n"]), float(params["p"]), seed=seed)


def _build_regular(params: Dict[str, Any], seed: Optional[int]) -> Graph:
    return random_regular_like_graph(int(params["n"]), int(params["d"]), seed=seed)


def _build_planar(params: Dict[str, Any], seed: Optional[int]) -> Graph:
    return random_planar_triangulation(int(params["n"]), seed=seed)


def _build_wmaxcut(params: Dict[str, Any], seed: Optional[int]) -> Graph:
    # The topology is the deterministic King's board; the instance seed only
    # feeds the weight draw (wmaxcut_edge_weights), so it rides in the recipe
    # hash without perturbing the graph itself.
    rows = int(params["rows"])
    from repro.graphs.generators import kings_graph

    return kings_graph(rows, rows)


def _generated_spec(family: str):
    def factory(params: Dict[str, Any], seed: Optional[int]) -> GeneratedGraphSpec:
        return GeneratedGraphSpec.create(family, seed=seed, **params)

    return factory


def _kings_spec(params: Dict[str, Any], seed: Optional[int]) -> KingsGraphSpec:
    rows = int(params["rows"])
    return KingsGraphSpec(rows, rows)


def _dimacs_spec(params: Dict[str, Any], seed: Optional[int]) -> DimacsGraphSpec:
    return DimacsGraphSpec(str(bundled_dimacs_path(str(params["instance"]))))


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------
register_family(
    WorkloadFamily(
        name="kings",
        description="King's-graph 4-coloring boards (the paper's benchmark topology)",
        kind="coloring",
        seeded=False,
        default_grid=({"rows": 5}, {"rows": 7}),
        spec_factory=_kings_spec,
        reference_provider=_kings_reference,
    )
)

register_family(
    WorkloadFamily(
        name="er",
        description="Erdős–Rényi G(n, p) random-graph ensemble, 4-coloring",
        kind="coloring",
        seeded=True,
        default_grid=({"n": 24, "p": 0.15}, {"n": 24, "p": 0.3}),
        spec_factory=_generated_spec("er"),
        reference_provider=_backtracking_reference,
        builder=_build_er,
    )
)

register_family(
    WorkloadFamily(
        name="regular",
        description="random regular-like graph ensemble (configuration model), 4-coloring",
        kind="coloring",
        seeded=True,
        default_grid=({"n": 24, "d": 4}, {"n": 24, "d": 6}),
        spec_factory=_generated_spec("regular"),
        reference_provider=_backtracking_reference,
        builder=_build_regular,
    )
)

register_family(
    WorkloadFamily(
        name="planar",
        description="random planar Delaunay triangulations (4-colorable by the four-colour theorem)",
        kind="coloring",
        seeded=True,
        default_grid=({"n": 24},),
        spec_factory=_generated_spec("planar"),
        reference_provider=_planar_reference,
        builder=_build_planar,
    )
)

register_family(
    WorkloadFamily(
        name="dimacs",
        description="bundled DIMACS .col benchmark instances (Mycielski graphs)",
        kind="coloring",
        seeded=False,
        default_grid=(
            {"instance": "myciel3"},
            {"instance": "myciel4"},
            {"instance": "myciel5"},
        ),
        spec_factory=_dimacs_spec,
        reference_provider=_dimacs_reference,
    )
)

register_family(
    WorkloadFamily(
        name="queens",
        description="bundled DIMACS queens graphs (row/column/diagonal cliques), 8 colors",
        kind="coloring",
        seeded=False,
        default_grid=(
            {"instance": "queen5_5"},
            {"instance": "queen6_6"},
            {"instance": "queen7_7"},
            {"instance": "queen8_8"},
        ),
        spec_factory=_dimacs_spec,
        reference_provider=_dimacs_reference,
        num_colors=8,
    )
)

register_family(
    WorkloadFamily(
        name="maxcut",
        description="max-cut scenarios on King's boards (2 colors vs the striping reference cut)",
        kind="maxcut",
        seeded=False,
        default_grid=({"rows": 5}, {"rows": 6}),
        spec_factory=_kings_spec,
        reference_provider=_maxcut_reference,
        num_colors=2,
    )
)

register_family(
    WorkloadFamily(
        name="wmaxcut",
        description="weighted max-cut ensembles on King's boards (seeded integer edge weights)",
        kind="maxcut",
        seeded=True,
        default_grid=({"rows": 5}, {"rows": 6}),
        spec_factory=_generated_spec("wmaxcut"),
        reference_provider=_wmaxcut_reference,
        builder=_build_wmaxcut,
        num_colors=2,
        weights_provider=wmaxcut_edge_weights,
    )
)

register_family(
    WorkloadFamily(
        name="kcolor8",
        description="dense Erdős–Rényi ensembles solved with 8 colors (3 binary stages)",
        kind="coloring",
        seeded=True,
        default_grid=({"n": 18, "p": 0.45},),
        spec_factory=_generated_spec("kcolor8"),
        reference_provider=_backtracking_reference,
        builder=_build_er,
        num_colors=8,
    )
)

register_family(
    WorkloadFamily(
        name="kcolor16",
        description="dense Erdős–Rényi ensembles solved with 16 colors (4 binary stages)",
        kind="coloring",
        seeded=True,
        default_grid=({"n": 16, "p": 0.6},),
        spec_factory=_generated_spec("kcolor16"),
        reference_provider=_backtracking_reference,
        builder=_build_er,
        num_colors=16,
    )
)
