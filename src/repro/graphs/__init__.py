"""Graph substrate: data structures, generators, coloring utilities and I/O."""

from repro.graphs.graph import Graph
from repro.graphs.generators import (
    PAPER_PROBLEM_SIDES,
    PAPER_PROBLEM_SIZES,
    erdos_renyi_graph,
    kings_graph,
    random_planar_triangulation,
    random_regular_like_graph,
)
from repro.graphs.coloring import (
    Coloring,
    dsatur_coloring,
    kings_graph_reference_coloring,
)
from repro.graphs.partition import (
    Bipartition,
    cut_edges,
    cut_size,
    partition_from_coloring_bit,
)
from repro.graphs.io import (
    from_dimacs,
    from_json,
    read_dimacs,
    read_json,
    to_dimacs,
    to_json,
    write_dimacs,
)
from repro.graphs.properties import (
    chromatic_number_bounds,
    degree_statistics,
    greedy_chromatic_upper_bound,
    is_bipartite,
    is_kings_graph_shape,
    max_clique_lower_bound,
    two_coloring,
)

__all__ = [
    "Graph",
    "Coloring",
    "Bipartition",
    "PAPER_PROBLEM_SIDES",
    "PAPER_PROBLEM_SIZES",
    "kings_graph",
    "erdos_renyi_graph",
    "random_regular_like_graph",
    "random_planar_triangulation",
    "dsatur_coloring",
    "kings_graph_reference_coloring",
    "cut_edges",
    "cut_size",
    "partition_from_coloring_bit",
    "to_dimacs",
    "from_dimacs",
    "read_dimacs",
    "write_dimacs",
    "to_json",
    "from_json",
    "read_json",
    "degree_statistics",
    "is_bipartite",
    "two_coloring",
    "max_clique_lower_bound",
    "greedy_chromatic_upper_bound",
    "chromatic_number_bounds",
    "is_kings_graph_shape",
]
