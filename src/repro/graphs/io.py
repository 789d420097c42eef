"""Graph serialization: DIMACS ``.col`` files and JSON.

The graph-coloring community distributes benchmarks in the DIMACS ``.col``
format (``p edge N M`` header plus ``e u v`` lines); supporting it makes the
library directly usable on standard instances in addition to the paper's
custom King's graphs.  JSON round-tripping keeps node labels (tuples become
lists and are restored as tuples on load).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, Node

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# DIMACS .col
# ----------------------------------------------------------------------
def to_dimacs(graph: Graph, comment: str = "") -> str:
    """Serialize ``graph`` to the DIMACS ``.col`` format.

    Nodes are renumbered ``1..N`` in the graph's insertion order (DIMACS is
    1-based); the mapping is deterministic, so a round trip preserves the
    structure although original labels are lost (use JSON to keep labels).
    """
    index = graph.node_index()
    lines: List[str] = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"c {row}")
    lines.append(f"p edge {graph.num_nodes} {graph.num_edges}")
    for u, v in graph.edges():
        lines.append(f"e {index[u] + 1} {index[v] + 1}")
    return "\n".join(lines) + "\n"


def _dimacs_int(token: str, what: str, line_number: int, raw: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(
            f"non-integer {what} {token!r} at line {line_number}: {raw!r}"
        ) from None


def from_dimacs(text: str, name: str = "") -> Graph:
    """Parse a DIMACS ``.col`` document into a :class:`Graph`.

    The parser validates the document against its own ``p edge N M`` header:
    edge records must follow the header, endpoints must lie in ``1..N``, and
    the edge count must not exceed ``M``.  Violations raise :class:`GraphError`
    carrying the offending line number.  Self loops are dropped and duplicate
    edges are collapsed (both occur in published instances); neither counts
    toward the node/edge bounds a second time.
    """
    graph = Graph(name=name)
    declared_nodes: Optional[int] = None
    declared_edges: Optional[int] = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if declared_nodes is not None:
                raise GraphError(f"duplicate problem line at line {line_number}: {raw!r}")
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise GraphError(f"malformed problem line at {line_number}: {raw!r}")
            declared_nodes = _dimacs_int(parts[2], "node count", line_number, raw)
            declared_edges = _dimacs_int(parts[3], "edge count", line_number, raw)
            if declared_nodes < 0 or declared_edges < 0:
                raise GraphError(f"negative size in problem line at {line_number}: {raw!r}")
            for node in range(1, declared_nodes + 1):
                graph.add_node(node)
        elif parts[0] == "e":
            if declared_nodes is None:
                raise GraphError(
                    f"edge record before the problem line at line {line_number}: {raw!r}"
                )
            if len(parts) < 3:
                raise GraphError(f"malformed edge line at {line_number}: {raw!r}")
            u = _dimacs_int(parts[1], "edge endpoint", line_number, raw)
            v = _dimacs_int(parts[2], "edge endpoint", line_number, raw)
            if not (1 <= u <= declared_nodes and 1 <= v <= declared_nodes):
                raise GraphError(
                    f"edge endpoint outside 1..{declared_nodes} at line {line_number}: {raw!r}"
                )
            if u == v:
                continue  # silently drop self loops found in some instances
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
        elif parts[0] == "n":
            # Node descriptor lines (weights) are accepted and ignored.
            continue
        else:
            raise GraphError(f"unknown DIMACS record {parts[0]!r} at line {line_number}")
    if declared_nodes is None:
        raise GraphError("DIMACS input has no problem ('p edge') line")
    if declared_edges is not None and graph.num_edges > declared_edges:
        raise GraphError(
            f"DIMACS input declares {declared_edges} edges but contains {graph.num_edges}"
        )
    return graph


def write_dimacs(graph: Graph, path: PathLike, comment: str = "") -> None:
    """Write ``graph`` to ``path`` in DIMACS ``.col`` format."""
    Path(path).write_text(to_dimacs(graph, comment=comment), encoding="utf-8")


def read_dimacs(path: PathLike, name: str = "") -> Graph:
    """Read a DIMACS ``.col`` file from ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    return from_dimacs(text, name=name or Path(path).stem)


# ----------------------------------------------------------------------
# JSON (labels preserved)
# ----------------------------------------------------------------------
def _encode_node(node: Node):
    if isinstance(node, tuple):
        return {"__tuple__": [_encode_node(item) for item in node]}
    return node


def _decode_node(obj):
    if isinstance(obj, dict) and "__tuple__" in obj:
        return tuple(_decode_node(item) for item in obj["__tuple__"])
    if isinstance(obj, list):
        return tuple(_decode_node(item) for item in obj)
    return obj


def to_json(graph: Graph) -> str:
    """Serialize ``graph`` (including node labels) to a JSON string."""
    payload = {
        "name": graph.name,
        "nodes": [_encode_node(node) for node in graph.nodes],
        "edges": [[_encode_node(u), _encode_node(v)] for u, v in graph.edges()],
    }
    return json.dumps(payload)


def from_json(text: str) -> Graph:
    """Deserialize a graph produced by :func:`to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid graph JSON: {exc}") from exc
    if not isinstance(payload, dict) or "nodes" not in payload or "edges" not in payload:
        raise GraphError("graph JSON must contain 'nodes' and 'edges'")
    graph = Graph(name=payload.get("name", ""))
    for node in payload["nodes"]:
        graph.add_node(_decode_node(node))
    for u, v in payload["edges"]:
        graph.add_edge(_decode_node(u), _decode_node(v))
    return graph


def read_json(path: PathLike) -> Graph:
    """Read a graph from a JSON file holding :func:`to_json` output."""
    return from_json(Path(path).read_text(encoding="utf-8"))
