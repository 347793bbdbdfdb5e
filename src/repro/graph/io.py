"""Graph text formats.

The cuTS artifact distributes graphs in a simple edge-list text format and
ships ``convert_ours_to_gsi.py`` to translate to GSI's format.  We
reproduce both:

* **cuTS format**: first line ``<num_vertices> <num_edges>``, then one
  ``u v`` directed edge per line.
* **GSI format** (simplified, unlabeled): a header line ``t <n> <m>``,
  one ``v <id> <label>`` line per vertex and one ``e <u> <v> <label>``
  line per edge — the structure of GSI's ``.g`` files with all labels 0.

Two small forms name a graph without a file, for the CLI, the HTTP
service and the service's job journal alike: the **pattern shorthand**
(``K5`` clique, ``C6`` cycle, ``P4`` path, ``S5`` star with five
leaves; :func:`pattern_graph`) and the JSON **edge-list spec**
``{"edges": [[u, v], ...], "num_vertices", "name", "labels"?}``
(:func:`graph_to_spec` / :func:`graph_from_spec`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .build import from_edges
from .csr import CSRGraph, GraphFormatError
from .generators import chain_graph, clique_graph, cycle_graph, star_graph

__all__ = [
    "GraphFormatError",
    "write_cuts_format",
    "read_cuts_format",
    "write_gsi_format",
    "read_gsi_format",
    "convert_cuts_to_gsi",
    "pattern_graph",
    "graph_to_spec",
    "graph_from_spec",
]

_PATTERNS = {
    "K": clique_graph,
    "C": cycle_graph,
    "P": chain_graph,
    "S": star_graph,
}


def _validate_edges(edges: np.ndarray, n: int, path: Path) -> None:
    """Reject negative and dangling vertex ids with file context."""
    if edges.size == 0:
        return
    if edges.min() < 0:
        raise GraphFormatError(
            f"{path}: negative vertex id {int(edges.min())} in edge list"
        )
    if edges.max() >= n:
        raise GraphFormatError(
            f"{path}: edge references vertex {int(edges.max())} but the "
            f"header declares only {n} vertices (dangling edge)"
        )


def write_cuts_format(graph: CSRGraph, path: str | Path) -> None:
    """Write a graph in the cuTS edge-list format."""
    path = Path(path)
    edges = graph.edge_list()
    with path.open("w") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        np.savetxt(fh, edges, fmt="%d")


def read_cuts_format(
    path: str | Path, name: str | None = None, self_loops: str = "drop"
) -> CSRGraph:
    """Read a graph written by :func:`write_cuts_format`.

    Malformed inputs (bad header, wrong edge count, negative or dangling
    vertex ids) raise :class:`GraphFormatError` with the offending file
    named.  ``self_loops`` follows :func:`repro.graph.build.from_edges`:
    ``"drop"`` (default) removes loops, ``"error"`` rejects them.
    """
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GraphFormatError(f"{path}: malformed header {header!r}")
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError:
            raise GraphFormatError(
                f"{path}: non-integer header {header!r}"
            ) from None
        if n < 0 or m < 0:
            raise GraphFormatError(
                f"{path}: header declares negative counts {header!r}"
            )
        if m > 0:
            try:
                edges = np.loadtxt(fh, dtype=np.int64, ndmin=2)
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}: unparseable edge list ({exc})"
                ) from None
        else:
            edges = np.zeros((0, 2), dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphFormatError(
            f"{path}: edge rows must have two columns, got shape "
            f"{edges.shape}"
        )
    if len(edges) != m:
        raise GraphFormatError(
            f"{path}: header says {m} edges, found {len(edges)}"
        )
    _validate_edges(edges, n, path)
    return from_edges(
        edges, num_vertices=n, name=name or path.stem, self_loops=self_loops
    )


def write_gsi_format(graph: CSRGraph, path: str | Path) -> None:
    """Write a graph in the (simplified) GSI format.

    Vertex labels are emitted when present; unlabeled graphs write 0s
    (GSI's files always carry a label column).
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"t {graph.num_vertices} {graph.num_edges}\n")
        for v in range(graph.num_vertices):
            lab = int(graph.labels[v]) if graph.labels is not None else 0
            fh.write(f"v {v} {lab}\n")
        for u, v in graph.edge_list():
            fh.write(f"e {u} {v} 0\n")


def read_gsi_format(
    path: str | Path, name: str | None = None, self_loops: str = "drop"
) -> CSRGraph:
    """Read a graph written by :func:`write_gsi_format`.

    A nonzero label column is attached as vertex labels; an all-zero
    column is treated as unlabeled (our ``labels=None`` convention).
    Structural problems raise :class:`GraphFormatError`; ``self_loops``
    follows :func:`read_cuts_format`.
    """
    path = Path(path)
    n = 0
    edges: list[tuple[int, int]] = []
    labels: dict[int, int] = {}
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] == "t":
                    n = int(parts[1])
                elif parts[0] == "v":
                    labels[int(parts[1])] = int(parts[2])
                elif parts[0] == "e":
                    edges.append((int(parts[1]), int(parts[2])))
            except (IndexError, ValueError):
                raise GraphFormatError(
                    f"{path}:{lineno}: malformed record {line.rstrip()!r}"
                ) from None
    if n < 0:
        raise GraphFormatError(f"{path}: header declares {n} vertices")
    for v in labels:
        if v < 0 or v >= n:
            raise GraphFormatError(
                f"{path}: vertex record for id {v} outside 0..{n - 1}"
            )
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    _validate_edges(arr, n, path)
    g = from_edges(
        arr, num_vertices=n, name=name or path.stem, self_loops=self_loops
    )
    if any(labels.values()):
        lab = np.zeros(n, dtype=np.int64)
        for v, l in labels.items():
            lab[v] = l
        g = g.with_labels(lab)
    return g


def convert_cuts_to_gsi(src: str | Path, dst: str | Path) -> None:
    """File-to-file conversion, mirroring the artifact's converter script."""
    write_gsi_format(read_cuts_format(src), dst)


def pattern_graph(spec: str) -> CSRGraph | None:
    """The graph a pattern shorthand (``K<n>``/``C<n>``/``P<n>``/
    ``S<n>``) names, or ``None`` when ``spec`` is not one."""
    if len(spec) >= 2 and spec[0] in _PATTERNS and spec[1:].isdigit():
        return _PATTERNS[spec[0]](int(spec[1:]))
    return None


def graph_to_spec(graph: CSRGraph) -> dict[str, Any]:
    """``graph`` as an explicit edge-list spec.

    Queries are tiny — a handful of vertices — so an edge list is the
    right wire and journal format: human-readable, and rebuilt without
    touching a graph store.
    """
    spec: dict[str, Any] = {
        "edges": [[int(u), int(v)] for u, v in graph.edge_list()],
        "num_vertices": int(graph.num_vertices),
        "name": graph.name,
    }
    if graph.labels is not None:
        spec["labels"] = [int(x) for x in graph.labels]
    return spec


def graph_from_spec(spec: Mapping[str, Any]) -> CSRGraph:
    """Inverse of :func:`graph_to_spec`; ``num_vertices`` (default
    ``max id + 1``), ``name`` and ``labels`` may be absent.  A malformed
    edge list or label vector raises ``ValueError`` naming which."""
    try:
        graph = from_edges(
            np.asarray(spec["edges"], dtype=np.int64).reshape(-1, 2),
            num_vertices=spec.get("num_vertices"),
            name=str(spec.get("name", "graph")),
        )
    except ValueError as exc:  # GraphFormatError included
        raise ValueError(f"bad edge list: {exc}") from exc
    labels = spec.get("labels")
    if labels is not None:
        try:
            graph = graph.with_labels(np.asarray(labels, dtype=np.int64))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad labels: {exc}") from exc
    return graph
