"""Small deterministic graph toolkit: connectivity, vertex deletion, DOT
export.

Graphs are simple (no loops or multi-edges), undirected, immutable, and keep
their vertex labels sorted so every operation is reproducible.  Labels within
one graph must be mutually comparable (ints or strings, typically).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple


class ConnectivityVerdict(NamedTuple):
    connected: bool
    #: True when the verdict is the empty-graph convention, not a real walk.
    vacuous: bool


class Graph:
    """Immutable simple graph on sortable labels."""

    __slots__ = ("labels", "edges", "_adj")

    def __init__(self, labels: Iterable, edges: Iterable = ()):
        labels = tuple(sorted(labels))
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        known = set(labels)
        norm = set()
        for a, b in edges:
            if a not in known or b not in known:
                raise ValueError(f"edge ({a!r}, {b!r}) uses unknown vertex")
            if a == b:
                raise ValueError(f"loop at {a!r} not allowed")
            norm.add((a, b) if a < b else (b, a))
        self.labels = labels
        self.edges = tuple(sorted(norm))
        adj = {v: [] for v in labels}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = adj

    @property
    def n(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.labels == other.labels
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.n} vertices, {len(self.edges)} edges)"


def is_connected(g: Graph) -> ConnectivityVerdict:
    """Single-component test.  The empty graph is reported connected with the
    vacuous flag set; a one-vertex graph is plainly connected."""
    if g.n == 0:
        return ConnectivityVerdict(True, True)
    start = g.labels[0]
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g._adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return ConnectivityVerdict(len(seen) == g.n, False)


def delete_vertex(g: Graph, v) -> Graph:
    """Remove v and every incident edge."""
    if v not in g._adj:
        raise ValueError(f"unknown vertex {v!r}")
    return Graph((x for x in g.labels if x != v),
                 (e for e in g.edges if v not in e))


def to_dot(g: Graph) -> str:
    """Deterministic DOT text: vertices sorted by label, edges sorted
    lexicographically, one statement per line."""
    def q(label) -> str:
        return '"' + str(label).replace('\\', '\\\\').replace('"', '\\"') + '"'

    lines = ["graph G {"]
    for v in g.labels:
        lines.append(f"  {q(v)};")
    for a, b in g.edges:
        lines.append(f"  {q(a)} -- {q(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
