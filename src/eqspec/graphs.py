"""Graph and digraph types, connectivity analysis, and matrix construction.

Vertices are 0-indexed everywhere. All six matrices (adjacency, Laplacian,
signless Laplacian, distance, distance Laplacian, distance signless
Laplacian) are built with exact integer entries; the distance kinds require
a connected graph / strongly connected digraph and fail hard otherwise.
"""

from __future__ import annotations

import enum
from collections import deque
from itertools import combinations

from .errors import DisconnectedInput, InvalidParameters, ParseError
from .linalg import ExactMatrix


class MatrixKind(enum.Enum):
    """The six matrices attached to a (di)graph, keyed by their wire names."""

    ADJACENCY = "A"
    LAPLACIAN = "L"
    SIGNLESS_LAPLACIAN = "Q"
    DISTANCE = "D"
    DISTANCE_LAPLACIAN = "DL"
    DISTANCE_SIGNLESS_LAPLACIAN = "DQ"

    @classmethod
    def coerce(cls, kind) -> "MatrixKind":
        if isinstance(kind, cls):
            return kind
        try:
            return cls(str(kind).upper())
        except ValueError:
            raise ParseError(f"unknown matrix kind {kind!r}") from None


ALL_KINDS = tuple(MatrixKind)


class Graph:
    """Simple undirected graph on n labeled vertices (no loops, no multi-edges)."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise InvalidParameters("graph needs at least one vertex")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise InvalidParameters(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameters(f"edge ({u}, {v}) out of range for n={n}")
            normalized.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(normalized)

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    def adjacency_sets(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2


class Digraph:
    """Simple digraph on n labeled vertices (no loops, no multi-arcs)."""

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs=()):
        if n < 1:
            raise InvalidParameters("digraph needs at least one vertex")
        normalized = set()
        for u, v in arcs:
            if u == v:
                raise InvalidParameters(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameters(f"arc ({u}, {v}) out of range for n={n}")
            normalized.add((u, v))
        self.n = n
        self.arcs = frozenset(normalized)

    def __eq__(self, other):
        return (
            isinstance(other, Digraph) and self.n == other.n and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.n, self.arcs))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs)})"

    def out_sets(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.arcs:
            adj[u].add(v)
        return adj

    def in_sets(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.arcs:
            adj[v].add(u)
        return adj

    def out_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, _ in self.arcs:
            deg[u] += 1
        return tuple(deg)

    def is_complete(self) -> bool:
        return len(self.arcs) == self.n * (self.n - 1)


def _bfs_levels(adj, start: int, n: int, skip=frozenset()) -> list[int]:
    """Distances from start over adjacency sets; -1 marks unreachable."""
    dist = [-1] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in skip and dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    dist = _bfs_levels(g.adjacency_sets(), 0, g.n)
    return all(d >= 0 for d in dist)


def is_strongly_connected(dg: Digraph) -> bool:
    if dg.n == 1:
        return True
    for adj in (dg.out_sets(), dg.in_sets()):
        dist = _bfs_levels(adj, 0, dg.n)
        if any(d < 0 for d in dist):
            return False
    return True


def _require_connected(obj) -> None:
    if isinstance(obj, Graph):
        if not is_connected(obj):
            raise DisconnectedInput("graph is not connected")
    elif not is_strongly_connected(obj):
        raise DisconnectedInput("digraph is not strongly connected")


def distance_matrix(obj) -> ExactMatrix:
    """All-pairs shortest path lengths, BFS from every vertex."""
    _require_connected(obj)
    adj = obj.adjacency_sets() if isinstance(obj, Graph) else obj.out_sets()
    return ExactMatrix([_bfs_levels(adj, s, obj.n) for s in range(obj.n)])


def transmissions(obj) -> tuple[int, ...]:
    """Per-vertex distance row sums."""
    return tuple(int(s) for s in distance_matrix(obj).row_sums())


def build_matrix(obj, kind) -> ExactMatrix:
    """One of the six matrices of a graph or digraph, exact integer entries.

    Digraph Laplacians use the out-degree diagonal; distance kinds raise
    DisconnectedInput when distances are undefined.
    """
    kind = MatrixKind.coerce(kind)
    n = obj.n
    adj = [[0] * n for _ in range(n)]
    if isinstance(obj, Graph):
        for u, v in obj.edges:
            adj[u][v] = adj[v][u] = 1
        diag = obj.degrees()
    else:
        for u, v in obj.arcs:
            adj[u][v] = 1
        diag = obj.out_degrees()

    if kind is MatrixKind.ADJACENCY:
        return ExactMatrix(adj)
    if kind is MatrixKind.LAPLACIAN:
        return ExactMatrix(
            [[diag[i] - adj[i][j] if i == j else -adj[i][j] for j in range(n)] for i in range(n)]
        )
    if kind is MatrixKind.SIGNLESS_LAPLACIAN:
        return ExactMatrix(
            [[diag[i] + adj[i][j] if i == j else adj[i][j] for j in range(n)] for i in range(n)]
        )

    dist = distance_matrix(obj)
    if kind is MatrixKind.DISTANCE:
        return dist
    # the diagonal is each row's transmission, since dist[i, i] = 0
    sign = -1 if kind is MatrixKind.DISTANCE_LAPLACIAN else 1
    rows = [[sign * d for d in row] for row in dist.rows]
    for i, row in enumerate(dist.rows):
        rows[i][i] = sum(row)
    return ExactMatrix(rows)


def _still_connected_without(adj, removed: frozenset, n: int, directed: bool, rev=None) -> bool:
    keep = [v for v in range(n) if v not in removed]
    if len(keep) <= 1:
        return True
    start = keep[0]
    dist = _bfs_levels(adj, start, n, skip=removed)
    if any(dist[v] < 0 for v in keep):
        return False
    if directed:
        dist = _bfs_levels(rev, start, n, skip=removed)
        if any(dist[v] < 0 for v in keep):
            return False
    return True


def vertex_connectivity(obj) -> int:
    """Minimum number of vertices whose deletion disconnects the graph
    (destroys strong connectivity for digraphs).

    Exhaustive cut search in increasing cut size with early exit; exact, and
    fast for the n <= 12 workloads this package targets. Complete inputs
    have no cut and return n - 1 by convention.
    """
    n = obj.n
    _require_connected(obj)
    if obj.is_complete() or n == 1:
        return n - 1
    directed = isinstance(obj, Digraph)
    if directed:
        adj, rev = obj.out_sets(), obj.in_sets()
    else:
        adj, rev = obj.adjacency_sets(), None
    for size in range(1, n - 1):
        for cut in combinations(range(n), size):
            if not _still_connected_without(adj, frozenset(cut), n, directed, rev):
                return size
    return n - 1


def join(a, b):
    """Join of two disjoint (di)graphs: union plus all cross edges.

    The second argument is relabeled by an offset of a.n, so callers can
    pass independently built pieces. The digraph join adds both arc
    directions between the parts.
    """
    if isinstance(a, Graph) != isinstance(b, Graph):
        raise TypeError("join requires two graphs or two digraphs")
    off = a.n
    n = a.n + b.n
    if isinstance(a, Graph):
        edges = set(a.edges)
        edges.update((u + off, v + off) for u, v in b.edges)
        edges.update((u, v + off) for u in range(a.n) for v in range(b.n))
        return Graph(n, edges)
    arcs = set(a.arcs)
    arcs.update((u + off, v + off) for u, v in b.arcs)
    for u in range(a.n):
        for v in range(b.n):
            arcs.add((u, v + off))
            arcs.add((v + off, u))
    return Digraph(n, arcs)


# ---------------------------------------------------------------------------
# text format


def parse_graph_file(text: str):
    """Parse the line-oriented graph format.

    Line 1: ``graph <n>`` or ``digraph <n>``; then one ``<u> <v>`` edge/arc
    per line, 0-indexed. ``#`` starts a comment. Loops and duplicates are
    rejected with the offending line number.
    """
    header = None
    directed = None
    n = 0
    items = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] not in ("graph", "digraph"):
                raise ParseError(f"line {lineno}: expected 'graph <n>' or 'digraph <n>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count is not an integer") from None
            if n < 1:
                raise ParseError(f"line {lineno}: vertex count must be at least 1")
            directed = parts[0] == "digraph"
            header = line
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<u> <v>'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: endpoints must be integers") from None
        if u == v:
            raise ParseError(f"line {lineno}: loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: endpoint out of range for n={n}")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            kind = "arc" if directed else "edge"
            raise ParseError(f"line {lineno}: duplicate {kind} ({u}, {v})")
        seen.add(key)
        items.append((u, v))
    if header is None:
        raise ParseError("empty input: missing 'graph <n>' / 'digraph <n>' header")
    return Digraph(n, items) if directed else Graph(n, items)


def format_graph_file(obj) -> str:
    if isinstance(obj, Graph):
        lines = [f"graph {obj.n}"]
        lines.extend(f"{u} {v}" for u, v in sorted(obj.edges))
    else:
        lines = [f"digraph {obj.n}"]
        lines.extend(f"{u} {v}" for u, v in sorted(obj.arcs))
    return "\n".join(lines) + "\n"
