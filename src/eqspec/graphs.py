"""Graph and digraph types, connectivity analysis, and matrix construction.

Vertices are 0-indexed everywhere. A Graph or Digraph is stored as its
dense, read-only n x n 0/1 adjacency matrix of uint8 (n**2 bytes), the
A(G) every other matrix derives from. Every question about a (di)graph's
structure is answered on a (b, n, n) adjacency stack, by one of two
kernels that batch over the stack: ``distances`` (shortest path lengths,
level by level) and ``_cut_reach`` (reachability once a vertex cut is
gone, by repeated squaring). Connectivity and strong connectivity are the
empty cut's reachability; ``vertex_connectivities`` searches the larger
cuts. A single graph is a stack of one. All six matrices (adjacency,
Laplacian, signless Laplacian, distance, distance Laplacian, distance
signless Laplacian) come from one stacked builder, ``build_matrices``,
with exact integer entries; the distance kinds require a connected graph /
strongly connected digraph and fail hard otherwise. ``MatrixKind`` is the
one table of what sets the six kinds apart: base, sign, diagonal, radius
name and extremal sense.
"""

from __future__ import annotations

import enum
import operator
from itertools import combinations, islice

import numpy as np

from .errors import BudgetExceeded, DisconnectedInput, InvalidParameters, ParseError
from .linalg import ExactMatrix

# vertex cuts the connectivity search may try per graph: more than every
# cut of a graph on 18 vertices
CUT_BUDGET = 1 << 18
# matrix entries one batch of the distance or cut kernel holds (256 KiB of
# float32); a larger single matrix, or a single cut, is a batch of its own
_ENTRY_WINDOW = 1 << 16


class MatrixKind(enum.Enum):
    """The six matrices attached to a (di)graph, keyed by their wire names.

    Each kind is built from a base, the adjacency matrix A or the distance
    matrix D: the base, negated for the Laplacians, with the base's row sums
    (degrees or out-degrees; transmissions) on the diagonal for the
    (signless) Laplacians. The connectivity theorems maximize or minimize
    the spectral radius of four kinds (``sense``):

        kind  base  sign  row sums on diagonal  radius  sense
        A     A     +1    no                    rho     max
        L     A     -1    yes                   mu      None
        Q     A     +1    yes                   q       max
        D     D     +1    no                    rhoD    min
        DL    D     -1    yes                   muD     None
        DQ    D     +1    yes                   qD      min
    """

    ADJACENCY = ("A", False, 1, False, "rho", "max")
    LAPLACIAN = ("L", False, -1, True, "mu", None)
    SIGNLESS_LAPLACIAN = ("Q", False, 1, True, "q", "max")
    DISTANCE = ("D", True, 1, False, "rhoD", "min")
    DISTANCE_LAPLACIAN = ("DL", True, -1, True, "muD", None)
    DISTANCE_SIGNLESS_LAPLACIAN = ("DQ", True, 1, True, "qD", "min")

    def __new__(cls, wire, distance, sign, diagonal, radius_name, sense):
        member = object.__new__(cls)
        member._value_ = wire
        member.distance, member.sign, member.diagonal = distance, sign, diagonal
        member.radius_name, member.sense = radius_name, sense
        return member

    @classmethod
    def coerce(cls, kind) -> "MatrixKind":
        if isinstance(kind, cls):
            return kind
        try:
            return cls(str(kind).upper())
        except ValueError:
            raise ParseError(f"unknown matrix kind {kind!r}") from None


ALL_KINDS = tuple(MatrixKind)


class _AdjacencyGraph:
    """A simple (di)graph on n labeled vertices (no loops, no multi-arcs),
    stored as its read-only n x n uint8 0/1 adjacency matrix, symmetric for
    a graph. Two are equal when they are of one type and have one matrix."""

    __slots__ = ("adjacency",)
    directed: bool

    def __init__(self, n: int, pairs=()):
        name, noun = type(self).__name__.lower(), "arc" if self.directed else "edge"
        try:
            n = operator.index(n)
        except TypeError:
            raise InvalidParameters(f"{name} vertex count must be an integer, got {n!r}") from None
        if n < 1:
            raise InvalidParameters(f"{name} needs at least one vertex")
        checked = []
        for pair in pairs:
            try:
                u, v = map(operator.index, pair)
            except (TypeError, ValueError):
                raise InvalidParameters(f"{noun} {pair!r} is not a pair of integers") from None
            if u == v:
                raise InvalidParameters(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameters(f"{noun} ({u}, {v}) out of range for n={n}")
            checked.append((u, v))
        adj = np.zeros((n, n), dtype=np.uint8)
        if checked:
            u, v = np.array(checked).T
            adj[u, v] = 1
            if not self.directed:
                adj[v, u] = 1
        adj.flags.writeable = False
        self.adjacency = adj

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def _pairs(self) -> list[tuple[int, int]]:
        """The arcs (u, v), or the edges with u < v, in row-major order."""
        u, v = np.nonzero(self.adjacency if self.directed else np.triu(self.adjacency))
        return list(zip(u.tolist(), v.tolist()))

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self):
        return hash(self.adjacency.tobytes())

    def __repr__(self):
        noun = "arcs" if self.directed else "edges"
        return f"{type(self).__name__}(n={self.n}, {noun}={self._pairs()})"

    def is_complete(self) -> bool:
        return int(self.adjacency.sum()) == self.n * (self.n - 1)


class Graph(_AdjacencyGraph):
    """Simple undirected graph on n labeled vertices (no loops, no multi-edges)."""

    __slots__ = ()
    directed = False

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._pairs())

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.adjacency.sum(axis=1).tolist())


class Digraph(_AdjacencyGraph):
    """Simple digraph on n labeled vertices (no loops, no multi-arcs)."""

    __slots__ = ()
    directed = True

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._pairs())

    def out_sets(self) -> list[set[int]]:
        return [set(np.flatnonzero(row).tolist()) for row in self.adjacency]


def _from_adjacency(adj: np.ndarray, directed: bool):
    """The Digraph or Graph whose adjacency matrix is ``adj``: a fresh
    uint8 0/1 matrix with a zero diagonal, symmetric for a graph, kept
    read-only without a copy."""
    obj = object.__new__(Digraph if directed else Graph)
    adj.flags.writeable = False
    obj.adjacency = adj
    return obj


def distances(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest path lengths and reachability in every (di)graph of a
    (b, n, n) adjacency stack, as (dist, reach).

    reach[i, u, v] says whether u reaches v in graph i; it grows one level
    at a time by a product with A + I, until no level adds an entry. The
    products run on float32 0/1 matrices, exact for n < 2**24, over at
    most ``_ENTRY_WINDOW`` entries at a time. dist holds the level each
    entry was reached at, and 0 where it never is.
    """
    b, n, _ = adj.shape
    dist = np.zeros((b, n, n), dtype=np.int16)
    reach = np.empty((b, n, n), dtype=bool)
    idx = np.arange(n)
    per_batch = max(1, _ENTRY_WINDOW // (n * n))
    for lo in range(0, b, per_batch):
        step = adj[lo : lo + per_batch].astype(np.float32)
        step[:, idx, idx] = 1
        level = np.broadcast_to(np.eye(n, dtype=np.float32), step.shape).copy()
        for d in range(1, n):
            nxt = level @ step
            np.minimum(nxt, 1, out=nxt)
            newly = nxt > level
            if not newly.any():
                break
            dist[lo : lo + per_batch][newly] = d
            level = nxt
        reach[lo : lo + per_batch] = level > 0
    return dist, reach


def _connected(adj: np.ndarray) -> np.ndarray:
    """Whether each (di)graph of a (b, n, n) adjacency stack is connected
    (strongly, for a digraph): reachability with the empty cut removed
    (see ``_cut_reach``), without distances."""
    _, reach = next(_cut_reach(adj, 0))
    return reach.all(axis=(1, 2, 3))


def _require_connected(connected: bool, directed: bool) -> None:
    if not connected:
        if directed:
            raise DisconnectedInput("digraph is not strongly connected")
        raise DisconnectedInput("graph is not connected")


def is_connected(obj) -> bool:
    """Whether every vertex reaches every vertex: connectivity of a graph,
    strong connectivity of a digraph."""
    return bool(_connected(obj.adjacency[None])[0])


is_strongly_connected = is_connected


def _connected_distances(adj: np.ndarray, directed: bool) -> np.ndarray:
    """The distances of every (di)graph of the stack; DisconnectedInput
    when one of them is not (strongly) connected."""
    dist, reach = distances(adj)
    _require_connected(reach.all(), directed)
    return dist


def matrix_stack(base: np.ndarray, kind) -> np.ndarray:
    """One kind's matrices as a (b, n, n) int32 stack, from the stack of
    adjacency matrices (A, L, Q) or of distance matrices (D, DL, DQ).

    Each matrix is the base, negated for the Laplacians, with the base's
    row sums on the diagonal for the (signless) Laplacians, since the base's
    own diagonal is zero (see ``MatrixKind``).
    """
    kind = MatrixKind.coerce(kind)
    out = base.astype(np.int32)
    if kind.sign < 0:
        np.negative(out, out=out)
    if kind.diagonal:
        idx = np.arange(base.shape[1])
        out[:, idx, idx] = base.sum(axis=2)
    return out


def build_matrices(objs, kind) -> np.ndarray:
    """One of the six matrices of each graph, or of each digraph, of one
    order, as a (b, n, n) int32 stack (see ``matrix_stack``).

    Digraph Laplacians use the out-degree diagonal; distance kinds raise
    DisconnectedInput when some member's distances are undefined.
    """
    kind = MatrixKind.coerce(kind)
    adj = np.stack([obj.adjacency for obj in objs])
    if kind.distance:
        return matrix_stack(_connected_distances(adj, objs[0].directed), kind)
    return matrix_stack(adj, kind)


def build_matrix(obj, kind) -> ExactMatrix:
    """One of the six matrices of a graph or digraph, exact integer entries
    (``build_matrices`` of one)."""
    return ExactMatrix(build_matrices([obj], kind)[0].tolist())


def distance_matrix(obj) -> ExactMatrix:
    """All-pairs shortest path lengths."""
    return build_matrix(obj, MatrixKind.DISTANCE)


def transmissions(obj) -> tuple[int, ...]:
    """Per-vertex distance row sums."""
    return tuple(int(s) for s in distance_matrix(obj).row_sums())


def _cut_reach(adj: np.ndarray, size: int):
    """Reachability in every (di)graph of a (b, n, n) adjacency stack minus
    each cut of ``size`` vertices, cuts in lexicographic order.

    Yields (keep, reach) batches: keep is (c, m), the m = n - size vertices
    each of c cuts keeps, and reach is (b, c, m, m), whether u reaches v
    once the cut is gone. A batch holds at most ``_ENTRY_WINDOW`` entries, or
    a single cut. Reach is (A + I) squared s = ceil(log2(m - 1)) times,
    which covers every path of length up to 2**s >= m - 1.
    """
    b, n, _ = adj.shape
    m = n - size
    idx = np.arange(m)
    per_batch = max(1, _ENTRY_WINDOW // max(1, b * m * m))
    cuts = combinations(range(n), size)
    while chunk := list(islice(cuts, per_batch)):
        kept = np.ones((len(chunk), n), dtype=bool)
        kept[np.arange(len(chunk))[:, None], chunk] = False
        keep = np.nonzero(kept)[1].reshape(len(chunk), m)
        reach = adj[:, keep[:, :, None], keep[:, None, :]].astype(np.float32)
        reach[..., idx, idx] = 1
        for _ in range((m - 2).bit_length()):
            reach = reach @ reach
            np.minimum(reach, 1, out=reach)
        yield keep, reach > 0


def vertex_connectivities(adj: np.ndarray, connected: np.ndarray) -> np.ndarray:
    """Vertex connectivity of every (di)graph of a (b, n, n) adjacency
    stack: the fewest vertices whose deletion leaves some vertex unable to
    reach another.

    The same criterion covers graphs (symmetric adjacency) and digraphs.
    Entries where ``connected`` is false are -1; complete graphs, and
    connected ones without a cut of n - 2 or fewer vertices, get n - 1.
    Cuts are tried in increasing size, all cuts of one size at a time over
    the graphs still unanswered (see ``_cut_reach``), and a size stops at
    the batch where every one of them is broken. A graph may cost up to
    ``CUT_BUDGET`` cuts (more than every cut of a graph on 18 vertices):
    a batch that brings the count to it with some graph still unbroken
    raises BudgetExceeded.
    """
    n = adj.shape[1]
    kappa = np.where(connected, n - 1, -1)
    alive = connected & (adj.sum(axis=(1, 2)) < n * (n - 1))
    tried = 0
    for size in range(1, n - 1):
        if not alive.any():
            break
        rows = np.flatnonzero(alive)
        broken = np.zeros(rows.size, dtype=bool)
        for keep, reach in _cut_reach(adj[rows], size):
            broken |= ~reach.all(axis=(2, 3)).all(axis=1)
            if broken.all():
                break
            tried += len(keep)
            if tried >= CUT_BUDGET:
                raise BudgetExceeded(
                    f"vertex connectivity is capped at {CUT_BUDGET} vertex cuts per graph; "
                    f"a graph on {n} vertices is still unbroken after {tried} cuts "
                    f"of up to {size} vertices"
                )
        kappa[rows[broken]] = size
        alive[rows[broken]] = False
    return kappa


def vertex_connectivity(obj) -> int:
    """Minimum number of vertices whose deletion disconnects the graph
    (destroys strong connectivity for digraphs).

    Exact: ``vertex_connectivities`` of the one (di)graph, a batched cut
    search in increasing cut size that stops at the first batch of cuts
    that breaks it. It raises BudgetExceeded once ``CUT_BUDGET`` cuts leave
    the input unbroken, so every input on 18 or fewer vertices is answered.
    Complete inputs have no cut and return n - 1 by convention.
    """
    adj = obj.adjacency[None]
    connected = _connected(adj)
    _require_connected(connected[0], obj.directed)
    return int(vertex_connectivities(adj, connected)[0])


def join(a, b):
    """Join of two disjoint (di)graphs: union plus all cross edges.

    The second argument is relabeled by an offset of a.n, so callers can
    pass independently built pieces. The digraph join adds both arc
    directions between the parts.
    """
    if type(a) is not type(b):
        raise TypeError("join requires two graphs or two digraphs")
    adj = np.ones((a.n + b.n, a.n + b.n), dtype=np.uint8)
    adj[: a.n, : a.n] = a.adjacency
    adj[a.n :, a.n :] = b.adjacency
    return _from_adjacency(adj, a.directed)


# ---------------------------------------------------------------------------
# text format


def parse_graph_file(text: str):
    """Parse the line-oriented graph format.

    Line 1: ``graph <n>`` or ``digraph <n>``; then one ``<u> <v>`` edge/arc
    per line, 0-indexed. ``#`` starts a comment. Loops and duplicates are
    rejected with the offending line number.
    """
    cls, n, items = _parse_graph_text(text)
    return cls(n, items)


def _parse_graph_text(text: str):
    """``parse_graph_file`` before the (di)graph is built: its type, order
    and pairs, so that a caller can bound the order first."""
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
    return (Digraph if directed else Graph), n, items


def format_graph_file(obj) -> str:
    lines = [f"{'digraph' if obj.directed else 'graph'} {obj.n}"]
    lines.extend(f"{u} {v}" for u, v in obj._pairs())
    return "\n".join(lines) + "\n"
