"""Constructors for the named graph and digraph families.

Each family has a fixed canonical labeling so that structured block
descriptions match the constructed matrices entrywise, not merely up to
isomorphism. The connectivity families K(n,k,p) put the p-clique on vertices
0..p-1, the k-cut next, and the q-clique last; the clique star puts the
shared hub at vertex 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameters, ParseError, UnsupportedFamily
from .graphs import Digraph, Graph, MatrixKind
from .quotient import BlockSpec, Partition


@dataclass(frozen=True)
class DirectedCycle:
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameters(f"directed cycle needs n >= 2, got n={self.n}")


@dataclass(frozen=True)
class BidirectedComplete:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameters(f"complete digraph needs n >= 1, got n={self.n}")


@dataclass(frozen=True)
class Petersen:
    pass


@dataclass(frozen=True)
class CompleteMultipartite:
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(x) for x in self.parts))
        if len(self.parts) < 2:
            raise InvalidParameters("complete multipartite needs at least 2 parts")
        if any(x < 1 for x in self.parts):
            raise InvalidParameters("part sizes must be at least 1")

    @property
    def n(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class CliqueStar:
    """Cliques of the given sizes (each >= 2) sharing one hub vertex."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(x) for x in self.sizes))
        if len(self.sizes) < 1:
            raise InvalidParameters("clique star needs at least one clique")
        if any(x < 2 for x in self.sizes):
            raise InvalidParameters("clique sizes must be at least 2")

    @property
    def n(self) -> int:
        return 1 + sum(s - 1 for s in self.sizes)


def _check_knkp(n: int, k: int, p: int) -> None:
    if not 1 <= k <= n - 2:
        raise InvalidParameters(f"need 1 <= k <= n-2, got n={n}, k={k}")
    if not 1 <= p <= n - k - 1:
        raise InvalidParameters(f"need 1 <= p <= n-k-1, got n={n}, k={k}, p={p}")


@dataclass(frozen=True)
class KnkpDigraph:
    """K_k joined to (K_p union K_q) with extra one-way arcs from the p-cell
    to the q-cell; the unique-up-to-p extremal digraph with connectivity k."""

    n: int
    k: int
    p: int

    def __post_init__(self):
        _check_knkp(self.n, self.k, self.p)

    @property
    def q(self) -> int:
        return self.n - self.p - self.k


@dataclass(frozen=True)
class KnkpGraph:
    """K_k joined to (K_p union K_q): connectivity-k extremal graph."""

    n: int
    k: int
    p: int

    def __post_init__(self):
        _check_knkp(self.n, self.k, self.p)

    @property
    def q(self) -> int:
        return self.n - self.p - self.k


def _endpoint_members(family, n: int, k: int) -> tuple:
    """The p=1 and p=n-k-1 members of a connectivity family, once each."""
    members = [family(n, k, 1)]
    if n - k - 1 != 1:
        members.append(family(n, k, n - k - 1))
    return tuple(members)


FamilySpec = (
    DirectedCycle
    | BidirectedComplete
    | Petersen
    | CompleteMultipartite
    | CliqueStar
    | KnkpDigraph
    | KnkpGraph
)


_PETERSEN_EDGES = (
    # outer 5-cycle
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    # spokes
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    # inner pentagram (step 2)
    (5, 7), (6, 8), (7, 9), (8, 5), (9, 6),
)


def build(spec: FamilySpec):
    """Construct the labeled family member with its canonical vertex order."""
    if isinstance(spec, DirectedCycle):
        return Digraph(spec.n, [(i, (i + 1) % spec.n) for i in range(spec.n)])
    if isinstance(spec, BidirectedComplete):
        return Digraph(
            spec.n,
            [(i, j) for i in range(spec.n) for j in range(spec.n) if i != j],
        )
    if isinstance(spec, Petersen):
        return Graph(10, _PETERSEN_EDGES)
    if isinstance(spec, CompleteMultipartite):
        bounds = []
        start = 0
        for size in spec.parts:
            bounds.append(range(start, start + size))
            start += size
        edges = [
            (u, v)
            for i in range(len(bounds))
            for j in range(i + 1, len(bounds))
            for u in bounds[i]
            for v in bounds[j]
        ]
        return Graph(start, edges)
    if isinstance(spec, CliqueStar):
        edges = set()
        nxt = 1
        for size in spec.sizes:
            clique = [0] + list(range(nxt, nxt + size - 1))
            nxt += size - 1
            for a in range(len(clique)):
                for b in range(a + 1, len(clique)):
                    edges.add((clique[a], clique[b]))
        return Graph(spec.n, edges)
    if isinstance(spec, (KnkpGraph, KnkpDigraph)):
        n, k, p, q = spec.n, spec.k, spec.p, spec.q
        p_cell = range(p)
        k_cell = range(p, p + k)
        q_cell = range(p + k, n)
        directed = isinstance(spec, KnkpDigraph)
        pairs = set()

        def clique(cell):
            cell = list(cell)
            for a in range(len(cell)):
                for b in range(a + 1, len(cell)):
                    pairs.add((cell[a], cell[b]))

        def cross(ca, cb):
            for u in ca:
                for v in cb:
                    pairs.add((u, v))

        clique(p_cell)
        clique(k_cell)
        clique(q_cell)
        cross(p_cell, k_cell)
        cross(k_cell, q_cell)
        if not directed:
            return Graph(n, pairs)
        arcs = set()
        for u, v in pairs:
            arcs.add((u, v))
            arcs.add((v, u))
        # one-way arcs from the p-cell into the q-cell
        for u in p_cell:
            for v in q_cell:
                arcs.add((u, v))
        return Digraph(n, arcs)
    raise UnsupportedFamily(f"unknown family spec {spec!r}")


def natural_partition(spec: FamilySpec) -> Partition:
    """The partition under which the family's matrices are equitable."""
    if isinstance(spec, CompleteMultipartite):
        return Partition.from_sizes(spec.parts)
    if isinstance(spec, CliqueStar):
        return Partition.from_sizes((1,) + tuple(s - 1 for s in spec.sizes))
    if isinstance(spec, (KnkpGraph, KnkpDigraph)):
        return Partition.from_sizes((spec.p, spec.k, spec.q))
    if isinstance(spec, Petersen):
        return Partition.from_sizes((5, 5))
    raise UnsupportedFamily(f"no natural partition for {spec!r}")


def _filled(t, diag, off):
    return tuple(tuple(diag if i == j else off for j in range(t)) for i in range(t))


def _with_entries(base, entries: dict):
    rows = [list(row) for row in base]
    for (i, j), val in entries.items():
        rows[i][j] = val
    return tuple(tuple(row) for row in rows)


def adjacency_blockspec(spec: FamilySpec, kind) -> BlockSpec:
    """Block coefficients (l_i, p_i, s_ij) of the family's matrix of a kind.

    Realizing the result reproduces build_matrix(build(spec), kind)
    entrywise; this is the keystone identity the tests pin down.
    """
    kind = MatrixKind.coerce(kind)
    K = MatrixKind
    if isinstance(spec, CompleteMultipartite):
        parts = spec.parts
        t, n = len(parts), sum(parts)
        table = {
            K.ADJACENCY: (0, [0] * t, 1),
            K.LAPLACIAN: (0, [n - ni for ni in parts], -1),
            K.SIGNLESS_LAPLACIAN: (0, [n - ni for ni in parts], 1),
            K.DISTANCE: (2, [-2] * t, 1),
            K.DISTANCE_LAPLACIAN: (-2, [n + ni for ni in parts], -1),
            K.DISTANCE_SIGNLESS_LAPLACIAN: (2, [n + ni - 4 for ni in parts], 1),
        }
        l, p, s = table[kind]
        return BlockSpec(parts, (l,) * t, tuple(p), _filled(t, 0, s))

    if isinstance(spec, CliqueStar):
        cliques = spec.sizes
        n = spec.n
        t = len(cliques) + 1
        cell_sizes = (1,) + tuple(c - 1 for c in cliques)
        # (hub l, hub p, leaf l, leaf p per clique, hub s, leaf-leaf s)
        table = {
            K.ADJACENCY: (0, 0, 1, [-1] * len(cliques), 1, 0),
            K.LAPLACIAN: (n - 1, 0, -1, list(cliques), -1, 0),
            K.SIGNLESS_LAPLACIAN: (n - 1, 0, 1, [c - 2 for c in cliques], 1, 0),
            K.DISTANCE: (0, 0, 1, [-1] * len(cliques), 1, 2),
            K.DISTANCE_LAPLACIAN: (n - 1, 0, -1, [2 * n - c for c in cliques], -1, -2),
            K.DISTANCE_SIGNLESS_LAPLACIAN: (
                n - 1, 0, 1, [2 * n - c - 2 for c in cliques], 1, 2,
            ),
        }
        hub_l, hub_p, leaf_l, leaf_p, hub_s, far_s = table[kind]
        s = _filled(t, 0, far_s)
        s = _with_entries(
            s,
            {(0, j): hub_s for j in range(1, t)} | {(i, 0): hub_s for i in range(1, t)},
        )
        return BlockSpec(
            cell_sizes, (hub_l,) + (leaf_l,) * len(cliques), (hub_p,) + tuple(leaf_p), s
        )

    if isinstance(spec, KnkpDigraph):
        n, k, p, q = spec.n, spec.k, spec.p, spec.q
        sizes = (p, k, q)
        # (l, diag p-coeffs, generic s, s entry for the q-cell -> p-cell block)
        table = {
            K.ADJACENCY: (1, (-1, -1, -1), 1, 0),
            K.SIGNLESS_LAPLACIAN: (1, (n - 2, n - 2, n - p - 2), 1, 0),
            K.DISTANCE: (1, (-1, -1, -1), 1, 2),
            K.DISTANCE_SIGNLESS_LAPLACIAN: (1, (n - 2, n - 2, n + p - 2), 1, 2),
            K.LAPLACIAN: (-1, (n, n, n - p), -1, 0),
            K.DISTANCE_LAPLACIAN: (-1, (n, n, n + p), -1, -2),
        }
        l, pc, s, s31 = table[kind]
        return BlockSpec(sizes, (l,) * 3, pc, _with_entries(_filled(3, 0, s), {(2, 0): s31}))

    if isinstance(spec, KnkpGraph):
        n, k, p, q = spec.n, spec.k, spec.p, spec.q
        sizes = (p, k, q)
        table = {
            K.ADJACENCY: (1, (-1, -1, -1), 1, 0),
            K.SIGNLESS_LAPLACIAN: (1, (p + k - 2, n - 2, n - p - 2), 1, 0),
            K.DISTANCE: (1, (-1, -1, -1), 1, 2),
            K.DISTANCE_SIGNLESS_LAPLACIAN: (1, (n + q - 2, n - 2, n + p - 2), 1, 2),
            K.LAPLACIAN: (-1, (p + k, n, q + k), -1, 0),
            K.DISTANCE_LAPLACIAN: (-1, (n + q, n, n + p), -1, -2),
        }
        l, pc, s, far = table[kind]
        return BlockSpec(
            sizes,
            (l,) * 3,
            pc,
            _with_entries(_filled(3, 0, s), {(0, 2): far, (2, 0): far}),
        )

    raise UnsupportedFamily(f"no block description for {type(spec).__name__}")


# ---------------------------------------------------------------------------
# text syntax


def parse_family(text: str) -> FamilySpec:
    """Parse the CLI family syntax, e.g. ``knkp-g:6,2,1`` or ``petersen``."""
    s = text.strip()
    name, _, argstr = s.partition(":")
    name = name.strip().lower()
    args: list[int] = []
    if argstr.strip():
        try:
            args = [int(x) for x in argstr.split(",")]
        except ValueError:
            raise ParseError(f"non-integer family parameter in {text!r}") from None
    try:
        if name == "cycle" and len(args) == 1:
            return DirectedCycle(args[0])
        if name == "bicomplete" and len(args) == 1:
            return BidirectedComplete(args[0])
        if name == "petersen" and not args:
            return Petersen()
        if name == "multipartite" and args:
            return CompleteMultipartite(tuple(args))
        if name == "cliquestar" and args:
            return CliqueStar(tuple(args))
        if name == "knkp-d" and len(args) == 3:
            return KnkpDigraph(*args)
        if name == "knkp-g" and len(args) == 3:
            return KnkpGraph(*args)
    except InvalidParameters:
        raise
    raise ParseError(f"unrecognized family {text!r}")


def format_family(spec: FamilySpec) -> str:
    if isinstance(spec, DirectedCycle):
        return f"cycle:{spec.n}"
    if isinstance(spec, BidirectedComplete):
        return f"bicomplete:{spec.n}"
    if isinstance(spec, Petersen):
        return "petersen"
    if isinstance(spec, CompleteMultipartite):
        return "multipartite:" + ",".join(str(x) for x in spec.parts)
    if isinstance(spec, CliqueStar):
        return "cliquestar:" + ",".join(str(x) for x in spec.sizes)
    if isinstance(spec, KnkpDigraph):
        return f"knkp-d:{spec.n},{spec.k},{spec.p}"
    if isinstance(spec, KnkpGraph):
        return f"knkp-g:{spec.n},{spec.k},{spec.p}"
    raise UnsupportedFamily(f"unknown family spec {spec!r}")
