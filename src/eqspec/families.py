"""Constructors for the named graph and digraph families.

Each family has a fixed canonical labeling so that structured block
descriptions match the constructed matrices entrywise, not merely up to
isomorphism. The block families are stated once, by ``_cells``: their cell
sizes in vertex order and which cells are joined. The connectivity families
K(n,k,p) put the p-clique on vertices 0..p-1, the k-cut next, and the
q-clique last; the clique star puts the shared hub at vertex 0.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import InvalidParameters, ParseError, UnsupportedFamily
from .graphs import Graph, MatrixKind, _from_adjacency
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
    n = 10  # a class attribute, not a field


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


@dataclass(frozen=True)
class _Knkp:
    """The parameters of K(n,k,p), shared by the graph and the digraph."""

    n: int
    k: int
    p: int

    def __post_init__(self):
        n, k, p = self.n, self.k, self.p
        if not 1 <= k <= n - 2:
            raise InvalidParameters(f"need 1 <= k <= n-2, got n={n}, k={k}")
        if not 1 <= p <= n - k - 1:
            raise InvalidParameters(f"need 1 <= p <= n-k-1, got n={n}, k={k}, p={p}")

    @property
    def q(self) -> int:
        return self.n - self.p - self.k


class KnkpDigraph(_Knkp):
    """K_k joined to (K_p union K_q) with extra one-way arcs from the p-cell
    to the q-cell; the unique-up-to-p extremal digraph with connectivity k."""


class KnkpGraph(_Knkp):
    """K_k joined to (K_p union K_q): connectivity-k extremal graph."""


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


def _cells(spec: FamilySpec, error: str):
    """A block family's cell sizes in vertex order, whether it is directed,
    and ``joined(i, j)``: whether each vertex of cell i has an arc to every
    other vertex of cell j. Other families raise ``error`` formatted with
    the spec."""
    if isinstance(spec, CompleteMultipartite):
        return spec.parts, False, lambda i, j: i != j
    if isinstance(spec, CliqueStar):
        sizes = (1,) + tuple(s - 1 for s in spec.sizes)
        return sizes, False, lambda i, j: i == j or i == 0 or j == 0
    if isinstance(spec, KnkpGraph):
        return (spec.p, spec.k, spec.q), False, lambda i, j: {i, j} != {0, 2}
    if isinstance(spec, KnkpDigraph):
        return (spec.p, spec.k, spec.q), True, lambda i, j: (i, j) != (2, 0)
    raise UnsupportedFamily(error.format(spec=spec))


def build(spec: FamilySpec):
    """Construct the labeled family member with its canonical vertex order."""
    if isinstance(spec, DirectedCycle):
        return _from_adjacency(np.roll(np.eye(spec.n, dtype=np.uint8), 1, axis=1), True)
    if isinstance(spec, BidirectedComplete):
        return _from_adjacency(1 - np.eye(spec.n, dtype=np.uint8), True)
    if isinstance(spec, Petersen):
        return Graph(10, _PETERSEN_EDGES)
    sizes, directed, joined = _cells(spec, "unknown family spec {spec!r}")
    t = range(len(sizes))
    table = np.array([[joined(i, j) for j in t] for i in t], dtype=np.uint8)
    adj = np.repeat(np.repeat(table, sizes, axis=0), sizes, axis=1)
    np.fill_diagonal(adj, 0)
    return _from_adjacency(adj, directed)


def natural_partition(spec: FamilySpec) -> Partition:
    """The partition under which the family's matrices are equitable."""
    if isinstance(spec, Petersen):
        return Partition.from_sizes((5, 5))
    sizes, _, _ = _cells(spec, "no natural partition for {spec!r}")
    return Partition.from_sizes(sizes)


def adjacency_blockspec(spec: FamilySpec, kind) -> BlockSpec:
    """Block coefficients (l_i, p_i, s_ij) of the family's matrix of a kind.

    Every block family has diameter at most 2, so its base matrix is one
    number b_ij on each block: 1 between joined cells, and 0 (adjacency)
    or 2 (distance) between cells that are not. The kind's matrix is the
    base, negated for the Laplacians, with the base's row sums r_i on the
    diagonal when the kind has them (see ``graphs.matrix_stack``).

    Realizing the result reproduces build_matrix(build(spec), kind)
    entrywise; this is the keystone identity the tests pin down.
    """
    sizes, _, joined = _cells(spec, "no block description for {spec.__class__.__name__}")
    kind = MatrixKind.coerce(kind)
    t = len(sizes)
    b = [[1 if joined(i, j) else 2 * kind.distance for j in range(t)] for i in range(t)]
    l = [kind.sign * b[i][i] for i in range(t)]
    r = [sum(nj * bij for nj, bij in zip(sizes, row)) - row[i] for i, row in enumerate(b)]
    p = [(r[i] if kind.diagonal else 0) - l[i] for i in range(t)]
    if isinstance(spec, CliqueStar):
        # The hub keeps its diagonal in l, not p: recorded outputs, such as
        # the bench digest of `family cliquestar:3,4,5`, print it there.
        l[0], p[0] = l[0] + p[0], 0
    s = tuple(tuple(0 if i == j else kind.sign * b[i][j] for j in range(t)) for i in range(t))
    return BlockSpec(sizes, tuple(l), tuple(p), s)


# ---------------------------------------------------------------------------
# text syntax

# CLI name -> (family, parameter count; None for a tuple of one or more)
_NAMES = {
    "cycle": (DirectedCycle, 1),
    "bicomplete": (BidirectedComplete, 1),
    "petersen": (Petersen, 0),
    "multipartite": (CompleteMultipartite, None),
    "cliquestar": (CliqueStar, None),
    "knkp-d": (KnkpDigraph, 3),
    "knkp-g": (KnkpGraph, 3),
}


def parse_family(text: str) -> FamilySpec:
    """Parse the CLI family syntax, e.g. ``knkp-g:6,2,1`` or ``petersen``."""
    name, _, argstr = text.strip().partition(":")
    args: list[int] = []
    if argstr.strip():
        try:
            args = [int(x) for x in argstr.split(",")]
        except ValueError:
            raise ParseError(f"non-integer family parameter in {text!r}") from None
    family, arity = _NAMES.get(name.strip().lower(), (None, -1))
    if arity is None and args:
        return family(tuple(args))
    if len(args) == arity:
        return family(*args)
    raise ParseError(f"unrecognized family {text!r}")


def format_family(spec: FamilySpec) -> str:
    for name, (family, arity) in _NAMES.items():
        if type(spec) is family:
            args = astuple(spec)[0] if arity is None else astuple(spec)
            return f"{name}:{','.join(map(str, args))}" if args else name
    raise UnsupportedFamily(f"unknown family spec {spec!r}")
