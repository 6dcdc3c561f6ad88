"""Family constructors, block descriptions, and the keystone identity."""

from __future__ import annotations

from itertools import product

import pytest

from eqspec.errors import InvalidParameters, ParseError, UnsupportedFamily
from eqspec.families import (
    BidirectedComplete,
    CliqueStar,
    CompleteMultipartite,
    DirectedCycle,
    KnkpDigraph,
    KnkpGraph,
    Petersen,
    adjacency_blockspec,
    build,
    format_family,
    natural_partition,
    parse_family,
)
from eqspec.graphs import ALL_KINDS, Digraph, Graph, build_matrix, vertex_connectivity
from eqspec.quotient import is_equitable, realize_block_matrix
from eqspec.search import is_isomorphic

from oracles import family_by_definition

KIND_NAMES = tuple(k.value for k in ALL_KINDS)


def test_petersen_shape():
    g = build(Petersen())
    assert g.n == 10 and len(g.edges) == 15
    assert set(g.degrees()) == {3}


def test_directed_cycle_and_complete():
    c = build(DirectedCycle(4))
    assert isinstance(c, Digraph) and len(c.arcs) == 4
    kn = build(BidirectedComplete(4))
    assert kn.is_complete()


def test_multipartite_all_singletons_is_complete():
    g = build(CompleteMultipartite((1, 1, 1, 1)))
    assert isinstance(g, Graph) and g.is_complete()


def test_cliquestar_vertex_count_formula():
    for sizes in ((2, 2), (3, 3), (2, 3, 4), (5, 5, 5)):
        star = CliqueStar(sizes)
        assert build(star).n == 1 + sum(s - 1 for s in sizes) == star.n


def test_knkp_graph_p_and_mirror_are_isomorphic():
    for n, k in ((5, 1), (6, 2), (7, 3)):
        a = build(KnkpGraph(n, k, 1))
        b = build(KnkpGraph(n, k, n - k - 1))
        assert is_isomorphic(a, b)


def test_knkp_digraph_arc_count():
    n, k, p = 6, 2, 1
    q = n - p - k
    dg = build(KnkpDigraph(n, k, p))
    within = p * (p - 1) + k * (k - 1) + q * (q - 1)
    cross = 2 * k * (p + q)
    one_way = p * q
    assert len(dg.arcs) == within + cross + one_way


@pytest.mark.parametrize(
    "bad",
    [
        lambda: DirectedCycle(1),
        lambda: CompleteMultipartite((3,)),
        lambda: CliqueStar((1, 3)),
        lambda: KnkpGraph(5, 4, 1),
        lambda: KnkpGraph(5, 2, 3),
        lambda: KnkpDigraph(4, 0, 1),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(InvalidParameters):
        bad()


# ---------------------------------------------------------------------------
# keystone identity: block description realizes the built matrix exactly


@pytest.mark.parametrize("kind", KIND_NAMES)
@pytest.mark.parametrize(
    "spec",
    [
        CompleteMultipartite((2, 3)),
        CompleteMultipartite((1, 4, 2)),
        CliqueStar((2, 2)),
        CliqueStar((3, 3)),
        CliqueStar((2, 3, 4)),
        KnkpDigraph(5, 2, 1),
        KnkpDigraph(7, 3, 2),
        KnkpDigraph(6, 1, 4),
        KnkpGraph(5, 2, 1),
        KnkpGraph(7, 3, 2),
        KnkpGraph(8, 2, 5),
    ],
    ids=format_family,
)
def test_keystone_block_identity(spec, kind):
    assert realize_block_matrix(adjacency_blockspec(spec, kind)) == build_matrix(
        build(spec), kind
    )


def _block_family_sweep():
    for n in range(3, 13):
        for k in range(1, n - 1):
            for p in range(1, n - k):
                yield KnkpGraph(n, k, p)
                yield KnkpDigraph(n, k, p)
    for t in (2, 3, 4):
        yield from map(CompleteMultipartite, product(range(1, 4), repeat=t))
    for t in (1, 2, 3, 4):
        yield from map(CliqueStar, product(range(2, 5), repeat=t))


def test_build_matches_the_definitions():
    # the keystone identity compares two readings of one cell table; this
    # checks the table itself against the families' definitions
    specs = list(_block_family_sweep())
    assert len(specs) == 677
    for spec in specs:
        assert build(spec) == family_by_definition(spec), spec


def test_build_matches_the_definitions_of_the_digraph_families():
    for n in range(1, 13):
        assert build(BidirectedComplete(n)) == family_by_definition(BidirectedComplete(n))
        if n >= 2:
            assert build(DirectedCycle(n)) == family_by_definition(DirectedCycle(n))


def test_natural_partition_is_equitable_for_all_kinds():
    for spec in (
        CompleteMultipartite((2, 3, 1)),
        CliqueStar((3, 4)),
        KnkpDigraph(6, 2, 2),
        KnkpGraph(7, 2, 3),
        Petersen(),
    ):
        g = build(spec)
        part = natural_partition(spec)
        for kind in KIND_NAMES:
            assert is_equitable(build_matrix(g, kind), part), (spec, kind)


def test_blockspec_unsupported_for_unstructured_families():
    with pytest.raises(UnsupportedFamily):
        adjacency_blockspec(Petersen(), "A")
    with pytest.raises(UnsupportedFamily):
        adjacency_blockspec(DirectedCycle(4), "A")


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_knkp_connectivity_matches_parameter(n):
    for k in range(1, n - 1):
        for p in range(1, n - k):
            assert vertex_connectivity(build(KnkpGraph(n, k, p))) == k
            assert vertex_connectivity(build(KnkpDigraph(n, k, p))) == k


def test_blockspec_coefficients_match_itemized_tables():
    # spot checks of the coefficient tables behind the keystone identity
    parts = (2, 3, 2)
    n = sum(parts)
    spec = adjacency_blockspec(CompleteMultipartite(parts), "L")
    assert spec.l == (0, 0, 0)
    assert spec.p == tuple(n - ni for ni in parts)
    assert all(spec.s[i][j] == -1 for i in range(3) for j in range(3) if i != j)

    fam = KnkpDigraph(7, 2, 2)
    spec = adjacency_blockspec(fam, "DQ")
    assert spec.p == (5, 5, 7)  # (n-2, n-2, n+p-2)
    assert spec.s[2][0] == 2 and spec.s[0][2] == 1

    # the clique star's hub keeps its whole diagonal in l
    star = CliqueStar((3, 4, 5))
    spec = adjacency_blockspec(star, "L")
    assert (spec.l[0], spec.p[0]) == (star.n - 1, 0)

    # any other size-1 cell keeps it in p, like the larger cells
    spec = adjacency_blockspec(KnkpGraph(6, 2, 1), "A")
    assert (spec.sizes[0], spec.l[0], spec.p[0]) == (1, 1, -1)


# ---------------------------------------------------------------------------
# text syntax


@pytest.mark.parametrize(
    "text, spec",
    [
        ("cycle:5", DirectedCycle(5)),
        ("bicomplete:4", BidirectedComplete(4)),
        ("petersen", Petersen()),
        ("multipartite:2,3,2", CompleteMultipartite((2, 3, 2))),
        ("cliquestar:3,3", CliqueStar((3, 3))),
        ("knkp-d:6,2,1", KnkpDigraph(6, 2, 1)),
        ("knkp-g:7,3,2", KnkpGraph(7, 3, 2)),
    ],
)
def test_family_syntax_round_trip(text, spec):
    assert parse_family(text) == spec
    assert parse_family(format_family(spec)) == spec


@pytest.mark.parametrize("text", ["cycle", "petersen:3", "knkp-g:5,2", "mystery:1", "cycle:x"])
def test_family_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_family(text)


def test_family_syntax_bounds_error():
    with pytest.raises(InvalidParameters):
        parse_family("knkp-g:5,4,1")
