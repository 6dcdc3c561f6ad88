"""Graph/digraph construction, connectivity, matrices, and the text format."""

from __future__ import annotations

import random

import numpy as np
import pytest

from eqspec.errors import BudgetExceeded, DisconnectedInput, InvalidParameters, ParseError
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
    parse_family,
)
from eqspec.graphs import (
    ALL_KINDS,
    CUT_BUDGET,
    Digraph,
    Graph,
    MatrixKind,
    build_matrices,
    build_matrix,
    distance_matrix,
    format_graph_file,
    is_connected,
    is_strongly_connected,
    join,
    parse_graph_file,
    transmissions,
    vertex_connectivity,
)
from eqspec.linalg import ExactMatrix, spectral_radius
from eqspec.quotient import realize_block_matrix
from eqspec.search import OBJECTIVES, is_isomorphic
from eqspec.theorems import CLAIMS

from oracles import (
    connected_union_find,
    floyd_warshall,
    strongly_connected_warshall,
    vertex_connectivity_maxflow,
)


# the families whose graph files ``eqspec analyze`` reads in the benchmark
_ANALYZED_FAMILIES = (
    "petersen",
    "knkp-g:12,5,1",
    "knkp-d:12,5,3",
    "multipartite:3,4,5",
    "cliquestar:3,4,5",
)


def _random_graph(rng, n, p=0.5):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def _random_digraph(rng, n, p=0.5):
    arcs = [
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
    ]
    return Digraph(n, arcs)


# ---------------------------------------------------------------------------
# connectivity


def test_is_connected_basic():
    assert is_connected(Graph(1))
    assert is_connected(build(Petersen()))
    assert not is_connected(Graph(2))


def test_is_strongly_connected_basic():
    assert is_strongly_connected(build(DirectedCycle(4)))
    assert not is_strongly_connected(Digraph(3, [(0, 1), (1, 2)]))
    assert is_strongly_connected(build(BidirectedComplete(3)))


def test_connectivity_reads_reach_without_distances(monkeypatch):
    from eqspec import graphs

    def no_distances(adj):
        raise AssertionError("connectivity built distances")

    monkeypatch.setattr(graphs, "distances", no_distances)
    assert is_connected(build(Petersen()))
    assert not is_strongly_connected(Digraph(3, [(0, 1), (1, 2)]))
    assert vertex_connectivity(build(Petersen())) == 3
    assert vertex_connectivity(build(DirectedCycle(5))) == 1
    with pytest.raises(DisconnectedInput, match="^graph is not connected$"):
        vertex_connectivity(Graph(3, [(0, 1)]))
    with pytest.raises(DisconnectedInput, match="^digraph is not strongly connected$"):
        vertex_connectivity(Digraph(3, [(0, 1), (1, 2)]))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_graph_kernels_on_empty_stacks(n):
    from eqspec.graphs import _connected, distances, vertex_connectivities

    adj = np.zeros((0, n, n), dtype=np.uint8)
    connected = _connected(adj)
    assert connected.shape == (0,) and connected.dtype == bool
    assert vertex_connectivities(adj, connected).shape == (0,)
    dist, reach = distances(adj)
    assert dist.shape == reach.shape == (0, n, n)


def test_connectivity_against_oracles():
    rng = random.Random(21)
    for _ in range(200):
        g = _random_graph(rng, rng.randint(1, 8), rng.random())
        assert is_connected(g) == connected_union_find(g)
        dg = _random_digraph(rng, rng.randint(1, 6), rng.random())
        assert is_strongly_connected(dg) == strongly_connected_warshall(dg)


# ---------------------------------------------------------------------------
# distances and transmissions


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_directed_cycle_distance_row_sums(n):
    d = distance_matrix(build(DirectedCycle(n)))
    assert set(d.row_sums()) == {n * (n - 1) // 2}


def test_complete_digraph_distance_is_all_ones_off_diagonal():
    n = 5
    d = distance_matrix(build(BidirectedComplete(n)))
    expected = ExactMatrix([[0 if i == j else 1 for j in range(n)] for i in range(n)])
    assert d == expected


def test_petersen_distance_row_sums():
    assert set(distance_matrix(build(Petersen())).row_sums()) == {15}


def test_distance_matrix_symmetry():
    d = distance_matrix(build(Petersen())).to_numpy()
    assert np.array_equal(d, d.T)
    d = distance_matrix(build(KnkpDigraph(6, 2, 1))).to_numpy()
    assert not np.array_equal(d, d.T)


def test_kind_table():
    """The wire names in order, each kind's radius name and the sense the
    connectivity theorems optimize it in; the scan objectives and the
    ex3.5/ex3.6 item numbers follow that order."""
    wires = ["A", "L", "Q", "D", "DL", "DQ"]
    assert [kind.value for kind in MatrixKind] == wires
    assert [kind.radius_name for kind in MatrixKind] == ["rho", "mu", "q", "rhoD", "muD", "qD"]
    assert [kind.sense for kind in MatrixKind] == ["max", None, "max", "min", None, "min"]
    assert MatrixKind("A") is MatrixKind.ADJACENCY
    assert MatrixKind.coerce("dq") is MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN
    assert OBJECTIVES == ("rho", "q", "rhoD", "qD")
    for claim in ("ex3.5", "ex3.6"):
        for item, wire in enumerate(wires, 1):
            assert CLAIMS[f"{claim}.{item}"].description.endswith(f"kind {wire}")


def _kind_by_entry(obj, kind):
    """One of the six matrices entry by entry, from the edge set (A, L, Q)
    or from ``floyd_warshall`` (D, DL, DQ), with its row sums."""
    n = obj.n
    if kind in ("D", "DL", "DQ"):
        base = floyd_warshall(obj)
    else:
        base = [[0] * n for _ in range(n)]
        for u, v in obj.arcs if isinstance(obj, Digraph) else obj.edges:
            base[u][v] = 1
            if isinstance(obj, Graph):
                base[v][u] = 1
    sums = [sum(row) for row in base]
    sign = -1 if kind in ("L", "DL") else 1
    diagonal = kind not in ("A", "D")
    return [
        [sums[i] if i == j and diagonal else sign * base[i][j] for j in range(n)]
        for i in range(n)
    ]


def test_distance_matrix_against_floyd_warshall():
    rng = random.Random(22)
    checked = 0
    while checked < 30:
        obj = (
            _random_graph(rng, rng.randint(2, 8))
            if rng.random() < 0.5
            else _random_digraph(rng, rng.randint(2, 6))
        )
        connected = (
            is_connected(obj) if isinstance(obj, Graph) else is_strongly_connected(obj)
        )
        if not connected:
            with pytest.raises(DisconnectedInput):
                distance_matrix(obj)
            continue
        oracle = floyd_warshall(obj)
        mine = distance_matrix(obj)
        assert all(
            mine[i, j] == oracle[i][j] for i in range(obj.n) for j in range(obj.n)
        )
        checked += 1
    # every connectivity-family member, graphs and digraphs, n = 3..16, one
    # stack per (family, n, k), all six kinds
    for family in (KnkpGraph, KnkpDigraph):
        for n in range(3, 17):
            for k in range(1, n - 1):
                members = [build(family(n, k, p)) for p in range(1, n - k)]
                for kind in ALL_KINDS:
                    expected = [_kind_by_entry(obj, kind.value) for obj in members]
                    assert build_matrices(members, kind).tolist() == expected


@pytest.mark.parametrize(
    "members, message",
    [
        ([build(Petersen()), Graph(10, [(0, 1)]), build(Petersen())], "graph is not connected"),
        (
            [build(DirectedCycle(4)), Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])],
            "digraph is not strongly connected",
        ),
    ],
)
def test_disconnected_member_of_a_stack_raises(members, message):
    for kind in ("D", "DL", "DQ"):
        with pytest.raises(DisconnectedInput) as err:
            build_matrices(members, kind)
        assert str(err.value) == message
    # the adjacency kinds need no distances
    assert build_matrices(members, "A").shape == (len(members), members[0].n, members[0].n)


def test_distance_laplacians_equal_entrywise_oracle():
    rng = random.Random(41)
    objs = [build(Petersen())]
    objs += [build(KnkpGraph(9, 3, p)) for p in range(1, 6)]
    objs += [build(KnkpDigraph(8, 2, p)) for p in range(1, 6)]
    while len(objs) < 40:
        if len(objs) % 2:
            obj = _random_graph(rng, rng.randint(1, 9))
            connected = is_connected(obj)
        else:
            obj = _random_digraph(rng, rng.randint(1, 7))
            connected = is_strongly_connected(obj)
        if connected:
            objs.append(obj)
    for obj in objs:
        for kind in ("DL", "DQ"):
            built = build_matrix(obj, kind)
            assert [list(row) for row in built.rows] == _kind_by_entry(obj, kind)
            assert all(type(x) is int for row in built.rows for x in row)


def test_transmissions_examples():
    assert transmissions(build(DirectedCycle(5))) == (10,) * 5
    assert transmissions(Graph(2, [(0, 1)])) == (1, 1)
    # two triangles sharing the hub: hub reaches everything within 1 or 2
    star = build(CliqueStar((3, 3)))
    assert transmissions(star) == (4, 6, 6, 6, 6)


def test_transmissions_disconnected():
    with pytest.raises(DisconnectedInput):
        transmissions(Graph(3, [(0, 1)]))


# ---------------------------------------------------------------------------
# matrix construction


def test_petersen_signless_laplacian():
    q = build_matrix(build(Petersen()), "Q")
    assert np.array_equal(q.to_numpy(), q.to_numpy().T)
    assert all(q[i, i] == 3 for i in range(10))
    assert spectral_radius(q) == pytest.approx(6.0, abs=1e-9)


def test_single_vertex_all_kinds_zero():
    g = Graph(1)
    for kind in ("A", "L", "Q", "D", "DL", "DQ"):
        assert build_matrix(g, kind) == ExactMatrix([[0]])


def test_knkp_digraph_distance_signless_block_display():
    fam = KnkpDigraph(5, 2, 1)
    assert build_matrix(build(fam), "DQ") == realize_block_matrix(
        adjacency_blockspec(fam, "DQ")
    )


def test_laplacian_kernel_contains_all_ones():
    rng = random.Random(23)
    ones = None
    for _ in range(20):
        g = _random_graph(rng, rng.randint(2, 8))
        if not is_connected(g):
            continue
        for kind in ("L", "DL"):
            m = build_matrix(g, kind).to_numpy()
            ones = np.ones(g.n)
            assert np.allclose(m @ ones, 0.0, atol=1e-12)


def test_laplacian_pairs_sum_to_diagonals():
    rng = random.Random(24)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(2, 7))
        if not is_connected(g):
            continue
        q_plus_l = build_matrix(g, "Q").to_numpy() + build_matrix(g, "L").to_numpy()
        assert np.array_equal(q_plus_l, np.diag(2.0 * np.array(g.degrees())))
        dq_plus_dl = build_matrix(g, "DQ").to_numpy() + build_matrix(g, "DL").to_numpy()
        assert np.array_equal(dq_plus_dl, np.diag(2.0 * np.array(transmissions(g))))


def test_distance_kind_requires_connectivity():
    with pytest.raises(DisconnectedInput):
        build_matrix(Graph(3, [(0, 1)]), "D")
    with pytest.raises(DisconnectedInput):
        build_matrix(Digraph(3, [(0, 1), (1, 2)]), "DQ")


# ---------------------------------------------------------------------------
# vertex connectivity


def test_vertex_connectivity_named_families():
    assert vertex_connectivity(build(BidirectedComplete(5))) == 4
    assert vertex_connectivity(Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])) == 3
    assert vertex_connectivity(build(DirectedCycle(6))) == 1
    assert vertex_connectivity(build(Petersen())) == 3


@pytest.mark.parametrize("n", [5, 6, 8])
def test_vertex_connectivity_knkp(n):
    for k in range(1, n - 1):
        for p in range(1, n - k):
            assert vertex_connectivity(build(KnkpGraph(n, k, p))) == k
            assert vertex_connectivity(build(KnkpDigraph(n, k, p))) == k


def test_vertex_connectivity_against_maxflow_oracle():
    rng = random.Random(25)
    checked = 0
    while checked < 40:
        obj = (
            _random_graph(rng, rng.randint(2, 7), 0.6)
            if rng.random() < 0.5
            else _random_digraph(rng, rng.randint(2, 6), 0.6)
        )
        connected = (
            is_connected(obj) if isinstance(obj, Graph) else is_strongly_connected(obj)
        )
        if not connected:
            continue
        assert vertex_connectivity(obj) == vertex_connectivity_maxflow(obj)
        checked += 1
    # C_12 minus one vertex is an 11-vertex path: its 10 steps take four
    # squarings of A + I, not three; then the families the CLI benchmark
    # analyzes
    cycle = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
    analyzed = [build(parse_family(text)) for text in _ANALYZED_FAMILIES]
    for obj in [cycle, *analyzed]:
        assert vertex_connectivity(obj) == vertex_connectivity_maxflow(obj)
    assert vertex_connectivity(cycle) == 2


def test_vertex_connectivity_cut_budget():
    # K_n minus a perfect matching has vertex connectivity n - 2; on 18
    # vertices every cut fits in the budget, on 20 the count reaches it
    # partway through the cuts of 8 vertices
    def minus_matching(n):
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // 2 != v // 2])

    assert CUT_BUDGET == 1 << 18
    assert vertex_connectivity(minus_matching(18)) == 16
    with pytest.raises(BudgetExceeded, match="on 20 vertices .* cuts of up to 8 vertices"):
        vertex_connectivity(minus_matching(20))
    # the budget counts the cuts tried: C_26(1, 2, 3) has vertex
    # connectivity 6, and its cuts of up to 5 vertices (83,681) and all
    # C(26, 6) = 230,230 of size 6 add up to more than the budget, but with
    # the cycle's vertex 0 labeled 6 and its six neighbours labeled 0-5,
    # the very first 6-cut, {0, ..., 5}, isolates vertex 6
    n = 26
    label = {0: 6, **{pos: i for i, pos in enumerate([1, 2, 3, n - 1, n - 2, n - 3])}}
    rest = iter(range(7, n))
    label.update((pos, next(rest)) for pos in range(n) if pos not in label)
    circulant = Graph(n, [(label[i], label[(i + d) % n]) for i in range(n) for d in (1, 2, 3)])
    assert vertex_connectivity(circulant) == 6
    # complete inputs need no cut search at any order
    assert vertex_connectivity(Graph(40, [(u, v) for u in range(40) for v in range(u)])) == 39


def test_vertex_connectivity_disconnected_raises():
    with pytest.raises(DisconnectedInput):
        vertex_connectivity(Graph(3, [(0, 1)]))


# ---------------------------------------------------------------------------
# join


def test_join_singletons():
    assert join(Graph(1), Graph(1)) == Graph(2, [(0, 1)])
    two = join(Digraph(1), Digraph(1))
    assert two == Digraph(2, [(0, 1), (1, 0)])


def test_join_matches_the_pair_definition():
    rng = random.Random(49)
    for _ in range(30):
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        a, b = _random_graph(rng, na), _random_graph(rng, nb)
        cross = {(u, na + v) for u in range(na) for v in range(nb)}
        shifted = {(u + na, v + na) for u, v in b.edges}
        assert join(a, b) == Graph(na + nb, a.edges | shifted | cross)
        a, b = _random_digraph(rng, na), _random_digraph(rng, nb)
        shifted = {(u + na, v + na) for u, v in b.arcs}
        both_ways = cross | {(v, u) for u, v in cross}
        assert join(a, b) == Digraph(na + nb, a.arcs | shifted | both_ways)
    with pytest.raises(TypeError):
        join(Graph(2), Digraph(2))


def test_join_builds_connectivity_family_up_to_isomorphism():
    n, k, p = 6, 2, 2
    q = n - p - k

    def clique_edges(m, off=0):
        return [(i + off, j + off) for i in range(m) for j in range(i + 1, m)]

    k_part = Graph(k, clique_edges(k))
    rest = Graph(p + q, clique_edges(p) + clique_edges(q, off=p))
    joined = join(k_part, rest)
    assert is_isomorphic(joined, build(KnkpGraph(n, k, p)))


def test_proper_subdigraph_monotonicity():
    # proper spanning strongly connected subdigraphs: strict monotonicity of
    # the four objectives in the expected directions
    rng = random.Random(26)
    done = 0
    while done < 25:
        n = rng.randint(3, 6)
        g = _random_digraph(rng, n, 0.8)
        if not is_strongly_connected(g):
            continue
        arcs = list(g.arcs)
        rng.shuffle(arcs)
        sub = None
        for arc in arcs:
            candidate = Digraph(n, set(g.arcs) - {arc})
            if is_strongly_connected(candidate):
                sub = candidate
                break
        if sub is None:
            continue
        for kind, direction in (("A", 1), ("Q", 1), ("D", -1), ("DQ", -1)):
            lo = spectral_radius(build_matrix(sub, kind))
            hi = spectral_radius(build_matrix(g, kind))
            assert direction * (hi - lo) > 0, (kind, sub, g)
        done += 1


# ---------------------------------------------------------------------------
# text format


def test_graph_file_round_trip():
    for spec in (Petersen(), DirectedCycle(5), KnkpDigraph(6, 2, 1), CompleteMultipartite((2, 3))):
        obj = build(spec)
        assert parse_graph_file(format_graph_file(obj)) == obj


def test_graph_file_comments_and_blanks():
    text = "# a comment\n\ngraph 3\n0 1  # inline\n1 2\n"
    assert parse_graph_file(text) == Graph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("graph 3\n0 1\n0 1\n", "line 3: duplicate edge"),
        ("graph 3\n1 1\n", "line 2: loop"),
        ("graph 3\n0 5\n", "line 2: endpoint out of range"),
        ("digraph 2\n0 2\n", "line 2: endpoint out of range"),
        ("graph 0\n", "line 1: vertex count must be at least 1"),
        ("digraph 2\n0 1\n1 0\n0 1\n", "line 4: duplicate arc"),
        ("squiggle 3\n", "line 1"),
        ("graph x\n", "line 1"),
        ("", "missing"),
    ],
)
def test_graph_file_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph_file(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Graph(0), "graph needs at least one vertex"),
        (lambda: Digraph(0, []), "digraph needs at least one vertex"),
        (lambda: Graph(3, [(1, 1)]), "loop at vertex 1"),
        (lambda: Digraph(3, [(0, 1), (2, 2)]), "loop at vertex 2"),
        (lambda: Graph(3, [(0, 3)]), "edge (0, 3) out of range for n=3"),
        (lambda: Digraph(2, [(-1, 1)]), "arc (-1, 1) out of range for n=2"),
        (lambda: Graph(3, [(0.0, 1.0)]), "edge (0.0, 1.0) is not a pair of integers"),
        (lambda: Graph(3, [(0, 1.5)]), "edge (0, 1.5) is not a pair of integers"),
        (lambda: Graph(3, [("0", "1")]), "edge ('0', '1') is not a pair of integers"),
        (lambda: Graph(3, [(0, 1, 2)]), "edge (0, 1, 2) is not a pair of integers"),
        (lambda: Digraph(3, [0]), "arc 0 is not a pair of integers"),
        (lambda: Graph(2.5), "graph vertex count must be an integer, got 2.5"),
        (lambda: Digraph("3"), "digraph vertex count must be an integer, got '3'"),
    ],
)
def test_graph_construction_errors_are_typed(make, message):
    with pytest.raises(InvalidParameters) as err:
        make()
    assert str(err.value) == message


def test_graph_construction_takes_numpy_ints_and_bools():
    assert Graph(np.int64(3), [(np.uint8(0), True)]) == Graph(3, [(0, 1)])
    assert Digraph(np.int32(2), [(np.int64(1), False)]) == Digraph(2, [(1, 0)])


def test_digraph_reverse_arcs_are_distinct():
    dg = parse_graph_file("digraph 2\n0 1\n1 0\n")
    assert dg.arcs == frozenset({(0, 1), (1, 0)})


# ---------------------------------------------------------------------------
# storage: the adjacency matrix


def test_equality_and_hash_ignore_pair_order_and_duplicates():
    a = Graph(4, [(0, 1), (2, 3), (1, 2)])
    b = Graph(4, [(3, 2), (1, 2), (1, 0), (0, 1)])
    assert a == b and hash(a) == hash(b)
    c = Digraph(3, [(0, 1), (1, 2)])
    d = Digraph(3, [(1, 2), (0, 1), (1, 2)])
    assert c == d and hash(c) == hash(d)
    assert c != Digraph(3, [(1, 0), (1, 2)]) and a != Graph(5, a.edges)
    assert len({a, b, c, d}) == 2


def test_graph_and_digraph_on_the_same_pairs_are_unequal():
    pairs = [(0, 1), (1, 0), (1, 2), (2, 1)]
    g, dg = Graph(3, pairs), Digraph(3, pairs)
    assert np.array_equal(g.adjacency, dg.adjacency)
    assert g != dg and dg != g
    assert Graph(1) != Digraph(1)


def test_stored_matrix_is_read_only():
    objs = [
        Graph(3, [(0, 1)]),
        Digraph(3, [(0, 1)]),
        build(KnkpDigraph(6, 2, 1)),
        build(DirectedCycle(4)),
        join(Graph(1), Graph(2)),
        parse_graph_file("digraph 2\n0 1\n"),
    ]
    for obj in objs:
        assert obj.adjacency.dtype == np.uint8 and obj.adjacency.shape == (obj.n, obj.n)
        with pytest.raises(ValueError):
            obj.adjacency[0, 1] = 0
        with pytest.raises(ValueError):
            obj.adjacency.fill(1)


def test_pairs_round_trip_through_the_constructor():
    rng = random.Random(50)
    for _ in range(60):
        n = rng.randint(1, 8)
        g, dg = _random_graph(rng, n), _random_digraph(rng, n)
        assert Graph(n, g.edges) == g and Graph(n, g.edges).edges == g.edges
        assert Digraph(n, dg.arcs) == dg and Digraph(n, dg.arcs).arcs == dg.arcs
        assert all(u < v for u, v in g.edges)
        for pairs in (g.edges, dg.arcs):
            assert all(type(x) is int for pair in pairs for x in pair)
        assert g.degrees() == tuple(sum(v in e for e in g.edges) for v in range(n))
        assert dg.out_sets() == [{v for u, v in dg.arcs if u == w} for w in range(n)]
    assert repr(Graph(3, [(2, 1), (0, 1)])) == "Graph(n=3, edges=[(0, 1), (1, 2)])"
    assert repr(Digraph(2, [(1, 0)])) == "Digraph(n=2, arcs=[(1, 0)])"
