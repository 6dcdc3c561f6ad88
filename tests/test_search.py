"""Enumeration, extremal scans, the completion embedding, and probes."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from oracles import (
    adjacency_mask,
    conjecture_campaign,
    connected_union_find,
    family_by_definition,
    is_equitable_blockwise,
    labeled_scan,
    labeled_scan_table,
    probe_gaps,
    random_blockspec,
    realize_blockwise,
    relabeled_masks,
    strong_components,
    strongly_connected_warshall,
    vertex_connectivity_maxflow,
)

from eqspec import quotient, search

from eqspec.errors import BudgetExceeded
from eqspec.families import (
    BidirectedComplete,
    DirectedCycle,
    KnkpDigraph,
    KnkpGraph,
    build,
)
from eqspec.graphs import (
    Digraph,
    Graph,
    _cut_reach,
    build_matrix,
    distances,
    is_strongly_connected,
    vertex_connectivities,
    vertex_connectivity,
)
from eqspec.linalg import spectral_radius
from eqspec.quotient import BlockSpec, _as_spec, _segment_trials, realize_block_matrix
from eqspec.search import (
    OBJECTIVES,
    PROBE_ORDER_BUDGET,
    ScanJob,
    _orbits,
    _probe_chunks,
    bound_scan,
    conjecture_search,
    extremal_scan,
    graph_from_mask,
    is_isomorphic,
    labeled_isomorph_masks,
    mask_from_graph,
    pair_table,
    theorem_scan,
)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        labeled_isomorph_masks(Graph(8, [(0, 1)]))


def test_batched_kappa_matches_per_graph_computation():
    import numpy as np

    from eqspec.graphs import _connected, vertex_connectivities
    from eqspec.search import _adjacency_batch

    rng = random.Random(44)
    for directed in (False, True):
        n = 5
        pairs = pair_table(n, directed)
        masks = np.array(
            sorted(rng.sample(range(1 << len(pairs)), 300)), dtype=np.int64
        )
        adj = _adjacency_batch(masks, n, pairs, directed)
        connected = _connected(adj)
        kappa = vertex_connectivities(adj, connected)
        for mask, conn, kap in zip(masks, connected, kappa):
            obj = graph_from_mask(n, int(mask), directed)
            alive = strongly_connected_warshall(obj) if directed else connected_union_find(obj)
            assert conn == alive
            if alive:
                assert kap == vertex_connectivity_maxflow(obj)
            else:
                assert kap == -1


def test_mask_round_trip():
    rng = random.Random(41)
    for directed in (False, True):
        n = 5
        pairs = pair_table(n, directed)
        for _ in range(20):
            mask = rng.randrange(1 << len(pairs))
            assert mask_from_graph(graph_from_mask(n, mask, directed)) == mask


# ---------------------------------------------------------------------------
# isomorphism orbits

# OEIS A000088 (graphs) and A000273 (digraphs) for n = 2, 3, ...
_UNLABELED_COUNTS = {False: (2, 4, 11, 34, 156, 1044), True: (3, 16, 218, 9608)}


@pytest.mark.parametrize("directed", [False, True])
def test_orbit_counts_match_oeis(directed):
    for n, expected in enumerate(_UNLABELED_COUNTS[directed], start=2):
        reps, sizes = _orbits(n, directed)
        assert len(reps) == expected
        assert int(sizes.sum()) == 1 << len(pair_table(n, directed))
        assert all(math.factorial(n) % int(size) == 0 for size in sizes)


@pytest.mark.parametrize("n, directed", [(5, False), (3, True)])
def test_orbits_partition_masks_into_isomorphism_classes(n, directed):
    reps, sizes = _orbits(n, directed)
    covered = set()
    for rep, size in zip(reps.tolist(), sizes.tolist()):
        orbit = relabeled_masks(n, rep, directed)
        assert min(orbit) == rep
        assert len(orbit) == size
        assert not covered & orbit
        covered |= orbit
    assert covered == set(range(1 << len(pair_table(n, directed))))


@pytest.mark.parametrize(
    "n, directed", [(n, False) for n in range(2, 6)] + [(n, True) for n in range(2, 5)]
)
def test_orbit_scan_matches_labeled_brute_force(n, directed):
    table = labeled_scan_table(n, directed)
    for k in (None, *range(1, n - 1)):
        for objective in OBJECTIVES:
            for mode in ("max", "min"):
                value, optimizers, examined = labeled_scan(table, k, objective, mode)
                cert = extremal_scan(
                    ScanJob(n=n, k=k, directed=directed, objective=objective, mode=mode)
                )
                assert cert.optimizers == optimizers
                assert cert.examined == examined
                assert cert.value == pytest.approx(value, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "n, directed", [(n, False) for n in range(3, 7)] + [(n, True) for n in range(3, 6)]
)
def test_theorem_scan_matches_single_target_scans(n, directed):
    certificates = theorem_scan(n, directed)
    assert sorted(certificates) == list(range(1, n - 1))
    for k, by_objective in certificates.items():
        assert sorted(by_objective) == sorted(OBJECTIVES)
        for objective, cert in by_objective.items():
            single = extremal_scan(ScanJob(n, k, directed, objective, cert.mode))
            assert cert.to_json() == single.to_json()


@pytest.mark.parametrize("n", range(2, 6))
def test_bound_scan_matches_single_target_scans(n):
    certificates = bound_scan(n)
    assert sorted(certificates) == sorted(
        (objective, mode) for objective in OBJECTIVES for mode in ("max", "min")
    )
    for (objective, mode), cert in certificates.items():
        single = extremal_scan(ScanJob(n, None, True, objective, mode))
        assert cert.to_json() == single.to_json()


def _record_first_arguments(monkeypatch, name):
    """Wrap search.<name> so each call's first argument is kept."""
    calls = []
    real = getattr(search, name)

    def spy(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(search, name, spy)
    return calls


def test_scan_solves_and_measures_only_the_orbits_of_its_class(monkeypatch):
    n, directed = 5, True
    reps, _ = _orbits(n, directed)
    adj = search._adjacency_batch(reps, n, pair_table(n, directed), directed)
    kappa = vertex_connectivities(adj, distances(adj)[1].all(axis=(1, 2)))
    in_class = adj[kappa == 2]
    assert len(in_class) == 578

    solved = _record_first_arguments(monkeypatch, "_objective_batch")
    measured = _record_first_arguments(monkeypatch, "distances")
    extremal_scan(ScanJob(n, 2, directed, "rho", "max"))
    assert np.array_equal(solved[0], in_class)
    assert measured == []

    solved.clear()
    extremal_scan(ScanJob(n, 2, directed, "rhoD", "min"))
    assert np.array_equal(solved[0], in_class)
    assert np.array_equal(measured[0], in_class)
    for stack in measured:
        assert (vertex_connectivities(stack, np.ones(len(stack), dtype=bool)) == 2).all()


# ---------------------------------------------------------------------------
# extremal scans


def test_scan_directed_distance_min_n4():
    cert = extremal_scan(ScanJob(n=4, k=1, directed=True, objective="rhoD", mode="min"))
    fam1 = labeled_isomorph_masks(build(KnkpDigraph(4, 1, 1)))
    fam2 = labeled_isomorph_masks(build(KnkpDigraph(4, 1, 2)))
    assert set(cert.optimizers) == set(fam1 | fam2)
    assert "other" not in cert.classification.values()


def test_scan_directed_q_max_single_family():
    cert = extremal_scan(ScanJob(n=4, k=1, directed=True, objective="q", mode="max"))
    assert set(cert.optimizers) == set(labeled_isomorph_masks(build(KnkpDigraph(4, 1, 2))))


def test_scan_undirected_matches_bound():
    from eqspec.theorems import graph_bound

    cert = extremal_scan(ScanJob(n=5, k=2, directed=False, objective="rho", mode="max"))
    assert cert.value == pytest.approx(graph_bound(5, 2, "A").value, abs=1e-9)
    target = labeled_isomorph_masks(build(KnkpGraph(5, 2, 1)))
    assert set(cert.optimizers) == set(target)


def test_scan_job_takes_no_shards_or_seed():
    for name in ("shards", "seed"):
        with pytest.raises(TypeError, match=name):
            ScanJob(n=4, k=2, directed=False, objective="qD", mode="min", **{name: 1})


def test_theorem_scan_small_undirected():
    res = theorem_scan(5, False)
    for k in (1, 2, 3):
        for obj in ("rho", "q", "rhoD", "qD"):
            cert = res[k][obj]
            labels = set(cert.classification.values())
            assert labels and all(f"knkp-g:5,{k},1" in label for label in labels)


@pytest.mark.parametrize("n, directed", [(6, False), (7, False), (5, True)])
def test_scan_labels_whole_orbits_at_the_enumeration_budget(n, directed):
    family = KnkpDigraph if directed else KnkpGraph
    name = "knkp-d" if directed else "knkp-g"
    orbit_of = {}

    def orbit(mask):
        if mask not in orbit_of:
            images = frozenset(relabeled_masks(n, mask, directed))
            orbit_of.update(dict.fromkeys(images, images))
        return orbit_of[mask]

    for k, by_objective in theorem_scan(n, directed).items():
        members = {
            f"{name}:{n},{k},{p}": orbit(adjacency_mask(family_by_definition(family(n, k, p))))
            for p in sorted({1, n - k - 1})
        }
        for cert in by_objective.values():
            optimizers = set(cert.optimizers)
            assert list(cert.optimizers) == sorted(optimizers)
            assert list(cert.classification) == [str(mask) for mask in cert.optimizers]
            for mask in cert.optimizers:
                assert orbit(mask) <= optimizers
                names = [member for member, masks in members.items() if mask in masks]
                assert cert.classification[str(mask)] == (" & ".join(names) or "other")


def test_scan_certificate_note_mentions_scope():
    cert = extremal_scan(ScanJob(n=4, k=1, directed=True, objective="rho", mode="max"))
    assert "verified only at this n" in cert.note


# ---------------------------------------------------------------------------
# completion embedding


def test_strong_components_match_the_dfs_oracle():
    # the classes of R & R^T, with R the reachability of a digraph minus a
    # cut, for every 4-vertex digraph at once and every cut of 0..2 vertices
    import numpy as np

    from eqspec.search import _adjacency_batch

    n = 4
    pairs = pair_table(n, True)
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    adj = _adjacency_batch(masks, n, pairs, True)
    out_sets = [graph_from_mask(n, int(mask), True).out_sets() for mask in masks]
    for size in range(3):
        cuts = iter(combinations(range(n), size))
        for keep, reach in _cut_reach(adj, size):
            for j, kept in enumerate(keep.tolist()):
                assert set(next(cuts)).isdisjoint(kept)
                strong = reach[:, j] & reach[:, j].transpose(0, 2, 1)
                for graph, classes in zip(out_sets, strong):
                    mine = {frozenset(keep[j, row].tolist()) for row in classes}
                    expected = strong_components(kept, graph)
                    assert mine == set(map(frozenset, expected))
        assert next(cuts, None) is None


@dataclass(frozen=True)
class DominationEmbedding:
    """Witness that the input spans a connectivity-family host digraph.

    witness[v] is the new index of original vertex v; under this relabeling
    every arc of the input is an arc of the host.
    """

    p: int
    host: Digraph
    witness: tuple[int, ...]


def dominate_with_extremal(dg: Digraph) -> DominationEmbedding:
    """Embed a strongly connected digraph into its extremal completion, the
    paper's domination step.

    Finds a minimum vertex cut S, takes the strong component of dg - S with
    no in-arcs from the rest (one exists), and relabels so that component,
    S, and the remainder become the three canonical cells. The host is the
    connectivity family member on the same n and k; the input is a spanning
    subdigraph of the host under the witness relabeling, so its spectral
    objectives are dominated by the host's.
    """
    n = dg.n
    if not is_strongly_connected(dg):
        raise ValueError("dominate_with_extremal requires strong connectivity")
    k = vertex_connectivity(dg)
    if k == n - 1:
        raise ValueError("complete digraph has no vertex cut of size at most n-2")
    # the first cut of k vertices, in lexicographic order, that breaks strong
    # connectivity, with R, the reachability of dg minus that cut
    for keep, reach in _cut_reach(dg.adjacency[None], k):
        broken = np.flatnonzero(~reach[0].all(axis=(1, 2)))
        if broken.size:
            keep, reach = keep[broken[0]], reach[0, broken[0]]
            break
    else:  # pragma: no cover - contradicts vertex_connectivity
        raise AssertionError("no vertex cut found")
    # the strong components are the classes of R & R^T; v's has no in-arcs
    # from the rest of dg minus the cut when each vertex reaching v is
    # reached from v, and G1 is the one holding the smallest such v
    source = np.flatnonzero((reach <= reach.T).all(axis=0))[0]
    g1 = set(keep[reach[source] & reach[:, source]].tolist())
    rest = set(keep.tolist())
    cut = set(range(n)) - rest
    p = len(g1)
    order = sorted(g1) + sorted(cut) + sorted(rest - g1)
    witness = [0] * n
    for pos, v in enumerate(order):
        witness[v] = pos
    host = build(KnkpDigraph(n, k, p))
    # relabeled, the input's vertex order[pos] is pos: every arc must be the host's
    relabeled = dg.adjacency[np.ix_(order, order)]
    if (relabeled > host.adjacency).any():  # pragma: no cover - ordering theorem
        raise AssertionError("embedding failed: input is not spanned by the host")
    return DominationEmbedding(p=p, host=host, witness=tuple(witness))


def test_dominate_fixed_point():
    for n, k, p in ((5, 2, 1), (6, 2, 3), (7, 1, 3)):
        fam = build(KnkpDigraph(n, k, p))
        emb = dominate_with_extremal(fam)
        assert emb.p == p
        assert emb.host == build(KnkpDigraph(n, k, p))
        relabeled = Digraph(n, {(emb.witness[u], emb.witness[v]) for u, v in fam.arcs})
        assert relabeled == emb.host


def test_dominate_directed_cycle():
    c4 = build(DirectedCycle(4))
    emb = dominate_with_extremal(c4)
    assert 1 <= emb.p <= 2
    assert spectral_radius(build_matrix(c4, "A")) <= spectral_radius(
        build_matrix(emb.host, "A")
    ) + 1e-9


def test_dominate_rejects_bad_inputs():
    with pytest.raises(ValueError, match="strong connectivity"):
        dominate_with_extremal(Digraph(3, [(0, 1), (1, 2)]))
    with pytest.raises(ValueError, match="complete digraph"):
        dominate_with_extremal(build(BidirectedComplete(4)))


def test_dominate_randomized_monotonicity():
    rng = random.Random(42)
    done = 0
    while done < 50:
        n = rng.randint(3, 7)
        arcs = {
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.45
        }
        arcs |= {(i, (i + 1) % n) for i in range(n)}  # keep it strongly connected
        dg = Digraph(n, arcs)
        if dg.is_complete():
            continue
        emb = dominate_with_extremal(dg)
        # witness: the input is a spanning subdigraph of the host
        relabeled = {(emb.witness[u], emb.witness[v]) for u, v in dg.arcs}
        assert relabeled <= emb.host.arcs
        assert emb.host == build(KnkpDigraph(n, vertex_connectivity(dg), emb.p))
        for kind, direction in (("A", 1), ("Q", 1), ("D", -1), ("DQ", -1)):
            mine = spectral_radius(build_matrix(dg, kind))
            host = spectral_radius(build_matrix(emb.host, kind))
            assert direction * (host - mine) >= -1e-9, kind
        done += 1


# ---------------------------------------------------------------------------
# conjecture probes


def test_conjecture_search_deterministic_and_empty():
    a = conjecture_search(300, seed=5)
    b = conjecture_search(300, seed=5)
    assert not a.found and not b.found
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("trials, seed", [(2000, 7), (2000, 11), (10_000, 5)])
def test_conjecture_search_equals_per_trial_campaign(trials, seed):
    payload = conjecture_search(trials, seed=seed).to_json()
    assert payload == conjecture_campaign(trials, seed)
    # seed 5 meets its known tolerance failure at trial 7348
    assert payload["counterexample_found"] == (seed == 5)
    assert payload["trials"] == (7348 if seed == 5 else trials)


def _segment_orders(trials, seed):
    """The matrix orders of every segment a default-range campaign draws (a
    trial draws its order before any coefficient)."""
    segments = _probe_chunks(trials, seed, (2, 20), (1, 4), (0, 40))
    return [[sum(sizes) for sizes, _ in _segment_trials(segment)] for segment in segments]


def _segment_edges(trials, seed):
    """(first, last) trial index of every segment the campaign draws."""
    edges, start = [], 0
    for orders in _segment_orders(trials, seed):
        edges.append((start, start + len(orders) - 1))
        start += len(orders)
    return edges


def _tol_failing_at(gaps, index):
    """A tol >= 0 under which trial ``index`` (0-based) is the first to fail."""
    before = max(gaps[:index], default=0.0)
    assert gaps[index] > before, "not the first trial past any tol"
    return (before + gaps[index]) / 2


def _records(gaps):
    """The trials that are the first to fail under some tol."""
    return [i for i in range(len(gaps)) if gaps[i] > max(gaps[:i], default=0.0)]


_TRIALS = 300
_SEGMENT = 2000  # matrix entries: about a dozen trials a segment


def test_conjecture_search_fails_at_trial_one_like_the_oracle():
    tol = _tol_failing_at(probe_gaps(1, 7), 0)
    payload = conjecture_search(_TRIALS, seed=7, tol=tol).to_json()
    assert payload["trials"] == 1
    assert payload == conjecture_campaign(_TRIALS, 7, tol=tol)


def test_conjecture_search_fails_inside_a_later_chunk_like_the_oracle(monkeypatch):
    monkeypatch.setattr(search, "_PROBE_SEGMENT", _SEGMENT)
    gaps = probe_gaps(_TRIALS, 7)
    edges = _segment_edges(_TRIALS, 7)
    inside = [i for i in _records(gaps) if any(a < i < b for a, b in edges[1:])]
    tol = _tol_failing_at(gaps, inside[-1])
    payload = conjecture_search(_TRIALS, seed=7, tol=tol).to_json()
    assert payload["trials"] == inside[-1] + 1
    assert payload == conjecture_campaign(_TRIALS, 7, tol=tol)


@pytest.mark.parametrize("edge", ["first", "last"])
def test_conjecture_search_fails_on_a_chunk_edge_like_the_oracle(monkeypatch, edge):
    gaps = probe_gaps(_TRIALS, 7)
    index = [i for i in _records(gaps) if i > 20][0]
    # size the segment so that the failing trial opens or closes the first
    orders = [n for segment in _segment_orders(index + 1, 7) for n in segment]
    bound = sum(n * n for n in orders[: index if edge == "first" else index + 1])
    monkeypatch.setattr(search, "_PROBE_SEGMENT", bound)
    first, last = _segment_edges(_TRIALS, 7)[1 if edge == "first" else 0]
    assert index == (first if edge == "first" else last)
    tol = _tol_failing_at(gaps, index)
    payload = conjecture_search(_TRIALS, seed=7, tol=tol).to_json()
    assert payload["trials"] == index + 1
    assert payload == conjecture_campaign(_TRIALS, 7, tol=tol)


_GROUPINGS = [
    ("_PROBE_WINDOW", 1),  # one matrix a stack
    ("_PROBE_WINDOW", 1 << 30),  # one stack per order and segment
    ("_PROBE_SEGMENT", 1),  # one trial a segment
    ("_PROBE_SEGMENT", 1 << 30),  # the whole campaign one segment
]


def _probe_outputs():
    """Seed 5's known failure at trial 7348, a clean seed-7 run, and
    ``lem3.4.random``'s max_deviation bits at a passing and a failing seed."""
    from eqspec.theorems import verify_claim

    runs = ((10_000, 5), (3000, 7))
    conjectures = [conjecture_search(trials, seed=seed).to_json() for trials, seed in runs]
    deviations = [
        verify_claim("lem3.4.random", {"trials": 1000, "seed": seed}).max_deviation.hex()
        for seed in (0, 10)
    ]
    return conjectures, deviations


@pytest.fixture(scope="module")
def default_probe_outputs():
    return _probe_outputs()


@pytest.mark.parametrize("name, bound", _GROUPINGS)
def test_probe_grouping_never_moves_a_bit(monkeypatch, default_probe_outputs, name, bound):
    monkeypatch.setattr(quotient if name == "_PROBE_WINDOW" else search, name, bound)
    assert _probe_outputs() == default_probe_outputs


def _oracle_trial(rng, n_range, t_range, coeff_range):
    """The oracle's random BlockSpec, as (sizes, coefficients) lists."""
    spec = random_blockspec(rng, n_range, t_range, lambda r: r.randint(*coeff_range))
    return list(spec.sizes), [*spec.l, *spec.p, *(x for row in spec.s for x in row)]


@pytest.mark.parametrize(
    "n_range, t_range, coeff_range",
    [
        ((2, 20), (1, 4), (0, 40)),  # conjecture
        ((1, 20), (1, 4), (-5, 5)),  # lem3.4.random
        ((1, 6), (1, 3), (7, 7)),  # span 1: randint(7, 7) still takes a bit
        ((2, 9), (1, 4), (0, 31)),  # a power-of-two span: no redraws
        ((1, 12), (1, 1), (0, 40)),  # one block: randrange(1) per extra row
        ((1, 2), (3, 5), (-5, 5)),  # n_max below every t: n is raised to t
    ],
)
def test_random_trial_draws_what_the_random_api_draws(n_range, t_range, coeff_range):
    for i in range(2000):
        drawn = search._random_trial(random.Random(f"9:{i}"), n_range, t_range, coeff_range)
        assert drawn == _oracle_trial(random.Random(f"9:{i}"), n_range, t_range, coeff_range)


@pytest.mark.parametrize("n_range, trials", [((2, 20), 3000), ((2, PROBE_ORDER_BUDGET), 8)])
def test_probe_chunks_stay_within_the_entry_budget(monkeypatch, n_range, trials):
    # a bound that the entries and the coefficients of these trials both pass
    monkeypatch.setattr(search, "_PROBE_SEGMENT", 1 << 16)
    segments = list(_probe_chunks(trials, 3, n_range, (1, 4), (0, 40)))
    assert len(segments) > 1
    for blocks, sizes, coeffs in segments:
        # only a trial past a bound goes past it, alone
        orders = [sum(trial) for trial, _ in _segment_trials((blocks, sizes, coeffs))]
        entries = sum(n * n for n in orders)
        assert entries <= search._PROBE_SEGMENT or len(blocks) == 1
        assert len(coeffs) <= search._PROBE_SEGMENT >> 3 or len(blocks) == 1
    # segmenting draws each trial from its own substream, in order
    drawn = [trial for segment in segments for trial in _segment_trials(segment)]
    assert drawn == [
        _oracle_trial(random.Random(f"3:{i}"), n_range, (1, 4), (0, 40)) for i in range(trials)
    ]


@pytest.mark.parametrize(
    "trials, n_range, t_range, coeff_range, den",
    [
        (300, (2, 20), (1, 4), (0, 40), 4),
        (30, (2, 60), (1, 60), (0, 40), 4),
        (300, (1, 20), (1, 4), (-5, 5), 1),
        (30, (1, 60), (1, 60), (-5, 5), 1),
    ],
)
def test_probe_trials_realize_equitable_block_matrices(trials, n_range, t_range, coeff_range, den):
    # the premise of the closed-form probe quotients: every drawn matrix is
    # equitable under its natural partition, and conjecture's nonnegative
    checked = 0
    for segment in _probe_chunks(trials, 4, n_range, t_range, coeff_range):
        for j in range(len(segment[0])):
            spec = _as_spec(segment, j, den)
            m = realize_blockwise(spec)
            assert is_equitable_blockwise(m, spec.partition())
            assert (m >= 0).all() or coeff_range != (0, 40)
            checked += 1
    assert checked == trials


def test_probe_chunks_hold_plain_ints_only():
    segment = next(_probe_chunks(3000, 3, (2, 20), (1, 4), (0, 40)))
    blocks, sizes, coeffs = segment
    assert len(blocks) > 100
    # flat arrays of small ints, no Python object per trial
    assert [part.dtype for part in segment] == [np.int16, np.int16, np.int8]
    assert all(part.ndim == 1 for part in segment)
    assert len(sizes) == blocks.sum() and len(coeffs) == (blocks * (blocks + 2)).sum()
    for trial in _segment_trials(segment):
        assert type(trial) is tuple and len(trial) == 2
        for part in trial:
            assert type(part) is list and all(type(x) is int for x in part)


@pytest.mark.parametrize("window, segment", [(None, None), (1 << 13, 1 << 16)])
def test_probe_stacks_and_segments_stay_bounded_at_large_orders(monkeypatch, window, segment):
    bounds = ((quotient, "_PROBE_WINDOW", window), (search, "_PROBE_SEGMENT", segment))
    for module, name, bound in bounds:
        if bound is not None:
            monkeypatch.setattr(module, name, bound)
    stacks, segments = [], []
    realize, draw = quotient._realize_stacks, search._probe_chunks

    def spied_realize(*args):
        for members, a, b in realize(*args):
            # segments are drawn lazily: the last one drawn is being realized
            stacks.append((len(segments) - 1, members.tolist(), a.size))
            yield members, a, b

    def spied_draw(*args):
        for drawn in draw(*args):
            segments.append(drawn)
            yield drawn

    monkeypatch.setattr(quotient, "_realize_stacks", spied_realize)
    monkeypatch.setattr(search, "_probe_chunks", spied_draw)
    n_range, t_range, trials = (2, 120), (1, 60), 16
    payload = conjecture_search(trials, n_range, t_range, seed=2).to_json()
    assert payload == conjecture_campaign(trials, 2, n_range, t_range)
    assert len(segments) > 1 or segment is None
    for _, members, entries in stacks:
        assert entries <= quotient._PROBE_WINDOW or len(members) == 1
    for blocks, _, coeffs in segments:
        assert len(coeffs) <= search._PROBE_SEGMENT >> 3 or len(blocks) == 1
    # every trial is realized once
    starts = np.cumsum([0] + [len(blocks) for blocks, _, _ in segments])
    realized = sorted(starts[i] + j for i, members, _ in stacks for j in members)
    assert realized == list(range(trials))


def _count_blockspecs(monkeypatch):
    """A list that gains an entry for every BlockSpec built from now on."""
    built = []
    init = BlockSpec.__post_init__

    def counted(spec):
        built.append(spec)
        init(spec)

    monkeypatch.setattr(BlockSpec, "__post_init__", counted)
    return built


def test_conjecture_search_builds_a_blockspec_only_for_the_counterexample(monkeypatch):
    gaps = probe_gaps(_TRIALS, 7)
    built = _count_blockspecs(monkeypatch)
    assert not conjecture_search(_TRIALS, seed=7).found
    assert built == []
    result = conjecture_search(_TRIALS, seed=7, tol=_tol_failing_at(gaps, _records(gaps)[-1]))
    assert built == [result.counterexample]


def test_block_spectrum_random_builds_no_blockspec(monkeypatch):
    from eqspec.theorems import verify_claim

    built = _count_blockspecs(monkeypatch)
    verify_claim("lem3.4.random", {"trials": 300, "seed": 7})
    assert built == []


def test_conjecture_result_serializes_counterexample_payload():
    from eqspec.quotient import ProbeReport
    from eqspec.search import ConjectureSearchResult

    spec = BlockSpec(sizes=(2,), l=(1,), p=(0,), s=((0,),))
    result = ConjectureSearchResult(
        trials=7, seed=1, counterexample=spec, report=ProbeReport(False, 1.0, 2.0)
    )
    payload = result.to_json()
    assert payload["counterexample_found"] is True
    assert payload["counterexample"]["sizes"] == [2]
    assert payload["rho_B"] == 1.0 and payload["rho_M"] == 2.0


def test_probe_block_diagonal_spec_holds():
    from eqspec.quotient import conjecture_probe

    spec = BlockSpec(
        sizes=(3, 2),
        l=(2, 5),
        p=(1, 0),
        s=((0, 0), (0, 0)),
    )
    report = conjecture_probe(realize_block_matrix(spec).to_numpy(), spec.partition())
    assert report.holds
    # block-diagonal: the radius is the larger block row sum
    assert report.rho_M == pytest.approx(max(2 * 3 + 1, 5 * 2), abs=1e-9)


def test_probe_single_block_constant_row_sum():
    from eqspec.quotient import conjecture_probe

    spec = BlockSpec(sizes=(4,), l=(3,), p=(2,), s=((0,),))
    report = conjecture_probe(realize_block_matrix(spec).to_numpy(), spec.partition())
    assert report.holds
    assert report.rho_B == pytest.approx(3 * 4 + 2, abs=1e-9)


# ---------------------------------------------------------------------------
# isomorphism


def test_is_isomorphic_relabelings():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randint(2, 6)
        g = Graph(n, {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5})
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, {(perm[u], perm[v]) for u, v in g.edges})
        assert is_isomorphic(g, h)


def test_is_isomorphic_distinguishes():
    assert not is_isomorphic(Graph(3, [(0, 1)]), Graph(3, [(0, 1), (1, 2)]))
    assert not is_isomorphic(
        build(KnkpDigraph(5, 2, 1)), build(KnkpDigraph(5, 2, 2))
    )
    assert not is_isomorphic(Graph(2), Digraph(2))
