"""Independent brute-force oracles used by the tests.

Deliberately separate algorithms from the package's implementations:
Bareiss elimination and Lagrange interpolation, and Berkowitz's
division-free recurrence over exact scalars, instead of multi-modular
Faddeev-LeVerrier, Floyd-Warshall instead of level-by-level matrix
products, union-find, Warshall's closure and depth-first search instead of
reachability products, max-flow Menger instead of batched cut enumeration,
bisection on the oracle's own Sturm counts instead of closed forms, power
iteration with Collatz-Wielandt bracketing instead of LAPACK for Perron
roots, per-block loops instead of the cell-sum reduction and the
closed-form probe quotients (and a row-at-a-time reduction that pins the
reduction's summation order), one labeled graph and one permutation at a
time instead of isomorphism orbits and relabeling tables, one probe trial
at a time instead of chunks solved by matrix shape, one family member at a
time instead of a connectivity theorem's members solved as one stack, and
the block families written out from their definitions, clique by clique
and join by join, instead of from a table of joined cells.
"""

from __future__ import annotations

import operator
import random
from collections import deque
from fractions import Fraction
from itertools import chain, permutations

import numpy as np

from eqspec import theorems
from eqspec.errors import NotEquitable, NotNonnegative
from eqspec.families import (
    BidirectedComplete,
    CliqueStar,
    CompleteMultipartite,
    DirectedCycle,
    KnkpDigraph,
    KnkpGraph,
    adjacency_blockspec,
    build,
)
from eqspec.graphs import Digraph, Graph, MatrixKind, build_matrix
from eqspec.linalg import (
    ExactMatrix,
    Polynomial,
    as_numeric,
    eigenvalues,
    largest_real_root,
    spectral_radius,
)
from eqspec.quotient import BlockSpec, ProbeReport, _lifted_spectrum
from eqspec.search import ConjectureSearchResult


def bareiss_det(rows) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for swap in range(k + 1, n):
                if a[swap][k] != 0:
                    a[k], a[swap] = a[swap], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_xi_minus_m(m: ExactMatrix, x) -> Fraction:
    """det(xI - M) evaluated exactly at the point x."""
    n = m.n
    rows = [
        [(x if i == j else 0) - m[i, j] for j in range(n)] for i in range(n)
    ]
    return bareiss_det(rows)


def charpoly_by_interpolation(m: ExactMatrix) -> Polynomial:
    """Characteristic polynomial via exact determinants at n+1 points plus
    Lagrange interpolation. Fully independent of the package's recurrence."""
    n = m.n
    xs = list(range(n + 1))
    ys = [det_xi_minus_m(m, x) for x in xs]
    # Lagrange basis accumulation over the rationals
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            denom *= xi - xj
            # multiply basis by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] -= c * xj
                nxt[d + 1] += c
            basis = nxt
        scale = ys[i] / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    return Polynomial(coeffs)


def berkowitz_char_poly(m: ExactMatrix) -> Polynomial:
    """Exact monic characteristic polynomial det(xI - M) by Berkowitz's
    division-free recurrence over plain ints and Fractions.

    The polynomial of each leading (r+1)x(r+1) block is a Toeplitz
    convolution of the leading r x r block's polynomial with
    [1, -a_rr, -R.C, -R.A.C, ..., -R.A^(r-1).C], where R and C border the
    block and every product is a matrix-vector product.
    """
    a = m.rows
    coeffs = [1, -a[0][0]]  # highest degree first
    for r in range(1, m.n):
        block = [row[:r] for row in a[:r]]
        border_row = a[r][:r]
        col = [row[r] for row in a[:r]]
        toeplitz = [1, -a[r][r], -sum(map(operator.mul, border_row, col))]
        for _ in range(r - 1):
            col = [sum(map(operator.mul, row, col)) for row in block]
            toeplitz.append(-sum(map(operator.mul, border_row, col)))
        coeffs = [
            sum(map(operator.mul, toeplitz[i::-1], coeffs)) for i in range(r + 2)
        ]
    return Polynomial(reversed(coeffs))


def floyd_warshall(obj) -> list[list[float]]:
    """All-pairs shortest paths; float('inf') marks unreachable pairs."""
    n = obj.n
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    items = obj.arcs if isinstance(obj, Digraph) else obj.edges
    for u, v in items:
        dist[u][v] = 1
        if isinstance(obj, Graph):
            dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            for j in range(n):
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


def connected_union_find(g: Graph) -> bool:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(g.n)}) == 1


def strongly_connected_warshall(dg: Digraph) -> bool:
    n = dg.n
    reach = [[i == j for j in range(n)] for i in range(n)]
    for u, v in dg.arcs:
        reach[u][v] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return all(all(row) for row in reach)


def strong_components(vertices, out_map) -> list[set[int]]:
    """Strong components of the digraph induced on ``vertices``, in the
    order of their smallest vertices, by depth-first search forwards and
    backwards from the smallest vertex not yet placed."""
    remaining = set(vertices)
    comps = []
    while remaining:
        v = min(remaining)

        def reach(start, mapping):
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in mapping[u]:
                    if w in remaining and w not in seen:
                        seen.add(w)
                        stack.append(w)
            return seen

        fwd = reach(v, out_map)
        rev_map = {u: set() for u in remaining}
        for u in remaining:
            for w in out_map[u]:
                if w in remaining:
                    rev_map[w].add(u)
        bwd = reach(v, rev_map)
        comp = fwd & bwd
        comps.append(comp)
        remaining -= comp
    return comps


def _max_flow(capacity: dict, source: int, sink: int, nodes: int) -> int:
    """Edmonds-Karp on an integer-capacity adjacency dict."""
    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in range(nodes):
                if v not in parent and capacity.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        # unit bottlenecks only in this construction
        bottleneck = min(
            capacity[(parent[v], v)]
            for v in _path_nodes(parent, sink)
        )
        v = sink
        while parent[v] is not None:
            u = parent[v]
            capacity[(u, v)] -= bottleneck
            capacity[(v, u)] = capacity.get((v, u), 0) + bottleneck
            v = u
        flow += bottleneck


def _path_nodes(parent, sink):
    v = sink
    while parent[v] is not None:
        yield v
        v = parent[v]


def vertex_connectivity_maxflow(obj) -> int:
    """Menger-based vertex connectivity: vertex-split max-flow over pairs."""
    n = obj.n
    directed = isinstance(obj, Digraph)
    items = obj.arcs if directed else set(obj.edges) | {(v, u) for u, v in obj.edges}
    if len(items) == n * (n - 1):
        return n - 1
    big = n * n

    def local(u, v):
        # split: node x -> x_in = 2x, x_out = 2x+1
        capacity = {}
        for x in range(n):
            capacity[(2 * x, 2 * x + 1)] = 1 if x not in (u, v) else big
        for a, b in items:
            capacity[(2 * a + 1, 2 * b)] = big
        return _max_flow(capacity, 2 * u + 1, 2 * v, 2 * n)

    best = n - 1
    for u in range(n):
        for v in range(n):
            if u != v and (u, v) not in items:
                best = min(best, local(u, v))
    return best


def _clique(vertices) -> set[tuple[int, int]]:
    return {(u, v) for u in vertices for v in vertices if u < v}


def family_by_definition(spec):
    """A family member written out from its definition, arc by arc, in the
    canonical labeling: K_k joined to (K_p union K_q) on the vertices
    p-cell, k-cut, q-cell, plus one-way arcs from the p-clique to the
    q-clique for the digraph; the complete multipartite graph on
    consecutive parts; cliques sharing the hub 0, on consecutive leaves;
    the directed cycle 0 -> 1 -> ... -> n-1 -> 0; every arc u -> v, u != v."""
    if isinstance(spec, DirectedCycle):
        return Digraph(spec.n, {(u, (u + 1) % spec.n) for u in range(spec.n)})
    if isinstance(spec, BidirectedComplete):
        return Digraph(spec.n, {(u, v) for u in range(spec.n) for v in range(spec.n) if u != v})
    if isinstance(spec, (KnkpGraph, KnkpDigraph)):
        p_clique = range(spec.p)
        cut = range(spec.p, spec.p + spec.k)
        q_clique = range(spec.p + spec.k, spec.n)
        edges = _clique(p_clique) | _clique(cut) | _clique(q_clique)
        edges |= {(min(u, v), max(u, v)) for u in cut for v in chain(p_clique, q_clique)}
        if isinstance(spec, KnkpGraph):
            return Graph(spec.n, edges)
        one_way = {(u, v) for u in p_clique for v in q_clique}
        return Digraph(spec.n, edges | {(v, u) for u, v in edges} | one_way)
    if isinstance(spec, CompleteMultipartite):
        part_of = [i for i, size in enumerate(spec.parts) for _ in range(size)]
        n = len(part_of)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if part_of[u] != part_of[v]}
        return Graph(n, edges)
    if isinstance(spec, CliqueStar):
        edges, first = set(), 1
        for size in spec.sizes:
            edges |= _clique([0, *range(first, first + size - 1)])
            first += size - 1
        return Graph(first, edges)
    raise TypeError(f"no definition for {spec!r}")


def bisection_largest_root(poly: Polynomial, lo: Fraction, hi: Fraction, steps: int = 200) -> float:
    """Largest real root in (lo, hi] by exact bisection on Sturm counts.

    The oracle's own Sturm sequence over Fraction counts the distinct roots
    in any interval. Of 256 grid cells down from hi, the first that holds a
    root holds the largest one; it is halved ``steps`` times, keeping the
    half that holds that root, so two roots in one cell, or a root of even
    multiplicity, cannot lead it to a smaller one.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    changes = _sturm_changes(poly)
    top, grid, upper = changes(hi), 256, hi
    for i in range(1, grid + 1):
        lower = hi - (hi - lo) * i / grid
        if changes(lower) > top:
            break
        upper = lower
    else:
        raise ValueError("no root in range")
    # the largest root r in range has lower < r <= upper
    for _ in range(steps):
        mid = (lower + upper) / 2
        if changes(mid) > top:
            lower = mid
        else:
            upper = mid
    return float(upper)


def _sturm_changes(poly: Polynomial):
    """x -> the sign changes at x of poly's Sturm sequence (p, p', then
    each negated remainder), coefficients high to low over Fraction; for
    a < b, changes(a) - changes(b) counts the distinct roots in (a, b]."""
    p = [Fraction(c) for c in reversed(poly.coeffs)]
    sequence = [p, [c * (len(p) - 1 - k) for k, c in enumerate(p[:-1])]]
    while len(sequence[-1]) > 1:
        divisor, rem = sequence[-1], list(sequence[-2])
        while len(rem) >= len(divisor):
            factor = rem[0] / divisor[0]
            rem = [r - factor * d for r, d in zip(rem[1:], divisor[1:] + [0] * len(rem))]
        while rem and rem[0] == 0:
            rem.pop(0)
        if not rem:
            break
        sequence.append([-r for r in rem])

    def value(q, x):
        acc = 0
        for c in q:
            acc = acc * x + c
        return acc

    def changes(x) -> int:
        signs = [s for s in (_sign(value(q, x)) for q in sequence) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes
def _sign(x) -> int:
    return (x > 0) - (x < 0)


def horner(poly: Polynomial, x):
    """poly(x) by Horner's rule; exact for int/Fraction arguments."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def row_sum_bounds(m) -> tuple[float, float]:
    """(min, max) row sum of a nonnegative matrix; brackets the Perron root."""
    a = as_numeric(m)
    if np.any(a < 0):
        raise ValueError("row_sum_bounds requires a nonnegative matrix")
    sums = a.sum(axis=1)
    return float(sums.min()), float(sums.max())


def perron_root(m, tol: float = 1e-11) -> float:
    """Perron eigenvalue of a nonnegative irreducible matrix.

    Power iteration on M + I (guarantees primitivity) with Collatz-Wielandt
    bracketing; the first iterate's bracket is exactly the row-sum bounds.
    Independent of the LAPACK path used by ``spectral_radius``.
    """
    a = as_numeric(m)
    n = a.shape[0]
    if np.any(a < 0):
        raise ValueError("perron_root requires a nonnegative matrix")
    if n == 1:
        return float(a[0, 0])
    support = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and a[u, v] > 0])
    if not strongly_connected_warshall(support):
        raise ValueError("perron_root requires an irreducible matrix")
    shifted = a + np.eye(n)
    x = np.ones(n)
    cap = 100 * n * n + 1000
    for _ in range(cap):
        y = shifted @ x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * max(1.0, hi):
            return (lo + hi) / 2.0 - 1.0
        x = y / np.linalg.norm(y)
    raise RuntimeError(f"perron_root: no convergence in {cap} iterations")


def quotient_matrix_blockwise(a: np.ndarray, part) -> np.ndarray:
    """Quotient one block at a time: block sum over the row cell size, as
    Fractions for an object array of exact scalars."""
    t, exact = part.t, a.dtype == object
    out = np.empty((t, t), dtype=a.dtype if a.dtype.kind in "cO" else float)
    for i, ci in enumerate(part.cells):
        for j, cj in enumerate(part.cells):
            total = a[np.ix_(ci, cj)].sum()
            out[i, j] = Fraction(total, len(ci)) if exact else total / len(ci)
    return out


def quotient_matrix_by_rows(a: np.ndarray, part) -> np.ndarray:
    """Numeric quotient in the package's summation order, one row at a
    time: permute to cell order, reduce each row over each cell's columns,
    then reduce those sums over each cell's rows and divide by its size."""
    order = [v for cell in part.cells for v in cell]
    starts = np.cumsum((0,) + part.sizes[:-1])
    sums = np.array([np.add.reduceat(row, starts) for row in a[np.ix_(order, order)]])
    return np.add.reduceat(sums, starts, axis=0) / np.array(part.sizes, dtype=float)[:, None]


def is_equitable_blockwise(a: np.ndarray, part, tol: float = 1e-12) -> bool:
    """Numeric equitability one block at a time: row-sum spread within tol,
    taken on the real and the imaginary parts separately."""
    for ci in part.cells:
        for cj in part.cells:
            sums = a[np.ix_(ci, cj)].sum(axis=1)
            for values in (sums.real, sums.imag):
                if np.max(values) - np.min(values) > tol:
                    return False
    return True


def realize_blockwise(spec) -> np.ndarray:
    """A BlockSpec's matrix as floats, filled one block at a time."""
    ends = np.cumsum(spec.sizes)
    a = np.empty((spec.n, spec.n))
    for i, (start, end) in enumerate(zip(ends - spec.sizes, ends)):
        for j, (left, right) in enumerate(zip(ends - spec.sizes, ends)):
            a[start:end, left:right] = float(spec.l[i] if i == j else spec.s[i][j])
        a[range(start, end), range(start, end)] = float(spec.l[i] + spec.p[i])
    return a


def random_blockspec(rng: random.Random, n_range, t_range, coeff) -> BlockSpec:
    """A probe campaign's random BlockSpec through the ``random`` API: t in
    t_range blocks and order n in n_range (raised to t when below it), sizes
    by ``randrange``, then every coefficient l, p and s as ``coeff(rng)``."""
    t = rng.randint(t_range[0], t_range[1])
    n = rng.randint(max(t, n_range[0]), max(t, n_range[1]))
    sizes = [1] * t
    for _ in range(n - t):
        sizes[rng.randrange(t)] += 1
    return BlockSpec(
        sizes=tuple(sizes),
        l=tuple(coeff(rng) for _ in range(t)),
        p=tuple(coeff(rng) for _ in range(t)),
        s=tuple(tuple(coeff(rng) for _ in range(t)) for _ in range(t)),
    )


def _campaign_specs(trials, seed, n_range, t_range, coeff):
    """The random specs of a probe campaign, one substream per trial."""
    for i in range(trials):
        yield random_blockspec(random.Random(f"{seed}:{i}"), n_range, t_range, coeff)


def _quarter(rng):
    return Fraction(rng.randint(0, 40), 4)


def probe_blockwise(spec, tol: float = 1e-7) -> ProbeReport:
    """``conjecture_probe`` of a spec's realized matrix M, one block at a
    time: the blockwise equitability test and quotient B, rho_B the largest
    real part of ``np.linalg.eigvals(B)`` and rho_M the largest modulus of
    M's eigenvalues (``eigvalsh`` for symmetric M, as the package solves)."""
    m, part = realize_blockwise(spec), spec.partition()
    if (m < 0).any():
        raise NotNonnegative("conjecture_probe requires a nonnegative matrix")
    if not is_equitable_blockwise(m, part):
        raise NotEquitable("conjecture_probe requires an equitable partition")
    rho_b = float(np.linalg.eigvals(quotient_matrix_blockwise(m, part)).real.max())
    m_values = np.linalg.eigvalsh(m) if np.array_equal(m, m.T) else np.linalg.eigvals(m)
    rho_m = float(np.abs(m_values).max())
    return ProbeReport(holds=abs(rho_b - rho_m) <= tol, rho_B=rho_b, rho_M=rho_m)


def conjecture_campaign(
    trials: int, seed: int, n_range=(2, 20), t_range=(1, 4), tol: float = 1e-7
) -> dict:
    """``conjecture_search(...).to_json()`` one trial at a time: a
    ``probe_blockwise`` per random spec, stopping at the first that fails."""
    for i, spec in enumerate(_campaign_specs(trials, seed, n_range, t_range, _quarter)):
        report = probe_blockwise(spec, tol=tol)
        if not report.holds:
            return ConjectureSearchResult(i + 1, seed, spec, report).to_json()
    return ConjectureSearchResult(trials, seed, None, None).to_json()


def probe_gaps(trials: int, seed: int, n_range=(2, 20), t_range=(1, 4)) -> list[float]:
    """|rho_B - rho_M| of every trial of a conjecture campaign."""
    gaps = []
    for spec in _campaign_specs(trials, seed, n_range, t_range, _quarter):
        report = probe_blockwise(spec)
        gaps.append(abs(report.rho_B - report.rho_M))
    return gaps


def block_spectrum(spec: BlockSpec):
    """Full spectrum of the realized matrix without building it: the
    quotient's eigenvalues (the symmetric solver's for a symmetric one)
    plus p_i repeated (n_i - 1) times."""
    b = spec.quotient().to_numpy()
    values = np.linalg.eigvalsh(b) if np.array_equal(b, b.T) else np.linalg.eigvals(b)
    return _lifted_spectrum(spec.sizes, spec.p, values)


def block_spectrum_max_deviation(trials: int, seed: int, t_max: int = 4, n_max: int = 20) -> float:
    """``lem3.4.random``'s max_deviation one trial at a time: the lifted
    quotient spectrum against a full eigensolve of each random spec."""
    dev = 0.0
    specs = _campaign_specs(trials, seed, (1, n_max), (1, t_max), lambda rng: rng.randint(-5, 5))
    for spec in specs:
        numeric = eigenvalues(realize_blockwise(spec), cluster_tol=0.0)
        dev = max(dev, block_spectrum(spec).deviation(numeric))
    return dev


def _mask_pairs(n: int, directed: bool) -> list[tuple[int, int]]:
    """Bit b of an adjacency bitmask is the b-th vertex pair in
    lexicographic order: ordered pairs for digraphs, i < j for graphs."""
    return [(i, j) for i in range(n) for j in range(n) if i != j and (directed or i < j)]


def _top_eigenvalue(m: np.ndarray, directed: bool) -> float:
    if directed:
        return float(np.abs(np.linalg.eigvals(m)).max())
    return float(np.linalg.eigvalsh(m)[-1])


def labeled_scan_table(n: int, directed: bool) -> list[tuple[int, int, dict]]:
    """(mask, vertex connectivity, objectives) for every labeled (strongly)
    connected (di)graph on n vertices, one graph at a time: Floyd-Warshall
    distances, max-flow connectivity and a per-matrix eigensolve."""
    pairs = _mask_pairs(n, directed)
    rows = []
    for mask in range(1 << len(pairs)):
        chosen = [pair for bit, pair in enumerate(pairs) if (mask >> bit) & 1]
        obj = Digraph(n, chosen) if directed else Graph(n, chosen)
        dist = np.array(floyd_warshall(obj))
        if np.isinf(dist).any():
            continue
        adj = np.zeros((n, n))
        for i, j in chosen:
            adj[i, j] = 1
            if not directed:
                adj[j, i] = 1
        objectives = {
            "rho": adj,
            "q": adj + np.diag(adj.sum(axis=1)),
            "rhoD": dist,
            "qD": dist + np.diag(dist.sum(axis=1)),
        }
        values = {name: _top_eigenvalue(m, directed) for name, m in objectives.items()}
        rows.append((mask, vertex_connectivity_maxflow(obj), values))
    return rows


def labeled_scan(table, k, objective: str, mode: str, tol: float = 1e-9):
    """(optimum, optimizer masks, class size) over a ``labeled_scan_table``;
    k=None keeps every (strongly) connected member."""
    members = [(mask, values[objective]) for mask, kappa, values in table if k in (None, kappa)]
    pick = max if mode == "max" else min
    best = pick(value for _, value in members)
    optimizers = tuple(mask for mask, value in members if abs(value - best) <= tol)
    return best, optimizers, len(members)


def relabeled_masks(n: int, mask: int, directed: bool) -> set[int]:
    """Every relabeling of an adjacency bitmask, one permutation at a time."""
    pairs = _mask_pairs(n, directed)
    index = {pair: bit for bit, pair in enumerate(pairs)}
    chosen = [pair for bit, pair in enumerate(pairs) if (mask >> bit) & 1]
    images = set()
    for perm in permutations(range(n)):
        image = 0
        for i, j in chosen:
            a, b = perm[i], perm[j]
            image |= 1 << index[(a, b) if directed else (min(a, b), max(a, b))]
        images.add(image)
    return images


def adjacency_mask(obj) -> int:
    """The adjacency bitmask of a (di)graph: bit b is set when the b-th
    vertex pair of ``_mask_pairs`` is an arc (an edge, for a graph)."""
    arcs = obj.arcs if obj.directed else obj.edges
    return sum(1 << bit for bit, pair in enumerate(_mask_pairs(obj.n, obj.directed)) if pair in arcs)


def contains_within_tol(pool, targets, tol) -> bool:
    """Multiset inclusion of targets in pool: each target, in order, takes
    the first strictly nearest unused pool value closer than tol, and the
    inclusion fails as soon as a target finds none."""
    used = [False] * len(pool)
    for target in targets:
        best, best_dist = None, tol
        for idx, value in enumerate(pool):
            if not used[idx] and abs(value - target) < best_dist:
                best, best_dist = idx, abs(value - target)
        if best is None:
            return False
        used[best] = True
    return True


def connectivity_theorem_report(theorem: str, sub: str, n: int, k: int):
    """The ``verify`` report of a thm4.3/thm5.2 sub-claim, one family member
    at a time: each member's matrix solved by ``eigenvalues`` and again by
    ``spectral_radius``, its quotient by ``block_spectrum``, and each
    characteristic polynomial recomputed by ``berkowitz_char_poly``
    wherever it is compared, the lifted one as
    ``Polynomial.linear(p_i) ** (n_i - 1)`` products."""
    kind = theorems._SUBCLAIMS[sub]
    graph = theorem == "thm5.2"
    family = KnkpGraph if graph else KnkpDigraph
    bound = (theorems.graph_bound if graph else theorems.digraph_bound)(n, k, kind)
    dev, identities_ok, values = 0.0, True, {}
    for p in range(1, n - k):
        fam = family(n, k, p)
        exact = build_matrix(build(fam), kind)
        matrix = exact.to_numpy()
        full = eigenvalues(matrix)
        spec = adjacency_blockspec(fam, kind)
        member_dev, member_ok = 0.0, True
        if graph:
            cubic = theorems.graph_quotient_charpolys(n, k, p, kind)
            member_ok = cubic == berkowitz_char_poly(spec.quotient())
            if kind is MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN:
                member_ok &= cubic == theorems.knkp_graph_dq_display_cubic(p, fam.q, k)
            if p == 1 and kind in theorems._GRAPH_BOUND_CUBICS:
                member_ok &= cubic.monic() == theorems._GRAPH_BOUND_CUBICS[kind](n, k).monic()
        if graph and kind is not MatrixKind.SIGNLESS_LAPLACIAN:
            values[p] = largest_real_root(cubic)
        else:
            closed = (
                theorems.graph_q_quotient_eigs(n, k, p)
                if graph
                else theorems.digraph_quotient_eigs(n, k, p, kind)
            )
            member_dev, values[p] = full.containment_deviation(closed), closed.max_real()
        lifted = berkowitz_char_poly(spec.quotient())
        for p_i, size in zip(spec.p, spec.sizes):
            if size > 1:
                lifted = lifted * (Polynomial.linear(p_i) ** (size - 1))
        identities_ok &= member_ok & (lifted == berkowitz_char_poly(exact))
        dev = max(
            dev,
            member_dev,
            block_spectrum(spec).deviation(full),
            abs(values[p] - spectral_radius(matrix)),
        )
    claimed = sorted({member.p for member in bound.extremal_members})
    pick = max if kind.sense == "max" else min
    best = pick(values.values())
    observed = [p for p, value in values.items() if abs(value - best) <= 1e-9]
    dev = max(dev, abs(values[claimed[0]] - bound.value))
    claim = f"{theorem}.{sub}"
    return theorems.VerificationReport(
        claim_id=claim,
        params={"n": n, "k": k},
        passed=observed == claimed and identities_ok and dev <= theorems._NUMERIC_TOL,
        max_deviation=dev,
        details={
            "kind": kind.value,
            "bound": bound.value,
            "sense": bound.sense,
            "values_by_p": {str(p): v for p, v in values.items()},
            "claimed_extremal_p": claimed,
            "observed_extremal_p": observed,
            "polynomial_identities": identities_ok,
        },
        note=theorems.CLAIMS[claim].note,
    )
