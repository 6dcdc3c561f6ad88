"""Exhaustive scans over small (di)graphs and randomized probes.

Enumeration is over labeled adjacency bitmasks (no isomorphism rejection
during the scan); the heavy per-graph work (connectivity, vertex
connectivity, spectral objectives) is vectorized over batches of bitmasks,
which keeps the full n=7 undirected / n=5 directed sweeps at desk scale.
Isomorphism testing is applied only to the optimizer sets, which are tiny.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from .errors import (
    BudgetExceeded,
    CompleteInput,
    InvalidParameters,
    NotStronglyConnected,
)
from .families import (
    BidirectedComplete,
    DirectedCycle,
    KnkpDigraph,
    KnkpGraph,
    build,
    format_family,
)
from .graphs import Digraph, Graph, is_strongly_connected, vertex_connectivity
from .quotient import BlockSpec, ProbeReport, conjecture_probe

UNDIRECTED_VERTEX_BUDGET = 7  # 2**21 labeled graphs
DIRECTED_VERTEX_BUDGET = 5  # 2**20 labeled digraphs
PROBE_ORDER_BUDGET = 500  # largest random probe matrix: 500 x 500 floats
_BATCH_BITS = 14

OBJECTIVES = ("rho", "q", "rhoD", "qD")
_TIE_TOL = 1e-9


def pair_table(n: int, directed: bool) -> tuple[tuple[int, int], ...]:
    """Bit position -> vertex pair. Bit b of a mask toggles pair_table[b]."""
    if directed:
        return tuple((i, j) for i in range(n) for j in range(n) if i != j)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def graph_from_mask(n: int, mask: int, directed: bool):
    pairs = pair_table(n, directed)
    chosen = [pairs[b] for b in range(len(pairs)) if (mask >> b) & 1]
    return Digraph(n, chosen) if directed else Graph(n, chosen)


def mask_from_graph(obj) -> int:
    directed = isinstance(obj, Digraph)
    pairs = pair_table(obj.n, directed)
    index = {pair: b for b, pair in enumerate(pairs)}
    mask = 0
    for item in obj.arcs if directed else obj.edges:
        mask |= 1 << index[item]
    return mask


def _check_budget(n: int, directed: bool) -> None:
    limit = DIRECTED_VERTEX_BUDGET if directed else UNDIRECTED_VERTEX_BUDGET
    if n > limit:
        word = "digraphs" if directed else "graphs"
        raise BudgetExceeded(
            f"exhaustive enumeration of {word} is capped at n={limit}, got n={n}"
        )
    if n < 2:
        raise InvalidParameters("enumeration needs n >= 2")


# ---------------------------------------------------------------------------
# batched pipeline


def _adjacency_batch(masks: np.ndarray, n: int, pairs, directed: bool) -> np.ndarray:
    adj = np.zeros((masks.size, n, n), dtype=np.uint8)
    for bit, (i, j) in enumerate(pairs):
        sel = ((masks >> bit) & 1).astype(np.uint8)
        adj[:, i, j] = sel
        if not directed:
            adj[:, j, i] = sel
    return adj


def _distances_and_connectivity(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BFS distances via boolean matrix powers; unreachable entries stay 0.

    Returns (dist, connected) where connected means every vertex reaches
    every vertex (strong connectivity; plain connectivity for symmetric
    input).
    """
    b, n, _ = adj.shape
    eye = np.eye(n, dtype=np.uint8)
    step = adj | eye
    reach = np.broadcast_to(eye, adj.shape).copy()
    dist = np.zeros((b, n, n), dtype=np.int16)
    for d in range(1, n):
        nxt = (np.matmul(reach, step) > 0).astype(np.uint8)
        newly = (nxt == 1) & (reach == 0)
        if newly.any():
            dist[newly] = d
        reach = nxt
        if reach.all():
            break
    connected = reach.reshape(b, -1).all(axis=1)
    return dist, connected


def _kappa_batch(adj: np.ndarray, connected: np.ndarray) -> np.ndarray:
    """Vertex connectivity per graph: smallest deleted set breaking reach-all.

    The same reach-all criterion covers graphs (symmetric adjacency) and
    digraphs. Entries for disconnected graphs stay -1; connected graphs
    without a cut of size <= n-2 get n-1 (complete case convention).
    """
    b, n, _ = adj.shape
    kappa = np.full(b, -1, dtype=np.int8)
    alive = connected.copy()
    eye_cache = {}
    for size in range(1, n - 1):
        if not alive.any():
            break
        for cut in combinations(range(n), size):
            keep = [v for v in range(n) if v not in cut]
            m = len(keep)
            sub = adj[:, keep, :][:, :, keep]
            if m not in eye_cache:
                eye_cache[m] = np.eye(m, dtype=np.uint8)
            reach = sub | eye_cache[m]
            # (A|I)^(2^3) covers paths of length up to 8 >= m-1 for m <= 6
            for _ in range(3):
                reach = (np.matmul(reach, reach) > 0).astype(np.uint8)
            broken = alive & ~reach.reshape(b, -1).all(axis=1)
            if broken.any():
                kappa[broken] = size
                alive = alive & ~broken
        if not alive.any():
            break
    kappa[alive] = n - 1
    return kappa


def _objective_batch(
    adj: np.ndarray, dist: np.ndarray, directed: bool, wanted
) -> dict[str, np.ndarray]:
    n = adj.shape[1]
    idx = np.arange(n)

    def top(stack):
        if directed:
            return np.abs(np.linalg.eigvals(stack)).max(axis=1)
        return np.linalg.eigvalsh(stack)[:, -1]

    out = {}
    a = adj.astype(np.float64)
    if "rho" in wanted:
        out["rho"] = top(a)
    if "q" in wanted:
        q = a.copy()
        q[:, idx, idx] += a.sum(axis=2)
        out["q"] = top(q)
    if "rhoD" in wanted or "qD" in wanted:
        dm = dist.astype(np.float64)
        if "rhoD" in wanted:
            out["rhoD"] = top(dm)
        if "qD" in wanted:
            dq = dm.copy()
            dq[:, idx, idx] += dm.sum(axis=2)
            out["qD"] = top(dq)
    return out


class _Best:
    """Running optimum with tolerance-grouped optimizer masks."""

    __slots__ = ("mode", "value", "candidates")

    def __init__(self, mode: str):
        if mode not in ("max", "min"):
            raise InvalidParameters(f"mode must be 'max' or 'min', got {mode!r}")
        self.mode = mode
        self.value: float | None = None
        self.candidates: list[tuple[int, float]] = []

    def update(self, masks: np.ndarray, vals: np.ndarray) -> None:
        if vals.size == 0:
            return
        batch_best = float(vals.max() if self.mode == "max" else vals.min())
        if self.value is None:
            self.value = batch_best
        elif self.mode == "max":
            self.value = max(self.value, batch_best)
        else:
            self.value = min(self.value, batch_best)
        near = (
            vals >= self.value - _TIE_TOL
            if self.mode == "max"
            else vals <= self.value + _TIE_TOL
        )
        self.candidates.extend(
            (int(m), float(v)) for m, v in zip(masks[near], vals[near])
        )
        self._prune()

    def _prune(self) -> None:
        if self.value is None:
            return
        if self.mode == "max":
            self.candidates = [c for c in self.candidates if c[1] >= self.value - _TIE_TOL]
        else:
            self.candidates = [c for c in self.candidates if c[1] <= self.value + _TIE_TOL]

    def merge(self, other: "_Best") -> None:
        if other.value is None:
            return
        if self.value is None:
            self.value = other.value
        elif self.mode == "max":
            self.value = max(self.value, other.value)
        else:
            self.value = min(self.value, other.value)
        self.candidates.extend(other.candidates)
        self._prune()

    def optimizers(self) -> tuple[int, ...]:
        return tuple(sorted({m for m, _ in self.candidates}))


def _scan_range(n, directed, pairs, lo, hi, targets, need_kappa, need_objectives):
    """Process masks in [lo, hi): returns (bests, examined-per-class)."""
    bests = {key: _Best(mode) for key, (_, _, mode) in targets.items()}
    examined: dict[int | None, int] = {}
    for start in range(lo, hi, 1 << _BATCH_BITS):
        stop = min(start + (1 << _BATCH_BITS), hi)
        masks = np.arange(start, stop, dtype=np.int64)
        adj = _adjacency_batch(masks, n, pairs, directed)
        dist, connected = _distances_and_connectivity(adj)
        if not connected.any():
            continue
        kappa = _kappa_batch(adj, connected) if need_kappa else None
        values = _objective_batch(adj, dist, directed, need_objectives)
        class_sel: dict[int | None, np.ndarray] = {}
        for key, (k, objective, _) in targets.items():
            if k not in class_sel:
                class_sel[k] = connected if k is None else (kappa == k)
                examined[k] = examined.get(k, 0) + int(class_sel[k].sum())
            sel = class_sel[k]
            bests[key].update(masks[sel], values[objective][sel])
    return bests, examined


def _run_scan(n, directed, targets, shards=1):
    """Shared scan driver. targets: key -> (k_or_None, objective, mode)."""
    _check_budget(n, directed)
    pairs = pair_table(n, directed)
    total = 1 << len(pairs)
    shards = max(1, int(shards))
    need_kappa = any(k is not None for k, _, _ in targets.values())
    need_objectives = tuple(sorted({obj for _, obj, _ in targets.values()}))
    bounds = [
        (total * s // shards, total * (s + 1) // shards) for s in range(shards)
    ]
    bounds = [(lo, hi) for lo, hi in bounds if hi > lo]
    threads = max(1, int(os.environ.get("SPECTRA_THREADS", "1")))
    results = []
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(
                    _scan_range, n, directed, pairs, lo, hi, targets, need_kappa, need_objectives
                )
                for lo, hi in bounds
            ]
            results = [f.result() for f in futures]
    else:
        results = [
            _scan_range(n, directed, pairs, lo, hi, targets, need_kappa, need_objectives)
            for lo, hi in bounds
        ]
    bests = {key: _Best(mode) for key, (_, _, mode) in targets.items()}
    examined: dict[int | None, int] = {}
    for shard_bests, shard_examined in results:
        for key, best in shard_bests.items():
            bests[key].merge(best)
        for k, count in shard_examined.items():
            examined[k] = examined.get(k, 0) + count
    return bests, examined


# ---------------------------------------------------------------------------
# public scan API


@dataclass(frozen=True)
class ScanJob:
    """One extremal question: optimize an objective over a connectivity class.

    k=None drops the connectivity filter and scans every (strongly)
    connected member. Sharding splits the bitmask space; shards are merged
    associatively so the result is shard-count independent.
    """

    n: int
    k: int | None
    directed: bool
    objective: str
    mode: str
    shards: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise InvalidParameters(f"objective must be one of {OBJECTIVES}")
        if self.mode not in ("max", "min"):
            raise InvalidParameters("mode must be 'max' or 'min'")
        if self.k is not None and not 1 <= self.k <= self.n - 2:
            raise InvalidParameters(f"need 1 <= k <= n-2, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class ExtremalCertificate:
    n: int
    k: int | None
    directed: bool
    objective: str
    mode: str
    value: float
    optimizers: tuple[int, ...]
    classification: dict[str, str]
    examined: int
    note: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "directed": self.directed,
            "objective": self.objective,
            "mode": self.mode,
            "value": self.value,
            "optimizers": list(self.optimizers),
            "classification": dict(self.classification),
            "examined": self.examined,
            "note": self.note,
        }


def _classification_targets(n, k, directed):
    """Reference families the optimizers are matched against."""
    if k is not None:
        fam = KnkpDigraph if directed else KnkpGraph
        specs = [fam(n, k, 1)]
        if n - k - 1 != 1:
            specs.append(fam(n, k, n - k - 1))
    else:
        specs = [BidirectedComplete(n), DirectedCycle(n)]
    return [(format_family(s), labeled_isomorph_masks(build(s))) for s in specs]


def _classify(optimizers, refs) -> dict[str, str]:
    out = {}
    for mask in optimizers:
        labels = [name for name, masks in refs if mask in masks]
        out[str(mask)] = " & ".join(labels) if labels else "other"
    return out


def _scan_note(n, directed, k) -> str:
    scope = "strongly connected digraphs" if directed else "connected graphs"
    cls = f" with vertex connectivity {k}" if k is not None else ""
    return (
        f"exhaustive over all labeled {scope} on {n} vertices{cls}; "
        f"equality characterizations are verified only at this n"
    )


def extremal_scan(job: ScanJob) -> ExtremalCertificate:
    """Scan the full enumeration for the job's optimum and classify optimizers."""
    key = "job"
    bests, examined = _run_scan(
        job.n,
        job.directed,
        {key: (job.k, job.objective, job.mode)},
        shards=job.shards,
    )
    best = bests[key]
    if best.value is None:
        raise InvalidParameters(
            f"no {'strongly connected digraph' if job.directed else 'connected graph'}"
            f" with the requested connectivity on n={job.n}"
        )
    optimizers = best.optimizers()
    refs = _classification_targets(job.n, job.k, job.directed)
    return ExtremalCertificate(
        n=job.n,
        k=job.k,
        directed=job.directed,
        objective=job.objective,
        mode=job.mode,
        value=best.value,
        optimizers=optimizers,
        classification=_classify(optimizers, refs),
        examined=examined[job.k],
        note=_scan_note(job.n, job.directed, job.k),
    )


def theorem_scan(n: int, directed: bool, shards: int = 1) -> dict:
    """All four extremal questions for every connectivity class in one pass.

    Directions follow the extremal claims: maximize rho and q, minimize
    rhoD and qD. Returns {k: {objective: certificate}}.
    """
    _check_budget(n, directed)
    modes = {"rho": "max", "q": "max", "rhoD": "min", "qD": "min"}
    targets = {
        (k, obj): (k, obj, mode)
        for k in range(1, n - 1)
        for obj, mode in modes.items()
    }
    bests, examined = _run_scan(n, directed, targets, shards=shards)
    refs_by_k = {k: _classification_targets(n, k, directed) for k in range(1, n - 1)}
    out: dict[int, dict[str, ExtremalCertificate]] = {}
    for (k, obj), best in bests.items():
        if best.value is None:
            continue
        optimizers = best.optimizers()
        out.setdefault(k, {})[obj] = ExtremalCertificate(
            n=n,
            k=k,
            directed=directed,
            objective=obj,
            mode=modes[obj],
            value=best.value,
            optimizers=optimizers,
            classification=_classify(optimizers, refs_by_k[k]),
            examined=examined[k],
            note=_scan_note(n, directed, k),
        )
    return out


def bound_scan(n: int, shards: int = 1) -> dict:
    """Global extremes of all four objectives over strongly connected digraphs.

    Returns {(objective, mode): certificate}; feeds the complete-digraph /
    directed-cycle bound verifications.
    """
    targets = {
        (obj, mode): (None, obj, mode)
        for obj in OBJECTIVES
        for mode in ("max", "min")
    }
    bests, examined = _run_scan(n, True, targets, shards=shards)
    refs = _classification_targets(n, None, True)
    out = {}
    for (obj, mode), best in bests.items():
        optimizers = best.optimizers()
        out[(obj, mode)] = ExtremalCertificate(
            n=n,
            k=None,
            directed=True,
            objective=obj,
            mode=mode,
            value=best.value,
            optimizers=optimizers,
            classification=_classify(optimizers, refs),
            examined=examined[None],
            note=_scan_note(n, True, None),
        )
    return out


def enumerate_class(n: int, directed: bool, kappa: int):
    """Yield all labeled (strongly) connected (di)graphs with the given
    vertex connectivity, in ascending adjacency-bitmask order."""
    _check_budget(n, directed)
    if not 1 <= kappa <= n - 1:
        raise InvalidParameters(f"need 1 <= kappa <= n-1, got kappa={kappa}")
    pairs = pair_table(n, directed)
    total = 1 << len(pairs)
    for start in range(0, total, 1 << _BATCH_BITS):
        stop = min(start + (1 << _BATCH_BITS), total)
        masks = np.arange(start, stop, dtype=np.int64)
        adj = _adjacency_batch(masks, n, pairs, directed)
        _, connected = _distances_and_connectivity(adj)
        kap = _kappa_batch(adj, connected)
        for mask in masks[kap == kappa]:
            yield graph_from_mask(n, int(mask), directed)


# ---------------------------------------------------------------------------
# isomorphism (brute force, small n)


def _degree_invariant(obj):
    if isinstance(obj, Graph):
        return sorted(obj.degrees())
    outs = obj.out_degrees()
    ins = [0] * obj.n
    for _, v in obj.arcs:
        ins[v] += 1
    return sorted(zip(outs, ins))


def is_isomorphic(a, b) -> bool:
    """Permutation search over all n! relabelings (intended for n <= 7)."""
    if isinstance(a, Graph) != isinstance(b, Graph):
        return False
    if a.n != b.n:
        return False
    directed = isinstance(a, Digraph)
    items_a = a.arcs if directed else a.edges
    items_b = b.arcs if directed else b.edges
    if len(items_a) != len(items_b):
        return False
    if _degree_invariant(a) != _degree_invariant(b):
        return False
    for perm in permutations(range(a.n)):
        if directed:
            mapped = {(perm[u], perm[v]) for u, v in items_a}
        else:
            mapped = {
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in items_a
            }
        if mapped == items_b:
            return True
    return False


def labeled_isomorph_masks(obj) -> frozenset:
    """Adjacency bitmasks of every relabeling of the given (di)graph."""
    directed = isinstance(obj, Digraph)
    pairs = pair_table(obj.n, directed)
    index = {pair: bit for bit, pair in enumerate(pairs)}
    items = obj.arcs if directed else obj.edges
    masks = set()
    for perm in permutations(range(obj.n)):
        mask = 0
        for u, v in items:
            a, b = perm[u], perm[v]
            key = (a, b) if directed else (min(a, b), max(a, b))
            mask |= 1 << index[key]
        masks.add(mask)
    return frozenset(masks)


# ---------------------------------------------------------------------------
# extremal completion


@dataclass(frozen=True)
class DominationEmbedding:
    """Witness that the input spans a connectivity-family host digraph.

    witness[v] is the new index of original vertex v; under this relabeling
    every arc of the input is an arc of the host.
    """

    p: int
    host: Digraph
    witness: tuple[int, ...]


def _strong_components(vertices, out_map) -> list[set[int]]:
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


def dominate_with_extremal(dg: Digraph) -> DominationEmbedding:
    """Embed a strongly connected digraph into its extremal completion.

    Finds a minimum vertex cut S, takes the strong component of dg - S with
    no in-arcs from the rest (one exists), and relabels so that component,
    S, and the remainder become the three canonical cells. The host is the
    connectivity family member on the same n and k; the input is a spanning
    subdigraph of the host under the witness relabeling, so its spectral
    objectives are dominated by the host's.
    """
    n = dg.n
    if not is_strongly_connected(dg):
        raise NotStronglyConnected("dominate_with_extremal requires strong connectivity")
    k = vertex_connectivity(dg)
    if k == n - 1:
        raise CompleteInput("complete digraph has no vertex cut of size at most n-2")
    out_sets = dg.out_sets()
    cut = None
    for candidate in combinations(range(n), k):
        removed = set(candidate)
        vertices = [v for v in range(n) if v not in removed]
        comps = _strong_components(vertices, out_sets)
        if len(comps) > 1:
            cut = removed
            break
    if cut is None:  # pragma: no cover - contradicts vertex_connectivity
        raise CompleteInput("no vertex cut found")
    vertices = [v for v in range(n) if v not in cut]
    comps = _strong_components(vertices, out_sets)
    rest = set(vertices)
    sources = []
    for comp in comps:
        outside = rest - comp
        incoming = any(
            v in comp for u in outside for v in out_sets[u]
        )
        if not incoming:
            sources.append(comp)
    g1 = min(sources, key=min)
    p = len(g1)
    order = sorted(g1) + sorted(cut) + sorted(rest - g1)
    witness = [0] * n
    for pos, v in enumerate(order):
        witness[v] = pos
    host = build(KnkpDigraph(n, k, p))
    relabeled = {(witness[u], witness[v]) for u, v in dg.arcs}
    if not relabeled <= host.arcs:  # pragma: no cover - ordering theorem
        raise AssertionError("embedding failed: input is not spanned by the host")
    return DominationEmbedding(p=p, host=host, witness=tuple(witness))


# ---------------------------------------------------------------------------
# conjecture probe campaign


@dataclass(frozen=True)
class ConjectureSearchResult:
    trials: int
    seed: int
    counterexample: BlockSpec | None
    report: ProbeReport | None

    @property
    def found(self) -> bool:
        return self.counterexample is not None

    def to_json(self) -> dict:
        payload = {
            "trials": self.trials,
            "seed": self.seed,
            "counterexample_found": self.found,
        }
        if self.found:
            payload["counterexample"] = self.counterexample.to_json()
            payload["rho_B"] = self.report.rho_B
            payload["rho_M"] = self.report.rho_M
        return payload


def _check_probe_parameters(trials: int, n_range, t_range) -> None:
    """Reject trial counts and ranges no random probe campaign can use."""
    if trials < 1:
        raise InvalidParameters(f"need trials >= 1, got {trials}")
    if not 1 <= t_range[0] <= t_range[1]:
        raise InvalidParameters(f"need 1 <= t_min <= t_max, got t range {t_range}")
    if not 1 <= n_range[0] <= n_range[1]:
        raise InvalidParameters(f"need 1 <= n_min <= n_max, got n range {n_range}")
    order = max(n_range[1], t_range[1])
    if order > PROBE_ORDER_BUDGET:
        raise BudgetExceeded(
            f"random probe matrices are capped at order {PROBE_ORDER_BUDGET}, "
            f"got {order}"
        )


def _random_blockspec(rng: random.Random, n_range, t_range, coeff) -> BlockSpec:
    """Random BlockSpec with t in t_range blocks and order n in n_range
    (raised to t when below it); every coefficient is ``coeff(rng)``.

    The draws come in a fixed order (t, n, the sizes, then l, p and s),
    which recorded outputs depend on.
    """
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


def conjecture_search(
    trials: int,
    n_range: tuple[int, int] = (2, 20),
    t_range: tuple[int, int] = (1, 4),
    seed: int = 0,
    tol: float = 1e-7,
) -> ConjectureSearchResult:
    """Random nonnegative equitable instances probing whether the quotient's
    top eigenvalue always equals the full spectral radius.

    Deterministic given the seed (per-trial independent substreams). Stops
    at the first failing instance and returns it fully; None expected.
    """
    _check_probe_parameters(trials, n_range, t_range)

    def coeff(rng):
        return Fraction(rng.randint(0, 40), 4)  # rationals in [0, 10]

    for i in range(trials):
        rng = random.Random(f"{seed}:{i}")
        spec = _random_blockspec(rng, n_range, t_range, coeff)
        report = conjecture_probe(spec.to_numpy(), spec.partition(), tol=tol)
        if not report.holds:
            return ConjectureSearchResult(
                trials=i + 1, seed=seed, counterexample=spec, report=report
            )
    return ConjectureSearchResult(
        trials=trials, seed=seed, counterexample=None, report=None
    )
