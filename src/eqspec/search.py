"""Exhaustive scans over small (di)graphs and randomized probes.

A scan walks the S_n orbits of the labeled adjacency bitmasks, not every
bitmask: each orbit is found once, through a table of how each vertex
permutation moves the bits, and its smallest mask stands for it. The
per-graph work is vectorized over the representatives and uses the kernels
of ``graphs`` and its stacked builder, so this module has no graph routine
of its own. Every orbit gets connectivity, from reachability alone; vertex
connectivity only when a target names a class; distances and eigensolves
only on the orbits of the targets' classes, and distances only when an
objective is a distance kind. Each orbit counts with its size.
A spectral radius is an isomorphism invariant, so the optimizers are whole
orbits, picked by their representatives' values and expanded back to their
labeled masks; a reference family names an orbit when its smallest mask is
the orbit's representative.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np

from .errors import BudgetExceeded, InvalidParameters
from .families import (
    BidirectedComplete,
    DirectedCycle,
    KnkpDigraph,
    KnkpGraph,
    _endpoint_members,
    build,
    format_family,
)
from .graphs import (
    MatrixKind,
    _connected,
    _from_adjacency,
    distances,
    matrix_stack,
    vertex_connectivities,
)
from .linalg import _NUMERIC_TOL
from .quotient import BlockSpec, ProbeReport, _as_spec, _probe_verdict, stacked_spectra

UNDIRECTED_VERTEX_BUDGET = 7  # 2**21 labeled graphs
DIRECTED_VERTEX_BUDGET = 5  # 2**20 labeled digraphs
PROBE_ORDER_BUDGET = 500  # largest random probe matrix: 500 x 500 floats
_WALK_WINDOW = 4096  # masks searched for the next unseen orbit at a time
_PROBE_SEGMENT = 1 << 19  # matrix entries (an eighth as many coefficients) drawn at a time

# the radii the connectivity theorems optimize: rho, q, rhoD, qD
OBJECTIVES = tuple(kind.radius_name for kind in MatrixKind if kind.sense)
_TIE_TOL = 1e-9


def pair_table(n: int, directed: bool) -> tuple[tuple[int, int], ...]:
    """Bit position -> vertex pair. Bit b of a mask toggles pair_table[b]."""
    if directed:
        return tuple((i, j) for i in range(n) for j in range(n) if i != j)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def graph_from_mask(n: int, mask: int, directed: bool):
    adj = _adjacency_batch(np.array([mask]), n, pair_table(n, directed), directed)
    return _from_adjacency(adj[0], directed)


def mask_from_graph(obj) -> int:
    i, j = np.array(pair_table(obj.n, obj.directed), dtype=np.intp).reshape(-1, 2).T
    return sum(1 << bit for bit in np.flatnonzero(obj.adjacency[i, j]).tolist())


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
# isomorphism orbits of the mask space


@lru_cache(maxsize=None)
def _bit_permutations(n: int, directed: bool) -> np.ndarray:
    """(m, n!) table: column p holds 2**(where bit b goes) under the p-th
    vertex permutation, so a mask's bit vector times it relabels the mask.

    Stored as float64, exact for masks below 2**53, so that product runs in
    BLAS. Capped at n=7, where it is 5040 columns wide.
    """
    if n > UNDIRECTED_VERTEX_BUDGET:
        raise BudgetExceeded(
            f"relabeling tables are capped at n={UNDIRECTED_VERTEX_BUDGET}, got n={n}"
        )
    pairs = np.array(pair_table(n, directed), dtype=np.intp).reshape(-1, 2)
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    heads, tails = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    if not directed:
        heads, tails = np.minimum(heads, tails), np.maximum(heads, tails)
    bit_of = np.zeros((n, n), dtype=np.intp)
    bit_of[pairs[:, 0], pairs[:, 1]] = np.arange(len(pairs))
    table = np.ldexp(1.0, bit_of[heads, tails]).T.copy()
    table.flags.writeable = False
    return table


def _relabelings(n: int, directed: bool, masks) -> np.ndarray:
    """Every relabeling of each mask: shape masks.shape + (n!,)."""
    table = _bit_permutations(n, directed)
    shifts = np.arange(table.shape[0], dtype=np.int64)
    bits = (np.asarray(masks, dtype=np.int64)[..., None] >> shifts) & 1
    return (bits.astype(np.float64) @ table).astype(np.int64)


@lru_cache(maxsize=None)
def _orbits(n: int, directed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The S_n orbits of the mask space as (representatives, sizes).

    Masks are walked in ascending order, so the first unseen mask of an
    orbit is its smallest; marking its whole orbit seen skips the rest. An
    orbit's size is n! over the number of relabelings that fix its mask.
    """
    total = 1 << len(pair_table(n, directed))
    relabelings = factorial(n)
    seen = np.zeros(total, dtype=bool)
    reps, sizes = [], []
    pos = 0
    while pos < total:
        window = seen[pos : pos + _WALK_WINDOW]
        first = int(window.argmin())
        if window[first]:
            pos += window.size
            continue
        mask = pos + first
        images = _relabelings(n, directed, mask)
        seen[images] = True
        reps.append(mask)
        sizes.append(relabelings // np.count_nonzero(images == mask))
        pos = mask + 1
    out = (np.array(reps, dtype=np.int64), np.array(sizes, dtype=np.int64))
    for array in out:
        array.flags.writeable = False
    return out


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


def _objective_batch(adj: np.ndarray, directed: bool, wanted) -> dict[str, np.ndarray]:
    """The wanted radii of every (strongly) connected (di)graph of the
    stack; distances are built only when a wanted kind is a distance kind."""

    def top(stack):
        if directed:
            return np.abs(np.linalg.eigvals(stack)).max(axis=1)
        return np.linalg.eigvalsh(stack)[:, -1]

    kinds = [kind for kind in MatrixKind if kind.radius_name in wanted]
    dist = distances(adj)[0] if any(kind.distance for kind in kinds) else None
    return {
        kind.radius_name: top(
            matrix_stack(dist if kind.distance else adj, kind).astype(np.float64)
        )
        for kind in kinds
    }


def _optimum(keys: np.ndarray, vals: np.ndarray, mode: str):
    """(optimum of vals, the keys whose value is within _TIE_TOL of it):
    the one tie rule of scans and claims."""
    value = float(vals.max() if mode == "max" else vals.min())
    near = vals >= value - _TIE_TOL if mode == "max" else vals <= value + _TIE_TOL
    return value, tuple(keys[near].tolist())


# ---------------------------------------------------------------------------
# public scan API


@dataclass(frozen=True)
class ScanJob:
    """One extremal question: optimize an objective over a connectivity class.

    k=None drops the connectivity filter and scans every (strongly)
    connected member.
    """

    n: int
    k: int | None
    directed: bool
    objective: str
    mode: str

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
    """Reference families the optimizers are matched against, as (name,
    smallest mask of its orbit); undirected scans without a k have none."""
    if k is not None:
        specs = _endpoint_members(KnkpDigraph if directed else KnkpGraph, n, k)
    elif directed:
        specs = (BidirectedComplete(n), DirectedCycle(n))
    else:
        specs = ()
    return [
        (format_family(s), int(_relabelings(n, directed, mask_from_graph(build(s))).min()))
        for s in specs
    ]


def _scan_note(n, directed, k) -> str:
    scope = "strongly connected digraphs" if directed else "connected graphs"
    cls = f" with vertex connectivity {k}" if k is not None else ""
    return (
        f"exhaustive over all labeled {scope} on {n} vertices{cls}; "
        f"equality characterizations are verified only at this n"
    )


def _certificates(n: int, directed: bool, targets) -> dict:
    """One scan for every target, key -> (k or None, objective, mode), as
    {key: certificate}; a target whose class is empty is left out.

    Connectivity is decided once per orbit from reachability, and vertex
    connectivity once per connected orbit when some target names a k. The
    objectives are then solved only on the orbits in some target's class,
    with distances built for those orbits only when a wanted objective is a
    distance kind; a class counts each orbit with its size. The optimizer
    orbits are picked by their representatives (``_optimum``) and expanded
    to their labeled masks, whose own values (distances again only for a
    distance objective) give the optimum. An orbit is labelled with the
    references whose smallest mask is its representative, built once per
    class, or "other".
    """
    _check_budget(n, directed)
    pairs = pair_table(n, directed)
    reps, sizes = _orbits(n, directed)
    adj = _adjacency_batch(reps, n, pairs, directed)
    connected = _connected(adj)
    wanted_k = {k for k, _, _ in targets.values()}
    kappa = vertex_connectivities(adj, connected) if wanted_k - {None} else None
    classes = {k: connected if k is None else kappa == k for k in wanted_k}
    scored = np.logical_or.reduce(list(classes.values()))
    reps, sizes, adj = reps[scored], sizes[scored], adj[scored]
    values = _objective_batch(adj, directed, {obj for _, obj, _ in targets.values()})
    refs_by_k = {}
    out = {}
    for key, (k, objective, mode) in targets.items():
        in_class = classes[k][scored]
        if not in_class.any():
            continue
        _, best = _optimum(reps[in_class], values[objective][in_class], mode)
        if k not in refs_by_k:
            refs_by_k[k] = _classification_targets(n, k, directed)
        label = {}
        for rep, images in zip(best, _relabelings(n, directed, best).tolist()):
            names = [name for name, ref in refs_by_k[k] if ref == rep]
            label.update(dict.fromkeys(images, " & ".join(names) or "other"))
        optimizers = sorted(label)
        masks = np.array(optimizers)
        labeled = _adjacency_batch(masks, n, pairs, directed)
        value, _ = _optimum(
            masks, _objective_batch(labeled, directed, (objective,))[objective], mode
        )
        out[key] = ExtremalCertificate(
            n=n,
            k=k,
            directed=directed,
            objective=objective,
            mode=mode,
            value=value,
            optimizers=tuple(optimizers),
            classification={str(mask): label[mask] for mask in optimizers},
            examined=int(sizes[in_class].sum()),
            note=_scan_note(n, directed, k),
        )
    return out


def extremal_scan(job: ScanJob) -> ExtremalCertificate:
    """Scan the full enumeration for the job's optimum and classify optimizers."""
    certificates = _certificates(
        job.n, job.directed, {"job": (job.k, job.objective, job.mode)}
    )
    if "job" not in certificates:
        raise InvalidParameters(
            f"no {'strongly connected digraph' if job.directed else 'connected graph'}"
            f" with the requested connectivity on n={job.n}"
        )
    return certificates["job"]


def theorem_scan(n: int, directed: bool) -> dict:
    """All four extremal questions for every connectivity class in one pass.

    Directions follow the extremal claims: maximize rho and q, minimize
    rhoD and qD. Returns {k: {objective: certificate}}.
    """
    _check_budget(n, directed)
    targets = {
        (k, kind.radius_name): (k, kind.radius_name, kind.sense)
        for k in range(1, n - 1)
        for kind in MatrixKind
        if kind.sense
    }
    out: dict[int, dict[str, ExtremalCertificate]] = {}
    for (k, obj), cert in _certificates(n, directed, targets).items():
        out.setdefault(k, {})[obj] = cert
    return out


def bound_scan(n: int) -> dict:
    """Global extremes of all four objectives over strongly connected digraphs.

    Returns {(objective, mode): certificate}; feeds the complete-digraph /
    directed-cycle bound verifications.
    """
    targets = {
        (obj, mode): (None, obj, mode)
        for obj in OBJECTIVES
        for mode in ("max", "min")
    }
    return _certificates(n, True, targets)


# ---------------------------------------------------------------------------
# isomorphism (through the relabeling table, n <= 7)


def is_isomorphic(a, b) -> bool:
    """Whether b is a relabeling of a (n <= 7)."""
    if type(a) is not type(b) or a.n != b.n:
        return False
    return mask_from_graph(b) in labeled_isomorph_masks(a)


def labeled_isomorph_masks(obj) -> frozenset:
    """Adjacency bitmasks of every relabeling of the given (di)graph (n <= 7)."""
    return frozenset(_relabelings(obj.n, obj.directed, mask_from_graph(obj)).tolist())


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


def _draw_below(getrandbits, span: int, count: int) -> list[int]:
    """``count`` values of ``randrange(span)``, drawn as CPython draws them:
    ``span.bit_length()`` random bits, redrawn while not below ``span``."""
    k = span.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= span:
            r = getrandbits(k)
        out.append(r)
    return out


def _random_trial(rng: random.Random, n_range, t_range, coeff_range):
    """A random trial: the sizes of t in t_range blocks of n in n_range
    rows (raised to t when below it), then 2t + t*t integer coefficients
    (l, p, and s row by row). Each draw is the value ``randint``/``randrange``
    would give, in a fixed order (t, n, sizes, coefficients) that recorded
    outputs depend on."""
    getrandbits = rng.getrandbits
    t = t_range[0] + _draw_below(getrandbits, t_range[1] - t_range[0] + 1, 1)[0]
    low = max(t, n_range[0])
    n = low + _draw_below(getrandbits, max(t, n_range[1]) - low + 1, 1)[0]
    sizes = [1] * t
    for block in _draw_below(getrandbits, t, n - t):
        sizes[block] += 1
    low, high = coeff_range
    return sizes, [low + r for r in _draw_below(getrandbits, high - low + 1, t * (t + 2))]


def _probe_chunks(trials: int, seed: int, n_range, t_range, coeff_range):
    """The campaign's trials, as ``_random_trial`` draws them, in segments
    (see ``quotient._segment_trials``) of int16 block counts and sizes and
    int8 coefficients, so ``coeff_range`` must lie within -128..127 (both
    campaigns' do), of at most ``_PROBE_SEGMENT`` matrix entries and an
    eighth as many coefficients (or one larger trial).
    Trial i draws from its own substream ``random.Random(f"{seed}:{i}")``,
    so segmenting moves no draw, and drawing one segment past a failing
    trial changes nothing before it."""
    segment, entries = (array("h"), array("h"), array("b")), 0
    for i in range(trials):
        sizes, coeffs = _random_trial(random.Random(f"{seed}:{i}"), n_range, t_range, coeff_range)
        n = sum(sizes)
        entries += n * n
        if segment[0] and max(entries, 8 * (len(segment[2]) + len(coeffs))) > _PROBE_SEGMENT:
            yield tuple(np.asarray(part) for part in segment)
            segment, entries = (array("h"), array("h"), array("b")), n * n
        segment[0].append(len(sizes))
        segment[1].extend(sizes)
        segment[2].extend(coeffs)
    yield tuple(np.asarray(part) for part in segment)


def conjecture_search(
    trials: int,
    n_range: tuple[int, int] = (2, 20),
    t_range: tuple[int, int] = (1, 4),
    seed: int = 0,
    tol: float = _NUMERIC_TOL,
) -> ConjectureSearchResult:
    """Random nonnegative equitable instances checking numerically that the
    quotient's top eigenvalue equals the full spectral radius, as it must
    (see ``conjecture_probe``): a reported trial is a numerical fault.

    Deterministic given the seed (per-trial independent substreams). Stops
    at the first failing instance and returns it fully; None expected.
    Each trial is ``conjecture_probe`` of one random ``BlockSpec`` whose
    coefficients are quarters in [0, 10], with the same verdict; its checks
    cannot fail on such a matrix. The trials are drawn as ints (numerators
    over 4) in segments (``_probe_chunks``), whose matrices of each order
    are realized and solved together, each B from the coefficients
    (``stacked_spectra``). The first failing trial is reported, whatever
    else its segment holds; only it becomes a BlockSpec.
    """
    _check_probe_parameters(trials, n_range, t_range)
    done = 0
    for segment in _probe_chunks(trials, seed, n_range, t_range, (0, 40)):
        j, report = _probe_verdict(*stacked_spectra(segment, 4, tops=True), tol)
        if not report.holds:
            return ConjectureSearchResult(done + j + 1, seed, _as_spec(segment, j, 4), report)
        done += len(segment[0])
    return ConjectureSearchResult(trials, seed, None, None)
