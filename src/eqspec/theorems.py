"""Closed-form spectra, bounds and characteristic polynomials for the
extremal families, plus a catalogue of verifiable claims.

Every closed form here is paired with an independent route (numeric
eigensolver on the constructed matrix, or exact characteristic polynomial of
the constructed matrix); ``verify_claim`` runs both sides and reports the
deviation. Numeric claims pass within ``linalg._NUMERIC_TOL``, polynomial
claims must match exactly.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import BudgetExceeded, InvalidParameters, UnknownClaim
from .families import (
    BidirectedComplete,
    CliqueStar,
    CompleteMultipartite,
    DirectedCycle,
    FamilySpec,
    KnkpDigraph,
    KnkpGraph,
    Petersen,
    _endpoint_members,
    adjacency_blockspec,
    build,
)
from .graphs import MatrixKind, build_matrices, build_matrix
from .linalg import (
    _NUMERIC_TOL,
    Polynomial,
    Spectrum,
    char_poly,
    eigenvalues,
    eigvals_stack,
    integer_char_polys,
    largest_real_root,
    spectral_radius,
)
from .quotient import (
    BlockSpec,
    Partition,
    _lifted_spectrum,
    _segment_trials,
    quotient_matrix,
    stacked_spectra,
)
from .search import (
    _check_probe_parameters,
    _optimum,
    _probe_chunks,
    bound_scan,
    labeled_isomorph_masks,
)

# Largest matrix order a claim may build; each exact characteristic
# polynomial costs about order^4 multiplications per prime.
CLAIM_ORDER_BUDGET = 32


@dataclass(frozen=True)
class BoundResult:
    """A bound value with the family members claimed to attain it."""

    value: float
    extremal_members: tuple[FamilySpec, ...]
    sense: str  # "max" for upper bounds, "min" for lower bounds


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    params: dict
    passed: bool
    max_deviation: float
    details: dict
    note: str = ""

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "params": dict(self.params),
            "passed": self.passed,
            "max_deviation": self.max_deviation,
            "details": self.details,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# digraph closed forms


def digraph_bound(n: int, k: int, kind) -> BoundResult:
    """Extremal value of the objective over strongly connected digraphs with
    the given vertex connectivity (upper for A/Q, lower for D/DQ)."""
    kind = MatrixKind.coerce(kind)
    members = _endpoint_members(KnkpDigraph, n, k)  # p=1, p=n-k-1; checks k first
    K = MatrixKind
    if kind is K.ADJACENCY:
        value = (n - 2 + math.sqrt((n - 2) ** 2 + 4 * k)) / 2
    elif kind is K.SIGNLESS_LAPLACIAN:
        value = (2 * n + k - 3 + math.sqrt((2 * n - k - 3) ** 2 + 4 * k)) / 2
        members = members[-1:]
    elif kind is K.DISTANCE:
        value = (n - 2 + math.sqrt((n + 2) ** 2 - 4 * k - 8)) / 2
    elif kind is K.DISTANCE_SIGNLESS_LAPLACIAN:
        value = (3 * n - 3 + math.sqrt((n + 3) ** 2 - 8 * k - 16)) / 2
        members = members[:1]
    else:
        raise InvalidParameters(f"no digraph bound for kind {kind.value}")
    return BoundResult(value, members, kind.sense)


def digraph_quotient_eigs(n: int, k: int, p: int, kind) -> Spectrum:
    """The three quotient eigenvalues of the digraph family member."""
    kind = MatrixKind.coerce(kind)
    KnkpDigraph(n, k, p)  # validates parameter bounds
    K = MatrixKind
    if kind is K.ADJACENCY:
        base, disc = -1.0, 4 * p * p - 4 * (n - k) * p + n * n
        mid = n - 2
    elif kind is K.SIGNLESS_LAPLACIAN:
        base, disc = float(n - 2), (n - 3 * p) ** 2 + 8 * p * k
        mid = 3 * n - p - 4
    elif kind is K.DISTANCE:
        base, disc = -1.0, -4 * p * p + 4 * (n - k) * p + n * n
        mid = n - 2
    elif kind is K.DISTANCE_SIGNLESS_LAPLACIAN:
        base, disc = float(n - 2), (n + 3 * p) ** 2 - 16 * p * p - 8 * k * p
        mid = 3 * n + p - 4
    else:
        raise InvalidParameters(f"no quotient closed form for kind {kind.value}")
    root = math.sqrt(disc)
    return Spectrum.from_pairs(
        [(base, 1), ((mid + root) / 2, 1), ((mid - root) / 2, 1)]
    )


def digraph_laplacian_spectra(n: int, k: int, p: int, kind) -> Spectrum:
    """Full Laplacian / distance Laplacian spectrum of the digraph family."""
    kind = MatrixKind.coerce(kind)
    fam = KnkpDigraph(n, k, p)
    q = fam.q
    if kind is MatrixKind.LAPLACIAN:
        return Spectrum.from_pairs([(0, 1), (n, p + k - 1), (n - p, q)])
    if kind is MatrixKind.DISTANCE_LAPLACIAN:
        return Spectrum.from_pairs([(0, 1), (n, p + k - 1), (n + p, q)])
    raise InvalidParameters(f"kind must be L or DL, got {kind.value}")


# ---------------------------------------------------------------------------
# graph closed forms


def _adjacency_cubic(n: int, k: int) -> Polynomial:
    return Polynomial([k * (n - k - 2), -(n + k - 2), -(n - 3), 1])


def _distance_cubic(n: int, k: int) -> Polynomial:
    return Polynomial([k * n - k * k + 2 * k - 4 * n + 4, -(5 * n - 3 * k - 6), -(n - 3), 1])


def _distance_signless_cubic(n: int, k: int) -> Polynomial:
    # Linear coefficient is 8n^2 - 3kn - 24n + 8k + 16: forced by the p=1
    # specialization of the (p,q,k) quotient cubic; the widely quoted
    # expanded form with -19kn fails the quotient identity and exceeds the
    # row-sum bound, so it is corrected here (see the thm5.2.iv claim note).
    return Polynomial(
        [
            -4 * n**3 + 2 * (k + 10) * n**2 - 2 * (5 * k + 16) * n + 12 * k + 16,
            8 * n**2 - 3 * k * n - 24 * n + 8 * k + 16,
            -(5 * n - k - 6),
            1,
        ]
    )


# the bound cubics, the p=1 specializations of the quotient cubics
_GRAPH_BOUND_CUBICS = {
    MatrixKind.ADJACENCY: _adjacency_cubic,
    MatrixKind.DISTANCE: _distance_cubic,
    MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN: _distance_signless_cubic,
}


def graph_bound(n: int, k: int, kind) -> BoundResult:
    """Extremal value of the objective over connected graphs with the given
    vertex connectivity, attained by the p=1 family member (and its mirror
    p=n-k-1, which is isomorphic to it)."""
    kind = MatrixKind.coerce(kind)
    members = _endpoint_members(KnkpGraph, n, k)
    if kind is MatrixKind.SIGNLESS_LAPLACIAN:
        value = (2 * n + k - 4 + math.sqrt((2 * n - k - 4) ** 2 + 8 * k)) / 2
    elif kind in _GRAPH_BOUND_CUBICS:
        value = largest_real_root(_GRAPH_BOUND_CUBICS[kind](n, k))
    else:
        raise InvalidParameters(f"no graph bound for kind {kind.value}")
    return BoundResult(value, members, kind.sense)


def graph_quotient_charpolys(n: int, k: int, p: int, kind) -> Polynomial:
    """Exact cubic whose roots are the graph family's quotient eigenvalues.

    The A and D cubics use the explicit coefficient formulas; Q and DQ are
    the characteristic polynomials of the exact 3x3 quotient (the displayed
    expansions are cross-checked as identities in the claim handlers).
    """
    kind = MatrixKind.coerce(kind)
    fam = KnkpGraph(n, k, p)
    K = MatrixKind
    if kind is K.ADJACENCY:
        pq = p * fam.q
        return Polynomial([pq - n + pq * k + 1, pq - 2 * n + 3, -(n - 3), 1])
    if kind is K.DISTANCE:
        pq = p * fam.q
        return Polynomial([pq * k - 3 * pq - n + 1, -(3 * pq + 2 * n - 3), -(n - 3), 1])
    if kind in (K.SIGNLESS_LAPLACIAN, K.DISTANCE_SIGNLESS_LAPLACIAN):
        return char_poly(adjacency_blockspec(fam, kind).quotient())
    raise InvalidParameters(f"no quotient cubic for kind {kind.value}")


def graph_q_quotient_eigs(n: int, k: int, p: int) -> Spectrum:
    """Closed-form quotient eigenvalues of the graph family's signless
    Laplacian: n-2 plus a quadratic-surd pair."""
    KnkpGraph(n, k, p)
    disc = (k - 2 * n) ** 2 + 16 * p * (k - n + p)
    root = math.sqrt(disc)
    mid = n - 2 + k / 2
    return Spectrum.from_pairs(
        [(float(n - 2), 1), (mid + root / 2, 1), (mid - root / 2, 1)]
    )


def graph_laplacian_spectra(n: int, k: int, p: int, kind) -> Spectrum:
    """Full Laplacian / distance Laplacian spectrum of the graph family.

    Empty multiplicity classes (p=1 or q=1) are dropped by construction.
    """
    kind = MatrixKind.coerce(kind)
    fam = KnkpGraph(n, k, p)
    q = fam.q
    if kind is MatrixKind.LAPLACIAN:
        return Spectrum.from_pairs(
            [(0, 1), (k, 1), (n, k), (p + k, p - 1), (q + k, q - 1)]
        )
    if kind is MatrixKind.DISTANCE_LAPLACIAN:
        return Spectrum.from_pairs(
            [(0, 1), (n + p + q, 1), (n, k), (n + q, p - 1), (n + p, q - 1)]
        )
    raise InvalidParameters(f"kind must be L or DL, got {kind.value}")


# ---------------------------------------------------------------------------
# factored characteristic polynomials


def _lifted_charpoly(sizes, p, quotient_poly: Polynomial) -> Polynomial:
    """The quotient's characteristic polynomial times (x - p_i)^(n_i - 1) for
    every block, one linear factor at a time on a plain coefficient list."""
    coeffs = list(quotient_poly.coeffs)
    for p_i, size in zip(p, sizes):
        for _ in range(size - 1):
            coeffs = [a - p_i * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return Polynomial(coeffs)


def _blockspec_charpoly(spec: BlockSpec) -> Polynomial:
    """Quotient characteristic polynomial times the repeated linear factors."""
    return _lifted_charpoly(spec.sizes, spec.p, char_poly(spec.quotient()))


def multipartite_charpoly(parts, kind) -> Polynomial:
    """Exact characteristic polynomial of a complete multipartite matrix."""
    return _blockspec_charpoly(adjacency_blockspec(CompleteMultipartite(tuple(parts)), kind))


def cliquestar_charpoly(sizes, kind) -> Polynomial:
    """Exact characteristic polynomial of a clique star matrix."""
    return _blockspec_charpoly(adjacency_blockspec(CliqueStar(tuple(sizes)), kind))


_ONE = Polynomial([1])


def _prod(polys) -> Polynomial:
    out = _ONE
    for poly in polys:
        out = out * poly
    return out


def _secular(shifts, weights, head=_ONE, weight=_ONE) -> Polynomial:
    """The secular bracket of a quotient determinant:
    head * prod_i (x - s_i) - weight * sum_i w_i * prod_{j!=i} (x - s_j)."""
    factors = [Polynomial.linear(s) for s in shifts]
    total = head * _prod(factors)
    for i, wi in enumerate(weights):
        total = total - weight * _prod(f for j, f in enumerate(factors) if j != i).scale(wi)
    return total


def multipartite_display_charpoly(parts, kind) -> Polynomial:
    """The displayed factored form of the multipartite characteristic
    polynomial (prefactor times an expanded quotient determinant)."""
    kind = MatrixKind.coerce(kind)
    parts = tuple(int(x) for x in parts)
    CompleteMultipartite(parts)
    n, t = sum(parts), len(parts)
    x = Polynomial([0, 1])
    K = MatrixKind

    if kind is K.ADJACENCY:
        return x ** (n - t) * _secular([-ni for ni in parts], parts)
    if kind is K.LAPLACIAN:
        pref = _prod(Polynomial.linear(n - ni) ** (ni - 1) for ni in parts)
        return x * Polynomial.linear(n) ** (t - 1) * pref
    if kind is K.SIGNLESS_LAPLACIAN:
        pref = _prod(Polynomial.linear(n - ni) ** (ni - 1) for ni in parts)
        return pref * _secular([n - 2 * ni for ni in parts], parts)
    if kind is K.DISTANCE:
        return Polynomial.linear(-2) ** (n - t) * _secular([ni - 2 for ni in parts], parts)
    if kind is K.DISTANCE_LAPLACIAN:
        pref = _prod(Polynomial.linear(n + ni) ** (ni - 1) for ni in parts)
        return x * Polynomial.linear(n) ** (t - 1) * pref
    pref = _prod(Polynomial.linear(n + ni - 4) ** (ni - 1) for ni in parts)
    return pref * _secular([n + 2 * ni - 4 for ni in parts], parts)


def cliquestar_display_charpoly(sizes, kind) -> Polynomial:
    """The factored clique-star characteristic polynomial, with the printed
    display's two defects repaired: the Laplacian forms carry the product
    over all cliques, and the signless Laplacian bracket's first factor is
    (x - n + 1), not x. See the claim catalogue notes."""
    kind = MatrixKind.coerce(kind)
    sizes = tuple(int(x) for x in sizes)
    star = CliqueStar(sizes)
    n, k = star.n, len(sizes)
    x = Polynomial([0, 1])
    K = MatrixKind

    leaves = [ni - 1 for ni in sizes]
    if kind is K.ADJACENCY:
        pref = Polynomial.linear(-1) ** (n - k - 1)
        return pref * _secular([ni - 2 for ni in sizes], leaves, x)
    if kind is K.LAPLACIAN:
        pref = _prod(Polynomial.linear(ni) ** (ni - 2) for ni in sizes)
        return x * Polynomial.linear(n) * Polynomial.linear(1) ** (k - 1) * pref
    if kind is K.SIGNLESS_LAPLACIAN:
        pref = _prod(Polynomial.linear(ni - 2) ** (ni - 2) for ni in sizes)
        return pref * _secular([2 * ni - 3 for ni in sizes], leaves, Polynomial.linear(n - 1))
    if kind is K.DISTANCE:
        pref = Polynomial.linear(-1) ** (n - k - 1)
        return pref * _secular([-ni for ni in sizes], leaves, x, Polynomial([1, 2]))
    if kind is K.DISTANCE_LAPLACIAN:
        pref = _prod(Polynomial.linear(2 * n - ni) ** (ni - 2) for ni in sizes)
        return (
            x * Polynomial.linear(n) * Polynomial.linear(2 * n - 1) ** (k - 1) * pref
        )
    pref = _prod(Polynomial.linear(2 * n - ni - 2) ** (ni - 2) for ni in sizes)
    return pref * _secular(
        [2 * n - 2 * ni - 1 for ni in sizes],
        leaves,
        Polynomial.linear(n - 1),
        Polynomial([3 - 2 * n, 2]),
    )


def knkp_graph_dq_display_cubic(p: int, q: int, k: int) -> Polynomial:
    """The long expanded distance-signless-Laplacian quotient cubic in
    (p, q, k); verified once against the exact quotient char poly."""
    c2 = -(5 * p + 5 * q + 4 * k - 6)
    c1 = (
        8 * p * p + 8 * q * q + 5 * k * k + 12 * p * q + 13 * p * k + 13 * q * k
        - 20 * p - 20 * q - 16 * k + 12
    )
    c0 = (
        -4 * p**3 - 4 * q**3 - 2 * k**3
        - 8 * p * p * q - 8 * p * q * q
        - 10 * p * p * k - 10 * q * q * k
        - 8 * p * k * k - 8 * q * k * k
        - 16 * p * q * k
        + 16 * p * p + 16 * q * q + 10 * k * k
        + 24 * p * q + 26 * p * k + 26 * q * k
        - 20 * p - 20 * q - 16 * k + 8
    )
    return Polynomial([c0, c1, c2, 1])


# ---------------------------------------------------------------------------
# claim catalogue


_REQUIRED = object()  # the default of a parameter the claim cannot run without


def _coerce(name: str, shape: type, value):
    """``value`` as an int (shape ``int``) or as a tuple of ints (shape
    ``tuple``), from ints or from text, a tuple's items colon-separated as
    in ``2:3``; any other value raises InvalidParameters."""

    def to_int(item) -> int:
        return int(item) if isinstance(item, str) else operator.index(item)

    try:
        if shape is int:
            return to_int(value)
        items = value.split(":") if isinstance(value, str) else value
        if isinstance(items, (tuple, list)):
            return tuple(to_int(item) for item in items)
    except (TypeError, ValueError):
        pass
    text = "a colon-separated tuple of integers such as 2:3" if shape is tuple else "an integer"
    raise InvalidParameters(f"parameter {name} must be {text}, got {value!r}")


# the sub-claims of the connectivity theorems, and of the Laplacian spectra
_SUBCLAIMS = {
    "i": MatrixKind.ADJACENCY,
    "ii": MatrixKind.SIGNLESS_LAPLACIAN,
    "iii": MatrixKind.DISTANCE,
    "iv": MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN,
}
_LAPLACIAN_SUBCLAIMS = {"i": MatrixKind.LAPLACIAN, "ii": MatrixKind.DISTANCE_LAPLACIAN}


def _digraph_member(n, k, p, kind, fam, b_poly, full):
    """(deviation, identities hold, quotient radius) of one digraph family
    member: its closed-form quotient eigenvalues lie in its spectrum."""
    closed = digraph_quotient_eigs(n, k, p, kind)
    return full.containment_deviation(closed), True, closed.max_real()


def _graph_member(n, k, p, kind, fam, b_poly, full):
    """(deviation, identities hold, quotient radius) of one graph family
    member, given the char poly of its quotient B: its quotient cubic is
    that poly (and, for DQ, the displayed expansion; at p=1, the bound cubic
    up to scale); Q's closed-form quotient eigenvalues lie in its spectrum."""
    # Q's and DQ's quotient cubic is char_poly(B) itself
    explicit = kind in (MatrixKind.ADJACENCY, MatrixKind.DISTANCE)
    cubic = graph_quotient_charpolys(n, k, p, kind) if explicit else b_poly
    ok = cubic == b_poly
    if kind is MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN:
        ok &= cubic == knkp_graph_dq_display_cubic(p, fam.q, k)
    if p == 1 and kind in _GRAPH_BOUND_CUBICS:
        ok &= cubic.monic() == _GRAPH_BOUND_CUBICS[kind](n, k).monic()
    if kind is MatrixKind.SIGNLESS_LAPLACIAN:
        closed = graph_q_quotient_eigs(n, k, p)
        return full.containment_deviation(closed), ok, closed.max_real()
    return 0.0, ok, largest_real_root(cubic)


# What the digraph and graph forms of the connectivity theorem differ in:
# the family, its bound, the checks on each member, and the catalogue's
# description and notes.
_ConnectivityTheorem = namedtuple(
    "_ConnectivityTheorem", "claim family bound check_member description notes"
)

_CONNECTIVITY_THEOREMS = (
    _ConnectivityTheorem(
        "thm4.3", KnkpDigraph, digraph_bound, _digraph_member,
        "digraph connectivity-class {mode} of the {kind} spectral radius: "
        "closed-form bound, quotient eigenvalues, equality members",
        {},
    ),
    _ConnectivityTheorem(
        "thm5.2", KnkpGraph, graph_bound, _graph_member,
        "graph connectivity-class {mode} of the {kind} spectral radius: "
        "cubic/closed-form bound, quotient polynomials, equality members",
        {
            "iv": "the expanded DQ bound cubic is used with linear coefficient "
            "8n^2 - 3kn - 24n + 8k + 16; the often-printed -19kn variant "
            "contradicts the quotient matrix and the row-sum bound"
        },
    ),
)


def _handle_connectivity_theorem(theorem, kind: MatrixKind, params: dict):
    n, k = params["n"], params["k"]
    bound = theorem.bound(n, k, kind)
    ps = range(1, n - k)
    fams = [theorem.family(n, k, p) for p in ps]
    specs = [adjacency_blockspec(fam, kind) for fam in fams]
    # every member from one stacked build, then one solver call and one exact
    # char-poly pass per integer stack, of the members and of their quotients
    stack = build_matrices([build(fam) for fam in fams], kind)
    quotients = np.array([spec.quotient().rows for spec in specs], dtype=np.int64)
    full_values = eigvals_stack(stack.astype(np.float64))
    quotient_values = eigvals_stack(quotients.astype(np.float64))
    dev, identities_ok, values = 0.0, True, {}
    for p, fam, spec, m_vals, b_vals, m_poly, b_poly in zip(
        ps, fams, specs, full_values, quotient_values,
        integer_char_polys(stack), integer_char_polys(quotients),
    ):
        full = Spectrum.from_values(m_vals)
        member_dev, member_ok, values[p] = theorem.check_member(n, k, p, kind, fam, b_poly, full)
        # exact companion to the numeric comparisons
        lifted = _lifted_charpoly(spec.sizes, spec.p, b_poly)
        identities_ok &= member_ok & (lifted == m_poly)
        dev = max(
            dev,
            member_dev,
            _lifted_spectrum(spec.sizes, spec.p, b_vals).deviation(full),
            abs(values[p] - float(np.max(np.abs(m_vals)))),
        )
    claimed = sorted({member.p for member in bound.extremal_members})
    observed = list(_optimum(np.array(ps), np.array(list(values.values())), kind.sense)[1])
    dev = max(dev, abs(values[claimed[0]] - bound.value))
    passed = observed == claimed and identities_ok and dev <= _NUMERIC_TOL
    return passed, dev, {
        "kind": kind.value,
        "bound": bound.value,
        "sense": bound.sense,
        "values_by_p": {str(p): v for p, v in values.items()},
        "claimed_extremal_p": claimed,
        "observed_extremal_p": observed,
        "polynomial_identities": identities_ok,
    }


def _handle_laplacian_spectra(family, spectra, kind: MatrixKind, params: dict):
    n, k, p = params["n"], params["k"], params["p"]
    fam = family(n, k, p)
    closed = spectra(n, k, p, kind)
    numeric = eigenvalues(build_matrices([build(fam)], kind)[0])
    dev = closed.deviation(numeric)
    return dev <= _NUMERIC_TOL, dev, {
        "kind": kind.value,
        "closed_spectrum": closed.to_json(),
        "numeric_spectrum": numeric.to_json(),
    }


_PETERSEN_QUOTIENTS = {
    MatrixKind.ADJACENCY: ((2, 1), (1, 2)),
    MatrixKind.LAPLACIAN: ((1, -1), (-1, 1)),
    MatrixKind.SIGNLESS_LAPLACIAN: ((5, 1), (1, 5)),
    MatrixKind.DISTANCE: ((6, 9), (9, 6)),
    MatrixKind.DISTANCE_LAPLACIAN: ((9, -9), (-9, 9)),
    MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN: ((21, 9), (9, 21)),
}

_PETERSEN_RADII = {
    MatrixKind.ADJACENCY: 3.0,
    MatrixKind.LAPLACIAN: 5.0,
    MatrixKind.SIGNLESS_LAPLACIAN: 6.0,
    MatrixKind.DISTANCE: 15.0,
    MatrixKind.DISTANCE_LAPLACIAN: 18.0,
    MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN: 30.0,
}


def _handle_petersen(params: dict):
    graph = build(Petersen())
    part = Partition.from_sizes((5, 5))
    dev = 0.0
    quotients_exact = True
    radii, quotients = {}, {}
    for kind in MatrixKind:
        matrix = build_matrix(graph, kind)
        quotients[kind] = quotient_matrix(matrix, part)
        quotients_exact &= quotients[kind].rows == _PETERSEN_QUOTIENTS[kind]
        radii[kind.value] = spectral_radius(matrix.to_numpy())
        dev = max(dev, abs(radii[kind.value] - _PETERSEN_RADII[kind]))
    # documented negative case: the Laplacian quotient radius is not mu
    rho_bl = spectral_radius(quotients[MatrixKind.LAPLACIAN].to_numpy())
    negative_ok = abs(rho_bl - 2.0) <= _NUMERIC_TOL and abs(radii["L"] - 5.0) <= _NUMERIC_TOL
    passed = quotients_exact and negative_ok and dev <= _NUMERIC_TOL
    return passed, dev, {
        "radii": radii,
        "quotients_exact": quotients_exact,
        "laplacian_quotient_radius": rho_bl,
    }


# item -> note; the items number the kinds from 1 in MatrixKind order
_CLIQUESTAR_NOTES = {
    2: "printed factorization omits the product over cliques; the product form is implemented",
    3: "printed bracket starts with a bare x; the rederived quotient gives (x - n + 1)",
    5: "printed factorization omits the product over cliques; the product form is implemented",
}


# claim -> (parameter, family, factored and displayed char polys, name, notes)
_FACTORED_CHARPOLYS = {
    "ex3.5": (
        "parts", CompleteMultipartite, multipartite_charpoly, multipartite_display_charpoly,
        "complete multipartite", {},
    ),
    "ex3.6": (
        "sizes", CliqueStar, cliquestar_charpoly, cliquestar_display_charpoly,
        "clique star", _CLIQUESTAR_NOTES,
    ),
}


def _handle_factored_charpoly(claim: str, kind: MatrixKind, params: dict):
    name, family, factored_charpoly, display_charpoly, _, _ = _FACTORED_CHARPOLYS[claim]
    values = params[name]
    factored = factored_charpoly(values, kind)
    display = display_charpoly(values, kind)
    direct = char_poly(build_matrix(build(family(values)), kind))
    exact = factored == direct and display == direct
    return exact, 0.0 if exact else math.inf, {
        "kind": kind.value,
        "factored_equals_direct": factored == direct,
        "display_equals_direct": display == direct,
        "coefficients": direct.coefficient_strings(),
    }


def _handle_corollary_bounds(claim_id: str, params: dict):
    n = params["n"]
    certificates = bound_scan(n)
    if claim_id == "cor2.5":
        expected_masks = labeled_isomorph_masks(build(BidirectedComplete(n)))
        expectations = {
            ("rho", "max"): n - 1,
            ("q", "max"): 2 * n - 2,
            ("rhoD", "min"): n - 1,
            ("qD", "min"): 2 * n - 2,
        }
    else:
        expected_masks = labeled_isomorph_masks(build(DirectedCycle(n)))
        expectations = {
            ("rho", "min"): 1,
            ("q", "min"): 2,
            ("rhoD", "max"): n * (n - 1) / 2,
            ("qD", "max"): n * (n - 1),
        }
    dev = 0.0
    sets_exact = True
    detail = {}
    for key, expected_value in expectations.items():
        cert = certificates[key]
        dev = max(dev, abs(cert.value - expected_value))
        sets_exact &= set(cert.optimizers) == set(expected_masks)
        detail["/".join(key)] = {
            "value": cert.value,
            "optimizers": len(cert.optimizers),
            "examined": cert.examined,
        }
    passed = sets_exact and dev <= _NUMERIC_TOL
    return passed, dev, {"checks": detail, "equality_sets_exact": sets_exact}


def _handle_block_spectrum_random(params: dict):
    trials, seed = params["trials"], params["seed"]
    n_range, t_range = (1, params["n_max"]), (1, params["t_max"])
    _check_probe_parameters(trials, n_range, t_range)
    dev = 0.0
    for segment in _probe_chunks(trials, seed, n_range, t_range, (-5, 5)):
        m_values, b_values = stacked_spectra(segment)
        for (sizes, coeffs), m_vals, b_vals in zip(_segment_trials(segment), m_values, b_values):
            lifted = _lifted_spectrum(sizes, coeffs[len(sizes) : 2 * len(sizes)], b_vals)
            dev = max(dev, lifted.deviation(Spectrum.from_values(m_vals, cluster_tol=0.0)))
    return dev <= _NUMERIC_TOL, dev, {}


@dataclass(frozen=True)
class ClaimEntry:
    """A catalogued claim: its handler, the parameters it takes and its note.

    The handler maps the coerced parameters to (passed, max_deviation,
    details); ``verify_claim`` adds the claim id, the parameters and the
    note to make the report. ``params`` lists each parameter as (name,
    shape, default): shape ``int``, or ``tuple`` for a tuple of ints (``2:3``
    on the command line); the default ``_REQUIRED`` marks one the claim
    needs. ``order`` maps the coerced parameters to the order of the
    matrices the claim builds, which ``verify_claim`` holds to
    ``CLAIM_ORDER_BUDGET``; a claim without one bounds its work itself.
    """

    description: str
    handler: Callable[[dict], tuple[bool, float, dict]]
    params: tuple[tuple[str, type, object], ...] = ()
    order: Callable[[dict], int] | None = None
    note: str = ""


def _member_order(family: type, name: str, params: dict) -> int:
    return family(params[name]).n


def _catalogue() -> dict[str, ClaimEntry]:
    claims: dict[str, ClaimEntry] = {}
    n_k = (("n", int, _REQUIRED), ("k", int, _REQUIRED))
    order_n = operator.itemgetter("n")
    for sub, kind in _SUBCLAIMS.items():
        for theorem in _CONNECTIVITY_THEOREMS:
            claims[f"{theorem.claim}.{sub}"] = ClaimEntry(
                description=theorem.description.format(mode=kind.sense, kind=kind.value),
                handler=partial(_handle_connectivity_theorem, theorem, kind),
                params=n_k,
                order=order_n,
                note=theorem.notes.get(sub, ""),
            )
    for sub, kind in _LAPLACIAN_SUBCLAIMS.items():
        for claim, family, spectra, word in (
            ("prop4.4", KnkpDigraph, digraph_laplacian_spectra, "digraph"),
            ("prop5.2", KnkpGraph, graph_laplacian_spectra, "graph"),
        ):
            claims[f"{claim}.{sub}"] = ClaimEntry(
                description=f"{word} family {kind.value} spectrum closed form",
                handler=partial(_handle_laplacian_spectra, family, spectra, kind),
                params=n_k + (("p", int, _REQUIRED),),
                order=order_n,
            )
    claims["ex3.3"] = ClaimEntry(
        description="Petersen table: six quotient matrices and six spectral radii",
        handler=_handle_petersen,
        note=(
            "the Laplacian is the documented negative case: its quotient radius 2 "
            "differs from the full Laplacian radius 5"
        ),
    )
    for claim, (name, family, _, _, family_name, notes) in _FACTORED_CHARPOLYS.items():
        for item, kind in enumerate(MatrixKind, 1):
            claims[f"{claim}.{item}"] = ClaimEntry(
                description=f"{family_name} factored char poly, kind {kind.value}",
                handler=partial(_handle_factored_charpoly, claim, kind),
                params=((name, tuple, _REQUIRED),),
                order=partial(_member_order, family, name),
                note=notes.get(item, ""),
            )
    for claim, extremes in (("cor2.5", "complete-digraph"), ("cor2.6", "directed-cycle")):
        claims[claim] = ClaimEntry(
            description=f"{extremes} extremes of all four objectives, full enumeration",
            handler=partial(_handle_corollary_bounds, claim),
            params=(("n", int, _REQUIRED),),
            note="verified by full enumeration at this n only",
        )
    claims["lem3.4.random"] = ClaimEntry(
        description="randomized block-spectrum identity over structured matrices",
        handler=_handle_block_spectrum_random,
        params=(("trials", int, 1000), ("seed", int, 0), ("t_max", int, 4), ("n_max", int, 20)),
    )
    return claims


CLAIMS = _catalogue()


def claim_ids() -> tuple[str, ...]:
    return tuple(sorted(CLAIMS))


def verify_claim(claim_id: str, params: dict | None = None) -> VerificationReport:
    """Run the registered verifier for a catalogued claim id.

    The parameters are checked against the claim's schema once, in this
    order: missing names, unknown names, each value's shape, then the order
    of the matrices the claim would build. The handler gets them coerced,
    with every default filled in.
    """
    if claim_id not in CLAIMS:
        raise UnknownClaim(
            f"unknown claim {claim_id!r}; known ids: {', '.join(claim_ids())}"
        )
    entry = CLAIMS[claim_id]
    params = params or {}
    missing = [
        name for name, _, default in entry.params if default is _REQUIRED and name not in params
    ]
    if missing:
        raise InvalidParameters(
            f"claim {claim_id} needs parameters: {', '.join(missing)}"
        )
    unknown = sorted(set(params).difference(name for name, _, _ in entry.params))
    if unknown:
        raise InvalidParameters(
            f"claim {claim_id} takes no parameters named: {', '.join(unknown)}"
        )
    coerced = {
        name: _coerce(name, shape, params.get(name, default))
        for name, shape, default in entry.params
    }
    order = entry.order(coerced) if entry.order else 0
    if order > CLAIM_ORDER_BUDGET:
        raise BudgetExceeded(
            f"claim matrices are capped at order {CLAIM_ORDER_BUDGET}, got {order}"
        )
    passed, deviation, details = entry.handler(coerced)
    return VerificationReport(claim_id, coerced, passed, deviation, details, entry.note)
