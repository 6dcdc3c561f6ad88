"""Exact/numeric linear algebra tests against independent oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eqspec.errors import ZeroPolynomial
from eqspec.families import (
    BidirectedComplete,
    CompleteMultipartite,
    DirectedCycle,
    KnkpDigraph,
    KnkpGraph,
    Petersen,
    build,
)
from eqspec.graphs import MatrixKind, build_matrix
from eqspec.linalg import (
    ExactMatrix,
    Polynomial,
    Spectrum,
    char_poly,
    char_polys,
    eigenvalues,
    integer_char_polys,
    largest_real_root,
    poly_roots,
    spectral_radius,
    squarefree_factors,
)

from oracles import (
    berkowitz_char_poly,
    bisection_largest_root,
    charpoly_by_interpolation,
    contains_within_tol,
    det_xi_minus_m,
    horner,
    perron_root,
    row_sum_bounds,
)


def _random_exact(rng, n, lo=-3, hi=3):
    return ExactMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


# ---------------------------------------------------------------------------
# exact scalars


@pytest.mark.parametrize(
    "entries, expected",
    [
        ((True, False), (1, 0)),
        ((Fraction(4, 2), 3), (2, 3)),
        ((Fraction(1, 2), True), (Fraction(1, 2), 1)),
        ((-7, 0), (-7, 0)),
    ],
)
def test_exact_constructors_normalize_scalars(entries, expected):
    matrix = ExactMatrix([entries, entries])
    assert matrix.rows == (expected, expected)
    assert [type(x) for x in matrix.rows[0]] == [type(x) for x in expected]
    poly = Polynomial(entries + (1,))
    assert poly.coeffs == expected + (1,)
    assert [type(c) for c in poly.coeffs] == [type(c) for c in expected + (1,)]


@pytest.mark.parametrize("bad", [1.0, np.int64(2), "3", None])
def test_exact_constructors_reject_inexact_scalars(bad):
    with pytest.raises(TypeError):
        ExactMatrix([[1, bad], [0, 1]])
    with pytest.raises(TypeError):
        Polynomial([1, bad])


def test_exact_constructors_take_generator_rows():
    matrix = ExactMatrix((x for x in row) for row in ((1, 2), (3, 4)))
    assert matrix.rows == ((1, 2), (3, 4))
    assert Polynomial(c for c in (1, 2, 0)).coeffs == (1, 2)


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_char_poly_zero_matrix():
    assert char_poly(ExactMatrix([[0, 0], [0, 0]])).coeffs == (0, 0, 1)


def test_char_poly_multipartite_factorization():
    # complete bipartite on parts (2,3): x^(n-t) * det(xI - B)
    a = build_matrix(build(CompleteMultipartite((2, 3))), "A")
    quotient_factor = Polynomial([-6, 0, 1])  # det(xI - [[0,3],[2,0]])
    assert char_poly(a) == Polynomial([0, 1]) ** 3 * quotient_factor


def test_char_poly_against_interpolation_oracle():
    rng = random.Random(12)
    for _ in range(25):
        m = _random_exact(rng, rng.randint(1, 5))
        assert char_poly(m) == charpoly_by_interpolation(m)


@pytest.mark.parametrize("n", [1, 2, 6, 9, 12])
def test_char_poly_integer_matrices_against_interpolation_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        m = _random_exact(rng, n, lo=-9, hi=9)
        assert char_poly(m) == charpoly_by_interpolation(m)


def test_char_poly_rational_matrices_against_interpolation_oracle():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(1, 8)
        m = ExactMatrix(
            [[Fraction(rng.randint(-9, 9), rng.randint(2, 7)) for _ in range(n)]
             for _ in range(n)]
        )
        poly = char_poly(m)
        assert poly == charpoly_by_interpolation(m)
        assert poly.is_monic and poly.degree == n


@pytest.mark.parametrize("family", [KnkpGraph, KnkpDigraph])
@pytest.mark.parametrize("kind", list(MatrixKind))
def test_char_poly_knkp_families_against_interpolation_oracle(family, kind):
    for k, p in ((1, 1), (3, 2), (5, 3)):
        m = build_matrix(build(family(9, k, p)), kind)
        assert char_poly(m) == charpoly_by_interpolation(m), (k, p)


def test_char_poly_evaluation_matches_exact_determinant():
    rng = random.Random(13)
    for _ in range(10):
        m = _random_exact(rng, rng.randint(2, 6))
        poly = char_poly(m)
        for _ in range(5):
            x = rng.randint(-10, 10)
            assert horner(poly, x) == det_xi_minus_m(m, x)


def test_char_poly_rational_entries():
    m = ExactMatrix([[Fraction(1, 2), 1], [1, Fraction(1, 2)]])
    assert char_poly(m) == Polynomial([Fraction(-3, 4), -1, 1])


def test_char_poly_monic_and_degree():
    rng = random.Random(14)
    m = _random_exact(rng, 7)
    poly = char_poly(m)
    assert poly.is_monic and poly.degree == 7


def _mixed_matrices(rng):
    """Orders 1-9 interleaved: small signed ints, Fractions whose
    denominators differ from entry to entry, and signed entries of 2**62
    or more, which take the Python reduction."""
    out = []
    for n in (9, 1, 5, 2, 8, 3, 7, 4, 6, 9, 1, 5):
        out.append(_random_exact(rng, n, -9, 9))
        out.append(ExactMatrix(
            [[Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(n)]
             for _ in range(n)]
        ))
        out.append(ExactMatrix(
            [[rng.choice((-1, 1)) * rng.randint(2**62, 2**70) if rng.random() < 0.3
              else rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        ))
    return out


def test_char_polys_mixed_batch_against_both_oracles_in_input_order():
    matrices = _mixed_matrices(random.Random(31))
    assert any(isinstance(x, Fraction) for m in matrices for row in m.rows for x in row)
    assert any(abs(x) >= 2**62 for m in matrices for row in m.rows for x in row)
    polys = char_polys(matrices)
    assert [poly.degree for poly in polys] == [m.n for m in matrices]
    for m, poly in zip(matrices, polys):
        assert poly == charpoly_by_interpolation(m) == berkowitz_char_poly(m)
    # a reversed batch gives the reversed list; a lone matrix, the same poly
    assert char_polys(matrices[::-1]) == polys[::-1]
    assert [char_poly(m) for m in matrices[:6]] == polys[:6]


@pytest.mark.parametrize("r", [1, 2**62 - 1, 10**30])
def test_char_polys_coefficient_bound_stress_at_order_32(r):
    n = 32
    rng = random.Random(r % 1000)
    coeffs = [rng.randint(-r, r) for _ in range(n)]
    companion = ExactMatrix(
        [[1 if i == j + 1 else 0 for j in range(n - 1)] + [-coeffs[i]] for i in range(n)]
    )
    scaled_identity = ExactMatrix([[r if i == j else 0 for j in range(n)] for i in range(n)])
    scaled_ones = ExactMatrix([[r] * n for _ in range(n)])
    matrices = [scaled_identity, scaled_ones, companion]
    assert char_polys(matrices) == [
        Polynomial.linear(r) ** n,
        Polynomial.linear(n * r) * Polynomial([0, 1]) ** (n - 1),
        Polynomial(coeffs + [1]),
    ]
    assert char_polys(matrices) == [berkowitz_char_poly(m) for m in matrices]


def test_char_polys_companion_at_order_32_against_interpolation():
    n = 32
    rng = random.Random(32)
    coeffs = [rng.randint(-10**15, 10**15) for _ in range(n)]
    companion = ExactMatrix(
        [[1 if i == j + 1 else 0 for j in range(n - 1)] + [-coeffs[i]] for i in range(n)]
    )
    assert char_polys([companion]) == [charpoly_by_interpolation(companion)]


def test_char_polys_zero_matrices_and_empty_batch():
    assert char_polys([]) == []
    zeros = [ExactMatrix([[0] * n] * n) for n in (1, 4, 32)]
    assert char_polys(zeros) == [Polynomial([0, 1]) ** n for n in (1, 4, 32)]
    assert char_polys(zeros) == [berkowitz_char_poly(m) for m in zeros]


def _integer_stacks(rng):
    """(m, n, n) stacks of orders 1-16: signed int32 entries over the full
    range (row sums past 2**31) and below 2**40 in int64, each with a zero
    matrix; one-matrix stacks of int64 entries up to 2**63 - 1, whose float
    row sums pass 2**53."""
    for n in range(1, 17):
        for dtype, high in ((np.int32, 2**31 - 1), (np.int64, 2**40)):
            stack = rng.integers(-high, high, (3, n, n), dtype=dtype, endpoint=True)
            stack[1] = 0
            yield stack
        yield rng.integers(-(2**63) + 1, 2**63 - 1, (1, n, n), dtype=np.int64)


def test_integer_char_polys_against_both_oracles_and_the_exact_entry():
    for stack in _integer_stacks(np.random.default_rng(16)):
        polys = integer_char_polys(stack)
        matrices = [ExactMatrix(rows) for rows in stack.tolist()]
        assert polys == char_polys(matrices)
        for m, poly in zip(matrices, polys):
            assert poly == berkowitz_char_poly(m) == charpoly_by_interpolation(m)


def test_integer_char_polys_of_an_empty_stack():
    for n in (1, 4):
        assert integer_char_polys(np.zeros((0, n, n), dtype=np.int32)) == []


# ---------------------------------------------------------------------------
# eigenvalues / spectral radius


def test_eigenvalues_identity():
    assert eigenvalues(np.eye(3)).pairs == ((1 + 0j, 3),)


def test_eigenvalues_petersen_adjacency():
    a = build_matrix(build(Petersen()), "A")
    spec = eigenvalues(a)
    expected = Spectrum.from_pairs([(3, 1), (1, 5), (-2, 4)])
    assert spec.isclose(expected, tol=1e-9)
    # cross-check the multiplicities exactly through the char poly
    factored = Polynomial.linear(3) * Polynomial.linear(1) ** 5 * Polynomial.linear(-2) ** 4
    assert char_poly(a) == factored


def test_eigenvalues_directed_triangle_roots_of_unity():
    a = build_matrix(build(DirectedCycle(3)), "A")
    spec = eigenvalues(a.to_numpy())
    expected = Spectrum.from_pairs(
        [(1, 1), (complex(-0.5, math.sqrt(3) / 2), 1), (complex(-0.5, -math.sqrt(3) / 2), 1)]
    )
    assert spec.isclose(expected, tol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_spectral_radius_directed_cycle(n):
    assert spectral_radius(build_matrix(build(DirectedCycle(n)), "A")) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_spectral_radius_complete_signless_laplacian(n):
    q = build_matrix(build(BidirectedComplete(n)), "Q")
    assert spectral_radius(q) == pytest.approx(2 * (n - 1), abs=1e-9)


def test_spectral_radius_petersen_distance_signless():
    dq = build_matrix(build(Petersen()), "DQ")
    assert spectral_radius(dq) == pytest.approx(30.0, abs=1e-9)


def test_eigenvalue_residuals_in_char_poly():
    rng = random.Random(15)
    for _ in range(5):
        n = rng.randint(2, 12)
        m = _random_exact(rng, n, -2, 2)
        poly = char_poly(m)
        scale = max(abs(c) for c in poly.coeffs)
        fc = [float(c) for c in poly.coeffs]
        for value in eigenvalues(m.to_numpy(), cluster_tol=0.0).values():
            acc = 0j
            for c in reversed(fc):
                acc = acc * value + c
            assert abs(acc) <= 1e-6 * max(1.0, scale)


# ---------------------------------------------------------------------------
# Perron root and row sums


def test_perron_root_all_ones():
    for n in (2, 3, 6):
        assert perron_root(np.ones((n, n))) == pytest.approx(n, abs=1e-9)


def test_perron_root_distance_of_directed_cycle():
    d = build_matrix(build(DirectedCycle(4)), "D")
    assert perron_root(d) == pytest.approx(6.0, abs=1e-9)


def test_perron_root_matches_eigensolver_on_random_irreducible():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = 8
        m = rng.uniform(0, 1, (n, n))
        m[rng.uniform(0, 1, (n, n)) < 0.5] = 0.0
        for i in range(n):  # a directed Hamilton cycle keeps it irreducible
            m[i, (i + 1) % n] = max(m[i, (i + 1) % n], 0.1)
        assert perron_root(m) == pytest.approx(spectral_radius(m), abs=1e-8)


def test_perron_root_rejects_bad_input():
    with pytest.raises(ValueError, match="nonnegative"):
        perron_root(np.array([[1.0, -0.1], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="irreducible"):
        perron_root(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_row_sum_bounds_examples():
    for n in (3, 5):
        dq = build_matrix(build(DirectedCycle(n)), "DQ")
        assert row_sum_bounds(dq) == (n * (n - 1), n * (n - 1))
        assert spectral_radius(dq) == pytest.approx(n * (n - 1), abs=1e-9)
    assert row_sum_bounds(np.eye(2)) == (1.0, 1.0)


def test_row_sum_bounds_knkp_digraph_distance():
    # distance row sums of the (6,2,1) digraph family member: p/k rows see
    # everything at distance 1, the q-cell reaches the p-cell at distance 2
    d = build_matrix(build(KnkpDigraph(6, 2, 1)), "D")
    assert row_sum_bounds(d) == (5.0, 6.0)
    with pytest.raises(ValueError, match="nonnegative"):
        row_sum_bounds(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_row_sums_bracket_perron_root_randomized():
    # min row sum <= perron root <= max row sum, with equality on either
    # side exactly when all row sums agree (irreducible case)
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        if trial % 4 == 0:
            # circulant: constant row sums force equality on both sides
            row = rng.uniform(0, 2, n)
            row[1 % n] = max(row[1 % n], 0.05)
            m = np.array([np.roll(row, shift) for shift in range(n)])
        else:
            m = rng.uniform(0, 2, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.7)
            for i in range(n):
                m[i, (i + 1) % n] = max(m[i, (i + 1) % n], 0.05)
        lo, hi = row_sum_bounds(m)
        rho = perron_root(m)
        assert lo - 1e-9 <= rho <= hi + 1e-9
        if hi - lo <= 1e-9:
            assert rho == pytest.approx(hi, abs=1e-9)
        else:
            assert lo + 1e-9 < rho < hi - 1e-9


def test_lemma_monotonicity_of_spectral_radius():
    # 0 <= A <= B gives rho(A) <= rho(B); strict when A < B and B irreducible
    rng = np.random.default_rng(9)
    strict_seen = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        b = rng.uniform(0, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.8)
        for i in range(n):
            b[i, (i + 1) % n] = max(b[i, (i + 1) % n], 0.1)
        mask = rng.uniform(0, 1, (n, n)) < 0.3
        a = np.where(mask, b * rng.uniform(0, 1, (n, n)), b)
        assert spectral_radius(a) <= spectral_radius(b) + 1e-9
        if (a < b).any():
            strict_seen += 1
            assert spectral_radius(a) < spectral_radius(b)
    assert strict_seen > 100


# ---------------------------------------------------------------------------
# polynomial roots


def test_poly_roots_simple():
    spec = poly_roots(Polynomial([-1, 0, 1]))
    assert spec.isclose(Spectrum.from_pairs([(1, 1), (-1, 1)]), tol=1e-12)


def test_poly_roots_triple_root_exact_multiplicity():
    spec = poly_roots(Polynomial.linear(2) ** 3)
    assert spec.pairs == ((2 + 0j, 3),)


def test_poly_roots_connectivity_cubic_vs_bisection():
    # x^3 - 3x^2 - 6x + 4, the adjacency bound cubic at (n, k) = (6, 2)
    cubic = Polynomial([4, -6, -3, 1])
    largest = max(v.real for v, _ in poly_roots(cubic).pairs)
    oracle = bisection_largest_root(cubic, 0, 10)
    assert largest == pytest.approx(oracle, abs=1e-10)
    assert largest == pytest.approx(4.2014723382, abs=1e-9)


@pytest.mark.parametrize(
    "coeffs, lo, hi, root",
    [
        # the DQ bound cubic at (n, k) = (12, 5), roots 25, 14 and 10, in its
        # Cauchy bound: 25 and 14 share the top grid cell that holds a root
        ([-3500, 740, -49, 1], 0, 3501, 25.0),
        # (x - 2)^2 (x - 1): the largest root has no sign change
        ([-4, 8, -5, 1], 0, 20, 2.0),
        ([-2, 0, 1], 0, 5, math.sqrt(2)),
    ],
)
def test_bisection_oracle_returns_the_largest_root(coeffs, lo, hi, root):
    assert bisection_largest_root(Polynomial(coeffs), lo, hi) == root


@pytest.mark.parametrize("coeffs", [[-2, 0, 1], [-2, 0, 0, 0, 1]], ids=["quadratic", "quartic"])
def test_largest_real_root_takes_cubics_only(coeffs):
    with pytest.raises(ValueError, match="cubic expected"):
        largest_real_root(Polynomial(coeffs))


def test_poly_roots_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        poly_roots(Polynomial([0]))


def test_squarefree_factors_mixed_multiplicities():
    p = Polynomial.linear(1) ** 2 * Polynomial.linear(-3) * Polynomial.linear(Fraction(1, 2)) ** 4
    factors = {(tuple(f.coeffs), m) for f, m in squarefree_factors(p)}
    assert ((3, 1), 1) in factors
    assert ((-1, 1), 2) in factors
    assert ((Fraction(-1, 2), 1), 4) in factors


def test_poly_roots_random_against_residuals():
    rng = random.Random(16)
    for _ in range(20):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(2, 7))] + [1]
        poly = Polynomial(coeffs)
        spec = poly_roots(poly)
        assert spec.order == poly.degree
        for value in spec.values():
            acc = 0j
            for c in reversed([float(x) for x in poly.coeffs]):
                acc = acc * value + c
            assert abs(acc) < 1e-8 * max(1.0, max(abs(c) for c in coeffs))


# ---------------------------------------------------------------------------
# Spectrum semantics


def _random_spectrum(rng):
    pairs = []
    for _ in range(rng.randint(1, 5)):
        pairs.append((complex(rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.randint(1, 3)))
    return Spectrum.from_pairs(pairs)


def test_spectrum_equality_reflexive_symmetric_monotone():
    rng = random.Random(17)
    for _ in range(200):
        a = _random_spectrum(rng)
        b = _random_spectrum(rng)
        assert a.isclose(a, tol=1e-12)
        assert a.isclose(b, tol=1e-7) == b.isclose(a, tol=1e-7)
        if a.isclose(b, tol=1e-7):
            assert a.isclose(b, tol=1e-5)


def test_spectrum_multiplicities_and_order():
    spec = Spectrum.from_values([1.0, 1.0 + 1e-9, 3.0, -2.0], cluster_tol=1e-6)
    assert spec.order == 4
    assert spec.pairs[0][0].real == pytest.approx(3.0)
    assert dict((round(v.real), m) for v, m in spec.pairs)[1] == 2


def test_spectrum_pairing_groups_real_parts_within_a_millionth():
    # a conjugate pair and a real value on one real part line up the same way
    # on both sides only while the real parts tie within 1e-6
    pair = [(1 + 1j, 1), (1 - 1j, 1)]
    spec = Spectrum.from_pairs([*pair, (1, 1)])
    near = Spectrum.from_pairs([*pair, (1 + 1e-12, 1)])
    far = Spectrum.from_pairs([*pair, (1 + 1e-5, 1)])
    assert spec.deviation(near) == pytest.approx(1e-12, abs=1e-15)
    assert spec.deviation(far) == pytest.approx(1.0, abs=1e-4)


def test_spectrum_containment_with_multiplicity():
    big = Spectrum.from_pairs([(3, 1), (1, 5), (-2, 4)])
    assert big.contains(Spectrum.from_pairs([(3, 1), (1, 1)]))
    assert big.contains(Spectrum.from_pairs([(1, 5)]))
    assert not big.contains(Spectrum.from_pairs([(1, 6)]))
    assert not big.contains(Spectrum.from_pairs([(2, 1)]))


def test_spectrum_containment_deviation_examples():
    big = Spectrum.from_pairs([(3, 1), (1, 2)])
    assert big.containment_deviation(Spectrum.from_pairs([(1, 2)])) == 0.0
    assert big.containment_deviation(Spectrum.from_pairs([(2, 1)])) == 1.0
    # the second 1.5 takes the remaining 1 after the first takes the 1 at 0.5
    assert big.containment_deviation(Spectrum.from_pairs([(1.5, 2)])) == 0.5
    assert big.containment_deviation(Spectrum.from_pairs([(1, 4)])) == math.inf
    assert big.containment_deviation(Spectrum.from_pairs([])) == 0.0


def _random_pool(rng, size):
    # small integer grids on both axes make equidistant (tied) candidates common
    return [complex(rng.randint(-3, 3), rng.choice((0, 0, 1, -1))) for _ in range(size)]


def test_spectrum_contains_agrees_with_tol_bounded_greedy_matcher():
    rng = random.Random(18)
    for _ in range(400):
        pool = _random_pool(rng, rng.randint(0, 7))
        targets = _random_pool(rng, rng.randint(0, 8))  # may outnumber the pool
        if rng.random() < 0.5:
            targets = [t + complex(rng.uniform(-0.3, 0.3), 0) for t in targets]
        big = Spectrum.from_pairs((v, 1) for v in pool)
        small = Spectrum.from_pairs((v, 1) for v in targets)
        dev = big.containment_deviation(small)
        if len(targets) > len(pool):
            assert dev == math.inf
        tols = (1e-7, 0.25, 0.5, 1.0, 1.5, 2.0, 10.0, dev, math.nextafter(dev, math.inf))
        # a tolerance of 0 admits no match at all; only the empty target
        # multiset then differs (the oracle accepts it, 0.0 < 0 does not)
        for tol in (t for t in tols if t > 0):
            expected = contains_within_tol(big.values(), small.values(), tol)
            assert big.contains(small, tol) == expected
            assert (dev < tol) == expected
