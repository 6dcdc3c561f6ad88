"""Partitions, quotient matrices, block spectra, interlacing, probes."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eqspec import quotient
from eqspec.errors import (
    DimensionMismatch,
    InvalidParameters,
    NotEquitable,
    NotNonnegative,
    NotSymmetric,
    ParseError,
)
from eqspec.families import (
    CompleteMultipartite,
    KnkpDigraph,
    KnkpGraph,
    Petersen,
    adjacency_blockspec,
    build,
    natural_partition,
)
from eqspec.graphs import Graph, build_matrix
from eqspec.linalg import ExactMatrix, Spectrum, eigenvalues, spectral_radius
from eqspec.quotient import (
    BlockSpec,
    Partition,
    _as_spec,
    _equitable_quotient,
    _realize_stacks,
    _segment_trials,
    conjecture_probe,
    format_partition,
    interlacing_check,
    is_equitable,
    lift_check,
    parse_partition,
    quotient_matrix,
    realize_block_matrix,
    stacked_spectra,
)

from oracles import (
    block_spectrum,
    is_equitable_blockwise,
    quotient_matrix_blockwise,
    quotient_matrix_by_rows,
    realize_blockwise,
)

PETERSEN_PART = Partition.from_sizes((5, 5))


def _path3_adjacency() -> ExactMatrix:
    return build_matrix(Graph(3, [(0, 1), (1, 2)]), "A")


# ---------------------------------------------------------------------------
# partitions


def test_partition_parse_and_format():
    part = parse_partition("{0,1,2|3,4|5}")
    assert part.cells == ((0, 1, 2), (3, 4), (5,))
    assert part.sizes == (3, 2, 1)
    assert format_partition(part) == "{0,1,2|3,4|5}"


@pytest.mark.parametrize("text", ["{0,1|1,2}", "{0|2}", "{a|1}", "{|0}"])
def test_partition_parse_rejects_bad_input(text):
    with pytest.raises(ParseError):
        parse_partition(text)


@pytest.mark.parametrize(
    "cells, message",
    [
        ([], "cells must be nonempty"),
        ([[0], []], "cells must be nonempty"),
        ([[0, 1], [1]], "cells must be disjoint"),
        ([[0], [2]], "cells must cover 0..n-1 exactly"),
    ],
)
def test_partition_rejects_bad_cells_with_invalid_parameters(cells, message):
    with pytest.raises(InvalidParameters, match=message):
        Partition(cells)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{0,1|1}", "invalid partition '{0,1|1}': cells must be disjoint"),
        ("{0|2}", "invalid partition '{0|2}': cells must cover 0..n-1 exactly"),
    ],
)
def test_partition_parse_keeps_the_constructor_message(text, message):
    with pytest.raises(ParseError) as info:
        parse_partition(text)
    assert str(info.value) == message


_TABLE = ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "sizes, l, s, message",
    [
        ((), (), (), "BlockSpec needs at least one block"),
        ((2, 0), (1, 1), _TABLE, "block sizes must be at least 1"),
        ((2, 1), (1,), _TABLE, "coefficient lists must match the block count"),
        ((2, 1), (1, 1), ((0, 1), (1,)), "s must be a t x t table"),
    ],
)
def test_blockspec_rejects_bad_shapes_with_invalid_parameters(sizes, l, s, message):
    with pytest.raises(InvalidParameters, match=message):
        BlockSpec(sizes=sizes, l=l, p=(0,) * len(sizes), s=s)


def test_partition_discrete():
    assert Partition.discrete(3).cells == ((0,), (1,), (2,))


# ---------------------------------------------------------------------------
# quotient matrices


def test_petersen_quotients_match_displayed_values():
    g = build(Petersen())
    expected = {
        "A": ((2, 1), (1, 2)),
        "L": ((1, -1), (-1, 1)),
        "Q": ((5, 1), (1, 5)),
        "D": ((6, 9), (9, 6)),
        "DL": ((9, -9), (-9, 9)),
        "DQ": ((21, 9), (9, 21)),
    }
    for kind, rows in expected.items():
        b = quotient_matrix(build_matrix(g, kind), PETERSEN_PART)
        assert b.rows == rows


def test_discrete_partition_quotient_is_identity_transform():
    rng = random.Random(31)
    m = ExactMatrix([[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)])
    assert quotient_matrix(m, Partition.discrete(5)) == m
    arr = m.to_numpy()
    assert np.array_equal(quotient_matrix(arr, Partition.discrete(5)), arr)


def test_quotient_matrix_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        quotient_matrix(ExactMatrix([[0] * 3] * 3), Partition.from_sizes((2, 2)))
    # the ground set is checked before equitability
    with pytest.raises(DimensionMismatch):
        lift_check(-np.ones((3, 3)), Partition.from_sizes((2, 2)))


def test_quotient_preserves_constant_row_sums():
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randint(2, 8)
        # build a matrix with constant row sum by fixing the last column
        target = rng.randint(-5, 5)
        rows = []
        for _ in range(n):
            row = [rng.randint(-3, 3) for _ in range(n - 1)]
            row.append(target - sum(row))
            rows.append(row)
        m = ExactMatrix(rows)
        sizes = []
        left = n
        while left:
            s = rng.randint(1, left)
            sizes.append(s)
            left -= s
        b = quotient_matrix(m, Partition.from_sizes(sizes))
        assert set(b.row_sums()) == {target}


# ---------------------------------------------------------------------------
# equitability


def test_petersen_partition_is_equitable_for_all_kinds():
    g = build(Petersen())
    for kind in ("A", "L", "Q", "D", "DL", "DQ"):
        assert is_equitable(build_matrix(g, kind), PETERSEN_PART)


def test_path_partition_equitability():
    a = _path3_adjacency()
    assert is_equitable(a, parse_partition("{0,2|1}"))
    assert not is_equitable(a, parse_partition("{0,1|2}"))


def test_is_equitable_float_tolerance():
    m = np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
    assert is_equitable(m, Partition.from_sizes((2,)))


def _shuffled_equitable(rng, spec: BlockSpec):
    """The realized spec with its indices shuffled, and the partition that
    the shuffle makes of its blocks: equitable, with non-contiguous cells."""
    n = spec.n
    perm = list(range(n))
    rng.shuffle(perm)
    a = np.empty((n, n))
    a[np.ix_(perm, perm)] = realize_block_matrix(spec).to_numpy()
    cells = [[perm[u] for u in cell] for cell in spec.partition().cells]
    return a, Partition(cells)


def _random_int_spec(rng) -> BlockSpec:
    t = rng.randint(1, 4)
    return BlockSpec(
        sizes=tuple(rng.randint(1, 4) for _ in range(t)),
        l=tuple(rng.randint(-5, 5) for _ in range(t)),
        p=tuple(rng.randint(-5, 5) for _ in range(t)),
        s=tuple(tuple(rng.randint(-5, 5) for _ in range(t)) for _ in range(t)),
    )


def test_numeric_branches_equal_blockwise_oracle_on_integer_input():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(200):
        a, part = _shuffled_equitable(rng, _random_int_spec(rng))
        if rng.random() < 0.5:
            a[rng.randrange(part.n), rng.randrange(part.n)] += rng.choice((-1, 1))
        expected = is_equitable_blockwise(a, part)
        verdicts.add(expected)
        assert is_equitable(a, part) is expected
        assert np.array_equal(quotient_matrix(a, part), quotient_matrix_blockwise(a, part))
        # the same matrix in exact thirds, with the same non-contiguous cells
        thirds = ExactMatrix([[Fraction(int(x), 3) for x in row] for row in a])
        assert is_equitable(thirds, part) is expected
        assert quotient_matrix(thirds, part).rows == tuple(
            tuple(Fraction(int(a[np.ix_(ci, cj)].sum()), 3 * len(ci)) for cj in part.cells)
            for ci in part.cells
        )
    assert verdicts == {True, False}


def test_numeric_branches_match_blockwise_oracle_on_real_and_complex_input():
    rng = random.Random(42)
    gen = np.random.default_rng(42)
    for _ in range(100):
        a, part = _shuffled_equitable(rng, _random_int_spec(rng))
        n = part.n
        for m in (
            a * 0.1,
            gen.standard_normal((n, n)),
            a * (1 + 2j),
            gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)),
        ):
            b = quotient_matrix(m, part)
            assert b.tobytes() == quotient_matrix_by_rows(m, part).tobytes()
            assert b.dtype == quotient_matrix_blockwise(m, part).dtype
            # only the summation order differs: 1e-12 is far above its
            # rounding error on entries of magnitude below 10
            np.testing.assert_allclose(
                b, quotient_matrix_blockwise(m, part), rtol=0, atol=1e-12
            )
            assert is_equitable(m, part) == is_equitable_blockwise(m, part)


@pytest.mark.parametrize("imag", [5.0, -5.0, 1e-9])
def test_numeric_equitable_sees_imaginary_spread(imag):
    # row sums 1 + imag*j and 1: equal real parts, so a lexicographic
    # complex comparison would call the spread zero
    m = np.array([[0, 1 + imag * 1j], [1, 0]])
    part = Partition([[0, 1]])
    assert is_equitable(m, part) is False
    assert is_equitable_blockwise(m, part) is False
    assert is_equitable(m.real.astype(complex), part) is True


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("factor, expected", [(0.9, True), (1.1, False)])
def test_numeric_equitable_spread_around_tolerance(tol, factor, expected):
    rng = random.Random(44)
    checked = 0
    for _ in range(20):
        a, part = _shuffled_equitable(rng, _random_int_spec(rng))
        cell = max(part.cells, key=len)
        if len(cell) < 2:
            continue
        a[cell[-1], cell[0]] += factor * tol
        assert is_equitable(a, part, tol=tol) is expected
        assert is_equitable_blockwise(a, part, tol=tol) is expected
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# block specs


def test_realize_complete_graph_spec():
    spec = BlockSpec(sizes=(4,), l=(1,), p=(-1,), s=((0,),))
    n = 4
    expected = ExactMatrix([[0 if i == j else 1 for j in range(n)] for i in range(n)])
    assert realize_block_matrix(spec) == expected
    assert block_spectrum(spec).isclose(Spectrum.from_pairs([(3, 1), (-1, 3)]))


def test_realize_matches_family_matrices():
    for fam, kind in (
        (KnkpDigraph(5, 2, 1), "Q"),
        (KnkpDigraph(6, 2, 2), "DQ"),
        (CompleteMultipartite((2, 3)), "D"),
        (KnkpGraph(7, 3, 2), "DL"),
    ):
        assert realize_block_matrix(adjacency_blockspec(fam, kind)) == build_matrix(
            build(fam), kind
        )


def test_block_spectrum_multipartite_distance_laplacian():
    parts = (2, 3, 2)
    n = sum(parts)
    spec = adjacency_blockspec(CompleteMultipartite(parts), "DL")
    expected = Spectrum.from_pairs(
        [(0, 1), (n, len(parts) - 1)] + [(n + ni, ni - 1) for ni in parts]
    )
    assert block_spectrum(spec).isclose(expected)


def test_block_spectrum_digraph_laplacian():
    n, k, p = 6, 2, 1
    q = n - p - k
    spec = adjacency_blockspec(KnkpDigraph(n, k, p), "L")
    expected = Spectrum.from_pairs([(0, 1), (n, p + k - 1), (n - p, q)])
    assert block_spectrum(spec).isclose(expected)


def test_block_spectrum_keystone_random():
    rng = random.Random(33)
    for _ in range(150):
        t = rng.randint(1, 4)
        sizes = [rng.randint(1, 5) for _ in range(t)]
        spec = BlockSpec(
            sizes=tuple(sizes),
            l=tuple(rng.randint(-5, 5) for _ in range(t)),
            p=tuple(rng.randint(-5, 5) for _ in range(t)),
            s=tuple(tuple(rng.randint(-5, 5) for _ in range(t)) for _ in range(t)),
        )
        numeric = eigenvalues(realize_block_matrix(spec).to_numpy(), cluster_tol=0.0)
        assert block_spectrum(spec).isclose(numeric, tol=1e-7)


def test_blockspec_rational_coefficients_round_trip():
    spec = BlockSpec(
        sizes=(2, 1),
        l=(Fraction(1, 2), 0),
        p=(1, Fraction(3, 4)),
        s=((0, 1), (Fraction(5, 2), 0)),
    )
    assert BlockSpec.from_json(spec.to_json()) == spec
    m = realize_block_matrix(spec)
    assert m[0, 1] == Fraction(1, 2)
    assert m[2, 0] == Fraction(5, 2)


def _as_trials(specs) -> tuple[tuple, int]:
    """BlockSpecs as a segment of probe trials (see
    ``quotient._segment_trials``), its coefficients int64 numerators over
    their least common denominator, and that denominator."""
    coeffs = [(*spec.l, *spec.p, *(x for row in spec.s for x in row)) for spec in specs]
    den = math.lcm(*(Fraction(x).denominator for c in coeffs for x in c))
    numerators = np.array([int(x * den) for c in coeffs for x in c], dtype=np.int64)
    sizes = np.concatenate([spec.sizes for spec in specs])
    return (np.array([spec.t for spec in specs]), sizes, numerators), den


def test_trials_round_trip_over_the_least_common_denominator():
    specs = [
        BlockSpec((2, 1), (Fraction(1, 2), 0), (1, Fraction(3, 4)), ((0, 1), (Fraction(5, 6), 0))),
        BlockSpec((3,), (2,), (Fraction(-1, 3),), ((7,),)),
    ]
    segment, den = _as_trials(specs)
    assert den == 12
    trials = list(_segment_trials(segment))
    assert trials[1] == ([3], [24, -4, 84])
    assert all(type(x) is int for _, coeffs in trials for x in coeffs)
    assert [_as_spec(segment, j, den) for j in range(len(specs))] == specs


def _random_specs(rng, count, n, coeff):
    """Random BlockSpecs of order n, with 1 to min(n, 4) blocks."""
    specs = []
    for _ in range(count):
        t = rng.randint(1, min(n, 4))
        sizes = [1] * t
        for _ in range(n - t):
            sizes[rng.randrange(t)] += 1
        specs.append(
            BlockSpec(
                sizes=tuple(sizes),
                l=tuple(coeff() for _ in range(t)),
                p=tuple(coeff() for _ in range(t)),
                s=tuple(tuple(coeff() for _ in range(t)) for _ in range(t)),
            )
        )
    return specs


def _assert_realized(spec, m, b):
    """A realized M and its closed-form quotient B equal the blockwise
    realization, the exact quotient and the blockwise cell sums bit for bit
    (every entry a quarter: every partial sum is exact in any order)."""
    assert m.tobytes() == realize_blockwise(spec).tobytes()
    b = b[: spec.t, : spec.t]
    assert b.tobytes() == spec.quotient().to_numpy().tobytes()
    assert b.tobytes() == quotient_matrix_blockwise(m, spec.partition()).tobytes()


def test_realize_stack_matches_blockwise_realization():
    rng = random.Random(46)
    # int8 numerators over both campaigns' denominators
    for den in (1, 4):
        specs = _random_specs(rng, 40, 9, lambda: Fraction(rng.randint(-128, 127), den))
        segment, lcd = _as_trials(specs)
        assert lcd == den
        [(members, a, b)] = _realize_stacks(segment, den)
        # one stack, its matrices by block count
        assert sorted(members.tolist()) == list(range(40))
        assert [specs[i].t for i in members] == sorted(spec.t for spec in specs)
        width = max(spec.t for spec in specs)
        assert a.shape == (40, 9, 9) and b.shape == (40, width, width)
        for j, i in enumerate(members):
            _assert_realized(specs[i], a[j], b[j])


def test_realize_stack_of_one_order_500_trial():
    rng = random.Random(49)
    t = 500
    c = [Fraction(rng.randint(0, 40), 4) for _ in range(t * (t + 2))]
    s = tuple(tuple(c[(2 + i) * t : (3 + i) * t]) for i in range(t))
    spec = BlockSpec((1,) * t, tuple(c[:t]), tuple(c[t : 2 * t]), s)
    segment, den = _as_trials([spec])
    assert den == 4
    [(members, a, b)] = _realize_stacks(segment, den)
    assert members.tolist() == [0] and a.shape == b.shape == (1, t, t)
    _assert_realized(spec, a[0], b[0])


def test_equitable_quotient_matches_blockwise_oracle():
    rng = random.Random(47)
    verdicts = set()
    for j in range(60):
        spec = _random_specs(rng, 1, rng.randint(1, 8), lambda: Fraction(rng.randint(0, 40), 4))[0]
        clean, part = _shuffled_equitable(rng, spec)
        u, v = rng.randrange(part.n), rng.randrange(part.n)
        # every third matrix spoiled in one entry: that unbalances the entry's
        # row in its block unless the row's cell is a single vertex
        spoil = np.zeros_like(clean)
        spoil[u, v] = 0.25 if j % 3 == 0 else 0
        spoiled = j % 3 == 0 and len(next(c for c in part.cells if u in c)) > 1
        verdicts.add(spoiled)
        # real, and complex spoiled in its imaginary part alone
        for m in (clean + spoil, clean * (1 + 0.5j) + spoil * 1j):
            equitable, b = _equitable_quotient(m, part)
            assert equitable is is_equitable_blockwise(m, part) is not spoiled
            assert b.tobytes() == quotient_matrix_blockwise(m, part).tobytes()
        # exact, spoiled by a third
        rows = [
            [Fraction(x) + Fraction(y) * 4 / 3 for x, y in zip(*pair)]
            for pair in zip(clean.tolist(), spoil.tolist())
        ]
        equitable, b = _equitable_quotient(ExactMatrix(rows), part)
        exact = np.array(rows, dtype=object)
        assert equitable is is_equitable_blockwise(exact, part, tol=0) is not spoiled
        assert b.rows == tuple(map(tuple, quotient_matrix_blockwise(exact, part).tolist()))
        if j % 3:
            assert b.rows == spec.quotient().rows
    assert verdicts == {True, False}


@pytest.mark.parametrize("tops", [False, True])
def test_stacked_spectra_match_one_solve_per_matrix(monkeypatch, tops):
    rng = random.Random(48)
    specs = []
    for n in (1, 2, 5, 8):
        specs += _random_specs(rng, 12, n, lambda: rng.randint(-5, 5))
    # symmetric specs share a group with the others of their order
    specs += [BlockSpec((2, 3), (1, 2), (0, 1), ((0, 4), (4, 0))) for _ in range(3)]
    rng.shuffle(specs)
    segment, den = _as_trials(specs)
    assert den == 1
    # stacks of one matrix, of a few, and of a whole order
    for window in (1, 200, 1 << 30):
        monkeypatch.setattr(quotient, "_PROBE_WINDOW", window)
        m_out, b_out = stacked_spectra(segment, tops=tops)
        for j, spec in enumerate(specs):
            m = realize_blockwise(spec)
            b = spec.quotient().to_numpy()
            solo_m = np.linalg.eigvalsh(m) if np.array_equal(m, m.T) else np.linalg.eigvals(m)
            # the tops take B's values from the general solver
            if np.array_equal(b, b.T) and not tops:
                solo_b = np.linalg.eigvalsh(b)
            else:
                solo_b = np.linalg.eigvals(b)
            if tops:
                assert m_out[j] == np.abs(solo_m).max() and b_out[j] == solo_b.real.max()
            else:
                assert np.array_equal(m_out[j], solo_m) and np.array_equal(b_out[j], solo_b)


# ---------------------------------------------------------------------------
# lift check


def test_lift_check_petersen_adjacency():
    a = build_matrix(build(Petersen()), "A").to_numpy()
    report = lift_check(a, PETERSEN_PART)
    assert report.equitable and report.lifted
    assert np.array_equal(report.B, np.array([[2.0, 1.0], [1.0, 2.0]]))


def test_lift_check_discrete_partition():
    rng = random.Random(34)
    m = np.array([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)], dtype=float)
    assert lift_check(m, Partition.discrete(4)).lifted


def test_lift_check_all_kinds_on_connectivity_family():
    fam = KnkpGraph(7, 2, 2)
    g = build(fam)
    part = natural_partition(fam)
    for kind in ("A", "L", "Q", "D", "DL", "DQ"):
        report = lift_check(build_matrix(g, kind).to_numpy(), part)
        assert report.lifted, kind


def test_lift_check_requires_equitable():
    with pytest.raises(NotEquitable):
        lift_check(_path3_adjacency().to_numpy(), parse_partition("{0,1|2}"))


# ---------------------------------------------------------------------------
# interlacing


def test_interlacing_petersen_laplacian_negative_example():
    g = build(Petersen())
    l_matrix = build_matrix(g, "L")
    report = interlacing_check(l_matrix.to_numpy(), PETERSEN_PART)
    assert report.interlaces
    assert report.tight_implies_equitable_ok
    b = quotient_matrix(l_matrix, PETERSEN_PART)
    # quotient radius 2 stays below the full Laplacian radius 5
    assert spectral_radius(b.to_numpy()) == pytest.approx(2.0, abs=1e-9)
    assert spectral_radius(l_matrix.to_numpy()) == pytest.approx(5.0, abs=1e-9)


def test_interlacing_discrete_partition_is_tight():
    rng = random.Random(35)
    m = np.array([[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)], dtype=float)
    m = (m + m.T) / 1.0
    m = m + m.T  # symmetric integer-valued
    report = interlacing_check(m, Partition.discrete(5))
    assert report.interlaces and report.tight and report.tight_implies_equitable_ok


def test_interlacing_random_symmetric():
    rng = random.Random(36)
    for _ in range(300):
        n = rng.randint(2, 8)
        raw = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        m = np.array(raw, dtype=float)
        m = m + m.T
        sizes = []
        left = n
        while left:
            s = rng.randint(1, left)
            sizes.append(s)
            left -= s
        report = interlacing_check(m, Partition.from_sizes(sizes))
        assert report.interlaces
        assert report.tight_implies_equitable_ok


def test_interlacing_requires_symmetry():
    with pytest.raises(NotSymmetric):
        interlacing_check(np.array([[0.0, 1.0], [0.0, 0.0]]), Partition.discrete(2))


# ---------------------------------------------------------------------------
# conjecture probe


def test_probe_petersen_nonnegative_kinds_hold():
    g = build(Petersen())
    for kind in ("A", "Q", "D", "DQ"):
        report = conjecture_probe(build_matrix(g, kind).to_numpy(), PETERSEN_PART)
        assert report.holds, kind


def test_probe_rejects_signed_matrices():
    g = build(Petersen())
    for kind in ("L", "DL"):
        with pytest.raises(NotNonnegative):
            conjecture_probe(build_matrix(g, kind).to_numpy(), PETERSEN_PART)
    # the sign is checked before the partition's ground set
    with pytest.raises(NotNonnegative):
        conjecture_probe(-np.ones((3, 3)), PETERSEN_PART)


def test_probe_all_ones_any_partition():
    m = np.ones((6, 6))
    for sizes in ((6,), (2, 4), (1, 2, 3)):
        report = conjecture_probe(m, Partition.from_sizes(sizes))
        assert report.holds
        assert report.rho_M == pytest.approx(6.0, abs=1e-9)


def test_probe_requires_equitable():
    with pytest.raises(NotEquitable):
        conjecture_probe(_path3_adjacency().to_numpy(), parse_partition("{0,1|2}"))


def test_probe_rejects_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a rejected matrix")

    monkeypatch.setattr(quotient, "_eigvals", no_solve)
    with pytest.raises(NotEquitable, match="^conjecture_probe requires an equitable partition$"):
        conjecture_probe(_path3_adjacency().to_numpy(), parse_partition("{0,1|2}"))
    with pytest.raises(NotNonnegative, match="^conjecture_probe requires a nonnegative matrix$"):
        conjecture_probe(-np.ones((10, 10)), PETERSEN_PART)
