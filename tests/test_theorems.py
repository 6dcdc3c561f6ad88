"""Closed forms and the claim catalogue against numeric and exact oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from eqspec import theorems
from eqspec.errors import BudgetExceeded, InvalidParameters, UnknownClaim
from eqspec.families import (
    CliqueStar,
    CompleteMultipartite,
    KnkpDigraph,
    KnkpGraph,
    build,
    natural_partition,
)
from eqspec.graphs import build_matrix
from eqspec.linalg import (
    Polynomial,
    Spectrum,
    char_poly,
    eigenvalues,
    spectral_radius,
)
from eqspec.quotient import quotient_matrix
from eqspec.theorems import (
    claim_ids,
    cliquestar_charpoly,
    digraph_bound,
    digraph_laplacian_spectra,
    digraph_quotient_eigs,
    graph_bound,
    graph_laplacian_spectra,
    graph_quotient_charpolys,
    knkp_graph_dq_display_cubic,
    multipartite_charpoly,
    verify_claim,
)

from oracles import (
    bisection_largest_root,
    block_spectrum_max_deviation,
    connectivity_theorem_report,
)


# ---------------------------------------------------------------------------
# digraph closed forms


def test_digraph_bound_adjacency_value():
    assert digraph_bound(5, 2, "A").value == pytest.approx((3 + math.sqrt(17)) / 2, abs=1e-12)


def test_digraph_bound_single_member_when_k_is_n_minus_2():
    result = digraph_bound(6, 4, "D")
    assert result.extremal_members == (KnkpDigraph(6, 4, 1),)


def test_digraph_bound_distance_signless_value():
    assert digraph_bound(6, 1, "DQ").value == pytest.approx((15 + math.sqrt(57)) / 2, abs=1e-12)


def test_digraph_bound_rejects_laplacian_kinds():
    with pytest.raises(InvalidParameters):
        digraph_bound(6, 2, "L")


def test_digraph_quotient_eigs_adjacency():
    expected = Spectrum.from_pairs(
        [(-1, 1), ((3 + math.sqrt(17)) / 2, 1), ((3 - math.sqrt(17)) / 2, 1)]
    )
    assert digraph_quotient_eigs(5, 2, 1, "A").isclose(expected, tol=1e-12)


def test_digraph_quotient_eigs_match_numeric_quotient():
    for n, k, p, kind in ((4, 1, 1, "D"), (6, 2, 3, "A"), (7, 3, 1, "Q"), (6, 1, 2, "DQ")):
        fam = KnkpDigraph(n, k, p)
        matrix = build_matrix(build(fam), kind)
        numeric = eigenvalues(
            quotient_matrix(matrix, natural_partition(fam)).to_numpy(), cluster_tol=0.0
        )
        assert digraph_quotient_eigs(n, k, p, kind).isclose(numeric, tol=1e-7)


def test_digraph_laplacian_spectra_values():
    assert digraph_laplacian_spectra(5, 2, 1, "L").isclose(
        Spectrum.from_pairs([(0, 1), (5, 2), (4, 2)])
    )
    assert digraph_laplacian_spectra(5, 2, 1, "DL").isclose(
        Spectrum.from_pairs([(0, 1), (5, 2), (6, 2)])
    )


def test_digraph_laplacian_multiplicities_sum_to_n():
    for n in range(3, 10):
        for k in range(1, n - 1):
            for p in range(1, n - k):
                for kind in ("L", "DL"):
                    assert digraph_laplacian_spectra(n, k, p, kind).order == n


def test_digraph_sweep_optima_follow_claims():
    # p-sweep of the closed-form radius: A max at both endpoints, Q max at
    # the far endpoint, D min at both endpoints, DQ min at p=1 with a strict
    # gap to the far endpoint when more than one p exists
    for n in range(4, 10):
        for k in range(1, n - 1):
            ps = range(1, n - k)
            vals = {
                kind: {p: digraph_quotient_eigs(n, k, p, kind).max_real() for p in ps}
                for kind in ("A", "Q", "D", "DQ")
            }
            ends = {1, n - k - 1}
            assert {p for p, v in vals["A"].items() if v == max(vals["A"].values())} == ends
            assert {p for p, v in vals["Q"].items()
                    if abs(v - max(vals["Q"].values())) < 1e-9} == {n - k - 1}
            assert {p for p, v in vals["D"].items()
                    if abs(v - min(vals["D"].values())) < 1e-9} == ends
            assert {p for p, v in vals["DQ"].items()
                    if abs(v - min(vals["DQ"].values())) < 1e-9} == {1}
            if n > k + 2:
                assert vals["DQ"][n - k - 1] > vals["DQ"][1] + 1e-9


# ---------------------------------------------------------------------------
# graph closed forms


def test_graph_bound_signless_laplacian_value():
    # (2n+k-4+sqrt((2n-k-4)^2+8k))/2 at n=6, k=2, cross-checked numerically
    expected = (10 + math.sqrt(52)) / 2
    assert graph_bound(6, 2, "Q").value == pytest.approx(expected, abs=1e-12)
    numeric = spectral_radius(build_matrix(build(KnkpGraph(6, 2, 1)), "Q"))
    assert numeric == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("kind", ["A", "D", "DQ"])
def test_graph_bound_cubics_against_bisection(kind):
    assert graph_quotient_charpolys(6, 2, 1, "A") == Polynomial([4, -6, -3, 1])
    # every graph bound cubic at n <= 16: the p = 1 member's quotient cubic,
    # its largest root below the largest row sum, which is under 4n for the
    # distance signless Laplacian of a graph of diameter 2
    for n in range(3, 17):
        for k in range(1, n - 1):
            cubic = graph_quotient_charpolys(n, k, 1, kind)
            oracle = bisection_largest_root(cubic, 0, 4 * n)
            assert graph_bound(n, k, kind).value == pytest.approx(oracle, rel=1e-14, abs=0)


def test_graph_bound_lists_both_isomorphic_endpoint_members():
    # p=1 and its mirror p=n-k-1 are isomorphic; they coincide at k=n-2
    assert graph_bound(6, 2, "D").extremal_members == (KnkpGraph(6, 2, 1), KnkpGraph(6, 2, 3))
    assert graph_bound(6, 4, "DQ").extremal_members == (KnkpGraph(6, 4, 1),)


def test_graph_adjacency_bound_below_complete_graph():
    for n in range(4, 12):
        for k in range(1, n - 2):
            assert graph_bound(n, k, "A").value < n - 1


def test_graph_quotient_charpoly_roots_match_numeric_quotient():
    for n, k, p, kind in ((6, 2, 1, "D"), (7, 3, 2, "A"), (6, 1, 2, "DQ"), (8, 2, 3, "Q")):
        fam = KnkpGraph(n, k, p)
        matrix = build_matrix(build(fam), kind)
        numeric = eigenvalues(
            quotient_matrix(matrix, natural_partition(fam)).to_numpy(), cluster_tol=0.0
        )
        from eqspec.linalg import poly_roots

        assert poly_roots(graph_quotient_charpolys(n, k, p, kind)).isclose(numeric, tol=1e-7)


def test_graph_distance_cubic_specializes_at_p1():
    # the (p,q) distance cubic at p=1 equals the distance bound cubic
    for n, k in ((6, 2), (8, 3), (10, 1)):
        from eqspec.theorems import _distance_cubic

        assert graph_quotient_charpolys(n, k, 1, "D") == _distance_cubic(n, k)


def test_graph_dq_display_cubic_identity():
    for n, k, p in ((6, 2, 1), (7, 3, 2), (9, 2, 4)):
        fam = KnkpGraph(n, k, p)
        assert graph_quotient_charpolys(n, k, p, "DQ") == knkp_graph_dq_display_cubic(
            p, fam.q, k
        )


def test_graph_laplacian_spectra_values():
    assert graph_laplacian_spectra(6, 2, 1, "L").isclose(
        Spectrum.from_pairs([(0, 1), (2, 1), (6, 2), (5, 2)])
    )
    assert graph_laplacian_spectra(6, 2, 1, "DL").isclose(
        Spectrum.from_pairs([(0, 1), (10, 1), (6, 2), (7, 2)])
    )
    for n in range(3, 10):
        for k in range(1, n - 1):
            for p in range(1, n - k):
                for kind in ("L", "DL"):
                    assert graph_laplacian_spectra(n, k, p, kind).order == n


# ---------------------------------------------------------------------------
# factored characteristic polynomials


def test_multipartite_charpoly_k2():
    assert multipartite_charpoly((1, 1), "A") == Polynomial([-1, 0, 1])


def test_multipartite_charpoly_laplacian_factored():
    expected = (
        Polynomial([0, 1])
        * Polynomial.linear(5)
        * Polynomial.linear(3)
        * Polynomial.linear(2) ** 2
    )
    assert multipartite_charpoly((2, 3), "L") == expected


def test_multipartite_charpoly_matches_direct():
    for parts in ((2, 2, 2), (1, 3), (2, 3, 4)):
        for kind in ("A", "L", "Q", "D", "DL", "DQ"):
            direct = char_poly(build_matrix(build(CompleteMultipartite(parts)), kind))
            assert multipartite_charpoly(parts, kind) == direct


def test_cliquestar_charpoly_two_edges_is_path():
    # two K_2 cliques on a hub form the 3-vertex path: spectrum {0, +-sqrt(2)}
    assert cliquestar_charpoly((2, 2), "A") == Polynomial([0, -2, 0, 1])


def test_cliquestar_laplacian_spectra_closed_forms():
    from eqspec.linalg import poly_roots

    spec_l = poly_roots(cliquestar_charpoly((3, 3), "L"))
    assert spec_l.isclose(Spectrum.from_pairs([(0, 1), (5, 1), (1, 1), (3, 2)]))
    spec_dl = poly_roots(cliquestar_charpoly((3, 3), "DL"))
    assert spec_dl.isclose(Spectrum.from_pairs([(0, 1), (5, 1), (9, 1), (7, 2)]))


def test_cliquestar_charpoly_matches_direct():
    for sizes in ((2, 2), (3, 4), (2, 2, 3)):
        for kind in ("A", "L", "Q", "D", "DL", "DQ"):
            direct = char_poly(build_matrix(build(CliqueStar(sizes)), kind))
            assert cliquestar_charpoly(sizes, kind) == direct


# ---------------------------------------------------------------------------
# claim catalogue


def test_claim_ids_catalogue_complete():
    ids = claim_ids()
    for expected in (
        "thm4.3.i", "thm4.3.iv", "thm5.2.i", "thm5.2.iv",
        "prop4.4.i", "prop4.4.ii", "prop5.2.i", "prop5.2.ii",
        "ex3.3", "ex3.5.1", "ex3.5.6", "ex3.6.1", "ex3.6.6",
        "cor2.5", "cor2.6", "lem3.4.random",
    ):
        assert expected in ids


# per claim-id prefix: the smallest parameters the claim admits, as given
# and as the report lists them (coerced, in schema order, defaults filled in)
_SMALLEST_PARAMS = (
    ("thm", {"n": "3", "k": 1}, {"n": 3, "k": 1}),
    ("prop", {"p": 1, "k": 1, "n": 3}, {"n": 3, "k": 1, "p": 1}),
    ("ex3.3", {}, {}),
    ("ex3.5.", {"parts": [2, 3]}, {"parts": (2, 3)}),
    ("ex3.6.", {"sizes": (2, "3")}, {"sizes": (2, 3)}),
    ("cor", {"n": 2}, {"n": 2}),
    ("lem3.4.random", {"trials": 20}, {"trials": 20, "seed": 0, "t_max": 4, "n_max": 20}),
)


@pytest.mark.parametrize("claim_id", claim_ids())
def test_every_claim_report_has_one_envelope(claim_id):
    given, coerced = next(
        (given, coerced)
        for prefix, given, coerced in _SMALLEST_PARAMS
        if claim_id.startswith(prefix)
    )
    report = verify_claim(claim_id, given)
    assert report.passed
    assert report.claim_id == claim_id
    assert report.note == theorems.CLAIMS[claim_id].note
    assert list(report.params.items()) == list(coerced.items())
    payload = report.to_json()
    assert list(payload) == ["claim", "params", "passed", "max_deviation", "details", "note"]
    assert payload["claim"] == claim_id and payload["params"] == coerced


def test_unknown_claim_raises():
    with pytest.raises(UnknownClaim):
        verify_claim("thm9.9.x", {})
    with pytest.raises(InvalidParameters):
        verify_claim("thm4.3.i", {})


def test_verify_digraph_adjacency_equality_cases():
    report = verify_claim("thm4.3.i", {"n": 7, "k": 3})
    assert report.passed
    assert report.details["claimed_extremal_p"] == [1, 3]
    assert report.details["observed_extremal_p"] == [1, 3]


def test_verify_petersen_table():
    report = verify_claim("ex3.3")
    assert report.passed and report.max_deviation < 1e-9
    assert report.details["quotients_exact"]


def test_verify_multipartite_identities():
    for item in range(1, 7):
        report = verify_claim(f"ex3.5.{item}", {"parts": (2, 3)})
        assert report.passed, item


def test_verify_cliquestar_records_print_notes():
    for item, expect_note in (("2", True), ("3", True), ("5", True), ("1", False)):
        report = verify_claim(f"ex3.6.{item}", {"sizes": (3, 3)})
        assert report.passed
        assert bool(report.note) == expect_note


def test_verify_dq_bound_note_mentions_corrected_coefficient():
    report = verify_claim("thm5.2.iv", {"n": 6, "k": 2})
    assert report.passed
    assert "3kn" in report.note or "3kn" in report.note.replace(" ", "")


def test_verify_laplacian_spectra_claims():
    assert verify_claim("prop4.4.i", {"n": 8, "k": 3, "p": 2}).passed
    assert verify_claim("prop4.4.ii", {"n": 8, "k": 3, "p": 2}).passed
    report = verify_claim("prop5.2.i", {"n": 6, "k": 2, "p": 1})
    assert report.passed
    values = sorted(
        entry["re"] for entry in report.details["closed_spectrum"]
        for _ in range(entry["mult"])
    )
    assert values == [0, 2, 5, 5, 6, 6]
    assert verify_claim("prop5.2.ii", {"n": 6, "k": 2, "p": 1}).passed


@pytest.mark.parametrize(
    "claim_id, params",
    [
        ("thm4.3.i", {"n": 5, "k": 1, "p": 1}),
        ("cor2.5", {"n": 3, "seed": 1}),
        ("cor2.6", {"n": 3, "shards": 2}),
    ],
)
def test_verify_rejects_unknown_parameter_names(claim_id, params):
    with pytest.raises(InvalidParameters, match="no parameters named"):
        verify_claim(claim_id, params)


def test_verify_accepts_optional_parameter_names():
    report = verify_claim(
        "lem3.4.random", {"trials": 2, "seed": 1, "t_max": 2, "n_max": 4}
    )
    assert report.params == {"trials": 2, "seed": 1, "t_max": 2, "n_max": 4}
    defaults = verify_claim("lem3.4.random").params
    assert defaults == {"trials": 1000, "seed": 0, "t_max": 4, "n_max": 20}


@pytest.mark.parametrize("seed, passed", [(7, True), (10, False), (11, False)])
def test_block_spectrum_random_equals_per_trial_oracle(seed, passed):
    report = verify_claim("lem3.4.random", {"trials": 1000, "seed": seed})
    assert report.max_deviation.hex() == block_spectrum_max_deviation(1000, seed).hex()
    # seeds 10 and 11 exceed the fixed absolute tolerance: a known fault of
    # that tolerance, kept in view until it scales with the values compared
    assert report.passed is passed


@pytest.mark.parametrize(
    "claim_id, admitted, refused",
    [
        ("thm4.3.i", {"n": 5, "k": 1}, {"n": 6, "k": 1}),
        ("thm5.2.iv", {"n": 5, "k": 2}, {"n": 6, "k": 2}),
        ("prop4.4.i", {"n": 5, "k": 1, "p": 2}, {"n": 6, "k": 1, "p": 2}),
        ("prop5.2.ii", {"n": 5, "k": 1, "p": 2}, {"n": 6, "k": 1, "p": 2}),
        ("ex3.5.2", {"parts": (2, 3)}, {"parts": (3, 3)}),
        # a clique star on sizes (s_i) has order 1 + sum(s_i - 1)
        ("ex3.6.4", {"sizes": (3, 3)}, {"sizes": (3, 4)}),
    ],
)
def test_claim_order_budget_is_the_built_matrix_order(
    monkeypatch, claim_id, admitted, refused
):
    monkeypatch.setattr(theorems, "CLAIM_ORDER_BUDGET", 5)
    assert verify_claim(claim_id, admitted).passed
    with pytest.raises(BudgetExceeded, match="capped at order 5, got 6"):
        verify_claim(claim_id, refused)


_CONNECTIVITY_CLAIMS = [
    f"{theorem}.{sub}" for theorem in ("thm4.3", "thm5.2") for sub in ("i", "ii", "iii", "iv")
]


def _assert_report_equals_member_loop(claim_id, n, k):
    mine = verify_claim(claim_id, {"n": n, "k": k})
    oracle = connectivity_theorem_report(*claim_id.rsplit(".", 1), n, k)
    assert mine.to_json() == oracle.to_json(), (claim_id, n, k)
    assert mine.max_deviation.hex() == oracle.max_deviation.hex(), (claim_id, n, k)
    hexes = [{p: v.hex() for p, v in r.details["values_by_p"].items()} for r in (mine, oracle)]
    assert hexes[0] == hexes[1], (claim_id, n, k)


@pytest.mark.parametrize("claim_id", _CONNECTIVITY_CLAIMS)
def test_connectivity_theorem_equals_member_loop_oracle(claim_id):
    for n in range(3, 11):
        for k in range(1, n - 1):
            _assert_report_equals_member_loop(claim_id, n, k)


@pytest.mark.parametrize("n", [16, 24, 32])
@pytest.mark.parametrize("claim_id", _CONNECTIVITY_CLAIMS)
def test_connectivity_theorem_equals_member_loop_oracle_large(claim_id, n):
    for k in sorted({1, n // 2, n - 2}):
        _assert_report_equals_member_loop(claim_id, n, k)


@pytest.mark.xfail(
    strict=True,
    reason="at p=5 a quotient eigenvalue equals p_i = 12, a defective eigenvalue of "
    "multiplicity 7 in a non-symmetric Q; its numeric deviation 1.248e-7 exceeds the "
    "absolute 1e-7 tolerance although every exact identity holds",
)
def test_digraph_signless_laplacian_claim_at_order_14_passes():
    assert verify_claim("thm4.3.ii", {"n": 14, "k": 2}).passed


@pytest.mark.parametrize(
    "quotient, sizes, p",
    [
        (Polynomial([-3024, 648, -45, 1]), (5, 2, 7), (12, 12, 7)),
        (Polynomial([2, -3, 1]), (1, 4), (0, -2)),
        (Polynomial([Fraction(-1, 3), 1]), (1,), (Fraction(1, 3),)),
        (Polynomial([1, 0, 1]), (3, 1, 2), (Fraction(-5, 2), 4, Fraction(7, 3))),
    ],
)
def test_lifted_charpoly_equals_linear_factor_powers(quotient, sizes, p):
    expected = quotient
    for p_i, size in zip(p, sizes):
        expected = expected * (Polynomial.linear(p_i) ** (size - 1))
    lifted = theorems._lifted_charpoly(sizes, p, quotient)
    assert lifted.coeffs == expected.coeffs
    assert [type(c) for c in lifted.coeffs] == [type(c) for c in expected.coeffs]
