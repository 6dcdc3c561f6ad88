"""End-to-end CLI behavior: JSON output, exit codes, round trips."""

from __future__ import annotations

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqspec import linalg, quotient
from eqspec.cli import main
from eqspec.families import Petersen, build
from eqspec.graphs import Graph, format_graph_file
from eqspec.theorems import claim_ids


@pytest.fixture()
def run(capsys, monkeypatch):
    def _run(argv, stdin: str | None = None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture()
def petersen_file(tmp_path):
    path = tmp_path / "petersen.txt"
    path.write_text(format_graph_file(build(Petersen())))
    return str(path)


def test_analyze_petersen_summary(run, petersen_file):
    code, out, _ = run(["analyze", petersen_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {
        "rho": 3.0, "mu": 5.0, "q": 6.0, "rhoD": 15.0, "muD": 18.0, "qD": 30.0,
    }
    assert payload["vertex_connectivity"] == 3
    assert payload["transmissions"] == [15] * 10


def test_analyze_closes_its_input_file(petersen_file, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", petersen_file]) == 0
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_family_emit_file_pipes_into_analyze(run):
    code, out, _ = run(["family", "petersen", "--emit-file"])
    assert code == 0
    assert out.startswith("graph 10\n")
    code, out2, _ = run(["analyze", "-", "--kinds", "A,Q"], stdin=out)
    assert code == 0
    payload = json.loads(out2)
    assert payload["summary"] == {"rho": 3.0, "q": 6.0}


def test_family_json_contains_blockspecs(run):
    code, out, _ = run(["family", "knkp-g:6,2,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6 and not payload["directed"]
    assert payload["blockspecs"]["Q"]["sizes"] == [1, 2, 3]
    # unstructured families get no block description
    code, out, _ = run(["family", "cycle:5"])
    assert json.loads(out)["blockspecs"] == {}


def test_family_round_trip_reproduces_spectra(run):
    code, emitted, _ = run(["family", "knkp-d:6,2,1", "--emit-file"])
    assert code == 0
    _, first, _ = run(["analyze", "-"], stdin=emitted)
    _, second, _ = run(["analyze", "-"], stdin=emitted)
    assert first == second
    assert json.loads(first)["directed"]


def test_quotient_subcommand(run, petersen_file):
    code, out, _ = run(
        ["quotient", petersen_file, "--partition", "{0,1,2,3,4|5,6,7,8,9}", "--kind", "DQ"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["B"] == [[21.0, 9.0], [9.0, 21.0]]
    assert payload["equitable"] is True and payload["lifted"] is True


def test_quotient_sums_the_cells_once_and_solves_the_quotient_once(
    run, petersen_file, monkeypatch
):
    summed, solved = [], []
    equitable_quotient, eigvals = quotient._equitable_quotient, linalg._eigvals

    def sum_spy(m, *args):
        summed.append(np.shape(m))
        return equitable_quotient(m, *args)

    def solve_spy(a, *args):
        solved.append(a.shape)
        return eigvals(a, *args)

    monkeypatch.setattr(quotient, "_equitable_quotient", sum_spy)
    monkeypatch.setattr(linalg, "_eigvals", solve_spy)
    code, _, _ = run(["quotient", petersen_file, "--partition", "{0,1,2,3,4|5,6,7,8,9}"])
    assert code == 0
    assert summed == [(10, 10)]
    assert sorted(solved) == [(2, 2), (10, 10)]


def test_quotient_not_equitable_reports_null_lift(run, tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("graph 3\n0 1\n1 2\n")
    code, out, _ = run(["quotient", str(path), "--partition", "{0,1|2}", "--kind", "A"])
    assert code == 0
    payload = json.loads(out)
    assert payload["equitable"] is False and payload["lifted"] is None


def test_verify_pass_and_fail_exit_codes(run):
    code, out, _ = run(["verify", "prop5.2.i", "--params", "n=6,k=2,p=1"])
    assert code == 0
    payload = json.loads(out)
    values = sorted(
        entry["re"]
        for entry in payload["details"]["closed_spectrum"]
        for _ in range(entry["mult"])
    )
    assert values == [0, 2, 5, 5, 6, 6]


def test_verify_failure_exits_one(run, monkeypatch):
    from eqspec.theorems import VerificationReport

    failing = VerificationReport(
        claim_id="ex3.3", params={}, passed=False, max_deviation=1.0, details={}
    )
    monkeypatch.setattr("eqspec.cli.theorems.verify_claim", lambda *a, **k: failing)
    code, out, _ = run(["verify", "ex3.3"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_unknown_claim_is_usage_error(run):
    code, _, err = run(["verify", "thm1.1.z"])
    assert code == 2
    assert "unknown claim" in err
    assert "Traceback" not in err


def test_verify_multipartite_with_tuple_params(run):
    code, out, _ = run(["verify", "ex3.5.2", "--params", "parts=2:3"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_takes_a_one_element_tuple(run):
    # cliquestar:5, one clique of 5 on its hub: a one-element tuple has no colon
    code, out, _ = run(["verify", "ex3.6.1", "--params", "sizes=5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"sizes": [5]} and payload["passed"] is True


def test_analyze_disconnected_distance_is_input_error(run, tmp_path):
    path = tmp_path / "disconnected.txt"
    path.write_text("graph 4\n0 1\n2 3\n")
    code, _, err = run(["analyze", str(path), "--kinds", "D"])
    assert code == 2
    assert "not connected" in err
    assert "Traceback" not in err


def test_analyze_past_the_cut_budget_is_input_error(run, tmp_path):
    # K_26 minus a perfect matching has vertex connectivity 24: every cut
    # of up to 23 vertices would have to be tried
    n = 26
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u // 2) != (v // 2)]
    path = tmp_path / "k26.txt"
    path.write_text(format_graph_file(Graph(n, edges)))
    code, out, err = run(["analyze", str(path)])
    assert code == 2
    assert out == ""
    assert "vertex connectivity is capped at 262144 vertex cuts" in err
    assert "Traceback" not in err


def test_analyze_and_quotient_order_budget(run, tmp_path):
    def cycle_file(n):
        path = tmp_path / f"c{n}.txt"
        path.write_text(format_graph_file(Graph(n, [(i, (i + 1) % n) for i in range(n)])))
        return str(path)

    code, out, _ = run(["analyze", cycle_file(64)])
    assert code == 0
    payload = json.loads(out)
    assert payload["vertex_connectivity"] == 2
    assert payload["transmissions"] == [32 * 32] * 64
    for argv in (["analyze"], ["quotient", "--partition", "{0|1}", "--kind", "A"]):
        code, out, err = run([argv[0], cycle_file(65), *argv[1:]])
        assert code == 2
        assert out == ""
        assert "analyze and quotient take at most 64 vertices, got 65" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, stdin, n",
    [
        (["analyze", "-"], "graph 1000000000\n", 1000000000),
        (["quotient", "-", "--partition", "{0|1}"], "digraph 65\n0 1\n", 65),
        (["family", "cycle:1000000000"], None, 1000000000),
        (["family", "bicomplete:65"], None, 65),
        (["family", "multipartite:40,40", "--emit-file"], None, 80),
        (["family", "cliquestar:33,34"], None, 66),
        (["family", "knkp-g:65,1,1"], None, 65),
        (["family", "knkp-d:70,2,3"], None, 70),
    ],
)
def test_order_budget_is_checked_before_any_matrix_exists(run, monkeypatch, argv, stdin, n):
    def refuse(*args):
        raise AssertionError("a (di)graph was built past the order budget")

    monkeypatch.setattr("eqspec.graphs._AdjacencyGraph.__init__", refuse)
    monkeypatch.setattr("eqspec.cli.build", refuse)
    code, out, err = run(argv, stdin)
    commands = "family members" if argv[0] == "family" else "analyze and quotient"
    assert code == 2
    assert out == ""
    assert f"{commands} take at most 64 vertices, got {n}" in err
    assert "Traceback" not in err


def test_family_at_the_order_budget_builds(run):
    code, out, _ = run(["family", "multipartite:32,32", "--emit-file"])
    assert code == 0
    assert out.startswith("graph 64\n") and out.count("\n") == 1 + 32 * 32


def test_parse_error_names_line(run, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("graph 3\n0 1\n0 1\n")
    code, _, err = run(["analyze", str(path)])
    assert code == 2
    assert "line 3" in err


def test_scan_subcommand_json(run):
    code, out, _ = run(
        ["scan", "--n", "4", "--k", "1", "--directed", "--objective", "rho", "--mode", "max"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4 and payload["objective"] == "rho"
    assert payload["optimizers"]
    # adjacency maximum is attained by both endpoint families
    assert set(payload["classification"].values()) == {"knkp-d:4,1,1", "knkp-d:4,1,2"}


def test_scan_without_connectivity_filter(run):
    code, out, _ = run(
        ["scan", "--n", "3", "--directed", "--objective", "rho", "--mode", "max"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] is None
    assert payload["value"] == 2.0  # complete digraph on 3 vertices
    assert list(payload["classification"].values()) == ["bicomplete:3"]


def test_conjecture_subcommand(run):
    code, out, _ = run(["conjecture", "--trials", "200", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"trials": 200, "seed": 3, "counterexample_found": False}


def test_conjecture_at_the_order_budget_runs(run):
    # each of these matrices fills most of a chunk's entry budget alone
    code, out, err = run(["conjecture", "--trials", "3", "--n-max", "500"])
    assert code in (0, 1)
    assert json.loads(out)["seed"] == 0 and err == ""


def test_invalid_partition_is_input_error(run, tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("graph 3\n0 1\n1 2\n")
    code, out, err = run(["quotient", str(path), "--partition", "{0|0}", "--kind", "A"])
    assert code == 2 and out == ""
    assert err == "error: invalid partition '{0|0}': cells must be disjoint\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conjecture", "--trials", "5", "--n-max", "1"], "n range"),
        (["conjecture", "--trials", "5", "--t-max", "0"], "t range"),
        (["conjecture", "--trials", "-3"], "trials >= 1"),
        (["conjecture", "--trials", "0"], "trials >= 1"),
        (["conjecture", "--trials", "1", "--n-max", "1000000000"], "capped"),
        (["conjecture", "--trials", "1", "--t-max", "1000000000"], "capped"),
        (["verify", "lem3.4.random", "--params", "t_max=0"], "t range"),
        (["verify", "lem3.4.random", "--params", "n_max=0"], "n range"),
        (["verify", "lem3.4.random", "--params", "trials=-2"], "trials >= 1"),
        (["verify", "lem3.4.random", "--params", "trials=1,n_max=10000000"], "capped"),
    ],
)
def test_bad_probe_parameters_are_usage_errors(run, argv, message):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "lem3.4.random", "--params", "trials=abc"], "trials must be an integer"),
        (["verify", "thm4.3.i", "--params", "n=abc,k=1"], "n must be an integer"),
        (["verify", "ex3.5.1", "--params", "parts=2"], "needs at least 2 parts"),
        (["verify", "ex3.5.1", "--params", "parts=2:x"], "parts must be a colon-separated"),
        (["verify", "cor2.5", "--params", "n=4,shards=1"], "no parameters named: shards"),
        (["verify", "ex3.3", "--params", "bogus=3"], "no parameters named: bogus"),
        (["verify", "lem3.4.random", "--params", "trails=5"], "no parameters named: trails"),
        (["verify", "thm4.3.i", "--params", "n=400,k=1"], "capped at order 32, got 400"),
    ],
)
def test_bad_claim_parameters_are_usage_errors(run, argv, message):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_analyze_directory_is_input_error(run, tmp_path):
    code, out, err = run(["analyze", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_analyze_non_utf8_file_is_input_error(run, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("graph 2\n0 1 # caf\u00e9\n".encode("latin-1"))
    code, out, err = run(["analyze", str(path)])
    assert code == 2
    assert out == ""
    assert "codec" in err


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


_ORDERS = st.one_of(st.integers(-2, 8), st.integers(501, 10**12))


@settings(max_examples=60, deadline=None)
@given(
    trials=st.integers(-3, 3),
    seed=st.integers(-(10**9), 10**9),
    n_max=_ORDERS,
    t_max=_ORDERS,
)
def test_conjecture_fuzz_keeps_exit_contract(trials, seed, n_max, t_max):
    code, err = _run_quietly(
        ["conjecture", "--trials", str(trials), "--seed", str(seed),
         "--n-max", str(n_max), "--t-max", str(t_max)]
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(
    params=st.fixed_dictionaries(
        {},
        optional={
            "trials": st.integers(-3, 3),
            "seed": st.integers(-(10**9), 10**9),
            "n_max": _ORDERS,
            "t_max": _ORDERS,
        },
    )
)
def test_block_spectrum_random_fuzz_keeps_exit_contract(params):
    params.setdefault("trials", 2)
    text = ",".join(f"{key}={value}" for key, value in params.items())
    code, err = _run_quietly(["verify", "lem3.4.random", "--params", text])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# Parameter text for any claim: mostly the catalogue's own names with small
# values (orders up to the claim budget and large trial counts would only be
# slow), malformed tuples and junk values, plus free text.
_PARAM_NAMES = st.sampled_from(
    ("n", "k", "p", "parts", "sizes", "shards", "trials", "seed", "t_max", "n_max", "x")
)
_PARAM_VALUES = st.one_of(
    st.integers(-2, 9).map(str),
    st.lists(st.integers(-1, 5), min_size=1, max_size=4).map(
        lambda items: ":".join(map(str, items))
    ),
    st.text(alphabet="abx:=-. ", max_size=4),
)
_PARAM_TEXT = st.one_of(
    st.lists(
        st.tuples(_PARAM_NAMES, _PARAM_VALUES).map("=".join), max_size=4
    ).map(",".join),
    st.text(max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(claim=st.sampled_from(claim_ids()), text=_PARAM_TEXT)
def test_verify_params_fuzz_keeps_exit_contract(claim, text):
    code, err = _run_quietly(["verify", claim, "--params", text])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_output_deterministic_across_runs(run, petersen_file):
    _, first, _ = run(["analyze", petersen_file])
    _, second, _ = run(["analyze", petersen_file])
    assert first == second


def test_usage_error_exit_code(run):
    code, _, _ = run(["scan", "--n", "4"])
    assert code == 2


def test_scan_rejects_shards(run):
    code, out, err = run(
        ["scan", "--n", "4", "--objective", "qD", "--mode", "min", "--shards", "2"]
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --shards 2" in err


def test_missing_file_is_input_error(run):
    code, _, err = run(["analyze", "/nonexistent/graph.txt"])
    assert code == 2
    assert "error:" in err


def test_pretty_flag_is_valid_json(run, petersen_file):
    code, out, _ = run(["analyze", petersen_file, "--kinds", "A", "--pretty"])
    assert code == 0
    assert json.loads(out)["summary"]["rho"] == 3.0
    assert "\n  " in out
