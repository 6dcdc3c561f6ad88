"""The benchmark's three workloads, as lists of operations on eqspec.

Each workload stresses a different module of the package:

- ``scan``: exhaustive extremal scans; ``search`` does nearly all the work.
  The mask spaces run from 2^12 to 2^20 labeled (di)graphs, with the
  vertex-connectivity path both on and off, and the 2^12 directed space is
  enumerated three times, so set-up amortization, cache residency and
  caching across calls each show.
- ``probe``: randomized quotient-radius probes; the float path of
  ``quotient`` (block expansion, equitable test, quotient, small
  eigensolves). Trials share no work. The probe seed is the benchmark
  seed modulo ``PROBE_SEEDS``, so every probe input has a recorded
  reference output.
- ``verify``: about 1,400 small CLI calls into the claim catalogue, family
  constructors and the analyze/quotient commands; exact char polys in
  ``linalg`` dominate and per-call overhead is visible.

An operation's timed ``call`` goes through module attributes
(``cli.main``, ``search.theorem_scan``) so the tracer's rebinding reaches
it. ``render`` turns the call's result into an exit code and output text
outside the timed region.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from eqspec import cli, families, graphs, quotient, search

WORKLOADS = ("scan", "probe", "verify")
SCALES = ("full", "tiny")

_SIGNIFICANT_DIGITS = 12

# Tuples shared by the complete multipartite (parts) and clique star (sizes)
# char-poly claims; every entry is valid for both families.
_CHARPOLY_TUPLES = ("2:3", "3:4:5", "4:4:4:4", "2:2:2", "5:6", "3:3:4")
_ANALYZED_FAMILIES = (
    "petersen",
    "knkp-g:12,5,1",
    "knkp-d:12,5,3",
    "multipartite:3,4,5",
    "cliquestar:3,4,5",
)
_KINDS = ("A", "L", "Q", "D", "DL", "DQ")
PROBE_SEEDS = 16


@dataclass(frozen=True)
class Op:
    """One timed operation, checked against the exit code and stdout digest
    recorded for its ``id``.

    ``items`` is the work it does, in the workload's unit. ``items_key``
    names the output field that holds the count actually done, for an
    operation that may stop early.
    """

    id: str
    call: Callable[[], object]
    render: Callable[[object], tuple[int, str]]
    items: int
    is_cli: bool
    items_key: str | None = None


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.{_SIGNIFICANT_DIGITS}g}")
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(value) for value in obj]
    return obj


def _run_cli(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def _identity(result):
    return result


def cli_op(argv, items=1, stdin_text=None, stdin_label="", items_key=None) -> Op:
    argv = tuple(argv)
    return Op(
        id="cli " + " ".join(argv) + (f" < {stdin_label}" if stdin_label else ""),
        call=lambda: _run_cli(list(argv), stdin_text),
        render=_identity,
        items=items,
        is_cli=True,
        items_key=items_key,
    )


def _render_theorem_scan(result):
    payload = {
        str(k): {obj: cert.to_json() for obj, cert in sorted(by_obj.items())}
        for k, by_obj in sorted(result.items())
    }
    return 0, json.dumps(_round_floats(payload), sort_keys=True)


def mask_space(n: int, directed: bool) -> int:
    """Number of labeled (di)graph bitmasks a scan on n vertices enumerates."""
    pairs = n * (n - 1) if directed else n * (n - 1) // 2
    return 1 << pairs


def theorem_scan_op(n: int, directed: bool) -> Op:
    return Op(
        id=f"api theorem_scan n={n} directed={directed}",
        call=lambda: search.theorem_scan(n, directed=directed),
        render=_render_theorem_scan,
        items=mask_space(n, directed),
        is_cli=False,
    )


def _scan_ops(scale):
    if scale == "tiny":
        und, dig, cor, scan_und, scan_dir = 4, 3, 3, 4, 4
    else:
        und, dig, cor, scan_und, scan_dir = 6, 4, 4, 6, 5
    return [
        theorem_scan_op(und, False),
        theorem_scan_op(dig, True),
        cli_op(["verify", "cor2.5", "--params", f"n={cor}"], items=mask_space(cor, True)),
        cli_op(["verify", "cor2.6", "--params", f"n={cor}"], items=mask_space(cor, True)),
        cli_op(
            ["scan", "--n", str(scan_und), "--objective", "qD", "--mode", "min"],
            items=mask_space(scan_und, False),
        ),
        cli_op(
            ["scan", "--n", str(scan_dir), "--k", "2", "--directed",
             "--objective", "rho", "--mode", "max"],
            items=mask_space(scan_dir, True),
        ),
    ]


def _probe_ops(scale, seed):
    trials, lemma_trials = (200, 20) if scale == "tiny" else (10000, 1000)
    probe_seed = seed % PROBE_SEEDS
    return [
        # stops at the first counterexample it reports
        cli_op(
            ["conjecture", "--trials", str(trials), "--seed", str(probe_seed)],
            items=trials,
            items_key="trials",
        ),
        cli_op(
            ["verify", "lem3.4.random", "--params", f"trials={lemma_trials},seed={probe_seed}"],
            items=lemma_trials,
        ),
    ]


def _verify_ops(scale):
    n_max = 5 if scale == "tiny" else 12
    tuples = _CHARPOLY_TUPLES[:1] if scale == "tiny" else _CHARPOLY_TUPLES
    ops = []
    for n in range(3, n_max + 1):
        for k in range(1, n - 1):
            for thm in ("thm4.3", "thm5.2"):
                for sub in ("i", "ii", "iii", "iv"):
                    ops.append(cli_op(["verify", f"{thm}.{sub}", "--params", f"n={n},k={k}"]))
            for p in range(1, n - k):
                for prop in ("prop4.4", "prop5.2"):
                    for sub in ("i", "ii"):
                        ops.append(
                            cli_op(["verify", f"{prop}.{sub}", "--params", f"n={n},k={k},p={p}"])
                        )
    for item in range(1, 7):
        for value in tuples:
            ops.append(cli_op(["verify", f"ex3.5.{item}", "--params", f"parts={value}"]))
            ops.append(cli_op(["verify", f"ex3.6.{item}", "--params", f"sizes={value}"]))
    ops.append(cli_op(["verify", "ex3.3"]))
    for text in _ANALYZED_FAMILIES:
        spec = families.parse_family(text)
        graph_file = graphs.format_graph_file(families.build(spec))
        cells = quotient.format_partition(families.natural_partition(spec))
        ops.append(cli_op(["family", text]))
        ops.append(cli_op(["analyze", "-"], stdin_text=graph_file, stdin_label=text))
        for kind in _KINDS:
            ops.append(
                cli_op(["quotient", "-", "--partition", cells, "--kind", kind],
                       stdin_text=graph_file, stdin_label=text)
            )
    return ops


def build_ops(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The workload's operations in the order a pass runs them.

    On ``probe`` the seed picks the probe seed; on ``scan`` and ``verify``
    it shuffles the order of the operations.
    """
    if workload == "probe":
        return _probe_ops(scale, seed)
    ops = _scan_ops(scale) if workload == "scan" else _verify_ops(scale)
    random.Random(seed).shuffle(ops)
    return ops
