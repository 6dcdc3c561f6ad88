"""Command-line front end.

Subcommands: analyze, quotient, family, verify, scan, conjecture. All
success paths print JSON on stdout (the one exception is ``family
--emit-file``, which prints the raw graph file so it can be piped back into
``analyze -``). Exit codes: 0 success / claim passed / no counterexample,
1 verification failure or counterexample found, 2 usage or input errors.
``analyze``, ``quotient`` and ``family`` take (di)graphs of at most
``GRAPH_ORDER_BUDGET`` vertices and raise BudgetExceeded (exit 2) above it,
before any n x n array exists.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import graphs, linalg, quotient, search, theorems
from .errors import BudgetExceeded, EqspecError
from .families import adjacency_blockspec, build, format_family, parse_family
from .graphs import ALL_KINDS, MatrixKind, build_matrix, format_graph_file

_SIGNIFICANT_DIGITS = 12
# largest (di)graph analyze, quotient and family take; at this order the
# vertex-cut search of analyze spends its whole cut budget in about 25 s
# (2-core VM)
GRAPH_ORDER_BUDGET = 64

def _round_floats(obj):
    """Round every float to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.{_SIGNIFICANT_DIGITS}g}")
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(value) for value in obj]
    return obj


def _emit(payload, pretty: bool) -> None:
    payload = _round_floats(payload)
    if pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload, separators=(",", ":")))


def _check_order(n: int, commands: str) -> None:
    if n > GRAPH_ORDER_BUDGET:
        raise BudgetExceeded(f"{commands} take at most {GRAPH_ORDER_BUDGET} vertices, got {n}")


def _read_graph(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    cls, n, items = graphs._parse_graph_text(text)
    _check_order(n, "analyze and quotient")
    return cls(n, items)


def _parse_kinds(spec: str | None):
    if not spec:
        return ALL_KINDS
    return tuple(MatrixKind.coerce(part.strip()) for part in spec.split(","))


def _parse_params(spec: str | None) -> dict:
    """``n=6,k=2,parts=2:3`` as names to their text; the claim's schema
    reads each value (``theorems._coerce``)."""
    params: dict = {}
    for item in (spec or "").split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise EqspecError(f"bad parameter {item!r}, expected key=value")
        params[key.strip()] = value.strip()
    return params


def _cmd_analyze(args) -> int:
    obj = _read_graph(args.file)
    kinds = _parse_kinds(args.kinds)
    adj = obj.adjacency[None]
    dist = graphs._connected_distances(adj, obj.directed)
    matrices, summary = {}, {}
    for kind in kinds:
        [values] = linalg.eigvals_stack(graphs.matrix_stack(dist if kind.distance else adj, kind))
        radius = summary[kind.radius_name] = float(np.max(np.abs(values)))
        matrices[kind.value] = {
            "spectrum": linalg.Spectrum.from_values(values).to_json(),
            "spectral_radius": radius,
        }
    payload = {
        "n": obj.n,
        "directed": obj.directed,
        "vertex_connectivity": int(graphs.vertex_connectivities(adj, np.ones(1, dtype=bool))[0]),
        "transmissions": dist[0].sum(axis=1).tolist(),
        "summary": summary,
        "matrices": matrices,
    }
    _emit(payload, args.pretty)
    return 0


def _cmd_quotient(args) -> int:
    obj = _read_graph(args.file)
    part = quotient.parse_partition(args.partition)
    kind = MatrixKind.coerce(args.kind)
    matrix = build_matrix(obj, kind)
    equitable, b_exact = quotient._equitable_quotient(matrix, part)
    payload = {
        "kind": kind.value,
        "partition": quotient.format_partition(part),
        "B": [[float(x) for x in row] for row in b_exact.rows],
        "equitable": equitable,
        "quotient_spectrum": linalg.eigenvalues(b_exact.to_numpy()).to_json(),
    }
    if equitable:
        report = quotient.lift_check(matrix.to_numpy(), part)
        payload["lifted"] = report.lifted
    else:
        payload["lifted"] = None
    _emit(payload, args.pretty)
    return 0


def _cmd_family(args) -> int:
    spec = parse_family(args.familyspec)
    _check_order(spec.n, "family members")
    obj = build(spec)
    if args.emit_file:
        sys.stdout.write(format_graph_file(obj))
        return 0
    blockspecs = {}
    for kind in ALL_KINDS:
        try:
            blockspecs[kind.value] = adjacency_blockspec(spec, kind).to_json()
        except EqspecError:
            blockspecs = {}
            break
    payload = {
        "family": format_family(spec),
        "n": obj.n,
        "directed": obj.directed,
        "graph_file": format_graph_file(obj),
        "blockspecs": blockspecs,
    }
    _emit(payload, args.pretty)
    return 0


def _cmd_verify(args) -> int:
    params = _parse_params(args.params)
    report = theorems.verify_claim(args.claim, params)
    _emit(report.to_json(), args.pretty)
    return 0 if report.passed else 1


def _cmd_scan(args) -> int:
    job = search.ScanJob(
        n=args.n,
        k=args.k,
        directed=args.directed,
        objective=args.objective,
        mode=args.mode,
    )
    cert = search.extremal_scan(job)
    _emit(cert.to_json(), args.pretty)
    return 0


def _cmd_conjecture(args) -> int:
    result = search.conjecture_search(
        trials=args.trials,
        n_range=(2, args.n_max),
        t_range=(1, args.t_max),
        seed=args.seed,
    )
    _emit(result.to_json(), args.pretty)
    return 1 if result.found else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="eqspec",
        description="Spectra of graph/digraph matrices through equitable quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectra, radii, transmissions, connectivity")
    p.add_argument("file", help="graph file path, or - for stdin")
    p.add_argument("--kinds", help="comma list from A,L,Q,D,DL,DQ (default: all)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("quotient", help="quotient matrix, equitable flag, lift check")
    p.add_argument("file", help="graph file path, or - for stdin")
    p.add_argument("--partition", required=True, help='cells, e.g. "{0,1|2,3}"')
    p.add_argument("--kind", default="A", help="one of A,L,Q,D,DL,DQ")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("family", help="build a named family member")
    p.add_argument("familyspec", help="e.g. petersen, cycle:5, knkp-g:6,2,1")
    p.add_argument(
        "--emit-file",
        action="store_true",
        help="print the raw graph file instead of JSON (pipe into 'analyze -')",
    )
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="run a catalogued claim verification")
    p.add_argument("claim", help="claim id, e.g. thm5.2.i (see README for the list)")
    p.add_argument("--params", help='e.g. "n=6,k=2" or "parts=2:3"')
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="exhaustive extremal scan over small (di)graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="connectivity class (omit for all)")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--objective", required=True, choices=search.OBJECTIVES)
    p.add_argument("--mode", required=True, choices=("max", "min"))
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("conjecture", help="randomized probe for quotient-radius equality")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--t-max", type=int, default=4)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except EqspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
