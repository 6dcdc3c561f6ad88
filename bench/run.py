"""eqspec benchmark: one workload per kind of check the package makes.

Run from the root of a checkout:

    python3 bench/run.py --workload scan|probe|verify --seed N --seconds S --trace 0|1

``bench/run_all.py`` runs the three workloads in turn with the same arguments.

The package is imported from ``src/`` of the checkout and driven in-process
through its public API and ``eqspec.cli.main``. Each pass runs the
workload's operations once, in a closed loop, and checks every output
against the exit code and stdout SHA-256 recorded in ``references.json``
by ``record_references.py``. One untimed pass at tiny scale first runs
the workload's code paths, so lazy imports and first-call set-up are
done before timing. Timed passes then repeat until the next one would
overrun ``--seconds`` (at least two).

Times are at reference speed. On a shared machine the speed this
process gets changes by up to twofold within seconds, so each untraced
pass runs under ``calibration.Calibrator``, which scales every
operation's time by how fast the machine ran a fixed loop around it (see
that module). An operation's time is then its fastest over the run's
untraced passes: what noise is left after scaling (interrupts, the
scaling's own error at its worst) mostly adds time, and the minimum drops
the most of it. ``--trace 0`` reports the end-to-end metrics:
``setup_s`` (median of SETUP_REPEATS fresh-process imports of eqspec
plus building the operations and loading their references, as measured),
``run_s`` (the time of one pass, as the sum of its operations' times),
``items_per_s`` (masks enumerated, probe trials or CLI calls per pass
over ``run_s``), ``op_ms_p50``/``op_ms_p90`` (deciles over the
operations' times; 1,433 operations on ``verify``, only 6 and 2 on
``scan`` and ``probe``) and ``peak_rss_mb``. The share of
operations whose output differs from its reference is printed as
``fail_frac`` and carried by ``failed``/``attempted``. ``--trace 1`` alternates
untraced passes with passes traced by ``tracing.Tracer`` and reports the
per-layer metrics, each the median over the traced passes; the spans go
to ``bench/out/``. The last line of stdout is the result as one JSON
object. The exit code is 0 when every output checked, 1 when any did not,
and 2 when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibration import Calibrator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES_PATH = BENCH_DIR / "references.json"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 9
MIN_PASSES = 2
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "SPECTRA_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    """The benchmark cannot run in this checkout or environment."""


@dataclass
class PassResult:
    wall: float
    op_seconds: list[float] = field(default_factory=list)
    op_scaled: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    stdout_bytes: int = 0
    items: int = 0
    calibrations: list[float] = field(default_factory=list)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_package():
    """Import eqspec from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "eqspec" / "__init__.py").is_file():
        raise SetupError(f"no eqspec package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eqspec

    if SRC not in Path(eqspec.__file__).resolve().parents:
        raise SetupError(f"eqspec was imported from {eqspec.__file__}, not from {SRC}")
    return eqspec


def check_environment() -> dict:
    settings = {}
    for name in THREAD_VARIABLES:
        value = os.environ.get(name)
        settings[name] = value
        if value is None:
            continue
        if not value.isdigit() or not 1 <= int(value) <= _nproc():
            raise SetupError(f"{name}={value!r}: leave it unset or set 1..{_nproc()}")
    return settings


def load_references(path: Path, ops) -> dict:
    references = json.loads(path.read_text())
    missing = [op.id for op in ops if op.id not in references]
    if missing:
        raise SetupError(f"{len(missing)} operations have no reference, e.g. {missing[0]!r}")
    return references


def measure_setup(workload, seed, scale, references_path):
    """Median over SETUP_REPEATS of a fresh-process ``import eqspec`` plus
    building the operations and loading their references."""
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import eqspec"],
            cwd=ROOT, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        ops = workloads.build_ops(workload, seed, scale)
        references = load_references(references_path, ops)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), ops, references


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(op, result, references) -> tuple[str | None, int, int]:
    """(problem or None, stdout bytes, items done) for one operation's result."""
    code, text = op.render(result)
    size = len(text.encode()) if op.is_cli else 0
    ref = references[op.id]
    if code != ref["exit"] or _digest(text) != ref["sha256"]:
        return f"exit {code} / digest differ from the reference", size, 0
    items = json.loads(text)[op.items_key] if op.items_key else op.items
    return None, size, items


def warm_up(workload, seed):
    """Run the workload once at tiny scale, untimed and unchecked; the
    timed passes count and report any failure."""
    import workloads

    for op in workloads.build_ops(workload, seed, "tiny"):
        with contextlib.suppress(Exception):
            op.call()


def run_pass(ops, references, tracer=None) -> PassResult:
    """Run every operation once. An untraced pass runs under a
    ``Calibrator``; a traced one does not, so that the samples' time stays
    out of the spans."""
    clock = time.perf_counter
    gc.collect()  # start every pass without the previous one's garbage
    outcome = PassResult(wall=0.0)
    calibrator = Calibrator()
    intervals = []
    with calibrator.running() if tracer is None else contextlib.nullcontext():
        start = clock()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            began = clock()
            try:
                result = op.call()
                intervals.append((began, clock()))
                problem, size, items = check_output(op, result, references)
            except Exception as exc:  # a failing operation is counted; the pass goes on
                intervals.append((began, clock()))
                problem, size, items = f"{type(exc).__name__}: {exc}", 0, 0
            outcome.stdout_bytes += size
            outcome.items += items
            if problem is not None:
                outcome.failures.append(f"{op.id}: {problem}")
        outcome.wall = clock() - start - sum(calibrator.seconds)
    outcome.op_seconds = [calibrator.net(began, end) for began, end in intervals]
    outcome.op_scaled = [calibrator.scaled(began, end) for began, end in intervals]
    outcome.calibrations = calibrator.seconds
    return outcome


def _traced_pass(ops, references):
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.pass"):
        outcome = run_pass(ops, references, tracer)
    return outcome, tracer


def measure(ops, references, seconds, trace):
    """Untraced passes, alternating with traced ones when ``trace``, until
    the next round would end after ``seconds``."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(ops, references))
        if trace:
            traced.append(_traced_pass(ops, references))
        round_s = statistics.median(p.wall for p in untraced)
        if trace:
            round_s += statistics.median(p.wall for p, _ in traced)
        enough = trace or len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - start + round_s > seconds:
            return untraced, traced


def end_to_end_metrics(ops, untraced, setup_s) -> dict[str, float]:
    per_op = [min(p.op_scaled[i] for p in untraced) for i in range(len(ops))]
    run_s = sum(per_op)
    deciles = statistics.quantiles(per_op, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "items_per_s": statistics.median(p.items for p in untraced) / run_s,
        "op_ms_p50": 1e3 * deciles[4],
        "op_ms_p90": 1e3 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(untraced, traced) -> dict[str, float]:
    from tracing import layer_metrics

    samples = [layer_metrics(tracer, p.stdout_bytes) for p, tracer in traced]
    out = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    out["trace.overhead_frac"] = (
        statistics.median(p.wall for p, _ in traced)
        / statistics.median(p.wall for p in untraced)
        - 1
    )
    return out


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(eqspec, settings, args, untraced, traced, ops) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "eqspec": eqspec.__version__,
        **settings,
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "setup_repeats": SETUP_REPEATS,
    }


def _write_outputs(args, record, traced, ops):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        passes = []
        for _, tracer in traced:
            t0 = tracer.spans[0][1]  # the pass's own span opens first
            passes.append(
                [[n, round(s - t0, 7), round(e - t0, 7), p, o] for n, s, e, p, o in tracer.spans]
            )
        spans = {
            "fields": ["name", "start", "end", "parent", "op"],
            "ops": [op.id for op in ops],
            "passes": passes,
        }
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=workloads.SCALES, default="full",
        help="tiny runs every workload at small sizes, for smoke tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        eqspec = import_package()
        args = parse_args(argv)
        settings = check_environment()
        setup_s, ops, references = measure_setup(
            args.workload, args.seed, args.scale, REFERENCES_PATH
        )
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2

    warm_up(args.workload, args.seed)
    untraced, traced = measure(ops, references, args.seconds, args.trace == 1)
    passes = untraced + [p for p, _ in traced]
    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p.failures]

    e2e = end_to_end_metrics(ops, untraced, setup_s)
    units = dict(END_TO_END)
    reported = e2e
    if args.trace:
        from tracing import PER_LAYER

        layers = per_layer_metrics(untraced, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        reported = layers
    metrics = {name: {"value": value, "unit": units[name]} for name, value in reported.items()}

    info = provenance(eqspec, settings, args, untraced, traced, ops)
    for name, value in e2e.items():
        print(f"{name:<40} {value:14.6g} {dict(END_TO_END)[name]}")
    print(f"{'fail_frac':<40} {len(failures) / attempted:14.6g} ratio")
    print(
        f"# op latency: {len(ops)} ops per pass, each the fastest of "
        f"{len(untraced)} untraced passes; {untraced[0].items} items per pass"
    )
    measured = sum(min(p.op_seconds[i] for p in untraced) for i in range(len(ops)))
    print(f"# run_s as measured, before scaling to reference speed: {measured:.6g} s")
    if args.trace:
        for name, value in layers.items():
            print(f"{name:<40} {value:14.6g} {units[name]}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print("provenance " + json.dumps(info, sort_keys=True))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "provenance": info,
        "result": result,
        "end_to_end": e2e,
        "pass_walls": [p.wall for p in untraced],
        "op_seconds": {op.id: [p.op_seconds[i] for p in untraced] for i, op in enumerate(ops)},
        "op_scaled": {op.id: [p.op_scaled[i] for p in untraced] for i, op in enumerate(ops)},
        "calibrations": [p.calibrations for p in untraced],
        "traced_pass_walls": [p.wall for p, _ in traced],
        "failures": failures,
    }
    _write_outputs(args, record, traced, ops)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
