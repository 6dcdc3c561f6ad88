"""Timing spans around eqspec's public functions, installed from outside.

``Tracer.installed()`` rebinds every public function of the seven modules
that do work (``errors`` does none) in every ``eqspec`` module namespace
that holds it, so calls made through ``from .linalg import char_poly``
bindings are traced too, and restores every binding on exit. The package
source is not modified. A span is ``[name, start, end, parent, op]``:
``parent`` is the index of the enclosing span (-1 for none) and ``op`` the
index of the benchmark operation that was running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from workloads import mask_space

LAYERS = ("cli", "theorems", "search", "quotient", "linalg", "graphs", "families")

# Per-layer metrics: (name, unit, what it should move). A metric named
# "<layer>.self_s" sums the self time of every span of that layer;
# "<layer>.<function>.self_s" and ".calls" are those of one function.
PER_LAYER = (
    ("search.self_s", "s", "run_s, items_per_s on scan; no change on verify"),
    ("search.theorem_scan.self_s", "s", "run_s, items_per_s on scan"),
    ("search.extremal_scan.self_s", "s", "run_s, items_per_s on scan"),
    ("search.bound_scan.self_s", "s", "run_s, items_per_s on scan"),
    ("search.labeled_isomorph_masks.calls", "count", "run_s on scan"),
    ("search.labeled_isomorph_masks.self_s", "s", "run_s on scan"),
    ("search.masks", "count", "items_per_s on scan (labeled masks enumerated)"),
    ("search.connected_frac", "ratio", "run_s on scan (examined / enumerated)"),
    ("search.conjecture_search.self_s", "s", "run_s on probe (random spec generation)"),
    ("quotient.self_s", "s", "run_s on probe; no change on scan"),
    ("quotient.realize_block_matrix.calls", "count", "run_s on probe"),
    ("quotient.realize_block_matrix.self_s", "s", "run_s on probe"),
    ("quotient.is_equitable.self_s", "s", "run_s on probe"),
    ("quotient.quotient_matrix.self_s", "s", "run_s on probe"),
    ("quotient.conjecture_probe.self_s", "s", "run_s on probe"),
    ("quotient.block_spectrum.self_s", "s", "run_s on probe"),
    ("linalg.self_s", "s", "run_s, op_ms_p90 on verify; no change on scan or probe"),
    ("linalg.char_poly.calls", "count", "run_s, op_ms_p90 on verify"),
    ("linalg.char_poly.self_s", "s", "run_s, op_ms_p90 on verify"),
    ("linalg.char_poly.mul_ops", "count", "run_s on verify (computed: sum of (n-1)*n^3)"),
    ("linalg.eigenvalues.calls", "count", "run_s on probe and verify"),
    ("linalg.eigenvalues.self_s", "s", "run_s on probe and verify"),
    ("linalg.spectral_radius.calls", "count", "run_s on probe and verify"),
    ("linalg.spectral_radius.self_s", "s", "run_s on probe and verify"),
    ("graphs.self_s", "s", "op_ms_p50 on verify; rises on scan with an orbit scan"),
    ("graphs.build_matrix.calls", "count", "op_ms_p50 on verify"),
    ("graphs.build_matrix.self_s", "s", "op_ms_p50 on verify"),
    ("graphs.distance_matrix.self_s", "s", "op_ms_p50 on verify"),
    ("graphs.vertex_connectivity.calls", "count", "op_ms_p50 on verify"),
    ("graphs.vertex_connectivity.self_s", "s", "op_ms_p50 on verify"),
    ("families.self_s", "s", "run_s on verify"),
    ("families.build.calls", "count", "run_s on verify"),
    ("families.build.self_s", "s", "run_s on verify"),
    ("families.adjacency_blockspec.self_s", "s", "run_s on verify"),
    ("theorems.self_s", "s", "run_s on verify"),
    ("theorems.verify_claim.calls", "count", "run_s on verify"),
    ("theorems.passed_frac", "ratio", "fail_frac on verify (claims passed / verified)"),
    ("cli.self_s", "s", "op_ms_p50 on verify (parsing, float rounding, JSON)"),
    ("cli.stdout_bytes", "bytes", "op_ms_p50 on verify"),
    ("bench.self_s", "s", "none (time outside every wrapped function)"),
    ("trace.overhead_frac", "ratio", "none (traced run_s / untraced run_s - 1)"),
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_char_poly(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "m").n
    counts["linalg.char_poly.mul_ops"] += (n - 1) * n**3


def _count_theorem_scan(counts, args, kwargs, result):
    n, directed = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "directed")
    counts["search.masks"] += mask_space(n, directed)
    counts["search.examined"] += sum(
        next(iter(by_obj.values())).examined for by_obj in result.values()
    )


def _count_extremal_scan(counts, args, kwargs, result):
    job = _arg(args, kwargs, 0, "job")
    counts["search.masks"] += mask_space(job.n, job.directed)
    counts["search.examined"] += result.examined


def _count_bound_scan(counts, args, kwargs, result):
    counts["search.masks"] += mask_space(_arg(args, kwargs, 0, "n"), True)
    counts["search.examined"] += next(iter(result.values())).examined


def _count_verify_claim(counts, args, kwargs, result):
    counts["theorems.passed"] += bool(result.passed)


_COUNTERS = {
    "linalg.char_poly": _count_char_poly,
    "search.theorem_scan": _count_theorem_scan,
    "search.extremal_scan": _count_extremal_scan,
    "search.bound_scan": _count_bound_scan,
    "theorems.verify_claim": _count_verify_claim,
}


def public_functions():
    """(span name, function) for every public function of the layer modules.

    Generator functions are left out: a span around one would end before
    its body runs.
    """
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"eqspec.{layer}")
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not inspect.isgeneratorfunction(value)
            ):
                found.append((f"{layer}.{attr}", value))
    return found


def eqspec_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "eqspec" or name.startswith("eqspec.")
    ]


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every public function to a traced wrapper; restore on exit."""
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions()}
        try:
            for module in eqspec_modules():
                for attr, value in list(vars(module).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._bindings.append((module, attr, value))
                        setattr(module, attr, entry[1])
            yield self
        finally:
            for module, attr, original in reversed(self._bindings):
                setattr(module, attr, original)
            self._bindings.clear()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around a whole pass."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        clipped = sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[index]
        )
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, stdout_bytes: int) -> dict[str, float]:
    """Every PER_LAYER metric of one traced pass except trace.overhead_frac."""
    calls: Counter = Counter()
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_by_name[span[0]] += own
        self_by_layer[span[0].split(".", 1)[0]] += own
    counts = tracer.counts
    special = {
        "search.masks": counts["search.masks"],
        "search.connected_frac": (
            counts["search.examined"] / counts["search.masks"] if counts["search.masks"] else 0.0
        ),
        "linalg.char_poly.mul_ops": counts["linalg.char_poly.mul_ops"],
        "theorems.passed_frac": (
            counts["theorems.passed"] / calls["theorems.verify_claim"]
            if calls["theorems.verify_claim"]
            else 0.0
        ),
        "cli.stdout_bytes": stdout_bytes,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif tail == "self_s" and "." not in head:
            out[name] = self_by_layer[head]
        elif tail == "self_s":
            out[name] = self_by_name[head]
        elif tail == "calls":
            out[name] = calls[head]
    return out
