"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest bench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import calibration
import run_all
import run
import tracing
import workloads
from eqspec import linalg, theorems

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    return tmp_path / "out"


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_times_subtract_nested_children():
    spans = [
        _span("bench.pass", 0.0, 10.0, -1),
        _span("cli.main", 1.0, 4.0, 0),
        _span("linalg.char_poly", 2.0, 3.5, 1),
        _span("search.theorem_scan", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0])


def test_self_times_count_overlapping_children_once():
    spans = [
        _span("bench.pass", 0.0, 10.0, -1),
        _span("a.f", 1.0, 4.0, 0),
        _span("a.g", 3.0, 6.0, 0),
        _span("a.h", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_calibrator_removes_its_samples_and_scales_by_nearby_speed():
    calibrator = calibration.Calibrator()
    # samples at 0.0, 1.0 and 1.5 s; the machine ran at half reference speed
    calibrator.starts = [0.0, 1.0, 1.5]
    calibrator.seconds = [2 * calibration.REFERENCE_S] * 2 + [9.0]
    assert calibrator.net(0.9, 1.2) == pytest.approx(0.3 - 2 * calibration.REFERENCE_S)
    # only the sample at 1.0 s lies within WINDOW_S of [0.9, 1.2]
    assert calibrator.scaled(0.9, 1.2) == pytest.approx(calibrator.net(0.9, 1.2) / 2)


def test_calibrator_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    calibrator = calibration.Calibrator()
    with calibrator.running():
        end = time.perf_counter() + 5 * calibration.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(calibrator.seconds) >= 2
    assert calibrator.starts == sorted(calibrator.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bindings():
    return {
        (module.__name__, attr): value
        for module in tracing.eqspec_modules()
        for attr, value in vars(module).items()
    }


def test_tracer_rebinds_imported_names_and_restores_them():
    before = _bindings()
    original = linalg.char_poly
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(), tracer.span("bench.pass"):
            assert theorems.char_poly is not original
            assert theorems.char_poly is linalg.char_poly
            op = workloads.cli_op(["verify", "ex3.5.1", "--params", "parts=2:3"])
            assert op.render(op.call())[0] == 0
            raise RuntimeError("leave the traced block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert linalg.char_poly is original

    names = [span[0] for span in tracer.spans]
    by_name = {span[0]: span for span in tracer.spans}
    assert names[:2] == ["bench.pass", "cli.main"]
    assert names[by_name["theorems.verify_claim"][3]] == "cli.main"
    assert "linalg.char_poly" in names
    assert tracer.counts["theorems.passed"] == 1
    assert tracer.counts["linalg.char_poly.mul_ops"] >= 4 * 5**3  # the 5x5 matrix itself


def test_corrupted_reference_counts_as_failed(tmp_path, monkeypatch, capsys, out_dir):
    references = json.loads(run.REFERENCES_PATH.read_text())
    key = "cli verify ex3.3"
    references[key]["sha256"] = "0" * 64
    corrupted = tmp_path / "references.json"
    corrupted.write_text(json.dumps(references))
    monkeypatch.setattr(run, "REFERENCES_PATH", corrupted)
    code = run.main(
        ["--workload", "verify", "--seed", "1", "--seconds", "0", "--trace", "0", "--scale", "tiny"]
    )
    result = _result(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == run.MIN_PASSES
    assert result["attempted"] == run.MIN_PASSES * len(workloads.build_ops("verify", 1, "tiny"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace, capsys, out_dir):
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0",
         "--trace", str(trace), "--scale", "tiny"]
    )
    result = _result(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads(BENCHMARK_JSON.read_text())["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert (out_dir / f"spans-{workload}-tiny-seed5-trace1.json").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run_all.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER
    ]


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(
        run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "cannot start" in done.stderr
