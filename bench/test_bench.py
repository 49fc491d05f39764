"""Tests of the restore benchmark itself, on 64x48 smoke frames."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the checkout's src/ on sys.path
import harness
import spans
from depthrestore.image_model import DepthMap, save_depth_pgm

BENCH_DIR = Path(run.__file__).resolve().parent


def _main_result(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(list(argv))
    assert rc == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(trace):
    result = _main_result("--workload", "all", "--seed", "3", "--seconds", "0",
                          "--trace", str(trace), "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = [d["name"] for d in run.declared_metrics(bool(trace))]
    expected = {f"{w}.{name}" for w in harness.WORKLOADS for name in declared}
    assert set(result["metrics"]) == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("trace", [0, 1])
def test_failing_program_still_reports_incorrect(monkeypatch, trace):
    monkeypatch.setattr(harness.cli, "main", lambda argv: 2)
    result = _main_result("--workload", "occluder-vga", "--seed", "3", "--seconds", "0",
                          "--trace", str(trace), "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


def _bound_targets():
    return [getattr(importlib.import_module(m), a) for m, a, _ in spans.ALL_TARGETS]


def test_traced_run_restores_every_wrapped_function():
    before = _bound_targets()
    tracer = spans.Tracer()
    with tracer.installed():
        during = _bound_targets()
    assert all(b is not d for b, d in zip(before, during))
    assert all(b is a for b, a in zip(before, _bound_targets()))

    record = harness.run_workload(harness.WORKLOADS["tiles-vga-mt"], 5, 0, True, smoke=True)
    assert record["failed"] == 0
    assert all(b is a for b, a in zip(before, _bound_targets()))

    by_id = {s["id"]: s for s in record["spans"]}
    engine = [s for s in record["spans"] if s["name"].endswith(".window_sums")]
    assert {s["attrs"]["flavor"] for s in engine} == {"trilateral", "directional", "fill"}
    for s in engine:
        # Band workers attach to the run_banded span that handed them the band.
        assert by_id[s["parent"]]["name"].endswith(".run_banded")


def test_tiles_inputs_are_reproducible_from_the_seed(tmp_path):
    wl = harness.WORKLOADS["tiles-vga-mt"]

    def input_bytes(seed, name):
        d = tmp_path / f"{name}-{seed}"
        d.mkdir()
        harness.make_inputs(wl, seed, True, str(d))
        return (d / "depth.pgm").read_bytes(), (d / "guide.ppm").read_bytes()

    first = input_bytes(11, "a")
    assert input_bytes(11, "b") == first
    other = input_bytes(12, "c")
    assert other[0] != first[0] and other[1] == first[1]


def test_gate_rejects_each_failure_kind(tmp_path):
    inputs = harness.make_inputs(harness.WORKLOADS["occluder-vga"], 2, True, str(tmp_path))
    gate = harness.Gate(inputs)
    out = str(tmp_path / "out.pgm")
    first = harness.run_op(inputs, 1, gate, out)
    assert first.ok and gate.reference == first.sha256

    assert not gate.check(1, out, first.report)[0]
    assert not gate.check(0, out, first.report)[0]  # run_op removed the output
    samples = gate.first_output.samples.copy()
    samples[0, 0] = 0.0
    save_depth_pgm(DepthMap(samples), out)
    assert "differs" in gate.check(0, out, first.report)[1]
    assert "range" in harness.Gate(inputs).check(0, out, first.report)[1]
    broken = dict(first.report, holes_filled=first.report["holes_filled"] - 1)
    save_depth_pgm(gate.first_output, out)
    assert not gate.check(0, out, broken)[0]
    assert gate.check(0, out, first.report)[0]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "occluder-vga", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
