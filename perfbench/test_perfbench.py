"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import gzip
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import types

import pytest

from perfbench import hostspeed, layers, run, workloads

run.import_program()

#: Workload the short test operations are filed under (its setup probe
#: boots the same machine E12 uses).
W = "htab_flush"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def e12_reference():
    """E12's digest from one plain execution (E12 is sub-second)."""
    op = workloads.registry_op("E12")
    recorder = workloads.BootRecorder()
    recorder.install()
    try:
        digest = op.execute(workloads.DEFAULT_SEED, recorder).digest
    finally:
        recorder.uninstall()
    return {f"{W}/E12": digest}


@pytest.fixture(scope="module")
def traced_e12(e12_reference):
    return run.traced_run(
        W, [workloads.registry_op("E12")], workloads.DEFAULT_SEED,
        e12_reference,
    )


@pytest.fixture(scope="module")
def traced_capacity_point():
    op = workloads.capacity_op("broadcast", workloads.SMP_MIDDLE_LOAD)
    return run.traced_run(W, [op], seed=7, reference={})


# -- BENCHMARK.json ---------------------------------------------------------


def test_every_metric_and_workload_name_is_well_formed(benchmark_json):
    names = [w["name"] for w in benchmark_json["workloads"]]
    names += [m["name"] for m in benchmark_json["end_to_end"]]
    names += [m["name"] for m in benchmark_json["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert [w["name"] for w in benchmark_json["workloads"]] == list(run.WORKLOADS)


def test_every_end_to_end_metric_has_unit_direction_and_bound(benchmark_json):
    bounds = {}
    for metric in benchmark_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    setup = [m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())
    for metric in benchmark_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.fullmatch(metric["unit"])


def test_benchmark_json_lists_exactly_the_metrics_the_runs_emit(
    benchmark_json, e12_reference, traced_e12
):
    timed = run.timed_run(
        W, [workloads.registry_op("E12")], workloads.DEFAULT_SEED, 0,
        e12_reference, setup_repeats=1,
    )
    emitted = {name: unit for name, (_value, unit) in timed["metrics"].items()}
    listed = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert emitted == listed
    emitted = {name: unit for name, (_v, unit) in traced_e12["metrics"].items()}
    listed = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert emitted == listed


# -- the output check -------------------------------------------------------


def test_perturbed_reference_digest_fails_the_operation(e12_reference):
    ops = [workloads.registry_op("E12")]
    good = run.timed_run(W, ops, 1, 0, e12_reference, setup_repeats=0)
    assert good["attempted"] >= 1 and good["failures"] == []
    perturbed = {f"{W}/E12": "0" + e12_reference[f"{W}/E12"][1:]}
    bad = run.timed_run(W, ops, 1, 0, perturbed, setup_repeats=0)
    assert len(bad["failures"]) == bad["attempted"] > 0


def test_capacity_points_fall_back_to_invariants_off_the_default_seed():
    op = workloads.capacity_op("lazy", workloads.SMP_LOADS[0])
    result = workloads.OpResult("lazy", "x", [], 1)
    assert run.check(W, op, result, seed=7, reference={}) == []
    problems = run.check(W, op, result, workloads.DEFAULT_SEED, {})
    assert problems == ["no reference digest"]
    point = {"completed": 119, "latency_p50_us": 3.0, "latency_p90_us": 2.0,
             "latency_p99_us": 4.0, "latency_p999_us": 5.0}
    assert len(workloads.capacity_problems(point, 120)) == 2


# -- the traced run ---------------------------------------------------------


def test_traced_and_untraced_digests_are_equal(traced_e12, traced_capacity_point):
    for outcome in (traced_e12, traced_capacity_point):
        assert outcome["failures"] == []
        assert outcome["digests"]["traced"] == outcome["digests"]["untraced"]


def test_exercised_layers_report_calls(traced_e12, traced_capacity_point):
    registry = {k: v for k, (v, _unit) in traced_e12["metrics"].items()}
    for name in ("hw.cache.calls", "hw.cache.lines", "hw.machine.translations",
                 "hw.tlb.calls", "kernel.boot.calls", "obs.calls"):
        assert registry[name] > 0, name
    assert registry["obs.derive_s"] > 0
    assert registry["kernel.shootdown.ipis"] == 0
    smp = {k: v for k, (v, _unit) in traced_capacity_point["metrics"].items()}
    for name in ("kernel.shootdown.calls", "kernel.shootdown.ipis",
                 "kernel.syscall.calls", "kernel.boot.calls", "hw.cache.calls",
                 "sim.dispatches", "service.broadcast.latency_p99_us"):
        assert smp[name] > 0, name
    assert smp["obs.calls"] == 0


def _fake_layer_module(name: str, source: str) -> types.ModuleType:
    module = types.ModuleType(name)
    exec(compile(source, name, "exec"), vars(module))
    sys.modules[name] = module
    return module


def test_tracer_finds_functions_by_introspection_and_folds_nesting(tmp_path):
    inner = _fake_layer_module("fake_inner", """
class Kernel:
    def visit(self, n):
        return self.visit_batch([n])[0]
    def visit_batch(self, items):
        return [i * 2 for i in items]
    @staticmethod
    def helper():
        return 1
    def walk(self, n):
        for i in range(n):
            yield self.visit(i)
def _private():
    return 0
""")
    outer = _fake_layer_module("fake_outer", """
from fake_inner import Kernel
def drive(n):
    k = Kernel()
    return [k.visit(i) for i in range(n)] + list(k.walk(2))
""")
    tracer = layers.LayerTracer({"outer": ("fake_outer",), "inner": ("fake_inner",)})
    original = inner.Kernel.visit
    tracer.install()
    try:
        assert outer.drive(3) == [0, 2, 4, 0, 2]
        assert inner.Kernel.helper() == 1
    finally:
        tracer.uninstall()
    assert inner.Kernel.visit is original
    assert inner._private.__name__ == "_private"
    totals = tracer.layer_totals()
    # drive: 1 span; visit x3 (visit_batch folded), walk resumed 3 times
    # (its inner visits folded), helper called from outside any span.
    assert totals["outer"]["spans"] == 1
    assert totals["inner"]["spans"] == 3 + 3 + 1
    assert tracer.function_calls("Kernel.visit_batch") == 5
    assert tracer.function_calls("Kernel.visit") == 5
    roots = [i for i, p in enumerate(tracer.span_parent) if p < 0]
    assert len(roots) == 2
    drive = roots[0]
    children = [i for i, p in enumerate(tracer.span_parent) if p == drive]
    assert len(children) == 6
    covered = sum(tracer.span_end[i] - tracer.span_start[i] for i in children)
    duration = tracer.span_end[drive] - tracer.span_start[drive]
    assert totals["outer"]["self_ns"] == duration - covered
    assert layers.wrapper_cost_ns(calls=2000, repeats=1) > 0
    path = tmp_path / "spans.gz"
    tracer.write(str(path), {"workload": "fake"})
    with gzip.open(path, "rb") as handle:
        header = json.loads(handle.readline())
        body = handle.read()
    assert header["names"] == tracer.names and header["spans"] == 8
    assert len(body) == 8 * (2 + 4 + 8 + 8)


# -- host speed -------------------------------------------------------------


def test_speed_probe_samples_inside_the_block_and_nets_them_out():
    before = signal.getsignal(signal.SIGPROF)
    with hostspeed.SpeedProbe() as probe:
        start = time.thread_time()
        while time.thread_time() - start < 0.1:
            sum(range(1000))
    assert len(probe.loops) >= 3
    assert 0 < probe.cpu_s < probe.gross_s
    assert probe.speed > 0 and probe.scaled_s > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


# -- environment ------------------------------------------------------------


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    probe = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "htab_flush",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode != 0
    assert '"correct"' not in probe.stdout
