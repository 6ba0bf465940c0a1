"""The repository benchmark: host cost of the simulator, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lmbench_tables --seed 20 --seconds 30 --trace 0

``--trace 0`` runs the workload's operations round-robin until
``--seconds`` have passed (each at least once), times each run in CPU
seconds scaled to a fixed host speed (see ``hostspeed.py``), and reports
the end-to-end metrics.  ``--trace 1`` runs one pass with every layer's public
functions wrapped in timing shims (see ``layers.py``), then one plain
pass, and reports the per-layer metrics.  Every operation's simulated
output is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full record,
with the host fingerprint, goes to ``perfbench/out/``.

``--write-reference`` re-records ``reference.json`` (the digest of every
operation at the default seed).  Do that only for a change that is meant
to alter simulated results.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import hostspeed, layers, workloads  # noqa: E402

WORKLOADS = ("lmbench_tables", "htab_flush", "smp_service")

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


class BenchError(Exception):
    """The benchmark cannot run here (no program, no reference)."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to benchmark: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")


def load_reference() -> Dict[str, str]:
    try:
        with open(REFERENCE) as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {REFERENCE}: {error}") from error
    if document.get("seed") != workloads.DEFAULT_SEED:
        raise BenchError(f"{REFERENCE} was recorded at another seed")
    return document["digests"]


def host_fingerprint(traced: bool) -> Dict[str, Any]:
    """What the host seconds were measured on; never compare across."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "traced": traced,
    }


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def check(
    workload: str,
    op: workloads.Operation,
    result: workloads.OpResult,
    seed: int,
    reference: Dict[str, str],
) -> List[str]:
    """Everything wrong with one operation's output.

    The reference digest applies whenever the output cannot depend on
    the seed: always for registry experiments (their seeds are fixed
    inside the program), and at the default seed for capacity points.
    Otherwise only the invariants that hold for every seed are checked.
    """
    problems = list(result.problems)
    if not op.seeded or seed == workloads.DEFAULT_SEED:
        expected = reference.get(f"{workload}/{op.name}")
        if expected is None:
            problems.append("no reference digest")
        elif expected != result.digest:
            problems.append(
                f"digest {result.digest[:12]} != reference {expected[:12]}"
            )
    return problems


def run_pass(
    ops: List[workloads.Operation], seed: int, recorder: workloads.BootRecorder
) -> Tuple[List[workloads.OpResult], List[float]]:
    """One pass over the operations; returns results and host seconds."""
    results, seconds = [], []
    for op in ops:
        start = time.perf_counter()
        results.append(op.execute(seed, recorder))
        seconds.append(time.perf_counter() - start)
    return results, seconds


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def setup_seconds(workload: str, repeats: int = SETUP_REPEATS) -> List[float]:
    """Scaled CPU seconds of fresh interpreters: imports, registry, one
    boot per machine spec (each probe reports its own)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--setup-probe", "--workload", workload]
    samples = []
    for _ in range(repeats):
        probe = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if probe.returncode != 0:
            raise BenchError(f"setup probe failed: {probe.stderr.strip()}")
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return samples


def setup_probe(workload: str) -> None:
    """Body of one setup probe: prints its scaled CPU seconds since the
    interpreter started, then exits without interpreter teardown."""
    startup = time.thread_time()
    with hostspeed.SpeedProbe() as probe:
        import_program()
        from repro.analysis import capacity, engine, specs  # noqa: F401

        workloads.setup_boots(workloads.operations(workload))
    print(json.dumps({"setup_s": (startup + probe.cpu_s) * probe.speed}))
    sys.stdout.flush()
    os._exit(0)


def timed_run(
    workload: str,
    ops: List[workloads.Operation],
    seed: int,
    seconds: float,
    reference: Dict[str, str],
    setup_repeats: int = SETUP_REPEATS,
) -> Dict[str, Any]:
    """Run the operations round-robin until ``seconds`` have passed.

    Every operation runs at least once; after that, an operation is
    started only if its last run would still end before the deadline.
    Each run starts after a garbage collection (so it does not pay for
    the previous one's garbage) and is timed by a
    :class:`hostspeed.SpeedProbe`.  ``norm_cpu_s`` is one pass's cost:
    the sum of each operation's median scaled CPU seconds.
    ``peak_rss_mb`` is read once every operation has run, so it does not
    depend on how many runs fit.
    """
    setup = setup_seconds(workload, setup_repeats) if setup_repeats else []
    workloads.setup_boots(ops)
    recorder = workloads.BootRecorder()
    recorder.install()
    samples: Dict[str, List[float]] = {op.name: [] for op in ops}
    #: Per run: wall seconds, CPU seconds net of calibration, host speed.
    raw: Dict[str, List[Tuple[float, float, float]]] = {
        op.name: [] for op in ops
    }
    cycles: Dict[str, int] = {}
    failures: List[Tuple[str, List[str]]] = []
    attempted = 0
    peak_rss = 0.0
    deadline = time.perf_counter() + seconds
    try:
        while True:
            progressed = False
            for op in ops:
                if (raw[op.name] and
                        time.perf_counter() + raw[op.name][-1][0] > deadline):
                    continue
                gc.collect()
                start = time.perf_counter()
                with hostspeed.SpeedProbe() as probe:
                    result = op.execute(seed, recorder)
                raw[op.name].append(
                    (time.perf_counter() - start, probe.cpu_s, probe.speed)
                )
                samples[op.name].append(probe.scaled_s)
                attempted += 1
                progressed = True
                cycles.setdefault(op.name, result.sim_cycles)
                problems = check(workload, op, result, seed, reference)
                if problems:
                    failures.append((op.name, problems))
                if not peak_rss and all(raw.values()):
                    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if not progressed:
                break
    finally:
        recorder.uninstall()
    cpu = sum(statistics.median(values) for values in samples.values())
    metrics = {
        "norm_cpu_s": (cpu, "s"),
        "sim_mcycles_per_s": (sum(cycles.values()) / 1e6 / cpu, "Mcycles/s"),
        "peak_rss_mb": (peak_rss / 1024, "MB"),
    }
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "samples": samples,
        "raw_samples": raw,
        "setup_samples": setup,
        "sim_cycles": cycles,
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

#: Layers reported with ``.calls`` and ``.self_s``.
_CALLS_AND_SELF = (
    "kernel.fault", "kernel.reload", "kernel.pagetable", "kernel.flush",
    "kernel.idle", "kernel.syscall", "kernel.core",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: layers.LayerTracer,
    totals: Dict[str, Dict[str, int]],
    results: List[workloads.OpResult],
    traced_wall: float,
    plain_wall: float,
    wrapper_ns: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metric set from one traced pass."""
    counters = sum((r.counters for r in results), start=Counter())

    def spans(layer: str) -> int:
        return totals[layer]["spans"]

    def self_s(layer: str) -> float:
        return totals[layer]["self_ns"] / 1e9

    def ns_per(layer: str, work: float) -> float:
        return _ratio(totals[layer]["self_ns"], work)

    lines = (counters["cache_hits"] + counters["cache_misses"]
             + counters["cache_bypasses"])
    translations = tracer.function_calls("MachineModel.translate")
    metrics: Dict[str, Tuple[float, str]] = {
        "hw.cache.calls": (spans("hw.cache"), "count"),
        "hw.cache.lines": (lines, "count"),
        "hw.cache.self_s": (self_s("hw.cache"), "s"),
        "hw.cache.ns_per_line": (ns_per("hw.cache", lines), "ns"),
        "hw.cache.hit_ratio": (_ratio(
            counters["cache_hits"],
            counters["cache_hits"] + counters["cache_misses"]), "ratio"),
        "hw.hashtable.calls": (spans("hw.hashtable"), "count"),
        "hw.hashtable.self_s": (self_s("hw.hashtable"), "s"),
        "hw.hashtable.ns_per_call": (
            ns_per("hw.hashtable", spans("hw.hashtable")), "ns"),
        "hw.hashtable.hit_ratio": (_ratio(
            counters["htab_hit"], counters["htab_search"]), "ratio"),
        "hw.hashtable.evict_ratio": (_ratio(
            counters["htab_evict"], counters["htab_reload"]), "ratio"),
        "hw.walker.calls": (spans("hw.walker"), "count"),
        "hw.walker.self_s": (self_s("hw.walker"), "s"),
        "hw.walker.ns_per_call": (
            ns_per("hw.walker", spans("hw.walker")), "ns"),
        "hw.tlb.calls": (spans("hw.tlb"), "count"),
        "hw.tlb.self_s": (self_s("hw.tlb"), "s"),
        "hw.tlb.ns_per_call": (ns_per("hw.tlb", spans("hw.tlb")), "ns"),
        "hw.tlb.hit_ratio": (_ratio(
            counters["tlb_hits"],
            counters["tlb_hits"] + counters["tlb_misses"]), "ratio"),
        "hw.machine.translations": (translations, "count"),
        "hw.machine.self_s": (self_s("hw.machine"), "s"),
        "hw.machine.ns_per_translation": (
            ns_per("hw.machine", translations), "ns"),
    }
    for layer in _CALLS_AND_SELF:
        metrics[f"{layer}.calls"] = (spans(layer), "count")
        metrics[f"{layer}.self_s"] = (self_s(layer), "s")
    metrics["kernel.idle.zombies_reclaimed"] = (
        counters["zombie_reclaimed"], "count")
    metrics.update({
        "kernel.shootdown.calls": (spans("kernel.shootdown"), "count"),
        "kernel.shootdown.self_s": (self_s("kernel.shootdown"), "s"),
        "kernel.shootdown.ipis": (counters["ipi_sent"], "count"),
        "kernel.boot.calls": (spans("kernel.boot"), "count"),
        "kernel.boot.self_s": (self_s("kernel.boot"), "s"),
        "sim.self_s": (self_s("sim"), "s"),
        "sim.dispatches": (counters["dispatches"], "count"),
        "workloads.self_s": (self_s("workloads"), "s"),
        "analysis.self_s": (self_s("analysis"), "s"),
        "obs.calls": (spans("obs"), "count"),
        "obs.self_s": (self_s("obs"), "s"),
        "obs.derive_s": (tracer.span_ns("derive") / 1e9, "s"),
        "obs.events_dropped": (counters["events_dropped"], "count"),
    })
    points = {r.name: r.point for r in results if r.point is not None}
    for strategy in workloads.SMP_STRATEGIES:
        point = points.get(f"{strategy}@{workloads.SMP_MIDDLE_LOAD}", {})
        metrics[f"service.{strategy}.latency_p99_us"] = (
            point.get("latency_p99_us", 0.0), "us")
        metrics[f"service.{strategy}.queue_wait_p99_us"] = (
            point.get("queue_wait_p99_us", 0.0), "us")
        metrics[f"service.{strategy}.mmu_cycles_per_request"] = (
            point.get("mmu_cycles_per_request", 0.0), "cycles")
    metrics.update({
        "bench.trace_overhead_s": (traced_wall - plain_wall, "s"),
        "bench.wrapper_ns": (wrapper_ns, "ns"),
        "bench.spans": (len(tracer.span_end), "count"),
    })
    return metrics


def traced_run(
    workload: str,
    ops: List[workloads.Operation],
    seed: int,
    reference: Dict[str, str],
    spans_path: Optional[str] = None,
    header: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One traced pass, then one plain pass; digests must agree."""
    recorder = workloads.BootRecorder()
    recorder.install()
    tracer = layers.LayerTracer()
    try:
        tracer.install()
        try:
            start = time.perf_counter()
            traced, _ = run_pass(ops, seed, recorder)
            traced_wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        start = time.perf_counter()
        plain, _ = run_pass(ops, seed, recorder)
        plain_wall = time.perf_counter() - start
    finally:
        recorder.uninstall()
    failures = []
    for op, with_trace, without in zip(ops, traced, plain):
        for result in (with_trace, without):
            problems = check(workload, op, result, seed, reference)
            if result is with_trace and result.digest != without.digest:
                problems.append("traced digest differs from untraced")
            if problems:
                failures.append((op.name, problems))
    totals = tracer.layer_totals()
    metrics = layer_metrics(
        tracer, totals, traced, traced_wall, plain_wall,
        layers.wrapper_cost_ns(),
    )
    if spans_path is not None:
        tracer.write(spans_path, header or {})
    return {
        "attempted": len(traced) + len(plain),
        "failures": failures,
        "metrics": metrics,
        "digests": {
            "traced": [r.digest for r in traced],
            "untraced": [r.digest for r in plain],
        },
        "layers": totals,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def write_reference() -> None:
    """Record every operation's digest at the default seed."""
    recorder = workloads.BootRecorder()
    recorder.install()
    digests = {}
    try:
        for workload in WORKLOADS:
            for op in workloads.operations(workload):
                result = op.execute(workloads.DEFAULT_SEED, recorder)
                if result.problems:
                    raise BenchError(f"{workload}/{op.name}: {result.problems}")
                digests[f"{workload}/{op.name}"] = result.digest
                print(f"{workload}/{op.name} {result.digest}", flush=True)
    finally:
        recorder.uninstall()
    with open(REFERENCE, "w") as handle:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": digests},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload)
        import_program()
        if args.write_reference:
            write_reference()
            return 0
        reference = load_reference()
        fingerprint = host_fingerprint(bool(args.trace))
        ops = workloads.operations(args.workload)
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
        )
        if args.trace:
            outcome = traced_run(
                args.workload, ops, args.seed, reference,
                spans_path=f"{os.path.join(OUT, args.workload)}.spans.gz",
                header={"workload": args.workload, "seed": args.seed,
                        "host": fingerprint},
            )
        else:
            outcome = timed_run(
                args.workload, ops, args.seed, args.seconds, reference
            )
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    failed = len(outcome["failures"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": fingerprint,
        **{k: v for k, v in outcome.items() if k != "metrics"},
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    with open(f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"host: {json.dumps(fingerprint, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, values in outcome.get("samples", {}).items():
        print(f"  op {name}: n={len(values)} median={statistics.median(values):.4f}s"
              f" min={min(values):.4f}s max={max(values):.4f}s (scaled CPU)")
    for name, problems in outcome["failures"]:
        print(f"  FAILED {name}: {'; '.join(problems)}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
