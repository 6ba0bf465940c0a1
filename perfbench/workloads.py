"""The benchmark's workloads, their operations and the output checks.

Every operation goes through an entry point users call:

* a registry experiment runs as ``repro run <id> --no-cache`` does,
  through ``engine.run_cached(spec, use_cache=False, derive=True)``;
* a capacity point runs as ``repro capacity`` does, through
  ``capacity.capacity_sweep`` (one strategy, one offered load).

An operation's simulated output is summarised by a digest over its
JSON-round-tripped output plus, for every simulator it booted (in boot
order), the per-CPU cycle totals and the machine-wide monitor counters.
The simulator is deterministic, so at the seed the reference digests
were recorded with, any other digest is a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Seed the reference digests are recorded at; the capacity sweep's own
#: default arrival seed.
DEFAULT_SEED = 20

#: The SMP service workload's fixed parameters.
SMP_CPUS = 4
SMP_REQUESTS = 120
SMP_STRATEGIES = ("broadcast", "targeted", "lazy", "mmap_reuse")
#: Offered loads (req/s): below, around and past the 4-CPU knee.
SMP_LOADS = (4_000, 12_000, 24_000)
#: Uniform arrival jitter (gaps drawn from 0.5..1.5 x the mean gap).
#: With exponential gaps the simulated work of a low-load point moves by
#: about 18% (interquartile, over ten seeds) with the seed; with uniform
#: gaps by about 5%, so host time measures the program, not the draw.
SMP_SCHEDULE = "uniform"
#: The rung the traced run reports the per-strategy SLO numbers at.
SMP_MIDDLE_LOAD = SMP_LOADS[1]

#: Per-simulator counters the traced run aggregates into layer ratios.
_MONITOR_TOTALS = (
    "htab_search", "htab_hit", "htab_reload", "htab_evict",
    "zombie_reclaimed", "ipi_sent",
)


@dataclass
class OpResult:
    """What one operation produced and what it cost in simulated work."""

    name: str
    digest: str
    #: Failed invariants (empty when the output is well-formed).
    problems: List[str]
    #: Simulated cycles summed over every CPU of every booted simulator.
    sim_cycles: int
    #: Simulated counters behind the per-layer ratios.
    counters: Counter = field(default_factory=Counter)
    #: The capacity point, for capacity operations.
    point: Optional[Dict[str, Any]] = None


class BootRecorder:
    """Collects every :class:`Simulator` booted while installed."""

    def __init__(self) -> None:
        self.booted: List[Any] = []
        self._original = None

    def install(self) -> None:
        from repro.sim.simulator import Simulator

        original = vars(Simulator)["__init__"]
        booted = self.booted

        def __init__(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            booted.append(sim)

        __init__.__wrapped__ = original
        self._original = original
        Simulator.__init__ = __init__

    def uninstall(self) -> None:
        from repro.sim.simulator import Simulator

        if self._original is not None:
            Simulator.__init__ = self._original
            self._original = None

    def take(self) -> List[Any]:
        sims = list(self.booted)
        self.booted.clear()
        return sims


def _sim_summary(sim) -> Dict[str, Any]:
    machine = sim.machine
    return {
        "cpu_cycles": machine.cpu_cycle_totals(),
        "monitor": machine.monitor_totals(),
    }


def _sim_counters(sim) -> Counter:
    """Simulated work counters of one booted simulator."""
    counters: Counter = Counter()
    for cpu in sim.machine.cpus:
        for cache in (cpu.icache, cpu.dcache, cpu.l2):
            stats = cache.stats
            counters["cache_hits"] += stats.hits
            counters["cache_misses"] += stats.misses
            counters["cache_bypasses"] += stats.bypasses
        for tlb in (cpu.itlb, cpu.dtlb):
            counters["tlb_hits"] += tlb.hits
            counters["tlb_misses"] += tlb.misses
    monitor = sim.machine.monitor_totals()
    for event in _MONITOR_TOTALS:
        counters[event] += monitor.get(event, 0)
    counters["dispatches"] += sim.executive.dispatches
    if sim.obs is not None and sim.obs.tracer is not None:
        counters["events_dropped"] += sim.obs.tracer.dropped
    return counters


def digest(output: Any, sims: List[Any]) -> str:
    """Canonical digest of an operation's simulated output."""
    document = {
        "output": output,
        "simulators": [_sim_summary(sim) for sim in sims],
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def capacity_problems(point: Dict[str, Any], requests: int) -> List[str]:
    """Invariants every capacity point satisfies at any seed."""
    problems = []
    if point["completed"] != requests:
        problems.append(
            f"{point['completed']} of {requests} requests completed"
        )
    ladder = [point[key] for key in (
        "latency_p50_us", "latency_p90_us", "latency_p99_us", "latency_p999_us"
    )]
    if ladder != sorted(ladder):
        problems.append(f"latency percentiles not monotone: {ladder}")
    return problems


@dataclass
class Operation:
    """One unit of a workload: run it, get its output and its checks."""

    name: str
    run: Callable[[int], Tuple[Any, List[str]]]
    #: Whether the output depends on the benchmark's ``--seed``.
    seeded: bool
    #: ``(machine spec, kernel config, n_cpus)`` the operation boots.
    machines: List[Tuple[Any, Any, int]]

    def execute(self, seed: int, recorder: BootRecorder) -> OpResult:
        output, problems = self.run(seed)
        sims = recorder.take()
        counters: Counter = Counter()
        for sim in sims:
            counters.update(_sim_counters(sim))
        return OpResult(
            name=self.name,
            digest=digest(output, sims),
            problems=problems,
            sim_cycles=sum(sim.total_cycles for sim in sims),
            counters=counters,
            point=output if self.seeded else None,
        )


def registry_op(experiment_id: str) -> Operation:
    """A registry experiment, run as ``repro run <id> --no-cache``."""
    from repro.analysis import engine

    spec = engine.spec_for(experiment_id)

    def run(_seed: int) -> Tuple[Any, List[str]]:
        result, _wall, _hit = engine.run_cached(
            spec, use_cache=False, derive=True
        )
        problems = [] if result.shape_holds else ["shape predicate false"]
        return result.measured, problems

    machines = [(v.machine, v.config, 1) for v in spec.variants]
    return Operation(experiment_id, run, seeded=False, machines=machines)


def capacity_op(strategy: str, load: int) -> Operation:
    """One (strategy, load) point, run as ``repro capacity`` does."""
    from repro.analysis import capacity
    from repro.kernel.config import KernelConfig
    from repro.params import M604_185

    def run(seed: int) -> Tuple[Any, List[str]]:
        doc = capacity.capacity_sweep(
            loads=(load,), strategies=(strategy,), n_cpus=SMP_CPUS,
            requests=SMP_REQUESTS, seed=seed, schedule=SMP_SCHEDULE,
        )
        capacity.validate_capacity_doc(doc)
        point = json.loads(json.dumps(doc["curves"][0]["points"][0]))
        return point, capacity_problems(point, SMP_REQUESTS)

    config = KernelConfig.optimized().with_changes(
        shootdown_strategy=capacity.strategy_variant(strategy)
    )
    return Operation(
        f"{strategy}@{load}", run, seeded=True,
        machines=[(M604_185, config, SMP_CPUS)],
    )


def operations(workload: str) -> List[Operation]:
    """The workload's operations, in the order one pass runs them."""
    if workload == "lmbench_tables":
        return [registry_op("E5"), registry_op("E6")]
    if workload == "htab_flush":
        return [registry_op("E8"), registry_op("E16")]
    if workload == "smp_service":
        return [
            capacity_op(strategy, load)
            for strategy in SMP_STRATEGIES
            for load in SMP_LOADS
        ]
    raise KeyError(workload)


def setup_boots(ops: List[Operation]) -> None:
    """Boot one simulator per distinct machine spec the operations use."""
    from repro.sim.simulator import boot

    seen = set()
    for op in ops:
        for machine, config, n_cpus in op.machines:
            key = (machine.name, n_cpus)
            if key in seen:
                continue
            seen.add(key)
            boot(machine, config, n_cpus=n_cpus)
