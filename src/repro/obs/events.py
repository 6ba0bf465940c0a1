"""Structured event tracing — layer 1 of the MMU flight recorder.

§4's methodology is observability: the 604 hardware monitor "counting
every TLB and cache miss" is what made the paper's optimizations
findable.  The :class:`EventTracer` is the software equivalent of that
monitor's event stream: a ring-buffered bus of timestamped events that
the machine and kernel commit points (TLB/hash miss and reload, BAT
hits, flushes and VSID bumps, idle reclaim and preclear, context
switches, syscall entries, page faults) publish into.  Every name
they publish is registered in :data:`repro.obs.taxonomy.EVENTS`.

Zero perturbation is the design rule, mirroring ``repro.check``: an
emit never touches the cycle ledger, the hardware monitor, or any cache
— a traced run is bit-identical to an untraced one in every counter and
in total cycles.  Timestamps are *simulated* cycles read off the ledger,
so two identical runs produce byte-identical traces.

The export format is Chrome trace-event JSON (the ``traceEvents``
array), so any captured run opens directly in Perfetto or
``chrome://tracing``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from repro.obs.taxonomy import DEFAULT_MONITOR_EVENTS

#: Default ring capacity, in events.  A full E7 run emits a few million
#: raw events; the ring keeps the most recent window bounded.
DEFAULT_CAPACITY = 1 << 18

#: Chrome trace-event phases this tracer emits.
PH_INSTANT = "i"
PH_COMPLETE = "X"
PH_COUNTER = "C"
PH_METADATA = "M"


class TraceConfig:
    """Tuning knobs for one :class:`EventTracer`."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        monitor_events: Optional[FrozenSet[str]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"trace ring capacity must be positive: {capacity}")
        self.capacity = capacity
        self.monitor_events = (
            DEFAULT_MONITOR_EVENTS if monitor_events is None else
            frozenset(monitor_events)
        )


class EventTracer:
    """A ring-buffered event bus with simulated-cycle timestamps.

    Events are stored as tuples ``(ts_cycles, dur_cycles, ph, category,
    name, tid, args)`` — ``dur_cycles`` and ``args`` may be ``None``.
    ``tid`` is the pid of the task that was current when the event
    fired (0 = boot / idle / no task).
    """

    def __init__(self, machine: Any, kernel: Any = None,
                 label: str = "machine",
                 config: Optional[TraceConfig] = None) -> None:
        self.machine = machine
        self.kernel = kernel
        self.label = label
        self.config = config if config is not None else TraceConfig()
        self.events: deque = deque(maxlen=self.config.capacity)
        #: Total events ever published (the ring may have dropped some).
        self.emitted = 0

    # -- publication ---------------------------------------------------------

    def _tid(self) -> int:
        kernel = self.kernel
        if kernel is None or kernel.current_task is None:
            return 0
        return kernel.current_task.pid

    def instant(self, name: str, category: str,
                args: Optional[Dict] = None) -> None:
        """Publish a point event at the current simulated cycle."""
        self.emitted += 1
        self.events.append(
            (self.machine.clock.total, None, PH_INSTANT, category, name,
             self._tid(), args)
        )

    def complete(self, name: str, category: str, dur_cycles: int,
                 args: Optional[Dict] = None) -> None:
        """Publish a span that just finished, ``dur_cycles`` long."""
        self.emitted += 1
        now = self.machine.clock.total
        self.events.append(
            (max(now - dur_cycles, 0), dur_cycles, PH_COMPLETE, category,
             name, self._tid(), args)
        )

    def counter(self, name: str, values: Dict[str, float]) -> None:
        """Publish a Chrome counter sample (renders as a curve)."""
        self.emitted += 1
        self.events.append(
            (self.machine.clock.total, None, PH_COUNTER, "sample", name,
             0, dict(values))
        )

    def on_monitor_event(self, event: str, amount: int = 1) -> None:
        """Hardware-monitor hook: republish counted events as instants."""
        if event in self.config.monitor_events:
            args = None if amount == 1 else {"count": amount}
            self.instant(event, "monitor", args)

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.emitted - len(self.events)

    # -- export --------------------------------------------------------------

    def chrome_events(self, pid: int = 0) -> List[Dict]:
        """This tracer's ring as Chrome trace-event dicts.

        ``ts`` is in microseconds of simulated time at this machine's
        clock rate, as the trace-event format specifies.
        """
        cycles_to_us = self.machine.spec.cycles_to_us
        out: List[Dict] = [{
            "ph": PH_METADATA, "ts": 0, "pid": pid, "tid": 0,
            "name": "process_name", "args": {"name": self.label},
        }]
        for ts, dur, ph, category, name, tid, args in self.events:
            event = {
                "ph": ph,
                "ts": round(cycles_to_us(ts), 3),
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": category,
            }
            if dur is not None:
                event["dur"] = round(cycles_to_us(dur), 3)
            if args is not None:
                event["args"] = args
            out.append(event)
        return out


def chrome_trace(tracers: Iterable[Any],
                 other_data: Optional[Dict] = None) -> Dict:
    """Merge tracers into one Chrome trace document (one pid each)."""
    events: List[Dict] = []
    for pid, tracer in enumerate(tracers):
        events.extend(tracer.chrome_events(pid=pid))
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if other_data:
        doc["otherData"] = dict(other_data)
    return doc


def validate_chrome_trace(doc: Dict) -> Dict[str, int]:
    """Check a document is well-formed Chrome trace-event JSON.

    Raises :class:`ValueError` on the first malformed event; returns
    ``{"events": n, "spans": n, "instants": n, "counters": n}`` so
    callers (the CI step, the tests) can also assert non-emptiness.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    counts = {"events": 0, "spans": 0, "instants": 0, "counters": 0}
    known_ph = {PH_INSTANT, PH_COMPLETE, PH_COUNTER, PH_METADATA, "B", "E"}
    for index, event in enumerate(events):
        for field in ("ph", "ts", "name", "pid", "tid"):
            if field not in event:
                raise ValueError(f"event {index} missing {field!r}: {event}")
        ph = event["ph"]
        if ph not in known_ph:
            raise ValueError(f"event {index} has unknown phase {ph!r}")
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            raise ValueError(f"event {index} has bad ts: {event['ts']!r}")
        if ph == PH_COMPLETE and "dur" not in event:
            raise ValueError(f"event {index} is 'X' without 'dur'")
        counts["events"] += 1
        if ph == PH_COMPLETE:
            counts["spans"] += 1
        elif ph == PH_INSTANT:
            counts["instants"] += 1
        elif ph == PH_COUNTER:
            counts["counters"] += 1
    return counts
