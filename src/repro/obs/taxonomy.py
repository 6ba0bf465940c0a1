"""The observatory's taxonomy: every path category and every event name.

The paper's method is attribution — every cycle lands in a named path
(§4, "where did the time go") — and the recorder, the analytics, the
flamegraph export, the trend report and the dashboard all speak that
one taxonomy.  It is written down exactly once, in the two literal
tables below; every other category, event or column list in
:mod:`repro.obs` is derived from them.

The tables are literals on purpose: ``repro lint``'s ledger-taxonomy
and event-registry passes read them from the AST to check every
``clock.add`` charge and every tracer/monitor publication against
them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

#: Path category -> (dashboard colour, raw ledger categories folded into
#: it), in display order (largest concerns of the paper first).  Raw
#: categories absent from every entry land in the closing ``"other"``
#: fallback, so the attribution is total by construction.
CATEGORIES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "user-compute": ("#4e79a7", ("user_compute",)),
    # Memory-system traffic: the cache-modelled line touches and copies.
    "memory": ("#59a14f", ("mem", "copy", "prefetch")),
    # TLB/hash reload path — includes the hardware hash walk, the trap
    # invoke costs and the software handler's table probes.
    "tlb-reload": ("#e15759", ("tlb_reload", "scavenge")),
    # Translation teardown.
    "flush": ("#f28e2b", ("flush",)),
    # SMP TLB-shootdown traffic: IPI send/deliver and deferred drains.
    "shootdown": ("#d37295", ("shootdown",)),
    # The idle task's three jobs.
    "idle": ("#76b7b2", ("idle_reclaim", "idle_spin", "idle_clear")),
    # Kernel entry/exit and syscall bodies.
    "syscall": ("#edc948", ("syscall", "ipc", "fork")),
    # Demand faulting.
    "fault": ("#b07aa1", ("fault",)),
    # Scheduling and the switch path.
    "scheduling": ("#ff9da7", ("context_switch", "sched", "wakeup")),
    # File layer and disk waits.
    "io": ("#9c755f", ("fs", "io_wait")),
    # Page allocator work outside the idle task.
    "kernel-mm": ("#bab0ac", ("palloc",)),
    # Request-serving runtime bookkeeping (queue accept/dispatch).
    "service": ("#86bcb6", ("service",)),
    "other": ("#d4d4d4", ()),
}

#: Event name -> (kind, path category, republished by default,
#: description), for every event this repo may publish.  ``kind`` is
#: ``span`` (Chrome "X"), ``instant`` ("i"), ``track`` (a "C" counter
#: track) or ``monitor`` (a hardware-monitor counter).  The path
#: category is set for spans only; the default-republish flag matters
#: for monitor counters only (see :data:`DEFAULT_MONITOR_EVENTS`).
#: Entries ending in ``*`` match by prefix, for names carrying a
#: dynamic suffix.
EVENTS: Dict[str, Tuple[str, Optional[str], bool, str]] = {
    "hw-walk": ("span", "tlb-reload", False,
                "604 hardware hash walk resolved a TLB miss"),
    "sw-refill": ("span", "tlb-reload", False,
                  "software TLB refill through the Linux page tables"),
    "scavenge-burst": ("span", "tlb-reload", False,
                       "on-miss zombie scavenge burst over the hash table"),
    "flush-page": ("span", "flush", False,
                   "single-page invalidate (hash search + tlbie)"),
    "flush-range": ("span", "flush", False,
                    "range invalidate by per-page hash search"),
    "flush-mm": ("span", "flush", False,
                 "whole-address-space invalidate by hash search"),
    "flush-everything": ("span", "flush", False,
                         "global invalidate (counter wrap / reset)"),
    "vsid-bump": ("span", "flush", False,
                  "lazy context invalidate by VSID bump (section 7)"),
    "reclaim-chunk": ("span", "idle", False,
                      "idle-task zombie reclaim over one hash-table chunk"),
    "idle-window": ("span", "idle", False,
                    "one scheduling of the idle task"),
    "page-fault": ("span", "fault", False,
                   "demand fault handled (major or minor)"),
    "shootdown-drain": ("span", "shootdown", False,
                        "deferred remote TLB invalidations drained at "
                        "ctxsw"),
    "req-queue": ("span", "service", False,
                  "service request waiting in its CPU's dispatch queue"),
    "req-run": ("span", "service", False,
                "service request executing (exec/map/touch/compute)"),
    "syscall:*": ("instant", None, False,
                  "syscall entry, suffixed with the syscall name"),
    "ctxsw": ("instant", None, False, "context switch committed to a task"),
    "wakeup": ("instant", None, False, "sleeping task woken"),
    "sleep": ("instant", None, False,
              "task put to sleep until a simulated deadline"),
    "pipe-create": ("instant", None, False, "pipe created"),
    "pipe-close": ("instant", None, False, "pipe endpoint closed"),
    "preclear-page": ("instant", None, False,
                      "idle task pre-cleared one free page (section 9)"),
    "ipi": ("instant", None, False,
            "inter-processor interrupt round for a TLB shootdown"),
    "req-arrival": ("instant", None, False,
                    "open-loop request accepted onto a dispatch queue"),
    "req-dispatch": ("instant", None, False,
                     "service request picked up by a worker"),
    "req-complete": ("instant", None, False,
                     "service request finished, open-loop latency known"),
    "htab": ("track", None, False, "hash-table live/zombie occupancy curve"),
    "occupancy": ("track", None, False, "hash-table valid-entry curve"),
    "monitor": ("track", None, False,
                "selected hardware-monitor counter curves"),
    "queue-depth": ("track", None, False,
                    "pending service requests per dispatch queue"),
    "vsids": ("track", None, False,
              "bounded top-K per-VSID hash-table population summary"),
    # Monitor counters flagged off by default: the cache misses fire per
    # cache *line* touched and would drown every other event, and the
    # rest duplicate a finer-grained counter or a tracer event.
    "itlb_miss": ("monitor", None, True, "instruction TLB miss"),
    "dtlb_miss": ("monitor", None, True, "data TLB miss"),
    "tlb_miss": ("monitor", None, False, "TLB miss (either side)"),
    "htab_search": ("monitor", None, True, "hash-table search started"),
    "htab_hit": ("monitor", None, True, "hash-table search found the PTE"),
    "htab_miss": ("monitor", None, True, "hash-table search missed"),
    "htab_reload": ("monitor", None, True,
                    "PTE installed into the hash table"),
    "htab_evict": ("monitor", None, True, "valid PTE evicted to make room"),
    "hash_miss_interrupt": ("monitor", None, True,
                            "604 hash-miss trap to the kernel"),
    "sw_tlb_miss_interrupt": ("monitor", None, True,
                              "603 software TLB-miss trap"),
    "bat_translation": ("monitor", None, True,
                        "access translated by a BAT register"),
    "icache_miss": ("monitor", None, False, "instruction-cache miss"),
    "dcache_miss": ("monitor", None, False, "data-cache miss"),
    "page_fault_major": ("monitor", None, True,
                         "major page fault (backing store)"),
    "page_fault_minor": ("monitor", None, True,
                         "minor page fault (mapping only)"),
    "flush_range_search": ("monitor", None, True,
                           "flush took the per-page search path"),
    "flush_range_lazy": ("monitor", None, True,
                         "flush took the lazy VSID-bump path"),
    "vsid_bump": ("monitor", None, True, "context moved onto fresh VSIDs"),
    "zombie_reclaimed": ("monitor", None, True,
                         "zombie PTE invalidated (idle task or scavenge)"),
    "pages_precleared": ("monitor", None, True,
                         "free page pre-cleared onto the section-9 list"),
    "precleared_page_used": ("monitor", None, True,
                             "get_free_page served a pre-cleared page"),
    "scavenge_burst": ("monitor", None, True, "on-miss scavenge burst ran"),
    "context_switch": ("monitor", None, False, "context switch"),
    "syscall": ("monitor", None, False, "syscall entered"),
    "ipi_sent": ("monitor", None, True,
                 "shootdown IPI dispatched to a remote CPU"),
    "ipi_received": ("monitor", None, True,
                     "shootdown IPI delivered on a remote CPU"),
    "shootdown_deferred": ("monitor", None, True,
                           "remote invalidation queued instead of IPI'd"),
    "shootdown_drained": ("monitor", None, True,
                          "deferred invalidation applied at context switch"),
    "flush_skipped_reuse": ("monitor", None, True,
                            "munmap flush skipped by pooling the region"),
    "reuse_pool_hit": ("monitor", None, True,
                       "mmap revived a pooled region without faulting"),
}

#: Raw ledger category -> path category.  Anything unlisted lands in
#: "other".
PATH_CATEGORIES: Dict[str, str] = {
    raw: category
    for category, (_colour, raws) in CATEGORIES.items()
    for raw in raws
}

#: Stable display order for rendered breakdowns and trend movers;
#: categories absent from a run are skipped.
DISPLAY_ORDER: Tuple[str, ...] = tuple(CATEGORIES)


def _of_kind(kind: str) -> Tuple[str, ...]:
    return tuple(name for name, entry in EVENTS.items() if entry[0] == kind)


#: Tracer spans, instants and counter tracks, and the hardware-monitor
#: counters (the ``counters`` drift section), each in table order.
SPAN_EVENTS = _of_kind("span")
INSTANT_EVENTS = _of_kind("instant")
COUNTER_TRACKS = _of_kind("track")
DRIFT_COUNTERS = _of_kind("monitor")

#: Monitor counters the tracer republishes as instants by default.
DEFAULT_MONITOR_EVENTS: FrozenSet[str] = frozenset(
    name for name in DRIFT_COUNTERS if EVENTS[name][2]
)

#: Span event name -> path category, so folded flamegraph frames carry
#: the category names the cycle attribution uses.
SPAN_CATEGORY: Dict[str, str] = {
    name: str(EVENTS[name][1]) for name in SPAN_EVENTS
}

#: Path category -> the tracer spans that time it.  Categories whose
#: cost has no span representation (pure ledger charges like user
#: compute) map to an empty tuple.
CATEGORY_SPANS: Dict[str, Tuple[str, ...]] = {
    category: tuple(
        name for name in SPAN_EVENTS if SPAN_CATEGORY[name] == category
    )
    for category in CATEGORIES
}

#: The combined TLB/hash reload path (§4, Table 1): the tail of these
#: spans is the paper's headline latency.
RELOAD_SPANS = CATEGORY_SPANS["tlb-reload"]
