"""The optimized idle task (§7 zombie reclaim, §9 page clearing).

The idle task runs whenever nothing else is runnable — "the idle task
runs quite often even on a system heavily loaded with users" because of
I/O waits.  Work done here is free as long as the idle task never delays
a task that becomes runnable, so every unit of work is small and the
loop re-checks its cycle window between units ("all data structures ...
are lock free and interrupts are left enabled").

Two jobs, per configuration:

* **Zombie reclaim** — scan the hash table incrementally, clearing the
  valid bit of PTEs whose VSID no longer belongs to any context.  This is
  what took the evict-to-reload ratio from >90% down to ~30% and the
  hash-table hit rate up to 98%.

* **Page clearing** — pre-zero free pages for ``get_free_page``.  §9's
  three variants are preserved: clearing *through* the cache (the
  experiment that doubled kernel-compile time), clearing cache-inhibited
  without keeping the result (the neutral control), and clearing
  cache-inhibited onto the pre-cleared list (the win).
"""

from __future__ import annotations

from repro.kernel.config import IdlePageClearPolicy

#: Hash-table slots examined per unit of idle work.  One chunk is still
#: only a few microseconds, so wakeup latency is unaffected.
RECLAIM_CHUNK_SLOTS = 256

#: Cycles per slot examined: load the tag word, test the VSID.
RECLAIM_CYCLES_PER_SLOT = 3

#: Cycles to spin one unit when there is nothing to do.
SPIN_UNIT_CYCLES = 32

#: Cycles of the store that clears one zombie's valid bit.
RECLAIM_STORE_CYCLES = 2


def sweep_zombies(
    kernel, start: int, slots: int, cycles_per_slot: int,
    inhibited: bool = False,
):
    """Reclaim the zombie PTEs in one window of the hash table.

    The one §7 zombie sweep, run by the idle task and by the rejected
    on-demand scavenge (``kernel/reload.py``).  Charges
    ``cycles_per_slot`` per slot examined plus the streamed tag-word
    loads, clears the valid bit of every zombie in the window, counts
    ``zombie_reclaimed`` for each and runs the sanitizer's reclaim
    check on it.  Returns ``(cycles, reclaimed)``; the caller books the
    cycles to its own ledger category and advances its own cursor.
    """
    machine = kernel.machine
    htab = machine.htab
    # The scan streams the table; one memory access covers a cache
    # line's worth of PTE tag words.
    cycles = cycles_per_slot * slots + machine.walker.charge_scan_window(
        start, slots, inhibited=inhibited
    )
    zombies = htab.zombie_flats(start, slots, kernel.vsid_allocator.is_live)
    monitor = machine.monitor
    sanitizer = machine.sanitizer
    ppg = htab.ptes_per_group
    for flat in zombies:
        htab.invalidate_slot(flat)
        monitor.count("zombie_reclaimed")
        cycles += RECLAIM_STORE_CYCLES
        if sanitizer is not None:
            sanitizer.after_reclaim_slot(flat, htab.pte_at(*divmod(flat, ppg)))
    return cycles, len(zombies)


class IdleTask:
    """The idle loop, parameterized by the kernel configuration."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.machine = kernel.machine
        self.config = kernel.config
        self._scan_position = 0
        # Statistics.
        self.reclaim_passes = 0
        self.zombies_reclaimed = 0
        self.pages_cleared = 0
        self.spin_cycles = 0

    # -- one scheduling of the idle task -------------------------------------------

    def run(self, window_cycles: int) -> int:
        """Run idle work for at most ``window_cycles``; returns consumed.

        The window is the I/O-wait gap the scheduler gives us; the loop
        checks the ledger between work units so it never holds the CPU
        once the window closes (the paper's "no possibility of keeping
        control of the processor" property).
        """
        ledger = self.machine.clock
        start = ledger.snapshot()
        while ledger.since(start) < window_cycles:
            did_work = False
            if self.config.idle_zombie_reclaim:
                did_work |= self._reclaim_chunk()
            if self.config.idle_page_clear is not IdlePageClearPolicy.OFF:
                did_work |= self._clear_one_page()
            if not did_work:
                remaining = window_cycles - ledger.since(start)
                spin = min(SPIN_UNIT_CYCLES, max(remaining, 1))
                ledger.add(spin, "idle_spin")
                self.spin_cycles += spin
        return ledger.since(start)

    # -- zombie reclaim ----------------------------------------------------------------

    def _reclaim_chunk(self) -> bool:
        """Scan one chunk of the hash table for zombie PTEs.

        Returns whether any zombie was actually reclaimed, so ``run``
        can fall back to spinning (and account the window as idle time)
        when the scan comes up empty.
        """
        machine = self.machine
        start = self._scan_position
        cycles, reclaimed = sweep_zombies(
            self.kernel, start, RECLAIM_CHUNK_SLOTS, RECLAIM_CYCLES_PER_SLOT,
            inhibited=self.config.idle_uncached,
        )
        self._scan_position = (start + RECLAIM_CHUNK_SLOTS) % machine.htab.slots
        machine.clock.add(cycles, "idle_reclaim")
        self.reclaim_passes += 1
        self.zombies_reclaimed += reclaimed
        if reclaimed and machine.tracer is not None:
            machine.tracer.complete(
                "reclaim-chunk", "idle", cycles, {"reclaimed": reclaimed}
            )
        return reclaimed > 0

    # -- page clearing -------------------------------------------------------------------

    def _clear_one_page(self) -> bool:
        """Clear one free page according to the §9 policy."""
        palloc = self.kernel.palloc
        policy = self.config.idle_page_clear
        # Stop once the stock reaches the target: unbounded by default
        # (§9 clears whatever free pages exist), or the configured cap —
        # see _preclear_target.
        if policy is not IdlePageClearPolicy.UNCACHED_NO_LIST:
            if palloc.precleared_count() >= self._preclear_target():
                return False
        pfn = palloc.pop_free_for_preclear()
        if pfn is None:
            return False
        inhibited = policy in (
            IdlePageClearPolicy.UNCACHED_NO_LIST,
            IdlePageClearPolicy.UNCACHED_LIST,
        ) or self.config.idle_uncached
        palloc.clear_page(pfn, inhibited=inhibited, category="idle_clear")
        self.pages_cleared += 1
        if self.machine.tracer is not None:
            self.machine.tracer.instant(
                "preclear-page", "idle", {"pfn": pfn}
            )
        if policy is IdlePageClearPolicy.UNCACHED_NO_LIST:
            # The control experiment: the work is thrown away.
            palloc.return_uncleared(pfn)
        else:
            palloc.push_precleared(pfn)
        return True

    def _preclear_target(self) -> int:
        """How many pre-cleared pages to keep in stock.

        §9 puts no bound on the list — the idle task clears whatever free
        pages exist ("all these writes to memory using a great deal of
        the bus"), which is precisely why the cached variant hurt.  That
        unbounded behaviour is the default; ``idle_preclear_target``
        bounds the stock for configurations (e.g. the SMP footnote's bus
        concern) where clearing the whole free list is wasted work.
        """
        if self.config.idle_preclear_target is not None:
            return self.config.idle_preclear_target
        return self.kernel.palloc.total_frames
