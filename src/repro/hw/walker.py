"""The 604's hardware hash-table walk engine.

On a TLB miss the 604 computes the primary hash, probes the PTEG, then
probes the secondary PTEG, entirely in hardware.  §5 measures the found
case at "up to 120 instruction cycles and 16 memory accesses"; a miss in
both buckets raises the hash-table miss interrupt (at least 91 further
cycles just to reach the handler).

The walker charges each PTE probe as a real data-cache access to the
PTEG's physical address; that is how the §8 cache-pollution effect
arises in the model without any special-casing.  Configurations that map
the page tables cache-inhibited simply set ``cache_ptes=False``.

Probe charging is batched per PTEG: every table operation (search,
insert, search-and-invalidate) reports how many consecutive slots each
probed group examined, and one charger replays those probes against
the data cache as one ``Cache.access_lines`` run over the lines they
cross.  Only the first slot of each cache line can miss — the probe
loop walks consecutive PTE addresses, so every later slot on the same
line finds it resident and MRU (the immediately preceding probe put it
there) and is charged as a hit.  The zombie sweep's hash-table scans
are charged the same way, one run per contiguous segment of the
window.  Both are cycle-identical and statistics-identical to one
scalar access per slot, at a fraction of the Python cost.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hw.cache import Cache
from repro.hw.hashtable import HashedPageTable
from repro.hw.pte import HashPte
from repro.params import PTE_BYTES, PTES_PER_GROUP

#: Bytes per PTEG at the architected default geometry.  Instances use
#: ``self.pteg_bytes``, derived from their table's actual group size.
PTEG_BYTES = PTE_BYTES * PTES_PER_GROUP

#: Fixed pipeline overhead of engaging the walk engine.  With the worst
#: case of 16 probes at 7 cycles each this reproduces the paper's
#: 120-cycle ceiling (8 + 16 * 7 = 120).
WALK_BASE_CYCLES = 8
WALK_CYCLES_PER_REF = 7


class HardwareWalker:
    """Walks the HTAB the way 604 silicon does, with cache accounting."""

    def __init__(
        self,
        htab: HashedPageTable,
        dcache: Cache,
        htab_base_pa: int,
        cache_ptes: bool = True,
    ):
        if dcache.line_size % PTE_BYTES:
            # Probe and scan charging step through the table a whole
            # line of PTEs at a time.
            raise ConfigError(
                f"{dcache.name}: {dcache.line_size}B lines do not hold "
                f"whole {PTE_BYTES}B PTEs"
            )
        self.htab = htab
        self.dcache = dcache
        self.htab_base_pa = htab_base_pa
        #: §8: whether hash-table probes may allocate into the data cache.
        self.cache_ptes = cache_ptes
        #: Bytes per PTEG at this table's geometry (8-byte PTEs).
        self.pteg_bytes = PTE_BYTES * htab.ptes_per_group

    def pte_physical_address(self, group_index: int, slot: int) -> int:
        """Physical address of one PTE slot in the in-memory table."""
        return self.htab_base_pa + group_index * self.pteg_bytes + slot * PTE_BYTES

    def charge_probe_run(
        self, group_index: int, count: int, inhibited: bool
    ) -> int:
        """Cache cost of probing slots ``0 .. count-1`` of one PTEG.

        Equivalent to ``count`` scalar ``dcache.access`` calls at
        consecutive PTE addresses: the first slot of each cache line
        pays a real access (one :meth:`Cache.access_lines` run over the
        lines the probes cross), the rest of each line are guaranteed
        hits — the immediately preceding probe left it resident and MRU.
        """
        dcache = self.dcache
        if inhibited:
            dcache.stats.bypasses += count
            return dcache.word_cycles * count
        line_size = dcache.line_size
        base = self.pte_physical_address(group_index, 0)
        lines = -(-count // (line_size // PTE_BYTES))
        cycles, _ = dcache.access_lines(base // line_size, lines)
        dcache.stats.hits += count - lines
        return cycles + dcache.hit_cycles * (count - lines)

    def charge_scan_window(
        self, start: int, count: int, inhibited: bool = False
    ) -> int:
        """Cache cost of streaming ``count`` table slots from ``start``.

        The idle reclaim and on-demand scavenge scans stream PTE tag
        words; one memory access covers a cache line's worth of slots,
        charged at every line-aligned flat slot index the window crosses
        (wrapping at the table size).  Those are consecutive lines, so
        each contiguous segment of the window — split where it wraps at
        ``htab.slots`` — is one :meth:`Cache.access_lines` run.
        """
        dcache = self.dcache
        line_size = dcache.line_size
        slots = self.htab.slots
        slots_per_line = line_size // PTE_BYTES
        base = self.htab_base_pa
        cycles = 0
        position = start % slots
        remaining = count
        while remaining > 0:
            run = min(remaining, slots - position)
            first = position + (-position) % slots_per_line
            end = position + run
            if first < end:
                cycles += dcache.access_lines(
                    (base + first * PTE_BYTES) // line_size,
                    -(-(end - first) // slots_per_line),
                    inhibited=inhibited,
                )[0]
            remaining -= run
            position = 0
        return cycles

    def _charge_probes(self, probes, mem_refs: int, cycles_per_ref: int) -> int:
        """Cycles of one table operation's probes.

        ``cycles_per_ref`` instruction cycles per PTE examined, plus the
        data-cache cost of each ``(group_index, slots_examined)`` run.
        """
        inhibited = not self.cache_ptes
        cycles = cycles_per_ref * mem_refs
        for group_index, count in probes:
            cycles += self.charge_probe_run(group_index, count, inhibited)
        return cycles

    def search(
        self,
        vsid: int,
        page_index: int,
        cycles_per_ref: int = WALK_CYCLES_PER_REF,
    ):
        """Search primary then secondary PTEG, charging every probe.

        Returns ``(result, cycles)``: ``cycles_per_ref`` per PTE examined
        plus one data-cache access per slot — the 604 hardware walk (its
        caller adds ``WALK_BASE_CYCLES``), or the 603's software
        emulation of it with its own per-probe instruction cost.
        """
        result = self.htab.search(vsid, page_index)
        return result, self._charge_probes(
            result.probes, result.mem_refs, cycles_per_ref
        )

    def insert(self, pte: HashPte) -> dict:
        """Reload code installing a PTE; returns the htab event + cycles.

        The returned dict carries the hash-table insert event fields plus
        ``"cycles"`` for the charged probe and store costs.
        """
        event = self.htab.insert(pte)
        cycles = self._charge_probes(
            event["probes"], event["mem_refs"], WALK_CYCLES_PER_REF
        )
        # The final PTE store (two words; one line).
        group_index = self.htab.group_index(pte.vsid, pte.page_index, pte.secondary)
        cycles += self.dcache.access(
            self.pte_physical_address(group_index, 0),
            write=True,
            inhibited=not self.cache_ptes,
        )
        event["cycles"] = cycles
        return event

    def invalidate(self, vsid: int, page_index: int) -> dict:
        """Search-and-invalidate one PTE, charging probes (flush path)."""
        event = self.htab.invalidate_entry(vsid, page_index)
        event["cycles"] = self._charge_probes(
            event["probes"], event["mem_refs"], WALK_CYCLES_PER_REF
        )
        return event
