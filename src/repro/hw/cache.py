"""Physically-indexed set-associative L1 cache model.

The paper's §8 and §9 arguments are entirely about who gets to put lines
into this structure: TLB reloads that pull PTEs through the data cache,
idle-task page clearing that fills the cache with zeroed lines nobody
reads, versus user working sets that want to stay resident.

The model tracks tags only (no data), true-LRU per set, write-back with
write-allocate, and supports *cache-inhibited* accesses, which bypass the
array entirely and cost a full memory access — the mechanism §9 uses to
clear pages without polluting the cache.

Representation: each set is a plain list of integer tags ordered
most-recent-first, and dirtiness lives in one set of line addresses
shared by the whole array.  There is no per-line object, which is what
makes the 10⁷-access experiment runs affordable.  Two paths operate on
those flat structures:

- the scalar :meth:`Cache.access` / :meth:`Cache._miss`, for callers
  that touch one line (a fault's access, a PTE store);
- the one batched kernel, :meth:`Cache.access_lines`, for every run of
  consecutive line addresses: page visits (:meth:`Cache.access_page_lines`
  is at most two runs), the idle task's hash-table scans and PTEG probe
  runs.  It runs the next level inline (both levels share one line
  size), keeps its tallies in locals, and replays runs proven pure.

Both give the same LRU order, writeback charges and statistics as one
scalar access per line; the white-box tests index ``_sets`` and compare.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.params import CACHE_LINE_SIZE, L1_HIT_CYCLES, PAGE_SIZE


@dataclass
class CacheStats:
    """Event counts for one cache array."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    bypasses: int = 0  # cache-inhibited accesses

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = 0
        self.evictions = self.writebacks = self.bypasses = 0


class Cache:
    """One L1 array (instruction or data)."""

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        mem_cycles: int,
        line_size: int = CACHE_LINE_SIZE,
        name: str = "cache",
        word_cycles: int = 0,
        hit_cycles: int = L1_HIT_CYCLES,
        next_level: "Cache" = None,
    ):
        if size_bytes % (assoc * line_size):
            raise ConfigError(
                f"bad cache geometry: {size_bytes}B {assoc}-way "
                f"{line_size}B lines"
            )
        if next_level is not None and next_level.line_size != line_size:
            # One line address names the same line at every level, which
            # is what lets the batched kernel run the next level inline.
            raise ConfigError(
                f"{name}: {line_size}B lines in front of "
                f"{next_level.line_size}B {next_level.name} lines"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        #: Cost of a full line fill from memory on a miss (used when
        #: there is no next level).
        self.mem_cycles = mem_cycles
        #: Cost of a single-beat (cache-inhibited) access; defaults to
        #: the line-fill cost when not given.
        self.word_cycles = word_cycles or mem_cycles
        #: Cost of a hit in *this* array (1 for L1, tens for an L2).
        self.hit_cycles = hit_cycles
        #: The next cache level misses fall through to (e.g. the
        #: board-level L2 behind both L1s), or None for main memory.
        self.next_level = next_level
        self.num_sets = size_bytes // (assoc * line_size)
        #: Per-set MRU-first lists of integer tags.
        self._sets = [[] for _ in range(self.num_sets)]
        #: Line addresses (``pa // line_size``) of resident dirty lines.
        self._dirty = set()
        #: ``(first_line, count, write)`` keys of line runs proven *pure*
        #: — every line hit at MRU and, for writes, was already dirty —
        #: since the last state mutation.  A pure run leaves ``_sets``/
        #: ``_dirty`` bit-identical, so an identical repeat run can replay
        #: its (hits, cycles) in O(1).  Any mutation of cache state
        #: empties the memo.
        self._pure_runs = set()
        self.stats = CacheStats()

    # -- address mapping ---------------------------------------------------

    def line_address(self, pa: int) -> int:
        return pa // self.line_size

    def set_index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    def tag(self, line_addr: int) -> int:
        return line_addr // self.num_sets

    # -- the access path ---------------------------------------------------

    def access(self, pa: int, write: bool = False, inhibited: bool = False) -> int:
        """One load or store at physical address ``pa``.

        Returns the cycle cost.  Cache-inhibited accesses never touch the
        array: they cost a memory access and count as bypasses.
        """
        stats = self.stats
        if inhibited:
            stats.bypasses += 1
            return self.word_cycles
        num_sets = self.num_sets
        line_addr = pa // self.line_size
        tags = self._sets[line_addr % num_sets]
        tag = line_addr // num_sets
        # Membership test before index: a miss is a cheap C scan, not a
        # raised-and-caught ValueError (misses dominate the hot streams).
        if tag in tags:
            if tags[0] != tag:
                tags.remove(tag)
                tags.insert(0, tag)
                self._pure_runs.clear()
            if write and line_addr not in self._dirty:
                self._dirty.add(line_addr)
                self._pure_runs.clear()
            stats.hits += 1
            return self.hit_cycles
        return self._miss(line_addr, tags, tag, write)

    def _miss(self, line_addr: int, tags: list, tag: int, write: bool) -> int:
        """Allocate ``line_addr``, evicting LRU; returns the miss cost."""
        stats = self.stats
        stats.misses += 1
        self._pure_runs.clear()
        next_level = self.next_level
        if next_level is not None:
            cycles = next_level.access(line_addr * self.line_size, write=False)
        else:
            cycles = self.mem_cycles
        if len(tags) >= self.assoc:
            victim_tag = tags.pop()
            stats.evictions += 1
            victim_line = victim_tag * self.num_sets + line_addr % self.num_sets
            if victim_line in self._dirty:
                self._dirty.discard(victim_line)
                stats.writebacks += 1
                if next_level is not None:
                    cycles += next_level.access(
                        victim_line * self.line_size, write=True
                    )
                else:
                    cycles += self.mem_cycles // 2
        tags.insert(0, tag)
        if write:
            self._dirty.add(line_addr)
        return cycles

    # -- batched kernels ---------------------------------------------------

    def access_lines(
        self,
        first_line: int,
        count: int,
        write: bool = False,
        inhibited: bool = False,
    ) -> tuple:
        """Accesses to ``count`` consecutive line addresses in one call.

        Equivalent to ``count`` scalar :meth:`access` calls at line
        addresses ``first_line .. first_line + count - 1`` in order —
        same LRU transitions, statistics at both levels, writeback
        charges — without the per-call overhead.  Every contiguous line
        run in the model (page visits, hash-table scans, PTEG probe
        runs) is charged here.

        Returns ``(cycles, miss_events)`` where ``miss_events`` counts
        accesses whose cost exceeded one hit (the condition the machine
        layer uses for its ``dcache_miss``/``icache_miss`` monitor events).
        """
        stats = self.stats
        if inhibited:
            stats.bypasses += count
            return self.word_cycles * count, 0
        hit_cycles = self.hit_cycles
        memo = self._pure_runs
        run_key = (first_line, count, write)
        if run_key in memo:
            # This exact run previously completed without changing any
            # cache state (all hits at MRU; writes to already-dirty
            # lines), and no state mutation has happened since.  Replay
            # its outputs without walking the lines.
            stats.hits += count
            return hit_cycles * count, count if hit_cycles > 1 else 0
        num_sets = self.num_sets
        sets = self._sets
        dirty = self._dirty
        assoc = self.assoc
        mem_cycles = self.mem_cycles
        next_level = self.next_level
        # The next level's state is hoisted on the first miss, so a run
        # that hits throughout pays only for this level's setup.
        nl_sets = None
        cycles = hits = misses = evictions = writebacks = miss_events = 0
        nl_hits = nl_misses = nl_evictions = nl_writebacks = 0
        pure = True
        # Set index and tag advance incrementally along the run —
        # consecutive line addresses walk consecutive sets — so the two
        # per-line divisions disappear from the loop body.
        set_index = first_line % num_sets
        tag = first_line // num_sets
        for line_addr in range(first_line, first_line + count):
            tags = sets[set_index]
            if tag in tags:
                if tags[0] != tag:
                    tags.remove(tag)
                    tags.insert(0, tag)
                    pure = False
                if write and line_addr not in dirty:
                    dirty.add(line_addr)
                    pure = False
                hits += 1
                cycles += hit_cycles
                set_index += 1
                if set_index == num_sets:
                    set_index = 0
                    tag += 1
                continue
            misses += 1
            if next_level is None:
                cost = mem_cycles
            else:
                if nl_sets is None:
                    # Run the next level inline; a further level below
                    # it (never configured in practice) still goes
                    # through the generic miss path.
                    nl_sets = next_level._sets
                    nl_num_sets = next_level.num_sets
                    nl_dirty = next_level._dirty
                    nl_hit_cycles = next_level.hit_cycles
                    nl_assoc = next_level.assoc
                    nl_mem_cycles = next_level.mem_cycles
                    nl_last = next_level.next_level is None
                    nl_miss = next_level._miss
                    next_level._pure_runs.clear()
                nl_set = line_addr % nl_num_sets
                nl_tags = nl_sets[nl_set]
                nl_tag = line_addr // nl_num_sets
                if nl_tag in nl_tags:
                    if nl_tags[0] != nl_tag:
                        nl_tags.remove(nl_tag)
                        nl_tags.insert(0, nl_tag)
                    nl_hits += 1
                    cost = nl_hit_cycles
                elif nl_last:
                    nl_misses += 1
                    cost = nl_mem_cycles
                    if len(nl_tags) >= nl_assoc:
                        nl_victim = nl_tags.pop() * nl_num_sets + nl_set
                        nl_evictions += 1
                        if nl_victim in nl_dirty:
                            nl_dirty.discard(nl_victim)
                            nl_writebacks += 1
                            cost += nl_mem_cycles // 2
                    nl_tags.insert(0, nl_tag)
                else:
                    cost = nl_miss(line_addr, nl_tags, nl_tag, False)
            if len(tags) >= assoc:
                victim_line = tags.pop() * num_sets + set_index
                evictions += 1
                if victim_line in dirty:
                    dirty.discard(victim_line)
                    writebacks += 1
                    if next_level is None:
                        cost += mem_cycles // 2
                    else:
                        # Write the victim back into the next level.
                        nl_set = victim_line % nl_num_sets
                        nl_tags = nl_sets[nl_set]
                        nl_tag = victim_line // nl_num_sets
                        if nl_tag in nl_tags:
                            if nl_tags[0] != nl_tag:
                                nl_tags.remove(nl_tag)
                                nl_tags.insert(0, nl_tag)
                            nl_dirty.add(victim_line)
                            nl_hits += 1
                            cost += nl_hit_cycles
                        elif nl_last:
                            nl_misses += 1
                            cost += nl_mem_cycles
                            if len(nl_tags) >= nl_assoc:
                                nl_victim = nl_tags.pop() * nl_num_sets + nl_set
                                nl_evictions += 1
                                if nl_victim in nl_dirty:
                                    nl_dirty.discard(nl_victim)
                                    nl_writebacks += 1
                                    cost += nl_mem_cycles // 2
                            nl_tags.insert(0, nl_tag)
                            nl_dirty.add(victim_line)
                        else:
                            cost += nl_miss(victim_line, nl_tags, nl_tag, True)
            tags.insert(0, tag)
            if write:
                dirty.add(line_addr)
            if cost > 1:
                miss_events += 1
            cycles += cost
            set_index += 1
            if set_index == num_sets:
                set_index = 0
                tag += 1
        if pure and not misses:
            # No state changed: the identical run will replay until
            # something mutates the cache.  (Bound the memo so patholog-
            # ical run diversity cannot grow it without limit.)
            if len(memo) >= 1 << 16:
                memo.clear()
            memo.add(run_key)
        else:
            memo.clear()
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        if nl_sets is not None:
            nl_stats = next_level.stats
            nl_stats.hits += nl_hits
            nl_stats.misses += nl_misses
            nl_stats.evictions += nl_evictions
            nl_stats.writebacks += nl_writebacks
        if hit_cycles > 1:
            # The machine layer's miss-event condition is ``cost > 1``,
            # which a non-unit hit cost also satisfies.
            miss_events += hits
        return cycles, miss_events

    def access_page_lines(
        self,
        page_base: int,
        first_line: int,
        lines: int,
        write: bool = False,
        inhibited: bool = False,
        page_size: int = PAGE_SIZE,
    ) -> tuple:
        """A page visit's worth of line accesses as :meth:`access_lines` runs.

        Touches line indices ``first_line .. first_line + lines - 1``
        within the page at ``page_base``, wrapping at ``page_size`` the
        way :meth:`~repro.hw.machine.MachineModel.access_page` staggers
        hot pages: one run, or two when the window wraps.  Returns
        ``(cycles, miss_events)``.
        """
        line_size = self.line_size
        lines_per_page = page_size // line_size
        base_line = page_base // line_size
        offset = first_line % lines_per_page
        cycles = miss_events = 0
        # A staggered window that crosses the page end finishes the page,
        # then continues from its start.
        while lines > 0:
            run = min(lines, lines_per_page - offset)
            run_cycles, run_misses = self.access_lines(
                base_line + offset, run, write, inhibited
            )
            cycles += run_cycles
            miss_events += run_misses
            lines -= run
            offset = 0
        return cycles, miss_events

    # -- maintenance operations --------------------------------------------

    def contains(self, pa: int) -> bool:
        line_addr = pa // self.line_size
        return line_addr // self.num_sets in self._sets[line_addr % self.num_sets]

    def flush_all(self) -> int:
        """Write back and invalidate everything; returns cycle cost."""
        writebacks = len(self._dirty)
        self.stats.writebacks += writebacks
        cycles = writebacks * (self.mem_cycles // 2)
        self._dirty.clear()
        for tags in self._sets:
            tags.clear()
        self._pure_runs.clear()
        return cycles

    def invalidate_page(self, ppn: int, page_size: int = PAGE_SIZE) -> int:
        """Invalidate all lines of a physical page (dcbf loop)."""
        cycles = 0
        self._pure_runs.clear()
        num_sets = self.num_sets
        first = (ppn * page_size) // self.line_size
        for line_addr in range(first, first + page_size // self.line_size):
            tags = self._sets[line_addr % num_sets]
            tag = line_addr // num_sets
            try:
                position = tags.index(tag)
            except ValueError:
                continue
            if line_addr in self._dirty:
                self._dirty.discard(line_addr)
                self.stats.writebacks += 1
                cycles += self.mem_cycles // 2
            del tags[position]
        return cycles

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(tags) for tags in self._sets)

    def occupancy(self) -> float:
        return len(self) / (self.num_sets * self.assoc)

    def resident_lines(self):
        """Iterate (set_index, tag, dirty) for every resident line."""
        num_sets = self.num_sets
        for index, tags in enumerate(self._sets):
            for tag in tags:
                yield index, tag, (tag * num_sets + index) in self._dirty
