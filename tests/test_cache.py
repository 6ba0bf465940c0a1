"""L1/L2 cache model: hits, LRU, write-back, inhibition, hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.hw.cache import Cache
from repro.params import L1_HIT_CYCLES


def l1(mem=50, word=10, next_level=None):
    return Cache(1024, 2, mem, line_size=32, word_cycles=word,
                 next_level=next_level)


class TestGeometry:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            Cache(1000, 3, 50)

    def test_sets(self):
        cache = Cache(16 * 1024, 4, 50)
        assert cache.num_sets == 16 * 1024 // (4 * 32)

    def test_address_mapping(self):
        cache = l1()
        assert cache.line_address(0) == 0
        assert cache.line_address(31) == 0
        assert cache.line_address(32) == 1
        assert cache.set_index(cache.num_sets) == 0
        assert cache.tag(cache.num_sets) == 1


class TestAccess:
    def test_miss_costs_memory(self):
        cache = l1(mem=50)
        assert cache.access(0) == 50
        assert cache.stats.misses == 1

    def test_hit_costs_one(self):
        cache = l1()
        cache.access(0)
        assert cache.access(0) == L1_HIT_CYCLES
        assert cache.access(16) == L1_HIT_CYCLES  # same line
        assert cache.stats.hits == 2

    def test_inhibited_bypasses(self):
        cache = l1(mem=50, word=10)
        assert cache.access(0, inhibited=True) == 10
        assert cache.stats.bypasses == 1
        # Nothing was allocated.
        assert not cache.contains(0)

    def test_write_marks_dirty_and_writeback_charged(self):
        cache = l1(mem=50)
        cache.access(0, write=True)
        # Fill the set until the dirty line is evicted (2-way, 16 sets).
        cache.access(0 + 512)   # same set (num_sets=16 -> 16*32=512)
        cost = cache.access(0 + 1024)  # evicts line 0 (dirty)
        assert cache.stats.writebacks == 1
        assert cost == 50 + 25

    def test_lru_order(self):
        cache = l1()
        cache.access(0)
        cache.access(512)
        cache.access(0)  # refresh
        cache.access(1024)  # evicts 512
        assert cache.contains(0)
        assert not cache.contains(512)


class TestHierarchy:
    def test_l1_miss_fills_from_l2(self):
        l2 = Cache(4096, 4, mem_cycles=50, hit_cycles=12)
        top = l1(mem=50, next_level=l2)
        first = top.access(0)
        assert first == 50  # L2 missed too -> memory
        assert l2.stats.misses == 1
        # Evict from L1, re-access: L2 hit this time.
        top.access(512)
        top.access(1024)
        cost = top.access(0)
        assert cost == 12
        assert l2.stats.hits >= 1

    def test_l1_dirty_victim_written_to_l2(self):
        l2 = Cache(4096, 4, mem_cycles=50, hit_cycles=12)
        top = l1(mem=50, next_level=l2)
        top.access(0, write=True)
        top.access(512)
        top.access(1024)  # evicts dirty line 0 -> write to L2
        assert top.stats.writebacks == 1
        assert l2.contains(0)


class TestMaintenance:
    def test_flush_all_clears_and_counts_writebacks(self):
        cache = l1()
        cache.access(0, write=True)
        cache.access(64)
        cycles = cache.flush_all()
        assert len(cache) == 0
        assert cache.stats.writebacks == 1
        assert cycles == 25

    def test_invalidate_page_drops_page_lines(self):
        cache = Cache(32 * 1024, 4, 50)
        cache.access(0)
        cache.access(4096)
        cache.invalidate_page(0)
        assert not cache.contains(0)
        assert cache.contains(4096)

    def test_occupancy_and_resident(self):
        cache = l1()
        cache.access(0, write=True)
        assert 0 < cache.occupancy() < 1
        resident = list(cache.resident_lines())
        assert len(resident) == 1
        assert resident[0][2] is True  # dirty


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 8191), min_size=1, max_size=300))
    def test_capacity_invariant(self, addresses):
        cache = l1()
        for address in addresses:
            cache.access(address)
            assert len(cache) <= 32  # 1024B / 32B lines
            for lines in cache._sets:
                assert len(lines) <= 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2047), min_size=1, max_size=100))
    def test_most_recent_access_always_resident(self, addresses):
        cache = l1()
        for address in addresses:
            cache.access(address)
            assert cache.contains(address)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4095), st.booleans()),
                    min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, operations):
        cache = l1()
        for address, write in operations:
            cache.access(address, write=write)
        assert cache.stats.hits + cache.stats.misses == len(operations)


def small_hierarchy():
    """An 8-set 2-way L1 in front of a 16-set 2-way L2 (32 B lines)."""
    l2 = Cache(1024, 2, 40, line_size=32, word_cycles=9, hit_cycles=6,
               name="l2")
    return Cache(512, 2, 40, line_size=32, word_cycles=9, next_level=l2), l2


def scalar_lines(cache, line_addrs, write, inhibited):
    """The reference: one scalar access per line, tallied as the kernel
    reports them."""
    cycles = miss_events = 0
    for line_addr in line_addrs:
        cost = cache.access(line_addr * cache.line_size, write=write,
                            inhibited=inhibited)
        cycles += cost
        if not inhibited and cost > 1:
            miss_events += 1
    return cycles, miss_events


def assert_same_state(batched, scalar):
    for one, other in zip(batched, scalar):
        assert one._sets == other._sets
        assert one._dirty == other._dirty
        assert one.stats == other.stats


#: One batched operation: a bare line run, or a page visit on a 16-line
#: page (whose window may wrap); each may be issued twice in a row so
#: that pure runs replay from the memo.
RUN_OPS = st.tuples(
    st.sampled_from(["run", "page"]),
    st.integers(0, 96),          # first line / page number
    st.integers(0, 40),          # line count (page visits: mod 17)
    st.integers(0, 31),          # first line within the page
    st.booleans(),               # write
    st.booleans(),               # repeat
    st.integers(0, 9),           # inhibited when 0
)


class TestBatchedKernel:
    def test_rejects_mismatched_line_sizes(self):
        l2 = Cache(4096, 2, 40, line_size=64, name="l2")
        with pytest.raises(ConfigError):
            Cache(1024, 2, 40, line_size=32, next_level=l2)

    def test_pure_run_replays_from_memo(self):
        cache, l2 = small_hierarchy()
        reference, ref_l2 = small_hierarchy()
        for _ in range(3):
            assert cache.access_lines(4, 3, write=True) == scalar_lines(
                reference, range(4, 7), True, False)
        assert (4, 3, True) in cache._pure_runs
        assert_same_state((cache, l2), (reference, ref_l2))
        cache.access(0)
        assert not cache._pure_runs

    def test_reordering_hit_run_invalidates_the_memo(self):
        # Lines 0 and 8 share a set: each all-hit run reorders the set,
        # so neither run may replay after the other.
        cache, l2 = small_hierarchy()
        reference, ref_l2 = small_hierarchy()
        for first in (0, 8, 0, 8, 0, 0, 8):
            assert cache.access_lines(first, 1) == scalar_lines(
                reference, [first], False, False)
            assert_same_state((cache, l2), (reference, ref_l2))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(RUN_OPS, min_size=1, max_size=40))
    def test_matches_scalar_accesses(self, operations):
        cache, l2 = small_hierarchy()
        reference, ref_l2 = small_hierarchy()
        page_size = 16 * 32
        for kind, base, count, offset, write, repeat, inhibit in operations:
            inhibited = inhibit == 0
            if kind == "run":
                line_addrs = range(base, base + count)
            else:
                count %= 17
                first = base * 16
                line_addrs = [first + (offset + i) % 16 for i in range(count)]
            for _ in range(2 if repeat else 1):
                if kind == "run":
                    result = cache.access_lines(base, count, write, inhibited)
                else:
                    result = cache.access_page_lines(
                        base * page_size, offset, count, write, inhibited,
                        page_size=page_size)
                assert result == scalar_lines(
                    reference, line_addrs, write, inhibited)
                assert_same_state((cache, l2), (reference, ref_l2))

    def test_dirty_victims_cascade_through_both_levels(self):
        # Writing four L2's worth of lines makes dirty L1 victims land in
        # L2, and evicts dirty lines from L2 in turn.
        cache, l2 = small_hierarchy()
        reference, ref_l2 = small_hierarchy()
        for first, write in ((0, True), (64, True), (0, False), (60, True)):
            assert cache.access_lines(first, 64, write) == scalar_lines(
                reference, range(first, first + 64), write, False)
        assert_same_state((cache, l2), (reference, ref_l2))
        assert cache.stats.writebacks and l2.stats.writebacks
        assert l2.stats.hits and l2.stats.evictions

    def test_page_visit_wraps_at_page_end(self):
        cache, l2 = small_hierarchy()
        reference, ref_l2 = small_hierarchy()
        visit = cache.access_page_lines(0x2000, 120, 12, write=True)
        lines = [0x2000 // 32 + (120 + i) % 128 for i in range(12)]
        assert visit == scalar_lines(reference, lines, True, False)
        assert_same_state((cache, l2), (reference, ref_l2))
