"""The 604 hardware table-walk engine and its cost accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.hw.cache import Cache
from repro.hw.hashtable import HashedPageTable
from repro.hw.pte import HashPte
from repro.hw.walker import (
    HardwareWalker,
    PTEG_BYTES,
    WALK_BASE_CYCLES,
    WALK_CYCLES_PER_REF,
)
from repro.params import PTE_BYTES


def make_walker(cache_ptes=True, groups=64):
    htab = HashedPageTable(groups=groups)
    dcache = Cache(32 * 1024, 4, mem_cycles=52, word_cycles=11)
    walker = HardwareWalker(htab, dcache, htab_base_pa=0x100000,
                           cache_ptes=cache_ptes)
    return walker, htab, dcache


class TestWalkCosts:
    def test_paper_cycle_ceiling_constants(self):
        # 8 + 16 * 7 = 120, the paper's measured hardware-walk maximum.
        assert WALK_BASE_CYCLES + 16 * WALK_CYCLES_PER_REF == 120

    def test_found_walk_returns_pte(self):
        walker, htab, _ = make_walker()
        htab.insert(HashPte(vsid=1, page_index=0x10, rpn=9))
        result, _ = walker.search(1, 0x10)
        assert result.found and result.pte.rpn == 9

    def test_miss_walk_probes_both_buckets(self):
        walker, _, _ = make_walker()
        result, _ = walker.search(1, 0x10)
        assert not result.found
        assert result.mem_refs == 16

    def test_walk_charges_cache_accesses(self):
        walker, _, dcache = make_walker()
        walker.search(1, 0x10)
        assert dcache.stats.misses + dcache.stats.hits == 16

    def test_uncached_walk_bypasses_cache(self):
        walker, _, dcache = make_walker(cache_ptes=False)
        walker.search(1, 0x10)
        assert dcache.stats.bypasses == 16
        assert len(dcache) == 0

    def test_warm_walk_cheaper_than_cold(self):
        walker, htab, _ = make_walker()
        htab.insert(HashPte(vsid=1, page_index=0x10, rpn=9))
        _, cold = walker.search(1, 0x10)
        _, warm = walker.search(1, 0x10)
        assert warm < cold

    def test_search_charges_cycles_per_ref(self):
        # Uncached probes cost the same every time, so the difference
        # is the per-reference instruction cost alone.
        walker, _, _ = make_walker(cache_ptes=False)
        _, hardware = walker.search(1, 0x10)
        _, software = walker.search(1, 0x10, cycles_per_ref=2)
        assert hardware - software == 16 * (WALK_CYCLES_PER_REF - 2)

    def test_pte_physical_address_layout(self):
        walker, _, _ = make_walker()
        assert walker.pte_physical_address(0, 0) == 0x100000
        assert walker.pte_physical_address(1, 0) == 0x100000 + PTEG_BYTES
        assert walker.pte_physical_address(0, 3) == 0x100000 + 24


class TestInsertInvalidate:
    def test_insert_returns_event_with_cycles(self):
        walker, htab, _ = make_walker()
        event = walker.insert(HashPte(vsid=1, page_index=0x10, rpn=9))
        assert event["cycles"] > 0
        assert not event["evicted"]
        assert htab.search(1, 0x10).found

    def test_invalidate_found(self):
        walker, htab, _ = make_walker()
        walker.insert(HashPte(vsid=1, page_index=0x10, rpn=9))
        event = walker.invalidate(1, 0x10)
        assert event["found"] and event["cycles"] > 0
        assert not htab.search(1, 0x10).found

    def test_invalidate_missing_pays_full_search(self):
        walker, _, _ = make_walker()
        event = walker.invalidate(1, 0x10)
        assert not event["found"]
        assert event["mem_refs"] == 16


def twin_walkers(ptes_per_group, line_size=32, groups=16):
    """Two identical walkers over a small two-level data cache."""
    twins = []
    for _ in range(2):
        l2 = Cache(4096, 4, 52, line_size=line_size, word_cycles=11,
                   hit_cycles=8, name="l2")
        dcache = Cache(1024, 2, 52, line_size=line_size, word_cycles=11,
                       next_level=l2)
        htab = HashedPageTable(groups=groups, ptes_per_group=ptes_per_group)
        twins.append(HardwareWalker(htab, dcache, htab_base_pa=0x100000))
    return twins


def scalar_scan(walker, start, count, inhibited):
    """The per-slot loop ``charge_scan_window`` replaces."""
    dcache = walker.dcache
    slots_per_line = dcache.line_size // PTE_BYTES
    cycles = 0
    for step in range(count):
        flat = (start + step) % walker.htab.slots
        if flat % slots_per_line == 0:
            cycles += dcache.access(walker.htab_base_pa + flat * PTE_BYTES,
                                    inhibited=inhibited)
    return cycles


def scalar_probe_run(walker, group_index, count, inhibited):
    """The per-slot loop ``charge_probe_run`` replaces."""
    return sum(
        walker.dcache.access(walker.pte_physical_address(group_index, slot),
                             inhibited=inhibited)
        for slot in range(count)
    )


def assert_same_caches(batched, scalar):
    for one, other in ((batched.dcache, scalar.dcache),
                       (batched.dcache.next_level, scalar.dcache.next_level)):
        assert one._sets == other._sets
        assert one._dirty == other._dirty
        assert one.stats == other.stats


SCAN_OPS = st.tuples(
    st.booleans(),               # scan window (else probe run)
    st.integers(0, 600),         # window start / group index
    st.integers(0, 300),         # slots scanned / probed
    st.integers(0, 4),           # inhibited when 0
    st.integers(0, 2047),        # a dirtying store before the op
)


class TestBatchedCharging:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([8, 16]), st.sampled_from([8, 32]),
           st.lists(SCAN_OPS, min_size=1, max_size=25))
    def test_matches_per_slot_loops(self, ptes_per_group, line_size,
                                    operations):
        batched, scalar = twin_walkers(ptes_per_group, line_size)
        for is_scan, start, count, inhibit, store in operations:
            inhibited = inhibit == 0
            for walker in (batched, scalar):
                walker.dcache.access(walker.htab_base_pa + store * 4,
                                     write=True)
            if is_scan:
                assert batched.charge_scan_window(
                    start, count, inhibited
                ) == scalar_scan(scalar, start, count, inhibited)
            else:
                group = start % batched.htab.groups
                count %= ptes_per_group + 1
                assert batched.charge_probe_run(
                    group, count, inhibited
                ) == scalar_probe_run(scalar, group, count, inhibited)
            assert_same_caches(batched, scalar)

    def test_scan_window_wrapping_at_table_end(self):
        batched, scalar = twin_walkers(16)
        slots = batched.htab.slots
        for inhibited in (False, True, False):
            start = slots - 37
            assert batched.charge_scan_window(
                start, 100, inhibited
            ) == scalar_scan(scalar, start, 100, inhibited)
            assert_same_caches(batched, scalar)
        assert batched.dcache.stats.bypasses
        assert batched.dcache.stats.misses and batched.dcache.stats.hits

    def test_rejects_lines_smaller_than_a_pte(self):
        dcache = Cache(1024, 2, 52, line_size=4, word_cycles=11)
        with pytest.raises(ConfigError):
            HardwareWalker(HashedPageTable(groups=16), dcache,
                           htab_base_pa=0x100000)

    def test_probe_run_over_a_sixteen_slot_group(self):
        batched, scalar = twin_walkers(16)
        for group, count in ((3, 16), (3, 16), (5, 11), (3, 1)):
            assert batched.charge_probe_run(
                group, count, False
            ) == scalar_probe_run(scalar, group, count, False)
        assert batched.charge_probe_run(
            3, 16, True
        ) == scalar_probe_run(scalar, 3, 16, True)
        assert_same_caches(batched, scalar)
