"""The architected hashed page table (§3, §5.2, §7)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.hw.hashtable import (
    HashedPageTable,
    primary_hash,
    secondary_hash,
)
from repro.hw.pte import HashPte
from repro.params import PTES_PER_GROUP


def pte(vsid, page_index, rpn=1):
    return HashPte(vsid=vsid, page_index=page_index, rpn=rpn)


class TestHashFunction:
    def test_primary_hash_vectors(self):
        # hash = (VSID mod 2^19) xor page_index
        assert primary_hash(0, 0) == 0
        assert primary_hash(0x7FFFF, 0) == 0x7FFFF
        assert primary_hash(0x80000, 0) == 0  # bit 19 does not participate
        assert primary_hash(0x12345, 0x6789) == 0x12345 ^ 0x6789

    def test_secondary_is_ones_complement(self):
        for vsid, page in [(0, 0), (0x123, 0x456), (0x7FFFF, 0xFFFF)]:
            assert secondary_hash(vsid, page) == (
                (~primary_hash(vsid, page)) & 0x7FFFF
            )

    @given(st.integers(0, 0xFFFFFF), st.integers(0, 0xFFFF))
    def test_hash_fits_19_bits(self, vsid, page):
        assert 0 <= primary_hash(vsid, page) < 1 << 19
        assert 0 <= secondary_hash(vsid, page) < 1 << 19


class TestConstruction:
    def test_power_of_two_groups_required(self):
        with pytest.raises(ConfigError):
            HashedPageTable(groups=100)

    def test_slots(self):
        htab = HashedPageTable(groups=64)
        assert htab.slots == 64 * PTES_PER_GROUP


class TestSearchInsert:
    def test_search_empty_misses(self):
        htab = HashedPageTable(groups=64)
        result = htab.search(1, 0x10)
        assert not result.found
        assert result.mem_refs == 2 * PTES_PER_GROUP  # both buckets

    def test_insert_then_search(self):
        htab = HashedPageTable(groups=64)
        htab.insert(pte(1, 0x10, rpn=42))
        result = htab.search(1, 0x10)
        assert result.found and result.pte.rpn == 42

    def test_search_counts_histogram_on_miss(self):
        htab = HashedPageTable(groups=64)
        group = htab.group_index(1, 0x10, secondary=False)
        htab.search(1, 0x10)
        assert htab.bucket_miss_histogram[group] == 1

    def test_insert_prefers_invalid_slot(self):
        htab = HashedPageTable(groups=64)
        event = htab.insert(pte(1, 0x10))
        assert not event["evicted"]

    def test_overflow_to_secondary_bucket(self):
        htab = HashedPageTable(groups=64)
        # Fill the primary bucket with 8 conflicting entries.
        base_vsid = 5
        inserted = []
        count = 0
        page = 0
        target_group = htab.group_index(base_vsid, 0, secondary=False)
        while count < PTES_PER_GROUP + 1 and page < 0x10000:
            if htab.group_index(base_vsid, page, secondary=False) == target_group:
                htab.insert(pte(base_vsid, page))
                inserted.append(page)
                count += 1
            page += 1
        # The ninth conflicting entry must have gone to its secondary
        # bucket, and still be findable.
        assert htab.insert_secondary >= 1
        for page in inserted:
            assert htab.search(base_vsid, page).found

    def test_evict_when_both_buckets_full(self):
        htab = HashedPageTable(groups=2)  # tiny: 16 slots
        for page in range(40):
            htab.insert(pte(1, page))
        assert htab.evicts > 0
        assert htab.valid_entries() <= htab.slots

    def test_search_reports_probe_runs(self):
        htab = HashedPageTable(groups=64)
        result = htab.search(1, 0x10)
        primary = htab.group_index(1, 0x10, secondary=False)
        secondary = htab.group_index(1, 0x10, secondary=True)
        assert result.probes == [
            (primary, PTES_PER_GROUP), (secondary, PTES_PER_GROUP),
        ]


class TestInvalidate:
    def test_invalidate_entry(self):
        htab = HashedPageTable(groups=64)
        htab.insert(pte(1, 0x10))
        event = htab.invalidate_entry(1, 0x10)
        assert event["found"]
        assert not htab.search(1, 0x10).found

    def test_invalidate_missing_costs_full_search(self):
        htab = HashedPageTable(groups=64)
        event = htab.invalidate_entry(1, 0x10)
        assert not event["found"]
        assert event["mem_refs"] == 16  # the paper's worst case

    def test_invalidate_all(self):
        htab = HashedPageTable(groups=64)
        for page in range(20):
            htab.insert(pte(1, page))
        cleared = htab.invalidate_all()
        assert cleared == 20
        assert htab.valid_entries() == 0


class TestScanAndStats:
    def test_zombie_flats_wraps(self):
        htab = HashedPageTable(groups=2)
        for page in range(htab.slots):
            htab.insert(pte(1, page))
        assert htab.valid_entries() == htab.slots and htab.evicts == 0
        start = htab.slots - 2
        assert htab.zombie_flats(start, 4, lambda vsid: False) == [
            htab.slots - 2, htab.slots - 1, 0, 1,
        ]
        assert htab.zombie_flats(start, 4, lambda vsid: True) == []

    def test_invalidate_slot(self):
        htab = HashedPageTable(groups=64)
        htab.insert(pte(1, 0x10))
        group, slot, _ = next(htab.iter_valid())
        htab.invalidate_slot(group * htab.ptes_per_group + slot)
        assert htab.valid_entries() == 0

    def test_live_and_zombie_split(self):
        htab = HashedPageTable(groups=64)
        htab.insert(pte(1, 0x10))
        htab.insert(pte(2, 0x11))
        live, zombie = htab.live_and_zombie_counts(lambda vsid: vsid == 1)
        assert (live, zombie) == (1, 1)

    def test_evict_ratio_and_hit_rate(self):
        htab = HashedPageTable(groups=64)
        assert htab.evict_ratio() == 0.0
        htab.insert(pte(1, 0x10))
        htab.search(1, 0x10)
        htab.search(1, 0x11)
        assert htab.search_hit_rate() == 0.5

    def test_bucket_load_histogram(self):
        htab = HashedPageTable(groups=64)
        htab.insert(pte(1, 0x10))
        histogram = htab.bucket_load_histogram()
        assert sum(histogram) == 1

    def test_reset_stats(self):
        htab = HashedPageTable(groups=64)
        htab.search(1, 0)
        htab.reset_stats()
        assert htab.searches == 0
        assert sum(htab.bucket_miss_histogram) == 0


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(0, 1023)),
            min_size=1,
            max_size=120,
            unique=True,
        )
    )
    def test_inserted_entries_findable_until_evicted(self, mappings):
        htab = HashedPageTable(groups=32)
        evicted = set()
        for vsid, page in mappings:
            event = htab.insert(pte(vsid, page))
            if event["evicted"] and event["victim"] is not None:
                evicted.add((event["victim"].vsid, event["victim"].page_index))
            evicted.discard((vsid, page))
        for vsid, page in mappings:
            if (vsid, page) not in evicted:
                assert htab.search(vsid, page).found

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=64,
                    unique=True))
    def test_valid_count_matches_inserts_without_eviction(self, pages):
        htab = HashedPageTable(groups=512)
        for page in pages:
            htab.insert(pte(3, page))
        if htab.evicts == 0:
            assert htab.valid_entries() == len(pages)


def reference_scan(htab, vsid, page_index, wanted):
    """Per-slot primary-then-secondary scan over the table's slots.

    Examines one slot at a time, the way the hardware (and the 603's
    software emulation) reads a PTEG, until ``wanted(pte, secondary)``
    holds.  Returns ``(flat, mem_refs, probes)`` with ``flat`` None when
    no slot qualifies.
    """
    ppg = htab.ptes_per_group
    mem_refs = 0
    probes = []
    for secondary in (False, True):
        group = htab.group_index(vsid, page_index, secondary)
        for slot in range(ppg):
            mem_refs += 1
            if wanted(htab.pte_at(group, slot), secondary):
                probes.append((group, slot + 1))
                return group * ppg + slot, mem_refs, probes
        probes.append((group, ppg))
    return None, mem_refs, probes


def reference_lookup(htab, vsid, page_index):
    return reference_scan(
        htab, vsid, page_index,
        lambda entry, secondary: (
            entry is not None and entry.valid and entry.vsid == vsid
            and entry.page_index == page_index
            and entry.secondary == secondary
        ),
    )


def reference_free_slot(htab, vsid, page_index):
    return reference_scan(
        htab, vsid, page_index,
        lambda entry, secondary: entry is None or not entry.valid,
    )


def slot_rpn(htab, flat):
    return htab.pte_at(*divmod(flat, htab.ptes_per_group)).rpn


TABLE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["search", "insert", "invalidate"]),
        st.integers(1, 3),       # vsid
        st.integers(0, 15),      # page index
    ),
    min_size=1,
    max_size=60,
)


class TestAgainstPerSlotScan:
    """``search``/``insert``/``invalidate_entry`` vs a per-slot scan."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([8, 16]), st.integers(0, 48), TABLE_OPS)
    def test_operations_match_reference_scan(self, ptes_per_group,
                                             prefill, operations):
        htab = HashedPageTable(groups=2, ptes_per_group=ptes_per_group)
        # Checked inserts that fill the two-group table, so the random
        # operations also run against full buckets and evicts.
        fill = [("insert", 1 + i % 3, i % 16) for i in range(prefill)]
        next_rpn = 1
        evicts = 0
        for op, vsid, page in fill + operations:
            if op == "search":
                flat, mem_refs, probes = reference_lookup(htab, vsid, page)
                result = htab.search(vsid, page)
                assert (result.probes, result.mem_refs) == (probes, mem_refs)
                assert result.found == (flat is not None)
                if flat is not None:
                    assert result.pte.rpn == slot_rpn(htab, flat)
            elif op == "insert":
                flat, mem_refs, probes = reference_free_slot(htab, vsid, page)
                secondary = flat is not None and len(probes) == 2
                if flat is None:
                    # Round-robin over the primary bucket, one step per evict.
                    flat = probes[0][0] * ptes_per_group + (
                        evicts % ptes_per_group
                    )
                    victim_rpn = slot_rpn(htab, flat)
                    evicts += 1
                event = htab.insert(pte(vsid, page, rpn=next_rpn))
                assert (event["probes"], event["mem_refs"]) == (
                    probes, mem_refs
                )
                assert event["evicted"] == (event["victim"] is not None)
                if event["evicted"]:
                    assert event["victim"].rpn == victim_rpn
                assert htab.evicts == evicts
                assert slot_rpn(htab, flat) == next_rpn
                assert htab.pte_at(
                    *divmod(flat, ptes_per_group)
                ).secondary == secondary
                next_rpn += 1
            else:
                flat, mem_refs, probes = reference_lookup(htab, vsid, page)
                event = htab.invalidate_entry(vsid, page)
                assert (event["probes"], event["mem_refs"]) == (
                    probes, mem_refs
                )
                assert event["found"] == (flat is not None)
                if flat is not None:
                    assert not htab.pte_at(
                        *divmod(flat, ptes_per_group)
                    ).valid
