"""The hash-table reloader and the rejected scavenge design."""

import pytest

from repro.hw.pte import HashPte, PP_RO, PP_RW
from repro.kernel.config import KernelConfig
from repro.kernel.pagetable import LinuxPte
from repro.kernel.reload import hash_pte_from_linux
from repro.params import M604_185, PAGE_SIZE
from repro.sim.simulator import Simulator


class TestPteTranslation:
    def test_writable_maps_to_pp_rw(self):
        pte = hash_pte_from_linux(1, 2, LinuxPte(pfn=3, writable=True))
        assert pte.pp == PP_RW and pte.rpn == 3 and pte.valid

    def test_readonly_maps_to_pp_ro(self):
        pte = hash_pte_from_linux(1, 2, LinuxPte(pfn=3, writable=False))
        assert pte.pp == PP_RO

    def test_dirty_sets_changed(self):
        pte = hash_pte_from_linux(1, 2, LinuxPte(pfn=3, dirty=True))
        assert pte.changed

    def test_cache_inhibit_propagates(self):
        pte = hash_pte_from_linux(
            1, 2, LinuxPte(pfn=3, cache_inhibited=True)
        )
        assert pte.cache_inhibited


class TestInstall:
    def test_install_counts_reload(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        cycles = sim.kernel.reloader.install(5, 9, LinuxPte(pfn=7))
        assert cycles > 0
        assert sim.machine.monitor["htab_reload"] == 1
        assert sim.machine.htab.search(5, 9).found


class TestOnDemandScavenge:
    def _saturated_sim(self):
        config = KernelConfig.optimized().with_changes(
            idle_zombie_reclaim=False, on_demand_scavenge=True
        )
        sim = Simulator(M604_185, config)
        kernel = sim.kernel
        task = kernel.spawn("churn", data_pages=100)
        kernel.switch_to(task)
        htab = sim.machine.htab
        while htab.evicts == 0:
            for page in range(0, 96, 2):
                kernel.user_access(
                    task, 0x10000000 + page * PAGE_SIZE, 1, True
                )
            kernel.flush.flush_mm(task.mm)
        return sim

    def test_evict_triggers_scavenge_burst(self):
        sim = self._saturated_sim()
        assert sim.machine.monitor["scavenge_burst"] >= 1
        assert sim.kernel.reloader.scavenge_bursts >= 1
        assert sim.machine.monitor["zombie_reclaimed"] > 0

    def test_scavenge_charged_to_its_own_category(self):
        sim = self._saturated_sim()
        assert sim.breakdown().get("scavenge", 0) > 0

    def test_scavenge_runs_the_sanitizer_reclaim_check(self):
        """Every slot the scavenge reclaims passes the sanitizer's check."""
        config = KernelConfig.optimized().with_changes(
            idle_zombie_reclaim=False, on_demand_scavenge=True
        )
        sim = Simulator(M604_185, config, sanitize=True)
        htab = sim.machine.htab
        ppg = htab.ptes_per_group
        vsid, page = 5, 9
        buckets = [htab.group_index(vsid, page, secondary)
                   for secondary in (False, True)]
        dead_vsid = 0x00ABCDE
        assert not sim.kernel.vsid_allocator.is_live(dead_vsid)
        # Plant zombies until both of the target's buckets are full.
        for dead_page in range(0x10000):
            loads = htab.bucket_load_histogram()
            if all(loads[group] == ppg for group in buckets):
                break
            group = htab.group_index(dead_vsid, dead_page, False)
            if group in buckets and loads[group] < ppg:
                htab.insert(HashPte(vsid=dead_vsid, page_index=dead_page,
                                    rpn=1))
        sim.kernel.reloader._scavenge_cursor = buckets[0] * ppg
        checked = []
        check = sim.sanitizer.after_reclaim_slot
        sim.sanitizer.after_reclaim_slot = (
            lambda flat, entry: (checked.append(flat), check(flat, entry))
        )
        before = sim.machine.monitor["zombie_reclaimed"]
        sim.kernel.reloader.install(vsid, page, LinuxPte(pfn=7))
        reclaimed = sim.machine.monitor["zombie_reclaimed"] - before
        assert sim.machine.monitor["htab_evict"] == 1
        assert reclaimed >= ppg - 1
        assert len(checked) == reclaimed
        assert sim.sanitizer.violations == 0

    def test_scavenge_disabled_by_default(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        assert not sim.config.on_demand_scavenge
