//! The three-level cache hierarchy + DTLB of the paper's 733 MHz Itanium,
//! with non-blocking prefetch fills.
//!
//! Geometry (from §4 of the paper): 16 KB 4-way L1D, 96 KB 6-way unified
//! L2, 2 MB 4-way unified L3, 1 GB memory. Latencies are representative of
//! the 733 MHz Itanium: the L1 hit latency is folded into the VM's base
//! load cost; deeper levels add stalls.

use crate::cache::{Cache, CacheGeometry};
use std::collections::HashMap;
use stride_vm::{AccessKind, MemoryTiming};

/// Latency and geometry configuration of the whole hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheGeometry,
    /// Unified L2 geometry.
    pub l2: CacheGeometry,
    /// Unified L3 geometry.
    pub l3: CacheGeometry,
    /// Extra stall cycles for an L2 hit.
    pub l2_latency: u64,
    /// Extra stall cycles for an L3 hit.
    pub l3_latency: u64,
    /// Extra stall cycles for a memory access.
    pub mem_latency: u64,
    /// DTLB entries (0 disables the TLB).
    pub tlb_entries: u32,
    /// DTLB associativity.
    pub tlb_ways: u32,
    /// Page size in bytes.
    pub page_size: u64,
    /// Stall cycles for a TLB miss (hardware page walk).
    pub tlb_miss_latency: u64,
    /// Maximum prefetches holding a slot at once (MSHR-style limit);
    /// further prefetches are dropped. A slot frees only when a demand
    /// access reaches its line, never when its fill completes, so fills
    /// completed long ago can still hold slots. This is a known defect,
    /// kept because retiring completed fills moves Figs. 16 and 23–25; see
    /// the open `FOUND` line on `crates/memsim/src/hierarchy.rs` in
    /// CHANGES.md.
    pub max_inflight_prefetches: usize,
    /// Minimum cycles between successive memory-line fills (the memory
    /// bus/bandwidth constraint; 0 = unlimited). Demand misses *and*
    /// prefetch fills that reach memory contend for the same slots, so
    /// aggressive prefetching cannot hide more latency than the bus can
    /// stream — the effect that bounds the paper's speedups on real
    /// hardware.
    pub mem_bus_interval: u64,
}

impl HierarchyConfig {
    /// The 733 MHz Itanium of §4.
    pub const fn itanium733() -> Self {
        HierarchyConfig {
            l1: CacheGeometry {
                size_bytes: 16 * 1024,
                ways: 4,
                line_size: 64,
            },
            l2: CacheGeometry {
                size_bytes: 96 * 1024,
                ways: 6,
                line_size: 64,
            },
            l3: CacheGeometry {
                size_bytes: 2 * 1024 * 1024,
                ways: 4,
                line_size: 64,
            },
            l2_latency: 7,
            l3_latency: 22,
            mem_latency: 140,
            tlb_entries: 128,
            tlb_ways: 4,
            page_size: 8192,
            tlb_miss_latency: 28,
            max_inflight_prefetches: 32,
            mem_bus_interval: 24,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::itanium733()
    }
}

/// Hit/miss and prefetch statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Demand accesses that hit L1 (or a completed prefetch fill).
    pub l1_hits: u64,
    /// Demand accesses served by L2.
    pub l2_hits: u64,
    /// Demand accesses served by L3.
    pub l3_hits: u64,
    /// Demand accesses served by memory.
    pub mem_accesses: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Prefetches accepted into the in-flight queue.
    pub prefetches_issued: u64,
    /// Prefetches dropped (already cached, already in flight, or MSHRs
    /// full).
    pub prefetches_dropped: u64,
    /// Demand accesses that found a completed prefetch (full latency
    /// hidden).
    pub prefetch_timely: u64,
    /// Demand accesses that found an in-flight prefetch (partial latency
    /// hidden).
    pub prefetch_late: u64,
    /// Lookups (across L1/L2/L3 and the TLB) the MRU way hint served
    /// without a set scan. Pure observability: the hint never changes
    /// hit/miss results.
    pub way_hint_hits: u64,
}

impl HierarchyStats {
    /// Total demand accesses observed.
    pub fn demand_accesses(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.l3_hits + self.mem_accesses
    }
}

/// The simulated hierarchy. Implements [`MemoryTiming`] so it plugs
/// directly into the VM.
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    tlb: Option<Cache>,
    /// line base address -> completion cycle of an issued prefetch. An
    /// entry leaves only when a demand access reaches its line, not when
    /// its fill completes (see [`HierarchyConfig::max_inflight_prefetches`]).
    inflight: HashMap<u64, u64>,
    /// Earliest cycle at which the memory bus can start another line fill.
    next_mem_slot: u64,
    stats: HierarchyStats,
}

impl CacheHierarchy {
    /// Creates an empty (cold) hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        let tlb = (config.tlb_entries > 0).then(|| {
            Cache::new(CacheGeometry {
                size_bytes: config.tlb_entries as u64 * config.page_size,
                ways: config.tlb_ways,
                line_size: config.page_size,
            })
        });
        CacheHierarchy {
            config,
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            tlb,
            inflight: HashMap::new(),
            next_mem_slot: 0,
            stats: HierarchyStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> HierarchyStats {
        let mut stats = self.stats;
        stats.way_hint_hits = self.l1.way_hint_hits()
            + self.l2.way_hint_hits()
            + self.l3.way_hint_hits()
            + self.tlb.as_ref().map_or(0, Cache::way_hint_hits);
        stats
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.config.l1.line_size - 1)
    }

    /// Completion time of a fill of `addr` issued at `cycle`, probing L2,
    /// L3 and finally memory. Memory fills contend for bus slots spaced
    /// [`HierarchyConfig::mem_bus_interval`] cycles apart; cache-to-cache
    /// fills are unconstrained.
    fn fill_completion(&mut self, addr: u64, cycle: u64) -> (u64, bool) {
        if self.l2.access(addr) {
            (cycle + self.config.l2_latency, false)
        } else if self.l3.access(addr) {
            (cycle + self.config.l3_latency, false)
        } else {
            let start = cycle.max(self.next_mem_slot);
            self.next_mem_slot = start + self.config.mem_bus_interval;
            (start + self.config.mem_latency, true)
        }
    }

    fn install_all(&mut self, addr: u64) {
        self.l1.install(addr);
        self.l2.install(addr);
        self.l3.install(addr);
    }

    fn tlb_stall(&mut self, addr: u64) -> u64 {
        let Some(tlb) = self.tlb.as_mut() else {
            return 0;
        };
        if tlb.access(addr) {
            0
        } else {
            tlb.install(addr);
            self.stats.tlb_misses += 1;
            self.config.tlb_miss_latency
        }
    }
}

impl MemoryTiming for CacheHierarchy {
    fn access(&mut self, addr: u64, cycle: u64, _kind: AccessKind) -> u64 {
        let mut stall = self.tlb_stall(addr);
        let line = self.line_base(addr);

        // A prefetch in flight for this line? The emptiness guard skips
        // hashing the line entirely in runs that never prefetch (every
        // baseline run): remove on an empty map always returns None.
        if !self.inflight.is_empty() {
            if let Some(ready) = self.inflight.remove(&line) {
                if ready <= cycle + stall {
                    self.stats.prefetch_timely += 1;
                    self.stats.l1_hits += 1;
                    self.l1.install(addr);
                    return stall;
                }
                self.stats.prefetch_late += 1;
                self.stats.l1_hits += 1; // classified as an (expensive) L1 fill
                self.l1.install(addr);
                stall += ready - (cycle + stall);
                return stall;
            }
        }

        if self.l1.access(addr) {
            self.stats.l1_hits += 1;
            return stall;
        }
        if self.l2.access(addr) {
            self.stats.l2_hits += 1;
            self.l1.install(addr);
            return stall + self.config.l2_latency;
        }
        if self.l3.access(addr) {
            self.stats.l3_hits += 1;
            self.l1.install(addr);
            self.l2.install(addr);
            return stall + self.config.l3_latency;
        }
        self.stats.mem_accesses += 1;
        self.install_all(addr);
        let start = (cycle + stall).max(self.next_mem_slot);
        self.next_mem_slot = start + self.config.mem_bus_interval;
        stall + (start + self.config.mem_latency) - (cycle + stall)
    }

    /// A repeat of the most recently demand-accessed line is a guaranteed
    /// L1 + TLB MRU hit (every `access` path leaves the line MRU in both,
    /// and a line never spans pages), so the VM may batch such accesses.
    fn repeat_line_size(&self) -> Option<u64> {
        Some(self.config.l1.line_size)
    }

    fn note_line_repeats(&mut self, addr: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.l1.note_repeat_hits(addr, n);
        if let Some(tlb) = self.tlb.as_mut() {
            tlb.note_repeat_hits(addr, n);
        }
        self.stats.l1_hits += n;
    }

    fn prefetch(&mut self, addr: u64, cycle: u64) {
        let line = self.line_base(addr);
        if self.l1.contains(addr)
            || self.inflight.contains_key(&line)
            || self.inflight.len() >= self.config.max_inflight_prefetches
        {
            self.stats.prefetches_dropped += 1;
            return;
        }
        let (ready, _from_mem) = self.fill_completion(addr, cycle);
        // The fill completes after the full miss latency (plus any memory
        // bus queueing); install into the caches now so capacity/conflict
        // effects (pollution) are modeled, and record readiness for
        // partial-latency hits.
        self.install_all(addr);
        self.inflight.insert(line, ready);
        self.stats.prefetches_issued += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::itanium733())
    }

    #[test]
    fn cold_miss_costs_memory_latency() {
        let mut h = hierarchy();
        let stall = h.access(0x1_0000, 0, AccessKind::Load);
        let cfg = *h.config();
        assert_eq!(stall, cfg.mem_latency + cfg.tlb_miss_latency);
        assert_eq!(h.stats().mem_accesses, 1);
        assert_eq!(h.stats().tlb_misses, 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = hierarchy();
        h.access(0x1_0000, 0, AccessKind::Load);
        let stall = h.access(0x1_0008, 10_000, AccessKind::Load);
        assert_eq!(stall, 0);
        assert_eq!(h.stats().l1_hits, 1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = hierarchy();
        // L1 = 16KB 4-way, 64 sets. Touch 5 lines mapping to the same set:
        // stride = 64 sets * 64B = 4096.
        let base = 0x10_0000;
        for i in 0..5u64 {
            h.access(base + i * 4096, 0, AccessKind::Load);
        }
        // First line was evicted from L1 but still in L2.
        let stall = h.access(base, 100_000, AccessKind::Load);
        assert_eq!(stall, h.config().l2_latency);
        assert_eq!(h.stats().l2_hits, 1);
    }

    #[test]
    fn timely_prefetch_hides_all_latency() {
        let mut h = hierarchy();
        h.prefetch(0x2_0000, 0);
        assert_eq!(h.stats().prefetches_issued, 1);
        // Demand access long after the fill completed.
        let stall = h.access(0x2_0000, 1_000_000, AccessKind::Load);
        // TLB miss still applies (prefetch does not warm the TLB here).
        assert_eq!(stall, h.config().tlb_miss_latency);
        assert_eq!(h.stats().prefetch_timely, 1);
    }

    #[test]
    fn late_prefetch_hides_partial_latency() {
        let mut h = hierarchy();
        h.prefetch(0x2_0000, 1000);
        // Demand access immediately after issuing: fill not complete.
        let tlb = h.config().tlb_miss_latency;
        let stall = h.access(0x2_0000, 1000 + 10, AccessKind::Load);
        assert!(stall > tlb, "some stall expected");
        assert!(
            stall < h.config().mem_latency + tlb,
            "but less than a full miss"
        );
        assert_eq!(h.stats().prefetch_late, 1);
    }

    #[test]
    fn batched_line_repeats_match_individual_accesses() {
        let mut a = hierarchy();
        let mut b = hierarchy();
        a.access(0x1_0000, 0, AccessKind::Load);
        b.access(0x1_0000, 0, AccessKind::Load);
        for i in 0..5u64 {
            let stall = a.access(0x1_0008, 10 + i, AccessKind::Load);
            assert_eq!(stall, 0, "repeat of the MRU line is a free hit");
        }
        b.note_line_repeats(0x1_0008, 5);
        assert_eq!(a.stats(), b.stats());
        // Full state equality: later evictions/timings cannot diverge.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn prefetch_of_cached_line_is_dropped() {
        let mut h = hierarchy();
        h.access(0x3_0000, 0, AccessKind::Load);
        h.prefetch(0x3_0000, 10);
        assert_eq!(h.stats().prefetches_dropped, 1);
        assert_eq!(h.stats().prefetches_issued, 0);
    }

    #[test]
    fn duplicate_inflight_prefetch_is_dropped() {
        let mut h = hierarchy();
        h.prefetch(0x4_0000, 0);
        h.prefetch(0x4_0000, 1);
        assert_eq!(h.stats().prefetches_issued, 1);
        assert_eq!(h.stats().prefetches_dropped, 1);
    }

    #[test]
    fn mshr_limit_drops_excess_prefetches() {
        let mut h = CacheHierarchy::new(HierarchyConfig {
            max_inflight_prefetches: 2,
            ..HierarchyConfig::itanium733()
        });
        h.prefetch(0x10_0000, 0);
        h.prefetch(0x20_0000, 0);
        h.prefetch(0x30_0000, 0);
        assert_eq!(h.stats().prefetches_issued, 2);
        assert_eq!(h.stats().prefetches_dropped, 1);
    }

    #[test]
    fn stores_also_use_the_hierarchy() {
        let mut h = hierarchy();
        let s1 = h.access(0x5_0000, 0, AccessKind::Store);
        assert!(s1 > 0);
        let s2 = h.access(0x5_0000, 100_000, AccessKind::Store);
        assert_eq!(s2, 0);
    }

    #[test]
    fn tlb_disabled_when_zero_entries() {
        let mut h = CacheHierarchy::new(HierarchyConfig {
            tlb_entries: 0,
            ..HierarchyConfig::itanium733()
        });
        let stall = h.access(0x1_0000, 0, AccessKind::Load);
        assert_eq!(stall, h.config().mem_latency);
        assert_eq!(h.stats().tlb_misses, 0);
    }

    #[test]
    fn sequential_scan_mostly_hits_after_first_touch() {
        let mut h = hierarchy();
        let mut total = 0;
        for i in 0..64u64 {
            total += h.access(0x8_0000 + i * 8, i * 10, AccessKind::Load);
        }
        // 64 accesses cover 8 lines and 1 page: 8 memory misses, 1 TLB miss.
        assert_eq!(h.stats().mem_accesses, 8);
        assert_eq!(h.stats().l1_hits, 56);
        assert_eq!(
            total,
            8 * h.config().mem_latency + h.config().tlb_miss_latency
        );
    }

    #[test]
    fn memory_bus_serializes_back_to_back_misses() {
        // Two cold misses issued at the same cycle: the second waits for a
        // bus slot, so its stall exceeds the raw memory latency.
        let mut h = CacheHierarchy::new(HierarchyConfig {
            tlb_entries: 0,
            ..HierarchyConfig::itanium733()
        });
        let cfg = *h.config();
        let s1 = h.access(0x10_0000, 0, AccessKind::Load);
        assert_eq!(s1, cfg.mem_latency);
        let s2 = h.access(0x20_0000, 0, AccessKind::Load);
        assert_eq!(s2, cfg.mem_latency + cfg.mem_bus_interval);
        // far apart in time: no queueing
        let s3 = h.access(0x30_0000, 1_000_000, AccessKind::Load);
        assert_eq!(s3, cfg.mem_latency);
    }

    #[test]
    fn prefetch_fills_consume_bus_slots_too() {
        let mut h = CacheHierarchy::new(HierarchyConfig {
            tlb_entries: 0,
            ..HierarchyConfig::itanium733()
        });
        let cfg = *h.config();
        h.prefetch(0x40_0000, 0); // takes the first bus slot
        let stall = h.access(0x50_0000, 0, AccessKind::Load);
        assert_eq!(
            stall,
            cfg.mem_latency + cfg.mem_bus_interval,
            "demand miss must queue behind the prefetch fill"
        );
    }

    #[test]
    fn unlimited_bus_when_interval_zero() {
        let mut h = CacheHierarchy::new(HierarchyConfig {
            tlb_entries: 0,
            mem_bus_interval: 0,
            ..HierarchyConfig::itanium733()
        });
        let cfg = *h.config();
        for i in 0..8u64 {
            let s = h.access(0x100_0000 + i * 4096, 0, AccessKind::Load);
            assert_eq!(s, cfg.mem_latency);
        }
    }

    #[test]
    fn demand_accesses_sum() {
        let mut h = hierarchy();
        for i in 0..10u64 {
            h.access(i * 64, 0, AccessKind::Load);
        }
        assert_eq!(h.stats().demand_accesses(), 10);
    }
}
