//! Composed CPU-side and GPU-side cache hierarchies.
//!
//! Table I gives both systems the same cores and caches:
//!
//! * CPU side: per-core 64 KiB L1D plus an exclusive, private 256 KiB L2 per
//!   core (we model the pair as a two-level inclusive path, which preserves
//!   the per-core ~320 KiB of reach the paper's CPU enjoys).
//! * GPU side: 24 KiB L1 per SM and a GPU-shared, banked, non-inclusive
//!   1 MiB L2.
//!
//! The difference between the two systems is *connectivity*: in the
//! heterogeneous processor the CPU and GPU L2s are coherent, so a miss on one
//! side may be serviced by a cache-to-cache transfer from the other side
//! ([`ServiceLevel::Remote`]) instead of going off-chip. In the discrete
//! system the two sides never probe each other and DMA transfers
//! invalidate/flush CPU cache contents.

use crate::access::AccessKind;
use crate::addr::{AddrRange, LineAddr};
use crate::cache::{CacheConfig, CacheStats, SetAssocCache};

/// Where an access was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Hit in the requester's L1.
    L1,
    /// Hit in the requester-side L2.
    L2,
    /// Serviced by a coherent cache-to-cache transfer from the other side
    /// (heterogeneous processor only).
    Remote,
    /// Missed on chip entirely; fetched from DRAM.
    OffChip,
}

/// Outcome of one line access through a hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Service point of the requested line.
    pub level: ServiceLevel,
    /// Dirty lines this access displaced from the last-level cache, which
    /// are now in flight to DRAM (at most two: one from the victim path of
    /// an L1 eviction landing in L2, one from the fill itself).
    writebacks: [Option<LineAddr>; 2],
}

impl AccessResult {
    fn new(level: ServiceLevel) -> Self {
        AccessResult {
            level,
            writebacks: [None; 2],
        }
    }

    fn push_writeback(&mut self, line: LineAddr) {
        if self.writebacks[0].is_none() {
            self.writebacks[0] = Some(line);
        } else if self.writebacks[1].is_none() {
            self.writebacks[1] = Some(line);
        }
        // A third writeback per access is impossible with two levels.
    }

    /// Whether the access itself went off-chip.
    pub fn is_offchip_fetch(&self) -> bool {
        self.level == ServiceLevel::OffChip
    }

    /// Iterates dirty lines pushed off-chip by this access.
    pub fn offchip_writebacks(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.writebacks.iter().flatten().copied()
    }
}

/// Geometry and connectivity of one chip's (or chip pair's) caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of CPU cores, each with a private L1D + L2 (Table I: 4).
    pub cpu_cores: u8,
    /// Per-core CPU L1 data cache.
    pub cpu_l1d: CacheConfig,
    /// Per-core private CPU L2.
    pub cpu_l2: CacheConfig,
    /// Number of GPU SMs (Table I: 16).
    pub gpu_sms: u8,
    /// Per-SM GPU L1.
    pub gpu_l1: CacheConfig,
    /// GPU-shared L2.
    pub gpu_l2: CacheConfig,
    /// Whether CPU-side and GPU-side L2s service each other's misses
    /// coherently (true only for the heterogeneous processor).
    pub coherent_probes: bool,
}

impl HierarchyConfig {
    /// Table I cache parameters with discrete-GPU connectivity (no coherent
    /// probes between CPU and GPU caches).
    pub fn paper_discrete() -> Self {
        HierarchyConfig {
            cpu_cores: 4,
            cpu_l1d: CacheConfig::new(64 * 1024, 8),
            cpu_l2: CacheConfig::new(256 * 1024, 16),
            gpu_sms: 16,
            gpu_l1: CacheConfig::new(24 * 1024, 6),
            gpu_l2: CacheConfig::new(1024 * 1024, 16),
            coherent_probes: false,
        }
    }

    /// Table I cache parameters with heterogeneous-processor connectivity
    /// (coherent CPU-GPU probes via the 12-port switch).
    pub fn paper_heterogeneous() -> Self {
        HierarchyConfig {
            coherent_probes: true,
            ..Self::paper_discrete()
        }
    }
}

/// The caches of one simulated system, CPU side and GPU side together.
#[derive(Debug)]
pub struct ChipHierarchy {
    config: HierarchyConfig,
    cpu_l1: Vec<SetAssocCache>,
    cpu_l2: Vec<SetAssocCache>,
    gpu_l1: Vec<SetAssocCache>,
    gpu_l2: SetAssocCache,
    remote_hits_cpu: u64,
    remote_hits_gpu: u64,
}

impl ChipHierarchy {
    /// Creates empty caches per `config`.
    pub fn new(config: HierarchyConfig) -> Self {
        ChipHierarchy {
            config,
            cpu_l1: (0..config.cpu_cores)
                .map(|_| SetAssocCache::new(config.cpu_l1d))
                .collect(),
            cpu_l2: (0..config.cpu_cores)
                .map(|_| SetAssocCache::new(config.cpu_l2))
                .collect(),
            gpu_l1: (0..config.gpu_sms)
                .map(|_| SetAssocCache::new(config.gpu_l1))
                .collect(),
            gpu_l2: SetAssocCache::new(config.gpu_l2),
            remote_hits_cpu: 0,
            remote_hits_gpu: 0,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// One CPU load/store of a cache line from `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not below [`HierarchyConfig::cpu_cores`].
    pub fn cpu_access(&mut self, core: u8, line: LineAddr, kind: AccessKind) -> AccessResult {
        let core = core as usize;
        let l1 = self.cpu_l1[core].access(line, kind);
        if l1.hit {
            return AccessResult::new(ServiceLevel::L1);
        }
        let mut result;
        // Victim path: a dirty L1 eviction is installed in the L2.
        let mut spill = l1.writeback;
        let l2 = self.cpu_l2[core].access(line, AccessKind::Read);
        if l2.hit {
            result = AccessResult::new(ServiceLevel::L2);
        } else if self.config.coherent_probes && self.probe_gpu_side(line, kind) {
            self.remote_hits_cpu += 1;
            result = AccessResult::new(ServiceLevel::Remote);
        } else {
            result = AccessResult::new(ServiceLevel::OffChip);
        }
        if let Some(wb) = l2.writeback {
            result.push_writeback(wb);
        }
        if let Some(victim) = spill.take() {
            let vout = self.cpu_l2[core].access(victim, AccessKind::Write);
            if let Some(wb) = vout.writeback {
                result.push_writeback(wb);
            }
        }
        result
    }

    /// One GPU load/store of a cache line from `sm`.
    ///
    /// GPU L1s are write-evict (Fermi-style): stores bypass the L1 — any
    /// cached copy is invalidated — and allocate in the shared L2 only, so
    /// per-SM L1s never hold dirty data and kernel-boundary flushes are
    /// silent.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is not below [`HierarchyConfig::gpu_sms`].
    pub fn gpu_access(&mut self, sm: u8, line: LineAddr, kind: AccessKind) -> AccessResult {
        let sm = sm as usize;
        if kind.is_write() {
            self.gpu_l1[sm].invalidate(line);
            let mut result;
            let l2 = self.gpu_l2.access(line, AccessKind::Write);
            if l2.hit {
                result = AccessResult::new(ServiceLevel::L2);
            } else if self.config.coherent_probes && self.probe_cpu_side(line, kind) {
                self.remote_hits_gpu += 1;
                result = AccessResult::new(ServiceLevel::Remote);
            } else {
                result = AccessResult::new(ServiceLevel::OffChip);
            }
            if let Some(wb) = l2.writeback {
                result.push_writeback(wb);
            }
            return result;
        }
        let l1 = self.gpu_l1[sm].access(line, kind);
        if l1.hit {
            return AccessResult::new(ServiceLevel::L1);
        }
        let mut result;
        let mut spill = l1.writeback;
        let l2 = self.gpu_l2.access(line, AccessKind::Read);
        if l2.hit {
            result = AccessResult::new(ServiceLevel::L2);
        } else if self.config.coherent_probes && self.probe_cpu_side(line, kind) {
            self.remote_hits_gpu += 1;
            result = AccessResult::new(ServiceLevel::Remote);
        } else {
            result = AccessResult::new(ServiceLevel::OffChip);
        }
        if let Some(wb) = l2.writeback {
            result.push_writeback(wb);
        }
        if let Some(victim) = spill.take() {
            let vout = self.gpu_l2.access(victim, AccessKind::Write);
            if let Some(wb) = vout.writeback {
                result.push_writeback(wb);
            }
        }
        result
    }

    /// Looks for `line` anywhere on the GPU side; on a write, invalidates
    /// the remote copies (ownership transfer). Each cache is probed once:
    /// invalidating or cleaning a line reports whether it was there.
    fn probe_gpu_side(&mut self, line: LineAddr, kind: AccessKind) -> bool {
        if kind.is_write() {
            let mut found = self.gpu_l2.invalidate(line).is_some();
            for l1 in &mut self.gpu_l1 {
                found |= l1.invalidate(line).is_some();
            }
            found
        } else {
            // Reader gets a shared copy; the dirty owner supplies data and
            // is downgraded to clean (the data now also lives with the
            // reader, still on chip). GPU L1s never hold dirty data.
            self.gpu_l2.clean(line) || self.gpu_l1.iter().any(|l1| l1.contains(line))
        }
    }

    /// Looks for `line` anywhere on the CPU side; on a write, invalidates
    /// the remote copies, and on a read downgrades them to clean.
    fn probe_cpu_side(&mut self, line: LineAddr, kind: AccessKind) -> bool {
        let mut found = false;
        for c in self.cpu_l1.iter_mut().chain(&mut self.cpu_l2) {
            found |= if kind.is_write() {
                c.invalidate(line).is_some()
            } else {
                c.clean(line)
            };
        }
        found
    }

    /// Prepares a DMA *read* of `range` from CPU memory: dirty CPU cache
    /// lines must be flushed so the copy engine reads current data. Returns
    /// the number of dirty lines flushed (each is an off-chip writeback).
    pub fn dma_flush_cpu(&mut self, range: AddrRange) -> u64 {
        let mut flushed = 0;
        for line in range.lines() {
            for c in 0..self.cpu_l1.len() {
                if self.cpu_l1[c].is_dirty(line) {
                    self.cpu_l1[c].clean(line);
                    flushed += 1;
                }
                if self.cpu_l2[c].is_dirty(line) {
                    self.cpu_l2[c].clean(line);
                    flushed += 1;
                }
            }
        }
        flushed
    }

    /// Prepares a DMA *write* of `range` into CPU memory: cached copies are
    /// invalidated (the paper: "any coherent cache lines containing data for
    /// the destination addresses are written back or invalidated"). Returns
    /// the number of lines invalidated.
    pub fn dma_invalidate_cpu(&mut self, range: AddrRange) -> u64 {
        let mut inv = 0;
        for c in 0..self.cpu_l1.len() {
            inv += self.cpu_l1[c].invalidate_range(range).0;
            inv += self.cpu_l2[c].invalidate_range(range).0;
        }
        inv
    }

    /// Prepares a DMA *read* of `range` from GPU memory: dirty GPU L2 lines
    /// are flushed so the copy engine reads current data. Returns the number
    /// of dirty lines flushed (each is an off-chip writeback).
    pub fn dma_flush_gpu(&mut self, range: AddrRange) -> u64 {
        let mut flushed = 0;
        for line in range.lines() {
            if self.gpu_l2.is_dirty(line) {
                self.gpu_l2.clean(line);
                flushed += 1;
            }
        }
        flushed
    }

    /// Invalidates a range from the GPU-side caches (DMA into GPU memory).
    pub fn dma_invalidate_gpu(&mut self, range: AddrRange) -> u64 {
        let mut inv = 0;
        for l1 in &mut self.gpu_l1 {
            inv += l1.invalidate_range(range).0;
        }
        inv += self.gpu_l2.invalidate_range(range).0;
        inv
    }

    /// Flushes the per-SM L1s, as GPUs do at kernel boundaries (their L1s
    /// are not coherent even among SMs).
    pub fn flush_gpu_l1s(&mut self) {
        for l1 in &mut self.gpu_l1 {
            l1.flush_all();
        }
    }

    /// Aggregate statistics over all CPU L1s.
    pub fn cpu_l1_stats(&self) -> CacheStats {
        sum_stats(self.cpu_l1.iter().map(|c| c.stats()))
    }

    /// Aggregate statistics over all CPU L2s.
    pub fn cpu_l2_stats(&self) -> CacheStats {
        sum_stats(self.cpu_l2.iter().map(|c| c.stats()))
    }

    /// Aggregate statistics over all GPU L1s.
    pub fn gpu_l1_stats(&self) -> CacheStats {
        sum_stats(self.gpu_l1.iter().map(|c| c.stats()))
    }

    /// GPU shared L2 statistics.
    pub fn gpu_l2_stats(&self) -> CacheStats {
        self.gpu_l2.stats()
    }

    /// CPU misses serviced by GPU-side caches (heterogeneous only).
    pub fn remote_hits_cpu(&self) -> u64 {
        self.remote_hits_cpu
    }

    /// GPU misses serviced by CPU-side caches (heterogeneous only).
    pub fn remote_hits_gpu(&self) -> u64 {
        self.remote_hits_gpu
    }
}

fn sum_stats(iter: impl Iterator<Item = CacheStats>) -> CacheStats {
    let mut total = CacheStats::default();
    for s in iter {
        total.hits += s.hits;
        total.misses += s.misses;
        total.writebacks += s.writebacks;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn discrete() -> ChipHierarchy {
        ChipHierarchy::new(HierarchyConfig::paper_discrete())
    }

    fn hetero() -> ChipHierarchy {
        ChipHierarchy::new(HierarchyConfig::paper_heterogeneous())
    }

    #[test]
    fn paper_configs_match_table1() {
        let c = HierarchyConfig::paper_discrete();
        assert_eq!(c.cpu_cores, 4);
        assert_eq!(c.cpu_l1d.capacity_bytes(), 64 * 1024);
        assert_eq!(c.cpu_l2.capacity_bytes(), 256 * 1024);
        assert_eq!(c.gpu_sms, 16);
        assert_eq!(c.gpu_l1.capacity_bytes(), 24 * 1024);
        assert_eq!(c.gpu_l2.capacity_bytes(), 1024 * 1024);
        assert!(!c.coherent_probes);
        assert!(HierarchyConfig::paper_heterogeneous().coherent_probes);
    }

    #[test]
    fn cpu_miss_then_l1_hit() {
        let mut h = discrete();
        let r = h.cpu_access(0, LineAddr(100), AccessKind::Read);
        assert_eq!(r.level, ServiceLevel::OffChip);
        let r2 = h.cpu_access(0, LineAddr(100), AccessKind::Read);
        assert_eq!(r2.level, ServiceLevel::L1);
    }

    #[test]
    fn cpu_l2_catches_l1_capacity_misses() {
        let mut h = discrete();
        // Walk 1024 lines (128 KiB): exceeds 64 KiB L1 but fits the
        // L1+L2 reach. Second pass should hit mostly in L2.
        for i in 0..1024 {
            h.cpu_access(0, LineAddr(i), AccessKind::Read);
        }
        let mut l2_hits = 0;
        for i in 0..1024 {
            let r = h.cpu_access(0, LineAddr(i), AccessKind::Read);
            if r.level == ServiceLevel::L2 {
                l2_hits += 1;
            }
            assert_ne!(r.level, ServiceLevel::OffChip, "line {i} went off-chip");
        }
        assert!(l2_hits > 256, "expected many L2 hits, got {l2_hits}");
    }

    #[test]
    fn discrete_never_probes_remote() {
        let mut h = discrete();
        h.gpu_access(0, LineAddr(7), AccessKind::Write);
        let r = h.cpu_access(0, LineAddr(7), AccessKind::Read);
        assert_eq!(r.level, ServiceLevel::OffChip);
        assert_eq!(h.remote_hits_cpu(), 0);
    }

    #[test]
    fn hetero_cpu_read_hits_gpu_cache() {
        let mut h = hetero();
        h.gpu_access(0, LineAddr(7), AccessKind::Write);
        let r = h.cpu_access(0, LineAddr(7), AccessKind::Read);
        assert_eq!(r.level, ServiceLevel::Remote);
        assert_eq!(h.remote_hits_cpu(), 1);
    }

    #[test]
    fn hetero_write_invalidates_remote_copies() {
        let mut h = hetero();
        h.gpu_access(3, LineAddr(9), AccessKind::Read);
        let r = h.cpu_access(0, LineAddr(9), AccessKind::Write);
        assert_eq!(r.level, ServiceLevel::Remote);
        // GPU's copies are gone; its next access must go L2->remote(CPU).
        let r2 = h.gpu_access(3, LineAddr(9), AccessKind::Read);
        assert_eq!(r2.level, ServiceLevel::Remote);
        assert_eq!(h.remote_hits_gpu(), 1);
    }

    #[test]
    fn hetero_read_probe_downgrades_dirty_owner() {
        let mut h = hetero();
        h.cpu_access(0, LineAddr(5), AccessKind::Write);
        let r = h.gpu_access(2, LineAddr(5), AccessKind::Read);
        assert_eq!(r.level, ServiceLevel::Remote);
        // The CPU keeps its copy, now clean: a DMA flush writes nothing.
        let line = AddrRange::new(LineAddr(5).base(), 128);
        assert_eq!(h.dma_flush_cpu(line), 0);
        let again = h.cpu_access(0, LineAddr(5), AccessKind::Read);
        assert_eq!(again.level, ServiceLevel::L1);
    }

    #[test]
    fn gpu_l2_shared_across_sms() {
        let mut h = discrete();
        h.gpu_access(0, LineAddr(42), AccessKind::Read);
        let r = h.gpu_access(5, LineAddr(42), AccessKind::Read);
        assert_eq!(r.level, ServiceLevel::L2);
    }

    #[test]
    fn dma_flush_reports_dirty_lines() {
        let mut h = discrete();
        h.cpu_access(0, LineAddr(0), AccessKind::Write);
        h.cpu_access(0, LineAddr(1), AccessKind::Read);
        let flushed = h.dma_flush_cpu(AddrRange::new(Addr(0), 4 * 128));
        assert_eq!(flushed, 1);
        // Still present, just clean.
        let r = h.cpu_access(0, LineAddr(0), AccessKind::Read);
        assert_eq!(r.level, ServiceLevel::L1);
    }

    #[test]
    fn dma_invalidate_evicts_cpu_lines() {
        let mut h = discrete();
        h.cpu_access(0, LineAddr(0), AccessKind::Read);
        h.cpu_access(0, LineAddr(1), AccessKind::Read);
        let inv = h.dma_invalidate_cpu(AddrRange::new(Addr(0), 2 * 128));
        assert!(inv >= 2, "at least both L1 lines invalidated, got {inv}");
        let r = h.cpu_access(0, LineAddr(0), AccessKind::Read);
        assert_eq!(r.level, ServiceLevel::OffChip);
    }

    #[test]
    fn flush_gpu_l1s_keeps_l2() {
        let mut h = discrete();
        h.gpu_access(0, LineAddr(8), AccessKind::Read);
        h.flush_gpu_l1s();
        let r = h.gpu_access(0, LineAddr(8), AccessKind::Read);
        assert_eq!(r.level, ServiceLevel::L2);
    }

    #[test]
    fn writebacks_surface_from_l2_evictions() {
        let mut h = discrete();
        // Dirty far more lines than the whole CPU path holds; off-chip
        // writebacks must appear.
        let mut wbs = 0u64;
        for i in 0..10_000 {
            let r = h.cpu_access(0, LineAddr(i), AccessKind::Write);
            wbs += r.offchip_writebacks().count() as u64;
        }
        assert!(wbs > 5_000, "expected thousands of writebacks, got {wbs}");
    }

    #[test]
    fn per_core_l2s_are_private() {
        let mut h = discrete();
        h.cpu_access(0, LineAddr(77), AccessKind::Read);
        // Same line from another core does not hit core 0's caches
        // (discrete system: no probes modeled between CPU cores' private
        // paths; sharing flows through memory).
        let r = h.cpu_access(1, LineAddr(77), AccessKind::Read);
        assert_eq!(r.level, ServiceLevel::OffChip);
    }

    #[test]
    fn stats_aggregate() {
        let mut h = discrete();
        for i in 0..100 {
            h.cpu_access(0, LineAddr(i), AccessKind::Read);
            h.gpu_access((i % 16) as u8, LineAddr(1000 + i), AccessKind::Read);
        }
        assert_eq!(h.cpu_l1_stats().accesses(), 100);
        assert_eq!(h.gpu_l1_stats().accesses(), 100);
        assert_eq!(h.gpu_l2_stats().accesses(), 100);
        assert!(h.cpu_l2_stats().accesses() >= 100);
    }
}
