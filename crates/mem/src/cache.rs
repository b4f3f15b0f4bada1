//! Set-associative writeback caches.
//!
//! A functional cache model: it tracks presence, dirtiness, and LRU order,
//! and reports hits, misses, and dirty evictions. Timing is applied by the
//! core models over the aggregate counts.
//!
//! Storage is structure-of-arrays: one flat tag array, one flat LRU array,
//! and a packed dirty bitset, so a set probe is a linear sweep over `ways`
//! adjacent tags instead of a strided walk over per-way structs. Set counts
//! are powers of two, so a line's set and tag are a mask and a shift of its
//! number, and an empty slot holds a tag no line can have and LRU tick 0.
//! The simulator spends most of its functional-model time in [`
//! SetAssocCache::access`], and the tag sweep is the inner loop.

use std::fmt;

use crate::access::AccessKind;
use crate::addr::{AddrRange, LineAddr, LINE_BYTES};

/// Geometry of a cache.
///
/// # Examples
///
/// ```
/// use heteropipe_mem::CacheConfig;
///
/// // The study's GPU-shared L2: 1 MiB, 16-way, 128 B lines.
/// let l2 = CacheConfig::new(1024 * 1024, 16);
/// assert_eq!(l2.sets(), 512);
/// assert_eq!(l2.lines(), 8192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    capacity_bytes: u64,
    ways: u32,
}

impl CacheConfig {
    /// A cache of `capacity_bytes` with `ways`-way associativity and the
    /// study-wide 128 B line size.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is a positive multiple of
    /// `ways * LINE_BYTES` and the resulting set count is a power of two
    /// (as in every Table I cache).
    pub fn new(capacity_bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        assert!(
            capacity_bytes > 0 && capacity_bytes.is_multiple_of(ways as u64 * LINE_BYTES),
            "capacity {capacity_bytes} must be a positive multiple of ways*line"
        );
        let config = CacheConfig {
            capacity_bytes,
            ways,
        };
        assert!(
            config.sets().is_power_of_two(),
            "{} sets ({capacity_bytes} B, {ways} ways) is not a power of two",
            config.sets()
        );
        config
    }

    /// Total capacity in bytes.
    pub const fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Associativity.
    pub const fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub const fn sets(&self) -> u64 {
        self.capacity_bytes / (self.ways as u64 * LINE_BYTES)
    }

    /// Total line slots.
    pub const fn lines(&self) -> u64 {
        self.capacity_bytes / LINE_BYTES
    }
}

/// What happened on a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// A dirty line displaced to make room, which must be written to the
    /// next level down.
    pub writeback: Option<LineAddr>,
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the line present.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines displaced by fills.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; zero when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// A packed per-slot bitset (one bit per line slot).
#[derive(Clone, Default)]
struct SlotBits {
    words: Vec<u64>,
}

impl SlotBits {
    fn zeroed(slots: usize) -> Self {
        SlotBits {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, slot: usize) -> bool {
        self.words[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    #[inline]
    fn set(&mut self, slot: usize, value: bool) {
        let mask = 1u64 << (slot & 63);
        if value {
            self.words[slot >> 6] |= mask;
        } else {
            self.words[slot >> 6] &= !mask;
        }
    }

    fn clear_all(&mut self) {
        self.words.fill(0);
    }
}

/// The tag of an empty slot. A line's tag is its number shifted right by
/// the set bits, and line numbers are byte addresses over [`LINE_BYTES`],
/// so no line has this tag.
const EMPTY: u64 = u64::MAX;

/// A set-associative, write-allocate, writeback cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use heteropipe_mem::{CacheConfig, SetAssocCache, AccessKind, LineAddr};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(1024, 2)); // 8 lines
/// let miss = c.access(LineAddr(0), AccessKind::Read);
/// assert!(!miss.hit);
/// let hit = c.access(LineAddr(0), AccessKind::Write);
/// assert!(hit.hit);
/// assert!(c.contains(LineAddr(0)));
/// ```
pub struct SetAssocCache {
    config: CacheConfig,
    /// `sets - 1`: a line's set is its low bits.
    set_mask: u64,
    /// `log2(sets)`: a line's tag is the rest of its bits.
    set_bits: u32,
    /// Tags, slot-major: set `s` occupies `[s*ways, (s+1)*ways)`; [`EMPTY`]
    /// in an empty slot.
    tags: Vec<u64>,
    /// Last-touch tick per slot (LRU order within a set); 0 in an empty
    /// slot, and at least 1 in a filled one.
    lru: Vec<u64>,
    dirty: SlotBits,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let slots = (sets * config.ways as u64) as usize;
        SetAssocCache {
            config,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            tags: vec![EMPTY; slots],
            lru: vec![0; slots],
            dirty: SlotBits::zeroed(slots),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The first slot of the line's set, and the line's tag.
    #[inline]
    fn set_range(&self, line: LineAddr) -> (usize, u64) {
        let set = (line.0 & self.set_mask) as usize;
        (set * self.config.ways as usize, line.0 >> self.set_bits)
    }

    /// Linear sweep of one set's tag array for a slot holding `tag`.
    #[inline]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        let ways = self.config.ways as usize;
        self.tags[base..base + ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Performs an access, allocating on miss. Returns whether it hit and
    /// any dirty line displaced by the fill.
    pub fn access(&mut self, line: LineAddr, kind: AccessKind) -> CacheOutcome {
        self.tick += 1;
        let (base, tag) = self.set_range(line);
        if let Some(slot) = self.find(base, tag) {
            self.lru[slot] = self.tick;
            if kind.is_write() {
                self.dirty.set(slot, true);
            }
            self.stats.hits += 1;
            return CacheOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        debug_assert_ne!(tag, EMPTY, "{line} collides with the empty tag");
        // Fill: the first empty way (tick 0), else the true-LRU one.
        let ways = self.config.ways as usize;
        let mut victim = base;
        let mut best = u64::MAX;
        for (slot, &t) in self.lru[base..base + ways].iter().enumerate() {
            if t < best {
                best = t;
                victim = base + slot;
            }
        }
        let mut writeback = None;
        if self.dirty.get(victim) {
            let set = line.0 & self.set_mask;
            writeback = Some(LineAddr(self.tags[victim] << self.set_bits | set));
            self.stats.writebacks += 1;
        }
        self.tags[victim] = tag;
        self.dirty.set(victim, kind.is_write());
        self.lru[victim] = self.tick;
        CacheOutcome {
            hit: false,
            writeback,
        }
    }

    /// Whether the line is currently resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        let (base, tag) = self.set_range(line);
        self.find(base, tag).is_some()
    }

    /// Whether the line is resident and dirty.
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        let (base, tag) = self.set_range(line);
        self.find(base, tag)
            .is_some_and(|slot| self.dirty.get(slot))
    }

    /// Invalidates one line if present, returning whether it was dirty
    /// (i.e. a writeback to memory is required).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (base, tag) = self.set_range(line);
        let slot = self.find(base, tag)?;
        self.tags[slot] = EMPTY;
        self.lru[slot] = 0;
        let was_dirty = self.dirty.get(slot);
        self.dirty.set(slot, false);
        Some(was_dirty)
    }

    /// Invalidates every line of `range` (as a DMA transfer does to the CPU
    /// caches in the discrete system). Returns `(lines_invalidated,
    /// dirty_writebacks)`.
    pub fn invalidate_range(&mut self, range: AddrRange) -> (u64, u64) {
        let mut inv = 0;
        let mut dirty = 0;
        for line in range.lines() {
            if let Some(was_dirty) = self.invalidate(line) {
                inv += 1;
                if was_dirty {
                    dirty += 1;
                }
            }
        }
        (inv, dirty)
    }

    /// Marks a resident line clean (after its data has been written back or
    /// transferred to another cache). Returns whether the line is resident.
    pub fn clean(&mut self, line: LineAddr) -> bool {
        let (base, tag) = self.set_range(line);
        let slot = self.find(base, tag);
        if let Some(slot) = slot {
            self.dirty.set(slot, false);
        }
        slot.is_some()
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != EMPTY).count() as u64
    }

    /// Drops all contents. The statistics are kept: they count accesses
    /// over the cache's whole life, across kernel-boundary flushes.
    pub fn flush_all(&mut self) {
        self.tags.fill(EMPTY);
        self.lru.fill(0);
        self.dirty.clear_all();
    }
}

impl fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("config", &self.config)
            .field("occupancy", &self.occupancy())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways = 8 lines.
        SetAssocCache::new(CacheConfig::new(1024, 2))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(64 * 1024, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.lines(), 512);
        assert_eq!(c.capacity_bytes(), 64 * 1024);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn config_rejects_bad_capacity() {
        let _ = CacheConfig::new(1000, 3);
    }

    #[test]
    #[should_panic(expected = "3 sets")]
    fn config_rejects_non_power_of_two_sets() {
        let _ = CacheConfig::new(3 * 16 * 128, 16);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(LineAddr(5), AccessKind::Read).hit);
        assert!(c.access(LineAddr(5), AccessKind::Read).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets). Two ways: 0 and 4 fit.
        c.access(LineAddr(0), AccessKind::Read);
        c.access(LineAddr(4), AccessKind::Read);
        c.access(LineAddr(0), AccessKind::Read); // refresh 0; 4 becomes LRU
        c.access(LineAddr(8), AccessKind::Read); // evicts 4
        assert!(c.contains(LineAddr(0)));
        assert!(!c.contains(LineAddr(4)));
        assert!(c.contains(LineAddr(8)));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        c.access(LineAddr(0), AccessKind::Write);
        c.access(LineAddr(4), AccessKind::Read);
        let out = c.access(LineAddr(8), AccessKind::Read); // evicts dirty 0
        assert_eq!(out.writeback, Some(LineAddr(0)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = tiny();
        c.access(LineAddr(0), AccessKind::Read);
        c.access(LineAddr(4), AccessKind::Read);
        let out = c.access(LineAddr(8), AccessKind::Read);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_marks_dirty_and_clean_clears() {
        let mut c = tiny();
        c.access(LineAddr(3), AccessKind::Write);
        assert!(c.is_dirty(LineAddr(3)));
        c.clean(LineAddr(3));
        assert!(!c.is_dirty(LineAddr(3)));
        assert!(c.contains(LineAddr(3)));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(LineAddr(1), AccessKind::Write);
        c.access(LineAddr(2), AccessKind::Read);
        assert_eq!(c.invalidate(LineAddr(1)), Some(true));
        assert_eq!(c.invalidate(LineAddr(2)), Some(false));
        assert_eq!(c.invalidate(LineAddr(3)), None);
        assert!(!c.contains(LineAddr(1)));
    }

    #[test]
    fn invalidate_range_counts() {
        use crate::addr::Addr;
        let mut c = tiny();
        c.access(LineAddr(0), AccessKind::Write);
        c.access(LineAddr(1), AccessKind::Read);
        // Lines 0..4 = bytes 0..512.
        let (inv, dirty) = c.invalidate_range(AddrRange::new(Addr(0), 512));
        assert_eq!((inv, dirty), (2, 1));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn flush_all_empties() {
        let mut c = tiny();
        for i in 0..8 {
            c.access(LineAddr(i), AccessKind::Write);
        }
        assert!(c.occupancy() > 0);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
    }

    /// The GPU L1 statistics count every access of a run, although the L1s
    /// are flushed at each kernel boundary.
    #[test]
    fn flush_all_keeps_statistics() {
        let mut c = tiny();
        c.access(LineAddr(0), AccessKind::Read);
        c.access(LineAddr(0), AccessKind::Write);
        let before = c.stats();
        c.flush_all();
        assert_eq!(c.stats(), before);
        assert!(!c.access(LineAddr(0), AccessKind::Read).hit);
        assert_eq!(c.stats().accesses(), 3);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for i in 0..1000 {
            c.access(LineAddr(i), AccessKind::Read);
        }
        assert!(c.occupancy() <= c.config().lines());
    }

    #[test]
    fn streaming_larger_than_cache_reuses_nothing() {
        let mut c = tiny();
        // Two passes over 64 lines through an 8-line cache: second pass
        // must miss everywhere (LRU, capacity-bound).
        for _pass in 0..2 {
            for i in 0..64 {
                c.access(LineAddr(i), AccessKind::Read);
            }
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 128);
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = tiny();
        for _pass in 0..3 {
            for i in 0..8 {
                c.access(LineAddr(i), AccessKind::Read);
            }
        }
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().hits, 16);
    }

    /// The cache never reports more writebacks than writes performed,
    /// and occupancy stays bounded.
    #[test]
    fn sanity_under_random_traffic() {
        heteropipe_sim::check::cases(64, 0xCAC4E, |g| {
            let ops = g.vec(1, 500, |g| (g.u64(0, 64), g.bool()));
            let mut c = tiny();
            let mut writes = 0u64;
            for (line, is_write) in ops {
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                if is_write {
                    writes += 1;
                }
                c.access(LineAddr(line), kind);
                assert!(c.occupancy() <= 8);
            }
            assert!(c.stats().writebacks <= writes);
            assert_eq!(c.stats().accesses(), c.stats().hits + c.stats().misses);
        });
    }

    /// SoA model agrees with a naive per-way AoS reference under random
    /// traffic interleaved with invalidations, cleans and flushes:
    /// identical hit/miss/writeback sequences, presence, dirtiness and
    /// occupancy, on `tiny()` and every Table I geometry.
    #[test]
    fn matches_aos_reference() {
        #[derive(Clone)]
        struct Way {
            tag: u64,
            valid: bool,
            dirty: bool,
            lru: u64,
        }
        struct Ref {
            sets: Vec<Way>,
            ways: usize,
            nsets: u64,
            tick: u64,
        }
        impl Ref {
            fn new(config: CacheConfig) -> Self {
                let empty = Way {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    lru: 0,
                };
                Ref {
                    sets: vec![empty; config.lines() as usize],
                    ways: config.ways() as usize,
                    nsets: config.sets(),
                    tick: 0,
                }
            }
            fn slot(&self, line: LineAddr) -> Option<usize> {
                let base = (line.0 % self.nsets) as usize * self.ways;
                let tag = line.0 / self.nsets;
                (base..base + self.ways).find(|&i| self.sets[i].valid && self.sets[i].tag == tag)
            }
            fn access(&mut self, line: LineAddr, write: bool) -> (bool, Option<LineAddr>) {
                self.tick += 1;
                let set = (line.0 % self.nsets) as usize;
                let tag = line.0 / self.nsets;
                let base = set * self.ways;
                for w in 0..self.ways {
                    let s = &mut self.sets[base + w];
                    if s.valid && s.tag == tag {
                        s.lru = self.tick;
                        s.dirty |= write;
                        return (true, None);
                    }
                }
                let mut victim = 0;
                let mut best = u64::MAX;
                for w in 0..self.ways {
                    let s = &self.sets[base + w];
                    if !s.valid {
                        victim = w;
                        break;
                    }
                    if s.lru < best {
                        best = s.lru;
                        victim = w;
                    }
                }
                let s = &mut self.sets[base + victim];
                let wb = if s.valid && s.dirty {
                    Some(LineAddr(s.tag * self.nsets + set as u64))
                } else {
                    None
                };
                s.tag = tag;
                s.valid = true;
                s.dirty = write;
                s.lru = self.tick;
                (false, wb)
            }
            fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
                let i = self.slot(line)?;
                let s = &mut self.sets[i];
                s.valid = false;
                Some(std::mem::take(&mut s.dirty))
            }
            fn clean(&mut self, line: LineAddr) {
                if let Some(i) = self.slot(line) {
                    self.sets[i].dirty = false;
                }
            }
            fn is_dirty(&self, line: LineAddr) -> bool {
                self.slot(line).is_some_and(|i| self.sets[i].dirty)
            }
            fn occupancy(&self) -> u64 {
                self.sets.iter().filter(|s| s.valid).count() as u64
            }
            fn flush_all(&mut self) {
                for s in &mut self.sets {
                    s.valid = false;
                    s.dirty = false;
                }
            }
        }
        let hierarchy = crate::HierarchyConfig::paper_discrete();
        let geometries = [
            *tiny().config(),
            hierarchy.cpu_l1d,
            hierarchy.cpu_l2,
            hierarchy.gpu_l1,
            hierarchy.gpu_l2,
        ];
        for (i, config) in geometries.into_iter().enumerate() {
            let (sets, ways) = (config.sets(), config.ways() as u64);
            heteropipe_sim::check::cases(24, 0x50A0 + i as u64, |g| {
                let mut c = SetAssocCache::new(config);
                let mut r = Ref::new(config);
                // Low line numbers, or ones in the GPU address space's
                // range, whose tags use the high bits.
                let offset = if g.bool() { 0 } else { 1 << 37 };
                // A few sets, each with three times its ways in candidate
                // lines, so fills evict.
                let hot_sets = sets.min(4);
                for _ in 0..g.usize(1, 600) {
                    let set = g.u64(0, hot_sets);
                    let line = LineAddr(offset + set + sets * g.u64(0, 3 * ways));
                    match g.u32(0, 40) {
                        0..=3 => assert_eq!(c.invalidate(line), r.invalidate(line)),
                        4..=7 => {
                            c.clean(line);
                            r.clean(line);
                        }
                        8 => {
                            c.flush_all();
                            r.flush_all();
                        }
                        op => {
                            let kind = if op % 2 == 0 {
                                AccessKind::Write
                            } else {
                                AccessKind::Read
                            };
                            let out = c.access(line, kind);
                            let (hit, wb) = r.access(line, kind.is_write());
                            assert_eq!(out.hit, hit);
                            assert_eq!(out.writeback, wb);
                        }
                    }
                    assert_eq!(c.contains(line), r.slot(line).is_some());
                    assert_eq!(c.is_dirty(line), r.is_dirty(line));
                }
                assert_eq!(c.occupancy(), r.occupancy());
                for set in 0..hot_sets {
                    for t in 0..3 * ways {
                        let line = LineAddr(offset + set + sets * t);
                        assert_eq!(c.contains(line), r.slot(line).is_some());
                        assert_eq!(c.is_dirty(line), r.is_dirty(line));
                    }
                }
            });
        }
    }
}
