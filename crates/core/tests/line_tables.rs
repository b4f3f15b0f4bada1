//! The per-line state kept in `LineTable`s — the footprint tracker, the
//! off-chip classifier and the page table — agrees with map-based
//! references on every public accessor, for keys below the CPU address
//! space, at both address-space bases, and across chunk boundaries.

use std::collections::{HashMap, HashSet};

use heteropipe::{AccessClass, ClassCounts, FootprintTracker, OffchipClassifier, TouchSet};
use heteropipe_mem::access::Component;
use heteropipe_mem::{
    Addr, AddrRange, AddressSpace, Allocator, LineAddr, LineTable, PageTable, LINE_BYTES,
    PAGE_BYTES,
};
use heteropipe_sim::check::{cases, Gen};

/// Byte address zero and the first allocation of each address space.
fn byte_bases() -> [u64; 3] {
    let mut a = Allocator::new();
    [
        0,
        a.alloc(AddressSpace::Cpu, 1, true).start().0,
        a.alloc(AddressSpace::Gpu, 1, true).start().0,
    ]
}

/// A key near `bases`: within a few entries of a chunk boundary, or
/// anywhere in the first three chunks.
fn key(g: &mut Gen, bases: &[u64]) -> u64 {
    let base = bases[g.usize(0, bases.len())];
    let boundary = base + LineTable::<u8>::CHUNK * g.u64(0, 3);
    if g.bool() {
        boundary.saturating_sub(8) + g.u64(0, 16)
    } else {
        base + g.u64(0, 3 * LineTable::<u8>::CHUNK)
    }
}

#[test]
fn footprint_matches_map_reference() {
    let bases = byte_bases().map(|b| Addr(b).line().0);
    cases(48, 0xF007, |g| {
        let mut f = FootprintTracker::new();
        let mut r: HashMap<u64, TouchSet> = HashMap::new();
        for _ in 0..g.usize(1, 400) {
            let c = Component::ALL[g.usize(0, 3)];
            let line = key(g, &bases);
            f.touch(c, LineAddr(line));
            let e = r.entry(line).or_insert(TouchSet::EMPTY);
            *e = e.with(c);
        }
        let lines = |keep: &dyn Fn(TouchSet) -> bool| {
            r.values().filter(|&&t| keep(t)).count() as u64 * LINE_BYTES
        };
        assert_eq!(f.total_bytes(), r.len() as u64 * LINE_BYTES);
        for c in Component::ALL {
            assert_eq!(f.bytes_touched_by(c), lines(&|t| t.contains(c)));
        }
        let want: Vec<(TouchSet, u64)> = TouchSet::all_subsets()
            .into_iter()
            .map(|s| (s, lines(&|t| t == s)))
            .collect();
        assert_eq!(f.breakdown(), want);
        for (s, bytes) in want {
            assert_eq!(f.bytes_exactly(s), bytes);
        }
        assert_eq!(f.bytes_exactly(TouchSet::EMPTY), 0);
    });
}

/// The classifier as it was first written, over a `HashMap`.
struct MapClassifier {
    lines: HashMap<u64, (u32, bool, u32, i64)>,
    counts: [u64; 5],
    spill_window: u32,
}

impl MapClassifier {
    fn fetch(&mut self, line: u64, stage: u32) {
        let (last, was_wb, pending, last_fetch) =
            self.lines.entry(line).or_insert((stage, false, 0, -1));
        let class = if *last_fetch < 0 && !*was_wb && *last == stage {
            None
        } else {
            let dist = stage.saturating_sub(*last);
            Some(match (*was_wb, dist) {
                (true, 0) => AccessClass::WrContention,
                (true, d) if d <= self.spill_window => AccessClass::WrSpill,
                (false, 0) => AccessClass::RrContention,
                (false, d) if d <= self.spill_window => AccessClass::RrSpill,
                _ => AccessClass::Required,
            })
        };
        match class {
            None => self.counts[AccessClass::Required.index()] += 1,
            Some(c) => {
                self.counts[c.index()] += 1;
                if *pending > 0 {
                    *pending -= 1;
                    self.counts[c.index()] += 1;
                }
            }
        }
        *last = stage;
        *was_wb = false;
        *last_fetch = stage as i64;
    }

    fn writeback(&mut self, line: u64, stage: u32) {
        let (last, was_wb, pending, _) = self.lines.entry(line).or_insert((stage, true, 0, -1));
        *last = stage;
        *was_wb = true;
        *pending += 1;
    }

    fn finish(mut self) -> ClassCounts {
        for &(_, _, pending, _) in self.lines.values() {
            self.counts[AccessClass::Required.index()] += pending as u64;
        }
        ClassCounts::from_counts(self.counts)
    }
}

#[test]
fn classifier_matches_map_reference() {
    let bases = byte_bases().map(|b| Addr(b).line().0);
    cases(48, 0xC1A5, |g| {
        let spill_window = g.u32(0, 4);
        let mut c = OffchipClassifier::with_spill_window(spill_window);
        let mut r = MapClassifier {
            lines: HashMap::new(),
            counts: [0; 5],
            spill_window,
        };
        // Few distinct lines, so most events revisit one.
        let lines = g.vec(1, 40, |g| key(g, &bases));
        for _ in 0..g.usize(1, 400) {
            let line = lines[g.usize(0, lines.len())];
            let stage = g.u32(0, 8);
            if g.bool() {
                c.writeback(LineAddr(line), stage);
                r.writeback(line, stage);
            } else {
                c.fetch(LineAddr(line), stage);
                r.fetch(line, stage);
            }
            assert_eq!(c.counts().counts(), r.counts);
        }
        assert_eq!(c.finish(), r.finish());
    });
}

#[test]
fn page_table_matches_set_reference() {
    let bases = byte_bases().map(|b| Addr(b).page().0);
    cases(48, 0x9A6E, |g| {
        let mut pt = PageTable::new();
        let mut mapped: HashSet<u64> = HashSet::new();
        let mut faults = 0u64;
        for _ in 0..g.usize(1, 300) {
            let page = key(g, &bases);
            let range = AddrRange::new(
                Addr(page * PAGE_BYTES + g.u64(0, PAGE_BYTES)),
                g.u64(1, 6 * PAGE_BYTES),
            );
            match g.u32(0, 4) {
                0 => {
                    pt.map_range(range);
                    mapped.extend(range.pages().map(|p| p.0));
                }
                1 | 2 => {
                    let fresh = mapped.insert(page);
                    faults += u64::from(fresh);
                    let p = Addr(page * PAGE_BYTES).page();
                    assert_eq!(pt.touch(p).is_fault(), fresh);
                }
                _ => {
                    let unmapped = range.pages().filter(|p| !mapped.contains(&p.0)).count();
                    assert_eq!(pt.unmapped_pages(range), unmapped as u64);
                }
            }
            let p = Addr(page * PAGE_BYTES).page();
            assert_eq!(pt.is_mapped(p), mapped.contains(&page));
        }
        assert_eq!(pt.mapped_count(), mapped.len() as u64);
        assert_eq!(pt.fault_count(), faults);
    });
}
