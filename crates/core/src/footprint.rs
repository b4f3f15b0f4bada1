//! Memory footprint tracking by component set (the paper's Fig. 4).
//!
//! Records which of {copy engine, CPU, GPU} touched each cache line over the
//! region of interest, then reports bytes per exact component subset. The
//! copy version's large "copy-touched" portions and the limited-copy
//! version's shrunken footprint both fall out of this table.

use heteropipe_mem::access::Component;
use heteropipe_mem::{LineAddr, LineTable, LINE_BYTES};

/// Which components touched a line (bitmask over [`Component`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TouchSet(u8);

impl TouchSet {
    /// The empty set.
    pub const EMPTY: TouchSet = TouchSet(0);

    /// The set containing exactly `c`.
    pub fn of(c: Component) -> TouchSet {
        TouchSet(1 << c.index())
    }

    /// This set with `c` added.
    pub fn with(self, c: Component) -> TouchSet {
        TouchSet(self.0 | (1 << c.index()))
    }

    /// Whether `c` is in the set.
    pub fn contains(self, c: Component) -> bool {
        self.0 & (1 << c.index()) != 0
    }

    /// The raw component bitmask (for serialization).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds a set from a raw bitmask produced by [`bits`](Self::bits).
    pub fn from_bits(bits: u8) -> TouchSet {
        TouchSet(bits)
    }

    /// All seven non-empty subsets, in a stable report order: single
    /// components first, then pairs, then all three.
    pub fn all_subsets() -> [TouchSet; 7] {
        let c = TouchSet::of(Component::Copy);
        let p = TouchSet::of(Component::Cpu);
        let g = TouchSet::of(Component::Gpu);
        [
            c,
            p,
            g,
            c.with(Component::Cpu),
            c.with(Component::Gpu),
            p.with(Component::Gpu),
            c.with(Component::Cpu).with(Component::Gpu),
        ]
    }

    /// A label like "Copy+GPU".
    pub fn label(self) -> String {
        let mut parts = Vec::new();
        for c in Component::ALL {
            if self.contains(c) {
                parts.push(c.to_string());
            }
        }
        if parts.is_empty() {
            "none".to_owned()
        } else {
            parts.join("+")
        }
    }
}

/// Accumulates line touches per component.
#[derive(Debug, Default)]
pub struct FootprintTracker {
    /// Touch set per line number; [`TouchSet::EMPTY`] for untouched lines.
    lines: LineTable<TouchSet>,
}

impl FootprintTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        FootprintTracker::default()
    }

    /// Records that `component` touched `line`.
    pub fn touch(&mut self, component: Component, line: LineAddr) {
        let e = self.lines.entry(line.0);
        *e = e.with(component);
    }

    /// Sets of the touched lines.
    fn touched(&self) -> impl Iterator<Item = TouchSet> + '_ {
        self.lines
            .values()
            .copied()
            .filter(|&t| t != TouchSet::EMPTY)
    }

    /// Total distinct bytes touched by anyone.
    pub fn total_bytes(&self) -> u64 {
        self.touched().count() as u64 * LINE_BYTES
    }

    /// Bytes touched by exactly the subset `s` (and no other component).
    pub fn bytes_exactly(&self, s: TouchSet) -> u64 {
        self.touched().filter(|&t| t == s).count() as u64 * LINE_BYTES
    }

    /// Bytes touched by `c` (alone or with others).
    pub fn bytes_touched_by(&self, c: Component) -> u64 {
        self.touched().filter(|t| t.contains(c)).count() as u64 * LINE_BYTES
    }

    /// The full exact-subset breakdown in [`TouchSet::all_subsets`] order.
    pub fn breakdown(&self) -> Vec<(TouchSet, u64)> {
        let mut lines = [0u64; 8];
        for t in self.touched() {
            lines[t.0 as usize] += 1;
        }
        TouchSet::all_subsets()
            .into_iter()
            .map(|s| (s, lines[s.0 as usize] * LINE_BYTES))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touches_accumulate_per_line() {
        let mut f = FootprintTracker::new();
        f.touch(Component::Copy, LineAddr(1));
        f.touch(Component::Gpu, LineAddr(1));
        f.touch(Component::Cpu, LineAddr(2));
        assert_eq!(f.total_bytes(), 2 * LINE_BYTES);
        let copy_gpu = TouchSet::of(Component::Copy).with(Component::Gpu);
        assert_eq!(f.bytes_exactly(copy_gpu), LINE_BYTES);
        assert_eq!(f.bytes_exactly(TouchSet::of(Component::Cpu)), LINE_BYTES);
        assert_eq!(f.bytes_touched_by(Component::Gpu), LINE_BYTES);
    }

    #[test]
    fn breakdown_partitions_total() {
        let mut f = FootprintTracker::new();
        for i in 0..100 {
            f.touch(Component::Copy, LineAddr(i));
        }
        for i in 0..60 {
            f.touch(Component::Gpu, LineAddr(i));
        }
        for i in 0..10 {
            f.touch(Component::Cpu, LineAddr(i));
        }
        let total: u64 = f.breakdown().into_iter().map(|(_, b)| b).sum();
        assert_eq!(total, f.total_bytes());
        // 40 lines copy-only, 50 copy+gpu, 10 all three.
        assert_eq!(
            f.bytes_exactly(TouchSet::of(Component::Copy)),
            40 * LINE_BYTES
        );
    }

    #[test]
    fn labels() {
        assert_eq!(TouchSet::of(Component::Copy).label(), "Copy");
        assert_eq!(
            TouchSet::of(Component::Cpu).with(Component::Gpu).label(),
            "CPU+GPU"
        );
        assert_eq!(TouchSet::EMPTY.label(), "none");
        assert_eq!(TouchSet::all_subsets().len(), 7);
    }

    #[test]
    fn idempotent_touch() {
        let mut f = FootprintTracker::new();
        for _ in 0..5 {
            f.touch(Component::Gpu, LineAddr(7));
        }
        assert_eq!(f.total_bytes(), LINE_BYTES);
    }
}
