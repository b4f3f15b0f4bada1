//! Off-chip memory access classification (the paper's §V-C / Fig. 9).
//!
//! Every off-chip transaction is classified by its relationship to the
//! previous off-chip event on the same cache line, measured in pipeline
//! stages:
//!
//! * **Required** — compulsory (first fetch / final writeback) and
//!   long-range reuse spanning multiple pipeline stages.
//! * **W-R spill** — data written back by one stage and fetched by the next:
//!   a producer-consumer hand-off that failed to stay in cache.
//! * **R-R spill** — data read by consecutive stages (shared input) that
//!   had to be refetched.
//! * **R-R contention** — re-fetch of data already read *within the same
//!   stage*: the stage's working set exceeds cache capacity.
//! * **W-R contention** — a writeback whose data is read again in the same
//!   stage: the line left chip before its uses finished.
//!
//! Writebacks are attributed when their matching re-fetch arrives (the pair
//! shares a class); unmatched writebacks at the end of the region of
//! interest are final output writes and count as required.

use heteropipe_mem::{LineAddr, LineTable};

/// The Fig. 9 access classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Compulsory and long-range reuse: cannot be removed without major
    /// restructuring.
    Required,
    /// Producer-consumer spill to the next stage.
    WrSpill,
    /// Shared-input re-fetch in the next stage.
    RrSpill,
    /// Same-stage read-read capacity contention.
    RrContention,
    /// Same-stage writeback-then-read contention.
    WrContention,
}

impl AccessClass {
    /// All classes in the paper's plotting order.
    pub const ALL: [AccessClass; 5] = [
        AccessClass::Required,
        AccessClass::WrSpill,
        AccessClass::RrSpill,
        AccessClass::RrContention,
        AccessClass::WrContention,
    ];

    /// Stable dense index.
    pub fn index(self) -> usize {
        match self {
            AccessClass::Required => 0,
            AccessClass::WrSpill => 1,
            AccessClass::RrSpill => 2,
            AccessClass::RrContention => 3,
            AccessClass::WrContention => 4,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::Required => "required",
            AccessClass::WrSpill => "w-r spill",
            AccessClass::RrSpill => "r-r spill",
            AccessClass::RrContention => "r-r contention",
            AccessClass::WrContention => "w-r contention",
        }
    }
}

/// Counts per access class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    counts: [u64; 5],
}

impl ClassCounts {
    /// Count in one class.
    pub fn get(&self, c: AccessClass) -> u64 {
        self.counts[c.index()]
    }

    /// The raw per-class counts in [`AccessClass::ALL`] order (for
    /// serialization).
    pub fn counts(&self) -> [u64; 5] {
        self.counts
    }

    /// Rebuilds a tally from counts produced by [`counts`](Self::counts).
    pub fn from_counts(counts: [u64; 5]) -> ClassCounts {
        ClassCounts { counts }
    }

    /// Total classified transactions.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of the total in class `c` (0 when empty).
    pub fn fraction(&self, c: AccessClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(c) as f64 / t as f64
        }
    }

    fn add(&mut self, c: AccessClass, n: u64) {
        self.counts[c.index()] += n;
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &ClassCounts) {
        for i in 0..5 {
            self.counts[i] += other.counts[i];
        }
    }
}

/// A line's off-chip history; the default is a line with none.
#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    /// Stage of the last off-chip event on this line.
    stage: u32,
    /// Writebacks not yet paired with a re-fetch.
    pending_writebacks: u32,
    /// Whether the last event was a writeback.
    was_writeback: bool,
    /// Whether the line was ever fetched.
    fetched: bool,
}

/// Streaming classifier over the off-chip interface.
///
/// Feed it every off-chip fetch and writeback in execution order via
/// [`fetch`](Self::fetch) / [`writeback`](Self::writeback), then call
/// [`finish`](Self::finish).
///
/// # Examples
///
/// ```
/// use heteropipe::{AccessClass, OffchipClassifier};
/// use heteropipe_mem::LineAddr;
///
/// let mut c = OffchipClassifier::new();
/// c.writeback(LineAddr(7), 3); // producer stage spills the line
/// c.fetch(LineAddr(7), 4);     // consumer stage fetches it right back
/// let counts = c.finish();
/// assert_eq!(counts.get(AccessClass::WrSpill), 2); // the pair
/// ```
#[derive(Debug)]
pub struct OffchipClassifier {
    lines: LineTable<LineState>,
    counts: ClassCounts,
    /// Maximum stage distance still counted as a spill (paper: 1 = next
    /// stage).
    spill_window: u32,
}

impl Default for OffchipClassifier {
    /// The same as [`new`](Self::new): the paper's next-stage window.
    fn default() -> Self {
        OffchipClassifier::new()
    }
}

impl OffchipClassifier {
    /// A classifier with the paper's next-stage spill window.
    pub fn new() -> Self {
        OffchipClassifier {
            lines: LineTable::new(),
            counts: ClassCounts::default(),
            spill_window: 1,
        }
    }

    /// A classifier with a custom spill window (reuse up to `window` stages
    /// later counts as a spill).
    pub fn with_spill_window(window: u32) -> Self {
        OffchipClassifier {
            spill_window: window,
            ..Self::new()
        }
    }

    /// Records an off-chip fetch of `line` by the stage numbered `stage`.
    pub fn fetch(&mut self, line: LineAddr, stage: u32) {
        let state = self.lines.entry(line.0);
        let class = if !state.fetched && !state.was_writeback {
            // First off-chip event on the line: compulsory.
            None
        } else {
            let dist = stage.saturating_sub(state.stage);
            Some(if state.was_writeback {
                if dist == 0 {
                    AccessClass::WrContention
                } else if dist <= self.spill_window {
                    AccessClass::WrSpill
                } else {
                    AccessClass::Required
                }
            } else if dist == 0 {
                AccessClass::RrContention
            } else if dist <= self.spill_window {
                AccessClass::RrSpill
            } else {
                AccessClass::Required
            })
        };
        match class {
            None => self.counts.add(AccessClass::Required, 1),
            Some(c) => {
                self.counts.add(c, 1);
                // Pair one pending writeback with this fetch: it shares the
                // fetch's class.
                if state.pending_writebacks > 0 {
                    state.pending_writebacks -= 1;
                    self.counts.add(c, 1);
                }
            }
        }
        state.stage = stage;
        state.was_writeback = false;
        state.fetched = true;
    }

    /// Records an off-chip writeback of `line` by the stage numbered
    /// `stage`. Its class is decided by the next fetch of the line (or
    /// `finish`, if none comes).
    pub fn writeback(&mut self, line: LineAddr, stage: u32) {
        let state = self.lines.entry(line.0);
        state.stage = stage;
        state.was_writeback = true;
        state.pending_writebacks += 1;
    }

    /// Closes the ROI: unmatched writebacks are final output writes
    /// (required). Returns the totals.
    pub fn finish(mut self) -> ClassCounts {
        for state in self.lines.values() {
            self.counts
                .add(AccessClass::Required, state.pending_writebacks as u64);
        }
        self.counts
    }

    /// Classified counts so far (not including unmatched writebacks).
    pub fn counts(&self) -> ClassCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn first_fetch_is_compulsory() {
        let mut c = OffchipClassifier::new();
        c.fetch(line(1), 0);
        let counts = c.finish();
        assert_eq!(counts.get(AccessClass::Required), 1);
        assert_eq!(counts.total(), 1);
    }

    #[test]
    fn same_stage_refetch_is_rr_contention() {
        let mut c = OffchipClassifier::new();
        c.fetch(line(1), 2);
        c.fetch(line(1), 2);
        let counts = c.finish();
        assert_eq!(counts.get(AccessClass::RrContention), 1);
        assert_eq!(counts.get(AccessClass::Required), 1);
    }

    #[test]
    fn next_stage_refetch_is_rr_spill() {
        let mut c = OffchipClassifier::new();
        c.fetch(line(1), 2);
        c.fetch(line(1), 3);
        assert_eq!(c.finish().get(AccessClass::RrSpill), 1);
    }

    #[test]
    fn long_range_refetch_is_required() {
        let mut c = OffchipClassifier::new();
        c.fetch(line(1), 0);
        c.fetch(line(1), 5);
        assert_eq!(c.finish().get(AccessClass::Required), 2);
    }

    #[test]
    fn producer_consumer_writeback_pair_is_wr_spill() {
        let mut c = OffchipClassifier::new();
        c.writeback(line(1), 4); // producer spills
        c.fetch(line(1), 5); // consumer re-fetches next stage
        let counts = c.finish();
        // Both the writeback and the fetch count as W-R spill.
        assert_eq!(counts.get(AccessClass::WrSpill), 2);
        assert_eq!(counts.total(), 2);
    }

    #[test]
    fn same_stage_writeback_read_is_wr_contention() {
        let mut c = OffchipClassifier::new();
        c.fetch(line(1), 3);
        c.writeback(line(1), 3);
        c.fetch(line(1), 3);
        let counts = c.finish();
        assert_eq!(counts.get(AccessClass::WrContention), 2);
        assert_eq!(counts.get(AccessClass::Required), 1); // the first fetch
    }

    #[test]
    fn final_writeback_is_required() {
        let mut c = OffchipClassifier::new();
        c.fetch(line(1), 0);
        c.writeback(line(1), 9);
        let counts = c.finish();
        assert_eq!(counts.get(AccessClass::Required), 2);
        assert_eq!(counts.total(), 2);
    }

    #[test]
    fn writeback_without_prior_fetch_then_long_gap() {
        let mut c = OffchipClassifier::new();
        c.writeback(line(1), 0); // GPU-produced data spilled
        c.fetch(line(1), 7); // consumed much later
        let counts = c.finish();
        assert_eq!(counts.get(AccessClass::Required), 2);
    }

    #[test]
    fn default_uses_the_paper_window() {
        let mut c = OffchipClassifier::default();
        c.writeback(line(7), 3);
        c.fetch(line(7), 4);
        assert_eq!(c.finish().get(AccessClass::WrSpill), 2);
    }

    #[test]
    fn spill_window_widens_spills() {
        let mut strict = OffchipClassifier::new();
        strict.writeback(line(1), 0);
        strict.fetch(line(1), 3);
        assert_eq!(strict.finish().get(AccessClass::WrSpill), 0);

        let mut wide = OffchipClassifier::with_spill_window(3);
        wide.writeback(line(1), 0);
        wide.fetch(line(1), 3);
        assert_eq!(wide.finish().get(AccessClass::WrSpill), 2);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut c = OffchipClassifier::new();
        for s in 0..4 {
            for l in 0..100 {
                c.fetch(line(l), s);
            }
        }
        let counts = c.finish();
        let sum: f64 = AccessClass::ALL.iter().map(|&a| counts.fraction(a)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Streaming 100 lines across 4 stages: 100 compulsory, 300 spills.
        assert_eq!(counts.get(AccessClass::RrSpill), 300);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ClassCounts::default();
        a.add(AccessClass::WrSpill, 5);
        let mut b = ClassCounts::default();
        b.add(AccessClass::WrSpill, 3);
        b.add(AccessClass::Required, 2);
        a.merge(&b);
        assert_eq!(a.get(AccessClass::WrSpill), 8);
        assert_eq!(a.total(), 10);
    }

    /// Every event is classified exactly once: total classified equals
    /// fetches + writebacks.
    #[test]
    fn conservation() {
        heteropipe_sim::check::cases(64, 0xC1A55, |g| {
            let events = g.vec(1, 500, |g| (g.u64(0, 50), g.u32(0, 8), g.bool()));
            let mut c = OffchipClassifier::new();
            let mut last_stage = 0u32;
            let mut n = 0u64;
            for (l, stage_jump, is_wb) in events {
                let stage = last_stage.max(stage_jump % 8 + last_stage);
                last_stage = stage;
                if is_wb {
                    c.writeback(line(l), stage);
                } else {
                    c.fetch(line(l), stage);
                }
                n += 1;
            }
            let counts = c.finish();
            assert_eq!(counts.total(), n);
        });
    }
}
