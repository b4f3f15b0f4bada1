//! Page table and the CPU-handled GPU page-fault model.
//!
//! In the discrete system the GPU's memory is mapped by a GPU-specific
//! allocator before kernels run, so GPU accesses never fault. In the
//! heterogeneous processor CPU and GPU share one page table; a GPU access to
//! an unmapped page raises an interrupt to the CPU, which maps the page and
//! returns — serializing would-be-parallel GPU accesses (paper §III-D and
//! the Fig. 6 discussion: a geomean ~9% GPU slowdown, concentrated in
//! benchmarks whose GPU kernels write large never-touched allocations).

use crate::addr::{AddrRange, PageAddr};
use crate::line_table::LineTable;

/// Result of touching a page through the page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The page was already mapped; no fault.
    Mapped,
    /// The page was unmapped; a fault fired and it is now mapped.
    Faulted,
}

impl TouchOutcome {
    /// Whether this touch faulted.
    pub const fn is_fault(self) -> bool {
        matches!(self, TouchOutcome::Faulted)
    }
}

/// A single-address-space page table tracking which pages are mapped.
///
/// # Examples
///
/// ```
/// use heteropipe_mem::{PageTable, AddrRange, Addr, TouchOutcome};
///
/// let mut pt = PageTable::new();
/// let buf = AddrRange::new(Addr(0), 8192);
/// assert_eq!(pt.touch(Addr(0).page()), TouchOutcome::Faulted);
/// assert_eq!(pt.touch(Addr(0).page()), TouchOutcome::Mapped);
/// pt.map_range(buf);
/// assert_eq!(pt.touch(Addr(4096).page()), TouchOutcome::Mapped);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Mapped bit per page number.
    mapped: LineTable<bool>,
    faults: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Eagerly maps every page of `range` (e.g. CPU-initialized input data,
    /// or discrete-GPU allocations mapped by the GPU allocator).
    pub fn map_range(&mut self, range: AddrRange) {
        for p in range.pages() {
            *self.mapped.entry(p.0) = true;
        }
    }

    /// Whether `page` is mapped.
    pub fn is_mapped(&self, page: PageAddr) -> bool {
        self.mapped.get(page.0)
    }

    /// Touches a page: maps it if unmapped and reports whether a fault
    /// fired.
    pub fn touch(&mut self, page: PageAddr) -> TouchOutcome {
        let mapped = self.mapped.entry(page.0);
        if *mapped {
            TouchOutcome::Mapped
        } else {
            *mapped = true;
            self.faults += 1;
            TouchOutcome::Faulted
        }
    }

    /// Number of faults taken so far.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Number of pages a sweep of `range` would fault on right now,
    /// without mapping them.
    pub fn unmapped_pages(&self, range: AddrRange) -> u64 {
        range.pages().filter(|p| !self.is_mapped(*p)).count() as u64
    }

    /// Total mapped pages.
    pub fn mapped_count(&self) -> u64 {
        self.mapped.values().filter(|&&m| m).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    #[test]
    fn first_touch_faults_once() {
        let mut pt = PageTable::new();
        let p = Addr(12345).page();
        assert!(pt.touch(p).is_fault());
        assert!(!pt.touch(p).is_fault());
        assert_eq!(pt.fault_count(), 1);
    }

    #[test]
    fn map_range_prevents_faults() {
        let mut pt = PageTable::new();
        let r = AddrRange::new(Addr(0), 16384);
        pt.map_range(r);
        assert_eq!(pt.unmapped_pages(r), 0);
        for p in r.pages() {
            assert_eq!(pt.touch(p), TouchOutcome::Mapped);
        }
        assert_eq!(pt.fault_count(), 0);
        assert_eq!(pt.mapped_count(), 4);
    }

    #[test]
    fn unmapped_pages_counts_without_mapping() {
        let mut pt = PageTable::new();
        let r = AddrRange::new(Addr(0), 16384);
        pt.touch(Addr(0).page());
        assert_eq!(pt.unmapped_pages(r), 3);
        assert_eq!(pt.unmapped_pages(r), 3); // still 3: not a mutation
        assert!(pt.is_mapped(Addr(0).page()));
        assert!(!pt.is_mapped(Addr(4096).page()));
    }
}
