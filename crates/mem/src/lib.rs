//! # heteropipe-mem
//!
//! Memory-system substrate for the `heteropipe` heterogeneous CPU-GPU
//! processor study: everything between a core's load/store interface and the
//! DRAM pins of the paper's Table I systems.
//!
//! * [`addr`] — address, cache-line (128 B), and page (4 KiB) newtypes plus
//!   contiguous ranges.
//! * [`alloc`] — bump allocation of buffer ranges in the distinct CPU, GPU,
//!   and shared physical address spaces, with the (mis)alignment behaviour
//!   the paper observes for CPU-GPU-shared allocations.
//! * [`access`] — the access vocabulary: who (CPU core, GPU SM, copy
//!   engine), what (read/write), and where.
//! * [`cache`] — set-associative writeback caches with LRU replacement.
//! * [`hierarchy`] — composed CPU-side (per-core L1D + private L2) and
//!   GPU-side (per-SM L1 + shared L2) hierarchies, with optional coherent
//!   cross-probes between the two sides for the heterogeneous processor.
//! * [`dram`], [`pcie`], [`xbar`] — bandwidth/latency models of the DDR3,
//!   GDDR5, PCIe 2.0, and on-chip switch components.
//! * [`page`] — page table and the CPU-handled GPU page-fault model of the
//!   heterogeneous processor.
//!
//! The caches are *functional*: they answer hit/miss and produce evictions
//! but carry no timing. Timing is applied at stage granularity by the
//! `heteropipe-cpu` / `heteropipe-gpu` models over the counts this crate
//! produces, which is exactly the granularity at which the paper reasons.

#![warn(missing_docs)]

pub mod access;
pub mod addr;
pub mod alloc;
pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod page;
pub mod pcie;
pub mod xbar;

pub use access::{AccessKind, Requester};
pub use addr::{Addr, AddrRange, LineAddr, PageAddr, LINE_BYTES, PAGE_BYTES};
pub use alloc::{AddressSpace, Allocator};
pub use cache::{CacheConfig, CacheStats, SetAssocCache};
pub use hierarchy::{AccessResult, ChipHierarchy, HierarchyConfig, ServiceLevel};
pub use page::{PageTable, TouchOutcome};
