//! # heteropipe-sim
//!
//! Discrete-event simulation kernel underpinning the `heteropipe`
//! heterogeneous CPU-GPU processor study.
//!
//! The crate provides three substrates that the rest of the workspace
//! builds on:
//!
//! * [`time`] — picosecond-resolution simulated time ([`Ps`]) and clock
//!   domains ([`ClockDomain`]) for the 3.5 GHz CPU and 700 MHz GPU cores of
//!   the paper's Table I.
//! * [`fluid`] — a max-min-fair fluid bandwidth network ([`FluidNet`]) used
//!   to model contention on PCIe links, DRAM channels, and on-chip
//!   interconnect at task granularity. Its `next_completion` is the
//!   runner's only scheduler: at most three flows run at once (one per
//!   copy engine, CPU and GPU server), so a scan beats any queue.
//! * [`stats`] — counters, histograms, and component activity timelines
//!   ([`Timeline`]) from which run-time breakdowns (paper Figs. 3 and 6) are
//!   derived.
//!
//! # Example
//!
//! ```
//! use heteropipe_sim::{Ps, fluid::{FluidNet, FlowSpec}};
//!
//! let mut net = FluidNet::new();
//! let link = net.add_resource("pcie", 8.0e9); // 8 GB/s
//! let f = net.start_flow(Ps::ZERO, FlowSpec::new(8.0e6).over(link));
//! let (t, done) = net.next_completion().expect("one active flow");
//! assert_eq!(done, f);
//! // 8 MB at 8 GB/s = 1 ms (plus a one-picosecond rounding guard).
//! assert!((t.as_secs_f64() - 1.0e-3).abs() < 1.0e-9);
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod fluid;
pub mod rng;
pub mod stats;
pub mod time;

pub use fluid::{FlowId, FluidNet, ResourceId};
pub use rng::SplitMix64;
pub use stats::{Counter, Histogram, Timeline};
pub use time::{ClockDomain, Ps};
