//! # heteropipe-obs
//!
//! The workspace's observability backbone: every layer (engine, serve, the
//! harness binaries, the simulator's trace exporter) reports through the
//! primitives in this crate, so a single run can be attributed end to end —
//! which HTTP request asked for it, how long it waited, whether the cache
//! answered, and what the simulated components did picosecond by
//! picosecond. Everything is `std`-only, matching the workspace's
//! zero-dependency budget.
//!
//! * [`registry`] — a thread-safe metric registry (counters, gauges,
//!   histograms backed by [`heteropipe_sim::Histogram`]) with Prometheus
//!   text-format exposition;
//! * [`expfmt`] — an in-tree validator for that exposition format, used by
//!   the CI smoke check to assert `/metrics` actually parses;
//! * [`log`] — a leveled JSON-lines structured logger, configured through
//!   the `HETEROPIPE_LOG` environment variable, with a capture sink for
//!   tests;
//! * [`chrome`] — a Chrome-trace (`chrome://tracing` / Perfetto) JSON
//!   event builder plus the full-control-range JSON string escaper shared
//!   by the logger and the trace exporters;
//! * [`span`] — request correlation ids, wall-clock phase timers for the
//!   engine's job lifecycle (queue wait → cache probe → execute →
//!   persist), and the bounded [`span::TraceStore`] that serves
//!   `GET /v1/run/{key}/trace`;
//! * [`fifo`] — the bounded, insertion-ordered [`FifoMap`] every keyed
//!   store in the workspace keeps its entries in;
//! * [`profile`] — the always-on hot-path phase profiler: atomic-counter
//!   wall-time attribution for the sim event loop and engine execute
//!   path, exposed as `/metrics` histograms and the `GET
//!   /v1/debug/profile` snapshot.

#![warn(missing_docs)]

pub mod chrome;
pub mod expfmt;
pub mod fifo;
pub mod log;
pub mod profile;
pub mod registry;
pub mod span;

pub use chrome::{json_escape, TraceBuilder};
pub use fifo::FifoMap;
pub use log::Level;
pub use profile::{PhaseId, PhaseSnapshot};
pub use registry::{Counter, Gauge, HistogramHandle, MetricRegistry};
pub use span::{new_request_id, valid_request_id, JobTrace, Phase, PhaseTimer, TraceStore};
