#![warn(missing_docs)]
//! Sharded coordinator/worker execution for heteropipe.
//!
//! A cluster is a static set of workers — each an ordinary
//! `heteropipe-serve` HTTP server over its own engine and disk cache —
//! fronted by one coordinator speaking the same `/v1` API. The
//! coordinator owns no engine: it places run keys on workers by
//! rendezvous hashing ([`ring`]), coalesces concurrent identical
//! requests (the engine's [`heteropipe_engine::SingleFlight`]), and fans
//! sweeps out shard-wise and merges the per-worker NDJSON streams back
//! into one deterministic stream ([`coordinator`]).
//!
//! A key has one owner, so the cluster keeps one copy of each record and
//! one lookup path for it, cheapest first: the owner's memory cache
//! (engine tier 1), its disk cache (engine tier 2), then execution on the
//! owner. The coordinator sends each run, and each sweep shard, to the
//! owner in one call and lets the owner's engine answer.
//!
//! Placement is deterministic and records carry no timing, so a sweep
//! merged across N workers — even one interrupted by a worker death and
//! rehashed mid-flight — is byte-identical to the same sweep on a single
//! node. `docs/cluster.md` covers the topology and failure semantics.

pub mod coordinator;
pub mod ring;
pub mod stitch;

pub use coordinator::{serve_cluster, serve_cluster_durable, ClusterConfig, Coordinator};
pub use ring::WorkerRing;
