#![warn(missing_docs)]
//! Sharded coordinator/worker execution for heteropipe.
//!
//! A cluster is a static set of workers — each an ordinary
//! `heteropipe-serve` HTTP server over its own engine and disk cache —
//! fronted by one coordinator speaking the same `/v1` API. The
//! coordinator owns no engine: it places run keys on workers by
//! rendezvous hashing ([`ring`]), coalesces concurrent identical
//! requests (the engine's [`heteropipe_engine::SingleFlight`]), fans
//! sweeps out shard-wise and merges the per-worker NDJSON streams back
//! into one deterministic stream, and treats every worker's disk cache
//! as a cluster-wide **third cache tier**: before executing anywhere it
//! asks the owning shard whether the record already exists
//! ([`coordinator`]).
//!
//! The cache hierarchy a cluster client sees, cheapest first:
//!
//! 1. worker memory cache (engine tier 1)
//! 2. worker disk cache (engine tier 2)
//! 3. **peer disk caches via the coordinator's owner probe (tier 3)**
//! 4. execution
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
