//! # heteropipe-serve
//!
//! Simulation-as-a-service: a dependency-free HTTP/1.1 server that fronts
//! the `heteropipe-engine` executor, turning the experiment pipeline into
//! a long-lived service whose content-addressed cache warms across
//! requests and clients.
//!
//! The workspace has no external dependencies, so everything here is
//! hand-rolled on `std`:
//!
//! * [`http`] — request parsing (Content-Length and chunked bodies),
//!   response writing (Content-Length, chunked, or incrementally streamed
//!   via [`http::BodyStream`]), keep-alive;
//! * [`json`] — a total JSON codec whose serialization is deterministic
//!   (insertion-ordered objects, exact integers), so cached runs answer
//!   byte-identically;
//! * [`server`] — one thread per admitted connection and a bounded
//!   number of requests handled at once, with connection limits (503 +
//!   `Retry-After` backpressure), per-request timeouts, graceful drain on
//!   shutdown, and deterministic fault seams on the accept/read/write
//!   paths;
//! * [`breaker`] — a circuit breaker that sheds doomed requests while the
//!   backend is unhealthy (observability routes stay exempt);
//! * [`error`] — the one JSON error envelope every non-2xx response
//!   carries (`{"error":{"code","message"},"request_id"}`);
//! * [`front`] — the request core serve and the cluster coordinator
//!   share: the router, admission, the async-job layer over the journal,
//!   and the shared `/metrics` families, over a small [`front::Backend`]
//!   trait each front door implements;
//! * [`api`] — the single-node backend over the engine (full route
//!   reference in `docs/api.md`): `/healthz`
//!   (plus `/healthz/live` and `/healthz/ready`), `/metrics`,
//!   `/v1/benchmarks`, `POST /v1/runs`, `GET /v1/runs/{key}`,
//!   `GET /v1/runs/{key}/trace`, `POST /v1/sweeps` (batched execution
//!   streamed as NDJSON), `/v1/experiments/{fig3..fig9,table1,table2}`,
//!   and the deprecated `/v1/run` aliases;
//! * [`client`] — a small keep-alive client for tests, CI smoke checks,
//!   load generation, and coordinator→worker calls, with envelope and
//!   NDJSON parsing plus a per-host connection pool ([`ClientPool`]);
//! * [`shutdown`] — SIGINT/SIGTERM notification without `libc`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use heteropipe_engine::Engine;
//! use heteropipe_serve::{api, server::ServerConfig};
//!
//! let engine = Arc::new(Engine::new());
//! let handle = api::serve(ServerConfig::default(), engine).unwrap();
//! println!("listening on http://{}", handle.addr());
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod breaker;
pub mod client;
pub mod error;
pub mod front;
pub mod http;
pub mod jobs;
pub mod json;
pub mod server;
pub mod shutdown;
pub mod tenant;

pub use api::{serve, serve_durable, Api};
pub use breaker::{Admission, BreakerConfig, CircuitBreaker};
pub use client::{ApiError, Client, ClientPool, ClientResponse, PooledClient};
pub use error::envelope;
pub use json::Json;
pub use server::{Handler, Server, ServerConfig, ServerHandle, ServerStats};
pub use tenant::TenantGate;
