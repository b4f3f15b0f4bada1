//! The HTTP API over the engine: health, metrics (JSON and Prometheus
//! text format), the benchmark catalog, resource-oriented runs with
//! retrievable per-run traces, batched sweeps streamed as NDJSON, and
//! whole-experiment renders. The full route reference, error envelope
//! schema, and deprecation policy live in `docs/api.md`.
//!
//! Responses are built from [`crate::json::Json`] values whose object keys
//! are emitted in insertion order, and [`heteropipe::RunReport`] is
//! float-free, so a `POST /v1/runs` answered from the cache is
//! byte-identical to the cold response that populated it. Every run
//! response carries the run's content address in `X-Run-Key`; feeding it
//! back to `GET /v1/runs/{key}` returns the cached report and
//! `GET /v1/runs/{key}/trace` the job's Chrome-trace timeline, stamped
//! with the originating request's correlation id. `POST /v1/sweeps`
//! executes a whole batch through the engine's dedup + single-flight
//! pipeline, streaming one NDJSON record per entry in completion order.
//! `POST /v1/workflows` runs a whole task graph — a built-in figure
//! graph by name or an inline sweep-stage list — through the
//! `heteropipe-flow` DAG runner, streaming one NDJSON stage-completion
//! event per stage; `GET /v1/workflows/{key}` returns the journaled
//! result (see docs/workflows.md).
//! The pre-redesign routes `POST /v1/run` and `GET /v1/run/{key}/trace`
//! remain as deprecated aliases answering identically to their canonical
//! forms, plus a `Deprecation` header.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use heteropipe::experiments::{characterize_all_with, fig3, fig456, fig78, fig9, tables};
use heteropipe::{AccessClass, Executor, JobSpec, Organization, Platform, RunReport, SystemConfig};
use heteropipe_engine::{run_key, sweep_key, Engine, EngineError, Journal, RunKey, SweepRecord};
use heteropipe_faults::Injector;
use heteropipe_flow::{
    figures, FlowRunner, Stage, StageEvent, StageKind, StageValue, TaskGraph, WorkflowResult,
};
use heteropipe_obs::log as obs_log;
use heteropipe_obs::MetricRegistry;
use heteropipe_workloads::{registry, Pipeline, Scale, Workload};

use crate::breaker::CircuitBreaker;
use crate::error::envelope;
use crate::http::{BodyStream, Request, Response};
use crate::jobs::{self, AsyncJob, AsyncJobs, JobState};
use crate::json::Json;
use crate::server::{Handler, ServerConfig, ServerStats};
use crate::server::{Server, ServerHandle};
use crate::tenant::{Admit, TenantGate};

/// Most entries accepted in one `POST /v1/sweeps` batch; larger sweeps
/// are rejected with `413 payload_too_large` so a single request cannot
/// hold a request permit indefinitely.
pub const MAX_SWEEP_JOBS: usize = 512;

/// Most stages accepted in one inline `POST /v1/workflows` graph; the
/// built-in named graphs are exempt (the largest, `repro_all`, defines
/// the practical ceiling). Total sweep jobs across every inline stage
/// share the [`MAX_SWEEP_JOBS`] cap.
pub const MAX_WORKFLOW_STAGES: usize = 32;

/// The handler implementing the heteropipe-serve routes. Share it via
/// `Arc`; every connection thread dispatches through the same instance and
/// the same underlying [`Engine`].
pub struct Api {
    engine: Arc<Engine>,
    flow: Arc<FlowRunner>,
    stats: OnceLock<Arc<ServerStats>>,
    breaker: OnceLock<Arc<CircuitBreaker>>,
    server_faults: OnceLock<Arc<Injector>>,
    journal: OnceLock<Arc<Journal>>,
    async_jobs: AsyncJobs,
    tenants: OnceLock<Arc<TenantGate>>,
    deadline_exceeded: AtomicU64,
    /// Rendered report-JSON bodies keyed by run key. The key is a content
    /// address and `report_json` is deterministic, so a memoized body is
    /// immutable; warm `GET /v1/runs/{key}` serves it without touching
    /// the record codec at all (see [`Api::run_report`]).
    report_bodies: Mutex<HashMap<u128, Arc<Vec<u8>>>>,
}

/// Most rendered report bodies [`Api::run_report`] memoizes before the
/// map is cleared wholesale (reports are a few KiB each, so this bounds
/// the memo near 100 MiB worst case).
const MAX_MEMOIZED_BODIES: usize = 8192;

impl Api {
    /// An API over `engine`.
    pub fn new(engine: Arc<Engine>) -> Arc<Api> {
        let flow = Arc::new(FlowRunner::new(Arc::clone(&engine)));
        Arc::new(Api {
            engine,
            flow,
            stats: OnceLock::new(),
            breaker: OnceLock::new(),
            server_faults: OnceLock::new(),
            journal: OnceLock::new(),
            async_jobs: AsyncJobs::new(),
            tenants: OnceLock::new(),
            deadline_exceeded: AtomicU64::new(0),
            report_bodies: Mutex::new(HashMap::new()),
        })
    }

    /// The engine this API executes against.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The workflow runner behind `POST /v1/workflows`.
    pub fn flow(&self) -> &Arc<FlowRunner> {
        &self.flow
    }

    /// Wires in the server's own counters so `/metrics` can report them.
    /// Called by [`serve`]; later calls are ignored.
    pub fn attach_stats(&self, stats: Arc<ServerStats>) {
        let _ = self.stats.set(stats);
    }

    /// Wires in the server's circuit breaker so `/healthz/ready` and
    /// `/metrics` can report it. Called by [`serve`]; later calls ignored.
    pub fn attach_breaker(&self, breaker: Arc<CircuitBreaker>) {
        let _ = self.breaker.set(breaker);
    }

    /// Wires in the server's fault injector so `/metrics` can export its
    /// fired-fault tallies. Called by [`serve`]; later calls ignored.
    pub fn attach_faults(&self, faults: Arc<Injector>) {
        let _ = self.server_faults.set(faults);
    }

    /// Wires in the write-ahead journal enabling `?async=1` submission
    /// and crash-resume. Called by [`serve_durable`]; later calls ignored.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        let _ = self.journal.set(journal);
    }

    /// Wires in the per-tenant admission gate. [`serve`] builds it from
    /// `HETEROPIPE_TENANTS`; tests attach a hand-parsed gate directly.
    /// Later calls ignored.
    pub fn attach_tenants(&self, tenants: Arc<TenantGate>) {
        let _ = self.tenants.set(tenants);
    }

    /// The write-ahead journal, when one is attached.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.get()
    }
}

/// Binds and starts a server running [`Api`] over `engine`. The tenant
/// admission gate is read from `HETEROPIPE_TENANTS`; a malformed plan
/// fails startup rather than admitting everyone silently.
pub fn serve(cfg: ServerConfig, engine: Arc<Engine>) -> std::io::Result<ServerHandle> {
    serve_inner(cfg, engine, None)
}

/// Like [`serve`], but with a write-ahead journal: `?async=1` submission
/// is enabled, and any sweep or workflow the journal shows as interrupted
/// (intent logged, segment unsealed) is resumed on background threads
/// before the listener accepts traffic. Thanks to the result cache,
/// resume re-executes only the jobs whose records never made it to the
/// journal.
pub fn serve_durable(
    cfg: ServerConfig,
    engine: Arc<Engine>,
    journal: Arc<Journal>,
) -> std::io::Result<ServerHandle> {
    serve_inner(cfg, engine, Some(journal))
}

fn serve_inner(
    cfg: ServerConfig,
    engine: Arc<Engine>,
    journal: Option<Arc<Journal>>,
) -> std::io::Result<ServerHandle> {
    let api = Api::new(engine);
    api.attach_faults(Arc::clone(&cfg.faults));
    let tenants = TenantGate::from_env()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    api.attach_tenants(Arc::new(tenants));
    if let Some(journal) = journal {
        api.attach_journal(journal);
    }
    let server = Server::bind(cfg, api.clone())?;
    api.attach_stats(server.stats());
    api.attach_breaker(server.breaker());
    let handle = server.start();
    api.resume_incomplete();
    Ok(handle)
}

impl Handler for Api {
    fn handle(&self, req: &Request) -> Response {
        if let Some(refused) = self.admission(req) {
            return refused;
        }
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz" | "/healthz/live") => health(),
            ("GET", "/healthz/ready") => self.ready(req),
            ("GET", "/metrics") => self.metrics(req),
            ("GET", "/v1/benchmarks") => benchmarks(),
            ("GET", "/v1/debug/profile") => profile_snapshot(),
            ("POST", "/v1/runs") => self.run(req),
            // Deprecated alias for `POST /v1/runs` (see docs/api.md).
            ("POST", "/v1/run") => deprecated(self.run(req), "/v1/runs"),
            ("POST", "/v1/sweeps") => self.sweeps(req),
            ("POST", "/v1/workflows") => self.workflows(req),
            (_, path) if path.starts_with("/v1/workflows/") => {
                let key = &path["/v1/workflows/".len()..];
                if req.method == "GET" {
                    self.workflow_lookup(req, key)
                } else {
                    method_not_allowed(req, "GET")
                }
            }
            (_, path) if path.starts_with("/v1/runs/") => {
                self.run_resource(req, &path["/v1/runs/".len()..], false)
            }
            // A sweep's retained trace lives under the sweep key the
            // `X-Sweep-Key` response header reported; workers and the
            // cluster coordinator expose the same shape.
            (_, path) if path.starts_with("/v1/sweeps/") => {
                self.sweep_resource(req, &path["/v1/sweeps/".len()..])
            }
            // Deprecated alias prefix for `/v1/runs/{key}/trace`.
            (_, path) if path.starts_with("/v1/run/") => {
                self.run_resource(req, &path["/v1/run/".len()..], true)
            }
            ("GET", "/v1/experiments") => experiments(),
            ("GET", path) if path.starts_with("/v1/experiments/") => {
                experiment_lookup(req, &path["/v1/experiments/".len()..])
            }
            ("POST", path) if path.starts_with("/v1/experiments/") => {
                self.experiment(req, &path["/v1/experiments/".len()..])
            }
            (
                _,
                "/healthz" | "/healthz/live" | "/healthz/ready" | "/metrics" | "/v1/benchmarks",
            ) => method_not_allowed(req, "GET"),
            (_, "/v1/runs" | "/v1/run" | "/v1/sweeps" | "/v1/workflows") => {
                method_not_allowed(req, "POST")
            }
            (_, "/v1/experiments") => method_not_allowed(req, "GET"),
            (_, path) if path.starts_with("/v1/experiments/") => {
                method_not_allowed(req, "GET, POST")
            }
            _ => fail(req, 404, "not_found", "no such route"),
        }
    }
}

impl Api {
    /// The front-door admission check every route but the operator
    /// surfaces (health probes, metric scrapes) passes through: the
    /// per-tenant token bucket first, then the `X-Deadline-Ms` budget.
    /// `None` means admitted.
    fn admission(&self, req: &Request) -> Option<Response> {
        if matches!(
            req.path.as_str(),
            "/healthz" | "/healthz/live" | "/healthz/ready" | "/metrics"
        ) {
            return None;
        }
        if let Some(gate) = self.tenants.get() {
            if let Admit::Throttled {
                tenant,
                retry_after_s,
            } = gate.admit(req.header("x-api-key"))
            {
                return Some(envelope(
                    429,
                    "tenant_throttled",
                    &format!("tenant {tenant:?} is over its request budget"),
                    Some(retry_after_s),
                    &req.request_id,
                ));
            }
        }
        match deadline_ms(req) {
            Err(why) => Some(fail(req, 400, "bad_request", &why)),
            Ok(Some(0)) => Some(self.deadline_refusal(req)),
            Ok(_) => None,
        }
    }

    /// The 504 envelope for a request whose deadline budget is already
    /// spent, counted for `/metrics`.
    fn deadline_refusal(&self, req: &Request) -> Response {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        envelope(
            504,
            "deadline_exceeded",
            "deadline budget exhausted before execution",
            Some(1),
            &req.request_id,
        )
    }
}

/// Parses the `X-Deadline-Ms` header: the caller's remaining time budget
/// in milliseconds, decremented hop by hop across the cluster. Absent
/// means no deadline; a non-integer value is a 400-shaped error.
pub fn deadline_ms(req: &Request) -> Result<Option<u64>, String> {
    match req.header("x-deadline-ms") {
        None => Ok(None),
        Some(v) => v.trim().parse::<u64>().map(Some).map_err(|_| {
            format!("X-Deadline-Ms must be a non-negative integer of milliseconds, got {v:?}")
        }),
    }
}

/// Whether the request asked for asynchronous (journaled) execution:
/// `?async=1` or `?async=true`.
pub fn wants_async(req: &Request) -> bool {
    req.query
        .split('&')
        .any(|kv| kv == "async=1" || kv == "async=true")
}

/// Parses the `?from_index=N` resume cursor of a `/records` fetch.
pub fn from_index(req: &Request) -> Result<u64, String> {
    match req
        .query
        .split('&')
        .find_map(|kv| kv.strip_prefix("from_index="))
    {
        None => Ok(0),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("from_index must be a non-negative integer, got {v:?}")),
    }
}

/// The error envelope with the request's correlation id (see
/// [`crate::error::envelope`]).
fn fail(req: &Request, status: u16, code: &str, message: &str) -> Response {
    envelope(status, code, message, None, &req.request_id)
}

/// A 405 envelope carrying the route's `Allow` header.
fn method_not_allowed(req: &Request, allow: &str) -> Response {
    fail(req, 405, "method_not_allowed", "method not allowed").with_header("Allow", allow)
}

/// Marks a response as served by a deprecated route alias: RFC 9745's
/// `Deprecation` header plus a `Link` to the canonical successor. The
/// payload is untouched, so aliases answer byte-identically to their
/// canonical routes.
fn deprecated(resp: Response, successor: &str) -> Response {
    resp.with_header("Deprecation", "true")
        .with_header("Link", &format!("<{successor}>; rel=\"successor-version\""))
}

/// Liveness: the process is up and serving — always 200. `/healthz` keeps
/// answering this for compatibility; `/healthz/live` is the explicit form.
fn health() -> Response {
    Response::json(200, &Json::Obj(vec![("status".into(), Json::str("ok"))]))
}

impl Api {
    /// Readiness: whether this instance should receive traffic. Unready
    /// (503 + `Retry-After`) while the circuit breaker is open or graceful
    /// shutdown has begun; liveness stays green either way, so an
    /// orchestrator drains traffic instead of killing the process. The
    /// unready body is the standard error envelope extended with the
    /// probe fields (`status`, `breaker`, `shutting_down`).
    fn ready(&self, req: &Request) -> Response {
        let breaker_open = self.breaker.get().is_some_and(|b| b.currently_open());
        let shutting_down = self
            .stats
            .get()
            .is_some_and(|s| s.shutting_down.load(Ordering::SeqCst));
        let state = self.breaker.get().map_or("unknown", |b| b.state_name());
        let probe = vec![
            (
                "status".to_string(),
                Json::str(if breaker_open || shutting_down {
                    "unready"
                } else {
                    "ready"
                }),
            ),
            ("breaker".to_string(), Json::str(state)),
            ("shutting_down".to_string(), Json::Bool(shutting_down)),
        ];
        if breaker_open || shutting_down {
            let retry = self.breaker.get().map_or(1, |b| b.retry_after_secs());
            let mut fields = vec![
                (
                    "error".to_string(),
                    Json::Obj(vec![
                        ("code".into(), Json::str("unready")),
                        (
                            "message".into(),
                            Json::str(if shutting_down {
                                "shutting down"
                            } else {
                                "circuit breaker open"
                            }),
                        ),
                        ("retry_after_s".into(), Json::U64(retry)),
                    ]),
                ),
                ("request_id".to_string(), Json::str(&req.request_id)),
            ];
            fields.extend(probe);
            Response::json(503, &Json::Obj(fields)).with_header("Retry-After", &retry.to_string())
        } else {
            Response::json(200, &Json::Obj(probe))
        }
    }
}

/// Splits the remainder of a `/v1/runs/{key}[/sub]` path into the key
/// segment and the optional sub-resource after it.
fn split_resource(rest: &str) -> (&str, Option<&str>) {
    match rest.split_once('/') {
        Some((key, sub)) => (key, Some(sub)),
        None => (rest, None),
    }
}

/// Whether a path segment is a well-formed run key: exactly 32 hex
/// digits. Anything else — wrong length, non-hex characters, embedded
/// slashes (already split off by [`split_resource`]) — is rejected up
/// front with a 400 envelope instead of falling through to a generic 404.
fn valid_run_key(key: &str) -> bool {
    key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit())
}

impl Api {
    /// Dispatches `/v1/runs/{key}` and its sub-resources (`/trace`), plus
    /// the deprecated `/v1/run/{key}/trace` alias when `alias` is set.
    fn run_resource(&self, req: &Request, rest: &str, alias: bool) -> Response {
        let (key, sub) = split_resource(rest);
        if !valid_run_key(key) {
            return fail(
                req,
                400,
                "bad_request",
                &format!("run key must be 32 hex characters, got {key:?}"),
            );
        }
        match (sub, alias) {
            (Some("trace"), _) => {
                if req.method != "GET" {
                    return method_not_allowed(req, "GET");
                }
                let resp = self.run_trace(req, key);
                if alias {
                    deprecated(resp, &format!("/v1/runs/{key}/trace"))
                } else {
                    resp
                }
            }
            // The cached-report lookup is new with the redesign; it never
            // existed under `/v1/run/{key}`, so the alias stays a 404 with
            // a pointer at the canonical route.
            (None, true) => fail(
                req,
                404,
                "not_found",
                &format!("no such route (the cached report lives at /v1/runs/{key})"),
            ),
            (None, false) => {
                if req.method != "GET" {
                    return method_not_allowed(req, "GET");
                }
                self.run_report(req, key)
            }
            (Some(other), _) => fail(
                req,
                404,
                "not_found",
                &format!("no such run sub-resource: {other:?} (try /trace)"),
            ),
        }
    }

    /// `GET /v1/runs/{key}`: the cached report for a previously executed
    /// run, straight from the engine's result cache — no execution, no
    /// cache-metric side effects.
    ///
    /// The hot path is zero-decode: existence is proven by the engine's
    /// validated-bytes tier (magic + version + checksum, no field parse),
    /// the run key doubles as a strong `ETag` (it is a content address
    /// and [`report_json`] is deterministic), and a warm repeat serves
    /// the memoized rendered body — or, with a matching `If-None-Match`,
    /// an empty `304 Not Modified`. Only the first `GET` after a cold
    /// start pays the record decode.
    fn run_report(&self, req: &Request, key: &str) -> Response {
        let parsed = RunKey::from_hex(key).expect("validated by run_resource");
        let hex = parsed.hex();
        if self.engine.cached_bytes(parsed).is_none() {
            return fail(req, 404, "not_found", "no cached report for that run key");
        }
        let etag = format!("\"{hex}\"");
        if if_none_match(req, &etag) {
            return Response {
                status: 304,
                headers: Vec::new(),
                body: Vec::new(),
                chunked: false,
                stream: None,
            }
            .with_header("X-Run-Key", &hex)
            .with_header("ETag", &etag);
        }
        let memoized = self.report_bodies.lock().unwrap().get(&parsed.0).cloned();
        let body = match memoized {
            Some(body) => body,
            None => {
                let Some(report) = self.engine.cached(parsed) else {
                    return fail(req, 404, "not_found", "no cached report for that run key");
                };
                let body = Arc::new(report_json(&report).dump().into_bytes());
                let mut memo = self.report_bodies.lock().unwrap();
                if memo.len() >= MAX_MEMOIZED_BODIES {
                    memo.clear();
                }
                memo.insert(parsed.0, Arc::clone(&body));
                body
            }
        };
        Response {
            status: 200,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.as_ref().clone(),
            chunked: false,
            stream: None,
        }
        .with_header("X-Run-Key", &hex)
        .with_header("ETag", &etag)
    }

    /// Dispatches `/v1/sweeps/{key}` and its sub-resources: the bare key
    /// answers an async job's status, `/records` streams its journaled
    /// NDJSON records, and `/trace` the engine's retained Chrome trace
    /// (under the sweep key the `X-Sweep-Key` response header reported).
    fn sweep_resource(&self, req: &Request, rest: &str) -> Response {
        let (key, sub) = split_resource(rest);
        if !valid_run_key(key) {
            return fail(
                req,
                400,
                "bad_request",
                &format!("sweep key must be 32 hex characters, got {key:?}"),
            );
        }
        match sub {
            Some("trace") => {
                if req.method != "GET" {
                    return method_not_allowed(req, "GET");
                }
                self.run_trace(req, key)
            }
            Some("records") => {
                if req.method != "GET" {
                    return method_not_allowed(req, "GET");
                }
                self.sweep_records(req, key)
            }
            None => {
                if req.method != "GET" {
                    return method_not_allowed(req, "GET");
                }
                self.sweep_status(req, key)
            }
            _ => fail(
                req,
                404,
                "not_found",
                "no such sweep sub-resource (try /trace or /records)",
            ),
        }
    }

    /// `GET /v1/sweeps/{key}`: the status of an async sweep — from this
    /// process's registry when it is (or was) driving the job, otherwise
    /// reconstructed from the on-disk journal so a restarted process
    /// still answers for jobs it has not resumed.
    fn sweep_status(&self, req: &Request, key: &str) -> Response {
        let key = key.to_ascii_lowercase();
        if let Some(job) = self.async_jobs.get(&key) {
            return Response::json(200, &jobs::status_json(&key, &job))
                .with_header("X-Sweep-Key", &key);
        }
        if let Some(journal) = self.journal.get() {
            if let Ok(Some(replay)) = journal.replay(&key) {
                if let Some(body) = journal_status_json(&key, "sweep", &replay) {
                    return Response::json(200, &body).with_header("X-Sweep-Key", &key);
                }
            }
        }
        fail(
            req,
            404,
            "not_found",
            "no such async sweep (submit one with POST /v1/sweeps?async=1)",
        )
    }

    /// `GET /v1/sweeps/{key}/records?from_index=N`: the journaled NDJSON
    /// records of an async sweep, in index order (ascending), starting at
    /// `from_index` so a poller can resume a partial read. A snapshot of
    /// what is journaled right now — poll the status route for `done`
    /// before treating the stream as complete. No trailing summary line:
    /// records are timing-free and byte-stable; the summary is not.
    fn sweep_records(&self, req: &Request, key: &str) -> Response {
        let key = key.to_ascii_lowercase();
        let from = match from_index(req) {
            Ok(from) => from,
            Err(why) => return fail(req, 400, "bad_request", &why),
        };
        let Some(journal) = self.journal.get() else {
            return fail(
                req,
                404,
                "not_found",
                "this server has no journal (async records live on durable servers)",
            );
        };
        match journal.replay(&key) {
            Ok(Some(replay)) => {
                let mut records = replay.records;
                records.sort_by_key(|&(i, _)| i);
                let mut body = String::new();
                for (index, line) in &records {
                    if *index >= from {
                        body.push_str(line);
                        body.push('\n');
                    }
                }
                Response {
                    status: 200,
                    headers: vec![("Content-Type".into(), "application/x-ndjson".into())],
                    body: body.into_bytes(),
                    chunked: false,
                    stream: None,
                }
                .with_header("X-Sweep-Key", &key)
                .with_header("X-Job-State", if replay.done { "done" } else { "pending" })
            }
            Ok(None) => fail(req, 404, "not_found", "no journaled records for that key"),
            Err(e) => envelope(
                503,
                "journal_unavailable",
                &format!("journal replay failed: {e}"),
                Some(1),
                &req.request_id,
            ),
        }
    }
}

/// A status body reconstructed from a journal segment alone, for keys no
/// live registry entry covers (a previous process journaled them). `None`
/// when the segment's intent is unreadable or of a different kind.
pub fn journal_status_json(
    key: &str,
    kind: &str,
    replay: &heteropipe_engine::Replay,
) -> Option<Json> {
    let (ikind, payload) = jobs::parse_intent(&replay.intent)?;
    if ikind != kind {
        return None;
    }
    let total = match kind {
        "sweep" => payload.as_array()?.len() as u64,
        // Workflow totals are stage events + the trailing result record;
        // without running the graph we only know what is journaled.
        _ => replay.records.len() as u64,
    };
    let state = if replay.done { "done" } else { "pending" };
    let failed = replay
        .records
        .iter()
        .filter(|(_, line)| {
            Json::parse(line)
                .and_then(|v| v.get("status").and_then(Json::as_str).map(|s| s == "error"))
                .unwrap_or(false)
        })
        .count() as u64;
    let mut fields = vec![
        ("key".to_string(), Json::str(key)),
        ("kind".to_string(), Json::str(kind)),
        ("state".to_string(), Json::str(state)),
        ("jobs_total".to_string(), Json::U64(total)),
        (
            "records_done".to_string(),
            Json::U64(replay.records.len() as u64),
        ),
        ("records_failed".to_string(), Json::U64(failed)),
    ];
    if kind == "sweep" {
        fields.push((
            "records_url".to_string(),
            Json::str(format!("/v1/sweeps/{key}/records")),
        ));
    }
    Some(Json::Obj(fields))
}

/// `GET /v1/debug/profile`: a JSON snapshot of the always-on phase
/// profiler, heaviest phase first (see docs/observability.md). The
/// cluster coordinator serves the same route from its own process.
pub fn profile_snapshot() -> Response {
    Response {
        status: 200,
        headers: vec![("Content-Type".into(), "application/json".into())],
        body: heteropipe_obs::profile::render_debug_json().into_bytes(),
        chunked: false,
        stream: None,
    }
}

/// Whether a `/metrics` request asked for Prometheus text format instead
/// of the JSON default: `?format=prometheus` wins, `?format=json` forces
/// JSON, otherwise an `Accept` header preferring `text/plain` (or an
/// OpenMetrics type) selects Prometheus.
pub fn wants_prometheus(req: &Request) -> bool {
    for kv in req.query.split('&') {
        match kv {
            "format=prometheus" => return true,
            "format=json" => return false,
            _ => {}
        }
    }
    req.header("accept").is_some_and(|a| {
        let a = a.to_ascii_lowercase();
        a.contains("text/plain") || a.contains("openmetrics")
    })
}

impl Api {
    fn metrics(&self, req: &Request) -> Response {
        if wants_prometheus(req) {
            return self.metrics_prometheus();
        }
        self.metrics_json()
    }

    /// Prometheus text exposition of the same counters `/metrics` reports
    /// as JSON, built fresh per scrape from the engine and server state.
    fn metrics_prometheus(&self) -> Response {
        let r = MetricRegistry::new();
        let e = self.engine.metrics();
        let set = |name: &str, help: &str, v: u64| r.counter(name, help).set(v);
        set(
            "heteropipe_engine_jobs_executed_total",
            "Jobs actually simulated (cache misses and uncached runs).",
            e.jobs_executed,
        );
        for (tier, v) in [("memory", e.memory_hits), ("disk", e.disk_hits)] {
            r.counter_with(
                "heteropipe_engine_cache_hits_total",
                "Cache hits by tier.",
                &[("tier", tier)],
            )
            .set(v);
        }
        set(
            "heteropipe_engine_cache_misses_total",
            "Cache lookups that found nothing.",
            e.misses,
        );
        set(
            "heteropipe_engine_job_failures_total",
            "Jobs that panicked inside a batch.",
            e.failures,
        );
        set(
            "heteropipe_engine_simulated_picoseconds_total",
            "Total simulated time across executed jobs.",
            e.simulated_ps,
        );
        set(
            "heteropipe_engine_wall_nanoseconds_total",
            "Total wall-clock time spent simulating.",
            e.wall_ns,
        );
        set(
            "heteropipe_engine_sweeps_total",
            "Sweeps executed through the batch pipeline.",
            e.sweeps,
        );
        set(
            "heteropipe_engine_sweep_jobs_total",
            "Entries submitted across all sweeps.",
            e.sweep_jobs,
        );
        set(
            "heteropipe_engine_sweep_deduped_total",
            "Sweep entries deduplicated onto an in-batch leader.",
            e.sweep_deduped,
        );
        set(
            "heteropipe_engine_flights_coalesced_total",
            "Jobs coalesced onto a concurrent identical execution.",
            e.flights_coalesced,
        );
        r.gauge(
            "heteropipe_engine_traces_retained",
            "Job traces currently held by the trace store.",
        )
        .set(self.engine.traces().len() as f64);

        // Workflow counters (docs/workflows.md): graphs executed through
        // the DAG runner and their per-stage memoization activity.
        let f = self.flow.metrics();
        set(
            "heteropipe_workflows_total",
            "Workflows executed through the DAG runner.",
            f.workflows,
        );
        set(
            "heteropipe_workflow_stages_total",
            "Stage slots processed across all workflows.",
            f.stages,
        );
        set(
            "heteropipe_workflow_stage_cache_hits_total",
            "Workflow stages served from the stage memo without executing.",
            f.stage_cache_hits,
        );
        set(
            "heteropipe_workflow_stage_failures_total",
            "Workflow stages whose body failed.",
            f.stage_failures,
        );

        // Resilience counters (docs/robustness.md): retries, quarantines,
        // watchdog overruns, and cache self-healing activity.
        set(
            "heteropipe_engine_exec_retries_total",
            "Execution attempts retried after a panic.",
            e.exec_retries,
        );
        set(
            "heteropipe_engine_jobs_quarantined_total",
            "Jobs quarantined after exhausting their retry budget.",
            e.jobs_quarantined,
        );
        set(
            "heteropipe_engine_watchdog_fired_total",
            "Jobs whose execution overran the watchdog deadline.",
            e.watchdog_fired,
        );
        set(
            "heteropipe_cache_tmp_swept_total",
            "Stale cache temp files swept at open.",
            e.cache.tmp_swept,
        );
        set(
            "heteropipe_cache_records_quarantined_total",
            "Corrupt cache records moved to quarantine.",
            e.cache.records_quarantined,
        );
        set(
            "heteropipe_cache_read_errors_total",
            "Cache disk reads failed with an I/O error (served as misses).",
            e.cache.read_errors,
        );
        set(
            "heteropipe_cache_persist_retries_total",
            "Cache persist attempts retried after a transient failure.",
            e.cache.persist_retries,
        );
        set(
            "heteropipe_cache_persist_failures_total",
            "Cache persists abandoned after the retry budget.",
            e.cache.persist_failures,
        );

        // Durability counters (docs/robustness.md): write-ahead journal
        // activity plus the admission layer's refusals.
        if let Some(j) = self.journal.get() {
            let js = j.stats();
            set(
                "heteropipe_journal_appended_total",
                "Lines appended to the write-ahead journal (intent, record, and seal lines).",
                js.appended,
            );
            set(
                "heteropipe_journal_replayed_total",
                "Record lines read back by journal replay.",
                js.replayed,
            );
            set(
                "heteropipe_journal_recovered_total",
                "Interrupted async jobs resumed to completion after a restart.",
                js.recovered,
            );
            set(
                "heteropipe_journal_segments_quarantined_total",
                "Corrupt journal segments moved to quarantine.",
                js.segments_quarantined,
            );
            set(
                "heteropipe_journal_gc_total",
                "Expired sealed journal segments deleted by startup GC.",
                js.gc_swept,
            );
        }
        set(
            "heteropipe_deadline_exceeded_total",
            "Requests refused because their X-Deadline-Ms budget was exhausted.",
            self.deadline_exceeded.load(Ordering::Relaxed),
        );
        if let Some(gate) = self.tenants.get() {
            for t in gate.counts() {
                r.counter_with(
                    "heteropipe_tenant_requests_total",
                    "Requests admitted per tenant bucket.",
                    &[("tenant", &t.tenant)],
                )
                .set(t.requests);
                r.counter_with(
                    "heteropipe_tenant_throttled_total",
                    "Requests refused with a 429 per tenant bucket.",
                    &[("tenant", &t.tenant)],
                )
                .set(t.throttled);
            }
        }

        // Injected-fault tallies per (site, kind), from the engine's
        // injector plus the server's (skipped when they are one shared
        // injector, as a chaos run configures).
        let mut fault_counts = self.engine.faults().counts();
        if let Some(sf) = self.server_faults.get() {
            if !std::ptr::eq(self.engine.faults(), Arc::as_ptr(sf)) {
                fault_counts.extend(sf.counts());
            }
        }
        for c in fault_counts {
            r.counter_with(
                "heteropipe_faults_injected_total",
                "Faults fired by the deterministic injector.",
                &[("site", c.site), ("kind", c.kind)],
            )
            .set(c.fired);
        }

        if let Some(b) = self.breaker.get() {
            r.gauge(
                "heteropipe_server_breaker_open",
                "Whether the circuit breaker is open right now (1 = open).",
            )
            .set(f64::from(u8::from(b.currently_open())));
            set(
                "heteropipe_server_breaker_opened_total",
                "Times the circuit breaker tripped open.",
                b.opened_total(),
            );
            set(
                "heteropipe_server_breaker_shed_total",
                "Requests shed with a 503 while the breaker was open.",
                b.shed_total(),
            );
        }

        if let Some(s) = self.stats.get() {
            use std::sync::atomic::Ordering::Relaxed;
            set(
                "heteropipe_server_requests_total",
                "Requests fully parsed and dispatched to the handler.",
                s.requests.load(Relaxed),
            );
            set(
                "heteropipe_server_rejected_total",
                "Connections refused with a 503 by the admission check.",
                s.rejected.load(Relaxed),
            );
            set(
                "heteropipe_server_shed_total",
                "Requests shed with a 503 by the circuit breaker.",
                s.shed.load(Relaxed),
            );
            r.gauge(
                "heteropipe_server_in_flight",
                "Requests currently inside the handler.",
            )
            .set(s.in_flight.load(Relaxed) as f64);
            for (class, v) in [
                ("2xx", s.status_2xx.load(Relaxed)),
                ("4xx", s.status_4xx.load(Relaxed)),
                ("5xx", s.status_5xx.load(Relaxed)),
            ] {
                r.counter_with(
                    "heteropipe_server_responses_total",
                    "Responses sent, by status class.",
                    &[("class", class)],
                )
                .set(v);
            }
            r.histogram(
                "heteropipe_server_request_latency_microseconds",
                "Handler latency distribution.",
            )
            .merge(&s.latency_us.lock().unwrap());
        }

        // Always-on phase profiler (docs/observability.md): wall time
        // attributed to named hot-path phases in the sim event loop, the
        // engine execute path, and the workflow runner.
        for p in heteropipe_obs::profile::snapshot() {
            r.counter_with(
                "heteropipe_profile_phase_total_nanoseconds",
                "Wall nanoseconds attributed to a profiled phase.",
                &[("phase", p.name)],
            )
            .set(p.total_ns);
            r.histogram_with(
                "heteropipe_profile_phase_duration_nanoseconds",
                "Per-call wall-time distribution of a profiled phase.",
                &[("phase", p.name)],
            )
            .merge(&p.histogram);
        }

        Response {
            status: 200,
            headers: vec![(
                "Content-Type".into(),
                "text/plain; version=0.0.4; charset=utf-8".into(),
            )],
            body: r.render_prometheus().into_bytes(),
            chunked: false,
            stream: None,
        }
    }

    /// `GET /v1/runs/{key}/trace`: the Chrome-trace timeline retained for
    /// a run (or sweep) key. The key is validated by [`Api::run_resource`]
    /// before this is reached.
    fn run_trace(&self, req: &Request, key: &str) -> Response {
        match self.engine.traces().render(&key.to_ascii_lowercase()) {
            Some(json) => Response {
                status: 200,
                headers: vec![("Content-Type".into(), "application/json".into())],
                body: json.into_bytes(),
                chunked: false,
                stream: None,
            },
            None => fail(req, 404, "not_found", "no trace retained for that run key"),
        }
    }

    fn metrics_json(&self) -> Response {
        let e = self.engine.metrics();
        let engine = Json::Obj(vec![
            ("jobs_total".into(), Json::U64(e.jobs_total())),
            ("jobs_executed".into(), Json::U64(e.jobs_executed)),
            ("memory_hits".into(), Json::U64(e.memory_hits)),
            ("disk_hits".into(), Json::U64(e.disk_hits)),
            ("misses".into(), Json::U64(e.misses)),
            ("failures".into(), Json::U64(e.failures)),
            ("hit_rate".into(), Json::F64(e.hit_rate())),
            ("simulated_ps".into(), Json::U64(e.simulated_ps)),
            ("wall_ns".into(), Json::U64(e.wall_ns)),
            (
                "sweeps".into(),
                Json::Obj(vec![
                    ("count".into(), Json::U64(e.sweeps)),
                    ("jobs".into(), Json::U64(e.sweep_jobs)),
                    ("deduped".into(), Json::U64(e.sweep_deduped)),
                    ("flights_coalesced".into(), Json::U64(e.flights_coalesced)),
                ]),
            ),
            (
                "resilience".into(),
                Json::Obj(vec![
                    ("exec_retries".into(), Json::U64(e.exec_retries)),
                    ("jobs_quarantined".into(), Json::U64(e.jobs_quarantined)),
                    ("watchdog_fired".into(), Json::U64(e.watchdog_fired)),
                    ("cache_tmp_swept".into(), Json::U64(e.cache.tmp_swept)),
                    (
                        "cache_records_quarantined".into(),
                        Json::U64(e.cache.records_quarantined),
                    ),
                    ("cache_read_errors".into(), Json::U64(e.cache.read_errors)),
                    (
                        "cache_persist_retries".into(),
                        Json::U64(e.cache.persist_retries),
                    ),
                    (
                        "cache_persist_failures".into(),
                        Json::U64(e.cache.persist_failures),
                    ),
                ]),
            ),
        ]);

        let server = match self.stats.get() {
            Some(s) => {
                use std::sync::atomic::Ordering::Relaxed;
                let lat = s.latency_us.lock().unwrap();
                let breaker = match self.breaker.get() {
                    Some(b) => Json::Obj(vec![
                        ("state".into(), Json::str(b.state_name())),
                        ("opened".into(), Json::U64(b.opened_total())),
                        ("shed".into(), Json::U64(b.shed_total())),
                    ]),
                    None => Json::Null,
                };
                Json::Obj(vec![
                    ("requests".into(), Json::U64(s.requests.load(Relaxed))),
                    ("in_flight".into(), Json::U64(s.in_flight.load(Relaxed))),
                    ("rejected_503".into(), Json::U64(s.rejected.load(Relaxed))),
                    ("shed_503".into(), Json::U64(s.shed.load(Relaxed))),
                    ("breaker".into(), breaker),
                    (
                        "responses".into(),
                        Json::Obj(vec![
                            ("2xx".into(), Json::U64(s.status_2xx.load(Relaxed))),
                            ("4xx".into(), Json::U64(s.status_4xx.load(Relaxed))),
                            ("5xx".into(), Json::U64(s.status_5xx.load(Relaxed))),
                        ]),
                    ),
                    (
                        "latency_us".into(),
                        Json::Obj(vec![
                            ("count".into(), Json::U64(lat.count())),
                            ("mean".into(), Json::F64(lat.mean())),
                            ("p50".into(), Json::U64(lat.percentile(0.50))),
                            ("p99".into(), Json::U64(lat.percentile(0.99))),
                            ("max".into(), Json::U64(lat.max())),
                        ]),
                    ),
                ])
            }
            None => Json::Null,
        };

        let f = self.flow.metrics();
        let workflows = Json::Obj(vec![
            ("count".into(), Json::U64(f.workflows)),
            ("stages".into(), Json::U64(f.stages)),
            ("stage_cache_hits".into(), Json::U64(f.stage_cache_hits)),
            ("stage_failures".into(), Json::U64(f.stage_failures)),
        ]);

        let profile = Json::Arr(
            heteropipe_obs::profile::snapshot()
                .into_iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("phase".into(), Json::str(p.name)),
                        ("count".into(), Json::U64(p.count)),
                        ("total_ns".into(), Json::U64(p.total_ns)),
                        ("p99_ns".into(), Json::U64(p.histogram.percentile(0.99))),
                        ("max_ns".into(), Json::U64(p.max_ns)),
                    ])
                })
                .collect(),
        );

        let journal = match self.journal.get() {
            Some(j) => {
                let js = j.stats();
                Json::Obj(vec![
                    ("appended".into(), Json::U64(js.appended)),
                    ("replayed".into(), Json::U64(js.replayed)),
                    ("recovered".into(), Json::U64(js.recovered)),
                    ("tmp_swept".into(), Json::U64(js.tmp_swept)),
                    (
                        "segments_quarantined".into(),
                        Json::U64(js.segments_quarantined),
                    ),
                    ("torn_truncated".into(), Json::U64(js.torn_truncated)),
                    ("gc_swept".into(), Json::U64(js.gc_swept)),
                    ("async_jobs".into(), Json::U64(self.async_jobs.len() as u64)),
                ])
            }
            None => Json::Null,
        };

        let tenants = Json::Arr(
            self.tenants
                .get()
                .map(|g| g.counts())
                .unwrap_or_default()
                .into_iter()
                .map(|t| {
                    Json::Obj(vec![
                        ("tenant".into(), Json::str(t.tenant)),
                        ("requests".into(), Json::U64(t.requests)),
                        ("throttled".into(), Json::U64(t.throttled)),
                    ])
                })
                .collect(),
        );

        Response::json(
            200,
            &Json::Obj(vec![
                ("engine".into(), engine),
                ("workflows".into(), workflows),
                ("journal".into(), journal),
                ("tenants".into(), tenants),
                (
                    "deadline_exceeded".into(),
                    Json::U64(self.deadline_exceeded.load(Ordering::Relaxed)),
                ),
                ("server".into(), server),
                ("profile".into(), profile),
            ]),
        )
    }

    fn run(&self, req: &Request) -> Response {
        let Some(body) = parse_body(req) else {
            return fail(req, 400, "bad_request", "body must be a JSON object");
        };
        let job = match parse_job_spec(&body) {
            Ok(job) => job,
            Err(e) => return fail(req, e.status, e.code, &e.message),
        };
        let spec = job.spec();
        let key = run_key(&spec);
        let request_id = (!req.request_id.is_empty()).then_some(req.request_id.as_str());
        match self.engine.try_execute_observed(&spec, request_id) {
            Ok(report) => {
                Response::json(200, &report_json(&report)).with_header("X-Run-Key", &key.hex())
            }
            // A quarantined job will stay broken until an operator looks
            // at it: 503 + Retry-After tells well-behaved clients to back
            // off rather than hammer a poisoned key.
            Err(e @ EngineError::Quarantined { .. }) => envelope(
                503,
                "quarantined",
                &e.to_string(),
                Some(30),
                &req.request_id,
            )
            .with_header("X-Run-Key", &key.hex()),
            Err(e) => {
                fail(req, 500, "internal", &e.to_string()).with_header("X-Run-Key", &key.hex())
            }
        }
    }

    /// `POST /v1/sweeps`: executes a whole batch through the engine's
    /// dedup + single-flight sweep pipeline, streaming one NDJSON record
    /// per entry the moment it completes (completion order — each record
    /// carries its request index and run key) and a final summary line.
    /// The response carries the sweep's content address in `X-Sweep-Key`.
    fn sweeps(&self, req: &Request) -> Response {
        let Some(body) = parse_body(req) else {
            return fail(req, 400, "bad_request", "body must be a JSON object");
        };
        let entries = match sweep_entries(&body) {
            Ok(entries) => entries,
            Err(e) => return fail(req, e.status, e.code, &e.message),
        };
        if entries.is_empty() {
            return fail(req, 400, "bad_request", "sweep has no jobs");
        }
        if entries.len() > MAX_SWEEP_JOBS {
            return fail(
                req,
                413,
                "payload_too_large",
                &format!(
                    "sweep of {} jobs exceeds the {MAX_SWEEP_JOBS}-job cap",
                    entries.len()
                ),
            );
        }
        let mut owned = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            match parse_job_spec(entry) {
                Ok(job) => owned.push(job),
                Err(e) => return fail(req, e.status, e.code, &format!("jobs[{i}]: {}", e.message)),
            }
        }
        let keys: Vec<RunKey> = owned.iter().map(|o| run_key(&o.spec())).collect();
        let sweep_hex = sweep_key(&keys).hex();

        if wants_async(req) {
            return self.sweep_async(req, &entries, owned, sweep_hex);
        }

        let engine = Arc::clone(&self.engine);
        let request_id = req.request_id.clone();
        let stream = BodyStream::new(move |sink| {
            let specs: Vec<JobSpec<'_>> = owned.iter().map(OwnedJobSpec::spec).collect();
            // The engine calls the sink from its worker threads; the
            // chunk writer is the one shared side effect to serialize.
            let out = Mutex::new(sink);
            let broken = AtomicBool::new(false);
            let rid = (!request_id.is_empty()).then_some(request_id.as_str());
            let outcome = engine.execute_sweep_observed(&specs, rid, &|rec| {
                if broken.load(Ordering::Relaxed) {
                    return;
                }
                let line = format!("{}\n", sweep_record_json(rec).dump());
                if out.lock().unwrap().send(line.as_bytes()).is_err() {
                    // The peer went away mid-stream. Keep executing (the
                    // cache still warms for the retry) but stop writing.
                    broken.store(true, Ordering::Relaxed);
                }
            });
            if broken.load(Ordering::Relaxed) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "sweep stream peer went away",
                ));
            }
            let line = format!("{}\n", sweep_summary_json(&outcome).dump());
            let mut w = out.lock().unwrap();
            w.send(line.as_bytes())
        });
        Response::streaming(200, "application/x-ndjson", stream)
            .with_header("X-Sweep-Key", &sweep_hex)
    }

    /// `POST /v1/sweeps?async=1`: accepts the (already validated) sweep,
    /// journals its intent, and answers `202 Accepted` immediately with
    /// the key to poll. A background thread executes the batch, appending
    /// each record to the journal as it completes; `GET /v1/sweeps/{key}`
    /// reports progress and `GET /v1/sweeps/{key}/records` streams the
    /// journaled NDJSON. Resubmitting the same sweep while it runs (or
    /// after it finishes) is idempotent: same key, same 202.
    fn sweep_async(
        &self,
        req: &Request,
        entries: &[Json],
        owned: Vec<OwnedJobSpec>,
        sweep_hex: String,
    ) -> Response {
        let Some(journal) = self.journal.get() else {
            return envelope(
                503,
                "async_unavailable",
                "async sweeps need a write-ahead journal; start the server with one (serve --journal-dir)",
                None,
                &req.request_id,
            );
        };
        let total = owned.len() as u64;
        // A sealed segment from an earlier run means the job is already
        // complete: adopt it instead of re-executing.
        let sealed = matches!(journal.replay(&sweep_hex), Ok(Some(r)) if r.done);
        let state = if sealed {
            JobState::Done
        } else {
            JobState::Running
        };
        let done = if sealed { total } else { 0 };
        let (job, fresh) = self
            .async_jobs
            .register(&sweep_hex, "sweep", total, state, done);
        if !fresh || sealed {
            return Response::json(202, &jobs::status_json(&sweep_hex, &job))
                .with_header("X-Sweep-Key", &sweep_hex);
        }
        // Write-ahead: the full expanded job list hits the journal before
        // any execution, so a crash at any later point is resumable.
        if let Err(e) = journal.begin(&sweep_hex, &jobs::sweep_intent(entries)) {
            job.fail(format!("journal intent write failed: {e}"));
            return envelope(
                503,
                "journal_unavailable",
                &format!("could not journal sweep intent: {e}"),
                Some(1),
                &req.request_id,
            );
        }
        let rid = (!req.request_id.is_empty()).then(|| req.request_id.clone());
        self.spawn_sweep_driver(
            Arc::clone(journal),
            job,
            owned,
            sweep_hex.clone(),
            rid,
            HashSet::new(),
            false,
        );
        Response::json(
            202,
            &jobs::accepted_json(
                &sweep_hex,
                "sweep",
                &format!("/v1/sweeps/{sweep_hex}"),
                total,
            ),
        )
        .with_header("X-Sweep-Key", &sweep_hex)
    }

    /// Spawns the background thread that executes an async sweep and
    /// journals its records. `already` holds the record indexes a prior
    /// process journaled (resume skips re-appending them — the cache makes
    /// re-execution itself nearly free); `recovered` marks a crash-resume
    /// so completion counts toward `heteropipe_journal_recovered_total`.
    #[allow(clippy::too_many_arguments)]
    fn spawn_sweep_driver(
        &self,
        journal: Arc<Journal>,
        job: Arc<AsyncJob>,
        owned: Vec<OwnedJobSpec>,
        key_hex: String,
        request_id: Option<String>,
        already: HashSet<u64>,
        recovered: bool,
    ) {
        let engine = Arc::clone(&self.engine);
        std::thread::spawn(move || {
            drive_sweep(
                &engine, &journal, &job, &owned, &key_hex, request_id, &already, recovered,
            );
        });
    }

    /// `POST /v1/workflows?async=1`: accepts the validated graph, journals
    /// the submitted body as intent, answers 202, and drives the workflow
    /// on a background thread — one journaled record per stage event plus
    /// a final record holding the full result (the shape
    /// `GET /v1/workflows/{key}` serves).
    fn workflow_async(
        &self,
        req: &Request,
        body: &Json,
        graph: TaskGraph,
        wkey: String,
    ) -> Response {
        let Some(journal) = self.journal.get() else {
            return envelope(
                503,
                "async_unavailable",
                "async workflows need a write-ahead journal; start the server with one (serve --journal-dir)",
                None,
                &req.request_id,
            );
        };
        // Stage events plus the trailing result record.
        let total = graph.len() as u64 + 1;
        let sealed = matches!(journal.replay(&wkey), Ok(Some(r)) if r.done);
        let state = if sealed {
            JobState::Done
        } else {
            JobState::Running
        };
        let done = if sealed { total } else { 0 };
        let (job, fresh) = self
            .async_jobs
            .register(&wkey, "workflow", total, state, done);
        if !fresh || sealed {
            return Response::json(202, &jobs::status_json(&wkey, &job))
                .with_header("X-Workflow-Key", &wkey);
        }
        if let Err(e) = journal.begin(&wkey, &jobs::workflow_intent(body)) {
            job.fail(format!("journal intent write failed: {e}"));
            return envelope(
                503,
                "journal_unavailable",
                &format!("could not journal workflow intent: {e}"),
                Some(1),
                &req.request_id,
            );
        }
        let rid = (!req.request_id.is_empty()).then(|| req.request_id.clone());
        self.spawn_workflow_driver(
            Arc::clone(journal),
            job,
            graph,
            wkey.clone(),
            rid,
            HashSet::new(),
            false,
        );
        Response::json(
            202,
            &jobs::accepted_json(&wkey, "workflow", &format!("/v1/workflows/{wkey}"), total),
        )
        .with_header("X-Workflow-Key", &wkey)
    }

    /// Spawns the background thread driving an async workflow (see
    /// [`Api::spawn_sweep_driver`] for the `already`/`recovered` contract).
    #[allow(clippy::too_many_arguments)]
    fn spawn_workflow_driver(
        &self,
        journal: Arc<Journal>,
        job: Arc<AsyncJob>,
        graph: TaskGraph,
        key_hex: String,
        request_id: Option<String>,
        already: HashSet<u64>,
        recovered: bool,
    ) {
        let flow = Arc::clone(&self.flow);
        std::thread::spawn(move || {
            drive_workflow(
                &flow, &journal, &job, &graph, &key_hex, request_id, &already, recovered,
            );
        });
    }

    /// Replays the journal at startup: every segment with an intent but no
    /// seal is re-registered and driven to completion on background
    /// threads. The result cache turns already-persisted jobs into hits,
    /// so only the missing tail actually re-executes, and the journaled
    /// records end up identical to an uninterrupted run's.
    pub fn resume_incomplete(&self) {
        let Some(journal) = self.journal.get() else {
            return;
        };
        for key in journal.incomplete() {
            let Ok(Some(replay)) = journal.replay(&key) else {
                continue;
            };
            let Some((kind, payload)) = jobs::parse_intent(&replay.intent) else {
                obs_log::warn(
                    "serve",
                    "journaled intent is unreadable; segment left unresumed",
                    &[("key", key.clone().into())],
                );
                continue;
            };
            match kind.as_str() {
                "sweep" => self.resume_sweep(journal, &key, &payload, &replay),
                "workflow" => self.resume_workflow(journal, &key, &payload, &replay),
                _ => {}
            }
        }
    }

    fn resume_sweep(
        &self,
        journal: &Arc<Journal>,
        key: &str,
        payload: &Json,
        replay: &heteropipe_engine::Replay,
    ) {
        let entries = payload.as_array().map(<[Json]>::to_vec).unwrap_or_default();
        let mut owned = Vec::with_capacity(entries.len());
        for entry in &entries {
            match parse_job_spec(entry) {
                Ok(job) => owned.push(job),
                Err(e) => {
                    let (job, _) = self.async_jobs.register(
                        key,
                        "sweep",
                        entries.len() as u64,
                        JobState::Failed,
                        0,
                    );
                    job.fail(format!("journaled intent no longer parses: {}", e.message));
                    return;
                }
            }
        }
        let already = replay.indexes();
        let (job, fresh) = self.async_jobs.register(
            key,
            "sweep",
            owned.len() as u64,
            JobState::Running,
            already.len() as u64,
        );
        if !fresh {
            return;
        }
        obs_log::info(
            "serve",
            "resuming interrupted async sweep from journal",
            &[
                ("key", key.to_string().into()),
                ("jobs_total", (owned.len() as u64).into()),
                ("records_journaled", (already.len() as u64).into()),
            ],
        );
        self.spawn_sweep_driver(
            Arc::clone(journal),
            job,
            owned,
            key.to_string(),
            None,
            already,
            true,
        );
    }

    fn resume_workflow(
        &self,
        journal: &Arc<Journal>,
        key: &str,
        payload: &Json,
        replay: &heteropipe_engine::Replay,
    ) {
        let graph = match workflow_graph(payload) {
            Ok(graph) => graph,
            Err(e) => {
                let (job, _) = self
                    .async_jobs
                    .register(key, "workflow", 0, JobState::Failed, 0);
                job.fail(format!("journaled intent no longer parses: {}", e.message));
                return;
            }
        };
        let total = graph.len() as u64 + 1;
        let already = replay.indexes();
        let (job, fresh) = self.async_jobs.register(
            key,
            "workflow",
            total,
            JobState::Running,
            already.len() as u64,
        );
        if !fresh {
            return;
        }
        obs_log::info(
            "serve",
            "resuming interrupted async workflow from journal",
            &[
                ("key", key.to_string().into()),
                ("records_journaled", (already.len() as u64).into()),
            ],
        );
        self.spawn_workflow_driver(
            Arc::clone(journal),
            job,
            graph,
            key.to_string(),
            None,
            already,
            true,
        );
    }

    /// `POST /v1/workflows`: runs a task graph — a built-in named graph
    /// (`{"workflow": "fig5", "scale": 0.08}`) or an inline list of sweep
    /// stages with dependency edges — streaming one NDJSON stage-completion
    /// event per stage and a trailing summary line. The response carries
    /// the graph's content address in `X-Workflow-Key`; feeding it back to
    /// `GET /v1/workflows/{key}` returns the journaled result.
    fn workflows(&self, req: &Request) -> Response {
        let Some(body) = parse_body(req) else {
            return fail(req, 400, "bad_request", "body must be a JSON object");
        };
        let graph = match workflow_graph(&body) {
            Ok(graph) => graph,
            Err(e) => return fail(req, e.status, e.code, &e.message),
        };
        // Full validation (duplicates, unknown edges, cycles) up front, so
        // a bad graph is a clean 400 envelope instead of a broken stream.
        let wkey = match graph.workflow_key() {
            Ok(key) => key.hex(),
            Err(e) => return fail(req, 400, "bad_request", &format!("invalid workflow: {e}")),
        };
        if wants_async(req) {
            return self.workflow_async(req, &body, graph, wkey);
        }
        // An `X-Deadline-Ms` budget (already vetted by admission) becomes
        // an absolute deadline the DAG runner checks between levels:
        // stages whose level starts past it fail with a deadline error
        // and their dependents cascade-skip.
        let deadline = deadline_ms(req)
            .ok()
            .flatten()
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        let flow = Arc::clone(&self.flow);
        let request_id = req.request_id.clone();
        let stream = BodyStream::new(move |sink| {
            // The runner calls the sink from its worker threads; the chunk
            // writer is the one shared side effect to serialize.
            let out = Mutex::new(sink);
            let broken = AtomicBool::new(false);
            let rid = (!request_id.is_empty()).then_some(request_id.as_str());
            let result = flow.run_observed_deadline(
                &graph,
                rid,
                &|ev| {
                    if broken.load(Ordering::Relaxed) {
                        return;
                    }
                    let line = format!("{}\n", stage_event_json(ev).dump());
                    if out.lock().unwrap().send(line.as_bytes()).is_err() {
                        // The peer went away mid-stream. Keep executing
                        // (the memo still warms for the retry) but stop
                        // writing.
                        broken.store(true, Ordering::Relaxed);
                    }
                },
                deadline,
            );
            let result = result.expect("graph validated before streaming");
            if broken.load(Ordering::Relaxed) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "workflow stream peer went away",
                ));
            }
            let line = format!("{}\n", workflow_summary_json(&result).dump());
            let mut w = out.lock().unwrap();
            w.send(line.as_bytes())
        });
        Response::streaming(200, "application/x-ndjson", stream)
            .with_header("X-Workflow-Key", &wkey)
    }

    /// `GET /v1/workflows/{key}`: the journaled result of a previously
    /// executed workflow — summary, per-stage events, and the rendered
    /// text of every declared output stage.
    fn workflow_lookup(&self, req: &Request, key: &str) -> Response {
        if !valid_run_key(key) {
            return fail(
                req,
                400,
                "bad_request",
                &format!("workflow key must be 32 hex characters, got {key:?}"),
            );
        }
        let key = key.to_ascii_lowercase();
        if let Some(result) = self.flow.journaled(&key) {
            return Response::json(200, &workflow_result_json(&result))
                .with_header("X-Workflow-Key", &result.key_hex)
                .into_chunked();
        }
        // Not in the in-memory result journal: an async workflow this
        // process is (or was) driving answers its live status...
        if let Some(job) = self.async_jobs.get(&key) {
            if job.state() != JobState::Done {
                return Response::json(200, &jobs::status_json(&key, &job))
                    .with_header("X-Workflow-Key", &key);
            }
        }
        // ...and a sealed segment from a previous process answers from
        // disk: its final record is the full result JSON.
        if let Some(journal) = self.journal.get() {
            if let Ok(Some(replay)) = journal.replay(&key) {
                if replay.done {
                    if let Some(result) = replay
                        .records
                        .iter()
                        .max_by_key(|&&(i, _)| i)
                        .and_then(|(_, line)| Json::parse(line))
                        .filter(|v| v.get("workflow").is_some())
                    {
                        return Response::json(200, &result)
                            .with_header("X-Workflow-Key", &key)
                            .into_chunked();
                    }
                }
                if let Some(body) = journal_status_json(&key, "workflow", &replay) {
                    return Response::json(200, &body).with_header("X-Workflow-Key", &key);
                }
            }
        }
        fail(req, 404, "not_found", "no journaled workflow for that key")
    }

    fn experiment(&self, req: &Request, name: &str) -> Response {
        let body = parse_body(req).unwrap_or(Json::Obj(Vec::new()));
        let scale = match parse_scale(&body) {
            Ok(scale) => scale,
            Err(why) => return fail(req, 400, "bad_request", why),
        };
        let exec: &dyn Executor = &*self.engine;

        let rendered = match name {
            "fig3" => fig3::render(&fig3::compute_with(exec, scale)),
            "fig4" => fig456::render_fig4(&fig4_rows(exec, scale)),
            "fig5" => fig456::render_fig5(&fig456::fig5(&characterize_all_with(exec, scale))),
            "fig6" => {
                let pairs = characterize_all_with(exec, scale);
                fig456::render_fig6_with_effects(&fig456::fig6(&pairs), &pairs)
            }
            "fig7" => fig78::render_fig7(&fig78::fig7(&characterize_all_with(exec, scale))),
            "fig8" => fig78::render_fig8(&fig78::fig8(&characterize_all_with(exec, scale))),
            "fig9" => fig9::render(&fig9::fig9(&characterize_all_with(exec, scale))),
            "table1" => tables::render_table1(),
            "table2" => tables::render_table2(),
            _ => {
                return fail(
                    req,
                    404,
                    "not_found",
                    &format!("unknown experiment: {name} (fig3..fig9, table1, table2)"),
                )
            }
        };

        Response::json(
            200,
            &Json::Obj(vec![
                ("experiment".into(), Json::str(name)),
                ("scale".into(), Json::F64(scale.factor())),
                ("rendered".into(), Json::str(rendered)),
            ]),
        )
        .into_chunked()
    }
}

fn fig4_rows(exec: &dyn Executor, scale: Scale) -> Vec<fig456::Fig4Row> {
    fig456::fig4(&characterize_all_with(exec, scale))
}

/// The background body of an async sweep: execute the batch, append each
/// record to the journal as it completes, then seal the segment. Records
/// whose index is in `already` were journaled by a previous process and
/// are skipped (the engine still "executes" them, but the cache answers).
/// A failed append never fails the job — it is retried once after the
/// batch; only records that still cannot be journaled fail the job, since
/// an unsealed segment without them could never resume faithfully.
#[allow(clippy::too_many_arguments)]
fn drive_sweep(
    engine: &Arc<Engine>,
    journal: &Arc<Journal>,
    job: &Arc<AsyncJob>,
    owned: &[OwnedJobSpec],
    key_hex: &str,
    request_id: Option<String>,
    already: &HashSet<u64>,
    recovered: bool,
) {
    let specs: Vec<JobSpec<'_>> = owned.iter().map(OwnedJobSpec::spec).collect();
    let rid = request_id.as_deref();
    let retry: Mutex<Vec<(u64, String, bool)>> = Mutex::new(Vec::new());
    engine.execute_sweep_observed(&specs, rid, &|rec| {
        let index = rec.index as u64;
        if already.contains(&index) {
            return;
        }
        let line = sweep_record_json(rec).dump();
        let errored = rec.result.is_err();
        match journal.append_record(key_hex, index, &line) {
            Ok(()) => job.record_done(errored),
            Err(e) => {
                obs_log::warn(
                    "serve",
                    "journal append failed; retrying after the batch",
                    &[
                        ("key", key_hex.to_string().into()),
                        ("index", index.into()),
                        ("error", e.to_string().into()),
                    ],
                );
                retry.lock().unwrap().push((index, line, errored));
            }
        }
    });
    let mut lost = 0u64;
    for (index, line, errored) in retry.into_inner().unwrap() {
        match journal.append_record(key_hex, index, &line) {
            Ok(()) => job.record_done(errored),
            Err(e) => {
                lost += 1;
                obs_log::error(
                    "serve",
                    "journal append failed permanently",
                    &[
                        ("key", key_hex.to_string().into()),
                        ("index", index.into()),
                        ("error", e.to_string().into()),
                    ],
                );
            }
        }
    }
    if lost > 0 {
        job.fail(format!("{lost} record(s) could not be journaled"));
        return;
    }
    match journal.finish(key_hex, job.total) {
        Ok(()) => {
            if recovered {
                journal.mark_recovered();
            }
            job.set_state(JobState::Done);
        }
        Err(e) => job.fail(format!("journal seal failed: {e}")),
    }
}

/// The background body of an async workflow: run the graph, journaling
/// one record per stage event (in emission order) and a final record
/// holding the full result JSON — the shape `GET /v1/workflows/{key}`
/// serves, so a restarted process can answer lookups from disk alone.
#[allow(clippy::too_many_arguments)]
fn drive_workflow(
    flow: &Arc<FlowRunner>,
    journal: &Arc<Journal>,
    job: &Arc<AsyncJob>,
    graph: &TaskGraph,
    key_hex: &str,
    request_id: Option<String>,
    already: &HashSet<u64>,
    recovered: bool,
) {
    let rid = request_id.as_deref();
    let counter = AtomicU64::new(0);
    let result = flow.run_observed(graph, rid, &|ev| {
        let index = counter.fetch_add(1, Ordering::Relaxed);
        if already.contains(&index) {
            return;
        }
        let line = stage_event_json(ev).dump();
        let errored = ev.error.is_some();
        match journal.append_record(key_hex, index, &line) {
            Ok(()) => job.record_done(errored),
            Err(e) => obs_log::warn(
                "serve",
                "journal append failed for workflow stage event",
                &[
                    ("key", key_hex.to_string().into()),
                    ("index", index.into()),
                    ("error", e.to_string().into()),
                ],
            ),
        }
    });
    match result {
        Ok(result) => {
            let final_index = job.total.saturating_sub(1);
            if !already.contains(&final_index) {
                let line = workflow_result_json(&result).dump();
                if let Err(e) = journal.append_record(key_hex, final_index, &line) {
                    job.fail(format!("journal append failed for workflow result: {e}"));
                    return;
                }
                job.record_done(false);
            }
            match journal.finish(key_hex, job.total) {
                Ok(()) => {
                    if recovered {
                        journal.mark_recovered();
                    }
                    job.set_state(JobState::Done);
                }
                Err(e) => job.fail(format!("journal seal failed: {e}")),
            }
        }
        Err(e) => job.fail(format!("workflow failed: {e}")),
    }
}

/// Parses a request body as a JSON object (`None` for empty, non-UTF-8,
/// unparseable, or non-object bodies). Shared with the cluster
/// coordinator so both front doors reject malformed bodies identically.
pub fn parse_body(req: &Request) -> Option<Json> {
    if req.body.is_empty() {
        return None;
    }
    let text = std::str::from_utf8(&req.body).ok()?;
    match Json::parse(text) {
        Some(v @ Json::Obj(_)) => Some(v),
        _ => None,
    }
}

fn parse_scale(body: &Json) -> Result<Scale, &'static str> {
    match body.get("scale") {
        None | Some(Json::Null) => Ok(Scale::PAPER),
        Some(v) => {
            let f = v.as_f64().ok_or("scale must be a number")?;
            if f > 0.0 && f.is_finite() {
                Ok(Scale::new(f))
            } else {
                Err("scale must be a positive finite number")
            }
        }
    }
}

fn parse_organization(v: Option<&Json>) -> Result<Organization, &'static str> {
    match v {
        None | Some(Json::Null) => Ok(Organization::Serial),
        Some(Json::Str(s)) if s == "serial" => Ok(Organization::Serial),
        Some(Json::Obj(_)) => {
            let obj = v.unwrap();
            if let Some(n) = obj.get("async_streams").and_then(Json::as_u64) {
                if n == 0 || n > u64::from(u32::MAX) {
                    return Err("async_streams must be in 1..=u32::MAX");
                }
                Ok(Organization::AsyncStreams { streams: n as u32 })
            } else if let Some(n) = obj.get("chunked_parallel").and_then(Json::as_u64) {
                if n == 0 || n > u64::from(u32::MAX) {
                    return Err("chunked_parallel must be in 1..=u32::MAX");
                }
                Ok(Organization::ChunkedParallel { chunks: n as u32 })
            } else {
                Err("organization object needs async_streams or chunked_parallel")
            }
        }
        Some(_) => Err("organization must be \"serial\" or an object"),
    }
}

/// A job spec parsed from JSON, owning its pipeline and config so it can
/// outlive the request body (the sweep stream borrows specs from inside
/// the response producer, after the request has been dropped).
#[derive(Debug)]
pub struct OwnedJobSpec {
    pipeline: Pipeline,
    config: SystemConfig,
    organization: Organization,
    misalignment_sensitive: bool,
}

impl OwnedJobSpec {
    /// The borrowed [`JobSpec`] view the engine executes and keys on.
    pub fn spec(&self) -> JobSpec<'_> {
        JobSpec {
            pipeline: &self.pipeline,
            config: &self.config,
            organization: self.organization,
            misalignment_sensitive: self.misalignment_sensitive,
        }
    }
}

/// Why a job spec failed to parse, shaped for the error envelope.
#[derive(Debug)]
pub struct SpecError {
    /// HTTP status the envelope should carry (400, 404, 413, 422).
    pub status: u16,
    /// Stable machine-readable error code.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl SpecError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> SpecError {
        SpecError {
            status,
            code,
            message: message.into(),
        }
    }

    fn bad(message: impl Into<String>) -> SpecError {
        SpecError::new(400, "bad_request", message)
    }
}

/// Parses one job-spec object (`benchmark`, `system`, `organization`,
/// `scale`, `misalignment_sensitive`) — the shared front half of
/// `POST /v1/runs` and every `POST /v1/sweeps` entry.
pub fn parse_job_spec(body: &Json) -> Result<OwnedJobSpec, SpecError> {
    let Some(name) = body.get("benchmark").and_then(Json::as_str) else {
        return Err(SpecError::bad("missing field: benchmark"));
    };
    let Some(workload) = registry::find(name) else {
        return Err(SpecError::new(
            404,
            "not_found",
            format!("unknown benchmark: {name}"),
        ));
    };
    let config = match body.get("system").and_then(Json::as_str) {
        None | Some("discrete") => SystemConfig::discrete(),
        Some("heterogeneous") => SystemConfig::heterogeneous(),
        Some(other) => {
            return Err(SpecError::bad(format!(
                "unknown system: {other} (discrete | heterogeneous)"
            )))
        }
    };
    let organization = parse_organization(body.get("organization")).map_err(SpecError::bad)?;
    // `lower` panics on a platform/organization mismatch; answer 400
    // instead of letting the handler's panic guard turn it into a 500.
    match (config.platform, organization) {
        (Platform::DiscreteGpu, Organization::ChunkedParallel { .. }) => {
            return Err(SpecError::bad(
                "chunked_parallel requires the heterogeneous system",
            ))
        }
        (Platform::Heterogeneous, Organization::AsyncStreams { .. }) => {
            return Err(SpecError::bad("async_streams requires the discrete system"))
        }
        _ => {}
    }
    let scale = parse_scale(body).map_err(SpecError::bad)?;
    let Some(pipeline) = workload.pipeline(scale) else {
        return Err(SpecError::new(
            422,
            "not_runnable",
            format!("benchmark {name} is catalogued but not runnable"),
        ));
    };
    let misalignment_sensitive = body
        .get("misalignment_sensitive")
        .and_then(Json::as_bool)
        .unwrap_or(workload.meta.misalignment_sensitive);
    Ok(OwnedJobSpec {
        pipeline,
        config,
        organization,
        misalignment_sensitive,
    })
}

/// Expands a `POST /v1/sweeps` body into its per-job spec objects: either
/// the explicit `"jobs"` array, or the generator cross-product
/// `benchmarks × systems × organizations` with `scale` and
/// `misalignment_sensitive` shared across every generated entry.
pub fn sweep_entries(body: &Json) -> Result<Vec<Json>, SpecError> {
    if let Some(jobs) = body.get("jobs") {
        let Some(arr) = jobs.as_array() else {
            return Err(SpecError::bad("\"jobs\" must be an array of job objects"));
        };
        for (i, j) in arr.iter().enumerate() {
            if !matches!(j, Json::Obj(_)) {
                return Err(SpecError::bad(format!("jobs[{i}] must be an object")));
            }
        }
        return Ok(arr.to_vec());
    }
    let names: Vec<String> = match body.get("benchmarks") {
        // The named sets skip catalogued-but-unrunnable workloads, since
        // a generated sweep should not be doomed by the census.
        Some(Json::Str(s)) if s == "all" || s == "examined" => registry::all()
            .iter()
            .filter(|w| (s == "all" || w.meta.examined) && w.pipeline(Scale::TEST).is_some())
            .map(|w| w.meta.full_name())
            .collect(),
        Some(Json::Arr(items)) => {
            let mut names = Vec::with_capacity(items.len());
            for it in items {
                match it.as_str() {
                    Some(s) => names.push(s.to_owned()),
                    None => return Err(SpecError::bad("\"benchmarks\" entries must be strings")),
                }
            }
            names
        }
        _ => return Err(SpecError::bad(
            "body needs \"jobs\" (array) or \"benchmarks\" (name list | \"examined\" | \"all\")",
        )),
    };
    let systems: Vec<Json> = match body.get("systems") {
        None => vec![Json::str("discrete")],
        Some(Json::Arr(items)) if !items.is_empty() => items.clone(),
        Some(s @ Json::Str(_)) => vec![s.clone()],
        Some(_) => {
            return Err(SpecError::bad(
                "\"systems\" must be a system name or a non-empty array of them",
            ))
        }
    };
    let organizations: Vec<Json> = match body.get("organizations") {
        None => vec![body.get("organization").cloned().unwrap_or(Json::Null)],
        Some(Json::Arr(items)) if !items.is_empty() => items.clone(),
        Some(_) => {
            return Err(SpecError::bad(
                "\"organizations\" must be a non-empty array",
            ))
        }
    };
    let mut entries = Vec::with_capacity(names.len() * systems.len() * organizations.len());
    for name in &names {
        for system in &systems {
            for org in &organizations {
                let mut obj = vec![
                    ("benchmark".to_string(), Json::str(name.clone())),
                    ("system".to_string(), system.clone()),
                ];
                if !matches!(org, Json::Null) {
                    obj.push(("organization".to_string(), org.clone()));
                }
                for field in ["scale", "misalignment_sensitive"] {
                    if let Some(v) = body.get(field) {
                        obj.push((field.to_string(), v.clone()));
                    }
                }
                entries.push(Json::Obj(obj));
            }
        }
    }
    Ok(entries)
}

/// The stable per-entry error code in sweep NDJSON records.
fn engine_error_code(e: &EngineError) -> &'static str {
    match e {
        EngineError::Quarantined { .. } => "quarantined",
        _ => "execution_failed",
    }
}

/// One NDJSON line of a sweep stream. Deliberately free of timing and
/// cache-disposition fields, so a warm repeat of the same sweep emits
/// byte-identical records (only the trailing summary line varies).
fn sweep_record_json(rec: &SweepRecord) -> Json {
    let mut obj = vec![
        ("index".to_string(), Json::U64(rec.index as u64)),
        ("key".to_string(), Json::str(rec.key_hex.clone())),
    ];
    match &rec.result {
        Ok(report) => {
            obj.push(("status".to_string(), Json::str("ok")));
            obj.push(("deduped".to_string(), Json::Bool(rec.deduped)));
            obj.push(("report".to_string(), report_json(report)));
        }
        Err(e) => {
            obj.push(("status".to_string(), Json::str("error")));
            obj.push(("deduped".to_string(), Json::Bool(rec.deduped)));
            obj.push((
                "error".to_string(),
                Json::Obj(vec![
                    ("code".into(), Json::str(engine_error_code(e))),
                    ("message".into(), Json::str(e.to_string())),
                ]),
            ));
        }
    }
    Json::Obj(obj)
}

/// The trailing NDJSON summary line of a sweep stream (the one line that
/// carries timing, excluded from byte-identity guarantees).
fn sweep_summary_json(outcome: &heteropipe_engine::SweepOutcome) -> Json {
    let s = &outcome.summary;
    Json::Obj(vec![(
        "sweep".to_string(),
        Json::Obj(vec![
            ("key".into(), Json::str(outcome.key_hex.clone())),
            ("jobs_total".into(), Json::U64(s.jobs_total)),
            ("jobs_unique".into(), Json::U64(s.jobs_unique)),
            ("duplicates".into(), Json::U64(s.duplicates)),
            ("cache_hits".into(), Json::U64(s.cache_hits)),
            ("executed".into(), Json::U64(s.executed)),
            ("coalesced".into(), Json::U64(s.coalesced)),
            ("failed".into(), Json::U64(s.failed)),
            ("wall_ms".into(), Json::U64(s.wall_ns / 1_000_000)),
            ("speedup_vs_serial".into(), Json::F64(s.speedup_vs_serial())),
        ]),
    )])
}

/// Builds the graph a `POST /v1/workflows` body describes: either a
/// built-in named graph (`"workflow"` plus optional `"scale"`) or an
/// inline `"stages"` array of sweep stages with dependency edges.
pub fn workflow_graph(body: &Json) -> Result<TaskGraph, SpecError> {
    if let Some(name) = body.get("workflow") {
        let Some(name) = name.as_str() else {
            return Err(SpecError::bad("\"workflow\" must be a string"));
        };
        let scale = parse_scale(body).map_err(SpecError::bad)?;
        return match figures::graph(name, scale, false) {
            Some(fg) => Ok(fg.graph),
            None => Err(SpecError::new(
                404,
                "not_found",
                format!(
                    "unknown workflow: {name} (built-ins: {})",
                    figures::names().join(", ")
                ),
            )),
        };
    }
    let Some(stages) = body.get("stages") else {
        return Err(SpecError::bad(
            "body needs \"workflow\" (built-in name) or \"stages\" (array of stage objects)",
        ));
    };
    let Some(stages) = stages.as_array() else {
        return Err(SpecError::bad("\"stages\" must be an array"));
    };
    if stages.is_empty() {
        return Err(SpecError::bad("workflow has no stages"));
    }
    if stages.len() > MAX_WORKFLOW_STAGES {
        return Err(SpecError::new(
            413,
            "payload_too_large",
            format!(
                "workflow of {} stages exceeds the {MAX_WORKFLOW_STAGES}-stage cap",
                stages.len()
            ),
        ));
    }
    let mut graph = TaskGraph::new("inline");
    let mut total_jobs = 0usize;
    for (i, stage) in stages.iter().enumerate() {
        let Json::Obj(_) = stage else {
            return Err(SpecError::bad(format!("stages[{i}] must be an object")));
        };
        let built = inline_stage(stage, &mut total_jobs)
            .map_err(|e| SpecError::new(e.status, e.code, format!("stages[{i}]: {}", e.message)))?;
        let name = built.name().to_owned();
        graph.add(built);
        graph.output(name);
    }
    Ok(graph)
}

/// Parses one inline workflow stage: a name, optional `deps`, and a sweep
/// body (the same `jobs` / `benchmarks` forms as `POST /v1/sweeps`). The
/// stage key is derived from the sweep's content address, so identical
/// inline sweep stages memoize across workflows.
fn inline_stage(stage: &Json, total_jobs: &mut usize) -> Result<Stage, SpecError> {
    let Some(name) = stage.get("name").and_then(Json::as_str) else {
        return Err(SpecError::bad("missing field: name"));
    };
    let deps: Vec<String> = match stage.get("deps") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Arr(items)) => {
            let mut deps = Vec::with_capacity(items.len());
            for d in items {
                match d.as_str() {
                    Some(s) => deps.push(s.to_owned()),
                    None => return Err(SpecError::bad("\"deps\" entries must be stage names")),
                }
            }
            deps
        }
        Some(_) => return Err(SpecError::bad("\"deps\" must be an array of stage names")),
    };
    let entries = sweep_entries(stage)?;
    if entries.is_empty() {
        return Err(SpecError::bad("stage sweep has no jobs"));
    }
    *total_jobs += entries.len();
    if *total_jobs > MAX_SWEEP_JOBS {
        return Err(SpecError::new(
            413,
            "payload_too_large",
            format!("workflow exceeds the {MAX_SWEEP_JOBS}-job cap across its stages"),
        ));
    }
    let mut owned = Vec::with_capacity(entries.len());
    for (j, entry) in entries.iter().enumerate() {
        match parse_job_spec(entry) {
            Ok(job) => owned.push(job),
            Err(e) => {
                return Err(SpecError::new(
                    e.status,
                    e.code,
                    format!("jobs[{j}]: {}", e.message),
                ))
            }
        }
    }
    let keys: Vec<RunKey> = owned.iter().map(|o| run_key(&o.spec())).collect();
    let sweep_hex = sweep_key(&keys).hex();
    let mut built = Stage::new(name, StageKind::Sweep, move |ctx| {
        let specs: Vec<JobSpec<'_>> = owned.iter().map(OwnedJobSpec::spec).collect();
        let records = Mutex::new(Vec::with_capacity(specs.len()));
        let outcome = ctx.engine().execute_sweep_observed(&specs, None, &|rec| {
            records
                .lock()
                .unwrap()
                .push((rec.index, sweep_record_json(rec).dump()));
        });
        if outcome.summary.failed > 0 {
            return Err(format!(
                "{} of {} sweep jobs failed",
                outcome.summary.failed, outcome.summary.jobs_total
            ));
        }
        // Completion order is nondeterministic; the stage value is the
        // records in submission order, one JSON line each.
        let mut records = records.into_inner().unwrap();
        records.sort_by_key(|&(i, _)| i);
        let mut text = String::new();
        for (_, line) in records {
            text.push_str(&line);
            text.push('\n');
        }
        Ok(StageValue::from_text(text))
    })
    .input(format!("jobs={sweep_hex}"));
    for d in deps {
        built = built.dep(d);
    }
    Ok(built)
}

/// One NDJSON stage-completion event of a workflow stream (also the
/// `events` entries of the journaled result).
pub fn stage_event_json(ev: &StageEvent) -> Json {
    let mut obj = vec![
        ("stage".to_string(), Json::str(ev.stage.clone())),
        ("kind".to_string(), Json::str(ev.kind.label())),
        ("key".to_string(), Json::str(ev.key_hex.clone())),
        ("status".to_string(), Json::str(ev.status.label())),
        ("cache_hit".to_string(), Json::Bool(ev.cache_hit)),
        ("wall_ms".to_string(), Json::U64(ev.wall_ns / 1_000_000)),
    ];
    if let Some(e) = &ev.error {
        obj.push((
            "error".to_string(),
            Json::Obj(vec![("message".into(), Json::str(e.clone()))]),
        ));
    }
    Json::Obj(obj)
}

/// The workflow summary object shared by the trailing NDJSON line and the
/// journaled-result lookup.
pub fn workflow_summary_json(result: &WorkflowResult) -> Json {
    let s = &result.summary;
    Json::Obj(vec![(
        "workflow".to_string(),
        Json::Obj(vec![
            ("key".into(), Json::str(result.key_hex.clone())),
            ("name".into(), Json::str(result.name.clone())),
            ("stages_total".into(), Json::U64(s.stages_total)),
            ("executed".into(), Json::U64(s.executed)),
            ("cache_hits".into(), Json::U64(s.cache_hits)),
            ("failed".into(), Json::U64(s.failed)),
            ("skipped".into(), Json::U64(s.skipped)),
            ("wall_ms".into(), Json::U64(s.wall_ns / 1_000_000)),
        ]),
    )])
}

/// The `GET /v1/workflows/{key}` body: summary, per-stage events, and the
/// rendered text of every declared output stage.
pub fn workflow_result_json(result: &WorkflowResult) -> Json {
    let mut fields = match workflow_summary_json(result) {
        Json::Obj(fields) => fields,
        _ => unreachable!("summary is an object"),
    };
    fields.push((
        "events".to_string(),
        Json::Arr(result.events.iter().map(stage_event_json).collect()),
    ));
    fields.push((
        "outputs".to_string(),
        Json::Arr(
            result
                .outputs
                .iter()
                .map(|(stage, text)| {
                    Json::Obj(vec![
                        ("stage".into(), Json::str(stage.clone())),
                        ("text".into(), Json::str(text.as_str())),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(fields)
}

/// The `GET /v1/benchmarks` census response (also served locally by the
/// cluster coordinator — the catalogue is static, so no proxying).
pub fn benchmarks() -> Response {
    let all = registry::all();
    let examined = all.iter().filter(|w| w.meta.examined).count();
    let list: Vec<Json> = all.iter().map(benchmark_json).collect();
    Response::json(
        200,
        &Json::Obj(vec![
            ("total".into(), Json::U64(all.len() as u64)),
            ("examined".into(), Json::U64(examined as u64)),
            ("benchmarks".into(), Json::Arr(list)),
        ]),
    )
    .into_chunked()
}

fn benchmark_json(w: &Workload) -> Json {
    let m = &w.meta;
    Json::Obj(vec![
        ("name".into(), Json::str(m.full_name())),
        ("suite".into(), Json::str(m.suite.to_string())),
        ("examined".into(), Json::Bool(m.examined)),
        (
            "runnable".into(),
            Json::Bool(w.pipeline(Scale::TEST).is_some()),
        ),
        ("pc_comm".into(), Json::Bool(m.pc_comm)),
        ("pipe_parallel".into(), Json::Bool(m.pipe_parallel)),
        ("regular".into(), Json::Bool(m.regular)),
        ("irregular".into(), Json::Bool(m.irregular)),
        ("sw_queue".into(), Json::Bool(m.sw_queue)),
        (
            "misalignment_sensitive".into(),
            Json::Bool(m.misalignment_sensitive),
        ),
    ])
}

/// Whether a request's `If-None-Match` header matches `etag` (a quoted
/// entity tag). Strong comparison over a comma-separated candidate list,
/// tolerating a `W/` weakness prefix, the bare unquoted tag (clients
/// often echo the `X-Run-Key` value directly), and `*`.
fn if_none_match(req: &Request, etag: &str) -> bool {
    let Some(raw) = req.header("if-none-match") else {
        return false;
    };
    let bare = etag.trim_matches('"');
    raw.split(',').map(str::trim).any(|cand| {
        let cand = cand.strip_prefix("W/").unwrap_or(cand);
        cand == "*" || cand == etag || cand == bare
    })
}

/// The experiment catalogue: every paper figure/table reproduction the
/// API can execute, with its paper section and the knobs a `POST` body
/// accepts. One row per `{id}` of `/v1/experiments/{id}`.
const EXPERIMENTS: &[(&str, &str, &str)] = &[
    (
        "fig3",
        "kmeans case study: run time and component activity across five organizations",
        "II",
    ),
    (
        "fig4",
        "memory footprint by component set, copy vs limited-copy",
        "IV-A",
    ),
    (
        "fig5",
        "memory accesses by component, copy vs limited-copy",
        "IV-B",
    ),
    (
        "fig6",
        "run time activity breakdown, copy vs limited-copy",
        "IV-C",
    ),
    ("fig7", "component-overlap run time estimate (Eq. 1)", "V-A"),
    (
        "fig8",
        "migrated-compute run time estimate (Eq. 2-4)",
        "V-B",
    ),
    (
        "fig9",
        "off-chip memory accesses classified by cause",
        "IV-D",
    ),
    ("table1", "simulated system parameters", "III"),
    (
        "table2",
        "producer-consumer constructs census, 58 benchmarks",
        "III",
    ),
];

/// One experiment's metadata object (the `GET /v1/experiments/{id}` body
/// and the per-entry shape of the index).
fn experiment_json(id: &str, title: &str, section: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::str(id)),
        ("title".into(), Json::str(title)),
        ("section".into(), Json::str(section)),
        ("knobs".into(), Json::Arr(vec![Json::str("scale")])),
        (
            "execute".into(),
            Json::str(format!("POST /v1/experiments/{id}")),
        ),
    ])
}

/// The `GET /v1/experiments` index body: every figure/table reproduction
/// with id, title, paper section, and accepted knobs. Also served
/// locally by the cluster coordinator — the catalogue is static, so no
/// proxying.
pub fn experiments_index() -> Json {
    Json::Obj(vec![
        ("total".into(), Json::U64(EXPERIMENTS.len() as u64)),
        (
            "experiments".into(),
            Json::Arr(
                EXPERIMENTS
                    .iter()
                    .map(|&(id, title, section)| experiment_json(id, title, section))
                    .collect(),
            ),
        ),
    ])
}

/// The metadata object for one experiment id, or `None` when unknown.
pub fn experiment_meta(id: &str) -> Option<Json> {
    EXPERIMENTS
        .iter()
        .find(|&&(eid, _, _)| eid == id)
        .map(|&(eid, title, section)| experiment_json(eid, title, section))
}

/// The `GET /v1/experiments` response.
pub fn experiments() -> Response {
    Response::json(200, &experiments_index()).into_chunked()
}

/// The `GET /v1/experiments/{id}` response: metadata only — execution
/// stays on `POST`.
pub fn experiment_lookup(req: &Request, id: &str) -> Response {
    match experiment_meta(id) {
        Some(meta) => Response::json(200, &meta),
        None => fail(
            req,
            404,
            "not_found",
            &format!("unknown experiment: {id} (fig3..fig9, table1, table2)"),
        ),
    }
}

/// Renders a [`RunReport`] as a JSON object. Every field is an integer,
/// string, or bool except `gpu_utilization` (derived, deterministic), so
/// identical reports always serialize to identical bytes.
pub fn report_json(r: &RunReport) -> Json {
    let platform = match r.platform {
        Platform::DiscreteGpu => "discrete",
        Platform::Heterogeneous => "heterogeneous",
    };
    Json::Obj(vec![
        ("benchmark".into(), Json::str(r.benchmark.clone())),
        ("platform".into(), Json::str(platform)),
        ("organization".into(), Json::str(r.organization.to_string())),
        ("roi_ps".into(), Json::U64(r.roi.as_picos())),
        (
            "busy_ps".into(),
            Json::Obj(vec![
                ("copy".into(), Json::U64(r.busy.copy.as_picos())),
                ("cpu".into(), Json::U64(r.busy.cpu.as_picos())),
                ("gpu".into(), Json::U64(r.busy.gpu.as_picos())),
            ]),
        ),
        (
            "exclusive".into(),
            Json::Arr(
                r.exclusive
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("components".into(), Json::str(s.components.clone())),
                            ("ps".into(), Json::U64(s.time.as_picos())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "accesses".into(),
            Json::Obj(vec![
                ("copy".into(), Json::U64(r.accesses[0])),
                ("cpu".into(), Json::U64(r.accesses[1])),
                ("gpu".into(), Json::U64(r.accesses[2])),
            ]),
        ),
        (
            "offchip".into(),
            Json::Obj(vec![
                ("fetches".into(), Json::U64(r.offchip_fetches)),
                ("writebacks".into(), Json::U64(r.offchip_writebacks)),
                ("bytes".into(), Json::U64(r.offchip_bytes)),
            ]),
        ),
        (
            "classes".into(),
            Json::Obj(
                AccessClass::ALL
                    .iter()
                    .map(|&c| (c.label().to_string(), Json::U64(r.classes.get(c))))
                    .collect(),
            ),
        ),
        (
            "footprint".into(),
            Json::Arr(
                r.footprint
                    .iter()
                    .map(|&(set, bytes)| {
                        Json::Obj(vec![
                            ("components".into(), Json::str(set.label())),
                            ("bytes".into(), Json::U64(bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_footprint_bytes".into(), Json::U64(r.total_footprint)),
        ("faults".into(), Json::U64(r.faults)),
        ("c_serial_ps".into(), Json::U64(r.c_serial.as_picos())),
        ("cpu_flops".into(), Json::U64(r.cpu_flops)),
        ("gpu_flops".into(), Json::U64(r.gpu_flops)),
        ("remote_hits".into(), Json::U64(r.remote_hits)),
        ("bw_limited".into(), Json::Bool(r.bw_limited)),
        ("gpu_utilization".into(), Json::F64(r.gpu_utilization())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_resource_paths_split_and_keys_validate() {
        assert_eq!(split_resource("abc123"), ("abc123", None));
        assert_eq!(split_resource("abc123/trace"), ("abc123", Some("trace")));
        assert_eq!(split_resource("a/b/trace"), ("a", Some("b/trace")));
        assert_eq!(split_resource(""), ("", None));

        let hex = "0123456789abcdef0123456789abcdef";
        assert!(valid_run_key(hex));
        assert!(valid_run_key(&hex.to_ascii_uppercase()));
        assert!(!valid_run_key(""));
        assert!(!valid_run_key("abc123"), "too short");
        assert!(!valid_run_key(&"g".repeat(32)), "non-hex");
        assert!(!valid_run_key(&format!("{hex}0")), "too long");
    }

    #[test]
    fn sweep_entry_generator_expands_the_cross_product() {
        let body = Json::Obj(vec![
            (
                "benchmarks".into(),
                Json::Arr(vec![Json::str("rodinia/kmeans"), Json::str("rodinia/srad")]),
            ),
            (
                "systems".into(),
                Json::Arr(vec![Json::str("discrete"), Json::str("heterogeneous")]),
            ),
            ("scale".into(), Json::F64(0.08)),
        ]);
        let entries = sweep_entries(&body).unwrap();
        assert_eq!(entries.len(), 4, "2 benchmarks x 2 systems");
        for e in &entries {
            assert!(e.get("benchmark").and_then(Json::as_str).is_some());
            assert!(e.get("system").and_then(Json::as_str).is_some());
            assert_eq!(e.get("scale").and_then(Json::as_f64), Some(0.08));
        }
        // Every generated entry parses into a runnable job spec.
        assert!(entries.iter().all(|e| parse_job_spec(e).is_ok()));

        // An explicit jobs array passes through untouched.
        let explicit = Json::Obj(vec![(
            "jobs".into(),
            Json::Arr(vec![Json::Obj(vec![(
                "benchmark".into(),
                Json::str("rodinia/kmeans"),
            )])]),
        )]);
        assert_eq!(sweep_entries(&explicit).unwrap().len(), 1);

        // Neither jobs nor a benchmark set: a 400-shaped error.
        let err = sweep_entries(&Json::Obj(Vec::new())).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn job_spec_parse_errors_carry_envelope_codes() {
        let spec = |fields: Vec<(String, Json)>| parse_job_spec(&Json::Obj(fields));
        let err = spec(vec![]).unwrap_err();
        assert_eq!((err.status, err.code), (400, "bad_request"));
        let err = spec(vec![("benchmark".into(), Json::str("rodinia/nonesuch"))]).unwrap_err();
        assert_eq!((err.status, err.code), (404, "not_found"));
        let err = spec(vec![
            ("benchmark".into(), Json::str("rodinia/kmeans")),
            (
                "organization".into(),
                Json::Obj(vec![("chunked_parallel".into(), Json::U64(8))]),
            ),
        ])
        .unwrap_err();
        assert_eq!((err.status, err.code), (400, "bad_request"));
        assert!(spec(vec![("benchmark".into(), Json::str("rodinia/kmeans"))]).is_ok());
    }

    #[test]
    fn metrics_format_negotiation() {
        let req = |query: &str, accept: Option<&str>| Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: query.into(),
            headers: accept
                .map(|a| vec![("accept".to_string(), a.to_string())])
                .unwrap_or_default(),
            body: Vec::new(),
            http10: false,
            request_id: String::new(),
        };
        assert!(wants_prometheus(&req("format=prometheus", None)));
        assert!(!wants_prometheus(&req("", None)), "JSON by default");
        assert!(wants_prometheus(&req("", Some("text/plain"))));
        assert!(wants_prometheus(&req(
            "",
            Some("application/openmetrics-text; version=1.0.0")
        )));
        assert!(
            !wants_prometheus(&req("format=json", Some("text/plain"))),
            "explicit query parameter beats the Accept header"
        );
        assert!(!wants_prometheus(&req("", Some("application/json"))));
    }

    #[test]
    fn organization_parsing() {
        assert_eq!(parse_organization(None), Ok(Organization::Serial));
        assert_eq!(
            parse_organization(Some(&Json::str("serial"))),
            Ok(Organization::Serial)
        );
        let streams = Json::Obj(vec![("async_streams".into(), Json::U64(3))]);
        assert_eq!(
            parse_organization(Some(&streams)),
            Ok(Organization::AsyncStreams { streams: 3 })
        );
        let chunks = Json::Obj(vec![("chunked_parallel".into(), Json::U64(8))]);
        assert_eq!(
            parse_organization(Some(&chunks)),
            Ok(Organization::ChunkedParallel { chunks: 8 })
        );
        assert!(parse_organization(Some(&Json::str("bogus"))).is_err());
        let zero = Json::Obj(vec![("async_streams".into(), Json::U64(0))]);
        assert!(parse_organization(Some(&zero)).is_err());
    }

    #[test]
    fn scale_parsing_defaults_to_paper() {
        assert_eq!(parse_scale(&Json::Obj(Vec::new())).unwrap(), Scale::PAPER);
        let custom = Json::Obj(vec![("scale".into(), Json::F64(0.08))]);
        assert_eq!(parse_scale(&custom).unwrap(), Scale::new(0.08));
        let bad = Json::Obj(vec![("scale".into(), Json::F64(-1.0))]);
        assert!(parse_scale(&bad).is_err());
    }

    #[test]
    fn report_json_round_trips_and_is_deterministic() {
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let report = heteropipe::run::run(&p, &cfg, Organization::Serial, false);
        let a = report_json(&report).dump();
        let b = report_json(&report).dump();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("server JSON must parse");
        assert_eq!(
            parsed.get("benchmark").and_then(Json::as_str),
            Some("rodinia/kmeans")
        );
        assert_eq!(
            parsed.get("roi_ps").and_then(Json::as_u64),
            Some(report.roi.as_picos())
        );
        let classes = parsed.get("classes").unwrap();
        assert!(classes.get("required").and_then(Json::as_u64).is_some());
    }
}
