//! The request core both front doors share. serve's [`Api`] answers the
//! HTTP surface from one node's engine; the cluster coordinator answers
//! the same surface by placing work on workers. Everything the two
//! answer the same way lives here, written once over the small
//! [`Backend`] trait each of them implements:
//!
//! * the router, deprecated aliases included (see `docs/api.md` §1);
//! * admission: the per-tenant token bucket, then the `X-Deadline-Ms`
//!   budget, carried onward as one [`Deadline`];
//! * the async-job layer behind `?async=1`: the idempotent 202 submit,
//!   the write-ahead intent, the driver that journals each record (a
//!   failed append is retried once after the run, and the segment is
//!   sealed only once every record is in), and startup resume;
//! * the sweep status and records routes and the workflow lookup;
//! * inline workflow graphs, whose sweep stages run through the backend,
//!   and the synchronous workflow stream;
//! * the `/metrics` families both processes emit, in both formats.
//!
//! A backend keeps only what really differs: how a run, a sweep, a trace,
//! an experiment and a named built-in workflow are answered, readiness,
//! what a workflow lookup does when the key is not known locally, and its
//! own metric blocks.
//!
//! [`Api`]: crate::Api

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use heteropipe_engine::{run_key, sweep_key, Journal, Replay, RunKey};
use heteropipe_faults::Injector;
use heteropipe_flow::{figures, FlowRunner, Stage, StageEvent, StageKind, StageValue, TaskGraph};
use heteropipe_obs::log as obs_log;
use heteropipe_obs::MetricRegistry;

use crate::api::{
    self, parse_body, parse_job_spec, stage_event_json, sweep_entries, workflow_result_json,
    workflow_summary_json, OwnedJobSpec, SpecError, MAX_SWEEP_JOBS, MAX_WORKFLOW_STAGES,
};
use crate::breaker::CircuitBreaker;
use crate::error::envelope;
use crate::http::{BodyStream, Request, Response};
use crate::jobs::{self, AsyncJob, AsyncJobs, JobState};
use crate::json::Json;
use crate::server::{Handler, Server, ServerConfig, ServerHandle, ServerStats};
use crate::tenant::{Admit, TenantGate};

/// How a front door names itself in error hints and log lines.
#[derive(Debug, Clone, Copy)]
pub struct Door {
    /// The process in prose: `"server"` or `"coordinator"`.
    pub noun: &'static str,
    /// The binary that starts it (a hint names `<bin> --journal-dir`).
    pub bin: &'static str,
    /// The log target of its async layer.
    pub log: &'static str,
}

/// What a front door answers its own way. The request core routes,
/// admits and journals; a backend executes.
pub trait Backend: Handler + Sized {
    /// How this door names itself.
    const DOOR: Door;
    /// A sweep this backend accepted (see [`Backend::sweep`]).
    type Sweep: SweepRun;

    /// The state the request core keeps for this door.
    fn core(&self) -> &Core<Self>;
    /// `POST /v1/runs` for an already parsed job spec.
    fn run(&self, req: &Request, job: &OwnedJobSpec) -> Response;
    /// `GET /v1/runs/{key}`; `key` is 32 hex digits.
    fn run_report(&self, req: &Request, key: &str) -> Response;
    /// `GET /v1/runs/{key}/trace`; `key` is 32 hex digits.
    fn run_trace(&self, req: &Request, key: &str) -> Response;
    /// `GET /v1/sweeps/{key}/trace`; `key` is 32 hex digits.
    fn sweep_trace(&self, req: &Request, key: &str) -> Response;
    /// Accepts a validated sweep on behalf of request `rid`. An `Err`
    /// refuses the whole sweep before any record exists: the synchronous
    /// route answers it with an envelope, so a backend that resolves the
    /// sweep here rather than in [`SweepRun::emit`] can still refuse
    /// (for instance with a 504 once `deadline` is spent).
    fn sweep(
        &self,
        job: &Arc<SweepJob>,
        rid: &str,
        deadline: Deadline,
    ) -> Result<Self::Sweep, SpecError>;
    /// `POST /v1/experiments/{name}`.
    fn experiment(&self, req: &Request, name: &str) -> Response;
    /// `POST /v1/workflows` naming a built-in graph, already validated
    /// and keyed.
    fn named_workflow(&self, req: &Request, body: Json, graph: TaskGraph, key: RunKey) -> Response;
    /// `GET /v1/workflows/{key}` for a lowercase key with no local
    /// result, job or journal segment.
    fn workflow_elsewhere(&self, req: &Request, key: &str) -> Response;
    /// Readiness beyond the shared shutdown check.
    fn readiness(&self) -> Readiness;
    /// The injector whose fired faults `/metrics` reports alongside the
    /// server's own.
    fn faults(&self) -> &Injector;
    /// Registers this door's own Prometheus families, which render ahead
    /// of the shared ones.
    fn prometheus(&self, r: &MetricRegistry);
    /// The JSON `/metrics` fields, in order, built around the shared ones.
    fn metrics_json(&self, shared: Vec<(String, Json)>) -> Vec<(String, Json)>;
}

/// A sweep a backend accepted.
pub trait SweepRun: Send + Sync + 'static {
    /// Produces every record line, in any order, passing its index and
    /// whether it carries an error; returns the trailing summary object.
    /// `record` is called from one thread at a time.
    fn emit(&self, record: &mut RecordFn<'_>) -> Json;
}

/// The record callback of [`SweepRun::emit`].
pub type RecordFn<'a> = dyn FnMut(u64, &str, bool) + Send + 'a;

/// What a backend says about taking traffic.
pub struct Readiness {
    /// Probe fields, shown between `status` and `shutting_down`.
    pub fields: Vec<(String, Json)>,
    /// Why the backend cannot take traffic, when it cannot.
    pub unready: Option<&'static str>,
    /// `Retry-After` seconds for an unready answer.
    pub retry_after_s: u64,
}

/// A validated sweep: its expanded entries (what an async intent
/// journals), their parsed specs and run keys, and its content address.
#[derive(Debug)]
pub struct SweepJob {
    /// Expanded per-job entries, in submission order.
    pub entries: Vec<Json>,
    /// The parsed spec of each entry.
    pub(crate) specs: Vec<OwnedJobSpec>,
    /// The run key of each entry.
    pub keys: Vec<RunKey>,
    /// The sweep key, as hex.
    pub key_hex: String,
}

impl SweepJob {
    /// Parses every entry. On failure: the first bad entry's index and
    /// why it failed.
    pub fn parse(entries: Vec<Json>) -> Result<SweepJob, (usize, SpecError)> {
        let specs = entries
            .iter()
            .enumerate()
            .map(|(i, e)| parse_job_spec(e).map_err(|err| (i, err)))
            .collect::<Result<Vec<_>, _>>()?;
        let keys: Vec<RunKey> = specs.iter().map(|s| run_key(&s.spec())).collect();
        let key_hex = sweep_key(&keys).hex();
        Ok(SweepJob {
            entries,
            specs,
            keys,
            key_hex,
        })
    }
}

/// A request's absolute deadline, derived at admission from its
/// `X-Deadline-Ms` budget. Each hop onward re-derives the budget left.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Option<Instant>);

/// The budget of a [`Deadline`] is spent.
#[derive(Debug)]
pub struct Expired;

impl Deadline {
    /// No deadline: every hop proceeds and none is forwarded.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// The deadline a request's (already admitted) header implies.
    pub fn from_request(req: &Request) -> Deadline {
        Deadline(
            deadline_ms(req)
                .ok()
                .flatten()
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
        )
    }

    /// The absolute instant, if any.
    pub fn instant(&self) -> Option<Instant> {
        self.0
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|dl| Instant::now() >= dl)
    }

    /// Milliseconds left to forward as the next hop's `X-Deadline-Ms`:
    /// `None` without a deadline. A whole millisecond must be left, since
    /// forwarding `0` would only make the next hop refuse.
    pub fn remaining_ms(&self) -> Result<Option<u64>, Expired> {
        match self.0 {
            None => Ok(None),
            Some(dl) => match dl.saturating_duration_since(Instant::now()).as_millis() {
                0 => Err(Expired),
                left => Ok(Some(left as u64)),
            },
        }
    }
}

/// The state the request core keeps for one front door. The server and
/// the process attach theirs before serving (see [`start`]); later
/// attachments are ignored.
pub struct Core<B> {
    me: Weak<B>,
    flow: Arc<FlowRunner>,
    stats: OnceLock<Arc<ServerStats>>,
    breaker: OnceLock<Arc<CircuitBreaker>>,
    server_faults: OnceLock<Arc<Injector>>,
    journal: OnceLock<Arc<Journal>>,
    tenants: OnceLock<Arc<TenantGate>>,
    async_jobs: AsyncJobs,
    deadline_exceeded: AtomicU64,
}

impl<B: Backend> Core<B> {
    /// Core state for the backend `me` points to (build it inside
    /// `Arc::new_cyclic`), running workflows on `flow`.
    pub fn new(me: Weak<B>, flow: Arc<FlowRunner>) -> Core<B> {
        Core {
            me,
            flow,
            stats: OnceLock::new(),
            breaker: OnceLock::new(),
            server_faults: OnceLock::new(),
            journal: OnceLock::new(),
            tenants: OnceLock::new(),
            async_jobs: AsyncJobs::new(),
            deadline_exceeded: AtomicU64::new(0),
        }
    }

    /// The workflow runner behind `POST /v1/workflows`.
    pub fn flow(&self) -> &Arc<FlowRunner> {
        &self.flow
    }

    /// The write-ahead journal, when one is attached.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.get()
    }

    /// The server's circuit breaker, when attached.
    pub fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        self.breaker.get()
    }

    /// Wires in the server's counters for `/metrics` and readiness.
    pub fn attach_stats(&self, stats: Arc<ServerStats>) {
        let _ = self.stats.set(stats);
    }

    /// Wires in the server's circuit breaker for `/metrics`.
    pub fn attach_breaker(&self, breaker: Arc<CircuitBreaker>) {
        let _ = self.breaker.set(breaker);
    }

    /// Wires in the server's fault injector for `/metrics`.
    pub fn attach_faults(&self, faults: Arc<Injector>) {
        let _ = self.server_faults.set(faults);
    }

    /// Wires in the write-ahead journal that enables `?async=1` and
    /// crash-resume.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        let _ = self.journal.set(journal);
    }

    /// Wires in the per-tenant admission gate.
    pub fn attach_tenants(&self, tenants: Arc<TenantGate>) {
        let _ = self.tenants.set(tenants);
    }

    /// The envelope for `e`. A deadline abort counts toward
    /// `heteropipe_deadline_exceeded_total` and carries `Retry-After`.
    pub fn refuse(&self, request_id: &str, e: &SpecError) -> Response {
        let retry = (e.code == "deadline_exceeded").then(|| {
            self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            1
        });
        envelope(e.status, e.code, &e.message, retry, request_id)
    }

    /// The 504 for a request whose deadline budget is already spent.
    pub fn deadline_refusal(&self, req: &Request) -> Response {
        let spent = SpecError::new(
            504,
            "deadline_exceeded",
            "deadline budget exhausted before execution",
        );
        self.refuse(&req.request_id, &spent)
    }

    /// The admission check every route but the operator surfaces (health
    /// probes, metric scrapes) passes: the tenant's token bucket first,
    /// then the `X-Deadline-Ms` budget. `None` means admitted.
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

    fn backend(&self) -> Arc<B> {
        self.me
            .upgrade()
            .expect("a front door outlives the requests it serves")
    }
}

/// Binds and starts a server running `backend`: the tenant gate comes
/// from `HETEROPIPE_TENANTS` (a malformed plan fails startup), and with a
/// journal any interrupted async job is resumed once the listener runs.
pub fn start<B: Backend>(
    cfg: ServerConfig,
    backend: Arc<B>,
    journal: Option<Arc<Journal>>,
) -> std::io::Result<ServerHandle> {
    let core = backend.core();
    core.attach_faults(Arc::clone(&cfg.faults));
    let tenants = TenantGate::from_env()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    core.attach_tenants(Arc::new(tenants));
    if let Some(journal) = journal {
        core.attach_journal(journal);
    }
    let server = Server::bind(cfg, Arc::clone(&backend) as Arc<dyn Handler>)?;
    core.attach_stats(server.stats());
    core.attach_breaker(server.breaker());
    let handle = server.start();
    resume_incomplete(&*backend);
    Ok(handle)
}

/// Routes one request: admission, then the shared routes and the
/// backend's.
pub fn handle<B: Backend>(b: &B, req: &Request) -> Response {
    if let Some(refused) = b.core().admission(req) {
        return refused;
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz" | "/healthz/live") => health(),
        ("GET", "/healthz/ready") => ready(b, req),
        ("GET", "/metrics") => metrics(b, req),
        ("GET", "/v1/benchmarks") => api::benchmarks(),
        ("GET", "/v1/debug/profile") => profile_snapshot(),
        ("POST", "/v1/runs") => run(b, req),
        // Deprecated alias for `POST /v1/runs` (see docs/api.md).
        ("POST", "/v1/run") => deprecated(run(b, req), "/v1/runs"),
        ("POST", "/v1/sweeps") => sweeps(b, req),
        ("POST", "/v1/workflows") => workflows(b, req),
        (_, path) if path.starts_with("/v1/workflows/") => {
            let key = &path["/v1/workflows/".len()..];
            if req.method == "GET" {
                workflow_lookup(b, req, key)
            } else {
                method_not_allowed(req, "GET")
            }
        }
        (_, path) if path.starts_with("/v1/runs/") => {
            run_resource(b, req, &path["/v1/runs/".len()..], false)
        }
        (_, path) if path.starts_with("/v1/sweeps/") => {
            sweep_resource(b, req, &path["/v1/sweeps/".len()..])
        }
        // Deprecated alias prefix for `/v1/runs/{key}/trace`.
        (_, path) if path.starts_with("/v1/run/") => {
            run_resource(b, req, &path["/v1/run/".len()..], true)
        }
        ("GET", "/v1/experiments") => api::experiments(),
        ("GET", path) if path.starts_with("/v1/experiments/") => {
            api::experiment_lookup(req, &path["/v1/experiments/".len()..])
        }
        ("POST", path) if path.starts_with("/v1/experiments/") => {
            b.experiment(req, &path["/v1/experiments/".len()..])
        }
        (_, "/healthz" | "/healthz/live" | "/healthz/ready" | "/metrics" | "/v1/benchmarks") => {
            method_not_allowed(req, "GET")
        }
        (_, "/v1/runs" | "/v1/run" | "/v1/sweeps" | "/v1/workflows") => {
            method_not_allowed(req, "POST")
        }
        (_, "/v1/experiments") => method_not_allowed(req, "GET"),
        (_, path) if path.starts_with("/v1/experiments/") => method_not_allowed(req, "GET, POST"),
        _ => fail(req, 404, "not_found", "no such route"),
    }
}

/// Parses the `X-Deadline-Ms` header: the caller's remaining budget in
/// milliseconds, decremented hop by hop across the cluster. Absent means
/// no deadline; a non-integer value is a 400-shaped error.
fn deadline_ms(req: &Request) -> Result<Option<u64>, String> {
    match req.header("x-deadline-ms") {
        None => Ok(None),
        Some(v) => v.trim().parse::<u64>().map(Some).map_err(|_| {
            format!("X-Deadline-Ms must be a non-negative integer of milliseconds, got {v:?}")
        }),
    }
}

/// Whether the request asked for asynchronous (journaled) execution:
/// `?async=1` or `?async=true`.
fn wants_async(req: &Request) -> bool {
    req.query
        .split('&')
        .any(|kv| kv == "async=1" || kv == "async=true")
}

/// Parses the `?from_index=N` resume cursor of a `/records` fetch.
fn from_index(req: &Request) -> Result<u64, String> {
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

/// Whether a `/metrics` request asked for Prometheus text format instead
/// of the JSON default: `?format=prometheus` wins, `?format=json` forces
/// JSON, otherwise an `Accept` header preferring `text/plain` (or an
/// OpenMetrics type) selects Prometheus.
pub(crate) fn wants_prometheus(req: &Request) -> bool {
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

/// The error envelope with the request's correlation id (see
/// [`crate::error::envelope`]).
pub fn fail(req: &Request, status: u16, code: &str, message: &str) -> Response {
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

/// `GET /v1/debug/profile`: a JSON snapshot of the always-on phase
/// profiler, heaviest phase first (see docs/observability.md).
fn profile_snapshot() -> Response {
    Response {
        status: 200,
        headers: vec![("Content-Type".into(), "application/json".into())],
        body: heteropipe_obs::profile::render_debug_json().into_bytes(),
        chunked: false,
        stream: None,
    }
}

/// Readiness: 200 while the backend takes traffic and no graceful
/// shutdown has begun, else 503 + `Retry-After`. Liveness stays green
/// either way, so an orchestrator drains traffic instead of killing the
/// process. The unready body is the error envelope extended with the
/// probe fields.
fn ready<B: Backend>(b: &B, req: &Request) -> Response {
    let Readiness {
        fields,
        unready,
        retry_after_s,
    } = b.readiness();
    let shutting_down = b
        .core()
        .stats
        .get()
        .is_some_and(|s| s.shutting_down.load(Ordering::SeqCst));
    let reason = if shutting_down {
        Some("shutting down")
    } else {
        unready
    };
    let status = if reason.is_some() { "unready" } else { "ready" };
    let mut probe = vec![("status".to_string(), Json::str(status))];
    probe.extend(fields);
    probe.push(("shutting_down".to_string(), Json::Bool(shutting_down)));
    let Some(message) = reason else {
        return Response::json(200, &Json::Obj(probe));
    };
    let mut body = vec![
        (
            "error".to_string(),
            Json::Obj(vec![
                ("code".into(), Json::str("unready")),
                ("message".into(), Json::str(message)),
                ("retry_after_s".into(), Json::U64(retry_after_s)),
            ]),
        ),
        ("request_id".to_string(), Json::str(&req.request_id)),
    ];
    body.extend(probe);
    Response::json(503, &Json::Obj(body)).with_header("Retry-After", &retry_after_s.to_string())
}

/// Splits the remainder of a `/v1/runs/{key}[/sub]` path into the key
/// segment and the optional sub-resource after it.
pub(crate) fn split_resource(rest: &str) -> (&str, Option<&str>) {
    match rest.split_once('/') {
        Some((key, sub)) => (key, Some(sub)),
        None => (rest, None),
    }
}

/// Whether a path segment is a well-formed run key: exactly 32 hex
/// digits. Anything else — wrong length, non-hex characters, embedded
/// slashes (already split off by [`split_resource`]) — is rejected up
/// front with a 400 envelope instead of falling through to a generic 404.
pub(crate) fn valid_run_key(key: &str) -> bool {
    key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit())
}

/// `POST /v1/runs`: parse the job spec, then let the backend answer.
fn run<B: Backend>(b: &B, req: &Request) -> Response {
    let Some(body) = parse_body(req) else {
        return fail(req, 400, "bad_request", "body must be a JSON object");
    };
    match parse_job_spec(&body) {
        Ok(job) => b.run(req, &job),
        Err(e) => fail(req, e.status, e.code, &e.message),
    }
}

/// Dispatches `/v1/runs/{key}` and its sub-resources (`/trace`), plus the
/// deprecated `/v1/run/{key}/trace` alias when `alias` is set. The key is
/// checked before the method.
fn run_resource<B: Backend>(b: &B, req: &Request, rest: &str, alias: bool) -> Response {
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
        (Some("trace"), _) | (None, false) if req.method != "GET" => method_not_allowed(req, "GET"),
        (Some("trace"), false) => b.run_trace(req, key),
        (Some("trace"), true) => {
            deprecated(b.run_trace(req, key), &format!("/v1/runs/{key}/trace"))
        }
        (None, false) => b.run_report(req, key),
        // The cached-report lookup is new with the redesign; it never
        // existed under `/v1/run/{key}`, so the alias stays a 404 with a
        // pointer at the canonical route.
        (None, true) => fail(
            req,
            404,
            "not_found",
            &format!("no such route (the cached report lives at /v1/runs/{key})"),
        ),
        (Some(other), _) => fail(
            req,
            404,
            "not_found",
            &format!("no such run sub-resource: {other:?} (try /trace)"),
        ),
    }
}

/// Dispatches `/v1/sweeps/{key}` and its sub-resources: the bare key
/// answers an async job's status, `/records` its journaled NDJSON
/// records, and `/trace` the backend's trace for the sweep key the
/// `X-Sweep-Key` response header reported.
fn sweep_resource<B: Backend>(b: &B, req: &Request, rest: &str) -> Response {
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
        Some("trace" | "records") | None if req.method != "GET" => method_not_allowed(req, "GET"),
        Some("trace") => b.sweep_trace(req, key),
        Some("records") => sweep_records(b, req, &key.to_ascii_lowercase()),
        None => sweep_status(b.core(), req, &key.to_ascii_lowercase()),
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
/// reconstructed from the on-disk journal so a restarted process still
/// answers for jobs it has not resumed.
fn sweep_status<B>(core: &Core<B>, req: &Request, key: &str) -> Response {
    if let Some(job) = core.async_jobs.get(key) {
        return Response::json(200, &jobs::status_json(key, &job)).with_header("X-Sweep-Key", key);
    }
    if let Some(journal) = core.journal.get() {
        if let Ok(Some(replay)) = journal.replay(key) {
            if let Some(body) = journal_status_json(key, "sweep", &replay) {
                return Response::json(200, &body).with_header("X-Sweep-Key", key);
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
/// what is journaled right now — poll the status route for `done` before
/// treating the stream as complete. No trailing summary line: records are
/// timing-free and byte-stable; the summary is not.
fn sweep_records<B: Backend>(b: &B, req: &Request, key: &str) -> Response {
    let from = match from_index(req) {
        Ok(from) => from,
        Err(why) => return fail(req, 400, "bad_request", &why),
    };
    let Some(journal) = b.core().journal.get() else {
        let noun = B::DOOR.noun;
        return fail(
            req,
            404,
            "not_found",
            &format!("this {noun} has no journal (async records live on durable {noun}s)"),
        );
    };
    match journal.replay(key) {
        Ok(Some(replay)) => {
            let mut records = replay.records;
            records.sort_by_key(|&(i, _)| i);
            let mut body = String::new();
            for (_, line) in records.iter().filter(|&&(i, _)| i >= from) {
                body.push_str(line);
                body.push('\n');
            }
            Response {
                status: 200,
                headers: vec![("Content-Type".into(), "application/x-ndjson".into())],
                body: body.into_bytes(),
                chunked: false,
                stream: None,
            }
            .with_header("X-Sweep-Key", key)
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

/// A status body reconstructed from a journal segment alone, for keys no
/// live registry entry covers (a previous process journaled them). `None`
/// when the segment's intent is unreadable or of a different kind.
fn journal_status_json(key: &str, kind: &str, replay: &Replay) -> Option<Json> {
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

/// A streamed NDJSON response. `produce` writes record lines through the
/// callback it is handed and returns the trailing summary object. Once
/// the peer goes away no more is written, though `produce` runs to the
/// end (the caches still warm for the retry), and the stream ends with an
/// error.
fn ndjson<F>(produce: F) -> Response
where
    F: Fn(&mut (dyn FnMut(&str) + Send)) -> Json + Send + Sync + 'static,
{
    let stream = BodyStream::new(move |sink| {
        let mut broken = false;
        let summary = produce(&mut |line| {
            broken = broken || sink.send(format!("{line}\n").as_bytes()).is_err();
        });
        if broken {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "NDJSON stream peer went away",
            ));
        }
        sink.send(format!("{}\n", summary.dump()).as_bytes())
    });
    Response::streaming(200, "application/x-ndjson", stream)
}

/// `POST /v1/sweeps`: validates and keys the whole batch, then either
/// journals it as an async job or streams it: one NDJSON record per entry
/// as the backend produces it, then the backend's summary line. The
/// response carries the sweep's content address in `X-Sweep-Key`.
fn sweeps<B: Backend>(b: &B, req: &Request) -> Response {
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
    let job = match SweepJob::parse(entries) {
        Ok(job) => Arc::new(job),
        Err((i, e)) => return fail(req, e.status, e.code, &format!("jobs[{i}]: {}", e.message)),
    };
    if wants_async(req) {
        let intent = || jobs::sweep_intent(&job.entries);
        return submit(b, req, &job.key_hex, intent, Work::Sweep(Arc::clone(&job)));
    }
    match b.sweep(&job, &req.request_id, Deadline::from_request(req)) {
        Ok(run) => ndjson(move |line| run.emit(&mut |_, record, _| line(record)))
            .with_header("X-Sweep-Key", &job.key_hex),
        Err(e) => b.core().refuse(&req.request_id, &e),
    }
}

/// `POST /v1/workflows`: a built-in named graph goes to the backend; an
/// inline stage list runs here, its sweep stages through the backend.
/// Either way the body is validated (duplicates, unknown edges, cycles)
/// up front, so a bad graph is a clean 400 instead of a broken stream.
fn workflows<B: Backend>(b: &B, req: &Request) -> Response {
    let Some(body) = parse_body(req) else {
        return fail(req, 400, "bad_request", "body must be a JSON object");
    };
    // An async graph runs in the background with no deadline (the 202
    // returns at once); a sync graph's stage sweeps inherit the budget.
    let deadline = if wants_async(req) {
        Deadline::none()
    } else {
        Deadline::from_request(req)
    };
    let graph = match workflow_graph(b, &body, &req.request_id, deadline) {
        Ok(graph) => graph,
        Err(e) => return fail(req, e.status, e.code, &e.message),
    };
    let key = match graph.workflow_key() {
        Ok(key) => key,
        Err(e) => return fail(req, 400, "bad_request", &format!("invalid workflow: {e}")),
    };
    if body.get("workflow").is_some() {
        return b.named_workflow(req, body, graph, key);
    }
    run_workflow(b, req, body, graph, key)
}

/// Runs a validated graph for `req` on this door's flow runner: journaled
/// as an async job, or streamed — one NDJSON stage-completion event per
/// stage and a trailing summary line. An `X-Deadline-Ms` budget becomes
/// an absolute deadline the DAG runner checks between levels: stages
/// whose level starts past it fail, and their dependents cascade-skip.
/// The response carries the graph's content address in `X-Workflow-Key`;
/// `GET /v1/workflows/{key}` returns the journaled result.
pub(crate) fn run_workflow<B: Backend>(
    b: &B,
    req: &Request,
    body: Json,
    graph: TaskGraph,
    key: RunKey,
) -> Response {
    let key = key.hex();
    if wants_async(req) {
        let intent = || jobs::workflow_intent(&body);
        return submit(b, req, &key, intent, Work::Workflow(graph));
    }
    let flow = Arc::clone(&b.core().flow);
    let request_id = req.request_id.clone();
    let deadline = Deadline::from_request(req);
    ndjson(move |line| {
        let rid = (!request_id.is_empty()).then_some(request_id.as_str());
        // The runner calls back from its worker threads.
        let line = Mutex::new(line);
        let event = |ev: &StageEvent| {
            let text = stage_event_json(ev).dump();
            (*line.lock().unwrap())(&text);
        };
        let result = flow
            .run_observed_deadline(&graph, rid, &event, deadline.instant())
            .expect("graph validated before streaming");
        workflow_summary_json(&result)
    })
    .with_header("X-Workflow-Key", &key)
}

/// Builds the graph a `POST /v1/workflows` body describes: a built-in
/// named graph (`"workflow"` plus optional `"scale"`) or an inline
/// `"stages"` array of sweep stages with dependency edges, whose sweeps
/// run through the backend for request `rid` under `deadline`.
fn workflow_graph<B: Backend>(
    b: &B,
    body: &Json,
    rid: &str,
    deadline: Deadline,
) -> Result<TaskGraph, SpecError> {
    if let Some(name) = body.get("workflow") {
        let Some(name) = name.as_str() else {
            return Err(SpecError::bad("\"workflow\" must be a string"));
        };
        let scale = api::parse_scale(body).map_err(SpecError::bad)?;
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
        let built = inline_stage(b, stage, &mut total_jobs, rid, deadline)
            .map_err(|e| SpecError::new(e.status, e.code, format!("stages[{i}]: {}", e.message)))?;
        let name = built.name().to_owned();
        graph.add(built);
        graph.output(name);
    }
    Ok(graph)
}

/// Parses one inline workflow stage: a name, optional `deps`, and a sweep
/// body (the same `jobs` / `benchmarks` forms as `POST /v1/sweeps`). The
/// stage key derives from the sweep's content address, so identical
/// inline sweep stages memoize across workflows and deployment shapes;
/// the stage value is the sweep's records in submission order, one JSON
/// line each.
fn inline_stage<B: Backend>(
    b: &B,
    stage: &Json,
    total_jobs: &mut usize,
    rid: &str,
    deadline: Deadline,
) -> Result<Stage, SpecError> {
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
    let job = SweepJob::parse(entries)
        .map_err(|(j, e)| SpecError::new(e.status, e.code, format!("jobs[{j}]: {}", e.message)))?;
    let input = format!("jobs={}", job.key_hex);
    let job = Arc::new(job);
    let (me, rid) = (b.core().me.clone(), rid.to_owned());
    let mut built = Stage::new(name, StageKind::Sweep, move |_ctx| {
        let b = me
            .upgrade()
            .ok_or_else(|| format!("{} shut down", B::DOOR.noun))?;
        let run = b.sweep(&job, &rid, deadline).map_err(|e| e.message)?;
        let mut records = Vec::with_capacity(job.keys.len());
        run.emit(&mut |index, line, errored| records.push((index, line.to_owned(), errored)));
        let failed = records.iter().filter(|r| r.2).count();
        if failed > 0 {
            return Err(format!("{failed} of {} sweep jobs failed", records.len()));
        }
        records.sort_by_key(|r| r.0);
        let mut text = String::new();
        for (_, line, _) in records {
            text.push_str(&line);
            text.push('\n');
        }
        Ok(StageValue::from_text(text))
    })
    .input(input);
    for d in deps {
        built = built.dep(d);
    }
    Ok(built)
}

/// `GET /v1/workflows/{key}`: the journaled result of a workflow — its
/// summary, per-stage events, and the rendered text of every declared
/// output stage — from the flow runner's memory, else the live status of
/// an async job still running, else a sealed journal segment, else the
/// backend.
fn workflow_lookup<B: Backend>(b: &B, req: &Request, key: &str) -> Response {
    if !valid_run_key(key) {
        return fail(
            req,
            400,
            "bad_request",
            &format!("workflow key must be 32 hex characters, got {key:?}"),
        );
    }
    let core = b.core();
    let key = key.to_ascii_lowercase();
    if let Some(result) = core.flow.journaled(&key) {
        return Response::json(200, &workflow_result_json(&result))
            .with_header("X-Workflow-Key", &result.key_hex)
            .into_chunked();
    }
    if let Some(job) = core.async_jobs.get(&key) {
        if job.state() != JobState::Done {
            return Response::json(200, &jobs::status_json(&key, &job))
                .with_header("X-Workflow-Key", &key);
        }
    }
    // A sealed segment's final record is the full result JSON.
    if let Some(journal) = core.journal.get() {
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
    b.workflow_elsewhere(req, &key)
}

// ---- async jobs -----------------------------------------------------------

/// What an async job executes.
enum Work {
    Sweep(Arc<SweepJob>),
    Workflow(TaskGraph),
}

impl Work {
    fn kind(&self) -> &'static str {
        match self {
            Work::Sweep(_) => "sweep",
            Work::Workflow(_) => "workflow",
        }
    }

    /// Records the job journals: one per sweep entry, or one per stage
    /// event plus the trailing result record.
    fn total(&self) -> u64 {
        match self {
            Work::Sweep(job) => job.keys.len() as u64,
            Work::Workflow(graph) => graph.len() as u64 + 1,
        }
    }
}

/// `?async=1`: journals the job's `intent` and answers `202 Accepted` at
/// once with the key to poll, while a background thread executes it and
/// journals each record. Resubmitting the same job while it runs, or
/// after it finished (a sealed segment from an earlier process counts),
/// is idempotent: same key, same 202.
fn submit<B: Backend>(
    b: &B,
    req: &Request,
    key: &str,
    intent: impl FnOnce() -> String,
    work: Work,
) -> Response {
    let core = b.core();
    let kind = work.kind();
    let header = if kind == "sweep" {
        "X-Sweep-Key"
    } else {
        "X-Workflow-Key"
    };
    let Some(journal) = core.journal.get() else {
        let Door { noun, bin, .. } = B::DOOR;
        return envelope(
            503,
            "async_unavailable",
            &format!(
                "async {kind}s need a write-ahead journal; start the {noun} with one ({bin} --journal-dir)"
            ),
            None,
            &req.request_id,
        );
    };
    let total = work.total();
    let sealed = matches!(journal.replay(key), Ok(Some(r)) if r.done);
    let (state, done) = if sealed {
        (JobState::Done, total)
    } else {
        (JobState::Running, 0)
    };
    let (job, fresh) = core.async_jobs.register(key, kind, total, state, done);
    if !fresh || sealed {
        return Response::json(202, &jobs::status_json(key, &job)).with_header(header, key);
    }
    // Write-ahead: the full job description hits the journal before any
    // execution, so a crash at any later point is resumable.
    if let Err(e) = journal.begin(key, &intent()) {
        job.fail(format!("journal intent write failed: {e}"));
        return envelope(
            503,
            "journal_unavailable",
            &format!("could not journal {kind} intent: {e}"),
            Some(1),
            &req.request_id,
        );
    }
    let driver = Driver {
        log: B::DOOR.log,
        journal: Arc::clone(journal),
        job,
        key: key.to_owned(),
        rid: req.request_id.clone(),
        already: HashSet::new(),
        recovered: false,
    };
    driver.spawn(core.backend(), work);
    let status_url = format!("/v1/{kind}s/{key}");
    Response::json(202, &jobs::accepted_json(key, kind, &status_url, total))
        .with_header(header, key)
}

/// Replays the journal at startup: every segment with an intent but no
/// seal is re-registered and driven to completion on a background
/// thread. Caches turn the jobs that already finished into hits, so only
/// the missing tail executes again, and the journaled records end up
/// identical to an uninterrupted run's.
pub(crate) fn resume_incomplete<B: Backend>(b: &B) {
    let core = b.core();
    let Some(journal) = core.journal.get() else {
        return;
    };
    let log = B::DOOR.log;
    for key in journal.incomplete() {
        let Ok(Some(replay)) = journal.replay(&key) else {
            continue;
        };
        let Some((kind, payload)) = jobs::parse_intent(&replay.intent) else {
            obs_log::warn(
                log,
                "journaled intent is unreadable; segment left unresumed",
                &[("key", key.clone().into())],
            );
            continue;
        };
        let rid = format!("resume-{key}");
        let work = if kind == "sweep" {
            let entries = payload.as_array().map(<[Json]>::to_vec).unwrap_or_default();
            let total = entries.len() as u64;
            SweepJob::parse(entries)
                .map(|job| Work::Sweep(Arc::new(job)))
                .map_err(|(_, e)| ("sweep", total, e))
        } else {
            workflow_graph(b, &payload, &rid, Deadline::none())
                .map(Work::Workflow)
                .map_err(|e| ("workflow", 0, e))
        };
        let work = match work {
            Ok(work) => work,
            Err((kind, total, e)) => {
                let (job, _) = core
                    .async_jobs
                    .register(&key, kind, total, JobState::Failed, 0);
                job.fail(format!("journaled intent no longer parses: {}", e.message));
                continue;
            }
        };
        let already = replay.indexes();
        let (job, fresh) = core.async_jobs.register(
            &key,
            work.kind(),
            work.total(),
            JobState::Running,
            already.len() as u64,
        );
        if !fresh {
            continue;
        }
        obs_log::info(
            log,
            &format!("resuming interrupted async {kind} from journal"),
            &[
                ("key", key.clone().into()),
                ("jobs_total", work.total().into()),
                ("records_journaled", (already.len() as u64).into()),
            ],
        );
        let driver = Driver {
            log,
            journal: Arc::clone(journal),
            job,
            key,
            rid,
            already,
            recovered: true,
        };
        driver.spawn(core.backend(), work);
    }
}

/// One async job's background driver.
struct Driver {
    log: &'static str,
    journal: Arc<Journal>,
    job: Arc<AsyncJob>,
    key: String,
    rid: String,
    /// Record indexes a previous process journaled: resume skips
    /// appending them again.
    already: HashSet<u64>,
    /// A crash-resume, counted by `heteropipe_journal_recovered_total`.
    recovered: bool,
}

impl Driver {
    fn spawn<B: Backend>(self, b: Arc<B>, work: Work) {
        std::thread::spawn(move || match work {
            Work::Sweep(job) => self.sweep(&*b, job),
            Work::Workflow(graph) => self.workflow(&b.core().flow, &graph),
        });
    }

    /// Runs the sweep, appending each record to the journal as it is
    /// produced, then seals the segment. A failed append never fails the
    /// job at once — it is retried once after the run; only records that
    /// still cannot be journaled fail it, since an unsealed segment
    /// without them could never resume faithfully.
    fn sweep<B: Backend>(&self, b: &B, job: Arc<SweepJob>) {
        let run = match b.sweep(&job, &self.rid, Deadline::none()) {
            Ok(run) => run,
            Err(e) => return self.job.fail(format!("sweep failed: {}", e.message)),
        };
        let mut retry = Vec::new();
        run.emit(&mut |index, line, errored| {
            if self.already.contains(&index) {
                return;
            }
            match self.journal.append_record(&self.key, index, line) {
                Ok(()) => self.job.record_done(errored),
                Err(e) => {
                    self.warn("journal append failed; retrying after the batch", index, &e);
                    retry.push((index, line.to_owned(), errored));
                }
            }
        });
        let mut lost = 0u64;
        for (index, line, errored) in retry {
            match self.journal.append_record(&self.key, index, &line) {
                Ok(()) => self.job.record_done(errored),
                Err(e) => {
                    lost += 1;
                    obs_log::error(
                        self.log,
                        "journal append failed permanently",
                        &[
                            ("key", self.key.clone().into()),
                            ("index", index.into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                }
            }
        }
        if lost > 0 {
            return self
                .job
                .fail(format!("{lost} record(s) could not be journaled"));
        }
        self.seal();
    }

    /// Runs the graph, journaling one record per stage event (in
    /// emission order) and a final record holding the full result JSON —
    /// the shape `GET /v1/workflows/{key}` serves, so a restarted process
    /// can answer lookups from disk alone.
    fn workflow(&self, flow: &FlowRunner, graph: &TaskGraph) {
        let rid = (!self.rid.is_empty()).then_some(self.rid.as_str());
        let counter = AtomicU64::new(0);
        let result = flow.run_observed(graph, rid, &|ev| {
            let index = counter.fetch_add(1, Ordering::Relaxed);
            if self.already.contains(&index) {
                return;
            }
            match self
                .journal
                .append_record(&self.key, index, &stage_event_json(ev).dump())
            {
                Ok(()) => self.job.record_done(ev.error.is_some()),
                Err(e) => self.warn("journal append failed for workflow stage event", index, &e),
            }
        });
        let result = match result {
            Ok(result) => result,
            Err(e) => return self.job.fail(format!("workflow failed: {e}")),
        };
        let final_index = self.job.total.saturating_sub(1);
        if !self.already.contains(&final_index) {
            let line = workflow_result_json(&result).dump();
            if let Err(e) = self.journal.append_record(&self.key, final_index, &line) {
                return self
                    .job
                    .fail(format!("journal append failed for workflow result: {e}"));
            }
            self.job.record_done(false);
        }
        self.seal();
    }

    fn seal(&self) {
        match self.journal.finish(&self.key, self.job.total) {
            Ok(()) => {
                if self.recovered {
                    self.journal.mark_recovered();
                }
                self.job.set_state(JobState::Done);
            }
            Err(e) => self.job.fail(format!("journal seal failed: {e}")),
        }
    }

    fn warn(&self, msg: &str, index: u64, e: &std::io::Error) {
        obs_log::warn(
            self.log,
            msg,
            &[
                ("key", self.key.clone().into()),
                ("index", index.into()),
                ("error", e.to_string().into()),
            ],
        );
    }
}

// ---- metrics --------------------------------------------------------------

/// `GET /metrics`: the backend's own families or blocks around the shared
/// ones, as JSON or (see [`wants_prometheus`]) Prometheus text.
fn metrics<B: Backend>(b: &B, req: &Request) -> Response {
    let core = b.core();
    if !wants_prometheus(req) {
        return Response::json(200, &Json::Obj(b.metrics_json(core.json_fields())));
    }
    let r = MetricRegistry::new();
    b.prometheus(&r);
    core.prometheus(b.faults(), &r);
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

impl<B> Core<B> {
    /// The shared JSON `/metrics` fields: journal, tenants, deadline
    /// refusals and the server's own counters.
    fn json_fields(&self) -> Vec<(String, Json)> {
        use std::sync::atomic::Ordering::Relaxed;
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
        let server = match self.stats.get() {
            Some(s) => {
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
        vec![
            ("journal".into(), journal),
            ("tenants".into(), tenants),
            (
                "deadline_exceeded".into(),
                Json::U64(self.deadline_exceeded.load(Relaxed)),
            ),
            ("server".into(), server),
        ]
    }

    /// Registers the shared Prometheus families. Names and help text are
    /// the same on every process, so worker series a coordinator
    /// federates merge into the same families.
    fn prometheus(&self, faults: &Injector, r: &MetricRegistry) {
        use std::sync::atomic::Ordering::Relaxed;
        let set = |name: &str, help: &str, v: u64| r.counter(name, help).set(v);
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
            self.deadline_exceeded.load(Relaxed),
        );
        if let Some(gate) = self.tenants.get() {
            for t in gate.counts() {
                let labels: &[(&str, &str)] = &[("tenant", &t.tenant)];
                r.counter_with(
                    "heteropipe_tenant_requests_total",
                    "Requests admitted per tenant bucket.",
                    labels,
                )
                .set(t.requests);
                r.counter_with(
                    "heteropipe_tenant_throttled_total",
                    "Requests refused with a 429 per tenant bucket.",
                    labels,
                )
                .set(t.throttled);
            }
        }

        // Injected-fault tallies per (site, kind), from the backend's
        // injector plus the server's (skipped when they are one shared
        // injector, as a chaos run configures).
        let mut fault_counts = faults.counts();
        if let Some(sf) = self.server_faults.get() {
            if !std::ptr::eq(faults, Arc::as_ptr(sf)) {
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
        // attributed to named hot-path phases of this process.
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
    }
}
