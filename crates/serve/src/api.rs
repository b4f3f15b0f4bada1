//! The HTTP API over the engine: health, metrics (JSON and Prometheus
//! text format), the benchmark catalog, resource-oriented runs with
//! retrievable per-run traces, batched sweeps streamed as NDJSON, and
//! whole-experiment renders. The full route reference, error envelope
//! schema, and deprecation policy live in `docs/api.md`.
//!
//! [`Api`] is the single-node [`Backend`] of the request core in
//! [`crate::front`], which routes, admits and journals for it: this
//! module answers what a node answers from its own engine, plus the
//! request and record codecs both front doors share.
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

use std::sync::{Arc, Mutex};

use heteropipe::experiments::{characterize_all_with, fig3, fig456, fig78, fig9, tables};
use heteropipe::{AccessClass, Executor, JobSpec, Organization, Platform, RunReport, SystemConfig};
use heteropipe_engine::{run_key, Engine, EngineError, Journal, RunKey, SweepRecord};
use heteropipe_faults::Injector;
use heteropipe_flow::{FlowRunner, StageEvent, TaskGraph, WorkflowResult};
use heteropipe_obs::MetricRegistry;
use heteropipe_workloads::{registry, Pipeline, Scale, Workload};

use crate::breaker::CircuitBreaker;
use crate::error::envelope;
use crate::front::{
    self, fail, Backend, Core, Deadline, Door, Readiness, RecordFn, SweepJob, SweepRun,
};
use crate::http::{Request, Response};
use crate::json::Json;
use crate::server::{Handler, ServerConfig, ServerHandle, ServerStats};
use crate::tenant::TenantGate;

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
    core: Core<Api>,
}

impl Api {
    /// An API over `engine`.
    pub fn new(engine: Arc<Engine>) -> Arc<Api> {
        let flow = Arc::new(FlowRunner::new(Arc::clone(&engine)));
        Arc::new_cyclic(|me| Api {
            engine,
            core: Core::new(me.clone(), flow),
        })
    }

    /// The engine this API executes against.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The workflow runner behind `POST /v1/workflows`.
    pub fn flow(&self) -> &Arc<FlowRunner> {
        self.core.flow()
    }

    /// Wires in the server's own counters so `/metrics` can report them.
    /// Called by [`serve`]; later calls are ignored.
    pub fn attach_stats(&self, stats: Arc<ServerStats>) {
        self.core.attach_stats(stats);
    }

    /// Wires in the server's circuit breaker so `/healthz/ready` and
    /// `/metrics` can report it. Called by [`serve`]; later calls ignored.
    pub fn attach_breaker(&self, breaker: Arc<CircuitBreaker>) {
        self.core.attach_breaker(breaker);
    }

    /// Wires in the server's fault injector so `/metrics` can export its
    /// fired-fault tallies. Called by [`serve`]; later calls ignored.
    pub fn attach_faults(&self, faults: Arc<Injector>) {
        self.core.attach_faults(faults);
    }

    /// Wires in the write-ahead journal enabling `?async=1` submission
    /// and crash-resume. Called by [`serve_durable`]; later calls ignored.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        self.core.attach_journal(journal);
    }

    /// Wires in the per-tenant admission gate. [`serve`] builds it from
    /// `HETEROPIPE_TENANTS`; tests attach a hand-parsed gate directly.
    /// Later calls ignored.
    pub fn attach_tenants(&self, tenants: Arc<TenantGate>) {
        self.core.attach_tenants(tenants);
    }

    /// The write-ahead journal, when one is attached.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.core.journal()
    }

    /// Resumes, on background threads, every async job the attached
    /// journal shows as interrupted (intent logged, segment unsealed).
    pub fn resume_incomplete(&self) {
        front::resume_incomplete(self);
    }
}

/// Binds and starts a server running [`Api`] over `engine`. The tenant
/// admission gate is read from `HETEROPIPE_TENANTS`; a malformed plan
/// fails startup rather than admitting everyone silently.
pub fn serve(cfg: ServerConfig, engine: Arc<Engine>) -> std::io::Result<ServerHandle> {
    front::start(cfg, Api::new(engine), None)
}

/// Like [`serve`], but with a write-ahead journal: `?async=1` submission
/// is enabled, and any sweep or workflow the journal shows as interrupted
/// (intent logged, segment unsealed) is resumed on background threads
/// once the listener runs. Thanks to the result cache, resume re-executes
/// only the jobs whose records never made it to the journal.
pub fn serve_durable(
    cfg: ServerConfig,
    engine: Arc<Engine>,
    journal: Arc<Journal>,
) -> std::io::Result<ServerHandle> {
    front::start(cfg, Api::new(engine), Some(journal))
}

impl Handler for Api {
    fn handle(&self, req: &Request) -> Response {
        front::handle(self, req)
    }
}

/// A sweep accepted by a node: it executes when its records are emitted,
/// through the engine's dedup + single-flight sweep pipeline, in
/// completion order.
pub struct LocalSweep {
    engine: Arc<Engine>,
    job: Arc<SweepJob>,
    request_id: Option<String>,
}

impl SweepRun for LocalSweep {
    fn emit(&self, record: &mut RecordFn<'_>) -> Json {
        let specs: Vec<JobSpec<'_>> = self.job.specs.iter().map(OwnedJobSpec::spec).collect();
        let rid = self.request_id.as_deref();
        // The engine calls back from its worker threads.
        let record = Mutex::new(record);
        let outcome = self.engine.execute_sweep_observed(&specs, rid, &|rec| {
            let line = sweep_record_json(rec).dump();
            (*record.lock().unwrap())(rec.index as u64, &line, rec.result.is_err());
        });
        sweep_summary_json(&outcome)
    }
}

impl Backend for Api {
    const DOOR: Door = Door {
        noun: "server",
        bin: "serve",
        log: "serve",
    };
    type Sweep = LocalSweep;

    fn core(&self) -> &Core<Api> {
        &self.core
    }

    fn run(&self, req: &Request, job: &OwnedJobSpec) -> Response {
        let spec = job.spec();
        let key = run_key(&spec).hex();
        let request_id = (!req.request_id.is_empty()).then_some(req.request_id.as_str());
        match self.engine.try_execute_observed(&spec, request_id) {
            Ok(report) => Response::json(200, &report_json(&report)).with_header("X-Run-Key", &key),
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
            .with_header("X-Run-Key", &key),
            Err(e) => fail(req, 500, "internal", &e.to_string()).with_header("X-Run-Key", &key),
        }
    }

    /// `GET /v1/runs/{key}`: the cached report for a previously executed
    /// run, straight from the engine's result cache — no execution, no
    /// cache-metric side effects.
    ///
    /// The hot path is zero-decode: the run key doubles as a strong
    /// `ETag` (it is a content address and [`report_json`] is
    /// deterministic), so a matching `If-None-Match` needs only the
    /// engine's validated record (magic + version + checksum, no field
    /// parse) to answer an empty `304 Not Modified`, and a warm repeat
    /// serves the body the engine keeps with the record. Only the first
    /// `GET` of a record read from disk pays the decode.
    fn run_report(&self, req: &Request, key: &str) -> Response {
        let parsed = RunKey::from_hex(key).expect("validated by the router");
        let hex = parsed.hex();
        let etag = format!("\"{hex}\"");
        let not_found = || fail(req, 404, "not_found", "no cached report for that run key");
        if if_none_match(req, &etag) {
            if self.engine.cached_bytes(parsed).is_none() {
                return not_found();
            }
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
        let Some(body) = self
            .engine
            .cached_body(parsed, |report| report_json(report).dump().into_bytes())
        else {
            return not_found();
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

    /// The Chrome-trace timeline the engine retained for a run (or sweep)
    /// key.
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

    fn sweep_trace(&self, req: &Request, key: &str) -> Response {
        self.run_trace(req, key)
    }

    /// Sweeps execute in [`LocalSweep::emit`], as their records stream;
    /// the deadline is checked at admission only.
    fn sweep(&self, job: &Arc<SweepJob>, rid: &str, _: Deadline) -> Result<LocalSweep, SpecError> {
        Ok(LocalSweep {
            engine: Arc::clone(&self.engine),
            job: Arc::clone(job),
            request_id: (!rid.is_empty()).then(|| rid.to_owned()),
        })
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

    /// Built-in figure graphs run here, through this node's engine.
    fn named_workflow(&self, req: &Request, body: Json, graph: TaskGraph, key: RunKey) -> Response {
        front::run_workflow(self, req, body, graph, key)
    }

    fn workflow_elsewhere(&self, req: &Request, _key: &str) -> Response {
        fail(req, 404, "not_found", "no journaled workflow for that key")
    }

    /// Unready while the circuit breaker is open.
    fn readiness(&self) -> Readiness {
        let breaker = self.core.breaker();
        Readiness {
            fields: vec![(
                "breaker".to_string(),
                Json::str(breaker.map_or("unknown", |b| b.state_name())),
            )],
            unready: breaker
                .is_some_and(|b| b.currently_open())
                .then_some("circuit breaker open"),
            retry_after_s: breaker.map_or(1, |b| b.retry_after_secs()),
        }
    }

    fn faults(&self) -> &Injector {
        self.engine.faults()
    }

    /// The engine's cache, sweep and resilience counters and the workflow
    /// runner's.
    fn prometheus(&self, r: &MetricRegistry) {
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
        let f = self.core.flow().metrics();
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
        set(
            "heteropipe_cache_evictions_total",
            "Entries evicted from the cache's memory tier to stay within its cap.",
            e.cache.evictions,
        );
    }

    /// `engine` and `workflows` ahead of the shared fields, `profile`
    /// after them.
    fn metrics_json(&self, shared: Vec<(String, Json)>) -> Vec<(String, Json)> {
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
                    ("cache_evictions".into(), Json::U64(e.cache.evictions)),
                ]),
            ),
        ]);

        let f = self.core.flow().metrics();
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

        let mut fields = vec![("engine".into(), engine), ("workflows".into(), workflows)];
        fields.extend(shared);
        fields.push(("profile".into(), profile));
        fields
    }
}

fn fig4_rows(exec: &dyn Executor, scale: Scale) -> Vec<fig456::Fig4Row> {
    fig456::fig4(&characterize_all_with(exec, scale))
}

/// Parses a request body as a JSON object (`None` for empty, non-UTF-8,
/// unparseable, or non-object bodies).
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

pub(crate) fn parse_scale(body: &Json) -> Result<Scale, &'static str> {
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
    /// An error with `status` and `code`.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> SpecError {
        SpecError {
            status,
            code,
            message: message.into(),
        }
    }

    pub(crate) fn bad(message: impl Into<String>) -> SpecError {
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
    use crate::front::{split_resource, valid_run_key, wants_prometheus};

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
