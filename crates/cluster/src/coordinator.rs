//! The coordinator: a `heteropipe-serve`-compatible front door that owns
//! no engine of its own. Run keys place work on a static worker set via
//! rendezvous hashing ([`crate::ring`]), sweeps fan out shard-wise and
//! merge back into one deterministic NDJSON stream. Each run key has one
//! owner, so the owner's own result cache (memory, then disk) answers a
//! repeat: the coordinator makes one call per run and one per sweep shard,
//! and never looks a key up anywhere else.
//!
//! [`Coordinator`] is a [`Backend`] of serve's request core
//! ([`heteropipe_serve::front`]), which routes, admits, journals async
//! jobs and emits the shared metric families for it. This module answers
//! only what a cluster answers differently: runs, sweeps, traces,
//! experiments and named workflows placed on workers, readiness by worker
//! health, and the `cluster` and `federation` metric blocks.
//!
//! Failure semantics (full treatment in `docs/cluster.md`): each worker
//! has its own circuit breaker; a transport failure records against it,
//! masks the worker out of the current request, and rehashes the affected
//! keys onto the survivors — so a mid-sweep worker death re-executes only
//! that worker's shard, and the merged stream stays byte-identical to a
//! fault-free run because records carry no timing and placement is
//! deterministic. The `cluster.forward` fault site lets
//! `heteropipe-faults` inject partitions and slow workers at the exact
//! seam real networks fail on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use heteropipe_engine::{run_key, Engine, Journal, RunKey, SingleFlight};
use heteropipe_faults::{FaultKind, Injector, Site};
use heteropipe_flow::{FlowRunner, TaskGraph};
use heteropipe_obs::log as obs_log;
use heteropipe_obs::{HistogramHandle, MetricRegistry};
use heteropipe_serve::api::{OwnedJobSpec, SpecError};
use heteropipe_serve::breaker::{Admission, BreakerConfig, CircuitBreaker};
use heteropipe_serve::error::envelope;
use heteropipe_serve::front::{
    self, fail, Backend, Core, Deadline, Door, Readiness, RecordFn, SweepJob, SweepRun,
};
use heteropipe_serve::http::{Request, Response};
use heteropipe_serve::json::Json;
use heteropipe_serve::server::{Handler, ServerConfig, ServerHandle, ServerStats};
use heteropipe_serve::tenant::TenantGate;
use heteropipe_serve::{Client, ClientPool, ClientResponse};

use crate::ring::WorkerRing;
use crate::stitch::{self, CoordSpan, StitchPlan, StitchShard, StitchStore};

/// How many stitched-trace plans the coordinator retains (oldest
/// evicted), mirroring the engine-side trace store's bound.
const STITCH_CAP: usize = 64;

/// Profiler slots for the coordinator's cluster seams, registered once
/// per process like the engine's (see `heteropipe_obs::profile`).
mod cprof {
    use heteropipe_obs::profile::{self, PhaseId};
    use std::sync::OnceLock;

    macro_rules! phase_slot {
        ($fn_name:ident, $phase:literal) => {
            pub(crate) fn $fn_name() -> PhaseId {
                static P: OnceLock<PhaseId> = OnceLock::new();
                *P.get_or_init(|| profile::phase($phase))
            }
        };
    }

    phase_slot!(forward, "cluster.forward");
    phase_slot!(merge, "cluster.merge");
}

/// The `X-Trace-Context` header value the coordinator sends with every
/// worker call: the trace id (the originating request id), the named
/// parent span on the coordinator timeline, and the coordinator-side
/// send offset in microseconds — the clock sample trace stitching uses
/// to place worker spans (see `crate::stitch`).
fn trace_context(rid: &str, parent: &str, offset_us: u64) -> String {
    format!("trace={rid};parent={parent};offset_us={offset_us}")
}

/// Coordinator tuning knobs.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Worker addresses (`host:port`), in slot order. Placement hashes
    /// the slot index, so the order is part of the cluster's identity.
    pub workers: Vec<String>,
    /// Per-worker circuit-breaker configuration.
    pub breaker: BreakerConfig,
    /// I/O timeout for coordinator→worker calls.
    pub timeout: Duration,
    /// Fault injector for the `cluster.forward` seam.
    pub faults: Arc<Injector>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            workers: Vec::new(),
            breaker: BreakerConfig::default(),
            timeout: Duration::from_secs(120),
            faults: Arc::new(Injector::disabled()),
        }
    }
}

/// Per-worker health and traffic accounting.
struct WorkerState {
    addr: String,
    breaker: CircuitBreaker,
    forwarded: AtomicU64,
    failures: AtomicU64,
    scrape_errors: AtomicU64,
    fwd_us: HistogramHandle,
}

/// The coordinator handler. Share via `Arc` (see [`Coordinator::new`]).
pub struct Coordinator {
    ring: WorkerRing,
    workers: Vec<WorkerState>,
    pool: ClientPool,
    /// Concurrent identical `POST /v1/runs` coalesce onto one forward;
    /// the flight's answer is replayed to every caller.
    flights: SingleFlight<Response>,
    faults: Arc<Injector>,
    /// The request core's state. Its flow runner runs inline workflow
    /// graphs here, with stage sweeps fanned out across the cluster, so
    /// the engine behind it only memoizes stage values — it never
    /// simulates, hence memory-cache-only.
    core: Core<Coordinator>,
    rehashes: AtomicU64,
    flights_coalesced: AtomicU64,
    sweeps: AtomicU64,
    sweep_jobs: AtomicU64,
    /// Stitch plans for recent cluster sweeps, resolved lazily by
    /// `GET /v1/sweeps/{key}/trace` (see `crate::stitch`).
    stitch: StitchStore,
}

/// Binds and starts a server running a [`Coordinator`] over `cluster`.
pub fn serve_cluster(cfg: ServerConfig, cluster: ClusterConfig) -> std::io::Result<ServerHandle> {
    front::start(cfg, Coordinator::new(cluster), None)
}

/// Like [`serve_cluster`], but with a write-ahead journal: async sweeps
/// and workflows are journaled before execution, and any incomplete
/// segments found on startup are resumed.
pub fn serve_cluster_durable(
    cfg: ServerConfig,
    cluster: ClusterConfig,
    journal: Arc<Journal>,
) -> std::io::Result<ServerHandle> {
    front::start(cfg, Coordinator::new(cluster), Some(journal))
}

impl Coordinator {
    /// A coordinator over the worker set in `cfg`.
    pub fn new(cfg: ClusterConfig) -> Arc<Coordinator> {
        let workers = cfg
            .workers
            .iter()
            .map(|addr| WorkerState {
                addr: addr.clone(),
                breaker: CircuitBreaker::new(cfg.breaker),
                forwarded: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                scrape_errors: AtomicU64::new(0),
                fwd_us: HistogramHandle::default(),
            })
            .collect();
        let flow = Arc::new(FlowRunner::new(Arc::new(Engine::new().memory_cache_only())));
        Arc::new_cyclic(|me| Coordinator {
            ring: WorkerRing::new(cfg.workers),
            workers,
            pool: ClientPool::new().with_timeout(cfg.timeout),
            flights: SingleFlight::new(),
            faults: cfg.faults,
            core: Core::new(me.clone(), flow),
            rehashes: AtomicU64::new(0),
            flights_coalesced: AtomicU64::new(0),
            sweeps: AtomicU64::new(0),
            sweep_jobs: AtomicU64::new(0),
            stitch: StitchStore::new(STITCH_CAP),
        })
    }

    /// Wires in the write-ahead journal for async jobs. Called by
    /// [`serve_cluster_durable`]; later calls are ignored.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        self.core.attach_journal(journal);
    }

    /// Wires in the per-tenant admission gate. Called by
    /// [`serve_cluster`]; later calls are ignored.
    pub fn attach_tenants(&self, tenants: Arc<TenantGate>) {
        self.core.attach_tenants(tenants);
    }

    /// The attached journal, when this coordinator was started durably.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.core.journal()
    }

    /// The worker addresses this coordinator shards over, in slot order.
    pub fn worker_addrs(&self) -> &[String] {
        self.ring.addrs()
    }

    /// Wires in the server's counters so `/metrics` can report them.
    /// Called by [`serve_cluster`]; later calls are ignored.
    pub fn attach_stats(&self, stats: Arc<ServerStats>) {
        self.core.attach_stats(stats);
    }

    // ---- worker transport -------------------------------------------------

    /// Rolls the injector at a cluster seam: a `hang` fault delays the
    /// call (slow worker / slow link) but lets it proceed; every other
    /// kind surfaces as the transport error a partition or dead worker
    /// would produce.
    fn roll(&self, site: Site) -> std::io::Result<()> {
        if let Some(fault) = self.faults.roll(site) {
            if fault.kind == FaultKind::Hang {
                std::thread::sleep(Duration::from_millis(fault.hang_ms));
            } else {
                return Err(fault.io_error());
            }
        }
        Ok(())
    }

    /// One coordinator→worker call through the pool, with the fault seam,
    /// the worker's breaker, and per-worker accounting wrapped around it.
    fn call_worker(
        &self,
        slot: usize,
        site: Site,
        call: impl FnOnce(&mut Client) -> std::io::Result<ClientResponse>,
    ) -> std::io::Result<ClientResponse> {
        let w = &self.workers[slot];
        let start = Instant::now();
        let result = self.roll(site).and_then(|()| {
            let mut client = self.pool.checkout(&w.addr);
            call(&mut client)
        });
        match &result {
            Ok(_) => {
                w.breaker.record_success();
                w.forwarded.fetch_add(1, Ordering::Relaxed);
                w.fwd_us.observe(start.elapsed().as_micros() as u64);
            }
            Err(e) => {
                w.breaker.record_failure();
                w.failures.fetch_add(1, Ordering::Relaxed);
                obs_log::warn(
                    "cluster",
                    "worker call failed",
                    &[
                        ("worker", w.addr.clone().into()),
                        ("site", site.label().into()),
                        ("error", e.to_string().into()),
                    ],
                );
            }
        }
        result
    }

    /// The request-local down mask: workers whose breaker sheds right now
    /// start the request masked out (rehash-on-open). The mask only grows
    /// within a request as transport failures are observed.
    fn down_mask(&self) -> Vec<bool> {
        self.workers
            .iter()
            .map(|w| w.breaker.admit() == Admission::Shed)
            .collect()
    }

    /// Sends `req` on to the worker `pick` chooses under the
    /// request-local down mask, walking on to the next choice as workers
    /// fail in transport. `Err` is the envelope to answer instead: the
    /// deadline is spent, or no worker is live.
    fn forward(
        &self,
        req: &Request,
        parent: &str,
        pick: impl Fn(&[bool]) -> Option<usize>,
        call: impl Fn(&mut Client, &[(&str, &str)]) -> std::io::Result<ClientResponse>,
    ) -> Result<ClientResponse, Response> {
        let deadline = Deadline::from_request(req);
        let mut down = self.down_mask();
        loop {
            let Ok(budget) = deadline.remaining_ms() else {
                return Err(self.core.deadline_refusal(req));
            };
            let budget = budget.map(|ms| ms.to_string());
            let Some(slot) = pick(&down) else {
                return Err(no_workers(&req.request_id));
            };
            let tc = trace_context(&req.request_id, parent, 0);
            let mut headers = vec![
                ("X-Request-Id", req.request_id.as_str()),
                ("X-Trace-Context", tc.as_str()),
            ];
            if let Some(ms) = budget.as_deref() {
                headers.push(("X-Deadline-Ms", ms));
            }
            match self.call_worker(slot, Site::ClusterForward, |c| call(c, &headers)) {
                Ok(resp) => return Ok(resp),
                Err(_) => {
                    down[slot] = true;
                    self.rehashes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Forwards a GET for `path` to the worker owning `key` (reports,
    /// traces and named workflows live where they ran). A conditional
    /// `If-None-Match` travels with it, so the owner's 304 comes back.
    fn proxy_to_owner(&self, req: &Request, key: &str, path: &str) -> Response {
        let key = RunKey::from_hex(key).expect("validated by the router");
        let owner = |down: &[bool]| self.ring.owner(key, down);
        let if_none_match = req.header("if-none-match");
        let get = |c: &mut Client, h: &[(&str, &str)]| {
            let mut h = h.to_vec();
            h.extend(if_none_match.map(|v| ("If-None-Match", v)));
            c.get_with_headers(path, &h)
        };
        match self.forward(req, "proxy", owner, get) {
            Ok(resp) => passthrough(&resp),
            Err(refusal) => refusal,
        }
    }

    /// Proxies a whole built-in workflow request to the owner of its
    /// workflow key — the figure pipeline runs where its cache lives.
    fn proxy_workflow(&self, req: &Request, wkey: RunKey) -> Response {
        // Forward the query string too, so `?async=1` survives the hop
        // and journals on the owning worker, where lookups for this key
        // land anyway.
        let path = if req.query.is_empty() {
            "/v1/workflows".to_string()
        } else {
            format!("/v1/workflows?{}", req.query)
        };
        let owner = |down: &[bool]| self.ring.owner(wkey, down);
        let post = |c: &mut Client, h: &[(&str, &str)]| {
            c.post_raw_with_headers(&path, req.body.clone(), h)
        };
        let resp = match self.forward(req, "workflow_forward", owner, post) {
            Ok(resp) => resp,
            Err(refusal) => return refusal,
        };
        if resp.status != 200 {
            return passthrough(&resp);
        }
        let mut out = Response {
            status: resp.status,
            headers: vec![("Content-Type".into(), "application/x-ndjson".into())],
            body: resp.body,
            chunked: true,
            stream: None,
        };
        if let Some(v) = resp.headers.iter().find(|(n, _)| n == "x-workflow-key") {
            out = out.with_header("X-Workflow-Key", &v.1);
        }
        out
    }
}

/// A JSON response with `body`, no other headers.
fn json_response(status: u16, body: Vec<u8>) -> Response {
    Response {
        status,
        headers: vec![("Content-Type".into(), "application/json".into())],
        body,
        chunked: false,
        stream: None,
    }
}

/// A worker's response replayed verbatim (status + JSON body), plus any
/// resource-address headers worth keeping. A 304 has no body, so it goes
/// out without a content type, as the worker sent it.
fn passthrough(resp: &ClientResponse) -> Response {
    let mut out = json_response(resp.status, resp.body.clone());
    if resp.status == 304 {
        out.headers.clear();
    }
    for name in [
        "X-Run-Key",
        "X-Sweep-Key",
        "X-Workflow-Key",
        "ETag",
        "Retry-After",
    ] {
        if let Some(v) = resp.header(&name.to_ascii_lowercase()) {
            out = out.with_header(name, v);
        }
    }
    out
}

fn no_workers(rid: &str) -> Response {
    envelope(
        503,
        "no_workers",
        "no live workers to place the request on",
        Some(1),
        rid,
    )
}

impl Handler for Coordinator {
    fn handle(&self, req: &Request) -> Response {
        front::handle(self, req)
    }
}

impl Backend for Coordinator {
    const DOOR: Door = Door {
        noun: "coordinator",
        bin: "coordinator",
        log: "cluster",
    };
    type Sweep = ClusterSweep;

    fn core(&self) -> &Core<Coordinator> {
        &self.core
    }

    /// `POST /v1/runs`: coalesce concurrent identical requests onto one
    /// flight and forward the raw body to the key's owner, whose engine
    /// answers a repeat from its own cache — rehashing to the next
    /// scorer when the owner is unreachable.
    fn run(&self, req: &Request, job: &OwnedJobSpec) -> Response {
        let key = run_key(&job.spec());
        let hex = key.hex();
        let owner = |down: &[bool]| self.ring.owner(key, down);
        let post = |c: &mut Client, h: &[(&str, &str)]| {
            c.post_raw_with_headers("/v1/runs", req.body.clone(), h)
        };
        let (resp, coalesced) = self.flights.run(
            key.0,
            || match self.forward(req, "run_forward", owner, post) {
                Ok(resp) => passthrough(&resp),
                Err(refusal) => refusal.with_header("X-Run-Key", &hex),
            },
            |_| {
                envelope(500, "internal", "handler panicked", None, &req.request_id)
                    .with_header("X-Run-Key", &hex)
            },
        );
        if coalesced {
            self.flights_coalesced.fetch_add(1, Ordering::Relaxed);
        }
        resp
    }

    fn run_report(&self, req: &Request, key: &str) -> Response {
        self.proxy_to_owner(req, key, &format!("/v1/runs/{key}"))
    }

    fn run_trace(&self, req: &Request, key: &str) -> Response {
        self.proxy_to_owner(req, key, &format!("/v1/runs/{key}/trace"))
    }

    /// `GET /v1/sweeps/{key}/trace`: resolves the retained stitch plan
    /// into one Chrome trace — coordinator spans plus each worker's
    /// journaled sweep phases on its own process lane (see
    /// `crate::stitch`). Worker traces are fetched lazily here, so the
    /// sweep's hot path pays nothing for stitching.
    fn sweep_trace(&self, req: &Request, key: &str) -> Response {
        let rid = &req.request_id;
        let deadline = Deadline::from_request(req);
        let rendered = self.stitch.with(&key.to_ascii_lowercase(), |plan| {
            stitch::render(plan, |shard| {
                let wskey = shard.worker_sweep_key.as_deref()?;
                // A spent budget degrades the stitch to coordinator-only
                // lanes instead of chasing worker traces past it.
                let budget = deadline.remaining_ms().ok()?;
                let budget = budget.map(|ms| ms.to_string());
                let path = format!("/v1/sweeps/{wskey}/trace");
                let tc = trace_context(rid, "stitch_fetch", 0);
                let mut headers = vec![("X-Request-Id", rid.as_str()), ("X-Trace-Context", &tc)];
                if let Some(ms) = budget.as_deref() {
                    headers.push(("X-Deadline-Ms", ms));
                }
                let resp = self
                    .call_worker(shard.slot, Site::ClusterForward, |c| {
                        c.get_with_headers(&path, &headers)
                    })
                    .ok()?;
                if resp.status != 200 {
                    return None;
                }
                String::from_utf8(resp.body).ok()
            })
        });
        match rendered {
            Some(json) => json_response(200, json.into_bytes()),
            None => fail(
                req,
                404,
                "not_found",
                "no stitched trace retained for that sweep key",
            ),
        }
    }

    fn sweep(
        &self,
        job: &Arc<SweepJob>,
        rid: &str,
        deadline: Deadline,
    ) -> Result<ClusterSweep, SpecError> {
        let sweep = self.cluster_sweep(job, rid, deadline)?;
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.sweep_jobs
            .fetch_add(sweep.summary.jobs_total, Ordering::Relaxed);
        Ok(sweep)
    }

    /// `POST /v1/experiments/{name}`: whole-figure renders have no run key
    /// to shard on; they go to the first live slot (deterministic, and the
    /// worker's own caches keep repeats cheap).
    fn experiment(&self, req: &Request, _name: &str) -> Response {
        let first_live = |down: &[bool]| (0..self.ring.len()).find(|&s| !down[s]);
        let post = |c: &mut Client, h: &[(&str, &str)]| {
            c.post_raw_with_headers(&req.path, req.body.clone(), h)
        };
        match self.forward(req, "experiment", first_live, post) {
            Ok(resp) => passthrough(&resp),
            Err(refusal) => refusal,
        }
    }

    fn named_workflow(&self, req: &Request, _: Json, _: TaskGraph, key: RunKey) -> Response {
        self.proxy_workflow(req, key)
    }

    /// Built-in graphs journal on the worker that ran them: ask the key's
    /// owner.
    fn workflow_elsewhere(&self, req: &Request, key: &str) -> Response {
        self.proxy_to_owner(req, key, &format!("/v1/workflows/{key}"))
    }

    /// Unready while every worker's breaker is open.
    fn readiness(&self) -> Readiness {
        let down = self.down_mask();
        let live = down.iter().filter(|&&d| !d).count();
        Readiness {
            fields: vec![
                ("workers_total".to_string(), Json::U64(down.len() as u64)),
                ("workers_live".to_string(), Json::U64(live as u64)),
            ],
            unready: (live == 0).then_some("every worker breaker is open"),
            retry_after_s: 1,
        }
    }

    fn faults(&self) -> &Injector {
        &self.faults
    }

    /// The federated worker families first (so this scrape's failures are
    /// visible in the scrape-error counters below), then the per-worker
    /// and cluster-wide coordinator families.
    fn prometheus(&self, r: &MetricRegistry) {
        use std::sync::atomic::Ordering::Relaxed;
        self.federate(r);
        for w in &self.workers {
            let labels: &[(&str, &str)] = &[("worker", w.addr.as_str())];
            r.counter_with(
                "heteropipe_cluster_forwarded_total",
                "Coordinator calls answered by this worker.",
                labels,
            )
            .set(w.forwarded.load(Relaxed));
            r.counter_with(
                "heteropipe_cluster_worker_failures_total",
                "Coordinator calls to this worker that failed in transport.",
                labels,
            )
            .set(w.failures.load(Relaxed));
            r.counter_with(
                "heteropipe_cluster_scrape_errors_total",
                "Federated metrics scrapes of this worker that failed.",
                labels,
            )
            .set(w.scrape_errors.load(Relaxed));
            r.gauge_with(
                "heteropipe_cluster_worker_healthy",
                "Whether this worker's breaker admits traffic (1 = healthy).",
                labels,
            )
            .set(f64::from(u8::from(!w.breaker.currently_open())));
            r.histogram_with(
                "heteropipe_cluster_forward_latency_microseconds",
                "Coordinator-observed latency of calls to this worker.",
                labels,
            )
            .merge(&w.fwd_us.snapshot());
        }
        let set = |name: &str, help: &str, v: u64| r.counter(name, help).set(v);
        set(
            "heteropipe_cluster_rehashes_total",
            "Key placements moved off an unreachable worker.",
            self.rehashes.load(Relaxed),
        );
        set(
            "heteropipe_cluster_flights_coalesced_total",
            "Requests coalesced onto a concurrent identical run flight.",
            self.flights_coalesced.load(Relaxed),
        );
        set(
            "heteropipe_cluster_sweeps_total",
            "Sweeps merged through the coordinator.",
            self.sweeps.load(Relaxed),
        );
        set(
            "heteropipe_cluster_sweep_jobs_total",
            "Entries submitted across all coordinator sweeps.",
            self.sweep_jobs.load(Relaxed),
        );
    }

    /// `cluster` ahead of the shared fields, `federation` after them.
    fn metrics_json(&self, shared: Vec<(String, Json)>) -> Vec<(String, Json)> {
        use std::sync::atomic::Ordering::Relaxed;
        let workers: Vec<Json> = self
            .workers
            .iter()
            .enumerate()
            .map(|(slot, w)| {
                Json::Obj(vec![
                    ("slot".into(), Json::U64(slot as u64)),
                    ("addr".into(), Json::str(w.addr.clone())),
                    ("breaker".into(), Json::str(w.breaker.state_name())),
                    ("forwarded".into(), Json::U64(w.forwarded.load(Relaxed))),
                    ("failures".into(), Json::U64(w.failures.load(Relaxed))),
                ])
            })
            .collect();
        let cluster = Json::Obj(vec![
            ("workers".into(), Json::Arr(workers)),
            ("rehashes".into(), Json::U64(self.rehashes.load(Relaxed))),
            (
                "flights_coalesced".into(),
                Json::U64(self.flights_coalesced.load(Relaxed)),
            ),
            (
                "sweeps".into(),
                Json::Obj(vec![
                    ("count".into(), Json::U64(self.sweeps.load(Relaxed))),
                    ("jobs".into(), Json::U64(self.sweep_jobs.load(Relaxed))),
                ]),
            ),
            ("faults_fired".into(), Json::U64(self.faults.total_fired())),
        ]);
        // The federated view: every worker's registry scraped and merged
        // under `worker` labels, rendered through the registry's own JSON
        // exposition so the JSON and Prometheus formats stay in parity.
        let fed = MetricRegistry::new();
        let scrapes = self.federate(&fed);
        let scrape_errors: u64 = self
            .workers
            .iter()
            .map(|w| w.scrape_errors.load(Relaxed))
            .sum();
        let families = Json::parse(&fed.render_json())
            .and_then(|v| v.get("families").cloned())
            .unwrap_or(Json::Null);
        let federation = Json::Obj(vec![
            ("scrape_errors".into(), Json::U64(scrape_errors)),
            ("workers".into(), Json::Arr(scrapes)),
            ("families".into(), families),
        ]);
        let mut fields = vec![("cluster".into(), cluster)];
        fields.extend(shared);
        fields.push(("federation".into(), federation));
        fields
    }
}

// ---- sweeps ---------------------------------------------------------------

/// A merged cluster sweep: every record line in global submission order
/// (no trailing newlines), whether it carries an error, and the
/// coordinator's summary.
pub struct ClusterSweep {
    job: Arc<SweepJob>,
    records: Vec<(String, bool)>,
    summary: ClusterSweepSummary,
}

impl SweepRun for ClusterSweep {
    /// Records in index order, all at once: the coordinator merges before
    /// it emits, so an async job journals the merged stream only after
    /// the whole cluster sweep resolved.
    fn emit(&self, record: &mut RecordFn<'_>) -> Json {
        for (i, (line, errored)) in self.records.iter().enumerate() {
            record(i as u64, line, *errored);
        }
        self.summary.json(&self.job.key_hex)
    }
}

/// The coordinator's sweep accounting — its own schema, one level above
/// the worker summaries it aggregates (and like them, excluded from the
/// stream's byte-identity guarantee).
struct ClusterSweepSummary {
    jobs_total: u64,
    jobs_unique: u64,
    duplicates: u64,
    cache_hits: u64,
    executed: u64,
    coalesced: u64,
    failed: u64,
    rehashes: u64,
    wall_ms: u64,
}

impl ClusterSweepSummary {
    fn json(&self, key_hex: &str) -> Json {
        Json::Obj(vec![(
            "sweep".to_string(),
            Json::Obj(vec![
                ("key".into(), Json::str(key_hex)),
                ("jobs_total".into(), Json::U64(self.jobs_total)),
                ("jobs_unique".into(), Json::U64(self.jobs_unique)),
                ("duplicates".into(), Json::U64(self.duplicates)),
                ("cache_hits".into(), Json::U64(self.cache_hits)),
                ("executed".into(), Json::U64(self.executed)),
                ("coalesced".into(), Json::U64(self.coalesced)),
                ("failed".into(), Json::U64(self.failed)),
                ("rehashes".into(), Json::U64(self.rehashes)),
                ("wall_ms".into(), Json::U64(self.wall_ms)),
            ]),
        )])
    }
}

/// A worker sweep record split into the parts the merge rewrites (local
/// index, status) and the part it must preserve byte-for-byte (the
/// `"report":…}` / `"error":…}` payload suffix — re-serializing a report
/// could perturb float bytes, so it is never parsed).
fn split_record(line: &str) -> Option<(usize, String, String)> {
    let rest = line.strip_prefix("{\"index\":")?;
    let index: usize = rest[..rest.find(',')?].parse().ok()?;
    // First occurrences are the record's own fields: the fixed prefix
    // (index, key, status, deduped) precedes any payload content.
    let after_status = &line[line.find("\"status\":\"")? + "\"status\":\"".len()..];
    let status = after_status[..after_status.find('"')?].to_string();
    let after_deduped = &line[line.find("\"deduped\":")? + "\"deduped\":".len()..];
    let payload = after_deduped[after_deduped.find(',')? + 1..].to_string();
    Some((index, status, payload))
}

/// Renders one merged record: the single-node `sweep_record_json` layout
/// with the global index and occurrence-order dedup flag spliced around
/// the preserved payload.
fn render_record(index: usize, hex: &str, status: &str, deduped: bool, payload: &str) -> String {
    format!("{{\"index\":{index},\"key\":\"{hex}\",\"status\":\"{status}\",\"deduped\":{deduped},{payload}")
}

/// What a shard call resolved: per unique-key payloads plus the worker
/// summary's execution accounting, and the coordinator-side span and
/// stitch metadata trace stitching needs (see `crate::stitch`).
struct ShardOutcome {
    resolved: Vec<(usize, String, String)>,
    cache_hits: u64,
    executed: u64,
    coalesced: u64,
    span: CoordSpan,
    stitch: StitchShard,
}

impl Coordinator {
    /// The sweep core behind `POST /v1/sweeps`, async sweeps and inline
    /// workflow stages: dedup to unique keys, one worker sweep per shard
    /// with rehash-on-failure, and reassemble global records (sorted by
    /// global submission index). A spent deadline aborts the sweep with a
    /// 504 before any record exists.
    fn cluster_sweep(
        &self,
        job: &Arc<SweepJob>,
        rid: &str,
        deadline: Deadline,
    ) -> Result<ClusterSweep, SpecError> {
        let start = Instant::now();
        let (keys, entries) = (&job.keys, &job.entries[..]);

        // In-batch dedup, mirroring the engine: the first occurrence of a
        // key leads (deduped=false), later occurrences follow. Duplicates
        // never cross shards — a key has exactly one owner.
        let mut unique: Vec<(RunKey, Vec<usize>)> = Vec::new();
        let mut seen: HashMap<u128, usize> = HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            match seen.get(&k.0) {
                Some(&u) => unique[u].1.push(i),
                None => {
                    seen.insert(k.0, unique.len());
                    unique.push((k, vec![i]));
                }
            }
        }
        let mut spans = vec![CoordSpan {
            name: "plan".into(),
            tid: 0,
            ts_us: 0.0,
            dur_us: start.elapsed().as_micros() as f64,
            args: vec![
                ("jobs".into(), entries.len().to_string()),
                ("unique".into(), unique.len().to_string()),
            ],
        }];
        let mut stitch_shards: Vec<StitchShard> = Vec::new();

        let mut resolved: Vec<Option<(String, String)>> = vec![None; unique.len()];
        let mut pending: Vec<usize> = (0..unique.len()).collect();
        let mut down = self.down_mask();
        let mut rehashes = 0u64;
        let (mut cache_hits, mut executed, mut coalesced) = (0u64, 0u64, 0u64);

        while !pending.is_empty() {
            // A spent deadline aborts the remaining shards: the caller
            // answers 504 instead of placing work nobody is waiting for.
            if deadline.expired() {
                return Err(SpecError::new(
                    504,
                    "deadline_exceeded",
                    format!(
                        "deadline budget exhausted with {} of {} unique jobs unresolved",
                        pending.len(),
                        unique.len()
                    ),
                ));
            }
            // Assign every pending unique key to its owner under the
            // current mask. Owners exist for all keys or none.
            let mut shards: HashMap<usize, Vec<usize>> = HashMap::new();
            for &u in &pending {
                match self.ring.owner(unique[u].0, &down) {
                    Some(slot) => shards.entry(slot).or_default().push(u),
                    None => {
                        // No live workers: the remaining keys fail in
                        // place so the stream stays well-formed.
                        for &u in &pending {
                            resolved[u] = Some((
                                "error".to_string(),
                                "\"error\":{\"code\":\"no_workers\",\"message\":\"no live workers to place the job on\"}}".to_string(),
                            ));
                        }
                        pending.clear();
                        shards.clear();
                        break;
                    }
                }
            }
            if pending.is_empty() {
                break;
            }

            let results: Vec<(usize, Vec<usize>, std::io::Result<ShardOutcome>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = shards
                        .into_iter()
                        .map(|(slot, uidxs)| {
                            let unique = &unique;
                            let t0 = &start;
                            scope.spawn(move || {
                                let outcome = self
                                    .run_shard(slot, &uidxs, unique, entries, rid, t0, deadline);
                                (slot, uidxs, outcome)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });

            pending.clear();
            for (slot, uidxs, outcome) in results {
                match outcome {
                    Ok(shard) => {
                        cache_hits += shard.cache_hits;
                        executed += shard.executed;
                        coalesced += shard.coalesced;
                        spans.push(shard.span);
                        stitch_shards.push(shard.stitch);
                        for (u, status, payload) in shard.resolved {
                            resolved[u] = Some((status, payload));
                        }
                    }
                    Err(_) => {
                        // The shard's worker is unreachable: mask it out
                        // and rehash its keys onto the survivors.
                        down[slot] = true;
                        rehashes += 1;
                        pending.extend(uidxs);
                    }
                }
            }
        }
        self.rehashes.fetch_add(rehashes, Ordering::Relaxed);

        let merge_ts = start.elapsed().as_micros() as f64;
        let merge_t0 = Instant::now();
        let mut records = vec![(String::new(), false); keys.len()];
        let mut failed = 0u64;
        for (u, (key, globals)) in unique.iter().enumerate() {
            let (status, payload) = resolved[u].as_ref().expect("every unique key resolves");
            let hex = key.hex();
            let errored = status == "error";
            if errored {
                failed += globals.len() as u64;
            }
            for (j, &g) in globals.iter().enumerate() {
                records[g] = (render_record(g, &hex, status, j > 0, payload), errored);
            }
        }
        heteropipe_obs::profile::record(cprof::merge(), merge_t0.elapsed().as_nanos() as u64);
        spans.push(CoordSpan {
            name: "merge".into(),
            tid: 0,
            ts_us: merge_ts,
            dur_us: start.elapsed().as_micros() as f64 - merge_ts,
            args: vec![("records".into(), keys.len().to_string())],
        });
        let jobs_total = keys.len() as u64;
        let jobs_unique = unique.len() as u64;
        self.stitch.insert(StitchPlan {
            sweep_key: job.key_hex.clone(),
            request_id: rid.to_string(),
            jobs: jobs_total,
            spans,
            shards: stitch_shards,
        });
        Ok(ClusterSweep {
            job: Arc::clone(job),
            records,
            summary: ClusterSweepSummary {
                jobs_total,
                jobs_unique,
                duplicates: jobs_total - jobs_unique,
                cache_hits,
                executed,
                coalesced,
                failed,
                rehashes,
                wall_ms: start.elapsed().as_millis() as u64,
            },
        })
    }

    /// One shard's share of a sweep: POST the shard's unique keys as one
    /// worker-local sweep, whose engine answers cached keys from its own
    /// memory or disk tier and executes the rest, then split its records.
    /// Any transport error fails the whole shard (the caller rehashes).
    #[allow(clippy::too_many_arguments)]
    fn run_shard(
        &self,
        slot: usize,
        uidxs: &[usize],
        unique: &[(RunKey, Vec<usize>)],
        entries: &[Json],
        rid: &str,
        t0: &Instant,
        deadline: Deadline,
    ) -> std::io::Result<ShardOutcome> {
        let jobs: Vec<String> = uidxs
            .iter()
            .map(|&u| entries[unique[u].1[0]].dump())
            .collect();
        let body = format!("{{\"jobs\":[{}]}}", jobs.join(","));
        let fwd_ts = t0.elapsed().as_micros() as f64;
        let tc = trace_context(rid, "forward_sweep", fwd_ts as u64);
        let budget = deadline.remaining_ms().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "deadline budget exhausted before shard forward",
            )
        })?;
        let budget = budget.map(|ms| ms.to_string());
        let mut headers = vec![("X-Request-Id", rid), ("X-Trace-Context", tc.as_str())];
        if let Some(ms) = budget.as_deref() {
            headers.push(("X-Deadline-Ms", ms));
        }
        let fwd_t0 = Instant::now();
        let resp = self.call_worker(slot, Site::ClusterForward, |c| {
            c.post_raw_with_headers("/v1/sweeps", body.into_bytes(), &headers)
        });
        heteropipe_obs::profile::record(cprof::forward(), fwd_t0.elapsed().as_nanos() as u64);
        let resp = resp?;
        let fwd_dur = t0.elapsed().as_micros() as f64 - fwd_ts;
        let worker_sweep_key = resp.header("x-sweep-key").map(str::to_owned);
        let shard_error =
            |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string());
        if resp.status != 200 {
            return Err(shard_error(&format!(
                "shard sweep answered {}",
                resp.status
            )));
        }
        let text =
            std::str::from_utf8(&resp.body).map_err(|_| shard_error("non-UTF-8 sweep stream"))?;
        let (mut resolved, mut cache_hits, mut executed, mut coalesced) =
            (Vec::with_capacity(uidxs.len()), 0, 0, 0);
        let mut worker_wall_ms = 0u64;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            if let Some(rest) = line.strip_prefix("{\"sweep\":") {
                // The worker's trailing summary: fold its execution
                // accounting into the coordinator's.
                let summary = Json::parse(&format!("{{\"sweep\":{rest}"))
                    .ok_or_else(|| shard_error("unparseable shard summary"))?;
                let field = |name: &str| {
                    summary
                        .get("sweep")
                        .and_then(|s| s.get(name))
                        .and_then(Json::as_u64)
                        .unwrap_or(0)
                };
                cache_hits += field("cache_hits");
                executed += field("executed");
                coalesced += field("coalesced");
                worker_wall_ms = field("wall_ms");
                continue;
            }
            let (local, status, payload) =
                split_record(line).ok_or_else(|| shard_error("unsplittable shard record"))?;
            let &u = uidxs
                .get(local)
                .ok_or_else(|| shard_error("shard record index out of range"))?;
            resolved.push((u, status, payload));
        }
        if resolved.len() != uidxs.len() {
            return Err(shard_error("shard stream truncated"));
        }
        let span = CoordSpan {
            name: "forward_sweep".into(),
            tid: 1 + slot as u32,
            ts_us: fwd_ts,
            dur_us: fwd_dur,
            args: vec![
                ("jobs".into(), uidxs.len().to_string()),
                (
                    "worker_sweep_key".into(),
                    worker_sweep_key.clone().unwrap_or_else(|| "-".into()),
                ),
            ],
        };
        // The half-residual-RTT clock sample: the worker's trace clock
        // started roughly when the forward's transport overhead was half
        // spent (see crate::stitch for the full derivation).
        let residual_us = (fwd_dur - worker_wall_ms as f64 * 1000.0).max(0.0);
        Ok(ShardOutcome {
            resolved,
            cache_hits,
            executed,
            coalesced,
            span,
            stitch: StitchShard {
                slot,
                addr: self.workers[slot].addr.clone(),
                worker_sweep_key,
                offset_us: fwd_ts + residual_us / 2.0,
            },
        })
    }

    /// Metrics federation: scrapes every worker's Prometheus exposition
    /// over the client pool and merges each into `r` under a `worker`
    /// label, so one coordinator scrape sees the whole cluster. Scrapes
    /// bypass [`Coordinator::call_worker`] on purpose — a metrics pull
    /// must never perturb the breakers or the forwarding counters the
    /// metrics themselves report. Unreachable workers count against
    /// `heteropipe_cluster_scrape_errors_total` and degrade to their
    /// coordinator-side view only. Returns one status object per worker
    /// for the JSON rendering.
    fn federate(&self, r: &MetricRegistry) -> Vec<Json> {
        self.workers
            .iter()
            .map(|w| {
                let result = (|| -> Result<usize, String> {
                    let mut client = self.pool.checkout(&w.addr);
                    let resp = client
                        .get_with_headers("/metrics?format=prometheus", &[])
                        .map_err(|e| e.to_string())?;
                    if resp.status != 200 {
                        return Err(format!("scrape answered {}", resp.status));
                    }
                    let text = std::str::from_utf8(&resp.body)
                        .map_err(|_| "non-UTF-8 exposition".to_string())?;
                    let scraped = MetricRegistry::from_exposition(text)?;
                    Ok(r.merge(&scraped, &[("worker", &w.addr)]))
                })();
                let mut fields = vec![("addr".to_string(), Json::str(w.addr.clone()))];
                match result {
                    Ok(skipped) => {
                        fields.push(("ok".into(), Json::Bool(true)));
                        if skipped > 0 {
                            fields.push(("skipped_families".into(), Json::U64(skipped as u64)));
                        }
                    }
                    Err(why) => {
                        w.scrape_errors.fetch_add(1, Ordering::Relaxed);
                        obs_log::warn(
                            "cluster",
                            "metrics scrape failed",
                            &[
                                ("worker", w.addr.clone().into()),
                                ("error", why.clone().into()),
                            ],
                        );
                        fields.push(("ok".into(), Json::Bool(false)));
                        fields.push(("error".into(), Json::str(why)));
                    }
                }
                fields.push((
                    "scrape_errors".into(),
                    Json::U64(w.scrape_errors.load(Ordering::Relaxed)),
                ));
                Json::Obj(fields)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_splitting_round_trips() {
        let ok = r#"{"index":3,"key":"00ff","status":"ok","deduped":false,"report":{"benchmark":"x","roi_ps":12}}"#;
        let (idx, status, payload) = split_record(ok).unwrap();
        assert_eq!(idx, 3);
        assert_eq!(status, "ok");
        assert_eq!(payload, r#""report":{"benchmark":"x","roi_ps":12}}"#);
        assert_eq!(render_record(3, "00ff", &status, false, &payload), ok);
        // A follower occurrence flips only the dedup flag.
        assert_eq!(
            render_record(7, "00ff", &status, true, &payload),
            r#"{"index":7,"key":"00ff","status":"ok","deduped":true,"report":{"benchmark":"x","roi_ps":12}}"#
        );
    }

    #[test]
    fn record_splitting_handles_errors_and_rejects_garbage() {
        let err = r#"{"index":0,"key":"aa","status":"error","deduped":false,"error":{"code":"quarantined","message":"job aa is quarantined"}}"#;
        let (idx, status, payload) = split_record(err).unwrap();
        assert_eq!((idx, status.as_str()), (0, "error"));
        assert!(payload.starts_with("\"error\":"));
        assert!(split_record("not json").is_none());
        assert!(split_record("{\"sweep\":{}}").is_none());
    }

    #[test]
    fn no_workers_coordinator_answers_503_envelopes() {
        let coordinator = Coordinator::new(ClusterConfig::default());
        let req = Request {
            method: "POST".into(),
            path: "/v1/runs".into(),
            query: String::new(),
            headers: Vec::new(),
            body: br#"{"benchmark":"rodinia/hotspot","scale":0.02}"#.to_vec(),
            http10: false,
            request_id: "req-test".into(),
        };
        let resp = coordinator.handle(&req);
        assert_eq!(resp.status, 503);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("no_workers"), "{body}");
    }

    #[test]
    fn routing_rejects_unknown_and_misused_routes() {
        let coordinator = Coordinator::new(ClusterConfig::default());
        let req = |method: &str, path: &str| Request {
            method: method.into(),
            path: path.into(),
            query: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
            http10: false,
            request_id: "req-test".into(),
        };
        assert_eq!(coordinator.handle(&req("GET", "/healthz")).status, 200);
        assert_eq!(coordinator.handle(&req("DELETE", "/v1/runs")).status, 405);
        assert_eq!(coordinator.handle(&req("GET", "/nope")).status, 404);
        assert_eq!(
            coordinator.handle(&req("GET", "/v1/runs/zz")).status,
            400,
            "malformed run key"
        );
        // All breakers vacuously open (no workers): unready.
        assert_eq!(
            coordinator.handle(&req("GET", "/healthz/ready")).status,
            503
        );
    }

    #[test]
    fn metrics_render_without_workers() {
        let coordinator = Coordinator::new(ClusterConfig {
            workers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            ..ClusterConfig::default()
        });
        let req = Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: "format=prometheus".into(),
            headers: Vec::new(),
            body: Vec::new(),
            http10: false,
            request_id: "req-test".into(),
        };
        let resp = coordinator.handle(&req);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        heteropipe_obs::expfmt::parse(&text).expect("valid exposition format");
        assert!(text.contains("heteropipe_cluster_worker_healthy{worker=\"127.0.0.1:1\"}"));
    }
}
