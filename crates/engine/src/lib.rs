//! # heteropipe-engine
//!
//! The experiment-execution subsystem every harness driver routes through.
//! An [`Engine`] implements [`heteropipe::Executor`] and layers three
//! things over the plain simulator:
//!
//! * a **content-addressed result cache** ([`cache::ResultCache`]): each
//!   job is addressed by a structural hash of its complete run key
//!   ([`key::run_key`]) — pipeline IR, every model constant, organization,
//!   misalignment flag, schema version — so re-running an experiment, or a
//!   sweep that shares its baseline with another study, reuses results
//!   instead of re-simulating. A disk tier under `results/cache/` makes
//!   reuse survive across invocations;
//! * a **job scheduler**: batches fan out over
//!   [`heteropipe::exec::par_map`]'s bounded work-queue with per-job
//!   failure capture and deterministic, submission-ordered results;
//! * a **batch sweep pipeline** ([`Engine::execute_sweep`]): run keys are
//!   computed up front, entries sharing a key are deduplicated onto one
//!   execution, and concurrent identical jobs — within or across batches —
//!   **single-flight** onto one leader ([`flight::SingleFlight`], in front
//!   of the cache), with per-sweep accounting
//!   ([`SweepSummary`]) and streaming per-entry completion records;
//! * **run metrics** ([`metrics::RunMetrics`]): jobs executed, cache hits
//!   by tier, simulated time, and wall time, summarized on stderr and
//!   exportable as CSV;
//! * **job-lifecycle tracing** (via `heteropipe-obs`): every job records
//!   its wall-clock phases — queue wait, cache probe, execute, persist —
//!   into a bounded [`heteropipe_obs::TraceStore`], merged with the run's
//!   simulated component timeline, retrievable as Chrome-trace JSON and
//!   correlated to the originating HTTP request by id
//!   ([`Engine::execute_observed`]);
//! * a **resilience layer** (see `docs/robustness.md`): per-attempt panic
//!   isolation with retry under capped jittered backoff, a poisoned-job
//!   quarantine for jobs that exhaust their budget
//!   ([`Engine::try_execute`] surfaces [`EngineError`]), an observational
//!   per-job watchdog, and deterministic fault seams
//!   ([`Engine::with_faults`]) threaded through the cache I/O and job
//!   execution paths for chaos testing.
//!
//! Because the simulator is deterministic and [`heteropipe::RunReport`]
//! is float-free, a cached result is bit-for-bit the result a fresh run
//! would produce: rendered tables are byte-identical hot, cold, or with
//! caching disabled.

#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod error;
pub mod flight;
pub mod journal;
pub mod key;
pub mod metrics;
pub mod sweep;

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use heteropipe::exec::{panic_message, JobError};
use heteropipe::trace::TaskSpan;
use heteropipe::{Executor, JobSpec, RunReport};
use heteropipe_faults::{with_retries, FaultKind, Injector, RetryPolicy, Site};
use heteropipe_obs::log as obs_log;
use heteropipe_obs::{JobTrace, PhaseTimer, TraceStore};

/// Hot-path profiler phase slots, registered once per process and cached
/// behind `OnceLock`s so the execute path pays only the profiler's atomic
/// adds. These are additive instrumentation: the per-job [`PhaseTimer`]
/// phases (and the trace phase lists tests pin) are untouched.
pub(crate) mod prof {
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

    phase_slot!(cache_probe, "engine.cache_probe");
    phase_slot!(decode, "engine.cache_decode");
    phase_slot!(validate, "engine.cache_validate");
    phase_slot!(execute, "engine.execute");
    phase_slot!(persist, "engine.persist");
    phase_slot!(splice, "engine.trace_splice");
}

pub use cache::{CacheTier, ResultCache};
pub use error::EngineError;
pub use flight::SingleFlight;
pub use journal::{Journal, JournalStatsSnapshot, Replay, DEFAULT_JOURNAL_DIR};
pub use key::{composite_key, run_key, shard_score, RunKey, SCHEMA_VERSION};
pub use metrics::{MetricsSnapshot, RunMetrics};
pub use sweep::{sweep_key, SweepOutcome, SweepRecord, SweepSummary};

/// The default on-disk cache location, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// Default number of job traces retained by the engine's trace store.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// The caching executor. Construct with [`Engine::new`] and customize with
/// the builder methods, then hand it to the `*_with` experiment drivers as
/// a `&dyn Executor`.
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    cache: Option<ResultCache>,
    metrics: RunMetrics,
    traces: TraceStore,
    faults: Arc<Injector>,
    retry: RetryPolicy,
    watchdog: Option<Duration>,
    poisoned: Mutex<HashSet<u128>>,
    flights: SingleFlight<Result<(RunReport, Disposition), EngineError>>,
}

/// How a job's report was obtained; feeds the trace outcome label and the
/// per-sweep accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    MemoryHit,
    DiskHit,
    Executed,
    Coalesced,
}

impl Disposition {
    pub(crate) fn is_cache_hit(self) -> bool {
        matches!(self, Disposition::MemoryHit | Disposition::DiskHit)
    }

    fn label(self) -> &'static str {
        match self {
            Disposition::MemoryHit => "memory_hit",
            Disposition::DiskHit => "disk_hit",
            Disposition::Executed => "executed",
            Disposition::Coalesced => "coalesced",
        }
    }
}

impl Engine {
    /// An engine with full parallelism and the default disk-backed cache
    /// under [`DEFAULT_CACHE_DIR`].
    pub fn new() -> Self {
        Engine {
            jobs: heteropipe::exec::default_parallelism(),
            cache: Some(ResultCache::on_disk(DEFAULT_CACHE_DIR)),
            metrics: RunMetrics::new(),
            traces: TraceStore::new(DEFAULT_TRACE_CAPACITY),
            faults: Arc::new(Injector::disabled()),
            retry: RetryPolicy::DEFAULT,
            watchdog: None,
            poisoned: Mutex::new(HashSet::new()),
            flights: SingleFlight::new(),
        }
    }

    /// Caps batch parallelism at `jobs` concurrent simulations (min 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Persists the cache under `dir` instead of the default.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        let cache = self.configured_cache(ResultCache::on_disk(dir));
        self.cache = Some(cache);
        self
    }

    /// Keeps the cache in memory only (no files written).
    pub fn memory_cache_only(mut self) -> Self {
        let cache = self.configured_cache(ResultCache::in_memory());
        self.cache = Some(cache);
        self
    }

    /// Threads `faults` through every injection seam the engine owns: the
    /// cache read/write paths and the job-execution path. The production
    /// default is [`Injector::disabled`], which costs one branch per seam.
    pub fn with_faults(mut self, faults: Arc<Injector>) -> Self {
        if let Some(cache) = &mut self.cache {
            cache.set_faults(Arc::clone(&faults));
        }
        self.faults = faults;
        self
    }

    /// Overrides the retry policy shared by job execution and cache
    /// persistence (default [`RetryPolicy::DEFAULT`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        if let Some(cache) = &mut self.cache {
            cache.set_retry(retry);
        }
        self.retry = retry;
        self
    }

    /// Arms a per-attempt watchdog: an execution attempt that outlives
    /// `deadline` is counted and logged the moment the deadline passes.
    /// The watchdog is observational — std threads cannot be cancelled, so
    /// the attempt is then awaited to completion rather than abandoned.
    pub fn with_watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(deadline);
        self
    }

    /// Applies this engine's fault injector and retry policy to a freshly
    /// built cache, so builder-call order never matters.
    fn configured_cache(&self, mut cache: ResultCache) -> ResultCache {
        cache.set_faults(Arc::clone(&self.faults));
        cache.set_retry(self.retry);
        cache
    }

    /// Disables caching entirely: every job simulates (`--no-cache`).
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Retains up to `cap` job traces instead of
    /// [`DEFAULT_TRACE_CAPACITY`] (clamped to ≥ 1).
    pub fn with_trace_capacity(mut self, cap: usize) -> Self {
        self.traces = TraceStore::new(cap);
        self
    }

    /// The configured batch parallelism.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The cache, if enabled.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// The fault injector threaded through this engine's seams (the
    /// disabled injector unless [`Engine::with_faults`] was called).
    pub fn faults(&self) -> &Injector {
        &self.faults
    }

    /// A snapshot of this engine's counters, with the cache's resilience
    /// counters merged in.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.metrics.snapshot();
        if let Some(cache) = &self.cache {
            snapshot.cache = cache.stats();
        }
        snapshot
    }

    /// The bounded store of recent job traces, keyed by run-key hex.
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// Executes a job like [`Executor::execute`], stamping `request_id`
    /// (the HTTP correlation id, when the job came in over the wire) onto
    /// the job's trace and log lines.
    ///
    /// # Panics
    ///
    /// Panics if the job fails on every retry attempt (see
    /// [`Engine::try_execute_observed`] for the fallible variant).
    pub fn execute_observed(&self, job: &JobSpec<'_>, request_id: Option<&str>) -> RunReport {
        self.try_execute_inner(job, request_id, 0)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes a job, surfacing resilience failures as [`EngineError`]
    /// instead of panicking: a job that panicked on every retry attempt,
    /// or one already quarantined by an earlier exhausted run.
    pub fn try_execute(&self, job: &JobSpec<'_>) -> Result<RunReport, EngineError> {
        self.try_execute_inner(job, None, 0)
    }

    /// [`Engine::try_execute`] with a request correlation id stamped onto
    /// the job's trace and log lines.
    pub fn try_execute_observed(
        &self,
        job: &JobSpec<'_>,
        request_id: Option<&str>,
    ) -> Result<RunReport, EngineError> {
        self.try_execute_inner(job, request_id, 0)
    }

    /// The shared execution path: refuses quarantined jobs, joins the
    /// key's single-flight slot (concurrent identical jobs coalesce onto
    /// one leader), probes the cache, simulates on a miss (retrying
    /// panicked attempts under backoff), persists the result, and records
    /// a [`JobTrace`] of the lifecycle. `queue_ns` is time already spent
    /// waiting in the batch queue.
    fn try_execute_inner(
        &self,
        job: &JobSpec<'_>,
        request_id: Option<&str>,
        queue_ns: u64,
    ) -> Result<RunReport, EngineError> {
        self.try_execute_disposed(job, request_id, queue_ns)
            .map(|(report, _)| report)
    }

    /// [`Engine::try_execute_inner`] plus how the report was obtained,
    /// for per-sweep accounting.
    pub(crate) fn try_execute_disposed(
        &self,
        job: &JobSpec<'_>,
        request_id: Option<&str>,
        queue_ns: u64,
    ) -> Result<(RunReport, Disposition), EngineError> {
        let mut timer = PhaseTimer::with_queue(queue_ns);
        let key = run_key(job);

        if self.poisoned.lock().unwrap().contains(&key.0) {
            obs_log::warn(
                "engine",
                "quarantined job refused",
                &[
                    ("request_id", request_id.unwrap_or("-").into()),
                    ("run_key", key.hex().into()),
                ],
            );
            return Err(EngineError::Quarantined { key_hex: key.hex() });
        }

        // For a waiter, the time spent in the flight is its wait; the
        // leader times its own phases.
        let (result, coalesced) = timer.time("flight_wait", || {
            self.flights.run(
                key.0,
                || self.leader_execute(job, key, request_id, queue_ns),
                |message| {
                    Err(EngineError::JobPanicked {
                        key_hex: key.hex(),
                        message,
                        attempts: 1,
                    })
                },
            )
        });
        if !coalesced {
            return result;
        }
        self.metrics.record_flight_coalesced();
        let (report, _) = result?;
        self.store_trace(key, &report, request_id, "coalesced", timer, Vec::new());
        self.log_job(
            obs_log::Level::Debug,
            "coalesced onto in-flight execution",
            key,
            &report,
            request_id,
            "coalesced",
        );
        Ok((report, Disposition::Coalesced))
    }

    /// The leader's side of a single flight: probe the cache, simulate on
    /// a miss, persist, trace.
    fn leader_execute(
        &self,
        job: &JobSpec<'_>,
        key: RunKey,
        request_id: Option<&str>,
        queue_ns: u64,
    ) -> Result<(RunReport, Disposition), EngineError> {
        let mut timer = PhaseTimer::with_queue(queue_ns);
        if let Some(cache) = &self.cache {
            let probe = timer.time("cache_probe", || {
                heteropipe_obs::profile::time(prof::cache_probe(), || cache.get(key))
            });
            if let Some((report, tier)) = probe {
                let disposition = match tier {
                    CacheTier::Memory => {
                        self.metrics.record_memory_hit();
                        Disposition::MemoryHit
                    }
                    CacheTier::Disk => {
                        self.metrics.record_disk_hit();
                        Disposition::DiskHit
                    }
                };
                self.store_trace(
                    key,
                    &report,
                    request_id,
                    disposition.label(),
                    timer,
                    Vec::new(),
                );
                self.log_job(
                    obs_log::Level::Debug,
                    "cache hit",
                    key,
                    &report,
                    request_id,
                    disposition.label(),
                );
                return Ok((report, disposition));
            }
            self.metrics.record_miss();
        }

        let start = Instant::now();
        let jitter_seed = (key.0 as u64) ^ ((key.0 >> 64) as u64);
        let outcome = timer.time("execute", || {
            heteropipe_obs::profile::time(prof::execute(), || {
                with_retries(
                    &self.retry,
                    jitter_seed,
                    |_| self.run_attempt(job),
                    |attempt, message: &String, sleep_ms| {
                        self.metrics.record_exec_retry();
                        obs_log::warn(
                            "engine",
                            "job attempt panicked, retrying",
                            &[
                                ("run_key", key.hex().into()),
                                ("attempt", u64::from(attempt).into()),
                                ("backoff_ms", sleep_ms.into()),
                                ("panic", message.clone().into()),
                            ],
                        );
                    },
                )
            })
        });
        let (report, spans) = match outcome {
            Ok(ok) => ok,
            Err(message) => {
                let attempts = self.retry.attempts.max(1);
                self.poisoned.lock().unwrap().insert(key.0);
                self.metrics.record_job_quarantined();
                obs_log::error(
                    "engine",
                    "job quarantined after exhausting retries",
                    &[
                        ("request_id", request_id.unwrap_or("-").into()),
                        ("run_key", key.hex().into()),
                        ("attempts", u64::from(attempts).into()),
                        ("panic", message.clone().into()),
                    ],
                );
                return Err(EngineError::JobPanicked {
                    key_hex: key.hex(),
                    message,
                    attempts,
                });
            }
        };
        self.metrics
            .record_executed(report.roi.as_picos(), start.elapsed().as_nanos() as u64);
        if let Some(cache) = &self.cache {
            timer.time("persist", || {
                heteropipe_obs::profile::time(prof::persist(), || cache.put(key, &report));
            });
        }
        let sim_events = heteropipe::trace::span_events(&report.benchmark, &spans);
        self.store_trace(key, &report, request_id, "executed", timer, sim_events);
        self.log_job(
            obs_log::Level::Info,
            "job executed",
            key,
            &report,
            request_id,
            "executed",
        );
        Ok((report, Disposition::Executed))
    }

    /// Looks up a cached report by key without executing anything,
    /// bumping the engine's hit counters, or consulting the quarantine —
    /// the read-only lookup behind `GET /v1/runs/{key}`. `None` when the
    /// key was never run, has been evicted, or caching is disabled.
    pub fn cached(&self, key: RunKey) -> Option<RunReport> {
        self.cache
            .as_ref()
            .and_then(|cache| cache.get(key))
            .map(|(report, _)| report)
    }

    /// The zero-copy variant of [`Engine::cached`]: the encoded `.hpr`
    /// record for `key`, validated (magic/version/checksum) but not
    /// decoded, shared as an `Arc`. Warm repeats cost a map lookup and a
    /// pointer clone — no decode, no allocation, no byte copy — which is
    /// how a conditional `GET /v1/runs/{key}` proves the key exists.
    pub fn cached_bytes(&self, key: RunKey) -> Option<Arc<Vec<u8>>> {
        self.cache
            .as_ref()
            .and_then(|cache| cache.get_bytes(key))
            .map(|(bytes, _)| bytes)
    }

    /// The body `GET /v1/runs/{key}` serves for a cached report: `render`
    /// runs on the first call for the key and the body is kept with the
    /// cached record after that (see [`ResultCache::body`]). Like
    /// [`Engine::cached`], it never executes or bumps hit counters.
    pub fn cached_body(
        &self,
        key: RunKey,
        render: impl FnOnce(&RunReport) -> Vec<u8>,
    ) -> Option<Arc<Vec<u8>>> {
        self.cache
            .as_ref()
            .and_then(|cache| cache.body(key, render))
    }

    /// One execution attempt: rolls the `job.exec` fault seam, isolates
    /// the job's panic (injected or real) with `catch_unwind`, and — when
    /// a watchdog deadline is armed — times the attempt from a scoped
    /// worker thread. `Err` carries the rendered panic message.
    ///
    /// The watchdog is observational by design: std threads cannot be
    /// cancelled, so an overrun is counted and logged the moment the
    /// deadline passes and the attempt is then awaited to completion.
    /// Injected hangs are bounded sleeps, so chaos runs still terminate.
    fn run_attempt(&self, job: &JobSpec<'_>) -> Result<(RunReport, Vec<TaskSpan>), String> {
        let attempt = || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(fault) = self.faults.roll(Site::JobExec) {
                    match fault.kind {
                        FaultKind::Hang => std::thread::sleep(Duration::from_millis(fault.hang_ms)),
                        _ => panic!("injected: {}", fault.kind.label()),
                    }
                }
                heteropipe::run::run_traced(
                    job.pipeline,
                    job.config,
                    job.organization,
                    job.misalignment_sensitive,
                )
            }))
            .map_err(panic_message)
        };
        let Some(deadline) = self.watchdog else {
            return attempt();
        };
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            scope.spawn(move || {
                let _ = tx.send(attempt());
            });
            match rx.recv_timeout(deadline) {
                Ok(result) => result,
                Err(_) => {
                    self.metrics.record_watchdog_fired();
                    obs_log::warn(
                        "engine",
                        "watchdog deadline exceeded, awaiting attempt",
                        &[
                            ("run_key", run_key(job).hex().into()),
                            ("deadline_ms", (deadline.as_millis() as u64).into()),
                        ],
                    );
                    rx.recv().expect("attempt thread sends exactly once")
                }
            }
        })
    }

    fn store_trace(
        &self,
        key: RunKey,
        report: &RunReport,
        request_id: Option<&str>,
        outcome: &str,
        timer: PhaseTimer,
        sim_events: Vec<String>,
    ) {
        heteropipe_obs::profile::time(prof::splice(), || {
            self.traces.insert(JobTrace {
                key_hex: key.hex(),
                benchmark: report.benchmark.clone(),
                request_id: request_id.map(str::to_owned),
                outcome: outcome.to_owned(),
                phases: timer.finish(),
                sim_events,
            });
        });
    }

    fn log_job(
        &self,
        level: obs_log::Level,
        msg: &str,
        key: RunKey,
        report: &RunReport,
        request_id: Option<&str>,
        outcome: &str,
    ) {
        obs_log::log(
            level,
            "engine",
            msg,
            &[
                ("request_id", request_id.unwrap_or("-").into()),
                ("run_key", key.hex().into()),
                ("benchmark", report.benchmark.as_str().into()),
                ("outcome", outcome.into()),
                ("simulated_ps", report.roi.as_picos().into()),
            ],
        );
    }

    /// Prints the metrics summary footer to stderr (stdout stays reserved
    /// for the rendered tables, which must not differ hot vs cold).
    pub fn print_summary(&self) {
        eprintln!("{}", self.metrics().summary());
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

// The server in `heteropipe-serve` shares one engine across worker
// threads behind an `Arc`; these assertions keep that contract explicit.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<ResultCache>();
    assert_send_sync::<RunMetrics>();
    assert_send_sync::<TraceStore>();
};

impl Executor for Engine {
    /// Executes one job. The `Executor` contract is infallible, so an
    /// [`EngineError`] (retries exhausted, job quarantined) is re-raised
    /// as a panic carrying the error's message; batch execution and the
    /// HTTP layer both catch panics per job.
    fn execute(&self, job: &JobSpec<'_>) -> RunReport {
        self.try_execute_inner(job, None, 0)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Batches route through the sweep pipeline ([`Engine::execute_sweep`]):
    /// entries sharing a run key dedup onto one execution, the unique
    /// residue fans out over the bounded work-queue, and each entry's
    /// failure stays its own ([`JobError`] wraps the [`EngineError`]).
    fn execute_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<Result<RunReport, JobError>> {
        self.execute_sweep(jobs)
            .results
            .into_iter()
            .enumerate()
            .map(|(index, result)| {
                result.map_err(|e| JobError {
                    index,
                    message: e.to_string(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteropipe::{Organization, SystemConfig};
    use heteropipe_workloads::{registry, Scale};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "heteropipe-engine-test-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn kmeans_spec<'a>(
        pipeline: &'a heteropipe_workloads::Pipeline,
        config: &'a SystemConfig,
    ) -> JobSpec<'a> {
        JobSpec {
            pipeline,
            config,
            organization: Organization::Serial,
            misalignment_sensitive: false,
        }
    }

    #[test]
    fn warm_run_hits_and_matches_cold() {
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);

        let engine = Engine::new().memory_cache_only().with_jobs(2);
        let cold = engine.execute(&spec);
        let warm = engine.execute(&spec);
        assert_eq!(cold, warm);
        let m = engine.metrics();
        assert_eq!(m.jobs_executed, 1);
        assert_eq!(m.memory_hits, 1);
        assert_eq!(m.misses, 1);
        assert!(m.simulated_ps > 0);
    }

    #[test]
    fn disk_cache_survives_engine_restart() {
        let dir = temp_dir("restart");
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::heterogeneous();
        let spec = kmeans_spec(&p, &cfg);

        let first = Engine::new().with_cache_dir(&dir);
        let cold = first.execute(&spec);
        assert_eq!(first.metrics().jobs_executed, 1);

        let second = Engine::new().with_cache_dir(&dir);
        let warm = second.execute(&spec);
        assert_eq!(warm, cold);
        let m = second.metrics();
        assert_eq!(m.jobs_executed, 0, "restarted engine must not re-simulate");
        assert_eq!(m.disk_hits, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_cache_file_is_recomputed() {
        let dir = temp_dir("corrupt");
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);

        let first = Engine::new().with_cache_dir(&dir);
        let cold = first.execute(&spec);
        let path = first.cache().unwrap().path_for(run_key(&spec)).unwrap();
        std::fs::write(&path, b"\0\0garbage\0\0").unwrap();

        let second = Engine::new().with_cache_dir(&dir);
        let recomputed = second.execute(&spec);
        assert_eq!(recomputed, cold);
        let m = second.metrics();
        assert_eq!(m.disk_hits, 0, "garbage must not decode");
        assert_eq!(m.jobs_executed, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_cache_engine_always_executes() {
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);

        let engine = Engine::new().without_cache();
        let a = engine.execute(&spec);
        let b = engine.execute(&spec);
        assert_eq!(a, b, "simulator must be deterministic");
        let m = engine.metrics();
        assert_eq!(m.jobs_executed, 2);
        assert_eq!(m.hits(), 0);
    }

    #[test]
    fn concurrent_executions_share_cache_without_corruption() {
        // Eight threads hammer one disk-backed engine with the same two
        // jobs: every result must be the deterministic report, and every
        // cache file written under the race must decode cleanly.
        use heteropipe::DirectExecutor;
        let dir = temp_dir("concurrent");
        let p1 = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let p2 = registry::find("rodinia/srad")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let expected = [
            DirectExecutor::with_jobs(1).execute(&kmeans_spec(&p1, &cfg)),
            DirectExecutor::with_jobs(1).execute(&kmeans_spec(&p2, &cfg)),
        ];

        let engine = std::sync::Arc::new(Engine::new().with_cache_dir(&dir));
        std::thread::scope(|s| {
            for t in 0..8 {
                let engine = std::sync::Arc::clone(&engine);
                let (p1, p2, cfg, expected) = (&p1, &p2, &cfg, &expected);
                s.spawn(move || {
                    for round in 0..3 {
                        let p = if (t + round) % 2 == 0 { p1 } else { p2 };
                        let got = engine.execute(&kmeans_spec(p, cfg));
                        let want = &expected[usize::from(got.benchmark == expected[1].benchmark)];
                        assert_eq!(&got, want, "thread {t} round {round}");
                    }
                });
            }
        });

        let m = engine.metrics();
        assert_eq!(m.jobs_total(), 24);
        assert!(
            m.jobs_executed >= 2,
            "both distinct jobs simulated at least once"
        );
        assert!(m.hits() > 0, "racing threads must reuse results");

        // Every .hpr the race left behind must be a decodable report.
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "hpr") {
                files += 1;
                let bytes = std::fs::read(&path).unwrap();
                let report = codec::decode(&bytes)
                    .unwrap_or_else(|| panic!("{} is corrupt", path.display()));
                assert!(expected.contains(&report));
            }
        }
        assert_eq!(files, 2, "one intact cache file per distinct job");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traces_record_lifecycle_and_survive_cache_hits() {
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);

        let engine = Engine::new().memory_cache_only().with_trace_capacity(8);
        let cold = engine.execute_observed(&spec, Some("req-cold"));
        let key_hex = run_key(&spec).hex();

        let t = engine.traces().get(&key_hex).expect("cold run traced");
        assert_eq!(t.outcome, "executed");
        assert_eq!(t.request_id.as_deref(), Some("req-cold"));
        assert_eq!(t.benchmark, cold.benchmark);
        let names: Vec<&str> = t.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["cache_probe", "execute", "persist"]);
        assert!(
            !t.sim_events.is_empty(),
            "executed run carries sim timeline"
        );

        let warm = engine.execute_observed(&spec, Some("req-warm"));
        assert_eq!(warm, cold);
        let t = engine.traces().get(&key_hex).unwrap();
        assert_eq!(t.outcome, "memory_hit");
        assert_eq!(t.request_id.as_deref(), Some("req-warm"));
        assert!(
            !t.sim_events.is_empty(),
            "warm hit inherits the simulated timeline"
        );
        let json = engine.traces().render(&key_hex).unwrap();
        assert!(json.contains("\"request_id\":\"req-warm\""));
        assert!(json.contains("\"pid\":1"), "sim events present");
        assert!(json.contains(&format!("\"run_key\":\"{key_hex}\"")));
    }

    #[test]
    fn uncached_engine_still_traces() {
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);
        let engine = Engine::new().without_cache();
        engine.execute(&spec);
        let t = engine.traces().get(&run_key(&spec).hex()).unwrap();
        assert!(t.request_id.is_none());
        let names: Vec<&str> = t.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["execute"], "no cache phases without a cache");
    }

    #[test]
    fn batch_jobs_record_queue_phase() {
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let jobs = [kmeans_spec(&p, &cfg)];
        let engine = Engine::new().memory_cache_only();
        engine.execute_batch(&jobs).pop().unwrap().unwrap();
        let t = engine.traces().get(&run_key(&jobs[0]).hex()).unwrap();
        assert_eq!(
            t.phases.first().map(|p| p.name.as_str()),
            Some("queue"),
            "batch jobs start with their queue wait"
        );
    }

    #[test]
    fn engine_matches_direct_executor() {
        use heteropipe::DirectExecutor;
        let p = registry::find("pannotia/pr")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::heterogeneous();
        let spec = kmeans_spec(&p, &cfg);
        let via_engine = Engine::new().memory_cache_only().execute(&spec);
        let direct = DirectExecutor::new().execute(&spec);
        assert_eq!(via_engine, direct);
    }

    #[test]
    fn batches_hit_the_cache_and_keep_order() {
        let p1 = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let p2 = registry::find("rodinia/srad")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let jobs = [
            kmeans_spec(&p1, &cfg),
            kmeans_spec(&p2, &cfg),
            kmeans_spec(&p1, &cfg),
        ];

        // The duplicated entry dedups onto its twin inside the batch, so
        // it costs neither an execution nor a cache probe.
        let engine = Engine::new().memory_cache_only().with_jobs(1);
        let first: Vec<_> = engine
            .execute_batch(&jobs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(first[0].benchmark, first[2].benchmark);
        assert_eq!(first[0], first[2]);
        assert_ne!(first[0].benchmark, first[1].benchmark);

        let again: Vec<_> = engine
            .execute_batch(&jobs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(first, again);
        let m = engine.metrics();
        assert_eq!(m.jobs_executed, 2, "two distinct keys, one duplicated");
        assert_eq!(m.hits(), 2, "warm repeat probes once per unique key");
        assert_eq!(m.sweeps, 2);
        assert_eq!(m.sweep_jobs, 6);
        assert_eq!(m.sweep_deduped, 2);
    }

    #[test]
    fn an_evicted_key_re_executes_to_the_same_report_without_a_disk() {
        let p1 = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let p2 = registry::find("rodinia/srad")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let mut engine = Engine::new();
        engine.cache = Some(ResultCache::in_memory().with_memory_cap(1));
        let first = engine.execute(&kmeans_spec(&p1, &cfg));
        engine.execute(&kmeans_spec(&p2, &cfg));
        assert!(engine.cached(run_key(&kmeans_spec(&p1, &cfg))).is_none());
        assert_eq!(engine.execute(&kmeans_spec(&p1, &cfg)), first);
        let m = engine.metrics();
        assert_eq!(m.jobs_executed, 3, "the evicted key ran again");
        assert_eq!(m.cache.evictions, 2);
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_jobs() {
        // Six threads release simultaneously on one key. A hang fault
        // keeps the leader busy long enough that the rest arrive while it
        // is in flight: exactly one execution, everyone gets its result.
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);

        let engine = Engine::new()
            .memory_cache_only()
            .with_faults(injector("job.exec:err=hang:ms=100:max=1"));
        let barrier = std::sync::Barrier::new(6);
        let reports: Vec<RunReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        engine.try_execute(&spec).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(reports.windows(2).all(|w| w[0] == w[1]));
        let m = engine.metrics();
        assert_eq!(m.jobs_executed, 1, "one leader simulates");
        assert_eq!(
            m.flights_coalesced + m.memory_hits,
            5,
            "everyone else coalesces onto the flight or hits the warm cache"
        );
        assert!(m.flights_coalesced >= 1, "at least one waiter coalesced");
    }

    #[test]
    fn sweep_isolates_poisoned_entries_without_failing_the_batch() {
        let p1 = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let p2 = registry::find("rodinia/srad")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        // jobs=1 executes leaders in submission order, so the one-shot
        // fault deterministically poisons the kmeans entry.
        let jobs = [
            kmeans_spec(&p1, &cfg),
            kmeans_spec(&p1, &cfg),
            kmeans_spec(&p2, &cfg),
        ];
        let engine = Engine::new()
            .memory_cache_only()
            .with_jobs(1)
            .with_faults(injector("job.exec:err=panic:max=1"))
            .with_retry(heteropipe_faults::RetryPolicy {
                attempts: 1,
                base_ms: 0,
                cap_ms: 0,
            });
        let outcome = engine.execute_sweep(&jobs);
        assert!(
            matches!(&outcome.results[0], Err(EngineError::JobPanicked { .. })),
            "poisoned leader fails its entry"
        );
        assert_eq!(
            outcome.results[0], outcome.results[1],
            "its duplicate shares the same error"
        );
        assert!(outcome.results[2].is_ok(), "healthy entry unaffected");
        assert_eq!(outcome.summary.failed, 2);
        assert_eq!(outcome.summary.executed, 1);
        let m = engine.metrics();
        assert_eq!(m.failures, 2);
        assert_eq!(m.jobs_quarantined, 1);
        assert_eq!(m.jobs_executed, 1);

        // The quarantine holds on the next sweep: the poisoned entry
        // fast-fails while the rest of the batch still answers.
        let again = engine.execute_sweep(&jobs);
        assert!(matches!(
            &again.results[0],
            Err(EngineError::Quarantined { .. })
        ));
        assert!(again.results[2].is_ok());
    }

    fn injector(plan: &str) -> Arc<heteropipe_faults::Injector> {
        Arc::new(heteropipe_faults::Injector::new(
            heteropipe_faults::FaultPlan::parse(plan).unwrap(),
        ))
    }

    const FAST_RETRY: heteropipe_faults::RetryPolicy = heteropipe_faults::RetryPolicy {
        attempts: 5,
        base_ms: 0,
        cap_ms: 0,
    };

    #[test]
    fn injected_panics_are_retried_to_success() {
        use heteropipe::DirectExecutor;
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);
        let expected = DirectExecutor::new().execute(&spec);

        let engine = Engine::new()
            .memory_cache_only()
            .with_faults(injector("job.exec:err=panic:max=2"))
            .with_retry(FAST_RETRY);
        let got = engine
            .try_execute(&spec)
            .expect("retries must absorb both panics");
        assert_eq!(got, expected, "recovered result is byte-identical");
        let m = engine.metrics();
        assert_eq!(m.exec_retries, 2);
        assert_eq!(m.jobs_quarantined, 0);
        assert_eq!(m.jobs_executed, 1);
    }

    #[test]
    fn exhausted_retries_quarantine_the_job() {
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);

        let engine = Engine::new()
            .memory_cache_only()
            .with_faults(injector("job.exec:err=panic"))
            .with_retry(heteropipe_faults::RetryPolicy {
                attempts: 2,
                base_ms: 0,
                cap_ms: 0,
            });
        let err = engine.try_execute(&spec).unwrap_err();
        match &err {
            EngineError::JobPanicked {
                message, attempts, ..
            } => {
                assert!(message.contains("injected"), "{message}");
                assert_eq!(*attempts, 2);
            }
            other => panic!("expected JobPanicked, got {other}"),
        }

        // Later attempts fast-fail without burning more retries.
        let again = engine.try_execute(&spec).unwrap_err();
        assert!(matches!(again, EngineError::Quarantined { .. }));
        let m = engine.metrics();
        assert_eq!(m.exec_retries, 1);
        assert_eq!(m.jobs_quarantined, 1);
        assert_eq!(m.jobs_executed, 0);

        // The batch path captures the quarantine as a per-job error.
        let out = engine.execute_batch(&[kmeans_spec(&p, &cfg)]);
        let e = out[0].as_ref().unwrap_err();
        assert!(e.message.contains("quarantined"), "{e}");
        assert_eq!(engine.metrics().failures, 1);
    }

    #[test]
    fn watchdog_observes_hung_attempts_without_losing_the_result() {
        use heteropipe::DirectExecutor;
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);
        let expected = DirectExecutor::new().execute(&spec);

        let engine = Engine::new()
            .memory_cache_only()
            .with_faults(injector("job.exec:err=hang:ms=40:max=1"))
            .with_watchdog(Duration::from_millis(5));
        let got = engine
            .try_execute(&spec)
            .expect("hang is a stall, not a failure");
        assert_eq!(got, expected);
        let m = engine.metrics();
        assert_eq!(m.watchdog_fired, 1, "overrun observed");
        assert_eq!(m.jobs_quarantined, 0);

        // Fault budget spent: the warm path runs without tripping it.
        engine.try_execute(&spec).unwrap();
        assert_eq!(engine.metrics().watchdog_fired, 1);
    }

    #[test]
    fn corrupt_cache_record_is_quarantined_then_transparently_reexecuted() {
        let dir = temp_dir("self-heal");
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);

        let cold = Engine::new().with_cache_dir(&dir).execute(&spec);

        // A fresh engine reads the record through an injected bit-flip:
        // the corrupt bytes are quarantined, the job transparently
        // re-executes, and the rewritten record serves the next reader.
        let healing = Engine::new()
            .with_cache_dir(&dir)
            .with_faults(injector("cache.read:err=corrupt:max=1"));
        let healed = healing.execute(&spec);
        assert_eq!(healed, cold, "re-execution reproduces the exact report");
        let m = healing.metrics();
        assert_eq!(m.jobs_executed, 1, "corrupt read became a miss");
        assert_eq!(m.cache.records_quarantined, 1);
        assert!(
            dir.join(cache::QUARANTINE_DIR).read_dir().unwrap().count() > 0,
            "evidence preserved under .quarantine/"
        );

        let fresh = Engine::new().with_cache_dir(&dir);
        assert_eq!(fresh.execute(&spec), cold);
        assert_eq!(
            fresh.metrics().disk_hits,
            1,
            "healed record serves from disk"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_order_does_not_matter_for_cache_faults() {
        let dir = temp_dir("builder-order");
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let cfg = SystemConfig::discrete();
        let spec = kmeans_spec(&p, &cfg);

        // Faults first, cache dir second: the rebuilt cache must inherit
        // the injector (one enospc absorbed by the persist retry loop).
        let engine = Engine::new()
            .with_faults(injector("cache.write:err=enospc:max=1"))
            .with_retry(FAST_RETRY)
            .with_cache_dir(&dir);
        engine.execute(&spec);
        assert_eq!(
            engine.metrics().cache.persist_retries,
            1,
            "injector survived the with_cache_dir rebuild"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
