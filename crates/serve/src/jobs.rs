//! Async job tracking: the in-process registry behind `?async=1`.
//!
//! An asynchronous sweep or workflow is accepted with `202 Accepted`,
//! journaled (see `heteropipe_engine::journal`), and driven to
//! completion by a background thread. This module holds the bookkeeping
//! the request core ([`crate::front`]) keeps for both front doors (serve's
//! `Api` and the cluster `Coordinator`) to answer status polls:
//!
//! * [`AsyncJobs`] — the key→job registry;
//! * [`AsyncJob`] — one job's live state machine
//!   (`pending → running → done | failed`) and progress counters;
//! * the journal *intent* codecs ([`sweep_intent`] / [`workflow_intent`]
//!   / [`parse_intent`]) — the canonical self-describing job list
//!   written ahead of execution, from which a restarted process can
//!   resume the job with no other context.
//!
//! The registry reflects this process's lifetime; the journal on disk is
//! the durable record. A key present in the journal but absent here is a
//! job from a previous process that has not (yet) been resumed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Job states, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Journaled but not yet executing (e.g. awaiting resume).
    Pending,
    /// A driver thread is executing it right now.
    Running,
    /// Every record is journaled and the segment is sealed.
    Done,
    /// The driver gave up (journal unusable or the job unrunnable).
    Failed,
}

impl JobState {
    /// The wire spelling used in status bodies.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    fn from_u8(v: u8) -> JobState {
        match v {
            0 => JobState::Pending,
            1 => JobState::Running,
            2 => JobState::Done,
            _ => JobState::Failed,
        }
    }
}

/// One asynchronous job's live state and progress counters.
#[derive(Debug)]
pub struct AsyncJob {
    /// `"sweep"` or `"workflow"`.
    pub kind: &'static str,
    /// Total records expected (sweep entries, or workflow stages + the
    /// trailing result record).
    pub total: u64,
    state: AtomicU8,
    records_done: AtomicU64,
    records_failed: AtomicU64,
    error: Mutex<Option<String>>,
}

impl AsyncJob {
    fn new(kind: &'static str, total: u64, state: JobState, done: u64) -> AsyncJob {
        AsyncJob {
            kind,
            total,
            state: AtomicU8::new(state as u8),
            records_done: AtomicU64::new(done),
            records_failed: AtomicU64::new(0),
            error: Mutex::new(None),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        JobState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Moves the job to `state` (drivers only move forward).
    pub fn set_state(&self, state: JobState) {
        self.state.store(state as u8, Ordering::Release);
    }

    /// Marks the job failed with a reason for the status body.
    pub fn fail(&self, why: impl Into<String>) {
        *self.error.lock().unwrap() = Some(why.into());
        self.set_state(JobState::Failed);
    }

    /// Records one journaled record; `errored` marks per-entry failures
    /// (the record exists, its payload carries an error object).
    pub fn record_done(&self, errored: bool) {
        self.records_done.fetch_add(1, Ordering::Relaxed);
        if errored {
            self.records_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records journaled so far.
    pub fn done(&self) -> u64 {
        self.records_done.load(Ordering::Relaxed)
    }

    /// Records journaled with a per-entry error payload.
    pub fn failed(&self) -> u64 {
        self.records_failed.load(Ordering::Relaxed)
    }

    /// The failure reason, when [`AsyncJob::state`] is
    /// [`JobState::Failed`].
    pub fn error(&self) -> Option<String> {
        self.error.lock().unwrap().clone()
    }
}

/// The key→job registry one server process maintains.
#[derive(Debug, Default)]
pub struct AsyncJobs {
    jobs: Mutex<HashMap<String, Arc<AsyncJob>>>,
}

impl AsyncJobs {
    /// An empty registry.
    pub fn new() -> AsyncJobs {
        AsyncJobs::default()
    }

    /// Registers (or returns the existing entry for) `key`. A completed
    /// or in-flight job is reused — resubmitting the same async job is
    /// idempotent; only a failed entry is replaced with a fresh one. The
    /// bool is `true` when the caller owns a brand-new entry and must
    /// drive it.
    pub fn register(
        &self,
        key: &str,
        kind: &'static str,
        total: u64,
        state: JobState,
        done: u64,
    ) -> (Arc<AsyncJob>, bool) {
        let mut jobs = self.jobs.lock().unwrap();
        if let Some(existing) = jobs.get(key) {
            if existing.state() != JobState::Failed {
                return (Arc::clone(existing), false);
            }
        }
        let job = Arc::new(AsyncJob::new(kind, total, state, done));
        jobs.insert(key.to_string(), Arc::clone(&job));
        (job, true)
    }

    /// The registered job for `key`, if this process knows it.
    pub fn get(&self, key: &str) -> Option<Arc<AsyncJob>> {
        self.jobs.lock().unwrap().get(key).cloned()
    }

    /// Number of registered jobs (all states).
    pub fn len(&self) -> usize {
        self.jobs.lock().unwrap().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.lock().unwrap().is_empty()
    }
}

/// The status body `GET /v1/sweeps/{key}` (and the workflow equivalent)
/// answers while a job is pending/running — and after, as the `state`
/// wrapper around completion.
pub fn status_json(key: &str, job: &AsyncJob) -> Json {
    let mut fields = vec![
        ("key".to_string(), Json::str(key)),
        ("kind".to_string(), Json::str(job.kind)),
        ("state".to_string(), Json::str(job.state().label())),
        ("jobs_total".to_string(), Json::U64(job.total)),
        ("records_done".to_string(), Json::U64(job.done())),
        ("records_failed".to_string(), Json::U64(job.failed())),
    ];
    if job.kind == "sweep" {
        fields.push((
            "records_url".to_string(),
            Json::str(format!("/v1/sweeps/{key}/records")),
        ));
    }
    if let Some(e) = job.error() {
        fields.push((
            "error".to_string(),
            Json::Obj(vec![("message".into(), Json::str(e))]),
        ));
    }
    Json::Obj(fields)
}

/// The `202 Accepted` body for a freshly submitted (or resubmitted)
/// async job.
pub fn accepted_json(key: &str, kind: &str, status_url: &str, total: u64) -> Json {
    let mut fields = vec![
        ("key".to_string(), Json::str(key)),
        ("kind".to_string(), Json::str(kind)),
        ("state".to_string(), Json::str("running")),
        ("jobs_total".to_string(), Json::U64(total)),
        ("status_url".to_string(), Json::str(status_url)),
    ];
    if kind == "sweep" {
        fields.push((
            "records_url".to_string(),
            Json::str(format!("/v1/sweeps/{key}/records")),
        ));
    }
    Json::Obj(fields)
}

/// Canonical journal intent for an async sweep: the fully expanded
/// per-job entry list (generator forms are expanded before journaling,
/// so resume is independent of how the sweep was phrased).
pub fn sweep_intent(entries: &[Json]) -> String {
    Json::Obj(vec![
        ("kind".to_string(), Json::str("sweep")),
        ("jobs".to_string(), Json::Arr(entries.to_vec())),
    ])
    .dump()
}

/// Canonical journal intent for an async workflow: the submitted body,
/// verbatim (a built-in name or an inline stage graph).
pub fn workflow_intent(body: &Json) -> String {
    Json::Obj(vec![
        ("kind".to_string(), Json::str("workflow")),
        ("body".to_string(), body.clone()),
    ])
    .dump()
}

/// Decodes a journaled intent back into its kind and payload: the
/// entries array for `"sweep"`, the submitted body for `"workflow"`.
pub fn parse_intent(intent: &str) -> Option<(String, Json)> {
    let v = Json::parse(intent)?;
    let kind = v.get("kind")?.as_str()?.to_string();
    let payload = match kind.as_str() {
        "sweep" => v.get("jobs")?.clone(),
        "workflow" => v.get("body")?.clone(),
        _ => return None,
    };
    Some((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_idempotent_until_failure() {
        let jobs = AsyncJobs::new();
        assert!(jobs.is_empty());
        let (a, fresh) = jobs.register("k1", "sweep", 4, JobState::Running, 0);
        assert!(fresh);
        let (b, fresh) = jobs.register("k1", "sweep", 4, JobState::Running, 0);
        assert!(!fresh, "in-flight job reused");
        assert!(Arc::ptr_eq(&a, &b));

        a.record_done(false);
        a.record_done(true);
        assert_eq!((a.done(), a.failed()), (2, 1));
        a.fail("journal unusable");
        assert_eq!(a.state(), JobState::Failed);
        let (c, fresh) = jobs.register("k1", "sweep", 4, JobState::Running, 0);
        assert!(fresh, "failed job is replaced");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(jobs.len(), 1);
        assert!(jobs.get("k2").is_none());
    }

    #[test]
    fn status_json_carries_state_and_progress() {
        let job = AsyncJob::new("sweep", 8, JobState::Running, 3);
        let s = status_json("abc", &job);
        assert_eq!(s.get("state").and_then(Json::as_str), Some("running"));
        assert_eq!(s.get("records_done").and_then(Json::as_u64), Some(3));
        assert_eq!(
            s.get("records_url").and_then(Json::as_str),
            Some("/v1/sweeps/abc/records")
        );
        job.fail("boom");
        let s = status_json("abc", &job);
        assert_eq!(s.get("state").and_then(Json::as_str), Some("failed"));
        assert!(s.get("error").is_some());
    }

    #[test]
    fn intents_round_trip() {
        let entries = vec![Json::Obj(vec![(
            "benchmark".into(),
            Json::str("rodinia/kmeans"),
        )])];
        let (kind, payload) = parse_intent(&sweep_intent(&entries)).unwrap();
        assert_eq!(kind, "sweep");
        assert_eq!(payload.as_array().unwrap().len(), 1);

        let body = Json::Obj(vec![("workflow".into(), Json::str("fig5"))]);
        let (kind, payload) = parse_intent(&workflow_intent(&body)).unwrap();
        assert_eq!(kind, "workflow");
        assert_eq!(payload.get("workflow").and_then(Json::as_str), Some("fig5"));

        assert!(parse_intent("not json").is_none());
        assert!(parse_intent("{\"kind\":\"other\"}").is_none());
    }
}
