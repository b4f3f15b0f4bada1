//! Request correlation ids, job-lifecycle phase timing, and the bounded
//! trace store behind `GET /v1/run/{key}/trace`.
//!
//! The engine wraps every job in a [`PhaseTimer`] that records the
//! wall-clock lifecycle — queue wait → cache probe → execute → persist —
//! as [`Phase`]s. Together with the simulated component timeline (the
//! `TaskSpan` events rendered by `heteropipe::trace::span_events`) they
//! form a [`JobTrace`], which renders to a single Chrome-trace JSON array:
//! pid 0 carries the engine's wall-clock phases, pid 1 the simulated
//! component timeline in simulated microseconds.
//!
//! [`TraceStore`] keeps the most recent traces keyed by run-key hex, FIFO
//! evicting past its capacity. A warm cache hit produces a trace with no
//! execute-time simulated events; inserting it *inherits* the previously
//! rendered simulated timeline for the same key, so the trace endpoint
//! stays complete across hits while the request id and phase timings
//! reflect the latest request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::chrome::{render_complete, TraceBuilder};
use crate::fifo::FifoMap;

static REQ_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Generates a process-unique request correlation id, `req-` followed by
/// 20 hex characters mixing wall-clock nanoseconds, the process id, and a
/// process-wide counter.
pub fn new_request_id() -> String {
    let n = REQ_COUNTER.fetch_add(1, Ordering::Relaxed);
    let t = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mix = t.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17)
        ^ (u64::from(std::process::id()) << 32)
        ^ n.wrapping_mul(0xff51_afd7_ed55_8ccd);
    format!("req-{mix:016x}{:04x}", n & 0xffff)
}

/// Whether `s` is acceptable as an inbound `X-Request-Id`: 1–64
/// characters, ASCII alphanumerics plus `-`, `_`, and `.` only. Anything
/// else is replaced with a freshly generated id rather than echoed into
/// logs and headers.
pub fn valid_request_id(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// One timed wall-clock phase of a job's lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Phase name (`queue`, `cache_probe`, `execute`, `persist`).
    pub name: String,
    /// Start offset from job submission, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Records [`Phase`]s against a single origin instant, optionally offset
/// by time already spent queued before the timer existed.
#[derive(Debug)]
pub struct PhaseTimer {
    origin: Instant,
    offset_ns: u64,
    phases: Vec<Phase>,
}

impl Default for PhaseTimer {
    fn default() -> Self {
        PhaseTimer::new()
    }
}

impl PhaseTimer {
    /// A timer whose origin is now.
    pub fn new() -> Self {
        PhaseTimer {
            origin: Instant::now(),
            offset_ns: 0,
            phases: Vec::new(),
        }
    }

    /// A timer for a job that already waited `queue_ns` in the scheduler's
    /// queue: records a `queue` phase covering `[0, queue_ns)` and offsets
    /// every subsequent phase past it.
    pub fn with_queue(queue_ns: u64) -> Self {
        let mut t = PhaseTimer::new();
        t.offset_ns = queue_ns;
        if queue_ns > 0 {
            t.phases.push(Phase {
                name: "queue".to_owned(),
                start_ns: 0,
                dur_ns: queue_ns,
            });
        }
        t
    }

    fn now_ns(&self) -> u64 {
        self.offset_ns + self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f`, recording it as phase `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.phases.push(Phase {
            name: name.to_owned(),
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
        });
        out
    }

    /// The phases recorded so far, in recording order.
    pub fn finish(self) -> Vec<Phase> {
        self.phases
    }
}

/// Everything known about one executed (or cache-served) job, renderable
/// as a Chrome-trace JSON array.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Run-key hex — the trace store key and `/v1/run/{key}/trace` path
    /// segment.
    pub key_hex: String,
    /// Benchmark name, for event categories.
    pub benchmark: String,
    /// Correlation id of the request that produced this trace, if any.
    pub request_id: Option<String>,
    /// How the job concluded: `executed`, `memory_hit`, `disk_hit`, or
    /// `failed`.
    pub outcome: String,
    /// Wall-clock lifecycle phases (pid 0 of the rendered trace).
    pub phases: Vec<Phase>,
    /// Pre-rendered Chrome events for the simulated component timeline
    /// (pid 1), produced by `heteropipe::trace::span_events` at execution
    /// time. Empty for cache hits until inheritance fills it in.
    pub sim_events: Vec<String>,
}

impl JobTrace {
    /// Renders the full Chrome-trace JSON array: metadata rows, the
    /// engine's wall-clock phases (pid 0, microsecond timestamps), then
    /// the simulated component events (pid 1).
    pub fn render(&self) -> String {
        let mut b = TraceBuilder::new();
        // A trace with no wall-clock phases (the coordinator's stitched
        // cluster traces carry everything pre-rendered in `sim_events`,
        // with their own lane metadata) skips the engine lane labels so
        // pid 0 isn't claimed by an empty process.
        if !self.phases.is_empty() {
            b.process_name(0, "heteropipe-engine");
            b.thread_name(0, 0, "job lifecycle");
        }
        let req = self.request_id.as_deref().unwrap_or("-");
        for p in &self.phases {
            b.push_raw(render_complete(
                0,
                0,
                &p.name,
                &self.benchmark,
                p.start_ns as f64 / 1_000.0,
                // Chrome drops zero-duration complete events; clamp like
                // the simulator's exporter does.
                (p.dur_ns as f64 / 1_000.0).max(0.001),
                &[
                    ("request_id", req),
                    ("run_key", &self.key_hex),
                    ("outcome", &self.outcome),
                ],
            ));
        }
        for e in &self.sim_events {
            b.push_raw(e.clone());
        }
        b.build()
    }
}

/// A bounded, thread-safe store of the most recent [`JobTrace`]s, keyed
/// by run-key hex. Inserting past capacity evicts the oldest key.
pub struct TraceStore {
    inner: Mutex<FifoMap<String, JobTrace>>,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("TraceStore")
            .field("cap", &inner.cap())
            .field("len", &inner.len())
            .finish()
    }
}

impl TraceStore {
    /// A store holding at most `cap` traces (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        TraceStore {
            inner: Mutex::new(FifoMap::new(cap)),
        }
    }

    /// Inserts `trace`, replacing any existing trace for the same key. A
    /// trace with no simulated events (a cache hit) inherits the existing
    /// entry's simulated timeline, so warm hits keep the component-level
    /// view while refreshing request id, phases, and outcome.
    pub fn insert(&self, mut trace: JobTrace) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(existing) = inner.get(&trace.key_hex) {
            if trace.sim_events.is_empty() && !existing.sim_events.is_empty() {
                trace.sim_events = existing.sim_events.clone();
            }
        }
        inner.insert(trace.key_hex.clone(), trace);
    }

    /// The stored trace for `key_hex`, if present.
    pub fn get(&self, key_hex: &str) -> Option<JobTrace> {
        self.inner.lock().unwrap().get(key_hex).cloned()
    }

    /// Renders the stored trace for `key_hex` to Chrome-trace JSON.
    pub fn render(&self, key_hex: &str) -> Option<String> {
        self.get(key_hex).map(|t| t.render())
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_valid() {
        let a = new_request_id();
        let b = new_request_id();
        assert_ne!(a, b);
        assert!(a.starts_with("req-") && a.len() == 4 + 20, "{a}");
        assert!(valid_request_id(&a));
        assert!(valid_request_id("client-supplied_id.42"));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id(&"x".repeat(65)));
        assert!(!valid_request_id("bad\"quote"));
    }

    #[test]
    fn phase_timer_offsets_queue_wait() {
        let mut t = PhaseTimer::with_queue(5_000);
        t.time("cache_probe", || {});
        let out = t.time("execute", || 42);
        assert_eq!(out, 42);
        let phases = t.finish();
        assert_eq!(phases[0].name, "queue");
        assert_eq!(phases[0].start_ns, 0);
        assert_eq!(phases[0].dur_ns, 5_000);
        assert_eq!(phases[1].name, "cache_probe");
        assert!(phases[1].start_ns >= 5_000, "phases start after queue");
        assert_eq!(phases[2].name, "execute");
        assert!(phases[2].start_ns >= phases[1].start_ns + phases[1].dur_ns);
        assert!(PhaseTimer::with_queue(0).finish().is_empty());
    }

    fn trace(key: &str, req: &str, sim: Vec<String>) -> JobTrace {
        JobTrace {
            key_hex: key.to_owned(),
            benchmark: "bfs".to_owned(),
            request_id: Some(req.to_owned()),
            outcome: if sim.is_empty() {
                "memory_hit"
            } else {
                "executed"
            }
            .to_owned(),
            phases: vec![Phase {
                name: "execute".to_owned(),
                start_ns: 1_500,
                dur_ns: 0,
            }],
            sim_events: sim,
        }
    }

    #[test]
    fn render_carries_request_id_and_both_pids() {
        let sim =
            vec!["{\"name\":\"k\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":0,\"dur\":3}".to_owned()];
        let json = trace("ab12", "req-x", sim).render();
        assert!(json.contains("\"request_id\":\"req-x\""));
        assert!(json.contains("\"run_key\":\"ab12\""));
        assert!(json.contains("\"pid\":1"), "sim events spliced in");
        assert!(json.contains("\"ts\":1.5"), "ns converted to us");
        assert!(json.contains("\"dur\":0.001"), "zero durations clamped");
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn store_inherits_sim_events_and_evicts_fifo() {
        let store = TraceStore::new(2);
        let sim =
            vec!["{\"name\":\"k\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":1}".to_owned()];
        store.insert(trace("k1", "req-cold", sim.clone()));
        // Warm hit: no sim events of its own, must inherit but refresh id.
        store.insert(trace("k1", "req-warm", Vec::new()));
        let t = store.get("k1").unwrap();
        assert_eq!(t.request_id.as_deref(), Some("req-warm"));
        assert_eq!(t.sim_events, sim);
        assert_eq!(t.outcome, "memory_hit");

        store.insert(trace("k2", "r2", Vec::new()));
        store.insert(trace("k3", "r3", Vec::new()));
        assert_eq!(store.len(), 2);
        assert!(store.get("k1").is_none(), "oldest evicted");
        assert!(store.render("k3").is_some());
        assert!(store.render("missing").is_none());
        assert!(!store.is_empty());
    }
}
