//! Cross-node trace stitching: one Chrome trace per cluster request.
//!
//! The coordinator records its own wall-clock spans (plan, shard
//! forwards, merge) while a sweep runs, plus enough metadata to find
//! each shard's worker-side trace later — the worker-local sweep key the
//! shard's `POST /v1/sweeps` journaled under, and a clock-offset
//! estimate for that worker. Nothing is fetched on
//! the hot path; `GET /v1/sweeps/{key}/trace` resolves the plan lazily,
//! pulling each worker's journaled trace and splicing every machine onto
//! a single timeline:
//!
//! - **pid 0** — the coordinator: `tid 0` carries the request lifecycle
//!   (plan/merge), `tid 1+slot` the forward to that shard.
//! - **pid 1+slot** — one process lane per worker, holding the worker's
//!   own sweep phases shifted onto the coordinator's clock.
//!
//! Worker timestamps are relative to the worker's own sweep start; the
//! offset estimate places that start on the coordinator timeline as
//! `forward_ts + (forward_dur - worker_wall) / 2` — the classic
//! half-residual-RTT clock sample, derived from the `offset_us` leg of
//! the `X-Trace-Context` exchange. Every stitched span is re-stamped
//! with the stitching request's `X-Request-Id`, so a span grepped out of
//! a worker log and a span in the merged timeline correlate on the same
//! id even when the worker journaled the trace under an older request.

use std::sync::Mutex;

use heteropipe_obs::chrome::{render_complete, TraceBuilder};
use heteropipe_obs::FifoMap;
use heteropipe_serve::json::Json;

/// One coordinator-side span on the stitched timeline.
pub struct CoordSpan {
    /// Span name (`plan`, `forward_sweep`, `merge`, ...).
    pub name: String,
    /// Coordinator thread lane: 0 = request lifecycle, 1+slot = shard.
    pub tid: u32,
    /// Start, microseconds from the coordinator's request start.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Extra args rendered onto the span (request id is added for free).
    pub args: Vec<(String, String)>,
}

/// Where one shard's worker-side spans live and how to place them.
pub struct StitchShard {
    /// Worker slot index (also selects the process lane, `1 + slot`).
    pub slot: usize,
    /// Worker address, for the lane label.
    pub addr: String,
    /// Worker-local sweep key whose journaled trace holds the shard's
    /// execution phases; `None` when the worker's answer carried no
    /// `X-Sweep-Key`.
    pub worker_sweep_key: Option<String>,
    /// Estimated coordinator-timeline microsecond at which the worker's
    /// trace clock started.
    pub offset_us: f64,
}

/// Everything needed to stitch one cluster request's trace on demand.
pub struct StitchPlan {
    /// The cluster sweep key the plan is stored under.
    pub sweep_key: String,
    /// Correlation id of the request that ran the sweep.
    pub request_id: String,
    /// Total jobs in the sweep, for the trace title.
    pub jobs: u64,
    /// Coordinator-side spans, already on the coordinator timeline.
    pub spans: Vec<CoordSpan>,
    /// One entry per shard call that succeeded.
    pub shards: Vec<StitchShard>,
}

/// Renders the stitched Chrome trace for `plan`. `fetch` resolves one
/// shard's worker-side trace JSON (the rendered Chrome array the worker
/// serves at `GET /v1/sweeps/{key}/trace`); returning `None` — worker
/// unreachable, trace evicted — degrades that lane to the coordinator's
/// view of it rather than failing the whole trace.
pub fn render(plan: &StitchPlan, fetch: impl Fn(&StitchShard) -> Option<String>) -> String {
    let mut b = TraceBuilder::new();
    b.process_name(0, "heteropipe-coordinator");
    b.thread_name(0, 0, &format!("cluster sweep [{} jobs]", plan.jobs));
    for shard in &plan.shards {
        b.thread_name(
            0,
            1 + shard.slot as u32,
            &format!("shard {} -> {}", shard.slot, shard.addr),
        );
    }
    for span in &plan.spans {
        let mut args: Vec<(&str, &str)> = vec![("request_id", &plan.request_id)];
        for (k, v) in &span.args {
            args.push((k, v));
        }
        b.push_raw(render_complete(
            0,
            span.tid,
            &span.name,
            "cluster",
            span.ts_us,
            span.dur_us.max(0.001),
            &args,
        ));
    }
    for shard in &plan.shards {
        let pid = 1 + shard.slot as u32;
        b.process_name(pid, &format!("worker {}", shard.addr));
        b.thread_name(pid, 0, "sweep phases");
        let Some(text) = fetch(shard) else { continue };
        for ev in worker_events(&text) {
            b.push_raw(restamp(&ev, pid, shard.offset_us, &plan.request_id));
        }
    }
    b.build()
}

/// A worker span lifted out of a fetched trace, pre-restamp.
struct WorkerEvent {
    name: String,
    cat: String,
    tid: u32,
    ts_us: f64,
    dur_us: f64,
    args: Vec<(String, String)>,
}

/// Parses a worker's rendered Chrome array down to its own wall-clock
/// spans: complete (`"ph":"X"`) events on pid 0. Metadata rows and the
/// simulated-component lane (pid 1) are dropped — the stitched trace
/// re-labels lanes itself, and simulated picoseconds don't belong on a
/// wall-clock timeline.
fn worker_events(text: &str) -> Vec<WorkerEvent> {
    let Some(Json::Arr(events)) = Json::parse(text) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for ev in &events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        if ev.get("pid").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let mut args = Vec::new();
        if let Some(Json::Obj(fields)) = ev.get("args") {
            for (k, v) in fields {
                if let Some(v) = v.as_str() {
                    args.push((k.clone(), v.to_string()));
                }
            }
        }
        out.push(WorkerEvent {
            name: ev
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            cat: ev
                .get("cat")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            tid: ev.get("tid").and_then(Json::as_u64).unwrap_or(0) as u32,
            ts_us: ev.get("ts").and_then(Json::as_f64).unwrap_or(0.0),
            dur_us: ev.get("dur").and_then(Json::as_f64).unwrap_or(0.0),
            args,
        });
    }
    out
}

/// Re-renders one worker span on the stitched timeline: the worker lane's
/// pid, timestamps shifted by the shard's clock-offset estimate, and the
/// stitching request's id force-stamped over whatever the worker had.
fn restamp(ev: &WorkerEvent, pid: u32, offset_us: f64, request_id: &str) -> String {
    let mut args: Vec<(&str, &str)> = vec![("request_id", request_id)];
    for (k, v) in &ev.args {
        if k != "request_id" {
            args.push((k, v));
        }
    }
    render_complete(
        pid,
        ev.tid,
        &ev.name,
        &ev.cat,
        ev.ts_us + offset_us,
        ev.dur_us.max(0.001),
        &args,
    )
}

/// A bounded FIFO store of [`StitchPlan`]s keyed by cluster sweep key,
/// mirroring the engine's trace store: inserting past capacity evicts
/// the oldest plan.
pub struct StitchStore(Mutex<FifoMap<String, StitchPlan>>);

impl StitchStore {
    /// A store retaining at most `cap` plans (clamped to ≥ 1).
    pub fn new(cap: usize) -> StitchStore {
        StitchStore(Mutex::new(FifoMap::new(cap)))
    }

    /// Inserts (or replaces) the plan for its sweep key.
    pub fn insert(&self, plan: StitchPlan) {
        self.0.lock().unwrap().insert(plan.sweep_key.clone(), plan);
    }

    /// Runs `f` over the plan stored for `key_hex`, if any.
    pub fn with<R>(&self, key_hex: &str, f: impl FnOnce(&StitchPlan) -> R) -> Option<R> {
        self.0.lock().unwrap().get(key_hex).map(f)
    }

    /// Number of plans currently held.
    pub fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> StitchPlan {
        StitchPlan {
            sweep_key: "ab".repeat(16),
            request_id: "req-stitch".into(),
            jobs: 3,
            spans: vec![
                CoordSpan {
                    name: "plan".into(),
                    tid: 0,
                    ts_us: 0.0,
                    dur_us: 40.0,
                    args: vec![("jobs".into(), "3".into())],
                },
                CoordSpan {
                    name: "forward".into(),
                    tid: 1,
                    ts_us: 50.0,
                    dur_us: 900.0,
                    args: Vec::new(),
                },
            ],
            shards: vec![
                StitchShard {
                    slot: 0,
                    addr: "127.0.0.1:9001".into(),
                    worker_sweep_key: Some("cd".repeat(16)),
                    offset_us: 100.0,
                },
                StitchShard {
                    slot: 1,
                    addr: "127.0.0.1:9002".into(),
                    worker_sweep_key: None,
                    offset_us: 120.0,
                },
            ],
        }
    }

    fn worker_trace() -> String {
        let mut b = TraceBuilder::new();
        b.process_name(0, "heteropipe-engine");
        b.push_raw(render_complete(
            0,
            0,
            "execute",
            "sweep[2]",
            10.0,
            500.0,
            &[("request_id", "req-old"), ("outcome", "sweep")],
        ));
        // A simulated-component event on pid 1 must not leak through.
        b.push_raw(render_complete(
            1,
            2,
            "gpu kernel",
            "hotspot",
            0.0,
            9.0,
            &[],
        ));
        b.build()
    }

    #[test]
    fn stitches_worker_lanes_onto_one_timeline() {
        let p = plan();
        let rendered = render(&p, |shard| {
            shard.worker_sweep_key.as_ref().map(|_| worker_trace())
        });
        let parsed = Json::parse(&rendered).expect("stitched trace is valid JSON");
        let Json::Arr(events) = parsed else {
            panic!("trace is an array")
        };
        // Coordinator lane + both worker lanes are labeled.
        assert!(rendered.contains("heteropipe-coordinator"));
        assert!(rendered.contains("worker 127.0.0.1:9001"));
        assert!(rendered.contains("worker 127.0.0.1:9002"));
        // The worker span landed on pid 1 (slot 0), shifted by the clock
        // offset (10 + 100), and re-stamped with the stitch request id.
        let worker_span = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("execute"))
            .expect("worker execute span present");
        assert_eq!(worker_span.get("pid").and_then(Json::as_u64), Some(1));
        assert_eq!(worker_span.get("ts").and_then(Json::as_f64), Some(110.0));
        assert_eq!(
            worker_span
                .get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(Json::as_str),
            Some("req-stitch")
        );
        // The worker's pid-1 simulated event was dropped.
        assert!(!rendered.contains("gpu kernel"));
        // Every complete span carries the request id.
        for ev in &events {
            if ev.get("ph").and_then(Json::as_str) == Some("X") {
                assert_eq!(
                    ev.get("args")
                        .and_then(|a| a.get("request_id"))
                        .and_then(Json::as_str),
                    Some("req-stitch"),
                    "span missing request id: {ev:?}"
                );
            }
        }
    }

    #[test]
    fn store_evicts_oldest_past_capacity() {
        let store = StitchStore::new(2);
        for i in 0..4 {
            let mut p = plan();
            p.sweep_key = format!("{i:032x}");
            store.insert(p);
        }
        assert_eq!(store.len(), 2);
        assert!(store
            .with("00000000000000000000000000000000", |_| ())
            .is_none());
        assert!(store
            .with("00000000000000000000000000000003", |_| ())
            .is_some());
    }
}
