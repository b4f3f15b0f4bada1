//! Always-on hot-path phase profiler.
//!
//! Attributes wall time to a small fixed set of named phases (the run
//! loop's next-completion scan, cache probe, decode, execute, persist,
//! splice, ...) with nothing
//! but atomic adds on the hot path: no allocation, no locks, no
//! formatting. Phase slots live in static arrays; registering a phase
//! (cold, once per call site via `OnceLock`) hands back a [`PhaseId`]
//! whose [`record`]/[`time`] cost is a handful of relaxed atomic
//! operations plus two `Instant::now()` reads.
//!
//! The profiler is on by default so production questions ("where did this
//! request's time go?") never need a redeploy; `HETEROPIPE_PROFILE=off`
//! (or `0`/`false`) disables it at startup, and [`set_enabled`] toggles
//! it at runtime (the `perf` bench uses this to measure the profiler's
//! own overhead). When disabled, [`time`] runs the closure without even
//! reading the clock.
//!
//! Snapshots ([`snapshot`], [`render_debug_json`]) serve `GET
//! /v1/debug/profile` and the `/metrics` histograms; per-phase timings
//! aggregate into the same power-of-two [`Histogram`] the rest of the
//! stack reports with.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use heteropipe_sim::Histogram;

use crate::chrome::json_escape;

/// Most phases one process can register; exceeding it is a programming
/// error (phases are named at call sites, not created per request).
pub const MAX_PHASES: usize = 32;

const BUCKETS: usize = 65;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; BUCKETS] = [ZERO; BUCKETS];

static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
static COUNT: [AtomicU64; MAX_PHASES] = [ZERO; MAX_PHASES];
static TOTAL_NS: [AtomicU64; MAX_PHASES] = [ZERO; MAX_PHASES];
static MAX_NS: [AtomicU64; MAX_PHASES] = [ZERO; MAX_PHASES];
static BUCKET_COUNTS: [[AtomicU64; BUCKETS]; MAX_PHASES] = [ZERO_ROW; MAX_PHASES];
static ENABLED: OnceLock<AtomicBool> = OnceLock::new();

fn flag() -> &'static AtomicBool {
    ENABLED.get_or_init(|| {
        let off = matches!(
            std::env::var("HETEROPIPE_PROFILE").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        );
        AtomicBool::new(!off)
    })
}

/// Whether phase recording is currently on (one relaxed atomic load).
pub fn enabled() -> bool {
    flag().load(Ordering::Relaxed)
}

/// Turns phase recording on or off at runtime. Counters are never
/// cleared: disabling stops accumulation, re-enabling resumes it.
pub fn set_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed);
}

/// A registered phase slot; cheap to copy and store in a `OnceLock` next
/// to the hot loop it instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseId(usize);

/// Registers (or looks up) the slot for `name`. Cold path: takes a lock
/// and scans the registered names — call once per site and keep the id.
///
/// # Panics
///
/// Panics when more than [`MAX_PHASES`] distinct names are registered.
pub fn phase(name: &'static str) -> PhaseId {
    let mut names = NAMES.lock().unwrap();
    if let Some(i) = names.iter().position(|n| *n == name) {
        return PhaseId(i);
    }
    assert!(names.len() < MAX_PHASES, "profiler phase table full");
    names.push(name);
    PhaseId(names.len() - 1)
}

/// Records one `ns`-long occurrence of the phase: four relaxed atomic
/// operations, nothing else. No-op while the profiler is disabled.
pub fn record(id: PhaseId, ns: u64) {
    if !enabled() {
        return;
    }
    let b = if ns <= 1 {
        0
    } else {
        64 - (ns - 1).leading_zeros() as usize
    };
    COUNT[id.0].fetch_add(1, Ordering::Relaxed);
    TOTAL_NS[id.0].fetch_add(ns, Ordering::Relaxed);
    MAX_NS[id.0].fetch_max(ns, Ordering::Relaxed);
    BUCKET_COUNTS[id.0][b].fetch_add(1, Ordering::Relaxed);
}

/// Times `f` and records its duration under `id`. When the profiler is
/// disabled the closure runs without reading the clock at all.
pub fn time<T>(id: PhaseId, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record(id, start.elapsed().as_nanos() as u64);
    out
}

/// One phase's accumulated timings at snapshot time.
#[derive(Debug, Clone)]
pub struct PhaseSnapshot {
    /// The name the phase was registered under.
    pub name: &'static str,
    /// Occurrences recorded.
    pub count: u64,
    /// Exact total wall time attributed, in nanoseconds.
    pub total_ns: u64,
    /// Longest single occurrence, in nanoseconds.
    pub max_ns: u64,
    /// Power-of-two distribution of occurrence durations. Each sample is
    /// folded to its bucket's upper bound, so percentiles are exact at
    /// bucket resolution while the histogram's own sum overestimates —
    /// use [`total_ns`](Self::total_ns) for exact totals.
    pub histogram: Histogram,
}

impl PhaseSnapshot {
    /// Mean occurrence duration in nanoseconds (zero when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Snapshots every registered phase, in registration order. Reads are
/// relaxed and unsynchronized with writers: totals may trail counts by an
/// in-flight recording, which is fine for monitoring.
pub fn snapshot() -> Vec<PhaseSnapshot> {
    let names: Vec<&'static str> = NAMES.lock().unwrap().clone();
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut histogram = Histogram::new();
            for (b, bucket) in BUCKET_COUNTS[i].iter().enumerate() {
                let n = bucket.load(Ordering::Relaxed);
                let upper = if b >= 64 { u64::MAX } else { 1u64 << b };
                histogram.record_n(upper, n);
            }
            PhaseSnapshot {
                name,
                count: COUNT[i].load(Ordering::Relaxed),
                total_ns: TOTAL_NS[i].load(Ordering::Relaxed),
                max_ns: MAX_NS[i].load(Ordering::Relaxed),
                histogram,
            }
        })
        .collect()
}

/// Renders the `GET /v1/debug/profile` snapshot: phases sorted by total
/// attributed time, heaviest first.
pub fn render_debug_json() -> String {
    let mut phases = snapshot();
    phases.sort_by_key(|p| std::cmp::Reverse(p.total_ns));
    let mut out = String::with_capacity(256);
    out.push_str("{\"enabled\":");
    out.push_str(if enabled() { "true" } else { "false" });
    out.push_str(",\"phases\":[");
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"mean_ns\":{:.1},\
             \"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            json_escape(p.name),
            p.count,
            p.total_ns,
            p.mean_ns(),
            p.histogram.percentile(0.50),
            p.histogram.percentile(0.99),
            p.max_ns,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test exercises the whole module sequentially: the profiler is
    /// process-global state, so interleaved tests toggling `set_enabled`
    /// would race each other.
    #[test]
    fn profiler_end_to_end() {
        let a = phase("test_phase_a");
        let b = phase("test_phase_b");
        assert_eq!(phase("test_phase_a"), a, "same name, same slot");
        assert_ne!(a, b);

        set_enabled(true);
        record(a, 100);
        record(a, 3_000);
        let out = time(b, || 7u32);
        assert_eq!(out, 7);

        let snap = snapshot();
        let pa = snap.iter().find(|p| p.name == "test_phase_a").unwrap();
        assert_eq!(pa.count, 2);
        assert_eq!(pa.total_ns, 3_100);
        assert_eq!(pa.max_ns, 3_000);
        assert_eq!(pa.histogram.count(), 2);
        assert!(pa.histogram.percentile(0.99) >= 3_000);
        assert!((pa.mean_ns() - 1_550.0).abs() < 1e-9);
        let pb = snap.iter().find(|p| p.name == "test_phase_b").unwrap();
        assert_eq!(pb.count, 1);

        // Disabled: neither record nor time accumulates anything.
        set_enabled(false);
        assert!(!enabled());
        record(a, 1_000_000);
        assert_eq!(time(a, || 9u32), 9);
        let snap = snapshot();
        let pa = snap.iter().find(|p| p.name == "test_phase_a").unwrap();
        assert_eq!(pa.count, 2, "disabled profiler stays frozen");
        set_enabled(true);

        let json = render_debug_json();
        assert!(json.starts_with("{\"enabled\":true,\"phases\":["));
        assert!(json.contains("\"name\":\"test_phase_a\""));
        assert!(json.contains("\"total_ns\":3100"));
    }
}
