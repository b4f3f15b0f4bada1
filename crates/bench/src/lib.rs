//! # heteropipe-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper. Each `fig*` / `table*` / `validate_*` / `ablation*` binary prints
//! the corresponding result (see DESIGN.md §4 for the index), and the
//! `bench` binary times both the experiment drivers and the simulator
//! substrates with the in-tree median-of-N harness in [`timing`].
//!
//! All binaries accept `--scale <f64>` (default 1.0, the paper-equivalent
//! scaled input), `--jobs <N>` (batch parallelism), `--no-cache` (bypass
//! the engine's result cache), and `--csv` where a CSV form exists. Every
//! experiment run goes through a [`heteropipe_engine::Engine`], which
//! caches results under `results/cache/` and prints a metrics footer on
//! stderr; set `HETEROPIPE_METRICS_CSV=<path>` to also export the counters
//! as CSV.

#![warn(missing_docs)]

pub mod timing;

use heteropipe_engine::Engine;
use heteropipe_workloads::Scale;

/// Default `--journal-keep` retention for sealed journal segments: seven
/// days, in seconds.
pub const DEFAULT_JOURNAL_KEEP_S: u64 = 7 * 24 * 60 * 60;

/// Parses the common CLI arguments of the harness binaries.
///
/// Recognized: `--scale <f64>` (input scale factor, default 1.0),
/// `--jobs <N>` (concurrent simulations, default: all hardware threads),
/// `--no-cache` (recompute everything, ignore cached results), and
/// `--csv` (machine-readable output where supported). The server-facing
/// binaries add `--addr <host:port>` (bind/target address),
/// `--threads <N>` (requests a server handles at once / load-generator
/// clients),
/// `--max-inflight <N>` (connection limit before 503 backpressure),
/// `--requests <N>` (load-generator requests per client),
/// `--worker` (run `serve` as a cluster worker behind a coordinator),
/// `--cache-dir <path>` (disk-cache location, so cluster workers
/// keep disjoint caches), `--journal-dir <path>` (write-ahead journal
/// for durable `?async=1` jobs — `serve` and `loadgen` use it),
/// `--journal-keep <seconds>` (retention for sealed journal segments;
/// older ones are GC'd at startup, default seven days),
/// `--async` (loadgen submits sweeps asynchronously and polls them), and
/// `--deadline-ms <N>` (loadgen stamps every request with an
/// `X-Deadline-Ms` budget so deadline aborts become measurable).
/// Unknown arguments are rejected with a message listing the accepted
/// ones.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Input scale for the workload models.
    pub scale: Scale,
    /// Whether to emit CSV instead of the aligned text table.
    pub csv: bool,
    /// Batch parallelism cap; `None` uses every hardware thread.
    pub jobs: Option<usize>,
    /// Whether to bypass the result cache.
    pub no_cache: bool,
    /// Server bind address (`serve` binary) or target address (`loadgen`,
    /// `smoke`); `None` uses each binary's default.
    pub addr: Option<String>,
    /// Requests a server handles at once (each connection has its own
    /// thread; idle ones hold no permit) / load-generator client threads.
    pub threads: Option<usize>,
    /// Server connection limit before 503 backpressure kicks in.
    pub max_inflight: Option<usize>,
    /// Requests per load-generator thread.
    pub requests: Option<usize>,
    /// Whether `serve` runs as a cluster worker behind a coordinator
    /// (today a role marker for logs and process supervisors; the HTTP
    /// surface is identical).
    pub worker: bool,
    /// Disk-cache directory override; cluster workers point this at
    /// disjoint paths so each owns its shard's cache.
    pub cache_dir: Option<String>,
    /// Write-ahead journal directory: `serve` started with one accepts
    /// `?async=1` jobs durably and resumes them after a crash.
    pub journal_dir: Option<String>,
    /// Journal retention threshold in seconds: at startup, sealed journal
    /// segments older than this are deleted before resume scans the
    /// directory (`heteropipe_journal_gc_total` counts them). Default
    /// seven days; unsealed segments are never GC'd.
    pub journal_keep_s: u64,
    /// Whether `loadgen` exercises the async sweep path (submit, poll,
    /// fetch records) instead of synchronous streaming.
    pub async_mode: bool,
    /// Deadline budget `loadgen` attaches to every timed request as
    /// `X-Deadline-Ms`; aborted requests are tallied per route.
    pub deadline_ms: Option<u64>,
}

impl HarnessArgs {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments (these are
    /// operator-facing binaries; a panic with context is the UX).
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)] // not an iterator collector
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = HarnessArgs {
            scale: Scale::PAPER,
            csv: false,
            jobs: None,
            no_cache: false,
            addr: None,
            threads: None,
            max_inflight: None,
            requests: None,
            worker: false,
            cache_dir: None,
            journal_dir: None,
            journal_keep_s: DEFAULT_JOURNAL_KEEP_S,
            async_mode: false,
            deadline_ms: None,
        };
        let mut it = args.into_iter();
        let positive = |it: &mut dyn Iterator<Item = String>, flag: &str| {
            it.next()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| panic!("{flag} requires a positive integer"))
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let v = it
                        .next()
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or_else(|| panic!("--scale requires a positive number"));
                    out.scale = Scale::new(v);
                }
                "--jobs" => out.jobs = Some(positive(&mut it, "--jobs")),
                "--no-cache" => out.no_cache = true,
                "--csv" => out.csv = true,
                "--addr" => {
                    out.addr = Some(
                        it.next()
                            .filter(|s| !s.is_empty())
                            .unwrap_or_else(|| panic!("--addr requires host:port")),
                    );
                }
                "--threads" => out.threads = Some(positive(&mut it, "--threads")),
                "--max-inflight" => {
                    out.max_inflight = Some(positive(&mut it, "--max-inflight"));
                }
                "--requests" => out.requests = Some(positive(&mut it, "--requests")),
                "--worker" => out.worker = true,
                "--cache-dir" => {
                    out.cache_dir = Some(
                        it.next()
                            .filter(|s| !s.is_empty())
                            .unwrap_or_else(|| panic!("--cache-dir requires a path")),
                    );
                }
                "--journal-dir" => {
                    out.journal_dir = Some(
                        it.next()
                            .filter(|s| !s.is_empty())
                            .unwrap_or_else(|| panic!("--journal-dir requires a path")),
                    );
                }
                "--journal-keep" => {
                    out.journal_keep_s = it
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| panic!("--journal-keep requires seconds"));
                }
                "--async" => out.async_mode = true,
                "--deadline-ms" => {
                    out.deadline_ms = Some(positive(&mut it, "--deadline-ms") as u64);
                }
                other => panic!(
                    "unknown argument {other}; accepted: --scale <f64>, --jobs <N>, \
                     --no-cache, --csv, --addr <host:port>, --threads <N>, \
                     --max-inflight <N>, --requests <N>, --worker, \
                     --cache-dir <path>, --journal-dir <path>, \
                     --journal-keep <seconds>, --async, --deadline-ms <N>"
                ),
            }
        }
        out
    }

    /// Builds the [`Engine`] these arguments describe: default disk cache
    /// (or the `--cache-dir` override, or none under `--no-cache`),
    /// parallelism from `--jobs`.
    pub fn engine(&self) -> Engine {
        let mut e = Engine::new();
        if self.no_cache {
            e = e.without_cache();
        } else if let Some(dir) = &self.cache_dir {
            e = e.with_cache_dir(dir);
        }
        if let Some(jobs) = self.jobs {
            e = e.with_jobs(jobs);
        }
        e
    }
}

/// Runs a built-in figure workflow end to end: parses the standard CLI
/// arguments, builds the engine, submits the named
/// [`heteropipe_flow::figures`] graph through a
/// [`heteropipe_flow::FlowRunner`], prints every declared output in the
/// binary's historical print style, and (where the binary historically
/// did) ends with the metrics footer. Every `fig*` / `table*` /
/// `validate_*` / study binary is a one-line wrapper over this.
///
/// # Panics
///
/// Panics on an unknown graph name, malformed CLI arguments, or a failed
/// stage (nothing is printed to stdout in that case).
pub fn run_figure(name: &str) {
    use heteropipe_flow::{figures, FlowRunner, PrintStyle, StageStatus};

    let args = HarnessArgs::parse();
    let fg = figures::graph(name, args.scale, args.csv)
        .unwrap_or_else(|| panic!("unknown built-in workflow {name:?}"));
    let engine = std::sync::Arc::new(args.engine());
    let runner = FlowRunner::new(std::sync::Arc::clone(&engine));
    let result = runner
        .run(&fg.graph)
        .unwrap_or_else(|e| panic!("workflow {name:?} is invalid: {e}"));
    if let Some(failed) = result
        .events
        .iter()
        .find(|e| e.status == StageStatus::Failed)
    {
        panic!(
            "workflow {name:?} stage {:?} failed: {}",
            failed.stage,
            failed.error.as_deref().unwrap_or("unknown error")
        );
    }
    for (_, text) in &result.outputs {
        match fg.style {
            PrintStyle::Print => print!("{text}"),
            PrintStyle::Println => println!("{text}"),
        }
    }
    if fg.footer {
        finish(&engine);
    }
}

/// Ends a harness run: prints the engine's metrics footer to stderr and,
/// when `HETEROPIPE_METRICS_CSV` names a path, writes the counters there
/// as CSV. Stdout is untouched, so rendered tables stay byte-identical
/// whether results came from the cache or fresh simulation.
pub fn finish(engine: &Engine) {
    engine.print_summary();
    if let Ok(path) = std::env::var("HETEROPIPE_METRICS_CSV") {
        if !path.is_empty() {
            if let Err(e) = std::fs::write(&path, engine.metrics().to_csv()) {
                eprintln!("engine: could not write metrics CSV to {path}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> HarnessArgs {
        HarnessArgs::from_iter(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = HarnessArgs::from_iter(Vec::new());
        assert_eq!(a.scale, Scale::PAPER);
        assert!(!a.csv);
        assert_eq!(a.jobs, None);
        assert!(!a.no_cache);
    }

    #[test]
    fn parses_scale_and_csv() {
        let a = args(&["--scale", "0.25", "--csv"]);
        assert_eq!(a.scale, Scale::new(0.25));
        assert!(a.csv);
    }

    #[test]
    fn parses_jobs() {
        let a = args(&["--jobs", "3"]);
        assert_eq!(a.jobs, Some(3));
        assert_eq!(a.engine().jobs(), 3);
    }

    #[test]
    fn parses_no_cache() {
        let a = args(&["--no-cache"]);
        assert!(a.no_cache);
        assert!(a.engine().cache().is_none());
    }

    #[test]
    fn cached_engine_by_default() {
        let a = HarnessArgs::from_iter(Vec::new());
        assert!(a.engine().cache().is_some());
    }

    #[test]
    fn parses_server_flags() {
        let a = args(&[
            "--addr",
            "127.0.0.1:9000",
            "--threads",
            "8",
            "--max-inflight",
            "128",
            "--requests",
            "500",
        ]);
        assert_eq!(a.addr.as_deref(), Some("127.0.0.1:9000"));
        assert_eq!(a.threads, Some(8));
        assert_eq!(a.max_inflight, Some(128));
        assert_eq!(a.requests, Some(500));
        assert!(!a.worker);
    }

    #[test]
    fn parses_worker_and_cache_dir() {
        let a = args(&["--worker", "--cache-dir", "/tmp/shard-0"]);
        assert!(a.worker);
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/shard-0"));
        assert!(a.engine().cache().is_some());
    }

    #[test]
    fn parses_journal_dir_and_async() {
        let a = args(&["--journal-dir", "/tmp/journal-0", "--async"]);
        assert_eq!(a.journal_dir.as_deref(), Some("/tmp/journal-0"));
        assert!(a.async_mode);
        let b = HarnessArgs::from_iter(Vec::new());
        assert_eq!(b.journal_dir, None);
        assert!(!b.async_mode);
        assert_eq!(b.deadline_ms, None);
    }

    #[test]
    fn parses_journal_keep() {
        let a = args(&["--journal-keep", "3600"]);
        assert_eq!(a.journal_keep_s, 3600);
        let b = args(&["--journal-keep", "0"]);
        assert_eq!(b.journal_keep_s, 0, "zero retention sweeps everything");
        let c = HarnessArgs::from_iter(Vec::new());
        assert_eq!(c.journal_keep_s, DEFAULT_JOURNAL_KEEP_S);
    }

    #[test]
    #[should_panic(expected = "--journal-keep requires")]
    fn rejects_bad_journal_keep() {
        HarnessArgs::from_iter(["--journal-keep".to_string(), "soon".to_string()]);
    }

    #[test]
    fn parses_deadline_ms() {
        let a = args(&["--deadline-ms", "250"]);
        assert_eq!(a.deadline_ms, Some(250));
    }

    #[test]
    #[should_panic(expected = "--deadline-ms requires")]
    fn rejects_zero_deadline() {
        HarnessArgs::from_iter(["--deadline-ms".to_string(), "0".to_string()]);
    }

    #[test]
    #[should_panic(expected = "--journal-dir requires")]
    fn rejects_missing_journal_dir() {
        HarnessArgs::from_iter(["--journal-dir".to_string()]);
    }

    #[test]
    #[should_panic(expected = "--cache-dir requires")]
    fn rejects_missing_cache_dir() {
        HarnessArgs::from_iter(["--cache-dir".to_string()]);
    }

    #[test]
    #[should_panic(expected = "--addr requires")]
    fn rejects_missing_addr() {
        HarnessArgs::from_iter(["--addr".to_string()]);
    }

    #[test]
    #[should_panic(expected = "--threads requires")]
    fn rejects_zero_threads() {
        HarnessArgs::from_iter(["--threads".to_string(), "0".to_string()]);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn rejects_unknown() {
        HarnessArgs::from_iter(["--nope".to_string()]);
    }

    #[test]
    #[should_panic(expected = "--scale requires")]
    fn rejects_bad_scale() {
        HarnessArgs::from_iter(["--scale".to_string(), "abc".to_string()]);
    }

    #[test]
    #[should_panic(expected = "--jobs requires")]
    fn rejects_zero_jobs() {
        HarnessArgs::from_iter(["--jobs".to_string(), "0".to_string()]);
    }
}
