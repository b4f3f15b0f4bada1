//! `coordinator`: front a static worker set with one sharded endpoint.
//!
//! Workers are ordinary `serve` processes (see `heteropipe-bench`'s
//! `serve --worker`), each with its own engine and disk cache. The
//! coordinator speaks the same `/v1` API, places keys by rendezvous
//! hashing, forwards each key to its owner (whose own caches answer
//! repeats) and merges sweep streams deterministically.
//!
//! ```text
//! cargo run --release -p heteropipe-cluster --bin coordinator -- \
//!     --addr 127.0.0.1:7800 --workers 127.0.0.1:7801,127.0.0.1:7802
//! ```

use std::sync::Arc;
use std::time::Duration;

use heteropipe_cluster::{serve_cluster, serve_cluster_durable, ClusterConfig};
use heteropipe_obs::log::{self as obs_log, Level};
use heteropipe_serve::server::ServerConfig;
use heteropipe_serve::shutdown;

struct Args {
    addr: Option<String>,
    workers: Vec<String>,
    threads: Option<usize>,
    max_inflight: Option<usize>,
    timeout_ms: Option<u64>,
    journal_dir: Option<String>,
    journal_keep_s: u64,
}

/// Default `--journal-keep` retention: seven days, in seconds.
const DEFAULT_JOURNAL_KEEP_S: u64 = 7 * 24 * 60 * 60;

fn parse_args() -> Args {
    let mut out = Args {
        addr: None,
        workers: Vec::new(),
        threads: None,
        max_inflight: None,
        timeout_ms: None,
        journal_dir: None,
        journal_keep_s: DEFAULT_JOURNAL_KEEP_S,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => out.addr = Some(value("--addr")),
            "--workers" => {
                out.workers = value("--workers")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--threads" => out.threads = Some(value("--threads").parse().expect("--threads")),
            "--max-inflight" => {
                out.max_inflight = Some(value("--max-inflight").parse().expect("--max-inflight"));
            }
            "--timeout-ms" => {
                out.timeout_ms = Some(value("--timeout-ms").parse().expect("--timeout-ms"));
            }
            "--journal-dir" => out.journal_dir = Some(value("--journal-dir")),
            "--journal-keep" => {
                out.journal_keep_s = value("--journal-keep").parse().expect("--journal-keep");
            }
            other => panic!(
                "unknown flag {other} (expected --addr, --workers, --threads, --max-inflight, --timeout-ms, --journal-dir, --journal-keep)"
            ),
        }
    }
    out
}

fn main() {
    obs_log::init_from_env_or(Level::Info);
    let args = parse_args();
    if args.workers.is_empty() {
        panic!("--workers is required: a comma-separated list of worker host:port addresses");
    }
    let mut cfg = ServerConfig::default();
    if let Some(addr) = &args.addr {
        cfg.addr = addr.clone();
    }
    if let Some(threads) = args.threads {
        cfg.threads = threads;
    }
    if let Some(max_inflight) = args.max_inflight {
        cfg.max_inflight = max_inflight;
    }

    // One injector feeds both the server seams (serve.read/serve.write)
    // and the cluster seam (cluster.forward).
    let faults = Arc::new(
        heteropipe_faults::Injector::from_env()
            .unwrap_or_else(|e| panic!("bad {}: {e}", heteropipe_faults::ENV_VAR)),
    );
    if faults.is_enabled() {
        obs_log::warn("coordinator", "fault injection enabled", &[]);
    }
    cfg.faults = Arc::clone(&faults);

    let mut cluster = ClusterConfig {
        workers: args.workers.clone(),
        faults,
        ..ClusterConfig::default()
    };
    if let Some(ms) = args.timeout_ms {
        cluster.timeout = Duration::from_millis(ms);
    }

    // `--journal-dir` makes the coordinator durable: async sweeps and
    // workflows are journaled ahead of execution and interrupted ones
    // resume on the next start. Sealed segments past the `--journal-keep`
    // retention are swept first.
    let handle = match &args.journal_dir {
        Some(dir) => {
            let journal = heteropipe_engine::Journal::open(dir)
                .unwrap_or_else(|e| panic!("could not open journal at {dir}: {e}"))
                .with_faults(Arc::clone(&cluster.faults));
            journal.gc(Duration::from_secs(args.journal_keep_s));
            serve_cluster_durable(cfg, cluster, Arc::new(journal))
        }
        None => serve_cluster(cfg, cluster),
    }
    .unwrap_or_else(|e| {
        panic!("could not bind coordinator: {e}");
    });
    obs_log::info(
        "coordinator",
        "listening",
        &[
            ("addr", handle.addr().to_string().into()),
            ("workers", args.workers.join(",").into()),
            ("durable", args.journal_dir.is_some().into()),
        ],
    );

    shutdown::install();
    while !shutdown::signaled() {
        std::thread::sleep(Duration::from_millis(100));
    }
    obs_log::info(
        "coordinator",
        "shutting down, draining in-flight requests",
        &[],
    );
    handle.shutdown_and_join();
}
