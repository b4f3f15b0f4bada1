//! `serve`: run the simulation service.
//!
//! Binds an HTTP server over a shared, disk-cached engine and serves the
//! heteropipe API until SIGINT/SIGTERM, then drains in-flight requests and
//! prints the engine's metrics footer.
//!
//! ```text
//! cargo run --release -p heteropipe-bench --bin serve -- \
//!     --addr 127.0.0.1:7878 --threads 8 --max-inflight 64
//! ```
//!
//! With `--worker --cache-dir <path>` the same binary serves as one
//! worker of a `heteropipe-cluster` coordinator: the API is identical,
//! the role is logged for supervisors, and the disk cache points at the
//! worker's own shard directory (the one copy of the records the
//! coordinator places on this worker).

use std::sync::Arc;
use std::time::Duration;

use heteropipe_obs::log::{self as obs_log, Level};
use heteropipe_serve::server::ServerConfig;
use heteropipe_serve::{api, shutdown};

fn main() {
    obs_log::init_from_env_or(Level::Info);
    let args = heteropipe_bench::HarnessArgs::parse();
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

    // Chaos runs configure fault injection through HETEROPIPE_FAULTS; the
    // one injector is shared by the server seams and the engine, so rule
    // budgets and the seeded decision stream are global to the process.
    let faults = Arc::new(
        heteropipe_faults::Injector::from_env()
            .unwrap_or_else(|e| panic!("bad {}: {e}", heteropipe_faults::ENV_VAR)),
    );
    if faults.is_enabled() {
        obs_log::warn("serve", "fault injection enabled", &[]);
    }
    cfg.faults = Arc::clone(&faults);
    let engine = Arc::new(args.engine().with_faults(Arc::clone(&faults)));
    // `--journal-dir` makes the server durable: async jobs are journaled
    // ahead of execution and interrupted ones resume on the next start.
    // Sealed segments past the `--journal-keep` retention are swept first
    // so the directory resume scans does not grow without bound.
    let handle = match &args.journal_dir {
        Some(dir) => {
            let journal = heteropipe_engine::Journal::open(dir)
                .unwrap_or_else(|e| panic!("could not open journal at {dir}: {e}"))
                .with_faults(faults);
            journal.gc(Duration::from_secs(args.journal_keep_s));
            api::serve_durable(cfg, Arc::clone(&engine), Arc::new(journal))
        }
        None => api::serve(cfg, Arc::clone(&engine)),
    }
    .unwrap_or_else(|e| {
        panic!("could not bind server: {e}");
    });
    obs_log::info(
        "serve",
        "listening",
        &[
            ("addr", handle.addr().to_string().into()),
            (
                "role",
                if args.worker { "worker" } else { "standalone" }.into(),
            ),
            ("durable", args.journal_dir.is_some().into()),
        ],
    );

    shutdown::install();
    while !shutdown::signaled() {
        std::thread::sleep(Duration::from_millis(100));
    }
    obs_log::info("serve", "shutting down, draining in-flight requests", &[]);
    handle.shutdown_and_join();
    heteropipe_bench::finish(&engine);
}
