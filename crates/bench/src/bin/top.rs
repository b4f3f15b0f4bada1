//! `top`: a live text dashboard over a running coordinator.
//!
//! Polls `GET /metrics` (the JSON view, for breaker states),
//! `GET /metrics?format=prometheus` (the federated exposition, for
//! per-worker counters and latency histograms) and `GET /v1/debug/profile`
//! (the always-on phase profiler) once per interval, and renders
//! per-worker request rates, latency percentiles, cache-hit ratios,
//! breaker states, and the hottest profiled phases. Also works against a
//! plain single-node server: the unlabeled series become one `(local)`
//! row and the cluster table is omitted.
//!
//! ```text
//! cargo run --release -p heteropipe-bench --bin top -- \
//!     --addr 127.0.0.1:8080 [--interval-ms 1000] [--count 0]
//! ```
//!
//! `--count 0` (the default) renders frames until interrupted; a
//! positive count exits after that many frames, which is what the tests
//! and scripted probes use.

use std::collections::BTreeMap;
use std::io::IsTerminal as _;
use std::time::{Duration, Instant};

use heteropipe_obs::expfmt::{self, Sample};
use heteropipe_serve::{Client, Json};

struct TopArgs {
    addr: String,
    interval_ms: u64,
    count: u64,
}

fn parse_args() -> TopArgs {
    let mut out = TopArgs {
        addr: String::new(),
        interval_ms: 1000,
        count: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                out.addr = it
                    .next()
                    .filter(|s| !s.is_empty())
                    .unwrap_or_else(|| panic!("--addr requires host:port"));
            }
            "--interval-ms" => {
                out.interval_ms = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| panic!("--interval-ms requires a positive integer"));
            }
            "--count" => {
                out.count = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--count requires an integer (0 = forever)"));
            }
            other => panic!(
                "unknown argument {other}; accepted: --addr <host:port>, \
                 --interval-ms <N>, --count <N>"
            ),
        }
    }
    if out.addr.is_empty() {
        panic!("--addr <host:port> is required (point it at a coordinator)");
    }
    out
}

/// One worker's slice of the federated exposition, keyed by the `worker`
/// label (the empty string holds the coordinator's own unlabeled series).
#[derive(Default)]
struct WorkerView {
    requests: f64,
    cache_hits: f64,
    cache_misses: f64,
    /// Cumulative latency buckets as `(le, count)`, in exposition order.
    latency_buckets: Vec<(f64, f64)>,
}

fn worker_views(samples: &[Sample]) -> BTreeMap<String, WorkerView> {
    let mut views: BTreeMap<String, WorkerView> = BTreeMap::new();
    for s in samples {
        let key = s.label("worker").unwrap_or("").to_string();
        let v = views.entry(key).or_default();
        match s.name.as_str() {
            "heteropipe_server_requests_total" => v.requests += s.value,
            "heteropipe_engine_cache_hits_total" => v.cache_hits += s.value,
            "heteropipe_engine_cache_misses_total" => v.cache_misses += s.value,
            "heteropipe_server_request_latency_microseconds_bucket" => {
                if let Some(le) = s.label("le").and_then(|le| le.parse::<f64>().ok()) {
                    v.latency_buckets.push((le, s.value));
                }
            }
            _ => {}
        }
    }
    views
}

/// Smallest bucket boundary whose cumulative count reaches `q` of the
/// total — the same read a Prometheus `histogram_quantile` would give.
fn bucket_percentile(buckets: &[(f64, f64)], q: f64) -> f64 {
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    let target = q * total;
    for (le, c) in buckets {
        if *c >= target {
            return *le;
        }
    }
    f64::INFINITY
}

fn ratio(hits: f64, misses: f64) -> String {
    let total = hits + misses;
    if total <= 0.0 {
        "   -".into()
    } else {
        format!("{:3.0}%", hits / total * 100.0)
    }
}

fn fmt_us(us: f64) -> String {
    if us.is_infinite() {
        ">max".into()
    } else if us >= 1e6 {
        format!("{:.1}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.1}ms", us / 1e3)
    } else {
        format!("{us:.0}us")
    }
}

fn render_frame(
    frame: u64,
    addr: &str,
    metrics: &Json,
    views: &BTreeMap<String, WorkerView>,
    rates: &BTreeMap<String, f64>,
    profile: &Json,
) {
    println!("heteropipe top — {addr} — frame {frame}");

    // Coordinator-level aggregate from the JSON view.
    if let Some(server) = metrics.get("server").filter(|s| !matches!(s, Json::Null)) {
        let g = |path: &[&str]| {
            let mut cur = server;
            for p in path {
                match cur.get(p) {
                    Some(v) => cur = v,
                    None => return 0,
                }
            }
            cur.as_u64().unwrap_or(0)
        };
        println!(
            "  frontend: {} requests ({} in flight), p50 {} p99 {}, {} rejected, {} shed",
            g(&["requests"]),
            g(&["in_flight"]),
            fmt_us(g(&["latency_us", "p50"]) as f64),
            fmt_us(g(&["latency_us", "p99"]) as f64),
            g(&["rejected_503"]),
            g(&["shed_503"]),
        );
    }

    // Durability and admission: journal counters, deadline aborts, and
    // one column per configured tenant bucket. All three are omitted
    // when the target has no journal, no deadline refusals, and no
    // tenant plan, so pre-existing frames render unchanged.
    let deadline = metrics
        .get("deadline_exceeded")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if let Some(j) = metrics.get("journal").filter(|j| !matches!(j, Json::Null)) {
        let g = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "  journal: {} appended, {} replayed, {} recovered, {} async jobs; {} deadline aborts",
            g("appended"),
            g("replayed"),
            g("recovered"),
            g("async_jobs"),
            deadline,
        );
    } else if deadline > 0 {
        println!("  deadline: {deadline} aborts");
    }
    if let Some(tenants) = metrics
        .get("tenants")
        .and_then(Json::as_array)
        .filter(|t| !t.is_empty())
    {
        let cols: Vec<String> = tenants
            .iter()
            .map(|t| {
                let g = |k: &str| t.get(k).and_then(Json::as_u64).unwrap_or(0);
                format!(
                    "{} {} ok / {} throttled",
                    t.get("tenant").and_then(Json::as_str).unwrap_or("?"),
                    g("requests"),
                    g("throttled"),
                )
            })
            .collect();
        println!("  tenants: {}", cols.join("; "));
    }

    // Per-worker table: rates and latency from the federated exposition,
    // breaker state from the cluster JSON block.
    let cluster_workers = metrics
        .get("cluster")
        .and_then(|c| c.get("workers"))
        .and_then(Json::as_array);
    println!(
        "  {:<22} {:>8} {:>9} {:>9} {:>6}  breaker",
        "worker", "req/s", "p50", "p99", "cache"
    );
    for (key, v) in views {
        let (label, breaker) = match cluster_workers {
            Some(workers) => {
                let w = workers
                    .iter()
                    .find(|w| w.get("addr").and_then(Json::as_str) == Some(key.as_str()));
                let breaker = w
                    .and_then(|w| w.get("breaker"))
                    .and_then(Json::as_str)
                    .unwrap_or("-");
                if key.is_empty() {
                    // The coordinator's own unlabeled series — covered
                    // by the aggregate line above.
                    continue;
                }
                (key.clone(), breaker)
            }
            None => ("(local)".to_string(), "-"),
        };
        println!(
            "  {:<22} {:>8.1} {:>9} {:>9} {:>6}  {}",
            label,
            rates.get(key).copied().unwrap_or(0.0),
            fmt_us(bucket_percentile(&v.latency_buckets, 0.50)),
            fmt_us(bucket_percentile(&v.latency_buckets, 0.99)),
            ratio(v.cache_hits, v.cache_misses),
            breaker,
        );
    }
    if let Some(errors) = metrics
        .get("federation")
        .and_then(|f| f.get("scrape_errors"))
        .and_then(Json::as_u64)
        .filter(|&e| e > 0)
    {
        println!("  federation: {errors} scrape errors (a worker's registry was unreachable)");
    }

    // The hottest profiled phases, already sorted by total time.
    if let Some(phases) = profile.get("phases").and_then(Json::as_array) {
        println!(
            "  {:<22} {:>10} {:>9} {:>9} {:>9}",
            "phase", "calls", "total", "p99", "max"
        );
        for p in phases.iter().take(6) {
            let g = |k: &str| p.get(k).and_then(Json::as_u64).unwrap_or(0);
            println!(
                "  {:<22} {:>10} {:>9} {:>9} {:>9}",
                p.get("name").and_then(Json::as_str).unwrap_or("?"),
                g("count"),
                fmt_us(g("total_ns") as f64 / 1e3),
                fmt_us(g("p99_ns") as f64 / 1e3),
                fmt_us(g("max_ns") as f64 / 1e3),
            );
        }
    }
}

fn main() {
    let args = parse_args();
    let mut client = Client::new(args.addr.clone()).with_timeout(Duration::from_secs(5));
    let clear = std::io::stdout().is_terminal();

    let mut prev_requests: BTreeMap<String, f64> = BTreeMap::new();
    let mut prev_at = Instant::now();
    let mut frame = 0u64;
    loop {
        frame += 1;
        let metrics = client
            .get("/metrics")
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| r.json())
            .unwrap_or_else(|| panic!("GET /metrics against {} failed", args.addr));
        let prom = client
            .get("/metrics?format=prometheus")
            .ok()
            .filter(|r| r.status == 200)
            .map(|r| String::from_utf8_lossy(&r.body).into_owned())
            .unwrap_or_else(|| panic!("GET /metrics?format=prometheus failed"));
        let samples = expfmt::parse(&prom).expect("exposition parses");
        let profile = client
            .get("/v1/debug/profile")
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| r.json())
            .unwrap_or(Json::Null);

        let views = worker_views(&samples);
        let dt = prev_at.elapsed().as_secs_f64();
        prev_at = Instant::now();
        let mut rates = BTreeMap::new();
        for (key, v) in &views {
            // First frame has no baseline; rates start at zero.
            let prev = prev_requests.get(key).copied().unwrap_or(v.requests);
            rates.insert(key.clone(), (v.requests - prev).max(0.0) / dt.max(1e-9));
            prev_requests.insert(key.clone(), v.requests);
        }

        if clear {
            print!("\x1b[2J\x1b[H");
        }
        render_frame(frame, &args.addr, &metrics, &views, &rates, &profile);

        if args.count > 0 && frame >= args.count {
            break;
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
}
