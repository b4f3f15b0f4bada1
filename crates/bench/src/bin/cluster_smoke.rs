//! `cluster_smoke`: end-to-end cluster smoke check for CI.
//!
//! Runs one coordinator over two workers on loopback and drives the
//! three behaviours the cluster exists for:
//!
//! 1. a cold sweep shards across both workers and its records are
//!    byte-identical to the same sweep on a single node;
//! 2. a warm repeat is answered entirely from the workers' caches — zero
//!    executions anywhere;
//! 3. a worker that drops its connection mid-sweep and then dies
//!    outright costs rehashes, never a wrong or missing record.
//!
//! It also gates the cluster observability surface: the cold sweep's
//! stitched cross-node trace must be one valid Chrome array with a lane
//! per worker and the caller's request id on every span, and the
//! coordinator's federated `/metrics` exposition must parse with
//! worker-labeled series from both workers (docs/observability.md).
//!
//! Exits non-zero (panics) on any violation.
//!
//! ```text
//! cargo run --release -p heteropipe-bench --bin cluster_smoke -- --scale 0.05
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use heteropipe_cluster::{serve_cluster, ClusterConfig};
use heteropipe_engine::Engine;
use heteropipe_faults::{FaultPlan, Injector};
use heteropipe_obs::log::Level;
use heteropipe_serve::server::ServerConfig;
use heteropipe_serve::{api, Client, Json, ServerHandle};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "heteropipe-cluster-smoke-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        max_inflight: 32,
        ..ServerConfig::default()
    }
}

fn start_worker(cache_dir: &Path, plan: Option<&str>) -> ServerHandle {
    let mut cfg = server_cfg();
    if let Some(plan) = plan {
        cfg.faults = Arc::new(Injector::new(FaultPlan::parse(plan).expect("smoke plan")));
    }
    api::serve(
        cfg,
        Arc::new(Engine::new().with_jobs(2).with_cache_dir(cache_dir)),
    )
    .expect("bind worker")
}

fn job(benchmark: &str, scale: f64) -> Json {
    Json::Obj(vec![
        ("benchmark".into(), Json::str(benchmark)),
        ("system".into(), Json::str("discrete")),
        ("organization".into(), Json::str("serial")),
        ("scale".into(), Json::F64(scale)),
    ])
}

fn sweep_body(scale: f64) -> Json {
    Json::Obj(vec![(
        "jobs".into(),
        Json::Arr(vec![
            job("rodinia/kmeans", scale),
            job("rodinia/hotspot", scale),
            job("rodinia/bfs", scale),
            job("rodinia/backprop", scale),
            job("rodinia/nw", scale),
            job("rodinia/kmeans", scale), // in-batch duplicate
        ]),
    )])
}

/// Record lines in submission order (a single node streams in completion
/// order; the merge contract is over the records, not their interleaving).
fn record_lines(body: &[u8]) -> Vec<String> {
    let mut lines: Vec<String> = std::str::from_utf8(body)
        .expect("sweep stream is UTF-8")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with("{\"sweep\":"))
        .map(str::to_owned)
        .collect();
    lines.sort_by_key(|l| {
        let rest = l.strip_prefix("{\"index\":").expect("record line");
        rest[..rest.find(',').unwrap()].parse::<usize>().unwrap()
    });
    lines
}

fn summary_field(body: &[u8], name: &str) -> u64 {
    let text = std::str::from_utf8(body).unwrap();
    let line = text
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"sweep\":"))
        .expect("stream has a summary");
    Json::parse(line)
        .and_then(|s| {
            s.get("sweep")
                .and_then(|v| v.get(name))
                .and_then(Json::as_u64)
        })
        .unwrap_or_else(|| panic!("summary missing {name}"))
}

fn main() {
    heteropipe_obs::log::init_from_env_or(Level::Warn);
    let args = heteropipe_bench::HarnessArgs::parse();
    let scale = args.scale.factor();
    let body = sweep_body(scale);

    // Ground truth: the sweep on one isolated node.
    let dir_s = temp_dir("baseline");
    let single = start_worker(&dir_s, None);
    let mut client = Client::new(single.addr().to_string());
    let resp = client.post_json("/v1/sweeps", &body).expect("baseline");
    assert_eq!(resp.status, 200);
    let baseline = record_lines(&resp.body);
    single.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_s);
    println!(
        "cluster_smoke: single-node baseline ({} records)",
        baseline.len()
    );

    // Cluster one: two healthy workers.
    let (dir_a, dir_b) = (temp_dir("worker-a"), temp_dir("worker-b"));
    let wa = start_worker(&dir_a, None);
    let wb = start_worker(&dir_b, None);
    let coordinator = serve_cluster(
        server_cfg(),
        ClusterConfig {
            workers: vec![wa.addr().to_string(), wb.addr().to_string()],
            ..ClusterConfig::default()
        },
    )
    .expect("bind coordinator");
    let mut client = Client::new(coordinator.addr().to_string());

    // 1. Cold sweep: byte-identical records, sharded across both workers.
    let rid = "req-cluster-smoke-cold";
    let resp = client
        .post_json_with_headers("/v1/sweeps", &body, &[("X-Request-Id", rid)])
        .expect("cold sweep");
    assert_eq!(resp.status, 200);
    let sweep_key = resp
        .header("x-sweep-key")
        .expect("cold sweep exposes its key")
        .to_string();
    assert_eq!(record_lines(&resp.body), baseline, "cold sweep records");
    assert_eq!(summary_field(&resp.body, "executed"), 5);
    assert_eq!(summary_field(&resp.body, "failed"), 0);
    let metrics = client.get("/metrics").expect("metrics").json().unwrap();
    let workers = metrics
        .get("cluster")
        .and_then(|c| c.get("workers"))
        .and_then(Json::as_array)
        .expect("worker stats");
    for w in workers {
        let forwarded = w.get("forwarded").and_then(Json::as_u64).unwrap();
        assert!(forwarded > 0, "a worker saw no traffic: {}", w.dump());
    }
    println!("cluster_smoke: cold sweep byte-identical, sharded across both workers");

    // 1b. The cold sweep's stitched cross-node trace: one Chrome array
    // with the coordinator lane plus a lane per worker, every span
    // carrying the originating request id (docs/observability.md).
    let trace = client
        .get(&format!("/v1/sweeps/{sweep_key}/trace"))
        .expect("stitched trace");
    assert_eq!(trace.status, 200);
    let text = std::str::from_utf8(&trace.body).expect("trace is UTF-8");
    let parsed = Json::parse(text).expect("stitched trace parses");
    let events = parsed.as_array().expect("trace is an array");
    assert!(text.contains("heteropipe-coordinator"), "coordinator lane");
    for addr in [wa.addr().to_string(), wb.addr().to_string()] {
        assert!(
            text.contains(&format!("worker {addr}")),
            "missing lane for worker {addr}"
        );
    }
    let mut spans = 0;
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        spans += 1;
        assert_eq!(
            ev.get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(Json::as_str),
            Some(rid),
            "span missing the request id: {}",
            ev.dump()
        );
    }
    assert!(spans > 0, "stitched trace has spans");
    println!("cluster_smoke: stitched trace spans both workers' lanes ({spans} spans, one id)");

    // 1c. Federated metrics: the coordinator's Prometheus exposition
    // parses and carries worker-labeled series scraped live from both
    // workers' registries, with zero scrape errors on a healthy cluster.
    let prom = client
        .get("/metrics?format=prometheus")
        .expect("prometheus metrics");
    assert_eq!(prom.status, 200);
    let prom_text = std::str::from_utf8(&prom.body).expect("exposition is UTF-8");
    let samples = heteropipe_obs::expfmt::parse(prom_text).expect("exposition parses");
    for addr in [wa.addr().to_string(), wb.addr().to_string()] {
        let executed = samples
            .iter()
            .find(|s| {
                s.name == "heteropipe_engine_jobs_executed_total"
                    && s.label("worker") == Some(addr.as_str())
            })
            .unwrap_or_else(|| panic!("no federated series for worker {addr}"));
        assert!(
            executed.value > 0.0,
            "worker {addr} federates zero executed jobs"
        );
        let errors: f64 = samples
            .iter()
            .filter(|s| {
                s.name == "heteropipe_cluster_scrape_errors_total"
                    && s.label("worker") == Some(addr.as_str())
            })
            .map(|s| s.value)
            .sum();
        assert_eq!(errors, 0.0, "scrape errors against a healthy {addr}");
    }
    println!("cluster_smoke: federated /metrics parses with worker-labeled series");

    // 2. Warm repeat: the owners' caches answer everything, nothing
    // executes.
    let resp = client.post_json("/v1/sweeps", &body).expect("warm sweep");
    assert_eq!(resp.status, 200);
    assert_eq!(record_lines(&resp.body), baseline, "warm sweep records");
    assert_eq!(summary_field(&resp.body, "executed"), 0, "warm executes");
    assert_eq!(summary_field(&resp.body, "cache_hits"), 5);
    println!("cluster_smoke: warm repeat served from the workers' caches, zero executions");

    coordinator.shutdown_and_join();
    wa.shutdown_and_join();
    wb.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);

    // Cluster two, fresh caches: worker D tears down its first response
    // mid-write — a worker dying mid-sweep from the coordinator's point
    // of view. The coordinator masks it, rehashes its shard onto C, and
    // the records do not change.
    let (dir_c, dir_d) = (temp_dir("worker-c"), temp_dir("worker-d"));
    let wc = start_worker(&dir_c, None);
    let wd = start_worker(&dir_d, Some("serve.write:err=drop:max=1"));
    let coordinator = serve_cluster(
        server_cfg(),
        ClusterConfig {
            workers: vec![wc.addr().to_string(), wd.addr().to_string()],
            ..ClusterConfig::default()
        },
    )
    .expect("bind coordinator");
    let mut client = Client::new(coordinator.addr().to_string());

    let resp = client.post_json("/v1/sweeps", &body).expect("chaos sweep");
    assert_eq!(resp.status, 200);
    assert_eq!(record_lines(&resp.body), baseline, "mid-sweep drop records");
    assert_eq!(summary_field(&resp.body, "failed"), 0);
    assert!(
        summary_field(&resp.body, "rehashes") >= 1,
        "the dropped response forced a rehash"
    );
    println!("cluster_smoke: mid-sweep connection drop self-healed");

    // The worker then dies outright; repeats still answer identically.
    wd.shutdown_and_join();
    let resp = client.post_json("/v1/sweeps", &body).expect("post-death");
    assert_eq!(resp.status, 200);
    assert_eq!(record_lines(&resp.body), baseline, "after worker death");
    assert_eq!(summary_field(&resp.body, "failed"), 0);
    println!("cluster_smoke: worker death rehashed, records unchanged");

    coordinator.shutdown_and_join();
    wc.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_c);
    let _ = std::fs::remove_dir_all(&dir_d);
    println!("cluster_smoke: PASS");
}
