//! End-to-end cluster tests: a real coordinator and real workers on
//! ephemeral loopback ports, driven through the serve crate's client.
//!
//! The load-bearing property throughout is *deployment transparency*:
//! a sweep answered by the cluster — cold, warm from the workers' caches, or
//! interrupted by partitions and a worker death — must be byte-identical
//! (record lines; summaries are accounting, not results) to the same
//! sweep on a single node.

use std::path::PathBuf;
use std::sync::Arc;

use heteropipe_cluster::{serve_cluster, ClusterConfig};
use heteropipe_engine::Engine;
use heteropipe_faults::{FaultPlan, Injector};
use heteropipe_serve::server::ServerConfig;
use heteropipe_serve::{api, Client, Json, ServerHandle};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "heteropipe-cluster-test-{}-{tag}",
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

fn start_worker(cache_dir: &std::path::Path) -> ServerHandle {
    api::serve(
        server_cfg(),
        Arc::new(Engine::new().with_jobs(2).with_cache_dir(cache_dir)),
    )
    .expect("bind worker")
}

fn start_worker_with_faults(cache_dir: &std::path::Path, plan: &str) -> ServerHandle {
    let mut cfg = server_cfg();
    cfg.faults = Arc::new(Injector::new(FaultPlan::parse(plan).unwrap()));
    api::serve(
        cfg,
        Arc::new(Engine::new().with_jobs(2).with_cache_dir(cache_dir)),
    )
    .expect("bind worker")
}

fn start_coordinator(workers: Vec<String>, faults: Arc<Injector>) -> ServerHandle {
    serve_cluster(
        server_cfg(),
        ClusterConfig {
            workers,
            faults,
            ..ClusterConfig::default()
        },
    )
    .expect("bind coordinator")
}

fn job(benchmark: &str, scale: f64) -> Json {
    Json::Obj(vec![
        ("benchmark".into(), Json::str(benchmark)),
        ("system".into(), Json::str("discrete")),
        ("organization".into(), Json::str("serial")),
        ("scale".into(), Json::F64(scale)),
    ])
}

/// A sweep with distinct jobs (for shard spread) and one duplicate (for
/// dedup-consistency across the coordinator merge).
fn sweep_body() -> Json {
    let jobs = vec![
        job("rodinia/kmeans", 0.05),
        job("rodinia/hotspot", 0.05),
        job("rodinia/bfs", 0.05),
        job("rodinia/backprop", 0.05),
        job("rodinia/nw", 0.05),
        job("rodinia/kmeans", 0.05), // duplicate of jobs[0]
    ];
    Json::Obj(vec![("jobs".into(), Json::Arr(jobs))])
}

/// Record lines of an NDJSON sweep stream — everything but the trailing
/// summary object(s), which carry timing and are excluded from the
/// byte-identity contract. Sorted into submission (index) order: a
/// single node streams records in completion order, the coordinator in
/// index order; the contract is that the *records* are byte-identical.
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

/// The trailing summary object of an NDJSON sweep stream.
fn summary(body: &[u8]) -> Json {
    let text = std::str::from_utf8(body).unwrap();
    let line = text
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"sweep\":"))
        .expect("stream has a summary");
    Json::parse(line).expect("summary parses")
}

fn sweep_field(s: &Json, name: &str) -> u64 {
    s.get("sweep")
        .and_then(|v| v.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("summary missing {name}"))
}

/// Single-node ground truth for `body`: run it on a fresh, isolated
/// worker and return its record lines.
fn single_node_records(body: &Json, tag: &str) -> Vec<String> {
    let dir = temp_dir(tag);
    let handle = start_worker(&dir);
    let mut client = Client::new(handle.addr().to_string());
    let resp = client.post_json("/v1/sweeps", body).unwrap();
    assert_eq!(resp.status, 200);
    let records = record_lines(&resp.body);
    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
    records
}

#[test]
fn cold_sweep_shards_across_workers_and_matches_single_node() {
    let baseline = single_node_records(&sweep_body(), "cold-baseline");

    let (dir_a, dir_b) = (temp_dir("cold-a"), temp_dir("cold-b"));
    let (wa, wb) = (start_worker(&dir_a), start_worker(&dir_b));
    let coordinator = start_coordinator(
        vec![wa.addr().to_string(), wb.addr().to_string()],
        Arc::new(Injector::disabled()),
    );
    let mut client = Client::new(coordinator.addr().to_string());

    let resp = client.post_json("/v1/sweeps", &sweep_body()).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.header("x-sweep-key").is_some());
    assert_eq!(record_lines(&resp.body), baseline, "cold cluster sweep");
    let s = summary(&resp.body);
    assert_eq!(sweep_field(&s, "jobs_total"), 6);
    assert_eq!(sweep_field(&s, "jobs_unique"), 5);
    assert_eq!(sweep_field(&s, "duplicates"), 1);
    assert_eq!(sweep_field(&s, "executed"), 5, "cold: every unique runs");
    assert_eq!(sweep_field(&s, "cache_hits"), 0);
    assert_eq!(sweep_field(&s, "failed"), 0);

    // The merge really fanned out: both workers answered calls.
    let resp = client.get("/metrics").unwrap();
    let m = resp.json().unwrap();
    let workers = m
        .get("cluster")
        .and_then(|c| c.get("workers"))
        .and_then(Json::as_array)
        .expect("worker stats");
    assert_eq!(workers.len(), 2);
    for w in workers {
        let forwarded = w.get("forwarded").and_then(Json::as_u64).unwrap();
        assert!(forwarded > 0, "worker {w:?} saw no traffic");
    }

    // Warm repeat: every unique key is now in its owner's cache, so the
    // owners answer everything and nothing executes anywhere.
    let resp = client.post_json("/v1/sweeps", &sweep_body()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(record_lines(&resp.body), baseline, "warm repeat");
    let s = summary(&resp.body);
    assert_eq!(sweep_field(&s, "cache_hits"), 5);
    assert_eq!(
        sweep_field(&s, "executed"),
        0,
        "warm: the owners' caches answer"
    );

    coordinator.shutdown_and_join();
    wa.shutdown_and_join();
    wb.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A worker on the shipped server defaults — four request permits —
/// with a read timeout long enough that waiting one out cannot pass for
/// a slow sweep.
fn start_default_worker(cache_dir: &std::path::Path) -> ServerHandle {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: std::time::Duration::from_secs(30),
        ..ServerConfig::default()
    };
    api::serve(
        cfg,
        Arc::new(Engine::new().with_jobs(2).with_cache_dir(cache_dir)),
    )
    .expect("bind worker")
}

#[test]
fn warm_repeat_of_a_wide_sweep_is_not_held_by_idle_probe_connections() {
    // 25 unique jobs: each shard has more keys than a worker has request
    // permits, so a warm repeat must not wait on anything per key.
    let jobs = ["kmeans", "hotspot", "bfs", "backprop", "nw"]
        .iter()
        .flat_map(|b| {
            [0.05, 0.06, 0.07, 0.08, 0.09].map(|scale| job(&format!("rodinia/{b}"), scale))
        })
        .collect();
    let body = Json::Obj(vec![("jobs".into(), Json::Arr(jobs))]);

    let (dir_a, dir_b) = (temp_dir("wide-a"), temp_dir("wide-b"));
    let (wa, wb) = (start_default_worker(&dir_a), start_default_worker(&dir_b));
    let coordinator = start_coordinator(
        vec![wa.addr().to_string(), wb.addr().to_string()],
        Arc::new(Injector::disabled()),
    );
    let mut client = Client::new(coordinator.addr().to_string());

    let cold = client.post_json("/v1/sweeps", &body).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(sweep_field(&summary(&cold.body), "executed"), 25);

    let start = std::time::Instant::now();
    let warm = client.post_json("/v1/sweeps", &body).unwrap();
    let took = start.elapsed();
    assert_eq!(warm.status, 200);
    assert_eq!(record_lines(&warm.body), record_lines(&cold.body));
    let s = summary(&warm.body);
    assert_eq!(
        sweep_field(&s, "cache_hits"),
        25,
        "every record a cache hit"
    );
    assert_eq!(sweep_field(&s, "executed"), 0);
    assert!(
        took < std::time::Duration::from_secs(5),
        "warm repeat took {took:?}"
    );

    coordinator.shutdown_and_join();
    wa.shutdown_and_join();
    wb.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn runs_forward_to_the_owner_and_proxy_reports() {
    let (dir_a, dir_b) = (temp_dir("runs-a"), temp_dir("runs-b"));
    let (wa, wb) = (start_worker(&dir_a), start_worker(&dir_b));
    let coordinator = start_coordinator(
        vec![wa.addr().to_string(), wb.addr().to_string()],
        Arc::new(Injector::disabled()),
    );
    let mut client = Client::new(coordinator.addr().to_string());

    let body = job("rodinia/kmeans", 0.05);
    let cold = client.post_json("/v1/runs", &body).unwrap();
    assert_eq!(cold.status, 200);
    let key = cold.header("x-run-key").expect("run key").to_string();

    // Repeat: the owner's cache answers the forwarded POST, and the
    // report bytes are identical to the executed ones.
    let warm = client.post_json("/v1/runs", &body).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body, "a cache hit replays the record");

    // The run resource proxies to the owning shard.
    let report = client.get(&format!("/v1/runs/{key}")).unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(report.body, cold.body);
    let trace = client.get(&format!("/v1/runs/{key}/trace")).unwrap();
    assert_eq!(trace.status, 200, "trace lives where the run executed");

    // Prometheus exposition stays well-formed with live worker labels.
    let resp = client.get("/metrics?format=prometheus").unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    heteropipe_obs::expfmt::parse(&text).expect("valid exposition format");

    coordinator.shutdown_and_join();
    wa.shutdown_and_join();
    wb.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The sum of the coordinator's per-worker `forwarded` counters: calls
/// to workers that answered (federation scrapes are not counted).
fn forwarded_total(client: &mut Client) -> u64 {
    let m = client.get("/metrics").unwrap().json().unwrap();
    m.get("cluster")
        .and_then(|c| c.get("workers"))
        .and_then(Json::as_array)
        .expect("worker stats")
        .iter()
        .map(|w| w.get("forwarded").and_then(Json::as_u64).unwrap())
        .sum()
}

/// The headers a client of either door compares across them.
fn run_headers(resp: &heteropipe_serve::ClientResponse) -> [Option<String>; 3] {
    ["x-run-key", "etag", "content-type"].map(|h| resp.header(h).map(str::to_owned))
}

#[test]
fn one_worker_call_per_run_and_per_shard_and_conditional_gets_reach_the_owner() {
    let (dir_a, dir_b) = (temp_dir("calls-a"), temp_dir("calls-b"));
    let (wa, wb) = (start_worker(&dir_a), start_worker(&dir_b));
    let workers = vec![wa.addr().to_string(), wb.addr().to_string()];
    let coordinator = start_coordinator(workers.clone(), Arc::new(Injector::disabled()));
    let mut client = Client::new(coordinator.addr().to_string());

    // A sweep's 5 unique keys span both workers: the warm repeat costs
    // one call per shard, and the owners' engines answer every key.
    let cold = client.post_json("/v1/sweeps", &sweep_body()).unwrap();
    assert_eq!(cold.status, 200);
    let before = forwarded_total(&mut client);
    let warm = client.post_json("/v1/sweeps", &sweep_body()).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(record_lines(&warm.body), record_lines(&cold.body));
    assert_eq!(sweep_field(&summary(&warm.body), "cache_hits"), 5);
    assert_eq!(
        forwarded_total(&mut client) - before,
        2,
        "one call per shard"
    );

    // A run costs one call cold and one warm, and answers what a node
    // answers: the same bytes, `X-Run-Key`, and no `ETag` on a POST.
    let body = job("rodinia/kmeans", 0.06);
    let node_dir = temp_dir("calls-node");
    let node = start_worker(&node_dir);
    let expected = Client::new(node.addr().to_string())
        .post_json("/v1/runs", &body)
        .unwrap();
    node.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&node_dir);
    assert_eq!(expected.status, 200);
    for pass in ["cold", "warm"] {
        let before = forwarded_total(&mut client);
        let resp = client.post_json("/v1/runs", &body).unwrap();
        assert_eq!(
            forwarded_total(&mut client) - before,
            1,
            "{pass} run: one call to the owner"
        );
        assert_eq!(resp.status, 200, "{pass} run");
        assert_eq!(
            resp.body, expected.body,
            "{pass} run answers a node's bytes"
        );
        assert_eq!(run_headers(&resp), run_headers(&expected), "{pass} run");
    }

    // A conditional GET reaches the owner with its validator, and the
    // owner's empty 304 comes back with the owner's headers.
    let key = expected.header("x-run-key").expect("run key");
    let path = format!("/v1/runs/{key}");
    let etag = format!("\"{key}\"");
    let conditional = [("If-None-Match", etag.as_str())];
    let from_owner = workers
        .iter()
        .map(|w| {
            Client::new(w.clone())
                .get_with_headers(&path, &conditional)
                .unwrap()
        })
        .find(|r| r.status != 404)
        .expect("the owner holds the run");
    assert_eq!(from_owner.status, 304);
    let via_coordinator = client.get_with_headers(&path, &conditional).unwrap();
    assert_eq!(via_coordinator.status, 304);
    assert!(via_coordinator.body.is_empty(), "a 304 has no body");
    assert_eq!(run_headers(&via_coordinator), run_headers(&from_owner));
    let full = client.get(&path).unwrap();
    assert_eq!(full.status, 200, "an unconditional GET still answers");
    assert_eq!(full.body, expected.body);
    assert_eq!(full.header("etag"), Some(etag.as_str()));

    coordinator.shutdown_and_join();
    wa.shutdown_and_join();
    wb.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A worker that answers every request with a chunked body whose second
/// chunk claims 2^64 - 1 bytes, then closes: a malformed (or hostile)
/// upstream response. Returns its address and the accept loop's handle;
/// set the flag and connect once to stop it.
fn start_malformed_worker() -> (
    String,
    Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    use std::io::{BufRead, BufReader, Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stopped.load(std::sync::atomic::Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = stream else { continue };
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            let mut reader = BufReader::new(stream);
            let mut body_len = 0;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 || line == "\r\n" {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        body_len = value.trim().parse().unwrap_or(0);
                    }
                }
            }
            let _ = reader.by_ref().take(body_len).read_to_end(&mut Vec::new());
            let mut stream = reader.into_inner();
            let _ = stream.write_all(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\nffffffffffffffff\r\n",
            );
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = stream.read_to_end(&mut Vec::new());
        }
    });
    (addr, stop, handle)
}

#[test]
fn a_malformed_worker_response_cannot_wedge_a_run_flight() {
    let (worker, stop, accept_loop) = start_malformed_worker();
    let coordinator = start_coordinator(vec![worker.clone()], Arc::new(Injector::disabled()));
    let body = job("rodinia/kmeans", 0.05);
    for attempt in 0..2 {
        let mut client = Client::new(coordinator.addr().to_string())
            .with_timeout(std::time::Duration::from_secs(5));
        let resp = client
            .post_json("/v1/runs", &body)
            .unwrap_or_else(|e| panic!("request {attempt} got no answer: {e}"));
        let err = resp
            .api_error()
            .unwrap_or_else(|| panic!("request {attempt} is not an envelope"));
        assert_eq!((resp.status, err.code.as_str()), (503, "no_workers"));
        assert_eq!(resp.header("retry-after"), Some("1"), "request {attempt}");
    }
    coordinator.shutdown_and_join();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    drop(std::net::TcpStream::connect(&worker));
    accept_loop.join().unwrap();
}

#[test]
fn partition_faults_rehash_to_identical_bytes() {
    let baseline = single_node_records(&sweep_body(), "chaos-baseline");

    // One bounded fault per scenario: with two workers, a fault on each
    // shard in the same round would mask both and correctly fail the
    // sweep with no_workers — the property under test is that a *single*
    // partition costs a rehash, never a wrong answer. A hang is also
    // thrown in: slow links delay, they don't fail.
    for plan in [
        "seed=7;cluster.forward:err=eio:max=1;cluster.forward:err=hang:ms=40:max=1",
        "seed=7;cluster.forward:err=drop:max=1",
    ] {
        let faults = Arc::new(Injector::new(FaultPlan::parse(plan).unwrap()));
        let (dir_a, dir_b) = (temp_dir("chaos-a"), temp_dir("chaos-b"));
        let (wa, wb) = (start_worker(&dir_a), start_worker(&dir_b));
        let coordinator =
            start_coordinator(vec![wa.addr().to_string(), wb.addr().to_string()], faults);
        let mut client = Client::new(coordinator.addr().to_string());

        let resp = client.post_json("/v1/sweeps", &sweep_body()).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            record_lines(&resp.body),
            baseline,
            "records are placement-independent under {plan}"
        );
        let s = summary(&resp.body);
        assert_eq!(sweep_field(&s, "failed"), 0, "{plan}");
        assert!(
            sweep_field(&s, "rehashes") >= 1,
            "the injected partition forced at least one rehash ({plan})"
        );

        coordinator.shutdown_and_join();
        wa.shutdown_and_join();
        wb.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

#[test]
fn worker_death_mid_sweep_self_heals_to_identical_bytes() {
    let baseline = single_node_records(&sweep_body(), "death-baseline");

    // Worker B drops the connection mid-response exactly once — the
    // coordinator sees a transport error partway through B's shard,
    // masks B, and re-executes that shard on A.
    let (dir_a, dir_b) = (temp_dir("death-a"), temp_dir("death-b"));
    let wa = start_worker(&dir_a);
    let wb = start_worker_with_faults(&dir_b, "serve.write:err=drop:max=1");
    let coordinator = start_coordinator(
        vec![wa.addr().to_string(), wb.addr().to_string()],
        Arc::new(Injector::disabled()),
    );
    let mut client = Client::new(coordinator.addr().to_string());

    let resp = client.post_json("/v1/sweeps", &sweep_body()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(record_lines(&resp.body), baseline, "mid-sweep drop");
    let s = summary(&resp.body);
    assert_eq!(sweep_field(&s, "failed"), 0);
    assert!(sweep_field(&s, "rehashes") >= 1);

    // Now B actually dies. A fresh sweep still answers identically:
    // forwards to B fail, its keys rehash onto A.
    wb.shutdown_and_join();
    let resp = client.post_json("/v1/sweeps", &sweep_body()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(record_lines(&resp.body), baseline, "after worker death");
    assert_eq!(sweep_field(&summary(&resp.body), "failed"), 0);

    coordinator.shutdown_and_join();
    wa.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn inline_workflows_share_keys_with_single_node_and_journal() {
    let workflow = Json::Obj(vec![(
        "stages".into(),
        Json::Arr(vec![
            Json::Obj(vec![
                ("name".into(), Json::str("characterize")),
                ("jobs".into(), Json::Arr(vec![job("rodinia/kmeans", 0.05)])),
            ]),
            Json::Obj(vec![
                ("name".into(), Json::str("compare")),
                ("deps".into(), Json::Arr(vec![Json::str("characterize")])),
                ("jobs".into(), Json::Arr(vec![job("rodinia/hotspot", 0.05)])),
            ]),
        ]),
    )]);

    // Single-node workflow key for the same graph.
    let dir_s = temp_dir("wf-single");
    let ws = start_worker(&dir_s);
    let mut client = Client::new(ws.addr().to_string());
    let resp = client.post_json("/v1/workflows", &workflow).unwrap();
    assert_eq!(resp.status, 200);
    let single_key = resp.header("x-workflow-key").unwrap().to_string();
    ws.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_s);

    let (dir_a, dir_b) = (temp_dir("wf-a"), temp_dir("wf-b"));
    let (wa, wb) = (start_worker(&dir_a), start_worker(&dir_b));
    let coordinator = start_coordinator(
        vec![wa.addr().to_string(), wb.addr().to_string()],
        Arc::new(Injector::disabled()),
    );
    let mut client = Client::new(coordinator.addr().to_string());

    let resp = client.post_json("/v1/workflows", &workflow).unwrap();
    assert_eq!(resp.status, 200);
    let cluster_key = resp.header("x-workflow-key").unwrap().to_string();
    assert_eq!(
        cluster_key, single_key,
        "inline stage keys agree across deployment shapes"
    );
    let events = resp.ndjson().expect("stage event stream");
    let summary = events.last().expect("workflow summary");
    let wf = summary.get("workflow").expect("summary object");
    assert_eq!(wf.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(wf.get("stages_total").and_then(Json::as_u64), Some(2));

    // The coordinator journals inline workflows locally.
    let resp = client.get(&format!("/v1/workflows/{cluster_key}")).unwrap();
    assert_eq!(resp.status, 200);
    let journaled = resp.json().unwrap();
    assert_eq!(
        journaled
            .get("workflow")
            .and_then(|w| w.get("key"))
            .and_then(Json::as_str),
        Some(cluster_key.as_str())
    );

    coordinator.shutdown_and_join();
    wa.shutdown_and_join();
    wb.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// S3/acceptance: one `X-Request-Id` survives coordinator → worker →
/// response — the same id shows up in the worker's request log lines
/// (alongside the propagated `X-Trace-Context`) and on every span of the
/// stitched cross-node trace.
#[test]
fn request_id_propagates_into_worker_logs_and_stitched_trace() {
    let logs = heteropipe_obs::log::capture();
    heteropipe_obs::log::set_level(heteropipe_obs::log::Level::Info);
    let rid = "req-stitch-e2e-0001";

    let (dir_a, dir_b) = (temp_dir("rid-a"), temp_dir("rid-b"));
    let (wa, wb) = (start_worker(&dir_a), start_worker(&dir_b));
    let (addr_a, addr_b) = (wa.addr().to_string(), wb.addr().to_string());
    let coordinator = start_coordinator(
        vec![addr_a.clone(), addr_b.clone()],
        Arc::new(Injector::disabled()),
    );
    let mut client = Client::new(coordinator.addr().to_string());

    let resp = client
        .post_json_with_headers("/v1/sweeps", &sweep_body(), &[("X-Request-Id", rid)])
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("x-request-id"),
        Some(rid),
        "the caller's id echoes back on the response"
    );
    let sweep_key = resp.header("x-sweep-key").expect("sweep key").to_string();

    // The stitched cross-node trace: one valid Chrome array with the
    // coordinator lane plus both workers' lanes, every span stamped with
    // the originating request id.
    let trace = client
        .get_with_headers(
            &format!("/v1/sweeps/{sweep_key}/trace"),
            &[("X-Request-Id", rid)],
        )
        .unwrap();
    assert_eq!(trace.status, 200);
    let text = String::from_utf8(trace.body).unwrap();
    let parsed = Json::parse(&text).expect("stitched trace is valid JSON");
    let events = parsed.as_array().expect("trace is an array");
    assert!(text.contains("heteropipe-coordinator"));
    for addr in [&addr_a, &addr_b] {
        assert!(
            text.contains(&format!("worker {addr}")),
            "missing lane for worker {addr}"
        );
    }
    let mut span_pids = std::collections::HashSet::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        span_pids.insert(ev.get("pid").and_then(Json::as_u64).unwrap());
        assert_eq!(
            ev.get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(Json::as_str),
            Some(rid),
            "span missing the request id: {ev:?}"
        );
    }
    assert!(span_pids.contains(&0), "coordinator spans present");
    assert!(
        span_pids.contains(&1) && span_pids.contains(&2),
        "both workers' spans are on their own lanes, got pids {span_pids:?}"
    );

    coordinator.shutdown_and_join();
    wa.shutdown_and_join();
    wb.shutdown_and_join();

    // The same id went through the workers' request logs, next to the
    // coordinator's trace context.
    let lines = logs.lock().unwrap();
    let worker_sweep_logs = lines
        .iter()
        .filter(|l| {
            l.contains("\"msg\":\"request\"")
                && l.contains(&format!("\"request_id\":\"{rid}\""))
                && l.contains("\"path\":\"/v1/sweeps\"")
                && l.contains("\"trace_context\":\"trace=req-stitch-e2e-0001;")
        })
        .count();
    assert!(
        worker_sweep_logs >= 1,
        "no worker request log carries the propagated id and trace context"
    );
    drop(lines);

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

// ---- durability: coordinator crash-resume ------------------------------

/// A worker whose every job execution stalls (timing only, never record
/// bytes), so a cluster sweep stays in flight long enough to kill the
/// coordinator mid-run.
fn start_slow_worker(cache_dir: &std::path::Path, ms: u64) -> ServerHandle {
    let plan = format!("seed=5;job.exec:err=hang:ms={ms}:p=1:max=1000");
    let engine = Engine::new()
        .with_jobs(1)
        .with_cache_dir(cache_dir)
        .with_faults(Arc::new(Injector::new(FaultPlan::parse(&plan).unwrap())));
    api::serve(server_cfg(), Arc::new(engine)).expect("bind slow worker")
}

/// Spawns the real `coordinator` binary with stderr teed to `log`, then
/// tails the log for the "listening" line to learn the ephemeral address.
// The child is returned to the caller, which kills and waits on it.
#[allow(clippy::zombie_processes)]
fn spawn_coordinator(
    workers: &[String],
    journal: &std::path::Path,
    log: &std::path::Path,
) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_coordinator"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &workers.join(","),
            "--journal-dir",
            journal.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::fs::File::create(log).expect("create coordinator log"))
        .env_remove("HETEROPIPE_FAULTS")
        .env_remove("HETEROPIPE_TENANTS")
        .spawn()
        .expect("spawn coordinator binary");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Ok(text) = std::fs::read_to_string(log) {
            if let Some(line) = text.lines().find(|l| l.contains("\"msg\":\"listening\"")) {
                let addr = Json::parse(line)
                    .and_then(|v| v.get("addr").and_then(Json::as_str).map(str::to_string))
                    .expect("listening line carries addr");
                return (child, addr);
            }
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            panic!("coordinator did not report listening within 60s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// SIGKILL the coordinator mid-sweep and prove the journal resumes the
/// job to records byte-identical to a single node. The coordinator
/// journals the merged stream only after the cluster sweep completes, so
/// the kill (on wall clock, while the state is still `running`) leaves
/// an intent with zero records — resume re-runs the sweep, and the
/// workers' disk caches make the already-finished jobs cache hits.
#[test]
fn coordinator_sigkill_mid_sweep_resumes_to_byte_identical_records() {
    let body = sweep_body();
    let baseline = single_node_records(&body, "resume-baseline");

    let (dir_a, dir_b) = (temp_dir("resume-a"), temp_dir("resume-b"));
    // 300 ms per exec and serial workers: >= ceil(5/2) * 300 ms = 900 ms
    // of wall clock minimum, so a kill at ~400 ms lands mid-sweep.
    let (wa, wb) = (
        start_slow_worker(&dir_a, 300),
        start_slow_worker(&dir_b, 300),
    );
    let workers = vec![wa.addr().to_string(), wb.addr().to_string()];
    let journal_dir = temp_dir("resume-journal");
    let logs = temp_dir("resume-logs");
    std::fs::create_dir_all(&logs).expect("create log dir");

    // First life: accept the sweep, then pull the plug mid-run.
    let (mut child, addr) = spawn_coordinator(&workers, &journal_dir, &logs.join("first.log"));
    let mut client = Client::new(addr).with_timeout(std::time::Duration::from_secs(10));
    let accepted = client
        .post_json("/v1/sweeps?async=1", &body)
        .expect("async submit");
    assert_eq!(accepted.status, 202, "async submit is accepted");
    let key = accepted
        .json()
        .and_then(|v| v.get("key").and_then(Json::as_str).map(str::to_string))
        .expect("202 body carries the sweep key");

    std::thread::sleep(std::time::Duration::from_millis(400));
    let status = client
        .get(&format!("/v1/sweeps/{key}"))
        .expect("status poll");
    assert_eq!(status.status, 200);
    assert_eq!(
        status.json().unwrap().get("state").and_then(Json::as_str),
        Some("running"),
        "kill must land while the sweep is in flight"
    );
    child.kill().expect("SIGKILL the coordinator");
    let _ = child.wait();

    // Coarse journaling: the intent survived the crash, no records did.
    {
        let j = heteropipe_engine::Journal::open(&journal_dir).expect("reopen journal");
        let replay = j
            .replay(&key)
            .expect("replay readable")
            .expect("segment exists");
        assert!(!replay.done, "kill landed before the seal");
        assert!(
            replay.records.is_empty(),
            "the coordinator journals merged records only after the sweep"
        );
        assert_eq!(j.incomplete(), vec![key.clone()]);
    }

    // Second life over the same journal: the resume driver re-runs the
    // sweep unprompted; finished jobs are worker cache hits.
    let (mut child, addr) = spawn_coordinator(&workers, &journal_dir, &logs.join("second.log"));
    let mut client = Client::new(addr).with_timeout(std::time::Duration::from_secs(10));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let resp = client
            .get(&format!("/v1/sweeps/{key}"))
            .expect("status poll");
        assert_eq!(resp.status, 200, "resumed coordinator knows the sweep");
        let v = resp.json().unwrap();
        match v.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed") => panic!("resumed sweep failed: {v:?}"),
            _ => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "resumed sweep did not finish"
                );
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    }

    let records = client
        .get(&format!("/v1/sweeps/{key}/records"))
        .expect("records fetch");
    assert_eq!(records.status, 200);
    assert_eq!(
        record_lines(&records.body),
        baseline,
        "resumed cluster records are byte-identical to a single node"
    );

    // The second life counted the recovery, and deadline admission works
    // at the coordinator exactly as it does at a worker.
    let m = client
        .get("/metrics")
        .expect("metrics")
        .json()
        .expect("metrics parse");
    let recovered = m
        .get("journal")
        .and_then(|j| j.get("recovered"))
        .and_then(Json::as_u64)
        .expect("journal metrics present");
    assert!(recovered >= 1, "the resume counts as a recovery");
    let spent = client
        .get_with_headers("/v1/benchmarks", &[("X-Deadline-Ms", "0")])
        .expect("deadline probe");
    assert_eq!(spent.status, 504, "coordinator honors deadline admission");

    child.kill().expect("stop resumed coordinator");
    let _ = child.wait();
    wa.shutdown_and_join();
    wb.shutdown_and_join();
    for dir in [&dir_a, &dir_b, &journal_dir, &logs] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
