//! One request script, two front doors: a durable single node and a
//! durable coordinator over two workers must answer every step with the
//! same status, error `code`, `Retry-After` and resource-key headers.
//! The same two doors also export exactly the metric families that
//! docs/observability.md catalogs.
//!
//! Both doors are assembled by hand (tenant gate and a fresh journal
//! attached directly) so no test reads the process-wide environment.

use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use heteropipe_cluster::{ClusterConfig, Coordinator};
use heteropipe_engine::{Engine, Journal};
use heteropipe_faults::{FaultPlan, Injector};
use heteropipe_serve::client::read_response;
use heteropipe_serve::server::{Server, ServerConfig};
use heteropipe_serve::{api, Api, Client, ClientResponse, Json, ServerHandle, TenantGate};

/// Two requests of burst for `alice`, refilling at one per second.
const PLAN: &str = "alice=1:2";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "heteropipe-front-door-{}-{tag}",
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

fn journal(dir: Option<&Path>) -> Option<Arc<Journal>> {
    dir.map(|d| Arc::new(Journal::open(d).expect("open journal")))
}

fn start_node(journal_dir: Option<&Path>) -> ServerHandle {
    start_node_with_faults(journal_dir, Arc::new(Injector::disabled()))
}

fn start_node_with_faults(journal_dir: Option<&Path>, faults: Arc<Injector>) -> ServerHandle {
    let api = Api::new(Arc::new(Engine::new().memory_cache_only()));
    api.attach_tenants(Arc::new(TenantGate::parse(PLAN).unwrap()));
    api.attach_faults(faults);
    if let Some(j) = journal(journal_dir) {
        api.attach_journal(j);
    }
    let server = Server::bind(server_cfg(), api.clone()).expect("bind node");
    api.attach_stats(server.stats());
    api.attach_breaker(server.breaker());
    server.start()
}

fn start_coordinator(workers: Vec<String>, journal_dir: Option<&Path>) -> ServerHandle {
    let coordinator = Coordinator::new(ClusterConfig {
        workers,
        ..ClusterConfig::default()
    });
    coordinator.attach_tenants(Arc::new(TenantGate::parse(PLAN).unwrap()));
    if let Some(j) = journal(journal_dir) {
        coordinator.attach_journal(j);
    }
    let server = Server::bind(server_cfg(), coordinator.clone()).expect("bind coordinator");
    coordinator.attach_stats(server.stats());
    server.start()
}

fn job(benchmark: &str) -> Json {
    Json::Obj(vec![
        ("benchmark".into(), Json::str(benchmark)),
        ("system".into(), Json::str("discrete")),
        ("organization".into(), Json::str("serial")),
        ("scale".into(), Json::F64(0.05)),
    ])
}

fn sweep_body() -> Json {
    let jobs = ["rodinia/kmeans", "rodinia/hotspot", "rodinia/kmeans"];
    Json::Obj(vec![("jobs".into(), Json::Arr(jobs.map(job).to_vec()))])
}

fn workflow_body() -> Json {
    let stage = |name: &str, deps: &[&str], bench: &str| {
        Json::Obj(vec![
            ("name".into(), Json::str(name)),
            (
                "deps".into(),
                Json::Arr(deps.iter().map(|d| Json::str(*d)).collect()),
            ),
            ("jobs".into(), Json::Arr(vec![job(bench)])),
        ])
    };
    Json::Obj(vec![(
        "stages".into(),
        Json::Arr(vec![
            stage("characterize", &[], "rodinia/bfs"),
            stage("compare", &["characterize"], "rodinia/nw"),
        ]),
    )])
}

/// What the script compares across doors for one step.
#[derive(Debug, PartialEq)]
struct Seen {
    step: &'static str,
    status: u16,
    code: Option<String>,
    retry_after: Option<String>,
    headers: Vec<(&'static str, Option<String>)>,
}

fn seen(step: &'static str, resp: &ClientResponse) -> Seen {
    let code = resp.api_error().map(|e| e.code);
    let headers = [
        "x-sweep-key",
        "x-workflow-key",
        "x-run-key",
        "x-job-state",
        "allow",
    ]
    .into_iter()
    .map(|h| (h, resp.header(h).map(str::to_owned)))
    .collect();
    Seen {
        step,
        status: resp.status,
        code,
        retry_after: resp.header("retry-after").map(str::to_owned),
        headers,
    }
}

/// A request with a method the client does not speak, over a fresh
/// connection.
fn raw(addr: &str, method: &str, path: &str) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    read_response(&mut BufReader::new(stream)).expect("response")
}

/// Polls `path` until its JSON body satisfies `done`.
fn poll(client: &mut Client, path: &str, done: impl Fn(&Json) -> bool) -> ClientResponse {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = client.get(path).unwrap();
        if resp.json().is_some_and(|v| done(&v)) {
            return resp;
        }
        assert!(Instant::now() < deadline, "{path} never settled");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn state_is(v: &Json, state: &str) -> bool {
    v.get("state").and_then(Json::as_str) == Some(state)
}

/// Runs the script against a durable door (`addr`) and a door without a
/// journal (`plain`). Returns what each step showed plus the journaled
/// sweep records, which both doors must also agree on byte for byte.
fn script(addr: &str, plain: &str) -> (Vec<Seen>, Vec<u8>) {
    let mut c = Client::new(addr);
    let mut out = Vec::new();
    let alice: &[(&str, &str)] = &[("X-Api-Key", "alice")];
    for step in ["tenant burst 1", "tenant burst 2", "tenant throttled"] {
        let resp = c.get_with_headers("/v1/benchmarks", alice).unwrap();
        out.push(seen(step, &resp));
    }
    let spent = c
        .get_with_headers("/v1/benchmarks", &[("X-Deadline-Ms", "0")])
        .unwrap();
    out.push(seen("deadline spent", &spent));
    let garbage = c
        .get_with_headers("/v1/benchmarks", &[("X-Deadline-Ms", "x")])
        .unwrap();
    out.push(seen("deadline garbage", &garbage));

    let accepted = c.post_json("/v1/sweeps?async=1", &sweep_body()).unwrap();
    out.push(seen("async sweep accepted", &accepted));
    let key = accepted
        .header("x-sweep-key")
        .expect("sweep key")
        .to_owned();
    let status = poll(&mut c, &format!("/v1/sweeps/{key}"), |v| {
        state_is(v, "done")
    });
    out.push(seen("async sweep done", &status));
    let records = c
        .get(&format!("/v1/sweeps/{key}/records?from_index=1"))
        .unwrap();
    out.push(seen("async sweep records tail", &records));
    let again = c.post_json("/v1/sweeps?async=1", &sweep_body()).unwrap();
    out.push(seen("async sweep resubmitted", &again));
    assert!(
        again.json().is_some_and(|v| state_is(&v, "done")),
        "resubmission adopts the sealed job"
    );
    let nope = c.get(&format!("/v1/sweeps/{key}/nope")).unwrap();
    out.push(seen("sweep sub-resource unknown", &nope));

    let accepted = c
        .post_json("/v1/workflows?async=1", &workflow_body())
        .unwrap();
    out.push(seen("async workflow accepted", &accepted));
    let wkey = accepted
        .header("x-workflow-key")
        .expect("workflow key")
        .to_owned();
    let result = poll(&mut c, &format!("/v1/workflows/{wkey}"), |v| {
        v.get("workflow").is_some()
    });
    out.push(seen("async workflow result", &result));
    let failed = result
        .json()
        .and_then(|v| v.get("workflow")?.get("failed")?.as_u64());
    assert_eq!(failed, Some(0), "workflow stages all succeed");
    out.push(seen(
        "workflow delete",
        &raw(addr, "DELETE", &format!("/v1/workflows/{wkey}")),
    ));

    let refused = Client::new(plain)
        .post_json("/v1/sweeps?async=1", &sweep_body())
        .unwrap();
    out.push(seen("async without journal", &refused));
    (out, records.body)
}

#[test]
fn node_and_coordinator_answer_the_same_script_identically() {
    let (node_j, coord_j) = (temp_dir("node-journal"), temp_dir("coord-journal"));
    let node = start_node(Some(&node_j));
    let plain_node = start_node(None);
    let workers = [
        api::serve(
            server_cfg(),
            Arc::new(Engine::new().with_jobs(2).memory_cache_only()),
        )
        .expect("bind worker"),
        api::serve(
            server_cfg(),
            Arc::new(Engine::new().with_jobs(2).memory_cache_only()),
        )
        .expect("bind worker"),
    ];
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let coordinator = start_coordinator(addrs.clone(), Some(&coord_j));
    let plain_coordinator = start_coordinator(addrs, None);

    let (node_seen, node_records) =
        script(&node.addr().to_string(), &plain_node.addr().to_string());
    let (cluster_seen, cluster_records) = script(
        &coordinator.addr().to_string(),
        &plain_coordinator.addr().to_string(),
    );
    assert_eq!(node_seen, cluster_seen);
    assert_eq!(
        String::from_utf8(node_records).unwrap(),
        String::from_utf8(cluster_records).unwrap(),
        "journaled records are byte-identical across doors"
    );

    // Spot-check that the script saw what it meant to provoke.
    let status = |step: &str| node_seen.iter().find(|s| s.step == step).unwrap().status;
    assert_eq!(status("tenant throttled"), 429);
    assert_eq!(status("deadline spent"), 504);
    assert_eq!(status("deadline garbage"), 400);
    assert_eq!(status("async sweep accepted"), 202);
    assert_eq!(status("sweep sub-resource unknown"), 404);
    assert_eq!(status("workflow delete"), 405);
    assert_eq!(status("async without journal"), 503);

    for h in [coordinator, plain_coordinator, node, plain_node] {
        h.shutdown_and_join();
    }
    for w in workers {
        w.shutdown_and_join();
    }
    let _ = std::fs::remove_dir_all(&node_j);
    let _ = std::fs::remove_dir_all(&coord_j);
}

/// The family column of docs/observability.md's metric catalog.
fn catalog_families() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
    let doc = std::fs::read_to_string(path).expect("read docs/observability.md");
    doc.lines()
        .filter_map(|l| l.strip_prefix("| `heteropipe_"))
        .map(|rest| format!("heteropipe_{}", &rest[..rest.find('`').unwrap()]))
        .collect()
}

/// Every family a door's Prometheus exposition declares.
fn exported_families(addr: &str) -> BTreeSet<String> {
    let resp = Client::new(addr).get("/metrics?format=prometheus").unwrap();
    assert_eq!(resp.status, 200);
    String::from_utf8(resp.body)
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| rest.split(' ').next().unwrap().to_owned())
        .collect()
}

#[test]
fn the_metric_catalog_lists_exactly_the_exported_families() {
    // Everything that adds families is attached: a journal, tenants, a
    // fault rule that never fires, and the server's breaker and stats.
    let never = FaultPlan::parse("serve.accept:err=drop:p=0").unwrap();
    let (node_j, coord_j) = (temp_dir("catalog-node"), temp_dir("catalog-coord"));
    let node = start_node_with_faults(Some(&node_j), Arc::new(Injector::new(never)));
    let workers = [0, 1].map(|_| {
        api::serve(
            server_cfg(),
            Arc::new(Engine::new().with_jobs(2).memory_cache_only()),
        )
        .expect("bind worker")
    });
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let coordinator = start_coordinator(addrs, Some(&coord_j));
    // One run through each door, so the profiled phases exist.
    for door in [&node, &coordinator] {
        let resp = Client::new(door.addr().to_string())
            .post_json("/v1/runs", &job("rodinia/kmeans"))
            .unwrap();
        assert_eq!(resp.status, 200);
    }

    let mut exported = exported_families(&node.addr().to_string());
    exported.extend(exported_families(&coordinator.addr().to_string()));
    let catalog = catalog_families();
    assert_eq!(
        exported.difference(&catalog).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "exported but not in the catalog"
    );
    assert_eq!(
        catalog.difference(&exported).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "in the catalog but not exported"
    );

    for h in [coordinator, node] {
        h.shutdown_and_join();
    }
    for w in workers {
        w.shutdown_and_join();
    }
    let _ = std::fs::remove_dir_all(&node_j);
    let _ = std::fs::remove_dir_all(&coord_j);
}
