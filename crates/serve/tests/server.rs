//! End-to-end tests: a real server on an ephemeral port, driven through
//! the crate's own client, with the shared engine's cache observable
//! through `/metrics`.

use std::sync::Arc;

use heteropipe_engine::Engine;
use heteropipe_faults::{FaultPlan, Injector, RetryPolicy};
use heteropipe_serve::server::{Server, ServerConfig};
use heteropipe_serve::{api, Api, BreakerConfig, Client, Json, ServerHandle, TenantGate};

fn start(engine: Engine) -> ServerHandle {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        max_inflight: 32,
        ..ServerConfig::default()
    };
    api::serve(cfg, Arc::new(engine)).expect("bind ephemeral port")
}

/// An engine whose job executions panic per `plan`, retried under `retry`.
fn faulty_engine(plan: &str, retry: RetryPolicy) -> Engine {
    Engine::new()
        .memory_cache_only()
        .with_faults(Arc::new(Injector::new(FaultPlan::parse(plan).unwrap())))
        .with_retry(retry)
}

fn run_body(benchmark: &str) -> Json {
    Json::Obj(vec![
        ("benchmark".into(), Json::str(benchmark)),
        ("system".into(), Json::str("discrete")),
        ("organization".into(), Json::str("serial")),
        ("scale".into(), Json::F64(0.08)),
    ])
}

#[test]
fn healthz_and_unknown_routes() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());

    let resp = client.get("/healthz").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.json().unwrap().get("status").and_then(Json::as_str),
        Some("ok")
    );

    assert_eq!(client.get("/nope").unwrap().status, 404);
    // Wrong method on a known route: 405 with an Allow header.
    let resp = client.post_json("/healthz", &Json::Null).unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
    let resp = client.get("/v1/run").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));

    handle.shutdown_and_join();
}

#[test]
fn benchmark_catalog_counts_match_the_paper() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());

    let resp = client.get("/v1/benchmarks").unwrap();
    assert_eq!(resp.status, 200);
    let v = resp.json().unwrap();
    assert_eq!(v.get("total").and_then(Json::as_u64), Some(58));
    assert_eq!(v.get("examined").and_then(Json::as_u64), Some(46));
    let list = v.get("benchmarks").and_then(Json::as_array).unwrap();
    assert_eq!(list.len(), 58);
    let kmeans = list
        .iter()
        .find(|b| b.get("name").and_then(Json::as_str) == Some("rodinia/kmeans"))
        .expect("kmeans catalogued");
    assert_eq!(kmeans.get("examined").and_then(Json::as_bool), Some(true));
    assert_eq!(kmeans.get("runnable").and_then(Json::as_bool), Some(true));

    handle.shutdown_and_join();
}

#[test]
fn run_endpoint_validates_requests() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());

    let resp = client
        .post_json("/v1/run", &run_body("rodinia/nonesuch"))
        .unwrap();
    assert_eq!(resp.status, 404, "unknown benchmark");

    let resp = client.post_raw("/v1/run", b"{not json".to_vec()).unwrap();
    assert_eq!(resp.status, 400, "malformed body");

    // chunked_parallel on the discrete system is a config error the
    // server must catch, not a 500 from the simulator's panic.
    let mismatched = Json::Obj(vec![
        ("benchmark".into(), Json::str("rodinia/kmeans")),
        ("system".into(), Json::str("discrete")),
        (
            "organization".into(),
            Json::Obj(vec![("chunked_parallel".into(), Json::U64(8))]),
        ),
        ("scale".into(), Json::F64(0.08)),
    ]);
    let resp = client.post_json("/v1/run", &mismatched).unwrap();
    assert_eq!(resp.status, 400);

    let resp = client
        .post_json(
            "/v1/run",
            &Json::Obj(vec![
                ("benchmark".into(), Json::str("rodinia/kmeans")),
                ("scale".into(), Json::F64(-2.0)),
            ]),
        )
        .unwrap();
    assert_eq!(resp.status, 400, "negative scale");

    handle.shutdown_and_join();
}

#[test]
fn concurrent_runs_share_one_engine_and_warm_repeat_is_byte_identical() {
    let handle = start(Engine::new().memory_cache_only());
    let addr = handle.addr().to_string();

    // Eight clients race the same job through the shared engine.
    let bodies: Vec<Vec<u8>> = {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let resp = Client::new(addr)
                        .post_json("/v1/run", &run_body("rodinia/kmeans"))
                        .unwrap();
                    assert_eq!(resp.status, 200);
                    resp.body
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    };
    for body in &bodies[1..] {
        assert_eq!(
            body, &bodies[0],
            "all racers see the same deterministic report"
        );
    }

    // A warm repeat must be answered from cache, byte-identical.
    let mut client = Client::new(addr);
    let warm = client
        .post_json("/v1/run", &run_body("rodinia/kmeans"))
        .unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.body, bodies[0],
        "cache hit serializes to the same bytes"
    );

    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let engine = metrics.get("engine").unwrap();
    let hits = engine.get("memory_hits").and_then(Json::as_u64).unwrap();
    let executed = engine.get("jobs_executed").and_then(Json::as_u64).unwrap();
    assert!(hits >= 1, "warm repeat must hit the memory tier");
    assert!(
        executed < 9,
        "racers plus the warm repeat must not all simulate ({executed} executed)"
    );
    let report = warm.json().unwrap();
    assert!(report.get("roi_ps").and_then(Json::as_u64).unwrap() > 0);

    let server = metrics.get("server").unwrap();
    assert!(server.get("requests").and_then(Json::as_u64).unwrap() >= 9);
    let latency = server.get("latency_us").unwrap();
    assert!(latency.get("p99").and_then(Json::as_u64).unwrap() >= 1);

    handle.shutdown_and_join();
}

#[test]
fn request_ids_and_run_traces_round_trip() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());

    // Cold run: the server generates a correlation id and returns the
    // run's content address.
    let resp = client
        .post_json("/v1/run", &run_body("rodinia/kmeans"))
        .unwrap();
    assert_eq!(resp.status, 200);
    let rid = resp
        .header("x-request-id")
        .expect("id on every response")
        .to_string();
    assert!(rid.starts_with("req-"), "generated id: {rid}");
    let key = resp
        .header("x-run-key")
        .expect("run key header")
        .to_string();
    assert_eq!(key.len(), 32, "run-key hex: {key}");

    // The trace endpoint returns a Chrome-trace JSON array carrying that
    // request id and the simulated component timeline.
    let trace = client.get(&format!("/v1/run/{key}/trace")).unwrap();
    assert_eq!(trace.status, 200);
    assert_eq!(trace.header("content-type"), Some("application/json"));
    let text = String::from_utf8(trace.body.clone()).unwrap();
    assert!(Json::parse(&text).is_some(), "trace must be valid JSON");
    assert!(text.trim_start().starts_with('['), "Chrome-trace array");
    assert!(text.contains(&format!("\"request_id\":\"{rid}\"")));
    assert!(text.contains("\"ph\":\"X\""));
    assert!(text.contains("\"outcome\":\"executed\""));
    assert!(
        text.contains("\"name\":\"gpu\""),
        "simulated component rows present"
    );

    // A warm hit with a client-supplied id: the id is honored end to end
    // and the retained trace keeps the simulated timeline.
    let warm = client
        .post_json_with_headers(
            "/v1/run",
            &run_body("rodinia/kmeans"),
            &[("X-Request-Id", "caller-7.warm")],
        )
        .unwrap();
    assert_eq!(warm.header("x-request-id"), Some("caller-7.warm"));
    assert_eq!(warm.header("x-run-key"), Some(key.as_str()));
    let text =
        String::from_utf8(client.get(&format!("/v1/run/{key}/trace")).unwrap().body).unwrap();
    assert!(text.contains("\"request_id\":\"caller-7.warm\""));
    assert!(text.contains("\"outcome\":\"memory_hit\""));
    assert!(
        text.contains("\"name\":\"gpu\""),
        "warm trace inherits the simulated timeline"
    );

    // A malformed inbound id is replaced, not echoed.
    let resp = client
        .get_with_headers("/healthz", &[("X-Request-Id", "bad id with spaces")])
        .unwrap();
    let echoed = resp.header("x-request-id").unwrap();
    assert!(echoed.starts_with("req-"), "replaced, got {echoed}");

    // Unknown keys 404, bad keys 400, wrong method 405.
    let missing = format!("/v1/run/{}/trace", "0".repeat(32));
    assert_eq!(client.get(&missing).unwrap().status, 404);
    assert_eq!(client.get("/v1/run/nothex/trace").unwrap().status, 400);
    let resp = client
        .post_json(&format!("/v1/run/{key}/trace"), &Json::Null)
        .unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));

    handle.shutdown_and_join();
}

#[test]
fn metrics_expose_prometheus_text_format() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());
    client
        .post_json("/v1/run", &run_body("rodinia/kmeans"))
        .unwrap();

    let resp = client.get("/metrics?format=prometheus").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    let text = String::from_utf8(resp.body.clone()).unwrap();
    let samples = heteropipe_obs::expfmt::parse(&text)
        .unwrap_or_else(|e| panic!("exposition must validate: {e}\n{text}"));
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(value("heteropipe_engine_jobs_executed_total"), 1.0);
    assert!(value("heteropipe_server_requests_total") >= 1.0);
    assert!(
        value("heteropipe_server_request_latency_microseconds_count") >= 1.0,
        "server latency histogram populated"
    );
    assert!(samples.iter().any(|s| {
        s.name == "heteropipe_engine_cache_hits_total" && s.label("tier") == Some("memory")
    }));

    // Content negotiation: an Accept header selects the format too, and
    // the JSON document stays the default.
    let resp = client
        .get_with_headers("/metrics", &[("Accept", "text/plain")])
        .unwrap();
    assert!(String::from_utf8(resp.body).unwrap().starts_with("# HELP"));
    let resp = client.get("/metrics").unwrap();
    let v = resp.json().expect("default stays JSON");
    assert!(v.get("engine").is_some());

    handle.shutdown_and_join();
}

#[test]
fn injected_panic_is_retried_and_counted_in_metrics() {
    // One panic budget, generous retries: the run succeeds on a later
    // attempt and the recovery shows up in both metric formats.
    let retry = RetryPolicy {
        attempts: 5,
        base_ms: 0,
        cap_ms: 0,
    };
    let handle = start(faulty_engine("job.exec:err=panic:max=1", retry));
    let mut client = Client::new(handle.addr().to_string());

    let resp = client
        .post_json("/v1/run", &run_body("rodinia/kmeans"))
        .unwrap();
    assert_eq!(resp.status, 200, "panic absorbed by retry");

    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let resilience = metrics.get("engine").unwrap().get("resilience").unwrap();
    assert_eq!(
        resilience.get("exec_retries").and_then(Json::as_u64),
        Some(1)
    );

    let text = client.get("/metrics?format=prometheus").unwrap();
    let samples = heteropipe_obs::expfmt::parse(&String::from_utf8(text.body).unwrap()).unwrap();
    let retries = samples
        .iter()
        .find(|s| s.name == "heteropipe_engine_exec_retries_total")
        .expect("retry counter exported");
    assert_eq!(retries.value, 1.0);
    let injected = samples
        .iter()
        .find(|s| s.name == "heteropipe_faults_injected_total")
        .expect("fault counter exported");
    assert_eq!(injected.label("site"), Some("job.exec"));
    assert_eq!(injected.label("kind"), Some("panic"));
    assert_eq!(injected.value, 1.0);

    handle.shutdown_and_join();
}

#[test]
fn quarantined_job_answers_503_with_retry_after() {
    // Every attempt panics and there are no retries: the first request
    // fails for real (500), poisoning the job; repeats fail fast (503)
    // instead of burning attempts on a job known to die.
    let handle = start(faulty_engine("job.exec:err=panic", RetryPolicy::NONE));
    let mut client = Client::new(handle.addr().to_string());

    let first = client
        .post_json("/v1/run", &run_body("rodinia/kmeans"))
        .unwrap();
    assert_eq!(first.status, 500);
    let key = first.header("x-run-key").unwrap().to_string();

    let second = client
        .post_json("/v1/run", &run_body("rodinia/kmeans"))
        .unwrap();
    assert_eq!(second.status, 503, "quarantined job fails fast");
    assert_eq!(second.header("retry-after"), Some("30"));
    assert_eq!(second.header("x-run-key"), Some(key.as_str()));
    assert!(String::from_utf8(second.body.clone())
        .unwrap()
        .contains("quarantined"));

    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let resilience = metrics.get("engine").unwrap().get("resilience").unwrap();
    assert_eq!(
        resilience.get("jobs_quarantined").and_then(Json::as_u64),
        Some(1)
    );

    handle.shutdown_and_join();
}

#[test]
fn open_breaker_sheds_api_routes_but_readiness_reports_it() {
    // A hair-trigger breaker over an engine that always fails: the first
    // real failure opens it, API routes shed, and the liveness/readiness
    // split tells the orchestrator to stop routing without restarting.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: std::time::Duration::from_secs(5),
            half_open_probes: 1,
        },
        ..ServerConfig::default()
    };
    let engine = faulty_engine("job.exec:err=panic", RetryPolicy::NONE);
    let handle = api::serve(cfg, Arc::new(engine)).unwrap();
    let mut client = Client::new(handle.addr().to_string());

    assert_eq!(client.get("/healthz/live").unwrap().status, 200);
    let ready = client.get("/healthz/ready").unwrap();
    assert_eq!(ready.status, 200);
    assert_eq!(
        ready.json().unwrap().get("status").and_then(Json::as_str),
        Some("ready")
    );

    let resp = client
        .post_json("/v1/run", &run_body("rodinia/kmeans"))
        .unwrap();
    assert_eq!(resp.status, 500, "real failure trips the breaker");

    // API routes shed with Retry-After (the cooldown) while open...
    let shed = client.get("/v1/benchmarks").unwrap();
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("5"));
    assert!(String::from_utf8(shed.body.clone())
        .unwrap()
        .contains("circuit breaker open"));

    // ...but probes and scrapes keep answering.
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    assert_eq!(client.get("/healthz/live").unwrap().status, 200);
    let ready = client.get("/healthz/ready").unwrap();
    assert_eq!(ready.status, 503, "unready while the breaker is open");
    assert_eq!(ready.header("retry-after"), Some("5"));
    let v = ready.json().unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("unready"));
    assert_eq!(v.get("breaker").and_then(Json::as_str), Some("open"));

    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let breaker = metrics.get("server").unwrap().get("breaker").unwrap();
    assert_eq!(breaker.get("state").and_then(Json::as_str), Some("open"));
    assert_eq!(breaker.get("opened").and_then(Json::as_u64), Some(1));
    assert!(breaker.get("shed").and_then(Json::as_u64).unwrap() >= 1);

    let text = client.get("/metrics?format=prometheus").unwrap();
    let samples = heteropipe_obs::expfmt::parse(&String::from_utf8(text.body).unwrap()).unwrap();
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(value("heteropipe_server_breaker_open"), 1.0);
    assert_eq!(value("heteropipe_server_breaker_opened_total"), 1.0);
    assert!(value("heteropipe_server_breaker_shed_total") >= 1.0);

    handle.shutdown_and_join();
}

/// A 20-entry mixed sweep body: 4 unique job specs (2 benchmarks x 2
/// systems) each repeated 5 times.
fn mixed_sweep_body() -> Json {
    let mut jobs = Vec::new();
    for _ in 0..5 {
        for (bench, system) in [
            ("rodinia/kmeans", "discrete"),
            ("rodinia/srad", "discrete"),
            ("rodinia/kmeans", "heterogeneous"),
            ("rodinia/srad", "heterogeneous"),
        ] {
            jobs.push(Json::Obj(vec![
                ("benchmark".into(), Json::str(bench)),
                ("system".into(), Json::str(system)),
                ("scale".into(), Json::F64(0.08)),
            ]));
        }
    }
    Json::Obj(vec![("jobs".into(), Json::Arr(jobs))])
}

/// Splits an NDJSON sweep body into (records by index, summary line),
/// asserting the stream shape along the way.
fn split_sweep_stream(body: &[u8], expect_jobs: usize) -> (Vec<String>, Json) {
    let text = String::from_utf8(body.to_vec()).expect("NDJSON is UTF-8");
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), expect_jobs + 1, "one record per job + summary");
    let summary = Json::parse(lines[expect_jobs]).expect("summary parses");
    assert!(summary.get("sweep").is_some(), "last line is the summary");
    let mut by_index = vec![String::new(); expect_jobs];
    for line in &lines[..expect_jobs] {
        let v = Json::parse(line).expect("record parses");
        let i = v.get("index").and_then(Json::as_u64).expect("index") as usize;
        assert!(by_index[i].is_empty(), "each index appears exactly once");
        by_index[i] = (*line).to_string();
    }
    (by_index, summary.get("sweep").unwrap().clone())
}

#[test]
fn sweep_streams_ndjson_dedups_and_warm_repeat_is_byte_identical() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());
    let body = mixed_sweep_body();

    // Cold sweep: 20 entries, 4 unique, streamed over keep-alive.
    let cold = client.post_json("/v1/sweeps", &body).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("content-type"), Some("application/x-ndjson"));
    let sweep_key = cold.header("x-sweep-key").expect("sweep key").to_string();
    assert_eq!(sweep_key.len(), 32);
    let (cold_records, cold_summary) = split_sweep_stream(&cold.body, 20);
    assert_eq!(
        cold_summary.get("jobs_total").and_then(Json::as_u64),
        Some(20)
    );
    assert_eq!(
        cold_summary.get("jobs_unique").and_then(Json::as_u64),
        Some(4)
    );
    assert_eq!(
        cold_summary.get("duplicates").and_then(Json::as_u64),
        Some(16)
    );
    assert_eq!(cold_summary.get("failed").and_then(Json::as_u64), Some(0));
    let executed = cold_summary.get("executed").and_then(Json::as_u64).unwrap();
    let coalesced = cold_summary
        .get("coalesced")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(executed + coalesced, 4, "unique residue ran exactly once");
    let deduped = cold_records
        .iter()
        .filter(|l| {
            Json::parse(l)
                .unwrap()
                .get("deduped")
                .and_then(Json::as_bool)
                == Some(true)
        })
        .count();
    assert_eq!(deduped, 16, "every repeat is marked deduped");
    for line in &cold_records {
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(v.get("key").and_then(Json::as_str).unwrap().len(), 32);
        assert!(v.get("report").and_then(|r| r.get("roi_ps")).is_some());
    }

    // Warm repeat on the same keep-alive connection: byte-identical
    // records (the summary line carries timing and is excluded).
    let warm = client.post_json("/v1/sweeps", &body).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-sweep-key"), Some(sweep_key.as_str()));
    let (warm_records, warm_summary) = split_sweep_stream(&warm.body, 20);
    assert_eq!(warm_records, cold_records, "per-record bytes identical");
    assert_eq!(
        warm_summary.get("cache_hits").and_then(Json::as_u64),
        Some(4)
    );
    assert_eq!(warm_summary.get("executed").and_then(Json::as_u64), Some(0));

    // The connection still serves ordinary requests after two streams.
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    // The cached report behind any record is retrievable as a resource,
    // and the sweep left a trace under its own key.
    let rec = Json::parse(&cold_records[0]).unwrap();
    let key = rec.get("key").and_then(Json::as_str).unwrap();
    let report = client.get(&format!("/v1/runs/{key}")).unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(report.header("x-run-key"), Some(key));
    assert_eq!(
        report.json().unwrap().dump(),
        rec.get("report").unwrap().dump(),
        "GET /v1/runs/{{key}} returns the same report the sweep streamed"
    );
    let trace = client.get(&format!("/v1/runs/{sweep_key}/trace")).unwrap();
    assert_eq!(trace.status, 200);
    let trace_text = String::from_utf8(trace.body).unwrap();
    assert!(trace_text.contains("sweep[20]"), "{trace_text}");

    // Dedup accounting lands in both metrics formats.
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let sweeps = metrics.get("engine").unwrap().get("sweeps").unwrap();
    assert_eq!(sweeps.get("count").and_then(Json::as_u64), Some(2));
    assert_eq!(sweeps.get("jobs").and_then(Json::as_u64), Some(40));
    assert_eq!(sweeps.get("deduped").and_then(Json::as_u64), Some(32));
    let text = client.get("/metrics?format=prometheus").unwrap();
    let samples = heteropipe_obs::expfmt::parse(&String::from_utf8(text.body).unwrap()).unwrap();
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(value("heteropipe_engine_sweeps_total"), 2.0);
    assert_eq!(value("heteropipe_engine_sweep_jobs_total"), 40.0);
    assert_eq!(value("heteropipe_engine_sweep_deduped_total"), 32.0);

    handle.shutdown_and_join();
}

#[test]
fn sweep_isolates_poisoned_entries_and_reports_quarantine() {
    // One panic budget, no retries, one worker: the first kmeans
    // execution dies deterministically and poisons its key; srad and the
    // batch itself survive.
    let engine = faulty_engine("job.exec:err=panic:max=1", RetryPolicy::NONE).with_jobs(1);
    let handle = start(engine);
    let mut client = Client::new(handle.addr().to_string());

    let jobs = |benches: &[&str]| {
        Json::Obj(vec![(
            "jobs".into(),
            Json::Arr(
                benches
                    .iter()
                    .map(|b| {
                        Json::Obj(vec![
                            ("benchmark".into(), Json::str(*b)),
                            ("scale".into(), Json::F64(0.08)),
                        ])
                    })
                    .collect(),
            ),
        )])
    };

    let resp = client
        .post_json(
            "/v1/sweeps",
            &jobs(&["rodinia/kmeans", "rodinia/kmeans", "rodinia/srad"]),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "a poisoned entry never fails the batch");
    let (records, summary) = split_sweep_stream(&resp.body, 3);
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(2));
    for (i, line) in records.iter().enumerate() {
        let v = Json::parse(line).unwrap();
        if i < 2 {
            assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
            let err = v.get("error").unwrap();
            assert_eq!(
                err.get("code").and_then(Json::as_str),
                Some("execution_failed")
            );
        } else {
            assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        }
    }

    // A later sweep touching the poisoned key fails fast per-entry with
    // the quarantine code, while healthy entries keep answering.
    let resp = client
        .post_json("/v1/sweeps", &jobs(&["rodinia/kmeans", "rodinia/srad"]))
        .unwrap();
    assert_eq!(resp.status, 200);
    let (records, summary) = split_sweep_stream(&resp.body, 2);
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(1));
    let poisoned = Json::parse(&records[0]).unwrap();
    let err = poisoned.get("error").unwrap();
    assert_eq!(err.get("code").and_then(Json::as_str), Some("quarantined"));
    assert!(err
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("quarantined"));
    assert_eq!(
        Json::parse(&records[1])
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );

    handle.shutdown_and_join();
}

#[test]
fn deprecated_aliases_answer_identically_to_canonical_routes() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());
    let body = run_body("rodinia/kmeans");

    let canonical = client.post_json("/v1/runs", &body).unwrap();
    assert_eq!(canonical.status, 200);
    assert_eq!(canonical.header("deprecation"), None);
    let key = canonical.header("x-run-key").unwrap().to_string();

    let alias = client.post_json("/v1/run", &body).unwrap();
    assert_eq!(alias.status, canonical.status);
    assert_eq!(alias.body, canonical.body, "alias answers byte-identically");
    assert_eq!(alias.header("deprecation"), Some("true"));
    assert_eq!(
        alias.header("link"),
        Some("</v1/runs>; rel=\"successor-version\"")
    );

    let canonical = client.get(&format!("/v1/runs/{key}/trace")).unwrap();
    let alias = client.get(&format!("/v1/run/{key}/trace")).unwrap();
    assert_eq!(canonical.status, 200);
    assert_eq!(alias.status, 200);
    assert_eq!(alias.body, canonical.body);
    assert_eq!(canonical.header("deprecation"), None);
    assert_eq!(alias.header("deprecation"), Some("true"));
    assert_eq!(
        alias.header("link"),
        Some(format!("</v1/runs/{key}/trace>; rel=\"successor-version\"").as_str())
    );

    // The cached-report lookup is canonical-only: the alias points at it.
    let lookup = client.get(&format!("/v1/runs/{key}")).unwrap();
    assert_eq!(lookup.status, 200);
    let old = client.get(&format!("/v1/run/{key}")).unwrap();
    assert_eq!(old.status, 404);
    assert!(old
        .api_error()
        .unwrap()
        .message
        .contains(&format!("/v1/runs/{key}")));

    handle.shutdown_and_join();
}

/// A chunk size whose sum with the body so far overflows `usize` is
/// answered with the 413 envelope, not a dropped connection.
#[test]
fn overflowing_chunk_size_is_answered_with_the_413_envelope() {
    use std::io::{BufReader, Write};
    let handle = start(Engine::new().memory_cache_only());
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"POST /v1/runs HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
              1\r\na\r\nffffffffffffffff\r\n",
        )
        .unwrap();
    let resp = heteropipe_serve::client::read_response(&mut BufReader::new(&stream))
        .expect("a response, not a dropped connection");
    assert_eq!(resp.status, 413);
    assert_eq!(resp.api_error().unwrap().code, "payload_too_large");
    handle.shutdown_and_join();
}

#[test]
fn every_client_visible_error_is_the_json_envelope() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());

    let check = |resp: &heteropipe_serve::ClientResponse, status: u16, code: &str| {
        assert_eq!(resp.status, status);
        let err = resp.api_error().unwrap_or_else(|| {
            panic!(
                "{status} body is not the envelope: {}",
                String::from_utf8_lossy(&resp.body)
            )
        });
        assert_eq!(err.code, code);
        assert!(!err.message.is_empty());
        assert_eq!(
            Some(err.request_id.as_str()),
            resp.header("x-request-id"),
            "body and header agree on the correlation id"
        );
    };

    let resp = client.get("/nope").unwrap();
    check(&resp, 404, "not_found");
    let resp = client.get("/v1/runs").unwrap();
    check(&resp, 405, "method_not_allowed");
    assert_eq!(resp.header("allow"), Some("POST"));
    let resp = client.post_raw("/v1/runs", b"{not json".to_vec()).unwrap();
    check(&resp, 400, "bad_request");
    let resp = client
        .post_json(
            "/v1/runs",
            &Json::Obj(vec![("benchmark".into(), Json::str("no/such"))]),
        )
        .unwrap();
    check(&resp, 404, "not_found");

    // Malformed run keys are rejected early with a hint, including keys
    // smuggling extra path segments — not a silent fall-through to 404.
    let resp = client.get("/v1/runs/nothex/trace").unwrap();
    check(&resp, 400, "bad_request");
    assert!(resp.api_error().unwrap().message.contains("32 hex"));
    let resp = client.get("/v1/runs/a/b/trace").unwrap();
    check(&resp, 400, "bad_request");
    let resp = client.get(&format!("/v1/runs/{}", "g".repeat(32))).unwrap();
    check(&resp, 400, "bad_request");
    let missing = client.get(&format!("/v1/runs/{}", "0".repeat(32))).unwrap();
    check(&missing, 404, "not_found");

    // An oversized sweep is refused before any execution.
    let too_many: Vec<Json> = (0..513)
        .map(|_| Json::Obj(vec![("benchmark".into(), Json::str("rodinia/kmeans"))]))
        .collect();
    let resp = client
        .post_json(
            "/v1/sweeps",
            &Json::Obj(vec![("jobs".into(), Json::Arr(too_many))]),
        )
        .unwrap();
    check(&resp, 413, "payload_too_large");
    let resp = client
        .post_json(
            "/v1/sweeps",
            &Json::Obj(vec![("jobs".into(), Json::Arr(Vec::new()))]),
        )
        .unwrap();
    check(&resp, 400, "bad_request");

    // A catalogued-but-unrunnable benchmark answers 422 with its code.
    let catalog = client.get("/v1/benchmarks").unwrap().json().unwrap();
    let unrunnable = catalog
        .get("benchmarks")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .find(|b| b.get("runnable").and_then(Json::as_bool) == Some(false))
        .and_then(|b| b.get("name").and_then(Json::as_str))
        .map(str::to_owned);
    if let Some(name) = unrunnable {
        let resp = client
            .post_json(
                "/v1/runs",
                &Json::Obj(vec![("benchmark".into(), Json::str(name))]),
            )
            .unwrap();
        check(&resp, 422, "not_runnable");
    }

    handle.shutdown_and_join();
}

#[test]
fn experiment_endpoint_renders_tables() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());

    // Table 2 is static (the benchmark census): cheap and exact.
    let resp = client
        .post_json("/v1/experiments/table2", &Json::Obj(Vec::new()))
        .unwrap();
    assert_eq!(resp.status, 200);
    let v = resp.json().unwrap();
    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("table2"));
    let rendered = v.get("rendered").and_then(Json::as_str).unwrap();
    assert!(rendered.contains("Rodinia"), "census table lists suites");

    let resp = client
        .post_json("/v1/experiments/fig99", &Json::Obj(Vec::new()))
        .unwrap();
    assert_eq!(resp.status, 404, "unknown experiment name");

    handle.shutdown_and_join();
}

#[test]
fn experiments_resource_lists_and_describes_the_catalogue() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());

    // The index names every figure/table reproduction with enough
    // metadata to execute it, round-tripping through the in-tree codec.
    let resp = client.get("/v1/experiments").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let v = resp.json().expect("index is valid JSON");
    assert_eq!(v.get("total").and_then(Json::as_u64), Some(9));
    let list = v.get("experiments").and_then(Json::as_array).unwrap();
    assert_eq!(list.len(), 9);
    for entry in list {
        let id = entry.get("id").and_then(Json::as_str).expect("id");
        assert!(!entry
            .get("title")
            .and_then(Json::as_str)
            .expect("title")
            .is_empty());
        assert!(!entry
            .get("section")
            .and_then(Json::as_str)
            .expect("paper section")
            .is_empty());
        let knobs = entry.get("knobs").and_then(Json::as_array).unwrap();
        assert_eq!(knobs.len(), 1, "{id} takes the scale knob");
        assert_eq!(knobs[0].as_str(), Some("scale"));
        assert_eq!(
            entry.get("execute").and_then(Json::as_str),
            Some(format!("POST /v1/experiments/{id}").as_str())
        );
    }
    let ids: Vec<&str> = list
        .iter()
        .filter_map(|e| e.get("id").and_then(Json::as_str))
        .collect();
    assert_eq!(
        ids,
        ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2"]
    );

    // One experiment's metadata matches its index row.
    let resp = client.get("/v1/experiments/fig5").unwrap();
    assert_eq!(resp.status, 200);
    let meta = resp.json().unwrap();
    assert_eq!(meta.get("id").and_then(Json::as_str), Some("fig5"));
    assert_eq!(meta.get("section").and_then(Json::as_str), Some("IV-B"));
    let indexed = list
        .iter()
        .find(|e| e.get("id").and_then(Json::as_str) == Some("fig5"))
        .unwrap();
    assert_eq!(meta.dump(), indexed.dump(), "index row equals the resource");

    // Unknown ids 404 with the catalogue hinted; the collection itself
    // is read-only, and execution stays on the per-id POST.
    let resp = client.get("/v1/experiments/nope").unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.api_error().unwrap().message.contains("fig3"));
    let resp = client.post_json("/v1/experiments", &Json::Null).unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
    let resp = client
        .post_json("/v1/experiments/table2", &Json::Obj(Vec::new()))
        .unwrap();
    assert_eq!(resp.status, 200, "POST execution is unchanged");
    assert!(resp.json().unwrap().get("rendered").is_some());

    handle.shutdown_and_join();
}

/// The process-wide count of one profiler phase, read over the wire.
fn phase_count(client: &mut Client, phase: &str) -> u64 {
    let v = client.get("/v1/debug/profile").unwrap().json().unwrap();
    v.get("phases")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .find(|p| p.get("name").and_then(Json::as_str) == Some(phase))
        .and_then(|p| p.get("count").and_then(Json::as_u64))
        .unwrap_or(0)
}

#[test]
fn warm_report_reads_are_zero_copy_and_conditional() {
    // A disk cache is the only tier whose reads can decode, so this test
    // owns every `engine.cache_decode` increment in the process (all
    // other tests run memory-only engines).
    let dir = std::env::temp_dir().join(format!(
        "heteropipe-serve-test-zerocopy-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Populate the disk cache, then restart so the next read must come
    // from the `.hpr` record, not the warm in-memory report map.
    let handle = start(Engine::new().with_cache_dir(&dir));
    let mut client = Client::new(handle.addr().to_string());
    let resp = client
        .post_json("/v1/runs", &run_body("rodinia/kmeans"))
        .unwrap();
    assert_eq!(resp.status, 200);
    let key = resp.header("x-run-key").unwrap().to_string();
    handle.shutdown_and_join();

    let handle = start(Engine::new().with_cache_dir(&dir));
    let mut client = Client::new(handle.addr().to_string());
    let etag = format!("\"{key}\"");

    // Cold lookup decodes the record once and renders the report.
    let decodes_before = phase_count(&mut client, "engine.cache_decode");
    let cold = client.get(&format!("/v1/runs/{key}")).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("etag"), Some(etag.as_str()));
    assert_eq!(cold.header("x-run-key"), Some(key.as_str()));
    let decodes_cold = phase_count(&mut client, "engine.cache_decode");
    assert!(
        decodes_cold > decodes_before,
        "cold read decodes the record"
    );

    // Warm repeats serve the validated bytes without touching the
    // decoder, and the body is byte-identical to the decode path's.
    for _ in 0..3 {
        let warm = client.get(&format!("/v1/runs/{key}")).unwrap();
        assert_eq!(warm.status, 200);
        assert_eq!(warm.body, cold.body, "warm bytes match the decode path");
        assert_eq!(warm.header("etag"), Some(etag.as_str()));
    }
    assert_eq!(
        phase_count(&mut client, "engine.cache_decode"),
        decodes_cold,
        "warm repeats never re-decode"
    );

    // The run key doubles as a strong validator: a matching
    // `If-None-Match` short-circuits to an empty 304 that still names
    // the resource; weak and wildcard forms match, stale tags do not.
    for sent in [
        etag.clone(),
        format!("W/{etag}"),
        "*".to_string(),
        format!("\"{}\", {etag}", "0".repeat(32)),
    ] {
        let resp = client
            .get_with_headers(&format!("/v1/runs/{key}"), &[("If-None-Match", &sent)])
            .unwrap();
        assert_eq!(resp.status, 304, "validator {sent}");
        assert!(resp.body.is_empty());
        assert_eq!(resp.header("etag"), Some(etag.as_str()));
        assert_eq!(resp.header("x-run-key"), Some(key.as_str()));
    }
    let stale = format!("\"{}\"", "0".repeat(32));
    let resp = client
        .get_with_headers(&format!("/v1/runs/{key}"), &[("If-None-Match", &stale)])
        .unwrap();
    assert_eq!(resp.status, 200, "stale validator gets the full body");
    assert_eq!(resp.body, cold.body);

    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- durability, deadlines, and admission ------------------------------

fn temp_journal(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "heteropipe-serve-test-journal-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_durable(engine: Engine, journal_dir: &std::path::Path) -> ServerHandle {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        max_inflight: 32,
        ..ServerConfig::default()
    };
    let journal = heteropipe_engine::Journal::open(journal_dir).expect("open journal");
    api::serve_durable(cfg, Arc::new(engine), Arc::new(journal)).expect("bind durable server")
}

/// A server whose admission gate is hand-built instead of read from the
/// environment (the env var would race with parallel tests).
fn start_gated(engine: Engine, plan: &str) -> ServerHandle {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        max_inflight: 32,
        ..ServerConfig::default()
    };
    let api = Api::new(Arc::new(engine));
    api.attach_tenants(Arc::new(
        TenantGate::parse(plan).expect("tenant plan parses"),
    ));
    let server = Server::bind(cfg, api.clone()).expect("bind gated server");
    api.attach_stats(server.stats());
    api.attach_breaker(server.breaker());
    server.start()
}

fn sweep_of(benchmarks: &[&str]) -> Json {
    Json::Obj(vec![(
        "jobs".into(),
        Json::Arr(benchmarks.iter().map(|b| run_body(b)).collect()),
    )])
}

/// Per-job record lines of a sweep NDJSON body, sorted by `index` (the
/// sync stream is completion-ordered with a trailing timing summary;
/// `/records` is index-ordered without one).
fn sorted_records(body: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(body).expect("stream is UTF-8");
    let mut records: Vec<(u64, String)> = text
        .lines()
        .filter_map(|line| {
            let v = Json::parse(line)?;
            Some((v.get("index").and_then(Json::as_u64)?, line.to_string()))
        })
        .collect();
    records.sort_by_key(|&(i, _)| i);
    records.into_iter().map(|(_, l)| l).collect()
}

#[test]
fn async_sweep_lifecycle_reconstructs_the_sync_stream() {
    let journal_dir = temp_journal("lifecycle");
    let handle = start_durable(Engine::new().memory_cache_only(), &journal_dir);
    let mut client = Client::new(handle.addr().to_string());
    // Three entries with an in-batch duplicate: records are per entry,
    // so the duplicate owns its own index in both streams.
    let body = sweep_of(&["rodinia/kmeans", "rodinia/srad", "rodinia/kmeans"]);

    let sync = client.post_json("/v1/sweeps", &body).unwrap();
    assert_eq!(sync.status, 200);
    let reference = sorted_records(&sync.body);
    assert_eq!(reference.len(), 3);

    let accepted = client.post_json("/v1/sweeps?async=1", &body).unwrap();
    assert_eq!(accepted.status, 202, "async submit is accepted");
    let v = accepted.json().unwrap();
    let key = v.get("key").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("sweep"));
    assert_eq!(
        v.get("status_url").and_then(Json::as_str),
        Some(format!("/v1/sweeps/{key}").as_str())
    );
    assert_eq!(accepted.header("x-sweep-key"), Some(key.as_str()));

    // Poll to completion; cache hits make this settle in a few rounds.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        let resp = client.get(&format!("/v1/sweeps/{key}")).unwrap();
        assert_eq!(resp.status, 200);
        let v = resp.json().unwrap();
        match v.get("state").and_then(Json::as_str) {
            Some("done") => break v,
            Some("failed") => panic!("async sweep failed: {v:?}"),
            _ => {
                assert!(std::time::Instant::now() < deadline, "sweep never settled");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
    };
    assert_eq!(status.get("jobs_total").and_then(Json::as_u64), Some(3));
    assert_eq!(status.get("records_done").and_then(Json::as_u64), Some(3));
    assert_eq!(status.get("records_failed").and_then(Json::as_u64), Some(0));

    // The journaled records reconstruct the synchronous stream exactly.
    let records = client.get(&format!("/v1/sweeps/{key}/records")).unwrap();
    assert_eq!(records.status, 200);
    assert_eq!(records.header("content-type"), Some("application/x-ndjson"));
    assert_eq!(sorted_records(&records.body), reference);

    // from_index resumes a partial read; a bad value is a 400.
    let tail = client
        .get(&format!("/v1/sweeps/{key}/records?from_index=2"))
        .unwrap();
    assert_eq!(tail.status, 200);
    assert_eq!(sorted_records(&tail.body), reference[2..].to_vec());
    let bad = client
        .get(&format!("/v1/sweeps/{key}/records?from_index=x"))
        .unwrap();
    assert_eq!(bad.status, 400);

    // Resubmitting a sealed sweep adopts the finished job instead of
    // re-executing: still a 202, already done.
    let again = client.post_json("/v1/sweeps?async=1", &body).unwrap();
    assert_eq!(again.status, 202);
    assert_eq!(
        again.json().unwrap().get("state").and_then(Json::as_str),
        Some("done")
    );

    // Unknown keys answer 404 on both resources.
    let nope = "00000000000000000000000000000000";
    assert_eq!(
        client.get(&format!("/v1/sweeps/{nope}")).unwrap().status,
        404
    );
    assert_eq!(
        client
            .get(&format!("/v1/sweeps/{nope}/records"))
            .unwrap()
            .status,
        404
    );

    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&journal_dir);
}

#[test]
fn async_submit_without_a_journal_is_refused() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());
    let resp = client
        .post_json("/v1/sweeps?async=1", &sweep_of(&["rodinia/kmeans"]))
        .unwrap();
    assert_eq!(resp.status, 503, "no journal, no durable accept");
    let v = resp.json().unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("async_unavailable")
    );
    handle.shutdown_and_join();
}

#[test]
fn tenant_gate_throttles_with_envelope_and_metrics() {
    let handle = start_gated(Engine::new().memory_cache_only(), "alice=1:2;*=1:1");
    let mut client = Client::new(handle.addr().to_string());
    let alice: &[(&str, &str)] = &[("X-Api-Key", "alice")];

    // Burst of 2, then the bucket is empty.
    for _ in 0..2 {
        assert_eq!(
            client
                .get_with_headers("/v1/benchmarks", alice)
                .unwrap()
                .status,
            200
        );
    }
    let throttled = client.get_with_headers("/v1/benchmarks", alice).unwrap();
    assert_eq!(throttled.status, 429);
    let retry_after: u64 = throttled
        .header("retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .unwrap();
    assert!(retry_after >= 1);
    let v = throttled.json().unwrap();
    let err = v.get("error").unwrap();
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some("tenant_throttled")
    );
    assert_eq!(
        err.get("retry_after_s").and_then(Json::as_u64),
        Some(retry_after)
    );

    // Unknown keys share the wildcard bucket; keyless and exempt
    // requests always admit.
    let mallory: &[(&str, &str)] = &[("X-Api-Key", "mallory")];
    assert_eq!(
        client
            .get_with_headers("/v1/benchmarks", mallory)
            .unwrap()
            .status,
        200
    );
    assert_eq!(
        client
            .get_with_headers("/v1/benchmarks", mallory)
            .unwrap()
            .status,
        429
    );
    assert_eq!(client.get("/v1/benchmarks").unwrap().status, 200);
    assert_eq!(
        client.get_with_headers("/healthz", alice).unwrap().status,
        200
    );

    // Both metric formats expose the per-tenant tallies.
    let m = client.get("/metrics").unwrap().json().unwrap();
    let tenants = m.get("tenants").and_then(Json::as_array).unwrap();
    let alice_row = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(Json::as_str) == Some("alice"))
        .expect("alice bucket exported");
    assert_eq!(alice_row.get("requests").and_then(Json::as_u64), Some(2));
    assert_eq!(alice_row.get("throttled").and_then(Json::as_u64), Some(1));
    let prom = client.get("/metrics?format=prometheus").unwrap();
    let text = String::from_utf8(prom.body).unwrap();
    assert!(
        text.contains("heteropipe_tenant_throttled_total{tenant=\"alice\"} 1"),
        "prometheus view carries the throttle counter"
    );

    handle.shutdown_and_join();
}

#[test]
fn deadline_header_refusals_and_validation() {
    let handle = start(Engine::new().memory_cache_only());
    let mut client = Client::new(handle.addr().to_string());

    // A spent budget is refused with the standard envelope before any
    // execution happens.
    let spent = client
        .get_with_headers("/v1/benchmarks", &[("X-Deadline-Ms", "0")])
        .unwrap();
    assert_eq!(spent.status, 504);
    let v = spent.json().unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    assert!(spent.header("retry-after").is_some());

    // A garbage header is the caller's bug, not a timeout.
    let bad = client
        .get_with_headers("/v1/benchmarks", &[("X-Deadline-Ms", "soon")])
        .unwrap();
    assert_eq!(bad.status, 400);

    // A generous budget sails through; the refusal shows up in both
    // metric formats.
    let ok = client
        .get_with_headers("/v1/benchmarks", &[("X-Deadline-Ms", "60000")])
        .unwrap();
    assert_eq!(ok.status, 200);
    let m = client.get("/metrics").unwrap().json().unwrap();
    assert_eq!(m.get("deadline_exceeded").and_then(Json::as_u64), Some(1));
    let prom = client.get("/metrics?format=prometheus").unwrap();
    let text = String::from_utf8(prom.body).unwrap();
    assert!(text.contains("heteropipe_deadline_exceeded_total 1"));

    handle.shutdown_and_join();
}

#[test]
fn async_submit_of_a_maximum_size_sweep_answers_before_execution() {
    let journal_dir = temp_journal("full-size");
    let handle = start_durable(Engine::new().memory_cache_only(), &journal_dir);
    let mut client =
        Client::new(handle.addr().to_string()).with_timeout(std::time::Duration::from_secs(60));

    // The sweep cap (512 entries) built from four unique jobs: in-batch
    // dedup keeps execution cheap while the journal still carries one
    // record per entry.
    let benches = [
        "rodinia/kmeans",
        "rodinia/srad",
        "rodinia/bfs",
        "rodinia/nw",
    ];
    let jobs: Vec<Json> = (0..512)
        .map(|i| run_body(benches[i % benches.len()]))
        .collect();
    let body = Json::Obj(vec![("jobs".into(), Json::Arr(jobs))]);

    let sync = client.post_json("/v1/sweeps", &body).unwrap();
    assert_eq!(sync.status, 200);
    let reference = sorted_records(&sync.body);
    assert_eq!(reference.len(), 512);

    // The 202 must come back as soon as the intent is durable — never
    // after execution. 250 ms is generous headroom over the <50 ms
    // target for a loaded CI machine.
    let submitted = std::time::Instant::now();
    let accepted = client.post_json("/v1/sweeps?async=1", &body).unwrap();
    let latency = submitted.elapsed();
    assert_eq!(accepted.status, 202);
    assert!(
        latency < std::time::Duration::from_millis(250),
        "512-job async submit must not wait for execution (took {latency:?})"
    );
    let key = accepted
        .json()
        .and_then(|v| v.get("key").and_then(Json::as_str).map(str::to_string))
        .unwrap();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let v = client
            .get(&format!("/v1/sweeps/{key}"))
            .unwrap()
            .json()
            .unwrap();
        match v.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed") => panic!("async sweep failed: {v:?}"),
            _ => {
                assert!(std::time::Instant::now() < deadline, "sweep never settled");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
    let records = client.get(&format!("/v1/sweeps/{key}/records")).unwrap();
    assert_eq!(records.status, 200);
    assert_eq!(sorted_records(&records.body), reference);

    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&journal_dir);
}
