//! `perf`: the repo's performance checkpoint, one JSON file per day.
//!
//! Measures five layers end to end — raw simulation wall time per
//! benchmark, engine throughput cold vs warm, serving-path latency under
//! an in-process load generator, cluster-vs-single-node cold sweep
//! throughput, and the always-on phase profiler's overhead on the warm
//! engine path — and writes `BENCH_<date>.json` in the current directory.
//! When an earlier `BENCH_*.json` checkpoint exists it compares the new
//! numbers against the latest one — read *before* today's file is
//! overwritten, so a same-date rerun still has its baseline — and fails
//! on a regression beyond a generous 4x tolerance (the files travel
//! between machines; the check catches collapses, not noise).
//! `HETEROPIPE_PERF_NO_COMPARE=1` skips the comparison entirely;
//! `HETEROPIPE_PERF_STRICT_PCT=10` (CI) additionally fails hard when
//! warm engine throughput or the median sim wall time regresses by more
//! than that percentage against the baseline.
//!
//! ```text
//! cargo run --release -p heteropipe-bench --bin perf -- --scale 0.05
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use heteropipe_cluster::{serve_cluster, ClusterConfig};
use heteropipe_engine::Engine;
use heteropipe_obs::log::Level;
use heteropipe_serve::api::{self, parse_job_spec};
use heteropipe_serve::server::ServerConfig;
use heteropipe_serve::{Client, Json};
use heteropipe_sim::Histogram;

/// The benchmark slice every layer is measured over: small, varied
/// pipeline shapes (copy-bound, GPU-bound, CPU-bound) so the checkpoint
/// tracks more than one corner of the simulator.
const BENCHMARKS: [&str; 5] = [
    "rodinia/kmeans",
    "rodinia/hotspot",
    "rodinia/bfs",
    "rodinia/backprop",
    "rodinia/nw",
];

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
        Json::Arr(BENCHMARKS.iter().map(|b| job(b, scale)).collect()),
    )])
}

/// Today as `YYYY-MM-DD` (UTC), via the days-to-civil conversion.
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("heteropipe-perf-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        max_inflight: 64,
        ..ServerConfig::default()
    }
}

/// Layer 1: raw simulation wall time per benchmark (no cache in play).
fn sim_times(scale: f64) -> Vec<(String, f64)> {
    let engine = Engine::new().without_cache();
    BENCHMARKS
        .iter()
        .map(|b| {
            let entry = job(b, scale);
            let owned = parse_job_spec(&entry).expect("catalogue benchmark");
            let start = Instant::now();
            engine
                .try_execute(&owned.spec())
                .unwrap_or_else(|e| panic!("{b} failed: {e:?}"));
            ((*b).to_string(), start.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Layer 2: engine throughput over a fresh disk cache — first pass
/// executes (cold), then warm passes are answered by the cache. One
/// warm pass over five jobs finishes in tens of microseconds, which is
/// below the noise floor of a wall-clock measurement; warm passes
/// therefore repeat until a quarter second has elapsed and the rate is
/// taken over all of them, making the number stable enough for the
/// strict CI gate to compare across runs.
fn engine_throughput(scale: f64) -> (f64, f64, u64) {
    let dir = temp_dir("engine");
    let engine = Engine::new().with_cache_dir(&dir);
    let specs: Vec<_> = BENCHMARKS
        .iter()
        .map(|b| parse_job_spec(&job(b, scale)).expect("catalogue benchmark"))
        .collect();
    let pass = || {
        let start = Instant::now();
        for owned in &specs {
            engine
                .try_execute(&owned.spec())
                .expect("perf jobs execute");
        }
        specs.len() as f64 / start.elapsed().as_secs_f64()
    };
    let cold = pass();
    let warm_start = Instant::now();
    let mut warm_jobs = 0u64;
    while warm_start.elapsed().as_millis() < 250 {
        for owned in &specs {
            engine
                .try_execute(&owned.spec())
                .expect("perf jobs execute");
        }
        warm_jobs += specs.len() as u64;
    }
    let warm = warm_jobs as f64 / warm_start.elapsed().as_secs_f64();
    // A fresh engine over the same directory exercises the zero-copy
    // tier cold: every record is read and revalidated
    // (`engine.cache_validate`), never decoded — the path a restarted
    // server's `GET /v1/runs/{key}` takes.
    let reread = Engine::new().with_cache_dir(&dir);
    for owned in &specs {
        let key = heteropipe_engine::run_key(&owned.spec());
        assert!(
            reread.cached_bytes(key).is_some(),
            "zero-copy reread of a record the warm pass just served"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    (cold, warm, specs.len() as u64)
}

/// Layer 2b: the always-on phase profiler's cost — warm-cache engine
/// throughput with `obs::profile` enabled vs disabled
/// ([`heteropipe_obs::profile::set_enabled`]). The target is under 3%
/// overhead; the report is informational and never fatal, because at
/// checkpoint scales run-to-run noise alone can exceed 3%.
fn profiler_overhead(scale: f64) -> Json {
    const PASSES: usize = 20;
    let dir = temp_dir("profiler");
    let engine = Engine::new().with_cache_dir(&dir);
    let specs: Vec<_> = BENCHMARKS
        .iter()
        .map(|b| parse_job_spec(&job(b, scale)).expect("catalogue benchmark"))
        .collect();
    let pass = || {
        let start = Instant::now();
        for _ in 0..PASSES {
            for owned in &specs {
                engine
                    .try_execute(&owned.spec())
                    .expect("perf jobs execute");
            }
        }
        (PASSES * specs.len()) as f64 / start.elapsed().as_secs_f64()
    };
    pass(); // first pass executes; everything after is warm cache hits
    heteropipe_obs::profile::set_enabled(true);
    let on = pass();
    heteropipe_obs::profile::set_enabled(false);
    let off = pass();
    heteropipe_obs::profile::set_enabled(true);
    let _ = std::fs::remove_dir_all(&dir);
    let overhead_pct = (1.0 - on / off) * 100.0;
    if overhead_pct > 3.0 {
        println!(
            "perf: NOTICE profiler overhead {overhead_pct:.1}% is above the 3% target \
             (informational; warm-path noise at this scale can exceed it)"
        );
        heteropipe_obs::log::warn(
            "perf",
            "profiler_overhead_above_target",
            &[("overhead_pct", overhead_pct.into())],
        );
    }
    Json::Obj(vec![
        ("warm_jobs_per_s_profiled".into(), Json::F64(on)),
        ("warm_jobs_per_s_unprofiled".into(), Json::F64(off)),
        ("overhead_pct".into(), Json::F64(overhead_pct)),
    ])
}

/// Layer 3: serving-path latency — an in-process server at steady state
/// (everything cache-hot after warmup) under a small client fleet. The
/// mix includes a warm `GET /v1/runs/{key}`, which rides the zero-copy
/// fast path (validated cached bytes, no decode).
fn serve_latency(scale: f64, threads: usize, requests: usize) -> Json {
    let handle = api::serve(server_cfg(), Arc::new(Engine::new().memory_cache_only()))
        .expect("bind perf server");
    let target = handle.addr().to_string();
    let mut mix: Vec<(&str, String, Option<Json>)> = vec![
        ("GET", "/healthz".into(), None),
        ("POST", "/v1/runs".into(), Some(job(BENCHMARKS[0], scale))),
        ("GET", "/metrics".into(), None),
        ("POST", "/v1/runs".into(), Some(job(BENCHMARKS[1], scale))),
    ];
    let mut warm = Client::new(target.clone());
    let mut report_path = None;
    for (method, path, body) in &mix {
        let resp = match (*method, body) {
            ("POST", Some(body)) => warm.post_json(path, body),
            _ => warm.get(path),
        }
        .expect("warmup request");
        assert_eq!(resp.status, 200, "warmup {method} {path}");
        if report_path.is_none() {
            if let Some(key) = resp.header("x-run-key") {
                report_path = Some(format!("/v1/runs/{key}"));
            }
        }
    }
    let report_path = report_path.expect("run key header on POST /v1/runs");
    assert_eq!(
        warm.get(&report_path).expect("warmup report read").status,
        200
    );
    mix.push(("GET", report_path, None));
    drop(warm);

    let start = Instant::now();
    let per_thread: Vec<Histogram> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let target = target.clone();
                let mix = &mix;
                s.spawn(move || {
                    let mut lat = Histogram::new();
                    let mut client = Client::new(target);
                    for i in 0..requests {
                        let (method, path, body) = &mix[(t + i) % mix.len()];
                        let sent = Instant::now();
                        let ok = match (*method, body) {
                            ("POST", Some(body)) => client.post_json(path, body),
                            _ => client.get(path),
                        }
                        .map(|r| r.status == 200)
                        .unwrap_or(false);
                        assert!(ok, "load request {method} {path} failed");
                        lat.record(sent.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();
    handle.shutdown_and_join();

    let mut lat = Histogram::new();
    for h in &per_thread {
        lat.merge(h);
    }
    Json::Obj(vec![
        ("requests".into(), Json::U64(lat.count())),
        (
            "req_per_s".into(),
            Json::F64(lat.count() as f64 / elapsed.as_secs_f64()),
        ),
        ("p50_us".into(), Json::U64(lat.percentile(0.50))),
        ("p90_us".into(), Json::U64(lat.percentile(0.90))),
        ("p99_us".into(), Json::U64(lat.percentile(0.99))),
    ])
}

/// Layer 4: the same cold sweep through one node and through a
/// 2-worker cluster (all caches fresh), as jobs/s.
fn sweep_throughput(scale: f64) -> Json {
    let body = sweep_body(scale);
    let jobs = BENCHMARKS.len() as f64;

    let dir_s = temp_dir("sweep-single");
    let single = api::serve(
        server_cfg(),
        Arc::new(Engine::new().with_jobs(2).with_cache_dir(&dir_s)),
    )
    .expect("bind single node");
    let mut client = Client::new(single.addr().to_string());
    let start = Instant::now();
    let resp = client.post_json("/v1/sweeps", &body).expect("single sweep");
    assert_eq!(resp.status, 200);
    let single_jps = jobs / start.elapsed().as_secs_f64();
    single.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_s);

    let (dir_a, dir_b) = (temp_dir("sweep-a"), temp_dir("sweep-b"));
    let wa = api::serve(
        server_cfg(),
        Arc::new(Engine::new().with_jobs(2).with_cache_dir(&dir_a)),
    )
    .expect("bind worker a");
    let wb = api::serve(
        server_cfg(),
        Arc::new(Engine::new().with_jobs(2).with_cache_dir(&dir_b)),
    )
    .expect("bind worker b");
    let coordinator = serve_cluster(
        server_cfg(),
        ClusterConfig {
            workers: vec![wa.addr().to_string(), wb.addr().to_string()],
            ..ClusterConfig::default()
        },
    )
    .expect("bind coordinator");
    let mut client = Client::new(coordinator.addr().to_string());
    let start = Instant::now();
    let resp = client
        .post_json("/v1/sweeps", &body)
        .expect("cluster sweep");
    assert_eq!(resp.status, 200);
    let cluster_jps = jobs / start.elapsed().as_secs_f64();
    coordinator.shutdown_and_join();
    wa.shutdown_and_join();
    wb.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);

    Json::Obj(vec![
        ("workers".into(), Json::U64(2)),
        ("sweep_jobs".into(), Json::U64(jobs as u64)),
        ("single_node_jobs_per_s".into(), Json::F64(single_jps)),
        ("cluster_jobs_per_s".into(), Json::F64(cluster_jps)),
        ("speedup".into(), Json::F64(cluster_jps / single_jps)),
    ])
}

fn get_f64(v: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for p in path {
        cur = cur.get(p)?;
    }
    cur.as_f64()
}

/// The median of a checkpoint's per-benchmark sim wall times.
fn sim_median_ms(doc: &Json) -> Option<f64> {
    let list = doc.get("sim")?.get("benchmarks").and_then(Json::as_array)?;
    let mut xs: Vec<f64> = list
        .iter()
        .filter_map(|b| b.get("wall_ms").and_then(Json::as_f64))
        .collect();
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    Some(if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    })
}

/// Every retained checkpoint, parsed and name-sorted (oldest first).
/// Called *before* the fresh checkpoint is written: a file for today is
/// a valid baseline for a same-date rerun and must be read before it is
/// overwritten.
fn load_checkpoints() -> Vec<(String, Json)> {
    let mut names: Vec<String> = std::fs::read_dir(".")
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| {
                    n.len() == "BENCH_0000-00-00.json".len()
                        && n.starts_with("BENCH_")
                        && n.ends_with(".json")
                })
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
        .into_iter()
        .filter_map(|name| {
            let doc = Json::parse(&std::fs::read_to_string(&name).ok()?)?;
            Some((name, doc))
        })
        .collect()
}

/// Compares the fresh checkpoint against the latest earlier one. Only
/// collapses beyond `TOLERANCE`x fail by default: these files may come
/// from different machines, so the check is a tripwire, not a benchmark.
/// Under `HETEROPIPE_PERF_STRICT_PCT=<pct>` (set by ci.sh, where the
/// baseline comes from the same machine) warm engine throughput and the
/// median sim wall time must additionally stay within `<pct>`% of the
/// baseline — a hard failure, not a notice.
fn compare(current: &Json, date: &str, checkpoints: &[(String, Json)]) {
    const TOLERANCE: f64 = 4.0;
    let Some((latest, old)) = checkpoints.last() else {
        println!("perf: no earlier checkpoint to compare against");
        return;
    };
    println!("perf: comparing against {latest} ({TOLERANCE}x tolerance)");
    // Higher-is-better rates, and the latency tail where lower is better.
    let rates = [
        ["engine", "warm_jobs_per_s"],
        ["engine", "cold_jobs_per_s"],
        ["serve", "req_per_s"],
        ["cluster", "cluster_jobs_per_s"],
    ];
    for path in &rates {
        let (Some(was), Some(now)) = (get_f64(old, path), get_f64(current, path)) else {
            continue;
        };
        println!("  {}: {was:.1} -> {now:.1}", path.join("."));
        assert!(
            now * TOLERANCE >= was,
            "{} collapsed: {was:.1} -> {now:.1}",
            path.join(".")
        );
    }
    if let (Some(was), Some(now)) = (
        get_f64(old, &["serve", "p99_us"]),
        get_f64(current, &["serve", "p99_us"]),
    ) {
        println!("  serve.p99_us: {was:.0} -> {now:.0}");
        assert!(
            now <= was * TOLERANCE,
            "serve.p99_us collapsed: {was:.0} -> {now:.0}"
        );
    }
    // Cluster speedup history across every retained checkpoint (oldest
    // first, current run last): the tripwire above only sees the latest
    // file, but a slow drift below 1.0x shows up here.
    let mut history: Vec<String> = checkpoints
        .iter()
        .filter(|(name, _)| name.as_str() != format!("BENCH_{date}.json"))
        .filter_map(|(name, doc)| {
            let s = get_f64(doc, &["cluster", "speedup"])?;
            let when = name.trim_start_matches("BENCH_").trim_end_matches(".json");
            Some(format!("{when}={s:.2}x"))
        })
        .collect();
    if let Some(now) = get_f64(current, &["cluster", "speedup"]) {
        history.push(format!("{date}={now:.2}x"));
    }
    println!("  cluster.speedup history: {}", history.join(" "));

    // The strict gate: the tentpole's win must not erode. Anything past
    // the configured percentage on the two headline metrics is fatal.
    let strict_pct = std::env::var("HETEROPIPE_PERF_STRICT_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    if let Some(pct) = strict_pct {
        println!("perf: strict gate vs {latest} ({pct}% budget)");
        if let (Some(was), Some(now)) = (
            get_f64(old, &["engine", "warm_jobs_per_s"]),
            get_f64(current, &["engine", "warm_jobs_per_s"]),
        ) {
            println!("  engine.warm_jobs_per_s: {was:.1} -> {now:.1}");
            assert!(
                now >= was * (1.0 - pct / 100.0),
                "engine.warm_jobs_per_s regressed more than {pct}%: {was:.1} -> {now:.1}"
            );
        }
        if let (Some(was), Some(now)) = (sim_median_ms(old), sim_median_ms(current)) {
            println!("  sim median wall_ms: {was:.2} -> {now:.2}");
            assert!(
                now <= was * (1.0 + pct / 100.0),
                "sim median wall_ms regressed more than {pct}%: {was:.2} -> {now:.2}"
            );
        }
    }
}

fn main() {
    heteropipe_obs::log::init_from_env_or(Level::Warn);
    let args = heteropipe_bench::HarnessArgs::parse();
    let scale = args.scale.factor();
    let threads = args.threads.unwrap_or(4);
    let requests = args.requests.unwrap_or(100);
    let date = today();

    println!("perf: sim wall times (scale {scale})");
    let sims = sim_times(scale);
    for (name, ms) in &sims {
        println!("  {name}: {ms:.1} ms");
    }
    println!("perf: engine throughput");
    let (cold, warm, jobs) = engine_throughput(scale);
    println!("  cold {cold:.2} jobs/s, warm {warm:.1} jobs/s over {jobs} jobs");
    println!("perf: serving path ({threads} threads x {requests} requests)");
    let serve = serve_latency(scale, threads, requests);
    println!("  {}", serve.dump());
    println!("perf: cold sweep, single node vs 2-worker cluster");
    let cluster = sweep_throughput(scale);
    println!("  {}", cluster.dump());
    if let Some(speedup) = cluster.get("speedup").and_then(Json::as_f64) {
        if speedup < 1.0 {
            println!(
                "perf: NOTICE cluster sweep ran at {speedup:.2}x single-node throughput — \
                 coordination overhead dominates at this job count (docs/observability.md)"
            );
            heteropipe_obs::log::warn(
                "perf",
                "cluster_slower_than_single_node",
                &[("speedup", speedup.into())],
            );
        }
    }
    println!("perf: profiler overhead (enabled vs disabled, warm engine)");
    let profiler = profiler_overhead(scale);
    println!("  {}", profiler.dump());

    let doc = Json::Obj(vec![
        ("schema".into(), Json::U64(1)),
        ("date".into(), Json::str(date.clone())),
        ("scale".into(), Json::F64(scale)),
        (
            "sim".into(),
            Json::Obj(vec![(
                "benchmarks".into(),
                Json::Arr(
                    sims.iter()
                        .map(|(name, ms)| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(name.clone())),
                                ("wall_ms".into(), Json::F64(*ms)),
                            ])
                        })
                        .collect(),
                ),
            )]),
        ),
        (
            "engine".into(),
            Json::Obj(vec![
                ("jobs".into(), Json::U64(jobs)),
                ("cold_jobs_per_s".into(), Json::F64(cold)),
                ("warm_jobs_per_s".into(), Json::F64(warm)),
            ]),
        ),
        ("serve".into(), serve),
        ("cluster".into(), cluster),
        ("profiler".into(), profiler),
        ("hot_phases".into(), hot_phases()),
    ]);
    // Read every retained checkpoint before the write below clobbers a
    // same-date predecessor: it is the comparison baseline.
    let checkpoints = load_checkpoints();
    let path = format!("BENCH_{date}.json");
    std::fs::write(&path, format!("{}\n", doc.dump())).expect("write checkpoint");
    println!("perf: wrote {path}");

    if std::env::var("HETEROPIPE_PERF_NO_COMPARE").map_or(true, |v| v.is_empty() || v == "0") {
        compare(&doc, &date, &checkpoints);
    } else {
        println!("perf: comparison skipped (HETEROPIPE_PERF_NO_COMPARE)");
    }
}

/// Process-wide counts for the hot-path phases the tentpole optimized:
/// the simulator's next-completion scans and the engine's cache fast path
/// (probe / zero-copy validate / full decode / execute). Counts cover
/// the whole perf run; the interesting signal is the ratio — warm reads
/// should validate, not decode.
fn hot_phases() -> Json {
    const HOT: [&str; 5] = [
        "sim.next_completion",
        "engine.cache_probe",
        "engine.cache_validate",
        "engine.cache_decode",
        "engine.execute",
    ];
    let snap = heteropipe_obs::profile::snapshot();
    Json::Obj(
        HOT.iter()
            .filter_map(|name| {
                let p = snap.iter().find(|p| p.name == *name)?;
                Some((
                    (*name).to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::U64(p.count)),
                        ("mean_ns".into(), Json::F64(p.mean_ns())),
                    ]),
                ))
            })
            .collect(),
    )
}
