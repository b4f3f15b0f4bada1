//! `cluster_sweep`: `serve_cluster` over two `api::serve` workers, all on
//! the shipped `ServerConfig`/`ClusterConfig` defaults; each worker engine
//! has its own fresh disk cache and one job thread. One connection posts a
//! seeded 64-job cold sweep at scale 0.05, reads every key back through
//! the coordinator in several passes, then repeats the sweep warm. It is
//! the only workload that reaches `cluster`, and the one where cache writes
//! (executions on the workers) and reads (peer-cache probes of
//! just-written entries) share a session.

use std::sync::Arc;
use std::time::Instant;

use heteropipe_cluster::{serve_cluster, ClusterConfig, WorkerRing};
use heteropipe_engine::{run_key, Engine, RunKey};
use heteropipe_serve::api::{self, parse_job_spec, OwnedJobSpec};
use heteropipe_serve::{Client, ClientResponse, Json, ServerHandle};

use crate::counts::SimCounts;
use crate::gen;
use crate::serve_warm::server_config;
use crate::span::Tracer;
use crate::stats::{batched, fast_tail, median, percentile};
use crate::sys::{self, OneCpu, WorkDir};
use crate::{note, Args, Report};

/// A set-up (inputs plus a fresh cluster) takes a few milliseconds, so one
/// `setup_s` sample is the mean of `SETUP_BATCH` consecutive set-ups;
/// `SETUP_SAMPLES` samples are taken before and after each session and
/// `setup_s` is their median. One untimed batch at the start lets lazy
/// statics and the allocator settle.
const SETUP_BATCH: usize = 8;
const SETUP_SAMPLES: usize = 4;
/// How long a session reads every key back, in passes over the keys,
/// between its cold and its warm sweep: for a time (the measured run), or
/// for a number of passes (to repeat a session's reads exactly). The
/// measured run reads for half of `--seconds`, about 1,000 passes at 30 s.
/// Read percentiles are taken per pass (about 13 ms), then the fast tail
/// over passes (see `stats::fast_tail`): over six runs its p50 spread 0.02
/// (IQR ÷ median) where the p50 of all reads spread 0.09.
#[derive(Clone, Copy)]
enum Reads {
    For(f64),
    Passes(usize),
}

/// The inputs of one run: the sweep body and each job's spec and key.
struct Inputs {
    body: Vec<u8>,
    jobs: Vec<Json>,
    specs: Vec<OwnedJobSpec>,
    keys: Vec<RunKey>,
}

fn inputs(seed: u64) -> Inputs {
    let jobs = gen::cluster_jobs(seed);
    let specs: Vec<OwnedJobSpec> = jobs
        .iter()
        .map(|j| parse_job_spec(&j.to_json()).expect("generated jobs are valid specs"))
        .collect();
    let keys = specs.iter().map(|s| run_key(&s.spec())).collect();
    Inputs {
        body: gen::sweep_body(&jobs).dump().into_bytes(),
        jobs: jobs.iter().map(gen::Job::to_json).collect(),
        specs,
        keys,
    }
}

/// Serve workers, each an engine with one job thread over a fresh cache.
struct Workers {
    engines: Vec<Arc<Engine>>,
    servers: Vec<ServerHandle>,
}

impl Workers {
    /// `n` workers on fresh caches.
    fn start(n: usize, work: &WorkDir) -> Workers {
        let engines: Vec<Arc<Engine>> = (0..n)
            .map(|_| {
                Arc::new(
                    Engine::new()
                        .with_jobs(1)
                        .with_cache_dir(work.fresh("worker")),
                )
            })
            .collect();
        let servers = engines
            .iter()
            .map(|e| api::serve(server_config(), Arc::clone(e)).expect("bind a worker"))
            .collect();
        Workers { engines, servers }
    }

    fn addrs(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr().to_string()).collect()
    }

    fn stop(self) {
        for s in &self.servers {
            s.shutdown_and_join();
        }
    }
}

/// A coordinator over two fresh workers.
struct Cluster {
    workers: Workers,
    coordinator: ServerHandle,
}

impl Cluster {
    fn start(work: &WorkDir) -> Cluster {
        let workers = Workers::start(2, work);
        let coordinator = serve_cluster(
            server_config(),
            ClusterConfig {
                workers: workers.addrs(),
                ..ClusterConfig::default()
            },
        )
        .expect("bind the coordinator");
        Cluster {
            workers,
            coordinator,
        }
    }

    fn client(&self) -> Client {
        Client::new(self.coordinator.addr().to_string())
    }

    /// Stops the coordinator first: dropping its connection pool lets the
    /// workers' connection threads see end-of-stream instead of waiting out
    /// their read timeout.
    fn stop(self) {
        self.coordinator.shutdown_and_join();
        drop(self.coordinator);
        self.workers.stop();
    }
}

/// The record lines of a sweep stream in job-index order, without its
/// summary line. A single node streams records in completion order.
fn records(body: &[u8]) -> Vec<String> {
    let index = |l: &str| -> u64 {
        l.strip_prefix("{\"index\":")
            .and_then(|r| r.split(',').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(u64::MAX)
    };
    let mut recs: Vec<String> = String::from_utf8_lossy(body)
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with("{\"sweep\":"))
        .map(str::to_string)
        .collect();
    recs.sort_by_key(|l| index(l));
    recs
}

/// A field of the trailing `{"sweep":{...}}` summary line.
fn summary_field(body: &[u8], field: &str) -> Option<u64> {
    let text = String::from_utf8_lossy(body);
    let line = text.lines().find(|l| l.starts_with("{\"sweep\":"))?;
    Json::parse(line)?.get("sweep")?.get(field)?.as_u64()
}

/// One sweep's response checked: 200, one ok record per job, and the
/// expected number of executions.
fn check_sweep(
    resp: &std::io::Result<ClientResponse>,
    jobs: usize,
    executed: Option<u64>,
    what: &str,
    report: &mut Report,
) -> Vec<String> {
    let Ok(r) = resp else {
        report.check(false, || format!("{what}: {resp:?}"));
        return Vec::new();
    };
    let recs = records(&r.body);
    let ok_records = recs
        .iter()
        .filter(|l| l.contains("\"status\":\"ok\""))
        .count();
    let ran = summary_field(&r.body, "executed");
    report.check(
        r.status == 200 && ok_records == jobs && (executed.is_none() || ran == executed),
        || {
            format!(
                "{what}: status {}, {ok_records}/{jobs} ok records, executed {ran:?} (want {executed:?})",
                r.status
            )
        },
    );
    recs
}

/// What one session measured.
struct Session {
    cold_s: f64,
    warm_s: f64,
    passes: usize,
    reads_us: Vec<f64>,
    cold_records: Vec<String>,
    wall_ns: f64,
}

/// Cold sweep, read passes, warm sweep — each call spanned when `tr` is on.
fn session(
    cluster: &Cluster,
    inp: &Inputs,
    reads: Reads,
    tr: &mut Tracer,
    report: &mut Report,
) -> Session {
    let mut client = cluster.client();
    let n = inp.keys.len();
    let t0 = Instant::now();
    let root = tr.enter("cluster_sweep.session", 0);

    let t = Instant::now();
    let resp = tr.time("cluster.sweep_cold", 1, || {
        client.post_raw("/v1/sweeps", inp.body.clone())
    });
    let cold_s = t.elapsed().as_secs_f64();
    let cold_records = check_sweep(&resp, n, Some(n as u64), "cold sweep", report);

    let mut reads_us = Vec::new();
    let mut pin = OneCpu::pin();
    let (t, mut pass) = (Instant::now(), 0);
    while match reads {
        Reads::For(s) => t.elapsed().as_secs_f64() < s,
        Reads::Passes(p) => pass < p,
    } {
        pin.refresh();
        for (i, key) in inp.keys.iter().enumerate() {
            let path = format!("/v1/runs/{}", key.hex());
            let rid = (2 + pass * n + i) as u64;
            let t = Instant::now();
            let resp = tr.time("cluster.read", rid, || client.get(&path));
            reads_us.push(t.elapsed().as_secs_f64() * 1e6);
            // A read answers the report the sweep recorded for that key.
            let ok = matches!(&resp, Ok(r) if r.status == 200
            && cold_records.get(i).is_some_and(|rec| {
                rec.contains(&format!("\"report\":{}}}", String::from_utf8_lossy(&r.body)))
            }));
            report.check(ok, || {
                format!("read {path}: {:?}", resp.as_ref().map(|r| r.status))
            });
        }
        pass += 1;
    }
    drop(pin);

    let t = Instant::now();
    let resp = tr.time("cluster.sweep_warm", 2 + (pass * n) as u64, || {
        client.post_raw("/v1/sweeps", inp.body.clone())
    });
    let warm_s = t.elapsed().as_secs_f64();
    let warm_records = check_sweep(&resp, n, Some(0), "warm sweep", report);
    report.check(warm_records == cold_records, || {
        "warm sweep records differ from the cold sweep's".into()
    });
    tr.exit(root);
    Session {
        cold_s,
        warm_s,
        passes: pass,
        reads_us,
        cold_records,
        wall_ns: t0.elapsed().as_nanos() as f64,
    }
}

/// `samples` set-up samples: each the mean time of `SETUP_BATCH` identical
/// set-ups (inputs plus a fresh cluster), each stopped again untimed. They
/// run on the fastest CPU (see `sys::OneCpu`).
fn setups(seed: u64, work: &WorkDir, samples: usize) -> Vec<f64> {
    let mut pin = OneCpu::pin();
    batched(
        samples,
        SETUP_BATCH,
        || (inputs(seed), Cluster::start(work)),
        |(inp, cluster)| {
            drop(inp);
            cluster.stop();
            pin.refresh();
        },
    )
}

pub fn run(args: &Args, work: &WorkDir, report: &mut Report) {
    if args.trace {
        traced(args, work, report);
        return;
    }
    let inp = inputs(args.seed);
    setups(args.seed, work, 1);
    let mut setup_s = Vec::new();
    let start = Instant::now();
    let (mut cold, mut warm, mut passes, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let last = loop {
        setup_s.extend(setups(args.seed, work, SETUP_SAMPLES));
        let cluster = Cluster::start(work);
        sys::reset_peak_rss();
        let reads = Reads::For(args.seconds as f64 / 2.0);
        let s = session(&cluster, &inp, reads, &mut Tracer::new(false), report);
        rss.push(sys::peak_rss_mb());
        cluster.stop();
        cold.push(s.cold_s);
        warm.push(s.warm_s);
        passes.extend(s.reads_us.chunks(inp.keys.len()).map(<[f64]>::to_vec));
        if start.elapsed().as_secs_f64() >= args.seconds as f64 {
            break s.cold_records;
        }
    };
    setup_s.extend(setups(args.seed, work, SETUP_SAMPLES));
    note(format!(
        "cluster_sweep: {} sessions, cold sweeps {cold:.3?} s, warm sweeps {warm:.3?} s, \
         {} read passes, {} set-up samples",
        cold.len(),
        passes.len(),
        setup_s.len()
    ));
    let rates: Vec<f64> = cold.iter().map(|s| inp.keys.len() as f64 / s).collect();
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));
    report.set("peak_rss_mb", median(&rss).unwrap_or(0.0));
    report.set("ops_per_s", median(&rates).unwrap_or(0.0));
    report.set("warm_sweep_s", median(&warm).unwrap_or(0.0));
    let per_pass = |q: f64| -> f64 {
        let v: Vec<f64> = passes
            .iter()
            .map(|pass| percentile(pass, q).unwrap_or(0.0))
            .collect();
        fast_tail(&v, false).unwrap_or(0.0)
    };
    report.set("p50_us", per_pass(0.5));
    report.set("p90_us", per_pass(0.9));
    single_node_check(&inp, &last, work, report);
}

/// Checks, outside any timed phase, that a cluster's sweep records equal
/// those of a single node sweeping the same body.
fn single_node_check(
    inp: &Inputs,
    cluster_records: &[String],
    work: &WorkDir,
    report: &mut Report,
) {
    let single = Workers::start(1, work);
    let resp = Client::new(single.addrs()[0].clone()).post_raw("/v1/sweeps", inp.body.clone());
    let single_records = check_sweep(&resp, inp.keys.len(), None, "single-node sweep", report);
    single.stop();
    report.check(single_records == cluster_records, || {
        "cluster records differ from a single node's".into()
    });
}

/// The same shard bodies and reads sent straight to the owning worker, on
/// two fresh workers (one load thread and connection each). Returns the
/// cold and warm shard-sweep times and the read latencies.
fn direct(
    inp: &Inputs,
    passes: usize,
    work: &WorkDir,
    report: &mut Report,
) -> (f64, f64, Vec<f64>) {
    let workers = Workers::start(2, work);
    let addrs = workers.addrs();
    let ring = WorkerRing::new(addrs.clone());
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); addrs.len()];
    for (i, key) in inp.keys.iter().enumerate() {
        let owner = ring.owner(*key, &[false, false]).expect("two live workers");
        shards[owner].push(i);
    }
    let bodies: Vec<Vec<u8>> = shards
        .iter()
        .map(|idx| {
            let entries: Vec<String> = idx.iter().map(|&i| inp.jobs[i].dump()).collect();
            format!("{{\"jobs\":[{}]}}", entries.join(",")).into_bytes()
        })
        .collect();
    let mut clients: Vec<Client> = addrs.iter().map(Client::new).collect();
    let sweep = |clients: &mut Vec<Client>, executed: bool, report: &mut Report| {
        let t = Instant::now();
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&bodies)
                .map(|(c, b)| s.spawn(move || c.post_raw("/v1/sweeps", b.clone())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread"))
                .collect()
        });
        let wall = t.elapsed().as_secs_f64();
        for (resp, idx) in results.iter().zip(&shards) {
            let want = if executed { idx.len() as u64 } else { 0 };
            check_sweep(resp, idx.len(), Some(want), "direct shard sweep", report);
        }
        wall
    };
    let cold_s = sweep(&mut clients, true, report);
    let mut reads = Vec::new();
    let mut pin = OneCpu::pin();
    for _ in 0..passes {
        pin.refresh();
        for (i, key) in inp.keys.iter().enumerate() {
            let owner = shards.iter().position(|s| s.contains(&i)).expect("placed");
            let t = Instant::now();
            let resp = clients[owner].get(&format!("/v1/runs/{}", key.hex()));
            reads.push(t.elapsed().as_secs_f64() * 1e6);
            report.check(matches!(&resp, Ok(r) if r.status == 200), || {
                format!("direct read {}", key.hex())
            });
        }
    }
    drop(pin);
    let warm_s = sweep(&mut clients, false, report);
    drop(clients);
    workers.stop();
    (cold_s, warm_s, reads)
}

/// Coordinator counters from its JSON `/metrics`.
fn coordinator_counters(cluster: &Cluster, report: &mut Report) {
    let resp = cluster.client().get("/metrics");
    let doc = resp
        .as_ref()
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| Json::parse(&String::from_utf8_lossy(&r.body)));
    report.check(doc.is_some(), || {
        format!("coordinator /metrics: {:?}", resp.map(|r| r.status))
    });
    let Some(c) = doc.as_ref().and_then(|d| d.get("cluster")) else {
        return;
    };
    let workers = c.get("workers").and_then(Json::as_array).unwrap_or(&[]);
    let sum = |f: &str| -> f64 {
        workers
            .iter()
            .filter_map(|w| w.get(f).and_then(Json::as_u64))
            .sum::<u64>() as f64
    };
    report.set("cluster.forwarded", sum("forwarded"));
    report.set("cluster.peer_hits", sum("peer_hits"));
    report.set("cluster.peer_misses", sum("peer_misses"));
    report.set("cluster.failures", sum("failures"));
    report.set(
        "cluster.rehashes",
        c.get("rehashes").and_then(Json::as_u64).unwrap_or(0) as f64,
    );
}

fn traced(args: &Args, work: &WorkDir, report: &mut Report) {
    let inp = inputs(args.seed);

    // The session untraced, then traced on a fresh cluster.
    let cluster = Cluster::start(work);
    let reads = Reads::For(args.seconds as f64 / 2.0);
    let untraced = session(&cluster, &inp, reads, &mut Tracer::new(false), report);
    cluster.stop();
    let cluster = Cluster::start(work);
    let mut tr = Tracer::new(true);
    let reads = Reads::Passes(untraced.passes);
    let traced = session(&cluster, &inp, reads, &mut tr, report);
    coordinator_counters(&cluster, report);
    let mut counts = SimCounts::new();
    let mut executions = [0u64; 2];
    for (w, e) in cluster.workers.engines.iter().enumerate() {
        executions[w] = e.metrics().jobs_executed;
    }
    for (s, key) in inp.specs.iter().zip(&inp.keys) {
        let found = cluster.workers.engines.iter().find_map(|e| e.cached(*key));
        match found {
            Some(r) => counts.add(&s.spec(), &r),
            None => report.check(false, || format!("no worker holds {}", key.hex())),
        }
    }
    let retries: u64 = cluster
        .workers
        .engines
        .iter()
        .map(|e| e.metrics().exec_retries)
        .sum();
    cluster.stop();
    report.set("cluster.executions.w0", executions[0] as f64);
    report.set("cluster.executions.w1", executions[1] as f64);
    report.check(
        executions.iter().sum::<u64>() == inp.keys.len() as u64,
        || {
            format!(
                "workers executed {executions:?} for {} jobs",
                inp.keys.len()
            )
        },
    );

    single_node_check(&inp, &traced.cold_records, work, report);

    // The coordinator's share: the same shards and reads sent directly.
    let (direct_cold, direct_warm, direct_reads) = direct(&inp, traced.passes, work, report);
    let cold_overhead = traced.cold_s - direct_cold;
    let warm_overhead = traced.warm_s - direct_warm;
    let probe_us = median(&traced.reads_us).unwrap_or(0.0) - median(&direct_reads).unwrap_or(0.0);
    report.set("cluster.overhead_s", cold_overhead);
    report.set("cluster.warm_overhead_s", warm_overhead);
    report.set("cluster.probe_overhead_us", probe_us);
    note(format!(
        "cluster stall per sweep request: cold {:.3} s via coordinator vs {:.3} s direct \
         (+{cold_overhead:.3} s); warm {:.3} s vs {:.3} s (+{warm_overhead:.3} s); \
         read p50 {:.1} us vs {:.1} us direct",
        traced.cold_s,
        direct_cold,
        traced.warm_s,
        direct_warm,
        median(&traced.reads_us).unwrap_or(0.0),
        median(&direct_reads).unwrap_or(0.0),
    ));
    counts.publish(args.seed, retries, report);
    crate::trace_summary(
        &tr,
        "cluster_sweep.session",
        (traced.wall_ns, untraced.wall_ns),
        "cluster_sweep",
        args.seed,
        report,
    );
}
