//! `serve_warm`: in-process `api::serve` on the shipped `ServerConfig`
//! over an on-disk engine. Set-up runs a seeded key set (every examined
//! benchmark at scale 0.05) and the `fig3` workflow through the server;
//! then one keep-alive connection sends the seeded request mix in a closed
//! loop. Nothing is simulated in the timed phase, so serve, the engine's
//! read tiers, obs and flow do all the work.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use heteropipe_engine::{run_key, Engine};
use heteropipe_serve::api::{self, parse_job_spec, OwnedJobSpec};
use heteropipe_serve::client::read_response;
use heteropipe_serve::http::{read_request, Request};
use heteropipe_serve::{Api, Client, Handler, Json, ServerConfig, ServerHandle};

use crate::cold;
use crate::counts::SimCounts;
use crate::gen::{self, Job, MixEntry, Route, MIX_SWEEP_JOBS};
use crate::span::Tracer;
use crate::stats::{fast_tail, median, percentile};
use crate::sys::{self, cpu_seconds, OneCpu, WorkDir};
use crate::{note, Args, Report};

/// Identical set-ups timed per run; their median is `setup_s`. Each takes
/// over a second (it simulates the key set), so one is one sample.
const SETUPS: usize = 3;
/// Length of the seeded request sequence the closed loop cycles through.
const MIX_LEN: usize = 8192;
/// Requests in the traced phase (each also sent once untraced).
const TRACED_REQUESTS: usize = 2000;
/// Requests in one piece of the loop, about 10 ms. The loop's rate, p50
/// and p90 are taken per piece, then the fast tail over pieces (see
/// `stats::fast_tail`), as for the cluster's 64-key read passes.
const PIECE: usize = 64;
const FIG3: &str = r#"{"workflow":"fig3","scale":0.05}"#;

/// A bound server with its set-up done.
struct Warm {
    engine: Arc<Engine>,
    server: ServerHandle,
    client: Client,
    jobs: Vec<Job>,
    keys: Vec<String>,
}

impl Warm {
    fn shutdown(self) {
        drop(self.client);
        self.server.shutdown_and_join();
    }
}

/// The shipped server configuration, on an ephemeral loopback port.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    }
}

fn setup(seed: u64, work: &WorkDir, report: &mut Report) -> Warm {
    let engine = Arc::new(Engine::new().with_cache_dir(work.fresh("serve")));
    let server = api::serve(server_config(), Arc::clone(&engine)).expect("bind the server");
    let mut client = Client::new(server.addr().to_string());
    let jobs = gen::serve_keyset(seed);
    let mut keys = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let resp = client.post_json("/v1/runs", &job.to_json());
        let ok = matches!(&resp, Ok(r) if r.status == 200);
        report.check(ok, || format!("set-up POST /v1/runs {job:?}: {resp:?}"));
        let key = resp
            .ok()
            .and_then(|r| r.header("x-run-key").map(str::to_string))
            .unwrap_or_default();
        keys.push(key);
    }
    let resp = client.post_raw("/v1/workflows", FIG3.as_bytes().to_vec());
    report.check(matches!(&resp, Ok(r) if r.status == 200), || {
        format!("set-up fig3 workflow: {resp:?}")
    });
    Warm {
        engine,
        server,
        client,
        jobs,
        keys,
    }
}

/// Method, target and body of one mix entry.
fn request_for(warm: &Warm, e: MixEntry) -> (&'static str, String, Vec<u8>) {
    let n = warm.jobs.len();
    match e.route {
        Route::RunsGet => ("GET", format!("/v1/runs/{}", warm.keys[e.key]), Vec::new()),
        Route::RunsPost => (
            "POST",
            "/v1/runs".into(),
            warm.jobs[e.key].to_json().dump().into_bytes(),
        ),
        Route::Healthz => ("GET", "/healthz".into(), Vec::new()),
        Route::SweepsPost => {
            let jobs: Vec<Job> = (0..MIX_SWEEP_JOBS)
                .map(|j| warm.jobs[(e.key + j) % n].clone())
                .collect();
            (
                "POST",
                "/v1/sweeps".into(),
                gen::sweep_body(&jobs).dump().into_bytes(),
            )
        }
        Route::WorkflowsPost => ("POST", "/v1/workflows".into(), FIG3.as_bytes().to_vec()),
        Route::MetricsJson => ("GET", "/metrics".into(), Vec::new()),
        Route::MetricsProm => ("GET", "/metrics?format=prometheus".into(), Vec::new()),
    }
}

/// The request bytes a client sends for `(method, target, body)`.
fn raw_request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!("{method} {target} HTTP/1.1\r\nHost: perfbench\r\n").into_bytes();
    if !body.is_empty() {
        raw.extend(
            format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            )
            .bytes(),
        );
    }
    raw.extend(b"\r\n");
    raw.extend(body);
    raw
}

/// Blanks the values of the fields that report elapsed time
/// (`wall_ms`, `speedup_vs_serial`), so bodies compare on everything else.
fn without_timing(body: &[u8]) -> Vec<u8> {
    const FIELDS: [&[u8]; 2] = [b"\"wall_ms\":", b"\"speedup_vs_serial\":"];
    let mut out = Vec::with_capacity(body.len());
    let mut i = 0;
    'scan: while i < body.len() {
        for field in FIELDS {
            if body[i..].starts_with(field) {
                out.extend(field);
                i += field.len();
                while i < body.len()
                    && matches!(body[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'-' | b'+')
                {
                    i += 1;
                }
                continue 'scan;
            }
        }
        out.push(body[i]);
        i += 1;
    }
    out
}

/// A body in comparable form. Only the sweep and workflow streams carry
/// elapsed-time fields and arrive in completion order: their timing values
/// are blanked and their lines sorted. Every other body compares byte for
/// byte, borrowed as it is.
fn comparable(route: Route, body: &[u8]) -> Cow<'_, [u8]> {
    if !matches!(route, Route::SweepsPost | Route::WorkflowsPost) {
        return Cow::Borrowed(body);
    }
    let body = without_timing(body);
    let mut lines: Vec<&[u8]> = body.split(|&b| b == b'\n').collect();
    lines.sort_unstable();
    Cow::Owned(lines.join(&b'\n'))
}

/// Whether a response body is what it should be: equal to the in-process
/// `Api::handle` body for the same request (see [`comparable`]), or for
/// `/metrics`, a well-formed exposition.
fn body_ok(route: Route, body: &[u8], expected: Option<&Vec<u8>>) -> bool {
    match route {
        Route::MetricsJson => std::str::from_utf8(body)
            .ok()
            .and_then(Json::parse)
            .is_some(),
        Route::MetricsProm => {
            std::str::from_utf8(body).is_ok_and(|t| t.contains("# TYPE heteropipe_"))
        }
        _ => expected.is_some_and(|e| *comparable(route, body) == **e),
    }
}

/// In-process: parse the raw request, handle it, write the response into
/// memory, each call a span. Returns the response body and status.
fn in_process(api: &Api, raw: &[u8], tr: &mut Tracer, route: Route, rid: u64) -> (Vec<u8>, u16) {
    let mut req: Request = tr
        .time("serve.parse", rid, || read_request(&mut Cursor::new(raw)))
        .expect("well-formed request");
    req.request_id = format!("perfbench-{rid}");
    let resp = tr.time(handle_span(route), rid, || api.handle(&req));
    let mut out = Vec::with_capacity(4096);
    tr.time("serve.write", rid, || resp.write_to(&mut out, true))
        .expect("write into memory");
    let parsed = read_response(&mut Cursor::new(out)).expect("own response parses");
    (parsed.body, parsed.status)
}

fn handle_span(route: Route) -> &'static str {
    match route {
        Route::RunsGet => "serve.handle.runs_get",
        Route::RunsPost => "serve.handle.runs_post",
        Route::Healthz => "serve.handle.healthz",
        Route::SweepsPost => "serve.handle.sweeps_post",
        Route::WorkflowsPost => "serve.handle.workflows_post",
        Route::MetricsJson => "serve.handle.metrics_json",
        Route::MetricsProm => "serve.handle.metrics_prom",
    }
}

fn socket_span(route: Route) -> &'static str {
    match route {
        Route::RunsGet => "serve.socket.runs_get",
        Route::RunsPost => "serve.socket.runs_post",
        Route::Healthz => "serve.socket.healthz",
        Route::SweepsPost => "serve.socket.sweeps_post",
        Route::WorkflowsPost => "serve.socket.workflows_post",
        Route::MetricsJson => "serve.socket.metrics_json",
        Route::MetricsProm => "serve.socket.metrics_prom",
    }
}

/// Expected bodies for every keyed request of the mix, from an in-process
/// `Api` over the same engine. Each request is handled twice and the
/// second answer kept, so the comparison is warm against warm.
fn expected_bodies(warm: &Warm, api: &Api, mix: &[MixEntry]) -> HashMap<(Route, usize), Vec<u8>> {
    let mut out = HashMap::new();
    let mut scratch = Tracer::new(false);
    for &e in mix {
        let id = match e.route {
            Route::RunsGet | Route::RunsPost | Route::SweepsPost => (e.route, e.key),
            Route::Healthz | Route::WorkflowsPost => (e.route, 0),
            Route::MetricsJson | Route::MetricsProm => continue,
        };
        out.entry(id).or_insert_with(|| {
            let (m, t, b) = request_for(warm, e);
            let raw = raw_request(m, &t, &b);
            in_process(api, &raw, &mut scratch, e.route, 0);
            let body = in_process(api, &raw, &mut scratch, e.route, 0).0;
            comparable(e.route, &body).into_owned()
        });
    }
    out
}

fn expected_for(expected: &HashMap<(Route, usize), Vec<u8>>, e: MixEntry) -> Option<&Vec<u8>> {
    let key = match e.route {
        Route::Healthz | Route::WorkflowsPost => 0,
        _ => e.key,
    };
    expected.get(&(e.route, key))
}

/// Per-route client latencies (µs) from the closed loop.
type Samples = HashMap<Route, Vec<f64>>;

/// What the closed loop measured.
struct Loop {
    requests: usize,
    /// Client latencies (µs) and wall time (s) of each whole piece of
    /// [`PIECE`] consecutive requests.
    pieces: Vec<(Vec<f64>, f64)>,
    samples: Samples,
}

/// The closed loop: one connection, next request only after the previous
/// answer, cycling through the seeded mix until `seconds` pass.
fn closed_loop(
    warm: &mut Warm,
    pin: &mut OneCpu,
    mix: &[MixEntry],
    expected: &HashMap<(Route, usize), Vec<u8>>,
    seconds: f64,
    report: &mut Report,
) -> Loop {
    let requests: Vec<(&'static str, String, Vec<u8>)> =
        mix.iter().map(|&e| request_for(warm, e)).collect();
    let mut samples: Samples = HashMap::new();
    let executed_before = warm.engine.metrics().jobs_executed;
    let start = Instant::now();
    let (mut i, mut pieces, mut piece, mut piece_start) =
        (0, Vec::new(), Vec::with_capacity(PIECE), Instant::now());
    while start.elapsed().as_secs_f64() < seconds {
        pin.refresh();
        let e = mix[i % mix.len()];
        let (method, target, body) = &requests[i % mix.len()];
        let t = Instant::now();
        let resp = if *method == "GET" {
            warm.client.get(target)
        } else {
            warm.client.post_raw(target, body.clone())
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        let ok = match &resp {
            Ok(r) => r.status == 200 && body_ok(e.route, &r.body, expected_for(expected, e)),
            Err(_) => false,
        };
        report.check(ok, || {
            format!("{method} {target}: {:?}", resp.as_ref().map(|r| r.status))
        });
        samples.entry(e.route).or_default().push(us);
        piece.push(us);
        if piece.len() == PIECE {
            pieces.push((
                std::mem::take(&mut piece),
                piece_start.elapsed().as_secs_f64(),
            ));
            piece_start = Instant::now();
        }
        i += 1;
    }
    let executed = warm.engine.metrics().jobs_executed - executed_before;
    report.check(executed == 0, || {
        format!("{executed} engine executions during the timed phase")
    });
    Loop {
        requests: i,
        pieces,
        samples,
    }
}

pub fn run(args: &Args, work: &WorkDir, report: &mut Report) {
    if args.trace {
        traced(args, work, report);
        return;
    }
    // Each set-up starts a fresh server over a fresh cache. The first one
    // serves the timed loop; the repeats come after it, so the loop's
    // memory holds one set-up's leftovers rather than several.
    let timed_setup = |report: &mut Report| {
        let t = Instant::now();
        let w = setup(args.seed, work, report);
        (t.elapsed().as_secs_f64(), w)
    };
    let (first, mut warm) = timed_setup(report);
    let mix = gen::serve_mix(args.seed, MIX_LEN, warm.keys.len());
    let expected = expected_bodies(&warm, &Api::new(Arc::clone(&warm.engine)), &mix);
    sys::reset_peak_rss();
    let mut pin = OneCpu::pin();
    let l = closed_loop(
        &mut warm,
        &mut pin,
        &mix,
        &expected,
        args.seconds as f64,
        report,
    );
    drop(pin);
    report.set("peak_rss_mb", sys::peak_rss_mb());
    let sweeps = l
        .samples
        .get(&Route::SweepsPost)
        .cloned()
        .unwrap_or_default();
    note(format!(
        "serve_warm: {} requests, {} of them warm sweeps",
        l.requests,
        sweeps.len()
    ));
    let rates: Vec<f64> = l.pieces.iter().map(|(_, s)| PIECE as f64 / s).collect();
    let per_piece = |q: f64| -> f64 {
        let v: Vec<f64> = l
            .pieces
            .iter()
            .map(|(us, _)| percentile(us, q).unwrap_or(0.0))
            .collect();
        fast_tail(&v, false).unwrap_or(0.0)
    };
    report.set("ops_per_s", fast_tail(&rates, true).unwrap_or(0.0));
    report.set("p50_us", per_piece(0.5));
    report.set("p90_us", per_piece(0.9));
    // A warm sweep takes about a millisecond: short enough for the fast
    // tail of the sweeps themselves.
    let sweep_us = fast_tail(&sweeps, false).unwrap_or(0.0);
    report.set("warm_sweep_s", sweep_us / 1e6);
    warm.shutdown();
    let mut times = vec![first];
    for _ in 1..SETUPS {
        let (t, w) = timed_setup(report);
        times.push(t);
        w.shutdown();
    }
    report.set("setup_s", median(&times).unwrap_or(0.0));
}

/// One request of the mix: its in-process layers (parse, handle, write),
/// then the same request over the socket. Checks both answers.
fn decomposed_request(
    warm: &mut Warm,
    api: &Api,
    e: MixEntry,
    expected: &HashMap<(Route, usize), Vec<u8>>,
    tr: &mut Tracer,
    rid: u64,
    report: &mut Report,
) {
    let (method, target, body) = request_for(warm, e);
    let raw = raw_request(method, &target, &body);
    let (inproc, status) = in_process(api, &raw, tr, e.route, rid);
    let resp = tr.time(socket_span(e.route), rid, || {
        if method == "GET" {
            warm.client.get(&target)
        } else {
            warm.client.post_raw(&target, body)
        }
    });
    let want = expected_for(expected, e);
    let ok = status == 200
        && body_ok(e.route, &inproc, want)
        && matches!(&resp, Ok(r) if r.status == 200 && body_ok(e.route, &r.body, want));
    report.check(ok, || format!("traced {method} {target}"));
}

fn traced(args: &Args, work: &WorkDir, report: &mut Report) {
    let mut warm = setup(args.seed, work, report);
    let mix = gen::serve_mix(args.seed, MIX_LEN, warm.keys.len());
    // One in-process `Api`, warmed by computing the expected bodies, serves
    // both the comparison and the in-process layer timings below.
    let api = Api::new(Arc::clone(&warm.engine));
    let expected = expected_bodies(&warm, &api, &mix);

    // The real workload, untraced: per-route client latency and CPU time.
    // Like the measured run, the loop and the decomposed requests below run
    // on one CPU.
    let mut pin = OneCpu::pin();
    let m0 = warm.engine.metrics();
    let (user0, sys0) = cpu_seconds();
    let l = closed_loop(
        &mut warm,
        &mut pin,
        &mix,
        &expected,
        args.seconds as f64,
        report,
    );
    let (n, samples) = (l.requests, l.samples);
    let (user1, sys1) = cpu_seconds();
    let m1 = warm.engine.metrics();
    report.set("os.user_cpu_us_per_req", (user1 - user0) * 1e6 / n as f64);
    report.set("os.sys_cpu_us_per_req", (sys1 - sys0) * 1e6 / n as f64);
    let lookups = m1.jobs_total() - m0.jobs_total();
    report.set(
        "engine.hit_ratio",
        (m1.hits() - m0.hits()) as f64 / lookups.max(1) as f64,
    );
    for route in Route::ALL {
        let s = samples.get(&route).cloned().unwrap_or_default();
        let name = route.name();
        report.set(
            &format!("serve.client_p50_us.{name}"),
            percentile(&s, 0.5).unwrap_or(0.0),
        );
        report.set(
            &format!("serve.client_p99_us.{name}"),
            percentile(&s, 0.99).unwrap_or(0.0),
        );
        report.set(&format!("serve.client_n.{name}"), s.len() as f64);
    }

    // In-process layers and the socket, traced and untraced.
    let mut tr = Tracer::new(true);
    let walls = tr.interleaved(
        TRACED_REQUESTS,
        "serve_warm.request",
        |i, tr, _| {
            pin.refresh();
            let e = mix[i % mix.len()];
            decomposed_request(&mut warm, &api, e, &expected, tr, i as u64 + 1, report);
        },
        |_, _| (),
    );
    drop(pin);
    let p50_us = |name: &str| median(&tr.durations(name)).unwrap_or(0.0) / 1e3;
    report.set("serve.parse_us", p50_us("serve.parse"));
    report.set("serve.write_us", p50_us("serve.write"));
    for route in Route::ALL {
        let name = route.name();
        let handle = p50_us(handle_span(route));
        report.set(&format!("serve.handle_us.{name}"), handle);
        let socket = p50_us(socket_span(route));
        let transport = if socket > 0.0 {
            socket - handle - p50_us("serve.parse") - p50_us("serve.write")
        } else {
            0.0
        };
        report.set(&format!("serve.transport_us.{name}"), transport);
    }

    // Engine read tiers and the per-request build/lower/key of POST /v1/runs.
    let specs: Vec<OwnedJobSpec> = warm
        .jobs
        .iter()
        .map(|j| parse_job_spec(&j.to_json()).expect("generated jobs are valid specs"))
        .collect();
    engine_layers(&warm, &specs, &mut tr, report);
    let mut counts = SimCounts::new();
    for s in &specs {
        match warm.engine.cached(run_key(&s.spec())) {
            Some(r) => counts.add(&s.spec(), &r),
            None => report.check(false, || "key-set report missing".into()),
        }
    }
    counts.publish(args.seed, warm.engine.metrics().exec_retries, report);
    crate::trace_summary(
        &tr,
        "serve_warm.request",
        walls,
        "serve_warm",
        args.seed,
        report,
    );
    warm.shutdown();
}

/// The front half every `POST /v1/runs` pays (build, lower, key) and the
/// engine's read tiers, per key of the key set (µs medians).
fn engine_layers(warm: &Warm, specs: &[OwnedJobSpec], tr: &mut Tracer, report: &mut Report) {
    for (i, (job, owned)) in warm.jobs.iter().zip(specs).enumerate() {
        cold::front_half(job, owned, tr, i as u64 + 1);
    }
    cold::read_tiers(&warm.engine, specs, tr, report);
    let p50_us = |name: &str| median(&tr.durations(name)).unwrap_or(0.0) / 1e3;
    report.set("workloads.build_us", p50_us("workloads.build"));
    report.set("core.lower_us", p50_us("core.lower"));
    report.set("engine.key_us", p50_us("engine.key"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_fields_are_blanked_and_nothing_else() {
        let a =
            br#"{"sweep":{"executed":0,"wall_ms":12,"speedup_vs_serial":1.5e-3},"x":"wall_ms"}"#;
        let b = br#"{"sweep":{"executed":0,"wall_ms":3,"speedup_vs_serial":0.97},"x":"wall_ms"}"#;
        assert_eq!(without_timing(a), without_timing(b));
        assert_eq!(
            without_timing(a),
            br#"{"sweep":{"executed":0,"wall_ms":,"speedup_vs_serial":},"x":"wall_ms"}"#.to_vec()
        );
        let c = br#"{"sweep":{"executed":1,"wall_ms":3,"speedup_vs_serial":0.97}}"#;
        assert_ne!(without_timing(b), without_timing(c));
    }

    #[test]
    fn raw_requests_parse_back() {
        let raw = raw_request("POST", "/v1/runs?x=1", b"{}");
        let req = read_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/v1/runs")
        );
        assert_eq!(req.query, "x=1");
        assert_eq!(req.body, b"{}");
    }
}
