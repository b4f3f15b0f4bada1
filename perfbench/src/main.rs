//! heteropipe's benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and per-layer metrics from a separate traced
//! run. See README.md in this directory for what each workload and metric
//! is for.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! Diagnostics (exact simulated counts, report digest, residuals, tracing
//! overhead) go to standard error.

mod cluster;
mod cold;
mod counts;
mod gen;
mod replay;
mod serve_warm;
mod span;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("warm_sweep_s", "s"),
];

/// Per-layer metrics every workload reports with `--trace 1`. A layer a
/// workload never reaches reads 0 there (for instance `core.run_ms` on
/// `serve_warm`, which must simulate nothing).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.run_ms", "ms"),
    ("core.run_ns_per_access", "ns"),
    ("mem.access_ns", "ns"),
    ("core.footprint_ns", "ns"),
    ("core.classify_ns", "ns"),
    ("workloads.emit_ns", "ns"),
    ("core.run_residual_ms", "ms"),
    ("replay.coverage", "ratio"),
    ("workloads.build_us", "us"),
    ("core.lower_us", "us"),
    ("engine.key_us", "us"),
    ("engine.encode_us", "us"),
    ("engine.persist_us", "us"),
    ("engine.sweep_overhead_ms", "ms"),
    ("engine.cached_bytes_us", "us"),
    ("engine.warm_execute_us", "us"),
    ("engine.disk_read_us", "us"),
    ("engine.hit_ratio", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.write_us", "us"),
    ("serve.handle_us.runs_get", "us"),
    ("serve.handle_us.runs_post", "us"),
    ("serve.handle_us.healthz", "us"),
    ("serve.handle_us.sweeps_post", "us"),
    ("serve.handle_us.workflows_post", "us"),
    ("serve.handle_us.metrics_json", "us"),
    ("serve.handle_us.metrics_prom", "us"),
    ("serve.transport_us.runs_get", "us"),
    ("serve.transport_us.runs_post", "us"),
    ("serve.transport_us.healthz", "us"),
    ("serve.transport_us.sweeps_post", "us"),
    ("serve.transport_us.workflows_post", "us"),
    ("serve.transport_us.metrics_json", "us"),
    ("serve.transport_us.metrics_prom", "us"),
    ("serve.client_p50_us.runs_get", "us"),
    ("serve.client_p99_us.runs_get", "us"),
    ("serve.client_n.runs_get", "count"),
    ("serve.client_p50_us.runs_post", "us"),
    ("serve.client_p99_us.runs_post", "us"),
    ("serve.client_n.runs_post", "count"),
    ("serve.client_p50_us.healthz", "us"),
    ("serve.client_p99_us.healthz", "us"),
    ("serve.client_n.healthz", "count"),
    ("serve.client_p50_us.sweeps_post", "us"),
    ("serve.client_p99_us.sweeps_post", "us"),
    ("serve.client_n.sweeps_post", "count"),
    ("serve.client_p50_us.workflows_post", "us"),
    ("serve.client_p99_us.workflows_post", "us"),
    ("serve.client_n.workflows_post", "count"),
    ("serve.client_p50_us.metrics_json", "us"),
    ("serve.client_p99_us.metrics_json", "us"),
    ("serve.client_n.metrics_json", "count"),
    ("serve.client_p50_us.metrics_prom", "us"),
    ("serve.client_p99_us.metrics_prom", "us"),
    ("serve.client_n.metrics_prom", "count"),
    ("os.sys_cpu_us_per_req", "us"),
    ("os.user_cpu_us_per_req", "us"),
    ("cluster.overhead_s", "s"),
    ("cluster.warm_overhead_s", "s"),
    ("cluster.probe_overhead_us", "us"),
    ("cluster.forwarded", "count"),
    ("cluster.peer_hits", "count"),
    ("cluster.peer_misses", "count"),
    ("cluster.rehashes", "count"),
    ("cluster.failures", "count"),
    ("cluster.executions.w0", "count"),
    ("cluster.executions.w1", "count"),
    ("sim.jobs", "count"),
    ("sim.tasks", "count"),
    ("sim.accesses", "count"),
    ("sim.offchip_fetches", "count"),
    ("sim.writebacks", "count"),
    ("sim.faults", "count"),
    ("engine.retries", "count"),
    ("sim.report_digest", "count"),
    ("trace.e2e_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.spans", "count"),
];

/// The workloads, each run in its own process so `peak_rss_mb` is its own.
pub const WORKLOADS: [&str; 3] = ["cold_sweep", "serve_warm", "cluster_sweep"];

/// Command-line arguments. Every one is required.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <cold_sweep|serve_warm|cluster_sweep> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{name} needs a value"))?;
        if kv.insert(name, value).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<u64>()
        .ok()
        .filter(|s| (1..=600).contains(s))
        .ok_or("--seconds must be a whole number in 1..=600")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
    })
}

/// What one run produced: correctness checks and named metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Counts one checked operation; a failed one is logged.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: FAILED: {}", what());
            }
        }
    }

    /// The `success_ratio` end-to-end metric.
    pub fn success_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// The final line: exactly the metrics of `names`, each with its unit.
    fn render(&self, names: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self.metrics.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("}}");
        out
    }
}

/// Reports a traced phase: the spans called `root`, how their direct child
/// spans and the residual add up to them, and the tracing overhead against
/// the same steps run untraced. Writes the spans as a Chrome trace under
/// `.bench_out/`.
pub fn trace_summary(
    tr: &span::Tracer,
    root: &str,
    (traced_ns, untraced_ns): (f64, f64),
    workload: &str,
    seed: u64,
    report: &mut Report,
) {
    let root_ns = tr.total_ns(root);
    let residual = tr.residual_ns(root);
    let mut line = format!(
        "{workload} traced phase {:.3} ms = residual {:.3} ms",
        root_ns / 1e6,
        residual / 1e6
    );
    for (name, ns) in &tr.children(root) {
        let _ = write!(
            line,
            " + {name} {:.3} ms ({:.1}%)",
            ns / 1e6,
            100.0 * ns / root_ns
        );
    }
    note(line);
    note(format!(
        "{workload} tracing overhead: traced {:.3} ms - untraced {:.3} ms = {:.3} ms ({} spans)",
        traced_ns / 1e6,
        untraced_ns / 1e6,
        (traced_ns - untraced_ns) / 1e6,
        tr.spans().len()
    ));
    report.set("trace.e2e_ms", root_ns / 1e6);
    report.set("trace.untraced_ms", untraced_ns / 1e6);
    report.set("trace.overhead_ms", (traced_ns - untraced_ns) / 1e6);
    report.set("trace.residual_ms", residual / 1e6);
    report.set("trace.spans", tr.spans().len() as f64);
    let path = format!(".bench_out/trace_{workload}_{seed}.json");
    match std::fs::write(&path, tr.chrome_json(workload)) {
        Ok(()) => note(format!("chrome trace written to {path}")),
        Err(e) => note(format!("chrome trace not written ({path}): {e}")),
    }
}

/// Prints one diagnostic line to standard error.
pub fn note(line: impl AsRef<str>) {
    eprintln!("perfbench: {}", line.as_ref());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = match sys::WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch space: {e}");
            std::process::exit(1);
        }
    };
    note(format!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let mut report = Report::default();
    let ticks = sys::host_ticks();
    match args.workload.as_str() {
        "cold_sweep" => cold::run(&args, &work, &mut report),
        "serve_warm" => serve_warm::run(&args, &work, &mut report),
        "cluster_sweep" => cluster::run(&args, &work, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }
    note(format!(
        "host CPU steal during the run: {:.1}%",
        100.0 * sys::steal_share(ticks, sys::host_ticks())
    ));
    if args.trace {
        println!("{}", report.render(PER_LAYER));
    } else {
        report.set("success_ratio", report.success_ratio());
        println!("{}", report.render(&END_TO_END));
    }
    drop(work);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let a = parse_args(&argv(
            "--workload serve_warm --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_warm", 7, 10, true)
        );
        for bad in [
            "--workload serve_warm --seed 7 --seconds 10",
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload serve_warm --seed x --seconds 10 --trace 0",
            "--workload serve_warm --seed 7 --seconds 0 --trace 0",
            "--workload serve_warm --seed 7 --seconds 10 --trace 2",
            "--workload serve_warm --seed 7 --seconds 10 --trace 0 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn final_line_carries_exactly_the_named_metrics() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.set("ops_per_s", 12.5);
        r.set("not_listed", 1.0);
        let line = r.render(&END_TO_END);
        let v = heteropipe_serve::Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let Some(heteropipe_serve::Json::Obj(m)) = v.get("metrics") else {
            panic!("metrics object")
        };
        let names: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = heteropipe_serve::Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
