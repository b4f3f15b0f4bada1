//! `cold_sweep`: `Engine::execute_sweep` with 2 job threads over a fresh
//! on-disk cache. The simulator does nearly all of the work; serve and
//! cluster do none.
//!
//! A run executes rounds of the seed's one job list (92 jobs: every
//! examined benchmark at both cold scales, seeded organizations) until
//! `--seconds` is spent, each round on a fresh engine and cache directory
//! so every job executes. Every round is the same work; more rounds only
//! add samples. After each cold sweep the list is repeated warm on the
//! same engine. Round timings are medians over the run's rounds. After
//! the timed phase, every stored report is checked against a direct
//! `run::run` of its spec.

use std::sync::Mutex;
use std::time::Instant;

use heteropipe::{run, RunReport};
use heteropipe_engine::{codec, run_key, Engine, ResultCache, RunKey};
use heteropipe_mem::access::Component;
use heteropipe_serve::api::{parse_job_spec, OwnedJobSpec};
use heteropipe_workloads::{registry, Scale};

use crate::counts::SimCounts;
use crate::gen::{self, Job};
use crate::replay::{self, Split};
use crate::span::Tracer;
use crate::stats::{batched, fast_tail, median, percentile};
use crate::sys::{self, OneCpu, WorkDir};
use crate::{note, Args, Report};

/// Job threads of the sweep engine (one per vCPU of the reference box).
const JOB_THREADS: usize = 2;
/// A set-up takes about a millisecond, so one `setup_s` sample is the mean
/// of `SETUP_BATCH` consecutive set-ups; `SETUP_SAMPLES` samples are taken
/// before each round and `setup_s` is their median over the run. One
/// untimed batch at the start lets lazy statics and the allocator settle.
/// Set-up is single-threaded and runs on the fastest CPU (see
/// `sys::OneCpu`).
const SETUP_BATCH: usize = 16;
const SETUP_SAMPLES: usize = 3;
/// Seconds of warm repeats of each round's sweep, each repeat one
/// `warm_sweep_s` sample. A repeat takes about 2 ms and is bound by
/// wake-ups, so repeats run on the fastest CPU (see `sys::OneCpu`). Like
/// the cluster's 13 ms read passes, a repeat is short enough to fall
/// inside one of the host's spells, so `warm_sweep_s` is the fast tail of
/// the repeats (`stats::fast_tail`): their median spread 0.28 (IQR ÷
/// median) over ten runs.
const WARM_S: f64 = 0.5;

struct Round {
    jobs: Vec<Job>,
    specs: Vec<OwnedJobSpec>,
    engine: Engine,
}

/// Set-up for one round: the job specs (each builds its pipeline) and a
/// sweep engine over a fresh cache directory.
fn setup(seed: u64, work: &WorkDir) -> Round {
    let jobs = gen::cold_jobs(seed);
    let specs = jobs
        .iter()
        .map(|j| parse_job_spec(&j.to_json()).expect("generated jobs are valid specs"))
        .collect();
    let engine = Engine::new()
        .with_jobs(JOB_THREADS)
        .with_cache_dir(work.fresh("cold"));
    Round {
        jobs,
        specs,
        engine,
    }
}

/// Runs the round's cold sweep; checks that every job executed and
/// succeeded. Returns the sweep's wall time in seconds and, per job, the
/// time from the sweep's start until its result was available (µs) — what
/// a client streaming the sweep's records sees.
fn cold_sweep(round: &Round, report: &mut Report) -> (f64, Vec<f64>) {
    let jobs: Vec<_> = round.specs.iter().map(OwnedJobSpec::spec).collect();
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    let t = Instant::now();
    let out = round.engine.execute_sweep_observed(&jobs, None, &|_| {
        let us = t.elapsed().as_secs_f64() * 1e6;
        done.lock().expect("sink lock").push(us);
    });
    let wall = t.elapsed().as_secs_f64();
    for (i, r) in out.results.iter().enumerate() {
        report.check(r.is_ok(), || format!("cold job {i} failed: {r:?}"));
    }
    report.check(out.summary.executed == jobs.len() as u64, || {
        format!(
            "cold sweep executed {} of {}",
            out.summary.executed,
            jobs.len()
        )
    });
    (wall, done.into_inner().expect("sink lock"))
}

/// Repeats the round's sweep on its warm engine for [`WARM_S`]; checks
/// that nothing executes. Returns each repeat's wall time in seconds.
fn warm_sweeps(round: &Round, report: &mut Report) -> Vec<f64> {
    let jobs: Vec<_> = round.specs.iter().map(OwnedJobSpec::spec).collect();
    let before = round.engine.metrics().jobs_executed;
    let mut failed = 0;
    let mut walls = Vec::new();
    let mut pin = OneCpu::pin();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < WARM_S {
        pin.refresh();
        let t = Instant::now();
        failed += round.engine.execute_sweep(&jobs).summary.failed;
        walls.push(t.elapsed().as_secs_f64());
    }
    drop(pin);
    let executed = round.engine.metrics().jobs_executed - before;
    report.check(executed == 0 && failed == 0, || {
        format!("warm repeats executed {executed}, failed {failed}")
    });
    walls
}

/// Checks that every report the round's sweep stored is the
/// `codec::encode` of a direct `run::run` of the same spec. The direct
/// runs go `JOB_THREADS` at a time.
fn direct_check(round: &Round, report: &mut Report) {
    let n = round.specs.len();
    let direct: Vec<(usize, Vec<u8>)> = std::thread::scope(|s| {
        let lanes: Vec<_> = (0..JOB_THREADS)
            .map(|lane| {
                s.spawn(move || {
                    (lane..n)
                        .step_by(JOB_THREADS)
                        .map(|i| {
                            let spec = round.specs[i].spec();
                            let r = run::run(
                                spec.pipeline,
                                spec.config,
                                spec.organization,
                                spec.misalignment_sensitive,
                            );
                            (i, codec::encode(&r))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        lanes
            .into_iter()
            .flat_map(|h| h.join().expect("direct run lane"))
            .collect()
    });
    for (i, bytes) in direct {
        check_stored(round, i, &bytes, report);
    }
}

/// One job's check: the bytes the sweep stored equal `direct`.
fn check_stored(round: &Round, i: usize, direct: &[u8], report: &mut Report) {
    let stored = round.engine.cached_bytes(run_key(&round.specs[i].spec()));
    report.check(stored.as_deref().map(Vec::as_slice) == Some(direct), || {
        format!("job {i}: swept report bytes differ from a direct run")
    });
}

pub fn run(args: &Args, work: &WorkDir, report: &mut Report) {
    if args.trace {
        traced(args, work, report);
        return;
    }
    let setups = |n: usize| {
        let mut pin = OneCpu::pin();
        batched(
            n,
            SETUP_BATCH,
            || setup(args.seed, work),
            |round| {
                drop(round);
                pin.refresh();
            },
        )
    };
    setups(1);
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let (mut rates, mut warm, mut p50s, mut p90s, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let last = loop {
        setup_s.extend(setups(SETUP_SAMPLES));
        let round = setup(args.seed, work);
        sys::reset_peak_rss();
        let (wall, done_us) = cold_sweep(&round, report);
        rates.push(round.specs.len() as f64 / wall);
        p50s.push(percentile(&done_us, 0.5).unwrap_or(0.0));
        p90s.push(percentile(&done_us, 0.9).unwrap_or(0.0));
        warm.extend(warm_sweeps(&round, report));
        rss.push(sys::peak_rss_mb());
        // Stop at the round boundary nearest to the time budget.
        if start.elapsed().as_secs_f64() + wall / 2.0 >= args.seconds as f64 {
            break round;
        }
    };
    note(format!(
        "cold_sweep: {} rounds of {} jobs at {rates:.2?} jobs/s, \
         {} set-up samples, peak RSS per round {rss:.1?} MB",
        rates.len(),
        last.specs.len(),
        setup_s.len()
    ));
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));
    report.set("peak_rss_mb", median(&rss).unwrap_or(0.0));
    report.set("ops_per_s", median(&rates).unwrap_or(0.0));
    report.set("warm_sweep_s", fast_tail(&warm, false).unwrap_or(0.0));
    report.set("p50_us", median(&p50s).unwrap_or(0.0));
    report.set("p90_us", median(&p90s).unwrap_or(0.0));
    direct_check(&last, report);
}

/// The front half of every job, before it runs: build the pipeline, lower
/// it, key it. Each call is one span.
pub fn front_half(job: &Job, owned: &OwnedJobSpec, tr: &mut Tracer, rid: u64) -> RunKey {
    let spec = owned.spec();
    let w = registry::find(&job.benchmark).expect("examined benchmark");
    let pipeline = tr.time("workloads.build", rid, || {
        w.pipeline(Scale::new(job.scale))
            .expect("examined benchmark builds")
    });
    let graph = tr.time("core.lower", rid, || {
        heteropipe::lower(
            &pipeline,
            spec.config,
            spec.organization,
            spec.misalignment_sensitive,
        )
    });
    std::hint::black_box(graph.tasks.len());
    tr.time("engine.key", rid, || run_key(&spec))
}

/// The engine's read tiers, one span per call and key: the memory tier
/// (`cached_bytes`), a warm `try_execute`, and the first read through a
/// fresh engine over the same directory (the disk tier). Checks that the
/// tiers agree.
pub fn read_tiers(engine: &Engine, specs: &[OwnedJobSpec], tr: &mut Tracer, report: &mut Report) {
    let dir = engine
        .cache()
        .and_then(|c| c.disk_dir())
        .expect("on-disk engine");
    let reader = Engine::new().with_cache_dir(dir);
    for (i, owned) in specs.iter().enumerate() {
        let rid = i as u64 + 1;
        let key = run_key(&owned.spec());
        let memory = tr.time("engine.cached_bytes", rid, || engine.cached_bytes(key));
        let warm = tr.time("engine.warm_execute", rid, || {
            engine.try_execute(&owned.spec())
        });
        let disk = tr.time("engine.disk_read", rid, || reader.cached_bytes(key));
        report.check(memory.is_some() && warm.is_ok() && disk == memory, || {
            format!("engine read tiers disagree on {}", key.hex())
        });
    }
    let p50_us = |name: &str| median(&tr.durations(name)).unwrap_or(0.0) / 1e3;
    report.set("engine.cached_bytes_us", p50_us("engine.cached_bytes"));
    report.set("engine.warm_execute_us", p50_us("engine.warm_execute"));
    report.set("engine.disk_read_us", p50_us("engine.disk_read"));
}

/// One job's layer calls as a sweep makes them, one at a time from
/// outside: the front half, then run it, encode the report and persist it.
fn decomposed_job(
    job: &Job,
    owned: &OwnedJobSpec,
    cache: &ResultCache,
    tr: &mut Tracer,
    rid: u64,
) -> RunReport {
    let key = front_half(job, owned, tr, rid);
    let spec = owned.spec();
    let r = tr.time("core.run", rid, || {
        run::run(
            spec.pipeline,
            spec.config,
            spec.organization,
            spec.misalignment_sensitive,
        )
    });
    std::hint::black_box(tr.time("engine.encode", rid, || codec::encode(&r)));
    tr.time("engine.persist", rid, || cache.put(key, &r));
    r
}

fn traced(args: &Args, work: &WorkDir, report: &mut Report) {
    let round = setup(args.seed, work);
    let n = round.specs.len() as f64;

    // The real sweep, untraced: what `ops_per_s` measures.
    let (sweep_s, _) = cold_sweep(&round, report);

    let mut tr = Tracer::new(true);
    read_tiers(&round.engine, &round.specs, &mut tr, report);
    let m = round.engine.metrics();
    report.check(m.jobs_executed == round.specs.len() as u64, || {
        format!("warm execute ran jobs: {} executed", m.jobs_executed)
    });

    // The same layer calls traced and untraced, job by job; the difference
    // is the tracing overhead. Right after each job runs, its compute
    // patterns are replayed to split `core.run`, so host drift between the
    // two measurements stays small.
    let mut counts = SimCounts::new();
    let caches = [
        ResultCache::on_disk(work.fresh("decomposed")),
        ResultCache::on_disk(work.fresh("decomposed")),
    ];
    let mut reports = Vec::with_capacity(round.specs.len());
    let mut split = Split::default();
    let walls = tr.interleaved(
        round.specs.len(),
        "cold_sweep.job",
        |i, tr, traced| {
            let r = decomposed_job(
                &round.jobs[i],
                &round.specs[i],
                &caches[usize::from(traced)],
                tr,
                i as u64 + 1,
            );
            if traced {
                reports.push(r);
            }
        },
        |i, tr| {
            let rid = i as u64 + 1;
            let root = tr.enter("core.run.replay", rid);
            split.add(&replay::replay(&round.specs[i].spec(), tr, rid));
            tr.exit(root);
        },
    );
    for (i, (owned, r)) in round.specs.iter().zip(&reports).enumerate() {
        counts.add(&owned.spec(), r);
        check_stored(&round, i, &codec::encode(r), report);
    }

    let run_ns = tr.total_ns("core.run");
    // CPU + GPU accesses: the ones that go through the caches.
    let accesses: u64 = reports
        .iter()
        .map(|r| r.accesses[Component::Cpu.index()] + r.accesses[Component::Gpu.index()])
        .sum();
    let accesses = accesses as f64;
    let mean_us = |name: &str| tr.total_ns(name) / n / 1e3;
    report.set("core.run_ms", run_ns / n / 1e6);
    report.set("core.run_ns_per_access", run_ns / accesses);
    report.set("mem.access_ns", split.mem_ns / accesses);
    report.set("core.footprint_ns", split.footprint_ns / accesses);
    report.set("core.classify_ns", split.classify_ns / accesses);
    report.set("workloads.emit_ns", split.emit_ns / accesses);
    report.set(
        "core.run_residual_ms",
        (run_ns - split.total_ns()) / n / 1e6,
    );
    report.set("replay.coverage", split.accesses as f64 / accesses);
    report.set("workloads.build_us", mean_us("workloads.build"));
    report.set("core.lower_us", mean_us("core.lower"));
    report.set("engine.key_us", mean_us("engine.key"));
    report.set("engine.encode_us", mean_us("engine.encode"));
    report.set("engine.persist_us", mean_us("engine.persist"));
    let job_layers_ns = run_ns + tr.total_ns("engine.key") + tr.total_ns("engine.persist");
    report.set(
        "engine.sweep_overhead_ms",
        (sweep_s * 1e9 - job_layers_ns / JOB_THREADS as f64) / 1e6,
    );
    report.set(
        "engine.hit_ratio",
        m.hits() as f64 / m.jobs_total().max(1) as f64,
    );
    counts.publish(args.seed, m.exec_retries, report);

    let share = |ns: f64| 100.0 * ns / run_ns;
    note(format!(
        "core.run split over {} jobs: mem {:.1}%, footprint {:.1}%, classifier {:.1}%, \
         emission {:.1}%, rest {:.1}% (replay coverage {:.4})",
        round.specs.len(),
        share(split.mem_ns),
        share(split.footprint_ns),
        share(split.classify_ns),
        share(split.emit_ns),
        share(run_ns - split.total_ns()),
        split.accesses as f64 / accesses
    ));
    crate::trace_summary(
        &tr,
        "cold_sweep.job",
        walls,
        "cold_sweep",
        args.seed,
        report,
    );
}
