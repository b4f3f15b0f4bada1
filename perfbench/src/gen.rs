//! Seeded input generation. Every input a workload hands the program —
//! job lists, sweep bodies, the request mix — comes from here and is a pure
//! function of the workload seed, so the same seed yields byte-identical
//! inputs on every machine.

use heteropipe_serve::Json;
use heteropipe_sim::SplitMix64;
use heteropipe_workloads::registry;

/// Scales a cold job may run at. At 0.2 the median footprint (~4 MB) is
/// past the modelled 1 MB GPU L2, so misses, writebacks and the off-chip
/// classifier do real work; at 0.05 (~1 MB) most accesses hit on chip.
pub const COLD_SCALES: [f64; 2] = [0.2, 0.05];

/// Scale of every `serve_warm` and `cluster_sweep` job.
pub const SMALL_SCALE: f64 = 0.05;

/// Jobs in one `cluster_sweep` sweep.
pub const CLUSTER_JOBS: usize = 64;

/// The organization of one job: the paper's two systems, each serial or
/// overlapped with `n` streams or chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    DiscreteSerial,
    DiscreteAsync(u32),
    HeteroSerial,
    HeteroChunked(u32),
}

impl Variant {
    /// Draws one of the four organization kinds uniformly, then `n` from
    /// {2, 4, 8} for the overlapped kinds.
    fn draw(rng: &mut SplitMix64) -> Variant {
        let kind = rng.below(4);
        Variant::of_kind(kind, rng)
    }

    /// Kind `kind` (0..4, in the order of the variants above) with `n`
    /// drawn from {2, 4, 8}.
    fn of_kind(kind: u64, rng: &mut SplitMix64) -> Variant {
        let n = [2, 4, 8][rng.below(3) as usize];
        match kind {
            0 => Variant::DiscreteSerial,
            1 => Variant::DiscreteAsync(n),
            2 => Variant::HeteroSerial,
            _ => Variant::HeteroChunked(n),
        }
    }

    fn system(self) -> &'static str {
        match self {
            Variant::DiscreteSerial | Variant::DiscreteAsync(_) => "discrete",
            Variant::HeteroSerial | Variant::HeteroChunked(_) => "heterogeneous",
        }
    }

    fn organization(self) -> Json {
        let obj = |k: &str, n: u32| Json::Obj(vec![(k.into(), Json::U64(u64::from(n)))]);
        match self {
            Variant::DiscreteSerial | Variant::HeteroSerial => Json::str("serial"),
            Variant::DiscreteAsync(n) => obj("async_streams", n),
            Variant::HeteroChunked(n) => obj("chunked_parallel", n),
        }
    }
}

/// One simulation job, in the shape `POST /v1/runs` and sweep entries take.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub benchmark: String,
    pub variant: Variant,
    pub scale: f64,
}

impl Job {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("benchmark".into(), Json::str(self.benchmark.as_str())),
            ("system".into(), Json::str(self.variant.system())),
            ("organization".into(), self.variant.organization()),
            ("scale".into(), Json::F64(self.scale)),
        ])
    }
}

/// `{"jobs":[...]}` for `POST /v1/sweeps`.
pub fn sweep_body(jobs: &[Job]) -> Json {
    Json::Obj(vec![(
        "jobs".into(),
        Json::Arr(jobs.iter().map(Job::to_json).collect()),
    )])
}

/// The 46 examined benchmarks, in registry order.
pub fn benchmarks() -> Vec<String> {
    registry::examined()
        .iter()
        .map(|w| w.meta.full_name())
        .collect()
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The `cold_sweep` job list: every examined benchmark at 0.2, then every
/// one at 0.05, in registry order. Covering every benchmark × scale pair
/// keeps the list's cost nearly seed-independent (the benchmarks differ in
/// cost by 100x). The 0.2 jobs take the four organization kinds in turn
/// and the seed picks their `n`; the seed picks the 0.05 jobs' kinds and
/// `n`. A few 0.2 jobs hold most of a sweep's memory, and their kind moves
/// it by up to 15 MB, so a seeded kind there made `peak_rss_mb` a
/// property of the seed. The fixed order keeps the seed from deciding
/// which large jobs overlap on the two job threads, and runs the small
/// jobs last so the threads finish together.
pub fn cold_jobs(seed: u64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed).fork(0xC01D);
    let names = benchmarks();
    let mut jobs: Vec<Job> = names
        .iter()
        .enumerate()
        .map(|(i, b)| Job {
            benchmark: b.clone(),
            variant: Variant::of_kind(i as u64 % 4, &mut rng),
            scale: COLD_SCALES[0],
        })
        .collect();
    jobs.extend(names.iter().map(|b| Job {
        benchmark: b.clone(),
        variant: Variant::draw(&mut rng),
        scale: COLD_SCALES[1],
    }));
    jobs
}

/// The `serve_warm` key set: every examined benchmark once at
/// [`SMALL_SCALE`] with a seeded organization, in seeded order.
pub fn serve_keyset(seed: u64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed).fork(0x5E7);
    let mut jobs: Vec<Job> = benchmarks()
        .into_iter()
        .map(|b| Job {
            benchmark: b,
            variant: Variant::draw(&mut rng),
            scale: SMALL_SCALE,
        })
        .collect();
    shuffle(&mut jobs, &mut rng);
    jobs
}

/// The `cluster_sweep` body: every examined benchmark once plus a second,
/// different organization for 18 of them, all at [`SMALL_SCALE`] — 64
/// distinct jobs in seeded order.
pub fn cluster_jobs(seed: u64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed).fork(0xC1u64 << 8);
    let names = benchmarks();
    let mut jobs: Vec<Job> = names
        .iter()
        .map(|b| Job {
            benchmark: b.clone(),
            variant: Variant::draw(&mut rng),
            scale: SMALL_SCALE,
        })
        .collect();
    let mut extra: Vec<usize> = (0..names.len()).collect();
    shuffle(&mut extra, &mut rng);
    for &i in &extra[..CLUSTER_JOBS - names.len()] {
        let first = jobs[i].variant;
        let variant = loop {
            let v = Variant::draw(&mut rng);
            if v != first {
                break v;
            }
        };
        jobs.push(Job {
            benchmark: names[i].clone(),
            variant,
            scale: SMALL_SCALE,
        });
    }
    shuffle(&mut jobs, &mut rng);
    jobs
}

/// A route of the `serve_warm` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    RunsGet,
    RunsPost,
    Healthz,
    SweepsPost,
    WorkflowsPost,
    MetricsJson,
    MetricsProm,
}

impl Route {
    pub const ALL: [Route; 7] = [
        Route::RunsGet,
        Route::RunsPost,
        Route::Healthz,
        Route::SweepsPost,
        Route::WorkflowsPost,
        Route::MetricsJson,
        Route::MetricsProm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Route::RunsGet => "runs_get",
            Route::RunsPost => "runs_post",
            Route::Healthz => "healthz",
            Route::SweepsPost => "sweeps_post",
            Route::WorkflowsPost => "workflows_post",
            Route::MetricsJson => "metrics_json",
            Route::MetricsProm => "metrics_prom",
        }
    }
}

/// One request of the mix: a route and, for the keyed routes, an index
/// into the key set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixEntry {
    pub route: Route,
    pub key: usize,
}

/// Jobs in the warm `POST /v1/sweeps` body of the mix.
pub const MIX_SWEEP_JOBS: usize = 8;

/// The `serve_warm` request sequence, `len` entries cycled by the closed
/// loop. Per 1000 requests: 600 `GET /v1/runs/{key}`, 200 warm
/// `POST /v1/runs`, 160 `/healthz` and 40 heavy requests split evenly over
/// warm sweeps, warm `fig3` workflows and both `/metrics` formats. Heavy
/// routes stay rare so p50 and p90 sit inside the light routes rather than
/// on a route boundary.
pub fn serve_mix(seed: u64, len: usize, keys: usize) -> Vec<MixEntry> {
    let mut rng = SplitMix64::new(seed).fork(0x313);
    (0..len)
        .map(|_| {
            let route = match rng.below(1000) {
                0..=599 => Route::RunsGet,
                600..=799 => Route::RunsPost,
                800..=959 => Route::Healthz,
                960..=969 => Route::SweepsPost,
                970..=979 => Route::WorkflowsPost,
                980..=989 => Route::MetricsJson,
                _ => Route::MetricsProm,
            };
            MixEntry {
                route,
                key: rng.below(keys as u64) as usize,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump(jobs: &[Job]) -> String {
        sweep_body(jobs).dump()
    }

    #[test]
    fn one_seed_yields_byte_identical_inputs() {
        for seed in [1, 7, 0xDEAD_BEEF] {
            assert_eq!(dump(&cold_jobs(seed)), dump(&cold_jobs(seed)));
            assert_eq!(dump(&serve_keyset(seed)), dump(&serve_keyset(seed)));
            assert_eq!(dump(&cluster_jobs(seed)), dump(&cluster_jobs(seed)));
            assert_eq!(serve_mix(seed, 4096, 46), serve_mix(seed, 4096, 46));
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        assert_ne!(dump(&cold_jobs(1)), dump(&cold_jobs(2)));
        assert_ne!(dump(&cluster_jobs(1)), dump(&cluster_jobs(2)));
        assert_ne!(serve_mix(1, 256, 46), serve_mix(2, 256, 46));
    }

    #[test]
    fn cold_jobs_cover_every_benchmark_at_both_scales_large_first() {
        let names = benchmarks();
        assert_eq!(names.len(), 46);
        let jobs = cold_jobs(5);
        assert_eq!(jobs.len(), 92);
        for (half, &scale) in jobs.chunks(46).zip(&COLD_SCALES) {
            assert!(half.iter().all(|j| j.scale == scale));
            let seen: Vec<&String> = half.iter().map(|j| &j.benchmark).collect();
            assert_eq!(seen, names.iter().collect::<Vec<_>>());
        }
        let kind = |v: Variant| match v {
            Variant::DiscreteSerial => 0,
            Variant::DiscreteAsync(_) => 1,
            Variant::HeteroSerial => 2,
            Variant::HeteroChunked(_) => 3,
        };
        for (i, j) in jobs[..46].iter().enumerate() {
            assert_eq!(kind(j.variant), i % 4, "{j:?}");
        }
    }

    #[test]
    fn cluster_jobs_are_64_distinct_runnable_specs() {
        let jobs = cluster_jobs(11);
        assert_eq!(jobs.len(), CLUSTER_JOBS);
        for (i, a) in jobs.iter().enumerate() {
            assert!(jobs[i + 1..].iter().all(|b| a != b), "duplicate {a:?}");
            heteropipe_serve::api::parse_job_spec(&a.to_json()).expect("runnable spec");
        }
    }

    #[test]
    fn mix_matches_its_stated_shares() {
        let mix = serve_mix(3, 100_000, 46);
        let share = |r: Route| mix.iter().filter(|e| e.route == r).count() as f64 / 1e5;
        assert!(share(Route::RunsGet) >= 0.5);
        let heavy: f64 = [
            Route::SweepsPost,
            Route::WorkflowsPost,
            Route::MetricsJson,
            Route::MetricsProm,
        ]
        .iter()
        .map(|&r| share(r))
        .sum();
        assert!(heavy <= 0.05, "heavy share {heavy}");
        assert!(mix.iter().all(|e| e.key < 46));
    }
}
