//! Exact simulated counts and a digest of the reports behind them. A
//! change that only makes the program faster must leave all of these
//! identical for the same seed.

use heteropipe::{lower, JobSpec, RunReport};
use heteropipe_engine::codec;

use crate::Report;

#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimCounts {
    pub jobs: u64,
    pub tasks: u64,
    pub accesses: u64,
    pub offchip_fetches: u64,
    pub writebacks: u64,
    pub faults: u64,
    /// FNV-1a over every report's encoded bytes, in job order.
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl SimCounts {
    pub fn new() -> SimCounts {
        SimCounts {
            digest: FNV_OFFSET,
            ..SimCounts::default()
        }
    }

    pub fn add(&mut self, job: &JobSpec<'_>, report: &RunReport) {
        let graph = lower(
            job.pipeline,
            job.config,
            job.organization,
            job.misalignment_sensitive,
        );
        self.jobs += 1;
        self.tasks += graph.tasks.len() as u64;
        self.accesses += report.accesses.iter().sum::<u64>();
        self.offchip_fetches += report.offchip_fetches;
        self.writebacks += report.offchip_writebacks;
        self.faults += report.faults;
        for b in codec::encode(report) {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest folded to 32 bits, so it survives a JSON number exactly.
    pub fn digest32(&self) -> u32 {
        (self.digest ^ (self.digest >> 32)) as u32
    }

    /// Writes the `sim.*` metrics and prints the counts for this seed.
    pub fn publish(&self, seed: u64, retries: u64, r: &mut Report) {
        r.set("sim.jobs", self.jobs as f64);
        r.set("sim.tasks", self.tasks as f64);
        r.set("sim.accesses", self.accesses as f64);
        r.set("sim.offchip_fetches", self.offchip_fetches as f64);
        r.set("sim.writebacks", self.writebacks as f64);
        r.set("sim.faults", self.faults as f64);
        r.set("sim.report_digest", f64::from(self.digest32()));
        r.set("engine.retries", retries as f64);
        crate::note(format!(
            "seed {seed}: exact counts jobs={} tasks={} accesses={} offchip_fetches={} \
             writebacks={} faults={} engine_retries={retries} report_digest={:08x}",
            self.jobs,
            self.tasks,
            self.accesses,
            self.offchip_fetches,
            self.writebacks,
            self.faults,
            self.digest32()
        ));
    }
}
