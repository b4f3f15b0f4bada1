//! Splits `heteropipe::run::run` from outside. For one job, the replay
//! lowers the pipeline as `run` does and drives every compute task's
//! access patterns through the same public components `run` uses, timing
//! each step on its own:
//!
//! 1. `workloads.emit` — `Pattern::emit` over `lower`'s resolved buffer
//!    ranges (and the fused-kernel tile interleave);
//! 2. `mem.access` — a fresh `ChipHierarchy` (`cpu_access`/`gpu_access`,
//!    first-touch page clears on the heterogeneous system, the kernel-end
//!    L1 flush);
//! 3. `core.footprint` — `FootprintTracker::touch` per access;
//! 4. `core.classify` — `OffchipClassifier::fetch`/`writeback` per
//!    off-chip event.
//!
//! Tasks replay in task-id order (a topological order of the lowered
//! graph) rather than `run`'s event-driven dispatch order, and copy tasks
//! are not replayed, so cache contents can differ slightly from the real
//! run; the access count does not. What the replay does not cover — the
//! fluid bandwidth net, the CPU/GPU timing models, copy tasks, report
//! assembly — is `run`'s residual.

use heteropipe::config::Platform;
use heteropipe::{lower, FootprintTracker, JobSpec, OffchipClassifier, TaskBody};
use heteropipe_mem::access::Component;
use heteropipe_mem::{
    AccessKind, ChipHierarchy, LineAddr, PageTable, ServiceLevel, LINE_BYTES, PAGE_BYTES,
};
use heteropipe_sim::SplitMix64;
use heteropipe_workloads::{BufferInit, ExecKind, Pattern};

use crate::span::Tracer;

/// Lines a fused kernel's patterns advance per round-robin turn.
const TILE: usize = 64;

/// Time per replay step (ns) and the accesses driven through the caches.
#[derive(Debug, Default, Clone, Copy)]
pub struct Split {
    pub emit_ns: f64,
    pub mem_ns: f64,
    pub footprint_ns: f64,
    pub classify_ns: f64,
    /// `cpu_access` + `gpu_access` calls made.
    pub accesses: u64,
}

impl Split {
    pub fn add(&mut self, o: &Split) {
        self.emit_ns += o.emit_ns;
        self.mem_ns += o.mem_ns;
        self.footprint_ns += o.footprint_ns;
        self.classify_ns += o.classify_ns;
        self.accesses += o.accesses;
    }

    pub fn total_ns(&self) -> f64 {
        self.emit_ns + self.mem_ns + self.footprint_ns + self.classify_ns
    }
}

/// An off-chip event for the classifier: a demand fetch or a writeback.
#[derive(Clone, Copy)]
enum Offchip {
    Fetch(LineAddr),
    Writeback(LineAddr),
}

/// Replays `job`'s compute-stage patterns; spans go to `tr` under `rid`.
pub fn replay(job: &JobSpec<'_>, tr: &mut Tracer, rid: u64) -> Split {
    let (pipeline, config) = (job.pipeline, job.config);
    let graph = lower(
        pipeline,
        config,
        job.organization,
        job.misalignment_sensitive,
    );
    let hetero = config.platform == Platform::Heterogeneous;
    let mut pagetable = PageTable::new();
    for (spec, resolved) in pipeline.buffers.iter().zip(&graph.buffers) {
        if spec.init == BufferInit::Host {
            if let Some(h) = resolved.host {
                pagetable.map_range(h);
            }
        }
        if !hetero {
            for r in [resolved.dev, resolved.host].into_iter().flatten() {
                pagetable.map_range(r);
            }
        }
    }
    let mut hierarchy = ChipHierarchy::new(config.hierarchy);
    let mut footprint = FootprintTracker::new();
    let mut classifier = OffchipClassifier::with_spill_window(config.spill_window);
    let sms = u64::from(config.hierarchy.gpu_sms);
    let mut sm_cursor = 0u64;

    let mut split = Split::default();
    let mut patterns: Vec<(AccessKind, Vec<LineAddr>)> = Vec::new();
    let mut order: Vec<(AccessKind, LineAddr)> = Vec::new();
    let mut touched: Vec<(Component, LineAddr)> = Vec::new();
    let mut offchip: Vec<Offchip> = Vec::new();

    for task in &graph.tasks {
        let TaskBody::Compute { stage } = task.body else {
            continue;
        };
        let c = pipeline.stages[stage].as_compute().expect("compute stage");
        let (chunk_i, chunk_n) = task.chunk;
        let seq = task.seq_stage;

        // 1. Emission, exactly as `run` seeds and slices it.
        let t = tr.enter("workloads.emit", rid);
        let t0 = std::time::Instant::now();
        patterns.clear();
        order.clear();
        for (pi, p) in c.patterns.iter().enumerate() {
            let resolved = &graph.buffers[p.buf.0];
            let full = match c.exec {
                ExecKind::Cpu => resolved.cpu_range(),
                ExecKind::Gpu => resolved.gpu_range(),
            };
            let (range, pattern) = if chunk_n > 1 && p.follows_chunk {
                (
                    full.chunks(u64::from(chunk_n))[chunk_i as usize],
                    p.pattern.chunked(1.0 / f64::from(chunk_n)),
                )
            } else if chunk_n > 1 {
                (full, p.pattern.chunked(1.0 / f64::from(chunk_n)))
            } else {
                (full, p.pattern.clone())
            };
            let mut rng = SplitMix64::new(
                0x5EED_0000 ^ (stage as u64) << 32 ^ u64::from(chunk_i) << 16 ^ pi as u64,
            );
            let mut lines = Vec::new();
            let elem = pipeline.buffers[p.buf.0].elem_bytes;
            Pattern::emit(&pattern, range, elem, &mut rng, &mut lines);
            patterns.push((p.kind, lines));
        }
        if c.interleave_patterns {
            let mut offsets = vec![0usize; patterns.len()];
            let mut remaining = true;
            while remaining {
                remaining = false;
                for (idx, (kind, lines)) in patterns.iter().enumerate() {
                    let start = offsets[idx];
                    if start >= lines.len() {
                        continue;
                    }
                    let end = (start + TILE).min(lines.len());
                    offsets[idx] = end;
                    remaining = true;
                    order.extend(lines[start..end].iter().map(|&l| (*kind, l)));
                }
            }
        } else {
            for (kind, lines) in &patterns {
                order.extend(lines.iter().map(|&l| (*kind, l)));
            }
        }
        split.emit_ns += t0.elapsed().as_nanos() as f64;
        tr.exit(t);

        // 2. The cache hierarchy (plus the page table on first touch).
        let t = tr.enter("mem.access", rid);
        let t0 = std::time::Instant::now();
        touched.clear();
        offchip.clear();
        let mut access = |h: &mut ChipHierarchy, comp: Component, sm: u8, line, kind| {
            let r = match comp {
                Component::Gpu => h.gpu_access(sm, line, kind),
                _ => h.cpu_access(0, line, kind),
            };
            touched.push((comp, line));
            if r.level == ServiceLevel::OffChip && !AccessKind::is_write(kind) {
                offchip.push(Offchip::Fetch(line));
            }
            offchip.extend(r.offchip_writebacks().map(Offchip::Writeback));
        };
        for &(kind, line) in &order {
            match c.exec {
                ExecKind::Cpu => access(&mut hierarchy, Component::Cpu, 0, line, kind),
                ExecKind::Gpu => {
                    if hetero && pagetable.touch(line.page()).is_fault() {
                        // The fault handler clears the fresh page on the CPU.
                        let base = line.page().base().line();
                        for i in 0..PAGE_BYTES / LINE_BYTES {
                            let l = LineAddr(base.0 + i);
                            access(&mut hierarchy, Component::Cpu, 0, l, AccessKind::Write);
                        }
                    }
                    sm_cursor += 1;
                    let sm = ((sm_cursor / 4) % sms) as u8;
                    access(&mut hierarchy, Component::Gpu, sm, line, kind);
                }
            }
        }
        if c.exec == ExecKind::Gpu && chunk_i + 1 == chunk_n {
            hierarchy.flush_gpu_l1s();
        }
        split.mem_ns += t0.elapsed().as_nanos() as f64;
        split.accesses += touched.len() as u64;
        tr.exit(t);

        // 3. Footprint.
        let t = tr.enter("core.footprint", rid);
        let t0 = std::time::Instant::now();
        for &(comp, line) in &touched {
            footprint.touch(comp, line);
        }
        split.footprint_ns += t0.elapsed().as_nanos() as f64;
        tr.exit(t);

        // 4. Off-chip classification.
        let t = tr.enter("core.classify", rid);
        let t0 = std::time::Instant::now();
        for &e in &offchip {
            match e {
                Offchip::Fetch(line) => classifier.fetch(line, seq),
                Offchip::Writeback(line) => classifier.writeback(line, seq),
            }
        }
        split.classify_ns += t0.elapsed().as_nanos() as f64;
        tr.exit(t);
    }
    std::hint::black_box((footprint.total_bytes(), classifier.finish()));
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteropipe::{Organization, SystemConfig};
    use heteropipe_workloads::{registry, Scale};

    #[test]
    fn replay_drives_every_reported_cpu_and_gpu_access() {
        for (name, config, org) in [
            (
                "rodinia/kmeans",
                SystemConfig::discrete(),
                Organization::Serial,
            ),
            (
                "rodinia/srad",
                SystemConfig::heterogeneous(),
                Organization::ChunkedParallel { chunks: 4 },
            ),
            (
                "rodinia/hotspot",
                SystemConfig::discrete(),
                Organization::AsyncStreams { streams: 2 },
            ),
        ] {
            let w = registry::find(name).unwrap();
            let p = w.pipeline(Scale::TEST).unwrap();
            let job = JobSpec {
                pipeline: &p,
                config: &config,
                organization: org,
                misalignment_sensitive: w.meta.misalignment_sensitive,
            };
            let report = heteropipe::run::run(&p, &config, org, job.misalignment_sensitive);
            let split = replay(&job, &mut Tracer::new(false), 0);
            let reported =
                report.accesses[Component::Cpu.index()] + report.accesses[Component::Gpu.index()];
            assert_eq!(split.accesses, reported, "{name}");
            assert!(split.mem_ns > 0.0 && split.emit_ns > 0.0);
        }
    }
}
