//! The system runner: executes a lowered task graph on a configured system.
//!
//! Execution is hybrid functional/analytical (DESIGN.md §2): when a task
//! starts, its memory accesses are driven through the functional cache
//! hierarchy (producing hit/miss/writeback tallies, page faults, footprint
//! touches, and off-chip classification events), its intrinsic duration is
//! computed by the CPU/GPU bounds models, and its off-chip traffic becomes a
//! flow in the fluid bandwidth network where concurrent tasks contend for
//! PCIe and DRAM bandwidth. Each component (CPU, GPU, copy engine) is a
//! serial server that picks the lowest-id ready task, so bulk-synchronous,
//! streamed, and chunked organizations all execute deterministically.

use std::collections::BTreeSet;

use heteropipe_cpu::{CpuModel, LevelCounts, StageWork};
use heteropipe_gpu::{GpuModel, Occupancy};
use heteropipe_mem::access::Component;
use heteropipe_mem::{
    AccessKind, AddrRange, ChipHierarchy, LineAddr, PageTable, ServiceLevel, LINE_BYTES,
};
use heteropipe_sim::fluid::{FlowId, FlowSpec};
use heteropipe_sim::{FluidNet, Ps, SplitMix64, Timeline};
use heteropipe_workloads::{BufferInit, ComputeStage, CopyDir, ExecKind, Pipeline, Stage};

use crate::classify::{ClassCounts, OffchipClassifier};
use crate::config::{Platform, SystemConfig};
use crate::footprint::{FootprintTracker, TouchSet};
use crate::organize::{lower, Organization, Server, Task, TaskBody, TaskGraph};
use crate::report::{ComponentTimes, ExclusiveSlice, RunReport};
use crate::trace::TaskSpan;

/// Profiler slot for the run loop's next-completion scan, registered
/// once per process (wall-clock attribution only; never affects results).
fn next_completion_phase() -> heteropipe_obs::profile::PhaseId {
    static P: std::sync::OnceLock<heteropipe_obs::profile::PhaseId> = std::sync::OnceLock::new();
    *P.get_or_init(|| heteropipe_obs::profile::phase("sim.next_completion"))
}

/// Executes `pipeline` on `config` under `org` and reports everything the
/// experiments need.
///
/// `misalignment_sensitive` is the benchmark's Fig. 5 `*` flag (see
/// [`lower`]).
///
/// # Examples
///
/// ```
/// use heteropipe::{run, Organization, SystemConfig};
/// use heteropipe_workloads::{registry, Scale};
///
/// let p = registry::find("rodinia/hotspot").unwrap()
///     .pipeline(Scale::TEST).unwrap();
/// let r = run::run(&p, &SystemConfig::discrete(), Organization::Serial, false);
/// assert!(r.busy.gpu > heteropipe_sim::Ps::ZERO);
/// assert_eq!(r.classes.total(), r.offchip_fetches + r.offchip_writebacks);
/// ```
pub fn run(
    pipeline: &Pipeline,
    config: &SystemConfig,
    org: Organization,
    misalignment_sensitive: bool,
) -> RunReport {
    run_traced(pipeline, config, org, misalignment_sensitive).0
}

/// Like [`run`], but also returns the per-task execution spans for
/// inspection or Chrome-trace export (see [`crate::trace`]).
pub fn run_traced(
    pipeline: &Pipeline,
    config: &SystemConfig,
    org: Organization,
    misalignment_sensitive: bool,
) -> (RunReport, Vec<TaskSpan>) {
    let graph = lower(pipeline, config, org, misalignment_sensitive);
    Runner::new(pipeline, &graph, config, org).execute()
}

struct Resources {
    cpu_mem: heteropipe_sim::ResourceId,
    gpu_mem: heteropipe_sim::ResourceId,
    pcie: Option<heteropipe_sim::ResourceId>,
}

struct FuncResult {
    counts: LevelCounts,
    /// Scattered first-touch faults (full handler round trip each).
    faults_full: u64,
    /// Sequential first-touch faults (batched by handler fault-around).
    faults_batched: u64,
    /// Line accesses from row-buffer-friendly (sequential) patterns.
    seq_accesses: u64,
    /// Line accesses from random (gather/neighbour) patterns.
    rnd_accesses: u64,
}

impl FuncResult {
    /// Fraction of the stage's traffic that is row-buffer friendly.
    fn sequential_fraction(&self) -> f64 {
        let total = self.seq_accesses + self.rnd_accesses;
        if total == 0 {
            1.0
        } else {
            self.seq_accesses as f64 / total as f64
        }
    }
}

struct Runner<'a> {
    pipeline: &'a Pipeline,
    graph: &'a TaskGraph,
    config: &'a SystemConfig,
    org: Organization,
    cpu: CpuModel,
    gpu: GpuModel,
    hierarchy: ChipHierarchy,
    pagetable: PageTable,
    net: FluidNet,
    res: Resources,
    footprint: FootprintTracker,
    classifier: OffchipClassifier,
    accesses: [u64; 3],
    offchip_fetches: u64,
    offchip_writebacks: u64,
    cpu_flops: u64,
    gpu_flops: u64,
    faults: u64,
    /// `(component, start, end)` busy intervals.
    busy: Vec<(Component, Ps, Ps)>,
    /// Kernel-launch / DMA-setup intervals.
    launches: Vec<(Ps, Ps)>,
    spans: Vec<TaskSpan>,
    /// GPU accesses go to SMs round-robin, four at a time: the SM the
    /// last one went to, and how many went there.
    sm: u8,
    sm_run: u8,
}

impl<'a> Runner<'a> {
    fn new(
        pipeline: &'a Pipeline,
        graph: &'a TaskGraph,
        config: &'a SystemConfig,
        org: Organization,
    ) -> Self {
        let mut net = FluidNet::new();
        let gpu_mem = net.add_resource("gpu_mem", config.gpu_mem_bw());
        let cpu_mem = match config.cpu_mem {
            Some(m) => net.add_resource("cpu_mem", m.effective_bw()),
            None => gpu_mem,
        };
        let pcie = config
            .pcie
            .map(|p| net.add_resource("pcie", p.effective_bw()));

        // Page table: CPU-initialized data is mapped when the ROI starts; in
        // the discrete system the GPU allocator pre-maps all device ranges.
        let mut pagetable = PageTable::new();
        for (spec, resolved) in pipeline.buffers.iter().zip(&graph.buffers) {
            if spec.init == BufferInit::Host {
                if let Some(h) = resolved.host {
                    pagetable.map_range(h);
                }
            }
            if config.platform == Platform::DiscreteGpu {
                if let Some(d) = resolved.dev {
                    pagetable.map_range(d);
                }
                if let Some(h) = resolved.host {
                    pagetable.map_range(h);
                }
            }
        }

        Runner {
            pipeline,
            graph,
            config,
            org,
            cpu: CpuModel::new(config.cpu),
            gpu: GpuModel::new(config.gpu),
            hierarchy: ChipHierarchy::new(config.hierarchy),
            pagetable,
            net,
            res: Resources {
                cpu_mem,
                gpu_mem,
                pcie,
            },
            footprint: FootprintTracker::new(),
            classifier: OffchipClassifier::with_spill_window(config.spill_window),
            accesses: [0; 3],
            offchip_fetches: 0,
            offchip_writebacks: 0,
            cpu_flops: 0,
            gpu_flops: 0,
            faults: 0,
            busy: Vec::new(),
            launches: Vec::new(),
            spans: Vec::new(),
            sm: 0,
            sm_run: 1,
        }
    }

    fn execute(mut self) -> (RunReport, Vec<TaskSpan>) {
        let n = self.graph.tasks.len();
        let mut indegree: Vec<usize> = self.graph.tasks.iter().map(|t| t.deps.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for t in &self.graph.tasks {
            for d in &t.deps {
                dependents[d.0].push(t.id.0);
            }
        }
        let mut ready: [BTreeSet<usize>; 3] = [BTreeSet::new(), BTreeSet::new(), BTreeSet::new()];
        let server_of = |t: &Task, p: &Pipeline| match t.server(p) {
            Server::Copy => 0usize,
            Server::Cpu => 1,
            Server::Gpu => 2,
        };
        for (i, t) in self.graph.tasks.iter().enumerate() {
            if indegree[i] == 0 {
                ready[server_of(t, self.pipeline)].insert(i);
            }
        }
        // (task, flow, start) currently running per server.
        let mut running: [Option<(usize, FlowId, Ps)>; 3] = [None, None, None];
        let mut now = Ps::ZERO;
        let mut completed = 0usize;

        while completed < n {
            // Dispatch on every idle server.
            for s in 0..3 {
                if running[s].is_none() {
                    if let Some(&tid) = ready[s].iter().next() {
                        ready[s].remove(&tid);
                        let flow = self.start_task(tid, now);
                        running[s] = Some((tid, flow, now));
                    }
                }
            }
            // Advance to the next completion: a scan over the (at most
            // three) running flows. It is profiled; the profiler only
            // accumulates wall-time counters, so results stay
            // deterministic.
            let (t, flow) = heteropipe_obs::profile::time(next_completion_phase(), || {
                self.net.next_completion()
            })
            .expect("deadlock: tasks pending but nothing running");
            self.net.retire(t, flow);
            now = t;
            let s = (0..3)
                .find(|&s| matches!(running[s], Some((_, f, _)) if f == flow))
                .expect("completed flow belongs to a server");
            let (tid, _, start) = running[s].take().unwrap();
            self.finish_task(tid, start, now);
            completed += 1;
            for &dep in &dependents[tid] {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    let task = &self.graph.tasks[dep];
                    ready[server_of(task, self.pipeline)].insert(dep);
                }
            }
        }

        let spans = std::mem::take(&mut self.spans);
        (self.report(now), spans)
    }

    /// Runs the functional pass and opens the task's flow.
    fn start_task(&mut self, tid: usize, now: Ps) -> FlowId {
        let task = &self.graph.tasks[tid];
        match task.body {
            TaskBody::Compute { stage } => {
                let c = self.pipeline.stages[stage].as_compute().expect("compute");
                let func = self.compute_functional(task, c);
                let (i, nch) = task.chunk;
                let _ = i;
                let frac = 1.0 / nch as f64;
                // SIMT lanes diverge on the random-access fraction of the
                // kernel's traffic (a gather warp serializes its lanes).
                let rnd_frac = 1.0 - func.sequential_fraction();
                let work = StageWork {
                    instructions: (c.instructions as f64 * frac) as u64,
                    flops: (c.flops as f64 * frac) as u64,
                    mem: func.counts,
                    threads: if c.exec == ExecKind::Cpu {
                        c.threads
                    } else {
                        ((c.threads as f64 * frac) as u64).max(1)
                    },
                    simd_efficiency: 1.0 - 0.45 * rnd_frac,
                };
                let (intrinsic, mem_res, launch) = match c.exec {
                    ExecKind::Cpu => {
                        self.cpu_flops += work.flops;
                        (self.cpu.stage_time(&work), self.res.cpu_mem, Ps::ZERO)
                    }
                    ExecKind::Gpu => {
                        self.gpu_flops += work.flops;
                        let occ =
                            Occupancy::of(self.gpu.config(), c.threads_per_cta, c.scratch_per_cta);
                        let kernel = self.gpu.kernel_time(&work, occ)
                            + self
                                .gpu
                                .fault_stall_split(func.faults_full, func.faults_batched);
                        // Fissioned chunks after the first are enqueued
                        // asynchronously: only a small per-launch sliver.
                        let launch = if task.chunk.0 == 0 {
                            self.config.cpu.kernel_launch
                        } else {
                            self.config.cpu.kernel_launch / 8
                        };
                        (kernel, self.res.gpu_mem, launch)
                    }
                };
                if launch > Ps::ZERO {
                    self.launches.push((now, now + launch));
                    self.busy.push((Component::Cpu, now, now + launch));
                }
                let bytes = func.counts.offchip_transactions() as f64 * LINE_BYTES as f64;
                // Row-buffer locality bounds the bandwidth this stage can
                // actually draw from its memory.
                let dram = match c.exec {
                    ExecKind::Cpu => self.config.cpu_mem.unwrap_or(self.config.gpu_mem),
                    ExecKind::Gpu => self.config.gpu_mem,
                };
                let bw_cap = dram.effective_bw_for(func.sequential_fraction());
                let spec = FlowSpec::new(bytes)
                    .over(mem_res)
                    .rate_cap(bw_cap)
                    .min_duration(launch + intrinsic);
                self.net.start_flow(now, spec)
            }
            TaskBody::DmaCopy { stage } => {
                let bytes = self.copy_functional(task, stage);
                // Queued DMA descriptors after the first chunk are cheap.
                let full = self.config.pcie.expect("discrete has pcie").setup_latency();
                let setup = if task.chunk.0 == 0 { full } else { full / 5 };
                self.launches.push((now, now + setup));
                self.busy.push((Component::Cpu, now, now + setup));
                let transfer = self
                    .config
                    .pcie
                    .expect("discrete has pcie")
                    .transfer_time(bytes);
                let mut spec = FlowSpec::new(bytes as f64)
                    .over(self.res.pcie.expect("discrete has pcie"))
                    .over(self.res.cpu_mem)
                    .over(self.res.gpu_mem)
                    .min_duration(setup + transfer);
                if bytes == 0 {
                    spec = FlowSpec::delay(setup);
                }
                self.net.start_flow(now, spec)
            }
            TaskBody::SharedMemcpy { stage } => {
                let bytes = self.copy_functional(task, stage);
                let spec = FlowSpec::new(2.0 * bytes as f64)
                    .over(self.res.gpu_mem)
                    .rate_cap(self.config.memcpy_rate);
                self.net.start_flow(now, spec)
            }
        }
    }

    fn finish_task(&mut self, tid: usize, start: Ps, end: Ps) {
        let task = &self.graph.tasks[tid];
        let component = match task.server(self.pipeline) {
            Server::Copy => Component::Copy,
            Server::Cpu => Component::Cpu,
            Server::Gpu => Component::Gpu,
        };
        // The launch/setup sliver at the head of GPU and DMA tasks is CPU
        // time (already recorded); the engine itself is busy afterwards.
        let head = match task.body {
            TaskBody::Compute { stage } => {
                match self.pipeline.stages[stage]
                    .as_compute()
                    .expect("compute")
                    .exec
                {
                    ExecKind::Gpu if task.chunk.0 == 0 => self.config.cpu.kernel_launch,
                    ExecKind::Gpu => self.config.cpu.kernel_launch / 8,
                    ExecKind::Cpu => Ps::ZERO,
                }
            }
            TaskBody::DmaCopy { .. } => {
                let full = self.config.pcie.expect("discrete has pcie").setup_latency();
                if task.chunk.0 == 0 {
                    full
                } else {
                    full / 5
                }
            }
            TaskBody::SharedMemcpy { .. } => Ps::ZERO,
        };
        let body_start = (start + head).min(end);
        self.busy.push((component, body_start, end));
        self.spans.push(TaskSpan {
            name: match &self.pipeline.stages[task.body.stage()] {
                Stage::Compute(c) => c.name.clone(),
                Stage::Copy(c) => format!("{} {}", c.dir, self.pipeline.buffer(c.buf).name),
            },
            server: task.server(self.pipeline),
            chunk: task.chunk,
            start,
            end,
        });
        if let TaskBody::Compute { stage } = task.body {
            let c = self.pipeline.stages[stage].as_compute().expect("compute");
            // GPU L1s flush at kernel boundaries (write-evict L1s hold only
            // clean data, so the flush is silent).
            if c.exec == ExecKind::Gpu && task.chunk.0 + 1 == task.chunk.1 {
                self.hierarchy.flush_gpu_l1s();
            }
        }
    }

    /// Drives one compute task's access patterns through the caches.
    fn compute_functional(&mut self, task: &Task, c: &ComputeStage) -> FuncResult {
        let (chunk_i, chunk_n) = task.chunk;
        let mut counts = LevelCounts::default();
        let mut faults_full = 0u64;
        let faults_batched = 0u64;
        let hetero = self.config.platform == Platform::Heterogeneous;
        let stage_seq = task.seq_stage;

        let mut seq_accesses = 0u64;
        let mut rnd_accesses = 0u64;

        // Fused kernels interleave their patterns tile-wise: emit each
        // pattern separately, then walk them round-robin in 64-line tiles
        // so a produced tile is consumed while still cache-resident.
        let mut interleaved: Vec<(AccessKind, Vec<LineAddr>)> = Vec::new();

        for (pi, p) in c.patterns.iter().enumerate() {
            let resolved = &self.graph.buffers[p.buf.0];
            let full = match c.exec {
                ExecKind::Cpu => resolved.cpu_range(),
                ExecKind::Gpu => resolved.gpu_range(),
            };
            let elem = self.pipeline.buffers[p.buf.0].elem_bytes;
            let (range, pattern) = if chunk_n > 1 && p.follows_chunk {
                (
                    full.chunks(chunk_n as u64)[chunk_i as usize],
                    p.pattern.chunked(1.0 / chunk_n as f64),
                )
            } else if chunk_n > 1 {
                (full, p.pattern.chunked(1.0 / chunk_n as f64))
            } else {
                (full, p.pattern.clone())
            };
            let mut rng = SplitMix64::new(
                0x5EED_0000 ^ (task.body.stage() as u64) << 32 ^ (chunk_i as u64) << 16 ^ pi as u64,
            );
            let mut lines = Vec::new();
            pattern.emit(range, elem, &mut rng, &mut lines);
            let is_random = matches!(
                pattern,
                heteropipe_workloads::Pattern::Gather { .. }
                    | heteropipe_workloads::Pattern::Neighbors { .. }
            );
            if is_random {
                rnd_accesses += lines.len() as u64;
            } else {
                seq_accesses += lines.len() as u64;
            }

            if c.interleave_patterns {
                interleaved.push((p.kind, lines));
                continue;
            }

            for &line in &lines {
                match c.exec {
                    ExecKind::Cpu => {
                        self.access_cpu(line, p.kind, stage_seq, &mut counts);
                    }
                    ExecKind::Gpu => {
                        // Paper-faithful IOMMU-style faulting: every first
                        // touch is a full serialized CPU round trip
                        // (§III-D; gem5-gpu's handler does no fault-around).
                        if hetero && self.pagetable.touch(line.page()).is_fault() {
                            faults_full += 1;
                            self.clear_page_on_cpu(line, stage_seq);
                        }
                        let sm = self.next_sm();
                        let r = self.hierarchy.gpu_access(sm, line, p.kind);
                        self.accesses[Component::Gpu.index()] += 1;
                        self.footprint.touch(Component::Gpu, line);
                        self.tally(r, line, p.kind, stage_seq, &mut counts);
                    }
                }
            }
        }
        if c.interleave_patterns && !interleaved.is_empty() {
            const TILE: usize = 64;
            let mut offsets = vec![0usize; interleaved.len()];
            let mut remaining = true;
            while remaining {
                remaining = false;
                for (idx, (kind, lines)) in interleaved.iter().enumerate() {
                    let start = offsets[idx];
                    if start >= lines.len() {
                        continue;
                    }
                    let end = (start + TILE).min(lines.len());
                    offsets[idx] = end;
                    remaining = true;
                    for &line in &lines[start..end] {
                        match c.exec {
                            ExecKind::Cpu => {
                                self.access_cpu(line, *kind, stage_seq, &mut counts);
                            }
                            ExecKind::Gpu => {
                                if hetero && self.pagetable.touch(line.page()).is_fault() {
                                    faults_full += 1;
                                    self.clear_page_on_cpu(line, stage_seq);
                                }
                                let sm = self.next_sm();
                                let r = self.hierarchy.gpu_access(sm, line, *kind);
                                self.accesses[Component::Gpu.index()] += 1;
                                self.footprint.touch(Component::Gpu, line);
                                self.tally(r, line, *kind, stage_seq, &mut counts);
                            }
                        }
                    }
                }
            }
        }
        self.faults += faults_full + faults_batched;
        FuncResult {
            counts,
            faults_full,
            faults_batched,
            seq_accesses,
            rnd_accesses,
        }
    }

    /// The SM of the next GPU access: the first three go to SM 0, then
    /// four to each SM in turn, wrapping after the last.
    fn next_sm(&mut self) -> u8 {
        if self.sm_run == 4 {
            self.sm_run = 0;
            self.sm += 1;
            if self.sm == self.config.hierarchy.gpu_sms {
                self.sm = 0;
            }
        }
        self.sm_run += 1;
        self.sm
    }

    fn access_cpu(&mut self, line: LineAddr, kind: AccessKind, seq: u32, counts: &mut LevelCounts) {
        let r = self.hierarchy.cpu_access(0, line, kind);
        self.accesses[Component::Cpu.index()] += 1;
        self.footprint.touch(Component::Cpu, line);
        self.tally(r, line, kind, seq, counts);
    }

    /// The CPU page-fault handler clears freshly mapped pages (Linux
    /// anonymous-page behaviour), shifting accesses from GPU to CPU — the
    /// paper's srad observation.
    fn clear_page_on_cpu(&mut self, line: LineAddr, seq: u32) {
        let page = line.page();
        let mut scratch = LevelCounts::default();
        let base = page.base().line();
        for i in 0..(heteropipe_mem::PAGE_BYTES / LINE_BYTES) {
            self.access_cpu(LineAddr(base.0 + i), AccessKind::Write, seq, &mut scratch);
        }
    }

    fn tally(
        &mut self,
        r: heteropipe_mem::AccessResult,
        line: LineAddr,
        kind: AccessKind,
        seq: u32,
        counts: &mut LevelCounts,
    ) {
        match r.level {
            ServiceLevel::L1 => counts.l1_hits += 1,
            ServiceLevel::L2 => counts.l2_hits += 1,
            ServiceLevel::Remote => counts.remote_hits += 1,
            ServiceLevel::OffChip => {
                // Write misses allocate without fetching (streaming stores
                // of full coalesced lines); only read misses move data in.
                if kind.is_write() {
                    counts.l2_hits += 1; // allocation cost, no DRAM read
                } else {
                    counts.offchip += 1;
                    self.offchip_fetches += 1;
                    self.classifier.fetch(line, seq);
                }
            }
        }
        for wb in r.offchip_writebacks() {
            counts.writebacks += 1;
            self.offchip_writebacks += 1;
            self.classifier.writeback(wb, seq);
        }
    }

    /// DMA / memcpy functional pass. Returns the bytes moved.
    fn copy_functional(&mut self, task: &Task, stage: usize) -> u64 {
        let c = self.pipeline.stages[stage].as_copy().expect("copy stage");
        let spec = &self.pipeline.buffers[c.buf.0];
        let resolved = &self.graph.buffers[c.buf.0];
        let total = c.bytes.unwrap_or(spec.bytes);
        let (chunk_i, chunk_n) = task.chunk;
        let per = total / chunk_n as u64;
        let offset = per * chunk_i as u64;
        let len = if chunk_i + 1 == chunk_n {
            total - offset
        } else {
            per
        };
        let seq = task.seq_stage;

        let host = resolved.cpu_range().slice(offset, len);
        let dev = resolved.gpu_range().slice(offset, len);
        let (src, dst) = match c.dir {
            CopyDir::H2D => (host, dev),
            CopyDir::D2H => (dev, host),
        };

        if self.config.platform == Platform::Heterogeneous {
            // Residual on-chip memcpy: CPU-coherent, counted as copy
            // component traffic over the shared memory.
            for line in src.lines() {
                self.accesses[Component::Copy.index()] += 1;
                self.footprint.touch(Component::Copy, line);
                self.offchip_fetches += 1;
                self.classifier.fetch(line, seq);
            }
            for line in dst.lines() {
                self.accesses[Component::Copy.index()] += 1;
                self.footprint.touch(Component::Copy, line);
                self.offchip_writebacks += 1;
                self.classifier.writeback(line, seq);
            }
            return len;
        }

        match c.dir {
            CopyDir::H2D => {
                let flushed = self.hierarchy.dma_flush_cpu(src);
                self.record_flush(src, flushed, seq);
                self.hierarchy.dma_invalidate_gpu(dst);
            }
            CopyDir::D2H => {
                let flushed = self.hierarchy.dma_flush_gpu(src);
                self.record_flush(src, flushed, seq);
                self.hierarchy.dma_invalidate_cpu(dst);
            }
        }
        for line in src.lines() {
            self.accesses[Component::Copy.index()] += 1;
            self.footprint.touch(Component::Copy, line);
            self.offchip_fetches += 1;
            self.classifier.fetch(line, seq);
        }
        for line in dst.lines() {
            self.accesses[Component::Copy.index()] += 1;
            self.footprint.touch(Component::Copy, line);
            self.offchip_writebacks += 1;
            self.classifier.writeback(line, seq);
        }
        len
    }

    /// Dirty lines flushed ahead of a DMA read are off-chip writebacks of
    /// the first `flushed` dirty lines found in `range` (identity
    /// approximation: the classifier needs a line, and dirty lines are
    /// overwhelmingly a prefix-uniform subset of the range).
    fn record_flush(&mut self, range: AddrRange, flushed: u64, seq: u32) {
        for (i, line) in range.lines().enumerate() {
            if (i as u64) >= flushed {
                break;
            }
            self.offchip_writebacks += 1;
            self.classifier.writeback(line, seq);
        }
    }

    fn report(self, roi: Ps) -> RunReport {
        // Build the activity timeline.
        let mut tl = Timeline::new();
        let copy_c = tl.add_component("copy");
        let cpu_c = tl.add_component("cpu");
        let gpu_c = tl.add_component("gpu");
        let launch_c = tl.add_component("launch");
        for &(comp, s, e) in &self.busy {
            let c = match comp {
                Component::Copy => copy_c,
                Component::Cpu => cpu_c,
                Component::Gpu => gpu_c,
            };
            tl.record(c, s, e);
        }
        for &(s, e) in &self.launches {
            tl.record(launch_c, s, e);
        }
        let bd = tl.breakdown();
        let mut c_serial = Ps::ZERO;
        let mut exclusive = Vec::new();
        for (set, d) in bd.iter() {
            if set.contains(launch_c) && !set.contains(gpu_c) && !set.contains(copy_c) {
                c_serial += d;
            }
            // Exclusive slices over the three real components only.
            let mut label = Vec::new();
            for (c, name) in [(copy_c, "copy"), (cpu_c, "cpu"), (gpu_c, "gpu")] {
                if set.contains(c) {
                    label.push(name);
                }
            }
            if !label.is_empty() {
                exclusive.push(ExclusiveSlice {
                    components: label.join("+"),
                    time: d,
                });
            }
        }
        // Merge duplicate labels (sets differing only in the launch bit).
        exclusive.sort_by(|a, b| a.components.cmp(&b.components));
        exclusive.dedup_by(|b, a| {
            if a.components == b.components {
                a.time += b.time;
                true
            } else {
                false
            }
        });

        let busy = ComponentTimes {
            copy: tl.busy(copy_c),
            cpu: tl.busy(cpu_c),
            gpu: tl.busy(gpu_c),
        };
        let offchip_bytes = (self.offchip_fetches + self.offchip_writebacks) * LINE_BYTES;
        let classes: ClassCounts = self.classifier.finish();
        let footprint = self.footprint.breakdown();
        let total_footprint = self.footprint.total_bytes();
        let bw = self.config.gpu_mem_bw();
        let bw_limited = roi > Ps::ZERO && offchip_bytes as f64 / roi.as_secs_f64() > 0.70 * bw;

        RunReport {
            benchmark: self.pipeline.name.clone(),
            platform: self.config.platform,
            organization: self.org,
            roi,
            busy,
            exclusive,
            accesses: self.accesses,
            offchip_fetches: self.offchip_fetches,
            offchip_writebacks: self.offchip_writebacks,
            offchip_bytes,
            classes,
            footprint,
            total_footprint,
            faults: self.faults,
            c_serial,
            cpu_flops: self.cpu_flops,
            gpu_flops: self.gpu_flops,
            remote_hits: self.hierarchy.remote_hits_cpu() + self.hierarchy.remote_hits_gpu(),
            bw_limited,
        }
    }
}

/// Convenience: the `(TouchSet, bytes)` breakdown type used in reports.
pub type FootprintBreakdown = Vec<(TouchSet, u64)>;

#[cfg(test)]
mod tests {
    use super::*;
    use heteropipe_workloads::{registry, Scale};

    fn kmeans() -> Pipeline {
        registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap()
    }

    #[test]
    fn serial_discrete_run_completes() {
        let p = kmeans();
        let r = run(&p, &SystemConfig::discrete(), Organization::Serial, false);
        assert!(r.roi > Ps::ZERO);
        assert!(r.busy.copy > Ps::ZERO, "copies must take time");
        assert!(r.busy.gpu > Ps::ZERO);
        assert!(r.busy.cpu > Ps::ZERO);
        assert!(r.accesses.iter().sum::<u64>() > 0);
        assert_eq!(r.faults, 0, "discrete GPU never faults");
    }

    #[test]
    fn serial_run_has_no_overlap() {
        let p = kmeans();
        let r = run(&p, &SystemConfig::discrete(), Organization::Serial, false);
        // Bulk-synchronous: busy times sum to (almost exactly) the ROI.
        let total = r.busy.copy + r.busy.cpu + r.busy.gpu;
        let ratio = total.as_secs_f64() / r.roi.as_secs_f64();
        assert!((0.95..=1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn hetero_removes_copy_time_and_shrinks_footprint() {
        let p = kmeans();
        let d = run(&p, &SystemConfig::discrete(), Organization::Serial, false);
        let h = run(
            &p,
            &SystemConfig::heterogeneous(),
            Organization::Serial,
            false,
        );
        assert_eq!(h.busy.copy, Ps::ZERO, "kmeans copies are all elidable");
        assert!(h.roi < d.roi, "copy removal must help kmeans");
        assert!(h.total_footprint < d.total_footprint);
        assert_eq!(h.accesses[Component::Copy.index()], 0);
    }

    #[test]
    fn async_streams_beat_serial_on_discrete() {
        // Per-chunk DMA setup is disproportionate at tiny inputs; use a
        // realistic scale.
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::new(0.5))
            .unwrap();
        let serial = run(&p, &SystemConfig::discrete(), Organization::Serial, false);
        let streamed = run(
            &p,
            &SystemConfig::discrete(),
            Organization::AsyncStreams { streams: 3 },
            false,
        );
        assert!(
            streamed.roi < serial.roi,
            "streams {} vs serial {}",
            streamed.roi,
            serial.roi
        );
    }

    #[test]
    fn chunked_parallel_beats_serial_on_hetero() {
        // Needs a non-trivial scale: at tiny inputs per-chunk kernel-launch
        // overhead swamps the overlap gain (as it would in reality).
        let p = registry::find("rodinia/kmeans")
            .unwrap()
            .pipeline(Scale::new(0.5))
            .unwrap();
        let serial = run(
            &p,
            &SystemConfig::heterogeneous(),
            Organization::Serial,
            false,
        );
        let chunked = run(
            &p,
            &SystemConfig::heterogeneous(),
            Organization::ChunkedParallel { chunks: 6 },
            false,
        );
        assert!(
            chunked.roi < serial.roi,
            "chunked {} vs serial {}",
            chunked.roi,
            serial.roi
        );
    }

    #[test]
    fn srad_faults_on_hetero_only() {
        let p = registry::find("rodinia/srad")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let d = run(&p, &SystemConfig::discrete(), Organization::Serial, false);
        let h = run(
            &p,
            &SystemConfig::heterogeneous(),
            Organization::Serial,
            false,
        );
        assert_eq!(d.faults, 0);
        assert!(
            h.faults > 100,
            "srad's GPU-temp planes must fault: {}",
            h.faults
        );
    }

    #[test]
    fn classifier_totals_match_offchip_traffic() {
        let p = kmeans();
        let r = run(&p, &SystemConfig::discrete(), Organization::Serial, false);
        assert_eq!(r.classes.total(), r.offchip_fetches + r.offchip_writebacks);
    }

    #[test]
    fn footprint_breakdown_covers_total() {
        let p = kmeans();
        let r = run(&p, &SystemConfig::discrete(), Organization::Serial, false);
        let sum: u64 = r.footprint.iter().map(|(_, b)| b).sum();
        assert_eq!(sum, r.total_footprint);
    }

    #[test]
    fn runs_are_deterministic() {
        let p = kmeans();
        let a = run(&p, &SystemConfig::discrete(), Organization::Serial, false);
        let b = run(&p, &SystemConfig::discrete(), Organization::Serial, false);
        assert_eq!(a.roi, b.roi);
        assert_eq!(a.accesses, b.accesses);
        assert_eq!(a.classes, b.classes);
    }

    #[test]
    fn misalignment_increases_gpu_accesses() {
        let p = registry::find("rodinia/hotspot")
            .unwrap()
            .pipeline(Scale::TEST)
            .unwrap();
        let aligned_cfg = {
            let mut c = SystemConfig::heterogeneous();
            c.aligned_allocator = true;
            c
        };
        let aligned = run(&p, &aligned_cfg, Organization::Serial, true);
        let misaligned = run(
            &p,
            &SystemConfig::heterogeneous(),
            Organization::Serial,
            true,
        );
        assert!(
            misaligned.accesses[Component::Gpu.index()] > aligned.accesses[Component::Gpu.index()],
            "misalignment must inflate GPU accesses"
        );
    }
}
