//! The workflow runner: level-parallel scheduling, per-stage memoization,
//! fault isolation, journaling, and observability.
//!
//! [`FlowRunner::run_observed`] executes a validated [`TaskGraph`] one
//! topological level at a time. Within a level, stages that must run fan
//! out over [`heteropipe::exec::par_map`]'s bounded work-queue, capped by
//! the engine's `--jobs` setting — the same pool discipline the engine's
//! sweep pipeline uses. Before a stage runs, its key is probed against
//! the in-process memo: a hit returns the shared value without executing
//! (the `cache_hit` flag on its event), which is how shared sweep
//! prefixes across figure graphs execute exactly once. Sweep stages are
//! additionally backed by the engine's two-tier result cache underneath,
//! so even a fresh runner re-renders from disk instead of re-simulating.
//!
//! Failure is per-stage: a closure that returns `Err` or panics fails its
//! own stage (engine-level retry/quarantine has already run inside it),
//! transitively skips its dependents, and leaves independent branches
//! untouched. Failed stages are never memoized.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use heteropipe::exec::par_map;
use heteropipe_engine::Engine;
use heteropipe_obs::log as obs_log;
use heteropipe_obs::{FifoMap, JobTrace, Phase};

use crate::graph::{FlowError, StageCtx, StageKind, StageValue, TaskGraph};

/// How many journaled workflow results are retained (oldest evicted).
const JOURNAL_CAP: usize = 64;

/// Profiler slot covering each workflow stage body (wall-clock
/// attribution only; results are unaffected).
fn flow_stage_phase() -> heteropipe_obs::profile::PhaseId {
    static P: std::sync::OnceLock<heteropipe_obs::profile::PhaseId> = std::sync::OnceLock::new();
    *P.get_or_init(|| heteropipe_obs::profile::phase("flow.stage"))
}

/// How one stage concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Produced its value (fresh or from the memo).
    Ok,
    /// The stage body returned an error or panicked.
    Failed,
    /// Never ran: an upstream stage failed or was itself skipped.
    Skipped,
}

impl StageStatus {
    /// The status's stable JSON token.
    pub fn label(self) -> &'static str {
        match self {
            StageStatus::Ok => "ok",
            StageStatus::Failed => "error",
            StageStatus::Skipped => "skipped",
        }
    }
}

/// One stage-completion event, pushed to the observer sink as each
/// scheduling level resolves (stage order within a level is insertion
/// order, so event order is deterministic).
#[derive(Debug, Clone)]
pub struct StageEvent {
    /// Stage name.
    pub stage: String,
    /// Stage kind.
    pub kind: StageKind,
    /// The stage key as 32 lowercase hex digits.
    pub key_hex: String,
    /// How the stage concluded.
    pub status: StageStatus,
    /// True when the value came from the stage memo without executing.
    pub cache_hit: bool,
    /// Stage wall time, nanoseconds (0 for memo hits and skips).
    pub wall_ns: u64,
    /// The failure or skip reason, when not `Ok`.
    pub error: Option<String>,
}

/// Aggregate accounting for one workflow run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkflowSummary {
    /// Stages in the graph.
    pub stages_total: u64,
    /// Stages that actually executed their body.
    pub executed: u64,
    /// Stages served from the memo.
    pub cache_hits: u64,
    /// Stages whose body failed.
    pub failed: u64,
    /// Stages skipped because an upstream stage did not complete.
    pub skipped: u64,
    /// Wall time for the whole workflow, nanoseconds.
    pub wall_ns: u64,
}

/// What a workflow run produces (and what the journal retains).
#[derive(Debug, Clone)]
pub struct WorkflowResult {
    /// The workflow key as 32 lowercase hex digits.
    pub key_hex: String,
    /// The graph's name.
    pub name: String,
    /// One event per stage, in deterministic schedule order.
    pub events: Vec<StageEvent>,
    /// Aggregate accounting.
    pub summary: WorkflowSummary,
    /// Rendered text of each declared output stage that completed, in
    /// declaration order.
    pub outputs: Vec<(String, Arc<String>)>,
}

/// Counters for the workflow engine, exported through `/metrics`.
#[derive(Debug, Default)]
struct FlowMetrics {
    workflows: AtomicU64,
    stages: AtomicU64,
    stage_cache_hits: AtomicU64,
    stage_failures: AtomicU64,
}

/// A point-in-time copy of the workflow counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowMetricsSnapshot {
    /// Workflows executed.
    pub workflows: u64,
    /// Stage slots processed across all workflows (hits and skips
    /// included).
    pub stages: u64,
    /// Stages served from the memo.
    pub stage_cache_hits: u64,
    /// Stages whose body failed.
    pub stage_failures: u64,
}

/// Executes [`TaskGraph`]s against one engine, memoizing stage values by
/// stage key and journaling results by workflow key.
pub struct FlowRunner {
    engine: Arc<Engine>,
    memo: Mutex<HashMap<u128, StageValue>>,
    journal: Mutex<FifoMap<String, Arc<WorkflowResult>>>,
    metrics: FlowMetrics,
}

impl std::fmt::Debug for FlowRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowRunner")
            .field("memoized", &self.memo.lock().unwrap().len())
            .finish()
    }
}

impl FlowRunner {
    /// A runner executing through `engine`.
    pub fn new(engine: Arc<Engine>) -> FlowRunner {
        FlowRunner {
            engine,
            memo: Mutex::new(HashMap::new()),
            journal: Mutex::new(FifoMap::new(JOURNAL_CAP)),
            metrics: FlowMetrics::default(),
        }
    }

    /// The engine this runner executes through.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// A snapshot of the workflow counters.
    pub fn metrics(&self) -> FlowMetricsSnapshot {
        FlowMetricsSnapshot {
            workflows: self.metrics.workflows.load(Ordering::Relaxed),
            stages: self.metrics.stages.load(Ordering::Relaxed),
            stage_cache_hits: self.metrics.stage_cache_hits.load(Ordering::Relaxed),
            stage_failures: self.metrics.stage_failures.load(Ordering::Relaxed),
        }
    }

    /// The journaled result for a workflow key (lowercase hex), if still
    /// retained.
    pub fn journaled(&self, key_hex: &str) -> Option<Arc<WorkflowResult>> {
        self.journal.lock().unwrap().get(key_hex).cloned()
    }

    /// Runs `graph` with no observer.
    pub fn run(&self, graph: &TaskGraph) -> Result<Arc<WorkflowResult>, FlowError> {
        self.run_observed(graph, None, &|_| {})
    }

    /// Runs `graph`, stamping `request_id` on the workflow trace and log
    /// records and invoking `sink` once per stage as each scheduling
    /// level resolves. Returns `Err` only for an invalid graph; stage
    /// failures are reported per-event and in the summary.
    pub fn run_observed(
        &self,
        graph: &TaskGraph,
        request_id: Option<&str>,
        sink: &(dyn Fn(&StageEvent) + Sync),
    ) -> Result<Arc<WorkflowResult>, FlowError> {
        self.run_observed_deadline(graph, request_id, sink, None)
    }

    /// [`FlowRunner::run_observed`] under a wall-clock deadline (the
    /// `X-Deadline-Ms` budget the serving layer parsed): stages whose
    /// level starts after `deadline` fail with a "deadline exceeded"
    /// event instead of executing, and their dependents skip as with any
    /// other stage failure. Memo hits are still served — they cost no
    /// budget worth protecting.
    pub fn run_observed_deadline(
        &self,
        graph: &TaskGraph,
        request_id: Option<&str>,
        sink: &(dyn Fn(&StageEvent) + Sync),
        deadline: Option<Instant>,
    ) -> Result<Arc<WorkflowResult>, FlowError> {
        let start = Instant::now();
        let plan = graph.plan()?;
        let keys = graph.stage_keys(&plan);
        let ordered: Vec<_> = plan.order.iter().map(|&i| keys[i]).collect();
        let wkey = heteropipe_engine::composite_key("workflow", &[graph.name.as_str()], &ordered);

        let n = graph.stages.len();
        let mut values: Vec<Option<StageValue>> = (0..n).map(|_| None).collect();
        let mut events: Vec<Option<StageEvent>> = (0..n).map(|_| None).collect();
        // (start offset, duration) per stage, for the workflow trace.
        let mut spans: Vec<(u64, u64)> = vec![(0, 0); n];

        for level in &plan.levels {
            let mut to_run: Vec<usize> = Vec::new();
            for &i in level {
                let stage = &graph.stages[i];
                // An upstream failure or skip propagates as a skip.
                let broken_dep = plan.dep_idx[i].iter().copied().find(|&d| {
                    events[d]
                        .as_ref()
                        .is_some_and(|e| e.status != StageStatus::Ok)
                });
                if let Some(d) = broken_dep {
                    let cause = &graph.stages[d].name;
                    let ev = StageEvent {
                        stage: stage.name.clone(),
                        kind: stage.kind,
                        key_hex: keys[i].hex(),
                        status: StageStatus::Skipped,
                        cache_hit: false,
                        wall_ns: 0,
                        error: Some(format!("upstream stage {cause:?} did not complete")),
                    };
                    spans[i] = (start.elapsed().as_nanos() as u64, 0);
                    sink(&ev);
                    events[i] = Some(ev);
                    continue;
                }
                // Memo probe: a hit shares the value without executing.
                let memoized = self.memo.lock().unwrap().get(&keys[i].0).cloned();
                if let Some(v) = memoized {
                    values[i] = Some(v);
                    let ev = StageEvent {
                        stage: stage.name.clone(),
                        kind: stage.kind,
                        key_hex: keys[i].hex(),
                        status: StageStatus::Ok,
                        cache_hit: true,
                        wall_ns: 0,
                        error: None,
                    };
                    spans[i] = (start.elapsed().as_nanos() as u64, 0);
                    sink(&ev);
                    events[i] = Some(ev);
                    continue;
                }
                to_run.push(i);
            }

            if to_run.is_empty() {
                continue;
            }
            // Deadline gate: once the budget is spent, remaining stages
            // fail (not skip — skipping implies an upstream cause) so
            // dependents cascade and the summary counts the abort.
            if deadline.is_some_and(|dl| Instant::now() >= dl) {
                for &i in &to_run {
                    let stage = &graph.stages[i];
                    let ev = StageEvent {
                        stage: stage.name.clone(),
                        kind: stage.kind,
                        key_hex: keys[i].hex(),
                        status: StageStatus::Failed,
                        cache_hit: false,
                        wall_ns: 0,
                        error: Some("deadline exceeded before stage execution".to_string()),
                    };
                    spans[i] = (start.elapsed().as_nanos() as u64, 0);
                    sink(&ev);
                    events[i] = Some(ev);
                }
                continue;
            }
            // Fan the level's runnable stages out over the engine's job
            // pool. Panics are captured per item by `par_map`, which is
            // the stage-level fault isolation: engine retry/quarantine
            // has already run inside the stage body.
            let results = par_map(&to_run, self.engine.jobs(), |&i| {
                let stage = &graph.stages[i];
                let deps: Vec<StageValue> = plan.dep_idx[i]
                    .iter()
                    .map(|&d| values[d].clone().expect("deps resolve in earlier levels"))
                    .collect();
                let ctx = StageCtx {
                    engine: &self.engine,
                    deps: &deps,
                };
                let off = start.elapsed().as_nanos() as u64;
                let t0 = Instant::now();
                let out = (stage.run)(&ctx);
                let wall = t0.elapsed().as_nanos() as u64;
                heteropipe_obs::profile::record(flow_stage_phase(), wall);
                (off, wall, out)
            });
            for (slot, result) in results.into_iter().enumerate() {
                let i = to_run[slot];
                let stage = &graph.stages[i];
                let (status, cache_hit, error) = match result {
                    Ok((off, wall, Ok(value))) => {
                        spans[i] = (off, wall);
                        self.memo.lock().unwrap().insert(keys[i].0, value.clone());
                        values[i] = Some(value);
                        (StageStatus::Ok, false, None)
                    }
                    Ok((off, wall, Err(msg))) => {
                        spans[i] = (off, wall);
                        (StageStatus::Failed, false, Some(msg))
                    }
                    Err(panic) => {
                        spans[i] = (start.elapsed().as_nanos() as u64, 0);
                        (StageStatus::Failed, false, Some(panic.message))
                    }
                };
                if status == StageStatus::Failed {
                    obs_log::warn(
                        "flow",
                        "stage failed",
                        &[
                            ("request_id", request_id.unwrap_or("-").into()),
                            ("workflow", graph.name.as_str().into()),
                            ("stage", stage.name.as_str().into()),
                            ("error", error.as_deref().unwrap_or("-").into()),
                        ],
                    );
                }
                let ev = StageEvent {
                    stage: stage.name.clone(),
                    kind: stage.kind,
                    key_hex: keys[i].hex(),
                    status,
                    cache_hit,
                    wall_ns: spans[i].1,
                    error,
                };
                sink(&ev);
                events[i] = Some(ev);
            }
        }

        let events: Vec<StageEvent> = plan
            .order
            .iter()
            .map(|&i| events[i].take().expect("every stage resolves"))
            .collect();
        let mut summary = WorkflowSummary {
            stages_total: n as u64,
            ..WorkflowSummary::default()
        };
        for e in &events {
            match (e.status, e.cache_hit) {
                (StageStatus::Ok, true) => summary.cache_hits += 1,
                (StageStatus::Ok, false) => summary.executed += 1,
                (StageStatus::Failed, _) => summary.failed += 1,
                (StageStatus::Skipped, _) => summary.skipped += 1,
            }
        }
        summary.wall_ns = start.elapsed().as_nanos() as u64;

        self.metrics.workflows.fetch_add(1, Ordering::Relaxed);
        self.metrics.stages.fetch_add(n as u64, Ordering::Relaxed);
        self.metrics
            .stage_cache_hits
            .fetch_add(summary.cache_hits, Ordering::Relaxed);
        self.metrics
            .stage_failures
            .fetch_add(summary.failed, Ordering::Relaxed);

        // The workflow's trace: one phase per stage with real start
        // offsets, so concurrent stages overlap in the Chrome view.
        let phases: Vec<Phase> = plan
            .order
            .iter()
            .map(|&i| Phase {
                name: graph.stages[i].name.clone(),
                start_ns: spans[i].0,
                dur_ns: spans[i].1,
            })
            .collect();
        self.engine.traces().insert(JobTrace {
            key_hex: wkey.hex(),
            benchmark: format!("workflow[{}]", graph.name),
            request_id: request_id.map(str::to_owned),
            outcome: "workflow".to_owned(),
            phases,
            sim_events: Vec::new(),
        });
        obs_log::info(
            "flow",
            "workflow executed",
            &[
                ("request_id", request_id.unwrap_or("-").into()),
                ("workflow_key", wkey.hex().into()),
                ("workflow", graph.name.as_str().into()),
                ("stages", summary.stages_total.into()),
                ("executed", summary.executed.into()),
                ("cache_hits", summary.cache_hits.into()),
                ("failed", summary.failed.into()),
                ("skipped", summary.skipped.into()),
                ("wall_ms", (summary.wall_ns / 1_000_000).into()),
            ],
        );

        let outputs = graph
            .outputs
            .iter()
            .filter_map(|name| {
                let i = graph.stages.iter().position(|s| &s.name == name)?;
                match values[i].as_ref()? {
                    StageValue::Text(t) => Some((name.clone(), Arc::clone(t))),
                    StageValue::Pairs(_) => None,
                }
            })
            .collect();

        let result = Arc::new(WorkflowResult {
            key_hex: wkey.hex(),
            name: graph.name.clone(),
            events,
            summary,
            outputs,
        });
        self.journal
            .lock()
            .unwrap()
            .insert(result.key_hex.clone(), Arc::clone(&result));
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Stage;

    fn runner() -> FlowRunner {
        FlowRunner::new(Arc::new(Engine::new().memory_cache_only()))
    }

    fn text_stage(name: &str, body: &str) -> Stage {
        let body = body.to_owned();
        Stage::new(name, StageKind::Render, move |_| {
            Ok(StageValue::from_text(body.clone()))
        })
        .input(format!("body={name}"))
    }

    #[test]
    fn linear_graph_runs_and_outputs_in_declaration_order() {
        let r = runner();
        let mut g = TaskGraph::new("linear");
        g.add(text_stage("a", "alpha"));
        g.add(
            Stage::new("b", StageKind::Analysis, |ctx| {
                Ok(StageValue::from_text(format!("saw {}", ctx.dep_text(0)?)))
            })
            .dep("a"),
        );
        g.output("b").output("a");
        let res = r.run(&g).unwrap();
        assert_eq!(res.summary.executed, 2);
        assert_eq!(res.summary.failed, 0);
        assert_eq!(
            res.outputs
                .iter()
                .map(|(n, t)| (n.as_str(), t.as_str()))
                .collect::<Vec<_>>(),
            vec![("b", "saw alpha"), ("a", "alpha")],
        );
        assert_eq!(res.events.len(), 2);
        assert!(res.events.iter().all(|e| e.status == StageStatus::Ok));
    }

    #[test]
    fn warm_rerun_is_pure_memo_hits() {
        let r = runner();
        let mut g = TaskGraph::new("memo");
        g.add(text_stage("a", "x"));
        g.add(text_stage("b", "y"));
        g.output("a").output("b");
        let cold = r.run(&g).unwrap();
        assert_eq!(cold.summary.executed, 2);
        assert_eq!(cold.summary.cache_hits, 0);

        let warm = r.run(&g).unwrap();
        assert_eq!(warm.summary.executed, 0, "warm re-run executes no stage");
        assert_eq!(warm.summary.cache_hits, 2);
        assert!(warm.events.iter().all(|e| e.cache_hit));
        assert_eq!(warm.outputs.len(), 2, "outputs still materialize");
        assert_eq!(warm.key_hex, cold.key_hex);

        let m = r.metrics();
        assert_eq!(m.workflows, 2);
        assert_eq!(m.stages, 4);
        assert_eq!(m.stage_cache_hits, 2);
    }

    #[test]
    fn shared_stages_across_graphs_execute_once() {
        let r = runner();
        let shared = || text_stage("shared", "s");
        let mut g1 = TaskGraph::new("g1");
        g1.add(shared());
        let mut g2 = TaskGraph::new("g2");
        g2.add(shared());
        assert_eq!(r.run(&g1).unwrap().summary.executed, 1);
        let second = r.run(&g2).unwrap();
        assert_eq!(second.summary.executed, 0, "same stage key, new graph");
        assert_eq!(second.summary.cache_hits, 1);
    }

    #[test]
    fn failing_stage_skips_dependents_but_not_independent_branches() {
        let r = runner();
        let mut g = TaskGraph::new("faulty");
        g.add(Stage::new("bad", StageKind::Analysis, |_| {
            Err("deliberate".to_owned())
        }));
        g.add(
            Stage::new("child", StageKind::Render, |ctx| {
                Ok(StageValue::from_text(ctx.dep_text(0)?.to_owned()))
            })
            .dep("bad"),
        );
        g.add(
            Stage::new("grandchild", StageKind::Render, |ctx| {
                Ok(StageValue::from_text(ctx.dep_text(0)?.to_owned()))
            })
            .dep("child"),
        );
        g.add(text_stage("independent", "fine"));
        g.output("independent");
        let res = r.run(&g).unwrap();
        let by_name = |n: &str| res.events.iter().find(|e| e.stage == n).unwrap();
        assert_eq!(by_name("bad").status, StageStatus::Failed);
        assert_eq!(by_name("bad").error.as_deref(), Some("deliberate"));
        assert_eq!(by_name("child").status, StageStatus::Skipped);
        assert_eq!(by_name("grandchild").status, StageStatus::Skipped);
        assert_eq!(by_name("independent").status, StageStatus::Ok);
        assert_eq!(res.summary.failed, 1);
        assert_eq!(res.summary.skipped, 2);
        assert_eq!(res.outputs.len(), 1, "independent output survives");
        assert_eq!(r.metrics().stage_failures, 1);
    }

    #[test]
    fn panicking_stage_is_contained_and_not_memoized() {
        let r = runner();
        let mut g = TaskGraph::new("panicky");
        g.add(Stage::new("boom", StageKind::Analysis, |_| {
            panic!("kaboom")
        }));
        let res = r.run(&g).unwrap();
        assert_eq!(res.events[0].status, StageStatus::Failed);
        assert!(
            res.events[0].error.as_deref().unwrap().contains("kaboom"),
            "panic message surfaces: {:?}",
            res.events[0].error
        );
        // Failures are not memoized: a re-run tries again.
        let again = r.run(&g).unwrap();
        assert_eq!(again.summary.cache_hits, 0);
        assert_eq!(again.summary.failed, 1);
    }

    #[test]
    fn journal_retains_results_by_workflow_key() {
        let r = runner();
        let mut g = TaskGraph::new("journaled");
        g.add(text_stage("a", "x"));
        g.output("a");
        let res = r.run(&g).unwrap();
        let back = r.journaled(&res.key_hex).expect("journaled");
        assert_eq!(back.name, "journaled");
        assert_eq!(back.summary, res.summary);
        assert!(r.journaled(&"0".repeat(32)).is_none());
    }

    #[test]
    fn workflow_trace_lands_in_the_engine_trace_store() {
        let r = runner();
        let mut g = TaskGraph::new("traced");
        g.add(text_stage("a", "x"));
        let res = r.run_observed(&g, Some("req-test"), &|_| {}).unwrap();
        let trace = r.engine().traces().get(&res.key_hex).expect("trace");
        assert_eq!(trace.benchmark, "workflow[traced]");
        assert_eq!(trace.request_id.as_deref(), Some("req-test"));
        assert_eq!(trace.phases.len(), 1);
        assert_eq!(trace.phases[0].name, "a");
    }

    #[test]
    fn invalid_graph_is_an_error_not_a_run() {
        let r = runner();
        let g = TaskGraph::new("empty");
        assert_eq!(r.run(&g).unwrap_err(), FlowError::Empty);
        assert_eq!(r.metrics().workflows, 0);
    }
}
