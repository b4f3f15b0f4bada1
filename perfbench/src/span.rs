//! The benchmark's tracer: spans around calls into the program's public
//! functions, recorded from the benchmark's own code. Spans stay in memory
//! and are written once, at the end, as a Chrome trace. A disabled tracer
//! records nothing, so the same code path runs traced and untraced and
//! the difference in wall time is the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or job) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses every span recorded until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, request: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        }
    }

    /// Times one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total ns spent in spans called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Total ns of the direct children of every span called `root`, per
    /// child name.
    pub fn children(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if s.parent.is_some_and(|p| self.spans[p].name == root) {
                *out.entry(s.name).or_insert(0.0) += s.ns() as f64;
            }
        }
        out
    }

    /// The time spans called `root` cover minus the time their direct
    /// children cover: the part of a traced phase no layer span accounts
    /// for.
    pub fn residual_ns(&self, root: &str) -> f64 {
        let parts: Vec<f64> = self.children(root).into_values().collect();
        crate::stats::residual(self.total_ns(root), &parts)
    }

    /// Runs `step(i, tracer, traced)` for every `i < n` twice, once
    /// recording into `self` under a `root` span and once with a disabled
    /// tracer, alternating which goes first so drift in the host's speed
    /// falls on both alike; then `after(i, self)`, untimed. Returns the
    /// traced and untraced wall time (ns) of the steps.
    pub fn interleaved(
        &mut self,
        n: usize,
        root: &'static str,
        mut step: impl FnMut(usize, &mut Tracer, bool),
        mut after: impl FnMut(usize, &mut Tracer),
    ) -> (f64, f64) {
        let mut off = Tracer::new(false);
        let (mut traced_ns, mut untraced_ns) = (0.0, 0.0);
        for i in 0..n {
            for pass in 0..2 {
                let traced = (pass == 0) == (i % 2 == 0);
                let t = Instant::now();
                if traced {
                    let id = self.enter(root, i as u64 + 1);
                    step(i, self, true);
                    self.exit(id);
                    traced_ns += t.elapsed().as_nanos() as f64;
                } else {
                    step(i, &mut off, false);
                    untraced_ns += t.elapsed().as_nanos() as f64;
                }
            }
            after(i, self);
        }
        (traced_ns, untraced_ns)
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("[");
        out += &format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out += &format!(
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"request_id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.request
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_and_residual_add_up_to_the_roots() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            let root = t.enter("root", 0);
            t.time("a", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.time("b", 2, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.exit(root);
        }
        let kids = t.children("root");
        assert_eq!(kids.len(), 2);
        let sum: f64 = kids.values().sum();
        assert!((sum + t.residual_ns("root") - t.total_ns("root")).abs() < 1e-6);
        assert!(t.residual_ns("root") >= 0.0);
        assert_eq!(t.durations("a").len(), 2);
    }

    #[test]
    fn interleaved_runs_each_step_traced_and_untraced() {
        let mut t = Tracer::new(true);
        let mut calls = Vec::new();
        let mut afters = Vec::new();
        let (on, off) = t.interleaved(
            3,
            "job",
            |i, tr, traced| {
                tr.time("work", i as u64, || ());
                calls.push((i, traced));
            },
            |i, tr| {
                tr.time("after", i as u64, || ());
                afters.push(i);
            },
        );
        assert_eq!(afters, [0, 1, 2]);
        assert!(
            !t.children("job").contains_key("after"),
            "after runs outside the root"
        );
        assert_eq!(
            calls,
            [
                (0, true),
                (0, false),
                (1, false),
                (1, true),
                (2, true),
                (2, false)
            ]
        );
        assert!(on > 0.0 && off > 0.0);
        assert_eq!(t.durations("job").len(), 3);
        assert_eq!(t.children("job").get("work").map(|_| ()), Some(()));
        assert_eq!(
            t.durations("work").len(),
            3,
            "untraced steps record nothing"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(false);
        let id = t.enter("root", 0);
        assert_eq!(t.time("a", 0, || 7), 7);
        t.exit(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_names_parent_and_request() {
        let mut t = Tracer::new(true);
        let root = t.enter("root", 9);
        t.time("leaf", 42, || ());
        t.exit(root);
        let json = t.chrome_json("bench");
        let parsed = heteropipe_serve::Json::parse(&json).expect("valid JSON");
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 3);
        let leaf = &events[2];
        assert_eq!(leaf.get("name").and_then(|v| v.as_str()), Some("leaf"));
        let args = leaf.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(args.get("request_id").and_then(|v| v.as_u64()), Some(42));
    }
}
