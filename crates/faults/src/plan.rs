//! The fault-plan grammar behind `HETEROPIPE_FAULTS`.
//!
//! A plan is a `;`-separated list of clauses. Each clause is either the
//! seed directive `seed=<u64>` or a rule:
//!
//! ```text
//! <site>:err=<kind>[:p=<prob>][:max=<count>][:after=<count>][:ms=<millis>]
//! ```
//!
//! * `site` — where the fault fires: `cache.write`, `cache.read`,
//!   `job.exec`, `serve.accept`, `serve.read`, `serve.write`,
//!   `cluster.forward`, `journal.append`, `journal.replay`;
//! * `err` — what happens: `enospc` / `eio` (an I/O error), `corrupt`
//!   (bytes are bit-flipped in flight), `panic` (the job panics), `hang`
//!   (the job stalls for `ms` milliseconds), `drop` (the connection is
//!   closed without a response);
//! * `p` — per-opportunity probability in `[0, 1]` (default 1.0);
//! * `max` — total firings before the rule disarms (default unlimited);
//! * `after` — opportunities to skip before the rule arms (default 0);
//! * `ms` — stall duration for `hang` (default 50).
//!
//! Example: `seed=42;cache.write:err=enospc:p=0.1:max=3;job.exec:err=panic:p=0.05`.
//!
//! Parsing is total and strict: any unknown site, kind, key, or malformed
//! number is a [`PlanError`] naming the offending clause — a typo'd plan
//! must fail loudly rather than silently inject nothing.

use std::fmt;
use std::str::FromStr;

/// Default root seed when a plan does not carry `seed=`.
pub const DEFAULT_SEED: u64 = 0xFA_17;

/// An injection point in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Persisting a result record to the disk cache tier.
    CacheWrite,
    /// Reading a result record back from the disk cache tier.
    CacheRead,
    /// Executing a simulation job.
    JobExec,
    /// Admitting a connection in the serve accept loop.
    ServeAccept,
    /// Reading a request off an admitted connection.
    ServeRead,
    /// Writing a response back to the peer.
    ServeWrite,
    /// A coordinator forwarding work to a worker (`drop`/`eio` emulate a
    /// partition or dead worker, `hang` a slow worker).
    ClusterForward,
    /// Appending an intent/record/done line to the write-ahead sweep
    /// journal (`corrupt` rots the line so replay must quarantine it).
    JournalAppend,
    /// Replaying a journal segment at startup or on a records fetch.
    JournalReplay,
}

impl Site {
    /// Every known site, in grammar order.
    pub const ALL: [Site; 9] = [
        Site::CacheWrite,
        Site::CacheRead,
        Site::JobExec,
        Site::ServeAccept,
        Site::ServeRead,
        Site::ServeWrite,
        Site::ClusterForward,
        Site::JournalAppend,
        Site::JournalReplay,
    ];

    /// The grammar / metric-label spelling (`cache.write`, ...).
    pub fn label(self) -> &'static str {
        match self {
            Site::CacheWrite => "cache.write",
            Site::CacheRead => "cache.read",
            Site::JobExec => "job.exec",
            Site::ServeAccept => "serve.accept",
            Site::ServeRead => "serve.read",
            Site::ServeWrite => "serve.write",
            Site::ClusterForward => "cluster.forward",
            Site::JournalAppend => "journal.append",
            Site::JournalReplay => "journal.replay",
        }
    }
}

impl FromStr for Site {
    type Err = ();
    fn from_str(s: &str) -> Result<Site, ()> {
        Site::ALL
            .into_iter()
            .find(|site| site.label() == s)
            .ok_or(())
    }
}

/// What an armed rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `std::io::ErrorKind::StorageFull` ("no space left on device").
    Enospc,
    /// A generic I/O error.
    Eio,
    /// Bytes are bit-flipped in flight (torn/rotten record).
    Corrupt,
    /// The operation panics.
    Panic,
    /// The operation stalls (bounded; see [`FaultRule::hang_ms`]).
    Hang,
    /// The connection is dropped without a response.
    Drop,
}

impl FaultKind {
    /// The grammar / metric-label spelling.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Enospc => "enospc",
            FaultKind::Eio => "eio",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Panic => "panic",
            FaultKind::Hang => "hang",
            FaultKind::Drop => "drop",
        }
    }
}

impl FromStr for FaultKind {
    type Err = ();
    fn from_str(s: &str) -> Result<FaultKind, ()> {
        Ok(match s {
            "enospc" => FaultKind::Enospc,
            "eio" => FaultKind::Eio,
            "corrupt" => FaultKind::Corrupt,
            "panic" => FaultKind::Panic,
            "hang" => FaultKind::Hang,
            "drop" => FaultKind::Drop,
            _ => return Err(()),
        })
    }
}

/// One parsed rule of a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Where the fault fires.
    pub site: Site,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// Per-opportunity firing probability in `[0, 1]`.
    pub p: f64,
    /// Total firings before the rule disarms (`None` = unlimited).
    pub max: Option<u64>,
    /// Opportunities to skip before the rule arms.
    pub after: u64,
    /// Stall duration for [`FaultKind::Hang`], milliseconds.
    pub hang_ms: u64,
}

/// A parsed `HETEROPIPE_FAULTS` plan: a seed plus a rule list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Root seed for the injector's decision stream.
    pub seed: Option<u64>,
    /// The rules, in plan order.
    pub rules: Vec<FaultRule>,
}

/// A rejected plan string, pointing at the offending clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The clause that failed to parse.
    pub clause: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault clause {:?}: {}", self.clause, self.reason)
    }
}

impl std::error::Error for PlanError {}

impl FaultPlan {
    /// Parses a plan string. The empty string (or one that is all
    /// separators) is the empty plan: no rules, nothing injected.
    pub fn parse(s: &str) -> Result<FaultPlan, PlanError> {
        let mut plan = FaultPlan::default();
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = Some(seed.parse().map_err(|_| PlanError {
                    clause: clause.to_owned(),
                    reason: "seed must be a u64".into(),
                })?);
                continue;
            }
            plan.rules.push(parse_rule(clause)?);
        }
        Ok(plan)
    }

    /// The effective root seed ([`DEFAULT_SEED`] unless `seed=` was given).
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }
}

fn parse_rule(clause: &str) -> Result<FaultRule, PlanError> {
    let err = |reason: &str| PlanError {
        clause: clause.to_owned(),
        reason: reason.to_owned(),
    };
    let mut parts = clause.split(':');
    let site: Site = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|()| {
            err("unknown site (cache.write, cache.read, job.exec, serve.accept, serve.read, serve.write, cluster.forward, journal.append, journal.replay)")
        })?;

    let mut kind = None;
    let mut rule = FaultRule {
        site,
        kind: FaultKind::Eio,
        p: 1.0,
        max: None,
        after: 0,
        hang_ms: 50,
    };
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| err("directives must be key=value"))?;
        match key {
            "err" => {
                kind =
                    Some(value.parse().map_err(|()| {
                        err("unknown err (enospc, eio, corrupt, panic, hang, drop)")
                    })?);
            }
            "p" => {
                let p: f64 = value.parse().map_err(|_| err("p must be a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(err("p must be in [0, 1]"));
                }
                rule.p = p;
            }
            "max" => rule.max = Some(value.parse().map_err(|_| err("max must be a u64"))?),
            "after" => rule.after = value.parse().map_err(|_| err("after must be a u64"))?,
            "ms" => rule.hang_ms = value.parse().map_err(|_| err("ms must be a u64"))?,
            _ => return Err(err("unknown directive (err, p, max, after, ms)")),
        }
    }
    rule.kind = kind.ok_or_else(|| err("missing err=<kind>"))?;
    Ok(rule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let plan = FaultPlan::parse("cache.write:err=enospc:p=0.1").unwrap();
        assert_eq!(plan.seed(), DEFAULT_SEED);
        assert_eq!(
            plan.rules,
            vec![FaultRule {
                site: Site::CacheWrite,
                kind: FaultKind::Enospc,
                p: 0.1,
                max: None,
                after: 0,
                hang_ms: 50,
            }]
        );
    }

    #[test]
    fn parses_seed_and_multiple_rules() {
        let plan = FaultPlan::parse(
            "seed=42; cache.read:err=corrupt:max=2 ; job.exec:err=hang:ms=10:p=0.5:after=1;",
        )
        .unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].site, Site::CacheRead);
        assert_eq!(plan.rules[0].kind, FaultKind::Corrupt);
        assert_eq!(plan.rules[0].max, Some(2));
        assert_eq!(plan.rules[1].hang_ms, 10);
        assert_eq!(plan.rules[1].after, 1);
        assert_eq!(plan.rules[1].p, 0.5);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::parse(" ; ;").unwrap().rules, Vec::new());
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "disk.write:err=eio",      // unknown site
            "cache.write",             // missing err
            "cache.write:err=boom",    // unknown kind
            "cache.write:err=eio:p=2", // p out of range
            "cache.write:err=eio:p=x",
            "cache.write:eio", // bare word directive
            "cache.write:err=eio:frequency=1",
            "seed=abc",
        ] {
            let e = FaultPlan::parse(bad).unwrap_err();
            assert!(e.to_string().contains("bad fault clause"), "{bad} -> {e}");
        }
    }

    #[test]
    fn site_labels_round_trip() {
        for site in Site::ALL {
            assert_eq!(site.label().parse::<Site>().unwrap(), site);
        }
    }
}
