//! Per-tenant admission control: `X-Api-Key`-keyed token buckets.
//!
//! Configuration comes from the `HETEROPIPE_TENANTS` environment
//! variable, a `;`-separated list of `key=rate:burst` clauses:
//!
//! ```text
//! HETEROPIPE_TENANTS="alice=50:100;bob=5:10;*=2:4"
//! ```
//!
//! gives the tenant presenting `X-Api-Key: alice` a bucket refilling at
//! 50 requests/second with a burst capacity of 100, and so on. The
//! optional `*` clause is the wildcard bucket shared by every request
//! that presents an *unknown* key. As with the fault plan, parsing is
//! strict — a typo'd clause fails loudly at startup rather than silently
//! admitting everyone.
//!
//! Enforcement semantics (shared by serve and the cluster coordinator):
//!
//! * no `HETEROPIPE_TENANTS` ⇒ the gate is disabled, everything admits;
//! * a request without `X-Api-Key` admits uncounted (operator traffic:
//!   health probes, metric scrapes, and the CLI tools);
//! * a known key draws one token from its tenant's bucket; an unknown
//!   key draws from the wildcard bucket when one is configured and
//!   admits uncounted otherwise;
//! * an empty bucket answers `429` under the standard error envelope
//!   with `Retry-After` set to the seconds until one token refills.
//!
//! Per-tenant admitted/throttled counts surface as
//! `heteropipe_tenant_requests_total{tenant}` /
//! `heteropipe_tenant_throttled_total{tenant}` in both `/metrics`
//! formats. Label cardinality is bounded by the config: unknown keys
//! are aggregated under the `*` tenant, never echoed as labels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable naming the tenant plan.
pub const ENV_VAR: &str = "HETEROPIPE_TENANTS";

/// The wildcard tenant name: the shared bucket for unknown api keys.
pub const WILDCARD: &str = "*";

/// The admission decision for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admit {
    /// Admitted. `tenant` is the bucket charged (`None` when the gate is
    /// disabled, the request carried no key, or the key is unknown and
    /// no wildcard bucket exists).
    Granted {
        /// Name of the bucket charged, if any.
        tenant: Option<String>,
    },
    /// Throttled: the tenant's bucket is empty.
    Throttled {
        /// Name of the bucket that refused the request.
        tenant: String,
        /// Seconds until one token refills (always ≥ 1; goes into the
        /// `Retry-After` header and the envelope's `retry_after_s`).
        retry_after_s: u64,
    },
}

/// One tenant's admitted/throttled totals, for the metrics exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCount {
    /// Tenant name (the api key, or `*` for the wildcard bucket).
    pub tenant: String,
    /// Requests that drew a token successfully.
    pub requests: u64,
    /// Requests refused with 429.
    pub throttled: u64,
}

/// A token bucket: `tokens` refills at `rate` per second up to `burst`.
#[derive(Debug)]
struct Bucket {
    name: String,
    rate: f64,
    burst: f64,
    state: Mutex<BucketState>,
    requests: AtomicU64,
    throttled: AtomicU64,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last: Instant,
}

impl Bucket {
    fn admit(&self) -> Admit {
        let mut state = self.state.lock().unwrap();
        let now = Instant::now();
        let dt = now.duration_since(state.last).as_secs_f64();
        state.tokens = (state.tokens + dt * self.rate).min(self.burst);
        state.last = now;
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            self.requests.fetch_add(1, Ordering::Relaxed);
            Admit::Granted {
                tenant: Some(self.name.clone()),
            }
        } else {
            self.throttled.fetch_add(1, Ordering::Relaxed);
            Admit::Throttled {
                tenant: self.name.clone(),
                retry_after_s: ((1.0 - state.tokens) / self.rate).ceil().max(1.0) as u64,
            }
        }
    }
}

/// The admission gate: one token bucket per configured tenant. Cheap to
/// consult when disabled (one branch); shared behind an `Arc` by the
/// server's connection threads.
#[derive(Debug, Default)]
pub struct TenantGate {
    buckets: Vec<Bucket>,
}

impl TenantGate {
    /// A gate that admits everything (no tenants configured).
    pub fn disabled() -> TenantGate {
        TenantGate::default()
    }

    /// Builds the gate from [`ENV_VAR`]; unset or empty means disabled.
    /// A malformed plan is an error — admission config must never fail
    /// open silently.
    pub fn from_env() -> Result<TenantGate, String> {
        match std::env::var(ENV_VAR) {
            Ok(s) => TenantGate::parse(&s),
            Err(_) => Ok(TenantGate::disabled()),
        }
    }

    /// Parses a `key=rate:burst;...` plan (see the module docs).
    pub fn parse(s: &str) -> Result<TenantGate, String> {
        let mut gate = TenantGate::default();
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let err = |reason: &str| format!("bad tenant clause {clause:?}: {reason}");
            let (name, spec) = clause
                .split_once('=')
                .ok_or_else(|| err("expected key=rate:burst"))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(err("tenant key must be non-empty"));
            }
            if gate.buckets.iter().any(|b| b.name == name) {
                return Err(err("duplicate tenant key"));
            }
            let (rate, burst) = spec
                .split_once(':')
                .ok_or_else(|| err("expected rate:burst after '='"))?;
            let rate: f64 = rate
                .trim()
                .parse()
                .map_err(|_| err("rate must be a number"))?;
            let burst: f64 = burst
                .trim()
                .parse()
                .map_err(|_| err("burst must be a number"))?;
            if !(rate > 0.0 && rate.is_finite()) {
                return Err(err("rate must be > 0"));
            }
            if !(burst >= 1.0 && burst.is_finite()) {
                return Err(err("burst must be >= 1"));
            }
            gate.buckets.push(Bucket {
                name: name.to_string(),
                rate,
                burst,
                state: Mutex::new(BucketState {
                    tokens: burst,
                    last: Instant::now(),
                }),
                requests: AtomicU64::new(0),
                throttled: AtomicU64::new(0),
            });
        }
        Ok(gate)
    }

    /// Whether any tenant is configured.
    pub fn is_enabled(&self) -> bool {
        !self.buckets.is_empty()
    }

    /// Admission decision for a request presenting `api_key` (the
    /// `X-Api-Key` header value, if any). See the module docs for the
    /// exact semantics.
    pub fn admit(&self, api_key: Option<&str>) -> Admit {
        let granted = Admit::Granted { tenant: None };
        if self.buckets.is_empty() {
            return granted;
        }
        let Some(key) = api_key else {
            return granted;
        };
        if let Some(bucket) = self.buckets.iter().find(|b| b.name == key) {
            return bucket.admit();
        }
        match self.buckets.iter().find(|b| b.name == WILDCARD) {
            Some(wildcard) => wildcard.admit(),
            None => granted,
        }
    }

    /// Per-tenant totals in configuration order (every configured tenant
    /// appears, so metric series exist from the first scrape).
    pub fn counts(&self) -> Vec<TenantCount> {
        self.buckets
            .iter()
            .map(|b| TenantCount {
                tenant: b.name.clone(),
                requests: b.requests.load(Ordering::Relaxed),
                throttled: b.throttled.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Total throttled requests across all tenants.
    pub fn total_throttled(&self) -> u64 {
        self.buckets
            .iter()
            .map(|b| b.throttled.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_gate_admits_everyone() {
        let gate = TenantGate::disabled();
        assert!(!gate.is_enabled());
        assert_eq!(gate.admit(Some("any")), Admit::Granted { tenant: None });
        assert_eq!(gate.admit(None), Admit::Granted { tenant: None });
        assert!(gate.counts().is_empty());
    }

    #[test]
    fn burst_drains_then_throttles_with_retry_after() {
        let gate = TenantGate::parse("alice=1:2").unwrap();
        assert!(gate.is_enabled());
        for _ in 0..2 {
            assert_eq!(
                gate.admit(Some("alice")),
                Admit::Granted {
                    tenant: Some("alice".into())
                }
            );
        }
        match gate.admit(Some("alice")) {
            Admit::Throttled {
                tenant,
                retry_after_s,
            } => {
                assert_eq!(tenant, "alice");
                assert!(retry_after_s >= 1);
            }
            other => panic!("expected throttle, got {other:?}"),
        }
        let counts = gate.counts();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].requests, 2);
        assert_eq!(counts[0].throttled, 1);
        assert_eq!(gate.total_throttled(), 1);
    }

    #[test]
    fn bucket_refills_over_time() {
        let gate = TenantGate::parse("fast=1000:1").unwrap();
        assert!(matches!(gate.admit(Some("fast")), Admit::Granted { .. }));
        assert!(matches!(gate.admit(Some("fast")), Admit::Throttled { .. }));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(matches!(gate.admit(Some("fast")), Admit::Granted { .. }));
    }

    #[test]
    fn unknown_keys_use_the_wildcard_when_present() {
        let gate = TenantGate::parse("alice=10:10;*=1:1").unwrap();
        assert_eq!(
            gate.admit(Some("mallory")),
            Admit::Granted {
                tenant: Some("*".into())
            }
        );
        assert!(matches!(
            gate.admit(Some("intruder")),
            Admit::Throttled { tenant, .. } if tenant == "*"
        ));
        // Without a wildcard, unknown keys admit uncounted.
        let open = TenantGate::parse("alice=10:10").unwrap();
        assert_eq!(open.admit(Some("mallory")), Admit::Granted { tenant: None });
        // Keyless requests always admit uncounted.
        assert_eq!(gate.admit(None), Admit::Granted { tenant: None });
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in [
            "alice",        // no '='
            "alice=10",     // no burst
            "=10:10",       // empty key
            "alice=0:10",   // zero rate
            "alice=10:0",   // zero burst
            "alice=x:10",   // NaN rate
            "alice=10:y",   // NaN burst
            "a=1:1;a=2:2",  // duplicate
            "alice=inf:10", // non-finite
        ] {
            let e = TenantGate::parse(bad).unwrap_err();
            assert!(e.contains("bad tenant clause"), "{bad} -> {e}");
        }
        assert!(TenantGate::parse("").unwrap().counts().is_empty());
        assert!(TenantGate::parse(" ; ").unwrap().counts().is_empty());
    }
}
