//! A circuit breaker for the request path: load-shedding that fails fast
//! while the backend is unhealthy instead of queueing doomed work.
//!
//! Classic three-state machine (see `docs/robustness.md`):
//!
//! * **Closed** — requests flow; consecutive 5xx responses are counted and
//!   `failure_threshold` of them in a row trips the breaker.
//! * **Open** — requests are shed with `503` + `Retry-After` (observability
//!   routes — `/healthz*`, `/metrics` — are exempt at the server layer, so
//!   probes and scrapes keep working). After `cooldown`, the next admission
//!   moves to half-open.
//! * **Half-open** — up to `half_open_probes` trial requests are admitted;
//!   that many successes in a row close the breaker, any failure re-opens
//!   it for another cooldown.
//!
//! The breaker is shared across connection threads; all state sits behind
//! one mutex taken for a few comparisons per request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Circuit-breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive request failures (5xx) that trip the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before probing again.
    pub cooldown: Duration,
    /// Trial requests admitted while half-open; that many consecutive
    /// successes close the breaker.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_secs(1),
            half_open_probes: 2,
        }
    }
}

#[derive(Debug)]
enum State {
    Closed {
        consecutive_failures: u32,
    },
    Open {
        until: Instant,
    },
    HalfOpen {
        probes_in_flight: u32,
        successes: u32,
    },
}

/// Whether the breaker admitted a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed to the handler.
    Allowed,
    /// Shed: answer `503` with `Retry-After` and do not run the handler.
    Shed,
}

/// The shared circuit breaker. One instance per server, consulted by every
/// worker for non-exempt routes.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
    /// Requests shed while open (or past the half-open probe budget).
    shed_total: AtomicU64,
    /// Times the breaker tripped from closed or half-open to open.
    opened_total: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker under `cfg`.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: Mutex::new(State::Closed {
                consecutive_failures: 0,
            }),
            shed_total: AtomicU64::new(0),
            opened_total: AtomicU64::new(0),
        }
    }

    /// The configuration this breaker runs under.
    pub fn config(&self) -> BreakerConfig {
        self.cfg
    }

    /// Decides whether a request may proceed, advancing open → half-open
    /// once the cooldown has elapsed.
    pub fn admit(&self) -> Admission {
        let mut state = self.state.lock().unwrap();
        loop {
            match &mut *state {
                State::Closed { .. } => return Admission::Allowed,
                State::Open { until } => {
                    if Instant::now() < *until {
                        self.shed_total.fetch_add(1, Ordering::Relaxed);
                        return Admission::Shed;
                    }
                    *state = State::HalfOpen {
                        probes_in_flight: 0,
                        successes: 0,
                    };
                    // Re-evaluate as half-open to take a probe slot.
                }
                State::HalfOpen {
                    probes_in_flight, ..
                } => {
                    if *probes_in_flight < self.cfg.half_open_probes.max(1) {
                        *probes_in_flight += 1;
                        return Admission::Allowed;
                    }
                    self.shed_total.fetch_add(1, Ordering::Relaxed);
                    return Admission::Shed;
                }
            }
        }
    }

    /// Reports a successful (non-5xx) response for an admitted request.
    pub fn record_success(&self) {
        let mut state = self.state.lock().unwrap();
        match &mut *state {
            State::Closed {
                consecutive_failures,
            } => *consecutive_failures = 0,
            State::HalfOpen {
                probes_in_flight,
                successes,
            } => {
                *probes_in_flight = probes_in_flight.saturating_sub(1);
                *successes += 1;
                if *successes >= self.cfg.half_open_probes.max(1) {
                    *state = State::Closed {
                        consecutive_failures: 0,
                    };
                }
            }
            // A stale success while open changes nothing.
            State::Open { .. } => {}
        }
    }

    /// Reports a failed (5xx) response for an admitted request.
    pub fn record_failure(&self) {
        let mut state = self.state.lock().unwrap();
        let trip = match &mut *state {
            State::Closed {
                consecutive_failures,
            } => {
                *consecutive_failures += 1;
                *consecutive_failures >= self.cfg.failure_threshold.max(1)
            }
            State::HalfOpen { .. } => true,
            State::Open { .. } => false,
        };
        if trip {
            *state = State::Open {
                until: Instant::now() + self.cfg.cooldown,
            };
            self.opened_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the breaker is open *right now* (cooldown not yet elapsed).
    /// Readiness probes use this; it never mutates state.
    pub fn currently_open(&self) -> bool {
        match &*self.state.lock().unwrap() {
            State::Open { until } => Instant::now() < *until,
            _ => false,
        }
    }

    /// The state's label: `closed`, `open`, or `half_open`. An open
    /// breaker whose cooldown has elapsed reports `half_open`, matching
    /// what the next admission will see.
    pub fn state_name(&self) -> &'static str {
        match &*self.state.lock().unwrap() {
            State::Closed { .. } => "closed",
            State::Open { until } if Instant::now() < *until => "open",
            State::Open { .. } => "half_open",
            State::HalfOpen { .. } => "half_open",
        }
    }

    /// Requests shed so far.
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Times the breaker tripped open so far.
    pub fn opened_total(&self) -> u64 {
        self.opened_total.load(Ordering::Relaxed)
    }

    /// The `Retry-After` value (whole seconds, minimum 1) shed responses
    /// should advertise: the cooldown rounded up.
    pub fn retry_after_secs(&self) -> u64 {
        self.cfg.cooldown.as_secs() + u64::from(self.cfg.cooldown.subsec_nanos() > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_ms: u64, probes: u32) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown: Duration::from_millis(cooldown_ms),
            half_open_probes: probes,
        })
    }

    #[test]
    fn stays_closed_below_threshold_and_resets_on_success() {
        let b = breaker(3, 50, 1);
        b.record_failure();
        b.record_failure();
        b.record_success(); // streak broken
        b.record_failure();
        b.record_failure();
        assert_eq!(b.admit(), Admission::Allowed);
        assert_eq!(b.state_name(), "closed");
        assert_eq!(b.opened_total(), 0);
    }

    #[test]
    fn trips_open_sheds_then_recovers_through_half_open() {
        let b = breaker(2, 30, 2);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.opened_total(), 1);
        assert_eq!(b.admit(), Admission::Shed);
        assert!(b.currently_open());
        assert_eq!(b.shed_total(), 1);

        std::thread::sleep(Duration::from_millis(40));
        assert!(!b.currently_open(), "cooldown elapsed");
        // Two probe slots, then shedding resumes until they resolve.
        assert_eq!(b.admit(), Admission::Allowed);
        assert_eq!(b.admit(), Admission::Allowed);
        assert_eq!(b.admit(), Admission::Shed);
        b.record_success();
        assert_eq!(b.state_name(), "half_open");
        b.record_success();
        assert_eq!(b.state_name(), "closed");
        assert_eq!(b.admit(), Admission::Allowed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let b = breaker(1, 20, 1);
        b.record_failure();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(b.admit(), Admission::Allowed, "probe admitted");
        b.record_failure();
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.opened_total(), 2);
        assert_eq!(b.admit(), Admission::Shed);
    }

    #[test]
    fn retry_after_rounds_up() {
        assert_eq!(breaker(1, 1, 1).retry_after_secs(), 1);
        assert_eq!(breaker(1, 1000, 1).retry_after_secs(), 1);
        assert_eq!(breaker(1, 1500, 1).retry_after_secs(), 2);
    }

    #[test]
    fn concurrent_admissions_respect_probe_budget() {
        let b = std::sync::Arc::new(breaker(1, 1, 3));
        b.record_failure();
        std::thread::sleep(Duration::from_millis(5));
        let allowed: u32 = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let b = std::sync::Arc::clone(&b);
                    s.spawn(move || u32::from(b.admit() == Admission::Allowed))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(allowed, 3, "exactly the probe budget admitted");
    }
}
