//! Single-flight: concurrent calls for one key share one execution.
//!
//! The engine coalesces identical jobs racing into one process onto one
//! simulation, and the cluster coordinator coalesces identical
//! `POST /v1/runs` racing into the cluster onto one probe and forward;
//! both go through [`SingleFlight`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use heteropipe::exec::panic_message;

/// The in-flight calls, one slot per key. The first caller for a key
/// (the leader) runs; callers arriving while it runs block and get a
/// clone of its result. A leader that panics still resolves its slot:
/// the caller's `on_panic` turns the panic message into the result that
/// the leader and every waiter return, and the slot is freed, so the
/// next call for the key runs a fresh leader.
#[derive(Debug)]
pub struct SingleFlight<T> {
    flights: Mutex<HashMap<u128, Arc<Flight<T>>>>,
}

#[derive(Debug)]
struct Flight<T> {
    done: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Default for SingleFlight<T> {
    fn default() -> Self {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
        }
    }
}

impl<T: Clone> SingleFlight<T> {
    /// No calls in flight.
    pub fn new() -> Self {
        SingleFlight::default()
    }

    /// Runs `lead` for `key`, or, when a call for `key` is already
    /// running, waits for it and returns a clone of its result. A panic
    /// in `lead` becomes `on_panic(message)`. Returns the result and
    /// whether this call joined another's flight.
    pub fn run(
        &self,
        key: u128,
        lead: impl FnOnce() -> T,
        on_panic: impl FnOnce(String) -> T,
    ) -> (T, bool) {
        let (flight, leader) = match self.flights.lock().expect("flight map poisoned").entry(key) {
            Entry::Occupied(e) => (Arc::clone(e.get()), false),
            Entry::Vacant(v) => {
                let flight = Arc::new(Flight {
                    done: Mutex::new(None),
                    cv: Condvar::new(),
                });
                (Arc::clone(v.insert(flight)), true)
            }
        };
        if !leader {
            let done = flight.done.lock().expect("flight poisoned");
            let done = flight
                .cv
                .wait_while(done, |done| done.is_none())
                .expect("flight poisoned");
            return (done.clone().expect("flight resolved"), true);
        }
        let result = catch_unwind(AssertUnwindSafe(lead))
            .unwrap_or_else(|payload| on_panic(panic_message(payload)));
        self.flights
            .lock()
            .expect("flight map poisoned")
            .remove(&key);
        *flight.done.lock().expect("flight poisoned") = Some(result.clone());
        flight.cv.notify_all();
        (result, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    fn no_panic(message: String) -> String {
        panic!("unexpected panic: {message}")
    }

    #[test]
    fn sequential_calls_each_lead() {
        let map = SingleFlight::new();
        let execs = AtomicU64::new(0);
        for _ in 0..3 {
            let (result, coalesced) = map.run(
                42,
                || {
                    execs.fetch_add(1, Ordering::SeqCst);
                    "ok".to_owned()
                },
                no_panic,
            );
            assert_eq!(result, "ok");
            assert!(!coalesced);
        }
        assert_eq!(execs.load(Ordering::SeqCst), 3, "no flight to join");
    }

    #[test]
    fn concurrent_callers_coalesce_onto_one_execution() {
        let map = SingleFlight::new();
        let execs = AtomicU64::new(0);
        let coalesced_total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (result, coalesced) = map.run(
                        7,
                        || {
                            // Hold the flight open long enough for the
                            // other threads to pile in behind the leader.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            execs.fetch_add(1, Ordering::SeqCst);
                            "led".to_owned()
                        },
                        no_panic,
                    );
                    if coalesced {
                        coalesced_total.fetch_add(1, Ordering::SeqCst);
                    }
                    assert_eq!(result, "led");
                });
            }
        });
        assert_eq!(execs.load(Ordering::SeqCst), 1, "exactly one leader ran");
        assert_eq!(coalesced_total.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let map = SingleFlight::new();
        let (_, c1) = map.run(1, String::new, no_panic);
        let (_, c2) = map.run(2, String::new, no_panic);
        assert!(!c1 && !c2);
    }

    /// A panicking leader hands its panic, through `on_panic`, to itself
    /// and to every waiter, and frees the slot for a fresh leader.
    #[test]
    fn a_panicking_leader_resolves_every_waiter_and_frees_the_slot() {
        const WAITERS: usize = 3;
        let map = SingleFlight::new();
        let led = Barrier::new(2);
        let release = Barrier::new(2);
        let results: Vec<(String, bool)> = std::thread::scope(|s| {
            let map = &map;
            let leader = s.spawn(|| {
                map.run(
                    9,
                    || {
                        led.wait();
                        release.wait();
                        panic!("leader blew up")
                    },
                    |message| format!("panicked: {message}"),
                )
            });
            // The leader holds the slot until `release`, so every waiter
            // spawned now joins its flight.
            led.wait();
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| {
                    s.spawn(|| map.run(9, || "ran".to_owned(), |_| "waiter's on_panic".to_owned()))
                })
                .collect();
            while map.flights.lock().unwrap().get(&9).map(Arc::strong_count) != Some(2 + WAITERS) {
                std::thread::yield_now();
            }
            release.wait();
            let mut all = vec![leader.join().unwrap()];
            all.extend(waiters.into_iter().map(|w| w.join().unwrap()));
            all
        });
        assert_eq!(
            results[0],
            ("panicked: leader blew up".to_owned(), false),
            "the leader returns its own panic value"
        );
        for waiter in &results[1..] {
            assert_eq!(
                waiter,
                &("panicked: leader blew up".to_owned(), true),
                "waiters get the leader's panic value"
            );
        }
        assert!(map.flights.lock().unwrap().is_empty(), "slot freed");
        let next = map.run(9, || "fresh".to_owned(), no_panic);
        assert_eq!(next, ("fresh".to_owned(), false), "next call leads anew");
    }
}
