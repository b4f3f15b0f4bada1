//! The connection engine: one thread per admitted connection, a bounded
//! number of requests handled at once, per-request timeouts, connection
//! limits with 503 backpressure, server counters, and graceful shutdown.
//!
//! Life of a connection: the accept thread admits it if fewer than
//! `max_inflight` connections are open — otherwise (or when no thread can
//! be spawned for it) it answers `503 Service Unavailable` (with
//! `Retry-After`) immediately and closes — then gives it a thread of its
//! own, which serves requests over keep-alive until the peer closes, a
//! timeout fires, or shutdown begins. [`ServerConfig::threads`] bounds
//! *requests*, not connections: a connection holds one of `threads`
//! permits from a parsed request until its response is written (a
//! streamed body included), so an idle keep-alive connection costs one
//! parked thread and never delays another connection's request.
//!
//! Shutdown sets a flag, closes every connection idling between requests,
//! wakes the (blocking) accept call with a loopback connection, and lets
//! each busy connection finish its current request with `Connection:
//! close`, so no request being served loses its response.
//! [`ServerHandle::join`] returns once every connection thread has exited.
//!
//! Resilience (see `docs/robustness.md`): a shared [`CircuitBreaker`]
//! sheds non-observability requests while the backend is unhealthy
//! (`/healthz*` and `/metrics` stay served so probes and scrapes keep
//! working through an outage), and deterministic fault seams
//! ([`ServerConfig::faults`]) cover the accept, read, and write paths for
//! chaos testing.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

use heteropipe_faults::{FaultKind, Injector, Site};
use heteropipe_obs::log as obs_log;
use heteropipe_obs::{new_request_id, valid_request_id};
use heteropipe_sim::Histogram;

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::error::envelope;
use crate::http::{read_request, ReadError, Request, Response};

/// Routes exempt from circuit-breaker shedding: liveness/readiness probes
/// and metric scrapes must keep answering while the breaker is open.
pub fn breaker_exempt(path: &str) -> bool {
    path == "/metrics" || path == "/healthz" || path.starts_with("/healthz/")
}

/// Something that turns requests into responses. Handlers run on
/// connection threads concurrently (at most [`ServerConfig::threads`] at
/// once); panics are caught and answered with a 500.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one request.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Requests handled at once: a connection holds one of these permits
    /// from a parsed request until its response (a streamed body
    /// included) is written, and waits for one when all are taken.
    pub threads: usize,
    /// Most connections open at once, idle keep-alive ones included (each
    /// costs one parked thread); beyond this, new connections get an
    /// immediate 503.
    pub max_inflight: usize,
    /// Per-connection read timeout (request parsing and keep-alive idle).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Circuit-breaker tuning for the request path.
    pub breaker: BreakerConfig,
    /// Fault injector threaded through the accept/read/write seams (the
    /// disabled injector — one branch per seam — unless a chaos run
    /// configures a plan).
    pub faults: Arc<Injector>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            threads: 4,
            max_inflight: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            breaker: BreakerConfig::default(),
            faults: Arc::new(Injector::disabled()),
        }
    }
}

/// Request counters and latency recordings, shared between the connection
/// engine and the `/metrics` handler.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests fully parsed and dispatched to the handler.
    pub requests: AtomicU64,
    /// Requests currently inside the handler.
    pub in_flight: AtomicU64,
    /// Connections refused with a 503: past `max_inflight`, or no thread
    /// could be spawned for them.
    pub rejected: AtomicU64,
    /// Requests shed with a 503 by the circuit breaker.
    pub shed: AtomicU64,
    /// Responses sent with a 2xx status.
    pub status_2xx: AtomicU64,
    /// Responses sent with a 4xx status.
    pub status_4xx: AtomicU64,
    /// Responses sent with a 5xx status.
    pub status_5xx: AtomicU64,
    /// Whether graceful shutdown has begun (readiness turns unready).
    pub shutting_down: AtomicBool,
    /// Handler latency in microseconds.
    pub latency_us: Mutex<Histogram>,
}

impl ServerStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, status: u16, elapsed: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.latency_us
            .lock()
            .unwrap()
            .record(elapsed.as_micros() as u64);
    }
}

/// A counting semaphore over the requests handled at once. A release
/// signals only when a request is waiting, so an uncontended
/// acquire/release pair costs two uncontended lock round trips and no
/// syscall.
struct Permits {
    state: Mutex<PermitState>,
    freed: Condvar,
}

struct PermitState {
    free: usize,
    waiting: usize,
}

impl Permits {
    fn new(n: usize) -> Permits {
        Permits {
            state: Mutex::new(PermitState {
                free: n,
                waiting: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Blocks until a permit is free; it is released on drop.
    fn acquire(&self) -> Permit<'_> {
        let mut state = self.state.lock().expect("permit lock poisoned");
        while state.free == 0 {
            state.waiting += 1;
            state = self.freed.wait(state).expect("permit lock poisoned");
            state.waiting -= 1;
        }
        state.free -= 1;
        Permit(self)
    }
}

struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Each update leaves the counts valid, so a poisoned lock is safe
        // to take over (and a drop must not panic).
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.free += 1;
        let wake = state.waiting > 0;
        drop(state);
        if wake {
            self.0.freed.notify_one();
        }
    }
}

/// One admitted connection, shared by its thread and the registry that
/// shutdown walks.
struct Conn {
    stream: TcpStream,
    /// Raised while the connection waits for the first byte of its next
    /// request. Whoever swaps it back down owns what happens next: the
    /// connection thread (a request arrived, serve it) or shutdown (close
    /// the socket).
    idle: AtomicBool,
}

struct Shared {
    cfg: ServerConfig,
    handler: Arc<dyn Handler>,
    stats: Arc<ServerStats>,
    breaker: Arc<CircuitBreaker>,
    shutdown: AtomicBool,
    /// Open connections; its length is what `max_inflight` bounds.
    conns: Mutex<Vec<Arc<Conn>>>,
    permits: Permits,
}

/// A bound-but-not-yet-running server. [`Server::start`] spawns the accept
/// thread and returns the [`ServerHandle`] that controls it.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `cfg.addr` and prepares the server around `handler`.
    pub fn bind(cfg: ServerConfig, handler: Arc<dyn Handler>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let breaker = Arc::new(CircuitBreaker::new(cfg.breaker));
        let permits = Permits::new(cfg.threads.max(1));
        let shared = Arc::new(Shared {
            cfg,
            handler,
            stats: Arc::new(ServerStats::new()),
            breaker,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            permits,
        });
        Ok(Server {
            listener,
            addr,
            shared,
        })
    }

    /// The actually-bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.shared.stats)
    }

    /// This server's circuit breaker (for readiness probes and metrics).
    pub fn breaker(&self) -> Arc<CircuitBreaker> {
        Arc::clone(&self.shared.breaker)
    }

    /// Spawns the accept thread, which spawns one thread per admitted
    /// connection.
    pub fn start(self) -> ServerHandle {
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                // Connection threads are scoped to this one, so joining it
                // waits for every connection to end.
                std::thread::scope(|scope| accept_loop(listener, &shared, scope))
            })
            .expect("spawn accept loop");
        ServerHandle {
            addr: self.addr,
            shared: self.shared,
            accept: Mutex::new(Some(accept)),
        }
    }
}

/// Controls a running server: inspect, shut down, join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.shared.stats)
    }

    /// The server's circuit breaker.
    pub fn breaker(&self) -> Arc<CircuitBreaker> {
        Arc::clone(&self.shared.breaker)
    }

    /// Begins graceful shutdown: stops admitting connections, closes the
    /// ones idling between requests, wakes the accept call, and lets busy
    /// connections finish their current request. Idempotent; returns
    /// immediately — pair with [`join`](Self::join).
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared
            .stats
            .shutting_down
            .store(true, Ordering::SeqCst);
        // The flag is set before any idle flag is read, so a connection
        // turning idle after this loop sees it (see `await_request`).
        for conn in self.shared.conns.lock().expect("registry poisoned").iter() {
            if conn.idle.swap(false, Ordering::SeqCst) {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
        // Wake the blocking accept() so the accept loop observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Waits for the accept thread and every connection thread to exit
    /// (all admitted requests answered). Call after
    /// [`shutdown`](Self::shutdown).
    pub fn join(&self) {
        let accept = self.accept.lock().expect("accept handle poisoned").take();
        if let Some(t) = accept {
            let _ = t.join();
        }
    }

    /// Convenience: shutdown then join.
    pub fn shutdown_and_join(&self) {
        self.shutdown();
        self.join();
    }
}

/// Frees a connection's `max_inflight` slot when its thread ends, however
/// it ends — or, when its thread could not be spawned, when the dropped
/// closure takes this with it.
struct Registration<'a> {
    conn: Arc<Conn>,
    shared: &'a Shared,
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        self.shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|c| !Arc::ptr_eq(c, &self.conn));
    }
}

fn accept_loop<'scope, 'env>(
    listener: TcpListener,
    shared: &'env Shared,
    scope: &'scope Scope<'scope, 'env>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // likely the shutdown wakeup connection; drop it
        }
        // Chaos seam: an injected accept fault abandons the connection as
        // a crashed accept thread would — this is the one deliberate
        // connection drop, for testing client-side retry.
        if shared.cfg.faults.roll(Site::ServeAccept).is_some() {
            drop(stream);
            continue;
        }
        // Admission control: reject with 503 + Retry-After rather than
        // opening connections unboundedly or silently dropping one.
        let mut conns = shared.conns.lock().expect("registry poisoned");
        if conns.len() >= shared.cfg.max_inflight {
            drop(conns);
            refuse(&stream, shared);
            continue;
        }
        let conn = Arc::new(Conn {
            stream,
            idle: AtomicBool::new(false),
        });
        conns.push(Arc::clone(&conn));
        drop(conns);
        let registration = Registration {
            conn: Arc::clone(&conn),
            shared,
        };
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn_scoped(scope, move || {
                serve_connection(&registration.conn, shared);
            });
        if spawned.is_err() {
            refuse(&conn.stream, shared);
        }
    }
    // The listener drops here: connections arriving during the drain are
    // refused by the kernel instead of waiting in the backlog.
}

/// Answers a connection the server will not serve with the capacity 503.
fn refuse(stream: &TcpStream, shared: &Shared) {
    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut writer = stream;
    if pre_parse_error(503, "capacity", "server at capacity", Some(1))
        .write_to(&mut writer, false)
        .is_ok()
    {
        lingering_close(stream);
    }
}

/// The error envelope for a response sent before (or instead of) parsing
/// a request: no inbound correlation id exists yet, so a fresh one is
/// generated and stamped on both the body and the `X-Request-Id` header
/// (the connection loop only stamps handler responses).
fn pre_parse_error(status: u16, code: &str, message: &str, retry_after_s: Option<u64>) -> Response {
    let request_id = new_request_id();
    envelope(status, code, message, retry_after_s, &request_id)
        .with_header("X-Request-Id", &request_id)
}

/// Closes a connection the server answered *without reading the request*.
/// Dropping a socket that still has unread bytes in its receive buffer
/// makes the kernel send RST, which can destroy the in-flight response
/// before the peer reads it. Instead: stop sending, then drain whatever
/// the peer wrote until EOF or a short timeout, so the 503 survives the
/// close. The timeout bounds how long a slow peer can pin the accept
/// thread during a rejection storm.
fn lingering_close(stream: &TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = stream;
    let mut sink = [0u8; 1024];
    while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
}

/// Waits, as an idle connection, for the first byte of the next request.
/// `false` means the connection ends instead: the peer closed it, it idled
/// past the read timeout, or shutdown began. The wait is the read the
/// parser would make anyway, and a request already buffered (pipelined)
/// skips it, so this adds no syscall per request.
fn await_request(conn: &Conn, reader: &mut BufReader<&TcpStream>, shared: &Shared) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    conn.idle.store(true, Ordering::SeqCst);
    // Checked after raising the idle flag: shutdown sets its own flag
    // before reading ours, so either it closes this socket or we see it.
    if shared.shutdown.load(Ordering::SeqCst) {
        return false;
    }
    let arrived = loop {
        match reader.fill_buf() {
            Ok(buf) => break !buf.is_empty(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    // Shutdown may have closed the socket while it idled; the swap tells
    // which side got there first.
    conn.idle.swap(false, Ordering::SeqCst) && arrived
}

fn serve_connection(conn: &Conn, shared: &Shared) {
    let stream = &conn.stream;
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    loop {
        // Chaos seam: a read fault stalls (hang) or tears (anything else)
        // the connection before the request is parsed.
        if let Some(fault) = shared.cfg.faults.roll(Site::ServeRead) {
            match fault.kind {
                FaultKind::Hang => {
                    std::thread::sleep(Duration::from_millis(fault.hang_ms));
                }
                _ => return,
            }
        }
        if !await_request(conn, &mut reader, shared) {
            return;
        }
        let mut req = match read_request(&mut reader) {
            Ok(req) => req,
            Err(ReadError::Closed) | Err(ReadError::Timeout { mid_request: false }) => return,
            Err(ReadError::Timeout { mid_request: true }) => {
                let _ = pre_parse_error(408, "timeout", "request timed out", None)
                    .write_to(&mut writer, false);
                return;
            }
            Err(ReadError::TooLarge) => {
                let _ = pre_parse_error(413, "payload_too_large", "request too large", None)
                    .write_to(&mut writer, false);
                return;
            }
            Err(ReadError::Malformed(why)) => {
                let _ = pre_parse_error(400, "bad_request", why, None).write_to(&mut writer, false);
                return;
            }
            Err(ReadError::Io(_)) => return,
        };
        // Held until the response, streamed body included, is written.
        let _permit = shared.permits.acquire();

        // Correlation id: honor a well-formed client-supplied one so
        // multi-hop callers can stitch their traces together; anything
        // else (absent, oversized, bad characters) gets a fresh id.
        req.request_id = match req.header("x-request-id") {
            Some(v) if valid_request_id(v) => v.to_owned(),
            _ => new_request_id(),
        };

        // Circuit breaker: shed doomed work while the backend is unhealthy.
        // Observability routes are exempt so probes and scrapes keep
        // answering through an outage; the breaker only counts outcomes of
        // requests it admitted.
        let guarded = !breaker_exempt(&req.path);
        let shed = guarded && shared.breaker.admit() == Admission::Shed;

        shared.stats.in_flight.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        let resp = if shed {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            envelope(
                503,
                "breaker_open",
                "circuit breaker open",
                Some(shared.breaker.retry_after_secs()),
                &req.request_id,
            )
        } else {
            let handler = Arc::clone(&shared.handler);
            catch_unwind(AssertUnwindSafe(|| handler.handle(&req))).unwrap_or_else(|_| {
                envelope(500, "internal", "handler panicked", None, &req.request_id)
            })
        };
        let resp = resp.with_header("X-Request-Id", &req.request_id);
        if guarded && !shed {
            if resp.status >= 500 {
                shared.breaker.record_failure();
            } else {
                shared.breaker.record_success();
            }
        }
        shared.stats.in_flight.fetch_sub(1, Ordering::SeqCst);
        let elapsed = start.elapsed();
        shared.stats.record(resp.status, elapsed);
        let mut fields = vec![
            ("request_id", req.request_id.as_str().into()),
            ("method", req.method.as_str().into()),
            ("path", req.path.as_str().into()),
            ("status", u64::from(resp.status).into()),
            ("latency_us", (elapsed.as_micros() as u64).into()),
        ];
        // Distributed-trace context from a coordinator upstream: logged
        // verbatim so a worker log line correlates with its span on the
        // stitched cluster timeline (docs/observability.md).
        if let Some(tc) = req.header("x-trace-context") {
            fields.push(("trace_context", tc.into()));
        }
        obs_log::info("serve", "request", &fields);

        // Chaos seam: a write fault stalls (hang) or tears (anything else)
        // the connection before the response goes out.
        if let Some(fault) = shared.cfg.faults.roll(Site::ServeWrite) {
            match fault.kind {
                FaultKind::Hang => {
                    std::thread::sleep(Duration::from_millis(fault.hang_ms));
                }
                _ => return,
            }
        }
        // Stop keeping alive once shutdown begins so connections drain.
        let keep_alive = req.wants_keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
        if resp.write_to(&mut writer, keep_alive).is_err() {
            return;
        }
        let _ = writer.flush();
        if !keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::json::Json;

    fn echo_server(threads: usize, max_inflight: usize, delay: Duration) -> ServerHandle {
        let handler = move |req: &Request| {
            if delay > Duration::ZERO {
                std::thread::sleep(delay);
            }
            Response::json(
                200,
                &Json::Obj(vec![
                    ("path".into(), Json::str(req.path.clone())),
                    ("bytes".into(), Json::U64(req.body.len() as u64)),
                ]),
            )
        };
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads,
            max_inflight,
            ..ServerConfig::default()
        };
        Server::bind(cfg, Arc::new(handler)).unwrap().start()
    }

    #[test]
    fn serves_keep_alive_requests_on_one_connection() {
        let handle = echo_server(2, 8, Duration::ZERO);
        let mut client = Client::new(handle.addr().to_string());
        for i in 0..3 {
            let resp = client.get(&format!("/ping/{i}")).unwrap();
            assert_eq!(resp.status, 200);
            let v = resp.json().unwrap();
            assert_eq!(
                v.get("path").and_then(Json::as_str),
                Some(&*format!("/ping/{i}"))
            );
        }
        assert_eq!(
            handle.stats().requests.load(Ordering::Relaxed),
            3,
            "three requests over one keep-alive connection"
        );
        handle.shutdown_and_join();
    }

    #[test]
    fn concurrent_connections_all_answered() {
        let handle = echo_server(4, 64, Duration::from_millis(5));
        let addr = handle.addr().to_string();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::new(addr);
                    let resp = client
                        .post_json("/echo", &Json::Obj(vec![("i".into(), Json::U64(i))]))
                        .unwrap();
                    assert_eq!(resp.status, 200);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handle.stats().requests.load(Ordering::Relaxed), 8);
        handle.shutdown_and_join();
    }

    #[test]
    fn overload_gets_503_backpressure() {
        // One worker, one admission slot, slow handler: extra concurrent
        // connections must be rejected while the first is in service.
        let handle = echo_server(1, 1, Duration::from_millis(300));
        let addr = handle.addr().to_string();
        let first = {
            let addr = addr.clone();
            std::thread::spawn(move || Client::new(addr).get("/slow").unwrap().status)
        };
        std::thread::sleep(Duration::from_millis(80)); // let it be admitted
        let mut rejected = 0;
        for _ in 0..3 {
            let status = Client::new(addr.clone()).get("/fast").unwrap().status;
            if status == 503 {
                rejected += 1;
            }
        }
        assert_eq!(first.join().unwrap(), 200, "admitted request still served");
        assert!(rejected > 0, "at least one connection rejected with 503");
        assert!(handle.stats().rejected.load(Ordering::Relaxed) > 0);
        handle.shutdown_and_join();
    }

    #[test]
    fn graceful_shutdown_drains_in_flight() {
        let handle = echo_server(2, 8, Duration::from_millis(200));
        let addr = handle.addr().to_string();
        let inflight = std::thread::spawn(move || Client::new(addr).get("/drain").unwrap());
        std::thread::sleep(Duration::from_millis(60)); // request is in the handler
        handle.shutdown_and_join();
        let resp = inflight.join().unwrap();
        assert_eq!(resp.status, 200, "in-flight request answered, not dropped");
        // The listener is gone: new connections fail or are never served.
        assert!(TcpStream::connect_timeout(&handle.addr(), Duration::from_millis(200)).is_err());
    }

    /// A server with a 30 s read timeout, so a test that finishes quickly
    /// shows that no connection waited one out.
    fn patient_server(threads: usize, handler: impl Handler) -> ServerHandle {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        Server::bind(cfg, Arc::new(handler)).unwrap().start()
    }

    #[test]
    fn idle_keep_alive_connections_hold_no_request_permit() {
        let handle = patient_server(1, |_req: &Request| Response::text(200, "ok"));
        let addr = handle.addr().to_string();
        // Three clients finish a request each and stay connected, idle.
        let mut idle = Vec::new();
        for _ in 0..3 {
            let mut client = Client::new(addr.clone()).with_timeout(Duration::from_secs(2));
            assert_eq!(client.get("/first").unwrap().status, 200);
            idle.push(client);
        }
        // The only permit is free, so a fourth connection is served now,
        // not after an idle one times out.
        let start = Instant::now();
        let resp = Client::new(addr)
            .with_timeout(Duration::from_secs(2))
            .get("/fourth")
            .unwrap();
        assert_eq!(resp.status, 200);
        assert!(start.elapsed() < Duration::from_secs(2));
        assert!(idle.iter().all(Client::has_connection));
        handle.shutdown_and_join();
    }

    #[test]
    fn permits_bound_requests_and_streamed_bodies() {
        use crate::http::BodyStream;
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        // Records the most bodies produced at once; half are streamed,
        // produced after the handler has returned.
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let busy: Arc<dyn Fn() + Send + Sync> = {
            let (active, peak) = (Arc::clone(&active), Arc::clone(&peak));
            Arc::new(move || {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
                active.fetch_sub(1, Ordering::SeqCst);
            })
        };
        let handler = move |req: &Request| {
            let busy = Arc::clone(&busy);
            if req.path == "/stream" {
                let stream = BodyStream::new(move |sink| {
                    busy();
                    sink.send(b"streamed")
                });
                Response::streaming(200, "text/plain", stream)
            } else {
                busy();
                Response::text(200, "buffered")
            }
        };
        let handle = patient_server(2, handler);
        let addr = handle.addr().to_string();
        // Every client keeps its connection until all eight are answered.
        let answered = Arc::new(Barrier::new(8));
        let clients: Vec<_> = (0..8)
            .map(|i| {
                let (addr, answered) = (addr.clone(), Arc::clone(&answered));
                std::thread::spawn(move || {
                    let mut client = Client::new(addr).with_timeout(Duration::from_secs(5));
                    let path = if i % 2 == 0 { "/stream" } else { "/buffer" };
                    let status = client.get(path).map_or(0, |r| r.status);
                    answered.wait();
                    status
                })
            })
            .collect();
        let statuses: Vec<u16> = clients.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(statuses, vec![200; 8]);
        assert_eq!(peak.load(Ordering::SeqCst), 2, "two permits, two at once");
        handle.shutdown_and_join();
    }

    #[test]
    fn shutdown_closes_idle_keep_alive_connections() {
        let handle = patient_server(2, |_req: &Request| Response::text(200, "ok"));
        let mut client = Client::new(handle.addr().to_string());
        assert_eq!(client.get("/warm").unwrap().status, 200);
        assert!(client.has_connection(), "idle keep-alive connection held");
        let start = Instant::now();
        handle.shutdown_and_join();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "shutdown waited {:?} on an idle connection",
            start.elapsed()
        );
        // The idle connection was closed, and nothing listens any more.
        assert!(client.get("/after").is_err());
    }

    #[test]
    fn malformed_request_gets_400() {
        let handle = echo_server(1, 4, Duration::ZERO);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        use std::io::Read;
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
        handle.shutdown_and_join();
    }

    #[test]
    fn handler_panic_becomes_500() {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            ..ServerConfig::default()
        };
        let handler = |req: &Request| -> Response {
            if req.path == "/boom" {
                panic!("kaboom");
            }
            Response::text(200, "ok")
        };
        let handle = Server::bind(cfg, Arc::new(handler)).unwrap().start();
        let mut client = Client::new(handle.addr().to_string());
        assert_eq!(client.get("/boom").unwrap().status, 500);
        // The worker survives the panic and keeps serving.
        assert_eq!(client.get("/fine").unwrap().status, 200);
        assert_eq!(handle.stats().status_5xx.load(Ordering::Relaxed), 1);
        handle.shutdown_and_join();
    }

    #[test]
    fn capacity_503_carries_retry_after() {
        let handle = echo_server(1, 1, Duration::from_millis(300));
        let addr = handle.addr().to_string();
        let first = {
            let addr = addr.clone();
            std::thread::spawn(move || Client::new(addr).get("/slow").unwrap().status)
        };
        std::thread::sleep(Duration::from_millis(80));
        let mut saw_header = false;
        for _ in 0..3 {
            let resp = Client::new(addr.clone()).get("/fast").unwrap();
            if resp.status == 503 {
                assert_eq!(resp.header("retry-after"), Some("1"));
                saw_header = true;
            }
        }
        assert_eq!(first.join().unwrap(), 200);
        assert!(saw_header, "at least one 503 observed with Retry-After");
        handle.shutdown_and_join();
    }

    #[test]
    fn breaker_sheds_after_failures_and_recovers() {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(150),
                half_open_probes: 1,
            },
            ..ServerConfig::default()
        };
        let handler = |req: &Request| -> Response {
            if req.path == "/fail" {
                return envelope(500, "internal", "backend broken", None, &req.request_id);
            }
            Response::text(200, "ok")
        };
        let server = Server::bind(cfg, Arc::new(handler)).unwrap();
        let breaker = server.breaker();
        let handle = server.start();
        let mut client = Client::new(handle.addr().to_string());

        assert_eq!(client.get("/fail").unwrap().status, 500);
        assert_eq!(client.get("/fail").unwrap().status, 500);
        // Tripped: work is shed without reaching the handler...
        let resp = client.get("/ok").unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        // ...but observability routes stay exempt (this handler answers
        // 200 for any non-/fail path, standing in for the real probes).
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        assert_eq!(client.get("/healthz/ready").unwrap().status, 200);
        assert_eq!(client.get("/metrics").unwrap().status, 200);
        assert!(breaker.currently_open());
        assert_eq!(breaker.opened_total(), 1);
        assert!(handle.stats().shed.load(Ordering::Relaxed) >= 1);

        // After the cooldown one probe succeeds and the breaker closes.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(client.get("/ok").unwrap().status, 200);
        assert_eq!(client.get("/ok").unwrap().status, 200);
        assert_eq!(breaker.state_name(), "closed");
        handle.shutdown_and_join();
    }

    #[test]
    fn injected_read_fault_tears_one_connection_only() {
        use heteropipe_faults::{FaultPlan, Injector};
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            faults: Arc::new(Injector::new(
                FaultPlan::parse("serve.read:err=drop:max=1").unwrap(),
            )),
            ..ServerConfig::default()
        };
        let handler = |_req: &Request| Response::text(200, "ok");
        let handle = Server::bind(cfg, Arc::new(handler)).unwrap().start();

        // The first connection is torn down by the injected fault before a
        // response is written; a retry on a fresh connection succeeds.
        let first = Client::new(handle.addr().to_string())
            .with_timeout(Duration::from_secs(2))
            .get("/x");
        assert!(first.is_err(), "dropped connection surfaces as an error");
        let second = Client::new(handle.addr().to_string()).get("/x").unwrap();
        assert_eq!(second.status, 200, "fault budget spent, service healthy");
        handle.shutdown_and_join();
    }

    #[test]
    fn shutdown_flips_the_readiness_flag() {
        let handle = echo_server(1, 4, Duration::ZERO);
        assert!(!handle.stats().shutting_down.load(Ordering::SeqCst));
        handle.shutdown_and_join();
        assert!(handle.stats().shutting_down.load(Ordering::SeqCst));
    }

    #[test]
    fn chunked_response_round_trips_through_client() {
        let big = "heteropipe ".repeat(2000);
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            ..ServerConfig::default()
        };
        let body = big.clone();
        let handler = move |_req: &Request| Response::text(200, body.clone()).into_chunked();
        let handle = Server::bind(cfg, Arc::new(handler)).unwrap().start();
        let resp = Client::new(handle.addr().to_string()).get("/big").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, big.as_bytes());
        handle.shutdown_and_join();
    }
}
