//! A small blocking HTTP/1.1 client, enough to exercise the server: used
//! by the integration tests, the CI smoke check, the load generator, and
//! the cluster coordinator's worker calls. A [`Client`] keeps one
//! connection alive across requests and reconnects transparently when the
//! server closes it; a [`ClientPool`] keeps a bounded set of idle
//! kept-alive connections *per host*, so concurrent request paths check
//! out warm connections instead of re-dialing.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;
use std::time::Duration;

use crate::json::Json;

/// Response as seen by the client.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Decoded body (Content-Length or chunked).
    pub body: Vec<u8>,
}

/// The server's JSON error envelope, as parsed from a non-2xx body (see
/// `docs/api.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Stable machine-readable error code (`not_found`, `quarantined`...).
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Back-off hint in seconds, when the server sent one.
    pub retry_after_s: Option<u64>,
    /// The correlation id the failure is logged under server-side.
    pub request_id: String,
}

impl ClientResponse {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Option<Json> {
        Json::parse(std::str::from_utf8(&self.body).ok()?)
    }

    /// Parses the body as the server's error envelope. `None` when the
    /// body is not envelope-shaped (e.g. a 2xx payload).
    pub fn api_error(&self) -> Option<ApiError> {
        let v = self.json()?;
        let err = v.get("error")?;
        Some(ApiError {
            code: err.get("code").and_then(Json::as_str)?.to_owned(),
            message: err.get("message").and_then(Json::as_str)?.to_owned(),
            retry_after_s: err.get("retry_after_s").and_then(Json::as_u64),
            request_id: v
                .get("request_id")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
        })
    }

    /// Parses the body as NDJSON: one JSON value per non-empty line, in
    /// stream order. `None` if any line fails to parse.
    pub fn ndjson(&self) -> Option<Vec<Json>> {
        let text = std::str::from_utf8(&self.body).ok()?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(Json::parse)
            .collect()
    }
}

/// A keep-alive HTTP/1.1 client for one server address.
pub struct Client {
    addr: String,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr` (`host:port`) with a 30 s I/O timeout.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
            conn: None,
        }
    }

    /// Overrides the per-operation I/O timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Sends a GET and reads the response.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None, &[])
    }

    /// Sends a GET with extra request headers (e.g. `Accept` or a caller's
    /// own `X-Request-Id`).
    pub fn get_with_headers(
        &mut self,
        path: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None, headers)
    }

    /// Sends a POST with a JSON body and reads the response.
    pub fn post_json(&mut self, path: &str, body: &Json) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body.dump().into_bytes()), &[])
    }

    /// Sends a POST with a JSON body and extra request headers.
    pub fn post_json_with_headers(
        &mut self,
        path: &str,
        body: &Json,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body.dump().into_bytes()), headers)
    }

    /// Sends a POST with a raw body (still labelled `application/json`).
    pub fn post_raw(&mut self, path: &str, body: Vec<u8>) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body), &[])
    }

    /// Sends a POST with a raw body and extra request headers (the
    /// coordinator's proxy path: the already-serialized client body plus a
    /// propagated `X-Request-Id`).
    pub fn post_raw_with_headers(
        &mut self,
        path: &str,
        body: Vec<u8>,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body), headers)
    }

    /// Whether a kept-alive connection is currently held (a pool only
    /// retains clients that still have one).
    pub fn has_connection(&self) -> bool {
        self.conn.is_some()
    }

    fn connect(&self) -> std::io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<Vec<u8>>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        // One retry: a kept-alive connection may have been closed by the
        // server between requests; a fresh connection gets a clean answer.
        let reused = self.conn.is_some();
        match self.try_request(method, path, body.as_deref(), extra_headers) {
            Err(_) if reused => self.try_request(method, path, body.as_deref(), extra_headers),
            result => result,
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        if self.conn.is_none() {
            self.conn = Some(self.connect()?);
        }
        let conn = self.conn.as_mut().unwrap();

        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        for (name, value) in extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some(body) = body {
            head.push_str("Content-Type: application/json\r\n");
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        let result = (|| {
            let stream = conn.get_mut();
            stream.write_all(head.as_bytes())?;
            if let Some(body) = body {
                stream.write_all(body)?;
            }
            stream.flush()?;
            read_response(conn)
        })();
        // A failed exchange can leave the stream mid-message, and a server
        // that answered `Connection: close` is done with it: either way
        // the connection is not reused (nor pooled).
        let reusable = result.as_ref().is_ok_and(|resp| {
            !resp
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        });
        if !reusable {
            self.conn = None;
        }
        result
    }
}

/// A bounded pool of idle kept-alive [`Client`]s, keyed by host address.
///
/// `checkout(addr)` hands back a warm connection when one is idle and a
/// fresh (unconnected) client otherwise; dropping the returned
/// [`PooledClient`] checks the client back in *only* when it still holds a
/// live kept-alive connection, so broken or server-closed connections are
/// discarded instead of being handed to the next caller. At most
/// `max_idle_per_host` clients are retained per address — surplus
/// check-ins simply drop their connection.
pub struct ClientPool {
    timeout: Duration,
    max_idle_per_host: usize,
    idle: Mutex<HashMap<String, Vec<Client>>>,
}

impl Default for ClientPool {
    fn default() -> ClientPool {
        ClientPool::new()
    }
}

impl ClientPool {
    /// An empty pool with a 30 s I/O timeout and 8 idle clients per host.
    pub fn new() -> ClientPool {
        ClientPool {
            timeout: Duration::from_secs(30),
            max_idle_per_host: 8,
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// Overrides the I/O timeout applied to clients the pool creates.
    pub fn with_timeout(mut self, timeout: Duration) -> ClientPool {
        self.timeout = timeout;
        self
    }

    /// Overrides how many idle clients are retained per host.
    pub fn with_max_idle(mut self, max_idle_per_host: usize) -> ClientPool {
        self.max_idle_per_host = max_idle_per_host;
        self
    }

    /// Checks out a client for `addr`: a pooled warm one when available,
    /// a fresh one otherwise. The client returns to the pool on drop if
    /// its connection survived.
    pub fn checkout(&self, addr: &str) -> PooledClient<'_> {
        let client = self
            .idle
            .lock()
            .expect("client pool poisoned")
            .get_mut(addr)
            .and_then(Vec::pop)
            .unwrap_or_else(|| Client::new(addr).with_timeout(self.timeout));
        PooledClient {
            pool: self,
            client: Some(client),
        }
    }

    /// How many idle clients are currently pooled for `addr`.
    pub fn idle_count(&self, addr: &str) -> usize {
        self.idle
            .lock()
            .expect("client pool poisoned")
            .get(addr)
            .map_or(0, Vec::len)
    }

    fn checkin(&self, client: Client) {
        if !client.has_connection() {
            return;
        }
        let mut idle = self.idle.lock().expect("client pool poisoned");
        let slot = idle.entry(client.addr.clone()).or_default();
        if slot.len() < self.max_idle_per_host {
            slot.push(client);
        }
    }
}

/// A [`Client`] checked out of a [`ClientPool`]; derefs to the client and
/// checks it back in on drop (when the connection is still alive).
pub struct PooledClient<'a> {
    pool: &'a ClientPool,
    client: Option<Client>,
}

impl Deref for PooledClient<'_> {
    type Target = Client;
    fn deref(&self) -> &Client {
        self.client.as_ref().expect("client taken")
    }
}

impl DerefMut for PooledClient<'_> {
    fn deref_mut(&mut self) -> &mut Client {
        self.client.as_mut().expect("client taken")
    }
}

impl Drop for PooledClient<'_> {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            self.pool.checkin(client);
        }
    }
}

fn bad(why: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string())
}

fn read_line(r: &mut impl BufRead) -> std::io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads one HTTP/1.1 response (status line, headers, body) from `r`.
pub fn read_response(r: &mut impl BufRead) -> std::io::Result<ClientResponse> {
    let status_line = read_line(r)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad("not an HTTP/1.x response"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparseable status code"))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("header missing colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let mut body = Vec::new();
    if find("transfer-encoding").is_some_and(|v| v.to_ascii_lowercase().contains("chunked")) {
        loop {
            let size_line = read_line(r)?;
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = u64::from_str_radix(size_hex, 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                // Trailers (we send none, but stay correct) then final CRLF.
                while !read_line(r)?.is_empty() {}
                break;
            }
            read_body(r, size, &mut body)?;
            let mut crlf = [0u8; 2];
            r.read_exact(&mut crlf)?;
        }
    } else if let Some(len) = find("content-length") {
        let len: u64 = len.parse().map_err(|_| bad("bad content-length"))?;
        read_body(r, len, &mut body)?;
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// Appends exactly `n` body bytes from `r` to `body`. The buffer grows
/// only with the bytes that arrive, so a size the peer claims is never
/// allocated up front; fewer than `n` bytes before EOF is an error.
fn read_body(r: &mut impl BufRead, n: u64, body: &mut Vec<u8>) -> std::io::Result<()> {
    let got = r.take(n).read_to_end(body)?;
    if (got as u64) < n {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "response body ended early",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// A keep-alive HTTP server good for a few requests: reads one request
    /// head per loop and answers `200 ok` without closing the connection.
    fn tiny_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let mut seen = Vec::new();
            loop {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                seen.extend_from_slice(&buf[..n]);
                while let Some(end) = seen.windows(4).position(|w| w == b"\r\n\r\n") {
                    seen.drain(..end + 4);
                    let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
                    if stream.write_all(resp).is_err() {
                        return;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn parse(raw: &[u8]) -> std::io::Result<ClientResponse> {
        read_response(&mut std::io::Cursor::new(raw))
    }

    #[test]
    fn an_overflowing_chunk_size_is_an_error_not_a_panic() {
        let raw =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\nffffffffffffffff\r\n";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1ffffffffffffffff\r\n";
        assert_eq!(
            parse(raw).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2;x=y\r\nok\r\n0\r\n\r\n";
        assert_eq!(
            parse(raw).unwrap().body,
            b"ok",
            "well-framed chunks still read"
        );
    }

    #[test]
    fn a_claimed_length_is_not_allocated_before_it_arrives() {
        let mut raw = b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n".to_vec();
        raw.extend_from_slice(b"0123456789");
        let err = parse(&raw).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        assert_eq!(parse(raw).unwrap().body, b"ok");
    }

    #[test]
    fn a_failed_response_read_drops_the_connection() {
        // The server keeps the connection open after a malformed answer,
        // so only the client can stop it from being reused.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let resp = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
            stream.write_all(resp).unwrap();
            // Hold the socket until the client has read and given up.
            let _ = stream.read(&mut buf);
        });
        let mut client = Client::new(&addr).with_timeout(Duration::from_secs(5));
        let err = client.get("/healthz").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(!client.has_connection(), "half-read stream dropped");
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn pool_reuses_kept_alive_connections() {
        let (addr, server) = tiny_server();
        let pool = ClientPool::new().with_timeout(Duration::from_secs(5));
        assert_eq!(pool.idle_count(&addr), 0);
        {
            let mut c = pool.checkout(&addr);
            assert!(!c.has_connection(), "fresh checkout starts unconnected");
            let resp = c.get("/healthz").unwrap();
            assert_eq!(resp.status, 200);
            assert!(c.has_connection());
        }
        assert_eq!(pool.idle_count(&addr), 1, "live connection checked in");
        {
            let mut c = pool.checkout(&addr);
            assert!(c.has_connection(), "warm connection reused");
            assert_eq!(c.get("/healthz").unwrap().status, 200);
        }
        assert_eq!(pool.idle_count(&addr), 1);
        drop(pool);
        server.join().unwrap();
    }

    #[test]
    fn pool_discards_connectionless_clients_and_caps_idle() {
        let pool = ClientPool::new().with_max_idle(1);
        // Never-connected clients are not retained.
        drop(pool.checkout("127.0.0.1:9"));
        assert_eq!(pool.idle_count("127.0.0.1:9"), 0);
        // The cap bounds how many live clients one host retains.
        let (addr, server) = tiny_server();
        let mut a = pool.checkout(&addr);
        assert_eq!(a.get("/healthz").unwrap().status, 200);
        let b = Client::new(&addr).with_timeout(Duration::from_secs(5));
        // Second connection to the same accept-once server would block; a
        // connected client is enough to exercise the cap, so hand the pool
        // one real connection and one fresh client.
        drop(a);
        assert_eq!(pool.idle_count(&addr), 1);
        assert!(!b.has_connection());
        pool.checkin(b);
        assert_eq!(pool.idle_count(&addr), 1, "connectionless client dropped");
        drop(pool);
        server.join().unwrap();
    }
}
