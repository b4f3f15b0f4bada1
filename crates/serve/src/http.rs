//! Hand-rolled HTTP/1.1: request parsing and response writing over any
//! `BufRead`/`Write` pair.
//!
//! The server only needs the subset the API speaks: request lines with
//! origin-form targets, header fields, `Content-Length` and chunked request
//! bodies, keep-alive negotiation, and `Content-Length`, chunked, or
//! incrementally streamed ([`BodyStream`]) responses. Every limit (line
//! length, header count, body size) is
//! explicit, and any malformation surfaces as a typed [`ReadError`] the
//! connection loop maps to a 4xx response — parsing never panics.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Parsing limits, chosen for an API whose largest legitimate payload is a
/// small JSON document.
pub mod limits {
    /// Longest accepted request/status/header line, bytes.
    pub const MAX_LINE: usize = 8 * 1024;
    /// Most header fields per message.
    pub const MAX_HEADERS: usize = 64;
    /// Largest accepted request body, bytes.
    pub const MAX_BODY: usize = 1024 * 1024;
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Raw query string (empty when absent).
    pub query: String,
    /// Header fields in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when none was sent).
    pub body: Vec<u8>,
    /// Whether the request was HTTP/1.0 (affects keep-alive default).
    pub http10: bool,
    /// Correlation id for this request. Empty after parsing; the
    /// connection loop fills it in (honoring a well-formed inbound
    /// `X-Request-Id`, otherwise generating one) before the handler runs,
    /// and echoes it back as the `X-Request-Id` response header.
    pub request_id: String,
}

impl Request {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with an explicit
    /// `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => !self.http10,
        }
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly before sending anything.
    Closed,
    /// The read timed out. `mid_request` distinguishes an idle keep-alive
    /// connection going quiet (close silently) from a stalled sender
    /// (answer 408).
    Timeout {
        /// Whether any bytes of a request had already arrived.
        mid_request: bool,
    },
    /// A line, header block, or body exceeded its limit (maps to 413/431).
    TooLarge,
    /// The bytes were not valid HTTP (maps to 400).
    Malformed(&'static str),
    /// Transport error.
    Io(io::Error),
}

impl ReadError {
    fn from_io(e: io::Error, mid_request: bool) -> ReadError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                ReadError::Timeout { mid_request }
            }
            io::ErrorKind::UnexpectedEof if !mid_request => ReadError::Closed,
            _ => ReadError::Io(e),
        }
    }
}

/// Reads one line up to CRLF (or bare LF), without the terminator.
fn read_line(r: &mut impl BufRead, started: &mut bool) -> Result<String, ReadError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() && !*started {
                    Err(ReadError::Closed)
                } else {
                    Err(ReadError::Malformed("connection closed mid-line"))
                };
            }
            Ok(_) => {
                *started = true;
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return String::from_utf8(buf)
                        .map_err(|_| ReadError::Malformed("non-UTF-8 header bytes"));
                }
                if buf.len() >= limits::MAX_LINE {
                    return Err(ReadError::TooLarge);
                }
                buf.push(byte[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::from_io(e, *started)),
        }
    }
}

/// Appends exactly `n` more body bytes to `out`. `n` comes off the wire,
/// so the sum is checked: a body that would pass [`limits::MAX_BODY`] —
/// or overflow `usize` on the way — is `TooLarge` before any allocation.
fn read_exact_limited(r: &mut impl BufRead, n: usize, out: &mut Vec<u8>) -> Result<(), ReadError> {
    let start = out.len();
    let end = start
        .checked_add(n)
        .filter(|&end| end <= limits::MAX_BODY)
        .ok_or(ReadError::TooLarge)?;
    out.resize(end, 0);
    r.read_exact(&mut out[start..])
        .map_err(|e| ReadError::from_io(e, true))
}

/// Reads and parses one request from `r`.
///
/// `Err(Closed)` means the peer hung up between requests (the normal end of
/// a keep-alive session); other errors map to 4xx responses or a silent
/// close, per [`ReadError`].
pub fn read_request(r: &mut impl BufRead) -> Result<Request, ReadError> {
    let mut started = false;
    let line = read_line(r, &mut started)?;
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or(ReadError::Malformed("bad method"))?
        .to_owned();
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or(ReadError::Malformed("bad target"))?;
    let version = parts
        .next()
        .ok_or(ReadError::Malformed("missing version"))?;
    if parts.next().is_some() {
        return Err(ReadError::Malformed("extra request-line fields"));
    }
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        _ => return Err(ReadError::Malformed("unsupported HTTP version")),
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut started)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits::MAX_HEADERS {
            return Err(ReadError::TooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ReadError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ReadError::Malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut req = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        http10,
        request_id: String::new(),
    };

    let chunked = req
        .header("transfer-encoding")
        .map(|v| v.eq_ignore_ascii_case("chunked"))
        .unwrap_or(false);
    if chunked {
        req.body = read_chunked_body(r, &mut started)?;
    } else if let Some(cl) = req.header("content-length") {
        let n: usize = cl
            .parse()
            .map_err(|_| ReadError::Malformed("bad content-length"))?;
        if n > limits::MAX_BODY {
            return Err(ReadError::TooLarge);
        }
        let mut body = Vec::new();
        read_exact_limited(r, n, &mut body)?;
        req.body = body;
    }
    Ok(req)
}

fn read_chunked_body(r: &mut impl BufRead, started: &mut bool) -> Result<Vec<u8>, ReadError> {
    let mut body = Vec::new();
    loop {
        let size_line = read_line(r, started)?;
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        // A well-formed size too wide for `usize` is oversize, not garbage.
        let size = usize::from_str_radix(size_hex, 16).map_err(|e| match e.kind() {
            std::num::IntErrorKind::PosOverflow => ReadError::TooLarge,
            _ => ReadError::Malformed("bad chunk size"),
        })?;
        if size == 0 {
            // Trailer section: lines until the empty one.
            loop {
                if read_line(r, started)?.is_empty() {
                    return Ok(body);
                }
            }
        }
        read_exact_limited(r, size, &mut body)?;
        let crlf = read_line(r, started)?;
        if !crlf.is_empty() {
            return Err(ReadError::Malformed("chunk data not CRLF-terminated"));
        }
    }
}

/// Reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// The write side handed to a [`BodyStream`] closure: each [`send`]
/// frames its bytes as one HTTP chunk and flushes, so the peer sees the
/// record the moment it is produced (this is how `POST /v1/sweeps`
/// streams NDJSON records in completion order).
///
/// [`send`]: ChunkSink::send
pub struct ChunkSink<'a> {
    w: &'a mut (dyn Write + Send),
}

impl ChunkSink<'_> {
    /// Writes `data` as one chunk and flushes. Empty slices are skipped —
    /// a zero-length chunk would terminate the stream early.
    pub fn send(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        write!(self.w, "\r\n")?;
        self.w.flush()
    }
}

/// A streamed response body: a closure invoked with a [`ChunkSink`] after
/// the headers go out, producing chunks incrementally instead of
/// materializing the whole body. An `Err` tears the connection down —
/// with chunked framing the missing terminal chunk tells the peer the
/// stream was truncated.
#[derive(Clone)]
pub struct BodyStream(Arc<StreamFn>);

/// The producer closure type inside a [`BodyStream`].
type StreamFn = dyn Fn(&mut ChunkSink<'_>) -> io::Result<()> + Send + Sync;

impl BodyStream {
    /// Wraps a producer closure.
    pub fn new(f: impl Fn(&mut ChunkSink<'_>) -> io::Result<()> + Send + Sync + 'static) -> Self {
        BodyStream(Arc::new(f))
    }
}

impl fmt::Debug for BodyStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BodyStream(..)")
    }
}

/// An HTTP response ready to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra header fields (`Content-Type` etc.; framing headers are added
    /// by [`write_to`](Self::write_to)).
    pub headers: Vec<(String, String)>,
    /// Response body (ignored when `stream` is set).
    pub body: Vec<u8>,
    /// Whether to send the body with chunked transfer-encoding instead of
    /// `Content-Length`.
    pub chunked: bool,
    /// A streaming body producer; when set the body is always chunked and
    /// `body` is ignored.
    pub stream: Option<BodyStream>,
}

/// Chunk size used when writing chunked bodies.
const CHUNK: usize = 8 * 1024;

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &crate::json::Json) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: value.dump().into_bytes(),
            chunked: false,
            stream: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
            chunked: false,
            stream: None,
        }
    }

    /// A response whose body is produced incrementally by `stream`, sent
    /// with chunked transfer-encoding as the producer emits.
    pub fn streaming(status: u16, content_type: &str, stream: BodyStream) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), content_type.into())],
            body: Vec::new(),
            chunked: true,
            stream: Some(stream),
        }
    }

    /// Adds a header field, builder-style.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Switches the body to chunked transfer-encoding, builder-style.
    pub fn into_chunked(mut self) -> Response {
        self.chunked = true;
        self
    }

    /// Writes the full response. `keep_alive` controls the `Connection`
    /// header (chunked bodies require HTTP/1.1, which every accepted
    /// request already negotiated or downgraded from).
    pub fn write_to(&self, w: &mut (impl Write + Send), keep_alive: bool) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nServer: heteropipe-serve\r\n",
            self.status,
            reason(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        write!(
            w,
            "Connection: {}\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        if let Some(stream) = &self.stream {
            write!(w, "Transfer-Encoding: chunked\r\n\r\n")?;
            let mut sink = ChunkSink { w };
            (stream.0)(&mut sink)?;
            write!(w, "0\r\n\r\n")?;
        } else if self.chunked {
            write!(w, "Transfer-Encoding: chunked\r\n\r\n")?;
            for chunk in self.body.chunks(CHUNK) {
                write!(w, "{:x}\r\n", chunk.len())?;
                w.write_all(chunk)?;
                write!(w, "\r\n")?;
            }
            write!(w, "0\r\n\r\n")?;
        } else {
            write!(w, "Content-Length: {}\r\n\r\n", self.body.len())?;
            w.write_all(&self.body)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()))
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let req =
            parse("GET /v1/benchmarks?all=1 HTTP/1.1\r\nHost: localhost\r\nX-Trace: 7\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/benchmarks");
        assert_eq!(req.query, "all=1");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("x-trace"), Some("7"));
        assert!(req.body.is_empty());
        assert!(req.wants_keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_content_length_body() {
        let req = parse("POST /v1/run HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world").unwrap();
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn parses_chunked_body() {
        let req = parse(
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
             5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn chunked_with_extension_and_trailer() {
        let req = parse(
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
             3;ext=1\r\nabc\r\n0\r\nTrailer: t\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn keep_alive_negotiation() {
        let close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.wants_keep_alive());
        let old = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.wants_keep_alive(), "HTTP/1.0 defaults to close");
        let old_ka = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(old_ka.wants_keep_alive());
    }

    #[test]
    fn rejects_malformed_requests() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET\r\n\r\n",
            "get / HTTP/1.1\r\n\r\n",
            "GET noslash HTTP/1.1\r\n\r\n",
            "GET / HTTP/2.0\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            "GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(ReadError::Malformed(_))),
                "should be malformed: {raw:?}"
            );
        }
    }

    #[test]
    fn reports_clean_close_and_truncation() {
        assert!(matches!(parse(""), Err(ReadError::Closed)));
        assert!(matches!(parse("GET / HT"), Err(ReadError::Malformed(_))));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            Err(ReadError::Io(_) | ReadError::Malformed(_))
        ));
    }

    #[test]
    fn enforces_limits() {
        let long_line = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(limits::MAX_LINE + 10)
        );
        assert!(matches!(parse(&long_line), Err(ReadError::TooLarge)));
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            limits::MAX_BODY + 1
        );
        assert!(matches!(parse(&big_body), Err(ReadError::TooLarge)));
        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-H: v\r\n".repeat(limits::MAX_HEADERS + 1)
        );
        assert!(matches!(parse(&many_headers), Err(ReadError::TooLarge)));
    }

    #[test]
    fn oversize_chunk_sizes_are_too_large_not_a_panic() {
        let chunked = "POST /v1/runs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        for sizes in [
            "1\r\na\r\nffffffffffffffff\r\n",
            "ffffffffffffffff\r\n",
            "100001\r\n",
            "1ffffffffffffffff\r\n",
        ] {
            assert!(
                matches!(
                    parse(&format!("{chunked}{sizes}")),
                    Err(ReadError::TooLarge)
                ),
                "{sizes:?}"
            );
        }
    }

    // ---- generated cases ----------------------------------------------

    use heteropipe_sim::check::{self, Gen};
    use std::io::Read;

    /// A reader that hands out at most a random 1..=`max` bytes per read,
    /// so parsing cannot lean on how the bytes happen to arrive.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        max: usize,
        g: Gen,
    }

    impl Trickle {
        fn new(data: Vec<u8>, g: &mut Gen) -> Trickle {
            let max = g.usize(1, 64);
            Trickle {
                data,
                pos: 0,
                max,
                g: Gen::new(g.u64(0, u64::MAX)),
            }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self
                .g
                .usize(1, self.max + 1)
                .min(buf.len())
                .min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl BufRead for Trickle {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            let end = (self.pos + self.max).min(self.data.len());
            Ok(&self.data[self.pos..end])
        }
        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    fn word(g: &mut Gen, alphabet: &[u8], min: usize, max: usize) -> String {
        let v = g.vec(min, max, |g| alphabet[g.usize(0, alphabet.len())]);
        String::from_utf8(v).unwrap()
    }

    const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";

    /// The request head up to (not including) the framing header and the
    /// blank line, plus the `Request` it must parse to, body aside.
    fn random_head(g: &mut Gen) -> (String, Request) {
        let method = ["GET", "POST", "PUT", "DELETE", "PATCH"][g.usize(0, 5)].to_string();
        let path = format!("/{}", word(g, LOWER, 0, 24));
        let query = if g.bool() {
            word(g, b"abc=&123", 1, 16)
        } else {
            String::new()
        };
        let http10 = g.u64(0, 8) == 0;
        let target = if query.is_empty() {
            path.clone()
        } else {
            format!("{path}?{query}")
        };
        let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let mut head = format!("{method} {target} {version}\r\n");
        let mut headers = Vec::new();
        for _ in 0..g.usize(0, 9) {
            let name = format!("X-{}", word(g, LOWER, 1, 12));
            let value = word(g, b"abcXYZ 019;=/", 0, 20).trim().to_string();
            head.push_str(&format!("{name}: {value}\r\n"));
            headers.push((name.to_ascii_lowercase(), value));
        }
        let req = Request {
            method,
            path,
            query,
            headers,
            body: Vec::new(),
            http10,
            request_id: String::new(),
        };
        (head, req)
    }

    /// `body` in chunked framing: random chunk splits, optional chunk
    /// extensions, either hex case, optional trailers.
    fn chunked(g: &mut Gen, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut rest = body;
        while !rest.is_empty() {
            let n = g.usize(1, rest.len() + 1);
            let size = if g.bool() {
                format!("{n:x}")
            } else {
                format!("{n:X}")
            };
            let ext = if g.u64(0, 4) == 0 { ";ext=1" } else { "" };
            out.extend_from_slice(format!("{size}{ext}\r\n").as_bytes());
            out.extend_from_slice(&rest[..n]);
            out.extend_from_slice(b"\r\n");
            rest = &rest[n..];
        }
        out.extend_from_slice(b"0\r\n");
        for _ in 0..g.usize(0, 3) {
            out.extend_from_slice(b"Trailer-Field: t\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out
    }

    fn same_request(got: &Request, want: &Request, framing: &str) {
        assert_eq!(got.method, want.method);
        assert_eq!(got.path, want.path);
        assert_eq!(got.query, want.query);
        assert_eq!(got.http10, want.http10);
        assert_eq!(got.body, want.body);
        let headers: Vec<_> = got
            .headers
            .iter()
            .filter(|(n, _)| n != framing)
            .cloned()
            .collect();
        assert_eq!(headers, want.headers);
    }

    #[test]
    fn generated_requests_parse_the_same_under_either_framing() {
        check::cases(300, 0x4854_5450, |g| {
            let (head, mut want) = random_head(g);
            let len = g.usize(0, 4097);
            want.body = g.bytes(len);

            let mut by_length = format!("{head}Content-Length: {len}\r\n\r\n").into_bytes();
            by_length.extend_from_slice(&want.body);
            let got = read_request(&mut Trickle::new(by_length, g)).expect("length-framed");
            same_request(&got, &want, "content-length");

            let mut by_chunks = format!("{head}Transfer-Encoding: chunked\r\n\r\n").into_bytes();
            by_chunks.extend(chunked(g, &want.body));
            let got = read_request(&mut Trickle::new(by_chunks, g)).expect("chunk-framed");
            same_request(&got, &want, "transfer-encoding");
        });
    }

    /// Parses `raw`, asserting the verdict is `TooLarge` exactly when
    /// `over` and a successful parse otherwise.
    fn limit_verdict(raw: Vec<u8>, g: &mut Gen, over: bool, what: &str) {
        match read_request(&mut Trickle::new(raw, g)) {
            Err(ReadError::TooLarge) => assert!(over, "{what}: TooLarge inside the limit"),
            Ok(_) => assert!(!over, "{what}: accepted past the limit"),
            Err(e) => panic!("{what}: unexpected {e:?}"),
        }
    }

    #[test]
    fn generated_inputs_near_each_limit_read_too_large_just_past_it() {
        use limits::{MAX_BODY, MAX_HEADERS, MAX_LINE};
        check::cases(200, 0x4C49_4D49, |g| {
            let delta = g.usize(0, 5) as isize - 2;
            match g.usize(0, 5) {
                // A request/header line of MAX_LINE bytes or more, before
                // its CRLF, is refused.
                0 => {
                    let n = (MAX_LINE as isize + delta) as usize;
                    let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(n - 14));
                    limit_verdict(raw.into_bytes(), g, n >= MAX_LINE, "request line");
                }
                1 => {
                    let n = (MAX_LINE as isize + delta) as usize;
                    let raw = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "v".repeat(n - 3));
                    limit_verdict(raw.into_bytes(), g, n >= MAX_LINE, "header line");
                }
                2 => {
                    let n = (MAX_HEADERS as isize + delta) as usize;
                    let raw = format!("GET / HTTP/1.1\r\n{}\r\n", "X-H: v\r\n".repeat(n));
                    limit_verdict(raw.into_bytes(), g, n > MAX_HEADERS, "header count");
                }
                // Bodies around MAX_BODY, framed either way; chunked
                // bodies split at a random point.
                3 => {
                    let n = (MAX_BODY as isize + delta) as usize;
                    let head = format!("POST / HTTP/1.1\r\nContent-Length: {n}\r\n\r\n");
                    let mut raw = head.into_bytes();
                    raw.resize(raw.len() + n, b'x');
                    limit_verdict(raw, g, n > MAX_BODY, "content-length body");
                }
                _ => {
                    let n = (MAX_BODY as isize + delta) as usize;
                    let first = g.usize(1, n);
                    let mut raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
                    for size in [first, n - first] {
                        raw.extend_from_slice(format!("{size:x}\r\n").as_bytes());
                        raw.resize(raw.len() + size, b'x');
                        raw.extend_from_slice(b"\r\n");
                    }
                    raw.extend_from_slice(b"0\r\n\r\n");
                    limit_verdict(raw, g, n > MAX_BODY, "chunked body");
                }
            }
        });
        // Chunk sizes from the whole u64 range after a one-byte first
        // chunk, so the sum with the body so far can overflow: refused
        // unless the body fits.
        check::cases(300, 0x4348_554E, |g| {
            let size = match g.usize(0, 8) {
                0 => u64::MAX,
                _ => g.u64(0, u64::MAX) >> g.u64(0, 64),
            };
            let mut raw =
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\n".to_vec();
            raw.extend_from_slice(format!("{size:x}\r\n").as_bytes());
            let over = size >= MAX_BODY as u64;
            if !over {
                raw.resize(raw.len() + size as usize, b'x');
                raw.extend_from_slice(b"\r\n0\r\n\r\n");
            }
            limit_verdict(raw, g, over, "chunk size");
        });
    }

    #[test]
    fn generated_garbage_never_panics() {
        let valid =
            b"POST /v1/sweeps?async=1 HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n\
                      4;x=y\r\nbody\r\nffffffffffffffff\r\n0\r\nT: t\r\n\r\n";
        check::cases(400, 0x4741_5242, |g| {
            let raw = if g.bool() {
                let len = g.usize(0, 512);
                g.bytes(len)
            } else {
                // A valid request with a few bytes overwritten or cut.
                let mut raw = valid.to_vec();
                for _ in 0..g.usize(1, 6) {
                    let at = g.usize(0, raw.len());
                    raw[at] = g.u64(0, 256) as u8;
                }
                raw.truncate(g.usize(1, raw.len() + 1));
                raw
            };
            let _ = read_request(&mut Trickle::new(raw, g));
        });
    }

    #[test]
    fn writes_content_length_response() {
        let resp = Response::text(200, "hi");
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn writes_chunked_response() {
        let body = "x".repeat(CHUNK + 100);
        let resp = Response::text(200, body.clone()).into_chunked();
        let mut out = Vec::new();
        resp.write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.contains(&format!("{CHUNK:x}\r\n")));
        assert!(text.ends_with("0\r\n\r\n"));
        // Both chunks carry the full body between them.
        assert!(text.matches("xxx").count() > 0);
    }

    #[test]
    fn streaming_response_frames_each_send_as_a_chunk() {
        let stream = BodyStream::new(|sink| {
            sink.send(b"first\n")?;
            sink.send(b"")?; // must not terminate the stream
            sink.send(b"second\n")
        });
        let resp = Response::streaming(200, "application/x-ndjson", stream);
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("Content-Type: application/x-ndjson\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.contains("6\r\nfirst\n\r\n"), "{text}");
        assert!(text.contains("7\r\nsecond\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
