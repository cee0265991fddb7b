//! The workspace's one HTTP/1.1 layer, shared by `repro serve`
//! ([`crate::serve`]), `repro router` ([`crate::router`]), `loadgen`, and
//! the integration-test client. Hand-rolled over `std::net` (the vendored
//! crate set has no hyper or tokio), in three parts:
//!
//! * **Codec.** Requests are read under slow-loris budgets and answered
//!   with `Content-Length` bodies or chunked streams. The decoders —
//!   [`parse_request_head`], [`parse_response_head`] (with
//!   [`parse_status_line`]) and [`parse_chunk_size`] — are pure functions
//!   over bytes that end in a value or a typed [`HttpError`], never a panic,
//!   so a seeded mutation test drives them directly.
//! * **Server skeleton.** One blocking acceptor per server, the
//!   `max_connections` 503 refusal, a thread per connection running the
//!   keep-alive request loop, the drain-until-idle wait, and the
//!   [`ShutdownHandle`]. Serve and router supply only their routing and
//!   counters. The acceptor blocks in `accept()`; shutdown wakes it with one
//!   connection to the listener's own address. A drop guard owns each
//!   connection's slot in the live count, so a panicking handler cannot
//!   leak it and stall the drain.
//! * **Response side.** [`write_request_head`] and a [`Reader`] that reads
//!   response heads and walks bodies by their framing (`Content-Length`,
//!   chunked, or to EOF). The router relays chunked frames verbatim through
//!   the same walk, buffering nothing beyond one socket read.

use crate::error::ERROR_SCHEMA;
use crate::json::Json;
use crate::wallclock::Stopwatch;

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Upper bound on a message head (start line plus headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Most header lines one head may carry.
pub const MAX_HEADERS: usize = 128;

/// Largest chunk a chunked body may declare.
pub const MAX_CHUNK_BYTES: u64 = 1 << 30;

/// Largest body [`Reader::read_response`] collects into memory.
pub const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// Longest chunk-size line (size plus extensions) before its CRLF.
const MAX_CHUNK_LINE: usize = 128;

/// Most request bytes a lingering close discards after a rejection.
const LINGER_BYTES: usize = 16 << 20;

/// A typed decode or transport failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The head is not valid UTF-8.
    NotUtf8,
    /// The request line does not parse (the line, truncated).
    RequestLine(String),
    /// The status line does not parse (the line, truncated).
    StatusLine(String),
    /// A header line has no `:` (the line, truncated).
    HeaderLine(String),
    /// The head exceeds [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`].
    HeadTooLarge,
    /// `Content-Length` is not a decimal byte count.
    BadLength,
    /// A chunk-size line is not 1–16 hex digits plus optional extensions.
    ChunkSize,
    /// A chunk declares more than [`MAX_CHUNK_BYTES`].
    ChunkTooLarge,
    /// Chunk data is not followed by CRLF (trailers are not supported).
    ChunkFraming,
    /// A collected body exceeds [`MAX_RESPONSE_BYTES`].
    BodyTooLarge,
    /// The peer closed mid-message.
    Closed,
    /// A read budget or socket timeout ran out.
    Timeout,
    /// Any other socket error.
    Io(io::ErrorKind),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::NotUtf8 => f.write_str("request head is not valid UTF-8"),
            HttpError::RequestLine(l) => write!(f, "malformed request line {l:?}"),
            HttpError::StatusLine(l) => write!(f, "malformed status line {l:?}"),
            HttpError::HeaderLine(l) => write!(f, "malformed header line {l:?}"),
            HttpError::HeadTooLarge => write!(
                f,
                "head exceeds {MAX_HEAD_BYTES} bytes or {MAX_HEADERS} headers"
            ),
            HttpError::BadLength => f.write_str("Content-Length is not a byte count"),
            HttpError::ChunkSize => f.write_str("malformed chunk-size line"),
            HttpError::ChunkTooLarge => write!(f, "chunk exceeds {MAX_CHUNK_BYTES} bytes"),
            HttpError::ChunkFraming => f.write_str("chunk data not followed by CRLF"),
            HttpError::BodyTooLarge => write!(f, "body exceeds {MAX_RESPONSE_BYTES} bytes"),
            HttpError::Closed => f.write_str("connection closed mid-message"),
            HttpError::Timeout => f.write_str("timed out"),
            HttpError::Io(kind) => write!(f, "socket error: {kind}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            io::ErrorKind::UnexpectedEof => HttpError::Closed,
            kind => HttpError::Io(kind),
        }
    }
}

/// At most 80 characters of an offending line, for error messages.
fn excerpt(line: &str) -> String {
    line.chars().take(80).collect()
}

/// The value of the first header named `name` (ASCII case-insensitive).
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn says_close(headers: &[(String, String)]) -> bool {
    header(headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// The offset just past the `\r\n\r\n` ending a head, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// `(lowercased name, trimmed value)` pairs in wire order.
type Headers = Vec<(String, String)>;

/// Splits a head (without its final blank line) into its start line and
/// headers, enforcing the head caps.
fn split_head(head: &[u8]) -> Result<(&str, Headers), HttpError> {
    if head.len() > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    let text = std::str::from_utf8(head).map_err(|_| HttpError::NotUtf8)?;
    let mut lines = text.split("\r\n");
    let start = lines.next().unwrap_or("");
    let mut headers = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let Some((k, v)) = line.split_once(':') else {
            return Err(HttpError::HeaderLine(excerpt(line)));
        };
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    Ok((start, headers))
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method, e.g. `POST`.
    pub method: String,
    /// Request target, e.g. `/v1/experiments`.
    pub path: String,
    /// Headers in wire order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty in a parsed head; the server reads it after).
    pub body: Vec<u8>,
    /// The client sent `Connection: close`.
    pub close: bool,
}

/// Parses a request head: everything before the `\r\n\r\n` that ends it.
pub fn parse_request_head(head: &[u8]) -> Result<Request, HttpError> {
    let (line, headers) = split_head(head)?;
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::RequestLine(excerpt(line)));
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        close: says_close(&headers),
        headers,
        body: Vec::new(),
    })
}

/// The status code of a status line (`HTTP/1.x NNN reason`).
pub fn parse_status_line(line: &[u8]) -> Result<u16, HttpError> {
    let text = std::str::from_utf8(line).map_err(|_| HttpError::NotUtf8)?;
    let mut parts = text.split(' ');
    let version = parts.next().unwrap_or("");
    match parts.next().map(str::parse::<u16>) {
        Some(Ok(status)) if version.starts_with("HTTP/1.") => Ok(status),
        _ => Err(HttpError::StatusLine(excerpt(text))),
    }
}

/// A parsed response head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHead {
    /// Status code.
    pub status: u16,
    /// Headers in wire order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
}

/// How a response body is delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Exactly this many bytes.
    Length(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
    /// Everything until the peer closes.
    ToEof,
}

impl ResponseHead {
    /// The body framing the head declares.
    pub fn framing(&self) -> Result<Framing, HttpError> {
        if header(&self.headers, "transfer-encoding")
            .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
        {
            return Ok(Framing::Chunked);
        }
        match header(&self.headers, "content-length") {
            Some(v) => v
                .parse::<u64>()
                .map(Framing::Length)
                .map_err(|_| HttpError::BadLength),
            None => Ok(Framing::ToEof),
        }
    }
}

/// Parses a response head: everything before the `\r\n\r\n` that ends it.
pub fn parse_response_head(head: &[u8]) -> Result<ResponseHead, HttpError> {
    let (line, headers) = split_head(head)?;
    Ok(ResponseHead {
        status: parse_status_line(line.as_bytes())?,
        headers,
    })
}

/// Parses a chunk-size line (without its CRLF): hex digits, optionally
/// followed by `;extensions`. Sizes over [`MAX_CHUNK_BYTES`] are refused,
/// so no caller ever does arithmetic on a hostile size.
pub fn parse_chunk_size(line: &[u8]) -> Result<u64, HttpError> {
    let digits = line.split(|&b| b == b';').next().unwrap_or_default();
    let digits = digits.trim_ascii();
    if digits.is_empty() || digits.len() > 16 || !digits.iter().all(u8::is_ascii_hexdigit) {
        return Err(HttpError::ChunkSize);
    }
    let size = digits.iter().fold(0u64, |acc, &d| {
        let v = match d {
            b'0'..=b'9' => d - b'0',
            _ => (d | 0x20) - b'a' + 10,
        };
        (acc << 4) | u64::from(v)
    });
    if size > MAX_CHUNK_BYTES {
        return Err(HttpError::ChunkTooLarge);
    }
    Ok(size)
}

/// One piece of a body, in wire order, as [`Reader::read_body`] walks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body<'a> {
    /// Chunk framing: a size line or the CRLF closing a chunk.
    Framing(&'a [u8]),
    /// Payload bytes.
    Data(&'a [u8]),
    /// One chunk, or a whole unchunked body, is complete.
    End,
}

/// A response collected by [`Reader::read_response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in wire order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The decoded body (chunk payloads concatenated), lossily UTF-8.
    pub body: String,
    /// Per-chunk payloads of a chunked body (an unchunked body is one
    /// chunk). Streamed responses carry one JSON document per chunk.
    pub chunks: Vec<String>,
    /// The body used chunked transfer encoding.
    pub chunked: bool,
}

impl Response {
    /// The value of the first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

/// A buffered reader over one connection: bytes read past one response
/// stay buffered for the next, so a keep-alive connection carries many.
pub struct Reader<S> {
    src: S,
    buf: Vec<u8>,
}

impl<S: Read> Reader<S> {
    /// Wraps a connection (or any byte source).
    pub fn new(src: S) -> Self {
        Reader {
            src,
            buf: Vec::new(),
        }
    }

    /// The underlying connection, e.g. to write the next request.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.src
    }

    /// Unwraps the connection, dropping any buffered bytes.
    pub fn into_inner(self) -> S {
        self.src
    }

    /// Whether the connection can carry another exchange after `head`'s
    /// body was read: the body is self-delimiting, the peer did not say
    /// `Connection: close`, and no bytes past the body are buffered.
    pub fn reusable(&self, head: &ResponseHead) -> bool {
        !matches!(head.framing(), Ok(Framing::ToEof) | Err(_))
            && !says_close(&head.headers)
            && self.buf.is_empty()
    }

    /// One socket read appended to the buffer; EOF is [`HttpError::Closed`].
    fn fill(&mut self) -> Result<(), HttpError> {
        let mut chunk = [0u8; 8192];
        loop {
            match self.src.read(&mut chunk) {
                Ok(0) => return Err(HttpError::Closed),
                Ok(n) => {
                    self.buf
                        .extend_from_slice(chunk.get(..n).unwrap_or_default());
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Hands the first `n` buffered bytes to `on` as framing and drops them.
    fn framing(
        &mut self,
        n: usize,
        on: &mut impl FnMut(Body<'_>) -> Result<(), HttpError>,
    ) -> Result<(), HttpError> {
        on(Body::Framing(self.buf.get(..n).unwrap_or_default()))?;
        self.buf.drain(..n.min(self.buf.len()));
        Ok(())
    }

    /// Hands exactly `n` payload bytes to `on` as they arrive.
    fn data(
        &mut self,
        mut n: u64,
        on: &mut impl FnMut(Body<'_>) -> Result<(), HttpError>,
    ) -> Result<(), HttpError> {
        while n > 0 {
            if self.buf.is_empty() {
                self.fill()?;
            }
            let take = (self.buf.len() as u64).min(n) as usize;
            on(Body::Data(self.buf.get(..take).unwrap_or_default()))?;
            self.buf.drain(..take);
            n -= take as u64;
        }
        Ok(())
    }

    /// Reads one response head within `budget_ms`, skipping interim `1xx`
    /// responses (`100 Continue`).
    pub fn read_head(&mut self, budget_ms: u64) -> Result<ResponseHead, HttpError> {
        let clock = Stopwatch::start();
        loop {
            let end = loop {
                if let Some(end) = find_head_end(&self.buf) {
                    break end;
                }
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(HttpError::HeadTooLarge);
                }
                if clock.elapsed_ms() as u64 > budget_ms {
                    return Err(HttpError::Timeout);
                }
                self.fill()?;
            };
            let head = parse_response_head(self.buf.get(..end - 4).unwrap_or_default())?;
            self.buf.drain(..end);
            if !(100..200).contains(&head.status) {
                return Ok(head);
            }
        }
    }

    /// Walks one body framed as `framing`, handing every wire byte to `on`
    /// in order: chunk framing and payload as they arrive, [`Body::End`]
    /// after each chunk (after the whole body when unchunked). Chunk sizes
    /// go through [`parse_chunk_size`]; nothing beyond one socket read and
    /// one chunk-size line is buffered.
    pub fn read_body(
        &mut self,
        framing: Framing,
        mut on: impl FnMut(Body<'_>) -> Result<(), HttpError>,
    ) -> Result<(), HttpError> {
        match framing {
            Framing::Length(n) => self.data(n, &mut on)?,
            Framing::ToEof => loop {
                let n = self.buf.len();
                self.data(n as u64, &mut on)?;
                match self.fill() {
                    Ok(()) => {}
                    Err(HttpError::Closed) => break,
                    Err(e) => return Err(e),
                }
            },
            Framing::Chunked => loop {
                let line = loop {
                    if let Some(p) = find_crlf(&self.buf) {
                        break p;
                    }
                    if self.buf.len() > MAX_CHUNK_LINE {
                        return Err(HttpError::ChunkSize);
                    }
                    self.fill()?;
                };
                let size = parse_chunk_size(self.buf.get(..line).unwrap_or_default())?;
                self.framing(line + 2, &mut on)?;
                self.data(size, &mut on)?;
                while self.buf.len() < 2 {
                    self.fill()?;
                }
                if !self.buf.starts_with(b"\r\n") {
                    return Err(HttpError::ChunkFraming);
                }
                self.framing(2, &mut on)?;
                on(Body::End)?;
                if size == 0 {
                    return Ok(());
                }
            },
        }
        on(Body::End)
    }

    /// Reads one whole response (head within `budget_ms`), collecting at
    /// most [`MAX_RESPONSE_BYTES`] of body.
    pub fn read_response(&mut self, budget_ms: u64) -> Result<Response, HttpError> {
        let head = self.read_head(budget_ms)?;
        let framing = head.framing()?;
        let mut body = Vec::new();
        let mut chunks = Vec::new();
        let mut chunk_start = 0;
        self.read_body(framing, |piece| {
            match piece {
                Body::Framing(_) => {}
                Body::Data(d) if body.len() + d.len() > MAX_RESPONSE_BYTES => {
                    return Err(HttpError::BodyTooLarge)
                }
                Body::Data(d) => body.extend_from_slice(d),
                Body::End => {
                    let chunk = body.get(chunk_start..).unwrap_or_default();
                    if !chunk.is_empty() {
                        chunks.push(String::from_utf8_lossy(chunk).into_owned());
                    }
                    chunk_start = body.len();
                }
            }
            Ok(())
        })?;
        Ok(Response {
            status: head.status,
            headers: head.headers,
            body: String::from_utf8_lossy(&body).into_owned(),
            chunks,
            chunked: framing == Framing::Chunked,
        })
    }
}

/// Writes a request line, `headers` in order, and the blank line.
pub fn write_request_head<'a>(
    w: &mut impl Write,
    method: &str,
    path: &str,
    headers: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())
}

/// Writes a status line, `headers` in order, the `Connection` header for
/// `close`, and the blank line (unflushed).
pub(crate) fn write_response_head<'a>(
    w: &mut impl Write,
    status: u16,
    headers: impl IntoIterator<Item = (&'a str, &'a str)>,
    close: bool,
) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {status} {}\r\n", status_reason(status));
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    w.write_all(head.as_bytes())
}

/// The reason phrase for every status the services emit.
pub(crate) fn status_reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders a `greencloud-error/1` body for failures that are not an
/// `ApiError`; `extra` appends detail fields.
pub(crate) fn error_body(code: &str, message: &str, extra: Vec<(&'static str, Json)>) -> String {
    let mut fields = vec![
        ("schema".to_string(), Json::from(ERROR_SCHEMA)),
        ("code".to_string(), Json::from(code)),
        ("message".to_string(), Json::from(message)),
    ];
    for (k, v) in extra {
        fields.push((k.to_string(), v));
    }
    Json::Object(fields).render()
}

/// Answers a request no route matched: `405` with `Allow` on a known
/// path, `404` otherwise.
pub(crate) fn unrouted(stream: &mut impl Write, req: &Request, close: bool) -> bool {
    let allow = match req.path.as_str() {
        "/v1/experiments" | "/v1/jobs" => "POST",
        "/v1/healthz" | "/v1/readyz" | "/v1/stats" => "GET",
        _ => {
            let body = error_body("not_found", &format!("no route {}", req.path), Vec::new());
            return write_response(stream, 404, &[], &body, close).is_ok();
        }
    };
    let message = format!("{} is not supported on {}", req.method, req.path);
    let body = error_body("method_not_allowed", &message, Vec::new());
    write_response(stream, 405, &[("Allow", allow.to_string())], &body, close).is_ok()
}

/// Writes a whole JSON response with `Content-Length` framing.
pub(crate) fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    let len = body.len().to_string();
    let fixed = [
        ("Content-Type", "application/json"),
        ("Content-Length", len.as_str()),
    ];
    let extra = extra_headers.iter().map(|(k, v)| (*k, v.as_str()));
    write_response_head(stream, status, fixed.into_iter().chain(extra), close)?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Writes the head of a chunked (streamed) response. The body follows as
/// [`write_chunk`] calls ended by [`finish_chunks`] — one JSON document
/// per chunk; the status commits before the solve finishes, so later
/// failures travel in-band as `greencloud-error/1` documents.
pub(crate) fn write_chunked_head(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    close: bool,
) -> io::Result<()> {
    let fixed = [
        ("Content-Type", "application/x-json-stream"),
        ("Transfer-Encoding", "chunked"),
    ];
    let extra = extra_headers.iter().map(|(k, v)| (*k, v.as_str()));
    write_response_head(stream, status, fixed.into_iter().chain(extra), close)?;
    stream.flush()
}

/// One chunk: hex length, CRLF, payload, CRLF — flushed so the client (or
/// a relaying router) sees the frame immediately.
pub(crate) fn write_chunk(stream: &mut impl Write, data: &[u8]) -> io::Result<()> {
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// The terminating zero-length chunk of a streamed response.
pub(crate) fn finish_chunks(stream: &mut impl Write) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Outcome of reading one request off a server connection.
pub(crate) enum ReadOut {
    /// A complete, parseable request.
    Request(Request),
    /// The peer closed (or idled out, or the server is draining) — hang up
    /// without writing anything.
    Closed,
    /// A malformed or abusive request: answer `status` with a
    /// `greencloud-error/1` body carrying `code`, then close.
    Reject {
        status: u16,
        code: &'static str,
        message: String,
    },
}

fn reject(status: u16, code: &'static str, message: impl Into<String>) -> ReadOut {
    ReadOut::Reject {
        status,
        code,
        message: message.into(),
    }
}

/// Reads once into `buf`; `Ok(false)` means only a timeout or interrupt.
fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<bool, ()> {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => Err(()),
        Ok(n) => {
            buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
            Ok(true)
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(false)
        }
        Err(_) => Err(()),
    }
}

/// Reads one request under slow-loris budgets: a 250 ms-granularity idle
/// wait for the first byte (closing on drain or keep-alive idle
/// expiration), then byte- and time-capped reads for head and body.
/// `carry` holds what the client sent past the previous request (HTTP/1.1
/// pipelining): it starts this request, and whatever follows this
/// request's body is left in it for the next.
fn read_request(stream: &mut TcpStream, core: &ServerCore, carry: &mut Vec<u8>) -> ReadOut {
    let limits = &core.limits;
    let mut buf = std::mem::take(carry);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let idle = Stopwatch::start();
    while buf.is_empty() {
        match read_more(stream, &mut buf) {
            Err(()) => return ReadOut::Closed,
            Ok(false)
                if core.is_draining() || idle.elapsed_ms() as u64 > limits.read_timeout_ms =>
            {
                return ReadOut::Closed
            }
            Ok(_) => {}
        }
    }
    let head_clock = Stopwatch::start();
    let head_end = loop {
        if let Some(end) = find_head_end(&buf) {
            break end;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return reject(
                431,
                "head_too_large",
                format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            );
        }
        if head_clock.elapsed_ms() as u64 > limits.read_timeout_ms {
            return reject(408, "request_timeout", "timed out reading the request head");
        }
        if read_more(stream, &mut buf).is_err() {
            return ReadOut::Closed;
        }
    };
    let mut req = match parse_request_head(buf.get(..head_end - 4).unwrap_or_default()) {
        Ok(r) => r,
        Err(HttpError::HeadTooLarge) => {
            return reject(431, "head_too_large", HttpError::HeadTooLarge.to_string())
        }
        Err(e) => return reject(400, "bad_request", e.to_string()),
    };
    // `Content-Length` frames a body on any method; POST and PUT must
    // send one.
    let mut body = buf.split_off(head_end);
    let needs_body = req.method == "POST" || req.method == "PUT";
    if needs_body && header(&req.headers, "transfer-encoding").is_some() {
        return reject(
            411,
            "length_required",
            "chunked bodies are not supported; send Content-Length",
        );
    }
    let len = match header(&req.headers, "content-length").and_then(|v| v.parse::<usize>().ok()) {
        Some(len) => len,
        None if !needs_body => 0,
        None => {
            return reject(
                411,
                "length_required",
                "POST requires a Content-Length header",
            )
        }
    };
    if len > limits.max_body_bytes {
        return reject(
            413,
            "body_too_large",
            format!(
                "body of {len} bytes exceeds the {} byte cap",
                limits.max_body_bytes
            ),
        );
    }
    if len > 0
        && body.is_empty()
        && header(&req.headers, "expect")
            .is_some_and(|v| v.to_ascii_lowercase().contains("100-continue"))
    {
        let _ = stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
        let _ = stream.flush();
    }
    let body_clock = Stopwatch::start();
    while body.len() < len {
        if body_clock.elapsed_ms() as u64 > limits.read_timeout_ms {
            return reject(408, "request_timeout", "timed out reading the request body");
        }
        if read_more(stream, &mut body).is_err() {
            return ReadOut::Closed;
        }
    }
    *carry = body.split_off(len);
    req.body = body;
    ReadOut::Request(req)
}

/// Socket-level limits of one server.
pub(crate) struct Limits {
    /// Simultaneous connections; beyond this, a best-effort 503.
    pub(crate) max_connections: usize,
    /// Largest accepted request body (413 beyond).
    pub(crate) max_body_bytes: usize,
    /// Budget for reading a request head or body.
    pub(crate) read_timeout_ms: u64,
    /// Socket write timeout for responses.
    pub(crate) write_timeout_ms: u64,
}

/// What the skeleton shares between the acceptor, the connection threads,
/// and the shutdown handle.
pub(crate) struct ServerCore {
    /// `serve` or `router`: names the threads.
    name: &'static str,
    /// The 503 message for connections over the cap.
    busy: &'static str,
    addr: SocketAddr,
    limits: Limits,
    /// Set by [`ShutdownHandle::trigger_shutdown`]: the acceptor stops,
    /// readyz fails, new work gets 503, idle keep-alive connections close.
    draining: AtomicBool,
    live_conns: AtomicUsize,
}

impl ServerCore {
    /// Binds `addr`, returning the core and the listener its acceptor owns.
    pub(crate) fn bind(
        addr: &str,
        name: &'static str,
        busy: &'static str,
        limits: Limits,
    ) -> io::Result<(Arc<ServerCore>, TcpListener)> {
        let listener = TcpListener::bind(addr)?;
        let core = ServerCore {
            name,
            busy,
            addr: listener.local_addr()?,
            limits,
            draining: AtomicBool::new(false),
            live_conns: AtomicUsize::new(0),
        };
        Ok((Arc::new(core), listener))
    }

    /// The bound address.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Connections currently being served.
    pub(crate) fn live_conns(&self) -> usize {
        self.live_conns.load(Ordering::SeqCst)
    }

    /// A cloneable shutdown control.
    pub(crate) fn handle(self: &Arc<Self>) -> ShutdownHandle {
        ShutdownHandle {
            core: Arc::clone(self),
        }
    }

    /// Starts draining and wakes the acceptor.
    pub(crate) fn trigger_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// One connection to the listener's own address (loopback when bound
    /// to an unspecified IP), so the blocked `accept()` returns and sees
    /// the drain. A failed connect is harmless: [`ServerCore::join_acceptor`]
    /// repeats it.
    fn wake(&self) {
        let ip = match self.addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let target = SocketAddr::new(ip, self.addr.port());
        let _ = TcpStream::connect_timeout(&target, Duration::from_millis(250));
    }

    /// Blocks until shutdown is triggered and the acceptor has finished,
    /// repeating the wake so a failed connect cannot hang the drain.
    pub(crate) fn join_acceptor(&self, acceptor: thread::JoinHandle<()>) {
        while !acceptor.is_finished() {
            if self.is_draining() {
                self.wake();
            }
            thread::sleep(Duration::from_millis(10));
        }
        let _ = acceptor.join();
    }

    /// Waits up to `budget_ms` until no connection is live and `idle`
    /// (polled every 10 ms) holds.
    pub(crate) fn wait_idle(&self, budget_ms: u64, mut idle: impl FnMut() -> bool) {
        let clock = Stopwatch::start();
        while (clock.elapsed_ms() as u64) < budget_ms {
            if idle() && self.live_conns() == 0 {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
    }
}

/// A cloneable remote control for a running server (`repro serve` or
/// `repro router`): signal handlers and tests trigger shutdown without
/// owning the server.
#[derive(Clone)]
pub struct ShutdownHandle {
    core: Arc<ServerCore>,
}

impl ShutdownHandle {
    /// Begins graceful shutdown: the acceptor stops, readyz starts
    /// failing, and the server's `join` proceeds to drain.
    pub fn trigger_shutdown(&self) {
        self.core.trigger_shutdown();
    }

    /// True once shutdown has been triggered.
    pub fn is_draining(&self) -> bool {
        self.core.is_draining()
    }
}

/// The per-server half of the skeleton: routing and counters.
pub(crate) trait Service: Send + Sync + 'static {
    /// The shared socket state.
    fn core(&self) -> &ServerCore;
    /// Answers one request; returns whether the connection may stay open.
    fn route(&self, stream: &mut TcpStream, req: &Request, close: bool) -> bool;
    /// Counts a request the codec rejected (400/408/411/413/431).
    fn count_rejected(&self);
    /// Counts a connection refused over `max_connections`.
    fn count_refused(&self) {}
}

/// Owns one connection's slot in the live count: created by the acceptor,
/// moved into the connection thread, and dropped when that thread ends —
/// by return or by panic — or when the thread fails to spawn.
struct LiveConn<S: Service>(Arc<S>);

impl<S: Service> LiveConn<S> {
    fn enter(svc: &Arc<S>) -> Self {
        svc.core().live_conns.fetch_add(1, Ordering::SeqCst);
        LiveConn(Arc::clone(svc))
    }
}

impl<S: Service> Drop for LiveConn<S> {
    fn drop(&mut self) {
        self.0.core().live_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Spawns the acceptor thread, which owns `listener` until the drain.
pub(crate) fn spawn_acceptor<S: Service>(
    listener: TcpListener,
    svc: Arc<S>,
) -> io::Result<thread::JoinHandle<()>> {
    let name = format!("gc-{}-accept", svc.core().name);
    thread::Builder::new()
        .name(name)
        .spawn(move || accept_loop(&listener, &svc))
}

/// Accepts connections until the drain; each gets its own thread, capped
/// at `max_connections` live at once. Blocks in `accept()` — the drain's
/// wake connection is what ends the loop.
fn accept_loop<S: Service>(listener: &TcpListener, svc: &Arc<S>) {
    let core = svc.core();
    loop {
        let accepted = listener.accept();
        if core.is_draining() {
            return;
        }
        let Ok((mut stream, _peer)) = accepted else {
            thread::yield_now();
            continue;
        };
        if core.live_conns() >= core.limits.max_connections {
            svc.count_refused();
            let timeout = Duration::from_millis(core.limits.write_timeout_ms);
            let _ = stream.set_write_timeout(Some(timeout));
            let body = error_body("overloaded", core.busy, Vec::new());
            let retry = [("Retry-After", "1".to_string())];
            let _ = write_response(&mut stream, 503, &retry, &body, true);
            continue;
        }
        let live = LiveConn::enter(svc);
        let _ = thread::Builder::new()
            .name(format!("gc-{}-conn", core.name))
            .spawn(move || serve_connection(stream, &*live.0));
    }
}

/// Serves one connection: requests are read and routed until the peer
/// hangs up, sends `Connection: close`, errors, or the server drains.
fn serve_connection<S: Service>(mut stream: TcpStream, svc: &S) {
    let core = svc.core();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(core.limits.write_timeout_ms)));
    let mut carry = Vec::new();
    loop {
        match read_request(&mut stream, core, &mut carry) {
            ReadOut::Closed => break,
            ReadOut::Reject {
                status,
                code,
                message,
            } => {
                svc.count_rejected();
                let body = error_body(code, &message, Vec::new());
                let _ = write_response(&mut stream, status, &[], &body, true);
                linger(&mut stream, &core.limits);
                break;
            }
            ReadOut::Request(req) => {
                let close = req.close || core.is_draining();
                let keep = svc.route(&mut stream, &req, close);
                if close || !keep {
                    break;
                }
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Lingering close after a rejection that left request bytes unread (an
/// oversized body, say): stop writing, then discard what the client is
/// still sending until it hangs up, for at most the read budget and
/// [`LINGER_BYTES`]. Closing with unread input would reset the
/// connection, and the reset can destroy the answer before the client
/// reads it.
fn linger(stream: &mut TcpStream, limits: &Limits) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let clock = Stopwatch::start();
    let mut budget = LINGER_BYTES;
    let mut sink = [0u8; 8192];
    while budget > 0 && (clock.elapsed_ms() as u64) < limits.read_timeout_ms {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(n) => budget = budget.saturating_sub(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_finder() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn request_head_accepts_and_rejects() {
        let r = parse_request_head(
            b"POST /v1/experiments HTTP/1.1\r\nContent-Length: 12\r\nX-Y: z\r\nConnection: close",
        )
        .expect("parses");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/experiments");
        assert_eq!(header(&r.headers, "content-length"), Some("12"));
        assert_eq!(header(&r.headers, "X-Y"), Some("z"));
        assert!(r.close);
        assert!(parse_request_head(b"GARBAGE").is_err());
        assert!(parse_request_head(b"GET / SPDY/9").is_err());
        assert!(parse_request_head(b"GET / HTTP/1.1\r\nno-colon-here").is_err());
        assert_eq!(
            parse_request_head(b"GET / HTTP/1.1\r\n\xff: x"),
            Err(HttpError::NotUtf8)
        );
        let many = format!("GET / HTTP/1.1{}", "\r\na: b".repeat(MAX_HEADERS + 1));
        assert_eq!(
            parse_request_head(many.as_bytes()),
            Err(HttpError::HeadTooLarge)
        );
    }

    #[test]
    fn status_line_parser_accepts_and_rejects() {
        assert_eq!(parse_status_line(b"HTTP/1.1 200 OK"), Ok(200));
        let head = parse_response_head(b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3")
            .expect("parses");
        assert_eq!(head.status, 429);
        assert_eq!(header(&head.headers, "retry-after"), Some("3"));
        assert!(parse_status_line(b"SPDY/9 200 OK").is_err());
        assert!(parse_status_line(b"HTTP/1.1 abc").is_err());
        assert!(parse_status_line(b"").is_err());
    }

    #[test]
    fn chunk_sizes_are_checked() {
        assert_eq!(parse_chunk_size(b"1a"), Ok(26));
        assert_eq!(parse_chunk_size(b" 0 ;ext=1"), Ok(0));
        assert_eq!(parse_chunk_size(b"FF"), Ok(255));
        assert_eq!(
            parse_chunk_size(b"ffffffffffffffff"),
            Err(HttpError::ChunkTooLarge)
        );
        assert_eq!(
            parse_chunk_size(b"10000000000000000"),
            Err(HttpError::ChunkSize)
        );
        assert_eq!(parse_chunk_size(b""), Err(HttpError::ChunkSize));
        assert_eq!(parse_chunk_size(b"-1"), Err(HttpError::ChunkSize));
    }

    #[test]
    fn reader_walks_every_framing() {
        let wire: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n\
            HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2;x\r\nde\r\n0\r\n\r\n\
            HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno\
            HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nrest";
        let mut rd = Reader::new(wire);
        let streamed = rd.read_response(1_000).expect("chunked");
        assert_eq!((streamed.status, streamed.chunked), (200, true));
        assert_eq!(streamed.body, "abcde");
        assert_eq!(streamed.chunks, vec!["abc".to_string(), "de".to_string()]);
        let head = rd.read_head(1_000).expect("head");
        let mut seen = Vec::new();
        rd.read_body(head.framing().expect("framing"), |p| {
            if let Body::Data(d) = p {
                seen.extend_from_slice(d);
            }
            Ok(())
        })
        .expect("length body");
        assert_eq!((head.status, seen.as_slice()), (404, &b"no"[..]));
        // The next response is already buffered: not reusable for a new exchange.
        assert!(!rd.reusable(&head));
        let last = rd.read_response(1_000).expect("to eof");
        assert_eq!((last.body.as_str(), last.chunked), ("rest", false));
    }

    #[test]
    fn relayed_chunks_are_verbatim_and_hostile_sizes_are_typed() {
        let body: &[u8] = b"5\r\nhello\r\n0\r\n\r\n";
        let mut out = Vec::new();
        Reader::new(body)
            .read_body(Framing::Chunked, |p| {
                if let Body::Framing(b) | Body::Data(b) = p {
                    out.extend_from_slice(b);
                }
                Ok(())
            })
            .expect("relays");
        assert_eq!(out, body);
        let hostile: &[u8] = b"ffffffffffffffff\r\n";
        let err = Reader::new(hostile).read_body(Framing::Chunked, |_| Ok(()));
        assert_eq!(err, Err(HttpError::ChunkTooLarge));
        let trailer: &[u8] = b"0\r\nX-Trailer: 1\r\n\r\n";
        let err = Reader::new(trailer).read_body(Framing::Chunked, |_| Ok(()));
        assert_eq!(err, Err(HttpError::ChunkFraming));
    }

    #[test]
    fn status_reasons_cover_every_emitted_code() {
        for code in [
            200, 202, 400, 404, 405, 408, 409, 411, 413, 422, 429, 431, 499, 500, 503,
        ] {
            assert_ne!(status_reason(code), "Unknown", "status {code}");
        }
    }

    #[test]
    fn error_body_is_schema_versioned() {
        let body = error_body(
            "overloaded",
            "queue full",
            vec![("retry_after_s", Json::from(3u64))],
        );
        let doc = Json::parse(&body).expect("parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(ERROR_SCHEMA));
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(
            doc.get("message").and_then(Json::as_str),
            Some("queue full")
        );
        assert_eq!(doc.get("retry_after_s").and_then(Json::as_u64), Some(3));
    }
}
