//! Minimal HTTP/1.1 framing over any `Read + Write` stream.
//!
//! Just enough protocol for the routing service: one request per
//! connection (`Connection: close`), request line + headers +
//! `Content-Length`-framed body on the way in, a fully-buffered response
//! on the way out. The reader is hardened against hostile peers: every
//! line, the header count and the body size are bounded, and a peer that
//! stalls or disconnects mid-request surfaces as a typed error, never a
//! hang (callers set stream timeouts) or a panic.
//!
//! The accept side lives here too: [`bind_ticking`] and [`accept_until`]
//! are the one accept loop shared by `mebl serve` and `mebl coord`.

use std::io::{BufRead, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Upper bound on one request line or header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, e.g. `/route` (query strings are kept verbatim).
    pub path: String,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` framed; empty when absent).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The peer closed (or timed out) before a full request arrived.
    Disconnected,
    /// The bytes received do not form a valid HTTP/1.1 request.
    Malformed(String),
    /// The declared body exceeds the server's size limit.
    TooLarge { declared: usize, limit: usize },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Disconnected => write!(f, "peer disconnected mid-request"),
            ReadError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ReadError::TooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
        }
    }
}

/// Reads one bounded CRLF- (or LF-) terminated line, without the ending.
fn read_line(stream: &mut impl BufRead) -> Result<String, ReadError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let mut got = 0;
        // BufRead::read is fine here: one byte at a time off the buffer.
        while got == 0 {
            match stream.read(&mut byte) {
                Ok(0) => return Err(ReadError::Disconnected),
                Ok(n) => got = n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(ReadError::Disconnected),
            }
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| ReadError::Malformed("non-UTF-8 header bytes".into()));
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE {
            return Err(ReadError::Malformed("header line too long".into()));
        }
    }
}

/// Reads one full request from `stream`, bounding the body at
/// `max_body` bytes.
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, ReadError> {
    let request_line = read_line(stream)?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(ReadError::Malformed(format!(
                "bad request line `{}`",
                request_line.chars().take(80).collect::<String>()
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Malformed(format!("unsupported version `{version}`")));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(stream)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::Malformed("too many headers".into()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed("header without `:`".into()));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed("bad content-length".into()))?,
    };
    if content_length > max_body {
        return Err(ReadError::TooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < body.len() {
        match stream.read(&mut body[filled..]) {
            Ok(0) => return Err(ReadError::Disconnected),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(ReadError::Disconnected),
        }
    }

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// Binds `addr` as a blocking listener whose `accept` gives up after
/// `tick` when no connection arrives, for [`accept_until`].
///
/// std has no timeout setter on a listener, but Linux `accept(2)`
/// honours `SO_RCVTIMEO`, which is what `set_read_timeout` sets; the
/// fd round-trips through a `TcpStream` to reach it. Nothing dials.
/// Accepted sockets inherit the timeout, so every connection handler
/// must set its own read timeout before reading.
pub fn bind_ticking(addr: &str, tick: Duration) -> std::io::Result<TcpListener> {
    let socket = TcpStream::from(OwnedFd::from(TcpListener::bind(addr)?));
    socket.set_read_timeout(Some(tick))?;
    Ok(TcpListener::from(OwnedFd::from(socket)))
}

/// Hands each connection `listener` accepts to `on_accept`, in this
/// thread, until `stop` is set. A connection is taken the moment it
/// arrives; an idle listener wakes once per `tick` to check `stop`, so
/// a drain is noticed within one tick.
pub fn accept_until(
    listener: &TcpListener,
    tick: Duration,
    stop: &AtomicBool,
    mut on_accept: impl FnMut(TcpStream),
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => on_accept(stream),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            // Any other failure (EMFILE, say) may repeat at once; wait
            // out a tick so the loop cannot spin on it.
            Err(_) => std::thread::sleep(tick),
        }
    }
}

/// One response, buffered fully before writing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the always-present framing headers.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// The standard reason phrase for the status codes the service uses.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Response",
        }
    }

    /// Writes the full response; the connection is then done
    /// (`Connection: close` framing).
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            self.reason(),
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(bytes), 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            b"POST /route HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/route");
        assert_eq!(
            req.headers,
            [
                ("host".to_string(), "x".to_string()),
                ("content-length".to_string(), "5".to_string()),
            ]
        );
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body_and_bare_lf() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(matches!(parse(b""), Err(ReadError::Disconnected)));
        assert!(matches!(
            parse(b"GARBAGE\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/2\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nbad header\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: kidding\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_body_is_a_disconnect() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            Err(ReadError::Disconnected)
        ));
    }

    #[test]
    fn oversized_body_is_too_large() {
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n");
        assert!(matches!(err, Err(ReadError::TooLarge { .. })));
    }

    #[test]
    fn response_framing() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("x-cache", "hit")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("x-cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn reason_phrases_cover_service_statuses() {
        for status in [200, 400, 404, 405, 408, 413, 422, 429, 500, 503, 504] {
            assert_ne!(Response::json(status, "").reason(), "Response");
        }
    }
}
