//! Blocking loopback HTTP/1.1 client for exercising `mebl-serve`.
//!
//! Tests and the CI smoke driver talk to the daemon through this tiny
//! client instead of raw sockets (the `no-raw-net` lint confines
//! `TcpStream` to the service crate and this file). It speaks exactly
//! the dialect the server emits — one request per connection,
//! `Connection: close` framing — and reads to EOF, so it needs no
//! chunked-transfer or keep-alive logic. It can also send deliberately
//! broken traffic (truncated requests, raw garbage) for the fault
//! harness.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header value for `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy; test assertions only).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// First wait of the retry ladder in [`TestClient::post_json_retry`].
const RETRY_BASE: Duration = Duration::from_millis(2);

/// Ceiling on any single retry wait — also clamps an honored
/// `Retry-After`, so a server advising whole seconds cannot stretch a
/// test run into minutes.
const RETRY_CAP: Duration = Duration::from_millis(250);

/// A client pinned to one server address.
#[derive(Debug, Clone, Copy)]
pub struct TestClient {
    addr: SocketAddr,
    timeout: Duration,
}

impl TestClient {
    /// Client for `addr` with a generous default timeout.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            timeout: Duration::from_secs(60),
        }
    }

    /// Same client with a different socket timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok(stream)
    }

    /// Sends one request and reads the full response.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<HttpResponse> {
        let mut stream = self.connect()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        read_response(&mut stream)
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path, b"")
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.request("POST", path, body.as_bytes())
    }

    /// `POST path` with a JSON body, retrying bounded-many times while
    /// the server answers `429` (backpressure) or the connection fails
    /// outright.
    ///
    /// The wait between attempts honors the server's `Retry-After`
    /// header (whole seconds) when one is present, clamped to
    /// [`RETRY_CAP`] so a harness round-trip stays bounded; without the
    /// header it backs off exponentially from [`RETRY_BASE`]. The last
    /// response (or error) is returned as-is once attempts run out, so
    /// callers still observe the `429` they asked the server to emit.
    pub fn post_json_retry(
        &self,
        path: &str,
        body: &str,
        max_attempts: u32,
    ) -> std::io::Result<HttpResponse> {
        let mut backoff = RETRY_BASE;
        let mut last: Option<std::io::Result<HttpResponse>> = None;
        for attempt in 0..max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(RETRY_CAP);
            }
            match self.post_json(path, body) {
                Ok(response) if response.status == 429 => {
                    // A 429 carries advice; prefer it over blind
                    // doubling for the *next* wait.
                    if let Some(secs) = response
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                    {
                        backoff = Duration::from_secs(secs).min(RETRY_CAP);
                    }
                    last = Some(Ok(response));
                }
                Ok(response) => return Ok(response),
                Err(e) => last = Some(Err(e)),
            }
        }
        last.unwrap_or_else(|| {
            Err(std::io::Error::other("post_json_retry: zero attempts"))
        })
    }

    /// Writes raw bytes on a fresh connection and reads whatever comes
    /// back — for protocol-level fault injection (malformed request
    /// lines, bad framing).
    pub fn send_raw(&self, bytes: &[u8]) -> std::io::Result<HttpResponse> {
        let mut stream = self.connect()?;
        stream.write_all(bytes)?;
        stream.flush()?;
        read_response(&mut stream)
    }

    /// Writes `parts` on one connection, pausing `pause` between them,
    /// and reads the full response — a slow peer whose request arrives
    /// in pieces.
    pub fn send_paced(&self, parts: &[&[u8]], pause: Duration) -> std::io::Result<HttpResponse> {
        let mut stream = self.connect()?;
        for (i, part) in parts.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(pause);
            }
            stream.write_all(part)?;
            stream.flush()?;
        }
        read_response(&mut stream)
    }

    /// Writes a request *prefix* and hangs up mid-flight — the
    /// disconnect fault. Returns once the socket is shut down.
    pub fn send_partial_then_drop(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut stream = self.connect()?;
        stream.write_all(bytes)?;
        stream.flush()?;
        stream.shutdown(Shutdown::Both)?;
        Ok(())
    }
}

/// How a [`FaultWorker`] misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The address refuses connections outright (the port was bound
    /// once to reserve it, then released — dials get `ECONNREFUSED`).
    Refuse,
    /// Accepts the connection, then hangs up without reading or
    /// writing a byte.
    AcceptThenDrop,
    /// Answers every request with `429 Too Many Requests`, forever.
    Always429,
    /// Answers `200 OK` with a body that is not valid JSON.
    CorruptJson,
}

/// A deliberately broken `mebl serve` stand-in for coordinator fault
/// tests: never routes anything, only exhibits one failure mode.
///
/// The accept loop is cooperative, not threaded — run [`serve`] on a
/// `mebl_par::run_scoped` role and latch [`stop`] from the driving
/// role when the scenario is over (an idle accept wakes every 2 ms to
/// check the flag, so it notices within milliseconds).
///
/// [`serve`]: FaultWorker::serve
/// [`stop`]: FaultWorker::stop
#[derive(Debug)]
pub struct FaultWorker {
    listener: Option<TcpListener>,
    addr: SocketAddr,
    mode: FaultMode,
    stop: AtomicBool,
}

/// How often an idle [`FaultWorker::serve`] wakes to check its stop flag.
const FAULT_TICK: Duration = Duration::from_millis(2);

impl FaultWorker {
    /// Binds a loopback port exhibiting `mode`.
    pub fn bind(mode: FaultMode) -> std::io::Result<FaultWorker> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let listener = if mode == FaultMode::Refuse {
            None // release the port; dials now fail outright
        } else {
            // A blocking accept that gives up after one tick (Linux
            // `accept(2)` honours SO_RCVTIMEO, set through a `TcpStream`
            // view of the fd). A copy of `mebl_serve::http::bind_ticking`:
            // this crate sits below mebl-serve.
            let socket = TcpStream::from(OwnedFd::from(listener));
            socket.set_read_timeout(Some(FAULT_TICK))?;
            Some(TcpListener::from(OwnedFd::from(socket)))
        };
        Ok(FaultWorker {
            listener,
            addr,
            mode,
            stop: AtomicBool::new(false),
        })
    }

    /// The worker's address (valid even for [`FaultMode::Refuse`],
    /// where nothing listens on it).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks [`FaultWorker::serve`] to return.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Serves connections in this thread until [`FaultWorker::stop`].
    /// Returns immediately for [`FaultMode::Refuse`] (its fault needs
    /// no loop).
    pub fn serve(&self) {
        let Some(listener) = &self.listener else {
            return;
        };
        while !self.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => self.answer(stream),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => std::thread::sleep(FAULT_TICK),
            }
        }
    }

    fn answer(&self, mut stream: TcpStream) {
        // Replaces the accept tick the socket inherited from the listener.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        match self.mode {
            FaultMode::Refuse => {}
            FaultMode::AcceptThenDrop => {
                let _ = stream.shutdown(Shutdown::Both);
            }
            FaultMode::Always429 => {
                drain_request(&mut stream);
                let body = br#"{"error":"backpressure","detail":"always busy"}"#;
                let _ = write_response(&mut stream, 429, "Too Many Requests", body);
                close_after_reply(&mut stream);
            }
            FaultMode::CorruptJson => {
                drain_request(&mut stream);
                let _ = write_response(&mut stream, 200, "OK", b"{\"outcome\": not-json");
                close_after_reply(&mut stream);
            }
        }
    }
}

/// Ends a scripted reply the way `mebl-serve` ends a refusal: a FIN
/// after the response, then a bounded drain. Closing the socket with
/// the request body still unread makes the kernel reset the connection,
/// which can destroy the reply in flight, so the peer would see a
/// transport error instead of the scripted status.
fn close_after_reply(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    // Each read waits at most the read timeout `answer` set; the peer
    // hangs up once it has read the reply.
    let mut sink = [0u8; 4096];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Reads until the request's blank line (or a read error/timeout), so
/// the peer's write completes before the scripted answer goes out.
fn drain_request(stream: &mut TcpStream) {
    let mut seen = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                seen.extend_from_slice(&buf[..n]);
                if seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    return;
                }
            }
        }
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\nretry-after: 1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Reads a full `Connection: close` response from `stream`.
fn read_response(stream: &mut TcpStream) -> std::io::Result<HttpResponse> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw).map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

/// Parses response bytes: status line, headers, body. The body is
/// whatever follows the header block (the server closes the connection
/// after one response, so EOF delimits it).
fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator in response")?;
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| "non-UTF-8 response head".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad status line `{status_line}`"));
    }
    let status: u16 = parts
        .next()
        .unwrap_or_default()
        .parse()
        .map_err(|_| format!("bad status code in `{status_line}`"))?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line `{line}`"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(HttpResponse {
        status,
        headers,
        body: raw[header_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_response() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\nX-Cache: miss\r\n\r\n{\"a\":1}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.header("x-cache"), Some("miss"));
        assert_eq!(r.header("X-CACHE"), Some("miss"));
        assert_eq!(r.body_text(), "{\"a\":1}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 nope\r\n\r\n").is_err());
        assert!(parse_response(b"SMTP/1.1 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn empty_body_allowed() {
        let r = parse_response(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.is_empty());
    }
}
