//! The coordinator's own HTTP face (`mebl coord`).
//!
//! A deliberately small server: one sequential accept loop (the real
//! concurrency lives in the panel fan-out across *workers*, driven by
//! `mebl_shard`'s driver inside [`Coordinator::handle_route`]), the same
//! `Connection: close` framing as `mebl serve`, and four endpoints —
//! `POST /route` (proxy or sharded fan-out), `GET /healthz`,
//! `GET /metrics`, `POST /shutdown`.

use crate::dispatch::Coordinator;
use mebl_serve::api::error_json;
use mebl_serve::http::{accept_until, bind_ticking, read_request, Response};
use mebl_serve::json::Json;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often an idle accept loop wakes to check the stop flag. A
/// connection is accepted the moment it arrives.
const ACCEPT_TICK: Duration = Duration::from_millis(5);
/// Request-body ceiling, matching the worker daemon's default.
const MAX_BODY: usize = 8 * 1024 * 1024;
/// Socket read/write bound per connection.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A handle for stopping the server from another thread.
#[derive(Debug, Clone)]
pub struct CoordHandle {
    stop: Arc<AtomicBool>,
}

impl CoordHandle {
    /// Asks the accept loop to exit after the in-flight connection.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// The bound-but-not-yet-serving coordinator server.
pub struct CoordServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    coordinator: Arc<Coordinator>,
    stop: Arc<AtomicBool>,
}

impl CoordServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) in front of `coordinator`.
    pub fn bind(addr: &str, coordinator: Arc<Coordinator>) -> std::io::Result<CoordServer> {
        let listener = bind_ticking(addr, ACCEPT_TICK)?;
        let local_addr = listener.local_addr()?;
        Ok(CoordServer {
            listener,
            local_addr,
            coordinator,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The coordinator behind this server.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }

    /// A stop handle usable from another thread.
    pub fn handle(&self) -> CoordHandle {
        CoordHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Serves until [`CoordHandle::shutdown`] (or `POST /shutdown`).
    pub fn run(&self) {
        accept_until(&self.listener, ACCEPT_TICK, &self.stop, |stream| {
            self.handle_connection(stream);
        });
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        // Replaces the accept tick the socket inherited from the listener.
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let request = {
            let mut reader = BufReader::new(&mut stream);
            read_request(&mut reader, MAX_BODY)
        };
        let response = match request {
            Ok(request) => self.respond(&request.method, &request.path, &request.body),
            Err(e) => Response::json(400, error_json("bad-request", &e.to_string()).encode()),
        };
        let _ = response.write_to(&mut stream);
    }

    fn respond(&self, method: &str, path: &str, body: &[u8]) -> Response {
        match (method, path) {
            ("POST", "/route") => self.coordinator.handle_route(body),
            ("GET", "/healthz") => Response::json(
                200,
                Json::obj(vec![
                    ("status", Json::Str("ok".to_string())),
                    (
                        "workers",
                        Json::Int(self.coordinator.config().workers.len() as i64),
                    ),
                    (
                        "live_workers",
                        Json::Int(self.coordinator.live_workers() as i64),
                    ),
                ])
                .encode(),
            ),
            ("GET", "/metrics") => Response::json(200, self.coordinator.metrics_json().encode()),
            ("POST", "/shutdown") => {
                self.stop.store(true, Ordering::SeqCst);
                Response::json(
                    200,
                    Json::obj(vec![("status", Json::Str("stopping".to_string()))]).encode(),
                )
            }
            (_, "/route" | "/healthz" | "/metrics" | "/shutdown") => Response::json(
                405,
                error_json("method-not-allowed", &format!("{method} {path}")).encode(),
            ),
            _ => Response::json(404, error_json("not-found", path).encode()),
        }
    }
}
