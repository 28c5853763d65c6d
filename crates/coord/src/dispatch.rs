//! Hash dispatch, health probing, and the sharded fan-out itself.
//!
//! The [`Coordinator`] owns a fixed ring of `mebl serve` worker
//! addresses. Panel jobs hash onto the ring with FNV-1a over a stable
//! panel key (circuit cache-key fingerprint + panel name), so the same
//! panel lands on the same worker across coordinator restarts — the
//! property that makes every worker's result cache and the shared
//! `--store` directory effective. A worker that fails a dial or times
//! out is marked dead and the panel re-dispatches to the next live
//! worker on the ring; `429` backpressure retries on the same worker
//! with bounded exponential backoff. Only when every worker is dead
//! *and* a `/healthz` probe sweep revives nobody does a request fail,
//! with the typed [`CoordError::NoWorkers`].

use crate::client::{exchange, WorkerReply};
use mebl_route::{CancelToken, RunBudget};
use mebl_serve::api::{
    circuit_error_response, error_json, route_response_json, JobError, JobRequest,
};
use mebl_serve::cache::fnv1a;
use mebl_serve::http::Response;
use mebl_serve::json::{self, Json};
use mebl_serve::metrics::Counter;
use mebl_shard::{FragmentOutcome, ShardError, ShardOptions};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Ceiling on any single backoff wait.
const BACKOFF_CAP: Duration = Duration::from_millis(250);

/// Configuration for one coordinator.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Worker addresses, in ring order. The ring is fixed for the
    /// coordinator's lifetime; dead workers are skipped, not removed.
    pub workers: Vec<SocketAddr>,
    /// Bound on dialing a worker.
    pub connect_timeout: Duration,
    /// Bound on each read/write once connected.
    pub io_timeout: Duration,
    /// How many times a `429` (backpressure) retries on the *same*
    /// worker before the panel moves along the ring.
    pub retry_429: u32,
    /// First wait of the backoff ladder (doubles, capped).
    pub backoff: Duration,
    /// Default budget for requests that set no bound of their own. Its
    /// wall-clock component also bounds the whole dispatch of one
    /// request, so a sick fleet produces a typed error, never a hang.
    pub budget: RunBudget,
}

impl Default for CoordConfig {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(60),
            retry_429: 6,
            backoff: Duration::from_millis(5),
            budget: RunBudget::default(),
        }
    }
}

/// Typed failures of coordinator dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// The sharded pre-flight refused the request before any panel was
    /// dispatched; it answers exactly as a worker would.
    Preflight(ShardError),
    /// Every worker is dead and a probe sweep revived none.
    NoWorkers,
    /// The request's budget ran out mid-dispatch.
    BudgetExhausted,
    /// A worker answered, but not with anything usable (unexpected
    /// status, corrupt JSON, unparseable outcome).
    BadResponse {
        /// The worker that misbehaved.
        worker: SocketAddr,
        /// What was wrong with its answer.
        detail: String,
    },
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Preflight(e) => write!(f, "{e}"),
            CoordError::NoWorkers => f.write_str("no live workers remain"),
            CoordError::BudgetExhausted => f.write_str("dispatch budget exhausted"),
            CoordError::BadResponse { worker, detail } => {
                write!(f, "bad response from worker {worker}: {detail}")
            }
        }
    }
}

impl std::error::Error for CoordError {}

impl From<ShardError> for CoordError {
    fn from(e: ShardError) -> Self {
        CoordError::Preflight(e)
    }
}

/// Counters the coordinator's `/metrics` endpoint serializes.
#[derive(Debug, Default)]
pub struct CoordMetrics {
    /// Requests that reached dispatch (proxied + sharded).
    pub requests: Counter,
    /// Unsharded `/route` bodies forwarded verbatim to one worker.
    pub proxied: Counter,
    /// Sharded `/route` jobs fanned out as panel fragments.
    pub sharded_routes: Counter,
    /// Individual fragment requests sent to workers.
    pub fragment_requests: Counter,
    /// `429` backoff retries on the same worker.
    pub retries: Counter,
    /// Panels that moved to a different worker than their hash home.
    pub redispatches: Counter,
    /// Workers marked dead after a failed dial or I/O error.
    pub dead_marked: Counter,
    /// Workers revived by a `/healthz` probe sweep.
    pub revived: Counter,
    /// Requests that failed with [`CoordError::NoWorkers`].
    pub no_workers: Counter,
    /// Requests that failed with [`CoordError::BadResponse`].
    pub bad_responses: Counter,
    /// Requests that failed with [`CoordError::BudgetExhausted`].
    pub budget_exhausted: Counter,
}

/// A fixed-ring worker coordinator. Shared-state is all atomic, so one
/// coordinator can fan panels out across worker threads ([`Pool`]).
#[derive(Debug)]
pub struct Coordinator {
    config: CoordConfig,
    alive: Vec<AtomicBool>,
    metrics: CoordMetrics,
}

impl Coordinator {
    /// Builds a coordinator over `config.workers` (all presumed live
    /// until proven otherwise).
    pub fn new(config: CoordConfig) -> Self {
        let alive = config.workers.iter().map(|_| AtomicBool::new(true)).collect();
        Self {
            config,
            alive,
            metrics: CoordMetrics::default(),
        }
    }

    /// The configuration this coordinator runs with.
    pub fn config(&self) -> &CoordConfig {
        &self.config
    }

    /// The dispatch counters.
    pub fn metrics(&self) -> &CoordMetrics {
        &self.metrics
    }

    /// Number of workers currently believed live.
    pub fn live_workers(&self) -> usize {
        self.alive.iter().filter(|a| a.load(Ordering::SeqCst)).count()
    }

    /// Probes every worker's `/healthz` and updates liveness both ways:
    /// a dead-marked worker that answers 200 revives, a live-marked one
    /// that fails the probe is marked dead. Returns the live count.
    pub fn probe(&self) -> usize {
        for (i, addr) in self.config.workers.iter().enumerate() {
            let ok = matches!(
                exchange(
                    *addr,
                    self.config.connect_timeout,
                    self.config.io_timeout,
                    "GET",
                    "/healthz",
                    b"",
                ),
                Ok(reply) if reply.status == 200
            );
            let was = self.alive[i].swap(ok, Ordering::SeqCst);
            if ok && !was {
                self.metrics.revived.inc();
            }
            if !ok && was {
                self.metrics.dead_marked.inc();
            }
        }
        self.live_workers()
    }

    /// Dispatches one request to the ring: FNV-1a of `key` picks the
    /// home worker, dial/IO failures mark the worker dead and rotate to
    /// the next live one, `429` retries in place with backoff. After a
    /// full dead rotation, one probe sweep runs and the rotation
    /// repeats; only then does [`CoordError::NoWorkers`] surface.
    /// `deadline` bounds the whole affair. Returns the replying
    /// worker's address alongside its reply.
    pub fn dispatch(
        &self,
        key: &str,
        method: &str,
        path: &str,
        body: &[u8],
        deadline: &CancelToken,
    ) -> Result<(SocketAddr, WorkerReply), CoordError> {
        let n = self.config.workers.len();
        if n == 0 {
            self.metrics.no_workers.inc();
            return Err(CoordError::NoWorkers);
        }
        let home = (fnv1a(key.bytes()) % n as u64) as usize;
        for pass in 0..2u8 {
            for off in 0..n {
                let w = (home + off) % n;
                if !self.alive[w].load(Ordering::SeqCst) {
                    continue;
                }
                let addr = self.config.workers[w];
                let mut wait = self.config.backoff;
                for _attempt in 0..=self.config.retry_429 {
                    if deadline.is_cancelled_now() {
                        self.metrics.budget_exhausted.inc();
                        return Err(CoordError::BudgetExhausted);
                    }
                    match exchange(
                        addr,
                        self.config.connect_timeout,
                        self.config.io_timeout,
                        method,
                        path,
                        body,
                    ) {
                        Ok(reply) if reply.status == 429 => {
                            self.metrics.retries.inc();
                            std::thread::sleep(wait.min(BACKOFF_CAP));
                            wait = (wait * 2).min(BACKOFF_CAP);
                        }
                        Ok(reply) => {
                            if off > 0 || pass > 0 {
                                self.metrics.redispatches.inc();
                            }
                            return Ok((addr, reply));
                        }
                        Err(_) => {
                            // Dead until a probe says otherwise.
                            if self.alive[w].swap(false, Ordering::SeqCst) {
                                self.metrics.dead_marked.inc();
                            }
                            break;
                        }
                    }
                }
                // 429-forever also falls through here: the worker stays
                // alive (it *is* answering) but this request moves on.
            }
            if pass == 0 && self.probe() == 0 {
                break;
            }
        }
        self.metrics.no_workers.inc();
        Err(CoordError::NoWorkers)
    }

    /// Handles one `POST /route` body: sharded requests fan out as
    /// panel fragments and merge locally, everything else proxies
    /// verbatim to one worker (whose typed status/body pass through).
    pub fn handle_route(&self, body: &[u8]) -> Response {
        self.metrics.requests.inc();
        let job = match std::str::from_utf8(body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(|text| json::parse(text).map_err(|e| e.to_string()))
            .and_then(|doc| JobRequest::from_json(&doc))
        {
            Ok(job) => job,
            Err(detail) => {
                return Response::json(400, error_json("bad-request", &detail).encode());
            }
        };
        if let Some(opts) = job.shard_options(self.config.budget) {
            self.metrics.sharded_routes.inc();
            self.route_sharded(&job, opts)
        } else {
            self.metrics.proxied.inc();
            let deadline = dispatch_deadline(&job.budget(self.config.budget));
            // Hash the raw body so identical requests keep hitting the
            // same worker's cache tier.
            let key = String::from_utf8_lossy(body).into_owned();
            match self.dispatch(&key, "POST", "/route", body, &deadline) {
                Ok((_, reply)) => Response::json(reply.status, reply.body),
                Err(e) => self.error_response(e),
            }
        }
    }

    /// The sharded fan-out: `mebl_shard`'s driver with each panel routed
    /// on a hashed worker via `POST /route/outcome`. Everything else —
    /// circuit resolution, pre-flight, merge, error mapping — is a
    /// worker's own, so the body, success or typed error, is
    /// byte-identical to one worker's in-process sharded `/route`.
    fn route_sharded(&self, job: &JobRequest, opts: ShardOptions) -> Response {
        // The placement fingerprint is this request's canonical cache
        // key — circuit source plus every result-affecting field — so it
        // is stable across coordinator restarts and derived exactly as a
        // worker derives its own keys.
        let resolved = job.circuit_source().and_then(|source| {
            let fingerprint = job.cache_key("route", &source, self.config.budget);
            Ok((fingerprint, job.build_circuit()?))
        });
        let (fingerprint, circuit) = match resolved {
            Ok(resolved) => resolved,
            Err(e) => return circuit_error_response(e),
        };
        // The ring is the fan-out: one panel in flight per worker.
        let opts = ShardOptions {
            shards: self.config.workers.len().max(1),
            ..opts
        };
        let deadline = dispatch_deadline(&opts.budget);
        let run = mebl_shard::route_sharded_with(&circuit, &opts, |panel| {
            self.metrics.fragment_requests.inc();
            let body = fragment_request(job, panel).encode();
            let key = format!("{fingerprint:016x}/{}", panel.key);
            let (addr, reply) =
                self.dispatch(&key, "POST", "/route/outcome", body.as_bytes(), &deadline)?;
            parse_fragment(&reply, addr)
        });
        match run {
            Ok(run) => {
                let body = route_response_json(job.circuit_name(), job.mode, &run.outcome, false);
                Response::json(200, body.encode())
            }
            Err(e) => self.error_response(e),
        }
    }

    /// Maps a typed dispatch failure onto a wire response. A refused
    /// pre-flight answers through the workers' own mapping.
    fn error_response(&self, e: CoordError) -> Response {
        match e {
            CoordError::Preflight(e) => JobError::from(e).response(),
            CoordError::NoWorkers => {
                Response::json(503, error_json("no-workers", &e.to_string()).encode())
            }
            CoordError::BudgetExhausted => {
                Response::json(504, error_json("budget-exhausted", &e.to_string()).encode())
            }
            CoordError::BadResponse { .. } => {
                self.metrics.bad_responses.inc();
                Response::json(502, error_json("bad-worker-response", &e.to_string()).encode())
            }
        }
    }

    /// The coordinator's `/metrics` body: dispatch counters plus the
    /// ring gauges.
    pub fn metrics_json(&self) -> Json {
        let m = &self.metrics;
        Json::obj(vec![
            ("workers", Json::Int(self.config.workers.len() as i64)),
            ("live_workers", Json::Int(self.live_workers() as i64)),
            ("requests", Json::Int(m.requests.get() as i64)),
            ("proxied", Json::Int(m.proxied.get() as i64)),
            ("sharded_routes", Json::Int(m.sharded_routes.get() as i64)),
            (
                "fragment_requests",
                Json::Int(m.fragment_requests.get() as i64),
            ),
            ("retries", Json::Int(m.retries.get() as i64)),
            ("redispatches", Json::Int(m.redispatches.get() as i64)),
            ("dead_marked", Json::Int(m.dead_marked.get() as i64)),
            ("revived", Json::Int(m.revived.get() as i64)),
            ("no_workers", Json::Int(m.no_workers.get() as i64)),
            ("bad_responses", Json::Int(m.bad_responses.get() as i64)),
            (
                "budget_exhausted",
                Json::Int(m.budget_exhausted.get() as i64),
            ),
        ])
    }
}

/// Arms a cancel token carrying only the wall-clock component of
/// `budget` — expansion caps are per-fragment and belong to workers.
fn dispatch_deadline(budget: &RunBudget) -> CancelToken {
    RunBudget {
        time: budget.time,
        max_expansions: None,
    }
    .arm()
}

/// Builds the fragment request one panel routes under: the panel's
/// circuit inline, the original mode, the panel's period (which
/// `RouterConfig::preset` couples into the worker's stitch geometry
/// *and* global tile size, as it does for `mebl_shard::fragment_config`
/// in-process), and the original request's explicit budget fields.
fn fragment_request(job: &JobRequest, panel: &mebl_shard::PanelJob) -> Json {
    let mut pairs = vec![
        (
            "circuit",
            Json::Str(mebl_netlist::circuit_to_string(&panel.circuit)),
        ),
        ("mode", Json::Str(job.mode.name().to_string())),
        ("period", Json::Int(i64::from(panel.period))),
    ];
    if let Some(ms) = job.budget_ms {
        pairs.push(("budget_ms", Json::Int(ms as i64)));
    }
    if let Some(cap) = job.max_expansions {
        pairs.push(("max_expansions", Json::Int(cap as i64)));
    }
    Json::obj(pairs)
}

/// Decodes one `POST /route/outcome` reply into a panel fragment.
fn parse_fragment(reply: &WorkerReply, worker: SocketAddr) -> Result<FragmentOutcome, CoordError> {
    let bad = |detail: String| CoordError::BadResponse { worker, detail };
    if reply.status != 200 {
        let body = String::from_utf8_lossy(&reply.body);
        return Err(bad(format!(
            "fragment status {}: {}",
            reply.status,
            body.chars().take(200).collect::<String>()
        )));
    }
    let text = std::str::from_utf8(&reply.body)
        .map_err(|_| bad("fragment body is not UTF-8".to_string()))?;
    let doc = json::parse(text).map_err(|e| bad(format!("fragment body: {e}")))?;
    let outcome_text = doc
        .get("outcome")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("fragment body lacks an `outcome` string".to_string()))?;
    let saved = mebl_delta::outcome_from_str(outcome_text)
        .map_err(|e| bad(format!("fragment outcome: {e}")))?;
    Ok(FragmentOutcome::from_outcome(&saved.outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_is_typed_no_workers() {
        let coord = Coordinator::new(CoordConfig::default());
        let deadline = dispatch_deadline(&RunBudget::default());
        assert_eq!(
            coord.dispatch("k", "POST", "/route", b"{}", &deadline),
            Err(CoordError::NoWorkers)
        );
        assert_eq!(coord.metrics().no_workers.get(), 1);
    }

    #[test]
    fn fnv_is_the_published_function() {
        // Known-answer: FNV-1a("a") from the reference tables.
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
