//! `serve_mix`: the daemon as a CI client uses it — one closed-loop
//! connection that waits for each reply.
//!
//! The server is an in-process `mebl-serve` `Server` on loopback with
//! daemon defaults, the store tier mounted in a fresh directory and a
//! memory cache smaller than the set of repeated requests. The client
//! sends a seeded list of new and repeated `/route` and strict `/audit`
//! requests naming small designs, by benchmark name or as inline
//! circuit text. With one connection and a deterministic program, each
//! request's cache tier (miss, memory hit, disk hit) is fixed by the
//! seed.

use crate::stats::{fnv1a, Metrics, Quality};
use crate::trace::Tracer;
use crate::{scratch_dir, RunOutput, Setups, Workload};
use mebl_control::CancelToken;
use mebl_netlist::{circuit_to_string, mcnc_suite, Circuit, GenerateConfig};
use mebl_route::Router;
use mebl_serve::api::{audit_response_json, route_response_json, JobRequest};
use mebl_serve::json::{parse, Json};
use mebl_serve::{ServeConfig, Server};
use mebl_store::{Store, StoreConfig};
use mebl_testkit::{HttpResponse, Rng, TestClient, Xoshiro256pp};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

// The request mix below is chosen, not measured CI traffic: its shares
// make every cache tier and both endpoints occur hundreds of times a run.

/// Memory cache entries: smaller than the set of repeated requests, so
/// old repeats fall through to the store.
const CACHE_CAPACITY: usize = 8;
/// Design size range, in nets.
const DESIGN_NETS: (usize, usize) = (40, 160);
/// Gaps, in requests, after which a new request repeats: once soon
/// (usually a memory hit), then twice late (usually a disk hit).
const REPEAT_GAPS: [(usize, usize); 3] = [(1, 4), (40, 160), (160, 480)];
/// Design sizes step through this many evenly spaced values.
const SIZE_STEPS: usize = 7;
/// Server set-ups per run (the median is reported), and how long each
/// set-up's /healthz probe gets to connect before the server starts.
const SETUPS: usize = 41;
const PROBE_LEAD: Duration = Duration::from_millis(5);

/// One distinct request.
struct Job {
    path: &'static str,
    body: String,
    inline: bool,
}

impl Job {
    fn endpoint(&self) -> &'static str {
        self.path.trim_start_matches('/')
    }

    /// The exact bytes `TestClient` puts on the wire for this job.
    fn wire_bytes(&self, addr: &str) -> Vec<u8> {
        let mut bytes = format!(
            "POST {} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.path,
            self.body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

/// The `u`-th distinct request: MCNC circuit `u % 9`, size from a fixed
/// ladder, sent inline for odd `u` (so both resolve paths are loaded
/// alike), as a strict audit for `u % 10 < 3`.
/// Only the generator seed is drawn. The 6-layer Faraday designs are
/// left to batch_route: at these sizes most of them leave a net unrouted,
/// and degraded results are never cached, so they would turn most
/// repeats into misses.
fn new_job(rng: &mut Xoshiro256pp, u: usize) -> Job {
    let suite = mcnc_suite();
    let spec = suite[u % suite.len()];
    let step = (u / suite.len()) % SIZE_STEPS;
    let nets = DESIGN_NETS.0 + (DESIGN_NETS.1 - DESIGN_NETS.0) * step / (SIZE_STEPS - 1);
    let seed = rng.next_u64() % 1_000_000;
    let scale = (nets as f64 / spec.nets as f64).min(1.0);
    let inline = u % 2 == 1;
    let audit = u % 10 < 3;
    let mut pairs = if inline {
        let circuit = spec.generate(&GenerateConfig {
            seed,
            net_scale: scale,
            ..GenerateConfig::default()
        });
        vec![("circuit", Json::Str(circuit_to_string(&circuit)))]
    } else {
        vec![
            ("bench", Json::Str(spec.name.to_string())),
            ("seed", Json::Int(seed as i64)),
            ("scale", Json::Float(scale)),
        ]
    };
    if audit {
        pairs.push(("strict", Json::Bool(true)));
    }
    Job {
        path: if audit { "/audit" } else { "/route" },
        body: Json::obj(pairs).encode(),
        inline,
    }
}

/// The request list: indices into the distinct jobs, in send order.
/// Every new request is repeated three times, after gaps drawn from
/// [`REPEAT_GAPS`]: the soon repeat is usually a memory hit, the late
/// ones usually find the entry evicted to the store. A repeat that falls
/// due is sent before the next new request.
fn request_plan(rng: &mut Xoshiro256pp, n_ops: usize) -> (Vec<Job>, Vec<usize>) {
    let mut due: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut jobs = Vec::new();
    let mut plan = Vec::with_capacity(n_ops);
    for i in 0..n_ops {
        if let Some(entry) = due.first_entry().filter(|e| e.key().0 <= i) {
            plan.push(entry.remove());
            continue;
        }
        let u = jobs.len();
        jobs.push(new_job(rng, u));
        plan.push(u);
        for (k, &(lo, hi)) in REPEAT_GAPS.iter().enumerate() {
            due.insert((i + rng.gen_range(lo..=hi), REPEAT_GAPS.len() * u + k), u);
        }
    }
    (jobs, plan)
}

/// What the server answered to one request.
struct Answer {
    status: u16,
    tier: String,
    body: Vec<u8>,
}

impl From<HttpResponse> for Answer {
    fn from(resp: HttpResponse) -> Self {
        Self {
            status: resp.status,
            tier: resp.header("x-cache").unwrap_or("none").to_string(),
            body: resp.body,
        }
    }
}

impl Answer {
    fn fingerprint(&self) -> u64 {
        let mut bytes = format!("{} {} ", self.status, self.tier).into_bytes();
        bytes.extend_from_slice(&self.body);
        fnv1a(&bytes)
    }
}

/// The store record encoding of `mebl-serve`: status (u16 LE) ‖ body.
fn stored(status: u16, body: &[u8]) -> Vec<u8> {
    let mut bytes = status.to_le_bytes().to_vec();
    bytes.extend_from_slice(body);
    bytes
}

/// The fingerprint the daemon tags its store records with.
fn store_fp() -> u64 {
    mebl_store::fnv1a(b"mebl-serve stored-response v1")
}

fn daemon_config(store_dir: &Path) -> ServeConfig {
    ServeConfig {
        cache_capacity: CACHE_CAPACITY,
        store_dir: Some(store_dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    }
}

/// Parses a job body the way the server does.
fn parse_job(body: &[u8]) -> Result<JobRequest, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    parse(text)
        .map_err(|e| e.to_string())
        .and_then(|doc| JobRequest::from_json(&doc))
}

/// Routes `job` in process and encodes the response body the server
/// would send for it: the reference every miss must equal.
fn reference(
    job: &JobRequest,
    endpoint: &str,
    circuit: &Circuit,
    mut time: impl FnMut(&'static str, &mut dyn FnMut()),
) -> Result<Vec<u8>, String> {
    let default_budget = ServeConfig::default().default_budget;
    let router = Router::new(job.router_config(default_budget));
    let name = job.bench.as_deref().unwrap_or("inline");
    let mut outcome = None;
    time("serve.work", &mut || {
        outcome = Some(router.try_route_under(circuit, &CancelToken::armed(None, None)));
    });
    let outcome = outcome
        .expect("timed closure ran")
        .map_err(|e| e.to_string())?;
    let mut audit = None;
    if endpoint == "audit" {
        time("audit.check", &mut || {
            audit = Some(mebl_audit::audit_outcome(
                circuit,
                router.config(),
                &outcome,
            ));
        });
    }
    let mut body = Vec::new();
    time("serve.encode", &mut || {
        let json = match &audit {
            Some(a) => audit_response_json(name, job.mode, &outcome, a, job.strict, false),
            None => route_response_json(name, job.mode, &outcome, false),
        };
        body = json.encode().into_bytes();
    });
    Ok(body)
}

/// Quality columns of a response body's `report`, and whether an audit
/// body is strict-clean.
fn read_body(body: &[u8]) -> Option<(Quality, bool)> {
    let doc = parse(std::str::from_utf8(body).ok()?).ok()?;
    let report = doc.get("report")?;
    let field = |k: &str| report.get(k).and_then(Json::as_u64);
    let q = Quality {
        total_nets: field("total_nets")?,
        routed_nets: field("routed_nets")?,
        via_violations: field("via_violations")?,
        short_polygons: field("short_polygons")?,
        wirelength: field("wirelength")?,
    };
    let audit_clean = match doc.get("errors") {
        None => true,
        Some(errors) => {
            errors.as_u64() == Some(0)
                && doc.get("warnings").and_then(Json::as_u64) == Some(0)
                && doc.get("status").and_then(Json::as_str) != Some("failed")
        }
    };
    Some((q, audit_clean))
}

/// One server life: bind with the store mounted in `store_dir`, serve,
/// wait until /healthz answers, run `then` against the healthy server and
/// shut down. Returns the set-up time (from bind until /healthz answers)
/// and what `then` returned.
///
/// The probe connects before the server starts (the bound listener
/// queues it), so the acceptor finds it on its first poll instead of
/// racing its poll sleep; the untimed lead lets the probe land.
fn serve_once<R>(store_dir: &Path, then: impl FnOnce(&TestClient, &str) -> R) -> (f64, R) {
    let config = daemon_config(store_dir);
    let t0 = Instant::now();
    let server = Server::bind(&config).expect("server binds on loopback");
    let bind_s = t0.elapsed().as_secs_f64();
    let handle = server.handle();
    let client = TestClient::new(server.local_addr());
    let addr = server.local_addr().to_string();
    std::thread::scope(|s| {
        let probe = s.spawn(|| client.get("/healthz"));
        std::thread::sleep(PROBE_LEAD);
        let t1 = Instant::now();
        let runner = s.spawn(|| server.run());
        let mut healthy = probe.join().is_ok_and(|r| r.is_ok_and(|r| r.status == 200));
        while !healthy {
            healthy = client.get("/healthz").is_ok_and(|r| r.status == 200);
        }
        let setup_s = bind_s + t1.elapsed().as_secs_f64();
        let out = then(&client, &addr);
        handle.shutdown();
        runner.join().expect("server thread ran to completion");
        (setup_s, out)
    })
}

fn counter(metrics: &Json, key: &str) -> f64 {
    metrics.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

pub struct Serve;

impl Workload for Serve {
    fn run(&self, seed: u64, n_ops: usize, traced: bool) -> RunOutput {
        let mut rng = Xoshiro256pp::from_seed(seed ^ 0x5e7e_0000);
        let (jobs, plan) = request_plan(&mut rng, n_ops);
        let scratch = scratch_dir(&format!(
            "serve-{}",
            if traced { "traced" } else { "plain" }
        ));
        let replay_store = Store::open_fs(StoreConfig::new(
            scratch.join("replay").to_string_lossy().into_owned(),
        ))
        .expect("replay store opens")
        .0;

        let mut answers: Vec<Result<Answer, String>> = Vec::with_capacity(n_ops);
        let mut op_ms = Vec::with_capacity(n_ops);
        let mut wall_s = 0.0;
        let mut metrics_doc = Json::Null;
        let mut tracer = Tracer::new();
        let mut references: Vec<Option<Result<Vec<u8>, String>>> = vec![None; n_ops];

        // Set-ups: each binds a server of its own on a fresh store
        // directory, and the timed phase runs on one more, whose set-up
        // is not timed. Set-ups due during the timed phase run between
        // requests, while its server is idle.
        let mut setups = Setups::new(n_ops, SETUPS);
        let mut cycles = 0;
        let mut set_up = || {
            cycles += 1;
            serve_once(&scratch.join(format!("store-{cycles}")), |_, _| ()).0
        };
        setups.run_due(0, &mut set_up);
        serve_once(&scratch.join("store"), |client, addr| {
            let wall = Instant::now();
            let mut paused_s = 0.0;
            for (i, &j) in plan.iter().enumerate() {
                let job = &jobs[j];
                let t0 = Instant::now();
                let resp = if traced {
                    tracer.op(i, |_| client.post_json(job.path, &job.body))
                } else {
                    let start_ns = tracer.now_ns();
                    let resp = client.post_json(job.path, &job.body);
                    tracer.record_op(i, start_ns, tracer.now_ns());
                    resp
                };
                op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let answer = resp.map(Answer::from).map_err(|e| e.to_string());
                // Replay the server-side calls on this request's bytes
                // after its reply arrived, in both passes: the miss
                // replay is the in-process reference.
                let r0 = Instant::now();
                let tier = answer.as_ref().map_or("none", |a| a.tier.as_str());
                let parent = tracer.last_op_span().expect("op span");
                references[i] = replay(&mut tracer, parent, job, tier, addr, &replay_store);
                paused_s += r0.elapsed().as_secs_f64();
                answers.push(answer);
                paused_s += setups.run_due(i + 1, &mut set_up);
            }
            wall_s = wall.elapsed().as_secs_f64() - paused_s;
            if let Ok(resp) = client.get("/metrics") {
                metrics_doc = parse(&resp.body_text()).unwrap_or(Json::Null);
            }
        });

        // Checks, outside op latency: a repeat equals its first answer
        // byte for byte, a miss equals the in-process result, and every
        // audit body is strict-clean.
        let mut first: Vec<Option<usize>> = vec![None; jobs.len()];
        let mut quality = Quality::default();
        let mut fingerprints = Vec::with_capacity(n_ops);
        let mut failed = 0u64;
        for (i, (&j, answer)) in plan.iter().zip(&answers).enumerate() {
            let Ok(a) = answer else {
                failed += 1;
                fingerprints.push(0);
                continue;
            };
            fingerprints.push(a.fingerprint());
            let mut ok = a.status == 200;
            match read_body(&a.body) {
                Some((q, audit_clean)) => {
                    quality += q;
                    ok &= audit_clean;
                }
                None => ok = false,
            }
            match first[j] {
                Some(f) => {
                    let prior = answers[f].as_ref().map(|p| &p.body);
                    ok &= prior.is_ok_and(|p| *p == a.body);
                }
                None => first[j] = Some(i),
            }
            if a.tier == "miss" {
                let expected = references[i].take();
                ok &= expected.is_some_and(|e| e.is_ok_and(|e| e == a.body));
            }
            if !ok {
                failed += 1;
            }
        }

        let mut layer = Metrics::default();
        if traced {
            let by_tier = |tier: &str| -> Vec<f64> {
                answers
                    .iter()
                    .zip(&op_ms)
                    .filter(|(a, _)| a.as_ref().is_ok_and(|a| a.tier == tier))
                    .map(|(_, &ms)| ms)
                    .collect()
            };
            layer.put_dist("serve.miss_ms", &by_tier("miss"), "ms");
            layer.put_dist("serve.hit_ms", &by_tier("hit"), "ms");
            layer.put_dist("serve.disk_ms", &by_tier("disk"), "ms");
            let by_name = tracer.self_by_name();
            let dist = |name: &str| by_name.get(name).cloned().unwrap_or_default();
            for (name, span) in [
                ("serve.parse_ms", "serve.parse"),
                ("netlist.parse_ms", "netlist.parse"),
                ("serve.resolve_ms", "serve.resolve"),
                ("serve.key_ms", "serve.key"),
                ("serve.work_ms", "serve.work"),
                ("audit.check_ms", "audit.check"),
                ("serve.encode_ms", "serve.encode"),
                ("store.get_ms", "store.get"),
                ("store.put_ms", "store.put"),
                ("serve.wait_ms", crate::trace::OP),
            ] {
                layer.put_dist(name, &dist(span), "ms");
            }
            let m = &metrics_doc;
            let jobs_seen = counter(m, "route_requests") + counter(m, "audit_requests");
            let store_lookups = counter(m, "store_hits") + counter(m, "store_misses");
            let finished = counter(m, "clean") + counter(m, "degraded");
            layer.put(
                "serve.hit_pct",
                100.0 * counter(m, "cache_hits") / jobs_seen.max(1.0),
                "%",
            );
            layer.put(
                "store.hit_pct",
                100.0 * counter(m, "store_hits") / store_lookups.max(1.0),
                "%",
            );
            layer.put(
                "serve.uncacheable_pct",
                100.0 * counter(m, "degraded") / finished.max(1.0),
                "%",
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);

        RunOutput {
            setup_s: setups.median_s(),
            op_ms,
            wall_s,
            attempted: n_ops as u64,
            failed,
            quality,
            fingerprints,
            layer,
            trace: traced.then_some(tracer),
        }
    }
}

/// Replays one request's server-side calls as children of its op span
/// and returns the in-process reference body for a miss.
fn replay(
    t: &mut Tracer,
    parent: usize,
    job: &Job,
    tier: &str,
    addr: &str,
    store: &Store,
) -> Option<Result<Vec<u8>, String>> {
    let ServeConfig {
        max_body,
        default_budget,
        ..
    } = ServeConfig::default();
    let wire = job.wire_bytes(addr);
    let parsed = t.replay("serve.parse", parent, || {
        let request = mebl_serve::http::read_request(&mut wire.as_slice(), max_body)
            .map_err(|e| e.to_string())?;
        parse_job(&request.body)
    });
    let Ok(request) = parsed else {
        return Some(Err("request does not parse".into()));
    };
    let resolve_span = if job.inline {
        "netlist.parse"
    } else {
        "serve.resolve"
    };
    let Ok((text, circuit)) = t.replay(resolve_span, parent, || request.resolve_circuit()) else {
        return Some(Err("circuit does not resolve".into()));
    };
    let key = t.replay("serve.key", parent, || {
        request.cache_key(job.endpoint(), &text, default_budget)
    });
    match tier {
        "disk" => {
            let _ = t.replay("store.get", parent, || store.get(key, store_fp()));
            None
        }
        "miss" => {
            let body = reference(&request, job.endpoint(), &circuit, |name, f| {
                t.replay(name, parent, f);
            });
            if let Ok(body) = &body {
                let _ = t.replay("store.put", parent, || {
                    store.put(key, store_fp(), &stored(200, body))
                });
            }
            Some(body)
        }
        _ => None,
    }
}
