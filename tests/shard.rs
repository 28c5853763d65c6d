//! Differential and distributed harness for sharded panel routing.
//!
//! Two contracts, the second mirroring `tests/serve.rs`:
//!
//! * **Shard-count invariance** — the panel decomposition is a pure
//!   function of `(circuit, stitch config)`, so the merged outcome must
//!   be bit-identical at every shard count, and every merged outcome
//!   must pass the independent audit with `--strict` semantics.
//! * **Coordinator transparency** — a sharded `/route` answered by the
//!   multi-process coordinator (panels fanned out to `mebl serve`
//!   workers over the wire) must be byte-identical to the same request
//!   answered by one worker in-process. Dead, refusing, hanging-up,
//!   backpressuring and corrupt workers must produce clean re-dispatch
//!   or a typed error — bounded, never a hang, never wrong bytes.

use mebl_audit::audit_outcome;
use mebl_coord::{CoordConfig, Coordinator, CoordServer};
use mebl_netlist::{BenchmarkSpec, Circuit, GenerateConfig};
use mebl_par::run_scoped;
use mebl_route::{RouterConfig, RoutingOutcome, RunBudget, Stopwatch};
use mebl_serve::json::{self, Json};
use mebl_serve::{ServeConfig, Server, ServerHandle};
use mebl_shard::{route_sharded, ShardError, ShardOptions};
use mebl_testkit::{FaultMode, FaultWorker, TestClient};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The fan-out widths every differential test sweeps.
const SHARDS: [usize; 3] = [1, 2, 4];

/// S5378 scaled to roughly 60 nets: small enough to keep debug CI
/// affordable.
const SMALL_SCALE: f64 = 0.035;

fn scaled(spec: &BenchmarkSpec, seed: u64, target_nets: usize) -> Circuit {
    let net_scale = (target_nets as f64 / spec.nets as f64).min(1.0);
    spec.generate(&GenerateConfig {
        seed,
        net_scale,
        ..GenerateConfig::default()
    })
}

fn small(name: &str, seed: u64) -> Circuit {
    scaled(
        &BenchmarkSpec::by_name(name).expect("known benchmark"),
        seed,
        60,
    )
}

/// FNV-1a over a byte stream, for cross-shard-count fingerprints.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of everything a merged run produces that must not depend
/// on the shard count — the same fields the thread-count harness pins.
fn fingerprint(outcome: &RoutingOutcome) -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        outcome.global.routes,
        outcome.tracks.segments,
        outcome.detailed.geometry,
        outcome.detailed.routed,
        outcome.degradations,
    );
    fnv1a(text.bytes())
}

/// Differential sweep over the whole benchmark suite: fingerprints at
/// 2 and 4 shards must equal the 1-shard run, and every merged outcome
/// must pass the strict audit (zero errors *and* zero warnings) and
/// report the run's wall time.
#[test]
fn full_suite_is_shard_count_invariant() {
    for spec in mebl_netlist::full_suite() {
        let circuit = scaled(&spec, 2013, 40);
        let config = RouterConfig::stitch_aware();
        let mut reference: Option<u64> = None;
        for &shards in &SHARDS {
            let run = route_sharded(&circuit, &ShardOptions::new(shards))
                .unwrap_or_else(|e| panic!("{}: shards={shards}: {e}", spec.name));
            assert!(run.jobs >= 1, "{}", spec.name);
            assert!(
                !run.outcome.report.elapsed.is_zero(),
                "{}: zero elapsed time at {shards} shards",
                spec.name
            );

            let audit = audit_outcome(&circuit, &config, &run.outcome);
            assert_eq!(
                audit.error_count(),
                0,
                "{}: audit errors at {shards} shards: {:#?}",
                spec.name,
                audit.findings
            );
            assert_eq!(
                audit.warning_count(),
                0,
                "{}: strict audit failed at {shards} shards: {:#?}",
                spec.name,
                audit.findings
            );

            let measured = fingerprint(&run.outcome);
            match reference {
                None => reference = Some(measured),
                Some(expected) => assert_eq!(
                    measured, expected,
                    "{}: fingerprint diverged at {shards} shards",
                    spec.name
                ),
            }
        }
    }
}

/// Degenerate options fail typed, before any panel routes.
#[test]
fn degenerate_shard_options_are_typed() {
    let circuit = small("S5378", 7);
    assert!(matches!(
        route_sharded(&circuit, &ShardOptions::new(0)),
        Err(ShardError::InvalidConfig(_))
    ));
    let mut opts = ShardOptions::new(2);
    opts.period = Some(1);
    assert!(matches!(
        route_sharded(&circuit, &opts),
        Err(ShardError::InvalidConfig(_))
    ));
    let mut starved = ShardOptions::new(2);
    starved.budget = RunBudget::with_time(Duration::ZERO);
    assert!(matches!(
        route_sharded(&circuit, &starved),
        Err(ShardError::BudgetExhausted)
    ));
}

/// Handles the test body drives: the coordinator's client, one client
/// per real worker, and the shared dispatch state for metrics probing.
struct Cluster<'a> {
    coord: &'a TestClient,
    workers: &'a [TestClient],
    coordinator: &'a Arc<Coordinator>,
    handles: &'a [ServerHandle],
}

/// Spins up `real` in-process `mebl-serve` workers plus one fault
/// worker per mode, wires a coordinator over the ring (faults first,
/// then the real workers), runs `f` against the cluster, and drains
/// everything even when `f` panics.
fn with_cluster<F>(real: usize, faults: &[FaultMode], tweak: fn(&mut CoordConfig), f: F)
where
    F: FnOnce(Cluster<'_>) + Send,
{
    let servers: Vec<Server> = (0..real)
        .map(|_| Server::bind(&ServeConfig::default()).expect("bind worker"))
        .collect();
    let fault_workers: Vec<FaultWorker> = faults
        .iter()
        .map(|&mode| FaultWorker::bind(mode).expect("bind fault worker"))
        .collect();

    let mut config = CoordConfig {
        workers: fault_workers
            .iter()
            .map(FaultWorker::addr)
            .chain(servers.iter().map(Server::local_addr))
            .collect(),
        ..CoordConfig::default()
    };
    tweak(&mut config);
    let coordinator = Arc::new(Coordinator::new(config));
    let coord_server =
        CoordServer::bind("127.0.0.1:0", Arc::clone(&coordinator)).expect("bind coordinator");

    let coord_client =
        TestClient::new(coord_server.local_addr()).with_timeout(Duration::from_secs(120));
    let worker_clients: Vec<TestClient> = servers
        .iter()
        .map(|s| TestClient::new(s.local_addr()).with_timeout(Duration::from_secs(120)))
        .collect();
    let handles: Vec<ServerHandle> = servers.iter().map(Server::handle).collect();
    let coord_handle = coord_server.handle();

    let body = Mutex::new(Some(f));
    let roles = real + faults.len() + 2;
    run_scoped(roles, |role| {
        if role < real {
            servers[role].run();
        } else if role < real + faults.len() {
            fault_workers[role - real].serve();
        } else if role == real + faults.len() {
            coord_server.run();
        } else {
            struct Drain<'a> {
                handles: &'a [ServerHandle],
                faults: &'a [FaultWorker],
                coord: &'a mebl_coord::CoordHandle,
            }
            impl Drop for Drain<'_> {
                fn drop(&mut self) {
                    for h in self.handles {
                        h.shutdown();
                    }
                    for w in self.faults {
                        w.stop();
                    }
                    self.coord.shutdown();
                }
            }
            let _drain = Drain {
                handles: &handles,
                faults: &fault_workers,
                coord: &coord_handle,
            };
            let f = body.lock().expect("body lock").take().expect("runs once");
            f(Cluster {
                coord: &coord_client,
                workers: &worker_clients,
                coordinator: &coordinator,
                handles: &handles,
            });
        }
    });
}

fn sharded_payload(seed: u64, shards: usize) -> String {
    format!(
        "{{\"bench\":\"S5378\",\"seed\":{seed},\"scale\":{SMALL_SCALE},\"shards\":{shards}}}"
    )
}

/// The coordinator is wire-transparent: a sharded `/route` assembled
/// from worker-routed fragments is byte-identical to the same request
/// answered by a single worker in-process, at every shard count; an
/// unsharded `/route` proxies verbatim. The `/metrics` schema the CI
/// smoke driver scrapes is pinned here.
#[test]
fn coordinator_matches_a_single_worker_byte_for_byte() {
    with_cluster(2, &[], |_| {}, |cluster| {
        for &shards in &SHARDS {
            let payload = sharded_payload(11, shards);
            let direct = cluster.workers[0]
                .post_json("/route", &payload)
                .expect("worker route");
            assert_eq!(direct.status, 200, "{}", direct.body_text());
            let via_coord = cluster.coord.post_json("/route", &payload).expect("coord route");
            assert_eq!(via_coord.status, 200, "{}", via_coord.body_text());
            assert_eq!(
                via_coord.body_text(),
                direct.body_text(),
                "coordinator bytes diverged at shards={shards}"
            );
        }

        // Unsharded requests proxy verbatim: same status, same bytes.
        let plain = format!("{{\"bench\":\"S5378\",\"seed\":11,\"scale\":{SMALL_SCALE}}}");
        let direct = cluster.workers[0].post_json("/route", &plain).expect("worker");
        let proxied = cluster.coord.post_json("/route", &plain).expect("proxy");
        assert_eq!(proxied.status, 200);
        assert_eq!(proxied.body_text(), direct.body_text());
        // Typed worker errors pass through untouched too.
        let garbage = cluster.coord.post_json("/route", "{\"bench\":\"NOPE\"}").expect("422");
        assert_eq!(garbage.status, 400, "{}", garbage.body_text());

        let health = cluster.coord.get("/healthz").expect("healthz");
        assert_eq!(health.status, 200);
        assert!(health.body_text().contains("\"live_workers\":2"), "{}", health.body_text());

        // Pin the coordinator /metrics schema: exact key set, in order.
        let metrics = cluster.coord.get("/metrics").expect("metrics");
        let doc = json::parse(&metrics.body_text()).expect("metrics JSON");
        let Json::Obj(pairs) = &doc else { panic!("metrics is not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "workers",
                "live_workers",
                "requests",
                "proxied",
                "sharded_routes",
                "fragment_requests",
                "retries",
                "redispatches",
                "dead_marked",
                "revived",
                "no_workers",
                "bad_responses",
                "budget_exhausted",
            ]
        );
        // 3 sharded + 2 proxied (the plain route and the typed-error
        // passthrough, which proxies because it sets no `shards`).
        let counter = |name: &str| doc.get(name).and_then(Json::as_u64).expect("counter");
        assert_eq!(counter("requests"), SHARDS.len() as u64 + 2);
        assert_eq!(counter("sharded_routes"), SHARDS.len() as u64);
        assert_eq!(counter("proxied"), 2);
        assert!(counter("fragment_requests") > 0);
        assert_eq!(counter("no_workers"), 0);

        // The worker-side counters the coordinator drives.
        let wm = cluster.workers[0].get("/metrics").expect("worker metrics");
        let wdoc = json::parse(&wm.body_text()).expect("worker metrics JSON");
        assert!(wdoc.get("outcome_requests").and_then(Json::as_u64).expect("key") > 0);
        assert!(wdoc.get("sharded_jobs").and_then(Json::as_u64).expect("key") > 0);
    });
}

/// A sharded request that fails the pre-flight gets the same status and
/// body through the coordinator as from a worker: a budget spent on
/// arrival (504) and an inline circuit whose net has both pins on one
/// cell (422). The coordinator runs the worker's driver and error
/// mapping, not a copy of them.
#[test]
fn coordinator_preflight_errors_match_a_worker() {
    let dead_budget = format!(
        "{{\"bench\":\"S5378\",\"seed\":11,\"scale\":{SMALL_SCALE},\"shards\":2,\"budget_ms\":0}}"
    );
    let coincident =
        "{\"circuit\":\"circuit dot 0 0 39 19 3\\nnet a 5,5,0 5,5,0\\n\",\"shards\":2}".to_string();
    with_cluster(1, &[], |_| {}, |cluster| {
        for (payload, status) in [(&dead_budget, 504), (&coincident, 422)] {
            let direct = cluster.workers[0].post_json("/route", payload).expect("worker route");
            assert_eq!(direct.status, status, "{}", direct.body_text());
            let via_coord = cluster.coord.post_json("/route", payload).expect("coord route");
            assert_eq!(via_coord.status, direct.status, "{}", via_coord.body_text());
            assert_eq!(via_coord.body_text(), direct.body_text(), "payload {payload}");
        }
    });
}

/// Killing a worker mid-session must not change a single output byte:
/// the coordinator marks it dead and re-dispatches its panels to the
/// surviving worker.
#[test]
fn killed_worker_redispatches_with_identical_bytes() {
    fn fast_failover(config: &mut CoordConfig) {
        // A drained worker's listener stays bound (backlogged connects
        // hang instead of refusing), so keep the I/O bound tight.
        config.connect_timeout = Duration::from_secs(1);
        config.io_timeout = Duration::from_secs(5);
    }
    with_cluster(2, &[], fast_failover, |cluster| {
        let payload = sharded_payload(23, 4);
        let reference = cluster.workers[1]
            .post_json("/route", &payload)
            .expect("reference route");
        assert_eq!(reference.status, 200, "{}", reference.body_text());

        let healthy = cluster.coord.post_json("/route", &payload).expect("healthy route");
        assert_eq!(healthy.status, 200, "{}", healthy.body_text());
        assert_eq!(healthy.body_text(), reference.body_text());

        // Kill worker 0 and let a probe sweep observe the corpse.
        cluster.handles[0].shutdown();
        assert_eq!(cluster.coordinator.probe(), 1, "one worker must survive");
        assert!(cluster.coordinator.metrics().dead_marked.get() >= 1);

        // A fresh sharded request (different seed, so nothing is cached)
        // completes entirely on the survivor, bytes unchanged.
        let fresh = sharded_payload(29, 4);
        let expect = cluster.workers[1].post_json("/route", &fresh).expect("survivor");
        assert_eq!(expect.status, 200, "{}", expect.body_text());
        let rerouted = cluster.coord.post_json("/route", &fresh).expect("redispatch");
        assert_eq!(rerouted.status, 200, "{}", rerouted.body_text());
        assert_eq!(rerouted.body_text(), expect.body_text());
    });
}

/// Refusing, hanging-up and backpressuring ring members are survived by
/// re-dispatch: with one real worker at the end of the ring, every
/// sharded request still completes with the same bytes the real worker
/// produces alone.
#[test]
fn fault_battery_redispatches_to_the_live_worker() {
    fn impatient(config: &mut CoordConfig) {
        config.retry_429 = 2;
        config.backoff = Duration::from_millis(1);
        config.budget = RunBudget::with_time(Duration::from_secs(60));
    }
    with_cluster(
        1,
        &[FaultMode::Refuse, FaultMode::AcceptThenDrop, FaultMode::Always429],
        impatient,
        |cluster| {
            let payload = sharded_payload(31, 2);
            let reference = cluster.workers[0]
                .post_json("/route", &payload)
                .expect("reference");
            assert_eq!(reference.status, 200, "{}", reference.body_text());
            let routed = cluster.coord.post_json("/route", &payload).expect("routed");
            assert_eq!(routed.status, 200, "{}", routed.body_text());
            assert_eq!(routed.body_text(), reference.body_text());
            let m = cluster.coordinator.metrics();
            assert!(m.redispatches.get() >= 1, "panels must have moved off fault homes");
        },
    );
}

/// A worker that answers 200 with garbage is a typed `502
/// bad-worker-response` — corrupt fragments are never merged.
#[test]
fn corrupt_fragments_are_a_typed_502() {
    fn bounded(config: &mut CoordConfig) {
        config.budget = RunBudget::with_time(Duration::from_secs(60));
    }
    with_cluster(0, &[FaultMode::CorruptJson], bounded, |cluster| {
        let r = cluster.coord.post_json("/route", &sharded_payload(37, 2)).expect("502");
        assert_eq!(r.status, 502, "{}", r.body_text());
        assert!(r.body_text().contains("bad-worker-response"), "{}", r.body_text());
        assert!(cluster.coordinator.metrics().bad_responses.get() >= 1);
    });
}

/// A ring with no usable worker — refusing, hanging up, or 429-ing
/// forever — fails fast with a typed `503 no-workers`, bounded by the
/// retry ladder and the probe sweep. Never a hang.
#[test]
fn hostile_ring_is_a_typed_503() {
    fn impatient(config: &mut CoordConfig) {
        config.retry_429 = 2;
        config.backoff = Duration::from_millis(1);
        config.budget = RunBudget::with_time(Duration::from_secs(60));
    }
    let rings: [&[FaultMode]; 2] = [
        &[FaultMode::Refuse, FaultMode::AcceptThenDrop],
        &[FaultMode::Always429],
    ];
    for ring in rings {
        with_cluster(0, ring, impatient, |cluster| {
            for payload in [
                sharded_payload(41, 2),
                format!("{{\"bench\":\"S5378\",\"seed\":41,\"scale\":{SMALL_SCALE}}}"),
            ] {
                let r = cluster.coord.post_json("/route", &payload).expect("503");
                assert_eq!(r.status, 503, "{}", r.body_text());
                assert!(r.body_text().contains("no-workers"), "{}", r.body_text());
            }
            assert_eq!(cluster.coordinator.live_workers(), 0);
        });
    }
}

/// The coordinator and the fault worker block in `accept`, waking once
/// per tick to check their stop flags. On a kernel whose `accept`
/// ignored the listener's receive timeout this test would hang instead
/// of passing.
#[test]
fn idle_coordinator_and_fault_worker_stop_within_a_tick() {
    let coordinator = Arc::new(Coordinator::new(CoordConfig::default()));
    let coord_server = CoordServer::bind("127.0.0.1:0", coordinator).expect("bind coordinator");
    let worker = FaultWorker::bind(FaultMode::Always429).expect("bind fault worker");
    let coord = coord_server.handle();
    let since_stop: Mutex<Option<Stopwatch>> = Mutex::new(None);
    run_scoped(3, |role| match role {
        0 => coord_server.run(),
        1 => worker.serve(),
        _ => {
            std::thread::sleep(Duration::from_millis(50));
            *since_stop.lock().expect("stopwatch") = Some(Stopwatch::start());
            coord.shutdown();
            worker.stop();
        }
    });
    let elapsed = since_stop
        .into_inner()
        .expect("stopwatch")
        .expect("stop was called")
        .elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "idle accept loops took {elapsed:?} to stop"
    );
}

/// Accepted sockets inherit the listener's tick as their read timeout;
/// the coordinator must replace it, or a request whose head arrives in
/// pieces reads as garbage.
#[test]
fn coordinator_reads_a_request_arriving_after_a_pause() {
    with_cluster(
        0,
        &[],
        |_| {},
        |cluster| {
            let r = cluster
                .coord
                .send_paced(
                    &[b"GET /healthz HTTP/1.1\r\n", b"connection: close\r\n\r\n"],
                    Duration::from_millis(50),
                )
                .expect("paced request answered");
            assert_eq!(r.status, 200, "{}", r.body_text());
        },
    );
}
