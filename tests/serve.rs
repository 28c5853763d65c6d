//! Loopback integration harness for the `mebl-serve` daemon.
//!
//! Everything here runs against a real server bound to an ephemeral
//! loopback port and the `mebl_testkit::TestClient`, never raw sockets
//! (the `no-raw-net` lint enforces that split). The contracts under
//! test:
//!
//! * every response is **typed** — hostile payloads from the fault
//!   battery, protocol garbage and mid-flight disconnects produce 4xx
//!   bodies or clean disconnect accounting, never a 500 or a hung
//!   worker;
//! * a cache hit is **bit-identical** to the cold run, and the server's
//!   worker count does not leak into a response body;
//! * a full queue answers `429` instead of queueing unboundedly, and a
//!   drain interrupts in-flight jobs without dropping any accepted
//!   connection on the floor;
//! * every reproducible result is cached — degraded ones too, when no
//!   wall-clock budget could have cut them short — and requests whose
//!   bodies differ never share a cache entry;
//! * the acceptor blocks in `accept` yet notices a drain within a tick,
//!   and accepted sockets do not keep the listener's tick as their read
//!   timeout.

use mebl_netlist::{circuit_to_string, BenchmarkSpec, GenerateConfig};
use mebl_par::run_scoped;
use mebl_route::Stopwatch;
use mebl_serve::json::Json;
use mebl_serve::{DrainReport, ServeConfig, Server, ServerHandle};
use mebl_testkit::{flip_bit, shuffle_lines, truncate_text, Fault, FaultPlan, TestClient};
use std::sync::Mutex;
use std::time::Duration;

/// Small-but-real routing payload: S5378 scaled to roughly 60 nets,
/// small enough to keep debug CI affordable.
const SMALL_SCALE: f64 = 0.035;

fn small_payload(seed: u64) -> String {
    format!("{{\"bench\":\"S5378\",\"seed\":{seed},\"scale\":{SMALL_SCALE}}}")
}

/// Runs `f` against a live server and returns the drain report. The
/// server occupies role 0 of a two-role scope; the test body runs on
/// role 1 behind a drop guard that always requests shutdown, so an
/// assertion failure in the body drains the server instead of
/// deadlocking the join.
fn with_server<F>(config: ServeConfig, f: F) -> DrainReport
where
    F: FnOnce(&TestClient, &ServerHandle) + Send,
{
    let server = Server::bind(&config).expect("bind loopback");
    let client = TestClient::new(server.local_addr()).with_timeout(Duration::from_secs(60));
    let handle = server.handle();
    let body = Mutex::new(Some(f));
    let report = Mutex::new(DrainReport::default());
    run_scoped(2, |role| {
        if role == 0 {
            *report.lock().expect("report lock") = server.run();
        } else {
            struct Drain<'a>(&'a ServerHandle);
            impl Drop for Drain<'_> {
                fn drop(&mut self) {
                    self.0.shutdown();
                }
            }
            let _drain = Drain(&handle);
            let f = body.lock().expect("body lock").take().expect("runs once");
            f(&client, &handle);
        }
    });
    let report = report.lock().expect("report lock");
    *report
}

#[test]
fn observability_and_typed_protocol_errors() {
    let config = ServeConfig {
        max_body: 600,
        io_timeout: Some(Duration::from_secs(2)),
        ..ServeConfig::default()
    };
    let report = with_server(config, |client, _| {
        let health = client.get("/healthz").expect("healthz");
        assert_eq!(health.status, 200);
        let text = health.body_text();
        assert!(text.contains("\"status\":\"ok\""), "healthz body: {text}");
        assert!(text.contains("\"workers\""), "healthz body: {text}");

        // Typed routing-table errors.
        assert_eq!(client.get("/nope").expect("404").status, 404);
        assert_eq!(client.post_json("/healthz", "{}").expect("405").status, 405);
        assert_eq!(client.get("/route").expect("405").status, 405);

        // Typed payload errors: bad JSON, unknown field, unknown bench,
        // unparseable inline circuit, oversized body.
        for (payload, want) in [
            ("{", 400),
            ("{\"bench\":\"S5378\",\"mystery\":1}", 400),
            ("{\"bench\":\"NOPE\"}", 400),
            ("{\"circuit\":\"complete garbage\"}", 422),
        ] {
            let r = client.post_json("/route", payload).expect("typed error");
            assert_eq!(r.status, want, "payload {payload}: {}", r.body_text());
            assert!(r.body_text().contains("\"error\""), "{}", r.body_text());
        }
        let huge = format!("{{\"circuit\":\"{}\"}}", "x".repeat(1000));
        let r = client.post_json("/route", &huge).expect("413");
        assert_eq!(r.status, 413, "{}", r.body_text());

        // Protocol garbage gets a typed 400, not a dead socket.
        let r = client
            .send_raw(b"THIS IS NOT HTTP\r\n\r\n")
            .expect("garbage answered");
        assert_eq!(r.status, 400);

        let metrics = client.get("/metrics").expect("metrics");
        assert_eq!(metrics.status, 200);
        let text = metrics.body_text();
        for key in ["\"requests\"", "\"bad_requests\"", "\"work_latency\"", "\"internal_errors\":0"] {
            assert!(text.contains(key), "metrics body missing {key}: {text}");
        }
    });
    assert!(report.requests >= 8, "report: {report:?}");
    assert_eq!(report.cancelled_in_flight, 0);
}

#[test]
fn cache_hit_is_bit_identical_to_cold_run() {
    let report = with_server(ServeConfig::default(), |client, _| {
        let payload = small_payload(2013);
        let cold = client.post_json("/route", &payload).expect("cold route");
        assert_eq!(cold.status, 200, "{}", cold.body_text());
        assert_eq!(cold.header("x-cache"), Some("miss"));
        assert!(cold.body_text().contains("\"report\""));
        assert!(!cold.body_text().contains("elapsed_ms"), "server bodies are clock-free");

        let warm = client.post_json("/route", &payload).expect("warm route");
        assert_eq!(warm.status, 200);
        assert_eq!(warm.header("x-cache"), Some("hit"));
        assert_eq!(warm.body, cold.body, "cached body must be byte-identical");

        // The audit endpoint keys separately but caches the same way.
        let audit_cold = client.post_json("/audit", &payload).expect("cold audit");
        assert_eq!(audit_cold.status, 200, "{}", audit_cold.body_text());
        assert_eq!(audit_cold.header("x-cache"), Some("miss"));
        assert!(audit_cold.body_text().contains("\"nets_audited\""));
        let audit_warm = client.post_json("/audit", &payload).expect("warm audit");
        assert_eq!(audit_warm.header("x-cache"), Some("hit"));
        assert_eq!(audit_warm.body, audit_cold.body);
    });
    assert_eq!(report.cache_hits, 2, "report: {report:?}");
    assert!(report.clean >= 2, "report: {report:?}");
}

#[test]
fn bodies_are_invariant_across_worker_and_thread_counts() {
    // Caching disabled so every request recomputes; any divergence
    // between server worker counts shows up as a byte difference.
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    for workers in [1, 4] {
        let config = ServeConfig {
            workers,
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        with_server(config, |client, _| {
            let r = client
                .post_json("/route", &small_payload(2013))
                .expect("route");
            assert_eq!(r.status, 200, "{}", r.body_text());
            assert_eq!(r.header("x-cache"), Some("miss"), "cache is disabled");
            bodies.push(r.body);
        });
    }
    assert_eq!(bodies.len(), 2);
    assert_eq!(
        bodies[1], bodies[0],
        "response bodies must not depend on the worker count"
    );
}

/// Renders one battery fault as a `/route` payload. Text faults corrupt
/// the JSON itself; semantic faults become hostile-but-well-formed
/// requests (starved budgets, degenerate periods), which must come back
/// as typed responses too.
fn fault_payload(fault: Fault, seed: u64) -> String {
    let base =
        format!("{{\n\"bench\": \"S5378\",\n\"seed\": {seed},\n\"scale\": {SMALL_SCALE}\n}}");
    match fault {
        Fault::TruncateText { permille } => truncate_text(&base, permille),
        Fault::FlipBit { index } => flip_bit(&base, index),
        Fault::ShuffleLines { seed } => shuffle_lines(&base, seed),
        Fault::ZeroCapacity => {
            format!("{{\"bench\":\"S5378\",\"seed\":{seed},\"scale\":{SMALL_SCALE},\"period\":2}}")
        }
        Fault::AdversarialPins { seed } => small_payload(seed),
        Fault::TinyNodeCap { cap } => format!(
            "{{\"bench\":\"S5378\",\"seed\":{seed},\"scale\":{SMALL_SCALE},\"max_expansions\":{cap}}}"
        ),
        Fault::NearZeroTimeBudget { millis } => format!(
            "{{\"bench\":\"S5378\",\"seed\":{seed},\"scale\":{SMALL_SCALE},\"budget_ms\":{millis}}}"
        ),
        Fault::TinyExpansionCap { cap } => format!(
            "{{\"bench\":\"S5378\",\"seed\":{seed},\"scale\":{SMALL_SCALE},\"max_expansions\":{cap}}}"
        ),
    }
}

#[test]
fn concurrent_fault_battery_stays_typed_and_alive() {
    const CLIENTS: usize = 4;
    let config = ServeConfig {
        workers: 3,
        queue_depth: 64,
        io_timeout: Some(Duration::from_secs(2)),
        ..ServeConfig::default()
    };
    let report = with_server(config, |client, _| {
        let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
        run_scoped(CLIENTS, |role| {
            let seed = role as u64 * 7 + 1;
            for fault in FaultPlan::standard(seed).faults {
                let payload = fault_payload(fault, seed);
                match client.post_json("/route", &payload) {
                    Ok(r) => {
                        // Typed outcomes only: success/degraded, a 4xx
                        // rejection, or a budget timeout. Never 500.
                        if !matches!(r.status, 200 | 400 | 413 | 422 | 429 | 504) {
                            failures.lock().expect("failures").push(format!(
                                "fault {fault} -> unexpected {}: {}",
                                r.status,
                                r.body_text()
                            ));
                        }
                    }
                    Err(e) => failures
                        .lock()
                        .expect("failures")
                        .push(format!("fault {fault} -> transport error {e}")),
                }
            }
            // Mid-flight disconnects: hang up after the request line,
            // and again halfway through a declared body.
            client
                .send_partial_then_drop(b"POST /route HTTP/1.1\r\n")
                .expect("partial head");
            client
                .send_partial_then_drop(
                    b"POST /route HTTP/1.1\r\ncontent-length: 400\r\n\r\n{\"bench\"",
                )
                .expect("partial body");
        });
        let failures = failures.lock().expect("failures");
        assert!(failures.is_empty(), "untyped outcomes:\n{}", failures.join("\n"));

        // The daemon survived the battery and still routes.
        let health = client.get("/healthz").expect("healthz after battery");
        assert!(health.body_text().contains("\"status\":\"ok\""));
        let r = client
            .post_json("/route", &small_payload(99))
            .expect("route after battery");
        assert_eq!(r.status, 200, "{}", r.body_text());
        let metrics = client.get("/metrics").expect("metrics");
        let text = metrics.body_text();
        assert!(text.contains("\"internal_errors\":0"), "metrics: {text}");
    });
    assert!(report.requests > 0);
    assert_eq!(report.cancelled_in_flight, 0);
}

#[test]
fn full_queue_backpressures_and_drain_cancels_in_flight() {
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    const FLOOD: usize = 6;
    let report = with_server(config, |client, handle| {
        let slow_status = Mutex::new(0u16);
        let flood: Mutex<Vec<Result<u16, String>>> = Mutex::new(Vec::new());
        run_scoped(FLOOD + 2, |role| {
            if role == 0 {
                // Occupies the lone worker: a full-size hard benchmark
                // with no budget. Only the drain interrupt ends it, so
                // its response proves cancellation works mid-route.
                let r = client
                    .post_json("/route", "{\"bench\":\"S38584\",\"seed\":1}")
                    .expect("slow route answered");
                *slow_status.lock().expect("slow") = r.status;
            } else if role == FLOOD + 1 {
                // Drains while the slow job is still in flight.
                std::thread::sleep(Duration::from_millis(1500));
                handle.shutdown();
            } else {
                // The flood arrives while the worker is pinned: one
                // connection fits the queue, the rest must bounce with
                // 429. A refused socket may also surface as a reset on
                // loopback; both count as refusal, neither may hang.
                std::thread::sleep(Duration::from_millis(500));
                let outcome = match client.post_json("/route", &small_payload(role as u64)) {
                    Ok(r) => Ok(r.status),
                    Err(e) => Err(e.to_string()),
                };
                flood.lock().expect("flood").push(outcome);
            }
        });

        let slow = *slow_status.lock().expect("slow");
        assert!(
            slow == 200 || slow == 503,
            "interrupted job must finish degraded (200) or typed-cancelled (503), got {slow}"
        );
        let flood = flood.lock().expect("flood");
        assert_eq!(flood.len(), FLOOD);
        let refused = flood
            .iter()
            .filter(|r| matches!(r, Ok(429)) || r.is_err())
            .count();
        assert!(refused >= 1, "no backpressure observed: {flood:?}");
        for status in flood.iter().flatten() {
            assert!(
                matches!(status, 200 | 429 | 503),
                "flood response must be typed: {flood:?}"
            );
        }
    });
    assert!(report.queue_rejects >= 1, "report: {report:?}");
    // The slow job either degraded under the interrupt (counted) or was
    // cancelled before routing began; both leave the drain accounted.
    assert!(
        report.cancelled_in_flight >= 1 || report.degraded + report.clean <= report.requests,
        "report: {report:?}"
    );
}

#[test]
fn warm_restart_serves_bit_identical_disk_hits() {
    let dir = std::env::temp_dir().join(format!("mebl-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_dir = dir.to_string_lossy().into_owned();
    let config = || ServeConfig {
        store_dir: Some(store_dir.clone()),
        ..ServeConfig::default()
    };
    let payload = small_payload(2026);
    let cold_body: Mutex<Vec<u8>> = Mutex::new(Vec::new());
    with_server(config(), |client, _| {
        let cold = client.post_json("/route", &payload).expect("cold route");
        assert_eq!(cold.status, 200, "{}", cold.body_text());
        assert_eq!(cold.header("x-cache"), Some("miss"));
        // Same process, so the LRU still holds it: a repeat is a
        // memory hit, never touching the disk tier.
        let warm = client.post_json("/route", &payload).expect("warm route");
        assert_eq!(warm.header("x-cache"), Some("hit"));
        *cold_body.lock().expect("cold body") = cold.body;
    });

    // "Restart": a brand-new server — empty LRU — over the same
    // directory. The first hit must come from disk, byte-identical to
    // the pre-restart cold response, and promote back into the LRU.
    with_server(config(), |client, _| {
        let disk = client.post_json("/route", &payload).expect("disk route");
        assert_eq!(disk.status, 200, "{}", disk.body_text());
        assert_eq!(disk.header("x-cache"), Some("disk"), "{}", disk.body_text());
        let cold_body = cold_body.lock().expect("cold body");
        assert_eq!(
            disk.body, *cold_body,
            "disk hit must be bit-identical across restart"
        );
        let promoted = client.post_json("/route", &payload).expect("promoted route");
        assert_eq!(promoted.header("x-cache"), Some("hit"));
        assert_eq!(promoted.body, *cold_body);
        let metrics = client.get("/metrics").expect("metrics").body_text();
        assert!(metrics.contains("\"store_hits\":1"), "metrics: {metrics}");
        assert!(
            !metrics.contains("\"store_records\":null"),
            "store gauge must be live: {metrics}"
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_worker_survives_an_injected_panic() {
    let config = ServeConfig {
        workers: 1,
        inject_panic_seed: Some(666),
        ..ServeConfig::default()
    };
    let report = with_server(config, |client, _| {
        let r = client
            .post_json("/route", &small_payload(666))
            .expect("panicking job still answered");
        assert_eq!(r.status, 500, "{}", r.body_text());
        assert!(r.body_text().contains("worker-panic"), "{}", r.body_text());

        // The lone worker was supervised, not killed: the very next
        // job on the same pool routes cleanly.
        let ok = client
            .post_json("/route", &small_payload(667))
            .expect("route after panic");
        assert_eq!(ok.status, 200, "{}", ok.body_text());
        let metrics = client.get("/metrics").expect("metrics").body_text();
        assert!(metrics.contains("\"worker_panics\":1"), "metrics: {metrics}");
    });
    assert!(report.requests >= 3, "report: {report:?}");
    assert_eq!(report.cancelled_in_flight, 0);
}

#[test]
fn bounded_retry_rides_out_backpressure() {
    const CLIENTS: usize = 6;
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let report = with_server(config, |client, _| {
        let outcomes: Mutex<Vec<u16>> = Mutex::new(Vec::new());
        run_scoped(CLIENTS, |role| {
            // The simultaneous burst overruns the one-slot queue, so
            // early attempts bounce with 429 (or a loopback reset);
            // the bounded retry must ride all of that out.
            let r = client
                .post_json_retry("/route", &small_payload(500 + role as u64), 200)
                .expect("retry exhausted on transport errors");
            outcomes.lock().expect("outcomes").push(r.status);
        });
        let outcomes = outcomes.lock().expect("outcomes");
        assert!(
            outcomes.iter().all(|s| *s == 200),
            "every client must land after bounded retry: {outcomes:?}"
        );
    });
    assert!(
        report.queue_rejects >= 1,
        "the burst never hit backpressure: {report:?}"
    );
}

#[test]
fn shutdown_endpoint_drains_and_run_returns() {
    let report = with_server(ServeConfig::default(), |client, handle| {
        let r = client.post_json("/shutdown", "").expect("shutdown");
        assert_eq!(r.status, 200);
        assert!(r.body_text().contains("draining"));
        assert!(handle.is_draining());
    });
    assert_eq!(report.requests, 1);
}

/// A benchmark request and the same generated text sent inline answer
/// with different bodies (`"circuit"` names the benchmark or says
/// `inline`), so neither may be served the other's cache entry.
#[test]
fn inline_text_of_a_benchmark_does_not_alias_its_cache_entry() {
    let bench = format!("{{\"bench\":\"S5378\",\"seed\":1,\"scale\":{SMALL_SCALE}}}");
    let circuit = BenchmarkSpec::by_name("S5378")
        .expect("known benchmark")
        .generate(&GenerateConfig {
            seed: 1,
            net_scale: SMALL_SCALE,
            ..GenerateConfig::default()
        });
    let inline = Json::obj(vec![("circuit", Json::Str(circuit_to_string(&circuit)))]).encode();

    let cold_inline: Mutex<Vec<u8>> = Mutex::new(Vec::new());
    with_server(ServeConfig::default(), |client, _| {
        let cold = client
            .post_json("/route", &inline)
            .expect("cold inline route");
        assert_eq!(cold.status, 200, "{}", cold.body_text());
        *cold_inline.lock().expect("cold inline") = cold.body;
    });
    with_server(ServeConfig::default(), |client, _| {
        let by_name = client.post_json("/route", &bench).expect("bench route");
        assert_eq!(by_name.status, 200, "{}", by_name.body_text());
        assert!(by_name.body_text().contains("\"circuit\":\"S5378\""));

        let r = client.post_json("/route", &inline).expect("inline route");
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(r.header("x-cache"), Some("miss"), "{}", r.body_text());
        assert!(
            r.body_text().contains("\"circuit\":\"inline\""),
            "{}",
            r.body_text()
        );
        assert_eq!(r.body, *cold_inline.lock().expect("cold inline"));
    });
}

/// Routes 3 of its 4 nets, leaving one `search-exhausted` record:
/// blockages ring one pin on every layer, so no router can reach it.
const SEALED_PIN: &str = include_str!("data/sealed_pin.txt");

fn sealed_pin_payload(extra: &str) -> String {
    let circuit = Json::Str(SEALED_PIN.to_string()).encode();
    format!("{{\"circuit\":{circuit}{extra}}}")
}

/// A degraded result is a pure function of its request unless a
/// wall-clock budget could have cut it short (DESIGN.md §9). An
/// unbudgeted or expansion-capped one is cached like a clean one; a
/// `budget_ms` one is not, because the deadline may cut a rerun short
/// elsewhere.
#[test]
fn degraded_results_are_cached_unless_time_budgeted() {
    let report = with_server(ServeConfig::default(), |client, _| {
        let cold = client
            .post_json("/route", &sealed_pin_payload(""))
            .expect("cold route");
        assert_eq!(cold.status, 200, "{}", cold.body_text());
        assert_eq!(cold.header("x-cache"), Some("miss"));
        let text = cold.body_text();
        assert!(text.contains("\"status\":\"degraded\""), "{text}");
        assert!(text.contains("\"routed_nets\":3"), "{text}");
        assert_eq!(text.matches("search-exhausted").count(), 1, "{text}");
        let warm = client
            .post_json("/route", &sealed_pin_payload(""))
            .expect("warm route");
        assert_eq!(warm.header("x-cache"), Some("hit"));
        assert_eq!(warm.body, cold.body);

        // An expansion cap is spent in the same order on every run, so
        // its degraded result repeats byte for byte.
        let capped = sealed_pin_payload(",\"max_expansions\":500");
        let capped_cold = client.post_json("/route", &capped).expect("capped route");
        assert_eq!(capped_cold.status, 200, "{}", capped_cold.body_text());
        assert!(
            capped_cold.body_text().contains("budget-exhausted"),
            "{}",
            capped_cold.body_text()
        );
        assert_eq!(capped_cold.header("x-cache"), Some("miss"));
        let capped_warm = client.post_json("/route", &capped).expect("capped repeat");
        assert_eq!(capped_warm.header("x-cache"), Some("hit"));
        assert_eq!(capped_warm.body, capped_cold.body);

        let timed = sealed_pin_payload(",\"budget_ms\":60000");
        for _ in 0..2 {
            let r = client.post_json("/route", &timed).expect("timed route");
            assert_eq!(r.status, 200, "{}", r.body_text());
            assert!(
                r.body_text().contains("\"status\":\"degraded\""),
                "{}",
                r.body_text()
            );
            assert_eq!(r.header("x-cache"), Some("miss"));
        }
    });
    assert_eq!(report.cache_hits, 2, "report: {report:?}");
    assert_eq!(report.degraded, 4, "report: {report:?}");
}

/// The acceptor blocks in `accept`, waking once per tick to check for a
/// drain. On a kernel whose `accept` ignored the listener's receive
/// timeout this test would hang instead of passing.
#[test]
fn idle_server_drains_within_a_tick() {
    let server = Server::bind(&ServeConfig::default()).expect("bind loopback");
    let handle = server.handle();
    let since_shutdown: Mutex<Option<Stopwatch>> = Mutex::new(None);
    run_scoped(2, |role| {
        if role == 0 {
            server.run();
        } else {
            std::thread::sleep(Duration::from_millis(50));
            *since_shutdown.lock().expect("stopwatch") = Some(Stopwatch::start());
            handle.shutdown();
        }
    });
    let elapsed = since_shutdown
        .into_inner()
        .expect("stopwatch")
        .expect("shutdown was called")
        .elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "idle server took {elapsed:?} to drain"
    );
}

/// Accepted sockets inherit the listener's tick as their read timeout;
/// the worker must replace it, or a body arriving later than one tick
/// after its head reads as a disconnect.
#[test]
fn a_body_arriving_after_a_pause_is_still_answered() {
    with_server(ServeConfig::default(), |client, _| {
        let body = small_payload(7);
        let head = format!(
            "POST /route HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        );
        let r = client
            .send_paced(
                &[head.as_bytes(), body.as_bytes()],
                Duration::from_millis(50),
            )
            .expect("paced request answered");
        assert_eq!(r.status, 200, "{}", r.body_text());
    });
}
