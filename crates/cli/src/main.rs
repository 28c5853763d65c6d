//! `mebl` — command-line front end for the stitch-aware MEBL router.
//!
//! ```text
//! mebl list                                   # show the benchmark suite
//! mebl gen  <bench> [--scale f] [--seed n] [-o file]
//! mebl route <circuit.txt> [--baseline] [--svg out.svg] [--period n]
//!            [--shards n] [--time-budget ms] [--max-expansions n] [--json]
//!            [--save-outcome out.mebl]
//! mebl route --from outcome.mebl [--edits edits.json] [--save-outcome f]
//!            [--svg out.svg] [--time-budget ms] [--json]
//! mebl audit (<circuit.txt> | --bench NAME) [--seed n] [--scale f]
//!            [--baseline] [--period n] [--strict]
//!            [--time-budget ms] [--max-expansions n] [--json]
//! mebl serve [--port n] [--workers n] [--queue-depth n]
//!            [--default-budget-ms n] [--cache-capacity n]
//!            [--store dir] [--fsync always|never|interval:<n>]
//! ```
//!
//! Exit codes: 0 clean, 1 usage error, 2 degraded result (a budget bound
//! fired, internal fallbacks were taken, or `serve` cancelled jobs
//! in-flight during drain), 3 invalid input (unreadable or malformed
//! circuit, or a `serve` bind failure), 4 internal error (result violates
//! a hard MEBL constraint).
//!
//! A route runs on one thread. `--shards n` splits the die at stitch
//! boundaries into panel jobs and routes up to `n` of them at once; the
//! output is byte-identical at every shard count.
//!
//! `--json` prints the same response object the service daemon serves
//! (plus an `elapsed_ms` timing field, which the daemon omits so its
//! cached bodies stay byte-identical). `serve` prints
//! `listening on <addr>` on stdout, then drains gracefully when stdin
//! closes or `POST /shutdown` arrives.

use mebl_route::{RouteError, Router, RouterConfig, RunBudget, StitchConfig};
use mebl_serve::api::{audit_response_json, route_response_json, JobError, Mode};
use mebl_serve::{FsyncPolicy, ServeConfig, Server};
use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Duration;

/// Typed CLI failure; the variant fixes the exit code.
enum CliError {
    /// Bad flags or arguments (exit 1, prints usage).
    Usage(String),
    /// The input circuit cannot be used (exit 3).
    Invalid(String),
    /// The router produced an illegal result — a bug (exit 4).
    Internal(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }
}

/// What a successfully-finished command reports.
enum Outcome {
    Clean,
    Degraded,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("gen") => cmd_gen(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("coord") => cmd_coord(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(Outcome::Clean)
        }
        Some(other) => Err(CliError::usage(format!("unknown command '{other}'"))),
    };
    match result {
        Ok(Outcome::Clean) => ExitCode::SUCCESS,
        Ok(Outcome::Degraded) => ExitCode::from(2),
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            print_usage();
            ExitCode::from(1)
        }
        Err(CliError::Invalid(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(3)
        }
        Err(CliError::Internal(msg)) => {
            eprintln!("internal error: {msg}");
            ExitCode::from(4)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  mebl list\n  mebl gen <bench> [--scale f] [--seed n] [-o file]\n  mebl route <circuit.txt> [--baseline] [--svg out.svg] [--period n] [--shards n] [--time-budget ms] [--max-expansions n] [--json] [--save-outcome f]\n  mebl route --from outcome.mebl [--edits edits.json] [--save-outcome f] [--svg out.svg] [--time-budget ms] [--json]\n  mebl audit (<circuit.txt> | --bench NAME) [--seed n] [--scale f] [--baseline] [--period n] [--strict] [--time-budget ms] [--max-expansions n] [--json]\n  mebl serve [--port n] [--workers n] [--queue-depth n] [--default-budget-ms n] [--cache-capacity n] [--store dir] [--fsync always|never|interval:<n>]\n  mebl coord (--workers addr,addr,... | --spawn n) [--port n] [--store dir] [--budget-ms n]\n\nA route runs on one thread. --shards splits the die at stitch boundaries\ninto panel jobs and routes that many at once (byte-identical at every\nshard count). --json prints the service daemon's response object. serve\nand coord drain when stdin closes or POST /shutdown arrives.\n\nexit codes: 0 clean, 1 usage, 2 degraded result, 3 invalid input, 4 internal error"
    );
}

fn cmd_list() -> Result<Outcome, CliError> {
    println!(
        "{:<10} {:<8} {:>7} {:>7} {:>8}",
        "name", "suite", "layers", "nets", "pins"
    );
    for spec in mebl_netlist::full_suite() {
        println!(
            "{:<10} {:<8} {:>7} {:>7} {:>8}",
            spec.name,
            spec.suite.to_string(),
            spec.layers,
            spec.nets,
            spec.pins
        );
    }
    Ok(Outcome::Clean)
}

fn cmd_gen(args: &[String]) -> Result<Outcome, CliError> {
    let mut it = args.iter();
    let bench = it.next().ok_or(CliError::Usage("gen: missing benchmark name".into()))?;
    let spec = mebl_netlist::BenchmarkSpec::by_name(bench).ok_or_else(|| {
        CliError::usage(format!("unknown benchmark '{bench}' (try `mebl list`)"))
    })?;
    let mut config = mebl_netlist::GenerateConfig::default();
    let mut out: Option<String> = None;
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::usage(format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--scale" => {
                config.net_scale = val("--scale")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --scale"))?
            }
            "--seed" => {
                config.seed = val("--seed")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --seed"))?
            }
            "-o" | "--out" => out = Some(val("-o")?.clone()),
            other => return Err(CliError::usage(format!("gen: unknown flag {other}"))),
        }
    }
    let (circuit, events) = spec.generate_with_events(&config);
    for event in &events {
        eprintln!("note: generator: {event}");
    }
    let text = mebl_netlist::circuit_to_string(&circuit);
    match out {
        Some(path) => {
            std::fs::write(&path, text)
                .map_err(|e| CliError::Invalid(format!("writing {path}: {e}")))?;
            eprintln!(
                "wrote {} ({} nets, {} pins, {}x{} tracks)",
                path,
                circuit.net_count(),
                circuit.pin_count(),
                circuit.outline().width(),
                circuit.outline().height()
            );
        }
        None => print!("{text}"),
    }
    Ok(Outcome::Clean)
}

/// Flags shared by `route` and `audit` that shape the router run.
struct RunFlags {
    baseline: bool,
    period: Option<i32>,
    budget: RunBudget,
    /// Sharded panel routing: split the die at stitch boundaries and
    /// fan the panels out this wide (`mebl route` only).
    shards: Option<usize>,
    /// Print the service daemon's JSON response object (with timing)
    /// instead of the human-readable report lines.
    json: bool,
}

impl RunFlags {
    fn new() -> Self {
        Self {
            baseline: false,
            period: None,
            budget: RunBudget::default(),
            shards: None,
            json: false,
        }
    }

    /// Parses one flag if it belongs to this group. `Ok(true)` means the
    /// flag (and possibly its value) was consumed.
    fn parse<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, CliError> {
        let mut val = |name: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::usage(format!("missing value for {name}")))
        };
        match flag {
            "--baseline" => self.baseline = true,
            "--period" => {
                let p: i32 = val("--period")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --period"))?;
                if p <= 1 {
                    return Err(CliError::usage("--period must be > 1"));
                }
                self.period = Some(p);
            }
            "--time-budget" => {
                let ms: u64 = val("--time-budget")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --time-budget (milliseconds)"))?;
                self.budget.time = Some(Duration::from_millis(ms));
            }
            "--max-expansions" => {
                self.budget.max_expansions = Some(
                    val("--max-expansions")?
                        .parse()
                        .map_err(|_| CliError::usage("bad --max-expansions"))?,
                );
            }
            "--shards" => {
                let n: usize = val("--shards")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --shards"))?;
                if n == 0 {
                    return Err(CliError::usage("--shards must be >= 1"));
                }
                self.shards = Some(n);
            }
            "--json" => self.json = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn router_config(&self) -> RouterConfig {
        let mut stitch = StitchConfig::default();
        if let Some(p) = self.period {
            stitch.period = p;
        }
        RouterConfig::preset(self.baseline, stitch).with_budget(self.budget)
    }

    fn mode_name(&self) -> &'static str {
        self.mode().name()
    }

    /// The wire-schema mode tag shared with the service daemon.
    fn mode(&self) -> Mode {
        if self.baseline {
            Mode::Baseline
        } else {
            Mode::StitchAware
        }
    }
}

/// Routes a circuit, then re-verifies the solution with the independent
/// `mebl-audit` checker. Exits nonzero when the audit reports errors
/// (with `--strict`, warnings also fail).
fn cmd_audit(args: &[String]) -> Result<Outcome, CliError> {
    let mut it = args.iter();
    let mut file: Option<String> = None;
    let mut bench: Option<String> = None;
    let mut gen_config = mebl_netlist::GenerateConfig::quick(1);
    let mut flags = RunFlags::new();
    let mut strict = false;
    while let Some(flag) = it.next() {
        if flags.parse(flag, &mut it)? {
            continue;
        }
        let mut val = |name: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::usage(format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--bench" => bench = Some(val("--bench")?.clone()),
            "--seed" => {
                gen_config.seed = val("--seed")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --seed"))?
            }
            "--scale" => {
                gen_config.net_scale = val("--scale")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --scale"))?
            }
            "--strict" => strict = true,
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            other => return Err(CliError::usage(format!("audit: unknown flag {other}"))),
        }
    }
    if flags.shards.is_some() {
        return Err(CliError::usage(
            "audit: --shards is a routing flag; audit a `mebl route --shards --save-outcome` file instead",
        ));
    }

    let circuit = match (file, bench) {
        (Some(path), None) => load_circuit(&path)?,
        (None, Some(name)) => mebl_netlist::BenchmarkSpec::by_name(&name)
            .ok_or_else(|| CliError::usage(format!("unknown benchmark '{name}' (try `mebl list`)")))?
            .generate(&gen_config),
        (Some(_), Some(_)) => {
            return Err(CliError::usage("audit: give a file or --bench, not both"))
        }
        (None, None) => return Err(CliError::usage("audit: missing circuit file or --bench")),
    };

    let config = flags.router_config();
    let router = Router::new(config.clone());
    for d in router.validation_degradations(&circuit) {
        eprintln!("tolerated: {d}");
    }
    let outcome = match router.try_route(&circuit) {
        Ok(outcome) => outcome,
        Err(e) => return route_failure(e, flags.json),
    };
    for d in &outcome.degradations {
        eprintln!("degraded: {d}");
    }
    let audit = mebl_audit::audit_outcome(&circuit, &config, &outcome);
    if flags.json {
        println!(
            "{}",
            audit_response_json(circuit.name(), flags.mode(), &outcome, &audit, strict, true)
                .encode()
        );
    } else {
        println!(
            "{} [{}]: {}",
            circuit.name(),
            flags.mode_name(),
            outcome.report
        );
        println!("{audit}");
        for finding in &audit.findings {
            println!("  {finding}");
        }
    }
    let errors = audit.error_count();
    let warnings = audit.warning_count();
    if errors > 0 || (strict && warnings > 0) {
        return Err(CliError::Internal(format!(
            "audit failed: {errors} error(s), {warnings} warning(s)"
        )));
    }
    if outcome.is_degraded() {
        Ok(Outcome::Degraded)
    } else {
        Ok(Outcome::Clean)
    }
}

fn cmd_route(args: &[String]) -> Result<Outcome, CliError> {
    let mut it = args.iter();
    let mut file: Option<String> = None;
    let mut flags = RunFlags::new();
    let mut svg: Option<String> = None;
    let mut from: Option<String> = None;
    let mut edits_path: Option<String> = None;
    let mut save_outcome: Option<String> = None;
    while let Some(flag) = it.next() {
        if flags.parse(flag, &mut it)? {
            continue;
        }
        let mut val = |name: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::usage(format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--svg" => svg = Some(val("--svg")?.clone()),
            "--from" => from = Some(val("--from")?.clone()),
            "--edits" => edits_path = Some(val("--edits")?.clone()),
            "--save-outcome" => save_outcome = Some(val("--save-outcome")?.clone()),
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            other => return Err(CliError::usage(format!("route: unknown flag {other}"))),
        }
    }

    if let Some(from_path) = from {
        if file.is_some() {
            return Err(CliError::usage(
                "route: give a circuit file or --from, not both",
            ));
        }
        return cmd_route_delta(&from_path, edits_path.as_deref(), &flags, svg, save_outcome);
    }
    if edits_path.is_some() {
        return Err(CliError::usage("route: --edits requires --from"));
    }
    let path = file.ok_or(CliError::Usage("route: missing circuit file".into()))?;

    let circuit = load_circuit(&path)?;
    let outcome = if let Some(shards) = flags.shards {
        let opts = mebl_shard::ShardOptions {
            baseline: flags.baseline,
            period: flags.period,
            shards,
            budget: flags.budget,
        };
        match mebl_shard::route_sharded(&circuit, &opts) {
            Ok(run) => {
                eprintln!(
                    "sharded: {} panel job(s) ({} cut, {} residual net(s)) across {} worker(s)",
                    run.jobs, run.cut_nets, run.residual_nets, run.shards
                );
                run.outcome
            }
            Err(
                e @ (mebl_shard::ShardError::BudgetExhausted
                | mebl_shard::ShardError::Panel { .. }),
            ) => return Ok(no_result(e, flags.json)),
            Err(mebl_shard::ShardError::InvalidConfig(msg)) => {
                return Err(CliError::Usage(format!("route: {msg}")));
            }
            Err(e @ mebl_shard::ShardError::InvalidCircuit(_)) => {
                return Err(CliError::Invalid(e.to_string()));
            }
        }
    } else {
        let router = Router::new(flags.router_config());
        for d in router.validation_degradations(&circuit) {
            eprintln!("tolerated: {d}");
        }
        match router.try_route(&circuit) {
            Ok(outcome) => outcome,
            Err(e) => return route_failure(e, flags.json),
        }
    };
    for d in &outcome.degradations {
        eprintln!("degraded: {d}");
    }
    if flags.json {
        println!(
            "{}",
            route_response_json(circuit.name(), flags.mode(), &outcome, true).encode()
        );
    } else {
        println!(
            "{} [{}]: {}",
            circuit.name(),
            flags.mode_name(),
            outcome.report
        );
    }
    if !outcome.report.hard_clean() {
        return Err(CliError::Internal(
            "hard MEBL violation in result (bug)".into(),
        ));
    }
    finish_route(&circuit, &outcome, flags.baseline, svg, save_outcome)?;
    if outcome.is_degraded() {
        Ok(Outcome::Degraded)
    } else {
        Ok(Outcome::Clean)
    }
}

/// The incremental path of `mebl route`: load a saved outcome, apply an
/// edit list, rip up and re-route only the affected nets.
///
/// Mode and stitch period come from the saved file's header, so
/// `--baseline` / `--period` are rejected here — a mismatched preset
/// would silently invalidate the preserved nets.
fn cmd_route_delta(
    from_path: &str,
    edits_path: Option<&str>,
    flags: &RunFlags,
    svg: Option<String>,
    save_outcome: Option<String>,
) -> Result<Outcome, CliError> {
    if flags.baseline {
        return Err(CliError::usage(
            "route: --baseline conflicts with --from (the mode is recorded in the outcome file)",
        ));
    }
    if flags.period.is_some() {
        return Err(CliError::usage(
            "route: --period conflicts with --from (the period is recorded in the outcome file)",
        ));
    }
    if flags.shards.is_some() {
        return Err(CliError::usage(
            "route: --shards conflicts with --from (delta runs re-route a saved outcome in place)",
        ));
    }

    let text = std::fs::read_to_string(from_path)
        .map_err(|e| CliError::Invalid(format!("reading {from_path}: {e}")))?;
    let saved = mebl_delta::outcome_from_str(&text)
        .map_err(|e| CliError::Invalid(format!("{from_path}: {e}")))?;
    let edits = match edits_path {
        None => Vec::new(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Invalid(format!("reading {path}: {e}")))?;
            let doc = mebl_serve::json::parse(&text)
                .map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
            mebl_serve::delta::edits_from_json(&doc)
                .map_err(|e| CliError::Invalid(format!("{path}: {e}")))?
        }
    };

    let config = saved.config().with_budget(flags.budget);
    let mode = if saved.baseline {
        Mode::Baseline
    } else {
        Mode::StitchAware
    };

    let delta = mebl_delta::route_delta(&saved.circuit, &saved.outcome, &edits, &config)
        .map_err(|e| CliError::Invalid(format!("delta: {e}")))?;
    eprintln!(
        "delta: re-routed {} of {} net(s)",
        delta.rerouted.len(),
        delta.circuit.net_count()
    );
    for d in &delta.outcome.degradations {
        eprintln!("degraded: {d}");
    }
    if flags.json {
        println!(
            "{}",
            route_response_json(delta.circuit.name(), mode, &delta.outcome, true).encode()
        );
    } else {
        println!(
            "{} [{}]: {}",
            delta.circuit.name(),
            mode.name(),
            delta.outcome.report
        );
    }
    if !delta.outcome.report.hard_clean() {
        return Err(CliError::Internal(
            "hard MEBL violation in result (bug)".into(),
        ));
    }
    finish_route(&delta.circuit, &delta.outcome, saved.baseline, svg, save_outcome)?;
    if delta.outcome.is_degraded() {
        Ok(Outcome::Degraded)
    } else {
        Ok(Outcome::Clean)
    }
}

/// Output side shared by the scratch and delta routes: optional SVG
/// rendering and optional outcome serialization for later `--from` use.
fn finish_route(
    circuit: &mebl_netlist::Circuit,
    outcome: &mebl_route::RoutingOutcome,
    baseline: bool,
    svg: Option<String>,
    save_outcome: Option<String>,
) -> Result<(), CliError> {
    if let Some(svg_path) = svg {
        let doc = mebl_viz::layout_svg(circuit, &outcome.plan, &outcome.detailed.geometry, 4.0);
        std::fs::write(&svg_path, doc)
            .map_err(|e| CliError::Invalid(format!("writing {svg_path}: {e}")))?;
        eprintln!("wrote {svg_path}");
    }
    if let Some(out_path) = save_outcome {
        let saved = mebl_delta::SavedOutcome {
            circuit: circuit.clone(),
            outcome: outcome.clone(),
            baseline,
        };
        std::fs::write(&out_path, mebl_delta::outcome_to_string(&saved))
            .map_err(|e| CliError::Invalid(format!("writing {out_path}: {e}")))?;
        eprintln!("saved outcome to {out_path}");
    }
    Ok(())
}

/// Runs the routing service daemon until it drains.
///
/// Prints `listening on <addr>` on stdout (flushed, so drivers piping
/// stdout can parse the bound port), then serves until stdin closes or
/// a `POST /shutdown` arrives. Exit code 0 for a clean drain, 2 when
/// in-flight jobs were cancelled by the drain, 3 when the bind fails.
fn cmd_serve(args: &[String]) -> Result<Outcome, CliError> {
    let mut config = ServeConfig::default();
    let mut port: u16 = 0;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::usage(format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--port" => {
                port = val("--port")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --port"))?
            }
            "--workers" => {
                let n: usize = val("--workers")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --workers"))?;
                if n == 0 {
                    return Err(CliError::usage("--workers must be >= 1"));
                }
                config.workers = n;
            }
            "--queue-depth" => {
                let n: usize = val("--queue-depth")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --queue-depth"))?;
                if n == 0 {
                    return Err(CliError::usage("--queue-depth must be >= 1"));
                }
                config.queue_depth = n;
            }
            "--default-budget-ms" => {
                let ms: u64 = val("--default-budget-ms")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --default-budget-ms"))?;
                config.default_budget = RunBudget::with_time(Duration::from_millis(ms));
            }
            "--cache-capacity" => {
                config.cache_capacity = val("--cache-capacity")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --cache-capacity"))?;
            }
            "--store" => {
                config.store_dir = Some(val("--store")?.clone());
            }
            "--fsync" => {
                let mode = val("--fsync")?;
                config.store_fsync = FsyncPolicy::parse(mode).ok_or_else(|| {
                    CliError::usage(format!(
                        "bad --fsync {mode} (expected always, never or interval:<n>)"
                    ))
                })?;
            }
            other => return Err(CliError::usage(format!("serve: unknown flag {other}"))),
        }
    }
    config.addr = format!("127.0.0.1:{port}");

    let server = Server::bind(&config)
        .map_err(|e| CliError::Invalid(format!("cannot bind {}: {e}", config.addr)))?;
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "serving with {} worker(s), queue depth {} (close stdin or POST /shutdown to drain)",
        config.workers, config.queue_depth
    );
    if let Some(dir) = &config.store_dir {
        eprintln!("persistent result store at {dir}");
    }

    let handle = server.handle();
    // Role 0 serves; role 1 watches stdin and requests a drain at EOF.
    // When the drain came over HTTP instead, the watcher may still be
    // blocked on stdin, so role 0 exits the process directly after
    // reporting (the watcher thread dies with the process).
    mebl_par::run_scoped(2, |role| {
        if role == 0 {
            let report = server.run();
            eprintln!(
                "drained: {} request(s), {} clean, {} degraded, {} cache hit(s), \
                 {} rejected for backpressure, {} cancelled in flight",
                report.requests,
                report.clean,
                report.degraded,
                report.cache_hits,
                report.queue_rejects,
                report.cancelled_in_flight
            );
            let code = if report.cancelled_in_flight > 0 { 2 } else { 0 };
            std::process::exit(code);
        } else {
            let mut sink = [0u8; 1024];
            let mut stdin = std::io::stdin().lock();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            handle.shutdown();
        }
    });
    // Role 0 always exits the process above; this is never reached.
    Ok(Outcome::Clean)
}

/// Runs the multi-process coordinator in front of `mebl serve` workers.
///
/// Workers are either given (`--workers addr,addr,...`) or spawned
/// (`--spawn n` forks this binary as `mebl serve --port 0`, optionally
/// sharing one `--store` directory, and scrapes each child's
/// `listening on` line). Prints `listening on <addr>` on stdout, then
/// coordinates until stdin closes or `POST /shutdown` arrives; spawned
/// workers drain (stdin close) when the coordinator stops.
fn cmd_coord(args: &[String]) -> Result<Outcome, CliError> {
    let mut port: u16 = 0;
    let mut workers_arg: Option<String> = None;
    let mut spawn: Option<usize> = None;
    let mut store: Option<String> = None;
    let mut config = mebl_coord::CoordConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::usage(format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--port" => {
                port = val("--port")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --port"))?
            }
            "--workers" => workers_arg = Some(val("--workers")?.clone()),
            "--spawn" => {
                let n: usize = val("--spawn")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --spawn"))?;
                if n == 0 {
                    return Err(CliError::usage("--spawn must be >= 1"));
                }
                spawn = Some(n);
            }
            "--store" => store = Some(val("--store")?.clone()),
            "--budget-ms" => {
                let ms: u64 = val("--budget-ms")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --budget-ms"))?;
                config.budget = RunBudget::with_time(Duration::from_millis(ms));
            }
            other => return Err(CliError::usage(format!("coord: unknown flag {other}"))),
        }
    }

    let mut children: Vec<std::process::Child> = Vec::new();
    match (workers_arg, spawn) {
        (Some(list), None) => {
            if store.is_some() {
                return Err(CliError::usage(
                    "coord: --store only applies with --spawn (pass it to each worker otherwise)",
                ));
            }
            for part in list.split(',') {
                let addr = part.trim().parse().map_err(|_| {
                    CliError::usage(format!("coord: bad worker address '{}'", part.trim()))
                })?;
                config.workers.push(addr);
            }
            if config.workers.is_empty() {
                return Err(CliError::usage("coord: --workers lists no addresses"));
            }
        }
        (None, Some(n)) => {
            for _ in 0..n {
                let (child, addr) = spawn_worker(store.as_deref())?;
                children.push(child);
                config.workers.push(addr);
            }
        }
        _ => {
            return Err(CliError::usage(
                "coord: give exactly one of --workers or --spawn",
            ));
        }
    }

    let coordinator = std::sync::Arc::new(mebl_coord::Coordinator::new(config));
    let live = coordinator.probe();
    let server = mebl_coord::CoordServer::bind(
        &format!("127.0.0.1:{port}"),
        std::sync::Arc::clone(&coordinator),
    )
    .map_err(|e| CliError::Invalid(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "coordinating {} worker(s), {} live (close stdin or POST /shutdown to stop)",
        coordinator.config().workers.len(),
        live
    );

    let handle = server.handle();
    let children = std::sync::Mutex::new(children);
    // Role 0 coordinates; role 1 watches stdin and stops at EOF. As
    // with `serve`, the stop may arrive over HTTP while the watcher is
    // still blocked on stdin, so role 0 exits the process directly.
    mebl_par::run_scoped(2, |role| {
        if role == 0 {
            server.run();
            if let Ok(mut kids) = children.lock() {
                for child in kids.iter_mut() {
                    drop(child.stdin.take()); // ask the worker to drain
                }
                for child in kids.iter_mut() {
                    let _ = child.wait();
                }
            }
            let m = coordinator.metrics();
            eprintln!(
                "stopped: {} request(s) ({} proxied, {} sharded, {} fragment(s)), \
                 {} redispatch(es), {} dead-mark(s)",
                m.requests.get(),
                m.proxied.get(),
                m.sharded_routes.get(),
                m.fragment_requests.get(),
                m.redispatches.get(),
                m.dead_marked.get()
            );
            std::process::exit(0);
        } else {
            let mut sink = [0u8; 1024];
            let mut stdin = std::io::stdin().lock();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            handle.shutdown();
        }
    });
    // Role 0 always exits the process above; this is never reached.
    Ok(Outcome::Clean)
}

/// Forks this binary as a `mebl serve --port 0` worker and scrapes the
/// bound address off its first stdout line. The child's stdin stays
/// piped (and open) so it drains when the coordinator closes it.
fn spawn_worker(
    store: Option<&str>,
) -> Result<(std::process::Child, std::net::SocketAddr), CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Invalid(format!("cannot locate own binary: {e}")))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("serve")
        .arg("--port")
        .arg("0")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped());
    if let Some(dir) = store {
        cmd.arg("--store").arg(dir);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| CliError::Invalid(format!("cannot spawn worker: {e}")))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| CliError::Invalid("worker stdout not captured".into()))?;
    let mut line = String::new();
    let mut reader = std::io::BufReader::new(stdout);
    std::io::BufRead::read_line(&mut reader, &mut line)
        .map_err(|e| CliError::Invalid(format!("reading worker address: {e}")))?;
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok());
    match addr {
        Some(addr) => Ok((child, addr)),
        None => {
            let _ = child.kill();
            Err(CliError::Invalid(format!(
                "worker did not report an address (got {line:?})"
            )))
        }
    }
}

fn load_circuit(path: &str) -> Result<mebl_netlist::Circuit, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Invalid(format!("reading {path}: {e}")))?;
    mebl_netlist::circuit_from_str(&text).map_err(|e| CliError::Invalid(e.to_string()))
}

/// Maps a typed router failure onto the exit-code taxonomy.
fn route_failure(e: RouteError, json: bool) -> Result<Outcome, CliError> {
    match e {
        RouteError::InvalidConfig(_) => Err(CliError::Usage(e.to_string())),
        RouteError::InvalidCircuit(ref issues) => {
            for issue in issues.iter().filter(|i| i.is_error()) {
                eprintln!("  {issue}");
            }
            Err(CliError::Invalid(e.to_string()))
        }
        RouteError::BudgetExhausted => Ok(no_result(e, json)),
    }
}

/// A run that produced nothing for want of budget (or a sharded run
/// whose panel failed): the input was fine and a bigger budget would
/// succeed, so it exits like a degraded run, printing with `--json` the
/// body the service answers the same failure with.
fn no_result<E: std::fmt::Display + Into<JobError>>(e: E, json: bool) -> Outcome {
    eprintln!("degraded: {e}");
    if json {
        println!("{}", String::from_utf8_lossy(&e.into().response().body));
    }
    Outcome::Degraded
}
