//! Line-based serialisation of a routing outcome.
//!
//! A saved outcome embeds the circuit it describes plus everything the
//! delta router needs to resume from it: per-net routed flags, global
//! routes (tile/edge ids) and detailed geometry. Derived state —
//! demands, metrics, utilisation maps, the report — is a pure function
//! of the routes and is **recomputed** on load, so the format stays
//! small and the round-trip stays canonical: serialising a parsed
//! outcome reproduces the input text byte for byte.
//!
//! ```text
//! meblout 1 <stitch|baseline>
//! stitch <period> <epsilon> <escape_width>
//! circuit-begin
//! <mebl-netlist text format>
//! circuit-end
//! net <i> <routed|unrouted>
//! gtiles <i> <tile-id>...
//! gedges <i> <a> <b> ...
//! seg <i> <layer> <track> <lo> <hi>
//! via <i> <x> <y> <lower-layer>
//! deg <stage> <kind> <net|-> <detail...>
//! ```
//!
//! Older writers also recorded a `parallelism <n>` line after the
//! `stitch` line. A route runs on one thread, so the writer no longer
//! emits it and the reader skips it, whatever the number.
//!
//! The track-assignment stage is intentionally not serialised: detailed
//! geometry is the authoritative routed shape, the auditor never reads
//! track state, and a delta run re-derives occupancy from geometry
//! alone. Loaded outcomes carry an empty `TrackResult`.

use mebl_geom::{Layer, RouteGeometry, Segment, Via};
use mebl_global::{GlobalRoute, TileId};
use mebl_netlist::{circuit_from_str, circuit_to_string, Circuit};
use mebl_route::{Degradation, DegradationKind, RouterConfig, RoutingOutcome, Stage};
use mebl_stitch::StitchConfig;
use std::fmt::Write as _;

/// A routing outcome bundled with the circuit it describes and the
/// configuration mode it was produced under.
#[derive(Debug, Clone)]
pub struct SavedOutcome {
    /// The routed circuit.
    pub circuit: Circuit,
    /// The outcome (tracks empty, timings zero after a round-trip).
    pub outcome: RoutingOutcome,
    /// `true` when the outcome came from the conventional baseline
    /// configuration rather than the stitch-aware one.
    pub baseline: bool,
}

impl SavedOutcome {
    /// The router configuration a delta run over this outcome should
    /// start from: the saved mode's preset over the saved stitch
    /// geometry, so a saved period override round-trips.
    pub fn config(&self) -> RouterConfig {
        RouterConfig::preset(self.baseline, self.stitch_config())
    }

    fn stitch_config(&self) -> StitchConfig {
        self.outcome.plan.config()
    }
}

/// Error produced when parsing a saved outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOutcomeError {
    /// 1-based line number of the offending line (0 = structural).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseOutcomeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseOutcomeError {}

fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Generate => "generate",
        Stage::Validate => "validate",
        Stage::Global => "global",
        Stage::Assign => "assign",
        Stage::Detailed => "detailed",
        Stage::Check => "check",
    }
}

fn stage_from(name: &str) -> Option<Stage> {
    Some(match name {
        "generate" => Stage::Generate,
        "validate" => Stage::Validate,
        "global" => Stage::Global,
        "assign" => Stage::Assign,
        "detailed" => Stage::Detailed,
        "check" => Stage::Check,
        _ => return None,
    })
}

fn kind_name(kind: DegradationKind) -> &'static str {
    match kind {
        DegradationKind::BudgetExhausted => "budget-exhausted",
        DegradationKind::InternalFallback => "internal-fallback",
        DegradationKind::ValidationWarning => "validation-warning",
        DegradationKind::SearchExhausted => "search-exhausted",
    }
}

fn kind_from(name: &str) -> Option<DegradationKind> {
    Some(match name {
        "budget-exhausted" => DegradationKind::BudgetExhausted,
        "internal-fallback" => DegradationKind::InternalFallback,
        "validation-warning" => DegradationKind::ValidationWarning,
        "search-exhausted" => DegradationKind::SearchExhausted,
        _ => return None,
    })
}

/// Serialises `saved` to the canonical text format.
pub fn outcome_to_string(saved: &SavedOutcome) -> String {
    let mut out = String::new();
    let mode = if saved.baseline { "baseline" } else { "stitch" };
    let _ = writeln!(out, "meblout 1 {mode}");
    let s = saved.stitch_config();
    let _ = writeln!(out, "stitch {} {} {}", s.period, s.epsilon, s.escape_width);
    out.push_str("circuit-begin\n");
    out.push_str(&circuit_to_string(&saved.circuit));
    out.push_str("circuit-end\n");
    let detailed = &saved.outcome.detailed;
    for i in 0..saved.circuit.net_count() {
        let flag = if detailed.routed[i] { "routed" } else { "unrouted" };
        let _ = writeln!(out, "net {i} {flag}");
        let route = &saved.outcome.global.routes[i];
        if !route.tiles.is_empty() {
            let _ = write!(out, "gtiles {i}");
            for t in &route.tiles {
                let _ = write!(out, " {}", t.0);
            }
            out.push('\n');
        }
        if !route.edges.is_empty() {
            let _ = write!(out, "gedges {i}");
            for (a, b) in &route.edges {
                let _ = write!(out, " {} {}", a.0, b.0);
            }
            out.push('\n');
        }
        let geom = &detailed.geometry[i];
        for seg in geom.segments() {
            let _ = writeln!(
                out,
                "seg {i} {} {} {} {}",
                seg.layer.index(),
                seg.track,
                seg.span.lo(),
                seg.span.hi()
            );
        }
        for via in geom.vias() {
            let _ = writeln!(out, "via {i} {} {} {}", via.x, via.y, via.lower.index());
        }
    }
    for d in &saved.outcome.degradations {
        let net = d.net.map_or_else(|| "-".to_string(), |n| n.to_string());
        let detail = d.detail.replace('\n', " ");
        let _ = writeln!(
            out,
            "deg {} {} {} {}",
            stage_name(d.stage),
            kind_name(d.kind),
            net,
            detail
        );
    }
    out
}

/// Parses a saved outcome from the text format, recomputing all derived
/// state (graph, demands, metrics, report) from the stored routes.
///
/// # Errors
///
/// Returns [`ParseOutcomeError`] with the offending line number on any
/// syntax or consistency problem (unknown directive, out-of-range net
/// index, malformed numbers, truncated input).
pub fn outcome_from_str(text: &str) -> Result<SavedOutcome, ParseOutcomeError> {
    let err = |line: usize, message: String| ParseOutcomeError { line, message };

    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| err(0, "empty outcome file".to_string()))?;
    let mut tok = header.split_whitespace();
    if tok.next() != Some("meblout") {
        return Err(err(1, "missing 'meblout' header".to_string()));
    }
    if tok.next() != Some("1") {
        return Err(err(1, "unsupported outcome format version".to_string()));
    }
    let baseline = match tok.next() {
        Some("stitch") => false,
        Some("baseline") => true,
        other => {
            return Err(err(
                1,
                format!("bad mode {:?} (want stitch|baseline)", other.unwrap_or("")),
            ))
        }
    };

    let mut stitch: Option<StitchConfig> = None;
    let mut in_circuit = false;
    let mut circuit_buf = String::new();
    // Per-net state, sized once the circuit is known.
    let mut routed: Vec<bool> = Vec::new();
    let mut routes: Vec<GlobalRoute> = Vec::new();
    let mut geometry: Vec<RouteGeometry> = Vec::new();
    let mut degradations: Vec<Degradation> = Vec::new();
    let mut circuit: Option<Circuit> = None;

    for (idx, raw) in lines {
        let lineno = idx + 1;
        if in_circuit {
            if raw.trim() == "circuit-end" {
                in_circuit = false;
                let parsed = circuit_from_str(&circuit_buf)
                    .map_err(|e| err(lineno, format!("embedded circuit: {e}")))?;
                let n = parsed.net_count();
                routed = vec![false; n];
                routes = vec![GlobalRoute::default(); n];
                geometry = vec![RouteGeometry::default(); n];
                circuit = Some(parsed);
            } else {
                circuit_buf.push_str(raw);
                circuit_buf.push('\n');
            }
            continue;
        }
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let directive = tok.next();
        // Every per-net directive starts with the net index; parse it
        // once the circuit defines the valid range.
        let net_index = |tok: &mut std::str::SplitWhitespace<'_>,
                             n: usize|
         -> Result<usize, ParseOutcomeError> {
            let i: usize = tok
                .next()
                .ok_or_else(|| err(lineno, "missing net index".to_string()))?
                .parse()
                .map_err(|_| err(lineno, "bad net index".to_string()))?;
            if i >= n {
                return Err(err(lineno, format!("net index {i} out of range (n={n})")));
            }
            Ok(i)
        };
        let num = |tok: &mut std::str::SplitWhitespace<'_>,
                   what: &str|
         -> Result<i64, ParseOutcomeError> {
            tok.next()
                .ok_or_else(|| err(lineno, format!("missing {what}")))?
                .parse()
                .map_err(|_| err(lineno, format!("bad {what}")))
        };
        match directive {
            Some("stitch") => {
                let period = num(&mut tok, "stitch period")? as i32;
                let epsilon = num(&mut tok, "stitch epsilon")? as i32;
                let escape_width = num(&mut tok, "stitch escape width")? as i32;
                if period <= 0 || epsilon < 0 || escape_width < epsilon {
                    return Err(err(lineno, "degenerate stitch geometry".to_string()));
                }
                stitch = Some(StitchConfig {
                    period,
                    epsilon,
                    escape_width,
                });
            }
            Some("parallelism") => {}
            Some("circuit-begin") => {
                if circuit.is_some() {
                    return Err(err(lineno, "duplicate embedded circuit".to_string()));
                }
                in_circuit = true;
            }
            Some("net") => {
                let c = circuit
                    .as_ref()
                    .ok_or_else(|| err(lineno, "net state before circuit".to_string()))?;
                let i = net_index(&mut tok, c.net_count())?;
                match tok.next() {
                    Some("routed") => routed[i] = true,
                    Some("unrouted") => routed[i] = false,
                    _ => return Err(err(lineno, "want routed|unrouted".to_string())),
                }
            }
            Some("gtiles") => {
                let c = circuit
                    .as_ref()
                    .ok_or_else(|| err(lineno, "global route before circuit".to_string()))?;
                let i = net_index(&mut tok, c.net_count())?;
                for t in tok {
                    let id: u32 = t
                        .parse()
                        .map_err(|_| err(lineno, "bad tile id".to_string()))?;
                    routes[i].tiles.push(TileId(id));
                }
            }
            Some("gedges") => {
                let c = circuit
                    .as_ref()
                    .ok_or_else(|| err(lineno, "global route before circuit".to_string()))?;
                let i = net_index(&mut tok, c.net_count())?;
                while let Some(a) = tok.next() {
                    let a: u32 = a
                        .parse()
                        .map_err(|_| err(lineno, "bad edge tile id".to_string()))?;
                    let b: u32 = tok
                        .next()
                        .ok_or_else(|| err(lineno, "dangling edge tile id".to_string()))?
                        .parse()
                        .map_err(|_| err(lineno, "bad edge tile id".to_string()))?;
                    routes[i].edges.push((TileId(a), TileId(b)));
                }
            }
            Some("seg") => {
                let c = circuit
                    .as_ref()
                    .ok_or_else(|| err(lineno, "segment before circuit".to_string()))?;
                let i = net_index(&mut tok, c.net_count())?;
                let layer = num(&mut tok, "segment layer")?;
                if layer < 0 || layer >= i64::from(c.layer_count()) {
                    return Err(err(lineno, "segment layer out of stack".to_string()));
                }
                let layer = Layer::new(layer as u8);
                let track = num(&mut tok, "segment track")? as i32;
                let lo = num(&mut tok, "segment lo")? as i32;
                let hi = num(&mut tok, "segment hi")? as i32;
                if lo > hi {
                    return Err(err(lineno, "segment span reversed".to_string()));
                }
                let seg = if layer.is_horizontal() {
                    Segment::horizontal(layer, track, lo, hi)
                } else {
                    Segment::vertical(layer, track, lo, hi)
                };
                geometry[i].push_segment(seg);
            }
            Some("via") => {
                let c = circuit
                    .as_ref()
                    .ok_or_else(|| err(lineno, "via before circuit".to_string()))?;
                let i = net_index(&mut tok, c.net_count())?;
                let x = num(&mut tok, "via x")? as i32;
                let y = num(&mut tok, "via y")? as i32;
                let lower = num(&mut tok, "via layer")?;
                if lower < 0 || lower + 1 >= i64::from(c.layer_count()) {
                    return Err(err(lineno, "via layer out of stack".to_string()));
                }
                geometry[i].push_via(Via::new(x, y, Layer::new(lower as u8)));
            }
            Some("deg") => {
                let stage = tok
                    .next()
                    .and_then(stage_from)
                    .ok_or_else(|| err(lineno, "bad degradation stage".to_string()))?;
                let kind = tok
                    .next()
                    .and_then(kind_from)
                    .ok_or_else(|| err(lineno, "bad degradation kind".to_string()))?;
                let net = match tok.next() {
                    Some("-") => None,
                    Some(n) => Some(
                        n.parse::<usize>()
                            .map_err(|_| err(lineno, "bad degradation net".to_string()))?,
                    ),
                    None => return Err(err(lineno, "truncated degradation".to_string())),
                };
                let detail: Vec<&str> = tok.collect();
                degradations.push(Degradation::new(stage, kind, net, detail.join(" ")));
            }
            Some(other) => {
                return Err(err(lineno, format!("unknown directive '{other}'")));
            }
            None => continue,
        }
    }
    if in_circuit {
        return Err(err(0, "unterminated embedded circuit".to_string()));
    }
    let circuit = circuit.ok_or_else(|| err(0, "missing embedded circuit".to_string()))?;
    let stitch = stitch.ok_or_else(|| err(0, "missing stitch line".to_string()))?;

    let config = RouterConfig::preset(baseline, stitch);
    let outcome =
        RoutingOutcome::rebuild(&circuit, &config, routes, geometry, routed, degradations);
    Ok(SavedOutcome {
        circuit,
        outcome,
        baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_route::Router;
    use mebl_netlist::{BenchmarkSpec, GenerateConfig};

    #[test]
    fn round_trip_is_canonical() {
        let circuit = BenchmarkSpec::by_name("S9234")
            .unwrap()
            .generate(&GenerateConfig::quick(11));
        let config = RouterConfig::stitch_aware();
        let outcome = Router::new(config).route(&circuit);
        let saved = SavedOutcome {
            circuit,
            outcome,
            baseline: false,
        };
        let text = outcome_to_string(&saved);
        let back = outcome_from_str(&text).unwrap();
        assert_eq!(back.circuit, saved.circuit);
        assert_eq!(back.outcome.detailed.routed, saved.outcome.detailed.routed);
        assert_eq!(
            back.outcome.detailed.geometry,
            saved.outcome.detailed.geometry
        );
        assert_eq!(back.outcome.global.routes, saved.outcome.global.routes);
        assert_eq!(
            back.outcome.global.metrics,
            saved.outcome.global.metrics
        );
        // Reports agree on everything but wall-clock.
        let mut a = back.outcome.report.clone();
        let mut b = saved.outcome.report.clone();
        a.elapsed = std::time::Duration::ZERO;
        b.elapsed = std::time::Duration::ZERO;
        assert_eq!(a, b);
        // And re-serialising the parsed outcome is byte-identical.
        assert_eq!(outcome_to_string(&back), text);
        // The reader skips the worker count an older writer recorded
        // after the `stitch` line, and the writer drops it.
        assert!(!text.contains("parallelism"));
        let stitch_end = text.find("\ncircuit-begin\n").unwrap() + 1;
        let mut old = text.clone();
        old.insert_str(stitch_end, "parallelism 4\n");
        let old_back = outcome_from_str(&old).unwrap();
        assert_eq!(old_back.circuit, back.circuit);
        assert_eq!(
            old_back.outcome.detailed.routed,
            back.outcome.detailed.routed
        );
        assert_eq!(
            old_back.outcome.detailed.geometry,
            back.outcome.detailed.geometry
        );
        assert_eq!(old_back.outcome.global.routes, back.outcome.global.routes);
        assert_eq!(old_back.outcome.degradations, back.outcome.degradations);
        assert_eq!(old_back.outcome.report, back.outcome.report);
        assert_eq!(outcome_to_string(&old_back), text);
    }

    #[test]
    fn truncated_and_malformed_inputs_are_typed_errors() {
        assert!(outcome_from_str("").is_err());
        assert!(outcome_from_str("meblout 2 stitch\n").is_err());
        assert!(outcome_from_str("meblout 1 sideways\n").is_err());
        let e = outcome_from_str("meblout 1 stitch\nstitch 15 1 4\ncircuit-begin\ncircuit t 0 0 9 9 3\n")
            .unwrap_err();
        assert!(e.message.contains("unterminated"));
        let e = outcome_from_str(
            "meblout 1 stitch\nstitch 15 1 4\ncircuit-begin\ncircuit t 0 0 9 9 3\nnet a 0,0,0 5,5,0\ncircuit-end\nnet 7 routed\n",
        )
        .unwrap_err();
        assert!(e.message.contains("out of range"));
        let e = outcome_from_str(
            "meblout 1 stitch\nstitch 15 1 4\ncircuit-begin\ncircuit t 0 0 9 9 3\nnet a 0,0,0 5,5,0\ncircuit-end\nwibble\n",
        )
        .unwrap_err();
        assert!(e.message.contains("unknown directive"));
    }
}
