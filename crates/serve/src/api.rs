//! The service's wire schema: job request parsing, canonical cache-key
//! derivation, and the response encoders shared by the daemon and the
//! CLI's `--json` output.
//!
//! One schema, two transports: `mebl serve` speaks it over HTTP and
//! `mebl route --json` / `mebl audit --json` print the identical
//! response object to stdout. The only difference is timing — the CLI
//! includes `elapsed_ms`, the server never does, because server bodies
//! are cached and must be byte-identical across cold and warm runs
//! (wall-clock fields would break that contract).

use crate::cache::{fnv1a, fnv1a_extend};
use crate::http::Response;
use crate::json::Json;
use mebl_audit::{AuditReport, FindingKind};
use mebl_netlist::{BenchmarkSpec, Circuit, GenerateConfig, GENERATOR_FINGERPRINT};
use mebl_route::{
    Degradation, DegradationKind, RouteError, RouteReport, RouterConfig, RoutingOutcome,
    RunBudget, StitchConfig,
};
use mebl_shard::ShardError;
use std::borrow::Cow;
use std::time::Duration;

/// Which routing preset a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The paper's full stitch-aware flow.
    StitchAware,
    /// The conventional baseline flow of Table III.
    Baseline,
}

impl Mode {
    /// Canonical wire name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::StitchAware => "stitch-aware",
            Mode::Baseline => "baseline",
        }
    }
}

/// A parsed `/route` or `/audit` job payload.
///
/// The circuit arrives either inline (`circuit`: full netlist text) or
/// as a generator reference (`bench` + `seed` + `scale`). Unknown keys
/// are rejected: the canonical cache key covers every field, so a
/// silently-ignored field would alias distinct requests onto one cache
/// entry.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Inline circuit text, when given.
    pub circuit: Option<String>,
    /// Benchmark name, when generating.
    pub bench: Option<String>,
    /// Generator seed (`bench` payloads only).
    pub seed: u64,
    /// Generator net scale (`bench` payloads only).
    pub scale: f64,
    /// Routing preset.
    pub mode: Mode,
    /// Stitch/tile period override.
    pub period: Option<i32>,
    /// Wall-clock budget in milliseconds.
    pub budget_ms: Option<u64>,
    /// Search-expansion cap.
    pub max_expansions: Option<u64>,
    /// Sharded panel routing: split the circuit at stitch boundaries
    /// and route the panels over a pool this wide. Whether a job is
    /// sharded changes its output (the sharded pipeline is its own
    /// deterministic algorithm), so the *flag* enters the cache key —
    /// but the shard *count* is output-invisible and stays out of it.
    pub shards: Option<usize>,
    /// Audit strictness (warnings fail the audit) — `/audit` only.
    pub strict: bool,
}

impl Default for JobRequest {
    fn default() -> Self {
        Self {
            circuit: None,
            bench: None,
            seed: GenerateConfig::default().seed,
            scale: 1.0,
            mode: Mode::StitchAware,
            period: None,
            budget_ms: None,
            max_expansions: None,
            shards: None,
            strict: false,
        }
    }
}

impl JobRequest {
    /// Parses a job payload from a decoded JSON document.
    pub fn from_json(value: &Json) -> Result<JobRequest, String> {
        let Json::Obj(pairs) = value else {
            return Err("payload must be a JSON object".into());
        };
        let mut req = JobRequest::default();
        for (key, v) in pairs {
            match key.as_str() {
                "circuit" => {
                    req.circuit =
                        Some(v.as_str().ok_or("`circuit` must be a string")?.to_string());
                }
                "bench" => {
                    req.bench = Some(v.as_str().ok_or("`bench` must be a string")?.to_string());
                }
                "seed" => req.seed = v.as_u64().ok_or("`seed` must be a non-negative integer")?,
                "scale" => {
                    let s = v.as_f64().ok_or("`scale` must be a number")?;
                    if !(s.is_finite() && s > 0.0 && s <= 1.0) {
                        return Err("`scale` must be in (0, 1]".into());
                    }
                    req.scale = s;
                }
                "mode" => {
                    req.mode = match v.as_str() {
                        Some("stitch-aware") => Mode::StitchAware,
                        Some("baseline") => Mode::Baseline,
                        _ => return Err("`mode` must be \"stitch-aware\" or \"baseline\"".into()),
                    };
                }
                "period" => {
                    let p = v.as_i64().ok_or("`period` must be an integer")?;
                    if p <= 1 || p > i64::from(i32::MAX) {
                        return Err("`period` must be > 1".into());
                    }
                    req.period = Some(p as i32);
                }
                "budget_ms" => {
                    req.budget_ms =
                        Some(v.as_u64().ok_or("`budget_ms` must be a non-negative integer")?);
                }
                "max_expansions" => {
                    req.max_expansions = Some(
                        v.as_u64()
                            .ok_or("`max_expansions` must be a non-negative integer")?,
                    );
                }
                "shards" => {
                    let s = v.as_u64().ok_or("`shards` must be a positive integer")?;
                    if s == 0 || s > 256 {
                        return Err("`shards` must be in 1..=256".into());
                    }
                    req.shards = Some(s as usize);
                }
                "strict" => req.strict = v.as_bool().ok_or("`strict` must be a boolean")?,
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        match (&req.circuit, &req.bench) {
            (None, None) => Err("payload needs `circuit` text or a `bench` name".into()),
            (Some(_), Some(_)) => Err("give `circuit` or `bench`, not both".into()),
            _ => Ok(req),
        }
    }

    /// The circuit name response bodies carry: the benchmark name as
    /// given, or `inline`.
    pub fn circuit_name(&self) -> &str {
        self.bench.as_deref().unwrap_or("inline")
    }

    /// The benchmark a `bench` request names.
    fn spec(&self) -> Result<BenchmarkSpec, (&'static str, String)> {
        let name = self.bench.as_deref().unwrap_or_default();
        BenchmarkSpec::by_name(name)
            .ok_or_else(|| ("unknown-bench", format!("unknown benchmark `{name}`")))
    }

    /// What the cache key hashes for the circuit, without building it:
    /// the inline text itself, or for a benchmark request its recipe,
    /// `bench=<name>;seed=<seed>;scale=<f64 bits>;generator=<fingerprint>`.
    /// [`GENERATOR_FINGERPRINT`] stands in for the generated text, so a
    /// generator change re-keys every benchmark request.
    ///
    /// `Err` is the same `unknown-bench` error [`JobRequest::build_circuit`]
    /// gives, so an unknown name fails before any cache lookup.
    pub fn circuit_source(&self) -> Result<Cow<'_, str>, (&'static str, String)> {
        if let Some(text) = &self.circuit {
            return Ok(Cow::Borrowed(text));
        }
        self.spec()?;
        Ok(Cow::Owned(format!(
            "bench={};seed={};scale={:016x};generator={GENERATOR_FINGERPRINT:016x}",
            self.circuit_name(),
            self.seed,
            self.scale.to_bits(),
        )))
    }

    /// Materializes the circuit this request describes: parses the
    /// inline text, or generates the benchmark.
    ///
    /// `Err` carries `(kind, detail)` where kind is the typed error
    /// class (`unknown-bench` maps to 400, `invalid-circuit` to 422 —
    /// the caller decides the status).
    pub fn build_circuit(&self) -> Result<Circuit, (&'static str, String)> {
        if let Some(text) = &self.circuit {
            return mebl_netlist::circuit_from_str(text)
                .map_err(|e| ("invalid-circuit", e.to_string()));
        }
        Ok(self.spec()?.generate(&GenerateConfig {
            seed: self.seed,
            net_scale: self.scale,
            ..GenerateConfig::default()
        }))
    }

    /// [`JobRequest::build_circuit`] together with the circuit's text:
    /// the inline text, or the generated circuit serialized.
    pub fn resolve_circuit(&self) -> Result<(String, Circuit), (&'static str, String)> {
        let circuit = self.build_circuit()?;
        let text = match &self.circuit {
            Some(text) => text.clone(),
            None => mebl_netlist::circuit_to_string(&circuit),
        };
        Ok((text, circuit))
    }

    /// The run budget this request asks for, falling back to the
    /// server-wide default when the request sets no bound of its own.
    pub fn budget(&self, default_budget: RunBudget) -> RunBudget {
        if self.budget_ms.is_none() && self.max_expansions.is_none() {
            return default_budget;
        }
        RunBudget {
            time: self.budget_ms.map(Duration::from_millis),
            max_expansions: self.max_expansions,
        }
    }

    /// Builds the router configuration for this job.
    pub fn router_config(&self, default_budget: RunBudget) -> RouterConfig {
        let mut stitch = StitchConfig::default();
        if let Some(p) = self.period {
            stitch.period = p;
        }
        RouterConfig::preset(self.mode == Mode::Baseline, stitch)
            .with_budget(self.budget(default_budget))
    }

    /// The sharded-run options for this job, when `shards` is set.
    pub fn shard_options(&self, default_budget: RunBudget) -> Option<mebl_shard::ShardOptions> {
        self.shards.map(|shards| mebl_shard::ShardOptions {
            baseline: self.mode == Mode::Baseline,
            period: self.period,
            shards,
            budget: self.budget(default_budget),
        })
    }

    /// The canonical cache key: FNV-1a over the circuit source (see
    /// [`JobRequest::circuit_source`]) chained with a canonical rendering
    /// of the endpoint, the circuit name and every result-affecting field.
    ///
    /// The circuit name enters because bodies carry it: without it an
    /// inline text equal to some benchmark recipe would alias that
    /// benchmark's entry. The shard count is left out, since sharded
    /// output is byte-identical at every shard count, and the
    /// *resolved* budget is used so a request relying on the server
    /// default keys the same as one spelling that default out.
    pub fn cache_key(&self, endpoint: &str, source: &str, default_budget: RunBudget) -> u64 {
        let budget = self.budget(default_budget);
        let canonical = format!(
            "endpoint={endpoint};circuit={};mode={};period={:?};time_ms={:?};exp={:?};strict={};sharded={}",
            self.circuit_name(),
            self.mode.name(),
            self.period,
            budget.time.map(|d| d.as_millis()),
            budget.max_expansions,
            self.strict,
            self.shards.is_some(),
        );
        fnv1a_extend(fnv1a(source.bytes()), canonical.bytes())
    }
}

/// Typed failure of one job execution: the router's own error
/// taxonomy, a panel job inside a sharded run failing with one, or a
/// delta job's edit list that does not apply.
#[derive(Debug)]
pub enum JobError {
    /// The run could produce no result at all.
    Route(RouteError),
    /// A panel job of a sharded run failed.
    Panel {
        /// The panel's stable key.
        key: String,
        /// The underlying error, rendered.
        detail: String,
    },
    /// A delta job's edit list does not apply.
    Edits(String),
}

impl From<RouteError> for JobError {
    fn from(e: RouteError) -> Self {
        JobError::Route(e)
    }
}

impl From<ShardError> for JobError {
    fn from(e: ShardError) -> Self {
        match e {
            ShardError::InvalidConfig(d) => JobError::Route(RouteError::InvalidConfig(d)),
            ShardError::InvalidCircuit(issues) => JobError::Route(RouteError::InvalidCircuit(issues)),
            ShardError::BudgetExhausted => JobError::Route(RouteError::BudgetExhausted),
            ShardError::Panel { key, detail } => JobError::Panel { key, detail },
        }
    }
}

impl JobError {
    /// The typed error response this failure answers with. The daemon
    /// and the coordinator both answer through here, so a sharded
    /// pre-flight failure has the same status and body from either.
    pub fn response(&self) -> Response {
        let (status, kind, detail) = match self {
            JobError::Route(RouteError::InvalidConfig(detail)) => {
                (400, "invalid-config", detail.clone())
            }
            JobError::Route(e @ RouteError::InvalidCircuit(_)) => {
                (422, "invalid-circuit", e.to_string())
            }
            JobError::Route(RouteError::BudgetExhausted) => {
                (504, "budget-exhausted", "budget spent before routing".to_string())
            }
            JobError::Panel { key, detail } => {
                (500, "panel-failed", format!("panel {key}: {detail}"))
            }
            JobError::Edits(detail) => (422, "invalid-edits", detail.clone()),
        };
        Response::json(status, error_json(kind, &detail).encode())
    }
}

/// The typed answer for a circuit that cannot be named or built
/// ([`JobRequest::circuit_source`], [`JobRequest::build_circuit`]):
/// `422` for unparseable text, `400` for an unknown benchmark.
pub fn circuit_error_response((kind, detail): (&str, String)) -> Response {
    let status = if kind == "invalid-circuit" { 422 } else { 400 };
    Response::json(status, error_json(kind, &detail).encode())
}

/// Encodes a [`RouteReport`] (timing included only when asked — server
/// bodies must stay wall-clock-free).
pub fn report_to_json(report: &RouteReport, include_timing: bool) -> Json {
    let mut pairs = vec![
        ("total_nets", Json::Int(report.total_nets as i64)),
        ("routed_nets", Json::Int(report.routed_nets as i64)),
        ("routability", Json::Float(report.routability())),
        ("via_violations", Json::Int(report.via_violations as i64)),
        (
            "via_violations_off_pin",
            Json::Int(report.via_violations_off_pin as i64),
        ),
        (
            "vertical_violations",
            Json::Int(report.vertical_violations as i64),
        ),
        ("short_polygons", Json::Int(report.short_polygons as i64)),
        ("wirelength", Json::Int(report.wirelength as i64)),
        ("vias", Json::Int(report.vias as i64)),
    ];
    if include_timing {
        pairs.push((
            "elapsed_ms",
            Json::Float(report.elapsed.as_secs_f64() * 1e3),
        ));
    }
    Json::obj(pairs)
}

/// Stable wire identifier of a degradation kind.
///
/// Byte-identical to the `Display` impl in `mebl-control` — the wire
/// format is frozen — but spelled as an exhaustive match so adding a
/// variant forces this encoder (and the wire docs) to be revisited.
fn degradation_kind_code(kind: DegradationKind) -> &'static str {
    match kind {
        DegradationKind::BudgetExhausted => "budget-exhausted",
        DegradationKind::InternalFallback => "internal-fallback",
        DegradationKind::ValidationWarning => "validation-warning",
        DegradationKind::SearchExhausted => "search-exhausted",
    }
}

/// Stable kebab-case wire code of an audit finding kind (the `code`
/// field of `/audit` findings; the `kind` field keeps the historical
/// PascalCase spelling).
fn finding_kind_code(kind: FindingKind) -> &'static str {
    match kind {
        FindingKind::PinNotCovered => "pin-not-covered",
        FindingKind::DisconnectedNet => "disconnected-net",
        FindingKind::SegmentOutsideOutline => "segment-outside-outline",
        FindingKind::SegmentLayerOutOfStack => "segment-layer-out-of-stack",
        FindingKind::DegenerateSegment => "degenerate-segment",
        FindingKind::ViaOutsideOutline => "via-outside-outline",
        FindingKind::ViaLayerOutOfStack => "via-layer-out-of-stack",
        FindingKind::GeometryOnBlockage => "geometry-on-blockage",
        FindingKind::OffPinViaOnLine => "off-pin-via-on-line",
        FindingKind::VerticalRideOnLine => "vertical-ride-on-line",
        FindingKind::ViaViolationMismatch => "via-violation-mismatch",
        FindingKind::OffPinViaMismatch => "off-pin-via-mismatch",
        FindingKind::VerticalRideMismatch => "vertical-ride-mismatch",
        FindingKind::ShortPolygonMismatch => "short-polygon-mismatch",
        FindingKind::WirelengthMismatch => "wirelength-mismatch",
        FindingKind::ViaCountMismatch => "via-count-mismatch",
        FindingKind::ReportFieldMismatch => "report-field-mismatch",
        FindingKind::RoutedFlagMismatch => "routed-flag-mismatch",
        FindingKind::CapacityModelMismatch => "capacity-model-mismatch",
        FindingKind::GlobalMetricsMismatch => "global-metrics-mismatch",
        FindingKind::EdgeOverflow => "edge-overflow",
        FindingKind::VertexOverflow => "vertex-overflow",
    }
}

fn degradations_to_json(degradations: &[Degradation]) -> Json {
    Json::Arr(
        degradations
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("stage", Json::Str(d.stage.to_string())),
                    ("kind", Json::Str(degradation_kind_code(d.kind).to_string())),
                    (
                        "net",
                        d.net.map_or(Json::Null, |n| Json::Int(n as i64)),
                    ),
                    ("detail", Json::Str(d.detail.clone())),
                ])
            })
            .collect(),
    )
}

/// The `/route/outcome` success body: the routed outcome in the
/// canonical `meblout` text format (wall-clock-free, embeds the
/// circuit, round-trips byte-identically through
/// `mebl_delta::outcome_from_str`). This is the wire vehicle the
/// coordinator uses to collect panel fragments from workers.
pub fn outcome_response_json(
    circuit_name: &str,
    mode: Mode,
    circuit: &Circuit,
    outcome: &RoutingOutcome,
) -> Json {
    let saved = mebl_delta::SavedOutcome {
        circuit: circuit.clone(),
        outcome: outcome.clone(),
        baseline: mode == Mode::Baseline,
    };
    Json::obj(vec![
        (
            "status",
            Json::Str(
                if outcome.is_degraded() {
                    "degraded"
                } else {
                    "ok"
                }
                .to_string(),
            ),
        ),
        ("circuit", Json::Str(circuit_name.to_string())),
        ("mode", Json::Str(mode.name().to_string())),
        (
            "outcome",
            Json::Str(mebl_delta::outcome_to_string(&saved)),
        ),
    ])
}

/// The `/route` success body (also `mebl route --json`).
pub fn route_response_json(
    circuit_name: &str,
    mode: Mode,
    outcome: &RoutingOutcome,
    include_timing: bool,
) -> Json {
    Json::obj(vec![
        (
            "status",
            Json::Str(
                if outcome.is_degraded() {
                    "degraded"
                } else {
                    "ok"
                }
                .to_string(),
            ),
        ),
        ("circuit", Json::Str(circuit_name.to_string())),
        ("mode", Json::Str(mode.name().to_string())),
        ("report", report_to_json(&outcome.report, include_timing)),
        ("degradations", degradations_to_json(&outcome.degradations)),
    ])
}

/// The `/audit` success body (also `mebl audit --json`).
pub fn audit_response_json(
    circuit_name: &str,
    mode: Mode,
    outcome: &RoutingOutcome,
    audit: &AuditReport,
    strict: bool,
    include_timing: bool,
) -> Json {
    let errors = audit.error_count();
    let warnings = audit.warning_count();
    let failed = errors > 0 || (strict && warnings > 0);
    let findings: Vec<Json> = audit
        .findings
        .iter()
        .map(|f| {
            Json::obj(vec![
                (
                    "severity",
                    Json::Str(format!("{:?}", f.severity()).to_ascii_lowercase()),
                ),
                ("kind", Json::Str(format!("{:?}", f.kind))),
                ("code", Json::Str(finding_kind_code(f.kind).to_string())),
                ("net", f.net.map_or(Json::Null, |n| Json::Int(i64::from(n.0)))),
                ("detail", Json::Str(f.to_string())),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "status",
            Json::Str(
                if failed {
                    "failed"
                } else if outcome.is_degraded() {
                    "degraded"
                } else {
                    "ok"
                }
                .to_string(),
            ),
        ),
        ("circuit", Json::Str(circuit_name.to_string())),
        ("mode", Json::Str(mode.name().to_string())),
        ("strict", Json::Bool(strict)),
        ("errors", Json::Int(errors as i64)),
        ("warnings", Json::Int(warnings as i64)),
        ("nets_audited", Json::Int(audit.nets_audited as i64)),
        ("report", report_to_json(&outcome.report, include_timing)),
        ("findings", Json::Arr(findings)),
        ("degradations", degradations_to_json(&outcome.degradations)),
    ])
}

/// A typed error body: `{"error":{"kind":...,"detail":...}}`.
pub fn error_json(kind: &str, detail: &str) -> Json {
    Json::obj(vec![(
        "error",
        Json::obj(vec![
            ("kind", Json::Str(kind.to_string())),
            ("detail", Json::Str(detail.to_string())),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn req(text: &str) -> Result<JobRequest, String> {
        JobRequest::from_json(&parse(text).unwrap())
    }

    #[test]
    fn parses_bench_payload_with_defaults() {
        let r = req(r#"{"bench":"S5378","seed":3}"#).unwrap();
        assert_eq!(r.bench.as_deref(), Some("S5378"));
        assert_eq!(r.seed, 3);
        assert_eq!(r.mode, Mode::StitchAware);
        assert!(r.circuit.is_none());
    }

    #[test]
    fn rejects_bad_payloads() {
        assert!(req(r#"{}"#).is_err());
        assert!(req(r#"{"bench":"S5378","circuit":"x"}"#).is_err());
        assert!(req(r#"{"bench":"S5378","mystery":1}"#).is_err());
        assert!(req(r#"{"bench":"S5378","mode":"quantum"}"#).is_err());
        assert!(req(r#"{"bench":"S5378","scale":0}"#).is_err());
        assert!(req(r#"{"bench":"S5378","period":1}"#).is_err());
        assert_eq!(
            req(r#"{"bench":"S5378","threads":2}"#).unwrap_err(),
            "unknown field `threads`"
        );
        assert!(req(r#"[1,2,3]"#).is_err());
    }

    #[test]
    fn unknown_bench_is_typed() {
        let r = req(r#"{"bench":"NOPE"}"#).unwrap();
        let err = r.resolve_circuit().unwrap_err();
        assert_eq!(err.0, "unknown-bench");
    }

    #[test]
    fn inline_circuit_must_parse() {
        let r = req(r#"{"circuit":"complete garbage"}"#).unwrap();
        assert_eq!(r.resolve_circuit().unwrap_err().0, "invalid-circuit");
    }

    #[test]
    fn circuit_source_is_the_recipe_or_the_inline_text() {
        let bench = req(r#"{"bench":"S5378","seed":1,"scale":0.5}"#).unwrap();
        assert_eq!(
            bench.circuit_source().unwrap(),
            format!(
                "bench=S5378;seed=1;scale={:016x};generator={GENERATOR_FINGERPRINT:016x}",
                0.5f64.to_bits()
            )
        );
        let inline = req(r#"{"circuit":"circuit c 0 0 9 9 3\n"}"#).unwrap();
        assert_eq!(inline.circuit_source().unwrap(), "circuit c 0 0 9 9 3\n");
        // An unknown name fails before any key exists.
        let unknown = req(r#"{"bench":"NOPE"}"#).unwrap();
        assert_eq!(unknown.circuit_source().unwrap_err().0, "unknown-bench");
    }

    #[test]
    fn requests_with_different_bodies_never_share_a_key() {
        let unlimited = RunBudget::unlimited();
        let key = |r: &JobRequest| r.cache_key("route", &r.circuit_source().unwrap(), unlimited);
        let bench = req(r#"{"bench":"S5378","seed":1,"scale":0.035}"#).unwrap();
        // The generated text sent inline answers `"circuit":"inline"`.
        let (text, _) = bench.resolve_circuit().unwrap();
        let inline = JobRequest {
            circuit: Some(text),
            bench: None,
            ..bench.clone()
        };
        assert_ne!(key(&bench), key(&inline));
        // So does an inline text that spells the recipe.
        let spoof = JobRequest {
            circuit: Some(bench.circuit_source().unwrap().into_owned()),
            bench: None,
            ..bench.clone()
        };
        assert_ne!(key(&bench), key(&spoof));
        // A name in another case generates the same circuit but echoes
        // the name as given.
        let lower = JobRequest {
            bench: Some("s5378".to_string()),
            ..bench.clone()
        };
        assert_ne!(key(&bench), key(&lower));
    }

    #[test]
    fn cache_key_covers_config_endpoint_and_source() {
        let a = req(r#"{"bench":"S5378"}"#).unwrap();
        let c = req(r#"{"bench":"S5378","period":40}"#).unwrap();
        let unlimited = RunBudget::unlimited();
        assert_ne!(
            a.cache_key("route", "text", unlimited),
            c.cache_key("route", "text", unlimited)
        );
        assert_ne!(
            a.cache_key("route", "text", unlimited),
            a.cache_key("audit", "text", unlimited)
        );
        assert_ne!(
            a.cache_key("route", "text", unlimited),
            a.cache_key("route", "other", unlimited)
        );
        // Spelling out the server default keys identically to omitting it.
        let spelled = req(r#"{"bench":"S5378","budget_ms":250}"#).unwrap();
        let default = RunBudget::with_time(Duration::from_millis(250));
        assert_eq!(
            a.cache_key("route", "text", default),
            spelled.cache_key("route", "text", default)
        );
    }

    #[test]
    fn router_config_mirrors_request() {
        let r =
            req(r#"{"bench":"S5378","mode":"baseline","period":44,"max_expansions":9}"#).unwrap();
        let config = r.router_config(RunBudget::unlimited());
        assert_eq!(config.stitch.period, 44);
        assert_eq!(config.global.tile_size, 44);
        assert_eq!(config.budget.max_expansions, Some(9));
    }

    #[test]
    fn error_body_shape() {
        let e = error_json("backpressure", "queue full");
        assert_eq!(
            e.encode(),
            r#"{"error":{"kind":"backpressure","detail":"queue full"}}"#
        );
    }
}
