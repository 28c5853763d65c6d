//! Reproducibility: the whole stack is seeded and deterministic — the
//! same inputs must give byte-identical outputs across runs.

use mebl_assign::{assign_tracks, extract_panels, random_instances};
use mebl_delta::{apply_edits, outcome_to_string, route_delta, CircuitEdit, SavedOutcome};
use mebl_detailed::route_detailed;
use mebl_global::route_circuit;
use mebl_netlist::{
    circuit_to_string, full_suite, BenchmarkSpec, Circuit, CircuitIssue, GenerateConfig,
    GENERATOR_FINGERPRINT,
};
use mebl_route::{CancelToken, Router, RouterConfig, RoutingOutcome};
use mebl_stitch::StitchPlan;
use mebl_testkit::{Rng, SplitMix64};

/// FNV-1a over a byte stream, for golden-value fingerprints.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn generator_is_deterministic_across_suite() {
    for spec in mebl_netlist::full_suite() {
        let cfg = GenerateConfig::quick(99);
        assert_eq!(spec.generate(&cfg), spec.generate(&cfg), "{}", spec.name);
    }
}

#[test]
fn full_flow_is_deterministic() {
    let circuit = BenchmarkSpec::by_name("S9234")
        .unwrap()
        .generate(&GenerateConfig::quick(11));
    let router = Router::new(RouterConfig::stitch_aware());
    let a = router.route(&circuit);
    let b = router.route(&circuit);
    assert_eq!(a.detailed.geometry, b.detailed.geometry);
    assert_eq!(a.report.short_polygons, b.report.short_polygons);
    assert_eq!(a.report.wirelength, b.report.wirelength);
    assert_eq!(a.tracks.segments, b.tracks.segments);
}

#[test]
fn baseline_flow_is_deterministic() {
    let circuit = BenchmarkSpec::by_name("S5378")
        .unwrap()
        .generate(&GenerateConfig::quick(12));
    let router = Router::new(RouterConfig::baseline());
    let a = router.route(&circuit);
    let b = router.route(&circuit);
    assert_eq!(a.detailed.geometry, b.detailed.geometry);
}

#[test]
fn different_seeds_differ() {
    let spec = BenchmarkSpec::by_name("S5378").unwrap();
    let a = spec.generate(&GenerateConfig::quick(1));
    let b = spec.generate(&GenerateConfig::quick(2));
    assert_ne!(a, b);
}

#[test]
fn random_instances_deterministic_and_seed_sensitive() {
    let a = random_instances(10, 25, 30, 2013);
    let b = random_instances(10, 25, 30, 2013);
    assert_eq!(a, b, "same seed must reproduce the instance set");
    let c = random_instances(10, 25, 30, 2014);
    assert_ne!(a, c, "distinct seeds must differ");
}

/// Golden fingerprints of the seeded generators. Same-seed-twice tests
/// cannot catch a silent change to the PRNG or to generator consumption
/// order (both runs drift together); these pinned hashes do. If a change
/// to the random stream is *intentional*, update the constants and record
/// the break in CHANGES.md — old seeds will no longer reproduce old
/// layouts.
#[test]
fn generator_streams_are_pinned() {
    let circuit = BenchmarkSpec::by_name("S5378")
        .unwrap()
        .generate(&GenerateConfig::quick(2013));
    let pin_hash = fnv1a(circuit.nets().iter().flat_map(|n| {
        n.pins()
            .iter()
            .flat_map(|p| p.position.x.to_le_bytes().into_iter().chain(p.position.y.to_le_bytes()))
    }));
    assert_eq!(
        pin_hash, 0x3ff7_5f70_10eb_9b39,
        "netlist generator stream drifted (pin hash {pin_hash:#x})"
    );

    // The whole suite's text pins the generator as the service's cache
    // keys see it: benchmark requests are keyed by recipe, with this
    // fingerprint standing in for the circuit they generate.
    let suite_hash = fnv1a(mebl_netlist::full_suite().iter().flat_map(|spec| {
        circuit_to_string(&spec.generate(&GenerateConfig::quick(2013))).into_bytes()
    }));
    assert_eq!(
        suite_hash, GENERATOR_FINGERPRINT,
        "generator output drifted (suite hash {suite_hash:#x}); updating \
         GENERATOR_FINGERPRINT re-keys every benchmark request"
    );

    let instances = random_instances(3, 8, 30, 2013);
    let iv_hash = fnv1a(
        instances
            .iter()
            .flatten()
            .flat_map(|iv| iv.lo.to_le_bytes().into_iter().chain(iv.hi.to_le_bytes())),
    );
    assert_eq!(
        iv_hash, 0xfe14_bc63_98df_e19b,
        "instance generator stream drifted (interval hash {iv_hash:#x})"
    );
}

/// FNV-1a over an outcome's canonical saved text: the circuit, every
/// net's routed flag, global route and detailed geometry, and the
/// degradation records.
fn outcome_hash(circuit: &Circuit, outcome: &RoutingOutcome, baseline: bool) -> u64 {
    let saved = SavedOutcome {
        circuit: circuit.clone(),
        outcome: outcome.clone(),
        baseline,
    };
    fnv1a(outcome_to_string(&saved).into_bytes())
}

/// `spec` scaled to about `nets` nets at generator seed 2013.
fn scaled(spec: &BenchmarkSpec, nets: f64) -> Circuit {
    spec.generate(&GenerateConfig {
        net_scale: nets / spec.nets as f64,
        ..GenerateConfig::default()
    })
}

/// Routed-output goldens: `(design, stitch-aware hash, baseline hash)`
/// of every suite design at about 60 nets. Same-build-twice tests cannot
/// see a refactor that changes what the router draws; these pinned
/// hashes do. A change that is meant to alter routed output regenerates
/// them (the failure message prints the new table) and says so in
/// CHANGES.md.
const SUITE_ROUTE_GOLDENS: [(&str, u64, u64); 14] = [
    ("Struct", 0x1218845ea38d8dc7, 0xf59f9113fb3b9d15),
    ("Primary1", 0x2890c272b763ecd3, 0xe43a697423e202d0),
    ("Primary2", 0xc554d50e06703868, 0xdfe0d18476583214),
    ("S5378", 0xbc9adb11a5d250d8, 0xb40cfa04dac219d1),
    ("S9234", 0x173e8f95b7ee8938, 0xa487715e977e21f4),
    ("S13207", 0x638198483521ad04, 0x67d69f1a103d1fc4),
    ("S15850", 0x65ed0086aee3b727, 0x75df1fea13f6ac28),
    ("S38417", 0xd3b0440b8652265b, 0x1f717d799ef9203e),
    ("S38584", 0x825a9a462ae729af, 0xcf0282eb638aad42),
    ("DMA", 0x8cbb7c18c5ab2814, 0x0d9cd98796bee0a7),
    ("DSP1", 0x7f419a8372cab364, 0xbfaf8501cc8658b9),
    ("DSP2", 0x564323a24bbe27aa, 0xa3bc1c06749e688d),
    ("RISC1", 0x8dcfa28bcd392a56, 0x576fb3c841553f52),
    ("RISC2", 0xdd897471283f6bde, 0x7726d97b57bbcec3),
];

#[test]
fn suite_routes_are_pinned() {
    let actual: Vec<(&str, u64, u64)> = full_suite()
        .iter()
        .map(|spec| {
            let circuit = scaled(spec, 60.0);
            let hash = |baseline: bool| {
                let config = if baseline {
                    RouterConfig::baseline()
                } else {
                    RouterConfig::stitch_aware()
                };
                outcome_hash(&circuit, &Router::new(config).route(&circuit), baseline)
            };
            (spec.name, hash(false), hash(true))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, aware, base)| format!("    (\"{name}\", {aware:#018x}, {base:#018x}),\n"))
        .collect();
    assert!(
        actual == SUITE_ROUTE_GOLDENS,
        "routed output drifted; the current table is:\n{table}"
    );
}

/// Search-work goldens: `(design, stitch-aware global, stitch-aware
/// detailed, baseline global, baseline detailed)` expansions of the
/// circuits `SUITE_ROUTE_GOLDENS` routes. Expansions are a pure function
/// of the input and the config, so this table gates search work on any
/// host: a search that expands more tiles or cells for the same output
/// fails here. A change that is meant to alter a search regenerates it
/// (the failure message prints the new table) and says so in CHANGES.md.
const SUITE_STAGE_EXPANSIONS: [(&str, u64, u64, u64, u64); 14] = [
    ("Struct", 59, 10990, 59, 6645),
    ("Primary1", 51, 11740, 52, 8646),
    ("Primary2", 41, 8446, 41, 5488),
    ("S5378", 34, 8063, 34, 30233),
    ("S9234", 40, 9604, 40, 8028),
    ("S13207", 46, 10360, 46, 10642),
    ("S15850", 36, 8215, 36, 6515),
    ("S38417", 46, 12654, 46, 8750),
    ("S38584", 30, 6388, 30, 4927),
    ("DMA", 94, 60998, 95, 54160),
    ("DSP1", 88, 35008, 88, 24583),
    ("DSP2", 66, 28432, 64, 12642),
    ("RISC1", 73, 174023, 73, 22616),
    ("RISC2", 58, 26045, 59, 13096),
];

/// `(global, detailed)` search expansions of one route of `circuit` under
/// `config`: the stage calls `Router::route` makes, in its order and with
/// its configs, with an armed token of its own on each counted stage.
fn stage_expansions(circuit: &Circuit, config: &RouterConfig) -> (u64, u64) {
    let plan = StitchPlan::new(circuit.outline(), config.stitch);
    let global_counter = CancelToken::armed(None, None);
    let mut global_config = config.global.clone();
    global_config.cancel = global_counter.clone();
    let global = route_circuit(circuit, &plan, &global_config);
    let mut track_config = config.track.clone();
    track_config.cancel = CancelToken::armed(None, None);
    let tracks = assign_tracks(
        &extract_panels(&global),
        &global.graph,
        &plan,
        circuit.layer_count(),
        &track_config,
    );
    let detailed_counter = CancelToken::armed(None, None);
    let mut detailed_config = config.detailed.clone();
    detailed_config.cancel = detailed_counter.clone();
    route_detailed(circuit, &plan, &global.graph, &tracks, &detailed_config);
    (global_counter.expansions(), detailed_counter.expansions())
}

#[test]
fn suite_stage_expansions_are_pinned() {
    let actual: Vec<(&str, u64, u64, u64, u64)> = full_suite()
        .iter()
        .map(|spec| {
            let circuit = scaled(spec, 60.0);
            let (aware_global, aware_detailed) =
                stage_expansions(&circuit, &RouterConfig::stitch_aware());
            let (base_global, base_detailed) =
                stage_expansions(&circuit, &RouterConfig::baseline());
            (
                spec.name,
                aware_global,
                aware_detailed,
                base_global,
                base_detailed,
            )
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, ag, ad, bg, bd)| format!("    (\"{name}\", {ag}, {ad}, {bg}, {bd}),\n"))
        .collect();
    assert!(
        actual == SUITE_STAGE_EXPANSIONS,
        "search work drifted; the current table is:\n{table}"
    );
}

/// One seeded edit: a small move of a random net, else a one-cell
/// blockage, kept only if the edited circuit validates.
fn seeded_edit(circuit: &Circuit, lines: &[i32], rng: &mut SplitMix64) -> Vec<CircuitEdit> {
    let outline = circuit.outline();
    loop {
        let edit = if rng.gen_index(2) == 0 {
            let nets = circuit.nets();
            CircuitEdit::MoveNet {
                name: nets[rng.gen_index(nets.len())].name().to_string(),
                dx: rng.gen_range(-2i32..=2),
                dy: rng.gen_range(-2i32..=2),
            }
        } else {
            let x = rng.gen_range(outline.x0() + 1..outline.x1() - 1);
            let y = rng.gen_range(outline.y0() + 1..outline.y1() - 1);
            CircuitEdit::AddBlockage {
                rect: mebl_geom::Rect::new(x, y, x, y),
            }
        };
        let edits = vec![edit];
        let valid = apply_edits(circuit, &edits).is_ok_and(|plan| {
            !plan
                .circuit
                .validate(lines)
                .iter()
                .any(CircuitIssue::is_error)
        });
        if valid {
            return edits;
        }
    }
}

/// A three-round `route_delta` chain, each round patching the previous
/// round's outcome, pinned by the hash of every round's outcome. The
/// base leaves a net unrouted, and unrouted nets join every closure, so
/// each round runs the incremental rip-up rounds too.
#[test]
fn delta_chain_is_pinned() {
    let config = RouterConfig::stitch_aware();
    let mut circuit = scaled(&BenchmarkSpec::by_name("DMA").unwrap(), 60.0);
    let mut prior = Router::new(config.clone()).route(&circuit);
    let plan = StitchPlan::new(circuit.outline(), config.stitch);
    let mut rng = SplitMix64::from_seed(0xde17_a2013);
    let mut hashes = Vec::new();
    for _ in 0..3 {
        let edits = seeded_edit(&circuit, plan.lines(), &mut rng);
        let delta = route_delta(&circuit, &prior, &edits, &config).expect("validated edit");
        hashes.push(outcome_hash(&delta.circuit, &delta.outcome, false));
        circuit = delta.circuit;
        prior = delta.outcome;
    }
    let shown: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(
        hashes,
        [
            0x38af_7352_439d_adac,
            0x4248_0073_ea7b_eb4c,
            0x8f25_32dc_ac73_fd48
        ],
        "delta chain output drifted: {shown:?}"
    );
}
