//! Reproducibility: the whole stack is seeded and deterministic — the
//! same inputs must give byte-identical outputs across runs.

use mebl_assign::random_instances;
use mebl_delta::{apply_edits, outcome_to_string, route_delta, CircuitEdit, SavedOutcome};
use mebl_netlist::{
    circuit_to_string, full_suite, BenchmarkSpec, Circuit, CircuitIssue, GenerateConfig,
    GENERATOR_FINGERPRINT,
};
use mebl_route::{Router, RouterConfig, RoutingOutcome};
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
    ("Struct", 0xf8d9a9559a9419d9, 0x4cee7de4a12d39c7),
    ("Primary1", 0xf0fea67df24d277e, 0xe68e6a70ce8be4f9),
    ("Primary2", 0x6099c064e138f3d8, 0xf71c3cfb74c04d6b),
    ("S5378", 0x8a7ec0450fc360d6, 0xfb38860978f7c274),
    ("S9234", 0x23e7abb9bff1fa66, 0xd89228dc4d8edfe7),
    ("S13207", 0x384c416cfc5a58bb, 0x15df1d17cd001410),
    ("S15850", 0x5c99a77db49de2d6, 0x0c426a436acf0637),
    ("S38417", 0xe19a0622a92522b2, 0xda0b93a828b2afe5),
    ("S38584", 0x6368f88a8cc4a3aa, 0x082853927ae33fd1),
    ("DMA", 0xe4f793651e63e68f, 0x7db48d5288b53f72),
    ("DSP1", 0xa3cfffbfc6fcfab8, 0xd335ef6ab9e9c5d8),
    ("DSP2", 0xce212639e7742a9f, 0x03801736423d724e),
    ("RISC1", 0xec39d4b7f53bfe53, 0xbfb691c8b7f4c89b),
    ("RISC2", 0x377cc0873d498fb4, 0x7ae29dcb44f2c7d0),
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
            0x882d_8dbd_764a_c1c6,
            0x258f_7e51_d0a1_1604,
            0xcae0_6aaf_ddb4_290b
        ],
        "delta chain output drifted: {shown:?}"
    );
}
