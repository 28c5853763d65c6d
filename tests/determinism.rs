//! Reproducibility: the whole stack is seeded and deterministic — the
//! same inputs must give byte-identical outputs across runs.

use mebl_assign::random_instances;
use mebl_netlist::{circuit_to_string, BenchmarkSpec, GenerateConfig, GENERATOR_FINGERPRINT};
use mebl_route::{Router, RouterConfig};

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
