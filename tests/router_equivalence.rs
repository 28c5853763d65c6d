//! Routing-quality contract of the detailed router across the benchmark
//! suite, seeds 1–3 and both stitch configurations of Table VIII.
//!
//! * Every case audits strict-clean: zero errors **and** zero warnings
//!   from the independent verifier.
//! * Every case is checked against [`QUALITY`], a committed table of its
//!   routed nets, `#VV`, `#SP` and wirelength:
//!   - routed nets may not fall below the table;
//!   - `#VV` and `#SP` may exceed the table by at most a tenth, or by two
//!     where a tenth is smaller;
//!   - wirelength per routed net may exceed the table's by at most 3%,
//!     the bound `BENCHMARK.json` puts on `wirelength_per_net`. Per net,
//!     so that a recovered net, which adds its own wire, is not a
//!     regression.
//!
//!   Fewer violations or less wire is never a failure. A change that
//!   routes more nets, or moves quality past a band on purpose,
//!   regenerates the table: the failure message prints it in full.
//!
//! Every assertion message carries the benchmark name, generator seed
//! and stitch mode, so a failure replays with a one-line test.
//!
//! Benchmarks are scaled to ~120 nets apiece — every chip geometry and
//! stitch layout in the suite is exercised, at a size where the 84
//! debug-mode routes finish in CI time.

use mebl_audit::audit_outcome;
use mebl_detailed::DetailedConfig;
use mebl_netlist::{BenchmarkSpec, GenerateConfig};
use mebl_route::{RouteReport, Router, RouterConfig};

/// Net-count target per scaled benchmark.
const TARGET_NETS: f64 = 120.0;

/// `(bench, seed, stitch-aware, routed nets, #VV, #SP, wirelength)` per
/// case, in matrix order: seeds 1–3, stitch-aware then without, the
/// suite in `full_suite` order.
#[rustfmt::skip]
const QUALITY: [(&str, u64, bool, usize, usize, usize, u64); 84] = [
    ("Struct", 1, true, 115, 0, 1, 2348),
    ("Primary1", 1, true, 54, 2, 0, 937),
    ("Primary2", 1, true, 120, 0, 1, 3038),
    ("S5378", 1, true, 102, 2, 0, 1665),
    ("S9234", 1, true, 89, 2, 0, 1144),
    ("S13207", 1, true, 120, 2, 0, 1913),
    ("S15850", 1, true, 120, 0, 0, 1870),
    ("S38417", 1, true, 120, 0, 0, 1956),
    ("S38584", 1, true, 120, 2, 3, 2071),
    ("DMA", 1, true, 120, 0, 2, 3288),
    ("DSP1", 1, true, 120, 0, 5, 2746),
    ("DSP2", 1, true, 120, 2, 4, 3864),
    ("RISC1", 1, true, 120, 0, 0, 3675),
    ("RISC2", 1, true, 120, 0, 0, 3999),
    ("Struct", 1, false, 115, 2, 16, 1954),
    ("Primary1", 1, false, 54, 2, 3, 895),
    ("Primary2", 1, false, 120, 2, 19, 2786),
    ("S5378", 1, false, 102, 2, 8, 1450),
    ("S9234", 1, false, 89, 2, 11, 1071),
    ("S13207", 1, false, 120, 2, 13, 1752),
    ("S15850", 1, false, 120, 0, 16, 1511),
    ("S38417", 1, false, 120, 2, 9, 1605),
    ("S38584", 1, false, 119, 2, 13, 1918),
    ("DMA", 1, false, 120, 4, 24, 2863),
    ("DSP1", 1, false, 120, 2, 19, 2415),
    ("DSP2", 1, false, 120, 8, 32, 3449),
    ("RISC1", 1, false, 119, 0, 26, 3272),
    ("RISC2", 1, false, 120, 4, 21, 3357),
    ("Struct", 2, true, 115, 0, 1, 2152),
    ("Primary1", 2, true, 54, 0, 0, 932),
    ("Primary2", 2, true, 120, 0, 0, 2713),
    ("S5378", 2, true, 102, 0, 1, 1762),
    ("S9234", 2, true, 89, 0, 0, 1495),
    ("S13207", 2, true, 120, 0, 0, 1993),
    ("S15850", 2, true, 120, 0, 0, 2094),
    ("S38417", 2, true, 120, 0, 0, 1644),
    ("S38584", 2, true, 120, 2, 3, 1979),
    ("DMA", 2, true, 120, 4, 3, 2808),
    ("DSP1", 2, true, 120, 2, 1, 2341),
    ("DSP2", 2, true, 120, 2, 7, 2916),
    ("RISC1", 2, true, 120, 0, 2, 3264),
    ("RISC2", 2, true, 120, 4, 2, 3791),
    ("Struct", 2, false, 115, 0, 10, 1927),
    ("Primary1", 2, false, 54, 0, 8, 656),
    ("Primary2", 2, false, 120, 0, 24, 2335),
    ("S5378", 2, false, 102, 2, 9, 1500),
    ("S9234", 2, false, 89, 0, 14, 1338),
    ("S13207", 2, false, 120, 2, 9, 1713),
    ("S15850", 2, false, 120, 0, 16, 1837),
    ("S38417", 2, false, 120, 0, 14, 1344),
    ("S38584", 2, false, 120, 2, 24, 1635),
    ("DMA", 2, false, 120, 6, 17, 2515),
    ("DSP1", 2, false, 120, 8, 20, 2071),
    ("DSP2", 2, false, 120, 6, 30, 2415),
    ("RISC1", 2, false, 120, 4, 31, 2869),
    ("RISC2", 2, false, 120, 8, 31, 3455),
    ("Struct", 3, true, 115, 0, 0, 2234),
    ("Primary1", 3, true, 54, 0, 0, 1083),
    ("Primary2", 3, true, 120, 2, 0, 2373),
    ("S5378", 3, true, 102, 0, 0, 1607),
    ("S9234", 3, true, 89, 0, 0, 1320),
    ("S13207", 3, true, 120, 2, 0, 1854),
    ("S15850", 3, true, 120, 4, 0, 1989),
    ("S38417", 3, true, 120, 2, 0, 2189),
    ("S38584", 3, true, 120, 0, 2, 1698),
    ("DMA", 3, true, 120, 2, 0, 4235),
    ("DSP1", 3, true, 120, 2, 1, 2893),
    ("DSP2", 3, true, 120, 4, 9, 3468),
    ("RISC1", 3, true, 120, 4, 1, 3142),
    ("RISC2", 3, true, 120, 0, 1, 3951),
    ("Struct", 3, false, 115, 2, 17, 1955),
    ("Primary1", 3, false, 54, 0, 9, 940),
    ("Primary2", 3, false, 120, 4, 12, 2121),
    ("S5378", 3, false, 102, 0, 5, 1474),
    ("S9234", 3, false, 89, 0, 9, 1038),
    ("S13207", 3, false, 120, 6, 17, 1633),
    ("S15850", 3, false, 120, 8, 11, 1435),
    ("S38417", 3, false, 120, 6, 9, 1755),
    ("S38584", 3, false, 120, 0, 22, 1470),
    ("DMA", 3, false, 120, 4, 35, 3783),
    ("DSP1", 3, false, 120, 2, 26, 2600),
    ("DSP2", 3, false, 120, 6, 43, 2890),
    ("RISC1", 3, false, 120, 6, 23, 2613),
    ("RISC2", 3, false, 120, 6, 26, 3279),
];

/// The two detailed-routing stitch modes of Table VIII.
fn config_for(stitch: bool) -> RouterConfig {
    let mut config = RouterConfig::stitch_aware();
    if !stitch {
        config.detailed = DetailedConfig::without_stitch_consideration();
    }
    config
}

/// The scaled-down generator for `bench`: the quick test scale, further
/// reduced on the large benchmarks so every case lands near
/// [`TARGET_NETS`] nets.
fn gen_for(bench: &BenchmarkSpec, seed: u64) -> GenerateConfig {
    let mut cfg = GenerateConfig::quick(seed);
    cfg.net_scale = cfg.net_scale.min(TARGET_NETS / bench.nets as f64);
    cfg
}

/// Routes `bench`/`seed` and asserts the solution is audit strict-clean.
fn route_strict_clean(bench: &BenchmarkSpec, seed: u64, stitch: bool) -> RouteReport {
    let circuit = bench.generate(&gen_for(bench, seed));
    let config = config_for(stitch);
    let outcome = Router::new(config.clone()).route(&circuit);
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert_eq!(
        audit.error_count(),
        0,
        "audit errors: bench={} seed={seed} stitch={stitch}\n{:#?}",
        bench.name,
        audit.findings
    );
    assert_eq!(
        audit.warning_count(),
        0,
        "audit warnings (strict): bench={} seed={seed} stitch={stitch}\n{:#?}",
        bench.name,
        audit.findings
    );
    outcome.report
}

/// The violation band: a tenth of the table's count, at least two.
fn violation_band(pinned: usize) -> usize {
    (pinned / 10).max(2)
}

#[test]
fn suite_quality_holds_across_seeds_and_stitch_modes() {
    let mut actual = Vec::new();
    for seed in 1..=3 {
        for stitch in [true, false] {
            for bench in mebl_netlist::full_suite() {
                let r = route_strict_clean(&bench, seed, stitch);
                actual.push((
                    bench.name,
                    seed,
                    stitch,
                    r.routed_nets,
                    r.via_violations,
                    r.short_polygons,
                    r.wirelength,
                ));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, seed, stitch, routed, vv, sp, wl)| {
            format!("    ({name:?}, {seed}, {stitch}, {routed}, {vv}, {sp}, {wl}),\n")
        })
        .collect();
    assert_eq!(
        actual.len(),
        QUALITY.len(),
        "the quality table does not cover the matrix; the current table is:\n{table}"
    );
    for (got, pinned) in actual.iter().zip(&QUALITY) {
        let (name, seed, stitch, routed, vv, sp, wl) = *got;
        let (p_name, p_seed, p_stitch, p_routed, p_vv, p_sp, p_wl) = *pinned;
        let ctx = format!("bench={name} seed={seed} stitch={stitch}");
        assert_eq!(
            (name, seed, stitch),
            (p_name, p_seed, p_stitch),
            "table out of matrix order; the current table is:\n{table}"
        );
        assert!(
            routed >= p_routed,
            "routed {routed} < {p_routed} nets: {ctx}; the current table is:\n{table}"
        );
        assert!(
            vv <= p_vv + violation_band(p_vv),
            "#VV {vv} past the band of {p_vv}: {ctx}; the current table is:\n{table}"
        );
        assert!(
            sp <= p_sp + violation_band(p_sp),
            "#SP {sp} past the band of {p_sp}: {ctx}; the current table is:\n{table}"
        );
        // wl / routed <= 1.03 · p_wl / p_routed, in integers.
        let (lhs, rhs) = (
            u128::from(wl) * p_routed as u128 * 100,
            u128::from(p_wl) * routed as u128 * 103,
        );
        assert!(
            lhs <= rhs,
            "WL {wl} over {routed} nets is more than 3% per net above {p_wl} over \
             {p_routed}: {ctx}; the current table is:\n{table}"
        );
    }
}
