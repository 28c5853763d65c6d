//! Ablation sweeps over the framework's design parameters (extension
//! beyond the paper's tables; DESIGN.md "ablation benches").
//!
//! Four series on one mid-size circuit:
//!   1. stitch period (stripe width) vs #SP / routability;
//!   2. unfriendly-region width ε vs #SP;
//!   3. detailed-routing β (via-in-SUR weight) vs #SP;
//!   4. escape cost γ vs #SP / wirelength.

use mebl_bench::Options;
use mebl_netlist::BenchmarkSpec;
use mebl_route::{Router, RouterConfig, StitchConfig};

fn main() {
    let mut opt = Options::parse(std::env::args().skip(1));
    if (opt.scale - 1.0).abs() < f64::EPSILON {
        opt.scale = 0.2;
    }
    let circuit = BenchmarkSpec::by_name("S13207")
        .expect("suite circuit")
        .generate(&opt.generate_config());
    println!(
        "sweeps on S13207 @ scale {:.2} ({} nets)\n",
        opt.scale,
        circuit.net_count()
    );

    println!("1) stitch period sweep (tile size follows the period)");
    println!("{:>8} {:>8} {:>10} {:>6} {:>6}", "period", "#lines", "Rout.(%)", "#SP", "#VV");
    for period in [10, 15, 20, 30] {
        let stitch = StitchConfig {
            period,
            ..StitchConfig::default()
        };
        let out = Router::new(RouterConfig::preset(false, stitch)).route(&circuit);
        println!(
            "{:>8} {:>8} {:>10.2} {:>6} {:>6}",
            period,
            out.plan.lines().len(),
            out.report.routability() * 100.0,
            out.report.short_polygons,
            out.report.via_violations
        );
    }

    println!("\n2) unfriendly-region width epsilon sweep");
    println!("{:>8} {:>10} {:>6}", "epsilon", "Rout.(%)", "#SP");
    for epsilon in [0, 1, 2, 3] {
        let mut config = RouterConfig::stitch_aware();
        config.stitch.epsilon = epsilon;
        config.stitch.escape_width = config.stitch.escape_width.max(epsilon);
        let out = Router::new(config).route(&circuit);
        println!(
            "{:>8} {:>10.2} {:>6}",
            epsilon,
            out.report.routability() * 100.0,
            out.report.short_polygons
        );
    }

    println!("\n3) beta (via-in-stitch-unfriendly cost) sweep, gamma = 5");
    println!("{:>8} {:>10} {:>6} {:>10}", "beta", "Rout.(%)", "#SP", "WL");
    for beta in [0, 2, 10, 40] {
        let mut config = RouterConfig::stitch_aware();
        config.detailed.beta = beta;
        let out = Router::new(config).route(&circuit);
        println!(
            "{:>8} {:>10.2} {:>6} {:>10}",
            beta,
            out.report.routability() * 100.0,
            out.report.short_polygons,
            out.report.wirelength
        );
    }

    println!("\n4) gamma (escape region cost) sweep, beta = 10");
    println!("{:>8} {:>10} {:>6} {:>10}", "gamma", "Rout.(%)", "#SP", "WL");
    for gamma in [0, 2, 5, 20] {
        let mut config = RouterConfig::stitch_aware();
        config.detailed.gamma = gamma;
        let out = Router::new(config).route(&circuit);
        println!(
            "{:>8} {:>10.2} {:>6} {:>10}",
            gamma,
            out.report.routability() * 100.0,
            out.report.short_polygons,
            out.report.wirelength
        );
    }
}
