//! Seeded synthetic circuit generation.

use crate::{BenchmarkSpec, Circuit, Net, Pin};
use mebl_control::{Degradation, DegradationKind, Stage};
use mebl_geom::{Coord, Layer, Point, Rect};
use mebl_testkit::{Rng, Xoshiro256pp};
use std::collections::BTreeSet;

/// Parameters controlling synthetic circuit generation.
///
/// The defaults reproduce the paper-scale experiments; integration tests use
/// [`GenerateConfig::quick`] to run the same code paths on scaled-down
/// circuits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerateConfig {
    /// RNG seed. The circuit name is mixed in, so one seed yields a
    /// different (but deterministic) circuit per benchmark.
    pub seed: u64,
    /// Grid area (in track cells) allocated per pin; controls congestion.
    /// Larger values give sparser, easier-to-route designs.
    pub cells_per_pin: f64,
    /// Fraction of the published #nets/#pins to generate (1.0 = full size).
    pub net_scale: f64,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        Self {
            seed: 2013, // DAC 2013
            cells_per_pin: 28.0,
            net_scale: 1.0,
        }
    }
}

impl GenerateConfig {
    /// A scaled-down configuration for fast tests (~6 % of the nets).
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            net_scale: 0.06,
            ..Self::default()
        }
    }
}

/// Fingerprint of the generator's output: FNV-1a over the
/// [`circuit_to_string`](crate::circuit_to_string) text of every
/// [`full_suite`](crate::full_suite) benchmark at
/// [`GenerateConfig::quick`]`(2013)`, in suite order.
///
/// A consumer that names a generated circuit by its recipe (benchmark,
/// seed, scale) instead of its text mixes this in, so a change to the
/// generator re-keys whatever it keyed. `tests/determinism.rs`
/// recomputes the hash: any change to the generator's output fails
/// there until this constant is updated.
pub const GENERATOR_FINGERPRINT: u64 = 0x2ef0_58e2_d2ac_3d9f;

/// FNV-1a hash of the circuit name, for stable per-benchmark seeds.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Generates the synthetic circuit for `spec` (see crate docs for the
/// modelling rationale).
pub fn generate(spec: &BenchmarkSpec, config: &GenerateConfig) -> Circuit {
    generate_with_events(spec, config).0
}

/// Like [`generate`], but also surfaces the shortcuts the generator took
/// (saturated-neighbourhood pin placements, truncated or dropped nets) as
/// [`Degradation`] records instead of taking them silently.
///
/// The returned circuit is bit-identical to [`generate`]'s — event
/// collection never touches the RNG stream.
pub fn generate_with_events(
    spec: &BenchmarkSpec,
    config: &GenerateConfig,
) -> (Circuit, Vec<Degradation>) {
    assert!(config.net_scale > 0.0 && config.net_scale <= 1.0);
    assert!(config.cells_per_pin >= 4.0, "need at least 4 cells per pin");

    let mut rng = Xoshiro256pp::from_seed(config.seed ^ fnv1a(spec.name));

    let n_nets = ((spec.nets as f64 * config.net_scale).round() as usize).max(4);
    let n_pins = ((spec.pins as f64 * config.net_scale).round() as usize).max(2 * n_nets);

    // Grid sized from pin count at the target utilisation, preserving the
    // published aspect ratio. More layers carry more wiring, so 6-layer
    // designs can be denser per unit area.
    let layer_factor = 3.0 / f64::from(spec.layers.max(2));
    let area = (n_pins as f64) * config.cells_per_pin * layer_factor;
    let width = ((area * spec.aspect()).sqrt().round() as Coord).max(30);
    let height = ((area / spec.aspect()).sqrt().round() as Coord).max(30);
    let outline = Rect::new(0, 0, width - 1, height - 1);

    // Net degrees: start every net at 2 pins, then hand out the remaining
    // pins with a cubic bias so a small set of nets grows large (clock /
    // reset style high-fanout nets).
    let mut degrees = vec![2usize; n_nets];
    let extra = n_pins.saturating_sub(2 * n_nets);
    for _ in 0..extra {
        let u: f64 = rng.gen_f64();
        let idx = ((u * u * u) * n_nets as f64) as usize;
        degrees[idx.min(n_nets - 1)] += 1;
    }

    // Pin locality: most nets are short, a tail is chip-spanning.
    let min_dim = width.min(height) as f64;
    let mut used: BTreeSet<Point> = BTreeSet::new();
    let mut nets = Vec::with_capacity(n_nets);
    let mut fallback_pins = 0usize;
    let mut truncated_nets = 0usize;
    let mut dropped_nets = 0usize;
    for (i, &deg) in degrees.iter().enumerate() {
        let locality: f64 = rng.gen_f64();
        let radius = if locality < 0.75 {
            (min_dim * 0.04).max(4.0)
        } else if locality < 0.95 {
            (min_dim * 0.12).max(8.0)
        } else {
            min_dim * 0.45
        };
        let cx = rng.gen_range(0..width);
        let cy = rng.gen_range(0..height);
        let mut pins = Vec::with_capacity(deg);
        for _ in 0..deg {
            // A `None` means the whole grid is exhausted: keep whatever
            // pins the net has and surface the truncation below.
            let Some((p, fell_back)) = place_pin(&mut rng, outline, cx, cy, radius, &mut used)
            else {
                break;
            };
            fallback_pins += usize::from(fell_back);
            pins.push(Pin::new(p, Layer::new(0)));
        }
        if pins.len() >= 2 {
            if pins.len() < deg {
                truncated_nets += 1;
            }
            nets.push(Net::new(format!("{}_{}", spec.name.to_lowercase(), i), pins));
        } else {
            dropped_nets += 1;
        }
    }

    let mut events = Vec::new();
    if fallback_pins > 0 {
        events.push(Degradation::new(
            Stage::Generate,
            DegradationKind::InternalFallback,
            None,
            format!(
                "{fallback_pins} pins placed by row-major scan after 64 saturated samples"
            ),
        ));
    }
    if truncated_nets > 0 {
        events.push(Degradation::new(
            Stage::Generate,
            DegradationKind::InternalFallback,
            None,
            format!("{truncated_nets} nets truncated: grid exhausted before full degree"),
        ));
    }
    if dropped_nets > 0 {
        events.push(Degradation::new(
            Stage::Generate,
            DegradationKind::InternalFallback,
            None,
            format!("{dropped_nets} nets dropped with fewer than two placeable pins"),
        ));
    }
    (Circuit::new(spec.name, outline, spec.layers, nets), events)
}

/// Samples a pin near `(cx, cy)` within `radius`, guaranteeing a globally
/// unique grid position (falls back to a deterministic scan when the
/// neighbourhood is saturated; the boolean reports that fallback so the
/// caller can surface it). Returns `None` only when every cell of the
/// grid is occupied; the generator sizes grids so that never happens in
/// practice.
fn place_pin(
    rng: &mut Xoshiro256pp,
    outline: Rect,
    cx: Coord,
    cy: Coord,
    radius: f64,
    used: &mut BTreeSet<Point>,
) -> Option<(Point, bool)> {
    let r = radius.ceil() as Coord;
    for attempt in 0..64 {
        // Widen the window if the local area is saturated.
        let w = r * (1 + attempt / 8);
        let x = (cx + rng.gen_range(-w..=w)).clamp(outline.x0(), outline.x1());
        let y = (cy + rng.gen_range(-w..=w)).clamp(outline.y0(), outline.y1());
        let p = Point::new(x, y);
        if used.insert(p) {
            return Some((p, false));
        }
    }
    // Deterministic fallback: first free cell in row-major order from the
    // centre.
    for dy in 0..=(outline.height() as Coord) {
        for dx in 0..=(outline.width() as Coord) {
            let p = Point::new(
                (cx + dx).clamp(outline.x0(), outline.x1()),
                (cy + dy).clamp(outline.y0(), outline.y1()),
            );
            if used.insert(p) {
                return Some((p, true));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_suite;
    use std::collections::HashSet;

    #[test]
    fn exact_counts_at_full_scale() {
        let spec = BenchmarkSpec::by_name("S9234").unwrap();
        let c = spec.generate(&GenerateConfig::default());
        assert_eq!(c.net_count(), 1486);
        assert_eq!(c.pin_count(), 4260);
        assert_eq!(c.layer_count(), 3);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = BenchmarkSpec::by_name("S5378").unwrap();
        let cfg = GenerateConfig::quick(11);
        let a = spec.generate(&cfg);
        let b = spec.generate(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_changes_circuit() {
        let spec = BenchmarkSpec::by_name("S5378").unwrap();
        let a = spec.generate(&GenerateConfig::quick(1));
        let b = spec.generate(&GenerateConfig::quick(2));
        assert_ne!(a, b);
    }

    #[test]
    fn pins_unique_and_inside_outline() {
        let spec = BenchmarkSpec::by_name("DMA").unwrap();
        let c = spec.generate(&GenerateConfig::quick(3));
        let mut seen = HashSet::new();
        for net in c.nets() {
            for pin in net.pins() {
                assert!(c.outline().contains(pin.position));
                assert!(seen.insert(pin.position), "duplicate pin at {}", pin.position);
            }
        }
    }

    #[test]
    fn aspect_ratio_roughly_preserved() {
        let spec = BenchmarkSpec::by_name("Primary2").unwrap();
        let c = spec.generate(&GenerateConfig::quick(5));
        let got = c.outline().width() as f64 / c.outline().height() as f64;
        assert!((got / spec.aspect() - 1.0).abs() < 0.1, "aspect {got} vs {}", spec.aspect());
    }

    #[test]
    fn every_benchmark_generates_at_quick_scale() {
        for spec in full_suite() {
            let c = spec.generate(&GenerateConfig::quick(1));
            assert!(c.net_count() >= 4);
            assert!(c.pin_count() >= 2 * c.net_count());
            // Grids must comfortably contain several stitch periods (15).
            assert!(c.outline().width() >= 30);
            assert!(c.outline().height() >= 30);
        }
    }

    #[test]
    fn most_nets_are_local() {
        let spec = BenchmarkSpec::by_name("S38417").unwrap();
        let c = spec.generate(&GenerateConfig::quick(7));
        let min_dim = c.outline().width().min(c.outline().height());
        let local = c
            .nets()
            .iter()
            .filter(|n| n.hpwl() < min_dim / 2)
            .count();
        assert!(
            local * 10 >= c.net_count() * 7,
            "expected >=70% local nets, got {local}/{}",
            c.net_count()
        );
    }
}
