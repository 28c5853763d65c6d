//! Aggregated routing metrics in the paper's table format.

use std::time::{Duration, Instant};

/// The one sanctioned wall-clock reader of the routing flow.
///
/// All stage timing goes through this type so the rest of the workspace
/// stays free of direct `Instant::now` calls (enforced by `xtask lint`):
/// routing output must be a pure function of its inputs, and clock reads
/// sprinkled through library code are where nondeterminism creeps in.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current instant.
    #[must_use]
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// The per-circuit metrics reported in Tables III, VII and VIII:
/// routability, via violations (`#VV`), short polygons (`#SP`), plus
/// wirelength, via count and CPU time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteReport {
    /// Nets in the circuit.
    pub total_nets: usize,
    /// Successfully routed nets.
    pub routed_nets: usize,
    /// Vias on stitching lines over routed nets (`#VV`).
    pub via_violations: usize,
    /// Via violations not at a fixed pin (must be 0 for a legal run).
    pub via_violations_off_pin: usize,
    /// Vertical wires riding a stitching line (must be 0).
    pub vertical_violations: usize,
    /// Short polygons over routed nets (`#SP`).
    pub short_polygons: usize,
    /// Total routed wirelength in pitches.
    pub wirelength: u64,
    /// Total via count.
    pub vias: usize,
    /// Wall-clock routing time.
    pub elapsed: Duration,
}

impl RouteReport {
    /// Routability: routed / total nets (1.0 for an empty circuit).
    #[must_use]
    pub fn routability(&self) -> f64 {
        if self.total_nets == 0 {
            1.0
        } else {
            self.routed_nets as f64 / self.total_nets as f64
        }
    }

    /// `true` when no hard MEBL constraint is violated.
    #[must_use]
    pub fn hard_clean(&self) -> bool {
        self.vertical_violations == 0 && self.via_violations_off_pin == 0
    }
}

impl std::fmt::Display for RouteReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "routed {}/{} ({:.2}%), #VV {}, #SP {}, WL {}, vias {}, {:.2}ms",
            self.routed_nets,
            self.total_nets,
            self.routability() * 100.0,
            self.via_violations,
            self.short_polygons,
            self.wirelength,
            self.vias,
            self.elapsed.as_secs_f64() * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routability_fraction() {
        let r = RouteReport {
            total_nets: 200,
            routed_nets: 199,
            ..RouteReport::default()
        };
        assert!((r.routability() - 0.995).abs() < 1e-12);
    }

    #[test]
    fn empty_circuit_fully_routable() {
        assert_eq!(RouteReport::default().routability(), 1.0);
    }

    #[test]
    fn hard_clean_logic() {
        let mut r = RouteReport::default();
        assert!(r.hard_clean());
        r.via_violations = 5; // tolerated pin violations
        assert!(r.hard_clean());
        r.vertical_violations = 1;
        assert!(!r.hard_clean());
    }

    #[test]
    fn display_nonempty() {
        let r = RouteReport::default();
        assert!(r.to_string().contains("routed"));
    }

    #[test]
    fn display_prints_elapsed_in_milliseconds() {
        let r = RouteReport {
            elapsed: Duration::from_micros(2890),
            ..RouteReport::default()
        };
        let line = r.to_string();
        assert!(line.ends_with(", 2.89ms"), "{line}");
    }
}
