//! Netlists and benchmark circuits for the MEBL stitch-aware router.
//!
//! The paper evaluates on the MCNC and Faraday benchmark suites
//! (Tables I–II). Those suites' routed placements are not redistributable,
//! so this crate reproduces them as **synthetic circuits**: for each
//! published circuit we keep the published statistics (#layers, #nets,
//! #pins, aspect ratio) and generate a seeded random placement with
//! Rent-style pin locality (most nets are short, a tail is global). The
//! routing experiments measure *relative* behaviour of stitch-aware vs
//! conventional algorithms, which depends on the congestion profile and
//! net-length distribution — both of which the generator controls — rather
//! than on the exact original cell positions.
//!
//! # Examples
//!
//! ```
//! use mebl_netlist::{BenchmarkSpec, GenerateConfig};
//!
//! let spec = BenchmarkSpec::by_name("S5378").unwrap();
//! let circuit = spec.generate(&GenerateConfig { seed: 7, ..Default::default() });
//! assert_eq!(circuit.net_count(), 1694);
//! assert_eq!(circuit.pin_count(), 4818);
//! assert_eq!(circuit.layer_count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod generate;
mod io;
mod suite;

pub use circuit::{Circuit, CircuitIssue, IssueSeverity, Net, NetId, Pin};
pub use generate::{generate_with_events, GenerateConfig, GENERATOR_FINGERPRINT};
pub use io::{circuit_from_str, circuit_to_string, ParseCircuitError};
pub use suite::{faraday_suite, full_suite, mcnc_suite, BenchmarkSpec, Suite};
