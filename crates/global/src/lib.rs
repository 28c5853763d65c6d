//! Stitch-aware global routing (paper §III-A).
//!
//! The routing plane is divided into **global tiles** and modelled as a
//! graph: a vertex per tile, an edge per adjacent tile pair ([`TileGraph`]).
//! MEBL changes the resource model in two ways (Fig. 7):
//!
//! * **Edge capacities** in the vertical direction shrink, because no wire
//!   may ride a track occupied by a stitching line.
//! * **Vertices get a capacity too** — the number of vertical tracks
//!   *outside* stitch unfriendly regions. Each line end of a vertical
//!   segment consumes one unit; an excess line end must sit in an
//!   unfriendly region and risks a short polygon downstream.
//!
//! Costs follow eqs. (1)–(3): `ψe = 2^(de/ce) − 1`, `ψv = 2^(dv/cv) − 1`,
//! and a path costs `Ψ(P) = Σ ψe + Σ ψv`. The router processes nets in
//! bottom-up multilevel order (local nets first), decomposes multi-pin
//! nets over an MST, runs congestion-aware A\* per connection, and then
//! performs negotiation-style rip-up/reroute passes on overflowed
//! resources. Setting [`GlobalConfig::line_end_cost`] to `false` yields
//! the conventional wire-density-only router compared against in Table IV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod multilevel;
mod router;
mod tilegraph;

pub use router::{
    rebuild_result, route_circuit, route_incremental, GlobalConfig, GlobalMetrics, GlobalResult,
    GlobalRoute, TileRun,
};
pub use tilegraph::{TileGraph, TileId};
