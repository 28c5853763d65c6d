//! Graph-algorithm substrate for the MEBL stitch-aware routing stack.
//!
//! The paper delegates its combinatorial kernels to LEDA and CPLEX; this
//! crate provides self-contained Rust implementations of everything those
//! libraries supplied:
//!
//! * [`UnionFind`] and [`maximum_spanning_tree`] — the baseline layer
//!   assignment heuristic of Chen et al. \[4\].
//! * [`MinCostFlow`] — successive-shortest-path min-cost max-flow with
//!   Johnson potentials (handles negative arc costs via an initial
//!   Bellman–Ford pass).
//! * [`min_cost_perfect_matching`] — Hungarian algorithm on a dense cost
//!   matrix, used to merge colour groups during layer assignment.
//! * [`max_weight_k_colorable`] — Carlisle–Lloyd maximum-weight
//!   k-colorable subset of intervals via min-cost flow, plus a sweep
//!   colouring of the selected subset.
//! * [`longest_paths`] — DAG longest paths for the track-assignment
//!   constraint graphs.
//! * [`BucketQueue`] — Dial's monotone integer priority queue, the
//!   frontier of every detailed-routing search, hard and soft. Its
//!   overflow list parks keys far past the ring, such as each new
//!   foreign-cell level of a soft search.
//! * [`FxHasher`] with the [`FastMap`]/[`FastSet`] aliases —
//!   fixed-seed multiplicative hashing for hot-path integer keys.
//!
//! The grid path searches themselves live with their cost models, in
//! `mebl-detailed` and `mebl-global`; this crate has no generic A\*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
mod dag;
mod fx;
mod interval_color;
mod matching;
mod mcmf;
mod spanning;
mod unionfind;

pub use bucket::BucketQueue;
pub use dag::longest_paths;
pub use fx::{FastMap, FastSet, FxHasher};
pub use interval_color::{max_weight_k_colorable, ColorableSelection, WeightedInterval};
pub use matching::min_cost_perfect_matching;
pub use mcmf::{EdgeId, MinCostFlow};
pub use spanning::{maximum_spanning_tree, Edge};
pub use unionfind::UnionFind;
