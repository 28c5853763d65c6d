//! Incremental (ECO) delta routing for the MEBL flow (DESIGN.md §14).
//!
//! A routed design rarely dies with its first tape-out of the day:
//! engineering change orders add a net, nudge a macro, drop a new
//! keep-out. Re-routing the whole chip for a one-net change wastes both
//! wall clock and stability — every unrelated net may move. This crate
//! patches a prior [`RoutingOutcome`] instead:
//!
//! 1. **Edits** — a typed [`CircuitEdit`] list (add/remove/move nets,
//!    add/remove blockages) is validated and applied sequentially
//!    ([`apply_edits`]), producing the edited circuit plus provenance
//!    (which new net was which base net).
//! 2. **Closure** — the affected-net set is computed against the prior
//!    geometry by one scan against the edit's query windows: directly edited nets,
//!    nets overlapping added blockages, nets sitting on a dirty net's
//!    pin cells, and previously-unrouted nets.
//! 3. **Patch** — only the closure is ripped up. The undo is exact
//!    because global demands and detailed occupancy are pure functions
//!    of the per-net routes: preserved state is re-applied verbatim and
//!    the closure re-routes against it under the normal budget and
//!    cancellation machinery ([`route_delta`]).
//!
//! The equivalence contract, enforced by the differential harness in
//! the test suite: a delta outcome audits strictly clean, is
//! bit-identical across worker-pool widths, stays within the scratch
//! router's quality bands, and an **empty** edit list reproduces the
//! prior outcome bit-identically.
//!
//! Outcomes round-trip through a canonical text format
//! ([`outcome_to_string`] / [`outcome_from_str`]) so a CLI run can
//! resume from a file and a service can resume from a cached handle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod closure;
mod edit;
mod patch;
mod saved;

pub use closure::affected_nets;
pub use edit::{apply_edits, CircuitEdit, DeltaError, EditPlan};
pub use patch::{route_delta, route_delta_under, DeltaOutcome};
pub use saved::{outcome_from_str, outcome_to_string, ParseOutcomeError, SavedOutcome};

// Re-exported so delta callers can name the outcome type without a
// direct mebl-route dependency.
pub use mebl_route::RoutingOutcome;
